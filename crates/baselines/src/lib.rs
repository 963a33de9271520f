//! Baseline RFID cardinality estimators, re-implemented from their
//! published designs for comparison with BFCE.
//!
//! The BFCE paper's evaluation (Section V-C) compares against **ZOE**
//! (Zheng & Li, INFOCOM 2013) and **SRC** (Chen, Zhou & Yu, MobiCom 2013),
//! using **LOF** (Qian et al., TPDS 2011) as ZOE's rough-estimation
//! front-end — all three live here, with the modifications the paper
//! describes (LOF x10 for ZOE's rough phase; SRC's second phase repeated
//! `m` times with a majority/median vote, `m` from the binomial-tail rule).
//!
//! The wider related-work family from Section II is implemented as well,
//! one module per scheme, so the extension benches can put BFCE in its full
//! historical context:
//!
//! * [`upe`] — UPE, framed-slotted-Aloha zero/collision estimators (2006);
//! * [`ezb`] — EZB, multi-frame averaged zero estimator (2007);
//! * [`fneb`] — FNEB, first-non-empty-slot estimator (2010);
//! * [`mle`] — MLE, maximum-likelihood estimation for active tags (2010);
//! * [`art`] — ART, average-run-size-of-1s estimator (2012);
//! * [`pet`] — PET, probabilistic estimating tree (2012);
//! * [`a3`] — A³, arbitrarily accurate approximation (2014);
//! * [`inventory`] — exact counting via the C1G2 Q-protocol, the
//!   "traditional identification" the paper scopes itself away from
//!   (used by the crossover experiment).
//!
//! Two *modern* (non-RFID-literature) mergeable-sketch baselines round
//! out the family for the multi-reader roadmap: [`hllpp`] (HyperLogLog++)
//! and [`llbeta`] (LogLog-β), both run over the honest
//! register-collection air protocol in [`registers`] and both producing
//! snapshots that checkpoint/restore/merge via [`rfid_bfce::Snapshot`].
//!
//! Every estimator implements [`rfid_sim::CardinalityEstimator`] and pays
//! for its traffic through the same air-time ledger as BFCE, so execution
//! times are directly comparable (Figure 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod a3;
pub mod art;
pub mod common;
pub mod ezb;
pub mod fneb;
pub mod fuzz;
pub mod hllpp;
pub mod inventory;
pub mod llbeta;
pub mod lof;
pub mod mle;
pub mod pet;
pub mod registers;
pub mod src;
pub mod upe;
pub mod zoe;

pub use a3::A3;
pub use art::Art;
pub use ezb::Ezb;
pub use fneb::Fneb;
pub use hllpp::HllPp;
pub use inventory::QInventory;
pub use llbeta::LogLogBeta;
pub use lof::Lof;
pub use mle::Mle;
pub use pet::Pet;
pub use src::Src;
pub use upe::Upe;
pub use zoe::{Zoe, ZoeSlotPlan};

/// Every baseline estimator, boxed, for shoot-out sweeps.
pub fn all_baselines() -> Vec<Box<dyn rfid_sim::CardinalityEstimator>> {
    vec![
        Box::new(Lof::default()),
        Box::new(Zoe::default()),
        Box::new(Src),
        Box::new(Upe),
        Box::new(Ezb),
        Box::new(Fneb),
        Box::new(Art),
        Box::new(Mle),
        Box::new(Pet::default()),
        Box::new(A3),
        Box::new(HllPp::default()),
        Box::new(LogLogBeta::default()),
    ]
}
