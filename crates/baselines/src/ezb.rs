//! EZB — the Enhanced Zero-Based estimator of Kodialam, Nandagopal & Lau
//! (INFOCOM 2007).
//!
//! EZB improves on UPE by using only the *number of empty slots* across
//! multiple frames — a statistic the reader can collect from 1-bit
//! busy/idle observations, with no need to distinguish singletons from
//! collisions (and hence no anonymity leak, the paper's motivation). Each
//! round is a balanced frame; the averaged empty fraction inverts through
//! `rho = e^(-p n / f)`.

use crate::common::{
    capped, clamped_rho, frame_series, required_trials, uniform_frame_plan, Series,
    ZOE_OPTIMAL_LAMBDA,
};
use rand::RngCore;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;

/// Frame size per round (bit-slots).
const FRAME: usize = 1024;
/// Round cap (ART's): binds only below `epsilon ~ 0.004`.
const MAX_ROUNDS: u64 = 512;

/// The EZB estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ezb;

impl CardinalityEstimator for Ezb {
    fn name(&self) -> &'static str {
        "EZB"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            let p = (ZOE_OPTIMAL_LAMBDA * FRAME as f64 / n_r).min(1.0);
            let d = d_for_delta(accuracy.delta);
            let trials = required_trials(accuracy.epsilon, d, ZOE_OPTIMAL_LAMBDA);
            let wanted = trials.div_ceil(FRAME as u64);
            let rounds = capped(wanted, 1, MAX_ROUNDS, "round budget", warnings);

            let mut idle = 0;
            series.run(rounds, |system, seed| {
                let frame = system.run_bitslot_frame(FRAME, &uniform_frame_plan(seed, FRAME, p));
                idle += frame.idle_count();
            });
            let total = rounds as usize * FRAME;
            if idle == 0 || idle == total {
                warnings.push("degenerate EZB observations; rho clamped".into());
            }
            -(FRAME as f64) * clamped_rho(idle, total).ln() / p
        };
        frame_series(system, rng, "rough (LOF)", "zero frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Ezb, n, (19, 11), seed, accuracy)
    }

    #[test]
    fn uses_bitslots_not_aloha() {
        let report = run(10_000, 4, Accuracy::paper_default());
        assert_eq!(report.air.aloha_slots, 0);
        assert!(report.air.bitslots > 1024);
    }

    #[test]
    fn much_cheaper_than_upe() {
        let acc = Accuracy::paper_default();
        let ezb = run(10_000, 5, acc);
        let upe = crate::common::test_estimate(&crate::upe::Upe, 10_000, (19, 11), 5, acc);
        assert!(ezb.air.total_us() < upe.air.total_us() / 4.0);
    }

    #[test]
    fn empty_population_warns_and_returns_small() {
        let report = run(0, 6, Accuracy::paper_default());
        // p clamps to 1, all slots idle -> clamped rho -> tiny estimate.
        assert!(report.n_hat < 5.0, "n_hat = {}", report.n_hat);
        assert!(!report.warnings.is_empty());
    }
}
