//! EPCglobal C1G2-style RFID air-interface simulator.
//!
//! This crate is the substrate the BFCE paper's evaluation runs on: a
//! *Reader-Talks-First*, time-slotted link between one logical reader and a
//! large tag population (Section III-A of the paper), with
//!
//! * the **bit-slot** channel mode of parallel identification protocols —
//!   tags transmit a 1-bit blip, the reader only senses busy/idle
//!   ([`frame`], [`bitmap`]),
//! * classic **framed slotted Aloha** observation (empty / singleton /
//!   collision) for the older baselines ([`aloha`]),
//! * the paper's **timing model** — 37.76 µs per reader bit, 18.88 µs per
//!   tag bit, 302 µs turnaround — and an [`ledger::AirTimeLedger`] that
//!   accounts every microsecond of reader↔tag communication, because the
//!   paper's central argument is about *total execution time*, not slot
//!   counts ([`timing`], [`ledger`]),
//! * pluggable channels: the paper's perfect channel plus bit-error,
//!   capture-effect and imperfect-hash channels for robustness ablations
//!   ([`channel`]),
//! * a deterministic fault-injection layer — seed-replayable schedules of
//!   frame aborts, slot bursts, desync offsets and reader dropouts, with
//!   degradation accounting on every estimate ([`fault`]),
//! * a parallel frame-fill engine for multi-million-tag populations
//!   ([`parallel`]), and an `rn` column bucketed by persistence key that
//!   fills the paper's XorBitget Bloom frames from their responding tags
//!   alone ([`mod@column`]),
//! * the [`CardinalityEstimator`] trait every estimator in this workspace
//!   implements, and the [`RfidSystem`] façade estimators drive
//!   ([`estimator`], [`system`]),
//! * a multi-reader deployment model showing the paper's "multiple readers
//!   are logically one reader" assumption ([`multireader`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod bitmap;
pub mod channel;
pub mod column;
pub mod dispatch;
pub mod estimator;
pub mod fault;
pub mod frame;
pub mod ledger;
pub mod multireader;
pub mod parallel;
pub mod system;
pub mod tag;
pub mod timing;
pub mod trace;

pub use aloha::AlohaOutcome;
pub use bitmap::Bitmap;
pub use channel::{
    BitErrorChannel, CaptureChannel, Channel, ImperfectHashChannel, PerfectChannel,
};
pub use column::RnColumn;
pub use dispatch::FillDispatch;
pub use fault::{FaultPlan, FaultSpec, Quality, ReaderDropout};
pub use multireader::{DeploymentError, MultiReaderDeployment};
pub use estimator::{
    Accuracy, AccuracyError, CardinalityEstimator, EstimationReport, PhaseReport,
};
pub use frame::{BitFrame, FrameFill, ResponsePlan, ScalarRef, SlotSink};
pub use ledger::{AirTime, AirTimeLedger};
pub use system::RfidSystem;
pub use tag::{Tag, TagPopulation, UniqueIds};
pub use timing::{LinkParams, Timing};
pub use trace::TraceEvent;
