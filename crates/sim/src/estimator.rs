//! The estimator abstraction: accuracy requirements, reports, and the
//! [`CardinalityEstimator`] trait shared by BFCE and every baseline.

use crate::ledger::AirTime;
use crate::system::RfidSystem;
use rand::RngCore;

/// An `(epsilon, delta)` accuracy requirement (Section III-B of the paper):
/// the estimate must satisfy `Pr{|n_hat - n| <= epsilon * n} >= 1 - delta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Confidence interval half-width, relative: `epsilon` in `(0, 1)`.
    pub epsilon: f64,
    /// Error probability: `delta` in `(0, 1)`.
    pub delta: f64,
}

/// Why an `(epsilon, delta)` pair is not an [`Accuracy`]: the named
/// parameter is NaN or lies outside `(0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccuracyError {
    /// The rejected `epsilon`.
    Epsilon(f64),
    /// The rejected `delta`.
    Delta(f64),
}

impl std::fmt::Display for AccuracyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccuracyError::Epsilon(epsilon) => {
                write!(f, "epsilon must lie in (0, 1), got {epsilon}")
            }
            AccuracyError::Delta(delta) => write!(f, "delta must lie in (0, 1), got {delta}"),
        }
    }
}

impl std::error::Error for AccuracyError {}

impl Accuracy {
    /// Construct, validating both parameters lie in `(0, 1)`; NaN lies in
    /// no interval. Input from outside the program is checked here.
    ///
    /// ```
    /// use rfid_sim::{Accuracy, AccuracyError};
    /// assert!(Accuracy::try_new(0.05, 0.05).is_ok());
    /// assert!(matches!(Accuracy::try_new(f64::NAN, 0.05), Err(AccuracyError::Epsilon(_))));
    /// assert_eq!(Accuracy::try_new(0.05, 1.0), Err(AccuracyError::Delta(1.0)));
    /// ```
    pub fn try_new(epsilon: f64, delta: f64) -> Result<Self, AccuracyError> {
        // Both comparisons are false for NaN.
        let inside = |x: f64| x > 0.0 && x < 1.0;
        if !inside(epsilon) {
            return Err(AccuracyError::Epsilon(epsilon));
        }
        if !inside(delta) {
            return Err(AccuracyError::Delta(delta));
        }
        Ok(Self { epsilon, delta })
    }

    /// [`try_new`](Self::try_new) for parameters the program chose itself:
    /// panics with the error's message when they are invalid.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        match Self::try_new(epsilon, delta) {
            Ok(accuracy) => accuracy,
            // analysis:allow(panic-path): new is the documented asserting constructor; outside input goes through try_new
            Err(err) => panic!("{err}"),
        }
    }

    /// The paper's default requirement: (0.05, 0.05).
    pub fn paper_default() -> Self {
        Self::new(0.05, 0.05)
    }

    /// Whether an estimate meets this requirement against a known truth.
    pub fn satisfied_by(&self, n_hat: f64, truth: usize) -> bool {
        let n = truth as f64;
        (n_hat - n).abs() <= self.epsilon * n
    }
}

/// Air time attributed to one named protocol phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (e.g. "probe", "rough", "accurate").
    pub name: String,
    /// Air time consumed by this phase alone.
    pub air: AirTime,
}

/// The outcome of one full estimation run.
#[derive(Debug, Clone)]
pub struct EstimationReport {
    /// The estimate `n_hat`.
    pub n_hat: f64,
    /// Total air time consumed (all phases).
    pub air: AirTime,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Number of reader-initiated rounds/frames executed.
    pub rounds: u64,
    /// Non-fatal irregularities encountered (degenerate frames, clamped
    /// parameters, …). Empty for a clean run.
    pub warnings: Vec<String>,
}

impl EstimationReport {
    /// The paper's evaluation metric: `|n_hat - n| / n`.
    pub fn relative_error(&self, truth: usize) -> f64 {
        assert!(truth > 0, "relative error undefined for zero truth");
        (self.n_hat - truth as f64).abs() / truth as f64
    }
}

/// A cardinality estimation protocol.
///
/// Implementations drive an [`RfidSystem`] (broadcasting parameters and
/// running frames, every action charged to the air-time ledger) and return
/// an [`EstimationReport`]. The `rng` supplies the *reader-side* randomness
/// (seed generation); all tag-side randomness is derived deterministically
/// from broadcast seeds and per-tag state, as in the real protocol.
///
/// `Sync` is a supertrait so that `&dyn CardinalityEstimator` can be shared
/// across the trial-parallel worker pool in `rfid-experiments`; estimators
/// are immutable parameter bundles (all mutable state lives in the system
/// and the per-trial RNG), so this costs implementations nothing.
pub trait CardinalityEstimator: Sync {
    /// Protocol name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Run one complete estimation.
    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_validation() {
        let a = Accuracy::new(0.05, 0.1);
        assert_eq!(a.epsilon, 0.05);
        assert_eq!(a.delta, 0.1);
        assert_eq!(Accuracy::paper_default(), Accuracy::new(0.05, 0.05));
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1)")]
    fn rejects_zero_epsilon() {
        Accuracy::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "delta must lie in (0, 1)")]
    fn rejects_unit_delta() {
        Accuracy::new(0.1, 1.0);
    }

    #[test]
    fn satisfied_by_is_the_paper_interval() {
        let a = Accuracy::new(0.05, 0.05);
        // The paper's example: n = 500000 -> interval [475000, 525000].
        assert!(a.satisfied_by(475_000.0, 500_000));
        assert!(a.satisfied_by(525_000.0, 500_000));
        assert!(a.satisfied_by(500_001.0, 500_000));
        assert!(!a.satisfied_by(474_999.0, 500_000));
        assert!(!a.satisfied_by(525_001.0, 500_000));
    }

    #[test]
    fn relative_error_matches_the_metric() {
        let report = EstimationReport {
            n_hat: 53_430.0,
            air: AirTime::default(),
            phases: vec![],
            rounds: 1,
            warnings: vec![],
        };
        // The paper's SRC exception: estimate 53430 for n = 50000 -> 0.0686.
        let err = report.relative_error(50_000);
        assert!((err - 0.0686).abs() < 1e-10, "err = {err}");
    }

    #[test]
    #[should_panic(expected = "zero truth")]
    fn relative_error_rejects_zero_truth() {
        let report = EstimationReport {
            n_hat: 1.0,
            air: AirTime::default(),
            phases: vec![],
            rounds: 0,
            warnings: vec![],
        };
        report.relative_error(0);
    }
}
