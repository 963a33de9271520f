//! SRC — the enhanced two-phase counting protocol of Chen, Zhou & Yu
//! ("Understanding RFID Counting Protocols", MobiCom 2013), as set up by
//! the BFCE paper's comparison (Section V-C).
//!
//! Phase 1 obtains a constant-factor rough estimate with `O(log log n)`
//! slots (realized here as one LOF geometric frame). Phase 2 runs a
//! *balanced frame*: the reader announces a frame of `s = Theta(1/eps^2)`
//! bit-slots and a persistence probability chosen so the expected per-slot
//! load is the variance-optimal `lambda* ~ 1.594` given the rough estimate;
//! the idle fraction inverts to a per-round estimate that is
//! `(epsilon, 0.2)`-accurate. To reach error probability `delta < 0.2` the
//! BFCE paper repeats phase 2 `m` times — the smallest (odd) `m` with
//! `sum_{i=(m+1)/2}^m C(m,i) 0.8^i 0.2^(m-i) >= 1 - delta` — and takes a
//! majority vote, realized as the median of the per-round estimates.
//!
//! Unlike ZOE, SRC broadcasts only once per *frame*, so its reader-side
//! traffic is negligible; unlike BFCE, its slot count scales with
//! `1/eps^2` and it must be sized conservatively (sigma_max plus a safety
//! factor for the factor-2 rough estimate), which is why BFCE's optimized
//! single frame still wins at tight accuracy.

use crate::common::{
    capped, clamped_rho, frame_series, median, required_trials, uniform_frame_plan, Series,
    ZOE_OPTIMAL_LAMBDA,
};
use rand::RngCore;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::{d_for_delta, majority_rounds};

/// Per-round error probability (the BFCE paper's setup fixes 0.2).
const PER_ROUND_DELTA: f64 = 0.2;
/// Multiplicative sizing slack on the per-round frame, covering the load
/// mismatch a factor-2 rough estimate can cause.
const SIZING_SLACK: f64 = 2.0;
/// Cap on the per-round frame: binds only below `epsilon ~ 0.003`.
const MAX_FRAME: u64 = 1 << 20;

/// The SRC estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Src;

impl Src {
    /// Per-round frame size for a given `epsilon`, before the frame cap.
    pub fn round_frame_size(&self, epsilon: f64) -> usize {
        let d0 = d_for_delta(PER_ROUND_DELTA);
        let base = required_trials(epsilon, d0, ZOE_OPTIMAL_LAMBDA);
        ((base as f64) * SIZING_SLACK).ceil() as usize
    }

    /// Number of phase-2 rounds for a target `delta`.
    pub fn rounds_for(&self, delta: f64) -> u64 {
        if delta >= PER_ROUND_DELTA {
            1
        } else {
            majority_rounds(delta, 1.0 - PER_ROUND_DELTA)
        }
    }
}

impl CardinalityEstimator for Src {
    fn name(&self) -> &'static str {
        "SRC"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        // Phase 2: m balanced frames of s slots, median vote. Each round's
        // broadcast carries the seed plus the persistence parameter.
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            let wanted = self.round_frame_size(accuracy.epsilon) as u64;
            let s = capped(wanted, 1, MAX_FRAME, "frame size", warnings) as usize;
            let m = self.rounds_for(accuracy.delta);
            let p = (ZOE_OPTIMAL_LAMBDA * s as f64 / n_r).min(1.0);
            let mut estimates = Vec::with_capacity(m as usize);
            let mut degenerate = 0u64;
            series.run(m, |system, seed| {
                let frame = system.run_bitslot_frame(s, &uniform_frame_plan(seed, s, p));
                let idle = frame.idle_count();
                degenerate += u64::from(idle == 0 || idle == s);
                estimates.push(-(s as f64) * clamped_rho(idle, s).ln() / p);
            });
            if degenerate > 0 {
                warnings.push(format!(
                    "degenerate SRC frame in {degenerate} of {m} rounds; rho clamped"
                ));
            }
            median(&mut estimates)
        };
        frame_series(system, rng, "rough (LOF)", "balanced frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Src, n, (13, 1), seed, accuracy)
    }

    #[test]
    fn round_structure_follows_the_binomial_rule() {
        for (delta, m) in [(0.05, 7), (0.10, 5), (0.15, 3), (0.20, 1), (0.30, 1)] {
            assert_eq!(Src.rounds_for(delta), m, "delta = {delta}");
        }
    }

    #[test]
    fn frame_size_scales_inverse_quadratically() {
        let s5 = Src.round_frame_size(0.05);
        let ratio = s5 as f64 / Src.round_frame_size(0.10) as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio = {ratio}");
        // Absolute scale sanity: thousands at 5%.
        assert!((2500..5000).contains(&s5), "s5 = {s5}");
    }

    #[test]
    fn execution_time_sits_between_bfce_and_zoe() {
        // At (0.05, 0.05): 7 frames of ~3400 bit-slots ~ 0.45 s —
        // sub-second but above BFCE's 0.19 s.
        let report = run(100_000, 4, Accuracy::paper_default());
        let secs = report.air.total_seconds();
        assert!((0.2..1.5).contains(&secs), "SRC time = {secs}s");
        // Tag time dominates (few broadcasts) — the opposite of ZOE.
        assert!(report.air.tag_us > report.air.reader_us);
    }

    #[test]
    fn reader_traffic_is_per_round_not_per_slot() {
        let report = run(20_000, 5, Accuracy::paper_default());
        // 1 LOF broadcast + 7 round broadcasts.
        assert_eq!(report.air.reader_messages, 8);
    }

    #[test]
    fn loose_delta_runs_one_round() {
        let report = run(20_000, 6, Accuracy::new(0.05, 0.3));
        assert_eq!(report.rounds, 2); // 1 LOF + 1 balanced frame
    }

    #[test]
    fn an_empty_population_warns_once_with_the_count() {
        let report = run(0, 7, Accuracy::paper_default());
        assert_eq!(
            report.warnings,
            ["degenerate SRC frame in 7 of 7 rounds; rho clamped"]
        );
    }
}
