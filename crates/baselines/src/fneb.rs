//! FNEB — the First-Non-Empty-Based estimator of Han et al.
//! (INFOCOM 2010).
//!
//! Every tag picks a uniform slot in a large frame; the reader senses
//! slots in order and stops at the **first busy slot**. That position is
//! geometric with success probability `q = 1 - (1 - 1/f)^n`, so the mean
//! position over many frames inverts to `n`. The frame size is tuned from
//! a rough estimate so `q` stays small (positions carry information);
//! tight accuracy needs many repetitions — FNEB trades simplicity for
//! air time, like its contemporaries.
//!
//! Implementation note: the reader never observes slots past the first
//! busy one, so instead of materializing a potentially multi-million-slot
//! frame the estimator computes each tag's slot and takes the minimum
//! (exactly the same observable), then senses the watched prefix through
//! the channel model.

use crate::common::{capped, frame_series, uniform_slot, Series};
use rand::RngCore;
use rfid_sim::parallel::par_fold;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;
use std::cmp::Ordering;

/// Target mean first-busy position (frame size ~ target * n_rough).
const TARGET_POSITION: f64 = 20.0;
/// Upper bound on repetition rounds.
const MAX_ROUNDS: u64 = 2_048;

/// Fold `other` into the earliest `(slot, responders)` seen so far.
fn keep_first(acc: &mut (usize, u64), other: (usize, u64)) {
    match other.0.cmp(&acc.0) {
        Ordering::Less => *acc = other,
        Ordering::Equal => acc.1 += other.1,
        Ordering::Greater => {}
    }
}

/// The FNEB estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fneb;

impl CardinalityEstimator for Fneb {
    fn name(&self) -> &'static str {
        "FNEB"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            // Frame sized so E[first busy] ~ TARGET_POSITION.
            let f = ((TARGET_POSITION * n_r).ceil() as usize).max(64);
            // Relative error of the mean-position inversion is ~ 1/sqrt(rounds);
            // meet (epsilon, delta) via rounds = (d / epsilon)^2, capped.
            let d = d_for_delta(accuracy.delta);
            let wanted = ((d / accuracy.epsilon).powi(2)).ceil() as u64;
            let rounds = capped(wanted, 8, MAX_ROUNDS, "round budget", warnings);

            let mut position_sum = 0.0f64;
            series.run(rounds, |system, seed| {
                // True first-responder slot = min over tags; also count how
                // many tags share it (they all transmit before the reader
                // terminates the frame — the round's energy cost).
                let (true_min, responders_at_min) = par_fold(
                    system.population().tags(),
                    20_000,
                    || (usize::MAX, 0u64),
                    |acc, tag| keep_first(acc, (uniform_slot(tag, seed, f), 1)),
                    keep_first,
                );
                system.charge_tag_responses(responders_at_min);
                // Sense the watched prefix through the channel (a noisy channel
                // can fire early or push the stop later).
                let watched = true_min.saturating_add(1).min(f);
                let mut counts = vec![0u32; watched];
                if true_min < f {
                    // analysis:allow(panic-path): guarded by true_min < f, and watched = true_min + 1 on that branch
                    counts[true_min] = 1;
                }
                let sensed = system.sense_counts(&counts);
                let observed_pos = (0..sensed.observed())
                    .find(|&i| sensed.is_busy(i))
                    .map(|i| i + 1)
                    .unwrap_or(f + 1);
                system.charge_bitslots(observed_pos.min(f) as u64);
                position_sum += observed_pos as f64;
            });

            let mean_pos = position_sum / rounds as f64;
            // Invert E[pos] = 1/q, q = 1 - (1 - 1/f)^n.
            let q_hat = (1.0 / mean_pos).min(1.0 - 1e-12);
            // ln(1 - x) via ln_1p(-x): q_hat can sit next to 0 (huge frames)
            // where 1.0 - q_hat would round away the whole signal.
            (-q_hat).ln_1p() / (-1.0 / f as f64).ln_1p()
        };
        frame_series(system, rng, "rough (LOF)", "first-busy probes", 32, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Fneb, n, (23, 2), seed, accuracy)
    }

    #[test]
    fn observed_slots_stay_near_target_position() {
        let report = run(10_000, 3, Accuracy::new(0.2, 0.2));
        let probes = report.rounds - 1;
        let mean_watched = report.phases[1].air.bitslots as f64 / probes as f64;
        assert!(
            (5.0..60.0).contains(&mean_watched),
            "mean watched = {mean_watched}"
        );
    }

    #[test]
    fn rounds_cap_produces_warning() {
        // (0.01, 0.01) wants (2.576 / 0.01)^2 ~ 66k probes.
        let report = run(5_000, 4, Accuracy::new(0.01, 0.01));
        assert_eq!(report.rounds, 1 + MAX_ROUNDS);
        assert!(report.warnings.iter().any(|w| w.contains("capped")));
    }

    #[test]
    fn empty_population_returns_near_zero() {
        let report = run(0, 5, Accuracy::new(0.2, 0.2));
        // Every probe runs off the end of the frame: q_hat ~ 1/(f+1).
        assert!(report.n_hat < 5.0, "n_hat = {}", report.n_hat);
    }
}
