//! ART — Average Run-based Tag estimation (Shahzad & Liu, MobiCom 2012).
//!
//! ART's insight ("every bit counts") is that the **average length of the
//! runs of busy slots** carries more information per frame than the empty
//! count alone: with per-slot busy probability `q = 1 - e^(-lambda)`, a
//! maximal busy run is geometric with mean `1/(1-q) = e^lambda`, so
//! `lambda_hat = ln(mean run length)` and `n_hat = lambda_hat * f / p`.
//! Fewer frames reach a given accuracy than the zero estimator needs,
//! making ART one of the faster pre-bit-slot schemes.

use crate::common::{capped, frame_series, uniform_frame_plan, Series};
use rand::RngCore;
use rfid_sim::{Accuracy, BitFrame, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;

/// Target per-slot load: `lambda = 1` keeps busy runs short but frequent,
/// near the variance sweet spot of the run statistic.
const ART_TARGET_LAMBDA: f64 = 1.0;

/// Frame size per round (bit-slots).
const FRAME: usize = 1024;
/// Upper bound on rounds.
const MAX_ROUNDS: u64 = 512;

/// The ART estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Art;

/// Count the maximal busy runs in a frame and their total length.
pub fn busy_runs(frame: &BitFrame) -> (usize, usize) {
    let mut runs = 0usize;
    let mut total = 0usize;
    let mut in_run = false;
    for i in 0..frame.observed() {
        if frame.is_busy(i) {
            if !in_run {
                runs += 1;
                in_run = true;
            }
            total += 1;
        } else {
            in_run = false;
        }
    }
    (runs, total)
}

impl CardinalityEstimator for Art {
    fn name(&self) -> &'static str {
        "ART"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            let p = (ART_TARGET_LAMBDA * FRAME as f64 / n_r).min(1.0);

            // Sizing: relative error of lambda_hat per run observation is
            // ~ sqrt(q)/lambda; at lambda = 1, q ~ 0.632, runs per frame
            // ~ f q (1 - q). Choose rounds so the total run count reaches
            // q * (d / (eps * lambda))^2.
            let d = d_for_delta(accuracy.delta);
            let q = 1.0 - (-ART_TARGET_LAMBDA).exp();
            let runs_needed = (q * (d / (accuracy.epsilon * ART_TARGET_LAMBDA)).powi(2)).ceil();
            let runs_per_frame = FRAME as f64 * q * (1.0 - q);
            let wanted = (runs_needed / runs_per_frame).ceil() as u64;
            let rounds = capped(wanted, 1, MAX_ROUNDS, "round budget", warnings);

            let (mut run_count, mut run_total) = (0, 0);
            series.run(rounds, |system, seed| {
                let frame = system.run_bitslot_frame(FRAME, &uniform_frame_plan(seed, FRAME, p));
                let (runs, total) = busy_runs(&frame);
                run_count += runs;
                run_total += total;
            });

            if run_count == 0 {
                warnings.push("no busy runs observed; estimating zero".into());
                return 0.0;
            }
            let mean_run = run_total as f64 / run_count as f64;
            // mean_run = 1 means no slot had a neighbour: lambda below
            // resolution; clamp into the invertible region.
            let lambda_hat = mean_run.max(1.0 + 1e-9).ln().max(1e-9);
            if mean_run <= 1.0 + 1e-9 {
                warnings.push("all runs length 1; load far below target".into());
            }
            lambda_hat * FRAME as f64 / p
        };
        frame_series(system, rng, "rough (LOF)", "run frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::SplitMix64;
    use rfid_sim::PerfectChannel;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Art, n, (29, 7), seed, accuracy)
    }

    #[test]
    fn busy_runs_counts_maximal_runs() {
        // Pattern: busy busy idle busy idle idle busy busy busy.
        let counts = [1u32, 2, 0, 1, 0, 0, 3, 1, 1];
        let mut noise = SplitMix64::new(1);
        let frame = BitFrame::sense(&counts, 9, &PerfectChannel, &mut noise);
        let (runs, total) = busy_runs(&frame);
        assert_eq!(runs, 3);
        assert_eq!(total, 6);
    }

    #[test]
    fn busy_runs_edge_cases() {
        let mut noise = SplitMix64::new(2);
        let all_idle = BitFrame::sense(&[0, 0, 0], 3, &PerfectChannel, &mut noise);
        assert_eq!(busy_runs(&all_idle), (0, 0));
        let all_busy = BitFrame::sense(&[1, 1, 1], 3, &PerfectChannel, &mut noise);
        assert_eq!(busy_runs(&all_busy), (1, 3));
    }

    #[test]
    fn art_cost_is_in_the_same_ballpark_as_ezb() {
        // Under this workspace's conservative sizing both bit-slot
        // multi-frame schemes land within a small factor of each other;
        // the run statistic must not blow the budget up.
        let acc = Accuracy::new(0.05, 0.05);
        let art = run(50_000, 3, acc);
        let ezb = crate::common::test_estimate(&crate::ezb::Ezb, 50_000, (29, 7), 3, acc);
        let ratio = art.air.total_us() / ezb.air.total_us();
        assert!(
            (0.3..3.0).contains(&ratio),
            "ART {} vs EZB {} (ratio {ratio})",
            art.air.total_us(),
            ezb.air.total_us()
        );
    }

    #[test]
    fn empty_population_estimates_zero() {
        let report = run(0, 4, Accuracy::new(0.1, 0.1));
        assert_eq!(report.n_hat, 0.0);
        assert!(report.warnings.iter().any(|w| w.contains("no busy runs")));
    }
}
