//! A³ — the Arbitrarily Accurate Approximation scheme of Gong et al.
//! (INFOCOM 2014), the fourth state-of-the-art estimator the BFCE paper
//! cites (its reference \[16\]).
//!
//! A³'s idea is *composable accuracy*: run balanced frames round by
//! round, re-tuning the persistence from the running estimate, and
//! combine the per-round estimates by inverse-variance weighting until
//! the accumulated information reaches the `(epsilon, delta)` target —
//! however tight that target is. The per-round relative variance of the
//! idle-ratio inversion at load `lambda` over `f` slots is
//! `(e^lambda - 1) / (lambda^2 f)`, so each round contributes a known
//! amount of information even when its load is off-optimal (early rounds,
//! when the running estimate is still rough).

use crate::common::{
    capped, clamped_rho, frame_series, uniform_frame_plan, Series, ZOE_OPTIMAL_LAMBDA,
};
use rand::RngCore;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;

/// Relative variance of one balanced-frame estimate at realized load
/// `lambda` over `f` slots: `(e^lambda - 1) / (lambda^2 f)`.
pub fn round_relative_variance(lambda: f64, f: usize) -> f64 {
    assert!(lambda > 0.0, "lambda must be positive");
    assert!(f > 0, "frame must be non-empty");
    (lambda.exp() - 1.0) / (lambda * lambda * f as f64)
}

/// Frame size per round (bit-slots).
const FRAME: usize = 512;
/// Hard cap on rounds.
const MAX_ROUNDS: u64 = 512;

/// The A³ estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct A3;

impl CardinalityEstimator for A3 {
    fn name(&self) -> &'static str {
        "A3"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        // The LOF bootstrap seeds the running estimate; inverse-variance-
        // weighted estimates accumulate until the combined relative variance
        // clears the (epsilon, delta) target.
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            let d = d_for_delta(accuracy.delta);
            let target_var = (accuracy.epsilon / d).powi(2);
            let mut n_hat = n_r;
            let (mut weight_sum, mut weighted_estimate) = (0.0f64, 0.0f64);
            let mut degenerate = 0u64;
            let rounds = series.run_until(MAX_ROUNDS, |system, seed| {
                let p = (ZOE_OPTIMAL_LAMBDA * FRAME as f64 / n_hat).min(1.0);
                let frame = system.run_bitslot_frame(FRAME, &uniform_frame_plan(seed, FRAME, p));
                let idle = frame.idle_count();
                degenerate += u64::from(idle == 0 || idle == FRAME);
                let rho = clamped_rho(idle, FRAME);
                let round_estimate = -(FRAME as f64) * rho.ln() / p;
                let lambda_realized = (-rho.ln()).max(1e-6);
                let weight = 1.0 / round_relative_variance(lambda_realized, FRAME);
                weighted_estimate += weight * round_estimate;
                weight_sum += weight;
                n_hat = (weighted_estimate / weight_sum).max(1.0);
                // Combined relative variance of the weighted mean.
                1.0 / weight_sum <= target_var
            });
            if degenerate > 0 {
                warnings.push(format!(
                    "degenerate A3 frame in {degenerate} of {rounds} rounds; rho clamped"
                ));
            }
            // Warn when the series used its whole budget.
            capped(rounds, 1, MAX_ROUNDS, "round budget", warnings);
            n_hat
        };
        frame_series(system, rng, "bootstrap (LOF)", "adaptive frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&A3, n, (41, 17), seed, accuracy)
    }

    #[test]
    fn variance_formula_is_minimized_near_the_optimal_load() {
        let at_opt = round_relative_variance(ZOE_OPTIMAL_LAMBDA, 512);
        assert!(round_relative_variance(0.3, 512) > at_opt);
        assert!(round_relative_variance(4.0, 512) > at_opt);
    }

    #[test]
    fn tighter_accuracy_runs_more_rounds() {
        let tight = run(50_000, 4, Accuracy::new(0.03, 0.05));
        let loose = run(50_000, 4, Accuracy::new(0.2, 0.2));
        assert!(
            tight.rounds > loose.rounds,
            "{} vs {}",
            tight.rounds,
            loose.rounds
        );
    }

    #[test]
    fn arbitrary_accuracy_really_is_arbitrary() {
        // The defining property: even a very tight epsilon converges.
        let report = run(200_000, 5, Accuracy::new(0.02, 0.05));
        assert!(report.relative_error(200_000) < 0.025);
        assert!(report.warnings.iter().all(|w| !w.contains("capped")));
    }

    #[test]
    fn an_empty_population_warns_once_with_the_count() {
        // Every round of an empty population is degenerate, and the
        // stopping rule never fires: one count, then the cap.
        let report = run(0, 3, Accuracy::paper_default());
        assert_eq!(
            report.warnings,
            [
                "degenerate A3 frame in 512 of 512 rounds; rho clamped",
                "round budget capped at 512"
            ]
        );
    }
}
