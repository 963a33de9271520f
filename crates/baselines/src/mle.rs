//! MLE — the Maximum Likelihood Estimator of Li et al. (INFOCOM 2010),
//! designed for energy-constrained active tags.
//!
//! The reader runs several balanced frames with *decreasing* persistence
//! probabilities (saving tag transmissions, the scheme's goal) and fits
//! `n` by maximizing the joint likelihood of the observed busy counts:
//! with `lambda_i = p_i n / f`, each frame contributes
//! `b_i ln(1 - e^-lambda_i) - (f - b_i) lambda_i` to the log-likelihood.
//! The score is strictly decreasing in `n`, so the MLE is found by
//! bisection on the score function ([`mle_solve`]).

use crate::common::{
    capped, frame_series, required_trials, uniform_frame_plan, Series, ZOE_OPTIMAL_LAMBDA,
};
use rand::RngCore;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;

/// One frame's sufficient statistics: persistence, frame size, busy count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameObservation {
    /// Persistence probability the frame ran with.
    pub p: f64,
    /// Frame size in slots.
    pub f: usize,
    /// Observed busy slots.
    pub busy: usize,
}

/// Score (derivative of the joint log-likelihood w.r.t. `n`, up to the
/// positive factor `1/f`):
/// `sum_i p_i * ( b_i * e^-lambda_i / (1 - e^-lambda_i) - (f_i - b_i) )`.
fn score(observations: &[FrameObservation], n: f64) -> f64 {
    observations
        .iter()
        .map(|o| {
            let lambda = o.p * n / o.f as f64;
            let e = (-lambda).exp();
            let occupied_term = if o.busy == 0 {
                0.0
            } else {
                o.busy as f64 * e / (1.0 - e).max(1e-300)
            };
            o.p * (occupied_term - (o.f - o.busy) as f64)
        })
        .sum()
}

/// Maximum-likelihood `n` for a set of frame observations, by bisection on
/// the (strictly decreasing) score. Returns `None` when every frame was
/// empty (likelihood maximized at `n = 0`) or every slot of every frame
/// was busy (no finite maximizer).
pub fn mle_solve(observations: &[FrameObservation], n_max: f64) -> Option<f64> {
    assert!(!observations.is_empty(), "no observations");
    assert!(n_max > 1.0, "n_max must exceed 1");
    if observations.iter().all(|o| o.busy == 0) {
        return None;
    }
    if observations.iter().all(|o| o.busy == o.f) {
        return None;
    }
    let (mut lo, mut hi) = (1e-9, n_max);
    if score(observations, hi) > 0.0 {
        // Maximizer beyond the bracket: saturated in practice.
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if score(observations, mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Frame size per round (bit-slots).
const FRAME: usize = 256;
/// Upper bound on rounds.
const MAX_ROUNDS: u64 = 256;

/// The energy-saving persistence schedule: round `i` (0-based) runs at
/// `p0 / 2^(i mod 3)` — full, half, quarter, repeating — floored at `1e-9`.
pub fn persistence(p0: f64, round: usize) -> f64 {
    (p0 / 2f64.powi((round % 3) as i32)).max(1e-9)
}

/// The MLE estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mle;

impl CardinalityEstimator for Mle {
    fn name(&self) -> &'static str {
        "MLE"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let body = |series: &mut Series<'_>, n_r: f64, warnings: &mut Vec<String>| {
            // Total Bernoulli observations needed at the optimal load; the ML
            // fit extracts the same information as the zero estimator.
            let d = d_for_delta(accuracy.delta);
            let trials = required_trials(accuracy.epsilon, d, ZOE_OPTIMAL_LAMBDA);
            let wanted = trials.div_ceil(FRAME as u64);
            let rounds = capped(wanted, 2, MAX_ROUNDS, "round budget", warnings);

            let p0 = (ZOE_OPTIMAL_LAMBDA * FRAME as f64 / n_r).min(1.0);
            let mut observations = Vec::with_capacity(rounds as usize);
            series.run(rounds, |system, seed| {
                let p = persistence(p0, observations.len());
                let frame = system.run_bitslot_frame(FRAME, &uniform_frame_plan(seed, FRAME, p));
                observations.push(FrameObservation {
                    p,
                    f: FRAME,
                    busy: frame.busy_count(),
                });
            });

            mle_solve(&observations, 1e10).unwrap_or_else(|| {
                warnings.push("likelihood degenerate; falling back to 0".into());
                0.0
            })
        };
        frame_series(system, rng, "rough (LOF)", "ML frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Mle, n, (31, 3), seed, accuracy)
    }

    #[test]
    fn solver_recovers_n_from_exact_expectations() {
        // Feed the solver busy counts equal to their expectations; the MLE
        // must sit at the true n.
        let n = 40_000.0;
        let f = 512usize;
        let obs: Vec<FrameObservation> = [0.01, 0.005, 0.0025]
            .iter()
            .map(|&p| {
                let lambda = p * n / f as f64;
                FrameObservation {
                    p,
                    f,
                    busy: ((1.0 - (-lambda).exp()) * f as f64).round() as usize,
                }
            })
            .collect();
        let got = mle_solve(&obs, 1e9).unwrap();
        assert!(((got - n) / n).abs() < 0.01, "MLE {got} vs truth {n}");
    }

    #[test]
    fn solver_degenerate_cases() {
        let all_empty = [FrameObservation {
            p: 0.1,
            f: 64,
            busy: 0,
        }];
        assert_eq!(mle_solve(&all_empty, 1e6), None);
        let all_busy = [FrameObservation {
            p: 0.1,
            f: 64,
            busy: 64,
        }];
        assert_eq!(mle_solve(&all_busy, 1e6), None);
    }

    #[test]
    fn persistence_schedule_halves() {
        // Later frames of each triple save tag energy with a smaller p.
        let ps: Vec<f64> = (0..6).map(|i| persistence(0.8, i)).collect();
        assert_eq!(ps, [0.8, 0.4, 0.2, 0.8, 0.4, 0.2]);
        assert_eq!(persistence(1e-12, 0), 1e-9);
    }

    #[test]
    fn empty_population_estimates_zero() {
        assert_eq!(run(0, 3, Accuracy::new(0.1, 0.1)).n_hat, 0.0);
    }
}
