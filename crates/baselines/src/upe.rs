//! UPE — the Unified Probabilistic Estimator of Kodialam & Nandagopal
//! (MobiCom 2006), the first framed-slotted-Aloha cardinality estimator.
//!
//! UPE observes classic Aloha frames where the reader distinguishes empty,
//! singleton and collision slots. With per-slot load `lambda = p n / f`,
//! the expected empty fraction is `e^-lambda` and the expected collision
//! fraction is `1 - e^-lambda (1 + lambda)`. This implementation uses the
//! zero estimator (the statistically stronger of the two) for the final
//! answer and cross-checks it against the collision estimator, flagging
//! disagreement; [`collision_lambda`] exposes the collision inversion.
//!
//! Because Aloha slots must be long enough to detect a singleton reply
//! (16 bits here, per C1G2's RN16), UPE pays ~16x the per-slot cost of the
//! bit-slot protocols — the generational gap the later schemes close.

use crate::common::{
    capped, clamped_rho, frame_series, required_trials, uniform_frame_plan, Series,
    ZOE_OPTIMAL_LAMBDA,
};
use rand::RngCore;
use rfid_sim::{Accuracy, CardinalityEstimator, EstimationReport, RfidSystem};
use rfid_stats::d_for_delta;

/// Invert the collision fraction: find `lambda` with
/// `1 - e^-lambda (1 + lambda) = collision_frac` (bisection; the left side
/// is strictly increasing in `lambda`).
pub fn collision_lambda(collision_frac: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&collision_frac) {
        return None;
    }
    // analysis:allow(float-sanity): exact 0.0 is the no-collisions sentinel (count 0 / frames); the inversion below diverges there
    if collision_frac == 0.0 {
        return Some(0.0);
    }
    let g = |l: f64| 1.0 - (-l).exp() * (1.0 + l);
    let (mut lo, mut hi) = (0.0f64, 60.0f64);
    if g(hi) < collision_frac {
        return None;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < collision_frac {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Aloha frame size per round.
const FRAME: usize = 1024;
/// Round cap (ART's): binds only below `epsilon ~ 0.004`.
const MAX_ROUNDS: u64 = 512;

/// The UPE estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Upe;

impl CardinalityEstimator for Upe {
    fn name(&self) -> &'static str {
        "UPE"
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

            let (mut empties, mut collisions) = (0, 0);
            series.run(rounds, |system, seed| {
                let frame = system.run_aloha_frame(FRAME, &uniform_frame_plan(seed, FRAME, p));
                empties += frame.empties();
                collisions += frame.collisions();
            });
            let total = rounds as usize * FRAME;
            if empties == 0 || empties == total {
                warnings.push("degenerate UPE observations; rho clamped".into());
            }
            let n_hat = -(FRAME as f64) * clamped_rho(empties, total).ln() / p;

            // Collision cross-check (the "unified" part of UPE).
            match collision_lambda(collisions as f64 / total as f64) {
                Some(l) => {
                    let n_ce = l * FRAME as f64 / p;
                    if n_ce > 0.0 && (n_ce - n_hat).abs() > 0.5 * n_hat.max(1.0) {
                        warnings.push(format!(
                            "zero/collision estimators disagree: ZE {n_hat:.0} vs CE {n_ce:.0}"
                        ));
                    }
                }
                None => warnings.push("collision fraction saturated".into()),
            }
            n_hat
        };
        frame_series(system, rng, "rough (LOF)", "aloha frames", 64, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, seed: u64, accuracy: Accuracy) -> EstimationReport {
        crate::common::test_estimate(&Upe, n, (17, 9), seed, accuracy)
    }

    #[test]
    fn collision_lambda_round_trips() {
        for l in [0.1f64, 0.5, 1.594, 3.0, 8.0] {
            let frac = 1.0 - (-l).exp() * (1.0 + l);
            let got = collision_lambda(frac).unwrap();
            assert!((got - l).abs() < 1e-9, "lambda {l} -> {got}");
        }
        assert_eq!(collision_lambda(0.0), Some(0.0));
        assert!(collision_lambda(1.0).is_none());
        assert!(collision_lambda(-0.1).is_none());
    }

    #[test]
    fn aloha_slots_dominate_cost() {
        let report = run(20_000, 3, Accuracy::paper_default());
        assert!(report.air.aloha_slots >= 1024);
        // UPE pays dearly for the 16-bit slots: slower than a second.
        assert!(report.air.total_seconds() > 1.0);
    }

    #[test]
    fn rounds_scale_with_epsilon() {
        let tight = run(20_000, 4, Accuracy::new(0.05, 0.05));
        let loose = run(20_000, 4, Accuracy::new(0.3, 0.05));
        assert!(tight.rounds > loose.rounds);
    }
}
