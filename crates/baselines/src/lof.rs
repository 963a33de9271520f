//! LOF — the Lottery-Frame estimator (Qian et al., TPDS 2011).
//!
//! Each tag hashes itself to frame position `j` with probability `2^-j`
//! (a geometric distribution), so the length of the initial run of busy
//! slots encodes `log2(n)`: the first idle position `R` satisfies
//! `E[2^(R-1)] ~ n / 1.2897`. LOF is a fast *rough* estimator (constant
//! factor, a few frames); the BFCE paper uses it, run 10 times, as ZOE's
//! rough-estimation front-end (Section V-C).

use crate::common::{geometric_frame_plan, GeometricFramePlan};
use rand::RngCore;
use rfid_sim::{
    Accuracy, CardinalityEstimator, EstimationReport, PhaseReport, RfidSystem,
};

/// The Flajolet–Martin-style bias correction used by LOF:
/// `n_hat = 1.2897 * 2^(R-1)` for a (1-based) first-idle position `R`.
pub const FM_CORRECTION: f64 = 1.2897;

/// The LOF estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lof {
    /// Number of independent frames to average (the BFCE paper runs 10
    /// when feeding ZOE).
    pub rounds: u32,
    /// Frame length in bit-slots; 32 levels cover cardinalities far beyond
    /// the estimator's design range (`2^31`).
    pub frame: usize,
}

impl Default for Lof {
    fn default() -> Self {
        Self {
            rounds: 10,
            frame: 32,
        }
    }
}

impl Lof {
    /// Run the protocol and return the rough estimate.
    ///
    /// Air-time per round: one 32-bit seed broadcast plus `frame`
    /// bit-slots; rounds are separated by turnarounds. The caller is
    /// responsible for any turnaround separating LOF from surrounding
    /// protocol phases.
    pub fn rough_estimate(&self, system: &mut RfidSystem, rng: &mut dyn RngCore) -> f64 {
        assert!(self.rounds >= 1, "LOF needs at least one round");
        assert!(self.frame >= 2, "LOF frame must have at least 2 slots");
        // Nothing else draws from `rng` during the rounds, so drawing every
        // round's seed up front leaves the stream as a per-round draw would,
        // and the rounds fill in one pass over the tags.
        let plans: Vec<GeometricFramePlan> = (0..self.rounds)
            .map(|_| geometric_frame_plan(rng.next_u32(), self.frame))
            .collect();
        let widths = vec![self.frame; plans.len()];
        let last = plans.len() - 1;
        let mut r_sum = 0.0f64;
        system.broadcast(32);
        system.run_bitslot_frames(&plans, &widths, true, |system, round, frame| {
            // 1-based position of the first idle slot; all-busy caps at
            // frame + 1 (cardinality beyond this frame's resolution).
            let first_idle = (0..frame.observed())
                .find(|&i| !frame.is_busy(i))
                .map(|i| i + 1)
                .unwrap_or(self.frame + 1);
            r_sum += first_idle as f64;
            // Rounds are separated by a turnaround, then the next seed.
            if round < last {
                system.turnaround();
                system.broadcast(32);
            }
        });
        let r_mean = r_sum / self.rounds as f64;
        FM_CORRECTION * 2f64.powf(r_mean - 1.0)
    }
}

impl CardinalityEstimator for Lof {
    fn name(&self) -> &'static str {
        "LOF"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        _accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let start = system.air_time();
        let n_hat = self.rough_estimate(system, rng);
        let air = system.air_time().since(&start);
        EstimationReport {
            n_hat,
            air,
            phases: vec![PhaseReport {
                name: "lof".into(),
                air,
            }],
            rounds: self.rounds as u64,
            warnings: vec![
                "LOF is a rough (constant-factor) estimator; the accuracy \
                 requirement is not enforced"
                    .into(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_sim::{Tag, TagPopulation};

    fn system_with(n: usize) -> RfidSystem {
        let tags = (0..n as u64)
            .map(|i| Tag {
                id: i * 7 + 3,
                rn: i as u32,
            })
            .collect();
        RfidSystem::new(TagPopulation::new(tags))
    }

    #[test]
    fn rough_estimate_within_a_constant_factor() {
        for truth in [1_000usize, 10_000, 100_000, 1_000_000] {
            let mut sys = system_with(truth);
            let mut rng = StdRng::seed_from_u64(truth as u64);
            let n_hat = Lof::default().rough_estimate(&mut sys, &mut rng);
            let ratio = n_hat / truth as f64;
            assert!(
                (0.4..2.5).contains(&ratio),
                "n = {truth}: n_hat = {n_hat} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn more_rounds_tighten_the_estimate() {
        // Relative error averaged over several seeds should shrink with
        // rounds.
        let truth = 50_000usize;
        let avg_err = |rounds: u32, seeds: std::ops::Range<u64>| {
            let lof = Lof { rounds, frame: 32 };
            let mut total = 0.0;
            let count = seeds.clone().count() as f64;
            for s in seeds {
                let mut sys = system_with(truth);
                let mut rng = StdRng::seed_from_u64(s);
                let n_hat = lof.rough_estimate(&mut sys, &mut rng);
                total += (n_hat - truth as f64).abs() / truth as f64;
            }
            total / count
        };
        let err_1 = avg_err(1, 0..20);
        let err_16 = avg_err(16, 0..20);
        assert!(
            err_16 < err_1,
            "1 round: {err_1}, 16 rounds: {err_16}"
        );
    }

    #[test]
    fn air_time_structure() {
        let mut sys = system_with(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let lof = Lof::default();
        lof.rough_estimate(&mut sys, &mut rng);
        let air = sys.air_time();
        assert_eq!(air.reader_bits, 10 * 32);
        assert_eq!(air.bitslots, 10 * 32);
        // One trailing gap per broadcast + one separator between rounds.
        assert_eq!(air.gaps, 10 + 9);
    }

    #[test]
    fn empty_population_estimates_near_one() {
        let mut sys = system_with(0);
        let mut rng = StdRng::seed_from_u64(2);
        let n_hat = Lof::default().rough_estimate(&mut sys, &mut rng);
        // First idle position is always 1 -> n_hat = 1.2897 * 2^0.
        assert!((n_hat - FM_CORRECTION).abs() < 1e-12);
    }

    #[test]
    fn trait_report_carries_warning() {
        let mut sys = system_with(5_000);
        let mut rng = StdRng::seed_from_u64(3);
        let report =
            Lof::default().estimate(&mut sys, Accuracy::paper_default(), &mut rng);
        assert_eq!(report.rounds, 10);
        assert!(!report.warnings.is_empty());
        assert!(report.n_hat > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut sys = system_with(10);
        let mut rng = StdRng::seed_from_u64(4);
        Lof { rounds: 0, frame: 32 }.rough_estimate(&mut sys, &mut rng);
    }
}
