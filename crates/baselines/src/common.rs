//! Shared machinery for the baseline estimators.
//!
//! All legacy protocols hash the *tag ID* with a reader-broadcast seed
//! (none of them have BFCE's pre-stored `RN` trick), and most implement
//! p-persistence by comparing a second hash against the probability — the
//! classic "virtual frame extension" realization. The sizing helper
//! [`required_trials`] is the conservative sigma_max bound the BFCE paper
//! quotes for ZOE: the number of independent Bernoulli slot observations
//! needed so the idle-ratio inversion is an `(epsilon, delta)` estimate at
//! load `lambda`.
//!
//! [`frame_series`] is the driver UPE, EZB, ART, MLE, A³, FNEB and SRC
//! share: one rough LOF frame, then a series of rounds sized from
//! `(epsilon, delta)` and capped by [`capped`].

use crate::lof::Lof;
use rand::RngCore;
use rfid_hash::mix::{bucket, mix64, mix_pair, mix_pair_hashed, unit_f64};
use rfid_sim::{EstimationReport, PhaseReport, ResponsePlan, RfidSystem, SlotSink, Tag};

/// ZOE's variance-optimal per-slot load: `lambda* ~ 1.594` (the root of
/// the first-order condition for minimizing `(e^lambda - 1)/lambda^2`).
pub const ZOE_OPTIMAL_LAMBDA: f64 = 1.594;

/// Whether a tag participates in a Bernoulli experiment keyed by `seed`
/// with probability `p` — deterministic per (tag, seed).
#[inline]
pub fn participates(tag: &Tag, seed: u32, p: f64) -> bool {
    unit_f64(mix_pair(tag.id, seed as u64)) < p
}

/// The uniform slot a tag selects in an `f`-slot frame keyed by `seed`.
#[inline]
pub fn uniform_slot(tag: &Tag, seed: u32, f: usize) -> usize {
    // Decorrelate from the participation draw with a distinct stream tag.
    bucket(mix_pair(tag.id ^ 0x5EED_0000_0000_0001, seed as u64), f)
}

/// Response plan: uniform slot in `[0, f)` with persistence `p`
/// (SRC/UPE/EZB-style balanced frame).
pub fn uniform_frame_plan(
    seed: u32,
    f: usize,
    p: f64,
) -> impl Fn(&Tag, &mut Vec<usize>) + Sync {
    move |tag, out| {
        if participates(tag, seed, p) {
            out.push(uniform_slot(tag, seed, f));
        }
    }
}

/// Number of distinct geometric levels a 64-bit hash can give:
/// `trailing_zeros + 1 ∈ [1, 65]` (65 only for the all-zero word).
const HASH_LEVELS: usize = 65;

/// Response plan: geometric slot — slot `j` (0-based) with probability
/// `2^-(j+1)`, capped at `f - 1` (LOF/PET frames).
///
/// A tag's level is `trailing_zeros(mix_pair(id, seed)) + 1` capped at
/// `f`, the [`rfid_hash::geometric_level`] the scalar path calls. The
/// batched kernel tallies a chunk's levels in a histogram of at most 65
/// bins and hands each slot to the sink once, so a frame costs one hash
/// per tag plus one [`SlotSink::record_n`] per level. Filling several
/// frames in one pass ([`ResponsePlan::fill_frames`]), it computes the
/// ID half `mix64(id)` of the pair hash once per tag, not once per frame.
#[derive(Debug, Clone, Copy)]
pub struct GeometricFramePlan {
    seed: u32,
    /// Level cap `min(f, 65)`: beyond 65 no hash reaches a slot, so the
    /// cap loses nothing and fits every level in the histogram.
    max_level: u32,
}

impl ResponsePlan for GeometricFramePlan {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        let level = rfid_hash::geometric_level(tag.id, self.seed, self.max_level);
        out.push((level - 1) as usize);
    }

    fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
        Self::fill_frames(std::slice::from_ref(self), tags, std::slice::from_mut(sink));
    }

    /// One walk over `tags` for every frame: each tag's ID is hashed once,
    /// then each frame's level comes from that hash and the frame's seed.
    fn fill_frames(plans: &[Self], tags: &[Tag], sinks: &mut [SlotSink<'_>]) {
        let mut tallies = vec![[0u32; HASH_LEVELS]; plans.len()];
        for tag in tags {
            let id_hash = mix64(tag.id);
            for (plan, tally) in plans.iter().zip(tallies.iter_mut()) {
                // The 0-based slot is `min(tz, max_level - 1)` with
                // `tz <= 64`, so it always indexes the 65 bins.
                let slot = mix_pair_hashed(id_hash, u64::from(plan.seed))
                    .trailing_zeros()
                    .min(plan.max_level - 1);
                if let Some(bin) = tally.get_mut(slot as usize) {
                    *bin += 1;
                }
            }
        }
        for ((plan, tally), sink) in plans.iter().zip(&tallies).zip(sinks) {
            for (slot, &n) in tally.iter().take(plan.max_level as usize).enumerate() {
                sink.record_n(slot, n);
            }
        }
    }
}

/// The LOF/PET geometric frame of `f` slots keyed by `seed` (see
/// [`GeometricFramePlan`]). Panics if `f == 0`.
pub fn geometric_frame_plan(seed: u32, f: usize) -> GeometricFramePlan {
    assert!(f >= 1, "max_level must be at least 1");
    GeometricFramePlan {
        seed,
        max_level: f.min(HASH_LEVELS) as u32,
    }
}

/// Conservative number of independent slot observations for an
/// `(epsilon, ·)` estimate at load `lambda`, with the two-sided normal
/// bound `d` and the sigma_max = 0.5 worst case — the formula the BFCE
/// paper quotes for ZOE's slot budget:
/// `ceil( (d * 0.5 / (e^-lambda (1 - e^(-eps*lambda))))^2 )`.
pub fn required_trials(epsilon: f64, d: f64, lambda: f64) -> u64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon out of range");
    assert!(d > 0.0, "d must be positive");
    assert!(lambda > 0.0, "lambda must be positive");
    let denom = (-lambda).exp() * (1.0 - (-epsilon * lambda).exp());
    assert!(denom > 0.0, "degenerate sizing denominator");
    let root = d * 0.5 / denom;
    (root * root).ceil() as u64
}

/// Clamp an idle-slot count away from the degenerate 0 / total endpoints
/// so `ln` stays finite: 0 becomes 0.5 and `total` becomes `total - 0.5`
/// (the standard continuity correction).
pub fn clamped_rho(idle: usize, total: usize) -> f64 {
    assert!(total > 0, "no observations");
    let idle = (idle as f64).clamp(0.5, total as f64 - 0.5);
    idle / total as f64
}

/// Clamp the budget `want` to `[min, cap]`, warning "`{what}` capped at
/// `{cap}`" when the count used equals the cap.
pub(crate) fn capped(want: u64, min: u64, cap: u64, what: &str, warnings: &mut Vec<String>) -> u64 {
    let used = want.clamp(min, cap);
    if used == cap {
        warnings.push(format!("{what} capped at {cap}"));
    }
    used
}

/// The rounds of a [`frame_series`] after its rough phase.
pub(crate) struct Series<'a> {
    system: &'a mut RfidSystem,
    rng: &'a mut dyn RngCore,
    bits: u64,
    rounds: u64,
}

impl Series<'_> {
    /// Run up to `cap` rounds, stopping after a step that returns `true`,
    /// and return how many ran. Each round draws its seed, waits one
    /// turnaround and broadcasts `bits` bits, then runs `step` with the
    /// seed.
    pub(crate) fn run_until(
        &mut self,
        cap: u64,
        mut step: impl FnMut(&mut RfidSystem, u32) -> bool,
    ) -> u64 {
        for ran in 1..=cap {
            let seed = self.rng.next_u32();
            self.system.turnaround();
            self.system.broadcast(self.bits);
            self.rounds += 1;
            if step(self.system, seed) {
                return ran;
            }
        }
        cap
    }

    /// Run `rounds` rounds (see [`run_until`](Self::run_until)).
    pub(crate) fn run(&mut self, rounds: u64, mut step: impl FnMut(&mut RfidSystem, u32)) {
        self.run_until(rounds, |system, seed| {
            step(system, seed);
            false
        });
    }
}

/// The two-phase frame-series protocol: one 32-slot LOF frame for a rough
/// estimate `n_r >= 1`, then `body(series, n_r, warnings)` sizes and runs
/// the rounds, each with a `bits`-bit broadcast, and returns the estimate.
/// The report has the phases `rough` and "`series` x{rounds}" and counts
/// `1 + rounds` rounds.
pub(crate) fn frame_series(
    system: &mut RfidSystem,
    rng: &mut dyn RngCore,
    rough: &str,
    series: &str,
    bits: u64,
    body: impl FnOnce(&mut Series<'_>, f64, &mut Vec<String>) -> f64,
) -> EstimationReport {
    let start = system.air_time();
    let n_r = Lof {
        rounds: 1,
        frame: 32,
    }
    .rough_estimate(system, rng)
    .max(1.0);
    let after_rough = system.air_time();
    let mut warnings = Vec::new();
    let mut run = Series {
        system,
        rng,
        bits,
        rounds: 0,
    };
    let n_hat = body(&mut run, n_r, &mut warnings);
    let Series { system, rounds, .. } = run;
    let end = system.air_time();
    EstimationReport {
        n_hat,
        air: end.since(&start),
        phases: vec![
            PhaseReport {
                name: rough.into(),
                air: after_rough.since(&start),
            },
            PhaseReport {
                name: format!("{series} x{rounds}"),
                air: end.since(&after_rough),
            },
        ],
        rounds: 1 + rounds,
        warnings,
    }
}

/// Median of a non-empty slice (average of the middle pair for even
/// lengths).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        // analysis:allow(panic-path): n = xs.len() > 0 asserted at entry, so n/2 < n
        xs[n / 2]
    } else {
        // analysis:allow(panic-path): even branch means n >= 2, so n/2 - 1 and n/2 are in range
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Run `est` on `n` tags with IDs `i * stride + offset` and RNs `i`, the
/// reader's RNG seeded with `seed`: the baselines' unit-test harness.
#[cfg(test)]
pub(crate) fn test_estimate(
    est: &dyn rfid_sim::CardinalityEstimator,
    n: usize,
    (stride, offset): (u64, u64),
    seed: u64,
    accuracy: rfid_sim::Accuracy,
) -> EstimationReport {
    use rand::SeedableRng;
    let tags = (0..n as u64)
        .map(|i| Tag {
            id: i * stride + offset,
            rn: i as u32,
        })
        .collect();
    let mut system = RfidSystem::new(rfid_sim::TagPopulation::new(tags));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    est.estimate(&mut system, accuracy, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_stats::d_for_delta;

    fn tag(id: u64) -> Tag {
        Tag { id, rn: 0 }
    }

    #[test]
    fn participation_rate_tracks_p() {
        for p in [0.1, 0.5, 0.9] {
            let hits = (0..100_000u64)
                .filter(|&i| participates(&tag(i), 7, p))
                .count() as f64
                / 100_000.0;
            assert!((hits - p).abs() < 0.01, "p = {p}: rate {hits}");
        }
    }

    #[test]
    fn participation_is_deterministic_and_seed_sensitive() {
        let t = tag(42);
        assert_eq!(participates(&t, 1, 0.5), participates(&t, 1, 0.5));
        let flips = (0..64u32)
            .filter(|&s| participates(&t, s, 0.5) != participates(&t, s + 64, 0.5))
            .count();
        assert!(flips > 10, "seeds barely change outcomes");
    }

    #[test]
    fn uniform_slots_are_uniform() {
        let f = 64usize;
        let mut counts = vec![0u64; f];
        for i in 0..64_000u64 {
            counts[uniform_slot(&tag(i), 3, f)] += 1;
        }
        assert!(rfid_stats::uniformity_test(&counts, 0.001));
    }

    #[test]
    fn slot_and_participation_are_decorrelated() {
        // Among participants at p = 0.5, slots must still be uniform.
        let f = 32usize;
        let mut counts = vec![0u64; f];
        for i in 0..200_000u64 {
            let t = tag(i);
            if participates(&t, 9, 0.5) {
                counts[uniform_slot(&t, 9, f)] += 1;
            }
        }
        assert!(rfid_stats::uniformity_test(&counts, 0.001));
    }

    #[test]
    fn zoe_slot_budget_matches_hand_computation() {
        // (0.05, 0.05) at lambda*: d = 1.95996, denominator
        // e^-1.594 * (1 - e^-0.0797) = 0.203..*0.0766.. -> ~3966 slots.
        let d = d_for_delta(0.05);
        let m = required_trials(0.05, d, ZOE_OPTIMAL_LAMBDA);
        assert!((3800..4100).contains(&m), "m = {m}");
        // Looser epsilon needs ~quadratically fewer slots.
        let m_loose = required_trials(0.2, d, ZOE_OPTIMAL_LAMBDA);
        assert!(m_loose < m / 10, "m_loose = {m_loose}");
    }

    #[test]
    fn required_trials_grows_off_the_optimal_load() {
        let d = d_for_delta(0.05);
        let at_opt = required_trials(0.05, d, ZOE_OPTIMAL_LAMBDA);
        let overloaded = required_trials(0.05, d, 2.0 * ZOE_OPTIMAL_LAMBDA);
        let underloaded = required_trials(0.05, d, 0.3 * ZOE_OPTIMAL_LAMBDA);
        assert!(overloaded > 2 * at_opt, "overloaded = {overloaded}");
        assert!(underloaded > at_opt, "underloaded = {underloaded}");
    }

    #[test]
    fn clamped_rho_stays_interior() {
        assert_eq!(clamped_rho(0, 100), 0.005);
        assert_eq!(clamped_rho(100, 100), 0.995);
        assert_eq!(clamped_rho(50, 100), 0.5);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn frame_series_estimates_track_truth() {
        use crate::{Art, Ezb, Fneb, Mle, Src, Upe, A3};
        use rfid_sim::{Accuracy, CardinalityEstimator};
        let (paper, loose) = (Accuracy::paper_default(), Accuracy::new(0.1, 0.1));
        // (estimator, test IDs, accuracy, tolerance, (seed, n) runs)
        #[rustfmt::skip]
        type Case = (&'static dyn CardinalityEstimator, (u64, u64), Accuracy, f64, &'static [(u64, usize)]);
        #[rustfmt::skip]
        let cases: [Case; 8] = [
            (&Upe, (17, 9), paper, 0.1, &[(1, 5_000), (2, 50_000)]),
            (&Ezb, (19, 11), paper, 0.08, &[(1, 5_000), (2, 50_000), (3, 500_000)]),
            (&Art, (29, 7), loose, 0.15, &[(1, 10_000), (2, 100_000)]),
            (&Mle, (31, 3), loose, 0.15, &[(1, 5_000), (2, 50_000)]),
            (&A3, (41, 17), paper, 0.06, &[(1, 10_000), (2, 100_000), (3, 500_000)]),
            // One LOF frame bootstraps A³ only to a constant factor; its
            // weights absorb the off-optimal early rounds.
            (&A3, (41, 17), paper, 0.05, &[(6, 64_000)]),
            (&Fneb, (23, 2), loose, 0.15, &[(1, 2_000), (2, 20_000)]),
            (&Src, (13, 1), paper, 0.07, &[(1, 10_000), (2, 100_000), (3, 500_000)]),
        ];
        for (est, ids, accuracy, tolerance, runs) in cases {
            for &(seed, n) in runs {
                let rel = test_estimate(est, n, ids, seed, accuracy).relative_error(n);
                assert!(rel < tolerance, "{} at n = {n}: rel = {rel}", est.name());
            }
        }
    }

    #[test]
    fn geometric_plan_levels_decay() {
        let f = 32usize;
        let plan = geometric_frame_plan(5, f);
        let mut counts = vec![0u64; f];
        let mut out = Vec::new();
        for i in 0..100_000u64 {
            out.clear();
            plan.responses(&tag(i), &mut out);
            counts[out[0]] += 1;
        }
        // Slot 0 gets ~half, slot 1 ~quarter.
        assert!((counts[0] as f64 / 100_000.0 - 0.5).abs() < 0.01);
        assert!((counts[1] as f64 / 100_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn geometric_histogram_kernel_matches_the_scalar_path() {
        use rfid_sim::frame::{
            response_counts_with_threads, response_fill_with_threads, ScalarRef,
        };
        let tags: Vec<Tag> = (0..5_000u64).map(|i| tag(i * 3 + 1)).collect();
        // f = 1 puts every tag in slot 0; f > 65 leaves the tail empty.
        for f in [1usize, 2, 5, 32, 65, 100] {
            let plan = geometric_frame_plan(11, f);
            assert_eq!(
                response_counts_with_threads(&tags, f, &plan, 1),
                response_counts_with_threads(&tags, f, &ScalarRef(&plan), 1),
                "counts at f = {f}"
            );
            for observe in [0, f / 2, f] {
                assert_eq!(
                    response_fill_with_threads(&tags, f, observe, &plan, 1),
                    response_fill_with_threads(&tags, f, observe, &ScalarRef(&plan), 1),
                    "fill at f = {f}, observe = {observe}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_level must be at least 1")]
    fn geometric_plan_rejects_an_empty_frame() {
        geometric_frame_plan(1, 0);
    }
}
