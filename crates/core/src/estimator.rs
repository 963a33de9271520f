//! The BFCE driver: probe → rough → accurate, with full air-time
//! attribution.

use crate::accurate::{run_accurate, AccurateOutcome};
use crate::params::{BfceConfig, HasherKind};
use crate::probe::{run_probe, ProbeOutcome};
use crate::rough::{run_rough, FrameDegeneracy, RoughOutcome};
use crate::theory::P_GRID;
use rand::RngCore;
use rfid_hash::mix::{bucket, mix_pair};
use rfid_hash::persistence::PERSISTENCE_DENOMINATOR;
use rfid_hash::{key_runs, persistence_key, persistence_offset, responds};
use rfid_sim::{
    Accuracy, CardinalityEstimator, EstimationReport, PhaseReport, ResponsePlan, RfidSystem,
    RnColumn, SlotSink, Tag,
};

/// The per-tag response plan for one Bloom frame: hash into `k` slots via
/// the configured hasher and answer each with probability `p_n / 1024`
/// through the keyed persistence draw of Section IV-E3 (a tag with key
/// `K` responds under seed `s` iff `K ⊕ (s >> 22) < p_n`, see
/// [`rfid_hash::persistence`]). Deterministic per tag, so parallel frame
/// fills are exact. Under the paper's XorBitget hasher a tag's behaviour
/// reads only its `rn`, so the plan also fills frames from an [`RnColumn`]
/// (`fill_column`), visiting only the tags that respond.
#[derive(Debug, Clone, Copy)]
pub struct BloomPlan<'a> {
    cfg: &'a BfceConfig,
    seeds: &'a [u32],
    p_n: u32,
}

impl<'a> BloomPlan<'a> {
    /// Plan for one frame of `cfg.w` slots with the given per-seed hash
    /// seeds and persistence numerator `p_n` (out of 1024).
    pub fn new(cfg: &'a BfceConfig, seeds: &'a [u32], p_n: u32) -> Self {
        assert!(!seeds.is_empty(), "a Bloom frame needs at least one seed");
        assert!(seeds.len() <= 32, "at most 32 hash seeds per frame");
        assert!(
            p_n <= PERSISTENCE_DENOMINATOR,
            "persistence numerator {p_n} exceeds denominator {PERSISTENCE_DENOMINATOR}"
        );
        Self { cfg, seeds, p_n }
    }

    /// Per-tag inner loop, monomorphized per hasher kind: `slot_of`
    /// already has all validation and dispatch hoisted out of it. The
    /// keyed draw is taken before hashing, so non-responding (tag, seed)
    /// pairs skip the hash.
    fn fill_with(
        &self,
        tags: &[Tag],
        sink: &mut SlotSink<'_>,
        slot_of: impl Fn(&Tag, u32) -> usize,
    ) {
        for tag in tags {
            let key = persistence_key(tag.rn);
            for &seed in self.seeds {
                if responds(key, seed, self.p_n) {
                    sink.record(slot_of(tag, seed));
                }
            }
        }
    }
}

impl ResponsePlan for BloomPlan<'_> {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        let hasher = self.cfg.hasher.hasher();
        let key = persistence_key(tag.rn);
        for &seed in self.seeds {
            let slot = hasher.slot(tag.identity(), seed, self.cfg.w);
            if responds(key, seed, self.p_n) {
                out.push(slot);
            }
        }
    }

    fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
        let w = self.cfg.w;
        match self.cfg.hasher {
            HasherKind::XorBitget => {
                // BfceConfig::validate() hard-asserts this at setup; here it
                // is an internal invariant re-check, debug-only by design.
                debug_assert!(
                    w.is_power_of_two() && w <= (1usize << 32),
                    "XorBitgetHasher requires w to be a power of two <= 2^32, got {w}"
                );
                let mask = w - 1;
                self.fill_with(tags, sink, |tag, seed| ((tag.rn ^ seed) as usize) & mask);
            }
            HasherKind::Mix64 => {
                debug_assert!(w >= 1, "w must be positive");
                self.fill_with(tags, sink, |tag, seed| {
                    bucket(mix_pair(tag.id, seed as u64), w)
                });
            }
        }
    }

    fn rn_column_width(&self) -> Option<usize> {
        let w = self.cfg.w;
        (self.cfg.hasher == HasherKind::XorBitget && w <= RnColumn::MAX_WIDTH).then_some(w)
    }

    fn fill_column(&self, column: &mut RnColumn, sink: &mut SlotSink<'_>) {
        // Under seed `s` exactly the tags whose keys lie in the aligned key
        // runs of `σ ⊕ [0, p_n)` respond, each in slot `(rn ^ s) & (w − 1)`,
        // which reads only the low bits the column keeps. The sink reads
        // only the `rn`s of a run whose slots lie in the observed prefix.
        for &seed in self.seeds {
            for (first, len) in key_runs(persistence_offset(seed), self.p_n) {
                sink.record_column_keys(column, first, len, seed as usize);
            }
        }
    }
}

/// Build the per-tag response plan for one Bloom frame (see [`BloomPlan`]).
pub(crate) fn bloom_plan<'a>(cfg: &'a BfceConfig, seeds: &'a [u32], p_n: u32) -> BloomPlan<'a> {
    BloomPlan::new(cfg, seeds, p_n)
}

/// Run one standalone Bloom frame with persistence numerator `p_n`
/// (fresh seeds drawn from `rng`), fully observed and charged to the
/// ledger.
///
/// This is the raw building block of both estimation phases; the
/// evaluation harness uses it directly to regenerate Figure 3 (the
/// 0s/1s-vs-cardinality linearity study).
pub fn standalone_frame(
    cfg: &BfceConfig,
    system: &mut RfidSystem,
    p_n: u32,
    rng: &mut dyn RngCore,
) -> rfid_sim::BitFrame {
    cfg.validate();
    assert!((1..P_GRID).contains(&p_n), "p_n must lie in [1, 1023]");
    let seeds: Vec<u32> = (0..cfg.k).map(|_| rng.next_u32()).collect();
    system.broadcast(cfg.phase_broadcast_bits());
    let plan = bloom_plan(cfg, &seeds, p_n);
    system.run_bitslot_frame(cfg.w, &plan)
}

/// Full trace of one BFCE run, including every intermediate quantity the
/// paper's analysis talks about.
#[derive(Debug, Clone)]
pub struct BfceRun {
    /// The configuration the run executed with.
    pub config: BfceConfig,
    /// Probe-stage outcome (`p_s` search).
    pub probe: ProbeOutcome,
    /// Rough-stage outcome (`n_r`, `n_low`).
    pub rough: RoughOutcome,
    /// Accurate-stage outcome; `None` when the rough stage saw an empty
    /// system and the accurate frame was skipped (estimate 0).
    pub accurate: Option<AccurateOutcome>,
    /// The standard report (estimate, air time, phases, warnings).
    pub report: EstimationReport,
}

impl BfceRun {
    /// The final estimate.
    pub fn n_hat(&self) -> f64 {
        self.report.n_hat
    }

    /// Delta-method `(1 - delta)` confidence interval around the estimate
    /// (see [`crate::efficiency`]); `None` when the accurate stage was
    /// skipped (empty system).
    pub fn confidence_interval(
        &self,
        delta: f64,
    ) -> Option<crate::efficiency::ConfidenceInterval> {
        self.accurate.as_ref().map(|acc| {
            crate::efficiency::confidence_interval(
                acc.n_hat,
                self.config.w,
                self.config.k,
                acc.p_n,
                delta,
            )
        })
    }
}

/// The Bloom-Filter-based Cardinality Estimator.
#[derive(Debug, Clone, Default)]
pub struct Bfce {
    config: BfceConfig,
}

impl Bfce {
    /// BFCE with a custom configuration.
    pub fn new(config: BfceConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// BFCE exactly as parameterized in the paper.
    pub fn paper() -> Self {
        Self::new(BfceConfig::paper())
    }

    /// The active configuration.
    pub fn config(&self) -> &BfceConfig {
        &self.config
    }

    /// Run the full protocol and return the detailed trace.
    pub fn run(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> BfceRun {
        let cfg = &self.config;
        let mut warnings = Vec::new();
        let start = system.air_time();

        // Stage 1: probe for a valid p_s.
        let probe = run_probe(cfg, system, rng);
        let after_probe = system.air_time();
        if probe.clamped {
            warnings.push(format!(
                "probe never saw a mixed window; clamped at p_n = {}",
                probe.p_n
            ));
        }

        // Stage 2: rough lower bound.
        let rough = run_rough(cfg, system, probe.p_n, rng);
        let after_rough = system.air_time();
        match rough.degenerate {
            Some(FrameDegeneracy::AllIdle) => warnings
                .push("rough frame all idle; population empty or far below design range".into()),
            Some(FrameDegeneracy::AllBusy) => warnings
                .push("rough frame saturated; lower bound clamped".into()),
            None => {}
        }

        // Stage 3: accurate estimation — skipped when stage 2 proved the
        // system empty (nothing would answer the frame either).
        let (accurate, n_hat, after_accurate) = if rough.n_low >= 1.0 {
            let acc = run_accurate(cfg, system, rough.n_low, accuracy, rng);
            if !acc.provable {
                warnings.push(format!(
                    "no persistence numerator provably meets ({}, {}) at n_low = {:.0}; \
                     best-effort p_n = {}",
                    accuracy.epsilon, accuracy.delta, rough.n_low, acc.p_n
                ));
            }
            if acc.degenerate.is_some() {
                warnings.push("accurate frame degenerate".into());
            }
            let n = acc.n_hat;
            let t = system.air_time();
            (Some(acc), n, t)
        } else {
            warnings.push("accurate stage skipped: rough estimate was zero".into());
            (None, 0.0, system.air_time())
        };

        let phases = vec![
            PhaseReport {
                name: "probe".into(),
                air: after_probe.since(&start),
            },
            PhaseReport {
                name: "rough".into(),
                air: after_rough.since(&after_probe),
            },
            PhaseReport {
                name: "accurate".into(),
                air: after_accurate.since(&after_rough),
            },
        ];

        let report = EstimationReport {
            n_hat,
            air: after_accurate.since(&start),
            phases,
            rounds: probe.rounds as u64 + 2,
            warnings,
        };

        BfceRun {
            config: self.config,
            probe,
            rough,
            accurate,
            report,
        }
    }
}

impl CardinalityEstimator for Bfce {
    fn name(&self) -> &'static str {
        "BFCE"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        self.run(system, accuracy, rng).report
    }
}

/// Sanity re-export used by stage modules' docs.
pub use crate::theory::P_GRID as PERSISTENCE_GRID;

const _: () = assert!(P_GRID == 1024);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_sim::TagPopulation;

    fn system_with(n: usize) -> RfidSystem {
        let tags = (0..n as u64)
            .map(|i| Tag {
                id: i + 1,
                rn: (i as u32)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(0x5EED),
            })
            .collect();
        RfidSystem::new(TagPopulation::new(tags))
    }

    #[test]
    fn end_to_end_estimate_within_epsilon() {
        for (seed, truth) in [(1u64, 50_000usize), (2, 200_000), (3, 1_000_000)] {
            let mut sys = system_with(truth);
            let mut rng = StdRng::seed_from_u64(seed);
            let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
            let rel = run.report.relative_error(truth);
            assert!(
                rel < 0.05,
                "n = {truth}: n_hat = {} (rel {rel})",
                run.n_hat()
            );
            assert!(run.accurate.as_ref().unwrap().provable);
            // n_low really is a lower bound here.
            assert!(run.rough.n_low <= truth as f64);
        }
    }

    #[test]
    fn constant_slot_budget_excluding_probe() {
        // The headline: 1024 + 8192 bit-slots in the two estimation phases,
        // regardless of cardinality.
        for truth in [20_000usize, 500_000] {
            let mut sys = system_with(truth);
            let mut rng = StdRng::seed_from_u64(7);
            let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
            let rough_slots = run.report.phases[1].air.bitslots;
            let accurate_slots = run.report.phases[2].air.bitslots;
            assert_eq!(rough_slots, 1024);
            assert_eq!(accurate_slots, 8192);
        }
    }

    #[test]
    fn execution_time_is_close_to_the_paper_bound() {
        // For populations in the design range the probe converges in a few
        // windows and the total stays within a small factor of the paper's
        // 0.19 s nominal bound.
        let mut sys = system_with(500_000);
        let mut rng = StdRng::seed_from_u64(11);
        let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
        let secs = run.report.air.total_seconds();
        assert!(secs < 0.2, "execution time {secs}s");
    }

    #[test]
    fn empty_system_estimates_zero() {
        let mut sys = system_with(0);
        let mut rng = StdRng::seed_from_u64(5);
        let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
        assert_eq!(run.n_hat(), 0.0);
        assert!(run.accurate.is_none());
        assert!(!run.report.warnings.is_empty());
    }

    #[test]
    fn phases_partition_total_air_time() {
        let mut sys = system_with(100_000);
        let mut rng = StdRng::seed_from_u64(6);
        let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
        let sum: f64 = run.report.phases.iter().map(|p| p.air.total_us()).sum();
        assert!((sum - run.report.air.total_us()).abs() < 1e-6);
        assert_eq!(run.report.phases.len(), 3);
        assert_eq!(run.report.phases[0].name, "probe");
    }

    #[test]
    fn trait_object_usage() {
        let est: Box<dyn CardinalityEstimator> = Box::new(Bfce::paper());
        assert_eq!(est.name(), "BFCE");
        let mut sys = system_with(30_000);
        let mut rng = StdRng::seed_from_u64(8);
        let report = est.estimate(&mut sys, Accuracy::new(0.1, 0.1), &mut rng);
        assert!(report.relative_error(30_000) < 0.1);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let run = |seed| {
            let mut sys = system_with(60_000);
            let mut rng = StdRng::seed_from_u64(seed);
            Bfce::paper()
                .run(&mut sys, Accuracy::paper_default(), &mut rng)
                .n_hat()
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn bloom_plan_batched_fill_matches_scalar_responses() {
        // The per-tag fill_chunk takes the keyed draw before hashing, and
        // the XorBitget column fill visits only the key runs that respond;
        // both must be bitwise-identical to the scalar hash-then-draw path
        // over exactly the observed prefix. Both hashers, numerators with
        // one and many key runs (1, 3, 301 and 1023 have 1, 2, 5 and 10
        // set bits; 512 is one half-range run, 1024 every key), and up to
        // 16 seeds. Seeds 1 and 2 share seed 0's offset (its top 10 bits),
        // so they select the same key runs: each seed must still record
        // its own responses.
        let mut draws = rfid_hash::SplitMix64::new(0x5EED_0001);
        let mut seeds: Vec<u32> = (0..16).map(|_| draws.next_u32()).collect();
        seeds[1] = (seeds[0] & 0xFFC0_0000) | (seeds[1] & 0x003F_FFFF);
        seeds[2] = (seeds[0] & 0xFFC0_0000) | (seeds[2] & 0x003F_FFFF);
        let tags: Vec<Tag> = (0..3_001u64)
            .map(|i| Tag {
                id: i + 1,
                rn: (i as u32).wrapping_mul(0x9E37_79B9).wrapping_add(17),
            })
            .collect();
        let mut column = RnColumn::new(&tags, BfceConfig::paper().w);
        for hasher in [
            crate::params::HasherKind::XorBitget,
            crate::params::HasherKind::Mix64,
        ] {
            for k in [1usize, 3, 16] {
                let cfg = BfceConfig {
                    hasher,
                    k,
                    ..BfceConfig::paper()
                };
                for p_n in [1u32, 2, 3, 301, 512, 1023, 1024] {
                    let plan = BloomPlan::new(&cfg, &seeds[..k], p_n);
                    let by_column = plan.rn_column_width().is_some();
                    assert_eq!(by_column, hasher == crate::params::HasherKind::XorBitget);
                    let reference =
                        rfid_sim::frame::response_counts_reference(&tags, cfg.w, &plan, usize::MAX);
                    for observe in [1usize, 32, 1024, cfg.w] {
                        let total: u64 = reference[..observe].iter().map(|&c| c as u64).sum();
                        let busy = reference[..observe].iter().filter(|&&c| c > 0).count();
                        let check = |fill: rfid_sim::FrameFill, path: &str| {
                            let at = format!("{hasher:?} k {k} p_n {p_n} observe {observe} {path}");
                            assert_eq!(fill.busy.len(), observe, "{at}");
                            for (i, &c) in reference[..observe].iter().enumerate() {
                                assert_eq!(fill.busy.get(i), c > 0, "{at}: slot {i}");
                            }
                            // Nothing is set past the prefix, not even in
                            // the tail of the last word.
                            let set: u32 = fill.busy.words().iter().map(|w| w.count_ones()).sum();
                            assert_eq!(set as usize, busy, "{at}");
                            assert_eq!(fill.prefix_responses, total, "{at}");
                        };
                        for threads in [1usize, 2] {
                            check(
                                rfid_sim::frame::response_fill_with_threads(
                                    &tags, cfg.w, observe, &plan, threads,
                                ),
                                &format!("threads {threads}"),
                            );
                        }
                        if by_column {
                            check(
                                rfid_sim::frame::response_fill_column(
                                    &mut column,
                                    cfg.w,
                                    observe,
                                    &plan,
                                ),
                                "column",
                            );
                        }
                    }
                }
            }
        }
        // The column keeps 16 bits of each rn: it fills the widest frame
        // those bits address, and a wider one stays on the Tag slice.
        for (w, by_column) in [(1usize << 16, true), (1 << 17, false)] {
            let cfg = BfceConfig {
                w,
                ..BfceConfig::paper()
            };
            let plan = BloomPlan::new(&cfg, &seeds[..3], 301);
            assert_eq!(plan.rn_column_width().is_some(), by_column, "w {w}");
            if by_column {
                let reference =
                    rfid_sim::frame::response_counts_reference(&tags, w, &plan, usize::MAX);
                let mut column = RnColumn::new(&tags, w);
                let fill = rfid_sim::frame::response_fill_column(&mut column, w, w, &plan);
                for (i, &c) in reference.iter().enumerate() {
                    assert_eq!(fill.busy.get(i), c > 0, "w {w}: slot {i}");
                }
                let total: u64 = reference.iter().map(|&c| c as u64).sum();
                assert_eq!(fill.prefix_responses, total, "w {w}");
            }
        }
    }

    #[test]
    fn slot_selective_column_fill_equals_the_per_tag_fill() {
        // The column fill reads only the sub-buckets whose slots can reach
        // the observed prefix; it must still equal the per-tag kernel at
        // every width the column serves, at prefixes on and off the
        // sub-bucket boundaries, under seeds whose top slot bits take
        // every value (all `m` bits below 8 slots), one seed at a time and
        // all together.
        let tags: Vec<Tag> = (0..4_000u64)
            .map(|i| Tag {
                id: i + 1,
                rn: (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x0F0F_5A5A,
            })
            .collect();
        let mut draws = rfid_hash::SplitMix64::new(0x5EED_0024);
        for w in [1usize, 2, 4, 8, 16, 1024, 8192, 65536] {
            let mut column = RnColumn::new(&tags, w);
            let shift = w.trailing_zeros().saturating_sub(3);
            let top = (w - 1) & !((1usize << shift) - 1);
            let seeds: Vec<u32> = (0..8u32)
                .map(|t| (draws.next_u32() & !(top as u32)) | ((t << shift) & top as u32))
                .collect();
            let eighth = w / 8;
            let near_eighth = [eighth.saturating_sub(1), eighth, eighth + 1];
            let mut observes: Vec<usize> = [0, 1, w / 256, w - 1, w]
                .into_iter()
                .chain(near_eighth)
                .map(|o| o.min(w))
                .collect();
            observes.sort_unstable();
            observes.dedup();
            let cfg = BfceConfig {
                w,
                ..BfceConfig::paper()
            };
            for p_n in [3u32, 301, 1024] {
                let plans = seeds
                    .chunks(1)
                    .chain([seeds.as_slice()])
                    .map(|seeds| BloomPlan::new(&cfg, seeds, p_n));
                for plan in plans {
                    for &observe in &observes {
                        let at =
                            format!("w {w} p_n {p_n} seeds {:x?} observe {observe}", plan.seeds);
                        let per_tag = rfid_sim::frame::response_fill_with_threads(
                            &tags, w, observe, &plan, 1,
                        );
                        let by_column =
                            rfid_sim::frame::response_fill_column(&mut column, w, observe, &plan);
                        assert_eq!(by_column, per_tag, "{at}");
                        // About 1 176 of the tags respond to each seed at
                        // p_n = 301: an eighth of the frame hears some.
                        let heard = per_tag.prefix_responses > 0;
                        assert!(heard || p_n < 301 || observe < eighth.max(1), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds denominator")]
    fn oversized_persistence_numerator_rejected() {
        BloomPlan::new(&BfceConfig::paper(), &[1, 2, 3], 1025);
    }

    #[test]
    fn column_cache_matches_the_scalar_path() {
        // By default the system fills XorBitget Bloom frames from its
        // cached rn column, at 1k tags as at 20k; under Scalar, from the
        // Tag slice. The frames and the ledger must agree bit for bit,
        // across a ledger reset and at a second width, which rebuilds the
        // column for that width.
        let seeds = [0x5EED_0001u32, 0xBEEF_CAFE, 0x1234_5678];
        let run = |n: usize, dispatch: Option<rfid_sim::FillDispatch>| {
            let mut sys = system_with(n);
            if let Some(dispatch) = dispatch {
                sys.set_fill_dispatch(dispatch);
            }
            let mut seen = Vec::new();
            for w in [8192usize, 2048, 8192] {
                let cfg = BfceConfig {
                    w,
                    ..BfceConfig::paper()
                };
                let plan = BloomPlan::new(&cfg, &seeds, 300);
                for observe in [32, 1024, w] {
                    let frame = sys.run_bitslot_frame_prefix(w, observe, &plan);
                    seen.push((frame.busy_bitmap().clone(), sys.air_time()));
                }
                sys.reset_ledger();
            }
            seen
        };
        for n in [1_000, 20_000] {
            let scalar = run(n, Some(rfid_sim::FillDispatch::Scalar));
            assert_eq!(run(n, None), scalar, "n = {n}");
            assert!(scalar.iter().all(|(busy, _)| busy.count_ones() > 0));
        }
    }

    #[test]
    fn mix_hasher_variant_also_works() {
        let cfg = BfceConfig {
            hasher: crate::params::HasherKind::Mix64,
            ..BfceConfig::paper()
        };
        let mut sys = system_with(250_000);
        let mut rng = StdRng::seed_from_u64(12);
        let run = Bfce::new(cfg).run(&mut sys, Accuracy::paper_default(), &mut rng);
        assert!(run.report.relative_error(250_000) < 0.05);
    }
}
