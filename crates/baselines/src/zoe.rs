//! ZOE — the Zero-One Estimator (Zheng & Li, INFOCOM 2013), with the
//! modifications the BFCE paper applies for its comparison (Section V-C).
//!
//! ZOE runs a sequence of **single-slot frames**: for each frame the reader
//! broadcasts a fresh 32-bit seed, every tag participates with probability
//! `p` (tuned so the load `lambda = p*n` sits at the variance-optimal
//! `lambda* ~ 1.594`), and the reader senses one bit. The idle fraction
//! over `m` frames inverts to `n_hat = -ln(rho) / p`.
//!
//! Because *every slot* costs a full seed broadcast (1510 µs) plus the
//! slot and its turnaround (~321 µs), ZOE's reader-to-tag traffic dominates
//! its execution time — the observation that motivates BFCE. Two further
//! behaviours from the BFCE paper are reproduced:
//!
//! * the rough estimate comes from LOF run 10 times;
//! * the slot budget depends on the realized load: after the nominal `m`
//!   slots (computed at `lambda*` with the conservative sigma_max = 0.5
//!   bound), ZOE re-checks the budget at the *measured* `lambda_hat` and
//!   keeps extending the run while under-provisioned — a rough estimate
//!   that "fairly deviates from the actual cardinality \[leads\] to a sharp
//!   growth of the required time slots".
//!
//! The *simulation* of those single-slot frames is batched: each
//! [`ZoeSlotPlan`] covers a whole seed batch, and the batches of one
//! [`Zoe`] slot run are consecutive windows of one run. Per-frame seeds
//! come counter-mode from the run's root, and each tag walks its
//! participating slots of the whole run by geometric gaps instead of
//! testing every (tag, seed) pair. See the plan's docs for why this is
//! distribution- and charge-exact.

use crate::common::{clamped_rho, required_trials, ZOE_OPTIMAL_LAMBDA};
use crate::lof::Lof;
use rand::RngCore;
use rfid_hash::mix::{mix64, mix_pair, mix_pair_hashed, unit_f64};
use rfid_hash::{stream_seed, SplitMix64};
use rfid_sim::{
    Accuracy, CardinalityEstimator, EstimationReport, PhaseReport, ResponsePlan, RfidSystem,
    SlotSink, Tag,
};
use rfid_stats::d_for_delta;

/// The ZOE estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zoe {
    /// LOF rounds for the rough phase (the BFCE paper uses 10).
    pub rough_rounds: u32,
    /// Hard cap on total single-slot frames, bounding the worst case when
    /// the rough estimate is badly off (the paper observed up to ~18 s).
    pub max_slots: u64,
    /// Re-check the slot budget against the realized load and extend
    /// (the adaptive behaviour described above). Disable to run exactly
    /// the nominal budget.
    pub adaptive: bool,
}

impl Default for Zoe {
    fn default() -> Self {
        Self {
            rough_rounds: 10,
            max_slots: 16_384,
            adaptive: true,
        }
    }
}

/// Size of the observation batches used to amortize the per-frame
/// simulation overhead (purely an implementation detail: the ledger is
/// charged per-slot exactly as the real schedule would be).
const SLOT_BATCH: usize = 512;

/// One batch of ZOE single-slot frames as a [`ResponsePlan`]: the slots
/// `[offset, offset + batch)` of a slot run rooted at `run_root`.
///
/// The 32-bit seed the reader logically broadcasts for slot `s` of the
/// run is derived from the 64-bit `run_root` counter-mode
/// ([`slot_seed`](Self::slot_seed), the [`stream_seed`] stream a
/// `SplitMix64` rooted at `run_root` draws). A tag's participation across
/// the run is one per-tag draw stream: seeded from
/// `mix_pair(tag.id, run_root)`, the tag walks its participating slots by
/// **geometric gaps** — `gap = floor(ln(1-u) / ln(1-p))` slots are skipped
/// between responses, which is exactly the run-length of a per-slot
/// i.i.d. Bernoulli(`p`) sequence. The walk touches `O(p·slots)` slots
/// per tag instead of evaluating every seed. A batch keeps the responses
/// its window holds, renumbered from 0.
///
/// Gaps are memoryless, so one walk over a run of `L` slots has the same
/// joint law as independent walks over each batch: i.i.d. Bernoulli(`p`)
/// per (tag, slot), independent across tags. [`new`](Self::new) is the
/// one-batch run at offset 0; [`run`](Self::run) cuts a run into batches.
///
/// At the production load `p ≈ 1.594/n` almost every tag's *first* gap
/// already overshoots the whole run. The walk settles those tags with one
/// integer compare: a tag whose first 53-bit draw is at or above the
/// plan's `reject` threshold, computed for `offset + batch`, is silent in
/// the batch and every one before it, with no `ln_1p` or divide (see
/// [`reject_threshold`] for why that compare is exactly the float test).
///
/// The scalar `responses()` path and the batched `fill_chunk` override run
/// the *same* walk from slot 0, so the two kernels are bitwise-identical
/// by construction and the property suite holds them to it. The batches
/// of one [`Zoe`] slot run fill in one pass ([`ResponsePlan::fill_frames`]):
/// each tag walks the run once and hands each slot to its batch's sink.
#[derive(Debug, Clone, Copy)]
pub struct ZoeSlotPlan {
    batch: usize,
    /// The batch's first slot in its run.
    offset: usize,
    run_root: u64,
    p: f64,
    /// `ln(1 - p)`, precomputed once per batch (strictly negative; `-inf`
    /// at `p = 1`, where every gap collapses to zero and every tag answers
    /// every slot).
    ln1mp: f64,
    /// First-draw values (`draw >> 11`) at or above this end the walk
    /// before slot `offset + batch`; `2^53` when no draw can.
    reject: u64,
}

/// Tags whose ID hashes a multi-frame fill computes before walking each
/// run over them. At 100k tags and 11 independent batches on a 2-vCPU
/// Xeon, walking block by block took 3.6 ms against 4.2 ms for walking
/// every batch tag by tag (block sizes 16 to 256 timed alike).
const ID_BLOCK: usize = 64;

/// Draw values past the float test's transition `k0` that
/// [`reject_threshold`] still leaves to the float path.
///
/// `ln_1p` is not guaranteed monotone to the last ulp, so a draw just
/// above `k0` might still fail the float test. But one draw step moves the
/// exact `l = ln(1 - u)` by `2^-53 / (1 - u) = 2^-53 · e^|l|`, at least one
/// ulp of `l` (`ulp(l) <= 2^-52 · |l|` and `e^x >= 2x`), and at least half
/// an ulp should a binade boundary fall inside the band. So past `k0 + 64`
/// the exact value has fallen by more than 30 ulps, far beyond libm's
/// sub-ulp `ln_1p` error at either end, and the divide by the constant
/// `ln(1 - p)` is correctly rounded, hence monotone: the gap there is at
/// least the gap at `k0`. The band costs a float test on a `2^-47` share
/// of first draws.
const REJECT_GUARD: u64 = 64;

/// Number of distinct 53-bit draw values: [`unit_f64`] maps the draw
/// `x = hash >> 11` to `u = x · 2^-53 ∈ [0, 1)`.
const DRAW_VALUES: u64 = 1 << 53;

/// The float test that ends a walk at its first draw: the gap the draw
/// value `x` implies is at least the walk's `end` slots.
#[inline]
fn first_gap_overshoots(x: u64, ln1mp: f64, end: usize) -> bool {
    (-unit_f64(x << 11)).ln_1p() / ln1mp >= end as f64
}

/// A draw value from which every first draw ends the walk under its float
/// test, or [`DRAW_VALUES`] if the top draw does not (as at `p = 1`).
///
/// Binary search over [`first_gap_overshoots`] itself finds a transition
/// `k0`: the test fails at `k0 - 1` and holds at `k0`. The gap grows with
/// `x` (`ln(1 - u)` falls, `ln(1 - p) < 0`), so that is *the* transition up
/// to ulp-level wobble in `ln_1p`, which [`REJECT_GUARD`] absorbs. About 53
/// evaluations per batch.
fn reject_threshold(ln1mp: f64, end: usize) -> u64 {
    if !first_gap_overshoots(DRAW_VALUES - 1, ln1mp, end) {
        return DRAW_VALUES;
    }
    // Invariant: the test fails at `lo` (x = 0 gives gap 0 < end) and
    // holds at `hi`.
    let (mut lo, mut hi) = (0u64, DRAW_VALUES - 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if first_gap_overshoots(mid, ln1mp, end) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (hi + REJECT_GUARD).min(DRAW_VALUES)
}

impl ZoeSlotPlan {
    /// A batch of `batch` single-slot frames with participation `p`,
    /// seeded from `batch_root`: the one-batch run at offset 0.
    pub fn new(batch: usize, batch_root: u64, p: f64) -> Self {
        Self::window(0, batch, batch_root, p)
    }

    /// The batches of one slot run rooted at `run_root`: batch `i` has
    /// `widths[i]` slots and starts where batch `i - 1` ends.
    pub fn run(run_root: u64, p: f64, widths: &[usize]) -> Vec<Self> {
        let mut offset = 0;
        widths
            .iter()
            .map(|&batch| {
                let plan = Self::window(offset, batch, run_root, p);
                offset += batch;
                plan
            })
            .collect()
    }

    /// The slots `[offset, offset + batch)` of the run rooted at `run_root`.
    fn window(offset: usize, batch: usize, run_root: u64, p: f64) -> Self {
        assert!(batch >= 1, "batch must have at least one slot");
        assert!(p > 0.0 && p <= 1.0, "participation must lie in (0, 1]");
        let ln1mp = (-p).ln_1p();
        Self {
            batch,
            offset,
            run_root,
            p,
            ln1mp,
            reject: reject_threshold(ln1mp, offset + batch),
        }
    }

    /// Number of logical single-slot frames in this batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The batch's first slot in its run.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The participation probability per frame.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// One past the batch's last slot in its run.
    fn end(&self) -> usize {
        self.offset + self.batch
    }

    /// Whether `next` is the batch that follows this one in its run: the
    /// same root and load, starting where this batch ends.
    fn continued_by(&self, next: &Self) -> bool {
        next.run_root == self.run_root
            && next.p.to_bits() == self.p.to_bits()
            && next.offset == self.end()
    }

    /// The 32-bit seed the reader logically broadcasts for frame `i` of
    /// the batch (the high word of the counter-mode [`stream_seed`] draw,
    /// matching the `(offset + i)`-th [`SplitMix64::next_u64`] from the run
    /// root).
    pub fn slot_seed(&self, i: usize) -> u32 {
        (stream_seed(self.run_root, (self.offset + i) as u64) >> 32) as u32
    }

    /// Visit every slot of the batch this tag responds in, numbered from
    /// the batch's first slot, in increasing order.
    #[inline]
    fn walk(&self, tag: &Tag, mut visit: impl FnMut(usize)) {
        self.walk_run(mix64(tag.id), |slot| {
            if let Some(i) = slot.checked_sub(self.offset) {
                visit(i);
            }
        });
    }

    /// Visit every slot of the run before [`end`](Self::end) that the tag
    /// with ID hash `mix64(tag.id)` responds in, in increasing order. A
    /// first draw at or above `reject` ends the walk at once; every other
    /// draw takes the float test. `u ∈ [0, 1)` strictly, so `ln(1-u)` is
    /// finite; the remaining-slot guard runs before the cast, so the cast
    /// never truncates.
    #[inline]
    fn walk_run(&self, id_hash: u64, mut visit: impl FnMut(usize)) {
        let end = self.end();
        let mut draws = SplitMix64::new(mix_pair_hashed(id_hash, self.run_root));
        let mut draw = draws.next_u64();
        if draw >> 11 >= self.reject {
            return;
        }
        let mut slot = 0usize;
        loop {
            let gap = (-unit_f64(draw)).ln_1p() / self.ln1mp;
            if gap >= (end - slot) as f64 {
                return;
            }
            slot += gap as usize;
            visit(slot);
            slot += 1;
            if slot >= end {
                return;
            }
            draw = draws.next_u64();
        }
    }

    /// The walk without the `reject` shortcut: every draw, the first
    /// included, takes the float test, from the run's slot 0, and the
    /// batch keeps its window. Retained as the exactness oracle the unit
    /// tests and the `fill_kernels_diff` fuzz body hold
    /// [`responses`](ResponsePlan::responses) to; no production path
    /// calls it.
    #[doc(hidden)]
    pub fn reference_responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        let mut draws = SplitMix64::new(mix_pair(tag.id, self.run_root));
        let end = self.end();
        let mut slot = 0usize;
        while slot < end {
            let u = unit_f64(draws.next_u64());
            let gap = (-u).ln_1p() / self.ln1mp;
            if gap >= (end - slot) as f64 {
                return;
            }
            slot += gap as usize;
            if slot >= self.offset {
                out.push(slot - self.offset);
            }
            slot += 1;
        }
    }
}

impl ResponsePlan for ZoeSlotPlan {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        self.walk(tag, |slot| out.push(slot));
    }

    fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
        Self::fill_frames(std::slice::from_ref(self), tags, std::slice::from_mut(sink));
    }

    /// One walk per tag for every run of consecutive batches
    /// ([`continued_by`](ZoeSlotPlan::continued_by)): the walk runs to the
    /// last batch's end and hands each slot, in increasing order, to the
    /// sink of the batch whose window holds it. Independent batches are
    /// runs of one. The IDs are hashed a block at a time and each run then
    /// walks the whole block, so one run's parameters stay in registers
    /// through a tight loop.
    fn fill_frames(plans: &[Self], tags: &[Tag], sinks: &mut [SlotSink<'_>]) {
        let mut hashes = [0u64; ID_BLOCK];
        for block in tags.chunks(ID_BLOCK) {
            for (h, tag) in hashes.iter_mut().zip(block) {
                *h = mix64(tag.id);
            }
            let mut rest = &mut *sinks;
            for run in plans.chunk_by(|a, b| a.continued_by(b)) {
                let Some((run_sinks, tail)) =
                    std::mem::take(&mut rest).split_at_mut_checked(run.len())
                else {
                    return;
                };
                rest = tail;
                let Some(last) = run.last() else {
                    continue;
                };
                for &h in hashes.iter().take(block.len()) {
                    let mut windows = run.iter().zip(run_sinks.iter_mut());
                    let mut window = windows.next();
                    last.walk_run(h, |slot| {
                        while let Some((plan, sink)) = &mut window {
                            if slot < plan.end() {
                                if let Some(i) = slot.checked_sub(plan.offset) {
                                    sink.record(i);
                                }
                                return;
                            }
                            window = windows.next();
                        }
                    });
                }
            }
        }
    }
}

impl Zoe {
    /// Run `count` single-slot frames, returning how many were idle.
    /// Charges per slot: one 32-bit seed broadcast (with its trailing
    /// turnaround), the 1-bit slot, and the turnaround back to the reader.
    fn run_slots(
        &self,
        system: &mut RfidSystem,
        p: f64,
        count: u64,
        rng: &mut dyn RngCore,
    ) -> u64 {
        if count == 0 {
            return 0;
        }
        // One estimator-stream draw per call roots the whole run at the
        // first output of a `SplitMix64` seeded with it; the batches are
        // consecutive windows of that run.
        let run_root = SplitMix64::new(rng.next_u64()).next_u64();
        let mut widths = vec![SLOT_BATCH; (count / SLOT_BATCH as u64) as usize];
        let tail = (count % SLOT_BATCH as u64) as usize;
        if tail > 0 {
            widths.push(tail);
        }
        let plans = ZoeSlotPlan::run(run_root, p, &widths);
        // One logical single-slot frame per derived seed; each batch is
        // simulated as one observation with per-slot charging after it.
        let mut idle = 0u64;
        system.run_bitslot_frames(&plans, &widths, false, |system, _, frame| {
            idle += frame.idle_count() as u64;
            let batch = frame.observed() as u64;
            system.charge_broadcasts(32, batch);
            system.charge_bitslots(batch);
            system.charge_turnarounds(batch);
        });
        idle
    }
}

impl CardinalityEstimator for Zoe {
    fn name(&self) -> &'static str {
        "ZOE"
    }

    fn estimate(
        &self,
        system: &mut RfidSystem,
        accuracy: Accuracy,
        rng: &mut dyn RngCore,
    ) -> EstimationReport {
        let mut warnings = Vec::new();
        let start = system.air_time();

        // Phase 1: rough estimation via LOF x rough_rounds.
        let lof = Lof {
            rounds: self.rough_rounds,
            frame: 32,
        };
        let n_r = lof.rough_estimate(system, rng).max(1.0);
        let after_rough = system.air_time();

        // Phase 2: single-slot frames at the tuned participation.
        let p = (ZOE_OPTIMAL_LAMBDA / n_r).min(1.0);
        let d = d_for_delta(accuracy.delta);
        let nominal = required_trials(accuracy.epsilon, d, ZOE_OPTIMAL_LAMBDA);
        let mut target = nominal.min(self.max_slots);

        system.turnaround();
        let mut slots = 0u64;
        let mut idle = 0u64;
        loop {
            idle += self.run_slots(system, p, target - slots, rng);
            slots = target;
            let rho = clamped_rho(idle as usize, slots as usize);
            let lambda_hat = -rho.ln();
            if !self.adaptive {
                break;
            }
            let required = required_trials(accuracy.epsilon, d, lambda_hat)
                .min(self.max_slots);
            if required <= slots {
                break;
            }
            target = required;
        }
        if slots >= self.max_slots {
            warnings.push(format!(
                "slot budget capped at {} (realized load far from lambda*)",
                self.max_slots
            ));
        }
        if idle == 0 || idle == slots {
            warnings.push("degenerate slot observations; rho clamped".into());
        }

        let rho = clamped_rho(idle as usize, slots as usize);
        let n_hat = -rho.ln() / p;
        let end = system.air_time();

        EstimationReport {
            n_hat,
            air: end.since(&start),
            phases: vec![
                PhaseReport {
                    name: "rough (LOF x10)".into(),
                    air: after_rough.since(&start),
                },
                PhaseReport {
                    name: "single-slot frames".into(),
                    air: end.since(&after_rough),
                },
            ],
            rounds: self.rough_rounds as u64 + slots,
            warnings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_sim::TagPopulation;

    fn system_with(n: usize) -> RfidSystem {
        let tags = (0..n as u64)
            .map(|i| Tag {
                id: i * 11 + 5,
                rn: i as u32,
            })
            .collect();
        RfidSystem::new(TagPopulation::new(tags))
    }

    #[test]
    fn estimates_land_within_epsilon_usually() {
        // One seeded run per cardinality; these seeds are in the 95% mass.
        for (seed, truth) in [(1u64, 10_000usize), (2, 100_000)] {
            let mut sys = system_with(truth);
            let mut rng = StdRng::seed_from_u64(seed);
            let report =
                Zoe::default().estimate(&mut sys, Accuracy::paper_default(), &mut rng);
            let rel = report.relative_error(truth);
            assert!(rel < 0.07, "n = {truth}: rel = {rel}");
        }
    }

    #[test]
    fn slot_budget_matches_the_papers_formula_scale() {
        // (0.05, 0.05): ~4k slots, each costing ~1831 us -> several seconds.
        let mut sys = system_with(50_000);
        let mut rng = StdRng::seed_from_u64(3);
        let report =
            Zoe::default().estimate(&mut sys, Accuracy::paper_default(), &mut rng);
        let secs = report.air.total_seconds();
        assert!(secs > 4.0, "ZOE too fast: {secs}s");
        assert!(secs < 40.0, "ZOE absurdly slow: {secs}s");
        // Reader time dominates (the BFCE paper's central observation).
        assert!(report.air.reader_us > 2.0 * report.air.tag_us);
    }

    #[test]
    fn loose_accuracy_needs_far_fewer_slots() {
        let mut sys = system_with(50_000);
        let mut rng = StdRng::seed_from_u64(4);
        let tight =
            Zoe::default().estimate(&mut sys, Accuracy::new(0.05, 0.05), &mut rng);
        sys.reset_ledger();
        let loose =
            Zoe::default().estimate(&mut sys, Accuracy::new(0.3, 0.3), &mut rng);
        assert!(
            loose.air.total_us() < tight.air.total_us() / 10.0,
            "tight {} vs loose {}",
            tight.air.total_us(),
            loose.air.total_us()
        );
    }

    #[test]
    fn per_slot_charging_matches_the_paper_arithmetic() {
        let zoe = Zoe {
            rough_rounds: 1,
            max_slots: 100,
            adaptive: false,
        };
        let mut sys = system_with(1_000);
        let mut rng = StdRng::seed_from_u64(5);
        let report = zoe.estimate(&mut sys, Accuracy::new(0.3, 0.3), &mut rng);
        let phase2 = &report.phases[1];
        let slots = phase2.air.bitslots;
        // Each slot: 32*37.76 + 302 (seed broadcast) + 18.88 + 302.
        let per_slot = 32.0 * 37.76 + 302.0 + 18.88 + 302.0;
        // Phase 2 also opens with one turnaround.
        let expect = slots as f64 * per_slot + 302.0;
        assert!(
            (phase2.air.total_us() - expect).abs() < 1e-6,
            "phase2 = {}, expect {expect}",
            phase2.air.total_us()
        );
    }

    #[test]
    fn cap_produces_warning() {
        let zoe = Zoe {
            rough_rounds: 1,
            max_slots: 64,
            adaptive: true,
        };
        let mut sys = system_with(100_000);
        let mut rng = StdRng::seed_from_u64(6);
        let report = zoe.estimate(&mut sys, Accuracy::new(0.05, 0.05), &mut rng);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("capped")));
    }

    #[test]
    fn name_is_zoe() {
        assert_eq!(Zoe::default().name(), "ZOE");
    }

    // ------------------------------------------------------------------
    // ZoeSlotPlan: the batched single-slot-frame kernel.
    // ------------------------------------------------------------------

    fn tags(n: usize) -> Vec<Tag> {
        (0..n as u64)
            .map(|i| Tag {
                id: i * 7 + 3,
                rn: i as u32,
            })
            .collect()
    }

    #[test]
    fn walk_visits_increasing_in_range_slots() {
        let plan = ZoeSlotPlan::new(512, 0xDEAD_BEEF, 0.05);
        for tag in tags(200) {
            let mut seen = Vec::new();
            plan.walk(&tag, |slot| seen.push(slot));
            assert!(seen.iter().all(|&s| s < 512), "slot out of range");
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "not increasing");
        }
    }

    #[test]
    fn walk_matches_bernoulli_rate() {
        // Mean participation over many (tag, slot) pairs tracks p.
        let p = 0.03;
        let plan = ZoeSlotPlan::new(512, 42, p);
        let mut responses = 0u64;
        let population = tags(2_000);
        for tag in &population {
            plan.walk(tag, |_| responses += 1);
        }
        let pairs = (population.len() * plan.batch()) as f64;
        let rate = responses as f64 / pairs;
        // Binomial sd over ~1M pairs is ~1.7e-4; allow 6 sigma.
        assert!((rate - p).abs() < 1e-3, "rate = {rate}, p = {p}");
    }

    #[test]
    fn full_participation_answers_every_slot() {
        // p = 1: ln(1-p) = -inf collapses every gap to zero.
        let plan = ZoeSlotPlan::new(64, 7, 1.0);
        for tag in tags(5) {
            let mut seen = Vec::new();
            plan.walk(&tag, |slot| seen.push(slot));
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scalar_and_batched_kernels_fill_identically() {
        use rfid_sim::frame::{response_fill, ScalarRef};
        let plan = ZoeSlotPlan::new(512, 0x5EED, 0.01);
        let population = tags(3_000);
        let batched = response_fill(&population, 512, 512, &plan);
        let scalar = response_fill(&population, 512, 512, &ScalarRef(&plan));
        assert_eq!(batched, scalar);
    }

    #[test]
    fn slot_seeds_continue_the_counter_stream_across_batches() {
        let run = ZoeSlotPlan::run(99, 0.5, &[16, 16, 5]);
        let whole = ZoeSlotPlan::new(37, 99, 0.5);
        let mut stream = SplitMix64::new(99);
        let mut slot = 0;
        for plan in &run {
            assert_eq!(plan.offset(), slot);
            for i in 0..plan.batch() {
                let seed = plan.slot_seed(i);
                assert_eq!(seed, whole.slot_seed(slot), "slot {slot}");
                assert_eq!(seed, (stream.next_u64() >> 32) as u32, "slot {slot}");
                slot += 1;
            }
        }
    }

    #[test]
    fn batches_of_a_run_are_windows_of_one_walk() {
        // Dense enough that most tags answer in every batch.
        let (root, p) = (0xC0DE, 0.02);
        let run = ZoeSlotPlan::run(root, p, &[512, 512, 100]);
        let whole = ZoeSlotPlan::new(1124, root, p);
        for tag in tags(300) {
            let mut all = Vec::new();
            whole.walk(&tag, |slot| all.push(slot));
            let mut joined = Vec::new();
            for plan in &run {
                plan.walk(&tag, |slot| joined.push(plan.offset() + slot));
            }
            assert_eq!(joined, all, "id {}", { tag.id });
        }
        // Batch 0 is the one-batch run: bit for bit the plan `new` builds.
        let first = ZoeSlotPlan::new(512, root, p);
        assert_eq!(run[0].reject, first.reject);
        for tag in tags(300) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            run[0].responses(&tag, &mut a);
            first.responses(&tag, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn slot_seeds_follow_the_counter_stream() {
        use rfid_hash::stream_seed;
        let plan = ZoeSlotPlan::new(16, 99, 0.5);
        for i in 0..16 {
            assert_eq!(plan.slot_seed(i), (stream_seed(99, i as u64) >> 32) as u32);
        }
        // Distinct across the batch (the reader really does broadcast a
        // fresh seed per frame).
        let seeds: std::collections::BTreeSet<u32> =
            (0..16).map(|i| plan.slot_seed(i)).collect();
        assert_eq!(seeds.len(), 16);
    }

    // ------------------------------------------------------------------
    // The reject threshold against the float-only reference walk.
    // ------------------------------------------------------------------

    /// Batch sizes crossed with loads from the production `1.594/n` at
    /// n = 1k, 100k and 10M through about `1/batch` to one half and full
    /// participation; each as a one-batch run and as the third batch of a
    /// run whose first two have 512 slots.
    fn threshold_grid() -> Vec<ZoeSlotPlan> {
        let mut plans = Vec::new();
        for batch in [1usize, 7, 512] {
            let about_one_per_batch = 1.0 / (batch as f64 + 0.5);
            for p in [1.594e-3, 1.594e-5, 1.594e-7, about_one_per_batch, 0.5, 1.0] {
                let root = 0x7E57 + batch as u64;
                plans.push(ZoeSlotPlan::new(batch, root, p));
                plans.extend(ZoeSlotPlan::run(root, p, &[512, 512, batch]).pop());
            }
        }
        plans
    }

    /// The reference walk's exit test on a first draw whose top 53 bits
    /// are `x`, spelled out apart from the `first_gap_overshoots` that
    /// `reject_threshold` searches.
    fn float_test_exits(plan: &ZoeSlotPlan, x: u64) -> bool {
        let u = unit_f64(x << 11);
        (-u).ln_1p() / plan.ln1mp >= plan.end() as f64
    }

    #[test]
    fn reject_threshold_walk_matches_the_float_walk() {
        let mut ids = SplitMix64::new(0x1D5);
        for plan in threshold_grid() {
            let mut rejected = 0usize;
            for _ in 0..4_000 {
                let tag = Tag {
                    id: ids.next_u64(),
                    rn: 0,
                };
                let (mut fast, mut float) = (Vec::new(), Vec::new());
                plan.responses(&tag, &mut fast);
                plan.reference_responses(&tag, &mut float);
                assert_eq!(
                    fast, float,
                    "batch {} p {}: id {}",
                    plan.batch,
                    plan.p,
                    { tag.id }
                );
                let first = SplitMix64::new(mix_pair(tag.id, plan.run_root)).next_u64();
                rejected += usize::from(first >> 11 >= plan.reject);
            }
            // The shortcut does the work at sparse loads: at the
            // production p nearly every tag leaves on the integer compare.
            if plan.p * plan.end() as f64 <= 0.01 {
                assert!(
                    rejected > 3_900,
                    "batch {} p {}: {rejected}",
                    plan.batch,
                    plan.p
                );
            }
        }
    }

    #[test]
    fn reject_threshold_boundary_draws_fail_the_float_test() {
        let guard = REJECT_GUARD;
        let mut above = SplitMix64::new(0xB0B);
        for plan in threshold_grid() {
            let r = plan.reject;
            assert!(r <= DRAW_VALUES);
            if r == DRAW_VALUES {
                // Nothing is skipped, which is only allowed when no draw
                // can end the walk (p = 1 among them).
                assert!(
                    !float_test_exits(&plan, DRAW_VALUES - 1),
                    "batch {} p {}: no threshold although the top draw exits",
                    plan.batch,
                    plan.p
                );
                continue;
            }
            // Tight: the transition sits one guard band below `reject`.
            assert!(r > guard, "batch {} p {}: reject {r}", plan.batch, plan.p);
            assert!(float_test_exits(&plan, r - guard));
            assert!(!float_test_exits(&plan, r - guard - 1));
            let band = r.saturating_sub(2 * guard)..(r + 2 * guard).min(DRAW_VALUES);
            let samples = (0..1_000).map(|_| r + above.next_u64() % (DRAW_VALUES - r));
            for x in band.chain([0, DRAW_VALUES - 1]).chain(samples) {
                if x >= r {
                    assert!(
                        float_test_exits(&plan, x),
                        "batch {} p {}: draw {x} rejected at reject {r} but the float walk \
                         would respond",
                        plan.batch,
                        plan.p
                    );
                }
            }
        }
    }

    #[test]
    fn reject_threshold_is_the_whole_range_at_full_participation() {
        for batch in [1usize, 7, 512] {
            assert_eq!(ZoeSlotPlan::new(batch, 1, 1.0).reject, DRAW_VALUES);
        }
    }
}
