//! The shared register-collection air protocol for the LogLog-family
//! baselines (HyperLogLog++ and LogLog-β).
//!
//! Neither estimator is from the RFID literature — they are the modern
//! mergeable-sketch baselines motivated by the ROADMAP's multi-reader
//! north star — so they are run over an *honest* RFID realization rather
//! than an oracle over tag IDs:
//!
//! 1. the reader broadcasts one 32-bit hash seed;
//! 2. it opens a bit-slot frame of `m × levels` slots, one slot per
//!    `(register, rank)` cell;
//! 3. each tag computes `(register, rank)` from
//!    [`rfid_hash::register_hash`] over its ID and the seed, and answers
//!    exactly one slot: `register · levels + (rank − 1)`.
//!
//! The reader's busy bitmap *is* the register file: the largest busy rank
//! cell of a register is the register's max-rank value. Because a tag's
//! cell depends only on `(ID, seed)`, two readers running the protocol
//! with the **same seed** see the same cell for a shared tag — the
//! slot-wise OR of their frames is the frame of the union population, and
//! the register-wise max of their sketches is the union sketch. That is
//! the property [`rfid_bfce::Snapshot::merge`] relies on.
//!
//! The reader decodes the sensed frame in one pass
//! ([`collect_register_sketch`]): one walk over the busy bitmap's words
//! emits each register's top busy rank in ascending register order, and
//! the sketch is built from those pairs at once, in its canonical tier
//! with its zero count and harmonic sum — the only inputs LogLog-β and
//! HLL++ read. The result is bit-identical to observing every busy slot
//! one at a time; the air protocol, the ledger and the channel's noise
//! draws are untouched by how the host decodes.
//!
//! Air cost: 32 reader bits + `m × levels` bit-slots, constant in the
//! cardinality (like BFCE, unlike identification). With the default
//! `levels = 32` rank cells the clamp at rank 32 only binds once the load
//! per register approaches `2^32`, far past any deployment in PAPER.md.

use rand::RngCore;
use rfid_bfce::{RegisterFlavor, RegisterSketch};
use rfid_hash::register_hash;
use rfid_sim::{
    Accuracy, Bitmap, EstimationReport, PhaseReport, ResponsePlan, RfidSystem, SlotSink, Tag,
};
use rfid_stats::d_for_delta;

/// Response plan for one register-collection frame: each tag answers the
/// single cell `register · levels + rank − 1` its hash selects.
///
/// The batched kernel records each tag's cell straight into the sink.
#[derive(Debug, Clone, Copy)]
pub struct RegisterFramePlan {
    seed: u32,
    precision: u8,
    levels: u8,
}

impl RegisterFramePlan {
    /// The frame of `2^precision × levels` cells keyed by `seed`.
    pub fn new(seed: u32, precision: u8, levels: u8) -> Self {
        Self {
            seed,
            precision,
            levels,
        }
    }

    /// The cell `tag` answers.
    #[inline]
    fn cell(&self, tag: &Tag) -> usize {
        let (register, rank) = register_hash(tag.id, self.seed, self.precision, self.levels);
        register as usize * usize::from(self.levels) + usize::from(rank - 1)
    }
}

impl ResponsePlan for RegisterFramePlan {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        out.push(self.cell(tag));
    }

    fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
        for tag in tags {
            sink.record(self.cell(tag));
        }
    }
}

/// Run one register-collection frame with an explicit `seed` and decode
/// the observed cells into a [`RegisterSketch`].
///
/// This is the snapshot-production path for multi-reader deployments:
/// every reader calls this with the *same* broadcast seed, serializes the
/// sketch via [`rfid_bfce::Snapshot::snapshot`], and the back-end folds
/// the snapshots with [`rfid_bfce::merge_all`]. Air time (32-bit seed
/// broadcast + the frame) is charged to `system`'s ledger.
pub fn collect_register_sketch(
    flavor: RegisterFlavor,
    precision: u8,
    levels: u8,
    system: &mut RfidSystem,
    seed: u32,
) -> RegisterSketch {
    let empty = RegisterSketch::new(flavor, precision, levels, seed);
    system.broadcast(32);
    let slots = empty.registers().m() * usize::from(levels);
    let frame = system.run_bitslot_frame(slots, &RegisterFramePlan::new(seed, precision, levels));
    let pairs = top_busy_ranks(frame.busy_bitmap(), levels);
    RegisterSketch::from_sorted_pairs(flavor, precision, levels, seed, pairs)
}

/// `(register, top busy rank)` of every register with a busy cell in a
/// sensed register frame, in ascending register order: the register file
/// the frame holds.
///
/// One walk over the bitmap's words. A busy slot's register is
/// `slot · ⌈2^40 / levels⌉ >> 40`, which equals `slot / levels` for every
/// slot below `2^40 / levels`; a frame has at most `2^16 · 61 < 2^22`
/// slots. Slots come in ascending order, so the walk moves to the next
/// pair when the register changes and otherwise overwrites the pair: each
/// register keeps its last busy rank, which is its largest.
fn top_busy_ranks(busy: &Bitmap, levels: u8) -> Vec<(u16, u8)> {
    let levels = u64::from(levels);
    let recip = (1u64 << 40).div_ceil(levels);
    let mut pairs = vec![(0u16, 0u8); busy.count_ones()];
    // `k` pairs are open; `last` is the register of the newest one.
    let (mut k, mut last) = (0usize, u64::MAX);
    for (i, &word) in busy.words().iter().enumerate() {
        let base = i as u64 * 64;
        let mut bits = word;
        while bits != 0 {
            let slot = base + u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            let register = (slot * recip) >> 40;
            k += usize::from(register != last);
            last = register;
            // The first busy slot opens pair 0, and there are as many
            // pairs as busy slots, so `k − 1` always indexes one.
            if let Some(pair) = pairs.get_mut(k.wrapping_sub(1)) {
                *pair = (register as u16, (slot - register * levels + 1) as u8);
            }
        }
    }
    pairs.truncate(k);
    pairs
}

/// Shared [`rfid_sim::CardinalityEstimator`] driver for both flavors:
/// draw a seed, collect the sketch, evaluate the flavor's formula, and
/// report air time plus an honesty warning when the configured precision
/// cannot provably meet the requested `(epsilon, delta)`.
pub(crate) fn run_register_estimator(
    phase_name: &str,
    flavor: RegisterFlavor,
    precision: u8,
    levels: u8,
    system: &mut RfidSystem,
    accuracy: Accuracy,
    rng: &mut dyn RngCore,
) -> EstimationReport {
    let start = system.air_time();
    let seed = rng.next_u32();
    let sketch = collect_register_sketch(flavor, precision, levels, system, seed);
    let n_hat = sketch.estimate();
    let air = system.air_time().since(&start);

    let mut warnings = Vec::new();
    // The LogLog-family standard error is ~1.04 / sqrt(m); the estimate is
    // asymptotically normal, so the two-sided (1 - delta) requirement
    // needs sigma * d <= epsilon.
    let sigma = 1.04 / (sketch.registers().m() as f64).sqrt();
    if sigma * d_for_delta(accuracy.delta) > accuracy.epsilon {
        warnings.push(format!(
            "precision {precision} (sigma ~ {sigma:.4}) cannot provably meet \
             ({}, {})",
            accuracy.epsilon, accuracy.delta
        ));
    }

    EstimationReport {
        n_hat,
        air,
        phases: vec![PhaseReport {
            name: phase_name.into(),
            air,
        }],
        rounds: 1,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn collected_sketch_matches_direct_observation() {
        // The air protocol must lose nothing: the sketch decoded from the
        // frame equals the sketch built by hashing tag IDs directly.
        let (p, levels, seed) = (10u8, 32u8, 0xFEED_5EED);
        let mut sys = system_with(20_000);
        let collected =
            collect_register_sketch(RegisterFlavor::HllPp, p, levels, &mut sys, seed);
        let mut direct = RegisterSketch::new(RegisterFlavor::HllPp, p, levels, seed);
        for i in 0..20_000u64 {
            direct.observe_identity(i * 11 + 5);
        }
        assert_eq!(collected, direct);
    }

    #[test]
    fn same_seed_sketches_merge_to_the_union_exactly() {
        let (p, levels, seed) = (12u8, 32u8, 77u32);
        let sketch_of = |ids: std::ops::Range<u64>| {
            let tags = ids.map(|i| Tag { id: i + 1, rn: i as u32 }).collect();
            let mut sys = RfidSystem::new(TagPopulation::new(tags));
            collect_register_sketch(RegisterFlavor::LogLogBeta, p, levels, &mut sys, seed)
        };
        use rfid_bfce::Snapshot;
        let mut a = sketch_of(0..30_000);
        let b = sketch_of(20_000..50_000);
        a.merge(&b).expect("same parameters");
        assert_eq!(a, sketch_of(0..50_000));
    }

    #[test]
    fn air_cost_is_constant_in_cardinality() {
        let (p, levels) = (8u8, 16u8);
        let air_for = |n: usize| {
            let mut sys = system_with(n);
            collect_register_sketch(RegisterFlavor::HllPp, p, levels, &mut sys, 1);
            sys.air_time()
        };
        let small = air_for(100);
        let large = air_for(100_000);
        assert_eq!(small.bitslots, 256 * 16);
        assert_eq!(large.bitslots, 256 * 16);
        assert_eq!(small.reader_bits, 32);
        assert_eq!(large.reader_bits, 32);
    }

    #[test]
    fn empty_population_collects_an_empty_sketch() {
        let mut sys = system_with(0);
        let sketch = collect_register_sketch(RegisterFlavor::HllPp, 8, 16, &mut sys, 9);
        assert_eq!(sketch.registers().nonzero(), 0);
        assert_eq!(sketch.estimate(), 0.0);
    }
}
