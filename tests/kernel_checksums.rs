//! Kernel checksums: the fixed-seed output of every frame-fill, ZOE-slot,
//! LOF geometric-frame, register-frame, tag-hash and PRNG kernel, pinned
//! to committed constants. Frame fills
//! are pinned fully observed and observed up to a prefix (the probe's 32
//! and the rough phase's 1024 slots).
//!
//! Each case folds one kernel's output over a deterministic synthetic
//! population into a `u64`. The checksum is a pure function of the kernel
//! code and the fixed seeds below — never of timing, thread count or host
//! — so a drift means a kernel's observable output changed: an
//! equivalence break between a scalar path and its batched twin, or an
//! intentional redefinition that must re-pin the constant in the same
//! change. Every path of a scalar/batched(/dispatch/column) group must
//! reproduce the same constant. The ZOE-slot and geometric-frame batched
//! rows are also reproduced through the multi-frame fill
//! (`response_fills_with_threads`), alone and as a frame of a ten-frame
//! pass; the `zoe_slots/run` row pins a whole slot run, whose batches are
//! windows of one walk per tag.
//!
//! No timing, no `rand`, no random cases: the inputs come from `SplitMix64`
//! alone, so the pinned constants move only when a kernel's output does.

use rfid_bfce_repro::baselines::common::geometric_frame_plan;
use rfid_bfce_repro::baselines::registers::RegisterFramePlan;
use rfid_bfce_repro::baselines::ZoeSlotPlan;
use rfid_bfce_repro::bfce::{BfceConfig, BloomPlan};
use rfid_bfce_repro::hash::{
    hash_slots_batch, MixHasher, SlotHasher, SplitMix64, TagIdentity, XorBitgetHasher,
};
use rfid_bfce_repro::sim::frame::{
    response_counts_reference_with_threads, response_counts_with_threads, response_fill_column,
    response_fill_dispatched, response_fill_with_threads, response_fills_with_threads, BitFrame,
    ResponsePlan, ScalarRef,
};
use rfid_bfce_repro::sim::{Bitmap, FillDispatch, FrameFill, PerfectChannel, RnColumn, Tag};

/// The pinned cases: name and checksum, grouped by kernel family.
#[rustfmt::skip]
const PINNED: [(&str, u64); 31] = [
    ("frame_fill/scalar/n=1000/threads=1", 4622655124223342335),
    ("frame_fill/batched/n=1000/threads=1", 4622655124223342335),
    ("frame_fill/scalar/n=10000/threads=1", 10472075251486238470),
    ("frame_fill/batched/n=10000/threads=1", 10472075251486238470),
    ("frame_fill/scalar/n=100000/threads=1", 4304277652034140453),
    ("frame_fill/batched/n=100000/threads=1", 4304277652034140453),
    ("frame_fill/prefix/observe=32/n=10000", 7376216959646188454),
    ("frame_fill/prefix/observe=32/n=100000", 7711696483754802774),
    ("frame_fill/prefix/observe=1024/n=10000", 5571758577831283655),
    ("frame_fill/prefix/observe=1024/n=100000", 2444237115029592133),
    ("zoe_slots/scalar/n=10000", 2241542137491868117),
    ("zoe_slots/batched/n=10000", 2241542137491868117),
    ("zoe_slots/dispatch/n=10000", 2241542137491868117),
    ("zoe_slots/scalar/n=100000", 17382204074941499927),
    ("zoe_slots/batched/n=100000", 17382204074941499927),
    ("zoe_slots/dispatch/n=100000", 17382204074941499927),
    ("zoe_slots/run/n=100000", 12082332515745177730),
    ("geometric_frame/scalar/n=10000", 9013288851175311269),
    ("geometric_frame/batched/n=10000", 9013288851175311269),
    ("geometric_frame/scalar/n=100000", 12878476326186413209),
    ("geometric_frame/batched/n=100000", 12878476326186413209),
    ("register_frame/scalar/n=10000", 7750485522072566821),
    ("register_frame/batched/n=10000", 7750485522072566821),
    ("register_frame/scalar/n=100000", 13823487020488876313),
    ("register_frame/batched/n=100000", 13823487020488876313),
    ("tag_hash/scalar/hasher=xor-bitget/n=100000", 11986599074644933648),
    ("tag_hash/batched/hasher=xor-bitget/n=100000", 11986599074644933648),
    ("tag_hash/scalar/hasher=mix64/n=100000", 9461640502449451487),
    ("tag_hash/batched/hasher=mix64/n=100000", 9461640502449451487),
    ("tag_hash/scalar/prng=splitmix64/n=100000", 13868085788227604972),
    ("tag_hash/batched/prng=splitmix64/n=100000", 13868085788227604972),
];

/// Deterministic synthetic population of `n` tags.
fn synth_tags(n: usize) -> Vec<Tag> {
    let mut prng = SplitMix64::new(0xBE7C_4A5E_0000 + n as u64);
    (0..n as u64)
        .map(|i| Tag {
            id: i + 1,
            rn: prng.next_u32(),
        })
        .collect()
}

/// Persistence numerator the accurate phase would broadcast at cardinality
/// `n` (`p ≈ 1.594 w / n`, clamped to the 10-bit grid).
fn accurate_p_n(w: usize, n: usize) -> u32 {
    let p = 1.594 * w as f64 / n as f64;
    ((p * 1024.0).round() as i64).clamp(1, 1023) as u32
}

/// Order-insensitive FNV digest of a busy bitmap plus a response total.
fn fill_checksum(busy: &Bitmap, responses: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &word in busy.words() {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ responses
}

/// Order-sensitive digest of a slot sequence.
fn slot_checksum(slots: impl IntoIterator<Item = usize>) -> u64 {
    slots
        .into_iter()
        .fold(0u64, |h, slot| h.rotate_left(5) ^ slot as u64)
}

/// The pinned checksum of the row `name`.
fn pinned(name: &str) -> u64 {
    PINNED
        .iter()
        .find(|(row, _)| *row == name)
        .map(|&(_, sum)| sum)
        .unwrap_or_else(|| panic!("no pinned row {name}"))
}

/// Compare the computed `(name, checksum)` rows against the pinned rows
/// whose names start with `group`.
fn assert_pinned(group: &str, computed: &[(String, u64)]) {
    let pinned: Vec<(String, u64)> = PINNED
        .iter()
        .filter(|(name, _)| name.starts_with(group))
        .map(|&(name, sum)| (name.to_string(), sum))
        .collect();
    assert_eq!(computed, pinned, "{group} kernel checksums drifted");
}

/// One full Bloom frame at the accurate-phase persistence: the scalar
/// counts path plus `BitFrame::sense`, and the batched bitmap kernel plus
/// `BitFrame::sense_truth` at one and two workers and from the `rn`
/// column. Then the same paths on frames the reader stops after a prefix,
/// at a persistence that loads each slot with about 1.594 responses, so
/// the prefix mixes busy and idle slots, with the column filled twice.
#[test]
fn frame_fill_checksums() {
    let cfg = BfceConfig::paper();
    let w = cfg.w;
    let seeds = [0x5EED_0001u32, 0xBEEF_CAFE, 0x1234_5678];
    let mut computed = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let tags = synth_tags(n);
        let mut column = RnColumn::new(&tags, w);
        let plan = BloomPlan::new(&cfg, &seeds, accurate_p_n(w, n));

        let counts = response_counts_reference_with_threads(&tags, w, &plan, 1);
        let frame = BitFrame::sense(&counts, w, &PerfectChannel, &mut SplitMix64::new(42));
        let responses: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        computed.push((
            format!("frame_fill/scalar/n={n}/threads=1"),
            fill_checksum(frame.busy_bitmap(), responses),
        ));

        let sensed = |fill: FrameFill| {
            let frame =
                BitFrame::sense_truth(&fill.busy, w, &PerfectChannel, &mut SplitMix64::new(42));
            fill_checksum(frame.busy_bitmap(), fill.prefix_responses)
        };
        let one = sensed(response_fill_with_threads(&tags, w, w, &plan, 1));
        assert_eq!(
            sensed(response_fill_with_threads(&tags, w, w, &plan, 2)),
            one,
            "frame_fill/batched/n={n}: threads=2 differs from threads=1"
        );
        assert_eq!(
            sensed(response_fill_column(&mut column, w, w, &plan)),
            one,
            "frame_fill/batched/n={n}: the rn column differs from threads=1"
        );
        computed.push((format!("frame_fill/batched/n={n}/threads=1"), one));
    }
    for observe in [32usize, 1024] {
        for n in [10_000usize, 100_000] {
            let name = format!("frame_fill/prefix/observe={observe}/n={n}");
            let tags = synth_tags(n);
            let mut column = RnColumn::new(&tags, w);
            let plan = BloomPlan::new(&cfg, &seeds, accurate_p_n(w, cfg.k * n));

            let counts = response_counts_reference_with_threads(&tags, w, &plan, 1);
            let frame =
                BitFrame::sense(&counts, observe, &PerfectChannel, &mut SplitMix64::new(42));
            let responses: u64 = counts[..observe].iter().map(|&c| u64::from(c)).sum();
            let scalar = fill_checksum(frame.busy_bitmap(), responses);

            let check = |fill: FrameFill, path: &str| {
                let frame = BitFrame::sense_truth(
                    &fill.busy,
                    observe,
                    &PerfectChannel,
                    &mut SplitMix64::new(42),
                );
                assert_eq!(
                    fill_checksum(frame.busy_bitmap(), fill.prefix_responses),
                    scalar,
                    "{name}: {path} differs from scalar"
                );
            };
            for threads in [1usize, 2] {
                let fill = response_fill_with_threads(&tags, w, observe, &plan, threads);
                check(fill, &format!("batched at threads={threads}"));
            }
            // Twice from one column: a 32-slot prefix lies inside one
            // 1024-slot sub-bucket, so the first fill slot-orders the
            // buckets it reads and the second reads them as ranges; a
            // 1024-slot prefix reads whole sub-buckets both times.
            for path in ["the rn column", "the rn column read again"] {
                check(response_fill_column(&mut column, w, observe, &plan), path);
            }
            computed.push((name, scalar));
        }
    }
    assert_pinned("frame_fill/", &computed);
}

/// One 512-slot ZOE seed batch at the production participation
/// `min(1.594/n, 1)`: the scalar scratch-buffer path, the sink-direct
/// batched kernel, and the dispatch entry point at its default mode. Then
/// one eleven-batch slot run at 100k tags, whose batches are windows of
/// one walk per tag.
#[test]
fn zoe_slot_checksums() {
    let batch = 512usize;
    let checksum = |fill: FrameFill| fill_checksum(&fill.busy, fill.prefix_responses);
    let mut computed = Vec::new();
    for n in [10_000usize, 100_000] {
        let tags = synth_tags(n);
        let p = (1.594 / n as f64).min(1.0);
        let plan = ZoeSlotPlan::new(batch, 0x20E_5EED_0000 + n as u64, p);
        let scalar = response_fill_with_threads(&tags, batch, batch, &ScalarRef(&plan), 1);
        let batched = response_fill_with_threads(&tags, batch, batch, &plan, 1);
        let dispatch = response_fill_dispatched(
            &tags,
            batch,
            batch,
            &plan,
            FillDispatch::default(),
            usize::MAX,
        );
        computed.push((format!("zoe_slots/scalar/n={n}"), checksum(scalar)));
        computed.push((format!("zoe_slots/batched/n={n}"), checksum(batched)));
        computed.push((format!("zoe_slots/dispatch/n={n}"), checksum(dispatch)));

        // The multi-frame fill reproduces the batched row: the batch alone,
        // and as batch 4 of a ten-batch pass whose last batch is short.
        let row = format!("zoe_slots/batched/n={n}");
        let alone = response_fills_with_threads(&tags, &[(batch, batch)], &[plan], 1);
        assert_eq!(
            checksum(alone[0].clone()),
            pinned(&row),
            "{row}: one-batch pass"
        );
        let mut pass: Vec<ZoeSlotPlan> = (0..10u64)
            .map(|i| ZoeSlotPlan::new(if i == 9 { 100 } else { batch }, 0x7A55 + i, p))
            .collect();
        pass[4] = plan;
        let shapes: Vec<(usize, usize)> = pass.iter().map(|b| (b.batch(), b.batch())).collect();
        let fills = response_fills_with_threads(&tags, &shapes, &pass, 1);
        assert_eq!(
            checksum(fills[4].clone()),
            pinned(&row),
            "{row}: batch 4 of 10"
        );
    }

    // One slot run as `Zoe::run_slots` cuts it, ten full batches and a
    // short one, filled in one pass at one and two workers and batch by
    // batch through the scalar path.
    let n = 100_000usize;
    let tags = synth_tags(n);
    let mut widths = vec![batch; 10];
    widths.push(112);
    let run = ZoeSlotPlan::run(0x2C4_5EED, 1.594 / n as f64, &widths);
    let shapes: Vec<(usize, usize)> = widths.iter().map(|&w| (w, w)).collect();
    let fold = |fills: Vec<FrameFill>| {
        fills
            .into_iter()
            .fold(0u64, |h, fill| h.rotate_left(7) ^ checksum(fill))
    };
    let one = fold(response_fills_with_threads(&tags, &shapes, &run, 1));
    assert_eq!(
        fold(response_fills_with_threads(&tags, &shapes, &run, 2)),
        one,
        "zoe_slots/run/n={n}: threads=2 differs from threads=1"
    );
    let scalar = run
        .iter()
        .map(|plan| {
            let w = plan.batch();
            response_fill_with_threads(&tags, w, w, &ScalarRef(plan), 1)
        })
        .collect();
    assert_eq!(
        fold(scalar),
        one,
        "zoe_slots/run/n={n}: the scalar batches differ from the one pass"
    );
    computed.push((format!("zoe_slots/run/n={n}"), one));
    assert_pinned("zoe_slots/", &computed);
}

/// Digest of one `f`-slot frame through `plan`: the per-slot counts and
/// the busy fills of the whole frame and of an 8-slot prefix.
fn frame_digest<P: ResponsePlan>(plan: &P, tags: &[Tag], f: usize, threads: usize) -> u64 {
    let counts = response_counts_with_threads(tags, f, plan, threads);
    let full = response_fill_with_threads(tags, f, f, plan, threads);
    let prefix = response_fill_with_threads(tags, f, 8, plan, threads);
    digest(&counts, &full, &prefix)
}

/// [`frame_digest`] of frame `at` of `plans`, its two fills taken from
/// multi-frame passes over all the plans (whole frames, then 8-slot
/// prefixes).
fn frame_digest_in_pass<P: ResponsePlan>(plans: &[P], at: usize, tags: &[Tag], f: usize) -> u64 {
    let counts = response_counts_with_threads(tags, f, &plans[at], 1);
    let pass = |observe: usize| {
        let shapes = vec![(f, observe); plans.len()];
        response_fills_with_threads(tags, &shapes, plans, 1).swap_remove(at)
    };
    digest(&counts, &pass(f), &pass(8))
}

fn digest(counts: &[u32], full: &FrameFill, prefix: &FrameFill) -> u64 {
    slot_checksum(counts.iter().map(|&c| c as usize))
        ^ fill_checksum(&full.busy, full.prefix_responses).rotate_left(21)
        ^ fill_checksum(&prefix.busy, prefix.prefix_responses).rotate_left(42)
}

/// One LOF geometric frame of `f = 32` levels (slot `j` with probability
/// `2^-(j+1)`, capped at the last slot): the per-slot counts, the busy fill
/// of the whole frame and of an 8-slot prefix, through the scalar
/// scratch-buffer path and through the plan's own kernel at one and two
/// workers.
#[test]
fn geometric_frame_checksums() {
    let f = 32usize;
    let seed = 0x10F_5EED;
    let mut computed = Vec::new();
    for n in [10_000usize, 100_000] {
        let tags = synth_tags(n);
        let plan = geometric_frame_plan(seed, f);
        let batched = frame_digest(&plan, &tags, f, 1);
        assert_eq!(
            frame_digest(&plan, &tags, f, 2),
            batched,
            "geometric_frame/batched/n={n}: threads=2 differs from threads=1"
        );
        computed.push((
            format!("geometric_frame/scalar/n={n}"),
            frame_digest(&ScalarRef(&plan), &tags, f, 1),
        ));
        computed.push((format!("geometric_frame/batched/n={n}"), batched));

        // The multi-frame fill reproduces the batched row: the frame alone,
        // and as round 4 of ten LOF rounds.
        let row = format!("geometric_frame/batched/n={n}");
        let alone = frame_digest_in_pass(&[plan], 0, &tags, f);
        assert_eq!(alone, pinned(&row), "{row}: one-frame pass");
        let mut rounds: Vec<_> = (0..10)
            .map(|i| geometric_frame_plan(seed ^ (i + 1), f))
            .collect();
        rounds[4] = plan;
        assert_eq!(
            frame_digest_in_pass(&rounds, 4, &tags, f),
            pinned(&row),
            "{row}: round 4 of 10"
        );
    }
    assert_pinned("geometric_frame/", &computed);
}

/// One register-collection frame of `2^14` registers × 16 rank cells (the
/// multi-reader ring's shape): the busy fill through the scalar
/// scratch-buffer path and through the plan's sink-direct kernel at one
/// and two workers.
#[test]
fn register_frame_checksums() {
    let (precision, levels) = (14u8, 16u8);
    let w = (1usize << precision) * usize::from(levels);
    let checksum = |fill: FrameFill| fill_checksum(&fill.busy, fill.prefix_responses);
    let mut computed = Vec::new();
    for n in [10_000usize, 100_000] {
        let tags = synth_tags(n);
        let plan = RegisterFramePlan::new(0x2E6_5EED, precision, levels);
        let batched = checksum(response_fill_with_threads(&tags, w, w, &plan, 1));
        assert_eq!(
            checksum(response_fill_with_threads(&tags, w, w, &plan, 2)),
            batched,
            "register_frame/batched/n={n}: threads=2 differs from threads=1"
        );
        let scalar = response_fill_with_threads(&tags, w, w, &ScalarRef(&plan), 1);
        computed.push((format!("register_frame/scalar/n={n}"), checksum(scalar)));
        computed.push((format!("register_frame/batched/n={n}"), batched));
    }
    assert_pinned("register_frame/", &computed);
}

/// Slot hashing of 100k tags under one seed, per tag and through
/// `hash_slots_batch`, for both hasher families; then the SplitMix64
/// stream folded one draw at a time.
#[test]
fn tag_hash_checksums() {
    let n = 100_000usize;
    let w = 8192usize;
    let seed = 0x5EED_CAFEu32;
    let identities: Vec<TagIdentity> = synth_tags(n)
        .iter()
        .map(|t| TagIdentity { id: t.id, rn: t.rn })
        .collect();
    let mut computed = Vec::new();
    for (hasher, name) in [
        (&XorBitgetHasher as &dyn SlotHasher, "xor-bitget"),
        (&MixHasher as &dyn SlotHasher, "mix64"),
    ] {
        let scalar = slot_checksum(identities.iter().map(|&tag| hasher.slot(tag, seed, w)));
        let mut slots = Vec::new();
        hash_slots_batch(hasher, &identities, seed, w, &mut slots);
        let batched = slot_checksum(slots);
        computed.push((format!("tag_hash/scalar/hasher={name}/n={n}"), scalar));
        computed.push((format!("tag_hash/batched/hasher={name}/n={n}"), batched));
    }
    // The PRNG pair's batched twin is the same sequential fold: the stream
    // has one implementation, `next_u64`.
    let mut prng = SplitMix64::new(0xD1CE);
    let stream = (0..n).fold(0u64, |h, _| h ^ prng.next_u64().rotate_left(17));
    computed.push((format!("tag_hash/scalar/prng=splitmix64/n={n}"), stream));
    computed.push((format!("tag_hash/batched/prng=splitmix64/n={n}"), stream));
    assert_pinned("tag_hash/", &computed);
}
