//! Must-not-panic differential fuzz body for the frame-fill kernels.
//!
//! Mirrors the pattern of `rfid_bfce::sketch::fuzz`: the out-of-tree
//! cargo-fuzz target `fuzz/fuzz_targets/fill_kernels_diff.rs` is a thin
//! wrapper around [`fill_kernels_diff`], and the in-tree
//! `crates/baselines/tests/fuzz_smoke.rs` replays the same body over the
//! seed corpus plus deterministic mutations on every `cargo test` — so a
//! divergence found by the nightly fuzzer reproduces as a plain unit-test
//! call.
//!
//! The property under test is the plan contract the dispatch layer rests
//! on: for *arbitrary* tags, frame widths, thread counts, and dispatch
//! modes, the batched `fill_chunk` kernels (Bloom, ZOE and the LOF
//! geometric histogram — the plans with real overrides) must agree
//! **bitwise** with the retained scalar reference path
//! `response_counts_reference_with_threads`, and every
//! `response_fill_dispatched` mode, plus the `rn`-column fill of the
//! XorBitget Bloom plan, must derive the same busy bitmap of the observed
//! prefix and the same prefix response count from that ground truth. The
//! ZOE and geometric plans are also filled in multi-frame passes
//! (`response_fills_with_threads`), a third side held frame by frame to
//! each plan's own fill; for ZOE both as independent batches and as one
//! slot run (`ZoeSlotPlan::run`) with its suffix sub-run. The ZOE walk's
//! reject threshold is further held to the float-only reference walk, tag
//! by tag and at every batch offset, since both of its kernels share that
//! walk.

use crate::common::geometric_frame_plan;
use crate::ZoeSlotPlan;
use rfid_bfce::{BfceConfig, BloomPlan, HasherKind};
use rfid_sim::frame::{
    response_counts_reference_with_threads, response_counts_with_threads, response_fill_column,
    response_fill_dispatched, response_fill_with_threads, response_fills_with_threads,
    ResponsePlan, ScalarRef,
};
use rfid_sim::{FillDispatch, FrameFill, RnColumn, Tag};

/// Cap on the fuzz-chosen frame width: the paper's `w`, so the column
/// fill of a paper-sized probe or rough frame is reachable, while one
/// iteration stays sub-second.
pub const MAX_W: usize = 8192;

/// Cap on the fuzz-built population for the same reason.
const MAX_TAGS: usize = 256;

/// Fuzz body: decode `(w, observe, plan, threads, p_n, tags…)` from the
/// bytes, then hold the batched kernels to the scalar reference.
///
/// Byte layout (all little-endian, remainder ignored):
/// `[w: u16][observe: u16][selector: u8][threads: u8][p_n: u16]` followed
/// by 8-byte tags (`id: u32`-widened, `rn: u32`). The selector picks the
/// kernel family: even → Bloom, `≡ 3 (mod 4)` → ZOE, `≡ 1 (mod 4)` → the
/// geometric frame with `f = w`. Duplicate tag IDs are
/// deliberately allowed — the kernels take raw slices; ID uniqueness is a
/// population-level rule enforced elsewhere.
pub fn fill_kernels_diff(data: &[u8]) {
    let Some((header, rest)) = data.split_first_chunk::<8>() else {
        return;
    };
    let w = 1 + u16::from_le_bytes([header[0], header[1]]) as usize % MAX_W;
    let observe = u16::from_le_bytes([header[2], header[3]]) as usize % (w + 1);
    let selector = header[4];
    let threads = 1 + header[5] as usize % 8;
    let p_n = 1 + u16::from_le_bytes([header[6], header[7]]) as u32 % 1023;
    let tags: Vec<Tag> = rest
        .chunks_exact(8)
        .take(MAX_TAGS)
        .filter_map(|c| {
            let (id_bytes, rn_rest) = c.split_first_chunk::<4>()?;
            let rn_bytes = rn_rest.first_chunk::<4>()?;
            Some(Tag {
                id: u64::from(u32::from_le_bytes(*id_bytes)),
                rn: u32::from_le_bytes(*rn_bytes),
            })
        })
        .collect();

    if selector & 1 == 0 {
        // Bloom kernel. Both hashers are exercised: Mix64 takes any w;
        // XorBitget requires a power of two, so the width is rounded.
        let mut cfg = BfceConfig::paper();
        let seed_base = u32::from(selector) << 8 | p_n;
        // k spans 1..=4 hash seeds.
        let k = 1 + (selector >> 1) as usize % 4;
        // Seeds differ in their low bits: XorBitget slots are `(rn ^ seed) &
        // (w - 1)`, so seeds equal below bit log2(w) would give one tag the
        // same slot under every seed.
        let seeds: Vec<u32> = (0..k as u32)
            .map(|i| seed_base ^ i.wrapping_mul(0x9E37_79B9))
            .collect();
        cfg.hasher = HasherKind::Mix64;
        cfg.w = w;
        check_plan(&tags, w, observe, threads, &BloomPlan::new(&cfg, &seeds, p_n));
        // XorBitget also fills from the rn column, visiting the key runs
        // that respond to each seed and, in a frame observed in part, only
        // their `rn`s whose slots lie in the prefix.
        let mut pow2_cfg = cfg;
        pow2_cfg.hasher = HasherKind::XorBitget;
        pow2_cfg.w = w.next_power_of_two();
        check_plan(
            &tags,
            pow2_cfg.w,
            observe.min(pow2_cfg.w),
            threads,
            &BloomPlan::new(&pow2_cfg, &seeds, p_n),
        );
    } else {
        // A root mixed from the population bytes.
        let root = tags.iter().fold(u64::from(selector), |acc, t| {
            acc.wrapping_mul(0x100_0000_01B3)
                .wrapping_add(t.id ^ u64::from(t.rn))
        });
        if selector & 3 == 3 {
            // ZOE kernel: a batch of w single-slot frames with
            // participation p_n/1024, then the same batch in a pass with a
            // second full batch and a short one, each independent.
            let p = f64::from(p_n) / 1024.0;
            let plan = ZoeSlotPlan::new(w, root, p);
            check_plan(&tags, w, observe, threads, &plan);
            let short = 1 + w / 3;
            check_pass(
                &tags,
                &[(w, observe), (w, observe), (short, observe.min(short))],
                &[
                    plan,
                    ZoeSlotPlan::new(w, root ^ 1, p),
                    ZoeSlotPlan::new(short, root ^ 2, p),
                ],
                threads,
            );
            // The same shapes as one slot run under `root`, whose batches
            // are windows of one walk per tag, and its suffix sub-run.
            let run = ZoeSlotPlan::run(root, p, &[w, w, short]);
            let frames = [(w, observe), (w, observe), (short, observe.min(short))];
            check_pass(&tags, &frames, &run, threads);
            if let (Some((_, frames)), Some((_, batches))) =
                (frames.split_first(), run.split_first())
            {
                check_pass(&tags, frames, batches, threads);
            }
            for plan in run.iter().chain([&plan]) {
                for tag in &tags {
                    let (mut fast, mut float) = (Vec::new(), Vec::new());
                    plan.responses(tag, &mut fast);
                    plan.reference_responses(tag, &mut float);
                    // analysis:allow(panic-path): fuzz oracle — the panic is the crash report
                    assert_eq!(
                        fast, float,
                        "the reject threshold diverges from the float-only walk for tag {} \
                         at offset {}",
                        { tag.id },
                        plan.offset()
                    );
                }
            }
        } else {
            // LOF geometric frame of f = w levels: f = 1 puts every tag
            // in slot 0, f > 65 leaves slots no hash can reach.
            let plan = geometric_frame_plan(root as u32, w);
            check_plan(&tags, w, observe, threads, &plan);
            let rounds: Vec<_> = (0..3)
                .map(|i| geometric_frame_plan(root as u32 ^ i, w))
                .collect();
            check_pass(
                &tags,
                &[(w, observe), (w, w), (w, observe)],
                &rounds,
                threads,
            );
        }
    }
}

/// Hold one plan to the reference: batched counts, then every dispatch
/// mode of the bitmap fill and, for a plan that fills `w`-slot frames
/// from an `rn` column, the column fill must reproduce the scalar per-tag
/// truth.
/// The fill covers the observed prefix exactly: slot `i` reads busy iff
/// `i < observe` and some tag responded in it.
fn check_plan<P: ResponsePlan>(tags: &[Tag], w: usize, observe: usize, threads: usize, plan: &P) {
    let reference = response_counts_reference_with_threads(tags, w, plan, threads);
    let batched = response_counts_with_threads(tags, w, plan, threads);
    assert_eq!(
        reference, batched,
        "batched fill_chunk counts diverge from the scalar reference"
    );
    let check = |fill: FrameFill, observe: usize, path: &str| {
        let prefix_truth: u64 = reference.iter().take(observe).map(|&c| u64::from(c)).sum();
        // analysis:allow(panic-path): fuzz oracle — the panic is the crash report
        assert_eq!(
            fill.busy.len(),
            observe,
            "{path}: the busy bitmap must span exactly the observed prefix"
        );
        for (slot, &count) in reference.iter().enumerate() {
            let bit = slot < observe && fill.busy.get(slot);
            // analysis:allow(panic-path): fuzz oracle — the panic is the crash report
            assert_eq!(
                bit,
                slot < observe && count > 0,
                "{path}: busy bit for slot {slot} disagrees with the reference count"
            );
        }
        // analysis:allow(panic-path): fuzz oracle — the panic is the crash report
        assert_eq!(
            fill.prefix_responses, prefix_truth,
            "{path}: observed-prefix responses diverge from the reference"
        );
    };
    for (mode, min_chunk) in [
        (FillDispatch::Scalar, usize::MAX),
        (FillDispatch::Batched, 1),
        (FillDispatch::Batched, usize::MAX),
        (FillDispatch::Scalar, 1),
    ] {
        let fill = response_fill_dispatched(tags, w, observe, plan, mode, min_chunk);
        check(fill, observe, &format!("{mode:?}"));
    }
    if plan.rn_column_width() == Some(w) {
        // A prefix read slot-orders the buckets it reaches into; the same
        // column read again, in full or at the prefix, must still meet the
        // reference.
        for again in [w, observe] {
            let mut column = RnColumn::new(tags, w);
            check(
                response_fill_column(&mut column, w, observe, plan),
                observe,
                "rn column",
            );
            check(
                response_fill_column(&mut column, w, again, plan),
                again,
                "rn column, read again",
            );
        }
    }
}

/// Hold a multi-frame pass to the one-frame fills: frame `i` of one
/// [`response_fills_with_threads`] pass must be the scalar fill of
/// `plans[i]` alone, which [`check_plan`] holds to the reference.
fn check_pass<P: ResponsePlan>(
    tags: &[Tag],
    frames: &[(usize, usize)],
    plans: &[P],
    threads: usize,
) {
    let fills = response_fills_with_threads(tags, frames, plans, threads);
    for (i, ((fill, &(w, observe)), plan)) in fills.into_iter().zip(frames).zip(plans).enumerate() {
        check_plan(tags, w, observe, threads, plan);
        let scalar = response_fill_with_threads(tags, w, observe, &ScalarRef(plan), threads);
        // analysis:allow(panic-path): fuzz oracle — the panic is the crash report
        assert_eq!(
            fill, scalar,
            "frame {i} of a multi-frame pass diverges from its plan's scalar fill"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_inputs_are_ignored() {
        fill_kernels_diff(&[]);
        fill_kernels_diff(&[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn every_plan_family_runs_on_a_dense_input() {
        // Even selector byte → Bloom (both hashers), 7 ≡ 3 (mod 4) → ZOE,
        // 5 ≡ 1 (mod 4) → geometric. 8-byte header then three tags.
        for selector in [0x06, 0x07, 0x05] {
            let mut input = vec![0x40, 0x00, 0x10, 0x00, selector, 0x03, 0x20, 0x00];
            for t in 0u8..3 {
                input.extend_from_slice(&[t + 1, 0, 0, 0, 0xA0 ^ t, 0x55, 0, 0]);
            }
            fill_kernels_diff(&input);
        }
    }
}
