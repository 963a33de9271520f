//! Deterministic smoke pass over the frame-fill differential fuzz body.
//!
//! `fuzz/` proper needs nightly + `cargo-fuzz`; this test keeps the
//! `fill_kernels_diff` body honest on every `cargo test` by replaying its
//! seed corpus (the Bloom, ZOE and geometric kernel families, both
//! hashers, the unrolled-pair remainder arm, the XorBitget `rn`-column
//! runs of frames observed only in part, its slot-selective reads of a
//! paper-sized probe and rough prefix and of a frame with fewer than 8
//! sub-buckets, two seeds sharing one run, a
//! geometric frame wider than 65 levels, a sparse ZOE slot run whose
//! later batches hold first responses, degenerate populations) and then
//! hammering the body with deterministic mutations of the seeds from a
//! fixed-seed xorshift (the shared driver in `rfid_analysis::fuzz_surface`).
//! Any divergence the nightly fuzzer finds lands as a corpus file here
//! and reproduces forever after.

use rfid_analysis::fuzz_surface::{replay, seeds, Mutator};
use rfid_baselines::fuzz::{fill_kernels_diff, MAX_W};

/// Mutations tried per corpus seed. The body runs two kernels across four
/// dispatch modes per call, so this stays smaller than the cheap-body
/// smoke tests while still probing the header/tag boundaries.
const MUTATIONS_PER_SEED: u64 = 48;

/// Header surgery matters most here: the width, observe, selector, thread
/// and `p_n` bytes of the 8-byte header steer which kernel and dispatch
/// mode run; splices and appended noise add whole or ragged tags.
const MUTATOR: Mutator = Mutator {
    header: 8,
    tokens: &[],
};

#[test]
fn fill_kernels_diff_smoke() {
    replay(
        "fill_kernels_diff",
        MUTATIONS_PER_SEED,
        &MUTATOR,
        fill_kernels_diff,
    );
}

#[test]
fn corpus_steers_every_kernel_family() {
    // The selector byte (header offset 4) must keep every side of the
    // differential alive: even → Bloom, ≡ 3 (mod 4) → ZOE, ≡ 1 (mod 4) →
    // the geometric frame. A corpus that decays to fewer families silently
    // stops testing the others.
    let mut bloom = 0usize;
    let mut zoe = 0usize;
    let mut geometric = 0usize;
    for (_, seed) in seeds("fill_kernels_diff") {
        match seed.get(4) {
            Some(sel) if sel & 1 == 0 => bloom += 1,
            Some(sel) if sel & 3 == 3 => zoe += 1,
            Some(_) => geometric += 1,
            None => {}
        }
    }
    assert!(bloom >= 1, "no Bloom-kernel seed in the corpus");
    assert!(zoe >= 1, "no ZOE-kernel seed in the corpus");
    assert!(geometric >= 1, "no geometric-frame seed in the corpus");
}

#[test]
fn corpus_reaches_the_slot_selective_column() {
    // Bloom seeds decode to the XorBitget frame `(w, observe)` the column
    // fills: the paper's probe and rough prefixes of an 8192-slot frame,
    // which read one sub-bucket of eight, and a part-observed frame
    // narrower than 8 slots, whose sub-buckets are its slots.
    let frames: Vec<(usize, usize)> = seeds("fill_kernels_diff")
        .into_iter()
        .filter_map(|(_, seed)| {
            let header = seed.get(..8)?;
            (header[4] & 1 == 0).then_some(())?;
            let w = 1 + usize::from(u16::from_le_bytes([header[0], header[1]])) % MAX_W;
            let observe = usize::from(u16::from_le_bytes([header[2], header[3]])) % (w + 1);
            let w = w.next_power_of_two();
            Some((w, observe.min(w)))
        })
        .collect();
    assert!(
        frames.contains(&(8192, 32)),
        "no probe-prefix column seed: {frames:?}"
    );
    assert!(
        frames.contains(&(8192, 1024)),
        "no rough-prefix column seed: {frames:?}"
    );
    assert!(
        frames
            .iter()
            .any(|&(w, observe)| w < 8 && 0 < observe && observe < w),
        "no part-observed column seed narrower than 8 slots: {frames:?}"
    );
}
