//! Property-based tests for the simulator: the bitmap against a naive
//! model, ledger arithmetic, frame aggregation, and parallel/sequential
//! equivalence.

use rfid_check::{check, Gen, CASES};
use rfid_hash::SplitMix64;
use rfid_sim::frame::response_counts;
use rfid_sim::parallel::{par_fold, par_fold_with_threads};
use rfid_sim::{
    AirTimeLedger, BitErrorChannel, BitFrame, Bitmap, CaptureChannel, Channel,
    ImperfectHashChannel, PerfectChannel, Tag, Timing,
};

#[test]
fn bitmap_matches_vec_bool_model() {
    check("bitmap_matches_vec_bool_model", CASES, |g| {
        let len = g.range(1usize..500);
        let ops = g.vec(0..200, |g| (g.range(0usize..500), g.range(0u8..3)));
        let prefix_frac = g.f64(0.0..1.0);
        let mut bitmap = Bitmap::zeros(len);
        let mut model = vec![false; len];
        for (raw_idx, kind) in ops {
            let i = raw_idx % len;
            match kind {
                0 => {
                    bitmap.set(i);
                    model[i] = true;
                }
                1 => {
                    bitmap.clear(i);
                    model[i] = false;
                }
                _ => {
                    bitmap.toggle(i);
                    model[i] = !model[i];
                }
            }
        }
        assert_eq!(bitmap.len(), model.len());
        assert_eq!(bitmap.count_ones(), model.iter().filter(|&&b| b).count());
        for (i, &bit) in model.iter().enumerate() {
            assert_eq!(bitmap.get(i), bit);
        }
        let prefix = ((len as f64) * prefix_frac) as usize;
        assert_eq!(
            bitmap.count_ones_prefix(prefix),
            model[..prefix].iter().filter(|&&b| b).count()
        );
        let ones: Vec<usize> = bitmap.iter_ones().collect();
        let model_ones: Vec<usize> = model
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ones, model_ones);
    });
}

/// The bitmap of `flags` set one bit at a time: bit `i` is the low bit
/// of `flags[i]`.
fn from_flags_reference(flags: &[u8]) -> Bitmap {
    let mut bitmap = Bitmap::zeros(flags.len());
    for (i, &flag) in flags.iter().enumerate() {
        if flag & 1 == 1 {
            bitmap.set(i);
        }
    }
    bitmap
}

/// Flag bytes whose low bit is set with probability `density / 64` and
/// whose upper seven bits are random: the packing must read the low bit
/// only.
fn flag_bytes(g: &mut Gen, len: usize, density: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let draw = g.u64();
            (draw as u8 & !1) | u8::from(draw >> 58 < density)
        })
        .collect()
}

/// `Bitmap::from_flags` packs 64 flags per word exactly as setting each
/// flagged bit does, tail word included: at every length up to 1 000 and
/// at random lengths, densities and upper bits.
#[test]
fn from_flags_packs_like_per_bit_sets() {
    let mut g = Gen::new(0xF1A6_5EED);
    for len in 0..=1_000usize {
        let density = g.range(0u64..=64);
        let flags = flag_bytes(&mut g, len, density);
        assert_eq!(
            Bitmap::from_flags(&flags),
            from_flags_reference(&flags),
            "len {len}"
        );
    }
    check("from_flags_packs_like_per_bit_sets", CASES, |g| {
        let (len, density) = (g.range(0usize..20_000), g.range(0u64..=64));
        let flags = flag_bytes(g, len, density);
        let packed = Bitmap::from_flags(&flags);
        assert_eq!(packed, from_flags_reference(&flags), "len {len}");
        assert_eq!(packed.word_count(), len.div_ceil(64));
    });
}

#[test]
fn bitmap_or_is_union() {
    check("bitmap_or_is_union", CASES, |g| {
        let len = g.range(1usize..300);
        let mut a = Bitmap::zeros(len);
        let mut b = Bitmap::zeros(len);
        for i in g.vec(0..50, |g| g.range(0usize..300)) {
            a.set(i % len);
        }
        for i in g.vec(0..50, |g| g.range(0usize..300)) {
            b.set(i % len);
        }
        let mut merged = a.clone();
        merged.or_assign(&b);
        for i in 0..len {
            assert_eq!(merged.get(i), a.get(i) || b.get(i));
        }
    });
}

#[test]
fn ledger_since_is_exact_difference() {
    check("ledger_since_is_exact_difference", CASES, |g| {
        let mut spans = || g.vec(0..10, |g| (g.range(1u64..200), g.range(0u64..500)));
        let (first, second) = (spans(), spans());
        let mut ledger = AirTimeLedger::new(Timing::c1g2());
        for &(bits, slots) in &first {
            ledger.reader_broadcast(bits);
            ledger.tag_bitslots(slots);
        }
        let snapshot = ledger.snapshot();
        for &(bits, slots) in &second {
            ledger.reader_broadcast(bits);
            ledger.tag_bitslots(slots);
        }
        let diff = ledger.snapshot().since(&snapshot);
        let want_bits: u64 = second.iter().map(|&(b, _)| b).sum();
        let want_slots: u64 = second.iter().map(|&(_, s)| s).sum();
        assert_eq!(diff.reader_bits, want_bits);
        assert_eq!(diff.bitslots, want_slots);
        assert_eq!(diff.reader_messages, second.len() as u64);
        assert!(
            (diff.total_us() - (ledger.snapshot().total_us() - snapshot.total_us())).abs() < 1e-9
        );
    });
}

#[test]
fn response_counts_conserve_responses() {
    check("response_counts_conserve_responses", CASES, |g| {
        let (n_tags, w, k) = (
            g.range(1usize..500),
            g.range(1usize..256),
            g.range(1usize..4),
        );
        let tags: Vec<Tag> = (0..n_tags as u64)
            .map(|i| Tag {
                id: i + 1,
                rn: i as u32,
            })
            .collect();
        let plan = move |tag: &Tag, out: &mut Vec<usize>| {
            for j in 0..k {
                out.push(((tag.id as usize) * 31 + j * 7) % w);
            }
        };
        let counts = response_counts(&tags, w, &plan);
        assert_eq!(counts.len(), w);
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, (n_tags * k) as u64);
    });
}

#[test]
fn par_fold_equals_sequential_for_histograms() {
    check("par_fold_equals_sequential_for_histograms", CASES, |g| {
        let values = g.vec(0..2000, |g| g.range(0usize..64));
        // `min_chunk == 0` ("always use every hardware thread") and the
        // empty `values` vec are the regression cases that used to panic
        // in `chunks(0)` / `expect("at least one chunk")`.
        let min_chunk = g.pick(&[0usize, 1, 10, 100, usize::MAX]);
        let run = |chunk: usize| {
            par_fold(
                &values,
                chunk,
                || vec![0u32; 64],
                |acc, &v| acc[v] += 1,
                |acc, other| {
                    for (a, b) in acc.iter_mut().zip(other) {
                        *a += b;
                    }
                },
            )
        };
        assert_eq!(run(min_chunk), run(usize::MAX));
    });
}

#[test]
fn par_fold_with_threads_equals_sequential() {
    check("par_fold_with_threads_equals_sequential", CASES, |g| {
        let values = g.vec(0..2000, |g| g.range(0usize..64));
        let threads = g.pick(&[0usize, 1, 2, 3, 8, 64, usize::MAX]);
        let parallel = par_fold_with_threads(
            &values,
            threads,
            || vec![0u32; 64],
            |acc, &v| acc[v] += 1,
            |acc, other| {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            },
        );
        let mut sequential = vec![0u32; 64];
        for &v in &values {
            sequential[v] += 1;
        }
        assert_eq!(parallel, sequential);
    });
}

#[test]
fn perfect_sensing_reflects_counts() {
    check("perfect_sensing_reflects_counts", CASES, |g| {
        let counts = g.vec(1..300, |g| g.range(0u32..5));
        let mut noise = SplitMix64::new(7);
        let frame = BitFrame::sense(&counts, counts.len(), &PerfectChannel, &mut noise);
        let busy_true = counts.iter().filter(|&&c| c > 0).count();
        assert_eq!(frame.busy_count(), busy_true);
        assert_eq!(frame.idle_count() + frame.busy_count(), counts.len());
        let rho = frame.rho();
        assert!((0.0..=1.0).contains(&rho));
    });
}

/// A synthetic multi-response plan for kernel-equivalence properties:
/// each tag answers under a subset of the seeds (dropping seeds where a
/// cheap predicate fires), so response counts per tag vary from 0 to
/// `seeds.len()` — exactly the shape the batched fill path must handle.
#[derive(Debug)]
struct SyntheticPlan {
    seeds: Vec<u32>,
    w: usize,
}

impl rfid_sim::ResponsePlan for SyntheticPlan {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        for &seed in &self.seeds {
            // Deterministic, tag-dependent participation + slot.
            let h = rfid_hash::mix::mix_pair(tag.id ^ u64::from(tag.rn), u64::from(seed));
            if h & 3 != 0 {
                out.push(rfid_hash::mix::bucket(h >> 2, self.w));
            }
        }
    }
}

/// Up to `max - 1` tags with arbitrary IDs and `rn`s.
fn tags(g: &mut Gen, max: usize) -> Vec<Tag> {
    g.vec(0..max, |g| Tag {
        id: g.u64(),
        rn: g.u32(),
    })
}

/// The batched word-level fill (per-thread bitmaps merged by word OR)
/// must be bitwise identical to the scalar reference counts over the
/// observed prefix — and span exactly that prefix — for arbitrary tag
/// sets, widths (including < 64 and non-multiples of 64), observation
/// prefixes, and thread counts.
#[test]
fn batched_fill_matches_reference_counts() {
    check("batched_fill_matches_reference_counts", CASES, |g| {
        let tags = tags(g, 250);
        let w = g.range(1usize..200);
        let plan = SyntheticPlan {
            seeds: g.vec(0..4, Gen::u32),
            w,
        };
        let observe = ((w as f64) * g.f64(0.0..1.0)) as usize;
        let threads = g.pick(&[1usize, 2, 3, 8]);

        let counts = rfid_sim::frame::response_counts_reference(&tags, w, &plan, usize::MAX);
        let fill = rfid_sim::frame::response_fill_with_threads(&tags, w, observe, &plan, threads);

        assert_eq!(fill.busy.len(), observe);
        for (slot, &c) in counts.iter().enumerate() {
            assert_eq!(
                slot < observe && fill.busy.get(slot),
                slot < observe && c > 0,
                "slot {slot} busy mismatch (count {c}, observe {observe})"
            );
        }
        let want_prefix: u64 = counts[..observe].iter().map(|&c| u64::from(c)).sum();
        assert_eq!(fill.prefix_responses, want_prefix);
    });
}

/// `min_chunk` only re-partitions work across threads; it must never
/// change the filled frame.
#[test]
fn min_chunk_never_changes_the_fill() {
    check("min_chunk_never_changes_the_fill", CASES, |g| {
        let tags = tags(g, 200);
        let w = g.range(1usize..130);
        let min_chunk = g.pick(&[1usize, 7, 64, 1024, usize::MAX]);
        let plan = SyntheticPlan {
            seeds: vec![11, 22, 33],
            w,
        };
        let base = rfid_sim::frame::response_fill_with_threads(&tags, w, w, &plan, 1);
        let chunked = rfid_sim::frame::response_fill_with_min_chunk(&tags, w, w, &plan, min_chunk);
        assert_eq!(base.busy.words(), chunked.busy.words());
        assert_eq!(base.prefix_responses, chunked.prefix_responses);
    });
}

/// The count-vector path and the reference path agree for every
/// thread count (OR-accumulation vs u32 accumulation).
#[test]
fn threaded_counts_match_reference() {
    check("threaded_counts_match_reference", CASES, |g| {
        let tags = tags(g, 200);
        let w = g.range(1usize..130);
        let threads = g.pick(&[1usize, 2, 5, 16]);
        let plan = SyntheticPlan {
            seeds: vec![5, 6],
            w,
        };
        let reference = rfid_sim::frame::response_counts_reference_with_threads(&tags, w, &plan, 1);
        let threaded = rfid_sim::frame::response_counts_with_threads(&tags, w, &plan, threads);
        assert_eq!(reference, threaded);
    });
}

/// Dispatch is routing only: whatever mode picks the kernel, the
/// dispatched fill and count paths are bit-identical to the
/// single-thread batched fill and the scalar reference counts.
#[test]
fn dispatched_paths_match_pure_paths_in_every_mode() {
    use rfid_sim::FillDispatch;

    check(
        "dispatched_paths_match_pure_paths_in_every_mode",
        CASES,
        |g| {
            let tags = tags(g, 200);
            let w = g.range(1usize..130);
            let plan = SyntheticPlan {
                seeds: vec![3, 9, 27],
                w,
            };
            let base = rfid_sim::frame::response_fill_with_threads(&tags, w, w, &plan, 1);
            let counts_ref =
                rfid_sim::frame::response_counts_reference_with_threads(&tags, w, &plan, 1);
            for mode in [FillDispatch::Scalar, FillDispatch::Batched] {
                let fill =
                    rfid_sim::frame::response_fill_dispatched(&tags, w, w, &plan, mode, usize::MAX);
                assert_eq!(
                    base.busy.words(),
                    fill.busy.words(),
                    "fill words, mode {mode:?}"
                );
                assert_eq!(
                    base.prefix_responses, fill.prefix_responses,
                    "prefix, mode {mode:?}"
                );
                let counts =
                    rfid_sim::frame::response_counts_dispatched(&tags, w, &plan, mode, usize::MAX);
                assert_eq!(&counts_ref, &counts, "counts, mode {mode:?}");
            }
        },
    );
}

/// `ScalarRef` must expose *only* `responses()`: wrapping any plan —
/// even one whose batched override is deliberately wrong — yields a
/// fill identical to the scalar reference counts.
#[test]
fn scalar_ref_always_reproduces_the_reference() {
    #[derive(Debug)]
    struct LyingPlan {
        inner: SyntheticPlan,
        shift: usize,
        w: usize,
    }
    impl rfid_sim::ResponsePlan for LyingPlan {
        fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
            self.inner.responses(tag, out);
        }
        fn fill_chunk(&self, tags: &[Tag], sink: &mut rfid_sim::SlotSink<'_>) {
            let mut scratch = Vec::new();
            for tag in tags {
                scratch.clear();
                self.inner.responses(tag, &mut scratch);
                for &slot in &scratch {
                    sink.record((slot + self.shift) % self.w);
                }
            }
        }
    }

    check("scalar_ref_always_reproduces_the_reference", CASES, |g| {
        let tags = tags(g, 150);
        let (w, shift) = (g.range(2usize..120), g.range(1usize..32));
        let plan = LyingPlan {
            inner: SyntheticPlan {
                seeds: vec![4, 8],
                w,
            },
            shift,
            w,
        };
        let counts = rfid_sim::frame::response_counts_reference(&tags, w, &plan, usize::MAX);
        let fill = rfid_sim::frame::response_fill_with_threads(
            &tags,
            w,
            w,
            &rfid_sim::ScalarRef(&plan),
            1,
        );
        for (slot, &c) in counts.iter().enumerate() {
            assert_eq!(fill.busy.get(slot), c > 0, "slot {slot}");
        }
        let want: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(fill.prefix_responses, want);
    });
}

/// Every channel implementation in the workspace, instantiated from two
/// free parameters so the property sweeps the configuration space too.
fn channel_family(g: &mut Gen) -> Vec<Box<dyn Channel>> {
    let (p1, p2) = (g.f64(0.0..1.0), g.f64(0.0..1.0));
    vec![
        Box::new(PerfectChannel),
        Box::new(BitErrorChannel::new(p1)),
        Box::new(CaptureChannel::new(p1)),
        Box::new(ImperfectHashChannel::new(p1, p2)),
    ]
}

/// The `Channel` contract: a 1-bit slot carries no multiplicity
/// information, so for every implementation the sensed value *and*
/// the post-call noise stream may depend on `responders` only through
/// `responders > 0`. The batched frame path replays frames from a
/// busy/idle bitmap and silently desynchronizes if any channel
/// violates this.
#[test]
fn bitslot_sensing_depends_only_on_occupancy() {
    check("bitslot_sensing_depends_only_on_occupancy", CASES, |g| {
        let (seed, r1, r2) = (g.u64(), g.range(1u32..50_000), g.range(1u32..50_000));
        for channel in channel_family(g) {
            let mut noise_a = SplitMix64::new(seed);
            let mut noise_b = SplitMix64::new(seed);
            let a = channel.sense_bitslot(r1, &mut noise_a);
            let b = channel.sense_bitslot(r2, &mut noise_b);
            assert_eq!(
                a,
                b,
                "{}: sensed value depends on multiplicity",
                channel.name()
            );
            assert_eq!(
                noise_a.next_u64(),
                noise_b.next_u64(),
                "{}: noise stream depends on multiplicity",
                channel.name()
            );
        }
    });
}

/// Same-seed bit-slot sensing is a pure function: repeating the call
/// reproduces both the result and the stream position.
#[test]
fn bitslot_sensing_replays_bitwise() {
    check("bitslot_sensing_replays_bitwise", CASES, |g| {
        let (seed, responders) = (g.u64(), g.range(0u32..1_000));
        for channel in channel_family(g) {
            let mut noise_a = SplitMix64::new(seed);
            let mut noise_b = SplitMix64::new(seed);
            let a = channel.sense_bitslot(responders, &mut noise_a);
            let b = channel.sense_bitslot(responders, &mut noise_b);
            assert_eq!(a, b, "{}", channel.name());
            assert_eq!(noise_a.next_u64(), noise_b.next_u64(), "{}", channel.name());
        }
    });
}

/// The Aloha analogue: outcome and noise stream may depend on the
/// responder count only through its empty/singleton/collision class.
#[test]
fn aloha_sensing_depends_only_on_collision_class() {
    check(
        "aloha_sensing_depends_only_on_collision_class",
        CASES,
        |g| {
            let (seed, r1, r2) = (g.u64(), g.range(2u32..50_000), g.range(2u32..50_000));
            for channel in channel_family(g) {
                let mut noise_a = SplitMix64::new(seed);
                let mut noise_b = SplitMix64::new(seed);
                let a = channel.sense_aloha(r1, &mut noise_a);
                let b = channel.sense_aloha(r2, &mut noise_b);
                assert_eq!(
                    a,
                    b,
                    "{}: outcome depends on collision size",
                    channel.name()
                );
                assert_eq!(
                    noise_a.next_u64(),
                    noise_b.next_u64(),
                    "{}: noise stream depends on collision size",
                    channel.name()
                );
            }
        },
    );
}

/// Extreme parameters stay within the contract: a fully-errored
/// bit-error channel inverts every slot deterministically, and a
/// miss-everything imperfect-hash channel reads everything idle.
#[test]
fn degenerate_channels_are_deterministic() {
    check("degenerate_channels_are_deterministic", CASES, |g| {
        let (mut noise, responders) = (SplitMix64::new(g.u64()), g.range(1u32..1_000));
        assert!(!BitErrorChannel::new(1.0).sense_bitslot(responders, &mut noise));
        assert!(BitErrorChannel::new(1.0).sense_bitslot(0, &mut noise));
        assert!(!ImperfectHashChannel::new(1.0, 0.0).sense_bitslot(responders, &mut noise));
        assert!(ImperfectHashChannel::new(0.0, 1.0).sense_bitslot(0, &mut noise));
        assert!(!BitErrorChannel::new(0.0).sense_bitslot(0, &mut noise));
    });
}
