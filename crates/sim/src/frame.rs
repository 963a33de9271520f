//! Frame execution: from per-tag response plans to the reader's observation.
//!
//! A *frame* is the unit of the Reader-Talks-First protocol: the reader
//! broadcasts parameters, then senses `w` slots. Estimators describe tag
//! behaviour as a [`ResponsePlan`] — a pure function from a tag to the slots
//! it transmits in — and the executor aggregates true per-slot responder
//! counts (in parallel for large populations) before the [`Channel`] turns
//! them into the reader's (possibly noisy) observation.

use crate::aloha::{AlohaFrame, AlohaOutcome};
use crate::bitmap::Bitmap;
use crate::channel::Channel;
use crate::column::RnColumn;
use crate::dispatch::FillDispatch;
use crate::parallel::{par_fold_chunks_with_threads, par_fold_with_threads, thread_count};
use crate::tag::Tag;
use rfid_hash::SplitMix64;

/// Minimum tags per worker thread before the executor bothers to go
/// parallel; below this the spawn overhead dominates.
pub const MIN_TAGS_PER_THREAD: usize = 20_000;

/// Floor on tags per worker when the caller pins an *explicit* worker
/// count: the request is treated as an upper bound, and the executor never
/// hands a worker fewer than this many tags.
///
/// Without the floor, `response_fill_with_threads(.., threads = 4)` on a
/// 1 000-tag frame spawns four scoped threads for ~250 tags each — around
/// 80 µs of actual work behind several hundred µs of spawn/join, and on an
/// oversubscribed host the occasional descheduled worker showed up as a 9x
/// p95/p50 blowup in the retired `rfid-bench` kernel suite
/// (`frame_fill/batched/n=1000/threads=4`: p95 1.45 ms vs p50 0.16 ms).
/// Clamping small frames back to fewer workers removes the thrash; frame
/// fills are exact commutative-associative aggregation, so the observation
/// is bitwise identical at any worker count.
pub const FILL_TAGS_PER_WORKER_FLOOR: usize = 512;

/// Clamp an explicitly requested worker count so every worker receives at
/// least [`FILL_TAGS_PER_WORKER_FLOOR`] tags.
#[inline]
fn floored_threads(len: usize, threads: usize) -> usize {
    threads.min((len / FILL_TAGS_PER_WORKER_FLOOR).max(1))
}

/// Where a frame-fill kernel records tag responses.
///
/// Two shapes, chosen by the executor, invisible to the plan:
///
/// * **counts** — per-slot `u32` responder counts over the whole `w`-slot
///   frame, needed wherever the multiplicity matters (Aloha
///   empty/singleton/collision classification, FNEB's pre-computed counts);
/// * **busy** — a per-thread busy flag byte per slot of the observed
///   prefix `[0, observe)` plus a running count of the responses landing
///   there. Bit-slot sensing only distinguishes busy from idle, so this
///   drops the `4·w`-byte count vector to `observe` bytes; a response is
///   one plain byte store, and the fill packs the flags into the frame's
///   [`Bitmap`] once when it ends. Responses in slots `>= observe` are
///   never sensed nor charged, so the sink drops them.
///
/// Either way, recording is commutative-associative integer/flag
/// accumulation, so chunking, thread count and the order in which a
/// column fill ([`ResponsePlan::fill_column`]) visits its key buckets
/// never change the result. A plan may therefore skip any tag whose slots all
/// lie at or past [`observe`](Self::observe): its responses would be
/// dropped anyway.
pub struct SlotSink<'a> {
    w: usize,
    observe: usize,
    mode: SinkMode<'a>,
}

enum SinkMode<'a> {
    Counts {
        counts: &'a mut [u32],
    },
    Busy {
        stage: &'a mut BusyStage,
    },
}

/// A bit-slot frame while it fills: one flag byte per observed slot and
/// the number of responses that landed in them.
///
/// The busy sink records a response with a plain store of 1 into the
/// slot's byte. A store depends on nothing before it, where setting a bit
/// in a shared `u64` is a read-modify-write that waits for the previous
/// response's write to the same word. [`packed`](Self::packed) packs the
/// flags into the frame's bitmap once, 64 slots per word.
struct BusyStage {
    flags: Vec<u8>,
    prefix_responses: u64,
}

impl BusyStage {
    fn new(observe: usize) -> Self {
        Self {
            // analysis:allow(hotpath-alloc-free): one flag buffer per frame and worker; the fill loop only stores into it
            flags: vec![0u8; observe],
            prefix_responses: 0,
        }
    }

    /// Add another worker's partial fill of the same frame.
    fn or_in(&mut self, other: &Self) {
        for (a, b) in self.flags.iter_mut().zip(&other.flags) {
            *a |= b;
        }
        self.prefix_responses += other.prefix_responses;
    }

    /// The finished frame: the flags packed into its busy bitmap.
    fn packed(&self) -> FrameFill {
        FrameFill {
            busy: Bitmap::from_flags(&self.flags),
            prefix_responses: self.prefix_responses,
        }
    }
}

impl<'a> SlotSink<'a> {
    /// A sink accumulating per-slot responder counts (`counts.len() = w`);
    /// it observes every slot.
    pub fn counts(counts: &'a mut [u32]) -> Self {
        Self {
            w: counts.len(),
            observe: counts.len(),
            mode: SinkMode::Counts { counts },
        }
    }

    /// A sink for a `w`-slot frame the reader observes up to
    /// `observe = stage.flags.len()`: it flags the busy slots of that
    /// prefix and counts the responses landing in it (the energy ledger
    /// charges exactly the transmissions the reader lets happen).
    fn busy(w: usize, stage: &'a mut BusyStage) -> Self {
        let observe = stage.flags.len();
        assert!(
            observe <= w,
            "cannot observe {observe} slots of a {w}-slot frame"
        );
        Self {
            w,
            observe,
            mode: SinkMode::Busy { stage },
        }
    }

    /// Number of leading slots whose responses this sink keeps: `w` for
    /// the counts sink, the observed prefix for the busy sink.
    #[inline]
    pub fn observe(&self) -> usize {
        self.observe
    }

    /// Record one tag response in `slot`. Panics if `slot >= w`.
    #[inline]
    pub fn record(&mut self, slot: usize) {
        self.record_n(slot, 1);
    }

    /// Record one tag response in slot `(rn ^ xor) & mask` for every `rn`
    /// of `rns`: what a column fill ([`ResponsePlan::fill_column`]) hands
    /// over for one key run. Equal to a [`record`](Self::record) per `rn`,
    /// with the range check and the sink-mode match paid once per run.
    /// Panics if `mask >= w`.
    #[inline]
    pub fn record_column_run(&mut self, rns: &[u16], xor: usize, mask: usize) {
        assert!(mask < self.w, "plan produced slot mask {mask} >= w {}", self.w);
        let slots = rns.iter().map(move |&rn| (usize::from(rn) ^ xor) & mask);
        match &mut self.mode {
            SinkMode::Counts { counts } => {
                for slot in slots {
                    // Every slot is at most `mask < w == counts.len()`.
                    if let Some(count) = counts.get_mut(slot) {
                        *count += 1;
                    }
                }
            }
            SinkMode::Busy { stage } => {
                let flags = stage.flags.as_mut_slice();
                let mut kept = 0u64;
                for slot in slots {
                    if let Some(flag) = flags.get_mut(slot) {
                        *flag = 1;
                        kept += 1;
                    }
                }
                stage.prefix_responses += kept;
            }
        }
    }

    /// Record one tag response in slot `(rn ^ xor) & (w − 1)` for every
    /// `rn` of the `count` keys of `column` starting at `first`: one key
    /// run of a column fill ([`ResponsePlan::fill_column`]). Reads only
    /// the `rn`s whose slots lie in the observed prefix
    /// ([`RnColumn::prefix_runs`], which may slot-order the buckets it
    /// reads), with one [`record_column_run`](Self::record_column_run) per
    /// slice. Panics unless the column was built for this sink's width.
    #[inline]
    pub fn record_column_keys(
        &mut self,
        column: &mut RnColumn,
        first: usize,
        count: usize,
        xor: usize,
    ) {
        assert!(
            column.width() == self.w,
            "the rn column was built for {}-slot frames, not {}",
            column.width(),
            self.w
        );
        let (observe, mask) = (self.observe, self.w - 1);
        column.prefix_runs(first, count, xor, observe, |rns| {
            self.record_column_run(rns, xor, mask);
        });
    }

    /// Record `n` tag responses in `slot` at once — what a kernel that
    /// tallies its responses per slot first hands over. `n = 0` records
    /// nothing (and sets no busy bit). Panics if `slot >= w`.
    #[inline]
    pub fn record_n(&mut self, slot: usize, n: u32) {
        assert!(slot < self.w, "plan produced slot {} >= w {}", slot, self.w);
        match &mut self.mode {
            // analysis:allow(panic-path): slot < w == counts.len() asserted at fn entry
            SinkMode::Counts { counts } => counts[slot] += n,
            SinkMode::Busy { stage } => {
                if let Some(flag) = stage.flags.get_mut(slot).filter(|_| n > 0) {
                    *flag = 1;
                    stage.prefix_responses += u64::from(n);
                }
            }
        }
    }
}

/// A pure description of which slots a tag transmits in during one frame.
///
/// Implementations must be deterministic (same tag → same slots) so that
/// parallel and sequential execution observe identical frames.
pub trait ResponsePlan: Sync {
    /// Append every slot index (in `[0, w)`) this tag responds in.
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>);

    /// Record every response of every tag in `tags` into `sink`.
    ///
    /// The default loops [`responses`](Self::responses) through a scratch
    /// buffer; plans on the hot path override it with a batched kernel that
    /// hoists hashing/dispatch out of the per-tag loop and records straight
    /// into the sink. Overrides must record exactly the same multiset of
    /// `(tag, slot)` responses as the scalar method in the slots below
    /// [`SlotSink::observe`]; responses past it are dropped by the sink, so
    /// an override may skip them — the equivalence properties hold every
    /// plan to bitwise-identical frames.
    fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
        let mut scratch = Vec::with_capacity(8);
        for tag in tags {
            scratch.clear();
            self.responses(tag, &mut scratch);
            for &slot in scratch.iter() {
                sink.record(slot);
            }
        }
    }

    /// Record frame `i` of a multi-frame pass into `sinks[i]`: every
    /// response of every tag in `tags` to `plans[i]`, for each `i`.
    ///
    /// The default runs [`fill_chunk`](Self::fill_chunk) once per plan.
    /// Plans whose frames each hash the tag ID override it to walk `tags`
    /// once and hash each ID once for all their frames; an override must
    /// record into each sink exactly what that plan's `fill_chunk` would.
    /// Callers pass as many sinks as plans.
    fn fill_frames(plans: &[Self], tags: &[Tag], sinks: &mut [SlotSink<'_>])
    where
        Self: Sized,
    {
        for (plan, sink) in plans.iter().zip(sinks) {
            plan.fill_chunk(tags, sink);
        }
    }

    /// The frame width `w` if the plan reads nothing of a tag but its `rn`
    /// and can fill a `w`-slot frame (`w` a power of two up to
    /// `RnColumn::MAX_WIDTH`) from the population's [`RnColumn`] through
    /// [`fill_column`](Self::fill_column) instead of the `Tag` slice. The
    /// default, `None`, keeps the plan on the slice.
    fn rn_column_width(&self) -> Option<usize> {
        None
    }

    /// Record every response of the population bucketed in `column` into
    /// `sink`: the same multiset as [`fill_chunk`](Self::fill_chunk) over
    /// the whole population in the slots below [`SlotSink::observe`],
    /// visiting whichever key buckets and slot ranges respond there (see
    /// [`RnColumn::prefix_runs`]). The column is mutable because a read
    /// may slot-order a bucket in place. Only called through
    /// [`response_fill_column`], which requires
    /// [`rn_column_width`](Self::rn_column_width) and the column's width
    /// to be the frame's; the default, for plans that declare none,
    /// records nothing.
    fn fill_column(&self, _column: &mut RnColumn, _sink: &mut SlotSink<'_>) {}
}

/// Adapter pinning a plan to its scalar `responses()` path.
///
/// Delegates [`responses`](ResponsePlan::responses) and deliberately does
/// *not* delegate [`fill_chunk`](ResponsePlan::fill_chunk) or the column
/// hooks, so the wrapped plan's batched override and `rn`-column fill are
/// masked and the default scratch-buffer loop runs instead. This is how
/// [`FillDispatch::Scalar`] runs the reference path, and how
/// `tests/kernel_checksums.rs` pins both sides of a plan from one
/// implementation.
pub struct ScalarRef<'a, P: ResponsePlan + ?Sized>(pub &'a P);

impl<P: ResponsePlan + ?Sized> ResponsePlan for ScalarRef<'_, P> {
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        self.0.responses(tag, out)
    }
}

impl<F> ResponsePlan for F
where
    F: Fn(&Tag, &mut Vec<usize>) + Sync,
{
    fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
        self(tag, out)
    }
}

/// True per-slot responder counts for a frame of `w` slots.
///
/// Deterministic regardless of thread count: each tag's contribution is a
/// pure function of the tag, and counts merge by addition.
pub fn response_counts<P: ResponsePlan>(tags: &[Tag], w: usize, plan: &P) -> Vec<u32> {
    response_counts_with_min_chunk(tags, w, plan, MIN_TAGS_PER_THREAD)
}

/// [`response_counts`] with an explicit parallel-split threshold.
///
/// Pass `usize::MAX` to force single-threaded execution — handy when the
/// caller is already running inside its own thread pool; `benchmark/`
/// pins worker counts through [`response_fill_with_threads`] instead.
pub fn response_counts_with_min_chunk<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    plan: &P,
    min_chunk: usize,
) -> Vec<u32> {
    response_counts_with_threads(tags, w, plan, thread_count(tags.len(), min_chunk))
}

/// [`response_counts`] with an explicit worker count, treated as an upper
/// bound: it is clamped like [`par_fold_chunks_with_threads`] *and* floored
/// to [`FILL_TAGS_PER_WORKER_FLOOR`] tags per worker, so pinning a large
/// count on a small frame cannot thrash.
pub fn response_counts_with_threads<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    plan: &P,
    threads: usize,
) -> Vec<u32> {
    assert!(w > 0, "frame must have at least one slot");
    let threads = floored_threads(tags.len(), threads);
    par_fold_chunks_with_threads(
        tags,
        threads,
        || vec![0u32; w],
        |counts, chunk| plan.fill_chunk(chunk, &mut SlotSink::counts(counts)),
        |counts, other| {
            for (a, b) in counts.iter_mut().zip(other) {
                *a += b;
            }
        },
    )
}

/// Reference scalar implementation of [`response_counts_with_min_chunk`]:
/// the pre-kernel per-tag/per-slot path, retained verbatim.
///
/// The equivalence properties and `tests/kernel_checksums.rs` hold the
/// batched kernels to bitwise-identical output against this baseline; it is
/// not used by any production code path.
pub fn response_counts_reference<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    plan: &P,
    min_chunk: usize,
) -> Vec<u32> {
    response_counts_reference_with_threads(tags, w, plan, thread_count(tags.len(), min_chunk))
}

/// [`response_counts_reference`] with an explicit worker count —
/// `tests/kernel_checksums.rs` pins thread counts on both sides of the
/// scalar/batched comparison. The count is an upper bound, floored to
/// [`FILL_TAGS_PER_WORKER_FLOOR`] tags per worker like every explicit-count
/// fill entry point.
pub fn response_counts_reference_with_threads<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    plan: &P,
    threads: usize,
) -> Vec<u32> {
    assert!(w > 0, "frame must have at least one slot");
    let threads = floored_threads(tags.len(), threads);
    let (counts, _scratch) = par_fold_with_threads(
        tags,
        threads,
        || (vec![0u32; w], Vec::with_capacity(8)),
        |(counts, scratch), tag| {
            scratch.clear();
            plan.responses(tag, scratch);
            for &slot in scratch.iter() {
                // analysis:allow(panic-path): mirrors SlotSink::record's documented panic on a broken plan; the test suite pins this message
                assert!(slot < w, "plan produced slot {slot} >= w {w}");
                // analysis:allow(panic-path): slot < w == counts.len() asserted on the previous line
                counts[slot] += 1;
            }
        },
        |(counts, _), (other, _)| {
            for (a, b) in counts.iter_mut().zip(other) {
                *a += b;
            }
        },
    );
    counts
}

/// The ground truth of one bit-slot frame fill over the observed prefix
/// `[0, observe)`, before channel sensing: which of those slots have at
/// least one responder, and how many responses landed in them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameFill {
    /// Busy truth per observed slot: `observe` bits long, bit `i` set ⇔ at
    /// least one tag transmitted in slot `i`. Slots past the prefix are
    /// never sensed, so they are not represented.
    pub busy: Bitmap,
    /// Number of tag transmissions in slots `[0, observe)` — what the
    /// energy ledger charges for a frame the reader terminates after
    /// `observe` slots.
    pub prefix_responses: u64,
}

/// Fill a `w`-slot bit-slot frame the reader stops after `observe` slots:
/// busy/idle truth and the response count over the prefix `[0, observe)`.
///
/// This is the batched replacement for "counts then threshold": bit-slot
/// sensing only distinguishes busy from idle, so each worker accumulates
/// `observe` busy flags instead of a `w`-entry `u32` vector, per-thread
/// partials merge by OR, and the merged flags pack into the bitmap. Bitwise
/// identical to deriving the same quantities from
/// [`response_counts_reference`] at any thread count.
pub fn response_fill<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    observe: usize,
    plan: &P,
) -> FrameFill {
    response_fill_with_min_chunk(tags, w, observe, plan, MIN_TAGS_PER_THREAD)
}

/// [`response_fill`] with an explicit parallel-split threshold (see
/// [`response_counts_with_min_chunk`]).
pub fn response_fill_with_min_chunk<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    observe: usize,
    plan: &P,
    min_chunk: usize,
) -> FrameFill {
    response_fill_with_threads(tags, w, observe, plan, thread_count(tags.len(), min_chunk))
}

/// [`response_fill`] with an explicit worker count, treated as an upper
/// bound (clamped like [`par_fold_chunks_with_threads`] and floored to
/// [`FILL_TAGS_PER_WORKER_FLOOR`] tags per worker).
pub fn response_fill_with_threads<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    observe: usize,
    plan: &P,
    threads: usize,
) -> FrameFill {
    assert!(w > 0, "frame must have at least one slot");
    assert!(observe <= w, "cannot observe {observe} slots of a {w}-slot frame");
    let threads = floored_threads(tags.len(), threads);
    par_fold_chunks_with_threads(
        tags,
        threads,
        || BusyStage::new(observe),
        |stage, chunk| plan.fill_chunk(chunk, &mut SlotSink::busy(w, stage)),
        |stage, other| stage.or_in(&other),
    )
    .packed()
}

/// Fill several bit-slot frames in one pass over `tags`: frame `i` runs
/// `plans[i]` over `frames[i] = (w, observe)`, a `w`-slot frame the reader
/// stops after `observe` slots.
///
/// Frame by frame bitwise identical to [`response_fill_with_threads`] per
/// plan: each worker folds its chunk through the plans' multi-frame kernel
/// ([`ResponsePlan::fill_frames`]) into one busy sink per frame, and the
/// per-frame partials merge as in the one-frame fill. Workers are counted
/// and floored as there.
pub fn response_fills_with_threads<P: ResponsePlan>(
    tags: &[Tag],
    frames: &[(usize, usize)],
    plans: &[P],
    threads: usize,
) -> Vec<FrameFill> {
    assert_eq!(frames.len(), plans.len(), "one (w, observe) shape per plan");
    assert!(
        frames.iter().all(|&(w, _)| w > 0),
        "frame must have at least one slot"
    );
    assert!(
        frames.iter().all(|&(w, observe)| observe <= w),
        "cannot observe more slots than a frame has"
    );
    if plans.is_empty() {
        return Vec::new();
    }
    let threads = floored_threads(tags.len(), threads);
    let stages = par_fold_chunks_with_threads(
        tags,
        threads,
        || {
            frames
                .iter()
                .map(|&(_, observe)| BusyStage::new(observe))
                .collect::<Vec<_>>()
        },
        |acc, chunk| {
            let mut sinks: Vec<SlotSink<'_>> = acc
                .iter_mut()
                .zip(frames)
                .map(|(stage, &(w, _))| SlotSink::busy(w, stage))
                .collect();
            P::fill_frames(plans, chunk, &mut sinks);
        },
        |acc, other| {
            for (stage, other) in acc.iter_mut().zip(&other) {
                stage.or_in(other);
            }
        },
    );
    stages.iter().map(BusyStage::packed).collect()
}

/// Fill a `w`-slot bit-slot frame the reader stops after `observe` slots
/// from the population's [`RnColumn`], on the calling thread: the plan's
/// [`fill_column`](ResponsePlan::fill_column) kernel visits only the key
/// buckets whose tags respond.
///
/// Bitwise identical to [`response_fill`] over the tags the column was
/// built from, since sink accumulation is order-free; the fill may
/// slot-order buckets of the column, which changes no later fill. Panics
/// unless the plan declares the frame's width
/// ([`rn_column_width`](ResponsePlan::rn_column_width)), the column was
/// built for it, and `observe <= w`.
pub fn response_fill_column<P: ResponsePlan>(
    column: &mut RnColumn,
    w: usize,
    observe: usize,
    plan: &P,
) -> FrameFill {
    assert!(
        plan.rn_column_width() == Some(w) && w <= RnColumn::MAX_WIDTH,
        "the plan does not fill {w}-slot frames from an rn column"
    );
    assert!(
        column.width() == w,
        "the rn column was built for {}-slot frames, not {w}",
        column.width()
    );
    assert!(observe <= w, "cannot observe {observe} slots of a {w}-slot frame");
    let mut stage = BusyStage::new(observe);
    plan.fill_column(column, &mut SlotSink::busy(w, &mut stage));
    stage.packed()
}

/// Dispatch-aware [`response_fill_with_min_chunk`]: run the plan's batched
/// `fill_chunk` kernel or its scalar `responses()` path according to
/// `dispatch` (see [`FillDispatch`]).
///
/// The two paths are bitwise-equivalent by the plan contract, so the
/// returned fill is identical either way; only the wall-clock differs.
pub fn response_fill_dispatched<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    observe: usize,
    plan: &P,
    dispatch: FillDispatch,
    min_chunk: usize,
) -> FrameFill {
    match dispatch {
        FillDispatch::Batched => response_fill_with_min_chunk(tags, w, observe, plan, min_chunk),
        FillDispatch::Scalar => {
            response_fill_with_min_chunk(tags, w, observe, &ScalarRef(plan), min_chunk)
        }
    }
}

/// Dispatch-aware [`response_counts_with_min_chunk`] (the Aloha-side twin
/// of [`response_fill_dispatched`]).
pub fn response_counts_dispatched<P: ResponsePlan>(
    tags: &[Tag],
    w: usize,
    plan: &P,
    dispatch: FillDispatch,
    min_chunk: usize,
) -> Vec<u32> {
    match dispatch {
        FillDispatch::Batched => response_counts_with_min_chunk(tags, w, plan, min_chunk),
        FillDispatch::Scalar => {
            response_counts_with_min_chunk(tags, w, &ScalarRef(plan), min_chunk)
        }
    }
}

/// The reader's observation of a bit-slot frame.
///
/// Follows the paper's B-vector convention: conceptually `B(i) = 1` for an
/// **idle** slot and `0` for a busy slot (Theorem 1). We store the busy
/// bitmap and expose both counts; `rho` — "the ratio of 1s in B" — is the
/// *idle* fraction.
#[derive(Debug, Clone)]
pub struct BitFrame {
    busy: Bitmap,
}

impl BitFrame {
    /// Sense the first `observe` slots of a frame with true responder
    /// counts `counts` through `channel`. The reader may terminate a frame
    /// early (the BFCE rough phase observes 1024 of 8192 slots), in which
    /// case only the observed prefix exists from its point of view.
    pub fn sense(
        counts: &[u32],
        observe: usize,
        channel: &dyn Channel,
        noise: &mut SplitMix64,
    ) -> Self {
        assert!(
            observe <= counts.len(),
            "cannot observe {observe} slots of a {}-slot frame",
            counts.len()
        );
        // A bit-slot reads its responders only as busy/idle (the
        // `Channel::sense_bitslot` contract), so the thresholded prefix is
        // all the channel needs.
        let mut truth = Bitmap::zeros(observe);
        truth.set_in_range(
            counts
                .iter()
                .take(observe)
                .enumerate()
                .filter(|&(_, &responders)| responders > 0)
                .map(|(i, _)| i),
        );
        Self::sense_truth(&truth, observe, channel, noise)
    }

    /// Sense the first `observe` slots from a busy-truth bitmap (the
    /// [`FrameFill`] output) instead of per-slot counts, through
    /// [`Channel::sense_bitslots`].
    ///
    /// Bitwise identical to [`sense`](Self::sense) on the counts the bitmap
    /// was derived from, and noisy channels consume the same
    /// one-draw-per-slot noise stream.
    pub fn sense_truth(
        truth: &Bitmap,
        observe: usize,
        channel: &dyn Channel,
        noise: &mut SplitMix64,
    ) -> Self {
        assert!(
            observe <= truth.len(),
            "cannot observe {observe} slots of a {}-slot frame",
            truth.len()
        );
        Self {
            busy: channel.sense_bitslots(truth, observe, noise),
        }
    }

    /// Number of observed slots.
    pub fn observed(&self) -> usize {
        self.busy.len()
    }

    /// Busy (paper: `B(i) = 0`) slot count.
    pub fn busy_count(&self) -> usize {
        self.busy.count_ones()
    }

    /// Idle (paper: `B(i) = 1`) slot count.
    pub fn idle_count(&self) -> usize {
        self.observed() - self.busy_count()
    }

    /// The paper's `rho`: the ratio of 1s in B = fraction of idle slots.
    pub fn rho(&self) -> f64 {
        assert!(self.observed() > 0, "rho of an empty observation");
        self.idle_count() as f64 / self.observed() as f64
    }

    /// Whether slot `i` was busy.
    pub fn is_busy(&self, i: usize) -> bool {
        self.busy.get(i)
    }

    /// The underlying busy bitmap.
    pub fn busy_bitmap(&self) -> &Bitmap {
        &self.busy
    }
}

/// Sense a whole frame as slotted Aloha (for the UPE/EZB/FNEB generation).
pub fn sense_aloha(
    counts: &[u32],
    channel: &dyn Channel,
    noise: &mut SplitMix64,
) -> AlohaFrame {
    let outcomes: Vec<AlohaOutcome> = counts
        .iter()
        .map(|&responders| channel.sense_aloha(responders, noise))
        .collect();
    AlohaFrame::new(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::PerfectChannel;

    fn tags(n: usize) -> Vec<Tag> {
        (0..n as u64)
            .map(|i| Tag {
                id: i + 1,
                rn: (i as u32).wrapping_mul(0x9E37_79B9),
            })
            .collect()
    }

    #[test]
    fn counts_accumulate_per_slot() {
        let tags = tags(10);
        // Every tag responds in slot (id % 4).
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push((tag.id % 4) as usize);
        };
        let counts = response_counts(&tags, 4, &plan);
        assert_eq!(counts.iter().sum::<u32>(), 10);
        // IDs 1..=10: id%4 -> 1,2,3,0,1,2,3,0,1,2 => [2,3,3,2]
        assert_eq!(counts, vec![2, 3, 3, 2]);
    }

    #[test]
    fn multi_slot_plans_count_each_response() {
        let tags = tags(5);
        let plan = |_tag: &Tag, out: &mut Vec<usize>| {
            out.push(0);
            out.push(2);
        };
        let counts = response_counts(&tags, 3, &plan);
        assert_eq!(counts, vec![5, 0, 5]);
    }

    #[test]
    fn silent_tags_contribute_nothing() {
        let tags = tags(7);
        let plan = |_tag: &Tag, _out: &mut Vec<usize>| {};
        let counts = response_counts(&tags, 16, &plan);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Enough tags to trigger the parallel path.
        let tags = tags(MIN_TAGS_PER_THREAD * 4);
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push((tag.id % 1024) as usize);
            if tag.id.is_multiple_of(3) {
                out.push(((tag.id / 3) % 1024) as usize);
            }
        };
        let par = response_counts(&tags, 1024, &plan);
        // Sequential reference.
        let mut seq = vec![0u32; 1024];
        let mut scratch = Vec::new();
        for tag in &tags {
            scratch.clear();
            plan(tag, &mut scratch);
            for &s in &scratch {
                seq[s] += 1;
            }
        }
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "slot 5 >= w 4")]
    fn out_of_range_slot_panics() {
        let tags = tags(1);
        let plan = |_tag: &Tag, out: &mut Vec<usize>| out.push(5);
        response_counts(&tags, 4, &plan);
    }

    #[test]
    fn bitframe_senses_prefix_only() {
        let counts = vec![0u32, 1, 0, 2, 0, 3];
        let mut noise = SplitMix64::new(1);
        let frame = BitFrame::sense(&counts, 4, &PerfectChannel, &mut noise);
        assert_eq!(frame.observed(), 4);
        assert_eq!(frame.busy_count(), 2);
        assert_eq!(frame.idle_count(), 2);
        assert!((frame.rho() - 0.5).abs() < 1e-15);
        assert!(!frame.is_busy(0));
        assert!(frame.is_busy(1));
        assert!(!frame.is_busy(2));
        assert!(frame.is_busy(3));
    }

    #[test]
    fn rho_is_idle_fraction_matching_paper_convention() {
        // All slots busy -> rho = 0 (all B(i) = 0); all idle -> rho = 1.
        let mut noise = SplitMix64::new(2);
        let all_busy = BitFrame::sense(&[1, 1, 1], 3, &PerfectChannel, &mut noise);
        assert_eq!(all_busy.rho(), 0.0);
        let all_idle = BitFrame::sense(&[0, 0, 0], 3, &PerfectChannel, &mut noise);
        assert_eq!(all_idle.rho(), 1.0);
    }

    #[test]
    fn aloha_sensing_classifies() {
        let mut noise = SplitMix64::new(3);
        let frame = sense_aloha(&[0, 1, 2, 9], &PerfectChannel, &mut noise);
        assert_eq!(frame.empties(), 1);
        assert_eq!(frame.singletons(), 1);
        assert_eq!(frame.collisions(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot observe")]
    fn observing_beyond_frame_panics() {
        let mut noise = SplitMix64::new(4);
        BitFrame::sense(&[0, 0], 3, &PerfectChannel, &mut noise);
    }

    #[test]
    fn fill_matches_reference_counts() {
        let tags = tags(500);
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push((tag.rn % 300) as usize);
            if tag.id.is_multiple_of(2) {
                out.push((tag.id % 300) as usize);
            }
        };
        let w = 300usize;
        let counts = response_counts_reference(&tags, w, &plan, usize::MAX);
        for observe in [0usize, 100, w] {
            for threads in [1usize, 2, 4, 7] {
                let fill = response_fill_with_threads(&tags, w, observe, &plan, threads);
                // The fill is the truth of the observed prefix only.
                assert_eq!(fill.busy.len(), observe);
                for (i, &c) in counts.iter().enumerate() {
                    let bit = i < observe && fill.busy.get(i);
                    assert_eq!(
                        bit,
                        i < observe && c > 0,
                        "slot {i}, observe {observe}, threads {threads}"
                    );
                }
                let want_prefix: u64 = counts[..observe].iter().map(|&c| c as u64).sum();
                assert_eq!(
                    fill.prefix_responses, want_prefix,
                    "observe {observe}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn sense_truth_equals_sense_on_counts() {
        let counts = vec![0u32, 1, 0, 2, 5, 0, 0, 3];
        let mut truth = Bitmap::zeros(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                truth.set(i);
            }
        }
        for observe in [1usize, 4, 8] {
            // Perfect channel: trivially equal.
            let mut n1 = SplitMix64::new(77);
            let mut n2 = SplitMix64::new(77);
            let a = BitFrame::sense(&counts, observe, &PerfectChannel, &mut n1);
            let b = BitFrame::sense_truth(&truth, observe, &PerfectChannel, &mut n2);
            assert_eq!(a.busy_bitmap(), b.busy_bitmap(), "perfect, observe {observe}");
            // Noisy channel: equality requires consuming the identical
            // one-draw-per-slot noise stream.
            let noisy = crate::channel::BitErrorChannel::new(0.3);
            let mut n1 = SplitMix64::new(78);
            let mut n2 = SplitMix64::new(78);
            let a = BitFrame::sense(&counts, observe, &noisy, &mut n1);
            let b = BitFrame::sense_truth(&truth, observe, &noisy, &mut n2);
            assert_eq!(a.busy_bitmap(), b.busy_bitmap(), "noisy, observe {observe}");
            // Streams must be in the same state afterwards.
            assert_eq!(n1.next_u64(), n2.next_u64(), "observe {observe}");
        }
    }

    #[test]
    fn counts_path_equals_reference_at_any_thread_count() {
        let tags = tags(1_000);
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push((tag.rn % 97) as usize);
        };
        let want = response_counts_reference(&tags, 97, &plan, usize::MAX);
        for threads in [1usize, 2, 4, 9] {
            assert_eq!(response_counts_with_threads(&tags, 97, &plan, threads), want);
        }
    }

    #[test]
    #[should_panic(expected = "slot 7 >= w 4")]
    fn fill_rejects_out_of_range_slots() {
        let tags = tags(1);
        let plan = |_tag: &Tag, out: &mut Vec<usize>| out.push(7);
        response_fill(&tags, 4, 4, &plan);
    }

    #[test]
    #[should_panic(expected = "cannot observe 5 slots of a 4-slot frame")]
    fn fill_rejects_observe_beyond_width() {
        let plan = |_t: &Tag, _o: &mut Vec<usize>| {};
        response_fill(&tags(1), 4, 5, &plan);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_width_frame_rejected() {
        let plan = |_t: &Tag, _o: &mut Vec<usize>| {};
        response_counts(&tags(1), 0, &plan);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        // Counts sink: a tally of n is n responses; a tally of 0 is none.
        let mut tallied = vec![0u32; 4];
        let mut sink = SlotSink::counts(&mut tallied);
        sink.record_n(1, 3);
        sink.record_n(2, 0);
        let mut single = vec![0u32; 4];
        let mut sink = SlotSink::counts(&mut single);
        for _ in 0..3 {
            sink.record(1);
        }
        assert_eq!(tallied, single);
        // Busy sink observing 2 of 4 slots: only a nonzero tally inside
        // the prefix sets a bit and is charged.
        let mut stage = BusyStage::new(2);
        let mut sink = SlotSink::busy(4, &mut stage);
        sink.record_n(0, 0);
        sink.record_n(1, 5);
        sink.record_n(3, 7);
        let fill = stage.packed();
        assert!(!fill.busy.get(0) && fill.busy.get(1));
        assert_eq!(fill.prefix_responses, 5);
    }

    #[test]
    fn record_column_run_equals_per_response_records() {
        let mut draw = SplitMix64::new(5);
        for w in [1usize, 2, 64, 8192, 65536] {
            let mask = w - 1;
            // A seeded run with duplicates: every third `rn` repeats the
            // one at half its index.
            let mut rns: Vec<u16> = Vec::new();
            for i in 0..3_000usize {
                let rn = match rns.get(i / 2) {
                    Some(&earlier) if i % 3 == 0 => earlier,
                    _ => draw.next_u64() as u16,
                };
                rns.push(rn);
            }
            // `xor` values with bits above `mask`, which the mask drops.
            let xors = [0usize, draw.next_u64() as usize, usize::MAX, (1 << 20) | mask];
            for xor in xors {
                let slots = || rns.iter().map(|&rn| (usize::from(rn) ^ xor) & mask);
                let mut bulk = vec![0u32; w];
                SlotSink::counts(&mut bulk).record_column_run(&rns, xor, mask);
                let mut single = vec![0u32; w];
                let mut sink = SlotSink::counts(&mut single);
                slots().for_each(|slot| sink.record(slot));
                assert_eq!(bulk, single, "counts, w {w}, xor {xor:#x}");
                for observe in [0usize, 1, 63, 64, 65, w / 8, w] {
                    if observe > w {
                        continue;
                    }
                    let mut bulk = BusyStage::new(observe);
                    SlotSink::busy(w, &mut bulk).record_column_run(&rns, xor, mask);
                    let mut single = BusyStage::new(observe);
                    let mut sink = SlotSink::busy(w, &mut single);
                    slots().for_each(|slot| sink.record(slot));
                    let at = format!("busy, w {w}, observe {observe}, xor {xor:#x}");
                    // Bitmap equality compares every word, tail included.
                    assert_eq!(bulk.packed(), single.packed(), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slot mask 4 >= w 4")]
    fn record_column_run_rejects_a_mask_past_the_frame() {
        SlotSink::busy(4, &mut BusyStage::new(4)).record_column_run(&[1, 2], 0, 4);
    }

    #[test]
    #[should_panic(expected = "slot 4 >= w 4")]
    fn record_n_rejects_out_of_range_slots() {
        let mut counts = vec![0u32; 4];
        SlotSink::counts(&mut counts).record_n(4, 0);
    }

    /// A plan whose batched override is deliberately *wrong* (it shifts
    /// every slot by one), so tests can observe which path actually ran.
    struct MarkedPlan;

    impl ResponsePlan for MarkedPlan {
        fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
            out.push((tag.id % 8) as usize);
        }

        fn fill_chunk(&self, tags: &[Tag], sink: &mut SlotSink<'_>) {
            for tag in tags {
                sink.record((tag.id % 8) as usize + 8);
            }
        }
    }

    #[test]
    fn scalar_ref_masks_the_batched_override() {
        let tags = tags(10);
        let via_override = response_fill(&tags, 16, 16, &MarkedPlan);
        let via_scalar = response_fill(&tags, 16, 16, &ScalarRef(&MarkedPlan));
        // The override marked its slots; the wrapper must not have.
        assert!((8..16).any(|i| via_override.busy.get(i)));
        assert!(!(8..16).any(|i| via_scalar.busy.get(i)));
        assert!((0..8).any(|i| via_scalar.busy.get(i)));
    }

    #[test]
    fn dispatch_selects_the_kernel_by_mode() {
        let tags = tags(50);
        let marked = |fill: &FrameFill| (8..16).any(|i| fill.busy.get(i));
        let fill = |mode| response_fill_dispatched(&tags, 16, 16, &MarkedPlan, mode, usize::MAX);
        assert!(marked(&fill(FillDispatch::Batched)));
        assert!(!marked(&fill(FillDispatch::Scalar)));
        // The counts twin follows the same selection.
        let counts = |mode| response_counts_dispatched(&tags, 16, &MarkedPlan, mode, usize::MAX);
        assert!(counts(FillDispatch::Batched)[8..].iter().any(|&c| c > 0));
        assert!(counts(FillDispatch::Scalar)[8..].iter().all(|&c| c == 0));
    }

    #[test]
    fn explicit_worker_counts_are_floored_for_small_frames() {
        // 1 000 tags at 4 requested workers clamps to 1 (the satellite-1
        // tail-latency fix); the observation is identical regardless.
        assert_eq!(floored_threads(1_000, 4), 1);
        assert_eq!(floored_threads(FILL_TAGS_PER_WORKER_FLOOR * 4, 4), 4);
        assert_eq!(floored_threads(FILL_TAGS_PER_WORKER_FLOOR * 2, 4), 2);
        assert_eq!(floored_threads(0, 4), 1);
        let tags = tags(1_000);
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.rn % 64) as usize);
        let one = response_fill_with_threads(&tags, 64, 64, &plan, 1);
        let four = response_fill_with_threads(&tags, 64, 64, &plan, 4);
        assert_eq!(one, four);
    }
}
