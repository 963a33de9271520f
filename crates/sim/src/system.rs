//! The [`RfidSystem`] façade: one logical reader, a tag population, a
//! channel, and the air-time ledger.
//!
//! Estimators interact with the system exclusively through this type, so
//! every reader broadcast, turnaround, and sensed slot is charged to the
//! ledger — the execution-time comparison of Figure 10 is produced by the
//! same code path as the estimates themselves.
//!
//! The system is also where the fault layer lives: arming a
//! [`FaultPlan`] via [`inject_faults`](RfidSystem::inject_faults) makes
//! every frame pass through the degradation-aware collector — scheduled
//! aborts are retried with linear backoff and salvaged when the retry
//! budget runs out, reader dropout switches (mid-frame) to the surviving
//! coverage, desync offsets rotate the observation, and slot bursts
//! garble it — while a [`Quality`] record counts every slot lost so no
//! estimate degrades silently.

use crate::aloha::AlohaFrame;
use crate::bitmap::Bitmap;
use crate::channel::{Channel, PerfectChannel};
use crate::column::RnColumn;
use crate::dispatch::FillDispatch;
use crate::fault::{self, FaultPlan, FrameFaults, Quality};
use crate::frame::{
    response_counts_dispatched, response_fill_column, response_fill_dispatched,
    response_fills_with_threads, sense_aloha, BitFrame, FrameFill, ResponsePlan,
    MIN_TAGS_PER_THREAD,
};
use crate::ledger::{AirTime, AirTimeLedger};
use crate::parallel::thread_count;
use crate::tag::TagPopulation;
use crate::timing::Timing;
use rfid_hash::SplitMix64;

/// Bits in the fresh Query command a retry re-broadcasts after an abort.
const RETRY_QUERY_BITS: u64 = 32;

/// One logical reader plus the tag population in its range.
pub struct RfidSystem {
    population: TagPopulation,
    channel: Box<dyn Channel>,
    ledger: AirTimeLedger,
    noise: SplitMix64,
    frame_min_chunk: usize,
    dispatch: FillDispatch,
    faults: Option<FaultPlan>,
    frame_index: u64,
    quality: Quality,
    /// The population's `rn` column for the width of the last frame that
    /// used it (see [`bitslot_truth`](Self::bitslot_truth)).
    column: Option<RnColumn>,
}

impl RfidSystem {
    /// A system with the paper's defaults: perfect channel, C1G2 timing.
    pub fn new(population: TagPopulation) -> Self {
        Self::with_channel(population, Box::new(PerfectChannel))
    }

    /// A system with a custom channel model.
    pub fn with_channel(population: TagPopulation, channel: Box<dyn Channel>) -> Self {
        let quality = Quality {
            noisy_channel: channel.name() != "perfect",
            ..Quality::default()
        };
        Self {
            population,
            channel,
            ledger: AirTimeLedger::new(Timing::c1g2()),
            // analysis:allow(seed-provenance): documented process-constant default noise seed; every harness that models noise overrides it via set_noise_seed
            noise: SplitMix64::new(0xC0FF_EE00_D15E_A5E5),
            frame_min_chunk: MIN_TAGS_PER_THREAD,
            dispatch: FillDispatch::default(),
            faults: None,
            frame_index: 0,
            quality,
            column: None,
        }
    }

    /// Arm a deterministic fault schedule. Every subsequent frame passes
    /// through the degradation-aware collector; the schedule is a pure
    /// function of the plan's seed and the per-system frame counter (reset
    /// here), so a faulted run replays bitwise from `(plan, noise seed)`
    /// at any worker count.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
        self.frame_index = 0;
        self.quality = Quality {
            noisy_channel: self.quality.noisy_channel,
            ..Quality::default()
        };
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Degradation accounting for the frames run so far. Always present —
    /// a clean run reports zero damage — so harnesses can check
    /// [`Quality::degraded`] unconditionally.
    pub fn quality(&self) -> &Quality {
        &self.quality
    }

    /// Set the minimum tags-per-thread threshold for the intra-frame
    /// fork/join split (see [`response_counts_with_min_chunk`]).
    ///
    /// `usize::MAX` forces every frame fill single-threaded. The trial
    /// engine in `rfid-experiments` does exactly that inside its worker
    /// pool so trial-level and frame-level parallelism never multiply into
    /// oversubscription. Frame fills are exact integer aggregation, so the
    /// observation is bitwise identical at any setting.
    pub fn set_frame_min_chunk(&mut self, min_chunk: usize) {
        self.frame_min_chunk = min_chunk;
    }

    /// The intra-frame parallel-split threshold in force.
    pub fn frame_min_chunk(&self) -> usize {
        self.frame_min_chunk
    }

    /// Choose which frame-fill kernel runs for plans that carry a batched
    /// `fill_chunk` override (see [`FillDispatch`]).
    ///
    /// The default, [`FillDispatch::Batched`], runs the batched kernel (or
    /// the `rn` column) at every population size; [`FillDispatch::Scalar`]
    /// runs the scalar reference path. Both kernels are held
    /// bitwise-equivalent by the property suite, so this setting never
    /// changes an observation — only how fast it is computed.
    pub fn set_fill_dispatch(&mut self, dispatch: FillDispatch) {
        self.dispatch = dispatch;
    }

    /// The kernel-dispatch policy in force.
    pub fn fill_dispatch(&self) -> FillDispatch {
        self.dispatch
    }

    /// Replace the timing model (resets the ledger).
    pub fn set_timing(&mut self, timing: Timing) {
        self.ledger = AirTimeLedger::new(timing);
    }

    /// Re-seed the channel-noise stream (only matters for noisy channels).
    pub fn set_noise_seed(&mut self, seed: u64) {
        self.noise = SplitMix64::new(seed);
    }

    /// Ground-truth cardinality (used by the evaluation harness only; no
    /// estimator reads this). Always the *initial* population — after a
    /// reader dropout the estimate undercounts relative to this truth,
    /// which is exactly the damage [`Quality`] flags.
    pub fn true_cardinality(&self) -> usize {
        self.population.cardinality()
    }

    /// The tag population (the initial deployment; reader dropout only
    /// affects which tags respond in frames, not this view).
    pub fn population(&self) -> &TagPopulation {
        &self.population
    }

    /// Cumulative air time so far.
    pub fn air_time(&self) -> AirTime {
        self.ledger.snapshot()
    }

    /// The timing model in force.
    pub fn timing(&self) -> Timing {
        *self.ledger.timing()
    }

    /// Zero the ledger (e.g. between independent estimation runs on the
    /// same population).
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
    }

    /// Start recording an event-level protocol trace (see
    /// [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.ledger.enable_trace();
    }

    /// The recorded protocol trace, if tracing is enabled.
    pub fn protocol_trace(&self) -> Option<&[crate::trace::TraceEvent]> {
        self.ledger.trace()
    }

    /// Reader action: broadcast a `bits`-bit command/parameter message.
    /// Charges the transmission plus the trailing turnaround.
    pub fn broadcast(&mut self, bits: u64) {
        self.ledger.reader_broadcast(bits);
    }

    /// Reader action: an extra waiting interval (e.g. between phases).
    pub fn turnaround(&mut self) {
        self.ledger.turnaround();
    }

    /// Advance the per-system frame counter and record the observation in
    /// the quality ledger. Returns the index of the frame that is about to
    /// run — the key the fault schedule is evaluated at.
    fn begin_frame(&mut self, observe: usize) -> u64 {
        let frame = self.frame_index;
        self.frame_index += 1;
        self.quality.frames += 1;
        self.quality.slots_observed += observe as u64;
        frame
    }

    /// The faults scheduled for `frame`, if a plan is armed.
    fn faults_for(&self, frame: u64, observe: usize) -> Option<FrameFaults> {
        self.faults.as_ref().map(|p| p.frame_faults(frame, observe))
    }

    /// Split a fault schedule into the attempts whose observations are
    /// discarded outright and the salvage point of the kept partial (when
    /// every attempt aborted).
    fn split_salvage(ff: &FrameFaults) -> (&[usize], Option<usize>) {
        if ff.salvaged {
            if let Some((&last, rest)) = ff.abort_points.split_last() {
                return (rest, Some(last));
            }
        }
        (&ff.abort_points, None)
    }

    /// True busy/idle fill for a bit-slot frame, honouring a scheduled
    /// reader dropout: frames before the drop use the full population,
    /// frames after it the survivors, and the drop frame itself splices
    /// the two at the scheduled slot.
    ///
    /// Where the dispatch picks the batched kernel for the full population
    /// and the plan's [`ResponsePlan::rn_column_width`] is `w`, the frame
    /// is filled from the population's [`RnColumn`] instead, built on
    /// first use. The column's sub-buckets are cut for one width, so a
    /// frame of another width rebuilds it; the population never changes,
    /// so nothing else invalidates it. Prefix frames slot-order the
    /// buckets they read in place, so the cached column keeps that order
    /// for the next frame. Dropout survivors stay on the `Tag` slice.
    fn bitslot_truth<P: ResponsePlan>(
        &mut self,
        w: usize,
        observe: usize,
        plan: &P,
        frame: u64,
    ) -> FrameFill {
        let mc = self.frame_min_chunk;
        let dp = self.dispatch;
        let mut drop_hit = None;
        let fill = match self.faults.as_ref().and_then(|p| p.dropout()) {
            Some(d) if frame == d.frame => {
                drop_hit = Some((d.readers_lost, d.coverage_lost));
                let split = ((d.at_frac * observe as f64) as usize).min(observe);
                let full =
                    response_fill_dispatched(self.population.tags(), w, split, plan, dp, mc);
                let surv =
                    response_fill_dispatched(d.survivors.tags(), w, observe, plan, dp, mc);
                let surv_split =
                    response_fill_dispatched(d.survivors.tags(), w, split, plan, dp, mc);
                // Each fill holds exactly its observed prefix: `full` the
                // slots [0, split), `surv` the slots [0, observe).
                let mut busy = Bitmap::zeros(observe);
                for i in 0..split {
                    if full.busy.get(i) {
                        busy.set(i);
                    }
                }
                for i in split..observe {
                    if surv.busy.get(i) {
                        busy.set(i);
                    }
                }
                FrameFill {
                    busy,
                    // Full-population responses land in [0, split), the
                    // survivors' in [split, observe).
                    prefix_responses: full.prefix_responses + surv.prefix_responses
                        - surv_split.prefix_responses,
                }
            }
            Some(d) if frame > d.frame => {
                response_fill_dispatched(d.survivors.tags(), w, observe, plan, dp, mc)
            }
            _ => {
                let tags = self.population.tags();
                if plan.rn_column_width() == Some(w) && dp == FillDispatch::Batched {
                    let mut column = match self.column.take() {
                        Some(column) if column.width() == w => column,
                        stale => {
                            drop(stale);
                            RnColumn::new(tags, w)
                        }
                    };
                    let fill = response_fill_column(&mut column, w, observe, plan);
                    self.column = Some(column);
                    fill
                } else {
                    response_fill_dispatched(tags, w, observe, plan, dp, mc)
                }
            }
        };
        if let Some((readers, coverage)) = drop_hit {
            self.quality.readers_failed += readers;
            self.quality.coverage_lost += coverage;
        }
        fill
    }

    /// The degradation-aware collector for bit-slot frames: runs the
    /// scheduled abort/retry loop (charging partial air time and linear
    /// backoff when `timed`), then applies desync rotation, burst
    /// corruption, and salvage erasure to the truth before sensing it
    /// through the channel. Without an armed plan this is exactly the
    /// pre-fault path. The frame is observed up to `fill.busy.len()`.
    fn collect_bitslot_frame(&mut self, fill: FrameFill, frame: u64, timed: bool) -> BitFrame {
        let observe = fill.busy.len();
        let Some(ff) = self.faults_for(frame, observe) else {
            if timed {
                self.ledger.tag_bitslots(observe as u64);
            }
            self.ledger.tag_responses(fill.prefix_responses);
            return BitFrame::sense_truth(
                &fill.busy,
                observe,
                self.channel.as_ref(),
                &mut self.noise,
            );
        };

        // Energy of a partial attempt: the responses scheduled in the slots
        // that actually ran, charged pro rata (deterministic integer model;
        // exact at the endpoints).
        let partial_energy = |slots: usize| -> u64 {
            if observe == 0 {
                0
            } else {
                fill.prefix_responses * slots as u64 / observe as u64
            }
        };

        let (discarded, salvage_at) = Self::split_salvage(&ff);
        for (attempt, &at) in discarded.iter().enumerate() {
            if timed {
                self.ledger.tag_bitslots(at as u64);
                // Linear backoff: attempt k waits k + 1 turnarounds, then
                // the retry re-broadcasts a fresh Query.
                for _ in 0..=attempt {
                    self.ledger.turnaround();
                }
                self.ledger.reader_broadcast(RETRY_QUERY_BITS);
            }
            self.ledger.tag_responses(partial_energy(at));
            // The detector ran until the abort: consume its per-slot noise
            // draws so noisy channels see the physical stream.
            let _ = self.channel.sense_bitslots(&fill.busy, at, &mut self.noise);
        }
        self.quality.retries += discarded.len() as u64;

        // The kept attempt: full frame on success, the longest partial on
        // salvage.
        let kept_slots = salvage_at.unwrap_or(observe);
        if timed {
            self.ledger.tag_bitslots(kept_slots as u64);
        }
        self.ledger.tag_responses(partial_energy(kept_slots));

        // The fill already holds exactly the observed prefix.
        let mut truth = fill.busy;
        if ff.desync_offset > 0 {
            truth = fault::rotate_truth(&truth, ff.desync_offset);
            self.quality.desync_events += 1;
        }
        if let Some(burst) = &ff.burst {
            self.quality.slots_corrupted += fault::corrupt_truth(&mut truth, burst);
        }
        if let Some(at) = salvage_at {
            self.quality.slots_lost += fault::erase_tail(&mut truth, at);
            self.quality.aborted_frames += 1;
        }
        BitFrame::sense_truth(&truth, observe, self.channel.as_ref(), &mut self.noise)
    }

    /// Run a bit-slot frame of `w` slots but terminate after sensing the
    /// first `observe` slots (the BFCE rough phase observes 1024 of 8192).
    /// Charges `observe` bit-slots (plus retry overhead under an armed
    /// fault plan).
    pub fn run_bitslot_frame_prefix<P: ResponsePlan>(
        &mut self,
        w: usize,
        observe: usize,
        plan: &P,
    ) -> BitFrame {
        assert!(observe >= 1 && observe <= w, "observe must lie in [1, w]");
        let frame = self.begin_frame(observe);
        // Bit-slot sensing only needs busy/idle truth, so the fill kernel
        // flags busy slots and packs them into a bitmap instead of keeping
        // per-slot counts.
        let fill = self.bitslot_truth(w, observe, plan, frame);
        self.collect_bitslot_frame(fill, frame, true)
    }

    /// Run and fully observe a bit-slot frame of `w` slots.
    pub fn run_bitslot_frame<P: ResponsePlan>(&mut self, w: usize, plan: &P) -> BitFrame {
        self.run_bitslot_frame_prefix(w, w, plan)
    }

    /// Run a slotted-Aloha frame of `f` slots (empty/singleton/collision
    /// observations). Charges `f` Aloha slots (plus retry overhead under an
    /// armed fault plan).
    pub fn run_aloha_frame<P: ResponsePlan>(&mut self, f: usize, plan: &P) -> AlohaFrame {
        assert!(f >= 1, "frame must have at least one slot");
        let frame = self.begin_frame(f);
        let mc = self.frame_min_chunk;
        let dp = self.dispatch;
        let mut drop_hit = None;
        let mut counts = match self.faults.as_ref().and_then(|p| p.dropout()) {
            Some(d) if frame == d.frame => {
                drop_hit = Some((d.readers_lost, d.coverage_lost));
                let split = ((d.at_frac * f as f64) as usize).min(f);
                let full =
                    response_counts_dispatched(self.population.tags(), f, plan, dp, mc);
                let surv = response_counts_dispatched(d.survivors.tags(), f, plan, dp, mc);
                let mut spliced = surv;
                // analysis:allow(panic-path): split = min(.., f) and both count vectors have length f
                spliced[..split].copy_from_slice(&full[..split]);
                spliced
            }
            Some(d) if frame > d.frame => {
                response_counts_dispatched(d.survivors.tags(), f, plan, dp, mc)
            }
            _ => response_counts_dispatched(self.population.tags(), f, plan, dp, mc),
        };
        if let Some((readers, coverage)) = drop_hit {
            self.quality.readers_failed += readers;
            self.quality.coverage_lost += coverage;
        }

        let Some(ff) = self.faults_for(frame, f) else {
            self.ledger.aloha_slots(f as u64);
            self.ledger
                .tag_responses(counts.iter().map(|&c| c as u64).sum());
            return sense_aloha(&counts, self.channel.as_ref(), &mut self.noise);
        };

        let energy_of = |counts: &[u32], slots: usize| -> u64 {
            // analysis:allow(panic-path): callers pass abort points (< f by FaultPlan construction) or kept_slots <= f == counts.len()
            counts[..slots].iter().map(|&c| c as u64).sum()
        };
        let (discarded, salvage_at) = Self::split_salvage(&ff);
        for (attempt, &at) in discarded.iter().enumerate() {
            self.ledger.aloha_slots(at as u64);
            for _ in 0..=attempt {
                self.ledger.turnaround();
            }
            self.ledger.reader_broadcast(RETRY_QUERY_BITS);
            self.ledger.tag_responses(energy_of(&counts, at));
            // analysis:allow(panic-path): abort points are drawn < observe == f == counts.len()
            for &c in &counts[..at] {
                let _ = self.channel.sense_aloha(c, &mut self.noise);
            }
        }
        self.quality.retries += discarded.len() as u64;

        let kept_slots = salvage_at.unwrap_or(f);
        self.ledger.aloha_slots(kept_slots as u64);
        self.ledger.tag_responses(energy_of(&counts, kept_slots));

        if ff.desync_offset > 0 {
            counts = fault::rotate_counts(&counts, ff.desync_offset);
            self.quality.desync_events += 1;
        }
        if let Some(burst) = &ff.burst {
            self.quality.slots_corrupted += fault::corrupt_counts(&mut counts, burst);
        }
        if let Some(at) = salvage_at {
            self.quality.slots_lost += fault::erase_counts_tail(&mut counts, at);
            self.quality.aborted_frames += 1;
        }
        sense_aloha(&counts, self.channel.as_ref(), &mut self.noise)
    }

    /// Run one fully observed bit-slot frame per plan, frame `i` of
    /// `widths[i]` slots, handing each observation in order to `after`
    /// with its index.
    ///
    /// A phase whose frame plans are all known up front — LOF's rounds,
    /// ZOE's seed batches — fills its frames in one pass over the tags
    /// ([`ResponsePlan::fill_frames`]) instead of one pass per frame.
    /// Everything else runs frame by frame in order: each frame begins,
    /// collects and senses exactly as a one-frame run does, then `after`
    /// runs, so the charges it makes land between the frames. Frame
    /// indices, fault schedules, [`Quality`], the channel-noise stream,
    /// the ledger's `f64` sums and the trace therefore come out as a loop
    /// of one-frame runs gives them. `after` may charge the ledger but
    /// must not run frames: the one pass has fixed the frame indices.
    ///
    /// The one pass covers the leading frames that the population's `Tag`
    /// slice fills under [`FillDispatch::Batched`] and that come before a
    /// scheduled reader dropout. The rest — frames at or after the
    /// dropout, plans filling from the `rn` column, every frame under
    /// [`FillDispatch::Scalar`] — are filled when they run, as one-frame
    /// runs fill them. Fills are pure functions of the population and
    /// the plan, so filling early changes no observation.
    ///
    /// `timed` frames charge their bit-slots (and any retry overhead) as
    /// [`run_bitslot_frame`](Self::run_bitslot_frame) does. Untimed frames
    /// leave the air *time* to the caller — ZOE interleaves a 32-bit seed
    /// broadcast with every single-slot frame and charges that schedule
    /// via [`charge_broadcasts`](Self::charge_broadcasts),
    /// [`charge_bitslots`](Self::charge_bitslots) and
    /// [`charge_turnarounds`](Self::charge_turnarounds). The tags really
    /// do transmit, so tag energy is charged either way.
    pub fn run_bitslot_frames<P: ResponsePlan>(
        &mut self,
        plans: &[P],
        widths: &[usize],
        timed: bool,
        mut after: impl FnMut(&mut Self, usize, BitFrame),
    ) {
        assert_eq!(plans.len(), widths.len(), "one width per frame plan");
        let first = self.frame_index;
        let dropout = self.faults.as_ref().and_then(|p| p.dropout()).map(|d| d.frame);
        let one_pass = match self.dispatch {
            FillDispatch::Batched => plans
                .iter()
                .zip(widths)
                .zip(first..)
                .take_while(|&((plan, &w), frame)| {
                    dropout.is_none_or(|d| frame < d) && plan.rn_column_width() != Some(w)
                })
                .count(),
            FillDispatch::Scalar => 0,
        };
        let tags = self.population.tags();
        let shapes: Vec<(usize, usize)> = widths[..one_pass].iter().map(|&w| (w, w)).collect();
        let threads = thread_count(tags.len(), self.frame_min_chunk);
        let mut filled =
            response_fills_with_threads(tags, &shapes, &plans[..one_pass], threads).into_iter();
        for (i, (plan, &w)) in plans.iter().zip(widths).enumerate() {
            let frame = self.begin_frame(w);
            let fill = match filled.next() {
                Some(fill) => fill,
                None => self.bitslot_truth(w, w, plan, frame),
            };
            let observation = self.collect_bitslot_frame(fill, frame, timed);
            after(self, i, observation);
        }
    }

    /// Explicitly charge `count` reader broadcasts of `bits` bits each
    /// (each with its trailing turnaround).
    pub fn charge_broadcasts(&mut self, bits: u64, count: u64) {
        for _ in 0..count {
            self.ledger.reader_broadcast(bits);
        }
    }

    /// Explicitly charge `slots` 1-bit tag slots.
    pub fn charge_bitslots(&mut self, slots: u64) {
        self.ledger.tag_bitslots(slots);
    }

    /// Explicitly charge `count` turnaround intervals.
    pub fn charge_turnarounds(&mut self, count: u64) {
        for _ in 0..count {
            self.ledger.turnaround();
        }
    }

    /// Record `count` individual tag transmissions (for protocols that
    /// compute their observation without materializing per-slot counts,
    /// e.g. FNEB's first-responder scan).
    pub fn charge_tag_responses(&mut self, count: u64) {
        self.ledger.tag_responses(count);
    }

    /// Sense pre-computed per-slot responder counts through this system's
    /// channel (uncharged, with or without an armed fault plan).
    ///
    /// For protocols whose observation can be computed without
    /// materializing the whole frame (e.g. FNEB only needs the position of
    /// the first responder), the estimator computes the true counts of the
    /// slots the reader actually watches and senses just those. An armed
    /// fault plan degrades this path too (abort/salvage, desync, bursts);
    /// reader dropout does not apply, since the counts were computed by
    /// the caller.
    pub fn sense_counts(&mut self, counts: &[u32]) -> BitFrame {
        let frame = self.begin_frame(counts.len());
        let mut busy = Bitmap::zeros(counts.len());
        for (i, _) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            busy.set(i);
        }
        // The caller charges the responders' energy, so the fill carries none.
        let fill = FrameFill {
            busy,
            prefix_responses: 0,
        };
        self.collect_bitslot_frame(fill, frame, false)
    }
}

impl std::fmt::Debug for RfidSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RfidSystem")
            .field("cardinality", &self.population.cardinality())
            .field("channel", &self.channel.name())
            .field("air_time_us", &self.ledger.snapshot().total_us())
            .field("faulted", &self.faults.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BitErrorChannel;
    use crate::fault::FaultSpec;
    use crate::tag::Tag;

    fn small_system(n: usize) -> RfidSystem {
        let tags = (0..n as u64)
            .map(|i| Tag {
                id: i + 1,
                rn: (i as u32).wrapping_mul(0x9E37_79B9),
            })
            .collect();
        RfidSystem::new(TagPopulation::new(tags))
    }

    #[test]
    fn ledger_accumulates_across_actions() {
        let mut sys = small_system(100);
        sys.broadcast(32);
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id % 64) as usize);
        let frame = sys.run_bitslot_frame(64, &plan);
        assert_eq!(frame.observed(), 64);
        let air = sys.air_time();
        assert_eq!(air.reader_bits, 32);
        assert_eq!(air.bitslots, 64);
        assert_eq!(air.gaps, 1);
        assert!(air.total_us() > 0.0);
    }

    #[test]
    fn prefix_frames_charge_only_observed_slots() {
        let mut sys = small_system(10);
        let plan = |_t: &Tag, out: &mut Vec<usize>| out.push(0);
        let frame = sys.run_bitslot_frame_prefix(8192, 1024, &plan);
        assert_eq!(frame.observed(), 1024);
        assert_eq!(sys.air_time().bitslots, 1024);
    }

    #[test]
    fn perfect_channel_frames_reflect_truth() {
        let mut sys = small_system(64);
        // Every tag responds in its own slot: all 64 slots busy.
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id - 1) as usize);
        let frame = sys.run_bitslot_frame(128, &plan);
        assert_eq!(frame.busy_count(), 64);
        assert_eq!(frame.idle_count(), 64);
        assert!((frame.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aloha_frames_classify_occupancy() {
        let mut sys = small_system(3);
        // Tags 1 and 2 collide in slot 0, tag 3 alone in slot 1.
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push(if tag.id <= 2 { 0 } else { 1 });
        };
        let frame = sys.run_aloha_frame(4, &plan);
        assert_eq!(frame.collisions(), 1);
        assert_eq!(frame.singletons(), 1);
        assert_eq!(frame.empties(), 2);
        assert_eq!(sys.air_time().aloha_slots, 4);
    }

    #[test]
    fn tag_responses_track_actual_transmissions() {
        let mut sys = small_system(10);
        // Every tag answers twice: slots (id-1) and (id-1+16).
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push((tag.id - 1) as usize);
            out.push((tag.id - 1) as usize + 16);
        };
        sys.run_bitslot_frame(32, &plan);
        assert_eq!(sys.air_time().tag_responses, 20);
    }

    #[test]
    fn prefix_frames_only_charge_observed_transmissions() {
        let mut sys = small_system(10);
        // Tags 1..=5 respond in the observed prefix, the rest later.
        let plan = |tag: &Tag, out: &mut Vec<usize>| {
            out.push(if tag.id <= 5 { 0 } else { 20 });
        };
        sys.run_bitslot_frame_prefix(32, 8, &plan);
        assert_eq!(sys.air_time().tag_responses, 5);
    }

    #[test]
    fn reset_ledger_clears_air_time() {
        let mut sys = small_system(5);
        sys.broadcast(128);
        sys.reset_ledger();
        assert_eq!(sys.air_time().total_us(), 0.0);
    }

    #[test]
    fn noisy_channel_is_reproducible_per_seed() {
        let tags: Vec<Tag> = (0..500u64)
            .map(|i| Tag { id: i + 1, rn: i as u32 })
            .collect();
        let run = |seed: u64| {
            let mut sys = RfidSystem::with_channel(
                TagPopulation::new(tags.clone()),
                Box::new(BitErrorChannel::new(0.05)),
            );
            sys.set_noise_seed(seed);
            let plan =
                |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id % 256) as usize);
            let frame = sys.run_bitslot_frame(256, &plan);
            frame.busy_count()
        };
        assert_eq!(run(9), run(9));
        // Different noise seeds should (overwhelmingly) differ.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn true_cardinality_reports_population() {
        assert_eq!(small_system(42).true_cardinality(), 42);
    }

    #[test]
    fn frame_min_chunk_does_not_change_observations() {
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id % 256) as usize);
        let run = |min_chunk: usize| {
            let mut sys = small_system(5_000);
            sys.set_frame_min_chunk(min_chunk);
            assert_eq!(sys.frame_min_chunk(), min_chunk);
            let frame = sys.run_bitslot_frame(256, &plan);
            (0..256).map(|i| frame.is_busy(i)).collect::<Vec<bool>>()
        };
        let serial = run(usize::MAX);
        assert_eq!(run(1), serial);
        assert_eq!(run(100), serial);
    }

    #[test]
    fn fill_dispatch_does_not_change_observations() {
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id % 256) as usize);
        let run = |dispatch: FillDispatch| {
            let mut sys = small_system(5_000);
            sys.set_fill_dispatch(dispatch);
            assert_eq!(sys.fill_dispatch(), dispatch);
            let frame = sys.run_bitslot_frame(256, &plan);
            let aloha = sys.run_aloha_frame(256, &plan);
            (
                frame.busy_bitmap().clone(),
                aloha.outcomes().to_vec(),
                sys.air_time().total_us().to_bits(),
            )
        };
        assert_eq!(run(FillDispatch::Scalar), run(FillDispatch::Batched));
    }

    /// A plan that fills `.0`-slot frames from the `rn` column and marks
    /// which path filled a frame: the scalar path answers in slot `rn % 8`,
    /// the column fill in slot `rn % 8 + 8`.
    struct ColumnMarked(usize);

    impl ResponsePlan for ColumnMarked {
        fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
            out.push(tag.rn as usize % 8);
        }

        fn rn_column_width(&self) -> Option<usize> {
            Some(self.0)
        }

        fn fill_column(&self, column: &mut RnColumn, sink: &mut crate::frame::SlotSink<'_>) {
            for &rn in column.keys(0, crate::column::KEYS) {
                sink.record(rn as usize % 8 + 8);
            }
        }
    }

    #[test]
    fn column_fills_replace_the_batched_kernel_only() {
        use crate::fault::ReaderDropout;
        let marked = |frame: &BitFrame| (8..frame.observed()).any(|i| frame.is_busy(i));
        let built = |sys: &RfidSystem| sys.column.as_ref().map(|c| (c.len(), c.width()));
        // By default: the column, built on first use for the frame's width.
        let mut sys = small_system(5_000);
        assert_eq!(built(&sys), None);
        assert!(marked(&sys.run_bitslot_frame_prefix(16, 12, &ColumnMarked(16))));
        assert_eq!(built(&sys), Some((5_000, 16)));
        assert!(marked(&sys.run_bitslot_frame(32, &ColumnMarked(32))));
        assert_eq!(built(&sys), Some((5_000, 32)));
        // A plan declaring another width than the frame's stays on the slice.
        assert!(!marked(&sys.run_bitslot_frame(16, &ColumnMarked(32))));
        // Aloha frames and the scalar kernel never use the column.
        assert!(sys.run_aloha_frame(16, &ColumnMarked(16)).outcomes()[8..]
            .iter()
            .all(|&o| o == crate::AlohaOutcome::Empty));
        sys.set_fill_dispatch(FillDispatch::Scalar);
        assert!(!marked(&sys.run_bitslot_frame(16, &ColumnMarked(16))));
        // A 100-tag system takes the column by default too, except on the
        // survivors of a reader dropout.
        let mut sys = small_system(100);
        assert!(marked(&sys.run_bitslot_frame(16, &ColumnMarked(16))));
        sys.inject_faults(FaultPlan::new(FaultSpec::none(), 1).with_dropout(ReaderDropout {
            frame: 1,
            at_frac: 0.5,
            survivors: sys.population().subset(0..50),
            readers_lost: 1,
            coverage_lost: 50,
        }));
        assert!(marked(&sys.run_bitslot_frame(16, &ColumnMarked(16))));
        let splice = sys.run_bitslot_frame(16, &ColumnMarked(16));
        assert!(!marked(&splice) && splice.busy_count() > 0);
        assert!(!marked(&sys.run_bitslot_frame(16, &ColumnMarked(16))));
    }

    /// The paper's Bloom frame under one seed, filled per tag or from the
    /// `rn` column: a tag whose persistence key `K` has `K ⊕ σ < p_n`
    /// answers in slot `(rn ^ seed) & (w − 1)`.
    struct KeyedXor {
        w: usize,
        seed: u32,
        p_n: u32,
    }

    impl ResponsePlan for KeyedXor {
        fn responses(&self, tag: &Tag, out: &mut Vec<usize>) {
            if rfid_hash::responds(rfid_hash::persistence_key(tag.rn), self.seed, self.p_n) {
                out.push((tag.rn ^ self.seed) as usize & (self.w - 1));
            }
        }

        fn rn_column_width(&self) -> Option<usize> {
            Some(self.w)
        }

        fn fill_column(&self, column: &mut RnColumn, sink: &mut crate::frame::SlotSink<'_>) {
            let sigma = rfid_hash::persistence_offset(self.seed);
            for (first, len) in rfid_hash::key_runs(sigma, self.p_n) {
                sink.record_column_keys(column, first, len, self.seed as usize);
            }
        }
    }

    #[test]
    fn slot_selective_column_is_rebuilt_when_the_width_changes() {
        // One system runs frames of 8192, 4096 and again 8192 slots, each
        // at the rough, probe and full prefixes: frame by frame the column
        // fill equals the scalar path, and each change of width rebuilds
        // the column, with 8 sub-buckets a key, for the new width.
        let run = |dispatch: FillDispatch| {
            let mut sys = small_system(20_000);
            sys.set_fill_dispatch(dispatch);
            let mut seen = Vec::new();
            for (frame, w) in [8192usize, 4096, 8192].into_iter().enumerate() {
                for observe in [1024, 32, w] {
                    let plan = KeyedXor {
                        w,
                        seed: 0x5EED_0001u32.wrapping_mul(frame as u32 + 3) ^ observe as u32,
                        p_n: 300,
                    };
                    let bits = sys.run_bitslot_frame_prefix(w, observe, &plan);
                    let width = sys.column.as_ref().map(RnColumn::width);
                    seen.push((bits.busy_bitmap().clone(), sys.air_time(), width));
                }
            }
            seen
        };
        let scalar = run(FillDispatch::Scalar);
        let batched = run(FillDispatch::Batched);
        for (i, (by_column, per_tag)) in batched.iter().zip(&scalar).enumerate() {
            assert_eq!(by_column.0, per_tag.0, "frame {i}");
            assert_eq!(by_column.1, per_tag.1, "frame {i}");
            assert!(by_column.0.count_ones() > 0, "frame {i}");
            // The scalar path never builds a column.
            assert_eq!(per_tag.2, None, "frame {i}");
        }
        let widths: Vec<_> = batched.iter().filter_map(|frame| frame.2).collect();
        assert_eq!(widths, [[8192; 3], [4096; 3], [8192; 3]].concat());
    }

    #[test]
    #[should_panic(expected = "the rn column was built for 16-slot frames, not 32")]
    fn a_column_of_another_width_is_rejected() {
        let mut column = RnColumn::new(small_system(10).population().tags(), 16);
        response_fill_column(&mut column, 32, 32, &ColumnMarked(32));
    }

    #[test]
    #[should_panic(expected = "observe must lie in [1, w]")]
    fn zero_observation_rejected() {
        let mut sys = small_system(1);
        let plan = |_t: &Tag, _o: &mut Vec<usize>| {};
        sys.run_bitslot_frame_prefix(8, 0, &plan);
    }

    #[test]
    fn debug_format_mentions_cardinality() {
        let sys = small_system(3);
        let s = format!("{sys:?}");
        assert!(s.contains("cardinality"));
        assert!(s.contains('3'));
    }

    // ------------------------------------------------------------------
    // Fault-layer behaviour.
    // ------------------------------------------------------------------

    fn id_plan(tag: &Tag, out: &mut Vec<usize>) {
        out.push(((tag.id - 1) % 64) as usize);
    }

    #[test]
    fn quiet_fault_plan_changes_nothing() {
        let frames = |faulted: bool| {
            let mut sys = small_system(40);
            if faulted {
                sys.inject_faults(FaultPlan::new(FaultSpec::none(), 1234));
            }
            let f1 = sys.run_bitslot_frame(64, &id_plan);
            let f2 = sys.run_bitslot_frame_prefix(64, 32, &id_plan);
            let aloha = sys.run_aloha_frame(64, &id_plan);
            let sensed = sys.sense_counts(&[0, 1, 0, 2]);
            (
                f1.busy_bitmap().clone(),
                f2.busy_bitmap().clone(),
                aloha,
                sensed.busy_bitmap().clone(),
                sys.air_time(),
            )
        };
        assert_eq!(frames(false), frames(true));
        let mut sys = small_system(40);
        sys.inject_faults(FaultPlan::new(FaultSpec::none(), 1234));
        sys.run_bitslot_frame(64, &id_plan);
        assert!(!sys.quality().degraded());
        assert_eq!(sys.quality().frames, 1);
        assert_eq!(sys.quality().slots_observed, 64);
    }

    #[test]
    fn recovered_retries_preserve_the_observation_and_charge_overhead() {
        // Abort every first attempt but keep a generous retry budget: the
        // kept observation is identical to the clean run, the ledger shows
        // the retries, and quality counts them without flagging
        // degradation.
        let spec = FaultSpec {
            p_frame_abort: 1.0,
            max_retries: 20,
            ..FaultSpec::none()
        };
        // With p = 1 every draw aborts... so every attempt aborts and the
        // frame always salvages. Use a schedule that recovers instead:
        // abort probability high but not certain.
        let spec = FaultSpec {
            p_frame_abort: 0.7,
            max_retries: 30,
            ..spec
        };
        let mut clean = small_system(40);
        let clean_frame = clean.run_bitslot_frame(64, &id_plan);
        let clean_air = clean.air_time().total_us();

        let mut sys = small_system(40);
        sys.inject_faults(FaultPlan::new(spec, 77));
        let frame = sys.run_bitslot_frame(64, &id_plan);
        assert_eq!(frame.busy_bitmap(), clean_frame.busy_bitmap());
        assert!(!sys.quality().degraded(), "{:?}", sys.quality());
        // Eventually some frame retries (p = 0.7): run a few more.
        for _ in 0..20 {
            sys.run_bitslot_frame(64, &id_plan);
        }
        assert!(sys.quality().retries > 0);
        assert!(sys.air_time().total_us() > clean_air);
    }

    #[test]
    fn exhausted_retries_salvage_and_flag() {
        let spec = FaultSpec {
            p_frame_abort: 1.0,
            max_retries: 2,
            ..FaultSpec::none()
        };
        let mut sys = small_system(64);
        sys.inject_faults(FaultPlan::new(spec, 5));
        let frame = sys.run_bitslot_frame(64, &id_plan);
        // Salvage keeps the frame length: estimators see `observe` slots.
        assert_eq!(frame.observed(), 64);
        let q = sys.quality();
        assert_eq!(q.aborted_frames, 1);
        assert_eq!(q.retries, 2);
        assert!(q.slots_lost > 0);
        assert!(q.degraded());
        // The widened requirement is strictly looser.
        let acc = crate::estimator::Accuracy::new(0.05, 0.05);
        let wide = q.widened(acc);
        assert!(wide.epsilon > acc.epsilon);
        assert!(wide.delta > acc.delta);
    }

    #[test]
    fn faulted_runs_replay_bitwise() {
        let spec = FaultSpec {
            p_frame_abort: 0.5,
            max_retries: 1,
            p_slot_burst: 0.5,
            burst_len: 8,
            p_desync: 0.5,
            max_offset_frac: 0.25,
        };
        let run = || {
            let mut sys = small_system(48);
            sys.inject_faults(FaultPlan::new(spec, 2024));
            let mut words = Vec::new();
            for _ in 0..6 {
                let f = sys.run_bitslot_frame(64, &id_plan);
                words.extend_from_slice(f.busy_bitmap().words());
            }
            let a = sys.run_aloha_frame(64, &id_plan);
            (words, a.outcomes().to_vec(), sys.quality().clone(), sys.air_time().total_us().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn desync_rotates_and_burst_corrupts() {
        let spec = FaultSpec {
            p_desync: 1.0,
            max_offset_frac: 0.5,
            ..FaultSpec::none()
        };
        let mut sys = small_system(10);
        sys.inject_faults(FaultPlan::new(spec, 31));
        sys.run_bitslot_frame(64, &id_plan);
        assert_eq!(sys.quality().desync_events, 1);
        assert!(sys.quality().degraded());

        let spec = FaultSpec {
            p_slot_burst: 1.0,
            burst_len: 16,
            ..FaultSpec::none()
        };
        let mut sys = small_system(10);
        sys.inject_faults(FaultPlan::new(spec, 32));
        sys.run_bitslot_frame(64, &id_plan);
        assert_eq!(sys.quality().slots_corrupted, 16);
    }

    #[test]
    fn dropout_switches_to_survivors_mid_frame() {
        use crate::fault::ReaderDropout;
        // 32 tags; survivors are the first 8. Dropout at frame 1, half way.
        let all: Vec<Tag> = (0..32u64)
            .map(|i| Tag {
                id: i + 1,
                rn: i as u32,
            })
            .collect();
        let survivors = TagPopulation::new(all[..8].to_vec());
        let mut sys = RfidSystem::new(TagPopulation::new(all));
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id - 1) as usize);
        sys.inject_faults(
            FaultPlan::new(FaultSpec::none(), 1).with_dropout(ReaderDropout {
                frame: 1,
                at_frac: 0.5,
                survivors,
                readers_lost: 3,
                coverage_lost: 24,
            }),
        );
        // Frame 0: before the dropout, all 32 tags respond.
        let f0 = sys.run_bitslot_frame(32, &plan);
        assert_eq!(f0.busy_count(), 32);
        assert_eq!(sys.quality().readers_failed, 0);
        // Frame 1: spliced — slots [0, 16) from the full population,
        // [16, 32) only from survivors (tags 1..=8 → all idle there).
        let f1 = sys.run_bitslot_frame(32, &plan);
        assert_eq!(f1.busy_count(), 16);
        assert!((0..16).all(|i| f1.is_busy(i)));
        assert!((16..32).all(|i| !f1.is_busy(i)));
        assert_eq!(sys.quality().readers_failed, 3);
        assert_eq!(sys.quality().coverage_lost, 24);
        // Frame 2: survivors only.
        let f2 = sys.run_bitslot_frame(32, &plan);
        assert_eq!(f2.busy_count(), 8);
        assert!(sys.quality().degraded());
        // Ground truth still reports the initial deployment.
        assert_eq!(sys.true_cardinality(), 32);
    }

    #[test]
    fn aloha_salvage_reads_tail_as_empty() {
        let spec = FaultSpec {
            p_frame_abort: 1.0,
            max_retries: 0,
            ..FaultSpec::none()
        };
        let mut sys = small_system(3);
        let plan = |tag: &Tag, out: &mut Vec<usize>| out.push((tag.id - 1) as usize * 10);
        sys.inject_faults(FaultPlan::new(spec, 41));
        let frame = sys.run_aloha_frame(32, &plan);
        assert_eq!(frame.len(), 32);
        assert_eq!(sys.quality().aborted_frames, 1);
        assert!(sys.quality().slots_lost > 0);
        assert_eq!(
            frame.empties() + frame.singletons() + frame.collisions(),
            32
        );
    }

    #[test]
    fn sense_counts_passes_through_fault_layer() {
        let spec = FaultSpec {
            p_slot_burst: 1.0,
            burst_len: 4,
            ..FaultSpec::none()
        };
        let mut sys = small_system(1);
        sys.inject_faults(FaultPlan::new(spec, 50));
        let counts = vec![0u32; 64];
        let frame = sys.sense_counts(&counts);
        assert_eq!(frame.observed(), 64);
        assert_eq!(sys.quality().slots_corrupted, 4);
        // Clean system: unchanged behaviour.
        let mut clean = small_system(1);
        let f = clean.sense_counts(&counts);
        assert_eq!(f.busy_count(), 0);
    }

    #[test]
    fn noisy_channel_marks_quality() {
        let sys = RfidSystem::with_channel(
            TagPopulation::new(vec![Tag { id: 1, rn: 1 }]),
            Box::new(BitErrorChannel::new(0.1)),
        );
        assert!(sys.quality().noisy_channel);
        assert!(sys.quality().degraded());
        assert!(!small_system(1).quality().noisy_channel);
    }
}
