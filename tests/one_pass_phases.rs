//! One pass per phase: `RfidSystem::run_bitslot_frames` runs a phase's
//! frames — ZOE seed batches, LOF rounds — after filling them in one walk
//! over the tags, and must leave everything observable exactly as a loop
//! of one-frame runs leaves it:
//!
//! * every sensed frame, bit for bit;
//! * the ledger's `AirTime`, its `f64` sums compared to the bit;
//! * the protocol trace timeline;
//! * the `Quality` record;
//! * the channel-noise stream, read as the next sensed frame.
//!
//! Both channels (perfect and bit-error) run with no fault plan, with a
//! reader dropout before, inside and after the phase, and with abort,
//! retry, burst and desync schedules. ZOE's frames are untimed and the
//! caller charges each batch after it; LOF's are timed, with a turnaround
//! and the next seed broadcast between rounds.

use rfid_bfce_repro::baselines::common::{geometric_frame_plan, GeometricFramePlan};
use rfid_bfce_repro::baselines::ZoeSlotPlan;
use rfid_bfce_repro::hash::SplitMix64;
use rfid_bfce_repro::sim::{
    AirTime, BitErrorChannel, BitFrame, Channel, FaultPlan, FaultSpec, FillDispatch,
    PerfectChannel, Quality, ReaderDropout, ResponsePlan, RfidSystem, Tag, TagPopulation,
    TraceEvent,
};

const N: usize = 3_000;

/// Frames run before the phase, so the phase starts at this frame index.
const LEAD: u64 = 2;

fn tags() -> Vec<Tag> {
    let mut ids = SplitMix64::new(0x0E_9A55);
    (0..N)
        .map(|i| Tag {
            id: ids.next_u64(),
            rn: i as u32,
        })
        .collect()
}

/// How the phase's frames are run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// One `run_bitslot_frames` call for the whole phase.
    OnePass,
    /// One `run_bitslot_frames` call per frame.
    FrameByFrame,
    /// One `run_bitslot_frame` call per frame (timed phases only).
    Classic,
}

/// What a run leaves observable.
struct Outcome {
    frames: Vec<Vec<bool>>,
    air: Vec<u64>,
    trace: Vec<TraceEvent>,
    quality: Quality,
    next_noise: Vec<bool>,
}

fn bits(frame: &BitFrame) -> Vec<bool> {
    (0..frame.observed()).map(|i| frame.is_busy(i)).collect()
}

/// The ledger's totals, its floats as raw bits.
fn air_bits(air: &AirTime) -> Vec<u64> {
    vec![
        air.reader_us.to_bits(),
        air.tag_us.to_bits(),
        air.gap_us.to_bits(),
        air.reader_messages,
        air.reader_bits,
        air.bitslots,
        air.aloha_slots,
        air.gaps,
        air.tag_responses,
    ]
}

/// One phase: its plans, frame widths, whether its frames are timed, and
/// the charges the caller makes after frame `i` of `k` (of `w` slots).
struct Phase<P> {
    plans: Vec<P>,
    widths: Vec<usize>,
    timed: bool,
    charge: fn(&mut RfidSystem, usize, usize, usize),
}

/// ZOE's slot run: full 512-slot batches, then a short one, at the
/// production load; each batch is charged per slot after it runs.
fn zoe_phase() -> Phase<ZoeSlotPlan> {
    let p = 1.594 / N as f64;
    let mut roots = SplitMix64::new(0x20E);
    let widths = [512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 37].to_vec();
    Phase {
        plans: widths
            .iter()
            .map(|&w| ZoeSlotPlan::new(w, roots.next_u64(), p))
            .collect(),
        widths,
        timed: false,
        charge: |system, _, _, w| {
            system.charge_broadcasts(32, w as u64);
            system.charge_bitslots(w as u64);
            system.charge_turnarounds(w as u64);
        },
    }
}

/// LOF's ten rounds of 32 levels: timed frames, a turnaround and the next
/// seed broadcast between rounds.
fn lof_phase() -> Phase<GeometricFramePlan> {
    let mut seeds = SplitMix64::new(0x10F);
    Phase {
        plans: (0..10)
            .map(|_| geometric_frame_plan(seeds.next_u32(), 32))
            .collect(),
        widths: vec![32; 10],
        timed: true,
        charge: |system, i, k, _| {
            if i + 1 < k {
                system.turnaround();
                system.broadcast(32);
            }
        },
    }
}

fn system(noisy: bool, faults: Option<&FaultPlan>, dispatch: FillDispatch) -> RfidSystem {
    let channel: Box<dyn Channel> = if noisy {
        Box::new(BitErrorChannel::new(0.05))
    } else {
        Box::new(PerfectChannel)
    };
    let mut system = RfidSystem::with_channel(TagPopulation::new(tags()), channel);
    system.set_noise_seed(0xC4A7);
    system.set_fill_dispatch(dispatch);
    if let Some(plan) = faults {
        system.inject_faults(plan.clone());
    }
    system.enable_trace();
    system
}

/// Lead-in frames, the phase in `mode`, one trailing frame, then a
/// 256-slot idle frame whose noisy reading is the next noise draws.
fn run<P: ResponsePlan>(phase: &Phase<P>, mode: Mode, mut system: RfidSystem) -> Outcome {
    let lead = geometric_frame_plan(0x1EAD, 64);
    for _ in 0..LEAD {
        system.run_bitslot_frame(64, &lead);
    }
    let k = phase.plans.len();
    let mut frames = Vec::new();
    let mut after = |system: &mut RfidSystem, i: usize, frame: BitFrame| {
        frames.push(bits(&frame));
        (phase.charge)(system, i, k, phase.widths[i]);
    };
    match mode {
        Mode::OnePass => {
            system.run_bitslot_frames(&phase.plans, &phase.widths, phase.timed, &mut after)
        }
        Mode::FrameByFrame => {
            for i in 0..k {
                system.run_bitslot_frames(
                    &phase.plans[i..=i],
                    &phase.widths[i..=i],
                    phase.timed,
                    |system, _, frame| after(system, i, frame),
                );
            }
        }
        Mode::Classic => {
            assert!(phase.timed, "only timed frames have a one-frame runner");
            for i in 0..k {
                let frame = system.run_bitslot_frame(phase.widths[i], &phase.plans[i]);
                after(&mut system, i, frame);
            }
        }
    }
    frames.push(bits(&system.run_bitslot_frame(64, &lead)));
    let next_noise = bits(&system.sense_counts(&[0u32; 256]));
    Outcome {
        frames,
        air: air_bits(&system.air_time()),
        trace: system.protocol_trace().expect("tracing is on").to_vec(),
        quality: system.quality().clone(),
        next_noise,
    }
}

/// The fault plans: none, a dropout before, inside and after the phase,
/// aborts with retries and salvage plus bursts and desync, and both.
fn fault_plans(k: u64) -> Vec<(String, Option<FaultPlan>)> {
    let dropout = |frame: u64| ReaderDropout {
        frame,
        at_frac: 0.4,
        survivors: TagPopulation::new(tags()[..N / 2].to_vec()),
        readers_lost: 1,
        coverage_lost: (N - N / 2) as u64,
    };
    let quiet = FaultPlan::new(FaultSpec::none(), 5);
    let rough = FaultPlan::new(
        FaultSpec {
            p_frame_abort: 0.5,
            max_retries: 2,
            p_slot_burst: 0.3,
            burst_len: 16,
            p_desync: 0.3,
            max_offset_frac: 0.25,
        },
        9,
    );
    vec![
        ("none".into(), None),
        (
            "dropout before".into(),
            Some(quiet.clone().with_dropout(dropout(1))),
        ),
        (
            "dropout at the first frame".into(),
            Some(quiet.clone().with_dropout(dropout(LEAD))),
        ),
        (
            "dropout inside".into(),
            Some(quiet.clone().with_dropout(dropout(LEAD + 3))),
        ),
        (
            "dropout after".into(),
            Some(quiet.with_dropout(dropout(LEAD + k))),
        ),
        ("abort/retry".into(), Some(rough.clone())),
        (
            "abort/retry + dropout inside".into(),
            Some(rough.with_dropout(dropout(LEAD + 4))),
        ),
    ]
}

/// `got` equals `want` field by field; a mismatch names the field (and,
/// for the frames, the first frame that differs) instead of dumping both.
fn assert_same(got: &Outcome, want: &Outcome, label: &str) {
    if let Some(i) = (0..got.frames.len().max(want.frames.len()))
        .find(|&i| got.frames.get(i) != want.frames.get(i))
    {
        panic!("{label}: frame {i} of the phase differs");
    }
    assert!(got.air == want.air, "{label}: air time differs");
    assert!(got.trace == want.trace, "{label}: trace timeline differs");
    assert_eq!(got.quality, want.quality, "{label}: quality differs");
    assert!(
        got.next_noise == want.next_noise,
        "{label}: noise stream differs"
    );
}

fn assert_one_pass_matches<P: ResponsePlan>(phase: &Phase<P>) {
    let k = phase.plans.len() as u64;
    for noisy in [false, true] {
        for (faults, plan) in fault_plans(k) {
            for dispatch in [FillDispatch::Batched, FillDispatch::Scalar] {
                let build = || system(noisy, plan.as_ref(), dispatch);
                let label = format!("noisy {noisy}, faults {faults}, {dispatch:?}");
                let one_pass = run(phase, Mode::OnePass, build());
                assert_eq!(one_pass.frames.len(), phase.plans.len() + 1, "{label}");
                let by_frame = run(phase, Mode::FrameByFrame, build());
                assert_same(
                    &one_pass,
                    &by_frame,
                    &format!("{label}, one pass vs frame by frame"),
                );
                if phase.timed {
                    let classic = run(phase, Mode::Classic, build());
                    assert_same(
                        &one_pass,
                        &classic,
                        &format!("{label}, one pass vs run_bitslot_frame"),
                    );
                }
            }
        }
    }
}

#[test]
fn one_pass_zoe_batches_match_frame_by_frame_runs() {
    assert_one_pass_matches(&zoe_phase());
}

#[test]
fn one_pass_lof_rounds_match_frame_by_frame_runs() {
    assert_one_pass_matches(&lof_phase());
}

/// The comparison has teeth: the faulted and noisy runs above really are
/// degraded, and a dropout inside the phase changes its frames.
#[test]
fn one_pass_scenarios_exercise_faults_and_noise() {
    let phase = zoe_phase();
    let plans = fault_plans(phase.plans.len() as u64);
    let outcome = |noisy: bool, i: usize| {
        run(
            &phase,
            Mode::OnePass,
            system(noisy, plans[i].1.as_ref(), FillDispatch::Batched),
        )
    };
    let clean = outcome(false, 0);
    assert!(!clean.quality.degraded());
    assert!(
        clean.next_noise.iter().all(|&b| !b),
        "a perfect channel reads idle as idle"
    );
    assert!(
        outcome(true, 0).next_noise.iter().any(|&b| b),
        "bit errors flip idle slots"
    );
    let inside = outcome(false, 3);
    assert_eq!(inside.quality.readers_failed, 1);
    assert_ne!(
        inside.frames, clean.frames,
        "the dropout inside the phase changes its frames"
    );
    let rough = outcome(false, 5);
    assert!(rough.quality.retries > 0, "{:?}", rough.quality);
}
