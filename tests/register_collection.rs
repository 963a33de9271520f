//! Register collection, decoded in one pass: `collect_register_sketch`
//! reads a sensed register frame with one walk over its busy words and
//! builds the sketch from the sorted `(register, top busy rank)` pairs.
//! It must leave everything observable exactly as the per-slot fold it
//! replaced — every busy slot decoded with a division and folded in with
//! `observe_slot`, over the frame a closure plan fills:
//!
//! * the sketch, and its encoded snapshot bytes;
//! * the ledger's `AirTime`, its `f64` sums compared to the bit;
//! * the `Quality` record;
//! * the channel-noise stream, read as the next sensed frame.
//!
//! Cases cover the perfect, bit-error, capture and imperfect-hash
//! channels; no faults, aborts with retries and with salvage, bursts,
//! desync and a reader dropout; precisions 4, 10, 14 and 16; rank levels
//! 1, 12, 16, 32 and 61 (12 and 61 do not divide 64, so cells straddle
//! bitmap words); and populations that are empty, sparse, one register
//! either side of the sparse cap, and dense.

use rfid_bfce_repro::baselines::registers::collect_register_sketch;
use rfid_bfce_repro::bfce::sketch::repr::sparse_cap;
use rfid_bfce_repro::bfce::{RegisterFlavor, RegisterSketch, Snapshot};
use rfid_bfce_repro::hash::register_hash;
use rfid_bfce_repro::sim::{
    AirTime, BitErrorChannel, CaptureChannel, Channel, FaultPlan, FaultSpec, FillDispatch,
    ImperfectHashChannel, PerfectChannel, Quality, ReaderDropout, RfidSystem, Tag, TagPopulation,
};
use rfid_check::{check, Gen};
use std::collections::BTreeSet;

const PRECISIONS: [u8; 4] = [4, 10, 14, 16];
const LEVELS: [u8; 5] = [1, 12, 16, 32, 61];
const CHANNELS: [&str; 4] = ["perfect", "bit-error", "capture", "imperfect-hash"];
const FAULTS: [&str; 6] = [
    "none",
    "abort/retry",
    "abort/salvage",
    "burst",
    "desync",
    "dropout",
];
const SIZES: [&str; 6] = ["empty", "sparse", "cap-1", "cap", "cap+1", "dense"];

/// The collection path the one-pass decode replaced: a closure plan
/// fills the frame through the scratch-buffer default, and each busy slot
/// is decoded on its own and folded in with `observe_slot`.
fn collect_per_slot(
    flavor: RegisterFlavor,
    precision: u8,
    levels: u8,
    system: &mut RfidSystem,
    seed: u32,
) -> RegisterSketch {
    let mut sketch = RegisterSketch::new(flavor, precision, levels, seed);
    system.broadcast(32);
    let slots = sketch.registers().m() * levels as usize;
    let plan = move |tag: &Tag, out: &mut Vec<usize>| {
        let (register, rank) = register_hash(tag.id, seed, precision, levels);
        out.push(register as usize * levels as usize + (rank as usize - 1));
    };
    let frame = system.run_bitslot_frame(slots, &plan);
    for slot in frame.busy_bitmap().iter_ones() {
        let register = (slot / levels as usize) as u32;
        let rank = (slot % levels as usize) as u8 + 1;
        sketch.observe_slot(register, rank);
    }
    sketch
}

/// `n` tags with random IDs.
fn random_tags(g: &mut Gen, n: usize) -> Vec<Tag> {
    (0..n)
        .map(|_| Tag {
            id: g.u64(),
            rn: g.u32(),
        })
        .collect()
}

/// Tags whose registers under `seed` are exactly `registers` distinct
/// ones: a drawn ID is kept if its register is already held or there is
/// room for one more.
fn tags_in_registers(g: &mut Gen, precision: u8, seed: u32, registers: usize) -> Vec<Tag> {
    let mut held = vec![false; 1 << precision];
    let (mut tags, mut distinct) = (Vec::new(), 0);
    while distinct < registers {
        let tag = Tag {
            id: g.u64(),
            rn: g.u32(),
        };
        let (register, _) = register_hash(tag.id, seed, precision, 1);
        let cell = &mut held[register as usize];
        if !*cell {
            *cell = true;
            distinct += 1;
        }
        tags.push(tag);
    }
    tags
}

fn channel(name: &str) -> Box<dyn Channel> {
    match name {
        "perfect" => Box::new(PerfectChannel),
        "bit-error" => Box::new(BitErrorChannel::new(0.02)),
        "capture" => Box::new(CaptureChannel::new(0.5)),
        _ => Box::new(ImperfectHashChannel::new(0.1, 0.01)),
    }
}

/// The fault plan `name`. Every fault fires on the first collection's
/// frame; the dropout also leaves the second frame to the survivors.
fn fault_plan(name: &str, tags: &[Tag]) -> Option<FaultPlan> {
    let always = |spec: FaultSpec| Some(FaultPlan::new(spec, 0xFA17));
    let quiet = FaultSpec::none();
    match name {
        "abort/retry" => always(FaultSpec {
            p_frame_abort: 0.6,
            max_retries: 8,
            ..quiet
        }),
        "abort/salvage" => always(FaultSpec {
            p_frame_abort: 1.0,
            max_retries: 1,
            ..quiet
        }),
        "burst" => always(FaultSpec {
            p_slot_burst: 1.0,
            burst_len: 300,
            ..quiet
        }),
        "desync" => always(FaultSpec {
            p_desync: 1.0,
            ..quiet
        }),
        "dropout" => {
            let survivors = tags.len() / 2;
            Some(FaultPlan::new(quiet, 3).with_dropout(ReaderDropout {
                frame: 0,
                at_frac: 0.4,
                survivors: TagPopulation::new(tags[..survivors].to_vec()),
                readers_lost: 1,
                coverage_lost: (tags.len() - survivors) as u64,
            }))
        }
        _ => None,
    }
}

/// What a system leaves observable after two collections.
struct Outcome {
    sketches: Vec<RegisterSketch>,
    bytes: Vec<Vec<u8>>,
    air: Vec<u64>,
    quality: Quality,
    next_noise: Vec<bool>,
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

type Collect = fn(RegisterFlavor, u8, u8, &mut RfidSystem, u32) -> RegisterSketch;

/// One case's parameters.
struct Case {
    flavor: RegisterFlavor,
    precision: u8,
    levels: u8,
    seeds: [u32; 2],
    channel: &'static str,
    faults: &'static str,
    dispatch: FillDispatch,
    tags: Vec<Tag>,
}

/// Two collections through `collect`, then a 256-slot idle frame whose
/// noisy reading is the next noise draws.
fn run(case: &Case, collect: Collect) -> Outcome {
    let mut system =
        RfidSystem::with_channel(TagPopulation::new(case.tags.clone()), channel(case.channel));
    system.set_noise_seed(0x0C01_1EC7);
    system.set_fill_dispatch(case.dispatch);
    if let Some(plan) = fault_plan(case.faults, &case.tags) {
        system.inject_faults(plan);
    }
    let sketches: Vec<RegisterSketch> = case
        .seeds
        .iter()
        .map(|&seed| collect(case.flavor, case.precision, case.levels, &mut system, seed))
        .collect();
    let next = system.sense_counts(&[0u32; 256]);
    Outcome {
        bytes: sketches.iter().map(Snapshot::snapshot).collect(),
        sketches,
        air: air_bits(&system.air_time()),
        quality: system.quality().clone(),
        next_noise: (0..next.observed()).map(|i| next.is_busy(i)).collect(),
    }
}

/// Draw one case, recording the values it covers in `seen`.
fn draw_case(g: &mut Gen, seen: &mut BTreeSet<String>) -> Case {
    let precision = g.pick(&PRECISIONS);
    let levels = g.pick(&LEVELS);
    let seeds = [g.u32(), g.u32()];
    let (channel, faults, size) = (g.pick(&CHANNELS), g.pick(&FAULTS), g.pick(&SIZES));
    let cap = sparse_cap(precision);
    let tags = match size {
        "empty" => Vec::new(),
        "sparse" => {
            let n = g.range(1..=48);
            random_tags(g, n)
        }
        "cap-1" => tags_in_registers(g, precision, seeds[0], cap - 1),
        "cap" => tags_in_registers(g, precision, seeds[0], cap),
        "cap+1" => tags_in_registers(g, precision, seeds[0], cap + 1),
        _ => random_tags(g, 2 << precision),
    };
    for value in [
        format!("precision {precision}"),
        format!("levels {levels}"),
        format!("channel {channel}"),
        format!("faults {faults}"),
        format!("size {size}"),
    ] {
        seen.insert(value);
    }
    Case {
        flavor: if g.bool() {
            RegisterFlavor::HllPp
        } else {
            RegisterFlavor::LogLogBeta
        },
        precision,
        levels,
        seeds,
        channel,
        faults,
        dispatch: g.pick(&[FillDispatch::Batched, FillDispatch::Scalar]),
        tags,
    }
}

/// The one-pass collection equals the per-slot fold in everything it
/// leaves observable.
#[test]
fn one_pass_collection_matches_the_per_slot_fold() {
    let mut seen = BTreeSet::new();
    check("one_pass_collection_matches_the_per_slot_fold", 64, |g| {
        let case = draw_case(g, &mut seen);
        let label = format!(
            "p {}, levels {}, {} tags, channel {}, faults {}, {:?}",
            case.precision,
            case.levels,
            case.tags.len(),
            case.channel,
            case.faults,
            case.dispatch
        );
        let got = run(&case, collect_register_sketch);
        let want = run(&case, collect_per_slot);
        assert!(got.sketches == want.sketches, "{label}: sketches differ");
        assert!(got.bytes == want.bytes, "{label}: snapshot bytes differ");
        assert!(got.air == want.air, "{label}: air time differs");
        assert_eq!(got.quality, want.quality, "{label}: quality differs");
        assert!(
            got.next_noise == want.next_noise,
            "{label}: noise stream differs"
        );
    });
    let missing: Vec<String> = PRECISIONS
        .iter()
        .map(|p| format!("precision {p}"))
        .chain(LEVELS.iter().map(|l| format!("levels {l}")))
        .chain(CHANNELS.iter().map(|c| format!("channel {c}")))
        .chain(FAULTS.iter().map(|f| format!("faults {f}")))
        .chain(SIZES.iter().map(|s| format!("size {s}")))
        .filter(|value| !seen.contains(value))
        .collect();
    assert!(missing.is_empty(), "no case covered {missing:?}");
}

/// The comparison has teeth: the sparse-cap populations land either side
/// of the tier boundary, and the faulted and noisy frames are degraded.
#[test]
fn collection_cases_reach_every_tier_and_fault() {
    let mut g = Gen::new(0x7E57);
    let (precision, levels, seed) = (10u8, 16u8, 0x5EED);
    let cap = sparse_cap(precision);
    let tiers: Vec<&str> = [1, cap, cap + 1]
        .into_iter()
        .map(|registers| {
            let tags = tags_in_registers(&mut g, precision, seed, registers);
            let mut system = RfidSystem::new(TagPopulation::new(tags));
            let sketch = collect_register_sketch(
                RegisterFlavor::HllPp,
                precision,
                levels,
                &mut system,
                seed,
            );
            assert_eq!(sketch.registers().nonzero(), registers);
            sketch.registers().tier()
        })
        .collect();
    assert_eq!(tiers, ["small", "array", "dense"]);

    let tags = random_tags(&mut g, 4_000);
    let quality = |faults: &str, channel_name: &str| {
        let case = Case {
            flavor: RegisterFlavor::LogLogBeta,
            precision,
            levels,
            seeds: [1, 2],
            channel: CHANNELS.iter().find(|&&c| c == channel_name).unwrap(),
            faults: FAULTS.iter().find(|&&f| f == faults).unwrap(),
            dispatch: FillDispatch::Batched,
            tags: tags.clone(),
        };
        run(&case, collect_register_sketch)
    };
    assert!(quality("abort/retry", "perfect").quality.retries > 0);
    assert!(quality("abort/salvage", "perfect").quality.slots_lost > 0);
    assert!(quality("burst", "perfect").quality.slots_corrupted > 0);
    assert!(quality("desync", "perfect").quality.desync_events > 0);
    assert_eq!(quality("dropout", "perfect").quality.readers_failed, 1);
    assert!(quality("none", "bit-error").next_noise.iter().any(|&b| b));
}
