//! Reproducibility: every stochastic component in the workspace is
//! seed-deterministic, so experiments (and bug reports) replay exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_bfce_repro::prelude::*;
use rfid_bfce_repro::sim::CardinalityEstimator;
use rfid_cli::commands::all_estimators;

/// Population size of [`estimate_with`].
const N: usize = 25_000;

fn estimate_with(est: &dyn CardinalityEstimator, seed: u64) -> (f64, f64) {
    let mut world = StdRng::seed_from_u64(seed);
    let population = WorkloadSpec::T2.generate(N, &mut world);
    let mut system = RfidSystem::new(population);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let report = est.estimate(&mut system, Accuracy::new(0.1, 0.1), &mut rng);
    (report.n_hat, report.air.total_us())
}

#[test]
fn every_estimator_replays_exactly_per_seed() {
    for est in all_estimators() {
        let a = estimate_with(est.as_ref(), 42);
        let b = estimate_with(est.as_ref(), 42);
        assert_eq!(a, b, "{} not reproducible", est.name());
        let c = estimate_with(est.as_ref(), 43);
        // An exact count (Q-inventory) does not move with the seed; the
        // air time its collisions cost does.
        let moved = if a.0 == N as f64 {
            a.1 != c.1
        } else {
            a.0 != c.0
        };
        assert!(moved, "{} ignores the seed", est.name());
    }
}

#[test]
fn workload_generation_is_stable_across_calls() {
    for spec in WorkloadSpec::PAPER_SET {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = spec.generate(5_000, &mut r1);
        let b = spec.generate(5_000, &mut r2);
        assert_eq!(a.tags(), b.tags());
    }
}

/// Every f64 in a [`RepeatedOutcome`], as raw bits, so equality means
/// bitwise equality — not merely "within epsilon".
fn outcome_bits(o: &rfid_bfce_repro::experiments::runner::RepeatedOutcome) -> Vec<u64> {
    vec![
        u64::from(o.trials),
        o.mean_error.to_bits(),
        o.max_error.to_bits(),
        o.within_epsilon.to_bits(),
        o.mean_seconds.to_bits(),
        o.max_seconds.to_bits(),
        o.p50_error.to_bits(),
        o.p95_error.to_bits(),
        o.p99_error.to_bits(),
        o.p50_seconds.to_bits(),
        o.p95_seconds.to_bits(),
        o.p99_seconds.to_bits(),
    ]
}

#[test]
fn two_run_audit_bfce_zoe_src_outcomes_are_bitwise_identical() {
    // The PR 2 determinism contract, audited end-to-end: run the full
    // trial engine twice per estimator, at 1 worker and at 4 workers, and
    // require all four outcomes to agree bit for bit. Exercises workload
    // generation, frame fill (including its parallel path), estimation,
    // and the sequential Welford/percentile aggregation.
    use rfid_bfce_repro::experiments::engine::TrialRunner;
    let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
        Box::new(Bfce::paper()),
        Box::new(Zoe::default()),
        Box::new(Src),
    ];
    for est in &estimators {
        let outcome = |jobs: usize| {
            TrialRunner::new(6, 1701)
                .jobs(jobs)
                .run(est.as_ref(), WorkloadSpec::T2, 30_000, Accuracy::paper_default())
                .outcome()
        };
        let first = outcome_bits(&outcome(1));
        assert_eq!(
            first,
            outcome_bits(&outcome(1)),
            "{}: serial re-run drifted",
            est.name()
        );
        assert_eq!(
            first,
            outcome_bits(&outcome(4)),
            "{}: 4-worker run differs from serial",
            est.name()
        );
        assert_eq!(
            first,
            outcome_bits(&outcome(4)),
            "{}: 4-worker re-run drifted",
            est.name()
        );
    }
}

#[test]
fn parallel_frame_fill_does_not_depend_on_thread_interleaving() {
    // Run the same BFCE estimation repeatedly on a population large enough
    // to engage the parallel frame-fill path; the result must be bitwise
    // stable (counts merge by addition, never by racing).
    let run = || {
        let mut world = StdRng::seed_from_u64(11);
        let population = WorkloadSpec::T1.generate(300_000, &mut world);
        let mut system = RfidSystem::new(population);
        let mut rng = StdRng::seed_from_u64(13);
        Bfce::paper()
            .estimate(&mut system, Accuracy::paper_default(), &mut rng)
            .n_hat
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

/// Fault schedules are part of the determinism contract (ISSUE 6): a
/// faulted trial sweep must be bitwise replayable from its seed at any
/// `--jobs` setting. Exercises the fault plan's per-frame substreams, the
/// retry/salvage collector, and the quality accounting through the same
/// TrialRunner path the robustness ablation uses.
#[test]
fn fault_schedules_replay_bitwise_at_any_job_count() {
    use rfid_bfce_repro::experiments::engine::TrialRunner;
    use rfid_bfce_repro::experiments::robustness::FaultClass;
    use rfid_bfce_repro::hash::stream_seed;

    let classes = [FaultClass::Abort, FaultClass::Burst, FaultClass::Dropout];
    for (class_idx, class) in classes.iter().enumerate() {
        let sweep = |jobs: usize| -> Vec<(u64, u64, u64, u64, u32)> {
            TrialRunner::new(6, stream_seed(1701, class_idx as u64))
                .jobs(jobs)
                .map(|ctx| {
                    let mut system = class.build_system(4_000, 0.6, ctx.seed);
                    system.set_noise_seed(ctx.seed);
                    system.set_frame_min_chunk(ctx.frame_min_chunk);
                    let mut rng = ctx.rng();
                    let report =
                        Bfce::paper().estimate(&mut system, Accuracy::paper_default(), &mut rng);
                    let q = system.quality();
                    (
                        report.n_hat.to_bits(),
                        q.retries,
                        q.aborted_frames,
                        q.slots_corrupted,
                        q.readers_failed,
                    )
                })
        };
        let serial = sweep(1);
        assert_eq!(
            serial,
            sweep(4),
            "{}: faulted sweep differs between 1 and 4 workers",
            class.name()
        );
        assert_eq!(
            serial,
            sweep(1),
            "{}: serial faulted sweep drifted on re-run",
            class.name()
        );
    }
}

/// The batched word-level frame-fill kernel is an exact rewrite of the
/// scalar path: for the same plan the busy frame and observed response
/// count must be bit-identical, at any worker count. This is the
/// two-run determinism audit required of every parallel kernel in the
/// workspace (see DESIGN notes in `rfid_sim::parallel`).
#[test]
fn batched_bloom_fill_is_worker_count_invariant() {
    use rfid_bfce_repro::bfce::{BfceConfig, BloomPlan};
    use rfid_bfce_repro::sim::frame::{
        response_counts_reference, response_fill_with_threads,
    };
    use rfid_bfce_repro::sim::Tag;

    let cfg = BfceConfig::paper();
    let mut world = StdRng::seed_from_u64(0xDE7E_0001);
    let population = WorkloadSpec::T3.generate(40_000, &mut world);
    let tags: Vec<Tag> = population.tags().to_vec();
    let seeds = [0x0001_F00Du32, 0x0002_BEAD, 0x0003_C0DE];
    let plan = BloomPlan::new(&cfg, &seeds, 307);

    let counts = response_counts_reference(&tags, cfg.w, &plan, usize::MAX);
    let scalar_prefix: u64 = counts.iter().map(|&c| u64::from(c)).sum();

    let one = response_fill_with_threads(&tags, cfg.w, cfg.w, &plan, 1);
    let four = response_fill_with_threads(&tags, cfg.w, cfg.w, &plan, 4);

    // Batched output at 1 worker equals the scalar reference...
    for (slot, &c) in counts.iter().enumerate() {
        assert_eq!(
            one.busy.get(slot),
            c > 0,
            "slot {slot}: batched busy diverges from scalar count {c}"
        );
    }
    assert_eq!(one.prefix_responses, scalar_prefix);
    // ...and the worker count never changes a single word.
    assert_eq!(one.busy.words(), four.busy.words());
    assert_eq!(one.prefix_responses, four.prefix_responses);
    // Two runs at the same worker count are bit-identical too.
    let four_again = response_fill_with_threads(&tags, cfg.w, cfg.w, &plan, 4);
    assert_eq!(four.busy.words(), four_again.busy.words());
    assert_eq!(four.prefix_responses, four_again.prefix_responses);
}

/// The scalar/batched dispatch layer must be an observability no-op:
/// which kernel fills a frame can change the wall clock but never the
/// estimate, the air-time bill, or the round count. Audited at n = 1000
/// and around 4096 — the populations where a size threshold once routed
/// Bloom frames to the scalar kernel — for both dispatch modes and at
/// both serial and 4-worker trial sweeps, for an estimator on each frame
/// path (BFCE: bit frames; ZOE: singleton slot batches).
#[test]
fn dispatch_choice_never_changes_observations_at_the_boundary() {
    use rfid_bfce_repro::experiments::engine::TrialRunner;

    let estimators: Vec<Box<dyn CardinalityEstimator>> =
        vec![Box::new(Bfce::paper()), Box::new(Zoe::default())];
    let populations = [1_000usize, 4_095, 4_096, 4_097];
    let modes = [FillDispatch::Scalar, FillDispatch::Batched];
    for est in &estimators {
        for &n in &populations {
            let sweep = |dispatch: FillDispatch, jobs: usize| -> Vec<(u64, u64, u64)> {
                TrialRunner::new(3, 0x0d15_7a7c_4000 + n as u64)
                    .jobs(jobs)
                    .map(|ctx| {
                        let mut world = StdRng::seed_from_u64(ctx.seed);
                        let population = WorkloadSpec::T2.generate(n, &mut world);
                        let mut system = RfidSystem::new(population);
                        system.set_frame_min_chunk(ctx.frame_min_chunk);
                        system.set_fill_dispatch(dispatch);
                        let mut rng = ctx.rng();
                        let report = est.as_ref().estimate(
                            &mut system,
                            Accuracy::paper_default(),
                            &mut rng,
                        );
                        (
                            report.n_hat.to_bits(),
                            report.air.total_us().to_bits(),
                            report.rounds,
                        )
                    })
            };
            let reference = sweep(FillDispatch::Scalar, 1);
            for &mode in &modes {
                for jobs in [1usize, 4] {
                    assert_eq!(
                        reference,
                        sweep(mode, jobs),
                        "{}: n={n} dispatch={mode:?} jobs={jobs} diverged from scalar serial",
                        est.name()
                    );
                }
            }
        }
    }
}

#[test]
fn snapshot_merge_is_bitwise_invariant_under_order_and_parallelism() {
    // The merge-path determinism audit: per-reader snapshots must not
    // depend on the frame-fill chunking (the knob `--jobs` turns), and
    // the back-end fold must not depend on the order snapshots arrive —
    // so a multi-reader estimate is one number, reproducible anywhere.
    use rfid_bfce_repro::baselines::registers::collect_register_sketch;
    use rfid_bfce_repro::bfce::{merge_all, RegisterFlavor, Snapshot};
    use rfid_bfce_repro::sim::multireader::MultiReaderDeployment;

    let mut world = StdRng::seed_from_u64(0xD17E_0001);
    let population = WorkloadSpec::T2.generate(60_000, &mut world);
    let mut deployment = MultiReaderDeployment::new();
    for chunk in population.tags().chunks(60_000 / 8 + 1) {
        deployment.add_reader(chunk.to_vec());
    }

    let snapshots_with_chunk = |min_chunk: usize| -> Vec<Vec<u8>> {
        (0..deployment.reader_count())
            .map(|reader| {
                let mut system = deployment.reader_system(reader).expect("in range");
                system.set_frame_min_chunk(min_chunk);
                collect_register_sketch(RegisterFlavor::HllPp, 12, 32, &mut system, 0xD17E)
                    .snapshot()
            })
            .collect()
    };

    // Serial fill, tiny chunks (maximum parallel splits), and a mid-size
    // chunking must produce byte-identical snapshots per reader.
    let serial = snapshots_with_chunk(usize::MAX);
    assert_eq!(serial, snapshots_with_chunk(64));
    assert_eq!(serial, snapshots_with_chunk(1));

    // And the fold is order-invariant, bit for bit.
    let forward = merge_all(serial.iter().map(Vec::as_slice)).expect("compatible");
    let backward =
        merge_all(serial.iter().rev().map(Vec::as_slice)).expect("compatible");
    assert_eq!(forward.snapshot(), backward.snapshot());
    assert_eq!(forward.estimate().to_bits(), backward.estimate().to_bits());
}

#[test]
fn register_baselines_replay_exactly_per_seed() {
    // The two sketch baselines join the per-seed replay contract: same
    // seed, same estimate and air time; different seed, different draw.
    use rfid_bfce_repro::baselines::{HllPp, LogLogBeta};
    let estimators: Vec<Box<dyn CardinalityEstimator>> =
        vec![Box::new(HllPp::default()), Box::new(LogLogBeta::default())];
    for est in &estimators {
        let a = estimate_with(est.as_ref(), 42);
        let b = estimate_with(est.as_ref(), 42);
        assert_eq!(a, b, "{} not reproducible", est.name());
        let c = estimate_with(est.as_ref(), 43);
        assert_ne!(a.0, c.0, "{} ignores the seed", est.name());
    }
}
