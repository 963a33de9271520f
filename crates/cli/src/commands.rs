//! Subcommand implementations.

use crate::args::{
    CompareOpts, EstimateOpts, MergeOpts, RobustnessOpts, SnapshotOpts, WorkloadOpts,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_baselines::{
    Art, Ezb, Fneb, HllPp, Lof, LogLogBeta, Mle, Pet, QInventory, Src, Upe, Zoe, A3,
};
use rfid_experiments::robustness::FaultClass;
use rfid_experiments::TrialRunner;
use rfid_bfce::overhead::{nominal_total_seconds, total_bit_slots};
use rfid_bfce::theory::{gamma_bounds, max_cardinality};
use rfid_bfce::{AnySnapshot, Bfce, BfceConfig, BloomPlan, BloomSketch, Snapshot};
use rfid_sim::trace::{aggregate, render};
use rfid_sim::{
    Accuracy, BitErrorChannel, CardinalityEstimator, MultiReaderDeployment, RfidSystem,
    Timing,
};
use std::io::Write;

/// Every estimator name [`make_estimator`] accepts, in `rfid help` order.
///
/// This is the single registry the test suite derives estimator coverage
/// from; adding an estimator here without wiring it into
/// [`make_estimator`] fails the `factory_knows_every_estimator` test.
pub const ESTIMATOR_NAMES: [&str; 14] = [
    "bfce", "zoe", "src", "lof", "upe", "ezb", "fneb", "art", "mle", "pet", "a3",
    "inventory", "hllpp", "llbeta",
];

/// Build an estimator by CLI name.
pub fn make_estimator(name: &str) -> Option<Box<dyn CardinalityEstimator>> {
    match name.to_ascii_lowercase().as_str() {
        "bfce" => Some(Box::new(Bfce::paper())),
        "zoe" => Some(Box::new(Zoe::default())),
        "src" => Some(Box::new(Src)),
        "lof" => Some(Box::new(Lof::default())),
        "upe" => Some(Box::new(Upe)),
        "ezb" => Some(Box::new(Ezb)),
        "fneb" => Some(Box::new(Fneb)),
        "art" => Some(Box::new(Art)),
        "mle" => Some(Box::new(Mle)),
        "pet" => Some(Box::new(Pet::default())),
        "a3" => Some(Box::new(A3)),
        "inventory" => Some(Box::new(QInventory::default())),
        "hllpp" => Some(Box::new(HllPp::default())),
        "llbeta" => Some(Box::new(LogLogBeta::default())),
        _ => None,
    }
}

/// Every registered estimator, boxed, in [`ESTIMATOR_NAMES`] order.
pub fn all_estimators() -> Vec<Box<dyn CardinalityEstimator>> {
    ESTIMATOR_NAMES
        .iter()
        .map(|name| {
            // analysis:allow(unwrap): ESTIMATOR_NAMES is the factory's own key list; a miss is a compile-adjacent registry bug caught by every test
            make_estimator(name).expect("registry name missing from factory")
        })
        .collect()
}

fn build_system(opts: &EstimateOpts, seed: u64) -> RfidSystem {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let population = opts.workload.generate(opts.n, &mut rng);
    if opts.ber > 0.0 {
        let mut system = RfidSystem::with_channel(
            population,
            Box::new(BitErrorChannel::new(opts.ber)),
        );
        system.set_noise_seed(seed);
        system
    } else {
        RfidSystem::new(population)
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

/// `rfid estimate`.
pub fn estimate(opts: &EstimateOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let est = make_estimator(&opts.estimator)
        .ok_or_else(|| invalid(format!("unknown estimator '{}'", opts.estimator)))?;
    let accuracy = Accuracy::new(opts.epsilon, opts.delta);
    writeln!(
        out,
        "{} on {} tags ({}), requirement ({}, {}), channel {}",
        est.name(),
        opts.n,
        opts.workload.name(),
        opts.epsilon,
        opts.delta,
        if opts.ber > 0.0 { "bit-error" } else { "perfect" },
    )?;
    // Trials fan out across the engine's worker pool (`--jobs`); per-trial
    // seeds are stream-split from `--seed`, and results come back in trial
    // order, so the output is identical at any worker count.
    let reports = TrialRunner::new(opts.rounds, opts.seed)
        .jobs(opts.jobs)
        .map(|ctx| {
            let mut system = build_system(opts, ctx.seed);
            system.set_frame_min_chunk(ctx.frame_min_chunk);
            let mut rng = ctx.rng();
            est.estimate(&mut system, accuracy, &mut rng)
        });
    for (round, report) in reports.iter().enumerate() {
        writeln!(
            out,
            "round {:>2}: n_hat = {:>12.1}  rel_err = {:.4}  air = {:.4}s  \
             (reader {} bits, {} slots, {} tag tx)",
            round + 1,
            report.n_hat,
            report.relative_error(opts.n.max(1)),
            report.air.total_seconds(),
            report.air.reader_bits,
            report.air.bitslots + report.air.aloha_slots,
            report.air.tag_responses,
        )?;
        for warning in &report.warnings {
            writeln!(out, "  warning: {warning}")?;
        }
    }
    if opts.rounds > 1 {
        let errs: Vec<f64> = reports
            .iter()
            .map(|r| r.relative_error(opts.n.max(1)))
            .collect();
        let secs: Vec<f64> = reports.iter().map(|r| r.air.total_seconds()).collect();
        writeln!(
            out,
            "summary : {} trials  mean_err = {:.4}  p95_err = {:.4}  \
             mean_air = {:.4}s  p95_air = {:.4}s",
            opts.rounds,
            rfid_stats::mean(&errs),
            rfid_stats::percentile(&errs, 95.0),
            rfid_stats::mean(&secs),
            rfid_stats::percentile(&secs, 95.0),
        )?;
    }
    Ok(())
}

/// `rfid compare`.
pub fn compare(opts: &CompareOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let accuracy = Accuracy::new(opts.base.epsilon, opts.base.delta);
    writeln!(
        out,
        "{:<10} {:>12} {:>9} {:>10} {:>12}",
        "estimator", "n_hat", "rel_err", "air_s", "tag_tx"
    )?;
    for name in &opts.estimators {
        let est = make_estimator(name)
            .ok_or_else(|| invalid(format!("unknown estimator '{name}'")))?;
        let mut system = build_system(&opts.base, opts.base.seed);
        let mut rng = StdRng::seed_from_u64(opts.base.seed);
        let report = est.estimate(&mut system, accuracy, &mut rng);
        writeln!(
            out,
            "{:<10} {:>12.1} {:>9.4} {:>10.4} {:>12}",
            est.name(),
            report.n_hat,
            report.relative_error(opts.base.n.max(1)),
            report.air.total_seconds(),
            report.air.tag_responses,
        )?;
    }
    Ok(())
}

/// `rfid trace` — BFCE with the event recorder on.
pub fn trace(opts: &EstimateOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let mut system = build_system(opts, opts.seed);
    system.enable_trace();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let bfce = Bfce::paper();
    let run = bfce.run(
        &mut system,
        Accuracy::new(opts.epsilon, opts.delta),
        &mut rng,
    );
    let Some(events) = system.protocol_trace() else {
        return Err(std::io::Error::other(
            "protocol trace missing after enable_trace",
        ));
    };
    writeln!(
        out,
        "BFCE on {} tags: n_hat = {:.1} in {:.4}s\n",
        opts.n,
        run.n_hat(),
        run.report.air.total_seconds()
    )?;
    write!(out, "{}", render(events))?;
    writeln!(out, "\nby kind:")?;
    for (kind, count, total_us) in aggregate(events) {
        writeln!(out, "  {kind:<11} x{count:<6} {total_us:>12.2}us")?;
    }
    Ok(())
}

/// `rfid workload` — print the generated IDs.
pub fn workload(opts: &WorkloadOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let population = opts.spec.generate(opts.n, &mut rng);
    writeln!(out, "# {} IDs from {}", opts.n, opts.spec.name())?;
    writeln!(out, "id,rn")?;
    for tag in population.tags() {
        writeln!(out, "{},{}", { tag.id }, { tag.rn })?;
    }
    Ok(())
}

/// `rfid diff` — two-epoch differential estimation (same-seed frames).
pub fn diff(opts: &crate::args::DiffOpts, out: &mut dyn Write) -> std::io::Result<()> {
    use rfid_sim::{Tag, TagPopulation};
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let epoch1 = rfid_workloads::WorkloadSpec::T1.generate(opts.n, &mut rng);
    let mut epoch2: Vec<Tag> = epoch1.tags()[opts.departed..].to_vec();
    let arrivals = rfid_workloads::WorkloadSpec::T1.generate(opts.arrived, &mut rng);
    epoch2.extend_from_slice(arrivals.tags());

    let mut before = RfidSystem::new(epoch1);
    let mut after = RfidSystem::new(TagPopulation::new(epoch2));
    let p_n = ((8192.0f64 / (3.0 * opts.n.max(1) as f64) * 1024.0).round() as u32)
        .clamp(1, 1023);
    let result = rfid_bfce::diff::estimate_changes(
        &BfceConfig::paper(),
        &mut before,
        &mut after,
        p_n,
        &mut rng,
    );
    writeln!(
        out,
        "epoch 1: {} tags; true departed {}, true arrived {}",
        opts.n, opts.departed, opts.arrived
    )?;
    writeln!(
        out,
        "estimated departures: {:.1}   estimated arrivals: {:.1}   (p = {p_n}/1024)",
        result.departures, result.arrivals
    )?;
    writeln!(
        out,
        "air time: {:.4}s + {:.4}s (two same-seed frames)",
        before.air_time().total_seconds(),
        after.air_time().total_seconds()
    )?;
    for w in &result.warnings {
        writeln!(out, "warning: {w}")?;
    }
    Ok(())
}

/// `rfid robustness` — fault intensity x estimator sweep.
///
/// Every `(class, intensity, estimator)` cell fans its trials out through
/// [`TrialRunner`], with the fault schedule seeded per trial, so the
/// printed table is identical at any `--jobs` setting.
pub fn robustness(opts: &RobustnessOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let classes: Vec<FaultClass> = if opts.classes.is_empty() {
        FaultClass::all().to_vec()
    } else {
        opts.classes
            .iter()
            .map(|name| {
                FaultClass::parse(name)
                    .ok_or_else(|| invalid(format!("unknown fault class '{name}'")))
            })
            .collect::<Result<_, _>>()?
    };
    let estimators = opts
        .estimators
        .iter()
        .map(|name| {
            make_estimator(name).ok_or_else(|| invalid(format!("unknown estimator '{name}'")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let accuracy = Accuracy::new(opts.epsilon, opts.delta);
    writeln!(
        out,
        "robustness sweep: n = {}, {} trials per cell, requirement ({}, {})",
        opts.n, opts.trials, opts.epsilon, opts.delta
    )?;
    writeln!(
        out,
        "{:<14} {:>9} {:<10} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "class", "intensity", "estimator", "mean_err", "max_err", "degraded", "eps_eff", "retries"
    )?;
    for (class_idx, class) in classes.iter().enumerate() {
        for (lambda_idx, &lambda) in opts.intensities.iter().enumerate() {
            for (est_idx, est) in estimators.iter().enumerate() {
                let cell = (class_idx as u64) << 16
                    | (lambda_idx as u64) << 8
                    | est_idx as u64;
                let outcomes = TrialRunner::new(
                    opts.trials,
                    rfid_hash::stream_seed(opts.seed, cell),
                )
                .jobs(opts.jobs)
                .map(|ctx| {
                    let mut system = class.build_system(opts.n, lambda, ctx.seed);
                    system.set_noise_seed(ctx.seed);
                    system.set_frame_min_chunk(ctx.frame_min_chunk);
                    let mut rng = ctx.rng();
                    let report = est.estimate(&mut system, accuracy, &mut rng);
                    let quality = system.quality();
                    (
                        report.relative_error(opts.n.max(1)),
                        quality.degraded(),
                        quality.widened(accuracy).epsilon,
                        quality.retries,
                    )
                });
                let trials = outcomes.len() as f64;
                let mean_err = outcomes.iter().map(|o| o.0).sum::<f64>() / trials;
                let max_err = outcomes.iter().map(|o| o.0).fold(0.0, f64::max);
                let degraded =
                    outcomes.iter().filter(|o| o.1).count() as f64 / trials;
                let eps_eff = outcomes.iter().map(|o| o.2).sum::<f64>() / trials;
                let retries =
                    outcomes.iter().map(|o| o.3 as f64).sum::<f64>() / trials;
                writeln!(
                    out,
                    "{:<14} {:>9.2} {:<10} {:>9.4} {:>9.4} {:>9.2} {:>9.4} {:>8.1}",
                    class.name(),
                    lambda,
                    est.name(),
                    mean_err,
                    max_err,
                    degraded,
                    eps_eff,
                    retries,
                )?;
            }
        }
    }
    Ok(())
}

/// Split `tags` into per-reader coverages: even contiguous chunks, each
/// reader also covering an `overlap` fraction of the next reader's chunk
/// (wrapping), so shared tags exercise the de-duplicating merge.
fn coverage_split(
    tags: &[rfid_sim::Tag],
    readers: usize,
    overlap: f64,
) -> Vec<Vec<rfid_sim::Tag>> {
    let bounds: Vec<usize> = (0..=readers).map(|i| i * tags.len() / readers).collect();
    (0..readers)
        .map(|i| {
            let mut coverage = tags[bounds[i]..bounds[i + 1]].to_vec();
            if readers > 1 {
                let next = (i + 1) % readers;
                let next_chunk = &tags[bounds[next]..bounds[next + 1]];
                let shared = (overlap * next_chunk.len() as f64) as usize;
                coverage.extend_from_slice(&next_chunk[..shared]);
            }
            coverage
        })
        .collect()
}

/// Serialize one reader's sketch of its own coverage, air time charged to
/// that reader's system. All readers use the same broadcast seed(s), which
/// is what makes the snapshots mergeable.
fn collect_snapshot(
    sketch: &str,
    system: &mut RfidSystem,
    base_seed: u64,
) -> std::io::Result<Vec<u8>> {
    let shared = rfid_hash::stream_seed(base_seed, 0x534B_4554) as u32;
    match sketch {
        "hllpp" => Ok(HllPp::default().sketch(system, shared).snapshot()),
        "llbeta" => Ok(LogLogBeta::default().sketch(system, shared).snapshot()),
        "bloom" => {
            let cfg = BfceConfig::paper();
            let seeds: Vec<u32> = (0..cfg.k)
                .map(|j| rfid_hash::stream_seed(base_seed, j as u64 + 1) as u32)
                .collect();
            // The same load-matched persistence the diff pipeline uses:
            // p ~ w / (k n), quantized to the paper's 1/1024 grid.
            let n = system.true_cardinality().max(1);
            let p_n = ((cfg.w as f64 / (cfg.k as f64 * n as f64) * 1024.0).round()
                as u32)
                .clamp(1, 1023);
            let plan = BloomPlan::new(&cfg, &seeds, p_n);
            let frame = system.run_bitslot_frame(cfg.w, &plan);
            Ok(BloomSketch::from_frame(&cfg, &frame, &seeds, p_n).snapshot())
        }
        other => Err(invalid(format!("unknown sketch '{other}'"))),
    }
}

/// `rfid snapshot` — simulate a multi-reader deployment and write one
/// `rfid-sketch/v1` snapshot file per physical reader.
///
/// Note the per-reader persistence caveat for `--sketch bloom`: each
/// reader load-matches `p` to its *own* coverage, so bloom snapshots only
/// merge when the readers see similar loads (same-size coverages). The
/// register sketches (`hllpp`, `llbeta`) have no such coupling.
pub fn snapshot(opts: &SnapshotOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x9E37_79B9_7F4A_7C15);
    let population = opts.workload.generate(opts.n, &mut rng);

    let mut deployment = MultiReaderDeployment::new();
    for coverage in coverage_split(population.tags(), opts.readers, opts.overlap) {
        deployment.add_reader(coverage);
    }
    let truth = deployment
        .logical_population()
        .map_err(|e| invalid(e.to_string()))?
        .cardinality();
    writeln!(
        out,
        "{} deployment: {} readers over {} tags (union {}, overlap {})",
        opts.sketch, opts.readers, opts.n, truth, opts.overlap
    )?;

    for reader in 0..opts.readers {
        let mut system = deployment
            .reader_system(reader)
            .map_err(|e| invalid(e.to_string()))?;
        let bytes = collect_snapshot(&opts.sketch, &mut system, opts.seed)?;
        let path = format!("{}.reader{}.sketch", opts.out, reader);
        std::fs::write(&path, &bytes)?;
        writeln!(
            out,
            "reader {:>2}: {:>8} tags  {:>8} bytes  {:.4}s air  -> {}",
            reader,
            system.true_cardinality(),
            bytes.len(),
            system.air_time().total_seconds(),
            path,
        )?;
    }
    writeln!(
        out,
        "merge with: rfid merge --inputs {} --truth {truth}",
        (0..opts.readers)
            .map(|r| format!("{}.reader{r}.sketch", opts.out))
            .collect::<Vec<_>>()
            .join(","),
    )?;
    Ok(())
}

/// `rfid merge` — fold per-reader snapshot files into one estimate.
///
/// Every input is decoded on its own before the fold starts, so a
/// corrupted or truncated `.sketch` surfaces as `<path>: <wire error>` —
/// the typed [`WireError`] rendering, offset and variant included — and
/// the command exits 1 without blaming the merge step (or a different
/// file) for a decode failure.
///
/// [`WireError`]: rfid_bfce::WireError
pub fn merge(opts: &MergeOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let mut decoded: Vec<AnySnapshot> = Vec::with_capacity(opts.inputs.len());
    for path in &opts.inputs {
        let bytes = std::fs::read(path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("{path}: {e}"))
        })?;
        let snapshot =
            AnySnapshot::decode(&bytes).map_err(|e| invalid(format!("{path}: {e}")))?;
        decoded.push(snapshot);
    }
    let mut inputs = opts.inputs.iter().zip(decoded);
    let Some((_, mut merged)) = inputs.next() else {
        return Err(invalid("no snapshot inputs to merge".to_string()));
    };
    for (path, snapshot) in inputs {
        merged
            .merge(&snapshot)
            .map_err(|e| invalid(format!("{path}: {e}")))?;
    }
    write!(
        out,
        "merged {} snapshots ({}): n_hat = {:.1}",
        opts.inputs.len(),
        merged.kind().name(),
        merged.estimate(),
    )?;
    if let Some(truth) = opts.truth {
        let rel = (merged.estimate() - truth as f64).abs() / truth.max(1) as f64;
        write!(out, "  rel_err = {rel:.4} (truth {truth})")?;
    }
    writeln!(out)?;
    Ok(())
}

/// `rfid info` — the paper's headline numbers.
pub fn info(out: &mut dyn Write) -> std::io::Result<()> {
    let cfg = BfceConfig::paper();
    let timing = Timing::c1g2();
    let (gmin, gmax) = gamma_bounds(cfg.k, 1024);
    writeln!(out, "BFCE (ICPP 2015) — paper configuration")?;
    writeln!(out, "  w = {}, k = {}, c = {}", cfg.w, cfg.k, cfg.c)?;
    writeln!(out, "  bit-slot budget : {} (constant)", total_bit_slots(&cfg))?;
    writeln!(
        out,
        "  nominal air time: {:.4} s (< 0.19 s)",
        nominal_total_seconds(&timing, &cfg)
    )?;
    writeln!(out, "  gamma bounds    : {gmin:.6} .. {gmax:.1}")?;
    writeln!(
        out,
        "  max cardinality : {:.0}",
        max_cardinality(cfg.w, cfg.k, 1024)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{CompareOpts, EstimateOpts, RobustnessOpts, WorkloadOpts};
    use rfid_workloads::WorkloadSpec;

    fn capture(f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> String {
        let mut buf = Vec::new();
        f(&mut buf).expect("command failed");
        String::from_utf8(buf).expect("utf8")
    }

    #[test]
    fn factory_knows_every_estimator() {
        for name in ESTIMATOR_NAMES {
            assert!(make_estimator(name).is_some(), "{name}");
        }
        assert!(make_estimator("BFCE").is_some(), "case-insensitive");
        assert!(make_estimator("nope").is_none());
    }

    #[test]
    fn registry_is_the_single_source_of_truth() {
        let estimators = all_estimators();
        assert_eq!(estimators.len(), ESTIMATOR_NAMES.len());
        // Display names are distinct, so `compare` rows are unambiguous.
        let mut names: Vec<&str> = estimators.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ESTIMATOR_NAMES.len());
        // The help text advertises every registered name.
        for name in ESTIMATOR_NAMES {
            assert!(crate::args::USAGE.contains(name), "{name} missing from USAGE");
        }
    }

    #[test]
    fn estimate_command_produces_rounds() {
        let opts = EstimateOpts {
            n: 5_000,
            rounds: 2,
            ..EstimateOpts::default()
        };
        let s = capture(|out| estimate(&opts, out));
        assert!(s.contains("round  1"));
        assert!(s.contains("round  2"));
        assert!(s.contains("BFCE"));
    }

    #[test]
    fn estimate_output_is_identical_at_any_job_count() {
        // Per-trial seeds and trial-ordered output make the worker count
        // invisible in the results.
        let mk = |jobs| EstimateOpts {
            n: 5_000,
            rounds: 3,
            jobs,
            ..EstimateOpts::default()
        };
        let lone = capture(|out| estimate(&mk(1), out));
        let pooled = capture(|out| estimate(&mk(3), out));
        assert_eq!(lone, pooled);
        assert!(lone.contains("summary : 3 trials"));
    }

    #[test]
    fn estimate_caps_the_budget_of_tight_requests() {
        // Uncapped, SRC's frame at epsilon = 1e-6 would need ~8e12 slots
        // and UPE/EZB would run for minutes to hours of air time.
        for (estimator, epsilon, warning) in [
            ("src", 1e-6, "frame size capped at 1048576"),
            ("upe", 1e-4, "round budget capped at 512"),
            ("ezb", 1e-6, "round budget capped at 512"),
        ] {
            let opts = EstimateOpts {
                n: 2_000,
                estimator: estimator.into(),
                epsilon,
                jobs: 1,
                ..EstimateOpts::default()
            };
            let s = capture(|out| estimate(&opts, out));
            assert!(
                s.contains(&format!("warning: {warning}")),
                "{estimator} at epsilon {epsilon}:\n{s}"
            );
        }
    }

    #[test]
    fn estimate_rejects_unknown_estimator() {
        let opts = EstimateOpts {
            estimator: "bogus".into(),
            ..EstimateOpts::default()
        };
        let mut buf = Vec::new();
        assert!(estimate(&opts, &mut buf).is_err());
    }

    #[test]
    fn compare_lists_each_estimator_once() {
        let opts = CompareOpts {
            base: EstimateOpts {
                n: 3_000,
                ..EstimateOpts::default()
            },
            estimators: vec!["bfce".into(), "ezb".into()],
        };
        let s = capture(|out| compare(&opts, out));
        assert_eq!(s.matches("BFCE").count(), 1);
        assert_eq!(s.matches("EZB").count(), 1);
    }

    #[test]
    fn trace_prints_schedule_and_aggregate() {
        let opts = EstimateOpts {
            n: 2_000,
            ..EstimateOpts::default()
        };
        let s = capture(|out| trace(&opts, out));
        assert!(s.contains("bit-slots"));
        assert!(s.contains("by kind:"));
        assert!(s.contains("8192 slots"));
    }

    #[test]
    fn workload_emits_csv_rows() {
        let opts = WorkloadOpts {
            spec: WorkloadSpec::Sequential,
            n: 4,
            seed: 1,
        };
        let s = capture(|out| workload(&opts, out));
        assert_eq!(s.lines().count(), 2 + 4);
        assert!(s.starts_with("# 4 IDs from sequential"));
    }

    #[test]
    fn diff_command_reports_both_directions() {
        let opts = crate::args::DiffOpts {
            n: 40_000,
            departed: 4_000,
            arrived: 2_000,
            seed: 3,
        };
        let s = capture(|out| diff(&opts, out));
        assert!(s.contains("true departed 4000"));
        assert!(s.contains("estimated departures"));
        // Pull the two estimates out and sanity-check them.
        let line = s
            .lines()
            .find(|l| l.starts_with("estimated departures"))
            .unwrap();
        let nums: Vec<f64> = line
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        assert!((nums[0] - 4_000.0).abs() / 4_000.0 < 0.3, "{line}");
        assert!((nums[1] - 2_000.0).abs() / 2_000.0 < 0.4, "{line}");
    }

    #[test]
    fn robustness_command_prints_every_cell() {
        let opts = RobustnessOpts {
            n: 2_000,
            classes: vec!["abort".into(), "capture".into()],
            intensities: vec![0.5],
            estimators: vec!["bfce".into(), "zoe".into()],
            trials: 1,
            ..RobustnessOpts::default()
        };
        let s = capture(|out| robustness(&opts, out));
        assert_eq!(s.matches("abort").count(), 2);
        assert_eq!(s.matches("capture").count(), 2);
        assert!(s.contains("degraded"));
    }

    #[test]
    fn robustness_output_is_identical_at_any_job_count() {
        let mk = |jobs| RobustnessOpts {
            n: 2_000,
            classes: vec!["abort".into(), "dropout".into()],
            intensities: vec![0.75],
            estimators: vec!["bfce".into()],
            trials: 3,
            jobs,
            ..RobustnessOpts::default()
        };
        let lone = capture(|out| robustness(&mk(1), out));
        let pooled = capture(|out| robustness(&mk(3), out));
        assert_eq!(lone, pooled);
    }

    #[test]
    fn robustness_rejects_unknown_names() {
        let mut buf = Vec::new();
        let opts = RobustnessOpts {
            classes: vec!["gremlins".into()],
            ..RobustnessOpts::default()
        };
        assert!(robustness(&opts, &mut buf).is_err());
        let opts = RobustnessOpts {
            estimators: vec!["bogus".into()],
            ..RobustnessOpts::default()
        };
        assert!(robustness(&opts, &mut buf).is_err());
    }

    fn snapshot_opts(prefix: &str, sketch: &str, n: usize, readers: usize) -> SnapshotOpts {
        SnapshotOpts {
            n,
            sketch: sketch.into(),
            readers,
            out: std::env::temp_dir()
                .join(format!("rfid-cli-{prefix}-{}", std::process::id()))
                .display()
                .to_string(),
            ..SnapshotOpts::default()
        }
    }

    fn snapshot_paths(opts: &SnapshotOpts) -> Vec<String> {
        (0..opts.readers)
            .map(|r| format!("{}.reader{r}.sketch", opts.out))
            .collect()
    }

    fn remove_snapshots(opts: &SnapshotOpts) {
        for path in snapshot_paths(opts) {
            let _ = std::fs::remove_file(path);
        }
    }

    fn merged_n_hat(output: &str) -> f64 {
        let tail = output.split("n_hat = ").nth(1).expect("n_hat in output");
        tail.split_whitespace().next().unwrap().parse().expect("numeric n_hat")
    }

    #[test]
    fn snapshot_then_merge_recovers_the_union() {
        let opts = snapshot_opts("roundtrip", "hllpp", 40_000, 4);
        let s = capture(|out| snapshot(&opts, out));
        assert!(s.contains("4 readers over 40000 tags"));
        let inputs = snapshot_paths(&opts);
        for path in &inputs {
            assert!(std::path::Path::new(path).exists(), "{path}");
        }

        let merge_opts = MergeOpts {
            inputs: inputs.clone(),
            truth: Some(40_000),
        };
        let m = capture(|out| merge(&merge_opts, out));
        assert!(m.contains("merged 4 snapshots (hllpp)"), "{m}");
        assert!(m.contains("rel_err"), "{m}");
        let rel = (merged_n_hat(&m) - 40_000.0).abs() / 40_000.0;
        assert!(rel < 0.08, "{m}");

        // Merging is order-invariant: reversed inputs, identical output.
        let reversed = MergeOpts {
            inputs: inputs.into_iter().rev().collect(),
            truth: Some(40_000),
        };
        assert_eq!(m, capture(|out| merge(&reversed, out)));
        remove_snapshots(&opts);
    }

    #[test]
    fn snapshot_supports_every_sketch_kind() {
        for sketch in ["llbeta", "bloom"] {
            let opts = snapshot_opts(sketch, sketch, 8_000, 2);
            capture(|out| snapshot(&opts, out));
            let merge_opts = MergeOpts {
                inputs: snapshot_paths(&opts),
                truth: None,
            };
            let m = capture(|out| merge(&merge_opts, out));
            // Kind names: "llbeta", "bloom-frame" — both start with the CLI name.
            assert!(m.contains(&format!("({sketch}")), "{m}");
            let n_hat = merged_n_hat(&m);
            // Bloom readers load-match p to their own coverage (4k tags
            // each here, equal loads), so the merged frame still inverts.
            let rel = (n_hat - 8_000.0).abs() / 8_000.0;
            assert!(rel < 0.15, "{sketch}: {m}");
            remove_snapshots(&opts);
        }
    }

    #[test]
    fn snapshot_rejects_unknown_sketch_and_merge_rejects_mixtures() {
        let opts = snapshot_opts("bogus", "bogus", 100, 1);
        let mut buf = Vec::new();
        assert!(snapshot(&opts, &mut buf).is_err());

        let a = snapshot_opts("mix-a", "hllpp", 1_000, 1);
        let b = snapshot_opts("mix-b", "bloom", 1_000, 1);
        capture(|out| snapshot(&a, out));
        capture(|out| snapshot(&b, out));
        let merge_opts = MergeOpts {
            inputs: vec![snapshot_paths(&a).remove(0), snapshot_paths(&b).remove(0)],
            truth: None,
        };
        let err = merge(&merge_opts, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("kinds differ"), "{err}");
        remove_snapshots(&a);
        remove_snapshots(&b);
    }

    #[test]
    fn merge_renders_every_wire_error_with_file_attribution() {
        // One corruption recipe per WireError variant. Each must surface
        // as `<path>: <typed rendering>` — the Display form with its
        // offset/value detail — never a bare Debug dump, and never blame
        // the healthy first input.
        use rfid_bfce::sketch::wire::{checksum, MAGIC};

        let opts = snapshot_opts("wire-errors", "hllpp", 2_000, 1);
        capture(|out| snapshot(&opts, out));
        let good_path = snapshot_paths(&opts).remove(0);
        let good = std::fs::read(&good_path).expect("read snapshot");
        let body = good[..good.len() - 8].to_vec();
        // Re-seal a corrupted body under a fresh checksum so decoding
        // reaches the variant under test instead of tripping on the sum.
        let reseal = |mut body: Vec<u8>| -> Vec<u8> {
            let sum = checksum(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            body
        };

        let wrong_version = {
            let mut b = good.clone();
            b[13] = b'9'; // rfid-sketch/v9
            b
        };
        let unknown_kind = {
            let mut b = body.clone();
            b[MAGIC.len()] = 0x09;
            reseal(b)
        };
        let bad_checksum = {
            let mut b = good.clone();
            let last = b.len() - 1;
            b[last] ^= 0xFF;
            b
        };
        let invalid_field = {
            // A bloom-frame snapshot whose frame length field is zero.
            let mut b = MAGIC.to_vec();
            b.push(0x01); // SketchKind::BloomFrame
            b.extend_from_slice(&0u32.to_le_bytes());
            reseal(b)
        };
        let trailing = {
            let mut b = body.clone();
            b.push(0x00);
            reseal(b)
        };

        let cases: Vec<(&str, Vec<u8>, Vec<&str>)> = vec![
            ("bad-magic", b"definitely not a sketch".to_vec(), vec!["bad magic"]),
            ("unsupported-version", wrong_version, vec!["version not supported"]),
            (
                "truncated",
                good[..20].to_vec(),
                vec!["truncated snapshot", "at offset 20"],
            ),
            ("unknown-kind", unknown_kind, vec!["unknown sketch kind 0x09"]),
            ("bad-checksum", bad_checksum, vec!["checksum mismatch"]),
            (
                "invalid",
                invalid_field,
                vec!["invalid snapshot field", "frame length outside [1, 2^24]"],
            ),
            ("trailing-bytes", trailing, vec!["1 trailing bytes"]),
        ];
        for (name, bytes, needles) in cases {
            let path = std::env::temp_dir()
                .join(format!("rfid-cli-wire-{name}-{}.sketch", std::process::id()))
                .display()
                .to_string();
            std::fs::write(&path, &bytes).expect("write corrupted fixture");
            let merge_opts = MergeOpts {
                inputs: vec![good_path.clone(), path.clone()],
                truth: None,
            };
            let err = merge(&merge_opts, &mut Vec::new())
                .expect_err("corrupted input must fail the merge");
            let msg = err.to_string();
            assert!(msg.contains(&path), "{name}: no file attribution — {msg}");
            assert!(
                !msg.contains(&good_path),
                "{name}: blamed the healthy input — {msg}"
            );
            for needle in needles {
                assert!(msg.contains(needle), "{name}: missing `{needle}` — {msg}");
            }
            assert!(
                !msg.contains("WireError") && !msg.contains("Truncated {"),
                "{name}: bare Debug leaked into the message — {msg}"
            );
            let _ = std::fs::remove_file(&path);
        }
        remove_snapshots(&opts);
    }

    #[test]
    fn merge_reports_missing_files_by_path() {
        let merge_opts = MergeOpts {
            inputs: vec!["/nonexistent/readers.sketch".into()],
            truth: None,
        };
        let err = merge(&merge_opts, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/readers.sketch"));
    }

    #[test]
    fn info_mentions_headline_numbers() {
        let s = capture(info);
        assert!(s.contains("9216"));
        assert!(s.contains("0.1846"));
    }
}
