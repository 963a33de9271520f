//! Ablation studies for the design choices the BFCE paper fixes
//! empirically (Section IV-B), plus extension studies beyond the paper:
//! hash quality, channel errors, and the related-work shootout.

use crate::engine::TrialRunner;
use crate::output::{fnum, Table};
use crate::runner::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_hash::stream_seed;
use rfid_baselines::all_baselines;
use rfid_bfce::overhead::nominal_total_seconds;
use rfid_bfce::theory::max_cardinality;
use rfid_bfce::{Bfce, BfceConfig, HasherKind};
use rfid_sim::{Accuracy, BitErrorChannel, CardinalityEstimator, RfidSystem, Timing};
use rfid_workloads::WorkloadSpec;

/// Why k = 3: accuracy and overhead across k = 1..=8 (Section IV-B's
/// "reasonable tradeoff between overhead and accuracy").
pub fn run_k_sweep(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(50_000usize, 500_000);
    let rounds = scale.pick(3u32, 10);
    let ks: &[usize] = match scale {
        Scale::Quick => &[1, 3, 6],
        Scale::Paper => &[1, 2, 3, 4, 5, 6, 7, 8],
    };
    let mut table = Table::new(
        format!("Ablation: number of hash functions k (n={n}, T1)"),
        &["k", "mean_err", "max_err", "mean_seconds"],
    );
    for &k in ks {
        let cfg = BfceConfig {
            k,
            ..BfceConfig::paper()
        };
        let out = TrialRunner::new(rounds, seed + k as u64)
            .run(&Bfce::new(cfg), WorkloadSpec::T1, n, Accuracy::paper_default())
            .outcome();
        table.push_row(vec![
            k.to_string(),
            fnum(out.mean_error),
            fnum(out.max_error),
            fnum(out.mean_seconds),
        ]);
    }
    table.note("paper: k=3 balances hash-count variance against per-tag work");
    table
}

/// Why w = 8192: accuracy, nominal air time, and the scalability ceiling
/// across Bloom vector sizes.
pub fn run_w_sweep(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(50_000usize, 200_000);
    let rounds = scale.pick(3u32, 10);
    let ws: &[usize] = match scale {
        Scale::Quick => &[2_048, 8_192, 32_768],
        Scale::Paper => &[1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536],
    };
    let mut table = Table::new(
        format!("Ablation: Bloom vector length w (n={n}, T1)"),
        &["w", "mean_err", "nominal_s", "max_cardinality"],
    );
    for &w in ws {
        let cfg = BfceConfig {
            w,
            rough_observe: (w / 8).max(1),
            ..BfceConfig::paper()
        };
        let out = TrialRunner::new(rounds, seed + w as u64)
            .run(&Bfce::new(cfg), WorkloadSpec::T1, n, Accuracy::paper_default())
            .outcome();
        table.push_row(vec![
            w.to_string(),
            fnum(out.mean_error),
            fnum(nominal_total_seconds(&Timing::c1g2(), &cfg)),
            fnum(max_cardinality(w, cfg.k, 1024)),
        ]);
    }
    table.note("paper: w=8192 scales past 19M tags while keeping air time < 0.19 s");
    table
}

/// Why c = 0.5: how often the rough lower bound actually lower-bounds `n`
/// across the coefficient range the paper allows (`[0.1, 0.9]`).
pub fn run_c_sweep(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(50_000usize, 500_000);
    let rounds = scale.pick(5u32, 20);
    let cs: &[f64] = match scale {
        Scale::Quick => &[0.1, 0.5, 0.9],
        Scale::Paper => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    };
    let mut table = Table::new(
        format!("Ablation: lower-bound coefficient c (n={n}, T1)"),
        &["c", "P(n_low<=n)", "provable_frac", "mean_err"],
    );
    for &c in cs {
        let cfg = BfceConfig {
            c,
            ..BfceConfig::paper()
        };
        let bfce = Bfce::new(cfg);
        let trials = TrialRunner::new(rounds, stream_seed(seed, (c * 1000.0) as u64))
            .map(|ctx| {
                let mut system = ctx.system(WorkloadSpec::T1, n);
                let mut rng = ctx.rng();
                let run = bfce.run(&mut system, Accuracy::paper_default(), &mut rng);
                (
                    run.rough.n_low <= n as f64,
                    run.accurate.as_ref().is_some_and(|a| a.provable),
                    run.report.relative_error(n),
                )
            });
        let lower_holds = trials.iter().filter(|t| t.0).count();
        let provable = trials.iter().filter(|t| t.1).count();
        let err_sum: f64 = trials.iter().map(|t| t.2).sum();
        table.push_row(vec![
            fnum(c),
            fnum(lower_holds as f64 / rounds as f64),
            fnum(provable as f64 / rounds as f64),
            fnum(err_sum / rounds as f64),
        ]);
    }
    table.note("paper: c=0.5 'can guarantee n_low <= n hold in most cases'");
    table
}

/// XOR-bitget vs full-avalanche hashing, across benign and adversarial
/// (sequential / clustered) tag-ID layouts.
pub fn run_hash_comparison(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(50_000usize, 200_000);
    let rounds = scale.pick(3u32, 10);
    let workloads = [
        WorkloadSpec::T1,
        WorkloadSpec::T2,
        WorkloadSpec::T3,
        WorkloadSpec::Sequential,
        WorkloadSpec::Clustered { block: 1000 },
    ];
    let mut table = Table::new(
        format!("Ablation: tag-side hash (n={n}, mean relative error)"),
        &["workload", "xor-bitget", "mix64"],
    );
    for spec in workloads {
        let mut row = vec![spec.name().to_string()];
        for hasher in [HasherKind::XorBitget, HasherKind::Mix64] {
            let cfg = BfceConfig {
                hasher,
                ..BfceConfig::paper()
            };
            let out = TrialRunner::new(rounds, seed)
                .run(&Bfce::new(cfg), spec, n, Accuracy::paper_default())
                .outcome();
            row.push(fnum(out.mean_error));
        }
        table.push_row(row);
    }
    table.note(
        "the paper's lightweight hash draws on the pre-stored RN, not the tag ID, \
         so even adversarial ID layouts stay uniform",
    );
    table
}

/// BFCE accuracy under channel bit errors (the paper assumes a perfect
/// channel; this quantifies the sensitivity of the idle-ratio inversion).
pub fn run_channel_sweep(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(50_000usize, 200_000);
    let rounds = scale.pick(3u32, 10);
    // The quick variant keeps only the endpoints of the paper grid: with
    // 3 trials the mid-grid BERs sit inside trial-to-trial variance, so a
    // smoke test on them is a seed lottery rather than a signal check.
    let bers: &[f64] = match scale {
        Scale::Quick => &[0.0, 0.05],
        Scale::Paper => &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05],
    };
    let mut table = Table::new(
        format!("Ablation: channel bit-error rate (n={n}, T1)"),
        &["ber", "mean_err", "max_err"],
    );
    let bfce = Bfce::paper();
    for &ber in bers {
        let out = TrialRunner::new(rounds, stream_seed(seed, (ber * 1e4) as u64))
            .run_with(n, Accuracy::paper_default(), |ctx| {
                let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, 1));
                let population = WorkloadSpec::T1.generate(n, &mut rng);
                let mut system = if ber > 0.0 {
                    RfidSystem::with_channel(
                        population,
                        Box::new(BitErrorChannel::new(ber)),
                    )
                } else {
                    RfidSystem::new(population)
                };
                system.set_noise_seed(ctx.seed);
                system.set_frame_min_chunk(ctx.frame_min_chunk);
                bfce.estimate(&mut system, Accuracy::paper_default(), &mut rng)
            })
            .outcome();
        table.push_row(vec![
            fnum(ber),
            fnum(out.mean_error),
            fnum(out.max_error),
        ]);
    }
    table.note("beyond the paper: sensitivity of the idle-ratio inversion to slot misreads");
    table
}

/// Probe-strategy extension: the paper's additive `+2/-1` numerator steps
/// versus geometric doubling/halving. Small populations expose the
/// additive rule's linear walk (the probe cost is the only non-constant
/// term in BFCE's execution time).
pub fn run_probe_strategy(scale: Scale, seed: u64) -> Table {
    let rounds = scale.pick(3u32, 10);
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_500, 10_000, 100_000],
        Scale::Paper => &[1_000, 1_500, 2_000, 5_000, 10_000, 50_000, 500_000],
    };
    let mut table = Table::new(
        "Extension: probe adjustment strategy (additive per the paper vs geometric)",
        &[
            "n",
            "probe_windows_additive",
            "probe_windows_geometric",
            "total_s_additive",
            "total_s_geometric",
        ],
    );
    for &n in ns {
        let mut cells = vec![n.to_string()];
        let mut windows = Vec::new();
        let mut seconds = Vec::new();
        for geometric in [false, true] {
            let cfg = BfceConfig {
                probe_geometric: geometric,
                ..BfceConfig::paper()
            };
            let bfce = Bfce::new(cfg);
            let trials = TrialRunner::new(rounds, stream_seed(seed, n as u64 * 31))
                .map(|ctx| {
                    let mut system = ctx.system(WorkloadSpec::T1, n);
                    let mut rng = ctx.rng();
                    let run = bfce.run(&mut system, Accuracy::paper_default(), &mut rng);
                    (run.probe.rounds as f64, run.report.air.total_seconds())
                });
            windows.push(trials.iter().map(|t| t.0).sum::<f64>() / rounds as f64);
            seconds.push(trials.iter().map(|t| t.1).sum::<f64>() / rounds as f64);
        }
        cells.push(fnum(windows[0]));
        cells.push(fnum(windows[1]));
        cells.push(fnum(seconds[0]));
        cells.push(fnum(seconds[1]));
        table.push_row(cells);
    }
    table.note(
        "the paper's overhead analysis omits the probe; at n ~ 1000 the additive \
         walk dominates execution time, geometric probing restores the constant",
    );
    table
}

/// PHY-link ablation: the execution-time comparison under different C1G2
/// link profiles (Tari / BLF / Miller). BFCE's constant-time property and
/// the protocol ranking must be robust to the physical rates, not an
/// artifact of the paper's nominal numbers.
pub fn run_link_sweep(scale: Scale, seed: u64) -> Table {
    use rfid_sim::LinkParams;
    let n = scale.pick(20_000usize, 100_000);
    let acc = Accuracy::paper_default();
    let profiles: [(&str, LinkParams); 3] = [
        ("paper-nominal", LinkParams::paper_nominal()),
        ("fast (Tari 6.25, BLF 640)", LinkParams::fast()),
        ("robust (Miller-8)", LinkParams::robust()),
    ];
    let mut table = Table::new(
        format!("Ablation: PHY link profile (n={n}, T2, eps=delta=0.05)"),
        &["profile", "BFCE_s", "ZOE_s", "SRC_s", "ZOE/BFCE"],
    );
    let bfce = Bfce::paper();
    let zoe = rfid_baselines::Zoe::default();
    let src = rfid_baselines::Src;
    for (name, link) in profiles {
        let timing = Timing::from_link(&link);
        let mut row = vec![name.to_string()];
        let mut times = Vec::new();
        for est in [&bfce as &dyn CardinalityEstimator, &zoe, &src] {
            let mut system = crate::runner::build_system(WorkloadSpec::T2, n, seed);
            system.set_timing(timing);
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1));
            let report = est.estimate(&mut system, acc, &mut rng);
            times.push(report.air.total_seconds());
        }
        row.push(fnum(times[0]));
        row.push(fnum(times[1]));
        row.push(fnum(times[2]));
        row.push(fnum(times[1] / times[0]));
        table.push_row(row);
    }
    table.note("the ranking (BFCE < SRC < ZOE at tight accuracy) holds on every profile");
    table
}

/// Tag-side computation cost (Section IV-E2's lightweight-hash claim,
/// quantified): operation counts per tag per protocol unit, from the
/// instrumented mirrors in `rfid_hash::opcount`.
pub fn run_tag_ops(_scale: Scale, _seed: u64) -> Table {
    use rfid_hash::opcount::{bfce_frame_ops, bfce_mix_frame_ops, zoe_slot_ops};
    let mut table = Table::new(
        "Extension: tag-side operations (per tag, per protocol unit)",
        &["scheme", "unit", "bitwise", "shift", "add", "compare", "mul", "total"],
    );
    let rows: [(&str, &str, rfid_hash::TagOps); 3] = [
        ("BFCE (xor-bitget)", "frame (k=3)", bfce_frame_ops(3)),
        ("BFCE (mix64)", "frame (k=3)", bfce_mix_frame_ops(3)),
        ("ZOE", "single slot", zoe_slot_ops()),
    ];
    for (scheme, unit, ops) in rows {
        table.push_row(vec![
            scheme.into(),
            unit.into(),
            ops.bitwise.to_string(),
            ops.shift.to_string(),
            ops.add.to_string(),
            ops.compare.to_string(),
            ops.mul.to_string(),
            ops.total().to_string(),
        ]);
    }
    table.note(
        "the paper's hash runs a BFCE frame with zero multiplications — \
         implementable in passive-tag logic; ZOE re-pays a full hash with \
         multiplies on every one of its thousands of slots",
    );
    table
}

/// Where exact identification stops being "easy and fast": Q-protocol
/// inventory vs BFCE estimation across cardinalities (the paper's Section
/// III-A scoping argument, quantified).
pub fn run_crossover(scale: Scale, seed: u64) -> Table {
    let ns: &[usize] = match scale {
        Scale::Quick => &[100, 1_000, 10_000],
        Scale::Paper => &[100, 300, 1_000, 3_000, 10_000, 30_000, 100_000],
    };
    let mut table = Table::new(
        "Extension: exact Q-inventory vs BFCE estimation (T1)",
        &["n", "inventory_s", "bfce_s", "bfce_err", "winner"],
    );
    let bfce = Bfce::paper();
    let inventory = rfid_baselines::QInventory::default();
    let mut crossover: Option<usize> = None;
    for &n in ns {
        let inv = TrialRunner::new(scale.pick(1, 3), seed)
            .run(&inventory, WorkloadSpec::T1, n, Accuracy::paper_default())
            .outcome();
        let est = TrialRunner::new(scale.pick(1, 3), seed + 1)
            .run(&bfce, WorkloadSpec::T1, n, Accuracy::paper_default())
            .outcome();
        let winner = if inv.mean_seconds < est.mean_seconds {
            "inventory"
        } else {
            if crossover.is_none() {
                crossover = Some(n);
            }
            "BFCE"
        };
        table.push_row(vec![
            n.to_string(),
            fnum(inv.mean_seconds),
            fnum(est.mean_seconds),
            fnum(est.mean_error),
            winner.into(),
        ]);
    }
    if let Some(n) = crossover {
        table.note(format!(
            "estimation overtakes exact counting by n = {n} — consistent with the \
             paper's 'more than 1000 tags' scoping"
        ));
    }
    table.note("inventory returns the exact count; BFCE returns an (0.05, 0.05) estimate");
    table
}

/// Tag energy (total transmissions) per estimator — the active-tag metric
/// the MLE line of work optimizes.
pub fn run_energy(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(20_000usize, 100_000);
    let rounds = scale.pick(1u32, 3);
    let acc = Accuracy::new(0.1, 0.1);
    let mut table = Table::new(
        format!("Extension: tag energy (transmissions) at n={n}, (0.1, 0.1)"),
        &["estimator", "tag_responses", "responses_per_tag", "air_s"],
    );
    let mut estimators: Vec<Box<dyn CardinalityEstimator>> = vec![Box::new(Bfce::paper())];
    estimators.extend(all_baselines());
    estimators.push(Box::new(rfid_baselines::QInventory::default()));
    for est in &estimators {
        let set = TrialRunner::new(rounds, seed).run(est.as_ref(), WorkloadSpec::T1, n, acc);
        let responses: u64 = set.records().iter().map(|r| r.air.tag_responses).sum();
        let secs: f64 = set.seconds().iter().sum();
        let mean_responses = responses as f64 / rounds as f64;
        table.push_row(vec![
            est.name().to_string(),
            fnum(mean_responses),
            fnum(mean_responses / n as f64),
            fnum(secs / rounds as f64),
        ]);
    }
    table.note(
        "responses_per_tag is the per-tag radio-activation count: the battery \
         drain proxy for active-tag deployments",
    );
    table
}

/// The full related-work shootout: every estimator in the workspace on one
/// population, accuracy and air time side by side.
pub fn run_shootout(scale: Scale, seed: u64) -> Table {
    let n = scale.pick(20_000usize, 100_000);
    let rounds = scale.pick(1u32, 3);
    let acc = Accuracy::new(0.1, 0.1);
    let mut table = Table::new(
        format!("Shootout: all estimators (n={n}, T1, eps=delta=0.1)"),
        &["estimator", "mean_err", "mean_seconds"],
    );
    let mut estimators: Vec<Box<dyn CardinalityEstimator>> = vec![Box::new(Bfce::paper())];
    estimators.extend(all_baselines());
    for est in &estimators {
        let out = TrialRunner::new(rounds, seed)
            .run(est.as_ref(), WorkloadSpec::T1, n, acc)
            .outcome();
        table.push_row(vec![
            est.name().to_string(),
            fnum(out.mean_error),
            fnum(out.mean_seconds),
        ]);
    }
    table.note("LOF and PET are rough (constant-factor) estimators by design");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_sweep_shows_k1_worse_than_k3() {
        let t = run_k_sweep(Scale::Quick, 1);
        assert_eq!(t.rows[0][0], "1");
        assert_eq!(t.rows[1][0], "3");
        // Not a strict guarantee per run, but with 3 rounds k=1's max
        // error should not beat k=3's by a wide margin; just check shape.
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn w_sweep_caps_scale_with_w() {
        let t = run_w_sweep(Scale::Quick, 2);
        let caps: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .collect();
        assert!(caps.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn c_sweep_small_c_always_lower_bounds() {
        let t = run_c_sweep(Scale::Quick, 3);
        // c = 0.1 row: P(n_low <= n) should be 1.
        let p: f64 = t.rows[0][1].parse().unwrap();
        assert!((p - 1.0).abs() < 1e-9, "P = {p}");
    }

    #[test]
    fn hash_comparison_covers_adversarial_workloads() {
        let t = run_hash_comparison(Scale::Quick, 4);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            for cell in &row[1..] {
                let err: f64 = cell.parse().unwrap();
                assert!(err < 0.1, "{row:?}");
            }
        }
    }

    #[test]
    fn link_sweep_preserves_the_ranking() {
        let t = run_link_sweep(Scale::Quick, 7);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let bfce: f64 = row[1].parse().unwrap();
            let zoe: f64 = row[2].parse().unwrap();
            let src: f64 = row[3].parse().unwrap();
            assert!(bfce < src && src < zoe, "{row:?}");
        }
        // The fast profile must actually be faster.
        let nominal_bfce: f64 = t.rows[0][1].parse().unwrap();
        let fast_bfce: f64 = t.rows[1][1].parse().unwrap();
        assert!(fast_bfce < nominal_bfce / 3.0);
    }

    #[test]
    fn channel_errors_degrade_accuracy() {
        let t = run_channel_sweep(Scale::Quick, 5);
        let clean: f64 = t.rows[0][1].parse().unwrap();
        let noisy: f64 = t.rows[1][1].parse().unwrap();
        assert!(noisy > clean, "clean {clean} vs noisy {noisy}");
    }

    #[test]
    fn shootout_includes_every_estimator() {
        let t = run_shootout(Scale::Quick, 6);
        // BFCE + every registered baseline; derived so growing the
        // baseline family can't silently shrink the shootout grid.
        assert_eq!(t.rows.len(), 1 + all_baselines().len());
        assert_eq!(t.rows[0][0], "BFCE");
        assert!(t.rows.iter().any(|r| r[0] == "A3"));
        assert!(t.rows.iter().any(|r| r[0] == "HLL++"));
        assert!(t.rows.iter().any(|r| r[0] == "LLBETA"));
    }
}
