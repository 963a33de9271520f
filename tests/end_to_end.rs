//! Cross-crate integration: workloads feed the simulator, estimators
//! drive it through the trait, and the air-time ledger accounts every
//! protocol faithfully.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_bfce_repro::baselines::{Art, Ezb, Fneb, HllPp, Lof, LogLogBeta, Mle, Pet, QInventory, Src, Upe, Zoe, A3};
use rfid_bfce_repro::prelude::*;
use rfid_bfce_repro::sim::CardinalityEstimator;
use rfid_cli::commands::{all_estimators, make_estimator, ESTIMATOR_NAMES};

fn system(spec: WorkloadSpec, n: usize, seed: u64) -> RfidSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    RfidSystem::new(spec.generate(n, &mut rng))
}

#[test]
fn bfce_meets_accuracy_on_every_paper_workload() {
    for (wi, spec) in WorkloadSpec::PAPER_SET.iter().enumerate() {
        for (si, &n) in [10_000usize, 200_000].iter().enumerate() {
            let mut sys = system(*spec, n, 100 + wi as u64);
            let mut rng = StdRng::seed_from_u64(7 + si as u64 + wi as u64 * 13);
            let report =
                Bfce::paper().estimate(&mut sys, Accuracy::paper_default(), &mut rng);
            let rel = report.relative_error(n);
            assert!(
                rel < 0.05,
                "{} @ n={n}: rel = {rel} (estimate {})",
                spec.name(),
                report.n_hat
            );
        }
    }
}

#[test]
fn estimators_compose_through_the_trait_object() {
    let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
        Box::new(Bfce::paper()),
        Box::new(Zoe::default()),
        Box::new(Src),
        Box::new(Ezb),
    ];
    let truth = 30_000usize;
    for est in estimators {
        let mut sys = system(WorkloadSpec::T2, truth, 55);
        let mut rng = StdRng::seed_from_u64(3);
        let report = est.estimate(&mut sys, Accuracy::new(0.1, 0.1), &mut rng);
        assert!(
            report.relative_error(truth) < 0.12,
            "{}: estimate {} for {truth}",
            est.name(),
            report.n_hat
        );
        // Every protocol leaves a faithful ledger trail.
        assert!(report.air.total_us() > 0.0);
        assert!(report.air.reader_messages > 0);
        let system_total = sys.air_time().total_us();
        assert!(
            (system_total - report.air.total_us()).abs() < 1e-6,
            "{}: report air {} != system ledger {}",
            est.name(),
            report.air.total_us(),
            system_total
        );
    }
}

#[test]
fn every_registered_estimator_answers_through_the_trait() {
    // The estimator set is *derived* from the CLI registry
    // (`rfid_cli::commands::ESTIMATOR_NAMES`) rather than hand-listed, so
    // a baseline added to the factory is automatically exercised here and
    // a stale hardcoded count can never mask a missing registration. The
    // analysis crate's estimator-registry rule demands every
    // `impl CardinalityEstimator` be registered; the type-level roll call
    // lives in `workspace_types_cover_the_registry` below.
    let estimators = all_estimators();
    assert_eq!(estimators.len(), ESTIMATOR_NAMES.len());
    let truth = 10_000usize;
    let mut names = std::collections::BTreeSet::new();
    for est in estimators {
        assert!(!est.name().is_empty(), "estimator with empty name");
        assert!(names.insert(est.name()), "duplicate name {}", est.name());
        let mut sys = system(WorkloadSpec::T1, truth, 21);
        let mut rng = StdRng::seed_from_u64(4);
        let report = est.estimate(&mut sys, Accuracy::new(0.2, 0.2), &mut rng);
        assert!(
            report.n_hat.is_finite() && report.n_hat > 0.0,
            "{}: degenerate estimate {}",
            est.name(),
            report.n_hat
        );
        assert!(report.air.total_us() > 0.0, "{}: empty air ledger", est.name());
    }
}

#[test]
fn workspace_types_cover_the_registry() {
    // The type-level roll call: every concrete `impl CardinalityEstimator`
    // in the workspace must be reachable through the CLI registry, under
    // the display name its type reports. A type missing from this list has
    // no CLI name; a name missing from the factory fails `all_estimators`.
    let concrete: Vec<(&str, Box<dyn CardinalityEstimator>)> = vec![
        ("bfce", Box::new(Bfce::paper())),
        ("zoe", Box::new(Zoe::default())),
        ("src", Box::new(Src)),
        ("lof", Box::new(Lof::default())),
        ("upe", Box::new(Upe)),
        ("ezb", Box::new(Ezb)),
        ("fneb", Box::new(Fneb)),
        ("art", Box::new(Art)),
        ("mle", Box::new(Mle)),
        ("pet", Box::new(Pet::default())),
        ("a3", Box::new(A3)),
        ("inventory", Box::new(QInventory::default())),
        ("hllpp", Box::new(HllPp::default())),
        ("llbeta", Box::new(LogLogBeta::default())),
    ];
    assert_eq!(concrete.len(), ESTIMATOR_NAMES.len());
    for (cli_name, est) in concrete {
        assert!(ESTIMATOR_NAMES.contains(&cli_name), "{cli_name}");
        let from_registry = make_estimator(cli_name).expect(cli_name);
        assert_eq!(from_registry.name(), est.name(), "{cli_name}");
    }
}

#[test]
fn bfce_execution_time_is_independent_of_cardinality_and_accuracy() {
    // The constant-time property, end to end: across two orders of
    // magnitude of n and the full accuracy grid, BFCE's air time stays in
    // a tight band (only the probe stage varies by a few windows).
    let mut times = Vec::new();
    for &n in &[20_000usize, 200_000, 1_000_000] {
        for &eps in &[0.05, 0.3] {
            let mut sys = system(WorkloadSpec::T1, n, n as u64);
            let mut rng = StdRng::seed_from_u64(n as u64 ^ 17);
            let report =
                Bfce::paper().estimate(&mut sys, Accuracy::new(eps, 0.05), &mut rng);
            times.push(report.air.total_seconds());
        }
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.15,
        "air time not constant: {times:?}"
    );
    assert!(max < 0.21, "air time {max} above the paper's ballpark");
}

#[test]
fn zoe_is_dominated_by_reader_traffic_and_bfce_by_tag_traffic() {
    // The architectural contrast the paper draws in Section I.
    let truth = 50_000usize;
    let mut sys = system(WorkloadSpec::T1, truth, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let zoe = Zoe::default().estimate(&mut sys, Accuracy::paper_default(), &mut rng);
    assert!(zoe.air.reader_us > zoe.air.tag_us);

    let mut sys2 = system(WorkloadSpec::T1, truth, 1);
    let bfce = Bfce::paper().estimate(&mut sys2, Accuracy::paper_default(), &mut rng);
    assert!(bfce.air.tag_us > bfce.air.reader_us);
    assert!(bfce.air.total_us() < zoe.air.total_us() / 10.0);
}

#[test]
fn lof_feeds_zoe_the_same_way_the_paper_wires_them() {
    // ZOE's first phase is LOF x10: its reported phase structure must
    // reflect that.
    let mut sys = system(WorkloadSpec::T3, 40_000, 2);
    let mut rng = StdRng::seed_from_u64(8);
    let report = Zoe::default().estimate(&mut sys, Accuracy::new(0.2, 0.2), &mut rng);
    assert_eq!(report.phases.len(), 2);
    assert!(report.phases[0].name.contains("LOF"));
    // LOF alone: 10 rounds * 32 slots.
    assert_eq!(report.phases[0].air.bitslots, 320);
}

#[test]
fn reports_surface_warnings_for_out_of_design_range_populations() {
    // 200 tags is far below the paper's design floor (n > 1000): BFCE
    // still answers, flags the best-effort path, and stays in the right
    // order of magnitude.
    let mut sys = system(WorkloadSpec::T1, 200, 3);
    let mut rng = StdRng::seed_from_u64(9);
    let run = Bfce::paper().run(&mut sys, Accuracy::paper_default(), &mut rng);
    assert!(!run.report.warnings.is_empty());
    assert!(
        (run.n_hat() - 200.0).abs() < 150.0,
        "estimate {} for 200 tags",
        run.n_hat()
    );
}
