//! The law of a ZOE slot run walked once per tag.
//!
//! `Zoe::run_slots` cuts one slot run into 512-slot batches that are
//! consecutive windows of one geometric-gap walk per tag
//! (`ZoeSlotPlan::run`). Geometric gaps are memoryless, so the walk is
//! i.i.d. Bernoulli(`p`) per (tag, slot) across batch boundaries too. The
//! kernel tests hold the batches to that walk bit for bit; this file holds
//! the walk to the law:
//!
//! * **Across a batch boundary.** Over 2 000 two-batch runs on 10 000 tags
//!   at the load λ* = 1.594, the Pearson correlation of the two batches'
//!   idle counts must lie within `±4 / √runs`, and each batch's mean idle
//!   fraction within 4σ of `e^-λ` (σ of the binomial idle count over
//!   `512 · runs` slots; the bias of `(1 - p)^n` against `e^-λ` is 0.07σ).
//! * **End to end.** ZOE must still meet (ε, δ) = (0.05, 0.05): over 200
//!   seeds at each n ∈ {1e4, 1e5}, a one-sided binomial test of the miss
//!   count against δ must not reject at the 0.1 % level.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_bfce_repro::baselines::{Zoe, ZoeSlotPlan};
use rfid_bfce_repro::hash::stream_seed;
use rfid_bfce_repro::sim::frame::response_fills_with_threads;
use rfid_bfce_repro::sim::{Accuracy, CardinalityEstimator, RfidSystem};
use rfid_bfce_repro::stats::binomial_tail_ge;
use rfid_bfce_repro::workloads::WorkloadSpec;

/// ZOE's variance-optimal load.
const LAMBDA: f64 = 1.594;

/// Slots per batch, as `Zoe::run_slots` cuts a run.
const BATCH: usize = 512;

/// Pearson correlation coefficient of two equal-length samples.
fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    sxy / (sxx * syy).sqrt()
}

#[test]
fn batches_of_a_run_stay_independent_across_the_boundary() {
    let (n, runs) = (10_000usize, 2_000u64);
    let population = WorkloadSpec::T1.generate(n, &mut StdRng::seed_from_u64(0x2_0E1A));
    let tags = population.tags();
    let p = LAMBDA / n as f64;
    let (mut idle0, mut idle1) = (Vec::new(), Vec::new());
    for r in 0..runs {
        let run = ZoeSlotPlan::run(stream_seed(0x2_0E1B, r), p, &[BATCH, BATCH]);
        let fills = response_fills_with_threads(tags, &[(BATCH, BATCH); 2], &run, 1);
        let idle = |i: usize| (BATCH - fills[i].busy.count_ones()) as f64;
        idle0.push(idle(0));
        idle1.push(idle(1));
    }

    let r = pearson(&idle0, &idle1);
    let band = 4.0 / (runs as f64).sqrt();
    eprintln!("batch 0/1 idle-count correlation r = {r:.4} (band ±{band:.4})");
    assert!(
        r.abs() < band,
        "batch 0/1 idle counts correlate: r = {r:.4} outside ±{band:.4}"
    );

    let q = (-LAMBDA).exp();
    let slots = (BATCH as u64 * runs) as f64;
    let sigma = (q * (1.0 - q) / slots).sqrt();
    for (i, idle) in [&idle0, &idle1].into_iter().enumerate() {
        let mean = idle.iter().sum::<f64>() / slots;
        eprintln!(
            "batch {i}: mean idle fraction {mean:.5} vs e^-λ {q:.5} ({:+.2}σ)",
            (mean - q) / sigma
        );
        assert!(
            (mean - q).abs() < 4.0 * sigma,
            "batch {i}: mean idle fraction {mean:.5} is {:.1}σ from e^-λ = {q:.5}",
            (mean - q).abs() / sigma
        );
    }
}

#[test]
fn zoe_meets_the_guarantee_on_one_walk_per_run() {
    let accuracy = Accuracy::paper_default();
    let rounds = 200u64;
    for (n, root) in [(10_000usize, 0x2_0E1Cu64), (100_000, 0x2_0E1D)] {
        let population = WorkloadSpec::T1.generate(n, &mut StdRng::seed_from_u64(root));
        let mut system = RfidSystem::new(population);
        let misses = (0..rounds)
            .filter(|&r| {
                let mut rng = StdRng::seed_from_u64(stream_seed(root, r));
                let n_hat = Zoe::default()
                    .estimate(&mut system, accuracy, &mut rng)
                    .n_hat;
                system.reset_ledger();
                !accuracy.satisfied_by(n_hat, n)
            })
            .count() as u64;
        // One-sided binomial test of the miss count against delta.
        let p_value = binomial_tail_ge(rounds, misses, accuracy.delta);
        eprintln!("n = {n}: {misses}/{rounds} misses (p = {p_value:.3})");
        assert!(
            p_value >= 0.001,
            "n = {n}: {misses}/{rounds} ZOE estimates missed ±{} (p = {p_value:.2e})",
            accuracy.epsilon
        );
    }
}
