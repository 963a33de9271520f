//! Property-based tests for the baseline estimators' pure kernels.

use rfid_baselines::a3::round_relative_variance;
use rfid_baselines::common::{clamped_rho, median, required_trials};
use rfid_baselines::mle::{mle_solve, FrameObservation};
use rfid_baselines::upe::collision_lambda;
use rfid_baselines::ZoeSlotPlan;
use rfid_check::{check, CASES};
use rfid_stats::d_for_delta;

/// `collision_lambda` inverts `1 - e^-l (1 + l)` to 1e-6 relative, or to
/// the width in `l` of one ulp of the fraction where the curve is flatter
/// than that: past l ~ 25 the fraction sits a few ulps below 1.0 and
/// carries almost no information. The protocol never operates there (a
/// frame that collided everywhere is re-run).
fn inverts_the_collision_curve(l: f64) {
    let frac = 1.0 - (-l).exp() * (1.0 + l);
    let got = collision_lambda(frac).expect("in range");
    let one_ulp = f64::EPSILON / (l * (-l).exp());
    assert!(
        (got - l).abs() < (1e-6 * l.max(1.0)).max(one_ulp),
        "{l} -> {got}"
    );
}

#[test]
fn collision_lambda_inverts_the_collision_curve() {
    // A past failure: a load so high that one ulp of the fraction spans
    // about 0.02 in lambda.
    inverts_the_collision_curve(36.330_441_671_522_36);
    check("collision_lambda_inverts_the_collision_curve", CASES, |g| {
        inverts_the_collision_curve(g.f64(0.001..20.0));
    });
}

#[test]
fn collision_lambda_rejects_out_of_range() {
    check("collision_lambda_rejects_out_of_range", CASES, |g| {
        assert!(collision_lambda(g.f64(1.0..10.0)).is_none());
    });
}

#[test]
fn required_trials_monotone_in_epsilon() {
    check("required_trials_monotone_in_epsilon", CASES, |g| {
        let (eps, delta, lambda) = (g.f64(0.01..0.4), g.f64(0.01..0.4), g.f64(0.2..4.0));
        let d = d_for_delta(delta);
        let tight = required_trials(eps, d, lambda);
        let loose = required_trials((eps * 1.5).min(0.45), d, lambda);
        assert!(loose <= tight);
        assert!(tight >= 1);
    });
}

#[test]
fn clamped_rho_is_always_invertible() {
    check("clamped_rho_is_always_invertible", CASES, |g| {
        let (idle, extra) = (g.range(0usize..10_000), g.range(0usize..10_000));
        let total = idle + extra + 1;
        let rho = clamped_rho(idle.min(total), total);
        assert!(rho > 0.0 && rho < 1.0);
        assert!(rho.ln().is_finite());
    });
}

#[test]
fn median_lies_within_the_sample() {
    check("median_lies_within_the_sample", CASES, |g| {
        let mut xs = g.vec(1..100, |g| g.f64(-1e6..1e6));
        let m = median(&mut xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(m >= xs[0] && m <= xs[xs.len() - 1]);
    });
}

#[test]
fn median_is_permutation_invariant() {
    check("median_is_permutation_invariant", CASES, |g| {
        let xs = g.vec(1..50, |g| g.f64(-1e3..1e3));
        let mut a = xs.clone();
        let mut b = xs.clone();
        b.rotate_left(g.range(0usize..50) % xs.len().max(1));
        assert_eq!(median(&mut a), median(&mut b));
    });
}

#[test]
fn mle_recovers_n_from_exact_expectations() {
    let f = 512usize;
    check("mle_recovers_n_from_exact_expectations", CASES, |g| {
        let draw = |g: &mut rfid_check::Gen| {
            let (n, base_p) = (g.f64(1_000.0..1e6), g.f64(0.001..0.05));
            let obs: Vec<FrameObservation> = (0..3)
                .map(|i| {
                    let p = base_p / 2f64.powi(i);
                    let lambda = p * n / f as f64;
                    FrameObservation {
                        p,
                        f,
                        busy: ((1.0 - (-lambda).exp()) * f as f64).round() as usize,
                    }
                })
                .collect();
            (n, obs)
        };
        let (n, obs) = g.such_that(draw, |(_, obs)| {
            obs.iter().any(|o| o.busy > 0 && o.busy < f)
        });
        let got = mle_solve(&obs, 1e9).expect("solver returns a root for valid input");
        // Rounding busy counts to integers injects up to 0.5/f of
        // quantization error per frame.
        assert!(((got - n) / n).abs() < 0.25, "{n} -> {got}");
    });
}

#[test]
fn a3_round_variance_positive_and_shrinks_with_frame() {
    check(
        "a3_round_variance_positive_and_shrinks_with_frame",
        CASES,
        |g| {
            let (lambda, f) = (g.f64(0.05..6.0), g.range(16usize..8192));
            let v1 = round_relative_variance(lambda, f);
            let v2 = round_relative_variance(lambda, f * 2);
            assert!(v1 > 0.0);
            assert!((v2 - v1 / 2.0).abs() < 1e-12 * v1.max(1.0));
        },
    );
}

/// The ZOE slot-batch plan's scalar walk and batched chunk fill are
/// the same kernel: for arbitrary populations, participation
/// probabilities, batch widths, and worker counts, the busy frame and
/// observed-response totals agree bit for bit.
#[test]
fn zoe_slot_plan_scalar_and_batched_fill_identically() {
    use rfid_sim::frame::{response_counts_reference, response_fill_with_threads};
    use rfid_sim::{ScalarRef, Tag};

    check(
        "zoe_slot_plan_scalar_and_batched_fill_identically",
        CASES,
        |g| {
            let tags = g.vec(0..200, |g| Tag {
                id: g.u64(),
                rn: g.u32(),
            });
            let (batch, batch_root, p_raw) = (g.range(1usize..700), g.u64(), g.f64(1e-6..1.0));
            let threads = g.pick(&[1usize, 2, 4, 8]);
            let plan = ZoeSlotPlan::new(batch, batch_root, p_raw);

            let counts = response_counts_reference(&tags, batch, &plan, usize::MAX);
            let scalar = response_fill_with_threads(&tags, batch, batch, &ScalarRef(&plan), 1);
            let batched = response_fill_with_threads(&tags, batch, batch, &plan, threads);

            assert_eq!(scalar.busy.words(), batched.busy.words());
            assert_eq!(scalar.prefix_responses, batched.prefix_responses);
            for (slot, &c) in counts.iter().enumerate() {
                assert_eq!(batched.busy.get(slot), c > 0, "slot {slot}");
            }
            let want: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            assert_eq!(batched.prefix_responses, want);
        },
    );
}

/// The register-collection plan's scalar `responses()` and its
/// sink-direct chunk fill are the same kernel: for arbitrary populations,
/// seeds, precisions, rank levels, observed prefixes and worker counts,
/// the busy frame and observed-response totals agree bit for bit, and
/// every tag answers exactly one cell.
#[test]
fn register_frame_plan_scalar_and_batched_fill_identically() {
    use rfid_baselines::registers::RegisterFramePlan;
    use rfid_sim::frame::{response_counts_reference, response_fill_with_threads};
    use rfid_sim::{ScalarRef, Tag};

    check(
        "register_frame_plan_scalar_and_batched_fill_identically",
        CASES,
        |g| {
            let tags = g.vec(0..1_200, |g| Tag {
                id: g.u64(),
                rn: g.u32(),
            });
            let (seed, precision, levels) = (g.u32(), g.range(4u8..=12), g.range(1u8..=61));
            let w = (1usize << precision) * usize::from(levels);
            let observe = if g.bool() { w } else { g.range(1..=w) };
            let threads = g.pick(&[1usize, 2, 4]);
            let plan = RegisterFramePlan::new(seed, precision, levels);

            let counts = response_counts_reference(&tags, w, &plan, usize::MAX);
            let scalar = response_fill_with_threads(&tags, w, observe, &ScalarRef(&plan), 1);
            let batched = response_fill_with_threads(&tags, w, observe, &plan, threads);

            assert_eq!(scalar.busy.words(), batched.busy.words());
            assert_eq!(scalar.prefix_responses, batched.prefix_responses);
            for (slot, &c) in counts.iter().take(observe).enumerate() {
                assert_eq!(batched.busy.get(slot), c > 0, "slot {slot}");
            }
            let answered: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            assert_eq!(answered, tags.len() as u64);
            let observed: u64 = counts.iter().take(observe).map(|&c| u64::from(c)).sum();
            assert_eq!(batched.prefix_responses, observed);
        },
    );
}

/// The geometric-skip walk visits each slot independently with
/// probability `p`: at `p = 1` every tag answers every slot, and the
/// visit sequence is strictly increasing and in range for any `p`.
#[test]
fn zoe_walk_rate_and_order_are_sane() {
    use rfid_sim::{ResponsePlan, Tag};

    check("zoe_walk_rate_and_order_are_sane", CASES, |g| {
        let tag = Tag {
            id: g.u64(),
            rn: g.u32(),
        };
        let (batch, batch_root, p_raw) = (g.range(1usize..600), g.u64(), g.f64(1e-6..1.0));
        let plan = ZoeSlotPlan::new(batch, batch_root, p_raw);
        let mut slots = Vec::new();
        plan.responses(&tag, &mut slots);
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "visits not increasing"
        );
        assert!(slots.iter().all(|&s| s < batch), "visit out of range");
        let full = ZoeSlotPlan::new(batch, batch_root, 1.0);
        let mut everything = Vec::new();
        full.responses(&tag, &mut everything);
        let want: Vec<usize> = (0..batch).collect();
        assert_eq!(everything, want);
    });
}

/// Frame by frame, a multi-frame fill (`ResponsePlan::fill_frames`, one
/// pass over the tags for all frames) of ZOE seed batches and of LOF
/// geometric frames equals each plan's own `fill_chunk` and its scalar
/// `responses()`: the same busy bits and prefix responses. Passes of 1, 2,
/// 10 and 11 frames, at one and two workers, over populations at the
/// worker split (1024 tags) and the ZOE ID-hash block (64 tags).
#[test]
fn multi_frame_fills_match_each_plans_own_fill() {
    use rfid_baselines::common::{geometric_frame_plan, GeometricFramePlan};
    use rfid_sim::frame::{response_fill_with_threads, response_fills_with_threads};
    use rfid_sim::{ResponsePlan, ScalarRef, Tag};

    fn assert_frames_match<P: ResponsePlan>(
        tags: &[Tag],
        frames: &[(usize, usize)],
        plans: &[P],
        threads: usize,
    ) {
        let fills = response_fills_with_threads(tags, frames, plans, threads);
        assert_eq!(fills.len(), plans.len());
        for (i, ((fill, &(w, observe)), plan)) in fills.iter().zip(frames).zip(plans).enumerate() {
            let own = response_fill_with_threads(tags, w, observe, plan, 1);
            let scalar = response_fill_with_threads(tags, w, observe, &ScalarRef(plan), 1);
            assert_eq!(
                fill,
                &own,
                "frame {i} of {}: not the plan's fill_chunk",
                plans.len()
            );
            assert_eq!(
                fill,
                &scalar,
                "frame {i} of {}: not the scalar responses()",
                plans.len()
            );
        }
    }

    check("multi_frame_fills_match_each_plans_own_fill", 48, |g| {
        let n = g.pick(&[0usize, 1, 63, 64, 65, 1000, 1023, 1024, 1025]);
        let tags: Vec<Tag> = (0..n)
            .map(|_| Tag {
                id: g.u64(),
                rn: g.u32(),
            })
            .collect();
        let (k, threads) = (g.pick(&[1usize, 2, 10, 11]), g.pick(&[1usize, 2]));
        // A frame observed in full, or up to a prefix, half of the time each.
        let observe = |g: &mut rfid_check::Gen, w: usize| if g.bool() { w } else { g.range(0..=w) };

        // ZOE: 512-slot and shorter batches, the last one short, at a load
        // log-uniform from the production 1.594/n up to 1.
        let floor = (1.594 / n.max(1) as f64).min(1.0);
        let p = floor.powf(g.f64(0.0..1.0));
        let widths: Vec<usize> = (0..k)
            .map(|i| {
                if i + 1 < k && g.bool() {
                    512
                } else {
                    g.range(1usize..512)
                }
            })
            .collect();
        let zoe: Vec<ZoeSlotPlan> = widths
            .iter()
            .map(|&batch| ZoeSlotPlan::new(batch, g.u64(), p))
            .collect();
        let frames: Vec<(usize, usize)> = widths.iter().map(|&w| (w, observe(g, w))).collect();
        assert_frames_match(&tags, &frames, &zoe, threads);

        // LOF: k geometric frames of f levels under their own seeds.
        let f = g.pick(&[1usize, 2, 32, 65, 100]);
        let lof: Vec<GeometricFramePlan> =
            (0..k).map(|_| geometric_frame_plan(g.u32(), f)).collect();
        let frames: Vec<(usize, usize)> = (0..k).map(|_| (f, observe(g, f))).collect();
        assert_frames_match(&tags, &frames, &lof, threads);
    });
}

/// The batches of one ZOE slot run (`ZoeSlotPlan::run`) are windows of one
/// walk per tag: every contiguous sub-run `plans[a..b]`, filled in one
/// multi-frame pass, equals each batch's own scalar `responses()` fill,
/// and both equal the fill of the float-only reference walk. Runs of 1, 2,
/// 10 and 11 batches whose last batch is short, at one and two workers,
/// observed in full or up to a prefix, at a load log-uniform from the
/// production 1.594/n up to 1.
#[test]
fn run_sub_fills_match_each_batchs_own_fill() {
    use rfid_sim::frame::{response_fill_with_threads, response_fills_with_threads};
    use rfid_sim::{ScalarRef, Tag};

    check("run_sub_fills_match_each_batchs_own_fill", 32, |g| {
        let n = g.pick(&[0usize, 1, 63, 64, 65, 1023, 1024, 1025]);
        let tags: Vec<Tag> = (0..n)
            .map(|_| Tag {
                id: g.u64(),
                rn: g.u32(),
            })
            .collect();
        let (k, threads) = (g.pick(&[1usize, 2, 10, 11]), g.pick(&[1usize, 2]));
        let full = g.pick(&[16usize, 512]);
        let mut widths = vec![full; k - 1];
        widths.push(g.range(1..full));
        let floor = (1.594 / n.max(1) as f64).min(1.0);
        let p = floor.powf(g.f64(0.0..1.0));
        let plans = ZoeSlotPlan::run(g.u64(), p, &widths);
        let frames: Vec<(usize, usize)> = widths
            .iter()
            .map(|&w| (w, if g.bool() { w } else { g.range(0..=w) }))
            .collect();

        let own: Vec<_> = plans
            .iter()
            .zip(&frames)
            .map(|(plan, &(w, observe))| {
                let reference =
                    |tag: &Tag, out: &mut Vec<usize>| plan.reference_responses(tag, out);
                let want = response_fill_with_threads(&tags, w, observe, &reference, 1);
                let scalar = response_fill_with_threads(&tags, w, observe, &ScalarRef(plan), 1);
                assert_eq!(
                    scalar,
                    want,
                    "batch at offset {}: responses() is not the float-only walk",
                    plan.offset()
                );
                want
            })
            .collect();
        for a in 0..k {
            for b in a + 1..=k {
                let fills =
                    response_fills_with_threads(&tags, &frames[a..b], &plans[a..b], threads);
                for (i, (fill, want)) in fills.iter().zip(&own[a..b]).enumerate() {
                    assert_eq!(
                        fill,
                        want,
                        "batch {} of the sub-run {a}..{b} of {k} batches",
                        a + i
                    );
                }
            }
        }
    });
}
