//! Figure 9 — accuracy comparison of BFCE against ZOE and SRC on the T2
//! tag-ID distribution, across `n`, `epsilon`, and `delta`.
//!
//! The paper's reading: all three usually meet the requirement, but ZOE
//! and SRC show occasional exceptions tied to their rough-estimation
//! phases (SRC missed by 0.068 at `n = 50 000`; ZOE missed at
//! `delta = 0.3`), while BFCE, which only needs a *lower bound* rather
//! than an accurate rough estimate, never does.

use crate::engine::TrialRunner;
use crate::output::{fnum, Table};
use crate::runner::Scale;
use rfid_baselines::{Src, Zoe};
use rfid_bfce::Bfce;
use rfid_sim::{Accuracy, CardinalityEstimator};
use rfid_workloads::WorkloadSpec;

/// Which sweep of the figure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// (a): vary `n`, fixed `(0.05, 0.05)`.
    N,
    /// (b): vary `epsilon`, fixed `n`, `delta = 0.05`.
    Epsilon,
    /// (c): vary `delta`, fixed `n`, `epsilon = 0.05`.
    Delta,
}

/// The comparison estimators: BFCE, ZOE, SRC.
fn contenders() -> Vec<Box<dyn CardinalityEstimator>> {
    vec![
        Box::new(Bfce::paper()),
        Box::new(Zoe::default()),
        Box::new(Src),
    ]
}

/// Grid of `(x-label, n, accuracy)` cells for a sweep.
pub(crate) fn grid(sweep: Sweep, scale: Scale) -> Vec<(String, usize, Accuracy)> {
    let n_fixed = scale.pick(100_000usize, 500_000);
    match sweep {
        Sweep::N => {
            let ns: &[usize] = match scale {
                Scale::Quick => &[10_000, 100_000],
                Scale::Paper => &[50_000, 100_000, 500_000, 1_000_000],
            };
            ns.iter()
                .map(|&n| (n.to_string(), n, Accuracy::paper_default()))
                .collect()
        }
        Sweep::Epsilon => {
            let es: &[f64] = match scale {
                Scale::Quick => &[0.05, 0.2],
                Scale::Paper => &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
            };
            es.iter()
                .map(|&e| (fnum(e), n_fixed, Accuracy::new(e, 0.05)))
                .collect()
        }
        Sweep::Delta => {
            let ds: &[f64] = match scale {
                Scale::Quick => &[0.05, 0.2],
                Scale::Paper => &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
            };
            ds.iter()
                .map(|&d| (fnum(d), n_fixed, Accuracy::new(0.05, d)))
                .collect()
        }
    }
}

/// Run one sweep of the accuracy comparison.
pub fn run(sweep: Sweep, scale: Scale, seed: u64) -> Table {
    let rounds = scale.pick(1u32, 3);
    let sub = match sweep {
        Sweep::N => "a (vs n)",
        Sweep::Epsilon => "b (vs epsilon)",
        Sweep::Delta => "c (vs delta)",
    };
    let mut table = Table::new(
        format!("Figure 9{sub}: accuracy comparison on T2"),
        &["x", "BFCE", "ZOE", "SRC"],
    );
    let estimators = contenders();
    let mut violations: Vec<String> = Vec::new();
    for (label, n, acc) in grid(sweep, scale) {
        let mut row = vec![label.clone()];
        for est in &estimators {
            let out = TrialRunner::new(rounds, seed)
                .run(est.as_ref(), WorkloadSpec::T2, n, acc)
                .outcome();
            row.push(fnum(out.mean_error));
            if out.max_error > acc.epsilon {
                violations.push(format!(
                    "{} exceeded eps={} at x={label} (worst {:.4}; delta={} \
                     permits a {:.0}% miss rate, so isolated misses are \
                     within spec)",
                    est.name(),
                    acc.epsilon,
                    out.max_error,
                    acc.delta,
                    acc.delta * 100.0
                ));
            }
        }
        table.push_row(row);
    }
    if violations.is_empty() {
        table.note("no requirement violations observed in this run");
    }
    for v in violations {
        table.note(v);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfce_meets_requirement_on_quick_grid() {
        // (0.05, 0.05) permits up to 5% of rounds to miss; a single quick
        // round can land just outside. Require every cell to stay close
        // and the grid mean to stay inside epsilon.
        let t = run(Sweep::N, Scale::Quick, 1);
        let mut sum = 0.0;
        for row in &t.rows {
            let bfce_err: f64 = row[1].parse().unwrap();
            assert!(bfce_err < 0.10, "BFCE err {bfce_err} in {row:?}");
            sum += bfce_err;
        }
        assert!(
            sum / t.rows.len() as f64 <= 0.05,
            "BFCE grid-mean error too high: {}",
            sum / t.rows.len() as f64
        );
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(grid(Sweep::N, Scale::Paper).len(), 4);
        assert_eq!(grid(Sweep::Epsilon, Scale::Paper).len(), 6);
        assert_eq!(grid(Sweep::Delta, Scale::Quick).len(), 2);
    }
}
