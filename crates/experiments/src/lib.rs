//! Experiment harness: regenerates every figure of the BFCE paper plus the
//! ablation studies listed in DESIGN.md.
//!
//! Each `figNN` module exposes `run(scale, seed) -> Table`; the `Table` can
//! be pretty-printed and written as CSV under `results/`. The 28 tables are
//! listed once, in [`artifacts::ARTIFACTS`] (stem, owning binary,
//! pipeline). Every figure and ablation binary in `src/bin` is the same
//! call to [`artifacts::bin_main`] (`cargo run --release -p
//! rfid-experiments --bin fig07 -- --paper`), `--bin all` writes every
//! artifact in sequence so the whole evaluation regenerates with one
//! command, and [`golden`] pins the quick grid of each.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig03`] | Fig. 3 — 0s/1s in `B` vs `n` (w=8192, k=3, p∈{0.1,0.2}) |
//! | [`fig04`] | Fig. 4 — `gamma` over `(p, rho)`, scalability bounds |
//! | [`fig05`] | Fig. 5 — monotonicity of `f1`/`f2` in `n` |
//! | [`fig06`] | Fig. 6 — the T1/T2/T3 tag-ID distributions |
//! | [`fig07`] | Fig. 7 — BFCE accuracy vs `n`, `epsilon`, `delta` |
//! | [`fig08`] | Fig. 8 — CDF of 100 estimation rounds |
//! | [`fig09`] | Fig. 9 — accuracy comparison BFCE/ZOE/SRC (T2) |
//! | [`fig10`] | Fig. 10 — execution-time comparison BFCE/ZOE/SRC (T2) |
//! | [`engine`] | trial-parallel Monte-Carlo runner (stream-split seeding, bitwise-deterministic aggregation) |
//! | [`artifacts`] | the artifact table every binary, golden and plot reads |
//! | [`ablations`] | k/w/c sweeps, hash & channel robustness, probe strategy, energy, crossover, shootout |
//! | [`guarantee`] | exact binomial test of the `(epsilon, delta)` claim |
//! | [`summary`] | headline claims (0.19 s, 9216 slots, >19 M, speedups) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod artifacts;
pub mod engine;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod golden;
pub mod guarantee;
pub mod output;
pub mod plots;
pub mod robustness;
pub mod runner;
pub mod summary;
pub mod tracking;

pub use engine::{configure, ExperimentArgs, TrialRunner, TrialSet};
pub use output::Table;
pub use runner::Scale;
