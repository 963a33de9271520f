//! The artifact table: every result table the harness regenerates, listed
//! once.
//!
//! Each [`Artifact`] names its `results/` file stem, the binary that owns
//! it and the pipeline that computes it. The figure and ablation binaries
//! are all [`bin_main`]; `--bin all` writes every artifact in table order,
//! `golden::artifacts` pins the quick grid of each, and every gnuplot
//! script in `plots` belongs to one of these stems.

use crate::fig09::Sweep;
use crate::output::{emit, Table};
use crate::runner::Scale;
use crate::{
    ablations, configure, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, guarantee, plots,
    summary, tracking,
};

/// The seed every artifact is computed with.
pub const SEED: u64 = 42;

/// One regenerated table.
#[derive(Debug)]
pub struct Artifact {
    /// File stem under `results/` (`<stem>.csv`, `<stem>.json`).
    pub stem: &'static str,
    /// The binary that writes it; `all` writes every artifact.
    pub bin: &'static str,
    /// The pipeline, at a scale, seeded with [`SEED`].
    pub run: fn(Scale) -> Table,
}

const fn art(stem: &'static str, bin: &'static str, run: fn(Scale) -> Table) -> Artifact {
    Artifact { stem, bin, run }
}

/// Every artifact, in the order `--bin all` writes them.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    art("summary_headline_claims", "summary", |s| summary::run(s, SEED)),
    art("fig03_linearity", "fig03", |s| fig03::run(s, SEED)),
    art("fig04_gamma", "fig04", |s| fig04::run(s, SEED)),
    art("fig05_monotonicity", "fig05", |s| fig05::run(s, SEED)),
    art("fig06_workloads", "fig06", |s| fig06::run(s, SEED)),
    art("fig07a_accuracy_vs_n", "fig07", |s| fig07::run_vs_n(s, SEED)),
    art("fig07b_accuracy_vs_epsilon", "fig07", |s| fig07::run_vs_epsilon(s, SEED)),
    art("fig07c_accuracy_vs_delta", "fig07", |s| fig07::run_vs_delta(s, SEED)),
    art("fig08_cdf", "fig08", |s| fig08::run(s, SEED)),
    art("fig09a_accuracy_vs_n", "fig09", |s| fig09::run(Sweep::N, s, SEED)),
    art("fig10a_time_vs_n", "fig10", |s| fig10::run(Sweep::N, s, SEED)),
    art("fig09b_accuracy_vs_epsilon", "fig09", |s| fig09::run(Sweep::Epsilon, s, SEED)),
    art("fig10b_time_vs_epsilon", "fig10", |s| fig10::run(Sweep::Epsilon, s, SEED)),
    art("fig09c_accuracy_vs_delta", "fig09", |s| fig09::run(Sweep::Delta, s, SEED)),
    art("fig10c_time_vs_delta", "fig10", |s| fig10::run(Sweep::Delta, s, SEED)),
    art("guarantee", "guarantee", |s| guarantee::run(s, SEED)),
    art("ablation_k", "ablation_k", |s| ablations::run_k_sweep(s, SEED)),
    art("ablation_w", "ablation_w", |s| ablations::run_w_sweep(s, SEED)),
    art("ablation_c", "ablation_c", |s| ablations::run_c_sweep(s, SEED)),
    art("ablation_hash", "ablation_hash", |s| ablations::run_hash_comparison(s, SEED)),
    art("ablation_channel", "ablation_channel", |s| ablations::run_channel_sweep(s, SEED)),
    art("ablation_probe", "ablation_probe", |s| ablations::run_probe_strategy(s, SEED)),
    art("ablation_link", "ablation_link", |s| ablations::run_link_sweep(s, SEED)),
    art("ablation_energy", "ablation_energy", |s| ablations::run_energy(s, SEED)),
    art("tag_ops", "tag_ops", |s| ablations::run_tag_ops(s, SEED)),
    art("crossover", "crossover", |s| ablations::run_crossover(s, SEED)),
    art("shootout", "shootout", |s| ablations::run_shootout(s, SEED)),
    art("tracking", "tracking", |s| tracking::run(s, SEED)),
];

/// The whole `main` of a figure or ablation binary: parse the shared
/// flags, then compute, print and write each artifact `bin` owns. `all`
/// owns every artifact and also writes the gnuplot scripts.
pub fn bin_main(bin: &str) {
    let scale = configure(std::env::args().skip(1)).scale;
    for artifact in ARTIFACTS.iter().filter(|a| bin == "all" || a.bin == bin) {
        emit(&(artifact.run)(scale), artifact.stem);
    }
    if bin == "all" {
        match plots::write_all(std::path::Path::new("results/plots")) {
            Ok(paths) => eprintln!("(wrote {} gnuplot scripts)", paths.len()),
            Err(e) => eprintln!("warning: plots: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_are_unique_and_every_owner_is_a_binary() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for (i, artifact) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|a| a.stem != artifact.stem),
                "{} listed twice",
                artifact.stem
            );
            let main = bin_dir.join(format!("{}.rs", artifact.bin));
            assert!(
                main.exists(),
                "{}: no binary {}",
                artifact.stem,
                main.display()
            );
        }
    }
}
