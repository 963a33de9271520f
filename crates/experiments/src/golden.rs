//! Golden-figure regression support.
//!
//! The quick grid of every [`ARTIFACTS`] table is committed as
//! `tests/golden/<stem>_quick.csv`; `tests/golden.rs` regenerates them on
//! every test run and asserts the output is **bitwise** identical. Any change to the
//! estimator, the simulator, the trial engine, or the CSV writer that
//! moves a single byte of a figure therefore fails loudly and must be
//! accompanied by a regenerated golden (run
//! `cargo run -p rfid-experiments --bin golden`).
//!
//! The figure pipelines draw from `rand::rngs::StdRng`, which in this
//! workspace is the in-tree SplitMix64 shim, so the stream is part of the
//! source and a golden file is just the table's CSV.

use crate::artifacts::ARTIFACTS;
use crate::output::Table;
use crate::runner::Scale;

/// The golden artifact set: every [`ARTIFACTS`] table at `Scale::Quick`,
/// keyed `<stem>_quick`.
pub fn artifacts() -> Vec<(String, Table)> {
    ARTIFACTS
        .iter()
        .map(|a| (format!("{}_quick", a.stem), (a.run)(Scale::Quick)))
        .collect()
}
