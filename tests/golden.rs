//! Golden-figure regression: the quick grid of every artifact table,
//! committed under `tests/golden/`, must regenerate **bitwise**
//! identically on every run. Any drift — estimator, simulator, trial
//! engine, or CSV writer — fails the test; regenerate intentionally with
//! `cargo run -p rfid-experiments --bin golden`.

use rfid_experiments::artifacts::ARTIFACTS;
use rfid_experiments::golden;

/// Path to a committed golden file, anchored at the workspace root
/// (cargo sets `CARGO_MANIFEST_DIR` when compiling tests; a bare rustc
/// invocation falls back to the current directory).
fn golden_path(stem: &str) -> String {
    let root = option_env!("CARGO_MANIFEST_DIR").unwrap_or(".");
    format!("{root}/tests/golden/{stem}.csv")
}

fn committed(stem: &str) -> String {
    let path = golden_path(stem);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"))
}

#[test]
fn committed_goldens_regenerate_bitwise() {
    for (stem, table) in golden::artifacts() {
        assert_eq!(
            table.to_csv(),
            committed(&stem),
            "{stem}: regeneration drifted from the committed golden; if the \
             change is intentional run `cargo run -p rfid-experiments --bin golden`"
        );
    }
}

#[test]
fn golden_files_are_well_formed() {
    for artifact in ARTIFACTS {
        let stem = format!("{}_quick", artifact.stem);
        let committed = committed(&stem);
        let mut lines = committed.lines();
        let header = lines.next().unwrap_or("");
        assert!(
            header.contains(',') && !header.starts_with('#'),
            "{stem}: first line must be the CSV header, got {header:?}"
        );
        assert!(
            lines.filter(|l| !l.starts_with('#')).count() >= 2,
            "{stem}: golden must contain at least two data rows"
        );
    }
}
