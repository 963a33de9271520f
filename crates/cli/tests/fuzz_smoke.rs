//! Deterministic smoke pass over the argument-parser fuzz body.
//!
//! `fuzz/` proper needs nightly + `cargo-fuzz`; this test keeps the
//! `cli_args` body honest on every `cargo test` by replaying its seed
//! corpus (valid invocations of the flag-heavy subcommands plus known
//! malformed soup) and then hammering the body with deterministic
//! mutations through the shared fixed-seed driver,
//! `rfid_analysis::fuzz_surface::replay`. Any panic the nightly fuzzer
//! finds lands as a corpus file here and reproduces forever after.

use rfid_analysis::fuzz_surface::{replay, seeds, Mutator};
use rfid_cli::fuzz::cli_args;

/// Mutations tried per corpus seed — the body is cheap (pure parsing),
/// so this matches the other text-input smoke tests.
const MUTATIONS_PER_SEED: u64 = 128;

/// Argument text has no header. Separator injection (spaces, newlines, a
/// dangling `--`) reshapes the argument vector itself, which is where a
/// parser indexes out of range.
const MUTATOR: Mutator = Mutator {
    header: 0,
    tokens: &[b" ", b"\n", b" --"],
};

#[test]
fn cli_args_smoke() {
    replay("cli_args", MUTATIONS_PER_SEED, &MUTATOR, cli_args);
}

#[test]
fn corpus_keeps_every_flag_heavy_subcommand_alive() {
    // Mutations only reach a subcommand's option table if some seed
    // names it; `estimate`, `merge`, and `snapshot` carry the widest
    // flag surfaces.
    let all: Vec<String> = seeds("cli_args")
        .into_iter()
        .map(|(_, bytes)| String::from_utf8_lossy(&bytes).into_owned())
        .collect();
    for sub in ["estimate", "merge", "snapshot"] {
        assert!(
            all.iter().any(|s| s.contains(sub)),
            "no corpus seed exercises `{sub}`"
        );
    }
    // Values that no ordered comparison rejects: a range check written as
    // `x <= 0.0 || x >= 1.0` lets NaN through to `Accuracy::new`.
    for value in ["NaN", "inf", "-0"] {
        assert!(
            all.iter().any(|s| s.contains(&format!("--epsilon {value}"))
                || s.contains(&format!("--delta {value}"))),
            "no corpus seed passes an accuracy of `{value}`"
        );
    }
}
