//! Must-not-panic fuzz body for the `rfid` argument parser.
//!
//! Mirrors the pattern of `rfid_analysis::fuzz_surface` and
//! `rfid_bfce::sketch::fuzz`: the out-of-tree cargo-fuzz target
//! `fuzz/fuzz_targets/cli_args.rs` wraps [`cli_args`], and the in-tree
//! `crates/cli/tests/fuzz_smoke.rs` replays the seed corpus plus
//! deterministic mutations on every `cargo test`.
//!
//! The parser is the first thing untrusted input touches (`rfid` is a
//! shipped binary), so the invariant is strict: for *any* argument
//! vector, [`parse`](crate::args::parse) returns a command or a
//! [`ParseError`](crate::args::ParseError) that renders a non-empty
//! message — it never panics, whatever the flag soup. A command that
//! carries an `(epsilon, delta)` pair carries one that
//! [`Accuracy::try_new`] accepts, so running it cannot trip
//! [`Accuracy::new`]'s assertion.

use crate::args::{parse, Command};
use rfid_sim::Accuracy;

/// Fuzz body: split the bytes into an argument vector two ways (words and
/// lines — the latter keeps spaces inside one argument, which a shell can
/// always produce) and drive the parser with both.
pub fn cli_args(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let words: Vec<String> = text.split_whitespace().map(str::to_string).collect();
    let lines: Vec<String> = text
        .lines()
        .map(str::to_string)
        .filter(|l| !l.is_empty())
        .collect();
    for argv in [words, lines] {
        match parse(&argv) {
            Ok(command) => {
                if let Some((epsilon, delta)) = accuracy_of(&command) {
                    assert!(
                        Accuracy::try_new(epsilon, delta).is_ok(),
                        "{argv:?} parsed with epsilon {epsilon}, delta {delta}"
                    );
                }
            }
            Err(err) => assert!(
                !err.to_string().is_empty(),
                "parse errors must render a usable message"
            ),
        }
    }
}

/// The `(epsilon, delta)` pair a command will build an `Accuracy` from.
fn accuracy_of(command: &Command) -> Option<(f64, f64)> {
    match command {
        Command::Estimate(o) | Command::Trace(o) => Some((o.epsilon, o.delta)),
        Command::Compare(o) => Some((o.base.epsilon, o.base.delta)),
        Command::Robustness(o) => Some((o.epsilon, o.delta)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_and_rejects_without_panicking() {
        cli_args(b"");
        cli_args(b"estimate --n 1000 --rounds 2");
        cli_args(b"merge --inputs a.sketch,b.sketch --truth abc");
        cli_args(b"--n\n1000\nestimate");
        cli_args(&[0xFF, 0xFE, b' ', 0x00, b'-', b'-']);
        cli_args(b"estimate --n 1000 --epsilon NaN");
        cli_args(b"robustness --delta NaN --epsilon inf");
    }
}
