//! Rule `seed-provenance`: where does each PRNG's seed come from?
//!
//! Every `SplitMix64::new` / `seed_from_u64` seed in a determinism-scoped
//! library fn must descend from a seed parameter through
//! `rfid_hash::stream_seed`. The rule flags the seed argument when it is
//!
//! - ad-hoc arithmetic: an operator (`+ ^ * | <<`) at paren depth 0 with
//!   no `stream_seed` anywhere in the argument, or in the initializer of
//!   the `let` that binds a bare local argument (`let s = seed ^ 3;
//!   SplitMix64::new(s)`), followed one binding deep. Affine schedules
//!   such as `seed + i` or `seed ^ 0xABCD` correlate "independent" streams;
//! - a hard-coded literal, written at the call or reached through
//!   variables, consts and calls ([`Provenance::Literal`]);
//! - a wall-clock or OS-entropy source ([`Provenance::External`]).
//!
//! Origins come from the [`dataflow`](crate::dataflow) walk, so they are
//! judged on tokens, not lines: a constructor call split over several
//! lines is read whole. `Unknown` origins are never flagged: the pass
//! reports only origins it can prove, so field reads, std calls, and
//! mixed expressions stay quiet. Neither is a value that never arrives
//! (bottom).

use super::{is_determinism_scope, push, Finding, RuleId};
use crate::callgraph::CallGraph;
use crate::dataflow::{expr_end, let_binding, split_args, Provenance};
use crate::effects::PRNG_TYPES;
use crate::fixpoint::Summaries;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::ops::Range;

/// Free/method constructor names whose first value argument is a seed.
const SEED_FNS: &[&str] = &["seed_from_u64"];

/// Binary operators that make a seed argument an ad-hoc stream split.
const SEED_OPERATORS: &[&str] = &["+", "^", "*", "|", "<<"];

/// Run the rule over every fn in the call graph.
pub fn check_seed_provenance(
    files: &[SourceFile],
    graph: &CallGraph,
    summaries: &Summaries,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (f, def) in graph.fns.iter().enumerate() {
        let file = &files[def.file];
        if !is_determinism_scope(file) || def.cfg_test {
            continue;
        }
        let tree = file.scopes();
        for i in def.body_tokens.clone() {
            let tokens = file.tokens();
            if tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let name = file.token_text(i);
            let is_ctor = (name == "new"
                && i >= 2
                && file.token_text(i - 1) == "::"
                && PRNG_TYPES.contains(&file.token_text(i - 2)))
                || SEED_FNS.contains(&name);
            if !is_ctor
                || i + 1 >= def.body_tokens.end
                || file.token_text(i + 1) != "("
            {
                continue;
            }
            let line = tokens[i].line;
            if file.in_test_region(line) {
                continue;
            }
            // Tokens inside a nested fn belong to that fn's analysis.
            let innermost = tree
                .enclosing_fn(tokens[i].start)
                .map(|(idx, _)| tree.scopes[idx].byte_range.start);
            if innermost != Some(def.byte_range.start) {
                continue;
            }
            let args = split_args(file, i, def.body_tokens.end);
            let Some(seed_arg) = args.first().cloned() else {
                continue;
            };
            let problem = if is_ad_hoc_arithmetic(file, seed_arg.clone()) {
                "is ad-hoc arithmetic, which correlates streams"
            } else if let_initializer(file, def.body_tokens.clone(), seed_arg.clone(), i)
                .is_some_and(|init| is_ad_hoc_arithmetic(file, init))
            {
                "is a local bound to ad-hoc arithmetic, which correlates streams"
            } else {
                match summaries.eval_at(f, files, graph, seed_arg).provenance {
                    Some(Provenance::Literal) => {
                        "derives from a hard-coded literal (written here or traced \
                         through assignments and calls)"
                    }
                    Some(Provenance::External) => {
                        "derives from a wall-clock/OS-entropy source (traced through \
                         assignments and calls)"
                    }
                    _ => continue,
                }
            };
            let ctor = if name == "new" {
                format!("{}::new", file.token_text(i - 2))
            } else {
                name.to_string()
            };
            push(
                findings.as_mut(),
                file,
                RuleId::SeedProvenance,
                line,
                format!(
                    "{ctor} seed argument {problem}; route it through \
                     rfid_hash::stream_seed from a seed parameter"
                ),
            );
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    findings
}

/// Is the argument `arg` a binary operator expression at paren depth 0
/// (`seed ^ 0xABCD`, `seed + i as u64`) without a `stream_seed` in it?
/// Operators inside a call's parentheses (`mix_pair(a, b * 3)`) belong to
/// a deliberate derivation, and a leading `*` is a dereference.
fn is_ad_hoc_arithmetic(file: &SourceFile, arg: Range<usize>) -> bool {
    if arg.clone().any(|j| file.token_text(j) == "stream_seed") {
        return false;
    }
    let mut depth = 0i64;
    arg.clone().any(|j| match file.token_text(j) {
        "(" | "[" | "{" => {
            depth += 1;
            false
        }
        ")" | "]" | "}" => {
            depth -= 1;
            false
        }
        op => depth == 0 && j > arg.start && SEED_OPERATORS.contains(&op),
    })
}

/// The initializer of the `let` that binds the bare local `arg` last
/// before token `at` of the fn `body`, if `arg` is one identifier bound by
/// a single-name `let` there and not reassigned before `at`.
fn let_initializer(
    file: &SourceFile,
    body: Range<usize>,
    arg: Range<usize>,
    at: usize,
) -> Option<Range<usize>> {
    if arg.len() != 1 || file.tokens()[arg.start].kind != TokenKind::Ident {
        return None;
    }
    let name = file.token_text(arg.start);
    let mut init = None;
    let mut j = body.start;
    while j < at {
        let text = file.token_text(j);
        if text == "let" {
            if let Some((names, eq)) = let_binding(file, j, body.end) {
                let end = expr_end(file, eq + 1, body.end);
                if end < at && names.iter().any(|n| n == name) {
                    init = (names.len() == 1).then_some(eq + 1..end);
                }
                j = end;
                continue;
            }
        }
        let assigns = j + 1 < at
            && text == name
            && (j == body.start || file.token_text(j - 1) != ".")
            && matches!(
                file.token_text(j + 1),
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
            );
        if assigns {
            init = None;
        }
        j += 1;
    }
    init
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::fixpoint::Summaries;
    use crate::source::{SourceFile, TargetKind};

    fn run(texts: &[(&str, &str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = texts
            .iter()
            .map(|(p, c, t)| SourceFile::new(p, c, TargetKind::Lib, t))
            .collect();
        let graph = CallGraph::build(&files);
        let summaries = Summaries::compute(&files, &graph);
        check_seed_provenance(&files, &graph, &summaries)
    }

    /// Rules fired by one sim library file, with their lines.
    fn fired(text: &str) -> Vec<(RuleId, usize)> {
        run(&[("crates/sim/src/lib.rs", "sim", text)])
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn literal_through_a_local_variable_fires() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f() { let s = 42u64; let _r = SplitMix64::new(s); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RuleId::SeedProvenance);
        assert!(found[0].message.contains("hard-coded literal"), "{}", found[0].message);
    }

    #[test]
    fn literal_two_calls_deep_fires_at_the_constructor() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn top() { middle(0xDEAD_BEEF); }\n\
             pub fn middle(s: u64) { bottom(s); }\n\
             pub fn bottom(s: u64) { let _r = SplitMix64::new(s); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3, "fires at the construction site");
    }

    #[test]
    fn literals_written_at_the_constructor_fire() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f() { let _r = SplitMix64::new(42); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("written here"),
            "{}",
            found[0].message
        );
        assert_eq!(
            fired("pub fn f() { let _r = SplitMix64::new(0xDEAD_BEEF); }\n"),
            vec![(RuleId::SeedProvenance, 1)]
        );
        // A call split over lines is read whole, at the constructor.
        assert_eq!(
            fired("pub fn f() {\n    let _r = SplitMix64::new(\n        42,\n    );\n}\n"),
            vec![(RuleId::SeedProvenance, 2)]
        );
    }

    #[test]
    fn ad_hoc_seed_arithmetic_fires() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f(seed: u64, i: u64) { let _r = StdRng::seed_from_u64(seed + i); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("ad-hoc arithmetic"),
            "{}",
            found[0].message
        );
        assert_eq!(
            fired("pub fn f(seed: u64) { let _r = SplitMix64::new(seed ^ 0xF1); }\n"),
            vec![(RuleId::SeedProvenance, 1)]
        );
    }

    #[test]
    fn stream_seed_and_field_seeds_pass() {
        assert!(fired(
            "pub fn f(seed: u64, i: u64) { let _r = SplitMix64::new(stream_seed(seed, i * 31)); }\n"
        )
        .is_empty());
        assert!(
            fired("pub fn f(ctx: &Ctx) { let _r = StdRng::seed_from_u64(ctx.seed); }\n").is_empty()
        );
        assert!(fired("pub fn f(seed: &u64) { let _r = SplitMix64::new(*seed); }\n").is_empty());
    }

    #[test]
    fn seed_parameters_pass() {
        assert!(fired("pub fn f(seed: u64) { let _r = SplitMix64::new(seed); }\n").is_empty());
        assert!(
            fired("pub fn f(seed: u64) -> u64 { SplitMix64::new(seed).next_u64() }\n").is_empty()
        );
    }

    #[test]
    fn wall_clock_seeds_fire_interprocedurally() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn clock_seed() -> u64 { std::time::Instant::now() }\n\
             pub fn f() { let _r = SplitMix64::new(clock_seed()); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("wall-clock"), "{}", found[0].message);
    }

    #[test]
    fn test_regions_and_out_of_scope_crates_pass() {
        let found = run(&[(
            "crates/cli/src/lib.rs",
            "cli",
            "pub fn f() { let s = 42u64; let _r = SplitMix64::new(s); }\n",
        )]);
        assert!(found.is_empty(), "cli is not determinism-scoped");
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "#[cfg(test)]\nmod tests {\n    fn t() { let s = 7u64; let _ = SplitMix64::new(s); }\n}\n",
        )]);
        assert!(found.is_empty(), "tests may use fixed seeds");
    }

    #[test]
    fn ad_hoc_arithmetic_bound_by_a_let_fires() {
        let found = run(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f(seed: u64) {\n    let s = seed ^ 3;\n    let _r = SplitMix64::new(s);\n}\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3, "fires at the constructor");
        assert!(
            found[0].message.contains("bound to ad-hoc"),
            "{}",
            found[0].message
        );
        // Typed and `mut` bindings are followed too.
        assert_eq!(
            fired("pub fn f(seed: u64, i: u64) { let mut s: u64 = seed + i; let _r = StdRng::seed_from_u64(s); }\n"),
            vec![(RuleId::SeedProvenance, 1)]
        );
    }

    #[test]
    fn a_let_through_stream_seed_or_a_later_reassignment_passes() {
        assert!(fired(
            "pub fn f(seed: u64, i: u64) { let s = stream_seed(seed, i); let _r = SplitMix64::new(s); }\n"
        )
        .is_empty());
        assert!(fired(
            "pub fn f(seed: u64) { let mut s = seed ^ 3; s = stream_seed(seed, 3); let _r = SplitMix64::new(s); }\n"
        )
        .is_empty());
        // Only the last binding before the constructor counts.
        assert!(fired(
            "pub fn f(seed: u64) { let s = seed ^ 3; let s = stream_seed(s, 1); let _r = SplitMix64::new(s); }\n"
        )
        .is_empty());
        // One binding deep: a local bound to a local is not chased further.
        assert!(fired(
            "pub fn f(seed: u64) { let t = seed ^ 3; let s = t; let _r = SplitMix64::new(s); }\n"
        )
        .is_empty());
    }

    #[test]
    fn literal_seeded_callers_taint_helper_params() {
        // The inverse direction of the two-deep test: the literal lives at
        // the *call site*, the constructor in the helper.
        let found = run(&[(
            "crates/hash/src/lib.rs",
            "hash",
            "pub fn make(seed: u64) -> u64 { seed }\n",
        ), (
            "crates/sim/src/lib.rs",
            "sim",
            "use rfid_hash::make;\n\
             pub fn helper(s: u64) { let _r = SplitMix64::new(s); }\n\
             pub fn top() { helper(1234); }\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].path.ends_with("sim/src/lib.rs"));
    }
}
