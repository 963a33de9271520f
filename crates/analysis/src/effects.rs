//! Effect seeds: the syntactic harvest behind every per-fn effect summary.
//!
//! The [`fixpoint`](crate::fixpoint) asks "what does calling this fn
//! *do*" next to "where did this seed *value* come from". Each fn's
//! summary is drawn from five effects:
//!
//! | Effect | Seeded by |
//! |--------|-----------|
//! | `panics` | `.unwrap()`/`.expect(`, `panic!`-family macros, nested `assert!`/slice indexing, `unchecked_*` |
//! | `allocates` | `Vec::`/`Box::`/`String::` constructors, `vec!`/`format!`, `.collect(`/`.to_vec(`/`.to_owned(`/`.to_string(` (turbofish included) |
//! | `charges-air-time` | `*_BITS` air-time constants, `AirTimeLedger` methods |
//! | `draws-randomness` | `SplitMix64` mentions and its impl methods |
//! | `float-accumulates` | `+=`/`.sum()`/`.product()` (turbofish included) in fns that touch `f32`/`f64` |
//!
//! Seeds are harvested syntactically from each fn's masked body tokens
//! (`harvest`); the fixpoint then unions every resolved callee's summary
//! into its caller (`.method(` over-approximation included, so
//! trait-dispatch edges propagate effects too). `#[cfg(test)]` callees do
//! not propagate — tests unwrap and allocate freely by contract.
//!
//! The lattice is the powerset of the five effects ordered by inclusion;
//! joins are unions, so summaries only grow. Seed sites carry a `guard`
//! flag: an `assert!`, slice index, or allocation at block depth 0 of its
//! fn body is a *top-level precondition guard / pre-loop setup* — it still
//! contributes to the summary, but `panic-path` and `hotpath-alloc-free`
//! exempt it (failing fast at the call boundary and allocating an output
//! buffer before the loop are both sanctioned patterns). `debug_assert!`
//! never seeds anything: it is compiled out of release binaries.
//!
//! Summaries are written as `rfid-effects/v1` JSON inside `--format json`;
//! `tests/workspace_property.rs` checks that every workspace crate has at
//! least one fn with a non-empty summary.

use crate::callgraph::FnDef;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One effect in the summary lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// May abort the process: unwrap/expect, panic-family macros, nested
    /// asserts or slice indexing, unchecked arithmetic.
    Panics,
    /// May allocate on the heap: container constructors, `vec!`/`format!`,
    /// collecting/cloning adapters.
    Allocates,
    /// Touches the air-time accounting surface: `*_BITS` constants or an
    /// `AirTimeLedger` charging primitive.
    ChargesAirTime,
    /// Draws from a deterministic PRNG stream.
    DrawsRandomness,
    /// Performs order-sensitive float accumulation.
    FloatAccumulates,
}

/// Every effect, in canonical (bit) order.
pub const ALL_EFFECTS: &[Effect] = &[
    Effect::Panics,
    Effect::Allocates,
    Effect::ChargesAirTime,
    Effect::DrawsRandomness,
    Effect::FloatAccumulates,
];

impl Effect {
    /// Stable name used in the JSON dump and rule messages.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Panics => "panics",
            Effect::Allocates => "allocates",
            Effect::ChargesAirTime => "charges-air-time",
            Effect::DrawsRandomness => "draws-randomness",
            Effect::FloatAccumulates => "float-accumulates",
        }
    }

    fn bit(self) -> u8 {
        match self {
            Effect::Panics => 1,
            Effect::Allocates => 1 << 1,
            Effect::ChargesAirTime => 1 << 2,
            Effect::DrawsRandomness => 1 << 3,
            Effect::FloatAccumulates => 1 << 4,
        }
    }
}

/// A set of effects — one element of the powerset lattice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The bottom element (no effects).
    pub const EMPTY: EffectSet = EffectSet(0);

    /// Add one effect.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Is `e` in the set?
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Lattice join.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Is this the bottom element?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Does this set contain every effect of `other`? (Lattice ≥.)
    pub fn is_superset(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The member effects, in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        ALL_EFFECTS.iter().copied().filter(move |e| self.contains(*e))
    }

    /// Member names, for messages and JSON.
    pub fn names(self) -> Vec<&'static str> {
        self.iter().map(Effect::name).collect()
    }
}

/// One syntactic seed site inside a fn body.
#[derive(Debug, Clone)]
pub struct SeedSite {
    /// The effect this site contributes.
    pub effect: Effect,
    /// 1-based line of the site.
    pub line: usize,
    /// Is this a sanctioned top-level precondition guard / pre-loop setup
    /// (block depth 0 of the fn body)? `panic-path` and
    /// `hotpath-alloc-free` exempt these.
    pub guard: bool,
    /// Which construct seeded the site; the `unwrap` and `panic-path`
    /// rules split the `panics` sites on it.
    pub construct: Construct,
    /// What the harvester saw (for rule messages: `".unwrap()"`,
    /// `"assert!"`, `"`RETRY_QUERY_BITS` air-time constant"`, …).
    pub what: String,
}

/// The syntactic construct behind a seed site. `harvest` keeps one site
/// per `(effect, line, construct)`, so `x.unwrap() + xs[i]` seeds twice
/// while `xs[i] + ys[i]` seeds once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construct {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(`.
    Expect,
    /// A `panic!`-family macro.
    PanicMacro,
    /// An `assert!`-family macro.
    Assert,
    /// `unchecked_*` arithmetic or `get_unchecked*` access.
    Unchecked,
    /// Slice indexing.
    Index,
    /// Any seed of an effect other than `panics`.
    Other,
}

/// Macros that abort unconditionally when reached.
const HARD_PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Macros that abort when their condition fails — guards at depth 0.
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Allocating macro invocations.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Types whose `::` constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"];

/// Allocating `.method(` adapters.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string"];

/// Keywords a `[` can follow that start an array literal, a slice
/// pattern or a slice type, never an indexing (`for x in [a, b]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "break", "if", "in", "let", "match", "mut", "return", "while",
];

/// Method receivers that consume unwrappable options/results and panic.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// The workspace PRNG types; constructing or stepping one draws
/// randomness, and `seed-provenance` judges each `::new` seed.
pub(crate) const PRNG_TYPES: &[&str] = &["SplitMix64"];

/// The air-time accounting type; every method on it is a charging
/// primitive.
const LEDGER_TYPE: &str = "AirTimeLedger";

/// Harvest every seed site in one fn body.
pub(crate) fn harvest(file: &SourceFile, def: &FnDef) -> Vec<SeedSite> {
    fn push(
        sites: &mut Vec<SeedSite>,
        effect: Effect,
        construct: Construct,
        line: usize,
        guard: bool,
        what: String,
    ) {
        let seen = |s: &SeedSite| (s.effect, s.line, s.construct) == (effect, line, construct);
        if !sites.iter().any(seen) {
            sites.push(SeedSite {
                effect,
                line,
                guard,
                construct,
                what,
            });
        }
    }

    let mut sites: Vec<SeedSite> = Vec::new();

    // Type-level seeds: methods *on* the ledger or a PRNG are the
    // primitives themselves, whatever their bodies look like.
    match def.self_type.as_deref() {
        Some(LEDGER_TYPE) => push(
            &mut sites,
            Effect::ChargesAirTime,
            Construct::Other,
            def.line,
            false,
            format!("`{LEDGER_TYPE}` charging primitive"),
        ),
        Some(t) if PRNG_TYPES.contains(&t) => push(
            &mut sites,
            Effect::DrawsRandomness,
            Construct::Other,
            def.line,
            false,
            format!("`{t}` PRNG impl method"),
        ),
        _ => {}
    }

    let tokens = file.tokens();
    let floaty = touches_floats(file, def);
    for i in def.body_tokens.clone() {
        let tok = &tokens[i];
        let text = file.token_text(i);
        let line = tok.line;
        let blocks = file
            .scopes()
            .enclosing_fn(tok.start)
            .map_or(0, |(_, blocks)| blocks);
        let next = |k: usize| {
            tokens
                .get(i + k)
                .map_or("", |_| file.token_text(i + k))
        };
        let prev = if i > 0 { file.token_text(i - 1) } else { "" };
        match tok.kind {
            TokenKind::Ident if next(1) == "!" => {
                if HARD_PANIC_MACROS.contains(&text) {
                    push(
                        &mut sites,
                        Effect::Panics,
                        Construct::PanicMacro,
                        line,
                        false,
                        format!("{text}!"),
                    );
                } else if ASSERT_MACROS.contains(&text) {
                    // debug_assert* is a different token and never lands
                    // here — it is compiled out of release binaries.
                    push(
                        &mut sites,
                        Effect::Panics,
                        Construct::Assert,
                        line,
                        blocks == 0,
                        format!("{text}!"),
                    );
                } else if ALLOC_MACROS.contains(&text) {
                    push(
                        &mut sites,
                        Effect::Allocates,
                        Construct::Other,
                        line,
                        blocks == 0,
                        format!("{text}!"),
                    );
                }
            }
            TokenKind::Ident
                if text.starts_with("unchecked_") || text.starts_with("get_unchecked") =>
            {
                push(
                    &mut sites,
                    Effect::Panics,
                    Construct::Unchecked,
                    line,
                    false,
                    text.to_string(),
                );
            }
            TokenKind::Ident if text.ends_with("_BITS") && text.len() > "_BITS".len() => {
                push(
                    &mut sites,
                    Effect::ChargesAirTime,
                    Construct::Other,
                    line,
                    false,
                    format!("`{text}` air-time constant"),
                );
            }
            TokenKind::Ident if PRNG_TYPES.contains(&text) => {
                push(
                    &mut sites,
                    Effect::DrawsRandomness,
                    Construct::Other,
                    line,
                    false,
                    format!("`{text}`"),
                );
            }
            // A method call, turbofish (`.sum::<f64>()`) included.
            TokenKind::Ident if prev == "." && matches!(next(1), "(" | "::") => {
                if PANIC_METHODS.contains(&text) {
                    push(
                        &mut sites,
                        Effect::Panics,
                        if text == "unwrap" {
                            Construct::Unwrap
                        } else {
                            Construct::Expect
                        },
                        line,
                        false,
                        format!(".{text}()"),
                    );
                } else if ALLOC_METHODS.contains(&text) {
                    push(
                        &mut sites,
                        Effect::Allocates,
                        Construct::Other,
                        line,
                        blocks == 0,
                        format!(".{text}()"),
                    );
                } else if floaty && (text == "sum" || text == "product") {
                    push(
                        &mut sites,
                        Effect::FloatAccumulates,
                        Construct::Other,
                        line,
                        false,
                        format!(".{text}()"),
                    );
                }
            }
            TokenKind::Ident if ALLOC_TYPES.contains(&text) && next(1) == "::" => {
                push(
                    &mut sites,
                    Effect::Allocates,
                    Construct::Other,
                    line,
                    blocks == 0,
                    format!("{text}::{}", next(2)),
                );
            }
            TokenKind::Punct if text == "+=" && floaty => {
                push(
                    &mut sites,
                    Effect::FloatAccumulates,
                    Construct::Other,
                    line,
                    false,
                    "`+=` accumulation".to_string(),
                );
            }
            TokenKind::Punct if text == "[" => {
                // Indexing only when `[` follows an expression tail (skips
                // `vec![`, attributes, array types and literals).
                let is_index = i > 0 && {
                    let p = &tokens[i - 1];
                    (matches!(p.kind, TokenKind::Ident | TokenKind::Int)
                        && !NON_INDEX_KEYWORDS.contains(&prev))
                        || (p.kind == TokenKind::Punct && (prev == ")" || prev == "]"))
                };
                if is_index {
                    push(
                        &mut sites,
                        Effect::Panics,
                        Construct::Index,
                        line,
                        blocks == 0,
                        "slice indexing".to_string(),
                    );
                }
            }
            _ => {}
        }
    }
    sites
}

/// Does the fn touch floats at all (header or body)? Used to scope the
/// `float-accumulates` seeds: `+=` over integers is not an ordering
/// hazard.
fn touches_floats(file: &SourceFile, def: &FnDef) -> bool {
    let tokens = file.tokens();
    def.header_tokens
        .clone()
        .chain(def.body_tokens.clone())
        .any(|i| {
            tokens[i].kind == TokenKind::Float || {
                let t = file.token_text(i);
                t == "f64" || t == "f32"
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, Resolution};
    use crate::fixpoint::Summaries;
    use crate::json::Value;
    use crate::source::TargetKind;

    fn workspace(files: &[(&str, &str, &str)]) -> (Vec<SourceFile>, CallGraph, Summaries) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, text)| SourceFile::new(path, krate, TargetKind::Lib, text))
            .collect();
        let graph = CallGraph::build(&sources);
        let effects = Summaries::compute(&sources, &graph);
        (sources, graph, effects)
    }

    fn summary_of(graph: &CallGraph, e: &Summaries, name: &str) -> EffectSet {
        let ids = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, d)| d.name == name)
            .map(|(i, _)| i)
            .collect::<Vec<_>>();
        assert_eq!(ids.len(), 1, "fixture defines `{name}` once");
        e.fns[ids[0]].effects
    }

    #[test]
    fn direct_seeds_cover_the_five_effects() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn p(x: Option<u8>) -> u8 { x.unwrap() }\n\
             pub fn a() -> Vec<u8> { Vec::new() }\n\
             pub const RETRY_QUERY_BITS: u64 = 32;\n\
             pub fn c(n: u64) -> u64 { n * RETRY_QUERY_BITS }\n\
             pub fn r(seed: u64) { let _ = SplitMix64::new(seed); }\n\
             pub fn f(xs: &[f64]) -> f64 { let mut s = 0.0; for x in xs { s += x; } s }\n",
        )]);
        assert!(summary_of(&g, &e, "p").contains(Effect::Panics));
        assert!(summary_of(&g, &e, "a").contains(Effect::Allocates));
        assert!(summary_of(&g, &e, "c").contains(Effect::ChargesAirTime));
        assert!(summary_of(&g, &e, "r").contains(Effect::DrawsRandomness));
        assert!(summary_of(&g, &e, "f").contains(Effect::FloatAccumulates));
    }

    #[test]
    fn turbofish_method_calls_are_harvested() {
        let (_, g, e) = workspace(&[(
            "crates/stats/src/lib.rs",
            "stats",
            "pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }\n\
             pub fn volume(xs: &[f64]) -> f64 { xs.iter().product::<f64>() }\n\
             pub fn owned(xs: &[u64]) -> Vec<u64> { xs.iter().copied().collect::<Vec<_>>() }\n",
        )]);
        assert!(summary_of(&g, &e, "mean").contains(Effect::FloatAccumulates));
        assert!(summary_of(&g, &e, "volume").contains(Effect::FloatAccumulates));
        assert!(summary_of(&g, &e, "owned").contains(Effect::Allocates));
    }

    #[test]
    fn array_typed_signatures_are_harvested() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn k(buf: &mut [u32; 4], x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert!(summary_of(&g, &e, "k").contains(Effect::Panics));
    }

    #[test]
    fn effects_propagate_up_call_chains_to_fixpoint() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn top() { mid(); }\n\
             pub fn mid() { bottom(); }\n\
             pub fn bottom(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert!(summary_of(&g, &e, "bottom").contains(Effect::Panics));
        assert!(summary_of(&g, &e, "mid").contains(Effect::Panics));
        assert!(summary_of(&g, &e, "top").contains(Effect::Panics));
    }

    #[test]
    fn method_calls_propagate_through_the_overapproximation() {
        let (_, g, e) = workspace(&[
            (
                "crates/core/src/lib.rs",
                "core",
                "pub struct Sink;\nimpl Sink { pub fn record(&mut self, s: usize) -> Vec<u8> { Vec::new() } }\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "sim",
                "pub fn drive(s: &mut Sink) { s.record(1); }\n",
            ),
        ]);
        assert!(summary_of(&g, &e, "drive").contains(Effect::Allocates));
    }

    #[test]
    fn cfg_test_callees_do_not_propagate() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn caller(h: &Helper) { h.check(); }\n\
             pub struct Helper;\n\
             #[cfg(test)]\nmod tests {\n\
                 impl super::Helper { pub fn check(&self) { panic!(\"test only\"); } }\n\
             }\n",
        )]);
        assert!(!summary_of(&g, &e, "caller").contains(Effect::Panics));
    }

    #[test]
    fn debug_asserts_and_integer_accumulation_never_seed() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn quiet(xs: &[u64]) -> u64 {\n\
                 let mut s = 0u64;\n\
                 for x in xs { debug_assert!(*x > 0); s += x; }\n\
                 s\n\
             }\n",
        )]);
        assert!(summary_of(&g, &e, "quiet").is_empty());
    }

    #[test]
    fn guard_flag_marks_top_level_sites_only() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn k(xs: &[u64], w: usize) -> u64 {\n\
                 assert!(w > 0);\n\
                 let mut s = 0u64;\n\
                 for i in 0..w { s ^= xs[i]; }\n\
                 s\n\
             }\n",
        )]);
        let id = g
            .fns
            .iter()
            .position(|d| d.name == "k")
            .expect("fixture fn");
        let guards: Vec<bool> = e.seeds[id].iter().map(|s| s.guard).collect();
        assert_eq!(guards, vec![true, false], "top-level assert guards, nested index does not");
    }

    #[test]
    fn ledger_and_prng_impl_methods_are_type_level_seeds() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub struct AirTimeLedger { bits: u64 }\n\
             impl AirTimeLedger { pub fn tag_responses(&mut self, n: u64) { self.bits = self.bits + n; } }\n\
             pub struct SplitMix64 { s: u64 }\n\
             impl SplitMix64 { pub fn next_u64(&mut self) -> u64 { self.s } }\n",
        )]);
        assert!(summary_of(&g, &e, "tag_responses").contains(Effect::ChargesAirTime));
        assert!(summary_of(&g, &e, "next_u64").contains(Effect::DrawsRandomness));
    }

    #[test]
    fn summaries_are_monotone_over_direct_seeds_and_call_edges() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn top() { mid(); other(); }\n\
             pub fn mid() -> Vec<u8> { Vec::new() }\n\
             pub fn other(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        for id in 0..g.fns.len() {
            assert!(e.fns[id].effects.is_superset(e.direct[id]), "direct ⊆ summary");
            for call in g.calls_from(id) {
                if let Resolution::Resolved(ts) = &call.resolution {
                    for &t in ts {
                        if !g.fns[t].cfg_test {
                            assert!(
                                e.fns[id].effects.is_superset(e.fns[t].effects),
                                "callee summary ⊆ caller summary"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn json_dump_is_schema_tagged_and_lists_nonempty_fns_only() {
        let (_, g, e) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn noisy(x: Option<u8>) -> u8 { x.unwrap() }\npub fn silent() {}\n",
        )]);
        let doc = e.effects_json(&g);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("rfid-effects/v1")
        );
        let fns = doc.get("fns").and_then(Value::as_arr).expect("fns array");
        assert_eq!(fns.len(), 1, "only the fn with a non-empty summary");
        assert_eq!(
            fns[0].get("name").and_then(Value::as_str),
            Some("noisy")
        );
        let crates = doc.get("crates").expect("crates object");
        assert_eq!(crates.get("sim").and_then(Value::as_num), Some(1.0));
        // The dump parses back as JSON (hand-rolled writer sanity).
        assert!(Value::parse(&doc.write()).is_ok());
    }
}
