//! Seed-provenance dataflow: the transfer function of the
//! [`fixpoint`](crate::fixpoint) for return and parameter provenance.
//!
//! The workspace's determinism contract says every PRNG must be seeded
//! from a value *derived from a seed parameter* (ultimately routed through
//! `rfid_hash::stream_seed`). This pass tells the `seed-provenance` rule
//! where a seed value **came from**, through assignments and across
//! calls.
//!
//! The abstract domain is a four-point lattice:
//!
//! ```text
//!                Unknown   (top: mixed or unanalyzable origin)
//!              /    |    \
//!    SeedDerived Literal External   (definite origins)
//!              \    |    /
//!                bottom    (no value yet — Option::None)
//! ```
//!
//! [`join`] is the least upper bound: equal values join to themselves,
//! different definite values to `Unknown`. Evidence-free expressions
//! (field reads, std calls, consts of other files) evaluate to `Unknown`,
//! which no rule flags — the pass only reports origins it can prove.
//!
//! The transfer for one fn ([`Summaries::eval_at`] and the fixpoint step)
//! is a single forward walk over its body tracking `let` bindings and
//! assignments; expression evaluation is a flat join over *evidence
//! atoms* (literals, tracked locals, parameters, single-literal `const`s,
//! calls with a known return provenance, and recognized wall-clock/entropy
//! externals). Loops and branches are not joined — the walk is linear,
//! which biases toward `Unknown` (safe: fewer findings), never toward a
//! false claim. The fixpoint pushes actual-argument provenance into callee
//! parameters across resolved call-graph edges, and return summaries (the
//! join of `return` expressions and the trailing body expression) back
//! into call-site evaluation. Call sites inside `#[cfg(test)]` regions and
//! non-library targets do not propagate: tests and binaries may pass fixed
//! seeds by design.

use crate::callgraph::{CallGraph, CallSite, FnDef, FnId, Resolution};
use crate::fixpoint::Summaries;
use crate::lexer::TokenKind;
use crate::source::{SourceFile, TargetKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Abstract origin of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Provenance {
    /// Transitively derived from a seed parameter (or from a fn boundary
    /// the workspace never crosses — the trusted entry).
    SeedDerived,
    /// Derived from hard-coded numeric literals.
    Literal,
    /// Derived from a wall-clock / OS-entropy source.
    External,
    /// Mixed or unanalyzable origin. Never flagged.
    Unknown,
}

/// Least upper bound of two lattice points.
pub fn join(a: Provenance, b: Provenance) -> Provenance {
    if a == b {
        a
    } else {
        Provenance::Unknown
    }
}

/// [`join`] lifted over bottom (`None`).
fn join_opt(a: Option<Provenance>, b: Option<Provenance>) -> Option<Provenance> {
    match (a, b) {
        (Some(a), Some(b)) => Some(join(a, b)),
        (a, b) => a.or(b),
    }
}

/// Fn names (last path segment, `.`-methods included) whose call result is
/// wall-clock or OS-entropy derived.
const EXTERNAL_SOURCES: &[&str] = &[
    "now",
    "elapsed",
    "thread_rng",
    "random",
    "from_entropy",
    "duration_since",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
];

/// The result of evaluating one expression.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutcome {
    /// Joined provenance of all evidence: `Unknown` when there is none,
    /// `None` when the only evidence is bottom.
    pub provenance: Option<Provenance>,
    /// Did the expression hold any evidence (a literal, variable,
    /// parameter, const, or call)?
    pub evidence: bool,
}

/// Does `def`'s body push argument provenance into its callees? Tests and
/// binaries may pass fixed seeds by design.
fn propagates(files: &[SourceFile], def: &FnDef) -> bool {
    files[def.file].kind == TargetKind::Lib && !def.cfg_test
}

/// `(target, arg index, param slot)` for each resolved target of `site`
/// and each of its `nargs` arguments that lands in a declared param.
fn arg_slots<'g>(
    graph: &'g CallGraph,
    site: &'g CallSite,
    nargs: usize,
) -> impl Iterator<Item = (FnId, usize, usize)> + 'g {
    let targets = match &site.resolution {
        Resolution::Resolved(targets) => targets.as_slice(),
        Resolution::External(_) => &[],
    };
    targets.iter().flat_map(move |&t| {
        let params = &graph.fns[t].params;
        // Receiver calls skip the `self` slot.
        let offset = usize::from(site.method_call && params.first().is_some_and(|p| p == "self"));
        (0..nargs)
            .map(move |i| (t, i, i + offset))
            .filter(move |&(_, _, slot)| slot < params.len())
    })
}

/// Per fn, per param: does any propagating call site pass it a value?
/// The call sites are exactly the ones [`Summaries::provenance_step`]'s
/// walk records: every resolved call token of the caller's body.
pub(crate) fn reached_params(files: &[SourceFile], graph: &CallGraph) -> Vec<Vec<bool>> {
    let mut reached: Vec<Vec<bool>> =
        graph.fns.iter().map(|d| vec![false; d.params.len()]).collect();
    for def in graph.fns.iter().filter(|d| propagates(files, d)) {
        for call in def.body_tokens.clone() {
            let Some(site) = graph.resolution_at(def.file, call) else {
                continue;
            };
            let nargs = split_args(&files[def.file], call, def.body_tokens.end).len();
            for (t, _, slot) in arg_slots(graph, site, nargs) {
                reached[t][slot] = true;
            }
        }
    }
    reached
}

impl Summaries {
    /// One provenance round for `f`: re-walk its body, join the return
    /// summary, and push its actual arguments into its callees' params.
    /// Returns whether any slot grew.
    pub(crate) fn provenance_step(
        &mut self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
    ) -> bool {
        let def = &graph.fns[f];
        let walk = self.walk_fn(f, files, graph, def.body_tokens.end);
        let ret = join_opt(self.fns[f].ret, self.ret_summary(f, files, graph, &walk.env));
        let mut grew = ret != self.fns[f].ret;
        self.fns[f].ret = ret;
        if !propagates(files, def) {
            return grew;
        }
        for (call, args) in &walk.calls {
            let Some(site) = graph.resolution_at(def.file, *call) else {
                continue;
            };
            for (t, i, slot) in arg_slots(graph, site, args.len()) {
                let param = &mut self.fns[t].params[slot];
                let new = join_opt(*param, args[i].provenance);
                grew |= new != *param;
                *param = new;
            }
        }
        grew
    }

    /// The provenance of parameter `i` of `f`, as seen from inside `f`
    /// (`None`: no caller has passed it a value).
    pub fn param_provenance(&self, f: FnId, i: usize) -> Option<Provenance> {
        self.fns.get(f).and_then(|s| s.params.get(i)).copied().flatten()
    }

    /// The return-provenance summary of `f`, if any evidence exists.
    pub fn ret_provenance(&self, f: FnId) -> Option<Provenance> {
        self.fns.get(f).and_then(|s| s.ret)
    }

    /// Evaluate the expression spanning tokens `range` inside fn `f`,
    /// with the local environment built by walking the body up to
    /// `range.start`.
    pub fn eval_at(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        range: Range<usize>,
    ) -> EvalOutcome {
        let walk = self.walk_fn(f, files, graph, range.start);
        self.eval_range(f, files, graph, &walk.env, range)
    }

    /// Walk fn `f`'s body up to token `stop`, building the local
    /// environment and recording evaluated argument lists of every call.
    fn walk_fn(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        stop: usize,
    ) -> WalkResult {
        let def = &graph.fns[f];
        let file = &files[def.file];
        let mut env: Env = BTreeMap::new();
        let mut calls: Vec<(usize, Vec<EvalOutcome>)> = Vec::new();
        let body = def.body_tokens.clone();
        let stop = stop.min(body.end);
        let mut i = body.start;
        while i < stop {
            let text = file.token_text(i);
            // `let [mut] name = expr ;` — track simple bindings. Tuple or
            // struct patterns clear their names to Unknown instead.
            if text == "let" {
                if let Some((names, eq)) = let_binding(file, i, body.end) {
                    let end = expr_end(file, eq + 1, body.end);
                    if names.len() == 1 {
                        let outcome =
                            self.eval_range(f, files, graph, &env, eq + 1..end);
                        env.insert(names[0].clone(), outcome.provenance);
                    } else {
                        for name in names {
                            env.insert(name, Some(Provenance::Unknown));
                        }
                    }
                    // Record calls inside the initializer too.
                    self.record_calls(f, files, graph, &env, i..end, &mut calls);
                    i = end;
                    continue;
                }
            }
            // `name = expr ;` / `name op= expr ;` — reassignment of a
            // tracked local (compound ops join with the old value).
            if file.tokens()[i].kind == TokenKind::Ident
                && env.contains_key(text)
                && i + 1 < stop
            {
                let op = file.token_text(i + 1);
                let compound = matches!(
                    op,
                    "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                );
                if (op == "=" || compound)
                    && (i == body.start || file.token_text(i - 1) != ".")
                {
                    let end = expr_end(file, i + 2, body.end);
                    let outcome = self.eval_range(f, files, graph, &env, i + 2..end);
                    let name = text.to_string();
                    let provenance = if compound {
                        join_opt(env[&name], outcome.provenance)
                    } else {
                        outcome.provenance
                    };
                    env.insert(name, provenance);
                    self.record_calls(f, files, graph, &env, i..end, &mut calls);
                    i = end;
                    continue;
                }
            }
            // Any other call site: evaluate its args for propagation.
            if graph.resolution_at(def.file, i).is_some() {
                let args = self.call_args(f, files, graph, &env, i);
                calls.push((i, args));
            }
            i += 1;
        }
        WalkResult { env, calls }
    }

    /// Record every resolved call inside `range` (used for initializer
    /// expressions, whose tokens the main walk skips over).
    fn record_calls(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        env: &Env,
        range: Range<usize>,
        out: &mut Vec<(usize, Vec<EvalOutcome>)>,
    ) {
        let def = &graph.fns[f];
        for i in range {
            if graph.resolution_at(def.file, i).is_some() {
                let args = self.call_args(f, files, graph, env, i);
                out.push((i, args));
            }
        }
    }

    /// Evaluate each top-level argument of the call whose name is at
    /// token `call`.
    fn call_args(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        env: &Env,
        call: usize,
    ) -> Vec<EvalOutcome> {
        let def = &graph.fns[f];
        let file = &files[def.file];
        split_args(file, call, def.body_tokens.end)
            .into_iter()
            .map(|r| self.eval_range(f, files, graph, env, r))
            .collect()
    }

    /// Flat evidence-join evaluation of a token range.
    fn eval_range(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        env: &Env,
        range: Range<usize>,
    ) -> EvalOutcome {
        let def = &graph.fns[f];
        let file = &files[def.file];
        let consts = &self.literal_consts[def.file];
        let mut atoms: Vec<Option<Provenance>> = Vec::new();
        for i in range.clone() {
            let token = &file.tokens()[i];
            match token.kind {
                TokenKind::Int | TokenKind::Float => atoms.push(Some(Provenance::Literal)),
                TokenKind::Ident => {
                    let text = file.token_text(i);
                    if text == "self" || text == "Self" {
                        // A receiver reference carries no origin of its
                        // own; fields read through it are Unknown below.
                        continue;
                    }
                    let after_dot = i > 0 && file.token_text(i - 1) == ".";
                    if let Some(site) = graph.resolution_at(def.file, i) {
                        let provenance = match &site.resolution {
                            // Targets without a summary yet are bottom;
                            // the fixpoint grows them later.
                            Resolution::Resolved(targets) => targets
                                .iter()
                                .fold(None, |acc, &t| join_opt(acc, self.ret_provenance(t))),
                            Resolution::External(name) => {
                                let last = name
                                    .rsplit("::")
                                    .next()
                                    .unwrap_or(name)
                                    .trim_start_matches('.');
                                if EXTERNAL_SOURCES.contains(&last) {
                                    Some(Provenance::External)
                                } else {
                                    // std / foreign calls: result origin
                                    // is unanalyzable — poison toward the
                                    // top so mixing constants inside PRNG
                                    // step fns never read as "literal".
                                    Some(Provenance::Unknown)
                                }
                            }
                        };
                        atoms.push(provenance);
                    } else if after_dot {
                        // Field access: unanalyzable origin.
                        atoms.push(Some(Provenance::Unknown));
                    } else if let Some(&provenance) = env.get(text) {
                        atoms.push(provenance);
                    } else if let Some(pi) = def.params.iter().position(|p| p == text) {
                        atoms.push(self.param_provenance(f, pi));
                    } else if consts.contains(text) {
                        atoms.push(Some(Provenance::Literal));
                    }
                    // Types, path segments, unknown names: no evidence.
                }
                _ => {}
            }
        }
        let provenance = if atoms.is_empty() {
            Some(Provenance::Unknown)
        } else {
            atoms.iter().fold(None, |acc, &a| join_opt(acc, a))
        };
        EvalOutcome {
            provenance,
            evidence: !atoms.is_empty(),
        }
    }

    /// Return summary of `f`: the join of every `return <expr>;` and the
    /// trailing expression of the body, evaluated in the end-of-body env.
    fn ret_summary(
        &self,
        f: FnId,
        files: &[SourceFile],
        graph: &CallGraph,
        env: &Env,
    ) -> Option<Provenance> {
        let def = &graph.fns[f];
        let file = &files[def.file];
        let body = def.body_tokens.clone();
        let mut result: Option<Provenance> = None;
        let mut waiting = false;
        let mut merge = |o: EvalOutcome| match o.provenance {
            // An evidence-free expression (unit, a struct of foreign
            // consts) says nothing about the returned value.
            _ if !o.evidence => {}
            // Only bottom evidence: the value has not arrived yet.
            None => waiting = true,
            p => result = join_opt(result, p),
        };
        // `return` statements anywhere in the body.
        let mut i = body.start;
        while i < body.end {
            if file.token_text(i) == "return" {
                let end = expr_end(file, i + 1, body.end);
                if end > i + 1 {
                    merge(self.eval_range(f, files, graph, env, i + 1..end));
                }
                i = end;
            } else {
                i += 1;
            }
        }
        // Trailing expression: tokens after the last `;` or block-`}` at
        // depth 0. `)`/`]` are NOT statement boundaries — a trailing call
        // expression ends in one (`Instant::now()`), and treating it as a
        // boundary would push `tail` past the expression it closes.
        let mut depth = 0i64;
        let mut tail = body.start;
        for i in body.clone() {
            match file.token_text(i) {
                "{" | "(" | "[" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        tail = i + 1;
                    }
                }
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => tail = i + 1,
                _ => {}
            }
        }
        if tail < body.end {
            merge(self.eval_range(f, files, graph, env, tail..body.end));
        }
        // A body without any evidence still returns a value, of unknown
        // origin; only one waiting on a callee or param stays bottom.
        if result.is_none() && !waiting {
            Some(Provenance::Unknown)
        } else {
            result
        }
    }
}

/// Tracked locals and their provenance (`None`: bound to a value that
/// has not arrived yet).
type Env = BTreeMap<String, Option<Provenance>>;

/// The outcome of walking one fn body.
struct WalkResult {
    env: Env,
    /// `(call-name token, evaluated args)` for every resolved call seen.
    calls: Vec<(usize, Vec<EvalOutcome>)>,
}

/// Parse `let [mut] name [: ty] =` at token `i`; returns the bound names
/// and the index of the `=` token. `None` when there is no initializer
/// before the statement ends.
pub(crate) fn let_binding(
    file: &SourceFile,
    i: usize,
    end: usize,
) -> Option<(Vec<String>, usize)> {
    let mut names = Vec::new();
    let mut j = i + 1;
    let mut depth = 0i64;
    while j < end {
        let text = file.token_text(j);
        match text {
            "=" if depth == 0 => {
                return if names.is_empty() {
                    None
                } else {
                    Some((names, j))
                }
            }
            "==" | ";" => return None,
            "(" | "[" | "{" | "<" => {
                depth += 1;
                j += 1;
            }
            ")" | "]" | "}" | ">" => {
                depth -= 1;
                j += 1;
            }
            ":" if depth == 0 => {
                // Type ascription: skip to the `=` (or give up at `;`).
                while j < end && !matches!(file.token_text(j), "=" | ";") {
                    j += 1;
                }
            }
            "mut" | "ref" | "&" => j += 1,
            _ => {
                if file.tokens()[j].kind == TokenKind::Ident && depth >= 0 {
                    names.push(text.to_string());
                }
                j += 1;
            }
        }
    }
    None
}

/// Index one past the end of the expression starting at `start`: the
/// matching `;` (or an unbalanced closer) at depth 0.
pub(crate) fn expr_end(file: &SourceFile, start: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = start;
    while j < end {
        match file.token_text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Split the argument list of the call whose name is at `call` into
/// top-level comma-separated token ranges. Commas inside nested
/// delimiters or closure parameter pipes do not split.
pub(crate) fn split_args(file: &SourceFile, call: usize, end: usize) -> Vec<Range<usize>> {
    // Find the opening paren (possibly past a turbofish).
    let mut open = call + 1;
    if open < end && file.token_text(open) == "::" {
        let mut depth = 0i64;
        open += 1;
        while open < end {
            match file.token_text(open) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            open += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if open >= end || file.token_text(open) != "(" {
        return Vec::new();
    }
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut in_pipes = false;
    let mut arg_start = open + 1;
    let mut j = open;
    while j < end {
        match file.token_text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if j > arg_start {
                        args.push(arg_start..j);
                    }
                    return args;
                }
            }
            "|" if depth == 1 => in_pipes = !in_pipes,
            "," if depth == 1 && !in_pipes => {
                args.push(arg_start..j);
                arg_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    args
}

/// `const NAME [: ty] = <single numeric literal> ;` anywhere in the file.
pub(crate) fn literal_consts(file: &SourceFile) -> BTreeSet<String> {
    let mut consts = BTreeSet::new();
    let tokens = file.tokens();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if file.token_text(i) == "const" && tokens[i + 1].kind == TokenKind::Ident {
            let name = file.token_text(i + 1).to_string();
            // Find `=` before `;`.
            let mut j = i + 2;
            while j < tokens.len() && !matches!(file.token_text(j), "=" | ";") {
                j += 1;
            }
            if j < tokens.len() && file.token_text(j) == "=" {
                let lit = j + 1 < tokens.len()
                    && matches!(tokens[j + 1].kind, TokenKind::Int | TokenKind::Float)
                    && j + 2 < tokens.len()
                    && file.token_text(j + 2) == ";";
                if lit {
                    consts.insert(name);
                }
            }
        }
        i += 1;
    }
    consts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::source::{SourceFile, TargetKind};

    const P: [Provenance; 4] = [
        Provenance::SeedDerived,
        Provenance::Literal,
        Provenance::External,
        Provenance::Unknown,
    ];

    #[test]
    fn join_is_commutative_idempotent_and_topped() {
        for a in P {
            assert_eq!(join(a, a), a, "idempotent");
            assert_eq!(join(a, Provenance::Unknown), Provenance::Unknown, "top absorbs");
            for b in P {
                assert_eq!(join(a, b), join(b, a), "commutative");
                for c in P {
                    assert_eq!(join(join(a, b), c), join(a, join(b, c)), "associative");
                }
            }
        }
    }

    fn workspace(files: &[(&str, &str, &str)]) -> (Vec<SourceFile>, CallGraph, Summaries) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, text)| SourceFile::new(path, krate, TargetKind::Lib, text))
            .collect();
        let graph = CallGraph::build(&sources);
        let flow = Summaries::compute(&sources, &graph);
        (sources, graph, flow)
    }

    #[test]
    fn literal_args_propagate_through_two_calls() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn a() { b(0xDEAD_BEEF); }\n\
             pub fn b(s: u64) { c(s); }\n\
             pub fn c(s: u64) { consume(s); }\n\
             pub fn consume(s: u64) -> u64 { s }\n",
        )]);
        let c = g.find_fns(None, "c")[0];
        assert_eq!(flow.param_provenance(c, 0), Some(Provenance::Literal));
    }

    #[test]
    fn callee_first_declaration_order_gives_the_same_answer() {
        // Declared callee-first, `c` is walked before any caller has
        // pushed a value into `s`: the param must stay bottom, not read
        // as the SeedDerived boundary and then join to Unknown.
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn consume(s: u64) -> u64 { s }\n\
             pub fn c(s: u64) { consume(s); }\n\
             pub fn b(s: u64) { c(s); }\n\
             pub fn a() { b(0xDEAD_BEEF); }\n",
        )]);
        let c = g.find_fns(None, "c")[0];
        assert_eq!(flow.param_provenance(c, 0), Some(Provenance::Literal));
        let consume = g.find_fns(None, "consume")[0];
        assert_eq!(flow.param_provenance(consume, 0), Some(Provenance::Literal));
    }

    #[test]
    fn long_return_chains_converge() {
        // r0 returns r1() returns … r13() returns a literal; declared
        // caller-first, each round carries the literal one call further.
        let mut text = String::new();
        for i in 0..13 {
            text.push_str(&format!("pub fn r{i}() -> u64 {{ r{}() }}\n", i + 1));
        }
        text.push_str("pub fn r13() -> u64 { 0xC0FFEE }\n");
        let (_, g, flow) = workspace(&[("crates/sim/src/lib.rs", "sim", &text)]);
        let r0 = g.find_fns(None, "r0")[0];
        assert_eq!(flow.ret_provenance(r0), Some(Provenance::Literal));
    }

    #[test]
    fn uncalled_params_are_the_trusted_seed_boundary() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn entry(seed: u64) -> u64 { seed }\n",
        )]);
        let entry = g.find_fns(None, "entry")[0];
        assert_eq!(flow.param_provenance(entry, 0), Some(Provenance::SeedDerived));
    }

    #[test]
    fn mixed_callers_join_to_unknown() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn lit() { sink(7); }\n\
             pub fn seeded(s: u64) { sink(s); }\n\
             pub fn sink(x: u64) -> u64 { x }\n",
        )]);
        // `seeded` itself is uncalled, so its param is SeedDerived;
        // sink then sees Literal from one caller and SeedDerived from
        // the other.
        let sink = g.find_fns(None, "sink")[0];
        assert_eq!(flow.param_provenance(sink, 0), Some(Provenance::Unknown));
    }

    #[test]
    fn cfg_test_callers_do_not_propagate() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn sink(x: u64) -> u64 { x }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { super::sink(42); }\n}\n",
        )]);
        let sink = g.find_fns(None, "sink")[0];
        assert_eq!(flow.param_provenance(sink, 0), Some(Provenance::SeedDerived));
    }

    #[test]
    fn let_bindings_carry_provenance_to_eval() {
        let (files, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f() -> u64 { let x = 3; let y = x; y }\n",
        )]);
        let f = g.find_fns(None, "f")[0];
        assert_eq!(flow.ret_provenance(f), Some(Provenance::Literal));
        let file = &files[0];
        // Evaluate the trailing `y` expression directly.
        let y_token = (0..file.tokens().len())
            .rev()
            .find(|&i| file.token_text(i) == "y")
            .expect("fixture");
        let out = flow.eval_at(f, &files, &g, y_token..y_token + 1);
        assert_eq!(out.provenance, Some(Provenance::Literal));
        assert!(out.evidence);
    }

    #[test]
    fn return_summaries_feed_call_sites() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn default_seed() -> u64 { 0xC0FFEE }\n\
             pub fn f() { sink(default_seed()); }\n\
             pub fn sink(x: u64) -> u64 { x }\n",
        )]);
        let default_seed = g.find_fns(None, "default_seed")[0];
        assert_eq!(flow.ret_provenance(default_seed), Some(Provenance::Literal));
        let sink = g.find_fns(None, "sink")[0];
        assert_eq!(flow.param_provenance(sink, 0), Some(Provenance::Literal));
    }

    #[test]
    fn external_sources_taint_expressions() {
        let (files, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn f() { let t = std::time::Instant::now(); consume(t); }\n\
             pub fn consume(x: u64) -> u64 { x }\n",
        )]);
        let consume = g.find_fns(None, "consume")[0];
        assert_eq!(flow.param_provenance(consume, 0), Some(Provenance::External));
        let _ = files;
    }

    #[test]
    fn field_reads_are_unknown_not_flagged() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub struct S { seed: u64 }\n\
             impl S {\n    pub fn go(&self) { sink(self.seed); }\n}\n\
             pub fn sink(x: u64) -> u64 { x }\n",
        )]);
        let sink = g.find_fns(None, "sink")[0];
        assert_eq!(flow.param_provenance(sink, 0), Some(Provenance::Unknown));
    }

    #[test]
    fn literal_consts_count_as_indirect_literal_evidence() {
        let (_, g, flow) = workspace(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "const FIXED: u64 = 0xABCD;\n\
             pub fn f() { sink(FIXED); }\n\
             pub fn sink(x: u64) -> u64 { x }\n",
        )]);
        let sink = g.find_fns(None, "sink")[0];
        assert_eq!(flow.param_provenance(sink, 0), Some(Provenance::Literal));
    }
}
