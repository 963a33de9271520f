//! Fixture workspaces for the determinism linter: one positive and one
//! negative case per rule, inline-allow round-trips, and the `file:line`
//! reporting contract. Each test materialises a miniature workspace under
//! the OS temp directory and runs the same `scan_workspace` entry point
//! the `rfid-analysis` binary uses.

use rfid_analysis::json::Value;
use rfid_analysis::output::{SARIF_SCHEMA, SARIF_VERSION};
use rfid_analysis::{
    render_json, render_sarif, scan_workspace, Error, Report, RuleId, ALL_RULES,
};
use std::path::PathBuf;

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "rfid-analysis-fixture-{}-{name}",
            std::process::id()
        ));
        // A stale tree from a crashed earlier run would pollute the scan.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        Self { root }
    }

    /// Write `text` at `rel` (slash-separated), creating parents.
    fn file(&self, rel: &str, text: &str) -> &Self {
        self.raw(rel, text.as_bytes())
    }

    /// Write raw `bytes` at `rel` (for non-UTF-8 fixtures).
    fn raw(&self, rel: &str, bytes: &[u8]) -> &Self {
        let path = self.root.join(rel);
        let parent = path.parent().expect("file has a parent");
        std::fs::create_dir_all(parent).expect("create fixture dirs");
        std::fs::write(&path, bytes).expect("write fixture file");
        self
    }

    fn scan(&self) -> Report {
        scan_workspace(&self.root).expect("fixture scan succeeds")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn clean_tree_is_clean() {
    let fx = Fixture::new("clean");
    fx.file(
        "crates/sim/src/lib.rs",
        "//! A well-behaved crate.\npub fn double(x: u64) -> u64 { x * 2 }\n",
    );
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn nondeterminism_fires_in_determinism_crate_libs() {
    let fx = Fixture::new("nondet-pos");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, RuleId::Nondeterminism);
    assert_eq!(f.path, "crates/sim/src/lib.rs");
    assert_eq!(f.line, 1);
}

#[test]
fn nondeterminism_spares_bins_test_regions_and_out_of_scope_crates() {
    let fx = Fixture::new("nondet-neg");
    // Binary target of a determinism crate: wall-clock is fine there.
    fx.file(
        "crates/sim/src/bin/tool.rs",
        "fn main() { let _ = std::time::Instant::now(); }\n",
    );
    // Library target, but inside #[cfg(test)].
    fx.file(
        "crates/stats/src/lib.rs",
        "pub fn id(x: u64) -> u64 { x }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}\n",
    );
    // Crate outside the determinism scope entirely.
    fx.file(
        "crates/devtools/src/lib.rs",
        "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // Token only inside a comment and a string.
    fx.file(
        "crates/hash/src/lib.rs",
        "// never call Instant::now here\npub const HINT: &str = \"Instant::now\";\n",
    );
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn unwrap_fires_in_libs_but_not_bins_or_tests() {
    let fx = Fixture::new("unwrap");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    fx.file(
        "crates/sim/src/main.rs",
        "fn main() { let v: Option<u32> = Some(1); v.expect(\"fine in a binary\"); }\n",
    );
    // Integration tests directories are never scanned at all.
    fx.file(
        "crates/sim/tests/it.rs",
        "#[test]\nfn t() { None::<u32>.unwrap(); }\n",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, RuleId::Unwrap);
    assert_eq!((f.path.as_str(), f.line), ("crates/sim/src/lib.rs", 1));
    assert_eq!(report.files_scanned, 2, "tests/ must not be scanned");
}

#[test]
fn float_reduction_fires_only_for_float_folds() {
    let fx = Fixture::new("float");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn bad(items: &[f64]) -> f64 {
    par_fold(
        items,
        1,
        || 0.0f64,
        |acc, &x| *acc += x,
        |acc, other| *acc += other,
    )
}
",
    );
    fx.file(
        "crates/stats/src/lib.rs",
        "\
pub fn fine(items: &[u32]) -> u32 {
    par_fold(
        items,
        1,
        || 0u32,
        |acc, &x| *acc += x,
        |acc, other| *acc += other,
    )
}
",
    );
    let report = fx.scan();
    assert!(!report.findings.is_empty());
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule == RuleId::FoldOrder && f.path == "crates/sim/src/lib.rs"));
}

#[test]
fn seed_provenance_fires_for_literals_and_arithmetic_but_not_stream_seed() {
    let fx = Fixture::new("seed");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn bad_literal() -> u64 { SplitMix64::new(42).next_u64() }
pub fn bad_arith(seed: u64) -> u64 { SplitMix64::new(seed ^ 0xF1).next_u64() }
pub fn good(seed: u64) -> u64 { SplitMix64::new(rfid_hash::stream_seed(seed, 1)).next_u64() }
pub fn also_good(seed: u64) -> u64 { SplitMix64::new(seed).next_u64() }
",
    );
    let report = fx.scan();
    let lines: Vec<usize> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, RuleId::SeedProvenance);
            f.line
        })
        .collect();
    assert_eq!(lines, vec![1, 2], "{:?}", report.findings);
}

#[test]
fn findings_render_as_path_line_rule() {
    let fx = Fixture::new("render");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn pad() {}\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1);
    let rendered = report.findings[0].to_string();
    assert!(
        rendered.starts_with("crates/sim/src/lib.rs:2: [unwrap]"),
        "diagnostics must lead with clickable path:line — got {rendered}"
    );
    assert!(
        rendered.contains("x.unwrap()"),
        "diagnostics must quote the offending line — got {rendered}"
    );
}

#[test]
fn panic_path_distinguishes_guards_from_hot_paths() {
    let fx = Fixture::new("panic-path");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn guarded(xs: &[u32], i: usize) -> u32 {
    assert!(i < xs.len(), \"top-of-fn precondition guard is fine\");
    let mut total = 0;
    for _ in 0..3 {
        assert!(total < 100, \"nested assert fires\");
        debug_assert!(total < 100, \"debug_assert never fires\");
        total += xs[i];
    }
    total
}
",
    );
    let report = fx.scan();
    let lines: Vec<usize> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, RuleId::PanicPath, "{f:?}");
            f.line
        })
        .collect();
    // Line 5: the nested assert!. Line 7: the nested indexing. The guard
    // on line 2 and the debug_assert on line 6 stay silent.
    assert_eq!(lines, vec![5, 7], "{:?}", report.findings);
}

#[test]
fn array_literals_after_keywords_are_not_indexing() {
    let fx = Fixture::new("keyword-array");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn pick(xs: &[u32], a: u32, b: u32, i: usize) -> u32 {
    let mut total = 0;
    if a > b {
        for x in [a, b] {
            total += x;
        }
        total += xs[i];
    }
    total
}
",
    );
    let report = fx.scan();
    let found: Vec<(RuleId, usize)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    // Line 4, `in [a, b]`, is an array literal; line 7 indexes.
    assert_eq!(found, vec![(RuleId::PanicPath, 7)], "{:?}", report.findings);
}

#[test]
fn unwrap_and_nested_index_on_one_line_report_both_rules() {
    let fx = Fixture::new("unwrap-and-index");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn total(x: Option<u32>, xs: &[u32]) -> u32 {
    let mut t = 0;
    for i in 0..xs.len() {
        t += x.unwrap() + xs[i];
    }
    t
}
",
    );
    let report = fx.scan();
    let mut found: Vec<(RuleId, usize)> =
        report.findings.iter().map(|f| (f.rule, f.line)).collect();
    found.sort_by_key(|(rule, _)| rule.name());
    assert_eq!(
        found,
        vec![(RuleId::PanicPath, 4), (RuleId::Unwrap, 4)],
        "{:?}",
        report.findings
    );
}

#[test]
fn float_sanity_fires_on_ln_one_minus_and_exact_eq_but_not_epsilon() {
    let fx = Fixture::new("float-sanity");
    fx.file(
        "crates/stats/src/lib.rs",
        "\
pub fn bad_tail(p: f64) -> f64 { (1.0 - p).ln() }
pub fn bad_eq(x: f64) -> bool { x == 0.5 }
pub fn good_tail(p: f64) -> f64 { (-p).ln_1p() }
pub fn good_eq(a: f64, b: f64) -> bool { (a - b).abs() < 1e-9 * a.abs().max(b.abs()) }
",
    );
    // Same patterns outside the float-sanity crate scope: silent.
    fx.file("crates/sim/src/lib.rs", "pub fn elsewhere(p: f64) -> f64 { (1.0 - p).ln() }\n");
    let report = fx.scan();
    let lines: Vec<usize> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, RuleId::FloatSanity, "{f:?}");
            assert_eq!(f.path, "crates/stats/src/lib.rs");
            f.line
        })
        .collect();
    assert_eq!(lines, vec![1, 2], "{:?}", report.findings);
}

#[test]
fn cast_truncation_fires_on_bare_narrowing_but_not_shifts_or_literals() {
    let fx = Fixture::new("cast");
    fx.file(
        "crates/hash/src/lib.rs",
        "\
pub fn bad(x: u64) -> u32 { x as u32 }
pub fn good_shift(x: u64) -> u32 { (x >> 32) as u32 }
pub fn good_literal() -> u32 { 8192u64 as u32 }
pub fn good_widen(x: u32) -> u64 { x as u64 }
",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, RuleId::CastTruncation);
    assert_eq!(report.findings[0].line, 1);
}

#[test]
fn estimator_registry_fires_for_unregistered_impl() {
    let fx = Fixture::new("registry");
    let impl_src = "\
pub struct Phantom;
impl CardinalityEstimator for Phantom {
    fn name(&self) -> &'static str { \"PHANTOM\" }
}
";
    fx.file("crates/baselines/src/lib.rs", impl_src);
    // A tests/ file constructs it, but the CLI dispatch does not.
    fx.file("crates/cli/src/commands.rs", "pub fn build() {}\n");
    fx.file("tests/smoke.rs", "#[test]\nfn t() { let _ = Phantom; }\n");
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, RuleId::EstimatorRegistry);
    assert_eq!(f.path, "crates/baselines/src/lib.rs");
    assert_eq!(f.line, 2, "points at the impl header");
    assert!(f.message.contains("Phantom"), "{}", f.message);
    assert!(f.message.contains("commands.rs"), "{}", f.message);

    // Registering it clears the finding; no tests/ mention is needed, since
    // the end-to-end and fault-matrix suites iterate the registry.
    fx.file(
        "crates/cli/src/commands.rs",
        "pub fn build() -> Phantom { Phantom }\n",
    );
    fx.file("tests/smoke.rs", "#[test]\nfn t() {}\n");
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn inline_allow_round_trip_suppresses_and_rots_loudly() {
    let fx = Fixture::new("inline-allow");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
// analysis:allow(unwrap): fixture exercises the standalone inline form
pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
",
    );
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);

    // The offending code goes away but the allow stays: stale, loudly.
    fx.file(
        "crates/sim/src/lib.rs",
        "\
// analysis:allow(unwrap): fixture exercises the standalone inline form
pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }
",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, RuleId::StaleAllow);
    assert_eq!(report.findings[0].line, 1);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn non_utf8_file_is_a_clean_diagnostic_not_a_panic() {
    let fx = Fixture::new("notutf8");
    fx.file("crates/sim/src/lib.rs", "pub fn ok() {}\n");
    fx.raw("crates/sim/src/blob.rs", b"pub fn x() {}\n\xFF\xFE broken\n");
    let err = scan_workspace(&fx.root).expect_err("non-UTF-8 must fail the scan");
    assert!(matches!(err, Error::NotUtf8(_, _)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("blob.rs"), "names the offending file: {msg}");
    assert!(msg.contains("not valid UTF-8"), "says what is wrong: {msg}");
    assert!(msg.contains("offset 14"), "locates the first bad byte: {msg}");
}

#[test]
fn sarif_output_validates_against_the_2_1_0_skeleton() {
    let fx = Fixture::new("sarif");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let report = fx.scan();
    assert_eq!(report.findings.len(), 1);

    let doc = Value::parse(&render_sarif(&report)).expect("SARIF output is valid JSON");
    assert_eq!(doc.get("$schema").and_then(Value::as_str), Some(SARIF_SCHEMA));
    assert_eq!(doc.get("version").and_then(Value::as_str), Some(SARIF_VERSION));
    let runs = doc.get("runs").and_then(Value::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1);

    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(Value::as_str), Some("rfid-analysis"));
    let rules = driver.get("rules").and_then(Value::as_arr).expect("driver.rules");
    assert_eq!(rules.len(), ALL_RULES.len(), "every rule is declared");
    for rule in rules {
        assert!(rule.get("id").and_then(Value::as_str).is_some());
        assert!(rule
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Value::as_str)
            .is_some());
    }

    let results = runs[0].get("results").and_then(Value::as_arr).expect("results");
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert_eq!(result.get("ruleId").and_then(Value::as_str), Some("unwrap"));
    assert_eq!(result.get("level").and_then(Value::as_str), Some("error"));
    assert!(result
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Value::as_str)
        .is_some());
    let loc = result.get("locations").and_then(Value::as_arr).expect("locations")[0]
        .get("physicalLocation")
        .expect("physicalLocation");
    let artifact = loc.get("artifactLocation").expect("artifactLocation");
    assert_eq!(
        artifact.get("uri").and_then(Value::as_str),
        Some("crates/sim/src/lib.rs")
    );
    assert_eq!(artifact.get("uriBaseId").and_then(Value::as_str), Some("SRCROOT"));
    assert_eq!(
        loc.get("region").and_then(|r| r.get("startLine")).and_then(Value::as_num),
        Some(1.0)
    );
}

#[test]
fn json_output_carries_the_full_report() {
    let fx = Fixture::new("json-out");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let report = fx.scan();
    let doc = Value::parse(&render_json(&report)).expect("JSON output parses");
    assert_eq!(doc.get("tool").and_then(Value::as_str), Some("rfid-analysis"));
    assert_eq!(doc.get("clean"), Some(&Value::Bool(false)));
    assert_eq!(doc.get("files_scanned").and_then(Value::as_num), Some(1.0));
    let findings = doc.get("findings").and_then(Value::as_arr).expect("findings");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].get("rule").and_then(Value::as_str), Some("unwrap"));
}

#[test]
fn airtime_conservation_catches_a_seeded_uncharged_collector() {
    // The acceptance fixture for the effect engine: a collector reachable
    // from RfidSystem that senses slots but never touches a `*_BITS`
    // constant or the AirTimeLedger must fire; charging through a ledger
    // primitive (even indirectly) clears it.
    let fx = Fixture::new("airtime");
    fx.file("crates/sim/src/lib.rs", "pub mod system;\n");
    fx.file(
        "crates/sim/src/system.rs",
        "\
pub struct AirTimeLedger { bits: u64 }
impl AirTimeLedger { pub fn tag_responses(&mut self, n: u64) { self.bits = self.bits + n; } }
pub struct RfidSystem { ledger: AirTimeLedger }
impl RfidSystem {
    pub fn estimate(&mut self, w: usize) -> usize { self.run_rogue_frame(w) }
    pub fn run_rogue_frame(&mut self, w: usize) -> usize {
        let mut hits = 0usize;
        for s in 0..w { if s % 3 == 0 { hits = hits + 1; } }
        hits
    }
}
",
    );
    let report = fx.scan();
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::AirtimeConservation)
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, "crates/sim/src/system.rs");
    assert_eq!(hits[0].line, 6, "points at the collector's fn header");
    assert!(hits[0].message.contains("run_rogue_frame"), "{}", hits[0].message);
    assert!(
        hits[0].message.contains("no air-time charging site"),
        "{}",
        hits[0].message
    );

    // Charging the ledger inside the collector clears the finding.
    fx.file(
        "crates/sim/src/system.rs",
        "\
pub struct AirTimeLedger { bits: u64 }
impl AirTimeLedger { pub fn tag_responses(&mut self, n: u64) { self.bits = self.bits + n; } }
pub struct RfidSystem { ledger: AirTimeLedger }
impl RfidSystem {
    pub fn estimate(&mut self, w: usize) -> usize { self.run_rogue_frame(w) }
    pub fn run_rogue_frame(&mut self, w: usize) -> usize {
        self.ledger.tag_responses(w as u64);
        w
    }
}
",
    );
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn hotpath_alloc_fires_below_kernel_roots_and_panics_stay_with_the_panic_rules() {
    // A helper reachable from the `response_fill_dispatched` kernel root
    // allocates and can panic inside its slot loop. `hotpath-alloc-free`
    // points at the allocation in the helper, not the root; the panicking
    // line is `unwrap`'s and `panic-path`'s, once each.
    let fx = Fixture::new("hotpath");
    fx.file(
        "crates/sim/src/lib.rs",
        "\
pub fn response_fill_dispatched(xs: &[u32], w: usize) -> u32 {
    helper(xs, w)
}
fn helper(xs: &[u32], w: usize) -> u32 {
    let mut total = 0u32;
    for i in 0..w {
        let scratch = vec![0u8; 4];
        total = total + xs.get(i).copied().unwrap() + scratch[3] as u32;
    }
    total
}
",
    );
    let report = fx.scan();
    let panics: Vec<_> = report
        .findings
        .iter()
        .filter(|f| matches!(f.rule, RuleId::Unwrap | RuleId::PanicPath))
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let allocs: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::HotpathAllocFree)
        .collect();
    assert_eq!(allocs.len(), 1, "{:?}", report.findings);
    assert_eq!((allocs[0].path.as_str(), allocs[0].line), ("crates/sim/src/lib.rs", 7));
    assert!(allocs[0].message.contains("helper"), "{}", allocs[0].message);
    assert_eq!(
        panics,
        vec![
            (RuleId::Unwrap, "crates/sim/src/lib.rs", 8),
            (RuleId::PanicPath, "crates/sim/src/lib.rs", 8),
        ],
        "{:?}",
        report.findings
    );
}

#[test]
fn effects_json_rides_the_report_and_carries_interprocedural_summaries() {
    // The `rfid-effects/v1` document embedded in `--format json` must
    // carry the fixpoint: `outer` allocates only
    // through `inner`, so its direct set is empty but its summary is not.
    let fx = Fixture::new("effects-json");
    fx.file(
        "crates/workloads/src/lib.rs",
        "\
pub fn outer(n: usize) -> Vec<u64> { inner(n) }
fn inner(n: usize) -> Vec<u64> { vec![0u64; n] }
",
    );
    let report = fx.scan();
    assert!(report.is_clean(), "{:?}", report.findings);
    let doc = Value::parse(&render_json(&report)).expect("JSON output parses");
    let effects = doc.get("effects").expect("effects object rides along");
    assert_eq!(
        effects.get("schema").and_then(Value::as_str),
        Some("rfid-effects/v1")
    );
    let fns = effects.get("fns").and_then(Value::as_arr).expect("fns array");
    let row = |name: &str| {
        fns.iter()
            .find(|f| f.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("fn `{name}` missing from {fns:?}"))
    };
    let names = |v: &Value, key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("effect list")
            .iter()
            .map(|e| e.as_str().expect("effect name").to_string())
            .collect()
    };
    let inner = row("inner");
    assert_eq!(names(inner, "direct"), vec!["allocates"]);
    assert_eq!(names(inner, "summary"), vec!["allocates"]);
    let outer = row("outer");
    assert_eq!(names(outer, "direct"), Vec::<String>::new());
    assert_eq!(
        names(outer, "summary"),
        vec!["allocates"],
        "the callee's allocation must propagate into the caller's summary"
    );
    let crates = effects.get("crates").expect("crates object");
    assert_eq!(
        crates.get("workloads").and_then(Value::as_num),
        Some(2.0),
        "both fns carry a non-empty summary"
    );
}

#[test]
fn findings_are_sorted_by_path_then_line() {
    let fx = Fixture::new("sorted");
    fx.file(
        "crates/sim/src/lib.rs",
        "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\npub fn b(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    fx.file(
        "crates/hash/src/lib.rs",
        "pub fn c(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let report = fx.scan();
    let keys: Vec<(String, usize)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(keys.len(), 3);
}
