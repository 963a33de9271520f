//! Rule yield sweep: every bug class the linter exists for is caught by
//! exactly the rules that own it, on the real workspace.
//!
//! The sweep copies the workspace's sources (`src/` and `tests/` at the
//! root and under every crate) to a scratch directory, scans the copy
//! once clean, injects one instance of each bug class below at a known
//! line, and scans again. Every finding of the mutated scan must land on
//! a line marked `// bug` in some class's injected code, and each class
//! must draw exactly its expected rule set: a class caught by no rule, or
//! by a rule that does not own its hazard, fails the test. That keeps the
//! rule set at one rule per hazard: merging or retiring a rule is safe
//! exactly when this table still passes.

use rfid_analysis::{scan_workspace, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One injected bug class.
struct Class {
    /// Short name, used in the marker comment and in failure messages.
    name: &'static str,
    /// Workspace-relative file the code goes into.
    path: &'static str,
    /// Insert after the first line whose trimmed text is this; `None`
    /// appends at the end of the file.
    after: Option<&'static str>,
    /// The injected lines. Findings must land on the lines ending in
    /// `// bug`, and nowhere else.
    code: &'static str,
    /// The exact set of rules the class must fire.
    rules: &'static [&'static str],
}

/// The frame sink's per-response entry point, which every fill kernel
/// reaches.
const RECORD: Option<&str> = Some("pub fn record(&mut self, slot: usize) {");

const CLASSES: &[Class] = &[
    Class {
        name: "nested-unwrap-in-hot-loop",
        path: "crates/sim/src/frame.rs",
        after: RECORD,
        code: "        if slot == usize::MAX { Some(slot).unwrap(); } // bug\n",
        rules: &["unwrap"],
    },
    Class {
        name: "nested-index-in-hot-loop",
        path: "crates/sim/src/frame.rs",
        after: RECORD,
        code: "        if slot > 0 { let _ = [0u64; 1][slot]; } // bug\n",
        rules: &["panic-path"],
    },
    Class {
        name: "nested-assert-in-hot-loop",
        path: "crates/sim/src/frame.rs",
        after: RECORD,
        code: "        if slot > 0 { assert!(slot < usize::MAX); } // bug\n",
        rules: &["panic-path"],
    },
    Class {
        name: "nested-vec-in-hot-loop",
        path: "crates/sim/src/frame.rs",
        after: RECORD,
        code: "        if slot > 0 { let _ = vec![slot]; } // bug\n",
        rules: &["hotpath-alloc-free"],
    },
    Class {
        name: "float-add-in-fold-closure",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_fold_sum(xs: &[f64]) -> f64 {\n\
               \x20   par_fold(xs, 1, || 0.0f64, |acc, x| *acc += x, |acc, o| *acc += o) // bug\n\
               }\n",
        rules: &["fold-order"],
    },
    Class {
        name: "float-reducer-one-call-away",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "fn sweep_merge(acc: &mut f64, x: f64) {\n\
               \x20   *acc += x;\n\
               }\n\
               pub fn sweep_fold_call(xs: &[f64]) -> f64 {\n\
               \x20   par_fold(xs, 1, || 0.0f64, |acc, x| sweep_merge(acc, *x), |acc, o| sweep_merge(acc, o)) // bug\n\
               }\n",
        rules: &["fold-order"],
    },
    Class {
        name: "literal-seed",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_literal_seed() -> u64 {\n\
               \x20   SplitMix64::new(42).next_u64() // bug\n\
               }\n",
        rules: &["seed-provenance"],
    },
    Class {
        name: "xor-seed-arithmetic",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_xor_seed(seed: u64) -> u64 {\n\
               \x20   SplitMix64::new(seed ^ 0xF1).next_u64() // bug\n\
               }\n",
        rules: &["seed-provenance"],
    },
    Class {
        name: "xor-seed-through-a-let",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_let_seed(seed: u64) -> u64 {\n\
               \x20   let s = seed ^ 3;\n\
               \x20   SplitMix64::new(s).next_u64() // bug\n\
               }\n",
        rules: &["seed-provenance"],
    },
    Class {
        name: "literal-seed-two-calls-deep",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_deep_seed() -> u64 {\n\
               \x20   sweep_seed_relay(0xDEAD_BEEF)\n\
               }\n\
               fn sweep_seed_relay(s: u64) -> u64 {\n\
               \x20   sweep_seed_sink(s)\n\
               }\n\
               fn sweep_seed_sink(s: u64) -> u64 {\n\
               \x20   SplitMix64::new(s).next_u64() // bug\n\
               }\n",
        rules: &["seed-provenance"],
    },
    Class {
        name: "wall-clock-seed",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_clock_seed() -> u64 {\n\
               \x20   SplitMix64::new(std::time::Instant::now().elapsed().as_nanos() as u64).next_u64() // bug\n\
               }\n",
        rules: &["nondeterminism", "seed-provenance"],
    },
    Class {
        name: "multi-line-literal-seed",
        path: "crates/sim/src/lib.rs",
        after: None,
        code: "pub fn sweep_split_seed() -> u64 {\n\
               \x20   SplitMix64::new( // bug\n\
               \x20       42,\n\
               \x20   )\n\
               \x20   .next_u64()\n\
               }\n",
        rules: &["seed-provenance"],
    },
    Class {
        name: "hash-map",
        path: "crates/workloads/src/lib.rs",
        after: None,
        code: "pub fn sweep_map_len() -> usize {\n\
               \x20   std::collections::HashMap::<u64, u64>::new().len() // bug\n\
               }\n",
        rules: &["nondeterminism"],
    },
    Class {
        name: "cold-unwrap",
        path: "crates/workloads/src/lib.rs",
        after: None,
        code: "pub fn sweep_cold_unwrap(x: Option<u64>) -> u64 {\n\
               \x20   x.unwrap() // bug\n\
               }\n",
        rules: &["unwrap"],
    },
    Class {
        name: "cancelling-log",
        path: "crates/stats/src/lib.rs",
        after: None,
        code: "pub fn sweep_tail(x: f64) -> f64 {\n\
               \x20   (1.0 - x).ln() // bug\n\
               }\n",
        rules: &["float-sanity"],
    },
    Class {
        name: "narrowing-width-cast",
        path: "crates/hash/src/lib.rs",
        after: None,
        code: "pub fn sweep_narrow(w: usize) -> u16 {\n\
               \x20   w as u16 // bug\n\
               }\n",
        rules: &["cast-truncation"],
    },
    Class {
        name: "uncharged-frame-collector",
        path: "crates/sim/src/system.rs",
        after: None,
        code: "impl RfidSystem {\n\
               \x20   pub fn run_sweep_frame(&mut self, w: usize) -> usize { // bug\n\
               \x20       w\n\
               \x20   }\n\
               }\n",
        rules: &["airtime-conservation"],
    },
    Class {
        name: "unregistered-estimator",
        path: "crates/baselines/src/lib.rs",
        after: None,
        code: "pub struct SweepEstimator;\n\
               impl CardinalityEstimator for SweepEstimator {} // bug\n",
        rules: &["estimator-registry"],
    },
];

/// A scratch copy of the workspace sources that removes itself.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn copy_of(workspace: &Path) -> Self {
        let root =
            std::env::temp_dir().join(format!("rfid-analysis-yield-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut dirs = vec![PathBuf::from("src"), PathBuf::from("tests")];
        let crates = std::fs::read_dir(workspace.join("crates")).expect("read crates/");
        for entry in crates.flatten() {
            let name = PathBuf::from("crates").join(entry.file_name());
            dirs.push(name.join("src"));
            dirs.push(name.join("tests"));
        }
        for dir in dirs {
            copy_rust_files(&workspace.join(&dir), &root.join(&dir));
        }
        Self { root }
    }

    fn scan(&self) -> Report {
        scan_workspace(&self.root).expect("scan of the copied workspace")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copy every `.rs` file under `from` to the same place under `to`.
fn copy_rust_files(from: &Path, to: &Path) {
    let Ok(entries) = std::fs::read_dir(from) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let dest = to.join(entry.file_name());
        if path.is_dir() {
            copy_rust_files(&path, &dest);
        } else if path.extension().is_some_and(|e| e == "rs") {
            std::fs::create_dir_all(to).expect("create scratch dir");
            std::fs::copy(&path, &dest).expect("copy source file");
        }
    }
}

/// Inject every class into the copy at `root`; returns the marked lines,
/// `(path, line) -> class name`.
fn inject(root: &Path) -> BTreeMap<(String, usize), &'static str> {
    let mut texts: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for class in CLASSES {
        let lines = texts.entry(class.path).or_insert_with(|| {
            let text = std::fs::read_to_string(root.join(class.path))
                .unwrap_or_else(|e| panic!("read {}: {e}", class.path));
            text.lines().map(str::to_string).collect()
        });
        let at = match class.after {
            Some(anchor) => {
                1 + lines
                    .iter()
                    .position(|l| l.trim() == anchor)
                    .unwrap_or_else(|| panic!("{}: no line `{anchor}`", class.path))
            }
            None => lines.len(),
        };
        let code = class.code.lines().map(|l| match l.strip_suffix("// bug") {
            Some(code) => format!("{code}// bug: {}", class.name),
            None => l.to_string(),
        });
        lines.splice(at..at, code);
    }
    let mut marked = BTreeMap::new();
    for (path, lines) in texts {
        for (i, line) in lines.iter().enumerate() {
            if let Some((_, name)) = line.split_once("// bug: ") {
                let class = CLASSES
                    .iter()
                    .find(|c| c.name == name)
                    .expect("known class");
                marked.insert((path.to_string(), i + 1), class.name);
            }
        }
        std::fs::write(root.join(path), lines.join("\n") + "\n").expect("write mutant");
    }
    marked
}

#[test]
fn every_bug_class_is_caught_by_exactly_its_rules() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels below the root");
    let scratch = Scratch::copy_of(workspace);
    let clean = scratch.scan();
    assert!(
        clean.is_clean(),
        "the copied tree is not clean: {:#?}",
        clean.findings
    );

    let marked = inject(&scratch.root);
    let mutated = scratch.scan();
    assert_eq!(
        mutated.suppressed, clean.suppressed,
        "an injection moved an inline allow off its target"
    );
    let mut caught: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut stray = Vec::new();
    for finding in &mutated.findings {
        match marked.get(&(finding.path.clone(), finding.line)) {
            Some(class) => {
                caught.entry(class).or_default().insert(finding.rule.name());
            }
            None => stray.push(finding.to_string()),
        }
    }
    assert!(
        stray.is_empty(),
        "findings off the marked lines:\n{}",
        stray.join("\n")
    );
    let wrong: Vec<String> = CLASSES
        .iter()
        .filter_map(|class| {
            let got = caught.get(class.name).cloned().unwrap_or_default();
            let want: BTreeSet<&str> = class.rules.iter().copied().collect();
            (got != want).then(|| format!("{}: expected {want:?}, caught by {got:?}", class.name))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "rule yield differs:\n{}",
        wrong.join("\n")
    );
}
