//! Dependency-free `--key value` argument parsing for the `rfid` tool.

use rfid_sim::Accuracy;
use rfid_workloads::WorkloadSpec;

/// Usage text printed by `rfid help` (and on parse errors).
pub const USAGE: &str = "\
rfid — BFCE RFID cardinality estimation (ICPP 2015 reproduction)

USAGE:
  rfid estimate  --n <count> [--estimator bfce] [--workload T1] [--epsilon 0.05]
                 [--delta 0.05] [--seed 42] [--trials 1] [--jobs 0] [--ber 0.0]
  rfid compare   --n <count> [--estimators bfce,zoe,src] [--workload T2]
                 [--epsilon 0.05] [--delta 0.05] [--seed 42]
  rfid trace     --n <count> [--workload T1] [--seed 42]
  rfid workload  --spec <T1|T2|T3|sequential|clustered> --n <count> [--seed 42]
  rfid diff      --n <count> [--departed 1000] [--arrived 500] [--seed 42]
  rfid robustness [--n 8000] [--classes abort,dropout] [--intensities 0.25,0.75]
                 [--estimators bfce,zoe,upe,fneb] [--epsilon 0.05] [--delta 0.05]
                 [--seed 42] [--trials 3] [--jobs 0]
  rfid snapshot  --n <count> [--sketch hllpp] [--readers 4] [--overlap 0.2]
                 [--out rfid] [--workload T1] [--seed 42]
  rfid merge     --inputs a.sketch,b.sketch[,...] [--truth <count>]
  rfid info
  rfid help

Estimators: bfce, zoe, src, lof, upe, ezb, fneb, art, mle, pet, a3, inventory,
            hllpp, llbeta
Sketches:   hllpp, llbeta, bloom (the rfid-sketch/v1 wire format)
Workloads:  T1 (uniform), T2 (approx normal), T3 (normal), sequential, clustered
Faults:     abort, burst, desync, dropout, capture, imperfect-hash, bit-error
";

/// Options shared by the estimation-style subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOpts {
    /// Population size.
    pub n: usize,
    /// Estimator name (see [`USAGE`]).
    pub estimator: String,
    /// Tag-ID workload.
    pub workload: WorkloadSpec,
    /// Accuracy epsilon.
    pub epsilon: f64,
    /// Accuracy delta.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Independent repetitions (`--trials`; `--rounds` is accepted as an
    /// alias).
    pub rounds: u32,
    /// Channel bit-error rate (0 = the paper's perfect channel).
    pub ber: f64,
    /// Worker threads for trial-parallel runs (0 = one per CPU core).
    pub jobs: usize,
}

impl Default for EstimateOpts {
    fn default() -> Self {
        Self {
            n: 100_000,
            estimator: "bfce".into(),
            workload: WorkloadSpec::T1,
            epsilon: 0.05,
            delta: 0.05,
            seed: 42,
            rounds: 1,
            ber: 0.0,
            jobs: 0,
        }
    }
}

/// Options for `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOpts {
    /// Base estimation options (its `estimator` field is unused).
    pub base: EstimateOpts,
    /// Estimator names to compare.
    pub estimators: Vec<String>,
}

/// Options for `workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOpts {
    /// Which distribution.
    pub spec: WorkloadSpec,
    /// How many IDs.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Options for `diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOpts {
    /// Epoch-1 population size.
    pub n: usize,
    /// Tags departing before epoch 2.
    pub departed: usize,
    /// Tags arriving before epoch 2.
    pub arrived: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Options for `robustness`.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessOpts {
    /// Population size per trial.
    pub n: usize,
    /// Fault classes to sweep (validated downstream against the
    /// experiment registry).
    pub classes: Vec<String>,
    /// Fault intensities, each in [0, 1].
    pub intensities: Vec<f64>,
    /// Estimator names to sweep.
    pub estimators: Vec<String>,
    /// Accuracy epsilon.
    pub epsilon: f64,
    /// Accuracy delta.
    pub delta: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u32,
    /// Worker threads (0 = one per CPU core).
    pub jobs: usize,
}

impl Default for RobustnessOpts {
    fn default() -> Self {
        Self {
            n: 8_000,
            classes: Vec::new(), // empty = every class
            intensities: vec![0.25, 0.75],
            estimators: vec!["bfce".into(), "zoe".into(), "upe".into(), "fneb".into()],
            epsilon: 0.05,
            delta: 0.05,
            seed: 42,
            trials: 3,
            jobs: 0,
        }
    }
}

/// Options for `snapshot`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOpts {
    /// Total (union) population size across the deployment.
    pub n: usize,
    /// Which sketch to collect: `hllpp`, `llbeta`, or `bloom`.
    pub sketch: String,
    /// Physical readers in the deployment.
    pub readers: usize,
    /// Fraction of each reader's coverage shared with its neighbour,
    /// in `[0, 1)`.
    pub overlap: f64,
    /// Output path prefix; reader `i` writes `<out>.reader<i>.sketch`.
    pub out: String,
    /// Tag-ID workload.
    pub workload: WorkloadSpec,
    /// RNG seed (also derives the shared broadcast seed all readers use).
    pub seed: u64,
}

impl Default for SnapshotOpts {
    fn default() -> Self {
        Self {
            n: 100_000,
            sketch: "hllpp".into(),
            readers: 4,
            overlap: 0.2,
            out: "rfid".into(),
            workload: WorkloadSpec::T1,
            seed: 42,
        }
    }
}

/// Options for `merge`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOpts {
    /// Snapshot files to fold, in order.
    pub inputs: Vec<String>,
    /// Known true cardinality, for a relative-error column.
    pub truth: Option<usize>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rfid estimate …`
    Estimate(EstimateOpts),
    /// `rfid compare …`
    Compare(CompareOpts),
    /// `rfid trace …`
    Trace(EstimateOpts),
    /// `rfid workload …`
    Workload(WorkloadOpts),
    /// `rfid diff …`
    Diff(DiffOpts),
    /// `rfid robustness …`
    Robustness(RobustnessOpts),
    /// `rfid snapshot …`
    Snapshot(SnapshotOpts),
    /// `rfid merge …`
    Merge(MergeOpts),
    /// `rfid info`
    Info,
    /// `rfid help` (or no arguments)
    Help,
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn parse_workload(value: &str) -> Result<WorkloadSpec, ParseError> {
    match value.to_ascii_lowercase().as_str() {
        "t1" => Ok(WorkloadSpec::T1),
        "t2" => Ok(WorkloadSpec::T2),
        "t3" => Ok(WorkloadSpec::T3),
        "sequential" => Ok(WorkloadSpec::Sequential),
        "clustered" => Ok(WorkloadSpec::Clustered { block: 1000 }),
        other => Err(ParseError(format!("unknown workload '{other}'"))),
    }
}

/// Collect `--key value` pairs after the subcommand.
fn key_values(args: &[String]) -> Result<Vec<(&str, &str)>, ParseError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| ParseError(format!("expected --key, got '{}'", args[i])))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| ParseError(format!("--{key} needs a value")))?;
        out.push((key, value.as_str()));
        i += 2;
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("--{key}: cannot parse '{value}'")))
}

/// Reject an `--epsilon`/`--delta` pair that [`Accuracy::try_new`] would
/// (NaN included), naming the flag.
fn check_accuracy(epsilon: f64, delta: f64) -> Result<(), ParseError> {
    Accuracy::try_new(epsilon, delta)
        .map(drop)
        .map_err(|err| ParseError(format!("--{err}")))
}

fn fill_estimate_opts(
    opts: &mut EstimateOpts,
    pairs: &[(&str, &str)],
    allow_estimator: bool,
) -> Result<(), ParseError> {
    for &(key, value) in pairs {
        match key {
            "n" => opts.n = parse_num(key, value)?,
            "estimator" if allow_estimator => opts.estimator = value.to_string(),
            "workload" => opts.workload = parse_workload(value)?,
            "epsilon" => opts.epsilon = parse_num(key, value)?,
            "delta" => opts.delta = parse_num(key, value)?,
            "seed" => opts.seed = parse_num(key, value)?,
            "rounds" | "trials" => opts.rounds = parse_num(key, value)?,
            "ber" => opts.ber = parse_num(key, value)?,
            "jobs" => opts.jobs = parse_num(key, value)?,
            other => return Err(ParseError(format!("unknown option --{other}"))),
        }
    }
    check_accuracy(opts.epsilon, opts.delta)?;
    if opts.rounds == 0 {
        return Err(ParseError("--trials must be at least 1".into()));
    }
    if !(0.0..=1.0).contains(&opts.ber) {
        return Err(ParseError("--ber must lie in [0, 1]".into()));
    }
    Ok(())
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match sub.as_str() {
        "estimate" | "trace" => {
            let mut opts = EstimateOpts::default();
            fill_estimate_opts(&mut opts, &key_values(rest)?, sub == "estimate")?;
            if sub == "estimate" {
                Ok(Command::Estimate(opts))
            } else {
                Ok(Command::Trace(opts))
            }
        }
        "compare" => {
            let pairs = key_values(rest)?;
            let mut estimators = vec!["bfce".into(), "zoe".into(), "src".into()];
            let mut remaining = Vec::new();
            for &(key, value) in &pairs {
                if key == "estimators" {
                    estimators = value.split(',').map(|s| s.trim().to_string()).collect();
                    if estimators.is_empty() {
                        return Err(ParseError("--estimators list is empty".into()));
                    }
                } else {
                    remaining.push((key, value));
                }
            }
            let mut base = EstimateOpts::default();
            fill_estimate_opts(&mut base, &remaining, false)?;
            Ok(Command::Compare(CompareOpts { base, estimators }))
        }
        "workload" => {
            let mut opts = WorkloadOpts {
                spec: WorkloadSpec::T1,
                n: 20,
                seed: 42,
            };
            for (key, value) in key_values(rest)? {
                match key {
                    "spec" => opts.spec = parse_workload(value)?,
                    "n" => opts.n = parse_num(key, value)?,
                    "seed" => opts.seed = parse_num(key, value)?,
                    other => {
                        return Err(ParseError(format!("unknown option --{other}")))
                    }
                }
            }
            Ok(Command::Workload(opts))
        }
        "diff" => {
            let mut opts = DiffOpts {
                n: 50_000,
                departed: 2_500,
                arrived: 1_000,
                seed: 42,
            };
            for (key, value) in key_values(rest)? {
                match key {
                    "n" => opts.n = parse_num(key, value)?,
                    "departed" => opts.departed = parse_num(key, value)?,
                    "arrived" => opts.arrived = parse_num(key, value)?,
                    "seed" => opts.seed = parse_num(key, value)?,
                    other => {
                        return Err(ParseError(format!("unknown option --{other}")))
                    }
                }
            }
            if opts.departed > opts.n {
                return Err(ParseError("--departed exceeds --n".into()));
            }
            Ok(Command::Diff(opts))
        }
        "robustness" => {
            let mut opts = RobustnessOpts::default();
            for (key, value) in key_values(rest)? {
                match key {
                    "n" => opts.n = parse_num(key, value)?,
                    "classes" => {
                        opts.classes =
                            value.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    "intensities" => {
                        opts.intensities = value
                            .split(',')
                            .map(|s| parse_num("intensities", s.trim()))
                            .collect::<Result<_, _>>()?;
                    }
                    "estimators" => {
                        opts.estimators =
                            value.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    "epsilon" => opts.epsilon = parse_num(key, value)?,
                    "delta" => opts.delta = parse_num(key, value)?,
                    "seed" => opts.seed = parse_num(key, value)?,
                    "trials" | "rounds" => opts.trials = parse_num(key, value)?,
                    "jobs" => opts.jobs = parse_num(key, value)?,
                    other => {
                        return Err(ParseError(format!("unknown option --{other}")))
                    }
                }
            }
            check_accuracy(opts.epsilon, opts.delta)?;
            if opts.trials == 0 {
                return Err(ParseError("--trials must be at least 1".into()));
            }
            if opts.estimators.is_empty() {
                return Err(ParseError("--estimators list is empty".into()));
            }
            if opts.intensities.is_empty()
                || opts.intensities.iter().any(|l| !(0.0..=1.0).contains(l))
            {
                return Err(ParseError(
                    "--intensities must be a non-empty list within [0, 1]".into(),
                ));
            }
            Ok(Command::Robustness(opts))
        }
        "snapshot" => {
            let mut opts = SnapshotOpts::default();
            for (key, value) in key_values(rest)? {
                match key {
                    "n" => opts.n = parse_num(key, value)?,
                    "sketch" => opts.sketch = value.to_ascii_lowercase(),
                    "readers" => opts.readers = parse_num(key, value)?,
                    "overlap" => opts.overlap = parse_num(key, value)?,
                    "out" => opts.out = value.to_string(),
                    "workload" => opts.workload = parse_workload(value)?,
                    "seed" => opts.seed = parse_num(key, value)?,
                    other => {
                        return Err(ParseError(format!("unknown option --{other}")))
                    }
                }
            }
            if opts.readers == 0 {
                return Err(ParseError("--readers must be at least 1".into()));
            }
            if !(0.0..1.0).contains(&opts.overlap) {
                return Err(ParseError("--overlap must lie in [0, 1)".into()));
            }
            if opts.out.is_empty() {
                return Err(ParseError("--out must not be empty".into()));
            }
            Ok(Command::Snapshot(opts))
        }
        "merge" => {
            let mut opts = MergeOpts {
                inputs: Vec::new(),
                truth: None,
            };
            for (key, value) in key_values(rest)? {
                match key {
                    "inputs" => {
                        opts.inputs = value
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                    }
                    "truth" => opts.truth = Some(parse_num(key, value)?),
                    other => {
                        return Err(ParseError(format!("unknown option --{other}")))
                    }
                }
            }
            if opts.inputs.is_empty() {
                return Err(ParseError(
                    "--inputs needs at least one snapshot file".into(),
                ));
            }
            Ok(Command::Merge(opts))
        }
        "info" => Ok(Command::Info),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown subcommand '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn empty_is_help() -> Result<(), ParseError> {
        assert_eq!(parse(&[])?, Command::Help);
        assert_eq!(parse(&argv("help"))?, Command::Help);
        assert_eq!(parse(&argv("--help"))?, Command::Help);
        Ok(())
    }

    #[test]
    fn estimate_defaults_and_overrides() -> Result<(), ParseError> {
        let cmd = parse(&argv(
            "estimate --n 5000 --estimator zoe --workload t3 --epsilon 0.1 \
             --delta 0.2 --seed 7 --rounds 3 --ber 0.01",
        ))?;
        let Command::Estimate(o) = cmd else {
            panic!("wrong variant")
        };
        assert_eq!(o.n, 5000);
        assert_eq!(o.estimator, "zoe");
        assert_eq!(o.workload, WorkloadSpec::T3);
        assert_eq!(o.epsilon, 0.1);
        assert_eq!(o.delta, 0.2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.rounds, 3);
        assert_eq!(o.ber, 0.01);
        Ok(())
    }

    #[test]
    fn estimate_trials_and_jobs_flags() -> Result<(), ParseError> {
        let Command::Estimate(o) = parse(&argv("estimate --trials 8 --jobs 4"))? else {
            panic!()
        };
        assert_eq!(o.rounds, 8);
        assert_eq!(o.jobs, 4);
        // --rounds stays as a backwards-compatible alias.
        let Command::Estimate(o) = parse(&argv("estimate --rounds 5"))? else {
            panic!()
        };
        assert_eq!(o.rounds, 5);
        assert!(parse(&argv("estimate --trials 0")).is_err());
        assert!(parse(&argv("estimate --jobs x")).is_err());
        Ok(())
    }

    #[test]
    fn estimate_bare_uses_defaults() -> Result<(), ParseError> {
        let Command::Estimate(o) = parse(&argv("estimate"))? else {
            panic!()
        };
        assert_eq!(o, EstimateOpts::default());
        Ok(())
    }

    #[test]
    fn compare_parses_estimator_list() -> Result<(), ParseError> {
        let Command::Compare(c) = parse(&argv("compare --n 1000 --estimators bfce,ezb,art"))?
        else {
            panic!()
        };
        assert_eq!(c.estimators, vec!["bfce", "ezb", "art"]);
        assert_eq!(c.base.n, 1000);
        Ok(())
    }

    #[test]
    fn compare_rejects_estimator_key_in_base() {
        assert!(parse(&argv("compare --estimator zoe")).is_err());
    }

    #[test]
    fn trace_ignores_estimator_key() {
        assert!(parse(&argv("trace --estimator zoe")).is_err());
        assert!(parse(&argv("trace --n 100")).is_ok());
    }

    #[test]
    fn workload_subcommand() -> Result<(), ParseError> {
        let Command::Workload(w) = parse(&argv("workload --spec sequential --n 5 --seed 9"))?
        else {
            panic!()
        };
        assert_eq!(w.spec, WorkloadSpec::Sequential);
        assert_eq!(w.n, 5);
        assert_eq!(w.seed, 9);
        Ok(())
    }

    #[test]
    fn diff_subcommand() -> Result<(), ParseError> {
        let Command::Diff(d) = parse(&argv("diff --n 10000 --departed 800 --arrived 300 --seed 5"))?
        else {
            panic!()
        };
        assert_eq!(d.n, 10_000);
        assert_eq!(d.departed, 800);
        assert_eq!(d.arrived, 300);
        assert_eq!(d.seed, 5);
        assert!(parse(&argv("diff --n 10 --departed 11")).is_err());
        Ok(())
    }

    #[test]
    fn robustness_subcommand() -> Result<(), ParseError> {
        let Command::Robustness(o) = parse(&argv(
            "robustness --n 4000 --classes abort,dropout --intensities 0.1,0.9 \
             --estimators bfce,zoe --trials 2 --seed 7 --jobs 2",
        ))?
        else {
            panic!()
        };
        assert_eq!(o.n, 4_000);
        assert_eq!(o.classes, vec!["abort", "dropout"]);
        assert_eq!(o.intensities, vec![0.1, 0.9]);
        assert_eq!(o.estimators, vec!["bfce", "zoe"]);
        assert_eq!(o.trials, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 2);
        // Bare invocation sweeps every class with the defaults.
        let Command::Robustness(o) = parse(&argv("robustness"))? else {
            panic!()
        };
        assert_eq!(o, RobustnessOpts::default());
        assert!(parse(&argv("robustness --intensities 1.5")).is_err());
        assert!(parse(&argv("robustness --trials 0")).is_err());
        assert!(parse(&argv("robustness --bogus 1")).is_err());
        Ok(())
    }

    #[test]
    fn snapshot_subcommand() -> Result<(), ParseError> {
        let Command::Snapshot(o) = parse(&argv(
            "snapshot --n 50000 --sketch llbeta --readers 8 --overlap 0.3 \
             --out /tmp/depot --workload t2 --seed 9",
        ))?
        else {
            panic!()
        };
        assert_eq!(o.n, 50_000);
        assert_eq!(o.sketch, "llbeta");
        assert_eq!(o.readers, 8);
        assert_eq!(o.overlap, 0.3);
        assert_eq!(o.out, "/tmp/depot");
        assert_eq!(o.workload, WorkloadSpec::T2);
        assert_eq!(o.seed, 9);
        // Bare invocation uses the defaults; case is normalized.
        let Command::Snapshot(o) = parse(&argv("snapshot --sketch BLOOM"))? else {
            panic!()
        };
        assert_eq!(o.sketch, "bloom");
        assert_eq!(o.readers, 4);
        assert!(parse(&argv("snapshot --readers 0")).is_err());
        assert!(parse(&argv("snapshot --overlap 1.0")).is_err());
        assert!(parse(&argv("snapshot --bogus 1")).is_err());
        Ok(())
    }

    #[test]
    fn merge_subcommand() -> Result<(), ParseError> {
        let Command::Merge(o) =
            parse(&argv("merge --inputs a.sketch,b.sketch --truth 100000"))?
        else {
            panic!()
        };
        assert_eq!(o.inputs, vec!["a.sketch", "b.sketch"]);
        assert_eq!(o.truth, Some(100_000));
        let Command::Merge(o) = parse(&argv("merge --inputs lone.sketch"))? else {
            panic!()
        };
        assert_eq!(o.truth, None);
        assert!(parse(&argv("merge")).is_err());
        assert!(parse(&argv("merge --inputs ,")).is_err());
        assert!(parse(&argv("merge --truth 5")).is_err());
        Ok(())
    }

    #[test]
    fn ber_accepts_the_closed_unit_interval() -> Result<(), ParseError> {
        let Command::Estimate(o) = parse(&argv("estimate --ber 1.0"))? else {
            panic!()
        };
        assert_eq!(o.ber, 1.0);
        Ok(())
    }

    #[test]
    fn non_finite_and_signed_zero_accuracy_is_rejected() {
        for value in [
            "NaN", "nan", "inf", "-inf", "-0", "0", "1", "-0.05", "1e308",
        ] {
            for sub in ["estimate", "trace", "compare", "robustness"] {
                for flag in ["epsilon", "delta"] {
                    let line = format!("{sub} --{flag} {value}");
                    let Err(ParseError(msg)) = parse(&argv(&line)) else {
                        panic!("`{line}` parsed");
                    };
                    assert!(
                        msg.starts_with(&format!("--{flag} must lie in (0, 1)")),
                        "`{line}`: {msg}"
                    );
                }
            }
        }
        // The accepted values still parse on both paths.
        assert!(parse(&argv("estimate --epsilon 0.5 --delta 1e-9")).is_ok());
        assert!(parse(&argv("robustness --epsilon 0.5 --delta 1e-9")).is_ok());
    }

    #[test]
    fn validation_errors() {
        assert!(parse(&argv("estimate --epsilon 0")).is_err());
        assert!(parse(&argv("estimate --delta 1")).is_err());
        assert!(parse(&argv("estimate --rounds 0")).is_err());
        assert!(parse(&argv("estimate --ber 1.5")).is_err());
        assert!(parse(&argv("estimate --n notanumber")).is_err());
        assert!(parse(&argv("estimate --bogus 1")).is_err());
        assert!(parse(&argv("estimate --n")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("estimate n 5")).is_err());
        assert!(parse(&argv("estimate --workload t9")).is_err());
    }
}
