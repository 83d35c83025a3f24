//! The lotus benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! lotus-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One workload in this process. The last line of stdout is the JSON
//!     result; exits 1 when an output check failed.
//! lotus-benchmark run   --seed N [--seconds S] [--out DIR]
//! lotus-benchmark trace --seed N [--seconds S] [--out DIR]
//!     Every workload, each in its own child process, one at a time.
//!     Prints `<workload> <metric> <value> <unit>` lines and writes
//!     DIR/run-N.json or DIR/trace-N.json (DIR defaults to
//!     target/benchmark).
//! lotus-benchmark compare PARENT_DIR CHANGE_DIR
//!     Judges a change from run-*.json files of both sides.
//! ```
//!
//! `--smoke` shrinks every epoch for tests; `--error-rate P` injects
//! sample errors (a benchmark run never does).

mod checks;
mod compare;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::{Content, Value};

use crate::run::Options;
use crate::spec::{Workload, END_TO_END, PER_LAYER};

/// The benchmark's declaration at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Where `run` and `trace` write their results unless told otherwise.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../target/benchmark");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        _ => single(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lotus-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--switch`es.
struct Flags(BTreeMap<String, Option<String>>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned(),
                _ => None,
            };
            map.insert(key.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.get(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid --{key} `{v}`")),
        }
    }

    fn options(&self) -> Result<Options, String> {
        let seed = self.value("seed")?.ok_or("--seed is required")?;
        let seconds: f64 = match self.value("seconds")? {
            Some(s) => s,
            None => declared_run_seconds()?,
        };
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        let error_rate: f64 = self.value("error-rate")?.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&error_rate) {
            return Err("--error-rate must be within [0, 1]".into());
        }
        Ok(Options {
            seed,
            seconds,
            smoke: self.has("smoke"),
            error_rate,
        })
    }
}

/// `run_seconds` from `BENCHMARK.json`.
fn declared_run_seconds() -> Result<f64, String> {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    doc["run_seconds"]
        .as_f64()
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// One workload in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let name: String = flags
        .value("workload")?
        .ok_or("usage: lotus-benchmark --workload W --seed N --seconds S --trace 0|1")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let traced = match flags.value::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let options = flags.options()?;
    let outcome = if traced {
        let spans = PathBuf::from(
            flags
                .value::<String>("out")?
                .unwrap_or_else(|| DEFAULT_OUT.to_string()),
        )
        .join(format!("spans-{}.json", workload.name()));
        layers::measure(workload, &options, &spans)
    } else {
        run::measure(workload, &options)
    };
    for problem in &outcome.problems {
        eprintln!("{}: check failed: {problem}", workload.name());
    }
    for (what, n) in &outcome.counts {
        eprintln!("{}: {n} {what}", workload.name());
    }
    println!("{}", outcome.to_json_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process, one at a time.
fn suite(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let options = flags.options()?;
    let out_dir = PathBuf::from(
        flags
            .value::<String>("out")?
            .unwrap_or_else(|| DEFAULT_OUT.to_string()),
    );
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };

    let mut all_correct = true;
    let mut doc = vec![
        ("seed".to_string(), Content::U64(options.seed)),
        ("seconds".to_string(), Content::F64(options.seconds)),
    ];
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--out", &out_dir.to_string_lossy()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if options.smoke {
            child.arg("--smoke");
        }
        if options.error_rate > 0.0 {
            child.args(["--error-rate", &options.error_rate.to_string()]);
        }
        let output = child
            .output()
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let result: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}: unreadable result `{line}`: {e}", workload.name()))?;
        let correct = result["correct"].as_bool() == Some(true) && output.status.success();
        all_correct &= correct;
        let attempted = result["attempted"].as_f64().unwrap_or(0.0);
        let failed = result["failed"].as_f64().unwrap_or(0.0);
        for (name, unit) in declared {
            let value = result["metrics"][*name]["value"]
                .as_f64()
                .unwrap_or(f64::NAN);
            println!("{} {name} {value} {unit}", workload.name());
        }
        let failed_frac = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!("{} failed_frac {failed_frac} ratio", workload.name());
        results.push((workload.name().to_string(), result.0));
    }
    doc.push(("workloads".to_string(), Content::Map(results)));
    let kind = if traced { "trace" } else { "run" };
    let path = out_dir.join(format!("{kind}-{}.json", options.seed));
    let text =
        serde_json::to_string_pretty(&Value(Content::Map(doc))).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
