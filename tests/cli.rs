//! Usage errors of the `lotus` binary: arguments that describe nothing
//! to run, or input files it cannot read, are refused with a message and
//! exit status 1, never a panic, an abort or a vacuous verdict.

use std::process::{Command, Output};

fn lotus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lotus"))
        .args(args)
        .output()
        .expect("the lotus binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = lotus(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zero_items_is_a_usage_error_for_every_command() {
    for command in ["run", "trace", "check", "tune", "top", "audit"] {
        assert_usage_error(&[command, "--items", "0"], "--items must be at least 1");
    }
}

#[test]
fn unknown_flags_are_usage_errors_for_every_command() {
    for command in [
        "trace",
        "run",
        "bench",
        "map",
        "attribute",
        "compare",
        "top",
        "tune",
        "check",
        "audit",
    ] {
        assert_usage_error(&[command, "--worker", "4"], "unknown flag --worker");
    }
    // A misspelling, and a real flag of another command: `trace` always
    // runs on the simulated backend.
    assert_usage_error(&["top", "--pipline", "od"], "unknown flag --pipline");
    assert_usage_error(
        &["trace", "--items", "256", "--backend", "native"],
        "unknown flag --backend",
    );
}

#[test]
fn degenerate_model_shapes_are_usage_errors() {
    for (flag, field) in [
        ("--workers", "workers"),
        ("--batches", "batches per worker"),
        ("--cap", "queue capacity"),
    ] {
        assert_usage_error(&["audit", "--model", flag, "0"], field);
    }
}

#[test]
fn out_of_range_fault_and_gpu_flags_are_usage_errors() {
    let rate = "must be within [0, 1], got";
    let factor = "--slow-factor must be finite and at least 1, got";
    for (command, flag, value) in [
        ("run --backend sim", "--error-rate", "2"),
        ("run --backend sim", "--error-rate", "-1"),
        ("run --backend sim", "--error-rate", "nan"),
        ("run --backend sim", "--slow-rate", "1.5"),
        ("run --backend sim", "--slow-rate", "nan"),
        ("run --backend sim --slow-rate 0.1", "--slow-factor", "-1"),
        ("run --backend sim --slow-rate 0.1", "--slow-factor", "nan"),
        ("run --backend sim --slow-rate 0.1", "--slow-factor", "inf"),
        ("tune", "--error-rate", "2"),
        ("tune --slow-rate 0.1", "--slow-factor", "0.5"),
        ("run", "--gpus", "0"),
        ("trace", "--gpus", "0"),
    ] {
        let args: Vec<&str> = command.split(' ').chain([flag, value]).collect();
        let shown = if value == "nan" { "NaN" } else { value };
        let message = match flag {
            "--gpus" => "--gpus must be at least 1".to_string(),
            "--slow-factor" => format!("{factor} {shown}"),
            _ => format!("{flag} {rate} {shown}"),
        };
        assert_usage_error(&args, &message);
    }
}

#[test]
fn hostile_trace_files_are_errors_not_crashes() {
    let dir = std::env::temp_dir().join("lotus-cli-hostile-traces");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // One LotusTrace event in Chrome form, with the given time and pid
    // fields.
    let event = |fields: &str| {
        format!(
            r#"{{"traceEvents":[{{"name":"SLoader","ph":"X","id":-1,"tid":1,{fields},"args":{{"batch_id":0}}}}]}}"#
        )
    };
    let files = [
        (
            "deep.json",
            format!("{{\"traceEvents\":{}", "[".repeat(300_000)),
            "nesting deeper than 128 levels",
        ),
        (
            "overflow.log",
            format!("SLoader,4243,{0},{0},0,0\n", u64::MAX),
            "ends past u64::MAX ns",
        ),
        (
            "huge.json",
            event(r#""ts":1e30,"dur":1e30,"pid":1"#),
            "is not a time in u64 nanoseconds",
        ),
        (
            "negative.json",
            event(r#""ts":-5,"dur":10,"pid":1"#),
            "ts -5 µs is not a time in u64 nanoseconds",
        ),
        (
            "pid.json",
            event(r#""ts":5,"dur":10,"pid":99999999999"#),
            "pid 99999999999 above u32::MAX",
        ),
    ];
    for (name, contents, message) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write");
        let path = path.to_str().expect("utf-8 temp path");
        assert_usage_error(&["check", "--trace", path], message);
    }
}

/// Every trial-cache entry overwritten with hostile bytes reads as a
/// miss: the rerun measures live and prints the clean run's bytes.
#[test]
fn hostile_trial_cache_entries_are_misses() {
    let dir = std::env::temp_dir().join("lotus-cli-hostile-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tune = || {
        let out = Command::new(env!("CARGO_BIN_EXE_lotus"))
            .args(["tune", "--items", "256", "--json"])
            .current_dir(&dir)
            .output()
            .expect("the lotus binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        out.stdout
    };
    let clean = tune();
    let entries: Vec<_> = std::fs::read_dir(dir.join(".lotus-cache/v1"))
        .expect("the clean run filled the cache")
        .map(|entry| entry.expect("cache entry").path())
        .collect();
    assert!(!entries.is_empty());
    for (i, path) in entries.iter().enumerate() {
        let bytes = std::fs::read(path).expect("read entry");
        let hostile = if i % 2 == 0 {
            "[".repeat(300_000).into_bytes()
        } else {
            bytes[..bytes.len() / 2].to_vec()
        };
        std::fs::write(path, hostile).expect("overwrite entry");
    }
    assert!(tune() == clean, "output differs from the clean run");
}
