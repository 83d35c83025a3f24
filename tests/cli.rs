//! Usage errors of the `lotus` binary: arguments that describe nothing
//! to run are refused up front with a message and exit status 1, never a
//! panic or a vacuous verdict.

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
