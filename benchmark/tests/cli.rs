//! Smoke-size runs of the benchmark binary: every declared metric is
//! printed with its unit, injected errors fail the run, and the traced
//! pass emits every per-layer metric with well-nested spans.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_lotus-benchmark");
const WORKLOADS: [&str; 4] = ["ic-native", "od-native", "protocol-native", "tune-sim"];

fn declared(list: &str) -> BTreeMap<String, String> {
    let text = include_str!("../../BENCHMARK.json");
    let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    doc[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite(kind: &str, seconds: &str, dir: &Path) -> Output {
    Command::new(BIN)
        .args([
            kind,
            "--seed",
            "7",
            "--seconds",
            seconds,
            "--smoke",
            "--out",
        ])
        .arg(dir)
        .output()
        .expect("benchmark runs")
}

/// `workload → metric → (value, unit)` from `<workload> <metric> <value> <unit>` lines.
fn printed(stdout: &[u8]) -> BTreeMap<String, BTreeMap<String, (f64, String)>> {
    let mut map: BTreeMap<String, BTreeMap<String, (f64, String)>> = BTreeMap::new();
    for line in String::from_utf8_lossy(stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, unit] = fields[..] {
            let value = value.parse().expect("numeric value");
            map.entry(workload.to_string())
                .or_default()
                .insert(metric.to_string(), (value, unit.to_string()));
        }
    }
    map
}

fn assert_prints_exactly(out: &Output, mut want: BTreeMap<String, String>) {
    want.insert("failed_frac".into(), "ratio".into());
    let got = printed(&out.stdout);
    let names: BTreeSet<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(names, BTreeSet::from(WORKLOADS));
    for (workload, metrics) in &got {
        let units: BTreeMap<String, String> = metrics
            .iter()
            .map(|(m, (_, u))| (m.clone(), u.clone()))
            .collect();
        assert_eq!(units, want, "{workload}");
        for (metric, (value, _)) in metrics {
            assert!(value.is_finite(), "{workload} {metric} = {value}");
        }
        assert_eq!(metrics["failed_frac"].0, 0.0, "{workload}");
    }
}

#[test]
fn smoke_run_prints_every_end_to_end_metric() {
    let dir = out_dir("run");
    let out = suite("run", "0.3", &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_prints_exactly(&out, declared("end_to_end"));
    assert!(dir.join("run-7.json").exists());
}

#[test]
fn injected_sample_errors_fail_the_run() {
    let out = Command::new(BIN)
        .args(["--workload", "ic-native", "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", "0", "--smoke", "--error-rate", "0.5"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("result line")).expect("result is JSON");
    assert_eq!(result["correct"].as_bool(), Some(false));
    let failed = result["failed"].as_f64().expect("failed");
    let attempted = result["attempted"].as_f64().expect("attempted");
    assert!(
        failed > 0.0 && failed <= attempted,
        "{failed} of {attempted}"
    );
}

#[test]
fn smoke_trace_emits_every_per_layer_metric_and_nested_spans() {
    let dir = out_dir("trace");
    let out = suite("trace", "0.5", &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_prints_exactly(&out, declared("per_layer"));
    for workload in WORKLOADS {
        let path = dir.join(format!("spans-{workload}.json"));
        let text = std::fs::read_to_string(&path).expect("spans file");
        let spans: Vec<Span> = text.lines().filter_map(Span::parse).collect();
        assert!(!spans.is_empty(), "{workload}");
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in spans.iter().filter(|s| s.parent != 0) {
            let p = by_id
                .get(&s.parent)
                .unwrap_or_else(|| panic!("{workload}: orphan {s:?}"));
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{workload}: {s:?} escapes its parent {p:?}"
            );
            assert!(s.self_ns <= s.end_ns - s.start_ns, "{workload}: {s:?}");
        }
        let layers: BTreeSet<&str> = spans.iter().map(|s| s.layer.as_str()).collect();
        for layer in [
            "workloads",
            "core",
            "dataflow",
            "data",
            "codec",
            "transforms",
        ] {
            assert!(layers.contains(layer), "{workload}: no {layer} spans");
        }
    }
}

/// One line of a spans file's `spans` list.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    layer: String,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

impl Span {
    /// Parses a span line; `None` for the file's other lines. (Lines are
    /// read one by one: a spans file can be megabytes long.)
    fn parse(line: &str) -> Option<Span> {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"id\"") {
            return None;
        }
        let v: Value = serde_json::from_str(line).expect("span line is JSON");
        let num = |k: &str| v[k].as_u64().unwrap_or_else(|| panic!("{k} in {line}"));
        Some(Span {
            id: num("id"),
            parent: num("parent"),
            layer: v["layer"].as_str().expect("layer").to_string(),
            start_ns: num("start_ns"),
            end_ns: num("end_ns"),
            self_ns: num("self_ns"),
        })
    }
}
