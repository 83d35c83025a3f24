//! `compare PARENT_DIR CHANGE_DIR`: judges a change from `run-<seed>.json`
//! results of the parent and the change, paired by seed. Run the pairs
//! alternately (parent first, then change first) on one machine.
//!
//! Per (metric, workload), in order:
//! * **gain** — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither side), and its median beats the
//!   parent's by more than the parent's interquartile range;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's `bound` in `BENCHMARK.json`;
//! * **unresolved** — the parent's own spread (IQR ÷ median) exceeds the
//!   bound, unless every change run beats every parent run;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::spec::Workload;
use crate::stats::{median, quartiles};

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// One declared end-to-end metric.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let doc: Value = serde_json::from_str(crate::BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m["better"] == "higher",
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Every `run-*.json` in `dir`, by seed.
fn load(dir: &str) -> Result<BTreeMap<u64, Value>, String> {
    let mut runs = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
        let seed = doc["seed"].as_u64().ok_or(format!("{name}: no seed"))?;
        runs.insert(seed, doc);
    }
    if runs.is_empty() {
        return Err(format!(
            "{}: no run-*.json results",
            Path::new(dir).display()
        ));
    }
    Ok(runs)
}

/// The verdict for one (metric, workload) given paired values.
fn verdict(parent: &[f64], change: &[f64], m: &Declared) -> (&'static str, usize) {
    let better = |c: f64, p: f64| if m.higher_is_better { c > p } else { c < p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let (p_med, c_med) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let pairs = parent.len();
    let worse_by = if m.higher_is_better {
        (p_med - c_med) / p_med
    } else {
        (c_med - p_med) / p_med
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(c_med, p_med)
        && (c_med - p_med).abs() > q3 - q1
    {
        "gain"
    } else if worse_by > m.bound {
        "regressed"
    } else if (q3 - q1) / p_med.abs() > m.bound && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    (v, wins)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: lotus-benchmark compare PARENT_DIR CHANGE_DIR".into());
    };
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let seeds: Vec<u64> = parent
        .keys()
        .filter(|s| change.contains_key(s))
        .copied()
        .collect();
    if seeds.is_empty() {
        return Err("the two sides share no seed".into());
    }
    if seeds.len() < MIN_PAIRS {
        println!(
            "only {} pairs: a gain needs at least {MIN_PAIRS}; regressions are still judged",
            seeds.len()
        );
    }
    let metrics = declared()?;
    let value = |doc: &Value, w: &str, m: &str| doc["workloads"][w]["metrics"][m]["value"].as_f64();
    println!(
        "{:<16} {:<18} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for w in Workload::ALL.map(Workload::name) {
        for m in &metrics {
            let pairs: Vec<(f64, f64)> = seeds
                .iter()
                .filter_map(|s| {
                    Some((
                        value(&parent[s], w, &m.name)?,
                        value(&change[s], w, &m.name)?,
                    ))
                })
                .collect();
            if pairs.is_empty() {
                println!("{w:<16} {:<18} missing", m.name);
                continue;
            }
            let (p, c): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let (v, wins) = verdict(&p, &c, m);
            regressed |= v == "regressed";
            let summary = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
            };
            println!(
                "{w:<16} {:<18} {:>34} {:>34} {:>3}/{:<2}  {v}",
                m.name,
                summary(&p),
                summary(&c),
                wins,
                p.len()
            );
        }
        let failed_frac = |runs: &BTreeMap<u64, Value>| {
            let (mut failed, mut attempted) = (0.0, 0.0);
            for s in &seeds {
                failed += runs[s]["workloads"][w]["failed"].as_f64().unwrap_or(0.0);
                attempted += runs[s]["workloads"][w]["attempted"].as_f64().unwrap_or(0.0);
            }
            failed / f64::max(attempted, 1.0)
        };
        let (pf, cf) = (failed_frac(&parent), failed_frac(&change));
        let v = if cf > pf { "regressed" } else { "unchanged" };
        regressed |= cf > pf;
        println!(
            "{w:<16} {:<18} {pf:>34} {cf:>34} {:>6}  {v}",
            "failed_frac", ""
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Declared {
        Declared {
            name: "m".into(),
            higher_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn consistent_wins_beyond_the_spread_are_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        assert_eq!(verdict(&parent, &change, &metric(true)), ("gain", 10));
        assert_eq!(verdict(&parent, &change, &metric(false)).0, "regressed");
    }

    #[test]
    fn too_few_pairs_or_wins_are_not_a_gain() {
        let parent = [100.0, 101.0, 102.0];
        let change = [130.0, 131.0, 132.0];
        assert_eq!(verdict(&parent, &change, &metric(true)).0, "unchanged");
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        change[0] = 50.0;
        change[1] = 50.0;
        assert_eq!(verdict(&parent, &change, &metric(true)).0, "unchanged");
    }

    #[test]
    fn a_noisy_parent_leaves_the_verdict_unresolved() {
        let parent = [50.0, 100.0, 150.0, 100.0];
        let change = [100.0, 100.0, 100.0, 100.0];
        assert_eq!(verdict(&parent, &change, &metric(true)).0, "unresolved");
    }
}
