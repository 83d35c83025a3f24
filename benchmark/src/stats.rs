//! Small numeric and process helpers: order statistics, `/proc/self`
//! readers, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The median of `values` (the mean of the middle two for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (cut(1), cut(3))
        }
    }
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (all threads, including joined ones).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / clock_ticks_per_s(),
        _ => 0.0,
    }
}

/// `sysconf(_SC_CLK_TCK)`, which is 100 on every Linux target Rust
/// supports.
fn clock_ticks_per_s() -> f64 {
    100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One invocation's result: the last line a child prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Samples (or trials) the invocation asked the program for.
    pub attempted: u64,
    /// Samples not delivered plus outputs that failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Metric name → value, with units from [`crate::spec`].
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the metrics (epochs, waits), for the log.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// True when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.values().all(|v| v.is_finite())
    }

    /// Records a failed check that spoils `samples` outputs.
    pub fn fail(&mut self, samples: u64, problem: impl Into<String>) {
        self.failed += samples;
        self.problems.push(problem.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The one-line JSON object:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    /// Non-finite values (which make the result incorrect) print as 0.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = crate::spec::unit_of(name).unwrap_or("");
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.001_234_567_891_234);
        let line = o.to_json_line();
        assert!(line.contains("0.001234567891234"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3"));
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["metrics"]["setup_s"]["unit"], "s");
    }
}
