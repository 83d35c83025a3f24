//! Metrics exporters: Prometheus text, JSON snapshot, CSV time-series.
//!
//! All three render a [`MetricsSnapshot`], whose maps are ordered and
//! whose samples are virtual-time-stamped — so the output of a seeded run
//! is **byte-identical** across repeats (the determinism-guard test
//! depends on this).
//!
//! Prometheus naming: every family gets a `lotus_` prefix, and a dotted
//! metric name becomes a label on its base family —
//! `queue_depth.data_queue` exports as
//! `lotus_queue_depth{queue="data_queue"}`, `worker_busy_ns.4243` as
//! `lotus_worker_busy_ns{pid="4243"}`, and any other dotted name gets a
//! generic `series` label. Histograms export as Prometheus summaries
//! (`{quantile="…"}` plus `_sum`/`_count`).

use std::fmt::Write as _;

use serde_json::{json, Content, Value};

use super::registry::MetricsSnapshot;

/// Splits a dotted metric name into its base family and label suffix.
fn split_dotted(name: &str) -> (&str, Option<&str>) {
    match name.split_once('.') {
        Some((base, suffix)) => (base, Some(suffix)),
        None => (name, None),
    }
}

/// The Prometheus label key used for a base family's dotted suffix.
fn label_key(base: &str) -> &'static str {
    match base {
        "queue_depth" => "queue",
        "worker_busy_ns" => "pid",
        "sampler_thread_cpu_ns"
        | "sampler_ctx_switches_voluntary"
        | "sampler_ctx_switches_involuntary" => "thread",
        _ => "series",
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline are the only characters that need
/// escaping inside `label="…"`. Everything else — including the dots,
/// slashes and dashes OS thread names carry — passes through unchanged.
fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn family_line(out: &mut String, name: &str, value: impl std::fmt::Display) {
    let (base, suffix) = split_dotted(name);
    match suffix {
        Some(s) => {
            let _ = writeln!(
                out,
                "lotus_{base}{{{key}=\"{s}\"}} {value}",
                key = label_key(base),
                s = escape_label_value(s)
            );
        }
        None => {
            let _ = writeln!(out, "lotus_{base} {value}");
        }
    }
}

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Counters export their totals, gauges their *latest* value (Prometheus
/// has no native notion of a backfilled series; use [`to_csv`] for the
/// full time-series), histograms as summaries.
#[must_use]
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in &snapshot.counters {
        let (base, _) = split_dotted(name);
        if base != last_base {
            let _ = writeln!(out, "# TYPE lotus_{base} counter");
            last_base = base.to_string();
        }
        family_line(&mut out, name, value);
    }
    last_base.clear();
    for (name, series) in &snapshot.gauges {
        let (base, _) = split_dotted(name);
        if base != last_base {
            let _ = writeln!(out, "# TYPE lotus_{base} gauge");
            last_base = base.to_string();
        }
        family_line(&mut out, name, series.last().unwrap_or(0.0));
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE lotus_{name} summary");
        let _ = writeln!(out, "lotus_{name}{{quantile=\"0.5\"}} {}", h.p50_ns);
        let _ = writeln!(out, "lotus_{name}{{quantile=\"0.9\"}} {}", h.p90_ns);
        let _ = writeln!(out, "lotus_{name}{{quantile=\"0.99\"}} {}", h.p99_ns);
        let _ = writeln!(out, "lotus_{name}_sum {}", h.sum.as_nanos());
        let _ = writeln!(out, "lotus_{name}_count {}", h.count);
    }
    out
}

/// Renders the full snapshot — counters, complete gauge time-series, and
/// histogram summaries — as a pretty-printed JSON document.
#[must_use]
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let counters = Content::Map(
        snapshot
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), Content::U64(v)))
            .collect(),
    );
    let gauges = Content::Map(
        snapshot
            .gauges
            .iter()
            .map(|(name, series)| {
                let samples = series
                    .samples()
                    .iter()
                    .map(|&(t, v)| Content::Seq(vec![Content::U64(t.as_nanos()), Content::F64(v)]))
                    .collect();
                (name.clone(), Content::Seq(samples))
            })
            .collect(),
    );
    let histograms = Content::Map(
        snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    json!({
                        "count": h.count,
                        "sum_ns": h.sum.as_nanos(),
                        "mean_ns": h.mean_ns,
                        "p50_ns": h.p50_ns,
                        "p90_ns": h.p90_ns,
                        "p99_ns": h.p99_ns,
                    })
                    .0,
                )
            })
            .collect(),
    );
    let doc = Value(Content::Map(vec![
        (
            "horizon_ns".to_string(),
            Content::U64(snapshot.horizon().as_nanos()),
        ),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("histograms".to_string(), histograms),
    ]));
    // Writing an in-memory document to a string has no failure mode:
    // every map key is a string.
    #[allow(clippy::expect_used)]
    let mut text = serde_json::to_string_pretty(&doc).expect("metrics snapshot serializes");
    text.push('\n');
    text
}

/// Renders every gauge time-series as CSV rows `metric,time_ns,value`,
/// sorted by metric name then sample order — the raw material for
/// external plotting of queue depths and utilization over virtual time.
#[must_use]
pub fn to_csv(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("metric,time_ns,value\n");
    for (name, series) in &snapshot.gauges {
        for &(t, v) in series.samples() {
            let _ = writeln!(out, "{name},{},{v}", t.as_nanos());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lotus_sim::{Span, Time};

    use super::*;
    use crate::metrics::registry::MetricsRegistry;
    use crate::metrics::sink::names;

    fn sample_registry() -> Arc<MetricsRegistry> {
        let r = Arc::new(MetricsRegistry::new());
        r.inc_counter(names::BATCHES_PRODUCED, 7);
        r.inc_counter(&names::worker_busy(4243), 5_000_000);
        r.set_gauge("queue_depth.data_queue", Time::from_nanos(10), 2.0);
        r.set_gauge("queue_depth.data_queue", Time::from_nanos(20), 1.0);
        r.set_gauge(names::LIVE_WORKERS, Time::ZERO, 4.0);
        r.record_latency(names::T1_FETCH, Span::from_millis(5));
        r
    }

    #[test]
    fn prometheus_text_maps_dotted_names_to_labels() {
        let text = to_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE lotus_batches_produced_total counter"));
        assert!(text.contains("lotus_batches_produced_total 7"));
        assert!(text.contains("lotus_worker_busy_ns{pid=\"4243\"} 5000000"));
        assert!(text.contains("lotus_queue_depth{queue=\"data_queue\"} 1"));
        assert!(text.contains("lotus_live_workers 4"));
        assert!(text.contains("# TYPE lotus_t1_batch_fetch_ns summary"));
        assert!(text.contains("lotus_t1_batch_fetch_ns_count 1"));
        assert!(text.contains("lotus_t1_batch_fetch_ns_sum 5000000"));
    }

    #[test]
    fn sampler_families_get_thread_labels_with_escaping() {
        let r = MetricsRegistry::new();
        // Thread names out of /proc/self/task/*/comm can carry dots,
        // slashes, quotes — anything but NUL. Dots survive inside the
        // label value because only the FIRST dot splits family/label.
        r.set_gauge("sampler_thread_cpu_ns.tokio.rt/w-1", Time::ZERO, 5.0);
        r.set_gauge("sampler_thread_cpu_ns.say\"hi\"", Time::ZERO, 7.0);
        r.set_gauge("sampler_ctx_switches_voluntary.io\\wq", Time::ZERO, 3.0);
        r.set_gauge("sampler_rss_kb", Time::ZERO, 1024.0);
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE lotus_sampler_thread_cpu_ns gauge"));
        assert!(text.contains("lotus_sampler_thread_cpu_ns{thread=\"tokio.rt/w-1\"} 5"));
        assert!(text.contains("lotus_sampler_thread_cpu_ns{thread=\"say\\\"hi\\\"\"} 7"));
        assert!(text.contains("lotus_sampler_ctx_switches_voluntary{thread=\"io\\\\wq\"} 3"));
        assert!(
            text.contains("lotus_sampler_rss_kb 1024"),
            "undotted name stays bare"
        );
    }

    #[test]
    fn label_values_escape_only_the_prometheus_specials() {
        assert_eq!(escape_label_value("plain-name_0"), "plain-name_0");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("dots.and/slashes"), "dots.and/slashes");
    }

    #[test]
    fn json_snapshot_has_all_three_sections() {
        let text = to_json(&sample_registry().snapshot());
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["counters"][names::BATCHES_PRODUCED].as_u64(), Some(7));
        let series = &doc["gauges"]["queue_depth.data_queue"];
        assert_eq!(series[0][0].as_u64(), Some(10));
        assert_eq!(series[1][1].as_f64(), Some(1.0));
        assert_eq!(
            doc["histograms"][names::T1_FETCH]["count"].as_u64(),
            Some(1)
        );
        assert_eq!(doc["horizon_ns"].as_u64(), Some(20));
    }

    #[test]
    fn csv_lists_gauge_series_in_order() {
        let text = to_csv(&sample_registry().snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "metric,time_ns,value");
        assert_eq!(lines[1], "live_workers,0,4");
        assert_eq!(lines[2], "queue_depth.data_queue,10,2");
        assert_eq!(lines[3], "queue_depth.data_queue,20,1");
    }

    #[test]
    fn exports_are_deterministic_across_identical_registries() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(to_prometheus(&a), to_prometheus(&b));
        assert_eq!(to_json(&a), to_json(&b));
        assert_eq!(to_csv(&a), to_csv(&b));
    }
}
