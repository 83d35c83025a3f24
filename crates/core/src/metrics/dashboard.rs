//! `lotus top` — a terminal dashboard over a [`MetricsSnapshot`].
//!
//! Renders the live view of a pipeline run: per-queue depth sparklines
//! over virtual time, per-worker utilization bars (busy nanoseconds over
//! the run horizon), throughput, latency summaries, and the fault
//! counters. Pure function of the snapshot — deterministic, snapshot-
//! testable like [`crate::trace::viz`].

use std::fmt::Write as _;

use lotus_sim::Time;

use super::registry::{GaugeSeries, MetricsSnapshot};
use super::sink::names;

/// Sparkline glyphs, lowest to highest level.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Utilization bar glyphs.
const BAR_FILL: char = '█';
const BAR_EMPTY: char = '░';

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DashboardOptions {
    /// Characters available for sparklines and utilization bars.
    pub width: usize,
}

impl Default for DashboardOptions {
    fn default() -> Self {
        DashboardOptions { width: 48 }
    }
}

/// Renders one gauge series as a sparkline: the series is sampled at
/// `width` evenly spaced virtual-time points up to `horizon` (step-
/// function semantics) and scaled against its own maximum. Sample points
/// before the series' first recording clamp to that first value — a
/// series with one sample late in the horizon renders a solid line, not
/// a run of stale empty cells.
#[must_use]
pub fn sparkline(series: &GaugeSeries, horizon: Time, width: usize) -> String {
    assert!(width > 0, "sparkline width must be positive");
    let max = series.max();
    let first = series.samples().first().map_or(0.0, |&(_, v)| v);
    (0..width)
        .map(|i| {
            let at = Time::from_nanos(if width == 1 {
                horizon.as_nanos()
            } else {
                horizon.as_nanos() * i as u64 / (width as u64 - 1)
            });
            let v = series.value_at(at).unwrap_or(first);
            if max <= 0.0 {
                SPARKS[0]
            } else {
                let level = ((v / max) * (SPARKS.len() as f64 - 1.0)).round() as usize;
                SPARKS[level.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// Renders a `[0,1]` fraction as a filled bar of `width` cells.
#[must_use]
pub fn utilization_bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut bar = String::with_capacity(width * 3);
    for i in 0..width {
        bar.push(if i < filled { BAR_FILL } else { BAR_EMPTY });
    }
    bar
}

/// Renders the full dashboard.
#[must_use]
pub fn render_dashboard(snapshot: &MetricsSnapshot, options: DashboardOptions) -> String {
    let width = options.width.max(1);
    let horizon = snapshot.horizon();
    let mut out = String::new();
    let _ = writeln!(out, "lotus top — virtual time {horizon}");

    // Queue depths: every `queue_depth.*` gauge, plus the in-flight
    // inventory, as sparklines over the run horizon.
    let queue_gauges: Vec<(&String, &GaugeSeries)> = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with(names::QUEUE_DEPTH_PREFIX))
        .collect();
    if !queue_gauges.is_empty() || snapshot.gauges.contains_key(names::IN_FLIGHT) {
        let _ = writeln!(out, "\nqueue depth");
        let label_w = queue_gauges
            .iter()
            .map(|(n, _)| n.len() - names::QUEUE_DEPTH_PREFIX.len())
            .chain(std::iter::once(names::IN_FLIGHT.len()))
            .max()
            .unwrap_or(0);
        for (name, series) in &queue_gauges {
            let short = &name[names::QUEUE_DEPTH_PREFIX.len()..];
            let _ = writeln!(
                out,
                "  {short:<label_w$}  {}  now {:.0}  max {:.0}",
                sparkline(series, horizon, width),
                series.last().unwrap_or(0.0),
                series.max(),
            );
        }
        if let Some(series) = snapshot.gauges.get(names::IN_FLIGHT) {
            let _ = writeln!(
                out,
                "  {:<label_w$}  {}  now {:.0}  max {:.0}",
                names::IN_FLIGHT,
                sparkline(series, horizon, width),
                series.last().unwrap_or(0.0),
                series.max(),
            );
        }
    }

    // Worker utilization: busy nanoseconds over the run horizon.
    let busy_prefix = "worker_busy_ns.";
    let busy: Vec<(&String, &u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(busy_prefix))
        .collect();
    if !busy.is_empty() {
        let _ = writeln!(out, "\nworker utilization");
        for (name, &busy_ns) in &busy {
            let pid = &name[busy_prefix.len()..];
            let frac = if horizon > Time::ZERO {
                busy_ns as f64 / horizon.as_nanos() as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  worker {pid}  {}  {:5.1}%",
                utilization_bar(frac, width),
                frac * 100.0,
            );
        }
    }

    // OS sampler: per-thread CPU-time sparklines plus the resident-set
    // trail. Present only on profiled native runs.
    let cpu_prefix = "sampler_thread_cpu_ns.";
    let sampled: Vec<(&String, &GaugeSeries)> = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with(cpu_prefix))
        .collect();
    if !sampled.is_empty() {
        let _ = writeln!(out, "\nsampler (per-thread CPU time)");
        let label_w = sampled
            .iter()
            .map(|(n, _)| n.len() - cpu_prefix.len())
            .max()
            .unwrap_or(0);
        for (name, series) in &sampled {
            let thread = &name[cpu_prefix.len()..];
            let _ = writeln!(
                out,
                "  {thread:<label_w$}  {}  {:.1}ms on-CPU",
                sparkline(series, horizon, width),
                series.last().unwrap_or(0.0) / 1e6,
            );
        }
        if let Some(series) = snapshot.gauges.get("sampler_rss_kb") {
            let _ = writeln!(
                out,
                "  rss now {:.0} kB  peak {:.0} kB",
                series.last().unwrap_or(0.0),
                series.max(),
            );
        }
    }

    // Storage tier: per-tier read/byte counters, seek totals, the T0
    // latency summary, and queue-depth sparklines. Present only when the
    // run modeled a storage hierarchy.
    let reads_prefix = "storage_reads_total.";
    let tiers: Vec<&String> = snapshot
        .counters
        .keys()
        .filter(|name| name.starts_with(reads_prefix))
        .collect();
    if !tiers.is_empty() {
        let _ = writeln!(out, "\nstorage");
        let label_w = tiers
            .iter()
            .map(|n| n.len() - reads_prefix.len())
            .max()
            .unwrap_or(0);
        for name in &tiers {
            let tier = &name[reads_prefix.len()..];
            let reads = snapshot.counters.get(*name).copied().unwrap_or(0);
            let bytes = snapshot
                .counters
                .get(&names::storage_bytes(tier))
                .copied()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  {tier:<label_w$}  {reads} reads  {:.1} MiB",
                bytes as f64 / (1024.0 * 1024.0),
            );
            if let Some(series) = snapshot.gauges.get(&names::storage_queue_depth(tier)) {
                let _ = writeln!(
                    out,
                    "  {:<label_w$}  {}  depth now {:.0}  max {:.0}",
                    "",
                    sparkline(series, horizon, width),
                    series.last().unwrap_or(0.0),
                    series.max(),
                );
            }
        }
        let seeks = snapshot
            .counters
            .get(names::STORAGE_SEEKS)
            .copied()
            .unwrap_or(0);
        if let Some(h) = snapshot.histograms.get(names::T0_STORAGE) {
            let _ = writeln!(
                out,
                "  t0 fetch: p50 {:.2}ms  p99 {:.2}ms  n={}  seeks {seeks}",
                h.p50_ns / 1e6,
                h.p99_ns / 1e6,
                h.count,
            );
        }
    }

    // Throughput and latency.
    let consumed = snapshot
        .counters
        .get(names::BATCHES_CONSUMED)
        .copied()
        .unwrap_or(0);
    let samples = snapshot
        .counters
        .get(names::SAMPLES_CONSUMED)
        .copied()
        .unwrap_or(0);
    let _ = writeln!(out, "\nthroughput");
    if horizon > Time::ZERO {
        let _ = writeln!(
            out,
            "  {consumed} batches ({samples} samples), {:.1} batches/s",
            consumed as f64 / horizon.as_secs_f64(),
        );
    } else {
        let _ = writeln!(out, "  {consumed} batches ({samples} samples)");
    }
    if let Some(series) = snapshot.gauges.get(names::MAIN_WAIT_FRACTION) {
        let _ = writeln!(
            out,
            "  main wait fraction {:.3}",
            series.last().unwrap_or(0.0)
        );
    }
    for (hist, label) in [
        (names::T1_FETCH, "t1 fetch"),
        (names::T2_WAIT, "t2 wait"),
        (names::QUEUE_DELAY, "queue delay"),
    ] {
        if let Some(h) = snapshot.histograms.get(hist) {
            let _ = writeln!(
                out,
                "  {label}: p50 {:.2}ms  p99 {:.2}ms  n={}",
                h.p50_ns / 1e6,
                h.p99_ns / 1e6,
                h.count,
            );
        }
    }

    // Fault counters, only when something actually went wrong.
    let faults = snapshot
        .counters
        .get(names::FAULTS_INJECTED)
        .copied()
        .unwrap_or(0);
    let deaths = snapshot
        .counters
        .get(names::WORKER_DEATHS)
        .copied()
        .unwrap_or(0);
    let redispatches = snapshot
        .counters
        .get(names::REDISPATCHES)
        .copied()
        .unwrap_or(0);
    if faults + deaths + redispatches > 0 {
        let _ = writeln!(
            out,
            "\nfaults: {faults} injected, {deaths} worker deaths, {redispatches} redispatches"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use lotus_sim::Time;

    use super::*;
    use crate::metrics::registry::MetricsRegistry;

    #[test]
    fn sparkline_scales_to_its_own_max() {
        let r = MetricsRegistry::new();
        r.set_gauge("g", Time::from_nanos(0), 0.0);
        r.set_gauge("g", Time::from_nanos(50), 4.0);
        r.set_gauge("g", Time::from_nanos(100), 2.0);
        let s = sparkline(&r.gauge("g").unwrap(), Time::from_nanos(100), 8);
        assert_eq!(s.chars().count(), 8);
        assert_eq!(s.chars().next(), Some('▁'));
        assert!(s.contains('█'), "peak renders as the top glyph: {s}");
        assert_eq!(s.chars().last(), Some('▅'), "2.0 of max 4.0 is mid-level");
    }

    #[test]
    fn single_sample_series_renders_solid_not_stale() {
        // One recording late in the horizon: every cell before it must
        // clamp to that value instead of rendering stale empty cells.
        let r = MetricsRegistry::new();
        r.set_gauge("g", Time::from_nanos(90), 3.0);
        let s = sparkline(&r.gauge("g").unwrap(), Time::from_nanos(100), 8);
        assert_eq!(s, "████████");
    }

    #[test]
    fn dashboard_shows_sampler_section_when_gauges_present() {
        let r = MetricsRegistry::new();
        r.set_gauge(
            "sampler_thread_cpu_ns.dataloader0",
            Time::from_nanos(10_000_000),
            2_000_000.0,
        );
        r.set_gauge("sampler_rss_kb", Time::from_nanos(10_000_000), 24_000.0);
        let out = render_dashboard(&r.snapshot(), DashboardOptions { width: 8 });
        assert!(out.contains("sampler (per-thread CPU time)"));
        assert!(out.contains("dataloader0"));
        assert!(out.contains("2.0ms on-CPU"));
        assert!(out.contains("rss now 24000 kB  peak 24000 kB"));
    }

    #[test]
    fn dashboard_shows_storage_section_when_tiers_present() {
        let r = MetricsRegistry::new();
        r.inc_counter(&names::storage_reads("object-store"), 12);
        r.inc_counter(&names::storage_bytes("object-store"), 3 * 1024 * 1024);
        r.inc_counter(names::STORAGE_SEEKS, 4);
        r.set_gauge(
            &names::storage_queue_depth("object-store"),
            Time::from_nanos(5_000_000),
            2.0,
        );
        r.record_latency(names::T0_STORAGE, lotus_sim::Span::from_millis(5));
        let out = render_dashboard(&r.snapshot(), DashboardOptions { width: 8 });
        assert!(out.contains("\nstorage\n"), "storage section header: {out}");
        assert!(out.contains("object-store"));
        assert!(out.contains("12 reads  3.0 MiB"));
        assert!(out.contains("depth now 2  max 2"));
        assert!(out.contains("t0 fetch: p50 5.00ms"));
        assert!(out.contains("seeks 4"));
    }

    #[test]
    fn dashboard_without_storage_omits_the_section() {
        let r = MetricsRegistry::new();
        r.inc_counter(names::BATCHES_CONSUMED, 1);
        let out = render_dashboard(&r.snapshot(), DashboardOptions::default());
        assert!(!out.contains("\nstorage\n"));
    }

    #[test]
    fn empty_series_renders_flat() {
        let s = sparkline(&GaugeSeries::default(), Time::from_nanos(100), 5);
        assert_eq!(s, "▁▁▁▁▁");
    }

    #[test]
    fn utilization_bar_rounds_to_cells() {
        assert_eq!(utilization_bar(0.0, 4), "░░░░");
        assert_eq!(utilization_bar(0.5, 4), "██░░");
        assert_eq!(utilization_bar(1.0, 4), "████");
        assert_eq!(utilization_bar(7.0, 4), "████", "clamps above 1.0");
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let r = MetricsRegistry::new();
        r.set_gauge("queue_depth.data_queue", Time::from_nanos(10), 2.0);
        r.set_gauge("queue_depth.data_queue", Time::from_nanos(1_000_000), 1.0);
        r.set_gauge(names::IN_FLIGHT, Time::from_nanos(5), 3.0);
        r.inc_counter("worker_busy_ns.4243", 500_000);
        r.inc_counter(names::BATCHES_CONSUMED, 10);
        r.inc_counter(names::SAMPLES_CONSUMED, 80);
        r.inc_counter(names::WORKER_DEATHS, 1);
        r.record_latency(names::T1_FETCH, lotus_sim::Span::from_millis(2));
        let out = render_dashboard(&r.snapshot(), DashboardOptions { width: 16 });
        assert!(out.contains("lotus top"));
        assert!(out.contains("queue depth"));
        assert!(out.contains("data_queue"));
        assert!(out.contains("in_flight_batches"));
        assert!(out.contains("worker 4243"));
        assert!(out.contains("throughput"));
        assert!(out.contains("10 batches (80 samples)"));
        assert!(out.contains("t1 fetch: p50"));
        assert!(out.contains("faults: 0 injected, 1 worker deaths"));
    }

    #[test]
    fn dashboard_never_renders_nan_for_the_wait_fraction() {
        use std::sync::Arc;

        use crate::metrics::{MetricsSink, TraceEvent, TraceSink};
        use lotus_sim::Span;

        // A zero-duration wait completing at t=0 is the degenerate case
        // that used to divide 0/0; the sink must publish a finite 0.0 and
        // the dashboard must render it.
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 1);
        let _ = sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 0,
            start: Time::ZERO,
            dur: Span::ZERO,
            out_of_order: false,
            queue_delay: Span::ZERO,
        });
        let out = render_dashboard(&registry.snapshot(), DashboardOptions::default());
        assert!(
            out.contains("main wait fraction 0.000"),
            "degenerate wait renders a finite fraction: {out}"
        );
        assert!(
            !out.contains("NaN"),
            "no NaN anywhere in the dashboard: {out}"
        );
    }

    #[test]
    fn dashboard_of_empty_snapshot_is_calm() {
        let out = render_dashboard(
            &MetricsRegistry::new().snapshot(),
            DashboardOptions::default(),
        );
        assert!(out.contains("lotus top"));
        assert!(out.contains("0 batches (0 samples)"));
        assert!(!out.contains("faults:"));
    }
}
