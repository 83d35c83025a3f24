//! The metrics registry: named counters, virtual-time-sampled gauge
//! series, and latency histograms.
//!
//! Snapshots key everything by `BTreeMap`, every gauge sample is stamped
//! with the virtual [`Time`] it was observed at, and no wall-clock or
//! random state is involved anywhere — two identical seeded runs
//! therefore produce **bit-identical** registries, and bit-identical
//! exports.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lotus_data::stats::Summary;
use lotus_sim::{Span, Time};

use crate::trace::hist::LogHistogram;

/// One gauge time-series: `(Time, value)` samples in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSeries {
    samples: Vec<(Time, f64)>,
}

impl GaugeSeries {
    /// Appends a sample. Consecutive samples with the same value are
    /// collapsed (the series is a step function; repeating the level adds
    /// no information and would grow memory with every queue poll).
    fn push(&mut self, at: Time, value: f64) {
        if self.samples.last().is_some_and(|&(_, v)| v == value) {
            return;
        }
        self.samples.push((at, value));
    }

    /// The raw samples, in emission order.
    #[must_use]
    pub fn samples(&self) -> &[(Time, f64)] {
        &self.samples
    }

    /// The most recent value, if any sample was recorded.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// The value in effect at virtual time `at`: the last sample at or
    /// before `at` (step-function semantics). `None` before the first
    /// sample.
    #[must_use]
    pub fn value_at(&self, at: Time) -> Option<f64> {
        self.samples
            .iter()
            .take_while(|&&(t, _)| t <= at)
            .last()
            .map(|&(_, v)| v)
    }

    /// The largest sampled value, or 0.0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The time of the last sample, if any.
    #[must_use]
    pub fn last_time(&self) -> Option<Time> {
        self.samples.last().map(|&(t, _)| t)
    }
}

/// Point-in-time summary of one latency histogram (nanosecond units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded durations.
    pub count: u64,
    /// Exact sum of all recorded durations.
    pub sum: Span,
    /// Exact mean, ns.
    pub mean_ns: f64,
    /// Approximate median, ns.
    pub p50_ns: f64,
    /// Approximate 90th percentile, ns.
    pub p90_ns: f64,
    /// Approximate 99th percentile, ns.
    pub p99_ns: f64,
}

/// A consistent copy of the whole registry, for exporters and the
/// dashboard. Maps are ordered, so iteration (and any serialization) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauge time-series.
    pub gauges: BTreeMap<String, GaugeSeries>,
    /// Latency histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The latest virtual time observed across all gauge series (the
    /// registry's notion of "now"). `Time::ZERO` when no gauge was set.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.gauges
            .values()
            .filter_map(GaugeSeries::last_time)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Named<u64>,
    gauges: Named<GaugeSeries>,
    histograms: Named<LogHistogram>,
}

/// Values by name, in first-seen order; snapshots sort them. A run
/// registers a few dozen names, mostly of distinct lengths, and a scan
/// that compares lengths before bytes finds one faster than a tree.
#[derive(Debug)]
struct Named<V>(Vec<(Box<str>, V)>);

impl<V> Default for Named<V> {
    fn default() -> Self {
        Named(Vec::new())
    }
}

impl<V> Named<V> {
    fn get(&self, name: &str) -> Option<&V> {
        self.0.iter().find(|(n, _)| **n == *name).map(|(_, v)| v)
    }

    /// `name`'s value, created at its default the first time the name
    /// is seen (the only time the name is copied).
    fn get_or_default(&mut self, name: &str) -> &mut V
    where
        V: Default,
    {
        let at = match self.0.iter().position(|(n, _)| **n == *name) {
            Some(at) => at,
            None => {
                self.0.push((name.into(), V::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    /// Every entry as `f` summarizes it, ordered by name.
    fn sorted<T>(&self, f: impl Fn(&V) -> T) -> BTreeMap<String, T> {
        self.0.iter().map(|(n, v)| (n.to_string(), f(v))).collect()
    }
}

/// Thread-safe registry of counters, gauges, and latency histograms for
/// one run. Handed to a [`crate::metrics::MetricsSink`] for live
/// population and to the exporters ([`crate::metrics::export`]) and
/// dashboard ([`crate::metrics::dashboard`]) for read-out.
///
/// # Examples
///
/// ```
/// use lotus_core::metrics::MetricsRegistry;
/// use lotus_sim::{Span, Time};
///
/// let registry = MetricsRegistry::new();
/// registry.inc_counter("batches_consumed_total", 3);
/// registry.set_gauge("queue_depth.data_queue", Time::ZERO, 2.0);
/// registry.record_latency("t2_batch_wait_ns", Span::from_micros(150));
///
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counters["batches_consumed_total"], 3);
/// assert_eq!(snapshot.gauges["queue_depth.data_queue"].last(), Some(2.0));
/// assert_eq!(snapshot.histograms["t2_batch_wait_ns"].count, 1);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The maps. Every update under the lock is one insert or increment,
    /// so a panic elsewhere cannot leave them half-written.
    fn inner(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the registry for several updates: a sink applies all of one
    /// event's updates under this one lock.
    #[must_use]
    pub fn update(&self) -> MetricsUpdate<'_> {
        MetricsUpdate {
            inner: self.inner(),
        }
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn inc_counter(&self, name: &str, delta: u64) {
        self.update().inc_counter(name, delta);
    }

    /// Current value of a counter (zero if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner();
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a gauge sample at virtual time `at`.
    pub fn set_gauge(&self, name: &str, at: Time, value: f64) {
        self.update().set_gauge(name, at, value);
    }

    /// A copy of the named gauge series, if it exists.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<GaugeSeries> {
        let inner = self.inner();
        inner.gauges.get(name).cloned()
    }

    /// The gauge value in effect at virtual time `at` (step-function
    /// lookup). `None` for an unknown gauge or a time before its first
    /// sample.
    #[must_use]
    pub fn gauge_at(&self, name: &str, at: Time) -> Option<f64> {
        let inner = self.inner();
        inner.gauges.get(name).and_then(|g| g.value_at(at))
    }

    /// Records one duration into the named latency histogram.
    pub fn record_latency(&self, name: &str, dur: Span) {
        self.update().record_latency(name, dur);
    }

    /// Millisecond summary of the named histogram (all-zero when the
    /// histogram is missing or empty — an all-faulted run still exports).
    #[must_use]
    pub fn latency_summary_ms(&self, name: &str) -> Summary {
        let inner = self.inner();
        inner
            .histograms
            .get(name)
            .map(LogHistogram::summary_ms)
            .unwrap_or_else(|| LogHistogram::new().summary_ms())
    }

    /// Takes a consistent, deterministic snapshot of everything.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner();
        MetricsSnapshot {
            counters: inner.counters.sorted(|&count| count),
            gauges: inner.gauges.sorted(GaugeSeries::clone),
            histograms: inner.histograms.sorted(|h| HistogramSnapshot {
                count: h.count(),
                sum: h.total(),
                mean_ns: h.mean_ns(),
                p50_ns: h.percentile_ns(50.0),
                p90_ns: h.percentile_ns(90.0),
                p99_ns: h.percentile_ns(99.0),
            }),
        }
    }
}

/// The registry, locked for a batch of updates
/// ([`MetricsRegistry::update`]). Names are looked up as `&str`; a name
/// is copied only the first time it is seen.
#[derive(Debug)]
pub struct MetricsUpdate<'a> {
    inner: MutexGuard<'a, RegistryInner>,
}

impl MetricsUpdate<'_> {
    /// Adds `delta` to the named counter, creating it at zero, and
    /// returns its new value.
    pub fn inc_counter(&mut self, name: &str, delta: u64) -> u64 {
        let count = self.inner.counters.get_or_default(name);
        *count += delta;
        *count
    }

    /// Records a gauge sample at virtual time `at`.
    pub fn set_gauge(&mut self, name: &str, at: Time, value: f64) {
        self.inner.gauges.get_or_default(name).push(at, value);
    }

    /// The named gauge's most recent value, if any sample was recorded.
    #[must_use]
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.inner.gauges.get(name).and_then(GaugeSeries::last)
    }

    /// Records one duration into the named latency histogram.
    pub fn record_latency(&mut self, name: &str, dur: Span) {
        self.inner.histograms.get_or_default(name).record(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_from_zero() {
        let r = MetricsRegistry::new();
        assert_eq!(r.counter("batches_produced_total"), 0);
        r.inc_counter("batches_produced_total", 2);
        r.inc_counter("batches_produced_total", 3);
        assert_eq!(r.counter("batches_produced_total"), 5);
    }

    #[test]
    fn gauge_series_are_step_functions() {
        let r = MetricsRegistry::new();
        let g = "queue_depth.data_queue";
        r.set_gauge(g, Time::from_nanos(10), 1.0);
        r.set_gauge(g, Time::from_nanos(20), 3.0);
        r.set_gauge(g, Time::from_nanos(30), 0.0);
        let series = r.gauge(g).unwrap();
        assert_eq!(series.samples().len(), 3);
        assert_eq!(series.last(), Some(0.0));
        assert_eq!(series.max(), 3.0);
        assert_eq!(r.gauge_at(g, Time::from_nanos(5)), None);
        assert_eq!(r.gauge_at(g, Time::from_nanos(10)), Some(1.0));
        assert_eq!(r.gauge_at(g, Time::from_nanos(25)), Some(3.0));
        assert_eq!(r.gauge_at(g, Time::from_nanos(999)), Some(0.0));
    }

    #[test]
    fn repeated_gauge_levels_are_collapsed() {
        let r = MetricsRegistry::new();
        for t in 0..100u64 {
            r.set_gauge("in_flight_batches", Time::from_nanos(t), 4.0);
        }
        assert_eq!(r.gauge("in_flight_batches").unwrap().samples().len(), 1);
    }

    #[test]
    fn latency_histograms_summarize_and_snapshot() {
        let r = MetricsRegistry::new();
        for ms in [1u64, 2, 3] {
            r.record_latency("t1_batch_preprocess_ns", Span::from_millis(ms));
        }
        let s = r.latency_summary_ms("t1_batch_preprocess_ns");
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-9);
        // Missing histograms summarize to zero instead of panicking.
        assert_eq!(r.latency_summary_ms("t2_batch_wait_ns").count, 0);

        let snap = r.snapshot();
        let h = &snap.histograms["t1_batch_preprocess_ns"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, Span::from_millis(6));
        assert!(h.p50_ns > 0.0);
    }

    #[test]
    fn snapshot_horizon_tracks_latest_gauge_sample() {
        let r = MetricsRegistry::new();
        assert_eq!(r.snapshot().horizon(), Time::ZERO);
        r.set_gauge("a", Time::from_nanos(5), 1.0);
        r.set_gauge("b", Time::from_nanos(9), 1.0);
        assert_eq!(r.snapshot().horizon(), Time::from_nanos(9));
    }
}
