//! Streaming trace sinks: incremental event delivery with per-sink
//! virtual-time overhead accounting.
//!
//! The pre-metrics design buffered a `Vec<TraceRecord>` and analyzed it
//! after the run. Here the data flow is inverted: every engine hook
//! reaches a sink as one [`TraceEvent`] (the blanket
//! [`Tracer`](lotus_dataflow::Tracer) impl over [`TraceSink`]), and a
//! [`MultiSink`] fans it out to any number of sinks, each of which
//! consumes events *as they happen* — the log backend keeps recording,
//! the Chrome/viz backends stream into their buffers, and the
//! [`MetricsSink`] folds events into live counters, gauge time-series
//! and latency histograms.
//!
//! Every sink self-accounts the virtual-time overhead it charges to the
//! traced program ([`TraceSink::overhead`]), so Table III-style
//! profiler-overhead comparisons can attribute cost sink by sink, and a
//! run with **no** sinks charges exactly zero (NullTracer parity).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lotus_dataflow::{TraceEvent, TraceSink};
use lotus_sim::{Span, Time};

use super::registry::MetricsRegistry;
use crate::trace::TraceRecord;

/// Well-known metric names recorded by [`MetricsSink`].
pub mod names {
    /// Batches fully preprocessed by workers (\[T1\] completions).
    pub const BATCHES_PRODUCED: &str = "batches_produced_total";
    /// Batches consumed by the main process.
    pub const BATCHES_CONSUMED: &str = "batches_consumed_total";
    /// Samples consumed by the main process.
    pub const SAMPLES_CONSUMED: &str = "samples_consumed_total";
    /// Per-item preprocessing operations executed (\[T3\] events).
    pub const OPS: &str = "ops_total";
    /// Per-sample errors injected by the fault plan.
    pub const FAULTS_INJECTED: &str = "faults_injected_total";
    /// Worker deaths observed by the main process.
    pub const WORKER_DEATHS: &str = "worker_deaths_total";
    /// Orphaned batches re-sent to surviving workers.
    pub const REDISPATCHES: &str = "redispatches_total";
    /// Waits satisfied from the out-of-order pinned cache.
    pub const OOO_CACHE_HITS: &str = "ooo_cache_hits_total";
    /// Cumulative main-process wait, nanoseconds.
    pub const MAIN_WAIT_NS: &str = "main_wait_ns_total";

    /// Gauge: live DataLoader workers.
    pub const LIVE_WORKERS: &str = "live_workers";
    /// Gauge: fraction of elapsed virtual time the main process spent
    /// blocked waiting for a batch.
    pub const MAIN_WAIT_FRACTION: &str = "main_wait_fraction";
    /// Gauge: dispatched-but-unreturned batches (fed by the engine).
    pub const IN_FLIGHT: &str = "in_flight_batches";
    /// Gauge: out-of-order batches pinned in the main-process cache
    /// (fed by the engine).
    pub const PINNED_CACHE: &str = "pinned_cache_batches";
    /// Gauge: cumulative consumed batches over virtual time (the
    /// dashboard differentiates this series into throughput).
    pub const BATCHES_CONSUMED_SERIES: &str = "batches_consumed";
    /// Prefix of the per-queue depth gauges fed by the engine
    /// (`queue_depth.data_queue`, `queue_depth.index_queue_0`, …).
    pub const QUEUE_DEPTH_PREFIX: &str = "queue_depth.";

    /// Histogram: per-read storage fetch latency (\[T0\]).
    pub const T0_STORAGE: &str = "t0_storage_read_ns";
    /// Histogram: per-batch fetch latency (\[T1\]).
    pub const T1_FETCH: &str = "t1_batch_fetch_ns";
    /// Histogram: main-process wait latency (\[T2\]).
    pub const T2_WAIT: &str = "t2_batch_wait_ns";
    /// Histogram: per-operation latency (\[T3\]).
    pub const T3_OP: &str = "t3_op_ns";
    /// Histogram: shared-queue residency of delivered batches.
    pub const QUEUE_DELAY: &str = "queue_delay_ns";

    /// Counter: storage reads that required a device seek.
    pub const STORAGE_SEEKS: &str = "storage_seeks_total";

    /// Counter: batches a scheduling policy stole off their round-robin
    /// target worker.
    pub const STEALS: &str = "steals_total";
    /// Counter: batches a lane-aware policy classified into the slow lane.
    pub const LANE_SLOW: &str = "lane_slow_total";
    /// Counter: prefetch-window resizes by an adaptive policy.
    pub const PREFETCH_RESIZES: &str = "prefetch_resizes_total";
    /// Gauge: the adaptive policy's current per-worker prefetch target.
    pub const PREFETCH_TARGET: &str = "prefetch_target";

    /// Counter name for a worker's cumulative busy (fetch) nanoseconds.
    #[must_use]
    pub fn worker_busy(pid: u32) -> String {
        format!("worker_busy_ns.{pid}")
    }

    /// Counter name for reads served by a storage tier
    /// (`storage_reads_total.page-cache`, …).
    #[must_use]
    pub fn storage_reads(tier: &str) -> String {
        format!("storage_reads_total.{tier}")
    }

    /// Counter name for bytes served by a storage tier
    /// (`storage_bytes_total.object-store`, …).
    #[must_use]
    pub fn storage_bytes(tier: &str) -> String {
        format!("storage_bytes_total.{tier}")
    }

    /// Gauge name for a backing device's observed queue depth
    /// (`storage_queue_depth.local-disk`, …).
    #[must_use]
    pub fn storage_queue_depth(tier: &str) -> String {
        format!("storage_queue_depth.{tier}")
    }
}

/// Streams events into the live metrics registry: counters, gauge
/// time-series (sampled in virtual time) and latency histograms.
#[derive(Debug)]
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    per_event_overhead: Span,
    charged_ns: AtomicU64,
    state: Mutex<MetricsState>,
}

#[derive(Debug)]
struct MetricsState {
    live_workers: usize,
    wait_ns_total: u64,
}

impl MetricsSink {
    /// Virtual-time cost charged per consumed event: two atomic bumps
    /// and a bucket increment — cheaper than formatting a log line.
    pub const DEFAULT_PER_EVENT_OVERHEAD: Span = Span::from_nanos(250);

    /// Creates a sink feeding `registry`, for a job with `workers`
    /// DataLoader workers (seeds the `live_workers` gauge).
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>, workers: usize) -> MetricsSink {
        MetricsSink::with_overhead(registry, workers, MetricsSink::DEFAULT_PER_EVENT_OVERHEAD)
    }

    /// Creates a sink with an explicit per-event overhead (zero makes the
    /// metrics layer free, for overhead-ablation runs).
    #[must_use]
    pub fn with_overhead(
        registry: Arc<MetricsRegistry>,
        workers: usize,
        per_event_overhead: Span,
    ) -> MetricsSink {
        registry.set_gauge(names::LIVE_WORKERS, Time::ZERO, workers as f64);
        MetricsSink {
            registry,
            per_event_overhead,
            charged_ns: AtomicU64::new(0),
            state: Mutex::new(MetricsState {
                live_workers: workers,
                wait_ns_total: 0,
            }),
        }
    }

    /// The registry this sink feeds.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn charge(&self) -> Span {
        self.charged_ns
            .fetch_add(self.per_event_overhead.as_nanos(), Ordering::Relaxed);
        self.per_event_overhead
    }
}

impl TraceSink for MetricsSink {
    fn name(&self) -> &str {
        "metrics"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        let r = &self.registry;
        match *event {
            TraceEvent::Op { dur, .. } => {
                r.inc_counter(names::OPS, 1);
                r.record_latency(names::T3_OP, dur);
            }
            TraceEvent::StorageRead {
                start, ref read, ..
            } => {
                let tier = read.tier.as_str();
                r.inc_counter(&names::storage_reads(tier), 1);
                r.inc_counter(&names::storage_bytes(tier), read.bytes);
                if read.seek {
                    r.inc_counter(names::STORAGE_SEEKS, 1);
                }
                r.record_latency(names::T0_STORAGE, read.span);
                r.set_gauge(
                    &names::storage_queue_depth(tier),
                    start + read.span,
                    f64::from(read.queue_depth),
                );
            }
            TraceEvent::BatchPreprocessed { pid, dur, .. } => {
                r.inc_counter(names::BATCHES_PRODUCED, 1);
                r.inc_counter(&names::worker_busy(pid), dur.as_nanos());
                r.record_latency(names::T1_FETCH, dur);
            }
            TraceEvent::BatchWait {
                start,
                dur,
                out_of_order,
                queue_delay,
                ..
            } => {
                r.record_latency(names::T2_WAIT, dur);
                r.record_latency(names::QUEUE_DELAY, queue_delay);
                r.inc_counter(names::MAIN_WAIT_NS, dur.as_nanos());
                if out_of_order {
                    r.inc_counter(names::OOO_CACHE_HITS, 1);
                }
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.wait_ns_total += dur.as_nanos();
                let now = start + dur;
                // A zero-duration wait completing at t=0 would divide by
                // zero; always publish a finite fraction in [0, 1] so the
                // dashboard never renders NaN.
                let fraction = if now > Time::ZERO {
                    (state.wait_ns_total as f64 / now.as_nanos() as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                r.set_gauge(names::MAIN_WAIT_FRACTION, now, fraction);
            }
            TraceEvent::BatchConsumed {
                start,
                dur,
                batch_len,
                ..
            } => {
                r.inc_counter(names::BATCHES_CONSUMED, 1);
                r.inc_counter(names::SAMPLES_CONSUMED, batch_len as u64);
                r.set_gauge(
                    names::BATCHES_CONSUMED_SERIES,
                    start + dur,
                    r.counter(names::BATCHES_CONSUMED) as f64,
                );
            }
            TraceEvent::FaultInjected { .. } => r.inc_counter(names::FAULTS_INJECTED, 1),
            TraceEvent::WorkerDied { at, .. } => {
                r.inc_counter(names::WORKER_DEATHS, 1);
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.live_workers = state.live_workers.saturating_sub(1);
                r.set_gauge(names::LIVE_WORKERS, at, state.live_workers as f64);
            }
            TraceEvent::BatchRedispatched { .. } => r.inc_counter(names::REDISPATCHES, 1),
            TraceEvent::BatchStolen { .. } => r.inc_counter(names::STEALS, 1),
            TraceEvent::LaneAssigned { ref lane, .. } => {
                if lane == "slow" {
                    r.inc_counter(names::LANE_SLOW, 1);
                }
            }
            TraceEvent::PrefetchResized { target, at } => {
                r.inc_counter(names::PREFETCH_RESIZES, 1);
                r.set_gauge(names::PREFETCH_TARGET, at, target as f64);
            }
            TraceEvent::Gauge {
                ref name,
                value,
                at,
            } => {
                // Engine-internal samples piggyback on queue transitions
                // the engine already paid for; only span/instant events
                // carry the per-event fold cost.
                r.set_gauge(name, at, value);
                return Span::ZERO;
            }
            // Dispatches feed the model checker's ledger, not a metric.
            TraceEvent::Dispatched { .. } => return Span::ZERO,
        }
        self.charge()
    }

    fn overhead(&self) -> Span {
        Span::from_nanos(self.charged_ns.load(Ordering::Relaxed))
    }
}

/// A record-buffering sink core shared by the Chrome and viz backends.
#[derive(Debug, Default)]
struct RecordBuffer {
    records: Mutex<Vec<TraceRecord>>,
    charged_ns: AtomicU64,
}

impl RecordBuffer {
    fn consume(&self, event: &TraceEvent<'_>, per_event: Span) -> Span {
        let Some(record) = TraceRecord::from_event(event) else {
            return Span::ZERO; // dispatches and gauges have no record form
        };
        self.records.lock().expect("sink poisoned").push(record);
        self.charged_ns
            .fetch_add(per_event.as_nanos(), Ordering::Relaxed);
        per_event
    }

    fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("sink poisoned").clone()
    }

    fn overhead(&self) -> Span {
        Span::from_nanos(self.charged_ns.load(Ordering::Relaxed))
    }
}

/// Streams events into a buffer for Chrome-trace export
/// ([`crate::trace::chrome::to_chrome_trace`]). Charges a heavier
/// per-event cost than the plain log: each event is held as a structured
/// JSON candidate, the torch-profiler failure mode of Table III.
#[derive(Debug, Default)]
pub struct ChromeSink {
    buffer: RecordBuffer,
}

impl ChromeSink {
    /// Per-event virtual-time cost of structured-trace collection.
    pub const PER_EVENT_OVERHEAD: Span = Span::from_nanos(2_500);

    /// Creates an empty Chrome sink.
    #[must_use]
    pub fn new() -> ChromeSink {
        ChromeSink::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buffer.records()
    }

    /// Exports the collected stream as a Chrome Trace Viewer document.
    #[must_use]
    pub fn to_chrome_trace(
        &self,
        options: crate::trace::chrome::ChromeTraceOptions,
    ) -> serde_json::Value {
        crate::trace::chrome::to_chrome_trace(&self.records(), options)
    }
}

impl TraceSink for ChromeSink {
    fn name(&self) -> &str {
        "chrome"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        self.buffer.consume(event, ChromeSink::PER_EVENT_OVERHEAD)
    }

    fn overhead(&self) -> Span {
        self.buffer.overhead()
    }
}

/// Streams events into a buffer for ASCII-timeline rendering
/// ([`crate::trace::viz::render_timeline`]).
#[derive(Debug, Default)]
pub struct VizSink {
    buffer: RecordBuffer,
}

impl VizSink {
    /// Per-event virtual-time cost of timeline collection.
    pub const PER_EVENT_OVERHEAD: Span = Span::from_nanos(500);

    /// Creates an empty viz sink.
    #[must_use]
    pub fn new() -> VizSink {
        VizSink::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buffer.records()
    }

    /// Renders the collected stream as an ASCII timeline.
    #[must_use]
    pub fn render(&self, options: crate::trace::viz::TimelineOptions) -> String {
        crate::trace::viz::render_timeline(&self.records(), options)
    }
}

impl TraceSink for VizSink {
    fn name(&self) -> &str {
        "viz"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        self.buffer.consume(event, VizSink::PER_EVENT_OVERHEAD)
    }

    fn overhead(&self) -> Span {
        self.buffer.overhead()
    }
}

/// Fan-out sink: delivers every [`TraceEvent`] to each registered sink in
/// registration order, charging the traced program the *sum* of the
/// sinks' overheads.
///
/// An empty `MultiSink` is the no-sink configuration and charges exactly
/// zero everywhere — identical to [`lotus_dataflow::NullTracer`].
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl MultiSink {
    /// Creates a sink-less fan-out (charges zero, captures nothing).
    #[must_use]
    pub fn new() -> MultiSink {
        MultiSink::default()
    }

    /// Adds a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: Arc<dyn TraceSink>) -> MultiSink {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Arc<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// The registered sinks, in delivery order.
    #[must_use]
    pub fn sinks(&self) -> &[Arc<dyn TraceSink>] {
        &self.sinks
    }

    /// Per-sink self-accounted overhead totals, in delivery order.
    #[must_use]
    pub fn overheads(&self) -> Vec<(String, Span)> {
        self.sinks
            .iter()
            .map(|s| (s.name().to_string(), s.overhead()))
            .collect()
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field(
                "sinks",
                &self.sinks.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl TraceSink for MultiSink {
    fn name(&self) -> &str {
        "multi"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        self.sinks.iter().map(|s| s.on_event(event)).sum()
    }

    fn overhead(&self) -> Span {
        self.sinks.iter().map(|s| s.overhead()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::RecordingObserver;
    use crate::trace::{LotusTrace, SpanKind};
    use lotus_dataflow::Tracer;
    use lotus_sim::ReadOutcome;

    /// One call of a hook on a sink, through the blanket [`Tracer`] impl.
    type Hook = fn(&dyn TraceSink) -> Span;

    /// Each of the 13 hooks called once, and whether a log sink keeps a
    /// record for it (dispatches and gauge samples have no record form).
    fn hooks() -> Vec<(&'static str, Hook, bool)> {
        vec![
            (
                "on_op",
                |t| t.on_op(4243, 0, "Loader", Time::ZERO, Span::from_millis(2)),
                true,
            ),
            (
                "on_batch_preprocessed",
                |t| t.on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_millis(5)),
                true,
            ),
            (
                "on_batch_dispatched",
                |t| t.on_batch_dispatched(1, 4243, &[2, 3], false, Time::from_nanos(10)),
                false,
            ),
            (
                "on_batch_wait",
                |t| {
                    let (start, dur) = (Time::from_nanos(1_000), Span::from_millis(1));
                    t.on_batch_wait(4242, 0, start, dur, true, Span::from_micros(40))
                },
                true,
            ),
            (
                "on_batch_consumed",
                |t| t.on_batch_consumed(4242, 0, Time::ZERO, Span::from_millis(1), 8),
                true,
            ),
            (
                "on_storage_read",
                |t| {
                    let read = ReadOutcome {
                        tier: lotus_sim::StorageTier::LocalDisk,
                        span: Span::from_micros(700),
                        bytes: 131_072,
                        seek: true,
                        queue_depth: 3,
                    };
                    t.on_storage_read(4243, 2, Time::from_nanos(20), &read)
                },
                true,
            ),
            (
                "on_fault_injected",
                |t| t.on_fault_injected(4243, 3, "Decode", Time::from_nanos(30)),
                true,
            ),
            (
                "on_worker_died",
                |t| t.on_worker_died(4244, Time::from_nanos(40)),
                true,
            ),
            (
                "on_batch_redispatched",
                |t| t.on_batch_redispatched(3, 4244, 4243, Time::from_nanos(50)),
                true,
            ),
            (
                "on_batch_stolen",
                |t| t.on_batch_stolen(4, 4243, 4245, Time::from_nanos(60)),
                true,
            ),
            (
                "on_lane_assigned",
                |t| t.on_lane_assigned(4, "slow", 4245, Time::from_nanos(60)),
                true,
            ),
            (
                "on_prefetch_resized",
                |t| t.on_prefetch_resized(1, Time::from_nanos(70)),
                true,
            ),
            (
                "on_gauge",
                |t| t.on_gauge("queue_depth.data_queue", 2.0, Time::from_nanos(80)),
                false,
            ),
        ]
    }

    fn feed(sink: &dyn TraceSink) -> Span {
        let mut total = Span::ZERO;
        total += sink.on_event(&TraceEvent::Op {
            pid: 4243,
            batch_id: 0,
            name: "Loader".into(),
            start: Time::ZERO,
            dur: Span::from_millis(2),
        });
        total += sink.on_event(&TraceEvent::BatchPreprocessed {
            pid: 4243,
            batch_id: 0,
            start: Time::ZERO,
            dur: Span::from_millis(5),
        });
        total += sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 0,
            start: Time::from_nanos(1_000),
            dur: Span::from_millis(1),
            out_of_order: false,
            queue_delay: Span::from_micros(40),
        });
        total += sink.on_event(&TraceEvent::BatchConsumed {
            pid: 4242,
            batch_id: 0,
            start: Time::from_nanos(2_000_000),
            dur: Span::from_millis(1),
            batch_len: 8,
        });
        total += sink.on_event(&TraceEvent::Gauge {
            name: "queue_depth.data_queue".into(),
            value: 2.0,
            at: Time::from_nanos(500),
        });
        total
    }

    #[test]
    fn lotus_trace_sink_matches_direct_tracer_wiring() {
        for (hook, call, keeps_record) in hooks() {
            // A bare LotusTrace and one inside a MultiSink keep the same
            // records and charge the same.
            let bare = LotusTrace::new();
            let inner = Arc::new(LotusTrace::new());
            let multi = MultiSink::new().with(Arc::clone(&inner) as Arc<dyn TraceSink>);
            let charged = call(&bare);
            assert_eq!(call(&multi), charged, "{hook}");
            assert_eq!(inner.records(), bare.records(), "{hook}");
            assert_eq!(inner.charged_overhead(), charged, "{hook}");
            assert_eq!(bare.charged_overhead(), charged, "{hook}");
            assert_eq!(bare.len(), usize::from(keeps_record), "{hook}");
            assert_eq!(charged.is_zero(), !keeps_record, "{hook}");

            // A RecordingObserver sees the same events inside a MultiSink
            // as attached alone.
            let alone = RecordingObserver::new();
            let observer = Arc::new(RecordingObserver::new());
            let multi = MultiSink::new().with(Arc::clone(&observer) as Arc<dyn TraceSink>);
            assert!(call(&alone).is_zero() && call(&multi).is_zero(), "{hook}");
            assert_eq!(observer.events(), alone.events(), "{hook}");
        }

        // Dispatches and gauge samples record nothing and charge zero in
        // every sink.
        let trace = LotusTrace::new();
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = MetricsSink::new(Arc::clone(&registry), 2);
        let (chrome, viz) = (ChromeSink::new(), VizSink::new());
        for (hook, call, _) in hooks().into_iter().filter(|(_, _, keeps)| !keeps) {
            for sink in [&trace as &dyn TraceSink, &metrics, &chrome, &viz] {
                assert_eq!(call(sink), Span::ZERO, "{hook} on {}", sink.name());
                assert_eq!(sink.overhead(), Span::ZERO, "{hook} on {}", sink.name());
            }
        }
        assert!(trace.is_empty() && chrome.records().is_empty() && viz.records().is_empty());
        assert!(registry.snapshot().counters.is_empty());
    }

    #[test]
    fn metrics_sink_folds_events_into_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 4);
        let charged = feed(&sink);
        assert_eq!(registry.counter(names::OPS), 1);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 1);
        assert_eq!(registry.counter(names::BATCHES_CONSUMED), 1);
        assert_eq!(registry.counter(names::SAMPLES_CONSUMED), 8);
        assert_eq!(
            registry.counter(&names::worker_busy(4243)),
            Span::from_millis(5).as_nanos()
        );
        assert_eq!(registry.latency_summary_ms(names::T1_FETCH).count, 1);
        assert_eq!(registry.latency_summary_ms(names::T2_WAIT).count, 1);
        assert_eq!(
            registry.gauge("queue_depth.data_queue").unwrap().last(),
            Some(2.0)
        );
        assert_eq!(
            registry.gauge(names::LIVE_WORKERS).unwrap().last(),
            Some(4.0)
        );
        // 4 span events at the default per-event cost (the gauge sample
        // is free), all self-accounted.
        assert_eq!(charged, MetricsSink::DEFAULT_PER_EVENT_OVERHEAD * 4);
        assert_eq!(sink.overhead(), charged);
    }

    #[test]
    fn storage_reads_fold_into_per_tier_metrics_and_records() {
        let event = TraceEvent::StorageRead {
            pid: 4243,
            batch_id: 2,
            start: Time::from_nanos(1_000),
            read: ReadOutcome {
                tier: lotus_sim::StorageTier::LocalDisk,
                span: Span::from_micros(700),
                bytes: 131_072,
                seek: true,
                queue_depth: 3,
            },
        };

        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&event);
        assert_eq!(registry.counter(&names::storage_reads("local-disk")), 1);
        assert_eq!(
            registry.counter(&names::storage_bytes("local-disk")),
            131_072
        );
        assert_eq!(registry.counter(names::STORAGE_SEEKS), 1);
        assert_eq!(registry.latency_summary_ms(names::T0_STORAGE).count, 1);
        assert_eq!(
            registry
                .gauge(&names::storage_queue_depth("local-disk"))
                .unwrap()
                .last(),
            Some(3.0)
        );

        let record = TraceRecord::from_event(&event).unwrap();
        assert_eq!(record.kind, SpanKind::StorageRead("local-disk".into()));
        assert_eq!(record.duration, Span::from_micros(700));
        assert_eq!(record.batch_id, 2);

        // The fan-out delivers the hook to log sinks too.
        let trace = Arc::new(LotusTrace::new());
        let multi = MultiSink::new().with(Arc::clone(&trace) as Arc<dyn TraceSink>);
        let read = ReadOutcome {
            tier: lotus_sim::StorageTier::PageCache,
            span: Span::from_micros(2),
            bytes: 4_096,
            seek: false,
            queue_depth: 0,
        };
        let _ = multi.on_storage_read(4243, 0, Time::ZERO, &read);
        assert_eq!(
            trace.records()[0].kind,
            SpanKind::StorageRead("page-cache".into())
        );
    }

    #[test]
    fn worker_death_decrements_live_workers_and_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&TraceEvent::WorkerDied {
            pid: 4244,
            at: Time::from_nanos(50),
        });
        let _ = sink.on_event(&TraceEvent::FaultInjected {
            pid: 4243,
            batch_id: 3,
            op: "Decode".into(),
            at: Time::from_nanos(60),
        });
        let _ = sink.on_event(&TraceEvent::BatchRedispatched {
            batch_id: 3,
            from_pid: 4244,
            to_pid: 4243,
            at: Time::from_nanos(70),
        });
        assert_eq!(registry.counter(names::WORKER_DEATHS), 1);
        assert_eq!(registry.counter(names::FAULTS_INJECTED), 1);
        assert_eq!(registry.counter(names::REDISPATCHES), 1);
        let live = registry.gauge(names::LIVE_WORKERS).unwrap();
        assert_eq!(
            live.samples(),
            &[(Time::ZERO, 2.0), (Time::from_nanos(50), 1.0)]
        );
    }

    #[test]
    fn chrome_and_viz_sinks_buffer_spans_but_not_gauges() {
        let chrome = ChromeSink::new();
        let viz = VizSink::new();
        let chrome_charge = feed(&chrome);
        let viz_charge = feed(&viz);
        // 4 span events, 1 gauge: the gauge is dropped and costs nothing.
        assert_eq!(chrome.records().len(), 4);
        assert_eq!(viz.records().len(), 4);
        assert_eq!(chrome_charge, ChromeSink::PER_EVENT_OVERHEAD * 4);
        assert_eq!(viz_charge, VizSink::PER_EVENT_OVERHEAD * 4);
        assert_eq!(chrome.overhead(), chrome_charge);
        assert_eq!(viz.overhead(), viz_charge);
        let doc = chrome.to_chrome_trace(crate::trace::chrome::ChromeTraceOptions { coarse: true });
        assert!(doc["traceEvents"].as_array().is_some());
        let timeline = viz.render(crate::trace::viz::TimelineOptions::default());
        assert!(timeline.contains("main 4242"));
    }

    #[test]
    fn multi_sink_sums_overheads_and_empty_is_free() {
        let empty = MultiSink::new();
        assert_eq!(
            empty.on_batch_preprocessed(1, 0, Time::ZERO, Span::from_millis(1)),
            Span::ZERO
        );
        assert_eq!(
            empty.on_gauge("queue_depth.data_queue", 1.0, Time::ZERO),
            Span::ZERO
        );
        assert!(empty.overheads().is_empty());

        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(LotusTrace::new());
        let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), 1));
        let multi = MultiSink::new()
            .with(Arc::clone(&trace) as Arc<dyn TraceSink>)
            .with(Arc::clone(&metrics) as Arc<dyn TraceSink>);
        let oh = multi.on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_millis(1));
        assert_eq!(
            oh,
            trace.charged_overhead() + metrics.overhead(),
            "fan-out charges the sum of sink overheads"
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 1);
        let overheads = multi.overheads();
        assert_eq!(overheads[0].0, "lotus-trace");
        assert_eq!(overheads[1].0, "metrics");
    }

    #[test]
    fn scheduling_events_fold_into_counters_and_records() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&TraceEvent::BatchStolen {
            batch_id: 7,
            from_pid: 4243,
            to_pid: 4244,
            at: Time::from_nanos(10),
        });
        let _ = sink.on_event(&TraceEvent::LaneAssigned {
            batch_id: 7,
            lane: "slow".into(),
            to_pid: 4244,
            at: Time::from_nanos(10),
        });
        let _ = sink.on_event(&TraceEvent::LaneAssigned {
            batch_id: 8,
            lane: "fast".into(),
            to_pid: 4243,
            at: Time::from_nanos(20),
        });
        let _ = sink.on_event(&TraceEvent::PrefetchResized {
            target: 3,
            at: Time::from_nanos(30),
        });
        assert_eq!(registry.counter(names::STEALS), 1);
        assert_eq!(
            registry.counter(names::LANE_SLOW),
            1,
            "fast lane not counted"
        );
        assert_eq!(registry.counter(names::PREFETCH_RESIZES), 1);
        assert_eq!(
            registry.gauge(names::PREFETCH_TARGET).unwrap().last(),
            Some(3.0)
        );

        let stolen = TraceRecord::from_event(&TraceEvent::BatchStolen {
            batch_id: 7,
            from_pid: 4243,
            to_pid: 4244,
            at: Time::from_nanos(10),
        })
        .unwrap();
        assert_eq!(stolen.kind, SpanKind::BatchStolen);
        assert_eq!(stolen.pid, 4244, "steal records the receiving worker");
        let lane = TraceRecord::from_event(&TraceEvent::LaneAssigned {
            batch_id: 7,
            lane: "slow".into(),
            to_pid: 4244,
            at: Time::from_nanos(10),
        })
        .unwrap();
        assert_eq!(lane.kind, SpanKind::LaneAssigned("slow".into()));
        let resized = TraceRecord::from_event(&TraceEvent::PrefetchResized {
            target: 3,
            at: Time::from_nanos(30),
        })
        .unwrap();
        assert_eq!(resized.kind, SpanKind::PrefetchResized);
        assert_eq!(resized.batch_id, 3, "target rides the batch-id slot");
        assert_eq!(
            resized.pid,
            lotus_dataflow::MAIN_OS_PID,
            "resize is a main-process event"
        );
    }

    #[test]
    fn wait_fraction_gauge_is_always_finite_and_clamped() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 1);
        // A zero-duration wait completing at t=0 must not divide by zero.
        let _ = sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 0,
            start: Time::ZERO,
            dur: Span::ZERO,
            out_of_order: false,
            queue_delay: Span::ZERO,
        });
        assert_eq!(
            registry.gauge(names::MAIN_WAIT_FRACTION).unwrap().last(),
            Some(0.0)
        );
        // Waiting for the whole elapsed window pins the fraction at 1.
        let _ = sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 1,
            start: Time::ZERO,
            dur: Span::from_millis(1),
            out_of_order: false,
            queue_delay: Span::ZERO,
        });
        let samples = registry.gauge(names::MAIN_WAIT_FRACTION).unwrap();
        let last = samples.last().unwrap();
        assert!(last.is_finite());
        assert!((0.0..=1.0).contains(&last));
        assert_eq!(last, 1.0);
    }

    #[test]
    fn instant_events_round_trip_to_records() {
        let e = TraceEvent::BatchRedispatched {
            batch_id: 9,
            from_pid: 4244,
            to_pid: 4245,
            at: Time::from_nanos(30),
        };
        let r = TraceRecord::from_event(&e).unwrap();
        assert_eq!(r.kind, SpanKind::BatchRedispatched);
        assert_eq!(r.pid, 4245, "redispatch records the receiving worker");
        assert!(TraceRecord::from_event(&TraceEvent::Gauge {
            name: "x".into(),
            value: 1.0,
            at: Time::ZERO
        })
        .is_none());
    }
}
