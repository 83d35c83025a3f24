//! Streaming trace sinks: incremental event delivery, with each sink's
//! virtual-time overhead accounted once, by the fan-out.
//!
//! Every engine hook reaches a sink as one [`TraceEvent`] (the blanket
//! [`Tracer`](lotus_dataflow::Tracer) impl over [`TraceSink`]), and a
//! [`MultiSink`] fans it out to any number of sinks, each of which
//! consumes events *as they happen*: the LotusTrace log keeps recording,
//! and the [`MetricsSink`] folds events into live counters, gauge
//! time-series and latency histograms.
//!
//! A sink only returns its per-event charge. [`MultiSink`] totals the
//! charges of each member ([`MultiSink::overheads`]), so Table III-style
//! profiler-overhead comparisons can attribute cost sink by sink, and a
//! run with **no** sinks charges exactly zero (NullTracer parity).

use std::borrow::Cow;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lotus_dataflow::{TraceEvent, TraceSink};
use lotus_sim::{Span, Time};

use super::registry::MetricsRegistry;

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
    /// Gauge: cumulative consumed batches over virtual time (the
    /// dashboard differentiates this series into throughput).
    pub const BATCHES_CONSUMED_SERIES: &str = "batches_consumed";
    /// The engine's own gauges, named once in `lotus-dataflow`.
    pub use lotus_dataflow::{
        DATA_QUEUE_DEPTH_GAUGE as DATA_QUEUE_DEPTH, IN_FLIGHT_GAUGE as IN_FLIGHT,
        PINNED_CACHE_GAUGE as PINNED_CACHE, QUEUE_DEPTH_PREFIX,
    };

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

    /// Prefix of the per-worker busy counters.
    pub(crate) const WORKER_BUSY: &str = "worker_busy_ns.";
    /// Prefix of the per-tier read counters.
    pub(crate) const STORAGE_READS: &str = "storage_reads_total.";
    /// Prefix of the per-tier byte counters.
    pub(crate) const STORAGE_BYTES: &str = "storage_bytes_total.";
    /// Prefix of the per-device queue-depth gauges.
    pub(crate) const STORAGE_QUEUE_DEPTH: &str = "storage_queue_depth.";

    /// Counter name for a worker's cumulative busy (fetch) nanoseconds.
    #[must_use]
    pub fn worker_busy(pid: u32) -> String {
        format!("{WORKER_BUSY}{pid}")
    }

    /// Counter name for reads served by a storage tier
    /// (`storage_reads_total.page-cache`, …).
    #[must_use]
    pub fn storage_reads(tier: &str) -> String {
        format!("{STORAGE_READS}{tier}")
    }

    /// Counter name for bytes served by a storage tier
    /// (`storage_bytes_total.object-store`, …).
    #[must_use]
    pub fn storage_bytes(tier: &str) -> String {
        format!("{STORAGE_BYTES}{tier}")
    }

    /// Gauge name for a backing device's observed queue depth
    /// (`storage_queue_depth.local-disk`, …).
    #[must_use]
    pub fn storage_queue_depth(tier: &str) -> String {
        format!("{STORAGE_QUEUE_DEPTH}{tier}")
    }
}

/// Streams events into the live metrics registry: counters, gauge
/// time-series (sampled in virtual time) and latency histograms.
#[derive(Debug)]
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    per_event_overhead: Span,
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
        }
    }
}

impl TraceSink for MetricsSink {
    fn name(&self) -> &str {
        "metrics"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        // Dispatches feed the model checker's ledger, not a metric.
        if let TraceEvent::Dispatched { .. } = event {
            return Span::ZERO;
        }
        let mut r = self.registry.update();
        match *event {
            TraceEvent::Op { dur, .. } => {
                r.inc_counter(names::OPS, 1);
                r.record_latency(names::T3_OP, dur);
            }
            TraceEvent::StorageRead {
                start, ref read, ..
            } => {
                let (tier, mut key) = (read.tier.as_str(), [0; KEY_BYTES]);
                r.inc_counter(&stack_key(&mut key, names::STORAGE_READS, tier), 1);
                r.inc_counter(&stack_key(&mut key, names::STORAGE_BYTES, tier), read.bytes);
                if read.seek {
                    r.inc_counter(names::STORAGE_SEEKS, 1);
                }
                r.record_latency(names::T0_STORAGE, read.span);
                r.set_gauge(
                    &stack_key(&mut key, names::STORAGE_QUEUE_DEPTH, tier),
                    start + read.span,
                    f64::from(read.queue_depth),
                );
            }
            TraceEvent::BatchPreprocessed { pid, dur, .. } => {
                r.inc_counter(names::BATCHES_PRODUCED, 1);
                let mut key = [0; KEY_BYTES];
                r.inc_counter(
                    &stack_key(&mut key, names::WORKER_BUSY, pid),
                    dur.as_nanos(),
                );
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
                let waited = r.inc_counter(names::MAIN_WAIT_NS, dur.as_nanos());
                if out_of_order {
                    r.inc_counter(names::OOO_CACHE_HITS, 1);
                }
                let now = start + dur;
                // A zero-duration wait completing at t=0 would divide by
                // zero; always publish a finite fraction in [0, 1] so the
                // dashboard never renders NaN.
                let fraction = if now > Time::ZERO {
                    (waited as f64 / now.as_nanos() as f64).clamp(0.0, 1.0)
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
                let consumed = r.inc_counter(names::BATCHES_CONSUMED, 1);
                r.inc_counter(names::SAMPLES_CONSUMED, batch_len as u64);
                r.set_gauge(names::BATCHES_CONSUMED_SERIES, start + dur, consumed as f64);
            }
            TraceEvent::FaultInjected { .. } => {
                r.inc_counter(names::FAULTS_INJECTED, 1);
            }
            TraceEvent::WorkerDied { at, .. } => {
                r.inc_counter(names::WORKER_DEATHS, 1);
                // The gauge was seeded with the crew size; each death
                // steps it down from its last level.
                let live = r.gauge_last(names::LIVE_WORKERS);
                let left = (live.unwrap_or(0.0) - 1.0).max(0.0);
                r.set_gauge(names::LIVE_WORKERS, at, left);
            }
            TraceEvent::BatchRedispatched { .. } => {
                r.inc_counter(names::REDISPATCHES, 1);
            }
            TraceEvent::BatchStolen { .. } => {
                r.inc_counter(names::STEALS, 1);
            }
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
            TraceEvent::Dispatched { .. } => return Span::ZERO, // (returned above)
        }
        self.per_event_overhead
    }
}

/// Room for a per-worker or per-tier metric name: the longest prefix,
/// `storage_queue_depth.`, and a tier name or a pid's 10 digits.
const KEY_BYTES: usize = 64;

/// The metric name `{prefix}{part}`, written into `buf` without
/// allocating; a name too long for `buf` is allocated instead.
fn stack_key<'b>(
    buf: &'b mut [u8; KEY_BYTES],
    prefix: &str,
    part: impl std::fmt::Display,
) -> Cow<'b, str> {
    let written = {
        let mut rest = &mut buf[..];
        write!(rest, "{prefix}{part}")
            .is_ok()
            .then(|| KEY_BYTES - rest.len())
    };
    let buf: &'b [u8; KEY_BYTES] = buf;
    match written.map(|len| std::str::from_utf8(&buf[..len])) {
        Some(Ok(key)) => Cow::Borrowed(key),
        _ => Cow::Owned(format!("{prefix}{part}")),
    }
}

/// Fan-out sink: delivers every [`TraceEvent`] to each registered sink in
/// registration order, charging the traced program the *sum* of their
/// charges, and keeps each member's running total for
/// [`MultiSink::overheads`].
///
/// An empty `MultiSink` is the no-sink configuration and charges exactly
/// zero everywhere — identical to [`lotus_dataflow::NullTracer`].
#[derive(Default)]
pub struct MultiSink {
    /// Each member with the nanoseconds it has charged so far.
    sinks: Vec<(Arc<dyn TraceSink>, AtomicU64)>,
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
        self.sinks.push((sink, AtomicU64::new(0)));
        self
    }

    /// What each sink has charged so far, by name, in delivery order.
    #[must_use]
    pub fn overheads(&self) -> Vec<(String, Span)> {
        self.sinks
            .iter()
            .map(|(sink, charged)| {
                let charged = Span::from_nanos(charged.load(Ordering::Relaxed));
                (sink.name().to_string(), charged)
            })
            .collect()
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field(
                "sinks",
                &self.sinks.iter().map(|(s, _)| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl TraceSink for MultiSink {
    fn name(&self) -> &str {
        "multi"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        let mut total = Span::ZERO;
        for (sink, charged) in &self.sinks {
            let charge = sink.on_event(event);
            // Zero-overhead sinks (the measurement harness) skip the
            // shared counter entirely.
            if !charge.is_zero() {
                charged.fetch_add(charge.as_nanos(), Ordering::Relaxed);
                total += charge;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::RecordingObserver;
    use crate::trace::{LotusTrace, LotusTraceConfig, SpanKind, TraceRecord};
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
        let per_record = LotusTraceConfig::default().per_log_overhead;
        for (hook, call, keeps_record) in hooks() {
            // A bare LotusTrace and one inside a MultiSink keep the same
            // records and charge the same: one per-record charge for each
            // record kept, which the fan-out totals under the sink's name.
            let bare = LotusTrace::new();
            let inner = Arc::new(LotusTrace::new());
            let multi = MultiSink::new().with(Arc::clone(&inner) as Arc<dyn TraceSink>);
            let charged = call(&bare);
            assert_eq!(call(&multi), charged, "{hook}");
            assert_eq!(inner.records(), bare.records(), "{hook}");
            assert_eq!(
                multi.overheads(),
                [("lotus-trace".to_string(), charged)],
                "{hook}"
            );
            assert_eq!(bare.len(), usize::from(keeps_record), "{hook}");
            let expected = if keeps_record { per_record } else { Span::ZERO };
            assert_eq!(charged, expected, "{hook}");

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
        let trace = Arc::new(LotusTrace::new());
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), 2));
        let multi = MultiSink::new()
            .with(Arc::clone(&trace) as Arc<dyn TraceSink>)
            .with(metrics as Arc<dyn TraceSink>);
        for (hook, call, _) in hooks().into_iter().filter(|(_, _, keeps)| !keeps) {
            assert_eq!(call(&multi), Span::ZERO, "{hook}");
        }
        assert!(multi.overheads().iter().all(|(_, oh)| oh.is_zero()));
        assert!(trace.is_empty());
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
        // is free).
        assert_eq!(charged, MetricsSink::DEFAULT_PER_EVENT_OVERHEAD * 4);
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

        // The gauge never drops below zero.
        for at in [80, 90] {
            let _ = sink.on_event(&TraceEvent::WorkerDied {
                pid: 4243,
                at: Time::from_nanos(at),
            });
        }
        assert_eq!(registry.counter(names::WORKER_DEATHS), 3);
        assert_eq!(
            registry.gauge(names::LIVE_WORKERS).unwrap().samples(),
            &[
                (Time::ZERO, 2.0),
                (Time::from_nanos(50), 1.0),
                (Time::from_nanos(80), 0.0)
            ]
        );
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
        let _ = multi.on_gauge("queue_depth.data_queue", 1.0, Time::ZERO);
        let _ = multi.on_batch_preprocessed(4243, 1, Time::ZERO, Span::from_millis(1));
        let per_record = LotusTraceConfig::default().per_log_overhead;
        let per_event = MetricsSink::DEFAULT_PER_EVENT_OVERHEAD;
        assert_eq!(oh, per_record + per_event, "fan-out charges the sum");
        assert_eq!(trace.len(), 2);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 2);
        // Each member's total is what it charged, event by event.
        assert_eq!(
            multi.overheads(),
            [
                ("lotus-trace".to_string(), per_record * 2),
                ("metrics".to_string(), per_event * 2),
            ]
        );

        // A nested fan-out is one member of its parent.
        let outer = MultiSink::new().with(Arc::new(multi) as Arc<dyn TraceSink>);
        let _ = outer.on_batch_preprocessed(4243, 2, Time::ZERO, Span::from_millis(1));
        assert_eq!(
            outer.overheads(),
            [("multi".to_string(), per_record + per_event)]
        );
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
    fn two_threads_share_the_harness_sinks_exactly() {
        // Two workers emit a known stream into one harness stack at once:
        // per batch, six ops, a fetch, two gauge samples, a dispatch, a
        // wait and a consume (the wait and consume on the worker's own
        // thread, so each thread's batches are self-contained).
        const BATCHES: u64 = 500;
        const OPS: [&str; 6] = [
            "Loader",
            "RandomResizedCrop",
            "RandomHorizontalFlip",
            "ToTensor",
            "Normalize",
            "C(4)",
        ];
        let trace = Arc::new(LotusTrace::new());
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), 2));
        let multi = MultiSink::new()
            .with(Arc::clone(&trace) as Arc<dyn TraceSink>)
            .with(metrics as Arc<dyn TraceSink>);
        let pids = [4243u32, 4244];
        std::thread::scope(|scope| {
            for (w, pid) in pids.into_iter().enumerate() {
                let multi = &multi;
                scope.spawn(move || {
                    let queue = format!("queue_depth.index_queue_{w}");
                    for b in 0..BATCHES {
                        let id = 2 * b + w as u64;
                        let at = Time::from_nanos(1_000_000 * id);
                        let _ = multi.on_batch_dispatched(id, pid, &[id], false, at);
                        let _ = multi.on_gauge(&queue, 1.0, at);
                        for (k, op) in OPS.into_iter().enumerate() {
                            let dur = Span::from_nanos(1_000 + 10 * b + k as u64);
                            let _ = multi.on_op(pid, id, op, at, dur);
                        }
                        let _ = multi.on_batch_preprocessed(
                            pid,
                            id,
                            at,
                            Span::from_micros(u64::from(pid)),
                        );
                        let _ = multi.on_gauge(&queue, 0.0, at);
                        let wait = Span::from_nanos(id + 1);
                        let _ = multi.on_batch_wait(4242, id, at, wait, b % 3 == 0, Span::ZERO);
                        let _ = multi.on_batch_consumed(4242, id, at, Span::from_micros(2), 4);
                    }
                });
            }
        });

        let records = trace.records();
        assert_eq!(
            records.len() as u64,
            2 * BATCHES * 9,
            "six ops, fetch, wait, consume"
        );
        assert_eq!(
            trace.log_storage_bytes(),
            trace.to_log_string().len() as u64
        );
        let written: u64 = records.iter().map(TraceRecord::log_bytes).sum();
        assert_eq!(trace.log_storage_bytes(), written);
        for pid in pids {
            // Each thread's records keep its emission order.
            let ops: Vec<String> = records
                .iter()
                .filter(|r| r.pid == pid)
                .filter_map(|r| match &r.kind {
                    SpanKind::Op(name) => Some(name.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(ops.len() as u64, 6 * BATCHES);
            assert!(ops.chunks(6).all(|batch| batch == OPS));
            assert_eq!(
                registry.counter(&names::worker_busy(pid)),
                BATCHES * Span::from_micros(u64::from(pid)).as_nanos()
            );
        }

        assert_eq!(registry.counter(names::OPS), 2 * BATCHES * 6);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 2 * BATCHES);
        assert_eq!(registry.counter(names::BATCHES_CONSUMED), 2 * BATCHES);
        assert_eq!(registry.counter(names::SAMPLES_CONSUMED), 2 * BATCHES * 4);
        assert_eq!(
            registry.counter(names::OOO_CACHE_HITS),
            2 * BATCHES.div_ceil(3)
        );
        let waited: u64 = (0..2 * BATCHES).map(|id| id + 1).sum();
        assert_eq!(registry.counter(names::MAIN_WAIT_NS), waited);
        let histograms = registry.snapshot().histograms;
        assert_eq!(histograms[names::T3_OP].count, 2 * BATCHES * 6);
        assert_eq!(histograms[names::T1_FETCH].count, 2 * BATCHES);
        assert_eq!(histograms[names::T2_WAIT].count, 2 * BATCHES);
        assert_eq!(histograms[names::QUEUE_DELAY].count, 2 * BATCHES);
        let consumed = registry.gauge(names::BATCHES_CONSUMED_SERIES).unwrap();
        assert_eq!(consumed.max(), (2 * BATCHES) as f64);
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
