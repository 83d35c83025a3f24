//! The LotusTrace tracer: low-overhead instrumented tracing of the
//! DataLoader data flow.

use std::sync::{Mutex, MutexGuard, PoisonError};

use lotus_dataflow::{TraceEvent, TraceSink};
use lotus_sim::Span;

use super::analysis::{OpClassTotals, OpStats};
use super::hist::LogHistogram;
use super::record::{Line, Tag, TraceRecord};

/// How per-operation (\[T3\]) events are collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpLogMode {
    /// Retain every per-operation record (exact distributions; memory
    /// grows with dataset size).
    Full,
    /// Stream per-operation durations into per-op histograms (constant
    /// memory; the mode for full-ImageNet-scale runs). Log storage is
    /// still accounted as if every record were written to the file.
    Aggregate,
    /// Skip per-operation events entirely (batch-level tracing only).
    Off,
}

/// LotusTrace configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LotusTraceConfig {
    /// Virtual-time cost charged per emitted log record (two clock reads,
    /// a string format and a buffered write). The paper measures ~2 %
    /// wall-time overhead end-to-end; the default here reproduces that.
    pub per_log_overhead: Span,
    /// Per-operation collection mode.
    pub op_mode: OpLogMode,
}

impl Default for LotusTraceConfig {
    fn default() -> Self {
        LotusTraceConfig {
            per_log_overhead: Span::from_nanos(1_500),
            op_mode: OpLogMode::Full,
        }
    }
}

/// The LotusTrace instrumentation: records every data-flow event into an
/// in-memory log with byte-accurate storage accounting, charging only a
/// fixed per-record cost to the traced program.
///
/// A [`TraceSink`], hence a [`lotus_dataflow::Tracer`]; attach it to a
/// [`lotus_dataflow::TrainingJob`] and read the records back for analysis
/// ([`crate::trace::analysis`]) or visualization
/// ([`crate::trace::chrome`]).
///
/// Logging an event allocates nothing once its name has been seen: the
/// log keeps each record as a `Copy` line naming its op, tier, lane or
/// fault op by an interned id. [`TraceRecord`]s are built, and a record's
/// log bytes counted from its digits without formatting it, when read.
#[derive(Debug, Default)]
pub struct LotusTrace {
    config: LotusTraceConfig,
    log: Mutex<Log>,
}

/// Everything the tracer has logged, under one lock.
#[derive(Debug, Default)]
struct Log {
    /// Retained records, in emission order, each naming its op, tier,
    /// lane or fault op by its index in `names` (0 for nameless kinds).
    records: Vec<Line<usize>>,
    /// Every name a record or histogram carries, once, in first-seen
    /// order.
    names: Vec<Box<str>>,
    /// [`OpLogMode::Aggregate`] histograms, in first-seen order: one per
    /// op name, and one per tier for storage reads (`T0(tier)`).
    op_histograms: Vec<(Tag, usize, LogHistogram)>,
    /// Log bytes of the records folded into `op_histograms`; a retained
    /// record's bytes are counted from its fields when read.
    folded_bytes: u64,
}

impl Log {
    /// The id of `name`, added to the table the first time it is seen. A
    /// run logs a handful of distinct names, so a scan is cheapest.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(id) = self.names.iter().position(|n| **n == *name) {
            return id;
        }
        self.names.push(name.into());
        self.names.len() - 1
    }

    /// The name with id `id` (empty before any name is interned; a
    /// nameless kind's record ignores whatever its id 0 resolves to).
    fn name(&self, id: usize) -> &str {
        self.names.get(id).map_or("", |name| name)
    }

    /// A stored record with its name resolved.
    fn line(&self, record: &Line<usize>) -> Line<&str> {
        record.with_name(self.name(record.name))
    }

    /// Folds one op or storage-read duration into its histogram.
    fn fold(&mut self, tag: Tag, name: usize, dur: Span) {
        let hist = self
            .op_histograms
            .iter_mut()
            .find(|(t, n, _)| (*t, *n) == (tag, name));
        if let Some((_, _, hist)) = hist {
            hist.record(dur);
        } else {
            let mut hist = LogHistogram::new();
            hist.record(dur);
            self.op_histograms.push((tag, name, hist));
        }
    }
}

impl LotusTrace {
    /// Creates a tracer with the default configuration.
    #[must_use]
    pub fn new() -> LotusTrace {
        LotusTrace::with_config(LotusTraceConfig::default())
    }

    /// Creates a tracer with an explicit configuration.
    #[must_use]
    pub fn with_config(config: LotusTraceConfig) -> LotusTrace {
        LotusTrace {
            config,
            log: Mutex::default(),
        }
    }

    /// The log. Every update under the lock is one append, or one fold
    /// plus its byte count, so a panic elsewhere cannot leave it
    /// half-written.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of all records collected so far.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let log = self.log();
        log.records
            .iter()
            .map(|r| log.line(r).to_record())
            .collect()
    }

    /// Number of records collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log().records.len()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-operation statistics, regardless of collection mode: exact in
    /// [`OpLogMode::Full`], histogram-backed in [`OpLogMode::Aggregate`].
    #[must_use]
    pub fn op_stats(&self) -> Vec<OpStats> {
        match self.config.op_mode {
            OpLogMode::Off => Vec::new(),
            OpLogMode::Full => super::analysis::per_op_stats(&self.records()),
            OpLogMode::Aggregate => {
                let log = self.log();
                log.op_histograms
                    .iter()
                    .map(|&(tag, name, ref h)| OpStats {
                        name: match tag {
                            Tag::StorageRead => format!("T0({})", log.name(name)),
                            _ => log.name(name).to_string(),
                        },
                        count: h.count(),
                        summary: h.summary_ms(),
                        frac_below_10ms: h.fraction_below(Span::from_millis(10)),
                        frac_below_100us: h.fraction_below(Span::from_micros(100)),
                        total_cpu: h.total(),
                    })
                    .collect()
            }
        }
    }

    /// Per-item time by pipeline stage over the retained records, as
    /// [`op_class_totals`](super::analysis::op_class_totals) folds them,
    /// without copying a record.
    #[must_use]
    pub fn op_class_totals(&self) -> OpClassTotals {
        let log = self.log();
        let mut totals = OpClassTotals::default();
        for r in &log.records {
            totals.add(r.tag, log.name(r.name), r.duration);
        }
        totals.disjoint()
    }

    /// Total log storage consumed, in bytes (Table III's storage column).
    #[must_use]
    pub fn log_storage_bytes(&self) -> u64 {
        let log = self.log();
        let written: u64 = log.records.iter().map(|r| log.line(r).bytes()).sum();
        written + log.folded_bytes
    }

    /// Serializes the whole log in the line format.
    #[must_use]
    pub fn to_log_string(&self) -> String {
        let log = self.log();
        let mut out = String::new();
        for r in &log.records {
            log.line(r).write_to(&mut out);
        }
        out
    }
}

/// The log backend: every span/instant event becomes one log record, and
/// dispatches and gauge samples are ignored (the paper's log format has
/// no rows for them). Each record, written or folded, is charged
/// [`LotusTraceConfig::per_log_overhead`].
impl TraceSink for LotusTrace {
    fn name(&self) -> &str {
        "lotus-trace"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        // Storage reads are per-item events like ops, so both follow the
        // op collection mode, which applies before any record is built:
        // dropped when off, folded into a per-op (per-tier `T0(tier)`)
        // histogram when aggregating.
        let mode = match event {
            TraceEvent::Op { .. } | TraceEvent::StorageRead { .. } => self.config.op_mode,
            _ => OpLogMode::Full,
        };
        if mode == OpLogMode::Off {
            return Span::ZERO;
        }
        let Some(line) = Line::from_event(event) else {
            return Span::ZERO;
        };
        let mut log = self.log();
        let name = if line.tag.has_name() {
            log.intern(line.name)
        } else {
            0
        };
        if mode == OpLogMode::Aggregate {
            // A folded record is accounted as if it were written to the
            // file.
            log.folded_bytes += line.bytes();
            log.fold(line.tag, name, line.duration);
        } else {
            log.records.push(line.with_name(name));
        }
        self.config.per_log_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::analysis::op_class_totals;
    use crate::trace::SpanKind;
    use lotus_dataflow::Tracer;
    use lotus_sim::{ReadOutcome, Time};

    #[test]
    fn records_accumulate_with_byte_accounting() {
        let trace = LotusTrace::new();
        let oh = trace.on_op(1, 0, "Loader", Time::ZERO, Span::from_micros(5));
        assert_eq!(oh, LotusTraceConfig::default().per_log_overhead);
        let _ = trace.on_batch_wait(2, 0, Time::ZERO, Span::from_micros(1), true, Span::ZERO);
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.log_storage_bytes(),
            trace.to_log_string().len() as u64
        );
        assert!(!trace.is_empty());
    }

    #[test]
    fn op_mode_off_skips_op_records() {
        let trace = LotusTrace::with_config(LotusTraceConfig {
            per_log_overhead: Span::from_nanos(100),
            op_mode: OpLogMode::Off,
        });
        assert_eq!(
            trace.on_op(1, 0, "Loader", Time::ZERO, Span::ZERO),
            Span::ZERO
        );
        let _ = trace.on_batch_preprocessed(1, 0, Time::ZERO, Span::from_millis(1));
        assert_eq!(trace.len(), 1);
        assert!(trace.op_stats().is_empty());
    }

    #[test]
    fn aggregate_mode_matches_full_mode_statistics() {
        let full = LotusTrace::new();
        let agg = LotusTrace::with_config(LotusTraceConfig {
            per_log_overhead: Span::from_nanos(1_500),
            op_mode: OpLogMode::Aggregate,
        });
        for i in 1..=200u64 {
            for t in [&full, &agg] {
                let _ = t.on_op(1, i / 8, "Loader", Time::ZERO, Span::from_micros(i * 50));
                let _ = t.on_op(1, i / 8, "Normalize", Time::ZERO, Span::from_micros(i));
            }
        }
        let f = full.op_stats();
        let a = agg.op_stats();
        assert_eq!(f.len(), 2);
        assert_eq!(a.len(), 2);
        for (fs, as_) in f.iter().zip(&a) {
            assert_eq!(fs.name, as_.name);
            assert_eq!(fs.count, as_.count);
            assert!((fs.summary.mean - as_.summary.mean).abs() / fs.summary.mean < 1e-9);
            assert!(
                (fs.summary.p90 - as_.summary.p90).abs() / fs.summary.p90 < 0.06,
                "p90 {} vs {}",
                fs.summary.p90,
                as_.summary.p90
            );
            assert!((fs.frac_below_10ms - as_.frac_below_10ms).abs() < 0.05);
        }
        // Storage accounting matches exactly: same records "written".
        assert_eq!(full.log_storage_bytes(), agg.log_storage_bytes());
    }

    #[test]
    fn storage_reads_follow_the_op_collection_mode() {
        let read = ReadOutcome {
            tier: lotus_sim::StorageTier::ObjectStore,
            span: Span::from_millis(5),
            bytes: 110_000,
            seek: false,
            queue_depth: 1,
        };
        let full = LotusTrace::new();
        let _ = full.on_storage_read(4243, 2, Time::from_nanos(10), &read);
        assert_eq!(full.len(), 1);
        assert_eq!(
            full.records()[0].kind,
            SpanKind::StorageRead("object-store".into())
        );
        assert_eq!(full.records()[0].duration, Span::from_millis(5));

        let agg = LotusTrace::with_config(LotusTraceConfig {
            op_mode: OpLogMode::Aggregate,
            ..LotusTraceConfig::default()
        });
        let _ = agg.on_storage_read(4243, 2, Time::from_nanos(10), &read);
        let stats = agg.op_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "T0(object-store)");
        assert_eq!(stats[0].count, 1);
        // Same bytes accounted as the full-mode record.
        assert_eq!(agg.log_storage_bytes(), full.log_storage_bytes());

        let off = LotusTrace::with_config(LotusTraceConfig {
            op_mode: OpLogMode::Off,
            ..LotusTraceConfig::default()
        });
        assert_eq!(off.on_storage_read(4243, 2, Time::ZERO, &read), Span::ZERO);
        assert!(off.is_empty());
    }

    #[test]
    fn op_class_totals_fold_the_stored_records() {
        let trace = LotusTrace::new();
        let read = ReadOutcome {
            tier: lotus_sim::StorageTier::LocalDisk,
            span: Span::from_micros(5),
            bytes: 4_096,
            seek: false,
            queue_depth: 1,
        };
        let _ = trace.on_storage_read(4243, 0, Time::ZERO, &read);
        for (name, us) in [
            ("Loader", 50),
            ("RandomResizedCrop", 20),
            ("C(8)", 9),
            ("Normalize", 4),
            ("Loader", 30),
        ] {
            let _ = trace.on_op(4243, 0, name, Time::ZERO, Span::from_micros(us));
        }
        let _ = trace.on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_millis(1));
        let totals = trace.op_class_totals();
        assert_eq!(totals, op_class_totals(&trace.records()));
        assert_eq!(totals.storage, Span::from_micros(5));
        assert_eq!(
            totals.load,
            Span::from_micros(75),
            "storage nests in Loader"
        );
        assert_eq!(totals.transform, Span::from_micros(24));
        assert_eq!(totals.collate, Span::from_micros(9));
    }

    #[test]
    fn out_of_order_flag_is_preserved() {
        let trace = LotusTrace::new();
        let _ = trace.on_batch_wait(
            1,
            3,
            Time::ZERO,
            Span::from_micros(1),
            true,
            Span::from_nanos(9),
        );
        assert!(trace.records()[0].out_of_order);
        assert_eq!(trace.records()[0].queue_delay, Span::from_nanos(9));
    }

    #[test]
    fn scheduling_hooks_record_instant_marks() {
        let trace = LotusTrace::new();
        let _ = trace.on_batch_stolen(7, 4243, 4244, Time::from_nanos(10));
        let _ = trace.on_lane_assigned(7, "slow", 4244, Time::from_nanos(10));
        let _ = trace.on_prefetch_resized(3, Time::from_nanos(20));
        let records = trace.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, SpanKind::BatchStolen);
        assert_eq!(records[0].pid, 4244, "steal records the receiving worker");
        assert_eq!(records[1].kind, SpanKind::LaneAssigned("slow".into()));
        assert_eq!(records[2].kind, SpanKind::PrefetchResized);
        assert_eq!(records[2].batch_id, 3, "target rides the batch-id slot");
        assert!(records
            .iter()
            .all(|r| r.duration.is_zero() && r.kind.is_instant()));
    }

    #[test]
    fn fault_hooks_record_instant_marks() {
        let trace = LotusTrace::new();
        let _ = trace.on_fault_injected(4243, 5, "ToTensor", Time::from_nanos(10));
        let _ = trace.on_worker_died(4244, Time::from_nanos(20));
        let _ = trace.on_batch_redispatched(5, 4244, 4245, Time::from_nanos(30));
        let records = trace.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, SpanKind::FaultInjected("ToTensor".into()));
        assert_eq!(records[0].batch_id, 5);
        assert_eq!(records[1].kind, SpanKind::WorkerDied);
        assert_eq!(records[1].pid, 4244);
        assert_eq!(records[2].kind, SpanKind::BatchRedispatched);
        assert_eq!(
            records[2].pid, 4245,
            "redispatch records the receiving worker"
        );
        assert!(records
            .iter()
            .all(|r| r.duration.is_zero() && r.kind.is_instant()));
    }
}
