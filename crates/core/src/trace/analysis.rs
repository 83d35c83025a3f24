//! Analysis over LotusTrace records: the computations behind the paper's
//! Table II, Figures 4–5 and Figure 6(b).

use std::collections::BTreeMap;

use lotus_data::stats::{fraction_below, Summary};
use lotus_sim::{Span, Time};

use super::record::{SpanKind, Tag, TraceRecord};

/// Per-operation elapsed-time statistics (one row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operation name as logged.
    pub name: String,
    /// Number of executions.
    pub count: u64,
    /// Elapsed-time distribution, in milliseconds.
    pub summary: Summary,
    /// Fraction of executions under 10 ms.
    pub frac_below_10ms: f64,
    /// Fraction of executions under 100 µs.
    pub frac_below_100us: f64,
    /// Total CPU time across all executions.
    pub total_cpu: Span,
}

/// Computes per-operation statistics, in order of first appearance in the
/// log (which is pipeline order).
#[must_use]
pub fn per_op_stats(records: &[TraceRecord]) -> Vec<OpStats> {
    let mut order: Vec<String> = Vec::new();
    let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in records {
        if let SpanKind::Op(name) = &r.kind {
            if !durations.contains_key(name) {
                order.push(name.clone());
            }
            durations
                .entry(name.clone())
                .or_default()
                .push(r.duration.as_millis_f64());
        }
    }
    order
        .into_iter()
        .map(|name| {
            let ms = &durations[&name];
            OpStats {
                count: ms.len() as u64,
                summary: Summary::of(ms),
                frac_below_10ms: fraction_below(ms, 10.0),
                frac_below_100us: fraction_below(ms, 0.1),
                total_cpu: Span::from_secs_f64(ms.iter().sum::<f64>() / 1e3),
                name,
            }
        })
        .collect()
}

/// Everything LotusTrace knows about one batch's journey.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchTimeline {
    /// Batch id.
    pub batch_id: u64,
    /// Worker pid that preprocessed the batch.
    pub worker_pid: Option<u32>,
    /// Fetch span on the worker (\[T1\]): (start, duration).
    pub preprocessed: Option<(Time, Span)>,
    /// Main-process wait (\[T2\]): (start, duration, out_of_order).
    pub wait: Option<(Time, Span, bool)>,
    /// Consumption span on the main process: (start, duration).
    pub consumed: Option<(Time, Span)>,
}

impl BatchTimeline {
    /// Delay time: how long the batch sat preprocessed before the main
    /// process consumed it (the arrow length in Figure 2 / Figure 3).
    #[must_use]
    pub fn delay(&self) -> Option<Span> {
        let (p_start, p_dur) = self.preprocessed?;
        let (c_start, _) = self.consumed?;
        Some(c_start.saturating_since(p_start + p_dur))
    }

    /// Wait time: how long the main process was blocked for this batch.
    #[must_use]
    pub fn wait_span(&self) -> Option<Span> {
        self.wait.map(|(_, d, _)| d)
    }
}

/// Reassembles per-batch timelines from the record stream, ordered by
/// batch id.
#[must_use]
pub fn batch_timelines(records: &[TraceRecord]) -> Vec<BatchTimeline> {
    let mut map: BTreeMap<u64, BatchTimeline> = BTreeMap::new();
    for r in records {
        if matches!(r.kind, SpanKind::Op(_) | SpanKind::StorageRead(_)) || r.kind.is_instant() {
            continue; // per-item ops, storage reads and fault marks are
                      // not batch spans
        }
        let entry = map.entry(r.batch_id).or_insert_with(|| BatchTimeline {
            batch_id: r.batch_id,
            ..BatchTimeline::default()
        });
        match &r.kind {
            SpanKind::BatchPreprocessed => {
                entry.worker_pid = Some(r.pid);
                entry.preprocessed = Some((r.start, r.duration));
            }
            SpanKind::BatchWait => entry.wait = Some((r.start, r.duration, r.out_of_order)),
            SpanKind::BatchConsumed => entry.consumed = Some((r.start, r.duration)),
            _ => unreachable!("filtered above"),
        }
    }
    map.into_values().collect()
}

/// Aggregate view of the fault events in a log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Injected per-sample errors, as `(batch_id, op)` pairs.
    pub injected: Vec<(u64, String)>,
    /// Pids of workers observed to have died.
    pub dead_workers: Vec<u32>,
    /// Batch ids that were redispatched to a surviving worker.
    pub redispatched: Vec<u64>,
}

impl FaultSummary {
    /// True if the log contains no fault events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.injected.is_empty() && self.dead_workers.is_empty() && self.redispatched.is_empty()
    }
}

/// Collects the fault-injection marks (`FaultInjected`, `WorkerDied`,
/// `BatchRedispatched`) out of a record stream, in log order.
#[must_use]
pub fn fault_summary(records: &[TraceRecord]) -> FaultSummary {
    let mut summary = FaultSummary::default();
    for r in records {
        match &r.kind {
            SpanKind::FaultInjected(op) => summary.injected.push((r.batch_id, op.clone())),
            SpanKind::WorkerDied => summary.dead_workers.push(r.pid),
            SpanKind::BatchRedispatched => summary.redispatched.push(r.batch_id),
            _ => {}
        }
    }
    summary
}

/// Forensic context for one worker death, joined from the metrics
/// gauge time-series at the death instant.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerDeathContext {
    /// The dead worker's pid.
    pub pid: u32,
    /// When the main process observed the death.
    pub at: Time,
    /// Shared data-queue depth in effect at the death (step-function
    /// lookup; `None` when no depth gauge was recorded by then).
    pub data_queue_depth: Option<f64>,
    /// Dispatched-but-unreturned batches at the death — the orphan
    /// inventory the redispatcher has to drain.
    pub in_flight: Option<f64>,
    /// Live workers *after* this death was accounted.
    pub live_workers_after: Option<f64>,
}

/// Forensic context for one batch redispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct RedispatchContext {
    /// The redispatched batch.
    pub batch_id: u64,
    /// The surviving worker that received it.
    pub to_pid: u32,
    /// When the redispatch happened.
    pub at: Time,
    /// Latency from the most recent worker death at or before `at` —
    /// how long the orphan sat before being re-sent. `None` when the log
    /// has no preceding death (a malformed or truncated trace).
    pub latency_after_death: Option<Span>,
}

/// [`FaultSummary`] enriched with metrics-derived context: what the
/// pipeline looked like *at* each fault, not just that it happened.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultForensics {
    /// Per-death context, in log order.
    pub deaths: Vec<WorkerDeathContext>,
    /// Per-redispatch context, in log order.
    pub redispatches: Vec<RedispatchContext>,
}

/// Joins the fault marks in a record stream with a metrics snapshot:
/// each worker death is annotated with the queue depth / in-flight
/// inventory in effect at that instant (step-function lookup into the
/// gauge series), and each redispatch with its latency since the most
/// recent preceding death.
#[must_use]
pub fn fault_forensics(
    records: &[TraceRecord],
    metrics: &crate::metrics::MetricsSnapshot,
) -> FaultForensics {
    use crate::metrics::names;

    let gauge_at = |name: &str, at: Time| -> Option<f64> {
        metrics.gauges.get(name).and_then(|g| g.value_at(at))
    };
    let mut out = FaultForensics::default();
    let mut last_death: Option<Time> = None;
    for r in records {
        match &r.kind {
            SpanKind::WorkerDied => {
                last_death = Some(r.start);
                out.deaths.push(WorkerDeathContext {
                    pid: r.pid,
                    at: r.start,
                    data_queue_depth: gauge_at(names::DATA_QUEUE_DEPTH, r.start),
                    in_flight: gauge_at(names::IN_FLIGHT, r.start),
                    live_workers_after: gauge_at(names::LIVE_WORKERS, r.start),
                });
            }
            SpanKind::BatchRedispatched => out.redispatches.push(RedispatchContext {
                batch_id: r.batch_id,
                to_pid: r.pid,
                at: r.start,
                latency_after_death: last_death.map(|d| r.start.saturating_since(d)),
            }),
            _ => {}
        }
    }
    out
}

/// Distribution of per-batch preprocessing times, in milliseconds
/// (Figure 4's box-plot data).
///
/// # Panics
///
/// Panics if the log contains no batch-preprocessed records.
#[must_use]
pub fn preprocess_time_summary(records: &[TraceRecord]) -> Summary {
    let ms: Vec<f64> = batch_timelines(records)
        .iter()
        .filter_map(|b| b.preprocessed.map(|(_, d)| d.as_millis_f64()))
        .collect();
    Summary::of(&ms)
}

/// Fraction of batches whose main-process wait exceeded `threshold`
/// (Figure 5(a)). Out-of-order cache hits count as zero-wait batches.
#[must_use]
pub fn fraction_wait_above(records: &[TraceRecord], threshold: Span) -> f64 {
    let timelines = batch_timelines(records);
    let waits: Vec<&BatchTimeline> = timelines.iter().filter(|b| b.wait.is_some()).collect();
    if waits.is_empty() {
        return 0.0;
    }
    waits
        .iter()
        .filter(|b| b.wait_span().unwrap_or(Span::ZERO) > threshold)
        .count() as f64
        / waits.len() as f64
}

/// Fraction of batches whose delay time exceeded `threshold`
/// (Figure 5(b)).
#[must_use]
pub fn fraction_delay_above(records: &[TraceRecord], threshold: Span) -> f64 {
    let timelines = batch_timelines(records);
    let delays: Vec<Span> = timelines.iter().filter_map(BatchTimeline::delay).collect();
    if delays.is_empty() {
        return 0.0;
    }
    delays.iter().filter(|&&d| d > threshold).count() as f64 / delays.len() as f64
}

/// Total preprocessing CPU time summed over all batch fetches
/// (Figure 6's "total CPU seconds" trend).
#[must_use]
pub fn total_preprocess_cpu(records: &[TraceRecord]) -> Span {
    records
        .iter()
        .filter(|r| r.kind == SpanKind::BatchPreprocessed)
        .map(|r| r.duration)
        .sum()
}

/// The stages a per-item span can belong to, with their total elapsed
/// times: the \[T0\] storage fetch, the `Loader` source work net of
/// storage (decode + Python dispatch), the transform chain, and the final
/// `C(n)` collation. The `lotus tune` bottleneck attribution is built on
/// these shares.
///
/// # Examples
///
/// ```
/// use lotus_core::trace::analysis::OpClassTotals;
/// use lotus_sim::Span;
///
/// let totals = OpClassTotals {
///     storage: Span::ZERO,
///     load: Span::from_millis(10),
///     transform: Span::from_millis(70),
///     collate: Span::from_millis(20),
/// };
/// let (class, share) = totals.dominant().unwrap();
/// assert_eq!(class, "transform");
/// assert!((share - 0.7).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpClassTotals {
    /// Total elapsed time of storage reads (\[T0\]). Storage waits happen
    /// *inside* the `Loader` span, so this share has already been
    /// subtracted out of [`OpClassTotals::load`] — the four classes are
    /// disjoint and sum to the full per-item time.
    pub storage: Span,
    /// Total elapsed time of `Loader` ops net of storage reads (decode +
    /// dataset dispatch).
    pub load: Span,
    /// Total elapsed time of transform ops (everything that is neither
    /// the `Loader` nor a collate).
    pub transform: Span,
    /// Total elapsed time of `C(n)` collate ops.
    pub collate: Span,
}

impl OpClassTotals {
    /// Sum over all four classes.
    #[must_use]
    pub fn total(&self) -> Span {
        self.storage + self.load + self.transform + self.collate
    }

    /// The dominant class as
    /// `("storage" | "load" | "transform" | "collate", share)`, with
    /// `share` in `[0, 1]`. `None` when no op time was recorded.
    #[must_use]
    pub fn dominant(&self) -> Option<(&'static str, f64)> {
        let total = self.total().as_nanos();
        if total == 0 {
            return None;
        }
        let classes = [
            ("storage", self.storage),
            ("load", self.load),
            ("transform", self.transform),
            ("collate", self.collate),
        ];
        classes
            .iter()
            .max_by_key(|(_, s)| s.as_nanos())
            .map(|&(name, s)| (name, s.as_nanos() as f64 / total as f64))
    }

    /// The \[T0\] share of the total per-item time, in `[0, 1]` (zero for
    /// an empty log).
    #[must_use]
    pub fn storage_fraction(&self) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.storage.as_nanos() as f64 / total as f64
    }

    /// Adds one record's span to its class; kinds other than storage
    /// reads and ops add nothing.
    pub(crate) fn add(&mut self, tag: Tag, name: &str, duration: Span) {
        match tag {
            Tag::StorageRead => self.storage += duration,
            Tag::Op if name == "Loader" => self.load += duration,
            Tag::Op if name.starts_with("C(") && name.ends_with(')') => self.collate += duration,
            Tag::Op => self.transform += duration,
            _ => {}
        }
    }

    /// The totals with storage waits taken out of the `Loader` spans they
    /// happen in, so the classes are disjoint and their shares sum to 1.
    pub(crate) fn disjoint(mut self) -> OpClassTotals {
        self.load = self.load.saturating_sub(self.storage);
        self
    }
}

/// Buckets per-item elapsed time into the pipeline stages: `StorageRead`
/// spans are the \[T0\] fetch, `Loader` ops are the source work (their
/// storage wait subtracted, since reads nest inside the `Loader` span),
/// `C(n)` ops are collation, and everything else is the transform chain.
#[must_use]
pub fn op_class_totals(records: &[TraceRecord]) -> OpClassTotals {
    let mut totals = OpClassTotals::default();
    for r in records {
        totals.add(r.kind.tag(), r.kind.name(), r.duration);
    }
    totals.disjoint()
}

/// Total \[T0\] elapsed time per serving tier, keyed by the tier's stable
/// name (`page-cache` / `local-disk` / `object-store`).
///
/// # Examples
///
/// ```
/// use lotus_core::trace::analysis::storage_tier_totals;
/// use lotus_core::trace::{SpanKind, TraceRecord};
/// use lotus_sim::{Span, Time};
///
/// let read = |tier: &str, dur_us: u64| TraceRecord {
///     kind: SpanKind::StorageRead(tier.to_string()),
///     pid: 4243,
///     batch_id: 0,
///     start: Time::ZERO,
///     duration: Span::from_micros(dur_us),
///     out_of_order: false,
///     queue_delay: Span::ZERO,
/// };
/// let totals = storage_tier_totals(&[
///     read("object-store", 5_000),
///     read("page-cache", 2),
///     read("object-store", 4_000),
/// ]);
/// assert_eq!(totals["object-store"], Span::from_micros(9_000));
/// assert_eq!(totals["page-cache"], Span::from_micros(2));
/// ```
#[must_use]
pub fn storage_tier_totals(records: &[TraceRecord]) -> BTreeMap<String, Span> {
    let mut totals: BTreeMap<String, Span> = BTreeMap::new();
    for r in records {
        if let SpanKind::StorageRead(tier) = &r.kind {
            *totals.entry(tier.clone()).or_insert(Span::ZERO) += r.duration;
        }
    }
    totals
}

/// Total elapsed time per operation (Figure 6(b): per-op CPU time).
#[must_use]
pub fn per_op_cpu_totals(records: &[TraceRecord]) -> BTreeMap<String, Span> {
    let mut totals: BTreeMap<String, Span> = BTreeMap::new();
    for r in records {
        if let SpanKind::Op(name) = &r.kind {
            *totals.entry(name.clone()).or_insert(Span::ZERO) += r.duration;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: SpanKind, batch: u64, start_ns: u64, dur_ns: u64) -> TraceRecord {
        TraceRecord {
            kind,
            pid: 1,
            batch_id: batch,
            start: Time::from_nanos(start_ns),
            duration: Span::from_nanos(dur_ns),
            out_of_order: false,
            queue_delay: Span::ZERO,
        }
    }

    fn sample_log() -> Vec<TraceRecord> {
        vec![
            rec(SpanKind::Op("Loader".into()), 0, 0, 5_000_000),
            rec(SpanKind::Op("Loader".into()), 0, 5_000_000, 15_000_000),
            rec(SpanKind::Op("RRC".into()), 0, 20_000_000, 50_000),
            rec(SpanKind::BatchPreprocessed, 0, 0, 30_000_000),
            rec(SpanKind::BatchWait, 0, 0, 31_000_000),
            rec(SpanKind::BatchConsumed, 0, 40_000_000, 2_000_000),
            rec(SpanKind::BatchPreprocessed, 1, 30_000_000, 10_000_000),
            rec(SpanKind::BatchWait, 1, 42_000_000, 1_000),
            rec(SpanKind::BatchConsumed, 1, 43_000_000, 2_000_000),
        ]
    }

    #[test]
    fn op_stats_compute_fractions_and_order() {
        let stats = per_op_stats(&sample_log());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "Loader");
        assert_eq!(stats[0].count, 2);
        assert!((stats[0].summary.mean - 10.0).abs() < 1e-9);
        assert_eq!(stats[0].frac_below_10ms, 0.5);
        assert_eq!(stats[0].frac_below_100us, 0.0);
        assert_eq!(stats[1].name, "RRC");
        assert_eq!(stats[1].frac_below_100us, 1.0);
    }

    #[test]
    fn timelines_reassemble_and_compute_delay() {
        let timelines = batch_timelines(&sample_log());
        assert_eq!(timelines.len(), 2);
        let b0 = &timelines[0];
        // Batch 0: preprocessed ends at 30 ms, consumed starts at 40 ms.
        assert_eq!(b0.delay().unwrap().as_nanos(), 10_000_000);
        assert_eq!(b0.wait_span().unwrap().as_nanos(), 31_000_000);
        let b1 = &timelines[1];
        assert_eq!(b1.delay().unwrap().as_nanos(), 3_000_000);
    }

    #[test]
    fn wait_and_delay_fractions() {
        let log = sample_log();
        assert_eq!(fraction_wait_above(&log, Span::from_millis(30)), 0.5);
        assert_eq!(fraction_wait_above(&log, Span::from_millis(500)), 0.0);
        assert_eq!(fraction_delay_above(&log, Span::from_millis(5)), 0.5);
    }

    #[test]
    fn cpu_totals_sum_durations() {
        let log = sample_log();
        assert_eq!(total_preprocess_cpu(&log).as_nanos(), 40_000_000);
        let per_op = per_op_cpu_totals(&log);
        assert_eq!(per_op["Loader"].as_nanos(), 20_000_000);
        assert_eq!(per_op["RRC"].as_nanos(), 50_000);
    }

    #[test]
    fn op_classes_bucket_loader_transforms_and_collate() {
        let mut log = sample_log();
        log.push(rec(SpanKind::Op("C(4)".into()), 0, 21_000_000, 2_000_000));
        let classes = op_class_totals(&log);
        assert_eq!(classes.load.as_nanos(), 20_000_000);
        assert_eq!(classes.transform.as_nanos(), 50_000); // RRC
        assert_eq!(classes.collate.as_nanos(), 2_000_000);
        assert_eq!(classes.total().as_nanos(), 22_050_000);
        let (name, share) = classes.dominant().unwrap();
        assert_eq!(name, "load");
        assert!(share > 0.9);
        assert_eq!(op_class_totals(&[]).dominant(), None);
    }

    #[test]
    fn storage_reads_split_out_of_the_loader_share() {
        let mut log = sample_log();
        // 15 ms of the 20 ms Loader time was actually storage wait.
        log.push(rec(
            SpanKind::StorageRead("object-store".into()),
            0,
            0,
            15_000_000,
        ));
        let classes = op_class_totals(&log);
        assert_eq!(classes.storage.as_nanos(), 15_000_000);
        assert_eq!(classes.load.as_nanos(), 5_000_000);
        // Total is unchanged: storage was carved out of load, not added.
        assert_eq!(classes.total().as_nanos(), 20_050_000);
        let (name, share) = classes.dominant().unwrap();
        assert_eq!(name, "storage");
        assert!(share > 0.7);
        assert!((classes.storage_fraction() - share).abs() < 1e-12);

        let tiers = storage_tier_totals(&log);
        assert_eq!(tiers.len(), 1);
        assert_eq!(tiers["object-store"], Span::from_nanos(15_000_000));

        // Storage reads never create phantom batch timelines.
        assert_eq!(batch_timelines(&log).len(), 2);
    }

    #[test]
    fn preprocess_summary_is_in_milliseconds() {
        let s = preprocess_time_summary(&sample_log());
        assert_eq!(s.count, 2);
        assert!((s.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fault_marks_summarize_and_stay_out_of_timelines() {
        let mut log = sample_log();
        log.push(rec(
            SpanKind::FaultInjected("ToTensor".into()),
            7,
            50_000_000,
            0,
        ));
        log.push(rec(SpanKind::WorkerDied, 0, 60_000_000, 0));
        log.push(rec(SpanKind::BatchRedispatched, 7, 61_000_000, 0));
        let summary = fault_summary(&log);
        assert_eq!(summary.injected, vec![(7, "ToTensor".to_string())]);
        assert_eq!(summary.dead_workers, vec![1]);
        assert_eq!(summary.redispatched, vec![7]);
        assert!(!summary.is_empty());
        // The marks do not create phantom batch timelines.
        assert_eq!(batch_timelines(&log).len(), 2);
        assert!(fault_summary(&sample_log()).is_empty());
    }

    #[test]
    fn fault_forensics_joins_gauges_and_redispatch_latency() {
        use crate::metrics::{names, MetricsRegistry};

        let registry = MetricsRegistry::new();
        registry.set_gauge("queue_depth.data_queue", Time::from_nanos(10_000_000), 3.0);
        registry.set_gauge(names::IN_FLIGHT, Time::from_nanos(20_000_000), 2.0);
        registry.set_gauge(names::LIVE_WORKERS, Time::ZERO, 2.0);
        registry.set_gauge(names::LIVE_WORKERS, Time::from_nanos(60_000_000), 1.0);

        let mut log = sample_log();
        log.push(rec(SpanKind::WorkerDied, 0, 60_000_000, 0));
        log.push(rec(SpanKind::BatchRedispatched, 7, 61_500_000, 0));
        let forensics = fault_forensics(&log, &registry.snapshot());

        assert_eq!(forensics.deaths.len(), 1);
        let death = &forensics.deaths[0];
        assert_eq!(death.at, Time::from_nanos(60_000_000));
        assert_eq!(death.data_queue_depth, Some(3.0));
        assert_eq!(death.in_flight, Some(2.0));
        assert_eq!(death.live_workers_after, Some(1.0));

        assert_eq!(forensics.redispatches.len(), 1);
        let red = &forensics.redispatches[0];
        assert_eq!(red.batch_id, 7);
        assert_eq!(red.latency_after_death, Some(Span::from_nanos(1_500_000)));

        // No faults, no metrics: empty forensics, no panics.
        let clean = fault_forensics(&sample_log(), &MetricsRegistry::new().snapshot());
        assert_eq!(clean, FaultForensics::default());
    }
}
