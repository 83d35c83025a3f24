//! Automated log analysis — the feature the paper's conclusion lists as
//! future work ("we welcome contributions … such as automated log
//! analysis"). Takes a LotusTrace log and produces a diagnosis: where the
//! bottleneck is, how healthy the data flow looks, and what to try next.
//!
//! [`Verdict::classify`] is Lotus's one bottleneck rule. [`analyze`]
//! feeds it quantities computed from a log's records; `lotus run` and
//! `lotus tune` feed it the same quantities from a run's metrics
//! ([`Scorecard::from_measurement`](crate::tune::Scorecard::from_measurement)).
//! On one run the two sets of inputs are equal, so every command reaches
//! the same verdict.

use std::collections::BTreeMap;
use std::fmt;

use lotus_sim::Span;

use super::analysis::{
    batch_timelines, op_class_totals, per_op_cpu_totals, BatchTimeline, OpClassTotals,
};
use super::record::{SpanKind, TraceRecord};

/// Main-process wait share of elapsed time at or above which a run
/// counts as input-bound (the consumer is starving).
pub const WAIT_BOUND_THRESHOLD: f64 = 0.15;

/// Who limits the epoch's throughput, in the vocabulary of the paper's
/// T0–T3 measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The main process waits on batches (high \[T2\] share) and the
    /// transform chain dominates worker time — more workers or cheaper
    /// transforms pay.
    PreprocessingBound,
    /// The main process waits and the `Loader` source fetch (I/O +
    /// decode) dominates — faster storage or more concurrent fetches
    /// pay; extra transform workers will idle on I/O.
    FetchBound,
    /// The main process waits and traced \[T0\] storage reads dominate —
    /// the storage hierarchy itself (cold cache, remote object store,
    /// tiny-file seeks) is the constraint; warm the cache, pack records,
    /// or move the dataset closer.
    StorageBound,
    /// The main process waits and `C(n)` collation dominates — the
    /// serial tail of each batch is the constraint.
    CollateBound,
    /// Batches queue up faster than the consumer drains them — the GPU
    /// step is the constraint and loader tuning cannot help.
    GpuBound,
    /// Neither side clearly dominates.
    Balanced,
}

impl Verdict {
    /// The rule: a \[T2\] wait share of at least
    /// [`WAIT_BOUND_THRESHOLD`] makes the run input-bound, and the
    /// dominant op class names the culprit (`StorageRead` → storage,
    /// `Loader` → fetch, `C(n)` → collate, otherwise — a log with no op
    /// records included — the transform chain). With the consumer rarely
    /// waiting, batches piling up in the shared queue (mean queue delay
    /// above 3× the mean wait) mean the GPU step is the constraint;
    /// otherwise the pipeline is balanced.
    #[must_use]
    pub fn classify(
        wait_fraction: f64,
        mean_wait_ms: f64,
        mean_queue_delay_ms: f64,
        op_classes: &OpClassTotals,
    ) -> Verdict {
        if wait_fraction >= WAIT_BOUND_THRESHOLD {
            return match op_classes.dominant() {
                Some(("storage", _)) => Verdict::StorageBound,
                Some(("load", _)) => Verdict::FetchBound,
                Some(("collate", _)) => Verdict::CollateBound,
                _ => Verdict::PreprocessingBound,
            };
        }
        if mean_queue_delay_ms > 3.0 * mean_wait_ms && mean_queue_delay_ms > 0.0 {
            Verdict::GpuBound
        } else {
            Verdict::Balanced
        }
    }

    /// The verdict's family: `input-bound` when the input pipeline
    /// starves the consumer, `accelerator-bound` when it does not.
    /// Wall-clock noise moves a run between verdicts *within* a family,
    /// not across families, so sim-vs-native cross-validation compares
    /// families.
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            Verdict::PreprocessingBound
            | Verdict::FetchBound
            | Verdict::StorageBound
            | Verdict::CollateBound => "input-bound",
            Verdict::GpuBound | Verdict::Balanced => "accelerator-bound",
        }
    }

    /// Stable lowercase-kebab name (used in tables and JSON).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::PreprocessingBound => "preprocessing-bound",
            Verdict::FetchBound => "fetch-bound",
            Verdict::StorageBound => "storage-bound",
            Verdict::CollateBound => "collate-bound",
            Verdict::GpuBound => "gpu-bound",
            Verdict::Balanced => "balanced",
        }
    }

    /// The inverse of [`as_str`](Self::as_str).
    #[must_use]
    pub fn parse(name: &str) -> Option<Verdict> {
        match name {
            "preprocessing-bound" => Some(Verdict::PreprocessingBound),
            "fetch-bound" => Some(Verdict::FetchBound),
            "storage-bound" => Some(Verdict::StorageBound),
            "collate-bound" => Some(Verdict::CollateBound),
            "gpu-bound" => Some(Verdict::GpuBound),
            "balanced" => Some(Verdict::Balanced),
            _ => None,
        }
    }
}

/// Per-DataLoader-worker activity extracted from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// OS pid of the worker.
    pub pid: u32,
    /// Batches it preprocessed.
    pub batches: u64,
    /// Total fetch (busy) time.
    pub busy: Span,
}

/// The automated diagnosis of one traced epoch.
#[derive(Debug, Clone)]
pub struct Insights {
    /// Bottleneck classification: [`Verdict::classify`] over the wait
    /// fraction, the mean wait, the mean queue delay and the log's op
    /// class totals.
    pub verdict: Verdict,
    /// Total \[T2\] wait over the record span (earliest start to latest
    /// end): the share of the traced interval the main process spent
    /// waiting.
    pub wait_fraction: f64,
    /// Mean \[T2\] main-process wait per batch, milliseconds.
    pub mean_wait_ms: f64,
    /// Mean shared-queue residency of the waited-for batches (the wait
    /// records' `queue_delay`), milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Mean batch delay (preprocessed → consumed).
    pub mean_delay: Span,
    /// Fraction of batches that arrived out of order.
    pub ooo_fraction: f64,
    /// Per-worker activity, ordered by pid.
    pub workers: Vec<WorkerStats>,
    /// Busy-time imbalance across workers: (max − min) / max, 0 when ≤1
    /// worker.
    pub worker_imbalance: f64,
    /// Fraction of the traced interval the accelerator spent consuming
    /// batches (H2D + training step). Low values under an input-bound
    /// verdict quantify the GPU starvation.
    pub gpu_busy_fraction: f64,
    /// The operation with the largest share of preprocessing CPU, with its
    /// share in `[0, 1]`.
    pub dominant_op: Option<(String, f64)>,
    /// Share of per-item time spent in \[T0\] storage reads, in `[0, 1]`
    /// (zero for logs with no `StorageRead` records — native runs and
    /// closed-form I/O).
    pub t0_fraction: f64,
    /// Human-readable suggestions derived from the above.
    pub recommendations: Vec<String>,
}

fn mean(spans: impl Iterator<Item = Span>) -> Span {
    let v: Vec<Span> = spans.collect();
    if v.is_empty() {
        Span::ZERO
    } else {
        Span::from_nanos(v.iter().map(|s| s.as_nanos()).sum::<u64>() / v.len() as u64)
    }
}

/// Analyzes a LotusTrace log.
///
/// Works with batch-level logs; per-operation records, when present,
/// additionally name an input-bound verdict's culprit and produce the
/// dominant-op finding.
#[must_use]
pub fn analyze(records: &[TraceRecord]) -> Insights {
    let timelines = batch_timelines(records);
    let mean_delay = mean(timelines.iter().filter_map(BatchTimeline::delay));
    let with_wait = timelines.iter().filter(|t| t.wait.is_some()).count().max(1);
    let ooo = timelines
        .iter()
        .filter(|t| t.wait.is_some_and(|(_, _, o)| o))
        .count();
    let ooo_fraction = ooo as f64 / with_wait as f64;

    // The rule's inputs, folded the way the metrics sink and the
    // scorecard fold them: integer nanosecond totals first, then the same
    // divisions, so a run's records and its metrics agree exactly.
    let waits: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.kind == SpanKind::BatchWait)
        .collect();
    let mean_ms = |total_ns: u64| {
        if waits.is_empty() {
            0.0
        } else {
            total_ns as f64 / waits.len() as f64 / 1e6
        }
    };
    let total_wait: u64 = waits.iter().map(|r| r.duration.as_nanos()).sum();
    let mean_wait_ms = mean_ms(total_wait);
    let mean_queue_delay_ms = mean_ms(waits.iter().map(|r| r.queue_delay.as_nanos()).sum());
    let start = records
        .iter()
        .map(|r| r.start.as_nanos())
        .min()
        .unwrap_or(0);
    let end = records
        .iter()
        .map(|r| r.end().as_nanos())
        .max()
        .unwrap_or(0);
    let share_of_span = |ns: u64| {
        if end > start {
            ns as f64 / (end - start) as f64
        } else {
            0.0
        }
    };
    let wait_fraction = share_of_span(total_wait);
    let op_classes = op_class_totals(records);
    let t0_fraction = op_classes.storage_fraction();
    let verdict = Verdict::classify(
        wait_fraction,
        mean_wait_ms,
        mean_queue_delay_ms,
        &op_classes,
    );

    let mut per_worker: BTreeMap<u32, WorkerStats> = BTreeMap::new();
    for r in records {
        if r.kind == SpanKind::BatchPreprocessed {
            let w = per_worker.entry(r.pid).or_insert(WorkerStats {
                pid: r.pid,
                batches: 0,
                busy: Span::ZERO,
            });
            w.batches += 1;
            w.busy += r.duration;
        }
    }
    let workers: Vec<WorkerStats> = per_worker.into_values().collect();
    let worker_imbalance = {
        let busies: Vec<f64> = workers.iter().map(|w| w.busy.as_secs_f64()).collect();
        match (
            busies.iter().cloned().fold(f64::INFINITY, f64::min),
            busies.iter().cloned().fold(0.0, f64::max),
        ) {
            (min, max) if workers.len() > 1 && max > 0.0 => (max - min) / max,
            _ => 0.0,
        }
    };

    let gpu_busy_fraction = share_of_span(
        records
            .iter()
            .filter(|r| r.kind == SpanKind::BatchConsumed)
            .map(|r| r.duration.as_nanos())
            .sum(),
    );

    let op_totals = per_op_cpu_totals(records);
    let total_op_cpu: f64 = op_totals.values().map(|s| s.as_secs_f64()).sum();
    let dominant_op = op_totals
        .iter()
        .max_by(|a, b| a.1.cmp(b.1))
        .filter(|_| total_op_cpu > 0.0)
        .map(|(name, cpu)| (name.clone(), cpu.as_secs_f64() / total_op_cpu));

    let mut recommendations = vec![match verdict {
        Verdict::StorageBound => format!(
            "{:.0}% of per-item time is [T0] storage fetch: warm the page cache \
             (a second epoch), pack tiny files into larger records, or move the \
             dataset to faster/closer storage — extra workers would idle on the \
             same devices",
            t0_fraction * 100.0
        ),
        Verdict::FetchBound => "the accelerator starves on the Loader source fetch \
             (read + decode): add DataLoader workers, or store the dataset \
             pre-decoded"
            .to_string(),
        Verdict::PreprocessingBound => "the accelerator starves waiting for batches: add \
             DataLoader workers, or move deterministic operations offline (decode, resize)"
            .to_string(),
        Verdict::CollateBound => "the accelerator starves on C(n) collation, the serial \
             tail of every batch: collate into preallocated batch buffers, or use smaller \
             batches"
            .to_string(),
        Verdict::GpuBound => "preprocessing has headroom: consider fewer workers, or \
             co-locating another job's preprocessing on this host"
            .to_string(),
        Verdict::Balanced => {
            "pipeline is balanced; revisit after hardware or batch-size changes".to_string()
        }
    }];
    if verdict.family() == "input-bound" {
        if let Some((op, share)) = &dominant_op {
            if *share > 0.4 {
                recommendations.push(format!(
                    "'{op}' accounts for {:.0}% of preprocessing CPU — optimize or \
                     precompute it first",
                    share * 100.0
                ));
            }
        }
    }
    if ooo_fraction > 0.2 {
        recommendations.push(format!(
            "{:.0}% of batches arrive out of order and sit pinned in the cache: \
             better DataLoader scheduling (non-round-robin index assignment) would \
             reduce wait and delay times",
            ooo_fraction * 100.0
        ));
    }
    if worker_imbalance > 0.25 && workers.len() > 1 {
        recommendations.push(format!(
            "worker busy times are imbalanced ({:.0}% spread): load-balance inputs \
             by size (cf. SpeedyLoader)",
            worker_imbalance * 100.0
        ));
    }

    Insights {
        verdict,
        wait_fraction,
        mean_wait_ms,
        mean_queue_delay_ms,
        mean_delay,
        ooo_fraction,
        workers,
        worker_imbalance,
        gpu_busy_fraction,
        dominant_op,
        t0_fraction,
        recommendations,
    }
}

impl fmt::Display for Insights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "main-process wait {:.1}% | verdict: {} ({})",
            self.wait_fraction * 100.0,
            self.verdict.as_str(),
            self.verdict.family()
        )?;
        writeln!(
            f,
            "mean wait {:.3}ms | mean queue delay {:.3}ms | mean delay {} | out-of-order {:.1}% | GPU busy {:.1}%",
            self.mean_wait_ms,
            self.mean_queue_delay_ms,
            self.mean_delay,
            self.ooo_fraction * 100.0,
            self.gpu_busy_fraction * 100.0
        )?;
        if self.t0_fraction > 0.0 {
            writeln!(
                f,
                "storage fetch [T0]: {:.1}% of per-item time",
                self.t0_fraction * 100.0
            )?;
        }
        if let Some((op, share)) = &self.dominant_op {
            writeln!(
                f,
                "dominant op: {op} ({:.0}% of preprocessing CPU)",
                share * 100.0
            )?;
        }
        for w in &self.workers {
            writeln!(
                f,
                "worker {}: {} batches, busy {}",
                w.pid, w.batches, w.busy
            )?;
        }
        for r in &self.recommendations {
            writeln!(f, "→ {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::lint_records;
    use lotus_sim::Time;

    fn rec(kind: SpanKind, pid: u32, batch: u64, start_ms: u64, dur_ms: u64) -> TraceRecord {
        TraceRecord {
            kind,
            pid,
            batch_id: batch,
            start: Time::from_nanos(start_ms * 1_000_000),
            duration: Span::from_millis(dur_ms),
            out_of_order: false,
            queue_delay: Span::ZERO,
        }
    }

    /// A main-process \[T2\] wait with its shared-queue residency.
    fn wait(batch: u64, start_ms: u64, dur_ms: u64, queue_delay_ms: u64, ooo: bool) -> TraceRecord {
        TraceRecord {
            out_of_order: ooo,
            queue_delay: Span::from_millis(queue_delay_ms),
            ..rec(SpanKind::BatchWait, 1, batch, start_ms, dur_ms)
        }
    }

    /// Analyzes a fixture after checking it is a trace the loader could
    /// have produced.
    fn analyze_clean(log: &[TraceRecord]) -> Insights {
        let findings = lint_records(log, None);
        assert!(
            findings.is_empty(),
            "fixture must lint clean: {findings:#?}"
        );
        analyze(log)
    }

    /// One worker, one batch per second: 700 ms of `Loader`, 100 ms of
    /// `Normalize`, then the main process, which has waited since the
    /// batch started, takes it 50 ms after the fetch ends.
    fn loader_dominated_log() -> Vec<TraceRecord> {
        let mut log = Vec::new();
        for b in 0..10 {
            log.push(rec(SpanKind::Op("Loader".into()), 2, b, b * 1000, 700));
            log.push(rec(
                SpanKind::Op("Normalize".into()),
                2,
                b,
                b * 1000 + 700,
                100,
            ));
            log.push(rec(SpanKind::BatchPreprocessed, 2, b, b * 1000, 800));
            log.push(wait(b, b * 1000, 850, 50, false));
            log.push(rec(SpanKind::BatchConsumed, 1, b, b * 1000 + 900, 50));
        }
        log
    }

    #[test]
    fn classifies_fetch_bound_and_names_the_culprit() {
        let insights = analyze_clean(&loader_dominated_log());
        assert_eq!(insights.verdict, Verdict::FetchBound);
        assert!((insights.wait_fraction - 8.5 / 9.95).abs() < 1e-12);
        assert!((insights.mean_wait_ms - 850.0).abs() < 1e-12);
        assert!((insights.mean_queue_delay_ms - 50.0).abs() < 1e-12);
        // GPU consumes 50 ms of each ~1 s batch interval: heavily starved.
        assert!(
            insights.gpu_busy_fraction < 0.1,
            "{}",
            insights.gpu_busy_fraction
        );
        let (op, share) = insights.dominant_op.unwrap();
        assert_eq!(op, "Loader");
        assert!(share > 0.8);
        assert!(
            insights
                .recommendations
                .iter()
                .any(|r| r.contains("Loader")),
            "{:?}",
            insights.recommendations
        );
    }

    #[test]
    fn storage_dominated_starvation_is_storage_bound() {
        let mut log = loader_dominated_log();
        // Most of each 700 ms Loader span was actually a storage wait.
        for b in 0..10 {
            log.push(rec(
                SpanKind::StorageRead("object-store".into()),
                2,
                b,
                b * 1000,
                650,
            ));
        }
        let insights = analyze_clean(&log);
        assert_eq!(insights.verdict, Verdict::StorageBound);
        assert!(insights.t0_fraction > 0.5, "{}", insights.t0_fraction);
        assert!(
            insights
                .recommendations
                .iter()
                .any(|r| r.contains("storage")),
            "{:?}",
            insights.recommendations
        );
        // Without the reads the same log is fetch-bound.
        let base = analyze_clean(&loader_dominated_log());
        assert_eq!(base.verdict, Verdict::FetchBound);
        assert_eq!(base.t0_fraction, 0.0);
    }

    #[test]
    fn classifies_gpu_bound() {
        // Workers finish a batch every 100 ms; the consumer takes one
        // every second, after a 1 ms wait, so each batch sits seconds in
        // the queue.
        let mut log = Vec::new();
        for b in 0..10 {
            log.push(rec(SpanKind::BatchPreprocessed, 2, b, b * 100, 80));
            let delivered = b * 1000 + 5000;
            log.push(wait(b, delivered - 1, 1, delivered - (b * 100 + 80), false));
            log.push(rec(SpanKind::BatchConsumed, 1, b, delivered, 700));
        }
        let insights = analyze_clean(&log);
        assert_eq!(insights.verdict, Verdict::GpuBound);
        assert!(insights.wait_fraction < 0.01, "{}", insights.wait_fraction);
        assert!(insights.mean_queue_delay_ms > 4000.0);
        assert!(insights
            .recommendations
            .iter()
            .any(|r| r.contains("headroom")));
    }

    #[test]
    fn flags_out_of_order_and_imbalance() {
        // Two workers alternate batches; worker 3 is twice as slow. The
        // even batches are served from the reorder cache (their wait is a
        // marker whose residency runs to its start).
        let mut log = Vec::new();
        for b in 0..10u64 {
            let pid = 2 + (b % 2) as u32;
            let dur = if pid == 3 { 1800 } else { 900 };
            log.push(rec(SpanKind::BatchPreprocessed, pid, b, b * 1000, dur));
            let at = b * 1000 + 1900;
            let ooo = b % 2 == 0;
            let delivered = if ooo { at } else { at + 1 };
            log.push(wait(b, at, 1, delivered - (b * 1000 + dur), ooo));
            log.push(rec(SpanKind::BatchConsumed, 1, b, b * 1000 + 1950, 50));
        }
        let insights = analyze_clean(&log);
        assert_eq!(insights.verdict, Verdict::GpuBound);
        assert!(insights.ooo_fraction >= 0.5);
        assert!(
            insights.worker_imbalance > 0.4,
            "{}",
            insights.worker_imbalance
        );
        assert!(insights
            .recommendations
            .iter()
            .any(|r| r.contains("out of order")));
        assert!(insights
            .recommendations
            .iter()
            .any(|r| r.contains("load-balance")));
        assert_eq!(insights.workers.len(), 2);
    }

    #[test]
    fn the_rule_picks_the_culprit_only_when_the_consumer_starves() {
        let classes = |storage, load, transform, collate| OpClassTotals {
            storage: Span::from_millis(storage),
            load: Span::from_millis(load),
            transform: Span::from_millis(transform),
            collate: Span::from_millis(collate),
        };
        let starving = |c: &OpClassTotals| Verdict::classify(0.15, 10.0, 1.0, c);
        assert_eq!(starving(&classes(0, 1, 5, 1)), Verdict::PreprocessingBound);
        assert_eq!(starving(&classes(0, 5, 1, 1)), Verdict::FetchBound);
        assert_eq!(starving(&classes(5, 1, 1, 1)), Verdict::StorageBound);
        assert_eq!(starving(&classes(0, 1, 1, 5)), Verdict::CollateBound);
        // A log without op records still reads as preprocessing-bound.
        assert_eq!(
            starving(&OpClassTotals::default()),
            Verdict::PreprocessingBound
        );
        // Below the threshold the op classes no longer matter.
        let fed = classes(5, 1, 1, 1);
        assert_eq!(Verdict::classify(0.149, 1.0, 3.01, &fed), Verdict::GpuBound);
        assert_eq!(Verdict::classify(0.149, 1.0, 3.0, &fed), Verdict::Balanced);
        assert_eq!(Verdict::classify(0.0, 0.0, 0.0, &fed), Verdict::Balanced);
    }

    #[test]
    fn verdict_names_and_families_round_trip() {
        for (verdict, family) in [
            (Verdict::PreprocessingBound, "input-bound"),
            (Verdict::FetchBound, "input-bound"),
            (Verdict::StorageBound, "input-bound"),
            (Verdict::CollateBound, "input-bound"),
            (Verdict::GpuBound, "accelerator-bound"),
            (Verdict::Balanced, "accelerator-bound"),
        ] {
            assert_eq!(Verdict::parse(verdict.as_str()), Some(verdict));
            assert_eq!(verdict.family(), family);
        }
        assert_eq!(Verdict::parse("nonsense"), None);
    }

    #[test]
    fn display_is_complete() {
        let s = analyze(&loader_dominated_log()).to_string();
        assert!(
            s.starts_with("main-process wait 85.4% | verdict: fetch-bound (input-bound)\n"),
            "{s}"
        );
        assert!(s.contains("→"));
    }
}
