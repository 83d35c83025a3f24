//! LotusTrace log records.

use lotus_dataflow::{TraceEvent, MAIN_OS_PID};
use lotus_sim::{Span, Time};

/// What a trace record describes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One storage read issued by the dataset's fetch path (\[T0\]) —
    /// `SStorageRead_idx_tier`. The payload is the serving tier's stable
    /// name (`page-cache` / `local-disk` / `object-store`; tier names
    /// never contain `_`). Storage reads nest inside the batch's
    /// [`SpanKind::BatchPreprocessed`] span on the same worker.
    StorageRead(String),
    /// A whole-batch fetch on a DataLoader worker (\[T1\]) —
    /// `SBatchPreprocessed_idx` in the visualization.
    BatchPreprocessed,
    /// The main process waiting for a batch (\[T2\]) — `SBatchWait_idx`.
    BatchWait,
    /// The main process consuming a batch — `SBatchConsumed_idx`.
    BatchConsumed,
    /// One preprocessing operation on one item (\[T3\]), e.g.
    /// `RandomResizedCrop`.
    Op(String),
    /// A fault plan injected an error into the named op while a worker
    /// fetched this batch — `SFaultInjected_idx_op`.
    FaultInjected(String),
    /// The main process observed a DataLoader worker's death —
    /// `SWorkerDied` (an instant, duration zero).
    WorkerDied,
    /// An in-flight batch owned by a dead worker was re-sent to a
    /// survivor — `SBatchRedispatched_idx` (an instant, duration zero).
    BatchRedispatched,
    /// A scheduling policy stole a batch from its round-robin target and
    /// placed it elsewhere — `SBatchStolen_idx` (an instant).
    BatchStolen,
    /// A lane-aware policy classified a batch into a fast/slow lane —
    /// `SLaneAssigned_idx_lane` (an instant; the payload is the lane
    /// name, which never contains `_`).
    LaneAssigned(String),
    /// An adaptive policy resized the per-worker prefetch window —
    /// `SPrefetchResized_target` (an instant; the "batch id" slot in the
    /// label carries the new target).
    PrefetchResized,
}

impl SpanKind {
    /// The span label used in log lines and visualizations.
    #[must_use]
    pub fn label(&self, batch_id: u64) -> String {
        match self {
            SpanKind::StorageRead(tier) => format!("SStorageRead_{batch_id}_{tier}"),
            SpanKind::BatchPreprocessed => format!("SBatchPreprocessed_{batch_id}"),
            SpanKind::BatchWait => format!("SBatchWait_{batch_id}"),
            SpanKind::BatchConsumed => format!("SBatchConsumed_{batch_id}"),
            SpanKind::Op(name) => format!("S{name}"),
            SpanKind::FaultInjected(op) => format!("SFaultInjected_{batch_id}_{op}"),
            SpanKind::WorkerDied => "SWorkerDied".to_string(),
            SpanKind::BatchRedispatched => format!("SBatchRedispatched_{batch_id}"),
            SpanKind::BatchStolen => format!("SBatchStolen_{batch_id}"),
            SpanKind::LaneAssigned(lane) => format!("SLaneAssigned_{batch_id}_{lane}"),
            SpanKind::PrefetchResized => format!("SPrefetchResized_{batch_id}"),
        }
    }

    /// True for the zero-duration fault/lifecycle/scheduling marks
    /// (rendered as instant events in the Chrome trace).
    #[must_use]
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            SpanKind::FaultInjected(_)
                | SpanKind::WorkerDied
                | SpanKind::BatchRedispatched
                | SpanKind::BatchStolen
                | SpanKind::LaneAssigned(_)
                | SpanKind::PrefetchResized
        )
    }
}

/// One LotusTrace log record: a span with batch/process metadata
/// (the paper logs `S{name}, {start}, {duration}` plus batch and process
/// ids).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Span kind.
    pub kind: SpanKind,
    /// OS pid of the emitting process.
    pub pid: u32,
    /// Batch the span belongs to.
    pub batch_id: u64,
    /// Span start (virtual time).
    pub start: Time,
    /// Span duration.
    pub duration: Span,
    /// True for wait records satisfied from the out-of-order cache
    /// (logged with the 1 µs marker duration).
    pub out_of_order: bool,
    /// For wait records: how long the batch sat between the end of its
    /// fetch on the worker and delivery to the main loop (shared-queue
    /// residency). Zero for all other kinds.
    pub queue_delay: Span,
}

impl TraceRecord {
    /// The record form of a span/instant event — the one place an event
    /// becomes a record, for the log, Chrome and viz sinks alike.
    /// Dispatches and gauge samples have no record form and return
    /// `None`.
    ///
    /// Instants are zero-length records at their instant. Redispatch,
    /// steal and lane marks carry the receiving worker's pid; a prefetch
    /// resize is a main-process mark whose target rides the batch-id slot
    /// (the label notation is `SPrefetchResized_{target}`).
    #[must_use]
    pub fn from_event(event: &TraceEvent<'_>) -> Option<TraceRecord> {
        let span = |kind, pid, batch_id, start, duration| TraceRecord {
            kind,
            pid,
            batch_id,
            start,
            duration,
            out_of_order: false,
            queue_delay: Span::ZERO,
        };
        let instant = |kind, pid, batch_id, at| span(kind, pid, batch_id, at, Span::ZERO);
        Some(match *event {
            TraceEvent::Op {
                pid,
                batch_id,
                ref name,
                start,
                dur,
            } => span(SpanKind::Op(name.to_string()), pid, batch_id, start, dur),
            TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                read,
            } => span(
                SpanKind::StorageRead(read.tier.as_str().to_string()),
                pid,
                batch_id,
                start,
                read.span,
            ),
            TraceEvent::BatchPreprocessed {
                pid,
                batch_id,
                start,
                dur,
            } => span(SpanKind::BatchPreprocessed, pid, batch_id, start, dur),
            TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            } => TraceRecord {
                out_of_order,
                queue_delay,
                ..span(SpanKind::BatchWait, pid, batch_id, start, dur)
            },
            TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                ..
            } => span(SpanKind::BatchConsumed, pid, batch_id, start, dur),
            TraceEvent::FaultInjected {
                pid,
                batch_id,
                ref op,
                at,
            } => instant(SpanKind::FaultInjected(op.to_string()), pid, batch_id, at),
            TraceEvent::WorkerDied { pid, at } => instant(SpanKind::WorkerDied, pid, 0, at),
            TraceEvent::BatchRedispatched {
                batch_id,
                to_pid,
                at,
                ..
            } => instant(SpanKind::BatchRedispatched, to_pid, batch_id, at),
            TraceEvent::BatchStolen {
                batch_id,
                to_pid,
                at,
                ..
            } => instant(SpanKind::BatchStolen, to_pid, batch_id, at),
            TraceEvent::LaneAssigned {
                batch_id,
                ref lane,
                to_pid,
                at,
            } => instant(
                SpanKind::LaneAssigned(lane.to_string()),
                to_pid,
                batch_id,
                at,
            ),
            TraceEvent::PrefetchResized { target, at } => {
                instant(SpanKind::PrefetchResized, MAIN_OS_PID, target as u64, at)
            }
            TraceEvent::Dispatched { .. } | TraceEvent::Gauge { .. } => return None,
        })
    }

    /// Serializes to the CSV-ish log-line format.
    #[must_use]
    pub fn to_log_line(&self) -> String {
        format!(
            "{},{},{},{},{},{}\n",
            self.kind.label(self.batch_id),
            self.pid,
            self.start.as_nanos(),
            self.duration.as_nanos(),
            u8::from(self.out_of_order),
            self.queue_delay.as_nanos(),
        )
    }

    /// Size of the serialized record in bytes (log-storage accounting).
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.to_log_line().len() as u64
    }

    /// End of the span.
    #[must_use]
    pub fn end(&self) -> Time {
        self.start + self.duration
    }

    /// Parses a line produced by [`TraceRecord::to_log_line`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn parse_log_line(line: &str) -> Result<TraceRecord, String> {
        let parts: Vec<&str> = line.trim_end().split(',').collect();
        if parts.len() != 6 {
            return Err(format!("expected 6 fields, got {}", parts.len()));
        }
        let (label, rest) = (parts[0], &parts[1..]);
        let pid: u32 = rest[0].parse().map_err(|e| format!("bad pid: {e}"))?;
        let start: u64 = rest[1].parse().map_err(|e| format!("bad start: {e}"))?;
        let duration: u64 = rest[2].parse().map_err(|e| format!("bad duration: {e}"))?;
        if start.checked_add(duration).is_none() {
            return Err(format!("span {start} + {duration} ends past u64::MAX ns"));
        }
        let ooo = rest[3] == "1";
        let queue_delay: u64 = rest[4]
            .parse()
            .map_err(|e| format!("bad queue delay: {e}"))?;
        let (kind, batch_id) = parse_label(label)?;
        Ok(TraceRecord {
            kind,
            pid,
            batch_id,
            start: Time::from_nanos(start),
            duration: Span::from_nanos(duration),
            out_of_order: ooo,
            queue_delay: Span::from_nanos(queue_delay),
        })
    }
}

/// Parses a span label back into its kind and batch id (shared by the log
/// and Chrome-trace importers).
pub(crate) fn parse_label(label: &str) -> Result<(SpanKind, u64), String> {
    for (prefix, ctor) in [
        ("SBatchPreprocessed_", SpanKind::BatchPreprocessed),
        ("SBatchWait_", SpanKind::BatchWait),
        ("SBatchConsumed_", SpanKind::BatchConsumed),
        ("SBatchRedispatched_", SpanKind::BatchRedispatched),
        ("SBatchStolen_", SpanKind::BatchStolen),
        ("SPrefetchResized_", SpanKind::PrefetchResized),
    ] {
        if let Some(idx) = label.strip_prefix(prefix) {
            let id = idx.parse().map_err(|e| format!("bad batch id: {e}"))?;
            return Ok((ctor, id));
        }
    }
    if let Some(rest) = label.strip_prefix("SFaultInjected_") {
        let (idx, op) = rest
            .split_once('_')
            .ok_or_else(|| format!("fault label '{label}' missing op"))?;
        let id = idx.parse().map_err(|e| format!("bad batch id: {e}"))?;
        return Ok((SpanKind::FaultInjected(op.to_string()), id));
    }
    if let Some(rest) = label.strip_prefix("SLaneAssigned_") {
        let (idx, lane) = rest
            .split_once('_')
            .ok_or_else(|| format!("lane label '{label}' missing lane"))?;
        let id = idx.parse().map_err(|e| format!("bad batch id: {e}"))?;
        return Ok((SpanKind::LaneAssigned(lane.to_string()), id));
    }
    if let Some(rest) = label.strip_prefix("SStorageRead_") {
        let (idx, tier) = rest
            .split_once('_')
            .ok_or_else(|| format!("storage-read label '{label}' missing tier"))?;
        let id = idx.parse().map_err(|e| format!("bad batch id: {e}"))?;
        return Ok((SpanKind::StorageRead(tier.to_string()), id));
    }
    if label == "SWorkerDied" {
        return Ok((SpanKind::WorkerDied, 0));
    }
    match label.strip_prefix('S') {
        Some(name) if !name.is_empty() => Ok((SpanKind::Op(name.to_string()), 0)),
        _ => Err(format!("unrecognized span label '{label}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: SpanKind) -> TraceRecord {
        TraceRecord {
            kind,
            pid: 4243,
            batch_id: 17,
            start: Time::from_nanos(1_000),
            duration: Span::from_nanos(250),
            out_of_order: false,
            queue_delay: Span::from_nanos(77),
        }
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(
            SpanKind::BatchPreprocessed.label(699),
            "SBatchPreprocessed_699"
        );
        assert_eq!(SpanKind::BatchWait.label(699), "SBatchWait_699");
        assert_eq!(SpanKind::BatchConsumed.label(699), "SBatchConsumed_699");
        assert_eq!(
            SpanKind::Op("RandomResizedCrop".into()).label(0),
            "SRandomResizedCrop"
        );
        assert_eq!(
            SpanKind::FaultInjected("ToTensor".into()).label(12),
            "SFaultInjected_12_ToTensor"
        );
        assert_eq!(SpanKind::WorkerDied.label(0), "SWorkerDied");
        assert_eq!(SpanKind::BatchRedispatched.label(9), "SBatchRedispatched_9");
        assert_eq!(
            SpanKind::StorageRead("page-cache".into()).label(7),
            "SStorageRead_7_page-cache"
        );
    }

    #[test]
    fn batch_records_round_trip_through_log_lines() {
        for kind in [
            SpanKind::BatchPreprocessed,
            SpanKind::BatchWait,
            SpanKind::BatchConsumed,
            SpanKind::BatchRedispatched,
            SpanKind::FaultInjected("Normalize".into()),
            SpanKind::StorageRead("object-store".into()),
            SpanKind::BatchStolen,
            SpanKind::LaneAssigned("slow".into()),
            SpanKind::PrefetchResized,
        ] {
            let r = record(kind);
            let parsed = TraceRecord::parse_log_line(&r.to_log_line()).unwrap();
            assert_eq!(parsed, r);
        }
        // WorkerDied carries no batch id in its label; it parses back as 0.
        let r = TraceRecord {
            batch_id: 0,
            ..record(SpanKind::WorkerDied)
        };
        let parsed = TraceRecord::parse_log_line(&r.to_log_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn scheduling_labels_match_the_policy_notation() {
        assert_eq!(SpanKind::BatchStolen.label(5), "SBatchStolen_5");
        assert_eq!(
            SpanKind::LaneAssigned("slow".into()).label(5),
            "SLaneAssigned_5_slow"
        );
        assert_eq!(SpanKind::PrefetchResized.label(3), "SPrefetchResized_3");
    }

    #[test]
    fn fault_kinds_are_instants() {
        assert!(SpanKind::WorkerDied.is_instant());
        assert!(SpanKind::BatchRedispatched.is_instant());
        assert!(SpanKind::BatchStolen.is_instant());
        assert!(SpanKind::LaneAssigned("fast".into()).is_instant());
        assert!(SpanKind::PrefetchResized.is_instant());
        assert!(SpanKind::FaultInjected("X".into()).is_instant());
        assert!(!SpanKind::BatchWait.is_instant());
        assert!(!SpanKind::Op("X".into()).is_instant());
        assert!(!SpanKind::StorageRead("local-disk".into()).is_instant());
    }

    #[test]
    fn op_records_round_trip_modulo_batch_id() {
        let r = record(SpanKind::Op("Normalize".into()));
        let parsed = TraceRecord::parse_log_line(&r.to_log_line()).unwrap();
        assert_eq!(parsed.kind, r.kind);
        assert_eq!(parsed.duration, r.duration);
        // The op log line doesn't carry the batch id (matches the paper's
        // Listing 3 format); it parses back as 0.
        assert_eq!(parsed.batch_id, 0);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(TraceRecord::parse_log_line("nonsense").is_err());
        assert!(TraceRecord::parse_log_line("SBatchWait_x,1,2,3,0,0").is_err());
        assert!(TraceRecord::parse_log_line("S,1,2,3,0,0").is_err());
        // Old 5-field lines are rejected, not silently mis-parsed.
        assert!(TraceRecord::parse_log_line("SBatchWait_1,1,2,3,0").is_err());
        assert!(TraceRecord::parse_log_line("SFaultInjected_3,1,2,3,0,0").is_err());
        let max = u64::MAX;
        let overflowing = format!("SBatchWait_1,1,{max},{max},0,0");
        assert!(TraceRecord::parse_log_line(&overflowing).is_err());
        let at_the_edge = format!("SBatchWait_1,1,{},1,0,0", max - 1);
        assert!(TraceRecord::parse_log_line(&at_the_edge).is_ok());
    }

    #[test]
    fn log_bytes_counts_serialized_length() {
        let r = record(SpanKind::BatchWait);
        assert_eq!(r.log_bytes(), r.to_log_line().len() as u64);
    }
}
