//! LotusTrace log records.

use std::fmt::Write as _;

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
        let mut label = String::new();
        write_label(&mut label, self.tag(), batch_id, self.name());
        label
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

    /// The kind's variant, without its name.
    pub(crate) fn tag(&self) -> Tag {
        match self {
            SpanKind::StorageRead(_) => Tag::StorageRead,
            SpanKind::BatchPreprocessed => Tag::BatchPreprocessed,
            SpanKind::BatchWait => Tag::BatchWait,
            SpanKind::BatchConsumed => Tag::BatchConsumed,
            SpanKind::Op(_) => Tag::Op,
            SpanKind::FaultInjected(_) => Tag::FaultInjected,
            SpanKind::WorkerDied => Tag::WorkerDied,
            SpanKind::BatchRedispatched => Tag::BatchRedispatched,
            SpanKind::BatchStolen => Tag::BatchStolen,
            SpanKind::LaneAssigned(_) => Tag::LaneAssigned,
            SpanKind::PrefetchResized => Tag::PrefetchResized,
        }
    }

    /// The tier, op, fault-op or lane name the kind carries; empty for
    /// the nameless kinds.
    pub(crate) fn name(&self) -> &str {
        match self {
            SpanKind::StorageRead(name)
            | SpanKind::Op(name)
            | SpanKind::FaultInjected(name)
            | SpanKind::LaneAssigned(name) => name,
            _ => "",
        }
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
        Line::from_event(event).map(Line::to_record)
    }

    /// The record's fields, borrowing its kind's name.
    fn line(&self) -> Line<&str> {
        Line {
            tag: self.kind.tag(),
            name: self.kind.name(),
            pid: self.pid,
            batch_id: self.batch_id,
            start: self.start,
            duration: self.duration,
            out_of_order: self.out_of_order,
            queue_delay: self.queue_delay,
        }
    }

    /// Serializes to the CSV-ish log-line format.
    #[must_use]
    pub fn to_log_line(&self) -> String {
        let mut line = String::new();
        self.line().write_to(&mut line);
        line
    }

    /// Size of the serialized record in bytes (log-storage accounting),
    /// computed without serializing it.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.line().bytes()
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
    for tag in [
        Tag::BatchPreprocessed,
        Tag::BatchWait,
        Tag::BatchConsumed,
        Tag::BatchRedispatched,
        Tag::BatchStolen,
        Tag::PrefetchResized,
        Tag::FaultInjected,
        Tag::LaneAssigned,
        Tag::StorageRead,
    ] {
        let Some(rest) = label.strip_prefix(tag.prefix()) else {
            continue;
        };
        let (idx, name) = if tag.has_name() {
            rest.split_once('_')
                .ok_or_else(|| format!("label '{label}' missing its name"))?
        } else {
            (rest, "")
        };
        let id = idx.parse().map_err(|e| format!("bad batch id: {e}"))?;
        return Ok((tag.kind(name), id));
    }
    if label == Tag::WorkerDied.prefix() {
        return Ok((SpanKind::WorkerDied, 0));
    }
    match label.strip_prefix(Tag::Op.prefix()) {
        Some(name) if !name.is_empty() => Ok((SpanKind::Op(name.to_string()), 0)),
        _ => Err(format!("unrecognized span label '{label}'")),
    }
}

/// A [`SpanKind`]'s variant without its name: what the log stores for a
/// record's kind, beside the name's interned id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    StorageRead,
    BatchPreprocessed,
    BatchWait,
    BatchConsumed,
    Op,
    FaultInjected,
    WorkerDied,
    BatchRedispatched,
    BatchStolen,
    LaneAssigned,
    PrefetchResized,
}

impl Tag {
    /// The label's fixed text, before the batch id: all of a worker
    /// death's label, and the `S` before an op's name.
    const fn prefix(self) -> &'static str {
        match self {
            Tag::StorageRead => "SStorageRead_",
            Tag::BatchPreprocessed => "SBatchPreprocessed_",
            Tag::BatchWait => "SBatchWait_",
            Tag::BatchConsumed => "SBatchConsumed_",
            Tag::Op => "S",
            Tag::FaultInjected => "SFaultInjected_",
            Tag::WorkerDied => "SWorkerDied",
            Tag::BatchRedispatched => "SBatchRedispatched_",
            Tag::BatchStolen => "SBatchStolen_",
            Tag::LaneAssigned => "SLaneAssigned_",
            Tag::PrefetchResized => "SPrefetchResized_",
        }
    }

    /// Whether the label carries the batch id: every kind but ops and
    /// worker deaths.
    const fn has_batch(self) -> bool {
        !matches!(self, Tag::Op | Tag::WorkerDied)
    }

    /// Whether the kind carries a name. The name ends the label, after a
    /// `_` when a batch id precedes it.
    pub(crate) const fn has_name(self) -> bool {
        matches!(
            self,
            Tag::StorageRead | Tag::Op | Tag::FaultInjected | Tag::LaneAssigned
        )
    }

    /// The kind with `name` as its payload; nameless kinds ignore it.
    pub(crate) fn kind(self, name: &str) -> SpanKind {
        match self {
            Tag::StorageRead => SpanKind::StorageRead(name.to_string()),
            Tag::BatchPreprocessed => SpanKind::BatchPreprocessed,
            Tag::BatchWait => SpanKind::BatchWait,
            Tag::BatchConsumed => SpanKind::BatchConsumed,
            Tag::Op => SpanKind::Op(name.to_string()),
            Tag::FaultInjected => SpanKind::FaultInjected(name.to_string()),
            Tag::WorkerDied => SpanKind::WorkerDied,
            Tag::BatchRedispatched => SpanKind::BatchRedispatched,
            Tag::BatchStolen => SpanKind::BatchStolen,
            Tag::LaneAssigned => SpanKind::LaneAssigned(name.to_string()),
            Tag::PrefetchResized => SpanKind::PrefetchResized,
        }
    }

    /// Bytes of the label [`write_label`] writes.
    fn label_len(self, batch_id: u64, name: &str) -> usize {
        let batch = if self.has_batch() {
            digits(batch_id)
        } else {
            0
        };
        let name = if self.has_name() {
            usize::from(self.has_batch()) + name.len()
        } else {
            0
        };
        self.prefix().len() + batch + name
    }
}

/// Appends the label of a `tag` span of batch `batch_id` carrying `name`.
fn write_label(out: &mut String, tag: Tag, batch_id: u64, name: &str) {
    out.push_str(tag.prefix());
    if tag.has_batch() {
        let _ = write!(out, "{batch_id}");
    }
    if tag.has_name() {
        if tag.has_batch() {
            out.push('_');
        }
        out.push_str(name);
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// One log line's fields, with the kind's name as `N`: borrowed while an
/// event is logged, and an interned id in the stored log, so a stored
/// line is `Copy` and owns no heap memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line<N> {
    pub(crate) tag: Tag,
    pub(crate) name: N,
    pub(crate) pid: u32,
    pub(crate) batch_id: u64,
    pub(crate) start: Time,
    pub(crate) duration: Span,
    pub(crate) out_of_order: bool,
    pub(crate) queue_delay: Span,
}

impl<N> Line<N> {
    /// The same line carrying `name` instead.
    pub(crate) fn with_name<M>(self, name: M) -> Line<M> {
        Line {
            tag: self.tag,
            name,
            pid: self.pid,
            batch_id: self.batch_id,
            start: self.start,
            duration: self.duration,
            out_of_order: self.out_of_order,
            queue_delay: self.queue_delay,
        }
    }
}

impl<'a> Line<&'a str> {
    /// [`TraceRecord::from_event`], borrowing the event's name: the log
    /// takes this form of each event and allocates nothing for it.
    pub(crate) fn from_event(event: &'a TraceEvent<'_>) -> Option<Line<&'a str>> {
        let span = |tag, name: &'a str, pid, batch_id, start, duration| Line {
            tag,
            name,
            pid,
            batch_id,
            start,
            duration,
            out_of_order: false,
            queue_delay: Span::ZERO,
        };
        let instant = |tag, name, pid, batch_id, at| span(tag, name, pid, batch_id, at, Span::ZERO);
        Some(match *event {
            TraceEvent::Op {
                pid,
                batch_id,
                ref name,
                start,
                dur,
            } => span(Tag::Op, name, pid, batch_id, start, dur),
            TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                read,
            } => span(
                Tag::StorageRead,
                read.tier.as_str(),
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
            } => span(Tag::BatchPreprocessed, "", pid, batch_id, start, dur),
            TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            } => Line {
                out_of_order,
                queue_delay,
                ..span(Tag::BatchWait, "", pid, batch_id, start, dur)
            },
            TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                ..
            } => span(Tag::BatchConsumed, "", pid, batch_id, start, dur),
            TraceEvent::FaultInjected {
                pid,
                batch_id,
                ref op,
                at,
            } => instant(Tag::FaultInjected, op, pid, batch_id, at),
            TraceEvent::WorkerDied { pid, at } => instant(Tag::WorkerDied, "", pid, 0, at),
            TraceEvent::BatchRedispatched {
                batch_id,
                to_pid,
                at,
                ..
            } => instant(Tag::BatchRedispatched, "", to_pid, batch_id, at),
            TraceEvent::BatchStolen {
                batch_id,
                to_pid,
                at,
                ..
            } => instant(Tag::BatchStolen, "", to_pid, batch_id, at),
            TraceEvent::LaneAssigned {
                batch_id,
                ref lane,
                to_pid,
                at,
            } => instant(Tag::LaneAssigned, lane, to_pid, batch_id, at),
            TraceEvent::PrefetchResized { target, at } => {
                instant(Tag::PrefetchResized, "", MAIN_OS_PID, target as u64, at)
            }
            TraceEvent::Dispatched { .. } | TraceEvent::Gauge { .. } => return None,
        })
    }

    /// Bytes of the serialized line, counted from the label's fixed text
    /// and each number's digits without formatting anything: the five
    /// commas, the one-digit out-of-order flag and the newline are 7.
    pub(crate) fn bytes(&self) -> u64 {
        let numbers = digits(u64::from(self.pid))
            + digits(self.start.as_nanos())
            + digits(self.duration.as_nanos())
            + digits(self.queue_delay.as_nanos());
        (self.tag.label_len(self.batch_id, self.name) + numbers + 7) as u64
    }

    /// Appends the serialized line (the CSV-ish log-line format).
    pub(crate) fn write_to(&self, out: &mut String) {
        write_label(out, self.tag, self.batch_id, self.name);
        let _ = writeln!(
            out,
            ",{},{},{},{},{}",
            self.pid,
            self.start.as_nanos(),
            self.duration.as_nanos(),
            u8::from(self.out_of_order),
            self.queue_delay.as_nanos(),
        );
    }

    /// The owned record.
    pub(crate) fn to_record(self) -> TraceRecord {
        TraceRecord {
            kind: self.tag.kind(self.name),
            pid: self.pid,
            batch_id: self.batch_id,
            start: self.start,
            duration: self.duration,
            out_of_order: self.out_of_order,
            queue_delay: self.queue_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// One kind of every variant, each named kind with a name of `name`.
    fn every_kind(name: &str) -> Vec<SpanKind> {
        [
            Tag::StorageRead,
            Tag::BatchPreprocessed,
            Tag::BatchWait,
            Tag::BatchConsumed,
            Tag::Op,
            Tag::FaultInjected,
            Tag::WorkerDied,
            Tag::BatchRedispatched,
            Tag::BatchStolen,
            Tag::LaneAssigned,
            Tag::PrefetchResized,
        ]
        .into_iter()
        .map(|tag| tag.kind(name))
        .collect()
    }

    /// 0, both sides of every 9→10 digit boundary, and `max`.
    fn digit_edges(max: u64) -> Vec<u64> {
        let mut edges = vec![0, max];
        for k in 1..=max.ilog10() {
            let power = 10u64.pow(k);
            edges.extend([power - 1, power]);
        }
        edges
    }

    #[test]
    fn log_bytes_counts_serialized_length() {
        for kind in every_kind("page-cache") {
            let r = record(kind.clone());
            assert_eq!(r.log_bytes(), r.to_log_line().len() as u64, "{kind:?}");
            for edge in digit_edges(u64::MAX) {
                for r in [
                    TraceRecord {
                        batch_id: edge,
                        ..r.clone()
                    },
                    TraceRecord {
                        start: Time::from_nanos(edge),
                        ..r.clone()
                    },
                    TraceRecord {
                        duration: Span::from_nanos(edge),
                        ..r.clone()
                    },
                    TraceRecord {
                        queue_delay: Span::from_nanos(edge),
                        ..r.clone()
                    },
                    TraceRecord {
                        out_of_order: true,
                        ..r.clone()
                    },
                ] {
                    assert_eq!(r.log_bytes(), r.to_log_line().len() as u64, "{r:?}");
                }
            }
            for edge in digit_edges(u64::from(u32::MAX)) {
                let pid = u32::try_from(edge).unwrap();
                let r = TraceRecord { pid, ..r.clone() };
                assert_eq!(r.log_bytes(), r.to_log_line().len() as u64, "{r:?}");
            }
        }
        assert_eq!(digit_edges(999).len(), 6, "0, 999, 9, 10, 99, 100");
    }

    /// A number drawn from 0, a digit boundary, the maximum or anywhere.
    fn number() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            (1u32..=19, any::<bool>()).prop_map(|(k, above)| 10u64.pow(k) - u64::from(!above)),
            Just(u64::MAX),
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn computed_log_bytes_equal_the_formatted_length(
            variant in 0usize..11,
            name in "[ -~\u{e9}\u{4e2d}]{0,24}",
            pid in number(),
            batch_id in number(),
            start in number(),
            duration in number(),
            out_of_order in any::<bool>(),
            queue_delay in number(),
        ) {
            let r = TraceRecord {
                kind: every_kind(&name).swap_remove(variant),
                pid: (pid % (u64::from(u32::MAX) + 1)) as u32,
                batch_id,
                start: Time::from_nanos(start),
                duration: Span::from_nanos(duration),
                out_of_order,
                queue_delay: Span::from_nanos(queue_delay),
            };
            prop_assert_eq!(r.log_bytes(), r.to_log_line().len() as u64);
        }
    }
}
