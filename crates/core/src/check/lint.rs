//! The trace invariant linter: structural checks over recorded (or
//! imported) [`TraceRecord`] streams, applicable both to freshly captured
//! `LotusTrace` logs and to Chrome-trace exports read back from disk
//! (`lotus check --trace`).
//!
//! Rules:
//!
//! * **balanced-spans** — per batch id, at most one `BatchWait` and one
//!   `BatchConsumed`; a consume requires a wait, a wait requires a fetch;
//!   a second `BatchPreprocessed` is legal only for a batch with a
//!   `BatchRedispatched` mark.
//! * **track-monotonicity** — within each (pid, span-kind) track, record
//!   starts never go backwards.
//! * **accounting-identity** — `preprocessed.end ≤ wait.end ≤
//!   consumed.start` per batch (the \[T1\]/\[T2\] ordering), and each
//!   wait's `queue_delay` equals exactly the gap between the fetch end
//!   and the delivery point (cache-served waits measure to their start,
//!   queue-served waits to their end).
//! * **span-overlap** — spans on one OS thread (pid) must nest or be
//!   disjoint; a partial overlap means two execution scopes were open
//!   at once on a single thread, which cannot happen in a faithful
//!   native track.
//! * **orphan-instant** — `BatchRedispatched` requires an earlier
//!   `WorkerDied`.
//! * **storage-containment** — each `StorageRead` span lies inside a
//!   `BatchPreprocessed` span of the same (pid, batch), when that fetch
//!   is present (a worker that died mid-fetch leaves reads with no
//!   enclosing span; those are tolerated).
//! * **report** (when [`ReportFacts`] are supplied) — consumed-batch
//!   count matches the job report and no record extends past the reported
//!   elapsed time; with a report the trace is also required to be
//!   *complete*: every delivered batch is consumed.
//!
//! Gauge bounds (queue depths within `[0, cap]`, the pinned cache and
//! in-flight inventory within `prefetch_factor × num_workers`) are judged
//! on the live event stream by [`verify`](super::verify), not here.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use serde_json::Value;

use crate::trace::chrome::from_chrome_trace;
use crate::trace::{SpanKind, TraceRecord};
use lotus_sim::Span;

/// Typed error for loading and parsing trace files — the linter never
/// panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The file could not be read.
    Io {
        /// Offending path.
        path: String,
        /// OS error description.
        message: String,
    },
    /// The file looked like JSON but the document is malformed.
    Json {
        /// Offending path.
        path: String,
        /// Parser error description.
        message: String,
    },
    /// A structurally valid document or log contained a malformed record.
    Malformed {
        /// Offending path.
        path: String,
        /// 1-based line number for log files, 0 for JSON documents.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            CheckError::Json { path, message } => {
                write!(f, "{path}: malformed JSON document: {message}")
            }
            CheckError::Malformed {
                path,
                line: 0,
                message,
            } => write!(f, "{path}: malformed trace event: {message}"),
            CheckError::Malformed {
                path,
                line,
                message,
            } => write!(f, "{path}:{line}: malformed log line: {message}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Which linter rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// Begin/end pairing per batch (wait/consume balance, fetch coverage).
    BalancedSpans,
    /// Per-(pid, kind) start monotonicity.
    TrackMonotonicity,
    /// T1/T2 ordering and queue-delay arithmetic.
    AccountingIdentity,
    /// Same-thread spans that partially overlap instead of nesting.
    SpanOverlap,
    /// Instants that require a preceding cause (redispatch after death).
    OrphanInstant,
    /// Storage reads outside their issuing fetch span.
    StorageContainment,
    /// Trace-vs-JobReport agreement.
    Report,
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintRule::BalancedSpans => "balanced-spans",
            LintRule::TrackMonotonicity => "track-monotonicity",
            LintRule::AccountingIdentity => "accounting-identity",
            LintRule::SpanOverlap => "span-overlap",
            LintRule::OrphanInstant => "orphan-instant",
            LintRule::StorageContainment => "storage-containment",
            LintRule::Report => "report",
        })
    }
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintFinding {
    /// The violated rule.
    pub rule: LintRule,
    /// The batch the finding concerns, when it concerns one.
    pub batch_id: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.batch_id {
            Some(id) => write!(f, "[{}] batch {id}: {}", self.rule, self.message),
            None => write!(f, "[{}] {}", self.rule, self.message),
        }
    }
}

/// Facts from a [`JobReport`](lotus_dataflow::JobReport) the trace must
/// agree with. Supplying these also asserts the trace is a *complete*
/// epoch (every wait has its consume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportFacts {
    /// End-to-end elapsed virtual time.
    pub elapsed: Span,
    /// Batches the report claims were consumed.
    pub batches: u64,
}

fn track(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::StorageRead(_) => "storage",
        SpanKind::Op(_) => "op",
        SpanKind::BatchPreprocessed => "preprocessed",
        SpanKind::BatchWait => "wait",
        SpanKind::BatchConsumed => "consumed",
        SpanKind::FaultInjected(_) => "fault",
        SpanKind::WorkerDied => "died",
        SpanKind::BatchRedispatched => "redispatched",
        SpanKind::BatchStolen => "stolen",
        SpanKind::LaneAssigned(_) => "lane",
        SpanKind::PrefetchResized => "prefetch",
    }
}

/// Lints a record stream. Findings come back in rule order; an empty
/// vector means the trace is internally consistent.
pub fn lint_records(records: &[TraceRecord], report: Option<&ReportFacts>) -> Vec<LintFinding> {
    let mut findings = Vec::new();

    #[derive(Default)]
    struct Batch {
        preprocessed: Vec<(u64, u64)>, // (start ns, end ns) per fetch
        waits: u32,
        consumes: u32,
        redispatched: bool,
    }
    let mut batches: BTreeMap<u64, Batch> = BTreeMap::new();
    let mut died_before = false;

    for r in records {
        match r.kind {
            SpanKind::BatchPreprocessed => batches
                .entry(r.batch_id)
                .or_default()
                .preprocessed
                .push((r.start.as_nanos(), r.end().as_nanos())),
            SpanKind::BatchWait => batches.entry(r.batch_id).or_default().waits += 1,
            SpanKind::BatchConsumed => batches.entry(r.batch_id).or_default().consumes += 1,
            SpanKind::BatchRedispatched => {
                batches.entry(r.batch_id).or_default().redispatched = true;
                if !died_before {
                    findings.push(LintFinding {
                        rule: LintRule::OrphanInstant,
                        batch_id: Some(r.batch_id),
                        message: "BatchRedispatched with no preceding WorkerDied".into(),
                    });
                }
            }
            SpanKind::WorkerDied => died_before = true,
            // Scheduling-policy instants annotate a dispatch; they don't
            // participate in span pairing.
            SpanKind::Op(_)
            | SpanKind::FaultInjected(_)
            | SpanKind::StorageRead(_)
            | SpanKind::BatchStolen
            | SpanKind::LaneAssigned(_)
            | SpanKind::PrefetchResized => {}
        }
    }

    for (&id, b) in &batches {
        let fetches = b.preprocessed.len();
        if b.waits > 1 {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: format!("{} BatchWait spans (at most one delivery)", b.waits),
            });
        }
        if b.consumes > 1 {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: format!("{} BatchConsumed spans (at most one consume)", b.consumes),
            });
        }
        if b.consumes > 0 && b.waits == 0 {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: "consumed without a BatchWait delivery".into(),
            });
        }
        if b.waits > 0 && fetches == 0 {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: "delivered without a BatchPreprocessed fetch".into(),
            });
        }
        if fetches > 1 && !b.redispatched {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: format!("{fetches} fetches without a BatchRedispatched mark"),
            });
        }
        if report.is_some() && b.waits > 0 && b.consumes == 0 {
            findings.push(LintFinding {
                rule: LintRule::BalancedSpans,
                batch_id: Some(id),
                message: "delivered but never consumed in a complete epoch".into(),
            });
        }
    }

    // Track monotonicity: starts never regress within a (pid, kind) track.
    let mut cursors: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
    for r in records {
        let key = (r.pid, track(&r.kind));
        let start = r.start.as_nanos();
        if let Some(&prev) = cursors.get(&key) {
            if start < prev {
                findings.push(LintFinding {
                    rule: LintRule::TrackMonotonicity,
                    batch_id: Some(r.batch_id),
                    message: format!(
                        "{} track on pid {} goes backwards: {prev}ns then {start}ns",
                        key.1, r.pid
                    ),
                });
            }
        }
        cursors.insert(key, start);
    }

    // Same-thread span overlap: one OS thread executes one scope at a
    // time, so its spans form a forest — every pair either nests or is
    // disjoint. A stack sweep over start-sorted spans finds partial
    // overlaps in O(n log n); touching endpoints (end == next start)
    // count as disjoint.
    let mut by_pid: BTreeMap<u32, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        by_pid.entry(r.pid).or_default().push(r);
    }
    for (pid, mut spans) in by_pid {
        // Start ascending; on ties the longer (enclosing) span first.
        spans.sort_by_key(|r| (r.start.as_nanos(), std::cmp::Reverse(r.end().as_nanos())));
        let mut open: Vec<&TraceRecord> = Vec::new();
        for r in spans {
            let (s, e) = (r.start.as_nanos(), r.end().as_nanos());
            while open.last().is_some_and(|t| t.end().as_nanos() <= s) {
                open.pop();
            }
            if let Some(t) = open.last() {
                let te = t.end().as_nanos();
                if te < e {
                    findings.push(LintFinding {
                        rule: LintRule::SpanOverlap,
                        batch_id: Some(r.batch_id),
                        message: format!(
                            "{} span [{s}ns, {e}ns] straddles the {} span ending at {te}ns on pid {pid}",
                            track(&r.kind),
                            track(&t.kind)
                        ),
                    });
                    // Keep the enclosing frame; skipping the straddler
                    // avoids a cascade of findings against it.
                    continue;
                }
            }
            open.push(r);
        }
    }

    // Accounting identities: fetch-before-deliver-before-consume ordering
    // and exact queue-delay arithmetic.
    for r in records {
        if r.kind != SpanKind::BatchWait {
            continue;
        }
        let Some(b) = batches.get(&r.batch_id) else {
            continue;
        };
        // On a redispatched batch the surviving (latest) fetch produced
        // the delivered payload.
        let Some(&(_, fetch_end)) = b.preprocessed.iter().max_by_key(|&&(_, end)| end) else {
            continue; // already a balanced-spans finding
        };
        let delivery_point = if r.out_of_order {
            // Cache-served: the 1 µs wait is a marker; residency ran
            // until the wait began.
            r.start.as_nanos()
        } else {
            r.end().as_nanos()
        };
        if delivery_point < fetch_end {
            findings.push(LintFinding {
                rule: LintRule::AccountingIdentity,
                batch_id: Some(r.batch_id),
                message: format!(
                    "delivered at {delivery_point}ns before its fetch ended at {fetch_end}ns"
                ),
            });
            continue;
        }
        let expected = delivery_point - fetch_end;
        let recorded = r.queue_delay.as_nanos();
        if recorded != expected {
            findings.push(LintFinding {
                rule: LintRule::AccountingIdentity,
                batch_id: Some(r.batch_id),
                message: format!(
                    "queue_delay {recorded}ns != delivery({delivery_point}ns) - fetch_end({fetch_end}ns) = {expected}ns"
                ),
            });
        }
    }
    for r in records {
        if r.kind != SpanKind::BatchConsumed {
            continue;
        }
        if let Some(b) = batches.get(&r.batch_id) {
            for &(_, fetch_end) in &b.preprocessed {
                if fetch_end > r.start.as_nanos() {
                    findings.push(LintFinding {
                        rule: LintRule::AccountingIdentity,
                        batch_id: Some(r.batch_id),
                        message: format!(
                            "consumed at {}ns before a fetch ended at {fetch_end}ns",
                            r.start.as_nanos()
                        ),
                    });
                }
            }
        }
    }

    // Storage containment: a read lies inside the fetch that issued it —
    // the same (pid, batch) BatchPreprocessed span — when such a fetch is
    // present. Reads whose fetch never completed (the worker died mid-
    // batch) have no enclosing span and are tolerated.
    let mut fetch_spans: BTreeMap<(u32, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if r.kind == SpanKind::BatchPreprocessed {
            fetch_spans
                .entry((r.pid, r.batch_id))
                .or_default()
                .push((r.start.as_nanos(), r.end().as_nanos()));
        }
    }
    for r in records {
        let SpanKind::StorageRead(ref tier) = r.kind else {
            continue;
        };
        let Some(spans) = fetch_spans.get(&(r.pid, r.batch_id)) else {
            continue;
        };
        let (s, e) = (r.start.as_nanos(), r.end().as_nanos());
        if !spans.iter().any(|&(fs, fe)| s >= fs && e <= fe) {
            findings.push(LintFinding {
                rule: LintRule::StorageContainment,
                batch_id: Some(r.batch_id),
                message: format!(
                    "{tier} read [{s}ns, {e}ns] on pid {} escapes its BatchPreprocessed span",
                    r.pid
                ),
            });
        }
    }

    if let Some(facts) = report {
        let consumed = records
            .iter()
            .filter(|r| r.kind == SpanKind::BatchConsumed)
            .count() as u64;
        if consumed != facts.batches {
            findings.push(LintFinding {
                rule: LintRule::Report,
                batch_id: None,
                message: format!(
                    "report claims {} consumed batches, trace shows {consumed}",
                    facts.batches
                ),
            });
        }
        let horizon = facts.elapsed.as_nanos();
        for r in records {
            if r.end().as_nanos() > horizon {
                findings.push(LintFinding {
                    rule: LintRule::Report,
                    batch_id: Some(r.batch_id),
                    message: format!(
                        "{} span ends at {}ns, past the reported elapsed {horizon}ns",
                        track(&r.kind),
                        r.end().as_nanos()
                    ),
                });
            }
        }
    }

    findings
}

/// Loads trace records from `path`, accepting either a Chrome-trace JSON
/// document (as written by `lotus trace --out`, `lotus run --out` and
/// the fig2 benches) or a LotusTrace log (one CSV record per line).
///
/// # Errors
///
/// Returns a typed [`CheckError`] — never panics — on unreadable files,
/// malformed JSON, or malformed records.
pub fn load_trace(path: &Path) -> Result<Vec<TraceRecord>, CheckError> {
    let shown = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| CheckError::Io {
        path: shown.clone(),
        message: e.to_string(),
    })?;
    if text.trim_start().starts_with('{') {
        let doc: Value = serde_json::from_str(&text).map_err(|e| CheckError::Json {
            path: shown.clone(),
            message: e.to_string(),
        })?;
        return from_chrome_trace(&doc).map_err(|message| CheckError::Malformed {
            path: shown,
            line: 0,
            message,
        });
    }
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            TraceRecord::parse_log_line(line).map_err(|message| CheckError::Malformed {
                path: shown.clone(),
                line: i + 1,
                message,
            })?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_sim::Time;

    fn span(kind: SpanKind, pid: u32, batch_id: u64, start: u64, dur: u64) -> TraceRecord {
        TraceRecord {
            kind,
            pid,
            batch_id,
            start: Time::from_nanos(start),
            duration: Span::from_nanos(dur),
            out_of_order: false,
            queue_delay: Span::ZERO,
        }
    }

    fn healthy() -> Vec<TraceRecord> {
        let mut wait = span(SpanKind::BatchWait, 4242, 0, 900, 100);
        wait.queue_delay = Span::from_nanos(0); // end 1000 == fetch end
        vec![
            span(SpanKind::BatchPreprocessed, 4243, 0, 0, 1000),
            wait,
            span(SpanKind::BatchConsumed, 4242, 0, 1000, 50),
        ]
    }

    #[test]
    fn healthy_trace_is_clean() {
        let f = lint_records(&healthy(), None);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
        let f = lint_records(
            &healthy(),
            Some(&ReportFacts {
                elapsed: Span::from_nanos(1050),
                batches: 1,
            }),
        );
        assert!(f.is_empty(), "unexpected findings with report: {f:?}");
    }

    #[test]
    fn double_wait_and_missing_fetch_are_flagged() {
        let records = vec![
            span(SpanKind::BatchWait, 4242, 3, 0, 10),
            span(SpanKind::BatchWait, 4242, 3, 20, 10),
        ];
        let f = lint_records(&records, None);
        assert!(f
            .iter()
            .any(|x| x.rule == LintRule::BalancedSpans && x.message.contains("2 BatchWait")));
        assert!(f.iter().any(|x| x.rule == LintRule::BalancedSpans
            && x.message.contains("without a BatchPreprocessed")));
    }

    #[test]
    fn backwards_track_is_flagged() {
        let records = vec![
            span(SpanKind::BatchPreprocessed, 4243, 0, 1000, 10),
            span(SpanKind::BatchPreprocessed, 4243, 1, 500, 10),
        ];
        let f = lint_records(&records, None);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::TrackMonotonicity);
    }

    #[test]
    fn wrong_queue_delay_breaks_the_identity() {
        let mut records = healthy();
        records[1].queue_delay = Span::from_nanos(7);
        let f = lint_records(&records, None);
        assert!(f.iter().any(
            |x| x.rule == LintRule::AccountingIdentity && x.message.contains("queue_delay 7ns")
        ));
    }

    #[test]
    fn cached_wait_measures_residency_to_its_start() {
        let mut records = healthy();
        records[1].out_of_order = true;
        records[1].start = Time::from_nanos(1500);
        records[1].duration = Span::from_nanos(1000); // 1 µs marker
        records[1].queue_delay = Span::from_nanos(500);
        records[2] = span(SpanKind::BatchConsumed, 4242, 0, 2500, 50);
        let f = lint_records(&records, None);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn same_thread_spans_must_nest_or_stay_disjoint() {
        // Nested (an op inside its fetch) and back-to-back spans are the
        // legal shapes.
        let nested = vec![
            span(SpanKind::BatchPreprocessed, 4243, 0, 0, 1000),
            span(SpanKind::Op("decode".into()), 4243, 0, 100, 300),
            span(SpanKind::Op("resize".into()), 4243, 0, 400, 200),
            span(SpanKind::BatchPreprocessed, 4243, 1, 1000, 500),
        ];
        assert!(
            !lint_records(&nested, None)
                .iter()
                .any(|x| x.rule == LintRule::SpanOverlap),
            "nested and touching spans must lint clean"
        );

        // A span that starts inside another but ends after it straddles
        // the frame boundary — impossible on a single thread.
        let straddling = vec![
            span(SpanKind::BatchPreprocessed, 4243, 0, 0, 1000),
            span(SpanKind::Op("decode".into()), 4243, 0, 600, 900),
        ];
        let f = lint_records(&straddling, None);
        assert!(
            f.iter().any(|x| x.rule == LintRule::SpanOverlap
                && x.message.contains("op span [600ns, 1500ns]")),
            "straddling span escaped: {f:?}"
        );

        // The same pair on two different pids is concurrency, not
        // overlap.
        let cross_thread = vec![
            span(SpanKind::BatchPreprocessed, 4243, 0, 0, 1000),
            span(SpanKind::BatchPreprocessed, 4244, 1, 600, 900),
        ];
        assert!(!lint_records(&cross_thread, None)
            .iter()
            .any(|x| x.rule == LintRule::SpanOverlap));
    }

    #[test]
    fn redispatch_without_death_is_an_orphan_instant() {
        let records = vec![span(SpanKind::BatchRedispatched, 4243, 5, 0, 0)];
        let f = lint_records(&records, None);
        assert!(f.iter().any(|x| x.rule == LintRule::OrphanInstant));
        let with_death = vec![
            span(SpanKind::WorkerDied, 4243, 0, 0, 0),
            span(SpanKind::BatchRedispatched, 4243, 5, 10, 0),
        ];
        assert!(!lint_records(&with_death, None)
            .iter()
            .any(|x| x.rule == LintRule::OrphanInstant));
    }

    #[test]
    fn storage_reads_must_nest_inside_their_fetch() {
        let mut records = healthy();
        // Contained read: inside worker 4243's [0, 1000] fetch of batch 0.
        records.push(span(
            SpanKind::StorageRead("object-store".into()),
            4243,
            0,
            100,
            300,
        ));
        assert!(
            lint_records(&records, None).is_empty(),
            "contained read must lint clean"
        );

        // Escaping read: extends past the fetch end.
        records.push(span(
            SpanKind::StorageRead("local-disk".into()),
            4243,
            0,
            900,
            400,
        ));
        let f = lint_records(&records, None);
        assert!(f
            .iter()
            .any(|x| x.rule == LintRule::StorageContainment && x.message.contains("local-disk")));

        // A read with no fetch by its (pid, batch) is tolerated — the
        // worker may have died mid-batch.
        let orphan = vec![span(
            SpanKind::StorageRead("object-store".into()),
            4250,
            9,
            0,
            100,
        )];
        assert!(!lint_records(&orphan, None)
            .iter()
            .any(|x| x.rule == LintRule::StorageContainment));
    }

    #[test]
    fn report_disagreement_is_flagged() {
        let f = lint_records(
            &healthy(),
            Some(&ReportFacts {
                elapsed: Span::from_nanos(900),
                batches: 2,
            }),
        );
        assert!(f
            .iter()
            .any(|x| x.rule == LintRule::Report && x.message.contains("report claims 2")));
        assert!(
            f.iter()
                .any(|x| x.rule == LintRule::Report
                    && x.message.contains("past the reported elapsed"))
        );
    }

    #[test]
    fn load_trace_returns_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join("lotus-check-lint-test");
        std::fs::create_dir_all(&dir).unwrap();

        let missing = load_trace(&dir.join("nope.json"));
        assert!(matches!(missing, Err(CheckError::Io { .. })));

        let bad_json = dir.join("bad.json");
        std::fs::write(&bad_json, "{ not json").unwrap();
        assert!(matches!(
            load_trace(&bad_json),
            Err(CheckError::Json { .. })
        ));

        let bad_line = dir.join("bad.log");
        std::fs::write(&bad_line, "SBatchWait_0,4242,0,10,0,0\nnot,a,record\n").unwrap();
        match load_trace(&bad_line) {
            Err(CheckError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a malformed-line error, got {other:?}"),
        }

        let good = dir.join("good.log");
        std::fs::write(&good, "SBatchWait_0,4242,0,10,0,0\n\n").unwrap();
        assert_eq!(load_trace(&good).unwrap().len(), 1);
    }
}
