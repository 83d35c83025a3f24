//! Chrome Trace Viewer export (the format the PyTorch profiler emits and
//! `chrome://tracing` consumes), including the data-flow arrows between
//! `SBatchPreprocessed` spans and their `SBatchConsumed` counterparts.
//! Fault-injection marks (`SFaultInjected_*`, `SWorkerDied`,
//! `SBatchRedispatched_*`) render as instant events on the process they
//! happened on.

use serde_json::{json, Value};

use super::analysis::batch_timelines;
use super::record::{parse_label, SpanKind, TraceRecord};

/// Export options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceOptions {
    /// Coarse traces show only batch-level spans (the paper's Figure 2);
    /// fine traces add every per-operation span.
    pub coarse: bool,
}

/// Converts LotusTrace records into a Chrome Trace Viewer JSON document.
///
/// LotusTrace events carry **negative** synthetic ids so they can be
/// merged with a PyTorch-profiler trace (whose ids are positive) without
/// collisions — see [`merge_traces`].
#[must_use]
pub fn to_chrome_trace(records: &[TraceRecord], options: ChromeTraceOptions) -> Value {
    let mut events = Vec::new();
    let mut next_id: i64 = -1;
    let mut take_id = || {
        let id = next_id;
        next_id -= 1;
        id
    };

    for r in records {
        if options.coarse && matches!(r.kind, SpanKind::Op(_) | SpanKind::StorageRead(_)) {
            continue;
        }
        if r.kind.is_instant() {
            // Zero-duration lifecycle marks (faults, deaths, redispatches)
            // become process-scoped instant events.
            events.push(json!({
                "name": r.kind.label(r.batch_id),
                "ph": "i",
                "s": "p",
                "ts": r.start.as_nanos() as f64 / 1e3,
                "pid": r.pid,
                "tid": r.pid,
                "id": take_id(),
                "args": json!({
                    "batch_id": r.batch_id,
                }),
            }));
            continue;
        }
        events.push(json!({
            "name": r.kind.label(r.batch_id),
            "ph": "X",
            "ts": r.start.as_nanos() as f64 / 1e3,
            "dur": r.duration.as_nanos() as f64 / 1e3,
            "pid": r.pid,
            "tid": r.pid,
            "id": take_id(),
            "args": json!({
                "batch_id": r.batch_id,
                "out_of_order": r.out_of_order,
                "queue_delay_ns": r.queue_delay.as_nanos(),
            }),
        }));
    }

    // Flow arrows: SBatchPreprocessed end → SBatchConsumed start.
    for timeline in batch_timelines(records) {
        let (Some((p_start, p_dur)), Some((c_start, _)), Some(worker)) = (
            timeline.preprocessed,
            timeline.consumed,
            timeline.worker_pid,
        ) else {
            continue;
        };
        let flow_id = take_id();
        let name = format!("batch_{}_flow", timeline.batch_id);
        let main_pid = records
            .iter()
            .find(|r| r.kind == SpanKind::BatchConsumed && r.batch_id == timeline.batch_id)
            .map_or(0, |r| r.pid);
        events.push(json!({
            "name": name.clone(),
            "ph": "s",
            "ts": (p_start + p_dur).as_nanos() as f64 / 1e3,
            "pid": worker,
            "tid": worker,
            "id": flow_id,
            "cat": "dataflow",
        }));
        events.push(json!({
            "name": name,
            "ph": "f",
            "bp": "e",
            "ts": c_start.as_nanos() as f64 / 1e3,
            "pid": main_pid,
            "tid": main_pid,
            "id": flow_id,
            "cat": "dataflow",
        }));
    }

    json!({ "traceEvents": events, "displayTimeUnit": "ms" })
}

/// Merges a LotusTrace document into another Chrome-trace document (e.g.
/// one emitted by the PyTorch profiler), preserving both event sets. The
/// negative LotusTrace ids guarantee no id collisions.
///
/// # Errors
///
/// Returns a description of the offending document when either side
/// lacks a `traceEvents` array (e.g. a foreign or truncated profile).
pub fn merge_traces(base: &Value, lotus: &Value) -> Result<Value, String> {
    let mut events = base
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "base document missing traceEvents".to_string())?
        .clone();
    events.extend(
        lotus
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or_else(|| "lotus document missing traceEvents".to_string())?
            .iter()
            .cloned(),
    );
    Ok(json!({ "traceEvents": events, "displayTimeUnit": "ms" }))
}

/// Parses a Chrome-trace document produced by [`to_chrome_trace`] back
/// into trace records (flow arrows and foreign events are skipped).
///
/// # Errors
///
/// Returns a description of the first malformed LotusTrace event.
pub fn from_chrome_trace(doc: &Value) -> Result<Vec<TraceRecord>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "document missing traceEvents".to_string())?;
    let mut records = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str);
        let instant = ph == Some("i");
        if ph != Some("X") && !instant {
            continue; // flow arrows, metadata
        }
        let Some(name) = e.get("name").and_then(Value::as_str) else {
            continue;
        };
        if !name.starts_with('S') {
            continue; // a foreign (e.g. PyTorch profiler) event
        }
        // Negative ids mark LotusTrace events.
        if e.get("id")
            .and_then(Value::as_i64)
            .is_some_and(|id| id >= 0)
        {
            continue;
        }
        let ts_us = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or("event missing ts")?;
        let dur_us = if instant {
            0.0
        } else {
            e.get("dur")
                .and_then(Value::as_f64)
                .ok_or("event missing dur")?
        };
        let pid = e
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or("event missing pid")?;
        let pid = u32::try_from(pid).map_err(|_| format!("pid {pid} above u32::MAX"))?;
        let batch_id = e
            .pointer("/args/batch_id")
            .and_then(Value::as_u64)
            .ok_or("event missing args.batch_id")?;
        let out_of_order = e
            .pointer("/args/out_of_order")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let queue_delay_ns = e
            .pointer("/args/queue_delay_ns")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let (kind, _) = parse_label(name)?;
        let (start, duration) = (nanos("ts", ts_us)?, nanos("dur", dur_us)?);
        if start.checked_add(duration).is_none() {
            return Err(format!("{name} ends past u64::MAX ns"));
        }
        records.push(TraceRecord {
            kind,
            pid,
            batch_id,
            start: lotus_sim::Time::from_nanos(start),
            duration: lotus_sim::Span::from_nanos(duration),
            out_of_order,
            queue_delay: lotus_sim::Span::from_nanos(queue_delay_ns),
        });
    }
    Ok(records)
}

/// Converts the microseconds of `field` to whole nanoseconds, refusing
/// a negative, non-finite or out-of-range value.
fn nanos(field: &str, us: f64) -> Result<u64, String> {
    let ns = (us * 1e3).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value out of range.
    if us.is_sign_negative() || !(0.0..u64::MAX as f64).contains(&ns) {
        return Err(format!("{field} {us} µs is not a time in u64 nanoseconds"));
    }
    Ok(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_sim::{Span, Time};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                kind: SpanKind::Op("Loader".into()),
                pid: 2,
                batch_id: 0,
                start: Time::from_nanos(0),
                duration: Span::from_micros(800),
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceRecord {
                kind: SpanKind::BatchPreprocessed,
                pid: 2,
                batch_id: 0,
                start: Time::from_nanos(0),
                duration: Span::from_millis(2),
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceRecord {
                kind: SpanKind::BatchConsumed,
                pid: 1,
                batch_id: 0,
                start: Time::from_nanos(3_000_000),
                duration: Span::from_millis(1),
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
        ]
    }

    fn events(v: &Value) -> &Vec<Value> {
        v.get("traceEvents").unwrap().as_array().unwrap()
    }

    #[test]
    fn fine_trace_contains_spans_and_flow_arrows() {
        let doc = to_chrome_trace(&sample(), ChromeTraceOptions::default());
        let evs = events(&doc);
        let names: Vec<&str> = evs.iter().filter_map(|e| e["name"].as_str()).collect();
        assert!(names.contains(&"SLoader"));
        assert!(names.contains(&"SBatchPreprocessed_0"));
        assert!(names.contains(&"batch_0_flow"));
        let phases: Vec<&str> = evs.iter().filter_map(|e| e["ph"].as_str()).collect();
        assert!(phases.contains(&"s"), "flow start event");
        assert!(phases.contains(&"f"), "flow finish event");
    }

    #[test]
    fn coarse_trace_drops_op_spans() {
        let doc = to_chrome_trace(&sample(), ChromeTraceOptions { coarse: true });
        let names: Vec<&str> = events(&doc)
            .iter()
            .filter_map(|e| e["name"].as_str())
            .collect();
        assert!(!names.contains(&"SLoader"));
        assert!(names.contains(&"SBatchPreprocessed_0"));
    }

    #[test]
    fn all_ids_are_negative_synthetic() {
        let doc = to_chrome_trace(&sample(), ChromeTraceOptions::default());
        for e in events(&doc) {
            if let Some(id) = e.get("id").and_then(Value::as_i64) {
                assert!(id < 0, "LotusTrace ids must be negative, got {id}");
            }
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let doc = to_chrome_trace(&sample(), ChromeTraceOptions { coarse: true });
        let pre = events(&doc)
            .iter()
            .find(|e| e["name"] == "SBatchPreprocessed_0")
            .unwrap();
        assert_eq!(pre["dur"].as_f64().unwrap(), 2_000.0);
    }

    #[test]
    fn export_import_round_trips() {
        let records = sample();
        let doc = to_chrome_trace(&records, ChromeTraceOptions::default());
        let parsed = from_chrome_trace(&doc).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (p, r) in parsed.iter().zip(&records) {
            assert_eq!(p.kind, r.kind);
            assert_eq!(p.pid, r.pid);
            assert_eq!(p.start, r.start);
            assert_eq!(p.duration, r.duration);
        }
    }

    #[test]
    fn fault_marks_export_as_instants_and_round_trip() {
        let records = vec![
            TraceRecord {
                kind: SpanKind::FaultInjected("ToTensor".into()),
                pid: 4243,
                batch_id: 4,
                start: Time::from_nanos(5_000),
                duration: Span::ZERO,
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceRecord {
                kind: SpanKind::WorkerDied,
                pid: 4244,
                batch_id: 0,
                start: Time::from_nanos(9_000),
                duration: Span::ZERO,
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceRecord {
                kind: SpanKind::BatchRedispatched,
                pid: 4245,
                batch_id: 4,
                start: Time::from_nanos(10_000),
                duration: Span::ZERO,
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
        ];
        let doc = to_chrome_trace(&records, ChromeTraceOptions::default());
        let instants: Vec<&Value> = events(&doc).iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 3);
        assert!(
            instants.iter().all(|e| e["s"] == "p"),
            "process-scoped instants"
        );
        let parsed = from_chrome_trace(&doc).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn wait_queue_delay_survives_the_chrome_round_trip() {
        let records = vec![TraceRecord {
            kind: SpanKind::BatchWait,
            pid: 1,
            batch_id: 3,
            start: Time::from_nanos(1_000),
            duration: Span::from_micros(1),
            out_of_order: true,
            queue_delay: Span::from_nanos(123_456),
        }];
        let doc = to_chrome_trace(&records, ChromeTraceOptions::default());
        let parsed = from_chrome_trace(&doc).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn import_skips_foreign_events() {
        let torch = json!({ "traceEvents": json!([json!({
            "name": "aten::conv2d", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "id": 5
        })])});
        assert!(from_chrome_trace(&torch).unwrap().is_empty());
    }

    #[test]
    fn merge_keeps_both_event_sets() {
        let torch = json!({ "traceEvents": json!([json!({ "name": "aten::conv2d", "ph": "X", "id": 5 })]) });
        let lotus = to_chrome_trace(&sample(), ChromeTraceOptions { coarse: true });
        let merged = merge_traces(&torch, &lotus).expect("both sides well-formed");
        let names: Vec<&str> = events(&merged)
            .iter()
            .filter_map(|e| e["name"].as_str())
            .collect();
        assert!(names.contains(&"aten::conv2d"));
        assert!(names.contains(&"SBatchPreprocessed_0"));
    }

    #[test]
    fn merge_rejects_documents_without_trace_events() {
        let lotus = to_chrome_trace(&sample(), ChromeTraceOptions { coarse: true });
        let bad = json!({ "schemaVersion": 1 });
        let err = merge_traces(&bad, &lotus).unwrap_err();
        assert!(err.contains("base document missing traceEvents"));
        let err = merge_traces(&lotus, &bad).unwrap_err();
        assert!(err.contains("lotus document missing traceEvents"));
    }
}
