//! Property-based tests for LotusTrace/LotusMap data structures: log-line
//! round trips, histogram-vs-exact agreement, mapping serialization, and
//! conservation laws of metric splitting.

use std::collections::BTreeMap;

use lotus_core::map::{split_metrics, split_metrics_mix_aware, MappedFunction, Mapping, OpMapping};
use lotus_core::metrics::TraceEvent;
use lotus_core::trace::hist::LogHistogram;
use lotus_core::trace::{SpanKind, TraceRecord};
use lotus_data::stats::Summary;
use lotus_sim::{Span, Time};
use lotus_uarch::{FnStats, FunctionProfile, HwEvents};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::BatchPreprocessed),
        Just(SpanKind::BatchWait),
        Just(SpanKind::BatchConsumed),
        Just(SpanKind::WorkerDied),
        Just(SpanKind::BatchRedispatched),
        "[A-Za-z][A-Za-z0-9_()]{0,24}".prop_map(SpanKind::Op),
        "[A-Za-z][A-Za-z0-9_()]{0,24}".prop_map(SpanKind::FaultInjected),
    ]
}

proptest! {
    #[test]
    fn batch_log_lines_round_trip(
        kind in arb_kind(),
        pid in 0u32..100_000,
        batch in 0u64..1 << 40,
        start in 0u64..1 << 50,
        dur in 0u64..1 << 50,
        ooo in any::<bool>(),
        queue_delay in 0u64..1 << 50,
    ) {
        let record = TraceRecord {
            kind: kind.clone(),
            pid,
            batch_id: batch,
            start: Time::from_nanos(start),
            duration: Span::from_nanos(dur),
            out_of_order: ooo,
            queue_delay: Span::from_nanos(queue_delay),
        };
        let parsed = TraceRecord::parse_log_line(&record.to_log_line()).unwrap();
        prop_assert_eq!(&parsed.kind, &record.kind);
        prop_assert_eq!(parsed.pid, record.pid);
        prop_assert_eq!(parsed.start, record.start);
        prop_assert_eq!(parsed.duration, record.duration);
        prop_assert_eq!(parsed.out_of_order, record.out_of_order);
        prop_assert_eq!(parsed.queue_delay, record.queue_delay);
        // Op and WorkerDied labels carry no batch id; all others round-trip it.
        if !matches!(record.kind, SpanKind::Op(_) | SpanKind::WorkerDied) {
            prop_assert_eq!(parsed.batch_id, record.batch_id);
        }
    }

    /// All six zero-duration marks — the fault marks (`FaultInjected`,
    /// `WorkerDied`, `BatchRedispatched`) and the policy marks
    /// (`BatchStolen`, `LaneAssigned`, `PrefetchResized`) — survive the
    /// full streaming path: sink event → trace record → log line → parsed
    /// record.
    #[test]
    fn instant_marks_round_trip_through_log_lines(
        which in 0usize..6,
        pid in 0u32..100_000,
        from_pid in 0u32..100_000,
        batch in 0u64..1 << 40,
        at in 0u64..1 << 50,
        op in "[A-Za-z][A-Za-z0-9_()]{0,24}",
        lane in "[a-z]{1,8}",
    ) {
        let at_t = Time::from_nanos(at);
        let event = match which {
            0 => TraceEvent::FaultInjected { pid, batch_id: batch, op: op.as_str().into(), at: at_t },
            1 => TraceEvent::WorkerDied { pid, at: at_t },
            2 => TraceEvent::BatchRedispatched { batch_id: batch, from_pid, to_pid: pid, at: at_t },
            3 => TraceEvent::BatchStolen { batch_id: batch, from_pid, to_pid: pid, at: at_t },
            4 => TraceEvent::LaneAssigned { batch_id: batch, lane: lane.as_str().into(), to_pid: pid, at: at_t },
            _ => TraceEvent::PrefetchResized { target: batch as usize, at: at_t },
        };
        let record = TraceRecord::from_event(&event).unwrap();
        prop_assert!(record.kind.is_instant());
        // Instant marks anchor at their instant and have no extent.
        prop_assert_eq!(record.start, at_t);
        prop_assert_eq!(record.duration, Span::ZERO);

        let parsed = TraceRecord::parse_log_line(&record.to_log_line()).unwrap();
        prop_assert_eq!(&parsed.kind, &record.kind);
        prop_assert_eq!(parsed.pid, record.pid);
        prop_assert_eq!(parsed.start, record.start);
        prop_assert_eq!(parsed.duration, Span::ZERO);
        prop_assert_eq!(parsed.out_of_order, false);
        prop_assert_eq!(parsed.queue_delay, Span::ZERO);
        // WorkerDied labels carry no batch id; the other marks round-trip it.
        if !matches!(record.kind, SpanKind::WorkerDied) {
            prop_assert_eq!(parsed.batch_id, record.batch_id);
        }
    }

    /// The streaming histogram agrees with exact statistics on means
    /// (exactly) and percentiles (within its documented quantization).
    #[test]
    fn histogram_tracks_exact_statistics(samples in prop::collection::vec(1_000u64..10_000_000_000, 2..300)) {
        let mut hist = LogHistogram::new();
        for &ns in &samples {
            hist.record(Span::from_nanos(ns));
        }
        let exact_ms: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e6).collect();
        let exact = Summary::of(&exact_ms);
        let approx = hist.summary_ms();
        prop_assert_eq!(approx.count, exact.count);
        prop_assert!((approx.mean - exact.mean).abs() <= 1e-9 * exact.mean.max(1.0));
        prop_assert!((approx.std - exact.std).abs() <= 1e-6 * exact.std.max(1.0));
        prop_assert_eq!(approx.min, exact.min);
        prop_assert_eq!(approx.max, exact.max);
        // The histogram implements nearest-rank percentiles; compare
        // against that definition with one log-bucket (≈4.4 %) of slack.
        let mut sorted = exact_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let nearest_rank_p90 =
            sorted[((0.9 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
        prop_assert!(
            approx.p90 >= nearest_rank_p90 * 0.95 && approx.p90 <= nearest_rank_p90 * 1.06,
            "p90 approx {} vs nearest-rank {}", approx.p90, nearest_rank_p90
        );
    }

    #[test]
    fn mapping_json_round_trips(
        ops in prop::collection::vec(("[a-z]{1,12}", prop::collection::vec(("[a-z_]{1,20}", 0usize..50, 0u64..500), 0..8)), 0..6)
    ) {
        let mut mapping = Mapping::new();
        for (op, functions) in ops {
            mapping.insert(OpMapping {
                op,
                functions: functions
                    .into_iter()
                    .map(|(name, runs, samples)| MappedFunction {
                        name,
                        library: "lib.so".into(),
                        captured_runs: runs,
                        total_runs: 50,
                        samples,
                    })
                    .collect(),
            });
        }
        let parsed = Mapping::from_json(&mapping.to_json()).unwrap();
        prop_assert_eq!(parsed, mapping);
    }

    /// Both splitting strategies conserve events: everything a mapped
    /// function collected ends up attributed, nothing more.
    #[test]
    fn splitting_conserves_counters(
        fn_cpu in prop::collection::vec(1u64..1_000_000, 1..8),
        t_a in 1u64..1_000_000,
        t_b in 1u64..1_000_000,
        samples_a in 1u64..1_000,
        samples_b in 1u64..1_000,
    ) {
        let mut mapping = Mapping::new();
        let mf = |name: String, samples: u64| MappedFunction {
            name,
            library: "lib.so".into(),
            captured_runs: 5,
            total_runs: 5,
            samples,
        };
        // Every function is shared by both ops with different mixes.
        let names: Vec<String> = (0..fn_cpu.len()).map(|i| format!("fn{i}")).collect();
        mapping.insert(OpMapping {
            op: "A".into(),
            functions: names.iter().map(|n| mf(n.clone(), samples_a)).collect(),
        });
        mapping.insert(OpMapping {
            op: "B".into(),
            functions: names.iter().map(|n| mf(n.clone(), samples_b)).collect(),
        });
        let op_times = BTreeMap::from([
            ("A".to_string(), Span::from_nanos(t_a)),
            ("B".to_string(), Span::from_nanos(t_b)),
        ]);
        let profile: Vec<FunctionProfile> = names
            .iter()
            .zip(&fn_cpu)
            .map(|(name, &cpu)| FunctionProfile {
                name: name.clone(),
                library: "lib.so".into(),
                stats: FnStats {
                    samples: 1,
                    cpu_time: Span::from_nanos(cpu),
                    events: HwEvents { instructions: cpu as f64, ..HwEvents::ZERO },
                },
            })
            .collect();
        let total_insts: f64 = fn_cpu.iter().map(|&c| c as f64).sum();
        for split in [
            split_metrics(&profile, &mapping, &op_times),
            split_metrics_mix_aware(&profile, &mapping, &op_times),
        ] {
            let attributed: f64 = split.iter().map(|o| o.events.instructions).sum();
            prop_assert!((attributed - total_insts).abs() < 1e-6 * total_insts.max(1.0),
                "attributed {} vs collected {}", attributed, total_insts);
        }
    }
}
