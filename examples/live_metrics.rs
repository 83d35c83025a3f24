//! Live metrics: stream a fault-injected epoch through the sink layer,
//! render the `lotus top` dashboard, export Prometheus/JSON/CSV, and
//! cross-check every counter against the trace-record ground truth.
//!
//! Self-validating: prints `METRICS OK` only if all shape and
//! ground-truth checks pass (CI runs this binary and greps for it).
//!
//! ```sh
//! cargo run --release --example live_metrics
//! ```

use std::error::Error;
use std::sync::Arc;

use lotus::core::metrics::{
    names, render_dashboard, to_csv, to_json, to_prometheus, DashboardOptions, MetricsRegistry,
    MetricsSink, MultiSink,
};
use lotus::core::trace::analysis::{fault_forensics, fault_summary};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, SpanKind};
use lotus::dataflow::{FaultPlan, JobReport, NullTracer};
use lotus::sim::Time;
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

struct StreamedRun {
    trace: Arc<LotusTrace>,
    registry: Arc<MetricsRegistry>,
    sinks: Arc<MultiSink>,
    report: JobReport,
}

fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.num_workers = 4;
    config.scaled_to(1_024)
}

/// Runs the epoch with the full sink stack: the LotusTrace log (ground
/// truth) and the metrics registry, both fed from one event stream.
fn streamed_run(faults: FaultPlan) -> Result<StreamedRun, Box<dyn Error>> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let config = config();
    let trace = Arc::new(LotusTrace::new());
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), config.num_workers));
    let sinks = Arc::new(
        MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(Arc::clone(&metrics) as _),
    );
    let mut job = config.build(&machine, Arc::clone(&sinks) as _, None);
    job.faults = faults;
    let report = job.run()?;
    Ok(StreamedRun {
        trace,
        registry,
        sinks,
        report,
    })
}

fn main() -> Result<(), Box<dyn Error>> {
    // Target the kill at mid-epoch of a fault-free baseline.
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let baseline = config()
        .build(&machine, Arc::new(NullTracer) as _, None)
        .run()?;
    let kill_at = Time::ZERO + baseline.elapsed.mul_f64(0.5);
    let faults = FaultPlan::new(7).kill_process("dataloader1", kill_at);

    let run = streamed_run(faults.clone())?;
    let snapshot = run.registry.snapshot();

    print!(
        "{}",
        render_dashboard(&snapshot, DashboardOptions { width: 48 })
    );
    for (name, overhead) in run.sinks.overheads() {
        println!("sink '{name}' charged {overhead}");
    }

    // -- Ground truth: every counter agrees with the trace log. --
    let records = run.trace.records();
    let count_kind = |pred: &dyn Fn(&SpanKind) -> bool| -> u64 {
        records.iter().filter(|r| pred(&r.kind)).count() as u64
    };
    let checks: [(&str, u64, u64); 5] = [
        (
            names::BATCHES_PRODUCED,
            run.registry.counter(names::BATCHES_PRODUCED),
            count_kind(&|k| *k == SpanKind::BatchPreprocessed),
        ),
        (
            names::BATCHES_CONSUMED,
            run.registry.counter(names::BATCHES_CONSUMED),
            run.report.batches,
        ),
        (
            names::SAMPLES_CONSUMED,
            run.registry.counter(names::SAMPLES_CONSUMED),
            run.report.samples,
        ),
        (
            names::WORKER_DEATHS,
            run.registry.counter(names::WORKER_DEATHS),
            count_kind(&|k| *k == SpanKind::WorkerDied),
        ),
        (
            names::REDISPATCHES,
            run.registry.counter(names::REDISPATCHES),
            count_kind(&|k| *k == SpanKind::BatchRedispatched),
        ),
    ];
    for (name, counted, truth) in checks {
        assert_eq!(counted, truth, "counter {name} disagrees with the trace");
    }
    let summary = fault_summary(&records);
    assert!(
        !summary.dead_workers.is_empty(),
        "the kill plan produced a worker death"
    );

    // -- Forensics: the metrics series annotate the death. --
    let forensics = fault_forensics(&records, &snapshot);
    for death in &forensics.deaths {
        println!(
            "worker {} died at {} (data queue depth {:?}, in flight {:?}, {} workers left)",
            death.pid,
            death.at,
            death.data_queue_depth,
            death.in_flight,
            death.live_workers_after.unwrap_or(0.0),
        );
    }
    for red in &forensics.redispatches {
        println!(
            "batch {} redispatched to worker {} after {:?}",
            red.batch_id, red.to_pid, red.latency_after_death,
        );
    }

    // -- Export shape. --
    let prom = to_prometheus(&snapshot);
    for needle in [
        "# TYPE lotus_batches_consumed_total counter",
        "lotus_queue_depth{queue=\"data_queue\"}",
        "# TYPE lotus_t2_batch_wait_ns summary",
        "lotus_live_workers 3",
    ] {
        assert!(prom.contains(needle), "prometheus export lacks {needle}");
    }
    let json = to_json(&snapshot);
    let doc: serde_json::Value = serde_json::from_str(&json)?;
    assert_eq!(
        doc["counters"][names::BATCHES_CONSUMED].as_u64(),
        Some(run.report.batches),
        "json counters round-trip"
    );
    assert!(
        doc["gauges"]["queue_depth.data_queue"][0]
            .as_array()
            .is_some(),
        "json gauge series are [time, value] pairs"
    );
    let csv = to_csv(&snapshot);
    assert!(csv.starts_with("metric,time_ns,value\n"), "csv header");

    // -- Determinism: an identical seeded run exports identical bytes. --
    let rerun = streamed_run(faults)?;
    let resnap = rerun.registry.snapshot();
    assert_eq!(prom, to_prometheus(&resnap), "prometheus determinism");
    assert_eq!(json, to_json(&resnap), "json determinism");
    assert_eq!(csv, to_csv(&resnap), "csv determinism");

    // -- Overhead accounting: the fan-out totals what each sink charged,
    // one charge per record (every record came through the fan-out). --
    let events = records.len() as u64;
    assert_eq!(
        run.sinks.overheads(),
        [
            (
                "lotus-trace".to_string(),
                LotusTraceConfig::default().per_log_overhead * events
            ),
            (
                "metrics".to_string(),
                MetricsSink::DEFAULT_PER_EVENT_OVERHEAD * events
            ),
        ],
        "per-sink charges"
    );

    println!("METRICS OK");
    Ok(())
}
