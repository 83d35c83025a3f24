//! Integration tests for the streaming metrics layer: a seeded
//! fault-injected TrainingJob streams through the sink fan-out into the
//! registry, counter totals match the trace-record ground truth, the
//! exporters are byte-deterministic across identical runs, the no-sink
//! configuration charges exactly zero, and the dashboard renders.

use std::sync::Arc;

use lotus::core::metrics::{
    names, render_dashboard, sparkline, to_csv, to_json, to_prometheus, DashboardOptions,
    MetricsRegistry, MetricsSink, MultiSink,
};
use lotus::core::trace::analysis::{fault_forensics, fault_summary};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, SpanKind};
use lotus::data::DType;
use lotus::dataflow::{
    worker_os_pid, DataLoaderConfig, Dataset, FaultPlan, GpuConfig, JobError, JobReport,
    LoaderMutation, NullTracer, Sampler, SchedulingPolicyKind, Tracer, TrainingJob,
};
use lotus::sim::{Span, Time};
use lotus::transforms::{PipelineError, Sample, TransformCtx, TransformObserver};
use lotus::uarch::{CostCoeffs, KernelId, Machine, MachineConfig};

/// A dataset with fixed per-item decode cost, enough to keep workers busy.
struct StubDataset {
    len: u64,
    work_per_item: f64,
    kernel: KernelId,
}

impl StubDataset {
    fn new(machine: &Machine, len: u64, work_per_item: f64) -> StubDataset {
        StubDataset {
            len,
            work_per_item,
            kernel: machine.kernel("stub_decode", "libstub.so", CostCoeffs::compute_default()),
        }
    }
}

impl Dataset for StubDataset {
    fn len(&self) -> u64 {
        self.len
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        let start = ctx.cpu.cursor();
        let work = self.work_per_item * (1.0 + (index % 5) as f64 / 2.0);
        ctx.cpu.exec(self.kernel, work);
        observer.on_transform("Loader", start, ctx.cpu.cursor().since(start));
        Ok(Sample::tensor_meta(&[3, 16, 16], DType::F32))
    }
}

const WORKERS: usize = 4;

fn job(machine: &Arc<Machine>, tracer: Arc<dyn Tracer>, faults: FaultPlan) -> TrainingJob {
    TrainingJob {
        machine: Arc::clone(machine),
        dataset: Arc::new(StubDataset::new(machine, 256, 400_000.0)),
        storage: None,
        loader: DataLoaderConfig {
            batch_size: 8,
            num_workers: WORKERS,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
            sampler: Sampler::Sequential,
            drop_last: true,
            policy: SchedulingPolicyKind::RoundRobin,
        },
        gpu: GpuConfig::v100(1, Span::from_micros(100)),
        tracer,
        hw_profiler: None,
        seed: 11,
        epochs: 1,
        faults,
        controller: None,
        mutation: LoaderMutation::None,
    }
}

struct StreamedRun {
    trace: Arc<LotusTrace>,
    registry: Arc<MetricsRegistry>,
    sinks: Arc<MultiSink>,
    report: JobReport,
}

/// Runs the stub job under the full sink stack (log + metrics).
fn streamed_run(faults: FaultPlan) -> Result<StreamedRun, JobError> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::new());
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), WORKERS));
    let sinks = Arc::new(
        MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(Arc::clone(&metrics) as _),
    );
    let report = job(&machine, Arc::clone(&sinks) as _, faults).run()?;
    Ok(StreamedRun {
        trace,
        registry,
        sinks,
        report,
    })
}

/// A kill plan targeting mid-epoch of the fault-free baseline.
fn mid_epoch_kill() -> FaultPlan {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let baseline = job(&machine, Arc::new(NullTracer) as _, FaultPlan::default())
        .run()
        .expect("fault-free baseline succeeds");
    FaultPlan::new(11).kill_process("dataloader1", Time::ZERO + baseline.elapsed.mul_f64(0.5))
}

#[test]
fn counters_match_trace_ground_truth_for_fault_injected_run() {
    let run = streamed_run(mid_epoch_kill()).expect("survivors finish the epoch");
    let records = run.trace.records();
    let count = |kind: SpanKind| records.iter().filter(|r| r.kind == kind).count() as u64;

    let r = &run.registry;
    assert_eq!(
        r.counter(names::BATCHES_PRODUCED),
        count(SpanKind::BatchPreprocessed)
    );
    assert_eq!(r.counter(names::BATCHES_CONSUMED), run.report.batches);
    assert_eq!(
        r.counter(names::BATCHES_CONSUMED),
        count(SpanKind::BatchConsumed)
    );
    assert_eq!(r.counter(names::SAMPLES_CONSUMED), run.report.samples);
    assert_eq!(r.counter(names::WORKER_DEATHS), count(SpanKind::WorkerDied));
    assert_eq!(
        r.counter(names::REDISPATCHES),
        count(SpanKind::BatchRedispatched)
    );
    assert!(r.counter(names::WORKER_DEATHS) >= 1, "the kill landed");
    let ops: u64 = records
        .iter()
        .filter(|rec| matches!(rec.kind, SpanKind::Op(_)))
        .count() as u64;
    assert_eq!(r.counter(names::OPS), ops);

    // Per-worker busy time equals the sum of that worker's fetch spans.
    for w in 0..WORKERS {
        let pid = worker_os_pid(w);
        let busy: u64 = records
            .iter()
            .filter(|rec| rec.kind == SpanKind::BatchPreprocessed && rec.pid == pid)
            .map(|rec| rec.duration.as_nanos())
            .sum();
        assert_eq!(r.counter(&names::worker_busy(pid)), busy);
    }

    // T2 histogram count equals the number of waits in the log.
    assert_eq!(
        r.latency_summary_ms(names::T2_WAIT).count as u64,
        count(SpanKind::BatchWait)
    );

    // The live-workers series steps down from the full crew.
    let live = r.gauge(names::LIVE_WORKERS).expect("live_workers recorded");
    assert_eq!(live.samples()[0], (Time::ZERO, WORKERS as f64));
    assert_eq!(live.last(), Some(WORKERS as f64 - 1.0));

    // Forensics joins: the death is annotated from the gauge series.
    let forensics = fault_forensics(&records, &r.snapshot());
    assert_eq!(
        forensics.deaths.len() as u64,
        r.counter(names::WORKER_DEATHS)
    );
    assert_eq!(
        forensics.deaths[0].live_workers_after,
        Some(WORKERS as f64 - 1.0)
    );
    for red in &forensics.redispatches {
        let latency = red.latency_after_death.expect("death precedes redispatch");
        assert!(latency < Span::from_secs(1), "orphans re-sent promptly");
    }
    assert_eq!(
        fault_summary(&records).redispatched.len(),
        forensics.redispatches.len()
    );
}

#[test]
fn identical_seeded_runs_export_byte_identical_metrics() {
    let faults = mid_epoch_kill();
    let a = streamed_run(faults.clone()).expect("first run");
    let b = streamed_run(faults).expect("second run");
    let (snap_a, snap_b) = (a.registry.snapshot(), b.registry.snapshot());
    assert_eq!(to_prometheus(&snap_a), to_prometheus(&snap_b));
    assert_eq!(to_json(&snap_a), to_json(&snap_b));
    assert_eq!(to_csv(&snap_a), to_csv(&snap_b));
    assert_eq!(
        render_dashboard(&snap_a, DashboardOptions::default()),
        render_dashboard(&snap_b, DashboardOptions::default())
    );
    assert_eq!(a.report.elapsed, b.report.elapsed);
}

#[test]
fn empty_multi_sink_has_null_tracer_parity() {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let null_report = job(&machine, Arc::new(NullTracer) as _, FaultPlan::default())
        .run()
        .expect("null run");
    let empty = Arc::new(MultiSink::new());
    let empty_report = job(&machine, Arc::clone(&empty) as _, FaultPlan::default())
        .run()
        .expect("empty-sink run");
    // No sinks registered: exactly zero charged, bit-identical timing.
    assert_eq!(null_report.elapsed, empty_report.elapsed);
    assert_eq!(null_report.batches, empty_report.batches);
    assert!(empty.overheads().is_empty());
}

#[test]
fn the_fan_out_accounts_each_sinks_overhead() {
    let run = streamed_run(FaultPlan::default()).expect("clean run");
    let overheads = run.sinks.overheads();
    assert_eq!(overheads.len(), 2);
    let (ref log_name, log_charged) = overheads[0];
    let (ref metrics_name, metrics_charged) = overheads[1];
    assert_eq!(log_name, "lotus-trace");
    assert_eq!(metrics_name, "metrics");
    let events = run.trace.len() as u64; // every record came through the fan-out
    assert_eq!(
        log_charged,
        LotusTraceConfig::default().per_log_overhead * events,
        "the log charges once per record"
    );
    assert_eq!(
        metrics_charged,
        MetricsSink::DEFAULT_PER_EVENT_OVERHEAD * events,
        "metrics charge per event; gauge samples are free by default"
    );
}

#[test]
fn sampler_gauges_export_with_escaped_thread_labels() {
    let registry = MetricsRegistry::new();
    // Thread names out of /proc/self/task/*/comm can carry dots,
    // slashes and backslashes (e.g. "tokio.rt/w-0"); they must land
    // inside the label VALUE — escaped where the exposition format
    // demands — and never split the family name.
    for name in ["dataloader0", "tokio.rt/w-0", "io\\wq-1"] {
        registry.set_gauge(&format!("sampler_thread_cpu_ns.{name}"), Time::ZERO, 1e6);
        registry.set_gauge(
            &format!("sampler_ctx_switches_voluntary.{name}"),
            Time::ZERO,
            2.0,
        );
        registry.set_gauge(
            &format!("sampler_ctx_switches_involuntary.{name}"),
            Time::ZERO,
            3.0,
        );
    }
    registry.set_gauge("sampler_rss_kb", Time::ZERO, 2048.0);
    let text = to_prometheus(&registry.snapshot());
    assert!(text.contains("lotus_sampler_thread_cpu_ns{thread=\"dataloader0\"} 1000000"));
    assert!(text.contains("lotus_sampler_thread_cpu_ns{thread=\"tokio.rt/w-0\"} 1000000"));
    assert!(text.contains("lotus_sampler_ctx_switches_voluntary{thread=\"io\\\\wq-1\"} 2"));
    assert!(text.contains("lotus_sampler_rss_kb 2048"));
    for family in [
        "sampler_thread_cpu_ns",
        "sampler_ctx_switches_voluntary",
        "sampler_ctx_switches_involuntary",
        "sampler_rss_kb",
    ] {
        assert_eq!(
            text.matches(&format!("# TYPE lotus_{family} gauge"))
                .count(),
            1,
            "exactly one TYPE line for {family}"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn real_sampler_ticks_flow_through_the_prometheus_exporter() {
    use lotus::profilers::{NativeSampler, SamplerConfig};

    let mut sampler = NativeSampler::new(SamplerConfig {
        tick: Span::from_millis(2),
    });
    sampler.start();
    std::thread::sleep(std::time::Duration::from_millis(20));
    sampler.stop();
    let registry = MetricsRegistry::new();
    sampler.gauges_into(&registry);
    let text = to_prometheus(&registry.snapshot());
    assert!(
        text.contains("lotus_sampler_rss_kb"),
        "RSS gauge exported: {text}"
    );
    assert!(
        text.contains("lotus_sampler_thread_cpu_ns{thread=\""),
        "per-thread CPU gauges labelled by thread: {text}"
    );
}

#[test]
fn dashboard_renders_queue_depth_utilization_and_throughput() {
    let run = streamed_run(mid_epoch_kill()).expect("faulty run");
    let out = render_dashboard(&run.registry.snapshot(), DashboardOptions { width: 32 });
    assert!(out.starts_with("lotus top — virtual time t+"));
    assert!(out.contains("queue depth"));
    assert!(out.contains("data_queue"));
    assert!(out.contains("index_queue_0"));
    assert!(out.contains("in_flight_batches"));
    assert!(out.contains("worker utilization"));
    assert!(out.contains(&format!("worker {}", worker_os_pid(0))));
    assert!(out.contains("throughput"));
    assert!(out.contains("batches ("));
    assert!(out.contains("t1 fetch: p50"));
    assert!(out.contains("worker deaths"));
    // Sparklines are exactly as wide as requested.
    let spark_line = out
        .lines()
        .find(|l| l.trim_start().starts_with("data_queue"))
        .expect("data_queue row");
    let sparks: usize = spark_line
        .chars()
        .filter(|c| ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'].contains(c))
        .count();
    assert_eq!(sparks, 32);

    // The data-queue series itself renders standalone too.
    let series = run
        .registry
        .gauge("queue_depth.data_queue")
        .expect("data queue sampled");
    assert_eq!(
        sparkline(&series, run.registry.snapshot().horizon(), 10)
            .chars()
            .count(),
        10
    );
}
