//! The concrete `lotus run` / `lotus bench` runner: one measured epoch of
//! a workload pipeline on a chosen [`ExecutionBackend`].
//!
//! Both backends, and every `lotus tune` trial, go through the one
//! zero-overhead measurement harness (a [`LotusTrace`] with no
//! per-record charge plus a free [`MetricsSink`]), fold into the same
//! [`TrialMeasurement`]/[`Scorecard`], and are classified by the one
//! bottleneck rule, [`Verdict::classify`]. Sim-vs-native
//! cross-validation is therefore a one-line comparison of
//! [`Verdict::family`]. The native path materializes real pixels for the
//! image pipelines (IC, OD), decoding each record from its stored SJPG
//! file, so its trace measures the actual file reads (\[T0\]), codec and
//! transform kernels.

use std::sync::Arc;

use lotus_core::map::{
    mapping_from_native, top_k_agreement, IsolationConfig, Mapping, OpAgreement, StorageAttribution,
};
use lotus_core::metrics::{names, MetricsRegistry, MetricsSink, MultiSink};
use lotus_core::trace::analysis::op_class_totals;
use lotus_core::trace::insights::Verdict;
use lotus_core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus_core::tune::{Scorecard, TrialMeasurement};
use lotus_dataflow::{
    DataLoaderConfig, ExecutionBackend, FaultPlan, JobReport, NativeBackend, NativeOptions,
    SimBackend, TrainingJob,
};
use lotus_profilers::{NativeSampler, SamplerConfig};
use lotus_sim::Span;
use lotus_uarch::{Machine, MachineConfig};
use lotus_workloads::{build_ic_mapping_for_batch, ExperimentConfig, PipelineKind};
use serde_json::{Content, Value};

use crate::tuning::baseline_trial;

/// Which execution substrate to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic virtual-time simulation.
    Sim,
    /// Real OS threads, real channels, wall clock, real pixels.
    Native,
}

impl BackendKind {
    /// Parses `"sim"` / `"native"`.
    #[must_use]
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name {
            "sim" => Some(BackendKind::Sim),
            "native" => Some(BackendKind::Native),
            _ => None,
        }
    }

    /// The backend's stable name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

/// Options for one measured run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Substrate to execute on.
    pub backend: BackendKind,
    /// Native only: sleep for the GPU model's h2d + step span per
    /// consumed batch, so the wait structure matches the simulation's.
    pub emulate_gpu: bool,
    /// Native only: the main process's liveness-polling interval.
    pub status_check: Span,
    /// Materialize real pixels in the image pipelines. On by default for
    /// native runs (that is the point of them); forced off is useful for
    /// fast protocol-only tests.
    pub materialize: bool,
    /// Native only: run the OS-level sampling profiler alongside the job
    /// and produce per-op native kernel attribution (`lotus run
    /// --profile`). Ignored on the simulated backend, whose profiling
    /// goes through [`lotus_uarch::HwProfiler`] instead.
    pub profile: bool,
    /// Fault plan applied to the run.
    pub faults: FaultPlan,
}

impl RunOptions {
    /// Options for a simulated run (cost-only payloads — materialization
    /// would not change any simulated timestamp).
    #[must_use]
    pub fn sim() -> RunOptions {
        RunOptions {
            backend: BackendKind::Sim,
            emulate_gpu: true,
            status_check: Span::from_secs(5),
            materialize: false,
            profile: false,
            faults: FaultPlan::default(),
        }
    }

    /// Options for a native run: real pixels and an emulated GPU
    /// consumer, with the PyTorch 5 s liveness-polling interval.
    #[must_use]
    pub fn native() -> RunOptions {
        RunOptions {
            backend: BackendKind::Native,
            emulate_gpu: true,
            status_check: Span::from_secs(5),
            materialize: true,
            profile: false,
            faults: FaultPlan::default(),
        }
    }

    /// Options for the given backend kind, with that backend's defaults.
    #[must_use]
    pub fn for_backend(backend: BackendKind) -> RunOptions {
        match backend {
            BackendKind::Sim => RunOptions::sim(),
            BackendKind::Native => RunOptions::native(),
        }
    }
}

/// What the native profiler measured alongside a run.
#[derive(Debug)]
pub struct ProfileReport {
    /// Self-accounted profiling cost: sampler scrapes plus feed
    /// recording.
    pub overhead: Span,
    /// That overhead as a fraction of the run's wall elapsed time.
    pub overhead_fraction: f64,
    /// Number of kernel spans the cooperative feed observed.
    pub kernel_samples: usize,
    /// Number of OS-level sampler ticks taken.
    pub ticks: usize,
    /// Peak `VmRSS` across ticks, in kB (0 when `/proc` is unreadable).
    pub rss_peak_kb: u64,
    /// Per-op native attribution in the LotusMap mapping shape.
    pub attribution: Mapping,
    /// Sim-vs-native cross-validation (IC pipeline only): each op's
    /// native top-k kernels checked against the simulated mapping.
    pub agreement: Option<Vec<OpAgreement>>,
}

impl ProfileReport {
    /// True when cross-validation ran and every compared op agreed.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.agreement
            .as_ref()
            .is_some_and(|v| !v.is_empty() && v.iter().all(OpAgreement::agrees))
    }
}

/// Everything one measured run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Name of the backend that executed the run.
    pub backend: &'static str,
    /// The job's totals (elapsed, batches, samples).
    pub report: JobReport,
    /// The folded measurement (metrics snapshot + op-class totals).
    pub measurement: TrialMeasurement,
    /// The scorecard — throughput, wait share, bottleneck verdict —
    /// computed by the same fold `lotus tune` uses.
    pub scorecard: Scorecard,
    /// The full LotusTrace of the run (lintable, Chrome-exportable).
    pub trace: Arc<LotusTrace>,
    /// Present when the run was profiled (`RunOptions::profile` on the
    /// native backend).
    pub profile: Option<ProfileReport>,
    /// Per-tier storage attribution (counters joined with the trace's
    /// \[T0\] spans), present when the experiment configured a simulated
    /// storage hierarchy.
    pub storage: Option<StorageAttribution>,
}

/// Runs one measured epoch of `experiment` on the chosen backend.
///
/// # Examples
///
/// ```
/// use lotus::running::{run_experiment, RunOptions};
/// use lotus::workloads::{ExperimentConfig, PipelineKind};
///
/// let experiment = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
///     .scaled_to(256);
/// let outcome = run_experiment(&experiment, &RunOptions::sim())?;
/// assert_eq!(outcome.backend, "sim");
/// assert!(outcome.scorecard.throughput > 0.0);
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// Returns the loader-validation or job error as a string.
pub fn run_experiment(
    experiment: &ExperimentConfig,
    options: &RunOptions,
) -> Result<RunOutcome, String> {
    let loader = experiment.loader_defaults();
    loader.validate()?;
    if options.backend == BackendKind::Native && experiment.storage.is_some() {
        return Err(
            "the storage model runs on the simulated backend only; drop --storage or use \
             --backend sim"
                .to_string(),
        );
    }
    let harness = Harness::new(loader.num_workers);
    let machine = &harness.machine;
    let batch_size = loader.batch_size;
    let job = harness.job(
        experiment,
        loader,
        options.faults.clone(),
        options.materialize,
    );
    let storage_handle = job.storage.clone();
    let mut sampler: Option<NativeSampler> = None;
    let (backend_name, report) = match options.backend {
        BackendKind::Sim => {
            let backend = SimBackend;
            (backend.name(), backend.run(job).map_err(|e| e.to_string())?)
        }
        BackendKind::Native => {
            let mut backend = NativeBackend::new(NativeOptions {
                status_check: options.status_check,
                emulate_gpu: options.emulate_gpu,
            });
            if options.profile {
                let mut s = NativeSampler::new(SamplerConfig::default());
                s.start();
                backend = backend.with_feed(Arc::clone(s.feed()));
                sampler = Some(s);
            }
            (backend.name(), backend.run(job).map_err(|e| e.to_string())?)
        }
    };
    // Profiler gauges must land in the registry before the snapshot is
    // taken so the exporters and `lotus top` see them.
    let profile = sampler.map(|mut s| {
        s.stop();
        s.gauges_into(&harness.registry);
        let per_op = s.feed().per_op_function_totals(machine);
        let attribution = mapping_from_native(&per_op);
        let agreement =
            matches!(experiment.pipeline, PipelineKind::ImageClassification).then(|| {
                let sim = build_ic_mapping_for_batch(
                    machine,
                    IsolationConfig {
                        runs_override: Some(60),
                        ..IsolationConfig::default()
                    },
                    batch_size,
                );
                top_k_agreement(&sim, &attribution, 3)
            });
        let ticks = s.ticks();
        let overhead = s.overhead();
        let elapsed_s = report.elapsed.as_secs_f64();
        ProfileReport {
            overhead,
            overhead_fraction: if elapsed_s > 0.0 {
                overhead.as_secs_f64() / elapsed_s
            } else {
                0.0
            },
            kernel_samples: s.feed().len(),
            ticks: ticks.len(),
            rss_peak_kb: ticks.iter().map(|t| t.rss_kb).max().unwrap_or(0),
            attribution,
            agreement,
        }
    });
    let storage = storage_handle
        .map(|s| StorageAttribution::from_run(&s.counters(), &harness.trace.records()));
    let measurement = harness.measurement(&report);
    let scorecard = Scorecard::from_measurement(baseline_trial(experiment), &measurement);
    Ok(RunOutcome {
        backend: backend_name,
        report,
        measurement,
        scorecard,
        trace: harness.trace,
        profile,
        storage,
    })
}

/// The zero-overhead measurement harness every measured run goes
/// through — `lotus run` on either backend and each `lotus tune` trial: a
/// fresh machine, a [`LotusTrace`] with no per-record charge and a free
/// [`MetricsSink`], so the numbers describe the pipeline, not the
/// instrumentation.
pub(crate) struct Harness {
    /// The simulated machine the job's cost model runs on.
    pub(crate) machine: Arc<Machine>,
    /// The run's full trace.
    pub(crate) trace: Arc<LotusTrace>,
    /// The registry the metrics sink folds into.
    pub(crate) registry: Arc<MetricsRegistry>,
    sinks: Arc<MultiSink>,
}

impl Harness {
    /// A harness for a loader with `num_workers` workers.
    pub(crate) fn new(num_workers: usize) -> Harness {
        let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
            per_log_overhead: Span::ZERO,
            op_mode: OpLogMode::Full,
        }));
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = MetricsSink::with_overhead(Arc::clone(&registry), num_workers, Span::ZERO);
        let sinks = MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(Arc::new(metrics) as _);
        Harness {
            machine: Machine::new(MachineConfig::cloudlab_c4130()),
            trace,
            registry,
            sinks: Arc::new(sinks),
        }
    }

    /// Builds `experiment`'s job under `loader`, traced by this harness.
    pub(crate) fn job(
        &self,
        experiment: &ExperimentConfig,
        loader: DataLoaderConfig,
        faults: FaultPlan,
        materialize: bool,
    ) -> TrainingJob {
        let tracer = Arc::clone(&self.sinks) as _;
        if materialize {
            experiment.build_materialized_with(&self.machine, tracer, None, loader, faults)
        } else {
            experiment.build_with(&self.machine, tracer, None, loader, faults)
        }
    }

    /// Folds a finished run into the measurement its scorecard is built
    /// from.
    pub(crate) fn measurement(&self, report: &JobReport) -> TrialMeasurement {
        TrialMeasurement {
            elapsed: report.elapsed,
            batches: report.batches,
            samples: report.samples,
            snapshot: self.registry.snapshot(),
            op_classes: op_class_totals(&self.trace.records()),
        }
    }
}

/// Folds a run outcome into the `BENCH_<backend>_<preset>.json` document:
/// throughput, p50/p99 batch latency, and the T1/T2/T3 phase split.
#[must_use]
pub fn bench_report(preset: &str, experiment: &ExperimentConfig, outcome: &RunOutcome) -> Value {
    let hist = |name: &str| {
        let (count, p50, p99, total_s) = outcome
            .measurement
            .snapshot
            .histograms
            .get(name)
            .map_or((0, 0.0, 0.0, 0.0), |h| {
                (h.count, h.p50_ns / 1e6, h.p99_ns / 1e6, h.sum.as_secs_f64())
            });
        (count, p50, p99, total_s)
    };
    let (_, fetch_p50, fetch_p99, t1_s) = hist(names::T1_FETCH);
    let (_, wait_p50, wait_p99, t2_s) = hist(names::T2_WAIT);
    let (_, _, _, t3_s) = hist(names::T3_OP);
    let card = &outcome.scorecard;
    let mut doc = vec![
        ("schema".into(), Content::Str("lotus-bench-v2".into())),
        ("preset".into(), Content::Str(preset.into())),
        ("backend".into(), Content::Str(outcome.backend.into())),
        ("fingerprint".into(), Content::Str(experiment.fingerprint())),
        ("elapsed_s".into(), Content::F64(card.elapsed.as_secs_f64())),
        ("batches".into(), Content::U64(card.batches)),
        ("samples".into(), Content::U64(card.samples)),
        (
            "throughput_samples_per_s".into(),
            Content::F64(card.throughput),
        ),
        (
            "batch_latency_ms".into(),
            Content::Map(vec![
                ("t1_fetch_p50".into(), Content::F64(fetch_p50)),
                ("t1_fetch_p99".into(), Content::F64(fetch_p99)),
                ("t2_wait_p50".into(), Content::F64(wait_p50)),
                ("t2_wait_p99".into(), Content::F64(wait_p99)),
            ]),
        ),
        (
            "phase_split_s".into(),
            Content::Map(vec![
                ("t1_fetch".into(), Content::F64(t1_s)),
                ("t2_wait".into(), Content::F64(t2_s)),
                ("t3_ops".into(), Content::F64(t3_s)),
            ]),
        ),
        ("wait_fraction".into(), Content::F64(card.wait_fraction)),
        (
            "verdict".into(),
            Content::Str(card.verdict.map_or("failed", Verdict::as_str).into()),
        ),
        (
            "verdict_family".into(),
            Content::Str(card.verdict.map_or("failed", Verdict::family).into()),
        ),
    ];
    // Storage-tier block, present only when the run modeled storage.
    // `check_regression` ignores it, like the profiler block below.
    if let Some(s) = &outcome.storage {
        use serde::Serialize as _;
        let t0_s = s.t0_total().as_secs_f64();
        let elapsed_s = card.elapsed.as_secs_f64();
        doc.push((
            "storage".into(),
            Content::Map(vec![
                ("t0_s".into(), Content::F64(t0_s)),
                (
                    "t0_fraction_of_elapsed".into(),
                    Content::F64(if elapsed_s > 0.0 {
                        t0_s / elapsed_s
                    } else {
                        0.0
                    }),
                ),
                ("hit_ratio".into(), Content::F64(s.hit_ratio())),
                ("attribution".into(), s.serialize_content()),
            ]),
        ));
    }
    // v2 addition: profiler self-accounting, present only on profiled
    // runs. `check_regression` reads none of these fields, so v1
    // baselines and v2 reports stay mutually comparable.
    if let Some(p) = &outcome.profile {
        doc.push((
            "profiler".into(),
            Content::Map(vec![
                ("overhead_s".into(), Content::F64(p.overhead.as_secs_f64())),
                (
                    "overhead_fraction".into(),
                    Content::F64(p.overhead_fraction),
                ),
                (
                    "kernel_samples".into(),
                    Content::U64(p.kernel_samples as u64),
                ),
                ("sampler_ticks".into(), Content::U64(p.ticks as u64)),
                ("rss_peak_kb".into(), Content::U64(p.rss_peak_kb)),
                (
                    "attribution_agrees".into(),
                    Content::Bool(p.agreement.is_none() || p.agrees()),
                ),
            ]),
        ));
    }
    Value(Content::Map(doc))
}

/// Compares a fresh bench report against a committed baseline and fails
/// if throughput regressed more than `tolerance` (e.g. `0.2` = 20%).
///
/// Only throughput is gated — latency percentiles vary too much across
/// machines to gate on — and only downward: a faster run always passes.
///
/// # Errors
///
/// Returns a description of the regression, a preset/backend mismatch,
/// or a malformed baseline.
pub fn check_regression(current: &Value, baseline: &Value, tolerance: f64) -> Result<(), String> {
    let field = |v: &Value, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench JSON is missing numeric field `{key}`"))
    };
    let text = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("bench JSON is missing string field `{key}`"))
    };
    for key in ["preset", "backend"] {
        let (c, b) = (text(current, key)?, text(baseline, key)?);
        if c != b {
            return Err(format!("{key} mismatch: current `{c}` vs baseline `{b}`"));
        }
    }
    let current_tp = field(current, "throughput_samples_per_s")?;
    let baseline_tp = field(baseline, "throughput_samples_per_s")?;
    let floor = baseline_tp * (1.0 - tolerance);
    if current_tp < floor {
        return Err(format!(
            "throughput regression: {current_tp:.1} samples/s is below {floor:.1} \
             ({:.0}% of the {baseline_tp:.1} baseline)",
            (1.0 - tolerance) * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_workloads::PipelineKind;

    fn small_ic() -> ExperimentConfig {
        ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(256)
    }

    #[test]
    fn sim_run_produces_a_scorecard_with_verdict() {
        let outcome = run_experiment(&small_ic(), &RunOptions::sim()).unwrap();
        assert_eq!(outcome.backend, "sim");
        assert_eq!(outcome.report.batches, 2);
        assert!(outcome.scorecard.verdict.is_some());
        assert!(!outcome.trace.records().is_empty());
    }

    #[test]
    fn bench_report_has_the_gated_fields() {
        let experiment = small_ic();
        let outcome = run_experiment(&experiment, &RunOptions::sim()).unwrap();
        let report = bench_report("ic", &experiment, &outcome);
        assert_eq!(report.get("preset").and_then(Value::as_str), Some("ic"));
        assert_eq!(report.get("backend").and_then(Value::as_str), Some("sim"));
        assert!(report
            .get("throughput_samples_per_s")
            .and_then(Value::as_f64)
            .is_some_and(|t| t > 0.0));
        // Round-trips through the JSON writer/parser.
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("preset").and_then(Value::as_str), Some("ic"));
    }

    #[test]
    fn regression_gate_trips_only_on_slowdowns() {
        let experiment = small_ic();
        let outcome = run_experiment(&experiment, &RunOptions::sim()).unwrap();
        let report = bench_report("ic", &experiment, &outcome);
        // Same report: within tolerance.
        check_regression(&report, &report, 0.2).unwrap();

        // A baseline 10× faster than the current run: must trip.
        let mut inflated = report.0.clone();
        if let Content::Map(entries) = &mut inflated {
            for (k, v) in entries.iter_mut() {
                if k == "throughput_samples_per_s" {
                    if let Content::F64(t) = v {
                        *t *= 10.0;
                    }
                }
            }
        }
        let err = check_regression(&report, &Value(inflated), 0.2).unwrap_err();
        assert!(err.contains("regression"), "unexpected error: {err}");

        // Preset mismatch is refused.
        let other = bench_report("ac", &experiment, &outcome);
        assert!(check_regression(&report, &other, 0.2).is_err());
    }

    #[test]
    fn profiled_native_run_attributes_kernels_and_cross_validates() {
        let mut experiment =
            ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(16);
        experiment.batch_size = 8;
        let mut options = RunOptions::native();
        options.profile = true;
        options.emulate_gpu = false;
        let outcome = run_experiment(&experiment, &options).unwrap();
        let profile = outcome.profile.as_ref().expect("profiled run has a report");
        assert!(profile.kernel_samples > 0, "feed observed no kernels");
        assert!(profile.ticks > 0, "sampler took no ticks");
        let loader = profile
            .attribution
            .functions_for("Loader")
            .expect("Loader attributed");
        assert!(loader.contains("decode_mcu"), "{loader:?}");
        assert!(
            profile.agrees(),
            "sim-vs-native attribution disagreed: {:?}",
            profile.agreement
        );
        // Sampler gauges landed in the snapshot the exporters read.
        assert!(
            outcome
                .measurement
                .snapshot
                .gauges
                .keys()
                .any(|k| k.starts_with("sampler_")),
            "sampler gauges missing from the metrics snapshot"
        );
        // The v2 bench report self-accounts the profiler.
        let report = bench_report("ic", &experiment, &outcome);
        assert_eq!(
            report.get("schema").and_then(Value::as_str),
            Some("lotus-bench-v2")
        );
        let prof = report.get("profiler").expect("profiler block present");
        assert!(prof
            .get("overhead_s")
            .and_then(Value::as_f64)
            .is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn unprofiled_runs_carry_no_profiler_block() {
        let experiment = small_ic();
        let outcome = run_experiment(&experiment, &RunOptions::sim()).unwrap();
        assert!(outcome.profile.is_none());
        let report = bench_report("ic", &experiment, &outcome);
        assert!(report.get("profiler").is_none());
    }

    #[test]
    fn regression_gate_tolerates_schema_and_profiler_field_drift() {
        // A v2 report (with the profiler block) vs a v1 baseline
        // (without): the gate reads only preset/backend/throughput, so
        // both directions compare cleanly.
        let current: Value = serde_json::from_str(
            r#"{"schema":"lotus-bench-v2","preset":"ic","backend":"native",
                "throughput_samples_per_s":9.5,
                "profiler":{"overhead_s":0.01,"overhead_fraction":0.002}}"#,
        )
        .unwrap();
        let baseline: Value = serde_json::from_str(
            r#"{"schema":"lotus-bench-v1","preset":"ic","backend":"native",
                "throughput_samples_per_s":10.0}"#,
        )
        .unwrap();
        check_regression(&current, &baseline, 0.2).unwrap();
        check_regression(&baseline, &current, 0.2).unwrap();
        let err = check_regression(&current, &baseline, 0.01).unwrap_err();
        assert!(err.contains("regression"), "unexpected error: {err}");
    }

    #[test]
    fn backend_kind_parses_both_names() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("native"), Some(BackendKind::Native));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::Native.as_str(), "native");
    }
}
