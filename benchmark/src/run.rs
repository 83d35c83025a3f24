//! The untraced, measured run of one workload: the end-to-end metrics and
//! the output checks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lotus::core::check::lint_records;
use lotus::core::metrics::MetricsRegistry;
use lotus::core::trace::{LotusTrace, SpanKind};
use lotus::dataflow::{ExecutionBackend, FaultPlan};
use lotus::tuning::{tune_experiment, TuneOptions};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

use crate::checks::{psnr_db, CheckedDataset, EpochCheck, PSNR_FLOOR_DB};
use crate::spec::Workload;
use crate::stats::{median, process_cpu_s, Outcome};
use crate::trace::{instrument, Recorder};
use crate::workload::{
    build, declared_shape, epoch_order, experiment, image_model, native_backend,
};

/// Settings of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed; reaches the program only as `ExperimentConfig::seed`.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Tiny epochs, for tests.
    pub smoke: bool,
    /// Probability of an injected sample error (0 in every real run).
    pub error_rate: f64,
}

impl Options {
    /// The fault plan every job of this invocation runs under.
    pub fn faults(&self) -> FaultPlan {
        if self.error_rate > 0.0 {
            FaultPlan::new(self.seed).inject_sample_errors("Loader", self.error_rate)
        } else {
            FaultPlan::default()
        }
    }

    /// Fewest timed epochs or sweeps, whatever `seconds` says.
    fn min_rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            3
        }
    }
}

/// Measures `workload` untraced and checks its outputs.
pub fn measure(workload: Workload, options: &Options) -> Outcome {
    match workload {
        Workload::TuneSim => measure_tune(options),
        _ => measure_native(workload, options),
    }
}

/// One native epoch as the benchmark saw it.
pub struct Epoch {
    /// Set-up wall time: `Machine::new`, harness, job build, backend.
    pub setup_s: f64,
    /// Wall time of `NativeBackend::run`.
    pub wall_s: f64,
    /// Process CPU time over the same call.
    pub cpu_s: f64,
    /// Samples the epoch asked for.
    pub requested: u64,
    /// Samples the backend reports delivered (0 when the run failed).
    pub delivered: u64,
    /// The backend's error, if the run failed.
    pub error: Option<String>,
    /// What the checking wrapper saw.
    pub check: EpochCheck,
    /// The run's LotusTrace.
    pub trace: Arc<LotusTrace>,
    /// The registry the run's metrics sink fed.
    pub registry: Arc<MetricsRegistry>,
}

impl Epoch {
    /// Samples per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.wall_s
    }

    /// Main-process waits (T2) of the epoch, in ms, read from the
    /// LotusTrace batch-wait records.
    pub fn waits_ms(&self) -> Vec<f64> {
        self.trace
            .records()
            .iter()
            .filter(|r| r.kind == SpanKind::BatchWait)
            .map(|r| r.duration.as_nanos() as f64 / 1e6)
            .collect()
    }
}

/// Builds and runs one native epoch over `order` under the checking
/// wrapper. With a recorder, the epoch is traced: the program's dataset
/// and trace sinks are wrapped before the checking wrapper goes on top,
/// and the run is the recorder's root span.
pub fn native_epoch(
    workload: Workload,
    exp: &ExperimentConfig,
    order: &Arc<Vec<u64>>,
    faults: &FaultPlan,
    rec: Option<&Arc<Recorder>>,
) -> Epoch {
    let start = Instant::now();
    let built = build(exp, exp.loader_defaults(), workload.materialized(), faults);
    let backend = native_backend();
    let setup_s = start.elapsed().as_secs_f64();
    let mut job = built.job;
    if let Some(rec) = rec {
        instrument(&mut job, rec);
    }
    let checked = Arc::new(CheckedDataset::new(
        Arc::clone(&job.dataset),
        Arc::clone(order),
        declared_shape(exp.pipeline),
    ));
    job.dataset = Arc::clone(&checked) as _;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let run = || backend.run(job).map_err(|e| e.to_string());
    let result = match rec {
        Some(rec) => rec.root_span("dataflow", "NativeBackend::run", 0, run),
        None => run(),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let (delivered, error) = match result {
        Ok(report) => (report.samples, None),
        Err(e) => (0, Some(e)),
    };
    Epoch {
        setup_s,
        wall_s,
        cpu_s,
        requested: order.len() as u64,
        delivered,
        error,
        check: checked.verdict(),
        trace: built.trace,
        registry: built.registry,
    }
}

/// Folds one epoch's checks into `out`. `reference` is the first timed
/// epoch's digest: one worker with round-robin dispatch is
/// deterministic, so every epoch must produce the same tensors.
pub fn check_epoch(out: &mut Outcome, epoch: &Epoch, reference: Option<u64>, label: &str) {
    out.attempted += epoch.requested;
    if let Some(e) = &epoch.error {
        out.fail(epoch.requested, format!("{label}: run failed: {e}"));
        return;
    }
    if epoch.delivered != epoch.requested {
        out.fail(
            epoch.requested.abs_diff(epoch.delivered),
            format!(
                "{label}: delivered {} of {} samples",
                epoch.delivered, epoch.requested
            ),
        );
    }
    let c = epoch.check;
    if c.missing + c.repeated > 0 {
        out.fail(
            c.missing + c.repeated,
            format!(
                "{label}: {} indices never fetched, {} fetched again",
                c.missing, c.repeated
            ),
        );
    }
    if c.bad_samples > 0 {
        out.fail(
            c.bad_samples,
            format!(
                "{label}: {} samples with a wrong shape or non-finite values",
                c.bad_samples
            ),
        );
    }
    if reference.is_some_and(|d| d != c.digest) {
        out.fail(
            epoch.requested,
            format!("{label}: tensors differ from the first epoch's"),
        );
    }
}

/// Lints the last epoch's trace with the program's own trace linter.
pub fn check_trace(out: &mut Outcome, trace: &LotusTrace) {
    let findings = lint_records(&trace.records(), None);
    if !findings.is_empty() {
        out.fail(
            findings.len() as u64,
            format!(
                "trace lint: {} findings, first: {}",
                findings.len(),
                findings[0]
            ),
        );
    }
}

/// The codec's round trip on the epoch's first records, at the quality
/// the dataset encodes with, stays above [`PSNR_FLOOR_DB`].
pub fn check_psnr(out: &mut Outcome, exp: &ExperimentConfig, order: &[u64]) {
    let model = image_model(exp);
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let codec = lotus::codec::Codec::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    for &index in order.iter().take(2) {
        let image = model.record(index).materialize();
        let encoded = codec.encode(&image, 85, &mut cpu);
        match codec.decode(&encoded, &mut cpu) {
            Ok(decoded) => {
                let psnr = psnr_db(&image, &decoded);
                if psnr < PSNR_FLOOR_DB {
                    out.fail(1, format!("record {index}: round-trip PSNR {psnr:.1} dB"));
                }
            }
            Err(e) => out.fail(1, format!("record {index}: decode failed: {e}")),
        }
    }
}

fn measure_native(workload: Workload, options: &Options) -> Outcome {
    let size = workload.size(options.smoke);
    let exp = experiment(workload, size, options.seed);
    let order = Arc::new(epoch_order(workload, &exp, size));
    let faults = options.faults();
    let mut out = Outcome::default();

    // Warm-up: two batches, untimed, so lazy allocation and page-in are
    // not charged to the first timed epoch.
    let warm = Arc::new(order[..2 * size.batch].to_vec());
    let warm_epoch = native_epoch(workload, &exp, &warm, &faults, None);
    check_epoch(&mut out, &warm_epoch, None, "warm-up");

    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let (mut throughputs, mut setups) = (Vec::new(), Vec::new());
    let (mut p50s, mut waits) = (Vec::new(), 0);
    let (mut samples, mut cpu) = (0u64, 0.0);
    let mut reference = None;
    let mut last_trace = None;
    while setups.len() < options.min_rounds() || Instant::now() < deadline {
        let epoch = native_epoch(workload, &exp, &order, &faults, None);
        check_epoch(
            &mut out,
            &epoch,
            reference,
            &format!("epoch {}", setups.len()),
        );
        reference = reference.or(Some(epoch.check.digest));
        setups.push(epoch.setup_s);
        if epoch.error.is_none() {
            throughputs.push(epoch.throughput());
            let epoch_waits = epoch.waits_ms();
            p50s.push(median(&epoch_waits));
            waits += epoch_waits.len();
            samples += epoch.delivered;
            cpu += epoch.cpu_s;
        }
        last_trace = Some(epoch.trace);
    }
    if let Some(trace) = last_trace {
        check_trace(&mut out, &trace);
    }
    if workload.materialized() {
        check_psnr(&mut out, &exp, &order);
    }

    out.set("throughput_sps", median(&throughputs));
    out.set("wait_p50_ms", median(&p50s));
    out.set("cpu_us_per_sample", cpu * 1e6 / samples.max(1) as f64);
    out.set("setup_s", median(&setups));
    out.counts.push(("epochs", setups.len() as u64));
    out.counts.push(("waits", waits as u64));
    out
}

/// The committed `lotus tune --pipeline ic --items 256 --no-cache --json`
/// output.
const TUNE_BASELINE: &str = include_str!("../../baselines/TUNE_ic_roundrobin.json");

/// A sweep of the default grid, one trial at a time, without a cache.
fn tune_options(faults: FaultPlan) -> TuneOptions {
    TuneOptions {
        faults,
        jobs: 1,
        cache_dir: None,
        ..TuneOptions::default()
    }
}

fn measure_tune(options: &Options) -> Outcome {
    let size = Workload::TuneSim.size(options.smoke);
    let exp = experiment(Workload::TuneSim, size, options.seed);
    let faults = options.faults();
    let tune = tune_options(faults.clone());
    let mut out = Outcome::default();

    let baseline =
        ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(256);
    match tune_experiment(&baseline, &tune_options(FaultPlan::default())) {
        Ok(report) if report.to_json() == TUNE_BASELINE => {}
        Ok(_) => out.fail(
            1,
            "tune_experiment no longer reproduces the committed baseline",
        ),
        Err(e) => out.fail(1, format!("baseline sweep failed: {e}")),
    }

    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut first_json: Option<String> = None;
    let (mut throughputs, mut sweep_ms, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut cpu) = (0u64, 0.0);
    while sweep_ms.len() < options.min_rounds() || Instant::now() < deadline {
        // Set-up is what each trial pays before its epoch runs: the
        // machine, the harness and the job. Sampled between sweeps, so
        // the median spans the whole run.
        for _ in 0..3 {
            let start = Instant::now();
            let built = build(&exp, exp.loader_defaults(), false, &faults);
            setups.push(start.elapsed().as_secs_f64());
            drop(built);
        }
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let result = tune_experiment(&exp, &tune);
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        sweep_ms.push(wall * 1e3);
        let label = format!("sweep {}", sweep_ms.len());
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.attempted += 1;
                out.fail(1, format!("{label}: {e}"));
                continue;
            }
        };
        let failed = report.cards.iter().filter(|c| !c.is_ok()).count() as u64;
        out.attempted += report.cards.len() as u64;
        if failed > 0 {
            out.fail(failed, format!("{label}: {failed} trials failed"));
        }
        let json = report.to_json();
        match &first_json {
            None => first_json = Some(json),
            Some(first) if *first != json => {
                out.fail(1, format!("{label}: report differs from the first sweep's"));
            }
            Some(_) => {}
        }
        let swept: u64 = report.cards.iter().map(|c| c.samples).sum();
        samples += swept;
        cpu += cpu_s;
        throughputs.push(swept as f64 / wall);
    }
    out.set("throughput_sps", median(&throughputs));
    out.set("wait_p50_ms", median(&sweep_ms));
    out.set("cpu_us_per_sample", cpu * 1e6 / samples.max(1) as f64);
    out.set("setup_s", median(&setups));
    out.counts.push(("sweeps", sweep_ms.len() as u64));
    out
}
