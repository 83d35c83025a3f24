//! The traced pass: per-layer metrics for one workload.
//!
//! Phases, each given a share of `--seconds`:
//! 1. untraced epochs (the reference for the tracing overhead);
//! 2. traced epochs — [`TimedDataset`] replaces `job.dataset` and
//!    [`TimedTracer`] replaces `job.tracer`, so spans cover `get_item`,
//!    every op inside it and every trace-sink call;
//! 3. a single-threaded replay of the same records through the data,
//!    codec and transform layers, one call at a time;
//! 4. simulated trials of the workload's configuration;
//! 5. a profiled real-pixel epoch with the program's `NativeSampler`.
//!
//! Tune-sim runs phases 1 and 2 as simulated trials (so 4 is 1) and
//! replays image-classification records in 3 and 5. End-to-end numbers
//! never come from here; see `run.rs`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lotus::codec::Codec;
use lotus::core::metrics::{names, MetricsRegistry};
use lotus::core::tune::SearchSpace;
use lotus::dataflow::{ExecutionBackend, FaultPlan, SimBackend};
use lotus::profilers::{NativeSampler, SamplerConfig};
use lotus::transforms::{Collate, Sample, TransformCtx, TransformObserver};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use lotus::workloads::{ic_transforms, od_transforms, ExperimentConfig, PipelineKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::{psnr_db, CheckedDataset, PSNR_FLOOR_DB};
use crate::run::{check_epoch, check_trace, native_epoch, Options};
use crate::spec::Workload;
use crate::stats::{median, peak_rss_mb, Outcome};
use crate::trace::{earliest, instrument, write_spans, Recorder, SpanRec};
use crate::workload::{
    build, declared_shape, epoch_order, experiment, image_model, native_backend,
};

/// Shares of `--seconds` given to phases 1–5.
const SHARES: [f64; 5] = [0.25, 0.3, 0.2, 0.1, 0.15];

/// Spans the spans file keeps from the last traced run and from the
/// replay, each.
const FILE_SPANS: usize = 25_000;

/// Runs the traced pass for `workload` and writes its spans to `spans`.
pub fn measure(workload: Workload, options: &Options, spans: &Path) -> Outcome {
    let budget = |phase: usize| Duration::from_secs_f64(options.seconds * SHARES[phase]);
    let mut out = Outcome::default();

    let mut traced = if workload == Workload::TuneSim {
        tune_phases(options, budget(0), budget(1), &mut out)
    } else {
        native_phases(workload, options, budget(0), budget(1), &mut out)
    };
    let last_spans = std::mem::take(&mut traced.last_spans);
    let mut recorded = last_spans.len();
    let mut file_spans = earliest(last_spans, FILE_SPANS);
    traced.report(&mut out);

    // Image replays use real-pixel records: the workload's own for OD,
    // image classification's for every other workload.
    let replayed = if workload == Workload::OdNative {
        Workload::OdNative
    } else {
        Workload::IcNative
    };
    let size = replayed.size(options.smoke);
    let exp = experiment(replayed, size, options.seed);
    let order = epoch_order(replayed, &exp, size);
    let rec = Arc::new(Recorder::new(Instant::now()));
    let replay = rec.root_span("bench", "replay", 0, || {
        replay_layers(&exp, &order, size.batch, budget(2), &rec)
    });
    let replay_spans = rec.spans();
    recorded += replay_spans.len();
    file_spans.extend(earliest(replay_spans, FILE_SPANS));
    replay.report(&mut out);

    if workload != Workload::TuneSim {
        let trials = sim_trials(
            &sim_experiment(workload, options),
            budget(3),
            None,
            &mut out,
        );
        out.set("sim.trial_ms_p50", median(&trials.trial_ms));
        out.set("sim.samples_per_s", trials.samples_per_s());
    }

    profiled(&exp, &order, size.batch, budget(4), &mut out);

    if let Err(e) = write_spans(spans, workload.name(), options.seed, recorded, &file_spans) {
        out.fail(0, format!("{}: {e}", spans.display()));
    }
    out
}

/// What the untraced and traced phases measured.
#[derive(Default)]
struct Traced {
    untraced_sps: f64,
    traced_sps: f64,
    warmup_s: f64,
    /// Peak RSS once the untraced phase is over, before any span exists.
    untraced_rss_mb: f64,
    cold_setup_s: f64,
    get_item_ms: Vec<f64>,
    get_item_ns: u64,
    run_ns: u64,
    tracer_calls: u64,
    tracer_ns: u64,
    /// Run wall time not spent in `get_item` or in tracer calls outside
    /// it, on the thread that ran `get_item`.
    outside_ns: u64,
    delivered: u64,
    batches: u64,
    records: u64,
    t1_p50_ms: Vec<f64>,
    t2_p50_ms: Vec<f64>,
    t2_p90_ms: Vec<f64>,
    last_spans: Vec<SpanRec>,
}

impl Traced {
    /// Folds one traced run's spans and the program's own counters.
    fn absorb(&mut self, spans: Vec<SpanRec>, registry: &MetricsRegistry, records: usize) {
        let Some(root) = spans.iter().find(|s| s.parent == 0) else {
            return;
        };
        let (root_id, root_ns) = (root.id, root.dur_ns());
        let item_threads: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "get_item")
            .map(|s| s.thread)
            .collect();
        let mut busy = 0;
        for s in &spans {
            match (s.layer, s.name.as_ref()) {
                ("workloads", "get_item") => {
                    self.get_item_ms.push(s.dur_ns() as f64 / 1e6);
                    self.get_item_ns += s.dur_ns();
                }
                ("core", _) => {
                    self.tracer_calls += 1;
                    self.tracer_ns += s.dur_ns();
                }
                _ => {}
            }
            if s.parent == root_id && item_threads.contains(&s.thread) {
                busy += s.dur_ns();
            }
        }
        self.run_ns += root_ns;
        self.outside_ns += root_ns.saturating_sub(busy);
        self.records += records as u64;
        let snapshot = registry.snapshot();
        let hist = |name: &str| snapshot.histograms.get(name);
        self.t1_p50_ms
            .extend(hist(names::T1_FETCH).map(|h| h.p50_ns / 1e6));
        self.t2_p50_ms
            .extend(hist(names::T2_WAIT).map(|h| h.p50_ns / 1e6));
        self.t2_p90_ms
            .extend(hist(names::T2_WAIT).map(|h| h.p90_ns / 1e6));
        self.last_spans = spans;
    }

    fn report(&self, out: &mut Outcome) {
        let batches = self.batches.max(1) as f64;
        let calls = self.tracer_calls.max(1) as f64;
        let run_ns = self.run_ns.max(1) as f64;
        out.set("workloads.get_item_ms_p50", median(&self.get_item_ms));
        out.set(
            "workloads.get_item_busy_frac",
            self.get_item_ns as f64 / run_ns,
        );
        out.set(
            "workloads.useful_ratio",
            self.delivered as f64 / self.get_item_ms.len().max(1) as f64,
        );
        out.set(
            "dataflow.overhead_us_per_batch",
            self.outside_ns as f64 / 1e3 / batches,
        );
        out.set("dataflow.t1_fetch_ms_p50", median(&self.t1_p50_ms));
        out.set("dataflow.t2_wait_ms_p50", median(&self.t2_p50_ms));
        out.set("dataflow.t2_wait_ms_p90", median(&self.t2_p90_ms));
        out.set(
            "core.trace_calls_per_batch",
            self.tracer_calls as f64 / batches,
        );
        out.set("core.trace_ns_per_call", self.tracer_ns as f64 / calls);
        out.set("core.trace_busy_frac", self.tracer_ns as f64 / run_ns);
        out.set(
            "core.trace_records_per_batch",
            self.records as f64 / batches,
        );
        out.set(
            "bench.trace_overhead_frac",
            1.0 - self.traced_sps / self.untraced_sps,
        );
        out.set("bench.warmup_epoch_s", self.warmup_s);
        out.set("bench.peak_rss_mb", self.untraced_rss_mb);
        out.set("bench.cold_setup_s", self.cold_setup_s);
    }
}

/// Phases 1 and 2 on a native workload.
fn native_phases(
    workload: Workload,
    options: &Options,
    untraced: Duration,
    traced: Duration,
    out: &mut Outcome,
) -> Traced {
    let size = workload.size(options.smoke);
    let exp = experiment(workload, size, options.seed);
    let order = Arc::new(epoch_order(workload, &exp, size));
    let faults = options.faults();
    let mut t = Traced::default();

    let warm = Arc::new(order[..2 * size.batch].to_vec());
    let warm_epoch = native_epoch(workload, &exp, &warm, &faults, None);
    check_epoch(out, &warm_epoch, None, "warm-up");
    t.warmup_s = warm_epoch.wall_s;
    t.cold_setup_s = warm_epoch.setup_s;

    let mut reference = None;
    let mut sps = Vec::new();
    let deadline = Instant::now() + untraced;
    while sps.len() < 2 || Instant::now() < deadline {
        let epoch = native_epoch(workload, &exp, &order, &faults, None);
        check_epoch(out, &epoch, reference, "untraced epoch");
        reference = reference.or(Some(epoch.check.digest));
        sps.push(epoch.throughput());
    }
    t.untraced_sps = median(&sps);
    t.untraced_rss_mb = peak_rss_mb();

    let mut sps = Vec::new();
    let mut last_trace = None;
    let deadline = Instant::now() + traced;
    while sps.len() < 2 || Instant::now() < deadline {
        let rec = Arc::new(Recorder::new(Instant::now()));
        let epoch = native_epoch(workload, &exp, &order, &faults, Some(&rec));
        check_epoch(out, &epoch, reference, "traced epoch");
        sps.push(epoch.throughput());
        t.delivered += epoch.delivered;
        t.batches += epoch.requested / size.batch as u64;
        t.absorb(rec.spans(), &epoch.registry, epoch.trace.len());
        last_trace = Some(epoch.trace);
    }
    t.traced_sps = median(&sps);
    if let Some(trace) = last_trace {
        check_trace(out, &trace);
    }
    t
}

/// The workload's experiment as a simulated trial: one epoch, capped at
/// 32 batches. For tune-sim this is exactly the sweep's trial.
fn sim_experiment(workload: Workload, options: &Options) -> ExperimentConfig {
    let size = workload.size(options.smoke);
    let items = size.epoch_samples.min(32 * size.batch);
    experiment(workload, size, options.seed).scaled_to(items as u64)
}

/// What simulated trials measured.
struct Trials {
    trial_ms: Vec<f64>,
    samples: u64,
    wall_s: f64,
}

impl Trials {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Runs trials of the default tuning grid, in whole passes over the grid
/// until `budget` runs out, each timed on its own. With `traced`, spans
/// wrap the dataset and trace sinks and are folded into it.
fn sim_trials(
    exp: &ExperimentConfig,
    budget: Duration,
    mut traced: Option<&mut Traced>,
    out: &mut Outcome,
) -> Trials {
    let grid = SearchSpace::default().grid();
    let mut trials = Trials {
        trial_ms: Vec::new(),
        samples: 0,
        wall_s: 0.0,
    };
    let deadline = Instant::now() + budget;
    let mut n = 0;
    while n == 0 || n % grid.len() != 0 || Instant::now() < deadline {
        let config = grid[n % grid.len()];
        n += 1;
        let loader = config.apply(exp.loader_defaults());
        let built = build(exp, loader, false, &FaultPlan::default());
        let mut job = built.job;
        let rec = Arc::new(Recorder::new(Instant::now()));
        if traced.is_some() {
            instrument(&mut job, &rec);
        }
        let start = Instant::now();
        let result = rec.root_span("dataflow", "SimBackend::run", n as u64, || {
            SimBackend.run(job)
        });
        let wall = start.elapsed().as_secs_f64();
        out.attempted += 1;
        match result {
            Ok(report) => {
                trials.trial_ms.push(wall * 1e3);
                trials.samples += report.samples;
                trials.wall_s += wall;
                if let Some(t) = traced.as_deref_mut() {
                    t.delivered += report.samples;
                    t.batches += report.batches;
                    t.absorb(rec.spans(), &built.registry, built.trace.len());
                }
            }
            Err(e) => out.fail(1, format!("trial {}: {e}", config.label())),
        }
    }
    trials
}

/// Phases 1 and 2 on tune-sim: the sweep's trials, untraced then traced.
fn tune_phases(
    options: &Options,
    untraced: Duration,
    traced: Duration,
    out: &mut Outcome,
) -> Traced {
    let exp = sim_experiment(Workload::TuneSim, options);
    let mut t = Traced::default();
    let start = Instant::now();
    let cold = build(&exp, exp.loader_defaults(), false, &FaultPlan::default());
    t.cold_setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    if let Err(e) = SimBackend.run(cold.job) {
        out.fail(1, format!("warm-up trial: {e}"));
    }
    t.warmup_s = start.elapsed().as_secs_f64();

    let plain = sim_trials(&exp, untraced, None, out);
    t.untraced_sps = plain.samples_per_s();
    t.untraced_rss_mb = peak_rss_mb();
    out.set("sim.trial_ms_p50", median(&plain.trial_ms));
    out.set("sim.samples_per_s", plain.samples_per_s());
    let timed = sim_trials(&exp, traced, Some(&mut t), out);
    t.traced_sps = timed.samples_per_s();
    t
}

/// What the single-threaded layer replay measured.
#[derive(Default)]
struct Replay {
    samples: u64,
    pixels: u64,
    materialize_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    psnr_db: Vec<f64>,
    /// Transform role → total ns.
    ops_ns: BTreeMap<&'static str, u64>,
    collate_ms: Vec<f64>,
}

impl Replay {
    fn report(&self, out: &mut Outcome) {
        let n = self.samples.max(1) as f64;
        let px = self.pixels.max(1) as f64;
        out.set(
            "data.materialize_ms_per_sample",
            self.materialize_ns as f64 / 1e6 / n,
        );
        out.set(
            "codec.encode_ms_per_sample",
            self.encode_ns as f64 / 1e6 / n,
        );
        out.set("codec.encode_ns_per_pixel", self.encode_ns as f64 / px);
        out.set(
            "codec.decode_ms_per_sample",
            self.decode_ns as f64 / 1e6 / n,
        );
        out.set("codec.decode_ns_per_pixel", self.decode_ns as f64 / px);
        let psnr = self.psnr_db.iter().sum::<f64>() / self.psnr_db.len().max(1) as f64;
        out.set("codec.decode_psnr_db", psnr);
        if self.psnr_db.iter().any(|&p| p < PSNR_FLOOR_DB) {
            out.fail(1, format!("replay PSNR below {PSNR_FLOOR_DB} dB"));
        }
        let op_ms = |role: &str| self.ops_ns.get(role).copied().unwrap_or(0) as f64 / 1e6 / n;
        out.set(
            "transforms.ms_per_sample",
            self.ops_ns.values().sum::<u64>() as f64 / 1e6 / n,
        );
        for role in ["geometry", "flip", "to_tensor", "normalize"] {
            out.set(&format!("transforms.{role}_ms_per_sample"), op_ms(role));
        }
        out.set("transforms.collate_ms_per_batch", median(&self.collate_ms));
    }
}

/// The role an op of `ic_transforms` / `od_transforms` plays; both
/// chains are crop-or-resize, flip, to-tensor, normalize.
fn role_of(op: &str) -> &'static str {
    match op {
        "RandomResizedCrop" | "Resize" => "geometry",
        "RandomHorizontalFlip" => "flip",
        "ToTensor" => "to_tensor",
        "Normalize" => "normalize",
        _ => "other",
    }
}

/// Stamps wall time at each transform callback (the op ran since the
/// previous stamp) and records it as a span.
struct OpStamps<'a> {
    rec: &'a Recorder,
    key: u64,
    mark: Instant,
    ops_ns: &'a mut BTreeMap<&'static str, u64>,
}

impl TransformObserver for OpStamps<'_> {
    fn on_transform(&mut self, name: &str, _start: lotus::sim::Time, _elapsed: lotus::sim::Span) {
        let now = Instant::now();
        *self.ops_ns.entry(role_of(name)).or_default() +=
            now.duration_since(self.mark).as_nanos() as u64;
        self.rec
            .leaf("transforms", name.to_string(), self.key, self.mark, now);
        self.mark = now;
    }
}

/// Phase 3: each record through `ImageRecord::materialize`,
/// `Codec::encode` at the dataset's quality, `Codec::decode`, the
/// program's own transform chain, and `Collate::apply` per batch.
fn replay_layers(
    exp: &ExperimentConfig,
    order: &[u64],
    batch: usize,
    budget: Duration,
    rec: &Recorder,
) -> Replay {
    let model = image_model(exp);
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let codec = Codec::new(&machine);
    let compose = match exp.pipeline {
        PipelineKind::ObjectDetection => od_transforms(&machine),
        _ => ic_transforms(&machine),
    };
    let collate = Collate::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let mut rng = StdRng::seed_from_u64(exp.seed);
    let mut r = Replay::default();
    let mut pending: Vec<Sample> = Vec::with_capacity(batch);
    let deadline = Instant::now() + budget;
    for (k, &index) in order.iter().cycle().enumerate() {
        if k >= batch && pending.is_empty() && Instant::now() >= deadline {
            break;
        }
        let record = model.record(index);
        let image = timed(
            rec,
            "data",
            "materialize",
            index,
            &mut r.materialize_ns,
            || record.materialize(),
        );
        let encoded = timed(rec, "codec", "encode", index, &mut r.encode_ns, || {
            codec.encode(&image, 85, &mut cpu)
        });
        let decoded = timed(rec, "codec", "decode", index, &mut r.decode_ns, || {
            codec.decode(&encoded, &mut cpu)
        });
        let Ok(decoded) = decoded else {
            r.psnr_db.push(0.0);
            break;
        };
        r.psnr_db.push(psnr_db(&image, &decoded));
        r.samples += 1;
        r.pixels += record.pixels();
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let sample = rec.span("transforms", "Compose::apply_observed", index, || {
            let mut stamps = OpStamps {
                rec,
                key: index,
                mark: Instant::now(),
                ops_ns: &mut r.ops_ns,
            };
            compose.apply_observed(Sample::image(decoded), &mut ctx, &mut stamps)
        });
        let Ok(sample) = sample else { break };
        pending.push(sample);
        if pending.len() == batch {
            let samples = std::mem::take(&mut pending);
            let start = Instant::now();
            let collated = rec.span("transforms", "Collate::apply", index, || {
                collate.apply(samples, &mut ctx)
            });
            r.collate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if collated.is_err() {
                break;
            }
        }
    }
    r
}

/// Runs `f` in a span and adds its wall time to `acc`.
fn timed<R>(
    rec: &Recorder,
    layer: &'static str,
    name: &'static str,
    key: u64,
    acc: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let result = rec.span(layer, name, key, f);
    *acc += start.elapsed().as_nanos() as u64;
    result
}

/// Phase 5: real-pixel epochs of the first two batches with the
/// program's OS-level sampler and kernel-span feed attached.
fn profiled(
    exp: &ExperimentConfig,
    order: &[u64],
    batch: usize,
    budget: Duration,
    out: &mut Outcome,
) {
    let model = image_model(exp);
    let epoch: Arc<Vec<u64>> = Arc::new(order[..2 * batch].to_vec());
    let decoded_px: u64 = epoch.iter().map(|&i| model.record(i).pixels()).sum();
    let shape = declared_shape(exp.pipeline);
    let out_px = (shape[1] * shape[2] * epoch.len()) as u64;

    let mut sampler = NativeSampler::new(SamplerConfig::default());
    sampler.start();
    let mut machine = None;
    let (mut wall_s, mut runs) = (0.0, 0u64);
    let deadline = Instant::now() + budget;
    while runs < 1 || Instant::now() < deadline {
        let built = build(exp, exp.loader_defaults(), true, &FaultPlan::default());
        let mut job = built.job;
        job.dataset = Arc::new(CheckedDataset::new(job.dataset, Arc::clone(&epoch), shape));
        let backend = native_backend().with_feed(Arc::clone(sampler.feed()));
        let start = Instant::now();
        let result = backend.run(job);
        wall_s += start.elapsed().as_secs_f64();
        runs += 1;
        out.attempted += epoch.len() as u64;
        if let Err(e) = result {
            out.fail(epoch.len() as u64, format!("profiled epoch: {e}"));
        }
        machine = Some(built.machine);
    }
    sampler.stop();
    out.set(
        "profilers.overhead_frac",
        sampler.overhead().as_secs_f64() / wall_s,
    );
    out.set("profilers.sampler_ticks", sampler.ticks().len() as f64);
    let per_op = machine
        .map(|m| sampler.feed().per_op_function_totals(&m))
        .unwrap_or_default();
    let top_ns = |role: &str| {
        per_op
            .iter()
            .find(|(op, _)| role_of(op) == role || op.as_str() == role)
            .and_then(|(_, rows)| rows.first())
            .map_or(0.0, |f| f.stats.cpu_time.as_nanos() as f64)
    };
    let runs = runs as f64;
    out.set(
        "uarch.decode_top_kernel_ns_per_pixel",
        top_ns("Loader") / (decoded_px as f64 * runs),
    );
    out.set(
        "uarch.geometry_top_kernel_ns_per_pixel",
        top_ns("geometry") / (out_px as f64 * runs),
    );
}
