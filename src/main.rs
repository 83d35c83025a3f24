//! The `lotus` command-line tool: trace a pipeline, build the hardware
//! mapping, attribute counters to operations, or compare profilers — the
//! workflows of the paper's artifact, as one binary.

// Failures reach the user as error messages, not panics; a remaining
// panic site carries a targeted `#[allow]` with its invariant.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

use lotus::checking::{CheckOptions, Scenario};
use lotus::core::map::{
    split_metrics, split_metrics_mix_aware, IsolationConfig, Mapping, StorageAttribution,
};
use lotus::core::metrics::{
    names, render_dashboard, to_csv, to_json, to_prometheus, DashboardOptions,
};
use lotus::core::trace::chrome::{to_chrome_trace, ChromeTraceOptions};
use lotus::core::trace::insights::{analyze, Verdict};
use lotus::core::trace::viz::{render_timeline, TimelineOptions};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode, SpanKind};
use lotus::core::tune::{Scorecard, SearchSpace, Strategy};
use lotus::dataflow::{FaultPlan, LoaderMutation, SchedulingPolicyKind};
use lotus::profilers::ComparisonHarness;
use lotus::running::{
    bench_report, check_regression, run_experiment, BackendKind, RunOptions, RunOutcome,
};
use lotus::sim::{FileLayout, Span, StorageTier};
use lotus::tuning::{tune_experiment, TuneOptions};
use lotus::uarch::{
    format_report, CollectionMode, HwProfiler, Machine, MachineConfig, ProfilerConfig,
};
use lotus::workloads::{build_ic_mapping, build_ic_mapping_native, ExperimentConfig, PipelineKind};

const USAGE: &str = "\
lotus — characterization of ML preprocessing pipelines (paper reproduction)

USAGE:
  lotus trace     [--pipeline ic|is|od] [--items N] [--batch B] [--workers W]
                  [--gpus G] [--storage cold|warm] [--layout tiny|packed]
                  [--access shuffled|sequential] [--policy POLICY]
                  [--out FILE.json] [--log FILE] [--timeline]
      Run one epoch under LotusTrace; print per-op stats, the automated
      diagnosis (the main-process wait share and the bottleneck verdict,
      by the same rule `run` and `tune` apply), optionally an ASCII
      timeline, a Chrome trace file and a lintable LotusTrace log.
      --storage routes every Dataset::get_item through the simulated
      storage hierarchy (object store / local disk / shared OS page
      cache), producing per-read [T0] fetch spans and a per-tier
      attribution table: cold tiny-file epochs are typically
      storage-bound, warm or packed ones flip back to the CPU phases.
      --layout picks one-file-per-record (tiny) or packed shards;
      --access picks the sampler order (sequential lets readahead turn
      packed-shard neighbors into page-cache hits).

  lotus run       [--backend sim|native] [--pipeline ic|is|od|ac] [--items N]
                  [--batch B] [--workers W] [--gpus G] [--no-gpu]
                  [--no-materialize] [--status-check-ms T] [--profile]
                  [--attribution FILE.json]
                  [--storage cold|warm] [--layout tiny|packed]
                  [--access shuffled|sequential] [--storage-out FILE.json]
                  [--kill-worker W] [--kill-at-ms T] [--error-rate P]
                  [--error-op NAME] [--slow-rate P] [--slow-factor F]
                  [--policy POLICY] [--out FILE.json] [--log FILE]
      Execute one epoch on the chosen execution backend. `native` (the
      default here) runs the same DataLoader protocol on real OS threads
      with real bounded queues against real pixels, emitting a
      wall-clock LotusTrace; `sim` replays it in deterministic virtual
      time. Prints per-op stats plus the tune-style scorecard and
      bottleneck verdict. A native image run decodes each record's SJPG
      file from .lotus-cache/sjpg/ in the working directory, encoding and
      storing it on first use, and prints its [T0] file reads (`t0
      reads:` count, MB, p50). --no-gpu skips the emulated GPU consumer,
      --no-materialize keeps image pipelines cost-only. --profile (native
      only) attaches the OS-level sampling profiler: per-thread CPU time,
      RSS and context switches from /proc plus per-op native-kernel
      attribution, cross-validated against the simulated LotusMap;
      --attribution writes the observed mapping as JSON. --storage (sim
      only) models the storage hierarchy: the scorecard gains a per-tier
      [T0] attribution table, the verdict can come back storage-bound,
      and --storage-out writes the attribution as JSON. --out writes a
      Chrome trace; --log writes a LotusTrace log file that
      `lotus check --trace FILE` lints.

  lotus bench     [--backend sim|native] [--presets ic,ac,is] [--items N]
                  [--batch B] [--workers W] [--no-gpu] [--profile]
                  [--out-dir DIR] [--check-against FILE] [--tolerance F]
      Run small-scale benchmark epochs (native by default) and write one
      BENCH_<backend>_<preset>.json per preset: throughput, p50/p99
      batch latency, the T1/T2/T3 phase split, and the bottleneck
      verdict. --check-against gates a single preset against a committed
      baseline JSON and fails on a throughput regression beyond
      --tolerance (default 0.2 = 20%). --profile (native) adds the
      sampling profiler's self-accounting block to the report
      (lotus-bench-v2; v1 baselines stay comparable).

  lotus map       [--backend sim|native] [--vendor intel|amd] [--runs N]
                  [--no-sleep-gap] [--storage cold|warm]
                  [--layout tiny|packed] [--access shuffled|sequential]
                  [--items N] [--out FILE.json]
      Build the Python-op → C/C++-function mapping (Table I). The default
      `sim` backend isolates each IC operation under the simulated
      hardware profiler; `native` observes the real kernels executing on
      this machine via the cooperative span feed (--runs measured passes,
      default 3). --storage additionally runs a short traced IC epoch
      against the simulated storage hierarchy and joins the per-tier
      fetch counters ([T0] reads, bytes, span time) into the mapping
      table and JSON artifact.

  lotus attribute [--items N] [--workers W] [--mix-aware] [--functions]
      Profile an IC epoch with the simulated VTune, build the mapping, and
      attribute hardware counters to Python operations (Figure 6 e–h).
      --functions additionally prints the raw per-function profile.

  lotus compare   [--items N]
      Run the profiler comparison (Tables III and IV).

  lotus top       [--backend sim|native] [--pipeline ic|is|od] [--items N]
                  [--batch B] [--workers W] [--width COLS] [--profile]
                  [--storage cold|warm] [--layout tiny|packed]
                  [--access shuffled|sequential] [--policy POLICY]
                  [--prom FILE] [--json FILE] [--csv FILE]
      Run one epoch through `lotus run`'s measurement harness and render
      the pipeline dashboard: queue-depth sparklines over time, per-worker
      utilization, throughput, latency summaries, then `run`'s
      throughput / main-process wait / verdict line. With --backend native
      every gauge and histogram carries wall-clock timestamps from the
      run's shared clock, and --profile adds the OS sampler's per-thread
      CPU/RSS/context-switch gauges to the dashboard and exports.
      --storage (sim only) adds the live storage section: per-tier
      read/byte counters, backing-device queue-depth sparklines and the
      t0 fetch latency summary. Optionally export the registry as
      Prometheus text, JSON, or CSV time-series.

  lotus tune      [--pipeline ic|is|od|ac] [--items N] [--batch B]
                  [--strategy grid|hill] [--workers 1,2,4,8] [--prefetch 1,2,4]
                  [--caps none,4,8] [--pin on|off|both] [--json] [--out FILE]
                  [--jobs N] [--no-cache] [--cache-dir DIR]
                  [--storage cold|warm] [--layout tiny|packed]
                  [--access shuffled|sequential]
                  [--kill-worker W] [--kill-at-ms T] [--error-rate P]
                  [--error-op NAME] [--slow-rate P] [--slow-factor F]
                  [--policy POLICY]
      Search DataLoader configurations (workers, prefetch, data-queue
      cap, pin-memory) over deterministic simulated epochs. Prints the
      per-config scorecards, the Pareto frontier of throughput vs peak
      resident batches, a T1/T2/T3-based bottleneck verdict per config,
      and the recommended configuration with its predicted speedup.
      --json emits the byte-deterministic report instead; fault flags
      compose (degraded configs are reported, not fatal). --storage runs
      every trial against the simulated storage hierarchy — a cold
      tiny-file dataset typically tunes to a storage-bound verdict that
      extra workers cannot fix, because they queue on the same backing
      device. Trials fan out
      over --jobs threads (default: all cores) and memoize to the
      on-disk cache at --cache-dir (default .lotus-cache; --no-cache
      disables) — neither changes a single output byte.

  lotus check     [--pipeline ic|is|od|ac|all] [--workers W] [--items N]
                  [--batch B] [--schedules N] [--depth D] [--branch K]
                  [--steps S] [--no-faults] [--policy POLICY]
                  [--mutate lose-batch|premature-redispatch]
                  [--replay 0,2,1] [--trace FILE[,FILE...]]
      Bounded model checking of the DataLoader protocol: explore
      ready-event interleavings of a small configuration (DFS over
      schedule prefixes with state-hash pruning) and judge every run
      against the safety-invariant catalog (sample conservation, dispatch
      discipline, bounded buffers, progress). Prints a per-scenario
      summary with explored/pruned state counts; a violation prints a
      minimized counterexample schedule, replayable with --replay.
      --mutate seeds a known loader bug and *expects* detection (exit 1
      when the checker misses it). --trace skips the model checker and
      lints recorded trace files (Chrome JSON or LotusTrace logs)
      instead.

  lotus audit     [--pipeline ic|ac|is|all] [--policy POLICY|all] [--items N]
                  [--workers W] [--status-check-ms T]
                  [--mutate skip-notify|release-recheck|lock-order]
                  [--trace] [--json]
                  [--model] [--bug BUG] [--replay 0,2,1]
      Happens-before race & deadlock audit of the native backend. Attaches
      a synchronization-event feed to real native runs (IC/AC/IS under
      every scheduling policy by default), rebuilds the happens-before
      order with vector clocks, and checks lock discipline, lost wakeups,
      condvar predicate re-checks, liveness-gated sends, produce-before-
      consume per batch, death-before-redispatch, gauge total ordering,
      and lock-order acyclicity. A finding prints a greedily minimized
      event window. --mutate seeds a known backend defect and *expects*
      detection (exit 1 when the auditor misses it). --trace dumps the
      event stream per run. --model switches to the bounded exhaustive
      mode: the backend's own NativeQueue, liveness-gated commit and
      status-check recheck run as simulated processes, explored through
      every small interleaving (DFS with state-hash pruning; --workers,
      --batches and --cap size it, each at least 1). --bug seeds
      skip-notify|release-recheck|lock-order|if-instead-of-while into
      that code, and --replay re-runs one schedule deterministically.

  POLICY: the loader scheduling policy — round-robin (default; the
  PyTorch-faithful dispatch), work-stealing (overflowing queues donate to
  the shallowest live queue), slow-lane (an online per-sample cost EWMA
  segregates expensive batches onto dedicated workers), adaptive-prefetch
  (the refill window tracks live queue-depth gauges). Shorthands: rr, ws,
  sl, ap. All policies run on both backends and pass `lotus check`;
  non-default policies tag the fingerprint, traces and tune cache keys.
  --slow-rate/--slow-factor (run, tune) make that probability of samples
  cost F× their normal time — the skewed-cost fault plan the policy
  bake-off in EXPERIMENTS.md uses.

  lotus help

  A flag the command does not read is a usage error (exit status 1).
";

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (flags start with --)"));
            };
            let value = match raw.peek() {
                Some(v) if !v.starts_with("--") => raw.next().unwrap_or_default(),
                _ => "true".to_string(), // boolean flag
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: '{v}'")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Parses `--policy` (default `round-robin`, the PyTorch-faithful
/// dispatch; `rr`, `ws`, `sl` and `ap` are accepted as shorthands).
fn policy_of(args: &Args) -> Result<SchedulingPolicyKind, Box<dyn Error>> {
    let raw = args.get(
        "policy",
        SchedulingPolicyKind::RoundRobin.as_str().to_string(),
    )?;
    Ok(SchedulingPolicyKind::parse(&raw)?)
}

fn pipeline_of(name: &str) -> Result<PipelineKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "ic" => Ok(PipelineKind::ImageClassification),
        "is" => Ok(PipelineKind::ImageSegmentation),
        "od" => Ok(PipelineKind::ObjectDetection),
        "ac" => Ok(PipelineKind::AudioClassification),
        other => Err(format!(
            "unknown pipeline '{other}' (expected ic, is, od or ac)"
        )),
    }
}

/// The experiment that `--pipeline`, `--batch`, `--items`, the storage
/// flags and `--policy` describe. Without `--items`, an epoch is
/// `batches` batches, or `is_items` volumes for IS.
fn experiment_of(
    args: &Args,
    batches: u64,
    is_items: u64,
) -> Result<ExperimentConfig, Box<dyn Error>> {
    let kind = pipeline_of(&args.get("pipeline", "ic".to_string())?)?;
    let mut config = ExperimentConfig::paper_default(kind);
    config.batch_size = args.get("batch", config.batch_size)?;
    let default_items = match kind {
        PipelineKind::ImageSegmentation => is_items,
        _ => batches * config.batch_size as u64,
    };
    let config = config.scaled_to(args.get("items", default_items)?);
    Ok(apply_storage_flags(args, config)?.with_policy(policy_of(args)?))
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut config = experiment_of(args, 8, 210)?;
    config.num_workers = args.get("workers", config.num_workers)?;
    config.num_gpus = args.get("gpus", config.num_gpus)?;
    let kind = config.pipeline;

    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::new());
    let job = config.build(&machine, Arc::clone(&trace) as _, None);
    let storage = job.storage.clone();
    let report = job.run()?;
    println!(
        "{}: {} batches / {} samples in {:.2}s of virtual time\n",
        kind.abbrev(),
        report.batches,
        report.samples,
        report.elapsed.as_secs_f64()
    );
    println!(
        "{:<30} {:>9} {:>9} {:>8} {:>8}",
        "op", "avg ms", "P90 ms", "<10ms %", "<100us %"
    );
    for op in trace.op_stats() {
        println!(
            "{:<30} {:>9.2} {:>9.2} {:>8.2} {:>8.2}",
            op.name,
            op.summary.mean,
            op.summary.p90,
            op.frac_below_10ms * 100.0,
            op.frac_below_100us * 100.0
        );
    }
    if let Some(storage) = &storage {
        println!("\nstorage attribution:");
        print!(
            "{}",
            StorageAttribution::from_run(&storage.counters(), &trace.records()).to_table_string()
        );
    }
    println!("\n{}", analyze(&trace.records()));
    if args.has("timeline") {
        println!(
            "{}",
            render_timeline(&trace.records(), TimelineOptions::default())
        );
    }
    if let Some(path) = args.flags.get("out") {
        let doc = to_chrome_trace(&trace.records(), ChromeTraceOptions { coarse: true });
        std::fs::write(path, serde_json::to_string_pretty(&doc)?)?;
        println!("chrome trace written to {path}");
    }
    if let Some(path) = args.flags.get("log") {
        std::fs::write(path, trace.to_log_string())?;
        println!("trace log written to {path} (lint it with: lotus check --trace {path})");
    }
    Ok(())
}

/// Parses `--backend` (default `native` for run/bench, `sim` for top).
fn backend_of(args: &Args, default: &str) -> Result<BackendKind, Box<dyn Error>> {
    let raw = args.get("backend", default.to_string())?;
    BackendKind::parse(&raw)
        .ok_or_else(|| format!("unknown backend '{raw}' (expected sim or native)").into())
}

/// Applies the run-shaping flags shared by `run`, `bench` and `top`.
fn apply_run_flags(args: &Args, options: &mut RunOptions) -> Result<(), Box<dyn Error>> {
    if args.has("no-gpu") {
        options.emulate_gpu = false;
    }
    if args.has("no-materialize") {
        options.materialize = false;
    }
    if args.has("status-check-ms") {
        options.status_check = Span::from_millis(args.get("status-check-ms", 5_000u64)?);
    }
    if args.has("profile") {
        options.profile = true;
    }
    Ok(())
}

/// Applies `--storage cold|warm`, `--layout tiny|packed` and
/// `--access shuffled|sequential`: routes the dataset's reads through
/// the simulated storage hierarchy (the pipeline's natural one — remote
/// object store for IC/OD/AC, local NVMe for IS), producing traced
/// \[T0\] fetch spans. Sim backend only.
fn apply_storage_flags(
    args: &Args,
    config: ExperimentConfig,
) -> Result<ExperimentConfig, Box<dyn Error>> {
    let Some(raw) = args.flags.get("storage") else {
        for dependent in ["layout", "access"] {
            if args.has(dependent) {
                return Err(format!(
                    "--{dependent} only makes sense together with --storage cold|warm"
                )
                .into());
            }
        }
        return Ok(config);
    };
    let layout = match args.get("layout", "tiny".to_string())?.as_str() {
        "tiny" => FileLayout::TinyFiles,
        "packed" => FileLayout::PackedRecords,
        other => return Err(format!("unknown layout '{other}' (expected tiny or packed)").into()),
    };
    let config = match args.get("access", "shuffled".to_string())?.as_str() {
        "shuffled" => config,
        "sequential" => config.sequential(),
        other => {
            return Err(
                format!("unknown access order '{other}' (expected shuffled or sequential)").into(),
            )
        }
    };
    let base = config.default_storage().with_layout(layout);
    let storage = match raw.as_str() {
        "cold" => base,
        "warm" => base.warm(),
        other => {
            return Err(format!("unknown storage state '{other}' (expected cold or warm)").into())
        }
    };
    Ok(config.with_storage(storage))
}

/// Which clock a backend's elapsed times are on.
fn time_label(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Sim => "virtual",
        BackendKind::Native => "wall",
    }
}

/// The run summary `lotus run` and `lotus top` print: throughput, the
/// main-process wait share and the bottleneck verdict.
fn scorecard_line(card: &Scorecard) -> String {
    format!(
        "throughput {:.1} samples/s | main-process wait {:.1}% | verdict: {}",
        card.throughput,
        card.wait_fraction * 100.0,
        Verdict::describe(card.verdict)
    )
}

fn cmd_run(args: &Args) -> Result<(), Box<dyn Error>> {
    // A few real batches, not the paper-scale epoch `lotus trace`
    // simulates.
    let mut config = experiment_of(args, 4, 8)?;
    config.num_workers = args.get("workers", config.num_workers)?;
    config.num_gpus = args.get("gpus", config.num_gpus)?;
    let kind = config.pipeline;

    let backend = backend_of(args, "native")?;
    let mut options = RunOptions::for_backend(backend);
    apply_run_flags(args, &mut options)?;
    options.faults = parse_fault_flags(args, config.seed)?;

    let outcome = run_experiment(&config, &options)?;
    println!(
        "{} [{} backend]: {} batches / {} samples in {:.2}s of {} time\n",
        kind.abbrev(),
        outcome.backend,
        outcome.report.batches,
        outcome.report.samples,
        outcome.report.elapsed.as_secs_f64(),
        time_label(backend)
    );
    println!(
        "{:<30} {:>7} {:>9} {:>9} {:>8}",
        "op", "count", "avg ms", "P90 ms", "<10ms %"
    );
    for op in outcome.trace.op_stats() {
        println!(
            "{:<30} {:>7} {:>9.2} {:>9.2} {:>8.2}",
            op.name,
            op.count,
            op.summary.mean,
            op.summary.p90,
            op.frac_below_10ms * 100.0
        );
    }
    println!("\n{}", scorecard_line(&outcome.scorecard));
    if backend == BackendKind::Native {
        println!("{}", t0_reads_line(&outcome));
    }
    if let Some(storage) = &outcome.storage {
        println!("\nstorage attribution:");
        print!("{}", storage.to_table_string());
        if let Some(path) = args.flags.get("storage-out") {
            std::fs::write(path, storage.to_json())?;
            println!("storage attribution written to {path}");
        }
    }
    if let Some(profile) = &outcome.profile {
        println!(
            "\nprofiler: {} kernel samples over {} sampler ticks | overhead {:.4}s ({:.2}% of wall) | RSS peak {} kB",
            profile.kernel_samples,
            profile.ticks,
            profile.overhead.as_secs_f64(),
            profile.overhead_fraction * 100.0,
            profile.rss_peak_kb
        );
        print!("{}", profile.attribution.to_table_string());
        if let Some(agreement) = &profile.agreement {
            println!("\nsim-vs-native attribution (top-k kernels per op):");
            for verdict in agreement {
                let status = if verdict.agrees() {
                    "agrees with the simulated mapping".to_string()
                } else {
                    format!("MISSING from sim: {}", verdict.missing_from_sim.join(", "))
                };
                println!(
                    "  {}: [{}] — {status}",
                    verdict.op,
                    verdict.native_top.join(", ")
                );
            }
        }
        if let Some(path) = args.flags.get("attribution") {
            std::fs::write(path, profile.attribution.to_json())?;
            println!("attribution mapping written to {path}");
        }
    }
    if let Some(path) = args.flags.get("out") {
        let doc = to_chrome_trace(
            &outcome.trace.records(),
            ChromeTraceOptions { coarse: true },
        );
        std::fs::write(path, serde_json::to_string_pretty(&doc)?)?;
        println!("chrome trace written to {path}");
    }
    if let Some(path) = args.flags.get("log") {
        std::fs::write(path, outcome.trace.to_log_string())?;
        println!("trace log written to {path} (lint it with: lotus check --trace {path})");
    }
    Ok(())
}

/// `t0 reads: N files, M MB, p50 T ms`: a native run's \[T0\] records,
/// one per stored file read, with the bytes its metrics counted.
fn t0_reads_line(outcome: &RunOutcome) -> String {
    let mut reads: Vec<Span> = outcome
        .trace
        .records()
        .iter()
        .filter(|r| matches!(r.kind, SpanKind::StorageRead(_)))
        .map(|r| r.duration)
        .collect();
    reads.sort_unstable();
    let p50_ms = reads
        .get(reads.len() / 2)
        .map_or(0.0, |s| s.as_secs_f64() * 1e3);
    let bytes = outcome
        .measurement
        .snapshot
        .counters
        .get(&names::storage_bytes(StorageTier::LocalDisk.as_str()))
        .copied()
        .unwrap_or(0);
    format!(
        "t0 reads: {} files, {:.1} MB, p50 {p50_ms:.3} ms",
        reads.len(),
        bytes as f64 / 1e6
    )
}

fn cmd_bench(args: &Args) -> Result<(), Box<dyn Error>> {
    let backend = backend_of(args, "native")?;
    let presets: Vec<String> = args
        .get("presets", "ic".to_string())?
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    if presets.is_empty() {
        return Err("--presets must name at least one pipeline".into());
    }
    let baseline_path = args.flags.get("check-against");
    if baseline_path.is_some() && presets.len() != 1 {
        return Err(
            "--check-against gates exactly one preset; pass a single --presets value".into(),
        );
    }
    let tolerance: f64 = args.get("tolerance", 0.2)?;
    let out_dir = std::path::PathBuf::from(args.get("out-dir", ".".to_string())?);
    std::fs::create_dir_all(&out_dir)?;

    for preset in &presets {
        let kind = pipeline_of(preset)?;
        let mut config = ExperimentConfig::paper_default(kind);
        config.batch_size = args.get("batch", config.batch_size)?;
        config.num_workers = args.get("workers", config.num_workers)?;
        // The same few real batches as `lotus run`.
        let default_items = match kind {
            PipelineKind::ImageSegmentation => 8,
            _ => 4 * config.batch_size as u64,
        };
        let config = config.scaled_to(args.get("items", default_items)?);

        let mut options = RunOptions::for_backend(backend);
        apply_run_flags(args, &mut options)?;
        let outcome = run_experiment(&config, &options)?;
        let report = bench_report(preset, &config, &outcome);
        let path = out_dir.join(format!("BENCH_{}_{preset}.json", outcome.backend));
        std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
        println!(
            "{preset}: {:.1} samples/s, verdict {} -> {}",
            outcome.scorecard.throughput,
            outcome.scorecard.verdict.map_or("none", Verdict::as_str),
            path.display()
        );
        if let Some(baseline_path) = baseline_path {
            let raw = std::fs::read_to_string(baseline_path)?;
            let baseline: serde_json::Value = serde_json::from_str(&raw)?;
            check_regression(&report, &baseline, tolerance)?;
            println!(
                "  regression gate vs {baseline_path}: ok (tolerance {:.0}%)",
                tolerance * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_map(args: &Args) -> Result<(), Box<dyn Error>> {
    let machine_config = match args.get("vendor", "intel".to_string())?.as_str() {
        "intel" => MachineConfig::cloudlab_c4130(),
        "amd" => MachineConfig::amd_rome(),
        other => return Err(format!("unknown vendor '{other}'").into()),
    };
    let machine = Machine::new(machine_config);
    let mut mapping = match backend_of(args, "sim")? {
        BackendKind::Sim => {
            let mut isolation = IsolationConfig::default();
            if args.has("runs") {
                isolation.runs_override = Some(args.get("runs", 20usize)?);
            }
            isolation.use_sleep_gap = !args.has("no-sleep-gap");
            build_ic_mapping(&machine, isolation)
        }
        // Real kernels, real wall clock: the cooperative span feed
        // observes the instrumented native functions as they execute.
        BackendKind::Native => build_ic_mapping_native(&machine, args.get("runs", 3usize)?),
    };
    // `--storage cold|warm`: run a short traced IC epoch through the
    // simulated storage hierarchy and attach its per-tier attribution, so
    // one artifact carries both the op→function and the fetch→tier side.
    if args.flags.contains_key("storage") {
        let config = apply_storage_flags(
            args,
            ExperimentConfig::paper_default(PipelineKind::ImageClassification)
                .scaled_to(args.get("items", 512u64)?),
        )?;
        let trace = Arc::new(LotusTrace::new());
        let job = config.build(&machine, Arc::clone(&trace) as _, None);
        let storage = job.storage.clone();
        job.run()?;
        if let Some(storage) = storage {
            mapping.set_storage(StorageAttribution::from_run(
                &storage.counters(),
                &trace.records(),
            ));
        }
    }
    print!("{}", mapping.to_table_string());
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, mapping.to_json())?;
        println!("\nmapping written to {path}");
    }
    Ok(())
}

fn build_mapping_quick(machine: &Arc<Machine>) -> Mapping {
    build_ic_mapping(machine, IsolationConfig::default())
}

fn cmd_attribute(args: &Args) -> Result<(), Box<dyn Error>> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let mapping = build_mapping_quick(&machine);
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.num_workers = args.get("workers", config.num_workers)?;
    let config = config.scaled_to(args.get("items", 8_192u64)?);

    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        op_mode: OpLogMode::Aggregate,
        ..LotusTraceConfig::default()
    }));
    let hw = Arc::new(HwProfiler::new(ProfilerConfig {
        sampling_interval: Span::from_millis(10),
        skid: Span::from_micros(120),
        mode: CollectionMode::Sampling,
        start_paused: false,
    }));
    config
        .build(&machine, Arc::clone(&trace) as _, Some(Arc::clone(&hw)))
        .run()?;
    let op_times: BTreeMap<String, Span> = trace
        .op_stats()
        .iter()
        .map(|o| (o.name.clone(), o.total_cpu))
        .collect();
    let profile = hw.report(&machine);
    if args.has("functions") {
        println!("-- per-function hardware profile (VTune µarch exploration) --");
        print!("{}", format_report(&profile));
        println!();
    }
    let split = if args.has("mix-aware") {
        println!("(mix-aware splitting)");
        split_metrics_mix_aware(&profile, &mapping, &op_times)
    } else {
        split_metrics(&profile, &mapping, &op_times)
    };
    println!(
        "{:<30} {:>12} {:>10} {:>12} {:>12}",
        "op", "CPU (s)", "IPC", "FE-bound %", "DRAM-bound %"
    );
    for op in split {
        if op.cpu_time.is_zero() {
            continue;
        }
        println!(
            "{:<30} {:>12.2} {:>10.2} {:>12.2} {:>12.2}",
            op.op,
            op.cpu_time.as_secs_f64(),
            op.events.ipc(),
            op.events.frontend_bound_fraction() * 100.0,
            op.events.dram_bound_fraction() * 100.0
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.batch_size = 512;
    let harness = ComparisonHarness::new(config.scaled_to(args.get("items", 8_192u64)?));
    println!(
        "{:<18} {:>11} {:>12} {:>14}   Epoch/Batch/Async/Wait/Delay",
        "profiler", "wall (s)", "overhead %", "log bytes"
    );
    let baseline = harness.baseline_wall();
    let mut rows = vec![harness.run_lotus(baseline)];
    for which in lotus::profilers::BaselineProfiler::ALL {
        rows.push(harness.run_baseline(which, baseline));
    }
    for row in rows {
        println!(
            "{:<18} {:>11.1} {:>12.1} {:>14}   {}{}",
            row.profiler,
            row.wall_time.as_secs_f64(),
            row.wall_overhead * 100.0,
            row.log_bytes,
            row.capabilities.row(),
            if row.out_of_memory { "  (OOM!)" } else { "" }
        );
    }
    println!("\nstreaming sink stack (one run, cost attributed per sink):");
    println!("{:<18} {:>11} {:>14}", "sink", "wall (s)", "charged");
    for row in harness.run_sink_stack(baseline) {
        println!(
            "{:<18} {:>11.1} {:>14}",
            row.sink,
            row.wall_time.as_secs_f64(),
            format!("{}", row.charged),
        );
    }
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut config = experiment_of(args, 8, 210)?;
    config.num_workers = args.get("workers", config.num_workers)?;

    // The one measured-run harness: the same numbers and verdict as
    // `lotus run` on the same backend. On native, gauges and histograms
    // are stamped by the run's wall clock, so the sparklines span its
    // real elapsed time.
    let backend = backend_of(args, "sim")?;
    let mut options = RunOptions::for_backend(backend);
    apply_run_flags(args, &mut options)?;
    let outcome = run_experiment(&config, &options)?;
    let (snapshot, report) = (&outcome.measurement.snapshot, &outcome.report);
    let width = args.get("width", 48usize)?;
    print!("{}", render_dashboard(snapshot, DashboardOptions { width }));
    println!(
        "\n{} batches / {} samples in {:.2}s of {} time",
        report.batches,
        report.samples,
        report.elapsed.as_secs_f64(),
        time_label(backend)
    );
    println!("{}", scorecard_line(&outcome.scorecard));
    if let Some(path) = args.flags.get("prom") {
        std::fs::write(path, to_prometheus(snapshot))?;
        println!("prometheus text written to {path}");
    }
    if let Some(path) = args.flags.get("json") {
        std::fs::write(path, to_json(snapshot))?;
        println!("json snapshot written to {path}");
    }
    if let Some(path) = args.flags.get("csv") {
        std::fs::write(path, to_csv(snapshot))?;
        println!("csv time-series written to {path}");
    }
    Ok(())
}

/// Builds the `FaultPlan` from the shared `--kill-worker` / `--kill-at-ms`
/// / `--error-rate` / `--error-op` / `--slow-rate` / `--slow-factor`
/// flags (used by `tune` and `run`). A rate outside [0, 1] or a slowdown
/// factor below 1 is a usage error.
fn parse_fault_flags(args: &Args, seed: u64) -> Result<FaultPlan, Box<dyn Error>> {
    let mut faults = FaultPlan::new(seed);
    if let Some(worker) = args.flags.get("kill-worker") {
        let worker: usize = worker
            .parse()
            .map_err(|_| format!("invalid --kill-worker '{worker}'"))?;
        let at_ms: u64 = args.get("kill-at-ms", 50)?;
        faults = faults.kill_process(
            format!("dataloader{worker}"),
            lotus::sim::Time::ZERO + Span::from_millis(at_ms),
        );
    }
    let error_rate = probability(args, "error-rate")?;
    if error_rate > 0.0 {
        let op = args.get("error-op", "Loader".to_string())?;
        faults = faults.inject_sample_errors(op, error_rate);
    }
    let slow_rate = probability(args, "slow-rate")?;
    let factor: f64 = args.get("slow-factor", 10.0)?;
    if !(1.0..f64::INFINITY).contains(&factor) {
        return Err(format!("--slow-factor must be finite and at least 1, got {factor}").into());
    }
    if slow_rate > 0.0 {
        faults = faults.slow_samples(slow_rate, factor);
    }
    Ok(faults)
}

/// Reads the probability flag `name`: 0 when absent, else within [0, 1].
fn probability(args: &Args, name: &str) -> Result<f64, String> {
    let p: f64 = args.get(name, 0.0)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--{name} must be within [0, 1], got {p}"));
    }
    Ok(p)
}

fn parse_usize_list(name: &str, raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid value in --{name}: '{tok}'"))
        })
        .collect()
}

fn parse_cap_list(raw: &str) -> Result<Vec<Option<usize>>, String> {
    raw.split(',')
        .map(|tok| match tok.trim() {
            "none" | "-" => Ok(None),
            other => other
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("invalid value in --caps: '{other}' (use N or 'none')")),
        })
        .collect()
}

fn cmd_tune(args: &Args) -> Result<(), Box<dyn Error>> {
    let config = experiment_of(args, 8, 16)?;
    let kind = config.pipeline;

    let mut space = SearchSpace::default();
    if let Some(raw) = args.flags.get("workers") {
        space.workers = parse_usize_list("workers", raw)?;
    }
    if let Some(raw) = args.flags.get("prefetch") {
        space.prefetch = parse_usize_list("prefetch", raw)?;
    }
    if let Some(raw) = args.flags.get("caps") {
        space.queue_caps = parse_cap_list(raw)?;
    }
    space.pin_memory = match args.get("pin", "on".to_string())?.as_str() {
        "on" => vec![true],
        "off" => vec![false],
        "both" => vec![true, false],
        other => return Err(format!("invalid --pin '{other}' (on, off or both)").into()),
    };
    let strategy = match args.get("strategy", "grid".to_string())?.as_str() {
        "grid" => Strategy::Grid,
        "hill" => Strategy::HillClimb { max_moves: 16 },
        other => return Err(format!("invalid --strategy '{other}' (grid or hill)").into()),
    };

    let faults = parse_fault_flags(args, config.seed)?;

    let jobs = args.get("jobs", lotus::core::exec::default_jobs())?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let cache_dir = if args.has("no-cache") {
        None
    } else {
        Some(std::path::PathBuf::from(args.get(
            "cache-dir",
            lotus::core::exec::DEFAULT_CACHE_DIR.to_string(),
        )?))
    };
    let options = TuneOptions {
        space,
        strategy,
        faults,
        jobs,
        cache_dir,
    };
    let report = tune_experiment(&config, &options)?;

    if args.has("json") {
        print!("{}", report.to_json());
    } else {
        println!(
            "{}: tuning {} configs over {} items (batch {})\n",
            kind.abbrev(),
            report.cards.len(),
            config.dataset_items.unwrap_or(0),
            config.batch_size
        );
        print!("{}", report.render_table());
    }
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, report.to_json())?;
        println!("json report written to {path}");
    }
    Ok(())
}

/// Lints one or more recorded trace files; returns the number of files
/// with findings.
fn check_traces(raw: &str) -> Result<usize, Box<dyn Error>> {
    let mut dirty = 0usize;
    for path in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let records = lotus::core::check::load_trace(std::path::Path::new(path))?;
        let findings = lotus::core::check::lint_records(&records, None);
        if findings.is_empty() {
            println!("{path}: ok ({} records)", records.len());
        } else {
            dirty += 1;
            println!("{path}: {} finding(s)", findings.len());
            for finding in &findings {
                println!("  {finding}");
            }
        }
    }
    Ok(dirty)
}

fn print_counterexample(scenario: &Scenario, cx: &lotus::core::check::Counterexample) {
    let schedule: Vec<String> = cx.schedule.iter().map(usize::to_string).collect();
    println!("  counterexample schedule: [{}]", schedule.join(","));
    println!(
        "  ({} decision points in the violating run; replay with: lotus check --replay {})",
        cx.decisions,
        if schedule.is_empty() {
            "\"\"".to_string()
        } else {
            schedule.join(",")
        }
    );
    for violation in &cx.violations {
        println!("  violation: {violation}");
    }
    let _ = scenario;
}

fn cmd_check(args: &Args) -> Result<(), Box<dyn Error>> {
    if let Some(raw) = args.flags.get("trace") {
        let dirty = check_traces(raw)?;
        if dirty > 0 {
            return Err(format!("{dirty} trace file(s) violated the lint rules").into());
        }
        return Ok(());
    }

    let mut options = CheckOptions::default();
    options.workers = args.get("workers", options.workers)?;
    options.items = args.get("items", options.items)?;
    options.batch_size = args.get("batch", options.batch_size)?;
    options.bounds.max_schedules = args.get("schedules", 64usize)?;
    options.bounds.max_depth = args.get("depth", options.bounds.max_depth)?;
    options.bounds.max_branch = args.get("branch", options.bounds.max_branch)?;
    options.bounds.max_steps = args.get("steps", options.bounds.max_steps)?;
    options.with_faults = !args.has("no-faults");
    options.policy = policy_of(args)?;
    let mutate = args.flags.get("mutate").map(String::as_str);
    options.mutation = match mutate {
        None => LoaderMutation::None,
        Some("lose-batch") => LoaderMutation::LoseBatch { batch_id: 1 },
        Some("premature-redispatch") => LoaderMutation::RedispatchLive { batch_id: 1 },
        Some(other) => {
            return Err(
                format!("invalid --mutate '{other}' (lose-batch or premature-redispatch)").into(),
            )
        }
    };

    let raw_kind = args.get("pipeline", "ic".to_string())?;
    let kinds: Vec<PipelineKind> = if raw_kind == "all" {
        vec![
            PipelineKind::ImageClassification,
            PipelineKind::AudioClassification,
            PipelineKind::ImageSegmentation,
        ]
    } else {
        vec![pipeline_of(&raw_kind)?]
    };

    if let Some(raw) = args.flags.get("replay") {
        let schedule = parse_schedule(raw)?;
        let scenario = lotus::checking::scenarios(kinds[0], &options)
            .into_iter()
            .next()
            .ok_or("no scenario to replay")?;
        let outcome = lotus::checking::run_scheduled(&scenario, &schedule, &options.bounds);
        println!(
            "replay {}: {} decision points, {} protocol events",
            scenario.name,
            outcome.decisions.len(),
            outcome.events.len()
        );
        println!("  ending: {:?}", outcome.ending);
        if outcome.violations.is_empty() {
            println!("  no violations");
            return Ok(());
        }
        for violation in &outcome.violations {
            println!("  violation: {violation}");
        }
        return Err("replayed schedule violates the invariant catalog".into());
    }

    println!(
        "lotus check: workers={} items={} batch={} | schedules<={} depth<={} branch<={} steps<={}{}",
        options.workers,
        options.items,
        options.batch_size,
        options.bounds.max_schedules,
        options.bounds.max_depth,
        options.bounds.max_branch,
        options.bounds.max_steps,
        match mutate {
            Some(m) => format!(" | MUTATED ({m})"),
            None => String::new(),
        }
    );
    println!(
        "\n{:<34} {:>9} {:>9} {:>8} {:>8} {:>7} {:>9}",
        "scenario", "schedules", "decisions", "states", "pruned", "depth", "verdict"
    );
    let mut violations = 0usize;
    let mut counterexamples = Vec::new();
    for kind in kinds {
        for (scenario, report) in lotus::checking::check_pipeline(kind, &options) {
            let stats = report.stats;
            println!(
                "{:<34} {:>9} {:>9} {:>8} {:>8} {:>7} {:>9}",
                scenario.name,
                stats.schedules_run,
                stats.decision_points,
                stats.states_seen,
                stats.states_pruned,
                stats.max_depth_reached,
                if report.clean() { "ok" } else { "VIOLATED" }
            );
            if stats.budget_exhausted || stats.depth_truncations > 0 {
                println!(
                    "{:<34}   (bounded: budget_exhausted={} depth_truncations={} branch_truncations={})",
                    "", stats.budget_exhausted, stats.depth_truncations, stats.branch_truncations
                );
            }
            if let Some(cx) = report.counterexample {
                violations += 1;
                counterexamples.push((scenario, cx));
            }
        }
    }
    for (scenario, cx) in &counterexamples {
        println!("\n{}:", scenario.name);
        print_counterexample(scenario, cx);
    }
    match (mutate, violations) {
        (None, 0) => Ok(()),
        (None, n) => Err(format!("{n} scenario(s) violated the invariant catalog").into()),
        (Some(m), 0) => {
            Err(format!("mutation '{m}' was NOT detected — the checker has a blind spot").into())
        }
        (Some(m), _) => {
            println!("\nmutation '{m}' detected as expected");
            Ok(())
        }
    }
}

/// Parses `--replay`'s comma-separated choice list (`--replay` alone
/// means the empty, default-policy schedule).
fn parse_schedule(raw: &str) -> Result<Vec<usize>, String> {
    if raw.trim().is_empty() || raw == "true" {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid choice in --replay: '{tok}'"))
        })
        .collect()
}

/// The bounded-exhaustive side of `lotus audit`: explore (or `--replay`)
/// the native backend's own synchronization code under the sim kernel.
fn cmd_audit_model(args: &Args) -> Result<(), Box<dyn Error>> {
    use lotus::core::check::{explore_native_model, run_model, ExploreBounds, ModelConfig};
    use lotus::dataflow::AuditMutation;

    let raw_bug = args.get("bug", "none".to_string())?;
    let bug = AuditMutation::parse(&raw_bug).ok_or_else(|| {
        format!(
            "invalid --bug '{raw_bug}' (none, skip-notify, release-recheck, lock-order or \
             if-instead-of-while)"
        )
    })?;
    let cfg = ModelConfig {
        workers: args.get("workers", 2usize)?,
        batches_per_worker: args.get("batches", 2usize)?,
        queue_cap: args.get("cap", 1usize)?,
        bug,
    };
    cfg.validate()?;
    let bounds = ExploreBounds {
        max_schedules: args.get("schedules", 2_000usize)?,
        max_depth: args.get("depth", 96usize)?,
        max_branch: args.get("branch", 4usize)?,
        ..ExploreBounds::default()
    };

    if let Some(raw) = args.flags.get("replay") {
        let schedule = parse_schedule(raw)?;
        let (run, events) = run_model(&cfg, &schedule, bounds.max_steps);
        println!(
            "replay model[bug={}] schedule [{}]: {} decision points, {} sync events",
            bug.as_str(),
            schedule
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            run.decisions.len(),
            events.len()
        );
        if args.has("trace") {
            for e in &events {
                println!("  #{:<5} tid {:<4} {:<12} {:?}", e.seq, e.tid, e.obj, e.op);
            }
        }
        if run.violations.is_empty() {
            println!("  no violations");
            return Ok(());
        }
        for v in &run.violations {
            println!("  violation: {v}");
        }
        return Err("replayed model schedule violates the synchronization contract".into());
    }

    println!(
        "lotus audit --model: workers={} batches/worker={} cap={} bug={} | schedules<={} depth<={} branch<={}",
        cfg.workers,
        cfg.batches_per_worker,
        cfg.queue_cap,
        bug.as_str(),
        bounds.max_schedules,
        bounds.max_depth,
        bounds.max_branch
    );
    let report = explore_native_model(&cfg, &bounds);
    let stats = report.stats;
    println!(
        "explored {} schedules, {} decision points, {} states ({} pruned), depth {} | verdict: {}",
        stats.schedules_run,
        stats.decision_points,
        stats.states_seen,
        stats.states_pruned,
        stats.max_depth_reached,
        if report.clean() { "ok" } else { "VIOLATED" }
    );
    let found = report.counterexample.is_some();
    if let Some(cx) = report.counterexample {
        let schedule: Vec<String> = cx.schedule.iter().map(usize::to_string).collect();
        println!("counterexample schedule: [{}]", schedule.join(","));
        println!(
            "  (replay with: lotus audit --model --bug {} --replay {})",
            bug.as_str(),
            if schedule.is_empty() {
                "\"\"".to_string()
            } else {
                schedule.join(",")
            }
        );
        for v in &cx.violations {
            println!("  violation: {v}");
        }
    }
    match (bug, found) {
        (AuditMutation::None, false) => Ok(()),
        (AuditMutation::None, true) => {
            Err("the clean model violated the synchronization contract".into())
        }
        (_, true) => {
            println!("\nmodel bug '{}' detected as expected", bug.as_str());
            Ok(())
        }
        (_, false) => Err(format!(
            "model bug '{}' was NOT detected — the auditor has a blind spot",
            bug.as_str()
        )
        .into()),
    }
}

fn cmd_audit(args: &Args) -> Result<(), Box<dyn Error>> {
    use lotus::auditing::{audit_matrix, minimized_window, AuditOptions};
    use lotus::dataflow::AuditMutation;

    if args.has("model") || args.has("bug") {
        return cmd_audit_model(args);
    }
    if args.has("replay") {
        return Err("--replay replays model schedules; add --model (and --bug NAME)".into());
    }

    let mut options = AuditOptions::default();
    options.items = args.get("items", options.items)?;
    options.workers = args.get("workers", options.workers)?;
    if args.has("status-check-ms") {
        options.status_check = Span::from_millis(args.get("status-check-ms", 20u64)?);
    }
    let raw_kind = args.get("pipeline", "all".to_string())?;
    if raw_kind != "all" {
        options.pipelines = vec![pipeline_of(&raw_kind)?];
    }
    let raw_policy = args.get("policy", "all".to_string())?;
    if raw_policy != "all" {
        options.policies = vec![SchedulingPolicyKind::parse(&raw_policy)?];
    }
    let mutate = args.flags.get("mutate").map(String::as_str);
    if let Some(name) = mutate {
        options.mutation = AuditMutation::parse(name).ok_or_else(|| {
            format!("invalid --mutate '{name}' (skip-notify, release-recheck or lock-order)")
        })?;
    }
    if options.mutation == AuditMutation::IfInsteadOfWhile {
        return Err(
            "if-instead-of-while needs a status check to expire on an empty queue, \
             which a live run cannot force; use --model --bug if-instead-of-while"
                .into(),
        );
    }

    println!(
        "lotus audit: items={} workers={} status-check={:.0}ms | {} pipeline(s) x {} policy(ies){}",
        options.items,
        options.workers,
        options.status_check.as_secs_f64() * 1e3,
        options.pipelines.len(),
        options.policies.len(),
        match mutate {
            Some(m) => format!(" | MUTATED ({m})"),
            None => String::new(),
        }
    );
    println!(
        "\n{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12} {:>9}",
        "run", "batches", "events", "threads", "objects", "ids", "overhead us", "verdict"
    );
    let runs = audit_matrix(&options)?;
    let mut flagged = 0usize;
    for run in &runs {
        let s = run.report.stats;
        println!(
            "{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12.1} {:>9}",
            run.name,
            run.batches,
            s.events,
            s.threads,
            s.objects,
            s.batches,
            run.audit_overhead_ns as f64 / 1e3,
            if run.report.clean() { "ok" } else { "FLAGGED" }
        );
        if args.has("trace") {
            for e in &run.events {
                println!("  #{:<6} tid {:<4} {:<22} {:?}", e.seq, e.tid, e.obj, e.op);
            }
        }
        if !run.report.clean() {
            flagged += 1;
        }
    }
    if args.has("json") {
        let docs: Vec<serde_json::Value> = runs
            .iter()
            .map(|run| {
                use serde_json::Content;
                serde_json::Value(Content::Map(vec![
                    ("run".into(), Content::Str(run.name.clone())),
                    ("clean".into(), Content::Bool(run.report.clean())),
                    (
                        "events".into(),
                        Content::U64(run.report.stats.events as u64),
                    ),
                    (
                        "threads".into(),
                        Content::U64(run.report.stats.threads as u64),
                    ),
                    ("overhead_ns".into(), Content::U64(run.audit_overhead_ns)),
                    ("elapsed_s".into(), Content::F64(run.elapsed.as_secs_f64())),
                    (
                        "findings".into(),
                        Content::Seq(
                            run.report
                                .findings
                                .iter()
                                .map(|f| {
                                    Content::Map(vec![
                                        ("kind".into(), Content::Str(f.kind().into())),
                                        ("detail".into(), Content::Str(f.to_string())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]))
            })
            .collect();
        let seq = serde_json::Value(serde_json::Content::Seq(
            docs.into_iter().map(|v| v.0).collect(),
        ));
        println!("{}", serde_json::to_string_pretty(&seq)?);
    }
    for run in runs.iter().filter(|r| !r.report.clean()) {
        println!("\n{}: {} finding(s)", run.name, run.report.findings.len());
        for finding in &run.report.findings {
            println!("  [{}] {finding}", finding.kind());
        }
        if let Some(window) = minimized_window(run) {
            println!(
                "  minimized counterexample window ({} of {} events):",
                window.len(),
                run.events.len()
            );
            for e in &window {
                println!(
                    "    #{:<6} tid {:<4} {:<22} {:?}",
                    e.seq, e.tid, e.obj, e.op
                );
            }
        }
    }
    match (mutate, flagged) {
        (None, 0) => Ok(()),
        (None, n) => Err(format!("{n} run(s) violated the synchronization contract").into()),
        (Some(m), 0) => {
            Err(format!("mutation '{m}' was NOT detected — the auditor has a blind spot").into())
        }
        (Some(m), _) => {
            println!("\nmutation '{m}' detected as expected");
            Ok(())
        }
    }
}

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), Box<dyn Error>>;

/// The flags `apply_storage_flags`, `apply_run_flags` and
/// `parse_fault_flags` read.
const STORAGE_FLAGS: &str = "storage layout access";
const RUN_FLAGS: &str = "no-gpu no-materialize status-check-ms profile";
const FAULT_FLAGS: &str = "kill-worker kill-at-ms error-rate error-op slow-rate slow-factor";

/// Every command with the flags it reads. `run` refuses any other flag
/// before the command starts: a mistyped or unsupported flag would
/// otherwise silently change what is measured.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    (
        "trace",
        cmd_trace,
        &[
            STORAGE_FLAGS,
            "pipeline items batch workers gpus policy out log timeline",
        ],
    ),
    (
        "run",
        cmd_run,
        &[
            STORAGE_FLAGS,
            RUN_FLAGS,
            FAULT_FLAGS,
            "backend pipeline items batch workers gpus policy attribution storage-out out log",
        ],
    ),
    (
        "bench",
        cmd_bench,
        &[
            RUN_FLAGS,
            "backend presets items batch workers out-dir check-against tolerance",
        ],
    ),
    (
        "map",
        cmd_map,
        &[STORAGE_FLAGS, "backend vendor runs no-sleep-gap items out"],
    ),
    (
        "attribute",
        cmd_attribute,
        &["items workers mix-aware functions"],
    ),
    ("compare", cmd_compare, &["items"]),
    (
        "top",
        cmd_top,
        &[
            STORAGE_FLAGS,
            RUN_FLAGS,
            "backend pipeline items batch workers width policy prom json csv",
        ],
    ),
    (
        "tune",
        cmd_tune,
        &[
            STORAGE_FLAGS,
            FAULT_FLAGS,
            "pipeline items batch strategy workers prefetch caps pin policy",
            "json out jobs no-cache cache-dir",
        ],
    ),
    (
        "check",
        cmd_check,
        &[
            "pipeline workers items batch policy no-faults mutate replay trace",
            "schedules depth branch steps",
        ],
    ),
    (
        "audit",
        cmd_audit,
        &[
            "pipeline policy items workers status-check-ms mutate trace json",
            "model bug batches cap schedules depth branch replay",
        ],
    ),
];

fn run() -> Result<(), Box<dyn Error>> {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        print!("{USAGE}");
        return Ok(());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let Some(&(_, cmd, known)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command '{command}'\n\n{USAGE}").into());
    };
    let args = Args::parse(raw)?;
    let reads = |flag: &String| {
        known
            .iter()
            .flat_map(|group| group.split_whitespace())
            .any(|name| name == flag)
    };
    if let Some(flag) = args.flags.keys().find(|flag| !reads(flag)) {
        return Err(format!("unknown flag --{flag} for `lotus {command}` (see lotus help)").into());
    }
    // Every command sizes its dataset from --items; an empty one has
    // nothing to load, trace or audit. A GPU group needs a GPU.
    for flag in ["items", "gpus"] {
        if args.get(flag, 1u64)? == 0 {
            return Err(format!("--{flag} must be at least 1").into());
        }
    }
    cmd(&args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
