//! The profiler comparison harness behind Tables III and IV: run the same
//! pipeline with no profiler, with LotusTrace, and with each baseline
//! model; compare wall-time overhead, log storage and functionality.

use std::sync::Arc;

use lotus_core::metrics::{MetricsRegistry, MetricsSink, MultiSink};
use lotus_core::trace::LotusTrace;
use lotus_dataflow::{NullTracer, Tracer};
use lotus_sim::Span;
use lotus_uarch::{Machine, MachineConfig};
use lotus_workloads::ExperimentConfig;

use crate::capabilities::{lotus_capabilities, Capabilities};
use crate::models::{ProfilerModel, SamplingProfiler, TorchProfiler};

/// The four baseline profilers of §VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineProfiler {
    /// Scalene (in-process CPU/GPU/memory sampler).
    Scalene,
    /// py-spy (external sampler).
    PySpy,
    /// austin (external high-rate sampler).
    Austin,
    /// The built-in `torch.profiler`.
    TorchProfiler,
}

impl BaselineProfiler {
    /// All four baselines, in the paper's Table III order.
    pub const ALL: [BaselineProfiler; 4] = [
        BaselineProfiler::Scalene,
        BaselineProfiler::PySpy,
        BaselineProfiler::Austin,
        BaselineProfiler::TorchProfiler,
    ];

    /// Builds a fresh session of this profiler model.
    #[must_use]
    pub fn build(self) -> Arc<dyn ProfilerModel> {
        match self {
            BaselineProfiler::Scalene => Arc::new(SamplingProfiler::scalene()),
            BaselineProfiler::PySpy => Arc::new(SamplingProfiler::py_spy()),
            BaselineProfiler::Austin => Arc::new(SamplingProfiler::austin()),
            BaselineProfiler::TorchProfiler => Arc::new(TorchProfiler::new()),
        }
    }
}

/// One comparison row (Table III + Table IV combined).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Profiler name.
    pub profiler: String,
    /// End-to-end wall time with the profiler attached.
    pub wall_time: Span,
    /// Wall-time overhead vs. the unprofiled baseline, as a fraction
    /// (0.08 = 8 %).
    pub wall_overhead: f64,
    /// Profile/log storage written.
    pub log_bytes: u64,
    /// Whether the profiler ran out of memory at this scale.
    pub out_of_memory: bool,
    /// Functionality (Table IV).
    pub capabilities: Capabilities,
}

/// Runs one experiment configuration under every profiler.
#[derive(Debug, Clone)]
pub struct ComparisonHarness {
    config: ExperimentConfig,
}

impl ComparisonHarness {
    /// Creates a harness for `config` (the paper uses IC with batch 512,
    /// 1 GPU, 1 DataLoader).
    #[must_use]
    pub fn new(config: ExperimentConfig) -> ComparisonHarness {
        ComparisonHarness { config }
    }

    // The harness's configuration has no fault plan, so its simulated run
    // cannot fail.
    #[allow(clippy::expect_used)]
    fn run_with(&self, tracer: Arc<dyn Tracer>) -> Span {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let report = self
            .config
            .build(&machine, tracer, None)
            .run()
            .expect("comparison run must complete");
        report.elapsed
    }

    /// Wall time with no profiler attached.
    #[must_use]
    pub fn baseline_wall(&self) -> Span {
        self.run_with(Arc::new(NullTracer))
    }

    /// Runs with LotusTrace and derives its row (capabilities come from
    /// the actual records).
    #[must_use]
    pub fn run_lotus(&self, baseline: Span) -> ComparisonRow {
        let trace = Arc::new(LotusTrace::new());
        let wall = self.run_with(Arc::clone(&trace) as Arc<dyn Tracer>);
        ComparisonRow {
            profiler: "Lotus".to_string(),
            wall_time: wall,
            wall_overhead: overhead(baseline, wall),
            log_bytes: trace.log_storage_bytes(),
            out_of_memory: false,
            capabilities: lotus_capabilities(&trace.records()),
        }
    }

    /// Runs with one baseline profiler model.
    #[must_use]
    pub fn run_baseline(&self, which: BaselineProfiler, baseline: Span) -> ComparisonRow {
        let model = which.build();
        let wall = self.run_with(Arc::clone(&model) as Arc<dyn Tracer>);
        let processes = self.config.num_workers + 1;
        let output = model.finish(wall, processes);
        ComparisonRow {
            profiler: output.name,
            wall_time: wall,
            wall_overhead: overhead(baseline, wall),
            log_bytes: output.log_bytes,
            out_of_memory: output.out_of_memory,
            capabilities: output.capabilities,
        }
    }

    /// Runs the whole comparison: Lotus plus all four baselines.
    #[must_use]
    pub fn run_all(&self) -> Vec<ComparisonRow> {
        let baseline = self.baseline_wall();
        let mut rows = vec![self.run_lotus(baseline)];
        for which in BaselineProfiler::ALL {
            rows.push(self.run_baseline(which, baseline));
        }
        rows
    }

    /// Runs once with the full streaming sink stack (the LotusTrace log
    /// plus the live metrics registry behind one fan-out) and attributes
    /// the instrumentation cost sink by sink — Table III at sub-profiler
    /// granularity. Each row's `charged` is the virtual-time total the
    /// fan-out accounted to that sink.
    #[must_use]
    pub fn run_sink_stack(&self, baseline: Span) -> Vec<SinkOverheadRow> {
        let trace = Arc::new(LotusTrace::new());
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(MetricsSink::new(
            Arc::clone(&registry),
            self.config.num_workers,
        ));
        let sinks = Arc::new(
            MultiSink::new()
                .with(Arc::clone(&trace) as _)
                .with(Arc::clone(&metrics) as _),
        );
        let wall = self.run_with(Arc::clone(&sinks) as Arc<dyn Tracer>);
        sinks
            .overheads()
            .into_iter()
            .map(|(sink, charged)| SinkOverheadRow {
                sink,
                wall_time: wall,
                charged,
                wall_overhead: overhead(baseline, wall),
            })
            .collect()
    }
}

/// One row of the per-sink overhead attribution: what each streaming
/// sink charged the traced program during a single stacked run.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkOverheadRow {
    /// Sink name ([`lotus_core::metrics::TraceSink::name`]).
    pub sink: String,
    /// End-to-end wall time of the stacked run (same for every row).
    pub wall_time: Span,
    /// Virtual time this sink charged.
    pub charged: Span,
    /// Wall-time overhead of the whole stack vs. the unprofiled
    /// baseline, as a fraction.
    pub wall_overhead: f64,
}

fn overhead(baseline: Span, with_profiler: Span) -> f64 {
    let b = baseline.as_nanos() as f64;
    if b == 0.0 {
        return 0.0;
    }
    (with_profiler.as_nanos() as f64 - b) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_workloads::PipelineKind;

    fn small_ic() -> ComparisonHarness {
        let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
        config.batch_size = 512;
        config.num_workers = 1;
        config.num_gpus = 1;
        ComparisonHarness::new(config.scaled_to(2_048))
    }

    #[test]
    fn empty_multi_sink_matches_null_tracer_exactly() {
        let h = small_ic();
        let null_wall = h.run_with(Arc::new(NullTracer));
        let empty_wall = h.run_with(Arc::new(MultiSink::new()));
        // The no-sink configuration charges exactly zero: bit-identical
        // wall time, not merely close.
        assert_eq!(null_wall, empty_wall);
    }

    #[test]
    fn sink_stack_attributes_overhead_per_sink() {
        let h = small_ic();
        let baseline = h.baseline_wall();
        let rows = h.run_sink_stack(baseline);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sink, "lotus-trace");
        assert_eq!(rows[1].sink, "metrics");
        for row in &rows {
            assert!(!row.charged.is_zero(), "{} charged nothing", row.sink);
            assert!(row.charged < row.wall_time);
        }
        // The log formats a line per event; the metrics fold is cheaper.
        assert!(rows[1].charged < rows[0].charged);
        assert!(rows[0].wall_time >= baseline);
    }

    #[test]
    fn lotus_has_low_overhead_and_full_functionality() {
        let h = small_ic();
        let baseline = h.baseline_wall();
        let row = h.run_lotus(baseline);
        assert!(
            row.wall_overhead < 0.05,
            "Lotus overhead {}",
            row.wall_overhead
        );
        assert_eq!(row.capabilities.count(), 5);
        assert!(row.log_bytes > 0);
    }

    #[test]
    fn scalene_nearly_doubles_a_preprocessing_bound_run() {
        let h = small_ic();
        let baseline = h.baseline_wall();
        let row = h.run_baseline(BaselineProfiler::Scalene, baseline);
        assert!(
            (0.7..1.2).contains(&row.wall_overhead),
            "Scalene overhead {}",
            row.wall_overhead
        );
        assert_eq!(row.capabilities.count(), 0);
    }

    #[test]
    fn austin_writes_orders_of_magnitude_more_log_than_pyspy() {
        let h = small_ic();
        let baseline = h.baseline_wall();
        let austin = h.run_baseline(BaselineProfiler::Austin, baseline);
        let pyspy = h.run_baseline(BaselineProfiler::PySpy, baseline);
        assert!(
            austin.log_bytes > 100 * pyspy.log_bytes,
            "austin {} vs py-spy {}",
            austin.log_bytes,
            pyspy.log_bytes
        );
        assert!(austin.capabilities.epoch);
        assert!(pyspy.capabilities.epoch);
        assert!(!pyspy.capabilities.batch);
    }

    #[test]
    fn torch_profiler_slows_the_run_and_only_sees_waits() {
        let h = small_ic();
        let baseline = h.baseline_wall();
        let row = h.run_baseline(BaselineProfiler::TorchProfiler, baseline);
        assert!(
            row.wall_overhead > 0.4,
            "torch profiler overhead {}",
            row.wall_overhead
        );
        assert!(row.capabilities.wait);
        assert_eq!(row.capabilities.count(), 1);
    }
}
