//! The benchmark's vocabulary: its workloads, how big each one runs, and
//! the metric names it reports. `BENCHMARK.json` at the repository root
//! declares the same names and units; `tests/cli.rs` keeps the two in
//! step.

use lotus::workloads::PipelineKind;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Image classification on real pixels: per-sample codec work.
    IcNative,
    /// Object detection on real pixels: large resized tensors.
    OdNative,
    /// Image classification, cost-only, batch 1: the loader protocol.
    ProtocolNative,
    /// A `lotus tune` grid sweep in virtual time.
    TuneSim,
}

impl Workload {
    /// Every workload, in the order `run` and `trace` execute them.
    pub const ALL: [Workload; 4] = [
        Workload::IcNative,
        Workload::OdNative,
        Workload::ProtocolNative,
        Workload::TuneSim,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IcNative => "ic-native",
            Workload::OdNative => "od-native",
            Workload::ProtocolNative => "protocol-native",
            Workload::TuneSim => "tune-sim",
        }
    }

    /// Parses a stable name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pipeline the workload's experiment builds.
    pub fn pipeline(self) -> PipelineKind {
        match self {
            Workload::OdNative => PipelineKind::ObjectDetection,
            _ => PipelineKind::ImageClassification,
        }
    }

    /// True when the workload's samples carry real pixels.
    pub fn materialized(self) -> bool {
        matches!(self, Workload::IcNative | Workload::OdNative)
    }

    /// How big one epoch (native) or sweep (tune-sim) is.
    pub fn size(self, smoke: bool) -> Size {
        let (batch, epoch_samples, pool, smoke_samples) = match self {
            // 12 batches of 8 per epoch, drawn from a 64k-record pool so
            // the image-size quantiles repeat across seeds.
            Workload::IcNative => (8, 96, 65_536, 16),
            // 12 batches of 2 per epoch.
            Workload::OdNative => (2, 24, 4_096, 4),
            // Cost-only samples: an epoch is dominated by protocol work.
            Workload::ProtocolNative => (1, 5_000, 5_000, 400),
            // Dataset items per simulated trial (32 batches of the
            // paper's 128).
            Workload::TuneSim => (128, 4_096, 4_096, 1_024),
        };
        let epoch_samples = if smoke { smoke_samples } else { epoch_samples };
        Size {
            batch,
            epoch_samples,
            pool: if self == Workload::TuneSim {
                epoch_samples as u64
            } else {
                pool.max(epoch_samples as u64)
            },
        }
    }
}

/// The size of one epoch (native) or of each trial's dataset (tune-sim).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Samples per batch.
    pub batch: usize,
    /// Samples one epoch delivers (native) or one trial simulates.
    pub epoch_samples: usize,
    /// Dataset items the experiment is truncated to; native epochs pick
    /// their samples from this pool.
    pub pool: u64,
}

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_sps", "samples/s"),
    ("wait_p50_ms", "ms"),
    ("cpu_us_per_sample", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics from the traced pass: `(name, unit)`. Layers are the
/// crate names; `bench` is the benchmark's own bookkeeping.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.get_item_ms_p50", "ms"),
    ("workloads.get_item_busy_frac", "ratio"),
    ("workloads.useful_ratio", "ratio"),
    ("data.materialize_ms_per_sample", "ms"),
    ("codec.encode_ms_per_sample", "ms"),
    ("codec.encode_ns_per_pixel", "ns"),
    ("codec.decode_ms_per_sample", "ms"),
    ("codec.decode_ns_per_pixel", "ns"),
    ("codec.decode_psnr_db", "dB"),
    ("transforms.ms_per_sample", "ms"),
    ("transforms.geometry_ms_per_sample", "ms"),
    ("transforms.flip_ms_per_sample", "ms"),
    ("transforms.to_tensor_ms_per_sample", "ms"),
    ("transforms.normalize_ms_per_sample", "ms"),
    ("transforms.collate_ms_per_batch", "ms"),
    ("dataflow.overhead_us_per_batch", "us"),
    ("dataflow.t1_fetch_ms_p50", "ms"),
    ("dataflow.t2_wait_ms_p50", "ms"),
    ("dataflow.t2_wait_ms_p90", "ms"),
    ("core.trace_calls_per_batch", "count"),
    ("core.trace_ns_per_call", "ns"),
    ("core.trace_busy_frac", "ratio"),
    ("core.trace_records_per_batch", "count"),
    ("sim.trial_ms_p50", "ms"),
    ("sim.samples_per_s", "samples/s"),
    ("profilers.overhead_frac", "ratio"),
    ("profilers.sampler_ticks", "count"),
    ("uarch.decode_top_kernel_ns_per_pixel", "ns"),
    ("uarch.geometry_top_kernel_ns_per_pixel", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.warmup_epoch_s", "s"),
    ("bench.cold_setup_s", "s"),
    ("bench.peak_rss_mb", "MB"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
