//! The paper's published measurements, as structured constants — the
//! calibration targets the workload models aim at, and the tolerance
//! machinery the experiment tests use.
//!
//! Model constants themselves live next to the code they parameterize
//! (kernel cost coefficients in `lotus-codec`/`lotus-transforms`, storage
//! in [`crate::IoModel`], GPU steps in [`crate::gpu_step`]); this module
//! records *what they were tuned toward* so drift is caught by tests
//! rather than archaeology.

use std::sync::Arc;

use lotus_core::exec::run_jobs;
use lotus_core::trace::analysis::OpStats;
use lotus_core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus_sim::Span;
use lotus_uarch::{Machine, MachineConfig};

use crate::{ExperimentConfig, PipelineKind};

/// One Table II target row: per-image elapsed-time statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTarget {
    /// Operation name as logged by LotusTrace.
    pub op: &'static str,
    /// Paper's average elapsed time, ms.
    pub avg_ms: f64,
    /// Paper's 90th percentile, ms.
    pub p90_ms: f64,
    /// Paper's fraction of executions under 10 ms (0–1).
    pub below_10ms: f64,
    /// Paper's fraction of executions under 100 µs (0–1).
    pub below_100us: f64,
}

/// Table II, IC block (batch 128, 1 GPU, 1 dataloader).
pub const PAPER_TABLE2_IC: [OpTarget; 6] = [
    OpTarget {
        op: "Loader",
        avg_ms: 4.76,
        p90_ms: 6.02,
        below_10ms: 0.9779,
        below_100us: 0.0,
    },
    OpTarget {
        op: "RandomResizedCrop",
        avg_ms: 1.11,
        p90_ms: 1.39,
        below_10ms: 0.9982,
        below_100us: 0.0,
    },
    OpTarget {
        op: "RandomHorizontalFlip",
        avg_ms: 0.06,
        p90_ms: 0.08,
        below_10ms: 1.0,
        below_100us: 0.983,
    },
    OpTarget {
        op: "ToTensor",
        avg_ms: 0.34,
        p90_ms: 0.39,
        below_10ms: 1.0,
        below_100us: 0.0,
    },
    OpTarget {
        op: "Normalize",
        avg_ms: 0.21,
        p90_ms: 0.23,
        below_10ms: 1.0,
        below_100us: 0.0,
    },
    OpTarget {
        op: "C(128)",
        avg_ms: 49.76,
        p90_ms: 52.49,
        below_10ms: 0.0,
        below_100us: 0.0,
    },
];

/// Table II, IS block (batch 2, 8 dataloaders).
pub const PAPER_TABLE2_IS: [OpTarget; 7] = [
    OpTarget {
        op: "Loader",
        avg_ms: 72.03,
        p90_ms: 130.94,
        below_10ms: 0.0,
        below_100us: 0.0,
    },
    OpTarget {
        op: "RandBalancedCrop",
        avg_ms: 91.10,
        p90_ms: 298.62,
        below_10ms: 0.6369,
        below_100us: 0.613,
    },
    OpTarget {
        op: "RandomFlip",
        avg_ms: 4.39,
        p90_ms: 8.84,
        below_10ms: 0.9523,
        below_100us: 0.2857,
    },
    OpTarget {
        op: "Cast",
        avg_ms: 2.16,
        p90_ms: 4.32,
        below_10ms: 0.9821,
        below_100us: 0.0,
    },
    OpTarget {
        op: "RandomBrightnessAugmentation",
        avg_ms: 0.78,
        p90_ms: 4.66,
        below_10ms: 0.988,
        below_100us: 0.8869,
    },
    OpTarget {
        op: "GaussianNoise",
        avg_ms: 6.46,
        p90_ms: 54.54,
        below_10ms: 0.8869,
        below_100us: 0.8869,
    },
    OpTarget {
        op: "C(2)",
        avg_ms: 14.24,
        p90_ms: 15.81,
        below_10ms: 0.0,
        below_100us: 0.0,
    },
];

/// Table II, OD block (batch 2, 4 dataloaders).
pub const PAPER_TABLE2_OD: [OpTarget; 6] = [
    OpTarget {
        op: "Loader",
        avg_ms: 9.59,
        p90_ms: 15.57,
        below_10ms: 0.5846,
        below_100us: 0.0,
    },
    OpTarget {
        op: "Resize",
        avg_ms: 9.43,
        p90_ms: 11.56,
        below_10ms: 0.7654,
        below_100us: 0.0,
    },
    OpTarget {
        op: "RandomHorizontalFlip",
        avg_ms: 0.52,
        p90_ms: 1.13,
        below_10ms: 1.0,
        below_100us: 0.4996,
    },
    OpTarget {
        op: "ToTensor",
        avg_ms: 6.75,
        p90_ms: 12.86,
        below_10ms: 0.8768,
        below_100us: 0.0,
    },
    OpTarget {
        op: "Normalize",
        avg_ms: 7.8,
        p90_ms: 12.6,
        below_10ms: 0.7996,
        below_100us: 0.0,
    },
    OpTarget {
        op: "C(2)",
        avg_ms: 7.39,
        p90_ms: 10.44,
        below_10ms: 0.8713,
        below_100us: 0.0,
    },
];

/// Other headline measurements the models are calibrated against.
pub mod headline {
    /// ImageNet mean file size, bytes (§V-C).
    pub const IMAGENET_MEAN_FILE_BYTES: f64 = 111_000.0;
    /// ImageNet file-size standard deviation, bytes (§V-C).
    pub const IMAGENET_STD_FILE_BYTES: f64 = 133_000.0;
    /// IS per-batch GPU step, ms (§V-B).
    pub const IS_GPU_STEP_MS: f64 = 750.0;
    /// OD per-batch GPU step, ms (§V-B).
    pub const OD_GPU_STEP_MS: f64 = 250.0;
    /// IS mean batch delay, seconds (§V-B).
    pub const IS_MEAN_DELAY_S: f64 = 10.9;
    /// OD mean batch delay, seconds (§V-B).
    pub const OD_MEAN_DELAY_S: f64 = 1.64;
    /// Fig 4 coefficient-of-variation band, fractions (§V-C1).
    pub const FIG4_CV_RANGE: (f64, f64) = (0.0548, 0.1073);
    /// Fig 6 total-CPU growth, 8 → 28 workers (§V-D).
    pub const FIG6_CPU_GROWTH: f64 = 14_423.64 / 9_402.62;
    /// §V-D's mis-bucketing hypothetical: RRC CPU inflation when
    /// `decode_mcu` lands in its bucket.
    pub const DECODE_MISBUCKET_INFLATION: f64 = 0.3021;
    /// Table III wall-time overheads (fractions) on ImageNet-small.
    pub const OVERHEAD_LOTUS: f64 = 0.02;
    /// Scalene's overhead fraction.
    pub const OVERHEAD_SCALENE: f64 = 0.961;
    /// py-spy's overhead fraction.
    pub const OVERHEAD_PYSPY: f64 = 0.08;
    /// austin's overhead fraction.
    pub const OVERHEAD_AUSTIN: f64 = 0.032;
    /// The PyTorch profiler's overhead fraction.
    pub const OVERHEAD_TORCH: f64 = 0.864;
    /// austin's log size on ImageNet-small, bytes.
    pub const AUSTIN_LOG_BYTES: f64 = 6.8e9;
}

/// True if `measured` is within `rel_tol` (relative) of `target`, with an
/// `abs_tol` floor for near-zero targets.
#[must_use]
pub fn within(measured: f64, target: f64, rel_tol: f64, abs_tol: f64) -> bool {
    (measured - target).abs() <= (target.abs() * rel_tol).max(abs_tol)
}

/// Finds the target row for `op` in a Table II block.
#[must_use]
pub fn target_for<'t>(block: &'t [OpTarget], op: &str) -> Option<&'t OpTarget> {
    block.iter().find(|t| t.op == op)
}

/// One pipeline's measured calibration block: the per-op statistics a
/// paper-default run on the paper's Intel testbed produces, plus the run
/// totals — what the Table II targets above are compared against.
#[derive(Debug, Clone)]
pub struct MeasuredBlock {
    /// Pipeline measured.
    pub pipeline: PipelineKind,
    /// Batches the run consumed.
    pub batches: u64,
    /// End-to-end elapsed virtual time.
    pub elapsed: Span,
    /// Per-op elapsed statistics, in pipeline order.
    pub ops: Vec<OpStats>,
}

/// Runs one paper-default pipeline truncated to `items` under an
/// aggregate-mode LotusTrace and returns its calibration block. This is
/// the measurement the calibration tests and the `calibrate` example
/// share; it is a pure function of `(kind, items)`.
///
/// # Panics
///
/// Panics if the simulated run fails (paper-default configurations
/// always complete).
#[must_use]
// A paper-default configuration has no fault plan and a valid loader, so
// its simulated run cannot fail.
#[allow(clippy::expect_used)]
pub fn measure_op_block(kind: PipelineKind, items: u64) -> MeasuredBlock {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        op_mode: OpLogMode::Aggregate,
        ..LotusTraceConfig::default()
    }));
    let report = ExperimentConfig::paper_default(kind)
        .scaled_to(items)
        .build(&machine, Arc::clone(&trace) as _, None)
        .run()
        .expect("calibration run must complete");
    MeasuredBlock {
        pipeline: kind,
        batches: report.batches,
        elapsed: report.elapsed,
        ops: trace.op_stats(),
    }
}

/// Measures several calibration blocks, fanning the independent runs
/// over `jobs` threads ([`run_jobs`] joins in submission order, so the
/// result is identical for any job count).
///
/// # Panics
///
/// Panics if any simulated run fails.
#[must_use]
pub fn measure_op_blocks(specs: &[(PipelineKind, u64)], jobs: usize) -> Vec<MeasuredBlock> {
    run_jobs(
        jobs,
        specs
            .iter()
            .map(|&(kind, items)| move || measure_op_block(kind, items))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_handles_relative_and_absolute_floors() {
        assert!(within(10.5, 10.0, 0.10, 0.0));
        assert!(!within(11.5, 10.0, 0.10, 0.0));
        assert!(within(0.02, 0.0, 0.10, 0.05), "abs floor applies near zero");
    }

    /// Fanning the calibration blocks over worker threads must not
    /// change a single measured number or their order.
    #[test]
    fn parallel_block_measurement_matches_serial() {
        let specs = [
            (crate::PipelineKind::ImageClassification, 512),
            (crate::PipelineKind::ObjectDetection, 128),
        ];
        let serial = measure_op_blocks(&specs, 1);
        let parallel = measure_op_blocks(&specs, 4);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn target_lookup_finds_rows() {
        assert!(target_for(&PAPER_TABLE2_IC, "Loader").is_some());
        assert!(target_for(&PAPER_TABLE2_IC, "Nope").is_none());
    }

    /// The end-to-end calibration gate: every IC op's measured average is
    /// within 2.2× of the paper's value (most are within 15 %); the
    /// per-op *ordering* matches exactly.
    #[test]
    fn ic_calibration_tracks_the_paper() {
        let block = measure_op_block(crate::PipelineKind::ImageClassification, 4_096);
        assert!(block.batches > 0 && block.elapsed.as_nanos() > 0);
        let measured = block.ops;
        for target in &PAPER_TABLE2_IC {
            let m = measured
                .iter()
                .find(|o| o.name == target.op)
                .unwrap_or_else(|| panic!("{} missing from trace", target.op));
            let ratio = m.summary.mean / target.avg_ms;
            assert!(
                (1.0 / 2.2..2.2).contains(&ratio),
                "{}: measured {:.2} ms vs paper {:.2} ms",
                target.op,
                m.summary.mean,
                target.avg_ms
            );
        }
        // Ordering by cost matches the paper's ordering.
        let order_of = |ops: Vec<(&str, f64)>| {
            let mut v = ops;
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            v.into_iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        };
        let paper_order = order_of(PAPER_TABLE2_IC.iter().map(|t| (t.op, t.avg_ms)).collect());
        let measured_order = order_of(
            measured
                .iter()
                .map(|o| {
                    let name: &str = PAPER_TABLE2_IC
                        .iter()
                        .find(|t| t.op == o.name)
                        .map_or("", |t| t.op);
                    (name, o.summary.mean)
                })
                .filter(|(n, _)| !n.is_empty())
                .collect(),
        );
        assert_eq!(
            paper_order, measured_order,
            "per-op cost ordering must match"
        );
    }
}
