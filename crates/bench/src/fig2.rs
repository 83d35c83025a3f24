//! Figure 2: coarse traces of the three pipelines — IC is
//! preprocessing-bound (short delays), IS and OD are GPU-bound (delays of
//! ~10.9 s and ~1.64 s). Also writes the Chrome Trace Viewer files.
//!
//! Each panel's verdict is the one rule, [`analyze`] over the coarse log.
//! The log has no op records, so an input-bound IC epoch reads
//! *preprocessing-bound*.

use std::fmt;
use std::sync::Arc;

use lotus_core::trace::chrome::{to_chrome_trace, ChromeTraceOptions};
use lotus_core::trace::insights::{analyze, Insights, Verdict};
use lotus_core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus_sim::Span;
use lotus_uarch::{Machine, MachineConfig};
use lotus_workloads::{ExperimentConfig, PipelineKind};

use crate::Scale;

/// One pipeline's coarse-trace summary.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Pipeline abbreviation.
    pub pipeline: &'static str,
    /// The coarse log's diagnosis: wait fraction, mean wait and delay,
    /// and the verdict.
    pub insights: Insights,
    /// GPU step time per batch in this configuration.
    pub gpu_step: Span,
    /// Where the Chrome trace was written.
    pub trace_path: std::path::PathBuf,
}

/// The figure's three panels.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// One row per pipeline.
    pub rows: Vec<Fig2Row>,
}

/// Runs the three Figure 2 configurations and writes coarse Chrome traces
/// under `target/lotus-results/`.
///
/// # Panics
///
/// Panics if a run fails or a trace file cannot be written.
#[must_use]
pub fn run(scale: Scale) -> Fig2 {
    let mut rows = Vec::new();
    for (kind, batch, gpus, workers, scaled_items) in [
        // Figure 2(a): IC with batch 1024, 4 GPUs, 4 dataloaders.
        (PipelineKind::ImageClassification, 1024, 4, 4, 32_768),
        (PipelineKind::ImageSegmentation, 2, 1, 8, 210),
        (PipelineKind::ObjectDetection, 2, 1, 4, 512),
    ] {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
            op_mode: OpLogMode::Off,
            ..LotusTraceConfig::default()
        }));
        let mut config = ExperimentConfig::paper_default(kind);
        config.batch_size = batch;
        config.num_gpus = gpus;
        config.num_workers = workers;
        if let Some(items) = scale.items(scaled_items) {
            config = config.scaled_to(items);
        }
        let gpu_step = config
            .build(&machine, Arc::new(lotus_dataflow::NullTracer), None)
            .gpu
            .step_span(batch);
        config
            .build(&machine, Arc::clone(&trace) as _, None)
            .run()
            .expect("fig2 run must complete");

        let records = trace.records();
        let trace_path = crate::results_dir().join(format!(
            "fig2_{}_coarse_trace.json",
            kind.abbrev().to_lowercase()
        ));
        let doc = to_chrome_trace(&records, ChromeTraceOptions { coarse: true });
        std::fs::write(
            &trace_path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .expect("write trace file");
        rows.push(Fig2Row {
            pipeline: kind.abbrev(),
            insights: analyze(&records),
            gpu_step,
            trace_path,
        });
    }
    Fig2 { rows }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — coarse traces (open the JSON in chrome://tracing)"
        )?;
        writeln!(
            f,
            "{:<4} {:>8} {:>14} {:>14} {:>14}  {:<20} trace file",
            "", "wait %", "mean wait", "mean delay", "GPU step", "verdict"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<4} {:>7.1}% {:>12.3}ms {:>14} {:>14}  {:<20} {}",
                r.pipeline,
                r.insights.wait_fraction * 100.0,
                r.insights.mean_wait_ms,
                format!("{}", r.insights.mean_delay),
                format!("{}", r.gpu_step),
                r.insights.verdict.map_or("none", Verdict::as_str),
                r.trace_path.display()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck_classification_matches_the_paper() {
        let fig = run(Scale::scaled());
        let verdict = |p: &str| {
            let row = fig.rows.iter().find(|r| r.pipeline == p).unwrap();
            row.insights.verdict
        };
        assert_eq!(verdict("IC"), Some(Verdict::PreprocessingBound));
        assert_eq!(verdict("IS"), Some(Verdict::GpuBound));
        assert_eq!(verdict("OD"), Some(Verdict::GpuBound));
    }

    #[test]
    fn gpu_bound_delays_exceed_the_step_time_many_fold() {
        let fig = run(Scale::scaled());
        let is = fig.rows.iter().find(|r| r.pipeline == "IS").unwrap();
        // Paper: 10.9 s delay vs 750 ms step.
        assert!(
            is.insights.mean_delay > is.gpu_step * 4,
            "IS delay {} should dwarf the {} step",
            is.insights.mean_delay,
            is.gpu_step
        );
        assert!(
            is.insights.mean_delay.as_secs_f64() > 4.0
                && is.insights.mean_delay.as_secs_f64() < 20.0,
            "IS delay {} should be several seconds",
            is.insights.mean_delay
        );
        let od = fig.rows.iter().find(|r| r.pipeline == "OD").unwrap();
        assert!(
            od.insights.mean_delay.as_secs_f64() > 0.7
                && od.insights.mean_delay.as_secs_f64() < 4.0,
            "OD delay {} should be a couple of seconds",
            od.insights.mean_delay
        );
    }

    #[test]
    fn trace_files_are_valid_chrome_documents() {
        let fig = run(Scale::scaled());
        for row in &fig.rows {
            let text = std::fs::read_to_string(&row.trace_path).unwrap();
            let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
            assert!(doc["traceEvents"].as_array().is_some_and(|a| !a.is_empty()));
        }
    }
}
