//! Bottleneck hunting across the three MLPerf pipelines: the Figure 2
//! analysis — who is the bottleneck, the CPU preprocessing or the GPU?
//!
//! ```sh
//! cargo run --release --example bottleneck_hunt
//! ```

use std::error::Error;
use std::sync::Arc;

use lotus::core::trace::insights::analyze;
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn main() -> Result<(), Box<dyn Error>> {
    println!(
        "{:<4} {:>8} {:>12} {:>12} {:>12}  verdict",
        "", "wait %", "wait (ms)", "delay (ms)", "step (ms)"
    );
    for (kind, items) in [
        (PipelineKind::ImageClassification, 8_192u64),
        (PipelineKind::ImageSegmentation, 210),
        (PipelineKind::ObjectDetection, 512),
    ] {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        // Batch-level tracing is enough for bottleneck analysis; with no
        // op records, an input-bound run reads preprocessing-bound.
        let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
            op_mode: OpLogMode::Off,
            ..LotusTraceConfig::default()
        }));
        let config = ExperimentConfig::paper_default(kind).scaled_to(items);
        let job = config.build(&machine, Arc::clone(&trace) as _, None);
        let step = job.gpu.step_span(config.batch_size);
        job.run()?;

        let insights = analyze(&trace.records());
        println!(
            "{:<4} {:>7.1}% {:>12.1} {:>12.1} {:>12.1}  {} ({})",
            kind.abbrev(),
            insights.wait_fraction * 100.0,
            insights.mean_wait_ms,
            insights.mean_delay.as_millis_f64(),
            step.as_millis_f64(),
            insights.verdict.as_str(),
            insights.verdict.family()
        );
    }
    println!(
        "\nThe IS/OD pipelines apply part of their preprocessing offline (before \
         training), which is why they are GPU-bound — the paper's Takeaway 2."
    );
    Ok(())
}
