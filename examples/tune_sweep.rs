//! Self-validating `lotus tune` sweep: tunes two pipelines with opposite
//! characters and checks the tuner's recommendations match the paper's
//! characterization.
//!
//! * IC (ImageNet + ResNet18) at one worker is input-bound — the tuner
//!   must recommend more workers and predict a real speedup.
//! * IS (KiTS19 + U-Net3D) is GPU-bound — the tuner must *not* chase
//!   workers, and the verdict must say the accelerator is the limit.
//!
//! Run with `cargo run --example tune_sweep`. Prints `TUNE OK` when all
//! assertions hold.

use lotus::core::trace::insights::Verdict;
use lotus::tuning::{tune_experiment, TuneOptions};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn main() -> Result<(), String> {
    // IC, deliberately anchored at 1 worker (the paper's Table II
    // default): preprocessing cannot keep one GPU fed.
    let mut ic = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    ic.num_workers = 1;
    let ic = ic.scaled_to(512);
    let report = tune_experiment(&ic, &TuneOptions::default())?;
    println!("=== IC (baseline 1 worker) ===");
    print!("{}", report.render_table());
    let speedup = report
        .predicted_speedup
        .ok_or("IC baseline must complete")?;
    assert!(
        report.recommended.num_workers > 1,
        "input-bound IC must want more workers"
    );
    assert!(speedup > 1.5, "IC speedup should be substantial: {speedup}");
    let rec = report.recommended_card();
    assert!(
        matches!(
            rec.verdict,
            Some(Verdict::FetchBound | Verdict::PreprocessingBound)
        ),
        "IC stays input-bound even tuned: {:?}",
        rec.verdict
    );

    // IS: a 750 ms GPU step per batch of 2 dwarfs preprocessing.
    let is = ExperimentConfig::paper_default(PipelineKind::ImageSegmentation).scaled_to(16);
    let report = tune_experiment(&is, &TuneOptions::default())?;
    println!("\n=== IS (GPU-bound) ===");
    print!("{}", report.render_table());
    let rec = report.recommended_card();
    assert_eq!(
        rec.verdict,
        Some(Verdict::GpuBound),
        "IS is GPU-bound; loader tuning cannot move it"
    );
    let speedup = report
        .predicted_speedup
        .ok_or("IS baseline must complete")?;
    assert!(
        speedup < 1.2,
        "no loader config should promise big IS wins: {speedup}"
    );

    println!("\nTUNE OK");
    Ok(())
}
