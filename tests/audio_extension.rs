//! Integration tests for the audio-classification extension: the real
//! DSP path end to end, and the declarative pipeline under LotusTrace.

use std::sync::Arc;

use lotus::core::trace::insights::{analyze, Verdict};
use lotus::core::trace::LotusTrace;
use lotus::data::{AudioDatasetModel, Tensor};
use lotus::dataflow::{GpuConfig, Pipeline, Source};
use lotus::sim::Span;
use lotus::transforms::{
    MelSpectrogram, PadTrim, Resample, Sample, SpecAugment, Transform, TransformCtx,
};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A materialized clip runs through the full real transform chain:
/// resample → pad → mel spectrogram, with real numbers all the way.
#[test]
fn real_waveform_flows_through_the_whole_chain() {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let model = AudioDatasetModel::audioset(11).truncated(4);
    let record = model.record(2);
    let waveform = record.materialize();
    let sample = Sample::tensor(Tensor::from_f32(&[waveform.len()], waveform));

    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let mut rng = StdRng::seed_from_u64(1);
    let mut ctx = TransformCtx {
        cpu: &mut cpu,
        rng: &mut rng,
    };

    let resample = Resample::new(&machine, 22_050, 16_000);
    let pad = PadTrim::new(&machine, 64_000);
    let mel = MelSpectrogram::new(&machine, 16_000, 1024, 512, 64);
    let aug = SpecAugment::new(&machine, 16, 8);

    let resampled = resample.apply(sample, &mut ctx).unwrap();
    let padded = pad.apply(resampled, &mut ctx).unwrap();
    let spectrogram = mel.apply(padded, &mut ctx).unwrap();
    let out = aug.apply(spectrogram, &mut ctx).unwrap();
    let Sample::Tensor {
        shape,
        data: Some(features),
        ..
    } = out
    else {
        panic!("expected materialized features");
    };
    assert_eq!(shape[0], 64);
    assert_eq!(shape[1], mel.frames_for(64_000));
    let values = features.as_f32();
    assert!(
        values.iter().any(|&v| v > 0.0),
        "tonal content must produce energy"
    );
    assert!(values.iter().all(|&v| v.is_finite()));
}

/// The AC pipeline under the declarative builder, traced end to end:
/// stage records for every declared stage, and a sane diagnosis.
#[test]
fn declared_audio_pipeline_traces_and_diagnoses() {
    struct Clips {
        model: AudioDatasetModel,
    }
    impl Source for Clips {
        fn len(&self) -> u64 {
            self.model.len()
        }
        fn load(&self, index: u64, ctx: &mut TransformCtx<'_>) -> Sample {
            let r = self.model.record(index);
            ctx.cpu.idle(Span::from_micros(200));
            Sample::tensor_meta(&[r.samples as usize], lotus::data::DType::F32)
        }
    }

    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::new());
    let report = Pipeline::from_source(Arc::new(Clips {
        model: AudioDatasetModel::audioset(3).truncated(512),
    }))
    .map(Box::new(Resample::new(&machine, 22_050, 16_000)))
    .map(Box::new(PadTrim::new(&machine, 64_000)))
    .map(Box::new(MelSpectrogram::new(
        &machine, 16_000, 1024, 512, 64,
    )))
    .batch(32)
    .workers(2)
    .shuffle(9)
    .build_job_with(
        &machine,
        GpuConfig::v100(1, Span::from_micros(1_200)),
        Arc::clone(&trace) as _,
    )
    .run()
    .unwrap();
    assert_eq!(report.batches, 16);

    let ops: Vec<String> = trace.op_stats().into_iter().map(|o| o.name).collect();
    for expected in ["Loader", "Resample", "PadTrim", "MelSpectrogram", "C(32)"] {
        assert!(
            ops.contains(&expected.to_string()),
            "{expected} missing from {ops:?}"
        );
    }
    // The consumer waits 22% of the epoch, and the transforms take 93%
    // of per-item time: the transform chain starves the accelerator.
    let insights = analyze(&trace.records());
    assert!(
        insights.wait_fraction >= 0.15,
        "wait fraction {}",
        insights.wait_fraction
    );
    assert_eq!(insights.verdict, Some(Verdict::PreprocessingBound));
    assert!(!insights.recommendations.is_empty());
}

/// Multi-epoch training over a workload pipeline keeps per-epoch
/// statistics consistent.
#[test]
fn multi_epoch_ic_run_scales_linearly() {
    use lotus::workloads::{ExperimentConfig, PipelineKind};
    let run_epochs = |epochs: usize| {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let mut job = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
            .scaled_to(1_024)
            .build(&machine, Arc::new(lotus::dataflow::NullTracer), None);
        job.epochs = epochs;
        job.run().unwrap()
    };
    let one = run_epochs(1);
    let three = run_epochs(3);
    assert_eq!(three.batches, 3 * one.batches);
    assert_eq!(three.samples, 3 * one.samples);
    let ratio = three.elapsed.as_secs_f64() / one.elapsed.as_secs_f64();
    assert!((2.5..3.5).contains(&ratio), "elapsed ratio {ratio}");
}
