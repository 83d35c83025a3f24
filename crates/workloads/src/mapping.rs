//! Building the LotusMap operation→function mapping for the IC pipeline
//! (the preparatory step of §IV-B, done once per machine), on both the
//! simulated profiler and the native kernel-span feed.

use std::collections::BTreeMap;
use std::sync::Arc;

use lotus_codec::Codec;
use lotus_core::map::{IsolationConfig, MappedFunction, Mapping, OpIsolator, OpMapping};
use lotus_data::{DType, Image, ImageDatasetModel};
use lotus_transforms::{
    python_interp_kernel, Collate, Compose, Normalize, RandomHorizontalFlip, RandomResizedCrop,
    Sample, ToTensor, Transform, TransformCtx,
};
use lotus_uarch::{CpuThread, KernelSpanFeed, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the Python-op → native-function mapping for the whole IC
/// pipeline by isolating each operation under the hardware profiler
/// (Listing 4 of the paper), with each op preceded by its real
/// predecessor so attribution skid is exercised.
///
/// The returned mapping is noise-filtered (functions captured in fewer
/// than 2 runs with fewer than 3 samples are dropped).
/// Like [`build_ic_mapping_for_batch`] with the Table II batch size (128).
#[must_use]
pub fn build_ic_mapping(machine: &Arc<Machine>, config: IsolationConfig) -> Mapping {
    build_ic_mapping_for_batch(machine, config, 128)
}

/// Builds the IC mapping with the collation op named for `batch_size`
/// (`C(1024)` for the Figure 6 configuration).
#[must_use]
pub fn build_ic_mapping_for_batch(
    machine: &Arc<Machine>,
    config: IsolationConfig,
    batch_size: usize,
) -> Mapping {
    let codec = Codec::new(machine);
    let rrc = RandomResizedCrop::new(machine, 224);
    let rhf = RandomHorizontalFlip::new(machine, 0.5);
    let tt = ToTensor::new(machine);
    let norm = Normalize::imagenet(machine);
    let collate = Collate::new(machine);
    let python = python_interp_kernel(machine);

    // An enlarged input, as in the paper's Listing 4 (which raises
    // `Image.MAX_IMAGE_PIXELS` to decode a huge image): every decode and
    // resample kernel then spans several sampling intervals, so the
    // mapping converges in few runs.
    let mut record = ImageDatasetModel::imagenet(7).record(0);
    record.width = 3_600;
    record.height = 3_600;
    record.file_bytes = (record.pixels() as f64 * 0.55) as u64;
    let (h, w) = (record.height as usize, record.width as usize);

    let loader = move |cpu: &mut CpuThread, _rng: &mut StdRng| {
        cpu.exec(python, 0.0);
        codec.charge_decode(record.width, record.height, record.file_bytes, cpu);
    };
    fn apply<'t>(
        t: &'t dyn Transform,
        input: Sample,
        python: lotus_uarch::KernelId,
    ) -> impl FnMut(&mut CpuThread, &mut StdRng) + 't {
        move |cpu: &mut CpuThread, rng: &mut StdRng| {
            cpu.exec(python, 0.0);
            let mut ctx = TransformCtx { cpu, rng };
            let _ = t.apply(input.clone(), &mut ctx);
        }
    }

    let isolator = OpIsolator::new(Arc::clone(machine), config);
    let mut mapping = Mapping::new();

    // Loader runs first in the pipeline (no preamble).
    mapping.insert(isolator.isolate("Loader", loader, None::<fn(&mut CpuThread, &mut StdRng)>));
    // Each subsequent op is isolated with its real predecessor as the
    // preamble, matching the pipeline's back-to-back execution.
    mapping.insert(isolator.isolate(
        "RandomResizedCrop",
        apply(&rrc, Sample::image_meta(h, w), python),
        Some(loader),
    ));
    let square = Sample::image_meta(224, 224);
    mapping.insert(isolator.isolate(
        "RandomHorizontalFlip",
        // Isolate the flip path itself (the paper runs the op on a larger
        // input "in isolation instead of the pipeline" for short ops).
        apply(&rhf, Sample::image_meta(1024, 1024), python),
        Some(apply(&rrc, Sample::image_meta(h, w), python)),
    ));
    mapping.insert(isolator.isolate(
        "ToTensor",
        apply(&tt, Sample::image_meta(1024, 1024), python),
        Some(apply(&rhf, square.clone(), python)),
    ));
    mapping.insert(isolator.isolate(
        "Normalize",
        apply(
            &norm,
            Sample::tensor_meta(&[3, 1024, 1024], DType::F32),
            python,
        ),
        Some(apply(&tt, square.clone(), python)),
    ));
    mapping.insert(isolator.isolate(
        &Collate::display_name(batch_size),
        |cpu: &mut CpuThread, rng: &mut StdRng| {
            cpu.exec(python, 0.0);
            let samples: Vec<Sample> = (0..batch_size)
                .map(|_| Sample::tensor_meta(&[3, 224, 224], DType::F32))
                .collect();
            let mut ctx = TransformCtx { cpu, rng };
            let _ = collate.apply(samples, &mut ctx);
        },
        Some(apply(
            &norm,
            Sample::tensor_meta(&[3, 224, 224], DType::F32),
            python,
        )),
    ));

    let mut filtered = Mapping::new();
    for op in mapping.ops() {
        if let Some(bucket) = mapping.functions_for(op) {
            let mut bucket = bucket.clone();
            bucket.filter_noise(2, 3);
            filtered.insert(bucket);
        }
    }
    filtered
}

/// Batch size [`build_ic_mapping_native`] collates — small enough that
/// real tensors stack quickly, and the op name (`C(4)`) can be matched by
/// building the simulated mapping with [`build_ic_mapping_for_batch`].
pub const NATIVE_MAPPING_BATCH: usize = 4;

/// Builds the IC operation→function mapping from *native* evidence: real
/// images are decoded and transformed with the kernel-span feed
/// collecting, and each op's observed kernels (real wall time, not cost
/// model) become its bucket, hottest first.
///
/// Mirrors the isolation harness's discipline on the native substrate:
/// the first pipeline pass is a warmup with the feed paused (allocator
/// and cache warmup, Listing 4's warmup loop), then each of `runs`
/// measured passes is bracketed by `resume`/`pause` and drained
/// separately so `captured_runs`/`total_runs` mean the same thing they
/// do in the simulated mapping.
///
/// # Panics
///
/// Panics if the self-encoded test image fails to decode or a transform
/// rejects its input — both would be codec/pipeline bugs, not data
/// errors.
#[must_use]
// The image is encoded here and the batch is uniform, so decode,
// transforms and collate cannot fail on valid code.
#[allow(clippy::expect_used)]
pub fn build_ic_mapping_native(machine: &Arc<Machine>, runs: usize) -> Mapping {
    let runs = runs.max(1);
    let codec = Codec::new(machine);
    let transforms = Compose::new(
        machine,
        vec![
            Box::new(RandomResizedCrop::new(machine, 224)),
            // p = 1.0 so every measured pass exercises the flip kernel.
            Box::new(RandomHorizontalFlip::new(machine, 1.0)),
            Box::new(ToTensor::new(machine)),
            Box::new(Normalize::imagenet(machine)),
        ],
    );
    let collate = Collate::new(machine);
    let feed = Arc::new(KernelSpanFeed::new_paused());
    let mut cpu = CpuThread::new(Arc::clone(machine));
    cpu.attach_native_feed(Arc::clone(&feed));
    let mut rng = StdRng::seed_from_u64(0x0107);

    // (op, function, library) -> (samples, total wall ns)
    let mut captured: BTreeMap<(String, String, String), (u64, u64)> = BTreeMap::new();
    for run in 0..=runs {
        let img = Image::synthetic(480, 640, &mut rng);
        // Encoding happens offline in the real pipeline: scratch thread,
        // no feed, so only decode-side kernels are observed.
        let mut scratch = CpuThread::new(Arc::clone(machine));
        let encoded = codec.encode(&img, 85, &mut scratch);
        if run > 0 {
            feed.resume();
        }
        cpu.set_op_context("Loader");
        let decoded = codec
            .decode(&encoded, &mut cpu)
            .expect("self-encoded image must decode");
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let sample = transforms
            .apply(Sample::image(decoded), &mut ctx)
            .expect("IC transforms accept a decoded image");
        let batch: Vec<Sample> = (0..NATIVE_MAPPING_BATCH).map(|_| sample.clone()).collect();
        collate
            .apply(batch, &mut ctx)
            .expect("uniform batch collates");
        feed.pause();
        // Run 0 drains nothing: the feed stayed paused through the warmup.
        for s in feed.take_samples() {
            let Some(op) = s.op else { continue };
            let spec = machine.kernel_spec(s.kernel);
            let entry = captured.entry((op, spec.name, spec.library)).or_default();
            entry.0 += 1;
            entry.1 += s.elapsed_ns;
        }
    }
    // Uniform passes exercise every instrumented kernel every measured
    // run (the feed has no sampling grid to miss short kernels with), so
    // captured_runs == runs.
    let mut buckets: BTreeMap<String, Vec<(MappedFunction, u64)>> = BTreeMap::new();
    for ((op, name, library), (samples, nanos)) in captured {
        buckets.entry(op).or_default().push((
            MappedFunction {
                name,
                library,
                captured_runs: runs,
                total_runs: runs,
                samples,
            },
            nanos,
        ));
    }
    let mut mapping = Mapping::new();
    for (op, mut rows) in buckets {
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name.cmp(&b.0.name)));
        mapping.insert(OpMapping {
            op,
            functions: rows.into_iter().map(|(f, _)| f).collect(),
        });
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::MachineConfig;

    fn quick_config() -> IsolationConfig {
        IsolationConfig {
            runs_override: Some(30),
            ..IsolationConfig::default()
        }
    }

    #[test]
    fn loader_bucket_contains_the_decode_kernels() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let mapping = build_ic_mapping(&machine, quick_config());
        let loader = mapping.functions_for("Loader").expect("Loader mapped");
        assert!(loader.contains("decode_mcu"), "{loader:?}");
        assert!(loader.contains("jpeg_idct_islow") || loader.contains("jpeg_idct_16x16"));
        assert!(loader.contains("ycc_rgb_convert"));
    }

    #[test]
    fn rrc_bucket_contains_resample_but_not_decode() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let mapping = build_ic_mapping(&machine, quick_config());
        let rrc = mapping
            .functions_for("RandomResizedCrop")
            .expect("RRC mapped");
        assert!(
            rrc.contains("ImagingResampleHorizontal_8bpc")
                || rrc.contains("ImagingResampleVertical_8bpc"),
            "{rrc:?}"
        );
        for leaked in [
            "decode_mcu",
            "__memcpy_avx_unaligned_erms",
            "jpeg_fill_bit_buffer",
        ] {
            assert!(
                !rrc.contains(leaked),
                "{leaked} must not leak into the RRC bucket with the sleep gap on: {rrc:?}"
            );
        }
    }

    #[test]
    fn disabling_the_sleep_gap_pollutes_buckets() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let config = IsolationConfig {
            use_sleep_gap: false,
            runs_override: Some(400),
            ..IsolationConfig::default()
        };
        let mapping = build_ic_mapping(&machine, config);
        // With skid unguarded, at least one bucket catches a predecessor
        // function (typically a Loader kernel inside RandomResizedCrop).
        let rrc = mapping
            .functions_for("RandomResizedCrop")
            .expect("RRC mapped");
        let loader_kernels = [
            "decode_mcu",
            "jpeg_idct_islow",
            "ycc_rgb_convert",
            "ImagingUnpackRGB",
            // On this (Intel) machine RRC's own bulk move resolves to
            // __memmove..., so __memcpy... in its bucket is Loader leakage.
            "__memcpy_avx_unaligned_erms",
            "__memset_avx2_unaligned_erms",
            "jpeg_fill_bit_buffer",
        ];
        assert!(
            loader_kernels.iter().any(|k| rrc.contains(k)),
            "expected loader leakage without the sleep gap: {rrc:?}"
        );
    }

    #[test]
    fn native_mapping_top_kernels_agree_with_the_simulated_mapping() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        // 60 runs: enough for the 10 ms sampling grid to capture the
        // short bulk-move kernel the native side always observes.
        let sim = build_ic_mapping_for_batch(
            &machine,
            IsolationConfig {
                runs_override: Some(60),
                ..IsolationConfig::default()
            },
            NATIVE_MAPPING_BATCH,
        );
        let native = build_ic_mapping_native(&machine, 2);
        let loader = native.functions_for("Loader").expect("Loader observed");
        assert!(loader.contains("decode_mcu"), "{loader:?}");
        let verdicts = lotus_core::map::top_k_agreement(&sim, &native, 3);
        assert!(!verdicts.is_empty(), "no ops overlap between mappings");
        for v in &verdicts {
            assert!(
                v.agrees(),
                "{}: native top-k {:?} not all in sim bucket (missing {:?})",
                v.op,
                v.native_top,
                v.missing_from_sim
            );
        }
    }

    #[test]
    fn shared_memcpy_maps_to_multiple_ops() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let mapping = build_ic_mapping(&machine, quick_config());
        let shared = mapping.ops_containing("__memcpy_avx_unaligned_erms");
        assert!(
            shared.contains(&"Loader") && shared.contains(&"C(128)"),
            "memcpy should map to several ops: {shared:?}"
        );
    }
}
