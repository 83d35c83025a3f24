//! The real-compute path: a small epoch where every image is read from
//! its stored SJPG file, decoded and transformed — pixels and all —
//! through exactly the same public API the cost-only simulations use.
//! The first run encodes each image once into `.lotus-cache/sjpg/` in the
//! working directory; later runs only read and decode.
//!
//! ```sh
//! cargo run --release --example real_decode
//! ```

use std::error::Error;
use std::sync::Arc;

use lotus::core::trace::LotusTrace;
use lotus::data::dist::LogNormal;
use lotus::data::ImageDatasetModel;
use lotus::dataflow::{DataLoaderConfig, FaultPlan, GpuConfig, LoaderMutation, TrainingJob};
use lotus::sim::Span;
use lotus::transforms::{Normalize, RandomHorizontalFlip, RandomResizedCrop, ToTensor};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ImageFolderDataset, IoModel};

fn main() -> Result<(), Box<dyn Error>> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());

    // A tiny dataset of small images (materialization decodes real pixels,
    // so keep this modest).
    let model = ImageDatasetModel::custom(
        "tiny-imagenet",
        64,
        42,
        LogNormal::from_mean_std(9_000.0, 4_000.0),
        (96, 160),
        0.55,
    );
    let transforms = lotus::transforms::Compose::new(
        &machine,
        vec![
            Box::new(RandomResizedCrop::new(&machine, 64)),
            Box::new(RandomHorizontalFlip::new(&machine, 0.5)),
            Box::new(ToTensor::new(&machine)),
            Box::new(Normalize::imagenet(&machine)),
        ],
    );
    let dataset =
        ImageFolderDataset::new(&machine, model, IoModel::local_nvme(), transforms).materialized(); // ← real pixels: read the stored file → decode

    let trace = Arc::new(LotusTrace::new());
    let report = TrainingJob {
        machine: Arc::clone(&machine),
        dataset: Arc::new(dataset),
        storage: None,
        loader: DataLoaderConfig {
            batch_size: 8,
            num_workers: 2,
            ..DataLoaderConfig::default()
        },
        gpu: GpuConfig::v100(1, Span::from_micros(500)),
        tracer: Arc::clone(&trace) as _,
        hw_profiler: None,
        seed: 7,
        epochs: 1,
        faults: FaultPlan::default(),
        controller: None,
        mutation: LoaderMutation::None,
    }
    .run()?;

    println!(
        "real-decode epoch: {} batches / {} images, {:.1} ms of virtual time",
        report.batches,
        report.samples,
        report.elapsed.as_millis_f64()
    );
    println!("\nper-op elapsed time over real pixel data:");
    for op in trace.op_stats() {
        println!(
            "  {:<24} avg {:>8.3} ms over {} executions",
            op.name, op.summary.mean, op.count
        );
    }
    println!(
        "\nEvery image above went through the full SJPG decode (entropy decode, \
         IDCT, chroma upsample, YCbCr→RGB) and real bilinear resampling."
    );
    Ok(())
}
