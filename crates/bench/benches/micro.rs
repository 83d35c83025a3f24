//! Criterion micro-benchmarks of the substrates themselves: simulation
//! queue throughput, codec decode, kernel cost evaluation, histogram
//! ingestion.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lotus_codec::Codec;
use lotus_core::trace::hist::LogHistogram;
use lotus_data::Image;
use lotus_sim::{Simulation, Span};
use lotus_uarch::{CostCoeffs, CpuThread, Machine, MachineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_sim_queue(c: &mut Criterion) {
    c.bench_function("sim_queue_1000_messages", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let q = sim.queue::<u64>("bench", Some(16));
            let tx = q.clone();
            sim.spawn("producer", move |ctx| async move {
                for i in 0..1000 {
                    tx.push(&ctx, i).await;
                }
            });
            sim.spawn("consumer", move |ctx| async move {
                for _ in 0..1000 {
                    let _ = q.pop(&ctx).await;
                }
            });
            sim.run().unwrap()
        });
    });
}

fn bench_codec_decode(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let codec = Codec::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let image = Image::synthetic(128, 128, &mut StdRng::seed_from_u64(1));
    let encoded = codec.encode(&image, 85, &mut cpu);
    c.bench_function("codec_decode_128x128", |b| {
        b.iter(|| codec.decode(&encoded, &mut cpu).unwrap());
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let kernel = machine.kernel("bench_kernel", "lib", CostCoeffs::compute_default());
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    c.bench_function("kernel_cost_evaluation", |b| {
        b.iter(|| cpu.exec(kernel, 10_000.0));
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("log_histogram_record", |b| {
        let mut h = LogHistogram::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(7919);
            h.record(Span::from_nanos(1 + i % 10_000_000));
        });
    });
}

criterion_group!(
    benches,
    bench_sim_queue,
    bench_codec_decode,
    bench_cost_model,
    bench_histogram
);
criterion_main!(benches);
