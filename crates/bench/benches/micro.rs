//! Criterion micro-benchmarks of the substrates themselves: simulation
//! queue throughput, codec decode, kernel cost evaluation and execution,
//! histogram ingestion, and the trace sinks' per-batch cost.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lotus_codec::Codec;
use lotus_core::metrics::{MetricsRegistry, MetricsSink, MultiSink};
use lotus_core::trace::hist::LogHistogram;
use lotus_core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus_data::Image;
use lotus_dataflow::{TraceSink, Tracer};
use lotus_sim::{Simulation, Span, Time};
use lotus_uarch::{evaluate, CostCoeffs, CpuThread, Machine, MachineConfig};
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

/// The cost model alone, then one `CpuThread::exec` call: the kernel
/// lookup and invocation bookkeeping around it.
fn bench_cost_model(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let coeffs = CostCoeffs::compute_default();
    c.bench_function("kernel_cost_evaluation", |b| {
        b.iter(|| evaluate(machine.config(), &coeffs, 10_000.0, 0.0));
    });
    let kernel = machine.kernel("jpeg_idct_islow", "libjpeg.so.9", coeffs);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    c.bench_function("cpu_exec", |b| {
        b.iter(|| cpu.exec(kernel, 10_000.0));
    });
}

/// One batch of the cost-only IC pipeline at batch size 1 and one
/// worker, as the DataLoader emits it: 16 events, of which 9 are records.
fn emit_batch(sinks: &MultiSink, batch: u64) {
    const OPS: [&str; 6] = [
        "Loader",
        "RandomResizedCrop",
        "RandomHorizontalFlip",
        "ToTensor",
        "Normalize",
        "C(1)",
    ];
    let (worker, main) = (4243, lotus_dataflow::MAIN_OS_PID);
    let start = Time::from_nanos(1_000_000_000 + batch * 25_000);
    // The main process dispatches and samples the index queue and the
    // in-flight inventory.
    let _ = sinks.on_batch_dispatched(batch, worker, &[batch], false, start);
    let _ = sinks.on_gauge("queue_depth.index_queue_0", 1.0, start);
    let _ = sinks.on_gauge("in_flight_batches", 2.0, start);
    // The worker pops, runs the ops and hands the batch off.
    let _ = sinks.on_gauge("queue_depth.index_queue_0", 0.0, start);
    let mut at = start;
    for (k, op) in OPS.into_iter().enumerate() {
        let dur = Span::from_nanos(1_500 + 100 * k as u64);
        let _ = sinks.on_op(worker, batch, op, at, dur);
        at += dur;
    }
    let _ = sinks.on_batch_preprocessed(worker, batch, start, at.since(start));
    let _ = sinks.on_gauge("queue_depth.data_queue", 1.0, at);
    // The main process receives, waits and consumes.
    let _ = sinks.on_gauge("queue_depth.data_queue", 0.0, at);
    let _ = sinks.on_gauge("in_flight_batches", 1.0, at);
    let _ = sinks.on_batch_wait(main, batch, start, at.since(start), false, Span::ZERO);
    let _ = sinks.on_batch_consumed(main, batch, at, Span::from_nanos(300), 1);
}

/// Per-batch cost of the run harness's sink stack (a zero-overhead
/// LotusTrace and a free MetricsSink behind one `MultiSink`), one batch
/// per iteration on one thread.
fn bench_trace_sinks(c: &mut Criterion) {
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        per_log_overhead: Span::ZERO,
        op_mode: OpLogMode::Full,
    }));
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Arc::new(MetricsSink::with_overhead(registry, 1, Span::ZERO));
    let sinks = MultiSink::new()
        .with(trace as Arc<dyn TraceSink>)
        .with(metrics as Arc<dyn TraceSink>);
    // Time the steady state: every name seen, every buffer grown past
    // its first few doublings.
    for batch in 0..1_000 {
        emit_batch(&sinks, batch);
    }
    let mut batch = 1_000;
    c.bench_function("trace_sinks_batch_mix", |b| {
        b.iter(|| {
            batch += 1;
            emit_batch(&sinks, batch);
        });
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
    bench_histogram,
    bench_trace_sinks
);
criterion_main!(benches);
