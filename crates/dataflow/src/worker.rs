//! The DataLoader protocol's worker side (PyTorch's `_worker_loop`,
//! §II-B of the paper), written once for both engines: [`run_worker`]
//! pops index batches until the shutdown sentinel or the worker's kill
//! time, fetches each one, and hands it to the main process in an
//! [`Envelope`]. A fetch runs `get_item` per sample through the one op
//! bridge (the \[T3\] records) and collates with its `C(n)` record. An
//! injected fault or a `get_item` error ends it as an in-band error, and
//! a straggler sample stalls it after its `get_item`.
//!
//! Each engine supplies a [`WorkerSubstrate`]: its clocks, queues, stall,
//! panic guard and hand-off, which emits the \[T1\] fetch record.

use lotus_data::mix_seed;
use lotus_sim::{ReadOutcome, Span, StorageTier, Time};
use lotus_transforms::{Batch, Collate, PipelineError, TransformCtx, TransformObserver};
use lotus_uarch::CpuThread;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::TrainingJob;
use crate::protocol::{worker_os_pid, BatchPayload, Envelope, QueueId, WorkerMsg};
use crate::tracer::Tracer;

/// How a hand-off ended.
pub(crate) enum HandOff {
    /// The envelope is on the data queue.
    Pushed,
    /// The envelope was dropped (the seeded lost-batch bug).
    Dropped,
    /// The worker must exit: it was killed, marked dead or shut down.
    Exit,
}

/// What an engine supplies for a worker to run on. By default a fetch is
/// timed on the worker's clock, ops keep their cost-model spans, and
/// panics are not caught.
pub(crate) trait WorkerSubstrate {
    /// The current instant.
    fn now(&self) -> Time;

    /// Charges the worker `overhead` of instrumentation time.
    fn charge(&self, overhead: Span);

    /// Pops the worker's next message, giving up after `timeout` if any.
    fn pop(&self, timeout: Option<Span>) -> Option<WorkerMsg>;

    /// Depth of `queue` (its own index queue, or the data queue) as gauge `gauge`.
    fn sample_depth(&self, queue: QueueId, gauge: &str) -> usize;

    /// Where the fetch running on `cpu` stands on the fetch clock.
    fn fetch_now(&self, _cpu: &CpuThread) -> Time {
        self.now()
    }

    /// Starts a fetch on `cpu`; returns its start on the fetch clock.
    fn begin_fetch(&self, cpu: &mut CpuThread) -> Time {
        self.fetch_now(cpu)
    }

    /// Stalls the fetch running on `cpu` for `span`.
    fn stall(&self, cpu: &mut CpuThread, span: Span);

    /// The traced span of an op the cost model timed at `start` for
    /// `elapsed`; `mark` is where the previous op ended.
    fn op_span(&self, start: Time, elapsed: Span, _mark: &mut Time) -> (Time, Span) {
        (start, elapsed)
    }

    /// The traced start of a modeled storage read, if it has one.
    fn read_start(&self, issued: Time) -> Option<Time> {
        Some(issued)
    }

    /// The traced span of a real file read that took `elapsed` of wall
    /// time and has just ended, if it has a place on this engine's
    /// clock; `mark` is where the previous op ended.
    fn file_read_span(&self, _elapsed: Span, _mark: Time) -> Option<(Time, Span)> {
        None
    }

    /// Runs `fetch`, turning a panic into an in-band error if it can.
    fn guard(
        &self,
        fetch: impl FnOnce() -> Result<Batch, PipelineError>,
    ) -> Result<Batch, PipelineError> {
        fetch()
    }

    /// The span of a fetch from `start`, with `overhead` of tracing in it.
    fn end_fetch(&self, cpu: &CpuThread, start: Time, _overhead: Span) -> Span {
        self.fetch_now(cpu).since(start)
    }

    /// Hands `envelope` to the main process, recording its \[T1\] fetch
    /// with `trace_fetch`, unless the worker dies first (at `kill_time`).
    fn hand_off(
        &self,
        cpu: &mut CpuThread,
        envelope: Envelope,
        kill_time: Option<Time>,
        trace_fetch: impl FnOnce() -> Span,
    ) -> HandOff;
}

/// Traces the dataset's ops as \[T3\] records placed by the substrate,
/// summing the overhead the tracer reports.
struct FetchOps<'a, S> {
    sub: &'a S,
    tracer: &'a dyn Tracer,
    pid: u32,
    batch_id: u64,
    /// Where the previous op, the fetch start or a stall ended.
    mark: Time,
    overhead: Span,
}

impl<S: WorkerSubstrate> TransformObserver for FetchOps<'_, S> {
    fn on_transform(&mut self, name: &str, start: Time, elapsed: Span) {
        let (start, elapsed) = self.sub.op_span(start, elapsed, &mut self.mark);
        self.overhead += self
            .tracer
            .on_op(self.pid, self.batch_id, name, start, elapsed);
    }

    fn on_storage_read(&mut self, issued: Time, read: &ReadOutcome) {
        if let Some(start) = self.sub.read_start(issued) {
            self.overhead += self
                .tracer
                .on_storage_read(self.pid, self.batch_id, start, read);
        }
    }

    /// A read of the local filesystem, traced as a \[T0\] read that the
    /// local disk served. Whether the OS page cache held the file, or
    /// what else was queued on the device, is not observed.
    fn on_file_read(&mut self, bytes: u64, elapsed: Span) {
        if let Some((start, span)) = self.sub.file_read_span(elapsed, self.mark) {
            let read = ReadOutcome {
                tier: StorageTier::LocalDisk,
                span,
                bytes,
                seek: false,
                queue_depth: 1,
            };
            self.overhead += self
                .tracer
                .on_storage_read(self.pid, self.batch_id, start, &read);
        }
    }
}

/// Runs DataLoader worker `worker` of `job` on `sub` until the shutdown
/// sentinel or its kill time. A killed worker dies silently; the main
/// process finds out through its liveness check, like PyTorch's
/// `w.is_alive()`.
pub(crate) fn run_worker(
    sub: &impl WorkerSubstrate,
    job: &TrainingJob,
    worker: usize,
    mut cpu: CpuThread,
) {
    let mut rng = StdRng::seed_from_u64(mix_seed(job.seed, 1_000 + worker as u64));
    let collate = Collate::new(cpu.machine());
    let pid = worker_os_pid(worker);
    let kill_time = job.faults.kill_time(&format!("dataloader{worker}"));
    let (index_gauge, data_gauge) = (QueueId::Index(worker).gauge(), QueueId::Data.gauge());
    let sample_gauge = |queue: QueueId, gauge: &str| {
        let depth = sub.sample_depth(queue, gauge) as f64;
        sub.charge(job.tracer.on_gauge(gauge, depth, sub.now()));
    };
    loop {
        let timeout = kill_time.map(|at| at.saturating_since(sub.now()));
        if timeout.is_some_and(Span::is_zero) {
            return;
        }
        let Some(WorkerMsg::Batch { id, indices }) = sub.pop(timeout) else {
            return; // shut down, or killed while idle
        };
        sample_gauge(QueueId::Index(worker), &index_gauge);

        let start = sub.begin_fetch(&mut cpu);
        let mut ops = FetchOps {
            sub,
            tracer: &*job.tracer,
            pid,
            batch_id: id,
            mark: start,
            overhead: Span::ZERO,
        };
        let batch = sub.guard(|| {
            let mut tctx = TransformCtx {
                cpu: &mut cpu,
                rng: &mut rng,
            };
            fetch_batch(&mut ops, &mut tctx, job, &collate, &indices)
        });
        let fetch = sub.end_fetch(&cpu, start, ops.overhead);
        let envelope = Envelope {
            batch_id: id,
            payload: batch.map(|b| BatchPayload {
                bytes: b.bytes,
                len: b.len,
            }),
            produced_at: start + fetch,
            fetch,
            worker,
        };
        let trace_fetch = || job.tracer.on_batch_preprocessed(pid, id, start, fetch);
        match sub.hand_off(&mut cpu, envelope, kill_time, trace_fetch) {
            HandOff::Pushed => sample_gauge(QueueId::Data, &data_gauge),
            HandOff::Dropped => {}
            HandOff::Exit => return,
        }
    }
}

/// Fetches one batch: `get_item` for each of `indices`, then collate.
/// An injected fault or a `get_item` error ends the fetch as its in-band
/// result: PyTorch wraps the exception and abandons the rest of the
/// batch, and the worker keeps running.
fn fetch_batch<S: WorkerSubstrate>(
    ops: &mut FetchOps<'_, S>,
    tctx: &mut TransformCtx<'_>,
    job: &TrainingJob,
    collate: &Collate,
    indices: &[u64],
) -> Result<Batch, PipelineError> {
    let sub = ops.sub;
    let mut samples = Vec::with_capacity(indices.len());
    for &i in indices {
        if let Some(op) = job.faults.sample_error(i) {
            let at = sub.fetch_now(tctx.cpu);
            ops.overhead += job.tracer.on_fault_injected(ops.pid, ops.batch_id, op, at);
            let op = op.to_string();
            return Err(PipelineError::Injected { op, index: i });
        }
        let item_start = sub.fetch_now(tctx.cpu);
        let item = job.dataset.get_item(i, tctx, ops);
        // A straggler sample (a slow record, a cold cache) stalls the
        // worker for the extra factor of its `get_item`, failed or not.
        // The stall counts in the fetch, and the next op starts after it.
        let slowdown = job.faults.sample_slowdown(i);
        if slowdown > 1.0 {
            let item_span = sub.fetch_now(tctx.cpu).since(item_start);
            sub.stall(tctx.cpu, item_span.mul_f64(slowdown - 1.0));
            ops.mark = sub.fetch_now(tctx.cpu);
        }
        samples.push(item?);
    }
    let batch_len = samples.len();
    let collate_start = sub.fetch_now(tctx.cpu);
    let batch = collate.apply(samples, tctx)?;
    let elapsed = sub.fetch_now(tctx.cpu).since(collate_start);
    ops.on_transform(&Collate::display_name(batch_len), collate_start, elapsed);
    Ok(batch)
}

/// The fixture both engines run, and the engine-parity tests.
#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use lotus_data::DType;
    use lotus_sim::FaultPlan;
    use lotus_transforms::Sample;
    use lotus_uarch::{Machine, MachineConfig};

    use super::*;
    use crate::backend::{ExecutionBackend, SimBackend};
    use crate::config::{DataLoaderConfig, GpuConfig};
    use crate::dataset::{Dataset, Sampler};
    use crate::error::JobError;
    use crate::loader::LoaderMutation;
    use crate::native::{NativeBackend, NativeOptions};
    use crate::policy::SchedulingPolicyKind;
    use crate::tracer::{NullTracer, TraceEvent, TraceSink};

    /// A dataset whose items each cost a fixed millisecond of modeled work,
    /// so simulated kill times land mid-epoch at predictable points, and
    /// sleep for `sleep` of real time, so native spans have a known floor.
    /// Each item's one op is "Loader".
    struct FixtureDataset {
        items: u64,
        sleep: Duration,
    }

    impl Dataset for FixtureDataset {
        fn len(&self) -> u64 {
            self.items
        }

        fn get_item(
            &self,
            _index: u64,
            ctx: &mut TransformCtx<'_>,
            observer: &mut dyn TransformObserver,
        ) -> Result<Sample, PipelineError> {
            let start = ctx.cpu.cursor();
            ctx.cpu.idle(Span::from_millis(1));
            std::thread::sleep(self.sleep);
            observer.on_transform("Loader", start, ctx.cpu.cursor().since(start));
            Ok(Sample::tensor_meta(&[4, 4], DType::F32))
        }
    }

    /// A one-epoch job over `items` fixture items (no real sleep) in
    /// sequential batches of 4, on `workers` round-robin workers.
    pub(crate) fn fixture_job(items: u64, workers: usize, tracer: Arc<dyn Tracer>) -> TrainingJob {
        TrainingJob {
            machine: Machine::new(MachineConfig::cloudlab_c4130()),
            dataset: Arc::new(FixtureDataset {
                items,
                sleep: Duration::ZERO,
            }),
            storage: None,
            loader: DataLoaderConfig {
                batch_size: 4,
                num_workers: workers,
                prefetch_factor: 2,
                data_queue_cap: None,
                pin_memory: true,
                sampler: Sampler::Sequential,
                drop_last: true,
                policy: SchedulingPolicyKind::RoundRobin,
            },
            gpu: GpuConfig::v100(1, Span::from_micros(10)),
            tracer,
            hw_profiler: None,
            seed: 7,
            epochs: 1,
            faults: FaultPlan::default(),
            controller: None,
            mutation: LoaderMutation::None,
        }
    }

    /// Keeps an owned copy of every trace event, in emission order.
    #[derive(Default)]
    struct EventRecorder {
        events: Mutex<Vec<TraceEvent<'static>>>,
    }

    impl EventRecorder {
        /// The events recorded so far.
        fn events(&self) -> Vec<TraceEvent<'static>> {
            self.events.lock().unwrap().clone()
        }
    }

    impl TraceSink for EventRecorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn on_event(&self, event: &TraceEvent<'_>) -> Span {
            self.events.lock().unwrap().push(event.clone().into_owned());
            Span::ZERO
        }

        fn overhead(&self) -> Span {
            Span::ZERO
        }
    }

    /// A native engine that checks liveness every 5 ms, so worker deaths
    /// are found quickly.
    pub(crate) fn fast_native() -> NativeBackend {
        NativeBackend::new(NativeOptions {
            status_check: Span::from_millis(5),
            emulate_gpu: false,
        })
    }

    /// Both engines.
    fn engines() -> [(&'static str, Box<dyn ExecutionBackend>); 2] {
        [
            ("sim", Box::new(SimBackend)),
            ("native", Box::new(fast_native())),
        ]
    }

    /// Per batch: its \[T3\] op names in trace order, and its number of
    /// \[T1\] records.
    pub(crate) type BatchShapes = BTreeMap<u64, (Vec<String>, usize)>;

    fn batch_shapes(events: &[TraceEvent<'_>]) -> BatchShapes {
        let mut shapes = BatchShapes::new();
        for event in events {
            match event {
                TraceEvent::Op { batch_id, name, .. } => {
                    shapes
                        .entry(*batch_id)
                        .or_default()
                        .0
                        .push(name.to_string());
                }
                TraceEvent::BatchPreprocessed { batch_id, .. } => {
                    shapes.entry(*batch_id).or_default().1 += 1;
                }
                _ => {}
            }
        }
        shapes
    }

    /// Runs a 48-item epoch on 3 workers under `kind` on `backend`,
    /// checks that all 12 batches arrive, each with ops ending in `C(4)`
    /// and exactly one \[T1\], and returns the batches' shapes.
    pub(crate) fn epoch_shapes(
        engine: &str,
        backend: &dyn ExecutionBackend,
        kind: SchedulingPolicyKind,
    ) -> BatchShapes {
        let recorder = Arc::new(EventRecorder::default());
        let mut job = fixture_job(48, 3, Arc::clone(&recorder) as _);
        job.loader.policy = kind;
        let report = backend
            .run(job)
            .unwrap_or_else(|e| panic!("{engine}, {kind}: {e:?}"));
        assert_eq!(
            (report.batches, report.samples),
            (12, 48),
            "{engine}, {kind}"
        );
        let shapes = batch_shapes(&recorder.events());
        assert_eq!(shapes.len(), 12, "{engine}, {kind}");
        for (id, (ops, fetches)) in &shapes {
            assert_eq!(
                ops.last().map(String::as_str),
                Some("C(4)"),
                "{engine}, {kind}: batch {id} ops {ops:?}"
            );
            assert_eq!(*fetches, 1, "{engine}, {kind}: batch {id} [T1] records");
        }
        shapes
    }

    /// Kills dataloader1 under every policy on `backend` and checks that
    /// every batch still arrives. Cases (items, workers, time of death):
    /// mid-epoch, and before it fetches anything, so every batch
    /// arrives through worker 0.
    pub(crate) fn every_policy_survives_worker_deaths(
        engine: &str,
        backend: &dyn ExecutionBackend,
    ) {
        let cases = [(48, 3, Span::from_millis(5)), (64, 2, Span::ZERO)];
        for kind in SchedulingPolicyKind::ALL {
            for (items, workers, at) in cases {
                let mut job = fixture_job(items, workers, Arc::new(NullTracer));
                job.loader.policy = kind;
                job.faults = FaultPlan::new(7).kill_process("dataloader1", Time::ZERO + at);
                let report = backend
                    .run(job)
                    .unwrap_or_else(|e| panic!("{engine}, {kind}, death at {at:?}: {e:?}"));
                assert_eq!(
                    (report.batches, report.samples),
                    (items / 4, items),
                    "{engine}, {kind}, death at {at:?}"
                );
            }
        }
    }

    #[test]
    fn every_policy_completes_an_epoch_alike_on_both_engines() {
        for kind in SchedulingPolicyKind::ALL {
            let shapes =
                engines().map(|(engine, backend)| epoch_shapes(engine, backend.as_ref(), kind));
            assert_eq!(shapes[0], shapes[1], "{kind}: sim vs native op sequences");
        }
    }

    #[test]
    fn injected_sample_errors_fail_both_engines_alike() {
        for rate in [1.0, 0.1] {
            let failures = engines().map(|(engine, backend)| {
                let mut job = fixture_job(32, 2, Arc::new(NullTracer));
                job.faults = FaultPlan::new(7).inject_sample_errors("Loader", rate);
                match backend.run(job) {
                    Err(JobError::Sample {
                        batch_id,
                        error: PipelineError::Injected { op, index },
                        ..
                    }) => (batch_id, op, index),
                    other => {
                        panic!("{engine}, rate {rate}: expected an injected error, got {other:?}")
                    }
                }
            });
            assert_eq!(failures[0], failures[1], "rate {rate}: sim vs native");
        }
    }

    /// Regression test: a native straggler's stall used to be billed to
    /// the op after it, so every `C(n)`, and every "Loader" after a
    /// batch's first item, carried the previous item's stall.
    #[test]
    fn no_native_op_span_absorbs_a_straggler_stall() {
        const SLEEP: Duration = Duration::from_millis(2);
        const FACTOR: f64 = 31.0;
        let recorder = Arc::new(EventRecorder::default());
        let mut job = fixture_job(8, 1, Arc::clone(&recorder) as _);
        job.dataset = Arc::new(FixtureDataset {
            items: 8,
            sleep: SLEEP,
        });
        job.faults = FaultPlan::new(7).slow_samples(1.0, FACTOR);
        NativeBackend::default().run(job).unwrap();

        // Every item takes at least SLEEP, so it stalls at least this.
        let stall = Span::from_nanos(SLEEP.mul_f64(FACTOR - 1.0).as_nanos() as u64);
        let events = recorder.events();
        let mut fetches = 0;
        for event in &events {
            match event {
                TraceEvent::Op { name, dur, .. } => assert!(
                    *dur < stall.mul_f64(0.5),
                    "op {name} lasted {dur:?}: it absorbed a {stall:?} stall"
                ),
                TraceEvent::BatchPreprocessed { dur, .. } => {
                    // The stalls still count in the fetch.
                    assert!(*dur >= stall.mul_f64(4.0), "fetch of {dur:?}");
                    fetches += 1;
                }
                _ => {}
            }
        }
        assert_eq!(fetches, 2);
    }
}
