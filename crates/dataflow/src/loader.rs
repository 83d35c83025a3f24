//! The simulated engine: the DataLoader protocol (§II-B of the paper) on
//! the discrete-event simulator, with virtual time and modeled costs.
//!
//! [`TrainingJob::run`] spawns one process per DataLoader worker plus
//! the main process. The main process runs the shared protocol
//! (`protocol.rs`) on `SimMain`, which charges virtual time for tracer
//! overhead and for the modeled framework kernels (unpickle, pin, CUDA
//! launch). Each worker runs the shared worker loop (`worker.rs`) on
//! `SimWorker`, which times a fetch on the worker's `CpuThread` cursor
//! and charges it, dilated by the instrumentation, as virtual time.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use lotus_sim::{Ctx, FaultPlan, Queue, ScheduleController, Simulation, Span, Time};
use lotus_uarch::{CostCoeffs, CpuThread, HwProfiler, KernelId, Machine};

use crate::config::{DataLoaderConfig, GpuConfig};
use crate::dataset::Dataset;
use crate::error::JobError;
use crate::protocol::{
    kill_times, main_loop, BatchPayload, Envelope, EpochPlan, QueueId, Received, Substrate,
    WorkerMsg,
};
use crate::tracer::Tracer;
use crate::worker::{run_worker, HandOff, WorkerSubstrate};

/// How often the main process gives up waiting on the data queue to check
/// worker liveness (PyTorch's `MP_STATUS_CHECK_INTERVAL` of 5 s).
const WORKER_STATUS_CHECK: Span = Span::from_secs(5);

/// Framework-side native kernels (queue serialization, pinning, CUDA
/// dispatch). These populate the hardware profile with the "hundreds of
/// unrelated functions" LotusMap's mapping must filter out (§V-D).
#[derive(Debug, Clone, Copy)]
struct FrameworkKernels {
    pickle_dumps: KernelId,
    pickle_loads: KernelId,
    pin_memory: KernelId,
    cuda_launch: KernelId,
}
impl FrameworkKernels {
    fn register(machine: &Machine) -> FrameworkKernels {
        let pickle = CostCoeffs {
            base_insts: 2_000.0,
            insts_per_unit: 0.35, // per byte serialized
            uops_per_inst: 1.1,
            ipc_base: 2.0,
            l1_miss_per_unit: 1.5 / 64.0,
            l2_miss_per_unit: 1.2 / 64.0,
            llc_miss_per_unit: 1.0 / 64.0,
            branches_per_unit: 0.06,
            mispredict_rate: 0.01,
            frontend_sensitivity: 0.3,
        };
        FrameworkKernels {
            pickle_dumps: machine.kernel(
                "_pickle_Pickler_dump",
                "_pickle.cpython-310-x86_64-linux-gnu.so",
                pickle,
            ),
            pickle_loads: machine.kernel(
                "_pickle_Unpickler_load",
                "_pickle.cpython-310-x86_64-linux-gnu.so",
                pickle,
            ),
            // Pinning copies the batch into page-locked memory with a
            // wide, prefetch-friendly copy (~10 GB/s effective).
            pin_memory: machine.kernel(
                "pin_memory_copy",
                "libtorch_cuda.so",
                CostCoeffs {
                    base_insts: 1_500.0,
                    insts_per_unit: 0.1,
                    uops_per_inst: 1.0,
                    ipc_base: 3.0,
                    l1_miss_per_unit: 0.004,
                    l2_miss_per_unit: 0.0037,
                    llc_miss_per_unit: 0.0035,
                    branches_per_unit: 0.01,
                    mispredict_rate: 0.002,
                    frontend_sensitivity: 0.05,
                },
            ),
            cuda_launch: machine.kernel(
                "cudaLaunchKernel",
                "libcudart.so.11.8",
                CostCoeffs {
                    base_insts: 8_000.0,
                    insts_per_unit: 0.0,
                    ..CostCoeffs::compute_default()
                },
            ),
        }
    }
}

/// Runs `cpu` work starting at the current instant and advances the
/// simulated clock by however long it took.
async fn run_kernel(ctx: &Ctx, cpu: &mut CpuThread, kernel: KernelId, work: f64) {
    let start = ctx.now();
    cpu.set_cursor(start);
    cpu.exec(kernel, work);
    ctx.delay(cpu.cursor().since(start)).await;
}

/// A complete single-epoch training job: dataset, DataLoader, GPU group,
/// instrumentation.
///
/// `run()` builds the simulation (one main process + `num_workers`
/// DataLoader workers, per-worker index queues, one shared data queue),
/// executes the epoch and reports end-to-end elapsed virtual time.
pub struct TrainingJob {
    /// The machine everything executes on.
    pub machine: Arc<Machine>,
    /// The dataset (loader + transform chain inside `get_item`).
    pub dataset: Arc<dyn Dataset>,
    /// The simulated storage hierarchy the dataset reads from, when one
    /// is configured. The engine never touches it — the dataset holds
    /// its own handle — but the job keeps this reference so runners can
    /// snapshot [`lotus_sim::StorageCounters`] after the epoch.
    pub storage: Option<Arc<lotus_sim::Storage>>,
    /// DataLoader knobs.
    pub loader: DataLoaderConfig,
    /// Accelerator model.
    pub gpu: GpuConfig,
    /// Instrumentation (LotusTrace, a baseline profiler model, or
    /// [`crate::NullTracer`]).
    pub tracer: Arc<dyn Tracer>,
    /// Optional hardware profiling session attached to every process's
    /// CPU thread (the VTune/uProf run of §V-D).
    pub hw_profiler: Option<Arc<HwProfiler>>,
    /// Run seed (sampler shuffling, transform randomness).
    pub seed: u64,
    /// Number of epochs to run (workers persist across epochs, as with
    /// PyTorch's `persistent_workers=True`; the sampler reshuffles per
    /// epoch and batch ids keep counting). Zero is treated as one.
    pub epochs: usize,
    /// Deterministic fault-injection plan (worker kills, per-sample
    /// errors, queue slowdowns). [`FaultPlan::default`] injects nothing.
    pub faults: FaultPlan,
    /// Optional schedule controller installed into the simulation —
    /// `lotus check` uses this to enumerate and replay interleavings.
    /// `None` keeps the kernel's deterministic FIFO tie-break.
    pub controller: Option<Arc<dyn ScheduleController>>,
    /// Deliberate protocol bug for checker validation (test-only hook;
    /// [`LoaderMutation::None`] is the faithful protocol).
    #[doc(hidden)]
    pub mutation: LoaderMutation,
}

/// Deliberate protocol bugs, used only to validate that `lotus check`
/// catches them. [`LoaderMutation::None`] — the default — is the faithful
/// PyTorch protocol; the other variants seed the two bug classes the
/// model checker must flag: a lost batch (liveness) and a redispatch
/// without an observed worker death (safety).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoaderMutation {
    /// Faithful protocol.
    #[default]
    None,
    /// The worker fetching `batch_id` silently drops the finished
    /// envelope instead of pushing it to the data queue: the batch is
    /// lost and the main process polls forever.
    LoseBatch {
        /// Batch whose envelope is dropped.
        batch_id: u64,
    },
    /// At the second main-loop iteration the main process redispatches
    /// `batch_id` (or, if that id is no longer outstanding, the newest
    /// outstanding batch) even though its owner is still alive.
    RedispatchLive {
        /// Batch to prematurely redispatch.
        batch_id: u64,
    },
}

/// Result of a completed training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// End-to-end elapsed virtual time of the epoch.
    pub elapsed: Span,
    /// Batches consumed.
    pub batches: u64,
    /// Samples consumed.
    pub samples: u64,
}

impl TrainingJob {
    /// A CPU thread on the job's machine, attached to its hardware
    /// profiling session when it has one.
    pub(crate) fn cpu_thread(&self) -> CpuThread {
        let mut cpu = CpuThread::new(Arc::clone(&self.machine));
        if let Some(p) = &self.hw_profiler {
            cpu.attach_profiler(Arc::clone(p));
        }
        cpu
    }

    /// Runs one epoch to completion.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::InvalidConfig`] if the configuration fails
    /// [`DataLoaderConfig::validate`], [`JobError::Sample`] when a worker
    /// ships a preprocessing error through the data queue (the
    /// `ExceptionWrapper` path), [`JobError::AllWorkersDied`] when no
    /// worker survives to finish the epoch, and [`JobError::Sim`] if the
    /// simulated system deadlocks or a process panics.
    pub fn run(self) -> Result<JobReport, JobError> {
        let plan = EpochPlan::for_job(&self)?;
        let totals = plan.report(Span::ZERO);
        if totals.batches == 0 {
            return Ok(totals);
        }
        let job = Arc::new(self);
        let fw = FrameworkKernels::register(&job.machine);
        let queue_factor = job.faults.queue_factor("data_queue");

        let mut sim = Simulation::new();
        if let Some(controller) = &job.controller {
            sim.set_controller(Arc::clone(controller));
        }
        let data_q: Queue<Envelope> = sim.queue(QueueId::Data.name(), job.loader.data_queue_cap);
        let index_qs: Vec<Queue<WorkerMsg>> = (0..job.loader.num_workers)
            .map(|w| sim.queue(QueueId::Index(w).name(), None))
            .collect();

        // Every process runs on this thread, inside `sim.run()`.
        let job_error: Rc<Cell<Option<JobError>>> = Rc::default();

        for (w, index_q) in index_qs.iter().enumerate() {
            let (index_q, data_q) = (index_q.clone(), data_q.clone());
            let (job, cpu) = (Arc::clone(&job), job.cpu_thread());
            sim.spawn(format!("dataloader{w}"), move |ctx| async move {
                let dilation = job.tracer.compute_dilation();
                assert!(
                    dilation >= 1.0,
                    "compute dilation cannot speed the program up"
                );
                let sub = SimWorker {
                    ctx: &ctx,
                    index_q,
                    data_q,
                    fw,
                    dilation,
                    queue_factor,
                    mutation: job.mutation,
                };
                run_worker(&sub, &job, w, cpu).await;
            });
        }

        {
            let (job, job_error) = (Arc::clone(&job), Rc::clone(&job_error));
            let cpu = job.cpu_thread();
            sim.spawn("main", move |ctx| async move {
                let main = SimMain {
                    ctx: &ctx,
                    cpu,
                    fw,
                    kill_times: kill_times(&job.faults, index_qs.len()),
                    queue_factor,
                    index_qs,
                    data_q,
                    gpu: job.gpu,
                };
                let (tracer, loader) = (&*job.tracer, &job.loader);
                if let Err(e) = main_loop(main, tracer, None, loader, plan, job.mutation).await {
                    job_error.set(Some(e));
                }
            });
        }

        let report = sim.run()?;
        if let Some(e) = job_error.take() {
            return Err(e);
        }
        Ok(JobReport {
            elapsed: report.end_time.since(Time::ZERO),
            ..totals
        })
    }
}

/// The simulated engine's side of a worker: virtual time, simulated
/// queues, and a fetch timed on the worker's `CpuThread` cursor, then
/// charged as virtual time at the hand-off. A panic is not caught: the
/// simulation reports the worker process panicking.
struct SimWorker<'a> {
    ctx: &'a Ctx,
    index_q: Queue<WorkerMsg>,
    data_q: Queue<Envelope>,
    fw: FrameworkKernels,
    /// The instrumentation's compute dilation of every fetch.
    dilation: f64,
    /// Serialization slowdown of the data queue under the fault plan.
    queue_factor: f64,
    mutation: LoaderMutation,
}

impl WorkerSubstrate for SimWorker<'_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    async fn charge(&self, overhead: Span) {
        if !overhead.is_zero() {
            self.ctx.delay(overhead).await;
        }
    }

    async fn pop(&self, timeout: Option<Span>) -> Option<WorkerMsg> {
        match timeout {
            Some(timeout) => self.index_q.pop_timeout(self.ctx, timeout).await,
            None => Some(self.index_q.pop(self.ctx).await),
        }
    }

    async fn sample_depth(&self, queue: QueueId, _gauge: &str) -> usize {
        match queue {
            QueueId::Index(_) => self.index_q.len(),
            QueueId::Data => self.data_q.len(),
        }
    }

    fn fetch_now(&self, cpu: &CpuThread) -> Time {
        cpu.cursor()
    }

    fn begin_fetch(&self, cpu: &mut CpuThread) -> Time {
        cpu.set_cursor(self.ctx.now());
        cpu.machine().thread_started_compute();
        cpu.cursor()
    }

    fn stall(&self, cpu: &mut CpuThread, span: Span) {
        cpu.idle(span);
    }

    fn end_fetch(&self, cpu: &CpuThread, start: Time, overhead: Span) -> Span {
        cpu.cursor().since(start).mul_f64(self.dilation) + overhead
    }

    /// Traces the fetch and lets its virtual time pass, then serializes
    /// the envelope into the shared-memory queue (a slowed queue
    /// multiplies the work) and pushes it, unless the worker was killed
    /// meanwhile: then the batch is orphaned, to be redispatched.
    async fn hand_off(
        &self,
        cpu: &mut CpuThread,
        envelope: Envelope,
        kill_time: Option<Time>,
        trace_fetch: impl FnOnce() -> Span,
    ) -> HandOff {
        let trace_overhead = trace_fetch();
        self.ctx.delay(envelope.fetch + trace_overhead).await;
        cpu.machine().thread_stopped_compute();
        let work = envelope.bytes() as f64 * self.queue_factor;
        run_kernel(self.ctx, cpu, self.fw.pickle_dumps, work).await;
        if kill_time.is_some_and(|at| self.ctx.now() >= at) {
            return HandOff::Exit;
        }
        let batch_id = envelope.batch_id;
        if self.mutation == (LoaderMutation::LoseBatch { batch_id }) {
            // Seeded bug: the main process waits for a batch that never
            // arrives.
            return HandOff::Dropped;
        }
        self.data_q.push(self.ctx, envelope).await;
        HandOff::Pushed
    }
}

/// The simulated engine's side of the main process: virtual time,
/// simulated queues, and modeled framework kernels for every batch cost.
struct SimMain<'a> {
    ctx: &'a Ctx,
    cpu: CpuThread,
    fw: FrameworkKernels,
    kill_times: Vec<Option<Time>>,
    /// Serialization slowdown of the data queue under the fault plan.
    queue_factor: f64,
    index_qs: Vec<Queue<WorkerMsg>>,
    data_q: Queue<Envelope>,
    gpu: GpuConfig,
}

impl Substrate for SimMain<'_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    async fn charge(&self, overhead: Span) {
        if !overhead.is_zero() {
            self.ctx.delay(overhead).await;
        }
    }

    async fn depth(&self, queue: QueueId) -> usize {
        match queue {
            QueueId::Index(w) => self.index_qs[w].len(),
            QueueId::Data => self.data_q.len(),
        }
    }

    async fn send(&self, worker: usize, msg: WorkerMsg) {
        self.index_qs[worker].push(self.ctx, msg).await;
    }

    /// A killed worker dies silently; the main process finds it dead at
    /// the first status check past its kill time, exactly like
    /// PyTorch's `w.is_alive()`.
    async fn recv(&mut self, dead: &[bool]) -> Received {
        let Some(env) = self.data_q.pop_timeout(self.ctx, WORKER_STATUS_CHECK).await else {
            let now = self.ctx.now();
            let newly_dead =
                |&w: &usize| !dead[w] && self.kill_times[w].is_some_and(|at| now >= at);
            return Received::TimedOut((0..dead.len()).filter(newly_dead).collect());
        };
        // Tensor storage travels via shared memory, so the main process
        // unpickles metadata only (PyTorch's zero-copy tensor sharing).
        let work = env.bytes().min(65_536) as f64 * self.queue_factor;
        run_kernel(self.ctx, &mut self.cpu, self.fw.pickle_loads, work).await;
        Received::Envelope(env)
    }

    async fn pin(&mut self, bytes: u64) {
        run_kernel(self.ctx, &mut self.cpu, self.fw.pin_memory, bytes as f64).await;
    }

    async fn consume(&mut self, payload: &BatchPayload) {
        self.ctx.delay(self.gpu.h2d_span(payload.bytes)).await;
        run_kernel(self.ctx, &mut self.cpu, self.fw.cuda_launch, 0.0).await;
        self.ctx.delay(self.gpu.step_span(payload.len)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use crate::backend::{ExecutionBackend, SimBackend};
    use crate::policy::SchedulingPolicyKind;
    use crate::protocol::worker_os_pid;
    use crate::tracer::NullTracer;
    use crate::worker::tests::{epoch_shapes, every_policy_survives_worker_deaths, fixture_job};

    /// Records every dispatch the engine announces.
    #[derive(Default)]
    struct DispatchRecorder {
        dispatches: Mutex<Vec<(u64, u32, bool)>>,
        deaths: Mutex<Vec<u32>>,
    }

    impl Tracer for DispatchRecorder {
        fn on_batch_dispatched(
            &self,
            batch_id: u64,
            to_pid: u32,
            _indices: &[u64],
            redispatch: bool,
            _at: Time,
        ) -> Span {
            self.dispatches
                .lock()
                .unwrap()
                .push((batch_id, to_pid, redispatch));
            Span::ZERO
        }

        fn on_worker_died(&self, pid: u32, _at: Time) -> Span {
            self.deaths.lock().unwrap().push(pid);
            Span::ZERO
        }
    }

    /// Regression test for the round-robin cycle accounting: after
    /// worker 0 dies mid-epoch, dispatch must rotate strictly over the
    /// survivors — worker 1, worker 2, worker 1, worker 2, … — with no
    /// phase drift from the dead slot.
    #[test]
    fn round_robin_rotates_over_survivors_after_a_death() {
        let recorder = Arc::new(DispatchRecorder::default());
        let mut job = fixture_job(60, 3, Arc::clone(&recorder) as Arc<dyn Tracer>);
        job.faults =
            FaultPlan::new(7).kill_process("dataloader0", Time::ZERO + Span::from_millis(6));
        let report = SimBackend.run(job).unwrap();
        assert_eq!(report.batches, 15);

        let deaths = recorder.deaths.lock().unwrap().clone();
        assert_eq!(
            deaths,
            vec![worker_os_pid(0)],
            "worker 0 must die exactly once"
        );
        let dispatches = recorder.dispatches.lock().unwrap().clone();
        // Before the death every dispatch rotates over all three workers.
        let pre: Vec<u32> = dispatches
            .iter()
            .take_while(|&&(_, _, redispatch)| !redispatch)
            .map(|&(_, pid, _)| pid)
            .collect();
        for (i, pid) in pre.iter().enumerate() {
            assert_eq!(*pid, worker_os_pid(i % 3), "pre-death dispatch {i}");
        }
        // From the first redispatch on, only survivors appear, in strict
        // alternation (live-only rotation, no drift).
        let post: Vec<u32> = dispatches
            .iter()
            .skip_while(|&&(_, _, redispatch)| !redispatch)
            .map(|&(_, pid, _)| pid)
            .collect();
        assert!(!post.is_empty(), "the death must orphan at least one batch");
        for pair in post.windows(2) {
            assert_ne!(
                pair[0], pair[1],
                "survivor rotation must alternate: {post:?}"
            );
        }
        for pid in &post {
            assert_ne!(*pid, worker_os_pid(0), "no dispatch to the dead worker");
        }
    }

    #[test]
    fn every_policy_completes_an_epoch_on_the_sim_backend() {
        for kind in SchedulingPolicyKind::ALL {
            epoch_shapes("sim", &SimBackend, kind);
        }
    }

    #[test]
    fn every_policy_survives_a_mid_epoch_death() {
        every_policy_survives_worker_deaths("sim", &SimBackend);
    }

    #[test]
    fn slow_sample_faults_dilate_the_epoch() {
        let base = SimBackend
            .run(fixture_job(32, 2, Arc::new(NullTracer)))
            .unwrap();
        let mut slowed_job = fixture_job(32, 2, Arc::new(NullTracer));
        slowed_job.faults = FaultPlan::new(3).slow_samples(0.25, 10.0);
        let slowed = SimBackend.run(slowed_job).unwrap();
        assert!(
            slowed.elapsed > base.elapsed,
            "slow samples must cost time: {:?} vs {:?}",
            slowed.elapsed,
            base.elapsed
        );
    }
}
