//! The DataLoader protocol's main-process side, written once for both
//! engines.
//!
//! PyTorch's `_MultiProcessingDataLoaderIter` (§II-B of the paper) is
//! one protocol however it is executed: the main process prefetches
//! `prefetch_factor` index batches per worker, then consumes batches
//! strictly in order from the shared data queue, pinning out-of-order
//! arrivals into a reorder buffer; it refills index batches per returned
//! batch, polls worker liveness whenever the data queue stays silent for
//! a status-check interval, redispatches a dead worker's orphans, and
//! re-raises a worker's in-band error. [`Dispatcher`] owns placement and
//! the in-flight inventory; [`main_loop`] drives the epoch.
//!
//! Each engine is a thin shell that supplies a [`Substrate`]: its clock
//! and how instrumentation overhead is charged, its queues, what
//! deserializing, pinning and consuming a batch costs, and its shutdown.
//! The simulated engine (`loader.rs`) charges virtual time for each;
//! the native engine (`native.rs`) runs on OS threads against a wall
//! clock, where time passes by itself. The substrate's blocking steps
//! are `async`: on the sim they park the process, and on the native
//! engine they block the thread inside their first poll. The worker side is written once
//! too, in `worker.rs`, against the worker-side twin of this trait.
//!
//! Every dispatch is traced *before* the batch reaches its worker's
//! index queue, so no worker can record a fetch of a batch whose
//! dispatch the trace has not seen yet.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use lotus_sim::{FaultPlan, Span, Time};
use lotus_transforms::PipelineError;

use crate::audit::{AuditFeed, SyncOp};
use crate::config::DataLoaderConfig;
use crate::dataset::BatchSampler;
use crate::error::JobError;
use crate::loader::{JobReport, LoaderMutation, TrainingJob};
use crate::policy::{BatchRef, DispatchContext, Refill, SchedulingPolicy};
use crate::tracer::Tracer;

/// Simulated OS pid of the main process (the paper logs real pids via
/// `psutil`; we use stable synthetic ones).
pub const MAIN_OS_PID: u32 = 4242;

/// Simulated OS pid of DataLoader worker `w`.
#[must_use]
pub fn worker_os_pid(worker: usize) -> u32 {
    MAIN_OS_PID + 1 + worker as u32
}

/// Serialized size of an error envelope: a pickled `ExceptionWrapper`
/// (traceback string), not tensor storage.
const EXCEPTION_WRAPPER_BYTES: u64 = 512;

/// Audit object name of the dispatcher (owns redispatch decisions).
const DISPATCHER_OBJ: &str = "dispatcher";

/// Records `op` on `obj` when an audit feed is attached.
pub(crate) fn audit_rec(audit: Option<&AuditFeed>, obj: &str, op: SyncOp) {
    if let Some(feed) = audit {
        feed.record(obj, op);
    }
}

/// Per-worker kill times of `faults` (worker `w` runs as `dataloader{w}`).
pub(crate) fn kill_times(faults: &FaultPlan, workers: usize) -> Vec<Option<Time>> {
    (0..workers)
        .map(|w| faults.kill_time(&format!("dataloader{w}")))
        .collect()
}

/// Message on a per-worker index queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerMsg {
    /// Preprocess these dataset indices as batch `id`.
    Batch { id: u64, indices: Vec<u64> },
    /// Exit the worker loop (PyTorch's `None` sentinel).
    Shutdown,
}

impl WorkerMsg {
    /// The batch this message carries (the audit tag of index queues).
    pub(crate) fn batch_id(&self) -> Option<u64> {
        match self {
            WorkerMsg::Batch { id, .. } => Some(*id),
            WorkerMsg::Shutdown => None,
        }
    }
}

/// The successful contents of an [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPayload {
    pub(crate) bytes: u64,
    pub(crate) len: usize,
}

/// A preprocessed batch — or the error its fetch raised — travelling
/// through the shared data queue. Carrying the `Result` in-band is
/// PyTorch's `ExceptionWrapper` protocol: a worker never crashes on a
/// sample error, it ships the exception to the main process instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope {
    pub(crate) batch_id: u64,
    pub(crate) payload: Result<BatchPayload, PipelineError>,
    /// Instant at which preprocessing (the fetch) finished.
    pub(crate) produced_at: Time,
    /// Duration of the fetch — fed back to cost-aware scheduling
    /// policies; never observable through the tracer.
    pub(crate) fetch: Span,
    pub(crate) worker: usize,
}

impl Envelope {
    /// Serialized size on the queue.
    pub(crate) fn bytes(&self) -> u64 {
        match &self.payload {
            Ok(p) => p.bytes,
            Err(_) => EXCEPTION_WRAPPER_BYTES,
        }
    }
}

/// Gauge: dispatched-but-unreturned batches, sampled whenever the
/// in-flight inventory changes.
pub const IN_FLIGHT_GAUGE: &str = "in_flight_batches";
/// Gauge: out-of-order batches pinned in the main-process reorder
/// buffer, sampled whenever it grows or shrinks.
pub const PINNED_CACHE_GAUGE: &str = "pinned_cache_batches";
/// Prefix of the per-queue depth gauges (`queue_depth.data_queue`,
/// `queue_depth.index_queue_0`, …), sampled at every push and pop.
pub const QUEUE_DEPTH_PREFIX: &str = "queue_depth.";
/// Gauge: the shared data queue's depth (the prefix plus `data_queue`).
pub const DATA_QUEUE_DEPTH_GAUGE: &str = "queue_depth.data_queue";

/// One of the protocol's queues.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueueId {
    /// Worker `w`'s index queue.
    Index(usize),
    /// The shared data queue.
    Data,
}

impl QueueId {
    /// The queue's name.
    pub(crate) fn name(self) -> String {
        match self {
            QueueId::Index(w) => format!("index_queue_{w}"),
            QueueId::Data => "data_queue".to_string(),
        }
    }

    /// The gauge the queue's depth is sampled as; the data queue's needs no allocation.
    pub(crate) fn gauge(self) -> Cow<'static, str> {
        match self {
            QueueId::Index(w) => Cow::Owned(format!("{QUEUE_DEPTH_PREFIX}index_queue_{w}")),
            QueueId::Data => Cow::Borrowed(DATA_QUEUE_DEPTH_GAUGE),
        }
    }
}

/// What one status-check interval of waiting on the data queue yielded.
pub(crate) enum Received {
    /// A worker's envelope.
    Envelope(Envelope),
    /// The interval passed with the data queue empty; these workers were
    /// found dead (possibly none).
    TimedOut(Vec<usize>),
}

/// What an engine supplies for the main process to run on: its clock,
/// its queues, the cost of each batch step and its shutdown. The
/// protocol advances time only through these.
pub(crate) trait Substrate {
    /// The current instant.
    fn now(&self) -> Time;

    /// Charges the main process `overhead` of instrumentation time.
    async fn charge(&self, overhead: Span);

    /// Current depth of `queue`, for the scheduling policy.
    async fn depth(&self, queue: QueueId) -> usize;

    /// Depth of `queue`, sampled as the gauge named `gauge`.
    async fn sample_depth(&self, queue: QueueId, _gauge: &str) -> usize {
        self.depth(queue).await
    }

    /// Puts `msg` on `worker`'s index queue.
    async fn send(&self, worker: usize, msg: WorkerMsg);

    /// Waits up to one status-check interval for an envelope and
    /// deserializes it; on timeout, reports which workers not yet in
    /// `dead` have died.
    async fn recv(&mut self, dead: &[bool]) -> Received;

    /// Copies a batch of `bytes` into pinned memory. Free by default.
    async fn pin(&mut self, _bytes: u64) {}

    /// Transfers a batch to the accelerator and runs its training step.
    async fn consume(&mut self, payload: &BatchPayload);

    /// Unblocks workers before the main process exits. A no-op by
    /// default.
    fn shutdown(&self) {}
}

/// The batches one job dispatches: every epoch's sampler order cut into
/// index batches, back to back (batch ids keep counting across epochs),
/// and the per-batch cost hints cost-aware policies place by.
pub(crate) struct EpochPlan {
    batches: Vec<Vec<u64>>,
    /// Per-batch mean dataset cost hints, indexed by batch id; empty
    /// (every lookup misses) when the policy ignores cost.
    hints: Vec<Option<f64>>,
}

impl EpochPlan {
    /// Plans `job`'s epochs, or returns [`JobError::InvalidConfig`] when
    /// its DataLoader configuration fails [`DataLoaderConfig::validate`].
    pub(crate) fn for_job(job: &TrainingJob) -> Result<EpochPlan, JobError> {
        let loader = &job.loader;
        loader.validate().map_err(JobError::InvalidConfig)?;
        let sampler = BatchSampler {
            batch_size: loader.batch_size,
            drop_last: loader.drop_last,
        };
        let batches: Vec<Vec<u64>> = (0..job.epochs.max(1) as u64)
            .flat_map(|epoch| {
                sampler.batches(&loader.sampler.epoch_order(job.dataset.len(), epoch))
            })
            .collect();
        let hints = if loader.policy.is_cost_aware() {
            // The mean hint over the batch's indices that have one.
            batches
                .iter()
                .map(|indices| {
                    let known: Vec<u64> = indices
                        .iter()
                        .filter_map(|&i| job.dataset.cost_hint(i))
                        .collect();
                    (!known.is_empty())
                        .then(|| known.iter().sum::<u64>() as f64 / known.len() as f64)
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(EpochPlan { batches, hints })
    }

    /// The report of a run that consumed the whole plan in `elapsed`.
    pub(crate) fn report(&self, elapsed: Span) -> JobReport {
        JobReport {
            elapsed,
            batches: self.batches.len() as u64,
            samples: self.batches.iter().map(|b| b.len() as u64).sum(),
        }
    }
}

/// Index-batch dispatch state: the pluggable scheduling policy, the set
/// of batches dispatched but not yet returned, and which workers are
/// known dead.
///
/// The *protocol* lives here — orphan redispatch in id order before
/// fresh batches, a truthful in-flight inventory, a hard
/// `prefetch_factor * num_workers` in-flight bound — while the *choice*
/// of worker (and refill quota) is delegated to the
/// [`SchedulingPolicy`]. The default [round-robin] policy reproduces
/// PyTorch's strict `_worker_queue_idx_cycle`, regardless of which
/// worker just returned data: a momentarily slow worker falls behind
/// while its siblings run ahead — the root cause of the out-of-order
/// arrivals in §V-C of the paper. When a worker dies, the rotation
/// continues over the live workers only (PyTorch marks the slot
/// unavailable in `_workers_status`).
///
/// [round-robin]: crate::policy::SchedulingPolicyKind::RoundRobin
struct Dispatcher {
    batch_iter: std::iter::Enumerate<std::vec::IntoIter<Vec<u64>>>,
    /// Orphaned batches from dead workers, re-sent before fresh ones.
    redispatch: VecDeque<(u64, Vec<u64>)>,
    policy: Box<dyn SchedulingPolicy>,
    hints: Vec<Option<f64>>,
    prefetch_factor: usize,
    dead: Vec<bool>,
    /// Dispatched-but-not-returned batches: id → (worker, indices).
    in_flight: HashMap<u64, (usize, Vec<u64>)>,
}

impl Dispatcher {
    fn new(plan: EpochPlan, loader: &DataLoaderConfig) -> Dispatcher {
        let workers = loader.num_workers;
        Dispatcher {
            batch_iter: plan.batches.into_iter().enumerate(),
            redispatch: VecDeque::new(),
            policy: loader.policy.build(workers, loader.prefetch_factor),
            hints: plan.hints,
            prefetch_factor: loader.prefetch_factor,
            dead: vec![false; workers],
            in_flight: HashMap::new(),
        }
    }

    fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Asks the policy to `decide` from a snapshot of the loader state.
    async fn decide<R>(
        &mut self,
        sub: &impl Substrate,
        redispatch: bool,
        decide: impl FnOnce(&mut dyn SchedulingPolicy, &DispatchContext<'_>) -> R,
    ) -> R {
        let mut depths = Vec::with_capacity(self.dead.len());
        for w in 0..self.dead.len() {
            depths.push(sub.depth(QueueId::Index(w)).await);
        }
        let context = DispatchContext {
            queue_depths: &depths,
            dead: &self.dead,
            in_flight: self.in_flight.len(),
            data_queue_depth: sub.depth(QueueId::Data).await,
            prefetch_factor: self.prefetch_factor,
            redispatch,
        };
        decide(&mut *self.policy, &context)
    }

    /// Sends one index batch (a pending redispatch first, else the next
    /// fresh batch) to the worker the scheduling policy chooses. The
    /// dispatch — and any steal or lane assignment the policy made — is
    /// traced before the batch is sent. Returns the worker that received
    /// it.
    async fn send_next(&mut self, sub: &impl Substrate, tracer: &dyn Tracer) -> Option<usize> {
        let (id, indices, redispatch) = match self.redispatch.pop_front() {
            Some((id, indices)) => (id, indices, true),
            None => {
                let (id, indices) = self.batch_iter.next()?;
                (id as u64, indices, false)
            }
        };
        if self.alive() == 0 {
            // No live worker to hand it to; keep it queued so the
            // outstanding count stays truthful.
            self.redispatch.push_front((id, indices));
            return None;
        }
        let hint = self.hints.get(id as usize).copied().flatten();
        let placement = self
            .decide(sub, redispatch, |policy, context| {
                let batch = BatchRef {
                    id,
                    indices: &indices,
                    hint,
                };
                policy.place(&batch, context)
            })
            .await;
        let w = placement.worker;
        assert!(
            !self.dead[w],
            "scheduling policy placed batch {id} on dead worker {w}"
        );
        let pid = worker_os_pid(w);
        let mut overhead = tracer.on_batch_dispatched(id, pid, &indices, redispatch, sub.now());
        if let Some(from) = placement.stolen_from.filter(|&from| from != w) {
            overhead += tracer.on_batch_stolen(id, worker_os_pid(from), pid, sub.now());
        }
        if let Some(lane) = placement.lane {
            overhead += tracer.on_lane_assigned(id, lane.as_str(), pid, sub.now());
        }
        let msg = WorkerMsg::Batch {
            id,
            indices: indices.clone(),
        };
        sub.send(w, msg).await;
        sub.charge(overhead).await;
        self.in_flight.insert(id, (w, indices));
        Some(w)
    }

    /// A returned batch was taken off the data queue: update the
    /// inventory and feed the observed cost back to the policy.
    fn batch_returned(&mut self, env: &Envelope) {
        if let Some((_, indices)) = self.in_flight.remove(&env.batch_id) {
            self.policy
                .on_batch_returned(env.worker, &indices, env.fetch.as_nanos());
        }
    }

    /// Asks the policy for the refill quota after a returned batch,
    /// clamped to the protocol's hard in-flight bound.
    async fn refill_quota(&mut self, sub: &impl Substrate) -> Refill {
        let mut refill = self
            .decide(sub, false, |policy, context| policy.refill(context))
            .await;
        let bound = self.prefetch_factor * self.dead.len();
        refill.count = refill.count.min(bound.saturating_sub(self.in_flight.len()));
        refill
    }

    /// Marks `worker` dead and queues its in-flight batches (in id order)
    /// for redispatch. Returns the orphaned batch ids.
    fn mark_dead(&mut self, worker: usize) -> Vec<u64> {
        self.dead[worker] = true;
        self.policy.on_worker_died(worker);
        let mut orphans: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, (w, _))| *w == worker)
            .map(|(&id, _)| id)
            .collect();
        orphans.sort_unstable();
        for &id in &orphans {
            // The ids were collected from `in_flight` just above, with no
            // intervening removal.
            #[allow(clippy::expect_used)]
            let (_, indices) = self.in_flight.remove(&id).expect("orphan is in flight");
            self.redispatch.push_back((id, indices));
        }
        orphans
    }
}

/// Runs the main process of one job on `sub`: dispatches `plan`,
/// consumes every batch in order, and shuts the workers down, or fails
/// with a worker's shipped [`JobError::Sample`] or with
/// [`JobError::AllWorkersDied`]. `mutation` seeds a protocol bug for
/// checker validation.
pub(crate) async fn main_loop(
    sub: impl Substrate,
    tracer: &dyn Tracer,
    audit: Option<&AuditFeed>,
    loader: &DataLoaderConfig,
    plan: EpochPlan,
    mutation: LoaderMutation,
) -> Result<(), JobError> {
    let num_batches = plan.batches.len() as u64;
    let mut main = MainProcess {
        dispatcher: Dispatcher::new(plan, loader),
        sub,
        tracer,
        audit,
    };
    // Initial prefetch: `prefetch_factor` index batches per worker.
    for _ in 0..loader.prefetch_factor * loader.num_workers {
        main.dispatch().await;
    }

    let mut reorder: HashMap<u64, Envelope> = HashMap::new();
    for rcvd in 0..num_batches {
        if rcvd == 1 {
            if let LoaderMutation::RedispatchLive { batch_id } = mutation {
                // Seeded bug: re-send an outstanding batch whose owner
                // was never observed dead.
                main.redispatch_live(batch_id).await;
            }
        }
        let (env, pinned) = main.deliver(rcvd, &mut reorder, loader.pin_memory).await?;

        // Refill per *returned* batch — PyTorch's `_process_data`
        // calls `_try_put_index` before it re-raises. The policy
        // decides the quota (the protocol default is exactly one);
        // the dispatcher clamps it so the in-flight inventory never
        // exceeds `prefetch_factor * num_workers`, even while
        // out-of-order envelopes accumulate in the reorder buffer.
        let refill = main.dispatcher.refill_quota(&main.sub).await;
        if let Some(target) = refill.resized_to {
            main.trace(|t, at| t.on_prefetch_resized(target, at)).await;
        }
        for _ in 0..refill.count {
            main.dispatch().await;
        }

        let payload = match env.payload {
            Ok(p) => p,
            Err(error) => {
                // `_process_data` re-raises the shipped exception in
                // the main process; the job fails with a typed error
                // instead of a crash.
                main.stop_workers().await;
                return Err(JobError::Sample {
                    batch_id: env.batch_id,
                    worker: env.worker,
                    error,
                });
            }
        };

        let consume_start = main.sub.now();
        if loader.pin_memory && !pinned {
            main.sub.pin(payload.bytes).await;
        }
        main.sub.consume(&payload).await;
        let consumed = main.sub.now().since(consume_start);
        let overhead =
            main.tracer
                .on_batch_consumed(MAIN_OS_PID, rcvd, consume_start, consumed, payload.len);
        main.sub.charge(overhead).await;
    }
    main.stop_workers().await;
    Ok(())
}

/// The main process: the dispatcher plus the engine it runs on.
struct MainProcess<'a, S> {
    dispatcher: Dispatcher,
    sub: S,
    tracer: &'a dyn Tracer,
    audit: Option<&'a AuditFeed>,
}

impl<S: Substrate> MainProcess<'_, S> {
    /// Calls one tracer hook at the current instant and charges the
    /// overhead the sinks report.
    async fn trace(&self, hook: impl FnOnce(&dyn Tracer, Time) -> Span) {
        self.sub.charge(hook(self.tracer, self.sub.now())).await;
    }

    /// Samples a count the main process holds (in-flight inventory,
    /// reorder buffer) for the auditor and the tracer.
    async fn count_gauge(&self, name: &str, count: usize) {
        let value = count as f64;
        audit_rec(self.audit, name, SyncOp::Gauge { value });
        self.trace(|t, at| t.on_gauge(name, value, at)).await;
    }

    /// Samples `queue`'s depth gauge.
    async fn depth_gauge(&self, queue: QueueId) {
        let name = queue.gauge();
        let depth = self.sub.sample_depth(queue, &name).await as f64;
        self.trace(|t, at| t.on_gauge(&name, depth, at)).await;
    }

    /// Dispatches the next batch, then samples the receiving worker's
    /// index-queue depth and the in-flight inventory. Nothing changed
    /// (and nothing is emitted) when no batch was sent. Returns the
    /// receiving worker.
    async fn dispatch(&mut self) -> Option<usize> {
        let sent = self.dispatcher.send_next(&self.sub, self.tracer).await;
        if let Some(w) = sent {
            self.depth_gauge(QueueId::Index(w)).await;
            self.count_gauge(IN_FLIGHT_GAUGE, self.dispatcher.in_flight.len())
                .await;
        }
        sent
    }

    /// Sends the queued redispatch of batch `id`, taken from worker
    /// `from` (redispatches go out before fresh batches), and traces
    /// where it went.
    async fn redispatch(&mut self, id: u64, from: usize) {
        audit_rec(
            self.audit,
            DISPATCHER_OBJ,
            SyncOp::Redispatch { batch: id, from },
        );
        if let Some(to) = self.dispatch().await {
            let (from, to) = (worker_os_pid(from), worker_os_pid(to));
            self.trace(|t, at| t.on_batch_redispatched(id, from, to, at))
                .await;
        }
    }

    /// Worker `w` was found dead: re-send its in-flight batches to the
    /// survivors, preserving id order.
    async fn worker_died(&mut self, w: usize) -> Result<(), JobError> {
        let orphans = self.dispatcher.mark_dead(w);
        self.trace(|t, at| t.on_worker_died(worker_os_pid(w), at))
            .await;
        if self.dispatcher.alive() == 0 {
            self.sub.shutdown();
            return Err(JobError::AllWorkersDied {
                workers: self.dispatcher.dead.len(),
                outstanding: self.dispatcher.in_flight.len() + self.dispatcher.redispatch.len(),
            });
        }
        for id in orphans {
            self.redispatch(id, w).await;
        }
        Ok(())
    }

    /// The [`LoaderMutation::RedispatchLive`] bug body: re-queues
    /// `batch_id` (or, if it is no longer outstanding, the newest
    /// outstanding batch) and sends it to the next live worker without
    /// any observed death — exactly the premature-redispatch violation
    /// `lotus check` exists to catch.
    async fn redispatch_live(&mut self, batch_id: u64) {
        let in_flight = &self.dispatcher.in_flight;
        let target = Some(batch_id).filter(|id| in_flight.contains_key(id));
        let Some(id) = target.or_else(|| in_flight.keys().max().copied()) else {
            return;
        };
        let (owner, indices) = in_flight[&id].clone();
        self.dispatcher.redispatch.push_front((id, indices));
        self.redispatch(id, owner).await;
    }

    /// Delivers batch `rcvd`, and whether it was pinned on arrival. An
    /// early arrival is served from the reorder buffer; otherwise the
    /// main process waits on the data queue, pinning and stashing
    /// earlier out-of-order arrivals in `reorder` and handling worker
    /// deaths on every silent status-check interval.
    async fn deliver(
        &mut self,
        rcvd: u64,
        reorder: &mut HashMap<u64, Envelope>,
        pin_memory: bool,
    ) -> Result<(Envelope, bool), JobError> {
        let wait_start = self.sub.now();
        if let Some(env) = reorder.remove(&rcvd) {
            // Already pinned and cached: the paper marks these waits
            // with a 1 µs duration to denote "no waiting", with the
            // queue delay measured to the moment the wait began.
            let overhead = self.tracer.on_batch_wait(
                MAIN_OS_PID,
                rcvd,
                wait_start,
                Span::from_micros(1),
                true,
                wait_start.saturating_since(env.produced_at),
            );
            self.sub.charge(overhead).await;
            self.count_gauge(PINNED_CACHE_GAUGE, reorder.len()).await;
            return Ok((env, true));
        }
        loop {
            // Poll with a timeout so a dead worker cannot hang the epoch
            // (PyTorch's `_try_get_data` / `MP_STATUS_CHECK_INTERVAL`
            // loop).
            let env = match self.sub.recv(&self.dispatcher.dead).await {
                Received::Envelope(env) => env,
                Received::TimedOut(newly_dead) => {
                    for w in newly_dead {
                        self.worker_died(w).await?;
                    }
                    continue;
                }
            };
            self.depth_gauge(QueueId::Data).await;
            self.dispatcher.batch_returned(&env);
            self.count_gauge(IN_FLIGHT_GAUGE, self.dispatcher.in_flight.len())
                .await;
            if env.batch_id == rcvd {
                // One clock read serves as both the wait's end and the
                // delivery point, making the linter's queue-delay
                // identity exact.
                let delivered_at = self.sub.now();
                let overhead = self.tracer.on_batch_wait(
                    MAIN_OS_PID,
                    rcvd,
                    wait_start,
                    delivered_at.since(wait_start),
                    false,
                    delivered_at.saturating_since(env.produced_at),
                );
                self.sub.charge(overhead).await;
                return Ok((env, false));
            }
            // Out-of-order arrival: pin to CPU memory and stash.
            if pin_memory {
                if let Ok(p) = &env.payload {
                    self.sub.pin(p.bytes).await;
                }
            }
            reorder.insert(env.batch_id, env);
            self.count_gauge(PINNED_CACHE_GAUGE, reorder.len()).await;
        }
    }

    /// Sends the shutdown sentinel to every live worker (PyTorch's
    /// `_shutdown_workers`); a dead one never reads its queue again.
    async fn stop_workers(&self) {
        self.sub.shutdown();
        for (w, &dead) in self.dispatcher.dead.iter().enumerate() {
            if !dead {
                self.sub.send(w, WorkerMsg::Shutdown).await;
            }
        }
    }
}
