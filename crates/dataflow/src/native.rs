//! The native execution backend: the DataLoader protocol on real OS
//! threads with real blocking channels and a monotonic wall clock.
//!
//! [`NativeBackend`]'s main thread runs the one protocol in
//! `protocol.rs` — the same dispatcher and main loop as the simulated
//! engine — on `NativeMain`, a substrate whose queues are
//! [`NativeQueue`]s (mutex + condvar channels) and whose every
//! timestamp comes from a shared [`WallClock`]. Each worker is a
//! `std::thread` running the one worker loop in `worker.rs` on
//! `NativeWorker`: its kernels run on real pixels, so the resulting
//! LotusTrace measures the actual Rust preprocessing code rather than
//! the cost model.
//!
//! Wall-clock timestamps are nondeterministic, so the backend preserves
//! the *structural* trace invariants the linter checks instead of exact
//! times:
//!
//! * every batch's dispatch is traced before the batch is pushed to its
//!   worker's index queue, so no fetch record precedes its dispatch;
//! * exactly one `[T1]` fetch record per delivered batch — a worker
//!   records its fetch only after the envelope is committed to the data
//!   queue, and a dying worker's push is atomically gated on its own
//!   liveness, so a redispatched batch never yields duplicate envelopes;
//! * the queue-delay identity holds exactly: a batch's recorded
//!   `queue_delay` equals its delivery point minus its fetch end, in
//!   integer nanoseconds, because both sides are computed from single
//!   reads of the shared clock;
//! * per-(pid, kind) record tracks stay monotonic because each track is
//!   emitted by exactly one thread in clock order.
//!
//! Tracer overhead spans returned by hooks are ignored: on this backend
//! the instrumentation's cost is real wall time, already included in the
//! measured spans.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lotus_sim::{Span, Time, TimeSource, WallClock};
use lotus_transforms::{Batch, PipelineError};
use lotus_uarch::CpuThread;

use crate::audit::{AuditFeed, AuditMutation, CvKind, SyncOp};
use crate::backend::ExecutionBackend;
use crate::config::GpuConfig;
use crate::error::JobError;
use crate::loader::{JobReport, LoaderMutation, TrainingJob};
use crate::protocol::{
    kill_times, main_loop, worker_os_pid, BatchPayload, Envelope, EpochPlan, QueueId, Received,
    Substrate, WorkerMsg, MAIN_OS_PID,
};
use crate::sync::{block_on, StdSync, SyncFacade};
use crate::worker::{run_worker, HandOff, WorkerSubstrate};

/// How long a worker blocked on a full data queue sleeps between
/// re-checking its own liveness.
pub(crate) const PUSH_RETRY: Duration = Duration::from_millis(10);

/// Audit object name of the worker-liveness lock.
const LIVENESS_OBJ: &str = "liveness";

/// Knobs of the native backend.
#[derive(Debug, Clone, Copy)]
pub struct NativeOptions {
    /// How long the main process waits on the data queue before checking
    /// worker liveness (PyTorch's `MP_STATUS_CHECK_INTERVAL`, 5 s).
    /// Tests with fault plans shrink this so dead workers are discovered
    /// quickly.
    pub status_check: Span,
    /// When true, the main process sleeps for the GPU model's
    /// host-to-device and step spans per consumed batch, so the run's
    /// wait structure (and its bottleneck verdict) is comparable with
    /// the simulation. When false the consumer never blocks — a pure
    /// preprocessing-throughput measurement.
    pub emulate_gpu: bool,
}

impl Default for NativeOptions {
    fn default() -> Self {
        NativeOptions {
            status_check: Span::from_secs(5),
            emulate_gpu: false,
        }
    }
}

/// The native (real threads + wall clock) execution backend.
///
/// Schedule controllers and seeded protocol mutations on the job are
/// simulation-only test hooks and are ignored here.
#[derive(Debug, Clone, Default)]
pub struct NativeBackend {
    /// Backend knobs.
    pub options: NativeOptions,
    /// When set, every worker thread attaches this feed to its
    /// [`CpuThread`] so the real compute behind instrumented kernels is
    /// wall-timed and attributed per op (`lotus run --profile`).
    pub feed: Option<Arc<lotus_uarch::KernelSpanFeed>>,
    /// When set, every queue/lock synchronization point records a
    /// [`SyncEvent`](crate::SyncEvent) here for `lotus audit`'s
    /// happens-before analysis. Costs nothing when absent.
    pub audit: Option<Arc<AuditFeed>>,
    /// Seeded concurrency bug enacted by this run (`lotus audit
    /// --mutate`); [`AuditMutation::None`] runs the faithful protocol.
    pub audit_mutation: AuditMutation,
}

impl NativeBackend {
    /// A backend with the given options.
    #[must_use]
    pub fn new(options: NativeOptions) -> NativeBackend {
        NativeBackend {
            options,
            feed: None,
            audit: None,
            audit_mutation: AuditMutation::None,
        }
    }

    /// Attaches a kernel-span feed that worker threads will report
    /// observed native kernel spans to.
    #[must_use]
    pub fn with_feed(mut self, feed: Arc<lotus_uarch::KernelSpanFeed>) -> NativeBackend {
        self.feed = Some(feed);
        self
    }

    /// Attaches a synchronization-event feed for `lotus audit`.
    #[must_use]
    pub fn with_audit(mut self, audit: Arc<AuditFeed>) -> NativeBackend {
        self.audit = Some(audit);
        self
    }

    /// Enacts a seeded concurrency bug the auditor must flag.
    #[must_use]
    pub fn with_audit_mutation(mut self, mutation: AuditMutation) -> NativeBackend {
        self.audit_mutation = mutation;
        self
    }
}

/// Audit wiring of one queue: where synchronization events go, how to
/// pull a batch id out of an item, and which seeded mutation (if any)
/// this queue enacts.
struct QueueAudit<T> {
    feed: Arc<AuditFeed>,
    tag: fn(&T) -> Option<u64>,
    mutation: AuditMutation,
}

/// A bounded (or unbounded) blocking MPMC channel: a mutex-guarded
/// `VecDeque` + condition variables, the shape `crossbeam`'s array
/// channel presents. Mirrors the simulated [`lotus_sim::Queue`] API so
/// the two engines read alike: the blocking operations are `async`, and
/// a thread drives them with [`block_on`](crate::block_on). The
/// primitives come from the [`SyncFacade`] `F`: std's in production,
/// lotus-sim's when `lotus audit --model` explores this code.
///
/// When an [`AuditFeed`] is attached, every lock transition, condvar
/// wait/notify and commit records a [`SyncEvent`](crate::SyncEvent).
/// Acquire events are recorded right after the lock is taken and
/// release events right *before* it is given up (wait-start/wait-return
/// likewise bracket the condvar's release/re-acquire), so the feed's
/// sequence order is consistent with the mutex's happens-before chain.
/// Notify events carry no ordering obligations (the mutex chain already
/// orders waker and woken) and are recorded outside the lock.
pub struct NativeQueue<T, F: SyncFacade = StdSync> {
    name: String,
    cap: Option<usize>,
    sync: F,
    items: F::Mutex<VecDeque<T>>,
    not_empty: F::Condvar,
    not_full: F::Condvar,
    audit: Option<QueueAudit<T>>,
}

impl<T, F: SyncFacade> std::fmt::Debug for NativeQueue<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeQueue")
            .field("name", &self.name)
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

impl<T> NativeQueue<T> {
    /// Creates a queue. `cap = None` leaves it unbounded.
    #[must_use]
    pub fn new(name: impl Into<String>, cap: Option<usize>) -> NativeQueue<T> {
        NativeQueue::on(StdSync, name, cap)
    }
}

impl<T, F: SyncFacade> NativeQueue<T, F> {
    /// Creates a queue on the facade `sync`.
    pub(crate) fn on(sync: F, name: impl Into<String>, cap: Option<usize>) -> NativeQueue<T, F> {
        NativeQueue {
            name: name.into(),
            cap,
            items: sync.mutex(VecDeque::new()),
            not_empty: sync.condvar(),
            not_full: sync.condvar(),
            sync,
            audit: None,
        }
    }

    /// Attaches audit wiring. `tag` extracts a batch id from an item
    /// for send/recv events; `mutation` seeds a concurrency bug in this
    /// queue's own code paths ([`AuditMutation::SkipNotify`] and
    /// [`AuditMutation::IfInsteadOfWhile`] live here).
    pub(crate) fn set_audit(
        &mut self,
        feed: Arc<AuditFeed>,
        tag: fn(&T) -> Option<u64>,
        mutation: AuditMutation,
    ) {
        self.audit = Some(QueueAudit {
            feed,
            tag,
            mutation,
        });
    }

    /// Locks the queue and records the acquire.
    async fn lock(&self) -> F::Guard<'_, VecDeque<T>> {
        let items = self.sync.lock(&self.items).await;
        self.rec(SyncOp::LockAcquire);
        items
    }

    fn rec(&self, op: SyncOp) {
        if let Some(a) = &self.audit {
            a.feed.record_by(self.sync.process(), &self.name, op);
        }
    }

    fn tag_of(&self, item: &T) -> Option<u64> {
        self.audit.as_ref().and_then(|a| (a.tag)(item))
    }

    fn seeded(&self, mutation: AuditMutation) -> bool {
        self.audit.as_ref().is_some_and(|a| a.mutation == mutation)
    }

    async fn notify_not_empty(&self) {
        // The seeded lost-wakeup bug: a committed send that never
        // signals its consumer. With the real 5 s status-check interval
        // this is the classic "training hangs for no reason" failure;
        // audit runs shrink the interval so the run limps to completion
        // and the missing notify shows up in the event counts.
        if self.seeded(AuditMutation::SkipNotify) {
            return;
        }
        self.rec(SyncOp::Notify {
            cv: CvKind::NotEmpty,
        });
        self.sync.notify_one(&self.not_empty).await;
    }

    async fn notify_not_full(&self) {
        self.rec(SyncOp::Notify {
            cv: CvKind::NotFull,
        });
        self.sync.notify_one(&self.not_full).await;
    }

    /// The queue's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current number of queued items.
    pub async fn len(&self) -> usize {
        let items = self.lock().await;
        let len = items.len();
        self.rec(SyncOp::LockRelease);
        len
    }

    /// Current depth, additionally recorded as an audited gauge sample
    /// named `gauge` *inside* the critical section — so concurrent
    /// samplers of one gauge series are totally ordered by the queue
    /// mutex, which is exactly what the auditor's gauge-ordering rule
    /// verifies.
    pub async fn audited_len(&self, gauge: &str) -> usize {
        let items = self.lock().await;
        let len = items.len();
        if let Some(a) = &self.audit {
            let op = SyncOp::Gauge { value: len as f64 };
            a.feed.record_by(self.sync.process(), gauge, op);
        }
        self.rec(SyncOp::LockRelease);
        len
    }

    /// True when no items are queued.
    pub async fn is_empty(&self) -> bool {
        self.len().await == 0
    }

    fn is_full(&self, items: &VecDeque<T>) -> bool {
        self.cap.is_some_and(|c| items.len() >= c)
    }

    /// Runs `f` while holding the queue's internal lock, recording the
    /// acquire/release. Exists solely so the seeded
    /// [`AuditMutation::LockOrder`] bug can take this lock and then a
    /// foreign one in the wrong order.
    pub(crate) async fn with_lock<R>(&self, f: impl AsyncFnOnce() -> R) -> R {
        let items = self.lock().await;
        let result = f().await;
        self.rec(SyncOp::LockRelease);
        drop(items);
        result
    }

    /// Pushes an item, waiting while the queue is full.
    pub async fn push(&self, item: T) {
        let mut items = self.lock().await;
        while self.is_full(&items) {
            self.rec(SyncOp::WaitStart {
                cv: CvKind::NotFull,
            });
            items = self.sync.wait(&self.not_full, items, None).await;
            self.rec(SyncOp::WaitReturn {
                cv: CvKind::NotFull,
                satisfied: !self.is_full(&items),
            });
        }
        self.commit_send(items, item).await;
    }

    /// Pushes an item unless the queue is full, returning it on refusal.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity.
    pub async fn try_push(&self, item: T) -> Result<(), T> {
        let items = self.lock().await;
        if self.is_full(&items) {
            self.rec(SyncOp::LockRelease);
            return Err(item);
        }
        self.commit_send(items, item).await;
        Ok(())
    }

    /// Appends `item` inside the critical section `items` holds, then
    /// releases it and wakes a consumer.
    async fn commit_send(&self, mut items: F::Guard<'_, VecDeque<T>>, item: T) {
        let batch = self.tag_of(&item);
        items.push_back(item);
        self.rec(SyncOp::SendCommit { batch });
        self.rec(SyncOp::LockRelease);
        drop(items);
        self.notify_not_empty().await;
    }

    /// Waits until the queue has free capacity or `timeout` elapses.
    /// A wake-up is advisory — callers re-try with [`Self::try_push`].
    pub async fn wait_not_full(&self, timeout: Duration) {
        let mut items = self.lock().await;
        if self.is_full(&items) {
            self.rec(SyncOp::WaitStart {
                cv: CvKind::NotFull,
            });
            items = self.sync.wait(&self.not_full, items, Some(timeout)).await;
            self.rec(SyncOp::WaitReturn {
                cv: CvKind::NotFull,
                satisfied: !self.is_full(&items),
            });
        }
        self.rec(SyncOp::LockRelease);
    }

    /// Pops the oldest item, waiting while the queue is empty.
    pub async fn pop(&self) -> T {
        loop {
            if let Some(item) = self.recv(None).await {
                return item;
            }
        }
    }

    /// Pops the oldest item, giving up after `timeout`.
    pub async fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        self.recv(Some(self.sync.now() + timeout)).await
    }

    /// Pops the oldest item if one is queued.
    pub async fn try_pop(&self) -> Option<T> {
        let items = self.lock().await;
        self.commit_recv(items, false).await
    }

    /// The consumers' wait loop: pops the oldest item, waiting on
    /// `not_empty` while the queue is empty, until `deadline` (forever
    /// when `None`).
    async fn recv(&self, deadline: Option<F::Instant>) -> Option<T> {
        let mut items = self.lock().await;
        loop {
            if !items.is_empty() {
                return self.commit_recv(items, false).await;
            }
            let remaining = deadline.map(|at| self.sync.until(at));
            if remaining.is_some_and(|left| left.is_zero()) {
                self.rec(SyncOp::LockRelease);
                return None;
            }
            self.rec(SyncOp::WaitStart {
                cv: CvKind::NotEmpty,
            });
            items = self.sync.wait(&self.not_empty, items, remaining).await;
            self.rec(SyncOp::WaitReturn {
                cv: CvKind::NotEmpty,
                satisfied: !items.is_empty(),
            });
            if self.seeded(AuditMutation::IfInsteadOfWhile) {
                // Seeded bug: the wake-up is taken as permission to
                // receive, without re-checking the predicate.
                return self.commit_recv(items, true).await;
            }
        }
    }

    /// Pops the front item inside the critical section `items` holds,
    /// then releases it and wakes a producer. A receive is committed
    /// when an item was taken, or unconditionally when `unchecked`.
    async fn commit_recv(
        &self,
        mut items: F::Guard<'_, VecDeque<T>>,
        unchecked: bool,
    ) -> Option<T> {
        let item = items.pop_front();
        let committed = unchecked || item.is_some();
        if committed {
            self.rec(SyncOp::RecvCommit {
                batch: item.as_ref().and_then(|it| self.tag_of(it)),
            });
        }
        self.rec(SyncOp::LockRelease);
        drop(items);
        if committed {
            self.notify_not_full().await;
        }
        item
    }
}

fn duration_of(span: Span) -> Duration {
    Duration::from_nanos(span.as_nanos())
}

/// The synchronization between the workers and the main thread: the
/// data queue, and the liveness lock every envelope commit is gated on.
/// [`Handoff::commit`] is the workers' side and [`Handoff::recv`] the
/// main thread's. `lotus audit --model` runs both, unchanged, as
/// lotus-sim processes (see `model.rs`).
pub(crate) struct Handoff<'a, F: SyncFacade = StdSync> {
    pub(crate) data_q: &'a NativeQueue<Envelope, F>,
    /// Per-worker death flags, shared with the main thread. A worker's
    /// envelope push is atomic with a check of its own flag, so once the
    /// main thread marks a worker dead (it only does so while holding
    /// this lock *and* observing an empty data queue) that worker can
    /// never deliver again — redispatch cannot double-deliver a batch.
    /// Locked through the data queue's facade.
    pub(crate) liveness: &'a F::Mutex<Vec<bool>>,
    /// Raised when the main thread exits early; unsticks workers blocked
    /// on a full data queue.
    pub(crate) shutdown: &'a AtomicBool,
    /// Synchronization-event collector for `lotus audit`, when attached.
    pub(crate) audit: Option<&'a AuditFeed>,
    /// The seeded concurrency bug this run enacts.
    pub(crate) mutation: AuditMutation,
}

impl<F: SyncFacade> Handoff<'_, F> {
    /// Locks the liveness flags and records the acquire.
    async fn lock_liveness(&self) -> F::Guard<'_, Vec<bool>> {
        let dead = self.data_q.sync.lock(self.liveness).await;
        self.rec(SyncOp::LockAcquire);
        dead
    }

    /// Records `op` on the liveness lock.
    fn rec(&self, op: SyncOp) {
        if let Some(feed) = self.audit {
            feed.record_by(self.data_q.sync.process(), LIVENESS_OBJ, op);
        }
    }

    /// Commits worker `worker`'s `envelope` to the data queue. The push
    /// is atomic with the worker's liveness check: a worker the main
    /// thread has marked dead (or whose `kill_time` has passed) drops the
    /// batch instead — it becomes an orphan and is redispatched. On a
    /// full queue the worker waits for space without holding the
    /// liveness lock, then re-checks everything. Returns false when the
    /// worker must exit instead: dead, killed or shut down.
    pub(crate) async fn commit(
        &self,
        worker: usize,
        kill_time: Option<Time>,
        clock: &impl TimeSource,
        mut envelope: Envelope,
    ) -> bool {
        let data_q = self.data_q;
        let doomed = |dead: &[bool]| dead[worker] || kill_time.is_some_and(|at| clock.now() >= at);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            let outcome = if self.mutation == AuditMutation::ReleaseRecheck {
                // Seeded bug: the liveness gate is checked, but the lock
                // is released *before* the push — the commit is no
                // longer atomic with the check, so a worker marked dead
                // in the gap can still deliver (the double-delivery race
                // redispatch safety depends on). The auditor flags the
                // ungated SendCommit.
                let doomed = {
                    let dead = self.lock_liveness().await;
                    let doomed = doomed(&dead);
                    self.rec(SyncOp::LockRelease);
                    doomed
                };
                if doomed {
                    return false;
                }
                data_q.try_push(envelope).await
            } else {
                if self.mutation == AuditMutation::LockOrder {
                    // Seeded bug: this path takes the data-queue lock
                    // and *then* the liveness lock — the reverse of
                    // every other site (worker commit and main-thread
                    // recheck both nest data_queue inside liveness).
                    // The inner acquisition uses try_lock so the seeded
                    // inversion can close the cycle in the lock-order
                    // graph without ever actually deadlocking the run.
                    data_q
                        .with_lock(async || {
                            if let Some(dead) = data_q.sync.try_lock(self.liveness).await {
                                self.rec(SyncOp::LockAcquire);
                                let _observed = dead[worker];
                                self.rec(SyncOp::LockRelease);
                                drop(dead);
                            }
                        })
                        .await;
                }
                let dead = self.lock_liveness().await;
                if doomed(&dead) {
                    self.rec(SyncOp::LockRelease);
                    return false;
                }
                let outcome = data_q.try_push(envelope).await;
                self.rec(SyncOp::LockRelease);
                outcome
            };
            match outcome {
                Ok(()) => return true,
                Err(back) => {
                    envelope = back;
                    data_q.wait_not_full(PUSH_RETRY).await;
                }
            }
        }
    }

    /// One status-check interval of the main thread's wait for an
    /// envelope. When `status_check` passes with the data queue empty,
    /// it re-checks under the liveness lock, then the queue lock, and
    /// marks the workers whose `kill_times` have passed as dead. Deaths
    /// are marked under the liveness lock with the data queue observed
    /// empty, so no marked worker can have an envelope in flight: its
    /// commit is gated on the same lock.
    pub(crate) async fn recv(
        &self,
        status_check: Duration,
        kill_times: &[Option<Time>],
        clock: &impl TimeSource,
    ) -> Received {
        if let Some(env) = self.data_q.pop_timeout(status_check).await {
            return Received::Envelope(env);
        }
        let mut dead = self.lock_liveness().await;
        let received = match self.data_q.try_pop().await {
            Some(env) => Received::Envelope(env),
            None => {
                let now = clock.now();
                let mut newly_dead = Vec::new();
                for (w, kill_time) in kill_times.iter().enumerate() {
                    if !dead[w] && kill_time.is_some_and(|at| now >= at) {
                        dead[w] = true;
                        self.rec(SyncOp::MarkDead { worker: w });
                        newly_dead.push(w);
                    }
                }
                Received::TimedOut(newly_dead)
            }
        };
        self.rec(SyncOp::LockRelease);
        received
    }
}

/// The native engine's side of a worker: the shared wall clock, real
/// queues, a sleep for a stall, `catch_unwind` around each fetch, and
/// the liveness-gated commit.
struct NativeWorker<'a> {
    clock: &'a WallClock,
    index_q: &'a NativeQueue<WorkerMsg>,
    handoff: &'a Handoff<'a>,
}

impl WorkerSubstrate for NativeWorker<'_> {
    fn now(&self) -> Time {
        self.clock.now()
    }

    /// Instrumentation overhead is real wall time here, already inside
    /// the measured spans.
    async fn charge(&self, _overhead: Span) {}

    async fn pop(&self, timeout: Option<Span>) -> Option<WorkerMsg> {
        match timeout {
            Some(timeout) => self.index_q.pop_timeout(duration_of(timeout)).await,
            None => Some(self.index_q.pop().await),
        }
    }

    /// Sampled inside the queue's critical section, so the auditor sees
    /// every series totally ordered.
    async fn sample_depth(&self, queue: QueueId, gauge: &str) -> usize {
        match queue {
            QueueId::Index(_) => self.index_q.audited_len(gauge).await,
            QueueId::Data => self.handoff.data_q.audited_len(gauge).await,
        }
    }

    fn stall(&self, _cpu: &mut CpuThread, span: Span) {
        std::thread::sleep(duration_of(span));
    }

    /// The wall time since the previous op ended: the dataset reports
    /// each op as it finishes, so consecutive clock reads bracket it.
    fn op_span(&self, _start: Time, _elapsed: Span, mark: &mut Time) -> (Time, Span) {
        let now = self.clock.now();
        let span = (*mark, now.since(*mark));
        *mark = now;
        span
    }

    /// A modeled read has no place on the wall clock.
    fn read_start(&self, _issued: Time) -> Option<Time> {
        None
    }

    /// A real read ended just now, after the previous op: it nests in
    /// the op that issued it.
    fn file_read_span(&self, elapsed: Span, mark: Time) -> Option<(Time, Span)> {
        let now = self.clock.now();
        let span = elapsed.min(now.since(mark));
        Some((now - span, span))
    }

    /// A panicking dataset (the native analog of a crashing Python
    /// worker) ships an in-band `WorkerPanic`, PyTorch's
    /// `ExceptionWrapper` protocol, instead of tearing down this thread
    /// and poisoning every shared queue behind it.
    fn guard(
        &self,
        fetch: impl FnOnce() -> Result<Batch, PipelineError>,
    ) -> Result<Batch, PipelineError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(fetch)).unwrap_or_else(|payload| {
            let reason = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            Err(PipelineError::WorkerPanic { reason })
        })
    }

    /// The \[T1\] record is emitted only after a successful commit, so a
    /// dropped batch never contributes a fetch span.
    async fn hand_off(
        &self,
        _cpu: &mut CpuThread,
        envelope: Envelope,
        kill_time: Option<Time>,
        trace_fetch: impl FnOnce() -> Span,
    ) -> HandOff {
        let worker = envelope.worker;
        if !self
            .handoff
            .commit(worker, kill_time, self.clock, envelope)
            .await
        {
            return HandOff::Exit;
        }
        let _overhead = trace_fetch();
        HandOff::Pushed
    }
}

/// The native engine's side of the main process: the shared wall clock,
/// real queues, and the liveness lock every worker's commit is gated on.
struct NativeMain<'a> {
    clock: &'a WallClock,
    handoff: &'a Handoff<'a>,
    index_qs: &'a [NativeQueue<WorkerMsg>],
    kill_times: Vec<Option<Time>>,
    options: NativeOptions,
    gpu: GpuConfig,
}

impl Substrate for NativeMain<'_> {
    fn now(&self) -> Time {
        self.clock.now()
    }

    /// Instrumentation overhead is real wall time here, already inside
    /// the measured spans.
    async fn charge(&self, _overhead: Span) {}

    async fn depth(&self, queue: QueueId) -> usize {
        match queue {
            QueueId::Index(w) => self.index_qs[w].len().await,
            QueueId::Data => self.handoff.data_q.len().await,
        }
    }

    /// Sampled inside the queue's critical section, so the auditor sees
    /// every series totally ordered.
    async fn sample_depth(&self, queue: QueueId, gauge: &str) -> usize {
        match queue {
            QueueId::Index(w) => self.index_qs[w].audited_len(gauge).await,
            QueueId::Data => self.handoff.data_q.audited_len(gauge).await,
        }
    }

    async fn send(&self, worker: usize, msg: WorkerMsg) {
        self.index_qs[worker].push(msg).await;
    }

    async fn recv(&mut self, _dead: &[bool]) -> Received {
        let status_check = duration_of(self.options.status_check);
        self.handoff
            .recv(status_check, &self.kill_times, self.clock)
            .await
    }

    async fn consume(&mut self, payload: &BatchPayload) {
        if self.options.emulate_gpu {
            std::thread::sleep(duration_of(
                self.gpu.h2d_span(payload.bytes) + self.gpu.step_span(payload.len),
            ));
        }
    }

    fn shutdown(&self) {
        self.handoff.shutdown.store(true, Ordering::Release);
    }
}

impl ExecutionBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn run(&self, job: TrainingJob) -> Result<JobReport, JobError> {
        let plan = EpochPlan::for_job(&job)?;
        let totals = plan.report(Span::ZERO);
        if totals.batches == 0 {
            return Ok(totals);
        }
        let workers = job.loader.num_workers;
        let clock = WallClock::new();
        let mut data_q: NativeQueue<Envelope> =
            NativeQueue::new(QueueId::Data.name(), job.loader.data_queue_cap);
        let mut index_qs: Vec<NativeQueue<WorkerMsg>> = (0..workers)
            .map(|w| NativeQueue::new(QueueId::Index(w).name(), None))
            .collect();
        if let Some(feed) = &self.audit {
            feed.register_thread(MAIN_OS_PID);
            // Only the data queue enacts queue-level mutations
            // (SkipNotify suppresses its consumer wake-up).
            data_q.set_audit(
                Arc::clone(feed),
                |env: &Envelope| Some(env.batch_id),
                self.audit_mutation,
            );
            for q in &mut index_qs {
                q.set_audit(Arc::clone(feed), WorkerMsg::batch_id, AuditMutation::None);
            }
        }
        let liveness = Mutex::new(vec![false; workers]);
        if let (AuditMutation::LockOrder, Some(feed)) = (self.audit_mutation, &self.audit) {
            // Seed the inversion once before any worker exists: the
            // canonical order everywhere else is liveness → data_queue,
            // so this data_queue → liveness nesting closes a cycle in
            // the lock-order graph deterministically (no thread can
            // contend yet, hence no actual deadlock is possible here).
            block_on(data_q.with_lock(async || {
                let dead = StdSync.lock(&liveness).await;
                feed.record(LIVENESS_OBJ, SyncOp::LockAcquire);
                feed.record(LIVENESS_OBJ, SyncOp::LockRelease);
                drop(dead);
            }));
        }
        let shutdown = AtomicBool::new(false);
        let handoff = Handoff {
            data_q: &data_q,
            liveness: &liveness,
            shutdown: &shutdown,
            audit: self.audit.as_deref(),
            mutation: self.audit_mutation,
        };

        let outcome = std::thread::scope(|scope| {
            for (w, index_q) in index_qs.iter().enumerate() {
                let (clock, handoff, job) = (&clock, &handoff, &job);
                let feed = self.feed.clone();
                // The OS refusing a thread at job start leaves nothing to
                // run the epoch with; there is no partial-failure mode to
                // report through.
                #[allow(clippy::expect_used)]
                std::thread::Builder::new()
                    .name(format!("dataloader{w}"))
                    .spawn_scoped(scope, move || {
                        if let Some(audit) = handoff.audit {
                            audit.register_thread(worker_os_pid(w));
                        }
                        let mut cpu = job.cpu_thread();
                        if let Some(f) = feed {
                            cpu.attach_native_feed(f);
                        }
                        let sub = NativeWorker {
                            clock,
                            index_q,
                            handoff,
                        };
                        block_on(run_worker(&sub, job, w, cpu));
                    })
                    .expect("failed to spawn DataLoader worker thread");
            }
            let main = NativeMain {
                clock: &clock,
                handoff: &handoff,
                index_qs: &index_qs,
                kill_times: kill_times(&job.faults, workers),
                options: self.options,
                gpu: job.gpu,
            };
            block_on(main_loop(
                main,
                &*job.tracer,
                self.audit.as_deref(),
                &job.loader,
                plan,
                LoaderMutation::None,
            ))
        });
        outcome?;
        // Measured after every thread has joined, so no trace record ends
        // past the reported elapsed time.
        Ok(JobReport {
            elapsed: clock.elapsed(),
            ..totals
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::tracer::NullTracer;
    use crate::worker::tests::{
        epoch_shapes, every_policy_survives_worker_deaths, fast_native, fixture_job,
    };
    use lotus_data::DType;
    use lotus_sim::FaultPlan;
    use lotus_transforms::{Sample, TransformCtx, TransformObserver};

    #[test]
    fn queue_is_fifo_and_counts() {
        let q: NativeQueue<u32> = NativeQueue::new("q", None);
        block_on(q.push(1));
        block_on(q.push(2));
        assert_eq!(block_on(q.len()), 2);
        assert_eq!(block_on(q.pop()), 1);
        assert_eq!(block_on(q.try_pop()), Some(2));
        assert_eq!(block_on(q.try_pop()), None);
        assert!(block_on(q.is_empty()));
        assert_eq!(q.name(), "q");
    }

    #[test]
    fn bounded_queue_refuses_and_unblocks() {
        let q: NativeQueue<u32> = NativeQueue::new("q", Some(1));
        assert!(block_on(q.try_push(1)).is_ok());
        assert_eq!(block_on(q.try_push(2)), Err(2));
        std::thread::scope(|scope| {
            let pusher = scope.spawn(|| block_on(q.push(3))); // blocks until the pop
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(block_on(q.pop()), 1);
            pusher.join().unwrap();
        });
        assert_eq!(block_on(q.pop()), 3);
    }

    #[test]
    fn pop_timeout_expires_on_empty_queue() {
        let q: NativeQueue<u32> = NativeQueue::new("q", None);
        assert_eq!(block_on(q.pop_timeout(Duration::from_millis(5))), None);
        block_on(q.push(7));
        assert_eq!(block_on(q.pop_timeout(Duration::from_millis(5))), Some(7));
    }

    #[test]
    fn queue_hands_items_across_threads() {
        let q: NativeQueue<u64> = NativeQueue::new("q", Some(4));
        let total: u64 = std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                for i in 0..100u64 {
                    block_on(q.push(i));
                }
            });
            let mut sum = 0;
            for _ in 0..100 {
                sum += block_on(q.pop());
            }
            producer.join().unwrap();
            sum
        });
        assert_eq!(total, (0..100).sum());
    }

    #[test]
    fn native_backend_consumes_every_batch() {
        let report = NativeBackend::default()
            .run(fixture_job(32, 2, Arc::new(NullTracer)))
            .unwrap();
        assert_eq!(report.batches, 8);
        assert_eq!(report.samples, 32);
    }

    #[test]
    fn every_policy_completes_an_epoch_on_the_native_backend() {
        for kind in crate::policy::SchedulingPolicyKind::ALL {
            epoch_shapes("native", &fast_native(), kind);
        }
    }

    #[test]
    fn native_backend_survives_one_worker_death() {
        every_policy_survives_worker_deaths("native", &fast_native());
    }

    #[test]
    fn native_backend_matches_sim_backend_totals() {
        use crate::backend::SimBackend;
        let sim = SimBackend
            .run(fixture_job(24, 3, Arc::new(NullTracer)))
            .unwrap();
        let native = NativeBackend::default()
            .run(fixture_job(24, 3, Arc::new(NullTracer)))
            .unwrap();
        assert_eq!((sim.batches, sim.samples), (native.batches, native.samples));
    }

    #[test]
    fn native_backend_ships_sample_errors_in_band() {
        let mut job = fixture_job(32, 2, Arc::new(NullTracer));
        job.faults = FaultPlan::new(7).inject_sample_errors("Loader", 1.0);
        let err = NativeBackend::default().run(job).unwrap_err();
        assert!(
            matches!(err, JobError::Sample { .. }),
            "expected an in-band sample error, got {err:?}"
        );
    }

    #[test]
    fn native_backend_fails_when_every_worker_dies() {
        let mut job = fixture_job(64, 2, Arc::new(NullTracer));
        job.faults = FaultPlan::new(7)
            .kill_process("dataloader0", Time::ZERO)
            .kill_process("dataloader1", Time::ZERO);
        let backend = NativeBackend::new(NativeOptions {
            status_check: Span::from_millis(5),
            emulate_gpu: false,
        });
        let err = backend.run(job).unwrap_err();
        assert!(
            matches!(err, JobError::AllWorkersDied { .. }),
            "expected AllWorkersDied, got {err:?}"
        );
    }

    #[test]
    fn native_backend_rejects_invalid_config() {
        let mut job = fixture_job(8, 1, Arc::new(NullTracer));
        job.loader.batch_size = 0;
        let err = NativeBackend::default().run(job).unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)));
    }

    /// A dataset that panics outright (not an in-band `Err`) on one
    /// index — the native analog of a segfaulting Python worker.
    struct PanickingDataset {
        items: u64,
        panic_at: u64,
    }

    impl Dataset for PanickingDataset {
        fn len(&self) -> u64 {
            self.items
        }

        fn get_item(
            &self,
            index: u64,
            ctx: &mut TransformCtx<'_>,
            observer: &mut dyn TransformObserver,
        ) -> Result<Sample, PipelineError> {
            assert!(index != self.panic_at, "dataset exploded on index {index}");
            let start = ctx.cpu.cursor();
            observer.on_transform("Loader", start, Span::ZERO);
            Ok(Sample::tensor_meta(&[4, 4], DType::F32))
        }
    }

    #[test]
    fn panicking_worker_yields_clean_job_error_not_a_consumer_panic() {
        let mut job = fixture_job(32, 2, Arc::new(NullTracer));
        job.dataset = Arc::new(PanickingDataset {
            items: 32,
            panic_at: 9,
        });
        // Must not propagate the panic: the worker catches it, ships a
        // WorkerPanic in-band, and the consumer returns a typed error.
        let err = NativeBackend::default().run(job).unwrap_err();
        match err {
            JobError::Sample { error, .. } => assert!(
                matches!(&error, PipelineError::WorkerPanic { reason }
                    if reason.contains("dataset exploded on index 9")),
                "expected WorkerPanic carrying the panic message, got {error:?}"
            ),
            other => panic!("expected an in-band Sample error, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_queue_lock_recovers() {
        let q: Arc<NativeQueue<u32>> = Arc::new(NativeQueue::new("q", None));
        let q2 = Arc::clone(&q);
        // Poison the state mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = q2.lock();
            panic!("poison the queue");
        })
        .join();
        // Every operation still works after the poisoning.
        block_on(q.push(1));
        assert_eq!(block_on(q.len()), 1);
        assert_eq!(block_on(q.try_pop()), Some(1));
        assert!(block_on(q.try_push(2)).is_ok());
        assert_eq!(block_on(q.pop()), 2);
        assert_eq!(block_on(q.pop_timeout(Duration::from_millis(1))), None);
    }

    #[test]
    fn audited_queue_records_balanced_sync_events() {
        use crate::audit::{AuditFeed, AuditMutation, SyncOp};
        let feed = Arc::new(AuditFeed::new());
        let mut q: NativeQueue<u32> = NativeQueue::new("q", Some(2));
        q.set_audit(Arc::clone(&feed), |_| None, AuditMutation::None);
        block_on(q.push(1));
        assert_eq!(block_on(q.try_push(9)), Ok(()));
        assert_eq!(block_on(q.try_push(9)), Err(9)); // full
        assert_eq!(block_on(q.pop()), 1);
        assert_eq!(block_on(q.try_pop()), Some(9));
        assert_eq!(block_on(q.pop_timeout(Duration::from_millis(1))), None);
        let events = feed.drain();
        let count = |f: &dyn Fn(&SyncOp) -> bool| events.iter().filter(|e| f(&e.op)).count();
        let acquires = count(&|op| matches!(op, SyncOp::LockAcquire | SyncOp::WaitReturn { .. }));
        let releases = count(&|op| matches!(op, SyncOp::LockRelease | SyncOp::WaitStart { .. }));
        assert_eq!(acquires, releases, "unbalanced lock transitions");
        assert_eq!(count(&|op| matches!(op, SyncOp::SendCommit { .. })), 2);
        assert_eq!(count(&|op| matches!(op, SyncOp::RecvCommit { .. })), 2);
        assert_eq!(count(&|op| matches!(op, SyncOp::Notify { .. })), 4);
    }

    #[test]
    fn audited_native_run_streams_events() {
        use crate::audit::{AuditFeed, SyncOp};
        let feed = Arc::new(AuditFeed::new());
        let report = NativeBackend::default()
            .with_audit(Arc::clone(&feed))
            .run(fixture_job(32, 2, Arc::new(NullTracer)))
            .unwrap();
        assert_eq!(report.batches, 8);
        let events = feed.drain();
        assert!(!events.is_empty());
        // Every delivered batch was committed to the data queue exactly
        // once and received exactly once.
        let mut sent: Vec<u64> = Vec::new();
        let mut rcvd: Vec<u64> = Vec::new();
        for e in events.iter().filter(|e| e.obj == "data_queue") {
            match e.op {
                SyncOp::SendCommit { batch: Some(id) } => sent.push(id),
                SyncOp::RecvCommit { batch: Some(id) } => rcvd.push(id),
                _ => {}
            }
        }
        sent.sort_unstable();
        rcvd.sort_unstable();
        assert_eq!(sent, (0..8).collect::<Vec<u64>>());
        assert_eq!(rcvd, (0..8).collect::<Vec<u64>>());
        // Sequence numbers are strictly increasing in drain order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn detached_audit_feed_stays_empty_through_a_run() {
        let feed = Arc::new(crate::audit::AuditFeed::new());
        feed.detach();
        NativeBackend::default()
            .with_audit(Arc::clone(&feed))
            .run(fixture_job(16, 2, Arc::new(NullTracer)))
            .unwrap();
        assert!(feed.is_empty());
        assert_eq!(feed.overhead_ns(), 0);
    }
}
