//! Synchronization-event recording for the native backend.
//!
//! `lotus audit` proves the native backend's homegrown synchronization
//! (the [`NativeQueue`](crate::NativeQueue) mutex+condvar channels and
//! the worker-liveness lock) correct the same way `lotus check` proves
//! the simulated protocol correct. The raw material is a [`SyncEvent`]
//! stream: every lock acquisition and release, every condvar wait and
//! notify, every committed send/receive, every death marking and orphan
//! redispatch, recorded with the owning thread's trace pid and a logical
//! timestamp drawn from one atomic counter.
//!
//! The [`AuditFeed`] collector mirrors the `KernelSpanFeed` pattern of
//! the wall-clock profiler: a detached feed costs one relaxed atomic
//! load per record point (and the backend holds no feed at all unless
//! one was attached, making the common path literally zero extra work),
//! while an attached feed self-accounts its own recording cost into
//! [`AuditFeed::overhead_ns`].
//!
//! Logical timestamps come from a single `fetch_add` on the feed's
//! sequence counter. Because every record point fires while the thread
//! holds the synchronization object the event describes (acquire is
//! recorded after the lock is taken, release *before* it is given up,
//! wait-start before the guard is surrendered to the condvar and
//! wait-return after it is re-taken), the total order of sequence
//! numbers is consistent with every real happens-before edge: if event
//! `a` happens-before event `b` through a mutex release→acquire chain,
//! `a.seq < b.seq`. The vector-clock analyzer in `lotus-core` rebuilds
//! the partial order from these events and checks it; see
//! `crates/core/src/check/audit/`.
//!
//! The same feed records the runs of `lotus audit --model`, which
//! executes the backend's own queue and liveness code as lotus-sim
//! processes (`model.rs`). There one process runs at a time, so the
//! sequence order is exactly the explored interleaving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use lotus_sim::Pid;

/// Which of a queue's two condition variables an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CvKind {
    /// Consumers wait here for items (`not_empty`).
    NotEmpty,
    /// Producers wait here for capacity (`not_full`).
    NotFull,
}

impl CvKind {
    /// Stable lower-case name (for reports and JSON).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CvKind::NotEmpty => "not_empty",
            CvKind::NotFull => "not_full",
        }
    }
}

/// One synchronization operation on a named object.
///
/// The object (`SyncEvent::obj`) is a queue name (`"data_queue"`,
/// `"index_queue_0"`), the liveness lock (`"liveness"`), or — for
/// [`SyncOp::Gauge`] — the gauge series name.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncOp {
    /// The thread acquired the object's mutex.
    LockAcquire,
    /// The thread is about to release the object's mutex (recorded while
    /// still holding it, so the release sequences before the next
    /// holder's acquire).
    LockRelease,
    /// The thread is about to surrender the object's mutex to a condvar
    /// wait. Equivalent to a release for happens-before purposes.
    WaitStart {
        /// Which condvar is being waited on.
        cv: CvKind,
    },
    /// The thread returned from a condvar wait holding the mutex again.
    /// Equivalent to an acquire. `satisfied` records whether the waited
    /// predicate held at this return — a well-formed wait loop re-checks
    /// and waits again when it did not (lost-wakeup discipline).
    WaitReturn {
        /// Which condvar was waited on.
        cv: CvKind,
        /// Whether the waited-for predicate held on this return.
        satisfied: bool,
    },
    /// The thread signalled the object's condvar.
    Notify {
        /// Which condvar was signalled.
        cv: CvKind,
    },
    /// An item was committed into the queue (inside the critical
    /// section). `batch` carries the batch id when the item has one.
    SendCommit {
        /// Batch id of the enqueued item, when identifiable.
        batch: Option<u64>,
    },
    /// An item was removed from the queue (inside the critical section).
    RecvCommit {
        /// Batch id of the dequeued item, when identifiable.
        batch: Option<u64>,
    },
    /// The main thread marked a worker dead (recorded while holding the
    /// liveness lock, with the data queue observed empty).
    MarkDead {
        /// The worker that was marked dead.
        worker: usize,
    },
    /// An orphaned batch was redispatched away from a dead worker.
    Redispatch {
        /// The orphaned batch.
        batch: u64,
        /// The dead worker it was taken from.
        from: usize,
    },
    /// A gauge sample point. For queue-depth gauges this is recorded
    /// inside the queue's critical section, so per-object gauge writes
    /// are totally ordered through the mutex chain.
    Gauge {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded synchronization event.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncEvent {
    /// Logical timestamp: total order consistent with happens-before.
    pub seq: u64,
    /// Trace pid of the recording thread
    /// ([`MAIN_OS_PID`](crate::MAIN_OS_PID) or a worker pid);
    /// [`UNKNOWN_TID`] when the thread never registered.
    pub tid: u32,
    /// The synchronization object's name.
    pub obj: String,
    /// What happened.
    pub op: SyncOp,
}

/// The `tid` recorded for threads that never called
/// [`AuditFeed::register_thread`].
pub const UNKNOWN_TID: u32 = u32::MAX;

/// A seeded concurrency bug for `lotus audit --mutate`: each weakens one
/// synchronization rule of the native backend the auditor must then
/// flag, proving the analysis has no blind spot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// `NativeQueue::push`/`try_push` on the data queue skip their
    /// `not_empty.notify_one()` — the classic lost wakeup.
    SkipNotify,
    /// The worker's envelope commit releases the liveness lock before
    /// pushing, then pushes without re-checking — the gated-push
    /// atomicity bug redispatch safety depends on.
    ReleaseRecheck,
    /// The worker takes the data-queue lock and *then* the liveness lock
    /// (the reverse of every other site), closing a lock-order cycle.
    LockOrder,
    /// `NativeQueue`'s consumer wait loop on the data queue treats a
    /// wake-up as permission to receive instead of re-checking that the
    /// queue is non-empty (`if` where `while` belongs). A live run shows
    /// it only when a status-check interval expires empty.
    IfInsteadOfWhile,
}

impl AuditMutation {
    /// Every seeded mutation (excluding `None`).
    pub const ALL: [AuditMutation; 4] = [
        AuditMutation::SkipNotify,
        AuditMutation::ReleaseRecheck,
        AuditMutation::LockOrder,
        AuditMutation::IfInsteadOfWhile,
    ];

    /// Stable kebab-case name (the `--mutate` argument).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AuditMutation::None => "none",
            AuditMutation::SkipNotify => "skip-notify",
            AuditMutation::ReleaseRecheck => "release-recheck",
            AuditMutation::LockOrder => "lock-order",
            AuditMutation::IfInsteadOfWhile => "if-instead-of-while",
        }
    }

    /// Parses a `--mutate` (or `lotus audit --model --bug`) argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<AuditMutation> {
        std::iter::once(AuditMutation::None)
            .chain(AuditMutation::ALL)
            .find(|m| m.as_str() == s)
    }
}

impl std::fmt::Display for AuditMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared collector of [`SyncEvent`]s with profiler-style collection
/// control (`resume` / `pause` / `detach`), mirroring `KernelSpanFeed`.
///
/// Threads announce their trace pid once via
/// [`register_thread`](AuditFeed::register_thread); every subsequent
/// [`record`](AuditFeed::record) stamps events with it. Every process of
/// a simulation runs on the thread that runs it, so events from sim
/// processes are keyed on the process too.
#[derive(Debug)]
pub struct AuditFeed {
    collecting: AtomicBool,
    detached: AtomicBool,
    seq: AtomicU64,
    events: Mutex<Vec<SyncEvent>>,
    recorders: Mutex<HashMap<(ThreadId, Option<Pid>), u32>>,
    overhead_ns: AtomicU64,
}

impl Default for AuditFeed {
    fn default() -> Self {
        AuditFeed::new()
    }
}

impl AuditFeed {
    /// Creates a feed that is collecting from the start.
    #[must_use]
    pub fn new() -> AuditFeed {
        AuditFeed {
            collecting: AtomicBool::new(true),
            detached: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            recorders: Mutex::new(HashMap::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Resumes collection; no-op once detached.
    pub fn resume(&self) {
        if !self.detached.load(Ordering::Relaxed) {
            self.collecting.store(true, Ordering::Relaxed);
        }
    }

    /// Pauses collection.
    pub fn pause(&self) {
        self.collecting.store(false, Ordering::Relaxed);
    }

    /// Detaches the collector permanently: every later record point is a
    /// single relaxed load.
    pub fn detach(&self) {
        self.detached.store(true, Ordering::Relaxed);
        self.collecting.store(false, Ordering::Relaxed);
    }

    /// True while events are being collected.
    #[must_use]
    pub fn is_collecting(&self) -> bool {
        self.collecting.load(Ordering::Relaxed)
    }

    /// Announces the calling thread's trace pid. Events recorded by an
    /// unregistered thread carry [`UNKNOWN_TID`].
    pub fn register_thread(&self, tid: u32) {
        self.register(None, tid);
    }

    /// Announces the trace pid of the simulated `process` calling, or of
    /// the calling thread for `None`.
    pub(crate) fn register(&self, process: Option<Pid>, tid: u32) {
        self.recorders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((std::thread::current().id(), process), tid);
    }

    /// Records one synchronization event on `obj` by the calling thread.
    /// The recording's own cost is measured and accumulated into the
    /// feed's overhead, so bench reports can subtract it.
    pub fn record(&self, obj: &str, op: SyncOp) {
        self.record_by(None, obj, op);
    }

    /// Records one synchronization event on `obj` by the simulated
    /// `process` calling, or by the calling thread for `None`.
    pub(crate) fn record_by(&self, process: Option<Pid>, obj: &str, op: SyncOp) {
        if !self.is_collecting() {
            return;
        }
        let entered = Instant::now();
        // Relaxed is enough: RMW modification order on one location is
        // consistent with happens-before, so events ordered by a mutex
        // release→acquire chain get ascending sequence numbers.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tid = {
            let recorders = self
                .recorders
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            recorders
                .get(&(std::thread::current().id(), process))
                .copied()
                .unwrap_or(UNKNOWN_TID)
        };
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SyncEvent {
                seq,
                tid,
                obj: obj.to_string(),
                op,
            });
        self.overhead_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns every held event, sorted by sequence number.
    #[must_use]
    pub fn drain(&self) -> Vec<SyncEvent> {
        let mut events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner));
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Calls `f` on each event recorded after the first `from`, in
    /// recording order; returns the number recorded so far.
    pub(crate) fn for_each_since(&self, from: usize, f: impl FnMut(&SyncEvent)) -> usize {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        events.iter().skip(from).for_each(f);
        events.len()
    }

    /// Total nanoseconds the feed spent recording (its self-accounted
    /// instrumentation overhead).
    #[must_use]
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_feed_records_nothing() {
        let feed = AuditFeed::new();
        feed.detach();
        feed.record("q", SyncOp::LockAcquire);
        assert!(feed.is_empty());
        feed.resume(); // no-op after detach
        feed.record("q", SyncOp::LockAcquire);
        assert!(feed.is_empty());
    }

    #[test]
    fn pause_and_resume_gate_collection() {
        let feed = AuditFeed::new();
        feed.pause();
        feed.record("q", SyncOp::LockAcquire);
        assert!(feed.is_empty());
        feed.resume();
        feed.record("q", SyncOp::LockRelease);
        assert_eq!(feed.len(), 1);
    }

    #[test]
    fn events_carry_registered_tid_and_ascending_seq() {
        let feed = AuditFeed::new();
        feed.register_thread(42);
        feed.record("a", SyncOp::LockAcquire);
        feed.record("a", SyncOp::LockRelease);
        let events = feed.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert!(events.iter().all(|e| e.tid == 42));
        assert!(feed.is_empty());
    }

    #[test]
    fn unregistered_thread_is_unknown() {
        let feed = AuditFeed::new();
        std::thread::scope(|s| {
            s.spawn(|| feed.record("q", SyncOp::LockAcquire))
                .join()
                .unwrap();
        });
        assert_eq!(feed.drain()[0].tid, UNKNOWN_TID);
    }

    #[test]
    fn cross_thread_seq_respects_lock_handoff() {
        // Two threads ping-pong a mutex; each records its critical
        // section while holding it. The drained stream must interleave
        // [Acquire, Release] pairs without overlap per the seq order.
        let feed = AuditFeed::new();
        let lock = Mutex::new(());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let guard = lock.lock().unwrap();
                        feed.record("m", SyncOp::LockAcquire);
                        feed.record("m", SyncOp::LockRelease);
                        drop(guard);
                    }
                });
            }
        });
        let events = feed.drain();
        assert_eq!(events.len(), 200);
        let mut held = false;
        for e in &events {
            match e.op {
                SyncOp::LockAcquire => {
                    assert!(!held, "acquire of a held lock at seq {}", e.seq);
                    held = true;
                }
                SyncOp::LockRelease => {
                    assert!(held, "release of a free lock at seq {}", e.seq);
                    held = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in AuditMutation::ALL {
            assert_eq!(AuditMutation::parse(m.as_str()), Some(m));
        }
        assert_eq!(AuditMutation::parse("none"), Some(AuditMutation::None));
        assert_eq!(AuditMutation::parse("bogus"), None);
    }
}
