//! The harness of `lotus audit --model`: the native backend's own
//! handoff code, run as lotus-sim processes under a schedule prefix.
//!
//! A main process and `workers` worker processes share a [`NativeQueue`]
//! and a liveness lock on the `SimSync` facade. Each worker fetches for
//! one status-check interval of virtual time, then commits through
//! [`Handoff::commit`]; the main process receives through
//! [`Handoff::recv`]. Fetches, status checks and push retries fall on the
//! same instants, so a status check can expire on an empty queue just as
//! a commit lands. A [`GuidedController`] resolves every same-instant tie.

use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use lotus_sim::{
    DecisionPoint, DecisionRecord, GuidedController, ScheduleController, SimError, Simulation, Span,
};

use crate::audit::{AuditFeed, AuditMutation, SyncEvent};
use crate::native::{Handoff, NativeQueue, PUSH_RETRY};
use crate::protocol::{worker_os_pid, BatchPayload, Envelope, QueueId, Received, MAIN_OS_PID};
use crate::sync::{SimMutex, SimSync, SyncFacade};

/// The main process's status-check interval: the workers' push-retry
/// interval, so the two fall on the same instants.
const STATUS_CHECK: Duration = PUSH_RETRY;

/// Shape of an explored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Worker processes.
    pub workers: usize,
    /// Batches each worker commits.
    pub batches_per_worker: usize,
    /// Data-queue capacity.
    pub queue_cap: usize,
    /// The seeded defect; [`AuditMutation::None`] runs the code as shipped.
    pub bug: AuditMutation,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            workers: 2,
            batches_per_worker: 2,
            queue_cap: 1,
            bug: AuditMutation::None,
        }
    }
}

impl ModelConfig {
    /// Rejects a shape with nothing to explore.
    ///
    /// # Errors
    ///
    /// Names the first of workers, batches per worker and queue capacity
    /// that is zero.
    pub fn validate(&self) -> Result<(), String> {
        let sizes = [
            (self.workers, "workers"),
            (self.batches_per_worker, "batches per worker"),
            (self.queue_cap, "queue capacity"),
        ];
        match sizes.iter().find(|(value, _)| *value == 0) {
            Some((_, what)) => Err(format!("the model's {what} must be at least 1")),
            None => Ok(()),
        }
    }
}

/// One guided run of the harness.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Every tie the controller resolved. Each state hash also covers
    /// the events recorded before its decision, so the explorer prunes
    /// only states reached through the same history.
    pub decisions: Vec<DecisionRecord>,
    /// The run's synchronization events, in sequence order.
    pub events: Vec<SyncEvent>,
    /// How the simulation ended (deadlock, step limit, or finished).
    pub outcome: Result<(), SimError>,
}

/// Runs the shipped handoff code once, resolving the `n`th same-instant
/// tie by `schedule[n]` (the first choice past its end) and stopping
/// after `max_steps` dispatches (0 = unbounded). Equal arguments yield
/// equal runs.
///
/// # Panics
///
/// Panics when `cfg` fails [`ModelConfig::validate`].
#[must_use]
pub fn run_native_model(cfg: &ModelConfig, schedule: &[usize], max_steps: u64) -> ModelRun {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let feed = Arc::new(AuditFeed::new());
    let guide = GuidedController::new(schedule.to_vec(), max_steps);
    let mut sim = Simulation::new();
    sim.set_controller(Arc::new(HistoryHashing {
        guide: Arc::clone(&guide),
        feed: Arc::clone(&feed),
        history: Mutex::new((0, FNV_OFFSET)),
    }));
    let (cfg, main_feed) = (*cfg, Arc::clone(&feed));
    sim.spawn("main", move |ctx| {
        main_process(SimSync(ctx), cfg, main_feed)
    });
    let outcome = sim.run().map(|_| ());
    drop(sim); // drops any process left parked
    ModelRun {
        decisions: guide.decisions(),
        events: feed.drain(),
        outcome,
    }
}

/// What the processes share.
struct Shared {
    data_q: NativeQueue<Envelope, SimSync>,
    liveness: SimMutex<Vec<bool>>,
    shutdown: AtomicBool,
    feed: Arc<AuditFeed>,
    bug: AuditMutation,
}

impl Shared {
    fn handoff(&self) -> Handoff<'_, SimSync> {
        Handoff {
            data_q: &self.data_q,
            liveness: &self.liveness,
            shutdown: &self.shutdown,
            audit: Some(&self.feed),
            mutation: self.bug,
        }
    }
}

/// Builds the shared state, spawns the workers, then receives every
/// batch.
async fn main_process(sync: SimSync, cfg: ModelConfig, feed: Arc<AuditFeed>) {
    feed.register(sync.process(), MAIN_OS_PID);
    let mut data_q = NativeQueue::on(sync.clone(), QueueId::Data.name(), Some(cfg.queue_cap));
    data_q.set_audit(
        Arc::clone(&feed),
        |env: &Envelope| Some(env.batch_id),
        cfg.bug,
    );
    let shared = Rc::new(Shared {
        data_q,
        liveness: sync.mutex(vec![false; cfg.workers]),
        shutdown: AtomicBool::new(false),
        feed,
        bug: cfg.bug,
    });
    for w in 0..cfg.workers {
        let shared = Rc::clone(&shared);
        sync.0.spawn(format!("worker {w}"), move |ctx| async move {
            worker_process(&SimSync(ctx), &shared, cfg, w).await;
        });
    }
    let handoff = shared.handoff();
    let mut pending = cfg.workers * cfg.batches_per_worker;
    while pending > 0 {
        if let Received::Envelope(_) = handoff.recv(STATUS_CHECK, &[], &sync).await {
            pending -= 1;
        }
    }
}

/// Fetches and commits worker `w`'s batches.
async fn worker_process(sync: &SimSync, shared: &Shared, cfg: ModelConfig, w: usize) {
    shared.feed.register(sync.process(), worker_os_pid(w));
    let fetch = Span::from_nanos(STATUS_CHECK.as_nanos() as u64);
    for i in 0..cfg.batches_per_worker {
        sync.0.delay(fetch).await;
        let envelope = Envelope {
            batch_id: (w * cfg.batches_per_worker + i) as u64,
            payload: Ok(BatchPayload { bytes: 0, len: 1 }),
            produced_at: sync.0.now(),
            fetch,
            worker: w,
        };
        if !shared.handoff().commit(w, None, sync, envelope).await {
            return;
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over whatever is written into it.
struct Fnv<'a>(&'a mut u64);

impl std::fmt::Write for Fnv<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            *self.0 = (*self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A [`GuidedController`] whose decision hashes also cover the events
/// recorded so far. The kernel's hash sees process states, not queue
/// contents or who committed what, and the verdict depends on the whole
/// event stream.
struct HistoryHashing {
    guide: Arc<GuidedController>,
    feed: Arc<AuditFeed>,
    /// Events folded so far, and their running fingerprint.
    history: Mutex<(usize, u64)>,
}

impl ScheduleController for HistoryHashing {
    fn pick(&self, point: &DecisionPoint<'_>) -> usize {
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let (folded, mut fingerprint) = *history;
        let seen = self.feed.for_each_since(folded, |e| {
            let _infallible = write!(Fnv(&mut fingerprint), "{}|{}|{:?};", e.tid, e.obj, e.op);
        });
        *history = (seen, fingerprint);
        let _infallible = write!(Fnv(&mut fingerprint), "{}", point.state_hash);
        self.guide.pick(&DecisionPoint {
            state_hash: fingerprint,
            ..*point
        })
    }

    fn on_step(&self, step: u64) -> bool {
        self.guide.on_step(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{CvKind, SyncOp};

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(ModelConfig::default().validate().is_ok());
        for cfg in [
            ModelConfig {
                workers: 0,
                ..ModelConfig::default()
            },
            ModelConfig {
                batches_per_worker: 0,
                ..ModelConfig::default()
            },
            ModelConfig {
                queue_cap: 0,
                ..ModelConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} accepted");
        }
    }

    #[test]
    fn replaying_a_schedule_yields_identical_event_streams() {
        let cfg = ModelConfig::default();
        let schedule = [2, 1, 0, 1, 2, 1];
        let a = run_native_model(&cfg, &schedule, 0);
        let b = run_native_model(&cfg, &schedule, 0);
        assert!(a.outcome.is_ok(), "{:?}", a.outcome);
        assert!(!a.events.is_empty());
        assert_eq!(a.events, b.events);
        assert_eq!(a.decisions, b.decisions);
    }

    /// The default schedule lets a status check expire on an empty queue:
    /// the main process's unsatisfied wait is followed by its
    /// liveness-then-queue recheck.
    #[test]
    fn runs_reach_the_status_check_recheck() {
        let run = run_native_model(&ModelConfig::default(), &[], 0);
        let main: Vec<(&str, &SyncOp)> = run
            .events
            .iter()
            .filter(|e| e.tid == MAIN_OS_PID)
            .map(|e| (e.obj.as_str(), &e.op))
            .collect();
        let expired = SyncOp::WaitReturn {
            cv: CvKind::NotEmpty,
            satisfied: false,
        };
        let recheck = main.windows(4).any(|w| {
            w[0] == ("data_queue", &expired)
                && w[1] == ("data_queue", &SyncOp::LockRelease)
                && w[2] == ("liveness", &SyncOp::LockAcquire)
                && w[3] == ("data_queue", &SyncOp::LockAcquire)
        });
        assert!(recheck, "no expired status check then recheck: {main:?}");
    }
}
