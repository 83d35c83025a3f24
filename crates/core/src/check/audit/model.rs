//! Bounded exhaustive interleaving checks of the native queue protocol.
//!
//! The live auditor ([`super::analyze`]) judges the one interleaving a
//! real run happened to take. This module ports the `NativeQueue` +
//! gated-push state machine into the [`explore`] DFS so *every* small
//! interleaving is judged in `cargo test`: a model of the native
//! backend's synchronization skeleton — worker threads pushing batches
//! through a bounded mutex+condvar queue under the liveness guard, the
//! main thread draining it with a liveness-then-queue recheck — executes
//! atomic critical sections as single scheduler steps, emits the same
//! [`SyncEvent`] vocabulary the real backend records, and feeds each
//! terminated interleaving to the analyzer.
//! Deadlocks (every actor parked on a condvar nobody will signal) are
//! detected directly from the model state.
//!
//! [`ModelBug`] seeds the same defects as the backend's
//! `AuditMutation`s, plus the classic `if`-instead-of-`while` consumer;
//! the tests assert the explorer catches every one of them and passes
//! the clean model — the auditor's own regression harness.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use lotus_dataflow::{CvKind, SyncEvent, SyncOp};
use lotus_sim::{DecisionRecord, Time};

use super::super::explorer::{explore, ExploreBounds, ExploreReport, ScheduledRun};
use super::super::invariants::Violation;
use super::{analyze, AuditSpec};

/// Queue object name — matches the native backend so
/// [`AuditSpec::native_backend`] applies unchanged.
const QUEUE: &str = "data_queue";
/// Liveness guard object name.
const LIVENESS: &str = "liveness";

/// A defect seeded into the model, mirroring the backend's
/// `AuditMutation`s (plus the consumer-side wait bug the backend cannot
/// host because its real loop is correct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelBug {
    /// Faithful protocol.
    #[default]
    None,
    /// Producers push without signalling `not_empty` — lost wakeup.
    SkipNotify,
    /// Producers release the liveness guard before pushing — the
    /// liveness check and the commit are no longer atomic.
    ReleaseRecheck,
    /// Producers acquire queue-then-liveness while the main thread
    /// acquires liveness-then-queue — deadlock-prone lock order.
    LockOrder,
    /// The consumer treats a condvar wake as permission instead of
    /// re-checking the predicate (`if` where `while` belongs).
    IfInsteadOfWhile,
}

impl ModelBug {
    /// Every seeded defect.
    pub const ALL: [ModelBug; 4] = [
        ModelBug::SkipNotify,
        ModelBug::ReleaseRecheck,
        ModelBug::LockOrder,
        ModelBug::IfInsteadOfWhile,
    ];

    /// Stable kebab-case name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ModelBug::None => "none",
            ModelBug::SkipNotify => "skip-notify",
            ModelBug::ReleaseRecheck => "release-recheck",
            ModelBug::LockOrder => "lock-order",
            ModelBug::IfInsteadOfWhile => "if-instead-of-while",
        }
    }

    /// Parses a kebab-case name.
    #[must_use]
    pub fn parse(name: &str) -> Option<ModelBug> {
        match name {
            "none" => Some(ModelBug::None),
            "skip-notify" => Some(ModelBug::SkipNotify),
            "release-recheck" => Some(ModelBug::ReleaseRecheck),
            "lock-order" => Some(ModelBug::LockOrder),
            "if-instead-of-while" => Some(ModelBug::IfInsteadOfWhile),
            _ => None,
        }
    }
}

/// Shape of the modelled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Producer (worker) threads.
    pub workers: usize,
    /// Batches each producer pushes.
    pub batches_per_worker: usize,
    /// Data-queue capacity.
    pub queue_cap: usize,
    /// Seeded defect.
    pub bug: ModelBug,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            workers: 2,
            batches_per_worker: 2,
            queue_cap: 1,
            bug: ModelBug::None,
        }
    }
}

/// Program counter of one model actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// Main: the one-off liveness→queue recheck before consuming.
    Recheck,
    /// Main: the receive loop.
    Recv,
    /// Worker: pushing batch `i` of its assignment.
    Push(usize),
    /// Worker: finished pushing; counts itself done (last one closes).
    Finish,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Actor {
    pc: Pc,
    /// The condvar this actor is parked on, when blocked.
    waiting: Option<CvKind>,
    /// Set by a notify while parked; the next step is the wake-up.
    woken: bool,
}

/// The whole model state: one main actor, `workers` producers, and the
/// shared queue.
struct Model {
    cfg: ModelConfig,
    actors: Vec<Actor>,
    queue: VecDeque<u64>,
    closed: bool,
    done_workers: usize,
    received: usize,
    events: Vec<SyncEvent>,
    seq: u64,
    /// Rolling FNV over the emitted events. Folded into the state hash
    /// so the explorer only prunes states with identical histories —
    /// the verdict is computed from the whole event stream, so a purely
    /// structural hash could prune a history whose stream differs.
    fingerprint: u64,
}

const MAIN: usize = 0;

impl Model {
    fn new(cfg: ModelConfig) -> Model {
        let mut actors = vec![Actor {
            pc: Pc::Recheck,
            waiting: None,
            woken: false,
        }];
        actors.extend((0..cfg.workers).map(|_| Actor {
            pc: Pc::Push(0),
            waiting: None,
            woken: false,
        }));
        Model {
            cfg,
            actors,
            queue: VecDeque::new(),
            closed: false,
            done_workers: 0,
            received: 0,
            events: Vec::new(),
            seq: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn tid(actor: usize) -> u32 {
        if actor == MAIN {
            0
        } else {
            100 + actor as u32
        }
    }

    fn emit(&mut self, actor: usize, obj: &str, op: SyncOp) {
        let mut h = DefaultHasher::new();
        Model::tid(actor).hash(&mut h);
        obj.hash(&mut h);
        format!("{op:?}").hash(&mut h);
        self.fingerprint = (self.fingerprint ^ h.finish()).wrapping_mul(0x0000_0100_0000_01b3);
        self.events.push(SyncEvent {
            seq: self.seq,
            tid: Model::tid(actor),
            obj: obj.to_string(),
            op,
        });
        self.seq += 1;
    }

    fn enabled(&self) -> Vec<usize> {
        (0..self.actors.len())
            .filter(|&i| {
                let a = self.actors[i];
                a.pc != Pc::Done && (a.waiting.is_none() || a.woken)
            })
            .collect()
    }

    fn complete(&self) -> bool {
        self.actors.iter().all(|a| a.pc == Pc::Done)
    }

    fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.actors.hash(&mut h);
        self.queue.hash(&mut h);
        self.closed.hash(&mut h);
        self.done_workers.hash(&mut h);
        self.received.hash(&mut h);
        self.fingerprint.hash(&mut h);
        h.finish()
    }

    fn wake(&mut self, cv: CvKind) {
        for a in &mut self.actors {
            if a.waiting == Some(cv) {
                a.woken = true;
            }
        }
    }

    /// Batch id pushed by `worker` (1-based actor index) at slot `i`.
    fn batch_id(&self, worker: usize, i: usize) -> u64 {
        ((worker - 1) * self.cfg.batches_per_worker + i) as u64
    }

    /// One atomic step of `actor`. Critical sections are whole steps, so
    /// lock acquisition never blocks inside the model — only condvar
    /// waits park an actor.
    fn step(&mut self, actor: usize) {
        let a = self.actors[actor];
        if let (Some(cv), true) = (a.waiting, a.woken) {
            self.step_wake(actor, cv);
            return;
        }
        match a.pc {
            Pc::Recheck => {
                // Main's liveness recheck: pops under liveness-then-queue,
                // the clean graph's one lock-order edge.
                self.emit(actor, LIVENESS, SyncOp::LockAcquire);
                self.emit(actor, QUEUE, SyncOp::LockAcquire);
                self.emit(actor, QUEUE, SyncOp::LockRelease);
                self.emit(actor, LIVENESS, SyncOp::LockRelease);
                self.actors[actor].pc = Pc::Recv;
            }
            Pc::Recv => self.step_recv(actor),
            Pc::Push(i) => self.step_push(actor, i),
            Pc::Finish => {
                self.done_workers += 1;
                if self.done_workers == self.cfg.workers {
                    self.emit(actor, QUEUE, SyncOp::LockAcquire);
                    self.closed = true;
                    self.emit(actor, QUEUE, SyncOp::Close);
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                    self.emit(
                        actor,
                        QUEUE,
                        SyncOp::Notify {
                            cv: CvKind::NotEmpty,
                        },
                    );
                    self.emit(
                        actor,
                        QUEUE,
                        SyncOp::Notify {
                            cv: CvKind::NotFull,
                        },
                    );
                    self.wake(CvKind::NotEmpty);
                    self.wake(CvKind::NotFull);
                }
                self.actors[actor].pc = Pc::Done;
            }
            Pc::Done => {}
        }
    }

    fn step_recv(&mut self, actor: usize) {
        self.emit(actor, QUEUE, SyncOp::LockAcquire);
        if let Some(batch) = self.queue.pop_front() {
            self.received += 1;
            self.emit(actor, QUEUE, SyncOp::RecvCommit { batch: Some(batch) });
            self.emit(actor, QUEUE, SyncOp::LockRelease);
            self.emit(
                actor,
                QUEUE,
                SyncOp::Notify {
                    cv: CvKind::NotFull,
                },
            );
            self.wake(CvKind::NotFull);
        } else if self.closed {
            self.emit(actor, QUEUE, SyncOp::LockRelease);
            self.actors[actor].pc = Pc::Done;
        } else {
            self.emit(
                actor,
                QUEUE,
                SyncOp::WaitStart {
                    cv: CvKind::NotEmpty,
                },
            );
            self.actors[actor].waiting = Some(CvKind::NotEmpty);
            self.actors[actor].woken = false;
        }
    }

    fn step_push(&mut self, actor: usize, i: usize) {
        let batch = self.batch_id(actor, i);
        let full = self.queue.len() >= self.cfg.queue_cap;
        match self.cfg.bug {
            ModelBug::ReleaseRecheck => {
                // The liveness check happens... and then the guard is
                // dropped before the push.
                self.emit(actor, LIVENESS, SyncOp::LockAcquire);
                self.emit(actor, LIVENESS, SyncOp::LockRelease);
                self.emit(actor, QUEUE, SyncOp::LockAcquire);
                if full {
                    self.park_not_full(actor);
                    return;
                }
                self.commit_push(actor, i, batch);
            }
            ModelBug::LockOrder => {
                // Reversed nesting: queue first, then the guard.
                self.emit(actor, QUEUE, SyncOp::LockAcquire);
                self.emit(actor, LIVENESS, SyncOp::LockAcquire);
                self.emit(actor, LIVENESS, SyncOp::LockRelease);
                if full {
                    self.park_not_full(actor);
                    return;
                }
                self.commit_push(actor, i, batch);
            }
            _ => {
                self.emit(actor, LIVENESS, SyncOp::LockAcquire);
                self.emit(actor, QUEUE, SyncOp::LockAcquire);
                if full {
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                    self.emit(actor, LIVENESS, SyncOp::LockRelease);
                    self.emit(actor, QUEUE, SyncOp::LockAcquire);
                    self.park_not_full(actor);
                    return;
                }
                self.queue.push_back(batch);
                self.emit(actor, QUEUE, SyncOp::SendCommit { batch: Some(batch) });
                self.emit(actor, QUEUE, SyncOp::LockRelease);
                self.emit(actor, LIVENESS, SyncOp::LockRelease);
                self.notify_not_empty(actor);
                self.advance_push(actor, i);
            }
        }
    }

    /// Shared tail of the buggy (guard already released / reversed) push
    /// paths: commit while holding only the queue lock.
    fn commit_push(&mut self, actor: usize, i: usize, batch: u64) {
        self.queue.push_back(batch);
        self.emit(actor, QUEUE, SyncOp::SendCommit { batch: Some(batch) });
        self.emit(actor, QUEUE, SyncOp::LockRelease);
        self.notify_not_empty(actor);
        self.advance_push(actor, i);
    }

    fn notify_not_empty(&mut self, actor: usize) {
        if self.cfg.bug == ModelBug::SkipNotify {
            return;
        }
        self.emit(
            actor,
            QUEUE,
            SyncOp::Notify {
                cv: CvKind::NotEmpty,
            },
        );
        self.wake(CvKind::NotEmpty);
    }

    fn advance_push(&mut self, actor: usize, i: usize) {
        self.actors[actor].pc = if i + 1 < self.cfg.batches_per_worker {
            Pc::Push(i + 1)
        } else {
            Pc::Finish
        };
    }

    /// Parks the actor on `not_full`; the queue lock is held at entry and
    /// released by the wait.
    fn park_not_full(&mut self, actor: usize) {
        self.emit(
            actor,
            QUEUE,
            SyncOp::WaitStart {
                cv: CvKind::NotFull,
            },
        );
        self.actors[actor].waiting = Some(CvKind::NotFull);
        self.actors[actor].woken = false;
    }

    /// A parked actor's wake-up: re-acquire (implicit in the wait),
    /// re-check the predicate, and proceed or re-park.
    fn step_wake(&mut self, actor: usize, cv: CvKind) {
        self.actors[actor].waiting = None;
        self.actors[actor].woken = false;
        match cv {
            CvKind::NotEmpty => {
                let satisfied = !self.queue.is_empty();
                self.emit(actor, QUEUE, SyncOp::WaitReturn { cv, satisfied });
                if satisfied {
                    let batch = self.queue.pop_front();
                    self.received += 1;
                    self.emit(actor, QUEUE, SyncOp::RecvCommit { batch });
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                    self.emit(
                        actor,
                        QUEUE,
                        SyncOp::Notify {
                            cv: CvKind::NotFull,
                        },
                    );
                    self.wake(CvKind::NotFull);
                } else if self.cfg.bug == ModelBug::IfInsteadOfWhile {
                    // The wake is taken as permission: commit against an
                    // empty queue.
                    self.received += 1;
                    self.emit(actor, QUEUE, SyncOp::RecvCommit { batch: None });
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                    self.emit(
                        actor,
                        QUEUE,
                        SyncOp::Notify {
                            cv: CvKind::NotFull,
                        },
                    );
                    self.wake(CvKind::NotFull);
                } else if self.closed {
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                    self.actors[actor].pc = Pc::Done;
                } else {
                    self.emit(actor, QUEUE, SyncOp::WaitStart { cv });
                    self.actors[actor].waiting = Some(cv);
                }
            }
            CvKind::NotFull => {
                let satisfied = self.queue.len() < self.cfg.queue_cap;
                self.emit(actor, QUEUE, SyncOp::WaitReturn { cv, satisfied });
                if satisfied {
                    // Release and loop back to the gated push attempt,
                    // like the real worker's retry loop.
                    self.emit(actor, QUEUE, SyncOp::LockRelease);
                } else {
                    self.emit(actor, QUEUE, SyncOp::WaitStart { cv });
                    self.actors[actor].waiting = Some(cv);
                }
            }
        }
    }
}

/// Executes the model under one schedule prefix and judges the run: the
/// analyzer's findings over the emitted event stream, plus direct
/// deadlock detection, become [`Violation::SyncAudit`]s for the
/// explorer. Deterministic: equal prefixes produce equal runs, so a
/// counterexample schedule replays exactly.
#[must_use]
pub fn run_model(cfg: &ModelConfig, prefix: &[usize]) -> ScheduledRun {
    let (run, _) = run_model_traced(cfg, prefix);
    run
}

/// [`run_model`] plus the raw event stream, for `--replay` displays.
#[must_use]
pub fn run_model_traced(cfg: &ModelConfig, prefix: &[usize]) -> (ScheduledRun, Vec<SyncEvent>) {
    let mut model = Model::new(*cfg);
    let mut decisions = Vec::new();
    let mut step: u64 = 0;
    // Generous bound: the model's programs are finite, so this only
    // guards against a modelling mistake.
    let step_limit = 10_000u64;

    loop {
        let enabled = model.enabled();
        if enabled.is_empty() || step >= step_limit {
            break;
        }
        let actor = if enabled.len() == 1 {
            enabled[0]
        } else {
            let choice = prefix.get(decisions.len()).copied().unwrap_or(0) % enabled.len();
            decisions.push(DecisionRecord {
                branches: enabled.len(),
                taken: choice,
                state_hash: model.state_hash(),
                step,
                now: Time::ZERO,
            });
            enabled[choice]
        };
        model.step(actor);
        step += 1;
    }

    let mut violations = Vec::new();
    if !model.complete() {
        let stuck: Vec<String> = model
            .actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pc != Pc::Done)
            .map(|(i, a)| {
                let who = if i == MAIN {
                    "main".to_string()
                } else {
                    format!("worker {}", i - 1)
                };
                match a.waiting {
                    Some(CvKind::NotEmpty) => format!("{who} parked on not_empty"),
                    Some(CvKind::NotFull) => format!("{who} parked on not_full"),
                    None => format!("{who} runnable"),
                }
            })
            .collect();
        violations.push(Violation::SyncAudit {
            finding: format!("deadlock: {}", stuck.join(", ")),
        });
    }
    for finding in analyze(&model.events, &AuditSpec::native_backend()).findings {
        violations.push(Violation::SyncAudit {
            finding: finding.to_string(),
        });
    }
    (
        ScheduledRun {
            decisions,
            violations,
        },
        model.events,
    )
}

/// Explores every bounded interleaving of the modelled native protocol.
#[must_use]
pub fn explore_native_model(cfg: &ModelConfig, bounds: &ExploreBounds) -> ExploreReport {
    explore(bounds, |prefix| run_model(cfg, prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> ExploreBounds {
        ExploreBounds {
            max_schedules: 2_000,
            max_depth: 96,
            max_branch: 4,
            ..ExploreBounds::default()
        }
    }

    fn cx_mentions(report: &ExploreReport, needle: &str) -> bool {
        report
            .counterexample
            .as_ref()
            .is_some_and(|cx| cx.violations.iter().any(|v| v.to_string().contains(needle)))
    }

    #[test]
    fn clean_model_explores_clean() {
        let report = explore_native_model(&ModelConfig::default(), &bounds());
        assert!(
            report.clean(),
            "clean protocol flagged: {:?}",
            report.counterexample
        );
        assert!(report.stats.schedules_run > 1, "no interleavings explored");
    }

    #[test]
    fn skip_notify_deadlocks_and_is_caught() {
        let cfg = ModelConfig {
            bug: ModelBug::SkipNotify,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        assert!(
            cx_mentions(&report, "deadlock") || cx_mentions(&report, "missed wake"),
            "skip-notify escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn release_recheck_is_caught_as_ungated_commit() {
        let cfg = ModelConfig {
            bug: ModelBug::ReleaseRecheck,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        assert!(
            cx_mentions(&report, "ungated commit"),
            "release-recheck escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn lock_order_inversion_is_caught_as_cycle() {
        let cfg = ModelConfig {
            bug: ModelBug::LockOrder,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        assert!(
            cx_mentions(&report, "lock-order cycle"),
            "lock-order escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn if_instead_of_while_is_caught() {
        let cfg = ModelConfig {
            bug: ModelBug::IfInsteadOfWhile,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        assert!(
            cx_mentions(&report, "wait without re-check"),
            "if-instead-of-while escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn counterexample_schedules_replay_deterministically() {
        let cfg = ModelConfig {
            bug: ModelBug::SkipNotify,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        let cx = report.counterexample.expect("skip-notify must be caught");
        let a = run_model(&cfg, &cx.schedule);
        let b = run_model(&cfg, &cx.schedule);
        assert!(!a.violations.is_empty());
        assert_eq!(
            a.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            b.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
}
