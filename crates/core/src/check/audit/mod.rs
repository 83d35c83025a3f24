//! **lotus audit** — happens-before analysis of the native backend's
//! synchronization-event stream.
//!
//! The native backend (PR 6) runs the real DataLoader protocol on
//! `std::thread` with homegrown mutex+condvar queues — a layer the
//! simulated-protocol model checker cannot see. When an
//! [`AuditFeed`](lotus_dataflow::AuditFeed) is attached, every lock
//! transition, condvar wait/notify, committed send/receive, death
//! marking and redispatch is recorded as a [`SyncEvent`]; [`analyze`]
//! rebuilds the run's happens-before partial order from those events
//! with vector clocks ([`vc`]) and judges it against the native
//! protocol's synchronization contract:
//!
//! * **lock discipline** — acquires/releases pair up per thread, and
//!   commits happen inside their object's critical section;
//! * **wake discipline** — every committed send/receive is followed by
//!   its condvar notify (a missing `notify_one` is the classic lost
//!   wakeup that hangs training "for no reason");
//! * **lost-wakeup re-check** — a condvar wait that returns with its
//!   predicate false must wait again, never commit ("`while`, not
//!   `if`");
//! * **gated commits** — sends on protected queues (the data queue)
//!   happen while holding their guard lock (the liveness lock), the
//!   atomicity redispatch safety rests on;
//! * **produce ⊑ consume** — every batch's producing commit
//!   happens-before its consuming commit, exactly once each;
//! * **death ⊑ redispatch** — an orphan is redispatched only after its
//!   owner's death was observed;
//! * **gauge total order** — concurrent samplers of one gauge series
//!   are serialized (queue-depth gauges sample inside the queue's
//!   critical section);
//! * **lock-order acyclicity** — the "held while acquiring" graph has
//!   no cycle (deadlock potential).
//!
//! [`minimize_events`] shrinks a flagged stream to a small
//! counterexample window by greedy chunk deletion, re-running the
//! analysis to confirm the finding survives — the same
//! counterexample-minimization UX as `lotus check`. The [`model`]
//! submodule drives the bounded DFS explorer over the backend's own
//! `NativeQueue` and liveness code, run as lotus-sim processes, and
//! judges each run with [`analyze`], so exhaustive small-interleaving
//! checks of the code that ships run in `cargo test`.

pub mod model;
pub mod vc;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use lotus_dataflow::{CvKind, SyncEvent, SyncOp};

use vc::VectorClock;

/// The synchronization contract the analyzer enforces beyond the
/// object-independent rules.
#[derive(Debug, Clone, Default)]
pub struct AuditSpec {
    /// `(queue, guard)` pairs: every `SendCommit` on `queue` must be
    /// performed while holding `guard`'s lock.
    pub gated_sends: Vec<(String, String)>,
}

impl AuditSpec {
    /// The native backend's contract: envelope pushes onto the data
    /// queue are atomic with the worker's liveness check.
    #[must_use]
    pub fn native_backend() -> AuditSpec {
        AuditSpec {
            gated_sends: vec![("data_queue".to_string(), "liveness".to_string())],
        }
    }
}

/// One flagged defect in the synchronization-event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditFinding {
    /// A lock transition that does not pair up (acquire of a held lock,
    /// release of a free one, or a commit outside any critical section).
    UnpairedLock {
        /// Recording thread.
        tid: u32,
        /// The object.
        obj: String,
        /// Sequence number of the offending event.
        seq: u64,
        /// What exactly failed to pair.
        detail: String,
    },
    /// A thread committed sends (or receives) on an object but signalled
    /// the corresponding condvar fewer times — a lost wakeup.
    MissedWake {
        /// Recording thread.
        tid: u32,
        /// The queue.
        obj: String,
        /// The under-signalled condvar (`not_empty` for sends,
        /// `not_full` for receives).
        cv: &'static str,
        /// Commits by this thread on this object.
        commits: usize,
        /// Matching notifies by this thread.
        notifies: usize,
    },
    /// A send was committed on a gated queue without holding its guard
    /// lock — the commit is no longer atomic with the guarded check.
    UngatedCommit {
        /// Recording thread.
        tid: u32,
        /// The gated queue.
        obj: String,
        /// The guard lock the spec requires.
        guard: String,
        /// The committed batch, when identifiable.
        batch: Option<u64>,
        /// Sequence number of the commit.
        seq: u64,
    },
    /// A condvar wait returned with its predicate false and the thread
    /// committed anyway instead of waiting again (`if` where `while`
    /// belongs).
    WaitWithoutRecheck {
        /// Recording thread.
        tid: u32,
        /// The object.
        obj: String,
        /// The condvar that was waited on.
        cv: &'static str,
        /// Sequence number of the offending commit.
        seq: u64,
    },
    /// A batch's consuming commit is not ordered after its producing
    /// commit — producer and consumer race on the payload.
    UnorderedProduceConsume {
        /// The queue.
        obj: String,
        /// The racing batch.
        batch: u64,
        /// Sequence number of the produce.
        send_seq: u64,
        /// Sequence number of the consume.
        recv_seq: u64,
    },
    /// One batch was committed onto one queue twice — double delivery.
    DuplicateProduce {
        /// The queue.
        obj: String,
        /// The twice-sent batch.
        batch: u64,
        /// Sequence number of the first send.
        first_seq: u64,
        /// Sequence number of the second send.
        second_seq: u64,
    },
    /// A batch was received from a queue it was never committed into.
    PhantomConsume {
        /// The queue.
        obj: String,
        /// The phantom batch.
        batch: u64,
        /// Sequence number of the receive.
        seq: u64,
    },
    /// An orphan was redispatched with no observed death of its owner
    /// ordered before the redispatch.
    RedispatchBeforeDeath {
        /// The redispatched batch.
        batch: u64,
        /// The claimed-dead owner.
        from: usize,
        /// Sequence number of the redispatch.
        seq: u64,
    },
    /// Two samples of one gauge series are concurrent under the
    /// happens-before order — the series' writes are not totally
    /// ordered and the trace's gauge track is meaningless.
    UnorderedGauges {
        /// The gauge series.
        gauge: String,
        /// Earlier (by sequence) sample.
        first_seq: u64,
        /// Later sample, concurrent with the earlier one.
        second_seq: u64,
        /// Thread of the earlier sample.
        first_tid: u32,
        /// Thread of the later sample.
        second_tid: u32,
    },
    /// The lock-acquisition-order graph has a cycle — deadlock
    /// potential between the listed locks.
    LockCycle {
        /// The locks along the cycle, first repeated at the end.
        cycle: Vec<String>,
    },
}

impl AuditFinding {
    /// Stable kebab-case rule name (summary tables, JSON, CI greps).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AuditFinding::UnpairedLock { .. } => "unpaired-lock",
            AuditFinding::MissedWake { .. } => "missed-wake",
            AuditFinding::UngatedCommit { .. } => "ungated-commit",
            AuditFinding::WaitWithoutRecheck { .. } => "wait-without-recheck",
            AuditFinding::UnorderedProduceConsume { .. } => "unordered-produce-consume",
            AuditFinding::DuplicateProduce { .. } => "duplicate-produce",
            AuditFinding::PhantomConsume { .. } => "phantom-consume",
            AuditFinding::RedispatchBeforeDeath { .. } => "redispatch-before-death",
            AuditFinding::UnorderedGauges { .. } => "unordered-gauges",
            AuditFinding::LockCycle { .. } => "lock-cycle",
        }
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::UnpairedLock {
                tid,
                obj,
                seq,
                detail,
            } => write!(f, "unpaired lock on {obj} by thread {tid} at seq {seq}: {detail}"),
            AuditFinding::MissedWake {
                tid,
                obj,
                cv,
                commits,
                notifies,
            } => write!(
                f,
                "missed wake on {obj}: thread {tid} committed {commits} but signalled {cv} only {notifies} time(s)"
            ),
            AuditFinding::UngatedCommit {
                tid,
                obj,
                guard,
                batch,
                seq,
            } => write!(
                f,
                "ungated commit on {obj}: thread {tid} sent batch {batch:?} at seq {seq} without holding {guard}"
            ),
            AuditFinding::WaitWithoutRecheck { tid, obj, cv, seq } => write!(
                f,
                "wait without re-check on {obj}: thread {tid} committed at seq {seq} after an unsatisfied {cv} wait"
            ),
            AuditFinding::UnorderedProduceConsume {
                obj,
                batch,
                send_seq,
                recv_seq,
            } => write!(
                f,
                "produce/consume race on {obj}: batch {batch} sent at seq {send_seq} does not happen-before its receive at seq {recv_seq}"
            ),
            AuditFinding::DuplicateProduce {
                obj,
                batch,
                first_seq,
                second_seq,
            } => write!(
                f,
                "duplicate produce on {obj}: batch {batch} committed at seq {first_seq} and again at seq {second_seq}"
            ),
            AuditFinding::PhantomConsume { obj, batch, seq } => write!(
                f,
                "phantom consume on {obj}: batch {batch} received at seq {seq} but never sent"
            ),
            AuditFinding::RedispatchBeforeDeath { batch, from, seq } => write!(
                f,
                "redispatch before death: batch {batch} re-sent from worker {from} at seq {seq} with no observed death ordered before it"
            ),
            AuditFinding::UnorderedGauges {
                gauge,
                first_seq,
                second_seq,
                first_tid,
                second_tid,
            } => write!(
                f,
                "unordered gauge writes on {gauge}: seq {first_seq} (thread {first_tid}) and seq {second_seq} (thread {second_tid}) are concurrent"
            ),
            AuditFinding::LockCycle { cycle } => {
                write!(f, "lock-order cycle (deadlock potential): {}", cycle.join(" -> "))
            }
        }
    }
}

/// Shape of the analyzed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditStats {
    /// Events analyzed.
    pub events: usize,
    /// Distinct recording threads.
    pub threads: usize,
    /// Distinct synchronization objects (locks and queues).
    pub objects: usize,
    /// Distinct batches seen in send/receive commits.
    pub batches: usize,
}

/// The auditor's verdict over one event stream.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every flagged defect, in stream order (cycles last).
    pub findings: Vec<AuditFinding>,
    /// Shape of the analyzed stream.
    pub stats: AuditStats,
}

impl AuditReport {
    /// True when nothing was flagged.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

#[derive(Default)]
struct PairCounts {
    sends: usize,
    recvs: usize,
    notify_not_empty: usize,
    notify_not_full: usize,
}

struct ThreadState {
    clock: VectorClock,
    held: BTreeSet<String>,
    /// Set after a `WaitReturn { satisfied: false }`: `(obj, cv)` the
    /// thread must not commit on before waiting or unlocking again.
    unsatisfied: Option<(String, CvKind)>,
}

/// Analyzes a synchronization-event stream (sorted by `seq`, as
/// [`AuditFeed::drain`](lotus_dataflow::AuditFeed::drain) returns it)
/// against `spec`. Returns every finding; an empty report certifies the
/// recorded run obeyed the native protocol's synchronization contract.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(events: &[SyncEvent], spec: &AuditSpec) -> AuditReport {
    let mut findings = Vec::new();

    // Dense thread indexing for the vector clocks.
    let tids: BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    let index_of: BTreeMap<u32, usize> = tids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let threads = tids.len();
    let mut state: BTreeMap<u32, ThreadState> = tids
        .iter()
        .map(|&t| {
            (
                t,
                ThreadState {
                    clock: VectorClock::new(threads),
                    held: BTreeSet::new(),
                    unsatisfied: None,
                },
            )
        })
        .collect();

    // The most recent release of each lock object, for the join at the
    // next acquire: because a mutex serializes its critical sections,
    // joining with the latest release transitively orders a section
    // after every earlier one.
    let mut last_release: HashMap<String, VectorClock> = HashMap::new();
    // Ordered, so findings come out in the same order on every replay.
    let mut counts: BTreeMap<(u32, String), PairCounts> = BTreeMap::new();
    let mut sends: HashMap<(String, u64), (u64, u32, VectorClock)> = HashMap::new();
    let mut deaths: HashMap<usize, VectorClock> = HashMap::new();
    let mut last_gauge: HashMap<String, (u64, u32, VectorClock)> = HashMap::new();
    // held-while-acquiring edges, with one witness acquire each.
    let mut lock_edges: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut lock_objs: BTreeSet<String> = BTreeSet::new();
    let mut batches: BTreeSet<u64> = BTreeSet::new();

    for event in events {
        let Some(&ti) = index_of.get(&event.tid) else {
            continue;
        };
        let Some(ts) = state.get_mut(&event.tid) else {
            continue;
        };
        ts.clock.tick(ti);
        let obj = event.obj.as_str();

        // Lost-wakeup discipline: after an unsatisfied wait return, the
        // next action on that object must not be a commit.
        if let Some((pending_obj, cv)) = ts.unsatisfied.clone() {
            if pending_obj == obj {
                if matches!(
                    event.op,
                    SyncOp::SendCommit { .. } | SyncOp::RecvCommit { .. }
                ) {
                    findings.push(AuditFinding::WaitWithoutRecheck {
                        tid: event.tid,
                        obj: obj.to_string(),
                        cv: cv.as_str(),
                        seq: event.seq,
                    });
                }
                ts.unsatisfied = None;
            }
        }

        match &event.op {
            SyncOp::LockAcquire | SyncOp::WaitReturn { .. } => {
                lock_objs.insert(obj.to_string());
                if let SyncOp::LockAcquire = event.op {
                    if ts.held.contains(obj) {
                        findings.push(AuditFinding::UnpairedLock {
                            tid: event.tid,
                            obj: obj.to_string(),
                            seq: event.seq,
                            detail: "acquire of a lock this thread already holds".to_string(),
                        });
                    }
                }
                for held in &ts.held {
                    if held != obj {
                        lock_edges
                            .entry((held.clone(), obj.to_string()))
                            .or_insert(event.seq);
                    }
                }
                if let Some(rel) = last_release.get(obj) {
                    ts.clock.join(rel);
                }
                ts.held.insert(obj.to_string());
                if let SyncOp::WaitReturn { cv, satisfied } = event.op {
                    if !satisfied {
                        ts.unsatisfied = Some((obj.to_string(), cv));
                    }
                }
            }
            SyncOp::LockRelease | SyncOp::WaitStart { .. } => {
                if !ts.held.remove(obj) {
                    findings.push(AuditFinding::UnpairedLock {
                        tid: event.tid,
                        obj: obj.to_string(),
                        seq: event.seq,
                        detail: "release of a lock this thread does not hold".to_string(),
                    });
                }
                last_release.insert(obj.to_string(), ts.clock.clone());
                if matches!(event.op, SyncOp::LockRelease) {
                    ts.unsatisfied = None;
                }
            }
            SyncOp::Notify { cv } => {
                let entry = counts.entry((event.tid, obj.to_string())).or_default();
                match cv {
                    CvKind::NotEmpty => entry.notify_not_empty += 1,
                    CvKind::NotFull => entry.notify_not_full += 1,
                }
            }
            SyncOp::SendCommit { batch } => {
                if !ts.held.contains(obj) {
                    findings.push(AuditFinding::UnpairedLock {
                        tid: event.tid,
                        obj: obj.to_string(),
                        seq: event.seq,
                        detail: "send committed outside the object's critical section".to_string(),
                    });
                }
                for (queue, guard) in &spec.gated_sends {
                    if queue == obj && !ts.held.contains(guard) {
                        findings.push(AuditFinding::UngatedCommit {
                            tid: event.tid,
                            obj: obj.to_string(),
                            guard: guard.clone(),
                            batch: *batch,
                            seq: event.seq,
                        });
                    }
                }
                counts
                    .entry((event.tid, obj.to_string()))
                    .or_default()
                    .sends += 1;
                if let Some(id) = batch {
                    batches.insert(*id);
                    if let Some((first_seq, _, _)) = sends.get(&(obj.to_string(), *id)) {
                        findings.push(AuditFinding::DuplicateProduce {
                            obj: obj.to_string(),
                            batch: *id,
                            first_seq: *first_seq,
                            second_seq: event.seq,
                        });
                    } else {
                        sends.insert(
                            (obj.to_string(), *id),
                            (event.seq, event.tid, ts.clock.clone()),
                        );
                    }
                }
            }
            SyncOp::RecvCommit { batch } => {
                if !ts.held.contains(obj) {
                    findings.push(AuditFinding::UnpairedLock {
                        tid: event.tid,
                        obj: obj.to_string(),
                        seq: event.seq,
                        detail: "receive committed outside the object's critical section"
                            .to_string(),
                    });
                }
                counts
                    .entry((event.tid, obj.to_string()))
                    .or_default()
                    .recvs += 1;
                if let Some(id) = batch {
                    batches.insert(*id);
                    match sends.get(&(obj.to_string(), *id)) {
                        None => findings.push(AuditFinding::PhantomConsume {
                            obj: obj.to_string(),
                            batch: *id,
                            seq: event.seq,
                        }),
                        Some((send_seq, send_tid, send_clock)) => {
                            if *send_tid != event.tid && !send_clock.leq(&ts.clock) {
                                findings.push(AuditFinding::UnorderedProduceConsume {
                                    obj: obj.to_string(),
                                    batch: *id,
                                    send_seq: *send_seq,
                                    recv_seq: event.seq,
                                });
                            }
                        }
                    }
                }
            }
            SyncOp::MarkDead { worker } => {
                if !ts.held.contains(obj) {
                    findings.push(AuditFinding::UnpairedLock {
                        tid: event.tid,
                        obj: obj.to_string(),
                        seq: event.seq,
                        detail: "death marked outside the liveness critical section".to_string(),
                    });
                }
                deaths.insert(*worker, ts.clock.clone());
            }
            SyncOp::Redispatch { batch, from } => {
                let ordered = deaths.get(from).is_some_and(|death| death.leq(&ts.clock));
                if !ordered {
                    findings.push(AuditFinding::RedispatchBeforeDeath {
                        batch: *batch,
                        from: *from,
                        seq: event.seq,
                    });
                }
            }
            SyncOp::Gauge { .. } => {
                if let Some((prev_seq, prev_tid, prev_clock)) = last_gauge.get(obj) {
                    if *prev_tid != event.tid && !prev_clock.leq(&ts.clock) {
                        findings.push(AuditFinding::UnorderedGauges {
                            gauge: obj.to_string(),
                            first_seq: *prev_seq,
                            second_seq: event.seq,
                            first_tid: *prev_tid,
                            second_tid: event.tid,
                        });
                    }
                }
                last_gauge.insert(obj.to_string(), (event.seq, event.tid, ts.clock.clone()));
            }
        }
    }

    // Wake discipline: per (thread, object), every committed send must
    // have signalled `not_empty` and every receive `not_full`. Extra
    // notifies are fine; missing ones are lost wakeups.
    for ((tid, obj), c) in &counts {
        if c.sends > c.notify_not_empty {
            findings.push(AuditFinding::MissedWake {
                tid: *tid,
                obj: obj.clone(),
                cv: "not_empty",
                commits: c.sends,
                notifies: c.notify_not_empty,
            });
        }
        if c.recvs > c.notify_not_full {
            findings.push(AuditFinding::MissedWake {
                tid: *tid,
                obj: obj.clone(),
                cv: "not_full",
                commits: c.recvs,
                notifies: c.notify_not_full,
            });
        }
    }

    // Lock-order graph: a cycle means two threads can each hold one
    // lock of the cycle while waiting for the next — deadlock
    // potential even if this run got lucky.
    if let Some(cycle) = find_cycle(&lock_edges) {
        findings.push(AuditFinding::LockCycle { cycle });
    }

    let objects: BTreeSet<&str> = events
        .iter()
        .filter(|e| !matches!(e.op, SyncOp::Gauge { .. } | SyncOp::Redispatch { .. }))
        .map(|e| e.obj.as_str())
        .collect();
    AuditReport {
        findings,
        stats: AuditStats {
            events: events.len(),
            threads,
            objects: objects.len(),
            batches: batches.len(),
        },
    }
}

/// Finds one cycle in the lock-order graph, as the list of locks along
/// it (first lock repeated at the end), or `None` when acyclic.
fn find_cycle(edges: &BTreeMap<(String, String), u64>) -> Option<Vec<String>> {
    let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adjacency
            .entry(from.as_str())
            .or_default()
            .push(to.as_str());
    }
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adjacency.keys() {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path stack for cycle recovery.
        let mut path: Vec<&str> = Vec::new();
        let mut frontier: Vec<(usize, &str)> = vec![(0, start)];
        while let Some((depth, node)) = frontier.pop() {
            path.truncate(depth);
            if let Some(pos) = path.iter().position(|&p| p == node) {
                let mut cycle: Vec<String> = path[pos..].iter().map(ToString::to_string).collect();
                cycle.push(node.to_string());
                return Some(cycle);
            }
            if done.contains(node) {
                continue;
            }
            path.push(node);
            if path.len() > edges.len() + 1 {
                continue;
            }
            let next: Vec<&str> = adjacency.get(node).cloned().unwrap_or_default();
            if next.is_empty() {
                done.insert(node);
                continue;
            }
            for n in next {
                frontier.push((depth + 1, n));
            }
        }
        done.insert(start);
    }
    None
}

/// Greedily shrinks a flagged event stream to a small window that still
/// produces a finding of `kind` — the auditor's counterexample
/// minimization. Deletes progressively smaller chunks, keeping each
/// deletion only when a re-analysis confirms the finding survives;
/// `budget` bounds the number of re-analyses.
#[must_use]
pub fn minimize_events(
    events: &[SyncEvent],
    spec: &AuditSpec,
    kind: &str,
    budget: usize,
) -> Vec<SyncEvent> {
    let still_fails = |candidate: &[SyncEvent]| {
        analyze(candidate, spec)
            .findings
            .iter()
            .any(|f| f.kind() == kind)
    };
    if !still_fails(events) {
        return events.to_vec();
    }
    let mut current = events.to_vec();
    let mut spent = 0usize;
    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 && spent < budget {
        let mut shrunk = false;
        let mut start = 0;
        while start < current.len() && spent < budget {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            spent += 1;
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                shrunk = true;
                // Re-try the same window position against the shrunk
                // stream.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        chunk = if chunk == 1 { 1 } else { chunk / 2 };
        if chunk == 1 && shrunk {
            // One more unit-granularity pass after a successful round.
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_dataflow::SyncOp as Op;

    /// Builder for synthetic streams: seq is the index.
    fn stream(events: Vec<(u32, &str, Op)>) -> Vec<SyncEvent> {
        events
            .into_iter()
            .enumerate()
            .map(|(seq, (tid, obj, op))| SyncEvent {
                seq: seq as u64,
                tid,
                obj: obj.to_string(),
                op,
            })
            .collect()
    }

    fn kinds(report: &AuditReport) -> Vec<&'static str> {
        report.findings.iter().map(AuditFinding::kind).collect()
    }

    /// A clean handoff: worker 1 sends under the guard, main receives,
    /// everything notified and ordered through the queue mutex.
    fn clean_handoff() -> Vec<SyncEvent> {
        stream(vec![
            (1, "liveness", Op::LockAcquire),
            (1, "q", Op::LockAcquire),
            (1, "q", Op::SendCommit { batch: Some(7) }),
            (1, "q", Op::LockRelease),
            (1, "liveness", Op::LockRelease),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
            (0, "q", Op::LockAcquire),
            (0, "q", Op::RecvCommit { batch: Some(7) }),
            (0, "q", Op::LockRelease),
            (
                0,
                "q",
                Op::Notify {
                    cv: CvKind::NotFull,
                },
            ),
        ])
    }

    fn gated_spec() -> AuditSpec {
        AuditSpec {
            gated_sends: vec![("q".to_string(), "liveness".to_string())],
        }
    }

    #[test]
    fn clean_stream_passes() {
        let report = analyze(&clean_handoff(), &gated_spec());
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
        assert_eq!(report.stats.threads, 2);
        assert_eq!(report.stats.batches, 1);
    }

    #[test]
    fn missed_wake_is_flagged() {
        let mut events = clean_handoff();
        // Drop the producer's notify.
        events.retain(|e| {
            !(e.tid == 1
                && matches!(
                    e.op,
                    Op::Notify {
                        cv: CvKind::NotEmpty
                    }
                ))
        });
        let report = analyze(&events, &gated_spec());
        assert!(
            kinds(&report).contains(&"missed-wake"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn ungated_commit_is_flagged() {
        let events = stream(vec![
            // The liveness check happened, but the lock was dropped
            // before the push.
            (1, "liveness", Op::LockAcquire),
            (1, "liveness", Op::LockRelease),
            (1, "q", Op::LockAcquire),
            (1, "q", Op::SendCommit { batch: Some(3) }),
            (1, "q", Op::LockRelease),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
        ]);
        let report = analyze(&events, &gated_spec());
        assert!(
            kinds(&report).contains(&"ungated-commit"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn wait_without_recheck_is_flagged() {
        let events = stream(vec![
            (0, "q", Op::LockAcquire),
            (
                0,
                "q",
                Op::WaitStart {
                    cv: CvKind::NotEmpty,
                },
            ),
            (
                0,
                "q",
                Op::WaitReturn {
                    cv: CvKind::NotEmpty,
                    satisfied: false,
                },
            ),
            // Committing anyway: "if" where "while" belongs.
            (0, "q", Op::RecvCommit { batch: None }),
            (0, "q", Op::LockRelease),
            (
                0,
                "q",
                Op::Notify {
                    cv: CvKind::NotFull,
                },
            ),
        ]);
        let report = analyze(&events, &AuditSpec::default());
        assert!(
            kinds(&report).contains(&"wait-without-recheck"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn satisfied_wait_then_commit_is_clean() {
        let events = stream(vec![
            (0, "q", Op::LockAcquire),
            (
                0,
                "q",
                Op::WaitStart {
                    cv: CvKind::NotEmpty,
                },
            ),
            (
                0,
                "q",
                Op::WaitReturn {
                    cv: CvKind::NotEmpty,
                    satisfied: true,
                },
            ),
            (0, "q", Op::RecvCommit { batch: None }),
            (0, "q", Op::LockRelease),
            (
                0,
                "q",
                Op::Notify {
                    cv: CvKind::NotFull,
                },
            ),
        ]);
        assert!(analyze(&events, &AuditSpec::default()).clean());
    }

    #[test]
    fn unordered_produce_consume_is_flagged() {
        // A handoff ordered through the queue mutex is clean: the
        // consumer's acquire joins the producer's release.
        let ordered = stream(vec![
            (1, "a", Op::LockAcquire),
            (1, "a", Op::SendCommit { batch: Some(4) }),
            (1, "a", Op::LockRelease),
            (
                1,
                "a",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
            (0, "a", Op::LockAcquire),
            (0, "a", Op::RecvCommit { batch: Some(4) }),
            (0, "a", Op::LockRelease),
            (
                0,
                "a",
                Op::Notify {
                    cv: CvKind::NotFull,
                },
            ),
        ]);
        let report = analyze(&ordered, &AuditSpec::default());
        assert!(report.clean(), "{:?}", report.findings);

        // A genuinely racing pair: the consumer already holds "a" (its
        // clock never joins the producer's release of "a2" before the
        // receive), so send and receive are concurrent — the payload
        // handoff is unsynchronized.
        let racing = stream(vec![
            (0, "a", Op::LockAcquire),
            (1, "a2", Op::LockAcquire),
            (1, "a2", Op::SendCommit { batch: Some(4) }),
            (0, "a2", Op::LockAcquire),
            (0, "a2", Op::RecvCommit { batch: Some(4) }),
            (0, "a2", Op::LockRelease),
            (0, "a", Op::LockRelease),
            (1, "a2", Op::LockRelease),
        ]);
        let report = analyze(&racing, &AuditSpec::default());
        assert!(
            kinds(&report).contains(&"unordered-produce-consume"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn duplicate_produce_and_phantom_consume_are_flagged() {
        let events = stream(vec![
            (1, "q", Op::LockAcquire),
            (1, "q", Op::SendCommit { batch: Some(2) }),
            (1, "q", Op::SendCommit { batch: Some(2) }),
            (1, "q", Op::RecvCommit { batch: Some(5) }),
            (1, "q", Op::LockRelease),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotFull,
                },
            ),
        ]);
        let report = analyze(&events, &AuditSpec::default());
        let ks = kinds(&report);
        assert!(ks.contains(&"duplicate-produce"), "{:?}", report.findings);
        assert!(ks.contains(&"phantom-consume"), "{:?}", report.findings);
    }

    #[test]
    fn redispatch_requires_an_ordered_death() {
        let orphaned = stream(vec![
            (0, "liveness", Op::LockAcquire),
            (0, "liveness", Op::MarkDead { worker: 1 }),
            (0, "liveness", Op::LockRelease),
            (0, "dispatcher", Op::Redispatch { batch: 3, from: 1 }),
        ]);
        assert!(analyze(&orphaned, &AuditSpec::default()).clean());

        let premature = stream(vec![(
            0,
            "dispatcher",
            Op::Redispatch { batch: 3, from: 1 },
        )]);
        let report = analyze(&premature, &AuditSpec::default());
        assert!(
            kinds(&report).contains(&"redispatch-before-death"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn concurrent_gauge_writes_are_flagged() {
        let events = stream(vec![
            (0, "depth", Op::Gauge { value: 1.0 }),
            (1, "depth", Op::Gauge { value: 2.0 }),
        ]);
        let report = analyze(&events, &AuditSpec::default());
        assert!(
            kinds(&report).contains(&"unordered-gauges"),
            "{:?}",
            report.findings
        );

        // The same two writes sampled inside a shared critical section
        // are ordered and clean.
        let serialized = stream(vec![
            (0, "q", Op::LockAcquire),
            (0, "depth", Op::Gauge { value: 1.0 }),
            (0, "q", Op::LockRelease),
            (1, "q", Op::LockAcquire),
            (1, "depth", Op::Gauge { value: 2.0 }),
            (1, "q", Op::LockRelease),
        ]);
        assert!(analyze(&serialized, &AuditSpec::default()).clean());
    }

    #[test]
    fn lock_order_cycle_is_flagged() {
        let events = stream(vec![
            (0, "x", Op::LockAcquire),
            (0, "y", Op::LockAcquire),
            (0, "y", Op::LockRelease),
            (0, "x", Op::LockRelease),
            (1, "y", Op::LockAcquire),
            (1, "x", Op::LockAcquire),
            (1, "x", Op::LockRelease),
            (1, "y", Op::LockRelease),
        ]);
        let report = analyze(&events, &AuditSpec::default());
        let cycle = report
            .findings
            .iter()
            .find(|f| f.kind() == "lock-cycle")
            .unwrap_or_else(|| panic!("no cycle in {:?}", report.findings));
        if let AuditFinding::LockCycle { cycle } = cycle {
            assert!(cycle.len() >= 3, "degenerate cycle {cycle:?}");
        }
    }

    #[test]
    fn unpaired_locks_are_flagged() {
        let double_acquire = stream(vec![(0, "x", Op::LockAcquire), (0, "x", Op::LockAcquire)]);
        assert!(kinds(&analyze(&double_acquire, &AuditSpec::default())).contains(&"unpaired-lock"));

        let free_release = stream(vec![(0, "x", Op::LockRelease)]);
        assert!(kinds(&analyze(&free_release, &AuditSpec::default())).contains(&"unpaired-lock"));

        let naked_commit = stream(vec![(0, "x", Op::SendCommit { batch: None })]);
        assert!(kinds(&analyze(&naked_commit, &AuditSpec::default())).contains(&"unpaired-lock"));
    }

    #[test]
    fn minimization_shrinks_to_the_offending_window() {
        // A long clean prefix followed by one ungated commit.
        let mut raw: Vec<(u32, &str, Op)> = Vec::new();
        for _ in 0..20 {
            raw.extend(vec![
                (1, "liveness", Op::LockAcquire),
                (1, "q", Op::LockAcquire),
                (1, "q", Op::SendCommit { batch: None }),
                (1, "q", Op::LockRelease),
                (1, "liveness", Op::LockRelease),
                (
                    1,
                    "q",
                    Op::Notify {
                        cv: CvKind::NotEmpty,
                    },
                ),
            ]);
        }
        raw.extend(vec![
            (1, "q", Op::LockAcquire),
            (1, "q", Op::SendCommit { batch: Some(99) }),
            (1, "q", Op::LockRelease),
            (
                1,
                "q",
                Op::Notify {
                    cv: CvKind::NotEmpty,
                },
            ),
        ]);
        let events = stream(raw);
        let spec = gated_spec();
        let total = events.len();
        let minimized = minimize_events(&events, &spec, "ungated-commit", 512);
        assert!(
            minimized.len() < total / 4,
            "minimization barely shrank: {} of {total}",
            minimized.len()
        );
        assert!(analyze(&minimized, &spec)
            .findings
            .iter()
            .any(|f| f.kind() == "ungated-commit"));
    }
}
