//! The safety-invariant catalog: a state machine replaying an observed
//! [`TraceEvent`] sequence against the DataLoader protocol's safety
//! contract.
//!
//! The catalog (documented in `DESIGN.md`) checks, per run:
//!
//! * **Sample conservation** — every sample index is dispatched in exactly
//!   one fresh batch, every batch is delivered and consumed exactly once,
//!   and on a completed run the consumed set is exactly `0..expected`.
//! * **Dispatch discipline** — no dispatch to an observed-dead worker, no
//!   second dispatch of a batch still owned by a live worker, no dispatch
//!   after delivery, redispatch only after an observed worker death.
//! * **Bounded buffers** — the shared data queue never exceeds its cap,
//!   the out-of-order pinned cache and the in-flight inventory stay within
//!   `prefetch_factor × num_workers`.
//! * **Progress** — a run that deadlocks or exhausts its step budget with
//!   undelivered batches is flagged as stalled.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use lotus_dataflow::{TraceEvent, DATA_QUEUE_DEPTH_GAUGE, IN_FLIGHT_GAUGE, PINNED_CACHE_GAUGE};

/// Static facts about the configuration under check, against which the
/// invariants are judged.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSpec {
    /// Configured worker count.
    pub num_workers: usize,
    /// Configured prefetch factor (in-flight bound is
    /// `prefetch_factor * num_workers`).
    pub prefetch_factor: usize,
    /// Data-queue capacity, when bounded.
    pub data_queue_cap: Option<usize>,
    /// Batches the sampler yields per epoch.
    pub expected_batches: u64,
    /// Samples the sampler yields per epoch.
    pub expected_samples: u64,
}

impl ProtocolSpec {
    /// The reorder-buffer / in-flight bound, `prefetch_factor * num_workers`.
    pub fn in_flight_bound(&self) -> usize {
        self.prefetch_factor * self.num_workers
    }
}

/// How the run under check terminated. Completed runs get the full
/// conservation accounting; expected-failure endings (a shipped sample
/// error, every worker killed) get safety-prefix checks only; deadlock and
/// step-limit endings are progress violations when work was pending.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEnding {
    /// The epoch finished with a [`JobReport`](lotus_dataflow::JobReport).
    Completed {
        /// Batches the report claims were consumed.
        batches: u64,
        /// Samples the report claims were consumed.
        samples: u64,
    },
    /// A worker shipped a sample error and main re-raised it (expected
    /// shutdown under an error-injecting fault plan).
    SampleError,
    /// Every worker died with work outstanding (expected shutdown under a
    /// kill-all fault plan).
    AllWorkersDied,
    /// The kernel reported deadlock.
    Deadlock(String),
    /// The schedule controller's step budget ran out (livelock).
    StepLimit,
    /// A simulated process panicked.
    Panic(String),
}

impl RunEnding {
    fn describe(&self) -> String {
        match self {
            RunEnding::Completed { .. } => "completed".into(),
            RunEnding::SampleError => "sample error".into(),
            RunEnding::AllWorkersDied => "all workers died".into(),
            RunEnding::Deadlock(d) => format!("deadlock: {d}"),
            RunEnding::StepLimit => "step limit (livelock)".into(),
            RunEnding::Panic(m) => format!("panic: {m}"),
        }
    }
}

/// One violated invariant, with enough context to read the counterexample.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A batch was dispatched while a live worker still owned it.
    DoubleDispatch {
        /// The twice-dispatched batch.
        batch_id: u64,
        /// Pid of the live owner at the second dispatch.
        owner_pid: u32,
    },
    /// A batch was dispatched to a worker already observed dead.
    DispatchToDeadWorker {
        /// The dispatched batch.
        batch_id: u64,
        /// Pid of the dead recipient.
        worker_pid: u32,
    },
    /// A batch was dispatched again after it had already been delivered.
    DispatchAfterDelivery {
        /// The re-dispatched batch.
        batch_id: u64,
    },
    /// A sample index appeared in two distinct fresh batches.
    IndexReused {
        /// The reused sample index.
        index: u64,
        /// Batch that first carried it.
        first_batch: u64,
        /// Batch that carried it again.
        second_batch: u64,
    },
    /// A batch was delivered to the main loop twice.
    DoubleDelivery {
        /// The twice-delivered batch.
        batch_id: u64,
    },
    /// A batch was delivered without ever being dispatched.
    PhantomDelivery {
        /// The never-dispatched batch.
        batch_id: u64,
    },
    /// A batch was consumed more than once.
    DuplicateConsume {
        /// The twice-consumed batch.
        batch_id: u64,
    },
    /// A batch was fetched more times than it was dispatched.
    ExtraFetch {
        /// The over-fetched batch.
        batch_id: u64,
        /// Observed fetch count.
        fetches: u32,
        /// Observed dispatch count.
        dispatches: u32,
    },
    /// A batch was redispatched although its owner was never observed dead.
    RedispatchBeforeDeath {
        /// The prematurely redispatched batch.
        batch_id: u64,
        /// The still-live claimed-dead owner.
        from_pid: u32,
    },
    /// The shared data queue exceeded its configured capacity.
    QueueCapExceeded {
        /// Configured cap.
        cap: usize,
        /// Observed depth.
        depth: f64,
    },
    /// The out-of-order pinned cache exceeded
    /// `prefetch_factor * num_workers`.
    ReorderBufferOverflow {
        /// The bound.
        bound: usize,
        /// Observed depth.
        depth: f64,
    },
    /// The dispatched-but-unreturned inventory exceeded
    /// `prefetch_factor * num_workers`.
    InFlightOverflow {
        /// The bound.
        bound: usize,
        /// Observed inventory.
        depth: f64,
    },
    /// A gauge went negative (queue depths can never be below zero).
    NegativeGauge {
        /// Gauge name.
        name: String,
        /// Observed value.
        value: f64,
    },
    /// The run completed but some expected batches were never consumed.
    LostBatches {
        /// Batch ids never consumed.
        missing: Vec<u64>,
    },
    /// The run completed but fresh dispatches did not cover the epoch's
    /// samples exactly once.
    SampleLoss {
        /// Samples the sampler should have dispatched.
        expected: u64,
        /// Distinct samples actually dispatched.
        dispatched: u64,
    },
    /// The run stopped (deadlock or step limit) with undelivered work.
    Stalled {
        /// Batches delivered before the stall.
        delivered: u64,
        /// Batches the epoch owed.
        expected: u64,
        /// The ending that revealed the stall.
        ending: String,
    },
    /// A simulated process panicked.
    ProcessPanicked {
        /// The panic payload.
        message: String,
    },
    /// The job report disagrees with the observed event stream.
    ReportMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A steal handed a batch to a worker already observed dead.
    StealToDeadWorker {
        /// The stolen batch.
        batch_id: u64,
        /// Pid of the dead recipient.
        to_pid: u32,
    },
    /// A steal's source and destination were the same worker.
    SelfSteal {
        /// The "stolen" batch.
        batch_id: u64,
        /// The worker that stole from itself.
        pid: u32,
    },
    /// An adaptive policy resized the prefetch window outside
    /// `[1, prefetch_factor]`.
    PrefetchOutOfRange {
        /// The out-of-range target.
        target: usize,
        /// The configured prefetch factor (upper bound).
        bound: usize,
    },
    /// A batch starved: a later batch in the same worker's FIFO index
    /// queue was preprocessed before it ("no sample starves" progress
    /// discipline — within one worker, batches complete in queue order).
    BatchStarved {
        /// The overtaken (starved) batch at the queue's front.
        batch_id: u64,
        /// The later batch that completed first.
        overtaken_by: u64,
        /// Pid of the worker whose queue order was violated.
        worker_pid: u32,
    },
    /// The happens-before auditor flagged the run's synchronization-event
    /// stream (`lotus audit`; see `check::audit`).
    SyncAudit {
        /// The rendered [`AuditFinding`](crate::check::audit::AuditFinding).
        finding: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DoubleDispatch { batch_id, owner_pid } => write!(
                f,
                "double dispatch: batch {batch_id} re-sent while live worker {owner_pid} still owns it"
            ),
            Violation::DispatchToDeadWorker { batch_id, worker_pid } => write!(
                f,
                "dispatch to dead worker: batch {batch_id} sent to worker {worker_pid} after its death was observed"
            ),
            Violation::DispatchAfterDelivery { batch_id } => write!(
                f,
                "dispatch after delivery: batch {batch_id} re-sent after main already received it"
            ),
            Violation::IndexReused { index, first_batch, second_batch } => write!(
                f,
                "sample conservation: index {index} dispatched in fresh batches {first_batch} and {second_batch}"
            ),
            Violation::DoubleDelivery { batch_id } => {
                write!(f, "double delivery: batch {batch_id} handed to the main loop twice")
            }
            Violation::PhantomDelivery { batch_id } => {
                write!(f, "phantom delivery: batch {batch_id} delivered but never dispatched")
            }
            Violation::DuplicateConsume { batch_id } => {
                write!(f, "duplicate consume: batch {batch_id} consumed more than once")
            }
            Violation::ExtraFetch { batch_id, fetches, dispatches } => write!(
                f,
                "extra fetch: batch {batch_id} preprocessed {fetches}x but dispatched only {dispatches}x"
            ),
            Violation::RedispatchBeforeDeath { batch_id, from_pid } => write!(
                f,
                "premature redispatch: batch {batch_id} re-sent from worker {from_pid} before any observed death"
            ),
            Violation::QueueCapExceeded { cap, depth } => {
                write!(f, "data queue over cap: depth {depth} > cap {cap}")
            }
            Violation::ReorderBufferOverflow { bound, depth } => write!(
                f,
                "reorder buffer overflow: pinned cache {depth} > prefetch_factor*num_workers = {bound}"
            ),
            Violation::InFlightOverflow { bound, depth } => write!(
                f,
                "in-flight overflow: {depth} dispatched-unreturned batches > prefetch_factor*num_workers = {bound}"
            ),
            Violation::NegativeGauge { name, value } => {
                write!(f, "negative gauge: {name} = {value}")
            }
            Violation::LostBatches { missing } => write!(
                f,
                "lost batches: run completed but {} batch(es) never consumed: {missing:?}",
                missing.len()
            ),
            Violation::SampleLoss { expected, dispatched } => write!(
                f,
                "sample loss: {dispatched} distinct samples dispatched, epoch owes {expected}"
            ),
            Violation::Stalled { delivered, expected, ending } => write!(
                f,
                "no progress: stopped ({ending}) with {delivered}/{expected} batches delivered"
            ),
            Violation::ProcessPanicked { message } => {
                write!(f, "process panicked: {message}")
            }
            Violation::ReportMismatch { detail } => {
                write!(f, "report mismatch: {detail}")
            }
            Violation::StealToDeadWorker { batch_id, to_pid } => write!(
                f,
                "steal to dead worker: batch {batch_id} stolen onto worker {to_pid} after its death was observed"
            ),
            Violation::SelfSteal { batch_id, pid } => write!(
                f,
                "self steal: batch {batch_id} 'stolen' from worker {pid} to itself"
            ),
            Violation::PrefetchOutOfRange { target, bound } => write!(
                f,
                "prefetch resize out of range: target {target} outside [1, {bound}]"
            ),
            Violation::BatchStarved { batch_id, overtaken_by, worker_pid } => write!(
                f,
                "batch starved: batch {batch_id} at the front of worker {worker_pid}'s queue was overtaken by batch {overtaken_by}"
            ),
            Violation::SyncAudit { finding } => {
                write!(f, "sync audit: {finding}")
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum BatchState {
    InFlight(u32),
    Returned,
}

/// Replays `events` against the invariant catalog and returns every
/// violation found, in discovery order. An empty vector means the run
/// upheld the protocol contract.
pub fn verify(
    spec: &ProtocolSpec,
    events: &[TraceEvent<'_>],
    ending: &RunEnding,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut state: HashMap<u64, BatchState> = HashMap::new();
    let mut dead: BTreeSet<u32> = BTreeSet::new();
    let mut index_owner: HashMap<u64, u64> = HashMap::new();
    let mut dispatches: HashMap<u64, u32> = HashMap::new();
    let mut fetches: HashMap<u64, u32> = HashMap::new();
    let mut consumed: BTreeMap<u64, u32> = BTreeMap::new();
    let mut delivered: BTreeSet<u64> = BTreeSet::new();
    // Per-worker dispatch FIFO for the "no sample starves" discipline:
    // within one worker's index queue, batches finish in dispatch order.
    let mut pending: HashMap<u32, std::collections::VecDeque<u64>> = HashMap::new();
    let in_flight_bound = spec.in_flight_bound();

    for event in events {
        match event {
            TraceEvent::Dispatched {
                batch_id,
                to_pid: worker_pid,
                indices,
                redispatch,
                ..
            } => {
                if dead.contains(worker_pid) {
                    violations.push(Violation::DispatchToDeadWorker {
                        batch_id: *batch_id,
                        worker_pid: *worker_pid,
                    });
                }
                match state.get(batch_id) {
                    // A second dispatch is legitimate only as a
                    // redispatch of a dead owner's orphan.
                    Some(BatchState::InFlight(owner)) if !redispatch || !dead.contains(owner) => {
                        violations.push(Violation::DoubleDispatch {
                            batch_id: *batch_id,
                            owner_pid: *owner,
                        });
                    }
                    Some(BatchState::InFlight(_)) => {}
                    Some(BatchState::Returned) => {
                        violations.push(Violation::DispatchAfterDelivery {
                            batch_id: *batch_id,
                        });
                    }
                    None => {}
                }
                state.insert(*batch_id, BatchState::InFlight(*worker_pid));
                *dispatches.entry(*batch_id).or_insert(0) += 1;
                // A redispatched orphan leaves its old FIFO position;
                // either way the batch joins its new owner's queue tail.
                if *redispatch {
                    for queue in pending.values_mut() {
                        queue.retain(|&id| id != *batch_id);
                    }
                }
                pending.entry(*worker_pid).or_default().push_back(*batch_id);
                if !redispatch {
                    for &idx in indices.iter() {
                        if let Some(prev) = index_owner.insert(idx, *batch_id) {
                            if prev != *batch_id {
                                violations.push(Violation::IndexReused {
                                    index: idx,
                                    first_batch: prev,
                                    second_batch: *batch_id,
                                });
                            }
                        }
                    }
                }
            }
            TraceEvent::BatchPreprocessed {
                batch_id,
                pid: worker_pid,
                ..
            } => {
                let f = fetches.entry(*batch_id).or_insert(0);
                *f += 1;
                let d = dispatches.get(batch_id).copied().unwrap_or(0);
                if *f > d {
                    violations.push(Violation::ExtraFetch {
                        batch_id: *batch_id,
                        fetches: *f,
                        dispatches: d,
                    });
                }
                // "No sample starves": a worker drains its index queue in
                // FIFO order, so a completed batch must have been the
                // front of its worker's pending list.
                if let Some(queue) = pending.get_mut(worker_pid) {
                    if let Some(pos) = queue.iter().position(|&id| id == *batch_id) {
                        if pos != 0 {
                            violations.push(Violation::BatchStarved {
                                batch_id: queue[0],
                                overtaken_by: *batch_id,
                                worker_pid: *worker_pid,
                            });
                        }
                        queue.remove(pos);
                    }
                }
            }
            TraceEvent::BatchWait { batch_id, .. } => {
                match state.get(batch_id) {
                    Some(BatchState::InFlight(_)) => {
                        state.insert(*batch_id, BatchState::Returned);
                    }
                    Some(BatchState::Returned) => {
                        violations.push(Violation::DoubleDelivery {
                            batch_id: *batch_id,
                        });
                    }
                    None => {
                        violations.push(Violation::PhantomDelivery {
                            batch_id: *batch_id,
                        });
                    }
                }
                delivered.insert(*batch_id);
            }
            TraceEvent::BatchConsumed { batch_id, .. } => {
                let c = consumed.entry(*batch_id).or_insert(0);
                *c += 1;
                if *c == 2 {
                    violations.push(Violation::DuplicateConsume {
                        batch_id: *batch_id,
                    });
                }
            }
            TraceEvent::WorkerDied { pid, .. } => {
                dead.insert(*pid);
                // Its undone work becomes orphans; FIFO expectations on
                // the dead queue are void.
                pending.remove(pid);
            }
            TraceEvent::BatchRedispatched {
                batch_id, from_pid, ..
            } => {
                if !dead.contains(from_pid) {
                    violations.push(Violation::RedispatchBeforeDeath {
                        batch_id: *batch_id,
                        from_pid: *from_pid,
                    });
                }
            }
            TraceEvent::Gauge { name, value, .. } => {
                if *value < 0.0 {
                    violations.push(Violation::NegativeGauge {
                        name: name.to_string(),
                        value: *value,
                    });
                }
                if name == DATA_QUEUE_DEPTH_GAUGE {
                    if let Some(cap) = spec.data_queue_cap {
                        if *value > cap as f64 {
                            violations.push(Violation::QueueCapExceeded { cap, depth: *value });
                        }
                    }
                } else if name == PINNED_CACHE_GAUGE && *value > in_flight_bound as f64 {
                    violations.push(Violation::ReorderBufferOverflow {
                        bound: in_flight_bound,
                        depth: *value,
                    });
                } else if name == IN_FLIGHT_GAUGE && *value > in_flight_bound as f64 {
                    violations.push(Violation::InFlightOverflow {
                        bound: in_flight_bound,
                        depth: *value,
                    });
                }
            }
            TraceEvent::BatchStolen {
                batch_id,
                from_pid,
                to_pid,
                ..
            } => {
                if dead.contains(to_pid) {
                    violations.push(Violation::StealToDeadWorker {
                        batch_id: *batch_id,
                        to_pid: *to_pid,
                    });
                }
                if from_pid == to_pid {
                    violations.push(Violation::SelfSteal {
                        batch_id: *batch_id,
                        pid: *to_pid,
                    });
                }
            }
            TraceEvent::PrefetchResized { target, .. } => {
                if *target == 0 || *target > spec.prefetch_factor {
                    violations.push(Violation::PrefetchOutOfRange {
                        target: *target,
                        bound: spec.prefetch_factor,
                    });
                }
            }
            TraceEvent::Op { .. }
            | TraceEvent::StorageRead { .. }
            | TraceEvent::LaneAssigned { .. }
            | TraceEvent::FaultInjected { .. } => {}
        }
    }

    match ending {
        RunEnding::Completed { batches, samples } => {
            let missing: Vec<u64> = (0..spec.expected_batches)
                .filter(|id| !consumed.contains_key(id))
                .collect();
            if !missing.is_empty() {
                violations.push(Violation::LostBatches { missing });
            }
            let dispatched_samples = index_owner.len() as u64;
            if dispatched_samples != spec.expected_samples {
                violations.push(Violation::SampleLoss {
                    expected: spec.expected_samples,
                    dispatched: dispatched_samples,
                });
            }
            let total_consumed: u64 = consumed.values().map(|&c| u64::from(c)).sum();
            if *batches != total_consumed {
                violations.push(Violation::ReportMismatch {
                    detail: format!(
                        "report claims {batches} batches, trace shows {total_consumed} consumes"
                    ),
                });
            }
            if *samples != spec.expected_samples {
                violations.push(Violation::ReportMismatch {
                    detail: format!(
                        "report claims {samples} samples, epoch owes {}",
                        spec.expected_samples
                    ),
                });
            }
        }
        RunEnding::Deadlock(_) | RunEnding::StepLimit => {
            violations.push(Violation::Stalled {
                delivered: delivered.len() as u64,
                expected: spec.expected_batches,
                ending: ending.describe(),
            });
        }
        RunEnding::Panic(message) => {
            violations.push(Violation::ProcessPanicked {
                message: message.clone(),
            });
        }
        // Expected shutdowns: the safety prefix above is all we can demand.
        RunEnding::SampleError | RunEnding::AllWorkersDied => {}
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_sim::{Span, Time};
    use std::borrow::Cow;

    fn spec() -> ProtocolSpec {
        ProtocolSpec {
            num_workers: 2,
            prefetch_factor: 2,
            data_queue_cap: Some(4),
            expected_batches: 2,
            expected_samples: 4,
        }
    }

    fn dispatch(
        batch_id: u64,
        to_pid: u32,
        indices: &[u64],
        redispatch: bool,
    ) -> TraceEvent<'static> {
        TraceEvent::Dispatched {
            batch_id,
            to_pid,
            indices: Cow::Owned(indices.to_vec()),
            redispatch,
            at: Time::ZERO,
        }
    }

    fn preprocessed(batch_id: u64, pid: u32) -> TraceEvent<'static> {
        TraceEvent::BatchPreprocessed {
            pid,
            batch_id,
            start: Time::ZERO,
            dur: Span::ZERO,
        }
    }

    fn died(pid: u32) -> TraceEvent<'static> {
        TraceEvent::WorkerDied {
            pid,
            at: Time::ZERO,
        }
    }

    fn full_clean_run() -> Vec<TraceEvent<'static>> {
        vec![
            dispatch(0, 4243, &[0, 1], false),
            dispatch(1, 4244, &[2, 3], false),
            preprocessed(0, 4243),
            TraceEvent::BatchWait {
                pid: 4242,
                batch_id: 0,
                start: Time::ZERO,
                dur: Span::ZERO,
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceEvent::BatchConsumed {
                pid: 4242,
                batch_id: 0,
                start: Time::ZERO,
                dur: Span::ZERO,
                batch_len: 2,
            },
            preprocessed(1, 4244),
            TraceEvent::BatchWait {
                pid: 4242,
                batch_id: 1,
                start: Time::ZERO,
                dur: Span::ZERO,
                out_of_order: false,
                queue_delay: Span::ZERO,
            },
            TraceEvent::BatchConsumed {
                pid: 4242,
                batch_id: 1,
                start: Time::ZERO,
                dur: Span::ZERO,
                batch_len: 2,
            },
        ]
    }

    #[test]
    fn clean_run_upholds_every_invariant() {
        let v = verify(
            &spec(),
            &full_clean_run(),
            &RunEnding::Completed {
                batches: 2,
                samples: 4,
            },
        );
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn redispatch_without_death_is_flagged() {
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            TraceEvent::BatchRedispatched {
                batch_id: 0,
                from_pid: 4243,
                to_pid: 4244,
                at: Time::ZERO,
            },
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert_eq!(
            v,
            vec![Violation::RedispatchBeforeDeath {
                batch_id: 0,
                from_pid: 4243
            }]
        );
    }

    #[test]
    fn dispatch_while_live_owner_holds_the_batch_is_flagged() {
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            dispatch(0, 4244, &[0, 1], true),
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.contains(&Violation::DoubleDispatch {
            batch_id: 0,
            owner_pid: 4243
        }));
    }

    #[test]
    fn redispatch_after_observed_death_is_legitimate() {
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            died(4243),
            dispatch(0, 4244, &[0, 1], true),
            TraceEvent::BatchRedispatched {
                batch_id: 0,
                from_pid: 4243,
                to_pid: 4244,
                at: Time::ZERO,
            },
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn lost_batch_surfaces_on_a_stalled_ending() {
        let events = vec![dispatch(0, 4243, &[0, 1], false)];
        let v = verify(&spec(), &events, &RunEnding::StepLimit);
        assert_eq!(
            v,
            vec![Violation::Stalled {
                delivered: 0,
                expected: 2,
                ending: "step limit (livelock)".into()
            }]
        );
    }

    #[test]
    fn index_reuse_and_queue_cap_are_flagged() {
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            dispatch(1, 4244, &[1, 2], false),
            TraceEvent::Gauge {
                name: "queue_depth.data_queue".into(),
                value: 5.0,
                at: Time::ZERO,
            },
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.contains(&Violation::IndexReused {
            index: 1,
            first_batch: 0,
            second_batch: 1
        }));
        assert!(v.contains(&Violation::QueueCapExceeded { cap: 4, depth: 5.0 }));
    }

    #[test]
    fn steal_to_dead_worker_and_self_steal_are_flagged() {
        let events = vec![
            died(4244),
            TraceEvent::BatchStolen {
                batch_id: 0,
                from_pid: 4243,
                to_pid: 4244,
                at: Time::ZERO,
            },
            TraceEvent::BatchStolen {
                batch_id: 1,
                from_pid: 4243,
                to_pid: 4243,
                at: Time::ZERO,
            },
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.contains(&Violation::StealToDeadWorker {
            batch_id: 0,
            to_pid: 4244
        }));
        assert!(v.contains(&Violation::SelfSteal {
            batch_id: 1,
            pid: 4243
        }));
    }

    #[test]
    fn prefetch_resize_outside_bounds_is_flagged() {
        let events = vec![
            TraceEvent::PrefetchResized {
                target: 1,
                at: Time::ZERO,
            },
            TraceEvent::PrefetchResized {
                target: 0,
                at: Time::ZERO,
            },
            TraceEvent::PrefetchResized {
                target: 3,
                at: Time::ZERO,
            },
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert_eq!(
            v,
            vec![
                Violation::PrefetchOutOfRange {
                    target: 0,
                    bound: 2
                },
                Violation::PrefetchOutOfRange {
                    target: 3,
                    bound: 2
                },
            ]
        );
    }

    #[test]
    fn out_of_order_completion_within_one_worker_starves_the_front_batch() {
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            dispatch(1, 4243, &[2, 3], false),
            preprocessed(1, 4243),
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.contains(&Violation::BatchStarved {
            batch_id: 0,
            overtaken_by: 1,
            worker_pid: 4243
        }));
    }

    #[test]
    fn redispatch_resets_the_fifo_position_without_starvation() {
        // Batch 0 goes to worker 4243, which dies; 0 is redispatched
        // behind 1 on worker 4244. Completing 1 before 0 is then legal.
        let events = vec![
            dispatch(0, 4243, &[0, 1], false),
            dispatch(1, 4244, &[2, 3], false),
            died(4243),
            dispatch(0, 4244, &[0, 1], true),
            preprocessed(1, 4244),
            preprocessed(0, 4244),
        ];
        let v = verify(&spec(), &events, &RunEnding::SampleError);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn completed_run_with_unconsumed_batch_is_lost() {
        let mut events = full_clean_run();
        events.retain(|e| !matches!(e, TraceEvent::BatchConsumed { batch_id: 1, .. }));
        let v = verify(
            &spec(),
            &events,
            &RunEnding::Completed {
                batches: 1,
                samples: 4,
            },
        );
        assert!(v.contains(&Violation::LostBatches { missing: vec![1] }));
    }
}
