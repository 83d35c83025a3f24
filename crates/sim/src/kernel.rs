//! The simulation kernel: event queue, process table and the scheduler
//! that polls processes.
//!
//! Every simulated process is a future, and the kernel polls them all on
//! the thread that called [`crate::Simulation::run`]. It polls **exactly
//! one process at a time**: the process runs until it blocks (on a delay
//! or a queue), which marks it blocked, schedules or registers its wake,
//! and returns `Pending` up to the scheduler. Events at equal virtual
//! time are ordered by a monotonically increasing sequence number, so a
//! run is fully deterministic.
//!
//! Processes are polled with a no-op waker: a process is polled again
//! only when the scheduler pops one of its wake events, so the waker has
//! nothing to do.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::control::{Choice, DecisionPoint, ScheduleController};
use crate::error::{BlockedProcess, SimError};
use crate::time::Time;

/// Identifier of a simulated process within one [`crate::Simulation`].
///
/// `Pid`s are dense indices assigned in spawn order; they are stable for the
/// lifetime of the simulation and suitable for use as map keys or display in
/// logs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// The dense index of this process (spawn order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A simulated process's body.
pub(crate) type Process = Pin<Box<dyn Future<Output = ()>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Blocked waiting for a wake event; the label describes what on.
    Blocked(&'static str),
    Running,
    Finished,
}

pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) state: ProcState,
    /// The process's future; taken out while it is polled, and dropped
    /// once it finishes.
    body: Option<Process>,
    /// Incremented each time the process blocks; wake events carry the
    /// generation they target so stale events are skipped.
    pub(crate) wake_gen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: Time,
    seq: u64,
    pid: Pid,
    gen: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct KernelState {
    pub(crate) now: Time,
    next_seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    pub(crate) procs: Vec<ProcSlot>,
    /// The process being polled, if any.
    pub(crate) running: Option<Pid>,
    /// Resolves same-time tie-breaks when installed; `None` keeps the
    /// FIFO (sequence-number) order without the tie-collection overhead.
    pub(crate) controller: Option<Arc<dyn ScheduleController>>,
    /// Scheduler dispatches completed so far.
    pub(crate) steps: u64,
}

impl KernelState {
    /// Registers a new process and schedules its initial wake at the
    /// current virtual time. Returns the new pid.
    pub(crate) fn add_proc(&mut self, name: String, body: Process) -> Pid {
        // A pid space of u32 cannot be exhausted by a real experiment;
        // hitting this means a runaway spawn loop, with no recovery.
        #[allow(clippy::expect_used)]
        let pid = Pid(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcSlot {
            name,
            state: ProcState::Blocked("spawn"),
            body: Some(body),
            wake_gen: 0,
        });
        let now = self.now;
        self.schedule_wake_at(pid, now);
        pid
    }

    /// The process being polled.
    ///
    /// # Panics
    ///
    /// Panics when no process is: a [`crate::Ctx`] was used outside the
    /// process code the kernel polls.
    pub(crate) fn running(&self) -> Pid {
        // Ctx handles exist only inside process bodies, which run only
        // while polled; anything else is a harness bug with no state to
        // recover.
        #[allow(clippy::expect_used)]
        self.running
            .expect("lotus-sim Ctx used outside a running process")
    }

    /// Marks the running process blocked on `label` and bumps its wake
    /// generation, so wake events scheduled after this target it.
    fn block_running(&mut self, label: &'static str) -> Pid {
        let pid = self.running();
        let slot = &mut self.procs[pid.index()];
        debug_assert_eq!(
            slot.state,
            ProcState::Running,
            "only a running process can block"
        );
        slot.state = ProcState::Blocked(label);
        slot.wake_gen += 1;
        pid
    }

    /// Schedules a wake event for `pid` at time `at`, targeting its current
    /// wake generation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn schedule_wake_at(&mut self, pid: Pid, at: Time) {
        assert!(at >= self.now, "cannot schedule a wake in the past");
        let gen = self.procs[pid.index()].wake_gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event {
            time: at,
            seq,
            pid,
            gen,
        }));
    }

    /// Schedules a wake for `pid` at the current virtual time.
    pub(crate) fn wake_now(&mut self, pid: Pid) {
        let now = self.now;
        self.schedule_wake_at(pid, now);
    }

    fn is_stale(&self, ev: &Event) -> bool {
        let slot = &self.procs[ev.pid.index()];
        slot.wake_gen != ev.gen || !matches!(slot.state, ProcState::Blocked(_))
    }

    fn pop_runnable(&mut self) -> Option<Event> {
        let Some(controller) = self.controller.clone() else {
            while let Some(Reverse(ev)) = self.events.pop() {
                if !self.is_stale(&ev) {
                    return Some(ev);
                }
            }
            return None;
        };
        // Controlled: gather every runnable event tied at the earliest
        // ready time and let the controller break the tie. Unchosen events
        // go back with their original sequence numbers, so a controller
        // that always picks index 0 reproduces the FIFO order exactly.
        let mut ready: Vec<Event> = Vec::new();
        while let Some(Reverse(head)) = self.events.peek() {
            if ready.first().is_some_and(|first| head.time != first.time) {
                break;
            }
            let Some(Reverse(ev)) = self.events.pop() else {
                break; // unreachable: the peek above saw this event
            };
            if !self.is_stale(&ev) {
                ready.push(ev);
            }
        }
        if ready.is_empty() {
            return None;
        }
        let chosen = if ready.len() == 1 {
            0
        } else {
            let choices: Vec<Choice> = ready
                .iter()
                .map(|ev| Choice {
                    pid: ev.pid,
                    process: self.procs[ev.pid.index()].name.clone(),
                })
                .collect();
            let point = DecisionPoint {
                now: ready[0].time,
                step: self.steps,
                state_hash: self.state_hash(&ready),
                choices: &choices,
            };
            controller.pick(&point).min(ready.len() - 1)
        };
        let ev = ready.remove(chosen);
        for other in ready {
            self.events.push(Reverse(other));
        }
        Some(ev)
    }

    /// Structural FNV-1a hash of the schedulable state: process states,
    /// wake generations and the pending wake set. Event sequence numbers
    /// are deliberately excluded so that two different schedules which
    /// converge on the same semantic state hash equal (enabling explorer
    /// pruning); collisions only cost pruning precision, never soundness
    /// of a reported violation.
    fn state_hash(&self, ready: &[Event]) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn mix_bytes(&mut self, bytes: &[u8]) {
                for &byte in bytes {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn mix(&mut self, value: u64) {
                self.mix_bytes(&value.to_le_bytes());
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(ready[0].time.as_nanos());
        for slot in &self.procs {
            let state_tag = match slot.state {
                ProcState::Blocked(label) => {
                    // Hash the label content: it encodes *what* the
                    // process is waiting on.
                    h.mix_bytes(label.as_bytes());
                    1
                }
                ProcState::Running => 2,
                ProcState::Finished => 3,
            };
            h.mix(state_tag);
            h.mix(slot.wake_gen);
        }
        let mut pending: Vec<(u64, u32, u64)> = self
            .events
            .iter()
            .map(|Reverse(ev)| (ev.time.as_nanos(), ev.pid.0, ev.gen))
            .collect();
        pending.extend(
            ready
                .iter()
                .map(|ev| (ev.time.as_nanos(), ev.pid.0, ev.gen)),
        );
        pending.sort_unstable();
        for (time, pid, gen) in pending {
            h.mix(time);
            h.mix(u64::from(pid));
            h.mix(gen);
        }
        h.0
    }

    fn blocked_report(&self) -> Vec<BlockedProcess> {
        self.procs
            .iter()
            .filter_map(|p| match p.state {
                ProcState::Blocked(label) => Some(BlockedProcess {
                    name: p.name.clone(),
                    waiting_on: label.to_string(),
                }),
                _ => None,
            })
            .collect()
    }
}

pub(crate) struct Kernel {
    pub(crate) state: RefCell<KernelState>,
}

impl Kernel {
    pub(crate) fn new() -> Kernel {
        Kernel {
            state: RefCell::new(KernelState {
                now: Time::ZERO,
                next_seq: 0,
                events: BinaryHeap::new(),
                procs: Vec::new(),
                running: None,
                controller: None,
                steps: 0,
            }),
        }
    }

    /// Blocks the running process on `label`: its first poll marks it
    /// blocked, lets `prepare` schedule or register its wake under the
    /// kernel state, and yields to the scheduler; the poll after that
    /// wake completes it.
    pub(crate) async fn park(
        &self,
        label: &'static str,
        prepare: impl FnOnce(&mut KernelState, Pid),
    ) {
        let mut prepare = Some(prepare);
        std::future::poll_fn(|_| match prepare.take() {
            Some(prepare) => {
                let mut st = self.state.borrow_mut();
                let pid = st.block_running(label);
                prepare(&mut st, pid);
                Poll::Pending
            }
            None => Poll::Ready(()),
        })
        .await;
    }

    /// Polls processes in event order until all of them finish.
    pub(crate) fn run_scheduler(&self) -> Result<(), SimError> {
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let (pid, mut body) = {
                let mut st = self.state.borrow_mut();
                let Some(ev) = st.pop_runnable() else {
                    let blocked = st.blocked_report();
                    if blocked.is_empty() {
                        return Ok(());
                    }
                    return Err(SimError::Deadlock { blocked });
                };
                st.steps += 1;
                if let Some(controller) = st.controller.clone() {
                    if !controller.on_step(st.steps) {
                        return Err(SimError::StepLimit { steps: st.steps });
                    }
                }
                st.now = ev.time;
                st.running = Some(ev.pid);
                let slot = &mut st.procs[ev.pid.index()];
                slot.state = ProcState::Running;
                let Some(body) = slot.body.take() else {
                    continue; // unreachable: only finished processes lack a body
                };
                (ev.pid, body)
            };
            // Polled with no kernel state borrowed: the process borrows it
            // itself to block, spawn or wake others.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(&mut cx)));
            let mut st = self.state.borrow_mut();
            st.running = None;
            let slot = &mut st.procs[pid.index()];
            let panic_message = match outcome {
                Ok(Poll::Pending) if slot.state != ProcState::Running => {
                    slot.body = Some(body);
                    continue;
                }
                Ok(Poll::Pending) => {
                    Some("awaited a future that lotus-sim does not drive".to_string())
                }
                Ok(Poll::Ready(())) => None,
                Err(payload) => Some(render_panic(&*payload)),
            };
            slot.state = ProcState::Finished;
            let process = slot.name.clone();
            drop(st);
            // Dropped outside the borrow: its locals may wake others.
            drop(body);
            if let Some(message) = panic_message {
                return Err(SimError::ProcessPanic { process, message });
            }
        }
    }

    /// Takes every unfinished process's future out of the table, so the
    /// caller can drop them with no kernel state borrowed.
    pub(crate) fn take_bodies(&self) -> Vec<Process> {
        let mut st = self.state.borrow_mut();
        st.procs.iter_mut().filter_map(|p| p.body.take()).collect()
    }
}

fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
