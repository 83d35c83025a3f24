//! The [`Simulation`] front-end: spawning processes and running the
//! scheduler to completion.

use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;

use crate::control::ScheduleController;
use crate::ctx::Ctx;
use crate::error::SimError;
use crate::kernel::{Kernel, Pid};
use crate::time::Time;

/// A deterministic discrete-event simulation.
///
/// Processes are spawned with [`Simulation::spawn`] (or dynamically with
/// [`Ctx::spawn`]) and communicate over [`crate::Queue`]s; [`Simulation::run`]
/// drives virtual time forward until every process finishes.
///
/// Determinism: exactly one process executes at a time, events at equal
/// virtual time fire in creation order, and no wall-clock values leak in, so
/// two runs of the same program produce identical traces.
///
/// ```
/// use lotus_sim::{Queue, Simulation, Span};
///
/// let mut sim = Simulation::new();
/// let q = sim.queue::<u32>("numbers", Some(1));
/// let tx = q.clone();
/// sim.spawn("producer", move |ctx| async move {
///     for i in 0..3 {
///         ctx.delay(Span::from_micros(10)).await;
///         tx.push(&ctx, i).await;
///     }
/// });
/// sim.spawn("consumer", move |ctx| async move {
///     for expect in 0..3 {
///         assert_eq!(q.pop(&ctx).await, expect);
///     }
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.as_nanos(), 30_000);
/// ```
pub struct Simulation {
    kernel: Rc<Kernel>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.kernel.state.borrow();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("processes", &st.procs.len())
            .finish()
    }
}

/// Summary returned by a successful [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time at which the last process finished.
    pub end_time: Time,
    /// Number of processes that ran over the simulation's lifetime.
    pub processes: usize,
}

impl Simulation {
    /// Creates an empty simulation with the clock at [`Time::ZERO`].
    #[must_use]
    pub fn new() -> Simulation {
        Simulation {
            kernel: Rc::new(Kernel::new()),
        }
    }

    /// Spawns a process that will start at the current virtual time when
    /// [`Simulation::run`] is (next) called. Returns its [`Pid`].
    ///
    /// `body` builds the process's future from its [`Ctx`]; it is called
    /// when the process first runs.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        crate::ctx::spawn(&self.kernel, name.into(), body)
    }

    /// Creates a simulated queue bound to this simulation.
    ///
    /// `capacity` of `None` means unbounded; `Some(n)` blocks pushers when
    /// `n` items are in flight.
    #[must_use]
    pub fn queue<T: 'static>(
        &mut self,
        name: impl Into<String>,
        capacity: Option<usize>,
    ) -> crate::Queue<T> {
        crate::Queue::new(Rc::clone(&self.kernel), name.into(), capacity)
    }

    /// Runs the simulation until every process has finished, polling each
    /// process on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the event queue drains while
    /// processes are still blocked, and [`SimError::ProcessPanic`] if any
    /// simulated process panics.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.kernel.run_scheduler()?;
        let st = self.kernel.state.borrow();
        Ok(RunReport {
            end_time: st.now,
            processes: st.procs.len(),
        })
    }

    /// Current virtual time (useful after [`Simulation::run`] returns).
    #[must_use]
    pub fn now(&self) -> Time {
        self.kernel.state.borrow().now
    }

    /// Installs a [`ScheduleController`] that resolves same-time
    /// tie-breaks and bounds the run's step count. Install before
    /// [`Simulation::run`]; without a controller the kernel keeps its
    /// FIFO (creation-order) tie-break.
    pub fn set_controller(&mut self, controller: Arc<dyn ScheduleController>) {
        self.kernel.state.borrow_mut().controller = Some(controller);
    }

    /// Scheduler dispatches completed so far (a size measure for model
    /// checking reports; useful after [`Simulation::run`] returns).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.kernel.state.borrow().steps
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation::new()
    }
}

impl Drop for Simulation {
    /// Drops every process that has not finished, a blocked one where it
    /// is parked. The futures also hold the kernel, so this breaks that
    /// cycle.
    fn drop(&mut self) {
        drop(self.kernel.take_bodies());
    }
}
