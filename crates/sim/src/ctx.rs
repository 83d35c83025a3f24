//! The handle a simulated process uses to interact with the simulation.

use std::sync::Arc;

use crate::kernel::{Baton, Kernel, KernelState, Pid};
use crate::time::{Span, Time};

/// Capability handle passed to every simulated process.
///
/// A `Ctx` identifies the calling process and gives it access to the virtual
/// clock, timed delays and dynamic process spawning. Queue and resource
/// operations ([`crate::Queue`], [`crate::CorePool`]) also take a `&Ctx` so
/// they can block the right process.
///
/// ```
/// use lotus_sim::{Simulation, Span};
///
/// let mut sim = Simulation::new();
/// sim.spawn("ticker", |ctx| {
///     ctx.delay(Span::from_millis(5));
///     assert_eq!(ctx.now().as_nanos(), 5_000_000);
/// });
/// sim.run().unwrap();
/// ```
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: Pid,
    baton: Arc<Baton>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).finish()
    }
}

impl Ctx {
    pub(crate) fn new(kernel: Arc<Kernel>, pid: Pid, baton: Arc<Baton>) -> Ctx {
        Ctx { kernel, pid, baton }
    }

    /// The calling process's identifier.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The name this process was spawned with.
    #[must_use]
    pub fn name(&self) -> String {
        let st = crate::locked(&self.kernel.state);
        st.procs[self.pid.index()].name.clone()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        crate::locked(&self.kernel.state).now
    }

    /// Advances this process's virtual time by `span`, letting other
    /// processes run in the meantime. A zero-length delay yields to any
    /// other process scheduled at the same instant.
    pub fn delay(&self, span: Span) {
        let pid = self.pid;
        self.kernel
            .park(pid, &self.baton, "delay", |st: &mut KernelState| {
                let at = st.now + span;
                st.schedule_wake_at(pid, at);
            });
    }

    /// Spawns a new process that starts at the current virtual time.
    /// Returns its [`Pid`].
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        crate::sim::spawn_process(&self.kernel, name.into(), body)
    }

    /// Creates a queue bound to this process's simulation — what
    /// [`crate::Simulation::queue`] does from outside it.
    #[must_use]
    pub fn queue<T: Send + 'static>(
        &self,
        name: impl Into<String>,
        capacity: Option<usize>,
    ) -> crate::Queue<T> {
        crate::Queue::new(Arc::clone(&self.kernel), name.into(), capacity)
    }

    /// Parks this process; see [`Kernel::park`].
    pub(crate) fn park<F>(&self, label: &'static str, prepare: F)
    where
        F: FnOnce(&mut KernelState),
    {
        self.kernel.park(self.pid, &self.baton, label, prepare);
    }
}
