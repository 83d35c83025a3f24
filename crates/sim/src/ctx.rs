//! The handle a simulated process uses to interact with the simulation.

use std::future::Future;
use std::rc::Rc;

use crate::kernel::{Kernel, Pid};
use crate::time::{Span, Time};

/// Capability handle passed to every simulated process.
///
/// A `Ctx` gives the calling process access to the virtual clock, timed
/// delays and dynamic process spawning. Queue operations
/// ([`crate::Queue`]) also take a `&Ctx` so they can block the caller.
///
/// The kernel polls one process at a time and knows which, so a `Ctx`
/// always acts for the process that uses it: a clone shared between
/// processes (inside a lock, say) blocks whichever process calls it.
///
/// ```
/// use lotus_sim::{Simulation, Span};
///
/// let mut sim = Simulation::new();
/// sim.spawn("ticker", |ctx| async move {
///     ctx.delay(Span::from_millis(5)).await;
///     assert_eq!(ctx.now().as_nanos(), 5_000_000);
/// });
/// sim.run().unwrap();
/// ```
#[derive(Clone)]
pub struct Ctx {
    pub(crate) kernel: Rc<Kernel>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").finish_non_exhaustive()
    }
}

impl Ctx {
    pub(crate) fn new(kernel: Rc<Kernel>) -> Ctx {
        Ctx { kernel }
    }

    /// The calling process's identifier.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.kernel.state.borrow().running()
    }

    /// The name the calling process was spawned with.
    #[must_use]
    pub fn name(&self) -> String {
        let st = self.kernel.state.borrow();
        st.procs[st.running().index()].name.clone()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.kernel.state.borrow().now
    }

    /// Advances the calling process's virtual time by `span`, letting
    /// other processes run in the meantime. A zero-length delay yields to
    /// any other process scheduled at the same instant.
    pub async fn delay(&self, span: Span) {
        self.kernel
            .park("delay", |st, pid| {
                let at = st.now + span;
                st.schedule_wake_at(pid, at);
            })
            .await;
    }

    /// Spawns a process that starts at the current virtual time. Returns
    /// its [`Pid`].
    pub fn spawn<F, Fut>(&self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn(&self.kernel, name.into(), body)
    }

    /// Creates a queue bound to this process's simulation — what
    /// [`crate::Simulation::queue`] does from outside it.
    #[must_use]
    pub fn queue<T: 'static>(
        &self,
        name: impl Into<String>,
        capacity: Option<usize>,
    ) -> crate::Queue<T> {
        crate::Queue::new(Rc::clone(&self.kernel), name.into(), capacity)
    }
}

/// Registers `body` as a process of `kernel`'s simulation. Shared by
/// [`crate::Simulation::spawn`] and [`Ctx::spawn`]. The closure itself
/// runs at the process's first poll, as the process.
pub(crate) fn spawn<F, Fut>(kernel: &Rc<Kernel>, name: String, body: F) -> Pid
where
    F: FnOnce(Ctx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let ctx = Ctx::new(Rc::clone(kernel));
    let body = Box::pin(async move { body(ctx).await });
    kernel.state.borrow_mut().add_proc(name, body)
}
