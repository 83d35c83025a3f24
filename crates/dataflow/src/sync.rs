//! The synchronization facade the native backend's handoff code is
//! written against: [`NativeQueue`](crate::NativeQueue) and the workers'
//! liveness-gated commit take their mutexes, condvars and clock from a
//! [`SyncFacade`]. The backend runs them on [`StdSync`]. `lotus audit
//! --model` runs the same code on `SimSync`, as lotus-sim processes whose
//! every lock, wait and notify is a scheduling point the explorer
//! decides.

use std::cell::RefCell;
use std::ops::{Add, Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use lotus_sim::{Ctx, Queue, Span, Time, TimeSource};

/// A mutex, a condition variable and a monotonic clock, as static
/// functions over associated types.
pub trait SyncFacade: 'static {
    /// A mutual-exclusion lock around a `T`.
    type Mutex<T>;
    /// Holds a [`SyncFacade::Mutex`] until dropped.
    type Guard<'a, T: 'a>: DerefMut<Target = T>;
    /// A condition variable.
    type Condvar;
    /// An instant on the facade's clock.
    type Instant: Copy + Add<Duration, Output = Self::Instant>;

    /// A new, unlocked mutex holding `value`.
    fn mutex<T>(value: T) -> Self::Mutex<T>;
    /// Blocks until `mutex` is acquired.
    fn lock<T>(mutex: &Self::Mutex<T>) -> Self::Guard<'_, T>;
    /// Acquires `mutex` if it is free.
    fn try_lock<T>(mutex: &Self::Mutex<T>) -> Option<Self::Guard<'_, T>>;
    /// A new condition variable.
    fn condvar() -> Self::Condvar;
    /// Releases `guard`'s mutex, blocks until `cv` is notified or
    /// `timeout` passes (never, for `None`), then re-acquires the mutex.
    /// The caller's predicate may still be false on return.
    fn wait<'a, T>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Option<Duration>,
    ) -> Self::Guard<'a, T>
    where
        T: 'a;
    /// Wakes one waiter of `cv`, if there is one.
    fn notify_one(cv: &Self::Condvar);
    /// The current instant.
    fn now() -> Self::Instant;
    /// Time left until `deadline`; zero once it has passed.
    fn until(deadline: Self::Instant) -> Duration;
}

/// The production facade: std's primitives, statically dispatched.
///
/// Locks recover from poisoning. A panicking worker must not cascade its
/// panic into every other thread that touches a shared queue: the
/// guarded values are valid at every unlock (each critical section
/// completes before it releases), so the poison flag carries no
/// integrity information. The panic itself reaches the main thread as an
/// in-band `PipelineError::WorkerPanic`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdSync;

impl SyncFacade for StdSync {
    type Mutex<T> = Mutex<T>;
    type Guard<'a, T: 'a> = MutexGuard<'a, T>;
    type Condvar = Condvar;
    type Instant = Instant;

    fn mutex<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_lock<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
        mutex.try_lock().ok()
    }

    fn condvar() -> Condvar {
        Condvar::new()
    }

    fn wait<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, T>
    where
        T: 'a,
    {
        match timeout {
            None => cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                cv.wait_timeout(guard, t)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        }
    }

    fn notify_one(cv: &Condvar) {
        cv.notify_one();
    }

    fn now() -> Instant {
        Instant::now()
    }

    fn until(deadline: Instant) -> Duration {
        deadline.saturating_duration_since(Instant::now())
    }
}

thread_local! {
    /// The simulated process this OS thread runs, once it runs one.
    static PROCESS: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The explorer's facade, for code running inside [`SimSync::run`].
///
/// A mutex is a one-slot sim queue (full = held). A condvar is a waiter
/// count plus a queue of wake tokens; a notify posts a token only to a
/// waiter, so one with no waiter is lost, as on a real condvar. Every
/// lock, try-lock and notify first yields for zero virtual time, so each
/// process runnable at that instant may go first. The clock is virtual.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimSync;

impl SimSync {
    /// Runs `body` as the simulated process `ctx`.
    pub(crate) fn run(ctx: Ctx, body: impl FnOnce()) {
        PROCESS.with(|process| *process.borrow_mut() = Some(ctx));
        body();
    }

    /// Calls `f` with the calling thread's process.
    // Only code inside `SimSync::run` reaches here; anything else is a
    // harness bug with no state to recover.
    #[allow(clippy::expect_used)]
    pub(crate) fn with<R>(f: impl FnOnce(&Ctx) -> R) -> R {
        PROCESS.with(|p| f(p.borrow().as_ref().expect("SimSync outside a sim process")))
    }

    fn yield_now() {
        SimSync::with(|ctx| ctx.delay(Span::ZERO));
    }
}

/// Virtual time, for the handoff's kill-time checks.
impl TimeSource for SimSync {
    fn now(&self) -> Time {
        SimSync::with(Ctx::now)
    }
}

/// [`SimSync`]'s mutex.
pub(crate) struct SimMutex<T> {
    /// Holds a token while the mutex is held; blocked lockers park here.
    held: Queue<()>,
    /// Never contended: only the token holder locks it.
    value: Mutex<T>,
}

impl<T> SimMutex<T> {
    /// Takes the token, parking while another process holds it.
    fn acquire(&self) -> SimGuard<'_, T> {
        SimSync::with(|ctx| self.held.push(ctx, ()));
        SimGuard {
            mutex: self,
            value: StdSync::lock(&self.value),
        }
    }
}

/// [`SimSync`]'s guard; dropping it releases the mutex.
pub(crate) struct SimGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    value: MutexGuard<'a, T>,
}

impl<T> Deref for SimGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for SimGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> Drop for SimGuard<'_, T> {
    fn drop(&mut self) {
        // Wakes the first blocked locker; it runs once this process
        // yields, after `value` is unlocked.
        let _token = self.mutex.held.try_pop();
    }
}

/// [`SimSync`]'s condition variable.
pub(crate) struct SimCondvar {
    /// Waiters not yet handed a token. One process runs at a time, so
    /// relaxed updates are exact.
    waiters: AtomicUsize,
    tokens: Queue<()>,
}

impl SyncFacade for SimSync {
    type Mutex<T> = SimMutex<T>;
    type Guard<'a, T: 'a> = SimGuard<'a, T>;
    type Condvar = SimCondvar;
    /// Virtual time since the simulation started.
    type Instant = Duration;

    fn mutex<T>(value: T) -> SimMutex<T> {
        SimMutex {
            held: SimSync::with(|ctx| ctx.queue("mutex", Some(1))),
            value: Mutex::new(value),
        }
    }

    fn lock<T>(mutex: &SimMutex<T>) -> SimGuard<'_, T> {
        SimSync::yield_now();
        mutex.acquire()
    }

    fn try_lock<T>(mutex: &SimMutex<T>) -> Option<SimGuard<'_, T>> {
        SimSync::yield_now();
        mutex.held.is_empty().then(|| mutex.acquire())
    }

    fn condvar() -> SimCondvar {
        SimCondvar {
            waiters: AtomicUsize::new(0),
            tokens: SimSync::with(|ctx| ctx.queue("condvar", None)),
        }
    }

    fn wait<'a, T>(
        cv: &SimCondvar,
        guard: SimGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> SimGuard<'a, T>
    where
        T: 'a,
    {
        let mutex = guard.mutex;
        cv.waiters.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        let notified = SimSync::with(|ctx| match timeout {
            None => {
                let () = cv.tokens.pop(ctx);
                true
            }
            Some(t) => {
                let t = Span::from_nanos(t.as_nanos() as u64);
                cv.tokens.pop_timeout(ctx, t).is_some()
            }
        });
        if !notified {
            cv.waiters.fetch_sub(1, Ordering::Relaxed);
        }
        SimSync::lock(mutex)
    }

    fn notify_one(cv: &SimCondvar) {
        SimSync::yield_now();
        if cv.waiters.load(Ordering::Relaxed) > 0 {
            cv.waiters.fetch_sub(1, Ordering::Relaxed);
            SimSync::with(|ctx| cv.tokens.push(ctx, ()));
        }
    }

    fn now() -> Duration {
        Duration::from_nanos(SimSync::with(Ctx::now).as_nanos())
    }

    fn until(deadline: Duration) -> Duration {
        deadline.saturating_sub(<SimSync as SyncFacade>::now())
    }
}
