//! The synchronization facade the native backend's handoff code is
//! written against: [`NativeQueue`](crate::NativeQueue) and the workers'
//! liveness-gated commit take their mutexes, condvars and clock from a
//! [`SyncFacade`]. The backend runs them on [`StdSync`]. `lotus audit
//! --model` runs the same code on `SimSync`, as lotus-sim processes whose
//! every lock, wait and notify is a scheduling point the explorer
//! decides.
//!
//! The blocking operations are `async`. On `StdSync` they block the
//! thread inside their first poll, so [`block_on`] completes them in one,
//! and a std guard held across one of their awaits is never held across
//! a yield; on `SimSync` they park the calling process.

use std::cell::{Cell, RefCell, RefMut};
use std::future::Future;
use std::ops::{Add, Deref, DerefMut};
use std::pin::pin;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use lotus_sim::{Ctx, Pid, Queue, Span, Time, TimeSource};

/// A mutex, a condition variable and a monotonic clock, statically
/// dispatched.
// Every caller is generic over a concrete facade and drives the future
// on the thread that made it, so no `Send` bound is wanted.
#[allow(async_fn_in_trait)]
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
    fn mutex<T>(&self, value: T) -> Self::Mutex<T>;
    /// Waits until `mutex` is acquired.
    async fn lock<'a, T: 'a>(&self, mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T>;
    /// Acquires `mutex` if it is free.
    async fn try_lock<'a, T: 'a>(&self, mutex: &'a Self::Mutex<T>) -> Option<Self::Guard<'a, T>>;
    /// A new condition variable.
    fn condvar(&self) -> Self::Condvar;
    /// Releases `guard`'s mutex, waits until `cv` is notified or
    /// `timeout` passes (never, for `None`), then re-acquires the mutex.
    /// The caller's predicate may still be false on return.
    async fn wait<'a, T>(
        &self,
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Option<Duration>,
    ) -> Self::Guard<'a, T>
    where
        T: 'a;
    /// Wakes one waiter of `cv`, if there is one.
    async fn notify_one(&self, cv: &Self::Condvar);
    /// The current instant.
    fn now(&self) -> Self::Instant;
    /// Time left until `deadline`; zero once it has passed.
    fn until(&self, deadline: Self::Instant) -> Duration;
    /// The simulated process calling, on a facade that runs lotus-sim
    /// processes; `None` where callers are OS threads.
    fn process(&self) -> Option<Pid> {
        None
    }
}

/// Runs `future` to completion on the calling thread.
///
/// Meant for futures whose every await is a [`StdSync`] operation:
/// those block inside their first poll and never return `Pending`, so
/// this polls once. Anything else is polled again until it completes.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = pin!(future);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
            return output;
        }
        std::thread::yield_now();
    }
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

    fn mutex<T>(&self, value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    async fn lock<'a, T: 'a>(&self, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    async fn try_lock<'a, T: 'a>(&self, mutex: &'a Mutex<T>) -> Option<MutexGuard<'a, T>> {
        mutex.try_lock().ok()
    }

    fn condvar(&self) -> Condvar {
        Condvar::new()
    }

    async fn wait<'a, T>(
        &self,
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

    async fn notify_one(&self, cv: &Condvar) {
        cv.notify_one();
    }

    fn now(&self) -> Instant {
        Instant::now()
    }

    fn until(&self, deadline: Instant) -> Duration {
        deadline.saturating_duration_since(Instant::now())
    }
}

/// The explorer's facade, for code running as lotus-sim processes. It
/// acts for whichever process calls it: the kernel polls one at a time
/// and knows which.
///
/// A mutex is a one-slot sim queue (full = held). A condvar is a waiter
/// count plus a queue of wake tokens; a notify posts a token only to a
/// waiter, so one with no waiter is lost, as on a real condvar. Every
/// lock, try-lock and notify first yields for zero virtual time, so each
/// process runnable at that instant may go first. The clock is virtual.
#[derive(Debug, Clone)]
pub(crate) struct SimSync(pub(crate) Ctx);

impl SimSync {
    async fn yield_now(&self) {
        self.0.delay(Span::ZERO).await;
    }
}

/// Virtual time, for the handoff's kill-time checks.
impl TimeSource for SimSync {
    fn now(&self) -> Time {
        self.0.now()
    }
}

/// [`SimSync`]'s mutex.
pub(crate) struct SimMutex<T> {
    /// Holds a token while the mutex is held; blocked lockers park here.
    held: Queue<()>,
    /// Never contended: only the token holder borrows it.
    value: RefCell<T>,
}

impl<T> SimMutex<T> {
    /// Takes the token, parking while another process holds it.
    async fn acquire(&self, ctx: &Ctx) -> SimGuard<'_, T> {
        self.held.push(ctx, ()).await;
        SimGuard {
            mutex: self,
            value: self.value.borrow_mut(),
        }
    }
}

/// [`SimSync`]'s guard; dropping it releases the mutex.
pub(crate) struct SimGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    value: RefMut<'a, T>,
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
        // yields, after `value` is released.
        let _token = self.mutex.held.try_pop();
    }
}

/// [`SimSync`]'s condition variable.
pub(crate) struct SimCondvar {
    /// Waiters not yet handed a token.
    waiters: Cell<usize>,
    tokens: Queue<()>,
}

impl SyncFacade for SimSync {
    type Mutex<T> = SimMutex<T>;
    type Guard<'a, T: 'a> = SimGuard<'a, T>;
    type Condvar = SimCondvar;
    /// Virtual time since the simulation started.
    type Instant = Duration;

    fn mutex<T>(&self, value: T) -> SimMutex<T> {
        SimMutex {
            held: self.0.queue("mutex", Some(1)),
            value: RefCell::new(value),
        }
    }

    async fn lock<'a, T: 'a>(&self, mutex: &'a SimMutex<T>) -> SimGuard<'a, T> {
        self.yield_now().await;
        mutex.acquire(&self.0).await
    }

    async fn try_lock<'a, T: 'a>(&self, mutex: &'a SimMutex<T>) -> Option<SimGuard<'a, T>> {
        self.yield_now().await;
        if !mutex.held.is_empty() {
            return None;
        }
        Some(mutex.acquire(&self.0).await)
    }

    fn condvar(&self) -> SimCondvar {
        SimCondvar {
            waiters: Cell::new(0),
            tokens: self.0.queue("condvar", None),
        }
    }

    async fn wait<'a, T>(
        &self,
        cv: &SimCondvar,
        guard: SimGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> SimGuard<'a, T>
    where
        T: 'a,
    {
        let mutex = guard.mutex;
        cv.waiters.set(cv.waiters.get() + 1);
        drop(guard);
        let notified = match timeout {
            None => {
                let () = cv.tokens.pop(&self.0).await;
                true
            }
            Some(t) => {
                let t = Span::from_nanos(t.as_nanos() as u64);
                cv.tokens.pop_timeout(&self.0, t).await.is_some()
            }
        };
        if !notified {
            cv.waiters.set(cv.waiters.get() - 1);
        }
        self.lock(mutex).await
    }

    async fn notify_one(&self, cv: &SimCondvar) {
        self.yield_now().await;
        if cv.waiters.get() > 0 {
            cv.waiters.set(cv.waiters.get() - 1);
            cv.tokens.push(&self.0, ()).await;
        }
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.now().as_nanos())
    }

    fn until(&self, deadline: Duration) -> Duration {
        deadline.saturating_sub(SyncFacade::now(self))
    }

    fn process(&self) -> Option<Pid> {
        Some(self.0.pid())
    }
}
