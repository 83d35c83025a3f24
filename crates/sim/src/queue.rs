//! Simulated inter-process queues.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::kernel::{Kernel, Pid};
use crate::time::Span;

struct QueueInner<T> {
    name: String,
    capacity: Option<usize>,
    items: VecDeque<T>,
    /// Processes blocked in `pop` waiting for an item.
    pop_waiters: VecDeque<Pid>,
    /// Processes blocked in `push` waiting for space.
    push_waiters: VecDeque<Pid>,
}

/// A FIFO channel between simulated processes, modelling Python's
/// `multiprocessing.Queue` as used by the PyTorch `DataLoader`.
///
/// `pop` blocks the calling process until an item is available; `push`
/// blocks while a bounded queue is full. Handles are cheaply cloneable and
/// may be shared by any number of producers and consumers (the DataLoader's
/// *data queue* is shared by all workers; its *index queues* are
/// single-producer single-consumer).
///
/// See [`crate::Simulation::queue`] for construction and an example.
pub struct Queue<T> {
    kernel: Rc<Kernel>,
    inner: Rc<RefCell<QueueInner<T>>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            kernel: Rc::clone(&self.kernel),
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Queue")
            .field("name", &inner.name)
            .field("len", &inner.items.len())
            .field("capacity", &inner.capacity)
            .finish()
    }
}

impl<T: 'static> Queue<T> {
    pub(crate) fn new(kernel: Rc<Kernel>, name: String, capacity: Option<usize>) -> Queue<T> {
        Queue {
            kernel,
            inner: Rc::new(RefCell::new(QueueInner {
                name,
                capacity,
                items: VecDeque::new(),
                pop_waiters: VecDeque::new(),
                push_waiters: VecDeque::new(),
            })),
        }
    }

    /// Number of items currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    /// True if no items are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue's name (used in deadlock diagnostics and traces).
    #[must_use]
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Appends `item`, blocking the calling process while the queue is full.
    pub async fn push(&self, ctx: &Ctx, item: T) {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                let full = inner.capacity.is_some_and(|cap| inner.items.len() >= cap);
                if !full {
                    inner.items.push_back(item);
                    if let Some(waiter) = inner.pop_waiters.pop_front() {
                        self.kernel.state.borrow_mut().wake_now(waiter);
                    }
                    return;
                }
            }
            ctx.kernel
                .park("queue.push", |_, pid| {
                    self.inner.borrow_mut().push_waiters.push_back(pid);
                })
                .await;
            // Re-check: space may have been re-taken by another producer
            // scheduled between our wake and our resumption.
        }
    }

    /// Removes and returns the front item, blocking the calling process
    /// while the queue is empty.
    pub async fn pop(&self, ctx: &Ctx) -> T {
        loop {
            if let Some(item) = self.try_pop() {
                return item;
            }
            ctx.kernel
                .park("queue.pop", |_, pid| {
                    self.inner.borrow_mut().pop_waiters.push_back(pid);
                })
                .await;
        }
    }

    /// Removes and returns the front item, giving up after `timeout` —
    /// the analog of `multiprocessing.Queue.get(timeout=...)`, which
    /// PyTorch's main process uses to poll the data queue
    /// (`MP_STATUS_CHECK_INTERVAL`).
    ///
    /// Returns `None` on timeout. The calling process may be woken twice
    /// internally (item and timer race); both outcomes are handled.
    pub async fn pop_timeout(&self, ctx: &Ctx, timeout: Span) -> Option<T> {
        let deadline = ctx.now() + timeout;
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            if ctx.now() >= deadline {
                return None;
            }
            // Arm both wake sources: a push (targeted wake) and the
            // timeout. Whichever fires first wins; the loser's event goes
            // stale via the wake-generation check.
            ctx.kernel
                .park("queue.pop_timeout", |st, pid| {
                    self.inner.borrow_mut().pop_waiters.push_back(pid);
                    st.schedule_wake_at(pid, deadline);
                })
                .await;
            // Either an item arrived, or we timed out; re-check both. A
            // stale waiter registration is harmless: push wakes are
            // generation-checked, and duplicate registrations are pruned
            // here.
            let pid = ctx.pid();
            self.inner.borrow_mut().pop_waiters.retain(|&w| w != pid);
        }
    }

    /// Removes and returns the front item if one is available, without
    /// blocking.
    #[must_use]
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let item = inner.items.pop_front();
        if item.is_some() {
            if let Some(waiter) = inner.push_waiters.pop_front() {
                self.kernel.state.borrow_mut().wake_now(waiter);
            }
        }
        item
    }
}
