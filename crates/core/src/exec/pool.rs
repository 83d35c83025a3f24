//! A scoped-thread job pool for independent deterministic simulations.
//!
//! Jobs are claimed from a shared queue by worker threads, but results
//! are joined **by submission index, never by completion order** — the
//! caller always sees the same `Vec<T>` a serial loop would have built,
//! so every downstream consumer (report orders, pruning replays, JSON
//! exports) stays byte-identical no matter how the OS schedules the
//! threads. Built on [`std::thread::scope`]: no extra dependencies, and
//! jobs may borrow from the caller's stack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The default fan-out width: the machine's available parallelism, or 1
/// when it cannot be queried.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One slot of the job queue: the pending closure, then (after a worker
/// claimed and ran it) its result.
enum Slot<F, T> {
    Pending(F),
    Claimed,
    Done(T),
}

/// Runs every task and returns their results **in submission order**.
///
/// With `jobs <= 1` (or fewer than two tasks) this degenerates to a
/// plain serial loop on the calling thread — no threads are spawned, so
/// a `--jobs 1` run is exactly the code path a pre-parallel build took.
/// Otherwise `min(jobs, tasks.len())` scoped OS threads claim tasks
/// greedily and write results into the per-index slot they claimed.
///
/// # Panics
///
/// Propagates the first panicking task's payload (via
/// [`std::thread::scope`]'s join).
///
/// # Examples
///
/// ```
/// use lotus_core::exec::run_jobs;
///
/// let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
/// assert_eq!(run_jobs(4, tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_jobs<F, T>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    if jobs <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let threads = jobs.min(tasks.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Slot<F, T>>> = tasks
        .into_iter()
        .map(|task| Mutex::new(Slot::Pending(task)))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(index) else { break };
                let Slot::Pending(task) = std::mem::replace(&mut *lock(slot), Slot::Claimed) else {
                    unreachable!("slot {index} claimed twice");
                };
                // The lock is dropped while the task runs: claiming and
                // publishing are the only critical sections.
                let result = task();
                *lock(slot) = Slot::Done(result);
            });
        }
    });
    slots
        .into_iter()
        .map(
            |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Slot::Done(result) => result,
                _ => unreachable!("scope joined with an unfinished slot"),
            },
        )
        .collect()
}

/// A slot's lock is held only to swap its state, which cannot panic, so
/// a poisoned slot still holds a whole state.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn joins_by_submission_index_under_artificial_delays() {
        // Earlier submissions sleep *longer*, so completion order is the
        // reverse of submission order — the join must still return
        // submission order.
        let n = 8usize;
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(5 * (n - i) as u64));
                    i
                }
            })
            .collect();
        assert_eq!(run_jobs(n, tasks), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_jobs(1, (0..32u64).map(|i| move || i * 3 + 1).collect::<Vec<_>>());
        let parallel = run_jobs(4, (0..32u64).map(|i| move || i * 3 + 1).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..100)
            .map(|i| {
                let ran = &ran;
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let results = run_jobs(7, tasks);
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(results, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        assert_eq!(run_jobs(64, vec![|| 1, || 2]), vec![1, 2]);
        assert_eq!(run_jobs(64, Vec::<fn() -> u8>::new()), Vec::<u8>::new());
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let data = [10u64, 20, 30];
        let tasks: Vec<_> = data.iter().map(|v| move || v + 1).collect();
        assert_eq!(run_jobs(2, tasks), vec![11, 21, 31]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
