//! Time sources: where "now" comes from.
//!
//! The simulated engine reads `Ctx::now()`; the native execution backend
//! reads a monotonic wall clock. Both express instants as [`Time`]
//! (nanoseconds since run start), so every consumer downstream of the
//! engine — LotusTrace, the metrics registry, the trace linter — works
//! identically on simulated and native runs.
//!
//! The trait lives here (rather than in `lotus-core`, where the trace
//! consumers live) because `lotus-core` depends on `lotus-dataflow`,
//! which needs the clock: putting it any higher in the stack would create
//! a dependency cycle.

use std::time::Instant;

use crate::time::{Span, Time};

/// A source of "now" as [`Time`] — nanoseconds since the start of a run.
///
/// Implementations must be monotonic: successive `now()` calls, from any
/// thread that can reach the source, never go backwards. A simulation's
/// clock is reachable only from the thread that runs it.
pub trait TimeSource {
    /// The current instant, relative to the source's epoch.
    fn now(&self) -> Time;
}

/// A monotonic wall clock anchored at its construction instant.
///
/// `now()` returns the wall time elapsed since [`WallClock::new`] as a
/// [`Time`], so a native run's timestamps are directly comparable with a
/// simulated run's virtual timestamps (both count nanoseconds from the
/// run's start). Backed by [`std::time::Instant`], which is monotonic
/// across threads.
///
/// ```
/// use lotus_sim::{Time, TimeSource, WallClock};
///
/// let clock = WallClock::new();
/// let a = clock.now();
/// let b = clock.now();
/// assert!(Time::ZERO <= a && a <= b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Creates a clock whose epoch (its `Time::ZERO`) is now.
    #[must_use]
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// The wall duration since the clock's epoch, as a [`Span`].
    #[must_use]
    pub fn elapsed(&self) -> Span {
        // u64 nanoseconds cover ~584 years; the truncation is theoretical.
        Span::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl TimeSource for WallClock {
    fn now(&self) -> Time {
        Time::ZERO + self.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let mut prev = clock.now();
        for _ in 0..1_000 {
            let now = clock.now();
            assert!(now >= prev, "wall clock went backwards");
            prev = now;
        }
    }

    #[test]
    fn wall_clock_advances_across_a_sleep() {
        let clock = WallClock::new();
        let before = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let after = clock.now();
        assert!(after > before, "clock must advance over a real sleep");
    }

    #[test]
    fn two_threads_share_one_ordering() {
        let clock = std::sync::Arc::new(WallClock::new());
        let before = clock.now();
        let c = std::sync::Arc::clone(&clock);
        let seen = std::thread::spawn(move || c.now()).join().unwrap();
        let after = clock.now();
        assert!(before <= seen && seen <= after);
    }
}
