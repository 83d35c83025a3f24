//! Vector clocks over a fixed thread universe.
//!
//! The auditor assigns each recording thread one component; an event's
//! clock is the recording thread's clock at that moment. Event `a`
//! happens-before event `b` exactly when `a`'s clock is
//! [`leq`](VectorClock::leq) `b`'s — the partial order is rebuilt from the
//! mutex release→acquire chains of the event stream (see the parent
//! module).

/// A vector clock: one logical counter per participating thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    ticks: Vec<u64>,
}

impl VectorClock {
    /// The zero clock over `threads` components.
    #[must_use]
    pub fn new(threads: usize) -> VectorClock {
        VectorClock {
            ticks: vec![0; threads],
        }
    }

    /// Advances `thread`'s own component by one.
    pub fn tick(&mut self, thread: usize) {
        self.ticks[thread] += 1;
    }

    /// Component-wise maximum with `other` (the join at an acquire).
    pub fn join(&mut self, other: &VectorClock) {
        for (mine, theirs) in self.ticks.iter_mut().zip(&other.ticks) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// True when `self` is component-wise ≤ `other`: the event stamped
    /// `self` happens-before (or equals) the event stamped `other`.
    #[must_use]
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.ticks
            .iter()
            .zip(&other.ticks)
            .all(|(mine, theirs)| mine <= theirs)
    }

    /// True when neither clock is ≤ the other: the two events are
    /// concurrent (racing) under the recorded happens-before order.
    #[must_use]
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_and_compare() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0); // a = [1,0]
        b.tick(1); // b = [0,1]
        assert!(a.concurrent_with(&b));
        b.join(&a); // b = [1,1]
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        let mut c = b.clone();
        c.tick(1);
        assert!(b.leq(&c));
        assert!(a.leq(&c));
    }
}
