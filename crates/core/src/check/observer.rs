//! The recording observer: a zero-overhead [`TraceSink`] that captures
//! every protocol event the DataLoader emits, in emission order, for the
//! invariant catalog ([`super::invariants`]) to judge.

use std::sync::{Mutex, PoisonError};

use lotus_dataflow::{TraceEvent, TraceSink};
use lotus_sim::Span;

/// A [`TraceSink`] that keeps an owned copy of every protocol event and
/// charges zero overhead, so observation never perturbs the schedule
/// under test. Per-item events (ops and storage reads) say nothing about
/// the protocol and are skipped.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Mutex<Vec<TraceEvent<'static>>>,
}

impl RecordingObserver {
    /// A fresh, empty observer.
    pub fn new() -> RecordingObserver {
        RecordingObserver::default()
    }

    /// The captured events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent<'static>> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl TraceSink for RecordingObserver {
    fn name(&self) -> &str {
        "recording-observer"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        if !matches!(
            event,
            TraceEvent::Op { .. } | TraceEvent::StorageRead { .. }
        ) {
            let owned = event.clone().into_owned();
            self.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(owned);
        }
        Span::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_dataflow::Tracer;
    use lotus_sim::Time;
    use std::borrow::Cow;

    #[test]
    fn observer_captures_hooks_in_order_and_charges_nothing() {
        let obs = RecordingObserver::new();
        assert!(obs
            .on_batch_dispatched(0, 4243, &[0, 1, 2], false, Time::ZERO)
            .is_zero());
        assert!(obs
            .on_op(4243, 0, "Loader", Time::ZERO, Span::from_micros(4))
            .is_zero());
        assert!(obs
            .on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_micros(5))
            .is_zero());
        assert!(obs
            .on_batch_wait(
                4242,
                0,
                Time::ZERO + Span::from_micros(5),
                Span::from_micros(1),
                false,
                Span::from_micros(1),
            )
            .is_zero());
        let events = obs.events();
        assert_eq!(events.len(), 3, "the op is not a protocol event");
        assert_eq!(
            events[0],
            TraceEvent::Dispatched {
                batch_id: 0,
                to_pid: 4243,
                indices: Cow::Owned(vec![0, 1, 2]),
                redispatch: false,
                at: Time::ZERO,
            }
        );
        assert!(matches!(
            events[1],
            TraceEvent::BatchPreprocessed { batch_id: 0, .. }
        ));
        assert_eq!(
            events[2],
            TraceEvent::BatchWait {
                pid: 4242,
                batch_id: 0,
                start: Time::ZERO + Span::from_micros(5),
                dur: Span::from_micros(1),
                out_of_order: false,
                queue_delay: Span::from_micros(1),
            }
        );
    }
}
