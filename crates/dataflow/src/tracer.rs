//! Instrumentation hooks into the data flow.
//!
//! The dataflow engine emits ground-truth events (per-op timings, batch
//! fetches, waits, consumptions) to a [`Tracer`]. LotusTrace records them
//! into its log; baseline profiler models subsample or ignore them and
//! charge their own interference. Each hook returns the virtual-time
//! overhead the instrumentation itself costs at that point, which the
//! engine adds to the emitting process's timeline — this is how
//! per-profiler wall-time overhead (the paper's Table III) arises.
//!
//! The hooks are the emitter API. Each call is also one [`TraceEvent`]
//! value: a [`TraceSink`] implements only [`TraceSink::name`] and
//! [`TraceSink::on_event`], and the blanket [`Tracer`] impl over every
//! sink below is the one place a hook call becomes an event.

use std::borrow::Cow;

use lotus_sim::{ReadOutcome, Span, Time};

/// Observer of data-flow events. All methods default to "not captured, no
/// overhead".
pub trait Tracer: Send + Sync {
    /// One preprocessing operation finished on a worker (\[T3\]).
    /// `batch_id` is the batch the item belongs to.
    fn on_op(&self, pid: u32, batch_id: u64, name: &str, start: Time, dur: Span) -> Span {
        let _ = (pid, batch_id, name, start, dur);
        Span::ZERO
    }

    /// A worker finished fetching (preprocessing) a whole batch (\[T1\]).
    fn on_batch_preprocessed(&self, pid: u32, batch_id: u64, start: Time, dur: Span) -> Span {
        let _ = (pid, batch_id, start, dur);
        Span::ZERO
    }

    /// The main process handed an index batch to a worker's index queue —
    /// either a fresh batch from the sampler (`redispatch == false`) or a
    /// dead worker's orphan being re-sent (`redispatch == true`). This is
    /// the dispatch side of the protocol, paired with
    /// [`Tracer::on_batch_wait`] on the return side; `lotus check` builds
    /// its sample-conservation ledger from exactly these two hooks.
    fn on_batch_dispatched(
        &self,
        batch_id: u64,
        to_pid: u32,
        indices: &[u64],
        redispatch: bool,
        at: Time,
    ) -> Span {
        let _ = (batch_id, to_pid, indices, redispatch, at);
        Span::ZERO
    }

    /// The main process finished waiting for a batch (\[T2\]).
    /// `out_of_order` is true when the batch was served from the pinned
    /// cache (the paper marks these with a 1 µs duration). `queue_delay`
    /// is how long the batch sat between the end of its fetch on the
    /// worker and being handed to the main loop — the shared-queue
    /// residency that distinguishes a slow pipeline from a slow consumer.
    fn on_batch_wait(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        out_of_order: bool,
        queue_delay: Span,
    ) -> Span {
        let _ = (pid, batch_id, start, dur, out_of_order, queue_delay);
        Span::ZERO
    }

    /// The main process consumed a batch of `batch_len` samples (H2D
    /// transfer + GPU step).
    fn on_batch_consumed(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        batch_len: usize,
    ) -> Span {
        let _ = (pid, batch_id, start, dur, batch_len);
        Span::ZERO
    }

    /// A worker's dataset fetched sample bytes from the simulated storage
    /// hierarchy (\[T0\]). `start` is the instant the read was issued;
    /// `read` carries the serving tier, duration (including device
    /// queueing), bytes moved, seek flag and observed queue depth. The
    /// read happens inside the batch's \[T1\] fetch span on the same
    /// worker, so T0 time is a component of — never in addition to — the
    /// preprocessing time LotusTrace attributes to the batch.
    fn on_storage_read(&self, pid: u32, batch_id: u64, start: Time, read: &ReadOutcome) -> Span {
        let _ = (pid, batch_id, start, read);
        Span::ZERO
    }

    /// A fault plan injected an error into sample fetching on a worker.
    fn on_fault_injected(&self, pid: u32, batch_id: u64, op: &str, at: Time) -> Span {
        let _ = (pid, batch_id, op, at);
        Span::ZERO
    }

    /// The main process observed that a worker died (the analog of the
    /// `w.is_alive()` check failing after a queue-poll timeout).
    fn on_worker_died(&self, pid: u32, at: Time) -> Span {
        let _ = (pid, at);
        Span::ZERO
    }

    /// An in-flight batch owned by a dead worker was re-sent to a
    /// surviving worker's index queue.
    fn on_batch_redispatched(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        let _ = (batch_id, from_pid, to_pid, at);
        Span::ZERO
    }

    /// A scheduling policy overrode the round-robin target: `batch_id`
    /// was taken from `from_pid`'s queue share and handed to `to_pid`
    /// (the work-stealing policy's steal instant). Emitted right after
    /// the batch's [`Tracer::on_batch_dispatched`].
    fn on_batch_stolen(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        let _ = (batch_id, from_pid, to_pid, at);
        Span::ZERO
    }

    /// A lane-aware scheduling policy classified `batch_id` into `lane`
    /// (`"fast"` or `"slow"`) and placed it on `to_pid`. Emitted right
    /// after the batch's [`Tracer::on_batch_dispatched`].
    fn on_lane_assigned(&self, batch_id: u64, lane: &str, to_pid: u32, at: Time) -> Span {
        let _ = (batch_id, lane, to_pid, at);
        Span::ZERO
    }

    /// An adaptive scheduling policy resized the per-worker prefetch
    /// window to `target` (always within `[1, prefetch_factor]`).
    fn on_prefetch_resized(&self, target: usize, at: Time) -> Span {
        let _ = (target, at);
        Span::ZERO
    }

    /// A named scalar was sampled at virtual time `at` — the engine's
    /// gauge feed. The DataLoader emits `queue_depth.<queue>` at every
    /// push/pop transition of each index queue and the shared data queue,
    /// `in_flight_batches` whenever the dispatched-but-unreturned
    /// inventory changes, and `pinned_cache_batches` whenever the
    /// out-of-order pinned cache grows or shrinks. Metrics sinks turn
    /// these into deterministic `(Time, value)` time-series; trace
    /// backends ignore them.
    fn on_gauge(&self, name: &str, value: f64, at: Time) -> Span {
        let _ = (name, value, at);
        Span::ZERO
    }

    /// Multiplicative slowdown this instrumentation imposes on all
    /// preprocessing compute (in-process sampling/allocation interception
    /// interference; 1.0 = none).
    fn compute_dilation(&self) -> f64 {
        1.0
    }
}

/// One data-flow event: the value form of one [`Tracer`] hook call, as
/// delivered to every [`TraceSink`]. The variant docs name the hook; its
/// docs give the semantics.
///
/// Borrowed payloads are [`Cow`]s, so emitting allocates nothing and a
/// recorder can keep an owned copy ([`TraceEvent::into_owned`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent<'a> {
    /// [`Tracer::on_op`] (\[T3\]).
    Op {
        /// Emitting worker pid.
        pid: u32,
        /// Batch the item belongs to.
        batch_id: u64,
        /// Operation name.
        name: Cow<'a, str>,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
    },
    /// [`Tracer::on_storage_read`] (\[T0\]).
    StorageRead {
        /// Emitting worker pid.
        pid: u32,
        /// Batch being fetched.
        batch_id: u64,
        /// Read start (request issue).
        start: Time,
        /// Serving tier, span, bytes, seek and observed queue depth.
        read: ReadOutcome,
    },
    /// [`Tracer::on_batch_preprocessed`] (\[T1\]).
    BatchPreprocessed {
        /// Emitting worker pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
    },
    /// [`Tracer::on_batch_dispatched`].
    Dispatched {
        /// Batch id.
        batch_id: u64,
        /// The receiving worker's pid.
        to_pid: u32,
        /// Sample indices in the batch.
        indices: Cow<'a, [u64]>,
        /// True when a dead worker's orphan is being re-sent.
        redispatch: bool,
        /// Dispatch instant.
        at: Time,
    },
    /// [`Tracer::on_batch_wait`] (\[T2\]).
    BatchWait {
        /// Main-process pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
        /// Served from the pinned out-of-order cache.
        out_of_order: bool,
        /// Shared-queue residency of the delivered batch.
        queue_delay: Span,
    },
    /// [`Tracer::on_batch_consumed`].
    BatchConsumed {
        /// Main-process pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
        /// Samples in the batch.
        batch_len: usize,
    },
    /// [`Tracer::on_fault_injected`].
    FaultInjected {
        /// Emitting worker pid.
        pid: u32,
        /// Batch being fetched.
        batch_id: u64,
        /// Operation the injected error reports.
        op: Cow<'a, str>,
        /// Injection instant.
        at: Time,
    },
    /// [`Tracer::on_worker_died`].
    WorkerDied {
        /// The dead worker's pid.
        pid: u32,
        /// Observation instant.
        at: Time,
    },
    /// [`Tracer::on_batch_redispatched`].
    BatchRedispatched {
        /// Batch id.
        batch_id: u64,
        /// The dead owner's pid.
        from_pid: u32,
        /// The receiving survivor's pid.
        to_pid: u32,
        /// Redispatch instant.
        at: Time,
    },
    /// [`Tracer::on_batch_stolen`].
    BatchStolen {
        /// Batch id.
        batch_id: u64,
        /// The round-robin target the batch was taken from.
        from_pid: u32,
        /// The worker that received it instead.
        to_pid: u32,
        /// Steal instant.
        at: Time,
    },
    /// [`Tracer::on_lane_assigned`].
    LaneAssigned {
        /// Batch id.
        batch_id: u64,
        /// Lane name (`"fast"` or `"slow"`).
        lane: Cow<'a, str>,
        /// The worker that received the batch.
        to_pid: u32,
        /// Assignment instant.
        at: Time,
    },
    /// [`Tracer::on_prefetch_resized`].
    PrefetchResized {
        /// New per-worker prefetch target.
        target: usize,
        /// Resize instant.
        at: Time,
    },
    /// [`Tracer::on_gauge`].
    Gauge {
        /// Gauge name.
        name: Cow<'a, str>,
        /// Sampled value.
        value: f64,
        /// Sampling instant.
        at: Time,
    },
}

impl TraceEvent<'_> {
    /// The same event with every borrowed payload copied, for recorders
    /// that outlive the hook call.
    #[must_use]
    pub fn into_owned(self) -> TraceEvent<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            TraceEvent::Op {
                pid,
                batch_id,
                name,
                start,
                dur,
            } => TraceEvent::Op {
                pid,
                batch_id,
                name: own(name),
                start,
                dur,
            },
            TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                read,
            } => TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                read,
            },
            TraceEvent::BatchPreprocessed {
                pid,
                batch_id,
                start,
                dur,
            } => TraceEvent::BatchPreprocessed {
                pid,
                batch_id,
                start,
                dur,
            },
            TraceEvent::Dispatched {
                batch_id,
                to_pid,
                indices,
                redispatch,
                at,
            } => TraceEvent::Dispatched {
                batch_id,
                to_pid,
                indices: Cow::Owned(indices.into_owned()),
                redispatch,
                at,
            },
            TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            } => TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            },
            TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                batch_len,
            } => TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                batch_len,
            },
            TraceEvent::FaultInjected {
                pid,
                batch_id,
                op,
                at,
            } => TraceEvent::FaultInjected {
                pid,
                batch_id,
                op: own(op),
                at,
            },
            TraceEvent::WorkerDied { pid, at } => TraceEvent::WorkerDied { pid, at },
            TraceEvent::BatchRedispatched {
                batch_id,
                from_pid,
                to_pid,
                at,
            } => TraceEvent::BatchRedispatched {
                batch_id,
                from_pid,
                to_pid,
                at,
            },
            TraceEvent::BatchStolen {
                batch_id,
                from_pid,
                to_pid,
                at,
            } => TraceEvent::BatchStolen {
                batch_id,
                from_pid,
                to_pid,
                at,
            },
            TraceEvent::LaneAssigned {
                batch_id,
                lane,
                to_pid,
                at,
            } => TraceEvent::LaneAssigned {
                batch_id,
                lane: own(lane),
                to_pid,
                at,
            },
            TraceEvent::PrefetchResized { target, at } => {
                TraceEvent::PrefetchResized { target, at }
            }
            TraceEvent::Gauge { name, value, at } => TraceEvent::Gauge {
                name: own(name),
                value,
                at,
            },
        }
    }
}

/// An incremental consumer of data-flow events. Every sink is a
/// [`Tracer`] through the blanket impl below.
///
/// `on_event` returns the virtual-time overhead the sink charges the
/// traced program for this event. A sink keeps no running total: the
/// fan-out that delivers events to several sinks adds up each one's
/// charges under its [`TraceSink::name`], which is how Table III
/// attributes overhead sink by sink.
pub trait TraceSink: Send + Sync {
    /// Stable sink name for overhead reports.
    fn name(&self) -> &str;

    /// Consumes one event, returning the overhead charged for it.
    fn on_event(&self, event: &TraceEvent<'_>) -> Span;
}

/// The one hook→event mapping: each hook call is delivered to the sink
/// as the matching [`TraceEvent`], borrowing its payloads.
impl<S: TraceSink + ?Sized> Tracer for S {
    fn on_op(&self, pid: u32, batch_id: u64, name: &str, start: Time, dur: Span) -> Span {
        self.on_event(&TraceEvent::Op {
            pid,
            batch_id,
            name: Cow::Borrowed(name),
            start,
            dur,
        })
    }

    fn on_batch_preprocessed(&self, pid: u32, batch_id: u64, start: Time, dur: Span) -> Span {
        self.on_event(&TraceEvent::BatchPreprocessed {
            pid,
            batch_id,
            start,
            dur,
        })
    }

    fn on_batch_dispatched(
        &self,
        batch_id: u64,
        to_pid: u32,
        indices: &[u64],
        redispatch: bool,
        at: Time,
    ) -> Span {
        self.on_event(&TraceEvent::Dispatched {
            batch_id,
            to_pid,
            indices: Cow::Borrowed(indices),
            redispatch,
            at,
        })
    }

    fn on_batch_wait(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        out_of_order: bool,
        queue_delay: Span,
    ) -> Span {
        self.on_event(&TraceEvent::BatchWait {
            pid,
            batch_id,
            start,
            dur,
            out_of_order,
            queue_delay,
        })
    }

    fn on_batch_consumed(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        batch_len: usize,
    ) -> Span {
        self.on_event(&TraceEvent::BatchConsumed {
            pid,
            batch_id,
            start,
            dur,
            batch_len,
        })
    }

    fn on_storage_read(&self, pid: u32, batch_id: u64, start: Time, read: &ReadOutcome) -> Span {
        self.on_event(&TraceEvent::StorageRead {
            pid,
            batch_id,
            start,
            read: *read,
        })
    }

    fn on_fault_injected(&self, pid: u32, batch_id: u64, op: &str, at: Time) -> Span {
        self.on_event(&TraceEvent::FaultInjected {
            pid,
            batch_id,
            op: Cow::Borrowed(op),
            at,
        })
    }

    fn on_worker_died(&self, pid: u32, at: Time) -> Span {
        self.on_event(&TraceEvent::WorkerDied { pid, at })
    }

    fn on_batch_redispatched(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.on_event(&TraceEvent::BatchRedispatched {
            batch_id,
            from_pid,
            to_pid,
            at,
        })
    }

    fn on_batch_stolen(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.on_event(&TraceEvent::BatchStolen {
            batch_id,
            from_pid,
            to_pid,
            at,
        })
    }

    fn on_lane_assigned(&self, batch_id: u64, lane: &str, to_pid: u32, at: Time) -> Span {
        self.on_event(&TraceEvent::LaneAssigned {
            batch_id,
            lane: Cow::Borrowed(lane),
            to_pid,
            at,
        })
    }

    fn on_prefetch_resized(&self, target: usize, at: Time) -> Span {
        self.on_event(&TraceEvent::PrefetchResized { target, at })
    }

    fn on_gauge(&self, name: &str, value: f64, at: Time) -> Span {
        self.on_event(&TraceEvent::Gauge {
            name: Cow::Borrowed(name),
            value,
            at,
        })
    }
}

/// A tracer that captures nothing and costs nothing (the "no profiler"
/// baseline of Table III).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_free() {
        let t = NullTracer;
        assert_eq!(
            t.on_op(1, 0, "X", Time::ZERO, Span::from_micros(5)),
            Span::ZERO
        );
        assert_eq!(
            t.on_batch_preprocessed(1, 0, Time::ZERO, Span::ZERO),
            Span::ZERO
        );
        assert_eq!(
            t.on_batch_wait(1, 0, Time::ZERO, Span::ZERO, false, Span::ZERO),
            Span::ZERO
        );
        assert_eq!(
            t.on_batch_consumed(1, 0, Time::ZERO, Span::ZERO, 8),
            Span::ZERO
        );
        assert_eq!(
            t.on_fault_injected(1, 0, "ToTensor", Time::ZERO),
            Span::ZERO
        );
        assert_eq!(
            t.on_batch_dispatched(0, 4243, &[0, 1], false, Time::ZERO),
            Span::ZERO
        );
        assert_eq!(
            t.on_storage_read(
                1,
                0,
                Time::ZERO,
                &lotus_sim::ReadOutcome {
                    tier: lotus_sim::StorageTier::ObjectStore,
                    span: Span::from_millis(4),
                    bytes: 100_000,
                    seek: false,
                    queue_depth: 1,
                }
            ),
            Span::ZERO
        );
        assert_eq!(t.on_worker_died(1, Time::ZERO), Span::ZERO);
        assert_eq!(t.on_batch_redispatched(0, 1, 2, Time::ZERO), Span::ZERO);
        assert_eq!(t.on_batch_stolen(0, 4243, 4244, Time::ZERO), Span::ZERO);
        assert_eq!(t.on_lane_assigned(0, "slow", 4244, Time::ZERO), Span::ZERO);
        assert_eq!(t.on_prefetch_resized(1, Time::ZERO), Span::ZERO);
        assert_eq!(
            t.on_gauge("queue_depth.data_queue", 3.0, Time::ZERO),
            Span::ZERO
        );
        assert_eq!(t.compute_dilation(), 1.0);
    }
}
