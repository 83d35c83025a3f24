//! Property-based tests for the simulation kernel: time arithmetic,
//! queue conservation and schedule determinism under arbitrary programs.

use std::sync::{Arc, Mutex};

use lotus_sim::{Simulation, Span, Time};
use proptest::prelude::*;

proptest! {
    #[test]
    fn span_addition_is_associative_and_commutative(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40) {
        let (a, b, c) = (Span::from_nanos(a), Span::from_nanos(b), Span::from_nanos(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn time_plus_span_round_trips(t in 0u64..1 << 40, d in 0u64..1 << 40) {
        let time = Time::from_nanos(t);
        let span = Span::from_nanos(d);
        prop_assert_eq!((time + span) - span, time);
        prop_assert_eq!((time + span) - time, span);
    }

    #[test]
    fn span_scaling_matches_integer_math(ns in 0u64..1 << 30, k in 0u64..1024) {
        prop_assert_eq!(Span::from_nanos(ns) * k, Span::from_nanos(ns * k));
        if k > 0 {
            prop_assert_eq!(Span::from_nanos(ns * k) / k, Span::from_nanos(ns));
        }
    }

    #[test]
    fn mul_f64_is_monotone(ns in 1u64..1 << 40, f1 in 0.0f64..8.0, f2 in 0.0f64..8.0) {
        let s = Span::from_nanos(ns);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(s.mul_f64(lo) <= s.mul_f64(hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Queues never lose or duplicate messages, under arbitrary
    /// producer/consumer counts, capacities and per-message delays.
    #[test]
    fn queues_conserve_messages(
        producers in 1usize..5,
        per_producer in 1usize..30,
        capacity in prop::option::of(1usize..8),
        delays in prop::collection::vec(0u64..5_000, 1..20),
    ) {
        let mut sim = Simulation::new();
        let q = sim.queue::<(usize, usize)>("prop", capacity);
        for p in 0..producers {
            let q = q.clone();
            let delays = delays.clone();
            sim.spawn(format!("producer{p}"), move |ctx| async move {
                for i in 0..per_producer {
                    ctx.delay(Span::from_nanos(delays[(p * 7 + i) % delays.len()])).await;
                    q.push(&ctx, (p, i)).await;
                }
            });
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_w = Arc::clone(&seen);
        let total = producers * per_producer;
        sim.spawn("consumer", move |ctx| async move {
            for _ in 0..total {
                let item = q.pop(&ctx).await;
                seen_w.lock().unwrap().push(item);
            }
        });
        sim.run().unwrap();
        let mut seen = seen.lock().unwrap().clone();
        prop_assert_eq!(seen.len(), total);
        // Per-producer FIFO order is preserved.
        for p in 0..producers {
            let per: Vec<usize> = seen.iter().filter(|(pp, _)| *pp == p).map(|(_, i)| *i).collect();
            prop_assert_eq!(per, (0..per_producer).collect::<Vec<_>>());
        }
        // Exactly-once delivery.
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), total);
    }

    /// Two executions of the same arbitrary program produce the same
    /// virtual end time.
    #[test]
    fn schedules_are_deterministic(
        workers in 1usize..6,
        delays in prop::collection::vec(1u64..100_000, 1..12),
    ) {
        let run = || {
            let mut sim = Simulation::new();
            let q = sim.queue::<u64>("d", Some(2));
            for w in 0..workers {
                let q = q.clone();
                let delays = delays.clone();
                sim.spawn(format!("w{w}"), move |ctx| async move {
                    for (i, &d) in delays.iter().enumerate() {
                        ctx.delay(Span::from_nanos(d * (w as u64 + 1))).await;
                        q.push(&ctx, (w * 100 + i) as u64).await;
                    }
                });
            }
            let total = workers * delays.len();
            let q2 = q.clone();
            sim.spawn("sink", move |ctx| async move {
                for _ in 0..total {
                    let _ = q2.pop(&ctx).await;
                }
            });
            sim.run().unwrap().end_time.as_nanos()
        };
        prop_assert_eq!(run(), run());
    }

}
