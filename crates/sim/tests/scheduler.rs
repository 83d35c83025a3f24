//! Integration tests for the simulation kernel: determinism, blocking
//! semantics, deadlock detection and panic propagation.

use std::sync::{Arc, Mutex};

use lotus_sim::{SimError, Simulation, Span, Time};

#[test]
fn virtual_time_advances_only_by_delays() {
    let mut sim = Simulation::new();
    sim.spawn("p", |ctx| async move {
        assert_eq!(ctx.now(), Time::ZERO);
        ctx.delay(Span::from_micros(7)).await;
        assert_eq!(ctx.now().as_nanos(), 7_000);
        ctx.delay(Span::ZERO).await;
        assert_eq!(ctx.now().as_nanos(), 7_000);
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.as_nanos(), 7_000);
    assert_eq!(report.processes, 1);
}

#[test]
fn events_at_equal_time_fire_in_spawn_order() {
    for _ in 0..5 {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..10 {
            let order = Arc::clone(&order);
            sim.spawn(format!("p{i}"), move |ctx| async move {
                ctx.delay(Span::from_millis(1)).await;
                order.lock().unwrap().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }
}

#[test]
fn queue_blocks_consumer_until_producer_pushes() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u64>("q", None);
    let tx = q.clone();
    sim.spawn("producer", move |ctx| async move {
        ctx.delay(Span::from_millis(10)).await;
        tx.push(&ctx, 42).await;
    });
    let observed = Arc::new(Mutex::new(None));
    let observed_w = Arc::clone(&observed);
    sim.spawn("consumer", move |ctx| async move {
        let v = q.pop(&ctx).await;
        *observed_w.lock().unwrap() = Some((v, ctx.now()));
    });
    sim.run().unwrap();
    let (v, at) = observed.lock().unwrap().unwrap();
    assert_eq!(v, 42);
    assert_eq!(at.as_nanos(), 10_000_000);
}

#[test]
fn bounded_queue_applies_backpressure() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u32>("bounded", Some(2));
    let tx = q.clone();
    let push_times = Arc::new(Mutex::new(Vec::new()));
    let push_times_w = Arc::clone(&push_times);
    sim.spawn("producer", move |ctx| async move {
        for i in 0..4 {
            tx.push(&ctx, i).await;
            push_times_w.lock().unwrap().push(ctx.now().as_nanos());
        }
    });
    sim.spawn("consumer", move |ctx| async move {
        for _ in 0..4 {
            ctx.delay(Span::from_millis(1)).await;
            let _ = q.pop(&ctx).await;
        }
    });
    sim.run().unwrap();
    let times = push_times.lock().unwrap().clone();
    // First two pushes are immediate; the rest wait for pops at 1 ms and 2 ms.
    assert_eq!(times, vec![0, 0, 1_000_000, 2_000_000]);
}

#[test]
fn queue_is_fifo_across_multiple_producers() {
    let mut sim = Simulation::new();
    let q = sim.queue::<(usize, u32)>("multi", None);
    for w in 0..4 {
        let q = q.clone();
        sim.spawn(format!("producer{w}"), move |ctx| async move {
            for i in 0..5 {
                ctx.delay(Span::from_micros(100 * (w as u64 + 1))).await;
                q.push(&ctx, (w, i)).await;
            }
        });
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_w = Arc::clone(&seen);
    sim.spawn("consumer", move |ctx| async move {
        for _ in 0..20 {
            let item = q.pop(&ctx).await;
            seen_w.lock().unwrap().push(item);
        }
    });
    sim.run().unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 20);
    // Per-producer order must be preserved even though arrivals interleave.
    for w in 0..4 {
        let per: Vec<u32> = seen
            .iter()
            .filter(|(p, _)| *p == w)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(per, vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn deadlock_is_reported_with_blocked_process_names() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("never", None);
    sim.spawn("starved", move |ctx| async move {
        let _ = q.pop(&ctx).await;
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].name, "starved");
            assert_eq!(blocked[0].waiting_on, "queue.pop");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn process_panic_aborts_the_run_with_context() {
    let mut sim = Simulation::new();
    sim.spawn("bomber", |ctx| async move {
        ctx.delay(Span::from_micros(1)).await;
        panic!("kaboom");
    });
    match sim.run() {
        Err(SimError::ProcessPanic { process, message }) => {
            assert_eq!(process, "bomber");
            assert!(message.contains("kaboom"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn dynamically_spawned_processes_run() {
    let mut sim = Simulation::new();
    let done = Arc::new(Mutex::new(Vec::new()));
    let done_w = Arc::clone(&done);
    sim.spawn("parent", move |ctx| async move {
        for i in 0..3 {
            let done = Arc::clone(&done_w);
            ctx.spawn(format!("child{i}"), move |cctx| async move {
                cctx.delay(Span::from_millis(i + 1)).await;
                done.lock().unwrap().push(i);
            });
        }
        ctx.delay(Span::from_millis(10)).await;
    });
    let report = sim.run().unwrap();
    assert_eq!(report.processes, 4);
    assert_eq!(*done.lock().unwrap(), vec![0, 1, 2]);
}

#[test]
fn identical_programs_produce_identical_schedules() {
    fn run_once() -> Vec<(u64, usize, u32)> {
        let mut sim = Simulation::new();
        let q = sim.queue::<(usize, u32)>("q", Some(3));
        let log = Arc::new(Mutex::new(Vec::new()));
        for w in 0..3 {
            let q = q.clone();
            sim.spawn(format!("p{w}"), move |ctx| async move {
                for i in 0..10 {
                    ctx.delay(Span::from_micros(((w as u64) * 37 + 13) % 91 + 1))
                        .await;
                    q.push(&ctx, (w, i)).await;
                }
            });
        }
        let log_w = Arc::clone(&log);
        sim.spawn("c", move |ctx| async move {
            for _ in 0..30 {
                let (w, i) = q.pop(&ctx).await;
                log_w.lock().unwrap().push((ctx.now().as_nanos(), w, i));
            }
        });
        sim.run().unwrap();
        let result = log.lock().unwrap().clone();
        result
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn dropping_an_unrun_simulation_does_not_hang() {
    let mut sim = Simulation::new();
    sim.spawn("never-started", |ctx| async move {
        ctx.delay(Span::from_secs(1)).await;
    });
    drop(sim);
}

#[test]
fn dropping_a_deadlocked_simulation_unwinds_blocked_threads() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("never", None);
    for i in 0..4 {
        let q = q.clone();
        sim.spawn(format!("blocked{i}"), move |ctx| async move {
            let _ = q.pop(&ctx).await;
        });
    }
    assert!(sim.run().is_err());
    drop(sim); // must drop every parked process without hanging
}

#[test]
fn every_process_runs_on_the_thread_that_runs_the_simulation() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("ping", Some(1));
    let seen = Arc::new(Mutex::new(Vec::new()));
    for p in 0..3u8 {
        let (q, seen) = (q.clone(), Arc::clone(&seen));
        sim.spawn(format!("p{p}"), move |ctx| async move {
            seen.lock().unwrap().push(std::thread::current().id());
            ctx.delay(Span::from_micros(u64::from(p) + 1)).await;
            q.push(&ctx, p).await;
            ctx.spawn(format!("child{p}"), move |cctx| async move {
                let _ = q.pop(&cctx).await;
                seen.lock().unwrap().push(std::thread::current().id());
            });
        });
    }
    sim.run().unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 6);
    let caller = std::thread::current().id();
    assert!(
        seen.iter().all(|&id| id == caller),
        "{seen:?} vs {caller:?}"
    );
}

/// Records the thread it is dropped on, and pops a queue as it goes: a
/// parked process's locals run their destructors against the kernel.
struct DropProbe {
    dropped_on: Arc<Mutex<Option<std::thread::ThreadId>>>,
    other: lotus_sim::Queue<u8>,
}

impl Drop for DropProbe {
    fn drop(&mut self) {
        let _ = self.other.try_pop();
        *self.dropped_on.lock().unwrap() = Some(std::thread::current().id());
    }
}

#[test]
fn dropping_a_simulation_drops_parked_processes_in_place() {
    let mut sim = Simulation::new();
    let never = sim.queue::<u8>("never", None);
    let other = sim.queue::<u8>("other", Some(1));
    let dropped_on = Arc::new(Mutex::new(None));
    let probe = DropProbe {
        dropped_on: Arc::clone(&dropped_on),
        other: other.clone(),
    };
    let tx = other.clone();
    sim.spawn("parked", move |ctx| async move {
        let _probe = probe;
        tx.push(&ctx, 1).await;
        let _ = never.pop(&ctx).await;
    });
    // Blocked on the full queue: the probe's pop wakes it as it drops.
    sim.spawn("pusher", move |ctx| async move {
        other.push(&ctx, 2).await;
    });
    assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
    assert_eq!(*dropped_on.lock().unwrap(), None);
    drop(sim);
    assert_eq!(
        *dropped_on.lock().unwrap(),
        Some(std::thread::current().id()),
        "the parked process is dropped by the caller, not unwound on a thread of its own"
    );
}

#[test]
fn try_pop_never_blocks() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("tp", None);
    let results = Arc::new(Mutex::new(Vec::new()));
    let results_w = Arc::clone(&results);
    let tx = q.clone();
    sim.spawn("p", move |ctx| async move {
        results_w.lock().unwrap().push(tx.try_pop());
        tx.push(&ctx, 9).await;
        results_w.lock().unwrap().push(tx.try_pop());
    });
    sim.run().unwrap();
    assert_eq!(*results.lock().unwrap(), vec![None, Some(9)]);
}

#[test]
fn pop_timeout_returns_none_when_nothing_arrives() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("quiet", None);
    let outcome = Arc::new(Mutex::new(None));
    let outcome_w = Arc::clone(&outcome);
    sim.spawn("poller", move |ctx| async move {
        let got = q.pop_timeout(&ctx, Span::from_millis(5)).await;
        *outcome_w.lock().unwrap() = Some((got, ctx.now().as_nanos()));
    });
    sim.run().unwrap();
    let (got, at) = outcome.lock().unwrap().take().unwrap();
    assert_eq!(got, None);
    assert_eq!(at, 5_000_000, "the poller gives up exactly at the deadline");
}

#[test]
fn pop_timeout_returns_items_that_arrive_in_time() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("timely", None);
    let tx = q.clone();
    sim.spawn("producer", move |ctx| async move {
        ctx.delay(Span::from_millis(2)).await;
        tx.push(&ctx, 77).await;
    });
    let outcome = Arc::new(Mutex::new(None));
    let outcome_w = Arc::clone(&outcome);
    sim.spawn("poller", move |ctx| async move {
        let got = q.pop_timeout(&ctx, Span::from_millis(5)).await;
        *outcome_w.lock().unwrap() = Some((got, ctx.now().as_nanos()));
    });
    sim.run().unwrap();
    let (got, at) = outcome.lock().unwrap().take().unwrap();
    assert_eq!(got, Some(77));
    assert_eq!(at, 2_000_000);
}

#[test]
fn pop_timeout_polling_loop_mirrors_pytorch_status_checks() {
    // The PyTorch main process polls the data queue every 5 s
    // (MP_STATUS_CHECK_INTERVAL); model three empty polls then success.
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("poll", None);
    let tx = q.clone();
    sim.spawn("slow-producer", move |ctx| async move {
        ctx.delay(Span::from_secs(12)).await;
        tx.push(&ctx, 1).await;
    });
    let polls = Arc::new(Mutex::new(0u32));
    let polls_w = Arc::clone(&polls);
    sim.spawn("main", move |ctx| async move {
        loop {
            *polls_w.lock().unwrap() += 1;
            if q.pop_timeout(&ctx, Span::from_secs(5)).await.is_some() {
                break;
            }
        }
    });
    sim.run().unwrap();
    assert_eq!(*polls.lock().unwrap(), 3, "two timeouts then a hit");
}

/// Runs N same-time processes under a controller prefix and returns the
/// order in which they executed plus the recorded decision log.
fn run_tied(prefix: Vec<usize>) -> (Vec<usize>, Vec<lotus_sim::DecisionRecord>) {
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for i in 0..3 {
        let order = Arc::clone(&order);
        sim.spawn(format!("p{i}"), move |ctx| async move {
            ctx.delay(Span::from_millis(1)).await;
            order.lock().unwrap().push(i);
        });
    }
    let guide = lotus_sim::GuidedController::new(prefix, 0);
    sim.set_controller(Arc::clone(&guide) as _);
    sim.run().unwrap();
    let executed = order.lock().unwrap().clone();
    (executed, guide.decisions())
}

#[test]
fn fifo_controller_matches_uncontrolled_order() {
    // An all-zeros prefix (the FIFO default) must reproduce spawn order.
    let (order, decisions) = run_tied(vec![]);
    assert_eq!(order, vec![0, 1, 2]);
    // Spawn wakes tie at t=0 and the delays tie at t=1ms: at least the
    // two three-way ties must have surfaced as decision points.
    assert!(decisions.iter().filter(|d| d.branches == 3).count() >= 2);
    assert!(decisions.iter().all(|d| d.taken == 0));
}

#[test]
fn controller_choice_reorders_tied_events() {
    // Picking index 2 at the first decision point runs p2's spawn first;
    // subsequent zeros keep FIFO for the rest, so p2 also delays first
    // and completes first.
    let (order, _) = run_tied(vec![2, 0, 0, 2]);
    assert_ne!(order, vec![0, 1, 2], "schedule choice must be observable");
}

#[test]
fn schedules_replay_deterministically() {
    let (first, d1) = run_tied(vec![1, 2, 0, 1]);
    let (second, d2) = run_tied(vec![1, 2, 0, 1]);
    assert_eq!(first, second);
    assert_eq!(d1, d2, "decision log (hashes included) must replay exactly");
}

#[test]
fn step_limit_aborts_livelocked_run() {
    let mut sim = Simulation::new();
    let q = sim.queue::<u8>("never", None);
    sim.spawn("poller", move |ctx| async move {
        loop {
            // Nothing ever arrives: an unbounded polling loop (livelock).
            let _ = q.pop_timeout(&ctx, Span::from_secs(5)).await;
        }
    });
    let guide = lotus_sim::GuidedController::new(vec![], 100);
    sim.set_controller(guide as _);
    match sim.run() {
        Err(SimError::StepLimit { steps }) => assert_eq!(steps, 101),
        other => panic!("expected StepLimit, got {other:?}"),
    }
}
