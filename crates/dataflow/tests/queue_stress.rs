//! Lost-wakeup stress regression for [`NativeQueue`]: eight threads
//! hammer a small bounded queue with the operations the native backend
//! uses, under a watchdog. Two producers block in `push` (the main
//! thread's index-queue sends), two retry `try_push` + `wait_not_full`
//! (the workers' data-queue commits), and four consumers poll with a
//! short `pop_timeout` (the main thread's status-check wait), so expiring
//! waits race the producers' notifies. A lost `not_full` wakeup parks a
//! blocking producer forever; the watchdog turns that hang into a test
//! failure instead of a stuck CI job. Exact item conservation is
//! asserted on top: every pushed item is received exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lotus_dataflow::{block_on, NativeQueue};

const PRODUCERS: usize = 4;
const CONSUMERS: usize = 4;
const ITEMS_PER_PRODUCER: u64 = 500;
/// Tells a consumer to exit, after every real item has been pushed.
const SENTINEL: u64 = u64::MAX;

#[test]
fn eight_threads_hammering_push_and_pop_timeout_never_hang_or_lose_items() {
    let queue: Arc<NativeQueue<u64>> = Arc::new(NativeQueue::new("stress", Some(4)));
    let received_sum = Arc::new(AtomicU64::new(0));
    let received_count = Arc::new(AtomicU64::new(0));

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let body = {
        let queue = Arc::clone(&queue);
        let received_sum = Arc::clone(&received_sum);
        let received_count = Arc::clone(&received_count);
        move || {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let queue = Arc::clone(&queue);
                    thread::spawn(move || {
                        for i in 0..ITEMS_PER_PRODUCER {
                            let mut item = (p as u64) * ITEMS_PER_PRODUCER + i;
                            if p % 2 == 0 {
                                block_on(queue.push(item));
                                continue;
                            }
                            // The worker's commit: refused on a full
                            // queue, it waits for space and retries.
                            while let Err(back) = block_on(queue.try_push(item)) {
                                item = back;
                                block_on(queue.wait_not_full(Duration::from_millis(10)));
                            }
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let received_sum = Arc::clone(&received_sum);
                    let received_count = Arc::clone(&received_count);
                    thread::spawn(move || loop {
                        match block_on(queue.pop_timeout(Duration::from_millis(1))) {
                            Some(SENTINEL) => break,
                            Some(item) => {
                                received_sum.fetch_add(item, Ordering::Relaxed);
                                received_count.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {}
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().expect("producer panicked");
            }
            for _ in 0..CONSUMERS {
                block_on(queue.push(SENTINEL));
            }
            for handle in consumers {
                handle.join().expect("consumer panicked");
            }
        }
    };
    let worker = thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });

    // The watchdog: a lost wakeup leaves a thread parked forever; fail
    // fast instead of hanging the suite.
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stress run hung — lost wakeup or deadlock in NativeQueue");
    worker.join().expect("stress harness panicked");

    let total = (PRODUCERS as u64) * ITEMS_PER_PRODUCER;
    let count = received_count.load(Ordering::Relaxed);
    assert_eq!(
        count, total,
        "item conservation violated: {count} received of {total} pushed"
    );
    // Sum check makes silent duplication+loss pairs visible too.
    let expected_sum: u64 = (0..total).sum();
    assert_eq!(received_sum.load(Ordering::Relaxed), expected_sum);
    assert_eq!(block_on(queue.len()), 0, "the queue should have drained");
}
