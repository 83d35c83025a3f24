//! OS-level sampling profiler for the native backend.
//!
//! [`NativeSampler`] periodically scrapes `/proc/self/task/*` for
//! per-thread on-CPU time (`schedstat`), thread names (`comm`) and
//! voluntary/involuntary context switches (`status`), plus the process
//! RSS from `/proc/self/status` — the OS-level signals an external
//! profiler like VTune's or uProf's driver would read alongside its PMU
//! samples. It pairs with the cooperative per-kernel span feed
//! ([`KernelSpanFeed`]) the instrumented kernel entry points report to,
//! and honors the same `resume` / `pause` / `detach` collection-control
//! verbs.
//!
//! Off Linux (or in locked-down containers) `/proc` scraping degrades
//! gracefully to no-ops: ticks are still counted but carry no thread
//! rows, and every public API keeps working.
//!
//! Every scrape self-times itself; [`NativeSampler::overhead`] folds the
//! scrape cost together with the feed's recording cost so the bench
//! report can state exactly how much wall time profiling added.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lotus_core::metrics::MetricsRegistry;
use lotus_sim::{Span, Time};
use lotus_uarch::KernelSpanFeed;

/// Knobs of the OS-level sampler.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Sampling period; defaults to the 10 ms grid VTune uses (the
    /// AMD-side 1 ms grid is a fine choice for short runs).
    pub tick: Span,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            tick: Span::from_millis(10),
        }
    }
}

/// One thread's row inside a [`SamplerTick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    /// OS thread name (`/proc/self/task/<tid>/comm`), e.g. `dataloader0`.
    pub thread: String,
    /// Cumulative on-CPU time in nanoseconds (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Cumulative voluntary context switches.
    pub voluntary_switches: u64,
    /// Cumulative involuntary context switches.
    pub involuntary_switches: u64,
}

/// One periodic scrape of the process's OS-level counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerTick {
    /// Offset of the scrape from the sampler's epoch.
    pub at_ns: u64,
    /// Process resident set size in kB (`VmRSS`); 0 when unreadable.
    pub rss_kb: u64,
    /// Per-thread rows; empty when `/proc` is unavailable.
    pub threads: Vec<ThreadSample>,
}

/// Shared state between the sampler handle and its background thread.
#[derive(Debug)]
struct SamplerShared {
    feed: Arc<KernelSpanFeed>,
    epoch: Instant,
    stop: AtomicBool,
    /// One push per update: a poisoned lock still guards valid ticks.
    ticks: Mutex<Vec<SamplerTick>>,
    scrape_overhead_ns: AtomicU64,
}

impl SamplerShared {
    /// Scrapes `/proc` once and, when the feed is collecting, appends the
    /// tick. The scrape's own cost is accounted either way, because the
    /// reads happen before the collecting check is worth skipping.
    fn sample_once(&self) {
        if !self.feed.is_collecting() {
            return;
        }
        let entered = Instant::now();
        let at_ns = entered
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        let tick = SamplerTick {
            at_ns,
            rss_kb: read_rss_kb(Path::new("/proc/self/status")).unwrap_or(0),
            threads: read_thread_samples(Path::new("/proc/self/task")),
        };
        self.ticks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(tick);
        self.scrape_overhead_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The OS-level sampling profiler: a background thread on a fixed tick
/// plus the cooperative kernel-span feed.
///
/// ```no_run
/// use lotus_profilers::{NativeSampler, SamplerConfig};
///
/// let mut sampler = NativeSampler::new(SamplerConfig::default());
/// sampler.start();
/// // ... run the native backend with sampler.feed() attached ...
/// sampler.stop();
/// println!("{} ticks, {:?} overhead", sampler.ticks().len(), sampler.overhead());
/// ```
#[derive(Debug)]
pub struct NativeSampler {
    shared: Arc<SamplerShared>,
    tick: Duration,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl NativeSampler {
    /// Creates a sampler (collecting from the start) with its own feed.
    #[must_use]
    pub fn new(config: SamplerConfig) -> NativeSampler {
        NativeSampler::with_feed(config, Arc::new(KernelSpanFeed::new()))
    }

    /// Creates a sampler sharing an existing feed; the feed's
    /// collection-control state gates the sampler's ticks too, so one
    /// `resume`/`pause` toggles both signal sources.
    #[must_use]
    pub fn with_feed(config: SamplerConfig, feed: Arc<KernelSpanFeed>) -> NativeSampler {
        NativeSampler {
            shared: Arc::new(SamplerShared {
                feed,
                epoch: Instant::now(),
                stop: AtomicBool::new(false),
                ticks: Mutex::new(Vec::new()),
                scrape_overhead_ns: AtomicU64::new(0),
            }),
            tick: Duration::from_nanos(config.tick.as_nanos()),
            handle: None,
        }
    }

    /// The kernel-span feed paired with this sampler (attach it to the
    /// native backend).
    #[must_use]
    pub fn feed(&self) -> &Arc<KernelSpanFeed> {
        &self.shared.feed
    }

    /// Spawns the background sampling thread. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    // A sampler without its thread would report zero ticks as if it had
    // run; the profiled run must not go on with a silent empty profile.
    #[allow(clippy::expect_used)]
    pub fn start(&mut self) {
        if self.handle.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let tick = self.tick;
        self.handle = Some(
            std::thread::Builder::new()
                .name("lotus-sampler".to_string())
                .spawn(move || {
                    while !shared.stop.load(Ordering::Acquire) {
                        shared.sample_once();
                        std::thread::sleep(tick);
                    }
                })
                .expect("failed to spawn sampler thread"),
        );
    }

    /// Stops and joins the background thread. Idempotent; collected
    /// ticks stay available.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Takes one scrape immediately on the calling thread (tests and
    /// one-shot snapshots).
    pub fn sample_now(&self) {
        self.shared.sample_once();
    }

    /// Resumes collection (forwards to the shared feed).
    pub fn resume(&self) {
        self.shared.feed.resume();
    }

    /// Pauses collection (forwards to the shared feed).
    pub fn pause(&self) {
        self.shared.feed.pause();
    }

    /// Detaches collection permanently (forwards to the shared feed).
    pub fn detach(&self) {
        self.shared.feed.detach();
    }

    /// The ticks collected so far.
    #[must_use]
    pub fn ticks(&self) -> Vec<SamplerTick> {
        self.shared
            .ticks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Total profiling overhead: the sampler's scrape time plus the
    /// feed's recording time — the self-accounted cost the bench report
    /// discloses.
    #[must_use]
    pub fn overhead(&self) -> Span {
        Span::from_nanos(self.shared.scrape_overhead_ns.load(Ordering::Relaxed))
            + self.shared.feed.overhead()
    }

    /// Streams the collected ticks into `registry` as gauge series:
    /// `sampler_rss_kb`, and per thread `sampler_thread_cpu_ns.<thread>`,
    /// `sampler_ctx_switches_voluntary.<thread>` /
    /// `sampler_ctx_switches_involuntary.<thread>` — picked up by the
    /// Prometheus/JSON/CSV exporters and `lotus top`.
    pub fn gauges_into(&self, registry: &MetricsRegistry) {
        for tick in self.ticks() {
            let at = Time::ZERO + Span::from_nanos(tick.at_ns);
            registry.set_gauge("sampler_rss_kb", at, tick.rss_kb as f64);
            for t in &tick.threads {
                registry.set_gauge(
                    &format!("sampler_thread_cpu_ns.{}", t.thread),
                    at,
                    t.cpu_ns as f64,
                );
                registry.set_gauge(
                    &format!("sampler_ctx_switches_voluntary.{}", t.thread),
                    at,
                    t.voluntary_switches as f64,
                );
                registry.set_gauge(
                    &format!("sampler_ctx_switches_involuntary.{}", t.thread),
                    at,
                    t.involuntary_switches as f64,
                );
            }
        }
    }
}

impl Drop for NativeSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Parses `VmRSS:  <n> kB` out of a `/proc/<pid>/status` file.
fn read_rss_kb(status: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(status).ok()?;
    parse_status_field(&text, "VmRSS:")
}

/// Extracts the first integer after `key` in a status-format file.
fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l[key.len()..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Scrapes every thread under a `/proc/<pid>/task` directory. Threads
/// that vanish mid-scrape (or unreadable files) are skipped silently.
fn read_thread_samples(task_dir: &Path) -> Vec<ThreadSample> {
    let Ok(entries) = std::fs::read_dir(task_dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        // schedstat: "<on-cpu ns> <runqueue wait ns> <timeslices>"
        let cpu_ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0);
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        out.push(ThreadSample {
            thread: comm.trim().to_string(),
            cpu_ns,
            voluntary_switches: parse_status_field(&status, "voluntary_ctxt_switches:")
                .unwrap_or(0),
            involuntary_switches: parse_status_field(&status, "nonvoluntary_ctxt_switches:")
                .unwrap_or(0),
        });
    }
    out.sort_by(|a, b| a.thread.cmp(&b.thread));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_and_tolerate_garbage() {
        let text = "Name:\tx\nVmRSS:\t  123456 kB\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(parse_status_field(text, "VmRSS:"), Some(123_456));
        assert_eq!(
            parse_status_field(text, "voluntary_ctxt_switches:"),
            Some(42)
        );
        assert_eq!(
            parse_status_field(text, "nonvoluntary_ctxt_switches:"),
            None
        );
        assert_eq!(parse_status_field("", "VmRSS:"), None);
    }

    #[test]
    fn missing_proc_degrades_to_empty_rows() {
        assert!(read_thread_samples(Path::new("/definitely/not/proc")).is_empty());
        assert_eq!(read_rss_kb(Path::new("/definitely/not/status")), None);
    }

    #[test]
    fn pause_gates_ticks_and_resume_restores_them() {
        let sampler = NativeSampler::new(SamplerConfig::default());
        sampler.pause();
        sampler.sample_now();
        assert!(sampler.ticks().is_empty());
        sampler.resume();
        sampler.sample_now();
        assert_eq!(sampler.ticks().len(), 1);
        sampler.detach();
        sampler.resume(); // detached: stays off
        sampler.sample_now();
        assert_eq!(sampler.ticks().len(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_scrape_sees_this_thread_and_accounts_overhead() {
        let sampler = NativeSampler::new(SamplerConfig::default());
        // Burn a little CPU so schedstat has something to report.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        assert!(acc > 0);
        sampler.sample_now();
        let ticks = sampler.ticks();
        assert_eq!(ticks.len(), 1);
        assert!(!ticks[0].threads.is_empty(), "task dir should list threads");
        assert!(ticks[0].rss_kb > 0, "VmRSS should be readable");
        assert!(sampler.overhead() > Span::ZERO);
    }

    #[test]
    fn background_thread_collects_and_stops() {
        let mut sampler = NativeSampler::new(SamplerConfig {
            tick: Span::from_millis(1),
        });
        sampler.start();
        sampler.start(); // idempotent
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        let n = sampler.ticks().len();
        assert!(n >= 1, "expected at least one tick, got {n}");
        // Stopped: no further ticks accumulate.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sampler.ticks().len(), n);
    }

    #[test]
    fn gauges_land_in_the_registry() {
        use lotus_core::metrics::MetricsRegistry;
        let sampler = NativeSampler::new(SamplerConfig::default());
        sampler.shared.ticks.lock().unwrap().push(SamplerTick {
            at_ns: 5_000,
            rss_kb: 77,
            threads: vec![ThreadSample {
                thread: "dataloader0".to_string(),
                cpu_ns: 1_234,
                voluntary_switches: 3,
                involuntary_switches: 1,
            }],
        });
        let registry = MetricsRegistry::new();
        sampler.gauges_into(&registry);
        let snap = registry.snapshot();
        let gauge = |name: &str| snap.gauges.get(name).and_then(|s| s.last());
        assert_eq!(gauge("sampler_rss_kb"), Some(77.0));
        assert_eq!(gauge("sampler_thread_cpu_ns.dataloader0"), Some(1_234.0));
        assert_eq!(
            gauge("sampler_ctx_switches_voluntary.dataloader0"),
            Some(3.0)
        );
        assert_eq!(
            gauge("sampler_ctx_switches_involuntary.dataloader0"),
            Some(1.0)
        );
    }
}
