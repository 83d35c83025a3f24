//! Cooperative wall-clock kernel sample feed for the native backend.
//!
//! The simulated [`HwProfiler`](crate::HwProfiler) observes kernel
//! executions through the cost model; on the native backend the real
//! compute happens in plain Rust code whose duration the cost model never
//! sees. Kernel entry points in `lotus-codec` and `lotus-transforms`
//! wrap that real compute in [`CpuThread::observe_native`]
//! (crate::CpuThread::observe_native), which times it with a monotonic
//! clock and reports the span here — the software analogue of the
//! ITT/AMDProfileControl instrumentation APIs the paper drives VTune and
//! uProf with.
//!
//! The feed honors the same collection-control verbs as the simulated
//! profiler (`resume` / `pause` / `detach`, with `resume` a no-op after
//! `detach`), so LotusMap's isolation harness works identically on both
//! substrates. Every recording self-accounts its own cost into
//! [`KernelSpanFeed::overhead`], feeding the bench report's profiler
//! overhead line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use lotus_sim::Span;

use crate::events::HwEvents;
use crate::kernels::KernelId;
use crate::machine::Machine;
use crate::profiler::{FnStats, FunctionProfile};

/// One observed real-compute span of a native kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSample {
    /// The kernel whose real compute was timed.
    pub kernel: KernelId,
    /// The high-level operation executing when the kernel ran (e.g.
    /// `"Loader"`, `"RandomResizedCrop"`), when one was in context.
    pub op: Option<String>,
    /// Name of the OS thread the kernel ran on (e.g. `"dataloader0"`).
    pub thread: String,
    /// Wall offset of the kernel's start from the feed's epoch.
    pub start_ns: u64,
    /// Measured wall duration of the real compute.
    pub elapsed_ns: u64,
}

/// A shared collector of [`KernelSample`]s with profiler-style
/// collection control.
#[derive(Debug)]
pub struct KernelSpanFeed {
    epoch: Instant,
    collecting: AtomicBool,
    detached: AtomicBool,
    samples: Mutex<Vec<KernelSample>>,
    overhead_ns: AtomicU64,
}

impl KernelSpanFeed {
    /// Creates a feed that is collecting from the start (whole-run
    /// profiling, `lotus run --profile`).
    #[must_use]
    pub fn new() -> KernelSpanFeed {
        KernelSpanFeed::with_collecting(true)
    }

    /// Creates a paused feed (isolation harnesses resume it around the
    /// iteration of interest, Listing 4 style).
    #[must_use]
    pub fn new_paused() -> KernelSpanFeed {
        KernelSpanFeed::with_collecting(false)
    }

    fn with_collecting(collecting: bool) -> KernelSpanFeed {
        KernelSpanFeed {
            epoch: Instant::now(),
            collecting: AtomicBool::new(collecting),
            detached: AtomicBool::new(false),
            samples: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// The held samples. Every update under the lock is one push or
    /// drain, so a panic elsewhere cannot leave them half-written.
    fn samples(&self) -> MutexGuard<'_, Vec<KernelSample>> {
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resumes collection (ITT `itt.resume()`); no-op once detached.
    pub fn resume(&self) {
        if !self.detached.load(Ordering::Relaxed) {
            self.collecting.store(true, Ordering::Relaxed);
        }
    }

    /// Pauses collection (uProf `amd.pause(1)`).
    pub fn pause(&self) {
        self.collecting.store(false, Ordering::Relaxed);
    }

    /// Detaches the collector permanently (ITT `itt.detach()`).
    pub fn detach(&self) {
        self.detached.store(true, Ordering::Relaxed);
        self.collecting.store(false, Ordering::Relaxed);
    }

    /// True while samples are being collected.
    #[must_use]
    pub fn is_collecting(&self) -> bool {
        self.collecting.load(Ordering::Relaxed)
    }

    /// Records one observed kernel span that started at `start` and ran
    /// for `elapsed_ns` of wall time. The recording's own cost (the lock
    /// push plus this bookkeeping) is measured and added to the feed's
    /// overhead, never to the sample.
    pub fn record(&self, kernel: KernelId, op: Option<&str>, start: Instant, elapsed_ns: u64) {
        if !self.is_collecting() {
            return;
        }
        let entered = Instant::now();
        let start_ns = start
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        let thread = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        self.samples().push(KernelSample {
            kernel,
            op: op.map(str::to_string),
            thread,
            start_ns,
            elapsed_ns,
        });
        self.overhead_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples().len()
    }

    /// True when no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns every held sample (isolation harnesses drain
    /// per run; whole-run profiling drains once at the end).
    #[must_use]
    pub fn take_samples(&self) -> Vec<KernelSample> {
        std::mem::take(&mut *self.samples())
    }

    /// Total measured cost of the feed's own recording path.
    #[must_use]
    pub fn overhead(&self) -> Span {
        Span::from_nanos(self.overhead_ns.load(Ordering::Relaxed))
    }

    /// Folds held samples into per-op function profiles: for each op, the
    /// observed kernels with their sample counts and total wall time,
    /// most time first — the native analogue of
    /// [`HwProfiler::report`](crate::HwProfiler::report), grouped by op.
    /// Samples with no op context fold under `"(none)"`.
    #[must_use]
    pub fn per_op_function_totals(
        &self,
        machine: &Machine,
    ) -> BTreeMap<String, Vec<FunctionProfile>> {
        let samples = self.samples();
        let mut per_op: BTreeMap<(String, KernelId), FnStats> = BTreeMap::new();
        for s in samples.iter() {
            let op = s.op.clone().unwrap_or_else(|| "(none)".to_string());
            let stats = per_op.entry((op, s.kernel)).or_default();
            stats.samples += 1;
            stats.cpu_time += Span::from_nanos(s.elapsed_ns);
            stats.events += HwEvents::ZERO;
        }
        drop(samples);
        let mut out: BTreeMap<String, Vec<FunctionProfile>> = BTreeMap::new();
        for ((op, kernel), stats) in per_op {
            let spec = machine.kernel_spec(kernel);
            out.entry(op).or_default().push(FunctionProfile {
                name: spec.name,
                library: spec.library,
                stats,
            });
        }
        for rows in out.values_mut() {
            rows.sort_by(|a, b| {
                b.stats
                    .cpu_time
                    .cmp(&a.stats.cpu_time)
                    .then_with(|| a.name.cmp(&b.name))
            });
        }
        out
    }
}

impl Default for KernelSpanFeed {
    fn default() -> Self {
        KernelSpanFeed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CostCoeffs;
    use crate::machine::MachineConfig;

    #[test]
    fn collection_control_mirrors_the_simulated_profiler() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("f", "lib", CostCoeffs::compute_default());
        let feed = KernelSpanFeed::new_paused();
        assert!(!feed.is_collecting());
        feed.record(k, None, Instant::now(), 1_000);
        assert!(feed.is_empty());
        feed.resume();
        feed.record(k, None, Instant::now(), 1_000);
        assert_eq!(feed.len(), 1);
        feed.detach();
        feed.resume(); // detached: stays off
        assert!(!feed.is_collecting());
        feed.record(k, None, Instant::now(), 1_000);
        assert_eq!(feed.len(), 1);
    }

    #[test]
    fn samples_fold_into_per_op_totals_most_time_first() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let hot = machine.kernel("hot_fn", "lib", CostCoeffs::compute_default());
        let cold = machine.kernel("cold_fn", "lib", CostCoeffs::compute_default());
        let feed = KernelSpanFeed::new();
        let t = Instant::now();
        feed.record(hot, Some("Loader"), t, 5_000);
        feed.record(hot, Some("Loader"), t, 5_000);
        feed.record(cold, Some("Loader"), t, 1_000);
        feed.record(cold, Some("ToTensor"), t, 2_000);
        feed.record(cold, None, t, 3_000);
        let totals = feed.per_op_function_totals(&machine);
        let loader = &totals["Loader"];
        assert_eq!(loader.len(), 2);
        assert_eq!(loader[0].name, "hot_fn");
        assert_eq!(loader[0].stats.samples, 2);
        assert_eq!(loader[0].stats.cpu_time, Span::from_nanos(10_000));
        assert_eq!(loader[1].name, "cold_fn");
        assert_eq!(
            totals["ToTensor"][0].stats.cpu_time,
            Span::from_nanos(2_000)
        );
        assert_eq!(totals["(none)"][0].stats.cpu_time, Span::from_nanos(3_000));
    }

    #[test]
    fn take_samples_drains_and_overhead_accumulates() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("f", "lib", CostCoeffs::compute_default());
        let feed = KernelSpanFeed::new();
        feed.record(k, Some("Op"), Instant::now(), 42);
        let drained = feed.take_samples();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].elapsed_ns, 42);
        assert_eq!(drained[0].op.as_deref(), Some("Op"));
        assert!(feed.is_empty());
        assert!(feed.overhead() > Span::ZERO, "recording self-accounts");
    }
}
