//! The simulated hardware profiler (Intel VTune / AMD uProf analog).
//!
//! Collects per-native-function hardware events, either exactly
//! ([`CollectionMode::Counting`], useful as ground truth in tests) or via a
//! **sampling driver** model ([`CollectionMode::Sampling`]) with the
//! artifacts the paper's LotusMap methodology has to work around:
//!
//! * the driver only samples every `sampling_interval` (10 ms in VTune
//!   user-mode sampling, 1 ms in uProf), so short-lived functions are
//!   captured only probabilistically (§IV-B's `C ≥ 1-(1-f/s)^n` formula);
//! * a sample taken shortly after a function boundary may be *skid*
//!   mis-attributed to the previous function (the paper attributes this to
//!   out-of-order execution) unless a time gap — the `sleep()` trick —
//!   separates the two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use lotus_sim::{Span, Time};

use crate::cost::KernelCost;
use crate::events::HwEvents;
use crate::kernels::KernelId;
use crate::machine::Machine;
use crate::thread::Invocation;

/// How the profiler turns kernel invocations into per-function data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionMode {
    /// Attribute events exactly, per invocation. No sampling artifacts.
    Counting,
    /// Event-based sampling on a fixed time grid with attribution skid.
    Sampling,
}

/// Configuration for a [`HwProfiler`] session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Sampling grid period (ignored in counting mode).
    pub sampling_interval: Span,
    /// Attribution skid window: samples landing within this span after a
    /// function boundary (with no idle gap before it) are charged to the
    /// previous function.
    pub skid: Span,
    /// Collection mode.
    pub mode: CollectionMode,
    /// Whether the session starts paused (resume explicitly, as the
    /// ITT / AMDProfileControl isolation flow in the paper's Listing 4
    /// does).
    pub start_paused: bool,
}

impl ProfilerConfig {
    /// VTune-like sampling session: 10 ms interval, 120 µs skid, starts
    /// paused for collection control.
    #[must_use]
    pub fn vtune_sampling() -> ProfilerConfig {
        ProfilerConfig {
            sampling_interval: Span::from_millis(10),
            skid: Span::from_micros(120),
            mode: CollectionMode::Sampling,
            start_paused: true,
        }
    }

    /// uProf-like sampling session: 1 ms interval.
    #[must_use]
    pub fn uprof_sampling() -> ProfilerConfig {
        ProfilerConfig {
            sampling_interval: Span::from_millis(1),
            skid: Span::from_micros(120),
            mode: CollectionMode::Sampling,
            start_paused: true,
        }
    }

    /// Exact counting session, collecting from the start.
    #[must_use]
    pub fn counting() -> ProfilerConfig {
        ProfilerConfig {
            sampling_interval: Span::from_millis(10),
            skid: Span::ZERO,
            mode: CollectionMode::Counting,
            start_paused: false,
        }
    }
}

/// Accumulated statistics for one native function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FnStats {
    /// Number of samples attributed (sampling mode only).
    pub samples: u64,
    /// Estimated CPU time attributed to the function.
    pub cpu_time: Span,
    /// Hardware events attributed to the function.
    pub events: HwEvents,
}

/// One row of a profiler report: a native function with its attributed
/// statistics (the analog of one row of VTune's µarch-exploration view
/// grouped by function).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Function symbol name.
    pub name: String,
    /// Library the symbol belongs to.
    pub library: String,
    /// Attributed statistics.
    pub stats: FnStats,
}

#[derive(Debug, Default)]
struct ProfilerState {
    per_fn: HashMap<KernelId, FnStats>,
    total_samples: u64,
}

/// A hardware profiling session.
///
/// Shared (via `Arc`) between the workload threads that report kernel
/// invocations and the harness that controls collection. The
/// `resume`/`pause`/`detach` methods mirror the ITT (Intel) and
/// AMDProfileControl (AMD) collection-control APIs used by LotusMap.
#[derive(Debug)]
pub struct HwProfiler {
    config: ProfilerConfig,
    collecting: AtomicBool,
    detached: AtomicBool,
    state: Mutex<ProfilerState>,
}

impl HwProfiler {
    /// Creates a new profiling session.
    #[must_use]
    pub fn new(config: ProfilerConfig) -> HwProfiler {
        HwProfiler {
            collecting: AtomicBool::new(!config.start_paused),
            detached: AtomicBool::new(false),
            config,
            state: Mutex::new(ProfilerState::default()),
        }
    }

    /// The per-function totals. A panic while they are held leaves at
    /// worst one invocation's samples partly counted, so a poisoned lock
    /// is recovered rather than propagated.
    fn state(&self) -> MutexGuard<'_, ProfilerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Resumes collection (ITT `itt.resume()` / uProf `amd.resume(1)`).
    /// No-op after [`HwProfiler::detach`].
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

    /// Records one kernel invocation `[start, start + cost.elapsed)`.
    ///
    /// `recent` is the short history of prior invocations on the same
    /// hardware thread (oldest first); it feeds the skid model.
    pub fn record(&self, recent: &[Invocation], kernel: KernelId, start: Time, cost: &KernelCost) {
        if !self.is_collecting() {
            return;
        }
        match self.config.mode {
            CollectionMode::Counting => {
                let mut st = self.state();
                let entry = st.per_fn.entry(kernel).or_default();
                entry.cpu_time += cost.elapsed;
                entry.events += cost.events;
            }
            CollectionMode::Sampling => self.record_sampled(recent, kernel, start, cost),
        }
    }

    fn record_sampled(
        &self,
        recent: &[Invocation],
        kernel: KernelId,
        start: Time,
        cost: &KernelCost,
    ) {
        let interval = self.config.sampling_interval.as_nanos();
        debug_assert!(interval > 0, "sampling interval must be positive");
        let begin = start.as_nanos();
        let end = begin + cost.elapsed.as_nanos();
        let first = begin.div_ceil(interval) * interval;
        if first >= end {
            return;
        }
        // Event rate over the invocation, charged per sampled interval.
        let duration = cost.elapsed.as_nanos().max(1) as f64;
        let per_sample = cost.events * (interval as f64 / duration);
        let skid = self.config.skid.as_nanos();
        let mut st = self.state();
        let mut ts = first;
        while ts < end {
            // Skid: the sampled instruction pointer lags the sampling
            // event, so a sample taken shortly after a function boundary
            // is attributed to whatever was executing `skid` earlier — a
            // prior function if it ran back-to-back, nothing (no
            // misattribution) across an idle `sleep()` gap.
            let mut attributed = kernel;
            if ts - begin < skid {
                let lookback = ts.saturating_sub(skid);
                if let Some(inv) = recent
                    .iter()
                    .rev()
                    .find(|inv| inv.start.as_nanos() <= lookback && lookback < inv.end.as_nanos())
                {
                    attributed = inv.kernel;
                }
            }
            let entry = st.per_fn.entry(attributed).or_default();
            entry.samples += 1;
            entry.cpu_time += self.config.sampling_interval;
            entry.events += per_sample;
            st.total_samples += 1;
            ts += interval;
        }
    }

    /// Total number of samples taken (sampling mode).
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.state().total_samples
    }

    /// Produces the per-function report, most CPU time first, resolving
    /// kernel names through `machine`'s registry.
    #[must_use]
    pub fn report(&self, machine: &Machine) -> Vec<FunctionProfile> {
        let st = self.state();
        let mut rows: Vec<FunctionProfile> = st
            .per_fn
            .iter()
            .map(|(&id, &stats)| {
                let spec = machine.kernel_spec(id);
                FunctionProfile {
                    name: spec.name,
                    library: spec.library,
                    stats,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.stats
                .cpu_time
                .cmp(&a.stats.cpu_time)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Clears accumulated data (collection state is unchanged).
    pub fn reset(&self) {
        let mut st = self.state();
        st.per_fn.clear();
        st.total_samples = 0;
    }
}

/// Formats a per-function report as a VTune-µarch-exploration-style text
/// table (grouped by function, most CPU time first).
#[must_use]
pub fn format_report(rows: &[FunctionProfile]) -> String {
    let mut out = format!(
        "{:<38} {:<40} {:>8} {:>12} {:>8} {:>10} {:>12}
",
        "Function", "Module", "samples", "CPU (s)", "IPC", "FE-bound%", "DRAM-bound%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<38} {:<40} {:>8} {:>12.3} {:>8.2} {:>10.2} {:>12.2}
",
            r.name,
            r.library,
            r.stats.samples,
            r.stats.cpu_time.as_secs_f64(),
            r.stats.events.ipc(),
            r.stats.events.frontend_bound_fraction() * 100.0,
            r.stats.events.dram_bound_fraction() * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::evaluate;
    use crate::kernels::CostCoeffs;
    use crate::machine::MachineConfig;

    fn mk_cost(elapsed_ns: u64) -> KernelCost {
        KernelCost {
            elapsed: Span::from_nanos(elapsed_ns),
            events: HwEvents {
                clockticks: elapsed_ns as f64,
                ..HwEvents::ZERO
            },
        }
    }

    #[test]
    fn counting_mode_is_exact() {
        let machine = Machine::new(MachineConfig::default());
        let k = machine.kernel("f", "lib", CostCoeffs::compute_default());
        let prof = HwProfiler::new(ProfilerConfig::counting());
        let cost = evaluate(
            machine.config(),
            &CostCoeffs::compute_default(),
            1000.0,
            0.0,
        );
        prof.record(&[], k, Time::ZERO, &cost);
        prof.record(&[], k, Time::from_nanos(500), &cost);
        let report = prof.report(&machine);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "f");
        assert_eq!(report[0].stats.cpu_time, cost.elapsed * 2);
        assert!(
            (report[0].stats.events.instructions - 2.0 * cost.events.instructions).abs() < 1e-9
        );
    }

    #[test]
    fn paused_profiler_records_nothing() {
        let machine = Machine::new(MachineConfig::default());
        let k = machine.kernel("f", "lib", CostCoeffs::compute_default());
        let prof = HwProfiler::new(ProfilerConfig::vtune_sampling());
        assert!(!prof.is_collecting());
        prof.record(&[], k, Time::ZERO, &mk_cost(100_000_000));
        assert!(prof.report(&machine).is_empty());
        prof.resume();
        assert!(prof.is_collecting());
        prof.detach();
        assert!(!prof.is_collecting());
        prof.resume(); // detached: stays off
        assert!(!prof.is_collecting());
    }

    #[test]
    fn sampling_hits_grid_points_only() {
        let machine = Machine::new(MachineConfig::default());
        let k = machine.kernel("long", "lib", CostCoeffs::compute_default());
        let mut config = ProfilerConfig::vtune_sampling();
        config.start_paused = false;
        let prof = HwProfiler::new(config);
        // 35 ms invocation starting at 2 ms: samples at 10, 20, 30 ms → 3.
        prof.record(&[], k, Time::from_nanos(2_000_000), &mk_cost(35_000_000));
        assert_eq!(prof.total_samples(), 3);
        let report = prof.report(&machine);
        assert_eq!(report[0].stats.samples, 3);
        assert_eq!(report[0].stats.cpu_time, Span::from_millis(30));
    }

    #[test]
    fn short_functions_straddling_no_grid_point_are_missed() {
        let machine = Machine::new(MachineConfig::default());
        let k = machine.kernel("short", "lib", CostCoeffs::compute_default());
        let mut config = ProfilerConfig::vtune_sampling();
        config.start_paused = false;
        let prof = HwProfiler::new(config);
        // 600 µs invocation at 1 ms: entirely between grid points.
        prof.record(&[], k, Time::from_nanos(1_000_000), &mk_cost(600_000));
        assert_eq!(prof.total_samples(), 0);
        assert!(prof.report(&machine).is_empty());
    }

    #[test]
    fn skid_misattributes_to_previous_back_to_back_function() {
        let machine = Machine::new(MachineConfig::default());
        let a = machine.kernel("prev_fn", "lib", CostCoeffs::compute_default());
        let b = machine.kernel("curr_fn", "lib", CostCoeffs::compute_default());
        let mut config = ProfilerConfig::vtune_sampling();
        config.start_paused = false;
        let prof = HwProfiler::new(config);
        // `b` starts 50 µs before the 10 ms grid point, right after `a`.
        let b_start = Time::from_nanos(10_000_000 - 50_000);
        let history = [Invocation {
            kernel: a,
            start: Time::from_nanos(5_000_000),
            end: b_start,
        }];
        prof.record(&history, b, b_start, &mk_cost(2_000_000));
        let report = prof.report(&machine);
        assert_eq!(report.len(), 1);
        assert_eq!(
            report[0].name, "prev_fn",
            "sample should skid to the previous function"
        );
    }

    #[test]
    fn sleep_gap_defeats_skid() {
        let machine = Machine::new(MachineConfig::default());
        let a = machine.kernel("prev_fn", "lib", CostCoeffs::compute_default());
        let b = machine.kernel("curr_fn", "lib", CostCoeffs::compute_default());
        let mut config = ProfilerConfig::vtune_sampling();
        config.start_paused = false;
        let prof = HwProfiler::new(config);
        // `b` starts 50 µs before the 10 s grid point; `a` ended 1 s
        // earlier (the paper's sleep() trick).
        let b_start = Time::from_nanos(10_000_000_000 - 50_000);
        let a_end = Time::from_nanos(b_start.as_nanos() - 1_000_000_000);
        let history = [Invocation {
            kernel: a,
            start: Time::from_nanos(0),
            end: a_end,
        }];
        prof.record(&history, b, b_start, &mk_cost(2_000_000));
        let report = prof.report(&machine);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "curr_fn");
    }

    #[test]
    fn report_formatting_lists_functions_in_cpu_order() {
        let machine = Machine::new(MachineConfig::default());
        let hot = machine.kernel("hot_fn", "libhot.so", CostCoeffs::compute_default());
        let cold = machine.kernel("cold_fn", "libcold.so", CostCoeffs::compute_default());
        let prof = HwProfiler::new(ProfilerConfig::counting());
        prof.record(&[], cold, Time::ZERO, &mk_cost(1_000));
        prof.record(&[], hot, Time::ZERO, &mk_cost(9_000_000));
        let text = format_report(&prof.report(&machine));
        let hot_at = text.find("hot_fn").unwrap();
        let cold_at = text.find("cold_fn").unwrap();
        assert!(hot_at < cold_at, "hotter function first");
        assert!(text.contains("libhot.so"));
    }

    #[test]
    fn reset_clears_data_but_not_collection_state() {
        let machine = Machine::new(MachineConfig::default());
        let k = machine.kernel("f", "lib", CostCoeffs::compute_default());
        let prof = HwProfiler::new(ProfilerConfig::counting());
        prof.record(&[], k, Time::ZERO, &mk_cost(1_000));
        assert!(!prof.report(&machine).is_empty());
        prof.reset();
        assert!(prof.report(&machine).is_empty());
        assert!(prof.is_collecting());
    }
}
