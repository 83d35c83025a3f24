//! The simulated machine: CPU parameters and shared-resource load tracking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use lotus_sim::Span;

use crate::kernels::{CostCoeffs, KernelId, KernelRegistry, KernelSpec};

/// CPU vendor; selects the sampling-driver characteristics and which
/// vendor-specific library kernels (e.g. glibc memcpy variants) resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Intel: VTune semantics — 10 ms user-mode sampling interval.
    Intel,
    /// AMD: uProf semantics — 1 ms user-mode sampling interval.
    Amd,
}

impl Vendor {
    /// Default user-mode sampling interval of this vendor's profiler
    /// (10 ms for Intel VTune, 1 ms for AMD uProf — §IV-B of the paper).
    #[must_use]
    pub fn default_sampling_interval(self) -> Span {
        match self {
            Vendor::Intel => Span::from_millis(10),
            Vendor::Amd => Span::from_millis(1),
        }
    }
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::Intel => f.write_str("Intel"),
            Vendor::Amd => f.write_str("AMD"),
        }
    }
}

/// Static description of the simulated CPU.
///
/// The defaults model the paper's testbed: a dual-socket 3.2 GHz Intel Xeon
/// E5-2667 (CloudLab c4130) with 32 cores.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// CPU vendor.
    pub vendor: Vendor,
    /// Total hardware cores available for compute.
    pub cores: usize,
    /// Core frequency in GHz (cycles per nanosecond).
    pub freq_ghz: f64,
    /// Pipeline issue width (slots per cycle) for top-down accounting.
    pub issue_width: f64,
    /// L2 hit latency in cycles (services L1 misses).
    pub l2_latency: f64,
    /// LLC hit latency in cycles (services L2 misses).
    pub llc_latency: f64,
    /// Local-DRAM latency in cycles (services LLC misses).
    pub dram_latency: f64,
    /// Fraction of memory-stall cycles hidden by out-of-order overlap.
    pub mem_overlap: f64,
    /// Cycles to recover from one branch mispredict.
    pub mispredict_penalty: f64,
    /// Front-end slowdown per unit of machine load (shared fetch/decode and
    /// instruction-cache pressure as concurrent workers grow).
    pub fe_contention: f64,
    /// DRAM-latency inflation per unit of machine load (shared memory
    /// bandwidth).
    pub mem_contention: f64,
}

impl MachineConfig {
    /// The paper's Intel testbed (CloudLab c4130).
    #[must_use]
    pub fn cloudlab_c4130() -> MachineConfig {
        MachineConfig {
            vendor: Vendor::Intel,
            cores: 32,
            freq_ghz: 3.2,
            issue_width: 4.0,
            l2_latency: 12.0,
            llc_latency: 42.0,
            dram_latency: 220.0,
            mem_overlap: 0.65,
            mispredict_penalty: 16.0,
            fe_contention: 2.0,
            mem_contention: 0.55,
        }
    }

    /// An AMD variant of the testbed (for the uProf / AMDProfileControl
    /// side of LotusMap).
    #[must_use]
    pub fn amd_rome() -> MachineConfig {
        MachineConfig {
            vendor: Vendor::Amd,
            cores: 32,
            freq_ghz: 3.0,
            issue_width: 4.0,
            l2_latency: 13.0,
            llc_latency: 46.0,
            dram_latency: 240.0,
            mem_overlap: 0.65,
            mispredict_penalty: 18.0,
            fe_contention: 1.9,
            mem_contention: 0.6,
        }
    }

    /// Cycles per nanosecond.
    #[must_use]
    pub fn cycles_per_ns(&self) -> f64 {
        self.freq_ghz
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::cloudlab_c4130()
    }
}

/// A shared simulated machine: configuration, the native-kernel registry and
/// the instantaneous compute load used by the contention model.
///
/// One `Machine` is shared (via [`Arc`]) by every simulated process in a run;
/// workers report when they start and stop computing so that kernel costs can
/// reflect shared-resource contention.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    registry: RwLock<KernelRegistry>,
    active_threads: AtomicUsize,
}

impl Machine {
    /// Creates a machine with an empty kernel registry.
    #[must_use]
    pub fn new(config: MachineConfig) -> Arc<Machine> {
        Arc::new(Machine {
            config,
            registry: RwLock::new(KernelRegistry::new()),
            active_threads: AtomicUsize::new(0),
        })
    }

    /// The machine's static configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The kernel registry. Registration validates a spec before it
    /// inserts anything, so a panic cannot leave the registry
    /// half-written and a poisoned lock is recovered.
    fn registry(&self) -> RwLockReadGuard<'_, KernelRegistry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a native kernel (name, library, cost coefficients) and
    /// returns its id. Registering the same name twice returns the existing
    /// id (so independent transform instances can share kernels).
    pub fn register_kernel(&self, spec: KernelSpec) -> KernelId {
        self.registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(spec)
    }

    /// Convenience wrapper over [`Machine::register_kernel`].
    pub fn kernel(&self, name: &str, library: &str, cost: CostCoeffs) -> KernelId {
        self.register_kernel(KernelSpec {
            name: name.to_string(),
            library: library.to_string(),
            cost,
        })
    }

    /// Looks up a kernel's spec by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this machine.
    #[must_use]
    pub fn kernel_spec(&self, id: KernelId) -> KernelSpec {
        self.registry().spec(id).clone()
    }

    /// Looks up a kernel's cost coefficients by id, copying nothing else
    /// (the cost model's per-call lookup).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this machine.
    #[must_use]
    pub fn kernel_cost(&self, id: KernelId) -> CostCoeffs {
        self.registry().spec(id).cost
    }

    /// Looks up a kernel id by function name, if registered.
    #[must_use]
    pub fn kernel_by_name(&self, name: &str) -> Option<KernelId> {
        self.registry().by_name(name)
    }

    /// Number of registered kernels.
    #[must_use]
    pub fn kernel_count(&self) -> usize {
        self.registry().len()
    }

    /// Marks one more thread as actively computing.
    pub fn thread_started_compute(&self) {
        self.active_threads.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one thread as no longer computing.
    pub fn thread_stopped_compute(&self) {
        let prev = self.active_threads.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "thread_stopped_compute without matching start");
    }

    /// Number of threads currently computing.
    #[must_use]
    pub fn active_threads(&self) -> usize {
        self.active_threads.load(Ordering::Relaxed)
    }

    /// Instantaneous machine load in `[0, ∞)`: the fraction of cores busy.
    /// Values above ~0.5 begin to pressure shared resources.
    #[must_use]
    pub fn load(&self) -> f64 {
        self.active_threads() as f64 / self.config.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendors_have_paper_sampling_intervals() {
        assert_eq!(
            Vendor::Intel.default_sampling_interval(),
            Span::from_millis(10)
        );
        assert_eq!(
            Vendor::Amd.default_sampling_interval(),
            Span::from_millis(1)
        );
    }

    #[test]
    fn load_tracks_active_threads() {
        let m = Machine::new(MachineConfig::cloudlab_c4130());
        assert_eq!(m.load(), 0.0);
        m.thread_started_compute();
        m.thread_started_compute();
        assert_eq!(m.active_threads(), 2);
        assert!((m.load() - 2.0 / 32.0).abs() < 1e-12);
        m.thread_stopped_compute();
        assert_eq!(m.active_threads(), 1);
    }

    #[test]
    fn kernel_registration_is_idempotent_by_name() {
        let m = Machine::new(MachineConfig::default());
        let a = m.kernel("decode_mcu", "libjpeg.so.9", CostCoeffs::default());
        let b = m.kernel("decode_mcu", "libjpeg.so.9", CostCoeffs::default());
        assert_eq!(a, b);
        assert_eq!(m.kernel_count(), 1);
        assert_eq!(m.kernel_by_name("decode_mcu"), Some(a));
        assert_eq!(m.kernel_by_name("missing"), None);
    }
}
