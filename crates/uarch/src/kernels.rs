//! Native-kernel descriptors and the per-machine kernel registry.
//!
//! A *kernel* models one low-level C/C++ function (the paper's Table I
//! inventory: `decode_mcu`, `jpeg_idct_islow`, `ImagingResampleHorizontal_8bpc`,
//! `__memcpy_avx_unaligned_erms`, …). Each kernel carries cost coefficients
//! from which the machine model synthesizes elapsed cycles and hardware
//! events for a given amount of work.

use std::collections::HashMap;

/// Identifier of a registered native kernel within one
/// [`crate::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub(crate) u32);

impl KernelId {
    /// Dense index of this kernel in registration order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cost coefficients for one native kernel, per unit of work.
///
/// "Work" is kernel-defined (pixels for image kernels, bytes for `memcpy`,
/// coefficients for IDCT, …); the transform implementations pass the natural
/// unit. All event counts scale linearly in work plus a fixed per-call base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCoeffs {
    /// Fixed instruction overhead per invocation (call frames, setup).
    pub base_insts: f64,
    /// Instructions retired per unit of work.
    pub insts_per_unit: f64,
    /// Micro-op expansion factor (uops issued per instruction).
    pub uops_per_inst: f64,
    /// Best-case IPC with no stalls (compute throughput limit).
    pub ipc_base: f64,
    /// L1D misses per unit of work.
    pub l1_miss_per_unit: f64,
    /// L2 misses per unit of work (must be ≤ L1 misses).
    pub l2_miss_per_unit: f64,
    /// LLC misses per unit of work (must be ≤ L2 misses; serviced by DRAM).
    pub llc_miss_per_unit: f64,
    /// Branch instructions per unit of work.
    pub branches_per_unit: f64,
    /// Fraction of branches mispredicted.
    pub mispredict_rate: f64,
    /// Sensitivity of this kernel to front-end pressure in `[0, 1]`:
    /// a proxy for code footprint / decode complexity. Large switchy
    /// decoders (entropy decode) are near 1; tiny copy loops near 0.
    pub frontend_sensitivity: f64,
}

impl CostCoeffs {
    /// A compute-ish default: 4 instructions per unit, modest memory
    /// traffic. Useful as a starting point for `with_*` tweaks in tests.
    #[must_use]
    pub fn compute_default() -> CostCoeffs {
        CostCoeffs {
            base_insts: 200.0,
            insts_per_unit: 4.0,
            uops_per_inst: 1.15,
            ipc_base: 2.4,
            l1_miss_per_unit: 0.02,
            l2_miss_per_unit: 0.006,
            llc_miss_per_unit: 0.002,
            branches_per_unit: 0.4,
            mispredict_rate: 0.01,
            frontend_sensitivity: 0.3,
        }
    }

    /// A streaming-memory default (memcpy/memset-like): few instructions,
    /// heavy DRAM traffic, negligible front-end footprint.
    #[must_use]
    pub fn streaming_default() -> CostCoeffs {
        CostCoeffs {
            base_insts: 60.0,
            insts_per_unit: 0.15,
            uops_per_inst: 1.0,
            ipc_base: 3.0,
            l1_miss_per_unit: 1.0 / 64.0,
            l2_miss_per_unit: 1.0 / 64.0,
            llc_miss_per_unit: 0.9 / 64.0,
            branches_per_unit: 0.02,
            mispredict_rate: 0.002,
            frontend_sensitivity: 0.05,
        }
    }

    /// Validates internal consistency (miss hierarchy, ranges).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.ipc_base <= 0.0 {
            return Err("ipc_base must be positive".into());
        }
        if self.l2_miss_per_unit > self.l1_miss_per_unit {
            return Err("l2 misses cannot exceed l1 misses".into());
        }
        if self.llc_miss_per_unit > self.l2_miss_per_unit {
            return Err("llc misses cannot exceed l2 misses".into());
        }
        if !(0.0..=1.0).contains(&self.mispredict_rate) {
            return Err("mispredict_rate must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.frontend_sensitivity) {
            return Err("frontend_sensitivity must be in [0,1]".into());
        }
        Ok(())
    }
}

impl Default for CostCoeffs {
    fn default() -> Self {
        CostCoeffs::compute_default()
    }
}

/// A named native kernel: function name, home library and cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Function symbol name as a profiler would display it.
    pub name: String,
    /// Shared library the symbol lives in (e.g. `libjpeg.so.9`).
    pub library: String,
    /// Cost coefficients.
    pub cost: CostCoeffs,
}

/// Registry of all native kernels known to one machine.
#[derive(Debug, Default)]
pub struct KernelRegistry {
    specs: Vec<KernelSpec>,
    by_name: HashMap<String, KernelId>,
}

impl KernelRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> KernelRegistry {
        KernelRegistry::default()
    }

    /// Registers `spec`, or returns the existing id if a kernel with the
    /// same name is already present.
    ///
    /// # Panics
    ///
    /// Panics if the cost coefficients are internally inconsistent (see
    /// [`CostCoeffs::validate`]); kernel definitions are static program
    /// data, so this is a programming error.
    pub fn register(&mut self, spec: KernelSpec) -> KernelId {
        if let Some(&id) = self.by_name.get(&spec.name) {
            return id;
        }
        spec.cost
            .validate()
            .unwrap_or_else(|e| panic!("invalid cost model for kernel '{}': {e}", spec.name));
        // Kernels are the program's static inventory (a few dozen), so an
        // id always fits in a u32.
        #[allow(clippy::expect_used)]
        let id = KernelId(u32::try_from(self.specs.len()).expect("too many kernels"));
        self.by_name.insert(spec.name.clone(), id);
        self.specs.push(spec);
        id
    }

    /// The spec for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    #[must_use]
    pub fn spec(&self, id: KernelId) -> &KernelSpec {
        &self.specs[id.index()]
    }

    /// Looks up a kernel id by symbol name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<KernelId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if no kernels are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates over `(id, spec)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, &KernelSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (KernelId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = KernelRegistry::new();
        let id = reg.register(KernelSpec {
            name: "jpeg_idct_islow".into(),
            library: "libjpeg.so.9".into(),
            cost: CostCoeffs::compute_default(),
        });
        assert_eq!(reg.by_name("jpeg_idct_islow"), Some(id));
        assert_eq!(reg.spec(id).library, "libjpeg.so.9");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn duplicate_names_share_an_id() {
        let mut reg = KernelRegistry::new();
        let spec = KernelSpec {
            name: "memcpy".into(),
            library: "libc.so.6".into(),
            cost: CostCoeffs::streaming_default(),
        };
        let a = reg.register(spec.clone());
        let b = reg.register(spec);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid cost model")]
    fn inconsistent_miss_hierarchy_is_rejected() {
        let mut reg = KernelRegistry::new();
        let mut cost = CostCoeffs::compute_default();
        cost.llc_miss_per_unit = cost.l2_miss_per_unit * 2.0;
        reg.register(KernelSpec {
            name: "bad".into(),
            library: "x".into(),
            cost,
        });
    }

    #[test]
    fn defaults_validate() {
        assert!(CostCoeffs::compute_default().validate().is_ok());
        assert!(CostCoeffs::streaming_default().validate().is_ok());
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut reg = KernelRegistry::new();
        for name in ["a", "b", "c"] {
            reg.register(KernelSpec {
                name: name.into(),
                library: "l".into(),
                cost: CostCoeffs::default(),
            });
        }
        let names: Vec<_> = reg.iter().map(|(_, s)| s.name.clone()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
