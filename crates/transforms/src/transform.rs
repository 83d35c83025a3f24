//! The transform trait and `Compose`, mirroring
//! `torchvision.transforms.Compose`.

use lotus_sim::{ReadOutcome, Span, Time};
use lotus_uarch::{CostCoeffs, CpuThread, KernelId, Machine};
use rand::rngs::StdRng;

use crate::error::PipelineError;
use crate::sample::Sample;

/// Execution context handed to transforms: the simulated CPU to run
/// kernels on and a per-worker RNG for random transforms.
#[derive(Debug)]
pub struct TransformCtx<'a> {
    /// The hardware thread executing the preprocessing.
    pub cpu: &'a mut CpuThread,
    /// Deterministic per-worker randomness.
    pub rng: &'a mut StdRng,
}

/// One preprocessing operation (the analog of a torchvision transform
/// class with a `__call__` method).
pub trait Transform: Send + Sync {
    /// The Python-level class name, as LotusTrace would log it
    /// (`t.__class__.__name__` in the paper's Listing 3).
    fn name(&self) -> &str;

    /// Applies the transform, charging kernel costs to `ctx.cpu` and, when
    /// the sample is materialized, computing real output data.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the sample is not of the variant,
    /// shape or dtype the transform requires — the analog of a Python
    /// exception escaping a transform's `__call__` inside a worker.
    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError>;
}

/// Observer of per-transform timing, the hook LotusTrace installs inside
/// `Compose.__call__` (\[T3\] in the paper).
pub trait TransformObserver {
    /// Called after each transform with its name, start time and elapsed
    /// virtual time.
    fn on_transform(&mut self, name: &str, start: Time, elapsed: Span);

    /// Called after each storage read the dataset's fetch path issues
    /// (the \[T0\] hook): the instant the read was issued and what the
    /// storage hierarchy observed serving it. Storage reads happen
    /// *inside* the "Loader" span reported through
    /// [`on_transform`](Self::on_transform). Defaults to ignoring the
    /// event, so observers that only care about transform timing — and
    /// backends without a simulated storage tier — need not implement it.
    fn on_storage_read(&mut self, start: Time, read: &ReadOutcome) {
        let _ = (start, read);
    }

    /// Called right after the dataset read a stored file of `bytes` from
    /// the real filesystem, which took `elapsed` of wall time (the
    /// native \[T0\] hook). Like a storage read, it happens inside the
    /// "Loader" span. Defaults to ignoring the event; a virtual-time
    /// engine has no place for wall time.
    fn on_file_read(&mut self, bytes: u64, elapsed: Span) {
        let _ = (bytes, elapsed);
    }
}

/// A no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TransformObserver for NullObserver {
    fn on_transform(&mut self, _name: &str, _start: Time, _elapsed: Span) {}
}

/// Shared Python-interpreter overhead kernel: every transform call spends
/// some time in `PyEval_EvalFrameDefault`, which therefore maps to *many*
/// Python operations — exactly the multi-op C function whose hardware
/// metrics LotusMap must split by elapsed-time weights (§IV-B).
#[must_use]
pub fn python_interp_kernel(machine: &Machine) -> KernelId {
    machine.kernel(
        "PyEval_EvalFrameDefault",
        "libpython3.10.so.1.0",
        CostCoeffs {
            base_insts: 9_000.0,
            insts_per_unit: 0.0,
            uops_per_inst: 1.25,
            ipc_base: 1.2,
            l1_miss_per_unit: 0.0,
            l2_miss_per_unit: 0.0,
            llc_miss_per_unit: 0.0,
            branches_per_unit: 0.0,
            mispredict_rate: 0.0,
            frontend_sensitivity: 0.95,
        },
    )
}

/// A chain of transforms applied in order, with optional per-transform
/// timing observation (`torchvision.transforms.Compose` with the paper's
/// `log_transform_elapsed_time` instrumentation point).
pub struct Compose {
    transforms: Vec<Box<dyn Transform>>,
    python_overhead: KernelId,
}

impl std::fmt::Debug for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compose")
            .field(
                "transforms",
                &self.transforms.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Compose {
    /// Creates a compose chain.
    #[must_use]
    pub fn new(machine: &Machine, transforms: Vec<Box<dyn Transform>>) -> Compose {
        Compose {
            transforms,
            python_overhead: python_interp_kernel(machine),
        }
    }

    /// Names of the chained transforms, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.transforms.iter().map(|t| t.name()).collect()
    }

    /// Number of transforms in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// True if the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Applies the whole chain without observation.
    ///
    /// # Errors
    ///
    /// Returns the first [`PipelineError`] raised by a chained transform.
    pub fn apply(
        &self,
        sample: Sample,
        ctx: &mut TransformCtx<'_>,
    ) -> Result<Sample, PipelineError> {
        self.apply_observed(sample, ctx, &mut NullObserver)
    }

    /// Applies the whole chain, reporting each transform's `(name, start,
    /// elapsed)` to `observer` — the paper's Listing 3 instrumentation.
    ///
    /// # Errors
    ///
    /// Returns the first [`PipelineError`] raised by a chained transform;
    /// transforms after the failing one are not run, mirroring Python
    /// exception propagation out of `Compose.__call__`.
    pub fn apply_observed(
        &self,
        mut sample: Sample,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        for t in &self.transforms {
            let start = ctx.cpu.cursor();
            // Interpreter dispatch overhead for the Python-level call.
            ctx.cpu.exec(self.python_overhead, 0.0);
            // Native kernel spans observed inside this transform attribute
            // to its Python-level op name.
            ctx.cpu.set_op_context(t.name());
            sample = t.apply(sample, ctx)?;
            let elapsed = ctx.cpu.cursor().since(start);
            observer.on_transform(t.name(), start, elapsed);
        }
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::MachineConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    struct Noop(&'static str);
    impl Transform for Noop {
        fn name(&self) -> &str {
            self.0
        }
        fn apply(
            &self,
            sample: Sample,
            _ctx: &mut TransformCtx<'_>,
        ) -> Result<Sample, PipelineError> {
            Ok(sample)
        }
    }

    #[test]
    fn compose_applies_in_order_and_observes() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let compose = Compose::new(&machine, vec![Box::new(Noop("A")), Box::new(Noop("B"))]);
        assert_eq!(compose.names(), ["A", "B"]);
        assert_eq!(compose.len(), 2);

        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let mut seen = Vec::new();
        struct Rec<'a>(&'a mut Vec<(String, u64)>);
        impl TransformObserver for Rec<'_> {
            fn on_transform(&mut self, name: &str, _start: Time, elapsed: Span) {
                self.0.push((name.to_string(), elapsed.as_nanos()));
            }
        }
        let out = compose
            .apply_observed(Sample::image_meta(8, 8), &mut ctx, &mut Rec(&mut seen))
            .unwrap();
        assert!(matches!(out, Sample::Image { .. }));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, "A");
        assert_eq!(seen[1].0, "B");
        // Even a no-op transform pays interpreter dispatch.
        assert!(seen[0].1 > 0);
    }
}
