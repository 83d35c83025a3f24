//! Native-side attribution: folding wall-clock kernel spans into the
//! same [`Mapping`] shape LotusMap's simulated isolation produces, and
//! cross-validating the two.
//!
//! The native backend's cooperative feed yields per-op kernel spans
//! (real wall durations of the real compute). Grouped per op they form
//! an *observed* operation → native-function mapping; the simulated
//! isolation harness produces the *methodological* mapping from PMU
//! sampling. If the methodology is faithful, each op's hottest native
//! kernels must appear in its simulated bucket — the check
//! [`top_k_agreement`] performs.

use std::collections::BTreeMap;

use lotus_uarch::FunctionProfile;

use crate::map::mapping::{MappedFunction, Mapping, OpMapping};

/// Builds a [`Mapping`] from per-op native function totals (the output
/// of `KernelSpanFeed::per_op_function_totals`). Each observed function
/// counts as captured in one run of one, with its native sample count;
/// buckets keep the most-time-first order of the input. The synthetic
/// `"(none)"` bucket (spans observed outside any op context) is skipped.
#[must_use]
pub fn mapping_from_native(per_op: &BTreeMap<String, Vec<FunctionProfile>>) -> Mapping {
    let mut mapping = Mapping::new();
    for (op, rows) in per_op {
        if op == "(none)" {
            continue;
        }
        mapping.insert(OpMapping {
            op: op.clone(),
            functions: rows
                .iter()
                .map(|row| MappedFunction {
                    name: row.name.clone(),
                    library: row.library.clone(),
                    captured_runs: 1,
                    total_runs: 1,
                    samples: row.stats.samples,
                })
                .collect(),
        });
    }
    mapping
}

/// One op's verdict from [`top_k_agreement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpAgreement {
    /// The operation compared.
    pub op: String,
    /// The native side's top-k kernel names, hottest first.
    pub native_top: Vec<String>,
    /// Of those, the ones absent from the simulated bucket (empty ⇒
    /// agreement).
    pub missing_from_sim: Vec<String>,
}

impl OpAgreement {
    /// True when every native top-k kernel is in the simulated bucket.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.missing_from_sim.is_empty()
    }
}

/// Cross-validates native attribution against the simulated mapping:
/// for every op present in **both** mappings, the native side's top-`k`
/// functions (by bucket order, which is most-time-first for
/// [`mapping_from_native`]) must all appear in the simulated op's
/// bucket. Ops only one side observed are skipped — the native run only
/// sees instrumented kernels, and the simulated isolator only maps the
/// ops it was asked to.
#[must_use]
pub fn top_k_agreement(sim: &Mapping, native: &Mapping, k: usize) -> Vec<OpAgreement> {
    let mut out = Vec::new();
    for op in native.ops() {
        let Some(sim_bucket) = sim.functions_for(op) else {
            continue;
        };
        // `op` came from `native.ops()` just above.
        #[allow(clippy::expect_used)]
        let native_bucket = native.functions_for(op).expect("op listed by its mapping");
        let native_top: Vec<String> = native_bucket
            .functions
            .iter()
            .take(k)
            .map(|f| f.name.clone())
            .collect();
        let missing_from_sim = native_top
            .iter()
            .filter(|name| !sim_bucket.contains(name))
            .cloned()
            .collect();
        out.push(OpAgreement {
            op: op.to_string(),
            native_top,
            missing_from_sim,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_sim::Span;
    use lotus_uarch::{FnStats, HwEvents};

    fn profile(name: &str, samples: u64, nanos: u64) -> FunctionProfile {
        FunctionProfile {
            name: name.to_string(),
            library: "lib.so".to_string(),
            stats: FnStats {
                samples,
                cpu_time: Span::from_nanos(nanos),
                events: HwEvents::ZERO,
            },
        }
    }

    fn mapped(name: &str) -> MappedFunction {
        MappedFunction {
            name: name.to_string(),
            library: "lib.so".to_string(),
            captured_runs: 4,
            total_runs: 4,
            samples: 10,
        }
    }

    #[test]
    fn native_totals_become_a_mapping_and_skip_the_none_bucket() {
        let mut per_op = BTreeMap::new();
        per_op.insert(
            "Loader".to_string(),
            vec![
                profile("decode_mcu", 8, 900),
                profile("jpeg_idct_islow", 8, 400),
            ],
        );
        per_op.insert("(none)".to_string(), vec![profile("stray", 1, 10)]);
        let mapping = mapping_from_native(&per_op);
        assert_eq!(mapping.ops(), vec!["Loader"]);
        let bucket = mapping.functions_for("Loader").unwrap();
        assert_eq!(bucket.functions[0].name, "decode_mcu");
        assert_eq!(bucket.functions[0].samples, 8);
        assert_eq!(bucket.functions[0].capture_rate(), 1.0);
    }

    #[test]
    fn agreement_flags_kernels_the_sim_bucket_lacks() {
        let mut sim = Mapping::new();
        sim.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![mapped("decode_mcu"), mapped("jpeg_idct_islow")],
        });
        let mut native = Mapping::new();
        native.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![mapped("decode_mcu"), mapped("surprise_fn")],
        });
        // An op only the native side saw is skipped, not failed.
        native.insert(OpMapping {
            op: "C(4)".into(),
            functions: vec![mapped("at_native_stack_serial_kernel")],
        });

        let verdicts = top_k_agreement(&sim, &native, 2);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].op, "Loader");
        assert!(!verdicts[0].agrees());
        assert_eq!(verdicts[0].missing_from_sim, vec!["surprise_fn"]);

        // With k = 1 only the hottest kernel is checked — and it agrees.
        let verdicts = top_k_agreement(&sim, &native, 1);
        assert!(verdicts[0].agrees());
    }
}
