//! Splitting hardware metrics from native functions back onto Python
//! operations (§IV-B "Splitting Hardware Metrics"), the step that produces
//! the paper's Figure 6(e–h).

use std::collections::BTreeMap;

use lotus_sim::Span;
use lotus_uarch::{FunctionProfile, HwEvents};

use super::mapping::Mapping;

/// Hardware events attributed to one Python operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpHardwareProfile {
    /// Operation name.
    pub op: String,
    /// CPU time attributed from mapped functions.
    pub cpu_time: Span,
    /// Hardware events attributed from mapped functions.
    pub events: HwEvents,
}

/// Splits a whole-pipeline hardware profile onto Python operations.
///
/// For every profiled native function that appears in the mapping, its
/// counters are divided among the operations it maps to, weighted by each
/// operation's total elapsed time from LotusTrace (`op_times`): the
/// paper's `L / (L + RRP + TT)` weighting. Functions absent from the
/// mapping — the "300+ unrelated functions" — contribute nothing.
///
/// Events in our profiles are absolute counts (VTune reports normalized
/// fractions that must be multiplied back by clockticks; the
/// [`FunctionProfile`] rows have already folded that in).
#[must_use]
pub fn split_metrics(
    profile: &[FunctionProfile],
    mapping: &Mapping,
    op_times: &BTreeMap<String, Span>,
) -> Vec<OpHardwareProfile> {
    let mut out: BTreeMap<String, OpHardwareProfile> = op_times
        .keys()
        .map(|op| {
            (
                op.clone(),
                OpHardwareProfile {
                    op: op.clone(),
                    cpu_time: Span::ZERO,
                    events: HwEvents::ZERO,
                },
            )
        })
        .collect();

    for row in profile {
        let ops = mapping.ops_containing(&row.name);
        if ops.is_empty() {
            continue; // unrelated function: filtered out
        }
        let total: f64 = ops
            .iter()
            .filter_map(|op| op_times.get(*op))
            .map(|s| s.as_nanos() as f64)
            .sum();
        if total == 0.0 {
            continue;
        }
        for op in ops {
            let Some(op_time) = op_times.get(op) else {
                continue;
            };
            let weight = op_time.as_nanos() as f64 / total;
            // `out` holds every op of `op_times`, and `op` has a time.
            #[allow(clippy::expect_used)]
            let entry = out.get_mut(op).expect("op pre-seeded");
            entry.cpu_time += row.stats.cpu_time.mul_f64(weight);
            entry.events += row.stats.events * weight;
        }
    }
    out.into_values().collect()
}

/// Restricts a profile to the functions present in the mapping (the
/// paper's Figure 6(c,d): per-C++-function views after filtering the
/// irrelevant candidates).
#[must_use]
pub fn relevant_functions<'p>(
    profile: &'p [FunctionProfile],
    mapping: &Mapping,
) -> Vec<&'p FunctionProfile> {
    profile
        .iter()
        .filter(|row| !mapping.ops_containing(&row.name).is_empty())
        .collect()
}

/// Splits a whole-pipeline hardware profile onto Python operations using
/// the **mix-aware** weighting the paper sketches as future work (§IV-B):
/// instead of weighting a shared function purely by each operation's total
/// elapsed time, weight it by the elapsed time × the *fraction of that
/// operation's samples the function received during isolation*.
///
/// Intuition: `__memcpy` may account for 40 % of `C(128)`'s time but only
/// 3 % of `Loader`'s; elapsed-time-only weights smear its counters evenly
/// per second of op time, while mix-aware weights concentrate them where
/// the function actually runs. Operations absent from the mapping (or
/// with zero isolation samples) fall back to elapsed-time weighting.
#[must_use]
pub fn split_metrics_mix_aware(
    profile: &[FunctionProfile],
    mapping: &Mapping,
    op_times: &BTreeMap<String, Span>,
) -> Vec<OpHardwareProfile> {
    let mut out: BTreeMap<String, OpHardwareProfile> = op_times
        .keys()
        .map(|op| {
            (
                op.clone(),
                OpHardwareProfile {
                    op: op.clone(),
                    cpu_time: Span::ZERO,
                    events: HwEvents::ZERO,
                },
            )
        })
        .collect();

    // Per-op sample totals over the whole isolation bucket.
    let op_sample_totals: BTreeMap<&str, u64> = op_times
        .keys()
        .filter_map(|op| {
            mapping
                .functions_for(op)
                .map(|b| (op.as_str(), b.functions.iter().map(|f| f.samples).sum()))
        })
        .collect();

    for row in profile {
        let ops = mapping.ops_containing(&row.name);
        if ops.is_empty() {
            continue;
        }
        // Raw weight of op o for function f:
        //   time(o) × samples(o, f) / total_samples(o)
        // falling back to time(o) when the op has no isolation samples.
        let raw: Vec<(&str, f64)> = ops
            .iter()
            .filter_map(|op| {
                let time = op_times.get(*op)?.as_nanos() as f64;
                let mix = match op_sample_totals.get(op) {
                    Some(&total) if total > 0 => {
                        let f_samples = mapping
                            .functions_for(op)
                            .and_then(|b| b.functions.iter().find(|f| f.name == row.name))
                            .map_or(0, |f| f.samples);
                        f_samples as f64 / total as f64
                    }
                    _ => 1.0,
                };
                Some((*op, time * mix))
            })
            .collect();
        let total: f64 = raw.iter().map(|(_, w)| w).sum();
        if total == 0.0 {
            continue;
        }
        for (op, w) in raw {
            let weight = w / total;
            // `raw` kept only ops with a time, and `out` holds all of them.
            #[allow(clippy::expect_used)]
            let entry = out.get_mut(op).expect("op pre-seeded");
            entry.cpu_time += row.stats.cpu_time.mul_f64(weight);
            entry.events += row.stats.events * weight;
        }
    }
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::mapping::{MappedFunction, OpMapping};
    use lotus_uarch::FnStats;

    fn profile_row(name: &str, cpu_ms: u64, insts: f64) -> FunctionProfile {
        FunctionProfile {
            name: name.into(),
            library: "lib.so".into(),
            stats: FnStats {
                samples: 1,
                cpu_time: Span::from_millis(cpu_ms),
                events: HwEvents {
                    instructions: insts,
                    ..HwEvents::ZERO
                },
            },
        }
    }

    fn mapping() -> Mapping {
        let mut m = Mapping::new();
        let mf = |name: &str| MappedFunction {
            name: name.into(),
            library: "lib.so".into(),
            captured_runs: 10,
            total_runs: 10,
            samples: 50,
        };
        m.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![mf("decode_mcu"), mf("__memmove")],
        });
        m.insert(OpMapping {
            op: "RandomResizedCrop".into(),
            functions: vec![mf("resample"), mf("__memmove")],
        });
        m.insert(OpMapping {
            op: "ToTensor".into(),
            functions: vec![mf("__memmove")],
        });
        m
    }

    fn op_times() -> BTreeMap<String, Span> {
        // The paper's example: weights L/(L+RRP+TT).
        BTreeMap::from([
            ("Loader".to_string(), Span::from_secs(6)),
            ("RandomResizedCrop".to_string(), Span::from_secs(3)),
            ("ToTensor".to_string(), Span::from_secs(1)),
        ])
    }

    #[test]
    fn exclusive_functions_attribute_fully() {
        let profile = vec![profile_row("decode_mcu", 100, 1000.0)];
        let split = split_metrics(&profile, &mapping(), &op_times());
        let loader = split.iter().find(|o| o.op == "Loader").unwrap();
        assert_eq!(loader.cpu_time, Span::from_millis(100));
        assert!((loader.events.instructions - 1000.0).abs() < 1e-9);
        let rrc = split.iter().find(|o| o.op == "RandomResizedCrop").unwrap();
        assert_eq!(rrc.cpu_time, Span::ZERO);
    }

    #[test]
    fn shared_functions_split_by_elapsed_time_weights() {
        let profile = vec![profile_row("__memmove", 10, 100.0)];
        let split = split_metrics(&profile, &mapping(), &op_times());
        let get = |op: &str| split.iter().find(|o| o.op == op).unwrap();
        // Weights 6/10, 3/10, 1/10.
        assert_eq!(get("Loader").cpu_time, Span::from_millis(6));
        assert_eq!(get("RandomResizedCrop").cpu_time, Span::from_millis(3));
        assert_eq!(get("ToTensor").cpu_time, Span::from_millis(1));
        let total: f64 = split.iter().map(|o| o.events.instructions).sum();
        assert!(
            (total - 100.0).abs() < 1e-9,
            "splitting must conserve events"
        );
    }

    #[test]
    fn unrelated_functions_are_filtered() {
        let profile = vec![
            profile_row("cudaLaunchKernel", 500, 9999.0),
            profile_row("decode_mcu", 10, 10.0),
        ];
        let split = split_metrics(&profile, &mapping(), &op_times());
        let total_cpu: u64 = split.iter().map(|o| o.cpu_time.as_nanos()).sum();
        assert_eq!(
            total_cpu,
            Span::from_millis(10).as_nanos(),
            "unmapped CPU time is excluded"
        );
        let relevant = relevant_functions(&profile, &mapping());
        assert_eq!(relevant.len(), 1);
        assert_eq!(relevant[0].name, "decode_mcu");
    }

    #[test]
    fn mix_aware_split_tracks_usage_shares() {
        // Truth: the shared function accounts for 90% of op B's isolation
        // samples but only 10% of op A's, with equal op times. The naive
        // split gives 50/50; mix-aware gives 10/90.
        let mut m = Mapping::new();
        let mf = |name: &str, samples: u64| MappedFunction {
            name: name.into(),
            library: "lib.so".into(),
            captured_runs: 10,
            total_runs: 10,
            samples,
        };
        m.insert(OpMapping {
            op: "A".into(),
            functions: vec![mf("shared", 10), mf("a_only", 90)],
        });
        m.insert(OpMapping {
            op: "B".into(),
            functions: vec![mf("shared", 90), mf("b_only", 10)],
        });
        let op_times = BTreeMap::from([
            ("A".to_string(), Span::from_secs(1)),
            ("B".to_string(), Span::from_secs(1)),
        ]);
        let profile = vec![profile_row("shared", 100, 1000.0)];

        let naive = split_metrics(&profile, &m, &op_times);
        let naive_a = naive.iter().find(|o| o.op == "A").unwrap().cpu_time;
        assert_eq!(naive_a, Span::from_millis(50), "naive splits 50/50");

        let mix = split_metrics_mix_aware(&profile, &m, &op_times);
        let a = mix.iter().find(|o| o.op == "A").unwrap();
        let b = mix.iter().find(|o| o.op == "B").unwrap();
        assert_eq!(a.cpu_time, Span::from_millis(10));
        assert_eq!(b.cpu_time, Span::from_millis(90));
        // Conservation still holds.
        assert!((a.events.instructions + b.events.instructions - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mix_aware_matches_naive_for_exclusive_functions() {
        let profile = vec![profile_row("decode_mcu", 100, 1000.0)];
        let naive = split_metrics(&profile, &mapping(), &op_times());
        let mix = split_metrics_mix_aware(&profile, &mapping(), &op_times());
        for (n, m) in naive.iter().zip(&mix) {
            assert_eq!(n.op, m.op);
            assert_eq!(n.cpu_time, m.cpu_time, "{}", n.op);
        }
    }

    #[test]
    fn misbucketed_heavy_function_inflates_the_wrong_op() {
        // The paper's example: if decode_mcu were bucketed under
        // RandomResizedCrop, RRC's CPU time would jump ~30 %.
        let mut bad = mapping();
        let mut rrc = bad.functions_for("RandomResizedCrop").unwrap().clone();
        rrc.functions.push(MappedFunction {
            name: "decode_mcu".into(),
            library: "lib.so".into(),
            captured_runs: 1,
            total_runs: 10,
            samples: 2,
        });
        bad.insert(rrc);
        let profile = vec![profile_row("decode_mcu", 90, 900.0)];
        let good_split = split_metrics(&profile, &mapping(), &op_times());
        let bad_split = split_metrics(&profile, &bad, &op_times());
        let rrc_good = good_split
            .iter()
            .find(|o| o.op == "RandomResizedCrop")
            .unwrap()
            .cpu_time;
        let rrc_bad = bad_split
            .iter()
            .find(|o| o.op == "RandomResizedCrop")
            .unwrap()
            .cpu_time;
        assert_eq!(rrc_good, Span::ZERO);
        assert!(
            rrc_bad > Span::from_millis(25),
            "mis-bucketing inflates RRC: {rrc_bad}"
        );
    }
}
