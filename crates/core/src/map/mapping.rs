//! The Python-operation → native-function mapping (the paper's Table I).

use std::collections::BTreeMap;

use serde::{Content, Deserialize, Serialize};

use super::storage::StorageAttribution;

/// One native function bucketed under a Python operation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MappedFunction {
    /// Function symbol name.
    pub name: String,
    /// Library the symbol lives in.
    pub library: String,
    /// Isolation runs in which the function was captured at least once.
    pub captured_runs: usize,
    /// Total isolation runs performed.
    pub total_runs: usize,
    /// Total samples attributed across all runs.
    pub samples: u64,
}

impl MappedFunction {
    /// Fraction of runs that captured the function.
    #[must_use]
    pub fn capture_rate(&self) -> f64 {
        if self.total_runs == 0 {
            0.0
        } else {
            self.captured_runs as f64 / self.total_runs as f64
        }
    }
}

/// The bucket of native functions for one Python operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMapping {
    /// Python operation name (e.g. `RandomResizedCrop`).
    pub op: String,
    /// Captured functions, most-sampled first.
    pub functions: Vec<MappedFunction>,
}

impl OpMapping {
    /// Drops functions that look like sampling flukes: captured in fewer
    /// than `min_runs` runs *and* carrying fewer than `min_samples`
    /// samples in total (the paper's "filters incorrect C/C++ functions").
    pub fn filter_noise(&mut self, min_runs: usize, min_samples: u64) {
        self.functions
            .retain(|f| f.captured_runs >= min_runs || f.samples >= min_samples);
    }

    /// True if `function` is in this bucket.
    #[must_use]
    pub fn contains(&self, function: &str) -> bool {
        self.functions.iter().any(|f| f.name == function)
    }
}

/// A full mapping: one bucket per Python operation. Serializable to the
/// artifact's `mapping_funcs.json` shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mapping {
    ops: BTreeMap<String, OpMapping>,
    /// Storage-side attribution for the run the mapping came from, when
    /// the run modeled a storage hierarchy. Optional and tolerated when
    /// absent, so mappings written before the storage tier existed still
    /// parse.
    storage: Option<StorageAttribution>,
}

// The vendored serde stub has no derive macro, so the three mapping types
// implement the traits by hand against its `Content` data model. The JSON
// shape matches what derive would emit (structs as field maps).

impl Serialize for MappedFunction {
    fn serialize_content(&self) -> Content {
        Content::Map(vec![
            ("name".to_string(), self.name.serialize_content()),
            ("library".to_string(), self.library.serialize_content()),
            (
                "captured_runs".to_string(),
                self.captured_runs.serialize_content(),
            ),
            (
                "total_runs".to_string(),
                self.total_runs.serialize_content(),
            ),
            ("samples".to_string(), self.samples.serialize_content()),
        ])
    }
}

impl Deserialize for MappedFunction {
    fn deserialize_content(content: &Content) -> Result<MappedFunction, String> {
        let field = |key: &str| {
            content
                .get_field(key)
                .ok_or_else(|| format!("MappedFunction missing field `{key}`"))
        };
        Ok(MappedFunction {
            name: String::deserialize_content(field("name")?)?,
            library: String::deserialize_content(field("library")?)?,
            captured_runs: usize::deserialize_content(field("captured_runs")?)?,
            total_runs: usize::deserialize_content(field("total_runs")?)?,
            samples: u64::deserialize_content(field("samples")?)?,
        })
    }
}

impl Serialize for OpMapping {
    fn serialize_content(&self) -> Content {
        Content::Map(vec![
            ("op".to_string(), self.op.serialize_content()),
            ("functions".to_string(), self.functions.serialize_content()),
        ])
    }
}

impl Deserialize for OpMapping {
    fn deserialize_content(content: &Content) -> Result<OpMapping, String> {
        let field = |key: &str| {
            content
                .get_field(key)
                .ok_or_else(|| format!("OpMapping missing field `{key}`"))
        };
        Ok(OpMapping {
            op: String::deserialize_content(field("op")?)?,
            functions: Vec::deserialize_content(field("functions")?)?,
        })
    }
}

impl Serialize for Mapping {
    fn serialize_content(&self) -> Content {
        let mut fields = vec![("ops".to_string(), self.ops.serialize_content())];
        // Emitted only when present: artifacts from runs without a storage
        // model stay byte-identical to the pre-storage format.
        if let Some(storage) = &self.storage {
            fields.push(("storage".to_string(), storage.serialize_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for Mapping {
    fn deserialize_content(content: &Content) -> Result<Mapping, String> {
        let ops = content
            .get_field("ops")
            .ok_or("Mapping missing field `ops`")?;
        let storage = match content.get_field("storage") {
            None | Some(Content::Null) => None,
            Some(s) => Some(StorageAttribution::deserialize_content(s)?),
        };
        Ok(Mapping {
            ops: BTreeMap::deserialize_content(ops)?,
            storage,
        })
    }
}

impl Mapping {
    /// An empty mapping.
    #[must_use]
    pub fn new() -> Mapping {
        Mapping::default()
    }

    /// Inserts (or replaces) one operation's bucket.
    pub fn insert(&mut self, op_mapping: OpMapping) {
        self.ops.insert(op_mapping.op.clone(), op_mapping);
    }

    /// The bucket for `op`, if mapped.
    #[must_use]
    pub fn functions_for(&self, op: &str) -> Option<&OpMapping> {
        self.ops.get(op)
    }

    /// All mapped operation names.
    #[must_use]
    pub fn ops(&self) -> Vec<&str> {
        self.ops.keys().map(String::as_str).collect()
    }

    /// The operations whose buckets contain `function` (a single C/C++
    /// function can map to several Python operations — the case the
    /// metric-splitting step exists for).
    #[must_use]
    pub fn ops_containing(&self, function: &str) -> Vec<&str> {
        self.ops
            .values()
            .filter(|m| m.contains(function))
            .map(|m| m.op.as_str())
            .collect()
    }

    /// Attaches the storage-side attribution of the run the mapping was
    /// built from.
    pub fn set_storage(&mut self, storage: StorageAttribution) {
        self.storage = Some(storage);
    }

    /// The storage-side attribution, if the run modeled storage.
    #[must_use]
    pub fn storage(&self) -> Option<&StorageAttribution> {
        self.storage.as_ref()
    }

    /// Number of mapped operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Renders the mapping as a Table-I-style text table.
    #[must_use]
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<30} {:<36} {:<44} {:>8} {:>8}\n",
            "Transformation", "Function", "Library", "runs", "samples"
        ));
        for m in self.ops.values() {
            for (i, f) in m.functions.iter().enumerate() {
                let op = if i == 0 { m.op.as_str() } else { "" };
                out.push_str(&format!(
                    "{:<30} {:<36} {:<44} {:>4}/{:<3} {:>8}\n",
                    op, f.name, f.library, f.captured_runs, f.total_runs, f.samples
                ));
            }
        }
        if let Some(storage) = &self.storage {
            out.push('\n');
            out.push_str(&storage.to_table_string());
        }
        out
    }

    /// Serializes to JSON (the artifact's `mapping_funcs.json`).
    ///
    /// # Panics
    ///
    /// Panics only if JSON serialization fails, which cannot happen for
    /// this type.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("mapping serialization cannot fail")
    }

    /// Parses a mapping previously produced by [`Mapping::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(s: &str) -> Result<Mapping, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, runs: usize, samples: u64) -> MappedFunction {
        MappedFunction {
            name: name.into(),
            library: "lib.so".into(),
            captured_runs: runs,
            total_runs: 20,
            samples,
        }
    }

    #[test]
    fn lookup_by_op_and_by_function() {
        let mut m = Mapping::new();
        m.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![
                f("decode_mcu", 20, 300),
                f("__memcpy_avx_unaligned_erms", 6, 10),
            ],
        });
        m.insert(OpMapping {
            op: "RandomResizedCrop".into(),
            functions: vec![
                f("ImagingResampleHorizontal_8bpc", 18, 120),
                f("__memcpy_avx_unaligned_erms", 4, 6),
            ],
        });
        assert_eq!(m.len(), 2);
        assert!(m.functions_for("Loader").unwrap().contains("decode_mcu"));
        assert_eq!(m.ops_containing("decode_mcu"), vec!["Loader"]);
        let shared = m.ops_containing("__memcpy_avx_unaligned_erms");
        assert_eq!(shared.len(), 2);
        assert!(m.functions_for("ToTensor").is_none());
    }

    #[test]
    fn noise_filter_keeps_well_captured_or_heavily_sampled() {
        let mut om = OpMapping {
            op: "X".into(),
            functions: vec![
                f("solid", 15, 40),
                f("rare_but_big", 1, 50),
                f("fluke", 1, 1),
            ],
        };
        om.filter_noise(3, 10);
        let names: Vec<&str> = om.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["solid", "rare_but_big"]);
    }

    #[test]
    fn json_round_trips() {
        let mut m = Mapping::new();
        m.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![f("decode_mcu", 20, 300)],
        });
        let parsed = Mapping::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn storage_attribution_rides_along_and_old_json_still_parses() {
        use crate::map::{StorageAttribution, TierUsage};

        let mut m = Mapping::new();
        m.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![f("decode_mcu", 20, 300)],
        });
        // Pre-storage artifacts (no `storage` key) parse to None.
        let legacy_json = m.to_json();
        assert!(!legacy_json.contains("\"storage\""));
        let legacy = Mapping::from_json(&legacy_json).unwrap();
        assert!(legacy.storage().is_none());

        m.set_storage(StorageAttribution {
            tiers: vec![TierUsage {
                tier: "object-store".into(),
                reads: 9,
                bytes: 9 << 16,
                t0_ns: 45_000_000,
            }],
            seeks: 0,
            max_queue_depth: 3,
        });
        let parsed = Mapping::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.storage().unwrap().total_reads(), 9);
        assert!(m.to_table_string().contains("object-store"));
    }

    #[test]
    fn table_rendering_lists_each_function() {
        let mut m = Mapping::new();
        m.insert(OpMapping {
            op: "Loader".into(),
            functions: vec![f("decode_mcu", 20, 300), f("jpeg_idct_islow", 19, 200)],
        });
        let table = m.to_table_string();
        assert!(table.contains("Loader"));
        assert!(table.contains("decode_mcu"));
        assert!(table.contains("jpeg_idct_islow"));
    }

    #[test]
    fn capture_rate_divides_runs() {
        assert!((f("x", 15, 0).capture_rate() - 0.75).abs() < 1e-12);
    }
}
