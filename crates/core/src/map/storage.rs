//! Storage-read attribution: joining the storage tier's cumulative
//! counters with the trace's T0 spans, per tier.
//!
//! The operation→function mapping answers "which native code ran under
//! each Python op"; this module answers the analogous question one layer
//! down — "which storage tier served each fetch, and how much T0 time did
//! it cost". The result rides along in the `mapping_funcs.json` artifact
//! (see [`crate::map::Mapping`]) so one file carries both attributions.

use std::fmt::Write as _;

use lotus_sim::{Span, StorageCounters, StorageTier};
use serde::{Content, Deserialize, Serialize};

use crate::trace::analysis::storage_tier_totals;
use crate::trace::TraceRecord;

/// One storage tier's share of a run: reads served, bytes moved, and the
/// T0 span time the trace attributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierUsage {
    /// Stable tier name (`page-cache` / `local-disk` / `object-store`).
    pub tier: String,
    /// Reads this tier ultimately served.
    pub reads: u64,
    /// Bytes this tier transferred (page-granular).
    pub bytes: u64,
    /// Total T0 span time attributed to this tier by the trace.
    pub t0_ns: u64,
}

/// The storage side of a run's attribution: per-tier usage joined from
/// the [`StorageCounters`] and the trace's `StorageRead` spans.
///
/// # Examples
///
/// ```
/// use lotus_core::map::StorageAttribution;
/// use lotus_core::trace::{SpanKind, TraceRecord};
/// use lotus_sim::{Span, StorageCounters, Time};
///
/// let counters = StorageCounters {
///     object_reads: 2,
///     object_bytes: 256 * 1024,
///     seeks: 1,
///     max_queue_depth: 2,
///     ..StorageCounters::default()
/// };
/// let read = TraceRecord {
///     kind: SpanKind::StorageRead("object-store".to_string()),
///     pid: 4243,
///     batch_id: 0,
///     start: Time::ZERO,
///     duration: Span::from_millis(5),
///     out_of_order: false,
///     queue_delay: Span::ZERO,
/// };
/// let attr = StorageAttribution::from_run(&counters, &[read]);
/// assert_eq!(attr.tiers.len(), 1);
/// assert_eq!(attr.tiers[0].tier, "object-store");
/// assert_eq!(attr.t0_total(), Span::from_millis(5));
/// assert_eq!(attr.total_reads(), 2);
/// assert_eq!(attr.hit_ratio(), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageAttribution {
    /// Tiers that saw traffic, shallowest first.
    pub tiers: Vec<TierUsage>,
    /// Seeks performed by the local disk.
    pub seeks: u64,
    /// Maximum backing-device queue depth observed.
    pub max_queue_depth: u32,
}

impl StorageAttribution {
    /// Joins the counters a [`lotus_sim::Storage`] accumulated with the
    /// T0 spans the trace recorded. Tiers that saw no reads and no span
    /// time are omitted.
    #[must_use]
    pub fn from_run(counters: &StorageCounters, records: &[TraceRecord]) -> StorageAttribution {
        let t0 = storage_tier_totals(records);
        let tiers = [
            StorageTier::PageCache,
            StorageTier::LocalDisk,
            StorageTier::ObjectStore,
        ]
        .into_iter()
        .filter_map(|tier| {
            let (reads, bytes) = counters.tier(tier);
            let t0_ns = t0.get(tier.as_str()).map_or(0, |s| s.as_nanos());
            (reads > 0 || t0_ns > 0).then(|| TierUsage {
                tier: tier.as_str().to_string(),
                reads,
                bytes,
                t0_ns,
            })
        })
        .collect();
        StorageAttribution {
            tiers,
            seeks: counters.seeks,
            max_queue_depth: counters.max_queue_depth,
        }
    }

    /// Total reads across all tiers.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.tiers.iter().map(|t| t.reads).sum()
    }

    /// Fraction of reads served entirely from the page cache, in
    /// `[0, 1]` (zero when no reads happened).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 0.0;
        }
        let hits = self
            .tiers
            .iter()
            .find(|t| t.tier == StorageTier::PageCache.as_str())
            .map_or(0, |t| t.reads);
        hits as f64 / total as f64
    }

    /// Total T0 span time across all tiers.
    #[must_use]
    pub fn t0_total(&self) -> Span {
        Span::from_nanos(self.tiers.iter().map(|t| t.t0_ns).sum())
    }

    /// True if no tier saw any traffic.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Serializes to JSON (the `lotus run --storage-out` artifact).
    ///
    /// # Panics
    ///
    /// Panics only if JSON serialization fails, which cannot happen for
    /// this type.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("storage attribution serialization cannot fail")
    }

    /// Parses an attribution previously produced by
    /// [`StorageAttribution::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    ///
    /// # Examples
    ///
    /// ```
    /// use lotus_core::map::StorageAttribution;
    ///
    /// let attr = StorageAttribution::default();
    /// let back = StorageAttribution::from_json(&attr.to_json()).unwrap();
    /// assert!(back.is_empty());
    /// ```
    pub fn from_json(s: &str) -> Result<StorageAttribution, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Renders the attribution as a text table, one row per tier.
    ///
    /// # Examples
    ///
    /// ```
    /// use lotus_core::map::{StorageAttribution, TierUsage};
    ///
    /// let attr = StorageAttribution {
    ///     tiers: vec![TierUsage {
    ///         tier: "page-cache".to_string(),
    ///         reads: 8,
    ///         bytes: 1 << 20,
    ///         t0_ns: 80_000,
    ///     }],
    ///     seeks: 0,
    ///     max_queue_depth: 1,
    /// };
    /// let table = attr.to_table_string();
    /// assert!(table.contains("page-cache"));
    /// assert!(table.contains("hit ratio 1.00"));
    /// ```
    #[must_use]
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:>12}",
            "Tier", "reads", "bytes", "t0 (ms)"
        );
        for t in &self.tiers {
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12} {:>12.2}",
                t.tier,
                t.reads,
                t.bytes,
                t.t0_ns as f64 / 1e6,
            );
        }
        let _ = writeln!(
            out,
            "hit ratio {:.2}  seeks {}  max queue depth {}",
            self.hit_ratio(),
            self.seeks,
            self.max_queue_depth,
        );
        out
    }
}

impl Serialize for TierUsage {
    fn serialize_content(&self) -> Content {
        Content::Map(vec![
            ("tier".to_string(), self.tier.serialize_content()),
            ("reads".to_string(), self.reads.serialize_content()),
            ("bytes".to_string(), self.bytes.serialize_content()),
            ("t0_ns".to_string(), self.t0_ns.serialize_content()),
        ])
    }
}

impl Deserialize for TierUsage {
    fn deserialize_content(content: &Content) -> Result<TierUsage, String> {
        let field = |key: &str| {
            content
                .get_field(key)
                .ok_or_else(|| format!("TierUsage missing field `{key}`"))
        };
        Ok(TierUsage {
            tier: String::deserialize_content(field("tier")?)?,
            reads: u64::deserialize_content(field("reads")?)?,
            bytes: u64::deserialize_content(field("bytes")?)?,
            t0_ns: u64::deserialize_content(field("t0_ns")?)?,
        })
    }
}

impl Serialize for StorageAttribution {
    fn serialize_content(&self) -> Content {
        Content::Map(vec![
            ("tiers".to_string(), self.tiers.serialize_content()),
            ("seeks".to_string(), self.seeks.serialize_content()),
            (
                "max_queue_depth".to_string(),
                self.max_queue_depth.serialize_content(),
            ),
        ])
    }
}

impl Deserialize for StorageAttribution {
    fn deserialize_content(content: &Content) -> Result<StorageAttribution, String> {
        let field = |key: &str| {
            content
                .get_field(key)
                .ok_or_else(|| format!("StorageAttribution missing field `{key}`"))
        };
        Ok(StorageAttribution {
            tiers: Vec::deserialize_content(field("tiers")?)?,
            seeks: u64::deserialize_content(field("seeks")?)?,
            max_queue_depth: u32::deserialize_content(field("max_queue_depth")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use lotus_sim::Time;

    use super::*;
    use crate::trace::SpanKind;

    fn read(tier: &str, ms: u64) -> TraceRecord {
        TraceRecord {
            kind: SpanKind::StorageRead(tier.to_string()),
            pid: 4243,
            batch_id: 0,
            start: Time::ZERO,
            duration: Span::from_millis(ms),
            out_of_order: false,
            queue_delay: Span::ZERO,
        }
    }

    #[test]
    fn joins_counters_with_trace_spans_per_tier() {
        let counters = StorageCounters {
            page_cache_reads: 6,
            page_cache_bytes: 6 * 64 * 1024,
            object_reads: 2,
            object_bytes: 4 * 64 * 1024,
            seeks: 3,
            max_queue_depth: 2,
            ..StorageCounters::default()
        };
        let records = vec![read("object-store", 10), read("page-cache", 1)];
        let attr = StorageAttribution::from_run(&counters, &records);
        assert_eq!(attr.tiers.len(), 2, "{attr:?}");
        assert_eq!(attr.tiers[0].tier, "page-cache");
        assert_eq!(attr.tiers[0].reads, 6);
        assert_eq!(attr.tiers[0].t0_ns, 1_000_000);
        assert_eq!(attr.tiers[1].tier, "object-store");
        assert_eq!(attr.tiers[1].t0_ns, 10_000_000);
        assert_eq!(attr.total_reads(), 8);
        assert!((attr.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(attr.t0_total(), Span::from_millis(11));
        assert_eq!(attr.seeks, 3);
        assert_eq!(attr.max_queue_depth, 2);
    }

    #[test]
    fn idle_tiers_are_omitted() {
        let counters = StorageCounters {
            disk_reads: 1,
            disk_bytes: 64 * 1024,
            ..StorageCounters::default()
        };
        let attr = StorageAttribution::from_run(&counters, &[]);
        assert_eq!(attr.tiers.len(), 1);
        assert_eq!(attr.tiers[0].tier, "local-disk");
        assert_eq!(attr.tiers[0].t0_ns, 0, "no trace spans recorded");
        assert!(!attr.is_empty());
        assert!(StorageAttribution::from_run(&StorageCounters::default(), &[]).is_empty());
    }

    #[test]
    fn table_lists_every_tier_and_the_summary_line() {
        let counters = StorageCounters {
            page_cache_reads: 1,
            object_reads: 1,
            seeks: 2,
            max_queue_depth: 4,
            ..StorageCounters::default()
        };
        let table = StorageAttribution::from_run(&counters, &[]).to_table_string();
        assert!(table.contains("page-cache"));
        assert!(table.contains("object-store"));
        assert!(table.contains("hit ratio 0.50  seeks 2  max queue depth 4"));
    }
}
