//! Scoring one tuning trial: folding a run's metrics snapshot into a
//! scorecard with throughput, wait share, memory footprint, and the
//! bottleneck [`Verdict`] — the one rule `lotus trace` also applies.

use lotus_sim::Span;
use serde_json::{Content, Value};

use crate::metrics::names;
use crate::metrics::MetricsSnapshot;
use crate::trace::analysis::OpClassTotals;
use crate::trace::insights::Verdict;

use super::space::TrialConfig;

/// Everything one trial run produces: the job totals, the folded metrics
/// registry, and the per-op-class elapsed totals from the trace.
#[derive(Debug, Clone)]
pub struct TrialMeasurement {
    /// End-to-end elapsed virtual time.
    pub elapsed: Span,
    /// Batches consumed.
    pub batches: u64,
    /// Samples consumed.
    pub samples: u64,
    /// Snapshot of the run's [`crate::metrics::MetricsRegistry`].
    pub snapshot: MetricsSnapshot,
    /// Per-class (load / transform / collate) elapsed op totals.
    pub op_classes: OpClassTotals,
}

/// The folded result of one trial: a flat record the search, the Pareto
/// frontier, the table renderer, and the JSON exporter all read.
///
/// A failed trial (fault-degraded or invalid) keeps its configuration and
/// the error in [`failed`](Scorecard::failed); its numeric fields are
/// zero and its verdict is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// The configuration this card scores.
    pub config: TrialConfig,
    /// Samples consumed per virtual second.
    pub throughput: f64,
    /// End-to-end elapsed virtual time.
    pub elapsed: Span,
    /// Samples consumed.
    pub samples: u64,
    /// Batches consumed.
    pub batches: u64,
    /// Fraction of elapsed time the main process spent waiting for
    /// batches (\[T2\] total / elapsed).
    pub wait_fraction: f64,
    /// Mean per-batch main-process wait, milliseconds.
    pub mean_wait_ms: f64,
    /// Mean shared-queue residency per batch, milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Peak resident batches: data-queue depth + pinned out-of-order
    /// cache + one in-progress batch per worker.
    pub footprint_batches: f64,
    /// Bottleneck classification, `None` for failed trials.
    pub verdict: Option<Verdict>,
    /// Sample errors injected by the fault plan during the run.
    pub faults_injected: u64,
    /// Workers that died during the run.
    pub worker_deaths: u64,
    /// Why the trial failed, if it did.
    pub failed: Option<String>,
}

impl Scorecard {
    /// Folds a completed trial run into a scorecard.
    #[must_use]
    pub fn from_measurement(config: TrialConfig, m: &TrialMeasurement) -> Scorecard {
        let elapsed_s = m.elapsed.as_secs_f64();
        let throughput = if elapsed_s > 0.0 {
            m.samples as f64 / elapsed_s
        } else {
            0.0
        };
        let wait_ns = m
            .snapshot
            .counters
            .get(names::MAIN_WAIT_NS)
            .copied()
            .unwrap_or(0);
        let wait_fraction = if m.elapsed.as_nanos() > 0 {
            wait_ns as f64 / m.elapsed.as_nanos() as f64
        } else {
            0.0
        };
        let mean_ns = |name: &str| m.snapshot.histograms.get(name).map_or(0.0, |h| h.mean_ns);
        let mean_wait_ms = mean_ns(names::T2_WAIT) / 1e6;
        let mean_queue_delay_ms = mean_ns(names::QUEUE_DELAY) / 1e6;
        let peak = |name: &str| m.snapshot.gauges.get(name).map_or(0.0, |g| g.max());
        let footprint_batches =
            peak(names::DATA_QUEUE_DEPTH) + peak(names::PINNED_CACHE) + config.num_workers as f64;
        let verdict = Verdict::classify(
            wait_fraction,
            mean_wait_ms,
            mean_queue_delay_ms,
            &m.op_classes,
        );
        Scorecard {
            config,
            throughput,
            elapsed: m.elapsed,
            samples: m.samples,
            batches: m.batches,
            wait_fraction,
            mean_wait_ms,
            mean_queue_delay_ms,
            footprint_batches,
            verdict: Some(verdict),
            faults_injected: m
                .snapshot
                .counters
                .get(names::FAULTS_INJECTED)
                .copied()
                .unwrap_or(0),
            worker_deaths: m
                .snapshot
                .counters
                .get(names::WORKER_DEATHS)
                .copied()
                .unwrap_or(0),
            failed: None,
        }
    }

    /// Card for a trial that could not complete (fault-degraded,
    /// deadlocked, or rejected by validation).
    #[must_use]
    pub fn from_failure(config: TrialConfig, error: String) -> Scorecard {
        Scorecard {
            config,
            throughput: 0.0,
            elapsed: Span::ZERO,
            samples: 0,
            batches: 0,
            wait_fraction: 0.0,
            mean_wait_ms: 0.0,
            mean_queue_delay_ms: 0.0,
            footprint_batches: 0.0,
            verdict: None,
            faults_injected: 0,
            worker_deaths: 0,
            failed: Some(error),
        }
    }

    /// True when the trial completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.failed.is_none()
    }

    /// The JSON object for this card: the report exporter's per-card
    /// shape, also the on-disk payload of the trial cache. Field order is
    /// fixed so the same card always serializes to the same bytes.
    #[must_use]
    pub fn to_json_content(&self) -> Content {
        Content::Map(vec![
            ("config".to_string(), self.config.to_json_content()),
            ("label".to_string(), Content::Str(self.config.label())),
            (
                "throughput_samples_per_s".to_string(),
                Content::F64(self.throughput),
            ),
            (
                "elapsed_ns".to_string(),
                Content::U64(self.elapsed.as_nanos()),
            ),
            ("samples".to_string(), Content::U64(self.samples)),
            ("batches".to_string(), Content::U64(self.batches)),
            (
                "wait_fraction".to_string(),
                Content::F64(self.wait_fraction),
            ),
            ("mean_wait_ms".to_string(), Content::F64(self.mean_wait_ms)),
            (
                "mean_queue_delay_ms".to_string(),
                Content::F64(self.mean_queue_delay_ms),
            ),
            (
                "footprint_batches".to_string(),
                Content::F64(self.footprint_batches),
            ),
            (
                "verdict".to_string(),
                match self.verdict {
                    Some(v) => Content::Str(v.as_str().to_string()),
                    None => Content::Null,
                },
            ),
            (
                "faults_injected".to_string(),
                Content::U64(self.faults_injected),
            ),
            (
                "worker_deaths".to_string(),
                Content::U64(self.worker_deaths),
            ),
            (
                "failed".to_string(),
                match &self.failed {
                    Some(e) => Content::Str(e.clone()),
                    None => Content::Null,
                },
            ),
        ])
    }

    /// Parses a card previously produced by
    /// [`to_json_content`](Self::to_json_content). The round trip is
    /// lossless: `u64` fields are exact and `f64` fields are written in
    /// shortest-round-trip form, which is what lets a cache-warm rerun
    /// reproduce byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json_value(value: &Value) -> Result<Scorecard, String> {
        let float = |field: &str| -> Result<f64, String> {
            value[field]
                .as_f64()
                .ok_or_else(|| format!("scorecard field '{field}' missing or not a number"))
        };
        let uint = |field: &str| -> Result<u64, String> {
            value[field]
                .as_u64()
                .ok_or_else(|| format!("scorecard field '{field}' missing or not an integer"))
        };
        let verdict = match &value["verdict"].0 {
            Content::Null => None,
            Content::Str(name) => {
                Some(Verdict::parse(name).ok_or_else(|| format!("unknown verdict '{name}'"))?)
            }
            _ => return Err("scorecard field 'verdict' must be a string or null".into()),
        };
        let failed = match &value["failed"].0 {
            Content::Null => None,
            Content::Str(error) => Some(error.clone()),
            _ => return Err("scorecard field 'failed' must be a string or null".into()),
        };
        Ok(Scorecard {
            config: TrialConfig::from_json_value(&value["config"])?,
            throughput: float("throughput_samples_per_s")?,
            elapsed: Span::from_nanos(uint("elapsed_ns")?),
            samples: uint("samples")?,
            batches: uint("batches")?,
            wait_fraction: float("wait_fraction")?,
            mean_wait_ms: float("mean_wait_ms")?,
            mean_queue_delay_ms: float("mean_queue_delay_ms")?,
            footprint_batches: float("footprint_batches")?,
            verdict,
            faults_injected: uint("faults_injected")?,
            worker_deaths: uint("worker_deaths")?,
            failed,
        })
    }

    /// True when `other` is at least as good on both throughput (higher
    /// is better) and mean \[T2\] wait (lower is better), and strictly
    /// better on at least one — the pruning dominance test. Failed cards
    /// never dominate and are never counted as dominated.
    #[must_use]
    pub fn dominated_by(&self, other: &Scorecard) -> bool {
        if !self.is_ok() || !other.is_ok() {
            return false;
        }
        let no_worse =
            other.throughput >= self.throughput && other.mean_wait_ms <= self.mean_wait_ms;
        let strictly_better =
            other.throughput > self.throughput || other.mean_wait_ms < self.mean_wait_ms;
        no_worse && strictly_better
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, MetricsRegistry};
    use lotus_sim::Time;

    fn config() -> TrialConfig {
        TrialConfig {
            num_workers: 2,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
        }
    }

    fn histogram(mean_ns: f64) -> HistogramSnapshot {
        HistogramSnapshot {
            count: 1,
            sum: Span::from_nanos(mean_ns as u64),
            mean_ns,
            p50_ns: mean_ns,
            p90_ns: mean_ns,
            p99_ns: mean_ns,
        }
    }

    fn measurement(wait_ns: u64, delay_mean_ns: f64, wait_mean_ns: f64) -> TrialMeasurement {
        let registry = MetricsRegistry::new();
        registry.inc_counter(names::MAIN_WAIT_NS, wait_ns);
        registry.set_gauge("queue_depth.data_queue", Time::ZERO, 3.0);
        registry.set_gauge(names::PINNED_CACHE, Time::ZERO, 1.0);
        let mut snapshot = registry.snapshot();
        snapshot
            .histograms
            .insert(names::T2_WAIT.to_string(), histogram(wait_mean_ns));
        snapshot
            .histograms
            .insert(names::QUEUE_DELAY.to_string(), histogram(delay_mean_ns));
        TrialMeasurement {
            elapsed: Span::from_secs_f64(1.0),
            batches: 10,
            samples: 80,
            snapshot,
            op_classes: OpClassTotals {
                storage: Span::ZERO,
                load: Span::from_millis(10),
                transform: Span::from_millis(100),
                collate: Span::from_millis(5),
            },
        }
    }

    #[test]
    fn scorecard_folds_throughput_footprint_and_verdict() {
        // 40% of the second spent waiting → input-bound; transforms
        // dominate → preprocessing-bound.
        let m = measurement(400_000_000, 1_000.0, 40_000_000.0);
        let card = Scorecard::from_measurement(config(), &m);
        assert!((card.throughput - 80.0).abs() < 1e-9);
        assert!((card.wait_fraction - 0.4).abs() < 1e-9);
        // 3 (queue) + 1 (pinned cache) + 2 (workers)
        assert!((card.footprint_batches - 6.0).abs() < 1e-9);
        assert_eq!(card.verdict, Some(Verdict::PreprocessingBound));
        assert!(card.is_ok());
    }

    #[test]
    fn loader_dominated_input_bound_runs_are_fetch_bound() {
        let mut m = measurement(400_000_000, 1_000.0, 40_000_000.0);
        m.op_classes = OpClassTotals {
            storage: Span::ZERO,
            load: Span::from_millis(500),
            transform: Span::from_millis(50),
            collate: Span::from_millis(5),
        };
        let card = Scorecard::from_measurement(config(), &m);
        assert_eq!(card.verdict, Some(Verdict::FetchBound));
    }

    #[test]
    fn storage_dominated_input_bound_runs_are_storage_bound() {
        let mut m = measurement(400_000_000, 1_000.0, 40_000_000.0);
        m.op_classes = OpClassTotals {
            storage: Span::from_millis(600),
            load: Span::from_millis(80),
            transform: Span::from_millis(50),
            collate: Span::from_millis(5),
        };
        let card = Scorecard::from_measurement(config(), &m);
        assert_eq!(card.verdict, Some(Verdict::StorageBound));
    }

    #[test]
    fn queued_up_batches_with_idle_consumer_mean_gpu_bound() {
        // Consumer almost never waits, batches sit 100x longer in the
        // queue than the consumer waits for them.
        let m = measurement(1_000_000, 10_000_000.0, 100_000.0);
        let card = Scorecard::from_measurement(config(), &m);
        assert_eq!(card.verdict, Some(Verdict::GpuBound));
    }

    #[test]
    fn scorecard_json_round_trips_losslessly() {
        let ok = Scorecard::from_measurement(config(), &measurement(400_000_000, 1_000.0, 4e7));
        let failed = Scorecard::from_failure(config(), "worker 1 killed".into());
        for card in [ok, failed] {
            let text = serde_json::to_string_pretty(&Value(card.to_json_content())).unwrap();
            let parsed = Scorecard::from_json_value(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(parsed, card, "round trip must be exact");
            // Byte-exact re-serialization is what the trial cache needs.
            let retext = serde_json::to_string_pretty(&Value(parsed.to_json_content())).unwrap();
            assert_eq!(retext, text);
        }
        assert!(Scorecard::from_json_value(&Value::null()).is_err());
    }

    #[test]
    fn dominance_needs_both_axes() {
        let base = Scorecard::from_measurement(config(), &measurement(100_000_000, 1.0, 5e6));
        let mut better = base.clone();
        better.throughput += 10.0;
        better.mean_wait_ms -= 1.0;
        assert!(base.dominated_by(&better));
        assert!(!better.dominated_by(&base));
        // Faster but waits longer → not dominated.
        let mut tradeoff = base.clone();
        tradeoff.throughput += 10.0;
        tradeoff.mean_wait_ms += 1.0;
        assert!(!base.dominated_by(&tradeoff));
        // Failed cards neither dominate nor get pruned.
        let failed = Scorecard::from_failure(config(), "worker killed".into());
        assert!(!failed.dominated_by(&better));
        assert!(!base.dominated_by(&failed));
        assert!(!failed.is_ok());
    }
}
