//! The tuning search itself: grid sweep with dominance pruning, optional
//! hill-climbing refinement, Pareto frontier extraction, and the final
//! report (table + byte-deterministic JSON).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde_json::{Content, Value};

use crate::exec::{run_jobs, TrialCache};

use super::score::{Scorecard, TrialMeasurement};
use super::space::{SearchSpace, TrialConfig};

/// How the tuner walks the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive sweep of [`SearchSpace::grid`], with dominance pruning
    /// inside each worker slice: once adding workers produces a card
    /// that is no better on either throughput or mean \[T2\] wait than
    /// an earlier (smaller-worker) card of the same slice, the remaining
    /// larger worker counts of that slice are skipped — they can only
    /// cost more memory.
    Grid,
    /// Greedy hill climbing from the baseline configuration: evaluate
    /// all [`SearchSpace::neighbors`], move to the best strictly-better
    /// one, repeat up to `max_moves` times. Evaluates far fewer configs
    /// than the grid on large spaces; may stop at a local optimum.
    HillClimb {
        /// Maximum number of accepted moves before stopping.
        max_moves: usize,
    },
}

/// The tuner: a search space plus a strategy. Measurement is delegated
/// to an *oracle* closure so the engine stays independent of any
/// concrete workload — the oracle runs one deterministic simulation for
/// a candidate configuration and folds its metrics into a
/// [`TrialMeasurement`] (or an error string for a degraded run).
///
/// # Examples
///
/// ```
/// use lotus_core::tune::{SearchSpace, Strategy, TrialConfig, Tuner};
/// # use lotus_core::metrics::MetricsRegistry;
/// # use lotus_core::trace::analysis::OpClassTotals;
/// # use lotus_core::tune::TrialMeasurement;
/// # use lotus_sim::Span;
///
/// let tuner = Tuner {
///     space: SearchSpace { workers: vec![1, 2], prefetch: vec![2], queue_caps: vec![None], pin_memory: vec![true] },
///     strategy: Strategy::Grid,
/// };
/// let baseline = TrialConfig { num_workers: 1, prefetch_factor: 2, data_queue_cap: None, pin_memory: true };
/// // A toy oracle: doubling workers halves the epoch.
/// let report = tuner.run(baseline, |c| {
///     Ok(TrialMeasurement {
///         elapsed: Span::from_millis(100 / c.num_workers as u64),
///         batches: 8,
///         samples: 64,
///         snapshot: MetricsRegistry::new().snapshot(),
///         op_classes: OpClassTotals::default(),
///     })
/// })?;
/// assert_eq!(report.recommended.num_workers, 2);
/// assert!(report.predicted_speedup.unwrap() > 1.9);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Candidate knob values.
    pub space: SearchSpace,
    /// Search strategy.
    pub strategy: Strategy,
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The baseline configuration's card (always evaluated first).
    pub baseline: Scorecard,
    /// Every evaluated configuration, in evaluation order. Contains the
    /// baseline too when the search space covers it.
    pub cards: Vec<Scorecard>,
    /// Configurations skipped by dominance pruning, in grid order.
    pub pruned: Vec<TrialConfig>,
    /// The Pareto frontier over (throughput max, footprint min), sorted
    /// by ascending footprint. Only successful cards participate.
    pub frontier: Vec<TrialConfig>,
    /// The recommended configuration: highest throughput, ties broken
    /// toward smaller footprint, then fewer workers.
    pub recommended: TrialConfig,
    /// Predicted epoch speedup of `recommended` over the baseline
    /// (baseline elapsed / recommended elapsed). `None` when the
    /// baseline itself failed.
    pub predicted_speedup: Option<f64>,
    /// Distinct configurations measured by running a live simulation
    /// during this search. With `--jobs N > 1` this can exceed the
    /// number of cards: the parallel warm-up speculatively measures
    /// configurations that the serial pruning replay then skips.
    pub trials_live: usize,
    /// Distinct configurations whose scorecard came from the on-disk
    /// trial cache instead of a live simulation. Zero when the search
    /// ran without a cache.
    pub trials_cached: usize,
}

/// The memoizing measurement layer under one search: resolves each
/// distinct configuration exactly once (cache hit, else live oracle
/// call), fans independent live measurements across [`run_jobs`]
/// threads, and keeps the *committed* report order strictly serial.
///
/// The split between [`measure`](Evaluator::measure) (speculative,
/// parallel, order-free) and [`commit`](Evaluator::commit) (the serial
/// walk that builds `order`) is what makes `--jobs N` output
/// byte-identical to `--jobs 1`: threads only ever fill the memo, and
/// every decision that shapes the report replays over memo hits in the
/// exact sequence the serial search would have used.
struct Evaluator<'a, F> {
    oracle: &'a F,
    cache: Option<&'a TrialCache>,
    jobs: usize,
    memo: BTreeMap<TrialConfig, Scorecard>,
    /// Configurations in report order — the serial walk's commit order,
    /// never the warm-up's completion order.
    order: Vec<TrialConfig>,
    /// Set view of `order`; with a warm-up, "already in the memo" no
    /// longer implies "already in the report".
    committed: BTreeSet<TrialConfig>,
    live: usize,
    cached: usize,
}

impl<F> Evaluator<'_, F>
where
    F: Fn(&TrialConfig) -> Result<TrialMeasurement, String> + Sync,
{
    /// Resolves every not-yet-memoized configuration in `configs`: cache
    /// hits load directly into the memo, the rest run live — fanned over
    /// `jobs` threads, results folded back in submission order.
    fn measure(&mut self, configs: &[TrialConfig]) {
        let mut todo: Vec<TrialConfig> = Vec::new();
        for &config in configs {
            if self.memo.contains_key(&config) || todo.contains(&config) {
                continue;
            }
            if let Some(card) = self.cache.and_then(|cache| cache.lookup(&config)) {
                self.memo.insert(config, card);
                self.cached += 1;
                continue;
            }
            todo.push(config);
        }
        if todo.is_empty() {
            return;
        }
        let oracle = self.oracle;
        let tasks: Vec<_> = todo
            .iter()
            .map(|&config| {
                move || match oracle(&config) {
                    Ok(m) => Scorecard::from_measurement(config, &m),
                    Err(e) => Scorecard::from_failure(config, e),
                }
            })
            .collect();
        let cards = run_jobs(self.jobs, tasks);
        self.live += cards.len();
        for card in cards {
            if let Some(cache) = self.cache {
                cache.store(&card.config, &card);
            }
            self.memo.insert(card.config, card);
        }
    }

    /// The serial walk's evaluation point: measures `config` if the
    /// warm-up did not already, and appends it to the report order on
    /// first commit.
    fn commit(&mut self, config: TrialConfig) -> Scorecard {
        if !self.memo.contains_key(&config) {
            self.measure(&[config]);
        }
        if self.committed.insert(config) {
            self.order.push(config);
        }
        self.memo[&config].clone()
    }
}

impl Tuner {
    /// Runs the search. `baseline` is measured first (it anchors the
    /// speedup prediction and seeds hill climbing); the oracle is called
    /// once per distinct configuration (results are memoized).
    ///
    /// An oracle error does **not** abort the search — the configuration
    /// is recorded as a failed (degraded) card and the sweep continues,
    /// which is what makes tuning under a fault plan total.
    ///
    /// # Errors
    ///
    /// Returns an error when the search space fails
    /// [`SearchSpace::validate`] or when no configuration (baseline
    /// included) completed successfully.
    pub fn run<F>(&self, baseline: TrialConfig, oracle: F) -> Result<TuneReport, String>
    where
        F: Fn(&TrialConfig) -> Result<TrialMeasurement, String> + Sync,
    {
        self.run_with(baseline, oracle, 1, None)
    }

    /// Runs the search with explicit execution options: `jobs` parallel
    /// measurement threads and an optional on-disk trial `cache`.
    ///
    /// Determinism: with `jobs > 1` the tuner first *speculatively*
    /// measures the whole candidate frontier in parallel (the full grid,
    /// or each hill-climbing neighborhood), then replays the unchanged
    /// serial walk over the memoized results. Every decision the serial
    /// search makes — evaluation order, dominance cuts, pruned list,
    /// climb path — is taken in the replay, so the report (and its JSON)
    /// is byte-identical to a `jobs = 1` run. The price is that grid
    /// speculation may measure configurations serial pruning would have
    /// skipped; those extra trials show up in
    /// [`TuneReport::trials_live`] and, with a cache, become warmth for
    /// the next sweep rather than waste.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with<F>(
        &self,
        baseline: TrialConfig,
        oracle: F,
        jobs: usize,
        cache: Option<&TrialCache>,
    ) -> Result<TuneReport, String>
    where
        F: Fn(&TrialConfig) -> Result<TrialMeasurement, String> + Sync,
    {
        self.space.validate()?;
        let mut eval = Evaluator {
            oracle: &oracle,
            cache,
            jobs: jobs.max(1),
            memo: BTreeMap::new(),
            order: Vec::new(),
            committed: BTreeSet::new(),
            live: 0,
            cached: 0,
        };

        if eval.jobs > 1 {
            if let Strategy::Grid = self.strategy {
                // Speculative warm-up: the whole grid (plus the baseline)
                // is independent, so measure it in one parallel wave.
                let mut frontier = vec![baseline];
                frontier.extend(self.space.grid());
                eval.measure(&frontier);
            }
        }

        let baseline_card = eval.commit(baseline);
        let mut pruned: Vec<TrialConfig> = Vec::new();

        match self.strategy {
            Strategy::Grid => {
                let slice_len = self.space.workers.len();
                let grid = self.space.grid();
                for slice in grid.chunks(slice_len) {
                    // Cards of this slice that completed, in worker order;
                    // pruning compares only within the slice so a bounded
                    // queue or disabled pinning is never judged against an
                    // unbounded sibling.
                    let mut slice_cards: Vec<Scorecard> = Vec::new();
                    let mut cut = false;
                    for &config in slice {
                        if cut {
                            pruned.push(config);
                            continue;
                        }
                        let card = eval.commit(config);
                        if card.is_ok() {
                            // Weak dominance: an earlier card with fewer
                            // workers that is at least as good on both
                            // axes means adding workers stopped paying —
                            // larger counts only cost memory.
                            if slice_cards.iter().any(|prev: &Scorecard| {
                                prev.throughput >= card.throughput
                                    && prev.mean_wait_ms <= card.mean_wait_ms
                            }) {
                                cut = true;
                            }
                            slice_cards.push(card);
                        }
                    }
                }
            }
            Strategy::HillClimb { max_moves } => {
                let mut at = baseline;
                let mut at_card = baseline_card.clone();
                for _ in 0..max_moves {
                    let neighbors = self.space.neighbors(at);
                    if eval.jobs > 1 {
                        // Per-round warm-up: a round's neighborhood is
                        // independent; which neighborhood comes next is
                        // decided by the serial replay below.
                        eval.measure(&neighbors);
                    }
                    let mut best: Option<Scorecard> = None;
                    for next in neighbors {
                        let card = eval.commit(next);
                        if !card.is_ok() {
                            continue;
                        }
                        if best.as_ref().is_none_or(|b| card.throughput > b.throughput) {
                            best = Some(card);
                        }
                    }
                    match best {
                        Some(card) if card.throughput > at_card.throughput => {
                            at = card.config;
                            at_card = card;
                        }
                        _ => break,
                    }
                }
            }
        }

        let Evaluator {
            memo,
            order,
            live: trials_live,
            cached: trials_cached,
            ..
        } = eval;
        let cards: Vec<Scorecard> = order.iter().map(|c| memo[c].clone()).collect();
        let mut ok_cards: Vec<&Scorecard> = cards.iter().filter(|c| c.is_ok()).collect();
        if ok_cards.is_empty() {
            return Err("no configuration completed successfully".into());
        }
        // Recommended: throughput desc, then footprint asc, workers asc,
        // config order as the final deterministic tie-break.
        ok_cards.sort_by(|a, b| {
            b.throughput
                .total_cmp(&a.throughput)
                .then(a.footprint_batches.total_cmp(&b.footprint_batches))
                .then(a.config.num_workers.cmp(&b.config.num_workers))
                .then(a.config.cmp(&b.config))
        });
        let recommended_card = ok_cards[0].clone();
        let predicted_speedup = if baseline_card.is_ok() {
            Some(baseline_card.elapsed.as_secs_f64() / recommended_card.elapsed.as_secs_f64())
        } else {
            None
        };

        // Pareto frontier on (throughput max, footprint min).
        let mut frontier: Vec<&Scorecard> = ok_cards
            .iter()
            .filter(|c| {
                !ok_cards.iter().any(|o| {
                    (o.throughput >= c.throughput && o.footprint_batches < c.footprint_batches)
                        || (o.throughput > c.throughput
                            && o.footprint_batches <= c.footprint_batches)
                })
            })
            .copied()
            .collect();
        frontier.sort_by(|a, b| {
            a.footprint_batches
                .total_cmp(&b.footprint_batches)
                .then(a.config.cmp(&b.config))
        });
        // Exact ties on both axes are one Pareto point; keep the first.
        frontier.dedup_by(|a, b| {
            a.throughput == b.throughput && a.footprint_batches == b.footprint_batches
        });

        Ok(TuneReport {
            baseline: baseline_card,
            frontier: frontier.iter().map(|c| c.config).collect(),
            recommended: recommended_card.config,
            predicted_speedup,
            cards,
            pruned,
            trials_live,
            trials_cached,
        })
    }
}

impl TuneReport {
    /// The scorecard of the recommended configuration.
    ///
    /// # Panics
    ///
    /// Never — the recommended config is always among the cards.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn recommended_card(&self) -> &Scorecard {
        self.cards
            .iter()
            .find(|c| c.config == self.recommended)
            .expect("recommended config was evaluated")
    }

    /// Renders the report as a fixed-width text table plus the verdict
    /// footer (what `lotus tune` prints without `--json`).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>8} {:>9} {:>10} {:>7}  {:<20} flags",
            "config", "samples/s", "wait%", "t2 ms", "delay ms", "peak#", "verdict"
        );
        let _ = writeln!(out, "{}", "-".repeat(100));
        for card in &self.cards {
            let mut flags = Vec::new();
            if card.config == self.baseline.config {
                flags.push("baseline");
            }
            if card.config == self.recommended {
                flags.push("recommended");
            }
            if self.frontier.contains(&card.config) {
                flags.push("pareto");
            }
            if card.worker_deaths > 0 || card.faults_injected > 0 {
                flags.push("faults");
            }
            match &card.failed {
                Some(err) => {
                    let _ = writeln!(
                        out,
                        "{:<22} {:>12} {:>8} {:>9} {:>10} {:>7}  {:<20} {}",
                        card.config.label(),
                        "-",
                        "-",
                        "-",
                        "-",
                        "-",
                        format!("degraded: {err}"),
                        flags.join(",")
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{:<22} {:>12.1} {:>7.1}% {:>9.2} {:>10.2} {:>7.1}  {:<20} {}",
                        card.config.label(),
                        card.throughput,
                        card.wait_fraction * 100.0,
                        card.mean_wait_ms,
                        card.mean_queue_delay_ms,
                        card.footprint_batches,
                        card.verdict.map_or("-", |v| v.as_str()),
                        flags.join(",")
                    );
                }
            }
        }
        if !self.pruned.is_empty() {
            let labels: Vec<String> = self.pruned.iter().map(TrialConfig::label).collect();
            let _ = writeln!(out, "pruned (dominated): {}", labels.join(", "));
        }
        let rec = self.recommended_card();
        let _ = writeln!(out, "\nrecommended: {}", rec.config.label());
        match self.predicted_speedup {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "predicted speedup over baseline {}: {:.2}x",
                    self.baseline.config.label(),
                    s
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "baseline {} degraded; no speedup prediction",
                    self.baseline.config.label()
                );
            }
        }
        if let Some(v) = rec.verdict {
            let _ = writeln!(out, "bottleneck at recommended config: {}", v.as_str());
        }
        // Execution accounting only — deliberately absent from the JSON
        // export, whose bytes must not depend on jobs or cache warmth.
        let _ = writeln!(
            out,
            "trials: {} live, {} cached",
            self.trials_live, self.trials_cached
        );
        out
    }

    /// Serializes the report as pretty-printed JSON. Maps are emitted in
    /// insertion order and every field is derived from the deterministic
    /// simulation, so the same tuning run always produces byte-identical
    /// output — regardless of `--jobs` or cache warmth, which is why the
    /// live/cached trial counts appear in
    /// [`render_table`](Self::render_table) but not here.
    #[must_use]
    pub fn to_json(&self) -> String {
        let doc = Value(Content::Map(vec![
            ("baseline".to_string(), self.baseline.to_json_content()),
            (
                "cards".to_string(),
                Content::Seq(self.cards.iter().map(Scorecard::to_json_content).collect()),
            ),
            (
                "pruned".to_string(),
                Content::Seq(
                    self.pruned
                        .iter()
                        .map(TrialConfig::to_json_content)
                        .collect(),
                ),
            ),
            (
                "pareto_frontier".to_string(),
                Content::Seq(
                    self.frontier
                        .iter()
                        .map(TrialConfig::to_json_content)
                        .collect(),
                ),
            ),
            (
                "recommended".to_string(),
                self.recommended.to_json_content(),
            ),
            (
                "predicted_speedup".to_string(),
                match self.predicted_speedup {
                    Some(s) => Content::F64(s),
                    None => Content::Null,
                },
            ),
        ]));
        // Writing an in-memory document to a string has no failure mode:
        // every map key is a string.
        #[allow(clippy::expect_used)]
        let mut text = serde_json::to_string_pretty(&doc).expect("tune report serializes");
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{names, MetricsRegistry};
    use crate::trace::analysis::OpClassTotals;
    use lotus_sim::{Span, Time};

    fn space() -> SearchSpace {
        SearchSpace {
            workers: vec![1, 2, 4, 8],
            prefetch: vec![2],
            queue_caps: vec![None],
            pin_memory: vec![true],
        }
    }

    /// Synthetic workload: preprocessing takes 80 ms of worker time per
    /// batch, the consumer 10 ms; workers parallelize perfectly up to 4
    /// then saturate (the source serializes).
    fn toy_oracle(c: &TrialConfig) -> Result<TrialMeasurement, String> {
        let batches = 32u64;
        let per_batch_ms = 10.0 + 80.0 / (c.num_workers.min(4) as f64);
        let elapsed = Span::from_secs_f64(per_batch_ms * batches as f64 / 1e3);
        let registry = MetricsRegistry::new();
        let wait_ms = (per_batch_ms - 10.0).max(0.0);
        registry.inc_counter(names::MAIN_WAIT_NS, (wait_ms * batches as f64 * 1e6) as u64);
        registry.record_latency(names::T2_WAIT, Span::from_secs_f64(wait_ms / 1e3));
        registry.record_latency(names::QUEUE_DELAY, Span::from_micros(50));
        registry.set_gauge("queue_depth.data_queue", Time::ZERO, c.num_workers as f64);
        Ok(TrialMeasurement {
            elapsed,
            batches,
            samples: batches * 8,
            snapshot: registry.snapshot(),
            op_classes: OpClassTotals {
                storage: Span::ZERO,
                load: Span::from_millis(5),
                transform: Span::from_millis(75),
                collate: Span::from_millis(2),
            },
        })
    }

    fn baseline() -> TrialConfig {
        TrialConfig {
            num_workers: 1,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
        }
    }

    #[test]
    fn grid_prunes_saturated_worker_counts() {
        let tuner = Tuner {
            space: SearchSpace {
                workers: vec![1, 2, 4, 8, 16],
                ..space()
            },
            strategy: Strategy::Grid,
        };
        let report = tuner.run(baseline(), toy_oracle).unwrap();
        // Workers saturate at 4: the 8-worker card ties it on both axes,
        // which cuts the slice — 16 workers is never evaluated.
        assert_eq!(report.recommended.num_workers, 4);
        assert_eq!(report.pruned.len(), 1);
        assert_eq!(report.pruned[0].num_workers, 16);
        assert!(report.cards.iter().all(|c| c.config.num_workers != 16));
        let speedup = report.predicted_speedup.unwrap();
        assert!(speedup > 2.5, "90ms -> 30ms per batch: {speedup}");
        assert!(report.frontier.contains(&report.recommended));
        // The saturated 8-worker card ties the 4-worker card exactly on
        // throughput but costs more memory, so only one survives on the
        // frontier.
        assert!(!report.frontier.iter().any(|c| c.num_workers == 8));
    }

    #[test]
    fn hill_climb_reaches_the_same_optimum() {
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::HillClimb { max_moves: 8 },
        };
        let report = tuner.run(baseline(), toy_oracle).unwrap();
        assert_eq!(report.recommended.num_workers, 4);
        // Hill climbing should evaluate fewer configs than grid + memoize.
        assert!(report.cards.len() <= 4);
    }

    #[test]
    fn failed_trials_degrade_without_aborting() {
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::Grid,
        };
        let report = tuner
            .run(baseline(), |c| {
                if c.num_workers == 2 {
                    Err("worker 1 killed by fault plan".into())
                } else {
                    toy_oracle(c)
                }
            })
            .unwrap();
        let failed: Vec<_> = report.cards.iter().filter(|c| !c.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].config.num_workers, 2);
        assert_eq!(
            failed[0].failed.as_deref(),
            Some("worker 1 killed by fault plan")
        );
        // Failure must not prune the rest of the slice.
        assert!(report.cards.iter().any(|c| c.config.num_workers == 4));
        assert_eq!(report.recommended.num_workers, 4);
    }

    #[test]
    fn all_failures_is_an_error() {
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::Grid,
        };
        let err = tuner.run(baseline(), |_| Err("dead".into())).unwrap_err();
        assert_eq!(err, "no configuration completed successfully");
    }

    #[test]
    fn report_renders_table_and_deterministic_json() {
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::Grid,
        };
        let a = tuner.run(baseline(), toy_oracle).unwrap();
        let b = tuner.run(baseline(), toy_oracle).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same run, same bytes");
        let table = a.render_table();
        assert!(table.contains("recommended: w4 pf2 cap- pin"));
        assert!(table.contains("predicted speedup"));
        assert!(table.contains("trials: 4 live, 0 cached"));
        let json = a.to_json();
        assert!(json.contains("\"pareto_frontier\""));
        assert!(json.contains("\"predicted_speedup\""));
        assert!(!json.contains("trials_live"), "counts stay out of JSON");
    }

    #[test]
    fn parallel_grid_matches_serial_byte_for_byte() {
        // The pruning space: serial evaluation skips the 16-worker
        // config, the parallel warm-up speculatively measures it — yet
        // the reports must not differ in any consumer-visible way.
        let tuner = Tuner {
            space: SearchSpace {
                workers: vec![1, 2, 4, 8, 16],
                ..space()
            },
            strategy: Strategy::Grid,
        };
        let serial = tuner.run(baseline(), toy_oracle).unwrap();
        let parallel = tuner.run_with(baseline(), toy_oracle, 4, None).unwrap();
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.pruned, parallel.pruned);
        assert_eq!(serial.recommended, parallel.recommended);
        assert!(
            parallel.trials_live > serial.trials_live,
            "speculation measured the pruned config: {} vs {}",
            parallel.trials_live,
            serial.trials_live
        );
    }

    #[test]
    fn parallel_hill_climb_matches_serial_byte_for_byte() {
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::HillClimb { max_moves: 8 },
        };
        let serial = tuner.run(baseline(), toy_oracle).unwrap();
        let parallel = tuner.run_with(baseline(), toy_oracle, 4, None).unwrap();
        assert_eq!(serial.to_json(), parallel.to_json());
        // A round's neighborhood is exactly what the serial walk visits,
        // so hill climbing speculates nothing extra.
        assert_eq!(serial.trials_live, parallel.trials_live);
    }

    #[test]
    fn cache_warm_rerun_executes_zero_live_trials() {
        let root =
            std::env::temp_dir().join(format!("lotus-search-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = TrialCache::open(&root, "toy-oracle seed=0").unwrap();
        let tuner = Tuner {
            space: space(),
            strategy: Strategy::Grid,
        };
        let cold = tuner
            .run_with(baseline(), toy_oracle, 2, Some(&cache))
            .unwrap();
        assert!(cold.trials_live > 0);
        assert_eq!(cold.trials_cached, 0);
        let warm = tuner
            .run_with(baseline(), toy_oracle, 2, Some(&cache))
            .unwrap();
        assert_eq!(warm.trials_live, 0, "every trial came from the cache");
        assert_eq!(warm.trials_cached, cold.trials_live);
        assert_eq!(cold.to_json(), warm.to_json(), "warmth never shows in JSON");
        let _ = std::fs::remove_dir_all(&root);
    }
}
