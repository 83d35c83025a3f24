//! Pluggable index-batch scheduling policies.
//!
//! PyTorch hardwires one dispatch discipline — a strict round-robin
//! `_worker_queue_idx_cycle` — and the Lotus paper shows how that
//! interacts badly with skewed per-sample costs: a worker stuck on a slow
//! sample keeps receiving its round-robin share while its siblings drain
//! and idle. MinatoLoader recovers the lost throughput by segregating
//! slow samples; tf.data argues dispatch should be a *policy*, not a
//! loop. This module factors the decision points of the one dispatcher
//! (`protocol.rs`, which the sim and native engines share) behind a
//! [`SchedulingPolicy`] trait so alternatives compose with the rest of
//! the protocol — orphan redispatch, in-order consumption,
//! refill-per-returned-batch — without touching it.
//!
//! A policy decides exactly three things:
//!
//! 1. **Placement** ([`SchedulingPolicy::place`]): which live worker's
//!    index queue receives the next batch.
//! 2. **Refill** ([`SchedulingPolicy::refill`]): how many index batches
//!    to dispatch after a finished batch came back (the PyTorch protocol
//!    refills exactly one).
//! 3. Nothing else. Queues stay FIFO, orphans of dead workers are
//!    re-sent in batch-id order before fresh batches, and the main loop
//!    still consumes strictly in order — so every policy inherits the
//!    protocol's sample-conservation and dispatch-discipline invariants,
//!    which `lotus check` verifies per policy.
//!
//! Feedback flows back through [`SchedulingPolicy::on_batch_returned`]
//! (observed fetch cost, feeding SlowLane's per-sample EWMA) and
//! [`SchedulingPolicy::on_worker_died`].

use std::collections::HashMap;

/// Which scheduling policy drives index-batch dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicyKind {
    /// PyTorch's strict `_worker_queue_idx_cycle`: rotate over live
    /// workers in id order. The reference policy — byte-identical to the
    /// engine's historical behavior.
    #[default]
    RoundRobin,
    /// Load-aware stealing: each batch goes to the least-loaded live
    /// worker, where load counts both the queued index batches and the
    /// batches the worker is still processing (dispatched but not yet
    /// returned). When that differs from the round-robin target, the
    /// batch is "stolen" from the backed-up worker and a steal instant
    /// is traced. Under uniform costs every load ties and the policy is
    /// indistinguishable from round-robin; under skewed costs it stops
    /// feeding fresh batches to a worker stuck on a slow sample.
    WorkStealing,
    /// MinatoLoader-style fast/slow segregation: batches whose estimated
    /// per-sample cost (dataset hint + online EWMA of observed fetches)
    /// is an outlier are confined to a dedicated slow lane of workers so
    /// they never head-of-line-block the fast lane.
    SlowLane,
    /// Round-robin placement with a prefetch window resized online from
    /// the live data-queue depth gauge: shrinks toward 1 when batches
    /// pile up unconsumed, grows back toward the configured
    /// `prefetch_factor` when the consumer starves.
    AdaptivePrefetch,
}

impl SchedulingPolicyKind {
    /// All shipped policies, in bake-off order.
    pub const ALL: [SchedulingPolicyKind; 4] = [
        SchedulingPolicyKind::RoundRobin,
        SchedulingPolicyKind::WorkStealing,
        SchedulingPolicyKind::SlowLane,
        SchedulingPolicyKind::AdaptivePrefetch,
    ];

    /// The CLI / fingerprint name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulingPolicyKind::RoundRobin => "round-robin",
            SchedulingPolicyKind::WorkStealing => "work-stealing",
            SchedulingPolicyKind::SlowLane => "slow-lane",
            SchedulingPolicyKind::AdaptivePrefetch => "adaptive-prefetch",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(s: &str) -> Result<SchedulingPolicyKind, String> {
        match s {
            "round-robin" | "rr" => Ok(SchedulingPolicyKind::RoundRobin),
            "work-stealing" | "ws" => Ok(SchedulingPolicyKind::WorkStealing),
            "slow-lane" | "sl" => Ok(SchedulingPolicyKind::SlowLane),
            "adaptive-prefetch" | "ap" => Ok(SchedulingPolicyKind::AdaptivePrefetch),
            other => Err(format!(
                "unknown policy '{other}' (expected round-robin, work-stealing, \
                 slow-lane or adaptive-prefetch)"
            )),
        }
    }

    /// True when the policy consumes per-batch cost estimates, so the
    /// engine should precompute dataset cost hints.
    #[must_use]
    pub fn is_cost_aware(&self) -> bool {
        matches!(self, SchedulingPolicyKind::SlowLane)
    }

    /// Builds the runtime state for one job over `workers` workers with
    /// the configured per-worker `prefetch_factor`.
    #[must_use]
    pub fn build(&self, workers: usize, prefetch_factor: usize) -> Box<dyn SchedulingPolicy> {
        match self {
            SchedulingPolicyKind::RoundRobin => Box::new(RoundRobin { cycle: 0 }),
            SchedulingPolicyKind::WorkStealing => Box::new(WorkStealing {
                cycle: 0,
                outstanding: vec![0; workers],
            }),
            SchedulingPolicyKind::SlowLane => Box::new(SlowLane::new(workers)),
            SchedulingPolicyKind::AdaptivePrefetch => Box::new(AdaptivePrefetch {
                cycle: 0,
                target: prefetch_factor,
            }),
        }
    }
}

impl std::fmt::Display for SchedulingPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which lane a [`SchedulingPolicyKind::SlowLane`] placement chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The default lane for ordinary batches.
    Fast,
    /// The segregated lane for estimated-slow batches.
    Slow,
}

impl Lane {
    /// The trace label ("fast" / "slow").
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Lane::Fast => "fast",
            Lane::Slow => "slow",
        }
    }
}

/// The candidate batch a placement decision is about.
#[derive(Debug, Clone, Copy)]
pub struct BatchRef<'a> {
    /// Batch id.
    pub id: u64,
    /// Dataset indices in the batch.
    pub indices: &'a [u64],
    /// Mean dataset-provided cost hint over the batch (arbitrary units,
    /// e.g. stored bytes per sample), when the dataset offers one.
    pub hint: Option<f64>,
}

/// A read-only snapshot of the loader state a policy decides from.
#[derive(Debug, Clone, Copy)]
pub struct DispatchContext<'a> {
    /// Per-worker index-queue depths, sampled just before the dispatch.
    pub queue_depths: &'a [usize],
    /// Per-worker death flags; at least one worker is live when
    /// [`SchedulingPolicy::place`] is called.
    pub dead: &'a [bool],
    /// Batches dispatched but not yet returned through the data queue.
    pub in_flight: usize,
    /// Current depth of the shared data queue (preprocessed, unconsumed).
    pub data_queue_depth: usize,
    /// The configured per-worker prefetch factor — the protocol's hard
    /// upper bound on the in-flight window.
    pub prefetch_factor: usize,
    /// True when the batch is a dead worker's orphan being re-sent.
    pub redispatch: bool,
}

impl DispatchContext<'_> {
    /// Number of live workers.
    #[must_use]
    pub fn live(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }
}

/// Where a batch goes, and which policy-specific instants to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The live worker whose index queue receives the batch.
    pub worker: usize,
    /// The round-robin target the batch was taken from, when the policy
    /// overrode it (traced as a steal instant).
    pub stolen_from: Option<usize>,
    /// The lane the batch was classified into, for lane-aware policies
    /// (traced as a lane-assignment instant).
    pub lane: Option<Lane>,
}

impl Placement {
    fn plain(worker: usize) -> Placement {
        Placement {
            worker,
            stolen_from: None,
            lane: None,
        }
    }
}

/// How many batches to dispatch after one returned, and whether the
/// prefetch window was resized (traced as a resize instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refill {
    /// Number of index batches to dispatch now. The engine additionally
    /// caps the in-flight inventory at
    /// `prefetch_factor * num_workers`, so a policy can never exceed
    /// the protocol's bound.
    pub count: usize,
    /// The new per-worker prefetch target when it changed.
    pub resized_to: Option<usize>,
}

impl Refill {
    /// The protocol default: exactly one batch per returned batch.
    #[must_use]
    pub fn one() -> Refill {
        Refill {
            count: 1,
            resized_to: None,
        }
    }
}

/// A stateful dispatch discipline driving one training job. One instance
/// serves either engine (simulated or native); it sees only abstract
/// queue depths and ids, never clocks or queues.
pub trait SchedulingPolicy: Send {
    /// The kind this policy was built from.
    fn kind(&self) -> SchedulingPolicyKind;

    /// Chooses the live worker that receives `batch`. Called only when
    /// `ctx.live() > 0`; must return a live worker.
    fn place(&mut self, batch: &BatchRef<'_>, ctx: &DispatchContext<'_>) -> Placement;

    /// Feedback: `worker` returned a finished batch over `indices` whose
    /// fetch (preprocessing) took `fetch_ns`.
    fn on_batch_returned(&mut self, worker: usize, indices: &[u64], fetch_ns: u64) {
        let _ = (worker, indices, fetch_ns);
    }

    /// Feedback: `worker` was discovered dead.
    fn on_worker_died(&mut self, worker: usize) {
        let _ = worker;
    }

    /// How many index batches to dispatch after a returned batch —
    /// `ctx.in_flight` already excludes the batch that just returned.
    /// The default is the PyTorch protocol: exactly one.
    fn refill(&mut self, ctx: &DispatchContext<'_>) -> Refill {
        let _ = ctx;
        Refill::one()
    }
}

/// Advances `cycle` over the ring of workers to the first live one and
/// returns it, leaving `cycle` just past the returned slot — PyTorch's
/// `_worker_queue_idx_cycle` restricted to live workers.
fn next_live(cycle: &mut usize, dead: &[bool]) -> usize {
    let n = dead.len();
    debug_assert!(dead.iter().any(|&d| !d), "placement needs a live worker");
    let mut w = *cycle % n;
    while dead[w] {
        w = (w + 1) % n;
    }
    *cycle = (w + 1) % n;
    w
}

/// PyTorch's strict round-robin cycle over live workers.
struct RoundRobin {
    cycle: usize,
}

impl SchedulingPolicy for RoundRobin {
    fn kind(&self) -> SchedulingPolicyKind {
        SchedulingPolicyKind::RoundRobin
    }

    fn place(&mut self, _batch: &BatchRef<'_>, ctx: &DispatchContext<'_>) -> Placement {
        Placement::plain(next_live(&mut self.cycle, ctx.dead))
    }
}

/// Load-aware stealing around the round-robin cycle.
///
/// Index-queue depth alone is a poor load signal here: the protocol
/// refills only after the main process consumed a batch, by which time
/// every worker has long since drained its queue — the depths tie at
/// zero and say nothing about the worker still grinding a slow sample.
/// So the policy keeps its own inventory of batches it placed that have
/// not come back, and treats `queued + still-processing` as the load.
struct WorkStealing {
    cycle: usize,
    /// Batches placed on each worker that have not yet returned.
    outstanding: Vec<usize>,
}

impl WorkStealing {
    /// Queued index batches plus dispatched-but-unreturned ones — the
    /// work the worker must finish before a fresh batch would start.
    fn load(&self, w: usize, ctx: &DispatchContext<'_>) -> usize {
        // `outstanding` already counts queued batches, so take the max
        // rather than the sum in case the engine's queue view is ahead.
        self.outstanding[w].max(ctx.queue_depths[w])
    }
}

impl SchedulingPolicy for WorkStealing {
    fn kind(&self) -> SchedulingPolicyKind {
        SchedulingPolicyKind::WorkStealing
    }

    fn place(&mut self, _batch: &BatchRef<'_>, ctx: &DispatchContext<'_>) -> Placement {
        let rr = next_live(&mut self.cycle, ctx.dead);
        // The least-loaded live worker, lowest id on ties. The dispatcher
        // fails the job with AllWorkersDied before ever placing a batch
        // with no live worker, so the filter cannot come up empty.
        #[allow(clippy::expect_used)]
        let best = (0..ctx.dead.len())
            .filter(|&w| !ctx.dead[w])
            .min_by_key(|&w| self.load(w, ctx))
            .expect("placement needs a live worker");
        let placement = if best != rr && self.load(best, ctx) < self.load(rr, ctx) {
            Placement {
                worker: best,
                stolen_from: Some(rr),
                lane: None,
            }
        } else {
            Placement::plain(rr)
        };
        self.outstanding[placement.worker] += 1;
        placement
    }

    fn on_batch_returned(&mut self, worker: usize, _indices: &[u64], _fetch_ns: u64) {
        self.outstanding[worker] = self.outstanding[worker].saturating_sub(1);
    }

    fn on_worker_died(&mut self, worker: usize) {
        // Its orphans are re-placed through `place`, which re-counts them
        // on whichever survivor receives them.
        self.outstanding[worker] = 0;
    }
}

/// How much costlier than the running mean a batch's estimate must be to
/// count as slow.
const SLOW_THRESHOLD: f64 = 1.5;

/// EWMA smoothing weight for newly observed per-sample costs.
const EWMA_ALPHA: f64 = 0.3;

/// MinatoLoader-style fast/slow segregation driven by an online
/// per-sample cost model.
struct SlowLane {
    workers: usize,
    /// Workers `workers - slow_workers ..` form the slow lane; zero when
    /// there is only one worker (no segregation possible).
    slow_workers: usize,
    fast_cycle: usize,
    slow_cycle: usize,
    /// Learned per-sample fetch cost in ns (EWMA over observations).
    ewma: HashMap<u64, f64>,
    /// Running mean of observed per-sample costs.
    mean_ns: f64,
    observed: u64,
    /// Running mean of dataset cost hints, for the pre-observation prior.
    hint_mean: f64,
    hints_seen: u64,
}

impl SlowLane {
    fn new(workers: usize) -> SlowLane {
        // A quarter of the pool (at least one worker) serves the slow
        // lane, as long as that leaves the fast lane at least one worker.
        let slow_workers = if workers >= 2 { workers.div_ceil(4) } else { 0 };
        SlowLane {
            workers,
            slow_workers,
            fast_cycle: 0,
            slow_cycle: 0,
            ewma: HashMap::new(),
            mean_ns: 0.0,
            observed: 0,
            hint_mean: 0.0,
            hints_seen: 0,
        }
    }

    /// Classifies the batch: `Slow` when its estimated per-sample cost is
    /// an outlier against the running mean. Learned observations win;
    /// dataset hints serve as the prior before any index was observed.
    fn classify(&mut self, batch: &BatchRef<'_>) -> Lane {
        let known: Vec<f64> = batch
            .indices
            .iter()
            .filter_map(|i| self.ewma.get(i).copied())
            .collect();
        if !known.is_empty() && self.mean_ns > 0.0 {
            let est = known.iter().sum::<f64>() / known.len() as f64;
            return if est > SLOW_THRESHOLD * self.mean_ns {
                Lane::Slow
            } else {
                Lane::Fast
            };
        }
        if let Some(hint) = batch.hint {
            let lane = if self.hints_seen > 0 && hint > SLOW_THRESHOLD * self.hint_mean {
                Lane::Slow
            } else {
                Lane::Fast
            };
            self.hints_seen += 1;
            self.hint_mean += (hint - self.hint_mean) / self.hints_seen as f64;
            return lane;
        }
        Lane::Fast
    }

    fn lane_of(&self, worker: usize) -> Lane {
        if worker >= self.workers - self.slow_workers {
            Lane::Slow
        } else {
            Lane::Fast
        }
    }
}

impl SchedulingPolicy for SlowLane {
    fn kind(&self) -> SchedulingPolicyKind {
        SchedulingPolicyKind::SlowLane
    }

    fn place(&mut self, batch: &BatchRef<'_>, ctx: &DispatchContext<'_>) -> Placement {
        if self.slow_workers == 0 {
            return Placement::plain(next_live(&mut self.fast_cycle, ctx.dead));
        }
        let lane = self.classify(batch);
        // Rotate within the lane's live workers; fall back to any live
        // worker when the whole lane is dead.
        let lane_live = (0..self.workers).any(|w| !ctx.dead[w] && self.lane_of(w) == lane);
        let worker = if lane_live {
            let fast_count = self.workers - self.slow_workers;
            let cycle = match lane {
                Lane::Fast => &mut self.fast_cycle,
                Lane::Slow => &mut self.slow_cycle,
            };
            let in_lane = |w: usize| (w >= fast_count) == (lane == Lane::Slow);
            let mut w = next_live(cycle, ctx.dead);
            while !in_lane(w) {
                w = next_live(cycle, ctx.dead);
            }
            w
        } else {
            next_live(&mut self.fast_cycle, ctx.dead)
        };
        Placement {
            worker,
            stolen_from: None,
            lane: Some(lane),
        }
    }

    fn on_batch_returned(&mut self, _worker: usize, indices: &[u64], fetch_ns: u64) {
        if indices.is_empty() {
            return;
        }
        let per_sample = fetch_ns as f64 / indices.len() as f64;
        for &i in indices {
            let entry = self.ewma.entry(i).or_insert(per_sample);
            *entry = (1.0 - EWMA_ALPHA) * *entry + EWMA_ALPHA * per_sample;
        }
        self.observed += 1;
        self.mean_ns += (per_sample - self.mean_ns) / self.observed as f64;
    }
}

/// Round-robin placement with an online prefetch window.
struct AdaptivePrefetch {
    cycle: usize,
    /// Current per-worker prefetch target in `[1, prefetch_factor]`.
    target: usize,
}

impl SchedulingPolicy for AdaptivePrefetch {
    fn kind(&self) -> SchedulingPolicyKind {
        SchedulingPolicyKind::AdaptivePrefetch
    }

    fn place(&mut self, _batch: &BatchRef<'_>, ctx: &DispatchContext<'_>) -> Placement {
        Placement::plain(next_live(&mut self.cycle, ctx.dead))
    }

    fn refill(&mut self, ctx: &DispatchContext<'_>) -> Refill {
        // Preprocessed batches piling up unconsumed mean the producers
        // are ahead: shrink the window to cut queue memory. An empty
        // data queue at refill time means the consumer just waited: grow
        // back toward the configured factor.
        let old = self.target;
        if ctx.data_queue_depth >= 2 {
            self.target = self.target.saturating_sub(1).max(1);
        } else if ctx.data_queue_depth == 0 {
            self.target = (self.target + 1).min(ctx.prefetch_factor);
        }
        let desired = self.target * ctx.live().max(1);
        // Catch up (or drain down) by at most one extra batch per return,
        // and never let the pipeline run completely dry.
        let mut count = desired.saturating_sub(ctx.in_flight).min(2);
        if ctx.in_flight == 0 {
            count = count.max(1);
        }
        Refill {
            count,
            resized_to: (self.target != old).then_some(self.target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        depths: &'a [usize],
        dead: &'a [bool],
        in_flight: usize,
        data_queue_depth: usize,
    ) -> DispatchContext<'a> {
        DispatchContext {
            queue_depths: depths,
            dead,
            in_flight,
            data_queue_depth,
            prefetch_factor: 2,
            redispatch: false,
        }
    }

    fn batch(id: u64, indices: &[u64]) -> BatchRef<'_> {
        BatchRef {
            id,
            indices,
            hint: None,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in SchedulingPolicyKind::ALL {
            assert_eq!(SchedulingPolicyKind::parse(kind.as_str()), Ok(kind));
        }
        assert!(SchedulingPolicyKind::parse("fifo").is_err());
        assert_eq!(
            SchedulingPolicyKind::default(),
            SchedulingPolicyKind::RoundRobin
        );
    }

    #[test]
    fn round_robin_rotates_over_live_workers_only() {
        let mut p = SchedulingPolicyKind::RoundRobin.build(3, 2);
        let depths = [0, 0, 0];
        let alive = [false, false, false].map(|_| false);
        let order: Vec<usize> = (0..6)
            .map(|i| p.place(&batch(i, &[i]), &ctx(&depths, &alive, 0, 0)).worker)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // Worker 1 dies: the rotation continues over the survivors with
        // no phase drift.
        let dead = [false, true, false];
        let order: Vec<usize> = (6..12)
            .map(|i| p.place(&batch(i, &[i]), &ctx(&depths, &dead, 0, 0)).worker)
            .collect();
        assert_eq!(order, vec![0, 2, 0, 2, 0, 2]);
    }

    #[test]
    fn work_stealing_targets_the_shallowest_queue() {
        let mut p = SchedulingPolicyKind::WorkStealing.build(3, 2);
        let dead = [false, false, false];
        // Round-robin target 0 is backed up; worker 2 is empty.
        let placement = p.place(&batch(0, &[0]), &ctx(&[3, 2, 0], &dead, 0, 0));
        assert_eq!(placement.worker, 2);
        assert_eq!(placement.stolen_from, Some(0));
        // Balanced queues: no steal, plain round-robin (cycle advanced
        // past 0, so the target is worker 1).
        let placement = p.place(&batch(1, &[1]), &ctx(&[1, 1, 1], &dead, 0, 0));
        assert_eq!(placement.worker, 1);
        assert_eq!(placement.stolen_from, None);
    }

    #[test]
    fn work_stealing_tracks_outstanding_batches_not_just_queue_depth() {
        let mut p = SchedulingPolicyKind::WorkStealing.build(3, 2);
        let dead = [false, false, false];
        let depths = [0usize; 3];
        // Initial fill: with no feedback yet the loads tie at every step,
        // so placement is byte-identical to round-robin.
        let order: Vec<usize> = (0..6)
            .map(|i| {
                p.place(&batch(i, &[i]), &ctx(&depths, &dead, i as usize, 0))
                    .worker
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // Workers 1 and 2 returned everything; worker 0 returned one
        // batch and is stuck on its second. Queue depths read zero
        // everywhere — only the outstanding inventory knows worker 0 is
        // still busy.
        for w in [1, 1, 2, 2, 0] {
            p.on_batch_returned(w, &[0], 1_000);
        }
        // The cycle points at the busy worker 0: steal away from it.
        let placement = p.place(&batch(6, &[6]), &ctx(&depths, &dead, 1, 0));
        assert_eq!(placement.worker, 1, "avoid the busy worker");
        assert_eq!(placement.stolen_from, Some(0));
    }

    #[test]
    fn slow_lane_learns_and_segregates() {
        let mut p = SlowLane::new(4);
        assert_eq!(p.slow_workers, 1);
        let dead = [false; 4];
        let depths = [0usize; 4];
        // Teach the model: indices 0..8 cheap, 8..12 expensive.
        for b in 0..2u64 {
            let indices: Vec<u64> = (b * 4..b * 4 + 4).collect();
            p.on_batch_returned(0, &indices, 4_000);
        }
        p.on_batch_returned(1, &[8, 9, 10, 11], 400_000);
        // A batch of known-slow indices goes to the slow lane (worker 3).
        let placement = p.place(&batch(3, &[8, 9]), &ctx(&depths, &dead, 0, 0));
        assert_eq!(placement.lane, Some(Lane::Slow));
        assert_eq!(placement.worker, 3);
        // A batch of known-fast indices stays in the fast lane.
        let placement = p.place(&batch(4, &[0, 1]), &ctx(&depths, &dead, 0, 0));
        assert_eq!(placement.lane, Some(Lane::Fast));
        assert!(placement.worker < 3);
    }

    #[test]
    fn slow_lane_uses_hints_before_observations() {
        let mut p = SlowLane::new(4);
        let dead = [false; 4];
        let depths = [0usize; 4];
        // Establish a hint baseline, then present an outlier.
        for id in 0..4u64 {
            let b = BatchRef {
                id,
                indices: &[id],
                hint: Some(100.0),
            };
            assert_eq!(
                p.place(&b, &ctx(&depths, &dead, 0, 0)).lane,
                Some(Lane::Fast)
            );
        }
        let outlier = BatchRef {
            id: 9,
            indices: &[9],
            hint: Some(10_000.0),
        };
        let placement = p.place(&outlier, &ctx(&depths, &dead, 0, 0));
        assert_eq!(placement.lane, Some(Lane::Slow));
        assert_eq!(placement.worker, 3);
    }

    #[test]
    fn slow_lane_falls_back_when_the_lane_is_dead() {
        let mut p = SlowLane::new(2);
        assert_eq!(p.slow_workers, 1);
        p.on_batch_returned(0, &[0], 1_000);
        p.on_batch_returned(0, &[1], 900_000);
        // The slow lane (worker 1) is dead: the slow batch must still go
        // to a live worker.
        let dead = [false, true];
        let placement = p.place(&batch(2, &[1]), &ctx(&[0, 0], &dead, 0, 0));
        assert_eq!(placement.worker, 0);
    }

    #[test]
    fn single_worker_slow_lane_degenerates_to_round_robin() {
        let mut p = SlowLane::new(1);
        let placement = p.place(&batch(0, &[0]), &ctx(&[0], &[false], 0, 0));
        assert_eq!(placement.worker, 0);
        assert_eq!(placement.lane, None);
    }

    #[test]
    fn adaptive_prefetch_resizes_within_bounds() {
        let mut p = SchedulingPolicyKind::AdaptivePrefetch.build(2, 2);
        // Deep data queue: shrink toward 1 and stop refilling to drain.
        let r = p.refill(&ctx(&[0, 0], &[false, false], 4, 3));
        assert_eq!(r.resized_to, Some(1));
        assert_eq!(r.count, 0);
        // Still deep: the target clamps at 1.
        let r = p.refill(&ctx(&[0, 0], &[false, false], 3, 3));
        assert_eq!(r.resized_to, None);
        // Starving consumer: grow back toward the configured factor.
        let r = p.refill(&ctx(&[0, 0], &[false, false], 1, 0));
        assert_eq!(r.resized_to, Some(2));
        assert!(r.count >= 1);
        // The target never exceeds the configured prefetch factor.
        let r = p.refill(&ctx(&[0, 0], &[false, false], 0, 0));
        assert_eq!(r.resized_to, None);
        assert!(r.count >= 1, "an empty pipeline must always refill");
    }

    #[test]
    fn default_refill_is_the_pytorch_protocol() {
        for kind in [
            SchedulingPolicyKind::RoundRobin,
            SchedulingPolicyKind::WorkStealing,
            SchedulingPolicyKind::SlowLane,
        ] {
            let mut p = kind.build(2, 2);
            assert_eq!(
                p.refill(&ctx(&[0, 0], &[false, false], 3, 1)),
                Refill::one()
            );
        }
    }

    #[test]
    fn every_policy_places_on_live_workers_under_deaths() {
        for kind in SchedulingPolicyKind::ALL {
            let mut p = kind.build(4, 2);
            let dead = [true, false, true, false];
            for id in 0..16u64 {
                let placement = p.place(&batch(id, &[id]), &ctx(&[1, 0, 2, 3], &dead, 2, 1));
                assert!(!dead[placement.worker], "{kind:?} placed on a dead worker");
            }
            p.on_worker_died(0);
            p.on_worker_died(2);
        }
    }
}
