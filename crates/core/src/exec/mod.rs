//! Deterministic parallel execution: a scoped-thread job pool plus a
//! content-addressed on-disk result cache.
//!
//! Every simulation in this workspace is a pure function of its
//! configuration and seed, which buys two things at once:
//!
//! * **Parallelism without divergence** — independent runs can fan out
//!   across OS threads ([`run_jobs`]) as long as results are joined by
//!   submission index, never completion order. `--jobs 4` output is
//!   byte-identical to `--jobs 1`.
//! * **Caching without staleness** — a measured result keyed by the full
//!   configuration fingerprint ([`TrialCache`]) is valid forever; a
//!   cache-warm sweep replays to byte-identical reports with zero live
//!   simulations.

mod cache;
mod pool;

pub use cache::{
    fnv1a64, write_atomic, DiskCache, TrialCache, CACHE_FORMAT_VERSION, DEFAULT_CACHE_DIR,
};
pub use pool::{default_jobs, run_jobs};
