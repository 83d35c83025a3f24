//! Content-addressed on-disk cache for deterministic trial results.
//!
//! Every simulation this workspace runs is a pure function of its
//! configuration, so a measured result can be reused forever — the cache
//! key is a stable hash of everything that feeds the run (workload
//! fingerprint, fault plan, seed, trial knobs) plus a format version
//! that invalidates every entry when the serialized payload shape
//! changes. Entries live under `.lotus-cache/v<N>/<hash>.json` and store
//! the full context/key strings alongside the payload, so a hash
//! collision or a stale file reads back as a miss, never as a wrong
//! result.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{Content, Value};

use crate::tune::{Scorecard, TrialConfig};

/// Version tag of the on-disk payload format. Bump on any change to the
/// serialized shapes; old entries become invisible (they live under a
/// different subdirectory) rather than misparsed.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Conventional cache root directory name, relative to the working
/// directory (`lotus tune` and the bench binaries use this unless told
/// otherwise). The materialized image datasets keep their stored SJPG
/// files under it too, in `sjpg/`.
pub const DEFAULT_CACHE_DIR: &str = ".lotus-cache";

/// 64-bit FNV-1a — a stable, dependency-free content hash. Not
/// cryptographic; collisions are tolerated because [`DiskCache::load`]
/// verifies the stored context/key strings before trusting an entry.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A generic JSON blob store addressed by `(context, key)` content
/// hashes. `context` names the fixed surroundings of a sweep (workload,
/// machine, fault plan, seed); `key` names one point inside it (a trial
/// configuration, a mapping batch size). Writes go through
/// [`write_atomic`], so concurrent producers of the same entry race
/// benignly — both write identical bytes.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the cache rooted at `root`; entries go
    /// in the version-tagged subdirectory `v<CACHE_FORMAT_VERSION>`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DiskCache> {
        let dir = root.as_ref().join(format!("v{CACHE_FORMAT_VERSION}"));
        fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The directory entries are stored in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, context: &str, key: &str) -> PathBuf {
        // \x1f (unit separator) cannot appear in either string's role,
        // so "ab"+"c" and "a"+"bc" hash differently.
        let hash = fnv1a64(format!("{context}\x1f{key}").as_bytes());
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Loads the payload stored for `(context, key)`, or `None` on a
    /// miss, an unreadable file, or a context/key mismatch (collision or
    /// stale entry).
    #[must_use]
    pub fn load(&self, context: &str, key: &str) -> Option<Value> {
        let text = fs::read_to_string(self.path_of(context, key)).ok()?;
        let doc: Value = serde_json::from_str(&text).ok()?;
        if doc["context"] != *context || doc["key"] != *key {
            return None;
        }
        doc.get("payload").cloned()
    }

    /// Stores `payload` for `(context, key)`, atomically replacing any
    /// existing entry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the entry cannot be written.
    pub fn store(&self, context: &str, key: &str, payload: Content) -> io::Result<()> {
        let doc = Value(Content::Map(vec![
            ("context".to_string(), Content::Str(context.to_string())),
            ("key".to_string(), Content::Str(key.to_string())),
            ("payload".to_string(), payload),
        ]));
        let text = serde_json::to_string_pretty(&doc).expect("cache entry serializes");
        write_atomic(&self.path_of(context, key), text.as_bytes())
    }
}

/// Writes `bytes` to `path` atomically: to a temp file next to it, named
/// uniquely per process and call, then renamed over `path`. Readers see
/// the old entry or the new one, never a partial file, and concurrent
/// writers of the same entry race benignly: the last rename wins. A
/// failed write removes its temp file. Nothing is synced, so a crash can
/// leave an entry missing or torn; both callers, [`DiskCache`] and the
/// image datasets' SJPG store, read such an entry as a miss.
///
/// # Errors
///
/// Returns the I/O error if the temp file cannot be written or renamed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{n}", std::process::id()));
    fs::write(&tmp, bytes)
        .and_then(|()| fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
}

/// The tuner's trial cache: [`DiskCache`] specialized to
/// `TrialConfig → Scorecard` under one fixed sweep context. Because the
/// [`Scorecard`] JSON round trip is lossless, a cache-warm sweep
/// reproduces byte-identical [`crate::tune::TuneReport`] output while
/// executing zero live simulations.
#[derive(Debug, Clone)]
pub struct TrialCache {
    disk: DiskCache,
    context: String,
}

impl TrialCache {
    /// Opens the trial cache rooted at `root` for the sweep described by
    /// `context` (workload fingerprint + machine + fault plan + seed —
    /// everything a trial's outcome depends on besides its own knobs).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be created.
    pub fn open(root: impl AsRef<Path>, context: impl Into<String>) -> io::Result<TrialCache> {
        Ok(TrialCache {
            disk: DiskCache::open(root)?,
            context: context.into(),
        })
    }

    /// The sweep context this cache is scoped to.
    #[must_use]
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The cached scorecard for `trial`, if one exists and parses
    /// cleanly. Any corruption degrades to a miss (the trial reruns
    /// live), never to a wrong card.
    #[must_use]
    pub fn lookup(&self, trial: &TrialConfig) -> Option<Scorecard> {
        let payload = self.disk.load(&self.context, &trial.label())?;
        Scorecard::from_json_value(&payload)
            .ok()
            .filter(|card| card.config == *trial)
    }

    /// Stores `card` as the measured result for `trial`. Best-effort: an
    /// unwritable cache directory silently degrades to live execution on
    /// the next sweep rather than failing the current one.
    pub fn store(&self, trial: &TrialConfig, card: &Scorecard) {
        let _ = self
            .disk
            .store(&self.context, &trial.label(), card.to_json_content());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lotus-cache-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn trial(workers: usize) -> TrialConfig {
        TrialConfig {
            num_workers: workers,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
        }
    }

    fn card(workers: usize) -> Scorecard {
        Scorecard {
            config: trial(workers),
            throughput: 123.456,
            elapsed: lotus_sim::Span::from_millis(250),
            samples: 64,
            batches: 8,
            wait_fraction: 0.25,
            mean_wait_ms: 1.5,
            mean_queue_delay_ms: 0.75,
            footprint_batches: 5.0,
            verdict: Some(crate::trace::insights::Verdict::PreprocessingBound),
            faults_injected: 0,
            worker_deaths: 0,
            failed: None,
        }
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"w1 pf2"), fnv1a64(b"w2 pf1"));
    }

    #[test]
    fn disk_cache_round_trips_and_verifies_keys() {
        let root = scratch_dir("disk");
        let cache = DiskCache::open(&root).unwrap();
        assert!(cache.load("ctx", "key").is_none(), "cold cache misses");
        cache
            .store("ctx", "key", Content::Str("hello".into()))
            .unwrap();
        assert_eq!(cache.load("ctx", "key").unwrap().as_str(), Some("hello"));
        // A different context or key misses even though the file layout
        // is content-addressed.
        assert!(cache.load("other-ctx", "key").is_none());
        assert!(cache.load("ctx", "other-key").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn trial_cache_round_trips_scorecards() {
        let root = scratch_dir("trial");
        let cache = TrialCache::open(&root, "workload=IC seed=7").unwrap();
        assert!(cache.lookup(&trial(4)).is_none());
        cache.store(&trial(4), &card(4));
        assert_eq!(cache.lookup(&trial(4)), Some(card(4)));
        assert!(cache.lookup(&trial(2)).is_none(), "other trials miss");
        // A different sweep context sees nothing.
        let other = TrialCache::open(&root, "workload=IC seed=8").unwrap();
        assert!(other.lookup(&trial(4)).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let root = scratch_dir("corrupt");
        let cache = TrialCache::open(&root, "ctx").unwrap();
        cache.store(&trial(2), &card(2));
        // Truncate every entry file in place.
        for entry in fs::read_dir(cache.disk.dir()).unwrap() {
            fs::write(entry.unwrap().path(), "{ not json").unwrap();
        }
        assert!(cache.lookup(&trial(2)).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_tag_scopes_the_directory() {
        let root = scratch_dir("version");
        let cache = DiskCache::open(&root).unwrap();
        assert!(cache.dir().ends_with(format!("v{CACHE_FORMAT_VERSION}")));
        let _ = fs::remove_dir_all(&root);
    }
}
