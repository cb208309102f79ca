//! Content-hashed evaluation cache.
//!
//! Sweep grids behind different figures overlap heavily (Fig. 6's generic
//! points reappear inside Fig. 7, warm re-runs repeat everything), so the
//! engine memoizes finished [`Evaluation`]s keyed by the *content* of the
//! design point: FNV-1a hashes of the serialized architecture and model
//! plus the strategy name. A repeated point is a map lookup instead of a
//! full compile → simulate run, and any change to the architecture or the
//! model changes its hash and therefore invalidates the entry.
//!
//! The cache is thread-safe (shared by all service workers) and can be
//! persisted to JSON so separate processes — e.g. the `fig6` and `fig7`
//! bench targets — share warm state.
//!
//! **Staleness:** the key captures the *inputs* of an evaluation, not the
//! simulator/compiler code that produced it. Persisted files therefore
//! carry the engine crate version (plus a format version), and
//! [`EvalCache::load`] starts cold when either differs. Within one
//! version, editing the cost/timing/energy models does **not** invalidate
//! an existing cache file — delete it (or point `CIMFLOW_DSE_CACHE`
//! elsewhere) after such changes, or bump [`CACHE_FORMAT_VERSION`].

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{SearchMode, Strategy};
use cimflow_nn::Model;
use serde::{Deserialize, Serialize};

use crate::{DseError, Evaluation};

/// On-disk cache format version; bump on any change to the evaluation
/// semantics (simulator timing, energy model, compiler cost model) or
/// the persisted schema that should invalidate previously persisted
/// results. Version 2: the system level (multi-chip) — `SimReport` and
/// `EnergyBreakdown` gained inter-chip fields. Version 3: the joint
/// partition search — `CacheKey`/`Evaluation` gained the search mode,
/// `SimReport` grew overlap/stall metrics, and the simulator's
/// inter-chip hand-off became tile-streaming. Version 4: the trace-replay
/// engine — `Evaluation` gained the `eval_path` provenance field and
/// sweep points gained the timing-only frequency/memory-port axes.
/// Version 5: serving mode — `CacheKey` gained the `traffic` workload
/// fingerprint and `Evaluation` the optional `serving` SLO summary.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// Engine identity stamped into persisted cache files (the `cimflow-dse`
/// crate version); a mismatch makes [`EvalCache::load`] start cold.
pub const CACHE_ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// 64-bit FNV-1a: deterministic across runs, platforms and compiler
/// versions (unlike `DefaultHasher`, which documents no such stability).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content hash of an architecture configuration.
pub fn arch_content_hash(arch: &ArchConfig) -> u64 {
    fnv1a(arch.to_json().as_bytes())
}

/// Content hash of a model (graph structure + name).
pub fn model_content_hash(model: &Model) -> u64 {
    let mut text = model.name.clone();
    text.push('\0');
    text.push_str(&model.graph.to_json());
    fnv1a(text.as_bytes())
}

/// Cache key identifying one (architecture, model, strategy, search
/// mode, serving workload) point by content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CacheKey {
    /// FNV-1a hash of the serialized architecture.
    pub arch: u64,
    /// FNV-1a hash of the serialized model.
    pub model: u64,
    /// The compilation strategy.
    pub strategy: Strategy,
    /// The system-level search mode (joint and sequential compilations
    /// of one point are distinct results).
    pub search: SearchMode,
    /// Fingerprint of the serving workload (offered rate + preset +
    /// co-located models); `0` when the point runs no serving workload.
    pub traffic: u64,
}

impl CacheKey {
    /// Computes the key of a design point without a serving workload.
    pub fn of(arch: &ArchConfig, model: &Model, strategy: Strategy, search: SearchMode) -> Self {
        CacheKey {
            arch: arch_content_hash(arch),
            model: model_content_hash(model),
            strategy,
            search,
            traffic: 0,
        }
    }

    /// The same key scoped to a serving workload (see
    /// [`traffic_fingerprint`]); `0` returns the no-serving key.
    #[must_use]
    pub fn with_traffic(mut self, fingerprint: u64) -> Self {
        self.traffic = fingerprint;
        self
    }
}

// Manual Deserialize so journal rows written before serving mode existed
// (no `traffic` key) keep resuming: the missing field reads as 0 = no
// serving workload, which is exactly what those rows evaluated.
impl Deserialize for CacheKey {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| serde::Error::new("expected map for CacheKey"))?;
        fn field<T: Deserialize>(
            map: &[(String, serde::Content)],
            name: &str,
        ) -> Result<T, serde::Error> {
            let v = map
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::new(format!("CacheKey: missing field {name}")))?;
            T::deserialize(v).map_err(|e| serde::Error::new(format!("CacheKey.{name}: {e}")))
        }
        Ok(CacheKey {
            arch: field(map, "arch")?,
            model: field(map, "model")?,
            strategy: field(map, "strategy")?,
            search: field(map, "search")?,
            traffic: match map.iter().find(|(k, _)| k == "traffic") {
                Some((_, v)) => u64::deserialize(v)
                    .map_err(|e| serde::Error::new(format!("CacheKey.traffic: {e}")))?,
                None => 0,
            },
        })
    }
}

/// Content fingerprint of a serving workload: the offered rate, the
/// serialized [`WorkloadSpec`](cimflow_traffic::WorkloadSpec) preset and
/// every co-located model's content hash (order-sensitive — the mix
/// indexes models by position). Never returns 0, so "no serving" and
/// "some serving" can share the [`CacheKey::traffic`] field.
pub fn traffic_fingerprint(
    offered_qps: u64,
    workload: &cimflow_traffic::WorkloadSpec,
    colocated: &[(String, std::sync::Arc<Model>)],
) -> u64 {
    let mut text = format!(
        "qps={offered_qps}\0{}",
        serde_json::to_string(workload).expect("workload serialization cannot fail")
    );
    for (name, model) in colocated {
        text.push('\0');
        text.push_str(name);
        text.push_str(&format!(":{:016x}", model_content_hash(model)));
    }
    fnv1a(text.as_bytes()).max(1)
}

/// Hit/miss counters of a cache (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Lookups that arrived while the same key was already being
    /// evaluated and waited for that in-flight result instead of
    /// duplicating it (each such lookup also counts as a hit once the
    /// result lands).
    pub coalesced: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 for an unused cache).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

// Manual (de)serialization so the wire format stays compatible in both
// directions: `coalesced` defaults to 0 when absent, letting a new
// client parse a `stats` reply from an old server (the derive would
// reject the missing field).
impl Serialize for CacheStats {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("hits".to_owned(), serde::Content::U64(self.hits)),
            ("misses".to_owned(), serde::Content::U64(self.misses)),
            ("coalesced".to_owned(), serde::Content::U64(self.coalesced)),
        ])
    }
}

impl Deserialize for CacheStats {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| {
            serde::Error::new(format!("CacheStats: expected map, got {}", content.kind_name()))
        })?;
        let field = |name: &str| -> Result<u64, serde::Error> {
            match map.iter().find(|(k, _)| k == name) {
                Some((_, v)) => u64::deserialize(v)
                    .map_err(|e| serde::Error::new(format!("CacheStats.{name}: {e}"))),
                None if name == "coalesced" => Ok(0),
                None => Err(serde::Error::new(format!("missing field `{name}` in CacheStats"))),
            }
        };
        Ok(CacheStats {
            hits: field("hits")?,
            misses: field("misses")?,
            coalesced: field("coalesced")?,
        })
    }
}

/// A thread-safe, content-addressed store of finished evaluations.
///
/// The store lives behind an [`Arc`](std::sync::Arc), so `Clone` is
/// shallow: every clone shares the same entries and counters. That is
/// what lets the [`EvalService`](crate::EvalService) worker threads, the
/// caller that handed the cache to the service, and later services over
/// the same cache operate on one store.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    inner: std::sync::Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Mutex<HashMap<CacheKey, Evaluation>>,
    /// Keys currently being evaluated by some worker; concurrent lookups
    /// of the same key wait on [`Self::in_flight_done`] instead of
    /// duplicating the compile → simulate pipeline.
    in_flight: Mutex<std::collections::HashSet<CacheKey>>,
    in_flight_done: std::sync::Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored evaluations.
    pub fn len(&self) -> usize {
        self.inner.entries.lock().expect("cache poisoned").len()
    }

    /// Whether the cache holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Looks an evaluation up, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Evaluation> {
        let found = self.lookup(key);
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Uncounted lookup.
    fn lookup(&self, key: &CacheKey) -> Option<Evaluation> {
        self.inner.entries.lock().expect("cache poisoned").get(key).cloned()
    }

    /// Stores an evaluation.
    pub fn insert(&self, key: CacheKey, evaluation: Evaluation) {
        self.inner.entries.lock().expect("cache poisoned").insert(key, evaluation);
    }

    /// Stores an evaluation computed after a counted miss, without
    /// counting another lookup. The first writer wins: returns the stored
    /// evaluation and whether another writer had published it first.
    pub(crate) fn publish(&self, key: CacheKey, evaluation: Evaluation) -> (Evaluation, bool) {
        let mut entries = self.inner.entries.lock().expect("cache poisoned");
        match entries.entry(key) {
            Entry::Occupied(slot) => (slot.get().clone(), true),
            Entry::Vacant(slot) => (slot.insert(evaluation).clone(), false),
        }
    }

    /// Looks up, or evaluates-and-stores on a miss.
    ///
    /// Concurrent callers with the same key are deduplicated: the first
    /// one evaluates while the others block until the result lands and
    /// then take it as a hit, so an expensive point is never compiled
    /// twice in parallel. (If the owning evaluation fails, one waiter
    /// takes over — errors are not cached.)
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's error (errors are not cached: a point
    /// that failed because of a transient condition may be retried).
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        evaluate: impl FnOnce() -> Result<Evaluation, DseError>,
    ) -> Result<(Evaluation, bool), DseError> {
        let mut waited = false;
        loop {
            if let Some(hit) = self.lookup(&key) {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok((hit, true));
            }
            let mut in_flight = self.inner.in_flight.lock().expect("cache poisoned");
            if in_flight.insert(key) {
                break; // this caller owns the evaluation
            }
            // Another worker is evaluating this key: wait for it to
            // finish (or fail), then re-check the entries. Counted as a
            // coalesced lookup (once, however many wakeups it takes) if
            // the in-flight result ends up serving it.
            waited = true;
            let guard = self.inner.in_flight_done.wait(in_flight).expect("cache poisoned");
            drop(guard);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        // Release the marker even if `evaluate` panics, so waiters are
        // woken instead of deadlocking (one of them takes over).
        struct InFlightGuard<'a> {
            cache: &'a CacheInner,
            key: CacheKey,
        }
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                let mut in_flight =
                    self.cache.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                in_flight.remove(&self.key);
                self.cache.in_flight_done.notify_all();
            }
        }
        let guard = InFlightGuard { cache: &self.inner, key };
        let result = evaluate();
        if let Ok(evaluation) = &result {
            // Publish before releasing the in-flight marker so waiters
            // always observe the entry when they wake.
            self.insert(key, evaluation.clone());
        }
        drop(guard);
        result.map(|evaluation| (evaluation, false))
    }

    /// Serializes all entries to JSON (counters are not persisted).
    pub fn to_json(&self) -> String {
        let entries = self.inner.entries.lock().expect("cache poisoned");
        let mut rows: Vec<(CacheKey, Evaluation)> =
            entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        // Deterministic file contents regardless of hash-map order.
        rows.sort_by_key(|(k, _)| (k.model, k.arch, k.strategy.name(), k.search.name(), k.traffic));
        let rows: Vec<CacheEntry> =
            rows.into_iter().map(|(key, evaluation)| CacheEntry { key, evaluation }).collect();
        serde_json::to_string_pretty(&CacheFile {
            version: CACHE_FORMAT_VERSION,
            engine: CACHE_ENGINE_VERSION.to_owned(),
            entries: rows,
        })
        .expect("cache serialization cannot fail")
    }

    /// Restores a cache from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] for malformed contents or for a file
    /// written by a different engine/format version (stale results must
    /// not be served across engine changes; [`Self::load`] treats that
    /// case as a cold start instead).
    pub fn from_json(text: &str) -> Result<Self, DseError> {
        let file: CacheFile =
            serde_json::from_str(text).map_err(|e| DseError::io(format!("bad cache file: {e}")))?;
        if !file.is_current() {
            return Err(DseError::io(format!(
                "cache written by engine {} format {} (this engine: {} format {})",
                file.engine, file.version, CACHE_ENGINE_VERSION, CACHE_FORMAT_VERSION
            )));
        }
        Ok(Self::from_file(file))
    }

    /// A cache holding the entries of a current-version file.
    fn from_file(file: CacheFile) -> Self {
        let cache = EvalCache::new();
        {
            let mut entries = cache.inner.entries.lock().expect("cache poisoned");
            for entry in file.entries {
                entries.insert(entry.key, entry.evaluation);
            }
        }
        cache
    }

    /// Loads a cache from a JSON file. Returns an empty cache if the file
    /// does not exist **or** was written by a different engine/format
    /// version (an expected lifecycle event — the sweep simply runs
    /// cold and overwrites the file on save).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] for unreadable or malformed files.
    pub fn load(path: &std::path::Path) -> Result<Self, DseError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(DseError::io(format!("cannot read {}: {e}", path.display()))),
        };
        // Anything that is not JSON at all is corruption and surfaces as
        // an error; the text is parsed once, then checked against the
        // schema.
        let value: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| DseError::io(format!("bad cache file {}: {e}", path.display())))?;
        match serde_json::from_value::<CacheFile>(&value) {
            Ok(file) if file.is_current() => Ok(Self::from_file(file)),
            // A different engine/format version, or well-formed JSON of an
            // older/unknown schema, is a stale cache: start cold.
            _ => Ok(Self::new()),
        }
    }

    /// Persists the cache to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> Result<(), DseError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    DseError::io(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))
    }
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    key: CacheKey,
    evaluation: Evaluation,
}

#[derive(Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    /// `cimflow-dse` crate version that wrote the file.
    engine: String,
    entries: Vec<CacheEntry>,
}

impl CacheFile {
    /// Whether this engine and format version wrote the file.
    fn is_current(&self) -> bool {
        self.version == CACHE_FORMAT_VERSION && self.engine == CACHE_ENGINE_VERSION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_with_search;
    use cimflow_nn::models;

    #[test]
    fn hit_miss_accounting_and_reuse() {
        let cache = EvalCache::new();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);

        let mut evaluations = 0u32;
        let mut run = || {
            cache.get_or_insert_with(key, || {
                evaluations += 1;
                evaluate_with_search(
                    &arch,
                    &model,
                    Strategy::GenericMapping,
                    SearchMode::Sequential,
                )
            })
        };
        let (first, was_hit) = run().unwrap();
        assert!(!was_hit);
        let (second, was_hit) = run().unwrap();
        assert!(was_hit, "second lookup must be served from the cache");
        assert_eq!(evaluations, 1, "warm lookup must not recompile");
        assert_eq!(first.simulation.total_cycles, second.simulation.total_cycles);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, coalesced: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clones_share_one_store() {
        let cache = EvalCache::new();
        let clone = cache.clone();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        clone.insert(
            key,
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap(),
        );
        assert_eq!(cache.len(), 1, "a clone writes into the same store");
        assert!(cache.get(&key).is_some());
        assert_eq!(clone.stats(), cache.stats(), "counters are shared too");
    }

    #[test]
    fn any_arch_change_invalidates_the_key() {
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&base, &model, Strategy::GenericMapping, SearchMode::Sequential);
        for changed in [
            base.with_macros_per_group(4),
            base.with_flit_bytes(16),
            base.with_core_count(16),
            base.with_local_memory_kib(256),
            base.with_frequency_mhz(500),
        ] {
            assert_ne!(
                CacheKey::of(&changed, &model, Strategy::GenericMapping, SearchMode::Sequential),
                key
            );
        }
        // Same content, separately constructed value → same key.
        assert_eq!(
            CacheKey::of(
                &ArchConfig::paper_default(),
                &model,
                Strategy::GenericMapping,
                SearchMode::Sequential
            ),
            key
        );
        // Strategy and model are part of the key too.
        assert_ne!(CacheKey::of(&base, &model, Strategy::DpOptimized, SearchMode::Sequential), key);
        assert_ne!(
            CacheKey::of(
                &base,
                &models::mobilenet_v2(64),
                Strategy::GenericMapping,
                SearchMode::Sequential
            ),
            key
        );
    }

    #[test]
    fn every_chip_count_gets_its_own_cache_key() {
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let mut keys: Vec<_> = [1u32, 2, 4, 8]
            .iter()
            .map(|chips| {
                CacheKey::of(
                    &base.with_chip_count(*chips),
                    &model,
                    Strategy::DpOptimized,
                    SearchMode::Sequential,
                )
            })
            .collect();
        // chip_count = 1 must key identically to the historical
        // single-chip serialization (warm caches stay warm) …
        assert_eq!(
            keys[0],
            CacheKey::of(&base, &model, Strategy::DpOptimized, SearchMode::Sequential)
        );
        // … while every scale-out point is distinct.
        keys.sort_by_key(|k| k.arch);
        keys.dedup_by_key(|k| k.arch);
        assert_eq!(keys.len(), 4);
        // The interconnect is part of the key as well.
        assert_ne!(
            CacheKey::of(
                &base.with_chip_count(2),
                &model,
                Strategy::DpOptimized,
                SearchMode::Sequential
            ),
            CacheKey::of(
                &base.with_chip_count(2).with_interchip_link_bytes(64),
                &model,
                Strategy::DpOptimized,
                SearchMode::Sequential
            )
        );
    }

    #[test]
    fn search_modes_key_distinct_cache_slots() {
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let model = models::mobilenet_v2(32);
        let sequential = CacheKey::of(&arch, &model, Strategy::DpOptimized, SearchMode::Sequential);
        let joint = CacheKey::of(&arch, &model, Strategy::DpOptimized, SearchMode::Joint);
        assert_ne!(sequential, joint, "joint results must never serve sequential lookups");
        assert_eq!(sequential.arch, joint.arch, "only the mode differs");
    }

    #[test]
    fn concurrent_lookups_of_one_key_evaluate_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Barrier;

        let cache = EvalCache::new();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let evaluations = AtomicU32::new(0);
        // All four threads line up at the call site, and the winning
        // evaluation holds long enough for the losers to reach the
        // in-flight marker — otherwise (notably on a single-CPU box) a
        // fast winner can finish before the others are scheduled at all,
        // turning the waiters into plain warm hits.
        let arrive = Barrier::new(4);

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    arrive.wait();
                    let (_, _) = cache
                        .get_or_insert_with(key, || {
                            evaluations.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(200));
                            evaluate_with_search(
                                &arch,
                                &model,
                                Strategy::GenericMapping,
                                SearchMode::Sequential,
                            )
                        })
                        .unwrap();
                });
            }
        });

        assert_eq!(evaluations.load(Ordering::Relaxed), 1, "in-flight dedup must hold");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.coalesced, 3, "every waiter is a coalesced lookup");
    }

    #[test]
    fn cache_stats_wire_format_tolerates_old_servers() {
        use serde::{Deserialize as _, Serialize as _};

        let stats = CacheStats { hits: 7, misses: 2, coalesced: 3 };
        let round = CacheStats::deserialize(&stats.serialize()).unwrap();
        assert_eq!(round, stats);

        // A reply from a server predating the `coalesced` field still
        // parses, defaulting the counter to 0.
        let old = serde::Content::Map(vec![
            ("hits".to_owned(), serde::Content::U64(7)),
            ("misses".to_owned(), serde::Content::U64(2)),
        ]);
        assert_eq!(
            CacheStats::deserialize(&old).unwrap(),
            CacheStats { hits: 7, misses: 2, coalesced: 0 }
        );
        // Genuinely required fields still error when absent.
        let broken = serde::Content::Map(vec![("hits".to_owned(), serde::Content::U64(7))]);
        assert!(CacheStats::deserialize(&broken).is_err());
    }

    #[test]
    fn cache_round_trips_through_json() {
        let cache = EvalCache::new();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap();
        cache.insert(key, evaluation.clone());

        let restored = EvalCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(restored.len(), 1);
        let (back, was_hit) =
            restored.get_or_insert_with(key, || panic!("restored cache must hit")).unwrap();
        assert!(was_hit);
        assert_eq!(back.simulation.total_cycles, evaluation.simulation.total_cycles);
        assert_eq!(back.compilation, evaluation.compilation);

        assert!(EvalCache::from_json("{\"version\": 99, \"engine\": \"9.9.9\", \"entries\": []}")
            .is_err());
        assert!(EvalCache::from_json("not json").is_err());
    }

    #[test]
    fn stale_engine_version_starts_cold_on_load() {
        let dir = std::env::temp_dir().join("cimflow-dse-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.json");

        // A file written by a different engine version must not serve
        // results (simulator semantics may have changed); load() treats
        // it as a cold start rather than an error.
        std::fs::write(&path, "{\"version\": 1, \"engine\": \"0.0.0-other\", \"entries\": []}")
            .unwrap();
        let cache = EvalCache::load(&path).unwrap();
        assert!(cache.is_empty());

        // A current-version file round-trips through load/save.
        let cache = EvalCache::new();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        cache.insert(
            key,
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap(),
        );
        cache.save(&path).unwrap();
        assert_eq!(EvalCache::load(&path).unwrap().len(), 1);

        // A well-formed file of an older schema (no `engine` field) is
        // stale, not corrupt: cold start.
        std::fs::write(&path, "{\"version\": 1, \"entries\": []}").unwrap();
        assert!(EvalCache::load(&path).unwrap().is_empty());

        // Malformed files still surface as errors.
        std::fs::write(&path, "{broken").unwrap();
        assert!(EvalCache::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
