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
//! The cache is thread-safe (shared by all service workers). A cache
//! opened with [`EvalCache::load`] is backed by an append-only log, the
//! format sweep journals use too: each entry it newly stores is appended
//! as it lands, so a killed process keeps every answered point, and
//! separate processes (e.g. the `fig6` and `fig7` bench targets) share
//! warm state.
//!
//! **Staleness:** the key captures the *inputs* of an evaluation, not the
//! simulator/compiler code that produced it. Every log the engine
//! persists, a cache file or a [`SweepJournal`](crate::SweepJournal),
//! therefore starts with one stamp, [`CACHE_FORMAT_VERSION`] plus the
//! engine crate version, and a log of another stamp starts cold. Within
//! one version, editing the cost/timing/energy models does **not**
//! invalidate an existing file — delete it (or point `CIMFLOW_DSE_CACHE`
//! elsewhere) after such changes, or bump [`CACHE_FORMAT_VERSION`].

use std::sync::atomic::{AtomicU64, Ordering};

use cimflow_arch::{ArchConfig, Fnv1a};
use cimflow_compiler::{SearchMode, Strategy};
use cimflow_nn::Model;
use serde::{Deserialize, Serialize};

use crate::log::{Log, Record};
use crate::memo::{Memo, Source};
use crate::{DseError, Evaluation};

/// On-disk format version of cache files and sweep journals (both are
/// logs of the same [`Evaluation`] records, so one number versions both);
/// bump on any change to the evaluation semantics (simulator
/// timing, energy model, compiler cost model) or the persisted schema
/// that should invalidate previously persisted results. Version 2: the
/// system level (multi-chip) — `SimReport` and `EnergyBreakdown` gained
/// inter-chip fields. Version 3: the joint partition search —
/// `CacheKey`/`Evaluation` gained the search mode, `SimReport` grew
/// overlap/stall metrics, and the simulator's inter-chip hand-off became
/// tile-streaming. Version 4: the trace-replay engine — `Evaluation`
/// gained the `eval_path` provenance field and sweep points gained the
/// timing-only frequency/memory-port axes. Version 5: serving mode —
/// `CacheKey` gained the `traffic` workload fingerprint and `Evaluation`
/// the optional `serving` SLO summary.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// Engine identity stamped into persisted cache files and journals (the
/// `cimflow-dse` crate version); a mismatch makes [`EvalCache::load`]
/// start cold.
pub const CACHE_ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Content hash of an architecture configuration: [`Fnv1a`] over its
/// pretty-printed JSON, the text of [`ArchConfig::to_json`].
pub fn arch_content_hash(arch: &ArchConfig) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_json(arch);
    hash.finish()
}

/// Content hash of a model: [`Fnv1a`] over its name, a NUL byte and the
/// pretty-printed JSON of its graph (the text of `Graph::to_json`).
pub fn model_content_hash(model: &Model) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(model.name.as_bytes());
    hash.update(b"\0");
    hash.write_json(&model.graph);
    hash.finish()
}

/// Cache key identifying one (architecture, model, strategy, search
/// mode, serving workload) point by content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    rate_fingerprint(offered_qps, &pool_text(workload, colocated))
}

/// The rate-free part of a [`traffic_fingerprint`]'s hashed text: the
/// preset, then each co-located model's name and content hash. A
/// [`TrafficJob`](crate::TrafficJob) builds it once for every point it
/// serves.
pub(crate) fn pool_text(
    workload: &cimflow_traffic::WorkloadSpec,
    colocated: &[(String, std::sync::Arc<Model>)],
) -> String {
    let mut text = serde_json::to_string(workload).expect("workload serialization cannot fail");
    for (name, model) in colocated {
        text.push('\0');
        text.push_str(name);
        text.push_str(&format!(":{:016x}", model_content_hash(model)));
    }
    text
}

/// The [`traffic_fingerprint`] of `pool` (a [`pool_text`]) at
/// `offered_qps`.
pub(crate) fn rate_fingerprint(offered_qps: u64, pool: &str) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(format!("qps={offered_qps}\0").as_bytes());
    hash.update(pool.as_bytes());
    hash.finish().max(1)
}

/// Hit/miss counters of a cache (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// A thread-safe, content-addressed store of finished evaluations: an
/// unbounded single-flight memo plus hit/miss/coalesced counters, and the
/// log [`Self::load`] opened, if any.
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
    memo: Memo<CacheKey, Evaluation>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Every entry the cache newly stores is appended here.
    log: Option<Log>,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored evaluations.
    pub fn len(&self) -> usize {
        self.inner.memo.len()
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
        let found = self.inner.memo.get(key);
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Looks an evaluation up without counting the lookup, and without
    /// waiting for a key in flight. The service's admission lookup uses
    /// it: it counts its hits with [`Self::count_hits`] once the
    /// submission is admitted, and leaves each miss to the worker that
    /// evaluates the point, so a point still counts one lookup.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<Evaluation> {
        self.inner.memo.get(key)
    }

    /// Counts `hits` lookups answered from the cache.
    pub(crate) fn count_hits(&self, hits: u64) {
        self.inner.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Stores an evaluation, unless the key already holds one (the
    /// evaluations of one key are interchangeable).
    pub fn insert(&self, key: CacheKey, evaluation: Evaluation) {
        self.publish(key, evaluation);
    }

    /// Stores an evaluation computed after a counted miss, without
    /// counting another lookup. The first writer wins: returns the stored
    /// evaluation and whether another writer had published it first.
    pub(crate) fn publish(&self, key: CacheKey, evaluation: Evaluation) -> (Evaluation, bool) {
        let (evaluation, stored) = self.inner.memo.publish(key, evaluation);
        if !stored {
            self.append(key, &evaluation);
        }
        (evaluation, stored)
    }

    /// Appends a newly stored entry to the cache's log, if it has one.
    /// Best effort, like a journal append: a failed append must not fail
    /// the evaluation.
    fn append(&self, key: CacheKey, evaluation: &Evaluation) {
        if let Some(log) = &self.inner.log {
            let _ = log.append(&Record::entry(key, evaluation.clone()));
        }
    }

    /// Looks up, or evaluates-and-stores on a miss.
    ///
    /// Concurrent callers with the same key are deduplicated: the first
    /// one evaluates (a miss) while the others block until the result
    /// lands and then take it as a hit and a coalesced lookup, so an
    /// expensive point is never compiled twice in parallel. (If the
    /// owning evaluation fails or panics, one waiter takes over.) A new
    /// result is appended to the cache's log before any caller gets it.
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
        let (evaluation, source) = self.inner.memo.get_or_compute(key, || {
            // A miss counts when this caller starts evaluating, so a
            // failed evaluation still counts one.
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            let evaluation = evaluate()?;
            self.append(key, &evaluation);
            Ok::<_, DseError>(evaluation)
        })?;
        let hit = source != Source::Computed;
        if hit {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        }
        if source == Source::Awaited {
            self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Ok((evaluation, hit))
    }

    /// Opens the cache log at `path`: loads every resumable entry of its
    /// valid prefix, and from then on appends each entry the cache newly
    /// stores. A missing file, or one without this engine's stamp (an
    /// expected lifecycle event), starts cold under a fresh stamp; a torn
    /// tail is cut.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be read, created or
    /// cut.
    pub fn load(path: &std::path::Path) -> Result<Self, DseError> {
        let memo = Memo::default();
        let log = Log::open(path, |_, record| {
            if let Some((key, evaluation)) = record.resumable() {
                memo.insert(key, evaluation);
            }
        })?;
        let inner = CacheInner { memo, log: Some(log), ..CacheInner::default() };
        Ok(EvalCache { inner: std::sync::Arc::new(inner) })
    }

    /// Writes a compacted snapshot of the cache to `path`: one log entry
    /// per stored evaluation, in key order (counters are not persisted).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> Result<(), DseError> {
        let mut rows = self.inner.memo.entries();
        // Deterministic file contents regardless of hash-map order.
        rows.sort_by_key(|(k, _)| (k.model, k.arch, k.strategy.name(), k.search.name(), k.traffic));
        let lines = rows.into_iter().map(|(key, evaluation)| Record::entry(key, evaluation).line());
        crate::log::rewrite(path, lines)
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
    fn cache_round_trips_through_a_saved_snapshot() {
        let cache = EvalCache::new();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap();
        cache.insert(key, evaluation.clone());
        let dir = std::env::temp_dir().join("cimflow-dse-cache-test");
        let path = dir.join("snapshot.jsonl");
        cache.save(&path).unwrap();

        let restored = EvalCache::load(&path).unwrap();
        assert_eq!(restored.len(), 1);
        let (back, was_hit) =
            restored.get_or_insert_with(key, || panic!("restored cache must hit")).unwrap();
        assert!(was_hit);
        assert_eq!(back.simulation.total_cycles, evaluation.simulation.total_cycles);
        assert_eq!(back.compilation, evaluation.compilation);
        std::fs::remove_file(&path).ok();
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

        // An unparseable first line starts cold too, as a journal's does.
        std::fs::write(&path, "{broken").unwrap();
        assert!(EvalCache::load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
