//! A shared store of recorded simulation traces, keyed by
//! *compile-affecting* content so that timing-only design points — same
//! compiled program, different frequency / memory-port placement — share
//! one compile → record run and replay the rest.
//!
//! The store is the DSE-side counterpart of the simulator's
//! [`SimTrace`]/[`ReplayEngine`](cimflow_sim::ReplayEngine) pair. A
//! trace group — the points of a batch that share a [`TraceKey`] —
//! gets or builds its trace, then replays: the first point to reach a
//! key pays the full `compile + record` cost, keeps the recording's own
//! report and publishes the trace (plus the frequency-independent
//! compile-side facts an [`Evaluation`](crate::Evaluation) needs); every
//! other point with the same key is re-timed from the trace in a
//! fraction of the time, one lockstep walk per claimed group. The store
//! is a bounded single-flight memo — the same one under the
//! [`EvalCache`](crate::EvalCache) — plus recorded/reused counters:
//! concurrent recorders of one key are deduplicated, so a sweep fanning
//! 16 workers into one trace group performs exactly one recording.
//!
//! The key hashes the architecture through
//! [`ArchConfig::compile_fingerprint`], which canonicalizes the
//! timing-only fields (`frequency_mhz`, `memory_port`, `noc_hop_latency`,
//! and the inter-chip link parameters of single-chip systems) — two
//! architectures differing only in those fields collide intentionally.
//! Everything else (flit size, macro grouping, chip/core counts, …)
//! changes the compiled program and therefore the key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{CompileReport, SearchMode, Strategy};
use cimflow_nn::Model;
use cimflow_sim::SimTrace;

use crate::cache::model_content_hash;
use crate::memo::{Memo, Source};
use crate::{CacheKey, DseError};

/// Identifies one recorded trace by compile-affecting content: the
/// architecture's [`compile fingerprint`](ArchConfig::compile_fingerprint),
/// the model's content hash, the strategy and the search mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// [`ArchConfig::compile_fingerprint`] of the architecture
    /// (timing-only fields canonicalized away).
    pub arch: u64,
    /// Content hash of the model (same function as the eval cache's).
    pub model: u64,
    /// The compilation strategy.
    pub strategy: Strategy,
    /// The system-level search mode.
    pub search: SearchMode,
}

impl TraceKey {
    /// Computes the trace key of a design point.
    pub fn of(arch: &ArchConfig, model: &Model, strategy: Strategy, search: SearchMode) -> Self {
        TraceKey {
            arch: arch.compile_fingerprint(),
            model: model_content_hash(model),
            strategy,
            search,
        }
    }

    /// The trace key of the point on `arch` whose cache key is `key`,
    /// reusing the model hash the cache key holds.
    pub(crate) fn of_point(arch: &ArchConfig, key: &CacheKey) -> Self {
        TraceKey {
            arch: arch.compile_fingerprint(),
            model: key.model,
            strategy: key.strategy,
            search: key.search,
        }
    }
}

/// One recorded trace plus the compile-side facts shared by every design
/// point that replays it (all of them are frequency-independent — they
/// describe the compiled program, not its timing).
#[derive(Debug)]
pub struct TraceEntry {
    /// The recorded timing-op trace.
    pub trace: SimTrace,
    /// Static compilation statistics of the recorded compile.
    pub compilation: CompileReport,
    /// Number of execution stages chosen by the partitioner.
    pub stages: usize,
    /// Mean weight-duplication factor chosen by the mapper.
    pub mean_duplication: f64,
}

/// Monotonic counters of a [`TraceStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces recorded (one full compile + record run each).
    pub recorded: u64,
    /// Lookups served by an already-recorded trace.
    pub reused: u64,
    /// Traces evicted by the LRU capacity bound (each eviction makes the
    /// key re-recordable — correctness is unaffected, only reuse).
    pub evicted: u64,
}

/// Default [`TraceStore`] capacity, in entries. A recorded trace of a
/// realistic model runs to megabytes, and long serve/explore sessions
/// used to grow the store without bound; 128 entries comfortably covers
/// every trace group of the paper-scale sweeps while capping memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 128;

#[derive(Debug)]
struct StoreInner {
    memo: Memo<TraceKey, Arc<TraceEntry>>,
    recorded: AtomicU64,
    reused: AtomicU64,
}

/// A concurrency-safe store of recorded traces shared by the workers of
/// one evaluation service (cheap to clone; clones share the storage).
///
/// The store is bounded: once [`capacity`](Self::capacity) traces are
/// held, recording a new one evicts the least-recently-used entry (and
/// counts it in [`TraceStoreStats::evicted`]). An evicted key simply
/// records again on its next miss.
#[derive(Debug, Clone)]
pub struct TraceStore {
    inner: Arc<StoreInner>,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceStore {
    /// Creates an empty store with the default capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store holding at most `capacity` traces
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            inner: Arc::new(StoreInner {
                memo: Memo::bounded(capacity),
                recorded: AtomicU64::new(0),
                reused: AtomicU64::new(0),
            }),
        }
    }

    /// Maximum number of traces the store holds before evicting.
    pub fn capacity(&self) -> usize {
        self.inner.memo.capacity().expect("a trace store is bounded")
    }

    /// Number of recorded traces.
    pub fn len(&self) -> usize {
        self.inner.memo.len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace recorded under `key`, if any (does not count as reuse,
    /// but refreshes the entry's LRU recency).
    pub fn get(&self, key: &TraceKey) -> Option<Arc<TraceEntry>> {
        self.inner.memo.get(key)
    }

    /// Counts `count` additional reuses. [`TraceStore::get`] deliberately
    /// does not count (probes are not reuses), and a lookup through
    /// [`Self::get_or_record_with`] counts one; batch consumers — e.g. a
    /// lockstep replay group re-timing many points from one lookup —
    /// report the further points the entry served, so that `reused`
    /// counts replayed points.
    pub fn note_reuse(&self, count: u64) {
        self.inner.reused.fetch_add(count, Ordering::Relaxed);
    }

    /// A snapshot of the recorded/reused/evicted counters.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            recorded: self.inner.recorded.load(Ordering::Relaxed),
            reused: self.inner.reused.load(Ordering::Relaxed),
            evicted: self.inner.memo.evicted(),
        }
    }

    /// Looks up the trace under `key`, or records it with `record` on a
    /// miss. Returns the entry plus whether **this caller** recorded it
    /// (`false` means the trace pre-existed or another worker's
    /// recording was awaited — either way the caller should replay, and
    /// the lookup counts one reuse).
    ///
    /// Concurrent callers with the same key are deduplicated exactly
    /// like [`EvalCache::get_or_insert_with`](crate::EvalCache): the
    /// first records while the others wait, then take the published
    /// entry. Recording failures are not cached (one waiter takes over).
    ///
    /// # Errors
    ///
    /// Propagates the recorder's error.
    pub fn get_or_record_with(
        &self,
        key: TraceKey,
        record: impl FnOnce() -> Result<TraceEntry, DseError>,
    ) -> Result<(Arc<TraceEntry>, bool), DseError> {
        let (entry, source) = self.inner.memo.get_or_compute(key, || record().map(Arc::new))?;
        let recorded = source == Source::Computed;
        let counter = if recorded { &self.inner.recorded } else { &self.inner.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((entry, recorded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_compiler::{compile, Strategy};
    use cimflow_nn::models;
    use cimflow_sim::Simulator;

    fn record_entry(arch: &ArchConfig, model: &Model) -> TraceEntry {
        let compiled = compile(model, arch, Strategy::GenericMapping).unwrap();
        let (trace, _) = Simulator::record(&compiled).unwrap();
        TraceEntry {
            trace,
            compilation: compiled.report.clone(),
            stages: compiled.plan.stages.len(),
            mean_duplication: compiled.plan.mean_duplication(),
        }
    }

    #[test]
    fn timing_only_points_share_a_key_and_the_recorded_trace() {
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = TraceKey::of(&base, &model, Strategy::GenericMapping, SearchMode::Sequential);
        // Frequency and port placement are timing-only: same key.
        let retimed = base.with_frequency_mhz(500).with_memory_port(27);
        assert_eq!(
            key,
            TraceKey::of(&retimed, &model, Strategy::GenericMapping, SearchMode::Sequential)
        );
        // Flit size changes the compiled program: different key.
        assert_ne!(
            key,
            TraceKey::of(
                &base.with_flit_bytes(16),
                &model,
                Strategy::GenericMapping,
                SearchMode::Sequential
            )
        );

        let store = TraceStore::new();
        let (_, recorded) =
            store.get_or_record_with(key, || Ok(record_entry(&base, &model))).unwrap();
        assert!(recorded);
        let (entry, recorded) =
            store.get_or_record_with(key, || panic!("second lookup must reuse")).unwrap();
        assert!(!recorded);
        assert!(entry.trace.is_compatible(&retimed));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats(), TraceStoreStats { recorded: 1, reused: 1, evicted: 0 });
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        // One real recording, cloned per key: the test exercises the
        // bound, not the recorder.
        let template = record_entry(&base, &model);
        let entry = || {
            Ok(TraceEntry {
                trace: template.trace.clone(),
                compilation: template.compilation.clone(),
                stages: template.stages,
                mean_duplication: template.mean_duplication,
            })
        };
        // Three distinct keys via compile-affecting flit sizes.
        let key = |flit: u32| {
            TraceKey::of(
                &base.with_flit_bytes(flit),
                &model,
                Strategy::GenericMapping,
                SearchMode::Sequential,
            )
        };
        let (a, b, c) = (key(32), key(16), key(8));

        let store = TraceStore::with_capacity(2);
        assert_eq!(store.capacity(), 2);
        store.get_or_record_with(a, entry).unwrap();
        store.get_or_record_with(b, entry).unwrap();
        assert_eq!(store.len(), 2);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(store.get(&a).is_some());
        store.get_or_record_with(c, entry).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(&a).is_some(), "recently used entry survives");
        assert!(store.get(&b).is_none(), "LRU entry was evicted");
        assert!(store.get(&c).is_some(), "new entry is held");
        assert_eq!(store.stats(), TraceStoreStats { recorded: 3, reused: 0, evicted: 1 });

        // The evicted key is simply re-recordable.
        let (_, recorded) = store.get_or_record_with(b, entry).unwrap();
        assert!(recorded);
        assert_eq!(store.stats().evicted, 2);

        // A zero capacity clamps to one entry rather than thrashing on
        // an un-storable insert.
        assert_eq!(TraceStore::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn recording_failures_are_not_cached() {
        let store = TraceStore::new();
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = TraceKey::of(&base, &model, Strategy::DpOptimized, SearchMode::Sequential);
        let failed: Result<_, DseError> =
            store.get_or_record_with(key, || Err(DseError::spec("synthetic failure")));
        assert!(failed.is_err());
        assert!(store.is_empty());
        // The key is retryable afterwards.
        let (_, recorded) =
            store.get_or_record_with(key, || Ok(record_entry(&base, &model))).unwrap();
        assert!(recorded);
    }

    #[test]
    fn concurrent_recorders_of_one_key_are_deduplicated() {
        let store = TraceStore::new();
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = TraceKey::of(&base, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let recordings: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = store.clone();
                    let model = &model;
                    scope.spawn(move || {
                        let (_, recorded) = store
                            .get_or_record_with(key, || Ok(record_entry(&base, model)))
                            .unwrap();
                        recorded
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(recordings.iter().filter(|&&r| r).count(), 1, "exactly one recorder");
        assert_eq!(store.stats().recorded, 1);
        assert_eq!(store.stats().reused, 3);
    }
}
