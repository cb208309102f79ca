//! Sweep journaling: an append-only record of finished [`DseOutcome`]s,
//! so an interrupted sweep resumes from the journal instead of re-running
//! warm points.
//!
//! A journal is a log in the format cache files use (see
//! [`EvalCache::load`](crate::EvalCache::load)), whose lines also carry
//! each point and whether it was cached. A line is flushed as it lands,
//! so a killed process loses at most the point it was evaluating; opening
//! cuts a torn tail and rewrites nothing else, and a journal of another
//! stamp starts fresh. Successful entries are keyed by the cache's
//! content-hashed [`CacheKey`], so resumption is immune to grid
//! reordering and spec edits that keep a point's content identical.
//! Failed points are logged but always re-run on resume (their failure
//! may have been transient), as the cache does not store errors.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::log::{Log, Record};
use crate::{CacheKey, DseError, DseOutcome, Evaluation};

/// What a compaction pass dropped and kept (see
/// [`SweepJournal::compact`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactionStats {
    /// Resumable (successful, deduplicated) entries kept.
    pub kept: usize,
    /// Superseded or duplicate entries of an already-kept key dropped.
    pub superseded: usize,
    /// Failure/log-only lines dropped (they are always re-run on resume).
    pub failures: usize,
}

/// An append-only journal of finished sweep points.
///
/// Thread-safe: service workers append concurrently. Appends are
/// best-effort from the workers' perspective — an I/O failure must never
/// fail the sweep itself — but [`SweepJournal::record`] surfaces the
/// error for callers that want to know.
#[derive(Debug)]
pub struct SweepJournal {
    log: Log,
    entries: Mutex<HashMap<CacheKey, Evaluation>>,
}

impl SweepJournal {
    /// Opens (or creates) a journal at `path`, loading every resumable
    /// point recorded by a previous run of the same engine/format (a
    /// key's last entry wins). A journal of another engine or format
    /// version, or a file without a stamp line, restarts fresh; a torn
    /// trailing line (crash mid-write) is cut.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be read, cut or
    /// created.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DseError> {
        let mut entries = HashMap::new();
        let log = Log::open(&path.into(), |_, record| {
            entries.extend(record.resumable());
        })?;
        Ok(SweepJournal { log, entries: Mutex::new(entries) })
    }

    /// Compacts a journal or cache file in place without opening it for
    /// appending: drops superseded/duplicate entries (keeping each key's
    /// latest success) *and* failure/log-only lines, which resumption
    /// re-runs anyway. The `cimflow-dse journal compact` subcommand is a
    /// thin wrapper over this.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be read or
    /// rewritten.
    pub fn compact(path: impl Into<PathBuf>) -> Result<CompactionStats, DseError> {
        crate::log::compact(&path.into())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of resumable (successful) points in the journal.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("journal poisoned").len()
    }

    /// Whether the journal holds no resumable points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The journaled evaluation of a point, if any.
    pub fn lookup(&self, key: &CacheKey) -> Option<Evaluation> {
        self.entries.lock().expect("journal poisoned").get(key).cloned()
    }

    /// Appends one finished outcome (flushed immediately). `key` is the
    /// point's content hash when its model resolved; keyless entries are
    /// log-only.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the append fails. Workers treat this
    /// as best-effort.
    pub fn record(&self, key: Option<CacheKey>, outcome: &DseOutcome) -> Result<(), DseError> {
        self.log.append(&Record {
            key,
            point: Some(outcome.point.clone()),
            evaluation: outcome.result.as_ref().ok().cloned(),
            error: outcome.result.as_ref().err().map(ToString::to_string),
            cached: Some(outcome.cached),
        })?;
        if let (Some(key), Ok(evaluation)) = (key, &outcome.result) {
            self.entries.lock().expect("journal poisoned").insert(key, evaluation.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evaluate_with_search, expand_jobs, EvalCache, EvalService, ServiceConfig, Submission,
        SweepSpec, CACHE_ENGINE_VERSION,
    };
    use cimflow_arch::ArchConfig;
    use cimflow_compiler::{SearchMode, Strategy};
    use cimflow_nn::models;
    use std::sync::Arc;

    fn journal_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cimflow-dse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    fn spec() -> SweepSpec {
        SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
    }

    /// Runs `spec` on a fresh `workers`-worker service sharing `cache`,
    /// resuming from and appending to the journal at `path`.
    fn run_journaled(
        spec: &SweepSpec,
        workers: usize,
        cache: &EvalCache,
        path: &Path,
    ) -> Vec<DseOutcome> {
        let service =
            EvalService::with_cache(ServiceConfig::new().with_workers(workers), cache.clone());
        let journal = Some(Arc::new(SweepJournal::open(path).unwrap()));
        let submission =
            Submission { jobs: expand_jobs(spec).unwrap(), journal, ..Submission::default() };
        service.submit_batch(submission).unwrap().wait()
    }

    #[test]
    fn interrupted_sweeps_resume_from_the_journal() {
        let path = journal_path("resume.jsonl");
        // First run journals both points.
        let outcomes = run_journaled(&spec(), 2, &EvalCache::new(), &path);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.result.is_ok() && !o.cached));
        assert_eq!(SweepJournal::open(&path).unwrap().len(), 2);

        // "Interrupted" re-run on a *cold* cache: every point is served
        // from the journal — zero evaluations, zero cache misses.
        let cache = EvalCache::new();
        let resumed = run_journaled(&spec(), 1, &cache, &path);
        assert!(resumed.iter().all(|o| o.cached), "journaled points must not re-run");
        assert_eq!(cache.stats().misses, 0);
        for (a, b) in outcomes.iter().zip(&resumed) {
            assert_eq!(a.point, b.point);
            assert_eq!(
                a.result.as_ref().unwrap().simulation.total_cycles,
                b.result.as_ref().unwrap().simulation.total_cycles
            );
        }
        // The journal also seeds the cache for non-journaled callers.
        assert_eq!(cache.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_journals_resume_the_finished_prefix_only() {
        let path = journal_path("partial.jsonl");
        let wide = spec().with_mg_sizes(&[4, 8, 16]);
        // Journal only the mg=4 point, then "crash".
        run_journaled(&spec().with_mg_sizes(&[4]), 1, &EvalCache::new(), &path);
        // Corrupt the tail the way a killed process would.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(file, "{{\"key\": {{\"arch\": 1, \"mo").unwrap();
        }
        let cache = EvalCache::new();
        let outcomes = run_journaled(&wide, 2, &cache, &path);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].cached, "the journaled point resumes");
        assert!(!outcomes[1].cached && !outcomes[2].cached, "unjournaled points run");
        assert_eq!(cache.stats().misses, 2);
        // The second run journaled the remaining points: now everything
        // resumes.
        assert_eq!(SweepJournal::open(&path).unwrap().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_points_are_logged_but_always_re_run() {
        let path = journal_path("failures.jsonl");
        let bad = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[0]);
        let outcomes = run_journaled(&bad, 1, &EvalCache::new(), &path);
        assert!(outcomes[0].result.is_err());
        let journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 0, "failures are not resumable");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("architecture error"), "failures are still logged");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_engine_journals_start_fresh() {
        let path = journal_path("stale.jsonl");
        std::fs::write(
            &path,
            "{\"journal\": \"cimflow-dse-sweep\", \"format\": 1, \"cache_format\": 1, \
             \"engine\": \"0.0.0-other\"}\n{\"not\": \"an entry\"}\n",
        )
        .unwrap();
        let journal = SweepJournal::open(&path).unwrap();
        assert!(journal.is_empty());
        // The rewritten file carries the current header and nothing else.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains(CACHE_ENGINE_VERSION));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopening_resumes_the_last_entry_and_compaction_drops_superseded_and_failures() {
        let path = journal_path("compact.jsonl");
        let journal = SweepJournal::open(&path).unwrap();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap();
        let point = spec().expand().unwrap()[0].clone();
        // The same key recorded three times (as accumulating resumed runs
        // do), plus one failure line.
        for _ in 0..3 {
            let outcome = crate::DseOutcome {
                point: point.clone(),
                result: Ok(evaluation.clone()),
                cached: false,
            };
            journal.record(Some(key), &outcome).unwrap();
        }
        let failed = crate::DseOutcome {
            point: point.clone(),
            result: Err(crate::DseError::io("boom")),
            cached: false,
        };
        journal.record(None, &failed).unwrap();
        drop(journal);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 5, "header + 4");

        // Reopening resumes the key once and rewrites nothing.
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.lookup(&key).is_some());
        drop(reopened);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 5, "header + 4");

        // Compaction drops the superseded duplicates and the failure
        // line, and reports what happened.
        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats { kept: 1, superseded: 2, failures: 1 });
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2, "header + 1");
        // The compacted journal still resumes.
        let after = SweepJournal::open(&path).unwrap();
        assert_eq!(after.len(), 1);
        assert!(after.lookup(&key).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_a_missing_or_stale_journal_yields_an_empty_file() {
        let path = journal_path("compact-stale.jsonl");
        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats::default());
        std::fs::write(
            &path,
            "{\"journal\": \"cimflow-dse-sweep\", \"format\": 1, \"cache_format\": 1, \
             \"engine\": \"0.0.0-other\"}\n{\"not\": \"an entry\"}\n",
        )
        .unwrap();
        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats::default(), "stale journals compact to empty");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1, "header only");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_and_lookup_round_trip() {
        let path = journal_path("roundtrip.jsonl");
        let journal = SweepJournal::open(&path).unwrap();
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap();
        let outcome = crate::DseOutcome {
            point: spec().expand().unwrap()[1].clone(),
            result: Ok(evaluation.clone()),
            cached: false,
        };
        journal.record(Some(key), &outcome).unwrap();
        assert_eq!(
            journal.lookup(&key).unwrap().simulation.total_cycles,
            evaluation.simulation.total_cycles
        );
        // A reopened journal sees the same entry.
        drop(journal);
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.lookup(&key).is_some());
        std::fs::remove_file(&path).ok();
    }
}
