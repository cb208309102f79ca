//! Sweep journaling: an append-only JSONL record of finished
//! [`DseOutcome`]s, so an interrupted sweep resumes from the journal
//! instead of re-running warm points.
//!
//! The journal complements the [`EvalCache`](crate::EvalCache): the cache
//! is a content-addressed store that must be explicitly saved, while the
//! journal is written incrementally — one line per finished point, flushed
//! as it lands — so even a killed process loses at most the point it was
//! evaluating. Successful entries are keyed by the same content-hashed
//! [`CacheKey`] the cache uses, so resumption is immune to grid reordering
//! and spec edits that keep a point's content identical. Failed points are
//! recorded for the log but always re-run on resume (their failure may
//! have been transient), matching the cache's errors-are-not-cached
//! policy.
//!
//! A journal file starts with a header line holding the same stamp as a
//! cache file — [`CACHE_FORMAT_VERSION`](crate::CACHE_FORMAT_VERSION)
//! plus the engine version, since journal lines embed the cache's
//! [`Evaluation`] schema — and a mismatching or missing stamp makes
//! [`SweepJournal::open`] start a fresh journal (stale results must not
//! be resumed across engine changes). A malformed trailing line — the
//! signature of a crash mid-write — is dropped, and everything before it
//! is kept. A journal is the one file at its path: [`SweepJournal::open`]
//! and [`SweepJournal::compact`] read and rewrite only that file.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::cache::Stamp;
use crate::{CacheKey, DseError, DseOutcome, Evaluation, PointSpec};

/// One journaled point. `evaluation` is present for successes (resumable),
/// `error` for failures (log-only).
#[derive(Serialize, Deserialize)]
struct JournalEntry {
    key: Option<CacheKey>,
    point: PointSpec,
    evaluation: Option<Evaluation>,
    error: Option<String>,
    cached: bool,
}

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

/// An append-only JSONL journal of finished sweep points.
///
/// Thread-safe: service workers append concurrently. Appends are
/// best-effort from the workers' perspective — an I/O failure must never
/// fail the sweep itself — but [`SweepJournal::record`] surfaces the
/// error for callers that want to know.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    entries: Mutex<HashMap<CacheKey, Evaluation>>,
    file: Mutex<std::fs::File>,
}

/// One kept line of a journal file with its key (for successful entries)
/// and evaluation.
type JournalLine = (String, Option<CacheKey>, Option<Evaluation>);

/// Reads the valid, stamp-checked prefix of a journal file. A stale or
/// missing stamp yields an empty parse; a malformed trailing line (crash
/// mid-write) drops the tail and keeps the prefix.
fn parse_journal(path: &Path) -> Result<Vec<JournalLine>, DseError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(DseError::io(format!("cannot read {}: {e}", path.display()))),
    };
    let mut lines = text.lines();
    let stamped = lines
        .next()
        .and_then(|line| serde_json::from_str::<serde_json::Value>(line).ok())
        .is_some_and(|header| Stamp::is_current(&header));
    let mut parsed = Vec::new();
    if stamped {
        for line in lines {
            match serde_json::from_str::<JournalEntry>(line) {
                Ok(entry) => {
                    let key = entry.key.filter(|_| entry.evaluation.is_some());
                    parsed.push((line.to_owned(), key, entry.evaluation));
                }
                // A malformed line is a crash-truncated tail: keep the
                // valid prefix, drop the rest.
                Err(_) => break,
            }
        }
    }
    Ok(parsed)
}

/// Marks which lines survive deduplication: for every key only the
/// *last* successful entry is kept (earlier ones are superseded);
/// keyless/failure lines pass through untouched.
fn dedup_mask(lines: &[JournalLine]) -> Vec<bool> {
    let mut seen: std::collections::HashSet<CacheKey> = std::collections::HashSet::new();
    let mut keep = vec![true; lines.len()];
    for (index, (_, key, _)) in lines.iter().enumerate().rev() {
        if let Some(key) = key {
            if !seen.insert(*key) {
                keep[index] = false;
            }
        }
    }
    keep
}

/// Writes a normalized journal file (current stamp + `lines`).
fn write_journal(path: &Path, lines: &[&str]) -> Result<(), DseError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| DseError::io(format!("cannot create {}: {e}", parent.display())))?;
        }
    }
    let mut contents =
        serde_json::to_string(&Stamp::current()).expect("stamp serialization cannot fail");
    contents.push('\n');
    for line in lines {
        contents.push_str(line);
        contents.push('\n');
    }
    std::fs::write(path, &contents)
        .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))
}

impl SweepJournal {
    /// Opens (or creates) a journal at `path`, loading every resumable
    /// point recorded by a previous run of the same engine/format.
    ///
    /// A journal written by a different engine or format version — or a
    /// file without a stamp header — is discarded and restarted fresh.
    /// A malformed trailing line (crash mid-write) is dropped; the valid
    /// prefix is kept and the file is rewritten without the garbage tail.
    /// Superseded entries — an earlier success for a key a later line
    /// also records — are dropped during the rewrite, so a journal that
    /// accumulated duplicates across resumed runs shrinks back to one
    /// line per point.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be read, rewritten
    /// or created.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DseError> {
        let path = path.into();
        let mut entries = HashMap::new();
        let lines = parse_journal(&path)?;
        let keep = dedup_mask(&lines);
        let mut kept = Vec::new();
        for ((line, key, evaluation), keep) in lines.iter().zip(&keep) {
            if !keep {
                continue;
            }
            if let (Some(key), Some(evaluation)) = (key, evaluation) {
                entries.insert(*key, evaluation.clone());
            }
            kept.push(line.as_str());
        }
        // Rewrite the normalized journal (fresh header, deduplicated
        // valid entries only) and keep the handle open for appending.
        write_journal(&path, &kept)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| DseError::io(format!("cannot open {}: {e}", path.display())))?;
        Ok(SweepJournal { path, entries: Mutex::new(entries), file: Mutex::new(file) })
    }

    /// Compacts a journal in place without opening it for appending:
    /// drops superseded/duplicate entries (keeping each key's latest
    /// success) *and* failure/log-only lines, which resumption re-runs
    /// anyway. The `cimflow-dse journal compact` subcommand is a thin
    /// wrapper over this.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file cannot be read or
    /// rewritten.
    pub fn compact(path: impl Into<PathBuf>) -> Result<CompactionStats, DseError> {
        let path = path.into();
        let lines = parse_journal(&path)?;
        let keep = dedup_mask(&lines);
        let mut stats = CompactionStats::default();
        let mut kept = Vec::new();
        for ((line, key, _), keep) in lines.iter().zip(&keep) {
            if key.is_none() {
                stats.failures += 1;
            } else if !keep {
                stats.superseded += 1;
            } else {
                stats.kept += 1;
                kept.push(line.as_str());
            }
        }
        write_journal(&path, &kept)?;
        Ok(stats)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
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
        let entry = JournalEntry {
            key,
            point: outcome.point.clone(),
            evaluation: outcome.result.as_ref().ok().cloned(),
            error: outcome.result.as_ref().err().map(ToString::to_string),
            cached: outcome.cached,
        };
        let mut line =
            serde_json::to_string(&entry).expect("journal entry serialization cannot fail");
        line.push('\n');
        {
            let mut file = self.file.lock().expect("journal poisoned");
            file.write_all(line.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| DseError::io(format!("cannot append {}: {e}", self.path.display())))?;
        }
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
    fn reopening_drops_superseded_entries_and_compaction_drops_failures() {
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

        // Reopening dedups the superseded duplicates but keeps the
        // failure log line.
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.lookup(&key).is_some());
        drop(reopened);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3, "header + 2");

        // Full compaction also drops the failure line and reports what
        // happened.
        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats { kept: 1, superseded: 0, failures: 1 });
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
