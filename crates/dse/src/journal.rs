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
//! A journal file starts with a header line carrying the engine and
//! format versions; a mismatching or missing header makes
//! [`SweepJournal::open`] start a fresh journal (stale results must not
//! be resumed across engine changes). A malformed trailing line — the
//! signature of a crash mid-write — is dropped, and everything before it
//! is kept.
//!
//! # Size-based rotation
//!
//! A journal opened with [`SweepJournal::open_rotating`] rotates once the
//! active file grows past a configurable byte limit: the active file is
//! renamed to `<path>.1` (older segments shift to `<path>.2`, `<path>.3`,
//! … — higher numbers are older) and a fresh header-only active file
//! takes its place, so one multi-million-point run never accretes a
//! single unbounded file. Every `open` variant reads the rotated
//! segments back, oldest first, before the active file; each segment is
//! header-checked and crash-tail-tolerant exactly like the active file.
//! [`SweepJournal::compact`] merges the segments into one deduplicated
//! active file and deletes them.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::cache::{CACHE_ENGINE_VERSION, CACHE_FORMAT_VERSION};
use crate::{CacheKey, DseError, DseOutcome, Evaluation, PointSpec};

/// On-disk journal format version; bumped together with the cache format
/// (journal entries embed the same [`Evaluation`] schema). Version 2:
/// entries embed `Evaluation.eval_path` and the `PointSpec`
/// frequency/memory-port axes.
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

#[derive(Serialize, Deserialize)]
struct JournalHeader {
    journal: String,
    format: u32,
    /// Evaluation-semantics version (shared with the cache).
    cache_format: u32,
    engine: String,
}

impl JournalHeader {
    fn current() -> Self {
        JournalHeader {
            journal: "cimflow-dse-sweep".to_owned(),
            format: JOURNAL_FORMAT_VERSION,
            cache_format: CACHE_FORMAT_VERSION,
            engine: CACHE_ENGINE_VERSION.to_owned(),
        }
    }

    fn is_current(&self) -> bool {
        let current = Self::current();
        self.journal == current.journal
            && self.format == current.format
            && self.cache_format == current.cache_format
            && self.engine == current.engine
    }
}

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
    file: Mutex<ActiveFile>,
    /// Rotate the active file past this many bytes; `None` never rotates.
    rotate_limit: Option<u64>,
}

/// The active journal file plus its running byte size (rotation is
/// decided on the tracked size, not a metadata syscall per append).
#[derive(Debug)]
struct ActiveFile {
    file: std::fs::File,
    bytes: u64,
}

/// The `n`-th rotated segment of a journal (`<path>.<n>`; 1 is the most
/// recently rotated, higher numbers are older).
fn segment_path(path: &Path, n: u32) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{n}"));
    PathBuf::from(name)
}

/// The existing rotated segments of a journal with their numbers,
/// ascending `n` (newest rotated first). Enumerated from the directory
/// rather than probed sequentially, so a numbering gap — the signature
/// of a crash between rotation renames — hides at most the segment
/// that was mid-rename, never every segment behind the gap.
fn numbered_segments(path: &Path) -> Vec<(u32, PathBuf)> {
    let Some(file_name) = path.file_name().map(|name| name.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let directory = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Ok(entries) = std::fs::read_dir(&directory) else { return Vec::new() };
    let prefix = format!("{file_name}.");
    let mut numbered: Vec<(u32, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let n: u32 = name.strip_prefix(&prefix)?.parse().ok()?;
            (n > 0).then(|| (n, entry.path()))
        })
        .collect();
    numbered.sort_by_key(|(n, _)| *n);
    numbered
}

/// The rotated segment paths of a journal, ascending `n`.
fn existing_segments(path: &Path) -> Vec<PathBuf> {
    numbered_segments(path).into_iter().map(|(_, segment)| segment).collect()
}

/// The parsed prefix of a journal file: each kept line with its key (for
/// successful entries) and evaluation.
struct ParsedJournal {
    lines: Vec<(String, Option<CacheKey>, Option<Evaluation>)>,
}

/// Reads the valid, header-checked prefix of a journal file. A stale or
/// missing header yields an empty parse; a malformed trailing line (crash
/// mid-write) drops the tail and keeps the prefix.
fn parse_journal(path: &Path) -> Result<ParsedJournal, DseError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(DseError::io(format!("cannot read {}: {e}", path.display()))),
    };
    let mut lines = text.lines();
    let header_ok = lines
        .next()
        .and_then(|line| serde_json::from_str::<JournalHeader>(line).ok())
        .is_some_and(|header| header.is_current());
    let mut parsed = Vec::new();
    if header_ok {
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
    Ok(ParsedJournal { lines: parsed })
}

/// Marks which lines survive deduplication: for every key only the
/// *last* successful entry is kept (earlier ones are superseded);
/// keyless/failure lines pass through untouched.
fn dedup_mask(lines: &[(String, Option<CacheKey>, Option<Evaluation>)]) -> Vec<bool> {
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

/// Writes a normalized journal file (current header + `lines`), returning
/// the byte size written.
fn write_journal(path: &Path, lines: &[&str]) -> Result<u64, DseError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| DseError::io(format!("cannot create {}: {e}", parent.display())))?;
        }
    }
    let mut contents = serde_json::to_string(&JournalHeader::current())
        .expect("journal header serialization cannot fail");
    contents.push('\n');
    for line in lines {
        contents.push_str(line);
        contents.push('\n');
    }
    std::fs::write(path, &contents)
        .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
    Ok(contents.len() as u64)
}

impl SweepJournal {
    /// Opens (or creates) a journal at `path`, loading every resumable
    /// point recorded by a previous run of the same engine/format.
    ///
    /// A journal written by a different engine or format version — or a
    /// file without a journal header — is discarded and restarted fresh.
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
        Self::open_with_limit(path.into(), None)
    }

    /// [`Self::open`] with size-based rotation: once an append pushes the
    /// active file past `max_bytes`, it is rotated to `<path>.1` (older
    /// segments shift up) and a fresh active file is started. Rotation
    /// triggers on append only — an oversized pre-existing file rotates
    /// at its next recorded point, not at open.
    ///
    /// # Errors
    ///
    /// See [`Self::open`].
    pub fn open_rotating(path: impl Into<PathBuf>, max_bytes: u64) -> Result<Self, DseError> {
        Self::open_with_limit(path.into(), Some(max_bytes))
    }

    fn open_with_limit(path: PathBuf, rotate_limit: Option<u64>) -> Result<Self, DseError> {
        let mut entries = HashMap::new();
        // Rotated segments, oldest (highest number) first: a key
        // re-recorded later overwrites the older evaluation. Segments
        // are read-only archives — only the active file is normalized.
        for segment in existing_segments(&path).iter().rev() {
            for (_, key, evaluation) in parse_journal(segment)?.lines {
                if let (Some(key), Some(evaluation)) = (key, evaluation) {
                    entries.insert(key, evaluation);
                }
            }
        }
        let parsed = parse_journal(&path)?;
        let keep = dedup_mask(&parsed.lines);
        let mut kept = Vec::new();
        for ((line, key, evaluation), keep) in parsed.lines.iter().zip(&keep) {
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
        let bytes = write_journal(&path, &kept)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| DseError::io(format!("cannot open {}: {e}", path.display())))?;
        Ok(SweepJournal {
            path,
            entries: Mutex::new(entries),
            file: Mutex::new(ActiveFile { file, bytes }),
            rotate_limit,
        })
    }

    /// Compacts a journal in place without opening it for appending:
    /// drops superseded/duplicate entries (keeping each key's latest
    /// success) *and* failure/log-only lines, which resumption re-runs
    /// anyway. Rotated segments are folded into the rewritten active
    /// file and deleted, so a rotated journal compacts back to a single
    /// file. The `cimflow-dse journal compact` subcommand is a thin
    /// wrapper over this.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when a file cannot be read, rewritten or
    /// removed.
    pub fn compact(path: impl Into<PathBuf>) -> Result<CompactionStats, DseError> {
        let path = path.into();
        let segments = existing_segments(&path);
        // Chronological order: oldest segment first, active file last,
        // so dedup keeps each key's latest success across the whole set.
        let mut lines = Vec::new();
        for segment in segments.iter().rev() {
            lines.extend(parse_journal(segment)?.lines);
        }
        lines.extend(parse_journal(&path)?.lines);
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
        for segment in segments {
            std::fs::remove_file(&segment)
                .map_err(|e| DseError::io(format!("cannot remove {}: {e}", segment.display())))?;
        }
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
    /// log-only. On a rotating journal, an append that pushes the active
    /// file past the byte limit rotates it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the append (or a rotation rename)
    /// fails. Workers treat this as best-effort.
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
            let mut active = self.file.lock().expect("journal poisoned");
            active
                .file
                .write_all(line.as_bytes())
                .and_then(|()| active.file.flush())
                .map_err(|e| DseError::io(format!("cannot append {}: {e}", self.path.display())))?;
            active.bytes += line.len() as u64;
            if self.rotate_limit.is_some_and(|limit| active.bytes > limit) {
                self.rotate_locked(&mut active)?;
            }
        }
        if let (Some(key), Ok(evaluation)) = (key, &outcome.result) {
            self.entries.lock().expect("journal poisoned").insert(key, evaluation.clone());
        }
        Ok(())
    }

    /// Rotates the over-limit active file to `<path>.1`, shifting older
    /// segments up, and starts a fresh header-only active file. Caller
    /// holds the file lock. Segments are shifted highest number first
    /// by their *actual* numbers, so a gap left by an interrupted
    /// earlier rotation never causes a rename onto an occupied slot.
    fn rotate_locked(&self, active: &mut ActiveFile) -> Result<(), DseError> {
        let rename = |from: &Path, to: &Path| {
            std::fs::rename(from, to).map_err(|e| {
                DseError::io(format!("cannot rotate {} -> {}: {e}", from.display(), to.display()))
            })
        };
        for (n, segment) in numbered_segments(&self.path).into_iter().rev() {
            rename(&segment, &segment_path(&self.path, n + 1))?;
        }
        rename(&self.path, &segment_path(&self.path, 1))?;
        let bytes = write_journal(&self.path, &[])?;
        active.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| DseError::io(format!("cannot open {}: {e}", self.path.display())))?;
        active.bytes = bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evaluate_with_search, expand_jobs, EvalCache, EvalService, ServiceConfig, Submission,
        SweepSpec,
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

    /// Distinct cache keys over one reusable evaluation (the journal
    /// does not validate key/value consistency, so rotation tests need
    /// not pay for N real evaluations).
    fn keyed_outcomes(count: usize) -> (Vec<CacheKey>, crate::DseOutcome) {
        let model = models::mobilenet_v2(32);
        let evaluation = evaluate_with_search(
            &ArchConfig::paper_default(),
            &model,
            Strategy::GenericMapping,
            SearchMode::Sequential,
        )
        .unwrap();
        let keys = (0..count)
            .map(|i| {
                let arch = ArchConfig::paper_default().with_macros_per_group(2 << i);
                CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
            })
            .collect();
        let outcome = crate::DseOutcome {
            point: spec().expand().unwrap()[0].clone(),
            result: Ok(evaluation),
            cached: false,
        };
        (keys, outcome)
    }

    #[test]
    fn rotation_splits_past_the_limit_and_open_reads_segments() {
        let path = journal_path("rotate.jsonl");
        // A 1-byte limit rotates after every append: one entry per
        // segment, newest in `.1`.
        let journal = SweepJournal::open_rotating(&path, 1).unwrap();
        let (keys, outcome) = keyed_outcomes(4);
        for &key in &keys {
            journal.record(Some(key), &outcome).unwrap();
        }
        assert_eq!(journal.len(), 4);
        drop(journal);
        for n in 1..=4 {
            assert!(segment_path(&path, n).exists(), "segment {n} exists");
        }
        assert!(!segment_path(&path, 5).exists());
        let active = std::fs::read_to_string(&path).unwrap();
        assert_eq!(active.lines().count(), 1, "the active file holds only the fresh header");

        // A plain (non-rotating) reopen reads every rotated segment.
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 4);
        for key in &keys {
            assert!(reopened.lookup(key).is_some());
        }
        // Without a limit it appends without rotating further.
        let (more, _) = keyed_outcomes(5);
        reopened.record(Some(more[4]), &outcome).unwrap();
        drop(reopened);
        assert!(!segment_path(&path, 5).exists());
        assert_eq!(SweepJournal::open(&path).unwrap().len(), 5);

        for n in 1..=4 {
            std::fs::remove_file(segment_path(&path, n)).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_truncated_rotated_tails_drop_only_the_torn_entry() {
        let path = journal_path("rotate-torn.jsonl");
        let journal = SweepJournal::open_rotating(&path, 1).unwrap();
        let (keys, outcome) = keyed_outcomes(4);
        for &key in &keys {
            journal.record(Some(key), &outcome).unwrap();
        }
        drop(journal);
        // `.1` is the newest rotated segment and holds the last key;
        // tear its entry the way a crash mid-rotation-write would.
        let newest = segment_path(&path, 1);
        let text = std::fs::read_to_string(&newest).unwrap();
        std::fs::write(&newest, &text[..text.len() - 50]).unwrap();

        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 3, "only the torn entry is lost");
        assert!(reopened.lookup(&keys[3]).is_none());
        for key in &keys[..3] {
            assert!(reopened.lookup(key).is_some());
        }
        drop(reopened);
        for n in 1..=4 {
            std::fs::remove_file(segment_path(&path, n)).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_gaps_from_interrupted_rotations_hide_only_the_missing_segment() {
        let path = journal_path("rotate-gap.jsonl");
        let journal = SweepJournal::open_rotating(&path, 1).unwrap();
        let (keys, outcome) = keyed_outcomes(4);
        for &key in &keys {
            journal.record(Some(key), &outcome).unwrap();
        }
        drop(journal);
        // A crash between rotation renames leaves a numbering gap at
        // `.1` (everything shifted up, the active file not yet moved).
        // Only that segment's entry may be lost; the rest must load.
        std::fs::remove_file(segment_path(&path, 1)).unwrap();
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 3, "segments behind the gap still load");
        assert!(reopened.lookup(&keys[3]).is_none(), "only the removed segment's entry is lost");
        drop(reopened);

        // A rotation over the gapped set must not clobber a survivor:
        // every pre-gap key is still resumable afterwards.
        let journal = SweepJournal::open_rotating(&path, 1).unwrap();
        let (more, _) = keyed_outcomes(5);
        journal.record(Some(more[4]), &outcome).unwrap();
        assert_eq!(journal.len(), 4);
        drop(journal);
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 4);
        for key in keys[..3].iter().chain([&more[4]]) {
            assert!(reopened.lookup(key).is_some());
        }
        for segment in existing_segments(&path) {
            std::fs::remove_file(segment).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_merges_rotated_segments_back_into_one_file() {
        let path = journal_path("rotate-compact.jsonl");
        let journal = SweepJournal::open_rotating(&path, 1).unwrap();
        let (keys, outcome) = keyed_outcomes(3);
        for &key in &keys {
            journal.record(Some(key), &outcome).unwrap();
        }
        // A superseding duplicate of the first key and a failure line,
        // spread across further segments.
        journal.record(Some(keys[0]), &outcome).unwrap();
        let failed = crate::DseOutcome {
            point: outcome.point.clone(),
            result: Err(crate::DseError::io("boom")),
            cached: false,
        };
        journal.record(None, &failed).unwrap();
        drop(journal);
        assert!(segment_path(&path, 5).exists(), "five appends rotated five segments");

        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats { kept: 3, superseded: 1, failures: 1 });
        assert!(existing_segments(&path).is_empty(), "compaction removes the segments");
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 3);
        for key in &keys {
            assert!(reopened.lookup(key).is_some());
        }
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
