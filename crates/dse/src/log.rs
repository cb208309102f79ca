//! The one persisted format: an append-only log of finished points.
//! Cache files ([`EvalCache::load`](crate::EvalCache::load)) and sweep
//! journals ([`SweepJournal`](crate::SweepJournal)) are both such logs,
//! and this module is the only code that reads or writes them.
//!
//! A log is a [`Stamp`] line, then one [`Record`] per line. One reader
//! keeps the valid prefix: it stops at the first line that lacks its
//! newline or does not parse, the tail a crash mid-write leaves, and a
//! missing or unparseable first line, or one carrying another stamp,
//! reads as an empty log (a cold start). [`Log::open`] cuts the file to
//! what the reader kept, or to a fresh stamp line on a cold start, so
//! every append starts a line; [`rewrite`] writes a compacted log.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::{
    CacheKey, CompactionStats, DseError, Evaluation, PointSpec, CACHE_ENGINE_VERSION,
    CACHE_FORMAT_VERSION,
};

/// The stamp every log starts with: [`CACHE_FORMAT_VERSION`] plus
/// [`CACHE_ENGINE_VERSION`].
#[derive(Serialize)]
struct Stamp {
    version: u32,
    engine: String,
}

impl Stamp {
    /// This engine's stamp line, newline included. A log whose first line
    /// differs, of another engine or an older schema, is never read.
    fn line() -> String {
        let stamp = Stamp { version: CACHE_FORMAT_VERSION, engine: CACHE_ENGINE_VERSION.into() };
        serde_json::to_string(&stamp).expect("the stamp serializes") + "\n"
    }
}

/// One line after the stamp: a finished point. A cache entry holds `key`
/// and `evaluation`; a journal line adds the `point` and whether it was
/// `cached`, and a failed point carries its `error` instead of an
/// evaluation.
#[derive(Default, Serialize, Deserialize)]
pub(crate) struct Record {
    pub(crate) key: Option<CacheKey>,
    pub(crate) point: Option<PointSpec>,
    pub(crate) evaluation: Option<Evaluation>,
    pub(crate) error: Option<String>,
    pub(crate) cached: Option<bool>,
}

impl Record {
    /// A cache entry.
    pub(crate) fn entry(key: CacheKey, evaluation: Evaluation) -> Self {
        Record { key: Some(key), evaluation: Some(evaluation), ..Record::default() }
    }

    /// The key and evaluation of a record that holds both: only such a
    /// record resumes.
    pub(crate) fn resumable(self) -> Option<(CacheKey, Evaluation)> {
        self.key.zip(self.evaluation)
    }

    /// The record's line, without its newline.
    pub(crate) fn line(&self) -> String {
        serde_json::to_string(self).expect("records serialize")
    }
}

/// Reads the log at `path`, handing `visit` each record of its valid
/// prefix with the line that holds it. Returns the prefix's length in
/// bytes: 0 for a missing file or a cold start, else at least the stamp
/// line.
fn read(path: &Path, mut visit: impl FnMut(&str, Record)) -> Result<u64, DseError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(DseError::io(format!("cannot read {}: {e}", path.display()))),
    };
    let stamp = Stamp::line();
    let mut lines = bytes.split_inclusive(|&byte| byte == b'\n');
    if lines.next() != Some(stamp.as_bytes()) {
        return Ok(0);
    }
    let mut valid = stamp.len();
    for line in lines {
        // A line without its newline is torn, even when it parses.
        let Some(text) = line.strip_suffix(b"\n").and_then(|text| std::str::from_utf8(text).ok())
        else {
            break;
        };
        let Ok(record) = serde_json::from_str(text) else { break };
        visit(text, record);
        valid += line.len();
    }
    Ok(valid as u64)
}

fn create_parent(path: &Path) -> Result<(), DseError> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => fs::create_dir_all(parent)
            .map_err(|e| DseError::io(format!("cannot create {}: {e}", parent.display()))),
        _ => Ok(()),
    }
}

/// A log open for appending.
#[derive(Debug)]
pub(crate) struct Log {
    path: PathBuf,
    file: Mutex<File>,
}

impl Log {
    /// Opens (or creates) the log at `path`, handing `visit` every record
    /// the reader keeps, then cuts the file to that prefix, or to a fresh
    /// stamp line on a cold start.
    pub(crate) fn open(path: &Path, visit: impl FnMut(&str, Record)) -> Result<Self, DseError> {
        let valid = read(path, visit)?;
        create_parent(path)?;
        let error = |e| DseError::io(format!("cannot open {}: {e}", path.display()));
        let mut file = OpenOptions::new().create(true).append(true).open(path).map_err(error)?;
        file.set_len(valid).map_err(error)?;
        if valid == 0 {
            file.write_all(Stamp::line().as_bytes()).map_err(error)?;
        }
        Ok(Log { path: path.to_owned(), file: Mutex::new(file) })
    }

    /// The log's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `record` as one flushed line.
    pub(crate) fn append(&self, record: &Record) -> Result<(), DseError> {
        let line = record.line() + "\n";
        let mut file = self.file.lock().expect("log poisoned");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| DseError::io(format!("cannot append {}: {e}", self.path.display())))
    }
}

/// Writes the log at `path` whole: the stamp line, then `lines`.
pub(crate) fn rewrite(
    path: &Path,
    lines: impl IntoIterator<Item = impl AsRef<str>>,
) -> Result<(), DseError> {
    create_parent(path)?;
    let mut text = Stamp::line();
    for line in lines {
        text.push_str(line.as_ref());
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))
}

/// Compacts the log at `path` in place: keeps the last resumable record
/// of each key, in file order, and drops superseded records and every
/// record that cannot resume.
pub(crate) fn compact(path: &Path) -> Result<CompactionStats, DseError> {
    let mut lines = Vec::new();
    read(path, |text, record| lines.push((text.to_owned(), record.resumable().map(|(k, _)| k))))?;
    let mut stats = CompactionStats::default();
    let mut seen = HashSet::new();
    let mut kept = Vec::new();
    for (text, key) in lines.iter().rev() {
        match key {
            None => stats.failures += 1,
            Some(key) if !seen.insert(*key) => stats.superseded += 1,
            Some(_) => kept.push(text),
        }
    }
    stats.kept = kept.len();
    rewrite(path, kept.into_iter().rev())?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_with_search, EvalCache, SweepJournal};
    use cimflow_arch::ArchConfig;
    use cimflow_compiler::{SearchMode, Strategy};
    use cimflow_nn::models;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cimflow-dse-log-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::remove_file(&path).ok();
        path
    }

    /// Test entry `i`'s key; every entry stores the same evaluation.
    fn key(i: u64) -> CacheKey {
        CacheKey {
            arch: i,
            model: 1,
            strategy: Strategy::GenericMapping,
            search: SearchMode::Sequential,
            traffic: 0,
        }
    }

    /// The test entries `cache` holds, and only those.
    fn held(cache: &EvalCache) -> Vec<u64> {
        let held: Vec<u64> = (0..10).filter(|&i| cache.peek(&key(i)).is_some()).collect();
        assert_eq!(held.len(), cache.len(), "the cache holds only test entries");
        held
    }

    fn evaluation() -> Evaluation {
        let model = models::mobilenet_v2(32);
        let arch = ArchConfig::paper_default();
        evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
            .unwrap()
    }

    #[test]
    fn a_cut_log_loads_its_whole_lines_and_appends_after_them() {
        let evaluation = evaluation();
        let path = scratch("whole.jsonl");
        let log = Log::open(&path, |_, _| {}).unwrap();
        let failure =
            Record { key: Some(key(9)), error: Some("boom".to_owned()), ..Record::default() };
        let records = [
            Record::entry(key(0), evaluation.clone()),
            Record::entry(key(1), evaluation.clone()),
            failure,
            Record::entry(key(2), evaluation.clone()),
        ];
        for record in &records {
            log.append(record).unwrap();
        }
        drop(log);
        let whole = fs::read(&path).unwrap();
        // Each line's start, the index of its newline, and the entry a
        // load keeps once the whole line is in.
        let mut lines = Vec::new();
        let mut start = 0;
        let entries = [None, Some(0), Some(1), None, Some(2)];
        for (line, entry) in whole.split_inclusive(|&byte| byte == b'\n').zip(entries) {
            lines.push((start, start + line.len() - 1, entry));
            start += line.len();
        }
        assert_eq!((lines.len(), start), (5, whole.len()), "a stamp line and four records");

        let mut cuts: Vec<usize> = (0..=lines[0].1 + 1).collect();
        for &(s, e, _) in &lines[1..] {
            cuts.extend([s + 1, (s + e) / 2, e, e + 1]);
        }
        let cut = scratch("cut.jsonl");
        for len in cuts {
            let mut expected: Vec<u64> = lines
                .iter()
                .filter(|(_, e, _)| *e < len)
                .filter_map(|(_, _, entry)| *entry)
                .collect();
            fs::write(&cut, &whole[..len]).unwrap();
            let cache = EvalCache::load(&cut).unwrap();
            assert_eq!(held(&cache), expected, "cut to {len} bytes");
            cache.insert(key(3), evaluation.clone());
            drop(cache);
            expected.push(3);
            assert_eq!(held(&EvalCache::load(&cut).unwrap()), expected, "{len} bytes + 1 entry");
        }
        fs::remove_file(&path).ok();
        fs::remove_file(&cut).ok();
    }

    #[test]
    fn a_cache_log_compacts_and_resumes_like_a_journal() {
        let path = scratch("cache.jsonl");
        let cache = EvalCache::load(&path).unwrap();
        cache.insert(key(0), evaluation());
        cache.insert(key(0), evaluation());
        drop(cache);
        let stats = SweepJournal::compact(&path).unwrap();
        assert_eq!(stats, CompactionStats { kept: 1, superseded: 0, failures: 0 });
        assert!(SweepJournal::open(&path).unwrap().lookup(&key(0)).is_some());
        assert_eq!(held(&EvalCache::load(&path).unwrap()), [0]);
        fs::remove_file(&path).ok();
    }
}
