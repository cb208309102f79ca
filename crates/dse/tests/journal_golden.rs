//! A committed sweep journal, written by an earlier build of the engine:
//! two points of mobilenetv2 at 32 px, generic mapping, macro-group sizes
//! 4 and 8. It must keep resuming without an evaluation, so a change to
//! the persisted journal or evaluation schema without a
//! [`CACHE_FORMAT_VERSION`](cimflow_dse::CACHE_FORMAT_VERSION) bump fails
//! here.
//!
//! `tests/goldens/journal.jsonl` changes only through the ignored test at
//! the bottom:
//!
//! ```text
//! cargo test -p cimflow-dse --test journal_golden -- --ignored
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cimflow_compiler::Strategy;
use cimflow_dse::{
    expand_jobs, BatchHandle, EvalService, ServiceConfig, Submission, SweepJournal, SweepSpec,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens").join("journal.jsonl")
}

fn spec() -> SweepSpec {
    SweepSpec::new()
        .with_model("mobilenetv2", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 8])
}

/// Submits the sweep on a fresh one-worker service with a cold cache,
/// against the journal at `path`.
fn submit(path: &Path) -> (EvalService, BatchHandle) {
    let journal = Arc::new(SweepJournal::open(path).expect("the journal opens"));
    let service = EvalService::new(ServiceConfig::new().with_workers(1));
    let jobs = expand_jobs(&spec()).expect("the spec expands");
    let submission = Submission { jobs, journal: Some(journal), ..Submission::default() };
    let batch = service.submit_batch(submission).expect("admitted");
    (service, batch)
}

#[test]
fn the_committed_journal_resumes_every_point_on_a_cold_cache() {
    // Opening a journal may rewrite it, so resume from a copy.
    let dir = std::env::temp_dir().join("cimflow-dse-journal-golden");
    fs::create_dir_all(&dir).expect("create the scratch directory");
    let path = dir.join("resume.jsonl");
    fs::copy(golden_path(), &path).expect("copy the committed journal");
    let (service, batch) = submit(&path);
    assert_eq!(batch.resumed(), 2, "both journaled points are born terminal");
    assert!(batch.wait().iter().all(|o| o.cached && o.result.is_ok()));
    assert_eq!(service.cache().stats().misses, 0, "nothing evaluates");
    fs::remove_file(&path).ok();
}

#[test]
#[ignore = "rewrites the committed journal; run only with a CACHE_FORMAT_VERSION bump"]
fn regenerate_the_journal_golden() {
    let path = golden_path();
    fs::remove_file(&path).ok();
    let (_service, batch) = submit(&path);
    assert!(batch.wait().iter().all(|o| o.result.is_ok() && !o.cached));
}
