//! Pins the DSE exports of every shipped sweep. A one-worker service runs
//! each `SweepSpec` under `sweeps/`, and its CSV and JSON exports must
//! equal the committed files under `tests/goldens/` byte for byte: every
//! cycle count, energy, serving column, Pareto flag, error text, `cached`
//! flag and `eval_path` provenance.
//!
//! One worker makes the claim order, and with it the `eval_path` column,
//! deterministic: with several workers, which point of a trace group
//! records first depends on interleaving. (`sweeps/explore.json` is an
//! `ExploreSpec`, not a sweep, and is not pinned here.)
//!
//! The goldens change only when exported results are meant to change,
//! and then only through the ignored test at the bottom:
//!
//! ```text
//! cargo test --test sweep_exports -- --ignored
//! ```

use std::fs;
use std::path::PathBuf;

use cimflow_dse::{export, EvalService, ServiceConfig, SweepSpec};

fn workspace_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// The CSV and JSON exports of `sweeps/<name>.json` on a fresh
/// one-worker service.
fn exports(name: &str) -> (String, String) {
    let path = workspace_path(&format!("sweeps/{name}.json"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spec = SweepSpec::from_json(&text)
        .unwrap_or_else(|e| panic!("{} is not a sweep: {e}", path.display()));
    let service = EvalService::new(ServiceConfig::new().with_workers(1));
    let outcomes = service.submit_sweep(&spec).expect("a shipped sweep is admitted").wait();
    (export::to_csv(&outcomes), export::to_json(&outcomes))
}

fn golden_path(name: &str, extension: &str) -> PathBuf {
    workspace_path(&format!("tests/goldens/{name}.{extension}"))
}

fn assert_exports_match(name: &str) {
    let (csv, json) = exports(name);
    for (extension, actual) in [("csv", csv), ("json", json)] {
        let path = golden_path(name, extension);
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if golden != actual {
            let line = golden.lines().zip(actual.lines()).position(|(g, a)| g != a);
            panic!(
                "{name}.{extension} differs from {} (first differing line: {:?}):\n{actual}",
                path.display(),
                line.map(|l| l + 1)
            );
        }
    }
}

const SWEEPS: [&str; 5] = ["example", "multichip", "partition_search", "trace_replay", "traffic"];

#[test]
fn example_sweep_exports_match_the_goldens() {
    assert_exports_match("example");
}

#[test]
fn multichip_sweep_exports_match_the_goldens() {
    assert_exports_match("multichip");
}

#[test]
fn partition_search_sweep_exports_match_the_goldens() {
    assert_exports_match("partition_search");
}

#[test]
fn trace_replay_sweep_exports_match_the_goldens() {
    assert_exports_match("trace_replay");
}

#[test]
fn traffic_sweep_exports_match_the_goldens() {
    assert_exports_match("traffic");
}

#[test]
#[ignore = "rewrites the committed exports; run only for an intended change to sweep results"]
fn regenerate_sweep_export_goldens() {
    fs::create_dir_all(workspace_path("tests/goldens")).expect("create the goldens directory");
    for name in SWEEPS {
        let (csv, json) = exports(name);
        fs::write(golden_path(name, "csv"), csv).expect("write a CSV golden");
        fs::write(golden_path(name, "json"), json).expect("write a JSON golden");
    }
}
