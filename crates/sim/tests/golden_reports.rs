//! The committed golden corpus of [`SimReport`]s: the simulator's
//! correctness oracle.
//!
//! Every case compiles a seed model at 32 px and checks three reports
//! against `tests/goldens/<case>.json`, every field exactly and floats by
//! `to_bits`:
//!
//! * a plain [`Simulator::run`] of the case's own compile;
//! * the report [`Simulator::record`] returns (default options only);
//! * a [`ReplayEngine`] re-timing, for the case's point and options, of a
//!   trace recorded at the unretimed base configuration.
//!
//! The corpus changes only when simulated behaviour is meant to change,
//! and then only through the ignored test at the bottom:
//!
//! ```text
//! cargo test -p cimflow-sim --test golden_reports -- --ignored
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile, Strategy};
use cimflow_nn::{models, Model};
use cimflow_sim::{HandoffMode, ReplayEngine, SimOptions, SimReport, Simulator};
use serde_json::Value;

/// One golden case: a model compiled for `arch` and simulated under
/// `options`. `base` is the same system without its timing-only
/// retiming — the configuration replay records at.
struct Case {
    name: String,
    model: Model,
    strategy: Strategy,
    arch: ArchConfig,
    base: ArchConfig,
    options: SimOptions,
}

fn handoff_name(handoff: HandoffMode) -> &'static str {
    match handoff {
        HandoffMode::AtRetirement => "retirement",
        HandoffMode::TileStreaming => "streaming",
    }
}

/// The corpus: every seed model on 1, 2 and 4 chips under both hand-off
/// modes with the DP mapping; every seed model under the generic mapping
/// on one chip; and mobilenetv2 and resnet18 re-timed to memory port 27
/// and to 500 MHz on 1 and 2 chips.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let default = SimOptions::default();
    for model in models::benchmark_suite(32) {
        for chips in [1u32, 2, 4] {
            let arch = ArchConfig::paper_default().with_chip_count(chips);
            for handoff in [HandoffMode::AtRetirement, HandoffMode::TileStreaming] {
                cases.push(Case {
                    name: format!("{}-dp-{chips}chip-{}", model.name, handoff_name(handoff)),
                    model: model.clone(),
                    strategy: Strategy::DpOptimized,
                    arch,
                    base: arch,
                    options: SimOptions { handoff, ..default },
                });
            }
        }
        let arch = ArchConfig::paper_default();
        cases.push(Case {
            name: format!("{}-generic-1chip-{}", model.name, handoff_name(default.handoff)),
            model: model.clone(),
            strategy: Strategy::GenericMapping,
            arch,
            base: arch,
            options: default,
        });
    }
    for model in [models::mobilenet_v2(32), models::resnet18(32)] {
        for chips in [1u32, 2] {
            let base = ArchConfig::paper_default().with_chip_count(chips);
            for (retiming, arch) in
                [("port27", base.with_memory_port(27)), ("500mhz", base.with_frequency_mhz(500))]
            {
                cases.push(Case {
                    name: format!(
                        "{}-dp-{chips}chip-{}-{retiming}",
                        model.name,
                        handoff_name(default.handoff)
                    ),
                    model: model.clone(),
                    strategy: Strategy::DpOptimized,
                    arch,
                    base,
                    options: default,
                });
            }
        }
    }
    cases
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

fn golden_path(case: &Case) -> PathBuf {
    goldens_dir().join(format!("{}.json", case.name))
}

/// A plain run of the case's own compile.
fn run(case: &Case) -> SimReport {
    let compiled = compile(&case.model, &case.arch, case.strategy)
        .unwrap_or_else(|e| panic!("{} compiles: {e}", case.name));
    Simulator::with_options(&compiled, case.options)
        .run()
        .unwrap_or_else(|e| panic!("{} simulates: {e}", case.name))
}

/// Collects every difference between two serialized reports, naming the
/// field path; floats must match bit for bit.
fn diff(expected: &Value, actual: &Value, path: &str, out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::F64(e), Value::F64(a)) => {
            if e.to_bits() != a.to_bits() {
                out.push(format!(
                    "{path}: golden {e:e} ({:#018x}), got {a:e} ({:#018x})",
                    e.to_bits(),
                    a.to_bits()
                ));
            }
        }
        (Value::Seq(e), Value::Seq(a)) => {
            if e.len() != a.len() {
                out.push(format!("{path}: golden has {} entries, got {}", e.len(), a.len()));
                return;
            }
            for (i, (e, a)) in e.iter().zip(a).enumerate() {
                diff(e, a, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Map(e), Value::Map(a)) => {
            let keys = |m: &[(String, Value)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(e) != keys(a) {
                out.push(format!("{path}: golden keys {:?}, got {:?}", keys(e), keys(a)));
                return;
            }
            for ((key, e), (_, a)) in e.iter().zip(a) {
                diff(e, a, &format!("{path}.{key}"), out);
            }
        }
        (e, a) => {
            if e != a {
                out.push(format!("{path}: golden {e:?}, got {a:?}"));
            }
        }
    }
}

fn assert_golden(case: &Case, source: &str, actual: &SimReport) {
    let path = golden_path(case);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", case.name, path.display()));
    let golden: SimReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{}: {} is not a report: {e}", case.name, path.display()));
    let mut problems = Vec::new();
    diff(&serde_json::to_value(&golden), &serde_json::to_value(actual), "report", &mut problems);
    assert!(
        problems.is_empty(),
        "{} ({source}) differs from its golden report:\n  {}",
        case.name,
        problems.join("\n  ")
    );
}

#[test]
fn every_case_matches_its_golden_report() {
    for case in cases() {
        assert_golden(&case, "run", &run(&case));

        let base = compile(&case.model, &case.base, case.strategy)
            .unwrap_or_else(|e| panic!("{} compiles at its base: {e}", case.name));
        let (trace, recorded) =
            Simulator::record(&base).unwrap_or_else(|e| panic!("{} records: {e}", case.name));
        if case.arch == case.base && case.options == SimOptions::default() {
            assert_golden(&case, "record", &recorded);
        }
        let replayed = ReplayEngine::new(&trace)
            .replay(&case.arch, case.options)
            .unwrap_or_else(|e| panic!("{} replays: {e}", case.name));
        assert_golden(&case, "replay", &replayed);
    }
}

#[test]
fn the_corpus_holds_exactly_the_cases() {
    let expected: BTreeSet<String> = cases().iter().map(|c| format!("{}.json", c.name)).collect();
    let found: BTreeSet<String> = fs::read_dir(goldens_dir())
        .expect("the goldens directory exists")
        .map(|entry| entry.expect("readable entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(found, expected, "stray or missing golden files");
}

#[test]
#[ignore = "rewrites the committed corpus; run only for an intended change to simulated results"]
fn regenerate_golden_reports() {
    let dir = goldens_dir();
    fs::create_dir_all(&dir).expect("create the goldens directory");
    for entry in fs::read_dir(&dir).expect("list the goldens directory") {
        fs::remove_file(entry.expect("readable entry").path()).expect("clear a stale golden");
    }
    for case in cases() {
        let mut text = serde_json::to_string_pretty(&run(&case)).expect("reports serialize");
        text.push('\n');
        fs::write(golden_path(&case), text).expect("write a golden report");
    }
}
