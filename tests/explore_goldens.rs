//! Pins what the explorer reports. Each case runs `explore` on a fresh
//! one-worker service and renders every `ExploreReport` field (budget,
//! per-rung counts, measured rank fidelities, the scouting share, each
//! generation and the per-model frontier labels) followed by the CSV
//! export of its outcomes. The concatenation must equal
//! `tests/goldens/explore.txt` byte for byte.
//!
//! The cases cover both algorithms over the shipped `sweeps/explore.json`,
//! every ladder shape successive halving schedules (the default coarse
//! rung, an analytical scout, analytical plus coarse, a pinned share and
//! an empty ladder), feasibility caps with the stopping rule, a
//! timing-only space whose promotions replay recorded traces, and solo
//! and co-located serving under the p99 objective.
//!
//! One worker keeps the claim order, and with it the `eval_path` column,
//! deterministic. The golden changes only when explore results are meant
//! to change, and then only through the ignored test at the bottom:
//!
//! ```text
//! cargo test --test explore_goldens -- --ignored
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cimflow::Strategy;
use cimflow_dse::analysis::Objective;
use cimflow_dse::{
    explore, export, EvalService, ExploreAlgorithm, ExploreReport, ExploreSpec, FeasibilityCaps,
    Fidelity, FidelityLadder, ServiceConfig, SweepSpec, TrafficSpec,
};

const HALVING: ExploreAlgorithm = ExploreAlgorithm::SuccessiveHalving;
const EVOLUTIONARY: ExploreAlgorithm = ExploreAlgorithm::Evolutionary;

fn workspace_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn golden_path() -> PathBuf {
    workspace_path("tests/goldens/explore.txt")
}

fn ladder(rungs: &[Fidelity]) -> FidelityLadder {
    FidelityLadder::new(rungs.to_vec()).expect("a valid ladder")
}

/// The shipped explore spec.
fn shipped() -> ExploreSpec {
    let path = workspace_path("sweeps/explore.json");
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ExploreSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// 24 points over three model variants, both strategies, two MG sizes
/// and two flit sizes.
fn mixed_space() -> SweepSpec {
    SweepSpec::new()
        .named("explore-golden-mixed")
        .with_model("mobilenetv2", 48)
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8])
        .with_flit_sizes(&[8, 16])
}

/// A space whose clock and memory-port axes are timing-only, so points
/// sharing a compile replay one recorded trace.
fn timing_space() -> SweepSpec {
    SweepSpec::new()
        .named("explore-golden-timing")
        .with_model("mobilenetv2", 32)
        .with_strategies(&[Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8])
        .with_frequencies_mhz(&[500, 1000])
        .with_memory_ports(&[0, 27])
}

/// Two models served at two offered rates, alone or co-located.
fn serving_space(colocate: bool) -> SweepSpec {
    let traffic = TrafficSpec::new(&[200, 800]);
    SweepSpec::new()
        .named("explore-golden-serving")
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 8])
        .with_memory_ports(&[0, 27])
        .with_traffic(if colocate { traffic.colocated() } else { traffic })
}

/// Every case, by name.
fn cases() -> Vec<(String, ExploreSpec)> {
    let mut cases = Vec::new();
    for algorithm in [HALVING, EVOLUTIONARY] {
        let spec = shipped().with_algorithm(algorithm);
        cases.push((format!("explore.json {algorithm}"), spec.clone()));
        let analytical = spec.with_ladder(ladder(&[Fidelity::Analytical]));
        cases.push((format!("explore.json {algorithm} [analytical]"), analytical));
    }

    let mixed = ExploreSpec::new(mixed_space()).with_budget(12).with_seed(3);
    let halving = mixed.clone().with_algorithm(HALVING);
    cases.push(("mixed halving".to_owned(), halving.clone()));
    let two_rungs = ladder(&[Fidelity::Analytical, Fidelity::CoarseSim(32)]);
    cases.push((
        "mixed halving [analytical, coarse32]".to_owned(),
        halving.clone().with_ladder(two_rungs),
    ));
    cases.push((
        "mixed halving scout_share 0.5".to_owned(),
        halving.clone().with_scout_share(Some(0.5)),
    ));
    cases.push(("mixed halving []".to_owned(), halving.with_ladder(ladder(&[]))));
    let evolutionary = mixed.with_algorithm(EVOLUTIONARY);
    cases.push(("mixed evolutionary".to_owned(), evolutionary.clone()));
    let caps = FeasibilityCaps { max_area_mm2: Some(60.0), max_power_w: None };
    cases.push((
        "mixed evolutionary max_area_mm2 60 stall 1".to_owned(),
        evolutionary.with_caps(caps).with_stall_generations(Some(1)),
    ));

    for algorithm in [HALVING, EVOLUTIONARY] {
        let spec =
            ExploreSpec::new(timing_space()).with_budget(8).with_seed(9).with_algorithm(algorithm);
        cases.push((format!("timing {algorithm}"), spec));
    }

    for colocate in [false, true] {
        for algorithm in [HALVING, EVOLUTIONARY] {
            let spec = ExploreSpec::new(serving_space(colocate))
                .with_budget(8)
                .with_seed(5)
                .with_algorithm(algorithm)
                .with_objective(Objective::P99Latency);
            let mode = if colocate { "colocated" } else { "solo" };
            cases.push((format!("serving {mode} {algorithm} p99"), spec));
        }
    }
    cases
}

fn render_report(out: &mut String, report: &ExploreReport) {
    let _ = writeln!(out, "algorithm: {}", report.algorithm);
    let _ = writeln!(out, "seed: {}", report.seed);
    let _ = writeln!(out, "space points: {}", report.space_points);
    let _ = writeln!(out, "budget: {}", report.budget);
    let _ = writeln!(out, "budget used: {}", report.budget_used);
    let _ = writeln!(out, "evaluated: {}", report.evaluated);
    let _ = writeln!(out, "coarse: {}", report.coarse_evaluated);
    let _ = writeln!(out, "scout_share: {:?}", report.scout_share);
    let _ = writeln!(out, "stalled: {}", report.stalled);
    for (rung, count) in &report.rung_evaluated {
        let _ = writeln!(out, "rung {rung}: {count}");
    }
    for (key, tau) in &report.rank_fidelity {
        let _ = writeln!(out, "rank fidelity {key}: {tau:?}");
    }
    for stats in &report.generations {
        let rungs: Vec<String> =
            stats.rungs.iter().map(|(rung, count)| format!("{rung}={count}")).collect();
        let _ = writeln!(
            out,
            "generation {} {}: submitted {}, coarse {}, frontier {}, rungs [{}]",
            stats.index,
            stats.phase,
            stats.submitted,
            stats.coarse,
            stats.frontier_points,
            rungs.join(", ")
        );
    }
    for (model, indices) in &report.frontier {
        let labels: Vec<String> =
            indices.iter().map(|&at| report.outcomes[at].point.label()).collect();
        let _ = writeln!(out, "frontier {model}: {}", labels.join(" | "));
    }
    out.push_str(&export::to_csv(&report.outcomes));
}

/// Every case's rendering, in case order.
fn render_all() -> String {
    let mut out = String::new();
    for (name, spec) in cases() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let report = explore(&spec, &service, None)
            .unwrap_or_else(|e| panic!("case `{name}` failed to explore: {e}"));
        let _ = writeln!(out, "== {name}");
        render_report(&mut out, &report);
        out.push('\n');
    }
    out
}

#[test]
fn explore_reports_match_the_golden_file() {
    let path = golden_path();
    let golden =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = render_all();
    if golden != actual {
        let line = golden.lines().zip(actual.lines()).position(|(g, a)| g != a);
        panic!(
            "explore reports differ from {} (first differing line: {:?}):\n{actual}",
            path.display(),
            line.map(|l| l + 1)
        );
    }
}

#[test]
#[ignore = "rewrites the committed golden; run only for an intended change to explore results"]
fn regenerate_explore_golden() {
    fs::create_dir_all(workspace_path("tests/goldens")).expect("create the goldens directory");
    fs::write(golden_path(), render_all()).expect("write the explore golden");
}
