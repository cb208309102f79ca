//! Cross-crate acceptance tests of the adaptive Pareto-guided
//! exploration engine: full-budget equivalence with the exhaustive grid
//! frontier (including as a property over randomized small spaces), and
//! journal-backed resumption submitting no duplicate evaluations.

use std::collections::BTreeMap;
use std::sync::Arc;

use cimflow::Strategy;
use cimflow_dse::{
    analysis, explore, EvalCache, EvalService, ExploreAlgorithm, ExploreSpec, ServiceConfig,
    SweepJournal, SweepSpec,
};

/// Per-model frontier objective sets of a batch of outcomes.
fn frontier_objectives(outcomes: &[cimflow_dse::DseOutcome]) -> BTreeMap<String, Vec<(u64, f64)>> {
    analysis::pareto_frontier_by_model(outcomes)
        .into_iter()
        .map(|(model, frontier)| {
            let objectives = frontier
                .into_iter()
                .filter_map(|index| outcomes[index].evaluation())
                .map(|e| (e.simulation.total_cycles, e.simulation.energy_mj()))
                .collect();
            (model, objectives)
        })
        .collect()
}

fn small_space() -> SweepSpec {
    SweepSpec::new()
        .named("explore-acceptance")
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 8])
        .with_flit_sizes(&[8, 16])
}

/// With the full grid as budget, both algorithms must exhaust the space
/// and therefore reproduce the exhaustive grid frontier exactly. (At
/// 32 px with the default search mode every point is its own coarse
/// projection, so successive halving pays one evaluation per point.)
#[test]
fn full_budget_exploration_equals_the_exhaustive_grid_frontier() {
    let space = small_space();
    let cache = EvalCache::new();
    let grid = EvalService::with_cache(ServiceConfig::new(), cache.clone())
        .submit_sweep(&space)
        .unwrap()
        .wait();
    let expected = frontier_objectives(&grid);

    for algorithm in [ExploreAlgorithm::SuccessiveHalving, ExploreAlgorithm::Evolutionary] {
        let spec = ExploreSpec::new(space.clone())
            .with_budget(space.point_count() as u64)
            .with_algorithm(algorithm)
            .with_seed(42);
        let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
        let report = explore(&spec, &service, None).unwrap();
        assert_eq!(report.evaluated, space.point_count(), "{algorithm} exhausts the space");
        assert_eq!(
            frontier_objectives(&report.outcomes),
            expected,
            "{algorithm} with full budget must find the exact grid frontier"
        );
    }
}

/// The same equivalence as a property over randomized spaces, axis
/// subsets, algorithms and seeds (the vendored proptest stub runs a
/// deterministic fixed-seed generator).
mod properties {
    // `super::*` would glob-import `cimflow::Strategy` alongside the
    // proptest prelude's `Strategy` trait: name the test deps instead.
    use super::frontier_objectives;
    use cimflow_dse::{
        explore, EvalCache, EvalService, ExploreAlgorithm, ExploreSpec, ServiceConfig, SweepSpec,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn full_budget_matches_grid_frontier(
            mg_axis in 1usize..4,
            flit_axis in 1usize..3,
            halving in any::<bool>(),
            seed in 0u64..1024,
        ) {
            let mg_values = [4u32, 8, 16];
            let flit_values = [8u32, 16];
            let space = SweepSpec::new()
                .with_model("mobilenetv2", 32)
                .with_strategies(&[cimflow::Strategy::GenericMapping])
                .with_mg_sizes(&mg_values[..mg_axis])
                .with_flit_sizes(&flit_values[..flit_axis]);
            let cache = EvalCache::new();
            let grid = EvalService::with_cache(ServiceConfig::new(), cache.clone())
                .submit_sweep(&space)
                .unwrap()
                .wait();
            let algorithm = if halving {
                ExploreAlgorithm::SuccessiveHalving
            } else {
                ExploreAlgorithm::Evolutionary
            };
            let spec = ExploreSpec::new(space.clone())
                .with_budget(space.point_count() as u64)
                .with_algorithm(algorithm)
                .with_seed(seed);
            let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
            let report = explore(&spec, &service, None).unwrap();
            prop_assert_eq!(report.evaluated, space.point_count());
            prop_assert_eq!(
                frontier_objectives(&report.outcomes),
                frontier_objectives(&grid)
            );
        }
    }
}

/// Regression for the resnet18 MG-axis misranking (EXPERIMENTS.md,
/// "Coarse-fidelity fidelity"): at 32 px the coarse proxy inverts part
/// of the macro-group ordering that full 64 px simulation reports. The
/// calibrated ladder must *measure* that low rank fidelity on the
/// (resnet18, coarse32) pair and shift the scouting share away from the
/// historical half — where fixed-split successive halving keeps the
/// half-budget cap no matter what the proxy misranks.
#[test]
fn calibrated_ladder_detects_the_resnet18_mg_misranking() {
    let space = SweepSpec::new()
        .named("resnet18-mg-regression")
        .with_model("resnet18", 64)
        .with_strategies(&[Strategy::DpOptimized])
        .with_mg_sizes(&[2, 4, 8, 16]);
    let spec = ExploreSpec::new(space)
        .with_budget(8)
        .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
        .with_seed(20);
    let service = EvalService::new(ServiceConfig::new());
    let report = explore(&spec, &service, None).unwrap();

    // Every MG point is scouted at 32 px and graduated at 64 px, so the
    // calibration has the full axis to rank.
    assert_eq!(report.evaluated, 4, "all four MG points graduate");
    let tau = report.rank_fidelity.get("resnet18/coarse32").copied().unwrap_or_else(|| {
        panic!("calibration must cover (resnet18, coarse32): {:?}", report.rank_fidelity)
    });
    assert!(
        tau < 1.0,
        "the 32 px proxy misranks the MG axis on resnet18, so measured rank fidelity \
         must be below perfect; got tau = {tau}"
    );
    assert!(
        (report.scout_share - 0.5).abs() > 1e-9,
        "the calibrated ladder shifts the budget split off the historical half \
         (tau = {tau}, share = {})",
        report.scout_share
    );

    // The fixed split measures the same misranking but is forbidden
    // from acting on it.
    let pinned = explore(&spec.clone().with_scout_share(Some(0.5)), &service, None).unwrap();
    assert_eq!(pinned.rank_fidelity.get("resnet18/coarse32"), Some(&tau));
    assert_eq!(pinned.scout_share, 0.5, "fixed-split SH never moves its budget split");
}

/// Resuming an exploration from its journal replays the identical
/// trajectory with zero duplicate evaluations: every point is served
/// from the journal (born terminal), the shared cache records no miss,
/// and the journal does not grow.
#[test]
fn journal_resumption_submits_no_duplicate_evaluations() {
    let dir = std::env::temp_dir().join("cimflow-explore-acceptance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.jsonl");
    std::fs::remove_file(&path).ok();

    let spec = ExploreSpec::new(small_space())
        .with_budget(6)
        .with_algorithm(ExploreAlgorithm::Evolutionary)
        .with_seed(7);

    let journal = Arc::new(SweepJournal::open(&path).unwrap());
    let service = EvalService::new(ServiceConfig::new());
    let cold = explore(&spec, &service, Some(&journal)).unwrap();
    assert!(cold.outcomes.iter().all(|o| !o.cached), "the cold run evaluates everything");
    let journaled = journal.len();
    assert_eq!(journaled, cold.evaluated);
    drop(service);

    // Fresh service, fresh (cold) cache: only the journal carries state.
    let journal = Arc::new(SweepJournal::open(&path).unwrap());
    let service = EvalService::new(ServiceConfig::new());
    let warm = explore(&spec, &service, Some(&journal)).unwrap();
    assert_eq!(
        cold.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
        warm.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
        "same spec + seed = same trajectory"
    );
    assert!(warm.outcomes.iter().all(|o| o.cached), "every point resumes from the journal");
    assert_eq!(service.cache().stats().misses, 0, "no duplicate evaluation was submitted");
    assert_eq!(journal.len(), journaled, "the journal did not grow on resume");
    assert_eq!(warm.budget_used, cold.budget_used, "the replayed trajectory is charged alike");

    // An *interrupted* run resumes and finishes the remainder: the same
    // spec with the full 8-point space as budget replays the journaled
    // prefix for free and pays only for the new points.
    let space_points = small_space().point_count() as u64;
    let journal = Arc::new(SweepJournal::open(&path).unwrap());
    let service = EvalService::new(ServiceConfig::new());
    let wider = explore(&spec.clone().with_budget(space_points), &service, Some(&journal)).unwrap();
    assert_eq!(wider.evaluated as u64, space_points);
    let replayed = wider.outcomes.iter().filter(|o| o.cached).count();
    assert_eq!(replayed, cold.evaluated, "the prefix replays from the journal");
    assert_eq!(
        service.cache().stats().misses,
        space_points - cold.evaluated as u64,
        "only the continuation evaluates"
    );
    std::fs::remove_file(&path).ok();
}
