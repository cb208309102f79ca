//! Adaptive Pareto-guided exploration with the `cimflow-dse` engine:
//! the same multi-axis space is swept exhaustively and then *explored*
//! under a quarter of the budget with both algorithms (successive
//! halving and evolutionary search), comparing the discovered per-model
//! (cycles, energy) frontiers by hypervolume — and demonstrating
//! journal-backed resumption replaying a trajectory for free.
//!
//! Run with `cargo run --release --example explore`.

use std::sync::Arc;

use cimflow::Strategy;
use cimflow_dse::{
    analysis, explore, EvalCache, EvalService, ExploreAlgorithm, ExploreSpec, ServiceConfig,
    SweepJournal, SweepSpec,
};

fn main() -> Result<(), cimflow_dse::DseError> {
    let space = SweepSpec::new()
        .named("explore example")
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[2, 4, 8, 16])
        .with_flit_sizes(&[8, 16]);
    let grid_points = space.point_count();
    println!("space: {grid_points} grid points over 2 models x 2 strategies x 4 MG x 2 flit");

    // The exhaustive baseline the exploration is judged against.
    let cache = EvalCache::new();
    let started = std::time::Instant::now();
    let grid =
        EvalService::with_cache(ServiceConfig::new(), cache.clone()).submit_sweep(&space)?.wait();
    println!("exhaustive grid: {} evaluations in {:.2?}", grid.len(), started.elapsed());

    // One reference point per model, weakly worse than every grid point,
    // shared by every hypervolume comparison below.
    let references = analysis::reference_points(&grid, 1.01);
    let grid_volume = analysis::hypervolume_by_model(&grid, &references);

    // Explore the same space at a quarter of the budget with both
    // algorithms. The service shares the grid's cache, so this example
    // costs no re-evaluation — budget accounting is unaffected.
    let budget = (grid_points as u64) / 4;
    for algorithm in [ExploreAlgorithm::SuccessiveHalving, ExploreAlgorithm::Evolutionary] {
        let spec = ExploreSpec::new(space.clone())
            .with_budget(budget)
            .with_algorithm(algorithm)
            .with_seed(17);
        let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
        let report = explore(&spec, &service, None)?;
        assert!(report.budget_used <= budget, "the budget is a hard cap");

        let volume = analysis::hypervolume_by_model(&report.outcomes, &references);
        println!(
            "\n{algorithm}: {} of {} budget used ({} full-fidelity, {} coarse), {} generation(s)",
            report.budget_used,
            report.budget,
            report.evaluated,
            report.coarse_evaluated,
            report.generations.len()
        );
        for (model, &grid_hv) in &grid_volume {
            let ratio = if grid_hv > 0.0 { volume[model] / grid_hv } else { 1.0 };
            println!(
                "  {model:<16} frontier hypervolume {:>6.1}% of the exhaustive grid's \
                 ({} frontier point(s))",
                ratio * 100.0,
                report.frontier.get(model).map_or(0, Vec::len)
            );
        }
    }

    // Full-budget exploration recovers the exact grid frontier.
    let spec = ExploreSpec::new(space.clone()).with_budget(grid_points as u64).with_seed(17);
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let full = explore(&spec, &service, None)?;
    assert_eq!(full.evaluated, grid_points, "full budget exhausts the space");
    let full_volume = analysis::hypervolume_by_model(&full.outcomes, &references);
    for (model, &grid_hv) in &grid_volume {
        assert!(
            (full_volume[model] - grid_hv).abs() < 1e-9,
            "{model}: full-budget exploration must match the grid frontier"
        );
    }
    println!("\nfull budget ({grid_points}): frontier identical to the exhaustive grid");

    // Journal-backed resumption: the same spec and seed replay their
    // trajectory with every point served from the journal.
    let journal_path = std::env::temp_dir().join("cimflow-explore-example.jsonl");
    std::fs::remove_file(&journal_path).ok();
    let spec = ExploreSpec::new(space).with_budget(budget).with_seed(17);
    let journal = Arc::new(SweepJournal::open(&journal_path)?);
    let cold_service = EvalService::new(ServiceConfig::new());
    let cold = explore(&spec, &cold_service, Some(&journal))?;

    let journal = Arc::new(SweepJournal::open(&journal_path)?);
    let warm_service = EvalService::new(ServiceConfig::new());
    let warm = explore(&spec, &warm_service, Some(&journal))?;
    assert_eq!(
        cold.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
        warm.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
        "the trajectory is deterministic"
    );
    assert!(warm.outcomes.iter().all(|o| o.cached), "resumption re-evaluates nothing");
    assert_eq!(warm_service.cache().stats().misses, 0);
    println!(
        "resume: {} point(s) replayed from {} with zero re-evaluations",
        warm.evaluated,
        journal_path.display()
    );
    std::fs::remove_file(&journal_path).ok();
    Ok(())
}
