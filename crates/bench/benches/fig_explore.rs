//! Adaptive exploration vs the exhaustive grid — the experiment behind
//! the `cimflow-dse explore` engine: on the multi-chip design space
//! (models × chip counts × MG sizes × flit sizes), the Pareto-guided
//! explorers must recover ≥ 90% of the exhaustive grid's per-model
//! (cycles, energy) frontier hypervolume while submitting ≤ 25% of the
//! grid's evaluations — deterministically, from a fixed seed.
//!
//! The bench prints the per-generation points-evaluated-vs-frontier-
//! quality trajectory for both algorithms, plus the per-model end-state
//! ratio against the grid. The exhaustive baseline shares the on-disk
//! evaluation cache with the other figure harnesses. Wall-clock times
//! and cache state go to stderr, so stdout is deterministic; CI diffs it
//! against `crates/bench/goldens/fig_explore.txt`.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_explore`.

use std::collections::BTreeMap;

use cimflow::Strategy;
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{
    analysis, explore, EvalCache, EvalService, ExploreAlgorithm, ExploreSpec, ServiceConfig,
    SweepSpec,
};

/// The fixed seed of the headline run (the trajectory is fully
/// deterministic given the spec, so these numbers are reproducible).
const SEED: u64 = 20;

fn mean_ratio(volumes: &BTreeMap<String, f64>, baseline: &BTreeMap<String, f64>) -> f64 {
    let ratios: Vec<f64> = baseline
        .iter()
        .map(|(model, &grid)| if grid > 0.0 { volumes[model] / grid } else { 1.0 })
        .collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

fn main() {
    let resolution = resolution();
    let space = SweepSpec::new()
        .named("fig_explore")
        .with_model("vgg19", resolution)
        .with_model("resnet18", resolution)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[1, 2, 4, 8])
        .with_mg_sizes(&[2, 4, 8])
        .with_flit_sizes(&[8, 16, 32]);
    let grid_points = space.point_count();
    let budget = (grid_points / 4) as u64;

    println!("=== Adaptive exploration vs the exhaustive grid (resolution {resolution}) ===");
    println!(
        "space: {grid_points} points (2 models x 4 chip counts x 3 MG x 3 flit); \
         budget {budget} (25%), seed {SEED}"
    );

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let started = std::time::Instant::now();
    let grid = EvalService::with_cache(ServiceConfig::new(), cache.clone())
        .submit_sweep(&space)
        .expect("fig_explore space is valid")
        .wait();
    eprintln!(
        "exhaustive grid: {} evaluations in {:.2?} ({} cache hit(s))",
        grid.len(),
        started.elapsed(),
        cache.stats().hits
    );

    // One reference point per model — weakly worse than every grid
    // point — shared by all hypervolume comparisons.
    let references = analysis::reference_points(&grid, 1.01);
    let grid_volume = analysis::hypervolume_by_model(&grid, &references);

    for algorithm in [ExploreAlgorithm::Evolutionary, ExploreAlgorithm::SuccessiveHalving] {
        let spec = ExploreSpec::new(space.clone())
            .with_budget(budget)
            .with_algorithm(algorithm)
            .with_seed(SEED);
        let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
        let started = std::time::Instant::now();
        let report = explore(&spec, &service, None).expect("exploration runs");
        let elapsed = started.elapsed();

        println!("\n--- {algorithm} ---");
        println!(
            "{} of {} budget used: {} full-fidelity point(s), {} coarse",
            report.budget_used, report.budget, report.evaluated, report.coarse_evaluated
        );
        eprintln!(
            "{algorithm}: {} of {} budget used in {elapsed:.2?}",
            report.budget_used, report.budget
        );
        // Points-evaluated vs frontier-quality trajectory: hypervolume
        // ratio of the outcome prefix recorded after each generation.
        println!("{:>6} {:>12} {:>10} {:>14}", "gen", "evals", "frontier", "hv vs grid");
        let mut prefix = 0;
        let mut evals = 0;
        for generation in &report.generations {
            prefix += generation.submitted - generation.coarse;
            evals += generation.submitted;
            let volumes = analysis::hypervolume_by_model(&report.outcomes[..prefix], &references);
            println!(
                "{:>6} {:>12} {:>10} {:>13.1}%",
                generation.index,
                evals,
                generation.frontier_points,
                100.0 * mean_ratio(&volumes, &grid_volume)
            );
        }

        let volumes = analysis::hypervolume_by_model(&report.outcomes, &references);
        let mut worst = f64::INFINITY;
        for (model, &grid_hv) in &grid_volume {
            let ratio = if grid_hv > 0.0 { volumes[model] / grid_hv } else { 1.0 };
            worst = worst.min(ratio);
            println!(
                "{model:>16}: {:>5.1}% of the grid frontier hypervolume, \
                 {} frontier point(s) vs {}",
                ratio * 100.0,
                report.frontier.get(model).map_or(0, Vec::len),
                analysis::pareto_frontier_by_model(&grid)[model].len()
            );
        }

        // The acceptance bar — >= 90% of the exhaustive frontier at
        // <= 25% of its evaluations, per model, from the fixed seed —
        // is carried by the evolutionary search. Successive halving
        // pays for its coarse scouting in budget and inherits the
        // fidelity proxy's noise (e.g. resnet18's best MG size flips
        // between 32 px and 64 px), so it is held to a sanity floor and
        // reported as the multi-fidelity comparison.
        assert!(
            report.budget_used * 4 <= grid_points as u64,
            "{algorithm}: budget {} must stay within 25% of the {grid_points}-point grid",
            report.budget_used
        );
        let floor = match algorithm {
            ExploreAlgorithm::Evolutionary => 0.90,
            ExploreAlgorithm::SuccessiveHalving => 0.50,
        };
        assert!(
            worst >= floor,
            "{algorithm}: per-model frontier hypervolume fell to {:.1}% of the grid's \
             (floor {:.0}%)",
            worst * 100.0,
            floor * 100.0
        );
    }

    eprintln!("cache: {} entries -> {}", cache.len(), cache_path.display());
}
