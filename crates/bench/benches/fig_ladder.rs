//! Calibrated fidelity ladder vs fixed-split successive halving — the
//! experiment behind the `FidelityLadder` scheduler: on the fig_explore
//! design space and at the same 25% evaluation budget, successive
//! halving that *adapts* its scouting share to the measured per-model
//! rank fidelity of the coarse proxy must match or beat the historical
//! fixed half-budget split on per-model frontier hypervolume — while the
//! default evolutionary search keeps its ≥ 90% acceptance bar.
//!
//! The bench prints a `BENCH_LADDER` trajectory per arm (points
//! evaluated vs frontier-quality after each generation), the final
//! per-rung evaluation split, and the measured Kendall-tau rank
//! fidelities the adaptive arm calibrated online. The exhaustive
//! baseline shares the on-disk evaluation cache with the other figure
//! harnesses. Wall-clock times and cache state go to stderr, so stdout
//! is deterministic; CI diffs it against
//! `crates/bench/goldens/fig_ladder.txt`.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_ladder`.

use std::collections::BTreeMap;

use cimflow::Strategy;
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{
    analysis, explore, EvalCache, EvalService, ExploreAlgorithm, ExploreReport, ExploreSpec,
    ServiceConfig, SweepSpec,
};

/// The fixed seed of the headline run (every arm's trajectory is fully
/// deterministic given the spec, so these numbers are reproducible).
const SEED: u64 = 20;

/// Worst per-model hypervolume ratio of a report against the grid.
fn worst_ratio(
    report: &ExploreReport,
    grid_volume: &BTreeMap<String, f64>,
    references: &BTreeMap<String, (u64, f64)>,
) -> f64 {
    let volumes = analysis::hypervolume_by_model(&report.outcomes, references);
    let mut worst = f64::INFINITY;
    for (model, &grid_hv) in grid_volume {
        let ratio = if grid_hv > 0.0 { volumes[model] / grid_hv } else { 1.0 };
        worst = worst.min(ratio);
    }
    worst
}

fn print_arm(
    name: &str,
    report: &ExploreReport,
    grid_volume: &BTreeMap<String, f64>,
    references: &BTreeMap<String, (u64, f64)>,
) {
    println!("\n--- {name} ---");
    println!(
        "{} of {} budget used: {} full-fidelity point(s), {} coarse, scout share {:.2}{}",
        report.budget_used,
        report.budget,
        report.evaluated,
        report.coarse_evaluated,
        report.scout_share,
        if report.stalled { " (stopped early: hypervolume stalled)" } else { "" }
    );
    let split: Vec<String> =
        report.rung_evaluated.iter().map(|(rung, count)| format!("{rung}={count}")).collect();
    println!("rung split: {}", if split.is_empty() { "none".to_owned() } else { split.join(" ") });
    if !report.rank_fidelity.is_empty() {
        let taus: Vec<String> =
            report.rank_fidelity.iter().map(|(key, tau)| format!("{key}={tau:.3}")).collect();
        println!("rank fidelity: {}", taus.join(" "));
    }

    // Points-evaluated vs frontier-quality trajectory, one row per
    // generation, over the full-fidelity outcome prefix.
    println!("BENCH_LADDER {:>6} {:>8} {:>10} {:>14}", "gen", "evals", "frontier", "hv vs grid");
    let mut prefix = 0;
    let mut evals = 0;
    for generation in &report.generations {
        prefix += generation.submitted - generation.coarse;
        evals += generation.submitted;
        let volumes = analysis::hypervolume_by_model(&report.outcomes[..prefix], references);
        let ratios: Vec<f64> = grid_volume
            .iter()
            .map(|(model, &grid)| if grid > 0.0 { volumes[model] / grid } else { 1.0 })
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        println!(
            "BENCH_LADDER {:>6} {:>8} {:>10} {:>13.1}%",
            generation.index,
            evals,
            generation.frontier_points,
            100.0 * mean
        );
    }

    let volumes = analysis::hypervolume_by_model(&report.outcomes, references);
    for (model, &grid_hv) in grid_volume {
        let ratio = if grid_hv > 0.0 { volumes[model] / grid_hv } else { 1.0 };
        println!(
            "{model:>16}: {:>5.1}% of the grid frontier hypervolume, {} frontier point(s)",
            ratio * 100.0,
            report.frontier.get(model).map_or(0, Vec::len),
        );
    }
}

fn main() {
    let resolution = resolution();
    let space = SweepSpec::new()
        .named("fig_ladder")
        .with_model("vgg19", resolution)
        .with_model("resnet18", resolution)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[1, 2, 4, 8])
        .with_mg_sizes(&[2, 4, 8])
        .with_flit_sizes(&[8, 16, 32]);
    let grid_points = space.point_count();
    let budget = (grid_points / 4) as u64;

    println!("=== Calibrated fidelity ladder vs fixed-split halving (resolution {resolution}) ===");
    println!(
        "space: {grid_points} points (2 models x 4 chip counts x 3 MG x 3 flit); \
         budget {budget} (25%), seed {SEED}"
    );

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let started = std::time::Instant::now();
    let grid = EvalService::with_cache(ServiceConfig::new(), cache.clone())
        .submit_sweep(&space)
        .expect("fig_ladder space is valid")
        .wait();
    eprintln!(
        "exhaustive grid: {} evaluations in {:.2?} ({} cache hit(s))",
        grid.len(),
        started.elapsed(),
        cache.stats().hits
    );
    let references = analysis::reference_points(&grid, 1.01);
    let grid_volume = analysis::hypervolume_by_model(&grid, &references);

    // Arm 1: historical fixed-split successive halving — the scouting
    // share is pinned to the half-budget cap no matter what the coarse
    // proxy misranks.
    let fixed_spec = ExploreSpec::new(space.clone())
        .with_budget(budget)
        .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
        .with_seed(SEED)
        .with_scout_share(Some(0.5));
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let fixed = explore(&fixed_spec, &service, None).expect("fixed-split halving runs");
    print_arm(
        "fixed-split successive halving (scout share pinned at 0.50)",
        &fixed,
        &grid_volume,
        &references,
    );

    // Arm 2: the calibrated ladder — same algorithm, same budget, same
    // seed, but the scouting share follows the online Kendall-tau rank
    // fidelity measured per (model, rung).
    let ladder_spec = ExploreSpec::new(space.clone())
        .with_budget(budget)
        .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
        .with_seed(SEED);
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let ladder = explore(&ladder_spec, &service, None).expect("ladder-scheduled halving runs");
    print_arm(
        "calibrated ladder successive halving (adaptive scout share)",
        &ladder,
        &grid_volume,
        &references,
    );

    // Arm 3: the default evolutionary search, which carries the ≥ 90%
    // acceptance bar of fig_explore and must stay there under the
    // ladder refactor.
    let evo_spec = ExploreSpec::new(space.clone())
        .with_budget(budget)
        .with_algorithm(ExploreAlgorithm::Evolutionary)
        .with_seed(SEED);
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let evolutionary = explore(&evo_spec, &service, None).expect("evolutionary search runs");
    print_arm("evolutionary (default ladder)", &evolutionary, &grid_volume, &references);

    let fixed_worst = worst_ratio(&fixed, &grid_volume, &references);
    let ladder_worst = worst_ratio(&ladder, &grid_volume, &references);
    let evo_worst = worst_ratio(&evolutionary, &grid_volume, &references);
    println!(
        "\nworst per-model hv ratio: fixed-split {:.1}% | calibrated ladder {:.1}% | \
         evolutionary {:.1}%",
        fixed_worst * 100.0,
        ladder_worst * 100.0,
        evo_worst * 100.0
    );

    for (name, report) in [("fixed", &fixed), ("ladder", &ladder), ("evolutionary", &evolutionary)]
    {
        assert!(
            report.budget_used * 4 <= grid_points as u64,
            "{name}: budget {} must stay within 25% of the {grid_points}-point grid",
            report.budget_used
        );
    }

    // The gate: at equal budget, scheduling over the calibrated ladder
    // must never do worse than the historical fixed split (ties are
    // fine — on spaces where the proxy ranks perfectly both arms spend
    // identically).
    assert!(
        ladder_worst >= fixed_worst - 1e-9,
        "calibrated ladder fell below fixed-split halving: {:.1}% < {:.1}%",
        ladder_worst * 100.0,
        fixed_worst * 100.0
    );
    assert!(
        evo_worst >= 0.90,
        "evolutionary: per-model frontier hypervolume fell to {:.1}% of the grid's (floor 90%)",
        evo_worst * 100.0
    );

    eprintln!("cache: {} entries -> {}", cache.len(), cache_path.display());
}
