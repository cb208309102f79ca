//! Parallel design-space exploration with the `cimflow-dse` engine: a
//! three-axis sweep (macro-group size × flit size × core count) over two
//! models, with an intentionally broken configuration mixed in, comparing
//! sequential and parallel execution and demonstrating warm-cache
//! re-runs.
//!
//! Run with `cargo run --release --example parallel_dse`.

use cimflow::Strategy;
use cimflow_dse::{analysis, export, EvalService, ServiceConfig, SweepSpec};

fn main() -> Result<(), cimflow_dse::DseError> {
    // mg = 0 is deliberately invalid: the engine reports it per point
    // instead of aborting the sweep.
    let spec = SweepSpec::new()
        .named("parallel_dse example")
        .with_model("mobilenetv2", 32)
        .with_model("efficientnetb0", 32)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[0, 8, 16])
        .with_flit_sizes(&[8, 16])
        .with_core_counts(&[16, 64]);
    println!("sweep of {} points over 3 architecture axes x 2 models", spec.point_count());

    // Sequential baseline.
    let sequential = EvalService::new(ServiceConfig::new().with_workers(1));
    let started = std::time::Instant::now();
    let baseline = sequential.submit_sweep(&spec)?.wait();
    let sequential_time = started.elapsed();

    // Parallel run on a fresh service and cache (same work, fanned out).
    let config = ServiceConfig::new();
    let workers = config.workers.max(4);
    let service = EvalService::new(config.with_workers(workers));
    let started = std::time::Instant::now();
    let outcomes = service.submit_sweep(&spec)?.wait();
    let parallel_time = started.elapsed();

    // Warm re-run over the service's cache: zero recompilations.
    let started = std::time::Instant::now();
    let warm = service.submit_sweep(&spec)?.wait();
    let warm_time = started.elapsed();
    let warm_hits = warm.iter().filter(|o| o.cached).count();
    let valid = warm.iter().filter(|o| o.result.is_ok()).count();
    assert_eq!(warm_hits, valid, "every valid point must be a cache hit on the warm run");

    println!("sequential (1 worker):  {sequential_time:>10.2?}");
    println!("parallel  ({workers} workers):  {parallel_time:>10.2?}");
    println!("warm re-run (cached):   {warm_time:>10.2?}  ({warm_hits} hits, 0 recompilations)");

    // Parallel and sequential sweeps agree point-for-point.
    for (a, b) in baseline.iter().zip(&outcomes) {
        assert_eq!(a.point, b.point);
        assert_eq!(
            a.evaluation().map(|e| e.simulation.total_cycles),
            b.evaluation().map(|e| e.simulation.total_cycles),
        );
    }

    let failed: Vec<_> = outcomes.iter().filter(|o| o.result.is_err()).collect();
    println!("\n{} of {} points failed (reported per point):", failed.len(), outcomes.len());
    for outcome in failed.iter().take(3) {
        if let Err(e) = &outcome.result {
            println!("  {} -> {e}", outcome.point.label());
        }
    }
    if failed.len() > 3 {
        println!("  ... and {} more", failed.len() - 3);
    }

    println!("\n(cycles, energy) Pareto frontier per model:");
    for (model, frontier) in analysis::pareto_frontier_by_model(&outcomes) {
        println!("  {model}:");
        for index in frontier {
            let outcome = &outcomes[index];
            if let Some(evaluation) = outcome.evaluation() {
                println!(
                    "    {:<56} {:>11} cycles {:>9.3} mJ",
                    outcome.point.label(),
                    evaluation.simulation.total_cycles,
                    evaluation.simulation.energy_mj()
                );
            }
        }
    }

    println!("\nfastest configuration per model:");
    for (model, index) in analysis::best_per_model(&outcomes) {
        let outcome = &outcomes[index];
        if let Some(evaluation) = outcome.evaluation() {
            println!(
                "  {model:<16} {} ({:.3} TOPS)",
                outcome.point.label(),
                evaluation.simulation.throughput_tops()
            );
        }
    }

    // The exporters turn the same outcomes into CSV / JSON artifacts.
    let csv = export::to_csv(&outcomes);
    println!("\nCSV export: {} rows, header: {}", csv.lines().count() - 1, export::CSV_HEADER);
    Ok(())
}
