//! Fig. 7 — the software/hardware design space categorized by macro-group
//! size: energy versus throughput for the generic and the DP-optimized
//! mapping across MG sizes and NoC flit sizes, for ResNet18 and
//! EfficientNetB0.
//!
//! The sweep runs on the `cimflow-dse` parallel engine and shares its
//! on-disk evaluation cache with Fig. 6: every generic-mapping point of
//! this figure also appears there, so a `fig6` run followed by `fig7`
//! serves half of this grid from the cache. The engine's Pareto
//! extraction prints the (cycles, energy) frontier the paper's scatter
//! plot visualizes.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig7`.

use cimflow::{ArchConfig, Strategy};
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{analysis, DseOutcome, EvalCache, EvalService, ServiceConfig, SweepSpec};

fn main() {
    let resolution = resolution();
    let spec = SweepSpec::new()
        .named("fig7")
        .with_base(ArchConfig::paper_default())
        .with_model("resnet18", resolution)
        .with_model("efficientnetb0", resolution)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8, 12, 16])
        .with_flit_sizes(&[8, 16]);

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let started = std::time::Instant::now();
    let outcomes = service.submit_sweep(&spec).expect("fig7 sweep spec is valid").wait();
    let elapsed = started.elapsed();

    println!("=== Fig. 7: software/hardware design space (resolution {resolution}) ===");
    println!(
        "engine: {} points on {} worker(s) in {elapsed:.2?}, cache {} hit(s) / {} miss(es)",
        outcomes.len(),
        service.workers(),
        cache.stats().hits,
        cache.stats().misses
    );

    for model in ["resnet18", "efficientnetb0"] {
        let points: Vec<&DseOutcome> =
            outcomes.iter().filter(|o| o.point.model.name == model).collect();
        println!("\n--- {model} ---");
        println!(
            "{:>12} {:>6} {:>6} {:>14} {:>14}",
            "mapping", "MG", "flit", "throughput TOPS", "energy mJ"
        );
        for outcome in &points {
            let evaluation = outcome
                .evaluation()
                .unwrap_or_else(|| panic!("{}: point failed", outcome.point.label()));
            println!(
                "{:>12} {:>6} {:>4} B {:>14.3} {:>14.3}",
                outcome.point.strategy.to_string(),
                outcome.point.mg_size,
                outcome.point.flit_bytes,
                evaluation.simulation.throughput_tops(),
                evaluation.simulation.energy_mj()
            );
        }

        // Shape check: for every hardware configuration the optimized
        // mapping should dominate (or match) the generic mapping envelope.
        let find = |strategy: Strategy, mg: u64, flit: u64| {
            points
                .iter()
                .find(|o| {
                    o.point.strategy == strategy
                        && o.point.mg_size == mg
                        && o.point.flit_bytes == flit
                })
                .and_then(|o| o.evaluation())
        };
        let mut dominated = 0usize;
        let mut total = 0usize;
        for &mg in &[4u64, 8, 12, 16] {
            for &flit in &[8u64, 16] {
                if let (Some(generic), Some(dp)) = (
                    find(Strategy::GenericMapping, mg, flit),
                    find(Strategy::DpOptimized, mg, flit),
                ) {
                    total += 1;
                    if dp.simulation.throughput_tops()
                        >= generic.simulation.throughput_tops() * 0.99
                    {
                        dominated += 1;
                    }
                }
            }
        }
        println!("optimized mapping matches or beats generic mapping in {dominated}/{total} configurations");

        // The engine's frontier extraction over this model's points.
        let model_outcomes: Vec<DseOutcome> = points.iter().map(|&o| o.clone()).collect();
        let frontier = analysis::pareto_frontier(&model_outcomes);
        println!("(cycles, energy) Pareto frontier: {} of {} points", frontier.len(), points.len());
        for index in frontier {
            let outcome = &model_outcomes[index];
            if let Some(evaluation) = outcome.evaluation() {
                println!(
                    "  {:>12} MG {:>2} flit {:>2} B: {:>12} cycles {:>10.3} mJ",
                    outcome.point.strategy.to_string(),
                    outcome.point.mg_size,
                    outcome.point.flit_bytes,
                    evaluation.simulation.total_cycles,
                    evaluation.simulation.energy_mj()
                );
            }
        }
    }

    println!(
        "\ncache: {} evaluation(s) logged at {} (shared with fig6)",
        cache.len(),
        cache_path.display()
    );
}
