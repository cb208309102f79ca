//! Fig. 6 — energy consumption breakdown and throughput across
//! architectures with different macro-group sizes and NoC link bandwidths,
//! for ResNet18 (compute intensive) and EfficientNetB0 (compact), compiled
//! with the generic mapping strategy.
//!
//! The sweep runs on the `cimflow-dse` parallel engine with the
//! evaluation cache shared on disk across the figure harnesses (see
//! [`cimflow_bench::dse_cache_path`]): Fig. 7 re-uses every generic point
//! computed here without recompiling.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig6`.

use cimflow::{ArchConfig, Strategy};
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{DseOutcome, EvalCache, EvalService, ServiceConfig, SweepSpec};

fn main() {
    let resolution = resolution();
    let spec = SweepSpec::new()
        .named("fig6")
        .with_base(ArchConfig::paper_default())
        .with_model("resnet18", resolution)
        .with_model("efficientnetb0", resolution)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 8, 12, 16])
        .with_flit_sizes(&[8, 16]);

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let started = std::time::Instant::now();
    let outcomes = service.submit_sweep(&spec).expect("fig6 sweep spec is valid").wait();
    let elapsed = started.elapsed();

    println!(
        "=== Fig. 6: MG size and NoC bandwidth exploration (generic mapping, resolution {resolution}) ==="
    );
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
            "{:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "flit", "MG", "TOPS", "energy mJ", "local mem", "compute", "NoC"
        );
        for outcome in &points {
            let evaluation = outcome
                .evaluation()
                .unwrap_or_else(|| panic!("{}: point failed", outcome.point.label()));
            let sim = &evaluation.simulation;
            let total = sim.energy.total_pj().max(f64::MIN_POSITIVE);
            println!(
                "{:>4} B {:>6} {:>12.3} {:>12.3} {:>11.1}% {:>11.1}% {:>11.1}%",
                outcome.point.flit_bytes,
                outcome.point.mg_size,
                sim.throughput_tops(),
                sim.energy_mj(),
                sim.energy.local_memory_pj / total * 100.0,
                sim.energy.compute_pj / total * 100.0,
                sim.energy.noc_pj / total * 100.0,
            );
        }
        // Shape checks corresponding to the paper's observations.
        let tops = |mg: u64, flit: u64| {
            points
                .iter()
                .find(|o| o.point.mg_size == mg && o.point.flit_bytes == flit)
                .and_then(|o| o.evaluation())
                .map(|e| e.simulation.throughput_tops())
                .unwrap_or(0.0)
        };
        println!(
            "MG scaling (4 -> 16 macros, 8 B flit): {:.3} -> {:.3} TOPS ({:+.1}%)",
            tops(4, 8),
            tops(16, 8),
            (tops(16, 8) / tops(4, 8).max(1e-12) - 1.0) * 100.0
        );
        println!(
            "flit scaling (8 -> 16 B, MG 16): {:.3} -> {:.3} TOPS ({:+.1}%)",
            tops(16, 8),
            tops(16, 16),
            (tops(16, 16) / tops(16, 8).max(1e-12) - 1.0) * 100.0
        );
        let max_noc_share = points
            .iter()
            .filter_map(|o| o.evaluation())
            .map(|e| e.simulation.energy.noc_share())
            .fold(0.0f64, f64::max);
        println!("largest NoC energy share across configurations: {:.1}%", max_noc_share * 100.0);
    }

    println!(
        "\ncache: {} evaluation(s) logged at {} (shared with fig7)",
        cache.len(),
        cache_path.display()
    );
}
