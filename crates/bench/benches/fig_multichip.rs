//! Multi-chip scaling curve — the scale-out experiment past the paper's
//! single 64-core chip: per-inference latency, steady-state pipelined
//! throughput, energy and inter-chip traffic across 1/2/4/8 chips for a
//! weight-heavy model (VGG19, which exceeds one chip's CIM capacity) and
//! a compact one (ResNet18).
//!
//! The sweep runs on the `cimflow-dse` parallel engine through the
//! `chip_counts` axis, sharing the on-disk evaluation cache with the
//! other figure harnesses.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_multichip`.

use cimflow::{ArchConfig, Strategy};
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{DseOutcome, EvalCache, EvalService, ServiceConfig, SweepSpec};

const CHIP_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    let resolution = resolution();
    let spec = SweepSpec::new()
        .named("fig_multichip")
        .with_base(ArchConfig::paper_default())
        .with_model("vgg19", resolution)
        .with_model("resnet18", resolution)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&CHIP_COUNTS);

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let started = std::time::Instant::now();
    let outcomes = service.submit_sweep(&spec).expect("fig_multichip sweep spec is valid").wait();
    let elapsed = started.elapsed();

    println!("=== Multi-chip scaling (DP-optimized, resolution {resolution}) ===");
    println!(
        "engine: {} points on {} worker(s) in {elapsed:.2?}, cache {} hit(s) / {} miss(es)",
        outcomes.len(),
        service.workers(),
        cache.stats().hits,
        cache.stats().misses
    );

    let single_chip_capacity = ArchConfig::paper_default().chip_weight_capacity_bytes();
    for model in ["vgg19", "resnet18"] {
        let points: Vec<&DseOutcome> =
            outcomes.iter().filter(|o| o.point.model.name == model).collect();
        println!("\n--- {model} ---");
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>14}",
            "chips", "cycles", "intvl cyc", "TOPS", "pipe TOPS", "energy mJ", "inter-chip KiB"
        );
        for outcome in &points {
            let evaluation = outcome
                .evaluation()
                .unwrap_or_else(|| panic!("{}: point failed", outcome.point.label()));
            let sim = &evaluation.simulation;
            println!(
                "{:>6} {:>12} {:>12} {:>12.3} {:>12.3} {:>12.3} {:>14}",
                outcome.point.chip_count,
                sim.total_cycles,
                sim.pipeline_interval_cycles(),
                sim.throughput_tops(),
                sim.pipelined_throughput_tops(),
                sim.energy_mj(),
                sim.interchip.bytes / 1024,
            );
        }

        // Shape checks backing the scale-out claims.
        let sim_at = |chips: u64| {
            points
                .iter()
                .find(|o| o.point.chip_count == chips)
                .and_then(|o| o.evaluation())
                .map(|e| e.simulation.clone())
                .expect("every chip count evaluated")
        };
        let single = sim_at(1);
        let mut previous_interval = single.pipeline_interval_cycles();
        for chips in &CHIP_COUNTS[1..] {
            let sim = sim_at(u64::from(*chips));
            let interval = sim.pipeline_interval_cycles();
            assert!(
                interval < previous_interval,
                "{model}: the pipeline bottleneck must shrink with every added chip \
                 ({chips} chips: {interval} !< {previous_interval})"
            );
            previous_interval = interval;
            assert!(sim.interchip.bytes > 0, "{model}: cut activations cross the fabric");
            assert!(
                sim.total_cycles as f64 <= single.total_cycles as f64 * 1.2,
                "{model}: per-inference latency stays near the single-chip run"
            );
        }
        let eight = sim_at(8);
        assert!(
            eight.pipelined_throughput_tops() >= 2.0 * single.pipelined_throughput_tops(),
            "{model}: 8 chips must at least double the steady-state rate"
        );
        println!(
            "shape ok: interval {} -> {} cycles (x{:.2} pipelined throughput at 8 chips)",
            single.pipeline_interval_cycles(),
            eight.pipeline_interval_cycles(),
            eight.pipelined_throughput_tops() / single.pipelined_throughput_tops()
        );
    }

    // The headline capability: VGG19's weights exceed one chip's CIM
    // arrays, yet every multi-chip point compiled and simulated above.
    let vgg_weights = cimflow::models::vgg19(resolution).graph.stats().total_weight_bytes;
    assert!(vgg_weights > single_chip_capacity, "vgg19 must overflow one chip's arrays");
    println!(
        "\nvgg19 ({} MiB of weights) exceeds one chip's {} MiB CIM capacity; \
         served at every chip count.",
        vgg_weights >> 20,
        single_chip_capacity >> 20
    );

    println!("cache: {} entries -> {}", cache.len(), cache_path.display());
}
