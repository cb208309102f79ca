//! Joint hierarchical partition search vs the sequential pass order —
//! the search-layer experiment behind the compiler's `SearchMode`: at
//! 1/2/4/8 chips, compare the sequential pipeline (contiguous DP split,
//! one global strategy) against the joint search (candidate splits ×
//! per-chip stage partition × per-chip strategy, scored by the estimated
//! end-to-end pipeline interval), and quantify what the simulator's
//! tile-streaming hand-off wins over transfer-at-retirement.
//!
//! The sweep runs on the `cimflow-dse` engine through the `search_modes`
//! axis (distinct cache keys per mode), sharing the on-disk evaluation
//! cache with the other figure harnesses. Wall-clock time and cache
//! state go to stderr, so stdout is deterministic; CI diffs it against
//! `crates/bench/goldens/fig_partition_search.txt`.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_partition_search`.

use cimflow::compiler::{compile, CompileOptions};
use cimflow::sim::{HandoffMode, SimOptions, Simulator};
use cimflow::{ArchConfig, SearchMode, Strategy};
use cimflow_bench::{dse_cache_path, resolution};
use cimflow_dse::{EvalCache, EvalService, ServiceConfig, SweepSpec};

const CHIP_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    let resolution = resolution();
    let spec = SweepSpec::new()
        .named("fig_partition_search")
        .with_base(ArchConfig::paper_default())
        .with_model("vgg19", resolution)
        .with_model("resnet18", resolution)
        .with_strategies(&[Strategy::DpOptimized])
        .with_search_modes(&[SearchMode::Sequential, SearchMode::Joint])
        .with_chip_counts(&CHIP_COUNTS);

    let cache_path = dse_cache_path();
    let cache = EvalCache::load(&cache_path).unwrap_or_default();
    let service = EvalService::with_cache(ServiceConfig::new(), cache.clone());
    let started = std::time::Instant::now();
    let outcomes =
        service.submit_sweep(&spec).expect("fig_partition_search sweep spec is valid").wait();
    let elapsed = started.elapsed();

    println!("=== Joint partition search vs sequential (DP strategy, resolution {resolution}) ===");
    eprintln!(
        "engine: {} points on {} worker(s) in {elapsed:.2?}, cache {} hit(s) / {} miss(es)",
        outcomes.len(),
        service.workers(),
        cache.stats().hits,
        cache.stats().misses
    );

    let sim_of = |model: &str, search: SearchMode, chips: u64| {
        outcomes
            .iter()
            .find(|o| {
                o.point.model.name == model
                    && o.point.search == search
                    && o.point.chip_count == chips
            })
            .and_then(|o| o.evaluation())
            .unwrap_or_else(|| panic!("{model} {search} @{chips} point failed"))
    };

    for model in ["vgg19", "resnet18"] {
        println!("\n--- {model} ---");
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "chips", "search", "intvl cyc", "cycles", "overlap", "stalls", "cands"
        );
        for chips in CHIP_COUNTS.map(u64::from) {
            for search in [SearchMode::Sequential, SearchMode::Joint] {
                let evaluation = sim_of(model, search, chips);
                let sim = &evaluation.simulation;
                println!(
                    "{:>6} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
                    chips,
                    search.name(),
                    sim.pipeline_interval_cycles(),
                    sim.total_cycles,
                    sim.total_overlap_cycles(),
                    sim.chip_stall_cycles.iter().sum::<u64>(),
                    evaluation.compilation.search_candidates,
                );
            }
        }

        // Shape checks backing the search-layer claims. The estimates are
        // recompiled here (compilation is cheap next to simulation and the
        // cached Evaluation does not embed the SystemPlan).
        let model_obj = cimflow::models::by_name(model, resolution).expect("zoo model");
        for chips in CHIP_COUNTS {
            let arch = ArchConfig::paper_default().with_chip_count(chips);
            let sequential = cimflow::compiler::compile_with_options(
                &model_obj,
                &arch,
                CompileOptions { strategy: Strategy::DpOptimized, search: SearchMode::Sequential },
            )
            .expect("sequential compiles");
            let joint = cimflow::compiler::compile_with_options(
                &model_obj,
                &arch,
                CompileOptions { strategy: Strategy::DpOptimized, search: SearchMode::Joint },
            )
            .expect("joint compiles");
            assert!(
                joint.system.estimated_interval_cycles
                    <= sequential.system.estimated_interval_cycles,
                "{model}@{chips}: joint estimate must never be worse \
                 ({} !<= {})",
                joint.system.estimated_interval_cycles,
                sequential.system.estimated_interval_cycles
            );
            println!(
                "est @{chips}: sequential {} -> joint {} cycles ({} candidate(s) explored)",
                sequential.system.estimated_interval_cycles,
                joint.system.estimated_interval_cycles,
                joint.system.explored_candidates
            );
        }

        // Pipelining still wins: at >= 2 chips the steady-state interval
        // stays below the single-chip run for both modes.
        let single = sim_of(model, SearchMode::Sequential, 1).simulation.clone();
        for chips in &CHIP_COUNTS[1..] {
            for search in [SearchMode::Sequential, SearchMode::Joint] {
                let sim = &sim_of(model, search, u64::from(*chips)).simulation;
                assert!(
                    sim.pipeline_interval_cycles() < single.pipeline_interval_cycles(),
                    "{model}@{chips} {search}: the pipeline interval must beat one chip"
                );
            }
        }
    }

    // Tile-streaming vs transfer-at-retirement on the weight-heavy model:
    // the streamed hand-off overlaps chips within one inference, cutting
    // the per-inference latency and never worsening the steady-state
    // interval.
    println!("\n--- tile streaming vs transfer-at-retirement (vgg19) ---");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "chips", "retire cyc", "stream cyc", "speedup", "overlap", "intvl delta"
    );
    let vgg = cimflow::models::vgg19(resolution);
    for chips in &CHIP_COUNTS[1..] {
        let arch = ArchConfig::paper_default().with_chip_count(*chips);
        let compiled = compile(&vgg, &arch, Strategy::DpOptimized).expect("vgg19 compiles");
        let stream = Simulator::new(&compiled).run().expect("streaming run");
        let retire = Simulator::with_options(
            &compiled,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()
        .expect("retirement run");
        assert!(
            stream.total_cycles < retire.total_cycles,
            "vgg19@{chips}: streaming must cut the per-inference latency \
             ({} !< {})",
            stream.total_cycles,
            retire.total_cycles
        );
        assert!(stream.total_overlap_cycles() > 0, "vgg19@{chips}: chips must overlap");
        assert!(
            stream.pipeline_interval_cycles() <= retire.pipeline_interval_cycles(),
            "vgg19@{chips}: streaming must not worsen the steady-state interval"
        );
        println!(
            "{:>6} {:>14} {:>14} {:>11.3}x {:>12} {:>12}",
            chips,
            retire.total_cycles,
            stream.total_cycles,
            retire.total_cycles as f64 / stream.total_cycles as f64,
            stream.total_overlap_cycles(),
            retire.pipeline_interval_cycles() as i128 - stream.pipeline_interval_cycles() as i128,
        );
    }

    eprintln!("\ncache: {} entries -> {}", cache.len(), cache_path.display());
}
