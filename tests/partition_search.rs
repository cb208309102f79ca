//! Cross-crate acceptance tests of the joint hierarchical partition
//! search: `SearchMode` through compile/evaluate, the tile-streaming
//! hand-off, and the search's interval estimator validated against the
//! cycle-level simulator.

use cimflow::compiler::{compile, compile_with_options, CompileOptions};
use cimflow::sim::{HandoffMode, SimOptions, Simulator};
use cimflow::{models, ArchConfig, CimFlow, SearchMode, Strategy};
use cimflow_dse::{evaluate_with_search, EvalCache, EvalService, ServiceConfig, SweepSpec};

fn options(search: SearchMode) -> CompileOptions {
    CompileOptions { strategy: Strategy::DpOptimized, search }
}

/// The acceptance bar of the search mode itself: on the `fig_multichip`
/// grid (vgg19/resnet18 × 1/2/4/8 chips) the joint search never yields a
/// worse *estimated* pipeline interval than the sequential pipeline.
#[test]
fn joint_estimates_never_exceed_sequential_on_the_multichip_grid() {
    for model in [models::vgg19(32), models::resnet18(32)] {
        for chips in [1u32, 2, 4, 8] {
            let arch = ArchConfig::paper_default().with_chip_count(chips);
            let sequential = compile_with_options(&model, &arch, options(SearchMode::Sequential))
                .expect("sequential compiles");
            let joint = compile_with_options(&model, &arch, options(SearchMode::Joint))
                .expect("joint compiles");
            assert!(
                joint.system.estimated_interval_cycles
                    <= sequential.system.estimated_interval_cycles,
                "{}@{}: joint {} !<= sequential {}",
                model.name,
                chips,
                joint.system.estimated_interval_cycles,
                sequential.system.estimated_interval_cycles
            );
            assert!(joint.system.explored_candidates >= sequential.system.explored_candidates);
        }
    }
}

/// The estimator is validated against the simulator: across the chip-count
/// axis the estimated interval must *rank* configurations the way the
/// measured steady-state interval does (the cost model only ranks; the
/// authoritative numbers come from the simulator).
#[test]
fn interval_estimator_ranks_chip_counts_like_the_simulator() {
    let model = models::vgg19(32);
    let mut rows = Vec::new();
    for chips in [1u32, 2, 4] {
        let arch = ArchConfig::paper_default().with_chip_count(chips);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let simulated = Simulator::new(&compiled).run().unwrap();
        rows.push((
            chips,
            compiled.system.estimated_interval_cycles,
            simulated.pipeline_interval_cycles(),
        ));
    }
    for pair in rows.windows(2) {
        let ((a_chips, a_est, a_sim), (b_chips, b_est, b_sim)) = (pair[0], pair[1]);
        assert!(
            (a_est >= b_est) == (a_sim >= b_sim),
            "estimator and simulator disagree on {a_chips} vs {b_chips} chips: \
             est {a_est} vs {b_est}, sim {a_sim} vs {b_sim}"
        );
    }
    // And on this workload the joint search's estimated win at 2 chips is
    // confirmed by the measured interval.
    let arch = ArchConfig::paper_default().with_chip_count(2);
    let sequential = compile_with_options(&model, &arch, options(SearchMode::Sequential)).unwrap();
    let joint = compile_with_options(&model, &arch, options(SearchMode::Joint)).unwrap();
    let sim_seq = Simulator::new(&sequential).run().unwrap();
    let sim_joint = Simulator::new(&joint).run().unwrap();
    assert!(joint.system.estimated_interval_cycles < sequential.system.estimated_interval_cycles);
    assert!(
        sim_joint.pipeline_interval_cycles() <= sim_seq.pipeline_interval_cycles(),
        "the estimated improvement must not regress the measured interval \
         ({} !<= {})",
        sim_joint.pipeline_interval_cycles(),
        sim_seq.pipeline_interval_cycles()
    );
}

/// Tile streaming is the default hand-off and wins intra-inference
/// overlap over transfer-at-retirement without changing the work done.
#[test]
fn tile_streaming_reduces_latency_against_retirement_handoff() {
    let model = models::vgg19(32);
    let arch = ArchConfig::paper_default().with_chip_count(2);
    let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
    let stream = Simulator::new(&compiled).run().unwrap();
    let retire = Simulator::with_options(
        &compiled,
        SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
    )
    .run()
    .unwrap();
    assert!(stream.total_cycles < retire.total_cycles);
    assert!(stream.total_overlap_cycles() > 0);
    assert_eq!(retire.total_overlap_cycles(), 0);
    assert!(stream.pipeline_interval_cycles() <= retire.pipeline_interval_cycles());
}

/// `chip_count = 1` with the default `Sequential` mode is the untouched
/// fast path: identical cycles and energy to the facade's historical
/// numbers, whatever the hand-off generalization did to multi-chip runs.
#[test]
fn sequential_single_chip_numbers_are_bit_exact() {
    let model = models::mobilenet_v2(32);
    let arch = ArchConfig::paper_default();
    let a =
        evaluate_with_search(&arch, &model, Strategy::DpOptimized, SearchMode::Sequential).unwrap();
    let b = CimFlow::new(arch).unwrap().evaluate(&model, Strategy::DpOptimized).unwrap();
    assert_eq!(a.simulation.total_cycles, b.simulation.total_cycles);
    assert!((a.simulation.energy.total_pj() - b.simulation.energy.total_pj()).abs() < 1e-9);
    assert_eq!(a.search, SearchMode::Sequential);
}

/// The search axis runs end-to-end through the DSE engine with distinct
/// cache slots per mode and the new exporter column.
#[test]
fn search_mode_sweeps_run_end_to_end_with_distinct_cache_keys() {
    let spec = SweepSpec::new()
        .named("search-axis")
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::DpOptimized])
        .with_search_modes(&[SearchMode::Sequential, SearchMode::Joint])
        .with_chip_counts(&[2]);
    let cache = EvalCache::new();
    let service = EvalService::with_cache(ServiceConfig::new().with_workers(2), cache.clone());
    let outcomes = service.submit_sweep(&spec).unwrap().wait();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    assert_eq!(cache.len(), 2, "sequential and joint results occupy distinct slots");
    let csv = cimflow_dse::export::to_csv(&outcomes);
    assert!(csv.lines().next().unwrap().contains(",search,"));
    assert!(csv.contains(",dp,sequential,2,"));
    assert!(csv.contains(",dp,joint,2,"));
    // Joint's compile report records the explored pool.
    let joint = outcomes
        .iter()
        .find(|o| o.point.search == SearchMode::Joint)
        .and_then(|o| o.evaluation())
        .unwrap();
    assert!(joint.compilation.search_candidates > 1);
}
