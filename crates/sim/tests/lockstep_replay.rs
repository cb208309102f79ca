//! Integration suite for the lockstep multi-lane walk of the timing back
//! end.
//!
//! The back end walks a recorded trace for one lane (a scalar
//! [`ReplayEngine::replay`]) or for up to [`LOCKSTEP_LANES`] at once. The
//! contract under test: for every point a scalar replay accepts, the
//! batched walk must produce the **same**
//! [`SimReport`](cimflow_sim::SimReport) bit for bit — across the full
//! seed-model × chip-count × handoff-mode grid, with invalid points
//! isolated from their batch, and with the divergence fallback (lane
//! peeling) exercised rather than averaged away. The scalar walk itself
//! is pinned by the golden corpus (`golden_reports.rs`).

use std::collections::HashSet;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile, Strategy as MappingStrategy};
use cimflow_nn::models;
use cimflow_sim::{HandoffMode, ReplayEngine, SimError, SimOptions, Simulator, LOCKSTEP_LANES};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Random timing-only lanes: frequency / memory-port retunings that keep
/// the trace's compile fingerprint (the paper-default mesh is 8×8, so
/// ports 0..64 are all valid placements).
fn arb_lanes() -> impl Strategy<Value = Vec<(u32, u32)>> {
    collection::vec((200u32..2000, 0u32..64), 2..6)
}

#[test]
fn lockstep_matches_scalar_replay_across_models_chips_and_handoffs() {
    let lanes_strategy = arb_lanes();
    let mut rng = TestRng::deterministic();
    for model in models::benchmark_suite(32) {
        for chips in [1u32, 2, 4] {
            let base = ArchConfig::paper_default().with_chip_count(chips);
            let compiled = compile(&model, &base, MappingStrategy::DpOptimized)
                .expect("seed models compile at every chip count");
            let (trace, _) = Simulator::record(&compiled).expect("recording succeeds");
            let engine = ReplayEngine::new(&trace);
            for handoff in [HandoffMode::TileStreaming, HandoffMode::AtRetirement] {
                let options = SimOptions { handoff, ..SimOptions::default() };
                let lanes = Strategy::generate(&lanes_strategy, &mut rng);
                let points: Vec<(ArchConfig, SimOptions)> = lanes
                    .iter()
                    .map(|&(mhz, port)| {
                        (base.with_frequency_mhz(mhz).with_memory_port(port), options)
                    })
                    .collect();
                let (results, stats) = engine.replay_batch_stats(&points);
                for ((point, opts), result) in points.iter().zip(&results) {
                    let scalar = engine.replay(point, *opts).expect("timing-only lane replays");
                    let lockstep = result.as_ref().expect("timing-only lane replays in batch");
                    prop_assert_eq!(
                        lockstep,
                        &scalar,
                        "lockstep diverged from scalar replay: {} chips={chips} \
                         handoff={handoff:?} point={point:?}",
                        model.name
                    );
                }
                // Frequency never enters cycle-domain timing, so the
                // batch must collapse onto one lane per distinct port;
                // a single surviving lane is scalar, not lockstep.
                let ports: HashSet<u32> = lanes.iter().map(|&(_, port)| port).collect();
                assert!(points.len() <= LOCKSTEP_LANES, "grid stays within one chunk");
                if ports.len() >= 2 {
                    prop_assert_eq!(stats.batches, 1);
                    prop_assert_eq!(stats.lanes, ports.len() as u64);
                } else {
                    prop_assert_eq!(stats.lanes, 0);
                }
            }
        }
    }
}

#[test]
fn invalid_points_do_not_poison_the_batch() {
    let base = ArchConfig::paper_default();
    let compiled = compile(&models::mobilenet_v2(32), &base, MappingStrategy::DpOptimized)
        .expect("seed model compiles");
    let (trace, baseline) = Simulator::record(&compiled).expect("recording succeeds");
    let engine = ReplayEngine::new(&trace);
    let options = SimOptions::default();
    let points = vec![
        (base.with_memory_port(27), options),
        // Compile-affecting change: must be refused (recompile instead).
        (base.with_macros_per_group(16), options),
        // Invalid placement (port outside the 8×8 mesh): must be refused.
        (base.with_memory_port(4096), options),
        (base, options),
        (base.with_frequency_mhz(500).with_memory_port(27), options),
    ];
    let results = engine.replay_batch(&points);
    assert_eq!(results.len(), points.len());
    assert!(matches!(results[1], Err(SimError::TraceMismatch { .. })));
    assert!(matches!(results[2], Err(SimError::TraceMismatch { .. })));
    // The valid lanes around the failures stay bit-exact.
    for index in [0usize, 3, 4] {
        let scalar = engine.replay(&points[index].0, options).expect("valid lane");
        assert_eq!(results[index].as_ref().expect("valid lane"), &scalar, "lane {index}");
    }
    assert_eq!(results[3].as_ref().expect("recording point"), &baseline);
}

/// A full-width ladder of maximally spread timing knobs: every lane gets
/// its own memory port AND its own NoC hop latency, the two knobs that
/// skew per-core clocks hardest. On real model traces the send/recv
/// dependency chains and the serializing global-memory port pin the pick
/// order, so the ladder must replay in one agreed pass — and whenever a
/// pick ever does flip (the hand-built flipping trace lives in the
/// engine's unit tests, `divergent_pick_orders_peel_into_scalar_lanes_
/// bit_exactly`), the peel fallback accounts for it in `fallback_lanes`
/// rather than approximating. Either way the contract is the same and is
/// asserted here: lane reports identical to scalar replay, divergence
/// accounted, never averaged.
#[test]
fn full_width_ladders_replay_bit_exactly_with_divergence_accounted() {
    let base = ArchConfig::paper_default();
    let compiled = compile(&models::resnet18(32), &base, MappingStrategy::DpOptimized)
        .expect("seed model compiles");
    let (trace, _) = Simulator::record(&compiled).expect("recording succeeds");
    let engine = ReplayEngine::new(&trace);
    let options = SimOptions::default();
    let points: Vec<(ArchConfig, SimOptions)> = (0..LOCKSTEP_LANES as u32)
        .map(|lane| {
            let mut arch = base.with_memory_port(lane * 9 % 64);
            arch.system.chip.noc_hop_latency = 1 + lane;
            (arch, options)
        })
        .collect();
    let (results, stats) = engine.replay_batch_stats(&points);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.lanes, LOCKSTEP_LANES as u64, "every point is its own lane");
    assert!(
        stats.fallback_lanes as usize <= LOCKSTEP_LANES,
        "peeled lanes are a subset of the batch: {stats:?}"
    );
    for ((point, opts), result) in points.iter().zip(&results) {
        let scalar = engine.replay(point, *opts).expect("valid lane");
        let port = point.chip().memory_port;
        assert_eq!(result.as_ref().expect("valid lane"), &scalar, "port {port}");
    }
}
