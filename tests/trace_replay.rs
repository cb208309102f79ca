//! Cross-crate acceptance tests of the simulation trace IR. The timing
//! back end walks ops from two sources: the live front end
//! (`Simulator::run`) and a recorded trace (`ReplayEngine`). A recording
//! replayed at any timing-only point must be **bit-exact** against a
//! fresh compile + run of that point — same cycles, same energy, same
//! per-unit activity — for every seed model, chip count, hand-off mode
//! and re-timing, and compile-affecting changes must be refused. The
//! committed golden corpus (`crates/sim/tests/golden_reports.rs`) pins
//! the reports themselves; these tests pin the agreement of the two
//! sources on a wider grid (8 chips, random re-timings).

use cimflow::compiler::compile;
use cimflow::sim::{HandoffMode, ReplayEngine, SimOptions, Simulator};
use cimflow::{ArchConfig, Strategy};
use cimflow_nn::models;

const BOTH_HANDOFFS: [HandoffMode; 2] = [HandoffMode::AtRetirement, HandoffMode::TileStreaming];

/// The full seed matrix: every benchmark model at 1/2/4/8 chips, both
/// hand-off modes. One recording per (model, chip count) — the trace is
/// option-independent — replayed against a fresh run of the same
/// options.
#[test]
fn replay_is_bit_exact_for_all_seed_models_chip_counts_and_handoff_modes() {
    for model in models::benchmark_suite(32) {
        for chips in [1u32, 2, 4, 8] {
            let arch = ArchConfig::paper_default().with_chip_count(chips);
            let compiled = compile(&model, &arch, Strategy::DpOptimized)
                .unwrap_or_else(|e| panic!("{} @ {chips} chips compiles: {e}", model.name));
            let (trace, recorded_report) = Simulator::record(&compiled).unwrap();
            assert!(trace.is_compatible(&arch));
            for handoff in BOTH_HANDOFFS {
                let options = SimOptions { handoff, ..SimOptions::default() };
                let fresh = Simulator::with_options(&compiled, options).run().unwrap();
                let replayed = ReplayEngine::new(&trace).replay(&arch, options).unwrap();
                assert_eq!(
                    replayed, fresh,
                    "{} @ {chips} chips, {handoff:?}: replay must be bit-exact",
                    model.name
                );
                if handoff == SimOptions::default().handoff {
                    assert_eq!(recorded_report, fresh, "recording must not perturb the simulation");
                }
            }
        }
    }
}

/// Timing-only re-timings (frequency, memory-port placement) replay the
/// *original* trace bit-exactly against a from-scratch compile + simulate
/// of the re-timed architecture — the exact reuse the DSE trace store
/// performs.
#[test]
fn retimed_replays_match_from_scratch_pipelines() {
    let model = models::mobilenet_v2(32);
    for chips in [1u32, 2] {
        let base = ArchConfig::paper_default().with_chip_count(chips);
        let compiled = compile(&model, &base, Strategy::DpOptimized).unwrap();
        let (trace, _) = Simulator::record(&compiled).unwrap();
        for (frequency, port) in [(500u32, 27u32), (2000, 0), (800, 63)] {
            let retimed = base.with_frequency_mhz(frequency).with_memory_port(port);
            assert!(trace.is_compatible(&retimed), "timing-only fields keep the fingerprint");
            for handoff in BOTH_HANDOFFS {
                let options = SimOptions { handoff, ..SimOptions::default() };
                let replayed = ReplayEngine::new(&trace).replay(&retimed, options).unwrap();
                let fresh_compiled = compile(&model, &retimed, Strategy::DpOptimized).unwrap();
                let fresh = Simulator::with_options(&fresh_compiled, options).run().unwrap();
                assert_eq!(
                    replayed, fresh,
                    "{chips} chips @ {frequency} MHz, port {port}, {handoff:?}"
                );
            }
        }
    }
}

/// Compile-affecting changes must be refused, not approximated: the
/// engine returns a trace-mismatch error instead of re-timing a trace
/// that no longer describes the compiled program.
#[test]
fn compile_affecting_changes_are_refused_never_approximated() {
    let model = models::resnet18(32);
    let base = ArchConfig::paper_default();
    let compiled = compile(&model, &base, Strategy::DpOptimized).unwrap();
    let (trace, _) = Simulator::record(&compiled).unwrap();
    let options = SimOptions::default();
    for wrong in [
        base.with_flit_bytes(16),
        base.with_macros_per_group(4),
        base.with_chip_count(2),
        base.with_core_count(32),
    ] {
        assert!(!trace.is_compatible(&wrong));
        assert!(
            ReplayEngine::new(&trace).replay(&wrong, options).is_err(),
            "a compile-affecting change must fail replay"
        );
    }
    // Invalid architectures are rejected up front too.
    assert!(ReplayEngine::new(&trace).replay(&base.with_memory_port(64), options).is_err());
}

/// The same bit-exactness as a property over randomized timing-only
/// axes (the vendored proptest stub runs a deterministic fixed-seed
/// generator).
mod properties {
    // `super::*` would glob-import `cimflow::Strategy` alongside the
    // proptest prelude's `Strategy` trait: name the test deps instead.
    use cimflow::compiler::compile;
    use cimflow::sim::{HandoffMode, ReplayEngine, SimOptions, Simulator};
    use cimflow::ArchConfig;
    use cimflow_nn::models;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn random_retimings_replay_bit_exactly(
            frequency in 200u32..2000,
            port in 0u32..64,
            streaming in any::<bool>(),
        ) {
            let model = models::mobilenet_v2(32);
            let base = ArchConfig::paper_default().with_chip_count(2);
            let compiled = compile(&model, &base, cimflow::Strategy::DpOptimized).unwrap();
            let (trace, _) = Simulator::record(&compiled).unwrap();
            let retimed = base.with_frequency_mhz(frequency).with_memory_port(port);
            let options = SimOptions {
                handoff: if streaming {
                    HandoffMode::TileStreaming
                } else {
                    HandoffMode::AtRetirement
                },
                ..SimOptions::default()
            };
            let replayed = ReplayEngine::new(&trace).replay(&retimed, options).unwrap();
            let fresh_compiled = compile(&model, &retimed, cimflow::Strategy::DpOptimized).unwrap();
            let fresh = Simulator::with_options(&fresh_compiled, options).run().unwrap();
            prop_assert_eq!(replayed, fresh);
        }
    }
}
