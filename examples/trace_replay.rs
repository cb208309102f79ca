//! Trace-recorded timing replay: compile + record a design point once,
//! then re-time whole families of timing-only variants (frequency,
//! memory-port placement) by replaying the recorded trace — bit-exact
//! against a full compile + simulate, at a fraction of its cost.
//!
//! Two surfaces are shown:
//!
//! 1. the raw `Simulator::record` / `ReplayEngine` pair on one compiled
//!    program, with a bit-exactness check against a from-scratch
//!    compile + simulate of a re-timed architecture;
//! 2. the DSE engine's trace-aware batch path: a sweep whose grid
//!    includes the timing-only frequency/memory-port axes records each
//!    trace group once and replays the rest, reported per point through
//!    `Evaluation::eval_path`.
//!
//! Run with `cargo run --release --example trace_replay`.

use std::time::Instant;

use cimflow::compiler::compile;
use cimflow::sim::{ReplayEngine, SimOptions, Simulator};
use cimflow::{ArchConfig, Strategy};
use cimflow_dse::{EvalService, ServiceConfig, SweepSpec};
use cimflow_nn::models;

fn main() -> Result<(), cimflow_dse::DseError> {
    // --- 1. The raw engine -----------------------------------------------
    let model = models::mobilenet_v2(32);
    let arch = ArchConfig::paper_default();
    let compiled = compile(&model, &arch, Strategy::DpOptimized).expect("the seed model compiles");

    let started = Instant::now();
    let (trace, recorded_report) = Simulator::record(&compiled).expect("the recording run");
    let record_time = started.elapsed();
    println!(
        "recorded mobilenetv2@32 in {record_time:.2?}: {} trace ops, {} cycles",
        trace.op_count(),
        recorded_report.total_cycles
    );

    // A 24-point timing-only family: 6 frequencies x 4 port placements.
    let points: Vec<(ArchConfig, SimOptions)> = [400u32, 600, 800, 1000, 1200, 1600]
        .iter()
        .flat_map(|&frequency| {
            [0u32, 13, 27, 41].iter().map(move |&port| {
                (
                    ArchConfig::paper_default()
                        .with_frequency_mhz(frequency)
                        .with_memory_port(port),
                    SimOptions::default(),
                )
            })
        })
        .collect();

    let engine = ReplayEngine::new(&trace);
    let started = Instant::now();
    let reports = engine.replay_batch(&points);
    let replay_time = started.elapsed();
    assert!(reports.iter().all(Result::is_ok), "every timing-only variant replays");
    let replay_rate = points.len() as f64 / replay_time.as_secs_f64();
    println!(
        "replayed {} timing-only variants in {replay_time:.2?} ({replay_rate:.0} points/s)",
        points.len(),
    );

    // Bit-exactness spot check: the replay of one re-timed point equals a
    // from-scratch compile + simulate of that architecture.
    let (retimed, options) = &points[7];
    let fresh_compiled = compile(&model, retimed, Strategy::DpOptimized).expect("recompiles");
    let fresh = Simulator::with_options(&fresh_compiled, *options).run().expect("simulates");
    let replayed = reports[7].as_ref().expect("replayed");
    assert_eq!(replayed, &fresh, "replay must be bit-exact, never an approximation");
    println!(
        "bit-exact: replay of {} MHz / port {} matches compile + simulate ({} cycles, {:.3} mJ)",
        retimed.chip().frequency_mhz,
        retimed.chip().memory_port,
        fresh.total_cycles,
        fresh.energy_mj()
    );

    // --- 2. The DSE batch surface ----------------------------------------
    // The same reuse, driven from a sweep grid: points sharing a compile
    // fingerprint form one trace group; the service records each group
    // once and replays the rest.
    let spec = SweepSpec::new()
        .named("trace_replay example")
        .with_model("mobilenetv2", 32)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[1, 2])
        .with_frequencies_mhz(&[500, 750, 1000])
        .with_memory_ports(&[0, 27]);
    println!(
        "\nsweep of {} points = 2 trace groups (one per chip count) x 6 timing variants",
        spec.point_count()
    );

    let service = EvalService::new(ServiceConfig::new().with_workers(4));
    let started = Instant::now();
    let outcomes = service.submit_sweep(&spec)?.wait();
    let elapsed = started.elapsed();

    assert!(outcomes.iter().all(|o| o.result.is_ok()), "every point evaluates");
    let replayed = outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
        .count();
    let interpreted = outcomes.len() - replayed;
    assert!(replayed > 0, "timing-only sweeps must replay");
    assert_eq!(interpreted, 2, "exactly one recording per trace group");
    println!(
        "{} points in {elapsed:.2?}: {interpreted} interpreted (recordings), {replayed} replayed",
        outcomes.len(),
    );

    // Replayed points carry full reports: distinct timings per frequency.
    let cycles_at = |frequency: u64, port: u64, chips: u64| {
        outcomes
            .iter()
            .find(|o| {
                o.point.frequency_mhz == frequency
                    && o.point.memory_port == port
                    && o.point.chip_count == chips
            })
            .and_then(|o| o.evaluation())
            .map(|e| e.simulation.total_cycles)
            .expect("grid point present")
    };
    assert_eq!(
        cycles_at(500, 0, 1),
        cycles_at(1000, 0, 1),
        "cycle counts are frequency-invariant (latency scales, cycles do not)"
    );
    assert_ne!(cycles_at(1000, 0, 1), cycles_at(1000, 27, 1), "port placement re-times the NoC");
    println!(
        "port placement effect at 1 chip: port 0 -> {} cycles, port 27 -> {} cycles",
        cycles_at(1000, 0, 1),
        cycles_at(1000, 27, 1)
    );
    Ok(())
}
