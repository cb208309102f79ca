//! Lockstep replay throughput (BENCH_LOCKSTEP): timing-only design
//! points per second of the K-lane lockstep walk against per-point
//! scalar replay and the full compile + simulate pipeline, on a 32-point
//! frequency × memory-port ladder over one compiled program.
//!
//! The ladder is the shape the lockstep engine is built for: every point
//! shares the compile fingerprint, frequency-only variants collapse onto
//! one cycle lane, and the surviving lanes (one per distinct port) walk
//! the trace's op stream **once** instead of once per point. All three
//! paths are verified bit-exact against each other per point before any
//! rate is reported.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_lockstep`.

use std::time::Instant;

use cimflow::compiler::compile;
use cimflow::sim::{ReplayEngine, SimOptions, Simulator};
use cimflow::{models, ArchConfig, Strategy};
use cimflow_bench::resolution;

const FREQUENCIES: [u32; 8] = [200, 400, 600, 800, 1000, 1200, 1400, 1600];
const PORTS: [u32; 4] = [0, 13, 27, 41];

fn main() {
    let resolution = resolution();
    let model = models::mobilenet_v2(resolution);
    let base = ArchConfig::paper_default();
    let points: Vec<(ArchConfig, SimOptions)> = FREQUENCIES
        .iter()
        .flat_map(|&frequency| {
            PORTS.iter().map(move |&port| {
                (
                    ArchConfig::paper_default()
                        .with_frequency_mhz(frequency)
                        .with_memory_port(port),
                    SimOptions::default(),
                )
            })
        })
        .collect();

    println!(
        "=== Lockstep replay throughput (mobilenetv2@{resolution}, {} timing-only points) ===",
        points.len()
    );

    // Baseline 1: the full pipeline per point (what the sweep costs with
    // neither the trace store nor the lockstep walk).
    let started = Instant::now();
    let simulated: Vec<_> = points
        .iter()
        .map(|(arch, options)| {
            let compiled = compile(&model, arch, Strategy::DpOptimized).expect("compiles");
            Simulator::with_options(&compiled, *options).run().expect("simulates")
        })
        .collect();
    let pipeline_elapsed = started.elapsed();
    let pipeline_rate = points.len() as f64 / pipeline_elapsed.as_secs_f64();

    // One shared compile + record for both replay paths (charged to
    // neither: the gate compares replay against replay).
    let compiled = compile(&model, &base, Strategy::DpOptimized).expect("compiles");
    let (trace, _) = Simulator::record(&compiled).expect("records");
    let engine = ReplayEngine::new(&trace);

    // Baseline 2: scalar replay, one full trace walk per point.
    let started = Instant::now();
    let scalar: Vec<_> = points
        .iter()
        .map(|(arch, options)| engine.replay(arch, *options).expect("replays"))
        .collect();
    let scalar_elapsed = started.elapsed();
    let scalar_rate = points.len() as f64 / scalar_elapsed.as_secs_f64();

    // Lockstep: one batched call; frequency dedup + multi-lane walk.
    let started = Instant::now();
    let (lockstep, stats) = engine.replay_batch_stats(&points);
    let lockstep_elapsed = started.elapsed();
    let lockstep_rate = points.len() as f64 / lockstep_elapsed.as_secs_f64();

    // Bit-exactness gate: a fast wrong answer is worthless.
    for (index, report) in lockstep.iter().enumerate() {
        let report = report.as_ref().expect("every timing-only point replays");
        assert_eq!(report, &scalar[index], "point {index}: lockstep == scalar replay");
        assert_eq!(report, &simulated[index], "point {index}: lockstep == compile + simulate");
    }
    assert_eq!(stats.batches, 1, "one chunk covers the ladder");
    assert_eq!(stats.lanes as usize, PORTS.len(), "frequencies collapse onto port lanes");

    println!("{:>28} {:>10} {:>12}", "path", "elapsed", "points/s");
    println!(
        "{:>28} {:>10.2?} {:>12.1}",
        "compile+simulate per point", pipeline_elapsed, pipeline_rate
    );
    println!("{:>28} {:>10.2?} {:>12.1}", "scalar replay per point", scalar_elapsed, scalar_rate);
    println!("{:>28} {:>10.2?} {:>12.1}", "lockstep batch", lockstep_elapsed, lockstep_rate);
    println!(
        "\nlanes: {} over {} points ({} fallback), speedup over scalar replay: {:.1}x",
        stats.lanes,
        points.len(),
        stats.fallback_lanes,
        lockstep_rate / scalar_rate
    );
    let speedup = lockstep_rate / scalar_rate;
    assert!(
        speedup >= 3.0,
        "lockstep must be at least 3x per-point replay on timing-only ladders, got {speedup:.1}x"
    );
}
