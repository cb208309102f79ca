//! Trace-replay throughput (BENCH_TRACE_REPLAY): timing-only design
//! points per second of the record-once / replay-many path against the
//! full per-point compile + simulate pipeline, on the same point family.
//!
//! The family is a frequency × memory-port grid over one compiled
//! program — exactly the shape the DSE trace store exploits: every point
//! shares the compile fingerprint, so the per-point compile + simulate
//! is pure overhead the replay path pays once. Replays are verified
//! bit-exact against a fresh compile + simulate per point before any
//! rate is reported.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_trace_replay`.

use std::time::Instant;

use cimflow::compiler::compile;
use cimflow::sim::{ReplayEngine, SimOptions, Simulator};
use cimflow::{models, ArchConfig, Strategy};
use cimflow_bench::resolution;

const FREQUENCIES: [u32; 6] = [400, 600, 800, 1000, 1200, 1600];
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
        "=== Trace-replay throughput (mobilenetv2@{resolution}, {} timing-only points) ===",
        points.len()
    );

    // Baseline: the full pipeline per point, what a timing sweep costs
    // without the trace store (the eval cache cannot help — every point
    // is a distinct architecture).
    let started = Instant::now();
    let baseline: Vec<_> = points
        .iter()
        .map(|(arch, options)| {
            let compiled = compile(&model, arch, Strategy::DpOptimized).expect("compiles");
            Simulator::with_options(&compiled, *options).run().expect("simulates")
        })
        .collect();
    let pipeline_elapsed = started.elapsed();
    let pipeline_rate = points.len() as f64 / pipeline_elapsed.as_secs_f64();

    // Replay path: one compile + record, then batched replay.
    let started = Instant::now();
    let compiled = compile(&model, &base, Strategy::DpOptimized).expect("compiles");
    let (trace, _) = Simulator::record(&compiled).expect("records");
    let record_elapsed = started.elapsed();
    let started = Instant::now();
    let replayed = ReplayEngine::new(&trace).replay_batch(&points);
    let replay_elapsed = started.elapsed();
    // Amortized rate charges the compile + record run to the batch.
    let replay_rate = points.len() as f64 / (record_elapsed + replay_elapsed).as_secs_f64();

    // Bit-exactness gate: a fast wrong answer is worthless.
    for (index, (report, fresh)) in replayed.iter().zip(&baseline).enumerate() {
        let report = report.as_ref().expect("every timing-only point replays");
        assert_eq!(report, fresh, "point {index} must replay bit-exactly");
    }

    println!("{:>28} {:>10} {:>12}", "path", "elapsed", "points/s");
    println!(
        "{:>28} {:>10.2?} {:>12.1}",
        "compile+simulate per point", pipeline_elapsed, pipeline_rate
    );
    println!(
        "{:>28} {:>10.2?} {:>12.1}",
        "record once + replay",
        record_elapsed + replay_elapsed,
        replay_rate
    );
    let speedup = replay_rate / pipeline_rate;
    println!("\nspeedup: {speedup:.1}x (recording run amortized into the replay rate)");
    assert!(
        speedup >= 5.0,
        "trace replay must be at least 5x compile + simulate on timing-only sweeps, got {speedup:.1}x"
    );
}
