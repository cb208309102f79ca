//! Online inference traffic: serve deterministic request streams
//! against a compiled design point and sweep the offered rate through
//! the DSE engine's SLO objective.
//!
//! Two surfaces are shown:
//!
//! 1. the raw serving mode — two models co-located on one 4-chip
//!    system, a seeded Poisson arrival stream, and the latency/goodput
//!    ladder as the offered rate climbs from idle to overload;
//! 2. the DSE engine's traffic axis: a sweep whose grid includes
//!    `offered_qps`, analyzed under the `{p99_latency_us, energy}`
//!    Pareto objective instead of the offline `{cycles, energy}` one.
//!
//! Run with `cargo run --release --example traffic`.

use cimflow::compiler::compile;
use cimflow::dse::{analysis, EvalService, ServiceConfig, SweepSpec, TrafficSpec};
use cimflow::sim::Simulator;
use cimflow::{models, ArchConfig, ServeModel, Strategy, WorkloadSpec};

fn main() -> Result<(), cimflow_dse::DseError> {
    // --- 1. The raw serving mode -----------------------------------------
    // Each model is simulated once; serving is queueing arithmetic over
    // the two single-inference reports.
    let arch = ArchConfig::paper_default().with_chip_count(4);
    let single = |model| {
        let compiled = compile(&model, &arch, Strategy::DpOptimized).expect("compiles on 4 chips");
        Simulator::new(&compiled).run().expect("simulates on 4 chips")
    };
    let served = [
        ServeModel { name: "mobilenetv2@32".to_owned(), single: single(models::mobilenet_v2(32)) },
        ServeModel { name: "resnet18@32".to_owned(), single: single(models::resnet18(32)) },
    ];
    // One seeded Poisson stream, replayed identically at every rate:
    // the rate axis compresses the same arrival pattern, so the ladder
    // below is deterministic run to run.
    let workload = WorkloadSpec { requests: 128, ..WorkloadSpec::default() };

    println!("co-located serving, mobilenetv2 + resnet18 on 4 chips:");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "offered qps", "p50 us", "p99 us", "goodput qps", "mean batch", "backlog"
    );
    for offered_qps in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
        let report =
            Simulator::serve(&served, &workload, offered_qps).expect("the workload serves");
        println!(
            "{:>12} {:>12.1} {:>12.1} {:>12.1} {:>10.2} {:>8}",
            offered_qps,
            report.p50_latency_us(),
            report.p99_latency_us(),
            report.goodput_qps,
            report.mean_batch,
            report.peak_queue_depth
        );
        if offered_qps == 1_000_000 {
            println!(
                "    saturation: goodput pinned at {:.1} qps (pipeline bound {:.1} qps)",
                report.goodput_qps, report.saturation_qps
            );
        }
    }

    // --- 2. The DSE traffic axis -----------------------------------------
    // The same scenario as a declarative sweep: the offered rate is one
    // more grid axis, and the analysis layer trades p99 tail latency
    // against serving energy instead of offline cycles.
    let spec = SweepSpec::new()
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[4])
        .with_traffic(
            TrafficSpec::new(&[1_000, 50_000, 1_000_000])
                .with_workload(WorkloadSpec { requests: 64, ..WorkloadSpec::default() })
                .colocated(),
        );
    let service = EvalService::new(ServiceConfig::new().with_workers(2));
    let outcomes = service.submit_sweep(&spec)?.wait();

    println!("\nDSE sweep over the offered-QPS axis ({} points):", outcomes.len());
    let frontier = analysis::pareto_frontier_with(&outcomes, analysis::Objective::P99Latency);
    for (index, outcome) in outcomes.iter().enumerate() {
        let Some(serving) = outcome.evaluation().and_then(|e| e.serving.as_ref()) else {
            continue;
        };
        println!(
            "  {:<16} @ {:>9} qps: p99 {:>10.1} us, {:>8.3} mJ, goodput {:>10.1} qps{}",
            outcome.point.model.name,
            serving.offered_qps,
            serving.p99_latency_us,
            serving.energy_mj,
            serving.goodput_qps,
            if frontier.contains(&index) { "  <- p99/energy frontier" } else { "" }
        );
    }
    Ok(())
}
