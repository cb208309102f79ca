//! Online inference traffic — the serving-mode trajectory benchmark
//! (BENCH_TRAFFIC): deterministic co-located serving of the
//! mobilenetv2 + resnet18 pair on a 4-chip system across the offered
//! rate ladder, from idle to overload.
//!
//! Every line is derived from one fixed-seed Poisson workload, so the
//! whole **stdout** table is bit-reproducible run to run — the CI gate
//! runs this bench twice and diffs the two outputs. Each model is
//! simulated once, up front; every rate is then pure queueing over the
//! two single-inference reports. Host-dependent wall-clock numbers (the
//! trajectory metric: simulated requests per host second, timing the
//! queueing alone) go to **stderr**, deliberately outside the diff.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_traffic`.

use std::time::Instant;

use cimflow::compiler::compile;
use cimflow::sim::Simulator;
use cimflow::{models, ArchConfig, ServeModel, Strategy, WorkloadSpec};
use cimflow_bench::resolution;

const CHIPS: u32 = 4;
const REQUESTS: u64 = 256;
const RATES: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

fn main() {
    let resolution = resolution();
    let arch = ArchConfig::paper_default().with_chip_count(CHIPS);
    let single = |model| {
        let compiled = compile(&model, &arch, Strategy::DpOptimized).expect("the model compiles");
        Simulator::new(&compiled).run().expect("the model simulates")
    };
    let served = [
        ServeModel {
            name: "mobilenetv2".to_owned(),
            single: single(models::mobilenet_v2(resolution)),
        },
        ServeModel { name: "resnet18".to_owned(), single: single(models::resnet18(resolution)) },
    ];
    let workload = WorkloadSpec { requests: REQUESTS, ..WorkloadSpec::default() };

    println!(
        "=== BENCH_TRAFFIC: co-located serving, mobilenetv2 + resnet18 on {CHIPS} chips \
         ({REQUESTS} requests, seed {}) ===",
        workload.seed
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>11} {:>8} {:>10}",
        "offered qps", "p50 us", "p99 us", "goodput qps", "mean batch", "backlog", "energy mJ"
    );
    let mut total_requests = 0u64;
    let started = Instant::now();
    for offered_qps in RATES {
        let rate_start = Instant::now();
        let report =
            Simulator::serve(&served, &workload, offered_qps).expect("the workload serves");
        let host = rate_start.elapsed().as_secs_f64();
        total_requests += report.requests;
        println!(
            "{:>12} {:>12.1} {:>12.1} {:>14.1} {:>11.2} {:>8} {:>10.3}",
            offered_qps,
            report.p50_latency_us(),
            report.p99_latency_us(),
            report.goodput_qps,
            report.mean_batch,
            report.peak_queue_depth,
            report.energy_mj
        );
        eprintln!(
            "  [host] {offered_qps} qps: {:.0} simulated requests per host second",
            report.requests as f64 / host.max(1e-9)
        );
        if offered_qps == RATES[RATES.len() - 1] {
            println!(
                "{:>12} goodput pinned at {:.1} qps (pipeline bound {:.1} qps)",
                "saturation:", report.goodput_qps, report.saturation_qps
            );
        }
    }
    eprintln!(
        "  [host] served {total_requests} requests across {} rates in {:.2?}",
        RATES.len(),
        started.elapsed()
    );
}
