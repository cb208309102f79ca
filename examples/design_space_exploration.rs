//! Architectural design-space exploration: sweep the macro-group size and
//! the NoC flit size for a compact model — a miniature version of the
//! Fig. 6 / Fig. 7 experiments.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use cimflow::dse::{DseError, SweepSpec};
use cimflow::{EvalService, ServiceConfig, Strategy};

fn main() -> Result<(), DseError> {
    let spec = SweepSpec::new()
        .with_model("efficientnetb0", 32)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8, 12, 16])
        .with_flit_sizes(&[8, 16]);
    let outcomes = EvalService::new(ServiceConfig::new()).submit_sweep(&spec)?.wait();

    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>12} {:>10}",
        "strategy", "MG size", "flit", "TOPS", "energy (mJ)", "NoC share"
    );
    for outcome in &outcomes {
        let point = &outcome.point;
        let sim = &outcome.result.as_ref().map_err(DseError::clone)?.simulation;
        println!(
            "{:<10} {:>8} {:>8} {:>14.3} {:>12.3} {:>9.1}%",
            point.strategy.to_string(),
            point.mg_size,
            point.flit_bytes,
            sim.throughput_tops(),
            sim.energy_mj(),
            sim.energy.noc_share() * 100.0
        );
    }
    Ok(())
}
