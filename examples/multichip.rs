//! Multi-chip scale-out with the system level of the architecture: a
//! workload whose weights exceed one chip's CIM arrays is compiled across
//! chips (cut activations travel over the inter-chip interconnect) and
//! the chip-count axis is swept through the `cimflow-dse` engine.
//!
//! Run with `cargo run --release --example multichip`.

use cimflow::{models, ArchConfig, CimFlow, InterChipTopology, Strategy};
use cimflow_dse::{EvalService, ServiceConfig, SweepSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // VGG19 at 64 px carries more weights than one default chip's 32 MiB
    // of CIM arrays — the workload class the system level unlocks.
    let model = models::vgg19(64);
    let weights_mib = model.graph.stats().total_weight_bytes >> 20;
    let single = ArchConfig::paper_default();
    println!(
        "vgg19: {weights_mib} MiB of weights vs {} MiB per chip",
        single.chip_weight_capacity_bytes() >> 20
    );

    // One explicit two-chip evaluation through the facade.
    let dual = single.with_chip_count(2).with_interchip_link_bytes(32);
    let flow = CimFlow::new(dual)?;
    let compiled = flow.compile(&model, Strategy::DpOptimized)?;
    println!(
        "compiled across {} chips: {} per-core programs, {} inter-chip transfer(s), {} KiB cut",
        compiled.system.chip_count,
        compiled.per_core.len(),
        compiled.system.transfers.len(),
        compiled.system.cut_bytes() >> 10,
    );
    let evaluation = flow.evaluate(&model, Strategy::DpOptimized)?;
    println!("{}", evaluation.simulation);

    // The chip-count sweep axis: scale-out curve through the DSE engine,
    // here over a ring interconnect.
    let spec = SweepSpec::new()
        .named("multichip example")
        .with_base(single.with_interchip_topology(InterChipTopology::Ring))
        .with_model("vgg19", 64)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[1, 2, 4]);
    let outcomes = EvalService::new(ServiceConfig::new()).submit_sweep(&spec)?.wait();
    println!("{:>6} {:>12} {:>14} {:>12}", "chips", "latency cyc", "pipelined TOPS", "energy mJ");
    for outcome in &outcomes {
        let sim = &outcome.result.as_ref().expect("all points valid").simulation;
        println!(
            "{:>6} {:>12} {:>14.3} {:>12.3}",
            outcome.point.chip_count,
            sim.total_cycles,
            sim.pipelined_throughput_tops(),
            sim.energy_mj()
        );
    }
    let first = outcomes.first().and_then(|o| o.evaluation()).expect("single-chip point");
    let last = outcomes.last().and_then(|o| o.evaluation()).expect("four-chip point");
    assert!(
        last.simulation.pipeline_interval_cycles() < first.simulation.pipeline_interval_cycles(),
        "adding chips must shrink the pipeline bottleneck"
    );
    println!(
        "scale-out: pipeline interval {} -> {} cycles at 4 chips",
        first.simulation.pipeline_interval_cycles(),
        last.simulation.pipeline_interval_cycles()
    );
    Ok(())
}
