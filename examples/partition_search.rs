//! Joint hierarchical partition search in five minutes: compile a
//! weight-heavy model for a 2-chip system under both `SearchMode`s,
//! compare the searched split against the sequential pass order, and
//! watch the tile-streaming hand-off overlap the chips inside one
//! inference.
//!
//! Run with `cargo run --release --example partition_search`.

use cimflow::compiler::{compile_with_options, CompileOptions};
use cimflow::sim::{HandoffMode, SimOptions, Simulator};
use cimflow::{models, ArchConfig, SearchMode, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = models::vgg19(32);
    let arch = ArchConfig::paper_default().with_chip_count(2);

    let mut compiled = Vec::new();
    for search in [SearchMode::Sequential, SearchMode::Joint] {
        let options = CompileOptions { strategy: Strategy::DpOptimized, search };
        let program = compile_with_options(&model, &arch, options)?;
        println!(
            "{search:>10}: {} candidate(s) explored, estimated interval {} cycles, split {:?}",
            program.system.explored_candidates,
            program.system.estimated_interval_cycles,
            (0..program.system.chip_count)
                .map(|chip| program.system.chip_groups(chip).len())
                .collect::<Vec<_>>(),
        );
        compiled.push((search, program));
    }
    let (_, sequential) = &compiled[0];
    let (_, joint) = &compiled[1];
    assert!(
        joint.system.estimated_interval_cycles <= sequential.system.estimated_interval_cycles,
        "the joint search is never worse than the sequential seed"
    );
    assert!(joint.system.explored_candidates > 1);
    assert_eq!(joint.report.search_candidates, joint.system.explored_candidates as usize);

    println!();
    for (search, program) in &compiled {
        let stream = Simulator::new(program).run()?;
        let retire = Simulator::with_options(
            program,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()?;
        println!(
            "{search:>10}: interval {} cycles, latency {} (streaming) vs {} (at-retirement), \
             overlap {} cycles",
            stream.pipeline_interval_cycles(),
            stream.total_cycles,
            retire.total_cycles,
            stream.total_overlap_cycles(),
        );
        assert!(stream.total_cycles <= retire.total_cycles, "streaming never slows a run down");
        assert_eq!(retire.total_overlap_cycles(), 0);
    }

    // The joint split's estimated advantage holds up in the simulator on
    // this workload.
    let sim_seq = Simulator::new(sequential).run()?;
    let sim_joint = Simulator::new(joint).run()?;
    assert!(sim_joint.pipeline_interval_cycles() <= sim_seq.pipeline_interval_cycles());
    println!(
        "\njoint search: measured pipeline interval {} -> {} cycles",
        sim_seq.pipeline_interval_cycles(),
        sim_joint.pipeline_interval_cycles()
    );
    Ok(())
}
