//! Integration tests of the user-facing configuration surfaces: the
//! architecture configuration file, the model description format and
//! architectural sweep specifications.

use cimflow::dse::SweepSpec;
use cimflow::{models, ArchConfig, CimFlow, EvalService, ServiceConfig, Strategy};
use cimflow_nn::Graph;

#[test]
fn architecture_config_files_round_trip_and_drive_the_flow() {
    let arch = ArchConfig::paper_default().with_macros_per_group(4).with_flit_bytes(16);
    let text = arch.to_json();
    let parsed = ArchConfig::from_json(&text).expect("serialized configuration re-parses");
    assert_eq!(parsed, arch);

    let flow = CimFlow::new(parsed).unwrap();
    let evaluation = flow.evaluate(&models::mobilenet_v2(32), Strategy::GenericMapping).unwrap();
    assert!(evaluation.simulation.total_cycles > 0);
}

#[test]
fn model_descriptions_round_trip_through_json() {
    let model = models::resnet18(32);
    let text = model.graph.to_json();
    let parsed = Graph::from_json(&text).expect("model description re-parses");
    assert_eq!(parsed, model.graph);
    assert_eq!(parsed.stats().total_macs, model.graph.stats().total_macs);
}

#[test]
fn invalid_configurations_are_rejected_before_compilation() {
    let mut arch = ArchConfig::paper_default();
    arch.core.cim_unit.macro_groups = 0;
    assert!(CimFlow::new(arch).is_err());
    assert!(ArchConfig::from_json("{\"chip\": {}}").is_err());
}

#[test]
fn mg_size_sweep_changes_capacity_and_performance() {
    let spec = SweepSpec::new()
        .with_base(ArchConfig::paper_default())
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 16])
        .with_flit_sizes(&[8]);
    let service = EvalService::new(ServiceConfig::new());
    let outcomes = service.submit_sweep(&spec).expect("sweep is valid").wait();
    assert_eq!(outcomes.len(), 2);
    let tops =
        |i: usize| outcomes[i].evaluation().expect("point succeeds").simulation.throughput_tops();
    let (small, large) = (tops(0), tops(1));
    assert_eq!((outcomes[0].point.mg_size, outcomes[1].point.mg_size), (4, 16));
    // Compute-heavy ResNet18 gains throughput from larger macro groups.
    assert!(large >= small * 0.95, "MG 16 {large:.3} TOPS vs MG 4 {small:.3} TOPS");
}

#[test]
fn oversized_models_report_capacity_errors_on_tiny_chips() {
    let tiny = ArchConfig::paper_default().with_core_count(1);
    let flow = CimFlow::new(tiny).unwrap();
    let result = flow.compile(&models::vgg19(224), Strategy::DpOptimized);
    assert!(result.is_err(), "143 MB of VGG19 weights cannot fit one core");
}
