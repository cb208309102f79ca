//! Cross-crate observability integration: a metered service run feeds
//! one shared registry/tracer through the facade re-exports, and the
//! Chrome `trace_event` export — hand-built by `cimflow-obs` without a
//! JSON library — parses back through the workspace's serde_json and
//! stays coherent with the simulator's own report.

use cimflow::compiler::{compile_with_options, CompileOptions};
use cimflow::obs::MetricValue;
use cimflow::sim::{SimOptions, Simulator};
use cimflow::{models, ArchConfig, MetricsRegistry, Strategy, Tracer};
use cimflow_serve::{EvalService, ServiceConfig, Submission, SweepSpec};
use serde_json::Value;

/// Looks up a key in a JSON object node.
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_map()
        .unwrap_or_else(|| panic!("expected an object around `{key}`"))
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(v) => *v,
        other => panic!("expected an integer, got {other:?}"),
    }
}

#[test]
fn a_metered_service_run_feeds_the_registry_and_a_parseable_trace() {
    let registry = MetricsRegistry::new();
    let tracer = Tracer::new(4096);
    let service = EvalService::new(
        ServiceConfig::new()
            .with_workers(2)
            .with_metrics(registry.clone())
            .with_tracer(tracer.clone()),
    );
    let spec = SweepSpec::new()
        .with_model("mobilenetv2", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[4, 8]);
    let jobs = cimflow_dse::expand_jobs(&spec).expect("valid spec");
    let submission = Submission { jobs, tenant: Some("obs".to_owned()), ..Submission::default() };
    let outcomes = service.submit_batch(submission).expect("admitted").wait();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));

    // The service's instruments landed in the caller's registry.
    let snapshot = service.metrics_snapshot();
    assert_eq!(snapshot.get("service.evals_completed", &[]), Some(&MetricValue::Counter(2)));
    match snapshot.get("service.eval_latency_us", &[("tenant", "obs")]) {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
        other => panic!("expected a latency histogram, got {other:?}"),
    }
    let exposition = service.render_metrics();
    assert!(exposition.contains("service_evals_completed 2"));
    assert!(exposition.contains("service_eval_latency_us_count{tenant=\"obs\"} 2"));

    // The trace export round-trips through the JSON parser: two `eval`
    // spans in the `service` category plus thread-name metadata.
    let parsed: Value = serde_json::from_str(&tracer.to_chrome_json()).expect("valid JSON");
    let events = field(&parsed, "traceEvents").as_seq().expect("traceEvents is an array");
    let evals = events
        .iter()
        .filter(|e| {
            field(e, "ph").as_str() == Some("X")
                && field(e, "cat").as_str() == Some("service")
                && field(e, "name").as_str() == Some("eval")
        })
        .count();
    assert_eq!(evals, 2);
    assert!(events.iter().any(|e| field(e, "ph").as_str() == Some("M")
        && field(e, "name").as_str() == Some("thread_name")));
}

#[test]
fn a_profiled_two_chip_simulation_exports_a_coherent_chrome_timeline() {
    let model = models::vgg19(32);
    let arch = ArchConfig::paper_default().with_chip_count(2);
    let options = CompileOptions { strategy: Strategy::DpOptimized, ..CompileOptions::default() };
    let program = compile_with_options(&model, &arch, options).expect("compiles");

    let tracer = Tracer::new(1 << 16);
    let mut simulator =
        Simulator::with_options(&program, SimOptions { profile: true, ..SimOptions::default() });
    simulator.set_tracer(&tracer);
    let report = simulator.run().expect("simulates");

    let parsed: Value = serde_json::from_str(&tracer.to_chrome_json()).expect("valid JSON");
    let events = field(&parsed, "traceEvents").as_seq().expect("traceEvents is an array");

    // The cycle-domain chip-busy spans agree with the report exactly,
    // chip by chip.
    let mut busy = vec![0u64; report.chip_cycles.len()];
    for event in events {
        if field(event, "ph").as_str() == Some("X")
            && field(event, "cat").as_str() == Some("sim.chip")
        {
            let chip = as_u64(field(field(event, "args"), "chip")) as usize;
            busy[chip] += as_u64(field(event, "dur"));
        }
    }
    assert_eq!(busy, report.chip_cycles, "trace busy spans mirror the report");

    // Every event fits inside the simulated run.
    for event in events {
        if field(event, "ph").as_str() == Some("X") {
            let end = as_u64(field(event, "ts")) + as_u64(field(event, "dur"));
            assert!(end <= report.total_cycles, "event past the end of the run");
        }
    }
}
