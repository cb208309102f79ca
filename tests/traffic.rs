//! Cross-crate acceptance tests of the online-inference traffic path:
//! deterministic workload generation (`cimflow-traffic`), the
//! simulator's serving mode, and the DSE layer's offered-QPS axis with
//! its `{p99_latency_us, energy}` Pareto objective.
//!
//! The load-dependence properties here are the serving-mode analogue of
//! the replay bit-exactness suite: an idle server must report exactly
//! the single-inference latency, tail latency must never improve when
//! the offered rate rises, and goodput must plateau at the pipeline's
//! saturation rate instead of growing without bound.

use cimflow::compiler::compile;
use cimflow::dse::{
    analysis, export, EvalCache, EvalService, ServiceConfig, SweepSpec, TrafficSpec,
};
use cimflow::sim::{ServingReport, Simulator};
use cimflow::{models, ArchConfig, ServeModel, SimReport, Strategy, WorkloadSpec};

/// The single-inference report of mobilenetv2@32 on the paper default.
fn single() -> SimReport {
    let arch = ArchConfig::paper_default();
    let compiled = compile(&models::mobilenet_v2(32), &arch, Strategy::GenericMapping).unwrap();
    Simulator::new(&compiled).run().unwrap()
}

/// Serves the default Poisson workload for the model of `single` at the
/// given offered rate.
fn serve_at(single: &SimReport, offered_qps: u64, requests: u64) -> ServingReport {
    let workload = WorkloadSpec { requests, ..WorkloadSpec::default() };
    let served = [ServeModel { name: "mobilenetv2@32".to_owned(), single: single.clone() }];
    Simulator::serve(&served, &workload, offered_qps).unwrap()
}

/// Acceptance: at a trickle of traffic every request finds the system
/// idle, so per-request latency is bit-consistent with the offline
/// single-inference `SimReport` — not approximately, exactly.
#[test]
fn idle_serving_latency_is_bit_consistent_with_the_single_inference_report() {
    let single = single();
    let report = serve_at(&single, 2, 16);
    assert_eq!(
        report.latency.min, single.total_cycles,
        "idle serving latency must equal the offline SimReport cycle count exactly"
    );
    assert_eq!(report.latency.max, single.total_cycles);
    assert_eq!(report.latency.p50, report.latency.p99);
    assert_eq!(report.per_model[0].single.total_cycles, single.total_cycles);
    assert_eq!(report.requests, 16);
}

/// Property: the 99th-percentile latency is monotone non-decreasing in
/// the offered rate. Queueing and batching can only delay a request —
/// raising the arrival rate over the same workload must never make the
/// tail faster.
#[test]
fn p99_latency_is_monotone_in_the_offered_rate() {
    let rates = [50u64, 500, 5_000, 50_000, 500_000];
    let single = single();
    let p99s: Vec<u64> = rates.iter().map(|&qps| serve_at(&single, qps, 64).latency.p99).collect();
    for pair in p99s.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "p99 must be monotone non-decreasing in offered QPS: {p99s:?} for rates {rates:?}"
        );
    }
    // The sweep actually exercises load: the overloaded tail must be
    // strictly worse than the idle tail, not a constant sequence.
    assert!(p99s[0] < p99s[p99s.len() - 1], "the rate sweep never left the idle regime: {p99s:?}");
}

/// Property: goodput tracks the offered rate while under saturation and
/// plateaus at the pipeline-bound saturation rate once the queue is the
/// bottleneck — offering twice the traffic must not mint throughput.
#[test]
fn goodput_plateaus_at_the_pipeline_saturation_rate() {
    let single = single();
    let saturated = serve_at(&single, 5_000_000, 64);
    assert!(saturated.saturation_qps > 0.0);
    let error = (saturated.goodput_qps - saturated.saturation_qps).abs();
    assert!(
        error <= 0.20 * saturated.saturation_qps,
        "overloaded goodput {:.1} qps must plateau at the saturation rate {:.1} qps",
        saturated.goodput_qps,
        saturated.saturation_qps
    );
    let doubled = serve_at(&single, 10_000_000, 64);
    let drift = (doubled.goodput_qps - saturated.goodput_qps).abs();
    assert!(
        drift <= 0.10 * saturated.goodput_qps,
        "doubling an already-saturating rate must not change goodput: {:.1} vs {:.1}",
        saturated.goodput_qps,
        doubled.goodput_qps
    );
    // Below saturation the server keeps up and goodput is rate-bound,
    // pinned well under the plateau.
    let light = serve_at(&single, 100, 64);
    assert!(light.goodput_qps < saturated.goodput_qps);
}

/// Acceptance: two models co-located on a 4-chip system, swept over the
/// offered-QPS axis, export a non-degenerate `{p99_latency_us, energy}`
/// Pareto frontier — serving metrics fill for every point, both models
/// appear in the per-model frontier, and the tail latency genuinely
/// varies along the rate axis.
#[test]
fn colocated_qps_sweep_exports_a_nondegenerate_p99_energy_frontier() {
    let spec = SweepSpec::new()
        .with_model("mobilenetv2", 32)
        .with_model("resnet18", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_chip_counts(&[4])
        .with_traffic(
            TrafficSpec::new(&[200, 20_000, 2_000_000])
                .with_workload(WorkloadSpec { requests: 32, ..WorkloadSpec::default() })
                .colocated(),
        );
    let cache = EvalCache::new();
    let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
    let outcomes = service.submit_sweep(&spec).unwrap().wait();
    assert_eq!(outcomes.len(), 6, "2 models x 3 offered rates");
    for outcome in &outcomes {
        let serving = outcome
            .evaluation()
            .and_then(|e| e.serving.as_ref())
            .unwrap_or_else(|| panic!("point {:?} must carry serving metrics", outcome.point));
        assert_eq!(serving.offered_qps, outcome.point.offered_qps);
        assert_eq!(serving.colocated, 2, "both models share the 4-chip system");
        assert!(serving.p99_latency_us > 0.0);
        assert!(serving.energy_mj.is_finite() && serving.energy_mj > 0.0);
    }

    let frontier = analysis::pareto_frontier_with(&outcomes, analysis::Objective::P99Latency);
    assert!(!frontier.is_empty());
    let by_model =
        analysis::pareto_frontier_by_model_with(&outcomes, analysis::Objective::P99Latency);
    assert_eq!(by_model.len(), 2, "each co-located model owns a frontier");

    // Non-degenerate: the rate axis must spread the tail — per model, the
    // swept points cover more than one distinct p99 value.
    for model in ["mobilenetv2", "resnet18"] {
        let mut p99s: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.point.model.name == model)
            .filter_map(|o| o.evaluation()?.serving.as_ref())
            .map(|s| s.p99_latency_ns())
            .collect();
        p99s.sort_unstable();
        p99s.dedup();
        assert!(p99s.len() >= 2, "{model}: p99 must vary along the QPS axis, got {p99s:?}");
    }

    // The exporter agrees with the analysis layer: serving columns fill
    // and at least one row per model is flagged on the p99 frontier.
    let rows = export::rows(&outcomes);
    for model in ["mobilenetv2", "resnet18"] {
        assert!(
            rows.iter().any(|r| r.model == model && r.pareto_p99),
            "{model} must have a p99-frontier row"
        );
    }
    let csv = export::to_csv(&outcomes);
    assert!(csv.lines().next().unwrap().contains("p99_latency_us"));
}
