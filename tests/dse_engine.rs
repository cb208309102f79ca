//! Cross-crate integration tests of the `cimflow-dse` engine: the
//! acceptance scenario of the subsystem — a ≥3-axis × 2-model sweep
//! through the evaluation service that survives injected invalid
//! configurations, exports CSV/JSON, yields a non-empty Pareto frontier
//! and performs zero recompilations on a warm cache.

use cimflow::Strategy;
use cimflow_dse::{analysis, export, EvalService, ServiceConfig, SweepSpec};

fn acceptance_spec() -> SweepSpec {
    // Three architecture axes (mg, flit, core count) × two models, with an
    // invalid macro-group size injected.
    SweepSpec::new()
        .named("acceptance")
        .with_model("mobilenetv2", 32)
        .with_model("efficientnetb0", 32)
        .with_strategies(&[Strategy::GenericMapping])
        .with_mg_sizes(&[0, 8])
        .with_flit_sizes(&[8, 16])
        .with_core_counts(&[16, 64])
}

#[test]
fn three_axis_sweep_survives_invalid_points_and_yields_a_frontier() {
    let spec = acceptance_spec();
    let service = EvalService::new(ServiceConfig::new().with_workers(4));
    let outcomes = service.submit_sweep(&spec).expect("spec is valid").wait();
    assert_eq!(outcomes.len(), 2 * 2 * 2 * 2);

    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
    let succeeded = outcomes.len() - failed;
    assert_eq!(failed, 8, "every mg=0 point fails, reported per point");
    assert_eq!(succeeded, 8, "every valid point survives the injected failures");

    let frontier = analysis::pareto_frontier(&outcomes);
    assert!(!frontier.is_empty(), "a successful sweep has a non-empty Pareto frontier");
    for &index in &frontier {
        assert!(outcomes[index].result.is_ok());
    }
    let by_model = analysis::pareto_frontier_by_model(&outcomes);
    assert_eq!(by_model.len(), 2, "each model gets its own frontier");
    assert!(by_model.values().all(|f| !f.is_empty()));

    // CSV and JSON exports carry every point including the failed ones.
    let csv = export::to_csv(&outcomes);
    assert_eq!(csv.trim_end().lines().count(), outcomes.len() + 1);
    assert!(csv.contains(",error,"), "failed points are exported with their error");
    let json = export::to_json(&outcomes);
    let rows: serde_json::Value = serde_json::from_str(&json).expect("JSON export parses");
    assert_eq!(rows.as_seq().expect("array export").len(), outcomes.len());

    let best = analysis::best_per_model(&outcomes);
    assert_eq!(best.len(), 2, "one best configuration per model");
}

#[test]
fn warm_cache_rerun_performs_zero_recompilations() {
    let spec = acceptance_spec();
    let service = EvalService::new(ServiceConfig::new().with_workers(4));
    let cache = service.cache();
    let cold = service.submit_sweep(&spec).expect("spec is valid").wait();
    let cold_misses = cache.stats().misses;
    let failed = cold.iter().filter(|o| o.result.is_err()).count() as u64;

    let warm = service.submit_sweep(&spec).expect("spec is valid").wait();
    // Failed points are never cached (they abort before compiling), so
    // only they may re-miss; every successful point is a warm hit — i.e.
    // the warm run performs zero recompilations.
    assert_eq!(cache.stats().misses, cold_misses + failed, "no successful point re-evaluates");
    assert_eq!(cache.stats().hits, (cold.len() as u64) - failed);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.point, w.point);
        if let (Some(c), Some(w)) = (c.evaluation(), w.evaluation()) {
            assert!(w.simulation == c.simulation, "cached results are bit-identical");
        }
    }
    assert!(warm.iter().all(|o| o.cached || o.result.is_err()));
}
