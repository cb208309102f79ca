//! Cross-crate acceptance tests of the multi-chip system level: the
//! scale-out path from `SystemConfig` through chip partitioning,
//! per-chip compilation, the inter-chip fabric in the simulator, and the
//! chip-count sweep axis of the DSE engine.

use cimflow::{models, ArchConfig, CimFlow, SearchMode, Strategy};
use cimflow_dse::{export, CacheKey, EvalCache, EvalService, ServiceConfig, SweepSpec};

/// The headline workload class the system level unlocks: a model whose
/// weights exceed one chip's CIM arrays compiles and simulates on two or
/// more chips.
#[test]
fn workloads_exceeding_one_chip_scale_out() {
    let model = models::vgg19(32);
    let single = ArchConfig::paper_default();
    assert!(
        model.graph.stats().total_weight_bytes > single.chip_weight_capacity_bytes(),
        "vgg19 must overflow one chip's arrays for this scenario"
    );
    for chips in [2u32, 4] {
        let arch = single.with_chip_count(chips);
        assert!(
            model.graph.stats().total_weight_bytes <= arch.system_weight_capacity_bytes()
                || chips == 2,
            "the system capacity grows with the chip count"
        );
        let flow = CimFlow::new(arch).unwrap();
        let compiled = flow.compile(&model, Strategy::DpOptimized).unwrap();
        assert_eq!(compiled.per_core.len(), (64 * chips) as usize);
        assert!(!compiled.system.transfers.is_empty());
        let evaluation = flow.evaluate(&model, Strategy::DpOptimized).unwrap();
        assert!(evaluation.simulation.total_cycles > 0);
        assert_eq!(evaluation.simulation.chip_count, chips);
        assert!(evaluation.simulation.energy.interchip_pj > 0.0);
        assert!(evaluation.simulation.interchip.packets > 0);
    }
}

/// `chip_count = 1` is the untouched fast path: explicitly wrapping the
/// paper architecture in a single-chip system reproduces the historical
/// results exactly, cycle for cycle and picojoule for picojoule.
#[test]
fn single_chip_systems_reproduce_the_historical_numbers() {
    let model = models::mobilenet_v2(32);
    let baseline = CimFlow::with_default_arch().evaluate(&model, Strategy::DpOptimized).unwrap();
    let explicit = ArchConfig::paper_default().with_chip_count(1);
    let wrapped = CimFlow::new(explicit).unwrap().evaluate(&model, Strategy::DpOptimized).unwrap();
    assert_eq!(wrapped.simulation.total_cycles, baseline.simulation.total_cycles);
    assert_eq!(wrapped.simulation.noc, baseline.simulation.noc);
    assert!(
        (wrapped.simulation.energy.total_pj() - baseline.simulation.energy.total_pj()).abs() < 1e-9
    );
    // And it hits the same cache slot as the historical configuration.
    assert_eq!(
        CacheKey::of(&explicit, &model, Strategy::DpOptimized, SearchMode::Sequential),
        CacheKey::of(
            &ArchConfig::paper_default(),
            &model,
            Strategy::DpOptimized,
            SearchMode::Sequential
        ),
    );
}

/// The chip-count axis runs end-to-end through the engine from the
/// shipped JSON spec: per-chip-count rows in both exporters and distinct
/// cache keys per chip count.
#[test]
fn multichip_sweep_spec_runs_end_to_end_with_distinct_cache_keys() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("sweeps/multichip.json"),
    )
    .expect("shipped sweep spec is readable");
    let spec = SweepSpec::from_json(&text).unwrap();
    assert_eq!(spec.chip_counts, vec![1, 2, 4]);

    let cache = EvalCache::new();
    let service = EvalService::with_cache(ServiceConfig::new().with_workers(2), cache.clone());
    let outcomes = service.submit_sweep(&spec).unwrap().wait();
    assert_eq!(outcomes.len(), 2 * 3, "two models x three chip counts");
    assert!(outcomes.iter().all(|o| o.result.is_ok()), "every point evaluates");
    // Distinct cache keys per chip count: six points, six cache entries.
    assert_eq!(cache.len(), 6);

    // Per-chip-count rows in the CSV export …
    let csv = export::to_csv(&outcomes);
    let header = csv.lines().next().unwrap();
    assert!(header.contains("chip_count"));
    for chips in [1, 2, 4] {
        for model in ["vgg19", "resnet18"] {
            assert!(
                csv.lines().any(|l| l.contains(&format!("{model},32,dp,sequential,{chips},"))),
                "CSV misses the {model} x {chips}-chip row:\n{csv}"
            );
        }
    }
    // … and in the JSON export.
    let json: serde_json::Value = serde_json::from_str(&export::to_json(&outcomes)).unwrap();
    let rows = json.as_seq().expect("array of rows");
    assert_eq!(rows.len(), 6);
    let chip_counts: Vec<u64> = rows
        .iter()
        .map(|row| {
            row.as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "chip_count"))
                .and_then(|(_, v)| match v {
                    serde_json::Value::U64(n) => Some(*n),
                    _ => None,
                })
                .expect("chip_count column present")
        })
        .collect();
    for chips in [1u64, 2, 4] {
        assert_eq!(chip_counts.iter().filter(|c| **c == chips).count(), 2);
    }

    // Scaling sanity on the weight-heavy model: more chips, smaller
    // pipeline bottleneck.
    let vgg: Vec<_> = outcomes.iter().filter(|o| o.point.model.name == "vgg19").collect();
    let interval = |o: &&cimflow_dse::DseOutcome| {
        o.evaluation().unwrap().simulation.pipeline_interval_cycles()
    };
    assert!(interval(&vgg[2]) < interval(&vgg[0]));
}
