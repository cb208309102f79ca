//! Result exporters: flat per-point rows as CSV or JSON.

use serde::Serialize;

use crate::{analysis, DseOutcome};

/// One flattened result row of a sweep report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRow {
    /// Grid index of the point.
    pub index: usize,
    /// Model name.
    pub model: String,
    /// Input resolution.
    pub resolution: u32,
    /// Strategy short name.
    pub strategy: String,
    /// System-level search mode (`sequential` or `joint`).
    pub search: String,
    /// Number of chips.
    pub chip_count: u64,
    /// Per-chip core count.
    pub core_count: u64,
    /// Per-core local memory in KiB.
    pub local_memory_kib: u64,
    /// NoC flit size in bytes.
    pub flit_bytes: u64,
    /// Macro-group size.
    pub mg_size: u64,
    /// Operating frequency in MHz (timing-only axis).
    pub frequency_mhz: u64,
    /// Global-memory port core index (timing-only axis).
    pub memory_port: u64,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// Whether the evaluation came from the cache.
    pub cached: bool,
    /// How the report was produced: `"interpreted"` (full simulation) or
    /// `"replayed"` (bit-exact trace replay); empty for failed points.
    pub eval_path: String,
    /// Execution cycles (0 on error).
    pub cycles: u64,
    /// Energy in millijoules (0 on error).
    pub energy_mj: f64,
    /// Throughput in TOPS (0 on error).
    pub tops: f64,
    /// Energy efficiency in TOPS/W (0 on error).
    pub tops_per_watt: f64,
    /// Pipeline stages chosen by the partitioner (0 on error).
    pub stages: usize,
    /// Mean duplication factor (0 on error).
    pub mean_duplication: f64,
    /// Offered request rate in QPS (0 when the point ran without a
    /// traffic workload — the serving columns below are then all 0).
    pub offered_qps: u64,
    /// Serving p99 request latency in microseconds (0 when unserved).
    pub p99_latency_us: f64,
    /// Serving goodput in completed requests per second (0 when unserved).
    pub goodput_qps: f64,
    /// Estimated saturation throughput in QPS (0 when unserved).
    pub saturation_qps: f64,
    /// Energy of the whole serving run in millijoules (0 when unserved).
    pub serving_energy_mj: f64,
    /// Whether the point is on its model's (cycles, energy) Pareto
    /// frontier (frontiers are computed per model — cross-workload
    /// domination is meaningless).
    pub pareto: bool,
    /// Whether the point is on its model's (p99 latency, serving
    /// energy) Pareto frontier; always `false` for unserved points.
    pub pareto_p99: bool,
    /// The error message for failed points (`None` when ok).
    pub error: Option<String>,
}

/// Flattens outcomes into report rows (per-model Pareto membership
/// included).
pub fn rows(outcomes: &[DseOutcome]) -> Vec<SweepRow> {
    let frontier: std::collections::BTreeSet<usize> =
        analysis::pareto_frontier_by_model(outcomes).into_values().flatten().collect();
    let p99_frontier: std::collections::BTreeSet<usize> =
        analysis::pareto_frontier_by_model_with(outcomes, analysis::Objective::P99Latency)
            .into_values()
            .flatten()
            .collect();
    outcomes
        .iter()
        .enumerate()
        .map(|(index, outcome)| {
            let point = &outcome.point;
            let mut row = SweepRow {
                index,
                model: point.model.name.clone(),
                resolution: point.model.resolution,
                strategy: point.strategy.name().to_owned(),
                search: point.search.name().to_owned(),
                chip_count: point.chip_count,
                core_count: point.core_count,
                local_memory_kib: point.local_memory_kib,
                flit_bytes: point.flit_bytes,
                mg_size: point.mg_size,
                frequency_mhz: point.frequency_mhz,
                memory_port: point.memory_port,
                status: "error".to_owned(),
                cached: outcome.cached,
                eval_path: String::new(),
                cycles: 0,
                energy_mj: 0.0,
                tops: 0.0,
                tops_per_watt: 0.0,
                stages: 0,
                mean_duplication: 0.0,
                offered_qps: point.offered_qps,
                p99_latency_us: 0.0,
                goodput_qps: 0.0,
                saturation_qps: 0.0,
                serving_energy_mj: 0.0,
                pareto: frontier.contains(&index),
                pareto_p99: p99_frontier.contains(&index),
                error: None,
            };
            match &outcome.result {
                Ok(evaluation) => {
                    row.status = "ok".to_owned();
                    row.eval_path = evaluation.eval_path.name().to_owned();
                    row.cycles = evaluation.simulation.total_cycles;
                    row.energy_mj = evaluation.simulation.energy_mj();
                    row.tops = evaluation.simulation.throughput_tops();
                    row.tops_per_watt = evaluation.simulation.tops_per_watt();
                    row.stages = evaluation.stages;
                    row.mean_duplication = evaluation.mean_duplication;
                    if let Some(serving) = &evaluation.serving {
                        row.p99_latency_us = serving.p99_latency_us;
                        row.goodput_qps = serving.goodput_qps;
                        row.saturation_qps = serving.saturation_qps;
                        row.serving_energy_mj = serving.energy_mj;
                    }
                }
                Err(e) => {
                    row.error = Some(e.to_string());
                }
            }
            row
        })
        .collect()
}

/// CSV column order (kept in sync with [`to_csv`]).
pub const CSV_HEADER: &str = "index,model,resolution,strategy,search,chip_count,core_count,\
local_memory_kib,flit_bytes,mg_size,frequency_mhz,memory_port,status,cached,eval_path,cycles,\
energy_mj,tops,tops_per_watt,stages,mean_duplication,offered_qps,p99_latency_us,goodput_qps,\
saturation_qps,serving_energy_mj,pareto,pareto_p99,error";

/// Renders outcomes as a CSV document (header + one row per point).
pub fn to_csv(outcomes: &[DseOutcome]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows(outcomes) {
        let error = row.error.as_deref().unwrap_or("");
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.4},{:.4},{},{:.3},{},\
             {:.3},{:.3},{:.3},{:.6},{},{},{}\n",
            row.index,
            csv_escape(&row.model),
            row.resolution,
            row.strategy,
            row.search,
            row.chip_count,
            row.core_count,
            row.local_memory_kib,
            row.flit_bytes,
            row.mg_size,
            row.frequency_mhz,
            row.memory_port,
            row.status,
            row.cached,
            row.eval_path,
            row.cycles,
            row.energy_mj,
            row.tops,
            row.tops_per_watt,
            row.stages,
            row.mean_duplication,
            row.offered_qps,
            row.p99_latency_us,
            row.goodput_qps,
            row.saturation_qps,
            row.serving_energy_mj,
            row.pareto,
            row.pareto_p99,
            csv_escape(error),
        ));
    }
    out
}

/// Renders outcomes as a pretty-printed JSON array of row objects.
pub fn to_json(outcomes: &[DseOutcome]) -> String {
    serde_json::to_string_pretty(&rows(outcomes)).expect("row serialization cannot fail")
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalService, ServiceConfig, SweepSpec};
    use cimflow_compiler::Strategy;

    fn run(spec: &SweepSpec) -> Vec<DseOutcome> {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        service.submit_sweep(spec).unwrap().wait()
    }

    fn outcomes() -> Vec<DseOutcome> {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[8, 0]); // one valid point, one invalid
        run(&spec)
    }

    #[test]
    fn csv_contains_every_point_with_status() {
        let csv = to_csv(&outcomes());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows: {csv}");
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].contains(",ok,"));
        assert!(lines[1].contains(",interpreted,"));
        assert!(lines[2].contains(",error,"));
        assert!(lines[2].contains(",error,false,,"), "failed rows leave eval_path empty");
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "row arity matches header"
        );
    }

    #[test]
    fn json_rows_round_trip_shape() {
        let json = to_json(&outcomes());
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let rows = value.as_seq().expect("array of rows");
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_map().unwrap();
        assert!(first.iter().any(|(k, _)| k == "cycles"));
        assert!(first.iter().any(|(k, _)| k == "pareto"));
    }

    #[test]
    fn csv_escaping_quotes_fields() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn successful_single_point_is_on_the_frontier() {
        let rows = rows(&outcomes());
        assert!(rows[0].pareto, "the only successful point is trivially Pareto-optimal");
        assert!(!rows[1].pareto);
        assert!(!rows[1].pareto_p99, "unserved points are never p99-Pareto");
        assert!(rows[1].error.as_deref().unwrap_or("").contains("must be positive"));
    }

    #[test]
    fn serving_columns_fill_for_traffic_sweeps() {
        use crate::TrafficSpec;
        use cimflow_traffic::WorkloadSpec;

        let workload = WorkloadSpec { requests: 32, ..WorkloadSpec::default() };
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_traffic(TrafficSpec::new(&[100]).with_workload(workload));
        let outcomes = run(&spec);
        let rows = rows(&outcomes);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].offered_qps, 100);
        assert!(rows[0].p99_latency_us > 0.0, "{rows:?}");
        assert!(rows[0].goodput_qps > 0.0);
        assert!(rows[0].saturation_qps > 0.0);
        assert!(rows[0].serving_energy_mj > 0.0);
        assert!(rows[0].pareto_p99, "the only served point is trivially p99-Pareto");

        let csv = to_csv(&outcomes);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[0].contains("p99_latency_us,goodput_qps"));
    }
}
