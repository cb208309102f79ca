//! The single-point evaluation primitive: `model + architecture +
//! strategy → compile → simulate → Evaluation`.
//!
//! This is the unit of work the evaluation service fans out and the value
//! the evaluation cache stores. The [`Evaluation`] record used to live in
//! the `cimflow` facade crate; it moved here so that both the facade's
//! `CimFlow` workflow object and the batch engine share one definition
//! (the facade re-exports it).

use std::fmt;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{
    compile_with_options, CompileOptions, CompileReport, CompiledProgram, SearchMode, Strategy,
};
use cimflow_nn::Model;
use cimflow_sim::{
    ReplayEngine, ServeModel, ServingReport, SimError, SimOptions, SimReport, Simulator,
};
use cimflow_traffic::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::trace_store::{TraceEntry, TraceKey, TraceStore};
use crate::DseError;

/// How a design point's simulation report was produced: by a full
/// compile and simulation of the point, or by replaying a recorded trace
/// of a compile-identical point. Replay is **bit-exact** — the path is
/// provenance, not a fidelity level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EvalPath {
    /// Full `compile → simulate` run (includes the recording run that
    /// seeds a trace group).
    #[default]
    Interpreted,
    /// Timing-only replay of a previously recorded trace.
    Replayed,
}

impl EvalPath {
    /// Wire name of the path (`interpreted` / `replayed`).
    pub fn name(self) -> &'static str {
        match self {
            EvalPath::Interpreted => "interpreted",
            EvalPath::Replayed => "replayed",
        }
    }

    /// Parses a wire name.
    pub fn from_name(text: &str) -> Option<Self> {
        match text {
            "interpreted" => Some(EvalPath::Interpreted),
            "replayed" => Some(EvalPath::Replayed),
            _ => None,
        }
    }

    /// Whether the report came from the replay engine.
    pub fn is_replayed(self) -> bool {
        self == EvalPath::Replayed
    }
}

impl fmt::Display for EvalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl serde::Serialize for EvalPath {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for EvalPath {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected eval-path name string"))?;
        EvalPath::from_name(text)
            .ok_or_else(|| serde::Error::new(format!("unknown eval path `{text}`")))
    }
}

/// The serving workload of one design point, resolved for evaluation:
/// the rate-free preset plus the co-located models (each compiled — or
/// trace-replayed — on the point's architecture). The offered rate
/// itself lives on the [`PointSpec`](crate::PointSpec) as the innermost
/// sweep axis.
#[derive(Debug)]
pub struct TrafficJob {
    /// The workload preset (arrival shape, seed, horizon, batching
    /// knobs, mix).
    pub workload: WorkloadSpec,
    /// The models time-sharing the system, in mix order. Contains just
    /// the point's own model unless the sweep co-locates.
    pub colocated: Vec<(String, Arc<Model>)>,
}

/// Wire name of a served model (matches the `model` label of `traffic.*`
/// metrics and the per-model entries of a serving report).
pub(crate) fn served_model_name(name: &str, resolution: u32) -> String {
    format!("{name}@{resolution}")
}

/// SLO metrics of one design point under open-loop load — the compact,
/// cacheable summary of a [`ServingReport`]. Latency quantiles are the
/// point's **own** model's (exact nearest-rank, in µs at the point's
/// clock); goodput, saturation, queue depth and energy aggregate over
/// every co-located model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSummary {
    /// Offered request rate in requests/second.
    pub offered_qps: u64,
    /// Achieved goodput in requests/second (all models).
    pub goodput_qps: f64,
    /// Pipeline-bound saturation rate of the offered mix.
    pub saturation_qps: f64,
    /// Own-model median latency under load, µs.
    pub p50_latency_us: f64,
    /// Own-model 99th-percentile latency under load, µs.
    pub p99_latency_us: f64,
    /// Own-model worst-case latency under load, µs.
    pub max_latency_us: f64,
    /// Requests served (all models).
    pub requests: u64,
    /// Mean dispatched batch size (all models).
    pub mean_batch: f64,
    /// Deepest request backlog observed.
    pub peak_queue_depth: u64,
    /// Number of co-located models (1 = the point served alone).
    pub colocated: u64,
    /// Dynamic energy under load in millijoules (all models).
    pub energy_mj: f64,
}

impl ServingSummary {
    fn of(report: &ServingReport, own: &str) -> Self {
        // Fall back to the aggregate quantiles if the own model is
        // somehow absent (it never is when built through `serve_point`).
        let latency =
            report.per_model.iter().find(|m| m.model == own).map_or(report.latency, |m| m.latency);
        ServingSummary {
            offered_qps: report.offered_qps,
            goodput_qps: report.goodput_qps,
            saturation_qps: report.saturation_qps,
            p50_latency_us: report.cycles_to_us(latency.p50),
            p99_latency_us: report.cycles_to_us(latency.p99),
            max_latency_us: report.cycles_to_us(latency.max),
            requests: report.requests,
            mean_batch: report.mean_batch,
            peak_queue_depth: report.peak_queue_depth,
            colocated: report.per_model.len() as u64,
            energy_mj: report.energy_mj,
        }
    }

    /// Own-model p99 latency in nanoseconds (integer — the unit Pareto
    /// analysis compares serving objectives in without float keys).
    pub fn p99_latency_ns(&self) -> u64 {
        (self.p99_latency_us * 1000.0).round() as u64
    }
}

/// The result of evaluating one model on one architecture with one
/// compilation strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// Name of the evaluated model.
    pub model: String,
    /// The compilation strategy used.
    pub strategy: Strategy,
    /// The system-level search mode the compilation ran under.
    pub search: SearchMode,
    /// The architecture the evaluation ran on.
    pub arch: ArchConfig,
    /// Static compilation statistics.
    pub compilation: CompileReport,
    /// Number of execution stages chosen by the partitioner.
    pub stages: usize,
    /// Mean weight-duplication factor chosen by the mapper.
    pub mean_duplication: f64,
    /// The detailed simulation report.
    pub simulation: SimReport,
    /// How the simulation report was produced (bit-exact either way).
    pub eval_path: EvalPath,
    /// SLO metrics under open-loop load; `None` when the point ran no
    /// serving workload (sweeps without a `traffic` section).
    pub serving: Option<ServingSummary>,
}

impl Evaluation {
    /// Normalized-speed helper: the speedup of this evaluation relative to
    /// a baseline evaluation of the same model (Fig. 5's y-axis).
    pub fn speedup_over(&self, baseline: &Evaluation) -> f64 {
        if self.simulation.total_cycles == 0 {
            return 0.0;
        }
        baseline.simulation.total_cycles as f64 / self.simulation.total_cycles as f64
    }

    /// Normalized-energy helper: the energy of this evaluation relative to
    /// a baseline evaluation of the same model (Fig. 5's lower panel).
    pub fn energy_ratio_over(&self, baseline: &Evaluation) -> f64 {
        let base = baseline.simulation.energy.total_pj();
        if base <= 0.0 {
            return 0.0;
        }
        self.simulation.energy.total_pj() / base
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}] — {} stages, mean duplication {:.2}",
            self.model, self.strategy, self.stages, self.mean_duplication
        )?;
        write!(f, "{}", self.simulation)
    }
}

/// Runs the full `compile → simulate` pipeline for one design point
/// under a system-level [`SearchMode`].
///
/// # Errors
///
/// Returns the architecture-validation, compilation or simulation failure
/// of the point. Callers sweeping a grid should capture this per point
/// (see [`EvalService`](crate::EvalService)) rather than aborting the
/// sweep.
pub fn evaluate_with_search(
    arch: &ArchConfig,
    model: &Model,
    strategy: Strategy,
    search: SearchMode,
) -> Result<Evaluation, DseError> {
    arch.validate()?;
    let options = CompileOptions { strategy, search, ..CompileOptions::default() };
    let compiled = compile_with_options(model, arch, options)?;
    let simulation = Simulator::new(&compiled).run()?;
    Ok(Evaluation {
        model: model.name.clone(),
        strategy,
        search,
        arch: *arch,
        compilation: compiled.report.clone(),
        stages: compiled.plan.stages.len(),
        mean_duplication: compiled.plan.mean_duplication(),
        simulation,
        eval_path: EvalPath::Interpreted,
        serving: None,
    })
}

/// [`evaluate_with_search`] through a shared [`TraceStore`]: the first
/// point of a trace group compiles and *records* (its report comes from
/// the recording run — [`EvalPath::Interpreted`]); every
/// later point with the same [`TraceKey`] skips compilation entirely and
/// replays the recorded trace ([`EvalPath::Replayed`]), which is
/// bit-exact by construction.
///
/// If the replay engine refuses the point (it never approximates — see
/// [`cimflow_sim::SimError::TraceMismatch`]), the point transparently
/// falls back to the full `compile → simulate` pipeline.
///
/// # Errors
///
/// See [`evaluate_with_search`].
pub(crate) fn evaluate_traced(
    arch: &ArchConfig,
    model: &Model,
    strategy: Strategy,
    search: SearchMode,
    traces: &TraceStore,
) -> Result<Evaluation, DseError> {
    arch.validate()?;
    let key = TraceKey::of(arch, model, strategy, search);
    let mut recorded_report = None;
    let (entry, recorded_here) = traces.get_or_record_with(key, || {
        let options = CompileOptions { strategy, search, ..CompileOptions::default() };
        let compiled = compile_with_options(model, arch, options)?;
        let (trace, report) = Simulator::record(&compiled)?;
        recorded_report = Some(report);
        Ok(TraceEntry {
            trace,
            compilation: compiled.report.clone(),
            stages: compiled.plan.stages.len(),
            mean_duplication: compiled.plan.mean_duplication(),
        })
    })?;
    let build = |simulation: SimReport, eval_path: EvalPath| Evaluation {
        model: model.name.clone(),
        strategy,
        search,
        arch: *arch,
        compilation: entry.compilation.clone(),
        stages: entry.stages,
        mean_duplication: entry.mean_duplication,
        simulation,
        eval_path,
        serving: None,
    };
    if recorded_here {
        let report = recorded_report.expect("recording produced a report");
        return Ok(build(report, EvalPath::Interpreted));
    }
    match ReplayEngine::new(&entry.trace).replay(arch, SimOptions::default()) {
        Ok(report) => Ok(build(report, EvalPath::Replayed)),
        // The replay engine never approximates: any refusal (or runtime
        // fault) sends the point through the full pipeline instead.
        Err(_) => evaluate_with_search(arch, model, strategy, search),
    }
}

/// Re-times one recorded trace for a whole group of timing-only points
/// with a single lockstep [`ReplayEngine::replay_batch_stats`] call —
/// the service's trace-group fast path. Every member must share the
/// entry's [`TraceKey`]; compile-side facts are cloned from the entry
/// exactly as [`evaluate_traced`] does. Each member gets its own result
/// (a refused or failed member errs individually so the caller can fall
/// back to the full pipeline for just that point), plus the batch's
/// lockstep counters.
pub(crate) fn evaluate_replay_group(
    entry: &TraceEntry,
    model: &Model,
    strategy: Strategy,
    search: SearchMode,
    arches: &[ArchConfig],
) -> (Vec<Result<Evaluation, SimError>>, cimflow_sim::LockstepStats) {
    let engine = ReplayEngine::new(&entry.trace);
    let points: Vec<(ArchConfig, SimOptions)> =
        arches.iter().map(|arch| (*arch, SimOptions::default())).collect();
    let (reports, stats) = engine.replay_batch_stats(&points);
    let evaluations = arches
        .iter()
        .zip(reports)
        .map(|(arch, report)| {
            report.map(|simulation| Evaluation {
                model: model.name.clone(),
                strategy,
                search,
                arch: *arch,
                compilation: entry.compilation.clone(),
                stages: entry.stages,
                mean_duplication: entry.mean_duplication,
                simulation,
                eval_path: EvalPath::Replayed,
                serving: None,
            })
        })
        .collect();
    (evaluations, stats)
}

/// Runs the serving-mode simulator for one design point: every
/// co-located model of `traffic` is sourced from the shared
/// [`TraceStore`] when one is available (the first point of a trace
/// group records, every later point — and every other offered rate of
/// the same design — replays the recorded trace), falling back to a
/// fresh compile per model otherwise.
///
/// `own` is the point's own model spec; its per-model latency quantiles
/// become the summary's SLO numbers.
///
/// # Errors
///
/// Compilation/simulation failures of any co-located model, or
/// [`SimError::Traffic`] (as [`DseError::Simulation`]) for unusable
/// workloads.
pub(crate) fn serve_point(
    arch: &ArchConfig,
    strategy: Strategy,
    search: SearchMode,
    traffic: &TrafficJob,
    offered_qps: u64,
    own: &crate::ModelSpec,
    traces: Option<&TraceStore>,
) -> Result<ServingSummary, DseError> {
    let held = hold_sources(arch, strategy, search, traffic, traces)?;
    let serve = |held: &[(String, Held)]| {
        Simulator::serve(
            &serve_models(held, arch),
            &traffic.workload,
            offered_qps,
            SimOptions::default(),
        )
    };
    let report = match serve(&held) {
        Ok(report) => report,
        // The replay engine never approximates: a refused trace sends
        // every model through a fresh compile instead.
        Err(SimError::TraceMismatch { .. }) => {
            serve(&recompile_sources(arch, strategy, search, traffic)?)?
        }
        Err(e) => return Err(e.into()),
    };
    Ok(ServingSummary::of(&report, &served_model_name(&own.name, own.resolution)))
}

/// [`serve_point`] for a whole co-located rate ladder: the program
/// sources are pinned **once** and every rung reuses the same
/// single-inference reports through [`Simulator::serve_ladder`] — the
/// service's ladder-group fast path. Rung-level failures (e.g. a
/// zero-QPS rung) err individually.
///
/// # Errors
///
/// Same conditions as [`serve_point`], for failures that sink the whole
/// ladder (unresolvable sources, refused traces even after recompiling).
pub(crate) fn serve_ladder_points(
    arch: &ArchConfig,
    strategy: Strategy,
    search: SearchMode,
    traffic: &TrafficJob,
    rates: &[u64],
    own: &crate::ModelSpec,
    traces: Option<&TraceStore>,
) -> Result<Vec<Result<ServingSummary, DseError>>, DseError> {
    let held = hold_sources(arch, strategy, search, traffic, traces)?;
    let ladder = |held: &[(String, Held)]| {
        Simulator::serve_ladder(
            &serve_models(held, arch),
            &traffic.workload,
            rates,
            SimOptions::default(),
        )
    };
    let reports = match ladder(&held) {
        Ok(reports) => reports,
        Err(SimError::TraceMismatch { .. }) => {
            ladder(&recompile_sources(arch, strategy, search, traffic)?)?
        }
        Err(e) => return Err(e.into()),
    };
    let own_name = served_model_name(&own.name, own.resolution);
    Ok(reports
        .into_iter()
        .map(|rung| {
            rung.map(|report| ServingSummary::of(&report, &own_name)).map_err(DseError::from)
        })
        .collect())
}

/// An owned program source pinned for serving, so the borrow phase can
/// take trace/program references with one lifetime.
enum Held {
    Trace(Arc<TraceEntry>),
    Compiled(Box<CompiledProgram>),
}

/// Pins every co-located model's program source: from the shared
/// [`TraceStore`] when one is available (recording on first touch),
/// freshly compiled otherwise.
fn hold_sources(
    arch: &ArchConfig,
    strategy: Strategy,
    search: SearchMode,
    traffic: &TrafficJob,
    traces: Option<&TraceStore>,
) -> Result<Vec<(String, Held)>, DseError> {
    let mut held: Vec<(String, Held)> = Vec::with_capacity(traffic.colocated.len());
    for (name, model) in &traffic.colocated {
        let source = match traces {
            Some(traces) => {
                let key = TraceKey::of(arch, model, strategy, search);
                let (entry, _) = traces.get_or_record_with(key, || {
                    let compiled = compile_for(arch, strategy, search, model)?;
                    let (trace, _) = Simulator::record(&compiled)?;
                    Ok(TraceEntry {
                        trace,
                        compilation: compiled.report.clone(),
                        stages: compiled.plan.stages.len(),
                        mean_duplication: compiled.plan.mean_duplication(),
                    })
                })?;
                Held::Trace(entry)
            }
            None => Held::Compiled(Box::new(compile_for(arch, strategy, search, model)?)),
        };
        held.push((name.clone(), source));
    }
    Ok(held)
}

/// Fresh compiles for every co-located model (the trace-refusal path).
fn recompile_sources(
    arch: &ArchConfig,
    strategy: Strategy,
    search: SearchMode,
    traffic: &TrafficJob,
) -> Result<Vec<(String, Held)>, DseError> {
    traffic
        .colocated
        .iter()
        .map(|(name, model)| {
            Ok((
                name.clone(),
                Held::Compiled(Box::new(compile_for(arch, strategy, search, model)?)),
            ))
        })
        .collect()
}

fn compile_for(
    arch: &ArchConfig,
    strategy: Strategy,
    search: SearchMode,
    model: &Model,
) -> Result<CompiledProgram, DseError> {
    let options = CompileOptions { strategy, search, ..CompileOptions::default() };
    Ok(compile_with_options(model, arch, options)?)
}

fn serve_models<'a>(held: &'a [(String, Held)], arch: &ArchConfig) -> Vec<ServeModel<'a>> {
    held.iter()
        .map(|(name, source)| match source {
            Held::Trace(entry) => ServeModel::traced(name.clone(), &entry.trace, *arch),
            Held::Compiled(program) => ServeModel::compiled(name.clone(), program),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_nn::models;

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential)
                .unwrap();
        assert_eq!(evaluation.model, "mobilenetv2");
        assert!(evaluation.simulation.total_cycles > 0);
        assert!(evaluation.simulation.throughput_tops() > 0.0);
        assert!(evaluation.stages >= 1);
        let text = evaluation.to_string();
        assert!(text.contains("mobilenetv2") && text.contains("TOPS"));
    }

    #[test]
    fn invalid_architectures_fail_without_panicking() {
        let arch = ArchConfig::paper_default().with_macros_per_group(0);
        let model = models::mobilenet_v2(32);
        assert!(matches!(
            evaluate_with_search(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential),
            Err(DseError::Arch(_))
        ));
    }

    #[test]
    fn evaluation_serde_round_trip() {
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let evaluation =
            evaluate_with_search(&arch, &model, Strategy::DpOptimized, SearchMode::Sequential)
                .unwrap();
        let text = serde_json::to_string(&evaluation).unwrap();
        let back: Evaluation = serde_json::from_str(&text).unwrap();
        assert_eq!(back.model, evaluation.model);
        assert_eq!(back.strategy, evaluation.strategy);
        assert_eq!(back.arch, evaluation.arch);
        assert_eq!(back.compilation, evaluation.compilation);
        assert_eq!(back.simulation, evaluation.simulation);
        assert_eq!(back.stages, evaluation.stages);
        assert_eq!(back.eval_path, EvalPath::Interpreted);
    }

    #[test]
    fn traced_evaluation_replays_timing_only_points_bit_exactly() {
        let store = TraceStore::new();
        let base = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let first =
            evaluate_traced(&base, &model, Strategy::DpOptimized, SearchMode::Sequential, &store)
                .unwrap();
        assert_eq!(first.eval_path, EvalPath::Interpreted);
        // Also matches the plain pipeline at the recording point itself.
        let plain =
            evaluate_with_search(&base, &model, Strategy::DpOptimized, SearchMode::Sequential)
                .unwrap();
        assert_eq!(first.simulation, plain.simulation);

        let retimed = base.with_frequency_mhz(500).with_memory_port(27);
        let replayed = evaluate_traced(
            &retimed,
            &model,
            Strategy::DpOptimized,
            SearchMode::Sequential,
            &store,
        )
        .unwrap();
        assert_eq!(replayed.eval_path, EvalPath::Replayed);
        let reference =
            evaluate_with_search(&retimed, &model, Strategy::DpOptimized, SearchMode::Sequential)
                .unwrap();
        assert_eq!(replayed.simulation, reference.simulation, "replay must be bit-exact");
        assert_eq!(replayed.compilation, reference.compilation);
        assert_eq!(replayed.stages, reference.stages);
        assert_eq!(replayed.arch, retimed);

        // A compile-affecting change records a second trace.
        let widened = evaluate_traced(
            &base.with_flit_bytes(16),
            &model,
            Strategy::DpOptimized,
            SearchMode::Sequential,
            &store,
        )
        .unwrap();
        assert_eq!(widened.eval_path, EvalPath::Interpreted);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().reused, 1);
    }

    #[test]
    fn traced_evaluation_rejects_invalid_points_before_touching_the_store() {
        let store = TraceStore::new();
        let model = models::mobilenet_v2(32);
        let invalid = ArchConfig::paper_default().with_macros_per_group(0);
        assert!(matches!(
            evaluate_traced(
                &invalid,
                &model,
                Strategy::GenericMapping,
                SearchMode::Sequential,
                &store
            ),
            Err(DseError::Arch(_))
        ));
        assert!(store.is_empty());
    }
}
