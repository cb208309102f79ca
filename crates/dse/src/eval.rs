//! The evaluation primitives: `model + architecture + strategy →
//! compile → simulate → Evaluation`.
//!
//! This is the unit of work the evaluation service fans out and the value
//! the evaluation cache stores. The [`Evaluation`] record used to live in
//! the `cimflow` facade crate; it moved here so that both the facade's
//! `CimFlow` workflow object and the batch engine share one definition
//! (the facade re-exports it).
//!
//! The service reaches a point's report in one of two ways. A point in
//! no trace group compiles and simulates on its own
//! ([`evaluate_with_search`]). The members of a trace group — points
//! that share a [`TraceKey`], such as the frequencies, memory ports or
//! offered rates of one compiled design — get or build their trace once
//! and replay it for everyone else (`evaluate_group`). Under a serving
//! workload, serving is queueing arithmetic over one single-inference
//! report per co-located model ([`Simulator::serve`]): the point's own
//! report for its own model, and for any other model the trace store
//! (in a group, resolved once for the whole group) or a fresh compile +
//! run (ungrouped).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile_with_options, CompileOptions, CompileReport, SearchMode, Strategy};
use cimflow_nn::Model;
use cimflow_sim::{
    LockstepStats, ReplayEngine, ServeModel, ServingReport, SimOptions, SimReport, Simulator,
};
use cimflow_traffic::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::trace_store::{TraceEntry, TraceKey, TraceStore};
use crate::{DseError, Job};

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
///
/// Every point of a grid shares one `TrafficJob`, which hashes its
/// co-located models once, when it is built: a point's
/// [`fingerprint`](Self::fingerprint) hashes no model.
#[derive(Debug)]
pub struct TrafficJob {
    /// The workload preset (arrival shape, seed, horizon, batching
    /// knobs, mix).
    pub(crate) workload: WorkloadSpec,
    /// The models time-sharing the system, in mix order. Contains just
    /// the point's own model unless the sweep co-locates.
    pub(crate) colocated: Vec<(String, Arc<Model>)>,
    /// The rate-free text every fingerprint hashes
    /// ([`pool_text`](crate::cache::pool_text)).
    pool: String,
}

impl TrafficJob {
    /// A serving workload of `workload` over the `colocated` models, in
    /// mix order.
    pub fn new(workload: WorkloadSpec, colocated: Vec<(String, Arc<Model>)>) -> Self {
        let pool = crate::cache::pool_text(&workload, &colocated);
        TrafficJob { workload, colocated, pool }
    }

    /// The workload's [`traffic_fingerprint`](crate::traffic_fingerprint)
    /// at `offered_qps`, bit for bit.
    pub fn fingerprint(&self, offered_qps: u64) -> u64 {
        crate::cache::rate_fingerprint(offered_qps, &self.pool)
    }
}

/// Wire name of a served model (the `model` of the per-model entries of
/// a serving report).
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
    let options = CompileOptions { strategy, search };
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

/// Evaluates one point that belongs to no trace group: the full
/// `compile → simulate` pipeline, then, under a serving workload, a
/// fresh compile + run of every other co-located model on the point's
/// architecture.
///
/// # Errors
///
/// See [`evaluate_with_search`]; under load also any co-located model's
/// failure and [`SimError::Traffic`](cimflow_sim::SimError::Traffic) (as
/// [`DseError::Simulation`]) for unusable workloads.
pub(crate) fn evaluate_point(job: &Job, model: &Model) -> Result<Evaluation, DseError> {
    let (strategy, search) = (job.spec.strategy, job.spec.search);
    let mut evaluation = evaluate_with_search(&job.arch, model, strategy, search)?;
    evaluation.serving = serve_point(job, &evaluation.simulation, |_, other| {
        let options = CompileOptions { strategy, search };
        let compiled = compile_with_options(other, &job.arch, options)?;
        Ok(Simulator::new(&compiled).run()?)
    })?;
    Ok(evaluation)
}

/// Evaluates the members of one trace group, every one of which has
/// `key` as its [`TraceKey`], through the shared [`TraceStore`].
///
/// Each member's architecture is validated first: an invalid one fails
/// alone, with the error a solo evaluation gives. [`retime`] answers the
/// rest: the first keeps the recording's own report when it records
/// ([`EvalPath::Interpreted`]), and one lockstep replay re-times every
/// other ([`EvalPath::Replayed`]), bit-exact by construction. Under a
/// serving workload every other co-located model is resolved once for
/// the whole group the same way (`serve_group`).
///
/// Returns one result per member plus the lockstep counters.
pub(crate) fn evaluate_group(
    jobs: &[&Job],
    key: TraceKey,
    traces: &TraceStore,
) -> (Vec<Result<Evaluation, DseError>>, LockstepStats) {
    let mut results: Vec<Option<Result<Evaluation, DseError>>> =
        jobs.iter().map(|job| job.arch.validate().err().map(|e| Err(e.into()))).collect();
    let valid: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
    let mut stats = LockstepStats::default();
    if let Some(&first) = valid.first() {
        let model = jobs[first].model.as_ref().expect("grouped jobs have resolved models");
        let valid_jobs: Vec<&Job> = valid.iter().map(|&i| jobs[i]).collect();
        match retime(traces, key, &valid_jobs, model, &mut stats) {
            Err(e) => {
                for &i in &valid {
                    results[i] = Some(Err(e.clone()));
                }
            }
            Ok((entry, reports)) => {
                for (&i, (report, eval_path)) in valid.iter().zip(reports) {
                    let job = jobs[i];
                    results[i] = Some(report.map(|simulation| Evaluation {
                        model: model.name.clone(),
                        strategy: job.spec.strategy,
                        search: job.spec.search,
                        arch: job.arch,
                        compilation: entry.compilation.clone(),
                        stages: entry.stages,
                        mean_duplication: entry.mean_duplication,
                        simulation,
                        eval_path,
                        serving: None,
                    }));
                }
            }
        }
    }
    let mut results: Vec<Result<Evaluation, DseError>> =
        results.into_iter().map(|result| result.expect("every member is answered")).collect();
    serve_group(jobs, &mut results, traces, &mut stats);
    (results, stats)
}

/// One report per job of a [`retime`] call, with how it was produced.
type Retimed = Vec<(Result<SimReport, DseError>, EvalPath)>;

/// `model`'s single-inference report on each job's architecture; the
/// jobs share `key`. The trace is fetched, or compiled and recorded at
/// the first job's architecture, which then keeps the recording's own
/// report ([`EvalPath::Interpreted`]). One lockstep
/// [`ReplayEngine::replay_batch_stats`] call re-times the trace for
/// every other job ([`EvalPath::Replayed`]); its counters add to
/// `stats`.
fn retime(
    traces: &TraceStore,
    key: TraceKey,
    jobs: &[&Job],
    model: &Model,
    stats: &mut LockstepStats,
) -> Result<(Arc<TraceEntry>, Retimed), DseError> {
    let lead = jobs[0];
    let mut recorded = None;
    let (entry, _) = traces.get_or_record_with(key, || {
        let options = CompileOptions { strategy: lead.spec.strategy, search: lead.spec.search };
        let compiled = compile_with_options(model, &lead.arch, options)?;
        let (trace, report) = Simulator::record(&compiled)?;
        recorded = Some(report);
        Ok(TraceEntry {
            trace,
            compilation: compiled.report.clone(),
            stages: compiled.plan.stages.len(),
            mean_duplication: compiled.plan.mean_duplication(),
        })
    })?;
    // The lookup of a stored trace counted one reuse already.
    let (mut reports, replayed, counted): (Retimed, _, _) = match recorded {
        Some(report) => (vec![(Ok(report), EvalPath::Interpreted)], &jobs[1..], 0),
        None => (Vec::new(), jobs, 1),
    };
    let points: Vec<(ArchConfig, SimOptions)> =
        replayed.iter().map(|job| (job.arch, SimOptions::default())).collect();
    let (replays, lockstep) = ReplayEngine::new(&entry.trace).replay_batch_stats(&points);
    stats.batches += lockstep.batches;
    stats.lanes += lockstep.lanes;
    stats.fallback_lanes += lockstep.fallback_lanes;
    traces.note_reuse(replayed.len() as u64 - counted);
    reports.extend(replays.into_iter().map(|r| (r.map_err(DseError::from), EvalPath::Replayed)));
    Ok((entry, reports))
}

/// Serves every member that evaluated and whose workload offers load.
/// Each other co-located model is resolved once for the group: the
/// members share one compile fingerprint, so one [`TraceKey`] and one
/// [`retime`] call give its report on every serving member's
/// architecture.
fn serve_group(
    jobs: &[&Job],
    results: &mut [Result<Evaluation, DseError>],
    traces: &TraceStore,
    stats: &mut LockstepStats,
) {
    let serving: Vec<usize> = (0..jobs.len())
        .filter(|&i| results[i].is_ok() && jobs[i].active_traffic().is_some())
        .collect();
    // Each other co-located model with the serving members that run it
    // (members drained from different sweeps may co-locate differently).
    let mut others: Vec<(&str, &Model, Vec<usize>)> = Vec::new();
    for &i in &serving {
        let job = jobs[i];
        let own = served_model_name(&job.spec.model.name, job.spec.model.resolution);
        let traffic = job.active_traffic().expect("serving members offer load");
        for (name, model) in traffic.colocated.iter().filter(|(name, _)| *name != own) {
            match others.iter_mut().find(|(other, ..)| *other == name.as_str()) {
                Some((.., members)) => members.push(i),
                None => others.push((name, model, vec![i])),
            }
        }
    }
    let mut singles: HashMap<(usize, &str), Result<SimReport, DseError>> = HashMap::new();
    for (name, model, members) in others {
        let member_jobs: Vec<&Job> = members.iter().map(|&i| jobs[i]).collect();
        let lead = member_jobs[0];
        let key = TraceKey::of(&lead.arch, model, lead.spec.strategy, lead.spec.search);
        let reports = match retime(traces, key, &member_jobs, model, stats) {
            Ok((_, reports)) => reports.into_iter().map(|(report, _)| report).collect(),
            Err(e) => vec![Err(e); members.len()],
        };
        singles.extend(members.iter().map(|&i| (i, name)).zip(reports));
    }
    for i in serving {
        let Ok(evaluation) = &mut results[i] else { continue };
        let served = serve_point(jobs[i], &evaluation.simulation, |name, _| {
            singles.remove(&(i, name)).expect("every other co-located model is resolved")
        });
        match served {
            Ok(serving) => evaluation.serving = serving,
            Err(e) => results[i] = Err(e),
        }
    }
}

/// Serves `job`'s workload, if it offers load: queueing over one
/// single-inference report per co-located model — `own` for the point's
/// own model, `single(name, model)` for any other. Latency quantiles
/// come from the point's own model.
fn serve_point<'j>(
    job: &'j Job,
    own: &SimReport,
    mut single: impl FnMut(&'j str, &'j Model) -> Result<SimReport, DseError>,
) -> Result<Option<ServingSummary>, DseError> {
    let Some(traffic) = job.active_traffic() else { return Ok(None) };
    let own_name = served_model_name(&job.spec.model.name, job.spec.model.resolution);
    let models = traffic
        .colocated
        .iter()
        .map(|(name, model)| {
            let single = if *name == own_name { own.clone() } else { single(name, model)? };
            Ok(ServeModel { name: name.clone(), single })
        })
        .collect::<Result<Vec<_>, DseError>>()?;
    let report = Simulator::serve(&models, &traffic.workload, job.spec.offered_qps)?;
    Ok(Some(ServingSummary::of(&report, &own_name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_store::TraceStoreStats;
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

    fn job(arch: ArchConfig) -> Job {
        crate::EvalRequest::new("mobilenetv2", 32, Strategy::DpOptimized).with_base(arch).to_job()
    }

    fn key(job: &Job) -> TraceKey {
        let model = job.model.as_ref().unwrap();
        TraceKey::of(&job.arch, model, job.spec.strategy, job.spec.search)
    }

    #[test]
    fn trace_groups_record_once_and_replay_bit_exactly() {
        let store = TraceStore::new();
        let base = job(ArchConfig::paper_default());
        let retimed = job(ArchConfig::paper_default().with_frequency_mhz(500).with_memory_port(27));
        assert_eq!(key(&base), key(&retimed), "timing-only points share a trace");
        let (results, _) = evaluate_group(&[&base, &retimed], key(&base), &store);
        let [first, second] = [&results[0], &results[1]].map(|r| r.as_ref().unwrap());
        // The recorder keeps the recording's own report.
        assert_eq!(first.eval_path, EvalPath::Interpreted);
        assert_eq!(second.eval_path, EvalPath::Replayed);
        assert_eq!(second.arch, retimed.arch);
        for (job, evaluation) in [(&base, first), (&retimed, second)] {
            let model = job.model.as_ref().unwrap();
            let fresh = evaluate_with_search(
                &job.arch,
                model,
                Strategy::DpOptimized,
                SearchMode::Sequential,
            )
            .unwrap();
            assert_eq!(evaluation.simulation, fresh.simulation, "bit-exact against a fresh run");
            assert_eq!(evaluation.compilation, fresh.compilation);
            assert_eq!(evaluation.stages, fresh.stages);
        }
        assert_eq!(store.stats(), TraceStoreStats { recorded: 1, reused: 1, evicted: 0 });

        // With the trace stored, every member replays.
        let (results, stats) = evaluate_group(&[&retimed, &base], key(&base), &store);
        assert!(results.iter().all(|r| r.as_ref().unwrap().eval_path == EvalPath::Replayed));
        assert_eq!(stats.batches, 1, "one lockstep walk for the whole group");
        assert_eq!(store.stats(), TraceStoreStats { recorded: 1, reused: 3, evicted: 0 });
    }

    #[test]
    fn colocated_models_are_re_timed_once_per_group() {
        let spec = crate::SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_memory_ports(&[0, 27])
            .with_traffic(crate::TrafficSpec::new(&[200, 800]).colocated());
        let jobs: Vec<Job> = crate::expand_jobs(&spec)
            .unwrap()
            .into_iter()
            .filter(|job| job.spec.model.name == "mobilenetv2")
            .collect();
        assert_eq!(jobs.len(), 4, "two ports x two rates share one trace key");
        let store = TraceStore::new();
        let (results, stats) =
            evaluate_group(&jobs.iter().collect::<Vec<_>>(), key(&jobs[0]), &store);
        // One trace per model, the group's own and the co-located
        // resnet18, each re-timed by one lockstep walk over the two
        // memory-port lanes.
        assert_eq!(store.stats().recorded, 2);
        assert_eq!((stats.batches, stats.lanes), (2, 4));
        for (job, result) in jobs.iter().zip(&results) {
            let grouped = result.as_ref().unwrap();
            let solo = evaluate_point(job, job.model.as_ref().unwrap()).unwrap();
            assert!(grouped.serving.is_some());
            assert_eq!(grouped.serving, solo.serving, "bit-exact against fresh compiles");
            assert_eq!(grouped.simulation, solo.simulation);
        }
    }

    #[test]
    fn invalid_members_fail_alone_and_never_record() {
        let store = TraceStore::new();
        let invalid = job(ArchConfig::paper_default().with_frequency_mhz(0));
        let valid = job(ArchConfig::paper_default());
        let (results, _) = evaluate_group(&[&invalid, &invalid], key(&valid), &store);
        assert!(results.iter().all(|r| matches!(r, Err(DseError::Arch(_)))));
        assert!(store.is_empty(), "a group without valid members records nothing");

        let (results, _) = evaluate_group(&[&invalid, &valid], key(&valid), &store);
        let solo = evaluate_with_search(
            &invalid.arch,
            invalid.model.as_ref().unwrap(),
            Strategy::DpOptimized,
            SearchMode::Sequential,
        )
        .unwrap_err();
        assert_eq!(results[0].as_ref().unwrap_err().to_string(), solo.to_string());
        assert_eq!(results[1].as_ref().unwrap().eval_path, EvalPath::Interpreted);
        assert_eq!(store.stats().recorded, 1);
    }
}
