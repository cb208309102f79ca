//! Adaptive Pareto-guided exploration: budgeted search over a sweep grid
//! that finds (most of) the per-model (cycles, energy) frontier at a
//! fraction of the exhaustive grid's evaluations.
//!
//! A [`SweepSpec`] describes a cartesian *space*; exhaustively expanding
//! it explodes combinatorially (models × strategies × search modes ×
//! chip counts × cores × memory × flit × MG sizes) even though the
//! Pareto frontier is tiny. An [`ExploreSpec`] wraps the same space with
//! an evaluation **budget**, an **algorithm** and a **seed**, and
//! [`explore`] spends the budget adaptively instead:
//!
//! * [`ExploreAlgorithm::SuccessiveHalving`] — generations of uniformly
//!   sampled points are first priced on the cheapest rung of the spec's
//!   [`FidelityLadder`] (by default one 32 px coarse-simulation rung:
//!   resolution floored, search pinned to [`SearchMode::Sequential`])
//!   and the per-model Pareto survivors of the accumulated proxy pool
//!   climb the ladder rung by rung until full fidelity. When a point's
//!   projection *is* the point itself, the evaluation counts directly
//!   as full fidelity.
//! * [`ExploreAlgorithm::Evolutionary`] — a population seeded from a
//!   sparse (strided) grid sample evolves by mutation (step one axis to
//!   an adjacent value) and crossover (per-axis mixing of two parents);
//!   parents are selected by per-model Pareto rank, ties broken by
//!   NSGA-II crowding distance over (cycles, energy). A ladder with an
//!   analytical rung prescreens each brood for free before any budget
//!   is spent.
//!
//! The ladder is **calibrated online**: every graduation feeds the
//! `(proxy, full)` pair to a per-`(model, rung)` Kendall-tau tracker
//! ([`RankFidelity`]), and the successive-halving scouting share adapts
//! to the measured rank fidelity instead of the historical fixed
//! half-budget cap ([`scout_share_for`]). [`FeasibilityCaps`] cut
//! area/power-infeasible candidates before budget is spent on them
//! (with dominated-but-feasible fallbacks), and an optional
//! hypervolume stopping rule ends a run whose per-model frontiers have
//! stopped growing.
//!
//! The explorer runs on the sweep machinery. The points it picks become
//! jobs through the same resolver a sweep of the space uses, and every
//! generation is submitted as one batch through the shared
//! [`EvalService`] pipeline. So duplicate points coalesce in the
//! [`EvalCache`](crate::EvalCache), timing-only siblings in a batch
//! replay one recorded trace, and an attached [`SweepJournal`] makes an
//! interrupted exploration resumable: re-running the same spec and seed
//! replays the identical trajectory with journaled points served for
//! free (no point is ever re-evaluated).
//!
//! Determinism: the engine draws from a [`cimflow_traffic::XorShift`]
//! seeded from the spec (no `rand` dependency), batches are waited on in
//! submission order, and selection sorts with total orders — the same
//! `(space, budget, algorithm, seed)` always explores the same points.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_obs::{thread_track, AttrValue, Counter, Gauge, MetricsRegistry, Tracer};
use cimflow_traffic::XorShift;
use serde::{optional_field, Content, Deserialize, Serialize};

use crate::analysis::Objective;
use crate::fidelity::{
    scout_share_for, AnalyticalPricer, FeasibilityCaps, Fidelity, FidelityLadder, RankFidelity,
};
use crate::job::JobResolver;
use crate::journal::SweepJournal;
use crate::spec::{SweepAxes, AXIS_COUNT};
use crate::{analysis, DseError, DseOutcome, EvalService, PointSpec, Submission, SweepSpec};

/// Relative frontier-hypervolume improvement below which a generation
/// counts as stalled for the stopping rule.
const STALL_RELATIVE_EPSILON: f64 = 1e-3;

/// The resolution coarse-fidelity evaluations are floored to: the
/// smallest geometry the model zoo keeps structurally identical (the
/// cross-crate tests pin it for the same reason).
pub const COARSE_RESOLUTION: u32 = 32;

/// Seed used when a spec does not carry one.
pub const DEFAULT_SEED: u64 = 0x5EED_C1F1;

/// The exploration strategy of an [`ExploreSpec`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExploreAlgorithm {
    /// Coarse-fidelity generations; per-model Pareto survivors are
    /// promoted to full fidelity.
    SuccessiveHalving,
    /// Pareto-rank/crowding-selected population with axis mutation and
    /// crossover.
    #[default]
    Evolutionary,
}

impl ExploreAlgorithm {
    /// Wire name of the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            ExploreAlgorithm::SuccessiveHalving => "successive_halving",
            ExploreAlgorithm::Evolutionary => "evolutionary",
        }
    }

    /// Parses a wire/CLI name (short aliases accepted).
    pub fn from_name(text: &str) -> Option<Self> {
        match text {
            "successive_halving" | "successive-halving" | "sh" | "halving" => {
                Some(ExploreAlgorithm::SuccessiveHalving)
            }
            "evolutionary" | "evo" | "genetic" => Some(ExploreAlgorithm::Evolutionary),
            _ => None,
        }
    }
}

impl fmt::Display for ExploreAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl serde::Serialize for ExploreAlgorithm {
    fn serialize(&self) -> Content {
        Content::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for ExploreAlgorithm {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected algorithm name string"))?;
        ExploreAlgorithm::from_name(text)
            .ok_or_else(|| serde::Error::new(format!("unknown explore algorithm `{text}`")))
    }
}

/// A budgeted, seeded exploration of a sweep space — the on-disk input
/// of `cimflow-dse explore <spec.json>`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExploreSpec {
    /// The design space (the grid is *described*, never fully expanded
    /// into evaluations).
    pub space: SweepSpec,
    /// Maximum number of evaluations (coarse + full fidelity) the
    /// exploration may submit.
    pub budget: u64,
    /// The exploration algorithm.
    pub algorithm: ExploreAlgorithm,
    /// PRNG seed: the same `(space, budget, algorithm, seed)` explores
    /// the same points.
    pub seed: u64,
    /// The objective pair selection ranks by. [`Objective::P99Latency`]
    /// requires the space to carry a `traffic` section (otherwise no
    /// point has serving metrics and nothing is ever selected).
    pub objective: Objective,
    /// The proxy-fidelity ladder the search schedules over. Defaults to
    /// the historical single 32 px coarse rung
    /// ([`FidelityLadder::standard`]); rungs are validated against the
    /// space before the run starts.
    pub ladder: FidelityLadder,
    /// Pins the scouting budget share instead of adapting it from the
    /// measured rank fidelity (`None` = calibrated/adaptive; `Some(0.5)`
    /// reproduces the historical fixed half-budget split exactly).
    pub scout_share: Option<f64>,
    /// Stop after this many consecutive generations whose per-model
    /// frontier hypervolume improves by less than 0.1% (`None` = run to
    /// budget).
    pub stall_generations: Option<u32>,
    /// Area/power feasibility caps. Inactive caps (the default) admit
    /// everything.
    pub caps: FeasibilityCaps,
}

impl ExploreSpec {
    /// Wraps a space with the default budget (a quarter of the grid, at
    /// least 4), the default algorithm, the default seed and the
    /// default (cycles, energy) objective.
    pub fn new(space: SweepSpec) -> Self {
        let budget = default_budget(&space);
        ExploreSpec {
            space,
            budget,
            algorithm: ExploreAlgorithm::default(),
            seed: DEFAULT_SEED,
            objective: Objective::default(),
            ladder: FidelityLadder::default(),
            scout_share: None,
            stall_generations: None,
            caps: FeasibilityCaps::none(),
        }
    }

    /// Sets the selection objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the evaluation budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: ExploreAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fidelity ladder.
    #[must_use]
    pub fn with_ladder(mut self, ladder: FidelityLadder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Pins the scouting budget share (`Some(0.5)` is the historical
    /// fixed split; `None` adapts it from the measured rank fidelity).
    #[must_use]
    pub fn with_scout_share(mut self, share: Option<f64>) -> Self {
        self.scout_share = share;
        self
    }

    /// Sets the hypervolume stopping rule.
    #[must_use]
    pub fn with_stall_generations(mut self, generations: Option<u32>) -> Self {
        self.stall_generations = generations;
        self
    }

    /// Sets the feasibility caps.
    #[must_use]
    pub fn with_caps(mut self, caps: FeasibilityCaps) -> Self {
        self.caps = caps;
        self
    }

    /// Serializes the spec to pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ExploreSpec serialization cannot fail")
    }

    /// Parses a spec from JSON. Only `space` is required; an omitted
    /// `budget` defaults to a quarter of the grid (at least 4), an
    /// omitted `algorithm` to `evolutionary`, an omitted `seed` to
    /// [`DEFAULT_SEED`].
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, DseError> {
        serde_json::from_str(text).map_err(|e| DseError::spec(e.to_string()))
    }
}

/// The default budget of a space: a quarter of the grid, at least 4.
fn default_budget(space: &SweepSpec) -> u64 {
    (space.point_count() as u64 / 4).max(4)
}

impl Deserialize for ExploreSpec {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map =
            content.as_map().ok_or_else(|| serde::Error::new("expected map for ExploreSpec"))?;
        let space = match serde::lookup(map, "space") {
            Some(value) => SweepSpec::deserialize(value)
                .map_err(|e| serde::Error::new(format!("ExploreSpec.space: {e}")))?,
            None => return Err(serde::Error::new("ExploreSpec needs a `space`")),
        };
        let budget = optional_field(map, "budget", "ExploreSpec")?;
        Ok(ExploreSpec {
            budget: budget.unwrap_or_else(|| default_budget(&space)),
            space,
            algorithm: optional_field(map, "algorithm", "ExploreSpec")?.unwrap_or_default(),
            seed: optional_field(map, "seed", "ExploreSpec")?.unwrap_or(DEFAULT_SEED),
            objective: optional_field(map, "objective", "ExploreSpec")?.unwrap_or_default(),
            ladder: optional_field(map, "ladder", "ExploreSpec")?.unwrap_or_default(),
            scout_share: optional_field(map, "scout_share", "ExploreSpec")?,
            stall_generations: optional_field(map, "stall_generations", "ExploreSpec")?,
            caps: optional_field(map, "caps", "ExploreSpec")?.unwrap_or_default(),
        })
    }
}

/// One generation of an exploration run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// 0-based generation number.
    pub index: usize,
    /// What the generation did (`seed`, `generation`, `halving`).
    pub phase: String,
    /// Evaluations submitted (budget charged) this generation.
    pub submitted: usize,
    /// Of `submitted`, how many ran at coarse fidelity.
    pub coarse: usize,
    /// Cumulative per-model frontier size over the full-fidelity
    /// outcomes after this generation.
    pub frontier_points: usize,
    /// Per-rung evaluation counts this generation (wire rung names;
    /// `analytical` entries are free and not part of `submitted`).
    pub rungs: BTreeMap<String, usize>,
}

/// The result of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The algorithm that ran.
    pub algorithm: ExploreAlgorithm,
    /// The seed it ran under.
    pub seed: u64,
    /// Size of the exhaustive grid the exploration avoided expanding.
    pub space_points: usize,
    /// The configured budget.
    pub budget: u64,
    /// Evaluations actually submitted (coarse + full; journal-resumed
    /// submissions count — re-running them costs nothing but they were
    /// part of the trajectory).
    pub budget_used: u64,
    /// Full-fidelity (in-space) points evaluated: `outcomes.len()`.
    pub evaluated: usize,
    /// Coarse-fidelity evaluations (successive halving only).
    pub coarse_evaluated: usize,
    /// Every full-fidelity outcome, in deterministic submission order.
    /// Feed these to [`export`](crate::export) for CSV/JSON reports.
    pub outcomes: Vec<DseOutcome>,
    /// Per-model Pareto frontier: model name → indices into `outcomes`,
    /// ascending cycles. With active [`FeasibilityCaps`] this is the
    /// frontier of the *feasible* outcomes; a model with no feasible
    /// outcome falls back to its unconstrained frontier.
    pub frontier: BTreeMap<String, Vec<usize>>,
    /// Per-generation trajectory.
    pub generations: Vec<GenerationStats>,
    /// Per-rung evaluation counts over the whole run (wire rung names;
    /// `analytical` entries are free and never charge budget).
    pub rung_evaluated: BTreeMap<String, u64>,
    /// Measured rank fidelity per `model/rung` (Kendall tau of proxy
    /// rank against full-fidelity rank on graduated points; pairs with
    /// fewer than [`crate::MIN_CALIBRATION_SAMPLES`] graduations are
    /// absent).
    pub rank_fidelity: BTreeMap<String, f64>,
    /// The scouting budget share in effect when the run ended (the
    /// adaptive split successive halving used; 0 when the ladder has no
    /// simulated proxy rung).
    pub scout_share: f64,
    /// True when the hypervolume stopping rule ended the run before the
    /// budget was spent.
    pub stalled: bool,
}

impl ExploreReport {
    /// The `(cycles, energy_mj)` objectives of one model's frontier,
    /// ascending cycles (empty for unknown models).
    pub fn frontier_objectives(&self, model: &str) -> Vec<(u64, f64)> {
        self.frontier
            .get(model)
            .map(|indices| {
                indices
                    .iter()
                    .filter_map(|&i| self.outcomes[i].evaluation())
                    .map(|e| (e.simulation.total_cycles, e.simulation.energy_mj()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Explores `spec.space` within `spec.budget` evaluations on `service`.
/// With a `journal`, journaled points are served without re-running and
/// fresh outcomes are appended, so an interrupted exploration resumes —
/// with the same spec and seed the trajectory is identical and every
/// already-journaled point is free.
///
/// # Errors
///
/// Returns [`DseError::Spec`] when the space names no model or no
/// strategy, [`DseError::Io`] when the service refuses a batch (it is
/// shutting down). Per-point failures stay inside their outcomes.
pub fn explore(
    spec: &ExploreSpec,
    service: &EvalService,
    journal: Option<&Arc<SweepJournal>>,
) -> Result<ExploreReport, DseError> {
    let axes = spec.space.axes()?;
    spec.ladder.validate_for(&axes)?;
    if let Some(share) = spec.scout_share {
        if !(0.0..=1.0).contains(&share) {
            return Err(DseError::spec(format!("scout_share must be within [0, 1], got {share}")));
        }
    }
    let jobs = JobResolver::new(&spec.space)?;
    let base = spec.space.base_arch();
    let mut run = Run {
        axes,
        base,
        jobs,
        service,
        obs: ExploreObs::new(service, spec),
        journal: journal.cloned(),
        rng: XorShift::new(spec.seed),
        budget: spec.budget,
        used: 0,
        coarse_used: 0,
        visited: HashSet::new(),
        points: Vec::new(),
        outcomes: Vec::new(),
        generations: Vec::new(),
        objective: spec.objective,
        ladder: spec.ladder.clone(),
        scout_share_pin: spec.scout_share,
        caps: spec.caps,
        stall_generations: spec.stall_generations,
        calibration: RankFidelity::new(),
        analytical: AnalyticalPricer::new(base),
        proxy_evidence: HashMap::new(),
        arch_feasibility: HashMap::new(),
        rung_used: BTreeMap::new(),
        hv_history: Vec::new(),
        stalled: false,
    };
    match spec.algorithm {
        ExploreAlgorithm::SuccessiveHalving => successive_halving(&mut run)?,
        ExploreAlgorithm::Evolutionary => evolutionary(&mut run)?,
    }
    let frontier = constrained_frontier(&run.outcomes, spec.objective, &spec.caps);
    let scout_share = run.scout_share();
    Ok(ExploreReport {
        algorithm: spec.algorithm,
        seed: spec.seed,
        space_points: run.axes.point_count(),
        budget: spec.budget,
        budget_used: run.used,
        evaluated: run.outcomes.len(),
        coarse_evaluated: run.coarse_used as usize,
        frontier,
        generations: run.generations,
        rung_evaluated: run.rung_used,
        rank_fidelity: run.calibration.snapshot(),
        scout_share,
        stalled: run.stalled,
        outcomes: run.outcomes,
    })
}

/// Per-model feasible candidates: (outcome index, objective pair).
type FeasibleByModel = BTreeMap<String, Vec<(usize, (u64, f64))>>;

/// Per-model promotion candidates: (flat index, ladder level, proxy
/// objectives).
type PromotionPool = BTreeMap<String, Vec<(usize, usize, (u64, f64))>>;

/// The per-model frontier under the caps: the frontier of the feasible
/// outcomes, with a model that has *no* feasible outcome falling back
/// to its unconstrained frontier (a dominated-but-feasible point beats
/// an infeasible frontier point, but an all-infeasible model still
/// reports its best effort).
fn constrained_frontier(
    outcomes: &[DseOutcome],
    objective: Objective,
    caps: &FeasibilityCaps,
) -> BTreeMap<String, Vec<usize>> {
    let unconstrained = analysis::pareto_frontier_by_model_with(outcomes, objective);
    if !caps.is_active() {
        return unconstrained;
    }
    let mut feasible: FeasibleByModel = BTreeMap::new();
    for (at, outcome) in outcomes.iter().enumerate() {
        if !caps.admits_outcome(outcome) {
            continue;
        }
        let objectives = outcome
            .evaluation()
            .and_then(|evaluation| objective.of(evaluation))
            .filter(|pair| pair.1.is_finite());
        if let Some(objectives) = objectives {
            feasible.entry(outcome.point.model.name.clone()).or_default().push((at, objectives));
        }
    }
    unconstrained
        .into_iter()
        .map(|(model, fallback)| {
            let indices = match feasible.get(&model) {
                None => fallback,
                Some(candidates) => {
                    let points: Vec<(u64, f64)> =
                        candidates.iter().map(|(_, objectives)| *objectives).collect();
                    analysis::pareto_indices(&points)
                        .into_iter()
                        .map(|local| candidates[local].0)
                        .collect()
                }
            };
            (model, indices)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

/// A fair coin from the run PRNG.
fn coin(rng: &mut XorShift) -> bool {
    rng.next_u64() & 1 == 1
}

/// Generation/population size for a space: `⌈√space⌉` clamped to
/// `[4, 32]` — big enough to cover every model of a sparse seed, small
/// enough that a budgeted run gets several selection rounds.
fn generation_size(space: usize) -> usize {
    ((space as f64).sqrt().ceil() as usize).clamp(4, 32)
}

/// Exploration-engine instruments, resolved once from the service's
/// registry/tracer so each generation pays only atomic updates. The
/// coarse-vs-full split and the budget burn-down are the signals that
/// tell whether a run spent its budget scouting or promoting.
struct ExploreObs {
    tracer: Option<Tracer>,
    metrics: MetricsRegistry,
    evals_full: Counter,
    evals_coarse: Counter,
    budget_remaining: Gauge,
    /// Scouting-allowance burn-down (`explore.scout_budget_remaining`).
    scout_remaining: Gauge,
    /// Per-rung counters (`explore.rung_evals{rung}`), resolved lazily
    /// as rungs are first exercised.
    rung_counters: HashMap<String, Counter>,
    /// `now_us` at the start of the open generation (tracing only).
    generation_start: Option<u64>,
}

impl ExploreObs {
    fn new(service: &EvalService, spec: &ExploreSpec) -> Self {
        let metrics = service.metrics();
        let obs = ExploreObs {
            tracer: service.tracer(),
            evals_full: metrics.counter_with("explore.evals", &[("fidelity", "full")]),
            evals_coarse: metrics.counter_with("explore.evals", &[("fidelity", "coarse")]),
            budget_remaining: metrics.gauge("explore.budget_remaining"),
            scout_remaining: metrics.gauge("explore.scout_budget_remaining"),
            rung_counters: HashMap::new(),
            metrics,
            generation_start: None,
        };
        obs.budget_remaining.set(spec.budget as i64);
        obs
    }

    /// Adds to the per-rung evaluation counter.
    fn rung_add(&mut self, rung: &str, count: u64) {
        if count == 0 {
            return;
        }
        self.rung_counters
            .entry(rung.to_owned())
            .or_insert_with(|| self.metrics.counter_with("explore.rung_evals", &[("rung", rung)]))
            .add(count);
    }

    /// Publishes one measured rank fidelity as milli-tau (gauges are
    /// integers; tau ∈ [−1, 1] maps to [−1000, 1000]).
    fn set_rank_fidelity(&self, model: &str, rung: &str, tau: f64) {
        self.metrics
            .gauge_with("explore.rank_fidelity", &[("model", model), ("rung", rung)])
            .set((tau * 1000.0).round() as i64);
    }

    /// Marks the start of a generation (the matching
    /// [`Run::push_generation`] closes the span).
    fn begin_generation(&mut self) {
        if let Some(tracer) = &self.tracer {
            self.generation_start = Some(tracer.now_us());
        }
    }

    fn finish_generation(&mut self, stats: &GenerationStats, remaining: u64) {
        self.evals_coarse.add(stats.coarse as u64);
        self.evals_full.add((stats.submitted - stats.coarse) as u64);
        self.budget_remaining.set(remaining as i64);
        if let Some(tracer) = &self.tracer {
            let end = tracer.now_us();
            let start = self.generation_start.take().unwrap_or(end);
            tracer.complete(
                &format!("generation-{}", stats.index),
                "explore",
                thread_track(),
                start,
                end.saturating_sub(start),
                vec![
                    ("phase".to_owned(), AttrValue::from(stats.phase.as_str())),
                    ("submitted".to_owned(), AttrValue::from(stats.submitted)),
                    ("coarse".to_owned(), AttrValue::from(stats.coarse)),
                    ("frontier_points".to_owned(), AttrValue::from(stats.frontier_points)),
                    ("budget_remaining".to_owned(), AttrValue::from(remaining)),
                ],
            );
        }
    }
}

struct Run<'s> {
    axes: SweepAxes,
    base: ArchConfig,
    /// Turns the points the search picks into jobs, exactly as a sweep
    /// of the space would.
    jobs: JobResolver,
    service: &'s EvalService,
    obs: ExploreObs,
    journal: Option<Arc<SweepJournal>>,
    rng: XorShift,
    budget: u64,
    used: u64,
    coarse_used: u64,
    /// Flat indices of in-space points already submitted at full
    /// fidelity (never resubmitted — revisits are free by construction).
    visited: HashSet<usize>,
    /// Index vectors aligned with `outcomes`.
    points: Vec<[usize; AXIS_COUNT]>,
    /// Full-fidelity outcomes in submission order.
    outcomes: Vec<DseOutcome>,
    generations: Vec<GenerationStats>,
    /// The objective pair selection ranks by.
    objective: Objective,
    /// The proxy-fidelity ladder the search schedules over.
    ladder: FidelityLadder,
    /// A pinned scouting share (`None` = adapt from calibration).
    scout_share_pin: Option<f64>,
    /// Area/power feasibility caps.
    caps: FeasibilityCaps,
    /// The hypervolume stopping rule (`None` = run to budget).
    stall_generations: Option<u32>,
    /// Online per-`(model, rung)` rank-fidelity tracker.
    calibration: RankFidelity,
    /// Cached analytical pricer (condensed graphs per model).
    analytical: AnalyticalPricer,
    /// Proxy primary objectives observed per flat index, by rung name:
    /// consumed into `calibration` when the point graduates to full
    /// fidelity.
    proxy_evidence: HashMap<usize, Vec<(String, f64)>>,
    /// Memoized area-cap verdicts per flat index (arch-only, so they
    /// are exact before any simulation).
    arch_feasibility: HashMap<usize, bool>,
    /// Per-rung evaluation counts over the run (wire rung names).
    rung_used: BTreeMap<String, u64>,
    /// Total per-model frontier hypervolume after each generation
    /// (stopping rule only).
    hv_history: Vec<f64>,
    /// Whether the stopping rule ended the run.
    stalled: bool,
}

impl Run<'_> {
    fn space(&self) -> usize {
        self.axes.point_count()
    }

    fn remaining_budget(&self) -> u64 {
        self.budget.saturating_sub(self.used)
    }

    /// Submits one batch through the service (journaled when attached)
    /// and waits for it; charges one budget unit per point.
    fn evaluate_batch(&mut self, points: Vec<PointSpec>) -> Result<Vec<DseOutcome>, DseError> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        self.used += points.len() as u64;
        let jobs = points.into_iter().map(|point| self.jobs.job(point)).collect();
        let submission =
            Submission { jobs, journal: self.journal.clone(), ..Submission::default() };
        Ok(self.service.submit_batch(submission)?.wait())
    }

    /// Records full-fidelity outcomes and their index vectors, feeding
    /// any proxy evidence the point accumulated on its way up the
    /// ladder into the rank-fidelity calibration.
    fn record(&mut self, flats: &[usize], outcomes: Vec<DseOutcome>) {
        debug_assert_eq!(flats.len(), outcomes.len());
        for (&flat, outcome) in flats.iter().zip(outcomes) {
            if let Some(evidence) = self.proxy_evidence.remove(&flat) {
                if let Some((full_primary, _)) = self.objectives_of(&outcome) {
                    for (rung, proxy_primary) in evidence {
                        self.calibration.record(
                            &outcome.point.model.name,
                            &rung,
                            proxy_primary,
                            full_primary as f64,
                        );
                    }
                }
            }
            self.points.push(self.axes.indices_of(flat));
            self.outcomes.push(outcome);
        }
    }

    /// Remembers the proxy primary objective a rung measured for a
    /// point (consumed by [`Run::record`] on graduation).
    fn note_proxy(&mut self, flat: usize, rung: &str, primary: u64) {
        self.proxy_evidence.entry(flat).or_default().push((rung.to_owned(), primary as f64));
    }

    /// The scouting budget share in effect: the pinned share when set,
    /// otherwise the mean of [`scout_share_for`] over every
    /// `(model, coarse rung)` pair — uncalibrated pairs contribute the
    /// historical half, so a fresh run splits the budget exactly as the
    /// fixed-cap engine did. 0 when the ladder has no simulated coarse
    /// rung (nothing to scout with).
    fn scout_share(&self) -> f64 {
        if let Some(pinned) = self.scout_share_pin {
            return pinned;
        }
        let rungs = self.ladder.coarse_rung_names();
        if rungs.is_empty() {
            return 0.0;
        }
        let mut names: Vec<&str> = self.axes.models.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let mut total = 0.0;
        let mut count = 0usize;
        for model in &names {
            for rung in &rungs {
                total += scout_share_for(self.calibration.tau(model, rung));
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    /// The scouting allowance in evaluations: `⌈budget × share⌉`,
    /// recomputed every generation so the split tracks the calibration
    /// as it accumulates.
    fn scout_budget(&self) -> usize {
        (self.budget as f64 * self.scout_share()).ceil() as usize
    }

    /// Whether a point passes the arch-derived area cap (memoized; the
    /// cap is exact before any simulation). Always true with inactive
    /// caps.
    fn arch_feasible(&mut self, flat: usize) -> bool {
        if !self.caps.is_active() {
            return true;
        }
        if let Some(&known) = self.arch_feasibility.get(&flat) {
            return known;
        }
        let point = self.axes.point(self.axes.indices_of(flat));
        let feasible = self.caps.admits_arch(&point.arch(&self.base));
        self.arch_feasibility.insert(flat, feasible);
        feasible
    }

    /// The stopping rule: appends the current total frontier
    /// hypervolume to the history and reports whether the configured
    /// number of consecutive stalled generations has been reached.
    /// Without a configured rule this is free and always false.
    fn generation_stalled(&mut self) -> bool {
        let Some(limit) = self.stall_generations else { return false };
        self.hv_history.push(self.current_hypervolume());
        if hypervolume_stalled(&self.hv_history, limit as usize) {
            self.stalled = true;
            return true;
        }
        false
    }

    /// Total per-model frontier hypervolume of the recorded outcomes
    /// under the run objective, each model against its own worst-corner
    /// reference point.
    fn current_hypervolume(&self) -> f64 {
        let mut by_model: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
        for outcome in &self.outcomes {
            if let Some(objectives) = self.objectives_of(outcome) {
                by_model.entry(outcome.point.model.name.as_str()).or_default().push(objectives);
            }
        }
        by_model
            .values()
            .map(|points| {
                let reference = (
                    points.iter().map(|p| p.0).max().unwrap_or(0) + 1,
                    points.iter().map(|p| p.1).fold(0.0f64, f64::max) * 1.01 + f64::EPSILON,
                );
                analysis::hypervolume(points, reference)
            })
            .sum()
    }

    /// Cumulative per-model frontier size over the recorded outcomes.
    fn frontier_points(&self) -> usize {
        analysis::pareto_frontier_by_model_with(&self.outcomes, self.objective)
            .values()
            .map(Vec::len)
            .sum()
    }

    fn push_generation(
        &mut self,
        phase: &str,
        submitted: usize,
        coarse: usize,
        rungs: BTreeMap<String, usize>,
    ) {
        for (rung, count) in &rungs {
            *self.rung_used.entry(rung.clone()).or_default() += *count as u64;
            self.obs.rung_add(rung, *count as u64);
        }
        for (key, tau) in self.calibration.snapshot() {
            if let Some((model, rung)) = key.split_once('/') {
                self.obs.set_rank_fidelity(model, rung, tau);
            }
        }
        let scout_left = self.scout_budget().saturating_sub(self.coarse_used as usize);
        self.obs.scout_remaining.set(scout_left as i64);
        let stats = GenerationStats {
            index: self.generations.len(),
            phase: phase.to_owned(),
            submitted,
            coarse,
            frontier_points: self.frontier_points(),
            rungs,
        };
        let remaining = self.remaining_budget();
        self.obs.finish_generation(&stats, remaining);
        self.generations.push(stats);
    }

    /// The finite objectives of a recorded outcome under the run's
    /// [`Objective`] (`None` for failed points, non-finite energies,
    /// or unserved points under [`Objective::P99Latency`]).
    fn objectives_of(&self, outcome: &DseOutcome) -> Option<(u64, f64)> {
        let evaluation = outcome.evaluation()?;
        let objectives = self.objective.of(evaluation)?;
        objectives.1.is_finite().then_some(objectives)
    }

    /// Takes a strided (stratified) sample of up to `count` members of
    /// the ascending `pool`, removing them in one `retain` pass: even
    /// coverage of the grid — every model's subspace gets scouts — with
    /// the phase randomized from the run PRNG. A uniform sample of the
    /// same size routinely leaves whole regions of a small scouting
    /// budget unseen. (The pool is an index vector over the grid —
    /// O(space) memory, fine up to ~10⁷ points; beyond that the strided
    /// positions would need to be computed arithmetically like the
    /// evolutionary fallback scan.)
    fn sample_strided(&mut self, pool: &mut Vec<usize>, count: usize) -> Vec<usize> {
        let count = count.min(pool.len());
        if count == 0 {
            return Vec::new();
        }
        let stride = pool.len() / count;
        let start = self.rng.below(stride.max(1));
        let positions: HashSet<usize> = (0..count).map(|i| start + i * stride).collect();
        let picked: Vec<usize> = {
            let mut ordered: Vec<usize> = positions.iter().copied().collect();
            ordered.sort_unstable();
            ordered.into_iter().map(|at| pool[at]).collect()
        };
        let mut at = 0;
        pool.retain(|_| {
            let keep = !positions.contains(&at);
            at += 1;
            keep
        });
        picked
    }
}

// ---------------------------------------------------------------------------
// Successive halving
// ---------------------------------------------------------------------------

/// The finite `(cycles, energy)` objectives of a point, or `None` for a
/// failed/non-finite evaluation.
type Objectives = Option<(u64, f64)>;

/// Proxy evidence about one in-space point: its flat grid index, its
/// model name, the ladder level its objectives were measured at, and
/// those objectives (points sharing a projection share its objectives).
type PoolEntry = (usize, String, usize, Objectives);

/// Selection candidates grouped per model: `(index, (cycles, energy))`
/// pairs, where the index is an outcome index (parent selection).
type CandidatesByModel<'a> = BTreeMap<&'a str, Vec<(usize, (u64, f64))>>;

/// Appends a point's evidence to the promotion pool, indexed by flat
/// grid index so ladder climbs can update it in place.
fn push_pool(
    pool: &mut Vec<PoolEntry>,
    index: &mut HashMap<usize, usize>,
    flat: usize,
    model: String,
    objectives: Objectives,
) {
    index.insert(flat, pool.len());
    pool.push((flat, model, 0, objectives));
}

/// Replaces a pooled point's evidence with measurements from a higher
/// ladder rung.
fn climb_pool(
    pool: &mut [PoolEntry],
    index: &HashMap<usize, usize>,
    flat: usize,
    level: usize,
    objectives: Objectives,
) {
    if let Some(&at) = index.get(&flat) {
        pool[at].2 = level;
        pool[at].3 = objectives;
    }
}

/// The hypervolume stopping rule: true when the last `limit`
/// generation-over-generation deltas are all relatively negligible
/// (within [`STALL_RELATIVE_EPSILON`] of the preceding reading). Never
/// stalls with `limit == 0` or before `limit + 1` readings exist.
fn hypervolume_stalled(history: &[f64], limit: usize) -> bool {
    if limit == 0 || history.len() <= limit {
        return false;
    }
    history[history.len() - limit - 1..]
        .windows(2)
        .all(|pair| (pair[1] - pair[0]).abs() <= STALL_RELATIVE_EPSILON * pair[0].abs())
}

fn successive_halving(run: &mut Run) -> Result<(), DseError> {
    let space = run.space();
    let generation = generation_size(space);
    let chain: Vec<Fidelity> = run.ladder.rungs().to_vec();
    // A simulated scouting rung with no allowance could never sample:
    // like an empty ladder, the run then samples at full fidelity.
    let scout = chain
        .first()
        .filter(|rung| **rung == Fidelity::Analytical || run.scout_budget() > 0)
        .cloned();
    let scout_name = scout.as_ref().map(Fidelity::name).unwrap_or_default();
    // Flat indices never sampled at any fidelity; shrinks as
    // generations consume it.
    let mut unseen: Vec<usize> = (0..space).collect();
    // Accumulated proxy evidence, one entry per sampled in-space point.
    let mut pool: Vec<PoolEntry> = Vec::new();
    let mut pool_index: HashMap<usize, usize> = HashMap::new();
    let mut proxy_results: HashMap<String, Objectives> = HashMap::new();
    // Full outcomes of the proxy evaluations, so an in-space point that
    // *is* a previously scouted projection is recorded from the held
    // outcome instead of being submitted (and charged) a second time.
    let mut proxy_outcomes_by_label: HashMap<String, DseOutcome> = HashMap::new();

    while run.remaining_budget() > 0 {
        run.obs.begin_generation();
        let mut rungs: BTreeMap<String, usize> = BTreeMap::new();
        // Simulated proxy evaluations (scouting and ladder climbs) get
        // at most the calibrated share of the total budget; the rest is
        // reserved for full-fidelity promotions of the survivors.
        // Without the split, late generations keep paying for proxy
        // evidence they no longer have the budget to act on. Sampled
        // points that are their own projection are full-fidelity
        // evaluations and do not count against the scouting share.
        let scout_budget = run.scout_budget();

        // --- Scouting rung: a strided sample of fresh points priced at
        // the bottom of the ladder (skipped once the scouting share of
        // the budget is spent). ---
        let remaining = run.remaining_budget() as usize;
        let sample_size = match &scout {
            // Analytical pricing is free: a full generation regardless
            // of remaining budget.
            Some(Fidelity::Analytical) => generation,
            Some(_) if (run.coarse_used as usize) < scout_budget => generation.min(remaining),
            Some(_) => 0,
            // An empty ladder degenerates to pure strided search.
            None => generation.min(remaining),
        };
        let sampled = run.sample_strided(&mut unseen, sample_size);
        let mut direct = Vec::new(); // projection == point: full fidelity
        let mut projected = Vec::new();
        match &scout {
            Some(Fidelity::Analytical) => {
                for &flat in &sampled {
                    let point = run.axes.point(run.axes.indices_of(flat));
                    let objectives = run.analytical.objectives(&point);
                    if let Some((cycles, _)) = objectives {
                        run.note_proxy(flat, &scout_name, cycles);
                    }
                    push_pool(&mut pool, &mut pool_index, flat, point.model.name, objectives);
                }
                if !sampled.is_empty() {
                    *rungs.entry(scout_name.clone()).or_default() += sampled.len();
                }
            }
            Some(rung) => {
                for &flat in &sampled {
                    let point = run.axes.point(run.axes.indices_of(flat));
                    let projection = rung.project(&point);
                    if projection == point {
                        run.visited.insert(flat);
                        if let Some(outcome) = proxy_outcomes_by_label.get(&point.label()) {
                            // This point was already evaluated as
                            // another point's projection: record the
                            // held outcome for free.
                            let objectives = run.objectives_of(outcome);
                            push_pool(
                                &mut pool,
                                &mut pool_index,
                                flat,
                                point.model.name.clone(),
                                objectives,
                            );
                            run.record(&[flat], vec![outcome.clone()]);
                        } else {
                            direct.push((flat, point));
                        }
                    } else {
                        projected.push((flat, point, projection));
                    }
                }
            }
            None => {
                for &flat in &sampled {
                    let point = run.axes.point(run.axes.indices_of(flat));
                    run.visited.insert(flat);
                    direct.push((flat, point));
                }
            }
        }
        // A direct point is its own projection, so a sibling sampled in
        // the same generation (e.g. the same model at a higher
        // resolution) must share its evaluation, not submit a duplicate
        // proxy job.
        let direct_labels: HashSet<String> =
            direct.iter().map(|(_, point)| point.label()).collect();
        let mut scout_jobs: Vec<(usize, String, PointSpec)> = Vec::new();
        // Points whose projection is evaluated by (or shared with) this
        // generation's batches: their pool evidence is filled in
        // *after* the batches land, so a same-generation label
        // collision cannot freeze a placeholder into the pool.
        let mut shared: Vec<(usize, String, String)> = Vec::new();
        for (flat, point, projection) in projected {
            let label = projection.label();
            match proxy_results.get(&label) {
                // A previous generation already paid for (or failed)
                // this projection: reuse its evidence.
                Some(&objectives) => {
                    if let Some((cycles, _)) = objectives {
                        run.note_proxy(flat, &scout_name, cycles);
                    }
                    push_pool(&mut pool, &mut pool_index, flat, point.model.name, objectives);
                }
                None => {
                    if !direct_labels.contains(&label)
                        && !scout_jobs.iter().any(|(_, pending, _)| pending == &label)
                    {
                        scout_jobs.push((flat, label.clone(), projection));
                    }
                    shared.push((flat, point.model.name, label));
                }
            }
        }
        // Enforce the scouting allowance on the actual proxy jobs
        // (their count is only known after classification): projections
        // beyond the allowance are dropped and their points returned to
        // the unseen pool, so the promotion rung always keeps its
        // share.
        let mut allowance = scout_budget.saturating_sub(run.coarse_used as usize);
        if scout_jobs.len() > allowance {
            let dropped: HashSet<String> =
                scout_jobs[allowance..].iter().map(|(_, label, _)| label.clone()).collect();
            scout_jobs.truncate(allowance);
            shared.retain(|(flat, _, label)| {
                if dropped.contains(label) {
                    unseen.push(*flat);
                    false
                } else {
                    true
                }
            });
            unseen.sort_unstable();
        }
        allowance -= scout_jobs.len();

        let direct_flats: Vec<usize> = direct.iter().map(|(flat, _)| *flat).collect();
        let direct_points: Vec<PointSpec> = direct.into_iter().map(|(_, point)| point).collect();
        let direct_outcomes = run.evaluate_batch(direct_points)?;
        for (&flat, outcome) in direct_flats.iter().zip(&direct_outcomes) {
            let objectives = run.objectives_of(outcome);
            push_pool(
                &mut pool,
                &mut pool_index,
                flat,
                outcome.point.model.name.clone(),
                objectives,
            );
            // A direct point is its own projection: register it so a
            // sibling projecting onto it (e.g. the same model at a
            // higher resolution) reuses this evaluation instead of
            // paying budget for a proxy job the cache already holds.
            proxy_results.insert(outcome.point.label(), objectives);
        }
        if !direct_flats.is_empty() {
            *rungs.entry("full".to_owned()).or_default() += direct_flats.len();
        }
        run.record(&direct_flats, direct_outcomes);

        let scout_points: Vec<PointSpec> =
            scout_jobs.iter().map(|(_, _, projection)| projection.clone()).collect();
        let scout_count = scout_points.len();
        run.coarse_used += scout_count as u64;
        let scout_outcomes = run.evaluate_batch(scout_points)?;
        for ((_, label, _), outcome) in scout_jobs.iter().zip(&scout_outcomes) {
            proxy_results.insert(label.clone(), run.objectives_of(outcome));
            proxy_outcomes_by_label.insert(label.clone(), outcome.clone());
        }
        if scout_count > 0 {
            *rungs.entry(scout_name.clone()).or_default() += scout_count;
        }
        for (flat, model, label) in shared {
            let objectives = proxy_results.get(&label).copied().flatten();
            if let Some((cycles, _)) = objectives {
                run.note_proxy(flat, &scout_name, cycles);
            }
            push_pool(&mut pool, &mut pool_index, flat, model, objectives);
        }

        // --- Promotion: climb survivors one rung up the ladder, best
        // proxy Pareto rank first (ascending cycles within a rank);
        // points at the top of the chain graduate to full fidelity. The
        // proxy objectives are only a proxy, so the band behind the
        // scouted frontier still earns a look while promotion budget
        // remains. With active caps, arch-infeasible points sort behind
        // every feasible candidate: dominated-but-feasible fallbacks
        // get their full-fidelity look first. ---
        let mut by_model: PromotionPool = BTreeMap::new();
        for (flat, model, level, objectives) in &pool {
            if let Some(objectives) = objectives {
                by_model.entry(model.clone()).or_default().push((*flat, *level, *objectives));
            }
        }
        let mut queues: Vec<Vec<(usize, usize)>> = Vec::new();
        for candidates in by_model.values() {
            let objectives: Vec<(u64, f64)> =
                candidates.iter().map(|&(_, _, objectives)| objectives).collect();
            let ranks = analysis::pareto_ranks(&objectives);
            let feasible: Vec<bool> =
                candidates.iter().map(|&(flat, _, _)| run.arch_feasible(flat)).collect();
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_by(|&a, &b| {
                feasible[b]
                    .cmp(&feasible[a])
                    .then(ranks[a].cmp(&ranks[b]))
                    .then(objectives[a].0.cmp(&objectives[b].0))
                    .then(a.cmp(&b))
            });
            queues.push(
                order
                    .into_iter()
                    .filter(|&local| !run.visited.contains(&candidates[local].0))
                    .map(|local| (candidates[local].0, candidates[local].1))
                    .collect(),
            );
        }
        // Round-robin across models so a tight budget still promotes
        // every workload's best candidates.
        let mut full_promotions: Vec<usize> = Vec::new();
        let mut climb_jobs: Vec<(usize, String, PointSpec, String)> = Vec::new();
        let mut climb_links: Vec<(usize, usize, String, String)> = Vec::new();
        let mut free_climbs = 0usize;
        let mut planned = 0usize;
        let mut cursor = 0;
        let lanes = queues.len().max(1);
        while (planned as u64) < run.remaining_budget()
            && queues.iter().any(|queue| !queue.is_empty())
        {
            let queue = &mut queues[cursor % lanes];
            if let Some(&(flat, level)) = queue.first() {
                queue.remove(0);
                let next = level + 1;
                let climb = match chain.get(next) {
                    Some(rung @ Fidelity::CoarseSim(_)) => {
                        let point = run.axes.point(run.axes.indices_of(flat));
                        let projection = rung.project(&point);
                        (projection != point).then(|| (projection, rung.name()))
                    }
                    _ => None,
                };
                match climb {
                    Some((projection, rung_name)) => {
                        let label = projection.label();
                        if let Some(&objectives) = proxy_results.get(&label) {
                            // Another point's projection already paid
                            // for this rung: climb for free.
                            if let Some((cycles, _)) = objectives {
                                run.note_proxy(flat, &rung_name, cycles);
                            }
                            climb_pool(&mut pool, &pool_index, flat, next, objectives);
                            free_climbs += 1;
                        } else if climb_jobs.iter().any(|(_, pending, _, _)| pending == &label) {
                            // Shares a climb job already planned this
                            // round; evidence fills in after the batch.
                            climb_links.push((flat, next, rung_name, label));
                        } else if allowance > 0 {
                            allowance -= 1;
                            planned += 1;
                            climb_jobs.push((flat, label.clone(), projection, rung_name.clone()));
                            climb_links.push((flat, next, rung_name, label));
                        } else {
                            // The scouting allowance is spent: graduate
                            // the point directly so promotion budget
                            // never strands behind an unaffordable
                            // intermediate rung.
                            run.visited.insert(flat);
                            planned += 1;
                            full_promotions.push(flat);
                        }
                    }
                    None => {
                        run.visited.insert(flat);
                        planned += 1;
                        full_promotions.push(flat);
                    }
                }
            }
            cursor += 1;
        }

        let climb_points: Vec<PointSpec> =
            climb_jobs.iter().map(|(_, _, projection, _)| projection.clone()).collect();
        let climb_count = climb_points.len();
        run.coarse_used += climb_count as u64;
        let climb_outcomes = run.evaluate_batch(climb_points)?;
        for ((_, label, _, rung_name), outcome) in climb_jobs.iter().zip(&climb_outcomes) {
            proxy_results.insert(label.clone(), run.objectives_of(outcome));
            proxy_outcomes_by_label.insert(label.clone(), outcome.clone());
            *rungs.entry(rung_name.clone()).or_default() += 1;
        }
        for (flat, next, rung_name, label) in climb_links {
            let objectives = proxy_results.get(&label).copied().flatten();
            if let Some((cycles, _)) = objectives {
                run.note_proxy(flat, &rung_name, cycles);
            }
            climb_pool(&mut pool, &pool_index, flat, next, objectives);
        }

        let promoted_points: Vec<PointSpec> =
            full_promotions.iter().map(|&flat| run.axes.point(run.axes.indices_of(flat))).collect();
        let promoted_outcomes = run.evaluate_batch(promoted_points)?;
        run.record(&full_promotions, promoted_outcomes);
        if !full_promotions.is_empty() {
            *rungs.entry("full".to_owned()).or_default() += full_promotions.len();
        }

        let submitted = direct_flats.len() + scout_count + climb_count + full_promotions.len();
        run.push_generation("halving", submitted, scout_count + climb_count, rungs);
        if submitted == 0 && free_climbs == 0 {
            // Nothing left to sample, climb, or promote: the space (or
            // the promotable frontier) is exhausted.
            break;
        }
        if run.generation_stalled() {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Evolutionary search
// ---------------------------------------------------------------------------

fn evolutionary(run: &mut Run) -> Result<(), DseError> {
    let space = run.space();
    let population = generation_size(space);

    // Seed: a sparse strided sample of the grid. The model axis is the
    // outermost, so the stride covers every workload.
    run.obs.begin_generation();
    let mut seeds: Vec<usize> =
        (0..population.min(space)).map(|i| i * space / population.min(space)).collect();
    seeds.dedup();
    seeds.truncate(run.remaining_budget() as usize);
    for &flat in &seeds {
        run.visited.insert(flat);
    }
    let seed_points: Vec<PointSpec> =
        seeds.iter().map(|&flat| run.axes.point(run.axes.indices_of(flat))).collect();
    let submitted = seed_points.len();
    let seed_outcomes = run.evaluate_batch(seed_points)?;
    run.record(&seeds, seed_outcomes);
    let seed_rungs = if submitted > 0 {
        BTreeMap::from([("full".to_owned(), submitted)])
    } else {
        BTreeMap::new()
    };
    run.push_generation("seed", submitted, 0, seed_rungs);

    // Breed half a population per generation: twice the selection
    // rounds per budget, which matters far more than brood size when
    // the budget is a fraction of the space. With an analytical rung on
    // the ladder, a triple brood is bred and the free estimator keeps
    // the most promising (feasible-first, ascending estimated cycles).
    let brood = (population / 2).max(2);
    let prescreen = run.ladder.has_analytical();
    while run.remaining_budget() > 0 && run.visited.len() < space {
        run.obs.begin_generation();
        let mut rungs: BTreeMap<String, usize> = BTreeMap::new();
        let parents = select_parents(run, population);
        let want = if prescreen { brood * 3 } else { brood };
        let mut children = offspring(run, &parents, want);
        if children.is_empty() {
            break;
        }
        if prescreen && children.len() > 1 {
            *rungs.entry("analytical".to_owned()).or_default() += children.len();
            let keep = brood.min(children.len()).min(run.remaining_budget() as usize);
            let priced: Vec<(usize, bool, Objectives)> = children
                .iter()
                .map(|&flat| {
                    let point = run.axes.point(run.axes.indices_of(flat));
                    let objectives = run.analytical.objectives(&point);
                    (flat, run.arch_feasible(flat), objectives)
                })
                .collect();
            let mut order: Vec<usize> = (0..priced.len()).collect();
            order.sort_by(|&a, &b| {
                let (_, fa, oa) = priced[a];
                let (_, fb, ob) = priced[b];
                fb.cmp(&fa)
                    .then_with(|| match (oa, ob) {
                        (Some(x), Some(y)) => x.0.cmp(&y.0),
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => std::cmp::Ordering::Equal,
                    })
                    .then(a.cmp(&b))
            });
            children = order
                .into_iter()
                .take(keep)
                .map(|at| {
                    let (flat, _, objectives) = priced[at];
                    if let Some((cycles, _)) = objectives {
                        run.note_proxy(flat, "analytical", cycles);
                    }
                    flat
                })
                .collect();
        }
        for &flat in &children {
            run.visited.insert(flat);
        }
        let child_points: Vec<PointSpec> =
            children.iter().map(|&flat| run.axes.point(run.axes.indices_of(flat))).collect();
        let submitted = child_points.len();
        let child_outcomes = run.evaluate_batch(child_points)?;
        run.record(&children, child_outcomes);
        *rungs.entry("full".to_owned()).or_default() += submitted;
        run.push_generation("generation", submitted, 0, rungs);
        if run.generation_stalled() {
            break;
        }
    }
    Ok(())
}

/// Selects up to `count` parents from the evaluated population: per
/// model, sort by (cap feasibility, Pareto rank, descending crowding
/// distance, evaluation order), then interleave the models round-robin
/// so every workload keeps breeding stock. With inactive caps every
/// outcome is feasible and the ordering is the classic NSGA-II one;
/// with active caps, cap-violating outcomes breed only after every
/// feasible candidate — including dominated-but-feasible ones.
fn select_parents(run: &Run, count: usize) -> Vec<[usize; AXIS_COUNT]> {
    let mut by_model: CandidatesByModel = BTreeMap::new();
    for (at, outcome) in run.outcomes.iter().enumerate() {
        if let Some(objectives) = run.objectives_of(outcome) {
            by_model.entry(outcome.point.model.name.as_str()).or_default().push((at, objectives));
        }
    }
    let mut queues: Vec<std::vec::IntoIter<usize>> = by_model
        .values()
        .map(|group| {
            let objectives: Vec<(u64, f64)> = group.iter().map(|(_, o)| *o).collect();
            let ranks = analysis::pareto_ranks(&objectives);
            let crowding = analysis::crowding_distances(&objectives, &ranks);
            let feasible: Vec<bool> =
                group.iter().map(|&(at, _)| run.caps.admits_outcome(&run.outcomes[at])).collect();
            let mut order: Vec<usize> = (0..group.len()).collect();
            order.sort_by(|&a, &b| {
                feasible[b]
                    .cmp(&feasible[a])
                    .then(ranks[a].cmp(&ranks[b]))
                    .then(crowding[b].total_cmp(&crowding[a]))
                    .then(group[a].0.cmp(&group[b].0))
            });
            order.into_iter().map(|local| group[local].0).collect::<Vec<usize>>().into_iter()
        })
        .collect();
    let mut parents = Vec::new();
    let mut cursor = 0;
    let lanes = queues.len().max(1);
    while parents.len() < count && queues.iter().any(|queue| queue.len() > 0) {
        if let Some(at) = queues[cursor % lanes].next() {
            parents.push(run.points[at]);
        }
        cursor += 1;
    }
    parents
}

/// Breeds up to `count` fresh (unvisited) children: mutation steps one
/// axis to an adjacent value, crossover mixes two parents per axis.
/// When breeding stalls (tiny spaces, exhausted neighborhoods), the
/// remainder is filled by a deterministic scan from a random grid
/// offset, which guarantees a full-budget run exhausts the space.
fn offspring(run: &mut Run, parents: &[[usize; AXIS_COUNT]], count: usize) -> Vec<usize> {
    let space = run.space();
    let unvisited = space - run.visited.len();
    let target = count.min(run.remaining_budget() as usize).min(unvisited);
    let mut children: Vec<usize> = Vec::new();
    let mut fresh: HashSet<usize> = HashSet::new();
    let mut tries = 0;
    // Parents are rank-ordered (round-robin across models), so a
    // min-of-two tournament on the index biases breeding toward the
    // frontier without starving diversity.
    let tournament = |rng: &mut XorShift, len: usize| rng.below(len).min(rng.below(len));
    while children.len() < target && tries < 20 * count && !parents.is_empty() {
        tries += 1;
        let child = if parents.len() >= 2 && coin(&mut run.rng) {
            let a = parents[tournament(&mut run.rng, parents.len())];
            let b = parents[tournament(&mut run.rng, parents.len())];
            crossover(&mut run.rng, a, b)
        } else {
            let parent = parents[tournament(&mut run.rng, parents.len())];
            mutate(&mut run.rng, &run.axes, parent)
        };
        let flat = run.axes.flat_of(child);
        if !run.visited.contains(&flat) && fresh.insert(flat) {
            children.push(flat);
        }
    }
    if children.len() < target {
        let start = run.rng.below(space.max(1));
        for offset in 0..space {
            if children.len() >= target {
                break;
            }
            let flat = (start + offset) % space;
            if !run.visited.contains(&flat) && fresh.insert(flat) {
                children.push(flat);
            }
        }
    }
    children
}

fn mutate(
    rng: &mut XorShift,
    axes: &SweepAxes,
    parent: [usize; AXIS_COUNT],
) -> [usize; AXIS_COUNT] {
    let dims = axes.dims();
    let movable: Vec<usize> = (0..AXIS_COUNT).filter(|&axis| dims[axis] > 1).collect();
    let mut child = parent;
    if movable.is_empty() {
        return child;
    }
    let axis = movable[rng.below(movable.len())];
    let at = child[axis];
    child[axis] = if at == 0 {
        1
    } else if at + 1 == dims[axis] {
        at - 1
    } else if coin(rng) {
        at + 1
    } else {
        at - 1
    };
    child
}

fn crossover(
    rng: &mut XorShift,
    a: [usize; AXIS_COUNT],
    b: [usize; AXIS_COUNT],
) -> [usize; AXIS_COUNT] {
    let mut child = a;
    for axis in 0..AXIS_COUNT {
        if coin(rng) {
            child[axis] = b[axis];
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use cimflow_compiler::{SearchMode, Strategy};

    fn space() -> SweepSpec {
        SweepSpec::new()
            .named("explore-unit")
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
            .with_flit_sizes(&[8, 16])
    }

    #[test]
    fn spec_json_round_trips_and_defaults_apply() {
        let spec = ExploreSpec::new(space())
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(99);
        let back = ExploreSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let partial = ExploreSpec::from_json(
            "{\"space\": {\"models\": [{\"name\": \"resnet18\", \"resolution\": 32}], \
             \"strategies\": [\"dp\"], \"mg_sizes\": [2, 4, 8, 16]}}",
        )
        .unwrap();
        assert_eq!(partial.budget, 4, "a quarter of the 4-point grid, floored at 4");
        assert_eq!(partial.algorithm, ExploreAlgorithm::Evolutionary);
        assert_eq!(partial.seed, DEFAULT_SEED);
        assert!(ExploreSpec::from_json("{\"budget\": 4}").is_err(), "space is required");

        assert_eq!(ExploreAlgorithm::from_name("sh"), Some(ExploreAlgorithm::SuccessiveHalving));
        assert_eq!(ExploreAlgorithm::from_name("evo"), Some(ExploreAlgorithm::Evolutionary));
        assert_eq!(ExploreAlgorithm::from_name("annealing"), None);
    }

    #[test]
    fn coarse_projection_floors_resolution_and_pins_search() {
        let point = SweepSpec::new()
            .with_model("vgg19", 64)
            .with_strategies(&[Strategy::DpOptimized])
            .with_search_modes(&[SearchMode::Joint])
            .expand()
            .unwrap()[0]
            .clone();
        let rung = Fidelity::CoarseSim(COARSE_RESOLUTION);
        let coarse = rung.project(&point);
        assert_eq!(coarse.model.resolution, COARSE_RESOLUTION);
        assert_eq!(coarse.search, SearchMode::Sequential);
        assert_ne!(coarse, point);
        // A point already at the floor with the default search *is* its
        // own coarse projection.
        let fine = space().expand().unwrap()[0].clone();
        assert_eq!(rung.project(&fine), fine);
    }

    #[test]
    fn generation_size_scales_with_the_space() {
        assert_eq!(generation_size(1), 4);
        assert_eq!(generation_size(16), 4);
        assert_eq!(generation_size(100), 10);
        assert_eq!(generation_size(100_000), 32);
    }

    #[test]
    fn mutation_steps_one_axis_and_crossover_mixes() {
        let axes = space().axes().unwrap();
        let mut rng = XorShift::new(3);
        let parent = axes.indices_of(0);
        for _ in 0..32 {
            let child = mutate(&mut rng, &axes, parent);
            let moved: Vec<usize> =
                (0..AXIS_COUNT).filter(|&axis| child[axis] != parent[axis]).collect();
            assert_eq!(moved.len(), 1, "exactly one axis moves");
            let axis = moved[0];
            assert_eq!(child[axis].abs_diff(parent[axis]), 1, "the move is to an adjacent value");
        }
        let a = axes.indices_of(0);
        let b = axes.indices_of(axes.point_count() - 1);
        for _ in 0..32 {
            let child = crossover(&mut rng, a, b);
            for axis in 0..AXIS_COUNT {
                assert!(child[axis] == a[axis] || child[axis] == b[axis]);
            }
        }
    }

    #[test]
    fn shared_coarse_projections_do_not_drop_points() {
        // Two resolutions of one model project onto the *same* coarse
        // point (both floor to 32 px). Sampled in the same generation,
        // the projection must be scouted once and both siblings must
        // still be promotable — a frozen placeholder used to drop the
        // second sibling from the search forever.
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 48)
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping]);
        let spec = ExploreSpec::new(space)
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(1);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert_eq!(report.coarse_evaluated, 1, "the shared projection is scouted once");
        assert_eq!(report.evaluated, 2, "both siblings reach full fidelity");
        assert_eq!(report.budget_used, 3);
    }

    #[test]
    fn in_space_coarse_projections_share_the_direct_evaluation() {
        // The 32 px point *is* the 64 px point's coarse projection and a
        // grid point of its own: one evaluation serves both roles, no
        // coarse job is submitted, and no budget is double-charged.
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping]);
        let spec = ExploreSpec::new(space)
            .with_budget(2)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(5);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert_eq!(report.coarse_evaluated, 0, "the direct evaluation doubles as the scout");
        assert_eq!(report.evaluated, 2, "both grid points reach full fidelity");
        assert_eq!(report.budget_used, 2);
        assert_eq!(service.cache().stats().misses, 2, "nothing evaluates twice");
    }

    #[test]
    fn explore_counts_fidelity_splits_and_burns_down_the_budget_gauge() {
        use cimflow_obs::{MetricValue, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let tracer = Tracer::new(4096);
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 48)
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping]);
        let spec = ExploreSpec::new(space)
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(1);
        let service = EvalService::new(
            ServiceConfig::new()
                .with_workers(2)
                .with_metrics(registry.clone())
                .with_tracer(tracer.clone()),
        );
        let report = explore(&spec, &service, None).unwrap();

        let snapshot = registry.snapshot();
        let counter = |labels: &[(&str, &str)]| match snapshot.get("explore.evals", labels) {
            Some(MetricValue::Counter(n)) => *n,
            other => panic!("expected a counter at {labels:?}, got {other:?}"),
        };
        assert_eq!(counter(&[("fidelity", "coarse")]), report.coarse_evaluated as u64);
        assert_eq!(
            counter(&[("fidelity", "coarse")]) + counter(&[("fidelity", "full")]),
            report.budget_used
        );
        match snapshot.get("explore.budget_remaining", &[]) {
            Some(MetricValue::Gauge(left)) => {
                assert_eq!(*left as u64, spec.budget - report.budget_used)
            }
            other => panic!("expected the burn-down gauge, got {other:?}"),
        }
        // One generation span per recorded generation, attrs intact.
        let spans: Vec<_> =
            tracer.events().into_iter().filter(|e| e.category == "explore").collect();
        assert_eq!(spans.len(), report.generations.len());
        assert!(spans[0].attrs.iter().any(|(k, _)| k == "budget_remaining"));
    }

    #[test]
    fn explore_respects_the_budget_and_reports_a_frontier() {
        let spec = ExploreSpec::new(space()).with_budget(3).with_seed(11);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert!(report.budget_used <= 3);
        assert_eq!(report.evaluated, report.outcomes.len());
        assert!(report.evaluated >= 1);
        assert_eq!(report.space_points, 4);
        assert!(!report.frontier["mobilenetv2"].is_empty());
        assert!(!report.generations.is_empty());
        let submitted: usize = report.generations.iter().map(|g| g.submitted).sum();
        assert_eq!(submitted as u64, report.budget_used);

        // The same seed explores the same points; a different seed is
        // free to differ.
        let again = explore(&spec, &service, None).unwrap();
        assert_eq!(
            report.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
            again.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
        );
        // And the warm service served every revisit from the cache.
        assert!(again.outcomes.iter().all(|o| o.cached));
    }

    #[test]
    fn explore_rejects_a_ladder_no_point_can_use() {
        let ladder = FidelityLadder::new(vec![Fidelity::CoarseSim(64)]).unwrap();
        let spec = ExploreSpec::new(space()).with_budget(3).with_ladder(ladder);
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let err = explore(&spec, &service, None).unwrap_err();
        assert!(err.to_string().contains("coarse64"), "got: {err}");

        let bad_share = ExploreSpec::new(space()).with_budget(3).with_scout_share(Some(1.5));
        assert!(explore(&bad_share, &service, None).is_err());
    }

    #[test]
    fn custom_coarse_rung_resolutions_are_honored() {
        // A 48 px rung instead of the default 32 px floor: the scouted
        // projections must land on the configured rung and be reported
        // under its name.
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8]);
        let ladder = FidelityLadder::new(vec![Fidelity::CoarseSim(48)]).unwrap();
        let spec = ExploreSpec::new(space)
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(2)
            .with_ladder(ladder);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert!(report.rung_evaluated.contains_key("coarse48"), "{:?}", report.rung_evaluated);
        assert!(!report.rung_evaluated.contains_key("coarse32"));
        assert_eq!(report.coarse_evaluated as u64, report.rung_evaluated["coarse48"]);
    }

    #[test]
    fn analytical_rung_prices_for_free_and_calibrates() {
        // A pure-analytical ladder: scouting costs no budget, every
        // charged evaluation is full fidelity, and graduations feed the
        // rank-fidelity calibration.
        let ladder = FidelityLadder::new(vec![Fidelity::Analytical]).unwrap();
        let spec = ExploreSpec::new(space())
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(9)
            .with_ladder(ladder);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert_eq!(report.budget_used, 3);
        assert_eq!(report.evaluated, 3);
        assert_eq!(report.coarse_evaluated, 0, "analytical pricing charges nothing");
        assert_eq!(report.rung_evaluated["analytical"], 4, "the whole generation is priced");
        assert_eq!(report.rung_evaluated["full"], 3);
        assert!(
            report.rank_fidelity.contains_key("mobilenetv2/analytical"),
            "three graduations reach the calibration floor: {:?}",
            report.rank_fidelity
        );
        assert_eq!(report.scout_share, 0.0, "no simulated proxy rung, no scouting split");
    }

    #[test]
    fn pinned_scout_share_reproduces_the_fixed_split() {
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 48)
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping]);
        let adaptive = ExploreSpec::new(space)
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(1);
        let pinned = adaptive.clone().with_scout_share(Some(0.5));
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let a = explore(&adaptive, &service, None).unwrap();
        let b = explore(&pinned, &service, None).unwrap();
        assert_eq!(
            a.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
            b.outcomes.iter().map(|o| o.point.label()).collect::<Vec<_>>(),
            "below the calibration floor the adaptive split is the historical half"
        );
        assert_eq!(b.scout_share, 0.5);
    }

    #[test]
    fn a_pinned_zero_scouting_share_spends_the_budget_at_full_fidelity() {
        // Every point's coarse projection differs from the point, so the
        // default coarse rung would have to scout, yet no scouting is
        // allowed: the run samples at full fidelity instead of nothing.
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 48)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
            .with_flit_sizes(&[8, 16]);
        let spec = ExploreSpec::new(space)
            .with_budget(3)
            .with_algorithm(ExploreAlgorithm::SuccessiveHalving)
            .with_seed(4)
            .with_scout_share(Some(0.0));
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert_eq!(report.budget_used, 3);
        assert_eq!(report.coarse_evaluated, 0);
        assert_eq!(report.evaluated, 3);
    }

    #[test]
    fn hypervolume_stall_rule_needs_enough_flat_readings() {
        assert!(!hypervolume_stalled(&[1.0, 1.0, 1.0], 0), "limit 0 disables the rule");
        assert!(!hypervolume_stalled(&[1.0, 1.0], 2), "too few readings");
        assert!(hypervolume_stalled(&[1.0, 1.0, 1.0], 2));
        assert!(hypervolume_stalled(&[5.0, 1.0, 1.0, 1.0], 2), "older growth is forgiven");
        assert!(!hypervolume_stalled(&[1.0, 2.0, 2.0, 2.0], 3), "growth within the window");
        assert!(hypervolume_stalled(&[1.0, 2.0, 2.0, 2.0], 2));
        assert!(hypervolume_stalled(&[0.0, 0.0], 1), "an empty frontier can stall");
    }

    #[test]
    fn infeasible_caps_keep_a_dominated_but_feasible_frontier() {
        // A cap nothing satisfies: the frontier falls back to the
        // unconstrained one instead of vanishing.
        let impossible = FeasibilityCaps { max_area_mm2: Some(1e-6), max_power_w: None };
        let spec = ExploreSpec::new(space()).with_budget(3).with_seed(11).with_caps(impossible);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let report = explore(&spec, &service, None).unwrap();
        assert!(!report.frontier["mobilenetv2"].is_empty(), "fallback frontier survives");

        // A cap everything satisfies changes nothing.
        let open = FeasibilityCaps { max_area_mm2: Some(1e9), max_power_w: Some(1e9) };
        let relaxed = ExploreSpec::new(space()).with_budget(3).with_seed(11).with_caps(open);
        let baseline = ExploreSpec::new(space()).with_budget(3).with_seed(11);
        let capped = explore(&relaxed, &service, None).unwrap();
        let free = explore(&baseline, &service, None).unwrap();
        assert_eq!(capped.frontier, free.frontier);
    }
}
