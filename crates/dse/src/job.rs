//! The unit of work of the evaluation service: a resolved design point
//! ([`Job`]), its result ([`DseOutcome`]) and its progress event
//! ([`Progress`]), plus the resolver that turns the points of a
//! [`SweepSpec`] into jobs, for the whole grid ([`expand_jobs`]) or for
//! the points an exploration picks.
//!
//! A failing point produces an `Err` outcome in its own slot; it never
//! aborts the sweep, and outcomes keep grid order no matter which worker
//! finished first.

use std::collections::HashMap;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_nn::{models, Model};
use cimflow_traffic::WorkloadSpec;

use crate::eval::{served_model_name, TrafficJob};
use crate::{CacheKey, DseError, Evaluation, PointSpec, SweepSpec};

/// One schedulable unit: a resolved design point.
///
/// The model is behind an `Arc` so that the hundreds of points sharing a
/// model do not clone its graph; `model` is an `Err` when the spec named
/// a model the zoo cannot resolve (the service turns that into a
/// per-point error outcome).
#[derive(Debug, Clone)]
pub struct Job {
    /// The descriptive point.
    pub spec: PointSpec,
    /// The concrete architecture of the point.
    pub arch: ArchConfig,
    /// The resolved model, or the resolution error.
    pub model: Result<Arc<Model>, DseError>,
    /// The serving workload of the point (shared across the grid);
    /// `None` when the sweep has no traffic section.
    pub traffic: Option<Arc<TrafficJob>>,
}

impl Job {
    /// The serving workload this job actually runs: present only when a
    /// traffic section was attached **and** the point offers load.
    pub(crate) fn active_traffic(&self) -> Option<&Arc<TrafficJob>> {
        self.traffic.as_ref().filter(|_| self.spec.offered_qps > 0)
    }

    /// The content cache key of the job (`None` for unresolvable
    /// models). Includes the serving-workload fingerprint, so a point
    /// evaluated under load never answers (or is answered by) the same
    /// design evaluated idle or at a different rate.
    pub(crate) fn cache_key(&self) -> Option<CacheKey> {
        let model = self.model.as_ref().ok()?;
        let key = CacheKey::of(&self.arch, model, self.spec.strategy, self.spec.search);
        Some(match self.active_traffic() {
            Some(traffic) => key.with_traffic(traffic.fingerprint(self.spec.offered_qps)),
            None => key,
        })
    }
}

/// The outcome of one grid point: the point description plus either its
/// evaluation or the error that stopped it.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// Which design point this is.
    pub point: PointSpec,
    /// The evaluation, or the per-point failure.
    pub result: Result<Evaluation, DseError>,
    /// Whether the result came out of the evaluation cache.
    pub cached: bool,
}

impl DseOutcome {
    /// The evaluation if the point succeeded.
    pub fn evaluation(&self) -> Option<&Evaluation> {
        self.result.as_ref().ok()
    }
}

/// A progress event, delivered once per finished point (in completion
/// order, possibly from multiple threads).
#[derive(Debug, Clone)]
pub struct Progress {
    /// Points finished so far (including this one).
    pub completed: usize,
    /// Total points of the sweep.
    pub total: usize,
    /// Index of the finished point in grid order.
    pub index: usize,
    /// Label of the finished point.
    pub label: String,
    /// Whether the point succeeded.
    pub ok: bool,
    /// Whether the result was served from the cache.
    pub cached: bool,
}

/// Resolves the points of one [`SweepSpec`] into [`Job`]s. Built once
/// per spec, it is the one place a point's model and serving workload
/// are resolved: [`expand_jobs`] runs it over the whole grid, and the
/// explorer over the points it picks.
pub(crate) struct JobResolver {
    base: ArchConfig,
    /// The serving workload of a traffic section without co-location
    /// (each point then serves its own model alone).
    solo_workload: Option<WorkloadSpec>,
    /// Under co-location, the pool every point serves.
    colocated: Option<Arc<TrafficJob>>,
    /// Each distinct `(name, resolution)` resolves once (a `HashMap`, so
    /// a 10k-point grid does not pay a linear scan per point).
    models: HashMap<(String, u32), Result<Arc<Model>, DseError>>,
    solo_traffic: HashMap<(String, u32), Arc<TrafficJob>>,
}

impl JobResolver {
    /// Validates the spec's traffic section once: the mix (when set)
    /// must match the served-model count, which is the whole model axis
    /// under co-location and 1 otherwise. Under co-location every point
    /// serves the whole model axis (in mix order), so the pool resolves
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for an invalid workload, and the
    /// model's resolution error when a co-located model cannot be
    /// resolved (a typo must not silently shrink the mix).
    pub(crate) fn new(spec: &SweepSpec) -> Result<Self, DseError> {
        let mut resolver = JobResolver {
            base: spec.base_arch(),
            solo_workload: None,
            colocated: None,
            models: HashMap::new(),
            solo_traffic: HashMap::new(),
        };
        if let Some(traffic) = &spec.traffic {
            let served = if traffic.colocate { spec.models.len() } else { 1 };
            traffic.workload.validate(served).map_err(|e| DseError::spec(e.to_string()))?;
            if traffic.colocate {
                let mut colocated = Vec::with_capacity(spec.models.len());
                for m in &spec.models {
                    let model = resolver.model(&m.name, m.resolution)?;
                    colocated.push((served_model_name(&m.name, m.resolution), model));
                }
                let pool = TrafficJob::new(traffic.workload.clone(), colocated);
                resolver.colocated = Some(Arc::new(pool));
            } else {
                resolver.solo_workload = Some(traffic.workload.clone());
            }
        }
        Ok(resolver)
    }

    fn model(&mut self, name: &str, resolution: u32) -> Result<Arc<Model>, DseError> {
        self.models
            .entry((name.to_owned(), resolution))
            .or_insert_with(|| {
                models::by_name(name, resolution).map(Arc::new).map_err(DseError::from)
            })
            .clone()
    }

    /// The job of one point. An unresolvable model is the job's own
    /// failure, never the caller's.
    pub(crate) fn job(&mut self, point: PointSpec) -> Job {
        let model = self.model(&point.model.name, point.model.resolution);
        let traffic = match (&self.colocated, &self.solo_workload, &model) {
            (Some(pool), _, _) => Some(Arc::clone(pool)),
            (None, Some(workload), Ok(resolved)) => Some(
                self.solo_traffic
                    .entry((point.model.name.clone(), point.model.resolution))
                    .or_insert_with(|| {
                        Arc::new(TrafficJob::new(
                            workload.clone(),
                            vec![(
                                served_model_name(&point.model.name, point.model.resolution),
                                Arc::clone(resolved),
                            )],
                        ))
                    })
                    .clone(),
            ),
            // No traffic section, or the point fails on model resolution
            // anyway.
            _ => None,
        };
        let arch = point.arch(&self.base);
        Job { spec: point, arch, model, traffic }
    }
}

/// Expands a spec into concrete jobs, resolving each distinct model once.
///
/// # Errors
///
/// Returns [`DseError::Spec`] when the spec expands to an empty grid or
/// its traffic section is invalid, and the resolution error of a
/// co-located model that cannot be built.
pub fn expand_jobs(spec: &SweepSpec) -> Result<Vec<Job>, DseError> {
    let points = spec.expand()?;
    let mut resolver = JobResolver::new(spec)?;
    Ok(points.into_iter().map(|point| resolver.job(point)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalCache, EvalService, ServiceConfig};
    use cimflow_compiler::Strategy;

    fn small_spec() -> SweepSpec {
        SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
            .with_flit_sizes(&[8, 16])
    }

    /// Runs `spec` on a fresh `workers`-worker service sharing `cache`.
    fn run(spec: &SweepSpec, workers: usize, cache: &EvalCache) -> Vec<DseOutcome> {
        let config = ServiceConfig::new().with_workers(workers);
        EvalService::with_cache(config, cache.clone()).submit_sweep(spec).unwrap().wait()
    }

    #[test]
    fn outcomes_follow_grid_order_and_progress_counts() {
        let service = EvalService::new(ServiceConfig::new().with_workers(4));
        let mut seen = Vec::new();
        let outcomes = service
            .submit_sweep(&small_spec())
            .unwrap()
            .wait_with(|p: &Progress| seen.push((p.completed, p.total)));
        assert_eq!(outcomes.len(), 4);
        let mg: Vec<u64> = outcomes.iter().map(|o| o.point.mg_size).collect();
        assert_eq!(mg, vec![4, 8, 4, 8], "grid order is independent of completion order");
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|(_, total)| *total == 4));
        let mut counts: Vec<usize> = seen.iter().map(|(done, _)| *done).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn invalid_points_are_reported_not_fatal() {
        // mg size 0 is an invalid configuration; the model axis also
        // contains an unknown model and a resolution too small to build.
        // None of them may sink the sweep.
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("not-a-model", 32)
            .with_model("vgg19", 16)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[8, 0]);
        let outcomes = run(&spec, 1, &EvalCache::new());
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes[0].result.is_ok());
        assert!(matches!(outcomes[1].result, Err(DseError::Arch(_))));
        assert!(matches!(outcomes[2].result, Err(DseError::UnknownModel { .. })));
        assert!(matches!(outcomes[3].result, Err(DseError::UnknownModel { .. })));
        for outcome in &outcomes[4..] {
            let error = outcome.result.as_ref().unwrap_err();
            assert!(error.to_string().contains("resolution 16 px"), "{error}");
        }
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let spec = small_spec();
        let sequential = run(&spec, 1, &EvalCache::new());
        let parallel = run(&spec, 8, &EvalCache::new());
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.point, p.point);
            let (s, p) = (s.evaluation().unwrap(), p.evaluation().unwrap());
            assert_eq!(s.simulation.total_cycles, p.simulation.total_cycles);
            assert!((s.simulation.energy.total_pj() - p.simulation.energy.total_pj()).abs() < 1e-6);
            assert_eq!(s.compilation, p.compilation);
        }
    }

    #[test]
    fn shared_cache_makes_rerun_free_of_recompilation() {
        let cache = EvalCache::new();
        let spec = small_spec();
        let cold = run(&spec, 2, &cache);
        assert!(cold.iter().all(|o| !o.cached), "first run must evaluate everything");
        let warm = run(&spec, 2, &cache);
        assert!(warm.iter().all(|o| o.cached), "warm run must be 100% cache hits");
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chip_count_sweeps_run_end_to_end() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_chip_counts(&[1, 2]);
        let outcomes = run(&spec, 2, &EvalCache::new());
        assert_eq!(outcomes.len(), 2);
        let single = outcomes[0].evaluation().unwrap();
        let dual = outcomes[1].evaluation().unwrap();
        assert_eq!(single.simulation.chip_count, 1);
        assert_eq!(dual.simulation.chip_count, 2);
        assert_eq!(dual.arch.total_cores(), 128);
        assert!(dual.simulation.energy.interchip_pj > 0.0);
        assert_eq!(single.simulation.energy.interchip_pj, 0.0);
    }

    #[test]
    fn duplicate_models_resolve_once() {
        let jobs = expand_jobs(&small_spec()).unwrap();
        let first = jobs[0].model.as_ref().unwrap();
        assert!(jobs[1..].iter().all(|job| Arc::ptr_eq(first, job.model.as_ref().unwrap())));
    }
}
