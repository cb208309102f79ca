//! The unit of work of the evaluation service: a resolved design point
//! ([`Job`]), its result ([`DseOutcome`]) and its progress event
//! ([`Progress`]), plus the grid expansion that turns a [`SweepSpec`]
//! into jobs.
//!
//! A failing point produces an `Err` outcome in its own slot; it never
//! aborts the sweep, and outcomes keep grid order no matter which worker
//! finished first.

use std::collections::HashMap;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_nn::{models, Model};

use crate::eval::{served_model_name, TrafficJob};
use crate::{traffic_fingerprint, CacheKey, DseError, Evaluation, PointSpec, SweepSpec};

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
            Some(traffic) => key.with_traffic(traffic_fingerprint(
                self.spec.offered_qps,
                &traffic.workload,
                &traffic.colocated,
            )),
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

/// Expands a spec into concrete jobs, resolving each distinct model once
/// (a `HashMap` keyed by `(name, resolution)`, so a 10k-point grid does
/// not pay a linear scan per point).
///
/// # Errors
///
/// Returns [`DseError::Spec`] when the spec expands to an empty grid.
pub fn expand_jobs(spec: &SweepSpec) -> Result<Vec<Job>, DseError> {
    type ResolvedModel = Result<Arc<Model>, DseError>;
    let base = spec.base_arch();
    let points = spec.expand()?;
    let mut resolved: HashMap<(String, u32), ResolvedModel> = HashMap::new();
    let mut resolve = |name: &str, resolution: u32| -> ResolvedModel {
        resolved
            .entry((name.to_owned(), resolution))
            .or_insert_with(|| {
                models::by_name(name, resolution).map(Arc::new).map_err(DseError::from)
            })
            .clone()
    };
    // The traffic section validates once per sweep: the mix (when set)
    // must match the served-model count, which is the whole model axis
    // under co-location and 1 otherwise.
    if let Some(traffic) = &spec.traffic {
        let served = if traffic.colocate { spec.models.len() } else { 1 };
        traffic.workload.validate(served).map_err(|e| DseError::spec(e.to_string()))?;
    }
    // Under co-location every point serves the whole model axis (in mix
    // order); unresolvable colocated models surface as a spec error so a
    // typo cannot silently shrink the mix.
    let colocated_pool: Option<Arc<TrafficJob>> = match &spec.traffic {
        Some(traffic) if traffic.colocate => {
            let mut colocated = Vec::with_capacity(spec.models.len());
            for m in &spec.models {
                let model = resolve(&m.name, m.resolution)?;
                colocated.push((served_model_name(&m.name, m.resolution), model));
            }
            Some(Arc::new(TrafficJob { workload: traffic.workload.clone(), colocated }))
        }
        _ => None,
    };
    let mut solo_traffic: HashMap<(String, u32), Arc<TrafficJob>> = HashMap::new();
    let mut jobs = Vec::with_capacity(points.len());
    for point in points {
        let model = resolve(&point.model.name, point.model.resolution);
        let traffic = match &spec.traffic {
            None => None,
            Some(_) if colocated_pool.is_some() => colocated_pool.clone(),
            Some(traffic) => match &model {
                Ok(resolved) => Some(
                    solo_traffic
                        .entry((point.model.name.clone(), point.model.resolution))
                        .or_insert_with(|| {
                            Arc::new(TrafficJob {
                                workload: traffic.workload.clone(),
                                colocated: vec![(
                                    served_model_name(&point.model.name, point.model.resolution),
                                    Arc::clone(resolved),
                                )],
                            })
                        })
                        .clone(),
                ),
                // The point fails on model resolution anyway.
                Err(_) => None,
            },
        };
        let arch = point.arch(&base);
        jobs.push(Job { spec: point, arch, model, traffic });
    }
    Ok(jobs)
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
