//! # cimflow-dse
//!
//! A batch design-space-exploration engine for the CIMFlow framework: the
//! subsystem behind the paper's architectural sweeps (Figs. 6–7) and any
//! larger exploration built on top of them.
//!
//! The engine is organized as a staged pipeline:
//!
//! 1. **Specify** — a [`SweepSpec`] declares the grid (models, strategies,
//!    system-level search modes, chip counts, macro-group sizes, flit
//!    sizes, core counts, local-memory capacities) as *data*; sweeps are
//!    JSON config files, not code.
//! 2. **Expand** — the spec expands deterministically into [`PointSpec`]
//!    grid points and concrete [`Job`]s.
//! 3. **Execute** — an [`EvalService`] fans the jobs out across its
//!    worker pool; every point's failure is captured in its
//!    [`DseOutcome`] instead of aborting the sweep, and results keep grid
//!    order.
//! 4. **Memoize** — a content-hashed [`EvalCache`] (keyed by
//!    architecture, model and strategy content) makes repeated points —
//!    common across figures and warm re-runs — a map lookup.
//! 5. **Analyze/export** — Pareto-frontier extraction over
//!    (cycles, energy), best-per-model selection, CSV/JSON exporters.
//!
//! The `cimflow-dse` binary drives the whole pipeline from a sweep file:
//! `cargo run -p cimflow-dse -- sweep.json`.
//!
//! # Example
//!
//! ```
//! use cimflow_dse::{analysis, EvalService, ServiceConfig, SweepSpec};
//! use cimflow_compiler::Strategy;
//!
//! # fn main() -> Result<(), cimflow_dse::DseError> {
//! let spec = SweepSpec::new()
//!     .with_model("mobilenetv2", 32)
//!     .with_strategies(&[Strategy::GenericMapping])
//!     .with_mg_sizes(&[4, 8]);
//! let service = EvalService::new(ServiceConfig::new().with_workers(2));
//! let outcomes = service.submit_sweep(&spec)?.wait();
//! assert_eq!(outcomes.len(), 2);
//! assert!(!analysis::pareto_frontier(&outcomes).is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cache;
mod error;
mod eval;
mod explore;
pub mod export;
mod fidelity;
mod job;
mod journal;
mod log;
mod memo;
pub mod serve;
mod service;
mod spec;
mod trace_store;

pub use cache::{
    arch_content_hash, model_content_hash, traffic_fingerprint, CacheKey, CacheStats, EvalCache,
    CACHE_ENGINE_VERSION, CACHE_FORMAT_VERSION,
};
pub use error::DseError;
pub use eval::{evaluate_with_search, EvalPath, Evaluation, ServingSummary, TrafficJob};
pub use explore::{
    explore, ExploreAlgorithm, ExploreReport, ExploreSpec, GenerationStats, COARSE_RESOLUTION,
    DEFAULT_SEED,
};
pub use fidelity::{
    kendall_tau, mean_power_w, scout_share_for, AnalyticalPricer, FeasibilityCaps, Fidelity,
    FidelityLadder, RankFidelity, DEFAULT_SCOUT_SHARE, MIN_CALIBRATION_SAMPLES,
};
pub use job::{expand_jobs, DseOutcome, Job, Progress};
pub use journal::{CompactionStats, SweepJournal};
pub use service::{
    BatchHandle, EvalRequest, EvalService, JobHandle, JobStatus, Priority, Rejected, ServiceConfig,
    ServiceStats, Submission, TrafficRequest, DEFAULT_TENANT,
};
pub use spec::{
    ModelSpec, PointSpec, SweepAxes, SweepSpec, TrafficSpec, AXIS_COUNT, MAX_EXPANDED_POINTS,
};
pub use trace_store::{TraceEntry, TraceKey, TraceStore, TraceStoreStats, DEFAULT_TRACE_CAPACITY};
