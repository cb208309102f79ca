//! # cimflow
//!
//! The integrated CIMFlow framework: an out-of-the-box workflow for
//! implementing and evaluating DNN workloads on digital compute-in-memory
//! (CIM) architectures, reproducing the system presented in
//! *"CIMFlow: An Integrated Framework for Systematic Design and Evaluation
//! of Digital CIM Architectures"* (DAC 2025).
//!
//! This crate ties the individual components together:
//!
//! * [`cimflow_nn`] — DNN workload description and the benchmark model zoo,
//! * [`cimflow_arch`] — the hierarchical hardware abstraction (Table I),
//! * [`cimflow_isa`] — the unified 32-bit instruction set,
//! * [`cimflow_compiler`] — CG-level (DP partitioning, duplication) and
//!   OP-level (im2col, tiling) optimization plus code generation,
//! * [`cimflow_sim`] — the cycle-level multi-core simulator,
//! * [`cimflow_energy`] / [`cimflow_noc`] — energy and interconnect models,
//! * [`cimflow_obs`] — dependency-free metrics and span tracing shared by
//!   the service, explorer, compiler and simulator.
//!
//! The [`CimFlow`] workflow object exposes the `model + architecture +
//! strategy → compile → simulate → report` pipeline of Fig. 2. The
//! architectural sweeps behind the paper's Figs. 6 and 7, and larger
//! explorations, run on the [`cimflow_dse`] engine (re-exported as
//! [`dse`]): declarative [`SweepSpec`](dse::SweepSpec) grids, evaluation
//! caching, Pareto analysis and adaptive [`explore`]. Every evaluation
//! goes through its service core — [`EvalService`], [`EvalRequest`],
//! [`JobHandle`] (re-exported here, served over the wire by the
//! `cimflow-serve` crate and the `cimflow-dse serve` subcommand) — one
//! shared worker pool and cache with non-blocking submission, admission
//! control and per-tenant quotas.
//!
//! # Quick start
//!
//! ```
//! use cimflow::{CimFlow, Strategy};
//! use cimflow::models;
//!
//! # fn main() -> Result<(), cimflow::CimFlowError> {
//! let flow = CimFlow::with_default_arch();
//! let evaluation = flow.evaluate(&models::mobilenet_v2(32), Strategy::DpOptimized)?;
//! println!("{}", evaluation.simulation);
//! assert!(evaluation.simulation.throughput_tops() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod workflow;

pub use error::CimFlowError;
pub use workflow::{CimFlow, Evaluation};

// Re-export the component crates so that downstream users need a single
// dependency.
pub use cimflow_arch::{
    self as arch, ArchConfig, InterChipConfig, InterChipTopology, SystemConfig,
};
pub use cimflow_compiler::{
    self as compiler, CompileOptions, CompiledProgram, SearchMode, Strategy, SystemPlan,
    SystemSearch,
};
pub use cimflow_dse as dse;
// The service-oriented evaluation API (async job handles, admission
// control, per-tenant quotas) plus the adaptive Pareto-guided
// exploration engine.
pub use cimflow_dse::{
    explore, BatchHandle, EvalPath, EvalRequest, EvalService, ExploreAlgorithm, ExploreReport,
    ExploreSpec, JobHandle, JobStatus, Priority, Rejected, ServiceConfig, ServiceStats,
    ServingSummary, Submission, SweepJournal, TraceStore, TrafficSpec,
};
pub use cimflow_energy::{self as energy, EnergyBreakdown};
pub use cimflow_isa as isa;
pub use cimflow_nn::models;
pub use cimflow_nn::{self as nn, Model};
pub use cimflow_noc as noc;
// Observability: a metrics registry and a span tracer shared by the
// service, explorer, compiler and (via `SimOptions::profile`) the
// simulator's cycle-domain timelines.
pub use cimflow_obs::{self as obs, MetricsRegistry, Tracer};
pub use cimflow_sim::{self as sim, ReplayEngine, ServeModel, ServingReport, SimReport, SimTrace};
// Online inference traffic: deterministic workload generation feeding
// the simulator's serving mode and the DSE layer's SLO objectives.
pub use cimflow_traffic::{self as traffic, ArrivalSpec, WorkloadSpec};
