//! # cimflow-sim
//!
//! The CIMFlow cycle-level simulator (paper Sec. III-D): it executes the
//! per-core ISA programs produced by `cimflow-compiler` on a detailed
//! model of the digital CIM architecture and reports execution latency,
//! per-component energy and hardware utilization.
//!
//! The original simulator is written in SystemC; this reproduction uses a
//! conservative discrete-event engine in safe Rust. The modelled behaviour
//! follows the paper:
//!
//! * each core executes its instruction stream in order through a
//!   three-stage pipeline (fetch / decode / execute) with a scoreboard
//!   that stalls on busy execution units and un-drained accumulators,
//! * the execute stage dispatches to fine-grained unit models: the CIM
//!   compute unit (per-macro-group bit-serial MVM timing from
//!   `cimflow-arch`), the vector unit, the scalar ALU and the transfer
//!   unit,
//! * inter-core `send`/`recv` pairs travel over the `cimflow-noc` mesh
//!   with link contention; global-memory copies additionally queue on the
//!   shared memory port,
//! * `barrier` instructions synchronize all cores (stage boundaries),
//! * every event is charged to the `cimflow-energy` models, producing the
//!   compute / local-memory / NoC / global-memory breakdown plotted in
//!   Fig. 6.
//!
//! # One timing model, two op sources
//!
//! A simulation is split in two. A per-core functional front end decodes
//! each core's program, updates its registers, takes its branches and
//! sums the energy that does not depend on timing; it reduces the program
//! to a stream of typed timing ops ([`TraceOp`]) and hands the back end a
//! core's next op only when the back end asks for it. The timing back end
//! — clocks, scoreboards, the meshes, the memory ports, barriers, the
//! inter-chip hand-off and the scheduler — is implemented once and walks
//! ops from either source: the live front end for [`Simulator::run`] (and
//! [`Simulator::record`], which also keeps the ops as a [`SimTrace`]), or
//! a recorded trace for the [`ReplayEngine`], which re-times it for any
//! number of timing-only design points. The committed golden corpus in
//! `tests/golden_reports.rs` pins the reports of both paths.
//!
//! # Example
//!
//! ```
//! use cimflow_arch::ArchConfig;
//! use cimflow_compiler::{compile, Strategy};
//! use cimflow_nn::models;
//! use cimflow_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = ArchConfig::paper_default();
//! let compiled = compile(&models::mobilenet_v2(32), &arch, Strategy::DpOptimized)?;
//! let report = Simulator::new(&compiled).run()?;
//! assert!(report.total_cycles > 0);
//! assert!(report.energy.total_pj() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod engine;
mod error;
mod replay;
mod report;
mod serving;
mod trace;

pub use engine::{HandoffMode, SimOptions, Simulator};
pub use error::SimError;
pub use replay::{LockstepStats, ReplayEngine, LOCKSTEP_LANES};
pub use report::{SimReport, UnitActivity};
pub use serving::{LatencyStats, ModelServing, ServeModel, ServingReport};
pub use trace::{SimTrace, TraceOp, TracePasses};
