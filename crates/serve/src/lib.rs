//! # cimflow-serve
//!
//! The service-oriented front end of the CIMFlow evaluation engine: one
//! crate to depend on when you *embed* a long-lived [`EvalService`]
//! (worker pool + shared cache + admission control) or *talk to* one over
//! the newline-delimited JSON protocol.
//!
//! * **Server side** — re-exported from `cimflow_dse`: [`EvalService`],
//!   [`EvalRequest`], [`JobHandle`]/[`BatchHandle`], [`ServiceConfig`]
//!   (queue bounds, per-tenant quotas), plus the protocol machinery in
//!   [`protocol`] ([`serve_connection`], [`TcpServer`]). The
//!   `cimflow-dse serve` subcommand hosts the same stack from the CLI.
//! * **Client side** — [`Client`], a typed synchronous client for the
//!   TCP transport: submit requests and sweeps, poll, wait, cancel,
//!   fetch stats, request shutdown.
//!
//! # Example
//!
//! ```
//! use cimflow_serve::{Client, EvalRequest, EvalService, ServiceConfig, TcpServer};
//! use cimflow_compiler::Strategy;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), cimflow_serve::ClientError> {
//! let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(2)));
//! let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
//!
//! let mut client = Client::connect(server.addr())?;
//! let job = client.submit(&EvalRequest::new("mobilenetv2", 32, Strategy::DpOptimized))?;
//! let outcome = client.wait_job(job)?;
//! assert!(outcome.ok);
//! server.stop();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;

pub use client::{
    BatchTicket, Client, ClientError, RemoteMetrics, RemoteStats, RemoteStatus, Waited,
};

// The service core and wire protocol live in `cimflow-dse` (its CLI and
// explorer submit to them, which a `cimflow-serve` dependency cycle would
// forbid); this crate is their serving surface.
pub use cimflow_dse::serve as protocol;
pub use cimflow_dse::serve::{
    serve_connection, serve_stdio, Connection, Request, Response, Target, TcpServer, WireMetric,
    WireOutcome,
};
pub use cimflow_dse::{
    BatchHandle, CacheStats, DseError, DseOutcome, EvalCache, EvalRequest, EvalService, JobHandle,
    JobStatus, ModelSpec, Priority, Progress, Rejected, ServiceConfig, ServiceStats,
    ServingSummary, Submission, SweepJournal, SweepSpec, TrafficRequest, TrafficSpec,
    DEFAULT_TENANT,
};
