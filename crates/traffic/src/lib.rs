//! Online inference traffic for the CIMFlow serving-mode simulator.
//!
//! The simulator historically scores a design point by *one* inference's
//! cycles and energy; the chips it models would spend their lives
//! serving open-loop request streams. This crate owns everything about
//! those streams that does not require the cycle engine:
//!
//! * **Arrival generators** ([`arrival`]): deterministic open-loop
//!   processes — Poisson, bursty (two-state MMPP), diurnal
//!   (rate-modulated Poisson) and a JSONL trace-file replayer — behind
//!   the [`ArrivalProcess`] trait, driven by the same seeded
//!   xorshift64\*/splitmix64 PRNG the DSE explorer uses ([`rng`]).
//! * **Workload specification** ([`workload`]): a serializable
//!   [`WorkloadSpec`] (arrival shape, seed, request horizon, batching
//!   knobs, per-model mix) that expands into a concrete sorted request
//!   stream for a given offered QPS.
//! * **Queue + dynamic batcher** ([`queue`]): the discrete-event core
//!   that pushes a request stream through per-model FIFO queues and a
//!   dynamic batcher at the chip boundary (max-batch-size and
//!   max-queue-delay knobs), given each model's single-inference
//!   latency and pipeline interval.
//!
//! Everything is expressed in integer **ticks** (the caller decides the
//! tick: the simulator uses clock cycles), so queueing arithmetic is
//! exact — a request served on an idle system completes exactly
//! `latency` ticks after it arrives, bit-consistent with the cycle
//! engine's `SimReport`. All generators are deterministic: one seed,
//! one request stream, one serving outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod queue;
pub mod rng;
pub mod workload;

pub use arrival::{
    ArrivalProcess, ArrivalTrace, Bursty, Diurnal, Poisson, TraceReplay, MAX_TRACE_BYTES,
};
pub use queue::{run_queue, BatchRecord, Completion, ModelTiming, QueueOutcome};
pub use rng::XorShift;
pub use workload::{ArrivalSpec, Request, TrafficError, WorkloadSpec, DEFAULT_SEED, MAX_REQUESTS};
