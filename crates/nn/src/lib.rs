//! # cimflow-nn
//!
//! DNN workload description for the CIMFlow framework — the "Model Desc."
//! user input of the paper's workflow (Fig. 2).
//!
//! The original framework ingests ONNX models; this reproduction uses an
//! equivalent in-crate computation-graph IR plus a JSON serialization, so
//! the workspace needs no ONNX runtime. The crate provides:
//!
//! * tensor shapes and INT8/INT32 data types ([`TensorShape`], [`DataType`]),
//! * operator descriptions with shape inference, weight footprints and MAC
//!   counts ([`OpKind`], [`Node`]),
//! * a validated directed-acyclic computation [`Graph`] with topological
//!   ordering and producer/consumer queries,
//! * INT8 quantization parameters ([`QuantParams`]),
//! * workload statistics ([`WorkloadStats`]),
//! * a model zoo ([`models`]) building ResNet18, VGG19, MobileNetV2 and
//!   EfficientNetB0 — the four evaluation benchmarks of the paper,
//! * a golden reference executor ([`mod@reference`]) used by compiler and
//!   simulator tests for functional validation.
//!
//! # Example
//!
//! ```
//! use cimflow_nn::models;
//!
//! let model = models::resnet18(32);
//! let stats = model.graph.stats();
//! assert!(stats.total_weight_bytes > 10_000_000, "ResNet18 has ~11.7M parameters");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
pub mod models;
mod op;
mod quant;
pub mod reference;
mod stats;
mod tensor;

pub use error::NnError;
pub use graph::{Graph, GraphBuilder, Model, Node, OpId, TensorId, TensorInfo};
pub use op::{ActivationKind, OpKind};
pub use quant::QuantParams;
pub use stats::{OpStats, WorkloadStats};
pub use tensor::{DataType, TensorShape};
