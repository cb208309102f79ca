//! Criterion micro-benchmarks of the framework components: ISA
//! encode/decode, graph construction and condensation, dependency-closure
//! enumeration and DP partitioning (inside a full compile and alone), NoC
//! transfers, a full compile-and-simulate run of a compact model and the
//! DSE cache's model content hash.
//!
//! These are ablation/overhead benches of the compiler's design decisions
//! (bitmask closure enumeration, cost-model-driven greedy duplication);
//! they do not correspond to a paper figure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cimflow::compiler::cost::CostModel;
use cimflow::compiler::partition::{dependency_closures, dp_partition};
use cimflow::compiler::{compile, CondensedGraph, Strategy};
use cimflow::isa::{decode, encode, GReg, Instruction};
use cimflow::noc::{Mesh, NocConfig};
use cimflow::sim::Simulator;
use cimflow::{models, ArchConfig};
use cimflow_dse::model_content_hash;

fn bench_isa(c: &mut Criterion) {
    let inst = Instruction::CimMvm {
        input: GReg::new(7).expect("valid register"),
        rows: GReg::new(10).expect("valid register"),
        output: GReg::new(9).expect("valid register"),
        mg: 3,
    };
    c.bench_function("isa/encode_decode_round_trip", |b| {
        b.iter(|| {
            let word = encode(black_box(&inst)).expect("encodable");
            black_box(decode(word).expect("decodable"))
        })
    });
}

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("nn/build_resnet18_graph", |b| {
        b.iter(|| black_box(models::resnet18(black_box(64))))
    });
    let model = models::efficientnet_b0(64);
    c.bench_function("compiler/condense_efficientnet_b0", |b| {
        b.iter(|| {
            black_box(CondensedGraph::from_graph(black_box(&model.graph)).expect("condensable"))
        })
    });
}

fn bench_partitioning(c: &mut Criterion) {
    let arch = ArchConfig::paper_default();
    let model = models::mobilenet_v2(64);
    c.bench_function("compiler/dp_compile_mobilenet_v2", |b| {
        b.iter(|| {
            black_box(compile(black_box(&model), &arch, Strategy::DpOptimized).expect("compilable"))
        })
    });
    c.bench_function("compiler/generic_compile_mobilenet_v2", |b| {
        b.iter(|| {
            black_box(
                compile(black_box(&model), &arch, Strategy::GenericMapping).expect("compilable"),
            )
        })
    });
    // Alg. 1's DP alone, on the cold space's slowest graph; the graph is
    // condensed with `compile`'s capacity split, outside the timed loop.
    let limit =
        u64::from(arch.chip().core_count) * arch.core.cim_unit.weight_capacity_bytes() * 3 / 4;
    let efficientnet =
        CondensedGraph::from_graph_with_capacity(&models::efficientnet_b0(48).graph, limit)
            .expect("condensable");
    let cost = CostModel::new(&arch);
    c.bench_function("compiler/dependency_closures_efficientnet_b0", |b| {
        b.iter(|| black_box(dependency_closures(black_box(&efficientnet))))
    });
    c.bench_function("compiler/dp_partition_efficientnet_b0", |b| {
        b.iter(|| black_box(dp_partition(black_box(&efficientnet), &cost).expect("partitions")))
    });
}

fn bench_noc(c: &mut Criterion) {
    c.bench_function("noc/mesh_transfer_8x8", |b| {
        b.iter_batched(
            || Mesh::new(NocConfig::new(8, 8, 8)),
            |mut mesh| {
                for i in 0..64u32 {
                    black_box(mesh.transfer(i % 64, (i * 7 + 3) % 64, 256, u64::from(i)));
                }
                black_box(mesh.stats().flit_hops)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let arch = ArchConfig::paper_default();
    let model = models::mobilenet_v2(32);
    let compiled = compile(&model, &arch, Strategy::DpOptimized).expect("compilable");
    c.bench_function("sim/simulate_mobilenet_v2_32px", |b| {
        b.iter(|| black_box(Simulator::new(black_box(&compiled)).run().expect("simulates")))
    });
}

fn bench_content_keys(c: &mut Criterion) {
    // The model is built outside the timed loop: only the hash is timed.
    let model = models::efficientnet_b0(32);
    c.bench_function("dse/model_content_hash_efficientnet_b0", |b| {
        b.iter(|| black_box(model_content_hash(black_box(&model))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_isa, bench_frontend, bench_partitioning, bench_noc, bench_end_to_end,
        bench_content_keys
}
criterion_main!(benches);
