//! Committed golden partition decisions: the stages, per-group mappings
//! and estimated stage costs the CG-level partitioner chooses on a fixed
//! grid of models and architectures.
//!
//! `tests/goldens/partitions.txt` holds one line per planned stage:
//! model, resolution, macro-group size, flit bytes, on a multi-chip
//! system the chip count and the chip, then strategy, stage index, the
//! stage's group indices, `cores_per_replica x replicas` per group, the
//! estimated cycles and the estimated energy's `to_bits` in hex. The
//! file changes only when a partitioning decision is meant to change,
//! and then only through the ignored test at the bottom:
//!
//! ```text
//! cargo test -p cimflow-compiler --test partition_goldens -- --ignored
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cimflow_arch::ArchConfig;
use cimflow_compiler::cost::CostModel;
use cimflow_compiler::partition::partition_with_strategy;
use cimflow_compiler::{partition_chips, CondensedGraph, Strategy};
use cimflow_nn::{models, Model};

/// One point of the grid: a model at its resolution on a system of
/// `chips` chips with the given macro-group size and flit bytes.
struct Point {
    model: Model,
    resolution: u32,
    mg: u32,
    flit: u32,
    chips: u32,
}

/// Every seed model at 32 px over MG {4, 8, 16} x flit {8, 32}, and at
/// 64 px with MG 8 and flit 8; mobilenetv2 and efficientnetb0, the
/// graphs whose DP has the most candidate stages, at 48 px over MG
/// {4, 8, 16} with flit 16; and every seed model at 32 px and those two
/// at 48 px split over two chips (MG 8, flit 8). Each point runs under
/// all three strategies.
fn points() -> Vec<Point> {
    let mut points = Vec::new();
    for model in models::benchmark_suite(32) {
        for mg in [4, 8, 16] {
            for flit in [8, 32] {
                points.push(Point { model: model.clone(), resolution: 32, mg, flit, chips: 1 });
            }
        }
    }
    for model in models::benchmark_suite(64) {
        points.push(Point { model, resolution: 64, mg: 8, flit: 8, chips: 1 });
    }
    let branchy_48 = [models::mobilenet_v2(48), models::efficientnet_b0(48)];
    for model in &branchy_48 {
        for mg in [4, 8, 16] {
            points.push(Point { model: model.clone(), resolution: 48, mg, flit: 16, chips: 1 });
        }
    }
    for model in models::benchmark_suite(32) {
        points.push(Point { model, resolution: 32, mg: 8, flit: 8, chips: 2 });
    }
    for model in branchy_48 {
        points.push(Point { model, resolution: 48, mg: 8, flit: 8, chips: 2 });
    }
    points
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens").join("partitions.txt")
}

/// Partitions every point under every strategy, the way a sequential
/// compile does (on several chips: the contiguous chip split, then each
/// chip's subgraph), and renders one line per planned stage.
fn render() -> String {
    let mut out = String::new();
    for point in points() {
        let arch = ArchConfig::paper_default()
            .with_macros_per_group(point.mg)
            .with_flit_bytes(point.flit)
            .with_chip_count(point.chips);
        // The capacity split `compile` applies before partitioning.
        let limit =
            u64::from(arch.chip().core_count) * arch.core.cim_unit.weight_capacity_bytes() * 3 / 4;
        let condensed = CondensedGraph::from_graph_with_capacity(&point.model.graph, limit)
            .unwrap_or_else(|e| panic!("{} condenses: {e}", point.model.name));
        let cost_model = CostModel::new(&arch);
        let mut chips = Vec::new();
        if point.chips == 1 {
            chips.push((String::new(), condensed));
        } else {
            let system = partition_chips(&condensed, &cost_model);
            for chip in 0..system.chip_count {
                let (subgraph, _) = condensed.chip_subgraph(&system.assignment, chip);
                if !subgraph.is_empty() {
                    chips.push((format!(" chips{} chip{chip}", point.chips), subgraph));
                }
            }
        }
        for (chip, graph) in &chips {
            for strategy in Strategy::ALL {
                let decision = partition_with_strategy(graph, &cost_model, strategy)
                    .unwrap_or_else(|e| {
                        panic!("{}{chip} partitions under {strategy}: {e}", point.model.name)
                    });
                for (index, (groups, mapping, cost)) in decision.stages.iter().enumerate() {
                    let groups: Vec<String> = groups.iter().map(usize::to_string).collect();
                    let mapping: Vec<String> = mapping
                        .iter()
                        .map(|m| format!("{}x{}", m.cores_per_replica, m.replicas))
                        .collect();
                    writeln!(
                        out,
                        "{} {} mg{} flit{}{chip} {strategy} stage{index} groups={} map={} \
                         cycles={} energy={:016x}",
                        point.model.name,
                        point.resolution,
                        point.mg,
                        point.flit,
                        groups.join(","),
                        mapping.join(","),
                        cost.cycles,
                        cost.energy_pj.to_bits()
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
    }
    out
}

#[test]
fn partition_decisions_match_the_golden_file() {
    let path = golden_path();
    let golden =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = render();
    let mismatch = golden.lines().zip(actual.lines()).enumerate().find(|(_, (g, a))| g != a);
    if let Some((line, (expected, got))) = mismatch {
        panic!("line {} differs from the golden:\n  golden {expected}\n  got    {got}", line + 1);
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "the golden and the partitioner plan a different number of stages"
    );
}

#[test]
#[ignore = "rewrites the committed goldens; run only for an intended change to partitioning"]
fn regenerate_partition_goldens() {
    let path = golden_path();
    fs::create_dir_all(path.parent().expect("the golden file has a directory"))
        .expect("create the goldens directory");
    fs::write(&path, render()).expect("write the partition goldens");
}
