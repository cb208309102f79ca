//! CG-level model partitioning: the DP-based algorithm of the paper
//! (Alg. 1) and the two baseline strategies used in the Fig. 5 comparison.

use std::collections::{BTreeSet, VecDeque};

use crate::bitset::BitMask256;
use crate::cost::{boundary_bytes, CostModel, GroupMapping, StageBuffers, StageCost};
use crate::frontend::{CondensedGraph, OpGroup};
use crate::CompileError;

/// Upper bound on enumerated dependency closures before falling back to
/// the prefix closures of the linearization.
const CLOSURE_CAP: usize = 1024;

/// One planned stage: its group indices, the chosen mapping and the
/// estimated cost (the element type of [`PartitionDecision::stages`]).
pub type PlannedStage = (Vec<usize>, Vec<GroupMapping>, StageCost);

/// A partitioning decision: the stages in execution order, each with its
/// group mapping and estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionDecision {
    /// Groups of each stage (indices into the condensed graph) together
    /// with the chosen mapping and the stage cost estimate.
    pub stages: Vec<PlannedStage>,
}

impl PartitionDecision {
    /// Total estimated cycles across stages.
    pub fn estimated_cycles(&self) -> u64 {
        self.stages.iter().map(|(_, _, c)| c.cycles).sum()
    }
}

/// Runs the CG-level partitioner of one strategy — the per-chip stage
/// partition both the sequential pipeline and the joint system search
/// lower candidate chip subgraphs through.
///
/// # Errors
///
/// Returns [`CompileError::CapacityExceeded`] when the (sub)graph cannot
/// fit the chip under any partition.
pub fn partition_with_strategy(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
    strategy: crate::Strategy,
) -> Result<PartitionDecision, CompileError> {
    match strategy {
        crate::Strategy::GenericMapping => generic_partition(condensed, cost_model),
        crate::Strategy::OperatorDuplication => duplication_partition(condensed, cost_model),
        crate::Strategy::DpOptimized => dp_partition(condensed, cost_model),
    }
}

/// Enumerates the dependency closures (down-sets) of the condensed graph
/// as bitmasks.
///
/// "Each dependency closure represents a self-contained set of operators
/// whose dependencies are fully enclosed within the set, serving as basic
/// building blocks for candidate partitions." The enumeration is breadth
/// first over the closure lattice and capped at `CLOSURE_CAP` entries;
/// when the cap is hit the function falls back to the prefix closures of
/// the dependency-preserving linearization, which are always valid. A
/// group may join a closure once its predecessor mask, built once per
/// call, is a subset of the closure.
pub fn dependency_closures(condensed: &CondensedGraph) -> Vec<BitMask256> {
    let n = condensed.len();
    let pred_masks: Vec<BitMask256> = condensed
        .groups()
        .iter()
        .map(|group| {
            let mut mask = BitMask256::empty();
            for dep in &group.preds {
                mask.insert(dep.group);
            }
            mask
        })
        .collect();
    let mut seen: BTreeSet<BitMask256> = BTreeSet::new();
    let mut queue: VecDeque<BitMask256> = VecDeque::new();
    let empty = BitMask256::empty();
    seen.insert(empty);
    queue.push_back(empty);
    while let Some(current) = queue.pop_front() {
        if seen.len() > CLOSURE_CAP {
            break;
        }
        for (i, preds) in pred_masks.iter().enumerate() {
            if current.contains(i) || !preds.is_subset_of(&current) {
                continue;
            }
            let mut next = current;
            next.insert(i);
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    if seen.len() > CLOSURE_CAP {
        // Fallback: prefixes of the linearization (always dependency closed).
        let mut closures: Vec<BitMask256> = Vec::with_capacity(n + 1);
        let mut mask = BitMask256::empty();
        closures.push(mask);
        for i in 0..n {
            mask.insert(i);
            closures.push(mask);
        }
        return closures;
    }
    let mut closures: Vec<BitMask256> = seen.into_iter().collect();
    closures.sort_by_key(|c| (c.len(), *c));
    closures
}

fn groups_of<'a>(condensed: &'a CondensedGraph, mask: &BitMask256) -> Vec<&'a OpGroup> {
    mask.iter().map(|i| &condensed.groups()[i]).collect()
}

/// The DP-based partitioning and mapping of Alg. 1.
///
/// `dp[i]` is the least total estimated cycles of executing the
/// dependency closure `D[i]`; a transition from every closure
/// `D[j] ⊆ D[i]` treats the set difference as a candidate stage, priced
/// in cycles by the duplication greedy of
/// [`CostModel::optimal_mapping`] with the stage's boundary bytes read off
/// its bitmask. One replica table per call holds every group's minimum
/// cores and per-replica cycles, and each candidate is priced in reused
/// buffers; the greedy skips a candidate whose minimum cores exceed the
/// chip before its boundary bytes are summed. The DP keeps only cycles:
/// once the full closure is reached, each stage on the chosen `prev`
/// chain is mapped and costed, energy included, by one
/// [`CostModel::optimal_mapping`] call.
///
/// # Errors
///
/// Returns [`CompileError::CapacityExceeded`] if some operator group can
/// never fit the chip, making every partition infeasible.
pub fn dp_partition(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
) -> Result<PartitionDecision, CompileError> {
    check_individual_capacity(condensed, cost_model)?;
    let closures = dependency_closures(condensed);
    let full = BitMask256::full(condensed.len());
    let mut dp: Vec<f64> = vec![f64::INFINITY; closures.len()];
    let mut prev: Vec<Option<usize>> = vec![None; closures.len()];
    let groups = condensed.groups();
    let mut table = cost_model.replica_table(groups);
    let mut buffers = StageBuffers::default();

    for (i, closure) in closures.iter().enumerate() {
        if closure.is_empty() {
            dp[i] = 0.0;
            continue;
        }
        for (j, candidate) in closures.iter().enumerate().take(i) {
            if dp[j].is_infinite() || !candidate.is_subset_of(closure) {
                continue;
            }
            let stage = closure.difference(candidate);
            if stage.is_empty() {
                continue;
            }
            buffers.members.clear();
            buffers.members.extend(stage.iter());
            let boundary =
                || boundary_bytes(stage.iter().map(|g| &groups[g]), |g| stage.contains(g));
            let Some(cycles) =
                cost_model.duplicate_greedily(&mut table, &mut buffers, boundary, true)
            else {
                continue;
            };
            let total = dp[j] + cycles as f64;
            if total < dp[i] {
                dp[i] = total;
                prev[i] = Some(j);
            }
        }
    }

    let full_index = closures.iter().position(|c| *c == full).unwrap_or(closures.len() - 1);
    if dp[full_index].is_infinite() {
        return Err(capacity_error(condensed, cost_model));
    }
    // Reconstruct the stage sequence, mapping and costing each stage once.
    let mut stages = Vec::new();
    let mut cursor = full_index;
    while let Some(j) = prev[cursor] {
        let stage = closures[cursor].difference(&closures[j]);
        let (cost, mapping) = cost_model
            .optimal_mapping(&groups_of(condensed, &stage))
            .expect("the DP priced this stage, so it maps");
        stages.push((stage.iter().collect(), mapping, cost));
        cursor = j;
    }
    stages.reverse();
    Ok(PartitionDecision { stages })
}

/// The generic-mapping baseline: greedy capacity-driven partitioning with
/// an inter-layer pipeline inside every stage and **no** operator
/// duplication.
pub fn generic_partition(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
) -> Result<PartitionDecision, CompileError> {
    greedy_partition(condensed, cost_model, false)
}

/// The CIM-MLC-style baseline: the same greedy capacity-driven
/// partitioning, followed by opportunistic duplication of operators into
/// the cores left vacant inside each stage.
pub fn duplication_partition(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
) -> Result<PartitionDecision, CompileError> {
    greedy_partition(condensed, cost_model, true)
}

fn greedy_partition(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
    duplicate: bool,
) -> Result<PartitionDecision, CompileError> {
    check_individual_capacity(condensed, cost_model)?;
    let total_cores = cost_model.total_cores();
    let mut stages: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_cores = 0u32;
    for group in condensed.groups() {
        let need = cost_model.min_cores(group);
        if current_cores + need > total_cores && !current.is_empty() {
            stages.push(std::mem::take(&mut current));
            current_cores = 0;
        }
        current.push(group.index);
        current_cores += need;
    }
    if !current.is_empty() {
        stages.push(current);
    }
    let mut decided = Vec::with_capacity(stages.len());
    for stage in stages {
        let stage_groups: Vec<&OpGroup> = stage.iter().map(|i| &condensed.groups()[*i]).collect();
        let (cost, mapping) = cost_model
            .mapping_with_duplication(&stage_groups, duplicate)
            .ok_or_else(|| capacity_error(condensed, cost_model))?;
        decided.push((stage, mapping, cost));
    }
    Ok(PartitionDecision { stages: decided })
}

fn check_individual_capacity(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
) -> Result<(), CompileError> {
    match condensed.groups().iter().find(|g| cost_model.min_cores(g) > cost_model.total_cores()) {
        Some(group) => Err(capacity_exceeded(group, cost_model)),
        None => Ok(()),
    }
}

fn capacity_error(condensed: &CondensedGraph, cost_model: &CostModel) -> CompileError {
    let largest = condensed
        .groups()
        .iter()
        .max_by_key(|g| g.metrics.weight_bytes)
        .expect("condensed graph is never empty here");
    capacity_exceeded(largest, cost_model)
}

/// The capacity error naming `group`'s cores and weight bytes against the
/// chip's.
fn capacity_exceeded(group: &OpGroup, cost_model: &CostModel) -> CompileError {
    CompileError::CapacityExceeded {
        group: group.name.clone(),
        required_cores: cost_model.min_cores(group),
        available_cores: cost_model.total_cores(),
        required_bytes: group.metrics.weight_bytes,
        available_bytes: u64::from(cost_model.total_cores()) * cost_model.core_capacity_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_arch::ArchConfig;
    use cimflow_nn::models;

    fn condensed(model: cimflow_nn::Model) -> CondensedGraph {
        CondensedGraph::from_graph(&model.graph).unwrap()
    }

    #[test]
    fn closures_of_a_chain_are_its_prefixes() {
        let vgg = condensed(models::vgg19(32));
        let closures = dependency_closures(&vgg);
        assert_eq!(closures.len(), vgg.len() + 1, "a chain has exactly n+1 down-sets");
        for (i, c) in closures.iter().enumerate() {
            assert_eq!(c.len(), i);
        }
    }

    #[test]
    fn closures_are_dependency_closed() {
        let resnet = condensed(models::resnet18(64));
        let closures = dependency_closures(&resnet);
        assert!(closures.len() > resnet.len());
        for closure in &closures {
            for member in closure.iter() {
                for pred in resnet.pred_indices(member) {
                    assert!(
                        closure.contains(pred),
                        "closure {closure} misses pred {pred} of {member}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_partition_covers_every_group_exactly_once() {
        let arch = ArchConfig::paper_default();
        let cost = CostModel::new(&arch);
        for model in [models::resnet18(64), models::mobilenet_v2(64), models::vgg19(64)] {
            let graph = condensed(model);
            for decision in [
                generic_partition(&graph, &cost).unwrap(),
                duplication_partition(&graph, &cost).unwrap(),
                dp_partition(&graph, &cost).unwrap(),
            ] {
                let mut covered: Vec<usize> =
                    decision.stages.iter().flat_map(|(g, _, _)| g.clone()).collect();
                covered.sort_unstable();
                let expected: Vec<usize> = (0..graph.len()).collect();
                assert_eq!(covered, expected);
                // Stage order must respect dependencies.
                let mut seen = std::collections::BTreeSet::new();
                for (stage_groups, mapping, cost) in &decision.stages {
                    for g in stage_groups {
                        for pred in graph.pred_indices(*g) {
                            assert!(seen.contains(&pred) || stage_groups.contains(&pred));
                        }
                    }
                    assert_eq!(mapping.len(), stage_groups.len());
                    assert!(cost.cycles > 0);
                    seen.extend(stage_groups.iter().copied());
                }
            }
        }
    }

    #[test]
    fn vgg19_requires_multiple_stages() {
        let arch = ArchConfig::paper_default();
        let cost = CostModel::new(&arch);
        let limit = u64::from(arch.chip().core_count) * cost.core_capacity_bytes() * 3 / 4;
        let vgg =
            CondensedGraph::from_graph_with_capacity(&models::vgg19(224).graph, limit).unwrap();
        let generic = generic_partition(&vgg, &cost).unwrap();
        assert!(generic.stages.len() > 1, "143 MB of VGG19 weights cannot fit 32 MB of CIM");
        let dp = dp_partition(&vgg, &cost).unwrap();
        assert!(dp.stages.len() > 1);
    }

    #[test]
    fn compact_models_duplicate_and_need_no_more_stages_than_generic() {
        let arch = ArchConfig::paper_default();
        let cost = CostModel::new(&arch);
        let mobilenet = condensed(models::mobilenet_v2(64));
        let dp = dp_partition(&mobilenet, &cost).unwrap();
        let generic = generic_partition(&mobilenet, &cost).unwrap();
        assert!(dp.stages.len() <= generic.stages.len().max(4));
        let duplicated: u32 =
            dp.stages.iter().flat_map(|(_, m, _)| m.iter().map(|g| g.replicas)).max().unwrap();
        assert!(duplicated > 1, "vacant cores must be used for duplication");
    }

    #[test]
    fn dp_is_never_worse_than_the_baselines() {
        let arch = ArchConfig::paper_default();
        let cost = CostModel::new(&arch);
        for model in [models::resnet18(64), models::mobilenet_v2(64), models::efficientnet_b0(64)] {
            let graph = condensed(model);
            let dp = dp_partition(&graph, &cost).unwrap().estimated_cycles();
            let generic = generic_partition(&graph, &cost).unwrap().estimated_cycles();
            let dup = duplication_partition(&graph, &cost).unwrap().estimated_cycles();
            assert!(dp <= generic, "dp {dp} vs generic {generic}");
            assert!(dp <= dup, "dp {dp} vs duplication {dup}");
        }
    }

    #[test]
    fn capacity_errors_name_the_cores_a_group_needs() {
        // conv4_2's first slice fits one core's weight bytes, but its 9 row
        // tiles x 2 channel tiles need 18 macro groups and a core has 16.
        let arch = ArchConfig::paper_default().with_core_count(1);
        for strategy in crate::Strategy::ALL {
            let error = crate::compile(&models::vgg19(64), &arch, strategy).unwrap_err();
            assert_eq!(
                error,
                CompileError::CapacityExceeded {
                    group: "conv4_2.part0".into(),
                    required_cores: 2,
                    available_cores: 1,
                    required_bytes: 337_334,
                    available_bytes: 524_288,
                },
                "{strategy}"
            );
            assert_eq!(
                error.to_string(),
                "operator group `conv4_2.part0` needs 2 cores (337334 weight bytes) but the \
                 chip has 1 (524288 bytes)"
            );
        }
    }

    #[test]
    fn impossible_workloads_report_capacity_errors() {
        let arch = ArchConfig::paper_default().with_core_count(1);
        let cost = CostModel::new(&arch);
        let vgg = condensed(models::vgg19(224));
        assert!(matches!(dp_partition(&vgg, &cost), Err(CompileError::CapacityExceeded { .. })));
        assert!(matches!(
            generic_partition(&vgg, &cost),
            Err(CompileError::CapacityExceeded { .. })
        ));
    }
}
