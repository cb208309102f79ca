//! The cost estimation model guiding partitioning and core-mapping
//! decisions.
//!
//! "To balance parallel execution benefits against communication costs,
//! the estimation model accounts for both computation costs and data
//! transfer overheads across inter- and intra-cluster communications."
//! (paper Sec. III-C)
//!
//! The estimates here only *rank* candidate partitions and mappings; the
//! authoritative latency/energy numbers always come from the cycle-level
//! simulator.

use std::collections::BTreeSet;

use cimflow_arch::{ArchConfig, InterChipTopology};
use cimflow_energy::EnergyModel;

use crate::frontend::OpGroup;

/// Granularity at which cut activations stream over the inter-chip
/// fabric — roughly one output pixel's channel vector, the natural unit
/// the producing stage emits. Both the simulator's tile-granular
/// hand-off and the search's interval estimator charge a consumer chip
/// only the residual of one tile, because the remaining tiles overlap
/// the producer's execution.
pub const STREAM_TILE_BYTES: u64 = 512;

/// Resource allocation chosen for one operator group inside a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMapping {
    /// Index of the group in the condensed graph.
    pub group: usize,
    /// Cores per replica (output channels are sliced across these).
    pub cores_per_replica: u32,
    /// Weight-duplication factor (output pixels are sliced across replicas).
    pub replicas: u32,
}

impl GroupMapping {
    /// Total cores consumed by the group.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_replica * self.replicas
    }
}

/// Estimated cost of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Estimated stage latency in cycles (pipeline bottleneck plus
    /// stage-boundary overheads).
    pub cycles: u64,
    /// Estimated stage energy in picojoules.
    pub energy_pj: f64,
}

/// The compiler-side cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    arch: ArchConfig,
    energy: EnergyModel,
}

impl CostModel {
    /// Creates a cost model for an architecture with the default
    /// 28 nm-calibrated energy constants.
    pub fn new(arch: &ArchConfig) -> Self {
        CostModel { arch: *arch, energy: EnergyModel::calibrated_28nm() }
    }

    /// The architecture the model describes.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// CIM weight capacity of one core in bytes.
    pub fn core_capacity_bytes(&self) -> u64 {
        self.arch.core.cim_unit.weight_capacity_bytes()
    }

    /// Number of cores on the chip.
    pub fn total_cores(&self) -> u32 {
        self.arch.chip().core_count
    }

    /// Reduction-dimension tiles needed for a group (`ceil(K / macro rows)`).
    pub fn row_tiles(&self, group: &OpGroup) -> u32 {
        group.metrics.k_rows.div_ceil(self.arch.core.cim_unit.rows_per_operation())
    }

    /// Output-channel tiles needed for a group across the whole cluster.
    pub fn channel_tiles(&self, group: &OpGroup) -> u32 {
        group.metrics.out_channels.div_ceil(self.arch.core.cim_unit.output_channels_per_group())
    }

    /// Minimum number of cores able to hold one replica of the group's
    /// weights, considering both raw capacity and macro-group counts.
    pub fn min_cores(&self, group: &OpGroup) -> u32 {
        let capacity = self.core_capacity_bytes().max(1);
        let by_capacity = group.metrics.weight_bytes.div_ceil(capacity) as u32;
        let tiles = self.row_tiles(group) as u64 * u64::from(self.channel_tiles(group));
        let by_macro_groups =
            tiles.div_ceil(u64::from(self.arch.core.cim_unit.macro_groups)) as u32;
        by_capacity.max(by_macro_groups).max(1)
    }

    /// Estimated cycles one replica of the group needs to produce its
    /// pixel slice, given `cores_per_replica` cores and `replicas`
    /// replicas (pipelined with its neighbours).
    pub fn group_cycles(&self, group: &OpGroup, cores_per_replica: u32, replicas: u32) -> u64 {
        let unit = &self.arch.core.cim_unit;
        let pixels = u64::from(group.metrics.out_pixels.div_ceil(replicas.max(1)));
        let ch_per_core = group.metrics.out_channels.div_ceil(cores_per_replica.max(1));
        let ch_tiles = u64::from(ch_per_core.div_ceil(unit.output_channels_per_group()));
        let row_tiles = u64::from(self.row_tiles(group));
        let mvms_per_pixel = ch_tiles * row_tiles;
        let rows = group.metrics.k_rows.min(unit.rows_per_operation());
        // Distinct (row, channel) tiles live on distinct macro groups, so a
        // pixel's MVMs overlap; consecutive pixels serialize on each MG,
        // except that vacant macro groups hold duplicated weight copies and
        // serve interleaved pixels (intra-core duplication).
        let intra = u64::from(unit.macro_groups) / mvms_per_pixel.max(1);
        let cim_cycles = pixels * unit.mvm_issue_cycles(rows) / intra.clamp(1, 16);
        // The in-order core must also issue every instruction of the pixel
        // loop (MVMs plus gather/store/bookkeeping overhead).
        let issue_cycles = pixels * (mvms_per_pixel + 8);
        // Fused element-wise work on the vector unit.
        let vector_cycles = self
            .arch
            .core
            .vector_unit
            .cycles_for(group.metrics.vector_elems / u64::from(replicas.max(1)));
        // Activation input must reach every core of the replica over the NoC.
        let input_slice = group.metrics.input_bytes / u64::from(replicas.max(1));
        let flit = u64::from(self.arch.chip().noc_flit_bytes.max(1));
        let comm_cycles = input_slice.div_ceil(flit)
            + (group.metrics.output_bytes / u64::from(replicas.max(1))).div_ceil(flit);
        cim_cycles.max(issue_cycles).max(vector_cycles).max(comm_cycles)
    }

    /// Estimated energy of executing the whole group once (independent of
    /// the mapping, except for duplication-induced broadcast traffic).
    pub fn group_energy_pj(&self, group: &OpGroup, cores_per_replica: u32, replicas: u32) -> f64 {
        let compute = self.energy.mvm_energy(
            group.metrics.macs,
            group.metrics.input_bytes,
            group.metrics.output_bytes,
        );
        let mean_hops = (self.arch.chip().mesh.width + self.arch.chip().mesh.height) / 3;
        let broadcast_bytes = group.metrics.input_bytes * u64::from(cores_per_replica.max(1));
        let flits = self.arch.chip().flits_for(broadcast_bytes) * u64::from(replicas.max(1)).min(4);
        let noc = self.energy.noc_energy(flits, self.arch.chip().noc_flit_bytes, mean_hops.max(1));
        let vector_pj = self.energy.digital.vector_pj_per_elem * group.metrics.vector_elems as f64;
        compute.total_pj() + noc.total_pj() + vector_pj
    }

    /// Cycles for `bytes` of activations to cross `hops` inter-chip links
    /// and land in the consumer chip's global memory — the cost the
    /// system-level partitioner charges each cut edge, mirroring the
    /// simulator's fabric timing (head latency per hop, flit
    /// serialization, then the consumer's memory port).
    pub fn interchip_transfer_cycles(&self, bytes: u64, hops: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let link = &self.arch.system.interconnect;
        u64::from(link.link_latency_cycles) * u64::from(hops.max(1))
            + link.flits_for(bytes)
            + self.arch.chip().global_memory.transfer_cycles(bytes)
    }

    /// Inter-chip hop count between two chips under the configured
    /// topology (1 for point-to-point, ring distance on a ring).
    pub fn interchip_hops(&self, from_chip: u32, to_chip: u32) -> u32 {
        if from_chip == to_chip {
            return 0;
        }
        match self.arch.system.interconnect.topology {
            InterChipTopology::PointToPoint => 1,
            InterChipTopology::Ring => {
                let chips = self.arch.chip_count().max(1);
                let forward = (to_chip + chips - from_chip) % chips;
                forward.min(chips - forward).max(1)
            }
        }
    }

    /// Cycles to bring a stage's weights from global memory into the CIM
    /// arrays (the dominant stage-transition overhead under the SRAM
    /// capacity constraint).
    pub fn weight_reload_cycles(&self, stage_weight_bytes: u64) -> u64 {
        self.arch.chip().global_memory.transfer_cycles(stage_weight_bytes)
            + self
                .arch
                .core
                .local_memory
                .transfer_cycles(stage_weight_bytes / u64::from(self.arch.chip().core_count.max(1)))
    }

    /// Estimates the cost of one stage under a concrete mapping.
    pub fn stage_cost(&self, groups: &[&OpGroup], mapping: &[GroupMapping]) -> StageCost {
        let boundary_bytes = stage_boundary_bytes(groups);
        let mut bottleneck = 0u64;
        let mut sum = 0u64;
        let mut energy = 0.0f64;
        let mut stage_weight_bytes = 0u64;
        for (group, m) in groups.iter().zip(mapping) {
            let cycles = self.group_cycles(group, m.cores_per_replica, m.replicas);
            bottleneck = bottleneck.max(cycles);
            sum += cycles;
            energy += self.group_energy_pj(group, m.cores_per_replica, m.replicas);
            stage_weight_bytes += group.metrics.weight_bytes * u64::from(m.replicas);
        }
        energy += self.energy.cim.weight_load_pj(stage_weight_bytes)
            + self.energy.global_memory_energy(stage_weight_bytes + boundary_bytes).total_pj();
        let fill = self.arch.chip().global_memory.transfer_cycles(boundary_bytes);
        StageCost {
            cycles: self.pipelined_cycles(bottleneck, sum, stage_weight_bytes, fill),
            energy_pj: energy,
        }
    }

    /// Pipelined stage latency: the bottleneck group dominates, the
    /// remaining groups contribute their pipeline-fill share, and the
    /// stage boundary pays the weight reload plus `fill_cycles` of
    /// activation fill.
    fn pipelined_cycles(
        &self,
        bottleneck: u64,
        sum: u64,
        stage_weight_bytes: u64,
        fill_cycles: u64,
    ) -> u64 {
        bottleneck + sum / 16 + self.weight_reload_cycles(stage_weight_bytes) + fill_cycles
    }

    /// Chooses cores-per-replica and duplication factors for the groups of
    /// a candidate stage — the paper's `OptimalMapping(stage, R)` — and
    /// returns the mapping with its [`Self::stage_cost`].
    ///
    /// This is [`Self::mapping_with_duplication`] with duplication on,
    /// which the operator-duplication baseline also uses. The DP of Alg. 1
    /// prices every candidate stage with the same greedy in cycles only
    /// and calls this once for each stage it keeps. Returns `None` when
    /// the stage cannot fit the chip even without duplication.
    pub fn optimal_mapping(&self, groups: &[&OpGroup]) -> Option<(StageCost, Vec<GroupMapping>)> {
        self.mapping_with_duplication(groups, true)
    }

    /// Maps the groups of one stage and costs the result.
    ///
    /// Every group starts at [`Self::min_cores`] with one replica. With
    /// `duplicate`, vacant cores then go, one replica at a time, to the
    /// group with the largest estimated time among those whose replica
    /// still fits (the earliest group wins a tie). A replica is kept while
    /// the stage's estimated cycles, including the extra weight reload it
    /// causes, strictly fall; the first one that does not ends the search.
    /// Each step re-prices only the changed group. The generic-mapping
    /// baseline passes `duplicate = false`.
    ///
    /// Returns `None` when `groups` is empty or their minimum cores exceed
    /// the chip; otherwise the mapping and its [`Self::stage_cost`].
    pub fn mapping_with_duplication(
        &self,
        groups: &[&OpGroup],
        duplicate: bool,
    ) -> Option<(StageCost, Vec<GroupMapping>)> {
        let mut table = self.replica_table(groups.iter().copied());
        let mut stage = StageBuffers { members: (0..groups.len()).collect(), ..Default::default() };
        let boundary = || stage_boundary_bytes(groups);
        self.duplicate_greedily(&mut table, &mut stage, boundary, duplicate)?;
        let mapping = stage.mapping(&table);
        Some((self.stage_cost(groups, &mapping), mapping))
    }

    /// An empty [`ReplicaTable`] whose position `i` is the `i`-th of
    /// `groups`.
    pub(crate) fn replica_table<'g>(
        &self,
        groups: impl IntoIterator<Item = &'g OpGroup>,
    ) -> ReplicaTable<'g> {
        let groups: Vec<&OpGroup> = groups.into_iter().collect();
        ReplicaTable {
            min_cores: groups.iter().map(|g| self.min_cores(g)).collect(),
            rows: vec![Vec::new(); groups.len()],
            groups,
        }
    }

    /// The greedy of [`Self::mapping_with_duplication`], priced in cycles
    /// only: the one duplication loop behind all three strategies, and the
    /// DP's price of a candidate stage.
    ///
    /// `stage.members` are positions in `table`; the replicas chosen for
    /// them are left in `stage` (see [`StageBuffers::mapping`]). Only a
    /// stage that fits the chip calls `boundary`, once, for the bytes of
    /// its activation fill (see [`boundary_bytes`]). A step then moves
    /// only the changed group's cycles, read from `table`, the
    /// bottleneck, the pipeline-fill share and the weight reload. These
    /// are integers, so the returned cycles equal [`Self::stage_cost`] of
    /// the resulting mapping.
    pub(crate) fn duplicate_greedily(
        &self,
        table: &mut ReplicaTable<'_>,
        stage: &mut StageBuffers,
        boundary: impl FnOnce() -> u64,
        duplicate: bool,
    ) -> Option<u64> {
        let StageBuffers { members, replicas, cycles } = stage;
        let total = self.total_cores();
        let used: u32 = members.iter().map(|&i| table.min_cores[i]).sum();
        if members.is_empty() || used > total {
            return None;
        }
        replicas.clear();
        replicas.resize(members.len(), 1);
        cycles.clear();
        cycles.extend(members.iter().map(|&i| table.cycles(self, i, 1)));
        let mut sum: u64 = cycles.iter().sum();
        let mut weight_bytes: u64 =
            members.iter().map(|&i| table.groups[i].metrics.weight_bytes).sum();
        let fill = self.arch.chip().global_memory.transfer_cycles(boundary());
        let bottleneck = cycles.iter().copied().max().unwrap_or(0);
        let mut cost = self.pipelined_cycles(bottleneck, sum, weight_bytes, fill);
        let mut remaining = total - used;
        while duplicate && remaining > 0 {
            let mut best: Option<usize> = None;
            for (k, &i) in members.iter().enumerate() {
                if table.min_cores[i] <= remaining {
                    match best {
                        Some(b) if cycles[k] <= cycles[b] => {}
                        _ => best = Some(k),
                    }
                }
            }
            let Some(k) = best else { break };
            let i = members[k];
            let next = table.cycles(self, i, replicas[k] + 1);
            let bottleneck = cycles
                .iter()
                .enumerate()
                .map(|(j, &c)| if j == k { next } else { c })
                .max()
                .unwrap_or(0);
            let next_sum = sum - cycles[k] + next;
            let next_weight_bytes = weight_bytes + table.groups[i].metrics.weight_bytes;
            let candidate = self.pipelined_cycles(bottleneck, next_sum, next_weight_bytes, fill);
            if candidate >= cost {
                break;
            }
            cost = candidate;
            cycles[k] = next;
            sum = next_sum;
            weight_bytes = next_weight_bytes;
            replicas[k] += 1;
            remaining -= table.min_cores[i];
        }
        Some(cost)
    }
}

/// Per group of a (sub)graph or a stage, [`CostModel::min_cores`] and
/// the cycles of `r` replicas of that many cores, `group_cycles(g,
/// min_cores(g), r)` for `r = 1..=total_cores / min_cores(g)`.
///
/// [`CostModel::duplicate_greedily`] gives every replica `min_cores(g)`
/// cores, so a group's cycles depend only on its replica count, and one
/// table serves every candidate stage of a DP. Cycles are priced on
/// first use. The greedy reaches `r + 1` replicas only from `r`, so a
/// group's row grows in replica order, and a mapping without duplication
/// prices only `r = 1`.
#[derive(Debug)]
pub(crate) struct ReplicaTable<'g> {
    groups: Vec<&'g OpGroup>,
    min_cores: Vec<u32>,
    /// Group `i`'s cycles priced so far, indexed by `r - 1`.
    rows: Vec<Vec<u64>>,
}

impl ReplicaTable<'_> {
    /// The cycles of `replicas` replicas of the group at position `i`,
    /// pricing its row up to `replicas` first.
    fn cycles(&mut self, model: &CostModel, i: usize, replicas: u32) -> u64 {
        let row = &mut self.rows[i];
        while row.len() < replicas as usize {
            row.push(model.group_cycles(self.groups[i], self.min_cores[i], row.len() as u32 + 1));
        }
        row[replicas as usize - 1]
    }
}

/// One stage for [`CostModel::duplicate_greedily`]: its groups as
/// positions in a [`ReplicaTable`] and the greedy's per-group state.
/// Reused across the DP's candidate stages, so pricing one allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct StageBuffers {
    /// The stage's groups, as positions in the table.
    pub(crate) members: Vec<usize>,
    /// Replicas of each member after the last greedy run.
    replicas: Vec<u32>,
    /// Cycles of each member at its replica count.
    cycles: Vec<u64>,
}

impl StageBuffers {
    /// The mapping the last greedy run over `table` chose.
    pub(crate) fn mapping(&self, table: &ReplicaTable<'_>) -> Vec<GroupMapping> {
        self.members
            .iter()
            .zip(&self.replicas)
            .map(|(&i, &replicas)| GroupMapping {
                group: table.groups[i].index,
                cores_per_replica: table.min_cores[i],
                replicas,
            })
            .collect()
    }
}

/// Activation bytes a stage fills from global memory at its boundary —
/// the other half of the stage-boundary penalty: every edge whose
/// producer lies outside the stage (`member` answers for a group index),
/// plus the graph input for groups that read it.
pub(crate) fn boundary_bytes<'g>(
    groups: impl IntoIterator<Item = &'g OpGroup>,
    member: impl Fn(usize) -> bool,
) -> u64 {
    groups
        .into_iter()
        .map(|group| {
            let outside: u64 =
                group.preds.iter().filter(|d| !member(d.group)).map(|d| d.bytes).sum();
            outside + if group.reads_graph_input { group.metrics.input_bytes } else { 0 }
        })
        .sum()
}

/// [`boundary_bytes`] of a stage given as a list of groups.
fn stage_boundary_bytes(groups: &[&OpGroup]) -> u64 {
    let member: BTreeSet<usize> = groups.iter().map(|g| g.index).collect();
    boundary_bytes(groups.iter().copied(), |g| member.contains(&g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::CondensedGraph;
    use cimflow_nn::models;

    fn condensed(resolution: u32) -> CondensedGraph {
        CondensedGraph::from_graph(&models::resnet18(resolution).graph).unwrap()
    }

    #[test]
    fn min_cores_respects_capacity_and_macro_groups() {
        let model = CostModel::new(&cimflow_arch::ArchConfig::paper_default());
        let condensed = condensed(64);
        for group in condensed.groups() {
            let min = model.min_cores(group);
            assert!(min >= 1);
            // A replica spread over `min` cores must fit their capacity.
            assert!(u64::from(min) * model.core_capacity_bytes() >= group.metrics.weight_bytes);
        }
    }

    #[test]
    fn group_cycles_decrease_with_more_replicas() {
        let model = CostModel::new(&cimflow_arch::ArchConfig::paper_default());
        let condensed = condensed(64);
        let heavy = condensed.groups().iter().max_by_key(|g| g.metrics.macs).unwrap();
        let one = model.group_cycles(heavy, model.min_cores(heavy), 1);
        let four = model.group_cycles(heavy, model.min_cores(heavy), 4);
        assert!(four < one, "duplication must reduce the bottleneck ({four} !< {one})");
    }

    #[test]
    fn optimal_mapping_uses_vacant_cores() {
        let arch = cimflow_arch::ArchConfig::paper_default();
        let model = CostModel::new(&arch);
        let condensed = condensed(64);
        let groups: Vec<&OpGroup> = condensed.groups().iter().collect();
        let (_, mapping) = model.optimal_mapping(&groups).unwrap();
        let used: u32 = mapping.iter().map(GroupMapping::total_cores).sum();
        assert!(used <= arch.chip().core_count);
        assert!(mapping.iter().any(|m| m.replicas > 1), "ResNet18 leaves room for duplication");
        // The no-duplication mapping must never be faster.
        let (without, _) = model.mapping_with_duplication(&groups, false).unwrap();
        let (with, _) = model.optimal_mapping(&groups).unwrap();
        assert!(with.cycles <= without.cycles);
    }

    /// The graphs whose every candidate stage the table tests price:
    /// three seed models at 32 px, efficientnetb0 the largest (82
    /// groups), and chip 0's subgraph of efficientnetb0 split over two
    /// chips, each with the cost model it is partitioned under and
    /// whether some of its candidate stages do not fit the chip (every
    /// stage of resnet18 and mobilenetv2 fits).
    fn priced_graphs() -> Vec<(String, CondensedGraph, CostModel, bool)> {
        let one_chip = CostModel::new(&cimflow_arch::ArchConfig::paper_default());
        let mut graphs = Vec::new();
        for (net, some_oversized) in [
            (models::resnet18(32), false),
            (models::mobilenet_v2(32), false),
            (models::efficientnet_b0(32), true),
        ] {
            let graph = CondensedGraph::from_graph(&net.graph).unwrap();
            graphs.push((net.name.clone(), graph, one_chip.clone(), some_oversized));
        }
        let two_chips =
            CostModel::new(&cimflow_arch::ArchConfig::paper_default().with_chip_count(2));
        let whole = CondensedGraph::from_graph(&models::efficientnet_b0(32).graph).unwrap();
        let split = crate::system::partition_chips(&whole, &two_chips);
        let (chip0, _) = whole.chip_subgraph(&split.assignment, 0);
        graphs.push(("efficientnetb0 chip 0 of 2".into(), chip0, two_chips, true));
        graphs
    }

    /// Every candidate stage the DP visits: the difference of each pair
    /// of nested dependency closures; and the number of closures.
    fn candidate_stages(graph: &CondensedGraph) -> (Vec<crate::BitMask256>, usize) {
        let closures = crate::partition::dependency_closures(graph);
        let mut stages = Vec::new();
        for (i, closure) in closures.iter().enumerate() {
            for candidate in closures[..i].iter().filter(|c| c.is_subset_of(closure)) {
                stages.push(closure.difference(candidate));
            }
        }
        (stages, closures.len())
    }

    #[test]
    fn incremental_prices_equal_full_stage_costs() {
        // One table per graph serves every candidate, as in the DP; each
        // price must equal the stage cost of the mapping it chose, and
        // that mapping must equal the one a fresh table chooses.
        for (name, graph, model, some_oversized) in priced_graphs() {
            let mut table = model.replica_table(graph.groups());
            let mut stage = StageBuffers::default();
            let (stages, closures) = candidate_stages(&graph);
            let (mut priced, mut oversized) = (0, 0);
            for mask in stages {
                let groups: Vec<&OpGroup> = mask.iter().map(|g| &graph.groups()[g]).collect();
                stage.members = mask.iter().collect();
                let boundary = boundary_bytes(groups.iter().copied(), |g| mask.contains(g));
                for duplicate in [false, true] {
                    let greedy =
                        model.duplicate_greedily(&mut table, &mut stage, || boundary, duplicate);
                    let full = model.mapping_with_duplication(&groups, duplicate);
                    let (Some(cycles), Some((_, mapping))) = (greedy, &full) else {
                        assert!(greedy.is_none() && full.is_none(), "{name}: stage {mask}");
                        let min_cores: u32 = groups.iter().map(|g| model.min_cores(g)).sum();
                        assert!(min_cores > model.total_cores(), "{name}: stage {mask} fits");
                        oversized += 1;
                        continue;
                    };
                    assert_eq!(stage.mapping(&table), *mapping, "{name}: stage {mask}");
                    assert_eq!(
                        cycles,
                        model.stage_cost(&groups, mapping).cycles,
                        "{name}: stage {mask}, duplicate {duplicate}"
                    );
                    priced += 1;
                }
            }
            assert!(priced > 2 * closures, "{name}: only {priced} stages priced");
            assert_eq!(oversized > 0, some_oversized, "{name}: {oversized} stages do not fit");
        }
    }

    #[test]
    fn replica_table_entries_equal_group_cycles() {
        for (name, graph, model, _) in priced_graphs() {
            let mut table = model.replica_table(graph.groups());
            let mut stage = StageBuffers::default();
            let (stages, _) = candidate_stages(&graph);
            // Without duplication a mapping prices one replica per group.
            for mask in &stages {
                stage.members = mask.iter().collect();
                model.duplicate_greedily(&mut table, &mut stage, || 0, false);
            }
            assert!(table.rows.iter().all(|row| row.len() <= 1), "{name}: {:?}", table.rows);
            assert!(table.rows.iter().any(|row| row.len() == 1), "{name}: nothing priced");
            for mask in &stages {
                stage.members = mask.iter().collect();
                model.duplicate_greedily(&mut table, &mut stage, || 0, true);
            }
            assert!(table.rows.iter().any(|row| row.len() > 1), "{name}: nothing duplicated");
            for (i, group) in graph.groups().iter().enumerate() {
                let min_cores = model.min_cores(group);
                assert_eq!(table.min_cores[i], min_cores, "{name}: group {i}");
                let row = &table.rows[i];
                assert!(row.len() as u32 <= model.total_cores() / min_cores, "{name}: group {i}");
                for (r, &cycles) in (1..).zip(row) {
                    assert_eq!(
                        cycles,
                        model.group_cycles(group, min_cores, r),
                        "{name}: group {i}, {r} replicas"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_stage_is_rejected() {
        let arch = cimflow_arch::ArchConfig::paper_default().with_core_count(4);
        let model = CostModel::new(&arch);
        let vgg = CondensedGraph::from_graph(&models::vgg19(224).graph).unwrap();
        let groups: Vec<&OpGroup> = vgg.groups().iter().collect();
        assert!(
            model.optimal_mapping(&groups).is_none(),
            "VGG19 cannot fit four cores in one stage"
        );
    }

    #[test]
    fn stage_cost_accounts_for_weight_reload() {
        let model = CostModel::new(&cimflow_arch::ArchConfig::paper_default());
        let condensed = condensed(64);
        let groups: Vec<&OpGroup> = condensed.groups().iter().collect();
        let single_mapping: Vec<GroupMapping> = groups
            .iter()
            .map(|g| GroupMapping {
                group: g.index,
                cores_per_replica: model.min_cores(g),
                replicas: 1,
            })
            .collect();
        let whole = model.stage_cost(&groups, &single_mapping);
        // Splitting into two stages pays the reload twice and pipelines less.
        let half = groups.len() / 2;
        let first = model.stage_cost(&groups[..half], &single_mapping[..half]);
        let second = model.stage_cost(&groups[half..], &single_mapping[half..]);
        assert!(first.cycles + second.cycles > whole.cycles);
        assert!(whole.energy_pj > 0.0);
    }

    #[test]
    fn weight_reload_scales_with_bytes() {
        let model = CostModel::new(&cimflow_arch::ArchConfig::paper_default());
        assert!(model.weight_reload_cycles(10 << 20) > model.weight_reload_cycles(1 << 20));
    }

    #[test]
    fn interchip_transfers_cost_latency_plus_serialization() {
        let arch = cimflow_arch::ArchConfig::paper_default().with_chip_count(2);
        let model = CostModel::new(&arch);
        assert_eq!(model.interchip_transfer_cycles(0, 1), 0);
        let small = model.interchip_transfer_cycles(64, 1);
        let large = model.interchip_transfer_cycles(64 * 1024, 1);
        assert!(small >= u64::from(arch.system.interconnect.link_latency_cycles));
        assert!(large > small);
        // Every additional hop pays the head latency again …
        let two_hops = model.interchip_transfer_cycles(64, 2);
        assert_eq!(two_hops - small, u64::from(arch.system.interconnect.link_latency_cycles));
        // … and a faster link reduces the serialization share.
        let fast = CostModel::new(&arch.with_interchip_link_bytes(256));
        assert!(fast.interchip_transfer_cycles(64 * 1024, 1) < large);
    }
}
