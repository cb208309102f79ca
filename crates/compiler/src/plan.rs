//! Compilation-plan data structures shared between the CG-level
//! optimizer, the code generator, the simulator and the reports.

use std::collections::BTreeMap;
use std::fmt;

use cimflow_arch::ArchConfig;
use cimflow_isa::{OpcodeClass, Program};

use crate::frontend::CondensedGraph;
use crate::system::SystemPlan;

/// One replica (cluster) of an operator group: the cores it occupies and
/// the output-pixel range it is responsible for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Physical core identifiers of the cluster; output channels are
    /// sliced across these cores.
    pub cores: Vec<u32>,
    /// First output pixel (row-major `oh × ow` position) handled by the
    /// cluster.
    pub pixel_start: u32,
    /// One past the last output pixel handled by the cluster.
    pub pixel_end: u32,
}

impl ClusterPlan {
    /// Number of output pixels assigned to the cluster.
    pub fn pixels(&self) -> u32 {
        self.pixel_end.saturating_sub(self.pixel_start)
    }
}

/// Placement of one condensed operator group inside a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlacement {
    /// Index of the group in the condensed graph.
    pub group: usize,
    /// The clusters executing the group; `clusters.len()` is the weight
    /// duplication factor chosen by the mapping optimization.
    pub clusters: Vec<ClusterPlan>,
}

impl GroupPlacement {
    /// The weight-duplication factor of the group.
    pub fn duplication(&self) -> usize {
        self.clusters.len()
    }

    /// All cores used by the group across clusters.
    pub fn cores(&self) -> Vec<u32> {
        let mut cores: Vec<u32> =
            self.clusters.iter().flat_map(|c| c.cores.iter().copied()).collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }
}

/// One execution stage: a set of operator groups whose weights are
/// resident in the CIM arrays simultaneously.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Stage index in execution order.
    pub index: usize,
    /// Placements of the groups executing in this stage.
    pub placements: Vec<GroupPlacement>,
    /// Cost-model estimate of the stage latency in cycles.
    pub estimated_cycles: u64,
    /// Cost-model estimate of the stage energy in picojoules.
    pub estimated_energy_pj: f64,
}

impl StagePlan {
    /// Indices of the groups executing in this stage.
    pub fn group_indices(&self) -> Vec<usize> {
        self.placements.iter().map(|p| p.group).collect()
    }

    /// Number of distinct cores occupied by the stage.
    pub fn occupied_cores(&self) -> usize {
        let mut cores: Vec<u32> = self.placements.iter().flat_map(|p| p.cores()).collect();
        cores.sort_unstable();
        cores.dedup();
        cores.len()
    }
}

/// The CG-level compilation plan: the ordered stages with their mappings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationPlan {
    /// Name of the compilation strategy that produced the plan.
    pub strategy: String,
    /// The execution stages in order.
    pub stages: Vec<StagePlan>,
}

impl CompilationPlan {
    /// Total cost-model estimate over all stages in cycles.
    pub fn estimated_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.estimated_cycles).sum()
    }

    /// The placement of a given group, if it appears in the plan.
    pub fn placement_of(&self, group: usize) -> Option<(&StagePlan, &GroupPlacement)> {
        self.stages
            .iter()
            .find_map(|s| s.placements.iter().find(|p| p.group == group).map(|p| (s, p)))
    }

    /// Mean weight-duplication factor across groups.
    pub fn mean_duplication(&self) -> f64 {
        let placements: Vec<&GroupPlacement> =
            self.stages.iter().flat_map(|s| &s.placements).collect();
        if placements.is_empty() {
            return 0.0;
        }
        placements.iter().map(|p| p.duplication() as f64).sum::<f64>() / placements.len() as f64
    }
}

/// Static statistics of the generated code, included in the detailed
/// report of every compilation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompileReport {
    /// Total static instructions across cores.
    pub total_instructions: usize,
    /// Static instructions per opcode class.
    pub instructions_by_class: BTreeMap<OpcodeClass, usize>,
    /// Number of execution stages.
    pub stage_count: usize,
    /// Number of condensed operator groups.
    pub group_count: usize,
    /// Number of cores with a non-empty program.
    pub active_cores: usize,
    /// System-level candidates scored before the chip split was chosen
    /// (1 on the sequential pipeline and on single-chip systems; the
    /// joint search reports its explored pool).
    pub search_candidates: usize,
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} groups in {} stages on {} active cores, {} static instructions",
            self.group_count, self.stage_count, self.active_cores, self.total_instructions
        )?;
        for (class, count) in &self.instructions_by_class {
            writeln!(f, "  {class:>14}: {count}")?;
        }
        Ok(())
    }
}

// Manual serde impls: the opcode-class histogram is keyed by
// `OpcodeClass`, which serializes through its stable lowercase name so
// cached evaluation artifacts stay human-readable JSON objects.
impl serde::Serialize for CompileReport {
    fn serialize(&self) -> serde::Content {
        let histogram = self
            .instructions_by_class
            .iter()
            .map(|(class, count)| (class.name().to_owned(), serde::Serialize::serialize(count)))
            .collect();
        serde::Content::Map(vec![
            (
                "total_instructions".to_owned(),
                serde::Serialize::serialize(&self.total_instructions),
            ),
            ("instructions_by_class".to_owned(), serde::Content::Map(histogram)),
            ("stage_count".to_owned(), serde::Serialize::serialize(&self.stage_count)),
            ("group_count".to_owned(), serde::Serialize::serialize(&self.group_count)),
            ("active_cores".to_owned(), serde::Serialize::serialize(&self.active_cores)),
            ("search_candidates".to_owned(), serde::Serialize::serialize(&self.search_candidates)),
        ])
    }
}

impl serde::Deserialize for CompileReport {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let map =
            content.as_map().ok_or_else(|| serde::Error::new("expected map for CompileReport"))?;
        let field = |name: &str| {
            serde::lookup(map, name).ok_or_else(|| {
                serde::Error::new(format!("missing field `{name}` in CompileReport"))
            })
        };
        let mut instructions_by_class = BTreeMap::new();
        let histogram = field("instructions_by_class")?
            .as_map()
            .ok_or_else(|| serde::Error::new("expected map for instructions_by_class"))?;
        for (name, count) in histogram {
            let class = OpcodeClass::from_name(name)
                .ok_or_else(|| serde::Error::new(format!("unknown opcode class `{name}`")))?;
            instructions_by_class.insert(class, serde::Deserialize::deserialize(count)?);
        }
        Ok(CompileReport {
            total_instructions: serde::Deserialize::deserialize(field("total_instructions")?)?,
            instructions_by_class,
            stage_count: serde::Deserialize::deserialize(field("stage_count")?)?,
            group_count: serde::Deserialize::deserialize(field("group_count")?)?,
            active_cores: serde::Deserialize::deserialize(field("active_cores")?)?,
            search_candidates: serde::Deserialize::deserialize(field("search_candidates")?)?,
        })
    }
}

/// The complete compilation artifact consumed by the simulator.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// One ISA program per core, indexed by the **global** core id
    /// `chip * cores_per_chip + local_core` (plain core id on a
    /// single-chip system).
    pub per_core: Vec<Program>,
    /// The CG-level plan that produced the code. On multi-chip systems
    /// this is the merged view across chips: group indices refer to the
    /// global condensed graph and cluster cores are global core ids.
    pub plan: CompilationPlan,
    /// The condensed graph the plan refers to.
    pub condensed: CondensedGraph,
    /// The system-level plan: chip assignment of every group and the
    /// inter-chip transfers at cut edges (trivial on a single chip).
    pub system: SystemPlan,
    /// The architecture the program was compiled for.
    pub arch: ArchConfig,
    /// Static code statistics.
    pub report: CompileReport,
}

impl CompiledProgram {
    /// Builds the static instruction-count report for a set of per-core
    /// programs.
    pub fn build_report(
        per_core: &[Program],
        plan: &CompilationPlan,
        condensed: &CondensedGraph,
    ) -> CompileReport {
        let mut by_class: BTreeMap<OpcodeClass, usize> = BTreeMap::new();
        let mut total = 0usize;
        let mut active = 0usize;
        for program in per_core {
            if !program.is_empty() {
                active += 1;
            }
            total += program.len();
            for (class, count) in program.class_histogram() {
                *by_class.entry(class).or_insert(0) += count;
            }
        }
        CompileReport {
            total_instructions: total,
            instructions_by_class: by_class,
            stage_count: plan.stages.len(),
            group_count: condensed.len(),
            active_cores: active,
            search_candidates: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(group: usize, clusters: usize, cores_each: usize) -> GroupPlacement {
        let mut next = 0u32;
        GroupPlacement {
            group,
            clusters: (0..clusters)
                .map(|i| {
                    let cores: Vec<u32> = (0..cores_each)
                        .map(|_| {
                            next += 1;
                            next - 1
                        })
                        .collect();
                    ClusterPlan {
                        cores,
                        pixel_start: (i as u32) * 10,
                        pixel_end: (i as u32) * 10 + 10,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn cluster_and_placement_accessors() {
        let p = placement(3, 2, 4);
        assert_eq!(p.duplication(), 2);
        assert_eq!(p.cores().len(), 8);
        assert_eq!(p.clusters[0].pixels(), 10);
    }

    #[test]
    fn stage_and_plan_summaries() {
        let stage = StagePlan {
            index: 0,
            placements: vec![placement(0, 1, 2), placement(1, 3, 1)],
            estimated_cycles: 1000,
            estimated_energy_pj: 5.0,
        };
        assert_eq!(stage.group_indices(), vec![0, 1]);
        assert!(stage.occupied_cores() >= 3);
        let plan = CompilationPlan { strategy: "dp".into(), stages: vec![stage] };
        assert_eq!(plan.estimated_cycles(), 1000);
        assert!(plan.placement_of(1).is_some());
        assert!(plan.placement_of(9).is_none());
        assert!((plan.mean_duplication() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_plan_has_zero_duplication() {
        let plan = CompilationPlan { strategy: "generic".into(), stages: vec![] };
        assert_eq!(plan.mean_duplication(), 0.0);
        assert_eq!(plan.estimated_cycles(), 0);
    }

    #[test]
    fn compile_report_serde_round_trip() {
        let mut instructions_by_class = BTreeMap::new();
        instructions_by_class.insert(OpcodeClass::Cim, 120usize);
        instructions_by_class.insert(OpcodeClass::Control, 7usize);
        let report = CompileReport {
            total_instructions: 127,
            instructions_by_class,
            stage_count: 3,
            group_count: 9,
            active_cores: 42,
            search_candidates: 7,
        };
        let text = serde_json::to_string(&report).unwrap();
        assert!(text.contains("\"cim\""), "histogram keys use class names: {text}");
        assert!(text.contains("search_candidates"));
        let back: CompileReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(serde_json::from_str::<CompileReport>("{\"total_instructions\": 1}").is_err());
    }
}
