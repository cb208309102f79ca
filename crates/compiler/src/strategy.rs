//! The top-level compilation entry points and the three compilation
//! strategies compared in the paper's Fig. 5.

use std::fmt;

use cimflow_arch::ArchConfig;
use cimflow_nn::Model;

use crate::codegen;
use crate::cost::CostModel;
use crate::frontend::CondensedGraph;
use crate::partition::{self, PartitionDecision};
use crate::plan::{ClusterPlan, CompilationPlan, CompiledProgram, GroupPlacement, StagePlan};
use crate::search::{self, ChipLowering, SearchMode, SystemSearch};
use crate::system::{self, SystemPlan};
use crate::validate;
use crate::CompileError;

/// The compilation strategies evaluated in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// Capacity-driven partitioning with an inter-layer pipeline and no
    /// operator duplication (the "generic mapping" baseline).
    GenericMapping,
    /// The CIM-MLC-style baseline: partition first, then opportunistically
    /// duplicate operators into vacant cores.
    OperatorDuplication,
    /// The paper's DP-based joint partitioning and mapping optimization
    /// (Alg. 1).
    DpOptimized,
}

impl Strategy {
    /// All strategies in the order plotted by Fig. 5.
    pub const ALL: [Strategy; 3] =
        [Strategy::GenericMapping, Strategy::OperatorDuplication, Strategy::DpOptimized];

    /// Short name used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::GenericMapping => "generic",
            Strategy::OperatorDuplication => "duplication",
            Strategy::DpOptimized => "dp",
        }
    }

    /// Parses a strategy from either its short report name (`generic`,
    /// `duplication`, `dp`) or its variant name (used by sweep
    /// configuration files).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "generic" | "GenericMapping" => Some(Strategy::GenericMapping),
            "duplication" | "OperatorDuplication" => Some(Strategy::OperatorDuplication),
            "dp" | "DpOptimized" => Some(Strategy::DpOptimized),
            _ => None,
        }
    }
}

impl serde::Serialize for Strategy {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for Strategy {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected strategy name string"))?;
        Strategy::from_name(text)
            .ok_or_else(|| serde::Error::new(format!("unknown strategy `{text}`")))
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Optional knobs of the compilation flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// The CG-level strategy.
    pub strategy: Strategy,
    /// How the system-level mapping space is searched on multi-chip
    /// architectures. [`SearchMode::Sequential`] (the default) keeps the
    /// historical fixed pass order; [`SearchMode::Joint`] searches chip
    /// split, per-chip stage partition and per-chip strategy jointly.
    pub search: SearchMode,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { strategy: Strategy::DpOptimized, search: SearchMode::Sequential }
    }
}

/// Compiles a model for an architecture with the given strategy.
///
/// # Errors
///
/// Returns a [`CompileError`] if the model is structurally invalid, does
/// not fit the architecture, or the generated code fails validation.
///
/// # Example
///
/// ```
/// use cimflow_arch::ArchConfig;
/// use cimflow_compiler::{compile, Strategy};
/// use cimflow_nn::models;
///
/// # fn main() -> Result<(), cimflow_compiler::CompileError> {
/// let compiled = compile(&models::mobilenet_v2(32), &ArchConfig::paper_default(), Strategy::GenericMapping)?;
/// assert!(compiled.report.total_instructions > 0);
/// # Ok(())
/// # }
/// ```
pub fn compile(
    model: &Model,
    arch: &ArchConfig,
    strategy: Strategy,
) -> Result<CompiledProgram, CompileError> {
    compile_with_options(model, arch, CompileOptions { strategy, ..CompileOptions::default() })
}

/// Compiles a model with explicit [`CompileOptions`].
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_options(
    model: &Model,
    arch: &ArchConfig,
    options: CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    arch.validate().map_err(|e| CompileError::ValidationFailed { reason: e.to_string() })?;
    // Operators larger than ~3/4 of one chip's CIM capacity are split into
    // output-channel slices so that every group fits some execution stage
    // of some chip.
    let capacity_limit =
        u64::from(arch.chip().core_count) * arch.core.cim_unit.weight_capacity_bytes() * 3 / 4;
    let condensed = CondensedGraph::from_graph_with_capacity(&model.graph, capacity_limit)?;
    let cost_model = CostModel::new(arch);
    if arch.chip_count() > 1 {
        return compile_multichip(condensed, &cost_model, arch, options);
    }
    let decision = chip_decision(&condensed, &cost_model, options.strategy)?;
    let plan = build_plan(&condensed, &decision, options.strategy, arch);
    let generated = codegen::generate(&condensed, &plan, arch)?;
    validate::check(&generated, &plan, &condensed, arch)?;
    let mut report = CompiledProgram::build_report(&generated.per_core, &plan, &condensed);
    let mut system = SystemPlan::single_chip(condensed.len());
    system.estimated_interval_cycles = plan.estimated_cycles().max(1);
    system.chip_strategies = vec![options.strategy];
    report.search_candidates = system.explored_candidates as usize;
    Ok(CompiledProgram {
        per_core: generated.per_core,
        plan,
        condensed,
        system,
        arch: *arch,
        report,
    })
}

/// Runs the per-chip CG-level partitioning of one strategy.
fn chip_decision(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
    strategy: Strategy,
) -> Result<PartitionDecision, CompileError> {
    partition::partition_with_strategy(condensed, cost_model, strategy)
}

/// The multi-chip compilation path: choose the system-level plan — either
/// the fixed sequential pass order or the joint search — then lower every
/// chip's subgraph through the unchanged per-chip flow and merge the
/// artifacts with globally indexed cores and groups.
fn compile_multichip(
    condensed: CondensedGraph,
    cost_model: &CostModel,
    arch: &ArchConfig,
    options: CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let (system, lowerings) = match options.search {
        SearchMode::Sequential => {
            // The historical pipeline: contiguous DP split first, then one
            // global strategy per chip — kept call-for-call identical so
            // sequential plans stay bit-exact.
            let mut system = system::partition_chips(&condensed, cost_model);
            let mut lowerings = Vec::with_capacity(system.chip_count as usize);
            let mut latencies = Vec::with_capacity(system.chip_count as usize);
            for chip in 0..system.chip_count {
                let (subgraph, _) = condensed.chip_subgraph(&system.assignment, chip);
                if subgraph.is_empty() {
                    lowerings.push(ChipLowering { strategy: options.strategy, decision: None });
                    latencies.push(0);
                    continue;
                }
                let decision = chip_decision(&subgraph, cost_model, options.strategy)?;
                latencies.push(decision.estimated_cycles());
                lowerings
                    .push(ChipLowering { strategy: options.strategy, decision: Some(decision) });
            }
            system.estimated_interval_cycles =
                search::estimate_interval(&condensed, cost_model, &system.assignment, &latencies);
            system.chip_strategies = lowerings.iter().map(|l| l.strategy).collect();
            (system, lowerings)
        }
        SearchMode::Joint => {
            let outcome = SystemSearch::new(&condensed, cost_model, options.strategy).run();
            // The search only keeps candidates whose every chip fits; if
            // even the seed failed, surface the per-chip capacity error
            // the sequential path would have reported.
            for (chip, lowering) in outcome.chips.iter().enumerate() {
                if lowering.decision.is_none() && outcome.system.assignment.contains(&(chip as u32))
                {
                    let (subgraph, _) =
                        condensed.chip_subgraph(&outcome.system.assignment, chip as u32);
                    chip_decision(&subgraph, cost_model, options.strategy)?;
                }
            }
            (outcome.system, outcome.chips)
        }
    };
    lower_system(condensed, arch, options, system, lowerings)
}

/// Lowers a chosen system plan: per-chip code generation on each chip's
/// subgraph, merged into one artifact with global core and group indices.
fn lower_system(
    condensed: CondensedGraph,
    arch: &ArchConfig,
    options: CompileOptions,
    system: SystemPlan,
    lowerings: Vec<ChipLowering>,
) -> Result<CompiledProgram, CompileError> {
    let cores_per_chip = arch.chip().core_count;
    let mut per_core = Vec::with_capacity((arch.total_cores()) as usize);
    let mut stages = Vec::new();
    for chip in 0..system.chip_count {
        let (subgraph, global_ids) = condensed.chip_subgraph(&system.assignment, chip);
        let lowering = &lowerings[chip as usize];
        let Some(decision) = lowering.decision.as_ref().filter(|_| !subgraph.is_empty()) else {
            // A chip without work still needs well-formed (halting)
            // programs so the simulator's core indexing stays uniform.
            for _ in 0..cores_per_chip {
                let mut builder = cimflow_isa::ProgramBuilder::new();
                builder.push(cimflow_isa::Instruction::Halt);
                per_core.push(builder.finish()?);
            }
            continue;
        };
        let plan = build_plan(&subgraph, decision, lowering.strategy, arch);
        let generated = codegen::generate(&subgraph, &plan, arch)?;
        validate::check(&generated, &plan, &subgraph, arch)?;
        per_core.extend(generated.per_core);
        // Lift the chip-local plan into the global index spaces for the
        // merged report/analysis view.
        let core_base = chip * cores_per_chip;
        for stage in plan.stages {
            let placements = stage
                .placements
                .into_iter()
                .map(|placement| GroupPlacement {
                    group: global_ids[placement.group],
                    clusters: placement
                        .clusters
                        .into_iter()
                        .map(|cluster| ClusterPlan {
                            cores: cluster.cores.iter().map(|c| c + core_base).collect(),
                            pixel_start: cluster.pixel_start,
                            pixel_end: cluster.pixel_end,
                        })
                        .collect(),
                })
                .collect();
            stages.push(StagePlan {
                index: stages.len(),
                placements,
                estimated_cycles: stage.estimated_cycles,
                estimated_energy_pj: stage.estimated_energy_pj,
            });
        }
    }
    let plan = CompilationPlan { strategy: options.strategy.name().to_owned(), stages };
    let mut report = CompiledProgram::build_report(&per_core, &plan, &condensed);
    report.search_candidates = system.explored_candidates as usize;
    Ok(CompiledProgram { per_core, plan, condensed, system, arch: *arch, report })
}

/// Turns a partition decision into a concrete plan with physical core
/// identifiers and per-replica output-pixel ranges (the paper's
/// "inter-core scheduling and IR generation" step).
fn build_plan(
    condensed: &CondensedGraph,
    decision: &PartitionDecision,
    strategy: Strategy,
    arch: &ArchConfig,
) -> CompilationPlan {
    let mut stages = Vec::with_capacity(decision.stages.len());
    for (index, (groups, mapping, cost)) in decision.stages.iter().enumerate() {
        let mut next_core = 0u32;
        let mut placements = Vec::with_capacity(groups.len());
        for (group_index, m) in groups.iter().zip(mapping) {
            let group = &condensed.groups()[*group_index];
            let pixels = group.metrics.out_pixels.max(1);
            let replicas = m.replicas.max(1);
            let chunk = pixels.div_ceil(replicas);
            let mut clusters = Vec::with_capacity(replicas as usize);
            for replica in 0..replicas {
                let cores: Vec<u32> = (0..m.cores_per_replica)
                    .map(|i| (next_core + i) % arch.chip().core_count)
                    .collect();
                next_core += m.cores_per_replica;
                let pixel_start = (replica * chunk).min(pixels);
                let pixel_end = ((replica + 1) * chunk).min(pixels);
                clusters.push(ClusterPlan { cores, pixel_start, pixel_end });
            }
            placements.push(GroupPlacement { group: *group_index, clusters });
        }
        stages.push(StagePlan {
            index,
            placements,
            estimated_cycles: cost.cycles,
            estimated_energy_pj: cost.energy_pj,
        });
    }
    CompilationPlan { strategy: strategy.name().to_owned(), stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_nn::models;

    #[test]
    fn all_strategies_compile_the_compact_models() {
        let arch = ArchConfig::paper_default();
        for strategy in Strategy::ALL {
            for model in [models::mobilenet_v2(32), models::resnet18(32)] {
                let compiled = compile(&model, &arch, strategy).unwrap();
                assert_eq!(compiled.per_core.len(), 64);
                assert!(compiled.report.total_instructions > 0);
                assert!(compiled.report.active_cores > 0);
                assert_eq!(compiled.plan.strategy, strategy.name());
                for program in &compiled.per_core {
                    assert!(program.is_halting());
                    program.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn dp_uses_more_duplication_than_generic_on_compact_models() {
        let arch = ArchConfig::paper_default();
        let model = models::mobilenet_v2(32);
        let generic = compile(&model, &arch, Strategy::GenericMapping).unwrap();
        let dp = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        assert!((generic.plan.mean_duplication() - 1.0).abs() < 1e-9);
        assert!(dp.plan.mean_duplication() > 1.0);
    }

    #[test]
    fn vgg_compiles_into_multiple_stages() {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&models::vgg19(32), &arch, Strategy::DpOptimized).unwrap();
        assert!(compiled.plan.stages.len() > 1);
    }

    #[test]
    fn pixel_ranges_partition_the_output() {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&models::resnet18(32), &arch, Strategy::DpOptimized).unwrap();
        for stage in &compiled.plan.stages {
            for placement in &stage.placements {
                let group = &compiled.condensed.groups()[placement.group];
                let covered: u32 = placement.clusters.iter().map(ClusterPlan::pixels).sum();
                assert_eq!(covered, group.metrics.out_pixels, "group {}", group.name);
            }
        }
    }

    #[test]
    fn single_chip_compilation_carries_the_trivial_system_plan() {
        let compiled =
            compile(&models::mobilenet_v2(32), &ArchConfig::paper_default(), Strategy::DpOptimized)
                .unwrap();
        assert_eq!(compiled.system.chip_count, 1);
        assert!(compiled.system.transfers.is_empty());
        assert_eq!(compiled.system.assignment.len(), compiled.condensed.len());
    }

    #[test]
    fn multichip_compilation_emits_programs_for_every_chip() {
        let arch = ArchConfig::paper_default().with_chip_count(2);
        for strategy in Strategy::ALL {
            let compiled = compile(&models::resnet18(32), &arch, strategy).unwrap();
            assert_eq!(compiled.per_core.len(), 128, "64 cores per chip x 2 chips");
            assert_eq!(compiled.system.chip_count, 2);
            assert!(!compiled.system.transfers.is_empty(), "the split cuts at least one edge");
            for program in &compiled.per_core {
                assert!(program.is_halting());
                program.validate().unwrap();
            }
            // The merged plan covers every condensed group exactly once,
            // in global group/core index spaces.
            let mut covered: Vec<usize> = compiled
                .plan
                .stages
                .iter()
                .flat_map(|s| s.placements.iter().map(|p| p.group))
                .collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..compiled.condensed.len()).collect::<Vec<_>>());
            // Chip 1's placements reference chip 1's core range.
            let chip1_groups = compiled.system.chip_groups(1);
            let (_, placement) = compiled.plan.placement_of(chip1_groups[0]).unwrap();
            assert!(placement.cores().iter().all(|c| (64..128).contains(c)));
        }
    }

    #[test]
    fn joint_search_compiles_valid_programs_and_records_the_search() {
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let model = models::resnet18(32);
        let sequential = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let joint = compile_with_options(
            &model,
            &arch,
            CompileOptions { strategy: Strategy::DpOptimized, search: SearchMode::Joint },
        )
        .unwrap();
        assert_eq!(joint.per_core.len(), 128);
        for program in &joint.per_core {
            assert!(program.is_halting());
            program.validate().unwrap();
        }
        // The search explored beyond the sequential seed and recorded it.
        assert!(joint.system.explored_candidates > 1);
        assert_eq!(joint.report.search_candidates, joint.system.explored_candidates as usize);
        assert_eq!(sequential.report.search_candidates, 1);
        assert_eq!(joint.system.chip_strategies.len(), 2);
        // Scored by the shared estimator, joint is never worse.
        assert!(joint.system.estimated_interval_cycles > 0);
        assert!(
            joint.system.estimated_interval_cycles <= sequential.system.estimated_interval_cycles
        );
        // The merged plan still covers every condensed group exactly once.
        let mut covered: Vec<usize> =
            joint.plan.stages.iter().flat_map(|s| s.placements.iter().map(|p| p.group)).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..joint.condensed.len()).collect::<Vec<_>>());
    }

    #[test]
    fn joint_search_surfaces_capacity_errors_like_sequential() {
        // An architecture no split can fit: both modes must report the
        // per-chip capacity error (the joint search must not panic).
        let arch = ArchConfig::paper_default().with_core_count(1).with_chip_count(2);
        let model = models::vgg19(224);
        for search in SearchMode::ALL {
            let result = compile_with_options(
                &model,
                &arch,
                CompileOptions { strategy: Strategy::DpOptimized, search },
            );
            assert!(
                matches!(result, Err(crate::CompileError::CapacityExceeded { .. })),
                "{search}: expected CapacityExceeded, got {result:?}"
            );
        }
    }

    #[test]
    fn sequential_search_is_the_default_and_reproduces_plain_compiles() {
        assert_eq!(CompileOptions::default().search, SearchMode::Sequential);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let model = models::vgg19(32);
        let a = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let b = compile_with_options(
            &model,
            &arch,
            CompileOptions { strategy: Strategy::DpOptimized, ..CompileOptions::default() },
        )
        .unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.system, b.system);
        assert_eq!(a.per_core.len(), b.per_core.len());
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.instructions(), y.instructions());
        }
    }

    #[test]
    fn strategy_display_names_are_stable() {
        assert_eq!(Strategy::GenericMapping.to_string(), "generic");
        assert_eq!(Strategy::OperatorDuplication.to_string(), "duplication");
        assert_eq!(Strategy::DpOptimized.to_string(), "dp");
        assert_eq!(CompileOptions::default().strategy, Strategy::DpOptimized);
    }

    #[test]
    fn strategy_serde_round_trip_accepts_both_spellings() {
        for strategy in Strategy::ALL {
            let text = serde_json::to_string(&strategy).unwrap();
            let back: Strategy = serde_json::from_str(&text).unwrap();
            assert_eq!(back, strategy);
        }
        assert_eq!(
            serde_json::from_str::<Strategy>("\"DpOptimized\"").unwrap(),
            Strategy::DpOptimized
        );
        assert!(serde_json::from_str::<Strategy>("\"warp\"").is_err());
    }
}
