//! The simulator's entry points and its functional front end.
//!
//! A [`Simulator`] run has two halves. The front end here executes each
//! core's program for its functional effects — decode, the register
//! file, branches, and the energy that does not depend on timing — and
//! hands the timing back end (`replay.rs`) that core's next [`TraceOp`]
//! only when the back end asks for it. It has no clocks, no mesh and no
//! scheduler, and it never holds more than one op per core: the streams
//! are consumed as they are decoded, not lowered whole first.
//! [`Simulator::record`] runs the same pair and also keeps the ops it
//! hands out, as a [`SimTrace`] for the [`ReplayEngine`](crate::ReplayEngine).

use cimflow_arch::{AddressMap, ArchConfig};
use cimflow_compiler::CompiledProgram;
use cimflow_energy::EnergyModel;
use cimflow_isa::{Instruction, OpcodeClass, Program};
use cimflow_obs::{new_track, AttrValue, Tracer};

use crate::core::CoreState;
use crate::replay::{walk_one, OpSource};
use crate::report::SimReport;
use crate::trace::{CoreInvariants, Layout, RunTotals, SimTrace, TraceOp, TracePasses};
use crate::SimError;

/// How cut activations hand off between chips of a multi-chip system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HandoffMode {
    /// The historical conservative model: a chip ships every cut
    /// activation only when all of its cores have retired, and a consumer
    /// chip starts once every input has fully landed in its global
    /// memory.
    AtRetirement,
    /// Tile-granular streaming (the default): cut activations stream in
    /// tiles across the producing stage's execution window, and a
    /// consumer chip starts once the first tile of every input has
    /// landed — chips overlap *within* one inference, not just across
    /// consecutive inferences.
    #[default]
    TileStreaming,
}

/// Optional knobs of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// The inter-chip hand-off model.
    pub handoff: HandoffMode,
    /// Record cycle-domain timeline events (per-chip busy spans, stage
    /// windows, fabric transfers, memory-port occupancy) into the tracer
    /// attached via [`Simulator::set_tracer`]. Off by default; with no
    /// tracer attached the flag is inert, so the untraced hot path pays
    /// nothing.
    pub profile: bool,
}

/// The cycle-domain profiling sink of one simulation: a tracer plus the
/// pre-allocated tracks its timelines render on (one per chip, one for
/// the inter-chip fabric). All timestamps are simulated cycles, not wall
/// time — export a profiled run into its own trace file rather than
/// mixing it with wall-clock spans. The back end calls its event methods
/// as the walk produces them.
#[derive(Debug)]
pub(crate) struct SimProfile {
    tracer: Tracer,
    /// Track of each chip's timeline (`chip-N`).
    chip_tracks: Vec<u64>,
    /// Track of the inter-chip fabric timeline.
    fabric_track: u64,
}

impl SimProfile {
    fn new(tracer: Tracer, chips: usize) -> Self {
        let chip_tracks: Vec<u64> = (0..chips).map(|_| new_track()).collect();
        for (chip, track) in chip_tracks.iter().enumerate() {
            tracer.set_track_name(*track, &format!("chip-{chip}"));
        }
        let fabric_track = new_track();
        tracer.set_track_name(fabric_track, "fabric");
        SimProfile { tracer, chip_tracks, fabric_track }
    }

    /// One fabric transfer (or streamed tile): departure → landed.
    pub(crate) fn fabric_transfer(&self, from: u32, to: u32, bytes: u64, depart: u64, landed: u64) {
        self.tracer.complete(
            "transfer",
            "sim.fabric",
            self.fabric_track,
            depart,
            landed.saturating_sub(depart),
            vec![
                ("from_chip".to_owned(), AttrValue::from(u64::from(from))),
                ("to_chip".to_owned(), AttrValue::from(u64::from(to))),
                ("bytes".to_owned(), AttrValue::from(bytes)),
            ],
        );
    }

    /// The memory-port window an incoming tile occupied on `chip`.
    pub(crate) fn port_landing(&self, chip: usize, port_start: u64, landed: u64, bytes: u64) {
        self.tracer.complete(
            "input-land",
            "sim.mem_port",
            self.chip_tracks[chip],
            port_start,
            landed.saturating_sub(port_start),
            vec![("bytes".to_owned(), AttrValue::from(bytes))],
        );
    }

    /// A global-memory request on `chip` that arrived at the port at
    /// `arrival`, waited behind another occupant until `port_start` and
    /// completed at `completion`.
    pub(crate) fn port_contention(
        &self,
        chip: usize,
        arrival: u64,
        port_start: u64,
        completion: u64,
        bytes: u64,
    ) {
        self.tracer.complete(
            "port-contention",
            "sim.mem_port",
            self.chip_tracks[chip],
            arrival,
            completion - arrival,
            vec![
                ("bytes".to_owned(), AttrValue::from(bytes)),
                ("waited".to_owned(), AttrValue::from(port_start - arrival)),
            ],
        );
    }

    /// The execution window of local stage `ordinal` on `chip`.
    pub(crate) fn stage(&self, chip: usize, ordinal: usize, start: u64, end: u64, cores: usize) {
        self.tracer.complete(
            &format!("stage-{ordinal}"),
            "sim.stage",
            self.chip_tracks[chip],
            start,
            end - start,
            vec![("cores".to_owned(), AttrValue::from(cores))],
        );
    }

    /// One chip's busy span, from the report's own numbers.
    pub(crate) fn chip_busy(&self, chip: usize, start: u64, cycles: u64) {
        self.tracer.complete(
            "chip-busy",
            "sim.chip",
            self.chip_tracks[chip],
            start,
            cycles,
            vec![("chip".to_owned(), AttrValue::from(chip))],
        );
    }
}

/// The CIMFlow cycle-level simulator.
///
/// One chip is the paper's platform: every core runs its program against
/// the chip's mesh, global-memory port and barrier group. A multi-chip
/// system replicates that per chip and executes the compiler's
/// [`SystemPlan`](cimflow_compiler::SystemPlan) on top: a chip starts
/// once every inter-chip activation feeding it has landed in its global
/// memory, and a finished chip ships its cut activations over the
/// inter-chip fabric, so one inference flows through the chips as a
/// pipeline.
///
/// See the crate-level documentation for the modelled behaviour and the
/// crate example for typical usage.
#[derive(Debug)]
pub struct Simulator<'a> {
    compiled: &'a CompiledProgram,
    options: SimOptions,
    /// Cycle-domain timeline sink; `Some` only when
    /// [`SimOptions::profile`] is set *and* a tracer was attached.
    profile: Option<SimProfile>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulation of a compiled program with the default
    /// options (tile-streaming inter-chip hand-off).
    pub fn new(compiled: &'a CompiledProgram) -> Self {
        Self::with_options(compiled, SimOptions::default())
    }

    /// Prepares a simulation with explicit [`SimOptions`].
    pub fn with_options(compiled: &'a CompiledProgram, options: SimOptions) -> Self {
        Simulator { compiled, options, profile: None }
    }

    /// Attaches a tracer for the cycle-domain timeline events enabled by
    /// [`SimOptions::profile`] (without the flag the tracer is ignored).
    /// Timestamps are simulated cycles: per-chip busy spans (`sim.chip`,
    /// one per chip, summing to [`SimReport::chip_cycles`]), per-stage
    /// execution windows (`sim.stage`), fabric transfers (`sim.fabric`)
    /// and memory-port occupancy (`sim.mem_port`).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        if self.options.profile {
            let chips = self.compiled.system.chip_count.max(1) as usize;
            self.profile = Some(SimProfile::new(tracer.clone(), chips));
        }
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no core can make progress,
    /// [`SimError::InvalidCore`] for out-of-range core references and
    /// [`SimError::CycleLimitExceeded`] when the instruction budget is
    /// exhausted.
    pub fn run(self) -> Result<SimReport, SimError> {
        let layout = Layout::of(self.compiled);
        let mut front = FrontEnd::new(self.compiled, &layout, false);
        let arch = &self.compiled.arch;
        let profile = self.profile.as_ref();
        let walked = walk_one(&layout, &mut front, arch, self.options.handoff, profile)?;
        Ok(walked.finish(&layout, &front.totals(), arch, profile))
    }

    /// Runs the simulation to completion *while recording a trace*,
    /// returning the [`SimTrace`] alongside the ordinary report. The
    /// report is identical to what [`Simulator::run`] would produce under
    /// the default options — recording only keeps the ops the front end
    /// hands out — and the trace replays to that same report through a
    /// [`ReplayEngine`](crate::ReplayEngine) for any design point whose
    /// [`compile_fingerprint`](ArchConfig::compile_fingerprint) matches.
    /// The trace itself is option-independent: op streams never depend
    /// on the hand-off mode.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Simulator::run`].
    pub fn record(compiled: &CompiledProgram) -> Result<(SimTrace, SimReport), SimError> {
        let layout = Layout::of(compiled);
        let mut front = FrontEnd::new(compiled, &layout, true);
        let arch = &compiled.arch;
        let walked = walk_one(&layout, &mut front, arch, SimOptions::default().handoff, None)?;
        let totals = front.totals();
        let report = walked.finish(&layout, &totals, arch, None);
        let trace = SimTrace {
            arch: *arch,
            fingerprint: arch.compile_fingerprint(),
            layout,
            ops: front.kept.unwrap_or_default(),
            totals,
            passes: TracePasses { fused_instructions: front.fused },
        };
        Ok((trace, report))
    }
}

/// Marks an unassigned slot of the front end's channel table.
const NO_CHANNEL: u32 = u32::MAX;

/// The live op source: every core's program executed for its functional
/// effects, one op ahead of the back end at most.
struct FrontEnd<'a> {
    programs: &'a [Program],
    arch: ArchConfig,
    cores: Vec<CoreState>,
    cores_per_chip: usize,
    macro_groups: usize,
    energy: EnergyModel,
    address_map: AddressMap,
    /// Dense channel id of every (global sender, chip-local receiver)
    /// pair, assigned the first time either end decodes.
    channel_ids: Vec<u32>,
    /// The id the next new channel gets.
    next_channel: u32,
    /// Dynamic instructions per [`OpcodeClass`] discriminant.
    dynamic: [u64; OpcodeClass::ALL.len()],
    cim_ops: u64,
    vector_ops: u64,
    executed: u64,
    /// Instructions handed out inside `Advance` runs.
    fused: u64,
    total_macs: u64,
    /// Every op handed out, per core, when recording.
    kept: Option<Vec<Vec<TraceOp>>>,
}

impl<'a> FrontEnd<'a> {
    fn new(compiled: &'a CompiledProgram, layout: &Layout, keep: bool) -> Self {
        let arch = compiled.arch;
        let (cores, cores_per_chip) = (layout.cores(), layout.cores_per_chip);
        FrontEnd {
            programs: &compiled.per_core,
            arch,
            cores: (0..cores).map(|g| CoreState::new((g % cores_per_chip) as u32)).collect(),
            cores_per_chip,
            macro_groups: layout.macro_groups,
            energy: EnergyModel::calibrated_28nm(),
            address_map: arch.address_map(),
            channel_ids: vec![NO_CHANNEL; cores * cores_per_chip],
            next_channel: 0,
            dynamic: [0; OpcodeClass::ALL.len()],
            cim_ops: 0,
            vector_ops: 0,
            executed: 0,
            fused: 0,
            total_macs: compiled.condensed.groups().iter().map(|g| g.metrics.macs).sum(),
            kept: keep.then(|| vec![Vec::new(); cores]),
        }
    }

    /// Executes core `index`'s program up to and including its next op:
    /// register effects, timing-invariant energy and busy sums, counts.
    /// Single-cycle instructions (scalars, nops, not-taken branches) fuse
    /// into one `Advance`, which a taken branch ends; any other
    /// instruction ends a pending run *before* it and is executed on the
    /// next call. An out-of-range peer core is returned as `Err(core)`.
    fn next_op(&mut self, index: usize) -> Result<TraceOp, u32> {
        /// What one instruction contributes to the op being built.
        enum Decoded {
            Fused,
            Taken(i32),
            Op(TraceOp),
        }
        let program = self.programs[index].instructions();
        let unit = self.arch.core.cim_unit;
        let model = &self.energy;
        let cores_per_chip = self.cores_per_chip;
        let groups = self.macro_groups;
        // Resolves a macro-group operand (the modulo is only ever needed
        // for out-of-range operands).
        let macro_group = |mg: u8| {
            if usize::from(mg) < groups {
                u32::from(mg)
            } else {
                (mg as usize % groups) as u32
            }
        };
        let mut channel_of = |sender: usize, receiver: u32| {
            let slot = &mut self.channel_ids[sender * cores_per_chip + receiver as usize];
            if *slot == NO_CHANNEL {
                *slot = self.next_channel;
                self.next_channel += 1;
            }
            *slot
        };
        let core = &mut self.cores[index];
        let mut insts = 0u32;
        loop {
            let Some(&inst) = program.get(core.pc) else {
                // Running past the end halts without counting as an
                // instruction.
                self.fused += u64::from(insts);
                return Ok(match insts {
                    0 => TraceOp::Halt { counted: false },
                    insts => TraceOp::Advance { insts, penalty: false },
                });
            };
            let own_op = matches!(
                inst,
                Instruction::CimMvm { .. }
                    | Instruction::CimLoad { .. }
                    | Instruction::CimStoreAcc { .. }
                    | Instruction::VecOp { .. }
                    | Instruction::VecQuant { .. }
                    | Instruction::VecMac { .. }
                    | Instruction::VecPool { .. }
                    | Instruction::MemCpy { .. }
                    | Instruction::Send { .. }
                    | Instruction::Recv { .. }
                    | Instruction::Barrier { .. }
                    | Instruction::Halt
            );
            if own_op && insts > 0 {
                self.fused += u64::from(insts);
                return Ok(TraceOp::Advance { insts, penalty: false });
            }
            let decoded = match inst {
                Instruction::Nop => Decoded::Fused,
                Instruction::Jmp { offset } => Decoded::Taken(offset),
                Instruction::Beq { a, b, offset } if core.read(a) == core.read(b) => {
                    Decoded::Taken(offset)
                }
                Instruction::Bne { a, b, offset } if core.read(a) != core.read(b) => {
                    Decoded::Taken(offset)
                }
                Instruction::Beq { .. } | Instruction::Bne { .. } => Decoded::Fused,
                Instruction::CimMvm { rows, mg, .. } => {
                    let rows =
                        core.read_unsigned(rows).clamp(1, u64::from(unit.rows_per_operation()))
                            as u32;
                    let issue = unit.mvm_issue_cycles(rows);
                    core.mg_busy_cycles += issue;
                    core.energy.compute_pj +=
                        model.cim.compute_pj(unit.macs_per_group_operation(rows));
                    core.energy.local_memory_pj += model.sram.local_read_pj(u64::from(rows));
                    self.cim_ops += 1;
                    let latency = unit.mvm_latency_cycles(rows);
                    Decoded::Op(TraceOp::CimMvm { mg: macro_group(mg), issue, latency })
                }
                Instruction::CimLoad { rows, mg, .. } => {
                    let rows =
                        core.read_unsigned(rows).clamp(1, u64::from(unit.rows_per_operation()))
                            as u32;
                    let cycles = unit.weight_load_cycles(rows);
                    core.mg_busy_cycles += cycles;
                    let bytes = u64::from(rows) * u64::from(unit.output_channels_per_group());
                    core.energy.compute_pj += model.cim.weight_load_pj(bytes);
                    core.energy.local_memory_pj += model.sram.local_read_pj(bytes);
                    Decoded::Op(TraceOp::CimLoad { mg: macro_group(mg), cycles })
                }
                Instruction::CimStoreAcc { len, mg, .. } => {
                    let lanes = core.read_unsigned(len).max(1);
                    core.energy.local_memory_pj += model.sram.local_write_pj(lanes * 4);
                    Decoded::Op(TraceOp::CimStoreAcc { mg: macro_group(mg) })
                }
                Instruction::VecOp { len, .. }
                | Instruction::VecQuant { len, .. }
                | Instruction::VecMac { len, .. } => {
                    let elems = core.read_unsigned(len).max(1);
                    let cycles = self.arch.core.vector_unit.cycles_for(elems);
                    core.vector_busy_cycles += cycles;
                    core.energy.compute_pj += model.digital.vector_pj_per_elem * elems as f64;
                    core.energy.local_memory_pj +=
                        model.sram.local_read_pj(elems) + model.sram.local_write_pj(elems);
                    self.vector_ops += elems;
                    Decoded::Op(TraceOp::Vector { cycles })
                }
                Instruction::VecPool { len, window, .. } => {
                    let elems = core.read_unsigned(len).max(1) * core.read_unsigned(window).max(1);
                    let cycles = self.arch.core.vector_unit.cycles_for(elems);
                    core.vector_busy_cycles += cycles;
                    core.energy.compute_pj += model.digital.vector_pj_per_elem * elems as f64;
                    core.energy.local_memory_pj += model.sram.local_read_pj(elems);
                    self.vector_ops += elems;
                    Decoded::Op(TraceOp::Vector { cycles })
                }
                Instruction::MemCpy { src, dst, len, offset } => {
                    let bytes = core.read_unsigned(len).max(1);
                    let src_addr = (core.read(src) + i64::from(offset)).max(0) as u64;
                    let from_memory = self.address_map.is_global(src_addr);
                    Decoded::Op(
                        if from_memory || self.address_map.is_global(core.read_unsigned(dst)) {
                            core.energy.global_memory_pj += model.sram.global_pj(bytes);
                            core.energy.local_memory_pj += model.sram.local_write_pj(bytes);
                            let port_cycles = self.arch.chip().global_memory.transfer_cycles(bytes);
                            TraceOp::GlobalCpy { bytes, from_memory, port_cycles }
                        } else {
                            core.energy.local_memory_pj +=
                                model.sram.local_read_pj(bytes) + model.sram.local_write_pj(bytes);
                            let cycles = self.arch.core.local_memory.transfer_cycles(bytes);
                            TraceOp::LocalCpy { cycles }
                        },
                    )
                }
                Instruction::Send { len, dst_core, .. } => {
                    let bytes = core.read_unsigned(len).max(1);
                    let dst = core.read_unsigned(dst_core) as u32;
                    if dst >= cores_per_chip as u32 {
                        return Err(dst);
                    }
                    core.energy.local_memory_pj += model.sram.local_read_pj(bytes);
                    Decoded::Op(TraceOp::Send { dst, bytes, channel: channel_of(index, dst) })
                }
                Instruction::Recv { src_core, .. } => {
                    let src = core.read_unsigned(src_core) as u32;
                    if src >= cores_per_chip as u32 {
                        return Err(src);
                    }
                    // The local write is charged when the message arrives.
                    let sender = index - index % cores_per_chip + src as usize;
                    let channel = channel_of(sender, (index % cores_per_chip) as u32);
                    Decoded::Op(TraceOp::Recv { src, channel })
                }
                Instruction::Barrier { id } => Decoded::Op(TraceOp::Barrier { id }),
                // The back end never asks a halted core for another op.
                Instruction::Halt => Decoded::Op(TraceOp::Halt { counted: true }),
                _ => {
                    // Scalar instructions: functional register update.
                    core.execute_scalar(&inst);
                    core.energy.control_pj += model.digital.scalar_pj_per_op;
                    Decoded::Fused
                }
            };
            core.energy.control_pj += model.digital.issue_pj_per_inst;
            self.executed += 1;
            self.dynamic[inst.class() as usize] += 1;
            match decoded {
                Decoded::Fused => {
                    insts += 1;
                    core.pc += 1;
                }
                Decoded::Taken(offset) => {
                    insts += 1;
                    self.fused += u64::from(insts);
                    core.pc = (core.pc as i64 + 1 + i64::from(offset)).max(0) as usize;
                    return Ok(TraceOp::Advance { insts, penalty: true });
                }
                Decoded::Op(op) => {
                    core.pc += 1;
                    return Ok(op);
                }
            }
        }
    }

    /// The run's timing-invariant totals (complete once the walk is).
    fn totals(&self) -> RunTotals {
        RunTotals {
            dynamic_instructions: OpcodeClass::ALL
                .into_iter()
                .filter(|class| self.dynamic[*class as usize] > 0)
                .map(|class| (class.to_string(), self.dynamic[class as usize]))
                .collect(),
            cim_ops: self.cim_ops,
            vector_ops: self.vector_ops,
            total_macs: self.total_macs,
            executed: self.executed,
            cores: self
                .cores
                .iter()
                .map(|core| CoreInvariants {
                    mg_busy_cycles: core.mg_busy_cycles,
                    vector_busy_cycles: core.vector_busy_cycles,
                    compute_pj: core.energy.compute_pj,
                    local_memory_pj: core.energy.local_memory_pj,
                    global_memory_pj: core.energy.global_memory_pj,
                    control_pj: core.energy.control_pj,
                })
                .collect(),
        }
    }
}

impl OpSource for FrontEnd<'_> {
    #[inline]
    fn op(&mut self, core: usize, pos: usize) -> Result<TraceOp, u32> {
        let state = &self.cores[core];
        if pos < state.handed {
            // Asked again: a blocked `Recv` or a split `Advance`.
            return state.current;
        }
        debug_assert_eq!(pos, state.handed, "ops are asked for in stream order");
        let op = self.next_op(core);
        if let (Ok(op), Some(kept)) = (op, &mut self.kept) {
            kept[core].push(op);
        }
        let state = &mut self.cores[core];
        state.handed += 1;
        state.current = op;
        op
    }

    fn received(&mut self, core: usize, bytes: u64) {
        self.cores[core].energy.local_memory_pj += self.energy.sram.local_write_pj(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_compiler::{compile, Strategy};
    use cimflow_nn::models;

    fn simulate(model: cimflow_nn::Model, strategy: Strategy) -> SimReport {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&model, &arch, strategy).unwrap();
        Simulator::new(&compiled).run().unwrap()
    }

    #[test]
    fn mobilenet_simulation_completes_with_sane_metrics() {
        let report = simulate(models::mobilenet_v2(32), Strategy::DpOptimized);
        assert!(report.total_cycles > 0);
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.energy.compute_pj > 0.0);
        assert!(report.energy.local_memory_pj > 0.0);
        assert!(report.energy.noc_pj > 0.0);
        assert_eq!(report.energy.interchip_pj, 0.0, "one chip never crosses the fabric");
        assert!(report.throughput_tops() > 0.0);
        assert!(report.mean_utilization() > 0.0 && report.mean_utilization() <= 1.0);
        assert!(report.total_dynamic_instructions() > 0);
        assert!(report.cim_activity.operations > 0);
        assert_eq!(report.chip_count, 1);
        assert_eq!(report.chip_cycles, vec![report.total_cycles]);
        assert_eq!(report.pipeline_interval_cycles(), report.total_cycles);
    }

    #[test]
    fn dp_strategy_is_faster_than_generic_on_compact_models() {
        let generic = simulate(models::mobilenet_v2(32), Strategy::GenericMapping);
        let dp = simulate(models::mobilenet_v2(32), Strategy::DpOptimized);
        assert!(
            dp.total_cycles < generic.total_cycles,
            "dp {} !< generic {}",
            dp.total_cycles,
            generic.total_cycles
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = simulate(models::resnet18(32), Strategy::DpOptimized);
        let b = simulate(models::resnet18(32), Strategy::DpOptimized);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.noc, b.noc);
        assert!((a.energy.total_pj() - b.energy.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn larger_macro_groups_do_not_hurt_resnet_throughput() {
        let arch_small = ArchConfig::paper_default().with_macros_per_group(4);
        let arch_large = ArchConfig::paper_default().with_macros_per_group(16);
        let model = models::resnet18(32);
        let small =
            Simulator::new(&compile(&model, &arch_small, Strategy::GenericMapping).unwrap())
                .run()
                .unwrap();
        let large =
            Simulator::new(&compile(&model, &arch_large, Strategy::GenericMapping).unwrap())
                .run()
                .unwrap();
        assert!(large.throughput_tops() >= small.throughput_tops() * 0.9);
    }

    #[test]
    fn multichip_simulation_pipelines_across_chips() {
        let model = models::resnet18(32);
        let single = simulate(model.clone(), Strategy::DpOptimized);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let report = Simulator::new(&compiled).run().unwrap();

        assert_eq!(report.chip_count, 2);
        assert_eq!(report.chip_cycles.len(), 2);
        assert_eq!(report.core_utilization.len(), 128);
        // The inter-chip fabric carried every cut activation byte; with
        // tile streaming one transfer may cross as several packets.
        assert!(report.interchip.packets >= compiled.system.transfers.len() as u64);
        assert_eq!(report.interchip.bytes, compiled.system.cut_bytes());
        assert!(report.energy.interchip_pj > 0.0);
        // Per-inference latency covers both chips' spans; the pipeline
        // bottleneck (one chip's span) is well below the single-chip run.
        assert!(report.total_cycles >= report.chip_cycles.iter().copied().max().unwrap());
        assert!(report.pipeline_interval_cycles() < single.total_cycles);
        // Work actually executed on both chips.
        assert!(report.chip_cycles.iter().all(|c| *c > 0));
    }

    #[test]
    fn tile_streaming_overlaps_chips_within_one_inference() {
        // VGG19's chain split cuts activations large enough to stream as
        // several tiles, so consumer chips start while producers run.
        let model = models::vgg19(32);
        let arch = ArchConfig::paper_default().with_chip_count(4);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let retire = Simulator::with_options(
            &compiled,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        let stream = Simulator::new(&compiled).run().unwrap();

        assert_eq!(retire.total_overlap_cycles(), 0, "at-retirement never overlaps");
        assert!(stream.total_overlap_cycles() > 0, "streaming overlaps chips");
        assert!(
            stream.total_cycles < retire.total_cycles,
            "overlap shortens the per-inference latency ({} !< {})",
            stream.total_cycles,
            retire.total_cycles
        );
        assert!(
            stream.pipeline_interval_cycles() <= retire.pipeline_interval_cycles(),
            "input-landing stalls are excluded from the steady-state interval"
        );
        // Same work either way: identical dynamic instruction streams and
        // cut traffic, just re-timed.
        assert_eq!(stream.total_dynamic_instructions(), retire.total_dynamic_instructions());
        assert_eq!(stream.interchip.bytes, retire.interchip.bytes);
        assert!(stream.interchip.packets > retire.interchip.packets, "tiles are packets");
    }

    #[test]
    fn single_chip_runs_are_identical_across_handoff_modes() {
        let model = models::mobilenet_v2(32);
        let arch = ArchConfig::paper_default();
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let stream = Simulator::new(&compiled).run().unwrap();
        let retire = Simulator::with_options(
            &compiled,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!(stream.total_cycles, retire.total_cycles);
        assert_eq!(stream.noc, retire.noc);
        assert!((stream.energy.total_pj() - retire.energy.total_pj()).abs() < 1e-9);
        assert_eq!(stream.chip_stall_cycles, vec![0]);
        assert_eq!(stream.chip_overlap_cycles, vec![0]);
    }

    #[test]
    fn profiled_chip_busy_spans_sum_to_the_reported_chip_cycles() {
        let model = models::vgg19(32);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();

        let tracer = Tracer::new(1 << 16);
        let mut sim = Simulator::with_options(
            &compiled,
            SimOptions { profile: true, ..SimOptions::default() },
        );
        sim.set_tracer(&tracer);
        let report = sim.run().unwrap();

        // The acceptance contract: the trace's per-chip busy spans are
        // the report's chip spans, so their durations sum exactly.
        let busy: Vec<_> =
            tracer.events().into_iter().filter(|e| e.category == "sim.chip").collect();
        assert_eq!(busy.len(), 2, "one busy span per chip");
        assert_eq!(
            busy.iter().map(|e| e.duration).sum::<u64>(),
            report.chip_cycles.iter().sum::<u64>()
        );
        for event in &busy {
            let chip = event
                .attrs
                .iter()
                .find_map(|(k, v)| match (k.as_str(), v) {
                    ("chip", AttrValue::U64(chip)) => Some(*chip as usize),
                    _ => None,
                })
                .expect("chip attr");
            assert_eq!(event.duration, report.chip_cycles[chip]);
        }

        // Stage windows and fabric transfers landed on their categories,
        // and every timeline stays within the simulated time range.
        let events = tracer.events();
        assert!(events.iter().any(|e| e.category == "sim.stage"));
        assert!(events.iter().any(|e| e.category == "sim.fabric"));
        for event in &events {
            assert!(event.start + event.duration <= report.total_cycles);
        }
        // The exported JSON names the chip timelines.
        let json = tracer.to_chrome_json();
        assert!(json.contains("chip-0") && json.contains("chip-1") && json.contains("fabric"));
    }

    #[test]
    fn profiling_is_inert_when_disabled_or_untraced() {
        let model = models::resnet18(32);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let baseline = Simulator::new(&compiled).run().unwrap();

        // profile=false with a tracer attached: no events, same timing.
        let silent = Tracer::new(1024);
        let mut sim = Simulator::new(&compiled);
        sim.set_tracer(&silent);
        let report = sim.run().unwrap();
        assert!(silent.is_empty(), "profile=false must not record");
        assert_eq!(report.total_cycles, baseline.total_cycles);

        // profile=true without a tracer: the flag alone changes nothing.
        let report = Simulator::with_options(
            &compiled,
            SimOptions { profile: true, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!(report.total_cycles, baseline.total_cycles);
        assert_eq!(report.chip_cycles, baseline.chip_cycles);
    }

    #[test]
    fn memory_port_placement_changes_contention_not_correctness() {
        let model = models::mobilenet_v2(32);
        let arch = ArchConfig::paper_default().with_memory_port(27);
        let compiled = compile(&model, &arch, Strategy::GenericMapping).unwrap();
        let moved = Simulator::new(&compiled).run().unwrap();
        let default = simulate(model, Strategy::GenericMapping);
        assert!(moved.total_cycles > 0);
        // Same work, same dynamic instruction stream, different timing.
        assert_eq!(moved.total_dynamic_instructions(), default.total_dynamic_instructions());
        assert_ne!(moved.noc, default.noc, "the port node shapes the traffic pattern");
    }
}
