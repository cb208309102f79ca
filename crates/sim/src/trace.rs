//! The simulation trace IR: the typed per-core op streams the functional
//! front end hands the timing back end, and [`SimTrace`], a recording of
//! those streams that a [`ReplayEngine`](crate::ReplayEngine) re-times
//! for many design points without re-running (or even re-compiling) the
//! program.
//!
//! # Why an op stream is re-timable at all
//!
//! A core's dynamic instruction stream is fully determined by its program
//! and its register file: no instruction ever writes a register from
//! *timing* (cycle counts) or from message *content*. Branch directions,
//! row/length operands, addresses and send/recv peers all come from
//! registers, so every simulation of the same
//! [`CompiledProgram`] produces byte-identical per-core op streams
//! regardless of mesh latencies, memory-port placement, clock frequency
//! or hand-off mode — only the *times* at which the ops happen differ. A
//! [`TraceOp`] is one step of that invariant stream with every
//! register-derived operand resolved (rows → issue/latency cycles,
//! lengths → byte counts, peers → dense channel ids), so the back end
//! needs neither a register file nor instruction decode.
//!
//! The timing back end (`replay.rs`) consumes these ops from one of two
//! sources. [`Simulator::run`](crate::Simulator::run) walks the live
//! front end (`engine.rs`), which decodes each core's next op only when
//! the back end asks for it; [`Simulator::record`](crate::Simulator::record)
//! walks it too and keeps what it hands out as a [`SimTrace`]; the
//! [`ReplayEngine`](crate::ReplayEngine) walks a recorded trace.
//!
//! Which [`ArchConfig`] fields may vary across the points replaying one
//! trace is exactly the contract of
//! [`ArchConfig::compile_fingerprint`]: two configurations replay the
//! same trace iff their fingerprints are equal.
//! [`ReplayEngine::replay`](crate::ReplayEngine::replay) enforces this
//! and refuses mismatching points instead of approximating.
//!
//! # What the front end sums vs what the back end computes
//!
//! Per-core energy that only depends on the op stream (compute, local
//! and global memory, control) is summed by the front end in program
//! order and a trace stores the final `f64` values, which replay reuses
//! bitwise. The one exception is a receive's local write, whose size
//! travels with the message: the back end reports each delivery to its
//! source, which charges it in program order. NoC energy depends on
//! routing distance (the memory-port node is timing-only), so the back
//! end accumulates it per point from its own mesh outcomes. Everything
//! genuinely timing-dependent — clocks, port queues, barrier releases,
//! inter-chip landings, mesh/fabric statistics — is the back end's.
//!
//! # Advance fusion
//!
//! The front end fuses runs of single-cycle instructions (scalar ALU ops,
//! nops, not-taken branches), optionally terminated by one taken branch,
//! into one splittable [`TraceOp::Advance`], so the address and loop
//! arithmetic between two timing ops costs the back end one step. Two
//! further passes were evaluated and rejected as **not
//! timing-neutral**: coalescing adjacent inter-chip tiles would change
//! the fabric's packet count and per-packet head latencies, and folding
//! back-to-back barriers would drop a synchronization point that costs
//! one cycle and a release re-alignment.

use std::collections::{BTreeMap, HashMap};

use cimflow_arch::ArchConfig;
use cimflow_compiler::CompiledProgram;

/// One timing-relevant operation of a core's op stream.
///
/// Operand values the front end read from registers arrive here
/// pre-resolved into cycle costs, byte counts or channel ids using the
/// compile-affecting (hence trace-invariant) architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A fused run of `insts` single-cycle instructions (scalars, nops,
    /// not-taken branches). With `penalty`, the final instruction is a
    /// taken branch or jump and costs the 2-cycle squash on top of its
    /// issue cycle. The run is splittable at instruction granularity so
    /// the back end can honor its scheduling-slice boundaries exactly:
    /// consuming `m < insts` instructions costs `m` cycles, and the
    /// penalty lands only with the last instruction.
    Advance {
        /// Number of fused instructions.
        insts: u32,
        /// Whether the final instruction pays the taken-branch penalty.
        penalty: bool,
    },
    /// A CIM matrix-vector multiply: occupies macro group `mg` for
    /// `issue` cycles with the accumulator ready after `latency`.
    CimMvm {
        /// Resolved (modulo group count) macro-group index.
        mg: u32,
        /// Issue occupancy in cycles.
        issue: u64,
        /// Result latency in cycles.
        latency: u64,
    },
    /// A CIM weight load occupying macro group `mg` for `cycles`.
    CimLoad {
        /// Resolved macro-group index.
        mg: u32,
        /// Load occupancy in cycles.
        cycles: u64,
    },
    /// Drains macro group `mg`'s accumulator (waits for `acc_ready`).
    CimStoreAcc {
        /// Resolved macro-group index.
        mg: u32,
    },
    /// A vector-unit operation occupying the unit for `cycles`.
    Vector {
        /// Unit occupancy in cycles.
        cycles: u64,
    },
    /// A local-to-local memory copy advancing the core by `cycles`.
    LocalCpy {
        /// Copy duration in cycles.
        cycles: u64,
    },
    /// A global-memory transaction over the mesh and the shared memory
    /// port.
    GlobalCpy {
        /// Transferred bytes (the mesh packet size).
        bytes: u64,
        /// Direction: `true` reads from global memory, `false` writes.
        from_memory: bool,
        /// Port occupancy in cycles (`global_memory.transfer_cycles`).
        port_cycles: u64,
    },
    /// A message send to chip-local core `dst` over the mesh.
    Send {
        /// Chip-local destination core.
        dst: u32,
        /// Message bytes (the mesh packet size, carried to the receiver).
        bytes: u64,
        /// Dense id of the (sender, receiver) channel.
        channel: u32,
    },
    /// A message receive: blocks until the channel holds a message, then
    /// copies it into local memory.
    Recv {
        /// Chip-local source core.
        src: u32,
        /// Dense id of the (sender, receiver) channel.
        channel: u32,
    },
    /// A barrier arrival.
    Barrier {
        /// Barrier identifier.
        id: u16,
    },
    /// End of the core's stream. `counted` distinguishes an explicit
    /// `Halt` instruction (which counts as an executed instruction and
    /// pays issue energy) from running past the end of the program
    /// (which does not); both are timing-identical.
    Halt {
        /// Whether the halt was a counted instruction.
        counted: bool,
    },
}

/// The timing-invariant final state of one core: unit busy totals and
/// the energy components whose accumulation never depends on timing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoreInvariants {
    /// Summed macro-group busy cycles (utilization numerator).
    pub mg_busy_cycles: u64,
    /// Vector-unit busy cycles.
    pub vector_busy_cycles: u64,
    /// Final compute energy in pJ.
    pub compute_pj: f64,
    /// Final local-memory energy in pJ.
    pub local_memory_pj: f64,
    /// Final global-memory energy in pJ.
    pub global_memory_pj: f64,
    /// Final control (issue + scalar) energy in pJ.
    pub control_pj: f64,
}

/// The timing-invariant totals of one run, read by the back end's report
/// assembly.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunTotals {
    /// Dynamic instructions per operation class name.
    pub dynamic_instructions: BTreeMap<String, u64>,
    /// Total CIM operations.
    pub cim_ops: u64,
    /// Total vector elements processed.
    pub vector_ops: u64,
    /// Workload MACs.
    pub total_macs: u64,
    /// Total counted dynamic instructions.
    pub executed: u64,
    /// Per-core invariant totals, chip-major.
    pub cores: Vec<CoreInvariants>,
}

/// One inter-chip cut transfer of the system plan, as the back end needs
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceTransfer {
    /// Producing chip.
    pub from_chip: u32,
    /// Consuming chip.
    pub to_chip: u32,
    /// Cut activation bytes.
    pub bytes: u64,
    /// Chip-local stage ordinal of the producer (streaming hand-off).
    pub stage: Option<usize>,
}

/// The shape of the simulated system the back end walks, shared by both
/// op sources.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Cores per chip.
    pub cores_per_chip: usize,
    /// Chips in the system.
    pub chip_count: usize,
    /// Macro groups per core (scoreboard sizing).
    pub macro_groups: usize,
    /// The system plan's inter-chip transfers.
    pub transfers: Vec<TraceTransfer>,
    /// Per producing chip: indices into `transfers`, ascending.
    pub chip_transfers: Vec<Vec<usize>>,
}

impl Layout {
    /// The layout of a compiled program.
    pub(crate) fn of(compiled: &CompiledProgram) -> Self {
        let arch = &compiled.arch;
        let chip_count = compiled.system.chip_count.max(1) as usize;
        // Chip-local stage ordinal of every placed group: the merged plan
        // lists each chip's stages contiguously, and the per-chip code
        // generator emitted barrier pair (2k, 2k + 1) around its local
        // stage k — that pairing is what lets the streaming hand-off tie
        // a cut activation to the execution window producing it.
        let mut group_stage: HashMap<usize, usize> = HashMap::new();
        let mut stages_seen = vec![0usize; chip_count];
        for stage in &compiled.plan.stages {
            let Some(first) = stage.placements.first() else { continue };
            let chip = compiled.system.assignment.get(first.group).copied().unwrap_or(0) as usize;
            let ordinal = stages_seen[chip.min(chip_count - 1)];
            stages_seen[chip.min(chip_count - 1)] += 1;
            for placement in &stage.placements {
                group_stage.insert(placement.group, ordinal);
            }
        }
        let transfers: Vec<TraceTransfer> = compiled
            .system
            .transfers
            .iter()
            .map(|t| TraceTransfer {
                from_chip: t.from_chip,
                to_chip: t.to_chip,
                bytes: t.bytes,
                stage: group_stage.get(&t.producer).copied(),
            })
            .collect();
        let mut chip_transfers: Vec<Vec<usize>> = vec![Vec::new(); chip_count];
        for (index, transfer) in transfers.iter().enumerate() {
            let from = transfer.from_chip as usize;
            if from < chip_count {
                chip_transfers[from].push(index);
            }
        }
        Layout {
            cores_per_chip: arch.chip().core_count as usize,
            chip_count,
            macro_groups: arch.core.cim_unit.macro_groups.max(1) as usize,
            transfers,
            chip_transfers,
        }
    }

    /// Total cores across all chips.
    pub(crate) fn cores(&self) -> usize {
        self.chip_count * self.cores_per_chip
    }
}

/// Statistics of the front end's stream shaping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracePasses {
    /// Dynamic instructions fused into [`TraceOp::Advance`] runs.
    pub fused_instructions: u64,
}

/// A recorded simulation trace: the flat, typed per-core op streams of
/// one `(model, strategy, search, chip_count)` compile plus the
/// timing-invariant totals of its run. Produced by
/// [`Simulator::record`](crate::Simulator::record); consumed by
/// [`ReplayEngine`](crate::ReplayEngine).
///
/// A trace is valid for any [`SimOptions`](crate::SimOptions): the op
/// streams do not depend on the hand-off mode (only the back end's
/// dispatch logic, which replay re-runs per point, does) and profiling
/// never affects timing.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// The recording configuration (all compile-affecting fields are
    /// shared with every replayable point by construction).
    pub(crate) arch: ArchConfig,
    /// `arch.compile_fingerprint()` — the share/compatibility key.
    pub(crate) fingerprint: u64,
    /// The simulated system's shape.
    pub(crate) layout: Layout,
    /// Per-core op streams, chip-major.
    pub(crate) ops: Vec<Vec<TraceOp>>,
    /// Timing-invariant report material.
    pub(crate) totals: RunTotals,
    /// Stream-shaping statistics.
    pub(crate) passes: TracePasses,
}

impl SimTrace {
    /// The compile fingerprint this trace was recorded under; a point
    /// replays iff its [`ArchConfig::compile_fingerprint`] matches.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of chips the trace spans.
    pub fn chip_count(&self) -> usize {
        self.layout.chip_count
    }

    /// Total trace ops across all cores (after fusion).
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Dynamic instructions the recording run executed — the decode work
    /// each replay pass avoids.
    pub fn instruction_count(&self) -> u64 {
        self.totals.executed
    }

    /// Statistics of the front end's stream shaping.
    pub fn passes(&self) -> TracePasses {
        self.passes
    }

    /// Whether `arch` can replay this trace: every compile-affecting
    /// field equal (fingerprint match). Timing-only fields are free to
    /// differ — that is the point.
    pub fn is_compatible(&self, arch: &ArchConfig) -> bool {
        arch.compile_fingerprint() == self.fingerprint
    }

    /// The configuration the trace was recorded under.
    pub fn recorded_arch(&self) -> &ArchConfig {
        &self.arch
    }
}
