//! The timing back end: the one scheduler and timing model of the
//! simulator, walking per-core [`TraceOp`] streams from either of two
//! sources.
//!
//! * The live functional front end (`engine.rs`) decodes each core's next
//!   op only when the walk asks for it. [`Simulator::run`](crate::Simulator::run)
//!   walks it for one design point; [`Simulator::record`](crate::Simulator::record)
//!   also keeps what it hands out, as a [`SimTrace`].
//! * A recorded [`SimTrace`]: the [`ReplayEngine`] re-times it for any
//!   number of timing-only design points.
//!
//! The walk is a conservative discrete-event schedule: the runnable core
//! with the smallest local clock runs a slice of up to 4096 instructions
//! (a fused [`TraceOp::Advance`] run splits at the slice boundary), a
//! `Recv` blocks until its channel holds a message, a chip's barrier
//! opens once every non-halted core of the chip waits at it, and chips
//! hand cut activations to each other at retirement or tile by tile
//! (see [`HandoffMode`]). Mesh contention, port queuing and channel
//! arrival order all depend on that interleaving, which is why there is
//! exactly one implementation of it.
//!
//! # Lockstep lanes
//!
//! Under an agreed core-pick sequence, *all* op-consumption control flow
//! is identical across timing-only points. Whether a `Recv` finds a
//! message, which cores wait at a barrier, when a chip retires or starts,
//! how a fused advance splits at a slice boundary — all of it depends
//! only on op positions, block states and channel queue *lengths*, never
//! on the lane-local clock values. The one genuinely timing-dependent
//! decision is the scheduler's smallest-clock core pick. The walk
//! therefore splits its state into a shared control block ([`ReplayCtl`])
//! and K per-lane timing blocks ([`ReplayLane`]), walks the op stream
//! **once**, and updates every lane per op — amortizing op decode,
//! scheduling and channel bookkeeping across the batch. Each step the
//! pick is computed per lane from lane-local clocks; when lanes disagree,
//! the minority lanes are **peeled off with a cloned control block and
//! continue through the identical code path on their own** — the batch
//! splits, it never approximates. A live source is always walked with one
//! lane, so it never peels. Two further exact reductions:
//!
//! * `frequency_mhz` never enters cycle-domain timing (it only scales the
//!   report's time/energy conversions), so points differing only in
//!   frequency share one lane and split at report assembly.
//! * Channels are flat vectors indexed by the dense ids the front end
//!   assigned, and the scheduler scans a live-core list that shrinks as
//!   cores halt, so the hot loop never hashes.
//!
//! Every lane's report must be `==` to a scalar replay of that point, and
//! every report to the committed golden corpus
//! (`tests/golden_reports.rs`); `tests/lockstep_replay.rs` is the
//! lockstep property suite.

use std::collections::{HashMap, VecDeque};

use cimflow_arch::{ArchConfig, InterChipTopology};
use cimflow_compiler::STREAM_TILE_BYTES;
use cimflow_energy::{EnergyBreakdown, EnergyModel};
use cimflow_noc::{InterChipConfig, InterChipFabric, Interconnect, Mesh, NocConfig, NocStats};

use crate::engine::{HandoffMode, SimOptions, SimProfile};
use crate::report::{SimReport, UnitActivity};
use crate::trace::{Layout, RunTotals, SimTrace, TraceOp};
use crate::SimError;

/// Lane width of one lockstep walk: how many *cycle-distinct* design
/// points share a single pass over the op stream. Tuned for the sweet
/// spot between decode amortization and peel cost — wider batches chunk
/// at this width.
pub const LOCKSTEP_LANES: usize = 8;

/// Maximum dynamically executed instructions before the walk aborts (a
/// defence against runaway generated code).
const INSTRUCTION_BUDGET: u64 = 2_000_000_000;
/// Number of instructions a core may execute before control returns to
/// the scheduler (keeps NoC contention interleaving reasonably accurate).
const SLICE: u64 = 4096;
/// Upper bound on the tiles one cut activation streams as, so a huge
/// transfer does not degenerate into millions of fabric packets.
const MAX_STREAM_TILES: u64 = 64;

/// Where the back end's ops come from.
///
/// The walk asks for op `pos` of core `core`'s stream only after it has
/// consumed op `pos - 1`, and may ask for the same op again (a blocked
/// `Recv`, or an `Advance` split across scheduling slices).
pub(crate) trait OpSource {
    /// Op `pos` of `core`'s stream. A stream that has ended reads as an
    /// uncounted halt.
    ///
    /// # Errors
    ///
    /// The id of the peer core when the op addresses one outside the
    /// chip (the walk fails with [`SimError::InvalidCore`]).
    fn op(&mut self, core: usize, pos: usize) -> Result<TraceOp, u32>;

    /// `core` has just received a message of `bytes` bytes (its
    /// [`TraceOp::Recv`] was consumed).
    fn received(&mut self, core: usize, bytes: u64);
}

/// A recorded trace is a source whose energy is already final.
impl OpSource for &SimTrace {
    #[inline]
    fn op(&mut self, core: usize, pos: usize) -> Result<TraceOp, u32> {
        Ok(self.ops[core].get(pos).copied().unwrap_or(TraceOp::Halt { counted: false }))
    }

    fn received(&mut self, _core: usize, _bytes: u64) {}
}

/// Counters of one [`ReplayEngine::replay_batch_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Lockstep walks performed (chunks that ran with ≥ 2 lanes).
    pub batches: u64,
    /// Cycle-distinct lanes re-timed through those walks.
    pub lanes: u64,
    /// Lanes peeled off to scalar continuation on a schedule divergence.
    pub fallback_lanes: u64,
}

/// Re-times a recorded [`SimTrace`] for timing-only design points.
///
/// Every replayed point must share the trace's
/// [`compile_fingerprint`](ArchConfig::compile_fingerprint); replay
/// refuses incompatible or invalid configurations with
/// [`SimError::TraceMismatch`] rather than approximating. Profiling
/// ([`SimOptions::profile`]) is ignored — attach a tracer to a plain
/// [`Simulator`](crate::Simulator) run for timelines.
///
/// # Example
///
/// ```no_run
/// # use cimflow_sim::{ReplayEngine, Simulator};
/// # use cimflow_arch::ArchConfig;
/// # fn demo(compiled: &cimflow_compiler::CompiledProgram) {
/// let (trace, baseline) = Simulator::record(compiled).unwrap();
/// let engine = ReplayEngine::new(&trace);
/// let slow = engine.replay(&compiled.arch.with_frequency_mhz(500), Default::default());
/// # }
/// ```
#[derive(Debug)]
pub struct ReplayEngine<'a> {
    trace: &'a SimTrace,
}

impl<'a> ReplayEngine<'a> {
    /// Creates a replay engine over one recorded trace.
    pub fn new(trace: &'a SimTrace) -> Self {
        ReplayEngine { trace }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &SimTrace {
        self.trace
    }

    /// Re-times the trace for one design point.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceMismatch`] when `arch` fails validation or its
    /// compile fingerprint differs from the trace's; the walk's own error
    /// conditions ([`SimError::Deadlock`], [`SimError::CycleLimitExceeded`])
    /// too, though a successfully recorded trace cannot reach them.
    pub fn replay(&self, arch: &ArchConfig, options: SimOptions) -> Result<SimReport, SimError> {
        self.replay_batch(&[(*arch, options)]).pop().expect("one point, one result")
    }

    /// Re-times the trace for a batch of design points, automatically
    /// choosing the lockstep walk for ≥ 2 compatible points (chunked at
    /// [`LOCKSTEP_LANES`] cycle-distinct lanes). Each point gets its own
    /// result so a single incompatible configuration does not poison the
    /// batch. Results are bit-exact against per-point [`Self::replay`].
    pub fn replay_batch(
        &self,
        points: &[(ArchConfig, SimOptions)],
    ) -> Vec<Result<SimReport, SimError>> {
        self.replay_batch_stats(points).0
    }

    /// [`Self::replay_batch`] returning the lockstep counters alongside
    /// the per-point results.
    pub fn replay_batch_stats(
        &self,
        points: &[(ArchConfig, SimOptions)],
    ) -> (Vec<Result<SimReport, SimError>>, LockstepStats) {
        let trace = self.trace;
        let mut stats = LockstepStats::default();
        let mut out: Vec<Option<Result<SimReport, SimError>>> =
            points.iter().map(|_| None).collect();
        // Group valid points into cycle-distinct lanes: frequency never
        // enters cycle-domain timing, so it is normalized away; the
        // hand-off mode steers shared control flow, so lanes only share a
        // walk with like-moded lanes.
        let recorded_mhz = trace.arch.chip().frequency_mhz;
        struct LaneGroup {
            arch: ArchConfig,
            handoff: HandoffMode,
            points: Vec<usize>,
        }
        let mut groups: Vec<LaneGroup> = Vec::new();
        for (i, (arch, options)) in points.iter().enumerate() {
            if let Err(e) = self.check_point(arch) {
                out[i] = Some(Err(e));
                continue;
            }
            let norm = arch.with_frequency_mhz(recorded_mhz);
            match groups.iter_mut().find(|g| g.handoff == options.handoff && g.arch == norm) {
                Some(group) => group.points.push(i),
                None => {
                    groups.push(LaneGroup { arch: norm, handoff: options.handoff, points: vec![i] })
                }
            }
        }
        // Chunk runs of like-moded lanes at the tuned width and walk each
        // chunk once (a single-lane chunk is exactly the scalar path —
        // same code, one lane).
        let mut start = 0;
        while start < groups.len() {
            let handoff = groups[start].handoff;
            let mut end = start + 1;
            while end < groups.len()
                && end - start < LOCKSTEP_LANES
                && groups[end].handoff == handoff
            {
                end += 1;
            }
            let runs: Vec<LaneRun> = groups[start..end]
                .iter()
                .map(|g| LaneRun {
                    lane: ReplayLane::new(&trace.layout, &g.arch),
                    points: g.points.clone(),
                })
                .collect();
            if runs.len() >= 2 {
                stats.batches += 1;
                stats.lanes += runs.len() as u64;
            }
            let mut source = trace;
            let mut walk = Walk::new(&trace.layout, &mut source, handoff, None);
            walk.run_group(&mut ReplayCtl::new(&trace.layout), runs);
            stats.fallback_lanes += walk.fallback_lanes;
            for (run, result) in walk.done {
                let walked =
                    result.map(|chip_dispatched| Walked { lane: run.lane, chip_dispatched });
                for &p in &run.points {
                    out[p] = Some(match &walked {
                        Ok(walked) => {
                            Ok(walked.finish(&trace.layout, &trace.totals, &points[p].0, None))
                        }
                        Err(err) => Err(err.clone()),
                    });
                }
            }
            start = end;
        }
        (out.into_iter().map(|slot| slot.expect("every point resolved")).collect(), stats)
    }

    /// Validation shared by every entry point: the arch must be valid and
    /// compile-identical to the recording.
    fn check_point(&self, arch: &ArchConfig) -> Result<(), SimError> {
        if let Err(error) = arch.validate() {
            return Err(SimError::TraceMismatch { detail: error.to_string() });
        }
        if !self.trace.is_compatible(arch) {
            return Err(SimError::TraceMismatch {
                detail: format!(
                    "compile fingerprint {:#018x} differs from the trace's {:#018x} \
                     (a compile-affecting field changed; recompile instead of replaying)",
                    arch.compile_fingerprint(),
                    self.trace.fingerprint
                ),
            });
        }
        Ok(())
    }
}

/// The final state of one walked lane: what its report is assembled
/// from, together with the run's timing-invariant [`RunTotals`].
pub(crate) struct Walked {
    lane: ReplayLane,
    /// Per chip: whether it retired through the hand-off pass.
    chip_dispatched: Vec<bool>,
}

/// Walks `source` for one design point with one lane — the timing half
/// of [`Simulator::run`](crate::Simulator::run). Profiling events go to
/// `profile` when one is attached.
pub(crate) fn walk_one<S: OpSource>(
    layout: &Layout,
    source: &mut S,
    arch: &ArchConfig,
    handoff: HandoffMode,
    profile: Option<&SimProfile>,
) -> Result<Walked, SimError> {
    let run = LaneRun { lane: ReplayLane::new(layout, arch), points: Vec::new() };
    let mut walk = Walk::new(layout, source, handoff, profile);
    walk.run_group(&mut ReplayCtl::new(layout), vec![run]);
    let (run, result) = walk.done.pop().expect("one lane, one outcome");
    Ok(Walked { lane: run.lane, chip_dispatched: result? })
}

impl Walked {
    /// Assembles the report of one point of this lane, substituting the
    /// run's invariants where timing cannot reach. Lanes deduplicate
    /// frequency, so this takes the point's own arch: it is where
    /// frequency-dependent terms (static energy, the cycle↔time
    /// conversion constants) split back out.
    pub(crate) fn finish(
        &self,
        layout: &Layout,
        totals: &RunTotals,
        arch: &ArchConfig,
        profile: Option<&SimProfile>,
    ) -> SimReport {
        let lane = &self.lane;
        let energy_model = EnergyModel::calibrated_28nm();
        // The per-inference latency covers the last core's retirement
        // and the last landing of any streamed activation (a consumer
        // cannot truly finish before its inputs exist).
        let total_cycles = lane
            .now
            .iter()
            .copied()
            .chain(lane.last_input_landed.iter().copied())
            .chain(lane.chip_finish_time.iter().copied())
            .max()
            .unwrap_or(0)
            .max(1);
        let mut energy = EnergyBreakdown::new();
        for (i, inv) in totals.cores.iter().enumerate() {
            let core_energy = EnergyBreakdown {
                compute_pj: inv.compute_pj,
                local_memory_pj: inv.local_memory_pj,
                noc_pj: lane.noc_pj[i],
                global_memory_pj: inv.global_memory_pj,
                control_pj: inv.control_pj,
                ..EnergyBreakdown::new()
            };
            energy.accumulate(&core_energy);
        }
        energy.accumulate(&lane.system_energy);
        energy.accumulate(&energy_model.static_energy(arch, total_cycles));

        let mg_per_core = arch.core.cim_unit.macro_groups.max(1) as f64;
        let core_utilization: Vec<f64> = totals
            .cores
            .iter()
            .map(|inv| (inv.mg_busy_cycles as f64 / mg_per_core / total_cycles as f64).min(1.0))
            .collect();
        let cim_busy: u64 = totals.cores.iter().map(|inv| inv.mg_busy_cycles).sum();
        let vector_busy: u64 = totals.cores.iter().map(|inv| inv.vector_busy_cycles).sum();

        // Per-chip busy spans: the bottleneck chip bounds the steady-state
        // pipeline throughput of a multi-chip system. On a single chip the
        // one span equals the total latency.
        let chip_finish: Vec<u64> = (0..layout.chip_count)
            .map(|chip| {
                if self.chip_dispatched[chip] {
                    lane.chip_finish_time[chip]
                } else {
                    (chip * layout.cores_per_chip..(chip + 1) * layout.cores_per_chip)
                        .map(|g| lane.now[g])
                        .max()
                        .unwrap_or(0)
                        .max(lane.last_input_landed[chip])
                }
            })
            .collect();
        let chip_cycles: Vec<u64> = chip_finish
            .iter()
            .zip(&lane.chip_start_time)
            .map(|(finish, start)| finish.saturating_sub(*start))
            .collect();
        // One busy span per chip, emitted from the report's own numbers:
        // the trace's `sim.chip` durations sum to `chip_cycles` exactly.
        if let Some(profile) = profile {
            for (chip, cycles) in chip_cycles.iter().enumerate() {
                profile.chip_busy(chip, lane.chip_start_time[chip], *cycles);
            }
        }
        // Input-stall accounting: the port time incoming tiles consumed
        // *inside* a chip's active span. In steady state those landings
        // overlap the previous inference, so the pipeline interval
        // excludes them; at-retirement hand-off lands everything before
        // the chip starts and accrues zero.
        let chip_stall_cycles: Vec<u64> = (0..layout.chip_count)
            .map(|chip| {
                let (start, finish) = (lane.chip_start_time[chip], chip_finish[chip]);
                lane.landing_windows[chip]
                    .iter()
                    .map(|(from, to)| to.min(&finish).saturating_sub(*from.max(&start)))
                    .sum()
            })
            .collect();
        // Intra-inference overlap: how long a chip ran while its cut
        // inputs were still streaming in (zero without tile streaming).
        let chip_overlap_cycles: Vec<u64> = (0..layout.chip_count)
            .map(|chip| {
                lane.last_input_landed[chip]
                    .min(chip_finish[chip])
                    .saturating_sub(lane.chip_start_time[chip])
            })
            .collect();

        let mut noc = NocStats::default();
        for mesh in &lane.meshes {
            noc.merge(mesh.stats());
        }

        let mut report = SimReport {
            total_cycles,
            energy,
            dynamic_instructions: totals.dynamic_instructions.clone(),
            cim_activity: UnitActivity { busy_cycles: cim_busy, operations: totals.cim_ops },
            vector_activity: UnitActivity {
                busy_cycles: vector_busy,
                operations: totals.vector_ops,
            },
            noc,
            interchip: lane.fabric.stats().clone(),
            core_utilization,
            chip_cycles,
            chip_stall_cycles,
            chip_overlap_cycles,
            total_macs: totals.total_macs,
            frequency_mhz: 0,
            chip_count: 0,
        };
        report.attach_arch(arch);
        report
    }
}

/// Why a core is currently unable to advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// The core is runnable.
    None,
    /// Waiting for a message on the given channel.
    Recv {
        /// Dense channel id.
        channel: u32,
    },
    /// Waiting at a barrier.
    Barrier {
        /// The barrier identifier.
        id: u16,
    },
    /// The stream has ended.
    Halted,
}

/// One lane with the indices of the batch points it answers (points
/// differing only in clock frequency share a lane).
struct LaneRun {
    lane: ReplayLane,
    points: Vec<usize>,
}

/// Outcome of one scheduler pick across all lanes.
enum Pick {
    /// Every lane picks the same core (or none is runnable — runnability
    /// is shared control state, so "no pick" is always unanimous).
    Agreed(Option<usize>),
    /// Lanes disagree; the per-lane picks, aligned with the runs.
    Diverged(Vec<usize>),
}

/// One walk of a group of lanes over one op source.
struct Walk<'w, S> {
    layout: &'w Layout,
    source: &'w mut S,
    handoff: HandoffMode,
    /// Timeline sink of a profiled single-lane walk.
    profile: Option<&'w SimProfile>,
    energy: EnergyModel,
    /// Lanes peeled off to their own walk on a schedule divergence.
    fallback_lanes: u64,
    /// Every lane's outcome: the chip retirement flags its report needs,
    /// or the error that ended its walk.
    done: Vec<(LaneRun, Result<Vec<bool>, SimError>)>,
}

impl<'w, S: OpSource> Walk<'w, S> {
    fn new(
        layout: &'w Layout,
        source: &'w mut S,
        handoff: HandoffMode,
        profile: Option<&'w SimProfile>,
    ) -> Self {
        Walk {
            layout,
            source,
            handoff,
            profile,
            energy: EnergyModel::calibrated_28nm(),
            fallback_lanes: 0,
            done: Vec::new(),
        }
    }

    /// The scheduling loop, for 1..=K lanes. Records one outcome per lane
    /// in `done`; lanes whose pick diverges recurse with a cloned control
    /// block (strictly fewer lanes per level, so the recursion is bounded
    /// by the chunk width).
    fn run_group(&mut self, ctl: &mut ReplayCtl, mut runs: Vec<LaneRun>) {
        let mut runnable: Vec<usize> = Vec::new();
        let outcome = loop {
            self.retire_finished_chips(ctl, &mut runs);
            // The live list holds every non-halted core, so an empty list
            // means every core has halted.
            if ctl.live.is_empty() {
                break Ok(());
            }
            match self.pick_core(ctl, &runs, &mut runnable) {
                Pick::Agreed(Some(core)) => {
                    if let Err(core) = self.run_slice(ctl, &mut runs, core) {
                        break Err(SimError::InvalidCore { core });
                    }
                }
                Pick::Agreed(None) => {
                    if self.release_barriers(ctl, &mut runs) {
                        continue;
                    }
                    break Err(Self::deadlock(ctl));
                }
                Pick::Diverged(picks) => {
                    runs = self.peel_divergent(ctl, runs, picks);
                    continue;
                }
            }
            if ctl.executed > INSTRUCTION_BUDGET {
                break Err(SimError::CycleLimitExceeded { limit: INSTRUCTION_BUDGET });
            }
        };
        let outcome = outcome.map(|()| ctl.chip_dispatched.clone());
        self.done.extend(runs.into_iter().map(|run| (run, outcome.clone())));
    }

    /// Splits the batch on a schedule divergence: lanes sharing the
    /// plurality pick continue the lockstep walk, every other lane
    /// continues mid-stream on a cloned control block — the exact state
    /// it would have reached walking alone, so the fallback never
    /// approximates.
    fn peel_divergent(
        &mut self,
        ctl: &ReplayCtl,
        runs: Vec<LaneRun>,
        picks: Vec<usize>,
    ) -> Vec<LaneRun> {
        // Plurality pick; ties resolve to the earliest lane's pick so the
        // split is deterministic.
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for &p in &picks {
            match counts.iter_mut().find(|(pick, _)| *pick == p) {
                Some((_, n)) => *n += 1,
                None => counts.push((p, 1)),
            }
        }
        let keep_pick =
            counts.iter().max_by_key(|(_, n)| *n).map(|(p, _)| *p).expect("non-empty picks");
        let mut kept = Vec::with_capacity(runs.len());
        let mut peeled: Vec<(usize, Vec<LaneRun>)> = Vec::new();
        for (run, pick) in runs.into_iter().zip(picks) {
            if pick == keep_pick {
                kept.push(run);
            } else {
                match peeled.iter_mut().find(|(p, _)| *p == pick) {
                    Some((_, group)) => group.push(run),
                    None => peeled.push((pick, vec![run])),
                }
            }
        }
        for (_, group) in peeled {
            self.fallback_lanes += group.len() as u64;
            self.run_group(&mut ctl.clone(), group);
        }
        kept
    }

    /// The smallest-local-time runnable pick. Runnability (block state,
    /// chip start, channel occupancy) is shared control state; only the
    /// arg-min over lane clocks can differ.
    fn pick_core(&self, ctl: &ReplayCtl, runs: &[LaneRun], runnable: &mut Vec<usize>) -> Pick {
        runnable.clear();
        // `live` is ascending, so the chip only changes at its boundaries.
        let cores_per_chip = self.layout.cores_per_chip;
        let (mut chip_end, mut started) = (0, false);
        for &i in &ctl.live {
            if i >= chip_end {
                let chip = i / cores_per_chip;
                started = ctl.chip_started[chip];
                chip_end = (chip + 1) * cores_per_chip;
            }
            if !started {
                continue;
            }
            let ok = match ctl.block[i] {
                BlockReason::None => true,
                BlockReason::Recv { channel } => ctl.channel_len[channel as usize] > 0,
                _ => false,
            };
            if ok {
                runnable.push(i);
            }
        }
        if runnable.is_empty() {
            return Pick::Agreed(None);
        }
        // Keep-the-earlier-core tie-break: a later core wins only with a
        // strictly smaller clock (`runnable` is ascending by construction
        // — the live list shrinks in order).
        let pick_for = |lane: &ReplayLane| {
            let mut best = runnable[0];
            for &i in &runnable[1..] {
                if lane.now[i] < lane.now[best] {
                    best = i;
                }
            }
            best
        };
        let first = pick_for(&runs[0].lane);
        let mut picks: Option<Vec<usize>> = None;
        for (k, run) in runs.iter().enumerate().skip(1) {
            let pick = pick_for(&run.lane);
            if pick != first && picks.is_none() {
                picks = Some(vec![first; k]);
            }
            if let Some(all) = &mut picks {
                all.push(pick);
            }
        }
        match picks {
            None => Pick::Agreed(Some(first)),
            Some(all) => Pick::Diverged(all),
        }
    }

    /// Executes up to [`SLICE`] *instructions* (not ops: a fused advance
    /// run splits at the boundary) on one core, across every lane. Fails
    /// with the id of an out-of-range peer core.
    fn run_slice(
        &mut self,
        ctl: &mut ReplayCtl,
        runs: &mut [LaneRun],
        index: usize,
    ) -> Result<(), u32> {
        ctl.block[index] = BlockReason::None;
        let mut budget = SLICE;
        while budget > 0 {
            if ctl.block[index] != BlockReason::None {
                break;
            }
            budget -= self.step(ctl, runs, index, budget)?;
        }
        Ok(())
    }

    /// Marks a core permanently halted: block state, live list (ordered
    /// removal keeps the pick scan ascending) and the per-chip count.
    fn halt_core(&self, ctl: &mut ReplayCtl, index: usize) {
        ctl.block[index] = BlockReason::Halted;
        if let Ok(pos) = ctl.live.binary_search(&index) {
            ctl.live.remove(pos);
        }
        ctl.chip_halted[index / self.layout.cores_per_chip] += 1;
    }

    /// Consumes (part of) the core's next op on every lane; returns the
    /// number of slice-budget instructions it accounted for (≥ 1). Op
    /// fetch, stream bookkeeping and channel occupancy happen once; only
    /// the clock/scoreboard/mesh arithmetic repeats per lane.
    fn step(
        &mut self,
        ctl: &mut ReplayCtl,
        runs: &mut [LaneRun],
        index: usize,
        budget: u64,
    ) -> Result<u64, u32> {
        let op = self.source.op(index, ctl.op_idx[index])?;
        let layout = self.layout;
        let energy = &self.energy;
        // Chip and chip-local (mesh) id, for the ops that use the network.
        let place = || (index / layout.cores_per_chip, (index % layout.cores_per_chip) as u32);
        match op {
            TraceOp::Advance { insts, penalty } => {
                let done = ctl.advance_done[index];
                let remaining = u64::from(insts - done);
                let take = remaining.min(budget);
                for run in runs.iter_mut() {
                    run.lane.now[index] += take;
                    if take == remaining && penalty {
                        run.lane.now[index] += 2;
                    }
                }
                if take == remaining {
                    ctl.advance_done[index] = 0;
                    ctl.op_idx[index] += 1;
                } else {
                    ctl.advance_done[index] = done + take as u32;
                }
                ctl.executed += take;
                return Ok(take);
            }
            TraceOp::CimMvm { mg, issue, latency } => {
                let slot = index * layout.macro_groups + mg as usize;
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let begin = lane.now[index].max(lane.mg_busy_until[slot]);
                    lane.mg_busy_until[slot] = begin + issue;
                    lane.mg_acc_ready[slot] = begin + latency;
                    lane.now[index] += 1;
                }
            }
            TraceOp::CimLoad { mg, cycles } => {
                let slot = index * layout.macro_groups + mg as usize;
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let begin = lane.now[index].max(lane.mg_busy_until[slot]);
                    lane.mg_busy_until[slot] = begin + cycles;
                    lane.mg_acc_ready[slot] = begin + cycles;
                    lane.now[index] += 1;
                }
            }
            TraceOp::CimStoreAcc { mg } => {
                let slot = index * layout.macro_groups + mg as usize;
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    lane.now[index] = lane.now[index].max(lane.mg_acc_ready[slot]) + 1;
                }
            }
            TraceOp::Vector { cycles } => {
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let begin = lane.now[index].max(lane.vector_busy_until[index]);
                    lane.vector_busy_until[index] = begin + cycles;
                    lane.now[index] += 1;
                }
            }
            TraceOp::LocalCpy { cycles } => {
                for run in runs.iter_mut() {
                    run.lane.now[index] += cycles;
                }
            }
            TraceOp::GlobalCpy { bytes, from_memory, port_cycles } => {
                let (chip, core_id) = place();
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let now = lane.now[index];
                    let mesh = &mut lane.meshes[chip];
                    let outcome = if from_memory {
                        mesh.transfer_from_memory(core_id, bytes, now)
                    } else {
                        mesh.transfer_to_memory(core_id, bytes, now)
                    };
                    let port_start = outcome.arrival.max(lane.global_port_free[chip]);
                    let completion = port_start + port_cycles;
                    lane.global_port_free[chip] = completion;
                    // Profile only the *contended* port windows (the
                    // request waited behind another occupant) — the
                    // interesting signal, at a fraction of the events.
                    if let (Some(profile), true) = (self.profile, port_start > outcome.arrival) {
                        profile.port_contention(
                            chip,
                            outcome.arrival,
                            port_start,
                            completion,
                            bytes,
                        );
                    }
                    lane.now[index] = completion;
                    lane.noc_pj[index] += energy.noc.transfer_pj(
                        outcome.flits,
                        lane.arch.chip().noc_flit_bytes,
                        outcome.hops.max(1),
                    );
                }
            }
            TraceOp::Send { dst, bytes, channel } => {
                let channel = channel as usize;
                ctl.open_channel(runs, channel);
                let (chip, core_id) = place();
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let now = lane.now[index];
                    let outcome = lane.meshes[chip].transfer(core_id, dst, bytes, now);
                    lane.channels[channel].push_back((outcome.arrival, bytes));
                    lane.now[index] += 1;
                    lane.noc_pj[index] += energy.noc.transfer_pj(
                        outcome.flits,
                        lane.arch.chip().noc_flit_bytes,
                        outcome.hops.max(1),
                    );
                }
                ctl.channel_len[channel] += 1;
            }
            TraceOp::Recv { channel, .. } => {
                ctl.open_channel(runs, channel as usize);
                if ctl.channel_len[channel as usize] == 0 {
                    // Stay at this op until a message arrives.
                    ctl.block[index] = BlockReason::Recv { channel };
                    return Ok(1);
                }
                ctl.channel_len[channel as usize] -= 1;
                let mut delivered = 0;
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let (arrival, bytes) = lane.channels[channel as usize]
                        .pop_front()
                        .expect("channel occupancy is lane-invariant");
                    let local_cycles = lane.arch.core.local_memory.transfer_cycles(bytes);
                    lane.now[index] = lane.now[index].max(arrival) + local_cycles;
                    delivered = bytes;
                }
                self.source.received(index, delivered);
            }
            TraceOp::Barrier { id } => {
                for run in runs.iter_mut() {
                    run.lane.now[index] += 1;
                }
                ctl.block[index] = BlockReason::Barrier { id };
            }
            TraceOp::Halt { counted } => {
                self.halt_core(ctl, index);
                if counted {
                    ctl.executed += 1;
                }
                return Ok(1);
            }
        }
        ctl.op_idx[index] += 1;
        ctl.executed += 1;
        Ok(1)
    }

    /// Ships the remaining cut activations of every chip that has just
    /// finished over the inter-chip fabric, and starts every chip whose
    /// hand-off gate has opened. Under tile streaming most transfers have
    /// already been dispatched at their producing stage's end barrier;
    /// this pass catches whatever is left (and is the whole hand-off
    /// under [`HandoffMode::AtRetirement`]). Which chips retire and which
    /// transfers dispatch is shared control state; the
    /// fabric/port/landing arithmetic repeats per lane.
    fn retire_finished_chips(&mut self, ctl: &mut ReplayCtl, runs: &mut [LaneRun]) {
        let layout = self.layout;
        if layout.chip_count == 1 {
            return;
        }
        for chip in 0..layout.chip_count {
            if !ctl.chip_started[chip]
                || ctl.chip_dispatched[chip]
                || ctl.chip_halted[chip] != layout.cores_per_chip
            {
                continue;
            }
            ctl.chip_dispatched[chip] = true;
            let cores = chip * layout.cores_per_chip..(chip + 1) * layout.cores_per_chip;
            for run in runs.iter_mut() {
                let lane = &mut run.lane;
                let cores_done = cores.clone().map(|g| lane.now[g]).max().unwrap_or(0);
                // A streamed consumer may outrun the timing model's port
                // coupling; it can never truly finish before its inputs
                // exist, so the chip's retirement is clamped to the last
                // landing.
                lane.chip_finish_time[chip] = cores_done.max(lane.last_input_landed[chip]);
            }
            for &tindex in &layout.chip_transfers[chip] {
                if ctl.transfer_dispatched[tindex] {
                    continue;
                }
                ctl.transfer_dispatched[tindex] = true;
                let transfer = layout.transfers[tindex];
                let to = transfer.to_chip as usize;
                for run in runs.iter_mut() {
                    let lane = &mut run.lane;
                    let finish = lane.chip_finish_time[chip];
                    let outcome = lane.fabric.transfer(
                        transfer.from_chip,
                        transfer.to_chip,
                        transfer.bytes,
                        finish,
                    );
                    // The activation lands in the consumer chip's global
                    // memory through its (shared) memory port.
                    let port_start = outcome.arrival.max(lane.global_port_free[to]);
                    let landed =
                        port_start + lane.arch.chip().global_memory.transfer_cycles(transfer.bytes);
                    lane.global_port_free[to] = landed;
                    lane.landing_windows[to].push((port_start, landed));
                    if let Some(profile) = self.profile {
                        profile.fabric_transfer(
                            transfer.from_chip,
                            transfer.to_chip,
                            transfer.bytes,
                            finish,
                            outcome.arrival,
                        );
                        profile.port_landing(to, port_start, landed, transfer.bytes);
                    }
                    lane.system_energy.interchip_pj +=
                        self.energy.interchip.transfer_pj(transfer.bytes, outcome.hops);
                    lane.system_energy.global_memory_pj +=
                        self.energy.sram.global_pj(transfer.bytes);
                    lane.chip_ready[to] = lane.chip_ready[to].max(landed);
                    lane.last_input_landed[to] = lane.last_input_landed[to].max(landed);
                }
                ctl.incoming_remaining[to] -= 1;
            }
        }
        self.start_ready_chips(ctl, runs);
    }

    /// Starts every chip whose hand-off gate has opened (all inputs fully
    /// landed at retirement granularity; first tiles landed under
    /// streaming).
    fn start_ready_chips(&self, ctl: &mut ReplayCtl, runs: &mut [LaneRun]) {
        let layout = self.layout;
        for chip in 0..layout.chip_count {
            if ctl.chip_started[chip] || ctl.incoming_remaining[chip] != 0 {
                continue;
            }
            ctl.chip_started[chip] = true;
            for run in runs.iter_mut() {
                let lane = &mut run.lane;
                lane.chip_start_time[chip] = lane.chip_ready[chip];
                for g in chip * layout.cores_per_chip..(chip + 1) * layout.cores_per_chip {
                    lane.now[g] = lane.chip_ready[chip];
                }
            }
        }
    }

    /// Streams every not-yet-dispatched transfer produced by local stage
    /// `ordinal` of `chip`, whose execution window just closed. `ends`
    /// holds each lane's barrier-release time, aligned with `runs`.
    fn stream_stage_transfers(
        &mut self,
        ctl: &mut ReplayCtl,
        runs: &mut [LaneRun],
        chip: usize,
        ordinal: usize,
        ends: &[u64],
    ) {
        let layout = self.layout;
        if layout.chip_count == 1 {
            return;
        }
        for &tindex in &layout.chip_transfers[chip] {
            if ctl.transfer_dispatched[tindex] || layout.transfers[tindex].stage != Some(ordinal) {
                continue;
            }
            ctl.transfer_dispatched[tindex] = true;
            for (run, &end) in runs.iter_mut().zip(ends) {
                let start = run.lane.stage_start(chip, ordinal, end);
                self.dispatch_streamed(&mut run.lane, tindex, start, end);
            }
            ctl.incoming_remaining[layout.transfers[tindex].to_chip as usize] -= 1;
        }
        self.start_ready_chips(ctl, runs);
    }

    /// Ships one cut activation as tiles spread across the producing
    /// stage's `[start, end]` window: the producer emits its output
    /// pixels incrementally, so tile `i` enters the fabric once its share
    /// of the stage has executed. The consumer's hand-off gate opens at
    /// the first landed tile; the remaining tiles occupy its memory port
    /// (and are tracked for the stall/overlap metrics). Pure lane-local
    /// arithmetic — the caller owns the shared dispatch bookkeeping.
    fn dispatch_streamed(&self, lane: &mut ReplayLane, tindex: usize, start: u64, end: u64) {
        let transfer = self.layout.transfers[tindex];
        let to = transfer.to_chip as usize;
        let tile = STREAM_TILE_BYTES.max(transfer.bytes.div_ceil(MAX_STREAM_TILES));
        let tiles = transfer.bytes.div_ceil(tile).max(1);
        let span = end.saturating_sub(start);
        let mut remaining = transfer.bytes;
        let mut first_landed = end;
        let mut last_landed = end;
        for i in 0..tiles {
            let size = remaining.min(tile);
            remaining -= size;
            let available = start + (span * (i + 1)) / tiles;
            let outcome =
                lane.fabric.transfer(transfer.from_chip, transfer.to_chip, size, available);
            let port_start = outcome.arrival.max(lane.global_port_free[to]);
            let landed = port_start + lane.arch.chip().global_memory.transfer_cycles(size);
            lane.global_port_free[to] = landed;
            lane.landing_windows[to].push((port_start, landed));
            if let Some(profile) = self.profile {
                profile.fabric_transfer(
                    transfer.from_chip,
                    transfer.to_chip,
                    size,
                    available,
                    outcome.arrival,
                );
                profile.port_landing(to, port_start, landed, size);
            }
            lane.system_energy.interchip_pj +=
                self.energy.interchip.transfer_pj(size, outcome.hops);
            lane.system_energy.global_memory_pj += self.energy.sram.global_pj(size);
            if i == 0 {
                first_landed = landed;
            }
            last_landed = landed;
        }
        lane.chip_ready[to] = lane.chip_ready[to].max(first_landed);
        lane.last_input_landed[to] = lane.last_input_landed[to].max(last_landed);
    }

    /// Tries to release the lowest pending barrier of every started chip.
    /// Returns whether any core was released.
    fn release_barriers(&mut self, ctl: &mut ReplayCtl, runs: &mut [LaneRun]) -> bool {
        let mut released = false;
        for chip in 0..self.layout.chip_count {
            if ctl.chip_started[chip] {
                released |= self.release_barrier(ctl, runs, chip);
            }
        }
        released
    }

    /// Releases the set of cores of `chip` waiting at its lowest pending
    /// barrier if every non-halted core of the chip has reached a barrier
    /// (barriers are chip-local: the code generator emits them per chip).
    /// Membership and release order are shared control state; the
    /// release *times* are per lane. Returns whether any core was
    /// released.
    fn release_barrier(&mut self, ctl: &mut ReplayCtl, runs: &mut [LaneRun], chip: usize) -> bool {
        let cores_per_chip = self.layout.cores_per_chip;
        let cores = chip * cores_per_chip..(chip + 1) * cores_per_chip;
        let mut waiting: Vec<(usize, u16)> = Vec::new();
        for i in cores.clone() {
            match ctl.block[i] {
                BlockReason::Barrier { id } => waiting.push((i, id)),
                BlockReason::Halted => {}
                _ => return false,
            }
        }
        if waiting.is_empty() {
            return false;
        }
        let min_id = waiting.iter().map(|(_, id)| *id).min().expect("non-empty");
        let members: Vec<usize> =
            waiting.iter().filter(|(_, id)| *id == min_id).map(|(i, _)| *i).collect();
        // A barrier only opens once every participant has arrived; with
        // the codegen emitting every barrier on every core of the chip
        // this means all its non-halted cores share the minimum id.
        let halted = cores.filter(|i| ctl.block[*i] == BlockReason::Halted).count();
        if members.len() + halted != cores_per_chip {
            // Some core waits at a later barrier — structurally impossible
            // with the current code generator; treat as deadlock.
            return false;
        }
        let releases: Vec<u64> = runs
            .iter()
            .map(|run| members.iter().map(|i| run.lane.now[*i]).max().unwrap_or(0) + 1)
            .collect();
        for (run, &release) in runs.iter_mut().zip(&releases) {
            for &i in &members {
                run.lane.now[i] = release;
            }
            run.lane.barrier_release[chip].insert(min_id, release);
        }
        for &i in &members {
            ctl.block[i] = BlockReason::None;
        }
        // An odd barrier id closes local stage (id - 1) / 2; under tile
        // streaming its cut activations enter the fabric now, backdated
        // across the stage window they were produced in.
        if min_id % 2 == 1 {
            let ordinal = (min_id as usize - 1) / 2;
            if let Some(profile) = self.profile {
                for (run, &release) in runs.iter().zip(&releases) {
                    let start = run.lane.stage_start(chip, ordinal, release);
                    profile.stage(chip, ordinal, start, release, cores_per_chip);
                }
            }
            if self.handoff == HandoffMode::TileStreaming {
                self.stream_stage_transfers(ctl, runs, chip, ordinal, &releases);
            }
        }
        true
    }

    fn deadlock(ctl: &ReplayCtl) -> SimError {
        let mut recv = Vec::new();
        let mut barrier = Vec::new();
        for (i, block) in ctl.block.iter().enumerate() {
            match block {
                BlockReason::Recv { .. } => recv.push(i as u32),
                BlockReason::Barrier { .. } => barrier.push(i as u32),
                _ => {}
            }
        }
        SimError::Deadlock { blocked_on_recv: recv, blocked_on_barrier: barrier }
    }
}

/// Shared control state of one lockstep walk: everything whose evolution
/// is provably identical across lanes as long as their core picks agree —
/// op positions, block states, chip/transfer dispatch flags, channel
/// queue *lengths*, the slice budget. Cloned (cheaply — flat vectors of
/// primitives) when a divergent lane peels off mid-stream.
#[derive(Debug, Clone)]
struct ReplayCtl {
    /// Per core: next op in its stream.
    op_idx: Vec<usize>,
    /// Per core: instructions consumed of a partially-split advance run.
    advance_done: Vec<u32>,
    /// Per core: scheduler block state.
    block: Vec<BlockReason>,
    /// Non-halted cores, ascending (the pick scan's tie-break order).
    live: Vec<usize>,
    /// Per channel: queue length (the messages themselves are lane-local).
    channel_len: Vec<usize>,
    /// Per chip: hand-off bookkeeping.
    chip_started: Vec<bool>,
    chip_dispatched: Vec<bool>,
    chip_halted: Vec<usize>,
    incoming_remaining: Vec<usize>,
    transfer_dispatched: Vec<bool>,
    executed: u64,
}

impl ReplayCtl {
    fn new(layout: &Layout) -> Self {
        let cores = layout.cores();
        let chips = layout.chip_count;
        let mut incoming_remaining = vec![0usize; chips];
        for transfer in &layout.transfers {
            incoming_remaining[transfer.to_chip as usize] += 1;
        }
        let chip_started: Vec<bool> =
            incoming_remaining.iter().map(|remaining| *remaining == 0).collect();
        ReplayCtl {
            op_idx: vec![0; cores],
            advance_done: vec![0; cores],
            block: vec![BlockReason::None; cores],
            live: (0..cores).collect(),
            channel_len: Vec::new(),
            chip_started,
            chip_dispatched: vec![false; chips],
            chip_halted: vec![0; chips],
            incoming_remaining,
            transfer_dispatched: vec![false; layout.transfers.len()],
            executed: 0,
        }
    }

    /// Makes room for `channel` in the shared lengths and every lane's
    /// queues (channel ids are dense, assigned in decode order).
    fn open_channel(&mut self, runs: &mut [LaneRun], channel: usize) {
        if channel >= self.channel_len.len() {
            self.channel_len.resize(channel + 1, 0);
            for run in runs {
                run.lane.channels.resize_with(channel + 1, VecDeque::new);
            }
        }
    }
}

/// Per-lane timing state: the clocks, scoreboards, port cursors, meshes,
/// fabric and energy accumulators of one cycle-distinct design point.
/// The structure-of-arrays layout across lanes is a `Vec` of these —
/// each op updates every lane's block while the fetch happens once.
#[derive(Debug)]
pub(crate) struct ReplayLane {
    /// The lane's (frequency-normalized) architecture — every
    /// cycle-domain constant the walk reads comes from here.
    arch: ArchConfig,
    /// Per core: local clock.
    now: Vec<u64>,
    /// Per core: vector-unit busy-until.
    vector_busy_until: Vec<u64>,
    /// Per core: point-dependent NoC energy (routing distance varies
    /// with the memory-port placement).
    noc_pj: Vec<f64>,
    /// Core-major flattened macro-group busy-until scoreboard.
    mg_busy_until: Vec<u64>,
    /// Core-major flattened accumulator-ready scoreboard.
    mg_acc_ready: Vec<u64>,
    /// Per chip: hand-off times (the shared flags live on the ctl).
    chip_ready: Vec<u64>,
    chip_start_time: Vec<u64>,
    chip_finish_time: Vec<u64>,
    last_input_landed: Vec<u64>,
    /// Per chip: the shared global-memory port's free time (used both by
    /// `GlobalCpy` ops and by landing cut activations — one port).
    global_port_free: Vec<u64>,
    /// Per chip: release time of each barrier id, recorded as barriers
    /// open (stage `k` runs between barriers `2k` and `2k + 1`).
    barrier_release: Vec<HashMap<u16, u64>>,
    /// Per chip: the [port_start, landed) windows its incoming tiles
    /// occupied on the global-memory port (input-stall accounting).
    landing_windows: Vec<Vec<(u64, u64)>>,
    /// Per channel: in-flight messages as (arrival cycle, bytes) — the
    /// lengths are shared on the ctl.
    channels: Vec<VecDeque<(u64, u64)>>,
    meshes: Vec<Mesh>,
    fabric: InterChipFabric,
    /// System-level energy not attributable to one core (inter-chip
    /// links, the landing writes into consumer global memories).
    system_energy: EnergyBreakdown,
}

impl ReplayLane {
    fn new(layout: &Layout, arch: &ArchConfig) -> Self {
        let cores = layout.cores();
        let chips = layout.chip_count;
        let noc_config = NocConfig {
            width: arch.chip().mesh.width,
            height: arch.chip().mesh.height,
            flit_bytes: arch.chip().noc_flit_bytes,
            hop_latency: arch.chip().noc_hop_latency,
            memory_port: arch.chip().memory_port,
        };
        let link = &arch.system.interconnect;
        ReplayLane {
            arch: *arch,
            now: vec![0; cores],
            vector_busy_until: vec![0; cores],
            noc_pj: vec![0.0; cores],
            mg_busy_until: vec![0; cores * layout.macro_groups],
            mg_acc_ready: vec![0; cores * layout.macro_groups],
            chip_ready: vec![0; chips],
            chip_start_time: vec![0; chips],
            chip_finish_time: vec![0; chips],
            last_input_landed: vec![0; chips],
            global_port_free: vec![0; chips],
            barrier_release: vec![HashMap::new(); chips],
            landing_windows: vec![Vec::new(); chips],
            channels: Vec::new(),
            meshes: vec![Mesh::new(noc_config); chips],
            fabric: InterChipFabric::new(InterChipConfig {
                chips: chips as u32,
                link_bytes: link.link_bytes_per_cycle,
                link_latency: link.link_latency_cycles,
                ring: link.topology == InterChipTopology::Ring,
            }),
            system_energy: EnergyBreakdown::new(),
        }
    }

    /// Start of local stage `ordinal`'s execution window on `chip`: the
    /// release of its opening barrier `2 * ordinal` (the chip's start
    /// when that barrier never released), clamped to the window's `end`.
    fn stage_start(&self, chip: usize, ordinal: usize, end: u64) -> u64 {
        self.barrier_release[chip]
            .get(&((ordinal * 2) as u16))
            .copied()
            .unwrap_or(self.chip_start_time[chip])
            .min(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::trace::{CoreInvariants, TracePasses};
    use cimflow_compiler::{compile, Strategy};
    use cimflow_nn::models;

    #[test]
    fn recording_does_not_perturb_the_report() {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&models::mobilenet_v2(32), &arch, Strategy::DpOptimized).unwrap();
        let plain = Simulator::new(&compiled).run().unwrap();
        let (trace, recorded) = Simulator::record(&compiled).unwrap();
        assert_eq!(plain, recorded);
        assert!(trace.op_count() > 0);
        assert!(trace.passes().fused_instructions > 0, "scalar runs fuse");
        assert!(
            (trace.op_count() as u64) < trace.instruction_count(),
            "the trace is denser than the dynamic stream"
        );
    }

    #[test]
    fn replay_refuses_incompatible_and_invalid_points() {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&models::mobilenet_v2(32), &arch, Strategy::DpOptimized).unwrap();
        let (trace, _) = Simulator::record(&compiled).unwrap();
        let engine = ReplayEngine::new(&trace);
        // Compile-affecting change: must recompile, not replay.
        let err =
            engine.replay(&arch.with_macros_per_group(16), SimOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::TraceMismatch { .. }), "{err}");
        // Invalid point (memory port outside the mesh): replay skips the
        // compiler's validation path, so it must validate itself.
        let err = engine.replay(&arch.with_memory_port(4096), SimOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::TraceMismatch { .. }), "{err}");
    }

    #[test]
    fn batch_replay_reuses_state_without_cross_talk() {
        let base = ArchConfig::paper_default();
        let compiled = compile(&models::resnet18(32), &base, Strategy::DpOptimized).unwrap();
        let (trace, baseline) = Simulator::record(&compiled).unwrap();
        let points = vec![
            (base, SimOptions::default()),
            (base.with_frequency_mhz(500), SimOptions::default()),
            (base.with_macros_per_group(16), SimOptions::default()), // incompatible
            (base, SimOptions::default()),
        ];
        let results = ReplayEngine::new(&trace).replay_batch(&points);
        assert_eq!(results.len(), 4);
        assert_eq!(*results[0].as_ref().unwrap(), baseline);
        assert!(results[1].is_ok());
        assert!(matches!(results[2], Err(SimError::TraceMismatch { .. })));
        assert_eq!(
            *results[3].as_ref().unwrap(),
            baseline,
            "a failed point must not poison the reused state"
        );
    }

    #[test]
    fn lockstep_lanes_deduplicate_frequency_and_match_scalar_replay() {
        let base = ArchConfig::paper_default();
        let compiled = compile(&models::mobilenet_v2(32), &base, Strategy::DpOptimized).unwrap();
        let (trace, _) = Simulator::record(&compiled).unwrap();
        let engine = ReplayEngine::new(&trace);
        let points: Vec<(ArchConfig, SimOptions)> = [400, 800, 1000]
            .iter()
            .flat_map(|&mhz| {
                [0u32, 27].iter().map(move |&port| {
                    (base.with_frequency_mhz(mhz).with_memory_port(port), SimOptions::default())
                })
            })
            .collect();
        let (results, stats) = engine.replay_batch_stats(&points);
        // 3 frequencies × 2 ports collapse onto 2 cycle-distinct lanes.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.lanes, 2);
        for (point, result) in points.iter().zip(&results) {
            let scalar = engine.replay(&point.0, point.1).unwrap();
            assert_eq!(*result.as_ref().unwrap(), scalar, "lockstep must equal scalar replay");
        }
    }

    #[test]
    fn single_lane_batches_never_count_as_lockstep() {
        let base = ArchConfig::paper_default();
        let compiled = compile(&models::mobilenet_v2(32), &base, Strategy::DpOptimized).unwrap();
        let (trace, _) = Simulator::record(&compiled).unwrap();
        let engine = ReplayEngine::new(&trace);
        let points = vec![
            (base, SimOptions::default()),
            (base.with_frequency_mhz(500), SimOptions::default()),
        ];
        let (results, stats) = engine.replay_batch_stats(&points);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(stats, LockstepStats::default(), "one cycle lane is the scalar path");
    }

    /// A hand-built trace whose `pick_core` argmin genuinely flips with
    /// the NoC hop latency. Core 0 materializes a clock from a message
    /// that crossed the whole mesh (arrival scales with the per-hop
    /// latency: under 100 cycles at latency 1, over 500 at latency 32);
    /// core 1 holds a fixed 200-cycle clock sized between the two. Both
    /// then block on core 5, whose own recv chain keeps it from producing
    /// until both consumers are waiting, so the next pick compares the
    /// two clocks the other way round in each lane. Real model traces
    /// never reach this state (their dependency chains and the
    /// serializing global port pin the pick order), so the peel path gets
    /// its own trace.
    #[test]
    fn divergent_pick_orders_peel_into_scalar_lanes_bit_exactly() {
        let arch = ArchConfig::paper_default();
        let cores = arch.chip().core_count as usize;
        let mut ops: Vec<Vec<TraceOp>> =
            (0..cores).map(|_| vec![TraceOp::Halt { counted: false }]).collect();
        // Channels: 63→0 is 0, 0→5 is 1, 5→0 is 2, 5→1 is 3.
        ops[0] = vec![
            // Clock becomes the arrival of core 63's full-mesh crossing,
            // then core 0 itself releases the producer and waits on it —
            // so the producer cannot run before the clock materializes.
            TraceOp::Recv { src: 63, channel: 0 },
            TraceOp::Send { dst: 5, bytes: 64, channel: 1 },
            TraceOp::Recv { src: 5, channel: 2 },
            TraceOp::Advance { insts: 32, penalty: false },
            TraceOp::Halt { counted: true },
        ];
        ops[1] = vec![
            TraceOp::LocalCpy { cycles: 200 },
            TraceOp::Recv { src: 5, channel: 3 },
            TraceOp::Advance { insts: 16, penalty: false },
            TraceOp::Halt { counted: true },
        ];
        ops[5] = vec![
            TraceOp::Recv { src: 0, channel: 1 },
            TraceOp::Send { dst: 0, bytes: 64, channel: 2 },
            TraceOp::Send { dst: 1, bytes: 64, channel: 3 },
            TraceOp::Halt { counted: true },
        ];
        ops[63] =
            vec![TraceOp::Send { dst: 0, bytes: 512, channel: 0 }, TraceOp::Halt { counted: true }];
        let layout = Layout {
            cores_per_chip: cores,
            chip_count: 1,
            macro_groups: 1,
            transfers: Vec::new(),
            chip_transfers: vec![Vec::new()],
        };
        let trace = SimTrace {
            arch,
            fingerprint: arch.compile_fingerprint(),
            layout,
            ops,
            totals: RunTotals {
                executed: 69,
                cores: vec![CoreInvariants::default(); cores],
                ..RunTotals::default()
            },
            passes: TracePasses::default(),
        };
        let engine = ReplayEngine::new(&trace);
        let options = SimOptions::default();
        // Hop latency 1: the crossing beats the 200-cycle copy. Hop
        // latency 32: it loses. The wake order flips between the lanes.
        let mut slow_mesh = arch;
        slow_mesh.system.chip.noc_hop_latency = 32;
        let points: Vec<(ArchConfig, SimOptions)> = vec![(arch, options), (slow_mesh, options)];
        let (results, stats) = engine.replay_batch_stats(&points);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.lanes, 2);
        assert!(stats.fallback_lanes > 0, "the flipped wake order must peel: {stats:?}");
        for (point, result) in points.iter().zip(&results) {
            let scalar = engine.replay(&point.0, point.1).unwrap();
            assert_eq!(*result.as_ref().unwrap(), scalar, "peeled lanes must equal scalar replay");
        }
    }
}
