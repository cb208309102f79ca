//! Seeded generators of the three workloads' wire requests.
//!
//! Every request is addressed by `(seed, client, k)` and computed from a
//! counter-based random stream, so any client's `k`-th request can be
//! rebuilt without replaying the ones before it, and the same seed always
//! yields byte-identical request lines. The benchmark hands only these
//! lines to the service; nothing else about a workload reaches it.

use cimflow_compiler::Strategy;
use cimflow_dse::serve::{Request, Target};
use cimflow_dse::{EvalRequest, PointSpec, SweepSpec};

/// The seed the goldens and the steadiness report are anchored to.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed kept out of tuning, for the self-tests.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Closed-loop clients, each with its own connection.
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-point submits, every one a cache miss and a fresh compile.
    ColdPoints,
    /// Timing-only sweeps of recorded designs: lockstep replay.
    RetimeLadder,
    /// Re-submitted sweeps answered from a loaded cache file.
    WarmWire,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ColdPoints, Workload::RetimeLadder, Workload::WarmWire];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPoints => "cold_points",
            Workload::RetimeLadder => "retime_ladder",
            Workload::WarmWire => "warm_wire",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---------------------------------------------------------------------------
// Counter-based randomness
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, well-mixed generator whose whole state is one word.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stream tags keep the workloads' streams apart.
const COLD_STREAM: u64 = 1 << 40;
const LADDER_STREAM: u64 = 2 << 40;
const WARM_STREAM: u64 = 3 << 40;

fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------------
// Design points
// ---------------------------------------------------------------------------

/// The four paper models.
pub const MODELS: [&str; 4] = ["resnet18", "vgg19", "mobilenetv2", "efficientnetb0"];

/// One compile-affecting design point of the cold space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColdPoint {
    /// Model name.
    pub model: &'static str,
    /// Input resolution.
    pub resolution: u32,
    /// Compilation strategy.
    pub strategy: Strategy,
    /// Chip count.
    pub chips: u32,
    /// Macros per macro group.
    pub mg: u32,
    /// NoC flit bytes.
    pub flit: u32,
}

impl ColdPoint {
    /// The wire request of this point.
    pub fn request(&self) -> EvalRequest {
        EvalRequest::new(self.model, self.resolution, self.strategy)
            .with_chip_count(self.chips)
            .with_mg_size(self.mg)
            .with_flit_bytes(self.flit)
    }

    /// The golden-table key of this point.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.model, self.resolution, self.strategy, self.chips, self.mg, self.flit
        )
    }
}

/// Resolutions of the cold space.
pub const COLD_RESOLUTIONS: [u32; 10] = [32, 36, 40, 44, 48, 52, 56, 60, 64, 68];
/// Macro-group sizes of the cold space.
pub const COLD_MG_SIZES: [u32; 5] = [4, 6, 8, 12, 16];
/// Flit sizes of the cold space.
pub const COLD_FLIT_SIZES: [u32; 5] = [8, 12, 16, 24, 32];
/// Chip counts of the cold space.
pub const COLD_CHIPS: [u32; 2] = [1, 2];

/// The cold space's strata: every (model, strategy, chips) combination.
/// Each block of [`cold_strata`]`().len()` consecutive draws takes one
/// point of every stratum, so any run-length prefix holds the same mix of
/// cheap interpreted points and DP-partitioned points whatever the seed.
pub fn cold_strata() -> Vec<(&'static str, Strategy, u32)> {
    let mut strata = Vec::new();
    for model in MODELS {
        for strategy in Strategy::ALL {
            for chips in COLD_CHIPS {
                strata.push((model, strategy, chips));
            }
        }
    }
    strata
}

/// The (resolution, MG, flit) variants every stratum draws from.
pub fn cold_variants() -> Vec<(u32, u32, u32)> {
    let mut variants = Vec::new();
    for resolution in COLD_RESOLUTIONS {
        for mg in COLD_MG_SIZES {
            for flit in COLD_FLIT_SIZES {
                variants.push((resolution, mg, flit));
            }
        }
    }
    variants
}

/// Every point of the cold space (the golden table's rows).
pub fn cold_space() -> Vec<ColdPoint> {
    let variants = cold_variants();
    cold_strata()
        .into_iter()
        .flat_map(|(model, strategy, chips)| {
            variants.iter().map(move |&(resolution, mg, flit)| ColdPoint {
                model,
                resolution,
                strategy,
                chips,
                mg,
                flit,
            })
        })
        .collect()
}

/// A design recorded during retime_ladder's set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    /// Model name.
    pub model: &'static str,
    /// Compilation strategy.
    pub strategy: Strategy,
    /// Chip count.
    pub chips: u32,
}

/// Resolution of every recorded design.
pub const LADDER_RESOLUTION: u32 = 48;

/// The recorded designs: every model, strategy and chip count appears, on
/// the paper-default 64-core mesh. Their 32-point requests fall into
/// three classes of latency (on the reference machine about 25–33 ms for
/// the first, second and fifth design, 47–53 ms for the third and sixth,
/// and 80–90 ms for the fourth and seventh), and each design gets the
/// same share of the requests. With these seven the median request falls
/// inside the middle class and the 90th percentile inside the slowest,
/// not on a gap between classes, where a small shift of timing would move
/// them far: an eighth design in the fast class would put the median
/// exactly on the gap above it.
pub const DESIGNS: [Design; 7] = [
    Design { model: "resnet18", strategy: Strategy::DpOptimized, chips: 1 },
    Design { model: "vgg19", strategy: Strategy::GenericMapping, chips: 2 },
    Design { model: "mobilenetv2", strategy: Strategy::DpOptimized, chips: 2 },
    Design { model: "efficientnetb0", strategy: Strategy::OperatorDuplication, chips: 1 },
    Design { model: "resnet18", strategy: Strategy::OperatorDuplication, chips: 2 },
    Design { model: "mobilenetv2", strategy: Strategy::GenericMapping, chips: 1 },
    Design { model: "efficientnetb0", strategy: Strategy::DpOptimized, chips: 2 },
];

impl Design {
    /// A sweep of this design over the given timing-only axes.
    pub fn sweep(&self, ports: &[u32], freqs: &[u32]) -> SweepSpec {
        SweepSpec::new()
            .with_model(self.model, LADDER_RESOLUTION)
            .with_strategies(&[self.strategy])
            .with_chip_counts(&[self.chips])
            .with_memory_ports(ports)
            .with_frequencies_mhz(freqs)
    }

    /// The golden-table key of this design at one memory port. Neither
    /// total cycles nor energy depend on the clock (the golden generator
    /// checks this against the interpreter), so frequency is not part of
    /// the key.
    pub fn key(&self, port: u32) -> String {
        format!("{} {} {} {} port={port}", self.model, LADDER_RESOLUTION, self.strategy, self.chips)
    }
}

/// Mesh nodes of the default 64-core chip (every one is a valid port).
pub const MESH_NODES: u32 = 64;
/// Ports per measured ladder request.
pub const LADDER_PORTS: usize = 8;
/// Frequencies per measured ladder request.
pub const LADDER_FREQS: usize = 4;
/// Frequencies the measured phase draws from; the set-up sweeps use
/// [`SETUP_FREQS`], outside this range, so no measured point is a hit.
pub const LADDER_MHZ: std::ops::Range<u32> = 200..1000;
/// Frequencies of each design's 2-point set-up sweep (at port 0).
pub const SETUP_FREQS: [u32; 2] = [1000, 1100];

/// Ladder requests one design can take before its frequency pool runs
/// out.
pub fn ladder_capacity_per_design() -> usize {
    LADDER_MHZ.len() / LADDER_FREQS
}

/// The warm fixture's sweeps: every model × strategy over a 2 × 2 grid of
/// compile-affecting axes, so each point is an untraced singleton.
pub fn warm_sweeps() -> Vec<SweepSpec> {
    let mut sweeps = Vec::new();
    for model in MODELS {
        for strategy in Strategy::ALL {
            sweeps.push(
                SweepSpec::new()
                    .with_model(model, 32)
                    .with_strategies(&[strategy])
                    .with_mg_sizes(&[4, 8])
                    .with_flit_sizes(&[8, 16]),
            );
        }
    }
    sweeps
}

/// Every distinct point of the warm fixture.
pub fn warm_points() -> Vec<PointSpec> {
    warm_sweeps().iter().flat_map(|s| s.expand().expect("fixture sweeps expand")).collect()
}

// ---------------------------------------------------------------------------
// Request streams
// ---------------------------------------------------------------------------

/// What a measured request asks for (the part verification needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// One cold point.
    Point(ColdPoint),
    /// One design over ports × frequencies.
    Ladder {
        /// Index into [`DESIGNS`].
        design: usize,
        /// Memory ports, ascending.
        ports: Vec<u32>,
        /// Frequencies, ascending.
        freqs: Vec<u32>,
    },
    /// One warm fixture sweep.
    Sweep(usize),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The request line handed to the wire.
    pub line: String,
    /// What it asks for.
    pub ask: Ask,
    /// Design points it covers.
    pub points: usize,
}

/// The per-seed request plan of one workload: client `c`'s `k`-th request
/// is the plan's global request `k * CLIENTS + c`.
pub struct Plan {
    workload: Workload,
    seed: u64,
    /// cold_points: each stratum's variant order.
    strata: Vec<(&'static str, Strategy, u32)>,
    variants: Vec<(u32, u32, u32)>,
    variant_order: Vec<Vec<usize>>,
    /// retime_ladder: each design's frequency order.
    freq_order: Vec<Vec<u32>>,
    /// warm_wire: the fixture sweeps.
    sweeps: Vec<SweepSpec>,
}

impl Plan {
    /// The plan of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let strata = cold_strata();
        let variants = cold_variants();
        let variant_order = match workload {
            Workload::ColdPoints => (0..strata.len())
                .map(|s| permutation(seed, COLD_STREAM | s as u64, variants.len()))
                .collect(),
            _ => Vec::new(),
        };
        let freq_order = match workload {
            Workload::RetimeLadder => (0..DESIGNS.len())
                .map(|d| {
                    let pool: Vec<u32> = LADDER_MHZ.collect();
                    permutation(seed, LADDER_STREAM | d as u64, pool.len())
                        .into_iter()
                        .map(|i| pool[i])
                        .collect()
                })
                .collect(),
            _ => Vec::new(),
        };
        let sweeps = match workload {
            Workload::WarmWire => warm_sweeps(),
            _ => Vec::new(),
        };
        Plan { workload, seed, strata, variants, variant_order, freq_order, sweeps }
    }

    /// Global requests the plan can serve before a draw would repeat.
    pub fn capacity(&self) -> usize {
        match self.workload {
            Workload::ColdPoints => self.strata.len() * self.variants.len(),
            Workload::RetimeLadder => DESIGNS.len() * ladder_capacity_per_design(),
            Workload::WarmWire => usize::MAX,
        }
    }

    /// Client `client`'s `k`-th request, or `None` once the plan is spent.
    pub fn request(&self, client: usize, k: usize) -> Option<Generated> {
        let global = k.checked_mul(CLIENTS)?.checked_add(client)?;
        (global < self.capacity()).then(|| self.global(global))
    }

    /// Global request `i` (block-stratified: each block of consecutive
    /// requests covers every stratum, design or sweep once, in a seeded
    /// order).
    fn global(&self, i: usize) -> Generated {
        match self.workload {
            Workload::ColdPoints => {
                let width = self.strata.len();
                let (block, slot) = (i / width, i % width);
                let stratum =
                    permutation(self.seed, COLD_STREAM | (1 << 32) | block as u64, width)[slot];
                let (model, strategy, chips) = self.strata[stratum];
                let (resolution, mg, flit) = self.variants[self.variant_order[stratum][block]];
                let point = ColdPoint { model, resolution, strategy, chips, mg, flit };
                let line = serde_json::to_string(&Request::Submit(Box::new(point.request())))
                    .expect("requests serialize");
                Generated { line, ask: Ask::Point(point), points: 1 }
            }
            Workload::RetimeLadder => {
                let width = DESIGNS.len();
                let (block, slot) = (i / width, i % width);
                let design =
                    permutation(self.seed, LADDER_STREAM | (1 << 32) | block as u64, width)[slot];
                let mut freqs = self.freq_order[design]
                    [block * LADDER_FREQS..(block + 1) * LADDER_FREQS]
                    .to_vec();
                freqs.sort_unstable();
                let mut rng = Rng::new(self.seed, LADDER_STREAM | (2 << 32) | i as u64);
                let mut nodes: Vec<u32> = (0..MESH_NODES).collect();
                rng.shuffle(&mut nodes);
                let mut ports = nodes[..LADDER_PORTS].to_vec();
                ports.sort_unstable();
                let line = sweep_line(DESIGNS[design].sweep(&ports, &freqs));
                Generated {
                    line,
                    ask: Ask::Ladder { design, ports, freqs },
                    points: LADDER_PORTS * LADDER_FREQS,
                }
            }
            Workload::WarmWire => {
                let width = self.sweeps.len();
                let (block, slot) = (i / width, i % width);
                let sweep = permutation(self.seed, WARM_STREAM | block as u64, width)[slot];
                let spec = self.sweeps[sweep].clone();
                let points = spec.point_count();
                Generated { line: sweep_line(spec), ask: Ask::Sweep(sweep), points }
            }
        }
    }
}

/// The wire line of a sweep submission.
pub fn sweep_line(spec: SweepSpec) -> String {
    serde_json::to_string(&Request::Sweep { spec: Box::new(spec), tenant: None, priority: None })
        .expect("requests serialize")
}

/// The wire line waiting on a job or batch.
pub fn wait_line(target: Target) -> String {
    serde_json::to_string(&Request::Wait { target, timeout_ms: None }).expect("requests serialize")
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn lines(workload: Workload, seed: u64, per_client: usize) -> Vec<String> {
        let plan = Plan::new(workload, seed);
        (0..per_client)
            .flat_map(|k| (0..CLIENTS).map(move |c| (c, k)))
            .filter_map(|(c, k)| plan.request(c, k).map(|g| g.line))
            .collect()
    }

    fn point_set(workload: Workload, seed: u64, per_client: usize) -> HashSet<String> {
        let plan = Plan::new(workload, seed);
        let mut set = HashSet::new();
        for k in 0..per_client {
            for c in 0..CLIENTS {
                let Some(generated) = plan.request(c, k) else { continue };
                match generated.ask {
                    Ask::Point(point) => {
                        set.insert(point.key());
                    }
                    Ask::Ladder { design, ports, freqs } => {
                        for port in &ports {
                            for mhz in &freqs {
                                set.insert(format!("{design} {port} {mhz}"));
                            }
                        }
                    }
                    Ask::Sweep(sweep) => {
                        set.insert(format!("{sweep}@{k}"));
                    }
                }
            }
        }
        set
    }

    #[test]
    fn the_same_seed_yields_byte_identical_request_lines() {
        for workload in Workload::ALL {
            let a = lines(workload, DEFAULT_SEED, 300);
            let b = lines(workload, DEFAULT_SEED, 300);
            assert_eq!(a, b, "{}", workload.name());
            assert!(!a.is_empty());
            assert_ne!(a, lines(workload, HELD_OUT_SEED, 300), "{}", workload.name());
        }
    }

    #[test]
    fn a_second_seed_draws_a_mostly_different_point_set() {
        // About one run's worth of draws on the reference machine.
        for (workload, per_client) in [(Workload::ColdPoints, 900), (Workload::RetimeLadder, 230)] {
            let a = point_set(workload, DEFAULT_SEED, per_client);
            let b = point_set(workload, HELD_OUT_SEED, per_client);
            let shared = a.intersection(&b).count();
            assert!(
                shared * 2 < a.len(),
                "{}: {shared} of {} points shared",
                workload.name(),
                a.len()
            );
        }
    }

    #[test]
    fn cold_points_never_repeats_a_compile_key() {
        use cimflow_compiler::SearchMode;
        let mut keys = HashSet::new();
        let mut traces = HashSet::new();
        let plan = Plan::new(Workload::ColdPoints, DEFAULT_SEED);
        let mut models = std::collections::HashMap::new();
        for k in 0.. {
            let mut any = false;
            for c in 0..CLIENTS {
                let Some(generated) = plan.request(c, k) else { continue };
                any = true;
                let Ask::Point(point) = generated.ask else { unreachable!() };
                let request = point.request();
                let arch = request.point().arch(&request.base_arch());
                let model = models.entry((point.model, point.resolution)).or_insert_with(|| {
                    cimflow_nn::models::by_name(point.model, point.resolution).unwrap()
                });
                assert!(keys.insert(cimflow_dse::CacheKey::of(
                    &arch,
                    model,
                    point.strategy,
                    SearchMode::Sequential
                )));
                assert!(traces.insert(cimflow_dse::TraceKey::of(
                    &arch,
                    model,
                    point.strategy,
                    SearchMode::Sequential
                )));
            }
            if !any {
                break;
            }
        }
        assert_eq!(keys.len(), cold_space().len(), "the plan draws the whole space once");
    }

    #[test]
    fn cold_blocks_keep_the_stratum_mix() {
        let plan = Plan::new(Workload::ColdPoints, HELD_OUT_SEED);
        let width = cold_strata().len();
        let mut seen = HashSet::new();
        for i in 0..width {
            let Ask::Point(point) = plan.global(i).ask else { unreachable!() };
            seen.insert((point.model, point.strategy, point.chips));
        }
        assert_eq!(seen.len(), width);
    }

    #[test]
    fn retime_ladder_never_repeats_a_design_port_mhz_point() {
        let plan = Plan::new(Workload::RetimeLadder, DEFAULT_SEED);
        let mut seen = HashSet::new();
        let mut requests = 0;
        for i in 0..plan.capacity() {
            let Ask::Ladder { design, ports, freqs } = plan.global(i).ask else { unreachable!() };
            assert_eq!(ports.len(), LADDER_PORTS);
            assert_eq!(freqs.len(), LADDER_FREQS);
            for &port in &ports {
                assert!(port < MESH_NODES);
                for &mhz in &freqs {
                    assert!(LADDER_MHZ.contains(&mhz));
                    assert!(seen.insert((design, port, mhz)), "repeat {design} {port} {mhz}");
                }
            }
            requests += 1;
        }
        assert_eq!(seen.len(), requests * LADDER_PORTS * LADDER_FREQS);
        assert!(plan.request(0, plan.capacity()).is_none());
    }

    #[test]
    fn warm_fixture_points_are_distinct_singletons() {
        let points = warm_points();
        let labels: HashSet<String> = points.iter().map(PointSpec::label).collect();
        assert_eq!(labels.len(), points.len());
    }
}
