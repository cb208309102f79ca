//! Declarative sweep grids: the serializable [`SweepSpec`] and its
//! expansion into concrete design points.
//!
//! A sweep is data, not code: it can be written as a JSON file and fed to
//! the `cimflow-dse` CLI, or built programmatically with the builder
//! methods. Every axis left empty pins the corresponding parameter to the
//! base architecture's value, so a spec only names the axes it actually
//! explores.

use cimflow_arch::ArchConfig;
use cimflow_compiler::{SearchMode, Strategy};
use cimflow_traffic::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::DseError;

/// Most points [`SweepSpec::expand`] materializes: 65,536. A sweep holds
/// each point as a `PointSpec` (104 B on 64-bit targets) and then a `Job`
/// (320 B), so the cap bounds one expansion at about 26.5 MiB before
/// admission control runs; a ~2 KB wire `sweep` with four 100-value axes
/// would otherwise ask for 10⁸ points, about 42 GB. The explorer walks
/// [`SweepSpec::axes`] without expanding, so larger spaces stay
/// explorable.
pub const MAX_EXPANDED_POINTS: usize = 1 << 16;

/// A benchmark model reference: zoo name plus input resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model-zoo name (`resnet18`, `vgg19`, `mobilenetv2`,
    /// `efficientnetb0`).
    pub name: String,
    /// Input resolution in pixels (the paper uses 224; 32–64 keeps the
    /// graph structure while running in seconds).
    pub resolution: u32,
}

impl ModelSpec {
    /// Creates a model reference.
    pub fn new(name: impl Into<String>, resolution: u32) -> Self {
        ModelSpec { name: name.into(), resolution }
    }
}

/// The serving-traffic section of a sweep: an offered-QPS axis plus the
/// workload preset every point serves.
///
/// When present, every design point additionally runs the serving-mode
/// simulator ([`Simulator::serve`](cimflow_sim::Simulator::serve)) at
/// each offered rate, and evaluations carry SLO metrics (p50/p99/max
/// latency under load, goodput, saturation QPS) next to the classic
/// single-inference report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct TrafficSpec {
    /// Offered request rates in requests/second — the sweep axis
    /// (required non-empty).
    pub offered_qps: Vec<u64>,
    /// The rate-free workload preset (arrival shape, seed, horizon,
    /// batching knobs, mix).
    pub workload: WorkloadSpec,
    /// Serve **all** models of the sweep co-located on each point's
    /// system (time-shared, per-model queues). When `false` each point
    /// serves only its own model.
    pub colocate: bool,
}

impl TrafficSpec {
    /// A traffic section over `offered_qps` with the default Poisson
    /// preset, no co-location.
    pub fn new(offered_qps: &[u64]) -> Self {
        TrafficSpec {
            offered_qps: offered_qps.to_vec(),
            workload: WorkloadSpec::default(),
            colocate: false,
        }
    }

    /// Sets the workload preset.
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Serves all sweep models co-located on each point's system.
    #[must_use]
    pub fn colocated(mut self) -> Self {
        self.colocate = true;
        self
    }
}

/// A declarative architectural sweep over the CIMFlow design space.
///
/// The grid is the cartesian product of all non-empty axes, expanded in a
/// fixed order (model, strategy, search mode, chip count, core count,
/// local memory, flit size, macro-group size) so results are
/// deterministic regardless of how many workers evaluate them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct SweepSpec {
    /// Optional sweep name (used in report headers).
    pub name: Option<String>,
    /// Base architecture; `None` means the paper's Table I default.
    pub base: Option<ArchConfig>,
    /// Models to evaluate (at least one required).
    pub models: Vec<ModelSpec>,
    /// Compilation strategies (at least one required).
    pub strategies: Vec<Strategy>,
    /// System-level search modes; empty pins every point to the default
    /// [`SearchMode::Sequential`].
    pub search_modes: Vec<SearchMode>,
    /// Macro-group sizes (macros per MG); empty keeps the base value.
    pub mg_sizes: Vec<u32>,
    /// NoC flit sizes in bytes; empty keeps the base value.
    pub flit_sizes: Vec<u32>,
    /// Chip counts (the scale-out axis); empty keeps the base value.
    pub chip_counts: Vec<u32>,
    /// Core counts (the mesh is re-derived); empty keeps the base value.
    pub core_counts: Vec<u32>,
    /// Per-core local-memory capacities in KiB; empty keeps the base
    /// value.
    pub local_memory_kib: Vec<u64>,
    /// Clock frequencies in MHz; empty keeps the base value. A
    /// **timing-only** axis: points differing only here share one
    /// compiled program, so the service replays a recorded trace
    /// instead of recompiling.
    pub frequencies_mhz: Vec<u32>,
    /// Global-memory-port mesh placements (node index); empty keeps the
    /// base value. Timing-only, like `frequencies_mhz`.
    pub memory_ports: Vec<u32>,
    /// Serving-traffic section: an offered-QPS axis plus the workload
    /// preset. `None` keeps the classic single-inference evaluation.
    pub traffic: Option<TrafficSpec>,
    /// Worker threads of the pool the CLI runs the sweep on; `None`
    /// sizes it to the machine.
    pub workers: Option<usize>,
}

impl SweepSpec {
    /// Creates an empty sweep over the paper-default base architecture.
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Sets the sweep name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the base architecture.
    #[must_use]
    pub fn with_base(mut self, base: ArchConfig) -> Self {
        self.base = Some(base);
        self
    }

    /// Adds a model axis entry.
    #[must_use]
    pub fn with_model(mut self, name: impl Into<String>, resolution: u32) -> Self {
        self.models.push(ModelSpec::new(name, resolution));
        self
    }

    /// Sets the strategy axis.
    #[must_use]
    pub fn with_strategies(mut self, strategies: &[Strategy]) -> Self {
        self.strategies = strategies.to_vec();
        self
    }

    /// Sets the search-mode axis.
    #[must_use]
    pub fn with_search_modes(mut self, modes: &[SearchMode]) -> Self {
        self.search_modes = modes.to_vec();
        self
    }

    /// Sets the macro-group-size axis.
    #[must_use]
    pub fn with_mg_sizes(mut self, sizes: &[u32]) -> Self {
        self.mg_sizes = sizes.to_vec();
        self
    }

    /// Sets the flit-size axis.
    #[must_use]
    pub fn with_flit_sizes(mut self, sizes: &[u32]) -> Self {
        self.flit_sizes = sizes.to_vec();
        self
    }

    /// Sets the chip-count axis.
    #[must_use]
    pub fn with_chip_counts(mut self, counts: &[u32]) -> Self {
        self.chip_counts = counts.to_vec();
        self
    }

    /// Sets the core-count axis.
    #[must_use]
    pub fn with_core_counts(mut self, counts: &[u32]) -> Self {
        self.core_counts = counts.to_vec();
        self
    }

    /// Sets the local-memory-capacity axis (KiB).
    #[must_use]
    pub fn with_local_memory_kib(mut self, capacities: &[u64]) -> Self {
        self.local_memory_kib = capacities.to_vec();
        self
    }

    /// Sets the clock-frequency axis (MHz; timing-only).
    #[must_use]
    pub fn with_frequencies_mhz(mut self, frequencies: &[u32]) -> Self {
        self.frequencies_mhz = frequencies.to_vec();
        self
    }

    /// Sets the memory-port-placement axis (timing-only).
    #[must_use]
    pub fn with_memory_ports(mut self, ports: &[u32]) -> Self {
        self.memory_ports = ports.to_vec();
        self
    }

    /// Attaches a serving-traffic section (offered-QPS axis + workload
    /// preset); every point then also runs the serving-mode simulator.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// The base architecture of the sweep.
    pub fn base_arch(&self) -> ArchConfig {
        self.base.unwrap_or_else(ArchConfig::paper_default)
    }

    /// Number of grid points the spec expands to, or `None` when the
    /// count overflows `usize` (such a grid fails [`Self::axes`]).
    fn checked_point_count(&self) -> Option<usize> {
        let axis = |len: usize| len.max(1);
        [
            self.models.len(),
            axis(self.strategies.len()),
            axis(self.search_modes.len()),
            axis(self.chip_counts.len()),
            axis(self.core_counts.len()),
            axis(self.local_memory_kib.len()),
            axis(self.flit_sizes.len()),
            axis(self.mg_sizes.len()),
            axis(self.frequencies_mhz.len()),
            axis(self.memory_ports.len()),
            axis(self.traffic.as_ref().map_or(0, |t| t.offered_qps.len())),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
    }

    /// Number of grid points the spec expands to; `usize::MAX` for a grid
    /// too large to count, which [`Self::axes`] rejects.
    pub fn point_count(&self) -> usize {
        self.checked_point_count().unwrap_or(usize::MAX)
    }

    /// Resolves every axis of the sweep against the base architecture:
    /// the random-access view of the grid the adaptive exploration engine
    /// navigates (axis-index vectors instead of a materialized cartesian
    /// product), so its size is bounded only by what `usize` counts.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] when the spec names no model or no
    /// strategy (the same contract as [`Self::expand`]), or when its
    /// point count overflows `usize`.
    pub fn axes(&self) -> Result<SweepAxes, DseError> {
        if self.models.is_empty() {
            return Err(DseError::spec("the `models` axis must name at least one model"));
        }
        if self.strategies.is_empty() {
            return Err(DseError::spec("the `strategies` axis must name at least one strategy"));
        }
        if self.checked_point_count().is_none() {
            return Err(DseError::spec("the grid has more points than a usize can count"));
        }
        if let Some(traffic) = &self.traffic {
            if traffic.offered_qps.is_empty() {
                return Err(DseError::spec(
                    "the `traffic.offered_qps` axis must name at least one rate",
                ));
            }
            if traffic.offered_qps.contains(&0) {
                return Err(DseError::spec("`traffic.offered_qps` rates must be positive"));
            }
        }
        let base = self.base_arch();
        Ok(SweepAxes {
            models: self.models.clone(),
            strategies: self.strategies.clone(),
            search_modes: if self.search_modes.is_empty() {
                vec![SearchMode::default()]
            } else {
                self.search_modes.clone()
            },
            chip_counts: effective_axis(&self.chip_counts, base.chip_count()),
            core_counts: effective_axis(&self.core_counts, base.chip().core_count),
            local_memory_kib: effective_axis(
                &self.local_memory_kib,
                base.core.local_memory.size_bytes / 1024,
            ),
            flit_sizes: effective_axis(&self.flit_sizes, base.chip().noc_flit_bytes),
            mg_sizes: effective_axis(&self.mg_sizes, base.core.cim_unit.macros_per_group),
            frequencies_mhz: effective_axis(&self.frequencies_mhz, base.chip().frequency_mhz),
            memory_ports: effective_axis(&self.memory_ports, base.chip().memory_port),
            offered_qps: match &self.traffic {
                Some(traffic) => traffic.offered_qps.clone(),
                None => vec![0],
            },
        })
    }

    /// Expands the cartesian grid into concrete points.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] when the spec names no model or no
    /// strategy (an empty grid is almost certainly a config mistake), or
    /// when the grid holds more than [`MAX_EXPANDED_POINTS`] points.
    pub fn expand(&self) -> Result<Vec<PointSpec>, DseError> {
        let axes = self.axes()?;
        let points = axes.point_count();
        if points > MAX_EXPANDED_POINTS {
            return Err(DseError::spec(format!(
                "the grid has {points} points, more than the {MAX_EXPANDED_POINTS} a sweep \
                 expands; explore a larger space with `cimflow-dse explore`"
            )));
        }
        Ok((0..points).map(|flat| axes.point(axes.indices_of(flat))).collect())
    }

    /// Serializes the spec to pretty JSON (the on-disk sweep file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SweepSpec serialization cannot fail")
    }

    /// Parses a spec from JSON.
    ///
    /// All axes and the `base`/`name`/`workers` fields may be omitted;
    /// omitted axes pin the corresponding parameter to the base value.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, DseError> {
        serde_json::from_str(text).map_err(|e| DseError::spec(e.to_string()))
    }
}

fn effective_axis<T: Copy + Into<u64>>(values: &[T], base: T) -> Vec<u64> {
    if values.is_empty() {
        vec![base.into()]
    } else {
        values.iter().map(|&v| v.into()).collect()
    }
}

/// Number of independent axes of a sweep grid (the length of a
/// [`SweepAxes`] index vector), in expansion order: model, strategy,
/// search mode, chip count, core count, local memory, flit size, MG
/// size, frequency, memory port, offered QPS. The two timing-only axes
/// and the offered-QPS axis sit innermost so the points of one trace
/// group are adjacent in grid order (QPS never affects compilation or
/// even single-inference timing — only the serving workload).
pub const AXIS_COUNT: usize = 11;

/// The resolved axes of a sweep grid: every empty [`SweepSpec`] axis
/// pinned to its base-architecture value, addressable by `(axis,
/// value-index)` coordinates.
///
/// A grid point is an [`AXIS_COUNT`]-long index vector; `point` builds
/// the concrete [`PointSpec`] and `indices_of` maps a flat grid-order
/// index (the order [`SweepSpec::expand`] materializes — the last axis
/// varies fastest) back to coordinates. This is the representation the
/// exploration engine mutates and crosses over, so neighborhood moves
/// are "step one axis to an adjacent value" rather than string surgery
/// on labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// The model axis (never empty).
    pub models: Vec<ModelSpec>,
    /// The strategy axis (never empty).
    pub strategies: Vec<Strategy>,
    /// The search-mode axis (defaulted to `[Sequential]` when unset).
    pub search_modes: Vec<SearchMode>,
    /// The chip-count axis.
    pub chip_counts: Vec<u64>,
    /// The core-count axis.
    pub core_counts: Vec<u64>,
    /// The local-memory axis in KiB.
    pub local_memory_kib: Vec<u64>,
    /// The flit-size axis in bytes.
    pub flit_sizes: Vec<u64>,
    /// The macro-group-size axis.
    pub mg_sizes: Vec<u64>,
    /// The clock-frequency axis in MHz (timing-only).
    pub frequencies_mhz: Vec<u64>,
    /// The memory-port-placement axis (timing-only).
    pub memory_ports: Vec<u64>,
    /// The offered-QPS axis (`[0]` when the sweep has no traffic
    /// section — serving disabled).
    pub offered_qps: Vec<u64>,
}

impl SweepAxes {
    /// Axis lengths in expansion order.
    pub fn dims(&self) -> [usize; AXIS_COUNT] {
        [
            self.models.len(),
            self.strategies.len(),
            self.search_modes.len(),
            self.chip_counts.len(),
            self.core_counts.len(),
            self.local_memory_kib.len(),
            self.flit_sizes.len(),
            self.mg_sizes.len(),
            self.frequencies_mhz.len(),
            self.memory_ports.len(),
            self.offered_qps.len(),
        ]
    }

    /// Number of grid points (the product of the axis lengths).
    pub fn point_count(&self) -> usize {
        self.dims().iter().product()
    }

    /// The concrete design point at an index vector.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of its axis' range.
    pub fn point(&self, indices: [usize; AXIS_COUNT]) -> PointSpec {
        PointSpec {
            model: self.models[indices[0]].clone(),
            strategy: self.strategies[indices[1]],
            search: self.search_modes[indices[2]],
            chip_count: self.chip_counts[indices[3]],
            core_count: self.core_counts[indices[4]],
            local_memory_kib: self.local_memory_kib[indices[5]],
            flit_bytes: self.flit_sizes[indices[6]],
            mg_size: self.mg_sizes[indices[7]],
            frequency_mhz: self.frequencies_mhz[indices[8]],
            memory_port: self.memory_ports[indices[9]],
            offered_qps: self.offered_qps[indices[10]],
        }
    }

    /// Decodes a flat grid-order index (0-based, `< point_count()`) into
    /// its index vector; the last axis varies fastest, matching
    /// [`SweepSpec::expand`]'s nesting order exactly.
    ///
    /// # Panics
    ///
    /// Panics when `flat >= point_count()`.
    pub fn indices_of(&self, flat: usize) -> [usize; AXIS_COUNT] {
        assert!(flat < self.point_count(), "flat index {flat} out of the grid");
        let dims = self.dims();
        let mut indices = [0; AXIS_COUNT];
        let mut remaining = flat;
        for axis in (0..AXIS_COUNT).rev() {
            indices[axis] = remaining % dims[axis];
            remaining /= dims[axis];
        }
        indices
    }

    /// Encodes an index vector back to its flat grid-order index (the
    /// inverse of [`Self::indices_of`]).
    pub fn flat_of(&self, indices: [usize; AXIS_COUNT]) -> usize {
        let dims = self.dims();
        let mut flat = 0;
        for axis in 0..AXIS_COUNT {
            debug_assert!(indices[axis] < dims[axis]);
            flat = flat * dims[axis] + indices[axis];
        }
        flat
    }
}

/// One fully resolved design point of a sweep grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointSpec {
    /// The model evaluated at this point.
    pub model: ModelSpec,
    /// The compilation strategy.
    pub strategy: Strategy,
    /// The system-level search mode the point compiles under.
    pub search: SearchMode,
    /// Number of chips in the system.
    pub chip_count: u64,
    /// Per-chip core count.
    pub core_count: u64,
    /// Per-core local memory in KiB.
    pub local_memory_kib: u64,
    /// NoC flit size in bytes.
    pub flit_bytes: u64,
    /// Macro-group size (macros per MG).
    pub mg_size: u64,
    /// Clock frequency in MHz (timing-only).
    pub frequency_mhz: u64,
    /// Global-memory-port mesh placement (timing-only).
    pub memory_port: u64,
    /// Offered request rate in requests/second; `0` means the point runs
    /// no serving workload (the classic single-inference evaluation).
    pub offered_qps: u64,
}

impl PointSpec {
    /// Builds the concrete architecture of this point from a base
    /// configuration.
    ///
    /// Axes whose value equals the base's are **not** re-applied, so a
    /// pinned (or matching) axis leaves the base untouched: a custom
    /// base with, say, a hand-picked non-squarest mesh or a non-KiB
    /// local-memory capacity is never silently normalized by the
    /// builder setters.
    pub fn arch(&self, base: &ArchConfig) -> ArchConfig {
        let mut arch = *base;
        if self.chip_count != u64::from(base.chip_count()) {
            arch = arch.with_chip_count(self.chip_count as u32);
        }
        if self.core_count != u64::from(base.chip().core_count) {
            arch = arch.with_core_count(self.core_count as u32);
        }
        if self.local_memory_kib != base.core.local_memory.size_bytes / 1024 {
            arch = arch.with_local_memory_kib(self.local_memory_kib);
        }
        if self.flit_bytes != u64::from(base.chip().noc_flit_bytes) {
            arch = arch.with_flit_bytes(self.flit_bytes as u32);
        }
        if self.mg_size != u64::from(base.core.cim_unit.macros_per_group) {
            arch = arch.with_macros_per_group(self.mg_size as u32);
        }
        if self.frequency_mhz != u64::from(base.chip().frequency_mhz) {
            arch = arch.with_frequency_mhz(self.frequency_mhz as u32);
        }
        if self.memory_port != u64::from(base.chip().memory_port) {
            arch = arch.with_memory_port(self.memory_port as u32);
        }
        arch
    }

    /// Compact human-readable label (used in progress lines). The search
    /// mode and the timing-only axes are only spelled out when they
    /// deviate from the paper default, so historical sweep logs keep
    /// their shape.
    pub fn label(&self) -> String {
        let search = match self.search {
            SearchMode::Sequential => String::new(),
            other => format!(" search={other}"),
        };
        let paper = ArchConfig::paper_default();
        let mut timing = String::new();
        if self.frequency_mhz != u64::from(paper.chip().frequency_mhz) {
            timing.push_str(&format!(" freq={}MHz", self.frequency_mhz));
        }
        if self.memory_port != u64::from(paper.chip().memory_port) {
            timing.push_str(&format!(" port={}", self.memory_port));
        }
        if self.offered_qps != 0 {
            timing.push_str(&format!(" qps={}", self.offered_qps));
        }
        format!(
            "{}@{} {}{search} chips={} cores={} lmem={}KiB flit={}B mg={}{timing}",
            self.model.name,
            self.model.resolution,
            self.strategy,
            self.chip_count,
            self.core_count,
            self.local_memory_kib,
            self.flit_bytes,
            self.mg_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec3() -> SweepSpec {
        SweepSpec::new()
            .named("unit")
            .with_model("mobilenetv2", 32)
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
            .with_mg_sizes(&[4, 8])
            .with_flit_sizes(&[8, 16])
            .with_core_counts(&[16, 64])
    }

    #[test]
    fn expansion_covers_the_cartesian_product_in_order() {
        let spec = spec3();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), spec.point_count());
        assert_eq!(points.len(), 2 * 2 * 2 * 2 * 2);
        // Innermost axis varies fastest.
        assert_eq!(points[0].mg_size, 4);
        assert_eq!(points[1].mg_size, 8);
        assert_eq!(points[0].flit_bytes, points[1].flit_bytes);
        // Empty axes pin to the base architecture's value.
        assert!(points.iter().all(|p| p.local_memory_kib == 512));
        // Outermost axis is the model.
        assert_eq!(points.first().unwrap().model.name, "mobilenetv2");
        assert_eq!(points.last().unwrap().model.name, "resnet18");
    }

    #[test]
    fn empty_model_or_strategy_axes_are_rejected() {
        assert!(SweepSpec::new().expand().is_err());
        assert!(SweepSpec::new().with_model("resnet18", 32).expand().is_err());
        assert!(SweepSpec::new().with_strategies(&[Strategy::DpOptimized]).expand().is_err());
        assert!(SweepSpec::new().axes().is_err());
    }

    /// A `values`-long axis of distinct entries.
    fn axis(values: u32) -> Vec<u32> {
        (1..=values).collect()
    }

    #[test]
    fn grids_above_the_cap_walk_their_axes_but_do_not_expand() {
        // About 2 KB of JSON asking for 10^8 points.
        let spec = SweepSpec::new()
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_chip_counts(&axis(100))
            .with_core_counts(&axis(100))
            .with_flit_sizes(&axis(100))
            .with_frequencies_mhz(&axis(100));
        let points = spec.point_count();
        assert_eq!(points, 100_000_000);
        assert_eq!(
            spec.axes().expect("the explorer walks any countable grid").point_count(),
            points
        );
        match spec.expand() {
            Err(DseError::Spec { reason }) => {
                assert!(reason.contains(&MAX_EXPANDED_POINTS.to_string()), "{reason}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
        // The cap itself still expands.
        let at_cap = SweepSpec::new()
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_frequencies_mhz(&axis(1 << 8))
            .with_memory_ports(&axis(1 << 8));
        assert_eq!(at_cap.expand().unwrap().len(), MAX_EXPANDED_POINTS);
    }

    #[test]
    fn grids_that_overflow_the_point_count_are_spec_errors() {
        let mut spec =
            SweepSpec::new().with_model("resnet18", 32).with_strategies(&[Strategy::DpOptimized]);
        spec.search_modes = vec![SearchMode::Sequential; 1000];
        let spec = spec
            .with_chip_counts(&axis(1000))
            .with_core_counts(&axis(1000))
            .with_local_memory_kib(&(1..=1000).collect::<Vec<u64>>())
            .with_flit_sizes(&axis(1000))
            .with_mg_sizes(&axis(1000))
            .with_frequencies_mhz(&axis(1000));
        assert_eq!(spec.point_count(), usize::MAX, "the count saturates");
        for result in [spec.axes().map(|_| ()), spec.expand().map(|_| ())] {
            match result {
                Err(DseError::Spec { reason }) => assert!(reason.contains("usize"), "{reason}"),
                other => panic!("expected a spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn axes_index_arithmetic_round_trips_the_grid() {
        let spec = spec3().with_chip_counts(&[1, 2]);
        let axes = spec.axes().unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(axes.point_count(), points.len());
        assert_eq!(axes.point_count(), spec.point_count());
        for (flat, point) in points.iter().enumerate() {
            let indices = axes.indices_of(flat);
            assert_eq!(&axes.point(indices), point, "grid order matches expand at {flat}");
            assert_eq!(axes.flat_of(indices), flat);
        }
        // Pinned axes resolve to the base value.
        assert_eq!(axes.local_memory_kib, vec![512]);
        assert_eq!(axes.search_modes, vec![SearchMode::Sequential]);
    }

    #[test]
    fn json_round_trip_and_partial_files() {
        let spec = spec3();
        let text = spec.to_json();
        let back = SweepSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);

        // Sweeps are config files: omitted axes default.
        let partial = SweepSpec::from_json(
            "{\"models\": [{\"name\": \"resnet18\", \"resolution\": 32}],\
              \"strategies\": [\"dp\"], \"mg_sizes\": [4, 16]}",
        )
        .unwrap();
        assert_eq!(partial.point_count(), 2);
        let points = partial.expand().unwrap();
        assert_eq!(points[0].flit_bytes, 8);
        assert_eq!(points[0].strategy, Strategy::DpOptimized);

        assert!(SweepSpec::from_json("{oops").is_err());
    }

    #[test]
    fn chip_axis_round_trips_and_expands_between_strategy_and_cores() {
        let spec = SweepSpec::new()
            .named("multichip")
            .with_model("vgg19", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_chip_counts(&[1, 2, 4]);
        assert_eq!(spec.point_count(), 3);
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let points = spec.expand().unwrap();
        assert_eq!(points.iter().map(|p| p.chip_count).collect::<Vec<_>>(), vec![1, 2, 4]);
        // The chip axis varies slower than every per-chip axis …
        let spec = spec.with_mg_sizes(&[4, 8]);
        let points = spec.expand().unwrap();
        assert_eq!(
            points.iter().map(|p| (p.chip_count, p.mg_size)).collect::<Vec<_>>(),
            vec![(1, 4), (1, 8), (2, 4), (2, 8), (4, 4), (4, 8)]
        );
        // … and the point architecture scales out.
        let quad = points.last().unwrap().arch(&spec.base_arch());
        assert_eq!(quad.chip_count(), 4);
        assert_eq!(quad.total_cores(), 256);
        assert!(points.last().unwrap().label().contains("chips=4"));
    }

    #[test]
    fn search_axis_round_trips_and_expands_between_strategy_and_chips() {
        let spec = SweepSpec::new()
            .named("search")
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_search_modes(&[SearchMode::Sequential, SearchMode::Joint])
            .with_chip_counts(&[1, 2]);
        assert_eq!(spec.point_count(), 4);
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let points = spec.expand().unwrap();
        // The search axis varies slower than the chip axis …
        assert_eq!(
            points.iter().map(|p| (p.search, p.chip_count)).collect::<Vec<_>>(),
            vec![
                (SearchMode::Sequential, 1),
                (SearchMode::Sequential, 2),
                (SearchMode::Joint, 1),
                (SearchMode::Joint, 2),
            ]
        );
        // … and only non-default modes surface in the label.
        assert!(!points[0].label().contains("search="));
        assert!(points[2].label().contains("search=joint"));
        // Sweep files without the axis pin every point to Sequential.
        let legacy = SweepSpec::from_json(
            "{\"models\": [{\"name\": \"resnet18\", \"resolution\": 32}], \"strategies\": [\"dp\"]}",
        )
        .unwrap();
        assert!(legacy.expand().unwrap().iter().all(|p| p.search == SearchMode::Sequential));
    }

    #[test]
    fn sweep_files_without_a_chip_axis_default_to_one_chip() {
        // The pre-existing example sweep file predates the chip axis; it
        // must keep parsing and pin every point to a single chip.
        let text = include_str!("../../../sweeps/example.json");
        let spec = SweepSpec::from_json(text).unwrap();
        assert!(spec.chip_counts.is_empty());
        let points = spec.expand().unwrap();
        assert!(!points.is_empty());
        assert!(points.iter().all(|p| p.chip_count == 1));
        assert!(points.iter().all(|p| p.arch(&spec.base_arch()).system.is_single_chip_default()));
    }

    #[test]
    fn pinned_axes_never_normalize_a_custom_base() {
        // A hand-picked non-squarest mesh (16 cores as 16x1) must survive
        // a sweep that does not touch the core-count axis.
        let mut base = ArchConfig::paper_default().with_core_count(16);
        base.system.chip.mesh = cimflow_arch::MeshDimensions::new(16, 1);
        assert!(base.validate().is_ok());
        let spec = SweepSpec::new()
            .with_base(base)
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8]);
        for point in spec.expand().unwrap() {
            let arch = point.arch(&spec.base_arch());
            assert_eq!(
                arch.chip().mesh,
                base.chip().mesh,
                "pinned core count keeps the custom mesh"
            );
            assert_eq!(arch.core.local_memory, base.core.local_memory);
        }
    }

    #[test]
    fn timing_axes_expand_innermost_and_apply_to_the_arch() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[500, 1000])
            .with_memory_ports(&[0, 27]);
        assert_eq!(spec.point_count(), 4);
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let points = spec.expand().unwrap();
        // The timing axes are innermost: the port varies fastest.
        assert_eq!(
            points.iter().map(|p| (p.frequency_mhz, p.memory_port)).collect::<Vec<_>>(),
            vec![(500, 0), (500, 27), (1000, 0), (1000, 27)]
        );
        let arch = points[1].arch(&spec.base_arch());
        assert_eq!(arch.chip().frequency_mhz, 500);
        assert_eq!(arch.chip().memory_port, 27);
        assert!(arch.validate().is_ok());
        // All four points share one compile fingerprint — they form one
        // trace group.
        let fingerprints: std::collections::HashSet<u64> =
            points.iter().map(|p| p.arch(&spec.base_arch()).compile_fingerprint()).collect();
        assert_eq!(fingerprints.len(), 1);
        // Labels mention only non-default timing values, keeping
        // historical log shapes.
        assert!(points[1].label().contains("freq=500MHz"));
        assert!(points[1].label().contains("port=27"));
        assert!(!points[2].label().contains("freq="));
        // Old sweep files (no timing axes) pin to the base values.
        let legacy = SweepSpec::from_json(
            "{\"models\": [{\"name\": \"resnet18\", \"resolution\": 32}], \"strategies\": [\"dp\"]}",
        )
        .unwrap();
        let base = legacy.base_arch();
        assert!(legacy.expand().unwrap().iter().all(|p| {
            p.frequency_mhz == u64::from(base.chip().frequency_mhz)
                && p.memory_port == u64::from(base.chip().memory_port)
        }));
    }

    #[test]
    fn traffic_section_adds_an_innermost_qps_axis() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
            .with_traffic(TrafficSpec::new(&[100, 1000, 10_000]));
        assert_eq!(spec.point_count(), 6);
        let points = spec.expand().unwrap();
        // QPS varies fastest — all rates of one design share its trace.
        assert_eq!(
            points.iter().map(|p| (p.mg_size, p.offered_qps)).collect::<Vec<_>>(),
            vec![(4, 100), (4, 1000), (4, 10_000), (8, 100), (8, 1000), (8, 10_000)]
        );
        assert!(points[0].label().contains("qps=100"));
        // The rate never touches the architecture.
        assert_eq!(points[0].arch(&spec.base_arch()), points[2].arch(&spec.base_arch()));
        // Round trips through JSON, including the workload preset.
        let spec = SweepSpec::new()
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_traffic(
                TrafficSpec::new(&[500])
                    .with_workload(WorkloadSpec { requests: 64, ..WorkloadSpec::default() })
                    .colocated(),
            );
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // An empty QPS axis is a config mistake, and rate 0 is reserved
        // for "serving disabled".
        let empty = spec.clone().with_traffic(TrafficSpec::new(&[]));
        assert!(empty.axes().is_err());
        assert!(spec.with_traffic(TrafficSpec::new(&[0])).axes().is_err());
        // Sweep files without a traffic section disable serving.
        let legacy = SweepSpec::from_json(
            "{\"models\": [{\"name\": \"resnet18\", \"resolution\": 32}], \"strategies\": [\"dp\"]}",
        )
        .unwrap();
        assert!(legacy.traffic.is_none());
        assert!(legacy.expand().unwrap().iter().all(|p| p.offered_qps == 0));
    }

    #[test]
    fn point_arch_applies_every_axis() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4])
            .with_flit_sizes(&[16])
            .with_core_counts(&[16])
            .with_local_memory_kib(&[256]);
        let point = &spec.expand().unwrap()[0];
        let arch = point.arch(&spec.base_arch());
        assert_eq!(arch.core.cim_unit.macros_per_group, 4);
        assert_eq!(arch.chip().noc_flit_bytes, 16);
        assert_eq!(arch.chip().core_count, 16);
        assert_eq!(arch.core.local_memory.size_bytes, 256 * 1024);
        assert!(arch.validate().is_ok());
    }
}
