//! The complete architecture configuration: the paper's "Arch. Config"
//! user input, extended with an explicit system level.

use serde::{Content, Deserialize, Serialize};

use crate::chip::ChipConfig;
use crate::core::CoreConfig;
use crate::memory::SegmentKind;
use crate::system::{InterChipTopology, SystemConfig};
use crate::{ArchError, Fnv1a};

/// The unified address map shared by the compiler and the simulator.
///
/// CIMFlow "implements a unified address space across both global and local
/// memories" (Sec. III-B): every core sees its own local memory at low
/// addresses and the chip-level global memory above
/// [`AddressMap::global_base`]. In a multi-chip system every chip has its
/// own instance of this map (chips are homogeneous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressMap {
    /// Size of the per-core local memory in bytes.
    pub local_size: u64,
    /// First byte address that refers to global memory.
    pub global_base: u64,
    /// Size of the global memory in bytes.
    pub global_size: u64,
    /// Size of one local-memory segment in bytes.
    pub segment_size: u64,
}

impl AddressMap {
    /// Whether `addr` falls into the global-memory window.
    pub fn is_global(&self, addr: u64) -> bool {
        addr >= self.global_base
    }

    /// Base address of a local-memory segment.
    pub fn segment_base(&self, kind: SegmentKind) -> u64 {
        let index = SegmentKind::ALL.iter().position(|k| *k == kind).unwrap_or(0) as u64;
        index * self.segment_size
    }

    /// Translates a global address into an offset inside global memory.
    pub fn global_offset(&self, addr: u64) -> u64 {
        addr.saturating_sub(self.global_base)
    }
}

/// The complete CIMFlow architecture configuration.
///
/// Combines the system-level description (the chip, how many chips, and
/// the inter-chip interconnect) with the core-level description (all
/// cores of all chips are homogeneous). It is the single hardware input
/// consumed by the compiler and the simulator.
///
/// # Example
///
/// ```
/// use cimflow_arch::ArchConfig;
///
/// # fn main() -> Result<(), cimflow_arch::ArchError> {
/// let arch = ArchConfig::paper_default()
///     .with_macros_per_group(4)
///     .with_flit_bytes(16)
///     .with_chip_count(2);
/// arch.validate()?;
/// assert_eq!(arch.core.cim_unit.macros_per_group, 4);
/// assert_eq!(arch.system.chip_count, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// System-level configuration: the chip (cores, NoC, global memory,
    /// clock), the chip count and the inter-chip interconnect.
    pub system: SystemConfig,
    /// Core-level configuration (identical for every core of every chip).
    pub core: CoreConfig,
}

impl ArchConfig {
    /// The default architecture of Table I (a single chip).
    pub fn paper_default() -> Self {
        ArchConfig {
            system: SystemConfig::single_chip(ChipConfig::paper_default()),
            core: CoreConfig::paper_default(),
        }
    }

    /// The chip-level configuration (shared by all chips of the system).
    pub fn chip(&self) -> &ChipConfig {
        &self.system.chip
    }

    /// Number of chips in the system.
    pub fn chip_count(&self) -> u32 {
        self.system.chip_count
    }

    /// Total cores across all chips.
    pub fn total_cores(&self) -> u32 {
        self.system.total_cores()
    }

    /// Returns a copy with a different macro-group size (macros per MG).
    pub fn with_macros_per_group(mut self, macros_per_group: u32) -> Self {
        self.core.cim_unit.macros_per_group = macros_per_group;
        self
    }

    /// Returns a copy with a different NoC flit size in bytes.
    pub fn with_flit_bytes(mut self, flit_bytes: u32) -> Self {
        self.system.chip.noc_flit_bytes = flit_bytes;
        self
    }

    /// Returns a copy with a different per-chip core count (mesh
    /// re-derived).
    pub fn with_core_count(mut self, core_count: u32) -> Self {
        self.system.chip = self.system.chip.with_core_count(core_count);
        self
    }

    /// Returns a copy with a different chip count (the `cimflow-dse`
    /// scale-out sweep axis).
    pub fn with_chip_count(mut self, chip_count: u32) -> Self {
        self.system.chip_count = chip_count;
        self
    }

    /// Returns a copy with a different inter-chip link bandwidth in bytes
    /// per cycle.
    pub fn with_interchip_link_bytes(mut self, bytes_per_cycle: u32) -> Self {
        self.system.interconnect.link_bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// Returns a copy with a different inter-chip link latency in cycles.
    pub fn with_interchip_link_latency(mut self, cycles: u32) -> Self {
        self.system.interconnect.link_latency_cycles = cycles;
        self
    }

    /// Returns a copy with a different inter-chip topology.
    pub fn with_interchip_topology(mut self, topology: InterChipTopology) -> Self {
        self.system.interconnect.topology = topology;
        self
    }

    /// Returns a copy with the global-memory port at a different mesh
    /// node.
    pub fn with_memory_port(mut self, node: u32) -> Self {
        self.system.chip.memory_port = node;
        self
    }

    /// Returns a copy with a different per-core local-memory capacity in
    /// bytes (the capacity must stay divisible by the segment count to
    /// validate).
    pub fn with_local_memory_bytes(mut self, size_bytes: u64) -> Self {
        self.core.local_memory.size_bytes = size_bytes;
        self
    }

    /// Returns a copy with a different per-core local-memory capacity in
    /// KiB (the sweep axis used by `cimflow-dse`).
    pub fn with_local_memory_kib(self, size_kib: u64) -> Self {
        self.with_local_memory_bytes(size_kib.saturating_mul(1024))
    }

    /// Returns a copy with a different clock frequency in MHz.
    pub fn with_frequency_mhz(mut self, frequency_mhz: u32) -> Self {
        self.system.chip.frequency_mhz = frequency_mhz;
        self
    }

    /// Total CIM weight capacity of one chip in bytes.
    pub fn chip_weight_capacity_bytes(&self) -> u64 {
        u64::from(self.system.chip.core_count) * self.core.weight_capacity_bytes()
    }

    /// Total CIM weight capacity of the whole system in bytes.
    pub fn system_weight_capacity_bytes(&self) -> u64 {
        u64::from(self.system.chip_count) * self.chip_weight_capacity_bytes()
    }

    /// Peak INT8 throughput of the system in tera-operations per second
    /// (counting one multiply and one add as two operations).
    pub fn peak_tops(&self) -> f64 {
        let macs_per_cycle = self.core.peak_macs_per_cycle() * f64::from(self.total_cores());
        macs_per_cycle * 2.0 * f64::from(self.system.chip.frequency_mhz) * 1.0e6 / 1.0e12
    }

    /// The unified address map implied by this configuration (identical
    /// on every chip).
    pub fn address_map(&self) -> AddressMap {
        let local_size = self.core.local_memory.size_bytes;
        // Round the global base up to the next power of two above local
        // memory so that local address arithmetic can never overflow into
        // the global window.
        let global_base = local_size.next_power_of_two().max(1 << 20);
        AddressMap {
            local_size,
            global_base,
            global_size: self.system.chip.global_memory.size_bytes,
            segment_size: self.core.local_memory.segment_bytes(),
        }
    }

    /// Validates every level of the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an
    /// [`ArchError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), ArchError> {
        self.system.validate()?;
        self.core.validate()?;
        Ok(())
    }

    /// Serializes the configuration to a pretty JSON string (the on-disk
    /// "architecture configuration file" format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ArchConfig serialization cannot fail")
    }

    /// Content hash over only the **compile-affecting** fields of the
    /// configuration — the share key for compilation results and
    /// simulation traces.
    ///
    /// Two configurations with the same fingerprint are guaranteed to
    /// compile any model to the identical `CompiledProgram` (same per-core
    /// instruction streams, same placement, same inter-chip cut), because
    /// the fields they may differ in are *timing-only*: the compiler never
    /// reads them, and the simulator only uses them to re-time the same
    /// executed work. The timing-only fields are:
    ///
    /// * `system.chip.frequency_mhz` — pure reporting scale (cycles →
    ///   seconds); no cycle count depends on it,
    /// * `system.chip.memory_port` — where the global-memory port sits on
    ///   the mesh; changes routing distance and contention, not the
    ///   instruction stream,
    /// * `system.chip.noc_hop_latency` — per-hop mesh latency,
    /// * `system.interconnect.*` — but **only on a single chip**, where
    ///   the fabric is never exercised. With `chip_count > 1` the
    ///   interconnect stays in the fingerprint: the system partitioner
    ///   scores chip splits with the link parameters, so they affect the
    ///   compile.
    ///
    /// Everything else (CIM unit, memories, vector unit, mesh shape and
    /// flit size, core/chip counts) shapes tiling, placement or code
    /// generation and therefore stays in the hash. The hash is [`Fnv1a`]
    /// over the canonical JSON of the configuration (streamed, never built
    /// as text) with the timing-only fields pinned to fixed sentinels, so
    /// it is stable across processes.
    pub fn compile_fingerprint(&self) -> u64 {
        let mut canonical = *self;
        canonical.system.chip.frequency_mhz = 0;
        canonical.system.chip.memory_port = 0;
        canonical.system.chip.noc_hop_latency = 1;
        if canonical.system.chip_count == 1 {
            canonical.system.interconnect = crate::system::InterChipConfig::paper_default();
        }
        let mut hash = Fnv1a::new();
        hash.write_json(&canonical);
        hash.finish()
    }

    /// Parses a configuration from JSON and validates it.
    ///
    /// Both the historical single-chip shape (`{"chip": …, "core": …}`)
    /// and the system shape (`{"system": …, "core": …}`) are accepted; a
    /// file without a system level describes a single chip.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ParseConfig`] for malformed JSON or an
    /// [`ArchError::InvalidConfig`] if the parsed configuration violates a
    /// structural invariant.
    pub fn from_json(text: &str) -> Result<Self, ArchError> {
        let config: ArchConfig = serde_json::from_str(text)
            .map_err(|e| ArchError::ParseConfig { reason: e.to_string() })?;
        config.validate()?;
        Ok(config)
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

// Manual serde keeps single-chip configurations byte-compatible with the
// historical chip-level format: a plain single-chip system (chip count 1,
// default interconnect) serializes as `{"chip": …, "core": …}` exactly as
// older engines wrote it — so existing configuration files, and the
// content hashes the evaluation cache derives from them, are unchanged —
// while any true multi-chip system serializes through its system level.
impl Serialize for ArchConfig {
    fn serialize(&self) -> Content {
        if self.system.is_single_chip_default() {
            Content::Map(vec![
                ("chip".to_owned(), Serialize::serialize(&self.system.chip)),
                ("core".to_owned(), Serialize::serialize(&self.core)),
            ])
        } else {
            Content::Map(vec![
                ("system".to_owned(), Serialize::serialize(&self.system)),
                ("core".to_owned(), Serialize::serialize(&self.core)),
            ])
        }
    }
}

impl Deserialize for ArchConfig {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map =
            content.as_map().ok_or_else(|| serde::Error::new("expected map for ArchConfig"))?;
        let system = match (serde::lookup(map, "system"), serde::lookup(map, "chip")) {
            (Some(system), _) => SystemConfig::deserialize(system)?,
            (None, Some(chip)) => SystemConfig::single_chip(ChipConfig::deserialize(chip)?),
            (None, None) => {
                return Err(serde::Error::new(
                    "ArchConfig needs either a `system` or a `chip` level",
                ))
            }
        };
        let core = serde::lookup(map, "core")
            .ok_or_else(|| serde::Error::new("missing field `core` in ArchConfig"))?;
        Ok(ArchConfig { system, core: Deserialize::deserialize(core)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_table_i() {
        let arch = ArchConfig::paper_default();
        assert!(arch.validate().is_ok());
        assert_eq!(arch.chip().core_count, 64);
        assert_eq!(arch.system.chip_count, 1);
        assert_eq!(arch.core.local_memory.size_bytes, 512 * 1024);
        assert_eq!(arch.chip().global_memory.size_bytes, 16 * 1024 * 1024);
        // 64 cores × 512 KiB of weights.
        assert_eq!(arch.chip_weight_capacity_bytes(), 32 * 1024 * 1024);
        assert_eq!(arch.system_weight_capacity_bytes(), 32 * 1024 * 1024);
    }

    #[test]
    fn peak_tops_is_physically_plausible() {
        let arch = ArchConfig::paper_default();
        let tops = arch.peak_tops();
        // 64 cores × 16 MGs × (512×64 MACs / 256 cycles) × 2 at 1 GHz ≈ 262 TOPS.
        assert!(tops > 10.0 && tops < 500.0, "peak {tops} TOPS out of plausible range");
        // The system level scales capacity and peak throughput linearly.
        let four = arch.with_chip_count(4);
        assert!((four.peak_tops() - 4.0 * tops).abs() < 1e-9);
        assert_eq!(four.system_weight_capacity_bytes(), 4 * arch.chip_weight_capacity_bytes());
    }

    #[test]
    fn sweep_builders_change_only_their_field() {
        let base = ArchConfig::paper_default();
        let swept = base.with_macros_per_group(12).with_flit_bytes(16);
        assert_eq!(swept.core.cim_unit.macros_per_group, 12);
        assert_eq!(swept.chip().noc_flit_bytes, 16);
        assert_eq!(swept.chip().core_count, base.chip().core_count);
        assert!(swept.validate().is_ok());
        // A capacity past `u64` bytes saturates instead of overflowing.
        assert_eq!(base.with_local_memory_kib(u64::MAX).core.local_memory.size_bytes, u64::MAX);
    }

    #[test]
    fn system_builders_change_only_their_field() {
        let base = ArchConfig::paper_default();
        let swept = base
            .with_chip_count(4)
            .with_interchip_link_bytes(64)
            .with_interchip_link_latency(100)
            .with_interchip_topology(InterChipTopology::Ring)
            .with_memory_port(9);
        assert_eq!(swept.system.chip_count, 4);
        assert_eq!(swept.system.interconnect.link_bytes_per_cycle, 64);
        assert_eq!(swept.system.interconnect.link_latency_cycles, 100);
        assert_eq!(swept.system.interconnect.topology, InterChipTopology::Ring);
        assert_eq!(swept.chip().memory_port, 9);
        assert_eq!(swept.chip().core_count, base.chip().core_count);
        assert_eq!(swept.total_cores(), 256);
        assert!(swept.validate().is_ok());
        assert!(base.with_chip_count(0).validate().is_err());
        assert!(base.with_memory_port(64).validate().is_err());
    }

    #[test]
    fn address_map_separates_local_and_global() {
        let map = ArchConfig::paper_default().address_map();
        assert!(!map.is_global(0));
        assert!(!map.is_global(map.local_size - 1));
        assert!(map.is_global(map.global_base));
        assert_eq!(map.global_offset(map.global_base + 100), 100);
        assert_eq!(map.segment_base(SegmentKind::Input), 0);
        assert!(map.segment_base(SegmentKind::Scratch) >= 3 * map.segment_size);
    }

    #[test]
    fn json_round_trip_and_validation() {
        let arch = ArchConfig::paper_default().with_macros_per_group(4);
        let text = arch.to_json();
        let back = ArchConfig::from_json(&text).unwrap();
        assert_eq!(back, arch);

        assert!(matches!(ArchConfig::from_json("{not json"), Err(ArchError::ParseConfig { .. })));

        let mut broken = arch;
        broken.system.chip.core_count = 0;
        assert!(ArchConfig::from_json(&broken.to_json()).is_err());
    }

    #[test]
    fn single_chip_systems_keep_the_historical_serialized_form() {
        // A plain single-chip configuration must serialize exactly as the
        // pre-system-level engine did: a top-level `chip` object and no
        // `system` key, so content hashes of cached evaluations for all
        // historical configurations are stable.
        let arch = ArchConfig::paper_default();
        let text = arch.to_json();
        assert!(text.contains("\"chip\""));
        assert!(!text.contains("\"system\""));
        assert!(!text.contains("chip_count"));

        // Multi-chip (or custom-interconnect) systems use the new shape …
        let multi = arch.with_chip_count(2);
        let text = multi.to_json();
        assert!(text.contains("\"system\""));
        assert_eq!(ArchConfig::from_json(&text).unwrap(), multi);

        // … and each chip count serializes distinctly.
        assert_ne!(arch.to_json(), arch.with_chip_count(2).to_json());
        assert_ne!(arch.with_chip_count(2).to_json(), arch.with_chip_count(4).to_json());
    }

    #[test]
    fn legacy_config_files_parse_as_single_chip() {
        let legacy = "{\"chip\": {\"core_count\": 64, \"mesh\": {\"width\": 8, \"height\": 8},\
            \"noc_flit_bytes\": 8, \"noc_hop_latency\": 1, \"global_memory\":\
            {\"size_bytes\": 16777216, \"bandwidth_bytes_per_cycle\": 128,\
            \"access_latency\": 20}, \"frequency_mhz\": 1000},\
            \"core\": CORE}"
            .replace("CORE", &serde_json::to_string(&CoreConfig::paper_default()).unwrap());
        let arch = ArchConfig::from_json(&legacy).unwrap();
        assert_eq!(arch, ArchConfig::paper_default());
        assert_eq!(arch.system.chip_count, 1);
    }

    #[test]
    fn dse_builder_setters_change_only_their_field() {
        let base = ArchConfig::paper_default();
        let swept = base.with_local_memory_kib(256).with_frequency_mhz(800);
        assert_eq!(swept.core.local_memory.size_bytes, 256 * 1024);
        assert_eq!(swept.chip().frequency_mhz, 800);
        assert_eq!(swept.chip().core_count, base.chip().core_count);
        assert!(swept.validate().is_ok());
        // Capacities that break the segment invariant are caught by
        // validation rather than silently accepted.
        assert!(base.with_local_memory_bytes(1022).validate().is_err());
    }

    #[test]
    fn compile_fingerprint_collides_exactly_on_timing_only_fields() {
        let base = ArchConfig::paper_default();
        // Two frequency-only variants collide on the fingerprint (the
        // trace/compile share-key contract).
        assert_eq!(
            base.with_frequency_mhz(500).compile_fingerprint(),
            base.with_frequency_mhz(1500).compile_fingerprint()
        );
        // The other timing-only fields collide too, alone and combined.
        assert_eq!(base.compile_fingerprint(), base.with_memory_port(27).compile_fingerprint());
        let mut slow_mesh = base;
        slow_mesh.system.chip.noc_hop_latency = 4;
        assert_eq!(base.compile_fingerprint(), slow_mesh.compile_fingerprint());
        assert_eq!(
            base.compile_fingerprint(),
            base.with_frequency_mhz(250).with_memory_port(63).compile_fingerprint()
        );
        // On one chip the (never exercised) interconnect is timing-inert.
        assert_eq!(
            base.compile_fingerprint(),
            base.with_interchip_link_bytes(64).compile_fingerprint()
        );

        // Compile-affecting fields separate.
        assert_ne!(base.compile_fingerprint(), base.with_macros_per_group(4).compile_fingerprint());
        assert_ne!(base.compile_fingerprint(), base.with_flit_bytes(16).compile_fingerprint());
        assert_ne!(base.compile_fingerprint(), base.with_core_count(16).compile_fingerprint());
        assert_ne!(base.compile_fingerprint(), base.with_chip_count(2).compile_fingerprint());
        assert_ne!(
            base.compile_fingerprint(),
            base.with_local_memory_kib(256).compile_fingerprint()
        );
        // With several chips the interconnect feeds the partition search,
        // so it stays in the fingerprint.
        let multi = base.with_chip_count(2);
        assert_ne!(
            multi.compile_fingerprint(),
            multi.with_interchip_link_bytes(64).compile_fingerprint()
        );
        assert_ne!(
            multi.compile_fingerprint(),
            multi.with_interchip_topology(InterChipTopology::Ring).compile_fingerprint()
        );
        // Timing-only fields still collide on multi-chip systems.
        assert_eq!(
            multi.compile_fingerprint(),
            multi.with_frequency_mhz(500).compile_fingerprint()
        );
    }

    #[test]
    fn smaller_core_count_reduces_capacity() {
        let small = ArchConfig::paper_default().with_core_count(16);
        assert!(
            small.chip_weight_capacity_bytes()
                < ArchConfig::paper_default().chip_weight_capacity_bytes()
        );
        assert!(small.validate().is_ok());
    }
}
