//! System-level abstraction: how many chips the platform integrates and
//! how they are interconnected.
//!
//! The paper's evaluation stops at one 64-core chip; the system level
//! scales past a single chip's weight capacity and MAC throughput by
//! replicating the chip and connecting the replicas through a package- or
//! board-level interconnect. A [`SystemConfig`] bundles the per-chip
//! description with the chip count and the [`InterChipConfig`]; an
//! [`ArchConfig`](crate::ArchConfig) carries it as its top level.

use serde::{Content, Deserialize, Serialize};

use crate::chip::ChipConfig;
use crate::ArchError;

/// Topology of the chip-to-chip interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum InterChipTopology {
    /// Every chip pair is connected by a dedicated full-duplex link
    /// (package-level point-to-point fabric); any transfer is one hop.
    PointToPoint,
    /// Chips form a ring; a transfer traverses `min(|i-j|, n-|i-j|)`
    /// links and queues behind other traffic on each of them.
    Ring,
}

/// Most cores a system may hold across all its chips: 65,536, 1,024
/// copies of Table I's 64-core chip. The compiler builds one program
/// per core, so a larger system fails validation instead.
pub const MAX_SYSTEM_CORES: u64 = 1 << 16;

/// Configuration of the inter-chip interconnect.
///
/// Links are flit-serialized exactly like the on-chip mesh, just with a
/// wider flit and a much larger per-hop latency: a transfer of `bytes`
/// occupies every traversed link for `ceil(bytes / link_bytes_per_cycle)`
/// cycles after a `link_latency_cycles` head-of-line delay per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(default)]
pub struct InterChipConfig {
    /// Link topology.
    pub topology: InterChipTopology,
    /// Link bandwidth in bytes per core-clock cycle (the inter-chip
    /// "flit" size; default 32 B ≈ a 256-bit SerDes lane bundle).
    pub link_bytes_per_cycle: u32,
    /// Head latency of one link traversal in core-clock cycles
    /// (serialization/deserialization plus time of flight).
    pub link_latency_cycles: u32,
}

impl InterChipConfig {
    /// Default interconnect: point-to-point links, 32 B/cycle,
    /// 64-cycle hop latency.
    pub fn paper_default() -> Self {
        InterChipConfig {
            topology: InterChipTopology::PointToPoint,
            link_bytes_per_cycle: 32,
            link_latency_cycles: 64,
        }
    }

    /// Number of link-serialization flits needed to carry `bytes`.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(u64::from(self.link_bytes_per_cycle.max(1)))
        }
    }

    /// Validates interconnect invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.link_bytes_per_cycle == 0 {
            return Err(ArchError::invalid(
                "system.interconnect.link_bytes_per_cycle",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for InterChipConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The system level of the architecture: one chip description, how many
/// copies of it the platform integrates, and the interconnect between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The (homogeneous) chip replicated across the system.
    pub chip: ChipConfig,
    /// Number of chips (1 = the paper's single-chip platform).
    #[serde(default = "one_chip")]
    pub chip_count: u32,
    /// Chip-to-chip interconnect.
    #[serde(default)]
    pub interconnect: InterChipConfig,
}

fn one_chip() -> u32 {
    1
}

impl SystemConfig {
    /// A single-chip system around `chip` with the default interconnect
    /// (which is never exercised at `chip_count == 1`).
    pub fn single_chip(chip: ChipConfig) -> Self {
        SystemConfig { chip, chip_count: 1, interconnect: InterChipConfig::paper_default() }
    }

    /// Whether this is the plain single-chip system with the default
    /// interconnect — the configuration whose serialized form (and hence
    /// content hash) must stay identical to the historical chip-level
    /// format.
    pub fn is_single_chip_default(&self) -> bool {
        self.chip_count == 1 && self.interconnect == InterChipConfig::paper_default()
    }

    /// Total cores across all chips.
    pub fn total_cores(&self) -> u32 {
        self.chip_count * self.chip.core_count
    }

    /// Validates system-level invariants (and the chip's).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.chip_count == 0 {
            return Err(ArchError::invalid("system.chip_count", "must be positive"));
        }
        let cores = u64::from(self.chip_count) * u64::from(self.chip.core_count);
        if cores > MAX_SYSTEM_CORES {
            return Err(ArchError::invalid(
                "system",
                format!("{cores} cores exceed the {MAX_SYSTEM_CORES}-core system bound"),
            ));
        }
        self.interconnect.validate()?;
        self.chip.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::single_chip(ChipConfig::paper_default())
    }
}

/// Accept both the tagged enum spelling (`"PointToPoint"`) and the
/// snake-case string a hand-written config file would use.
impl Deserialize for InterChipTopology {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        match content.as_str() {
            Some("PointToPoint" | "point_to_point") => Ok(InterChipTopology::PointToPoint),
            Some("Ring" | "ring") => Ok(InterChipTopology::Ring),
            Some(other) => Err(serde::Error::new(format!("unknown inter-chip topology `{other}`"))),
            None => Err(serde::Error::new(format!(
                "expected variant of InterChipTopology, found {}",
                content.kind_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_system_is_single_chip_and_valid() {
        let system = SystemConfig::default();
        assert_eq!(system.chip_count, 1);
        assert!(system.is_single_chip_default());
        assert_eq!(system.total_cores(), 64);
        assert!(system.validate().is_ok());
    }

    #[test]
    fn interconnect_flits_round_up() {
        let link = InterChipConfig::paper_default();
        assert_eq!(link.flits_for(0), 0);
        assert_eq!(link.flits_for(1), 1);
        assert_eq!(link.flits_for(32), 1);
        assert_eq!(link.flits_for(33), 2);
    }

    #[test]
    fn invalid_systems_are_rejected() {
        let system = SystemConfig { chip_count: 0, ..SystemConfig::default() };
        assert!(system.validate().is_err());
        let mut system = SystemConfig::default();
        system.interconnect.link_bytes_per_cycle = 0;
        assert!(system.validate().is_err());
    }

    #[test]
    fn systems_are_bounded_in_total_cores() {
        let chip = ChipConfig::paper_default();
        let at_bound = SystemConfig { chip_count: 1024, ..SystemConfig::single_chip(chip) };
        assert_eq!(u64::from(at_bound.total_cores()), MAX_SYSTEM_CORES);
        assert!(at_bound.validate().is_ok());
        let over = SystemConfig { chip_count: 1025, ..at_bound };
        let error = over.validate().unwrap_err().to_string();
        assert!(error.contains("65600 cores exceed the 65536-core system bound"), "{error}");
        // The product is taken in 64 bits, so it cannot wrap below the bound.
        let wide = SystemConfig {
            chip_count: u32::MAX,
            ..SystemConfig::single_chip(chip.with_core_count(u32::MAX))
        };
        assert!(wide.validate().is_err());
    }

    #[test]
    fn serde_round_trip_and_string_topologies() {
        let system = SystemConfig { chip_count: 4, ..SystemConfig::default() };
        let back: SystemConfig =
            serde_json::from_str(&serde_json::to_string(&system).unwrap()).unwrap();
        assert_eq!(back, system);
        assert_eq!(
            InterChipTopology::deserialize(&Content::Str("ring".into())).unwrap(),
            InterChipTopology::Ring
        );
        assert!(InterChipTopology::deserialize(&Content::Str("torus".into())).is_err());
    }

    #[test]
    fn omitted_system_fields_default() {
        // `chip` itself stays required: an empty chip map is an error.
        assert!(serde_json::from_str::<SystemConfig>("{\"chip\": {}}").is_err());

        let text = format!(
            "{{\"chip\": {}, \"chip_count\": 2, \"interconnect\": {{\"topology\": \"ring\"}}}}",
            serde_json::to_string(&ChipConfig::paper_default()).unwrap()
        );
        let system: SystemConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(system.chip_count, 2);
        assert_eq!(system.interconnect.topology, InterChipTopology::Ring);
        assert_eq!(
            system.interconnect.link_bytes_per_cycle,
            InterChipConfig::paper_default().link_bytes_per_cycle,
            "omitted link fields default"
        );
    }
}
