//! # cimflow-energy
//!
//! Energy, latency-support and area models for the CIMFlow framework.
//!
//! The original paper obtains its performance statistics from
//! "multiple industry-standard tools": post-layout analysis of the digital
//! CIM macro of Yan et al. (ISSCC 2022), memory compilers for the on-chip
//! SRAM, Design Compiler + PrimeTime PX for the digital logic, and Noxim
//! for the NoC. None of those tools are redistributable, so this crate
//! substitutes **parameterized analytical models with constants calibrated
//! to published 28 nm figures**. Absolute joules therefore
//! differ from the authors' testbed, but the *ratios* between component
//! energies — which drive every trend in Figs. 5–7 — are realistic:
//!
//! * CIM macro: ≈ 27 TOPS/W INT8 (ISSCC'22 macro) → ≈ 0.073 pJ per MAC.
//! * Local SRAM (512 KB): ≈ 0.4 pJ/byte read, 0.45 pJ/byte write.
//! * Global SRAM (16 MB): ≈ 2.4 pJ/byte access.
//! * NoC: ≈ 0.8 pJ per byte per hop plus router overhead.
//! * Vector/scalar/digital control: fractions of a pJ per operation.
//!
//! The [`EnergyModel`] aggregates the component models; its
//! [`EnergyBreakdown`] output feeds both the compiler's cost estimator and
//! the simulator's report, which is exactly the structure Fig. 6 plots
//! (local memory / compute / NoC energy per inference).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use cimflow_arch::ArchConfig;

/// Energy model of the digital CIM macro arrays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimEnergyModel {
    /// Energy per INT8 multiply-accumulate in picojoules.
    pub mac_pj: f64,
    /// Energy to program one weight byte into a macro in picojoules.
    pub weight_write_pj_per_byte: f64,
    /// Static energy per macro per cycle in picojoules (leakage).
    pub static_pj_per_macro_cycle: f64,
}

impl CimEnergyModel {
    /// Constants calibrated to the 28 nm ADC-less digital CIM macro of
    /// Yan et al. (ISSCC 2022): ≈ 27.4 TOPS/W at INT8.
    pub fn calibrated_28nm() -> Self {
        CimEnergyModel {
            mac_pj: 0.073,
            weight_write_pj_per_byte: 0.9,
            static_pj_per_macro_cycle: 0.002,
        }
    }

    /// Energy of `macs` multiply-accumulates.
    pub fn compute_pj(&self, macs: u64) -> f64 {
        self.mac_pj * macs as f64
    }

    /// Energy of programming `bytes` of weights into the arrays.
    pub fn weight_load_pj(&self, bytes: u64) -> f64 {
        self.weight_write_pj_per_byte * bytes as f64
    }
}

impl Default for CimEnergyModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

/// Energy model of the SRAM memories (local and global).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramEnergyModel {
    /// Local-memory read energy per byte in picojoules.
    pub local_read_pj_per_byte: f64,
    /// Local-memory write energy per byte in picojoules.
    pub local_write_pj_per_byte: f64,
    /// Global-memory access energy per byte in picojoules.
    pub global_pj_per_byte: f64,
}

impl SramEnergyModel {
    /// Constants representative of 28 nm memory-compiler output.
    pub fn calibrated_28nm() -> Self {
        SramEnergyModel {
            local_read_pj_per_byte: 0.40,
            local_write_pj_per_byte: 0.45,
            global_pj_per_byte: 2.4,
        }
    }

    /// Energy of reading `bytes` from local memory.
    pub fn local_read_pj(&self, bytes: u64) -> f64 {
        self.local_read_pj_per_byte * bytes as f64
    }

    /// Energy of writing `bytes` to local memory.
    pub fn local_write_pj(&self, bytes: u64) -> f64 {
        self.local_write_pj_per_byte * bytes as f64
    }

    /// Energy of accessing `bytes` of global memory.
    pub fn global_pj(&self, bytes: u64) -> f64 {
        self.global_pj_per_byte * bytes as f64
    }
}

impl Default for SramEnergyModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

/// Energy model of the NoC (the role Noxim plays in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocEnergyModel {
    /// Link traversal energy per byte per hop in picojoules.
    pub link_pj_per_byte_hop: f64,
    /// Router traversal energy per flit in picojoules.
    pub router_pj_per_flit: f64,
}

impl NocEnergyModel {
    /// Constants representative of a 28 nm mesh NoC.
    pub fn calibrated_28nm() -> Self {
        NocEnergyModel { link_pj_per_byte_hop: 0.8, router_pj_per_flit: 1.5 }
    }

    /// Energy of moving a packet of `flits` flits of `flit_bytes` each over
    /// `hops` hops.
    ///
    /// Link energy is charged for the full flit width regardless of how
    /// many payload bytes the last flit actually carries: wide links toggle
    /// all their wires. This padding effect is what makes poorly packed
    /// transfers on 16-byte links more expensive than on 8-byte links and
    /// reproduces the Fig. 6 observation that compact models spend a large
    /// energy share in the NoC at high link bandwidth.
    pub fn transfer_pj(&self, flits: u64, flit_bytes: u32, hops: u32) -> f64 {
        let wire_bytes = flits as f64 * f64::from(flit_bytes);
        self.link_pj_per_byte_hop * wire_bytes * f64::from(hops)
            + self.router_pj_per_flit * flits as f64 * f64::from(hops.max(1))
    }
}

impl Default for NocEnergyModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

/// Energy model of the chip-to-chip interconnect (package-level SerDes
/// links), exercised only by multi-chip systems.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterChipEnergyModel {
    /// Link traversal energy per byte per chip-to-chip hop in picojoules
    /// (an order of magnitude above the on-chip mesh: SerDes plus package
    /// traces).
    pub link_pj_per_byte_hop: f64,
    /// Per-packet protocol/framing overhead in picojoules.
    pub packet_pj: f64,
}

impl InterChipEnergyModel {
    /// Constants representative of short-reach package-level SerDes
    /// (≈ 1.25 pJ/bit → 10 pJ/byte).
    pub fn calibrated_28nm() -> Self {
        InterChipEnergyModel { link_pj_per_byte_hop: 10.0, packet_pj: 40.0 }
    }

    /// Energy of moving `bytes` over `hops` chip-to-chip links.
    pub fn transfer_pj(&self, bytes: u64, hops: u32) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.link_pj_per_byte_hop * bytes as f64 * f64::from(hops.max(1)) + self.packet_pj
    }
}

impl Default for InterChipEnergyModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

/// Energy model of the remaining digital logic (vector unit, scalar unit,
/// instruction fetch/decode) — the parts the paper synthesizes with Design
/// Compiler and measures with PrimeTime PX.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DigitalEnergyModel {
    /// Vector-unit energy per processed element in picojoules.
    pub vector_pj_per_elem: f64,
    /// Scalar ALU energy per operation in picojoules.
    pub scalar_pj_per_op: f64,
    /// Instruction fetch + decode energy per instruction in picojoules.
    pub issue_pj_per_inst: f64,
    /// Idle/static core energy per cycle in picojoules.
    pub static_pj_per_core_cycle: f64,
}

impl DigitalEnergyModel {
    /// Constants representative of 28 nm synthesis results.
    pub fn calibrated_28nm() -> Self {
        DigitalEnergyModel {
            vector_pj_per_elem: 0.12,
            scalar_pj_per_op: 0.45,
            issue_pj_per_inst: 0.35,
            static_pj_per_core_cycle: 1.2,
        }
    }
}

impl Default for DigitalEnergyModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

/// Per-component energy accumulation in picojoules.
///
/// This is the quantity Fig. 6 plots (stacked energy of local memory,
/// compute unit and NoC); `global_memory` and `control` are reported
/// separately in the detailed simulator report.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// CIM + vector + scalar compute energy.
    pub compute_pj: f64,
    /// Local-memory access energy.
    pub local_memory_pj: f64,
    /// NoC transfer energy.
    pub noc_pj: f64,
    /// Chip-to-chip interconnect energy (zero on single-chip systems).
    pub interchip_pj: f64,
    /// Global-memory access energy.
    pub global_memory_pj: f64,
    /// Instruction issue and static energy.
    pub control_pj: f64,
}

impl EnergyBreakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj
            + self.local_memory_pj
            + self.noc_pj
            + self.interchip_pj
            + self.global_memory_pj
            + self.control_pj
    }

    /// Total energy in millijoules (the unit of Fig. 6).
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1.0e-9
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.local_memory_pj += other.local_memory_pj;
        self.noc_pj += other.noc_pj;
        self.interchip_pj += other.interchip_pj;
        self.global_memory_pj += other.global_memory_pj;
        self.control_pj += other.control_pj;
    }

    /// Fraction of the total contributed by the NoC (used by the Fig. 6
    /// analysis of communication-dominated configurations).
    pub fn noc_share(&self) -> f64 {
        let total = self.total_pj();
        if total <= 0.0 {
            0.0
        } else {
            self.noc_pj / total
        }
    }
}

/// The complete energy model consumed by the compiler's cost estimator and
/// the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyModel {
    /// CIM array model.
    pub cim: CimEnergyModel,
    /// SRAM model (local + global).
    pub sram: SramEnergyModel,
    /// NoC model.
    pub noc: NocEnergyModel,
    /// Chip-to-chip interconnect model.
    pub interchip: InterChipEnergyModel,
    /// Remaining digital logic model.
    pub digital: DigitalEnergyModel,
}

impl EnergyModel {
    /// The default 28 nm-calibrated model.
    pub fn calibrated_28nm() -> Self {
        Self::default()
    }

    /// Estimated energy of executing `macs` multiply-accumulates on the
    /// CIM arrays, including reading the activations once from local
    /// memory and writing the results back.
    pub fn mvm_energy(&self, macs: u64, input_bytes: u64, output_bytes: u64) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: self.cim.compute_pj(macs),
            local_memory_pj: self.sram.local_read_pj(input_bytes)
                + self.sram.local_write_pj(output_bytes),
            ..EnergyBreakdown::default()
        }
    }

    /// Estimated energy of a NoC transfer of `flits` flits of `flit_bytes`
    /// each over `hops` hops.
    pub fn noc_energy(&self, flits: u64, flit_bytes: u32, hops: u32) -> EnergyBreakdown {
        EnergyBreakdown {
            noc_pj: self.noc.transfer_pj(flits, flit_bytes, hops),
            ..EnergyBreakdown::default()
        }
    }

    /// Estimated energy of a global-memory transfer of `bytes`.
    pub fn global_memory_energy(&self, bytes: u64) -> EnergyBreakdown {
        EnergyBreakdown {
            global_memory_pj: self.sram.global_pj(bytes),
            ..EnergyBreakdown::default()
        }
    }

    /// Estimated energy of an inter-chip transfer of `bytes` over `hops`
    /// chip-to-chip links.
    pub fn interchip_energy(&self, bytes: u64, hops: u32) -> EnergyBreakdown {
        EnergyBreakdown {
            interchip_pj: self.interchip.transfer_pj(bytes, hops),
            ..EnergyBreakdown::default()
        }
    }

    /// Static + leakage energy of the whole system (all chips) over
    /// `cycles` cycles.
    pub fn static_energy(&self, arch: &ArchConfig, cycles: u64) -> EnergyBreakdown {
        let cores = u64::from(arch.total_cores());
        let macros = cores * u64::from(arch.core.cim_unit.total_macros());
        EnergyBreakdown {
            compute_pj: self.cim.static_pj_per_macro_cycle * macros as f64 * cycles as f64,
            control_pj: self.digital.static_pj_per_core_cycle * cores as f64 * cycles as f64,
            ..EnergyBreakdown::default()
        }
    }
}

/// Silicon-area model of the accelerator, calibrated to published 28 nm
/// figures the same way the energy constants are.
///
/// Area is derived entirely from the [`ArchConfig`]: CIM macros, SRAM
/// capacities and core/chip counts each carry a per-unit area constant,
/// so every sweep axis that grows the machine (chips, cores, local
/// memory) grows the estimate. The absolute mm² are approximate — the
/// paper's authors had real floorplans — but the *ordering* between
/// design points is what the DSE's area objective and feasibility caps
/// consume, and that ordering is driven by the same capacity ratios a
/// floorplan would show.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Area of one digital CIM macro in mm² (ISSCC'22-class 28 nm macro).
    pub cim_mm2_per_macro: f64,
    /// Local (per-core) SRAM area per MiB in mm².
    pub local_sram_mm2_per_mib: f64,
    /// Global (per-chip) SRAM area per MiB in mm² (denser banking than
    /// the latency-optimized local arrays).
    pub global_sram_mm2_per_mib: f64,
    /// Remaining per-core digital logic (vector/scalar units, sequencer)
    /// in mm².
    pub core_logic_mm2: f64,
    /// One mesh router in mm² (one per core).
    pub router_mm2: f64,
    /// Fixed per-chip overhead (IO ring, PLLs, pads, SerDes) in mm².
    pub chip_overhead_mm2: f64,
}

impl AreaModel {
    /// Constants representative of 28 nm synthesis and memory-compiler
    /// output.
    pub fn calibrated_28nm() -> Self {
        AreaModel {
            cim_mm2_per_macro: 0.012,
            local_sram_mm2_per_mib: 0.50,
            global_sram_mm2_per_mib: 0.42,
            core_logic_mm2: 0.055,
            router_mm2: 0.02,
            chip_overhead_mm2: 2.0,
        }
    }

    /// Area of one core: its CIM macros, local SRAM, digital logic and
    /// mesh router.
    pub fn core_mm2(&self, arch: &ArchConfig) -> f64 {
        let macros = f64::from(arch.core.cim_unit.total_macros());
        let local_mib = arch.core.local_memory.size_bytes as f64 / (1024.0 * 1024.0);
        self.cim_mm2_per_macro * macros
            + self.local_sram_mm2_per_mib * local_mib
            + self.core_logic_mm2
            + self.router_mm2
    }

    /// Area of one chip: its cores, global SRAM and fixed overhead.
    pub fn chip_mm2(&self, arch: &ArchConfig) -> f64 {
        let global_mib = arch.chip().global_memory.size_bytes as f64 / (1024.0 * 1024.0);
        self.core_mm2(arch) * f64::from(arch.chip().core_count)
            + self.global_sram_mm2_per_mib * global_mib
            + self.chip_overhead_mm2
    }

    /// Total silicon area of the system (all chips) in mm² — the
    /// quantity the DSE's `area` objective minimizes and its feasibility
    /// caps bound.
    pub fn system_mm2(&self, arch: &ArchConfig) -> f64 {
        self.chip_mm2(arch) * f64::from(arch.chip_count())
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::calibrated_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cim_energy_matches_published_efficiency() {
        let model = CimEnergyModel::calibrated_28nm();
        // 27.4 TOPS/W <=> about 0.073 pJ per MAC (2 OPs per MAC).
        let tops_per_watt = 2.0 / model.mac_pj;
        assert!(
            (25.0..30.0).contains(&tops_per_watt),
            "calibration drifted: {tops_per_watt} TOPS/W"
        );
        assert_eq!(model.compute_pj(0), 0.0);
        assert!(model.compute_pj(1_000_000) > 0.0);
    }

    #[test]
    fn component_order_of_magnitude_is_sensible() {
        let m = EnergyModel::calibrated_28nm();
        // Moving a byte one hop costs more than one MAC but less than a
        // global-memory access.
        assert!(m.noc.link_pj_per_byte_hop > m.cim.mac_pj);
        assert!(m.sram.global_pj_per_byte > m.sram.local_read_pj_per_byte);
        assert!(m.sram.local_read_pj_per_byte > m.cim.mac_pj);
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut total = EnergyBreakdown::new();
        total.accumulate(&EnergyBreakdown { compute_pj: 10.0, ..Default::default() });
        total.accumulate(&EnergyBreakdown {
            noc_pj: 30.0,
            local_memory_pj: 20.0,
            ..Default::default()
        });
        assert_eq!(total.total_pj(), 60.0);
        assert!((total.noc_share() - 0.5).abs() < 1e-12);
        assert!((total.total_mj() - 60.0e-9).abs() < 1e-18);
        assert_eq!(EnergyBreakdown::new().noc_share(), 0.0);
    }

    #[test]
    fn mvm_energy_scales_linearly() {
        let m = EnergyModel::calibrated_28nm();
        let small = m.mvm_energy(1_000, 100, 100);
        let large = m.mvm_energy(10_000, 1_000, 1_000);
        assert!((large.compute_pj / small.compute_pj - 10.0).abs() < 1e-9);
        assert!((large.local_memory_pj / small.local_memory_pj - 10.0).abs() < 1e-9);
    }

    #[test]
    fn noc_energy_scales_with_hops_and_charges_padding() {
        let m = EnergyModel::calibrated_28nm();
        let near = m.noc_energy(8, 8, 1);
        let far = m.noc_energy(8, 8, 7);
        assert!(far.noc_pj > 5.0 * near.noc_pj);
        assert_eq!(m.noc_energy(0, 8, 3).noc_pj, 0.0);
        // Moving 40 bytes: 5 flits on an 8-byte link vs 3 flits on a
        // 16-byte link — the wide link toggles more wire bytes (48 > 40).
        let narrow_link = m.noc_energy(5, 8, 4);
        let wide_link = m.noc_energy(3, 16, 4);
        assert!(wide_link.noc_pj > narrow_link.noc_pj * 0.9);
    }

    #[test]
    fn static_energy_scales_with_chip_size_and_time() {
        let m = EnergyModel::calibrated_28nm();
        let arch = ArchConfig::paper_default();
        let small = m.static_energy(&arch, 1_000);
        let long = m.static_energy(&arch, 10_000);
        assert!(long.total_pj() > 9.0 * small.total_pj());
        let fewer_cores = m.static_energy(&arch.with_core_count(16), 1_000);
        assert!(fewer_cores.total_pj() < small.total_pj());
        // A multi-chip system leaks on every chip.
        let two_chips = m.static_energy(&arch.with_chip_count(2), 1_000);
        assert!((two_chips.total_pj() - 2.0 * small.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn interchip_energy_dwarfs_onchip_per_byte() {
        let m = EnergyModel::calibrated_28nm();
        assert!(m.interchip.link_pj_per_byte_hop > m.noc.link_pj_per_byte_hop);
        let transfer = m.interchip_energy(1024, 1);
        assert!(transfer.interchip_pj > 0.0);
        assert_eq!(m.interchip_energy(0, 1).interchip_pj, 0.0);
        let two_hops = m.interchip_energy(1024, 2);
        assert!(two_hops.interchip_pj > transfer.interchip_pj);
        assert!(transfer.total_pj() >= transfer.interchip_pj);
    }

    #[test]
    fn serde_round_trip() {
        let m = EnergyModel::calibrated_28nm();
        let text = serde_json::to_string(&m).unwrap();
        let back: EnergyModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn area_scales_with_every_capacity_axis() {
        let m = AreaModel::calibrated_28nm();
        let base = ArchConfig::paper_default();
        let mm2 = m.system_mm2(&base);
        assert!(mm2 > 0.0 && mm2.is_finite());
        // More chips, more cores, more local memory: all strictly larger.
        assert!((m.system_mm2(&base.with_chip_count(2)) - 2.0 * mm2).abs() < 1e-9);
        assert!(m.system_mm2(&base.with_core_count(16)) < mm2);
        assert!(m.system_mm2(&base.with_local_memory_kib(1024)) > mm2);
        // Fewer macros per group means fewer macros (the group count is
        // fixed), so the MG axis is a genuine area axis.
        assert!(m.system_mm2(&base.with_macros_per_group(2)) < mm2);
        // Chip area is dominated by its cores plus the global SRAM.
        assert!(m.chip_mm2(&base) > m.core_mm2(&base) * f64::from(base.chip().core_count));
    }

    #[test]
    fn area_model_serde_round_trip() {
        let m = AreaModel::calibrated_28nm();
        let text = serde_json::to_string(&m).unwrap();
        let back: AreaModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(AreaModel::default(), m);
    }
}
