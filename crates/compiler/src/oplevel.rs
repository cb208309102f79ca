//! OP-level optimization: virtual (im2col) mapping of operator loop nests
//! onto the 2-D CIM arrays, followed by physical mapping under the real
//! resource constraints (macro geometry, macro-group count, local-memory
//! capacity).
//!
//! The paper performs these transformations as MLIR passes; this module
//! implements the same decisions on an explicit loop-nest representation,
//! which needs no MLIR toolchain. The output of the phase is
//! an [`OpTiling`], the exact tile geometry the code generator lowers into
//! instructions.

use cimflow_arch::ArchConfig;

use crate::frontend::OpGroup;

/// One loop dimension of an operator's (virtually mapped) loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopDim {
    /// Loop label (`k`: reduction, `m`: output channel, `p`: output pixel).
    pub label: char,
    /// Trip count.
    pub extent: u32,
    /// Tile size chosen by the physical-mapping phase.
    pub tile: u32,
}

impl LoopDim {
    /// Number of tiles of this dimension.
    pub fn tiles(&self) -> u32 {
        self.extent.div_ceil(self.tile.max(1))
    }
}

/// The virtually mapped loop nest of an MVM operator: after im2col the
/// convolution becomes a `P × K × M` matrix multiplication whose `K × M`
/// weight matrix is laid over the CIM arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Output-pixel dimension (`oh × ow`, or 1 for fully connected layers).
    pub pixels: LoopDim,
    /// Reduction dimension (`in_c / groups × kh × kw`).
    pub reduction: LoopDim,
    /// Output-channel dimension.
    pub channels: LoopDim,
}

impl LoopNest {
    /// Builds the constraint-free virtual mapping of a condensed group:
    /// all tile sizes equal the full extents (an idealized CIM array with
    /// unlimited rows and columns).
    pub fn virtual_mapping(group: &OpGroup) -> Self {
        LoopNest {
            pixels: LoopDim {
                label: 'p',
                extent: group.metrics.out_pixels,
                tile: group.metrics.out_pixels,
            },
            reduction: LoopDim {
                label: 'k',
                extent: group.metrics.k_rows,
                tile: group.metrics.k_rows,
            },
            channels: LoopDim {
                label: 'm',
                extent: group.metrics.out_channels,
                tile: group.metrics.out_channels,
            },
        }
    }

    /// Applies the physical resource constraints: the reduction dimension
    /// is tiled to the macro height, the channel dimension to the
    /// macro-group width and the pixel dimension to what the local-memory
    /// segments can hold.
    pub fn tile(mut self, arch: &ArchConfig, pixel_tile: u32) -> Self {
        let unit = &arch.core.cim_unit;
        self.reduction.tile = self.reduction.extent.min(unit.rows_per_operation());
        self.channels.tile = self.channels.extent.min(unit.output_channels_per_group());
        self.pixels.tile = pixel_tile.clamp(1, self.pixels.extent.max(1));
        self
    }

    /// Total multiply-accumulates expressed by the nest.
    pub fn macs(&self) -> u64 {
        u64::from(self.pixels.extent)
            * u64::from(self.reduction.extent)
            * u64::from(self.channels.extent)
    }
}

/// The physical tiling of one operator group on one cluster of cores —
/// the final product of the OP-level optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiling {
    /// Reduction rows of the im2col weight matrix.
    pub k_rows: u32,
    /// Reduction-dimension tiles (`ceil(k_rows / macro rows)`).
    pub row_tiles: u32,
    /// Output channels assigned to each core of the cluster.
    pub out_channels_per_core: u32,
    /// Channel tiles per core (`ceil(out_channels_per_core / MG width)`).
    pub channel_tiles_per_core: u32,
    /// Macro groups used per core (`row_tiles × channel_tiles_per_core`).
    pub macro_groups_used: u32,
    /// Output pixels per pixel tile.
    pub pixel_tile: u32,
    /// Number of pixel tiles the cluster iterates over.
    pub pixel_tiles: u32,
    /// Output pixels assigned to the cluster.
    pub cluster_pixels: u32,
    /// im2col input bytes gathered per output pixel.
    pub input_bytes_per_pixel: u32,
    /// Output bytes produced per pixel per core.
    pub output_bytes_per_pixel_per_core: u32,
}

impl OpTiling {
    /// Plans the tiling of `group` on a cluster of `cores_per_replica`
    /// cores responsible for `cluster_pixels` output pixels.
    ///
    /// The tile-size search maximizes the pixel tile subject to the input
    /// gather buffer, the INT32 accumulator tile and the output tile all
    /// fitting their local-memory segments, mirroring the paper's
    /// "loop tiling based on resource capacity constraints ... determines
    /// the optimal tile sizes ... while respecting resource limitations at
    /// each memory hierarchy".
    pub fn plan(
        group: &OpGroup,
        arch: &ArchConfig,
        cores_per_replica: u32,
        cluster_pixels: u32,
    ) -> Self {
        let unit = &arch.core.cim_unit;
        let k_rows = group.metrics.k_rows.max(1);
        let row_tiles = k_rows.div_ceil(unit.rows_per_operation());
        let out_channels_per_core =
            group.metrics.out_channels.div_ceil(cores_per_replica.max(1)).max(1);
        let channel_tiles_per_core =
            out_channels_per_core.div_ceil(unit.output_channels_per_group());
        let macro_groups_used = (row_tiles * channel_tiles_per_core).min(unit.macro_groups);

        let segment = arch.core.local_memory.segment_bytes().max(1);
        let input_bytes_per_pixel = k_rows;
        let output_bytes_per_pixel = out_channels_per_core;
        let acc_bytes_per_pixel = out_channels_per_core * 4;
        // Largest pixel tile whose working set fits the segments.
        let by_input = (segment / u64::from(input_bytes_per_pixel.max(1))).max(1) as u32;
        let by_output = (segment / u64::from(output_bytes_per_pixel.max(1))).max(1) as u32;
        let by_acc = (segment / u64::from(acc_bytes_per_pixel.max(1))).max(1) as u32;
        let pixel_tile = by_input.min(by_output).min(by_acc).clamp(1, cluster_pixels.max(1));
        let pixel_tiles = cluster_pixels.max(1).div_ceil(pixel_tile);

        OpTiling {
            k_rows,
            row_tiles,
            out_channels_per_core,
            channel_tiles_per_core,
            macro_groups_used,
            pixel_tile,
            pixel_tiles,
            cluster_pixels: cluster_pixels.max(1),
            input_bytes_per_pixel,
            output_bytes_per_pixel_per_core: output_bytes_per_pixel,
        }
    }

    /// CIM MVM operations issued per output pixel on one core.
    pub fn mvms_per_pixel(&self) -> u32 {
        self.row_tiles * self.channel_tiles_per_core
    }

    /// Intra-core weight duplication factor: how many copies of the weight
    /// tile fit into the otherwise vacant macro groups of one core. The
    /// paper's macro groups "support weight duplication and flexible
    /// spatial mapping"; duplicating small operators across vacant MGs
    /// lets several output pixels proceed in parallel inside one core.
    pub fn intra_core_duplication(&self, total_macro_groups: u32) -> u32 {
        (total_macro_groups / self.mvms_per_pixel().max(1)).clamp(1, 16)
    }

    /// Weight bytes resident per core for this tiling.
    pub fn weight_bytes_per_core(&self) -> u64 {
        u64::from(self.k_rows) * u64::from(self.out_channels_per_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::CondensedGraph;
    use cimflow_arch::ArchConfig;
    use cimflow_nn::models;

    fn groups() -> CondensedGraph {
        CondensedGraph::from_graph(&models::resnet18(64).graph).unwrap()
    }

    #[test]
    fn virtual_mapping_is_constraint_free_and_preserves_macs() {
        let condensed = groups();
        for group in condensed.groups() {
            let nest = LoopNest::virtual_mapping(group);
            assert_eq!(nest.pixels.tile, nest.pixels.extent);
            assert_eq!(nest.macs(), group.metrics.macs, "{}", group.name);
        }
    }

    #[test]
    fn physical_tiling_respects_macro_geometry() {
        let arch = ArchConfig::paper_default();
        let condensed = groups();
        for group in condensed.groups() {
            let nest = LoopNest::virtual_mapping(group).tile(&arch, 64);
            assert!(nest.reduction.tile <= arch.core.cim_unit.rows_per_operation());
            assert!(nest.channels.tile <= arch.core.cim_unit.output_channels_per_group());
            assert!(nest.pixels.tile <= nest.pixels.extent.max(1));
            assert!(nest.reduction.tiles() >= 1);
        }
    }

    #[test]
    fn tiling_covers_all_pixels_and_fits_local_memory() {
        let arch = ArchConfig::paper_default();
        let condensed = groups();
        for group in condensed.groups() {
            let tiling = OpTiling::plan(group, &arch, 2, group.metrics.out_pixels);
            assert!(
                u64::from(tiling.pixel_tile) * u64::from(tiling.input_bytes_per_pixel)
                    <= arch.core.local_memory.segment_bytes()
            );
            assert!(tiling.pixel_tiles * tiling.pixel_tile >= tiling.cluster_pixels);
            assert!(tiling.macro_groups_used <= arch.core.cim_unit.macro_groups);
            assert!(tiling.mvms_per_pixel() >= 1);
            assert!(tiling.weight_bytes_per_core() > 0);
        }
    }

    #[test]
    fn more_cores_reduce_per_core_channels() {
        let arch = ArchConfig::paper_default();
        let condensed = groups();
        let big = condensed.groups().iter().max_by_key(|g| g.metrics.out_channels).unwrap();
        let one = OpTiling::plan(big, &arch, 1, big.metrics.out_pixels);
        let four = OpTiling::plan(big, &arch, 4, big.metrics.out_pixels);
        assert!(four.out_channels_per_core < one.out_channels_per_core);
        assert!(four.weight_bytes_per_core() < one.weight_bytes_per_core());
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let arch = ArchConfig::paper_default();
        let condensed = groups();
        let group = &condensed.groups()[0];
        let tiling = OpTiling::plan(group, &arch, 1, 0);
        assert_eq!(tiling.cluster_pixels, 1);
        assert!(tiling.pixel_tile >= 1);
    }
}
