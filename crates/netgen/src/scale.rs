//! The synthetic `scale` family: mesh-of-tiles designs sized by a target
//! cell count, built for throughput work rather than paper fidelity.
//!
//! The four paper benchmarks top out around 30 k gates at `scale = 1.0` —
//! right for golden-table comparisons, far too small to exercise the flat
//! data layouts (string arena, CSR connectivity, CSR timing levels) the
//! flow uses to stay fast at modern design sizes. This family fills the
//! 100 k–1 M-cell range: a grid of identical high-locality tiles (short
//! wires, deep cones) stitched through one low-locality crossbar block
//! (chip-spanning nets), so every kernel — partitioner, placer, router,
//! STA — sees both traffic patterns at scale.
//!
//! The family is intentionally **not** part of [`crate::Benchmark::ALL`]:
//! golden Tables VI/VII iterate that set, and their numbers are pinned to
//! the paper's four designs. Scale rungs live only in the scale ladder
//! (`tests/determinism.rs`, against `tests/golden/scale.json`), the
//! `benchmark/` package's `scale_flow` workload and tests that need big
//! inputs.

use crate::builder::generate;
use crate::spec::{BlockSpec, DesignSpec};
use m3d_netlist::Netlist;

/// Approximate cells contributed by one mesh tile (gates + registers;
/// the collector XOR trees add a few percent on top).
const TILE_GATES: usize = 1800;
const TILE_REGS: usize = 200;

/// Specification of a scale-family design with roughly `target_cells`
/// cells (gates + registers + ports; actual counts land within a few
/// percent of the target once the dangling-cone collectors are built).
///
/// The mesh tiles replicate until the target is met; the crossbar block
/// holds ~2.5 % of the cells at near-zero locality so the netlist keeps a
/// realistic share of global wiring at every size.
#[must_use]
pub fn scale_spec(target_cells: usize) -> DesignSpec {
    let target = target_cells.max(TILE_GATES + TILE_REGS);
    let xbar_gates = (target / 40).max(64);
    let xbar_regs = (target / 400).max(8);
    let tile_cells = TILE_GATES + TILE_REGS;
    let mesh_budget = target.saturating_sub(xbar_gates + xbar_regs);
    let tiles = (mesh_budget / tile_cells).max(1);
    DesignSpec {
        name: format!("scale{}k", target / 1000),
        primary_inputs: 64,
        primary_outputs: 64,
        blocks: vec![
            BlockSpec::new("mesh", TILE_GATES, 12, TILE_REGS, 0.88)
                .with_xor_bias(0.1)
                .replicated(tiles),
            BlockSpec::new("xbar", xbar_gates, 6, xbar_regs, 0.12).with_xor_bias(0.3),
        ],
        srams: vec![],
    }
}

/// Generates a scale-family netlist with roughly `target_cells` cells.
///
/// Deterministic for a given `(target_cells, seed)` pair, like every
/// generator in this crate.
#[must_use]
pub fn scale_netlist(target_cells: usize, seed: u64) -> Netlist {
    generate(&scale_spec(target_cells), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_netlist_hits_target_within_tolerance() {
        for target in [20_000usize, 60_000] {
            let n = scale_netlist(target, 5);
            n.validate().expect("valid netlist");
            let cells = n.cell_count();
            assert!(
                cells as f64 > 0.85 * target as f64 && (cells as f64) < 1.3 * target as f64,
                "target {target}: got {cells} cells"
            );
        }
    }

    #[test]
    fn scale_family_is_deterministic() {
        let a = scale_netlist(20_000, 9);
        let b = scale_netlist(20_000, 9);
        assert_eq!(a.cell_count(), b.cell_count());
        assert_eq!(a.stats().pins, b.stats().pins);
        assert_eq!(a.stats().kind_histogram, b.stats().kind_histogram);
    }

    #[test]
    fn scale_family_mixes_local_and_global_wiring() {
        let spec = scale_spec(100_000);
        assert!(spec.blocks[0].locality > 0.8, "mesh tiles are local");
        assert!(spec.blocks[1].locality < 0.2, "crossbar is global");
        assert!(spec.blocks[0].replicate > 10);
    }
}
