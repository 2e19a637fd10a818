//! Placement legality oracle.
//!
//! An independent check of what [`crate::try_legalize_with_stats`] promises, sharing no
//! code with it: every movable gate sits inside the die, centered on a
//! row of its own tier's pitch, clear of that tier's macro keep-outs and
//! of every other gate on the tier. It reads only the inputs and the
//! finished placement, so it can judge any legalizer.

use crate::floorplan::Floorplan;
use crate::placement::Placement;
use m3d_netlist::{CellClass, Netlist};
use m3d_tech::{Tier, TierStack};

/// Slack allowed on every geometric comparison, µm. Far below the
/// smallest cell dimension, far above rounding error on die-scale
/// coordinates.
const TOLERANCE_UM: f64 = 1e-6;

/// The first rule a placement breaks, with the cell(s) that break it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegalityViolation {
    /// The cell's outline leaves the die.
    OutsideDie { cell: usize },
    /// The cell is not centered on a row of its tier.
    OffRow { cell: usize },
    /// The cell's outline enters a macro keep-out of its tier.
    InKeepout { cell: usize },
    /// Two cells of one tier overlap.
    Overlap { a: usize, b: usize },
}

impl std::fmt::Display for LegalityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LegalityViolation::OutsideDie { cell } => write!(f, "cell #{cell} leaves the die"),
            LegalityViolation::OffRow { cell } => write!(f, "cell #{cell} is off its tier's rows"),
            LegalityViolation::InKeepout { cell } => {
                write!(f, "cell #{cell} sits in a macro keep-out")
            }
            LegalityViolation::Overlap { a, b } => write!(f, "cells #{a} and #{b} overlap"),
        }
    }
}

impl std::error::Error for LegalityViolation {}

/// Checks every movable gate of `placement` against the four legality
/// rules, tier by tier.
///
/// # Errors
///
/// Returns the first [`LegalityViolation`] found (cells in index order
/// for the per-cell rules, then overlaps in row order).
pub fn check_legality(
    netlist: &Netlist,
    placement: &Placement,
    fp: &Floorplan,
    stack: &TierStack,
    tiers: &[Tier],
) -> Result<(), LegalityViolation> {
    let die = fp.die;
    let keepouts = Tier::BOTH.map(|tier| fp.keepouts(tier));
    // (tier, row, left, right, cell) of every checked gate.
    let mut spans: Vec<(Tier, i64, f64, f64, usize)> = Vec::new();
    for (id, c) in netlist.cells() {
        let CellClass::Gate { kind, drive } = &c.class else {
            continue;
        };
        if c.fixed {
            continue;
        }
        let cell = id.index();
        let tier = tiers[cell];
        let lib = stack.library(tier);
        let Some(master) = lib.cell(*kind, *drive) else {
            continue;
        };
        let center = placement.positions[cell];
        let (half_w, half_h) = (master.width_um * 0.5, master.height_um * 0.5);
        let (left, right) = (center.x - half_w, center.x + half_w);
        let (bottom, top) = (center.y - half_h, center.y + half_h);

        if left < die.llx() - TOLERANCE_UM
            || right > die.urx() + TOLERANCE_UM
            || bottom < die.lly() - TOLERANCE_UM
            || top > die.ury() + TOLERANCE_UM
        {
            return Err(LegalityViolation::OutsideDie { cell });
        }

        let pitch = lib.cell_height_um;
        let rows = ((die.height() / pitch).floor() as i64).max(1);
        let row_pos = (center.y - die.lly()) / pitch - 0.5;
        let row = row_pos.round();
        if (row_pos - row).abs() * pitch > TOLERANCE_UM || row < 0.0 || row >= rows as f64 {
            return Err(LegalityViolation::OffRow { cell });
        }

        let inside = keepouts[tier.index()].iter().any(|k| {
            left < k.urx() - TOLERANCE_UM
                && right > k.llx() + TOLERANCE_UM
                && bottom < k.ury() - TOLERANCE_UM
                && top > k.lly() + TOLERANCE_UM
        });
        if inside {
            return Err(LegalityViolation::InKeepout { cell });
        }

        spans.push((tier, row as i64, left, right, cell));
    }

    // Within one row, sorted by left edge, any overlap shows up between
    // neighbours.
    spans.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.total_cmp(&b.2))
            .then(a.4.cmp(&b.4))
    });
    for pair in spans.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if (a.0, a.1) == (b.0, b.1) && b.2 < a.3 - TOLERANCE_UM {
            return Err(LegalityViolation::Overlap { a: a.4, b: b.4 });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{global_place, PlacerConfig};
    use crate::legal::try_legalize_with_stats;
    use m3d_netgen::Benchmark;

    /// A legalized heterogeneous placement with its inputs.
    fn hetero(
        bench: Benchmark,
        scale: f64,
    ) -> (Netlist, Vec<Tier>, Floorplan, TierStack, Placement) {
        let n = bench.generate(scale, 4);
        let stack = TierStack::heterogeneous();
        let tiers: Vec<Tier> = (0..n.cell_count())
            .map(|i| if i % 2 == 0 { Tier::Top } else { Tier::Bottom })
            .collect();
        let fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        let config = PlacerConfig {
            iterations: 6,
            ..PlacerConfig::default()
        };
        let global = global_place(&n, &fp, &config);
        let (legal, _) = try_legalize_with_stats(&n, &global, &fp, &stack, &tiers).unwrap();
        (n, tiers, fp, stack, legal)
    }

    #[test]
    fn large_heterogeneous_placement_is_legal_on_both_tiers() {
        let (n, tiers, fp, stack, legal) = hetero(Benchmark::Netcard, 0.5);
        assert!(n.gate_count() >= 20_000, "{} gates", n.gate_count());
        for tier in Tier::BOTH {
            assert!(tiers.contains(&tier));
        }
        assert_eq!(check_legality(&n, &legal, &fp, &stack, &tiers), Ok(()));
    }

    /// The first movable gate on `tier`.
    fn gate_on(n: &Netlist, tiers: &[Tier], tier: Tier) -> usize {
        n.cells()
            .find(|(id, c)| c.class.is_gate() && !c.fixed && tiers[id.index()] == tier)
            .map(|(id, _)| id.index())
            .expect("tier has a movable gate")
    }

    #[test]
    fn each_rule_is_reported() {
        let (n, tiers, fp, stack, legal) = hetero(Benchmark::Cpu, 0.05);
        assert_eq!(check_legality(&n, &legal, &fp, &stack, &tiers), Ok(()));
        let victim = gate_on(&n, &tiers, Tier::Top);

        let mut p = legal.clone();
        p.positions[victim].x = fp.die.urx() + 5.0;
        assert_eq!(
            check_legality(&n, &p, &fp, &stack, &tiers),
            Err(LegalityViolation::OutsideDie { cell: victim })
        );

        // A quarter pitch up: the 12-track row grid would not catch a
        // 9-track cell here either.
        let mut p = legal.clone();
        p.positions[victim].y += 0.25 * stack.library(Tier::Top).cell_height_um;
        assert_eq!(
            check_legality(&n, &p, &fp, &stack, &tiers),
            Err(LegalityViolation::OffRow { cell: victim })
        );

        let bottom = gate_on(&n, &tiers, Tier::Bottom);
        let keepout = *fp
            .keepouts(Tier::Bottom)
            .first()
            .expect("the CPU benchmark has macros");
        let pitch = stack.library(Tier::Bottom).cell_height_um;
        let row = ((keepout.center().y - fp.die.lly()) / pitch).floor() as usize;
        let mut p = legal.clone();
        p.positions[bottom] = m3d_geom::Point::new(
            keepout.center().x,
            crate::row_center(fp.die.lly(), row, pitch),
        );
        assert_eq!(
            check_legality(&n, &p, &fp, &stack, &tiers),
            Err(LegalityViolation::InKeepout { cell: bottom })
        );

        let other = n
            .cells()
            .find(|(id, c)| {
                c.class.is_gate()
                    && !c.fixed
                    && tiers[id.index()] == Tier::Top
                    && id.index() != victim
            })
            .map(|(id, _)| id.index())
            .expect("a second top-tier gate");
        let mut p = legal.clone();
        p.positions[other] = p.positions[victim];
        let err = check_legality(&n, &p, &fp, &stack, &tiers).unwrap_err();
        assert!(
            matches!(err, LegalityViolation::Overlap { a, b } if (a == victim && b == other) || (a == other && b == victim)),
            "{err}"
        );
    }
}
