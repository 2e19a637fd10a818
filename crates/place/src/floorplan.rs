use m3d_geom::{Point, Rect};
use m3d_netlist::{CellClass, CellId, Netlist};
use m3d_tech::{Tier, TierStack};

/// Die outline, macro placement and per-tier row geometry.
///
/// The floorplan implements the paper's area methodology: the die is sized
/// so that standard cells reach the target utilization. For a 3-D stack
/// the two tiers share the outline and the footprint is set by the more
/// occupied tier, which is how the heterogeneous design's total silicon
/// area drops by ~12.5 % (half the cells shrink by 25 %).
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Die outline (shared by both tiers in 3-D).
    pub die: Rect,
    /// Standard-cell area per tier, µm².
    pub cell_area: [f64; 2],
    /// Macro outlines with their owning cell and tier (macros go to the
    /// fast/bottom tier in 3-D configurations).
    pub macros: Vec<(CellId, Tier, Rect)>,
    /// Target utilization used for sizing.
    pub utilization: f64,
}

impl Floorplan {
    /// Sizes a die for `netlist` under the given tier assignment.
    ///
    /// Standard-cell area per tier comes from each cell's library binding;
    /// macros are placed as fixed blocks along the left edge and their
    /// area is added to the bottom tier's demand.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]`.
    #[must_use]
    pub fn new(netlist: &Netlist, stack: &TierStack, tiers: &[Tier], utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0,1]"
        );
        let mut cell_area = [0.0_f64; 2];
        let mut macro_area = 0.0;
        let mut macro_cells: Vec<(CellId, f64, f64)> = Vec::new();
        for (id, cell) in netlist.cells() {
            match &cell.class {
                CellClass::Gate { kind, drive } => {
                    let tier = tiers[id.index()];
                    if let Some(m) = stack.library(tier).cell(*kind, *drive) {
                        cell_area[tier.index()] += m.area_um2;
                    }
                }
                CellClass::Macro(spec) => {
                    macro_area += spec.area_um2();
                    macro_cells.push((id, spec.width_um, spec.height_um));
                }
                _ => {}
            }
        }

        // Footprint: per the paper's methodology, the shared 3-D outline
        // is sized to maintain the target utilization *on average* across
        // tiers (the denser tier may exceed it) — this is what realizes
        // the heterogeneous 12.5 % silicon saving. 2-D dies use the single
        // tier's demand.
        // Macros occupy one tier only; in 3-D the logic displaced by a
        // macro simply lives on the other tier above it, so macro area
        // joins the shared budget instead of growing the outline — but the
        // outline must still be large enough for each individual tier
        // (macros + that tier's cells must fit on the bottom).
        let total = if stack.is_3d() {
            // Shared budget at the *target* utilization; each tier is
            // additionally allowed to run dense (up to MAX_TIER_UTIL, the
            // paper's hetero bottom tiers reach 82-88 %) before the
            // outline must grow.
            const MAX_TIER_UTIL: f64 = 0.92;
            let shared = ((cell_area[0] + cell_area[1]) / utilization + macro_area * 1.15) * 0.5;
            let bottom = cell_area[0] / MAX_TIER_UTIL + macro_area * 1.15;
            let top = cell_area[1] / MAX_TIER_UTIL;
            shared.max(bottom).max(top)
        } else {
            (cell_area[0] + cell_area[1]) / utilization + macro_area * 1.15
        };
        let side = total.sqrt().max(2.0);
        let die = Rect::new(0.0, 0.0, side, side);

        // Stack macros along the left edge, bottom-up.
        let mut macros = Vec::new();
        let mut y = 0.0;
        let mut x = 0.0;
        let mut col_w: f64 = 0.0;
        for (id, w, h) in macro_cells {
            if y + h > side {
                x += col_w;
                y = 0.0;
                col_w = 0.0;
            }
            let r = Rect::new(x, y, (x + w).min(side), (y + h).min(side));
            macros.push((id, Tier::Bottom, r));
            y += h;
            col_w = col_w.max(w);
        }

        Floorplan {
            die,
            cell_area,
            macros,
            utilization,
        }
    }

    /// Total silicon area: footprint per fabricated tier, µm².
    #[must_use]
    pub fn silicon_area_um2(&self, is_3d: bool) -> f64 {
        let per_tier = self.die.area();
        if is_3d {
            per_tier * 2.0
        } else {
            per_tier
        }
    }

    /// Standard-cell density of `tier` (cell area / placeable area).
    #[must_use]
    pub fn density(&self, tier: Tier) -> f64 {
        let blocked: f64 = self
            .macros
            .iter()
            .filter(|(_, t, _)| *t == tier)
            .map(|(_, _, r)| r.area())
            .sum();
        let placeable = (self.die.area() - blocked).max(1e-9);
        self.cell_area[tier.index()] / placeable
    }

    /// Average standard-cell density across occupied tiers.
    #[must_use]
    pub fn overall_density(&self, is_3d: bool) -> f64 {
        if is_3d {
            (self.density(Tier::Bottom) + self.density(Tier::Top)) * 0.5
        } else {
            self.density(Tier::Bottom)
        }
    }

    /// Chip width, µm.
    #[must_use]
    pub fn width_um(&self) -> f64 {
        self.die.width()
    }

    /// Keep-out rectangles on `tier`.
    #[must_use]
    pub fn keepouts(&self, tier: Tier) -> Vec<Rect> {
        self.macros
            .iter()
            .filter(|(_, t, _)| *t == tier)
            .map(|(_, _, r)| *r)
            .collect()
    }

    /// Evenly spaced I/O pad location for the `i`-th of `n` ports, walking
    /// the die perimeter counter-clockwise from the lower-left corner.
    #[must_use]
    pub fn io_position(&self, i: usize, n: usize) -> Point {
        let per = 2.0 * (self.die.width() + self.die.height());
        let d = per * (i as f64 + 0.5) / n.max(1) as f64;
        let w = self.die.width();
        let h = self.die.height();
        let (llx, lly) = (self.die.llx(), self.die.lly());
        if d < w {
            Point::new(llx + d, lly)
        } else if d < w + h {
            Point::new(llx + w, lly + (d - w))
        } else if d < 2.0 * w + h {
            Point::new(llx + w - (d - w - h), lly + h)
        } else {
            Point::new(llx, lly + h - (d - 2.0 * w - h))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::Library;

    fn netlist_with_macro() -> Netlist {
        let mut n = m3d_netgen::Benchmark::Cpu.generate(0.02, 1);
        let _ = &mut n;
        n
    }

    #[test]
    fn die_meets_utilization() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 1);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let density = fp.density(Tier::Bottom);
        assert!(
            (density - 0.7).abs() < 0.08,
            "density {density} should be near target"
        );
    }

    #[test]
    fn nine_track_die_is_smaller() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 1);
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let twelve = Floorplan::new(&n, &TierStack::two_d(Library::twelve_track()), &tiers, 0.7);
        let nine = Floorplan::new(&n, &TierStack::two_d(Library::nine_track()), &tiers, 0.7);
        let ratio = nine.die.area() / twelve.die.area();
        assert!((ratio - 0.75).abs() < 0.02, "area ratio {ratio}");
    }

    #[test]
    fn three_d_footprint_is_half() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 1);
        let stack = TierStack::homogeneous_3d(Library::twelve_track());
        let two_d_tiers = vec![Tier::Bottom; n.cell_count()];
        let fp2d = Floorplan::new(
            &n,
            &TierStack::two_d(Library::twelve_track()),
            &two_d_tiers,
            0.7,
        );
        // Balanced split halves each tier's demand.
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        for (i, t) in tiers.iter_mut().enumerate() {
            if i % 2 == 0 {
                *t = Tier::Top;
            }
        }
        let fp3d = Floorplan::new(&n, &stack, &tiers, 0.7);
        let ratio = fp3d.die.area() / fp2d.die.area();
        assert!((0.4..0.62).contains(&ratio), "footprint ratio {ratio}");
        // Same total silicon.
        let si_ratio = fp3d.silicon_area_um2(true) / fp2d.silicon_area_um2(false);
        assert!((0.85..1.2).contains(&si_ratio), "Si ratio {si_ratio}");
    }

    #[test]
    fn macros_do_not_overlap() {
        let n = netlist_with_macro();
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        assert!(fp.macros.len() >= 2);
        for i in 0..fp.macros.len() {
            for j in i + 1..fp.macros.len() {
                assert!(
                    !fp.macros[i].2.intersects(&fp.macros[j].2),
                    "macros {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn io_positions_lie_on_perimeter() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 1);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        for i in 0..16 {
            let p = fp.io_position(i, 16);
            let on_x = (p.x - fp.die.llx()).abs() < 1e-9 || (p.x - fp.die.urx()).abs() < 1e-9;
            let on_y = (p.y - fp.die.lly()).abs() < 1e-9 || (p.y - fp.die.ury()).abs() < 1e-9;
            assert!(on_x || on_y, "pad {i} at {p} not on boundary");
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_panics() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.01, 1);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let _ = Floorplan::new(&n, &stack, &tiers, 0.0);
    }
}
