use m3d_geom::{steiner, Point, Rect};
use m3d_netlist::{NetId, Netlist};

/// Cell positions over a die outline.
///
/// Positions are cell *centers* in microns, indexed by cell id. A 3-D
/// design keeps a single `Placement` — both tiers share the footprint; the
/// tier of each cell lives in the flow's assignment vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Cell centers, indexed by cell id.
    pub positions: Vec<Point>,
    /// Die outline.
    pub die: Rect,
}

impl Placement {
    /// Creates a placement with every cell at the die center.
    #[must_use]
    pub fn centered(netlist: &Netlist, die: Rect) -> Self {
        Placement {
            positions: vec![die.center(); netlist.cell_count()],
            die,
        }
    }

    /// Position of a cell.
    #[must_use]
    pub fn position(&self, cell: usize) -> Point {
        self.positions[cell]
    }

    /// Gathers a net's pin locations (cell centers; pin offsets are below
    /// the fidelity of a global flow) into `buf`, cleared first, so
    /// callers that sweep many nets share one scratch buffer.
    pub fn net_pins_into(&self, netlist: &Netlist, net: NetId, buf: &mut Vec<Point>) {
        buf.clear();
        buf.extend(netlist.net(net).cells().map(|c| self.positions[c.index()]));
    }

    /// Half-perimeter wirelength of one net, µm, with a caller-provided
    /// pin scratch buffer.
    #[must_use]
    pub fn net_hpwl_with(&self, netlist: &Netlist, net: NetId, buf: &mut Vec<Point>) -> f64 {
        self.net_pins_into(netlist, net, buf);
        steiner::hpwl(buf)
    }

    /// Steiner-estimate length of one net, µm, with a caller-provided pin
    /// scratch buffer.
    #[must_use]
    pub fn net_steiner_with(&self, netlist: &Netlist, net: NetId, buf: &mut Vec<Point>) -> f64 {
        self.net_pins_into(netlist, net, buf);
        steiner::steiner_estimate(buf)
    }

    /// Total HPWL over all signal nets, µm.
    #[must_use]
    pub fn hpwl(&self, netlist: &Netlist) -> f64 {
        let mut buf = Vec::new();
        netlist
            .nets()
            .filter(|(_, n)| !n.is_clock)
            .map(|(id, _)| self.net_hpwl_with(netlist, id, &mut buf))
            .sum()
    }

    /// Clamps every position into the die outline.
    pub fn clamp_to_die(&mut self) {
        for p in &mut self.positions {
            *p = self.die.clamp_point(*p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::{CellKind, Drive};

    fn two_gate() -> (Netlist, Placement) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate("g", CellKind::Inv, Drive::X1, 0);
        let y = n.add_output("y");
        let na = n.add_net("na", a, 0);
        let ny = n.add_net("ny", g, 0);
        n.connect(na, g, 0);
        n.connect(ny, y, 0);
        let die = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut p = Placement::centered(&n, die);
        p.positions[a.index()] = Point::new(0.0, 0.0);
        p.positions[g.index()] = Point::new(10.0, 10.0);
        p.positions[y.index()] = Point::new(30.0, 10.0);
        (n, p)
    }

    #[test]
    fn hpwl_sums_nets() {
        let (n, p) = two_gate();
        // na: (0,0)-(10,10) = 20 ; ny: (10,10)-(30,10) = 20
        assert_eq!(p.hpwl(&n), 40.0);
    }

    #[test]
    fn clamp_keeps_cells_inside() {
        let (n, mut p) = two_gate();
        p.positions[0] = Point::new(-50.0, 500.0);
        p.clamp_to_die();
        assert!(p.die.contains(p.positions[0]));
        let _ = n;
    }

    #[test]
    fn centered_placement_has_zero_wirelength() {
        let (n, _) = two_gate();
        let p = Placement::centered(&n, Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(p.hpwl(&n), 0.0);
    }
}
