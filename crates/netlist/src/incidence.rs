//! The net↔cell incidence of a [`Netlist`], CSR in both directions — the
//! one builder FM partitioning and global placement share.

use crate::net::Net;
use crate::netlist::Netlist;
use std::ops::Range;

/// Net→cells and cell→nets over the nets a predicate keeps (the others
/// get empty slices), as raw indices.
///
/// A net's cells come in `Net::cells` order (driver first, then sinks);
/// a cell's nets ascend, by counting sort over the nets in index order.
/// Both orders are part of the kernels' deterministic accumulation and
/// gain-update orders. Entries are *pins*: a cell on two pins of a net
/// is listed twice in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incidence {
    /// Cells of net `k` are `net_cell[net_off[k] .. net_off[k + 1]]`.
    net_off: Vec<u32>,
    net_cell: Vec<u32>,
    /// Nets of cell `c` are `cell_net[cell_off[c] .. cell_off[c + 1]]`.
    cell_off: Vec<u32>,
    cell_net: Vec<u32>,
}

impl Incidence {
    /// Builds both directions over the nets `keep` accepts; every array
    /// is allocated at its exact size.
    #[must_use]
    pub fn build(netlist: &Netlist, keep: impl Fn(&Net) -> bool) -> Incidence {
        let n = netlist.cell_count();
        let mut net_off = Vec::with_capacity(netlist.net_count() + 1);
        net_off.push(0u32);
        let mut total = 0u32;
        for (_, net) in netlist.nets() {
            if keep(net) {
                total += net.degree() as u32;
            }
            net_off.push(total);
        }
        let mut net_cell = Vec::with_capacity(total as usize);
        for (_, net) in netlist.nets().filter(|(_, net)| keep(net)) {
            net_cell.extend(net.cells().map(|c| c.index() as u32));
        }
        let mut cell_off = vec![0u32; n + 1];
        for &c in &net_cell {
            cell_off[c as usize + 1] += 1;
        }
        for i in 0..n {
            cell_off[i + 1] += cell_off[i];
        }
        let mut next_slot = cell_off[..n].to_vec();
        let mut cell_net = vec![0u32; net_cell.len()];
        for k in 0..netlist.net_count() {
            for &c in &net_cell[net_off[k] as usize..net_off[k + 1] as usize] {
                cell_net[next_slot[c as usize] as usize] = k as u32;
                next_slot[c as usize] += 1;
            }
        }
        Incidence {
            net_off,
            net_cell,
            cell_off,
            cell_net,
        }
    }

    /// Number of nets (kept or not).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_off.len() - 1
    }

    /// Where net `k`'s cells sit among all entries — an index range a
    /// kernel can use for per-entry data of its own.
    #[must_use]
    pub fn net_range(&self, k: usize) -> Range<usize> {
        self.net_off[k] as usize..self.net_off[k + 1] as usize
    }

    /// The cells of net `k`, in `Net::cells` order.
    #[must_use]
    pub fn net_cells(&self, k: usize) -> &[u32] {
        &self.net_cell[self.net_range(k)]
    }

    /// The nets of cell `c`, ascending.
    #[must_use]
    pub fn cell_nets(&self, c: usize) -> &[u32] {
        &self.cell_net[self.cell_off[c] as usize..self.cell_off[c + 1] as usize]
    }

    /// Total entries (pins of kept nets) in either direction.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.net_cell.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellId;
    use m3d_tech::{CellKind, Drive};

    #[test]
    fn both_directions_mirror_the_kept_nets() {
        let mut n = Netlist::new("inc");
        let a = n.add_input("a");
        let g = n.add_gate("g", CellKind::Nand2, Drive::X1, 0);
        let y = n.add_output("y");
        let na = n.add_net("na", a, 0);
        let ng = n.add_net("ng", g, 0);
        n.connect(na, g, 0);
        n.connect(na, g, 1);
        n.connect(ng, y, 0);
        let all = Incidence::build(&n, |_| true);
        assert_eq!(all.net_count(), 2);
        assert_eq!(all.net_cells(na.index()), [0, 1, 1], "driver, then pins");
        assert_eq!(all.cell_nets(g.index()), [0, 0, 1], "one entry per pin");
        assert_eq!(all.entries(), 5);
        let some = Incidence::build(&n, |net| net.driver.map(|d| d.cell) != Some(CellId(0)));
        assert!(some.net_cells(na.index()).is_empty());
        assert_eq!(some.net_range(ng.index()), 0..2);
        assert_eq!(some.cell_nets(g.index()), [1]);
        assert_eq!(some.cell_nets(a.index()), [] as [u32; 0]);
    }
}
