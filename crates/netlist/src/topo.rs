//! Flat, index-dense topology view over a [`Netlist`].
//!
//! The netlist itself is already flat where it can be: one name arena,
//! one pin array sliced per cell. What it keeps per net is a `Vec` of
//! sinks, because fanout buffering edits sink lists in place. The hot
//! kernels want the rest flat too, plus a little precomputation:
//!
//! - the netlist's name arena and pin array, **shared** (`Arc`), not
//!   copied: a cell's pin slice is its input slots followed by its output
//!   slots, [`NO_NET`] marking an unconnected pin;
//! - every net's sink list in CSR arrays (`sink_off` / `sink_cell` /
//!   `sink_pin`), mirroring `Net::sinks` order exactly;
//! - per-cell roles and per-net clock flags in dense byte arrays so
//!   kernels stop chasing `CellClass` enums.
//!
//! **Iteration order is part of the repo's determinism contract**: every
//! slice in this view preserves the exact order of the netlist's
//! accessors (`Netlist::cell_inputs`, `Netlist::cell_outputs`,
//! `Net::sinks`), and [`Topology::combinational_order`] — the one Kahn
//! order, which [`Netlist::combinational_order`] and every levelization
//! read — reproduces a Kahn walk over the per-net lists bit for bit. The
//! property suite in `tests/csr_equivalence.rs` holds the CSR sink arrays
//! against the per-net lists, the shared pin array against the nets'
//! drivers and sinks, and the Kahn order against that walk, on every
//! generator family.

use crate::cell::{CellClass, CellId};
use crate::net::{NetId, PinRef};
use crate::netlist::{Netlist, ValidateNetlistError};
use crate::tables::{net_of, Structure};
use std::sync::Arc;

/// Sentinel for an unconnected pin slot in [`Topology::cell_pins`].
pub const NO_NET: u32 = u32::MAX;

/// Compact per-cell role, precomputed so kernels avoid matching on
/// [`CellClass`] (and touching the `MacroSpec` payload) in inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TopoRole {
    /// Combinational standard-cell gate.
    Comb = 0,
    /// Sequential standard-cell gate (DFF).
    Seq = 1,
    /// Hard macro.
    Macro = 2,
    /// Primary input port.
    Pi = 3,
    /// Primary output port.
    Po = 4,
}

impl TopoRole {
    fn of(class: &CellClass) -> TopoRole {
        match class {
            CellClass::Gate { kind, .. } => {
                if kind.is_sequential() {
                    TopoRole::Seq
                } else {
                    TopoRole::Comb
                }
            }
            CellClass::Macro(_) => TopoRole::Macro,
            CellClass::PrimaryInput => TopoRole::Pi,
            CellClass::PrimaryOutput => TopoRole::Po,
        }
    }
}

/// Flat SoA/CSR snapshot of a netlist's connectivity and names.
///
/// Build once with [`Netlist::topology`]; the view borrows nothing (it
/// holds the netlist's name arena and pin array by `Arc`, which the
/// netlist copies before any structural edit), so it can be kept
/// alongside the netlist and rebuilt only on structural change.
#[derive(Debug, Clone)]
pub struct Topology {
    cell_count: usize,
    net_count: usize,

    // ---- shared with the netlist: name arena and pin array ----
    structure: Arc<Structure>,
    n_in: Vec<u8>, // cell_count: input slots lead each cell's pin slice

    // ---- net → pins CSR ----
    sink_off: Vec<u32>, // net_count + 1, into `sink_cell` / `sink_pin`
    sink_cell: Vec<u32>,
    sink_pin: Vec<u8>,
    driver_cell: Vec<u32>, // u32::MAX = undriven
    driver_pin: Vec<u8>,

    // ---- dense attributes ----
    role: Vec<TopoRole>,
    net_clock: Vec<bool>,
}

impl Topology {
    /// Builds the flat view from a netlist in one pass over its cells and
    /// one over its nets.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Topology {
        let cell_count = netlist.cell_count();
        let net_count = netlist.net_count();

        let mut n_in = Vec::with_capacity(cell_count);
        let mut role = Vec::with_capacity(cell_count);
        for (_, cell) in netlist.cells() {
            n_in.push(cell.n_in);
            role.push(TopoRole::of(&cell.class));
        }

        let sink_total = netlist.nets().map(|(_, net)| net.sinks.len()).sum();
        let mut sink_off = Vec::with_capacity(net_count + 1);
        let mut sink_cell = Vec::with_capacity(sink_total);
        let mut sink_pin = Vec::with_capacity(sink_total);
        let mut driver_cell = Vec::with_capacity(net_count);
        let mut driver_pin = Vec::with_capacity(net_count);
        let mut net_clock = Vec::with_capacity(net_count);
        sink_off.push(0);
        for (_, net) in netlist.nets() {
            for s in &net.sinks {
                sink_cell.push(s.cell.index() as u32);
                sink_pin.push(s.pin);
            }
            sink_off.push(sink_cell.len() as u32);
            match net.driver {
                Some(d) => {
                    driver_cell.push(d.cell.index() as u32);
                    driver_pin.push(d.pin);
                }
                None => {
                    driver_cell.push(u32::MAX);
                    driver_pin.push(0);
                }
            }
            net_clock.push(net.is_clock);
        }

        Topology {
            cell_count,
            net_count,
            structure: Arc::clone(&netlist.structure),
            n_in,
            sink_off,
            sink_cell,
            sink_pin,
            driver_cell,
            driver_pin,
            role,
            net_clock,
        }
    }

    /// Number of cells in the snapshot.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Number of nets in the snapshot.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Total number of pin slots (connected or not) across all cells.
    #[must_use]
    pub fn pin_count(&self) -> usize {
        self.structure.pins.slot.len()
    }

    /// Name of `cell` — the netlist's own arena entry.
    #[must_use]
    pub fn cell_name(&self, cell: CellId) -> &str {
        self.structure.names.cells.get(cell.index())
    }

    /// Name of `net` — the netlist's own arena entry.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        self.structure.names.nets.get(net.index())
    }

    /// Total bytes of name text in the arena.
    #[must_use]
    pub fn name_arena_bytes(&self) -> usize {
        self.structure.names.text_bytes()
    }

    /// Role of `cell`.
    #[must_use]
    pub fn role(&self, cell: CellId) -> TopoRole {
        self.role[cell.index()]
    }

    /// Is `net` the clock net?
    #[must_use]
    pub fn is_clock(&self, net: NetId) -> bool {
        self.net_clock[net.index()]
    }

    /// All pin slots of `cell`: input slots in pin order, then output
    /// slots in pin order. Entries are raw net indices, [`NO_NET`] for an
    /// unconnected pin.
    #[must_use]
    pub fn cell_pins(&self, cell: CellId) -> &[u32] {
        self.structure.pins.of(cell.index())
    }

    /// The input pin slots of `cell` — mirrors [`Netlist::cell_inputs`].
    #[must_use]
    pub fn cell_inputs(&self, cell: CellId) -> &[u32] {
        &self.cell_pins(cell)[..usize::from(self.n_in[cell.index()])]
    }

    /// The output pin slots of `cell` — mirrors [`Netlist::cell_outputs`].
    #[must_use]
    pub fn cell_outputs(&self, cell: CellId) -> &[u32] {
        &self.cell_pins(cell)[usize::from(self.n_in[cell.index()])..]
    }

    /// The net on input pin `pin` of `cell`, if connected.
    #[must_use]
    pub fn input_net(&self, cell: CellId, pin: usize) -> Option<NetId> {
        net_of(*self.cell_inputs(cell).get(pin)?)
    }

    /// The driver pin of `net`, if driven — equal to
    /// `netlist.net(net).driver`.
    #[must_use]
    pub fn driver(&self, net: NetId) -> Option<PinRef> {
        let i = net.index();
        let cell = self.driver_cell[i];
        (cell != u32::MAX)
            .then(|| PinRef::new(CellId::from_index(cell as usize), self.driver_pin[i]))
    }

    /// The sink cells of `net`, in `Net::sinks` order.
    #[must_use]
    pub fn sink_cells(&self, net: NetId) -> &[u32] {
        let i = net.index();
        &self.sink_cell[self.sink_off[i] as usize..self.sink_off[i + 1] as usize]
    }

    /// The sink pin indices of `net`, aligned with
    /// [`Topology::sink_cells`].
    #[must_use]
    pub fn sink_pins(&self, net: NetId) -> &[u8] {
        let i = net.index();
        &self.sink_pin[self.sink_off[i] as usize..self.sink_off[i + 1] as usize]
    }

    /// Fanout of `net` (number of sinks).
    #[must_use]
    pub fn fanout(&self, net: NetId) -> usize {
        let i = net.index();
        (self.sink_off[i + 1] - self.sink_off[i]) as usize
    }

    /// Degree of `net` (driver + sinks) — equal to `Net::degree`.
    #[must_use]
    pub fn degree(&self, net: NetId) -> usize {
        usize::from(self.driver_cell[net.index()] != u32::MAX) + self.fanout(net)
    }

    /// Iterates the sinks of `net` as [`PinRef`]s, in `Net::sinks` order.
    pub fn sinks(&self, net: NetId) -> impl Iterator<Item = PinRef> + '_ {
        self.sink_cells(net)
            .iter()
            .zip(self.sink_pins(net))
            .map(|(&c, &p)| PinRef::new(CellId::from_index(c as usize), p))
    }

    /// Topological order of the combinational gates (Kahn's algorithm)
    /// over the CSR arrays: the ready queue is seeded in ascending cell
    /// index and successors are released in output-pin, then sink-list
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateNetlistError::CombinationalCycle`] if the
    /// combinational logic is cyclic (the culprit is reported by interned
    /// name).
    pub fn combinational_order(&self) -> Result<Vec<CellId>, ValidateNetlistError> {
        let n = self.cell_count;
        let is_comb = |i: usize| self.role[i] == TopoRole::Comb;
        let mut indegree = vec![0u32; n];
        let mut comb_total = 0usize;
        for (i, slot) in indegree.iter_mut().enumerate() {
            if !is_comb(i) {
                continue;
            }
            comb_total += 1;
            let mut deg = 0;
            for &raw in self.cell_inputs(CellId::from_index(i)) {
                if raw == NO_NET {
                    continue;
                }
                let drv = self.driver_cell[raw as usize];
                if drv != u32::MAX && is_comb(drv as usize) {
                    deg += 1;
                }
            }
            *slot = deg;
        }
        let mut queue = std::collections::VecDeque::with_capacity(comb_total);
        queue.extend((0..n).filter(|&i| is_comb(i) && indegree[i] == 0));
        let mut order = Vec::with_capacity(comb_total);
        while let Some(i) = queue.pop_front() {
            order.push(CellId::from_index(i));
            for &raw in self.cell_outputs(CellId::from_index(i)) {
                if raw == NO_NET {
                    continue;
                }
                for &sc in self.sink_cells(NetId::from_index(raw as usize)) {
                    let j = sc as usize;
                    if is_comb(j) {
                        indegree[j] -= 1;
                        if indegree[j] == 0 {
                            queue.push_back(j);
                        }
                    }
                }
            }
        }
        if order.len() != comb_total {
            let culprit = (0..n)
                .find(|&i| is_comb(i) && indegree[i] > 0)
                .map(|i| self.cell_name(CellId::from_index(i)).to_string())
                .unwrap_or_default();
            return Err(ValidateNetlistError::CombinationalCycle(culprit));
        }
        Ok(order)
    }
}

impl Netlist {
    /// Builds the flat SoA/CSR [`Topology`] view of this netlist. O(cells
    /// + nets + pins); rebuild after structural edits.
    #[must_use]
    pub fn topology(&self) -> Topology {
        Topology::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::{CellKind, Drive};

    fn sample() -> Netlist {
        let mut n = Netlist::new("t");
        let clk_in = n.add_input("clk");
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate("g1", CellKind::Nand2, Drive::X1, 0);
        let g2 = n.add_gate("g2", CellKind::Inv, Drive::X2, 0);
        let ff = n.add_gate("ff", CellKind::Dff, Drive::X1, 0);
        let y = n.add_output("y");
        let na = n.add_net("na", a, 0);
        let nb = n.add_net("nb", b, 0);
        let n1 = n.add_net("n1", g1, 0);
        let n2 = n.add_net("n2", g2, 0);
        let q = n.add_net("q", ff, 0);
        n.connect(na, g1, 0);
        n.connect(nb, g1, 1);
        n.connect(n1, g2, 0);
        n.connect(n2, ff, 0);
        n.connect(clk, ff, 1);
        n.connect(q, y, 0);
        n
    }

    #[test]
    fn view_mirrors_legacy_accessors() {
        let n = sample();
        let t = n.topology();
        assert_eq!(t.cell_count(), n.cell_count());
        assert_eq!(t.net_count(), n.net_count());
        for id in n.cell_ids() {
            assert_eq!(t.cell_name(id), n.cell_name(id));
            assert_eq!(t.cell_inputs(id), n.cell_inputs(id));
            assert_eq!(t.cell_outputs(id), n.cell_outputs(id));
        }
        for id in n.net_ids() {
            let net = n.net(id);
            assert_eq!(t.net_name(id), n.net_name(id));
            assert_eq!(t.driver(id), net.driver);
            let sinks: Vec<PinRef> = t.sinks(id).collect();
            assert_eq!(sinks, net.sinks);
            assert_eq!(t.degree(id), net.degree());
            assert_eq!(t.fanout(id), net.fanout());
            assert_eq!(t.is_clock(id), net.is_clock);
        }
    }

    #[test]
    fn the_view_is_a_snapshot_across_structural_edits() {
        let mut n = sample();
        let t = n.topology();
        let cells = n.cell_count();
        let extra = n.add_gate("late", CellKind::Buf, Drive::X1, 0);
        let _ = n.add_net("late_y", extra, 0);
        assert_eq!(t.cell_count(), cells);
        assert_eq!(t.pin_count() + 2, n.topology().pin_count());
        assert_eq!(
            t.name_arena_bytes() + "late".len() + "late_y".len(),
            n.topology().name_arena_bytes()
        );
    }

    /// The oracle: Kahn's algorithm over the netlist's per-net driver and
    /// sink lists (no CSR array), seeded and released in the order the
    /// CSR walk documents. `Err` carries the first cell left with
    /// indegree.
    fn kahn_over_nets(n: &Netlist) -> Result<Vec<CellId>, String> {
        let is_comb = |id: CellId| {
            let c = n.cell(id);
            c.class.is_gate() && !c.is_sequential()
        };
        let mut indegree: Vec<u32> = n
            .cell_ids()
            .map(|id| {
                let comb_drivers = n
                    .input_nets(id)
                    .filter_map(|net| n.net(net).driver)
                    .filter(|d| is_comb(d.cell));
                if is_comb(id) {
                    comb_drivers.count() as u32
                } else {
                    0
                }
            })
            .collect();
        let mut queue: std::collections::VecDeque<CellId> = n
            .cell_ids()
            .filter(|&id| is_comb(id) && indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for net in n.output_nets(id) {
                for sink in &n.net(net).sinks {
                    if is_comb(sink.cell) {
                        indegree[sink.cell.index()] -= 1;
                        if indegree[sink.cell.index()] == 0 {
                            queue.push_back(sink.cell);
                        }
                    }
                }
            }
        }
        match n
            .cell_ids()
            .find(|&id| is_comb(id) && indegree[id.index()] > 0)
        {
            Some(culprit) => Err(n.cell_name(culprit).to_string()),
            None => Ok(order),
        }
    }

    #[test]
    fn combinational_order_matches_a_walk_over_the_nets() {
        let n = sample();
        let order = n.combinational_order().unwrap();
        assert_eq!(order, kahn_over_nets(&n).unwrap());
        assert_eq!(order, n.topology().combinational_order().unwrap());
    }

    #[test]
    fn cycle_is_reported_with_interned_name() {
        let mut n = Netlist::new("cyc");
        let g1 = n.add_gate("g1", CellKind::Inv, Drive::X1, 0);
        let g2 = n.add_gate("g2", CellKind::Inv, Drive::X1, 0);
        let n1 = n.add_net("n1", g1, 0);
        let n2 = n.add_net("n2", g2, 0);
        n.connect(n1, g2, 0);
        n.connect(n2, g1, 0);
        assert_eq!(
            n.combinational_order(),
            Err(ValidateNetlistError::CombinationalCycle(
                kahn_over_nets(&n).unwrap_err()
            ))
        );
    }

    #[test]
    fn roles_and_arena_are_dense() {
        let n = sample();
        let t = n.topology();
        let names: usize = n.cell_ids().map(|id| n.cell_name(id).len()).sum::<usize>()
            + n.net_ids().map(|id| n.net_name(id).len()).sum::<usize>();
        assert_eq!(t.name_arena_bytes(), names);
        assert_eq!(t.role(CellId::from_index(0)), TopoRole::Pi);
        let named = |name: &str| n.cell_ids().find(|&id| n.cell_name(id) == name).unwrap();
        assert_eq!(t.role(named("ff")), TopoRole::Seq);
        assert_eq!(t.role(named("y")), TopoRole::Po);
    }
}
