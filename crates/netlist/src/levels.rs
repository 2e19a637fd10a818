//! The levelization of a netlist's combinational logic — a memo of the
//! netlist's structure that every timer, corner timer and power pass on
//! that structure reads.
//!
//! [`Netlist::levels`] builds it on first use and keeps it behind an
//! `Arc` that clones share, so a design's base, its sizing forks and
//! every corner of its sign-off read one levelization. A connectivity or
//! cell edit starts a fresh memo; sizing (`set_drive`) keeps it, since
//! levels are pure index arrays over connectivity and cell roles.

use crate::cell::CellId;
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::tables::net_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A netlist's levelization slot: empty until first read, shared by
/// clones; a structural edit empties it — in place when no clone shares
/// it, by replacing it when one does.
pub(crate) type LevelsMemo = Arc<OnceLock<Arc<Levels>>>;

/// Levelizations built in this process (a statistic: it publishes no
/// other data).
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Combinational gates grouped by logic depth: `level(g) = 1 + max` level
/// over `g`'s combinational drivers (launch points are level 0). Gates
/// within one level never feed each other, so a level can be evaluated
/// concurrently — each gate reading only finalized lower-level values —
/// producing exactly the sequential pass's arrays.
///
/// Stored flat (CSR), not as a `Vec<Vec<CellId>>`: `order` holds every
/// combinational gate in level-major topological order, `level_off`
/// delimits the levels, and the fanin timing arcs of `order[k]` — its
/// non-clock, driven input pins, in ascending pin order — occupy the
/// contiguous slice `arc_off[k]..arc_off[k+1]` of the parallel
/// `arc_pin`/`arc_driver` arrays (an arc's net is the gate's pin slot,
/// which the netlist's flat pin array already holds). Forward propagation
/// sweeps these dense slices instead of chasing per-net driver lookups.
///
/// The backward pass walks nets, not gates, so the same arcs are also
/// indexed from the other end: `sink_cell`/`sink_arc` list every net's
/// sinks in `Net::sinks` order, each with the slot of the forward arc on
/// that pin (or [`ENDPOINT_SINK`] / [`UNTIMED_COMB_SINK`]). One
/// arc-ordered `Vec<f64>` of delays, filled by the forward pass, is
/// thereby readable from either direction.
///
/// Built once per netlist structure ([`Netlist::levels`]); it depends
/// only on connectivity and cell roles, never on drives, tiers or
/// parasitics.
#[derive(Debug, PartialEq, Eq)]
pub struct Levels {
    /// Every combinational gate, level-major, topological-order position
    /// within each level.
    order: Vec<CellId>,
    /// `level l` is `order[level_off[l] .. level_off[l + 1]]`.
    level_off: Vec<u32>,
    /// Fanin arcs of `order[k]` are `arc_off[k] .. arc_off[k + 1]`.
    arc_off: Vec<u32>,
    /// Input pin index on the gate, per arc.
    arc_pin: Vec<u8>,
    /// Driver cell index, per arc.
    arc_driver: Vec<u32>,
    /// Sinks of `net n` are `sink_off[n] .. sink_off[n + 1]`.
    sink_off: Vec<u32>,
    /// Sink cell index, per (net, sink).
    sink_cell: Vec<u32>,
    /// Arc slot of the sink pin, per (net, sink), or one of the sentinels.
    sink_arc: Vec<u32>,
}

/// [`Levels`] sink slot of an endpoint (register, macro, primary output):
/// it has no arc, its required time is its own RAT.
pub const ENDPOINT_SINK: u32 = u32::MAX;
/// [`Levels`] sink slot of a combinational gate's pin the forward pass
/// does not time — a pin on a clock net.
pub const UNTIMED_COMB_SINK: u32 = u32::MAX - 1;

impl Levels {
    /// Levelizes the combinational portion of a netlist — reading its pin
    /// slots and its nets' drivers, clock flags and sink lists — and packs
    /// the per-gate fanin arcs: a fresh build, outside any memo.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (validated
    /// netlists never do).
    #[must_use]
    pub fn build(netlist: &Netlist) -> Levels {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let order = netlist
            .combinational_order()
            .expect("netlist validated before levelization");
        let n = netlist.cell_count();
        let mut comb_level = vec![u32::MAX; n];
        // Kahn's FIFO pops gates in nondecreasing level — a gate is released
        // by its last, hence deepest, driver — so the topological order is
        // already level-major and each level is one run of it. The fanin
        // arcs of `order[k]` are its non-clock, driven input pins in
        // ascending pin order (exactly the pins the forward kernel
        // evaluates).
        let mut level_off = Vec::new();
        let mut arc_off = Vec::with_capacity(order.len() + 1);
        let mut arc_pin = Vec::new();
        let mut arc_driver = Vec::new();
        arc_off.push(0u32);
        for (k, &id) in order.iter().enumerate() {
            let mut level = 0u32;
            for (pin, &raw) in netlist.cell_inputs(id).iter().enumerate() {
                let Some(net) = net_of(raw).map(|net| netlist.net(net)) else {
                    continue;
                };
                let Some(drv) = net.driver else { continue };
                let j = drv.cell.index();
                // A clock net carries no timing arc, but a gate fed from a
                // gated clock must still sit above the gating cell: that
                // cell's required time reads this gate's.
                if comb_level[j] != u32::MAX {
                    level = level.max(comb_level[j] + 1);
                }
                if !net.is_clock {
                    arc_pin.push(pin as u8);
                    arc_driver.push(j as u32);
                }
            }
            arc_off.push(arc_pin.len() as u32);
            comb_level[id.index()] = level;
            if level as usize == level_off.len() {
                level_off.push(k as u32);
            }
            debug_assert_eq!(
                level as usize + 1,
                level_off.len(),
                "Kahn order is level-major"
            );
        }
        level_off.push(order.len() as u32);
        // The same arcs indexed by (net, sink): a combinational sink maps to
        // the slot of the arc on that pin, found in its gate's (short) slice.
        let mut position = vec![u32::MAX; n];
        for (k, id) in order.iter().enumerate() {
            position[id.index()] = k as u32;
        }
        let mut sink_off = Vec::with_capacity(netlist.net_count() + 1);
        let mut sink_cell = Vec::new();
        let mut sink_arc = Vec::new();
        sink_off.push(0u32);
        for (_, net) in netlist.nets() {
            for sink in &net.sinks {
                let cell = sink.cell.index();
                let k = position[cell];
                let slot = if k == u32::MAX {
                    ENDPOINT_SINK
                } else {
                    let lo = arc_off[k as usize] as usize;
                    let hi = arc_off[k as usize + 1] as usize;
                    (lo..hi)
                        .find(|&a| arc_pin[a] == sink.pin)
                        .map_or(UNTIMED_COMB_SINK, |a| a as u32)
                };
                sink_cell.push(cell as u32);
                sink_arc.push(slot);
            }
            sink_off.push(sink_cell.len() as u32);
        }
        // The memo lives as long as its structure: no growth slack.
        for v in [&mut arc_driver, &mut sink_cell, &mut sink_arc] {
            v.shrink_to_fit();
        }
        arc_pin.shrink_to_fit();
        Levels {
            order,
            level_off,
            arc_off,
            arc_pin,
            arc_driver,
            sink_off,
            sink_cell,
            sink_arc,
        }
    }

    /// How many levelizations this process has built (memoized or not) —
    /// the count a test reads to hold one levelization per structure.
    #[must_use]
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Number of levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_off.len() - 1
    }

    /// Total number of combinational gates across all levels.
    #[must_use]
    pub fn comb_count(&self) -> usize {
        self.order.len()
    }

    /// The order-index range of level `l`.
    #[must_use]
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level_off[l] as usize..self.level_off[l + 1] as usize
    }

    /// The gates of level `l`, in topological-order position.
    #[must_use]
    pub fn level(&self, l: usize) -> &[CellId] {
        &self.order[self.level_range(l)]
    }

    /// Every combinational gate, level-major — a topological order.
    #[must_use]
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// The gate at order position `k`.
    #[must_use]
    pub fn cell_at(&self, k: usize) -> CellId {
        self.order[k]
    }

    /// Total number of timing arcs (the length of an arc-delay array).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.arc_pin.len()
    }

    /// The arc slots of the gate at order position `k`.
    #[must_use]
    pub fn arc_range(&self, k: usize) -> std::ops::Range<usize> {
        self.arc_off[k] as usize..self.arc_off[k + 1] as usize
    }

    /// The fanin arc slices `(pins, drivers)` of the gate at order
    /// position `k`.
    #[must_use]
    pub fn arcs(&self, k: usize) -> (&[u8], &[u32]) {
        let r = self.arc_range(k);
        (&self.arc_pin[r.clone()], &self.arc_driver[r])
    }

    /// The sinks of `net` as `(cells, arc slots)`, in `Net::sinks` order.
    #[must_use]
    pub fn sinks(&self, net: NetId) -> (&[u32], &[u32]) {
        let n = net.index();
        let r = self.sink_off[n] as usize..self.sink_off[n + 1] as usize;
        (&self.sink_cell[r.clone()], &self.sink_arc[r])
    }
}

impl Netlist {
    /// This structure's levelization: built on first use, then shared —
    /// by every later call, and by every clone made before or after it —
    /// until a structural edit gives this netlist a fresh memo.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (validated
    /// netlists never do).
    #[must_use]
    pub fn levels(&self) -> Arc<Levels> {
        Arc::clone(self.levels.get_or_init(|| Arc::new(Levels::build(self))))
    }
}
