//! Copy-on-write design database.
//!
//! Real EDA stacks (OpenDB, OpenAccess) center the flow on one evolving
//! design database; this crate is that center for the hetero-3-D flow's
//! mutable design. A [`DesignDb`] holds the netlist (whose drives sizing
//! edits in place), the technology stack, the tier assignment and the
//! clock period, each behind its own `Arc`; the physical artifacts of a
//! pass (placement, routing, clock tree, parasitics) are the flow's,
//! handed stage to stage by value. A placement and net models installed
//! with [`DesignDb::set_placement`] / [`DesignDb::set_parasitics`] join
//! the [`DesignDb::state_fingerprint`] — how a caller fingerprints an
//! implementation's design state:
//!
//! * **A snapshot, not a log.** The database is the design as it stands
//!   and keeps no record of how it got there. A loop that must tell an
//!   incremental consumer what it changed (sizing and the ECO feeding
//!   the STA `Timer`) builds that edit list where it makes the edit.
//! * **Forking is O(1).** [`DesignDb::fork`] clones only the handles, so
//!   sweeps (`compare_configs`, the fmax ladder) fork one shared prefix
//!   per branch instead of recomputing it.
//! * **A write copies one artifact.** A setter swaps in a fresh `Arc`;
//!   [`DesignDb::with_netlist_mut`] copies the netlist at first write
//!   when a fork still shares it. Nothing else moves, on either side.

use m3d_netlist::{NetId, Netlist, NO_NET};
use m3d_place::Placement;
use m3d_sta::Parasitics;
use m3d_tech::{Tier, TierStack};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a, fed incrementally: the one byte hash behind the
/// netlist fingerprint, the options read-sets and fingerprints, and so
/// every cache key, store key and router ring position.
///
/// `Fnv1a::default()` is the empty hash (the FNV offset basis).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

/// FNV-1a of one byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Content-based fingerprint of a netlist: FNV-1a over the design name,
/// the full cell list (class, gate kind/drive, block tag, pin-to-net
/// bindings) and the full net list (driver, sinks, clock flag). Equal
/// fingerprints describe the same circuit, which makes the value safe as
/// a cache key — unlike [`DesignDb::state_fingerprint`], which tracks
/// the *mutable* flow state (placement, parasitics, period) of one db.
#[must_use]
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    let mut h = Fnv1a::default();
    h.write(netlist.name.as_bytes());
    let mut eat = |v: u64| h.write(&v.to_le_bytes());
    eat(netlist.cell_count() as u64);
    eat(netlist.net_count() as u64);
    for (id, cell) in netlist.cells() {
        match &cell.class {
            m3d_netlist::CellClass::Gate { kind, drive } => {
                eat(1);
                eat(*kind as u64);
                eat(*drive as u64);
            }
            m3d_netlist::CellClass::Macro(spec) => {
                eat(2);
                eat(spec.area_um2().to_bits());
            }
            m3d_netlist::CellClass::PrimaryInput => eat(3),
            m3d_netlist::CellClass::PrimaryOutput => eat(4),
        }
        eat(u64::from(cell.block));
        for &raw in netlist.cell_pins(id) {
            eat(if raw == NO_NET {
                u64::MAX
            } else {
                u64::from(raw)
            });
        }
    }
    for (_, net) in netlist.nets() {
        eat(net.driver.map_or(u64::MAX, |p| p.cell.index() as u64));
        eat(net.sinks.len() as u64);
        for s in &net.sinks {
            eat(s.cell.index() as u64);
            eat(u64::from(s.pin));
        }
        eat(u64::from(net.is_clock));
    }
    h.finish()
}

/// Renders a fingerprint in the canonical 16-hex-digit form used by
/// manifest labels and cache keys.
#[must_use]
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// The design database: the mutable design of one implementation in
/// flight, each artifact behind a copy-on-write `Arc`. A fresh database
/// holds the netlist, the technology and an all-bottom tier assignment;
/// a placement and net models are `Option`, there only for the
/// fingerprint when a caller installs them.
#[derive(Debug, Clone)]
pub struct DesignDb {
    netlist: Arc<Netlist>,
    stack: Arc<TierStack>,
    tiers: Arc<Vec<Tier>>,
    period_ns: f64,
    placement: Option<Arc<Placement>>,
    parasitics: Option<Arc<Parasitics>>,
}

impl DesignDb {
    /// A fresh database over an already-shared netlist: every cell on the
    /// bottom tier, no derived artifacts. The handle is reused as-is, so
    /// the five-configuration study never copies its buffered netlist.
    #[must_use]
    pub fn from_shared(netlist: Arc<Netlist>, stack: TierStack, period_ns: f64) -> Self {
        DesignDb {
            tiers: Arc::new(vec![Tier::Bottom; netlist.cell_count()]),
            netlist,
            stack: Arc::new(stack),
            period_ns,
            placement: None,
            parasitics: None,
        }
    }

    /// An O(1) copy-on-write snapshot: shares every artifact with `self`.
    /// Mutations on either side copy only the artifact they touch.
    #[must_use]
    pub fn fork(&self) -> DesignDb {
        self.clone()
    }

    /// The netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Shared handle to the netlist.
    #[must_use]
    pub fn netlist_arc(&self) -> Arc<Netlist> {
        Arc::clone(&self.netlist)
    }

    /// Shared handle to the technology stack.
    #[must_use]
    pub fn stack_arc(&self) -> Arc<TierStack> {
        Arc::clone(&self.stack)
    }

    /// Tier of every cell.
    #[must_use]
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Shared handle to the tier assignment.
    #[must_use]
    pub fn tiers_arc(&self) -> Arc<Vec<Tier>> {
        Arc::clone(&self.tiers)
    }

    /// Target clock period, ns.
    #[must_use]
    pub fn period_ns(&self) -> f64 {
        self.period_ns
    }

    /// Runs `f` on the netlist in place (the sizing loops' batch drive
    /// edits), copying it first when a fork still shares it.
    pub fn with_netlist_mut<R>(&mut self, f: impl FnOnce(&mut Netlist) -> R) -> R {
        f(Arc::make_mut(&mut self.netlist))
    }

    /// Changes the clock period.
    pub fn set_period(&mut self, period_ns: f64) {
        self.period_ns = period_ns;
    }

    /// Replaces the whole tier assignment.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is not sized to the netlist.
    pub fn set_tiers(&mut self, tiers: Vec<Tier>) {
        assert_eq!(
            tiers.len(),
            self.netlist.cell_count(),
            "tier assignment must cover every cell"
        );
        self.tiers = Arc::new(tiers);
    }

    /// Installs a legalized placement (for the fingerprint).
    pub fn set_placement(&mut self, placement: Placement) {
        self.placement = Some(Arc::new(placement));
    }

    /// Installs extracted parasitics (for the fingerprint).
    pub fn set_parasitics(&mut self, parasitics: Parasitics) {
        self.parasitics = Some(Arc::new(parasitics));
    }

    /// Exact fingerprint of the mutable design state: FNV-1a's constants
    /// over whole words (not bytes) of the gate drives, tier assignment,
    /// period, placement and net-model bits. Equal fingerprints mean
    /// bit-identical design state.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(FNV_PRIME);
        eat(self.netlist.cell_count() as u64);
        eat(self.netlist.net_count() as u64);
        for (_, cell) in self.netlist.cells() {
            eat(cell.class.gate_drive().map_or(u64::MAX, |d| d as u64));
        }
        for &t in self.tiers.iter() {
            eat(t as u64);
        }
        eat(self.period_ns.to_bits());
        if let Some(p) = &self.placement {
            for q in &p.positions {
                eat(q.x.to_bits());
                eat(q.y.to_bits());
            }
        }
        if let Some(par) = &self.parasitics {
            for k in 0..self.netlist.net_count() {
                let m = par.net(NetId::from_index(k));
                eat(m.wire_cap_ff.to_bits());
                eat(m.wire_delay_ns.to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netgen::Benchmark;
    use m3d_tech::Drive;

    /// A database with a placement and net models installed, and the
    /// two as installed.
    fn full_db() -> (DesignDb, Placement, Parasitics) {
        let netlist = Arc::new(Benchmark::Aes.generate(0.01, 3));
        let mut db = DesignDb::from_shared(Arc::clone(&netlist), TierStack::heterogeneous(), 1.0);
        let die = m3d_place::Floorplan::new(&netlist, &db.stack_arc(), db.tiers(), 0.7).die;
        let (placement, parasitics) = (
            Placement::centered(&netlist, die),
            Parasitics::zero_wire(&netlist),
        );
        db.set_placement(placement.clone());
        db.set_parasitics(parasitics.clone());
        (db, placement, parasitics)
    }

    /// The address behind every artifact handle, by name.
    fn handles(db: &DesignDb) -> Vec<(&'static str, *const ())> {
        fn at<T>(a: &Option<Arc<T>>) -> *const () {
            a.as_ref()
                .map_or(std::ptr::null(), |a| Arc::as_ptr(a).cast())
        }
        vec![
            ("netlist", Arc::as_ptr(&db.netlist).cast()),
            ("stack", Arc::as_ptr(&db.stack).cast()),
            ("tiers", Arc::as_ptr(&db.tiers).cast()),
            ("placement", at(&db.placement)),
            ("parasitics", at(&db.parasitics)),
        ]
    }

    /// Names of the artifacts whose handle differs from `before`.
    fn copied(db: &DesignDb, before: &[(&'static str, *const ())]) -> Vec<&'static str> {
        let now = handles(db);
        let differs = now.iter().zip(before).filter(|(now, was)| now.1 != was.1);
        differs.map(|(now, _)| now.0).collect()
    }

    /// The first gate and a drive it does not have.
    fn resizable_gate(netlist: &Netlist) -> (m3d_netlist::CellId, Drive) {
        let mut gates = netlist.cells().filter(|(_, c)| c.class.is_gate());
        let (id, cell) = gates.next().expect("benchmark has gates");
        let drive = cell.class.gate_drive().and_then(Drive::upsized);
        (id, drive.unwrap_or(Drive::X1))
    }

    #[test]
    fn netlist_fingerprint_is_content_based() {
        let a = Benchmark::Aes.generate(0.01, 3);
        let generated = |scale, seed| netlist_fingerprint(&Benchmark::Aes.generate(scale, seed));
        assert_eq!(netlist_fingerprint(&a), generated(0.01, 3));
        assert_ne!(netlist_fingerprint(&a), generated(0.01, 4), "seed");
        assert_ne!(netlist_fingerprint(&a), generated(0.02, 3), "scale");
        // A single-drive resize must change the key: the cache would
        // otherwise serve stale checkpoints for an edited netlist.
        let mut edited = a.clone();
        let (gate, drive) = resizable_gate(&a);
        edited.set_drive(gate, drive);
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&edited));
        assert_eq!(fingerprint_hex(netlist_fingerprint(&a)).len(), 16);
    }

    #[test]
    fn a_fork_shares_every_handle_and_a_write_copies_one_artifact() {
        let (parent, _, _) = full_db();
        let shared = handles(&parent);
        assert!(shared.iter().all(|(_, p)| !p.is_null()));
        let parent_netlist = netlist_fingerprint(parent.netlist());
        let (gate, drive) = resizable_gate(parent.netlist());
        let mut fork = parent.fork();
        assert_eq!(handles(&fork), shared, "a fork copies nothing");

        let mut tiers = parent.tiers().to_vec();
        tiers[gate.index()] = Tier::Top;
        fork.set_tiers(tiers);
        assert_eq!(copied(&fork, &shared), ["tiers"]);
        fork.with_netlist_mut(|nl| nl.set_drive(gate, drive));
        assert_eq!(copied(&fork, &shared), ["netlist", "tiers"]);
        assert_ne!(netlist_fingerprint(fork.netlist()), parent_netlist);

        // The parent saw none of it.
        assert_eq!(handles(&parent), shared);
        assert_eq!(netlist_fingerprint(parent.netlist()), parent_netlist);
        assert!(parent.tiers().iter().all(|&t| t == Tier::Bottom));

        // A netlist no fork shares is edited in place, not copied again.
        let own = handles(&fork);
        fork.with_netlist_mut(|nl| nl.set_drive(gate, Drive::X1));
        assert_eq!(handles(&fork), own);
    }

    #[test]
    fn state_fingerprint_moves_iff_the_design_state_moves() {
        let (db, placement, parasitics) = full_db();
        let fingerprint = db.state_fingerprint();
        let (gate, drive) = resizable_gate(db.netlist());
        let mut flipped = db.tiers().to_vec();
        flipped[gate.index()] = Tier::Top;
        let mut shifted = placement.clone();
        shifted.positions[gate.index()].x += 1.0;
        let mut loaded = parasitics.clone();
        loaded.net_mut(NetId::from_index(0)).wire_cap_ff = 3.0;

        // Equal state behind fresh handles leaves it where it was.
        let mut same = db.fork();
        same.set_tiers(db.tiers().to_vec());
        same.set_placement(placement.clone());
        same.set_parasitics(parasitics.clone());
        same.set_period(db.period_ns());
        same.with_netlist_mut(|_| ());
        assert_eq!(same.state_fingerprint(), fingerprint);

        let moves = |edit: &dyn Fn(&mut DesignDb)| {
            let mut fork = db.fork();
            edit(&mut fork);
            fork.state_fingerprint() != fingerprint
        };
        let resize = |nl: &mut Netlist| nl.set_drive(gate, drive);
        assert!(moves(&|db| db.with_netlist_mut(resize)), "drive");
        assert!(moves(&|db| db.set_tiers(flipped.clone())), "tiers");
        assert!(moves(&|db| db.set_placement(shifted.clone())), "placement");
        assert!(moves(&|db| db.set_parasitics(loaded.clone())), "net model");
        assert!(moves(&|db| db.set_period(0.8)), "period");
    }
}
