//! Unified copy-on-write design database.
//!
//! Real EDA stacks (OpenDB, OpenAccess) center the flow on one evolving
//! design database with change notification; this crate is that center for
//! the hetero-3-D flow. A [`DesignDb`] owns every design artifact — the
//! netlist, technology binding, tier assignment, floorplan, placements,
//! routing, clock tree, parasitics and sign-off results — behind
//! `Arc`-based copy-on-write snapshots:
//!
//! * **Forking is O(1).** [`DesignDb::fork`] clones only the `Arc` handles.
//!   Configuration sweeps (`compare_configs`, the fmax ladder) fork one
//!   shared prefix snapshot per branch instead of recomputing it; a branch
//!   that mutates an artifact pays for the copy at first write
//!   (`Arc::make_mut`), and only for that artifact.
//! * **The change journal is the single source of truth for "what
//!   changed".** Every mutation goes through a journaling method and
//!   appends a typed [`DesignEdit`] record. Downstream consumers read the
//!   journal instead of diffing state: the incremental STA `Timer` takes
//!   [`Journal::timing_edits`] as its only description of what changed,
//!   and the flow's observability layer counts journal traffic per
//!   pipeline stage.
//! * **Fine-grained edits replay.** Edits that carry `from`/`to` values
//!   ([`DesignEdit::is_fine_grained`]) can be re-applied to a fork via
//!   [`DesignDb::replay`], reproducing the journaled state bit for bit —
//!   the foundation for checkpoint/restore and (per the roadmap) design
//!   sharding.

use m3d_cts::ClockTree;
use m3d_geom::Point;
use m3d_netlist::{CellId, NetId, Netlist};
use m3d_place::{Floorplan, Placement};
use m3d_power::PowerResult;
use m3d_route::RoutingResult;
use m3d_sta::{NetModel, Parasitics, StaResult, TimingEdit};
use m3d_tech::{Drive, TechContext, Tier, TierStack};
use std::fmt;
use std::sync::Arc;

/// Content-based fingerprint of a netlist: FNV-1a over the design name,
/// the full cell list (class, gate kind/drive, block tag, pin-to-net
/// bindings) and the full net list (driver, sinks, clock flag). Two
/// netlists with equal fingerprints describe the same circuit, which is
/// what makes the value safe as a cache key — unlike
/// [`DesignDb::state_fingerprint`], which tracks the *mutable* flow
/// state (placement, parasitics, period) of one database.
#[must_use]
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    fn eat_into(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in netlist.name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    let mut eat = |v: u64| eat_into(&mut h, v);
    eat(netlist.cell_count() as u64);
    eat(netlist.net_count() as u64);
    for (_, cell) in netlist.cells() {
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
        for net in cell.inputs.iter().chain(cell.outputs.iter()) {
            eat(net.map_or(u64::MAX, |n| n.index() as u64));
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
    h
}

/// Renders a fingerprint in the canonical 16-hex-digit form used by
/// manifest labels and cache keys.
#[must_use]
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// One typed change record. Fine-grained variants carry both the old and
/// the new value, so a journal can be replayed onto a fork of the
/// pre-edit snapshot; coarse `Replace*` variants record that a whole
/// artifact was swapped by a stage (floorplanning, routing, CTS, ...)
/// without copying it into the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignEdit {
    /// A gate's drive strength changed (cell sizing).
    ResizeCell {
        /// The resized gate.
        cell: CellId,
        /// Drive before the edit.
        from: Drive,
        /// Drive after the edit.
        to: Drive,
    },
    /// A cell moved to the other tier (partitioning ECO).
    SwapTier {
        /// The moved cell.
        cell: CellId,
        /// Tier before the edit.
        from: Tier,
        /// Tier after the edit.
        to: Tier,
    },
    /// A cell's placement location changed.
    MoveCell {
        /// The moved cell.
        cell: CellId,
        /// Location before the edit.
        from: Point,
        /// Location after the edit.
        to: Point,
    },
    /// One net's RC model changed.
    SetNetModel {
        /// The re-extracted net.
        net: NetId,
        /// Model before the edit.
        from: NetModel,
        /// Model after the edit.
        to: NetModel,
    },
    /// The clock period changed (fmax ladder rungs).
    SetPeriod {
        /// Period before, ns.
        from: f64,
        /// Period after, ns.
        to: f64,
    },
    /// The netlist was structurally rebuilt (buffer insertion, ...).
    ReplaceNetlist {
        /// Cell count after the replacement.
        cells: usize,
        /// Net count after the replacement.
        nets: usize,
    },
    /// The whole tier assignment was replaced (min-cut partitioning).
    ReplaceTiers,
    /// The floorplan was replaced.
    ReplaceFloorplan,
    /// The legalized placement was replaced.
    ReplacePlacement,
    /// The global (pre-legalization) placement was replaced.
    ReplaceGlobalPlacement,
    /// The routing result was replaced.
    ReplaceRouting,
    /// The clock tree was replaced.
    ReplaceClockTree,
    /// The parasitics were replaced (full re-extraction).
    ReplaceParasitics,
    /// The sign-off timing result was replaced.
    ReplaceSta,
    /// The sign-off power result was replaced.
    ReplacePower,
}

impl DesignEdit {
    /// `true` when the edit carries `from`/`to` values and can be
    /// replayed onto a fork of the pre-edit snapshot.
    #[must_use]
    pub fn is_fine_grained(&self) -> bool {
        matches!(
            self,
            DesignEdit::ResizeCell { .. }
                | DesignEdit::SwapTier { .. }
                | DesignEdit::MoveCell { .. }
                | DesignEdit::SetNetModel { .. }
                | DesignEdit::SetPeriod { .. }
        )
    }

    /// The timing-engine notification this edit maps to, if it affects
    /// timing at all. Coarse artifact replacements map to
    /// [`TimingEdit::Structural`] (conservative: full rebuild) when the
    /// replaced artifact feeds timing; placement/result replacements map
    /// to `None`.
    #[must_use]
    pub fn timing_edit(&self) -> Option<TimingEdit> {
        match self {
            DesignEdit::ResizeCell { cell, .. } => Some(TimingEdit::ResizeCell(*cell)),
            DesignEdit::SwapTier { cell, .. } => Some(TimingEdit::SwapTier(*cell)),
            DesignEdit::SetNetModel { net, .. } => Some(TimingEdit::NetModel(*net)),
            DesignEdit::SetPeriod { .. } => Some(TimingEdit::Period),
            DesignEdit::ReplaceNetlist { .. }
            | DesignEdit::ReplaceTiers
            | DesignEdit::ReplaceParasitics
            | DesignEdit::ReplaceClockTree => Some(TimingEdit::Structural),
            _ => None,
        }
    }
}

/// An append-only sequence of [`DesignEdit`] records — what one pipeline
/// stage (or one optimization loop) did to a [`DesignDb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    edits: Vec<DesignEdit>,
}

impl Journal {
    /// Number of recorded edits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// The recorded edits, in application order.
    #[must_use]
    pub fn edits(&self) -> &[DesignEdit] {
        &self.edits
    }

    /// Appends one record.
    pub fn push(&mut self, edit: DesignEdit) {
        self.edits.push(edit);
    }

    /// `true` when every record is fine-grained (replayable).
    #[must_use]
    pub fn is_replayable(&self) -> bool {
        self.edits.iter().all(DesignEdit::is_fine_grained)
    }

    /// The timing-engine view of the journal: one notification per edit
    /// that affects timing, in journal order — the complete edit list
    /// `Timer::update_journaled` asks for.
    #[must_use]
    pub fn timing_edits(&self) -> Vec<TimingEdit> {
        self.edits
            .iter()
            .filter_map(DesignEdit::timing_edit)
            .collect()
    }
}

/// Error from [`DesignDb::replay`]: the journal contained a coarse
/// artifact replacement, which carries no payload to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError {
    /// The offending record.
    pub edit: DesignEdit,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal is not replayable: {:?} has no payload",
            self.edit
        )
    }
}

impl std::error::Error for ReplayError {}

/// The unified design database: every artifact of one implementation in
/// flight, behind copy-on-write `Arc` snapshots, with a change journal.
///
/// Structural artifacts produced by later stages (floorplan, placement,
/// routing, ...) are `Option` — a freshly constructed db holds only the
/// netlist, technology and an all-bottom tier assignment.
#[derive(Debug, Clone)]
pub struct DesignDb {
    netlist: Arc<Netlist>,
    stack: Arc<TierStack>,
    tiers: Arc<Vec<Tier>>,
    period_ns: f64,
    tech: TechContext,
    floorplan: Option<Arc<Floorplan>>,
    placement: Option<Arc<Placement>>,
    global_placement: Option<Arc<Placement>>,
    routing: Option<Arc<RoutingResult>>,
    clock_tree: Option<Arc<ClockTree>>,
    parasitics: Option<Arc<Parasitics>>,
    sta: Option<Arc<StaResult>>,
    power: Option<Arc<PowerResult>>,
    journal: Journal,
}

impl DesignDb {
    /// A fresh database: the given netlist and technology, every cell on
    /// the bottom tier, no derived artifacts, an empty journal.
    #[must_use]
    pub fn new(netlist: Netlist, stack: TierStack, period_ns: f64) -> Self {
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        DesignDb {
            netlist: Arc::new(netlist),
            stack: Arc::new(stack),
            tiers: Arc::new(tiers),
            period_ns,
            tech: TechContext::default(),
            floorplan: None,
            placement: None,
            global_placement: None,
            routing: None,
            clock_tree: None,
            parasitics: None,
            sta: None,
            power: None,
            journal: Journal::default(),
        }
    }

    /// [`DesignDb::new`] over an already-shared netlist: the handle is
    /// reused as-is, so forking many databases off one buffered netlist
    /// (the five-configuration study) never copies it.
    #[must_use]
    pub fn from_shared(netlist: Arc<Netlist>, stack: TierStack, period_ns: f64) -> Self {
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        DesignDb {
            netlist,
            stack: Arc::new(stack),
            tiers: Arc::new(tiers),
            period_ns,
            tech: TechContext::default(),
            floorplan: None,
            placement: None,
            global_placement: None,
            routing: None,
            clock_tree: None,
            parasitics: None,
            sta: None,
            power: None,
            journal: Journal::default(),
        }
    }

    /// Tags the database with the technology scenario it is being
    /// implemented under (builder style; the default is monolithic
    /// stacking at the typical corner). The scenario rides along
    /// through [`DesignDb::fork`] so checkpoints stay distinguishable.
    #[must_use]
    pub fn with_tech(mut self, tech: TechContext) -> Self {
        self.tech = tech;
        self
    }

    /// The technology scenario this database is implemented under.
    #[must_use]
    pub fn tech(&self) -> TechContext {
        self.tech
    }

    /// An O(1) copy-on-write snapshot: shares every artifact with `self`,
    /// starts with an empty journal. Mutations on either side copy only
    /// the artifact they touch.
    #[must_use]
    pub fn fork(&self) -> DesignDb {
        DesignDb {
            journal: Journal::default(),
            ..self.clone()
        }
    }

    // ---- read access ----------------------------------------------------

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

    /// The technology stack.
    #[must_use]
    pub fn stack(&self) -> &TierStack {
        &self.stack
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

    /// The floorplan, once a floorplanning stage ran.
    #[must_use]
    pub fn floorplan(&self) -> Option<&Floorplan> {
        self.floorplan.as_deref()
    }

    /// Shared handle to the floorplan.
    #[must_use]
    pub fn floorplan_arc(&self) -> Option<Arc<Floorplan>> {
        self.floorplan.clone()
    }

    /// The legalized placement.
    #[must_use]
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_deref()
    }

    /// Shared handle to the legalized placement.
    #[must_use]
    pub fn placement_arc(&self) -> Option<Arc<Placement>> {
        self.placement.clone()
    }

    /// The pre-legalization (global) placement.
    #[must_use]
    pub fn global_placement(&self) -> Option<&Placement> {
        self.global_placement.as_deref()
    }

    /// Shared handle to the global placement.
    #[must_use]
    pub fn global_placement_arc(&self) -> Option<Arc<Placement>> {
        self.global_placement.clone()
    }

    /// The routing result.
    #[must_use]
    pub fn routing(&self) -> Option<&RoutingResult> {
        self.routing.as_deref()
    }

    /// Shared handle to the routing result.
    #[must_use]
    pub fn routing_arc(&self) -> Option<Arc<RoutingResult>> {
        self.routing.clone()
    }

    /// The synthesized clock tree.
    #[must_use]
    pub fn clock_tree(&self) -> Option<&ClockTree> {
        self.clock_tree.as_deref()
    }

    /// Shared handle to the clock tree.
    #[must_use]
    pub fn clock_tree_arc(&self) -> Option<Arc<ClockTree>> {
        self.clock_tree.clone()
    }

    /// The extracted parasitics.
    #[must_use]
    pub fn parasitics(&self) -> Option<&Parasitics> {
        self.parasitics.as_deref()
    }

    /// Shared handle to the parasitics.
    #[must_use]
    pub fn parasitics_arc(&self) -> Option<Arc<Parasitics>> {
        self.parasitics.clone()
    }

    /// The sign-off timing result.
    #[must_use]
    pub fn sta(&self) -> Option<&StaResult> {
        self.sta.as_deref()
    }

    /// Shared handle to the sign-off timing result.
    #[must_use]
    pub fn sta_arc(&self) -> Option<Arc<StaResult>> {
        self.sta.clone()
    }

    /// The sign-off power result.
    #[must_use]
    pub fn power(&self) -> Option<&PowerResult> {
        self.power.as_deref()
    }

    /// Shared handle to the power result.
    #[must_use]
    pub fn power_arc(&self) -> Option<Arc<PowerResult>> {
        self.power.clone()
    }

    // ---- journal --------------------------------------------------------

    /// The journal accumulated since construction, the last fork, or the
    /// last [`DesignDb::take_journal`].
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Drains the journal, leaving it empty — how the pipeline driver
    /// collects per-stage journals.
    pub fn take_journal(&mut self) -> Journal {
        std::mem::take(&mut self.journal)
    }

    // ---- fine-grained journaling mutators -------------------------------

    /// Sets a gate's drive strength, journaling the change. No-op (and no
    /// journal record) when the drive is already `to` or the cell is not
    /// a gate.
    pub fn set_drive(&mut self, cell: CellId, to: Drive) {
        let Some(from) = self.netlist.cell(cell).class.gate_drive() else {
            return;
        };
        if from == to {
            return;
        }
        Arc::make_mut(&mut self.netlist).set_drive(cell, to);
        self.journal.push(DesignEdit::ResizeCell { cell, from, to });
    }

    /// Moves a cell to `to`'s tier, journaling the change. No-op when
    /// already there.
    pub fn set_tier(&mut self, cell: CellId, to: Tier) {
        let from = self.tiers[cell.index()];
        if from == to {
            return;
        }
        Arc::make_mut(&mut self.tiers)[cell.index()] = to;
        self.journal.push(DesignEdit::SwapTier { cell, from, to });
    }

    /// Moves a cell in the legalized placement, journaling the change.
    ///
    /// # Panics
    ///
    /// Panics when no placement exists yet.
    pub fn move_cell(&mut self, cell: CellId, to: Point) {
        let placement = self
            .placement
            .as_mut()
            .expect("move_cell requires a placement");
        let from = placement.positions[cell.index()];
        if from == to {
            return;
        }
        Arc::make_mut(placement).positions[cell.index()] = to;
        self.journal.push(DesignEdit::MoveCell { cell, from, to });
    }

    /// Re-models one net's RC, journaling the change.
    ///
    /// # Panics
    ///
    /// Panics when no parasitics exist yet.
    pub fn set_net_model(&mut self, net: NetId, to: NetModel) {
        let parasitics = self
            .parasitics
            .as_mut()
            .expect("set_net_model requires parasitics");
        let from = parasitics.net(net);
        if from == to {
            return;
        }
        *Arc::make_mut(parasitics).net_mut(net) = to;
        self.journal.push(DesignEdit::SetNetModel { net, from, to });
    }

    /// Changes the clock period, journaling the change.
    pub fn set_period(&mut self, to: f64) {
        let from = self.period_ns;
        if from == to {
            return;
        }
        self.period_ns = to;
        self.journal.push(DesignEdit::SetPeriod { from, to });
    }

    // ---- scoped mutable access ------------------------------------------

    /// Runs `f` with mutable access to the netlist **and** the journal, so
    /// optimization loops can batch-edit in place while recording what
    /// they did. The closure is responsible for journaling its own edits
    /// (the flow's sizing loops push one [`DesignEdit::ResizeCell`] per
    /// applied or rolled-back drive change).
    pub fn with_netlist_mut<R>(&mut self, f: impl FnOnce(&mut Netlist, &mut Journal) -> R) -> R {
        f(Arc::make_mut(&mut self.netlist), &mut self.journal)
    }

    /// Runs `f` with mutable access to the tier assignment and the
    /// journal (the repartitioning ECO's batch interface).
    pub fn with_tiers_mut<R>(&mut self, f: impl FnOnce(&mut [Tier], &mut Journal) -> R) -> R {
        let tiers: &mut Vec<Tier> = Arc::make_mut(&mut self.tiers);
        f(tiers, &mut self.journal)
    }

    // ---- coarse artifact replacement ------------------------------------

    /// Replaces the netlist wholesale (structural rebuild).
    pub fn replace_netlist(&mut self, netlist: Netlist) {
        self.journal.push(DesignEdit::ReplaceNetlist {
            cells: netlist.cell_count(),
            nets: netlist.net_count(),
        });
        self.netlist = Arc::new(netlist);
    }

    /// Replaces the whole tier assignment (min-cut partitioning).
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
        self.journal.push(DesignEdit::ReplaceTiers);
    }

    /// Installs a floorplan.
    pub fn set_floorplan(&mut self, fp: Floorplan) {
        self.floorplan = Some(Arc::new(fp));
        self.journal.push(DesignEdit::ReplaceFloorplan);
    }

    /// Installs a legalized placement.
    pub fn set_placement(&mut self, placement: Placement) {
        self.placement = Some(Arc::new(placement));
        self.journal.push(DesignEdit::ReplacePlacement);
    }

    /// Installs a global (pre-legalization) placement.
    pub fn set_global_placement(&mut self, placement: Placement) {
        self.global_placement = Some(Arc::new(placement));
        self.journal.push(DesignEdit::ReplaceGlobalPlacement);
    }

    /// Installs a shared global-placement handle (checkpoint reuse: the
    /// pseudo-3-D seed placement is shared, not copied, across forks).
    pub fn set_global_placement_arc(&mut self, placement: Arc<Placement>) {
        self.global_placement = Some(placement);
        self.journal.push(DesignEdit::ReplaceGlobalPlacement);
    }

    /// Installs a routing result.
    pub fn set_routing(&mut self, routing: RoutingResult) {
        self.routing = Some(Arc::new(routing));
        self.journal.push(DesignEdit::ReplaceRouting);
    }

    /// Installs a clock tree.
    pub fn set_clock_tree(&mut self, tree: ClockTree) {
        self.clock_tree = Some(Arc::new(tree));
        self.journal.push(DesignEdit::ReplaceClockTree);
    }

    /// Installs extracted parasitics.
    pub fn set_parasitics(&mut self, parasitics: Parasitics) {
        self.parasitics = Some(Arc::new(parasitics));
        self.journal.push(DesignEdit::ReplaceParasitics);
    }

    /// Installs shared parasitics (checkpoint reuse).
    pub fn set_parasitics_arc(&mut self, parasitics: Arc<Parasitics>) {
        self.parasitics = Some(parasitics);
        self.journal.push(DesignEdit::ReplaceParasitics);
    }

    /// Installs a sign-off timing result — owned, or an already-shared
    /// handle (one analysis can be the sign-off of several corner sets;
    /// none of them copies it).
    pub fn set_sta(&mut self, sta: impl Into<Arc<StaResult>>) {
        self.sta = Some(sta.into());
        self.journal.push(DesignEdit::ReplaceSta);
    }

    /// Installs a sign-off power result.
    pub fn set_power(&mut self, power: PowerResult) {
        self.power = Some(Arc::new(power));
        self.journal.push(DesignEdit::ReplacePower);
    }

    // ---- replay & identity ----------------------------------------------

    /// Re-applies a fine-grained journal (the `to` values) to this
    /// database, journaling as it goes. Applied to a fork of the snapshot
    /// the journal was recorded against, this reproduces the journaled
    /// state bit for bit ([`DesignDb::state_fingerprint`] agrees).
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] on the first coarse (non-replayable) record;
    /// edits before it have been applied.
    pub fn replay(&mut self, journal: &Journal) -> Result<(), ReplayError> {
        for edit in journal.edits() {
            match *edit {
                DesignEdit::ResizeCell { cell, to, .. } => self.set_drive(cell, to),
                DesignEdit::SwapTier { cell, to, .. } => self.set_tier(cell, to),
                DesignEdit::MoveCell { cell, to, .. } => self.move_cell(cell, to),
                DesignEdit::SetNetModel { net, to, .. } => self.set_net_model(net, to),
                DesignEdit::SetPeriod { to, .. } => self.set_period(to),
                ref coarse => {
                    return Err(ReplayError {
                        edit: coarse.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Exact fingerprint of the mutable design state: FNV-1a over the
    /// gate drives, tier assignment, placement position bits, net-model
    /// bits and the period bits. Two databases with equal fingerprints
    /// hold bit-identical journaled state.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        const FNV: u64 = 0x0000_0100_0000_01B3;
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            h = (h ^ v).wrapping_mul(FNV);
        };
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
    use m3d_tech::Library;

    fn small_db() -> DesignDb {
        let netlist = Benchmark::Aes.generate(0.01, 3);
        let parasitics = Parasitics::zero_wire(&netlist);
        let mut db = DesignDb::new(netlist, TierStack::heterogeneous(), 1.0);
        db.set_parasitics(parasitics);
        let _ = db.take_journal();
        db
    }

    #[test]
    fn tech_scenario_defaults_and_survives_forks() {
        let db = small_db();
        assert!(db.tech().is_default());
        let scenario = TechContext {
            stacking: m3d_tech::StackingStyle::F2fHybridBond,
            corners: m3d_tech::CornerSet::Worst,
        };
        let tagged = db.fork().with_tech(scenario);
        assert_eq!(tagged.tech(), scenario);
        assert_eq!(tagged.fork().tech(), scenario);
        // The original is untouched.
        assert!(db.tech().is_default());
    }

    fn first_gate(db: &DesignDb) -> CellId {
        db.netlist()
            .cells()
            .find(|(_, c)| c.class.is_gate())
            .map(|(id, _)| id)
            .expect("benchmark has gates")
    }

    #[test]
    fn netlist_fingerprint_is_content_based() {
        let a = Benchmark::Aes.generate(0.01, 3);
        let a_again = Benchmark::Aes.generate(0.01, 3);
        let other_seed = Benchmark::Aes.generate(0.01, 4);
        let other_scale = Benchmark::Aes.generate(0.02, 3);
        assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&a_again));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&other_seed));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&other_scale));
        // A single-drive resize must change the key: the cache would
        // otherwise serve stale checkpoints for an edited netlist.
        let mut edited = a.clone();
        let g = edited
            .cells()
            .find(|(_, c)| c.class.is_gate())
            .map(|(id, _)| id)
            .expect("gates");
        edited.set_drive(g, Drive::X16);
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&edited));
        assert_eq!(fingerprint_hex(netlist_fingerprint(&a)).len(), 16);
    }

    #[test]
    fn mutations_journal_and_cow() {
        let mut db = small_db();
        let fork = db.fork();
        let g = first_gate(&db);
        db.set_drive(g, Drive::X8);
        db.set_tier(g, Tier::Top);
        db.set_period(0.8);
        db.set_net_model(
            NetId::from_index(0),
            NetModel {
                wire_cap_ff: 3.0,
                wire_delay_ns: 0.01,
            },
        );
        assert_eq!(db.journal().len(), 4);
        assert!(db.journal().is_replayable());
        // The fork still sees the pre-edit state (copy-on-write).
        assert_ne!(
            fork.netlist().cell(g).class.gate_drive(),
            db.netlist().cell(g).class.gate_drive()
        );
        assert_eq!(fork.tiers()[g.index()], Tier::Bottom);
        assert_eq!(fork.period_ns(), 1.0);
        assert!(fork.journal().is_empty());
    }

    #[test]
    fn noop_mutations_do_not_journal() {
        let mut db = small_db();
        let g = first_gate(&db);
        let d = db.netlist().cell(g).class.gate_drive().expect("gate");
        db.set_drive(g, d);
        db.set_tier(g, Tier::Bottom);
        db.set_period(1.0);
        assert!(db.journal().is_empty());
    }

    #[test]
    fn replay_reproduces_state_bit_for_bit() {
        let mut db = small_db();
        let mut fork = db.fork();
        let g = first_gate(&db);
        db.set_drive(g, Drive::X8);
        db.set_tier(g, Tier::Top);
        db.set_period(0.77);
        let journal = db.take_journal();
        assert_ne!(db.state_fingerprint(), fork.state_fingerprint());
        fork.replay(&journal).expect("fine-grained journal");
        assert_eq!(db.state_fingerprint(), fork.state_fingerprint());
    }

    #[test]
    fn coarse_journals_do_not_replay() {
        let mut db = small_db();
        let tiers = db.tiers().to_vec();
        db.set_tiers(tiers);
        let journal = db.take_journal();
        assert!(!journal.is_replayable());
        let mut fork = db.fork();
        assert!(fork.replay(&journal).is_err());
    }

    #[test]
    fn timing_edits_map_the_flow_vocabulary() {
        let mut db = small_db();
        let g = first_gate(&db);
        db.set_drive(g, Drive::X8);
        db.set_period(0.9);
        db.set_tiers(vec![Tier::Bottom; db.netlist().cell_count()]);
        let edits = db.journal().timing_edits();
        assert_eq!(
            edits,
            vec![
                TimingEdit::ResizeCell(g),
                TimingEdit::Period,
                TimingEdit::Structural
            ]
        );
    }

    #[test]
    fn new_db_starts_on_bottom_tier() {
        let db = DesignDb::new(
            Benchmark::Aes.generate(0.01, 3),
            TierStack::two_d(Library::twelve_track()),
            1.0,
        );
        assert!(db.tiers().iter().all(|&t| t == Tier::Bottom));
        assert!(db.floorplan().is_none());
        assert!(db.journal().is_empty());
    }
}
