//! The timing engine: one propagation loop, seeded in full or by edits.
//!
//! The flow's optimization loops (sizing, the repartitioning ECO) call
//! timing after every small batch of edits. [`Timer`] keeps all propagated
//! arrays alive between calls and re-propagates from dirty seeds through
//! one loop (`Timer::propagate`). A cold analysis — the first update,
//! a structural edit, or [`crate::analyze`] — is that loop with every cell
//! and net seeded; [`Timer::update`] with an edit list seeds only what the
//! edits touch. The levelized graph is not owned here: every timer reads
//! the netlist's memo ([`Netlist::levels`]), which one structure builds
//! once for every timer, corner and power pass on it. An edit list
//! re-evaluates only:
//!
//! * **forward** (arrival/slew) — the fan-out cone of cells whose master
//!   changed (drive/tier) plus sinks of nets whose load or wire delay
//!   changed, walked level by level, stopping wherever the recomputed
//!   bits are unchanged;
//! * **endpoints** — endpoints whose data arrival or RAT inputs changed
//!   (a period-only edit dirties *every* endpoint RAT but **no** forward
//!   arc: arrivals never read the period);
//! * **backward** (required) — the fan-in cone of changed endpoint RATs,
//!   changed slews and changed sink arcs, walked in reverse level order.
//!
//! **Arc delays are forward state.** Evaluating a gate forward computes
//! the delay of each of its fanin arcs; the evaluation stores them in one
//! flat array (in levelization arc order) and the backward pass reads
//! them back through a structural (net, sink) → arc map — it performs no
//! table look-up of its own. An arc's delay is a function of its driver's
//! slew, the gate's master/tier binding and the gate's output load, and
//! the forward dirty rules above re-evaluate the gate whenever any of the
//! three changes, so after the forward phase the array is current by
//! construction: there is nothing to invalidate and no memo to miss. A
//! period-only edit re-evaluates no gate, so its whole backward cone is a
//! min-fold over stored delays.
//!
//! Scalar folds (WNS/TNS/violations, the sorted endpoint list and the
//! per-cell slack vector) always re-run over all endpoints in fixed
//! cell-index order; the loop's fold is the only copy of it.
//!
//! **Bit-identity contract.** Every re-evaluated entry is produced by a
//! pure kernel of [`crate::engine`] (`Forward::gates` / `Backward::gate` /
//! endpoint and launch evaluations) reading only already-finalized values;
//! propagation stops when the recomputed bits equal the stored bits, at
//! which point every transitive reader would also recompute identical bits
//! by induction. Given a complete edit list the result is therefore
//! bit-identical to a full seed of the same context. The reference both
//! are held to is `tests/sta_oracle.rs`, an independent evaluator that
//! shares no code with this crate.
//!
//! **What the edit list must cover.** The timer does not diff the design:
//! every drive, tier, net-model or clock-latency change since the last
//! update must appear in the edit list. A connectivity change (rewired
//! nets, inserted buffers) should be reported as
//! [`TimingEdit::Structural`], which re-seeds in full; one reported
//! without it is still caught, because the structure is identified, not
//! counted: a structural edit gives the netlist a fresh levelization
//! memo, and the timer rebuilds whenever the memo it holds is not the
//! context netlist's (`Arc::ptr_eq`). Over-reporting is harmless. Only
//! O(1) facts are re-checked on every call: that pointer, the stack's
//! identity, the period and the global clock constants. Completeness is
//! the caller's contract (the flow's sizing and ECO loops build the list
//! where they make the edit); the property tests hold it against a cold
//! `analyze` and the oracle.
//!
//! **The result is published as an `Arc`.** `update` returns a shared
//! handle on the timer's own result instead of a copy. The next update
//! takes the result back and edits it in place, copying it only when a
//! holder (a sign-off lane, say) still shares it; the holder keeps the
//! result it was given, unchanged. An empty edit list at the same
//! structure and period returns the held `Arc` itself.
//! [`Timer::update_journaled`] is the owned adapter the frozen `sta.*`
//! benchmark probes still call; it copies on every call and is deleted
//! with them.

use crate::context::{ClockSpec, TimingContext};
use crate::engine::{endpoint_point, launch_point, net_load_ff, Backward, Forward, StaResult};
use m3d_netlist::{CellClass, CellId, Levels, NetId, Netlist};
use std::sync::Arc;

/// Work counters of a [`Timer`], in units of "cell evaluations" (one
/// forward, backward, endpoint or launch kernel call each). A cold pass
/// costs [`Timer::full_pass_evals`] of these; the ratio of that (times
/// updates) to [`TimerStats::propagated_evals`] is the incremental win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStats {
    /// Full builds (first call, structural or global-constraint edits).
    pub full_rebuilds: u64,
    /// Incremental (dirty-cone) updates.
    pub incremental_updates: u64,
    /// Net-load recomputations.
    pub load_evals: u64,
    /// Launch-arrival evaluations (PI / register Q / macro output).
    pub launch_evals: u64,
    /// Forward gate evaluations (arrival + slew).
    pub forward_evals: u64,
    /// Endpoint RAT/arrival evaluations.
    pub endpoint_evals: u64,
    /// Backward required-time evaluations on combinational gates.
    pub backward_evals: u64,
    /// Required-time evaluations on launch cells.
    pub launch_required_evals: u64,
}

impl TimerStats {
    /// Total arc-propagation work performed (loads excluded): the number
    /// the acceptance criterion compares against `updates ×`
    /// [`Timer::full_pass_evals`].
    #[must_use]
    pub fn propagated_evals(&self) -> u64 {
        self.launch_evals
            + self.forward_evals
            + self.endpoint_evals
            + self.backward_evals
            + self.launch_required_evals
    }
}

/// One timing-relevant design change, as reported by the caller.
///
/// This is the [`Timer`]'s whole input vocabulary: [`Timer::update`]
/// takes a complete edit list and scans nothing else. The caller's
/// complete edit list covers every change since the previous update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingEdit {
    /// `cell`'s drive strength changed.
    ResizeCell(CellId),
    /// `cell` moved to another tier.
    SwapTier(CellId),
    /// `net`'s RC model changed.
    NetModel(NetId),
    /// The clock period changed.
    Period,
    /// Per-cell clock latencies changed (CTS refinement).
    ClockLatency,
    /// The netlist structure changed (full rebuild).
    Structural,
}

/// Fixed timing role of a cell (immutable once the structure is built).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Combinational gate (including clock buffers): forward + backward.
    Comb,
    /// Sequential gate: launch on Q, endpoint on D.
    Seq,
    /// Macro: launch on outputs, endpoint on inputs.
    Mac,
    /// Primary input: launch only.
    Pi,
    /// Primary output: endpoint only.
    Po,
}

impl Role {
    fn of(class: &CellClass) -> Role {
        match class {
            CellClass::Gate { kind, .. } if kind.is_sequential() => Role::Seq,
            CellClass::Gate { .. } => Role::Comb,
            CellClass::Macro(_) => Role::Mac,
            CellClass::PrimaryInput => Role::Pi,
            CellClass::PrimaryOutput => Role::Po,
        }
    }

    fn is_endpoint(self) -> bool {
        matches!(self, Role::Seq | Role::Mac | Role::Po)
    }

    fn is_launch(self) -> bool {
        matches!(self, Role::Pi | Role::Seq | Role::Mac)
    }
}

/// Everything the `Timer` snapshots between updates.
struct State {
    /// The netlist's levelization memo, shared, never copied; its
    /// identity is the structure's.
    levels: Arc<Levels>,
    roles: Vec<Role>,
    /// Indices of endpoint cells, ascending (the scalar-fold order).
    endpoint_cells: Vec<u32>,
    // ---- O(1) input fingerprints ---------------------------------------
    clock: ClockSpec,
    stack_addr: usize,
    // ---- propagated arrays --------------------------------------------
    net_load: Vec<f64>,
    endpoint_rat: Vec<f64>,
    /// Delay of every timing arc in `levels` arc order: written by each
    /// forward gate evaluation, read by the backward phases.
    arc_delay: Vec<f64>,
    // ---- cone-pass scratch: empty until the first edit list seeds it,
    // since a full seed reads no flag; cleared after every pass ----------
    dirty_fwd: Vec<bool>,
    dirty_bwd: Vec<bool>,
    dirty_ep: Vec<bool>,
    dirty_launch: Vec<bool>,
    dirty_load: Vec<bool>,
    /// Pre-counted cost of one cold pass, in eval units.
    full_pass: u64,
}

impl State {
    /// Allocates the dirty flags on the first cone pass.
    fn cone_scratch(&mut self) {
        if self.dirty_fwd.len() != self.roles.len() || self.dirty_load.len() != self.net_load.len()
        {
            let n = self.roles.len();
            self.dirty_fwd = vec![false; n];
            self.dirty_bwd = vec![false; n];
            self.dirty_ep = vec![false; n];
            self.dirty_launch = vec![false; n];
            self.dirty_load = vec![false; self.net_load.len()];
        }
    }

    /// The backward kernels over the current arrays and `result`'s.
    fn backward<'a, 'c>(
        &'a self,
        ctx: &'a TimingContext<'c>,
        result: &'a StaResult,
    ) -> Backward<'a, 'c> {
        Backward {
            ctx,
            levels: &self.levels,
            net_load: &self.net_load,
            arc_delay: &self.arc_delay,
            slew: &result.slew,
            required: &result.required,
            endpoint_rat: &self.endpoint_rat,
        }
    }
}

/// A persistent incremental timing engine.
///
/// Feed every evaluation through [`Timer::update`]; the first call (and
/// any call after a structural edit) seeds every cell and net, subsequent
/// calls re-propagate only the dirty cones. Results are bit-identical to
/// [`crate::analyze`] — itself a fresh timer's first update — on the same
/// context.
///
/// [`Timer::update`] publishes the timer's own result as an `Arc` and
/// the next update edits it in place (`Arc::make_mut`), so it is copied
/// only while some holder still shares it; holders that drop their `Arc`
/// first (the sizing and ECO loops do) cost no copy.
/// [`Timer::update_journaled`] is the owned adapter the frozen `sta.*`
/// benchmark probes hold.
///
/// One `Timer` tracks one design evolution: the netlist/stack/parasitics
/// behind the contexts passed to it must describe the same design being
/// edited in place (the flow's sizing and ECO loops do exactly this).
#[derive(Default)]
pub struct Timer {
    state: Option<State>,
    /// The latest result; present exactly when `state` is.
    result: Option<Arc<StaResult>>,
    stats: TimerStats,
}

impl Timer {
    /// A fresh timer; the first [`Timer::update`] performs the full
    /// build.
    #[must_use]
    pub fn new() -> Self {
        Timer::default()
    }

    /// Work counters accumulated over the timer's lifetime.
    #[must_use]
    pub fn stats(&self) -> TimerStats {
        self.stats
    }

    /// Cost of one cold pass in the units of [`TimerStats`], for speedup
    /// accounting. Zero before the first update.
    #[must_use]
    pub fn full_pass_evals(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.full_pass)
    }

    /// Test seam for the independent-oracle suite's negative test: adds
    /// `delta_ns` to one stored arc delay (slot taken modulo the arc
    /// count) so the next backward evaluation reads a wrong value. No-op
    /// before the first update or on an arc-less design.
    #[doc(hidden)]
    pub fn perturb_arc_delay_for_test(&mut self, slot: usize, delta_ns: f64) {
        if let Some(s) = self.state.as_mut().filter(|s| !s.arc_delay.is_empty()) {
            let slot = slot % s.arc_delay.len();
            s.arc_delay[slot] += delta_ns;
        }
    }

    /// The levelization the snapshot was built on.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> Option<&Arc<Levels>> {
        self.state.as_ref().map(|s| &s.levels)
    }

    /// The most recent result, if any update has run.
    #[must_use]
    pub fn result(&self) -> Option<&StaResult> {
        self.result.as_deref()
    }

    /// Brings the timing database up to date with `ctx` given a
    /// **complete** list of the changes since the previous update, and
    /// publishes the result — bit-identical to `analyze(ctx)` — as a
    /// shared handle on the timer's own (see the
    /// type docs: no copy is made here).
    ///
    /// Only the listed cells and nets are re-seeded, and the
    /// clock-latency vector is only diffed when the edit list says so. An
    /// empty `edits` list re-checks nothing but the O(1) fields (counts,
    /// stack identity, period and global clock constants — those stay
    /// checked because they are cheap and their drift would otherwise
    /// corrupt results silently); when they all hold, the held result is
    /// returned untouched (still booked as one incremental update).
    ///
    /// The caller contract: every change to the netlist, tiers,
    /// parasitics or clock latencies since the last update appears in
    /// `edits` (duplicates and over-reporting are harmless): it is the
    /// caller's complete edit list, built by the loop that makes the
    /// edits. A violated contract loses the bit-identity guarantee.
    pub fn update(&mut self, ctx: &TimingContext<'_>, edits: &[TimingEdit]) -> Arc<StaResult> {
        if edits.contains(&TimingEdit::Structural) || !self.matches_structure(ctx) {
            self.rebuild(ctx);
        } else if edits.is_empty()
            && self
                .state
                .as_ref()
                .is_some_and(|s| s.clock.period_ns == ctx.clock.period_ns)
        {
            self.stats.incremental_updates += 1;
        } else {
            self.incremental(ctx, edits);
        }
        Arc::clone(self.result.as_ref().expect("state built"))
    }

    /// [`Timer::update`] as an owned copy. Only the frozen `sta.*`
    /// benchmark probes call it; it goes when they do.
    pub fn update_journaled(&mut self, ctx: &TimingContext<'_>, edits: &[TimingEdit]) -> StaResult {
        StaResult::clone(&self.update(ctx, edits))
    }

    /// `true` when the snapshot exists and the context has the same
    /// structure and global constraints (so an incremental pass is valid).
    fn matches_structure(&self, ctx: &TimingContext<'_>) -> bool {
        let Some(s) = &self.state else { return false };
        // A structural edit replaces the netlist's memo, so a rewiring
        // that keeps every count still reads as a new structure.
        if !Arc::ptr_eq(&s.levels, &ctx.netlist.levels()) {
            return false;
        }
        if s.stack_addr != std::ptr::from_ref(ctx.stack) as usize {
            return false;
        }
        // Global clock fields feed defaults everywhere (slews, PO loads,
        // virtual I/O); changes are rare and coarse, so rebuild.
        if s.clock.input_slew_ns != ctx.clock.input_slew_ns
            || s.clock.virtual_io_latency_ns != ctx.clock.virtual_io_latency_ns
            || s.clock.output_load_ff != ctx.clock.output_load_ff
        {
            return false;
        }
        true
    }

    /// Full build: a fresh snapshot, every array initialised as no
    /// propagation has touched it, and a full seed — every net load, every
    /// launch, combinational and endpoint cell forward, every combinational
    /// and launch cell backward — through [`Timer::propagate`]. This is the
    /// cold analysis; there is no second propagation loop. The dirty flags
    /// stay unallocated: a full seed reads none, and a throwaway analysis
    /// ([`crate::analyze`]) never needs them.
    fn rebuild(&mut self, ctx: &TimingContext<'_>) {
        // Nothing below reads the old snapshot: free it before the full
        // seed allocates the new one.
        self.state = None;
        self.result = None;
        let netlist = ctx.netlist;
        let n = netlist.cell_count();
        let levels = netlist.levels();
        let roles: Vec<Role> = netlist.cells().map(|(_, c)| Role::of(&c.class)).collect();
        let endpoint_cells: Vec<u32> = (0..n as u32)
            .filter(|&i| roles[i as usize].is_endpoint())
            .collect();
        let comb = levels.comb_count() as u64;
        let launches = roles.iter().filter(|r| r.is_launch()).count() as u64;
        let full_pass = launches + comb + endpoint_cells.len() as u64 + comb + launches;
        self.stats.full_rebuilds += 1;
        self.state = Some(State {
            roles,
            endpoint_cells,
            clock: ctx.clock.clone(),
            stack_addr: std::ptr::from_ref(ctx.stack) as usize,
            net_load: vec![0.0; netlist.net_count()],
            endpoint_rat: vec![f64::INFINITY; n],
            arc_delay: vec![0.0; levels.arc_count()],
            dirty_fwd: Vec::new(),
            dirty_bwd: Vec::new(),
            dirty_ep: Vec::new(),
            dirty_launch: Vec::new(),
            dirty_load: Vec::new(),
            levels,
            full_pass,
        });
        self.result = Some(Arc::new(StaResult {
            arrival: vec![0.0; n],
            slew: vec![ctx.clock.input_slew_ns; n],
            required: vec![f64::INFINITY; n],
            // Written by the scalar fold, after the propagation's peak.
            slack: Vec::new(),
            wns: 0.0,
            tns: 0.0,
            endpoints: 0,
            violations: 0,
            period_ns: ctx.clock.period_ns,
            critical_endpoints: Vec::new(),
            worst_input: vec![u8::MAX; n],
            endpoint_slack: vec![f64::NAN; n],
        }));
        self.propagate(ctx, true);
    }

    /// Dirty-cone re-propagation: seeds from the edit list (see the module
    /// docs for the invalidation rules), then [`Timer::propagate`].
    fn incremental(&mut self, ctx: &TimingContext<'_>, edits: &[TimingEdit]) {
        let s = self.state.as_mut().expect("matches_structure checked");
        let netlist = ctx.netlist;
        let n = s.roles.len();
        self.stats.incremental_updates += 1;
        s.cone_scratch();

        // Seeds dirty conservatively — both the load and the wire-delay
        // cone of every reported net — which can only over-propagate,
        // never change bits.
        let mut master_cells: Vec<u32> = Vec::new();
        let mut latency_edit = false;
        let mut period_edit = false;
        for edit in edits {
            match *edit {
                TimingEdit::ResizeCell(c) | TimingEdit::SwapTier(c) => {
                    master_cells.push(c.index() as u32);
                }
                TimingEdit::NetModel(id) => {
                    let net = netlist.net(id);
                    if !net.is_clock {
                        s.dirty_load[id.index()] = true;
                        // Wire delay: sinks re-time forward, endpoint sinks
                        // re-read their data arrival, the driver re-times
                        // backward (required subtracts the wire).
                        for sink in &net.sinks {
                            let j = sink.cell.index();
                            match s.roles[j] {
                                Role::Comb => s.dirty_fwd[j] = true,
                                r if r.is_endpoint() => s.dirty_ep[j] = true,
                                _ => {}
                            }
                        }
                        if let Some(drv) = net.driver {
                            s.dirty_bwd[drv.cell.index()] = true;
                        }
                    } else if let Some(drv) = net.driver {
                        // Clock-net parasitics are never read — except the
                        // wire delay, by the required time of a gating
                        // cell that drives the net.
                        if s.roles[drv.cell.index()] == Role::Comb {
                            s.dirty_bwd[drv.cell.index()] = true;
                        }
                    }
                }
                TimingEdit::Period => period_edit = true,
                TimingEdit::ClockLatency => latency_edit = true,
                TimingEdit::Structural => unreachable!("structural edits rebuild"),
            }
        }
        master_cells.sort_unstable();
        master_cells.dedup();

        for &ci in &master_cells {
            let i = ci as usize;
            let id = CellId::from_index(i);
            match s.roles[i] {
                // Changed delay tables: re-derive the gate's own arrival
                // and the arcs into it (which its fan-in's required times
                // read).
                Role::Comb => {
                    s.dirty_fwd[i] = true;
                    mark_fanin(netlist, &s.roles, &mut s.dirty_bwd, id);
                }
                // Changed clk→Q and setup.
                Role::Seq => {
                    s.dirty_launch[i] = true;
                    s.dirty_ep[i] = true;
                }
                // Macros, ports: no library binding, nothing to re-time.
                Role::Mac | Role::Pi | Role::Po => {}
            }
            // A gate's input capacitance sits in its input nets' loads.
            if matches!(s.roles[i], Role::Comb | Role::Seq) {
                for net in netlist.input_nets(id) {
                    if !netlist.net(net).is_clock {
                        s.dirty_load[net.index()] = true;
                    }
                }
            }
        }

        // Per-cell clock-latency edits (CTS refinements).
        if latency_edit && s.clock.latency_ns != ctx.clock.latency_ns {
            for i in 0..n {
                if matches!(s.roles[i], Role::Seq | Role::Mac)
                    && s.clock.latency(i) != ctx.clock.latency(i)
                {
                    s.dirty_launch[i] = true;
                    s.dirty_ep[i] = true;
                }
            }
            s.clock.latency_ns.clone_from(&ctx.clock.latency_ns);
        }

        // Period edit: every endpoint RAT moves, no arrival does.
        if period_edit || s.clock.period_ns != ctx.clock.period_ns {
            s.clock.period_ns = ctx.clock.period_ns;
            for &e in &s.endpoint_cells {
                s.dirty_ep[e as usize] = true;
            }
        }
        self.propagate(ctx, false);
    }

    /// The one propagation loop, over whatever is seeded dirty: loads →
    /// launch arrivals → forward by level → endpoints → backward by
    /// reverse level → launch required → scalar folds. Each phase
    /// re-evaluates its dirty cells with the [`crate::engine`] kernels and
    /// marks their readers dirty only where the recomputed bits changed.
    ///
    /// A `full` seed is the cold analysis: every net load (a clock net's
    /// booked and left at zero, as no data arc reads it), every launch,
    /// combinational and endpoint cell forward and every combinational and
    /// launch cell backward is dirty, so it reads no flag and marks none —
    /// the mark walks would only re-mark dirty readers (on a 308 k-cell
    /// design and 2 vCPUs they cost about 60 of 165 ms). Each of its
    /// forward levels at least `m3d_par::PAR_THRESHOLD` gates wide runs on
    /// the process-wide thread count (DESIGN §9); a narrower level, and
    /// every level of a cone pass, stays on the calling thread.
    #[allow(clippy::too_many_lines)]
    fn propagate(&mut self, ctx: &TimingContext<'_>, full: bool) {
        let s = self.state.as_mut().expect("seeded");
        // Copies only while a holder of the last published result remains.
        let r = Arc::make_mut(self.result.as_mut().expect("built with the state"));
        let netlist = ctx.netlist;
        let n = s.roles.len();
        let threads = m3d_par::resolve(0);
        let parallel = full && threads > 1;

        // ---- phase A: net loads -----------------------------------------
        for k in 0..s.net_load.len() {
            if !full && !s.dirty_load[k] {
                continue;
            }
            let id = NetId::from_index(k);
            self.stats.load_evals += 1;
            if netlist.net(id).is_clock {
                continue;
            }
            let load = net_load_ff(ctx, id);
            if load.to_bits() == s.net_load[k].to_bits() {
                continue;
            }
            s.net_load[k] = load;
            if full {
                continue;
            }
            // The driver's arcs and its fan-in's arcs into it read this
            // load.
            if let Some(drv) = netlist.net(id).driver {
                let d = drv.cell.index();
                match s.roles[d] {
                    Role::Comb => s.dirty_fwd[d] = true,
                    Role::Seq => s.dirty_launch[d] = true,
                    _ => continue,
                }
                mark_fanin(netlist, &s.roles, &mut s.dirty_bwd, drv.cell);
            }
        }

        // ---- phase B: launch arrivals -----------------------------------
        for i in 0..n {
            if !s.roles[i].is_launch() || (!full && !s.dirty_launch[i]) {
                continue;
            }
            let id = CellId::from_index(i);
            self.stats.launch_evals += 1;
            let (at, out_slew) = launch_point(ctx, &s.net_load, id).expect("a launch role");
            let at_changed = at.to_bits() != r.arrival[i].to_bits();
            let slew_changed = out_slew.to_bits() != r.slew[i].to_bits();
            if !at_changed && !slew_changed {
                continue;
            }
            r.arrival[i] = at;
            r.slew[i] = out_slew;
            if !full {
                mark_sinks(netlist, &s.roles, &mut s.dirty_fwd, &mut s.dirty_ep, id);
                // The launch cell's own required time reads its slew.
                s.dirty_bwd[i] |= slew_changed;
            }
        }

        // ---- phase C: forward, by ascending level -----------------------
        // Dirty gates are collected as *order positions* so each one reads
        // its fanin arcs straight out of the CSR arc arrays.
        for li in 0..s.levels.level_count() {
            let dirty: Vec<usize> = s
                .levels
                .level_range(li)
                .filter(|&k| full || s.dirty_fwd[s.levels.cell_at(k).index()])
                .collect();
            if dirty.is_empty() {
                continue;
            }
            self.stats.forward_evals += dirty.len() as u64;
            let forward = Forward {
                ctx,
                levels: &s.levels,
                net_load: &s.net_load,
                arrival: &r.arrival,
                slew: &r.slew,
            };
            let level_threads =
                (parallel && dirty.len() >= m3d_par::PAR_THRESHOLD).then_some(threads);
            let results = forward.gates(&dirty, &mut s.arc_delay, level_threads);
            for (&k, (at, pin, out_slew)) in dirty.iter().zip(results) {
                let id = s.levels.cell_at(k);
                let i = id.index();
                r.worst_input[i] = pin;
                let at_changed = at.to_bits() != r.arrival[i].to_bits();
                let slew_changed = out_slew.to_bits() != r.slew[i].to_bits();
                if !at_changed && !slew_changed {
                    continue;
                }
                r.arrival[i] = at;
                r.slew[i] = out_slew;
                if !full {
                    mark_sinks(netlist, &s.roles, &mut s.dirty_fwd, &mut s.dirty_ep, id);
                    s.dirty_bwd[i] |= slew_changed;
                }
            }
        }

        // ---- phase D: endpoints -----------------------------------------
        // An endpoint reads its drivers' arrivals, never another
        // endpoint's, so each is stored as it is evaluated.
        for &e in &s.endpoint_cells {
            let i = e as usize;
            if !full && !s.dirty_ep[i] {
                continue;
            }
            self.stats.endpoint_evals += 1;
            let (rat, worst_at, is_po) =
                endpoint_point(ctx, &r.arrival, i).expect("endpoint role implies endpoint view");
            let rat_changed = rat.to_bits() != s.endpoint_rat[i].to_bits();
            s.endpoint_rat[i] = rat;
            r.endpoint_slack[i] = rat - worst_at;
            if is_po {
                r.arrival[i] = worst_at;
                r.required[i] = rat;
            }
            if rat_changed && !full {
                // Fan-in required times read this endpoint's RAT.
                mark_fanin(netlist, &s.roles, &mut s.dirty_bwd, CellId::from_index(i));
            }
        }

        // ---- phase E: backward, by descending level ---------------------
        for li in (0..s.levels.level_count()).rev() {
            let dirty: Vec<CellId> = s
                .levels
                .level(li)
                .iter()
                .copied()
                .filter(|id| full || s.dirty_bwd[id.index()])
                .collect();
            if dirty.is_empty() {
                continue;
            }
            self.stats.backward_evals += dirty.len() as u64;
            let backward = s.backward(ctx, r);
            let results: Vec<Option<f64>> = dirty.iter().map(|&id| backward.gate(id)).collect();
            for (&id, rat) in dirty.iter().zip(results) {
                let i = id.index();
                let Some(rat) = rat else { continue };
                if rat.to_bits() == r.required[i].to_bits() {
                    continue;
                }
                r.required[i] = rat;
                if !full {
                    mark_fanin(netlist, &s.roles, &mut s.dirty_bwd, id);
                }
            }
        }

        // ---- phase F: launch required -----------------------------------
        for i in 0..n {
            if !s.roles[i].is_launch() || (!full && !s.dirty_bwd[i]) {
                continue;
            }
            self.stats.launch_required_evals += 1;
            if let Some(rat) = s.backward(ctx, r).launch(i) {
                r.required[i] = rat;
            }
        }

        // ---- phase G: scalar folds (always full, fixed order) -----------
        r.slack.clear();
        r.slack.extend((0..n).map(|i| {
            let launch = r.required[i] - r.arrival[i];
            if r.endpoint_slack[i].is_nan() {
                launch
            } else {
                launch.min(r.endpoint_slack[i])
            }
        }));
        let mut endpoints_v: Vec<(CellId, f64)> = Vec::with_capacity(s.endpoint_cells.len());
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut violations = 0usize;
        for &e in &s.endpoint_cells {
            let i = e as usize;
            let slack = r.endpoint_slack[i];
            if slack < wns {
                wns = slack;
            }
            if slack < 0.0 {
                tns += slack;
                violations += 1;
            }
            endpoints_v.push((CellId::from_index(i), slack));
        }
        if endpoints_v.is_empty() {
            wns = 0.0;
        }
        endpoints_v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        r.critical_endpoints = endpoints_v.iter().map(|&(id, _)| id).collect();
        r.wns = wns;
        r.tns = tns;
        r.violations = violations;
        r.endpoints = endpoints_v.len();
        r.period_ns = ctx.clock.period_ns;

        // ---- reset scratch ----------------------------------------------
        s.dirty_fwd.fill(false);
        s.dirty_bwd.fill(false);
        s.dirty_ep.fill(false);
        s.dirty_launch.fill(false);
        s.dirty_load.fill(false);
    }
}

/// Marks the sinks of every non-clock output net of `id`: combinational
/// sinks must re-time forward, endpoint sinks must re-read their data
/// arrival.
fn mark_sinks(
    netlist: &Netlist,
    roles: &[Role],
    dirty_fwd: &mut [bool],
    dirty_ep: &mut [bool],
    id: CellId,
) {
    for net in netlist.output_nets(id) {
        if netlist.net(net).is_clock {
            continue;
        }
        for sink in &netlist.net(net).sinks {
            let j = sink.cell.index();
            match roles[j] {
                Role::Comb => dirty_fwd[j] = true,
                r if r.is_endpoint() => dirty_ep[j] = true,
                _ => {}
            }
        }
    }
}

/// Marks the drivers of `id`'s input nets for backward re-evaluation
/// (their required times read arcs into / the RAT of `id`). Drivers that
/// are launch cells are picked up by the launch-required pass; a clock
/// net is skipped unless a combinational (gating) cell drives it, because
/// launch required times never traverse clock nets.
fn mark_fanin(netlist: &Netlist, roles: &[Role], dirty_bwd: &mut [bool], id: CellId) {
    for net in netlist.input_nets(id) {
        let Some(drv) = netlist.net(net).driver else {
            continue;
        };
        let d = drv.cell.index();
        if !netlist.net(net).is_clock || roles[d] == Role::Comb {
            dirty_bwd[d] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Parasitics;
    use crate::engine::analyze;
    use m3d_tech::{CellKind, Drive, Library, Tier, TierStack};

    fn assert_bit_identical(a: &StaResult, b: &StaResult) {
        assert_eq!(a.wns.to_bits(), b.wns.to_bits(), "wns");
        assert_eq!(a.tns.to_bits(), b.tns.to_bits(), "tns");
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.period_ns.to_bits(), b.period_ns.to_bits());
        assert_eq!(a.critical_endpoints, b.critical_endpoints);
        assert_eq!(a.worst_input, b.worst_input);
        for i in 0..a.arrival.len() {
            assert_eq!(
                a.arrival[i].to_bits(),
                b.arrival[i].to_bits(),
                "arrival[{i}]"
            );
            assert_eq!(a.slew[i].to_bits(), b.slew[i].to_bits(), "slew[{i}]");
            assert_eq!(
                a.required[i].to_bits(),
                b.required[i].to_bits(),
                "required[{i}]"
            );
            assert_eq!(a.slack[i].to_bits(), b.slack[i].to_bits(), "slack[{i}]");
            assert_eq!(
                a.endpoint_slack[i].to_bits(),
                b.endpoint_slack[i].to_bits(),
                "endpoint_slack[{i}]"
            );
        }
    }

    #[test]
    fn journaled_update_matches_cold_analyze_through_edits() {
        let mut netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::heterogeneous();
        let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
        let mut parasitics = Parasitics::zero_wire(&netlist);
        let mut period = 1.0;
        let mut timer = Timer::new();

        let gates: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .map(|(id, _)| id)
            .collect();

        // Build once, then feed every edit through the edit list: the
        // Timer must never fall back to a rebuild.
        for step in 0..12 {
            let mut edits: Vec<TimingEdit> = Vec::new();
            match step % 4 {
                0 => {
                    for j in 0..3 {
                        let g = gates[(step * 37 + j * 11) % gates.len()];
                        let d = netlist.cell(g).class.gate_drive().expect("gate");
                        netlist.set_drive(g, d.upsized().unwrap_or(Drive::X1));
                        edits.push(TimingEdit::ResizeCell(g));
                    }
                }
                1 => {
                    let g = gates[step * 61 % gates.len()];
                    tiers[g.index()] = tiers[g.index()].other();
                    edits.push(TimingEdit::SwapTier(g));
                }
                2 => {
                    period *= 0.95;
                    edits.push(TimingEdit::Period);
                }
                _ => {
                    let k = NetId::from_index(step * 13 % netlist.net_count());
                    parasitics.net_mut(k).wire_delay_ns += 0.004;
                    parasitics.net_mut(k).wire_cap_ff += 1.5;
                    edits.push(TimingEdit::NetModel(k));
                }
            }
            let ctx = TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(period),
            };
            let incr = timer.update(&ctx, &edits);
            let cold = analyze(&ctx);
            assert_bit_identical(&incr, &cold);
        }
        let stats = timer.stats();
        assert_eq!(stats.full_rebuilds, 1, "edit lists must avoid rebuilds");
        assert_eq!(stats.incremental_updates, 11);
        assert!(
            stats.propagated_evals() < 12 * timer.full_pass_evals(),
            "incremental must do less work than cold passes: {} vs {}",
            stats.propagated_evals(),
            12 * timer.full_pass_evals()
        );

        // An empty edit list is a pure re-confirmation: bit-identical result,
        // no propagation work at all.
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(period),
        };
        let before = timer.stats().propagated_evals();
        let noop = timer.update(&ctx, &[]);
        assert_bit_identical(&noop, &analyze(&ctx));
        assert_eq!(timer.stats().propagated_evals(), before);
    }

    #[test]
    fn a_first_update_books_exactly_one_cold_pass() {
        let netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::heterogeneous();
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(1.0),
        };
        let mut timer = Timer::new();
        let _ = timer.update(&ctx, &[]);
        let stats = timer.stats();
        assert!(timer.full_pass_evals() > 0);
        assert_eq!(stats.propagated_evals(), timer.full_pass_evals());
        assert_eq!(stats.load_evals, netlist.net_count() as u64);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.incremental_updates, 0);
    }

    #[test]
    fn an_empty_update_returns_the_held_result_itself() {
        let netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::heterogeneous();
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(1.0),
        };
        let mut timer = Timer::new();
        let built = timer.update(&ctx, &[]);
        let before = timer.stats();
        let again = timer.update(&ctx, &[]);
        assert!(Arc::ptr_eq(&built, &again), "no edit, no new result");
        let after = timer.stats();
        assert_eq!(after.incremental_updates, before.incremental_updates + 1);
        assert_eq!(after.full_rebuilds, before.full_rebuilds);
        assert_eq!(after.propagated_evals(), before.propagated_evals());
        assert_eq!(after.load_evals, before.load_evals);
    }

    #[test]
    fn a_held_result_survives_later_edits_unchanged() {
        let mut netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::heterogeneous();
        let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let gates: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let mut timer = Timer::new();
        let mut edits: Vec<TimingEdit> = Vec::new();
        for step in 0..4 {
            let ctx = TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(0.8),
            };
            let held = timer.update(&ctx, &edits);
            let old_cold = analyze(&ctx);
            assert_bit_identical(&held, &old_cold);

            // Resize on even steps, swap a tier on odd ones, while `held`
            // still shares the timer's result.
            let g = gates[(step * 53 + 7) % gates.len()];
            edits = if step % 2 == 0 {
                let d = netlist.cell(g).class.gate_drive().expect("gate");
                netlist.set_drive(g, d.upsized().unwrap_or(Drive::X1));
                vec![TimingEdit::ResizeCell(g)]
            } else {
                tiers[g.index()] = tiers[g.index()].other();
                vec![TimingEdit::SwapTier(g)]
            };
            let ctx = TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(0.8),
            };
            let new = timer.update(&ctx, &edits);
            assert!(!Arc::ptr_eq(&held, &new), "a shared result is copied");
            assert_bit_identical(&held, &old_cold);
            assert_bit_identical(&new, &analyze(&ctx));
            edits.clear();
        }
        assert_eq!(timer.stats().full_rebuilds, 1);
    }

    #[test]
    fn the_owned_adapter_equals_the_published_result() {
        let mut netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::heterogeneous();
        let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let gates: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let (mut shared, mut owned) = (Timer::new(), Timer::new());
        let mut period = 1.0;
        for step in 0..9 {
            let edits = match step % 3 {
                0 if step == 0 => vec![],
                0 => {
                    period *= 0.9;
                    vec![TimingEdit::Period]
                }
                1 => {
                    let g = gates[step * 29 % gates.len()];
                    let d = netlist.cell(g).class.gate_drive().expect("gate");
                    netlist.set_drive(g, d.upsized().unwrap_or(Drive::X1));
                    vec![TimingEdit::ResizeCell(g)]
                }
                _ => {
                    let g = gates[step * 41 % gates.len()];
                    tiers[g.index()] = tiers[g.index()].other();
                    vec![TimingEdit::SwapTier(g)]
                }
            };
            let ctx = TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(period),
            };
            let published = shared.update(&ctx, &edits);
            assert_bit_identical(&owned.update_journaled(&ctx, &edits), &published);
        }
        assert_eq!(shared.stats(), owned.stats());
    }

    #[test]
    fn period_only_edit_touches_no_forward_arc() {
        let netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let mut timer = Timer::new();
        let run = |timer: &mut Timer, period: f64| {
            timer.update(
                &TimingContext {
                    netlist: &netlist,
                    stack: &stack,
                    tiers: &tiers,
                    parasitics: &parasitics,
                    clock: ClockSpec::with_period(period),
                },
                &[TimingEdit::Period],
            )
        };
        let _ = run(&mut timer, 1.0);
        let forward_after_build = timer.stats().forward_evals;
        let launch_after_build = timer.stats().launch_evals;
        for (i, p) in [0.9, 0.8, 1.1, 0.6].into_iter().enumerate() {
            let incr = run(&mut timer, p);
            let cold = analyze(&TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(p),
            });
            assert_bit_identical(&incr, &cold);
            assert_eq!(
                timer.stats().forward_evals,
                forward_after_build,
                "rung {i}: period edits must not re-propagate arrivals"
            );
            assert_eq!(timer.stats().launch_evals, launch_after_build);
        }
    }

    #[test]
    fn structural_edit_falls_back_to_rebuild() {
        let mut netlist = m3d_netgen::Benchmark::Ldpc.generate(0.015, 9);
        let stack = TierStack::two_d(Library::twelve_track());
        let mut timer = Timer::new();
        {
            let tiers = vec![Tier::Bottom; netlist.cell_count()];
            let parasitics = Parasitics::zero_wire(&netlist);
            let _ = timer.update(
                &TimingContext {
                    netlist: &netlist,
                    stack: &stack,
                    tiers: &tiers,
                    parasitics: &parasitics,
                    clock: ClockSpec::with_period(1.0),
                },
                &[],
            );
        }
        // Buffer insertion adds cells and nets.
        let mut positions = vec![m3d_geom::Point::ORIGIN; netlist.cell_count()];
        let inserted = m3d_opt_free_insert(&mut netlist, &mut positions);
        assert!(inserted > 0, "ldpc has high-fanout nets");
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(1.0),
        };
        let incr = timer.update(&ctx, &[TimingEdit::Structural]);
        assert_bit_identical(&incr, &analyze(&ctx));
        assert_eq!(timer.stats().full_rebuilds, 2);
    }

    #[test]
    fn a_rewiring_that_keeps_every_count_rebuilds_without_a_structural_edit() {
        let mut netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 5);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let ctx = |netlist: &Netlist, f: &mut dyn FnMut(&TimingContext<'_>) -> StaResult| {
            f(&TimingContext {
                netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(1.0),
            })
        };
        let mut timer = Timer::new();
        let before = ctx(&netlist, &mut |c| StaResult::clone(&timer.update(c, &[])));
        // A primary output that is its net's last sink, on a gate-driven
        // net, moves to a net a primary input drives: the same cell and
        // net counts, another design.
        let driver_class = |netlist: &Netlist, net: NetId| {
            netlist
                .net(net)
                .driver
                .map(|d| Role::of(&netlist.cell(d.cell).class))
        };
        let (po, from) = netlist
            .cells()
            .filter(|(_, c)| matches!(c.class, CellClass::PrimaryOutput))
            .find_map(|(id, _)| {
                let net = netlist.input_net(id, 0)?;
                let last = netlist.net(net).sinks.last()?.cell == id;
                (last && driver_class(&netlist, net) == Some(Role::Comb)).then_some((id, net))
            })
            .expect("a gate-driven primary output");
        let to = netlist
            .net_ids()
            .find(|&n| !netlist.net(n).is_clock && driver_class(&netlist, n) == Some(Role::Pi))
            .expect("a primary-input net");
        let (cells, nets) = (netlist.cell_count(), netlist.net_count());
        let keep = netlist.net(from).fanout() - 1;
        assert_eq!(netlist.detach_sinks(from, keep).len(), 1);
        netlist.connect(to, po, 0);
        assert_eq!((netlist.cell_count(), netlist.net_count()), (cells, nets));

        // No `Structural` edit in the list: the timer must notice anyway.
        let incr = ctx(&netlist, &mut |c| StaResult::clone(&timer.update(c, &[])));
        let cold = ctx(&netlist, &mut |c| analyze(c));
        let i = po.index();
        assert_ne!(
            before.endpoint_slack[i].to_bits(),
            cold.endpoint_slack[i].to_bits(),
            "the rewiring moves the output's slack"
        );
        assert_bit_identical(&incr, &cold);
        assert_eq!(timer.stats().full_rebuilds, 2);
    }

    /// Minimal stand-in for `m3d_opt::insert_buffers` (the opt crate
    /// depends on this one, so tests here cannot call it): splits the
    /// first net with fanout > 8 exactly the way the optimizer does.
    fn m3d_opt_free_insert(
        netlist: &mut m3d_netlist::Netlist,
        positions: &mut Vec<m3d_geom::Point>,
    ) -> usize {
        let mut inserted = 0;
        let ids: Vec<NetId> = netlist.net_ids().collect();
        for net_id in ids {
            let net = netlist.net(net_id);
            if net.is_clock || net.fanout() <= 8 {
                continue;
            }
            let spill = netlist.detach_sinks(net_id, 8);
            let buf = netlist.add_gate(
                format!("tbuf{}", net_id.index()),
                CellKind::Buf,
                Drive::X4,
                0,
            );
            netlist.connect(net_id, buf, 0);
            let new_net = netlist.add_net(format!("tnet{}", net_id.index()), buf, 0);
            for pin in spill {
                netlist.connect(new_net, pin.cell, pin.pin);
            }
            positions.push(m3d_geom::Point::ORIGIN);
            inserted += 1;
            break;
        }
        inserted
    }
}
