//! The pass pipeline: stage functions over one fixed order.
//!
//! Every configuration runs `pseudo3d → partition → tier_legalize →
//! route → cts → size → sign_off` (3-D) or `tier_legalize → route → cts
//! → size → sign_off` (2-D), in one pass. A stage is a plain function
//! that takes its inputs as arguments and returns its artifact by value;
//! the pass drivers ([`Prefix::build`], [`first_pass`], [`refinish`],
//! [`run_eco`]) hand each to the next, so the order holds by
//! construction. The mutable design (drives, tiers, period) lives in the
//! copy-on-write [`DesignDb`], a pass's physical artifacts in its
//! [`Layout`].
//!
//! Three checkpoints make the expensive prefixes shareable, each holding
//! what no later axis reads ([`FlowOptions::read_set`] declares which
//! options are read in front of each; DESIGN §12 has the stage × axis
//! table):
//!
//! * [`BaseDesign`] — the validated, fanout-buffered netlist. Built once
//!   by [`prepare_base`]; every configuration, fmax rung and comparison
//!   job forks its database off this one `Arc`.
//! * [`PseudoCheckpoint`] — the pseudo-3-D stage's output (flat placement
//!   and parasitics on the halved footprint, in the canonical 12-track
//!   technology). It reads neither the period nor the technology
//!   scenario, so [`pseudo_checkpoint`] computes it once and every 3-D
//!   run of the netlist forks from it; a run without one computes its
//!   own. The `flow/pseudo3d_runs` counter records each computation — a
//!   five-way comparison or a whole Pareto grid must show exactly one.
//! * `Prefix` — the pre-sizing prefix of one `(config, stacking)`: the
//!   first pass up to the clock tree. No stage in it reads the sign-off
//!   corners or the clock period: timing-driven partitioning ranks cells
//!   by a pseudo-3-D STA at a fixed zero period, so the prefix holds for
//!   every frequency. Every run is `finish(prefix, period, corner sets)`.
//!   A one-shot [`run_from_base`] builds its prefix and consumes it; every
//!   run of a [`FlowSession`](crate::FlowSession) — whatever the command
//!   — keeps the one it builds under its `prefix_key`, and the session's
//!   later runs of the key, at any period, fork it.
//!
//! The corner axis is a sign-off fan-out of one walk: `finish` takes a
//! list of corner sets and yields one [`Implementation`] per set. The
//! corners are read by [`sign_off`] and by the repartitioning ECO's stop
//! test only, so the lanes share every stage and differ in *when they
//! stop*: a lane whose stop test fires keeps the design as it stands and
//! the walk goes on for the rest.

use crate::config::{Config, FlowOptions, ReadSet};
use crate::error::FlowError;
use crate::flow::Implementation;
use m3d_cts::{synthesize, ClockTree, CtsMode};
use m3d_db::DesignDb;
use m3d_geom::{Point, Rect};
use m3d_netlist::{CellClass, CellId, Netlist};
use m3d_obs::{Obs, Span};
use m3d_opt::DriveEdit;
use m3d_partition::{
    bin_min_cut_with_stats, repartition_eco_with, timing_driven_assignment, EcoConfig, EcoOutcome,
    EcoStop, EcoTimingView, PartitionConfig, TimingAssignment,
};
use m3d_place::{
    global_place, row_center, try_legalize_with_stats, Floorplan, LegalStats, Placement,
};
use m3d_power::{analyze_power, PowerConfig, PowerResult};
use m3d_route::{
    global_route, try_extract_parasitics_with_stats, ExtractStats, RouteTotals, RoutingResult,
};
use m3d_sta::{
    analyze, worst_paths, ClockSpec, Parasitics, StaResult, Timer, TimingContext, TimingEdit,
};
use m3d_tech::{Corner, CornerSet, Library, TechContext, Tier, TierStack};
use std::sync::Arc;

/// The flow's immutable starting point: the validated, fanout-buffered
/// netlist every configuration implements. Cheap to clone (one `Arc`).
#[derive(Debug, Clone)]
pub struct BaseDesign {
    /// The buffered netlist, shared by every run forked from this base.
    pub netlist: Arc<Netlist>,
}

/// The pseudo-3-D stage's output: a flat 2-D implementation in the
/// canonical (12-track) technology on the halved 3-D footprint. Both
/// artifacts are period-independent, so one checkpoint seeds every 3-D
/// run of the same netlist — fmax rungs and comparison jobs alike.
#[derive(Debug, Clone)]
pub struct PseudoCheckpoint {
    /// The (overlapping, Shrunk-2D style) flat placement.
    pub placement: Arc<Placement>,
    /// Pre-route parasitics of that placement.
    pub parasitics: Arc<Parasitics>,
    /// The shrunk die the placement lives in.
    pub die: Rect,
    /// The canonical flat stack the pseudo implementation used.
    pub stack: Arc<TierStack>,
}

/// The physical artifacts of one pass, from legalization through CTS:
/// their one owner (the database holds none of them). Cheap to clone.
/// It keeps only what a later stage reads: the per-net routes end at
/// extraction, which folds them into `parasitics`, and only their
/// totals stay.
#[derive(Clone)]
struct Layout {
    floorplan: Arc<Floorplan>,
    placement: Arc<Placement>,
    routing: RouteTotals,
    parasitics: Arc<Parasitics>,
    clock_tree: Arc<ClockTree>,
}

/// One sign-off the walk owes, born at the walk's first sign-off: a
/// corner set, the result of its latest [`sign_off`] and its running
/// repartitioning-ECO outcome. Everything else about the design is the
/// walk's. A lane is live until it retires; it then holds the design as
/// it stood (O(1) `Arc` copies) and the walk goes on for the rest.
struct Lane {
    corners: CornerSet,
    sta: Arc<StaResult>,
    power: Arc<PowerResult>,
    /// The ECO totals since the first sign-off (reported only when the
    /// ECO runs).
    eco: EcoOutcome,
    retired: Option<Retired>,
}

/// A retired lane's implementation under the sized witness: whether the
/// last sizing ran against the tier assignment it signs off.
enum Retired {
    Sized(Implementation),
    Unsized(Implementation),
}

impl Retired {
    fn into_implementation(self) -> Implementation {
        match self {
            Retired::Sized(imp) | Retired::Unsized(imp) => imp,
        }
    }
}

impl Lane {
    fn new(corners: CornerSet, sta: Arc<StaResult>, power: Arc<PowerResult>) -> Lane {
        let eco = EcoOutcome {
            iterations: 0,
            cells_moved: 0,
            rounds_undone: 0,
            initial_wns: sta.wns,
            final_wns: sta.wns,
            final_tns: sta.tns,
            stop_reason: EcoStop::Converged,
        };
        Lane {
            corners,
            sta,
            power,
            eco,
            retired: None,
        }
    }

    fn is_live(&self) -> bool {
        self.retired.is_none()
    }
}

/// The design state threaded through the passes of one run: the
/// copy-on-write [`DesignDb`] (netlist, stack, tiers, period), the
/// partitioner's locked set, the persistent incremental [`Timer`]
/// (reset at each pass boundary) and the sized witness.
struct FlowState {
    config: Config,
    db: DesignDb,
    timing_assignment: Option<TimingAssignment>,
    timer: Timer,
    /// The tier assignment the last [`size`] ran against (`None` before
    /// any): the design is sized while this is the database's own `Arc`.
    sized_tiers: Option<Arc<Vec<Tier>>>,
}

impl FlowState {
    /// A state over `db` with a fresh timer, sized never.
    fn new(config: Config, db: DesignDb, timing_assignment: Option<TimingAssignment>) -> FlowState {
        FlowState {
            config,
            db,
            timing_assignment,
            timer: Timer::new(),
            sized_tiers: None,
        }
    }

    /// Whether the last sizing ran against the current tier assignment.
    fn is_sized(&self) -> bool {
        let tiers = self.db.tiers_arc();
        self.sized_tiers
            .as_ref()
            .is_some_and(|t| Arc::ptr_eq(t, &tiers))
    }
}

/// A walk past its first sign-off: the design, the current pass's
/// layout and one lane per corner set the run signs off at.
struct Walk {
    state: FlowState,
    layout: Layout,
    lanes: Vec<Lane>,
}

impl Walk {
    /// The [`Implementation`] `lane` signs off: the design and layout as
    /// they stand with the lane's own sign-off, sharing every artifact.
    fn implementation(&self, lane: &Lane, options: &FlowOptions) -> Implementation {
        let (state, layout) = (&self.state, &self.layout);
        Implementation {
            config: state.config,
            tech: TechContext {
                stacking: options.tech.stacking,
                corners: lane.corners,
            },
            frequency_ghz: 1.0 / state.db.period_ns(),
            netlist: state.db.netlist_arc(),
            stack: state.db.stack_arc(),
            tiers: state.db.tiers_arc(),
            floorplan: Arc::clone(&layout.floorplan),
            placement: Arc::clone(&layout.placement),
            routing: layout.routing,
            parasitics: Arc::clone(&layout.parasitics),
            clock_tree: Arc::clone(&layout.clock_tree),
            sta: Arc::clone(&lane.sta),
            power: Arc::clone(&lane.power),
            utilization: options.utilization,
            eco: eco_enabled(state.config, options).then(|| lane.eco.clone()),
            timing_assignment: state.timing_assignment.clone(),
        }
    }

    /// Retires every live lane `stop` holds for, recording its
    /// [`Implementation`] under the sized witness; later passes skip it.
    /// Until the enhanced flow sizes before it signs off unmoved tiers,
    /// the witness reports an unsized sign-off and does not refuse it.
    fn retire(&mut self, options: &FlowOptions, stop: impl Fn(&Lane) -> bool) {
        let sized = self.state.is_sized();
        for i in 0..self.lanes.len() {
            if self.lanes[i].is_live() && stop(&self.lanes[i]) {
                let imp = self.implementation(&self.lanes[i], options);
                self.lanes[i].retired = Some(if sized {
                    Retired::Sized(imp)
                } else {
                    Retired::Unsized(imp)
                });
            }
        }
    }

    /// The implementations of a finished walk, one per lane in order.
    fn into_implementations(self) -> Vec<Implementation> {
        let retired = self.lanes.into_iter().map(|lane| lane.retired);
        retired
            .map(|r| r.expect("finish retires every lane").into_implementation())
            .collect()
    }
}

// ---------------------------------------------------------------------
// shared helpers (one definition each; every stage goes through these)
// ---------------------------------------------------------------------

/// Per-cell area under `lib`-per-tier binding (gates only; macros and
/// ports are zero — their area is handled by the floorplan).
fn cell_areas(netlist: &Netlist, stack: &TierStack, tiers: &[Tier]) -> Vec<f64> {
    netlist
        .cells()
        .map(|(id, c)| match &c.class {
            CellClass::Gate { kind, drive } => stack
                .library(tiers[id.index()])
                .cell(*kind, *drive)
                .map_or(0.0, |m| m.area_um2),
            _ => 0.0,
        })
        .collect()
}

/// Content-based netlist fingerprint in manifest/cache-key form (shared
/// with the serve-layer checkpoint cache via [`m3d_db`]).
fn netlist_fingerprint(netlist: &Netlist) -> String {
    m3d_db::fingerprint_hex(m3d_db::netlist_fingerprint(netlist))
}

/// Publishes a persistent [`Timer`]'s lifetime counters: the propagation
/// work (deterministic — dirty sets depend only on the edit sequence).
/// Lifetime counters must be booked exactly once, so this is called where
/// a timer retires: before a pass boundary replaces it and at the end of
/// the run.
fn record_timer(obs: &Obs, timer: &Timer) {
    if !obs.is_enabled() {
        return;
    }
    let st = timer.stats();
    obs.counter_add("sta/full_rebuilds", st.full_rebuilds);
    obs.counter_add("sta/incremental_updates", st.incremental_updates);
    obs.counter_add("sta/load_evals", st.load_evals);
    obs.counter_add("sta/launch_evals", st.launch_evals);
    obs.counter_add("sta/forward_evals", st.forward_evals);
    obs.counter_add("sta/endpoint_evals", st.endpoint_evals);
    obs.counter_add("sta/backward_evals", st.backward_evals);
    obs.counter_add("sta/launch_required_evals", st.launch_required_evals);
    obs.counter_add("sta/propagated_evals", st.propagated_evals());
}

/// Publishes a routing result's deterministic totals.
fn record_routing(obs: &Obs, routing: &RoutingResult) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("route/mivs", routing.total_mivs as u64);
    obs.counter_add("route/overflow_edges", routing.overflow_edges as u64);
    obs.gauge_add("route/wirelength_um", routing.total_wirelength_um);
    obs.gauge_add("route/prim_wirelength_um", routing.prim_wirelength_um);
}

/// Publishes an extraction pass's deterministic totals.
fn record_extract(obs: &Obs, stats: &ExtractStats) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("extract/rc_segments", stats.rc_segments);
    obs.gauge_add("extract/length_um", stats.total_length_um);
    obs.gauge_add("extract/wire_cap_ff", stats.total_wire_cap_ff);
}

/// Publishes a legalization run's deterministic displacement figures,
/// and its search effort as perf-only counters.
fn record_legalize(obs: &Obs, stats: &LegalStats) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("legalize/moved_cells", stats.moved_cells);
    obs.gauge_add(
        "legalize/total_displacement_um",
        stats.total_displacement_um,
    );
    obs.gauge_set("legalize/max_displacement_um", stats.max_displacement_um);
    obs.perf_add("legalize/row_probes", stats.row_probes);
    obs.perf_add("legalize/fallbacks", stats.fallbacks);
}

/// The one place a [`TimingContext`] is assembled in this crate: every
/// cold `analyze`, every sizing/ECO evaluate closure and every
/// [`Timer`] update goes through here, so parasitics/clock wiring cannot
/// drift between call sites.
fn timing_context<'a>(
    netlist: &'a Netlist,
    stack: &'a TierStack,
    tiers: &'a [Tier],
    parasitics: &'a Parasitics,
    clock: ClockSpec,
) -> TimingContext<'a> {
    TimingContext {
        netlist,
        stack,
        tiers,
        parasitics,
        clock,
    }
}

/// Assembles STA inputs and runs the engine (one-shot cold pass; loops
/// use the state's persistent [`Timer`] instead).
fn run_sta(
    netlist: &Netlist,
    stack: &TierStack,
    tiers: &[Tier],
    parasitics: &Parasitics,
    period_ns: f64,
    latency: Option<&ClockTree>,
) -> StaResult {
    analyze(&timing_context(
        netlist,
        stack,
        tiers,
        parasitics,
        clock_spec(period_ns, latency),
    ))
}

/// Clock constraints for sign-off: propagated register latencies (the
/// tree's own, shared) plus a virtual I/O clock at the network's mean
/// insertion delay. The one constructor of a propagated clock: the
/// stages and [`Implementation::clock_spec`] go through it.
pub(crate) fn clock_spec(period_ns: f64, latency: Option<&ClockTree>) -> ClockSpec {
    let mut clock = ClockSpec::with_period(period_ns);
    if let Some(tree) = latency {
        clock.latency_ns = Arc::clone(&tree.sink_latency);
        let lats = tree.latencies();
        if !lats.is_empty() {
            clock.virtual_io_latency_ns = lats.iter().sum::<f64>() / lats.len() as f64;
        }
    }
    clock
}

// ---------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------

/// Validates and fanout-buffers the input netlist into the shared
/// [`BaseDesign`] every run forks from.
///
/// # Errors
///
/// Returns [`FlowError::InvalidNetlist`] when the input fails structural
/// validation.
pub fn prepare_base(netlist: &Netlist, options: &FlowOptions) -> Result<BaseDesign, FlowError> {
    netlist.validate()?;
    let mut netlist = netlist.clone();
    let mut scratch_positions = vec![Point::ORIGIN; netlist.cell_count()];
    {
        let _s = options.obs.span("buffering");
        let _ = m3d_opt::insert_buffers(&mut netlist, &mut scratch_positions, options.max_fanout);
    }
    Ok(BaseDesign {
        netlist: Arc::new(netlist),
    })
}

/// Runs the pseudo-3-D stage once, standalone, producing a checkpoint
/// that any number of 3-D runs of the same base can fork from.
///
/// # Errors
///
/// Returns [`FlowError::Extract`] when pre-route extraction rejects the
/// pseudo placement.
pub fn pseudo_checkpoint(
    base: &BaseDesign,
    options: &FlowOptions,
) -> Result<PseudoCheckpoint, FlowError> {
    pseudo3d(&base.netlist, options, &options.obs.span("pseudo3d"))
}

/// Implements `config` at `frequency_ghz`, forking off `base` (and off
/// `pseudo`, when given, skipping the pseudo-3-D computation) and
/// signing off at `options.tech.corners`, on a prefix it builds and
/// consumes — the one-shot run, which keeps nothing.
///
/// # Errors
///
/// Returns [`FlowError::InvalidFrequency`] for a non-positive or
/// non-finite target and propagates any stage failure.
pub fn run_from_base(
    base: &BaseDesign,
    pseudo: Option<&PseudoCheckpoint>,
    config: Config,
    frequency_ghz: f64,
    options: &FlowOptions,
) -> Result<Implementation, FlowError> {
    let period = period_ns(frequency_ghz)?;
    let corner_sets = [options.tech.corners];
    drive(base, config, period, &corner_sets, options, |root| {
        Prefix::build(base, pseudo, config, period, options, root)
    })
    .map(only_lane)
}

/// The clock period of a target frequency, ns.
///
/// # Errors
///
/// Returns [`FlowError::InvalidFrequency`] for a non-positive or
/// non-finite target.
pub(crate) fn period_ns(frequency_ghz: f64) -> Result<f64, FlowError> {
    if frequency_ghz.is_finite() && frequency_ghz > 0.0 {
        Ok(1.0 / frequency_ghz)
    } else {
        Err(FlowError::InvalidFrequency { frequency_ghz })
    }
}

/// The implementation of a run signed off at one corner set.
pub(crate) fn only_lane(mut lanes: Vec<Implementation>) -> Implementation {
    lanes.pop().expect("one corner set signs off one lane")
}

/// One run of `config` at `period` under `options.tech.stacking`, signed
/// off once per entry of `corner_sets` (the result order;
/// `options.tech.corners` is not read), over any source of its prefix:
/// `prefix(run span)` is asked once, inside the run's span, after its
/// labels.
pub(crate) fn drive(
    base: &BaseDesign,
    config: Config,
    period: f64,
    corner_sets: &[CornerSet],
    options: &FlowOptions,
    prefix: impl FnOnce(&Span) -> Result<Prefix, FlowError>,
) -> Result<Vec<Implementation>, FlowError> {
    let obs = &options.obs;
    let run_span = obs.span("run_flow");
    if obs.is_enabled() {
        obs.label_set("input/netlist", &base.netlist.name);
        obs.label_set("input/netlist_fp", &netlist_fingerprint(&base.netlist));
        obs.label_set("input/options_fp", &options.fingerprint());
        obs.label_set("input/config", &config.to_string());
        obs.perf_add("threads_resolved", m3d_par::resolve(options.threads) as u64);
    }
    let prefix = prefix(&run_span)?;
    Ok(finish(prefix, period, corner_sets, options, &run_span)?.into_implementations())
}

// ---------------------------------------------------------------------
// pass drivers
// ---------------------------------------------------------------------

/// What a session files a prefix under: the configuration and the
/// options its stages read ([`ReadSet::Prefix`], the stacking style
/// among them).
pub(crate) type PrefixKey = (Config, u64);

pub(crate) fn prefix_key(config: Config, options: &FlowOptions) -> PrefixKey {
    (config, options.read_set(ReadSet::Prefix))
}

/// The pre-sizing prefix of one `(config, stacking)`: the design and the
/// layout of the first pass through `cts`, in front of [`size`]. No
/// stage in it reads the clock period, so it holds for every period.
pub(crate) struct Prefix {
    state: FlowState,
    layout: Layout,
    /// The first pass's span while the run that built the prefix is
    /// still inside that pass: a run that consumes its own prefix keeps
    /// one `impl2d`/`finish3d` span around the whole pass, a fork opens
    /// its own.
    pass: Option<Span>,
}

impl std::fmt::Debug for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Prefix({})", self.state.config)
    }
}

impl Prefix {
    /// Runs the prefix stages of `config`, booking them on
    /// `options.obs`: `pseudo3d` (skipped when `pseudo` is given; its
    /// span stays) and `partition` under `root` for the 3-D
    /// configurations, then `tier_legalize → route → cts` under a fresh
    /// pass span, kept open for the sizing and sign-off that follow.
    /// `period_ns` is what the database is born with (a `DesignDb` always
    /// holds a period, and a prefix without the run's would have to
    /// invent one); no stage in here reads it
    /// (`prefix_does_not_read_the_period`).
    pub(crate) fn build(
        base: &BaseDesign,
        pseudo: Option<&PseudoCheckpoint>,
        config: Config,
        period_ns: f64,
        options: &FlowOptions,
        root: &Span,
    ) -> Result<Prefix, FlowError> {
        let stack = config.stack_for(&options.tech);
        let db = DesignDb::from_shared(base.netlist.clone(), stack, period_ns);
        let mut state = FlowState::new(config, db, None);
        let seed = if config.is_3d() {
            // The span opens either way: a forked run books it empty.
            let span = root.child("pseudo3d");
            let pseudo = match pseudo {
                Some(pseudo) => pseudo.clone(),
                None => pseudo3d(state.db.netlist(), options, &span)?,
            };
            drop(span);
            let (tiers, assignment) = partition(&state, &pseudo, options, &root.child("partition"));
            state.db.set_tiers(tiers);
            state.timing_assignment = assignment;
            Some(pseudo)
        } else {
            None
        };
        let pass = root.child(pass_name(config));
        let span = pass.child("tier_legalize");
        let (floorplan, placement) = tier_legalize(&state.db, seed.as_ref(), options, &span)?;
        drop(span);
        let layout = route_and_cts(&state, Arc::new(floorplan), placement, options, &pass)?;
        Ok(Prefix {
            state,
            layout,
            pass: Some(pass),
        })
    }

    /// An O(1) copy-on-write copy for one more [`finish`]: the `Arc`
    /// handles, a fresh timer (no prefix stage touches it), no open
    /// span. What a session keeps of the prefix its run consumes.
    pub(crate) fn snapshot(&self) -> Prefix {
        let state = &self.state;
        Prefix {
            state: FlowState::new(
                state.config,
                state.db.fork(),
                state.timing_assignment.clone(),
            ),
            layout: self.layout.clone(),
            pass: None,
        }
    }

    /// A [`Prefix::snapshot`] that books one `flow/prefix_forks` on the
    /// forking run.
    pub(crate) fn fork(&self, options: &FlowOptions) -> Prefix {
        options.obs.counter_add("flow/prefix_forks", 1);
        self.snapshot()
    }
}

/// The first pass's span name.
fn pass_name(config: Config) -> &'static str {
    if config.is_3d() {
        "finish3d"
    } else {
        "impl2d"
    }
}

/// `route → cts` over `placement` under `parent`: the pass's layout.
fn route_and_cts(
    state: &FlowState,
    floorplan: Arc<Floorplan>,
    placement: Placement,
    options: &FlowOptions,
    parent: &Span,
) -> Result<Layout, FlowError> {
    let (routing, parasitics) = route(&state.db, &placement, options, &parent.child("route"))?;
    let clock_tree = cts(state, &placement, options, &parent.child("cts"));
    Ok(Layout {
        floorplan,
        placement: Arc::new(placement),
        routing,
        parasitics: Arc::new(parasitics),
        clock_tree: Arc::new(clock_tree),
    })
}

/// Finishes `prefix` at `period_ns`: the rest of the first pass, then
/// the repartitioning ECO for the enhanced heterogeneous flow. The walk
/// comes back with every lane retired — one [`Implementation`] per entry
/// of `corner_sets`, in that order.
fn finish(
    prefix: Prefix,
    period_ns: f64,
    corner_sets: &[CornerSet],
    options: &FlowOptions,
    root: &Span,
) -> Result<Walk, FlowError> {
    let mut walk = first_pass(prefix, period_ns, corner_sets, options, root)?;
    if eco_enabled(walk.state.config, options) {
        run_eco(&mut walk, options, root)?;
    }
    record_timer(&options.obs, &walk.state.timer);
    walk.retire(options, |_| true);
    Ok(walk)
}

/// Whether the repartitioning ECO follows the main finish pass.
fn eco_enabled(config: Config, options: &FlowOptions) -> bool {
    config.is_heterogeneous() && options.enable_repartition
}

/// Takes `prefix` through its first sign-off at `period_ns`, where its
/// lanes are born: sizing (unless the ECO will size instead), then
/// sign-off, under the pass span the prefix kept open or a fresh one.
fn first_pass(
    prefix: Prefix,
    period_ns: f64,
    corner_sets: &[CornerSet],
    options: &FlowOptions,
    root: &Span,
) -> Result<Walk, FlowError> {
    let Prefix {
        mut state,
        layout,
        pass,
    } = prefix;
    state.db.set_period(period_ns);
    let pass = pass.unwrap_or_else(|| root.child(pass_name(state.config)));
    // With the repartitioning ECO on, sizing waits for `refinish`:
    // critical cells are first *moved* to the fast tier and only the
    // residue is upsized (this preserves the heterogeneous area win).
    // The span opens either way.
    let span = pass.child("sizing");
    if !eco_enabled(state.config, options) {
        size(&mut state, &layout, options, &span);
    }
    drop(span);
    let (stas, power) = sign_off(
        &mut state,
        &layout,
        corner_sets,
        options,
        &pass.child("sta_signoff"),
    );
    let lanes = corner_sets.iter().zip(stas);
    let lanes = lanes.map(|(&corners, sta)| Lane::new(corners, sta, Arc::clone(&power)));
    Ok(Walk {
        lanes: lanes.collect(),
        state,
        layout,
    })
}

/// Repartitioning ECO outer loop: after each ECO round the design is
/// incrementally re-finished (routing, CTS, sizing), which can expose new
/// critical paths through the slow tier; repeat until timing is met or
/// the ECO stops moving cells.
///
/// The rounds themselves read only the typical-corner timer; the stop
/// test reads each lane's own sign-off, so lanes retire independently:
/// one whose sign-off meets timing keeps the design of that round with
/// its own [`EcoOutcome`], and the walk continues for the rest.
fn run_eco(walk: &mut Walk, options: &FlowOptions, run_span: &Span) -> Result<(), FlowError> {
    let eco_span = run_span.child("eco");
    for _outer in 0..3 {
        let round_span = eco_span.child("round");
        let outcome = eco_round(&mut walk.state, &walk.layout, &options.obs);
        let moved = outcome.cells_moved;
        if moved > 0 {
            refinish(walk, options, &round_span)?;
        }
        drop(round_span);
        for lane in walk.lanes.iter_mut().filter(|lane| lane.is_live()) {
            let total = &mut lane.eco;
            total.iterations += outcome.iterations;
            total.cells_moved += outcome.cells_moved;
            total.rounds_undone += outcome.rounds_undone;
            total.stop_reason = outcome.stop_reason;
            total.final_wns = lane.sta.wns;
            total.final_tns = lane.sta.tns;
        }
        walk.retire(options, |lane| {
            moved == 0 || lane.sta.timing_met(options.wns_tolerance)
        });
        if !walk.lanes.iter().any(Lane::is_live) {
            break;
        }
    }
    Ok(())
}

/// One run of Algorithm 1 on the pass's own sign-off artifacts: the
/// layout's parasitics (extraction reads topology, placement and
/// routing, none of which changed since [`route`] produced them) and the
/// live [`Timer`], which [`sign_off`] left at exactly this design. The
/// first evaluate is therefore an empty-edit-list update and every
/// candidate batch (and every undo carry, which restores already-cached
/// arcs) re-propagates only the cone of the reported cells. Installs the
/// resulting tier assignment when the round moved a cell.
///
/// A run that ends on an undone batch leaves the timer one carry behind
/// the restored tiers; nothing reads it again — the caller either stops
/// (no cell moved) or re-finishes, which starts a fresh timer.
fn eco_round(state: &mut FlowState, layout: &Layout, obs: &Obs) -> EcoOutcome {
    let netlist = state.db.netlist_arc();
    let stack = state.db.stack_arc();
    let areas = cell_areas(&netlist, &stack, state.db.tiers());
    let clock_template = clock_spec(state.db.period_ns(), Some(&layout.clock_tree));
    let mut tiers_work = state.db.tiers().to_vec();
    let config = EcoConfig::default();
    let timer = &mut state.timer;
    let outcome = repartition_eco_with(
        &mut tiers_work,
        &areas,
        stack.fast_tier(),
        &config,
        |t, moved| {
            let edits: Vec<TimingEdit> = moved.iter().map(|&c| TimingEdit::SwapTier(c)).collect();
            let ctx = timing_context(
                &netlist,
                &stack,
                t,
                &layout.parasitics,
                clock_template.clone(),
            );
            let result = timer.update(&ctx, &edits);
            let paths = worst_paths(&ctx, &result, config.n0);
            EcoTimingView {
                wns: result.wns,
                tns: result.tns,
                critical_paths: paths
                    .iter()
                    .map(|p| p.stages.iter().map(|s| (s.cell, s.cell_delay_ns)).collect())
                    .collect(),
            }
        },
    );
    if obs.is_enabled() {
        obs.counter_add("eco/iterations", outcome.iterations as u64);
        obs.counter_add("eco/cells_moved", outcome.cells_moved as u64);
    }
    // Algorithm 1 moves cells slow → fast only and restores every undone
    // batch, so a round that moved nothing leaves the tiers as they were
    // — and keeps their `Arc`, which the sized witness compares.
    if outcome.cells_moved > 0 {
        state.db.set_tiers(tiers_work);
    } else {
        assert!(
            tiers_work == state.db.tiers(),
            "an ECO round that moved no cell changed tiers"
        );
    }
    outcome
}

/// Incremental ECO placement + re-sign-off of the live lanes: moved
/// cells keep their (x, y) and only snap onto the nearest row of their
/// new tier (real ECO flows resolve the residual overlap in detailed
/// placement, which is below this model's fidelity). Routing, CTS, a
/// short sizing pass and STA/power are refreshed through the regular
/// stages.
fn refinish(walk: &mut Walk, options: &FlowOptions, parent: &Span) -> Result<(), FlowError> {
    let span = parent.child("eco_refinish");
    let (state, layout) = (&mut walk.state, &mut walk.layout);
    let netlist = state.db.netlist_arc();
    let stack = state.db.stack_arc();
    let tiers = state.db.tiers_arc();
    let mut placement = (*layout.placement).clone();
    let die = placement.die;
    // The cells the legalizer rows, each onto its tier's rows: a cell
    // still on its row keeps its bits, ports and macros stay put.
    for (id, cell) in netlist.cells() {
        if cell.fixed || !cell.class.is_gate() {
            continue;
        }
        let i = id.index();
        let row_h = stack.library(tiers[i]).cell_height_um;
        let n_rows = ((die.height() / row_h).floor() as i64).max(1);
        let y = placement.positions[i].y;
        let row = (((y - die.lly()) / row_h).floor() as i64).clamp(0, n_rows - 1);
        placement.positions[i].y = row_center(die.lly(), row as usize, row_h);
    }
    placement.clamp_to_die();
    record_timer(&options.obs, &state.timer);
    state.timer = Timer::new();
    let floorplan = Arc::clone(&layout.floorplan);
    *layout = route_and_cts(state, floorplan, placement, options, &span)?;
    size(state, layout, options, &span.child("sizing"));
    let live = walk.lanes.iter_mut().filter(|lane| lane.is_live());
    let live: Vec<&mut Lane> = live.collect();
    let sets: Vec<CornerSet> = live.iter().map(|lane| lane.corners).collect();
    let (stas, power) = sign_off(state, layout, &sets, options, &span.child("sta_signoff"));
    for (lane, sta) in live.into_iter().zip(stas) {
        lane.sta = sta;
        lane.power = Arc::clone(&power);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// stages: each takes its inputs, returns its artifact, and is handed its
// own span last
// ---------------------------------------------------------------------

/// Pseudo-3-D: flat 2-D implementation in the canonical technology on
/// the halved 3-D footprint (cells may overlap — Shrunk-2D style). Counts
/// one `flow/pseudo3d_runs`: the prefix-reuse metric is this counter
/// summed over a whole manifest.
fn pseudo3d(
    netlist: &Netlist,
    options: &FlowOptions,
    span: &Span,
) -> Result<PseudoCheckpoint, FlowError> {
    options.obs.counter_add("flow/pseudo3d_runs", 1);
    // Canonical stack: every 3-D configuration shares the 12-track flat
    // technology here, which is what makes the checkpoint shareable
    // across configurations in the five-way comparison.
    let stack = Arc::new(TierStack::two_d(Library::twelve_track()));
    let tiers = vec![Tier::Bottom; netlist.cell_count()];
    let fp_full = Floorplan::new(netlist, &stack, &tiers, options.utilization);
    let shrink = 0.5_f64.sqrt();
    let pseudo_die = Rect::new(
        fp_full.die.llx(),
        fp_full.die.lly(),
        fp_full.die.llx() + fp_full.die.width() * shrink,
        fp_full.die.lly() + fp_full.die.height() * shrink,
    );
    let mut fp_pseudo = fp_full;
    fp_pseudo.die = pseudo_die;
    // Macros keep their lower-left anchoring; clamp into the shrunk die.
    for (_, _, r) in &mut fp_pseudo.macros {
        if !pseudo_die.contains_rect(r) {
            let w = r.width().min(pseudo_die.width());
            let h = r.height().min(pseudo_die.height());
            *r = Rect::with_size(pseudo_die.clamp_point(Point::new(r.llx(), r.lly())), w, h);
        }
    }
    let placement = {
        let _s = span.child("global_place");
        global_place(netlist, &fp_pseudo, &options.placer)
    };
    let (parasitics, px) = {
        let _s = span.child("extract");
        try_extract_parasitics_with_stats(netlist, &placement, &stack, None)?
    };
    record_extract(&options.obs, &px);
    Ok(PseudoCheckpoint {
        placement: Arc::new(placement),
        parasitics: Arc::new(parasitics),
        die: pseudo_die,
        stack,
    })
}

/// Tier partitioning: optional timing-driven locking (heterogeneous
/// enhancement #1) followed by placement-driven bin-based FM min-cut.
/// Balance accounting includes macro area (macros are locked to the
/// bottom tier, so FM shifts logic toward the top to compensate).
/// Returns the tier assignment and the locked set.
///
/// The locking ranks cells by the worst slack through each, from a
/// pseudo-3-D STA at a zero period: there the slack is minus the longest
/// path through the cell, and at any period it is that plus the period,
/// so the ranking is the period's own without reading it.
fn partition(
    state: &FlowState,
    pseudo: &PseudoCheckpoint,
    options: &FlowOptions,
    span: &Span,
) -> (Vec<Tier>, Option<TimingAssignment>) {
    let obs = &options.obs;
    let netlist = state.db.netlist();
    let stack = state.db.stack_arc();
    let n = netlist.cell_count();
    let mut tiers = state.db.tiers().to_vec();
    let pseudo_areas = pseudo_areas(netlist, pseudo, &tiers);
    let mut locked = vec![false; n];
    // Macros and ports stay on the bottom tier.
    for (id, cell) in netlist.cells() {
        if cell.class.is_macro() || cell.class.is_port() {
            locked[id.index()] = true;
            tiers[id.index()] = Tier::Bottom;
        }
    }
    let timing_assignment = if state.config.is_heterogeneous() && options.enable_timing_partition {
        let pseudo_sta = {
            let _s = span.child("sta");
            run_sta(
                netlist,
                &pseudo.stack,
                &tiers,
                &pseudo.parasitics,
                0.0,
                None,
            )
        };
        let criticality: Vec<f64> = (0..n)
            .map(|i| pseudo_sta.cell_criticality(CellId::from_index(i)))
            .collect();
        let cap = options
            .timing_partition_cap
            .min(lock_headroom(netlist, &pseudo_areas));
        let assignment = timing_driven_assignment(
            netlist,
            &criticality,
            &pseudo_areas,
            cap,
            stack.fast_tier(),
            &mut tiers,
        );
        for id in &assignment.locked_cells {
            locked[id.index()] = true;
        }
        Some(assignment)
    } else {
        None
    };
    let (_cut, fm_stats) = bin_min_cut_with_stats(
        netlist,
        &pseudo.placement.positions,
        pseudo.die,
        options.partition_bins,
        &pseudo_areas,
        &locked,
        &mut tiers,
        &PartitionConfig {
            seed: options.seed,
            ..Default::default()
        },
    );
    if obs.is_enabled() {
        obs.counter_add("partition/fm_passes", fm_stats.passes);
        obs.counter_add("partition/fm_moves", fm_stats.moves);
        obs.counter_add("partition/final_cut", fm_stats.cut);
    }
    (tiers, timing_assignment)
}

/// Per-cell area under the pseudo-3-D stack at `tiers`, each macro at
/// its own area: what the partitioner balances and locks by.
fn pseudo_areas(netlist: &Netlist, pseudo: &PseudoCheckpoint, tiers: &[Tier]) -> Vec<f64> {
    let mut areas = cell_areas(netlist, &pseudo.stack, tiers);
    for (id, cell) in netlist.cells() {
        if let CellClass::Macro(spec) = &cell.class {
            areas[id.index()] = spec.area_um2();
        }
    }
    areas
}

/// The largest share of gate area timing partitioning may lock onto the
/// fast tier. Macros already occupy the fast/bottom tier, so locked cells
/// plus macros must still fit in the bottom's half of the shared outline
/// (otherwise the footprint must grow and the heterogeneous area win
/// evaporates). `timing_partition_cap` is clamped to it, so every cap at
/// or above it locks the same set: the CPU's cache macros hold it between
/// 0.28 and 0.40, which is why the ablation's 0.40 and 0.60 rows match.
fn lock_headroom(netlist: &Netlist, pseudo_areas: &[f64]) -> f64 {
    let area_of = |keep: fn(&CellClass) -> bool| -> f64 {
        netlist
            .cells()
            .filter(|(_, c)| keep(&c.class))
            .map(|(id, _)| pseudo_areas[id.index()])
            .sum()
    };
    let macro_total = area_of(CellClass::is_macro);
    let gate_total = area_of(CellClass::is_gate);
    ((gate_total + macro_total) * 0.5 - macro_total).max(0.0) / gate_total.max(1e-9)
}

/// Floorplan + placement under the current tier assignment. 3-D runs
/// (`seed` given) transfer the pseudo placement into the (possibly
/// resized) die, heal the displacement with a short warm-start
/// refinement and legalize onto the per-tier rows; 2-D runs place from
/// scratch.
fn tier_legalize(
    db: &DesignDb,
    seed: Option<&PseudoCheckpoint>,
    options: &FlowOptions,
    span: &Span,
) -> Result<(Floorplan, Placement), FlowError> {
    let netlist = db.netlist();
    let stack = db.stack_arc();
    let tiers = db.tiers();
    let fp = Floorplan::new(netlist, &stack, tiers, options.utilization);
    let global_placement = if let Some(pseudo) = seed {
        // Transfer the seed placement into the (possibly resized) die.
        let sx = fp.die.width() / pseudo.die.width();
        let sy = fp.die.height() / pseudo.die.height();
        let mut placement = Placement::centered(netlist, fp.die);
        for i in 0..netlist.cell_count() {
            let p = pseudo.placement.positions[i];
            placement.positions[i] = Point::new(
                fp.die.llx() + (p.x - pseudo.die.llx()) * sx,
                fp.die.lly() + (p.y - pseudo.die.lly()) * sy,
            );
        }
        // Fixed cells to their floorplan slots.
        for (id, _, rect) in &fp.macros {
            placement.positions[id.index()] = rect.center();
        }
        let ports: Vec<usize> = netlist
            .cells()
            .filter(|(_, c)| c.class.is_port())
            .map(|(id, _)| id.index())
            .collect();
        for (k, &i) in ports.iter().enumerate() {
            placement.positions[i] = fp.io_position(k, ports.len());
        }
        let _s = span.child("refine_place");
        m3d_place::refine_place(netlist, &fp, &placement, &options.placer, 4)
    } else {
        let _s = span.child("global_place");
        global_place(netlist, &fp, &options.placer)
    };
    let (placement, legal_stats) = {
        let _s = span.child("legalize");
        try_legalize_with_stats(netlist, &global_placement, &fp, &stack, tiers)?
    };
    record_legalize(&options.obs, &legal_stats);
    Ok((fp, placement))
}

/// Global routing + parasitic extraction of `placement`. The per-net
/// routes end here: extraction folds them into the parasitics, and only
/// the routing totals are returned beside them.
fn route(
    db: &DesignDb,
    placement: &Placement,
    options: &FlowOptions,
    span: &Span,
) -> Result<(RouteTotals, Parasitics), FlowError> {
    let (netlist, stack) = (db.netlist(), db.stack_arc());
    let routing = global_route(netlist, placement, db.tiers(), &stack, &options.route);
    record_routing(&options.obs, &routing);
    let (parasitics, px) = {
        let _s = span.child("extract");
        try_extract_parasitics_with_stats(netlist, placement, &stack, Some(&routing))?
    };
    record_extract(&options.obs, &px);
    Ok((routing.totals(), parasitics))
}

/// Clock tree synthesis over `placement`: flat for 2-D, COVER-cell (or
/// legacy, per the baseline flow) for 3-D.
fn cts(state: &FlowState, placement: &Placement, options: &FlowOptions, _span: &Span) -> ClockTree {
    let mode = if state.config.is_3d() {
        if options.enable_3d_cts {
            CtsMode::Cover3d
        } else {
            CtsMode::Legacy3d
        }
    } else {
        CtsMode::Flat2d
    };
    let (netlist, tiers, stack) = (state.db.netlist(), state.db.tiers(), state.db.stack_arc());
    let clock_tree = synthesize(netlist, placement, tiers, &stack, mode, &options.cts);
    options
        .obs
        .counter_add("cts/buffers", clock_tree.buffer_count() as u64);
    clock_tree
}

/// Rounds of slack-driven upsizing, rounds of power-recovery
/// downsizing, and the downsizing slack margin as a fraction of the
/// period: the one sizing recipe every configuration and every ECO
/// re-finish runs, so an iso-performance delta is never a recipe's.
const SIZE_EFFORT: (usize, usize, f64) = (4, 3, 0.15);

/// Timing closure on `layout`: upsize violating cells, then recover
/// power on the comfortable ones, resizing the database's netlist in
/// place. The kernels report every applied (and rolled-back) drive
/// change to the evaluate closure, which hands the persistent timer
/// exactly those cells — no full-design diff scan per evaluate — and
/// books their count as `sizing/drive_edits`. Records the tiers it sized
/// against (the sized witness).
fn size(state: &mut FlowState, layout: &Layout, options: &FlowOptions, _span: &Span) {
    let (timing_rounds, power_rounds, power_margin) = SIZE_EFFORT;
    let stack = state.db.stack_arc();
    let tiers = state.db.tiers_arc();
    let period = state.db.period_ns();
    let (parasitics, clock_tree) = (&layout.parasitics, &layout.clock_tree);
    let clock_template = clock_spec(period, Some(clock_tree));
    let power_slack = period * power_margin;
    let timer = &mut state.timer;
    let mut drive_edits = 0;
    let mut eval = |nl: &Netlist, edits: &[DriveEdit]| {
        drive_edits += edits.len() as u64;
        let timing_edits: Vec<TimingEdit> = edits
            .iter()
            .map(|&(cell, _, _)| TimingEdit::ResizeCell(cell))
            .collect();
        timer.update(
            &timing_context(nl, &stack, &tiers, parasitics, clock_template.clone()),
            &timing_edits,
        )
    };
    state.db.with_netlist_mut(|nl| {
        m3d_opt::resize_for_timing_with(nl, 0.0, timing_rounds, &mut eval);
        m3d_opt::resize_for_power_with(nl, power_slack, power_rounds, &mut eval);
    });
    // No key when no edit reached the timer.
    if drive_edits > 0 {
        options.obs.counter_add("sizing/drive_edits", drive_edits);
    }
    state.sized_tiers = Some(tiers);
}

/// Sign-off STA and power of `layout`, once per entry of `corner_sets`:
/// the typical corner on the pass's incremental timer, every other
/// corner a set asks for by one cold [`analyze`], and each set's result
/// the worst of its own corners — for the typical corner, the timer's
/// own published result, not a copy. Power sign-off stays at the typical
/// corner, shared by every set: the paper's Table IV comparisons are
/// typical-corner power, and only the timing sign-off is
/// corner-dependent.
fn sign_off(
    state: &mut FlowState,
    layout: &Layout,
    corner_sets: &[CornerSet],
    options: &FlowOptions,
    _span: &Span,
) -> (Vec<Arc<StaResult>>, Arc<PowerResult>) {
    let netlist = state.db.netlist_arc();
    let stack = state.db.stack_arc();
    let tiers = state.db.tiers_arc();
    let parasitics = &layout.parasitics;
    let clock = clock_spec(state.db.period_ns(), Some(&layout.clock_tree));
    let typical = state.timer.update(
        &timing_context(&netlist, &stack, &tiers, parasitics, clock.clone()),
        &[],
    );
    let wanted = |corner: Corner| {
        corner_sets
            .iter()
            .any(|set| set.corners().contains(&corner))
    };
    let extra: Vec<Corner> = Corner::ALL
        .into_iter()
        .filter(|&corner| corner != Corner::Typical && wanted(corner))
        .collect();
    let mut analyzed = analyze_corners(
        state.config,
        options,
        &extra,
        &netlist,
        &tiers,
        parasitics,
        &clock,
    );
    let power = analyze_power(
        &netlist,
        &stack,
        &tiers,
        parasitics,
        Some(&layout.clock_tree),
        &PowerConfig {
            input_activity: options.input_activity,
            frequency_ghz: 1.0 / state.db.period_ns(),
            input_probability: 0.5,
        },
    );
    analyzed.push((Corner::Typical, typical));
    let at = |corner: Corner| {
        let found = analyzed.iter().find(|(c, _)| *c == corner);
        &found.expect("every corner a set asks for is analyzed").1
    };
    // The worst corner of each set: minimum WNS, ties toward the earlier
    // corner (`CornerResults::worst`'s rule).
    let worst = |set: &CornerSet| {
        let results = set.corners().iter().map(|&corner| at(corner));
        let worst = results.reduce(|w, r| if r.wns < w.wns { r } else { w });
        Arc::clone(worst.expect("a corner set is never empty"))
    };
    (corner_sets.iter().map(worst).collect(), Arc::new(power))
}

/// Analyzes the signed-off artifacts at each of `corners` (non-typical;
/// none for a typical-only sign-off).
///
/// Each corner gets its own derated stack ([`Config::stack_at`]) with
/// the scenario's stacking style applied; the netlist, tier assignment,
/// parasitics and clock tree are shared — a process corner moves cell
/// timing, not wires. Each is one cold [`analyze`], so a corner's
/// result does not depend on which others ride along.
fn analyze_corners(
    config: Config,
    options: &FlowOptions,
    corners: &[Corner],
    netlist: &Netlist,
    tiers: &[Tier],
    parasitics: &Parasitics,
    clock: &ClockSpec,
) -> Vec<(Corner, Arc<StaResult>)> {
    if corners.is_empty() {
        return Vec::new();
    }
    let analyzed = corners
        .iter()
        .map(|&corner| {
            let stack = config.stack_at(corner).with_stacking(options.tech.stacking);
            let ctx = timing_context(netlist, &stack, tiers, parasitics, clock.clone());
            (corner, Arc::new(analyze(&ctx)))
        })
        .collect();
    options
        .obs
        .counter_add("sta/corner_analyses", corners.len() as u64);
    analyzed
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netgen::Benchmark;
    use m3d_netlist::NetId;

    /// Asserts that the pass's live timer, the layout's parasitics and
    /// its routing totals are what a cold start from the walk's other
    /// artifacts gives: the layout's placement routed and extracted
    /// afresh and a fresh `analyze`, bit for bit.
    fn assert_live_timing_is_cold_timing(walk: &Walk, options: &FlowOptions, when: &str) {
        let (state, layout) = (&walk.state, &walk.layout);
        let db = &state.db;
        let netlist = db.netlist_arc();
        let stack = db.stack_arc();
        let kept = &layout.parasitics;
        let routing = global_route(
            &netlist,
            &layout.placement,
            db.tiers(),
            &stack,
            &options.route,
        );
        assert_eq!(routing.totals(), layout.routing, "{when}: routing totals");
        let (fresh, _) =
            try_extract_parasitics_with_stats(&netlist, &layout.placement, &stack, Some(&routing))
                .expect("extract");
        for k in 0..netlist.net_count() {
            let (a, b) = (
                kept.net(NetId::from_index(k)),
                fresh.net(NetId::from_index(k)),
            );
            assert_eq!(
                (a.wire_cap_ff.to_bits(), a.wire_delay_ns.to_bits()),
                (b.wire_cap_ff.to_bits(), b.wire_delay_ns.to_bits()),
                "{when}: net {k} parasitics"
            );
        }
        let cold = run_sta(
            &netlist,
            &stack,
            db.tiers(),
            &fresh,
            db.period_ns(),
            Some(&layout.clock_tree),
        );
        let live = state.timer.result().expect("sign-off ran on this timer");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (name, a, b) in [
            ("arrival", &live.arrival, &cold.arrival),
            ("slew", &live.slew, &cold.slew),
            ("required", &live.required, &cold.required),
            ("endpoint_slack", &live.endpoint_slack, &cold.endpoint_slack),
        ] {
            assert_eq!(bits(a), bits(b), "{when}: {name}");
        }
        assert_eq!(live.wns.to_bits(), cold.wns.to_bits(), "{when}: wns");
        assert_eq!(live.tns.to_bits(), cold.tns.to_bits(), "{when}: tns");
        assert_eq!(live.worst_input, cold.worst_input, "{when}: worst input");
    }

    /// `partition` clamps `timing_partition_cap` to [`lock_headroom`], so
    /// a cap above it locks exactly the set the headroom itself locks. On
    /// the CPU netlist — the paper outputs' seed, at the ablation's
    /// 1.35 GHz — the headroom sits between the sweep's 0.28 and 0.40
    /// caps, which is why `ablation.txt`'s 0.40 and 0.60 rows are one run.
    #[test]
    fn a_cap_above_the_headroom_locks_exactly_the_headroom_set() {
        let options = FlowOptions::default();
        let base = prepare_base(&Benchmark::Cpu.generate(0.06, 7), &options).expect("base");
        let netlist = &base.netlist;
        let span = options.obs.span("test");
        let pseudo = pseudo3d(netlist, &options, &span).expect("pseudo-3-D");
        let locked_at = |cap: f64| {
            let options = FlowOptions {
                timing_partition_cap: cap,
                ..options.clone()
            };
            let stack = Config::Hetero3d.stack_for(&options.tech);
            let db = DesignDb::from_shared(Arc::clone(netlist), stack, 1.0 / 1.35);
            let state = FlowState::new(Config::Hetero3d, db, None);
            let (_, assignment) = partition(&state, &pseudo, &options, &span);
            assignment.expect("timing partitioning is on").locked_cells
        };
        let fresh_tiers = vec![Tier::Bottom; netlist.cell_count()];
        let headroom = lock_headroom(netlist, &pseudo_areas(netlist, &pseudo, &fresh_tiers));
        assert!(0.28 < headroom && headroom < 0.40, "headroom {headroom}");
        let at_headroom = locked_at(headroom);
        assert_eq!(locked_at(0.40), at_headroom);
        assert_eq!(locked_at(0.60), at_headroom);
        assert!(locked_at(0.28).len() < at_headroom.len(), "0.28 binds");
    }

    #[test]
    fn eco_enters_every_round_on_cold_equal_timer_and_parasitics() {
        let mut options = FlowOptions::default();
        options.placer_mut().iterations = 8;
        // Rounds entered after a re-finish whose sizing changed cells.
        let mut resized_reentries = 0;
        for (bench, ghz) in [
            (Benchmark::Ldpc, 2.5),
            (Benchmark::Netcard, 2.5),
            (Benchmark::Cpu, 1.0),
            (Benchmark::Aes, 1.0),
        ] {
            let netlist = bench.generate(0.1, 7);
            let base = prepare_base(&netlist, &options).expect("base");
            let span = options.obs.span("test");
            let period = 1.0 / ghz;
            let prefix = Prefix::build(&base, None, Config::Hetero3d, period, &options, &span)
                .expect("prefix");
            let mut walk = first_pass(prefix, period, &[CornerSet::Typical], &options, &span)
                .expect("finish pass");
            let mut resized = false;
            for round in 1..=3 {
                let when = format!("{bench:?} round {round}");
                assert_live_timing_is_cold_timing(&walk, &options, &when);
                if resized {
                    resized_reentries += 1;
                }
                let outcome = eco_round(&mut walk.state, &walk.layout, &options.obs);
                if outcome.cells_moved == 0 {
                    break;
                }
                let drives = m3d_db::netlist_fingerprint(walk.state.db.netlist());
                refinish(&mut walk, &options, &span).expect("re-finish");
                resized = m3d_db::netlist_fingerprint(walk.state.db.netlist()) != drives;
            }
        }
        assert!(resized_reentries > 0, "no round re-entered after sizing");
    }

    /// A re-finish re-snaps every gate the legalizer rows onto its tier's
    /// rows with the legalizer's own row centres, and leaves ports and
    /// macros alone, so a cell the ECO did not move keeps its position
    /// bits and only the moved cells change.
    #[test]
    fn a_refinish_moves_only_the_cells_the_eco_moved() {
        let mut options = FlowOptions::default();
        options.placer_mut().iterations = 8;
        let mut moved = 0;
        for (bench, ghz) in [
            (Benchmark::Ldpc, 2.5),
            (Benchmark::Netcard, 2.5),
            (Benchmark::Cpu, 1.0),
            (Benchmark::Aes, 1.0),
        ] {
            let base = prepare_base(&bench.generate(0.1, 7), &options).expect("base");
            let span = options.obs.span("test");
            let period = 1.0 / ghz;
            let prefix = Prefix::build(&base, None, Config::Hetero3d, period, &options, &span)
                .expect("prefix");
            let mut walk = first_pass(prefix, period, &[CornerSet::Typical], &options, &span)
                .expect("finish pass");
            let tiers = walk.state.db.tiers_arc();
            let placed = Arc::clone(&walk.layout.placement);
            if eco_round(&mut walk.state, &walk.layout, &options.obs).cells_moved == 0 {
                continue;
            }
            refinish(&mut walk, &options, &span).expect("re-finish");
            let (now, snapped) = (walk.state.db.tiers(), &walk.layout.placement);
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            for i in 0..tiers.len() {
                if now[i] != tiers[i] {
                    moved += 1;
                } else {
                    let (was, is) = (placed.positions[i], snapped.positions[i]);
                    assert_eq!(bits(is), bits(was), "{bench:?}: cell {i} did not move");
                }
            }
        }
        assert!(moved > 0, "no ECO moved a cell");
    }

    /// The one lane of a cold `config` run of `base` at `ghz` under
    /// `options`, its walk's spans booked under `test`.
    fn signed_off_walk(
        base: &BaseDesign,
        pseudo: Option<&PseudoCheckpoint>,
        config: Config,
        ghz: f64,
        options: &FlowOptions,
    ) -> Walk {
        let (span, period) = (options.obs.span("test"), 1.0 / ghz);
        let prefix = Prefix::build(base, pseudo, config, period, options, &span);
        let walk = prefix.and_then(|p| finish(p, period, &[CornerSet::Typical], options, &span));
        walk.expect("walk")
    }

    /// The sized witness over the paper's four netlists × five
    /// configurations × ECO on/off at scales 0.06 and 0.25 (seed 7,
    /// 1.0 GHz, default options): the sign-offs it reports unsized, each
    /// cross-checked against its ECO's own count of moved cells — a lane
    /// is unsized exactly when the repartitioning ECO ran and moved
    /// nothing, so no re-finish sized it. Sizing before the first ECO
    /// round (the second half of ROADMAP item 19: the ECO gate goes)
    /// turns the list into none.
    #[test]
    fn the_sized_witness_reports_exactly_the_unsized_sign_offs() {
        let mut listed = Vec::new();
        for scale in [0.06, 0.25] {
            for bench in Benchmark::ALL {
                let netlist = bench.generate(scale, 7);
                for repartition in [true, false] {
                    let options = FlowOptions {
                        enable_repartition: repartition,
                        ..FlowOptions::default()
                    };
                    let base = prepare_base(&netlist, &options).expect("base");
                    let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo");
                    for config in Config::ALL {
                        let pseudo = Some(&pseudo).filter(|_| config.is_3d());
                        let walk = signed_off_walk(&base, pseudo, config, 1.0, &options);
                        let lane = &walk.lanes[0];
                        let eco = signed_off(lane).eco.as_ref();
                        let unmoved = eco.map(|eco| eco.cells_moved == 0);
                        let not_sized = matches!(lane.retired, Some(Retired::Unsized(_)));
                        let what = format!("{bench:?} @ {scale} {config} ECO {repartition}");
                        assert_eq!(not_sized, unmoved == Some(true), "{what}");
                        if not_sized {
                            listed.push(what);
                        }
                    }
                }
            }
        }
        assert_eq!(
            listed,
            [
                "Netcard @ 0.25 Hetero 3D (9+12) ECO true",
                "Cpu @ 0.25 Hetero 3D (9+12) ECO true"
            ]
        );
        // A round that moves nothing after one that re-finished leaves
        // the tiers' `Arc` alone, so the lane stays sized: CPU @ 0.06 at
        // 1.5 GHz moves cells in round 1 and none in round 2.
        let options = FlowOptions {
            obs: Obs::enabled(),
            ..FlowOptions::default()
        };
        let base = prepare_base(&Benchmark::Cpu.generate(0.06, 7), &options).expect("base");
        let walk = signed_off_walk(&base, None, Config::Hetero3d, 1.5, &options);
        let manifest = options.obs.manifest();
        let calls = |path| manifest.span(path).map_or(0, |row| row.calls);
        let rounds = (
            calls("test/eco/round"),
            calls("test/eco/round/eco_refinish"),
        );
        assert_eq!(
            rounds,
            (2, 1),
            "a re-finish, then a round that moved nothing"
        );
        assert!(matches!(walk.lanes[0].retired, Some(Retired::Sized(_))));
    }

    /// The configurations whose prefix is shared across periods, each
    /// with its options: all five — Hetero-3D with timing partitioning
    /// and the ECO — plus Hetero-3D as the Pin-3-D baseline.
    fn shareable_cases() -> Vec<(Config, FlowOptions)> {
        let mut quick = FlowOptions::default();
        quick.placer_mut().iterations = 6;
        let mut cases: Vec<(Config, FlowOptions)> = Config::ALL
            .into_iter()
            .map(|c| (c, quick.clone()))
            .collect();
        cases.push((
            Config::Hetero3d,
            FlowOptions {
                placer: quick.placer.clone(),
                ..FlowOptions::default().pin3d_baseline()
            },
        ));
        cases
    }

    /// A prefix built at one period and forked at the other against the
    /// cold run at the other, for every configuration: a session files
    /// each under one key for both periods.
    #[test]
    fn a_run_forked_off_a_prefix_built_at_another_period_is_the_cold_run() {
        use m3d_tech::StackingStyle;
        let netlist = Benchmark::Aes.generate(0.03, 7);
        let mut eco_moves = 0;
        let periods = [1.0 / 0.9, 1.0 / 2.2];
        for (config, options) in shareable_cases() {
            for stacking in StackingStyle::ALL {
                let mut options = options.clone();
                options.tech.stacking = stacking;
                options.obs = Obs::enabled();
                let base = prepare_base(&netlist, &options).expect("base");
                let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo");
                let pseudo = Some(&pseudo).filter(|_| config.is_3d());
                let sets = [options.tech.corners];
                for (period, other) in [(periods[0], periods[1]), (periods[1], periods[0])] {
                    let what = format!("{config} {stacking} {:.2} GHz", 1.0 / period);
                    let (root, span) = (options.obs.span("shared"), options.obs.span("test"));
                    let shared = Prefix::build(&base, pseudo, config, other, &options, &root)
                        .expect("prefix at the other period");
                    let own = Prefix::build(&base, pseudo, config, period, &options, &span)
                        .expect("own prefix");
                    let cold = finish(own, period, &sets, &options, &span).expect("cold");
                    let forked = finish(shared.fork(&options), period, &sets, &options, &span)
                        .expect("forked");
                    assert_eq!(
                        fingerprint(&forked.state, &forked.layout),
                        fingerprint(&cold.state, &cold.layout),
                        "{what}: state fingerprint"
                    );
                    let (forked, cold) = (signed_off(&forked.lanes[0]), signed_off(&cold.lanes[0]));
                    for ((name, a), (_, b)) in forked.bits().iter().zip(cold.bits()) {
                        assert_eq!(a, &b, "{what}: {name}");
                    }
                    eco_moves += forked.eco.as_ref().map_or(0, |e| e.cells_moved);
                }
                // Two cold and two forked walks: one `impl2d` each, and
                // only the two cold ones place.
                let manifest = options.obs.manifest();
                let calls = |path| manifest.span(path).map_or(0, |row| row.calls);
                let passes = (calls("test/impl2d"), calls("test/impl2d/tier_legalize"));
                let one_each = if config.is_3d() { (0, 0) } else { (4, 2) };
                assert_eq!(passes, one_each, "{config} {stacking}: one pass per walk");
            }
        }
        assert!(eco_moves > 0, "no forked walk moved a cell in the ECO");
    }

    /// The database's `state_fingerprint` with the layout's placement
    /// and parasitics installed.
    fn fingerprint(state: &FlowState, layout: &Layout) -> u64 {
        let mut db = state.db.fork();
        db.set_placement((*layout.placement).clone());
        db.set_parasitics((*layout.parasitics).clone());
        db.state_fingerprint()
    }

    /// The implementation a retired lane signs off, sized or not.
    fn signed_off(lane: &Lane) -> &Implementation {
        match lane.retired.as_ref().expect("retired") {
            Retired::Sized(imp) | Retired::Unsized(imp) => imp,
        }
    }

    /// The design a prefix holds, by bits, at a common period: its
    /// state fingerprint, routing totals, clock latencies and locked set.
    type Design = (u64, u64, usize, Vec<u64>, Option<Vec<CellId>>);

    fn design(mut prefix: Prefix) -> Design {
        prefix.state.db.set_period(1.0);
        let (routing, tree) = (&prefix.layout.routing, &prefix.layout.clock_tree);
        let locked = prefix
            .state
            .timing_assignment
            .take()
            .map(|a| a.locked_cells);
        (
            fingerprint(&prefix.state, &prefix.layout),
            routing.total_wirelength_um.to_bits(),
            routing.total_mivs,
            tree.sink_latency.iter().map(|l| l.to_bits()).collect(),
            locked,
        )
    }

    /// The guard behind the prefix boundary: built under two different
    /// periods, a prefix holds the same design — so a stage that starts
    /// reading the period in front of [`size`] fails here.
    #[test]
    fn prefix_does_not_read_the_period() {
        let netlist = Benchmark::Aes.generate(0.03, 7);
        for (config, options) in shareable_cases() {
            let base = prepare_base(&netlist, &options).expect("base");
            let span = options.obs.span("test");
            let at = |period: f64| {
                let prefix = Prefix::build(&base, None, config, period, &options, &span);
                design(prefix.expect("prefix"))
            };
            assert_eq!(at(0.4), at(2.5), "{config}: the prefix read the period");
        }
        // With teeth: a locked set that moves — here with the cap, at one
        // period — moves the fingerprint the comparison above reads.
        let mut options = FlowOptions::default();
        options.placer_mut().iterations = 6;
        let base = prepare_base(&netlist, &options).expect("base");
        let span = options.obs.span("test");
        let at_cap = |cap: f64| {
            let options = FlowOptions {
                timing_partition_cap: cap,
                ..options.clone()
            };
            let prefix = Prefix::build(&base, None, Config::Hetero3d, 1.0, &options, &span);
            design(prefix.expect("prefix"))
        };
        let (a, b) = (at_cap(0.1), at_cap(0.2));
        assert_ne!(a.4, b.4, "the cap moves the locked set");
        assert_ne!(a.0, b.0, "the fingerprint sees the locked set");
    }

    /// One case per leaf field of [`FlowOptions`]: its name, the boundary
    /// [`FlowOptions::read_set`] declares it read in front of (`None`:
    /// never read, so in no key), and `quick` with the field at a second
    /// value.
    fn read_set_cases(quick: &FlowOptions) -> Vec<(&'static str, Option<ReadSet>, FlowOptions)> {
        use m3d_tech::{Drive, StackingStyle, TechContext};
        // Exhaustive, so that a new field does not compile until it has a
        // case below.
        let FlowOptions {
            utilization: _,
            seed: _,
            placer,
            route,
            cts,
            timing_partition_cap: _,
            enable_timing_partition: _,
            enable_3d_cts: _,
            enable_repartition: _,
            input_activity: _,
            max_fanout: _,
            partition_bins: _,
            wns_tolerance: _,
            threads: _,
            obs: _,
            tech:
                TechContext {
                    stacking: _,
                    corners: _,
                },
        } = quick;
        let m3d_place::PlacerConfig {
            iterations: _,
            relax_sweeps: _,
            bins: _,
            target_fill: _,
            seed: _,
        } = **placer;
        let m3d_route::RouteConfig {
            bins: _,
            congestion_exponent: _,
            overflow_threshold: _,
        } = **route;
        let m3d_cts::CtsConfig {
            max_fanout: _,
            fast_drive: _,
            slow_drive: _,
        } = **cts;
        let case = |name, boundary, edit: &dyn Fn(&mut FlowOptions)| {
            let mut options = quick.clone();
            edit(&mut options);
            (name, boundary, options)
        };
        let (base, pseudo, prefix, run) = (
            Some(ReadSet::Base),
            Some(ReadSet::Pseudo),
            Some(ReadSet::Prefix),
            Some(ReadSet::Run),
        );
        vec![
            case("max_fanout", base, &|o| o.max_fanout = 12),
            case("utilization", pseudo, &|o| o.utilization = 0.6),
            case("placer.iterations", pseudo, &|o| {
                o.placer_mut().iterations += 1
            }),
            case("placer.relax_sweeps", pseudo, &|o| {
                o.placer_mut().relax_sweeps = 3
            }),
            case("placer.bins", pseudo, &|o| o.placer_mut().bins = 16),
            case("placer.target_fill", pseudo, &|o| {
                o.placer_mut().target_fill = 0.7
            }),
            case("placer.seed", pseudo, &|o| o.placer_mut().seed = 0xBEEF),
            case("seed", prefix, &|o| o.seed = 2),
            case("route.bins", prefix, &|o| o.route_mut().bins = 24),
            case("route.congestion_exponent", prefix, &|o| {
                o.route_mut().congestion_exponent = 2.0;
            }),
            case("route.overflow_threshold", prefix, &|o| {
                o.route_mut().overflow_threshold = 0.5;
            }),
            case("cts.max_fanout", prefix, &|o| o.cts_mut().max_fanout = 12),
            case("cts.fast_drive", prefix, &|o| {
                o.cts_mut().fast_drive = Drive::X8
            }),
            case("cts.slow_drive", prefix, &|o| {
                o.cts_mut().slow_drive = Drive::X8
            }),
            case("timing_partition_cap", prefix, &|o| {
                o.timing_partition_cap = 0.1
            }),
            case("enable_timing_partition", prefix, &|o| {
                o.enable_timing_partition = false;
            }),
            case("enable_3d_cts", prefix, &|o| o.enable_3d_cts = false),
            case("partition_bins", prefix, &|o| o.partition_bins = 5),
            case("tech.stacking", prefix, &|o| {
                o.tech.stacking = StackingStyle::F2fHybridBond;
            }),
            case("enable_repartition", run, &|o| o.enable_repartition = false),
            case("wns_tolerance", run, &|o| o.wns_tolerance = 0.0),
            case("input_activity", run, &|o| o.input_activity = 0.3),
            case("tech.corners", run, &|o| o.tech.corners = CornerSet::Worst),
            case("threads", None, &|o| o.threads = 1),
            case("obs", None, &|o| o.obs = Obs::enabled()),
        ]
    }

    /// The read-set declaration against the stages themselves: what a
    /// boundary's checkpoint holds moves only with a field declared read
    /// in front of it, and the four keys move with exactly those — an
    /// undeclared read fails here before it can serve a wrong answer.
    /// `Run` keeps no checkpoint: only its key is held.
    #[test]
    fn a_checkpoint_moves_only_with_a_field_of_its_declared_read_set() {
        let netlist = Benchmark::Aes.generate(0.12, 7);
        assert!((1_500..3_000).contains(&netlist.cell_count()));
        let mut quick = FlowOptions::default();
        quick.placer_mut().iterations = 6;
        // The three checkpoints under `options`, by bits; the prefix for
        // the heterogeneous flow (off its own pseudo checkpoint) and for
        // a 2-D one.
        let checkpoints = |options: &FlowOptions| {
            let base = prepare_base(&netlist, options).expect("base");
            let pseudo = pseudo_checkpoint(&base, options).expect("pseudo");
            let span = options.obs.span("test");
            let prefixes = [Config::Hetero3d, Config::TwoD12T].map(|config| {
                let pseudo = Some(&pseudo).filter(|_| config.is_3d());
                let prefix = Prefix::build(&base, pseudo, config, 1.0, options, &span);
                design(prefix.expect("prefix"))
            });
            let nets = (0..base.netlist.net_count()).map(|k| {
                let net = pseudo.parasitics.net(NetId::from_index(k));
                (net.wire_cap_ff.to_bits(), net.wire_delay_ns.to_bits())
            });
            let cells = pseudo.placement.positions.iter();
            (
                m3d_db::netlist_fingerprint(&base.netlist),
                (
                    cells
                        .map(|p| (p.x.to_bits(), p.y.to_bits()))
                        .collect::<Vec<_>>(),
                    nets.collect::<Vec<_>>(),
                ),
                prefixes,
            )
        };
        let boundaries = [
            ReadSet::Base,
            ReadSet::Pseudo,
            ReadSet::Prefix,
            ReadSet::Run,
        ];
        let keys = |options: &FlowOptions| boundaries.map(|b| options.read_set(b));
        let (reference, reference_keys) = (checkpoints(&quick), keys(&quick));
        let mut unmoved = Vec::new();
        for (field, declared, options) in read_set_cases(&quick) {
            let (held, held_keys) = (checkpoints(&options), keys(&options));
            let moved = [
                held.0 != reference.0,
                held.1 != reference.1,
                held.2 != reference.2,
            ];
            for (k, boundary) in boundaries.into_iter().enumerate() {
                let in_read_set = declared.is_some_and(|d| d <= boundary);
                assert_eq!(
                    held_keys[k] != reference_keys[k],
                    in_read_set,
                    "{field}: the {boundary:?} key moves iff the field is declared"
                );
                assert!(
                    in_read_set || moved.get(k) != Some(&true),
                    "{field} moved the {boundary:?} checkpoint and is not in its read-set"
                );
            }
            if declared.is_some_and(|d| moved.get(d as usize) == Some(&false)) {
                unmoved.push(field);
            }
        }
        // With teeth: a declared field does move its own boundary's
        // checkpoint — but for a placer knob no placer code reads, and
        // one no artifact compared here records (overflow marks are a
        // routing report, not a design bit).
        assert_eq!(unmoved, ["placer.target_fill", "route.overflow_threshold"]);
    }
}
