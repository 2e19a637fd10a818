//! The traced run's view inside one 3-D flow: the pipeline of
//! `m3d_flow::run_from_base` re-driven from outside, stage by stage,
//! through the layers' public kernels, with one span per kernel call.
//!
//! `run_from_base` itself is measured as one call (`flow.suffix_ms`); the
//! product has no per-stage hooks a benchmark may read yet (ROADMAP item
//! 6). So the traced run rebuilds each stage's in-flow input from the
//! run's own artifacts — the base netlist, the pseudo-3-D checkpoint and
//! the flow options — and calls the same public functions in the same
//! order `crates/flow/src/stage.rs` does. Every kernel is deterministic,
//! so the shadow ends on the same sign-off WNS as the real run; the
//! traced run prints whether it did, and the gap between the shadow's
//! total and the real call's wall.
//!
//! Span names are the per-layer metric names without the unit suffix
//! (`place.global_place`, `route.extract`, ...); a `stage.*` parent span
//! holds each stage's glue (floorplanning, area tables, placement
//! transfer), which shows up as that parent's self time.

use crate::metrics::Readings;
use crate::trace::Tracer;
use hetero3d::cts::{synthesize, ClockTree, CtsMode};
use hetero3d::flow::{BaseDesign, Config, FlowOptions, PseudoCheckpoint};
use hetero3d::geom::{Point, Rect};
use hetero3d::netlist::{CellClass, CellId, Netlist};
use hetero3d::opt::{resize_for_power_with, resize_for_timing_with, DriveEdit};
use hetero3d::partition::{
    bin_min_cut_with_stats, repartition_eco_with, timing_driven_assignment, EcoConfig,
    EcoTimingView, PartitionConfig,
};
use hetero3d::place::{global_place, refine_place, try_legalize_with_stats, Floorplan, Placement};
use hetero3d::power::{analyze_power, PowerConfig};
use hetero3d::route::{global_route, try_extract_parasitics_with_stats, RoutingResult};
use hetero3d::sta::{
    analyze, worst_paths, ClockSpec, Parasitics, StaResult, Timer, TimingContext, TimingEdit,
};
use hetero3d::tech::{Tier, TierStack};

/// Counts read off the kernels' `*_with_stats` returns at the same
/// boundaries the spans are recorded at.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    pub fm_passes: u64,
    pub fm_moves: u64,
    pub cut_nets: u64,
    pub hpwl_mm: f64,
    pub wirelength_mm: f64,
    pub overflow_edges: u64,
    pub mivs: u64,
    pub cts_buffers: u64,
    pub eco_rounds: u64,
    pub eco_cells_moved: u64,
    pub cells_resized: u64,
    pub propagated_evals: u64,
}

/// What the shadow pipeline ended on.
pub struct Shadow {
    pub counts: StageCounts,
    pub sta: StaResult,
    pub netlist: Netlist,
    pub tiers: Vec<Tier>,
    pub parasitics: Parasitics,
    pub clock_tree: ClockTree,
    pub stack: TierStack,
}

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

pub fn clock_spec(period_ns: f64, tree: Option<&ClockTree>) -> ClockSpec {
    let mut clock = ClockSpec::with_period(period_ns);
    if let Some(tree) = tree {
        clock.latency_ns = tree.sink_latency.clone();
        let lats = tree.latencies();
        if !lats.is_empty() {
            clock.virtual_io_latency_ns = lats.iter().sum::<f64>() / lats.len() as f64;
        }
    }
    clock
}

/// The floorplan the pseudo-3-D stage places on: the full 12-track 2-D
/// floorplan with the die shrunk to the checkpoint's halved outline.
fn pseudo_floorplan(netlist: &Netlist, pseudo: &PseudoCheckpoint, utilization: f64) -> Floorplan {
    let tiers = vec![Tier::Bottom; netlist.cell_count()];
    let mut fp = Floorplan::new(netlist, &pseudo.stack, &tiers, utilization);
    fp.die = pseudo.die;
    for (_, _, r) in &mut fp.macros {
        if !pseudo.die.contains_rect(r) {
            let w = r.width().min(pseudo.die.width());
            let h = r.height().min(pseudo.die.height());
            *r = Rect::with_size(pseudo.die.clamp_point(Point::new(r.llx(), r.lly())), w, h);
        }
    }
    fp
}

/// Mutable state of the shadow between stages.
struct State<'a> {
    options: &'a FlowOptions,
    period: f64,
    stack: TierStack,
    netlist: Netlist,
    tiers: Vec<Tier>,
    placement: Placement,
    routing: Option<RoutingResult>,
    parasitics: Option<Parasitics>,
    clock_tree: Option<ClockTree>,
    timer: Timer,
    sta: Option<StaResult>,
    counts: StageCounts,
}

impl State<'_> {
    fn route(&mut self, tr: &mut Tracer) {
        let stage = tr.begin("stage.route");
        let (routing, _) = tr.time("route.global_route", || {
            global_route(
                &self.netlist,
                &self.placement,
                &self.tiers,
                &self.stack,
                &self.options.route,
            )
        });
        let (extracted, _) = tr.time("route.extract", || {
            try_extract_parasitics_with_stats(
                &self.netlist,
                &self.placement,
                &self.stack,
                Some(&routing),
            )
        });
        self.counts.wirelength_mm = routing.total_wirelength_mm();
        self.counts.overflow_edges = routing.overflow_edges as u64;
        self.counts.mivs = routing.total_mivs as u64;
        self.parasitics = Some(extracted.expect("routing covers the netlist").0);
        self.routing = Some(routing);
        tr.end(stage);
    }

    fn cts(&mut self, tr: &mut Tracer) {
        let mode = if self.options.enable_3d_cts {
            CtsMode::Cover3d
        } else {
            CtsMode::Legacy3d
        };
        let (tree, _) = tr.time("cts.synthesize", || {
            synthesize(
                &self.netlist,
                &self.placement,
                &self.tiers,
                &self.stack,
                mode,
                &self.options.cts,
            )
        });
        self.counts.cts_buffers = tree.buffer_count() as u64;
        self.clock_tree = Some(tree);
    }

    fn size(&mut self, tr: &mut Tracer, timing_rounds: usize, power_rounds: usize, margin: f64) {
        let stage = tr.begin("stage.sizing");
        let clock = clock_spec(self.period, self.clock_tree.as_ref());
        let parasitics = self.parasitics.as_ref().expect("routed before sizing");
        let (stack, tiers, timer) = (&self.stack, &self.tiers, &mut self.timer);
        let mut eval = |nl: &Netlist, edits: &[DriveEdit]| {
            let timing_edits: Vec<TimingEdit> = edits
                .iter()
                .map(|&(cell, _, _)| TimingEdit::ResizeCell(cell))
                .collect();
            timer.update_journaled(
                &TimingContext {
                    netlist: nl,
                    stack,
                    tiers,
                    parasitics,
                    clock: clock.clone(),
                },
                &timing_edits,
            )
        };
        let netlist = &mut self.netlist;
        let (up, _) = tr.time("opt.resize_timing", || {
            resize_for_timing_with(netlist, 0.0, timing_rounds, &mut eval)
        });
        let (down, _) = tr.time("opt.resize_power", || {
            resize_for_power_with(netlist, self.period * margin, power_rounds, &mut eval)
        });
        self.counts.cells_resized += (up.cells_changed + down.cells_changed) as u64;
        tr.end(stage);
    }

    fn sign_off(&mut self, tr: &mut Tracer) {
        let stage = tr.begin("stage.signoff");
        let clock = clock_spec(self.period, self.clock_tree.as_ref());
        let parasitics = self.parasitics.as_ref().expect("routed before sign-off");
        let ctx = TimingContext {
            netlist: &self.netlist,
            stack: &self.stack,
            tiers: &self.tiers,
            parasitics,
            clock,
        };
        let timer = &mut self.timer;
        let (sta, _) = tr.time("sta.analyze", || timer.update_journaled(&ctx, &[]));
        self.counts.propagated_evals += self.timer.stats().propagated_evals();
        let _ = tr.time("power.analyze", || {
            analyze_power(
                &self.netlist,
                &self.stack,
                &self.tiers,
                parasitics,
                self.clock_tree.as_ref(),
                &PowerConfig {
                    input_activity: self.options.input_activity,
                    frequency_ghz: 1.0 / self.period,
                    input_probability: 0.5,
                },
            )
        });
        self.sta = Some(sta);
        tr.end(stage);
    }

    /// One round of the repartitioning ECO; returns the cells it moved.
    fn eco_round(&mut self, tr: &mut Tracer) -> usize {
        let areas = cell_areas(&self.netlist, &self.stack, &self.tiers);
        let routing = self.routing.as_ref().expect("routed before the ECO");
        let (extracted, _) = tr.time("route.extract", || {
            try_extract_parasitics_with_stats(
                &self.netlist,
                &self.placement,
                &self.stack,
                Some(routing),
            )
        });
        let parasitics = extracted.expect("routing covers the netlist").0;
        let clock = clock_spec(self.period, self.clock_tree.as_ref());
        let mut tiers_work = self.tiers.clone();
        let mut timer = Timer::new();
        let (netlist, stack) = (&self.netlist, &self.stack);
        let (outcome, _) = tr.time("partition.eco", || {
            repartition_eco_with(
                &mut tiers_work,
                &areas,
                stack.fast_tier(),
                &EcoConfig::default(),
                |t, moved| {
                    let edits: Vec<TimingEdit> =
                        moved.iter().map(|&c| TimingEdit::SwapTier(c)).collect();
                    let ctx = TimingContext {
                        netlist,
                        stack,
                        tiers: t,
                        parasitics: &parasitics,
                        clock: clock.clone(),
                    };
                    let result = timer.update_journaled(&ctx, &edits);
                    let paths = worst_paths(&ctx, &result, EcoConfig::default().n0);
                    EcoTimingView {
                        wns: result.wns,
                        tns: result.tns,
                        critical_paths: paths
                            .iter()
                            .map(|p| p.stages.iter().map(|s| (s.cell, s.cell_delay_ns)).collect())
                            .collect(),
                    }
                },
            )
        });
        self.counts.propagated_evals += timer.stats().propagated_evals();
        self.counts.eco_rounds += 1;
        self.counts.eco_cells_moved += outcome.cells_moved as u64;
        self.tiers = tiers_work;
        outcome.cells_moved
    }

    /// The ECO's incremental re-finish: moved cells snap onto the nearest
    /// row of their new tier, then route, CTS, a short sizing pass and
    /// sign-off are refreshed.
    fn refinish(&mut self, tr: &mut Tracer) {
        let die = self.placement.die;
        for i in 0..self.netlist.cell_count() {
            let row_h = self.stack.library(self.tiers[i]).cell_height_um;
            let n_rows = ((die.height() / row_h).floor() as i64).max(1);
            let y = self.placement.positions[i].y;
            let row = (((y - die.lly()) / row_h).floor() as i64).clamp(0, n_rows - 1);
            self.placement.positions[i].y = die.lly() + (row as f64 + 0.5) * row_h;
        }
        self.placement.clamp_to_die();
        self.timer = Timer::new();
        self.route(tr);
        self.cts(tr);
        self.size(tr, 3, 2, 0.15);
        self.sign_off(tr);
    }
}

/// Re-drives `prepare_base`'s one kernel, fanout buffering, on a clone of
/// the input netlist.
pub fn shadow_prepare(tr: &mut Tracer, netlist: &Netlist, options: &FlowOptions) {
    let mut scratch = netlist.clone();
    let mut positions = vec![Point::ORIGIN; scratch.cell_count()];
    let _ = tr.time("opt.insert_buffers", || {
        hetero3d::opt::insert_buffers(&mut scratch, &mut positions, options.max_fanout)
    });
}

/// Re-drives the pseudo-3-D stage's two kernels on the checkpoint's own
/// floorplan (the checkpoint is the product's; this only times them).
pub fn shadow_pseudo(
    tr: &mut Tracer,
    base: &BaseDesign,
    pseudo: &PseudoCheckpoint,
    options: &FlowOptions,
) {
    let stage = tr.begin("stage.pseudo3d");
    let fp = pseudo_floorplan(&base.netlist, pseudo, options.utilization);
    let (placement, _) = tr.time("place.global_place", || {
        global_place(&base.netlist, &fp, &options.placer)
    });
    let _ = tr.time("route.extract", || {
        try_extract_parasitics_with_stats(&base.netlist, &placement, &pseudo.stack, None)
    });
    tr.end(stage);
}

/// Re-drives everything `run_from_base(base, Some(pseudo), config, ..)`
/// does for a 3-D `config`, one span per kernel call.
pub fn shadow_suffix(
    tr: &mut Tracer,
    base: &BaseDesign,
    pseudo: &PseudoCheckpoint,
    config: Config,
    frequency_ghz: f64,
    options: &FlowOptions,
) -> Shadow {
    assert!(config.is_3d(), "the shadow mirrors the 3-D pipeline");
    let netlist: &Netlist = &base.netlist;
    let n = netlist.cell_count();
    let period = 1.0 / frequency_ghz;
    let stack = config.stack_for(&options.tech);

    // ---- Partition ---------------------------------------------------
    let stage = tr.begin("stage.partition");
    let mut tiers = vec![Tier::Bottom; n];
    let mut pseudo_areas = cell_areas(netlist, &pseudo.stack, &tiers);
    let mut locked = vec![false; n];
    for (id, cell) in netlist.cells() {
        if let CellClass::Macro(spec) = &cell.class {
            pseudo_areas[id.index()] = spec.area_um2();
        }
        if cell.class.is_macro() || cell.class.is_port() {
            locked[id.index()] = true;
        }
    }
    if config.is_heterogeneous() && options.enable_timing_partition {
        let (pseudo_sta, _) = tr.time("sta.analyze", || {
            analyze(&TimingContext {
                netlist,
                stack: &pseudo.stack,
                tiers: &tiers,
                parasitics: &pseudo.parasitics,
                clock: ClockSpec::with_period(period),
            })
        });
        let criticality: Vec<f64> = (0..n)
            .map(|i| pseudo_sta.cell_criticality(CellId::from_index(i)))
            .collect();
        let area_of = |want_macro: bool| -> f64 {
            netlist
                .cells()
                .filter(|(_, c)| {
                    if want_macro {
                        c.class.is_macro()
                    } else {
                        c.class.is_gate()
                    }
                })
                .map(|(id, _)| pseudo_areas[id.index()])
                .sum()
        };
        let (macro_total, comb_total) = (area_of(true), area_of(false));
        let headroom =
            ((comb_total + macro_total) * 0.5 - macro_total).max(0.0) / comb_total.max(1e-9);
        let cap = options.timing_partition_cap.min(headroom);
        let (assignment, _) = tr.time("partition.timing_assign", || {
            timing_driven_assignment(
                netlist,
                &criticality,
                &pseudo_areas,
                cap,
                stack.fast_tier(),
                &mut tiers,
            )
        });
        for id in &assignment.locked_cells {
            locked[id.index()] = true;
        }
    }
    let ((_, fm), _) = tr.time("partition.fm", || {
        bin_min_cut_with_stats(
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
        )
    });
    tr.end(stage);

    // ---- TierLegalize --------------------------------------------------
    let stage = tr.begin("stage.tier_legalize");
    let fp = Floorplan::new(netlist, &stack, &tiers, options.utilization);
    let (sx, sy) = (
        fp.die.width() / pseudo.die.width(),
        fp.die.height() / pseudo.die.height(),
    );
    let mut seed = Placement::centered(netlist, fp.die);
    for i in 0..n {
        let p = pseudo.placement.positions[i];
        seed.positions[i] = Point::new(
            fp.die.llx() + (p.x - pseudo.die.llx()) * sx,
            fp.die.lly() + (p.y - pseudo.die.lly()) * sy,
        );
    }
    for (id, _, rect) in &fp.macros {
        seed.positions[id.index()] = rect.center();
    }
    let ports: Vec<usize> = netlist
        .cells()
        .filter(|(_, c)| c.class.is_port())
        .map(|(id, _)| id.index())
        .collect();
    for (k, &i) in ports.iter().enumerate() {
        seed.positions[i] = fp.io_position(k, ports.len());
    }
    let (global, _) = tr.time("place.refine", || {
        refine_place(netlist, &fp, &seed, &options.placer, 4)
    });
    let (legal, _) = tr.time("place.legalize", || {
        try_legalize_with_stats(netlist, &global, &fp, &stack, &tiers)
    });
    let placement = legal
        .expect("the shadow's legalizer input is well-formed")
        .0;
    tr.end(stage);

    let mut s = State {
        options,
        period,
        stack,
        netlist: netlist.clone(),
        tiers,
        placement,
        routing: None,
        parasitics: None,
        clock_tree: None,
        timer: Timer::new(),
        sta: None,
        counts: StageCounts {
            fm_passes: fm.passes,
            fm_moves: fm.moves,
            cut_nets: fm.cut,
            ..Default::default()
        },
    };
    s.counts.hpwl_mm = s.placement.hpwl(&s.netlist) / 1e3;

    // ---- Route, CTS, (sizing), sign-off, ECO ---------------------------
    let eco_enabled = config.is_heterogeneous() && options.enable_repartition;
    s.route(tr);
    s.cts(tr);
    if !eco_enabled {
        s.size(tr, 4, 3, 0.15);
    }
    s.sign_off(tr);
    if eco_enabled {
        let stage = tr.begin("stage.eco");
        for _ in 0..3 {
            let moved = s.eco_round(tr);
            if moved > 0 {
                s.refinish(tr);
            }
            let met = s
                .sta
                .as_ref()
                .is_some_and(|sta| sta.timing_met(options.wns_tolerance));
            if moved == 0 || met {
                break;
            }
        }
        tr.end(stage);
    }

    Shadow {
        counts: s.counts,
        sta: s.sta.expect("sign-off ran"),
        netlist: s.netlist,
        tiers: s.tiers,
        parasitics: s.parasitics.expect("route ran"),
        clock_tree: s.clock_tree.expect("cts ran"),
        stack: s.stack,
    }
}

/// Kernel spans whose per-operation self time becomes `<span>_ms`.
const KERNEL_SPANS: [&str; 14] = [
    "opt.insert_buffers",
    "place.global_place",
    "place.refine",
    "place.legalize",
    "partition.timing_assign",
    "partition.fm",
    "partition.eco",
    "route.global_route",
    "route.extract",
    "cts.synthesize",
    "opt.resize_timing",
    "opt.resize_power",
    "sta.analyze",
    "power.analyze",
];

/// Total self time of each kernel span of operation `op`, in
/// [`KERNEL_SPANS`] order (0 for a kernel the operation never called).
pub fn kernel_ms(tr: &Tracer, op: u64) -> Vec<(&'static str, f64)> {
    let by = tr.self_ms_by_name(Some(op));
    KERNEL_SPANS
        .iter()
        .map(|&k| (k, by.get(k).map_or(0.0, |e| e.0)))
        .collect()
}

/// Publishes one shadowed flow's kernel times (from [`kernel_ms`]) and
/// counts.
pub fn record(readings: &mut Readings, kernels: &[(&'static str, f64)], counts: &StageCounts) {
    for (span, ms) in kernels {
        readings.set(&format!("{span}_ms"), *ms);
    }
    for (name, v) in [
        ("partition.fm_passes", counts.fm_passes as f64),
        ("partition.fm_moves", counts.fm_moves as f64),
        ("partition.cut_nets", counts.cut_nets as f64),
        ("partition.eco_rounds", counts.eco_rounds as f64),
        ("partition.eco_cells_moved", counts.eco_cells_moved as f64),
        ("place.hpwl_mm", counts.hpwl_mm),
        ("route.wirelength_mm", counts.wirelength_mm),
        ("route.overflow_edges", counts.overflow_edges as f64),
        ("route.mivs", counts.mivs as f64),
        ("cts.buffers", counts.cts_buffers as f64),
        ("opt.cells_resized", counts.cells_resized as f64),
        ("sta.propagated_evals", counts.propagated_evals as f64),
    ] {
        readings.set(name, v);
    }
}
