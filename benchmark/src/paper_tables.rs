//! `paper_tables`: the paper's own use of the flow. Per netlist of
//! `Benchmark::ALL` at `PAPER_SCALE` one `FlowSession` answers
//! `CompareConfigs` (12-track fmax ladder + five configurations off one
//! checkpoint); the AES session then answers an 18-point `Pareto` grid.
//! A run times several such passes and reports the median pass.
//! The traced run adds a span per command, re-drives the AES
//! heterogeneous run at its fmax stage by stage (where ECO and sizing
//! dominate) and probes the incremental timer on that design.

use crate::check::{self, Tally};
use crate::inputs::{
    Rng, GRIDS, GRID_STEPS, NETLIST_SEED, PAPER_SCALE, PAPER_THREADS, PASS_SECONDS_PER_OP,
};
use crate::metrics::Readings;
use crate::sampler::Samples;
use crate::stages::{self, Shadow};
use crate::trace::{timed, Tracer};
use crate::{mib, repeat_setup, Ctx, Outcome};
use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, run_from_base, ComparisonSummary, Config, FlowCommand,
    FlowOptions, FlowReport, FlowSession,
};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{CellId, Netlist, Topology};
use hetero3d::obs::alloc;
use hetero3d::sta::{analyze, MultiCornerTimer, Timer, TimingContext, TimingEdit};
use hetero3d::tech::Corner;
use std::time::Instant;

/// Design points one pass reports: five configurations per comparison
/// plus each 18-point grid.
fn points_per_pass() -> usize {
    Benchmark::ALL.len() * Config::ALL.len() + GRIDS.len() * GRID_STEPS * 6
}

fn generate() -> Vec<(Benchmark, Netlist)> {
    Benchmark::ALL
        .iter()
        .map(|&b| (b, b.generate(PAPER_SCALE, NETLIST_SEED)))
        .collect()
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_ms: f64,
    compare_ms: f64,
    grid_ms: f64,
    /// Grid points that met timing.
    grid_met: usize,
    /// Wall of every `execute` call, by netlist.
    execute_ms: Vec<(Benchmark, f64)>,
    comparisons: Vec<(Benchmark, ComparisonSummary)>,
    /// Rendered reports in netlist order, for pass-to-pass identity.
    renders: Vec<String>,
}

/// One pass over `netlists` (already in this run's seeded order).
fn pass(
    netlists: &[(Benchmark, Netlist)],
    options: &FlowOptions,
    tally: &mut Tally,
    mut tr: Option<&mut Tracer>,
) -> Pass {
    use hetero3d::json::ToJson;
    let mut p = Pass::default();
    let started = Instant::now();
    for (bench, netlist) in netlists {
        if let Some(tr) = tr.as_mut() {
            tr.next_op();
        }
        let (session, _) = timed(&mut tr, "flow.session_build", || {
            FlowSession::builder(netlist)
                .options(options.clone())
                .build()
        });
        let Some(session) = tally.ok("session build", session) else {
            continue;
        };
        let (report, ms) = timed(&mut tr, "flow.session_execute", || {
            session.execute(&FlowCommand::CompareConfigs)
        });
        p.compare_ms += ms;
        p.execute_ms.push((*bench, ms));
        if let Some(report) = tally.ok(&format!("{bench:?} compare"), report) {
            check::finite(
                tally,
                &format!("{bench:?} compare"),
                &check::qor_values(&report),
            );
            p.renders.push(report.to_json().render());
            if let FlowReport::Compare { comparison } = report {
                p.comparisons.push((*bench, comparison));
            }
        }
        let Some(&(_, lo, hi)) = GRIDS.iter().find(|g| g.0 == *bench) else {
            continue;
        };
        if let Some(tr) = tr.as_mut() {
            tr.next_op();
        }
        let (report, ms) = timed(&mut tr, "flow.session_execute", || {
            session.execute(&FlowCommand::Pareto {
                config: Config::Hetero3d,
                freq_min_ghz: lo,
                freq_max_ghz: hi,
                freq_steps: GRID_STEPS,
            })
        });
        p.grid_ms += ms;
        p.execute_ms.push((*bench, ms));
        if let Some(report) = tally.ok(&format!("{bench:?} pareto"), report) {
            check::finite(
                tally,
                &format!("{bench:?} pareto"),
                &check::qor_values(&report),
            );
            let points = match &report {
                FlowReport::Pareto { summary } => {
                    p.grid_met += summary.points.iter().filter(|q| q.timing_met).count();
                    summary.points.len()
                }
                _ => 0,
            };
            tally.check(points == GRID_STEPS * 6, || {
                format!(
                    "{bench:?} pareto returned {points} points, not {}",
                    GRID_STEPS * 6
                )
            });
            p.renders.push(report.to_json().render());
        }
    }
    p.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    p
}

/// The comparison's heterogeneous column must equal a separate
/// `RunFlow(Hetero3d)` at the comparison's target frequency, byte for
/// byte: the same input through two paths of the session.
fn cross_check(
    netlists: &[(Benchmark, Netlist)],
    comparisons: &[(Benchmark, ComparisonSummary)],
    options: &FlowOptions,
    tally: &mut Tally,
) {
    let Some((bench, comparison)) = comparisons.iter().find(|c| c.0 == Benchmark::Aes) else {
        return;
    };
    let netlist = &netlists.iter().find(|n| n.0 == *bench).expect("same set").1;
    let direct = FlowSession::builder(netlist)
        .options(options.clone())
        .build()
        .and_then(|s| {
            s.execute(&FlowCommand::RunFlow {
                config: Config::Hetero3d,
                frequency_ghz: comparison.target_ghz,
            })
        });
    if let Some(direct) = tally.ok("direct hetero run", direct) {
        let from_compare = FlowReport::Run {
            ppac: comparison.hetero.clone(),
        };
        check::same_report(
            tally,
            "AES hetero column vs direct run",
            &from_compare,
            &direct,
        );
    }
}

/// Geometric-mean gain of Hetero 3-D over 12-track 2-D across the
/// comparisons, in percent: PPC gain and PDP reduction (the paper's
/// headline, Tables VI/VII).
fn headline_gains(comparisons: &[(Benchmark, ComparisonSummary)]) -> (f64, f64) {
    let n = comparisons.len().max(1) as f64;
    let (mut ppc, mut pdp) = (0.0, 0.0);
    for (_, c) in comparisons {
        let Some(base) = c.homogeneous.iter().find(|h| h.config == Config::TwoD12T) else {
            continue;
        };
        ppc += (c.hetero.ppc / base.ppc).ln();
        pdp += (c.hetero.pdp_pj / base.pdp_pj).ln();
    }
    (
        ((ppc / n).exp() - 1.0) * 100.0,
        (1.0 - (pdp / n).exp()) * 100.0,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let options = ctx.pin_threads(PAPER_THREADS);
    let mut out = Outcome::default();
    out.facts.push(("flow threads", PAPER_THREADS.to_string()));
    let (mut netlists, setup) = repeat_setup(31, generate);
    // The seed orders the batch; the netlists themselves are the paper's
    // (see `inputs::NETLIST_SEED`).
    Rng::new(ctx.seed).shuffle(&mut netlists);
    out.facts.push((
        "order",
        format!("{:?}", netlists.iter().map(|n| n.0).collect::<Vec<_>>()),
    ));
    if ctx.trace {
        traced(ctx, &options, &netlists, &mut out);
        return out;
    }
    out.readings.set_median("setup_s", &setup);

    // Warm-up: the AES session's comparison and grid, untimed — code,
    // allocator arenas and every command kind a pass issues.
    if let Some(at) = netlists.iter().position(|n| n.0 == Benchmark::Aes) {
        pass(&netlists[at..=at], &options, &mut out.tally, None);
    }

    let passes = ctx.ops(PASS_SECONDS_PER_OP, 5);
    alloc::reset_peak();
    let mut walls = Vec::with_capacity(passes);
    let mut first: Option<Pass> = None;
    for i in 0..passes {
        let p = pass(&netlists, &options, &mut out.tally, None);
        walls.push(p.wall_ms);
        match &first {
            None => first = Some(p),
            Some(f) => {
                out.tally.check(p.renders == f.renders, || {
                    format!("pass {i} is not byte-identical to pass 0")
                });
            }
        }
    }
    let peak = alloc::peak_bytes();
    let first = first.expect("at least one pass");
    cross_check(&netlists, &first.comparisons, &options, &mut out.tally);

    let walls = Samples::from_values(walls);
    out.readings.set_from(
        "points_per_s",
        points_per_pass() as f64 / (walls.median() / 1e3),
        &walls,
    );
    out.readings.set_median("latency_p50_ms", &walls);
    let (label, tail) = walls.tail();
    out.readings.set_from("latency_tail_ms", tail, &walls);
    out.readings.set("peak_heap_mb", mib(peak));
    let (ppc, pdp) = headline_gains(&first.comparisons);
    out.notes.push(format!(
        "one pass = 4 comparisons ({:.0} ms) + {} grid(s) ({:.0} ms, {} points meet timing) = {} points; \
         {} passes; tail = {label}; walls ms {:.0?}",
        first.compare_ms,
        GRIDS.len(),
        first.grid_ms,
        first.grid_met,
        points_per_pass(),
        walls.n(),
        walls.sorted()
    ));
    out.notes.push(format!(
        "comparison targets: {}",
        first
            .comparisons
            .iter()
            .map(|(b, c)| format!("{b:?} {:.3} GHz", c.target_ghz))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.notes.push(format!(
        "hetero vs 12T 2-D, geomean over {} netlists: PPC {ppc:+.2} %, PDP reduction {pdp:+.2} %",
        first.comparisons.len()
    ));
    out
}

fn traced(ctx: &Ctx, options: &FlowOptions, netlists: &[(Benchmark, Netlist)], out: &mut Outcome) {
    let (tally, r) = (&mut out.tally, &mut out.readings);
    let mut tr = Tracer::new();

    // Input generation, once more under spans (AES, the deep-dive design).
    tr.next_op();
    let (aes, gen_ms) = tr.time("netgen.generate", || {
        Benchmark::Aes.generate(PAPER_SCALE, NETLIST_SEED)
    });
    let (_, topo_ms) = tr.time("netlist.topology_build", || Topology::build(&aes));
    r.set("netgen.generate_ms", gen_ms);
    r.set("netlist.topology_build_ms", topo_ms);
    r.set(
        "netlist.cells",
        netlists.iter().map(|n| n.1.cell_count()).sum::<usize>() as f64,
    );

    let churn_before = alloc::total_allocated_bytes();
    let p = pass(netlists, options, tally, Some(&mut tr));
    r.set(
        "flow.alloc_churn_mb",
        mib(alloc::total_allocated_bytes() - churn_before),
    );
    r.set("flow.compare_ms", p.compare_ms);
    r.set(
        "flow.grid_points_per_s",
        (GRIDS.len() * GRID_STEPS * 6) as f64 / (p.grid_ms / 1e3),
    );
    r.set_from(
        "flow.session_execute_ms",
        p.compare_ms + p.grid_ms,
        &Samples::from_values(p.execute_ms.iter().map(|e| e.1).collect()),
    );
    let (ppc, pdp) = headline_gains(&p.comparisons);
    r.set("qor.hetero_ppc_gain_pct", ppc);
    r.set("qor.hetero_pdp_gain_pct", pdp);

    // Tracing overhead: the AES comparison once more without spans,
    // against its traced wall from the pass above.
    let aes_at = netlists.iter().position(|n| n.0 == Benchmark::Aes);
    let aes_target = p.comparisons.iter().find(|c| c.0 == Benchmark::Aes);
    if let (Some(at), Some((_, comparison))) = (aes_at, aes_target) {
        let plain = pass(&netlists[at..=at], options, tally, None);
        let traced_ms: f64 = p
            .execute_ms
            .iter()
            .filter(|e| e.0 == Benchmark::Aes)
            .map(|e| e.1)
            .sum();
        let plain_ms = plain.compare_ms + plain.grid_ms;
        r.set(
            "trace.overhead_pct",
            (traced_ms - plain_ms) / plain_ms * 100.0,
        );
        deep_dive(
            ctx,
            options,
            &aes,
            comparison.target_ghz,
            tally,
            r,
            &mut tr,
            &mut out.notes,
        );
    }

    let path = ctx
        .out_dir
        .join(format!("trace-paper_tables-seed{}.json", ctx.seed));
    let written = tr.write_json(
        &path,
        &[
            ("workload", "paper_tables".into()),
            ("seed", ctx.seed.to_string()),
        ],
    );
    if tally.ok("write span file", written).is_some() {
        out.notes.push(format!("spans: {}", path.display()));
    }
}

/// AES Hetero3d at the comparison's own target frequency (its 12-track
/// fmax): the real calls under spans, then the stage shadow, then the
/// timer probes on the design the shadow ended on.
#[allow(clippy::too_many_arguments)]
fn deep_dive(
    ctx: &Ctx,
    options: &FlowOptions,
    aes: &Netlist,
    target_ghz: f64,
    tally: &mut Tally,
    r: &mut Readings,
    tr: &mut Tracer,
    notes: &mut Vec<String>,
) {
    let op = tr.next_op();
    let (base, prepare_ms) = tr.time("flow.prepare_base", || prepare_base(aes, options));
    let Some(base) = tally.ok("prepare_base", base) else {
        return;
    };
    let (pseudo, pseudo_ms) = tr.time("flow.pseudo3d", || pseudo_checkpoint(&base, options));
    let Some(pseudo) = tally.ok("pseudo_checkpoint", pseudo) else {
        return;
    };
    let (imp, suffix_ms) = tr.time("flow.suffix", || {
        run_from_base(&base, Some(&pseudo), Config::Hetero3d, target_ghz, options)
    });
    let Some(imp) = tally.ok("run_from_base", imp) else {
        return;
    };
    r.set("flow.prepare_base_ms", prepare_ms);
    r.set("flow.pseudo3d_ms", pseudo_ms);
    r.set("flow.suffix_ms", suffix_ms);
    r.set("qor.signoff_wns_ns", imp.sta.wns);

    let shadow_span = tr.begin("shadow");
    stages::shadow_prepare(tr, aes, options);
    stages::shadow_pseudo(tr, &base, &pseudo, options);
    let shadow = stages::shadow_suffix(tr, &base, &pseudo, Config::Hetero3d, target_ghz, options);
    let shadow_ms = tr.end(shadow_span);
    stages::record(r, &stages::kernel_ms(tr, op), &shadow.counts);
    let real_ms = prepare_ms + pseudo_ms + suffix_ms;
    r.set(
        "trace.stage_sum_gap_pct",
        (shadow_ms - real_ms) / real_ms * 100.0,
    );
    notes.push(format!(
        "AES hetero @ {target_ghz:.4} GHz: pseudo {pseudo_ms:.0} + suffix {suffix_ms:.0} ms, shadow stages \
         sum {shadow_ms:.0} ms, {} ECO round(s) moved {} cells, {} cells resized, shadow WNS {} the flow's",
        shadow.counts.eco_rounds,
        shadow.counts.eco_cells_moved,
        shadow.counts.cells_resized,
        if shadow.sta.wns.to_bits() == imp.sta.wns.to_bits() { "equals" } else { "DIFFERS from" }
    ));
    timer_probes(ctx, shadow, 1.0 / target_ghz, r);
}

/// Incremental-timer probes on the design the shadow ended on: a seeded
/// script of single-cell drive edits through `Timer::update_journaled`
/// (the path the flow's sizing loop uses), period-only edits (the fmax
/// ladder's), and a cold two-corner `MultiCornerTimer` update (what
/// multi-corner sign-off runs).
fn timer_probes(ctx: &Ctx, shadow: Shadow, period: f64, r: &mut Readings) {
    let Shadow {
        mut netlist,
        tiers,
        parasitics,
        clock_tree,
        stack,
        ..
    } = shadow;
    let clock = stages::clock_spec(period, Some(&clock_tree));
    let cold = Samples::time_ms(1, 5, || {
        std::hint::black_box(analyze(&TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: clock.clone(),
        }));
    });
    r.set_median("sta.analyze_ms", &cold);

    // Cells whose drive can move one step either way in their library.
    let editable: Vec<(CellId, hetero3d::tech::CellKind)> = netlist
        .cells()
        .filter_map(|(id, c)| match &c.class {
            hetero3d::netlist::CellClass::Gate { kind, .. } if !c.is_sequential() => {
                Some((id, *kind))
            }
            _ => None,
        })
        .collect();
    let mut rng = Rng::new(ctx.seed);
    let mut timer = Timer::new();
    timer.update_journaled(
        &TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: clock.clone(),
        },
        &[],
    );
    let mut edit_us = Vec::with_capacity(200);
    while edit_us.len() < 200 {
        let (cell, kind) = editable[rng.below(editable.len())];
        let from = netlist.cell(cell).class.gate_drive().expect("a gate");
        let to = if rng.below(2) == 0 {
            from.upsized()
        } else {
            from.downsized()
        };
        let lib = stack.library(tiers[cell.index()]);
        let Some(to) = to.filter(|d| lib.cell(kind, *d).is_some()) else {
            continue;
        };
        netlist.set_drive(cell, to);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: clock.clone(),
        };
        let t = Instant::now();
        std::hint::black_box(timer.update_journaled(&ctx, &[TimingEdit::ResizeCell(cell)]));
        edit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let edits = Samples::from_values(edit_us);
    r.set_median("sta.journaled_edit_us", &edits);
    r.set(
        "sta.incr_vs_cold_ratio",
        edits.median() / 1e3 / cold.median(),
    );

    let mut flip = false;
    let period_edits = Samples::time_batched_us(2, 21, 1, || {
        flip = !flip;
        let mut c = clock.clone();
        c.period_ns = if flip { period * 1.05 } else { period };
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: c,
        };
        std::hint::black_box(timer.update_journaled(&ctx, &[TimingEdit::Period]));
    });
    r.set_median("sta.period_edit_us", &period_edits);

    let corners = [Corner::Slow, Corner::Fast];
    let stacks: Vec<_> = corners
        .iter()
        .map(|&c| Config::Hetero3d.stack_at(c))
        .collect();
    let multi = Samples::time_ms(0, 3, || {
        let ctxs: Vec<(Corner, TimingContext)> = corners
            .iter()
            .zip(&stacks)
            .map(|(&c, stack)| {
                (
                    c,
                    TimingContext {
                        netlist: &netlist,
                        stack,
                        tiers: &tiers,
                        parasitics: &parasitics,
                        clock: clock.clone(),
                    },
                )
            })
            .collect();
        std::hint::black_box(MultiCornerTimer::new(&corners).update_journaled(&ctxs, &[]));
    });
    r.set_median("sta.multicorner_update_ms", &multi);
}
