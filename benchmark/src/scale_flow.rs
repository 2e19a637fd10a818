//! `scale_flow`: cold `prepare_base → pseudo_checkpoint →
//! run_from_base(Hetero3d)` on the synthetic scale family. The untraced
//! run times the 250k rung only; the traced run walks both rungs with a
//! span per public call, re-drives the stages (see `stages.rs`) and fits
//! the scaling exponents from the two sizes.

use crate::check;
use crate::inputs::{FLOW_SECONDS_PER_OP, RUNG_LARGE, RUNG_SMALL};
use crate::sampler::Samples;
use crate::trace::{timed, Tracer};
use crate::{mib, repeat_setup, stages, Ctx, Outcome};
use hetero3d::cost::CostModel;
use hetero3d::db::{netlist_fingerprint, DesignDb};
use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, run_from_base, BaseDesign, Config, FlowError, FlowOptions,
    Implementation, PseudoCheckpoint,
};
use hetero3d::netgen::scale_netlist;
use hetero3d::netlist::{Netlist, Topology};
use hetero3d::obs::{alloc, Obs};
use std::time::Instant;

/// One cold flow and the wall of each of its three public calls, ms.
struct ColdFlow {
    base: BaseDesign,
    pseudo: PseudoCheckpoint,
    imp: Implementation,
    prepare_ms: f64,
    pseudo_ms: f64,
    suffix_ms: f64,
}

impl ColdFlow {
    fn wall_ms(&self) -> f64 {
        self.prepare_ms + self.pseudo_ms + self.suffix_ms
    }
}

fn cold_flow(
    netlist: &Netlist,
    frequency_ghz: f64,
    options: &FlowOptions,
    mut tr: Option<&mut Tracer>,
) -> Result<ColdFlow, FlowError> {
    let (base, prepare_ms) = timed(&mut tr, "flow.prepare_base", || {
        prepare_base(netlist, options)
    });
    let base = base?;
    let (pseudo, pseudo_ms) = timed(&mut tr, "flow.pseudo3d", || {
        pseudo_checkpoint(&base, options)
    });
    let pseudo = pseudo?;
    let (imp, suffix_ms) = timed(&mut tr, "flow.suffix", || {
        run_from_base(
            &base,
            Some(&pseudo),
            Config::Hetero3d,
            frequency_ghz,
            options,
        )
    });
    Ok(ColdFlow {
        imp: imp?,
        base,
        pseudo,
        prepare_ms,
        pseudo_ms,
        suffix_ms,
    })
}

/// The design database a finished implementation corresponds to, rebuilt
/// from its shared artifacts (for `state_fingerprint` and the db probes).
fn db_of(imp: &Implementation) -> DesignDb {
    let mut db = DesignDb::from_shared(
        imp.netlist.clone(),
        (*imp.stack).clone(),
        1.0 / imp.frequency_ghz,
    );
    db.set_tiers((*imp.tiers).clone());
    db.set_placement((*imp.placement).clone());
    db
}

/// Bit-exact identity of a flow result: the product's own state
/// fingerprint plus the sign-off WNS / TNS / power bits.
fn identity(imp: &Implementation) -> [u64; 4] {
    [
        db_of(imp).state_fingerprint(),
        imp.sta.wns.to_bits(),
        imp.sta.tns.to_bits(),
        imp.power.total_mw().to_bits(),
    ]
}

fn qor(imp: &Implementation) -> Vec<f64> {
    let p = imp.ppac(&CostModel::default());
    vec![
        imp.sta.wns,
        imp.sta.tns,
        p.total_power_mw,
        p.pdp_pj,
        p.ppc,
        p.die_cost_uc,
    ]
}

fn generate(seed: u64) -> (Netlist, Netlist) {
    let small = scale_netlist(RUNG_SMALL.0, seed);
    let large = scale_netlist(RUNG_LARGE.0, seed);
    // The flat view every kernel starts from; building it here keeps its
    // cost visible as set-up rather than hidden in the first flow.
    std::hint::black_box((Topology::build(&small), Topology::build(&large)));
    (small, large)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let options = ctx.pin_threads(ctx.nproc);
    let mut out = if ctx.trace {
        traced(ctx, &options)
    } else {
        untraced(ctx, &options)
    };
    out.facts.extend([
        ("flow threads", ctx.nproc.to_string()),
        ("rungs", format!("{RUNG_SMALL:?} {RUNG_LARGE:?}")),
    ]);
    out
}

fn untraced(ctx: &Ctx, options: &FlowOptions) -> Outcome {
    let mut out = Outcome::default();
    let ((small, large), setup) = repeat_setup(5, || generate(ctx.seed));
    out.readings.set_median("setup_s", &setup);

    // Warm-up at the small rung: code, allocator arenas and thread pool.
    let warm = cold_flow(&small, RUNG_SMALL.1, options, None);
    out.tally.ok("warm-up flow", warm);
    drop(small);

    let ops = ctx.ops(FLOW_SECONDS_PER_OP, 3);
    alloc::reset_peak();
    let window = Instant::now();
    let mut walls = Vec::with_capacity(ops);
    let mut first: Option<[u64; 4]> = None;
    for i in 0..ops {
        let flow = cold_flow(&large, RUNG_LARGE.1, options, None);
        let Some(flow) = out.tally.ok("cold flow", flow) else {
            continue;
        };
        walls.push(flow.wall_ms());
        let id = identity(&flow.imp);
        match first {
            None => {
                first = Some(id);
                check::finite(&mut out.tally, "250k sign-off", &qor(&flow.imp));
                out.notes.push(format!(
                    "250k rung: {} cells, sign-off WNS {:+.4} ns at {:.3} ns period",
                    flow.imp.netlist.cell_count(),
                    flow.imp.sta.wns,
                    1.0 / RUNG_LARGE.1
                ));
            }
            Some(want) => {
                out.tally.check(id == want, || {
                    format!("flow {i} is not bit-identical to flow 0")
                });
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak = alloc::peak_bytes();
    let walls = Samples::from_values(walls);
    out.readings
        .set_from("points_per_s", 1e3 / walls.median(), &walls);
    out.readings.set_median("latency_p50_ms", &walls);
    let (label, tail) = walls.tail();
    out.readings.set_from("latency_tail_ms", tail, &walls);
    out.readings.set("peak_heap_mb", mib(peak));
    out.notes.push(format!(
        "one point = one cold 250k flow; {} flows in {window_s:.2} s; tail = {label}; walls ms {:.0?}",
        walls.n(),
        walls.sorted()
    ));
    out
}

/// Per-rung measurements the exponents are fitted from.
struct Rung {
    cells: f64,
    flow_ms: f64,
    kernels: Vec<(&'static str, f64)>,
}

fn exponent(small: f64, large: f64, cells: (f64, f64)) -> f64 {
    if small > 0.0 && large > 0.0 {
        (large / small).ln() / (cells.1 / cells.0).ln()
    } else {
        0.0
    }
}

fn traced(ctx: &Ctx, options: &FlowOptions) -> Outcome {
    let mut out = Outcome::default();
    let (tally, r) = (&mut out.tally, &mut out.readings);
    let mut tr = Tracer::new();
    let mut rungs: Vec<Rung> = Vec::new();

    for (target, ghz) in [RUNG_SMALL, RUNG_LARGE] {
        let large = target == RUNG_LARGE.0;
        tr.next_op();
        let (netlist, gen_ms) = tr.time("netgen.generate", || scale_netlist(target, ctx.seed));
        let (_, topo_ms) = tr.time("netlist.topology_build", || Topology::build(&netlist));
        let (_, fp_ms) = tr.time("db.netlist_fingerprint", || netlist_fingerprint(&netlist));

        // Reference: the same cold flow with no spans around it (after one
        // untimed flow, so that the small rung's ratios compare warm runs).
        if !large {
            tally.ok("warm-up flow", cold_flow(&netlist, ghz, options, None));
        }
        let Some(plain) = tally.ok("plain flow", cold_flow(&netlist, ghz, options, None)) else {
            continue;
        };
        let churn_before = alloc::total_allocated_bytes();
        let whole = tr.begin("flow.cold");
        let flow = cold_flow(&netlist, ghz, options, Some(&mut tr));
        let traced_ms = tr.end(whole);
        let churn = alloc::total_allocated_bytes() - churn_before;
        let Some(flow) = tally.ok("traced flow", flow) else {
            continue;
        };
        tally.check(identity(&flow.imp) == identity(&plain.imp), || {
            format!("{target}: traced flow is not bit-identical to the plain one")
        });
        check::finite(tally, "sign-off", &qor(&flow.imp));

        // The shadow: every stage re-driven through its public kernel —
        // twice, keeping each kernel's faster time: noise only ever adds
        // time, and the exponents below are fitted from these two rungs.
        let mut kernels: Vec<(&'static str, f64)> = Vec::new();
        let (mut shadow_ms, mut shadow) = (f64::INFINITY, None);
        for _ in 0..2 {
            let shadow_op = tr.next_op();
            let shadow_span = tr.begin("shadow");
            stages::shadow_prepare(&mut tr, &netlist, options);
            stages::shadow_pseudo(&mut tr, &flow.base, &flow.pseudo, options);
            shadow = Some(stages::shadow_suffix(
                &mut tr,
                &flow.base,
                &flow.pseudo,
                Config::Hetero3d,
                ghz,
                options,
            ));
            shadow_ms = shadow_ms.min(tr.end(shadow_span));
            let this = stages::kernel_ms(&tr, shadow_op);
            if kernels.is_empty() {
                kernels = this;
            } else {
                for (best, new) in kernels.iter_mut().zip(this) {
                    best.1 = best.1.min(new.1);
                }
            }
        }
        let shadow = shadow.expect("the shadow ran");
        let faithful = shadow.sta.wns.to_bits() == flow.imp.sta.wns.to_bits();
        // The faster of the plain and the traced flow, for the same reason.
        let real_ms = flow.wall_ms().min(plain.wall_ms());
        let gap_pct = (shadow_ms - real_ms) / real_ms * 100.0;
        out.notes.push(format!(
            "{target}: flow {real_ms:.0} ms (traced: prepare {:.0} + pseudo {:.0} + suffix {:.0}), \
             shadow stages sum {shadow_ms:.0} ms, gap {gap_pct:+.1} %, shadow WNS {} the flow's",
            flow.prepare_ms,
            flow.pseudo_ms,
            flow.suffix_ms,
            if faithful { "equals" } else { "DIFFERS from" }
        ));
        if large {
            r.set("netgen.generate_ms", gen_ms);
            r.set("netlist.topology_build_ms", topo_ms);
            r.set("netlist.cells", netlist.cell_count() as f64);
            r.set("db.netlist_fingerprint_ms", fp_ms);
            r.set("flow.prepare_base_ms", flow.prepare_ms);
            r.set("flow.pseudo3d_ms", flow.pseudo_ms);
            r.set("flow.suffix_ms", flow.suffix_ms);
            r.set("flow.alloc_churn_mb", mib(churn));
            stages::record(r, &kernels, &shadow.counts);
            r.set("trace.stage_sum_gap_pct", gap_pct);
            r.set(
                "trace.overhead_pct",
                (traced_ms - plain.wall_ms()) / plain.wall_ms() * 100.0,
            );
            r.set("qor.signoff_wns_ns", flow.imp.sta.wns);
            let db = db_of(&flow.imp);
            r.set_median(
                "db.state_fingerprint_ms",
                &Samples::time_ms(1, 5, || {
                    std::hint::black_box(db.state_fingerprint());
                }),
            );
            r.set_median(
                "db.fork_us",
                &Samples::time_batched_us(10, 9, 100, || {
                    std::hint::black_box(db.fork());
                }),
            );
            let cost = CostModel::default();
            r.set_median(
                "cost.ppac_us",
                &Samples::time_batched_us(1, 9, 3, || {
                    std::hint::black_box(flow.imp.ppac(&cost));
                }),
            );
        } else {
            // Thread scaling and telemetry overhead, at the small rung
            // where three extra flows are affordable.
            let one = cold_flow(&netlist, ghz, &ctx.pin_threads(1), None);
            ctx.pin_threads(ctx.nproc);
            if let Some(one) = tally.ok("1-thread flow", one) {
                tally.check(identity(&one.imp) == identity(&plain.imp), || {
                    "1-thread flow is not bit-identical to the n-thread one".to_string()
                });
                r.set("par.speedup_nt", one.wall_ms() / plain.wall_ms());
            }
            let mut observed = options.clone();
            observed.obs = Obs::enabled();
            if let Some(obs) = tally.ok("obs flow", cold_flow(&netlist, ghz, &observed, None)) {
                r.set("obs.overhead_ratio", obs.wall_ms() / plain.wall_ms());
            }
        }
        rungs.push(Rung {
            cells: netlist.cell_count() as f64,
            flow_ms: real_ms,
            kernels,
        });
    }

    if let [small, large] = &rungs[..] {
        let cells = (small.cells, large.cells);
        r.set(
            "flow.exponent",
            exponent(small.flow_ms, large.flow_ms, cells),
        );
        for (span, metric) in [
            ("place.global_place", "place.global_place_exponent"),
            ("place.legalize", "place.legalize_exponent"),
            ("partition.fm", "partition.fm_exponent"),
            ("route.global_route", "route.global_route_exponent"),
            ("sta.analyze", "sta.analyze_exponent"),
        ] {
            let at = |rung: &Rung| {
                rung.kernels
                    .iter()
                    .find(|(k, _)| *k == span)
                    .map_or(0.0, |k| k.1)
            };
            r.set(metric, exponent(at(small), at(large), cells));
        }
    }

    let path = ctx
        .out_dir
        .join(format!("trace-scale_flow-seed{}.json", ctx.seed));
    let written = tr.write_json(
        &path,
        &[
            ("workload", "scale_flow".into()),
            ("seed", ctx.seed.to_string()),
        ],
    );
    if tally.ok("write span file", written).is_some() {
        out.notes.push(format!("spans: {}", path.display()));
    }
    out
}
