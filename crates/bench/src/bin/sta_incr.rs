//! Incremental-vs-full STA smoke run and `BENCH_sta.json` datapoint.
//!
//! Drives a fixed edit script (resizes, tier swaps, parasitics bumps and
//! an fmax-ladder period sweep) through both a cold `analyze` per edit
//! and a persistent incremental `Timer` fed the matching `TimingEdit`
//! list through `Timer::update` — the path the flow runs —
//! asserting **bit-identical** results at every step, then records
//! the propagated-arc counts (deterministic) and wall-clock numbers (perf)
//! to `results/BENCH_sta.json`.
//!
//! The levelization is the netlist's memo (`Netlist::levels`), built
//! once per structure, which none of the script's edits changes: both
//! passes and the ladder time propagation over a memoized levelization,
//! and the one build is recorded on its own as `t_levelize_ms`.
//!
//! Usage: `sta_incr [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! `--scale 0.02` is the CI smoke setting and the committed baseline's
//! (`--scale` defaults to the tables' 0.06). Thread count follows
//! `HETERO3D_THREADS` (the results must not change with it — that is
//! part of what this binary checks).

use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{CellId, NetId};
use hetero3d::sta::{analyze, ClockSpec, Parasitics, StaResult, Timer, TimingContext, TimingEdit};
use hetero3d::tech::{Drive, Tier, TierStack};
use m3d_json::Obj;
use std::time::Instant;

const LADDER: [f64; 5] = [1.18, 1.08, 1.0, 0.92, 0.85];

fn assert_bit_identical(incr: &StaResult, cold: &StaResult, what: &str) {
    assert_eq!(incr.wns.to_bits(), cold.wns.to_bits(), "{what}: wns");
    assert_eq!(incr.tns.to_bits(), cold.tns.to_bits(), "{what}: tns");
    assert_eq!(incr.violations, cold.violations, "{what}: violations");
    assert_eq!(
        incr.critical_endpoints, cold.critical_endpoints,
        "{what}: order"
    );
    for i in 0..cold.arrival.len() {
        assert_eq!(
            incr.arrival[i].to_bits(),
            cold.arrival[i].to_bits(),
            "{what}: arrival[{i}]"
        );
        assert_eq!(
            incr.slack[i].to_bits(),
            cold.slack[i].to_bits(),
            "{what}: slack[{i}]"
        );
    }
}

struct Datapoint {
    bench: &'static str,
    cells: usize,
    edits: usize,
    t_levelize_ms: f64,
    t_full_ms: f64,
    t_incr_ms: f64,
    cold_equiv_evals: u64,
    propagated_evals: u64,
    ladder_full_ms: f64,
    ladder_incr_ms: f64,
}

#[allow(clippy::too_many_lines)]
fn run_bench(bench: Benchmark, name: &'static str, scale: f64, seed: u64) -> Datapoint {
    let mut netlist = bench.generate(scale, seed);
    let stack = TierStack::heterogeneous();
    let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
    let mut parasitics = Parasitics::zero_wire(&netlist);
    let cells = netlist.cell_count();
    let gates: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
        .map(|(id, _)| id)
        .collect();

    // The edit script: a deterministic mix of the flow's edit vocabulary.
    // Each step returns the edit the timer is fed for it.
    let edits = 24usize;
    let apply = |netlist: &mut hetero3d::netlist::Netlist,
                 tiers: &mut Vec<Tier>,
                 parasitics: &mut Parasitics,
                 step: usize| {
        match step % 4 {
            0 => {
                let g = gates[step * 131 % gates.len()];
                let d = netlist.cell(g).class.gate_drive().expect("gate");
                netlist.set_drive(g, d.upsized().unwrap_or(Drive::X1));
                TimingEdit::ResizeCell(g)
            }
            1 => {
                let g = gates[step * 61 % gates.len()];
                tiers[g.index()] = tiers[g.index()].other();
                TimingEdit::SwapTier(g)
            }
            2 => {
                let k = NetId::from_index(step * 17 % netlist.net_count());
                parasitics.net_mut(k).wire_delay_ns += 0.002;
                parasitics.net_mut(k).wire_cap_ff += 1.0;
                TimingEdit::NetModel(k)
            }
            _ => {
                let g = gates[step * 97 % gates.len()];
                let d = netlist.cell(g).class.gate_drive().expect("gate");
                netlist.set_drive(g, d.downsized().unwrap_or(Drive::X8));
                TimingEdit::ResizeCell(g)
            }
        }
    };

    let t0 = Instant::now();
    let _ = netlist.levels();
    let t_levelize = t0.elapsed().as_secs_f64();

    // Pass 1: cold analyze per edit (timed), results kept for comparison.
    let mut cold_results = Vec::with_capacity(edits);
    let t0 = Instant::now();
    for step in 0..edits {
        let _ = apply(&mut netlist, &mut tiers, &mut parasitics, step);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(1.0),
        };
        cold_results.push(analyze(&ctx));
    }
    let t_full = t0.elapsed().as_secs_f64();

    // Rewind the script (it is self-inverse for tiers and idempotent
    // enough for the rest: replaying from the same start state gives the
    // same contexts) by rebuilding the start state.
    let mut netlist = bench.generate(scale, seed);
    let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
    let mut parasitics = Parasitics::zero_wire(&netlist);
    let _ = netlist.levels();

    // Pass 2: incremental Timer per edit (timed), checked bit-for-bit.
    let mut timer = Timer::new();
    let t0 = Instant::now();
    for (step, cold) in cold_results.iter().enumerate() {
        let edit = apply(&mut netlist, &mut tiers, &mut parasitics, step);
        let ctx = TimingContext {
            netlist: &netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(1.0),
        };
        let incr = timer.update(&ctx, &[edit]);
        assert_bit_identical(&incr, cold, &format!("{name} step {step}"));
    }
    let t_incr = t0.elapsed().as_secs_f64();
    let stats = timer.stats();
    let cold_equiv = (stats.full_rebuilds + stats.incremental_updates) * timer.full_pass_evals();
    let propagated = stats.propagated_evals();

    // Fmax ladder: period-only sweeps, cold vs incremental.
    let ctx = |p: f64| TimingContext {
        netlist: &netlist,
        stack: &stack,
        tiers: &tiers,
        parasitics: &parasitics,
        clock: ClockSpec::with_period(p),
    };
    let t0 = Instant::now();
    let mut cold_ladder = Vec::new();
    for m in LADDER {
        cold_ladder.push(analyze(&ctx(m)));
    }
    let ladder_full = t0.elapsed().as_secs_f64();
    let mut timer = Timer::new();
    let _ = timer.update(&ctx(1.0), &[]);
    let forward_before = timer.stats().forward_evals;
    let t0 = Instant::now();
    for (i, m) in LADDER.iter().enumerate() {
        let incr = timer.update(&ctx(*m), &[TimingEdit::Period]);
        assert_bit_identical(&incr, &cold_ladder[i], &format!("{name} rung {i}"));
    }
    let ladder_incr = t0.elapsed().as_secs_f64();
    assert_eq!(
        timer.stats().forward_evals,
        forward_before,
        "{name}: period-only rungs must not re-propagate any arrival"
    );

    Datapoint {
        bench: name,
        cells,
        edits,
        t_levelize_ms: t_levelize * 1e3,
        t_full_ms: t_full * 1e3,
        t_incr_ms: t_incr * 1e3,
        cold_equiv_evals: cold_equiv,
        propagated_evals: propagated,
        ladder_full_ms: ladder_full * 1e3,
        ladder_incr_ms: ladder_incr * 1e3,
    }
}

fn main() {
    let args = m3d_bench::parse_args(m3d_bench::TABLE_SCALE);
    let points = [
        run_bench(Benchmark::Aes, "aes", args.scale, args.seed),
        run_bench(Benchmark::Cpu, "cpu", args.scale, args.seed),
    ];

    let (mut deterministic, mut perf) = (Vec::new(), Vec::new());
    for p in &points {
        let arc_reduction = p.cold_equiv_evals as f64 / p.propagated_evals.max(1) as f64;
        let speedup = p.t_full_ms / p.t_incr_ms.max(1e-9);
        // The acceptance bar: the incremental engine must propagate at
        // least 3x fewer arcs than cold re-analysis over the edit script.
        assert!(
            arc_reduction >= 3.0,
            "{}: propagated-arc reduction {arc_reduction:.1}x is below the 3x bar",
            p.bench
        );
        println!(
            "{}: {} cells, {} edits | full {:.2} ms vs incremental {:.2} ms ({speedup:.1}x) | \
             arcs {arc_reduction:.1}x fewer | ladder {:.2} ms vs {:.2} ms",
            p.bench, p.cells, p.edits, p.t_full_ms, p.t_incr_ms, p.ladder_full_ms, p.ladder_incr_ms,
        );
        deterministic.push(
            Obj::new()
                .put("name", p.bench)
                .put("cells", p.cells)
                .put("edits", p.edits)
                .put("cold_equiv_evals", p.cold_equiv_evals)
                .put("propagated_evals", p.propagated_evals)
                .put("arc_reduction", arc_reduction)
                .build(),
        );
        perf.push(
            Obj::new()
                .put("name", p.bench)
                .put("t_levelize_ms", p.t_levelize_ms)
                .put("t_full_ms", p.t_full_ms)
                .put("t_incr_ms", p.t_incr_ms)
                .put("speedup", speedup)
                .put("ladder_full_ms", p.ladder_full_ms)
                .put("ladder_incr_ms", p.ladder_incr_ms)
                .put(
                    "ladder_speedup",
                    p.ladder_full_ms / p.ladder_incr_ms.max(1e-9),
                )
                .build(),
        );
    }
    m3d_bench::write_manifest(
        &args,
        "sta",
        [("designs", deterministic.into())],
        [("designs", perf.into())],
    );
    println!("sta_incr smoke: all incremental results bit-identical to cold analyze");
}
