//! Full re-analyze vs journaled incremental `Timer` update (explicit
//! `TimingEdit` lists through `Timer::update_journaled`, the path the
//! flow runs), on the AES and CPU netlists, plus an fmax-ladder
//! micro-bench (the period sweep is the incremental engine's best case:
//! no forward arc is ever re-propagated).
//!
//! Run with `cargo bench --bench sta_incremental`. The trailing summary
//! prints the measured speedups and the propagated-arc reduction
//! reported by the `Timer` stat counters.

use criterion::{criterion_group, criterion_main, Criterion};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{CellId, Netlist};
use hetero3d::sta::{analyze, ClockSpec, Parasitics, StaResult, Timer, TimingContext, TimingEdit};
use hetero3d::tech::{Drive, Tier, TierStack};
use std::time::Instant;

/// Same rung multipliers as the flow's fmax sweep.
const LADDER: [f64; 5] = [1.18, 1.08, 1.0, 0.92, 0.85];

struct Design {
    name: &'static str,
    netlist: Netlist,
    stack: TierStack,
    tiers: Vec<Tier>,
    parasitics: Parasitics,
    gates: Vec<CellId>,
}

fn design(name: &'static str, bench: Benchmark, scale: f64) -> Design {
    let netlist = bench.generate(scale, 7);
    let stack = TierStack::heterogeneous();
    let tiers = vec![Tier::Bottom; netlist.cell_count()];
    let parasitics = Parasitics::zero_wire(&netlist);
    let gates = netlist
        .cells()
        .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
        .map(|(id, _)| id)
        .collect();
    Design {
        name,
        netlist,
        stack,
        tiers,
        parasitics,
        gates,
    }
}

/// Toggles the drive of one rotating gate — the canonical sizing edit.
fn toggle_drive(d: &mut Design, step: usize) -> CellId {
    let g = d.gates[step * 131 % d.gates.len()];
    let dr = d.netlist.cell(g).class.gate_drive().expect("gate");
    let next = if step.is_multiple_of(2) {
        dr.upsized().unwrap_or(Drive::X1)
    } else {
        dr.downsized().unwrap_or(Drive::X8)
    };
    d.netlist.set_drive(g, next);
    g
}

fn ctx<'a>(d: &'a Design, period: f64) -> TimingContext<'a> {
    TimingContext {
        netlist: &d.netlist,
        stack: &d.stack,
        tiers: &d.tiers,
        parasitics: &d.parasitics,
        clock: ClockSpec::with_period(period),
    }
}

fn bench_design(c: &mut Criterion, mut d: Design) -> (f64, f64, u64, u64) {
    let name = d.name;

    // Cold pass per edit (what the flow did before the Timer existed).
    let mut step = 0usize;
    c.bench_function(&format!("sta_full_reanalyze_{name}"), |b| {
        b.iter(|| {
            toggle_drive(&mut d, step);
            step += 1;
            std::hint::black_box(analyze(&ctx(&d, 1.0)).wns)
        })
    });

    // Incremental update per edit through a persistent Timer.
    let mut timer = Timer::new();
    let _ = timer.update_journaled(&ctx(&d, 1.0), &[]); // prime: the one full build
    let mut step = 1usize;
    c.bench_function(&format!("sta_incremental_{name}"), |b| {
        b.iter(|| {
            let edit = TimingEdit::ResizeCell(toggle_drive(&mut d, step));
            step += 1;
            std::hint::black_box(timer.update_journaled(&ctx(&d, 1.0), &[edit]).wns)
        })
    });

    // Out-of-band speedup measurement over one identical edit sequence.
    let reps = 30usize;
    let t0 = Instant::now();
    let mut sink = 0.0;
    for s in 0..reps {
        toggle_drive(&mut d, s);
        sink += analyze(&ctx(&d, 1.0)).wns;
    }
    let full = t0.elapsed().as_secs_f64() / reps as f64;
    let mut timer = Timer::new();
    let _ = timer.update_journaled(&ctx(&d, 1.0), &[]);
    let t0 = Instant::now();
    for s in 0..reps {
        let edit = TimingEdit::ResizeCell(toggle_drive(&mut d, s));
        sink += timer.update_journaled(&ctx(&d, 1.0), &[edit]).wns;
    }
    let incr = t0.elapsed().as_secs_f64() / reps as f64;
    std::hint::black_box(sink);
    let stats = timer.stats();
    let cold_equivalent =
        (stats.full_rebuilds + stats.incremental_updates) * timer.full_pass_evals();
    (full, incr, cold_equivalent, stats.propagated_evals())
}

/// The fmax ladder: five periods evaluated on an otherwise untouched
/// design. Cold analysis repeats the whole propagation per rung; the
/// Timer only re-evaluates endpoint RATs and required times.
fn bench_fmax_ladder(c: &mut Criterion, d: &Design) -> (f64, f64) {
    let sweep_cold =
        |d: &Design| -> f64 { LADDER.iter().map(|m| analyze(&ctx(d, m * 1.0)).wns).sum() };
    c.bench_function("fmax_ladder_full", |b| {
        b.iter(|| std::hint::black_box(sweep_cold(d)))
    });

    let mut timer = Timer::new();
    let _ = timer.update_journaled(&ctx(d, 1.0), &[]);
    c.bench_function("fmax_ladder_incremental", |b| {
        b.iter(|| {
            let s: f64 = LADDER
                .iter()
                .map(|m| {
                    timer
                        .update_journaled(&ctx(d, m * 1.0), &[TimingEdit::Period])
                        .wns
                })
                .sum();
            std::hint::black_box(s)
        })
    });

    // Out-of-band ladder timing.
    let reps = 20usize;
    let t0 = Instant::now();
    let mut sink = 0.0;
    for _ in 0..reps {
        sink += sweep_cold(d);
    }
    let full = t0.elapsed().as_secs_f64() / reps as f64;
    let mut timer = Timer::new();
    let _ = timer.update_journaled(&ctx(d, 1.0), &[]);
    let t0 = Instant::now();
    for _ in 0..reps {
        for m in LADDER {
            sink += timer
                .update_journaled(&ctx(d, m * 1.0), &[TimingEdit::Period])
                .wns;
        }
    }
    let incr = t0.elapsed().as_secs_f64() / reps as f64;
    std::hint::black_box(sink);
    (full, incr)
}

fn bench_sta_incremental(c: &mut Criterion) {
    let mut lines = Vec::new();
    for (name, bench, scale) in [("aes", Benchmark::Aes, 0.15), ("cpu", Benchmark::Cpu, 0.10)] {
        let d = design(name, bench, scale);
        let cells = d.netlist.cell_count();
        let (full, incr, cold_evals, prop_evals) = bench_design(c, d);
        lines.push(format!(
            "{name} ({cells} cells): resize-edit speedup {:.1}x ({:.3} ms -> {:.3} ms), \
             propagated arcs {}x fewer ({} cold-equivalent vs {} incremental)",
            full / incr.max(1e-12),
            full * 1e3,
            incr * 1e3,
            cold_evals / prop_evals.max(1),
            cold_evals,
            prop_evals,
        ));
    }
    let d = design("aes", Benchmark::Aes, 0.15);
    let (full, incr) = bench_fmax_ladder(c, &d);
    lines.push(format!(
        "fmax ladder (5 rungs): speedup {:.1}x ({:.3} ms -> {:.3} ms per sweep)",
        full / incr.max(1e-12),
        full * 1e3,
        incr * 1e3,
    ));
    println!("\n--- sta_incremental summary ---");
    for l in &lines {
        println!("{l}");
    }

    let _ = sanity_result();
}

/// The bench mutates netlists without checking results; anchor once here
/// so a broken engine can't silently produce fast-but-wrong numbers.
fn sanity_result() -> StaResult {
    let d = design("aes", Benchmark::Aes, 0.05);
    let mut timer = Timer::new();
    let incr = timer.update_journaled(&ctx(&d, 1.0), &[]);
    let cold = analyze(&ctx(&d, 1.0));
    assert_eq!(incr.wns.to_bits(), cold.wns.to_bits(), "bench sanity: wns");
    assert_eq!(incr.tns.to_bits(), cold.tns.to_bits(), "bench sanity: tns");
    incr
}

criterion_group! {
    name = sta_incremental;
    config = Criterion::default().sample_size(10);
    targets = bench_sta_incremental
}
criterion_main!(sta_incremental);
