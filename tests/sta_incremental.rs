//! Equivalence tests for the incremental STA engine.
//!
//! The contract under test: after ANY sequence of flow-vocabulary edits —
//! drive resize, buffer insertion, tier swap, clock-period change, net
//! parasitics update — reported as [`TimingEdit`]s,
//! [`Timer::update`] returns a result **bit-identical** to a cold
//! [`analyze`] (a fresh timer's full-seed pass) of the same context, at
//! any thread count. Threads are a performance knob only; the cone pass
//! equals the full seed exactly when the edit lists are complete, and
//! `tests/sta_oracle.rs` holds both to an independent evaluator.

use hetero3d::json::{Obj, Value};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{CellId, NetId, Netlist};
use hetero3d::par;
use hetero3d::sta::{
    analyze, ClockSpec, NetModel, Parasitics, StaResult, Timer, TimingContext, TimingEdit,
};
use hetero3d::tech::{Drive, Tier, TierStack};
use proptest::prelude::*;

/// Asserts exact equality of every float (by raw bits) and every discrete
/// field of two STA results.
fn assert_bit_identical(incr: &StaResult, cold: &StaResult, what: &str) {
    assert_eq!(incr.wns.to_bits(), cold.wns.to_bits(), "{what}: wns");
    assert_eq!(incr.tns.to_bits(), cold.tns.to_bits(), "{what}: tns");
    assert_eq!(incr.worst_input, cold.worst_input, "{what}: worst_input");
    for i in 0..cold.arrival.len() {
        assert_eq!(
            incr.arrival[i].to_bits(),
            cold.arrival[i].to_bits(),
            "{what}: arrival[{i}]"
        );
        assert_eq!(
            incr.slew[i].to_bits(),
            cold.slew[i].to_bits(),
            "{what}: slew[{i}]"
        );
        assert_eq!(
            incr.required[i].to_bits(),
            cold.required[i].to_bits(),
            "{what}: required[{i}]"
        );
        assert_eq!(
            incr.endpoint_slack[i].to_bits(),
            cold.endpoint_slack[i].to_bits(),
            "{what}: endpoint_slack[{i}]"
        );
    }
}

/// Runs `script` at 1 and 4 threads (a performance knob only) and checks
/// that the two result series agree bit for bit.
fn at_1_and_4_threads(what: &str, script: impl Fn(usize) -> Vec<StaResult>) {
    let runs = [1usize, 4].map(|threads| {
        par::set_threads(threads);
        script(threads)
    });
    par::set_threads(1);
    for (step, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_bit_identical(a, b, &format!("{what}: threads 1 vs 4, step {step}"));
    }
}

/// The deterministic wire models a (re)built netlist starts from.
fn seeded_parasitics(netlist: &Netlist) -> Parasitics {
    let mut parasitics = Parasitics::zero_wire(netlist);
    for k in 0..netlist.net_count() {
        *parasitics.net_mut(NetId::from_index(k)) = NetModel {
            wire_cap_ff: 0.5 + (k % 7) as f64,
            wire_delay_ns: 0.001 * (k % 5) as f64,
        };
    }
    parasitics
}

/// Runs one random edit script on a small AES netlist — every edit
/// decoded from `(op, index, magnitude)` and reported to the timer as
/// the matching [`TimingEdit`] — checking that the incremental result
/// matches a cold analyze bit-for-bit after every single edit, at 1 and
/// 4 threads, which must also agree with each other.
fn run_edit_script(edits: &[(u8, usize, f64)], seed: u64) {
    let stack = TierStack::heterogeneous();
    at_1_and_4_threads("edit script", |threads| {
        let mut netlist = Benchmark::Aes.generate(0.015, seed);
        let mut positions = vec![hetero3d::geom::Point::ORIGIN; netlist.cell_count()];
        let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
        let mut parasitics = seeded_parasitics(&netlist);
        let mut period = 1.0;
        let mut timer = Timer::new();
        let mut results = Vec::new();

        for (step, &(op, index, mag)) in edits.iter().enumerate() {
            let gates: Vec<CellId> = netlist
                .cells()
                .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
                .map(|(id, _)| id)
                .collect();
            let gate = gates[index % gates.len()];
            let edit = match op {
                0 | 1 => {
                    let d = netlist.cell(gate).class.gate_drive().expect("gate");
                    let to = if op == 0 {
                        d.upsized().unwrap_or(Drive::X1)
                    } else {
                        d.downsized().unwrap_or(Drive::X8)
                    };
                    netlist.set_drive(gate, to);
                    TimingEdit::ResizeCell(gate)
                }
                2 => {
                    tiers[gate.index()] = tiers[gate.index()].other();
                    TimingEdit::SwapTier(gate)
                }
                3 => {
                    period = (period * (0.85 + 0.3 * mag)).max(0.05);
                    TimingEdit::Period
                }
                4 => {
                    let k = NetId::from_index(index % netlist.net_count());
                    parasitics.net_mut(k).wire_delay_ns += 0.006 * mag;
                    parasitics.net_mut(k).wire_cap_ff += 2.0 * mag;
                    TimingEdit::NetModel(k)
                }
                // Buffer insertion grows the netlist: every per-net and
                // per-cell binding is re-sized to the result, and the
                // edit list says so.
                _ => {
                    let _ =
                        hetero3d::opt::insert_buffers(&mut netlist, &mut positions, 6 + index % 6);
                    tiers.resize(netlist.cell_count(), Tier::Bottom);
                    parasitics = seeded_parasitics(&netlist);
                    TimingEdit::Structural
                }
            };
            let ctx = TimingContext {
                netlist: &netlist,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(period),
            };
            let incr = StaResult::clone(&timer.update(&ctx, &[edit]));
            let cold = analyze(&ctx);
            assert_bit_identical(
                &incr,
                &cold,
                &format!("step {step} op {op} threads {threads}"),
            );
            results.push(incr);
        }
        results
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random edit scripts: resize up/down, tier swap, period change,
    // parasitics update, buffer insertion — each reported by hand.
    #[test]
    fn timer_is_bit_identical_to_cold_analyze(
        edits in prop::collection::vec((0u8..6, 0usize..4096, 0.0..1.0f64), 1..10),
        seed in 0u64..64,
    ) {
        run_edit_script(&edits, seed);
    }
}

/// A large (above the parallel threshold) netlist driven through a fixed
/// edit script at 1 and 4 threads: the incremental results must agree
/// with each other and with a cold single-thread analyze, bit for bit.
#[test]
fn timer_is_thread_count_invariant() {
    let netlist = Benchmark::Aes.generate(0.25, 11);
    assert!(
        netlist.cell_count() >= par::PAR_THRESHOLD,
        "test must exercise the parallel path ({} cells)",
        netlist.cell_count()
    );
    let stack = TierStack::heterogeneous();
    let base_tiers = vec![Tier::Bottom; netlist.cell_count()];
    let parasitics = Parasitics::zero_wire(&netlist);

    let gates: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
        .map(|(id, _)| id)
        .collect();

    at_1_and_4_threads("large netlist", |threads| {
        let mut nl = netlist.clone();
        let mut tiers = base_tiers.clone();
        let mut period = 1.0;
        let mut timer = Timer::new();
        let mut results = Vec::new();
        for step in 0..8 {
            let edit = match step % 4 {
                0 => {
                    let g = gates[step * 97 % gates.len()];
                    let d = nl.cell(g).class.gate_drive().expect("gate");
                    nl.set_drive(g, d.upsized().unwrap_or(Drive::X1));
                    TimingEdit::ResizeCell(g)
                }
                1 => {
                    let g = gates[step * 131 % gates.len()];
                    tiers[g.index()] = tiers[g.index()].other();
                    TimingEdit::SwapTier(g)
                }
                2 => {
                    period *= 0.94;
                    TimingEdit::Period
                }
                _ => {
                    let g = gates[step * 61 % gates.len()];
                    let d = nl.cell(g).class.gate_drive().expect("gate");
                    nl.set_drive(g, d.downsized().unwrap_or(Drive::X8));
                    TimingEdit::ResizeCell(g)
                }
            };
            let ctx = TimingContext {
                netlist: &nl,
                stack: &stack,
                tiers: &tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(period),
            };
            results.push(StaResult::clone(&timer.update(&ctx, &[edit])));
            if threads == 1 && step == 7 {
                // Anchor the sequence to a cold pass once.
                assert_bit_identical(results.last().unwrap(), &analyze(&ctx), "anchor");
            }
        }
        results.push(timer.result().expect("updated").clone());
        results
    });
}

/// A fixed 24-edit script — drive up- and downsizes, tier swaps and wire
/// model bumps — on AES and CPU (scale 0.02, seed 7), every step checked
/// against a cold analyze by bits: the timer's propagated evaluations,
/// against a cold pass per edit, are `tests/golden/sta.json`.
#[test]
fn edit_script_evaluation_counts_are_their_golden() {
    const EDITS: usize = 24;
    let stack = TierStack::heterogeneous();
    let designs: Vec<Value> = [(Benchmark::Aes, "aes"), (Benchmark::Cpu, "cpu")]
        .into_iter()
        .map(|(bench, name)| {
            let mut netlist = bench.generate(0.02, 7);
            let mut tiers = vec![Tier::Bottom; netlist.cell_count()];
            let mut parasitics = Parasitics::zero_wire(&netlist);
            let gates: Vec<CellId> = netlist
                .cells()
                .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
                .map(|(id, _)| id)
                .collect();
            let mut timer = Timer::new();
            for step in 0..EDITS {
                let edit = match step % 4 {
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
                };
                let ctx = TimingContext {
                    netlist: &netlist,
                    stack: &stack,
                    tiers: &tiers,
                    parasitics: &parasitics,
                    clock: ClockSpec::with_period(1.0),
                };
                let incr = timer.update(&ctx, &[edit]);
                assert_bit_identical(&incr, &analyze(&ctx), &format!("{name} step {step}"));
            }
            let stats = timer.stats();
            let cold = (stats.full_rebuilds + stats.incremental_updates) * timer.full_pass_evals();
            let propagated = stats.propagated_evals();
            Obj::new()
                .put("name", name)
                .put("cells", netlist.cell_count())
                .put("edits", EDITS)
                .put("cold_equiv_evals", cold)
                .put("propagated_evals", propagated)
                .put("arc_reduction", cold as f64 / propagated as f64)
                .build()
        })
        .collect();
    let section = Obj::new()
        .put("scale", 0.02)
        .put("seed", 7u64)
        .put("designs", designs)
        .build();
    m3d_bench::assert_golden("sta", &section);
}
