//! An independent reference STA, and `m3d-sta` held against it by bits.
//!
//! Every other timing check in the repo is self-consistency: incremental
//! ≡ cold, 1 thread ≡ 4 threads, parent ≡ change. This suite is the
//! other kind. [`Oracle`] re-derives the timing model from its definition
//! — memoised recursion over the AoS [`Netlist`], one direct
//! `MasterCell::delay` / `output_slew` call per arc per direction — and
//! shares no code with the engine under test: no levelization, no arc
//! array, no (net, sink) map, no dirty sets. It reads the same *inputs*
//! (a [`TimingContext`] is only a bag of references) and nothing else.
//!
//! The model is deterministic down to the order of every float
//! operation, so the comparison is exact: arrival, slew, required and
//! slack per cell, WNS and TNS, bit for bit — against a cold
//! [`analyze`], and against a [`Timer`] after every step of seeded
//! `ResizeCell` / `SwapTier` / `NetModel` / `Period` / `ClockLatency`
//! scripts, at the typical and a derated corner. In particular the
//! backward pass of the engine reads arc delays the forward pass stored;
//! the oracle evaluates every one of them afresh, so a stale or
//! mis-indexed stored delay cannot hide (the last test corrupts one on
//! purpose).

use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{CellClass, CellId, NetId, Netlist};
use hetero3d::sta::{
    analyze, ClockSpec, NetModel, Parasitics, StaResult, Timer, TimingContext, TimingEdit,
};
use hetero3d::tech::{CellKind, Corner, Drive, MasterCell, Tier, TierStack};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Reference timing of one context. Each quantity is a memoised recursive
/// function of the netlist: arrivals recurse into fan-in, required times
/// into fan-out.
struct Oracle<'a> {
    ctx: &'a TimingContext<'a>,
    /// `(arrival, slew)` at the launch/output side of each cell.
    launch: Vec<Option<(f64, f64)>>,
    required: Vec<Option<f64>>,
}

impl<'a> Oracle<'a> {
    fn new(ctx: &'a TimingContext<'a>) -> Self {
        let n = ctx.netlist.cell_count();
        Oracle {
            ctx,
            launch: vec![None; n],
            required: vec![None; n],
        }
    }

    fn netlist(&self) -> &'a Netlist {
        self.ctx.netlist
    }

    fn master(&self, cell: CellId) -> Option<&'a MasterCell> {
        match &self.netlist().cell(cell).class {
            CellClass::Gate { kind, drive } => self
                .ctx
                .stack
                .library(self.ctx.tiers[cell.index()])
                .cell(*kind, *drive),
            _ => None,
        }
    }

    fn clock_latency(&self, cell: CellId) -> f64 {
        self.ctx
            .clock
            .latency_ns
            .get(cell.index())
            .copied()
            .unwrap_or(0.0)
    }

    fn is_comb(&self, cell: CellId) -> bool {
        let c = self.netlist().cell(cell);
        c.class.is_gate() && !c.is_sequential()
    }

    /// Capacitance the driver of `net` sees: the wire, then every sink
    /// pin in sink order. Clock nets are ideal.
    fn load(&self, net: NetId) -> f64 {
        let n = self.netlist().net(net);
        if n.is_clock {
            return 0.0;
        }
        let mut load = self.ctx.parasitics.net(net).wire_cap_ff;
        for sink in &n.sinks {
            load += match &self.netlist().cell(sink.cell).class {
                CellClass::Gate { .. } => self.master(sink.cell).map_or(1.0, |m| m.input_cap_ff),
                CellClass::Macro(spec) => spec.input_cap_ff,
                CellClass::PrimaryOutput => self.ctx.clock.output_load_ff,
                CellClass::PrimaryInput => 0.0,
            };
        }
        load
    }

    /// Load on the cell's first output pin (the one pin gates have).
    fn output_load(&self, cell: CellId) -> f64 {
        match self.netlist().output_net(cell, 0) {
            Some(net) => self.load(net),
            None => 0.0,
        }
    }

    /// The timed input pins of `cell`: `(driver, net)` of every connected
    /// pin whose net is driven and not the clock, by ascending pin.
    fn timed_inputs(&self, cell: CellId, pins: usize) -> Vec<(CellId, NetId)> {
        (0..pins)
            .filter_map(|pin| {
                let net = self.netlist().input_net(cell, pin)?;
                let n = self.netlist().net(net);
                if n.is_clock {
                    return None;
                }
                Some((n.driver?.cell, net))
            })
            .collect()
    }

    /// Arrival and slew on the cell's output: its launch time for
    /// sequential cells, macros and primary inputs; the worst arc through
    /// it for combinational gates (first pin wins ties).
    fn launch(&mut self, cell: CellId) -> (f64, f64) {
        if let Some(v) = self.launch[cell.index()] {
            return v;
        }
        let clock = &self.ctx.clock;
        let c = self.netlist().cell(cell);
        let v = match &c.class {
            CellClass::PrimaryInput => (clock.virtual_io_latency_ns, clock.input_slew_ns),
            CellClass::PrimaryOutput => (self.data_arrival(cell), clock.input_slew_ns),
            CellClass::Macro(spec) => (self.clock_latency(cell) + spec.access_delay_ns, 0.08),
            CellClass::Gate { kind, .. } if kind.is_sequential() => {
                let (clk_to_q, slew) = match self.master(cell) {
                    Some(m) => {
                        let load = self.output_load(cell);
                        (
                            m.clk_to_q_ns + m.delay(0.02, load) * 0.3,
                            m.output_slew(0.02, load),
                        )
                    }
                    None => (0.1, 0.05),
                };
                (self.clock_latency(cell) + clk_to_q, slew)
            }
            CellClass::Gate { .. } => {
                let master = self.master(cell);
                let load = self.output_load(cell);
                let mut best: Option<(f64, f64)> = None;
                for (driver, net) in self.timed_inputs(cell, c.input_count()) {
                    let (at, slew_in) = self.launch(driver);
                    let at_in = at + self.ctx.parasitics.net(net).wire_delay_ns;
                    let (delay, slew_out) = match master {
                        Some(m) => (m.delay(slew_in, load), m.output_slew(slew_in, load)),
                        None => (0.0, slew_in),
                    };
                    let at_out = at_in + delay;
                    if best.is_none_or(|(b, _)| at_out > b) {
                        best = Some((at_out, slew_out));
                    }
                }
                best.unwrap_or((0.0, clock.input_slew_ns))
            }
        };
        self.launch[cell.index()] = Some(v);
        v
    }

    /// Number of data (non-clock) input pins of an endpoint, its setup
    /// time and the clock edge it captures on; `None` for non-endpoints.
    fn capture(&self, cell: CellId) -> Option<(usize, f64, f64)> {
        let c = self.netlist().cell(cell);
        let clock = &self.ctx.clock;
        match &c.class {
            CellClass::Gate { kind, .. } if kind.is_sequential() => Some((
                c.input_count().saturating_sub(1),
                self.master(cell).map_or(0.03, |m| m.setup_ns),
                self.clock_latency(cell),
            )),
            CellClass::Macro(spec) => Some((
                c.input_count().saturating_sub(1),
                spec.setup_ns,
                self.clock_latency(cell),
            )),
            CellClass::PrimaryOutput => Some((c.input_count(), 0.0, clock.virtual_io_latency_ns)),
            _ => None,
        }
    }

    /// Required arrival time at an endpoint's data pins.
    fn capture_rat(&self, cell: CellId) -> Option<f64> {
        let (_, setup, edge) = self.capture(cell)?;
        Some(self.ctx.clock.period_ns + edge - setup)
    }

    /// Worst arrival over an endpoint's data pins (0.0 when none is timed).
    fn data_arrival(&mut self, cell: CellId) -> f64 {
        let (pins, _, _) = self.capture(cell).expect("endpoint");
        let mut worst = 0.0_f64;
        for (driver, net) in self.timed_inputs(cell, pins) {
            let at = self.launch(driver).0 + self.ctx.parasitics.net(net).wire_delay_ns;
            worst = worst.max(at);
        }
        worst
    }

    /// Required time the sinks of `net` impose on its driver.
    fn required_through(&mut self, driver: CellId, net: NetId) -> f64 {
        let wire = self.ctx.parasitics.net(net).wire_delay_ns;
        let slew = self.launch(driver).1;
        let mut rat = f64::INFINITY;
        for sink in self.netlist().net(net).sinks.clone() {
            let candidate = if self.is_comb(sink.cell) {
                let arc = match self.master(sink.cell) {
                    Some(m) => m.delay(slew, self.output_load(sink.cell)),
                    None => 0.0,
                };
                self.required(sink.cell) - arc
            } else {
                self.capture_rat(sink.cell).unwrap_or(f64::INFINITY)
            };
            rat = rat.min(candidate - wire);
        }
        rat
    }

    /// Required time on the cell's output side (primary outputs: at the
    /// pin itself).
    fn required(&mut self, cell: CellId) -> f64 {
        if let Some(v) = self.required[cell.index()] {
            return v;
        }
        let c = self.netlist().cell(cell);
        let v = if self.is_comb(cell) {
            // A gate is judged through its one output, clock net or not.
            match self.netlist().output_net(cell, 0) {
                Some(net) => self.required_through(cell, net),
                None => f64::INFINITY,
            }
        } else if matches!(c.class, CellClass::PrimaryOutput) {
            self.capture_rat(cell).expect("endpoint")
        } else {
            // Launch cells: every output, but never down the clock tree.
            let mut rat = f64::INFINITY;
            for net in self.netlist().output_nets(cell) {
                if !self.netlist().net(net).is_clock {
                    rat = rat.min(self.required_through(cell, net));
                }
            }
            rat
        };
        self.required[cell.index()] = Some(v);
        v
    }

    /// Compares every per-cell quantity and the design totals with `got`,
    /// by bits. `Err` names the first difference.
    fn check(&mut self, got: &StaResult) -> Result<(), String> {
        let same = |name: &str, i: usize, want: f64, got: f64| {
            if want.to_bits() == got.to_bits() {
                Ok(())
            } else {
                Err(format!("{name}[{i}]: oracle {want:e}, engine {got:e}"))
            }
        };
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut endpoints = 0;
        for i in 0..self.netlist().cell_count() {
            let id = CellId::from_index(i);
            let (arrival, slew) = self.launch(id);
            let required = self.required(id);
            let mut slack = required - arrival;
            if let Some(rat) = self.capture_rat(id) {
                let capture_slack = rat - self.data_arrival(id);
                slack = slack.min(capture_slack);
                endpoints += 1;
                if capture_slack < wns {
                    wns = capture_slack;
                }
                if capture_slack < 0.0 {
                    tns += capture_slack;
                }
            }
            same("arrival", i, arrival, got.arrival[i])?;
            same("slew", i, slew, got.slew[i])?;
            same("required", i, required, got.required[i])?;
            same("slack", i, slack, got.slack[i])?;
        }
        if endpoints == 0 {
            wns = 0.0;
        }
        same("wns", 0, wns, got.wns)?;
        same("tns", 0, tns, got.tns)
    }
}

/// Panics unless `got` is the oracle's timing of `ctx`, bit for bit.
fn assert_matches_oracle(ctx: &TimingContext<'_>, got: &StaResult, what: &str) {
    if let Err(diff) = Oracle::new(ctx).check(got) {
        panic!("{what}: {diff}");
    }
}

/// A generated netlist of at most 200 cells, with seeded tiers, wire
/// models and clock latencies.
struct Design {
    netlist: Netlist,
    tiers: Vec<Tier>,
    parasitics: Parasitics,
    clock: ClockSpec,
}

impl Design {
    fn generate(family: usize, seed: u64) -> Design {
        // (The AES generator's floor is ~370 cells; the other three
        // families reach well under 200.)
        let (benchmark, scale) = [
            (Benchmark::Ldpc, 0.006),
            (Benchmark::Netcard, 0.003),
            (Benchmark::Cpu, 0.006),
        ][family % 3];
        let netlist = benchmark.generate(scale, seed);
        assert!(
            netlist.cell_count() <= 200,
            "{benchmark:?} at {scale}: {} cells",
            netlist.cell_count()
        );
        Design::seeded(netlist, seed)
    }

    fn seeded(netlist: Netlist, seed: u64) -> Design {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0_5ac1e);
        let n = netlist.cell_count();
        let tiers = (0..n)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    Tier::Top
                } else {
                    Tier::Bottom
                }
            })
            .collect();
        let models = (0..netlist.net_count())
            .map(|_| NetModel {
                wire_cap_ff: rng.gen_range(0.0..6.0),
                wire_delay_ns: rng.gen_range(0.0..0.01),
            })
            .collect();
        let parasitics = Parasitics::from_models(&netlist, models);
        let mut clock = ClockSpec::with_period(rng.gen_range(0.3..1.5));
        clock.latency_ns = (0..n).map(|_| rng.gen_range(0.0..0.05)).collect();
        clock.virtual_io_latency_ns = 0.02;
        Design {
            netlist,
            tiers,
            parasitics,
            clock,
        }
    }

    fn ctx<'a>(&'a self, stack: &'a TierStack) -> TimingContext<'a> {
        TimingContext {
            netlist: &self.netlist,
            stack,
            tiers: &self.tiers,
            parasitics: &self.parasitics,
            clock: self.clock.clone(),
        }
    }

    /// Applies one seeded edit of the timer's vocabulary in place and
    /// returns how the edit list reports it.
    fn edit(&mut self, rng: &mut StdRng) -> TimingEdit {
        let gates: Vec<CellId> = self
            .netlist
            .cells()
            .filter(|(_, c)| c.class.is_gate())
            .map(|(id, _)| id)
            .collect();
        let gate = gates[rng.gen_range(0..gates.len())];
        match rng.gen_range(0..5) {
            0 => {
                let drive = self.netlist.cell(gate).class.gate_drive().expect("gate");
                let to = if rng.gen_bool(0.5) {
                    drive.upsized().unwrap_or(Drive::X1)
                } else {
                    drive.downsized().unwrap_or(Drive::X16)
                };
                self.netlist.set_drive(gate, to);
                TimingEdit::ResizeCell(gate)
            }
            1 => {
                self.tiers[gate.index()] = self.tiers[gate.index()].other();
                TimingEdit::SwapTier(gate)
            }
            2 => {
                let net = NetId::from_index(rng.gen_range(0..self.netlist.net_count()));
                *self.parasitics.net_mut(net) = NetModel {
                    wire_cap_ff: rng.gen_range(0.0..9.0),
                    wire_delay_ns: rng.gen_range(0.0..0.02),
                };
                TimingEdit::NetModel(net)
            }
            3 => {
                self.clock.period_ns *= rng.gen_range(0.8..1.2);
                TimingEdit::Period
            }
            _ => {
                for _ in 0..3 {
                    let i = rng.gen_range(0..self.clock.latency_ns.len());
                    Arc::make_mut(&mut self.clock.latency_ns)[i] = rng.gen_range(0.0..0.08);
                }
                TimingEdit::ClockLatency
            }
        }
    }
}

/// The typical corner and a derated one.
fn stacks() -> [(Corner, TierStack); 2] {
    [Corner::Typical, Corner::Slow].map(|c| (c, TierStack::heterogeneous_at(c)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cold_analyze_matches_the_oracle(family in 0usize..3, seed in 0u64..10_000) {
        let design = Design::generate(family, seed);
        for (corner, stack) in &stacks() {
            let ctx = design.ctx(stack);
            assert_matches_oracle(&ctx, &analyze(&ctx), &format!("cold, {corner}"));
        }
    }

    #[test]
    fn timer_matches_the_oracle_after_every_edit(
        family in 0usize..3,
        seed in 0u64..10_000,
        steps in 4usize..16,
    ) {
        for (corner, stack) in &stacks() {
            let mut design = Design::generate(family, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut timer = Timer::new();
            let built = timer.update(&design.ctx(stack), &[]);
            assert_matches_oracle(&design.ctx(stack), &built, &format!("build, {corner}"));
            for step in 0..steps {
                // One to three edits per update, as the flow batches them.
                let edits: Vec<TimingEdit> =
                    (0..rng.gen_range(1..4)).map(|_| design.edit(&mut rng)).collect();
                let ctx = design.ctx(stack);
                let got = timer.update(&ctx, &edits);
                assert_matches_oracle(&ctx, &got, &format!("step {step} {edits:?}, {corner}"));
            }
            prop_assert_eq!(timer.stats().full_rebuilds, 1);
        }
    }
}

/// `en`/`d` inputs, a clock-gating AND driving the clock net, and on that
/// clock net — besides two flops — the input of an inverter that feeds
/// data: a combinational sink on a clock net. The forward pass does not
/// time that pin, so the gating cell's required time needs an arc delay
/// the forward pass never stored.
fn gated_clock_netlist() -> Netlist {
    let mut n = Netlist::new("gated_clock");
    let clk_in = n.add_input("clk");
    let en_in = n.add_input("en");
    let d_in = n.add_input("d");
    let raw_clk = n.add_net("raw_clk", clk_in, 0);
    let en = n.add_net("en", en_in, 0);
    let d = n.add_net("d", d_in, 0);
    let gate = n.add_gate("icg", CellKind::And2, Drive::X2, 0);
    n.connect(raw_clk, gate, 0);
    n.connect(en, gate, 1);
    let gclk = n.add_net("gclk", gate, 0);
    n.set_clock(gclk);
    let ff1 = n.add_gate("ff1", CellKind::Dff, Drive::X1, 0);
    let ff2 = n.add_gate("ff2", CellKind::Dff, Drive::X1, 0);
    let inv = n.add_gate("clk_as_data", CellKind::Inv, Drive::X1, 0);
    let mix = n.add_gate("mix", CellKind::Nand2, Drive::X1, 0);
    n.connect(d, ff1, 0);
    n.connect(gclk, ff1, 1);
    n.connect(gclk, ff2, 1);
    n.connect(gclk, inv, 0);
    let q1 = n.add_net("q1", ff1, 0);
    let inv_out = n.add_net("inv_out", inv, 0);
    n.connect(q1, mix, 0);
    n.connect(inv_out, mix, 1);
    let mixed = n.add_net("mixed", mix, 0);
    n.connect(mixed, ff2, 0);
    let q2 = n.add_net("q2", ff2, 0);
    let po = n.add_output("y");
    n.connect(q2, po, 0);
    n
}

#[test]
fn combinational_sink_on_a_clock_net_matches_the_oracle() {
    let mut design = Design::seeded(gated_clock_netlist(), 3);
    let named = |name: &str| {
        let n = &design.netlist;
        n.cell_ids()
            .find(|&id| n.cell_name(id) == name)
            .expect("built above")
    };
    let (icg, inv) = (named("icg"), named("clk_as_data"));
    for (corner, stack) in &stacks() {
        let ctx = design.ctx(stack);
        let cold = analyze(&ctx);
        assert_matches_oracle(&ctx, &cold, &format!("cold, {corner}"));
        assert!(
            cold.required[icg.index()].is_finite(),
            "the gating cell is constrained through the clock net"
        );
    }
    // Everything the gating cell's required time reads, moved by name —
    // the inverter's master, the gating cell's slew, the clock net's wire,
    // the flops' RATs — then a seeded script over the whole vocabulary.
    let gclk = design.netlist.input_net(inv, 0).expect("connected");
    let (_, stack) = &stacks()[0];
    let mut timer = Timer::new();
    let _ = timer.update(&design.ctx(stack), &[]);
    let mut rng = StdRng::seed_from_u64(9);
    for step in 0..40 {
        let edit = match step {
            0..=2 => {
                let cell = [inv, icg, inv][step];
                let drive = design.netlist.cell(cell).class.gate_drive().expect("gate");
                design
                    .netlist
                    .set_drive(cell, drive.upsized().expect("below X16"));
                TimingEdit::ResizeCell(cell)
            }
            3 => {
                design.parasitics.net_mut(gclk).wire_delay_ns += 0.004;
                TimingEdit::NetModel(gclk)
            }
            4 => {
                design.clock.period_ns *= 0.9;
                TimingEdit::Period
            }
            _ => design.edit(&mut rng),
        };
        let ctx = design.ctx(stack);
        let got = timer.update(&ctx, &[edit]);
        assert_matches_oracle(&ctx, &got, &format!("step {step} {edit:?}"));
    }
    assert_eq!(timer.stats().full_rebuilds, 1);
}

#[test]
fn a_corrupted_stored_arc_delay_fails_the_oracle() {
    let mut design = Design::generate(0, 42);
    let stack = TierStack::heterogeneous();
    let mut timer = Timer::new();
    let built = timer.update(&design.ctx(&stack), &[]);
    assert_matches_oracle(&design.ctx(&stack), &built, "before corruption");

    // A period edit re-derives every required time from the stored arc
    // delays and evaluates no gate forward, so the corruption survives
    // into the result — and only the oracle, which stores nothing, sees it.
    timer.perturb_arc_delay_for_test(7, 1000.0);
    design.clock.period_ns *= 1.1;
    let ctx = design.ctx(&stack);
    let got = timer.update(&ctx, &[TimingEdit::Period]);
    let verdict = Oracle::new(&ctx).check(&got);
    assert!(
        matches!(&verdict, Err(diff) if diff.starts_with("required") || diff.starts_with("slack")),
        "a wrong stored arc delay must surface as a required/slack mismatch, got {verdict:?}"
    );
    // The engine's own cold pass is not fooled by its own state.
    assert_matches_oracle(&ctx, &analyze(&ctx), "cold after corruption");
}
