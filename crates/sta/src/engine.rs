//! The per-gate timing kernels — forward, backward, launch and endpoint
//! evaluations — that [`crate::Timer`]'s one propagation loop runs, the
//! [`StaResult`] it publishes, and [`analyze`], the cold analysis: a
//! fresh timer's full-seed pass. Nothing here owns a levelization: the
//! kernels read the netlist's memo ([`Netlist::levels`]), built on the
//! first analysis of a structure and shared by every later one — every
//! timer, corner and power pass on that structure.

use crate::context::TimingContext;
use crate::incremental::Timer;
use m3d_netlist::{CellClass, CellId, Levels, NetId, Netlist, ENDPOINT_SINK, UNTIMED_COMB_SINK};
use std::sync::Arc;

/// Result of one full timing analysis: the propagated state, and the two
/// scalars folded over its endpoints.
///
/// All vectors are indexed by cell id. For combinational gates, `arrival`
/// / `required` refer to the cell's output pin; for endpoints (registers,
/// macros, primary outputs) they refer to the data input pin. A cell's
/// slack — the worst slack of any path through it, the paper's cell-based
/// criticality metric with complete coverage — is derived on demand by
/// [`StaResult::cell_criticality`], and the endpoint ranking by
/// [`crate::worst_paths`].
#[derive(Debug, Clone)]
pub struct StaResult {
    /// Worst arrival time at the reference pin, ns.
    pub arrival: Vec<f64>,
    /// Propagated slew at the reference pin, ns.
    pub slew: Vec<f64>,
    /// Required arrival time, ns (`+inf` for cells with no timed fanout).
    pub required: Vec<f64>,
    /// Worst negative slack over all endpoints, ns (positive when all
    /// endpoints meet timing).
    pub wns: f64,
    /// Total negative slack over all endpoints, ns (zero or negative).
    pub tns: f64,
    /// Clock period the analysis ran at, ns.
    pub period_ns: f64,
    /// For each cell, which input pin produced the worst arrival (used for
    /// path backtracking). `u8::MAX` when not applicable.
    pub worst_input: Vec<u8>,
    /// Per-cell endpoint slack (`NaN` for cells that are not endpoints):
    /// `rat − data-pin arrival`.
    pub endpoint_slack: Vec<f64>,
}

impl StaResult {
    /// The paper's *effective delay*: `clock period − worst slack`.
    #[must_use]
    pub fn effective_delay_ns(&self) -> f64 {
        self.period_ns - self.wns
    }

    /// Cell-based criticality: worst slack among all paths through `cell`,
    /// `required − arrival`, capped by the endpoint slack on an endpoint.
    #[must_use]
    pub fn cell_criticality(&self, cell: CellId) -> f64 {
        let i = cell.index();
        let launch = self.required[i] - self.arrival[i];
        if self.endpoint_slack[i].is_nan() {
            launch
        } else {
            launch.min(self.endpoint_slack[i])
        }
    }

    /// Returns `true` when WNS is within `tolerance_fraction` of the
    /// period — the paper's timing-met condition (WNS ≳ −7 % of period).
    #[must_use]
    pub fn timing_met(&self, tolerance_fraction: f64) -> bool {
        self.wns >= -tolerance_fraction * self.period_ns
    }
}

/// Capacitive load on a net: wire capacitance plus every sink pin.
pub(crate) fn net_load_ff(ctx: &TimingContext<'_>, net: NetId) -> f64 {
    let mut load = ctx.parasitics.net(net).wire_cap_ff;
    for sink in &ctx.netlist.net(net).sinks {
        let cell = ctx.netlist.cell(sink.cell);
        load += match &cell.class {
            CellClass::Gate { kind, drive } => ctx
                .library(sink.cell.index())
                .cell(*kind, *drive)
                .map_or(1.0, |c| c.input_cap_ff),
            CellClass::Macro(spec) => spec.input_cap_ff,
            CellClass::PrimaryOutput => ctx.clock.output_load_ff,
            CellClass::PrimaryInput => 0.0,
        };
    }
    load
}

/// Load on a cell's (first) output net, fF; zero when it drives nothing.
fn output_load(netlist: &Netlist, cell: CellId, net_load: &[f64]) -> f64 {
    netlist
        .output_net(cell, 0)
        .map_or(0.0, |net| net_load[net.index()])
}

/// The finalized arrays one forward (arrival/slew) evaluation reads.
pub(crate) struct Forward<'a, 'c> {
    pub ctx: &'a TimingContext<'c>,
    pub levels: &'a Levels,
    pub net_load: &'a [f64],
    pub arrival: &'a [f64],
    pub slew: &'a [f64],
}

impl Forward<'_, '_> {
    /// Computes a gate's worst arrival, worst input pin and output slew
    /// from the (already final) arrivals/slews of its drivers, and stores
    /// the delay of each fanin arc in `arc_delay` — the gate's own slice
    /// of the [`Levels`]-ordered arc-delay array, which the backward pass
    /// reads back instead of evaluating the arc a second time. The gate is
    /// named by its position `k` in the level order, so its fanin arcs are
    /// one contiguous slice of the [`Levels`] arc arrays — no per-cell
    /// pin-list walk or driver lookup. Pure with respect to the gate: two
    /// calls with the same inputs return (and store) identical values,
    /// which is what makes the level-parallel forward pass deterministic
    /// (and lets the incremental engine re-evaluate any dirty gate in
    /// isolation). Arcs are stored in ascending pin order, so the `>`
    /// tie-break selects exactly the pin the legacy input-slot scan
    /// selected.
    fn gate(&self, k: usize, arc_delay: &mut [f64]) -> (f64, u8, f64) {
        let ctx = self.ctx;
        let id = self.levels.cell_at(k);
        let i = id.index();
        let cell = ctx.netlist.cell(id);
        let master = match &cell.class {
            CellClass::Gate { kind, drive } => ctx.library(i).cell(*kind, *drive),
            _ => unreachable!("combinational order yields gates"),
        };
        let load = output_load(ctx.netlist, id, self.net_load);

        let mut best_at = 0.0_f64;
        let mut best_pin = u8::MAX;
        let mut best_slew = ctx.clock.input_slew_ns;
        let inputs = ctx.netlist.cell_inputs(id);
        let (pins, drivers) = self.levels.arcs(k);
        for a in 0..pins.len() {
            let j = drivers[a] as usize;
            let net = NetId::from_index(inputs[usize::from(pins[a])] as usize);
            let wire = ctx.parasitics.net(net).wire_delay_ns;
            let at_in = self.arrival[j] + wire;
            let slew_in = self.slew[j];
            let (delay, out_slew) = match master {
                Some(m) => (m.delay(slew_in, load), m.output_slew(slew_in, load)),
                None => (0.0, slew_in),
            };
            arc_delay[a] = delay;
            let at_out = at_in + delay;
            if at_out > best_at || best_pin == u8::MAX {
                best_at = at_out;
                best_pin = pins[a];
                best_slew = out_slew;
            }
        }
        (best_at, best_pin, best_slew)
    }

    /// [`Forward::gate`] over the order positions `ks` — gates of one
    /// level, ascending — returning each gate's `(arrival, worst pin,
    /// slew)` and leaving its arc delays in `arc_delay` (the whole array).
    /// With `threads`, chunks of `ks` evaluate concurrently into
    /// chunk-local delay buffers that are copied into place afterwards;
    /// every value is a pure function of the gate, so the result equals
    /// the sequential loop's.
    pub(crate) fn gates(
        &self,
        ks: &[usize],
        arc_delay: &mut [f64],
        threads: Option<usize>,
    ) -> Vec<(f64, u8, f64)> {
        let levels = self.levels;
        let Some(threads) = threads else {
            return ks
                .iter()
                .map(|&k| self.gate(k, &mut arc_delay[levels.arc_range(k)]))
                .collect();
        };
        let chunks = m3d_par::par_ranges(threads, ks.len(), |range| {
            let mut delays: Vec<f64> = Vec::new();
            let points: Vec<(f64, u8, f64)> = ks[range]
                .iter()
                .map(|&k| {
                    let lo = delays.len();
                    delays.resize(lo + levels.arc_range(k).len(), 0.0);
                    self.gate(k, &mut delays[lo..])
                })
                .collect();
            (points, delays)
        });
        let mut out = Vec::with_capacity(ks.len());
        let mut next_k = ks.iter();
        for (points, delays) in chunks {
            let mut lo = 0;
            for &k in next_k.by_ref().take(points.len()) {
                let own = levels.arc_range(k);
                let hi = lo + own.len();
                arc_delay[own].copy_from_slice(&delays[lo..hi]);
                lo = hi;
            }
            out.extend(points);
        }
        out
    }
}

/// The finalized arrays one backward (required-time) evaluation reads.
/// Arc delays are the forward pass's stored state, so nothing here looks
/// up a library table — except for a combinational sink on a clock net,
/// which has no forward arc and is evaluated directly.
pub(crate) struct Backward<'a, 'c> {
    pub ctx: &'a TimingContext<'c>,
    pub levels: &'a Levels,
    pub net_load: &'a [f64],
    pub arc_delay: &'a [f64],
    pub slew: &'a [f64],
    pub required: &'a [f64],
    pub endpoint_rat: &'a [f64],
}

impl Backward<'_, '_> {
    /// Required time at the driver of `out_net`, whose output slew is
    /// `slew_i`: min over the net's sinks of the sink's own required time
    /// (minus the arc through it, for combinational sinks) minus the wire.
    fn net(&self, slew_i: f64, out_net: NetId) -> f64 {
        let wire = self.ctx.parasitics.net(out_net).wire_delay_ns;
        let (cells, slots) = self.levels.sinks(out_net);
        let mut rat = f64::INFINITY;
        for (&j, &slot) in cells.iter().zip(slots) {
            let j = j as usize;
            let candidate = match slot {
                // Endpoint sinks (registers on D, macros, POs) carry their
                // own RAT.
                ENDPOINT_SINK => self.endpoint_rat[j],
                UNTIMED_COMB_SINK => self.required[j] - self.untimed_arc(slew_i, j),
                slot => self.required[j] - self.arc_delay[slot as usize],
            };
            rat = rat.min(candidate - wire);
        }
        rat
    }

    /// Delay of the arc into combinational gate `j` from a driver with
    /// slew `slew_i`, for the one case the forward pass never times: the
    /// pin sits on a clock net.
    fn untimed_arc(&self, slew_i: f64, j: usize) -> f64 {
        let id = CellId::from_index(j);
        let CellClass::Gate { kind, drive } = &self.ctx.netlist.cell(id).class else {
            unreachable!("only combinational gates are untimed comb sinks");
        };
        let load = output_load(self.ctx.netlist, id, self.net_load);
        self.ctx
            .library(j)
            .cell(*kind, *drive)
            .map_or(0.0, |m| m.delay(slew_i, load))
    }

    /// Required time on a combinational gate's output, from its (already
    /// final) sinks. `None` when the gate drives nothing.
    pub(crate) fn gate(&self, id: CellId) -> Option<f64> {
        let out_net = self.ctx.netlist.output_net(id, 0)?;
        Some(self.net(self.slew[id.index()], out_net))
    }

    /// Required time on a launch cell's output (register Q, macro outputs,
    /// PIs): min over its non-clock fanout. `None` for non-launch cells.
    pub(crate) fn launch(&self, i: usize) -> Option<f64> {
        let cell = self.ctx.netlist.cell(CellId::from_index(i));
        let is_launch = matches!(&cell.class, CellClass::PrimaryInput)
            || cell.is_sequential()
            || cell.class.is_macro();
        if !is_launch {
            return None;
        }
        let mut rat = f64::INFINITY;
        for out_net in self.ctx.netlist.output_nets(CellId::from_index(i)) {
            if !self.ctx.netlist.net(out_net).is_clock {
                rat = rat.min(self.net(self.slew[i], out_net));
            }
        }
        Some(rat)
    }
}

/// Launch-side `(arrival, slew)` of a launch cell (primary input,
/// register Q pin, macro output), or `None` for everything else.
pub(crate) fn launch_point(
    ctx: &TimingContext<'_>,
    net_load: &[f64],
    id: CellId,
) -> Option<(f64, f64)> {
    let i = id.index();
    let cell = ctx.netlist.cell(id);
    match &cell.class {
        CellClass::PrimaryInput => Some((ctx.clock.virtual_io_latency_ns, ctx.clock.input_slew_ns)),
        CellClass::Gate { kind, drive } if kind.is_sequential() => {
            let (clk_q, out_slew) = match ctx.library(i).cell(*kind, *drive) {
                Some(m) => {
                    let load = output_load(ctx.netlist, id, net_load);
                    (
                        m.clk_to_q_ns + m.delay(0.02, load) * 0.3,
                        m.output_slew(0.02, load),
                    )
                }
                None => (0.1, 0.05),
            };
            Some((ctx.clock.latency(i) + clk_q, out_slew))
        }
        CellClass::Macro(spec) => Some((ctx.clock.latency(i) + spec.access_delay_ns, 0.08)),
        _ => None,
    }
}

/// Arrival at a data input pin of an endpoint.
pub(crate) fn input_arrival(
    ctx: &TimingContext<'_>,
    arrival: &[f64],
    cell: CellId,
    pin: usize,
) -> f64 {
    let Some(net) = ctx.netlist.input_net(cell, pin) else {
        return 0.0;
    };
    if ctx.netlist.net(net).is_clock {
        return 0.0;
    }
    let Some(drv) = ctx.netlist.net(net).driver else {
        return 0.0;
    };
    arrival[drv.cell.index()] + ctx.parasitics.net(net).wire_delay_ns
}

/// Endpoint view of cell `i`: `(rat, worst data-pin arrival, is_po)`, or
/// `None` when the cell is not a timing endpoint.
pub(crate) fn endpoint_point(
    ctx: &TimingContext<'_>,
    arrival: &[f64],
    i: usize,
) -> Option<(f64, f64, bool)> {
    let id = CellId::from_index(i);
    let cell = ctx.netlist.cell(id);
    let (setup, data_pins) = match &cell.class {
        CellClass::Gate { kind, drive } if kind.is_sequential() => {
            let setup = ctx
                .library(i)
                .cell(*kind, *drive)
                .map_or(0.03, |m| m.setup_ns);
            (setup, cell.input_count().saturating_sub(1))
        }
        CellClass::Macro(spec) => (spec.setup_ns, cell.input_count().saturating_sub(1)),
        CellClass::PrimaryOutput => (0.0, cell.input_count()),
        _ => return None,
    };
    let is_po = matches!(cell.class, CellClass::PrimaryOutput);
    let io_latency = if is_po {
        ctx.clock.virtual_io_latency_ns
    } else {
        ctx.clock.latency(i)
    };
    let rat = ctx.clock.period_ns + io_latency - setup;
    let mut worst_at = 0.0_f64;
    for pin in 0..data_pins {
        worst_at = worst_at.max(input_arrival(ctx, arrival, id, pin));
    }
    Some((rat, worst_at, is_po))
}

/// Runs a full (cold) timing analysis: a fresh [`Timer`]'s first update —
/// the incremental engine's propagation with every cell and net seeded —
/// over the netlist's levelization ([`Netlist::levels`], built on the
/// structure's first analysis and shared by every later one). The timer is
/// dropped before the result is unwrapped, so nothing is copied and none
/// of its snapshot outlives the call.
#[must_use]
pub fn analyze(ctx: &TimingContext<'_>) -> StaResult {
    let result = Timer::new().update(ctx, &[]);
    Arc::into_inner(result).expect("the dropped timer held the only other handle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ClockSpec, Parasitics};
    use m3d_netlist::Netlist;
    use m3d_tech::{CellKind, Drive, Library, Tier, TierStack};

    /// clk -> [FF] -> inv chain (depth d) -> [FF]
    fn pipeline(depth: usize) -> Netlist {
        let mut n = Netlist::new("pipe");
        let clk_in = n.add_input("clk");
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let ff1 = n.add_gate("ff1", CellKind::Dff, Drive::X1, 0);
        n.connect(clk, ff1, 1);
        let mut prev = n.add_net("q1", ff1, 0);
        for i in 0..depth {
            let g = n.add_gate(format!("g{i}"), CellKind::Inv, Drive::X1, 0);
            n.connect(prev, g, 0);
            prev = n.add_net(format!("n{i}"), g, 0);
        }
        let ff2 = n.add_gate("ff2", CellKind::Dff, Drive::X1, 0);
        n.connect(prev, ff2, 0);
        n.connect(clk, ff2, 1);
        let q2 = n.add_net("q2", ff2, 0);
        let po = n.add_output("y");
        n.connect(q2, po, 0);
        // ff1 data input: tie to a primary input.
        let d_in = n.add_input("d");
        let nd = n.add_net("nd", d_in, 0);
        n.connect(nd, ff1, 0);
        n
    }

    fn run(netlist: &Netlist, period: f64) -> StaResult {
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(netlist);
        let ctx = TimingContext {
            netlist,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(period),
        };
        analyze(&ctx)
    }

    #[test]
    fn deep_pipeline_fails_short_period() {
        let n = pipeline(40);
        let fast = run(&n, 10.0);
        assert!(fast.wns > 0.0, "40 inverters fit easily in 10 ns");
        let slow = run(&n, 0.05);
        assert!(slow.wns < 0.0, "40 inverters cannot fit in 50 ps");
        assert!(slow.tns < 0.0);
    }

    #[test]
    fn wns_scales_with_depth() {
        let shallow = run(&pipeline(5), 0.3);
        let deep = run(&pipeline(30), 0.3);
        assert!(deep.wns < shallow.wns);
    }

    #[test]
    fn slack_decreases_along_critical_chain() {
        // In a pure chain, every inverter lies on the single path, so all
        // cells share (approximately) the same worst slack.
        let n = pipeline(10);
        let r = run(&n, 0.2);
        let slacks: Vec<f64> = n
            .cells()
            .filter(|(_, c)| c.class.gate_kind() == Some(CellKind::Inv))
            .map(|(id, _)| r.cell_criticality(id))
            .collect();
        let min = slacks.iter().copied().fold(f64::INFINITY, f64::min);
        let max = slacks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (max - min).abs() < 0.02,
            "chain cells should share slack: {min} vs {max}"
        );
        // And it should equal (approximately) the endpoint's WNS.
        assert!((min - r.wns).abs() < 0.05);
    }

    #[test]
    fn slow_library_has_worse_slack() {
        let n = pipeline(20);
        let fast = run(&n, 0.4);

        let stack = TierStack::two_d(Library::nine_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let parasitics = Parasitics::zero_wire(&n);
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(0.4),
        };
        let slow = analyze(&ctx);
        assert!(slow.wns < fast.wns);
    }

    #[test]
    fn hetero_assignment_interpolates() {
        let n = pipeline(20);
        let stack = TierStack::heterogeneous();
        let parasitics = Parasitics::zero_wire(&n);
        let all_fast = vec![Tier::Bottom; n.cell_count()];
        let all_slow = vec![Tier::Top; n.cell_count()];
        let mut mixed = vec![Tier::Bottom; n.cell_count()];
        for (i, t) in mixed.iter_mut().enumerate() {
            if i % 2 == 0 {
                *t = Tier::Top;
            }
        }
        let wns_of = |tiers: &Vec<Tier>| {
            analyze(&TimingContext {
                netlist: &n,
                stack: &stack,
                tiers,
                parasitics: &parasitics,
                clock: ClockSpec::with_period(0.4),
            })
            .wns
        };
        let f = wns_of(&all_fast);
        let s = wns_of(&all_slow);
        let m = wns_of(&mixed);
        assert!(f > m && m > s, "fast {f} > mixed {m} > slow {s}");
    }

    #[test]
    fn wire_delay_reduces_slack() {
        let n = pipeline(10);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let mut parasitics = Parasitics::zero_wire(&n);
        for id in n.net_ids() {
            parasitics.net_mut(id).wire_delay_ns = 0.02;
            parasitics.net_mut(id).wire_cap_ff = 5.0;
        }
        let ideal = run(&n, 0.4);
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(0.4),
        };
        let wired = analyze(&ctx);
        assert!(wired.wns < ideal.wns);
    }

    #[test]
    fn effective_delay_matches_definition() {
        let n = pipeline(10);
        let r = run(&n, 0.5);
        assert!((r.effective_delay_ns() - (0.5 - r.wns)).abs() < 1e-12);
    }

    #[test]
    fn clock_latency_shifts_capture() {
        let n = pipeline(10);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let parasitics = Parasitics::zero_wire(&n);
        // Give the capture FF extra clock latency -> more time -> better WNS.
        let mut clock = ClockSpec::with_period(0.2);
        let mut latency = vec![0.0; n.cell_count()];
        let ff2 = n.cell_ids().find(|&id| n.cell_name(id) == "ff2").unwrap();
        latency[ff2.index()] = 0.1;
        clock.latency_ns = latency.into();
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock,
        };
        let skewed = analyze(&ctx);
        let base = run(&n, 0.2);
        // Extra capture latency relaxes the register-to-register path (the
        // downstream PO path tightens instead, so compare the endpoint).
        assert!(skewed.endpoint_slack[ff2.index()] > base.endpoint_slack[ff2.index()]);
    }

    #[test]
    fn generated_benchmark_times_cleanly() {
        let n = m3d_netgen::Benchmark::Cpu.generate(0.02, 3);
        let r = run(&n, 2.0);
        assert!(r.endpoint_slack.iter().any(|s| !s.is_nan()));
        assert!(r.wns.is_finite());
    }

    #[test]
    fn timing_met_tolerance() {
        let n = pipeline(10);
        let r = run(&n, 10.0);
        assert!(r.timing_met(0.0));
        let tight = run(&n, 0.01);
        assert!(!tight.timing_met(0.07));
    }

    #[test]
    fn levelization_round_trips_against_the_netlist() {
        // The CSR `Levels` must hold every combinational gate exactly
        // once, strictly above all of its combinational fanins, and each
        // gate's packed arc slice must equal a direct scan of that gate's
        // input pins (non-clock, driven, ascending pin order).
        let n = m3d_netgen::Benchmark::Cpu.generate(0.03, 11);
        let levels = n.levels();

        let comb: Vec<CellId> = n
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(levels.comb_count(), comb.len());

        let mut level_of = vec![usize::MAX; n.cell_count()];
        for l in 0..levels.level_count() {
            assert!(!levels.level(l).is_empty(), "levels are dense");
            for &id in levels.level(l) {
                assert_eq!(level_of[id.index()], usize::MAX, "gate listed twice");
                level_of[id.index()] = l;
            }
        }
        for id in &comb {
            assert_ne!(level_of[id.index()], usize::MAX, "gate missing from levels");
        }

        for k in 0..levels.comb_count() {
            let id = levels.cell_at(k);
            let (pins, drivers) = levels.arcs(k);
            let mut want = Vec::new();
            for pin in 0..n.cell(id).input_count() {
                let Some(net) = n.input_net(id, pin) else {
                    continue;
                };
                if n.net(net).is_clock {
                    continue;
                }
                let Some(drv) = n.net(net).driver else {
                    continue;
                };
                want.push((pin as u8, drv.cell.index() as u32));
            }
            let got: Vec<(u8, u32)> = pins.iter().copied().zip(drivers.iter().copied()).collect();
            assert_eq!(got, want, "arc slice of {}", n.cell_name(id));
            for &d in drivers {
                let dl = level_of[d as usize];
                if dl != usize::MAX {
                    assert!(dl < level_of[id.index()], "fanin must sit strictly below");
                }
            }
        }
    }
}
