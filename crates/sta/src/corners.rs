//! Multi-corner analysis: one persistent [`Timer`] per corner, and the
//! worst-corner rule sign-off follows.
//!
//! A corner is, to the timing engine, simply a different library
//! binding, and a [`Timer`]'s propagated arrays (arrivals, slews, stored
//! arc delays) belong to the one binding they were computed under. The
//! [`MultiCornerTimer`] therefore owns one `Timer` per corner, preserving
//! the incremental == cold bit-identity contract corner by corner. The
//! levelization is not per corner: it depends on connectivity alone, and
//! every corner's timer holds the netlist's one memo
//! ([`m3d_netlist::Netlist::levels`]), so a sign-off at any number of
//! corners levelizes its structure at most once.

use crate::context::TimingContext;
use crate::engine::StaResult;
use crate::incremental::{Timer, TimingEdit};
use m3d_tech::Corner;

/// Per-corner sign-off results, in the analyzed corner order.
#[derive(Debug, Clone)]
pub struct CornerResults {
    results: Vec<(Corner, StaResult)>,
}

impl CornerResults {
    /// Wraps per-corner results (analysis order is preserved).
    ///
    /// # Panics
    ///
    /// Panics when `results` is empty: sign-off with zero corners is
    /// a caller bug.
    #[must_use]
    pub fn new(results: Vec<(Corner, StaResult)>) -> Self {
        assert!(!results.is_empty(), "sign-off needs at least one corner");
        CornerResults { results }
    }

    /// Number of analyzed corners.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` never — construction rejects empty sets — but kept for
    /// the idiomatic pairing with [`CornerResults::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Iterates over `(corner, result)` in analysis order.
    pub fn iter(&self) -> impl Iterator<Item = &(Corner, StaResult)> {
        self.results.iter()
    }

    /// The result analyzed at `corner`, if that corner was in the set.
    #[must_use]
    pub fn get(&self, corner: Corner) -> Option<&StaResult> {
        self.results
            .iter()
            .find(|(c, _)| *c == corner)
            .map(|(_, r)| r)
    }

    /// The worst corner: minimum WNS, ties broken toward the earlier
    /// corner in analysis order (deterministic at any thread count).
    #[must_use]
    pub fn worst(&self) -> (Corner, &StaResult) {
        let mut best = &self.results[0];
        for entry in &self.results[1..] {
            if entry.1.wns < best.1.wns {
                best = entry;
            }
        }
        (best.0, &best.1)
    }
}

/// One persistent incremental [`Timer`] per corner.
pub struct MultiCornerTimer {
    timers: Vec<(Corner, Timer)>,
}

impl MultiCornerTimer {
    /// A fresh timer per corner, in the given (sign-off) order.
    #[must_use]
    pub fn new(corners: &[Corner]) -> Self {
        MultiCornerTimer {
            timers: corners.iter().map(|&c| (c, Timer::new())).collect(),
        }
    }

    /// The persistent timer bound to `corner`.
    #[must_use]
    pub fn timer(&self, corner: Corner) -> Option<&Timer> {
        self.timers
            .iter()
            .find(|(c, _)| *c == corner)
            .map(|(_, t)| t)
    }

    /// Runs one incremental update per corner against that corner's
    /// context and returns the per-corner results. Every corner gets
    /// the same edit list (an edit is corner-independent: it names
    /// *what* changed, not the delays).
    ///
    /// # Panics
    ///
    /// Panics when `ctxs` lacks a context for one of the corners.
    pub fn update_journaled(
        &mut self,
        ctxs: &[(Corner, TimingContext<'_>)],
        edits: &[TimingEdit],
    ) -> CornerResults {
        let mut out = Vec::with_capacity(self.timers.len());
        for (corner, timer) in &mut self.timers {
            let ctx = ctxs
                .iter()
                .find(|(c, _)| c == corner)
                .map(|(_, ctx)| ctx)
                .unwrap_or_else(|| panic!("no timing context supplied for the {corner} corner"));
            out.push((*corner, timer.update_journaled(ctx, edits)));
        }
        CornerResults::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ClockSpec, Parasitics};
    use crate::engine::analyze;
    use m3d_tech::{Tier, TierStack};
    use std::sync::Arc;

    fn contexts<'a>(
        netlist: &'a m3d_netlist::Netlist,
        stacks: &'a [(Corner, TierStack)],
        tiers: &'a [Tier],
        parasitics: &'a Parasitics,
        period: f64,
    ) -> Vec<(Corner, TimingContext<'a>)> {
        stacks
            .iter()
            .map(|(c, stack)| {
                (
                    *c,
                    TimingContext {
                        netlist,
                        stack,
                        tiers,
                        parasitics,
                        clock: ClockSpec::with_period(period),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn per_corner_incremental_matches_cold_and_orders_wns() {
        let mut netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 7);
        let stacks: Vec<(Corner, TierStack)> = Corner::ALL
            .iter()
            .map(|&c| (c, TierStack::heterogeneous_at(c)))
            .collect();
        let tiers = vec![Tier::Bottom; netlist.cell_count()];
        let parasitics = Parasitics::zero_wire(&netlist);
        let mut multi = MultiCornerTimer::new(&Corner::ALL);

        let ctxs = contexts(&netlist, &stacks, &tiers, &parasitics, 1.0);
        let first = multi.update_journaled(&ctxs, &[]);
        let memo = netlist.levels();
        for corner in Corner::ALL {
            let held = multi.timer(corner).and_then(Timer::levels).unwrap();
            assert!(Arc::ptr_eq(held, &memo), "{corner}: one levelization");
        }
        for (corner, incr) in first.iter() {
            let cold = analyze(first_ctx(&ctxs, *corner));
            assert_eq!(incr.wns.to_bits(), cold.wns.to_bits(), "{corner}");
            assert_eq!(incr.tns.to_bits(), cold.tns.to_bits(), "{corner}");
        }
        // Derated corners order the sign-off: slow is the binding one.
        let slow = first.get(Corner::Slow).unwrap().wns;
        let typ = first.get(Corner::Typical).unwrap().wns;
        let fast = first.get(Corner::Fast).unwrap().wns;
        assert!(slow < typ && typ < fast, "{slow} {typ} {fast}");
        assert_eq!(first.worst().0, Corner::Slow);

        // Listed edits stay bit-identical to cold per corner, with
        // each corner's timer updating incrementally (one build each).
        let gates: Vec<_> = netlist
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .map(|(id, _)| id)
            .collect();
        for step in 0..4 {
            let g = gates[step * 37 % gates.len()];
            let d = netlist.cell(g).class.gate_drive().expect("gate");
            netlist.set_drive(g, d.upsized().unwrap_or(m3d_tech::Drive::X1));
            let edits = [TimingEdit::ResizeCell(g)];
            let ctxs = contexts(&netlist, &stacks, &tiers, &parasitics, 1.0);
            let results = multi.update_journaled(&ctxs, &edits);
            for (corner, incr) in results.iter() {
                let cold = analyze(first_ctx(&ctxs, *corner));
                assert_eq!(incr.wns.to_bits(), cold.wns.to_bits(), "{corner}");
                assert_eq!(
                    incr.slack.len(),
                    cold.slack.len(),
                    "{corner}: slack vectors must align"
                );
                for (a, b) in incr.slack.iter().zip(cold.slack.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{corner}");
                }
            }
        }
        for corner in Corner::ALL {
            let stats = multi.timer(corner).unwrap().stats();
            assert_eq!(stats.full_rebuilds, 1, "{corner}: edits avoid rebuilds");
        }
    }

    fn first_ctx<'a, 'b>(
        ctxs: &'b [(Corner, TimingContext<'a>)],
        corner: Corner,
    ) -> &'b TimingContext<'a> {
        ctxs.iter()
            .find(|(c, _)| *c == corner)
            .map(|(_, ctx)| ctx)
            .expect("context")
    }

    #[test]
    fn worst_breaks_ties_toward_analysis_order() {
        let netlist = m3d_netgen::Benchmark::Aes.generate(0.02, 3);
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
        let r = analyze(&ctx);
        let results = CornerResults::new(vec![
            (Corner::Slow, r.clone()),
            (Corner::Typical, r.clone()),
        ]);
        // Identical WNS at two corners: the earlier one wins.
        assert_eq!(results.worst().0, Corner::Slow);
        assert!(!CornerResults::new(vec![(Corner::Typical, r)]).is_empty());
    }
}
