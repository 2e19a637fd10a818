//! The technology-axis sweep: stacking style × sign-off corner ×
//! frequency, rolled up into a power–performance–cost Pareto frontier.
//!
//! [`FlowSession::pareto`] implements one [`Config`] at every point of a
//! frequency grid under every technology scenario — each stacking style
//! the configuration supports, signed off at each process corner — and
//! marks the points no other point dominates on (total power, effective
//! delay, die cost). It owns only the projection and the fold: the grid
//! is a [`SweepSpec`] and the fan-out is the sweep executor's
//! ([`crate::sweep`]), which runs on the session's one pseudo-3-D
//! checkpoint and prefix memo, walks each `(stacking, frequency)` once
//! for all its corners, and returns points in input order, so the
//! frontier is bit-identical at any thread count.

use crate::config::Config;
use crate::error::FlowError;
use crate::sweep::{run_grid, SweepSpec};
use crate::FlowSession;
use m3d_cost::CostModel;
use m3d_tech::{Corner, StackingStyle};

/// One swept design point: a technology scenario implemented at one
/// target frequency, with the metrics the frontier is computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Stacking style of the scenario.
    pub stacking: StackingStyle,
    /// The sign-off corner of the scenario.
    pub corner: Corner,
    /// Target clock frequency, GHz.
    pub frequency_ghz: f64,
    /// Sign-off total power, mW (typical-corner power).
    pub total_power_mw: f64,
    /// Effective delay = period − WNS at the sign-off corner, ns.
    pub effective_delay_ns: f64,
    /// Die cost under the scenario's stacking style, `10⁻⁶ C'`.
    pub die_cost_uc: f64,
    /// Power-delay product, pJ.
    pub pdp_pj: f64,
    /// Performance per cost.
    pub ppc: f64,
    /// Worst negative slack at the sign-off corner, ns.
    pub wns_ns: f64,
    /// Whether the point met timing within the sweep's WNS tolerance.
    pub timing_met: bool,
    /// Whether the point is on the Pareto frontier: no swept point
    /// weakly dominates it on (power, delay, cost) with at least one
    /// strict improvement.
    pub on_frontier: bool,
}

/// The full sweep: every `(scenario, frequency)` point in deterministic
/// order — scenarios in `StackingStyle::ALL` × `Corner::ALL` order, the
/// frequency grid ascending within each scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSummary {
    /// The configuration that was swept.
    pub config: Config,
    /// All swept points, frontier membership marked.
    pub points: Vec<ParetoPoint>,
}

impl ParetoSummary {
    /// The non-dominated points, in sweep order.
    pub fn frontier(&self) -> impl Iterator<Item = &ParetoPoint> {
        self.points.iter().filter(|p| p.on_frontier)
    }
}

/// `a` dominates `b` when it is no worse on every objective and
/// strictly better on at least one.
fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    let no_worse = a.total_power_mw <= b.total_power_mw
        && a.effective_delay_ns <= b.effective_delay_ns
        && a.die_cost_uc <= b.die_cost_uc;
    let strictly_better = a.total_power_mw < b.total_power_mw
        || a.effective_delay_ns < b.effective_delay_ns
        || a.die_cost_uc < b.die_cost_uc;
    no_worse && strictly_better
}

/// Marks `on_frontier` over the whole point set (O(n²), n ≤ a few
/// hundred). The wire layer re-derives nothing: the flags travel with
/// the points.
fn mark_frontier(points: &mut [ParetoPoint]) {
    for i in 0..points.len() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && dominates(other, &points[i]));
        points[i].on_frontier = !dominated;
    }
}

/// The grid a Pareto request sweeps: one configuration under every
/// stacking style it supports (monolithic only for 2-D — a 2-D die has
/// no inter-tier interface, so the styles would produce identical
/// points) signed off at every corner.
pub(crate) fn pareto_spec(
    config: Config,
    freq_min_ghz: f64,
    freq_max_ghz: f64,
    freq_steps: usize,
) -> SweepSpec {
    let stacking = if config.is_3d() {
        StackingStyle::ALL.to_vec()
    } else {
        vec![StackingStyle::Monolithic]
    };
    SweepSpec {
        configs: vec![config],
        stacking,
        corners: Corner::ALL.to_vec(),
        freq_min_ghz,
        freq_max_ghz,
        freq_steps,
    }
}

impl FlowSession {
    /// Sweeps `config` over stacking style × sign-off corner ×
    /// frequency and returns the power–performance–cost frontier: the
    /// `pareto_spec` grid on the sweep executor, the marked point set
    /// in `StackingStyle::ALL` × `Corner::ALL` order, frequencies
    /// ascending within each scenario. Every walk is the session's, so
    /// the pseudo-3-D checkpoint is computed here if this is the
    /// session's first 3-D command (it reads nothing of the scenario) and
    /// the grid's prefixes stay in the session's memo.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidSweep`] for a malformed grid and
    /// propagates the first failure of any scenario run.
    pub fn pareto(
        &self,
        config: Config,
        freq_min_ghz: f64,
        freq_max_ghz: f64,
        freq_steps: usize,
        cost: &CostModel,
    ) -> Result<ParetoSummary, FlowError> {
        let spec = pareto_spec(config, freq_min_ghz, freq_max_ghz, freq_steps);
        let tolerance = self.options().wns_tolerance;
        let mut points = run_grid(self, &spec, "pareto", |point, imp| {
            let ppac = imp.ppac(cost);
            ParetoPoint {
                stacking: point.stacking,
                corner: point.corner,
                frequency_ghz: imp.frequency_ghz,
                total_power_mw: ppac.total_power_mw,
                effective_delay_ns: ppac.effective_delay_ns,
                die_cost_uc: ppac.die_cost_uc,
                pdp_pj: ppac.pdp_pj,
                ppc: ppac.ppc,
                wns_ns: ppac.wns_ns,
                timing_met: imp.sta.timing_met(tolerance),
                on_frontier: false,
            }
        })?;
        mark_frontier(&mut points);
        self.options().obs.counter_add(
            "pareto/frontier",
            points.iter().filter(|p| p.on_frontier).count() as u64,
        );
        Ok(ParetoSummary { config, points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(power: f64, delay: f64, cost: f64) -> ParetoPoint {
        ParetoPoint {
            stacking: StackingStyle::Monolithic,
            corner: Corner::Typical,
            frequency_ghz: 1.0,
            total_power_mw: power,
            effective_delay_ns: delay,
            die_cost_uc: cost,
            pdp_pj: power * delay,
            ppc: 1.0 / (power * cost),
            wns_ns: 0.0,
            timing_met: true,
            on_frontier: false,
        }
    }

    #[test]
    fn frontier_keeps_exactly_the_nondominated_points() {
        let mut pts = vec![
            point(10.0, 1.0, 5.0), // frontier: best delay
            point(8.0, 1.2, 5.0),  // frontier: best power
            point(10.0, 1.2, 5.0), // dominated by both above
            point(9.0, 1.1, 4.0),  // frontier: best cost
            point(9.0, 1.1, 4.0),  // duplicate: ties survive (weak dominance)
        ];
        mark_frontier(&mut pts);
        let flags: Vec<bool> = pts.iter().map(|p| p.on_frontier).collect();
        assert_eq!(flags, [true, true, false, true, true]);
    }

    #[test]
    fn two_d_configs_sweep_only_the_monolithic_style() {
        let s2 = pareto_spec(Config::TwoD12T, 0.8, 1.2, 3);
        assert_eq!(s2.stacking, [StackingStyle::Monolithic]);
        assert_eq!(s2.corners, Corner::ALL);
        let s3 = pareto_spec(Config::Hetero3d, 0.8, 1.2, 3);
        assert_eq!(s3.stacking, StackingStyle::ALL);
        assert_eq!(s3.corners, Corner::ALL);
        assert_eq!(
            s3.point_count(),
            StackingStyle::ALL.len() * Corner::ALL.len() * 3
        );
    }
}
