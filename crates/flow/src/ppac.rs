use crate::config::Config;
use crate::flow::Implementation;
use m3d_cost::{pdp_pj, ppc, CostModel};

/// The paper's full PPAC metric set for one implementation (the rows of
/// Table VI) — the one row type every report, table and wire response
/// reads, without the megabytes of placement/routing the full
/// [`Implementation`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct PpacSummary {
    /// Configuration the metrics belong to.
    pub config: Config,
    /// Achieved/target clock frequency, GHz.
    pub frequency_ghz: f64,
    /// Die footprint, mm².
    pub footprint_mm2: f64,
    /// Total silicon area (2× footprint for 3-D), mm².
    pub si_area_mm2: f64,
    /// Chip width, µm.
    pub chip_width_um: f64,
    /// Standard-cell density, %.
    pub density_pct: f64,
    /// Total signal wirelength, mm.
    pub wirelength_mm: f64,
    /// Monolithic inter-tier via count.
    pub mivs: usize,
    /// Net switching power, mW.
    pub switching_mw: f64,
    /// Cell-internal power, mW.
    pub internal_mw: f64,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Clock network power, mW.
    pub clock_mw: f64,
    /// Total power, mW.
    pub total_power_mw: f64,
    /// Worst negative slack, ns.
    pub wns_ns: f64,
    /// Total negative slack, ns.
    pub tns_ns: f64,
    /// Effective delay = period − WNS, ns.
    pub effective_delay_ns: f64,
    /// Power-delay product, pJ.
    pub pdp_pj: f64,
    /// Die cost in units of `10⁻⁶ C'`.
    pub die_cost_uc: f64,
    /// Cost per cm² of silicon, `10⁻⁶ C'/cm²`.
    pub cost_per_cm2_uc: f64,
    /// Performance per cost, `GHz / (mW × 10⁻⁶ C')`.
    pub ppc: f64,
}

impl Implementation {
    /// Rolls the implementation up into the paper's PPAC metric set.
    ///
    /// Area/cost metrics are computed from a *report floorplan* rebuilt
    /// over the final (post-sizing) netlist, so every configuration is
    /// measured on the same basis regardless of how much the optimizer
    /// grew it.
    #[must_use]
    pub fn ppac(&self, cost: &CostModel) -> PpacSummary {
        let is_3d = self.config.is_3d();
        let report_fp =
            m3d_place::Floorplan::new(&self.netlist, &self.stack, &self.tiers, self.utilization);
        let footprint_mm2 = report_fp.die.area() * 1e-6;
        let si_area_mm2 = report_fp.silicon_area_um2(is_3d) * 1e-6;
        let total_power_mw = self.power.total_mw();
        let effective_delay_ns = self.sta.effective_delay_ns();
        // An F2F hybrid-bonded stack swaps the monolithic wafer premium
        // for a per-bond cost on every inter-tier connection; a 2-D
        // implementation has no bonded stack, so it always prices as
        // plain 2-D regardless of the scenario's stacking style.
        let die_cost = if is_3d && self.tech.stacking.is_bonded() {
            cost.die_cost_f2f(footprint_mm2.max(1e-6), self.routing.total_mivs)
        } else {
            cost.die_cost(footprint_mm2.max(1e-6), is_3d)
        };
        let die_cost_uc = die_cost * 1e6;
        PpacSummary {
            config: self.config,
            frequency_ghz: self.frequency_ghz,
            footprint_mm2,
            si_area_mm2,
            chip_width_um: report_fp.width_um(),
            density_pct: report_fp.overall_density(is_3d) * 100.0,
            wirelength_mm: self.routing.total_wirelength_mm()
                + self.clock_tree.wirelength_um * 1e-3,
            mivs: self.routing.total_mivs,
            switching_mw: self.power.switching_mw,
            internal_mw: self.power.internal_mw,
            leakage_mw: self.power.leakage_mw,
            clock_mw: self.power.clock_mw,
            total_power_mw,
            wns_ns: self.sta.wns,
            tns_ns: self.sta.tns,
            effective_delay_ns,
            pdp_pj: pdp_pj(total_power_mw, effective_delay_ns),
            die_cost_uc,
            cost_per_cm2_uc: die_cost / (si_area_mm2.max(1e-6) * 1e-2) * 1e6,
            // PPC uses the *achieved* frequency (1/effective delay):
            // configurations that miss timing do not get credit for the
            // target they failed to reach.
            ppc: ppc(
                1.0 / effective_delay_ns.max(1e-9),
                total_power_mw,
                die_cost_uc,
            ),
        }
    }
}

/// One column of Table VII: percent deltas of the heterogeneous design
/// relative to a homogeneous configuration
/// (`(hetero − config) / config × 100`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaRow {
    /// The homogeneous configuration compared against.
    pub config: Config,
    /// Silicon-area delta, %.
    pub si_area: f64,
    /// Density delta, %.
    pub density: f64,
    /// Wirelength delta, %.
    pub wirelength: f64,
    /// Total-power delta, %.
    pub total_power: f64,
    /// Effective-delay delta, %.
    pub effective_delay: f64,
    /// PDP delta, %.
    pub pdp: f64,
    /// Die-cost delta, %.
    pub die_cost: f64,
    /// Cost-per-cm² delta, %.
    pub cost_per_cm2: f64,
    /// PPC delta, % (positive = heterogeneous wins).
    pub ppc: f64,
    /// The homogeneous configuration's chip width, µm (absolute row).
    pub width_um: f64,
    /// The homogeneous configuration's WNS, ns (absolute row).
    pub wns_ns: f64,
    /// The homogeneous configuration's TNS, ns (absolute row).
    pub tns_ns: f64,
}

/// Computes the Table VII column for `hetero` against `other`.
#[must_use]
pub fn percent_delta(hetero: &PpacSummary, other: &PpacSummary) -> DeltaRow {
    let pct = |h: f64, o: f64| if o != 0.0 { (h - o) / o * 100.0 } else { 0.0 };
    DeltaRow {
        config: other.config,
        si_area: pct(hetero.si_area_mm2, other.si_area_mm2),
        density: pct(hetero.density_pct, other.density_pct),
        wirelength: pct(hetero.wirelength_mm, other.wirelength_mm),
        total_power: pct(hetero.total_power_mw, other.total_power_mw),
        effective_delay: pct(hetero.effective_delay_ns, other.effective_delay_ns),
        pdp: pct(hetero.pdp_pj, other.pdp_pj),
        die_cost: pct(hetero.die_cost_uc, other.die_cost_uc),
        cost_per_cm2: pct(hetero.cost_per_cm2_uc, other.cost_per_cm2_uc),
        ppc: pct(hetero.ppc, other.ppc),
        width_um: other.chip_width_um,
        wns_ns: other.wns_ns,
        tns_ns: other.tns_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(config: Config, power: f64, cost: f64, freq: f64) -> PpacSummary {
        PpacSummary {
            config,
            frequency_ghz: freq,
            footprint_mm2: 0.2,
            si_area_mm2: 0.4,
            chip_width_um: 450.0,
            density_pct: 80.0,
            wirelength_mm: 5.0,
            mivs: 0,
            switching_mw: 0.0,
            internal_mw: 0.0,
            leakage_mw: 0.0,
            clock_mw: 0.0,
            total_power_mw: power,
            wns_ns: -0.02,
            tns_ns: -1.0,
            effective_delay_ns: 1.0 / freq + 0.02,
            pdp_pj: power * (1.0 / freq + 0.02),
            die_cost_uc: cost,
            cost_per_cm2_uc: cost / 0.4 * 100.0,
            ppc: freq / (power * cost),
        }
    }

    #[test]
    fn delta_signs_follow_the_paper_convention() {
        let hetero = fake(Config::Hetero3d, 100.0, 5.0, 1.0);
        let worse = fake(Config::TwoD9T, 120.0, 6.0, 1.0);
        let d = percent_delta(&hetero, &worse);
        // Negative = hetero better for power/cost; positive PPC = better.
        assert!(d.total_power < 0.0);
        assert!(d.die_cost < 0.0);
        assert!(d.ppc > 0.0);
        assert_eq!(d.config, Config::TwoD9T);
    }

    #[test]
    fn delta_of_identical_is_zero() {
        let a = fake(Config::Hetero3d, 100.0, 5.0, 1.0);
        let b = fake(Config::TwoD12T, 100.0, 5.0, 1.0);
        let d = percent_delta(&a, &b);
        assert_eq!(d.total_power, 0.0);
        assert_eq!(d.ppc, 0.0);
        assert_eq!(d.pdp, 0.0);
    }
}
