use m3d_netlist::{NetId, Netlist};
use m3d_tech::{Tier, TierStack};
use std::sync::Arc;

/// Clock constraints for an analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSpec {
    /// Clock period in ns.
    pub period_ns: f64,
    /// Per-cell clock-arrival latency in ns (indexed by cell id); empty
    /// means an ideal clock (zero latency everywhere). Filled in by CTS,
    /// and shared with the clock tree rather than copied from it.
    pub latency_ns: Arc<[f64]>,
    /// Slew assumed at primary inputs, ns.
    pub input_slew_ns: f64,
    /// Virtual clock latency applied to primary I/O: primary inputs
    /// launch at this time and primary outputs capture at `period +` this
    /// time. Set to the clock network's mean insertion delay so I/O paths
    /// are judged against the same clock the registers see.
    pub virtual_io_latency_ns: f64,
    /// Capacitive load assumed at primary outputs, fF.
    pub output_load_ff: f64,
}

impl ClockSpec {
    /// An ideal clock with the given period.
    #[must_use]
    pub fn with_period(period_ns: f64) -> Self {
        ClockSpec {
            period_ns,
            latency_ns: Arc::default(),
            input_slew_ns: 0.03,
            virtual_io_latency_ns: 0.0,
            output_load_ff: 3.0,
        }
    }

    /// Clock arrival at `cell` (0 under an ideal clock).
    #[must_use]
    pub fn latency(&self, cell: usize) -> f64 {
        self.latency_ns.get(cell).copied().unwrap_or(0.0)
    }
}

/// Lumped parasitics of one net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetModel {
    /// Total wire capacitance, fF.
    pub wire_cap_ff: f64,
    /// Common wire delay from driver to every sink (lumped Elmore), ns.
    pub wire_delay_ns: f64,
}

/// Per-net parasitics for a whole design.
///
/// Built either from placement (Steiner estimates) by the placer/router
/// crates, or as [`Parasitics::zero_wire`] for logic-only analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Parasitics {
    models: Vec<NetModel>,
}

impl Parasitics {
    /// Ideal wires: zero capacitance and delay on every net.
    #[must_use]
    pub fn zero_wire(netlist: &Netlist) -> Self {
        Parasitics {
            models: vec![NetModel::default(); netlist.net_count()],
        }
    }

    /// Wraps externally computed per-net models (indexed by net id).
    ///
    /// # Panics
    ///
    /// Panics if the model count does not match the netlist.
    #[must_use]
    pub fn from_models(netlist: &Netlist, models: Vec<NetModel>) -> Self {
        assert_eq!(
            models.len(),
            netlist.net_count(),
            "one model per net required"
        );
        Parasitics { models }
    }

    /// The model of `net`.
    #[must_use]
    pub fn net(&self, net: NetId) -> NetModel {
        self.models[net.index()]
    }

    /// Mutable model of `net`.
    pub fn net_mut(&mut self, net: NetId) -> &mut NetModel {
        &mut self.models[net.index()]
    }

    /// Number of nets covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Total wire capacitance across all nets, fF.
    #[must_use]
    pub fn total_wire_cap_ff(&self) -> f64 {
        self.models.iter().map(|m| m.wire_cap_ff).sum()
    }
}

/// Everything [`crate::analyze`] needs to time a design.
#[derive(Debug, Clone)]
pub struct TimingContext<'a> {
    /// The design.
    pub netlist: &'a Netlist,
    /// Tier-to-library binding.
    pub stack: &'a TierStack,
    /// Tier of each cell (indexed by cell id). For 2-D designs, all
    /// [`Tier::Bottom`].
    pub tiers: &'a [Tier],
    /// Per-net wire parasitics.
    pub parasitics: &'a Parasitics,
    /// Clock constraints.
    pub clock: ClockSpec,
}

impl<'a> TimingContext<'a> {
    /// Tier of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is shorter than the netlist.
    #[must_use]
    pub fn tier(&self, cell: usize) -> Tier {
        self.tiers[cell]
    }

    /// Library bound to `cell` through its tier.
    #[must_use]
    pub fn library(&self, cell: usize) -> &m3d_tech::Library {
        self.stack.library(self.tier(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_has_zero_latency() {
        let c = ClockSpec::with_period(0.8);
        assert_eq!(c.period_ns, 0.8);
        assert_eq!(c.latency(0), 0.0);
        assert_eq!(c.latency(1000), 0.0);
    }

    #[test]
    fn zero_wire_parasitics_cover_all_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let _na = n.add_net("na", a, 0);
        let p = Parasitics::zero_wire(&n);
        assert_eq!(p.len(), 1);
        assert_eq!(p.net(m3d_netlist::NetId::from_index(0)).wire_cap_ff, 0.0);
        assert_eq!(p.total_wire_cap_ff(), 0.0);
    }
}
