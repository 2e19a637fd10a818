//! What is left of the flat topology view the kernels once read.
//!
//! The [`Netlist`] is the one holder of connectivity — every kernel reads
//! its pin array and its nets' sink lists directly — so `Topology` holds
//! nothing and costs nothing to build. It stays only as long as the
//! frozen benchmark harness times [`Topology::build`] (its
//! `netlist.topology_build_ms` probe) and goes with that probe.

use crate::netlist::Netlist;

/// An empty stand-in for the former flat view of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology;

impl Topology {
    /// O(1): the netlist already is the view.
    #[must_use]
    pub fn build(_netlist: &Netlist) -> Topology {
        Topology
    }
}
