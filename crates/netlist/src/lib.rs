//! Gate-level netlist substrate.
//!
//! A [`Netlist`] is the design representation every stage of the flow
//! operates on: a hypergraph of [`Cell`]s (gates, macros, primary I/O
//! ports) connected by [`Net`]s, each net driven by exactly one output pin.
//! Cells carry a *class* — logical function + drive strength — rather than
//! a bound library cell, because the same netlist is implemented in five
//! different technology configurations; the binding to a concrete
//! [`m3d_tech::Library`] happens per-tier inside the flow.
//!
//! The crate also provides:
//!
//! * [`NetlistStats`] — size/fanout/composition summaries,
//! * [`verilog`] — a structural-Verilog writer and parser for the cell set,
//! * validation ([`Netlist::validate`]) that enforces the single-driver
//!   rule, full connectivity and acyclicity between registers,
//! * [`Levels`] — the combinational levelization, a memo of the netlist
//!   ([`Netlist::levels`]) every timer and power pass on one structure
//!   shares,
//! * [`Incidence`] — the net↔cell incidence FM partitioning and global
//!   placement read.
//!
//! Storage is flat: a 24-byte [`Cell`] per instance, one name arena, one
//! pin array sliced per cell and a sink list per [`Net`]; a clone shares
//! everything but the cell table. The netlist is the one holder of
//! connectivity: kernels read the pin array and the sink lists directly,
//! and the two derived structures above are built from them. ([`Topology`]
//! is an empty adapter kept for the benchmark harness.)
//!
//! # Examples
//!
//! ```
//! use m3d_netlist::Netlist;
//! use m3d_tech::{CellKind, Drive};
//!
//! let mut n = Netlist::new("example");
//! let a = n.add_input("a");
//! let g = n.add_gate("u1", CellKind::Inv, Drive::X1, 0);
//! let y = n.add_output("y");
//! let net_a = n.add_net("a_net", a, 0);
//! let net_y = n.add_net("y_net", g, 0);
//! n.connect(net_a, g, 0);
//! n.connect(net_y, y, 0);
//! assert!(n.validate().is_ok());
//! assert_eq!(n.gate_count(), 1);
//! ```

mod cell;
mod incidence;
mod levels;
mod net;
#[allow(clippy::module_inception)]
mod netlist;
mod stats;
mod tables;
mod topo;
pub mod verilog;

pub use cell::{Cell, CellClass, CellId, MacroSpec};
pub use incidence::Incidence;
pub use levels::{Levels, ENDPOINT_SINK, UNTIMED_COMB_SINK};
pub use net::{Net, NetId, PinRef};
pub use netlist::{Netlist, NetlistParts, NetlistPartsError, ValidateNetlistError};
pub use stats::NetlistStats;
pub use tables::NO_NET;
pub use topo::Topology;
