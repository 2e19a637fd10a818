//! The Hetero-Pin-3-D flow: RTL-to-GDS-equivalent implementation of the
//! paper's five design configurations and its enhanced heterogeneous flow.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates:
//!
//! * the five configurations of Fig. 1 ([`Config`]): 9-track 2-D,
//!   12-track 2-D, 9-track 3-D, 12-track 3-D, and the heterogeneous
//!   9+12-track 3-D,
//! * the **pseudo-3-D stage** (flat 2-D implementation in the fast
//!   technology at the halved 3-D footprint),
//! * **timing-based partitioning** + bin-based FM min-cut,
//! * tier legalization, 3-D global routing, COVER-cell 3-D CTS,
//! * post-route optimization (upsizing to close timing, downsizing
//!   non-critical cells for power),
//! * the **repartitioning ECO** (Algorithm 1),
//! * sign-off STA/power and the PPAC roll-up ([`PpacSummary`]) including die
//!   cost, PDP and PPC,
//! * the fmax sweep used to set the iso-performance target
//!   ([`try_find_fmax`]), and five-way comparison helpers
//!   ([`try_compare_configs`]).
//!
//! # Examples
//!
//! The primary entry point is a [`FlowSession`]: one netlist + one
//! option set, validated and buffered once, queried many times (every
//! command forks the session's shared checkpoints). The free functions
//! [`try_run_flow`]/[`try_find_fmax`]/[`try_compare_configs`] are thin
//! one-shot adapters over it.
//!
//! ```no_run
//! use m3d_flow::{Config, FlowOptions, FlowSession};
//! use m3d_netgen::Benchmark;
//!
//! let netlist = Benchmark::Aes.generate(0.1, 1);
//! let session = FlowSession::builder(&netlist)
//!     .options(FlowOptions::default())
//!     .build()?;
//! let imp = session.run(Config::Hetero3d, 1.5)?;
//! let ppac = imp.ppac(&m3d_cost::CostModel::default());
//! println!("PPC = {:.3}", ppac.ppc);
//! # Ok::<(), m3d_flow::FlowError>(())
//! ```

mod compare;
mod config;
mod error;
#[allow(clippy::module_inception)]
mod flow;
mod pareto;
mod ppac;
mod session;
mod stage;
mod sweep;
mod wire;

pub use compare::{try_compare_configs, BaselineComparison, Comparison, ComparisonSummary};
pub use config::{Config, FlowOptions, ReadSet};
pub use error::FlowError;
pub use flow::{try_find_fmax, try_run_flow, Implementation};
pub use pareto::{ParetoPoint, ParetoSummary};
pub use ppac::{percent_delta, DeltaRow, PpacSummary};
pub use session::{FlowSession, FlowSessionBuilder};
pub use stage::{prepare_base, pseudo_checkpoint, run_from_base, BaseDesign, PseudoCheckpoint};
pub use sweep::{SweepPoint, SweepSpec, MAX_PARETO_STEPS, MAX_SWEEP_POINTS};
pub use wire::{FlowCommand, FlowReport, FlowRequest, NetlistSpec, Proto, WireName};
