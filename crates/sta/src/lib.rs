//! Static timing analysis — the workspace's sign-off engine.
//!
//! The paper's flow leans on timing at three points: the *cell-based
//! criticality* metric driving timing-based partitioning (Section III-A1),
//! the WNS/TNS guard rails of the repartitioning ECO (Algorithm 1), and
//! the sign-off numbers of Tables V–VIII. This crate provides all three:
//!
//! * [`TimingContext`] — netlist + per-cell tier assignment + tier
//!   libraries + net parasitics + clock specification,
//! * [`analyze`] — a cold forward/backward propagation (a fresh
//!   [`Timer`]'s first update, every cell seeded) producing a
//!   [`StaResult`]: per-cell arrival/slew/required and endpoint slack,
//!   WNS, TNS,
//! * [`StaResult::cell_criticality`] — the worst slack among all paths
//!   through a cell, derivable for *every* cell (the paper's complete
//!   coverage requirement),
//! * [`worst_paths`] — top-K critical-path extraction with per-tier delay
//!   breakdowns (Table VIII's critical-path anatomy),
//! * [`Timer`] — the one timing engine: a persistent propagation loop
//!   that seeds every cell on a cold pass and only the dirty cones after
//!   edits (sizing, tier swaps, parasitics, period sweeps), bit-identical
//!   to a cold [`analyze`] at any thread count. Every arc's delay is
//!   evaluated once, by the forward pass, and kept as forward state the
//!   backward pass reads — there is no memo layer. The reference it is
//!   held to is the independent oracle in `tests/sta_oracle.rs`.
//!
//! Delays come from the NLDM tables of the bound libraries; wire delays
//! from per-net [`Parasitics`] (pre-route Steiner estimates or routed RC).
//!
//! # Examples
//!
//! ```
//! use m3d_netgen::Benchmark;
//! use m3d_sta::{analyze, ClockSpec, Parasitics, TimingContext};
//! use m3d_tech::{Tier, TierStack};
//!
//! let netlist = Benchmark::Aes.generate(0.02, 1);
//! let stack = TierStack::two_d(m3d_tech::Library::twelve_track());
//! let tiers = vec![Tier::Bottom; netlist.cell_count()];
//! let parasitics = Parasitics::zero_wire(&netlist);
//! let ctx = TimingContext {
//!     netlist: &netlist,
//!     stack: &stack,
//!     tiers: &tiers,
//!     parasitics: &parasitics,
//!     clock: ClockSpec::with_period(1.0),
//! };
//! let result = analyze(&ctx);
//! assert!(result.wns <= result.tns.max(0.0) + 1e9); // both finite
//! ```

mod context;
mod corners;
mod engine;
mod incremental;
mod paths;

pub use context::{ClockSpec, NetModel, Parasitics, TimingContext};
pub use corners::{CornerResults, MultiCornerTimer};
pub use engine::{analyze, StaResult};
pub use incremental::{Timer, TimerStats, TimingEdit};
pub use paths::{worst_paths, PathStage, TimingPath};
