//! Global routing substrate: congestion-aware grid routing, MIV counting
//! and parasitic extraction.
//!
//! The paper's evaluation depends on routing at two points: wirelength
//! (Table VI/VII's `WL` rows and the 3-D wirelength reduction story) and
//! the per-net RC that feeds sign-off timing and switching power. This
//! crate provides both:
//!
//! * [`global_route`] — a two-pass L/Z-shape global router on a uniform
//!   grid with per-edge capacities from the [`m3d_tech::MetalStack`];
//!   congested edges force detours (which is exactly what makes the
//!   wire-dominant LDPC behave differently from AES),
//! * MIV accounting — one inter-tier via per tier crossing of a net's
//!   spanning topology (Table VI's `# MIVs` row),
//! * [`try_extract_parasitics_with_stats`] — per-net RC from routed (or estimated)
//!   lengths, in the [`m3d_sta::Parasitics`] format the timing engine
//!   consumes. The per-net routes end there: what a flow keeps of a
//!   [`RoutingResult`] is its [`RouteTotals`].
//!
//! # Examples
//!
//! ```
//! use m3d_netgen::Benchmark;
//! use m3d_place::{global_place, Floorplan, PlacerConfig};
//! use m3d_route::{global_route, RouteConfig};
//! use m3d_tech::{Library, Tier, TierStack};
//!
//! let netlist = Benchmark::Aes.generate(0.02, 1);
//! let stack = TierStack::two_d(Library::twelve_track());
//! let tiers = vec![Tier::Bottom; netlist.cell_count()];
//! let fp = Floorplan::new(&netlist, &stack, &tiers, 0.7);
//! let placement = global_place(&netlist, &fp, &PlacerConfig::default());
//! let routed = global_route(&netlist, &placement, &tiers, &stack, &RouteConfig::default());
//! assert!(routed.total_wirelength_um > 0.0);
//! ```

mod extract;
mod router;

pub use extract::{try_extract_parasitics_with_stats, ExtractError, ExtractStats};
pub use router::{global_route, RouteConfig, RouteTotals, RoutedNet, RoutingResult};
