//! Placement substrate: floorplanning, global placement and legalization.
//!
//! Implements the placement stages the Pin-3-D flow needs:
//!
//! * [`Floorplan`] — utilization-driven die sizing (per configuration: a
//!   2-D die, or the halved-footprint shared outline of a 3-D stack),
//!   macro placement and boundary I/O pads,
//! * [`global_place`] — connectivity-driven global placement: net-centroid
//!   relaxation interleaved with bin-density spreading (a SimPL/FastPlace-
//!   class heuristic, deterministic under a fixed seed),
//! * [`try_legalize_with_stats`] — Tetris row legalization per tier, honoring each tier's
//!   row height (9-track rows are 25 % shorter than 12-track rows) and
//!   macro keep-outs,
//! * [`check_legality`] — an independent oracle for what legalization
//!   promises (in die, on row, out of keep-outs, no overlaps),
//! * [`Placement`] — positions plus wirelength/overlap queries.
//!
//! # Examples
//!
//! ```
//! use m3d_netgen::Benchmark;
//! use m3d_place::{global_place, try_legalize_with_stats, Floorplan, PlacerConfig};
//! use m3d_tech::{Library, Tier, TierStack};
//!
//! let netlist = Benchmark::Aes.generate(0.02, 1);
//! let stack = TierStack::two_d(Library::twelve_track());
//! let tiers = vec![Tier::Bottom; netlist.cell_count()];
//! let fp = Floorplan::new(&netlist, &stack, &tiers, 0.7);
//! let config = PlacerConfig::default();
//! let placed = global_place(&netlist, &fp, &config);
//! let (legal, _stats) = try_legalize_with_stats(&netlist, &placed, &fp, &stack, &tiers).unwrap();
//! assert!(legal.hpwl(&netlist) > 0.0);
//! ```

mod floorplan;
mod global;
mod legal;
mod legality;
mod placement;

pub use floorplan::Floorplan;
pub use global::{global_place, refine_place, PlacerConfig};
pub use legal::{row_center, try_legalize_with_stats, LegalStats, LegalizeError};
pub use legality::{check_legality, LegalityViolation};
pub use placement::Placement;
