//! # hetero3d — heterogeneous monolithic 3-D IC design in Rust
//!
//! A from-scratch reproduction of *"Heterogeneous Monolithic 3-D IC
//! Designs: Challenges, EDA Solutions, and Power, Performance, Cost
//! Tradeoffs"* (Pentapati & Lim): an RTL-to-GDS-class physical design
//! flow that stacks a fast 12-track die and a small 9-track die of a
//! 28 nm-class technology, partitions gate-level netlists across them by
//! timing criticality, and evaluates power / performance / area / cost
//! against four homogeneous baselines.
//!
//! The facade re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `m3d-geom` | points, rects, bins, Steiner estimates |
//! | [`tech`] | `m3d-tech` | multi-track libraries, NLDM tables, BEOL |
//! | [`circuit`] | `m3d-circuit` | transistor-level FO-4 boundary sims |
//! | [`netlist`] | `m3d-netlist` | gate-level netlists + Verilog I/O |
//! | [`netgen`] | `m3d-netgen` | AES/LDPC/Netcard/CPU workload generators |
//! | [`sta`] | `m3d-sta` | static timing, cell criticality, paths |
//! | [`place`] | `m3d-place` | floorplan, global placement, legalization |
//! | [`route`] | `m3d-route` | 3-D global routing, RC extraction |
//! | [`cts`] | `m3d-cts` | 2-D/3-D clock tree synthesis |
//! | [`partition`] | `m3d-partition` | FM min-cut, timing partitioning, ECO |
//! | [`power`] | `m3d-power` | activity propagation, power roll-up |
//! | [`cost`] | `m3d-cost` | Table IV cost model, PDP, PPC |
//! | [`db`] | `m3d-db` | copy-on-write design database (snapshot + `fork`) |
//! | [`opt`] | `m3d-opt` | sizing, buffering |
//! | [`par`] | `m3d-par` | deterministic parallel primitives |
//! | [`json`] | `m3d-json` | zero-dependency JSON reader/writer (wire format) |
//! | [`flow`] | `m3d-flow` | the five configurations + Hetero-Pin-3D flow |
//! | [`serve`] | `m3d-serve` | concurrent flow service + checkpoint cache |
//! | [`report`] | `m3d-report` | paper tables, Table VIII dives, SVG figures |
//!
//! # Quickstart
//!
//! The primary entry point is [`flow::FlowSession`]: bind a netlist to a
//! set of options once, then answer any number of run/fmax/compare
//! queries from the session's shared checkpoints.
//!
//! ```no_run
//! use hetero3d::flow::{Config, FlowOptions, FlowSession};
//! use hetero3d::netgen::Benchmark;
//!
//! // Generate an AES-class netlist and implement it heterogeneously.
//! let netlist = Benchmark::Aes.generate(0.1, 42);
//! let session = FlowSession::builder(&netlist)
//!     .options(FlowOptions::default())
//!     .build()?;
//! let imp = session.run(Config::Hetero3d, 1.2)?;
//! let ppac = imp.ppac(&hetero3d::cost::CostModel::default());
//! println!("power: {:.1} mW, PPC: {:.3}", ppac.total_power_mw, ppac.ppc);
//! # Ok::<(), hetero3d::flow::FlowError>(())
//! ```
//!
//! For serializable requests (and the `m3d-serve` daemon built on them)
//! see [`flow::FlowRequest`] / [`flow::FlowReport`] and the [`serve`]
//! module.

pub use m3d_circuit as circuit;
pub use m3d_cost as cost;
pub use m3d_cts as cts;
pub use m3d_db as db;
pub use m3d_flow as flow;
pub use m3d_geom as geom;
pub use m3d_json as json;
pub use m3d_netgen as netgen;
pub use m3d_netlist as netlist;
pub use m3d_obs as obs;
pub use m3d_opt as opt;
pub use m3d_par as par;
pub use m3d_partition as partition;
pub use m3d_place as place;
pub use m3d_power as power;
pub use m3d_report as report;
pub use m3d_route as route;
pub use m3d_serve as serve;
pub use m3d_sta as sta;
pub use m3d_tech as tech;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // A smoke test stitching several subsystems through the facade.
        let lib = crate::tech::Library::twelve_track();
        assert_eq!(lib.vdd, 0.90);
        let n = crate::netgen::Benchmark::Aes.generate(0.01, 1);
        assert!(n.validate().is_ok());
        let model = crate::cost::CostModel::default();
        assert!(model.die_cost(0.1, false) > 0.0);
    }
}
