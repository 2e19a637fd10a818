//! The served comparison report, pinned by `tests/golden/compare_report.json`.
//!
//! A fixed-seed AES comparison is run through `FlowSession::execute`;
//! its `FlowReport::Compare` (every PPAC field at full precision) is the
//! golden. Tables VI/VII rendered from the same comparison are held by
//! `results/` (`tests/paper_outputs.rs`). The flow is deterministic by
//! construction (see `tests/determinism.rs`), so any diff here means a
//! behavioural change in the flow or the report's wire format.

use hetero3d::flow::{FlowCommand, FlowOptions, FlowSession};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;

#[test]
fn served_compare_report_matches_golden() {
    let netlist = Benchmark::Aes.generate(0.012, 41);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    let report = FlowSession::builder(&netlist)
        .options(options)
        .build()
        .expect("a valid netlist builds a session")
        .execute(&FlowCommand::CompareConfigs)
        .expect("comparison succeeds on a valid netlist");
    m3d_bench::assert_golden("compare_report", &report.to_json());
}
