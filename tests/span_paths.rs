//! The flow's span tree, pinned path by path with call counts.
//!
//! A stage's span is the manifest's record that it ran: `bench_gate`
//! compares the committed `BENCH_flow.json` tree, and this suite holds
//! the two shapes that tree does not cover at the committed scale on
//! every `cargo test` — a heterogeneous run whose repartitioning ECO
//! re-finishes (with the first pass's `sizing` span open and empty, the
//! ECO sizing instead) and a 2-D run that sizing sends through its
//! second implementation pass. A stage dropped, renamed, moved or run a
//! different number of times fails here.

use hetero3d::flow::{try_run_flow, Config, FlowOptions};
use hetero3d::netgen::Benchmark;
use hetero3d::obs::Obs;

/// Every span path of one cold `config` run on AES (scale 0.02, seed 7)
/// at `ghz`, with its call count.
fn span_tree(config: Config, ghz: f64) -> Vec<(String, u64)> {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    options.obs = Obs::enabled();
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let imp = try_run_flow(&netlist, config, ghz, &options).expect("flow");
    if config == Config::Hetero3d {
        assert!(
            imp.eco.expect("ECO outcome").cells_moved > 0,
            "the ECO moved cells"
        );
    }
    let manifest = options.obs.manifest();
    manifest
        .spans
        .iter()
        .map(|row| (row.path.clone(), row.calls))
        .collect()
}

fn pinned(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter()
        .map(|&(path, calls)| (path.to_string(), calls))
        .collect()
}

#[test]
fn a_hetero_run_whose_eco_refinishes_has_the_pinned_span_tree() {
    assert_eq!(
        span_tree(Config::Hetero3d, 1.0),
        pinned(&[
            ("buffering", 1),
            ("pseudo3d", 1),
            ("pseudo3d/extract", 1),
            ("pseudo3d/global_place", 1),
            ("run_flow", 1),
            ("run_flow/eco", 1),
            ("run_flow/eco/round", 1),
            ("run_flow/eco/round/eco_refinish", 1),
            ("run_flow/eco/round/eco_refinish/cts", 1),
            ("run_flow/eco/round/eco_refinish/route", 1),
            ("run_flow/eco/round/eco_refinish/route/extract", 1),
            ("run_flow/eco/round/eco_refinish/sizing", 1),
            ("run_flow/eco/round/eco_refinish/sta_signoff", 1),
            ("run_flow/finish3d", 1),
            ("run_flow/finish3d/cts", 1),
            ("run_flow/finish3d/route", 1),
            ("run_flow/finish3d/route/extract", 1),
            // Opened and left empty: the ECO sizes in its re-finish.
            ("run_flow/finish3d/sizing", 1),
            ("run_flow/finish3d/sta_signoff", 1),
            ("run_flow/finish3d/tier_legalize", 1),
            ("run_flow/finish3d/tier_legalize/legalize", 1),
            ("run_flow/finish3d/tier_legalize/refine_place", 1),
            ("run_flow/partition", 1),
            ("run_flow/partition/sta", 1),
            // Opened and left empty: the session's checkpoint served it.
            ("run_flow/pseudo3d", 1),
        ])
    );
}

#[test]
fn a_two_d_run_that_takes_the_second_pass_has_the_pinned_span_tree() {
    assert_eq!(
        span_tree(Config::TwoD9T, 2.2),
        pinned(&[
            ("buffering", 1),
            ("run_flow", 1),
            ("run_flow/impl2d", 2),
            ("run_flow/impl2d/cts", 2),
            ("run_flow/impl2d/route", 2),
            ("run_flow/impl2d/route/extract", 2),
            ("run_flow/impl2d/sizing", 2),
            ("run_flow/impl2d/sta_signoff", 1),
            ("run_flow/impl2d/tier_legalize", 2),
            ("run_flow/impl2d/tier_legalize/global_place", 2),
            ("run_flow/impl2d/tier_legalize/legalize", 2),
        ])
    );
}
