//! The flow's span tree and telemetry, pinned path by path.
//!
//! A stage's span is the manifest's record that it ran. The golden
//! `tests/golden/flow.json` holds the whole deterministic telemetry —
//! span calls, counters, gauges, labels — of a cold Hetero-3-D run, a
//! 12-track 2-D fmax search and a five-config comparison at the paper's
//! options; the two span-tree tests hold the shapes that golden does not
//! cover — a heterogeneous run whose repartitioning ECO re-finishes
//! (with the first pass's `sizing` span open and empty, the ECO sizing
//! instead) and a cold 9-track 2-D run, one pass like every 2-D run. A
//! stage dropped, renamed, moved or run a different number of times
//! fails here.

use hetero3d::cost::CostModel;
use hetero3d::flow::{Config, FlowOptions, FlowSession};
use hetero3d::json::Obj;
use hetero3d::netgen::Benchmark;
use hetero3d::obs::{Manifest, Obs};

/// Every span path of one cold `config` run on AES (scale 0.02, seed 7)
/// at `ghz`, with its call count.
fn span_tree(config: Config, ghz: f64) -> Vec<(String, u64)> {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    options.obs = Obs::enabled();
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let imp = session(&netlist, &options).run(config, ghz).expect("flow");
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

fn session(netlist: &hetero3d::netlist::Netlist, options: &FlowOptions) -> FlowSession {
    let builder = FlowSession::builder(netlist).options(options.clone());
    builder.build().expect("valid netlist")
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

/// A cold 9-track 2-D run at 2.2 GHz: one pass, each stage once —
/// sizing never sends a run back through placement.
#[test]
fn a_two_d_run_has_the_pinned_one_pass_span_tree() {
    assert_eq!(
        span_tree(Config::TwoD9T, 2.2),
        pinned(&[
            ("buffering", 1),
            ("run_flow", 1),
            ("run_flow/impl2d", 1),
            ("run_flow/impl2d/cts", 1),
            ("run_flow/impl2d/route", 1),
            ("run_flow/impl2d/route/extract", 1),
            ("run_flow/impl2d/sizing", 1),
            ("run_flow/impl2d/sta_signoff", 1),
            ("run_flow/impl2d/tier_legalize", 1),
            ("run_flow/impl2d/tier_legalize/global_place", 1),
            ("run_flow/impl2d/tier_legalize/legalize", 1),
        ])
    );
}

/// The prefix forks an fmax search books: one per ladder rung it walked
/// (a `fmax/rung<i>/run_flow` span) plus the never-met retry.
fn ladder_forks(m: &Manifest) -> u64 {
    m.spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix("fmax/rung")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(i, span)| i.parse::<usize>().is_ok() && span == "run_flow")
        })
        .chain(m.span("fmax/relaxed/run_flow"))
        .map(|s| s.calls)
        .sum()
}

/// AES (scale 0.02, seed 7) at the paper's options: the deterministic
/// manifests of a cold Hetero-3-D run at 1 GHz, a 12-track 2-D fmax
/// search from 1 GHz and a five-config comparison, plus the fmax and the
/// comparison's pseudo-3-D run count, are `tests/golden/flow.json`.
#[test]
fn run_fmax_and_compare_telemetry_is_its_golden() {
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let instrumented = || FlowOptions {
        obs: Obs::enabled(),
        ..m3d_bench::bench_options()
    };
    let (run, fmax, cmp) = (instrumented(), instrumented(), instrumented());
    session(&netlist, &run)
        .run(Config::Hetero3d, 1.0)
        .expect("flow");
    let (fmax_ghz, _) = session(&netlist, &fmax)
        .fmax(Config::TwoD12T, 1.0)
        .expect("fmax");
    session(&netlist, &cmp)
        .compare(&CostModel::default())
        .expect("comparison");
    let (run, fmax, cmp) = (run.obs.manifest(), fmax.obs.manifest(), cmp.obs.manifest());
    for m in [&fmax, &cmp] {
        assert_eq!(
            m.counter_sum("flow/prefix_forks"),
            ladder_forks(m),
            "every rung the fmax ladder walks, and its retry, forks the probe's prefix"
        );
    }
    let section = Obj::new()
        .put("scale", 0.02)
        .put("seed", 7u64)
        .put("fmax_ghz", fmax_ghz)
        .put("prefix_reuse", cmp.counter_sum("flow/pseudo3d_runs"))
        .put("run_flow", run.deterministic_json())
        .put("fmax_sweep", fmax.deterministic_json())
        .put("compare_configs", cmp.deterministic_json())
        .build();
    m3d_bench::assert_golden("flow", &section);
}
