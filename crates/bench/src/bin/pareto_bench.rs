//! Technology-axis Pareto sweep benchmark emitting
//! `results/BENCH_pareto.json`.
//!
//! Runs the heterogeneous configuration's stacking × corner × frequency
//! sweep twice — once forced sequential, once at four workers — and
//! asserts the two [`ParetoSummary`] point sets are **bit-identical**:
//! the sweep fans out through `par_invoke`, whose input-order results
//! make the frontier independent of the thread count. It also asserts
//! the checkpoint economics of the sweep: the pseudo-3-D stage runs
//! exactly once for the whole grid (it reads nothing of the scenario),
//! counted from the telemetry manifest across every scope. The manifest's
//! `deterministic` section carries the exact swept points (frontier flags
//! included) for the bench gate's bit-for-bit comparison; `perf` carries
//! the wall-derived scenario throughput.
//!
//! Usage: `pareto_bench [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! The default scale is the CI smoke setting (0.02): the gate needs a
//! fast, exactly reproducible datapoint, not a paper-scale one.

use hetero3d::cost::CostModel;
use hetero3d::flow::{Config, FlowOptions, FlowSession, ParetoSummary};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::obs::Obs;
use hetero3d::tech::{Corner, StackingStyle};
use std::time::Instant;

/// The swept configuration and grid: heterogeneous 3-D (the richest
/// scenario axis — both stacking styles × all three corners) over three
/// frequency rungs.
const CONFIG: Config = Config::Hetero3d;
const FREQ_MIN_GHZ: f64 = 0.8;
const FREQ_MAX_GHZ: f64 = 1.2;
const FREQ_STEPS: usize = 3;

/// One instrumented sweep at `threads` workers: the summary, the
/// pseudo-3-D run count summed across all telemetry scopes, and the
/// wall time.
fn sweep(netlist: &Netlist, base: &FlowOptions, threads: usize) -> (ParetoSummary, u64, f64) {
    let options = FlowOptions {
        threads,
        obs: Obs::enabled(),
        ..base.clone()
    };
    let session = FlowSession::builder(netlist)
        .options(options)
        .build()
        .expect("session");
    let started = Instant::now();
    let summary = session
        .pareto(
            CONFIG,
            FREQ_MIN_GHZ,
            FREQ_MAX_GHZ,
            FREQ_STEPS,
            &CostModel::default(),
        )
        .expect("pareto sweep");
    let wall_s = started.elapsed().as_secs_f64();
    let pseudo_runs = session
        .options()
        .obs
        .manifest()
        .counter_sum("flow/pseudo3d_runs");
    (summary, pseudo_runs, wall_s)
}

fn main() {
    let args = m3d_bench::parse_args(0.02);
    let netlist = Benchmark::Aes.generate(args.scale, args.seed);
    let base = m3d_bench::bench_options();

    // The identity check: one worker vs four, same netlist, same knobs.
    let (seq, seq_pseudo, _) = sweep(&netlist, &base, 1);
    let (par, par_pseudo, par_wall_s) = sweep(&netlist, &base, 4);
    assert!(
        seq == par,
        "pareto determinism violated: 1-thread and 4-thread sweeps differ"
    );

    // Checkpoint economics: one pseudo-3-D run per grid, regardless of
    // the number of scenarios and the frequency-grid size.
    let scenarios = StackingStyle::ALL.len() * Corner::ALL.len();
    for (lane, runs) in [("1-thread", seq_pseudo), ("4-thread", par_pseudo)] {
        assert_eq!(
            runs, 1,
            "{lane} sweep ran the pseudo-3-D stage {runs} times for {scenarios} scenarios; \
             the grid's one checkpoint should make it exactly 1"
        );
    }

    let frontier = par.frontier().count();
    let scenarios_per_sec = scenarios as f64 / par_wall_s;
    m3d_bench::write_manifest(
        &args,
        "pareto",
        [
            ("config", CONFIG.to_json()),
            ("freq_min_ghz", FREQ_MIN_GHZ.into()),
            ("freq_max_ghz", FREQ_MAX_GHZ.into()),
            ("freq_steps", FREQ_STEPS.into()),
            ("scenarios", scenarios.into()),
            ("pseudo3d_runs", par_pseudo.into()),
            ("frontier_points", frontier.into()),
            (
                "points",
                par.points
                    .iter()
                    .map(ToJson::to_json)
                    .collect::<Vec<_>>()
                    .into(),
            ),
        ],
        [("scenarios_per_sec", scenarios_per_sec.into())],
    );
    println!(
        "pareto_bench: {} points bit-identical at 1 and 4 threads | {} scenarios, \
         {} pseudo-3D runs | {} frontier points | {:.2} scenarios/s",
        par.points.len(),
        scenarios,
        par_pseudo,
        frontier,
        scenarios_per_sec,
    );
}
