//! Determinism regression tests for the parallel flow engine.
//!
//! The contract under test: every result produced by `try_run_flow` /
//! `try_compare_configs` is **bit-identical** at any thread count. Threads
//! are a performance knob only — `FlowOptions::threads`, the process-global
//! `par::set_threads`, and the `HETERO3D_THREADS` environment variable may
//! change wall-clock time but never a single output bit.

use hetero3d::cost::CostModel;
use hetero3d::flow::{
    try_compare_configs, try_run_flow, Comparison, Config, FlowOptions, Implementation,
};
use hetero3d::netgen::Benchmark;
use hetero3d::par;
use hetero3d::tech::Tier;

const ALL_CONFIGS: [Config; 5] = [
    Config::TwoD9T,
    Config::TwoD12T,
    Config::ThreeD9T,
    Config::ThreeD12T,
    Config::Hetero3d,
];

fn quick_options(threads: usize) -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 6;
    o.threads = threads;
    o
}

fn run_flow(n: &hetero3d::netlist::Netlist, c: Config, f: f64, o: &FlowOptions) -> Implementation {
    try_run_flow(n, c, f, o).expect("flow succeeds on a valid netlist")
}

fn compare_configs(
    n: &hetero3d::netlist::Netlist,
    o: &FlowOptions,
    cost: &CostModel,
) -> Comparison {
    try_compare_configs(n, o, cost).expect("comparison succeeds on a valid netlist")
}

/// Exact fingerprint of an implementation: float metrics as raw bits plus
/// the full tier assignment. Any nondeterminism in partitioning, placement,
/// routing, CTS, STA or power shows up here.
fn fingerprint(imp: &Implementation) -> (u64, u64, u64, Vec<Tier>) {
    (
        imp.sta.wns.to_bits(),
        imp.routing.total_wirelength_um.to_bits(),
        imp.power.total_mw().to_bits(),
        imp.tiers.to_vec(),
    )
}

#[test]
fn run_flow_is_bit_identical_across_thread_counts() {
    for bench in [Benchmark::Aes, Benchmark::Ldpc] {
        let netlist = bench.generate(0.01, 7);
        for config in ALL_CONFIGS {
            let base = fingerprint(&run_flow(&netlist, config, 1.0, &quick_options(1)));
            for threads in [2usize, 4, 8] {
                let par = fingerprint(&run_flow(&netlist, config, 1.0, &quick_options(threads)));
                assert_eq!(
                    par, base,
                    "{bench:?}/{config:?}: threads={threads} diverged from threads=1"
                );
            }
        }
    }
}

#[test]
fn compare_configs_is_bit_identical_across_thread_counts() {
    let cost = CostModel::default();
    for bench in [Benchmark::Aes, Benchmark::Ldpc] {
        let netlist = bench.generate(0.01, 7);
        let base = compare_configs(&netlist, &quick_options(1), &cost);
        let par = compare_configs(&netlist, &quick_options(4), &cost);

        assert_eq!(
            base.summary.target_ghz.to_bits(),
            par.summary.target_ghz.to_bits()
        );
        let pairs = base
            .implementations
            .iter()
            .zip(&par.implementations)
            .chain(std::iter::once((
                &base.hetero_implementation,
                &par.hetero_implementation,
            )));
        for (a, b) in pairs {
            assert_eq!(
                fingerprint(a),
                fingerprint(b),
                "{bench:?}/{:?}: parallel comparison diverged",
                a.config
            );
        }
        for (a, b) in base.summary.deltas.iter().zip(&par.summary.deltas) {
            assert_eq!(a.total_power.to_bits(), b.total_power.to_bits());
            assert_eq!(a.die_cost.to_bits(), b.die_cost.to_bits());
            assert_eq!(a.ppc.to_bits(), b.ppc.to_bits());
        }
    }
}

#[test]
fn telemetry_manifest_is_bit_identical_across_thread_counts() {
    // The observability half of the contract: the deterministic manifest
    // section (span call counts, counters, gauges, labels) must not move
    // with the worker count either. Wall times and cache hit rates live
    // in the performance-only section, which is excluded here by design.
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let manifest_at = |threads: usize| {
        let mut options = quick_options(threads);
        options.obs = hetero3d::obs::Obs::enabled();
        let obs = options.obs.clone();
        let _ = run_flow(&netlist, Config::Hetero3d, 1.0, &options);
        obs.manifest()
    };
    let seq = manifest_at(1);
    let par = manifest_at(4);
    assert!(seq.span("run_flow").is_some(), "run_flow span recorded");
    assert!(
        seq.counter("partition/final_cut").is_some(),
        "FM counters recorded"
    );
    assert!(
        seq.gauge("route/wirelength_um").is_some(),
        "routing gauges recorded"
    );
    assert_eq!(
        seq.deterministic_json(),
        par.deterministic_json(),
        "deterministic manifest section diverged between 1 and 4 threads"
    );
}

#[test]
fn global_thread_setting_is_also_invisible() {
    // `threads: 0` defers to the process-global knob; flip it around an
    // identical pair of runs. (Other tests in this binary may race on the
    // global — that is exactly the point: it must not matter.)
    let netlist = Benchmark::Aes.generate(0.01, 7);
    par::set_threads(1);
    let seq = fingerprint(&run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0),
    ));
    par::set_threads(4);
    let par_run = fingerprint(&run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0),
    ));
    par::set_threads(0);
    assert_eq!(seq, par_run, "global set_threads changed flow results");
}
