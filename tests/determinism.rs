//! Determinism regression tests for the parallel flow engine.
//!
//! The contract under test: every result a `FlowSession` produces —
//! a run or a five-way comparison — is **bit-identical** at any thread
//! count. Threads
//! are a performance knob only and may change wall-clock time but never a
//! single output bit.
//!
//! Two settings are in play. The kernels read only the process-wide count
//! (`par::set_threads`, falling back to `HETERO3D_THREADS`) and take their
//! parallel branches only on designs of at least `par::PAR_THRESHOLD`
//! cells; the two dies' legalization jobs read the same count at any size.
//! `FlowOptions::threads` sizes only the comparison's and the grid's
//! run-level fan-outs. So the kernel tests set the process-wide count,
//! under [`THREADS`] so that no other test moves it mid-pair, and include
//! a netlist above the threshold.

use hetero3d::cost::CostModel;
use hetero3d::flow::{Comparison, Config, FlowOptions, FlowSession, Implementation};
use hetero3d::json::{Obj, Value};
use hetero3d::netgen::{scale_netlist, Benchmark};
use hetero3d::par;
use hetero3d::tech::Tier;
use std::sync::{Mutex, PoisonError};

/// Held by every test that sets the process-wide thread count, across
/// both runs of its pair.
static THREADS: Mutex<()> = Mutex::new(());

/// `f` run with the process-wide count at 1 and then at `threads` (`0`:
/// the default count), the lock held throughout.
fn at_one_and<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
    let _held = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    par::set_threads(1);
    let one = f();
    par::set_threads(threads);
    let other = f();
    par::set_threads(0);
    (one, other)
}

/// Netcard at 0.06 (2 811 cells): above the threshold, so its kernels
/// take their parallel branches.
fn above_threshold() -> hetero3d::netlist::Netlist {
    let netlist = Benchmark::Netcard.generate(0.06, 7);
    assert!(
        netlist.cell_count() >= par::PAR_THRESHOLD,
        "{} cells: below the kernels' parallel threshold",
        netlist.cell_count()
    );
    netlist
}

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
    FlowSession::builder(n)
        .options(o.clone())
        .build()
        .and_then(|s| s.run(c, f))
        .expect("flow succeeds on a valid netlist")
}

fn compare_configs(
    n: &hetero3d::netlist::Netlist,
    o: &FlowOptions,
    cost: &CostModel,
) -> Comparison {
    FlowSession::builder(n)
        .options(o.clone())
        .build()
        .and_then(|s| s.compare(cost))
        .expect("comparison succeeds on a valid netlist")
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
    let netlists = [
        Benchmark::Aes.generate(0.01, 7),
        Benchmark::Ldpc.generate(0.01, 7),
        above_threshold(),
    ];
    for netlist in &netlists {
        for config in ALL_CONFIGS {
            let (one, four) = at_one_and(4, || {
                fingerprint(&run_flow(netlist, config, 1.0, &quick_options(0)))
            });
            assert_eq!(
                four, one,
                "{}/{config:?}: 4 threads diverged from 1",
                netlist.name
            );
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
    let netlist = above_threshold();
    let manifest = || {
        let mut options = quick_options(0);
        options.obs = hetero3d::obs::Obs::enabled();
        let obs = options.obs.clone();
        let _ = run_flow(&netlist, Config::Hetero3d, 1.0, &options);
        obs.manifest()
    };
    let (seq, par) = at_one_and(4, manifest);
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
    // `threads: 0` defers the comparison's fan-out to the process-global
    // knob too, so flipping it moves both levels of parallelism at once:
    // five configurations side by side, each with parallel kernels.
    let netlist = above_threshold();
    let cost = CostModel::default();
    let (seq, par_run) = at_one_and(4, || {
        let c = compare_configs(&netlist, &quick_options(0), &cost);
        let mut fingerprints: Vec<_> = c.implementations.iter().map(fingerprint).collect();
        fingerprints.push(fingerprint(&c.hetero_implementation));
        fingerprints
    });
    assert_eq!(
        seq, par_run,
        "global set_threads changed comparison results"
    );
}

/// The scale ladder: a Hetero-3-D flow at 0.5 GHz on the 100 k-, 160 k-
/// and 250 k-target `scale_netlist` (seed 7) at the paper's options, at
/// one thread and at the default count. Only designs this large run every
/// kept parallel site on several workers — the placer's sweeps, the
/// router's Prim planning, the full seed's wide forward STA levels, the
/// two dies' legalization jobs — so this is where 1 thread ≡ n threads
/// holds for them. Each rung's sizes and sign-off WNS are
/// `tests/golden/scale.json`.
#[test]
#[ignore = "100k–250k-cell flows: run with `cargo test --release --test determinism -- --ignored`"]
fn scale_ladder_is_its_golden_at_one_and_the_default_thread_count() {
    let options = m3d_bench::bench_options();
    let ladder = || {
        let rungs: Vec<Value> = [100_000usize, 160_000, 250_000]
            .into_iter()
            .map(|target| {
                let netlist = scale_netlist(target, 7);
                let imp = run_flow(&netlist, Config::Hetero3d, 0.5, &options);
                Obj::new()
                    .put("name", format!("scale{}k", target / 1000))
                    .put("target_cells", target)
                    .put("cells", netlist.cell_count())
                    .put("nets", netlist.net_count())
                    .put("pins", netlist.stats().pins)
                    .put("arena_bytes", netlist.name_arena_bytes())
                    .put("wns_ns", imp.sta.wns)
                    .build()
            })
            .collect();
        Obj::new()
            .put("scale", 1.0)
            .put("seed", 7u64)
            .put("frequency_ghz", 0.5)
            .put("rungs", rungs)
            .build()
    };
    let (one, default) = at_one_and(0, ladder);
    m3d_bench::assert_golden("scale", &one);
    assert_eq!(
        default.render(),
        one.render(),
        "the default thread count diverged from one thread"
    );
}
