//! Instrumented flow run emitting the telemetry manifest as
//! `results/BENCH_flow.json`.
//!
//! Runs the heterogeneous flow with telemetry enabled twice — once forced
//! sequential, once at four workers — and asserts the deterministic
//! manifest sections (span call counts, counters, gauges, labels) are
//! **byte-identical**, the observability half of the workspace's
//! determinism contract. It then sweeps the 12-track 2-D configuration to
//! fmax under a scoped handle, at one worker and at four, and asserts the
//! two sweeps' deterministic sections equal too (the ladder walks rungs
//! one at a time, fastest first, and stops at the first that meets
//! timing, so a rung schedule that read the thread count would show
//! here). It runs the five-way configuration comparison to measure
//! checkpoint reuse (per comparison the pseudo-3-D stage must run exactly
//! once; the fmax ladder's probe builds its pre-sizing prefix — a
//! perf-only `flow/prefix_runs` — and every rung walked plus the
//! never-met retry forks it, exactly, in the sweep as in the
//! comparison), and writes one manifest: its
//! `deterministic` section holds the flow run's, the fmax sweep's and the
//! comparison's deterministic telemetry, its `perf` section the full
//! manifests (wall times, allocator gauges) of both runs and the 1-thread
//! sweep. The binary
//! installs [`hetero3d::obs::CountingAlloc`], so each instrumented flow
//! run also reports `alloc/peak_bytes` and `alloc/churn_bytes` in its
//! performance section.
//!
//! Usage: `flow_obs [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! The default scale is the CI smoke setting (0.02), smaller than
//! `paper`'s: the gate needs a fast, exactly
//! reproducible datapoint, not a paper-scale one.

use hetero3d::cost::CostModel;
use hetero3d::flow::{try_compare_configs, try_find_fmax, try_run_flow, Config, FlowOptions};
use hetero3d::netgen::Benchmark;
use hetero3d::obs::{alloc, Manifest, Obs};

#[global_allocator]
static ALLOC: hetero3d::obs::CountingAlloc = hetero3d::obs::CountingAlloc;

/// Runs `f` with the peak tracker restarted, then records the phase's
/// peak live heap and allocation churn on `obs`. Allocator traffic moves
/// with thread scheduling, so both land in the performance-only section
/// of the manifest — never the deterministic one.
fn with_alloc_gauges<T>(obs: &Obs, f: impl FnOnce() -> T) -> T {
    alloc::reset_peak();
    let churn0 = alloc::total_allocated_bytes();
    let out = f();
    obs.perf_add("alloc/peak_bytes", alloc::peak_bytes());
    obs.perf_add("alloc/churn_bytes", alloc::total_allocated_bytes() - churn0);
    out
}

fn instrumented(base: &FlowOptions, threads: usize) -> FlowOptions {
    FlowOptions {
        threads,
        obs: Obs::enabled(),
        ..base.clone()
    }
}

/// The prefix forks an fmax sweep books: one per ladder rung it walked
/// (a `fmax/rung<i>/run_flow` span) plus the never-met retry.
fn ladder_forks(m: &Manifest) -> u64 {
    let walked: u64 = m
        .spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix("fmax/rung")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(i, span)| i.parse::<usize>().is_ok() && span == "run_flow")
        })
        .map(|s| s.calls)
        .sum();
    walked + m.span("fmax/relaxed/run_flow").map_or(0, |s| s.calls)
}

fn main() {
    let args = m3d_bench::parse_args(0.02);
    let netlist = Benchmark::Aes.generate(args.scale, args.seed);
    let base = m3d_bench::bench_options();

    // The identity check: one worker vs four, same netlist, same knobs.
    let seq_options = instrumented(&base, 1);
    let par_options = instrumented(&base, 4);
    with_alloc_gauges(&seq_options.obs, || {
        try_run_flow(&netlist, Config::Hetero3d, 1.0, &seq_options).expect("flow")
    });
    with_alloc_gauges(&par_options.obs, || {
        try_run_flow(&netlist, Config::Hetero3d, 1.0, &par_options).expect("flow")
    });
    let seq = seq_options.obs.manifest();
    let par = par_options.obs.manifest();
    assert_eq!(
        seq.deterministic_json(),
        par.deterministic_json(),
        "telemetry determinism violated: 1-thread and 4-thread manifests differ"
    );

    // Fmax sweep coverage: probe/rung/relaxed spans under one handle,
    // at one worker and at four. Which rungs the ladder walks depends on
    // their results alone, so the two manifests must agree.
    let fmax_options = instrumented(&base, 1);
    let fmax_par_options = instrumented(&base, 4);
    let (fmax_ghz, _) =
        try_find_fmax(&netlist, Config::TwoD12T, &fmax_options, 1.0).expect("fmax sweep");
    let (fmax_par_ghz, _) =
        try_find_fmax(&netlist, Config::TwoD12T, &fmax_par_options, 1.0).expect("fmax sweep");
    let fmax = fmax_options.obs.manifest();
    assert_eq!(
        (fmax_ghz.to_bits(), fmax.deterministic_json()),
        (
            fmax_par_ghz.to_bits(),
            fmax_par_options.obs.manifest().deterministic_json()
        ),
        "fmax determinism violated: the 1-thread and 4-thread sweeps differ"
    );
    let built: u64 = fmax
        .perf
        .iter()
        .filter(|(key, _)| key.ends_with("flow/prefix_runs"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(
        built, 1,
        "the fmax ladder must build its pre-sizing prefix exactly once"
    );
    assert_eq!(
        fmax.counter_sum("flow/prefix_forks"),
        ladder_forks(&fmax),
        "every rung the fmax ladder walks, and its retry, must fork the probe's prefix"
    );

    // Prefix reuse: a five-config comparison must run the pseudo-3-D
    // stage exactly once (all 3-D configs fork from one checkpoint) and
    // fork the fmax probe's pre-sizing prefix for every rung it walks —
    // summed over every scope, so a run that silently recomputed its own
    // shows up whatever prefix it booked under.
    let cmp_options = instrumented(&base, 0);
    let _ = try_compare_configs(&netlist, &cmp_options, &CostModel::default()).expect("comparison");
    let cmp = cmp_options.obs.manifest();
    let prefix_reuse = cmp.counter_sum("flow/pseudo3d_runs");
    assert_eq!(
        prefix_reuse, 1,
        "compare_configs ran the pseudo-3-D stage {prefix_reuse} times; \
         the shared checkpoint should make it exactly 1"
    );
    assert_eq!(
        cmp.counter_sum("flow/prefix_forks"),
        ladder_forks(&cmp),
        "compare_configs must fork the fmax probe's prefix for every rung it walks"
    );

    m3d_bench::write_manifest(
        &args,
        "flow",
        [
            ("fmax_ghz", fmax_ghz.into()),
            ("prefix_reuse", prefix_reuse.into()),
            ("run_flow", seq.deterministic_json()),
            ("fmax_sweep", fmax.deterministic_json()),
            ("compare_configs", cmp.deterministic_json()),
        ],
        [
            ("runtime_1t", seq.json()),
            ("runtime_4t", par.json()),
            ("fmax_sweep", fmax.json()),
        ],
    );
    let wall = |m: &Manifest| m.span("run_flow").map_or(0, |s| s.wall_ns) as f64 / 1e6;
    println!(
        "flow_obs: deterministic sections bit-identical at 1 and 4 threads \
         ({} spans, {} counters) | run_flow {:.1} ms seq vs {:.1} ms par | fmax {:.3} GHz \
         | compare_configs pseudo3d runs = {prefix_reuse}",
        seq.spans.len(),
        seq.counters.len(),
        wall(&seq),
        wall(&par),
        fmax_ghz,
    );
}
