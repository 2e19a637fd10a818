//! CI bench gate: checks that the deterministic output of the manifest
//! benches has not moved.
//!
//! Usage: `bench_gate [--fresh <dir>] [--baseline <dir>] [--only <stem>]`
//! (defaults: fresh `fresh/`, baseline `results/`, every stem of
//! `m3d_bench::MANIFESTS`). For each manifest it applies the one rule,
//! [`m3d_bench::gate`]: the fresh `deterministic` section must equal the
//! baseline's; every differing path is printed. `perf` (threads, walls,
//! throughput, heap) is never compared — wall-clock performance is the
//! `benchmark/` package's job.

use m3d_bench::{gate, MANIFESTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut fresh = PathBuf::from("fresh");
    let mut baseline = PathBuf::from("results");
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--fresh" if !value.is_empty() => fresh = value.into(),
            "--baseline" if !value.is_empty() => baseline = value.into(),
            "--only" if MANIFESTS.contains(&value.as_str()) => only = Some(value),
            _ => {
                eprintln!(
                    "bench_gate: bad argument {flag} {value:?}\nusage: bench_gate \
                     [--fresh <dir>] [--baseline <dir>] [--only {}]",
                    MANIFESTS.join("|")
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = 0;
    for stem in MANIFESTS
        .into_iter()
        .filter(|s| only.as_deref().is_none_or(|o| o == *s))
    {
        let failures = gate(&fresh, &baseline, stem);
        if failures.is_empty() {
            println!("  ok   BENCH_{stem}.json: deterministic section matches the baseline");
        } else {
            println!("  FAIL BENCH_{stem}.json:");
            for failure in &failures {
                println!("         {failure}");
            }
            failed += 1;
        }
    }
    if failed == 0 {
        return ExitCode::SUCCESS;
    }
    println!(
        "bench_gate: {failed} manifest(s) moved. If the change is intentional, regenerate \
         them (`sta_incr --scale 0.02`, `flow_obs`, `scale_bench`, `pareto_bench`, each at \
         HETERO3D_THREADS=1) and commit results/."
    );
    ExitCode::FAILURE
}
