//! The repo's benchmark: one command runs one workload, checks its
//! outputs and prints every metric by name (see `README.md`).
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//! benchmark --print-manifest        # BENCHMARK.json from the registry
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics from an
//! untraced run, the per-layer metrics from a traced one. The exit code
//! is non-zero when any operation or check failed.

mod check;
mod inputs;
mod metrics;
mod paper_tables;
mod sampler;
mod scale_flow;
mod serve;
mod serve_probes;
mod stages;
mod trace;

use check::Tally;
use metrics::{Def, Readings, END_TO_END, PER_LAYER};
use sampler::Samples;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Heap accounting for `peak_heap_mb` / `flow.alloc_churn_mb`. Installed
/// in every run, traced or not, so both see the same allocator.
#[global_allocator]
static ALLOC: hetero3d::obs::CountingAlloc = hetero3d::obs::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 25;
const DEFAULT_SEED: u64 = 7;

type Workload = (&'static str, &'static str, fn(&Ctx) -> Outcome);

const WORKLOADS: [Workload; 4] = [
    (
        "scale_flow",
        "cold Hetero3d flows on a 250k-cell netlist: place/FM/legalize/route/STA do all the work, ECO/sizing/serving none",
        scale_flow::run,
    ),
    (
        "paper_tables",
        "the paper's use at quarter scale: five-config comparisons on its four netlists and an 18-point Pareto grid; ECO, sizing and incremental STA dominate",
        paper_tables::run,
    ),
    (
        "serve_hot",
        "closed loop over TCP on 2 resident keys: every request is a memory hit, so the cache and store are bypassed",
        serve::run_hot,
    ),
    (
        "serve_churn",
        "same requests over 10 keys against 4 cache slots from an empty store: cold builds, spills and disk rehydration",
        serve::run_churn,
    ),
];

pub fn workload_table() -> Vec<(&'static str, &'static str)> {
    WORKLOADS.iter().map(|w| (w.0, w.1)).collect()
}

/// What a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Logical CPUs available; no workload runs more busy threads.
    pub nproc: usize,
    /// Scratch and trace output, inside the benchmark's own directory.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Pins the flow's thread count for this run, both in the options it
    /// returns and process-wide (kernels that take no options resolve the
    /// global count), so that `HETERO3D_THREADS` changes nothing.
    pub fn pin_threads(&self, threads: usize) -> hetero3d::flow::FlowOptions {
        hetero3d::par::set_threads(threads);
        inputs::flow_options(threads)
    }

    /// `--seconds` as an operation count at `seconds_per_op`.
    pub fn ops(&self, seconds_per_op: f64, min: usize) -> usize {
        ((self.seconds / seconds_per_op).round() as usize).max(min)
    }

    /// A fresh scratch directory under `out/`, removed by [`Scratch`]'s
    /// drop.
    pub fn scratch(&self, tag: &str) -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self.out_dir.join(format!(
            "tmp-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

/// A temporary directory removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub readings: Readings,
    /// Run facts recorded beside the metrics (workers, connections, ...).
    pub facts: Vec<(&'static str, String)>,
    /// Free-form lines for the human-readable part.
    pub notes: Vec<String>,
}

/// Runs `setup` `repeats` times, keeping the last product; the samples
/// are the set-up times in seconds (`setup_s` is their median).
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Samples) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        Samples::from_values(times),
    )
}

/// Bytes as MiB (the `MB` of the metric units).
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The commit of the enclosing checkout, read from `.git` by hand (the
/// benchmark starts no process); `unknown` outside a git checkout.
fn git_commit(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .ok(),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]\n\
         \x20      benchmark --print-manifest\nworkloads:"
    );
    for (name, why, _) in WORKLOADS {
        eprintln!("  {name:<13} {why}");
    }
    std::process::exit(2);
}

fn print_metric(def: &Def, readings: &Readings) -> String {
    let (value, spread) = readings
        .get(def.name)
        .map_or((0.0, "not exercised by this workload"), |r| {
            (r.value, r.spread.as_str())
        });
    println!(
        "  {:<30} {:>14.4} {:<9} {} is better | {}",
        def.name,
        value,
        def.unit,
        def.better.as_str(),
        spread
    );
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        def.name, value, def.unit
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, RUN_SECONDS as f64, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--print-manifest", _) => {
                print!("{}", metrics::manifest_json(RUN_SECONDS, &workload_table()));
                return;
            }
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse().unwrap_or_else(|_| usage()),
            ("--seconds", Some(v)) => seconds = v.parse().unwrap_or_else(|_| usage()),
            ("--trace", Some("0")) => trace = false,
            ("--trace", Some("1")) => trace = true,
            ("--trace", _) => {
                trace = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let Some(&(name, why, run)) = workload
        .as_deref()
        .and_then(|w| WORKLOADS.iter().find(|(n, _, _)| *n == w))
    else {
        if let Some(w) = workload {
            eprintln!("unknown workload `{w}`");
        }
        usage();
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        nproc,
        out_dir: bench_dir.join("out"),
    };

    let started = Instant::now();
    let out = run(&ctx);
    let commit = git_commit(bench_dir.parent().unwrap_or(bench_dir));

    println!(
        "== {name} (seed {seed}, {seconds} s nominal, trace {})",
        u8::from(trace)
    );
    println!("   why: {why}");
    print!("   nproc {nproc} | commit {commit}");
    for (k, v) in &out.facts {
        print!(" | {k} {v}");
    }
    println!(" | wall {:.1} s", started.elapsed().as_secs_f64());
    for note in &out.notes {
        println!("   {note}");
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        if !trace && out.readings.get(def.name).is_none() {
            panic!(
                "workload {name} did not report end-to-end metric {}",
                def.name
            );
        }
        fields.push(print_metric(def, &out.readings));
    }
    let t = &out.tally;
    println!(
        "   failed_ratio {:.6} ({} failed of {} attempted)",
        t.failed_ratio(),
        t.failed,
        t.attempted
    );
    for reason in &t.reasons {
        println!("   FAILED: {reason}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        fields.join(", ")
    );
    if t.failed > 0 {
        std::process::exit(1);
    }
}
