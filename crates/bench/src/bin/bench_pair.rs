//! Runs the repo's benchmark (`benchmark/`) on two revisions in
//! alternating pairs and prints what a before/after claim needs: every
//! pair, each side's median and quartiles, the win count and `nproc`.
//!
//! ```text
//! bench_pair --base <rev> --head <rev> --workload <name>[,<name>...] --dir <new dir>
//!            [--pairs <n>] [--seed <u64>] [--repo <path>]
//! ```
//!
//! Each revision's committed files are exported with `git archive` into
//! `<dir>/base` and `<dir>/head`, and each side's benchmark is built
//! there, offline, into that checkout's own fresh `benchmark/target`: a
//! reused target directory can read faster than a fresh one, so both
//! sides are built alike. `--dir` must not exist yet. Each workload
//! named runs its pairs in turn on the same two builds. Pair `i` runs the
//! base first when `i` is odd and the head first when it is even, from
//! each checkout's root, the way `BENCHMARK.json`'s command runs it.
//! Each run's last stdout line (the benchmark's JSON verdict) is kept in
//! `<dir>/runs.jsonl`. A working tree that is not committed can be
//! passed as `--head "$(git stash create)"` after `git add -A`.
//!
//! The exit code is non-zero when a build or any run failed.

use m3d_json::{parse_borrowed, Value};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// The command line.
struct Args {
    repo: PathBuf,
    base: String,
    head: String,
    workloads: Vec<String>,
    dir: PathBuf,
    pairs: usize,
    seed: u64,
}

fn usage(why: &str) -> ! {
    eprintln!("bench_pair: {why}");
    eprintln!(
        "usage: bench_pair --base <rev> --head <rev> --workload <name>[,<name>...] --dir <new dir> \
         [--pairs <n>] [--seed <u64>] [--repo <path>]"
    );
    exit(2)
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut base, mut head, mut workload, mut dir) = (None, None, None, None);
    let (mut repo, mut pairs, mut seed) = (PathBuf::from("."), 10, 7);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--base" => base = Some(value),
            "--head" => head = Some(value),
            "--workload" => workload = Some(value),
            "--dir" => dir = Some(value),
            "--repo" => repo = PathBuf::from(value),
            "--pairs" => pairs = value.parse().map_err(|_| bad())?,
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let need = |v: Option<_>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(Args {
        base: need(base, "--base")?,
        head: need(head, "--head")?,
        workloads: need(workload, "--workload")?
            .split(',')
            .map(String::from)
            .collect(),
        dir: need(dir, "--dir")?.into(),
        repo,
        pairs,
        seed,
    })
}

/// Runs `cmd`, failing with its stderr unless it exits with success.
fn run(cmd: &mut Command, what: &str) -> Result<Vec<u8>, String> {
    let out = cmd.output().map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out.stdout)
}

/// Exports `rev`'s committed files into `<dir>/<side>` (`dir` absolute)
/// and builds its benchmark there into a fresh `benchmark/target`;
/// returns the checkout and the full commit id.
fn prepare(repo: &Path, rev: &str, dir: &Path, side: &str) -> Result<(PathBuf, String), String> {
    let sha = run(
        Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(["rev-parse", "--verify"])
            .arg(format!("{rev}^{{commit}}")),
        &format!("resolve {rev}"),
    )?;
    let sha = String::from_utf8_lossy(&sha).trim().to_string();
    let (checkout, tar) = (dir.join(side), dir.join(format!("{side}.tar")));
    fs::create_dir(&checkout).map_err(|e| format!("{}: {e}", checkout.display()))?;
    run(
        Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(["archive", "--output"])
            .arg(&tar)
            .arg(&sha),
        &format!("archive {sha}"),
    )?;
    run(
        Command::new("tar")
            .arg("-xf")
            .arg(&tar)
            .arg("-C")
            .arg(&checkout),
        "extract",
    )?;
    fs::remove_file(&tar).map_err(|e| format!("{}: {e}", tar.display()))?;
    eprintln!("building {rev} ({sha}) in {}", checkout.display());
    run(
        Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
            ])
            .arg(checkout.join("benchmark/Cargo.toml"))
            .env_remove("CARGO_TARGET_DIR")
            .env_remove("CARGO_BUILD_TARGET_DIR"),
        &format!("build {rev}"),
    )?;
    Ok((checkout, sha))
}

/// One run of `checkout`'s built benchmark from the checkout's root: its
/// JSON verdict line, or why it failed.
fn run_once(checkout: &Path, workload: &str, seed: u64) -> Result<String, String> {
    let out = Command::new(checkout.join("benchmark/target/release/benchmark"))
        .current_dir(checkout)
        .args(["--workload", workload, "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if out.status.success() {
        Ok(last)
    } else {
        Err(format!("{}: {last}", out.status))
    }
}

/// `metrics.<name>.value` of every metric in a verdict line.
fn metrics_of(verdict: &str) -> Result<Vec<(String, f64)>, String> {
    let v = parse_borrowed(verdict)?;
    match v.get("metrics") {
        Some(Value::Obj(members)) => Ok(members
            .iter()
            .filter_map(|(k, m)| Some((k.to_string(), m.get("value")?.as_f64()?)))
            .collect()),
        _ => Err("verdict has no metrics object".into()),
    }
}

/// Whether each metric `BENCHMARK.json` declares is better higher.
fn directions(manifest: &str) -> Result<Vec<(String, bool)>, String> {
    let v = parse_borrowed(manifest)?;
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in v.get(list).and_then(Value::as_arr).unwrap_or_default() {
            if let (Some(name), Some(better)) = (
                m.get("name").and_then(Value::as_str),
                m.get("better").and_then(Value::as_str),
            ) {
                out.push((name.to_string(), better == "higher"));
            }
        }
    }
    Ok(out)
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// How many pairs the head side wins outright.
fn head_wins(base: &[f64], head: &[f64], higher_is_better: bool) -> usize {
    base.iter()
        .zip(head)
        .filter(|(b, h)| if higher_is_better { h > b } else { h < b })
        .count()
}

/// One metric's block: every pair, both sides' quartiles, the wins.
fn report(name: &str, higher: bool, first: &[&str], base: &[f64], head: &[f64]) -> String {
    let mut s = String::new();
    let better = if higher { "higher" } else { "lower" };
    let _ = writeln!(s, "{name} ({better} is better)");
    let _ = writeln!(s, "  pair  first  {:>12}  {:>12}", "base", "head");
    for (i, ((b, h), f)) in base.iter().zip(head).zip(first).enumerate() {
        let _ = writeln!(s, "  {:>4}  {f:<5}  {b:>12.5}  {h:>12.5}", i + 1);
    }
    let (bq1, bm, bq3) = quartiles(base);
    let (hq1, hm, hq3) = quartiles(head);
    let _ = writeln!(s, "  median       {bm:>12.5}  {hm:>12.5}");
    let _ = writeln!(s, "  q1           {bq1:>12.5}  {hq1:>12.5}");
    let _ = writeln!(s, "  q3           {bq3:>12.5}  {hq3:>12.5}");
    let shift = hm - bm;
    let pct = if bm == 0.0 { 0.0 } else { 100.0 * shift / bm };
    let _ = writeln!(
        s,
        "  head wins {}/{}; median shift {shift:+.5} ({pct:+.1} %); base IQR {:.5}",
        head_wins(base, head, higher),
        base.len(),
        bq3 - bq1
    );
    s
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    if args.dir.exists() {
        usage(&format!(
            "{} exists; give a new directory",
            args.dir.display()
        ));
    }
    let fail = |e: String| -> ! {
        eprintln!("bench_pair: {e}");
        exit(1)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = fs::create_dir_all(&args.dir)
        .and_then(|()| fs::canonicalize(&args.dir))
        .unwrap_or_else(|e| fail(format!("{}: {e}", args.dir.display())));
    let sides = [("base", &args.base), ("head", &args.head)];
    let mut checkouts = Vec::new();
    let mut shas = Vec::new();
    for (side, rev) in sides {
        let (checkout, sha) = prepare(&args.repo, rev, &dir, side).unwrap_or_else(|e| fail(e));
        checkouts.push(checkout);
        shas.push(sha);
    }
    let manifest = fs::read_to_string(checkouts[1].join("BENCHMARK.json")).unwrap_or_default();
    let directions = directions(&manifest).unwrap_or_else(|e| fail(e));

    let mut log = fs::File::create(dir.join("runs.jsonl")).unwrap_or_else(|e| fail(e.to_string()));
    println!("== bench_pair | nproc {nproc}");
    println!("   base {} ({})", args.base, shas[0]);
    println!("   head {} ({})", args.head, shas[1]);
    let mut failures = 0;
    for workload in &args.workloads {
        // Per side, per pair: the metrics of that run.
        let mut readings: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        let mut first = Vec::new();
        let mut failed = 0;
        for pair in 1..=args.pairs {
            let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
            first.push(sides[order[0]].0);
            for side in order {
                let verdict = run_once(&checkouts[side], workload, args.seed);
                let line = verdict.as_deref().unwrap_or("null");
                let _ = writeln!(
                    log,
                    "{{\"workload\": \"{workload}\", \"pair\": {pair}, \"side\": \"{}\", \"verdict\": {line}}}",
                    sides[side].0
                );
                match verdict.and_then(|v| metrics_of(&v)) {
                    Ok(m) => readings[side].push(m),
                    Err(e) => {
                        failed += 1;
                        eprintln!("{workload} pair {pair} {}: FAILED {e}", sides[side].0);
                        readings[side].push(Vec::new());
                    }
                }
            }
        }
        println!(
            "\n== {workload} (seed {}, {} pairs, {failed} failed runs)",
            args.seed, args.pairs
        );
        let mut names: Vec<&String> = Vec::new();
        for (name, _) in readings.iter().flatten().flatten() {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        for name in names {
            let series = |side: usize| -> Vec<f64> {
                readings[side]
                    .iter()
                    .map(|m| m.iter().find(|(k, _)| k == name).map_or(f64::NAN, |p| p.1))
                    .collect()
            };
            let higher = directions.iter().any(|(k, h)| k == name && *h);
            print!("{}", report(name, higher, &first, &series(0), &series(1)));
        }
        failures += failed;
    }
    if failures > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn wins_follow_the_metrics_direction() {
        let (base, head) = ([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]);
        assert_eq!(head_wins(&base, &head, true), 1);
        assert_eq!(head_wins(&base, &head, false), 1);
    }

    #[test]
    fn a_verdict_line_reads_as_its_metrics() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"points_per_s": {"value": 0.41, "unit": "points/s"}, "setup_s": {"value": 1.5, "unit": "s"}}}"#;
        assert_eq!(
            metrics_of(line).unwrap(),
            [
                ("points_per_s".to_string(), 0.41),
                ("setup_s".to_string(), 1.5)
            ]
        );
        let manifest = r#"{"end_to_end": [{"name": "points_per_s", "better": "higher"}], "per_layer": [{"name": "partition.fm_ms", "better": "lower"}]}"#;
        assert_eq!(
            directions(manifest).unwrap(),
            [
                ("points_per_s".to_string(), true),
                ("partition.fm_ms".to_string(), false)
            ]
        );
    }

    #[test]
    fn the_command_line_needs_both_revisions_and_a_directory() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok =
            args("--base a --head b --workload scale_flow,serve_hot --dir d --pairs 4").unwrap();
        assert_eq!((ok.pairs, ok.seed), (4, 7));
        assert_eq!(ok.workloads, ["scale_flow", "serve_hot"]);
        assert!(args("--base a --workload w --dir d").is_err());
        assert!(args("--base a --head b --workload w --dir d --pairs 0").is_err());
        assert!(args("--base a --head b --workload w --dir d --bogus 1").is_err());
        assert!(args("--base").is_err());
    }
}
