//! Shared harness for the `paper` binary and the four manifest benches.
//!
//! Every binary accepts `--scale <f64>` (netlist size relative to the
//! workspace defaults; the tables' [`TABLE_SCALE`] keeps a full run within
//! seconds per config), `--seed <u64>` and `--out <dir>`, and rejects
//! anything else with a typed [`ArgError`]. `paper` writes every table
//! and figure [`paper_outputs`] returns: it prints each to stdout and
//! mirrors it into `results/<name>`.
//!
//! The manifest benches (`sta_incr`, `flow_obs`, `scale_bench`,
//! `pareto_bench`) write `results/BENCH_<stem>.json` through
//! [`write_manifest`], all in one shape: `{"bench", "deterministic",
//! "perf"}`. `deterministic` holds the run parameters and everything the
//! determinism contract fixes (counts, telemetry manifests, sign-off
//! numbers); `perf` holds the thread count and everything measured off a
//! clock or an allocator. [`gate`] is the CI rule over them: a fresh
//! `deterministic` section must equal the committed one.

mod paper;

pub use paper::paper_outputs;

use hetero3d::flow::FlowOptions;
use m3d_json::{pretty, Obj, Value};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Default `--scale` of the `paper` binary.
pub const TABLE_SCALE: f64 = 0.06;

/// The manifests [`gate`] knows, by stem: `results/BENCH_<stem>.json`.
pub const MANIFESTS: [&str; 4] = ["sta", "flow", "scale", "pareto"];

/// Parsed command-line arguments of a bench binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Netlist scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Output directory (default `results/`).
    pub out_dir: PathBuf,
}

/// A command line a bench binary refuses to guess about.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// `--scale` or `--seed` with a value that does not parse.
    Unparsable { flag: String, value: String },
    /// A `--scale` that is not a finite positive number.
    BadScale(f64),
    /// A flag with no value after it.
    MissingValue(String),
    /// A flag the harness does not know.
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unparsable { flag, value } => write!(f, "{flag}: cannot parse {value:?}"),
            ArgError::BadScale(v) => write!(f, "--scale must be finite and positive, got {v}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `--scale`, `--seed` and `--out` from `args` (program name
/// excluded), starting from `default_scale`, seed 7 and `results/`.
///
/// # Errors
///
/// Returns the first [`ArgError`] on the line.
pub fn try_parse_args(
    args: impl IntoIterator<Item = String>,
    default_scale: f64,
) -> Result<BenchArgs, ArgError> {
    let mut out = BenchArgs {
        scale: default_scale,
        seed: 7,
        out_dir: PathBuf::from("results"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !matches!(flag.as_str(), "--scale" | "--seed" | "--out") {
            return Err(ArgError::UnknownFlag(flag));
        }
        let Some(value) = args.next() else {
            return Err(ArgError::MissingValue(flag));
        };
        let unparsable = || ArgError::Unparsable {
            flag: flag.clone(),
            value: value.clone(),
        };
        match flag.as_str() {
            "--scale" => out.scale = value.parse().map_err(|_| unparsable())?,
            "--seed" => out.seed = value.parse().map_err(|_| unparsable())?,
            _ => out.out_dir = PathBuf::from(value),
        }
    }
    if out.scale.is_finite() && out.scale > 0.0 {
        Ok(out)
    } else {
        Err(ArgError::BadScale(out.scale))
    }
}

/// [`try_parse_args`] over `std::env::args`; on an error, prints it and
/// exits with status 2.
#[must_use]
pub fn parse_args(default_scale: f64) -> BenchArgs {
    try_parse_args(std::env::args().skip(1), default_scale).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: [--scale <f64>] [--seed <u64>] [--out <dir>]");
        std::process::exit(2)
    })
}

/// The flow options of every paper table and figure (slightly reduced
/// placer effort relative to the library default, for runtime).
#[must_use]
pub fn bench_options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 12;
    o
}

/// Prints `content` and mirrors it to `<out_dir>/<name>`.
///
/// # Panics
///
/// Panics if the output directory cannot be created or written.
pub fn emit(args: &BenchArgs, name: &str, content: &str) {
    println!("{content}");
    fs::create_dir_all(&args.out_dir).expect("create results dir");
    let path = args.out_dir.join(name);
    fs::write(&path, content).expect("write result file");
    eprintln!("[saved {}]", path.display());
}

/// Writes `<out_dir>/BENCH_<stem>.json`: `deterministic` opens with the
/// run's `scale` and `seed`, `perf` with the resolved `threads`. Returns
/// the document.
pub fn write_manifest<'a>(
    args: &BenchArgs,
    stem: &'a str,
    deterministic: impl IntoIterator<Item = (&'a str, Value<'a>)>,
    perf: impl IntoIterator<Item = (&'a str, Value<'a>)>,
) -> Value<'a> {
    let section = |head: Obj<'a>, members: Vec<(&'a str, Value<'a>)>| {
        members
            .into_iter()
            .fold(head, |o, (k, v)| o.put(k, v))
            .build()
    };
    let doc = Obj::new()
        .put("bench", stem)
        .put(
            "deterministic",
            section(
                Obj::new().put("scale", args.scale).put("seed", args.seed),
                deterministic.into_iter().collect(),
            ),
        )
        .put(
            "perf",
            section(
                Obj::new().put("threads", hetero3d::par::resolve(0)),
                perf.into_iter().collect(),
            ),
        )
        .build();
    let mut text = String::new();
    pretty(&doc, 0, &mut text);
    text.push('\n');
    emit(args, &format!("BENCH_{stem}.json"), &text);
    doc
}

/// The one CI gate rule: the `deterministic` section of
/// `<fresh_dir>/BENCH_<stem>.json` must equal the baseline's. Returns one
/// line per failure — a file that does not load, or a path whose value
/// differs or exists on one side only — so an empty list is a pass.
/// `perf` is never read.
#[must_use]
pub fn gate(fresh_dir: &Path, baseline_dir: &Path, stem: &str) -> Vec<String> {
    let load = |dir: &Path| {
        let path = dir.join(format!("BENCH_{stem}.json"));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc =
            m3d_json::parse_borrowed(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        doc.get("deterministic")
            .map(|section| section.clone().into_owned())
            .ok_or_else(|| format!("{}: no deterministic section", path.display()))
    };
    match (load(fresh_dir), load(baseline_dir)) {
        (Ok(fresh), Ok(baseline)) => {
            let mut failures = Vec::new();
            diff(
                &fresh,
                &baseline,
                &format!("{stem}/deterministic"),
                &mut failures,
            );
            failures
        }
        (fresh, baseline) => [fresh.err(), baseline.err()]
            .into_iter()
            .flatten()
            .collect(),
    }
}

/// Appends every path under which `fresh` and `baseline` differ.
fn diff(fresh: &Value, baseline: &Value, path: &str, out: &mut Vec<String>) {
    match (fresh, baseline) {
        (Value::Obj(f), Value::Obj(b)) => {
            for (k, fv) in f {
                match baseline.get(k) {
                    Some(bv) => diff(fv, bv, &format!("{path}/{k}"), out),
                    None => out.push(format!("{path}/{k}: missing from baseline")),
                }
            }
            for (k, _) in b.iter().filter(|(k, _)| fresh.get(k).is_none()) {
                out.push(format!("{path}/{k}: missing from fresh run"));
            }
        }
        (Value::Arr(f), Value::Arr(b)) if f.len() == b.len() => {
            for (i, (fv, bv)) in f.iter().zip(b).enumerate() {
                diff(fv, bv, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Arr(f), Value::Arr(b)) => {
            out.push(format!("{path}: {} items, baseline {}", f.len(), b.len()));
        }
        _ if fresh == baseline => {}
        _ => out.push(format!("{path}: {fresh} != baseline {baseline}")),
    }
}

/// The README's "Running at scale" table, rendered from a
/// `BENCH_scale.json` manifest: names and cell counts from its
/// deterministic rungs, walls and heap from the perf rungs. `scale_bench`
/// prints it after every ladder run and a unit test holds the README to
/// the committed manifest, so the two cannot drift apart.
///
/// # Panics
///
/// Panics if the manifest lacks a field `scale_bench` always writes.
#[must_use]
pub fn scale_table_markdown(manifest: &Value) -> String {
    let mut out = String::from(
        "| rung | cells | full-flow wall | throughput | peak heap |\n|---|---|---|---|---|\n",
    );
    let rungs = |section: &str| {
        manifest
            .path(&format!("{section}/rungs"))
            .and_then(Value::as_arr)
            .expect("manifest has rungs")
    };
    for (det, perf) in rungs("deterministic").iter().zip(rungs("perf")) {
        let num = |rung: &Value, key: &str| rung.get(key).and_then(Value::as_f64).expect(key);
        let name = det.get("name").and_then(Value::as_str).expect("name");
        let cells = num(det, "cells") as u64;
        out.push_str(&format!(
            "| `{name}` | {} {:03} | {:.1} s | ~{:.0} k cells/s | {:.0} MiB |\n",
            cells / 1000,
            cells % 1000,
            num(perf, "flow_s"),
            num(perf, "flow_cells_per_sec") / 1e3,
            num(perf, "peak_heap_bytes") / (1024.0 * 1024.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    fn args(line: &str) -> Result<BenchArgs, ArgError> {
        try_parse_args(line.split_whitespace().map(String::from), 0.5)
    }

    #[test]
    fn args_default_to_the_bins_scale_and_parse_every_flag() {
        assert_eq!(
            args(""),
            Ok(BenchArgs {
                scale: 0.5,
                seed: 7,
                out_dir: PathBuf::from("results"),
            })
        );
        let a = args("--scale 0.02 --seed 9 --out fresh").expect("valid line");
        assert_eq!((a.scale, a.seed), (0.02, 9));
        assert_eq!(a.out_dir, PathBuf::from("fresh"));
    }

    #[test]
    fn an_unparsable_scale_or_seed_is_rejected() {
        let unparsable = |flag: &str, value: &str| {
            Err(ArgError::Unparsable {
                flag: flag.into(),
                value: value.into(),
            })
        };
        assert_eq!(args("--scale tiny"), unparsable("--scale", "tiny"));
        assert_eq!(args("--seed -3"), unparsable("--seed", "-3"));
    }

    #[test]
    fn a_non_finite_or_non_positive_scale_is_rejected() {
        assert_eq!(args("--scale 0"), Err(ArgError::BadScale(0.0)));
        assert_eq!(args("--scale -1"), Err(ArgError::BadScale(-1.0)));
        assert_eq!(args("--scale inf"), Err(ArgError::BadScale(f64::INFINITY)));
        assert!(matches!(args("--scale NaN"), Err(ArgError::BadScale(v)) if v.is_nan()));
    }

    #[test]
    fn a_flag_without_a_value_is_rejected() {
        assert_eq!(
            args("--seed 3 --scale"),
            Err(ArgError::MissingValue("--scale".into()))
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        assert_eq!(
            args("--scale 1 --threads 4"),
            Err(ArgError::UnknownFlag("--threads".into()))
        );
    }

    /// A scratch directory holding a `BENCH_t.json` with this
    /// `deterministic` section; its `perf` names the tag, so no two
    /// directories agree on it.
    fn manifest_dir(tag: &str, deterministic: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("m3d-gate-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let doc = format!(
            r#"{{"bench": "t", "deterministic": {deterministic}, "perf": {{"run": "{tag}"}}}}"#
        );
        fs::write(dir.join("BENCH_t.json"), doc).unwrap();
        dir
    }

    const BASE: &str = r#"{"scale": 0.02, "rungs": [{"cells": 10, "wns_ns": -1.5}]}"#;

    #[test]
    fn equal_deterministic_sections_pass_whatever_perf_says() {
        let baseline = manifest_dir("base", BASE);
        let fresh = manifest_dir("perf-only", BASE);
        assert_eq!(gate(&fresh, &baseline, "t"), Vec::<String>::new());
    }

    #[test]
    fn a_changed_leaf_fails_and_names_its_path() {
        let baseline = manifest_dir("base2", BASE);
        let fresh = manifest_dir("leaf", &BASE.replace("-1.5", "-1.25"));
        assert_eq!(
            gate(&fresh, &baseline, "t"),
            ["t/deterministic/rungs[0]/wns_ns: -1.25 != baseline -1.5"]
        );
    }

    #[test]
    fn a_key_missing_on_either_side_fails() {
        let baseline = manifest_dir("base3", BASE);
        let fresh = manifest_dir("renamed", &BASE.replace("cells", "nets"));
        assert_eq!(
            gate(&fresh, &baseline, "t"),
            [
                "t/deterministic/rungs[0]/nets: missing from baseline",
                "t/deterministic/rungs[0]/cells: missing from fresh run",
            ]
        );
    }

    #[test]
    fn a_missing_fresh_file_fails() {
        let baseline = manifest_dir("base4", BASE);
        let failures = gate(&baseline.join("absent"), &baseline, "t");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("BENCH_t.json"), "{failures:?}");
    }

    #[test]
    fn every_committed_manifest_has_exactly_the_three_sections() {
        let mut stems = Vec::new();
        for entry in fs::read_dir(format!("{ROOT}/results")).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(stem) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            let text = fs::read_to_string(format!("{ROOT}/results/{name}")).unwrap();
            let Value::Obj(members) = m3d_json::parse_borrowed(&text).unwrap() else {
                panic!("{name} is not an object");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["bench", "deterministic", "perf"], "{name}");
            stems.push(stem.to_string());
        }
        stems.sort();
        let mut known = MANIFESTS.map(String::from).to_vec();
        known.sort();
        assert_eq!(stems, known, "results/ holds exactly the gated manifests");
    }

    /// Each committed manifest is byte for byte what [`write_manifest`]
    /// writes for its own content: the indented layout plus a newline.
    #[test]
    fn every_committed_manifest_is_the_layout_of_its_own_parse() {
        for stem in MANIFESTS {
            let text = fs::read_to_string(format!("{ROOT}/results/BENCH_{stem}.json")).unwrap();
            let doc = m3d_json::parse_borrowed(&text).unwrap().into_owned();
            let mut laid_out = String::new();
            pretty(&doc, 0, &mut laid_out);
            laid_out.push('\n');
            assert_eq!(laid_out, text, "BENCH_{stem}.json");
        }
    }

    #[test]
    fn readme_scale_table_is_the_committed_manifest() {
        let manifest = fs::read_to_string(format!("{ROOT}/results/BENCH_scale.json")).unwrap();
        let readme = fs::read_to_string(format!("{ROOT}/README.md")).unwrap();
        let table = scale_table_markdown(&m3d_json::parse_borrowed(&manifest).unwrap());
        assert!(
            readme.contains(&table),
            "README \"Running at scale\" is stale; paste this table:\n{table}"
        );
    }
}
