//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary accepts `--scale <f64>` (netlist size relative to the
//! workspace defaults; 0.06 keeps a full run within seconds per config)
//! and `--seed <u64>`, prints its table to stdout and mirrors it into
//! `results/<name>.txt`.

use hetero3d::flow::FlowOptions;
use std::fs;
use std::path::PathBuf;

/// Path-compatibility alias: the JSON reader started life here and now
/// lives in the shared [`m3d_json`] crate (which added the writer half).
pub use m3d_json as json;

/// Parsed command-line arguments of a regeneration binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Netlist scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Output directory (default `results/`).
    pub out_dir: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.06,
            seed: 7,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Parses `--scale`, `--seed` and `--out` from `std::env::args`.
#[must_use]
pub fn parse_args() -> BenchArgs {
    let mut out = BenchArgs::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--scale" => {
                if let Ok(v) = args[i + 1].parse() {
                    out.scale = v;
                }
                i += 2;
            }
            "--seed" => {
                if let Ok(v) = args[i + 1].parse() {
                    out.seed = v;
                }
                i += 2;
            }
            "--out" => {
                out.out_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            _ => i += 1,
        }
    }
    out
}

/// The flow options used by every regeneration binary (slightly reduced
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

/// The README's "Running at scale" table, rendered from a
/// `BENCH_scale.json` manifest. `scale_bench` prints it after every
/// ladder run and a unit test holds the README to the committed
/// manifest, so the two cannot drift apart.
///
/// # Panics
///
/// Panics if the manifest lacks a field `scale_bench` always writes.
#[must_use]
pub fn scale_table_markdown(manifest: &json::Value) -> String {
    let mut out = String::from(
        "| rung | cells | full-flow wall | throughput | peak heap |\n|---|---|---|---|---|\n",
    );
    let rungs = manifest.get("rungs").and_then(json::Value::as_arr);
    for rung in rungs.expect("manifest has rungs") {
        let num = |key: &str| rung.get(key).and_then(json::Value::as_f64).expect(key);
        let name = rung
            .get("name")
            .and_then(json::Value::as_str)
            .expect("name");
        let cells = num("cells") as u64;
        out.push_str(&format!(
            "| `{name}` | {} {:03} | {:.1} s | ~{:.0} k cells/s | {:.0} MiB |\n",
            cells / 1000,
            cells % 1000,
            num("flow_s"),
            num("flow_cells_per_sec") / 1e3,
            num("peak_heap_bytes") / (1024.0 * 1024.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_scale_table_is_the_committed_manifest() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let manifest = fs::read_to_string(format!("{root}/results/BENCH_scale.json")).unwrap();
        let readme = fs::read_to_string(format!("{root}/README.md")).unwrap();
        let table = scale_table_markdown(&json::parse(&manifest).unwrap());
        assert!(
            readme.contains(&table),
            "README \"Running at scale\" is stale; paste this table:\n{table}"
        );
    }

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::default();
        assert!(a.scale > 0.0);
        assert_eq!(a.out_dir, PathBuf::from("results"));
    }
}
