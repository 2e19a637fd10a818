//! The `paper` binary's harness, and the golden check of the
//! workspace's tests.
//!
//! The binary accepts `--scale <f64>` (netlist size relative to the
//! workspace defaults; the tables' [`TABLE_SCALE`] keeps a full run within
//! seconds per config), `--seed <u64>` and `--out <dir>`, and rejects
//! anything else with a typed [`ArgError`]. It writes every table and
//! figure [`paper_outputs`] returns: it prints each to stdout and mirrors
//! it into `results/<name>`, which holds exactly those files.
//!
//! [`assert_golden`] holds a test's deterministic section — flow
//! telemetry, STA evaluation counts, a Pareto sweep's points, the scale
//! ladder's rungs — to its committed `tests/golden/<name>.json`.

mod paper;

pub use paper::paper_outputs;

use hetero3d::flow::FlowOptions;
use m3d_json::{pretty, Value};
use std::fmt;
use std::fs;
use std::path::PathBuf;

/// Default `--scale` of the `paper` binary.
pub const TABLE_SCALE: f64 = 0.06;

/// Parsed command-line arguments of the `paper` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Netlist scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Output directory (default `results/`).
    pub out_dir: PathBuf,
}

/// A command line the `paper` binary refuses to guess about.
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
/// excluded), starting from [`TABLE_SCALE`], seed 7 and `results/`.
///
/// # Errors
///
/// Returns the first [`ArgError`] on the line.
pub fn try_parse_args(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, ArgError> {
    let mut out = BenchArgs {
        scale: TABLE_SCALE,
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
pub fn parse_args() -> BenchArgs {
    try_parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
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

/// Holds `section` to the committed golden `tests/golden/<name>.json`:
/// its [`pretty`] layout plus a newline, byte for byte. Floats render
/// shortest-roundtrip, so equal text is every leaf equal, floats by bits.
///
/// # Panics
///
/// Panics if the golden is missing or differs, naming the
/// [`first_difference`]; the fresh layout is then written to
/// `<temp dir>/golden-<name>.json`, to copy over the golden after an
/// intentional change.
pub fn assert_golden(name: &str, section: &Value) {
    let mut fresh = String::new();
    pretty(section, 0, &mut fresh);
    fresh.push('\n');
    let golden_path = format!(
        "{}/../../tests/golden/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let fresh_path = std::env::temp_dir().join(format!("golden-{name}.json"));
    fs::write(&fresh_path, &fresh).expect("write the fresh layout");
    panic!(
        "tests/golden/{name}.json differs at {}\nthe fresh layout is in {}",
        first_difference(&fresh, &golden),
        fresh_path.display()
    );
}

/// Where `fresh` first differs from `committed`: the 1-based line and
/// both sides' text on it, `<end>` for a side that has no such line
/// (one text is a prefix of the other).
#[must_use]
pub fn first_difference(fresh: &str, committed: &str) -> String {
    let (mut a, mut b) = (fresh.lines(), committed.lines());
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (None, None) => return format!("line {line}: only the line endings differ"),
            (x, y) => {
                return format!(
                    "line {line}:\n  fresh:     {}\n  committed: {}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<BenchArgs, ArgError> {
        try_parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn first_difference_names_the_line_and_an_end_for_a_prefix() {
        assert_eq!(
            first_difference("a\nb\nc\n", "a\nx\nc\n"),
            "line 2:\n  fresh:     b\n  committed: x"
        );
        assert_eq!(
            first_difference("a\nb\n", "a\nb\nc\n"),
            "line 3:\n  fresh:     <end>\n  committed: c"
        );
        assert_eq!(
            first_difference("a\nb", "a\nb\n"),
            "line 3: only the line endings differ"
        );
    }

    #[test]
    fn args_default_to_the_bins_scale_and_parse_every_flag() {
        assert_eq!(
            args(""),
            Ok(BenchArgs {
                scale: TABLE_SCALE,
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
}
