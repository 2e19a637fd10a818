//! Regenerates every table and figure of the paper in one run — Tables
//! I–VIII, Figs. 1, 3 and 4 and the ablation, each comparison computed
//! once (see [`m3d_bench::paper_outputs`]) — printing each and mirroring
//! it into `<out>/<name>`.

use m3d_bench::{emit, paper_outputs, parse_args};

fn main() {
    let args = parse_args();
    let outputs = paper_outputs(args.scale, args.seed).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    for (name, content) in outputs {
        emit(&args, name, &content);
    }
}
