//! Regenerates Fig. 1: the five-configuration cartoon as SVG.

use hetero3d::report::render_config_cartoon;
use m3d_bench::{emit, parse_args, TABLE_SCALE};

fn main() {
    let args = parse_args(TABLE_SCALE);
    emit(&args, "fig1.svg", &render_config_cartoon());
}
