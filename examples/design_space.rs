//! Design-space exploration: implement one netlist in all five
//! configurations of the paper's Fig. 1 at the iso-performance target and
//! print the Table VI/VII-style comparison plus a measured Table I
//! ranking.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use hetero3d::cost::CostModel;
use hetero3d::flow::{FlowError, FlowOptions, FlowSession};
use hetero3d::netgen::Benchmark;
use hetero3d::report::{format_ppac, qualitative_ranking};

fn main() -> Result<(), FlowError> {
    let netlist = Benchmark::Netcard.generate(0.04, 7);
    println!(
        "exploring `{}` ({} gates) across the five configurations...\n",
        netlist.name,
        netlist.gate_count()
    );

    // One session: the validated base design and the shared pseudo-3-D
    // checkpoint are computed once and forked by all five flows.
    let session = FlowSession::builder(&netlist)
        .options(FlowOptions::default())
        .build()?;
    let cmp = session.compare(&CostModel::default())?.summary;
    println!(
        "iso-performance target (12-track 2-D fmax): {:.2} GHz\n",
        cmp.target_ghz
    );

    println!(
        "heterogeneous implementation:\n{}",
        format_ppac(&cmp.hetero).render()
    );

    println!("percent deltas vs each homogeneous configuration");
    println!("(negative = hetero better, except PPC where positive = better):\n");
    for d in &cmp.deltas {
        println!(
            "  vs {:<18} power {:+6.1}%  PDP {:+6.1}%  die cost {:+6.1}%  PPC {:+6.1}%",
            d.config.to_string(),
            d.total_power,
            d.pdp,
            d.die_cost,
            d.ppc
        );
    }

    let mut all = cmp.homogeneous.clone();
    all.push(cmp.hetero.clone());
    println!("\nmeasured qualitative ranking (Table I; 1 = worst, 5 = best):\n");
    println!("{}", qualitative_ranking(&all).render());
    Ok(())
}
