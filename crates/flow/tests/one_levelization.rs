//! One levelization per netlist structure. Every timer, corner timer and
//! power pass a session runs — the pseudo-3-D stage's, every walk's
//! sizing and sign-off, every corner of every grid point — reads the
//! memo of the session's buffered base ([`Netlist::levels`]), which the
//! sizing forks share because sizing never changes the structure.
//!
//! One test function only: [`Levels::builds`] counts process-wide, so a
//! second test on another harness thread would pollute the count.

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowReport, FlowSession};
use m3d_netgen::Benchmark;
use m3d_netlist::{Levels, Netlist};
use std::sync::Arc;

#[test]
fn a_compare_and_a_pareto_grid_on_one_session_levelize_once() {
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    let before = Levels::builds();
    let session = FlowSession::builder(&netlist)
        .options(options)
        .build()
        .expect("a generated netlist validates");
    session
        .execute(&FlowCommand::CompareConfigs)
        .expect("compare");
    let pareto = session
        .execute(&FlowCommand::Pareto {
            config: Config::Hetero3d,
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.0,
            freq_steps: 3,
        })
        .expect("pareto");
    let FlowReport::Pareto { summary } = pareto else {
        panic!("a pareto command answers with a pareto report");
    };
    assert_eq!(summary.points.len(), 18);
    assert_eq!(
        Levels::builds() - before,
        1,
        "one structure, one levelization"
    );

    // A first walk and a walk forking its prefix: each sizes its own clone
    // of the base, and both clones read the base's memo.
    let memo = session.base().netlist.levels();
    let shares = |netlist: &Netlist| Arc::ptr_eq(&netlist.levels(), &memo);
    for config in [Config::TwoD12T, Config::TwoD12T, Config::Hetero3d] {
        let imp = session.run(config, 1.1).expect("run");
        assert!(
            shares(&imp.netlist),
            "{config:?}: the walk reads the base's memo"
        );
    }
    assert!(shares(&session.base().netlist.as_ref().clone()));
    assert_eq!(
        Levels::builds() - before,
        1,
        "forked walks levelize nothing"
    );
}
