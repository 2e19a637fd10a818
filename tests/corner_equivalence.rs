//! Equivalence tests for the technology axis: multi-corner sign-off and
//! the stacking × corner × frequency Pareto sweep.
//!
//! The contracts under test:
//!
//! * **Default-scenario identity** — a monolithic worst-corner run whose
//!   ECO stops in the same round is the *same physical design* as the
//!   default run (placement, tiers, routing, power all bit-identical):
//!   corners are additional sign-off analyses, and the one thing of the
//!   implementation that reads them is the ECO's stop test.
//! * **Worst-corner sign-off** — the worst corner's analysis equals the
//!   corresponding single-corner run bit for bit, and is never more
//!   optimistic than typical.
//! * **Thread invariance** — worst-corner sign-off and the whole Pareto
//!   sweep are bit-identical at any thread count, like every other
//!   output of the flow.
//! * **Checkpoint economics** — a Pareto sweep runs the pseudo-3-D
//!   stage exactly once, whatever the number of scenarios and the
//!   frequency-grid size (the stage reads nothing of the scenario).
//! * **One grid executor** — `pareto` equals a frontier fold over the
//!   equivalent `sweep`, point for point and bit for bit.

use hetero3d::cost::CostModel;
use hetero3d::flow::{Config, FlowError, FlowOptions, FlowSession, Implementation};
use hetero3d::json::{Obj, ToJson};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::obs::Obs;
use hetero3d::tech::{Corner, CornerSet, StackingStyle, TechContext, Tier};

/// `config` at `ghz` on a fresh session: a single-shot run.
fn single_run(
    netlist: &Netlist,
    config: Config,
    ghz: f64,
    options: &FlowOptions,
) -> Result<Implementation, FlowError> {
    let session = FlowSession::builder(netlist)
        .options(options.clone())
        .build()?;
    session.run(config, ghz)
}

fn quick_options(threads: usize, tech: TechContext) -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 6;
    o.threads = threads;
    o.tech = tech;
    o
}

fn tech(stacking: StackingStyle, corners: CornerSet) -> TechContext {
    TechContext { stacking, corners }
}

/// Exact fingerprint of the physical design, sign-off excluded: any
/// scenario that claims to be "the same implementation, analyzed
/// differently" must match on all of these bits.
fn design_fingerprint(imp: &Implementation) -> (u64, u64, Vec<Tier>) {
    (
        imp.routing.total_wirelength_um.to_bits(),
        imp.power.total_mw().to_bits(),
        imp.tiers.to_vec(),
    )
}

#[test]
fn monolithic_worst_corner_run_is_the_same_design_as_the_default_run() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let default_run = single_run(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, TechContext::default()),
    )
    .expect("default flow");
    let worst_run = single_run(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, tech(StackingStyle::Monolithic, CornerSet::Worst)),
    )
    .expect("worst-corner flow");
    // Same placement, tiers, routing and (typical-corner) power: every
    // stage runs at the typical corner. The sign-off corners reach the
    // implementation only through the ECO's stop test (a slower corner
    // can ask for another round); here both stop in the same round.
    assert_eq!(
        design_fingerprint(&default_run),
        design_fingerprint(&worst_run),
        "worst-corner sign-off changed the physical design"
    );
    // The worst-corner sign-off may only be equal or more pessimistic.
    assert!(
        worst_run.sta.wns <= default_run.sta.wns,
        "worst corner ({}) more optimistic than typical ({})",
        worst_run.sta.wns,
        default_run.sta.wns
    );
}

#[test]
fn worst_corner_signoff_equals_the_slow_single_corner_run() {
    // The slow corner dominates this workload (derated supply, raised
    // threshold), so worst-corner sign-off must reproduce the dedicated
    // slow-corner run's analysis bit for bit.
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let worst = single_run(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, tech(StackingStyle::Monolithic, CornerSet::Worst)),
    )
    .expect("worst-corner flow");
    let slow = single_run(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(
            0,
            tech(StackingStyle::Monolithic, CornerSet::single(Corner::Slow)),
        ),
    )
    .expect("slow-corner flow");
    assert_eq!(
        worst.sta.wns.to_bits(),
        slow.sta.wns.to_bits(),
        "worst-corner sign-off diverged from the slow-corner analysis"
    );
    assert_eq!(design_fingerprint(&worst), design_fingerprint(&slow));
}

#[test]
fn worst_corner_signoff_is_bit_identical_across_thread_counts() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    for stacking in StackingStyle::ALL {
        let run = |threads: usize| {
            single_run(
                &netlist,
                Config::Hetero3d,
                1.0,
                &quick_options(threads, tech(stacking, CornerSet::Worst)),
            )
            .expect("worst-corner flow")
        };
        let base = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            assert_eq!(
                base.sta.wns.to_bits(),
                par.sta.wns.to_bits(),
                "{stacking}: threads={threads} sign-off diverged from threads=1"
            );
            assert_eq!(
                design_fingerprint(&base),
                design_fingerprint(&par),
                "{stacking}: threads={threads} design diverged from threads=1"
            );
        }
    }
}

#[test]
fn stacking_style_reaches_the_signoff_and_the_cost_model() {
    // F2F hybrid bonding has its own via RC and a different die-cost
    // model (wafer-bond adder + per-connection cost instead of the
    // monolithic sequential-process premium); if the style were
    // silently dropped anywhere along the options → stages → PPAC
    // chain, these would come back bit-equal.
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();
    let at = |stacking| {
        let imp = single_run(
            &netlist,
            Config::Hetero3d,
            1.0,
            &quick_options(0, tech(stacking, CornerSet::default())),
        )
        .expect("flow");
        imp.ppac(&cost)
    };
    let mono = at(StackingStyle::Monolithic);
    let f2f = at(StackingStyle::F2fHybridBond);
    assert_ne!(
        f2f.die_cost_uc.to_bits(),
        mono.die_cost_uc.to_bits(),
        "f2f bond economics did not reach the cost model"
    );
    assert_ne!(
        f2f.effective_delay_ns.to_bits(),
        mono.effective_delay_ns.to_bits(),
        "f2f via RC did not reach the sign-off timing"
    );
}

fn pareto_session(netlist: &Netlist, threads: usize) -> FlowSession {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    options.threads = threads;
    options.obs = Obs::enabled();
    FlowSession::builder(netlist)
        .options(options)
        .build()
        .expect("session")
}

fn pseudo3d_runs(obs: &Obs) -> u64 {
    obs.manifest().counter_sum("flow/pseudo3d_runs")
}

#[test]
fn pareto_sweep_is_bit_identical_across_thread_counts() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();
    let sweep = |threads: usize| {
        pareto_session(&netlist, threads)
            .pareto(Config::Hetero3d, 0.9, 1.1, 2, &cost)
            .expect("pareto sweep")
    };
    let base = sweep(1);
    for threads in [2usize, 4] {
        assert_eq!(
            base,
            sweep(threads),
            "pareto sweep diverged at threads={threads}"
        );
    }
}

#[test]
fn pareto_reuses_one_pseudo_checkpoint_per_scenario() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();

    // 3-D: both stacking styles × all corners, three frequency rungs —
    // yet exactly one pseudo-3-D run for the whole grid.
    let session = pareto_session(&netlist, 0);
    let summary = session
        .pareto(Config::Hetero3d, 0.9, 1.1, 3, &cost)
        .expect("pareto sweep");
    let scenarios = (StackingStyle::ALL.len() * Corner::ALL.len()) as u64;
    assert_eq!(summary.points.len() as u64, scenarios * 3);
    assert_eq!(
        pseudo3d_runs(&session.options().obs),
        1,
        "pseudo-3-D stage must run once per grid, never per scenario or point"
    );
    assert!(summary.frontier().count() >= 1, "non-empty frontier");

    // 2-D: monolithic only, no pseudo-3-D stage at all.
    let session2d = pareto_session(&netlist, 0);
    let summary2d = session2d
        .pareto(Config::TwoD12T, 0.9, 1.1, 2, &cost)
        .expect("2-D pareto sweep");
    assert_eq!(summary2d.points.len(), Corner::ALL.len() * 2);
    assert!(summary2d
        .points
        .iter()
        .all(|p| p.stacking == StackingStyle::Monolithic));
    assert_eq!(
        pseudo3d_runs(&session2d.options().obs),
        0,
        "a 2-D sweep has no pseudo-3-D stage"
    );
}

/// The paper options' 18-point grid on AES (scale 0.02, seed 7):
/// Hetero-3-D over both stacking styles × all three corners × three
/// rungs from 0.8 to 1.2 GHz. Every point, frontier flag included, and
/// the grid's one pseudo-3-D run are `tests/golden/pareto.json`.
#[test]
fn pareto_grid_points_are_their_golden() {
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let options = FlowOptions {
        obs: Obs::enabled(),
        ..m3d_bench::bench_options()
    };
    let session = FlowSession::builder(&netlist)
        .options(options)
        .build()
        .expect("session");
    let (min_ghz, max_ghz, steps, cost) = (0.8, 1.2, 3usize, CostModel::default());
    let summary = session
        .pareto(Config::Hetero3d, min_ghz, max_ghz, steps, &cost)
        .expect("pareto sweep");
    let points: Vec<_> = summary.points.iter().map(ToJson::to_json).collect();
    let section = Obj::new()
        .put("scale", 0.02)
        .put("seed", 7u64)
        .put("config", Config::Hetero3d.to_json())
        .put("freq_min_ghz", min_ghz)
        .put("freq_max_ghz", max_ghz)
        .put("freq_steps", steps)
        .put("scenarios", StackingStyle::ALL.len() * Corner::ALL.len())
        .put("pseudo3d_runs", pseudo3d_runs(&session.options().obs))
        .put("frontier_points", summary.frontier().count())
        .put("points", points)
        .build();
    m3d_bench::assert_golden("pareto", &section);
}

/// `pareto` is nothing but a frontier fold over the sweep executor's
/// points: every `ParetoPoint` field equals — by bits — the matching
/// point of the equivalent `sweep`, `timing_met` is the sign-off
/// `StaResult`'s verdict for the decomposed single-shot run, the
/// frontier flags match a dominance fold recomputed here from the sweep's
/// own numbers, and both commands pay one pseudo-3-D run per 3-D grid.
#[test]
fn pareto_is_a_frontier_fold_over_the_sweep_executor() {
    use hetero3d::flow::{FlowCommand, FlowReport, PpacSummary, SweepSpec};

    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();
    let dominates = |a: &PpacSummary, b: &PpacSummary| {
        a.total_power_mw <= b.total_power_mw
            && a.effective_delay_ns <= b.effective_delay_ns
            && a.die_cost_uc <= b.die_cost_uc
            && (a.total_power_mw < b.total_power_mw
                || a.effective_delay_ns < b.effective_delay_ns
                || a.die_cost_uc < b.die_cost_uc)
    };
    for config in [Config::Hetero3d, Config::TwoD12T] {
        let stacking = if config.is_3d() {
            StackingStyle::ALL.to_vec()
        } else {
            vec![StackingStyle::Monolithic]
        };
        let spec = SweepSpec {
            configs: vec![config],
            stacking,
            corners: Corner::ALL.to_vec(),
            freq_min_ghz: 0.9,
            freq_max_ghz: 1.1,
            freq_steps: 2,
        };
        let pseudo_runs = u64::from(config.is_3d());
        for threads in [1usize, 4] {
            let folded = pareto_session(&netlist, threads);
            let summary = folded.pareto(config, 0.9, 1.1, 2, &cost).expect("pareto");
            assert_eq!(pseudo3d_runs(&folded.options().obs), pseudo_runs);

            let sweep_session = pareto_session(&netlist, threads);
            let FlowReport::Sweep { points: swept } = sweep_session
                .execute(&FlowCommand::Sweep { spec: spec.clone() })
                .expect("sweep")
            else {
                panic!("expected a sweep report")
            };
            assert_eq!(pseudo3d_runs(&sweep_session.options().obs), pseudo_runs);

            assert_eq!(summary.config, config);
            assert_eq!(summary.points.len(), swept.len());
            for ((point, grid), ppac) in summary.points.iter().zip(spec.points()).zip(&swept) {
                let what = format!("{config} point {} threads {threads}", grid.index);
                assert_eq!(point.stacking, grid.stacking, "{what}");
                assert_eq!(point.corner, grid.corner, "{what}");
                for (name, got, want) in [
                    ("frequency_ghz", point.frequency_ghz, ppac.frequency_ghz),
                    ("total_power_mw", point.total_power_mw, ppac.total_power_mw),
                    (
                        "effective_delay_ns",
                        point.effective_delay_ns,
                        ppac.effective_delay_ns,
                    ),
                    ("die_cost_uc", point.die_cost_uc, ppac.die_cost_uc),
                    ("pdp_pj", point.pdp_pj, ppac.pdp_pj),
                    ("ppc", point.ppc, ppac.ppc),
                    ("wns_ns", point.wns_ns, ppac.wns_ns),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {name}");
                }
                let dominated = swept.iter().any(|other| dominates(other, ppac));
                assert_eq!(point.on_frontier, !dominated, "{what}: on_frontier");

                let options = quick_options(threads, grid.tech());
                let tolerance = options.wns_tolerance;
                let single = single_run(&netlist, config, grid.frequency_ghz, &options)
                    .expect("single-shot run");
                assert_eq!(single.sta.wns.to_bits(), point.wns_ns.to_bits(), "{what}");
                assert_eq!(
                    point.timing_met,
                    single.sta.timing_met(tolerance),
                    "{what}: timing_met"
                );
            }
        }
    }
}
