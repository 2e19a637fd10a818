//! Every table and figure of the paper from one run.
//!
//! Tables I, VI, VII and VIII come from one iso-performance five-config
//! comparison per netlist; Table V, the ablation and Figs. 3–4 from the
//! CPU netlist's session. [`paper_outputs`] builds one
//! [`FlowSession`] per netlist, runs its comparison once, and derives
//! every flow-driven output from those sessions and comparisons.

use crate::bench_options;
use hetero3d::circuit::fo4;
use hetero3d::cost::CostModel;
use hetero3d::flow::{
    BaselineComparison, Comparison, ComparisonSummary, Config, FlowError, FlowOptions, FlowSession,
    Implementation,
};
use hetero3d::netgen::Benchmark;
use hetero3d::report::{
    deep_dive, format_comparison, format_deep_dive, format_table5, format_table7,
    qualitative_ranking, render_config_cartoon, render_layout, render_overlays, LayerChoice,
};
use std::fmt::Write as _;

/// The paper's tables and figures for the four netlists at `scale` and
/// `seed`, as `(file name, contents)` pairs: Tables I–VIII, Fig. 1, the
/// five Fig. 3 layouts, the two Fig. 4 overlays and the ablation.
///
/// # Errors
///
/// Propagates the first [`FlowError`] of any session or flow.
pub fn paper_outputs(scale: f64, seed: u64) -> Result<Vec<(&'static str, String)>, FlowError> {
    let options = bench_options();
    let cost = CostModel::default();
    let mut summaries = Vec::new();
    let mut ranking = String::new();
    let mut cpu = None;
    for bench in Benchmark::ALL {
        let netlist = bench.generate(scale, seed);
        let session = FlowSession::builder(&netlist)
            .options(options.clone())
            .build()?;
        let cmp = session.compare(&cost)?;
        summaries.push(cmp.summary.clone());
        match bench {
            Benchmark::Netcard => ranking = table1(&cmp.summary),
            Benchmark::Cpu => cpu = Some((netlist.gate_count(), session, cmp)),
            _ => {}
        }
    }
    let (cpu_gates, cpu, cpu_cmp) = cpu.expect("Benchmark::ALL holds the CPU");
    let refs: Vec<&ComparisonSummary> = summaries.iter().collect();

    // The paper captured Table V at the CPU's iso-performance target,
    // where the unmodified flow misses timing badly; stretch the measured
    // 12T-2D fmax by 10 % to land in the same regime on the scaled design.
    // The ablation runs at the same frequency.
    let frequency = (cpu_cmp.summary.target_ghz * 1.1 * 100.0).round() / 100.0;
    let baseline = cpu.pin3d_baseline_comparison(frequency, &cost)?;
    let table5 = table5(cpu_gates, &baseline);
    let ablation = ablation(&cpu, frequency, baseline)?;

    let mut out = vec![
        ("table1.txt", ranking),
        ("table2.txt", table2()),
        ("table3.txt", table3()),
        ("table4.txt", table4()),
        ("table5.txt", table5),
        ("table6.txt", table6(&refs)),
        ("table7.txt", table7(&refs)),
        ("table8.txt", table8(&cpu_cmp)),
        ("fig1.svg", render_config_cartoon()),
    ];
    out.extend(figures(&cpu)?);
    out.push(("ablation.txt", ablation));
    Ok(out)
}

/// Table I: the qualitative 1–5 ranking of the five configurations on
/// frequency / power / power-per-frequency / footprint / silicon area /
/// die cost — derived from *measured* implementations rather than
/// asserted a priori. The paper's Table I is design-generic; it is ranked
/// on netcard, the largest and least quirky of the four.
fn table1(cmp: &ComparisonSummary) -> String {
    let mut all = cmp.homogeneous.clone();
    all.push(cmp.hetero.clone());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I: measured qualitative ranking (1 = worst, 5 = best), netcard @ {:.2} GHz\n",
        cmp.target_ghz
    );
    out.push_str(&qualitative_ranking(&all).render());
    let _ = writeln!(
        out,
        "\n(paper's expected ranks: Frequency 1/2/3/5/- with hetero 4; Power 4/5/1/2\n with hetero 3; Power/Freq hetero best at 5; Si Area 9T best; Die Cost 3D worst)"
    );
    out
}

/// Table II: FO-4 boundary behavior with heterogeneity at the driver
/// *output* (Fig. 2a) — driver on one tier, four loads on the other,
/// simulated at transistor level.
fn table2() -> String {
    let cases = fo4::table2_cases();
    let labels = ["Case-I", "Case-II", "Case-III", "Case-IV"];
    let tiers = [
        ("fast", "fast"),
        ("fast", "slow"),
        ("slow", "slow"),
        ("slow", "fast"),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II: heterogeneity at the driver output (times ns, power uW)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "", labels[0], labels[1], "d%", labels[2], labels[3], "d%"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "Driver", tiers[0].0, tiers[1].0, "", tiers[2].0, tiers[3].0, ""
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "Loads", tiers[0].1, tiers[1].1, "", tiers[2].1, tiers[3].1, ""
    );
    let d_12 = cases[1].percent_delta(&cases[0]);
    let d_34 = cases[3].percent_delta(&cases[2]);
    type MetricOf = fn(&fo4::Fo4Measurement) -> f64;
    let rows: [(&str, MetricOf, usize, f64); 6] = [
        ("Rise Slew", |m| m.rise_slew_ns * 1e3, 0, 1.0),
        ("Fall Slew", |m| m.fall_slew_ns * 1e3, 1, 1.0),
        ("Rise Del.", |m| m.rise_delay_ns * 1e3, 2, 1.0),
        ("Fall Del.", |m| m.fall_delay_ns * 1e3, 3, 1.0),
        ("Lkg. Pow.", |m| m.leakage_uw, 4, 1.0),
        ("Total Pow.", |m| m.total_power_uw, 5, 1.0),
    ];
    for (name, get, di, _) in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10.3} {:>10.3} {:>+8.1} {:>10.3} {:>10.3} {:>+8.1}",
            name,
            get(&cases[0]),
            get(&cases[1]),
            d_12[di],
            get(&cases[2]),
            get(&cases[3]),
            d_34[di]
        );
    }
    let _ = writeln!(
        out,
        "\n(times in ps for slews/delays; paper reference deltas: slews within ±15%,\n fast->slow negative, slow->fast positive)"
    );
    out
}

/// Table III: FO-4 boundary behavior with heterogeneity at the driver
/// *input* (Fig. 2b) — the signal feeding the driver swings to the other
/// tier's supply. The headline effect: an under-driven PMOS gate leaks
/// dramatically more (paper: +250 %), an over-driven one leaks less.
fn table3() -> String {
    let cases = fo4::table3_cases();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III: heterogeneity at the driver input (times ns, power uW)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "", "Case-I", "Case-II", "d%", "Case-I'", "Case-II'", "d%"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "Source", "fast", "slow", "", "slow", "fast", ""
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "Driver/FO4", "fast", "fast", "", "slow", "slow", ""
    );
    let d_12 = cases[1].percent_delta(&cases[0]);
    let d_34 = cases[3].percent_delta(&cases[2]);
    let _ = writeln!(
        out,
        "{:<12} {:>10.2} {:>10.2} {:>8} {:>10.2} {:>10.2} {:>8}",
        "Driver VG",
        cases[0].driver_vg,
        cases[1].driver_vg,
        "",
        cases[2].driver_vg,
        cases[3].driver_vg,
        ""
    );
    type MetricOf = fn(&fo4::Fo4Measurement) -> f64;
    let rows: [(&str, MetricOf, usize); 6] = [
        ("Rise Slew", |m| m.rise_slew_ns * 1e3, 0),
        ("Fall Slew", |m| m.fall_slew_ns * 1e3, 1),
        ("Rise Del.", |m| m.rise_delay_ns * 1e3, 2),
        ("Fall Del.", |m| m.fall_delay_ns * 1e3, 3),
        ("Lkg. Pow.", |m| m.leakage_uw, 4),
        ("Total Pow.", |m| m.total_power_uw, 5),
    ];
    for (name, get, di) in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10.3} {:>10.3} {:>+8.1} {:>10.3} {:>10.3} {:>+8.1}",
            name,
            get(&cases[0]),
            get(&cases[1]),
            d_12[di],
            get(&cases[2]),
            get(&cases[3]),
            d_34[di]
        );
    }
    let _ = writeln!(
        out,
        "\n(paper reference: slow source into fast FO4 -> leakage +250 %, delays a few\n percent slower; fast source into slow FO4 -> leakage -45 %, delays faster)"
    );
    out
}

/// Table IV: the cost-model assumptions and the quantities derived from
/// formulas (1)–(5), plus a die-cost sweep illustrating the 2-D / 3-D /
/// heterogeneous-3-D crossover at paper-scale die areas.
fn table4() -> String {
    let m = CostModel::default();

    let mut out = String::new();
    let _ = writeln!(out, "Table IV: cost model assumptions (units of C')\n");
    let _ = writeln!(
        out,
        "Baseline wafer cost (FEOL+8 metals)   C' = {:.2}",
        m.c_prime
    );
    let _ = writeln!(
        out,
        "Wafer FEOL cost                       {:.2} x C'",
        m.feol_fraction
    );
    let _ = writeln!(
        out,
        "Wafer BEOL cost (6 metals)            {:.2} x C'",
        m.beol6_fraction
    );
    let _ = writeln!(
        out,
        "3D integration cost (alpha)           {:.2} x C'",
        m.integration_fraction
    );
    let _ = writeln!(
        out,
        "Wafer diameter                        {:.0} mm",
        m.wafer_diameter_mm
    );
    let _ = writeln!(
        out,
        "Defect density (Dw)                   {:.1} /mm2",
        m.defect_density_per_mm2
    );
    let _ = writeln!(
        out,
        "Wafer yield (kappa)                   {:.2}",
        m.wafer_yield
    );
    let _ = writeln!(
        out,
        "3D yield degradation (beta)           {:.2}",
        m.yield_degradation_3d
    );
    let _ = writeln!(
        out,
        "2D wafer cost (C_2D)                  {:.2} x C'",
        m.wafer_cost_2d()
    );
    let _ = writeln!(
        out,
        "3D wafer cost (C_3D)                  {:.2} x C'",
        m.wafer_cost_3d()
    );
    let _ = writeln!(
        out,
        "\nDerived quantities per footprint (formulas (1)-(5)):\n"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>8} {:>8} {:>14} {:>14} {:>14}",
        "area mm2", "DPW", "Y_2D", "Y_3D", "2D cost e-6C'", "3D cost e-6C'", "hetero e-6C'"
    );
    for area in [0.05_f64, 0.1, 0.2, 0.4, 0.8, 1.6, 5.0, 20.0] {
        // Heterogeneous: the same logic at 87.5 % silicon -> footprint
        // 0.875x the homogeneous-3D footprint (area/2 each tier).
        let hetero_fp = area * 0.5 * 0.875;
        let _ = writeln!(
            out,
            "{:>10.2} {:>12.0} {:>8.3} {:>8.3} {:>14.3} {:>14.3} {:>14.3}",
            area,
            m.try_dies_per_wafer(area).expect("positive area"),
            m.die_yield_2d(area),
            m.die_yield_3d(area / 2.0),
            m.die_cost(area, false) * 1e6,
            m.die_cost(area / 2.0, true) * 1e6,
            m.die_cost(hetero_fp, true) * 1e6,
        );
    }
    let _ = writeln!(
        out,
        "\n(the heterogeneous column drops below the 2-D column at paper-scale dies:\n the 12.5 % silicon saving beats the 3-D wafer premium)"
    );
    out
}

/// Table V: the CPU design through the unmodified Pin-3-D flow (min-cut
/// partitioning only, tier-blind clock tree, no repartitioning) versus the
/// enhanced Hetero-Pin-3-D flow, at the same frequency.
fn table5(gates: usize, cmp: &BaselineComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table V: Pin-3D baseline vs Hetero-Pin-3D (cpu, {gates} gates, {} GHz)\n",
        cmp.frequency_ghz
    );
    out.push_str(&format_table5(cmp));
    let _ = writeln!(
        out,
        "\n(paper reference @1.2 GHz: WNS -0.489 -> -0.060 ns, power 224.1 -> 198.8 mW,\n WL ~unchanged; the enhanced flow recovers WNS and cuts power)"
    );
    out
}

/// Table VI: raw PPAC of the heterogeneous 3-D implementation for all
/// four netlists at each design's iso-performance target (the 12-track
/// 2-D fmax).
fn table6(comparisons: &[&ComparisonSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table VI: PPAC of the 3D heterogeneous designs\n");
    out.push_str(&format_comparison(comparisons));
    let _ = writeln!(
        out,
        "\n(absolute values are simulator-scale, not foundry-scale; compare shapes:\n every design meets its 12T-2D fmax with small-negative or positive WNS)"
    );
    out
}

/// Table VII: percent deltas of the heterogeneous 3-D design against all
/// four homogeneous configurations, per netlist. Negative values
/// (positive for PPC) mean the heterogeneous design wins.
fn table7(comparisons: &[&ComparisonSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VII: PPAC percentage delta = (hetero - config)/config x 100\n"
    );
    out.push_str(&format_table7(comparisons));
    let _ = writeln!(
        out,
        "(paper headline shapes: hetero PPC beats every homogeneous config;\n PDP beats the best 2-D; Si area ~-12.5% vs 12-track configs)"
    );
    out
}

/// Table VIII: clock-network, critical-path and memory-interconnect deep
/// dives of the CPU comparison's implementations — best 2-D (12-track),
/// best homogeneous 3-D (12-track), heterogeneous 3-D.
///
/// The paper's column header says "9-track 2D" but its Section IV-C text
/// describes the *best 2-D implementation (12-track)*; both 2-D flavors
/// are emitted so either reading can be checked.
fn table8(cmp: &Comparison) -> String {
    let homogeneous = |config| {
        cmp.implementations
            .iter()
            .find(|imp| imp.config == config)
            .expect("a comparison implements every homogeneous configuration")
    };
    let dives = [
        deep_dive(homogeneous(Config::TwoD12T)),
        deep_dive(homogeneous(Config::TwoD9T)),
        deep_dive(homogeneous(Config::ThreeD12T)),
        deep_dive(&cmp.hetero_implementation),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VIII: clock / critical path / memory interconnect (cpu @ {:.2} GHz)\n",
        cmp.summary.target_ghz
    );
    out.push_str(&format_deep_dive(
        &["12T 2D", "9T 2D", "12T 3D", "Hetero 3D"],
        &[&dives[0], &dives[1], &dives[2], &dives[3]],
    ));
    let _ = writeln!(
        out,
        "\n(paper shapes: hetero clock is top-tier-heavy with smaller buffer area but\n larger max latency/skew; critical path has few top-tier cells whose average\n stage delay is ~2x the bottom tier's; memory net latency smallest in hetero)"
    );
    out
}

/// Figs. 3 and 4 from one set of CPU runs at 1.0 GHz: the placement
/// layouts in 9-track 2-D, 12-track 2-D and heterogeneous 3-D (both
/// tiers, visibly different cell heights), and the clock-tree /
/// memory-net / critical-path overlays in 2-D and heterogeneous 3-D.
fn figures(cpu: &FlowSession) -> Result<Vec<(&'static str, String)>, FlowError> {
    let imp_9t = cpu.run(Config::TwoD9T, 1.0)?;
    let imp_12t = cpu.run(Config::TwoD12T, 1.0)?;
    let imp_h = cpu.run(Config::Hetero3d, 1.0)?;
    Ok(vec![
        (
            "fig3a_2d_9track.svg",
            render_layout(&imp_9t, LayerChoice::Bottom, "(a) 2D 9-track cpu"),
        ),
        (
            "fig3b_2d_12track.svg",
            render_layout(&imp_12t, LayerChoice::Bottom, "(b) 2D 12-track cpu"),
        ),
        (
            "fig3c_hetero_both.svg",
            render_layout(&imp_h, LayerChoice::Both, "(c) hetero 3D cpu (both tiers)"),
        ),
        (
            "fig3c_hetero_bottom.svg",
            render_layout(
                &imp_h,
                LayerChoice::Bottom,
                "(c) hetero 3D cpu (12T bottom)",
            ),
        ),
        (
            "fig3c_hetero_top.svg",
            render_layout(&imp_h, LayerChoice::Top, "(c) hetero 3D cpu (9T top)"),
        ),
        (
            "fig4_2d_overlays.svg",
            render_overlays(
                &imp_12t,
                "2D 12-track: clock (green), memory nets, critical path (red)",
            ),
        ),
        (
            "fig4_hetero_overlays.svg",
            render_overlays(
                &imp_h,
                "hetero 3D: clock (green), memory nets, critical path (red)",
            ),
        ),
    ])
}

/// The ablation of the heterogeneous flow's design choices at
/// `frequency`: each of the three Hetero-Pin-3-D enhancements toggled
/// independently, plus a sweep of the timing-partitioning area cap (the
/// paper's 20–30 % guidance). Every variant is a binding of the CPU
/// session, so they share its pseudo-3-D checkpoint; a variant whose
/// options equal a set already implemented at `frequency` — Table V's
/// two runs to begin with — reuses that implementation.
fn ablation(
    cpu: &FlowSession,
    frequency: f64,
    table5: BaselineComparison,
) -> Result<String, FlowError> {
    let options = cpu.options();
    let base = options.pin3d_baseline();
    let mut done: Vec<(FlowOptions, Implementation)> = vec![
        (base.clone(), table5.pin3d_implementation),
        (options.clone(), table5.hetero_implementation),
    ];
    let mut run = |o: FlowOptions| -> Result<Implementation, FlowError> {
        if let Some((_, imp)) = done.iter().find(|(d, _)| *d == o) {
            return Ok(imp.clone());
        }
        let variant = cpu.bind(&o).expect("a variant shares the checkpoints");
        let imp = variant.run(Config::Hetero3d, frequency)?;
        done.push((o, imp.clone()));
        Ok(imp)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: Hetero-Pin-3D enhancements on cpu @ {frequency:.2} GHz\n"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>8} {:>9} {:>7}",
        "variant", "WNS ns", "pwr mW", "WL mm", "MIVs"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let variants = [
        ("none (Pin-3D baseline)", base.clone()),
        (
            "+ timing partitioning",
            FlowOptions {
                enable_timing_partition: true,
                ..base.clone()
            },
        ),
        (
            "+ 3-D (COVER) CTS",
            FlowOptions {
                enable_3d_cts: true,
                ..base.clone()
            },
        ),
        (
            "+ repartitioning ECO",
            FlowOptions {
                enable_repartition: true,
                ..base
            },
        ),
        ("all three (Hetero-Pin-3D)", options.clone()),
    ];
    for (name, o) in variants {
        let imp = run(o)?;
        let _ = writeln!(
            out,
            "{:<34} {:>8.3} {:>8.3} {:>9.2} {:>7}",
            name,
            imp.sta.wns,
            imp.power.total_mw(),
            imp.routing.total_wirelength_mm(),
            imp.routing.total_mivs
        );
    }

    let _ = writeln!(out, "\nTiming-partition area cap sweep (paper: 20-30 %):\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>9} {:>9}",
        "cap", "WNS ns", "pwr mW", "WL mm", "locked"
    );
    let _ = writeln!(out, "{}", "-".repeat(48));
    // `partition` clamps the cap to the bottom tier's lock headroom: the
    // CPU's cache macros leave 30.1 % of gate area at 0.06 and 31.5 % at
    // 1.0, so 0.4 and 0.6 both lock the headroom's set and print the same
    // row (the flow crate's `a_cap_above_the_headroom_locks_exactly_the_headroom_set`).
    for cap in [0.0, 0.1, 0.2, 0.28, 0.4, 0.6] {
        let imp = run(FlowOptions {
            timing_partition_cap: cap,
            ..options.clone()
        })?;
        let locked = imp
            .timing_assignment
            .as_ref()
            .map_or(0, |a| a.locked_cells.len());
        let _ = writeln!(
            out,
            "{:<10.2} {:>8.3} {:>8.3} {:>9.2} {:>9}",
            cap,
            imp.sta.wns,
            imp.power.total_mw(),
            imp.routing.total_wirelength_mm(),
            locked
        );
    }
    let _ = writeln!(
        out,
        "\n(expected: each enhancement individually improves WNS; the cap sweep\n shows diminishing returns past the paper's 20-30 % band as locked\n clusters start fighting the bin-balanced placement)"
    );
    Ok(out)
}
