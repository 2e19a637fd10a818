//! Regenerates Table II: FO-4 boundary behavior with heterogeneity at the
//! driver *output* (Fig. 2a) — driver on one tier, four loads on the
//! other, simulated at transistor level.

use hetero3d::circuit::fo4;
use m3d_bench::{emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
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
    emit(&args, "table2.txt", &out);
}
