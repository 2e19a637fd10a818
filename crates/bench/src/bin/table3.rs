//! Regenerates Table III: FO-4 boundary behavior with heterogeneity at the
//! driver *input* (Fig. 2b) — the signal feeding the driver swings to the
//! other tier's supply. The headline effect: an under-driven PMOS gate
//! leaks dramatically more (paper: +250 %), an over-driven one leaks less.

use hetero3d::circuit::fo4;
use m3d_bench::{emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
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
    emit(&args, "table3.txt", &out);
}
