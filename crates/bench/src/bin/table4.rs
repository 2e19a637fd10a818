//! Regenerates Table IV: the cost-model assumptions and the quantities
//! derived from formulas (1)–(5), plus a die-cost sweep illustrating the
//! 2-D / 3-D / heterogeneous-3-D crossover at paper-scale die areas.

use hetero3d::cost::CostModel;
use m3d_bench::{emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
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
    emit(&args, "table4.txt", &out);
}
