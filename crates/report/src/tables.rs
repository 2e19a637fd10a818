use m3d_flow::{BaselineComparison, ComparisonSummary, DeltaRow, PpacSummary};
use std::fmt::Write as _;

/// A minimal fixed-width text-table builder.
///
/// Columns auto-size to their widest cell; the first column is
/// left-aligned, the rest right-aligned — the layout of the paper's
/// tables.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given header.
    #[must_use]
    pub fn new(header: Vec<impl Into<String>>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = width[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = width[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats one configuration's PPAC metrics as a Table VI column block.
#[must_use]
pub fn format_ppac(p: &PpacSummary) -> TextTable {
    let mut t = TextTable::new(vec!["Metric", "Units", p.config.to_string().as_str()]);
    t.row(vec![
        "Frequency".into(),
        "GHz".into(),
        f(p.frequency_ghz, 3),
    ]);
    t.row(vec!["Area".into(), "mm2".into(), f(p.si_area_mm2, 4)]);
    t.row(vec![
        "Chip Width".into(),
        "um".into(),
        f(p.chip_width_um, 0),
    ]);
    t.row(vec!["Density".into(), "%".into(), f(p.density_pct, 0)]);
    t.row(vec!["WL".into(), "mm".into(), f(p.wirelength_mm, 2)]);
    t.row(vec!["# MIVs".into(), "".into(), p.mivs.to_string()]);
    t.row(vec![
        "Total Power".into(),
        "mW".into(),
        f(p.total_power_mw, 2),
    ]);
    t.row(vec!["WNS".into(), "ns".into(), f(p.wns_ns, 3)]);
    t.row(vec!["TNS".into(), "ns".into(), f(p.tns_ns, 2)]);
    t.row(vec![
        "Effective Delay".into(),
        "ns".into(),
        f(p.effective_delay_ns, 3),
    ]);
    t.row(vec!["PDP".into(), "pJ".into(), f(p.pdp_pj, 2)]);
    t.row(vec![
        "Die Cost".into(),
        "1e-6 C'".into(),
        f(p.die_cost_uc, 3),
    ]);
    t.row(vec![
        "Cost per cm2".into(),
        "1e-6 C'/cm2".into(),
        f(p.cost_per_cm2_uc, 2),
    ]);
    t.row(vec!["PPC".into(), "GHz/(mW*1e-6C')".into(), f(p.ppc, 3)]);
    t
}

/// Formats Table VI: raw hetero PPAC for several designs side by side.
#[must_use]
pub fn format_comparison(comparisons: &[&ComparisonSummary]) -> String {
    let mut header: Vec<String> = vec!["Metric".into(), "Units".into()];
    header.extend(comparisons.iter().map(|c| c.design.clone()));
    let mut t = TextTable::new(header);
    let row = |name: &str, unit: &str, get: &dyn Fn(&PpacSummary) -> String| {
        let mut cells = vec![name.to_string(), unit.to_string()];
        cells.extend(comparisons.iter().map(|c| get(&c.hetero)));
        cells
    };
    t.row(row("Frequency", "GHz", &|p| f(p.frequency_ghz, 3)));
    t.row(row("Area", "mm2", &|p| f(p.si_area_mm2, 4)));
    t.row(row("Chip Width", "um", &|p| f(p.chip_width_um, 0)));
    t.row(row("Density", "%", &|p| f(p.density_pct, 0)));
    t.row(row("WL", "mm", &|p| f(p.wirelength_mm, 2)));
    t.row(row("# MIVs", "", &|p| p.mivs.to_string()));
    t.row(row("Total Power", "mW", &|p| f(p.total_power_mw, 2)));
    t.row(row("WNS", "ns", &|p| f(p.wns_ns, 3)));
    t.row(row("TNS", "ns", &|p| f(p.tns_ns, 2)));
    t.row(row("Effective Delay", "ns", &|p| {
        f(p.effective_delay_ns, 3)
    }));
    t.row(row("PDP", "pJ", &|p| f(p.pdp_pj, 2)));
    t.row(row("Die Cost", "1e-6 C'", &|p| f(p.die_cost_uc, 3)));
    t.row(row("PPC", "", &|p| f(p.ppc, 3)));
    t.render()
}

/// Formats Table VII: percent deltas of hetero vs each homogeneous config
/// for a set of designs.
#[must_use]
pub fn format_table7(comparisons: &[&ComparisonSummary]) -> String {
    let mut out = String::new();
    for (ci, config) in m3d_flow::Config::HOMOGENEOUS.iter().enumerate() {
        let _ = writeln!(out, "### vs {config}");
        let mut header: Vec<String> = vec!["Metric".into()];
        header.extend(comparisons.iter().map(|c| c.design.clone()));
        let mut t = TextTable::new(header);
        let row = |name: &str, get: &dyn Fn(&DeltaRow) -> String| {
            let mut cells = vec![name.to_string()];
            cells.extend(comparisons.iter().map(|c| get(&c.deltas[ci])));
            cells
        };
        t.row(row("Si Area %", &|d| f(d.si_area, 1)));
        t.row(row("Density %", &|d| f(d.density, 1)));
        t.row(row("WL %", &|d| f(d.wirelength, 1)));
        t.row(row("Total Power %", &|d| f(d.total_power, 1)));
        t.row(row("Eff. Delay %", &|d| f(d.effective_delay, 1)));
        t.row(row("PDP %", &|d| f(d.pdp, 1)));
        t.row(row("Die Cost %", &|d| f(d.die_cost, 1)));
        t.row(row("Cost per cm2 %", &|d| f(d.cost_per_cm2, 2)));
        t.row(row("PPC %", &|d| f(d.ppc, 1)));
        t.row(row("Width (um)", &|d| f(d.width_um, 0)));
        t.row(row("WNS (ns)", &|d| f(d.wns_ns, 3)));
        t.row(row("TNS (ns)", &|d| f(d.tns_ns, 2)));
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Formats Table V: Pin-3-D baseline vs Hetero-Pin-3-D.
#[must_use]
pub fn format_table5(cmp: &BaselineComparison) -> String {
    let mut t = TextTable::new(vec!["Metric", "Units", "Pin-3D", "Hetero-Pin-3D"]);
    t.row(vec![
        "Frequency".into(),
        "GHz".into(),
        f(cmp.frequency_ghz, 3),
        f(cmp.frequency_ghz, 3),
    ]);
    t.row(vec![
        "WL".into(),
        "mm".into(),
        f(cmp.pin3d.wirelength_mm, 2),
        f(cmp.hetero_pin3d.wirelength_mm, 2),
    ]);
    t.row(vec![
        "WNS".into(),
        "ns".into(),
        f(cmp.pin3d.wns_ns, 3),
        f(cmp.hetero_pin3d.wns_ns, 3),
    ]);
    t.row(vec![
        "Total Power".into(),
        "mW".into(),
        f(cmp.pin3d.total_power_mw, 2),
        f(cmp.hetero_pin3d.total_power_mw, 2),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }
}
