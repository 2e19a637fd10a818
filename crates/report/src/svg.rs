//! SVG renderings of the paper's figures: configuration cartoons (Fig. 1),
//! placement/routing layouts (Fig. 3) and clock / memory-net /
//! critical-path overlays (Fig. 4).

use m3d_flow::Implementation;
use m3d_netlist::CellClass;
use m3d_sta::{worst_paths, TimingContext};
use m3d_tech::Tier;
use std::fmt::Write as _;

/// Which content to render in a layout view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerChoice {
    /// Both tiers overlaid (bottom blue, top orange).
    Both,
    /// Bottom tier only.
    Bottom,
    /// Top tier only.
    Top,
}

const SVG_SIZE: f64 = 600.0;

fn svg_header(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" viewBox="0 0 {s} {s}">"#,
        s = SVG_SIZE + 40.0
    );
    let _ = writeln!(
        out,
        r#"<text x="10" y="18" font-family="monospace" font-size="14">{title}</text>"#
    );
}

/// Renders the placement of an implementation as SVG (Fig. 3-style).
///
/// Gates are drawn as small rectangles colored by tier, macros as gray
/// blocks, the die outline in black.
#[must_use]
pub fn render_layout(imp: &Implementation, layers: LayerChoice, title: &str) -> String {
    let die = imp.floorplan.die;
    let scale = SVG_SIZE / die.width().max(die.height());
    let tx = |x: f64| 20.0 + (x - die.llx()) * scale;
    let ty = |y: f64| 20.0 + (die.ury() - y) * scale; // flip y

    let mut out = String::new();
    svg_header(&mut out, title);
    let _ = writeln!(
        out,
        r#"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="white" stroke="black"/>"#,
        tx(die.llx()),
        ty(die.ury()),
        die.width() * scale,
        die.height() * scale
    );
    // Macros.
    for (_, _, r) in &imp.floorplan.macros {
        let _ = writeln!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#b0b0b0" stroke="#606060"/>"##,
            tx(r.llx()),
            ty(r.ury()),
            r.width() * scale,
            r.height() * scale
        );
    }
    // Cells.
    for (id, cell) in imp.netlist.cells() {
        if !cell.class.is_gate() {
            continue;
        }
        let tier = imp.tiers[id.index()];
        let draw = match layers {
            LayerChoice::Both => true,
            LayerChoice::Bottom => tier == Tier::Bottom,
            LayerChoice::Top => tier == Tier::Top,
        };
        if !draw {
            continue;
        }
        let (kind, drive) = match &cell.class {
            CellClass::Gate { kind, drive } => (*kind, *drive),
            _ => unreachable!(),
        };
        let lib = imp.stack.library(tier);
        let (w, h) = lib
            .cell(kind, drive)
            .map_or((0.3, 1.0), |m| (m.width_um, m.height_um));
        let p = imp.placement.positions[id.index()];
        let color = match tier {
            Tier::Bottom => "#4878cf",
            Tier::Top => "#e8853d",
        };
        let _ = writeln!(
            out,
            r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{color}" fill-opacity="0.7"/>"#,
            tx(p.x - w * 0.5),
            ty(p.y + h * 0.5),
            (w * scale).max(0.5),
            (h * scale).max(0.5)
        );
    }
    out.push_str("</svg>\n");
    out
}

/// Renders Fig. 4-style overlays: the clock tree (green), memory nets
/// (yellow/magenta) and the worst critical path (red) over a faint
/// placement.
#[must_use]
pub fn render_overlays(imp: &Implementation, title: &str) -> String {
    let die = imp.floorplan.die;
    let scale = SVG_SIZE / die.width().max(die.height());
    let tx = |x: f64| 20.0 + (x - die.llx()) * scale;
    let ty = |y: f64| 20.0 + (die.ury() - y) * scale;

    let mut out = String::new();
    svg_header(&mut out, title);
    let _ = writeln!(
        out,
        r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#f8f8f8" stroke="black"/>"##,
        tx(die.llx()),
        ty(die.ury()),
        die.width() * scale,
        die.height() * scale
    );
    for (_, _, r) in &imp.floorplan.macros {
        let _ = writeln!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#d0d0d0" stroke="#808080"/>"##,
            tx(r.llx()),
            ty(r.ury()),
            r.width() * scale,
            r.height() * scale
        );
    }

    // Clock tree edges (green).
    for node in &imp.clock_tree.nodes {
        for child in &node.children {
            let cpos = match child {
                m3d_cts::ClockChild::Node(ci) => imp.clock_tree.nodes[*ci].pos,
                m3d_cts::ClockChild::Sink(id) => imp.placement.positions[id.index()],
            };
            let _ = writeln!(
                out,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#3a9e4c" stroke-width="0.7"/>"##,
                tx(node.pos.x),
                ty(node.pos.y),
                tx(cpos.x),
                ty(cpos.y)
            );
        }
    }

    // Memory nets: to-macro yellow, from-macro magenta.
    for (_, net) in imp.netlist.nets() {
        if net.is_clock {
            continue;
        }
        let Some(drv) = net.driver else { continue };
        let driven_by_macro = imp.netlist.cell(drv.cell).class.is_macro();
        for sink in &net.sinks {
            let drives_macro = imp.netlist.cell(sink.cell).class.is_macro();
            if !driven_by_macro && !drives_macro {
                continue;
            }
            let color = if driven_by_macro {
                "#cc41b0"
            } else {
                "#d9b42a"
            };
            let a = imp.placement.positions[drv.cell.index()];
            let b = imp.placement.positions[sink.cell.index()];
            let _ = writeln!(
                out,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-width="0.8"/>"#,
                tx(a.x),
                ty(a.y),
                tx(b.x),
                ty(b.y)
            );
        }
    }

    // Worst critical path (red polyline).
    let ctx = TimingContext {
        netlist: &imp.netlist,
        stack: &imp.stack,
        tiers: &imp.tiers,
        parasitics: &imp.parasitics,
        clock: imp.clock_spec(),
    };
    // Path extraction reuses the flow's sign-off result (computed with
    // this exact context) instead of re-running a full analyze.
    if let Some(p) = worst_paths(&ctx, &imp.sta, 1).first() {
        let pts: Vec<String> = p
            .stages
            .iter()
            .map(|s| {
                let q = imp.placement.positions[s.cell.index()];
                format!("{:.1},{:.1}", tx(q.x), ty(q.y))
            })
            .collect();
        let _ = writeln!(
            out,
            r##"<polyline points="{}" fill="none" stroke="#d62020" stroke-width="1.6"/>"##,
            pts.join(" ")
        );
    }
    out.push_str("</svg>\n");
    out
}

/// Renders the Fig. 1 configuration cartoon: five stacks of labeled dies.
#[must_use]
pub fn render_config_cartoon() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="900" height="240" viewBox="0 0 900 240">"#
    );
    let configs: [(&str, &[(&str, &str)]); 5] = [
        ("(a) 12T 2D", &[("12-track @0.90V", "#4878cf")]),
        ("(b) 9T 2D", &[("9-track @0.81V", "#e8853d")]),
        (
            "(c) 12T 3D",
            &[("12-track", "#4878cf"), ("12-track", "#4878cf")],
        ),
        (
            "(d) 9T 3D",
            &[("9-track", "#e8853d"), ("9-track", "#e8853d")],
        ),
        (
            "(e) Hetero 3D",
            &[("9-track top", "#e8853d"), ("12-track bottom", "#4878cf")],
        ),
    ];
    for (i, (label, dies)) in configs.iter().enumerate() {
        let x = 20.0 + i as f64 * 175.0;
        let _ = writeln!(
            out,
            r#"<text x="{x}" y="30" font-family="monospace" font-size="13">{label}</text>"#
        );
        for (j, (name, color)) in dies.iter().enumerate() {
            let w = if dies.len() == 1 { 150.0 } else { 106.0 };
            let y = 60.0 + j as f64 * 50.0;
            let _ = writeln!(
                out,
                r#"<rect x="{x}" y="{y}" width="{w}" height="40" fill="{color}" fill-opacity="0.8" stroke="black"/>"#
            );
            let _ = writeln!(
                out,
                r#"<text x="{tx}" y="{ty}" font-family="monospace" font-size="10" fill="white">{name}</text>"#,
                tx = x + 5.0,
                ty = y + 24.0
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_flow::{Config, FlowOptions, FlowSession};

    #[test]
    fn layout_svg_is_well_formed() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.01, 61);
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 4;
        let imp = FlowSession::builder(&n)
            .options(o)
            .build()
            .and_then(|s| s.run(Config::Hetero3d, 1.0))
            .expect("flow");
        let svg = render_layout(&imp, LayerChoice::Both, "aes hetero");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.matches("<rect").count() > 50);
        // Both tier colors present.
        assert!(svg.contains("#4878cf"));
        assert!(svg.contains("#e8853d"));
    }

    #[test]
    fn overlay_svg_contains_clock_and_path() {
        let n = m3d_netgen::Benchmark::Cpu.generate(0.012, 61);
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 4;
        let imp = FlowSession::builder(&n)
            .options(o)
            .build()
            .and_then(|s| s.run(Config::Hetero3d, 1.0))
            .expect("flow");
        let svg = render_overlays(&imp, "cpu overlays");
        assert!(svg.contains("polyline"), "critical path missing");
        assert!(svg.contains("#3a9e4c"), "clock tree missing");
        assert!(
            svg.contains("#d9b42a") || svg.contains("#cc41b0"),
            "memory nets missing"
        );
    }

    #[test]
    fn cartoon_lists_all_five_configs() {
        let svg = render_config_cartoon();
        for label in ["(a)", "(b)", "(c)", "(d)", "(e)"] {
            assert!(svg.contains(label));
        }
    }
}
