//! Structural-Verilog writer and parser for the workspace cell set.
//!
//! The dialect is the flat gate-level subset that synthesis tools emit:
//! one module, `input`/`output`/`wire` declarations, and named-port
//! instantiations of library cells (`NAND2_X1 u1 (.A(n1), .B(n2), .Y(n3));`).
//! Macros are written as `SRAM` instances with indexed pins.
//!
//! # Examples
//!
//! ```
//! use m3d_netlist::{Netlist, verilog};
//! use m3d_tech::{CellKind, Drive};
//!
//! let mut n = Netlist::new("inv");
//! let a = n.add_input("a");
//! let g = n.add_gate("u1", CellKind::Inv, Drive::X2, 0);
//! let y = n.add_output("y");
//! let na = n.add_net("a", a, 0);
//! let ny = n.add_net("y", g, 0);
//! n.connect(na, g, 0);
//! n.connect(ny, y, 0);
//!
//! let text = verilog::write(&n);
//! let round = verilog::parse(&text).expect("parses");
//! assert_eq!(round.gate_count(), 1);
//! ```

use crate::cell::{CellClass, MacroSpec};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::tables::NO_NET;
use m3d_tech::{CellKind, Drive};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Input port names of a gate kind, in pin order (clock pin last for
/// sequential cells).
#[must_use]
pub fn input_port_names(kind: CellKind) -> Vec<&'static str> {
    match kind {
        CellKind::Inv
        | CellKind::Buf
        | CellKind::ClkBuf
        | CellKind::ClkInv
        | CellKind::LevelShifter => {
            vec!["A"]
        }
        CellKind::Nand2
        | CellKind::Nor2
        | CellKind::And2
        | CellKind::Or2
        | CellKind::Xor2
        | CellKind::Xnor2 => vec!["A", "B"],
        CellKind::Nand3 | CellKind::Nor3 | CellKind::Aoi21 | CellKind::Oai21 => {
            vec!["A", "B", "C"]
        }
        CellKind::Mux2 => vec!["D0", "D1", "S"],
        CellKind::Dff => vec!["D", "CK"],
        CellKind::Macro => vec![],
    }
}

/// Output port name of a gate kind.
#[must_use]
pub fn output_port_name(kind: CellKind) -> &'static str {
    match kind {
        CellKind::Dff => "Q",
        _ => "Y",
    }
}

fn gate_type_name(kind: CellKind, drive: Drive) -> String {
    format!("{kind}_{drive}")
}

fn parse_gate_type(name: &str) -> Option<(CellKind, Drive)> {
    let (kind_s, drive_s) = name.rsplit_once('_')?;
    let kind = match kind_s {
        "INV" => CellKind::Inv,
        "BUF" => CellKind::Buf,
        "NAND2" => CellKind::Nand2,
        "NAND3" => CellKind::Nand3,
        "NOR2" => CellKind::Nor2,
        "NOR3" => CellKind::Nor3,
        "AND2" => CellKind::And2,
        "OR2" => CellKind::Or2,
        "XOR2" => CellKind::Xor2,
        "XNOR2" => CellKind::Xnor2,
        "AOI21" => CellKind::Aoi21,
        "OAI21" => CellKind::Oai21,
        "MUX2" => CellKind::Mux2,
        "DFF" => CellKind::Dff,
        "CLKBUF" => CellKind::ClkBuf,
        "CLKINV" => CellKind::ClkInv,
        "LVLSHIFT" => CellKind::LevelShifter,
        _ => return None,
    };
    let drive = match drive_s {
        "X1" => Drive::X1,
        "X2" => Drive::X2,
        "X4" => Drive::X4,
        "X8" => Drive::X8,
        "X16" => Drive::X16,
        _ => return None,
    };
    Some((kind, drive))
}

/// Serializes a netlist as flat structural Verilog.
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// generated by hetero3d");
    // Ports.
    let ports: Vec<&str> = netlist
        .cells()
        .filter(|(_, cell)| cell.class.is_port())
        .map(|(id, _)| netlist.cell_name(id))
        .collect();
    let _ = writeln!(out, "module {} ({});", netlist.name, ports.join(", "));
    for (id, cell) in netlist.cells() {
        match cell.class {
            CellClass::PrimaryInput => {
                let _ = writeln!(out, "  input {};", netlist.cell_name(id));
            }
            CellClass::PrimaryOutput => {
                let _ = writeln!(out, "  output {};", netlist.cell_name(id));
            }
            _ => {}
        }
    }
    // Wires: any net not named like a port.
    let port_names: std::collections::HashSet<&str> = ports.iter().copied().collect();
    for id in netlist.net_ids() {
        let name = netlist.net_name(id);
        if !port_names.contains(name) {
            let _ = writeln!(out, "  wire {name};");
        }
    }
    // Instances.
    let connected = |raw: &[u32]| {
        raw.iter()
            .enumerate()
            .filter(|&(_, &r)| r != NO_NET)
            .map(|(pin, &r)| (pin, netlist.net_name(NetId::from_index(r as usize))))
            .collect::<Vec<_>>()
    };
    for (id, cell) in netlist.cells() {
        match &cell.class {
            CellClass::Gate { kind, drive } => {
                let in_names = input_port_names(*kind);
                let mut conns = Vec::new();
                for (pin, net) in connected(netlist.cell_inputs(id)) {
                    let pname = in_names.get(pin).copied().unwrap_or("A");
                    conns.push(format!(".{pname}({net})"));
                }
                if let Some(net) = netlist.output_net(id, 0) {
                    conns.push(format!(
                        ".{}({})",
                        output_port_name(*kind),
                        netlist.net_name(net)
                    ));
                }
                let _ = writeln!(
                    out,
                    "  {} {} ({});",
                    gate_type_name(*kind, *drive),
                    netlist.cell_name(id),
                    conns.join(", ")
                );
            }
            CellClass::Macro(spec) => {
                let mut conns = Vec::new();
                let data_pins = cell.input_count() - 1;
                for (pin, net) in connected(netlist.cell_inputs(id)) {
                    let pname = if pin == data_pins {
                        "CK".to_string()
                    } else {
                        format!("I{pin}")
                    };
                    conns.push(format!(".{pname}({net})"));
                }
                for (pin, net) in connected(netlist.cell_outputs(id)) {
                    conns.push(format!(".O{pin}({net})"));
                }
                let _ = writeln!(
                    out,
                    "  SRAM_{}x{} {} ({}); // macro {:.1}x{:.1} um",
                    cell.input_count() - 1,
                    cell.output_count(),
                    netlist.cell_name(id),
                    conns.join(", "),
                    spec.width_um,
                    spec.height_um
                );
            }
            _ => {}
        }
    }
    // Port/net aliases: Verilog ports ARE nets, so when an internal net
    // with a different name drives (or is driven by) a port, emit an
    // `assign` bridging the two names.
    for (id, cell) in netlist.cells() {
        let name = netlist.cell_name(id);
        match cell.class {
            CellClass::PrimaryInput => {
                if let Some(net) = netlist.output_net(id, 0) {
                    let net_name = netlist.net_name(net);
                    if net_name != name {
                        let _ = writeln!(out, "  assign {net_name} = {name};");
                    }
                }
            }
            CellClass::PrimaryOutput => {
                if let Some(net) = netlist.input_net(id, 0) {
                    let net_name = netlist.net_name(net);
                    if net_name != name {
                        let _ = writeln!(out, "  assign {name} = {net_name};");
                    }
                }
            }
            _ => {}
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based line of the offending construct (0 when unknown).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verilog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseVerilogError {}

#[derive(Debug)]
struct RawInstance {
    line: usize,
    type_name: String,
    inst_name: String,
    conns: Vec<(String, String)>, // (port, net)
}

/// Parses the flat structural-Verilog subset emitted by [`write()`].
///
/// # Errors
///
/// Returns a [`ParseVerilogError`] describing the first malformed
/// construct (unknown cell type, missing module, dangling net, ...).
pub fn parse(text: &str) -> Result<Netlist, ParseVerilogError> {
    let mut module_name = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut instances: Vec<RawInstance> = Vec::new();
    let mut assigns: Vec<(String, String)> = Vec::new(); // (lhs, rhs)

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if let Some(rest) = line.strip_prefix("module ") {
            let name = rest.split(['(', ' ', ';']).next().unwrap_or("").trim();
            module_name = Some(name.to_string());
        } else if let Some(rest) = line.strip_prefix("input ") {
            inputs.extend(split_decl(rest));
        } else if let Some(rest) = line.strip_prefix("output ") {
            outputs.extend(split_decl(rest));
        } else if line.starts_with("wire ") || line.starts_with("endmodule") {
            // Wires are implied by usage.
        } else if let Some(rest) = line.strip_prefix("assign ") {
            let body = rest.trim_end_matches(';');
            if let Some((lhs, rhs)) = body.split_once('=') {
                assigns.push((lhs.trim().to_string(), rhs.trim().to_string()));
            } else {
                return Err(ParseVerilogError {
                    line: lineno,
                    message: format!("malformed assign: `{line}`"),
                });
            }
        } else {
            // Instance: TYPE name ( .P(n), ... );
            let open = line.find('(').ok_or_else(|| ParseVerilogError {
                line: lineno,
                message: format!("unrecognized statement: `{line}`"),
            })?;
            let head: Vec<&str> = line[..open].split_whitespace().collect();
            if head.len() != 2 {
                return Err(ParseVerilogError {
                    line: lineno,
                    message: format!("malformed instance header: `{line}`"),
                });
            }
            let body = &line[open + 1..line.rfind(')').ok_or_else(|| ParseVerilogError {
                line: lineno,
                message: "missing `)`".into(),
            })?];
            let mut conns = Vec::new();
            for conn in body.split(',') {
                let conn = conn.trim();
                if conn.is_empty() {
                    continue;
                }
                let conn = conn.strip_prefix('.').ok_or_else(|| ParseVerilogError {
                    line: lineno,
                    message: format!("expected named connection, got `{conn}`"),
                })?;
                let (port, net) = conn.split_once('(').ok_or_else(|| ParseVerilogError {
                    line: lineno,
                    message: format!("malformed connection `{conn}`"),
                })?;
                let net = net.trim_end_matches(')').trim();
                conns.push((port.trim().to_string(), net.to_string()));
            }
            instances.push(RawInstance {
                line: lineno,
                type_name: head[0].to_string(),
                inst_name: head[1].to_string(),
                conns,
            });
        }
    }

    let module_name = module_name.ok_or(ParseVerilogError {
        line: 0,
        message: "no module declaration found".into(),
    })?;
    let mut netlist = Netlist::new(module_name);

    // Create cells.
    let mut cell_of_input: HashMap<String, crate::cell::CellId> = HashMap::new();
    let mut cell_of_output: HashMap<String, crate::cell::CellId> = HashMap::new();
    for name in &inputs {
        cell_of_input.insert(name.clone(), netlist.add_input(name));
    }
    for name in &outputs {
        cell_of_output.insert(name.clone(), netlist.add_output(name));
    }

    struct Binding {
        cell: crate::cell::CellId,
        driver_of: Vec<(String, u8)>, // net -> out pin
        sink_of: Vec<(String, u8)>,   // net -> in pin
    }
    let mut bindings = Vec::new();
    for inst in &instances {
        if let Some((kind, drive)) = parse_gate_type(&inst.type_name) {
            let id = netlist.add_gate(&inst.inst_name, kind, drive, 0);
            let in_names = input_port_names(kind);
            let mut b = Binding {
                cell: id,
                driver_of: Vec::new(),
                sink_of: Vec::new(),
            };
            for (port, net) in &inst.conns {
                if port == output_port_name(kind) {
                    b.driver_of.push((net.clone(), 0));
                } else if let Some(pin) = in_names.iter().position(|p| p == port) {
                    b.sink_of.push((net.clone(), pin as u8));
                } else {
                    return Err(ParseVerilogError {
                        line: inst.line,
                        message: format!("unknown port `{port}` on {}", inst.type_name),
                    });
                }
            }
            bindings.push(b);
        } else if inst.type_name.starts_with("SRAM") {
            let n_in = inst
                .conns
                .iter()
                .filter(|(p, _)| p.starts_with('I'))
                .count();
            let n_out = inst
                .conns
                .iter()
                .filter(|(p, _)| p.starts_with('O'))
                .count();
            let id = netlist.add_macro(
                &inst.inst_name,
                MacroSpec::sram(4096),
                n_in,
                n_out.max(1),
                0,
            );
            let mut b = Binding {
                cell: id,
                driver_of: Vec::new(),
                sink_of: Vec::new(),
            };
            for (port, net) in &inst.conns {
                if let Some(idx) = port.strip_prefix('O').and_then(|s| s.parse::<u8>().ok()) {
                    b.driver_of.push((net.clone(), idx));
                } else if let Some(idx) = port.strip_prefix('I').and_then(|s| s.parse::<u8>().ok())
                {
                    b.sink_of.push((net.clone(), idx));
                } else if port == "CK" {
                    b.sink_of.push((net.clone(), n_in as u8));
                }
            }
            bindings.push(b);
        } else {
            return Err(ParseVerilogError {
                line: inst.line,
                message: format!("unknown cell type `{}`", inst.type_name),
            });
        }
    }

    // Create nets: drivers are instance outputs or primary inputs.
    let mut net_ids: HashMap<String, crate::net::NetId> = HashMap::new();
    for (name, cell) in &cell_of_input {
        net_ids.insert(name.clone(), netlist.add_net(name, *cell, 0));
    }
    for b in &bindings {
        for (net, pin) in &b.driver_of {
            if net_ids.contains_key(net) {
                return Err(ParseVerilogError {
                    line: 0,
                    message: format!("net `{net}` has multiple drivers"),
                });
            }
            net_ids.insert(net.clone(), netlist.add_net(net, b.cell, *pin));
        }
    }
    // Resolve alias chains (assign lhs = rhs makes lhs a view of rhs's
    // driver; rhs may itself be an alias).
    let alias: HashMap<String, String> = assigns.iter().cloned().collect();
    let resolve = |name: &str| -> Option<crate::net::NetId> {
        let mut cur = name.to_string();
        for _ in 0..16 {
            if let Some(id) = net_ids.get(&cur) {
                return Some(*id);
            }
            match alias.get(&cur) {
                Some(next) => cur = next.clone(),
                None => return None,
            }
        }
        None
    };

    // Connect sinks: every edge is known now, so each net's sink list is
    // sized once.
    let mut edges = Vec::new();
    for b in &bindings {
        for (net, pin) in &b.sink_of {
            let id = resolve(net).ok_or_else(|| ParseVerilogError {
                line: 0,
                message: format!("net `{net}` has no driver"),
            })?;
            edges.push((id, b.cell, *pin));
        }
    }
    for (name, cell) in &cell_of_output {
        let id = resolve(name).ok_or_else(|| ParseVerilogError {
            line: 0,
            message: format!("output `{name}` is undriven"),
        })?;
        edges.push((id, *cell, 0));
    }
    netlist.connect_all(&edges);
    netlist.shrink_to_fit();

    // Identify the clock: the net feeding DFF clock pins.
    let clock_candidate = netlist
        .cells()
        .filter(|(_, cell)| cell.is_sequential())
        .find_map(|(id, cell)| netlist.input_net(id, cell.input_count() - 1));
    if let Some(clk) = clock_candidate {
        netlist.set_clock(clk);
    }
    Ok(netlist)
}

fn split_decl(rest: &str) -> Vec<String> {
    rest.trim_end_matches(';')
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut n = Netlist::new("top");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let clk_in = n.add_input("clk");
        let g = n.add_gate("u1", CellKind::Nand2, Drive::X2, 0);
        let ff = n.add_gate("r1", CellKind::Dff, Drive::X1, 0);
        let y = n.add_output("y");
        let na = n.add_net("a", a, 0);
        let nb = n.add_net("b", b, 0);
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let n1 = n.add_net("n1", g, 0);
        let q = n.add_net("y", ff, 0);
        n.connect(na, g, 0);
        n.connect(nb, g, 1);
        n.connect(n1, ff, 0);
        n.connect(clk, ff, 1);
        n.connect(q, y, 0);
        n
    }

    #[test]
    fn write_contains_instances_and_ports() {
        let text = write(&sample());
        assert!(text.contains("module top"));
        assert!(text.contains("NAND2_X2 u1"));
        assert!(text.contains("DFF_X1 r1"));
        assert!(text.contains(".CK(clk)"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample();
        let text = write(&original);
        let parsed = parse(&text).expect("round trip parses");
        assert!(parsed.validate().is_ok());
        assert_eq!(parsed.gate_count(), original.gate_count());
        assert_eq!(parsed.net_count(), original.net_count());
        assert_eq!(parsed.stats().registers, 1);
        assert!(parsed.clock().is_some());
    }

    #[test]
    fn parse_rejects_unknown_cell() {
        let text = "module m (a);\n input a;\n BOGUS_X1 u (.A(a));\nendmodule\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("unknown cell type"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn parse_rejects_multiple_drivers() {
        let text = "module m (a, y);\n input a;\n output y;\n INV_X1 u1 (.A(a), .Y(y));\n INV_X1 u2 (.A(a), .Y(y));\nendmodule\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("multiple drivers"));
    }

    #[test]
    fn parse_rejects_undriven_output() {
        let text = "module m (y);\n output y;\nendmodule\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("undriven"));
    }

    #[test]
    fn parse_handles_comments_and_blank_lines() {
        let text = "// header\n\nmodule m (a, y); // ports\n input a;\n output y;\n INV_X4 u1 (.A(a), .Y(y)); // body\nendmodule\n";
        let n = parse(text).expect("parses");
        assert_eq!(n.gate_count(), 1);
        let g = n.cell_ids().find(|&id| n.cell_name(id) == "u1").unwrap();
        assert_eq!(n.cell(g).class.gate_drive(), Some(Drive::X4));
    }
}
