use m3d_tech::{CellKind, Drive};
use std::fmt;

/// Dense handle to a cell inside a [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index (valid only within the owning netlist).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Only meaningful for indices obtained
    /// from the same netlist.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        CellId(index as u32)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Physical/electrical description of a hard macro instance (SRAM block).
#[derive(Debug, Clone, PartialEq)]
pub struct MacroSpec {
    /// Width in microns.
    pub width_um: f64,
    /// Height in microns.
    pub height_um: f64,
    /// Capacitance of each input pin, fF.
    pub input_cap_ff: f64,
    /// Access (clock-to-output) delay, ns.
    pub access_delay_ns: f64,
    /// Input setup time, ns.
    pub setup_ns: f64,
    /// Leakage power, µW.
    pub leakage_uw: f64,
    /// Internal energy per access, fJ.
    pub internal_energy_fj: f64,
}

impl MacroSpec {
    /// A synthetic SRAM macro sized for `bits` of storage (single-port,
    /// 28 nm-class density ≈ 0.6 Mb/mm²-equivalent for compiled SRAM).
    #[must_use]
    pub fn sram(bits: u64) -> Self {
        let area_um2 = bits as f64 * 0.45; // ~0.45 µm² per bit incl. periphery
        let width_um = (area_um2).sqrt() * 1.25;
        let height_um = area_um2 / width_um;
        MacroSpec {
            width_um,
            height_um,
            input_cap_ff: 2.5,
            access_delay_ns: 0.25,
            setup_ns: 0.06,
            leakage_uw: bits as f64 * 2e-3,
            internal_energy_fj: 12.0 + (bits as f64).sqrt() * 0.08,
        }
    }

    /// Footprint area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.width_um * self.height_um
    }
}

/// What a cell *is*: a standard-cell gate, a hard macro, or a primary port.
#[derive(Debug, Clone, PartialEq)]
pub enum CellClass {
    /// A standard-cell gate (function + drive); bound to a library per-tier
    /// by the flow.
    Gate {
        /// Logical function.
        kind: CellKind,
        /// Drive strength.
        drive: Drive,
    },
    /// A hard macro (SRAM). Boxed: the seven `f64`s would otherwise make
    /// every gate's class 64 bytes instead of 16.
    Macro(Box<MacroSpec>),
    /// Primary input port: drives one net, has no inputs.
    PrimaryInput,
    /// Primary output port: sinks one net, has no outputs.
    PrimaryOutput,
}

impl CellClass {
    /// Returns `true` for standard-cell gates.
    #[must_use]
    pub fn is_gate(&self) -> bool {
        matches!(self, CellClass::Gate { .. })
    }

    /// Returns `true` for macros.
    #[must_use]
    pub fn is_macro(&self) -> bool {
        matches!(self, CellClass::Macro(_))
    }

    /// Returns `true` for primary ports (either direction).
    #[must_use]
    pub fn is_port(&self) -> bool {
        matches!(self, CellClass::PrimaryInput | CellClass::PrimaryOutput)
    }

    /// Returns `true` for timing startpoint/endpoint cells: registers,
    /// macros and ports.
    #[must_use]
    pub fn is_timing_boundary(&self) -> bool {
        match self {
            CellClass::Gate { kind, .. } => kind.is_sequential(),
            CellClass::Macro(_) | CellClass::PrimaryInput | CellClass::PrimaryOutput => true,
        }
    }

    /// The gate kind, if this is a gate.
    #[must_use]
    pub fn gate_kind(&self) -> Option<CellKind> {
        match self {
            CellClass::Gate { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// The drive strength, if this is a gate.
    #[must_use]
    pub fn gate_drive(&self) -> Option<Drive> {
        match self {
            CellClass::Gate { drive, .. } => Some(*drive),
            _ => None,
        }
    }
}

/// One instance in the netlist.
///
/// A cell holds only what it *is*; its name lives in the netlist's name
/// arena ([`crate::Netlist::cell_name`]) and its pin-to-net bindings in
/// the netlist's flat pin array ([`crate::Netlist::cell_inputs`] /
/// [`crate::Netlist::cell_outputs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What the cell is.
    pub class: CellClass,
    /// Hierarchy block index (see [`crate::Netlist::block_name`]); used by
    /// the workload generators to tag functional blocks with distinct
    /// timing criticality.
    pub block: u16,
    /// `true` if the placer must not move this cell (macros, pre-placed).
    pub fixed: bool,
    pub(crate) n_in: u8,
    pub(crate) n_out: u8,
}

impl Cell {
    /// Number of input pins.
    #[must_use]
    pub fn input_count(&self) -> usize {
        usize::from(self.n_in)
    }

    /// Number of output pins.
    #[must_use]
    pub fn output_count(&self) -> usize {
        usize::from(self.n_out)
    }

    /// Is this a sequential gate (DFF)?
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.class.gate_kind().is_some_and(CellKind::is_sequential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_spec_scales_with_bits() {
        let small = MacroSpec::sram(1024);
        let big = MacroSpec::sram(64 * 1024);
        assert!(big.area_um2() > 10.0 * small.area_um2());
        assert!(big.leakage_uw > small.leakage_uw);
        assert!(big.width_um > big.height_um); // wide aspect by construction
    }

    #[test]
    fn class_predicates() {
        let gate = CellClass::Gate {
            kind: CellKind::Dff,
            drive: Drive::X1,
        };
        assert!(gate.is_gate());
        assert!(gate.is_timing_boundary());
        assert!(!gate.is_port());
        assert_eq!(gate.gate_kind(), Some(CellKind::Dff));

        let comb = CellClass::Gate {
            kind: CellKind::Nand2,
            drive: Drive::X2,
        };
        assert!(!comb.is_timing_boundary());

        let port = CellClass::PrimaryInput;
        assert!(port.is_port());
        assert!(port.is_timing_boundary());
        assert_eq!(port.gate_kind(), None);

        let mac = CellClass::Macro(Box::new(MacroSpec::sram(1024)));
        assert!(mac.is_macro());
        assert!(mac.is_timing_boundary());
    }

    #[test]
    fn a_class_is_sixteen_bytes_and_a_cell_twenty_four() {
        assert_eq!(std::mem::size_of::<CellClass>(), 16);
        assert_eq!(std::mem::size_of::<Cell>(), 24);
    }

    #[test]
    fn cell_id_round_trips() {
        let id = CellId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "c42");
    }
}
