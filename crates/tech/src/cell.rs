use crate::lut::Lut2d;
use std::fmt;

/// Logical function of a standard cell.
///
/// The set covers what a 28 nm synthesis netlist actually instantiates:
/// simple gates, complex AOI/OAI gates, a mux, sequential elements, clock
/// cells, the level shifters whose drawbacks Section III-B of the paper
/// discusses, and a `Macro` placeholder for SRAM blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// 2:1 multiplexer (data0, data1, select).
    Mux2,
    /// Positive-edge D flip-flop.
    Dff,
    /// Clock buffer.
    ClkBuf,
    /// Clock inverter.
    ClkInv,
    /// Level shifter, low-to-high voltage domain.
    LevelShifter,
    /// Hard macro (SRAM); area and pins come from the instance.
    Macro,
}

impl CellKind {
    /// All library kinds (excluding `Macro`, which is instance-defined).
    pub const LIBRARY_KINDS: [CellKind; 17] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
        CellKind::Dff,
        CellKind::ClkBuf,
        CellKind::ClkInv,
        CellKind::LevelShifter,
    ];

    /// Number of signal input pins (data inputs; the DFF's clock pin is
    /// accounted separately).
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::ClkBuf | CellKind::ClkInv => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3 | CellKind::Nor3 | CellKind::Aoi21 | CellKind::Oai21 => 3,
            CellKind::Mux2 => 3,
            CellKind::Dff => 1,
            CellKind::LevelShifter => 1,
            CellKind::Macro => 0,
        }
    }

    /// Returns `true` for sequential elements (timing-path endpoints).
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Returns `true` for clock-network cells.
    #[must_use]
    pub fn is_clock_cell(self) -> bool {
        matches!(self, CellKind::ClkBuf | CellKind::ClkInv)
    }

    /// Logical effort relative to an inverter (Sutherland-style); used to
    /// derive per-kind delay tables from the inverter model.
    #[must_use]
    pub fn logical_effort(self) -> f64 {
        match self {
            CellKind::Inv | CellKind::ClkInv => 1.0,
            CellKind::Buf | CellKind::ClkBuf => 1.1,
            CellKind::Nand2 => 4.0 / 3.0,
            CellKind::Nand3 => 5.0 / 3.0,
            CellKind::Nor2 => 5.0 / 3.0,
            CellKind::Nor3 => 7.0 / 3.0,
            CellKind::And2 | CellKind::Or2 => 1.6,
            CellKind::Xor2 | CellKind::Xnor2 => 2.2,
            CellKind::Aoi21 | CellKind::Oai21 => 1.9,
            CellKind::Mux2 => 2.0,
            CellKind::Dff => 1.8,
            CellKind::LevelShifter => 2.5,
            CellKind::Macro => 1.0,
        }
    }

    /// Intrinsic parasitic delay relative to an inverter.
    #[must_use]
    pub fn parasitic_effort(self) -> f64 {
        match self {
            CellKind::Inv | CellKind::ClkInv => 1.0,
            CellKind::Buf | CellKind::ClkBuf => 2.0,
            CellKind::Nand2 | CellKind::Nor2 => 2.0,
            CellKind::Nand3 | CellKind::Nor3 => 3.0,
            CellKind::And2 | CellKind::Or2 => 2.6,
            CellKind::Xor2 | CellKind::Xnor2 => 4.0,
            CellKind::Aoi21 | CellKind::Oai21 => 3.2,
            CellKind::Mux2 => 3.5,
            CellKind::Dff => 4.5,
            CellKind::LevelShifter => 5.0,
            CellKind::Macro => 1.0,
        }
    }

    /// Cell width in placement sites (X1 drive; scaled by drive strength).
    #[must_use]
    pub fn base_width_sites(self) -> f64 {
        match self {
            CellKind::Inv | CellKind::ClkInv => 2.0,
            CellKind::Buf | CellKind::ClkBuf => 3.0,
            CellKind::Nand2 | CellKind::Nor2 => 3.0,
            CellKind::Nand3 | CellKind::Nor3 => 4.0,
            CellKind::And2 | CellKind::Or2 => 4.0,
            CellKind::Xor2 | CellKind::Xnor2 => 6.0,
            CellKind::Aoi21 | CellKind::Oai21 => 5.0,
            CellKind::Mux2 => 6.0,
            CellKind::Dff => 11.0,
            CellKind::LevelShifter => 8.0,
            CellKind::Macro => 0.0,
        }
    }

    /// Output switching probability given independent input one-probabilities.
    ///
    /// Used by activity propagation in power analysis. `probs` must have
    /// [`CellKind::input_count`] entries.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len()` does not match the input count.
    #[must_use]
    pub fn output_probability(self, probs: &[f64]) -> f64 {
        assert_eq!(
            probs.len(),
            self.input_count(),
            "wrong number of input probabilities for {self}"
        );
        let p = probs;
        match self {
            CellKind::Inv | CellKind::ClkInv => 1.0 - p[0],
            CellKind::Buf | CellKind::ClkBuf | CellKind::Dff | CellKind::LevelShifter => p[0],
            CellKind::Nand2 => 1.0 - p[0] * p[1],
            CellKind::Nand3 => 1.0 - p[0] * p[1] * p[2],
            CellKind::Nor2 => (1.0 - p[0]) * (1.0 - p[1]),
            CellKind::Nor3 => (1.0 - p[0]) * (1.0 - p[1]) * (1.0 - p[2]),
            CellKind::And2 => p[0] * p[1],
            CellKind::Or2 => 1.0 - (1.0 - p[0]) * (1.0 - p[1]),
            CellKind::Xor2 => p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0]),
            CellKind::Xnor2 => 1.0 - (p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0])),
            // AOI21: !(a*b + c)
            CellKind::Aoi21 => (1.0 - p[0] * p[1]) * (1.0 - p[2]),
            // OAI21: !((a+b) * c)
            CellKind::Oai21 => 1.0 - (1.0 - (1.0 - p[0]) * (1.0 - p[1])) * p[2],
            // MUX2: s ? d1 : d0 with p = [d0, d1, s]
            CellKind::Mux2 => p[0] * (1.0 - p[2]) + p[1] * p[2],
            CellKind::Macro => 0.5,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nor2 => "NOR2",
            CellKind::Nor3 => "NOR3",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Mux2 => "MUX2",
            CellKind::Dff => "DFF",
            CellKind::ClkBuf => "CLKBUF",
            CellKind::ClkInv => "CLKINV",
            CellKind::LevelShifter => "LVLSHIFT",
            CellKind::Macro => "MACRO",
        };
        f.write_str(s)
    }
}

/// Drive strength of a cell: transistor width multiple of the X1 variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Drive {
    /// Unit drive.
    X1,
    /// 2x drive.
    X2,
    /// 4x drive.
    X4,
    /// 8x drive.
    X8,
    /// 16x drive.
    X16,
}

impl Drive {
    /// All drive strengths, weakest first.
    pub const ALL: [Drive; 5] = [Drive::X1, Drive::X2, Drive::X4, Drive::X8, Drive::X16];

    /// Numeric width multiple.
    #[must_use]
    pub fn factor(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
            Drive::X8 => 8.0,
            Drive::X16 => 16.0,
        }
    }

    /// Next stronger drive, or `None` at X16.
    #[must_use]
    pub fn upsized(self) -> Option<Drive> {
        match self {
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => Some(Drive::X8),
            Drive::X8 => Some(Drive::X16),
            Drive::X16 => None,
        }
    }

    /// Next weaker drive, or `None` at X1.
    #[must_use]
    pub fn downsized(self) -> Option<Drive> {
        match self {
            Drive::X1 => None,
            Drive::X2 => Some(Drive::X1),
            Drive::X4 => Some(Drive::X2),
            Drive::X8 => Some(Drive::X4),
            Drive::X16 => Some(Drive::X8),
        }
    }
}

impl fmt::Display for Drive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.factor() as u32)
    }
}

/// One input-to-output timing arc of a cell: NLDM delay and output-slew
/// tables indexed by input slew (ns) and output load (fF).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArc {
    /// Delay table (ns).
    pub delay: Lut2d,
    /// Output slew table (ns).
    pub slew: Lut2d,
}

/// A characterized library cell: the timing, power and physical view that
/// placement, STA and power analysis consume.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterCell {
    /// Liberty-style name, e.g. `"NAND2_X4_12T"`.
    pub name: String,
    /// Logical function.
    pub kind: CellKind,
    /// Drive strength.
    pub drive: Drive,
    /// Footprint width in microns.
    pub width_um: f64,
    /// Footprint height in microns (the library row height).
    pub height_um: f64,
    /// Footprint area in square microns.
    pub area_um2: f64,
    /// Capacitance of each input pin, in fF.
    pub input_cap_ff: f64,
    /// Static leakage power, in µW.
    pub leakage_uw: f64,
    /// Internal energy per output transition, in fJ.
    pub internal_energy_fj: f64,
    /// The (shared) timing arc from any input to the output.
    pub arc: TimingArc,
    /// Setup time in ns (sequential cells only, zero otherwise).
    pub setup_ns: f64,
    /// Clock-to-Q delay in ns (sequential cells only, zero otherwise).
    pub clk_to_q_ns: f64,
}

impl MasterCell {
    /// Arc delay (ns) for the given input slew (ns) and output load (fF).
    #[must_use]
    pub fn delay(&self, slew_ns: f64, load_ff: f64) -> f64 {
        self.arc.delay.lookup(slew_ns, load_ff)
    }

    /// Output slew (ns) for the given input slew (ns) and output load (fF).
    #[must_use]
    pub fn output_slew(&self, slew_ns: f64, load_ff: f64) -> f64 {
        self.arc.slew.lookup(slew_ns, load_ff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_counts_are_consistent_with_probability_arity() {
        for kind in CellKind::LIBRARY_KINDS {
            let probs = vec![0.5; kind.input_count()];
            let p = kind.output_probability(&probs);
            assert!((0.0..=1.0).contains(&p), "{kind} produced {p}");
        }
    }

    #[test]
    fn inverter_probability() {
        assert_eq!(CellKind::Inv.output_probability(&[0.3]), 0.7);
        assert_eq!(CellKind::Nand2.output_probability(&[1.0, 1.0]), 0.0);
        assert_eq!(CellKind::Nor2.output_probability(&[0.0, 0.0]), 1.0);
        let xor_half = CellKind::Xor2.output_probability(&[0.5, 0.5]);
        assert!((xor_half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mux_probability_blends_by_select() {
        // select=0 -> d0
        assert_eq!(CellKind::Mux2.output_probability(&[0.2, 0.9, 0.0]), 0.2);
        // select=1 -> d1
        assert_eq!(CellKind::Mux2.output_probability(&[0.2, 0.9, 1.0]), 0.9);
    }

    #[test]
    fn drive_ladder_round_trips() {
        assert_eq!(Drive::X1.upsized(), Some(Drive::X2));
        assert_eq!(Drive::X16.upsized(), None);
        assert_eq!(Drive::X1.downsized(), None);
        for d in Drive::ALL {
            if let Some(up) = d.upsized() {
                assert_eq!(up.downsized(), Some(d));
                assert!(up.factor() > d.factor());
            }
        }
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Inv.is_sequential());
        assert!(CellKind::ClkBuf.is_clock_cell());
        assert!(!CellKind::Buf.is_clock_cell());
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = CellKind::LIBRARY_KINDS
            .iter()
            .map(|k| k.to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), CellKind::LIBRARY_KINDS.len());
    }
}
