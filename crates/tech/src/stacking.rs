//! The technology scenario axis: how two dies are joined
//! ([`StackingStyle`]), which corners a design is signed off at
//! ([`CornerSet`]), and the pair of both ([`TechContext`]) that the
//! flow threads from options to checkpoints.

use crate::beol::Miv;
use crate::device::Corner;
use std::fmt;

/// How the two dies of a 3-D stack are joined.
///
/// The default — and the paper's subject — is sequential **monolithic**
/// integration: the top tier is fabricated directly on the bottom one
/// and connected by nano-scale MIVs. The alternative modeled here is
/// **face-to-face hybrid bonding** (à la conventional die stacking):
/// two separately processed wafers bonded pad-to-pad, with a much
/// coarser bond pitch, a heavier per-bond capacitance, and a
/// per-connection bonding cost the cost model accounts for separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum StackingStyle {
    /// Sequential monolithic integration — nano-scale MIVs.
    #[default]
    Monolithic,
    /// Face-to-face wafer-on-wafer hybrid bonding — µm-scale bond pads.
    F2fHybridBond,
}

impl StackingStyle {
    /// Both styles, monolithic first (the sweep order).
    pub const ALL: [StackingStyle; 2] = [StackingStyle::Monolithic, StackingStyle::F2fHybridBond];

    /// The inter-tier via technology this style provides. For
    /// [`StackingStyle::Monolithic`] this is exactly [`Miv::default`],
    /// so binding the default style to a stack is the identity.
    #[must_use]
    pub fn via(self) -> Miv {
        match self {
            StackingStyle::Monolithic => Miv::default(),
            // A ~1 µm hybrid-bond pad: lower resistance than an MIV
            // (metal-to-metal bond) but ~8x the capacitance and a
            // 20x keep-out.
            StackingStyle::F2fHybridBond => Miv {
                r_kohm: 0.002,
                c_ff: 0.8,
                diameter_um: 1.0,
            },
        }
    }

    /// Minimum pitch between adjacent inter-tier connections, in µm.
    #[must_use]
    pub fn pitch_um(self) -> f64 {
        match self {
            StackingStyle::Monolithic => 0.1,
            StackingStyle::F2fHybridBond => 2.0,
        }
    }

    /// Whether this style bonds separately fabricated wafers (and thus
    /// pays a per-connection bonding cost instead of the monolithic
    /// integration adder).
    #[must_use]
    pub fn is_bonded(self) -> bool {
        matches!(self, StackingStyle::F2fHybridBond)
    }
}

impl fmt::Display for StackingStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackingStyle::Monolithic => f.write_str("monolithic"),
            StackingStyle::F2fHybridBond => f.write_str("f2f"),
        }
    }
}

/// Which corners a design is signed off at.
///
/// Construct single-corner sets through [`CornerSet::single`], which
/// normalizes `Single(Typical)` to [`CornerSet::Typical`] so the two
/// spellings of the default scenario cannot alias into distinct cache
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CornerSet {
    /// Typical corner only — the pre-refactor behavior.
    #[default]
    Typical,
    /// All three corners; the worst result is the sign-off.
    Worst,
    /// Exactly one non-typical corner.
    Single(Corner),
}

impl CornerSet {
    /// A single-corner set, normalized (`Typical` maps to
    /// [`CornerSet::Typical`]).
    #[must_use]
    pub fn single(corner: Corner) -> Self {
        match corner {
            Corner::Typical => CornerSet::Typical,
            other => CornerSet::Single(other),
        }
    }

    /// The corners analyzed, in deterministic sign-off order.
    #[must_use]
    pub fn corners(self) -> &'static [Corner] {
        match self {
            CornerSet::Typical => &[Corner::Typical],
            CornerSet::Worst => &Corner::ALL,
            CornerSet::Single(Corner::Slow) => &[Corner::Slow],
            CornerSet::Single(Corner::Typical) => &[Corner::Typical],
            CornerSet::Single(Corner::Fast) => &[Corner::Fast],
        }
    }
}

impl fmt::Display for CornerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CornerSet::Typical => f.write_str("typical"),
            CornerSet::Worst => f.write_str("worst"),
            CornerSet::Single(c) => write!(f, "{c}"),
        }
    }
}

/// The technology scenario a design is implemented and signed off
/// under: a stacking style plus a corner-set. The default —
/// monolithic stacking, typical corner — reproduces the pre-scenario
/// flow bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TechContext {
    /// How 3-D tiers are joined (ignored by 2-D configs).
    pub stacking: StackingStyle,
    /// The sign-off corners.
    pub corners: CornerSet,
}

impl TechContext {
    /// The default scenario: monolithic stacking, typical corner.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == TechContext::default()
    }

    /// A stable human-readable label (`monolithic-typical`,
    /// `f2f-slow`, …) used for observability scopes and reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.stacking, self.corners)
    }
}

impl fmt::Display for TechContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.stacking, self.corners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_via_is_the_default_miv() {
        assert_eq!(StackingStyle::Monolithic.via(), Miv::default());
        assert_eq!(StackingStyle::default(), StackingStyle::Monolithic);
    }

    #[test]
    fn f2f_via_trades_resistance_for_capacitance_and_area() {
        let miv = StackingStyle::Monolithic.via();
        let bond = StackingStyle::F2fHybridBond.via();
        assert!(bond.r_kohm < miv.r_kohm);
        assert!(bond.c_ff > miv.c_ff);
        assert!(bond.diameter_um > miv.diameter_um);
        assert!(StackingStyle::F2fHybridBond.pitch_um() > StackingStyle::Monolithic.pitch_um());
        assert!(StackingStyle::F2fHybridBond.is_bonded());
        assert!(!StackingStyle::Monolithic.is_bonded());
    }

    #[test]
    fn corner_set_single_normalizes_typical() {
        assert_eq!(CornerSet::single(Corner::Typical), CornerSet::Typical);
        assert_eq!(
            CornerSet::single(Corner::Slow),
            CornerSet::Single(Corner::Slow)
        );
        assert_eq!(CornerSet::Worst.corners(), &Corner::ALL[..]);
    }

    #[test]
    fn default_context_is_default_and_labels_are_stable() {
        let d = TechContext::default();
        assert!(d.is_default());
        assert_eq!(d.label(), "monolithic-typical");
        let f2f_slow = TechContext {
            stacking: StackingStyle::F2fHybridBond,
            corners: CornerSet::single(Corner::Slow),
        };
        assert!(!f2f_slow.is_default());
        assert_eq!(f2f_slow.label(), "f2f-slow");
        assert_eq!(f2f_slow.to_string(), "f2f-slow");
    }
}
