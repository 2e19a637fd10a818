use crate::beol::MetalStack;
use crate::device::Corner;
use crate::library::Library;
use crate::stacking::StackingStyle;
use std::fmt;
use std::sync::Arc;

/// Which die of a two-tier monolithic 3-D stack a cell sits on.
///
/// In the paper's heterogeneous setup the **top** tier carries the slow
/// 9-track cells at 0.81 V and the **bottom** tier the fast 12-track cells
/// at 0.90 V (bottom is fabricated first; the performance-critical die gets
/// the pristine FEOL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// Bottom die (tier 0) — the fast die in the heterogeneous stack.
    Bottom,
    /// Top die (tier 1) — the slow die in the heterogeneous stack.
    Top,
}

impl Tier {
    /// Both tiers, bottom first.
    pub const BOTH: [Tier; 2] = [Tier::Bottom, Tier::Top];

    /// The other tier.
    #[must_use]
    pub fn other(self) -> Tier {
        match self {
            Tier::Bottom => Tier::Top,
            Tier::Top => Tier::Bottom,
        }
    }

    /// Tier index: bottom = 0, top = 1.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Tier::Bottom => 0,
            Tier::Top => 1,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Bottom => f.write_str("bottom"),
            Tier::Top => f.write_str("top"),
        }
    }
}

/// The technology binding of a design: which library powers each tier.
///
/// A 2-D design uses a single-tier stack ([`TierStack::two_d`]); a
/// homogeneous 3-D design uses the same library twice; the heterogeneous
/// design mixes them ([`TierStack::heterogeneous`]).
///
/// # Examples
///
/// ```
/// use m3d_tech::{Library, Tier, TierStack};
///
/// let hetero = TierStack::heterogeneous();
/// assert!(hetero.is_heterogeneous());
/// assert_eq!(hetero.library(Tier::Bottom).vdd, 0.90);
/// assert_eq!(hetero.library(Tier::Top).vdd, 0.81);
/// ```
#[derive(Debug, Clone)]
pub struct TierStack {
    bottom: Arc<Library>,
    top: Option<Arc<Library>>,
    /// Shared BEOL per tier.
    pub metal: MetalStack,
}

impl TierStack {
    /// Single-die (2-D) stack on `lib`.
    #[must_use]
    pub fn two_d(lib: Library) -> Self {
        TierStack {
            bottom: Arc::new(lib),
            top: None,
            metal: MetalStack::six_layer_28nm(),
        }
    }

    /// Homogeneous two-tier stack: the same library on both dies.
    #[must_use]
    pub fn homogeneous_3d(lib: Library) -> Self {
        let lib = Arc::new(lib);
        TierStack {
            bottom: Arc::clone(&lib),
            top: Some(lib),
            metal: MetalStack::six_layer_28nm(),
        }
    }

    /// Custom two-tier stack.
    #[must_use]
    pub fn three_d(bottom: Library, top: Library) -> Self {
        TierStack {
            bottom: Arc::new(bottom),
            top: Some(Arc::new(top)),
            metal: MetalStack::six_layer_28nm(),
        }
    }

    /// The paper's heterogeneous stack: 12-track @ 0.90 V on the bottom,
    /// 9-track @ 0.81 V on the top.
    #[must_use]
    pub fn heterogeneous() -> Self {
        TierStack::three_d(Library::twelve_track(), Library::nine_track())
    }

    /// [`TierStack::heterogeneous`] with both libraries derated to
    /// `corner` ([`Corner::Typical`] reproduces `heterogeneous()`
    /// bit for bit).
    #[must_use]
    pub fn heterogeneous_at(corner: Corner) -> Self {
        TierStack::three_d(
            Library::twelve_track_at(corner),
            Library::nine_track_at(corner),
        )
    }

    /// Rebinds the inter-tier via technology to `style`'s (builder
    /// style). [`StackingStyle::Monolithic`] is the identity on the
    /// default stack: its via *is* [`crate::Miv::default`].
    #[must_use]
    pub fn with_stacking(mut self, style: StackingStyle) -> Self {
        self.metal.miv = style.via();
        self
    }

    /// Returns `true` for a two-tier (3-D) stack.
    #[must_use]
    pub fn is_3d(&self) -> bool {
        self.top.is_some()
    }

    /// Returns `true` when the two tiers use different libraries.
    #[must_use]
    pub fn is_heterogeneous(&self) -> bool {
        match &self.top {
            Some(top) => top.name != self.bottom.name,
            None => false,
        }
    }

    /// The library bound to `tier`. For a 2-D stack every tier maps to the
    /// single die's library.
    #[must_use]
    pub fn library(&self, tier: Tier) -> &Library {
        match tier {
            Tier::Bottom => &self.bottom,
            Tier::Top => self.top.as_deref().unwrap_or(&self.bottom),
        }
    }

    /// The tier whose library has the lower nominal gate delay (the "fast"
    /// die). For homogeneous stacks this is [`Tier::Bottom`].
    #[must_use]
    pub fn fast_tier(&self) -> Tier {
        if !self.is_heterogeneous() {
            return Tier::Bottom;
        }
        let d = |t: Tier| {
            let lib = self.library(t);
            let inv = lib
                .cell(crate::CellKind::Inv, crate::Drive::X1)
                .expect("INV_X1 always characterized");
            inv.delay(0.02, 4.0 * inv.input_cap_ff)
        };
        if d(Tier::Bottom) <= d(Tier::Top) {
            Tier::Bottom
        } else {
            Tier::Top
        }
    }

    /// The slow die — [`Tier::other`] of [`TierStack::fast_tier`].
    #[must_use]
    pub fn slow_tier(&self) -> Tier {
        self.fast_tier().other()
    }

    /// Higher of the two supply voltages.
    #[must_use]
    pub fn vdd_high(&self) -> f64 {
        let b = self.bottom.vdd;
        match &self.top {
            Some(t) => b.max(t.vdd),
            None => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_other_round_trips() {
        assert_eq!(Tier::Bottom.other(), Tier::Top);
        assert_eq!(Tier::Top.other().other(), Tier::Top);
        assert_eq!(Tier::Bottom.index(), 0);
        assert_eq!(Tier::Top.index(), 1);
    }

    #[test]
    fn two_d_stack_maps_both_tiers_to_one_library() {
        let s = TierStack::two_d(Library::nine_track());
        assert!(!s.is_3d());
        assert!(!s.is_heterogeneous());
        assert_eq!(s.library(Tier::Top).name, s.library(Tier::Bottom).name);
    }

    #[test]
    fn homogeneous_3d_is_not_heterogeneous() {
        let s = TierStack::homogeneous_3d(Library::twelve_track());
        assert!(s.is_3d());
        assert!(!s.is_heterogeneous());
        assert_eq!(s.fast_tier(), Tier::Bottom);
    }

    #[test]
    fn default_stacking_is_the_identity_and_f2f_swaps_the_via() {
        let base = TierStack::heterogeneous();
        let mono = TierStack::heterogeneous().with_stacking(StackingStyle::Monolithic);
        assert_eq!(base.metal, mono.metal);
        let f2f = TierStack::heterogeneous().with_stacking(StackingStyle::F2fHybridBond);
        assert_eq!(f2f.metal.miv, StackingStyle::F2fHybridBond.via());
        // The routing layers themselves are untouched.
        assert!(f2f.metal.iter().eq(base.metal.iter()));
    }

    #[test]
    fn corner_derated_heterogeneous_stack_keeps_its_shape() {
        let typ = TierStack::heterogeneous_at(Corner::Typical);
        assert_eq!(typ.library(Tier::Bottom).name, "28nm_12T");
        let slow = TierStack::heterogeneous_at(Corner::Slow);
        assert!(slow.is_heterogeneous());
        assert_eq!(slow.library(Tier::Bottom).name, "28nm_12T_ss");
        assert_eq!(slow.library(Tier::Top).name, "28nm_9T_ss");
        assert_eq!(slow.fast_tier(), Tier::Bottom);
        assert!(slow.vdd_high() < typ.vdd_high());
    }

    #[test]
    fn heterogeneous_stack_has_fast_bottom() {
        let s = TierStack::heterogeneous();
        assert!(s.is_3d());
        assert!(s.is_heterogeneous());
        assert_eq!(s.fast_tier(), Tier::Bottom);
        assert_eq!(s.slow_tier(), Tier::Top);
        assert_eq!(s.vdd_high(), 0.90);
    }
}
