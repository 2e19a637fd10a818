//! The cost model of Section II-C — Table IV, formulas (1)–(5).
//!
//! Costs are expressed in units of `C'`, the baseline wafer cost of one
//! FEOL layer plus eight metal layers, exactly as the paper normalizes
//! them. The model derives: wafer costs for 2-D and (two-tier) 3-D,
//! dies-per-wafer, yields (with the extra 3-D yield degradation `β`), die
//! cost, cost per cm², and the two composite metrics the paper optimizes —
//! power-delay product (PDP) and performance per cost (PPC).
//!
//! Two 3-D stacking styles are costed. **Monolithic** (the paper's
//! subject) pays the sequential-integration adder `α` and the β yield
//! hit. **F2F hybrid bonding** replaces `α` with a (cheaper)
//! wafer-bonding adder, carries its own bond-yield degradation, and —
//! unlike monolithic MIVs, which are free — pays a small cost *per
//! bonded connection* ([`CostModel::die_cost_f2f`]), so MIV-rich
//! partitions erode its wafer-cost advantage.
//!
//! # Examples
//!
//! ```
//! use m3d_cost::CostModel;
//!
//! let model = CostModel::default();
//! // The derived wafer costs of Table IV.
//! assert!((model.wafer_cost_2d() - 0.96).abs() < 1e-12);
//! assert!((model.wafer_cost_3d() - 1.97).abs() < 1e-12);
//! // A 1 mm² die is much cheaper than a 100 mm² die.
//! assert!(model.die_cost(1.0, false) < model.die_cost(100.0, false) / 50.0);
//! ```

use std::f64::consts::PI;

/// Table IV's assumptions, in units of the baseline wafer cost `C'`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Baseline wafer cost (FEOL + 8 metals); the unit, normally 1.0.
    pub c_prime: f64,
    /// FEOL share of the baseline wafer cost (0.3).
    pub feol_fraction: f64,
    /// BEOL share for six metal layers (0.66 — consistent per-layer cost).
    pub beol6_fraction: f64,
    /// 3-D integration cost adder `α` (0.05).
    pub integration_fraction: f64,
    /// Wafer diameter, mm (300).
    pub wafer_diameter_mm: f64,
    /// Defect density `D_w`, mm⁻² (0.2... the paper's table lists
    /// 0.2 mm⁻²; see the note on units in `die_yield`).
    pub defect_density_per_mm2: f64,
    /// Base wafer yield `κ` (0.95).
    pub wafer_yield: f64,
    /// 3-D yield degradation `β` (0.95).
    pub yield_degradation_3d: f64,
    /// F2F wafer-bonding cost adder replacing `α` for bonded stacks
    /// (0.03 — wafer-on-wafer bonding skips the sequential
    /// thermal-budget processing that makes monolithic integration
    /// expensive).
    pub f2f_bond_fraction: f64,
    /// F2F bond-yield degradation, the bonded analogue of `β` (0.95).
    pub f2f_yield_degradation: f64,
    /// Incremental cost per hybrid-bond connection, in units of `C'`
    /// (10⁻¹² — negligible alone, material for MIV-rich partitions of
    /// the paper-scale sub-mm² dies).
    pub f2f_cost_per_connection: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            c_prime: 1.0,
            feol_fraction: 0.3,
            beol6_fraction: 0.66,
            integration_fraction: 0.05,
            wafer_diameter_mm: 300.0,
            defect_density_per_mm2: 0.2,
            wafer_yield: 0.95,
            yield_degradation_3d: 0.95,
            f2f_bond_fraction: 0.03,
            f2f_yield_degradation: 0.95,
            f2f_cost_per_connection: 1e-12,
        }
    }
}

/// The error of the `try_*` cost entry points: a die area that is not
/// a positive finite number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidDieArea {
    /// The offending area, mm².
    pub die_area_mm2: f64,
}

impl std::fmt::Display for InvalidDieArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "die area must be positive, got {} mm2",
            self.die_area_mm2
        )
    }
}

impl std::error::Error for InvalidDieArea {}

impl CostModel {
    /// Wafer area, mm².
    #[must_use]
    pub fn wafer_area_mm2(&self) -> f64 {
        let r = self.wafer_diameter_mm * 0.5;
        PI * r * r
    }

    /// 2-D wafer cost `C_2D = (0.3 + 0.66) C' = 0.96 C'`.
    #[must_use]
    pub fn wafer_cost_2d(&self) -> f64 {
        (self.feol_fraction + self.beol6_fraction) * self.c_prime
    }

    /// 3-D wafer cost `C_3D = (2·(0.3 + 0.66) + 0.05) C' = 1.97 C'`:
    /// two FEOL layers, two six-metal BEOLs and the integration adder.
    #[must_use]
    pub fn wafer_cost_3d(&self) -> f64 {
        (2.0 * (self.feol_fraction + self.beol6_fraction) + self.integration_fraction)
            * self.c_prime
    }

    /// Formula (1): dies per wafer,
    /// `DPW = A_w/A_d − √(2π·A_w/A_d)` (the second term discounts edge
    /// dies). `die_area_mm2` is the die footprint.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDieArea`] when `die_area_mm2` is not a
    /// positive finite number.
    pub fn try_dies_per_wafer(&self, die_area_mm2: f64) -> Result<f64, InvalidDieArea> {
        if !(die_area_mm2.is_finite() && die_area_mm2 > 0.0) {
            return Err(InvalidDieArea { die_area_mm2 });
        }
        Ok(self.dpw_unchecked(die_area_mm2))
    }

    /// Shared panicking check for the internal call sites (`good_dies`,
    /// `die_cost`, …) that keep formula (1)'s historical contract.
    fn checked_dpw(&self, die_area_mm2: f64) -> f64 {
        assert!(die_area_mm2 > 0.0, "die area must be positive");
        self.dpw_unchecked(die_area_mm2)
    }

    fn dpw_unchecked(&self, die_area_mm2: f64) -> f64 {
        let ratio = self.wafer_area_mm2() / die_area_mm2;
        (ratio - (2.0 * PI * ratio).sqrt()).max(0.0)
    }

    /// Formula (2): 2-D die yield `Y_2D = κ (1 + A_d·D_w/2)^−2`.
    #[must_use]
    pub fn die_yield_2d(&self, die_area_mm2: f64) -> f64 {
        self.wafer_yield * (1.0 + die_area_mm2 * self.defect_density_per_mm2 * 0.5).powi(-2)
    }

    /// Formula (3): 3-D die yield `Y_3D = κ·β (1 + A_d·D_w/2)^−2`.
    #[must_use]
    pub fn die_yield_3d(&self, die_area_mm2: f64) -> f64 {
        self.yield_degradation_3d * self.die_yield_2d(die_area_mm2)
    }

    /// Formula (4): good dies per wafer.
    #[must_use]
    pub fn good_dies(&self, die_area_mm2: f64, is_3d: bool) -> f64 {
        let y = if is_3d {
            self.die_yield_3d(die_area_mm2)
        } else {
            self.die_yield_2d(die_area_mm2)
        };
        self.checked_dpw(die_area_mm2) * y
    }

    /// Formula (5): die cost `C_wafer / (N_GD × Y)` in units of `C'`.
    ///
    /// `die_area_mm2` is the *footprint* (shared outline for 3-D).
    #[must_use]
    pub fn die_cost(&self, die_area_mm2: f64, is_3d: bool) -> f64 {
        let (wafer, y) = if is_3d {
            (self.wafer_cost_3d(), self.die_yield_3d(die_area_mm2))
        } else {
            (self.wafer_cost_2d(), self.die_yield_2d(die_area_mm2))
        };
        wafer / (self.good_dies(die_area_mm2, is_3d) * y)
    }

    /// Cost per cm² of silicon: `die cost / total Si area`.
    /// `si_area_mm2` is the total fabricated silicon (2× footprint for 3-D).
    #[must_use]
    pub fn cost_per_cm2(&self, die_area_mm2: f64, si_area_mm2: f64, is_3d: bool) -> f64 {
        self.die_cost(die_area_mm2, is_3d) / (si_area_mm2 * 1e-2)
    }

    /// F2F 3-D wafer cost: two FEOLs, two six-metal BEOLs and the
    /// wafer-bonding adder instead of the monolithic integration adder
    /// — `(2·(0.3 + 0.66) + 0.03) C' = 1.95 C'` at the defaults.
    #[must_use]
    pub fn wafer_cost_3d_f2f(&self) -> f64 {
        (2.0 * (self.feol_fraction + self.beol6_fraction) + self.f2f_bond_fraction) * self.c_prime
    }

    /// F2F 3-D die yield: formula (3) with the bond-yield degradation
    /// in place of `β`.
    #[must_use]
    pub fn die_yield_3d_f2f(&self, die_area_mm2: f64) -> f64 {
        self.f2f_yield_degradation * self.die_yield_2d(die_area_mm2)
    }

    /// Formula (5) for an F2F hybrid-bonded stack: the bonded wafer
    /// cost over good bonded dies, plus the per-connection bonding
    /// cost of the stack's `bond_connections` inter-tier bonds. In
    /// units of `C'`.
    ///
    /// # Panics
    ///
    /// Panics if `die_area_mm2` is not positive (same contract as
    /// [`CostModel::die_cost`]).
    #[must_use]
    pub fn die_cost_f2f(&self, die_area_mm2: f64, bond_connections: usize) -> f64 {
        let y = self.die_yield_3d_f2f(die_area_mm2);
        let per_die = self.wafer_cost_3d_f2f() / (self.checked_dpw(die_area_mm2) * y * y);
        per_die + bond_connections as f64 * self.f2f_cost_per_connection
    }
}

/// Power-delay product in pJ: `power (mW) × effective delay (ns)`.
#[must_use]
pub fn pdp_pj(power_mw: f64, effective_delay_ns: f64) -> f64 {
    power_mw * effective_delay_ns
}

/// Performance per cost, the paper's composite metric:
/// `frequency (GHz) / (power (W) × die cost (10⁻⁶ C'))` — note the watt
/// normalization, which reproduces the magnitudes of Table VI (e.g. the
/// CPU's `1.2 GHz / (0.188 W × 6.26) ≈ 1.02`).
#[must_use]
pub fn ppc(frequency_ghz: f64, power_mw: f64, die_cost: f64) -> f64 {
    frequency_ghz / (power_mw * 1e-3 * die_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_wafer_costs() {
        let m = CostModel::default();
        assert!((m.wafer_cost_2d() - 0.96).abs() < 1e-12);
        assert!((m.wafer_cost_3d() - 1.97).abs() < 1e-12);
    }

    #[test]
    fn dpw_decreases_with_die_area() {
        let m = CostModel::default();
        let dpw = |a| m.try_dies_per_wafer(a).expect("positive area");
        assert!(dpw(1.0) > dpw(10.0));
        assert!(dpw(10.0) > dpw(100.0));
        // 300 mm wafer, 100 mm2 die: ~640 gross dies.
        let dpw = dpw(100.0);
        assert!((600.0..700.0).contains(&dpw), "dpw {dpw}");
    }

    #[test]
    fn yield_decreases_with_area_and_3d_penalty() {
        let m = CostModel::default();
        assert!(m.die_yield_2d(1.0) > m.die_yield_2d(50.0));
        let r = m.die_yield_3d(10.0) / m.die_yield_2d(10.0);
        assert!((r - 0.95).abs() < 1e-12);
        // Yield is a probability.
        assert!(m.die_yield_2d(0.001) <= 0.95 + 1e-12);
    }

    #[test]
    fn die_cost_monotone_in_area() {
        let m = CostModel::default();
        let costs: Vec<f64> = [0.1, 0.5, 1.0, 5.0, 20.0]
            .iter()
            .map(|&a| m.die_cost(a, false))
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn small_3d_die_can_beat_large_2d_die() {
        // The heterogeneous premise: halving the footprint (and shaving
        // 12.5 % of silicon) can offset the 3-D wafer premium.
        // Paper-scale dies (Table VI footprints are 0.1-0.4 mm2).
        let m = CostModel::default();
        let cost_2d = m.die_cost(0.4, false);
        // Same logic folded onto two tiers: footprint 0.2 mm2, 3-D.
        let cost_3d = m.die_cost(0.2, true);
        // Homogeneous 3-D costs more than 2-D (2x wafer + beta)...
        assert!(cost_3d > cost_2d);
        // ...but the heterogeneous 12.5 % silicon saving (footprint
        // 0.875 x 0.2) flips the comparison -- the paper's die-cost win.
        let hetero_3d = m.die_cost(0.175, true);
        assert!(hetero_3d < cost_3d);
        assert!(hetero_3d < cost_2d);
    }

    #[test]
    fn cost_per_cm2_is_higher_for_3d() {
        let m = CostModel::default();
        // Iso-silicon comparison at paper-scale dies: 2-D of 0.4 mm2 vs
        // 3-D of 0.2 mm2 footprint (0.4 mm2 total silicon).
        let c2 = m.cost_per_cm2(0.4, 0.4, false);
        let c3 = m.cost_per_cm2(0.2, 0.4, true);
        assert!(c3 > c2, "3-D per-area cost {c3} should exceed 2-D {c2}");
        // And by single-digit percents, as in Table VII's cost/cm2 row.
        assert!(c3 / c2 < 1.25, "ratio {}", c3 / c2);
    }

    #[test]
    fn composite_metrics() {
        assert_eq!(pdp_pj(100.0, 0.5), 50.0);
        // Paper Table VI sanity: cpu at 1.2 GHz, 188 mW, 6.26e-6 C'.
        assert!((ppc(1.2, 188.0, 6.26) - 1.0195).abs() < 1e-3);
        // PPC improves when any of power/cost drops.
        assert!(ppc(1.0, 50.0, 1.0) > ppc(1.0, 100.0, 1.0));
        assert!(ppc(1.0, 100.0, 0.5) > ppc(1.0, 100.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "die area")]
    fn zero_area_panics_on_the_internal_path() {
        // `good_dies` keeps formula (1)'s historical assert for the
        // internal call sites; the public surface is `try_dies_per_wafer`.
        let _ = CostModel::default().good_dies(0.0, false);
    }

    #[test]
    fn try_dies_per_wafer_rejects_bad_areas_and_matches_the_internal_path() {
        let m = CostModel::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = m.try_dies_per_wafer(bad).unwrap_err();
            assert_eq!(err.die_area_mm2.to_bits(), bad.to_bits());
            assert!(err.to_string().contains("die area must be positive"));
        }
        // Same arithmetic as the internal panicking path: good dies at
        // perfect yield reduce to gross dies per wafer.
        let perfect = CostModel {
            wafer_yield: 1.0,
            defect_density_per_mm2: 0.0,
            ..CostModel::default()
        };
        let gross = m.try_dies_per_wafer(0.25).expect("positive area");
        assert!((perfect.good_dies(0.25, false) - gross).abs() < 1e-9);
    }

    #[test]
    fn f2f_wafer_is_cheaper_but_pays_per_connection() {
        let m = CostModel::default();
        assert!((m.wafer_cost_3d_f2f() - 1.95).abs() < 1e-12);
        assert!(m.wafer_cost_3d_f2f() < m.wafer_cost_3d());
        // Bond-free F2F die beats monolithic at the defaults (cheaper
        // wafer, same yield degradation)...
        let mono = m.die_cost(0.2, true);
        let f2f = m.die_cost_f2f(0.2, 0);
        assert!(f2f < mono);
        // ...but every bonded connection eats into the margin, and
        // enough of them flip the comparison.
        assert!(m.die_cost_f2f(0.2, 100) > f2f);
        let break_even = (mono - f2f) / m.f2f_cost_per_connection;
        assert!(m.die_cost_f2f(0.2, break_even as usize + 10) > mono);
    }

    #[test]
    #[should_panic(expected = "die area")]
    fn f2f_zero_area_panics_like_monolithic() {
        let _ = CostModel::default().die_cost_f2f(0.0, 0);
    }
}
