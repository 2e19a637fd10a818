/// One routing layer of the back-end-of-line stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetalLayer {
    /// Layer name index (1 = M1).
    pub index: u8,
    /// Routing pitch in microns.
    pub pitch_um: f64,
    /// Sheet resistance per unit length, in Ω/µm.
    pub r_per_um: f64,
    /// Capacitance per unit length, in fF/µm.
    pub c_per_um: f64,
    /// Preferred routing direction: `true` = horizontal.
    pub horizontal: bool,
}

/// Lumped wire parasitics of a routed net segment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireRc {
    /// Total wire resistance in kΩ.
    pub r_kohm: f64,
    /// Total wire capacitance in fF.
    pub c_ff: f64,
}

impl WireRc {
    /// Sums two segments in series.
    #[must_use]
    pub fn series(self, other: WireRc) -> WireRc {
        WireRc {
            r_kohm: self.r_kohm + other.r_kohm,
            c_ff: self.c_ff + other.c_ff,
        }
    }

    /// Elmore delay (ns) of this lumped segment driving `load_ff`
    /// downstream: `R·(C/2 + C_load)`.
    #[must_use]
    pub fn elmore_ns(self, load_ff: f64) -> f64 {
        // kΩ·fF = ps → /1000 for ns.
        self.r_kohm * (self.c_ff * 0.5 + load_ff) * 1e-3
    }
}

/// A monolithic inter-tier via (MIV).
///
/// Sequential fabrication makes these nano-scale: negligible area,
/// sub-Ω×fF parasitics — the property that enables gate-level heterogeneous
/// partitioning in the first place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Miv {
    /// Via resistance in kΩ.
    pub r_kohm: f64,
    /// Via capacitance in fF.
    pub c_ff: f64,
    /// Keep-out diameter in microns (consumes a routing track).
    pub diameter_um: f64,
}

impl Default for Miv {
    fn default() -> Self {
        // ~50 nm MIV at 28 nm-class monolithic integration.
        Miv {
            r_kohm: 0.004,
            c_ff: 0.1,
            diameter_um: 0.05,
        }
    }
}

/// A six-layer signal routing stack, shared (per the paper's setup) between
/// 2-D designs and each tier of the 3-D designs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalStack {
    layers: Vec<MetalLayer>,
    /// The inter-tier via available above the top layer (3-D only).
    pub miv: Miv,
}

impl MetalStack {
    /// The default 28 nm six-layer signal stack used throughout the paper's
    /// experiments: two thin local layers, two intermediate, two semi-global.
    #[must_use]
    pub fn six_layer_28nm() -> Self {
        let layers = vec![
            MetalLayer {
                index: 1,
                pitch_um: 0.09,
                r_per_um: 8.0,
                c_per_um: 0.20,
                horizontal: true,
            },
            MetalLayer {
                index: 2,
                pitch_um: 0.09,
                r_per_um: 8.0,
                c_per_um: 0.20,
                horizontal: false,
            },
            MetalLayer {
                index: 3,
                pitch_um: 0.10,
                r_per_um: 5.0,
                c_per_um: 0.21,
                horizontal: true,
            },
            MetalLayer {
                index: 4,
                pitch_um: 0.10,
                r_per_um: 5.0,
                c_per_um: 0.21,
                horizontal: false,
            },
            MetalLayer {
                index: 5,
                pitch_um: 0.20,
                r_per_um: 1.6,
                c_per_um: 0.23,
                horizontal: true,
            },
            MetalLayer {
                index: 6,
                pitch_um: 0.20,
                r_per_um: 1.6,
                c_per_um: 0.23,
                horizontal: false,
            },
        ];
        MetalStack {
            layers,
            miv: Miv::default(),
        }
    }

    /// Number of routing layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer by 1-based metal index.
    #[must_use]
    pub fn layer(&self, index: u8) -> Option<&MetalLayer> {
        self.layers.iter().find(|l| l.index == index)
    }

    /// Iterates over the layers, M1 first.
    pub fn iter(&self) -> impl Iterator<Item = &MetalLayer> {
        self.layers.iter()
    }

    /// Average wire parasitics per micron across intermediate layers —
    /// the pre-route estimate applied to Steiner lengths.
    #[must_use]
    pub fn estimate_rc_per_um(&self) -> WireRc {
        // Signal routing is dominated by M3/M4 in a balanced flow.
        let (m3, m4) = (self.layer(3), self.layer(4));
        let (r, c) = match (m3, m4) {
            (Some(a), Some(b)) => (
                (a.r_per_um + b.r_per_um) * 0.5,
                (a.c_per_um + b.c_per_um) * 0.5,
            ),
            _ => (5.0, 0.21),
        };
        WireRc {
            r_kohm: r * 1e-3,
            c_ff: c,
        }
    }

    /// Parasitics of `length_um` of wire on layer `index` (falls back to
    /// the estimate layer when the index is unknown).
    #[must_use]
    pub fn wire_rc(&self, index: u8, length_um: f64) -> WireRc {
        let per_um = match self.layer(index) {
            Some(l) => WireRc {
                r_kohm: l.r_per_um * 1e-3,
                c_ff: l.c_per_um,
            },
            None => self.estimate_rc_per_um(),
        };
        WireRc {
            r_kohm: per_um.r_kohm * length_um,
            c_ff: per_um.c_ff * length_um,
        }
    }

    /// Routing capacity of one global-routing bin edge of width
    /// `bin_span_um`: total tracks across layers of the given direction.
    #[must_use]
    pub fn edge_capacity(&self, bin_span_um: f64, horizontal: bool) -> u32 {
        self.layers
            .iter()
            .filter(|l| l.horizontal == horizontal && l.index > 1)
            .map(|l| (bin_span_um / l.pitch_um).floor() as u32)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_has_six_layers_alternating_direction() {
        let s = MetalStack::six_layer_28nm();
        assert_eq!(s.layer_count(), 6);
        for w in s.iter().collect::<Vec<_>>().windows(2) {
            assert_ne!(w[0].horizontal, w[1].horizontal);
        }
    }

    #[test]
    fn upper_layers_are_faster() {
        let s = MetalStack::six_layer_28nm();
        let low = s.wire_rc(1, 100.0);
        let high = s.wire_rc(5, 100.0);
        assert!(high.r_kohm < low.r_kohm);
    }

    #[test]
    fn wire_rc_scales_linearly_with_length() {
        let s = MetalStack::six_layer_28nm();
        let a = s.wire_rc(3, 10.0);
        let b = s.wire_rc(3, 20.0);
        assert!((b.r_kohm / a.r_kohm - 2.0).abs() < 1e-9);
        assert!((b.c_ff / a.c_ff - 2.0).abs() < 1e-9);
    }

    #[test]
    fn elmore_delay_is_positive_and_monotone_in_load() {
        let s = MetalStack::six_layer_28nm();
        let rc = s.wire_rc(3, 50.0);
        let d0 = rc.elmore_ns(0.0);
        let d1 = rc.elmore_ns(10.0);
        assert!(d0 > 0.0);
        assert!(d1 > d0);
    }

    #[test]
    fn miv_is_nearly_free() {
        let miv = Miv::default();
        let wire = MetalStack::six_layer_28nm().wire_rc(3, 1.0);
        // One MIV costs less than a micron of intermediate wire (R).
        assert!(miv.r_kohm < wire.r_kohm);
    }

    #[test]
    fn series_composition_adds() {
        let a = WireRc {
            r_kohm: 1.0,
            c_ff: 2.0,
        };
        let b = WireRc {
            r_kohm: 0.5,
            c_ff: 1.0,
        };
        let s = a.series(b);
        assert_eq!(s.r_kohm, 1.5);
        assert_eq!(s.c_ff, 3.0);
    }

    #[test]
    fn edge_capacity_counts_tracks() {
        let s = MetalStack::six_layer_28nm();
        let h = s.edge_capacity(10.0, true);
        let v = s.edge_capacity(10.0, false);
        assert!(h > 0 && v > 0);
        // 10 µm over M3 (0.10) + M5 (0.20) = 100 + 50 = 150 horizontal tracks.
        assert_eq!(h, 150);
    }
}
