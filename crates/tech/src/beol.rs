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
        assert_eq!(s.iter().count(), 6);
        for w in s.iter().collect::<Vec<_>>().windows(2) {
            assert_ne!(w[0].horizontal, w[1].horizontal);
        }
    }

    #[test]
    fn upper_layers_are_faster() {
        let s = MetalStack::six_layer_28nm();
        let r = |index| s.layer(index).expect("layer").r_per_um;
        assert!(r(5) < r(1));
    }

    #[test]
    fn miv_is_nearly_free() {
        let miv = Miv::default();
        let m3 = MetalStack::six_layer_28nm().layer(3).expect("M3").r_per_um;
        // One MIV costs less than a micron of intermediate wire (R).
        assert!(miv.r_kohm < m3 * 1e-3);
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
