use crate::router::RoutingResult;
use m3d_netlist::Netlist;
use m3d_place::Placement;
use m3d_sta::{NetModel, Parasitics};
use m3d_tech::TierStack;

/// Aggregate counters from one extraction pass, surfaced for run
/// telemetry. Deterministic at any thread count: per-chunk partials are
/// folded in chunk-index order (the chunking depends only on the net
/// count), so the float sums see a fixed addition sequence.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ExtractStats {
    /// Nets that received an RC model (multi-pin signal nets).
    pub rc_segments: u64,
    /// Modeled wire length, µm.
    pub total_length_um: f64,
    /// Modeled wire capacitance, fF.
    pub total_wire_cap_ff: f64,
}

/// Why an extraction input cannot be processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractError {
    /// The routing result covers fewer nets than the netlist, so a net id
    /// would index out of bounds (stale routing after buffer insertion is
    /// the classic way to get here).
    RoutingCountMismatch { routed: usize, nets: usize },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::RoutingCountMismatch { routed, nets } => {
                write!(f, "routing covers {routed} nets, netlist has {nets}")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extracts per-net RC from routing results (or, when `routing` is `None`,
/// from placement Steiner estimates — the pre-route mode used during the
/// pseudo-3-D stage).
///
/// Model per net:
/// * length = routed length, or Steiner estimate of the pin positions,
/// * C = length × c̄ (average intermediate-layer capacitance per µm),
/// * wire delay = 0.5·R·C (distributed Elmore) + MIV hops.
///
/// Returns the parasitics plus the [`ExtractStats`] counters of the pass.
/// A routing result that does not cover the netlist comes back as an
/// [`ExtractError`] instead of an index panic inside the chunked sweep.
pub fn try_extract_parasitics_with_stats(
    netlist: &Netlist,
    placement: &Placement,
    stack: &TierStack,
    routing: Option<&RoutingResult>,
) -> Result<(Parasitics, ExtractStats), ExtractError> {
    if let Some(r) = routing {
        if r.nets.len() < netlist.net_count() {
            return Err(ExtractError::RoutingCountMismatch {
                routed: r.nets.len(),
                nets: netlist.net_count(),
            });
        }
    }
    let per_um = stack.metal.estimate_rc_per_um();
    let miv = stack.metal.miv;
    let n = netlist.net_count();
    let mut models = Vec::with_capacity(n);
    let mut stats = ExtractStats::default();
    // One pin scratch buffer — the Steiner estimate reuses it across every
    // net instead of collecting a fresh `Vec<Point>` per net.
    let mut pins = Vec::new();
    // The float totals fold per chunk of `m3d_par`'s fixed decomposition,
    // then chunk by chunk: the summation order the reported gauges carry.
    for range in m3d_par::chunks(n) {
        let mut chunk = ExtractStats::default();
        for k in range {
            let id = m3d_netlist::NetId::from_index(k);
            let net = netlist.net(id);
            if net.is_clock || net.degree() < 2 {
                models.push(NetModel::default());
                continue;
            }
            let (length, mivs) = match routing {
                Some(r) => {
                    let rn = r.nets[id.index()];
                    (rn.length_um, rn.mivs)
                }
                None => (placement.net_steiner_with(netlist, id, &mut pins), 0),
            };
            let r_kohm = per_um.r_kohm * length + miv.r_kohm * mivs as f64;
            let c_ff = per_um.c_ff * length + miv.c_ff * mivs as f64;
            chunk.rc_segments += 1;
            chunk.total_length_um += length;
            chunk.total_wire_cap_ff += c_ff;
            models.push(NetModel {
                wire_cap_ff: c_ff,
                // Distributed line: Elmore ≈ R·C/2; kΩ·fF = ps.
                wire_delay_ns: 0.5 * r_kohm * c_ff * 1e-3,
            });
        }
        stats.rc_segments += chunk.rc_segments;
        stats.total_length_um += chunk.total_length_um;
        stats.total_wire_cap_ff += chunk.total_wire_cap_ff;
    }
    Ok((Parasitics::from_models(netlist, models), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{global_route, RouteConfig};
    use m3d_place::{global_place, Floorplan, PlacerConfig};
    use m3d_tech::{Library, Tier};

    fn setup() -> (Netlist, Vec<Tier>, Placement, TierStack) {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 21);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        (n, tiers, p, stack)
    }

    fn extract(
        n: &Netlist,
        p: &Placement,
        stack: &TierStack,
        routing: Option<&RoutingResult>,
    ) -> Parasitics {
        let (par, _) = try_extract_parasitics_with_stats(n, p, stack, routing).unwrap();
        par
    }

    #[test]
    fn preroute_extraction_is_positive() {
        let (n, _t, p, stack) = setup();
        let par = extract(&n, &p, &stack, None);
        assert!(par.total_wire_cap_ff() > 0.0);
        // Every multi-pin signal net gets nonzero cap.
        for (id, net) in n.nets() {
            if !net.is_clock && net.degree() >= 2 {
                assert!(par.net(id).wire_cap_ff >= 0.0);
                assert!(par.net(id).wire_delay_ns >= 0.0);
            }
        }
    }

    #[test]
    fn postroute_cap_tracks_routed_length() {
        let (n, tiers, p, stack) = setup();
        let routed = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        let pre = extract(&n, &p, &stack, None);
        let post = extract(&n, &p, &stack, Some(&routed));
        // Routed lengths >= Steiner estimates overall.
        assert!(post.total_wire_cap_ff() >= 0.8 * pre.total_wire_cap_ff());
    }

    #[test]
    fn longer_placement_means_more_delay() {
        let (n, _t, p, stack) = setup();
        // Scale positions 3x apart (spread the die).
        let mut far = p.clone();
        for q in &mut far.positions {
            *q = *q * 3.0;
        }
        let near = extract(&n, &p, &stack, None);
        let spread = extract(&n, &far, &stack, None);
        assert!(spread.total_wire_cap_ff() > 2.0 * near.total_wire_cap_ff());
    }

    #[test]
    fn try_extract_rejects_stale_routing() {
        let (n, tiers, p, stack) = setup();
        let mut routed = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        routed.nets.truncate(n.net_count() - 1);
        let err = try_extract_parasitics_with_stats(&n, &p, &stack, Some(&routed)).unwrap_err();
        assert_eq!(
            err,
            ExtractError::RoutingCountMismatch {
                routed: n.net_count() - 1,
                nets: n.net_count()
            }
        );
    }

    #[test]
    fn try_extract_accepts_fresh_routing_and_preroute() {
        let (n, tiers, p, stack) = setup();
        let routed = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        let (par, stats) =
            try_extract_parasitics_with_stats(&n, &p, &stack, Some(&routed)).unwrap();
        // Same caps, summed per chunk vs per net: equal up to rounding.
        let total = par.total_wire_cap_ff();
        assert!((stats.total_wire_cap_ff - total).abs() <= 1e-9 * total);
        let modeled = n
            .nets()
            .filter(|(_, net)| !net.is_clock && net.degree() >= 2);
        assert_eq!(stats.rc_segments, modeled.count() as u64);
        assert!(try_extract_parasitics_with_stats(&n, &p, &stack, None).is_ok());
    }

    #[test]
    fn clock_nets_are_skipped() {
        let (n, _t, p, stack) = setup();
        let par = extract(&n, &p, &stack, None);
        let clk = n.clock().expect("generated designs have a clock");
        assert_eq!(par.net(clk).wire_cap_ff, 0.0);
    }
}
