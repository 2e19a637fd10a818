use crate::floorplan::Floorplan;
use crate::placement::Placement;
use m3d_geom::Point;
use m3d_netlist::{CellClass, Incidence, Net, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Global-placement parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Outer iterations (each = one centroid relaxation + one spreading).
    pub iterations: usize,
    /// Centroid (Jacobi) sweeps per iteration.
    pub relax_sweeps: usize,
    /// Spatial bins per axis for density spreading.
    pub bins: usize,
    /// Target bin fill (fraction of bin area).
    pub target_fill: f64,
    /// RNG seed for the initial scatter.
    pub seed: u64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            iterations: 18,
            relax_sweeps: 4,
            bins: 24,
            target_fill: 0.8,
            seed: 0xC0FFEE,
        }
    }
}

/// Connectivity-driven global placement.
///
/// Alternates net-centroid relaxation (pulls connected cells together —
/// the quadratic-wirelength limit) with bin-density spreading (pushes
/// cells out of overfilled bins toward their emptiest neighbor), the
/// standard academic global-placement recipe. Ports pre-placed on the
/// perimeter and macros act as fixed anchors, so connected logic clusters
/// around them deterministically.
#[must_use]
pub fn global_place(netlist: &Netlist, fp: &Floorplan, config: &PlacerConfig) -> Placement {
    place_loop(netlist, fp, config, None, config.iterations)
}

/// Warm-start refinement: re-runs a few placement iterations from an
/// existing placement (after tier legalization or repartitioning moved
/// cells) to heal wirelength without discarding the global structure.
#[must_use]
pub fn refine_place(
    netlist: &Netlist,
    fp: &Floorplan,
    seed: &Placement,
    config: &PlacerConfig,
    iterations: usize,
) -> Placement {
    place_loop(netlist, fp, config, Some(&seed.positions), iterations)
}

fn place_loop(
    netlist: &Netlist,
    fp: &Floorplan,
    config: &PlacerConfig,
    warm_start: Option<&[Point]>,
    iterations: usize,
) -> Placement {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = netlist.cell_count();
    let die = fp.die;
    let mut placement = Placement::centered(netlist, die);
    if let Some(seed) = warm_start {
        placement.positions.copy_from_slice(seed);
        placement.clamp_to_die();
    }

    // Fixed cells: macros at their floorplan slots, ports on the rim.
    let mut fixed = vec![false; n];
    let port_ids: Vec<usize> = netlist
        .cells()
        .filter(|(_, c)| c.class.is_port())
        .map(|(id, _)| id.index())
        .collect();
    for (k, &i) in port_ids.iter().enumerate() {
        placement.positions[i] = fp.io_position(k, port_ids.len());
        fixed[i] = true;
    }
    for (id, _, rect) in &fp.macros {
        placement.positions[id.index()] = rect.center();
        fixed[id.index()] = true;
    }

    // Initial scatter for movable cells (cold start only).
    if warm_start.is_none() {
        for (id, cell) in netlist.cells() {
            let i = id.index();
            if fixed[i] {
                continue;
            }
            let _ = cell;
            placement.positions[i] = Point::new(
                die.llx() + rng.gen_range(0.1..0.9) * die.width(),
                die.lly() + rng.gen_range(0.1..0.9) * die.height(),
            );
        }
    }

    // Approximate area of each cell for density (library-independent
    // proxy: pin count; close enough for spreading).
    let areas: Vec<f64> = netlist
        .cells()
        .map(|(_, c)| match &c.class {
            CellClass::Gate { .. } => 1.0 + 0.3 * c.input_count() as f64,
            CellClass::Macro(spec) => spec.area_um2(),
            _ => 0.0,
        })
        .collect();

    // Worker count for the inner kernels. The choice is a function of the
    // *design size* only (never of the machine), so the same code path —
    // and the same chunk decomposition — runs at every thread count,
    // keeping float accumulation orders fixed.
    let eff_threads = if n >= m3d_par::PAR_THRESHOLD { 0 } else { 1 };

    // Relaxation connectivity: the netlist's incidence over the signal
    // nets with two or more pins, plus a weight per net. The cell → net
    // order IS the accumulation order of the centroid gather below, so
    // per-cell float sums are reproduced exactly regardless of how many
    // workers computed the per-net centroids.
    let relaxed = |net: &Net| !net.is_clock && net.degree() >= 2;
    let graph = Incidence::build(netlist, relaxed);
    let net_w: Vec<f64> = netlist
        .nets()
        .map(|(_, net)| {
            if relaxed(net) {
                1.0 / (net.degree() as f64 - 1.0)
            } else {
                0.0
            }
        })
        .collect();
    let net_count = netlist.net_count();

    // Standing buffer of the relaxation sweeps: chunk results are copied
    // into place, so a sweep makes no design-sized allocation.
    let mut centroids = vec![Point::ORIGIN; net_count];

    for iter in 0..iterations {
        // --- net-centroid relaxation --------------------------------
        // Two deterministic parallel phases: (1) each net's centroid from
        // the snapshot, (2) each cell's weighted gather over its incident
        // nets (fixed order) and damped move. No cross-item dependencies
        // in either phase.
        for _ in 0..config.relax_sweeps {
            let snap = &placement.positions;
            let chunks = m3d_par::par_ranges(eff_threads, net_count, |nets| {
                nets.map(|k| {
                    let pins = graph.net_cells(k);
                    if pins.is_empty() {
                        return Point::ORIGIN;
                    }
                    let mut centroid = Point::ORIGIN;
                    let mut count = 0.0;
                    for &c in pins {
                        centroid += snap[c as usize];
                        count += 1.0;
                    }
                    centroid / count
                })
                .collect::<Vec<Point>>()
            });
            m3d_par::store_chunks(&mut centroids, chunks);
            let centroids_ref = &centroids;
            let net_w_ref = &net_w;
            let fixed_ref = &fixed;
            // Each cell's next position, all read from the snapshot before
            // any is stored; fixed and unconnected cells stay.
            let chunks = m3d_par::par_ranges(eff_threads, n, |cells| {
                cells
                    .map(|i| {
                        let cur = snap[i];
                        if fixed_ref[i] {
                            return cur;
                        }
                        let mut sum = Point::ORIGIN;
                        let mut weight = 0.0_f64;
                        for &ni in graph.cell_nets(i) {
                            let ni = ni as usize;
                            sum += centroids_ref[ni] * net_w_ref[ni];
                            weight += net_w_ref[ni];
                        }
                        if weight == 0.0 {
                            return cur;
                        }
                        let target = sum / weight;
                        // Damped move toward the connectivity centroid.
                        cur + (target - cur) * 0.7
                    })
                    .collect::<Vec<Point>>()
            });
            m3d_par::store_chunks(&mut placement.positions, chunks);
            placement.clamp_to_die();
        }

        // --- density spreading: 1-D grid warping ----------------------
        // FastPlace-style cell shifting: remap x (then y) coordinates so
        // each stripe's share of cell area maps to a proportional share
        // of the die extent. Monotone in each axis, so relative order --
        // and therefore most of the wirelength structure -- survives.
        let lambda = 0.55 * (1.0 - 0.5 * iter as f64 / iterations.max(1) as f64);
        for axis in 0..2 {
            let k = config.bins;
            let (lo, span) = if axis == 0 {
                (die.llx(), die.width())
            } else {
                (die.lly(), die.height())
            };
            let coord = |p: Point| if axis == 0 { p.x } else { p.y };
            // Histogram fill: per-chunk partial histograms merged in
            // chunk-index order. The chunk boundaries are a function of
            // `n` alone, so the summation order is fixed at any thread
            // count.
            let positions = &placement.positions;
            let areas_ref = &areas;
            let partials = m3d_par::par_ranges(eff_threads, n, |range| {
                let mut part = vec![0.0_f64; k];
                for i in range {
                    if areas_ref[i] == 0.0 {
                        continue;
                    }
                    let f = ((coord(positions[i]) - lo) / span).clamp(0.0, 0.999_999);
                    part[(f * k as f64) as usize] += areas_ref[i];
                }
                part
            });
            let mut fill = vec![1e-9_f64; k];
            for part in partials {
                for (b, v) in part.into_iter().enumerate() {
                    fill[b] += v;
                }
            }
            let total: f64 = fill.iter().sum();
            let mut cum = vec![0.0_f64; k + 1];
            for i in 0..k {
                cum[i + 1] = cum[i] + fill[i];
            }
            let fill_ref = &fill;
            let cum_ref = &cum;
            let fixed_ref = &fixed;
            let new_coords: Vec<Option<f64>> = m3d_par::par_map_indices(eff_threads, n, |i| {
                if fixed_ref[i] {
                    return None;
                }
                let c = coord(positions[i]);
                let f = ((c - lo) / span).clamp(0.0, 0.999_999);
                let bin = (f * k as f64) as usize;
                let frac = f * k as f64 - bin as f64;
                let new_f = (cum_ref[bin] + frac * fill_ref[bin]) / total;
                let target = lo + new_f * span;
                Some(c + (target - c) * lambda)
            });
            for (i, c) in new_coords.into_iter().enumerate() {
                let Some(moved) = c else { continue };
                if axis == 0 {
                    placement.positions[i].x = moved;
                } else {
                    placement.positions[i].y = moved;
                }
            }
        }
        // Small jitter breaks exact coincidences so Tetris rows pack well.
        if iter + 1 == iterations {
            for (i, &fix) in fixed.iter().enumerate() {
                if !fix {
                    placement.positions[i] +=
                        Point::new(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2));
                }
            }
        }
        placement.clamp_to_die();
    }

    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_geom::BinGrid;
    use m3d_tech::{Library, Tier, TierStack};

    fn setup(scale: f64) -> (Netlist, Floorplan) {
        let n = m3d_netgen::Benchmark::Aes.generate(scale, 2);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        (n, fp)
    }

    #[test]
    fn placement_improves_over_random_scatter() {
        let (n, fp) = setup(0.03);
        let config = PlacerConfig::default();
        let placed = global_place(&n, &fp, &config);

        // Compare against the initial random scatter (one iteration of
        // nothing): re-run with zero iterations.
        let zero = PlacerConfig {
            iterations: 0,
            ..config.clone()
        };
        let scattered = global_place(&n, &fp, &zero);
        assert!(
            placed.hpwl(&n) < 0.7 * scattered.hpwl(&n),
            "placement {} vs scatter {}",
            placed.hpwl(&n),
            scattered.hpwl(&n)
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let (n, fp) = setup(0.02);
        let a = global_place(&n, &fp, &PlacerConfig::default());
        let b = global_place(&n, &fp, &PlacerConfig::default());
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn cells_stay_in_die() {
        let (n, fp) = setup(0.02);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        for (i, pos) in p.positions.iter().enumerate() {
            assert!(fp.die.contains(*pos), "cell {i} at {pos} outside die");
        }
    }

    #[test]
    fn density_is_spread() {
        let (n, fp) = setup(0.03);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        let bins = 12;
        let mut grid = BinGrid::new(fp.die, bins, bins);
        for (id, cell) in n.cells() {
            if cell.class.is_gate() {
                *grid.value_mut(grid.bin_of(p.positions[id.index()])) += 1.0;
            }
        }
        let mean = grid.total() / (bins * bins) as f64;
        // No bin should hold more than ~8x the average after spreading.
        assert!(
            grid.max() < 8.0 * mean + 10.0,
            "max bin {} vs mean {mean}",
            grid.max()
        );
    }

    #[test]
    fn connected_blocks_cluster() {
        // Two blocks with no cross connections should separate spatially
        // more than cells within one block.
        let spec = m3d_netgen::DesignSpec {
            name: "two".into(),
            primary_inputs: 8,
            primary_outputs: 8,
            blocks: vec![
                m3d_netgen::BlockSpec::new("a", 150, 8, 20, 0.98),
                m3d_netgen::BlockSpec::new("b", 150, 8, 20, 0.98),
            ],
            srams: vec![],
        };
        let n = m3d_netgen::generate(&spec, 3);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());

        let centroid = |tag: &str| {
            let pts: Vec<Point> = n
                .cells()
                .filter(|(_, c)| n.block_name(c.block).starts_with(tag) && c.class.is_gate())
                .map(|(id, _)| p.positions[id.index()])
                .collect();
            let sum = pts.iter().fold(Point::ORIGIN, |acc, &q| acc + q);
            (sum / pts.len() as f64, pts)
        };
        let (ca, pa) = centroid("a_");
        let (cb, _) = centroid("b_");
        let spread_a: f64 = pa.iter().map(|q| q.distance(ca)).sum::<f64>() / pa.len() as f64;
        // Between-cluster distance should exceed within-cluster spread.
        assert!(
            ca.distance(cb) > 0.6 * spread_a,
            "centroids {:.1} apart vs spread {:.1}",
            ca.distance(cb),
            spread_a
        );
    }
}
