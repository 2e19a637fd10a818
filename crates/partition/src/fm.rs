use m3d_geom::Point;
use m3d_netlist::{CellClass, Netlist};
use m3d_tech::Tier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fiduccia–Mattheyses parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Maximum relative area unbalance `|A0 − A1| / total` allowed.
    pub balance_tolerance: f64,
    /// Maximum FM passes (each pass visits every free cell once).
    pub passes: usize,
    /// Seed for the initial random balanced assignment of free cells.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            balance_tolerance: 0.08,
            passes: 6,
            seed: 1,
        }
    }
}

/// Counters from one FM run, surfaced for run telemetry. All values are
/// deterministic: the move sequence defines the algorithm's order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FmStats {
    /// FM passes executed (including the final non-improving one).
    pub passes: u64,
    /// Tentative gain-bucket moves across all passes (before rollback).
    pub moves: u64,
    /// Final cut size.
    pub cut: u64,
}

/// Classic FM min-cut bipartitioning with area balancing.
///
/// `areas` gives each cell's area (use the pseudo-3-D/fast-library area:
/// partitioning happens before the 9-track shrink, exactly as in the
/// paper's flow). `locked` cells keep whatever tier `tiers` holds on
/// entry — the timing-driven pre-assignment locks critical cells to the
/// fast tier this way. Free cells are re-seeded into a balanced random
/// split first.
///
/// Returns the final cut size.
pub fn min_cut(
    netlist: &Netlist,
    areas: &[f64],
    locked: &[bool],
    tiers: &mut [Tier],
    config: &PartitionConfig,
) -> usize {
    seed_balanced(netlist, areas, locked, tiers, config.seed);
    let total: f64 = areas.iter().sum();
    let tol = config.balance_tolerance;
    let balance_ok = |tier_area: &[f64; 2], from: Tier, to: Tier, a: f64| {
        let mut ta = *tier_area;
        ta[from.index()] -= a;
        ta[to.index()] += a;
        (ta[0] - ta[1]).abs() / total.max(1e-12) <= tol
    };
    run_fm(netlist, areas, locked, tiers, config.passes, balance_ok)
}

/// Bin-based FM min-cut (Section III-A1): like [`min_cut`] but the area
/// balance is enforced *per placement bin*, so the partition stays
/// consistent with the pseudo-3-D placement (each bin contributes half its
/// area to each tier and tier legalization barely perturbs the placement).
///
/// Returns the final cut size plus the [`FmStats`] counters of the run.
#[allow(clippy::too_many_arguments)]
pub fn bin_min_cut_with_stats(
    netlist: &Netlist,
    positions: &[Point],
    die: m3d_geom::Rect,
    bins: usize,
    areas: &[f64],
    locked: &[bool],
    tiers: &mut [Tier],
    config: &PartitionConfig,
) -> (usize, FmStats) {
    seed_balanced(netlist, areas, locked, tiers, config.seed);
    let grid = m3d_geom::BinGrid::new(die, bins.max(1), bins.max(1));
    let bin_of: Vec<usize> = positions
        .iter()
        .map(|&p| {
            let (x, y) = grid.bin_of(p);
            y * grid.nx() + x
        })
        .collect();
    let n_bins = grid.nx() * grid.ny();

    // Per-bin totals and per-bin per-tier areas.
    let mut bin_total = vec![0.0_f64; n_bins];
    let mut bin_tier = vec![[0.0_f64; 2]; n_bins];
    for (i, &b) in bin_of.iter().enumerate() {
        bin_total[b] += areas[i];
        bin_tier[b][tiers[i].index()] += areas[i];
    }
    // Per-bin balance is intentionally looser than the global tolerance:
    // bins hold few cells, so exact halves are not achievable.
    let tol = config.balance_tolerance.max(0.05) + 0.25;
    let bin_of_ref = &bin_of;
    let bin_total_ref = &bin_total;
    let bin_tier_cell = std::cell::RefCell::new(bin_tier);
    let can_move = |cell: usize, from: Tier, to: Tier| {
        let b = bin_of_ref[cell];
        let mut bt = bin_tier_cell.borrow()[b];
        bt[from.index()] -= areas[cell];
        bt[to.index()] += areas[cell];
        let total = bin_total_ref[b].max(1e-12);
        (bt[0] - bt[1]).abs() / total <= tol
    };
    let on_move = |cell: usize, from: Tier, to: Tier| {
        let b = bin_of_ref[cell];
        let mut bt = bin_tier_cell.borrow_mut();
        bt[b][from.index()] -= areas[cell];
        bt[b][to.index()] += areas[cell];
    };
    run_fm_with(
        netlist,
        areas,
        locked,
        tiers,
        config.passes,
        can_move,
        on_move,
    )
}

/// Seeds free cells into a random balanced split (locked cells untouched).
fn seed_balanced(netlist: &Netlist, areas: &[f64], locked: &[bool], tiers: &mut [Tier], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tier_area = [0.0_f64; 2];
    for (i, &l) in locked.iter().enumerate() {
        if l {
            tier_area[tiers[i].index()] += areas[i];
        }
    }
    // Ports are conceptually on both tiers (bump/pad); keep them bottom.
    for (id, cell) in netlist.cells() {
        let i = id.index();
        if locked[i] {
            continue;
        }
        if cell.class.is_port() {
            tiers[i] = Tier::Bottom;
            continue;
        }
        // Assign to the lighter side with some randomness.
        let lighter = if tier_area[0] <= tier_area[1] {
            Tier::Bottom
        } else {
            Tier::Top
        };
        let choice = if rng.gen_bool(0.75) {
            lighter
        } else {
            lighter.other()
        };
        tiers[i] = choice;
        tier_area[choice.index()] += areas[i];
    }
}

/// Runs FM passes with a global balance predicate.
fn run_fm(
    netlist: &Netlist,
    areas: &[f64],
    locked: &[bool],
    tiers: &mut [Tier],
    passes: usize,
    balance_ok: impl Fn(&[f64; 2], Tier, Tier, f64) -> bool,
) -> usize {
    let tier_area = std::cell::RefCell::new({
        let mut ta = [0.0_f64; 2];
        for (i, &t) in tiers.iter().enumerate() {
            ta[t.index()] += areas[i];
        }
        ta
    });
    let can_move =
        |cell: usize, from: Tier, to: Tier| balance_ok(&tier_area.borrow(), from, to, areas[cell]);
    let on_move = |cell: usize, from: Tier, to: Tier| {
        let mut ta = tier_area.borrow_mut();
        ta[from.index()] -= areas[cell];
        ta[to.index()] += areas[cell];
    };
    run_fm_with(netlist, areas, locked, tiers, passes, can_move, on_move).0
}

/// Sentinel for "no node" in the flat gain-list links.
const NIL: u32 = u32::MAX;

/// The FM engine: a flat doubly-linked gain list, tentative move
/// sequence, best-prefix rollback; repeated for `passes` passes or until
/// no pass improves.
///
/// Data layout is flat throughout: the hypergraph is CSR (`net_off` /
/// `net_cell` for net→cells, `cell_net_off` / `cell_net` for cell→nets,
/// both preserving the legacy `Vec<Vec<_>>` iteration order exactly), and
/// the classic gain *bucket-of-stacks* is replaced by one doubly-linked
/// free list over per-gain heads (`head` / `prev` / `next` arrays — one
/// node per cell, no per-bucket `Vec`s, no stale duplicates). Pushing a
/// node to the front of its gain's list makes the front the
/// most-recently-updated candidate, which is precisely the entry the old
/// lazy stacks surfaced with `last()` — so the move sequence, and with it
/// every downstream bit, is unchanged.
///
/// All per-pass scratch (side counts, gains, pass locks, list links, the
/// move journal) is allocated once and reset in place, so a pass costs no
/// heap churn.
///
/// The per-pass setup — side counts, initial gains, cut evaluation — is
/// embarrassingly parallel and runs on `m3d_par` workers for large
/// designs; each item's value is independent, so the scattered results
/// are identical to the sequential loops. The move sequence itself stays
/// sequential: it *defines* the deterministic order of the pass.
fn run_fm_with(
    netlist: &Netlist,
    _areas: &[f64],
    locked: &[bool],
    tiers: &mut [Tier],
    passes: usize,
    can_move: impl Fn(usize, Tier, Tier) -> bool,
    on_move: impl Fn(usize, Tier, Tier),
) -> (usize, FmStats) {
    let mut stats = FmStats::default();
    let n = netlist.cell_count();
    let net_count = netlist.net_count();
    let threads = m3d_par::resolve(0);
    let parallel = threads > 1 && n >= m3d_par::PAR_THRESHOLD;
    // Movable = not locked, not a port, not a macro (macros sit on the
    // bottom tier per the flow).
    let movable: Vec<bool> = netlist
        .cells()
        .map(|(id, c)| !locked[id.index()] && matches!(c.class, CellClass::Gate { .. }))
        .collect();

    // ---- CSR hypergraph -------------------------------------------------
    // Net k's member cells (driver first, then sinks — `Net::cells`
    // order) are `net_cell[net_off[k] .. net_off[k + 1]]`; clock nets get
    // empty slices, exactly like the legacy empty pin lists.
    let mut net_off: Vec<u32> = Vec::with_capacity(net_count + 1);
    net_off.push(0);
    let mut pin_total = 0u32;
    for (_, net) in netlist.nets() {
        if !net.is_clock {
            pin_total += net.degree() as u32;
        }
        net_off.push(pin_total);
    }
    let mut net_cell: Vec<u32> = vec![0; pin_total as usize];
    for (id, net) in netlist.nets() {
        if net.is_clock {
            continue;
        }
        for (w, c) in (net_off[id.index()] as usize..).zip(net.cells()) {
            net_cell[w] = c.index() as u32;
        }
    }
    // Cell→incident nets by counting sort over the nets in index order —
    // the same per-cell net sequence the legacy push loop built (net
    // order is part of the deterministic gain-update order).
    let mut cell_net_off: Vec<u32> = vec![0; n + 1];
    for &c in &net_cell {
        cell_net_off[c as usize + 1] += 1;
    }
    for i in 0..n {
        cell_net_off[i + 1] += cell_net_off[i];
    }
    let mut next_slot: Vec<u32> = cell_net_off[..n].to_vec();
    let mut cell_net: Vec<u32> = vec![0; pin_total as usize];
    for k in 0..net_count {
        for &c in &net_cell[net_off[k] as usize..net_off[k + 1] as usize] {
            cell_net[next_slot[c as usize] as usize] = k as u32;
            next_slot[c as usize] += 1;
        }
    }
    drop(next_slot);

    let net_of = |k: usize| &net_cell[net_off[k] as usize..net_off[k + 1] as usize];
    let nets_of = |c: usize| &cell_net[cell_net_off[c] as usize..cell_net_off[c + 1] as usize];

    let cut_of = |tiers: &[Tier]| -> usize {
        let is_cut = |pins: &[u32]| {
            let mut seen = [false, false];
            for &c in pins {
                seen[tiers[c as usize].index()] = true;
            }
            seen[0] && seen[1]
        };
        if parallel {
            m3d_par::par_ranges(threads, net_count, |r| {
                r.filter(|&ni| is_cut(net_of(ni))).count()
            })
            .into_iter()
            .sum()
        } else {
            (0..net_count).filter(|&ni| is_cut(net_of(ni))).count()
        }
    };

    let max_deg = (0..n).map(|c| nets_of(c).len()).max().unwrap_or(1).max(1) as i64;
    let mut best_cut = cut_of(tiers);

    // ---- per-pass scratch, allocated once -------------------------------
    let offset = max_deg;
    let nbuckets = (2 * max_deg + 1) as usize;
    let mut side_count: Vec<[i32; 2]> = vec![[0, 0]; net_count];
    let mut gains: Vec<i64> = vec![0; n];
    let mut head: Vec<u32> = vec![NIL; nbuckets];
    let mut prev: Vec<u32> = vec![NIL; n];
    let mut next: Vec<u32> = vec![NIL; n];
    let mut in_list: Vec<bool> = vec![false; n];
    let mut locked_pass: Vec<bool> = vec![false; n];
    let mut moves: Vec<usize> = Vec::new();

    for _pass in 0..passes {
        stats.passes += 1;
        // Per-net side counts, recomputed into the standing buffer.
        let side_count_of = |pins: &[u32], tiers: &[Tier]| -> [i32; 2] {
            let mut sc = [0, 0];
            for &c in pins {
                sc[tiers[c as usize].index()] += 1;
            }
            sc
        };
        if parallel {
            let tiers_ref = &*tiers;
            let chunks = m3d_par::par_ranges(threads, net_count, |r| {
                r.map(|ni| side_count_of(net_of(ni), tiers_ref))
                    .collect::<Vec<[i32; 2]>>()
            });
            let mut w = 0;
            for chunk in chunks {
                side_count[w..w + chunk.len()].copy_from_slice(&chunk);
                w += chunk.len();
            }
        } else {
            for (ni, sc) in side_count.iter_mut().enumerate() {
                *sc = side_count_of(net_of(ni), tiers);
            }
        }

        // Initial gains.
        let gain_of = |cell: usize, tiers: &[Tier], side_count: &[[i32; 2]]| -> i64 {
            let from = tiers[cell].index();
            let to = 1 - from;
            let mut g = 0i64;
            for &ni in nets_of(cell) {
                let sc = side_count[ni as usize];
                if sc[from] == 1 {
                    g += 1; // moving uncuts this net
                }
                if sc[to] == 0 {
                    g -= 1; // moving cuts this net
                }
            }
            g
        };

        let initial_gain = |c: usize, tiers: &[Tier], side_count: &[[i32; 2]]| -> i64 {
            if movable[c] {
                gain_of(c, tiers, side_count)
            } else {
                i64::MIN
            }
        };
        if parallel {
            let tiers_ref = &*tiers;
            let side_count_ref = &side_count;
            let chunks = m3d_par::par_ranges(threads, n, |r| {
                r.map(|c| initial_gain(c, tiers_ref, side_count_ref))
                    .collect::<Vec<i64>>()
            });
            let mut w = 0;
            for chunk in chunks {
                gains[w..w + chunk.len()].copy_from_slice(&chunk);
                w += chunk.len();
            }
        } else {
            for (c, g) in gains.iter_mut().enumerate() {
                *g = initial_gain(c, tiers, &side_count);
            }
        }

        // Gain list: gains in [-max_deg, +max_deg]. Filling in ascending
        // cell index puts the highest index at each list's front — the
        // entry the legacy stacks exposed with `last()`.
        head.fill(NIL);
        in_list.copy_from_slice(&movable);
        locked_pass.fill(false);
        moves.clear();
        for c in 0..n {
            if movable[c] {
                let b = (gains[c] + offset) as usize;
                let h = head[b];
                next[c] = h;
                prev[c] = NIL;
                if h != NIL {
                    prev[h as usize] = c as u32;
                }
                head[b] = c as u32;
            }
        }
        let unlink = |head: &mut [u32], prev: &mut [u32], next: &mut [u32], b: usize, c: usize| {
            let p = prev[c];
            let nx = next[c];
            if p != NIL {
                next[p as usize] = nx;
            } else {
                head[b] = nx;
            }
            if nx != NIL {
                prev[nx as usize] = p;
            }
        };

        let start_cut = cut_of(tiers);
        let mut cur_cut = start_cut as i64;
        let mut best_prefix_cut = cur_cut;
        let mut best_prefix_len = 0usize;
        let mut top = nbuckets as i64 - 1;

        loop {
            // Find the highest-gain admissible cell. Lists hold no stale
            // entries (nodes move eagerly on every gain change), so the
            // scan only skips balance-rejected candidates.
            let mut chosen = None;
            'outer: while top >= 0 {
                while head[top as usize] != NIL {
                    let c = head[top as usize] as usize;
                    let from = tiers[c];
                    if can_move(c, from, from.other()) {
                        chosen = Some(c);
                        break 'outer;
                    }
                    // Not movable under balance right now: drop from the
                    // list; it may come back after other moves.
                    unlink(&mut head, &mut prev, &mut next, top as usize, c);
                    in_list[c] = false;
                }
                top -= 1;
            }
            let Some(c) = chosen else { break };
            unlink(&mut head, &mut prev, &mut next, top as usize, c);
            in_list[c] = false;
            locked_pass[c] = true;

            let from = tiers[c];
            let to = from.other();
            cur_cut -= gains[c];
            tiers[c] = to;
            on_move(c, from, to);
            moves.push(c);

            // Update side counts and neighbor gains.
            for &ni in nets_of(c) {
                let ni = ni as usize;
                let sc = &mut side_count[ni];
                sc[from.index()] -= 1;
                sc[to.index()] += 1;
                for &nb in net_of(ni) {
                    let nb = nb as usize;
                    if nb == c || !movable[nb] || locked_pass[nb] {
                        continue;
                    }
                    let g = gain_of(nb, tiers, &side_count);
                    if g != gains[nb] {
                        if in_list[nb] {
                            let old = (gains[nb] + offset) as usize;
                            unlink(&mut head, &mut prev, &mut next, old, nb);
                        }
                        gains[nb] = g;
                        let bucket = (g + offset) as usize;
                        let h = head[bucket];
                        next[nb] = h;
                        prev[nb] = NIL;
                        if h != NIL {
                            prev[h as usize] = nb as u32;
                        }
                        head[bucket] = nb as u32;
                        in_list[nb] = true;
                        if (bucket as i64) > top {
                            top = bucket as i64;
                        }
                    }
                }
            }

            if cur_cut < best_prefix_cut {
                best_prefix_cut = cur_cut;
                best_prefix_len = moves.len();
            }
        }

        // Roll back to the best prefix.
        stats.moves += moves.len() as u64;
        for &c in moves.iter().skip(best_prefix_len).rev() {
            let cur = tiers[c];
            tiers[c] = cur.other();
            on_move(c, cur, cur.other());
        }

        let new_cut = cut_of(tiers);
        if new_cut >= best_cut {
            best_cut = best_cut.min(new_cut);
            break;
        }
        best_cut = new_cut;
    }
    stats.cut = best_cut as u64;
    (best_cut, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut_size;

    fn areas_of(n: &Netlist) -> Vec<f64> {
        n.cells()
            .map(|(_, c)| if c.class.is_gate() { 1.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn fm_improves_over_random_split() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.03, 9);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        seed_balanced(&n, &areas, &locked, &mut tiers, 42);
        let random_cut = cut_size(&n, &tiers);

        let mut tiers2 = vec![Tier::Bottom; n.cell_count()];
        let fm_cut = min_cut(
            &n,
            &areas,
            &locked,
            &mut tiers2,
            &PartitionConfig::default(),
        );
        assert!(
            fm_cut < random_cut / 2,
            "FM cut {fm_cut} vs random {random_cut}"
        );
        assert_eq!(fm_cut, cut_size(&n, &tiers2));
    }

    #[test]
    fn fm_respects_balance() {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.02, 9);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let config = PartitionConfig {
            balance_tolerance: 0.08,
            ..Default::default()
        };
        min_cut(&n, &areas, &locked, &mut tiers, &config);
        let u = crate::unbalance(&areas, &tiers);
        assert!(u <= 0.1, "unbalance {u}");
    }

    #[test]
    fn locked_cells_do_not_move() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 9);
        let areas = areas_of(&n);
        let mut locked = vec![false; n.cell_count()];
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        // Lock every 5th gate to the top tier.
        for (id, cell) in n.cells() {
            if cell.class.is_gate() && id.index() % 5 == 0 {
                locked[id.index()] = true;
                tiers[id.index()] = Tier::Top;
            }
        }
        let snapshot = tiers.clone();
        min_cut(&n, &areas, &locked, &mut tiers, &PartitionConfig::default());
        for i in 0..tiers.len() {
            if locked[i] {
                assert_eq!(tiers[i], snapshot[i], "locked cell {i} moved");
            }
        }
    }

    #[test]
    fn fm_is_deterministic() {
        let n = m3d_netgen::Benchmark::Ldpc.generate(0.015, 3);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let mut a = vec![Tier::Bottom; n.cell_count()];
        let mut b = vec![Tier::Bottom; n.cell_count()];
        let c1 = min_cut(&n, &areas, &locked, &mut a, &PartitionConfig::default());
        let c2 = min_cut(&n, &areas, &locked, &mut b, &PartitionConfig::default());
        assert_eq!(c1, c2);
        assert_eq!(a, b);
    }

    #[test]
    fn bin_fm_keeps_bins_balanced() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 9);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let die = m3d_geom::Rect::new(0.0, 0.0, 100.0, 100.0);
        // Synthetic positions: hash cells around the die.
        let positions: Vec<Point> = (0..n.cell_count())
            .map(|i| Point::new((i as f64 * 37.3) % 100.0, (i as f64 * 53.7) % 100.0))
            .collect();
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let (cut, _) = bin_min_cut_with_stats(
            &n,
            &positions,
            die,
            4,
            &areas,
            &locked,
            &mut tiers,
            &PartitionConfig::default(),
        );
        assert!(cut > 0);
        // Check each bin's balance is not absurd.
        let grid = m3d_geom::BinGrid::new(die, 4, 4);
        let mut bin_tier = vec![[0.0_f64; 2]; 16];
        let mut bin_total = [0.0_f64; 16];
        for (id, cell) in n.cells() {
            if !cell.class.is_gate() {
                continue;
            }
            let (x, y) = grid.bin_of(positions[id.index()]);
            let b = y * 4 + x;
            bin_tier[b][tiers[id.index()].index()] += areas[id.index()];
            bin_total[b] += areas[id.index()];
        }
        for b in 0..16 {
            if bin_total[b] < 20.0 {
                continue; // tiny bins can be lopsided
            }
            let u = (bin_tier[b][0] - bin_tier[b][1]).abs() / bin_total[b];
            assert!(u <= 0.55, "bin {b} unbalance {u}");
        }
    }

    #[test]
    fn global_balance_from_bin_balance() {
        // If every bin is balanced, the global split is balanced too.
        let n = m3d_netgen::Benchmark::Netcard.generate(0.015, 9);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let die = m3d_geom::Rect::new(0.0, 0.0, 100.0, 100.0);
        let positions: Vec<Point> = (0..n.cell_count())
            .map(|i| Point::new((i as f64 * 17.9) % 100.0, (i as f64 * 71.3) % 100.0))
            .collect();
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let _ = bin_min_cut_with_stats(
            &n,
            &positions,
            die,
            6,
            &areas,
            &locked,
            &mut tiers,
            &PartitionConfig::default(),
        );
        let u = crate::unbalance(&areas, &tiers);
        assert!(u < 0.3, "global unbalance {u}");
    }
}
