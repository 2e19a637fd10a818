use m3d_geom::Point;
use m3d_netlist::{CellClass, Incidence, Netlist};
use m3d_tech::Tier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fiduccia–Mattheyses parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Relative area unbalance `|A0 − A1| / total` the per-bin bound of
    /// [`bin_min_cut_with_stats`] is derived from.
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

/// Bin-based FM min-cut bipartitioning (Section III-A1): area balance is
/// enforced *per placement bin*, so the partition stays consistent with
/// the pseudo-3-D placement (each bin contributes half its area to each
/// tier and tier legalization barely perturbs the placement).
///
/// `areas` gives each cell's area (use the pseudo-3-D/fast-library area:
/// partitioning happens before the 9-track shrink, exactly as in the
/// paper's flow). `locked` cells keep whatever tier `tiers` holds on
/// entry — the timing-driven pre-assignment locks critical cells to the
/// fast tier this way. Free cells are re-seeded into a balanced random
/// split first; FM then makes only moves that leave the moved cell's bin
/// within relative unbalance `|A0 − A1| / A ≤ max(balance_tolerance,
/// 0.05) + 0.25`, so every bin ends within that bound or as seeded.
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
    run_fm_engine(
        netlist,
        locked,
        tiers,
        config.passes,
        can_move,
        on_move,
        update_gains_by_delta,
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

/// Sentinel for "no node" in the flat gain-list links.
const NIL: u32 = u32::MAX;

/// The FM hypergraph: the netlist's [`Incidence`] over its signal nets
/// (clock nets get empty slices), whose net→cells and cell→nets orders
/// are part of the deterministic gain-update order, plus a pin count per
/// entry.
struct Hypergraph {
    inc: Incidence,
    /// Per net→cells entry: how many pins its cell has on the net, on the
    /// cell's first entry in the net's slice; zero on its later entries.
    pin_mult: Vec<u8>,
}

impl Hypergraph {
    fn build(netlist: &Netlist) -> Hypergraph {
        let inc = Incidence::build(netlist, |net| !net.is_clock);
        let n = netlist.cell_count();
        let mut pin_mult: Vec<u8> = vec![0; inc.entries()];
        // `first_pin[c]` is c's first entry in the net being walked, valid
        // while `seen_in[c]` names that net.
        let mut seen_in: Vec<u32> = vec![u32::MAX; n];
        let mut first_pin: Vec<u32> = vec![0; n];
        for k in 0..inc.net_count() {
            for (w, &c) in inc.net_range(k).zip(inc.net_cells(k)) {
                let c = c as usize;
                if seen_in[c] != k as u32 {
                    seen_in[c] = k as u32;
                    first_pin[c] = w as u32;
                }
                // A movable gate has a handful of pins; saturation can
                // only be reached by a macro, which never moves.
                let first = &mut pin_mult[first_pin[c] as usize];
                *first = first.saturating_add(1);
            }
        }
        Hypergraph { inc, pin_mult }
    }

    /// FM gain of moving `cell` to the other side: nets it would uncut
    /// minus nets it would cut, per pin.
    fn gain_of(&self, cell: usize, tiers: &[Tier], side_count: &[[i32; 2]]) -> i64 {
        let from = tiers[cell].index();
        let to = 1 - from;
        let mut g = 0i64;
        for &ni in self.inc.cell_nets(cell) {
            let sc = side_count[ni as usize];
            if sc[from] == 1 {
                g += 1; // moving uncuts this net
            }
            if sc[to] == 0 {
                g -= 1; // moving cuts this net
            }
        }
        g
    }
}

/// The classic gain *bucket-of-stacks* as one doubly-linked free list
/// over per-gain heads (`head` / `prev` / `next` arrays — one node per
/// cell, no per-bucket `Vec`s, no stale duplicates). Pushing a node to the
/// front of its gain's list makes the front the most-recently-updated
/// candidate, which is precisely the entry the old lazy stacks surfaced
/// with `last()`.
struct GainList {
    /// Gains lie in `[-offset, +offset]`; bucket `b` holds gain `b - offset`.
    offset: i64,
    gains: Vec<i64>,
    head: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    in_list: Vec<bool>,
    /// No bucket above `top` is occupied.
    top: i64,
}

impl GainList {
    fn bucket(&self, c: usize) -> usize {
        (self.gains[c] + self.offset) as usize
    }

    /// Takes `c` out of its gain's list (it must be in it).
    fn unlink(&mut self, c: usize) {
        let b = self.bucket(c);
        let (p, nx) = (self.prev[c], self.next[c]);
        if p != NIL {
            self.next[p as usize] = nx;
        } else {
            self.head[b] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize] = p;
        }
        self.in_list[c] = false;
    }

    /// Puts `c` (not in any list) at the front of `gains[c]`'s list.
    fn push_front(&mut self, c: usize) {
        let b = self.bucket(c);
        let h = self.head[b];
        self.next[c] = h;
        self.prev[c] = NIL;
        if h != NIL {
            self.prev[h as usize] = c as u32;
        }
        self.head[b] = c as u32;
        self.in_list[c] = true;
        self.top = self.top.max(b as i64);
    }

    /// Moves `c` to the front of gain `g`'s list — also when a balance
    /// rejection had dropped it from the lists.
    fn relink(&mut self, c: usize, g: i64) {
        if self.in_list[c] {
            self.unlink(c);
        }
        self.gains[c] = g;
        self.push_front(c);
    }
}

/// The step that follows each FM move: `(graph, tiers, free, side_count,
/// list, c, from)` brings side counts and the free neighbours' gains up
/// to date after cell `c` left side `from`.
type UpdateGains = fn(&Hypergraph, &[Tier], &[bool], &mut [[i32; 2]], &mut GainList, usize, Tier);

/// Brings side counts and neighbour gains up to date after `c` left side
/// `from`, by the critical-net delta rule. Per pin of `c`, with `(f, t)`
/// the net's side counts *before* the pin moves, a free neighbour's gain
/// changes by, per pin of its own on the net,
///
/// * same side as `from`: `[f == 2] + [t == 0]` — it becomes the last cell
///   on its side (moving it would now uncut the net), and the net was
///   uncut so moving it no longer cuts it;
/// * other side: `−[t == 1] − [f == 1]` — it is no longer alone on its
///   side, and `c` has emptied the far side so moving it would cut again.
///
/// (`f ≥ 2` for a same-side and `t ≥ 1` for an other-side neighbour, which
/// is why the full-recompute terms `[f == 1]` and `[t == 0]` drop out.) A
/// net with none of the four conditions skips its pin loop. A neighbour
/// listed on several pins of the net takes its whole change on its first
/// entry (`pin_mult`) and none later — the order a full recompute relinks
/// in — so nets are walked in the same net-then-pin order and the move
/// sequence is bit-identical to recomputing every neighbour's gain.
fn update_gains_by_delta(
    graph: &Hypergraph,
    tiers: &[Tier],
    free: &[bool],
    side_count: &mut [[i32; 2]],
    list: &mut GainList,
    c: usize,
    from: Tier,
) {
    let (from_i, to_i) = (from.index(), from.other().index());
    for &ni in graph.inc.cell_nets(c) {
        let ni = ni as usize;
        let sc = &mut side_count[ni];
        let (f, t) = (sc[from_i], sc[to_i]);
        sc[from_i] -= 1;
        sc[to_i] += 1;
        let same = i64::from(f == 2) + i64::from(t == 0);
        let other = -i64::from(t == 1) - i64::from(f == 1);
        if same == 0 && other == 0 {
            continue;
        }
        let range = graph.inc.net_range(ni);
        for (&nb, &pins) in graph.inc.net_cells(ni).iter().zip(&graph.pin_mult[range]) {
            let nb = nb as usize;
            if pins == 0 || !free[nb] {
                continue;
            }
            let delta = i64::from(pins) * if tiers[nb] == from { same } else { other };
            if delta != 0 {
                list.relink(nb, list.gains[nb] + delta);
            }
        }
    }
}

/// The reference [`update_gains_by_delta`] is tested against: every free
/// neighbour's gain recomputed in full over all of its nets.
#[cfg(test)]
fn update_gains_by_recompute(
    graph: &Hypergraph,
    tiers: &[Tier],
    free: &[bool],
    side_count: &mut [[i32; 2]],
    list: &mut GainList,
    c: usize,
    from: Tier,
) {
    for &ni in graph.inc.cell_nets(c) {
        let ni = ni as usize;
        side_count[ni][from.index()] -= 1;
        side_count[ni][from.other().index()] += 1;
        for &nb in graph.inc.net_cells(ni) {
            let nb = nb as usize;
            if !free[nb] {
                continue;
            }
            let g = graph.gain_of(nb, tiers, side_count);
            if g != list.gains[nb] {
                list.relink(nb, g);
            }
        }
    }
}

/// The FM engine: a flat doubly-linked gain list, tentative move
/// sequence, best-prefix rollback; repeated for `passes` passes or until
/// no pass improves. `update_gains` is [`update_gains_by_delta`]; it is a
/// parameter so the tests can run the full-recompute reference through
/// the same engine.
///
/// Data layout is flat throughout ([`Hypergraph`], [`GainList`]), and all
/// per-pass scratch (side counts, gains, pass locks, list links, the move
/// journal) is allocated once and reset in place, so a pass costs no heap
/// churn.
///
/// The move sequence is sequential: it *defines* the deterministic order
/// of the pass.
///
/// Cuts are always a true recount (`cut_of`), never the running
/// `cur_cut`: gains count a double-pinned cell's net once per pin, so the
/// gain model can misjudge such nets, and the recount is what keeps the
/// reported cut exact.
fn run_fm_engine(
    netlist: &Netlist,
    locked: &[bool],
    tiers: &mut [Tier],
    passes: usize,
    can_move: impl Fn(usize, Tier, Tier) -> bool,
    on_move: impl Fn(usize, Tier, Tier),
    update_gains: UpdateGains,
) -> (usize, FmStats) {
    let mut stats = FmStats::default();
    let n = netlist.cell_count();
    let net_count = netlist.net_count();
    // Movable = not locked, not a port, not a macro (macros sit on the
    // bottom tier per the flow).
    let movable: Vec<bool> = netlist
        .cells()
        .map(|(id, c)| !locked[id.index()] && matches!(c.class, CellClass::Gate { .. }))
        .collect();

    let graph = Hypergraph::build(netlist);
    let graph = &graph;

    let cut_of = |tiers: &[Tier]| -> usize {
        let is_cut = |pins: &[u32]| {
            let mut seen = [false, false];
            for &c in pins {
                seen[tiers[c as usize].index()] = true;
            }
            seen[0] && seen[1]
        };
        (0..net_count)
            .filter(|&ni| is_cut(graph.inc.net_cells(ni)))
            .count()
    };

    let max_deg = (0..n)
        .map(|c| graph.inc.cell_nets(c).len())
        .max()
        .unwrap_or(1)
        .max(1) as i64;
    let mut best_cut = cut_of(tiers);

    // ---- per-pass scratch, allocated once -------------------------------
    let nbuckets = (2 * max_deg + 1) as usize;
    let mut side_count: Vec<[i32; 2]> = vec![[0, 0]; net_count];
    let mut list = GainList {
        offset: max_deg,
        gains: vec![0; n],
        head: vec![NIL; nbuckets],
        prev: vec![NIL; n],
        next: vec![NIL; n],
        in_list: vec![false; n],
        top: 0,
    };
    // Movable and not yet moved in this pass.
    let mut free: Vec<bool> = vec![false; n];
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
        for (ni, sc) in side_count.iter_mut().enumerate() {
            *sc = side_count_of(graph.inc.net_cells(ni), tiers);
        }

        // Initial gains.
        let initial_gain = |c: usize, tiers: &[Tier], side_count: &[[i32; 2]]| -> i64 {
            if movable[c] {
                graph.gain_of(c, tiers, side_count)
            } else {
                i64::MIN
            }
        };
        for (c, g) in list.gains.iter_mut().enumerate() {
            *g = initial_gain(c, tiers, &side_count);
        }

        // Gain list: gains in [-max_deg, +max_deg]. Filling in ascending
        // cell index puts the highest index at each list's front — the
        // entry the legacy stacks exposed with `last()`.
        list.head.fill(NIL);
        list.in_list.fill(false);
        list.top = 0;
        free.copy_from_slice(&movable);
        moves.clear();
        for (c, _) in movable.iter().enumerate().filter(|(_, &m)| m) {
            list.push_front(c);
        }

        let start_cut = cut_of(tiers);
        let mut cur_cut = start_cut as i64;
        let mut best_prefix_cut = cur_cut;
        let mut best_prefix_len = 0usize;

        loop {
            // Find the highest-gain admissible cell. Lists hold no stale
            // entries (nodes move eagerly on every gain change), so the
            // scan only skips balance-rejected candidates.
            let mut chosen = None;
            'outer: while list.top >= 0 {
                while list.head[list.top as usize] != NIL {
                    let c = list.head[list.top as usize] as usize;
                    let from = tiers[c];
                    // Either way `c` leaves the list: as the move, or —
                    // not movable under balance right now — until another
                    // move changes its gain.
                    list.unlink(c);
                    if can_move(c, from, from.other()) {
                        chosen = Some(c);
                        break 'outer;
                    }
                }
                list.top -= 1;
            }
            let Some(c) = chosen else { break };
            free[c] = false;

            let from = tiers[c];
            let to = from.other();
            cur_cut -= list.gains[c];
            tiers[c] = to;
            on_move(c, from, to);
            moves.push(c);
            update_gains(graph, tiers, &free, &mut side_count, &mut list, c, from);

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

    /// Synthetic positions: cells hashed around a 100 × 100 die.
    fn spread(n: &Netlist, (fx, fy): (f64, f64)) -> (Vec<Point>, m3d_geom::Rect) {
        let positions = (0..n.cell_count())
            .map(|i| Point::new((i as f64 * fx) % 100.0, (i as f64 * fy) % 100.0))
            .collect();
        (positions, m3d_geom::Rect::new(0.0, 0.0, 100.0, 100.0))
    }

    /// One bin FM run on a 4 × 4 grid over [`spread`] positions.
    fn bin_fm(
        n: &Netlist,
        locked: &[bool],
        tiers: &mut [Tier],
        config: &PartitionConfig,
    ) -> (usize, FmStats) {
        let (positions, die) = spread(n, (37.3, 53.7));
        bin_min_cut_with_stats(n, &positions, die, 4, &areas_of(n), locked, tiers, config)
    }

    /// Each bin's relative unbalance under `tiers` on [`bin_fm`]'s grid.
    fn bin_unbalance(n: &Netlist, tiers: &[Tier]) -> Vec<f64> {
        let (positions, die) = spread(n, (37.3, 53.7));
        let grid = m3d_geom::BinGrid::new(die, 4, 4);
        let areas = areas_of(n);
        let mut bin_tier = vec![[0.0_f64; 2]; 16];
        for (i, &p) in positions.iter().enumerate() {
            let (x, y) = grid.bin_of(p);
            bin_tier[y * 4 + x][tiers[i].index()] += areas[i];
        }
        bin_tier
            .iter()
            .map(|[a, b]| (a - b).abs() / (a + b).max(1e-12))
            .collect()
    }

    #[test]
    fn fm_improves_over_random_split() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.03, 9);
        let locked = vec![false; n.cell_count()];
        let mut seeded = vec![Tier::Bottom; n.cell_count()];
        let config = PartitionConfig::default();
        let zero = PartitionConfig {
            passes: 0,
            ..config.clone()
        };
        let (random_cut, _) = bin_fm(&n, &locked, &mut seeded, &zero);
        assert_eq!(random_cut, cut_size(&n, &seeded));

        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let (fm_cut, stats) = bin_fm(&n, &locked, &mut tiers, &config);
        assert!(
            fm_cut < random_cut / 2,
            "FM cut {fm_cut} vs random {random_cut}"
        );
        assert_eq!(fm_cut, cut_size(&n, &tiers));
        assert_eq!(stats.cut, fm_cut as u64);
    }

    #[test]
    fn every_bin_ends_within_its_bound_or_as_seeded() {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.02, 9);
        let locked = vec![false; n.cell_count()];
        let config = PartitionConfig::default();
        let bound = config.balance_tolerance.max(0.05) + 0.25;
        let mut seeded = vec![Tier::Bottom; n.cell_count()];
        let zero = PartitionConfig {
            passes: 0,
            ..config.clone()
        };
        let _ = bin_fm(&n, &locked, &mut seeded, &zero);
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let (_, stats) = bin_fm(&n, &locked, &mut tiers, &config);
        assert!(stats.moves > 0, "FM moved cells");
        let before = bin_unbalance(&n, &seeded);
        let after = bin_unbalance(&n, &tiers);
        for (b, (&u, &seed_u)) in after.iter().zip(&before).enumerate() {
            assert!(
                u <= bound || u == seed_u,
                "bin {b} unbalance {u} (seeded {seed_u}, bound {bound})"
            );
        }
    }

    #[test]
    fn locked_cells_do_not_move() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 9);
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
        let _ = bin_fm(&n, &locked, &mut tiers, &PartitionConfig::default());
        for i in 0..tiers.len() {
            if locked[i] {
                assert_eq!(tiers[i], snapshot[i], "locked cell {i} moved");
            }
        }
    }

    #[test]
    fn fm_is_deterministic() {
        let n = m3d_netgen::Benchmark::Ldpc.generate(0.015, 3);
        let locked = vec![false; n.cell_count()];
        let mut a = vec![Tier::Bottom; n.cell_count()];
        let mut b = vec![Tier::Bottom; n.cell_count()];
        let r1 = bin_fm(&n, &locked, &mut a, &PartitionConfig::default());
        let r2 = bin_fm(&n, &locked, &mut b, &PartitionConfig::default());
        assert_eq!(r1, r2);
        assert_eq!(a, b);
    }

    #[test]
    fn global_balance_from_bin_balance() {
        // If every bin is balanced, the global split is balanced too.
        let n = m3d_netgen::Benchmark::Netcard.generate(0.015, 9);
        let areas = areas_of(&n);
        let locked = vec![false; n.cell_count()];
        let (positions, die) = spread(&n, (17.9, 71.3));
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

    /// A random hypergraph over `gates` three-input gates (plus a macro
    /// and two ports, which never move): every gate drives one net, and
    /// each input pin picks a net at random — with probability
    /// `repeat_pct` % the net on the gate's previous pin, so double- and
    /// triple-pinned nets are common, and own-output feedback occurs.
    fn random_hypergraph(seed: u64, gates: usize, repeat_pct: u32) -> Netlist {
        use m3d_tech::{CellKind, Drive};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new("fm_random");
        let mut nets = Vec::new();
        let pi = n.add_input("pi");
        nets.push(n.add_net("n_pi", pi, 0));
        let spec = m3d_netlist::MacroSpec::sram(128);
        let mac = n.add_macro("mac", spec, 4, 1, 0);
        nets.push(n.add_net("n_mac", mac, 0));
        let cells: Vec<_> = (0..gates)
            .map(|i| n.add_gate(format!("g{i}"), CellKind::Nand3, Drive::X1, 0))
            .collect();
        for (i, &g) in cells.iter().enumerate() {
            nets.push(n.add_net(format!("n{i}"), g, 0));
        }
        for &g in &cells {
            let mut last = nets[rng.gen_range(0..nets.len())];
            for pin in 0..3 {
                if !rng.gen_bool(f64::from(repeat_pct) / 100.0) {
                    last = nets[rng.gen_range(0..nets.len())];
                }
                n.connect(last, g, pin);
            }
        }
        for pin in 0..4 {
            n.connect(nets[rng.gen_range(0..nets.len())], mac, pin);
        }
        let po = n.add_output("po");
        n.connect(nets[rng.gen_range(0..nets.len())], po, 0);
        n
    }

    /// One bin-balanced FM run through `update_gains`, returning
    /// everything observable: the move journal (every tentative move and
    /// every rollback, as `on_move` saw them), the final tiers, the stats
    /// and the cut.
    fn journaled_run(
        netlist: &Netlist,
        locked: &[bool],
        start: &[Tier],
        bins: usize,
        tol: f64,
        update_gains: UpdateGains,
    ) -> (Vec<(usize, Tier)>, Vec<Tier>, FmStats, usize) {
        let mut tiers = start.to_vec();
        let mut bin_tier = vec![[0.0_f64; 2]; bins];
        for (c, t) in tiers.iter().enumerate() {
            bin_tier[c % bins][t.index()] += 1.0;
        }
        let bin_tier = std::cell::RefCell::new(bin_tier);
        let journal = std::cell::RefCell::new(Vec::new());
        // Per-bin balance on unit areas, tight enough to reject moves.
        let can_move = |c: usize, from: Tier, to: Tier| {
            let mut bt = bin_tier.borrow()[c % bins];
            bt[from.index()] -= 1.0;
            bt[to.index()] += 1.0;
            (bt[0] - bt[1]).abs() / (bt[0] + bt[1]).max(1.0) <= tol
        };
        let on_move = |c: usize, from: Tier, to: Tier| {
            let mut bt = bin_tier.borrow_mut();
            bt[c % bins][from.index()] -= 1.0;
            bt[c % bins][to.index()] += 1.0;
            journal.borrow_mut().push((c, to));
        };
        let (cut, stats) = run_fm_engine(
            netlist,
            locked,
            &mut tiers,
            4,
            can_move,
            on_move,
            update_gains,
        );
        (journal.into_inner(), tiers, stats, cut)
    }

    // The delta rule against the full recompute it replaced: same move
    // journal, tiers, stats and cut — on hypergraphs where up to half the
    // pins repeat their gate's previous net, with locked cells and per-bin
    // balance rejections, on small and 2 100-gate-plus graphs.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn delta_gain_update_matches_full_recompute(
            seed in 0u64..1_000_000,
            (gates, big) in (8usize..200, 0u8..4),
            repeat_pct in 0u32..50,
            bins in 1usize..9,
            tol in 0.05..0.6f64,
        ) {
            // One case in four is a large graph.
            let gates = if big == 0 { gates + 2100 } else { gates };
            let netlist = random_hypergraph(seed, gates, repeat_pct);
            let n = netlist.cell_count();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let locked: Vec<bool> = (0..n).map(|_| rng.gen_bool(1.0 / 6.0)).collect();
            let start: Vec<Tier> = (0..n)
                .map(|_| if rng.gen_bool(0.5) { Tier::Top } else { Tier::Bottom })
                .collect();
            let double_pinned = netlist
                .nets()
                .filter(|(_, net)| {
                    let mut cells: Vec<_> = net.cells().collect();
                    cells.sort_unstable();
                    cells.windows(2).any(|w| w[0] == w[1])
                })
                .count();
            proptest::prop_assert!(
                double_pinned > 0 || repeat_pct < 25 || gates < 100,
                "the generator must produce double-pinned nets"
            );

            let reference =
                journaled_run(&netlist, &locked, &start, bins, tol, update_gains_by_recompute);
            let delta = journaled_run(&netlist, &locked, &start, bins, tol, update_gains_by_delta);
            proptest::prop_assert_eq!(&delta, &reference);
            // The reported cut is a true recount whatever the gain model
            // believed about double-pinned nets.
            proptest::prop_assert_eq!(reference.3, cut_size(&netlist, &reference.1));
            for c in 0..n {
                if locked[c] {
                    proptest::prop_assert_eq!(reference.1[c], start[c]);
                }
            }
        }
    }
}
