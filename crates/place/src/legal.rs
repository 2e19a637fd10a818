use crate::floorplan::Floorplan;
use crate::placement::Placement;
use m3d_geom::{Point, Rect};
use m3d_netlist::{CellClass, Netlist};
use m3d_tech::{Tier, TierStack};
use std::cell::Cell;

/// Displacement and search counters from one legalization run, surfaced
/// for run telemetry. Deterministic: each tier's sweep is sequential, the
/// displacement sums fold in cell-index order and the search counts are
/// integer sums over the tiers.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LegalStats {
    /// Movable gates the sweep placed.
    pub moved_cells: u64,
    /// Sum of |legal − global| displacements, in µm.
    pub total_displacement_um: f64,
    /// Largest single-cell displacement, in µm.
    pub max_displacement_um: f64,
    /// Rows the slot search looked into, both tiers.
    pub row_probes: u64,
    /// Cells whose ±24-row window was full, so the search covered the
    /// whole die.
    pub fallbacks: u64,
}

/// Why a legalization input cannot be processed. Each variant corresponds
/// to a malformed-input class that would previously surface as an index
/// panic or a silently wrong snap deep inside the row sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum LegalizeError {
    /// `tiers.len()` does not cover every netlist cell.
    TierCountMismatch { tiers: usize, cells: usize },
    /// `placement.positions.len()` does not cover every netlist cell.
    PositionCountMismatch { positions: usize, cells: usize },
    /// A movable gate sits at a NaN/infinite coordinate, which would poison
    /// the displacement sums and the row comparators.
    NonFinitePosition { cell: usize },
    /// The floorplan die has no positive area, so no row can be built.
    DegenerateDie { width_um: f64, height_um: f64 },
}

impl std::fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LegalizeError::TierCountMismatch { tiers, cells } => {
                write!(
                    f,
                    "tier assignment covers {tiers} cells, netlist has {cells}"
                )
            }
            LegalizeError::PositionCountMismatch { positions, cells } => {
                write!(f, "placement covers {positions} cells, netlist has {cells}")
            }
            LegalizeError::NonFinitePosition { cell } => {
                write!(f, "cell #{cell} has a non-finite position")
            }
            LegalizeError::DegenerateDie {
                width_um,
                height_um,
            } => {
                write!(f, "die outline {width_um}x{height_um} um has no area")
            }
        }
    }
}

impl std::error::Error for LegalizeError {}

/// Tetris row legalization.
///
/// Cells of each tier are snapped onto that tier's rows (row height = the
/// tier library's cell height — 0.81 µm for 9-track, 1.08 µm for 12-track)
/// without overlaps, skipping macro keep-outs. Cells are processed in
/// left-to-right order and packed at per-row frontiers, choosing the row
/// that minimizes displacement — the classic Tetris heuristic.
///
/// Ports and macros are left untouched. Returns the legal placement plus
/// the [`LegalStats`] counters of the run; malformed inputs come back as a
/// [`LegalizeError`] instead of an index panic mid-sweep.
pub fn try_legalize_with_stats(
    netlist: &Netlist,
    placement: &Placement,
    fp: &Floorplan,
    stack: &TierStack,
    tiers: &[Tier],
) -> Result<(Placement, LegalStats), LegalizeError> {
    let cells = netlist.cell_count();
    if tiers.len() != cells {
        return Err(LegalizeError::TierCountMismatch {
            tiers: tiers.len(),
            cells,
        });
    }
    if placement.positions.len() != cells {
        return Err(LegalizeError::PositionCountMismatch {
            positions: placement.positions.len(),
            cells,
        });
    }
    for (id, c) in netlist.cells() {
        if c.fixed || !c.class.is_gate() {
            continue;
        }
        let p = placement.positions[id.index()];
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(LegalizeError::NonFinitePosition { cell: id.index() });
        }
    }
    if fp.die.width() <= 0.0 || fp.die.height() <= 0.0 {
        return Err(LegalizeError::DegenerateDie {
            width_um: fp.die.width(),
            height_um: fp.die.height(),
        });
    }
    let (out, mut stats) = legalize_tiers(netlist, placement, fp, stack, tiers, find_slot);
    for (id, c) in netlist.cells() {
        if c.fixed || !c.class.is_gate() {
            continue;
        }
        let i = id.index();
        let d = placement.positions[i].distance(out.positions[i]);
        stats.moved_cells += 1;
        stats.total_displacement_um += d;
        stats.max_displacement_um = stats.max_displacement_um.max(d);
    }
    Ok((out, stats))
}

/// Row search used by the sweep: `(rows, desired, width, ideal_row, lo,
/// hi, probes)` → `(row, slot, left edge)` of the cheapest slot in rows
/// `lo..=hi`, adding the rows it looked into to `probes`. A parameter
/// only so the tests can run the whole sweep on the exhaustive reference
/// search.
type SlotSearch =
    fn(&[Row], Point, f64, usize, usize, usize, &mut u64) -> Option<(usize, usize, f64)>;

/// Legalizes each die on its own rows, the two dies as two concurrent
/// jobs. A sweep reads only its own tier's cells and rows and returns
/// only its own cells' positions, so the merged result is the sequential
/// sweeps' at any thread count. Returns the placement and the search
/// counters; the displacement fields are left to the caller.
fn legalize_tiers(
    netlist: &Netlist,
    placement: &Placement,
    fp: &Floorplan,
    stack: &TierStack,
    tiers: &[Tier],
    search: SlotSearch,
) -> (Placement, LegalStats) {
    let dies = if stack.is_3d() {
        &Tier::BOTH[..]
    } else {
        &Tier::BOTH[..1]
    };
    let jobs: Vec<_> = dies
        .iter()
        .map(|&tier| move || legalize_tier(netlist, placement, fp, stack, tiers, tier, search))
        .collect();
    let mut out = placement.clone();
    let mut stats = LegalStats::default();
    for (positions, tier_stats) in m3d_par::par_invoke(0, jobs) {
        for (i, p) in positions {
            out.positions[i] = p;
        }
        stats.row_probes += tier_stats.row_probes;
        stats.fallbacks += tier_stats.fallbacks;
    }
    (out, stats)
}

struct Row {
    y_center: f64,
    /// Sorted, disjoint free x-intervals (die minus keepouts minus already
    /// placed cells). Interval bookkeeping — rather than a single packing
    /// frontier — means a slot skipped for one cell stays available for a
    /// later one, so rows only reject a cell when they are genuinely full.
    free: Vec<(f64, f64)>,
    /// `widest_upto[i]`: width of the widest interval among `free[..=i]`.
    /// Free space only ever shrinks, so a cell wider than this has no
    /// slot at or left of `i` — the sweep runs left to right, which makes
    /// that side of a row the packed one.
    widest_upto: Vec<f64>,
    /// `widest_upto`'s last entry (−∞ with no free interval left), kept
    /// inline so a row with no wide-enough gap is rejected without
    /// touching the heap.
    widest: f64,
    /// `free.partition_point(|&(s, _)| s <= x)` for the largest `x` asked
    /// so far, or less. The sweep asks in ascending `x`, so the answer
    /// only moves right; an edit at interval `i` clamps the cursor to
    /// `i`, since everything before `i` is untouched.
    cursor: Cell<usize>,
}

impl Row {
    fn new(y_center: f64, free: Vec<(f64, f64)>) -> Row {
        let mut row = Row {
            y_center,
            free,
            widest_upto: Vec::new(),
            widest: f64::NEG_INFINITY,
            cursor: Cell::new(0),
        };
        row.reindex(0);
        row
    }

    /// Rebuilds `widest_upto` from interval `from` on, after an edit of
    /// `free` at that position, and clamps the cursor to the edit.
    fn reindex(&mut self, from: usize) {
        self.cursor.set(self.cursor.get().min(from));
        self.widest_upto.truncate(from);
        let mut widest = from.checked_sub(1).map_or(0.0, |i| self.widest_upto[i]);
        for &(s, e) in &self.free[from..] {
            widest = widest.max(e - s);
            self.widest_upto.push(widest);
        }
        self.widest = self
            .widest_upto
            .last()
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
    }

    /// Drops interval `slot` whole: the capacity-exhaustion overlap.
    fn take(&mut self, slot: usize) {
        self.free.remove(slot);
        self.reindex(slot);
    }

    /// Index of the first interval starting right of `x`:
    /// `free.partition_point(|&(s, _)| s <= x)`, found by advancing the
    /// cursor. Amortised O(1) for a sweep asking in ascending `x`.
    fn seek(&self, x: f64) -> usize {
        let mut p = self.cursor.get();
        while p < self.free.len() && self.free[p].0 <= x {
            p += 1;
        }
        self.cursor.set(p);
        debug_assert_eq!(
            p,
            self.free.partition_point(|&(s, _)| s <= x),
            "row cursor ahead of the sweep"
        );
        p
    }
}

/// Best slot for a cell of `width` wanting its center at `desired_x`:
/// `(interval index, left edge, x-displacement)`. Displacement grows with
/// distance on each side of `desired_x`, so the first fitting interval
/// per side is that side's optimum; the nearer of the two wins, the left
/// one on a tie.
///
/// Three cuts keep the walks short, and none can drop a winner:
///
/// * `max_dx` is the largest displacement the caller can still use. A
///   walk stops at the first interval whose near edge is already farther
///   than that from `desired_x`: a cell placed there sits another half
///   width out, so it loses by `width / 2` — orders of magnitude above
///   rounding error, hence never a tie — and every later interval on
///   that side is farther still.
/// * The right side is walked first (the sweep fills rows left to right,
///   so that is the open side) and its fit bounds the left walk the same
///   way.
/// * `widest_upto` ends the left walk where nothing at or left of it is
///   wide enough, and skips a row with no wide-enough interval at all.
///
/// With `max_dx = ∞` the result is that of two exhaustive walks. The
/// walks start at [`Row::seek`]'s split, so `desired_x` must be at least
/// every earlier query's on this row.
fn best_slot(row: &Row, desired_x: f64, width: f64, max_dx: f64) -> Option<(usize, f64, f64)> {
    if row.widest < width {
        return None;
    }
    let free = &row.free;
    debug_assert_eq!(row.widest_upto.len(), free.len(), "stale row index");
    let fit = |i: usize| {
        let (s, e) = free[i];
        (e - s >= width).then(|| {
            let x = (desired_x - width * 0.5).clamp(s, e - width);
            (i, x, (x + width * 0.5 - desired_x).abs())
        })
    };
    let p = row.seek(desired_x);
    let mut bound = max_dx;
    let mut right = None;
    for (i, &(s, _)) in free.iter().enumerate().skip(p) {
        if s - desired_x > bound {
            break;
        }
        if let Some(slot) = fit(i) {
            bound = bound.min(slot.2);
            right = Some(slot);
            break;
        }
    }
    for i in (0..p).rev() {
        if row.widest_upto[i] < width || desired_x - free[i].1 > bound {
            break;
        }
        if let Some(slot) = fit(i) {
            if right.is_none_or(|(_, _, dx_r)| slot.2 <= dx_r) {
                return Some(slot);
            }
            break;
        }
    }
    right
}

/// Cheapest slot (cost = `dx + dy`) for a cell in rows `lo..=hi`, ties to
/// the lowest row index: `(row, slot, left edge)`. Counts every
/// [`best_slot`] call in `probes`.
///
/// Rows are visited outward from `ideal_row`, alternating below/above.
/// Row centers ascend with the row index and `ideal_row` is the row
/// nearest `desired.y`, so `dy` never shrinks walking away on either
/// side; a row's cost is at least its `dy`, so once `dy` exceeds the
/// incumbent's cost that whole side is closed. Within a row only
/// `cost − dy` of x-displacement can still win or tie, which bounds
/// [`best_slot`]'s walks. Both cuts drop only strictly worse candidates,
/// so the winner — and with the explicit index tie-break, the one among
/// equal costs — is the one an ascending scan of every row would pick.
fn find_slot(
    rows: &[Row],
    desired: Point,
    width: f64,
    ideal_row: usize,
    lo: usize,
    hi: usize,
    probes: &mut u64,
) -> Option<(usize, usize, f64)> {
    // (row, slot, x, cost) of the incumbent.
    let mut best: Option<(usize, usize, f64, f64)> = None;
    // Probes row `r`; `false` once rows this far out cannot win.
    let mut probe = |r: usize| {
        let row = &rows[r];
        let dy = (row.y_center - desired.y).abs();
        let budget = best.map_or(f64::INFINITY, |(_, _, _, c)| c);
        if dy > budget {
            return false;
        }
        *probes += 1;
        if let Some((slot, x, dx)) = best_slot(row, desired.x, width, budget - dy) {
            let cost = dx + dy;
            if best.is_none_or(|(br, _, _, c)| cost < c || (cost == c && r < br)) {
                best = Some((r, slot, x, cost));
            }
        }
        true
    };
    probe(ideal_row);
    let (mut below, mut above) = (true, true);
    let mut d = 1;
    while below || above {
        below = below && ideal_row >= lo + d && probe(ideal_row - d);
        above = above && ideal_row + d <= hi && probe(ideal_row + d);
        d += 1;
    }
    best.map(|(r, slot, x, _)| (r, slot, x))
}

/// Carves `[x, x + width)` out of `row.free[slot]`, keeping the interval
/// list sorted and disjoint (and, through `reindex`, the cursor at or
/// left of `slot`).
fn occupy(row: &mut Row, slot: usize, x: f64, width: f64) {
    let (s, e) = row.free[slot];
    let eps = 1e-9;
    row.free.remove(slot);
    let mut at = slot;
    if x - s > eps {
        row.free.insert(at, (s, x));
        at += 1;
    }
    if e - (x + width) > eps {
        row.free.insert(at, (x + width, e));
    }
    row.reindex(slot);
}

/// The y of the centre of row `row` on a grid of pitch `row_h` rising
/// from `lly`: what the legalizer writes, and the one formula every
/// re-snap onto a row uses, so re-snapping a legal cell keeps its bits.
#[must_use]
pub fn row_center(lly: f64, row: usize, row_h: f64) -> f64 {
    (lly + row as f64 * row_h) + row_h * 0.5
}

/// One die's sweep: its movable gates' legal positions, by cell index,
/// and its search counters (the displacement fields stay zero).
fn legalize_tier(
    netlist: &Netlist,
    placement: &Placement,
    fp: &Floorplan,
    stack: &TierStack,
    tiers: &[Tier],
    tier: Tier,
    search: SlotSearch,
) -> (Vec<(usize, Point)>, LegalStats) {
    let lib = stack.library(tier);
    let row_h = lib.cell_height_um;
    let die = fp.die;
    let n_rows = ((die.height() / row_h).floor() as usize).max(1);
    let keepouts = fp.keepouts(tier);

    let mut rows: Vec<Row> = (0..n_rows)
        .map(|r| {
            let y0 = die.lly() + r as f64 * row_h;
            let band = Rect::new(die.llx(), y0, die.urx(), y0 + row_h);
            let mut obstacles: Vec<(f64, f64)> = keepouts
                .iter()
                .filter(|k| k.intersects(&band))
                .map(|k| (k.llx(), k.urx()))
                .collect();
            obstacles.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut free = Vec::new();
            let mut x = die.llx();
            for &(ox0, ox1) in &obstacles {
                if ox0 > x {
                    free.push((x, ox0.min(die.urx())));
                }
                x = x.max(ox1);
            }
            if x < die.urx() {
                free.push((x, die.urx()));
            }
            Row::new(row_center(die.lly(), r, row_h), free)
        })
        .collect();

    // Movable gates on this tier, sorted by desired x.
    let mut cells: Vec<(usize, f64)> = netlist
        .cells()
        .filter(|(id, c)| !c.fixed && c.class.is_gate() && tiers[id.index()] == tier)
        .map(|(id, c)| {
            let w = match &c.class {
                CellClass::Gate { kind, drive } => {
                    lib.cell(*kind, *drive).map_or(0.3, |m| m.width_um)
                }
                _ => 0.3,
            };
            (id.index(), w)
        })
        .collect();
    cells.sort_by(|a, b| {
        placement.positions[a.0]
            .x
            .partial_cmp(&placement.positions[b.0].x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let search_span = 24usize;
    let mut positions = Vec::with_capacity(cells.len());
    let mut stats = LegalStats::default();
    for (idx, width) in cells {
        let desired = placement.positions[idx];
        let ideal_row = (((desired.y - die.lly()) / row_h).floor() as isize)
            .clamp(0, n_rows as isize - 1) as usize;
        let lo = ideal_row.saturating_sub(search_span);
        let hi = (ideal_row + search_span).min(n_rows - 1);
        // Nearby rows first; when every one of them is full, the whole die.
        let probes = &mut stats.row_probes;
        let best = search(&rows, desired, width, ideal_row, lo, hi, probes).or_else(|| {
            stats.fallbacks += 1;
            search(&rows, desired, width, ideal_row, 0, n_rows - 1, probes)
        });
        let at = match best {
            Some((r, slot, x)) => {
                occupy(&mut rows[r], slot, x, width);
                Point::new(x + width * 0.5, rows[r].y_center)
            }
            None => {
                // No free slot fits the cell anywhere: true capacity
                // exhaustion. Overlap minimally into the largest remaining
                // gap (a bounded local overlap beats a cell escaping the
                // die outline).
                let mut widest: Option<(f64, usize, usize)> = None;
                for (r, row) in rows.iter().enumerate() {
                    for (slot, &(s, e)) in row.free.iter().enumerate() {
                        let len = e - s;
                        if widest.is_none_or(|(best_len, _, _)| len > best_len) {
                            widest = Some((len, r, slot));
                        }
                    }
                }
                let (r, slot) = widest.map_or((ideal_row, usize::MAX), |(_, r, s)| (r, s));
                if slot == usize::MAX {
                    // Not even a gap left; pin to the die edge of the
                    // ideal row.
                    let x = (desired.x - width * 0.5).clamp(die.llx(), die.urx() - width);
                    Point::new(x + width * 0.5, rows[ideal_row].y_center)
                } else {
                    let (s, _) = rows[r].free[slot];
                    let x = s.min(die.urx() - width).max(die.llx());
                    rows[r].take(slot);
                    Point::new(x + width * 0.5, rows[r].y_center)
                }
            }
        };
        positions.push((idx, at));
    }
    (positions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{global_place, PlacerConfig};
    use crate::legality::check_legality;
    use m3d_netlist::CellId;
    use m3d_tech::Library;
    use proptest::prelude::*;

    fn legal_setup(
        bench: m3d_netgen::Benchmark,
        stack: TierStack,
        split: bool,
    ) -> (Netlist, Vec<Tier>, Floorplan, Placement) {
        let n = bench.generate(0.02, 4);
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        if split {
            for (i, t) in tiers.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *t = Tier::Top;
                }
            }
        }
        let fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        let (legal, _) = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap();
        (n, tiers, fp, legal)
    }

    #[test]
    fn two_d_legalization_is_overlap_free() {
        let stack = TierStack::two_d(Library::twelve_track());
        let (n, tiers, fp, legal) = legal_setup(m3d_netgen::Benchmark::Aes, stack.clone(), false);
        assert_eq!(check_legality(&n, &legal, &fp, &stack, &tiers), Ok(()));
    }

    #[test]
    fn hetero_legalization_respects_both_row_heights() {
        let stack = TierStack::heterogeneous();
        let (n, tiers, fp, legal) = legal_setup(m3d_netgen::Benchmark::Aes, stack.clone(), true);
        assert_eq!(check_legality(&n, &legal, &fp, &stack, &tiers), Ok(()));
    }

    #[test]
    fn legalization_keeps_cells_out_of_macros() {
        let stack = TierStack::two_d(Library::twelve_track());
        let (n, tiers, fp, legal) = legal_setup(m3d_netgen::Benchmark::Cpu, stack.clone(), false);
        assert!(!fp.keepouts(Tier::Bottom).is_empty());
        assert_eq!(check_legality(&n, &legal, &fp, &stack, &tiers), Ok(()));
    }

    fn try_setup() -> (Netlist, Vec<Tier>, Floorplan, Placement, TierStack) {
        let stack = TierStack::two_d(Library::twelve_track());
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 4);
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        (n, tiers, fp, p, stack)
    }

    #[test]
    fn try_legalize_rejects_short_tier_vector() {
        let (n, mut tiers, fp, p, stack) = try_setup();
        tiers.pop();
        let err = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap_err();
        assert_eq!(
            err,
            LegalizeError::TierCountMismatch {
                tiers: n.cell_count() - 1,
                cells: n.cell_count()
            }
        );
    }

    #[test]
    fn try_legalize_rejects_short_placement() {
        let (n, tiers, fp, mut p, stack) = try_setup();
        p.positions.truncate(3);
        let err = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap_err();
        assert_eq!(
            err,
            LegalizeError::PositionCountMismatch {
                positions: 3,
                cells: n.cell_count()
            }
        );
    }

    #[test]
    fn try_legalize_rejects_nan_coordinates() {
        let (n, tiers, fp, mut p, stack) = try_setup();
        let victim = n
            .cells()
            .find(|(_, c)| !c.fixed && c.class.is_gate())
            .map(|(id, _)| id.index())
            .expect("benchmark has movable gates");
        p.positions[victim] = Point::new(f64::NAN, 1.0);
        let err = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap_err();
        assert_eq!(err, LegalizeError::NonFinitePosition { cell: victim });
    }

    #[test]
    fn try_legalize_rejects_degenerate_die() {
        let (n, tiers, mut fp, p, stack) = try_setup();
        fp.die = Rect::new(0.0, 0.0, 0.0, 0.0);
        let err = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap_err();
        assert!(matches!(err, LegalizeError::DegenerateDie { .. }), "{err}");
    }

    #[test]
    fn try_legalize_accepts_well_formed_input() {
        let (n, tiers, fp, p, stack) = try_setup();
        let (legal, stats) = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap();
        let moved: Vec<f64> = n
            .cells()
            .filter(|(_, c)| !c.fixed && c.class.is_gate())
            .map(|(id, _)| p.positions[id.index()].distance(legal.positions[id.index()]))
            .collect();
        assert_eq!(stats.moved_cells, moved.len() as u64);
        assert_eq!(stats.total_displacement_um, moved.iter().sum::<f64>());
        assert_eq!(
            stats.max_displacement_um,
            moved.iter().fold(0.0, |m: f64, &d| m.max(d))
        );
    }

    #[test]
    fn legalization_displacement_is_bounded() {
        let stack = TierStack::two_d(Library::twelve_track());
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 4);
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        let (legal, _) = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap();
        // Legalized wirelength should stay within ~2x of global HPWL.
        let before = p.hpwl(&n);
        let after = legal.hpwl(&n);
        assert!(
            after < 2.0 * before + 100.0,
            "legalization blew up wirelength: {before} -> {after}"
        );
    }

    /// The search the pruned one must reproduce: both walks of a row run
    /// until they find a fit or leave the row, and every row of `lo..=hi`
    /// is scanned in ascending order, a later row winning only when
    /// strictly cheaper.
    fn find_slot_exhaustive(
        rows: &[Row],
        desired: Point,
        width: f64,
        _ideal_row: usize,
        lo: usize,
        hi: usize,
        probes: &mut u64,
    ) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64, f64)> = None;
        for (r, row) in rows.iter().enumerate().take(hi + 1).skip(lo) {
            *probes += 1;
            let free = &row.free;
            let dy = (row.y_center - desired.y).abs();
            let p = free.partition_point(|&(s, _)| s <= desired.x);
            let place = |i: usize| {
                let (s, e) = free[i];
                let x = (desired.x - width * 0.5).clamp(s, e - width);
                (i, x, (x + width * 0.5 - desired.x).abs())
            };
            let fits = |i: &usize| free[*i].1 - free[*i].0 >= width;
            let mut slot = (0..p).rev().find(fits).map(place);
            if let Some(right) = (p..free.len()).find(fits).map(place) {
                if slot.is_none_or(|(_, _, dx)| right.2 < dx) {
                    slot = Some(right);
                }
            }
            if let Some((i, x, dx)) = slot {
                let cost = dx + dy;
                if best.is_none_or(|(_, _, _, c)| cost < c) {
                    best = Some((r, i, x, cost));
                }
            }
        }
        best.map(|(r, i, x, _)| (r, i, x))
    }

    /// Checks `best_slot` on `row` at each `(x, width)` query, in order,
    /// against a fresh row's (cursor at 0, so the split is a full
    /// `partition_point`) and the exhaustive search's.
    fn assert_queries_match(row: &Row, queries: &[(f64, f64)]) {
        for &(x, width) in queries {
            let got = best_slot(row, x, width, f64::INFINITY);
            let fresh = Row::new(row.y_center, row.free.clone());
            assert_eq!(
                got,
                best_slot(&fresh, x, width, f64::INFINITY),
                "x {x}, width {width}"
            );
            let desired = Point::new(x, row.y_center);
            let reference =
                find_slot_exhaustive(std::slice::from_ref(row), desired, width, 0, 0, 0, &mut 0);
            assert_eq!(
                got.map(|(slot, left, _)| (slot, left.to_bits())),
                reference.map(|(_, slot, left)| (slot, left.to_bits())),
                "x {x}, width {width}"
            );
            if got.is_some() {
                assert_eq!(row.cursor.get(), row.free.partition_point(|&(s, _)| s <= x));
            }
        }
    }

    #[test]
    fn row_cursor_survives_splits_and_removals_left_of_it() {
        // A placement splits an interval; the queries after it step
        // across both fragments and the next interval.
        let mut row = Row::new(0.5, vec![(0.0, 10.0), (12.0, 20.0)]);
        assert_eq!(
            best_slot(&row, 2.0, 1.0, f64::INFINITY),
            Some((0, 1.5, 0.0))
        );
        occupy(&mut row, 0, 1.5, 1.0);
        assert_eq!(row.free, [(0.0, 1.5), (2.5, 10.0), (12.0, 20.0)]);
        assert_queries_match(
            &row,
            &[
                (2.0, 1.0),
                (2.0, 0.5),
                (3.0, 2.0),
                (11.0, 1.0),
                (12.5, 9.0),
                (19.0, 1.0),
            ],
        );

        // A fragment fill consumes a whole interval left of the cursor,
        // then the exhaustion branch drops another one left of it: the
        // cursor must follow both back, or the next query splits the
        // list two intervals too far right and takes (7, 8) for (5, 6).
        let mut row = Row::new(
            0.5,
            vec![(0.0, 1.0), (2.0, 3.0), (5.0, 6.0), (7.0, 8.0), (20.0, 30.0)],
        );
        let (slot, left, _) = best_slot(&row, 3.9, 1.0, f64::INFINITY).unwrap();
        assert_eq!((slot, left, row.cursor.get()), (1, 2.0, 2));
        occupy(&mut row, slot, left, 1.0);
        row.take(0);
        assert_eq!(row.free, [(5.0, 6.0), (7.0, 8.0), (20.0, 30.0)]);
        assert_eq!(
            best_slot(&row, 4.0, 1.0, f64::INFINITY),
            Some((0, 5.0, 1.5))
        );
        assert_queries_match(
            &row,
            &[
                (4.0, 1.0),
                (6.5, 1.0),
                (7.5, 2.0),
                (21.0, 1.0),
                (40.0, 11.0),
            ],
        );
    }

    #[test]
    fn two_dies_legalize_alike_at_any_thread_count() {
        let stack = TierStack::heterogeneous();
        let n = m3d_netgen::Benchmark::Cpu.generate(0.05, 4);
        let tiers: Vec<Tier> = (0..n.cell_count())
            .map(|i| if i % 2 == 0 { Tier::Top } else { Tier::Bottom })
            .collect();
        let mut fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        let die = fp.die;
        let (w, h) = (die.width() * 0.1, die.height() * 0.1);
        let top = Rect::new(
            die.llx() + 4.0 * w,
            die.lly() + 4.0 * h,
            die.llx() + 5.0 * w,
            die.lly() + 5.0 * h,
        );
        fp.macros.push((CellId::from_index(0), Tier::Top, top));
        assert!(!fp.keepouts(Tier::Bottom).is_empty() && !fp.keepouts(Tier::Top).is_empty());
        let p = global_place(&n, &fp, &PlacerConfig::default());

        let run = |threads: usize| {
            m3d_par::set_threads(threads);
            let result = try_legalize_with_stats(&n, &p, &fp, &stack, &tiers).unwrap();
            m3d_par::set_threads(0);
            result
        };
        let (one, one_stats) = run(1);
        let (four, four_stats) = run(4);
        assert_eq!(one_stats, four_stats);
        assert!(one_stats.row_probes >= one_stats.moved_cells);
        let bits = |p: &Placement| -> Vec<(u64, u64)> {
            p.positions
                .iter()
                .map(|q| (q.x.to_bits(), q.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&one), bits(&four));
        assert_eq!(check_legality(&n, &one, &fp, &stack, &tiers), Ok(()));
    }

    /// A legalizer input of the drawn shape. Tall dies have more rows
    /// than the search window; a die smaller than its cells cannot hold
    /// them; a small `spread` clumps the cells, which fills the rows
    /// around the clump and forces the search outward; `snapped` cells
    /// start exactly on a row boundary, equally far from two rows.
    fn random_input(
        seed: u64,
        (hetero, with_macros): (bool, bool),
        (die_width, die_height): (f64, f64),
        spread: f64,
        keepouts: &[(f64, f64, f64, f64, bool)],
        coords: &[(f64, f64, bool)],
    ) -> (Netlist, Vec<Tier>, Floorplan, TierStack, Placement) {
        let bench = if with_macros {
            m3d_netgen::Benchmark::Cpu
        } else {
            m3d_netgen::Benchmark::Aes
        };
        let n = bench.generate(0.02, seed);
        let stack = if hetero {
            TierStack::heterogeneous()
        } else {
            TierStack::two_d(Library::twelve_track())
        };
        let tiers: Vec<Tier> = (0..n.cell_count())
            .map(|i| {
                if hetero && (i as u64 ^ seed).is_multiple_of(3) {
                    Tier::Top
                } else {
                    Tier::Bottom
                }
            })
            .collect();
        let mut fp = Floorplan::new(&n, &stack, &tiers, 0.65);
        fp.die = Rect::new(0.0, 0.0, die_width, die_height);
        fp.macros.retain(|(_, _, r)| fp.die.contains_rect(r));
        for &(x, y, w, h, top) in keepouts {
            let (llx, lly) = (x * die_width, y * die_height);
            let tier = if top && hetero {
                Tier::Top
            } else {
                Tier::Bottom
            };
            let rect = Rect::new(llx, lly, llx + w * die_width, lly + h * die_height);
            fp.macros.push((CellId::from_index(0), tier, rect));
        }
        let mut p = Placement::centered(&n, fp.die);
        for (i, q) in p.positions.iter_mut().enumerate() {
            // Coordinates in -0.1..1.1 of the die (some start outside),
            // squeezed toward the die center by `spread`.
            let (u, v, snapped) = coords[i % coords.len()];
            let (u, v) = (0.5 + (u - 0.5) * spread, 0.5 + (v - 0.5) * spread);
            let pitch = stack.library(tiers[i]).cell_height_um;
            let y = v * die_height;
            let y = if snapped {
                (y / pitch).round() * pitch
            } else {
                y
            };
            *q = Point::new(u * die_width, y);
        }
        (n, tiers, fp, stack, p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pruned_search_matches_exhaustive_scan(
            seed in 0u64..1000,
            kind in (0u8..2, 0u8..2).prop_map(|(h, m)| (h == 1, m == 1)),
            die in (3.0..40.0f64, 8.0..200.0f64),
            spread in 0.02..1.0f64,
            keepouts in prop::collection::vec(
                (0.0..0.9f64, 0.0..0.9f64, 0.02..0.4f64, 0.02..0.4f64, 0u8..2)
                    .prop_map(|(x, y, w, h, t)| (x, y, w, h, t == 1)),
                0..4,
            ),
            coords in prop::collection::vec(
                (-0.1..1.1f64, -0.1..1.1f64, 0u8..4).prop_map(|(u, v, s)| (u, v, s == 0)),
                50..400,
            ),
        ) {
            let (n, tiers, fp, stack, p) = random_input(seed, kind, die, spread, &keepouts, &coords);
            let (pruned, _) = legalize_tiers(&n, &p, &fp, &stack, &tiers, find_slot);
            let (reference, _) = legalize_tiers(&n, &p, &fp, &stack, &tiers, find_slot_exhaustive);
            for (i, (a, b)) in pruned.positions.iter().zip(&reference.positions).enumerate() {
                prop_assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "cell {} at {} vs {}", i, a, b
                );
            }
        }
    }
}
