use m3d_geom::Point;
use m3d_netlist::{CellId, NetId, Netlist};
use m3d_place::Placement;
use m3d_tech::{Tier, TierStack};

/// Global-router parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Grid cells per axis.
    pub bins: usize,
    /// Congestion-cost exponent: cost of an edge = `(1 + demand/cap)^k`.
    pub congestion_exponent: f64,
    /// Fraction of capacity considered overflowed.
    pub overflow_threshold: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            bins: 32,
            congestion_exponent: 3.0,
            overflow_threshold: 1.0,
        }
    }
}

/// Routing outcome of one net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoutedNet {
    /// Total routed length, µm.
    pub length_um: f64,
    /// Inter-tier vias used.
    pub mivs: u32,
    /// Whether any of this net's edges ended on an overflowed grid edge.
    pub congested: bool,
}

/// Whole-design routing result.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Per-net outcomes, indexed by net id (clock nets are zero).
    pub nets: Vec<RoutedNet>,
    /// Total signal wirelength, µm.
    pub total_wirelength_um: f64,
    /// Manhattan length of the Prim spanning trees before congestion
    /// detours, µm — the lower bound the router works from. The gap to
    /// `total_wirelength_um` measures detour cost.
    pub prim_wirelength_um: f64,
    /// Total MIV count.
    pub total_mivs: usize,
    /// Maximum edge demand/capacity ratio.
    pub max_congestion: f64,
    /// Number of grid edges above the overflow threshold.
    pub overflow_edges: usize,
}

impl RoutingResult {
    /// Total wirelength in millimetres (the paper reports mm / m).
    #[must_use]
    pub fn total_wirelength_mm(&self) -> f64 {
        self.total_wirelength_um * 1e-3
    }

    /// The design-wide totals, without the per-net outcomes.
    #[must_use]
    pub fn totals(&self) -> RouteTotals {
        RouteTotals {
            total_wirelength_um: self.total_wirelength_um,
            prim_wirelength_um: self.prim_wirelength_um,
            total_mivs: self.total_mivs,
            max_congestion: self.max_congestion,
            overflow_edges: self.overflow_edges,
        }
    }
}

/// What a routed design keeps once extraction has folded the per-net
/// outcomes into its parasitics: the [`RoutingResult`] totals, under the
/// same names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteTotals {
    /// Total signal wirelength, µm.
    pub total_wirelength_um: f64,
    /// Manhattan length of the Prim spanning trees before congestion
    /// detours, µm.
    pub prim_wirelength_um: f64,
    /// Total MIV count.
    pub total_mivs: usize,
    /// Maximum edge demand/capacity ratio.
    pub max_congestion: f64,
    /// Number of grid edges above the overflow threshold.
    pub overflow_edges: usize,
}

impl RouteTotals {
    /// Total wirelength in millimetres (the paper reports mm / m).
    #[must_use]
    pub fn total_wirelength_mm(&self) -> f64 {
        self.total_wirelength_um * 1e-3
    }
}

/// Edge-capacity grid: horizontal and vertical demand per bin edge, and
/// the congestion cost `(1 + demand/cap)^k` each demand implies.
struct Grid {
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
    llx: f64,
    lly: f64,
    /// demand on horizontal edges: (nx-1) * ny
    h_demand: Vec<f64>,
    /// demand on vertical edges: nx * (ny-1)
    v_demand: Vec<f64>,
    h_cap: f64,
    v_cap: f64,
    /// Cost of crossing each horizontal edge at its current demand. Every
    /// routed tree edge prices two to four candidate paths but commits
    /// one, so the cost is looked up when [`Grid::add_h`] moves an edge's
    /// demand, not each time a candidate looks at it.
    h_cost: Vec<f64>,
    /// Likewise per vertical edge, refreshed by [`Grid::add_v`].
    v_cost: Vec<f64>,
    /// `edge_cost(d, h_cap, k)` at index `d`. Demand only ever grows by
    /// one track (nothing is ripped up), so it is an exact integer count
    /// and each level's `powf` is paid once per grid, not once per edge
    /// that reaches it.
    h_cost_at: CostTable,
    /// Likewise against `v_cap`.
    v_cost_at: CostTable,
}

/// [`edge_cost`] at every integer demand met so far, for one capacity.
struct CostTable {
    cap: f64,
    k: f64,
    costs: Vec<f64>,
}

impl CostTable {
    fn new(cap: f64, k: f64) -> Self {
        CostTable {
            cap,
            k,
            costs: vec![edge_cost(0.0, cap, k)],
        }
    }

    /// The cost at demand `d`, a whole number of tracks.
    fn at(&mut self, d: f64) -> f64 {
        let i = d as usize;
        while self.costs.len() <= i {
            let next = self.costs.len() as f64;
            self.costs.push(edge_cost(next, self.cap, self.k));
        }
        self.costs[i]
    }
}

/// Congestion cost of an edge carrying demand `d` against capacity `cap`.
fn edge_cost(d: f64, cap: f64, k: f64) -> f64 {
    (1.0 + d / cap).powf(k)
}

impl Grid {
    fn new(placement: &Placement, stack: &TierStack, config: &RouteConfig) -> Self {
        let die = placement.die;
        let nx = config.bins.max(2);
        let ny = config.bins.max(2);
        let bin_w = die.width() / nx as f64;
        let bin_h = die.height() / ny as f64;
        // Capacity in tracks per edge; both tiers contribute in 3-D.
        let tiers = if stack.is_3d() { 2.0 } else { 1.0 };
        let h_cap = (stack.metal.edge_capacity(bin_h, true) as f64 * tiers).max(1.0);
        let v_cap = (stack.metal.edge_capacity(bin_w, false) as f64 * tiers).max(1.0);
        let k = config.congestion_exponent;
        Grid {
            nx,
            ny,
            bin_w,
            bin_h,
            llx: die.llx(),
            lly: die.lly(),
            h_demand: vec![0.0; (nx - 1) * ny],
            v_demand: vec![0.0; nx * (ny - 1)],
            h_cap,
            v_cap,
            h_cost: vec![edge_cost(0.0, h_cap, k); (nx - 1) * ny],
            v_cost: vec![edge_cost(0.0, v_cap, k); nx * (ny - 1)],
            h_cost_at: CostTable::new(h_cap, k),
            v_cost_at: CostTable::new(v_cap, k),
        }
    }

    fn bin_of(&self, p: Point) -> (usize, usize) {
        let cx = (((p.x - self.llx) / self.bin_w).floor() as isize).clamp(0, self.nx as isize - 1)
            as usize;
        let cy = (((p.y - self.lly) / self.bin_h).floor() as isize).clamp(0, self.ny as isize - 1)
            as usize;
        (cx, cy)
    }

    fn h_edge(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }

    fn v_edge(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    /// Adds demand along a horizontal run at row `y` from `x0` to `x1`.
    fn add_h(&mut self, y: usize, x0: usize, x1: usize) {
        let (a, b) = (x0.min(x1), x0.max(x1));
        for x in a..b {
            let e = self.h_edge(x, y);
            self.h_demand[e] += 1.0;
            self.h_cost[e] = self.h_cost_at.at(self.h_demand[e]);
        }
    }

    fn add_v(&mut self, x: usize, y0: usize, y1: usize) {
        let (a, b) = (y0.min(y1), y0.max(y1));
        for y in a..b {
            let e = self.v_edge(x, y);
            self.v_demand[e] += 1.0;
            self.v_cost[e] = self.v_cost_at.at(self.v_demand[e]);
        }
    }

    /// Cost of a horizontal run (for comparing L orientations).
    fn h_run_cost(&self, y: usize, x0: usize, x1: usize) -> f64 {
        let (a, b) = (x0.min(x1), x0.max(x1));
        self.h_cost[self.h_edge(a, y)..self.h_edge(b, y)]
            .iter()
            .sum()
    }

    fn v_run_cost(&self, x: usize, y0: usize, y1: usize) -> f64 {
        let (a, b) = (y0.min(y1), y0.max(y1));
        (a..b).map(|y| self.v_cost[self.v_edge(x, y)]).sum()
    }
}

/// Routes every signal net over a congestion grid.
///
/// Net topology: a rectilinear spanning tree from the driver (Prim order),
/// each tree edge routed as the cheaper of its two L-shapes given current
/// congestion; a second pass re-routes nets that ended on overflowed edges
/// trying Z-shapes. MIVs: one per tree edge whose endpoints sit on
/// different tiers.
#[must_use]
pub fn global_route(
    netlist: &Netlist,
    placement: &Placement,
    tiers: &[Tier],
    stack: &TierStack,
    config: &RouteConfig,
) -> RoutingResult {
    route_on_grid(netlist, placement, tiers, stack, config).0
}

/// [`global_route`], also handing back the final congestion grid.
fn route_on_grid(
    netlist: &Netlist,
    placement: &Placement,
    tiers: &[Tier],
    stack: &TierStack,
    config: &RouteConfig,
) -> (RoutingResult, Grid) {
    let mut grid = Grid::new(placement, stack, config);
    let mut nets = vec![RoutedNet::default(); netlist.net_count()];

    let candidates: Vec<NetId> = netlist
        .nets()
        .filter(|(_, n)| !n.is_clock && n.degree() >= 2)
        .map(|(id, _)| id)
        .collect();
    // Order: short nets first (they have the least flexibility). The
    // stable index sort below yields the same permutation as sorting the
    // ids directly.
    let mut pins = Vec::new();
    let hpwl: Vec<f64> = candidates
        .iter()
        .map(|&id| placement.net_hpwl_with(netlist, id, &mut pins))
        .collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        hpwl[a]
            .partial_cmp(&hpwl[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Phase 1 (parallel): per-net topology — Prim tree and MIV count. None
    // of it depends on congestion, so every net's plan can be built
    // concurrently. Per-net work is pure, so gating it on the worker count
    // is determinism-safe: every path plans the same values per net.
    let workers = if candidates.len() >= m3d_par::PAR_THRESHOLD {
        m3d_par::resolve(0)
    } else {
        1
    };
    // Each chunk of `order` plans into one flat edge array
    // through one set of scratch buffers, reused across its nets. Both
    // arrays are sized exactly up front — one plan and `degree − 1` tree
    // edges per net — so they carry no growth slack.
    let chunks = m3d_par::par_ranges(workers, order.len(), |range| {
        let ixs = &order[range];
        let edges = ixs
            .iter()
            .map(|&ix| netlist.net(candidates[ix]).degree() - 1)
            .sum();
        let mut chunk = PlanChunk {
            nets: Vec::with_capacity(ixs.len()),
            edges: Vec::with_capacity(edges),
        };
        let mut scratch = PlanScratch::default();
        for &ix in ixs {
            plan_net(
                netlist,
                placement,
                tiers,
                candidates[ix],
                &mut scratch,
                &mut chunk,
            );
        }
        chunk
    });

    // Phase 2 (sequential): commit each plan to the shared congestion grid
    // in HPWL order — demand evolution defines the result, so this order is
    // the contract.
    let positions = &placement.positions;
    for chunk in &chunks {
        let mut ends = Ends::new(positions, &chunk.edges);
        for plan in &chunk.nets {
            let tree = ends.of(plan.edges.clone());
            nets[plan.net.index()] = route_plan(&mut grid, plan, tree, false);
        }
    }

    // Second pass: reroute congested nets with Z-shape exploration. The
    // tree is congestion-independent, so the phase-1 plan is reused.
    for chunk in &chunks {
        let mut ends = Ends::new(positions, &chunk.edges);
        for plan in &chunk.nets {
            if nets[plan.net.index()].congested {
                let tree = ends.of(plan.edges.clone());
                nets[plan.net.index()] = route_plan(&mut grid, plan, tree, true);
            }
        }
    }

    let total_wirelength_um = nets.iter().map(|n| n.length_um).sum();
    // Folded in HPWL (commit) order, matching the other totals.
    let prim_wirelength_um = chunks.iter().flat_map(|c| &c.nets).map(|p| p.prim_um).sum();
    let total_mivs = nets.iter().map(|n| n.mivs as usize).sum();
    let mut max_congestion = 0.0_f64;
    let mut overflow_edges = 0usize;
    for y in 0..grid.ny {
        for x in 0..grid.nx - 1 {
            let r = grid.h_demand[grid.h_edge(x, y)] / grid.h_cap;
            max_congestion = max_congestion.max(r);
            if r > config.overflow_threshold {
                overflow_edges += 1;
            }
        }
    }
    for y in 0..grid.ny - 1 {
        for x in 0..grid.nx {
            let r = grid.v_demand[grid.v_edge(x, y)] / grid.v_cap;
            max_congestion = max_congestion.max(r);
            if r > config.overflow_threshold {
                overflow_edges += 1;
            }
        }
    }

    let result = RoutingResult {
        nets,
        total_wirelength_um,
        prim_wirelength_um,
        total_mivs,
        max_congestion,
        overflow_edges,
    };
    (result, grid)
}

/// Congestion-independent routing plan for one net: where its Prim
/// spanning-tree edges sit in the chunk's flat edge array, and the MIV
/// count those edges imply. Building a plan is pure per-net work, which is
/// what lets `global_route` fan the planning phase out across threads.
struct NetPlan {
    net: NetId,
    /// This net's slice of [`PlanChunk::edges`].
    edges: std::ops::Range<usize>,
    mivs: u32,
    /// Manhattan length of the tree edges (pre-detour lower bound), µm.
    prim_um: f64,
}

/// The plans of one contiguous slice of the routing order.
struct PlanChunk {
    nets: Vec<NetPlan>,
    /// Tree edges of every net in `nets`, back to back, as pairs of cell
    /// indices (a pin sits at its cell's position, which the commit looks
    /// up in the placement).
    edges: Vec<(u32, u32)>,
}

/// Tree edges the commit looks positions up for at a time. Both passes
/// read a chunk's edges in array order (the Z pass reroutes the nets
/// that congested, about 45 % of them at 308 k cells), and resolving a
/// block in one tight loop lets the scattered position loads overlap
/// instead of stalling the commit once per endpoint.
const ENDS_WINDOW: usize = 256;

/// A window of one chunk's tree edges, resolved to endpoint positions.
struct Ends<'a> {
    positions: &'a [Point],
    edges: &'a [(u32, u32)],
    /// Index in `edges` of `resolved[0]`.
    lo: usize,
    resolved: Vec<(Point, Point)>,
}

impl<'a> Ends<'a> {
    fn new(positions: &'a [Point], edges: &'a [(u32, u32)]) -> Self {
        Ends {
            positions,
            edges,
            lo: 0,
            resolved: Vec::with_capacity(ENDS_WINDOW),
        }
    }

    /// The endpoint positions of `edges[range]`, resolving the window
    /// that starts there when the current one does not cover it.
    fn of(&mut self, range: std::ops::Range<usize>) -> &[(Point, Point)] {
        if range.start < self.lo || range.end > self.lo + self.resolved.len() {
            let (at, edges) = (self.positions, self.edges);
            let end = edges.len().min(range.start + ENDS_WINDOW).max(range.end);
            self.resolved.clear();
            self.resolved.extend(
                edges[range.start..end]
                    .iter()
                    .map(|&(a, b)| (at[a as usize], at[b as usize])),
            );
            self.lo = range.start;
        }
        &self.resolved[range.start - self.lo..range.end - self.lo]
    }
}

/// Per-chunk Prim working set, cleared and refilled for every net.
#[derive(Default)]
struct PlanScratch {
    cells: Vec<CellId>,
    pts: Vec<Point>,
    in_tree: Vec<bool>,
    dist: Vec<f64>,
    parent: Vec<usize>,
}
/// Plans `net_id` onto the end of `chunk`.
fn plan_net(
    netlist: &Netlist,
    placement: &Placement,
    tiers: &[Tier],
    net_id: NetId,
    scratch: &mut PlanScratch,
    chunk: &mut PlanChunk,
) {
    let PlanScratch {
        cells,
        pts,
        in_tree,
        dist,
        parent,
    } = scratch;
    cells.clear();
    cells.extend(netlist.net(net_id).cells());
    placement.net_pins_into(netlist, net_id, pts);
    let n = pts.len();
    let first_edge = chunk.edges.len();
    let mut mivs = 0;
    let mut prim_um = 0.0;

    // Prim spanning tree from the driver (index 0).
    in_tree.clear();
    in_tree.resize(n, false);
    dist.clear();
    dist.resize(n, f64::INFINITY);
    parent.clear();
    parent.resize(n, 0);
    if n > 0 {
        in_tree[0] = true;
    }
    for i in 1..n {
        dist[i] = pts[i].manhattan(pts[0]);
    }
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut bd = f64::INFINITY;
        for i in 0..n {
            if !in_tree[i] && dist[i] < bd {
                best = i;
                bd = dist[i];
            }
        }
        if best == usize::MAX {
            break;
        }
        in_tree[best] = true;
        let from = parent[best];
        let (a, b) = (cells[from].index(), cells[best].index());
        chunk.edges.push((a as u32, b as u32));
        if tiers[a] != tiers[b] {
            mivs += 1;
        }
        prim_um += pts[from].manhattan(pts[best]);
        for i in 0..n {
            if !in_tree[i] {
                let d = pts[i].manhattan(pts[best]);
                if d < dist[i] {
                    dist[i] = d;
                    parent[i] = best;
                }
            }
        }
    }
    chunk.nets.push(NetPlan {
        net: net_id,
        edges: first_edge..chunk.edges.len(),
        mivs,
        prim_um,
    });
}

/// Commits one plan to the congestion grid, routing each tree edge as the
/// cheaper L (or Z when `try_z`) under the grid's current demand.
fn route_plan(grid: &mut Grid, plan: &NetPlan, tree: &[(Point, Point)], try_z: bool) -> RoutedNet {
    let mut length = 0.0;
    let mut congested = false;
    for &(pa, pb) in tree {
        length += route_edge(grid, pa, pb, try_z, &mut congested);
    }
    RoutedNet {
        length_um: length,
        mivs: plan.mivs,
        congested,
    }
}

/// Routes one 2-pin edge as the cheaper L (or, when `try_z`, the best of
/// the Ls and a midpoint Z in each orientation). Returns the wirelength
/// and updates demand.
fn route_edge(grid: &mut Grid, pa: Point, pb: Point, try_z: bool, congested: &mut bool) -> f64 {
    let (ax, ay) = grid.bin_of(pa);
    let (bx, by) = grid.bin_of(pb);
    let manhattan = pa.manhattan(pb);

    // Candidate corner bins: the two Ls, then a midpoint Z with the
    // horizontal run first and one with the vertical run first.
    let candidates = [(bx, ay), (ax, by), ((ax + bx) / 2, ay), (ax, (ay + by) / 2)];
    let candidates = &candidates[..if try_z { 4 } else { 2 }];

    // Evaluate each candidate: path = a -> c -> b with axis-aligned runs.
    let mut best_cost = f64::INFINITY;
    let mut best = candidates[0];
    for &(cx, cy) in candidates {
        let cost = grid.h_run_cost(ay, ax, cx)
            + grid.v_run_cost(cx, ay, cy)
            + grid.h_run_cost(cy, cx, bx)
            + grid.v_run_cost(bx, cy, by);
        if cost < best_cost {
            best_cost = cost;
            best = (cx, cy);
        }
    }
    let (cx, cy) = best;
    grid.add_h(ay, ax, cx);
    grid.add_v(cx, ay, cy);
    grid.add_h(cy, cx, bx);
    grid.add_v(bx, cy, by);

    // Congestion check on the chosen corner bins.
    let over = |d: f64, c: f64| d / c > 1.0;
    if (cx > 0 && over(grid.h_demand[grid.h_edge(cx - 1, ay)], grid.h_cap))
        || (cy > 0 && over(grid.v_demand[grid.v_edge(cx, cy - 1)], grid.v_cap))
    {
        *congested = true;
    }

    // Length: the detour via (cx, cy) relative to straight manhattan.
    let corner = Point::new(
        grid.llx + (cx as f64 + 0.5) * grid.bin_w,
        grid.lly + (cy as f64 + 0.5) * grid.bin_h,
    );
    let routed = pa.manhattan(corner) + corner.manhattan(pb);
    routed.max(manhattan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_place::{global_place, Floorplan, PlacerConfig};
    use m3d_tech::Library;

    fn setup(bench: m3d_netgen::Benchmark) -> (Netlist, Vec<Tier>, Placement, TierStack) {
        let n = bench.generate(0.02, 11);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        (n, tiers, p, stack)
    }

    #[test]
    fn routed_length_at_least_hpwl() {
        let (n, tiers, p, stack) = setup(m3d_netgen::Benchmark::Aes);
        let r = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        let hpwl = p.hpwl(&n);
        assert!(
            r.total_wirelength_um >= 0.9 * hpwl,
            "routed {} vs hpwl {hpwl}",
            r.total_wirelength_um
        );
        // And not absurdly longer.
        assert!(r.total_wirelength_um < 3.0 * hpwl + 1000.0);
    }

    #[test]
    fn two_d_design_has_no_mivs() {
        let (n, tiers, p, stack) = setup(m3d_netgen::Benchmark::Aes);
        let r = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        assert_eq!(r.total_mivs, 0);
    }

    #[test]
    fn three_d_split_produces_mivs() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 11);
        let stack = TierStack::homogeneous_3d(Library::twelve_track());
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        for (i, t) in tiers.iter_mut().enumerate() {
            if i % 2 == 0 {
                *t = Tier::Top;
            }
        }
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        let r = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        assert!(r.total_mivs > 0);
    }

    #[test]
    fn wire_dominant_design_is_more_congested() {
        let (na, ta, pa, stack_a) = setup(m3d_netgen::Benchmark::Aes);
        let (nl, tl, pl, stack_l) = setup(m3d_netgen::Benchmark::Ldpc);
        let ra = global_route(&na, &pa, &ta, &stack_a, &RouteConfig::default());
        let rl = global_route(&nl, &pl, &tl, &stack_l, &RouteConfig::default());
        // LDPC has global connectivity: its wirelength per cell dwarfs AES.
        let per_cell_a = ra.total_wirelength_um / na.gate_count() as f64;
        let per_cell_l = rl.total_wirelength_um / nl.gate_count() as f64;
        assert!(
            per_cell_l > 1.5 * per_cell_a,
            "ldpc {per_cell_l} vs aes {per_cell_a}"
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let (n, tiers, p, stack) = setup(m3d_netgen::Benchmark::Netcard);
        let a = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        let b = global_route(&n, &p, &tiers, &stack, &RouteConfig::default());
        assert_eq!(a.total_wirelength_um, b.total_wirelength_um);
        assert_eq!(a.total_mivs, b.total_mivs);
    }

    /// FNV-1a over every field of a result, floats by their bits.
    fn result_hash(r: &RoutingResult) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        for n in &r.nets {
            mix(n.length_um.to_bits());
            mix(u64::from(n.mivs));
            mix(u64::from(n.congested));
        }
        mix(r.total_wirelength_um.to_bits());
        mix(r.prim_wirelength_um.to_bits());
        mix(r.total_mivs as u64);
        mix(r.max_congestion.to_bits());
        mix(r.overflow_edges as u64);
        h
    }

    #[test]
    fn netcard_routing_matches_golden_and_memoised_costs_are_current() {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.1, 11);
        let stack = TierStack::heterogeneous();
        let tiers: Vec<Tier> = (0..n.cell_count())
            .map(|i| {
                if i.is_multiple_of(3) {
                    Tier::Top
                } else {
                    Tier::Bottom
                }
            })
            .collect();
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        let config = RouteConfig::default();
        let (r, grid) = route_on_grid(&n, &p, &tiers, &stack, &config);

        // Captured from the router as it was before edge costs were
        // memoised and plans flattened: `powf` per probed edge, one set of
        // `Vec`s per net. Large enough for the parallel planning path and
        // congested enough for the Z-shape pass.
        assert_eq!(result_hash(&r), 0x030f_5432_81c0_49c1);
        assert!(r.nets.iter().any(|net| net.congested));
        assert!(r.total_mivs > 0);

        let k = config.congestion_exponent;
        for (demand, cost, cap) in [
            (&grid.h_demand, &grid.h_cost, grid.h_cap),
            (&grid.v_demand, &grid.v_cost, grid.v_cap),
        ] {
            assert!(demand.iter().any(|&d| d > 0.0));
            for (&d, &c) in demand.iter().zip(cost) {
                assert_eq!(c.to_bits(), (1.0 + d / cap).powf(k).to_bits());
            }
        }
    }
}
