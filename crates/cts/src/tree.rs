use m3d_geom::Point;
use m3d_netlist::{CellClass, CellId, Netlist};
use m3d_place::Placement;
use m3d_tech::{CellKind, Drive, Tier, TierStack};
use std::sync::Arc;

/// CTS parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CtsConfig {
    /// Maximum sinks (or child buffers) per buffer.
    pub max_fanout: usize,
    /// Drive of fast-tier clock buffers.
    pub fast_drive: Drive,
    /// Drive of slow-tier clock buffers in [`CtsMode::Cover3d`] (can be
    /// upsized to trade clock power for latency on the weaker devices).
    pub slow_drive: Drive,
}

impl Default for CtsConfig {
    fn default() -> Self {
        CtsConfig {
            max_fanout: 20,
            fast_drive: Drive::X4,
            slow_drive: Drive::X4,
        }
    }
}

/// Which clock-tree construction the flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtsMode {
    /// Single-die design.
    Flat2d,
    /// Tier-blind tree inherited from the pseudo-3-D stage (Pin-3-D
    /// baseline behavior).
    Legacy3d,
    /// Tier-aware 3-D tree over COVER-cell representation (the paper's
    /// enhancement).
    Cover3d,
}

/// A child of a clock buffer: either another buffer or a clocked sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockChild {
    /// Internal node (index into [`ClockTree::nodes`]).
    Node(usize),
    /// Leaf sink (register or macro clock pin).
    Sink(CellId),
}

/// One buffer of the synthesized tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTreeNode {
    /// Buffer location.
    pub pos: Point,
    /// Tier the buffer is placed on.
    pub tier: Tier,
    /// Buffer drive strength.
    pub drive: Drive,
    /// Children (buffers or sinks).
    pub children: Vec<ClockChild>,
}

/// A synthesized clock tree with per-sink latencies and the Table VIII
/// metric set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    /// Buffers; the last node is the root.
    pub nodes: Vec<ClockTreeNode>,
    /// Index of the root buffer in `nodes`.
    pub root: usize,
    /// Clock arrival latency per netlist cell (0 for unclocked cells), ns:
    /// the one copy, which sign-off clocks share.
    pub sink_latency: Arc<[f64]>,
    /// Total clock wirelength, µm.
    pub wirelength_um: f64,
    /// Total switched capacitance per clock edge (buffers + wire + sink
    /// pins), fF — the input to clock-power analysis.
    pub switched_cap_ff: f64,
    sink_ids: Vec<CellId>,
}

impl ClockTree {
    /// Number of clock buffers.
    #[must_use]
    pub fn buffer_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of clock buffers on `tier`.
    #[must_use]
    pub fn buffer_count_on(&self, tier: Tier) -> usize {
        self.nodes.iter().filter(|n| n.tier == tier).count()
    }

    /// Total buffer area, µm² (each buffer priced in its tier's library).
    #[must_use]
    pub fn buffer_area_um2(&self, stack: &TierStack) -> f64 {
        self.nodes
            .iter()
            .map(|n| {
                stack
                    .library(n.tier)
                    .cell(CellKind::ClkBuf, n.drive)
                    .map_or(0.0, |m| m.area_um2)
            })
            .sum()
    }

    /// Latencies of all sinks, ns.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        self.sink_ids
            .iter()
            .map(|id| self.sink_latency[id.index()])
            .collect()
    }

    /// Maximum insertion delay, ns.
    #[must_use]
    pub fn max_latency_ns(&self) -> f64 {
        self.latencies().into_iter().fold(0.0, f64::max)
    }

    /// Global skew: max − min sink latency, ns.
    #[must_use]
    pub fn max_skew_ns(&self) -> f64 {
        let l = self.latencies();
        let max = l.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = l.iter().copied().fold(f64::INFINITY, f64::min);
        if l.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Skew between two specific sinks (capture − launch), ns.
    #[must_use]
    pub fn pair_skew_ns(&self, launch: CellId, capture: CellId) -> f64 {
        self.sink_latency[capture.index()] - self.sink_latency[launch.index()]
    }
}

/// Synthesizes a clock tree for every clocked cell (registers and macros).
///
/// Top-down recursive bisection builds leaf clusters of at most
/// `max_fanout` sinks; a buffer is placed at each cluster centroid; the
/// buffers are clustered again until one root remains. Latencies are the
/// accumulated buffer NLDM delays plus wire Elmore along each root-to-sink
/// path.
#[must_use]
pub fn synthesize(
    netlist: &Netlist,
    placement: &Placement,
    tiers: &[Tier],
    stack: &TierStack,
    mode: CtsMode,
    config: &CtsConfig,
) -> ClockTree {
    let sinks: Vec<(CellId, Point, Tier)> = netlist
        .cells()
        .filter(|(_, c)| c.is_sequential() || c.class.is_macro())
        .map(|(id, _)| (id, placement.positions[id.index()], tiers[id.index()]))
        .collect();

    let mut nodes: Vec<ClockTreeNode> = Vec::new();

    // --- leaf level ------------------------------------------------------
    let leaf_groups: Vec<Vec<usize>> = match mode {
        CtsMode::Cover3d => {
            // Tier-aware: cluster each tier's sinks separately so a leaf
            // subtree never mixes technologies.
            let mut groups = Vec::new();
            for tier in Tier::BOTH {
                let idx: Vec<usize> = (0..sinks.len()).filter(|&i| sinks[i].2 == tier).collect();
                if !idx.is_empty() {
                    cluster(&idx, &sinks, config.max_fanout, &mut groups);
                }
            }
            groups
        }
        _ => {
            let idx: Vec<usize> = (0..sinks.len()).collect();
            let mut groups = Vec::new();
            if !idx.is_empty() {
                cluster(&idx, &sinks, config.max_fanout, &mut groups);
            }
            groups
        }
    };

    let mut level: Vec<usize> = Vec::new(); // node indices of current level
    for group in &leaf_groups {
        let centroid = centroid_of(group.iter().map(|&i| sinks[i].1));
        let tier = majority_tier(group.iter().map(|&i| sinks[i].2), mode);
        let drive = drive_for(tier, stack, mode, config);
        nodes.push(ClockTreeNode {
            pos: centroid,
            tier,
            drive,
            children: group
                .iter()
                .map(|&i| ClockChild::Sink(sinks[i].0))
                .collect(),
        });
        level.push(nodes.len() - 1);
    }

    // --- upper levels ------------------------------------------------------
    while level.len() > 1 {
        let pts: Vec<(CellId, Point, Tier)> = level
            .iter()
            .map(|&ni| (CellId::from_index(0), nodes[ni].pos, nodes[ni].tier))
            .collect();
        let idx: Vec<usize> = (0..level.len()).collect();
        let mut groups = Vec::new();
        cluster(&idx, &pts, config.max_fanout, &mut groups);
        if groups.len() == level.len() {
            // No reduction possible (degenerate); force a single root group.
            groups = vec![idx];
        }
        let mut next = Vec::new();
        for group in &groups {
            let centroid = centroid_of(group.iter().map(|&i| pts[i].1));
            // Upper tree levels are latency-balanced anyway, so the
            // tier-aware mode keeps them on the low-power (slow) die —
            // one reason the heterogeneous clock is top-tier-heavy and
            // cheaper (Table VIII).
            let tier = if mode == CtsMode::Cover3d && stack.is_heterogeneous() {
                stack.slow_tier()
            } else {
                majority_tier(group.iter().map(|&i| pts[i].2), mode)
            };
            let drive = drive_for(tier, stack, mode, config);
            nodes.push(ClockTreeNode {
                pos: centroid,
                tier,
                drive,
                children: group.iter().map(|&i| ClockChild::Node(level[i])).collect(),
            });
            next.push(nodes.len() - 1);
        }
        level = next;
    }

    let root = level.first().copied().unwrap_or(0);

    // --- latency propagation ---------------------------------------------
    let per_um = stack.metal.estimate_rc_per_um();
    let mut sink_latency = vec![0.0_f64; netlist.cell_count()];
    let mut wirelength = 0.0;
    let mut switched_cap = 0.0;
    if !nodes.is_empty() {
        // Compute each node's load (children caps + wire cap) first.
        let load_of = |node: &ClockTreeNode| -> f64 {
            let mut cap = 0.0;
            for child in &node.children {
                match child {
                    ClockChild::Node(ci) => {
                        // Placeholder: filled during traversal (uses the
                        // child's input cap).
                        let _ = ci;
                    }
                    ClockChild::Sink(_) => {}
                }
            }
            cap += 0.0;
            cap
        };
        let _ = load_of;

        // Iterative DFS from the root with accumulated latency.
        let mut stack_dfs: Vec<(usize, f64)> = vec![(root, 0.0)];
        while let Some((ni, lat)) = stack_dfs.pop() {
            let node = nodes[ni].clone();
            let lib = stack.library(node.tier);
            let master = lib
                .cell(CellKind::ClkBuf, node.drive)
                .expect("clock buffers always characterized");
            switched_cap += master.input_cap_ff;

            // Load on this buffer: children input caps + wire to children.
            let mut load = 0.0;
            let mut wire_total = 0.0;
            for child in &node.children {
                let (cpos, ccap) = match child {
                    ClockChild::Node(ci) => {
                        let cn = &nodes[*ci];
                        let ccap = stack
                            .library(cn.tier)
                            .cell(CellKind::ClkBuf, cn.drive)
                            .map_or(1.0, |m| m.input_cap_ff);
                        (cn.pos, ccap)
                    }
                    ClockChild::Sink(id) => {
                        let cell = netlist.cell(*id);
                        let tier = tiers[id.index()];
                        let ccap = match &cell.class {
                            CellClass::Gate { kind, drive } => stack
                                .library(tier)
                                .cell(*kind, *drive)
                                .map_or(1.0, |m| m.input_cap_ff),
                            CellClass::Macro(spec) => spec.input_cap_ff,
                            _ => 1.0,
                        };
                        (placement.positions[id.index()], ccap)
                    }
                };
                let dist = node.pos.manhattan(cpos);
                wire_total += dist;
                load += ccap + per_um.c_ff * dist;
            }
            wirelength += wire_total;
            switched_cap += per_um.c_ff * wire_total;
            let buf_delay = master.delay(0.05, load);

            for child in &node.children {
                match child {
                    ClockChild::Node(ci) => {
                        let dist = node.pos.manhattan(nodes[*ci].pos);
                        let rc = per_um.r_kohm * dist * (per_um.c_ff * dist) * 0.5 * 1e-3;
                        stack_dfs.push((*ci, lat + buf_delay + rc));
                    }
                    ClockChild::Sink(id) => {
                        let dist = node.pos.manhattan(placement.positions[id.index()]);
                        let rc = per_um.r_kohm * dist * (per_um.c_ff * dist) * 0.5 * 1e-3;
                        sink_latency[id.index()] = lat + buf_delay + rc;
                    }
                }
            }
        }
        // Cover3d skew management (Section III-A2): within each tier,
        // equalize leaf-subtree latencies by wire snaking so that related
        // (same-tier) launch/capture pairs see near-zero skew. Cross-tier
        // skew remains -- exactly the paper's Table VIII signature (large
        // max skew, small 100-path skew).
        if mode == CtsMode::Cover3d {
            let mut tier_max = [0.0_f64; 2];
            for (id, _, tier) in &sinks {
                tier_max[tier.index()] = tier_max[tier.index()].max(sink_latency[id.index()]);
            }
            for node in &nodes {
                // Leaf nodes only: all children are sinks of one tier.
                let sink_children: Vec<CellId> = node
                    .children
                    .iter()
                    .filter_map(|c| match c {
                        ClockChild::Sink(id) => Some(*id),
                        ClockChild::Node(_) => None,
                    })
                    .collect();
                if sink_children.is_empty() {
                    continue;
                }
                let target = tier_max[node.tier.index()];
                let leaf_max = sink_children
                    .iter()
                    .map(|id| sink_latency[id.index()])
                    .fold(0.0_f64, f64::max);
                let pad = (target - leaf_max).max(0.0);
                for id in &sink_children {
                    sink_latency[id.index()] += pad;
                }
                // Padding is realized as a small delay-buffer chain at the
                // leaf (~40 ps per stage): charge its switched capacitance
                // (abutted cells contribute no routed wirelength).
                let pad_stages = (pad / 0.04).ceil();
                switched_cap += pad_stages * 3.0;
            }
        }

        // Sink pin caps switch every cycle too.
        for (id, _, tier) in &sinks {
            let cell = netlist.cell(*id);
            switched_cap += match &cell.class {
                CellClass::Gate { kind, drive } => stack
                    .library(*tier)
                    .cell(*kind, *drive)
                    .map_or(1.0, |m| m.input_cap_ff),
                CellClass::Macro(spec) => spec.input_cap_ff,
                _ => 0.0,
            };
        }
    }

    ClockTree {
        nodes,
        root,
        sink_latency: sink_latency.into(),
        wirelength_um: wirelength,
        switched_cap_ff: switched_cap,
        sink_ids: sinks.iter().map(|(id, _, _)| *id).collect(),
    }
}

/// Recursive median bisection into groups of at most `max_fanout`.
fn cluster(
    idx: &[usize],
    pts: &[(CellId, Point, Tier)],
    max_fanout: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if idx.len() <= max_fanout.max(2) {
        out.push(idx.to_vec());
        return;
    }
    // Split along the longer axis at the median.
    let xs: Vec<f64> = idx.iter().map(|&i| pts[i].1.x).collect();
    let ys: Vec<f64> = idx.iter().map(|&i| pts[i].1.y).collect();
    let span_x = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - xs.iter().copied().fold(f64::INFINITY, f64::min);
    let span_y = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - ys.iter().copied().fold(f64::INFINITY, f64::min);
    let mut sorted = idx.to_vec();
    if span_x >= span_y {
        sorted.sort_by(|&a, &b| {
            pts[a]
                .1
                .x
                .partial_cmp(&pts[b].1.x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    } else {
        sorted.sort_by(|&a, &b| {
            pts[a]
                .1
                .y
                .partial_cmp(&pts[b].1.y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    let mid = sorted.len() / 2;
    cluster(&sorted[..mid], pts, max_fanout, out);
    cluster(&sorted[mid..], pts, max_fanout, out);
}

fn centroid_of(points: impl Iterator<Item = Point>) -> Point {
    let mut sum = Point::ORIGIN;
    let mut count = 0.0;
    for p in points {
        sum += p;
        count += 1.0;
    }
    if count > 0.0 {
        sum / count
    } else {
        Point::ORIGIN
    }
}

fn majority_tier(tiers: impl Iterator<Item = Tier>, mode: CtsMode) -> Tier {
    if mode == CtsMode::Flat2d {
        return Tier::Bottom;
    }
    let mut counts = [0usize; 2];
    for t in tiers {
        counts[t.index()] += 1;
    }
    if counts[1] > counts[0] {
        Tier::Top
    } else {
        Tier::Bottom
    }
}

fn drive_for(tier: Tier, stack: &TierStack, mode: CtsMode, config: &CtsConfig) -> Drive {
    if mode == CtsMode::Cover3d && stack.is_heterogeneous() && tier == stack.slow_tier() {
        config.slow_drive
    } else {
        config.fast_drive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_place::{global_place, Floorplan, PlacerConfig};
    use m3d_tech::Library;

    fn setup(stack: TierStack, split: bool) -> (Netlist, Vec<Tier>, Placement) {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.02, 8);
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        if split {
            // Put ~70 % of registers on the top tier (the hetero outcome).
            let mut count = 0;
            for (id, cell) in n.cells() {
                if cell.is_sequential() {
                    count += 1;
                    if count % 10 < 7 {
                        tiers[id.index()] = Tier::Top;
                    }
                }
            }
        }
        let fp = Floorplan::new(&n, &stack, &tiers, 0.7);
        let p = global_place(&n, &fp, &PlacerConfig::default());
        (n, tiers, p)
    }

    #[test]
    fn flat_tree_covers_all_registers() {
        let stack = TierStack::two_d(Library::twelve_track());
        let (n, tiers, p) = setup(stack.clone(), false);
        let tree = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Flat2d,
            &CtsConfig::default(),
        );
        let regs = n.sequential_cells();
        assert!(!regs.is_empty());
        for r in &regs {
            assert!(
                tree.sink_latency[r.index()] > 0.0,
                "register {r:?} got no clock latency"
            );
        }
        assert!(tree.buffer_count() >= regs.len() / CtsConfig::default().max_fanout);
        assert_eq!(tree.buffer_count_on(Tier::Top), 0);
        assert!(tree.wirelength_um > 0.0);
        assert!(tree.switched_cap_ff > 0.0);
    }

    #[test]
    fn hetero_cover_tree_is_top_heavy() {
        let stack = TierStack::heterogeneous();
        let (n, tiers, p) = setup(stack.clone(), true);
        let tree = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Cover3d,
            &CtsConfig::default(),
        );
        let top = tree.buffer_count_on(Tier::Top);
        let bottom = tree.buffer_count_on(Tier::Bottom);
        // The paper's Table VIII: >75 % of clock buffers on the top die.
        assert!(
            top > 2 * bottom,
            "expected top-heavy clock: top {top} vs bottom {bottom}"
        );
    }

    #[test]
    fn hetero_tree_has_worse_max_latency_than_homogeneous() {
        let hetero = TierStack::heterogeneous();
        let (n, tiers, p) = setup(hetero.clone(), true);
        let tree_h = synthesize(
            &n,
            &p,
            &tiers,
            &hetero,
            CtsMode::Cover3d,
            &CtsConfig::default(),
        );

        let homo = TierStack::homogeneous_3d(Library::twelve_track());
        let tree_12 = synthesize(
            &n,
            &p,
            &tiers,
            &homo,
            CtsMode::Cover3d,
            &CtsConfig::default(),
        );
        assert!(
            tree_h.max_latency_ns() > tree_12.max_latency_ns(),
            "hetero latency {} vs 12T {}",
            tree_h.max_latency_ns(),
            tree_12.max_latency_ns()
        );
    }

    #[test]
    fn cover_mode_controls_related_sink_skew() {
        // Launch/capture pairs connected by real paths should see smaller
        // skew under Cover3d (same-tier subtrees) than under Legacy3d.
        let stack = TierStack::heterogeneous();
        let (n, tiers, p) = setup(stack.clone(), true);
        let cover = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Cover3d,
            &CtsConfig::default(),
        );
        let legacy = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Legacy3d,
            &CtsConfig::default(),
        );

        // Sample register pairs that are physically close AND same-tier
        // (these represent same-block launch/capture pairs).
        let regs = n.sequential_cells();
        let mut cover_skew = 0.0;
        let mut legacy_skew = 0.0;
        let mut pairs = 0;
        for w in regs.windows(2) {
            let (a, b) = (w[0], w[1]);
            if tiers[a.index()] == tiers[b.index()]
                && p.positions[a.index()].distance(p.positions[b.index()]) < p.die.width() * 0.2
            {
                cover_skew += cover.pair_skew_ns(a, b).abs();
                legacy_skew += legacy.pair_skew_ns(a, b).abs();
                pairs += 1;
            }
        }
        assert!(pairs > 5, "not enough pairs sampled");
        assert!(
            cover_skew < legacy_skew * 0.8,
            "cover {cover_skew} vs legacy {legacy_skew} over {pairs} pairs"
        );
    }

    #[test]
    fn buffer_area_prices_tiers_correctly() {
        let stack = TierStack::heterogeneous();
        let (n, tiers, p) = setup(stack.clone(), true);
        let tree = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Cover3d,
            &CtsConfig::default(),
        );
        let area = tree.buffer_area_um2(&stack);
        assert!(area > 0.0);
        // Area is bounded by all-buffers-at-max-size.
        let max_cell = stack
            .library(Tier::Bottom)
            .cell(CellKind::ClkBuf, Drive::X8)
            .unwrap()
            .area_um2;
        assert!(area <= tree.buffer_count() as f64 * max_cell * 1.01);
    }

    #[test]
    fn deterministic() {
        let stack = TierStack::two_d(Library::twelve_track());
        let (n, tiers, p) = setup(stack.clone(), false);
        let a = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Flat2d,
            &CtsConfig::default(),
        );
        let b = synthesize(
            &n,
            &p,
            &tiers,
            &stack,
            CtsMode::Flat2d,
            &CtsConfig::default(),
        );
        assert_eq!(a.sink_latency, b.sink_latency);
        assert_eq!(a.wirelength_um, b.wirelength_um);
    }
}
