//! Property-based tests (proptest) on the core data structures and
//! invariants: partitioning balance & cut accounting, legalization
//! legality, STA monotonicity, LUT interpolation bounds, cost-model
//! monotonicity, geometry algebra, and generator validity across the
//! parameter space.

use hetero3d::cost::CostModel;
use hetero3d::geom::{steiner, BBox, Point, Rect};
use hetero3d::netgen::{generate, BlockSpec, DesignSpec};
use hetero3d::netlist::Netlist;
use hetero3d::partition::{bin_min_cut_with_stats, cut_size, FmStats, PartitionConfig};
use hetero3d::sta::{analyze, ClockSpec, Parasitics, TimingContext};
use hetero3d::tech::{Library, Lut2d, Tier, TierStack};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 2..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hpwl_lower_bounds_rmst(pins in arb_points(12)) {
        let hpwl = steiner::hpwl(&pins);
        let rmst = steiner::rmst(&pins);
        prop_assert!(rmst + 1e-9 >= hpwl, "rmst {rmst} < hpwl {hpwl}");
        // Steiner estimate sits between 2/3 RMST and RMST (or equals HPWL
        // for small nets).
        let est = steiner::steiner_estimate(&pins);
        prop_assert!(est <= rmst + 1e-9);
        prop_assert!(est >= hpwl * 0.5 - 1e-9);
    }

    #[test]
    fn bbox_contains_all_points(pins in arb_points(16)) {
        let bbox: BBox = pins.iter().copied().collect();
        let rect = bbox.to_rect().expect("non-empty");
        for p in &pins {
            prop_assert!(rect.contains(*p));
        }
        prop_assert!((bbox.hpwl() - (rect.width() + rect.height())).abs() < 1e-9);
    }

    #[test]
    fn rect_overlap_is_symmetric_and_bounded(
        a in (-100.0..100.0f64, -100.0..100.0f64, 1.0..50.0f64, 1.0..50.0f64),
        b in (-100.0..100.0f64, -100.0..100.0f64, 1.0..50.0f64, 1.0..50.0f64),
    ) {
        let ra = Rect::with_size(Point::new(a.0, a.1), a.2, a.3);
        let rb = Rect::with_size(Point::new(b.0, b.1), b.2, b.3);
        let ov = ra.overlap_area(&rb);
        prop_assert!((ov - rb.overlap_area(&ra)).abs() < 1e-9);
        prop_assert!(ov <= ra.area().min(rb.area()) + 1e-9);
        prop_assert!(ov >= 0.0);
    }

    #[test]
    fn lut_lookup_stays_within_table_range(
        slew in 0.0001..5.0f64,
        load in 0.01..1000.0f64,
    ) {
        let lut = Lut2d::from_fn(
            vec![0.002, 0.02, 0.2, 2.0],
            vec![0.2, 2.0, 20.0, 200.0],
            |s, l| 0.01 + 3.0 * s + 0.002 * l,
        );
        let v = lut.lookup(slew, load);
        // Clamped bilinear interpolation of a monotone function is
        // bounded by the corner values.
        let lo = lut.lookup(0.002, 0.2);
        let hi = lut.lookup(2.0, 200.0);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{lo} <= {v} <= {hi}");
    }

    #[test]
    fn die_cost_is_monotone_in_area(a in 0.05..10.0f64, factor in 1.01..3.0f64) {
        let m = CostModel::default();
        prop_assert!(m.die_cost(a * factor, false) > m.die_cost(a, false));
        prop_assert!(m.die_cost(a * factor, true) > m.die_cost(a, true));
        // Yield is a probability and decreases with area.
        prop_assert!(m.die_yield_2d(a) <= 1.0);
        prop_assert!(m.die_yield_2d(a * factor) < m.die_yield_2d(a));
    }

    #[test]
    fn generated_netlists_always_validate(
        gates in 30usize..300,
        depth in 2usize..20,
        regs in 4usize..40,
        locality in 0.0..1.0f64,
        seed in 0u64..1000,
    ) {
        let spec = DesignSpec {
            name: "prop".into(),
            primary_inputs: 8,
            primary_outputs: 8,
            blocks: vec![BlockSpec::new("b", gates, depth, regs, locality)],
            srams: vec![],
        };
        let n = generate(&spec, seed);
        prop_assert!(n.validate().is_ok());
        prop_assert!(n.stats().registers == regs);
        // No dangling combinational nets.
        for (_, net) in n.nets() {
            prop_assert!(net.fanout() > 0 || net.is_clock);
        }
    }
}

/// One bin FM run on unit gate areas over a 4 × 4 bin grid, cells hashed
/// around a 100 × 100 die: the cut, the counters and the tiers.
fn bin_fm(n: &Netlist, config: &PartitionConfig) -> (usize, FmStats, Vec<Tier>) {
    let (positions, die) = fm_grid(n);
    let mut tiers = vec![Tier::Bottom; n.cell_count()];
    let (cut, stats) = bin_min_cut_with_stats(
        n,
        &positions,
        die,
        4,
        &unit_areas(n),
        &vec![false; n.cell_count()],
        &mut tiers,
        config,
    );
    (cut, stats, tiers)
}

fn fm_grid(n: &Netlist) -> (Vec<Point>, Rect) {
    let positions = (0..n.cell_count())
        .map(|i| Point::new((i as f64 * 37.3) % 100.0, (i as f64 * 53.7) % 100.0))
        .collect();
    (positions, Rect::new(0.0, 0.0, 100.0, 100.0))
}

fn unit_areas(n: &Netlist) -> Vec<f64> {
    n.cells()
        .map(|(_, c)| if c.class.is_gate() { 1.0 } else { 0.0 })
        .collect()
}

/// Each bin's relative area unbalance under `tiers`, recounted from the
/// tier vector alone.
fn bin_unbalance(n: &Netlist, tiers: &[Tier]) -> Vec<f64> {
    let (positions, die) = fm_grid(n);
    let grid = hetero3d::geom::BinGrid::new(die, 4, 4);
    let areas = unit_areas(n);
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

/// Every bin within the per-bin bound [`bin_min_cut_with_stats`]
/// documents, or exactly as the seeded split left it (FM never moved a
/// cell in or out of it).
fn assert_bins_balanced(n: &Netlist, tiers: &[Tier], seeded: &[Tier], config: &PartitionConfig) {
    let bound = config.balance_tolerance.max(0.05) + 0.25;
    let before = bin_unbalance(n, seeded);
    for (b, (u, seed_u)) in bin_unbalance(n, tiers).into_iter().zip(before).enumerate() {
        prop_assert!(
            u <= bound || u == seed_u,
            "bin {b} unbalance {u} (seeded {seed_u}, bound {bound})"
        );
    }
}

proptest! {
    // Heavier properties with fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fm_partition_respects_balance_and_counts_cut(seed in 0u64..50) {
        let n = hetero3d::netgen::Benchmark::Aes.generate(0.015, seed);
        let config = PartitionConfig { seed, ..Default::default() };
        let (cut, stats, tiers) = bin_fm(&n, &config);
        // Reported cut equals independently recomputed cut.
        prop_assert_eq!(cut, cut_size(&n, &tiers));
        prop_assert_eq!(stats.cut, cut as u64);
        let (_, _, seeded) = bin_fm(&n, &PartitionConfig { passes: 0, ..config.clone() });
        assert_bins_balanced(&n, &tiers, &seeded, &config);
    }

    #[test]
    fn fm_passes_never_increase_cut(seed in 0u64..50, passes in 1usize..6) {
        // Each completed FM pass applies the best prefix of its move
        // sequence (or reverts to the pass's starting partition), so the
        // cut is monotone non-increasing in the pass count — from the
        // seeded partition (`passes = 0`) onwards. This exercises the
        // parallel gain/cut kernels: the invariant must hold at any
        // thread count.
        let n = hetero3d::netgen::Benchmark::Aes.generate(0.015, seed);
        let config = |p: usize| PartitionConfig { seed, passes: p, ..Default::default() };
        let (seed_cut, _, seeded) = bin_fm(&n, &config(0));
        let mut prev = seed_cut;
        for p in 1..=passes {
            let (cut, _, tiers) = bin_fm(&n, &config(p));
            prop_assert!(cut <= prev, "pass {p} raised the cut: {cut} > {prev}");
            prop_assert_eq!(cut, cut_size(&n, &tiers));
            // Balance holds after every prefix of passes, not just the last.
            assert_bins_balanced(&n, &tiers, &seeded, &config(p));
            prev = cut;
        }
    }

    #[test]
    fn fm_is_thread_count_invariant(seed in 0u64..30) {
        // The FM kernels (cut evaluation, per-cell gain seeding) fan out
        // across threads; the partition they produce must be bit-identical
        // to the sequential one.
        let n = hetero3d::netgen::Benchmark::Ldpc.generate(0.02, seed);
        let run = |threads: usize| {
            hetero3d::par::set_threads(threads);
            let run = bin_fm(&n, &PartitionConfig { seed, ..Default::default() });
            hetero3d::par::set_threads(0);
            run
        };
        prop_assert_eq!(run(1), run(4));
    }

    #[test]
    fn sta_arrivals_are_monotone_under_added_wire(seed in 0u64..20) {
        let n = hetero3d::netgen::Benchmark::Netcard.generate(0.01, seed);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let zero = Parasitics::zero_wire(&n);
        let mut wired = Parasitics::zero_wire(&n);
        for id in n.net_ids() {
            wired.net_mut(id).wire_delay_ns = 0.01;
            wired.net_mut(id).wire_cap_ff = 2.0;
        }
        let run = |p: &Parasitics| {
            analyze(&TimingContext {
                netlist: &n,
                stack: &stack,
                tiers: &tiers,
                parasitics: p,
                clock: ClockSpec::with_period(1.0),
            })
        };
        let fast = run(&zero);
        let slow = run(&wired);
        // Adding wire delay/cap can only worsen (or preserve) WNS/TNS.
        prop_assert!(slow.wns <= fast.wns + 1e-9);
        prop_assert!(slow.tns <= fast.tns + 1e-9);
    }
}
