#![recursion_limit = "1024"]
//! Equivalence proof for the flat [`Topology`] view: on every generator
//! family — the four paper benchmarks *and* the synthetic scale family —
//! the flat accessors must agree with an independent derivation entry
//! for entry, **in the same iteration order**, and the two must produce
//! the same connectivity fingerprint. Iteration order is part of the
//! workspace's determinism contract: a kernel that reads CSR slices may
//! not move a single bit.
//!
//! The topology shares the netlist's pin array and name arena, so
//! comparing those against the netlist would compare one array with
//! itself. The independent path is the *net side*: every cell's pin
//! slots are rebuilt from the nets' own driver and sink lists (laid out
//! by each cell's pin counts, not the pin array's offsets), and the
//! topology's CSR sink arrays are held against the per-net lists, and
//! its Kahn order against a walk over the per-net lists.
//!
//! The levelization memo ([`Netlist::levels`]) rides along: clones and
//! sizing share it, and every structural edit leaves a fresh memo equal
//! to a fresh levelization.

use m3d_geom::Point;
use m3d_netgen::{scale_netlist, Benchmark};
use m3d_netlist::{CellId, Levels, MacroSpec, NetId, Netlist, PinRef, Topology, NO_NET};
use m3d_tech::{CellKind, Drive};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// FNV-1a over a connectivity walk. The walk is written once and fed by
/// either path, so any ordering or content difference changes the hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Every cell's pin slots (inputs, then outputs), rebuilt from the nets'
/// driver and sink lists alone.
fn slots_from_nets(n: &Netlist) -> Vec<Vec<u32>> {
    let mut slots: Vec<Vec<u32>> = n
        .cells()
        .map(|(_, c)| vec![NO_NET; c.input_count() + c.output_count()])
        .collect();
    for (id, net) in n.nets() {
        if let Some(d) = net.driver {
            let c = n.cell(d.cell);
            slots[d.cell.index()][c.input_count() + usize::from(d.pin)] = id.index() as u32;
        }
        for s in &net.sinks {
            slots[s.cell.index()][usize::from(s.pin)] = id.index() as u32;
        }
    }
    slots
}

/// Connectivity fingerprint from the **net side**.
fn net_side_fingerprint(n: &Netlist) -> u64 {
    let mut h = Fnv::new();
    for cell in slots_from_nets(n) {
        for raw in cell {
            h.eat(if raw == NO_NET {
                u64::MAX
            } else {
                u64::from(raw)
            });
        }
    }
    for (_, net) in n.nets() {
        h.eat(net.driver.map_or(u64::MAX, |p| p.cell.index() as u64));
        for s in &net.sinks {
            h.eat(s.cell.index() as u64);
            h.eat(u64::from(s.pin));
        }
        h.eat(u64::from(net.is_clock));
    }
    h.0
}

/// The same walk from the **flat** view.
fn topo_fingerprint(n: &Netlist, t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for id in n.cell_ids() {
        for &raw in t.cell_pins(id) {
            h.eat(if raw == NO_NET {
                u64::MAX
            } else {
                u64::from(raw)
            });
        }
    }
    for id in n.net_ids() {
        h.eat(t.driver(id).map_or(u64::MAX, |p| p.cell.index() as u64));
        for (&c, &p) in t.sink_cells(id).iter().zip(t.sink_pins(id)) {
            h.eat(u64::from(c));
            h.eat(u64::from(p));
        }
        h.eat(u64::from(t.is_clock(id)));
    }
    h.0
}

/// Kahn's algorithm over the per-net driver and sink lists alone — the
/// oracle for [`Topology::combinational_order`]: ready queue seeded in
/// ascending cell index, successors released in output-pin, then sink
/// order.
fn kahn_over_nets(n: &Netlist) -> Vec<CellId> {
    let is_comb = |id: CellId| {
        let c = n.cell(id);
        c.class.is_gate() && !c.is_sequential()
    };
    let mut indegree: Vec<usize> = n
        .cell_ids()
        .map(|id| {
            let drivers = n.input_nets(id).filter_map(|net| n.net(net).driver);
            if is_comb(id) {
                drivers.filter(|d| is_comb(d.cell)).count()
            } else {
                0
            }
        })
        .collect();
    let mut queue: VecDeque<CellId> = n
        .cell_ids()
        .filter(|&id| is_comb(id) && indegree[id.index()] == 0)
        .collect();
    let mut order = Vec::new();
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for net in n.output_nets(id) {
            for sink in n.net(net).sinks.iter().filter(|s| is_comb(s.cell)) {
                indegree[sink.cell.index()] -= 1;
                if indegree[sink.cell.index()] == 0 {
                    queue.push_back(sink.cell);
                }
            }
        }
    }
    order
}

/// Full element-wise agreement between the two paths, iteration order
/// included.
fn assert_views_agree(n: &Netlist) {
    let t = n.topology();
    assert_eq!(t.cell_count(), n.cell_count());
    assert_eq!(t.net_count(), n.net_count());

    let expected = slots_from_nets(n);
    let mut arena = 0usize;
    for id in n.cell_ids() {
        let name = n.cell_name(id);
        assert_eq!(t.cell_name(id), name, "cell name");
        arena += name.len();
        let c = n.cell(id);
        let want = &expected[id.index()];
        assert_eq!(t.cell_pins(id), &want[..], "pin slots of {name}");
        assert_eq!(
            t.cell_inputs(id),
            &want[..c.input_count()],
            "inputs of {name}"
        );
        assert_eq!(
            t.cell_outputs(id),
            &want[c.input_count()..],
            "outputs of {name}"
        );
        for (pin, &raw) in want[..c.input_count()].iter().enumerate() {
            let net = (raw != NO_NET).then(|| NetId::from_index(raw as usize));
            assert_eq!(t.input_net(id, pin), net, "input {pin} of {name}");
        }
    }
    for id in n.net_ids() {
        let net = n.net(id);
        let name = n.net_name(id);
        assert_eq!(t.net_name(id), name, "net name");
        arena += name.len();
        assert_eq!(t.driver(id), net.driver, "driver of {name}");
        let sinks: Vec<PinRef> = t.sinks(id).collect();
        assert_eq!(sinks, net.sinks, "sink order of {name}");
        assert_eq!(t.fanout(id), net.fanout());
        assert_eq!(t.degree(id), net.degree());
        assert_eq!(t.is_clock(id), net.is_clock);
    }
    assert_eq!(t.name_arena_bytes(), arena, "arena holds exactly the names");
    assert_eq!(
        t.pin_count(),
        expected.iter().map(Vec::len).sum::<usize>(),
        "pin array holds exactly the cells' slots"
    );

    assert_eq!(
        t.combinational_order()
            .expect("generated designs are acyclic"),
        kahn_over_nets(n),
        "Kahn order must be reproduced bit for bit"
    );

    assert_eq!(
        net_side_fingerprint(n),
        topo_fingerprint(n, &t),
        "connectivity fingerprints diverge between the paths"
    );
}

/// One structural edit: a preparation (run before the memo is read)
/// and the edit under test.
type Edit<'a> = (&'a str, &'a dyn Fn(&mut Netlist), &'a dyn Fn(&mut Netlist));

/// The memo across every edit that may change a levelization: a clone,
/// a resize and an empty batch share it; each structural edit leaves the
/// netlist a fresh memo equal to a fresh levelization, and the netlist it
/// was cloned from its own.
fn assert_memo_follows_edits(n: &Netlist) {
    let memo = n.levels();
    assert_eq!(*memo, Levels::build(&n.topology()), "memo = fresh build");
    let mut kept = n.clone();
    let gate = kept
        .cell_ids()
        .find(|&id| kept.cell(id).class.is_gate())
        .expect("a gate");
    kept.set_drive(gate, Drive::X8);
    kept.connect_all(&[]);
    assert!(Arc::ptr_eq(&kept.levels(), &memo), "sizing keeps the memo");

    let net = n
        .net_ids()
        .find(|&id| !n.net(id).is_clock && n.net(id).fanout() > 1)
        .expect("a net with fanout");
    let last = *n.net(net).sinks.last().expect("a sink");
    let fanout = n.net(net).fanout();
    let unhook = |m: &mut Netlist| drop(m.detach_sinks(net, fanout - 1));
    let newest = |m: &Netlist| CellId::from_index(m.cell_count() - 1);
    let spec = MacroSpec {
        width_um: 10.0,
        height_um: 10.0,
        input_cap_ff: 1.0,
        access_delay_ns: 0.1,
        setup_ns: 0.05,
        leakage_uw: 1.0,
        internal_energy_fj: 1.0,
    };
    let edits: [Edit; 10] = [
        ("add_gate", &|_| {}, &|m| {
            let _ = m.add_gate("memo_g", CellKind::Inv, Drive::X1, 0);
        }),
        ("add_macro", &|_| {}, &|m| {
            let _ = m.add_macro("memo_m", spec.clone(), 1, 1, 0);
        }),
        ("add_input", &|_| {}, &|m| {
            let _ = m.add_input("memo_i");
        }),
        ("add_output", &|_| {}, &|m| {
            let _ = m.add_output("memo_o");
        }),
        (
            "add_net",
            &|m| {
                let _ = m.add_input("memo_src");
            },
            &|m| {
                let _ = m.add_net("memo_n", newest(m), 0);
            },
        ),
        ("connect", &unhook, &|m| m.connect(net, last.cell, last.pin)),
        ("connect_all", &unhook, &|m| {
            m.connect_all(&[(net, last.cell, last.pin)])
        }),
        ("detach_sinks", &|_| {}, &|m| drop(m.detach_sinks(net, 0))),
        ("set_clock", &|_| {}, &|m| {
            m.set_clock(m.clock().unwrap_or(net))
        }),
        ("insert_buffers", &|_| {}, &|m| {
            let mut positions = vec![Point::ORIGIN; m.cell_count()];
            drop(m3d_opt::insert_buffers(m, &mut positions, 2));
        }),
    ];
    for (what, prepare, edit) in edits {
        let mut edited = n.clone();
        prepare(&mut edited);
        let before = edited.levels();
        edit(&mut edited);
        let after = edited.levels();
        assert!(!Arc::ptr_eq(&after, &before), "{what}: a fresh memo");
        assert_eq!(*after, Levels::build(&edited.topology()), "{what}");
        assert!(
            Arc::ptr_eq(&n.levels(), &memo),
            "{what}: the original keeps its memo"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Every paper benchmark, at randomized scale and seed.
    #[test]
    fn benchmark_families_agree(case in (0usize..4, 0.01f64..0.06, 0u64..1000)) {
        let (family, scale, seed) = case;
        let n = Benchmark::ALL[family].generate(scale, seed);
        n.validate().expect("generated netlists validate");
        assert_views_agree(&n);
        assert_memo_follows_edits(&n);
    }

    // The synthetic scale family, at randomized target and seed.
    #[test]
    fn scale_family_agrees(case in (2_000usize..12_000, 0u64..1000)) {
        let (target, seed) = case;
        let n = scale_netlist(target, seed);
        n.validate().expect("scale netlists validate");
        assert_views_agree(&n);
        assert_memo_follows_edits(&n);
    }
}

/// One deterministic big datapoint beyond proptest's comfortable size:
/// the smallest ladder rung of the throughput bench.
#[test]
fn ladder_rung_agrees_at_one_hundred_thousand_cells() {
    let n = scale_netlist(100_000, 7);
    assert!(n.cell_count() >= 100_000, "rung must clear 100k cells");
    assert_views_agree(&n);
}
