//! Pins what a netlist *means* to constants captured before its storage
//! layout changed: content fingerprints, the structural-Verilog text, the
//! persisted session record and every key derived from them. A layout
//! change (boxed macro specs, one name arena, flat pins) may move bytes
//! in memory but not one bit of anything written, hashed or keyed.
//!
//! The same holds for what the kernels derive from a netlist's
//! connectivity: its levelization, the global placement and the bin-based
//! FM partition are pinned too, so moving where that connectivity is read
//! from cannot move a result.

use hetero3d::db::{fingerprint_hex, netlist_fingerprint};
use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec,
    Proto,
};
use hetero3d::netgen::{scale_netlist, Benchmark};
use hetero3d::netlist::{verilog, Netlist};
use hetero3d::partition::{bin_min_cut_with_stats, FmStats, PartitionConfig};
use hetero3d::place::{global_place, Floorplan, PlacerConfig};
use hetero3d::serve::{route_key, SessionKey};
use hetero3d::tech::{Library, Tier, TierStack};
use m3d_store::{SessionArtifact, FORMAT_VERSION};

/// FNV-1a, 64-bit: a stable digest of output text and record bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over a stream of words, each fed as its 8 little-endian bytes.
#[derive(Default)]
struct Words(Vec<u8>);

impl Words {
    fn eat(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.0.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn digest(&self) -> u64 {
        fnv(&self.0)
    }
}

/// The two netlists the kernel pins are taken on.
fn pinned_netlists() -> [(&'static str, Netlist); 2] {
    [
        ("AES@0.05 seed 7", Benchmark::Aes.generate(0.05, 7)),
        ("scale_netlist(20_000, 9)", scale_netlist(20_000, 9)),
    ]
}

/// Digest of a levelization: the order, the per-gate arc slices and the
/// per-net sink slices.
fn levels_digest(n: &Netlist) -> u64 {
    let levels = n.levels();
    let mut h = Words::default();
    h.eat(levels.order().iter().map(|c| c.index() as u64));
    h.eat((0..levels.level_count()).map(|l| levels.level_range(l).end as u64));
    for k in 0..levels.comb_count() {
        let (pins, drivers) = levels.arcs(k);
        h.eat([levels.arc_range(k).end as u64]);
        h.eat(pins.iter().map(|&p| u64::from(p)));
        h.eat(drivers.iter().map(|&d| u64::from(d)));
    }
    for net in n.net_ids() {
        let (cells, arcs) = levels.sinks(net);
        h.eat([cells.len() as u64]);
        h.eat(cells.iter().map(|&c| u64::from(c)));
        h.eat(arcs.iter().map(|&a| u64::from(a)));
    }
    h.digest()
}

#[test]
fn levelization_is_pinned() {
    let got = pinned_netlists().map(|(what, n)| (what, levels_digest(&n)));
    let want = [
        ("AES@0.05 seed 7", 0xa640_2b00_aaf3_ff88u64),
        ("scale_netlist(20_000, 9)", 0x4f4c_fa34_8b71_e8c2),
    ];
    assert_eq!(got, want, "levels: {got:#x?}");
}

/// Pins the global placement and, from it, the bin-based FM partition —
/// the two kernels that read the netlist's net↔cell incidence.
#[test]
fn placement_and_partition_are_pinned() {
    let got = pinned_netlists().map(|(what, n)| {
        let stack = TierStack::two_d(Library::twelve_track());
        let fp = Floorplan::new(&n, &stack, &vec![Tier::Bottom; n.cell_count()], 0.7);
        let placement = global_place(&n, &fp, &PlacerConfig::default());
        let mut h = Words::default();
        h.eat(
            placement
                .positions
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
        );
        let positions = h.digest();

        let areas: Vec<f64> = n
            .cells()
            .map(|(_, c)| if c.class.is_gate() { 1.0 } else { 0.0 })
            .collect();
        // Every eleventh gate is locked to the top tier.
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        let mut locked = vec![false; n.cell_count()];
        for (id, c) in n.cells() {
            if c.class.is_gate() && id.index() % 11 == 0 {
                locked[id.index()] = true;
                tiers[id.index()] = Tier::Top;
            }
        }
        let (cut, stats) = bin_min_cut_with_stats(
            &n,
            &placement.positions,
            fp.die,
            8,
            &areas,
            &locked,
            &mut tiers,
            &PartitionConfig::default(),
        );
        assert_eq!(cut as u64, stats.cut);
        let mut h = Words::default();
        h.eat(tiers.iter().map(|t| t.index() as u64));
        (what, positions, h.digest(), stats)
    });
    let want = [
        (
            "AES@0.05 seed 7",
            0x9d86_7680_3f68_f653u64,
            0xdd5e_f59f_ccb1_aa25u64,
            fm_stats(3, 463, 234, 220),
        ),
        (
            "scale_netlist(20_000, 9)",
            0x9b0c_0b06_0e29_de35,
            0x1274_cc7f_709f_6065,
            fm_stats(6, 26_728, 13_283, 4_908),
        ),
    ];
    assert_eq!(got, want, "(positions, tiers, stats): {got:#x?}");
}

fn fm_stats(passes: u64, moves: u64, kept: u64, cut: u64) -> FmStats {
    FmStats {
        passes,
        moves,
        kept,
        cut,
    }
}

#[test]
fn paper_and_scale_netlist_fingerprints_are_pinned() {
    let want = [
        (Benchmark::Aes, 0x3c4a_6ef5_9e56_a7f3u64),
        (Benchmark::Ldpc, 0xe68f_568d_fbeb_0884),
        (Benchmark::Netcard, 0x6780_d336_b871_9338),
        (Benchmark::Cpu, 0x1ad7_6e2e_01f5_dc54),
    ];
    for (bench, fp) in want {
        let got = netlist_fingerprint(&bench.generate(0.05, 7));
        assert_eq!(got, fp, "{bench:?}@0.05 seed 7: {got:#018x}");
    }
    let got = netlist_fingerprint(&scale_netlist(20_000, 9));
    assert_eq!(
        got, 0x19cc_d824_2d49_017e,
        "scale_netlist(20_000, 9): {got:#018x}"
    );
}

#[test]
fn verilog_text_is_pinned() {
    let text = verilog::write(&Benchmark::Aes.generate(0.05, 7));
    let got = (text.len(), fnv(text.as_bytes()));
    assert_eq!(
        got,
        (71_662, 0x13c5_8d7f_97ee_f37e),
        "AES@0.05 Verilog: {got:?}"
    );
}

#[test]
fn session_record_bytes_and_keys_are_pinned() {
    assert_eq!(FORMAT_VERSION, 1);
    // CPU carries SRAM macros; a low fanout cap makes `insert_buffers`
    // split nets, so the record holds appended cells, nets and names.
    let netlist = Benchmark::Cpu.generate(0.02, 3);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    options.max_fanout = 6;
    let key = SessionKey::of(&netlist, &options);
    assert_eq!(
        (key.netlist_fp.as_str(), key.options_fp.as_str()),
        ("05dc3960dd05019a", "5b39d8352210ece6"),
        "session key"
    );
    let request = FlowRequest {
        id: 1,
        netlist: NetlistSpec {
            benchmark: Benchmark::Cpu,
            scale: 0.02,
            seed: 3,
        },
        options: options.clone(),
        command: FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
        deadline_ms: None,
        proto: Proto::V1,
    };
    assert_eq!(
        route_key(&request),
        "Cpu|3f947ae147ae147b|3|5b39d8352210ece6",
        "route key"
    );

    let base = prepare_base(&netlist, &options).expect("valid netlist");
    assert_eq!(base.netlist.cell_count(), 548, "buffering adds 29 cells");
    assert_eq!(
        fingerprint_hex(netlist_fingerprint(&base.netlist)),
        "bcd1524e09cb78e3",
        "buffered base fingerprint"
    );
    let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo-3-D checkpoint");
    let record = SessionArtifact {
        base,
        pseudo: Some(pseudo),
    }
    .encode()
    .expect("preset stack");
    let got = (record.len(), fnv(&record));
    assert_eq!(
        got,
        (78_274, 0xb276_70c3_9637_d7f1),
        "session record: {got:?}"
    );
    let decoded = SessionArtifact::decode(&record).expect("round trip");
    assert_eq!(decoded.encode().expect("re-encodes"), record);
}
