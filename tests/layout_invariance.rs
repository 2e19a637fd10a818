//! Pins what a netlist *means* to constants captured before its storage
//! layout changed: content fingerprints, the structural-Verilog text, the
//! persisted session record and every key derived from them. A layout
//! change (boxed macro specs, one name arena, flat pins) may move bytes
//! in memory but not one bit of anything written, hashed or keyed.

use hetero3d::db::{fingerprint_hex, netlist_fingerprint};
use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec,
    Proto,
};
use hetero3d::netgen::{scale_netlist, Benchmark};
use hetero3d::netlist::verilog;
use hetero3d::serve::{route_key, SessionKey};
use m3d_store::{SessionArtifact, FORMAT_VERSION};

/// FNV-1a, 64-bit: a stable digest of output text and record bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
