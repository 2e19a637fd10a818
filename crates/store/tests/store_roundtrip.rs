//! Lossless round-trip proof: session artifacts built from the netgen
//! benchmark families survive encode → disk → decode bit-identically,
//! and concurrent handles sharing one directory never observe torn
//! records.

use m3d_flow::{prepare_base, pseudo_checkpoint, BaseDesign, FlowOptions, PseudoCheckpoint};
use m3d_geom::{Point, Rect};
use m3d_netgen::Benchmark;
use m3d_netlist::{NetId, Netlist};
use m3d_place::Placement;
use m3d_sta::{NetModel, Parasitics};
use m3d_store::{SessionArtifact, StackSpec, Store, StoreKey};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory. Rooted at `M3D_STORE_TEST_ROOT` when set
/// (CI points this at an uploadable artifact dir) and the system temp
/// dir otherwise. Not removed on panic, so failures leave the store
/// behind for inspection.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var_os("M3D_STORE_TEST_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    root.join(format!(
        "m3d-store-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn test_key(salt: u64) -> StoreKey {
    StoreKey::new(
        format!("{salt:016x}"),
        format!("{:016x}", salt.rotate_left(17)),
    )
    .expect("hex keys are valid")
}

/// Deterministically decorates a benchmark netlist into a session
/// artifact: placement, parasitics and die all derived from `salt`, so
/// different salts exercise different bit patterns.
fn synth_artifact(netlist: Netlist, spec: StackSpec, salt: u64) -> SessionArtifact {
    let mut mix = salt | 1;
    let mut next = move || {
        // splitmix64: cheap, deterministic, full-period.
        mix = mix.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = mix;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let die = Rect::new(0.0, 0.0, 80.0 + (next() % 64) as f64, 60.0);
    let placement = Placement {
        positions: (0..netlist.cell_count())
            .map(|_| {
                Point::new(
                    (next() % 10_000) as f64 / 125.0,
                    (next() % 10_000) as f64 / 167.0,
                )
            })
            .collect(),
        die,
    };
    let models: Vec<NetModel> = (0..netlist.net_count())
        .map(|_| NetModel {
            wire_cap_ff: (next() % 100_000) as f64 / 1000.0,
            wire_delay_ns: (next() % 10_000) as f64 / 100_000.0,
        })
        .collect();
    let parasitics = Parasitics::from_models(&netlist, models);
    SessionArtifact {
        base: BaseDesign {
            netlist: Arc::new(netlist),
        },
        pseudo: Some(PseudoCheckpoint {
            placement: Arc::new(placement),
            parasitics: Arc::new(parasitics),
            die,
            stack: Arc::new(spec.build()),
        }),
    }
}

#[test]
fn session_artifacts_round_trip_bit_identically() {
    let dir = scratch_dir("session-rt");
    let store = Store::open(&dir).unwrap();
    let netlist = Benchmark::Aes.generate(0.02, 7);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    let base = prepare_base(&netlist, &options).unwrap();
    let pseudo = pseudo_checkpoint(&base, &options).unwrap();
    let artifact = SessionArtifact {
        base: base.clone(),
        pseudo: Some(pseudo.clone()),
    };
    let key = test_key(2);
    store.put_session(&key, &artifact).unwrap();
    let back = store.get_session(&key).unwrap().expect("hit after put");

    assert_eq!(back.base.netlist.name, base.netlist.name);
    assert_eq!(back.base.netlist.cell_count(), base.netlist.cell_count());
    for id in base.netlist.cell_ids() {
        assert_eq!(back.base.netlist.cell(id), base.netlist.cell(id));
    }
    let bp = back.pseudo.expect("pseudo persisted");
    assert_eq!(bp.die, pseudo.die);
    assert_eq!(
        bp.placement.positions.len(),
        pseudo.placement.positions.len()
    );
    for (a, b) in bp
        .placement
        .positions
        .iter()
        .zip(pseudo.placement.positions.iter())
    {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
    }
    for k in 0..pseudo.parasitics.len() {
        let (a, b) = (
            bp.parasitics.net(NetId::from_index(k)),
            pseudo.parasitics.net(NetId::from_index(k)),
        );
        assert_eq!(a.wire_cap_ff.to_bits(), b.wire_cap_ff.to_bits());
        assert_eq!(a.wire_delay_ns.to_bits(), b.wire_delay_ns.to_bits());
    }
    assert!(
        !bp.stack.is_3d(),
        "pseudo stack is the canonical flat 12-track"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reader racing writers over one directory gets either a miss or a
/// complete, verified record — never a torn one. Two handles alternate
/// between two distinct artifacts under one key while readers hammer it;
/// every successful get must re-encode to the bytes of one of the two.
#[test]
fn racing_handles_never_observe_torn_records() {
    let dir = scratch_dir("race");
    let art_a = synth_artifact(Benchmark::Cpu.generate(0.008, 1), StackSpec::TwoD12, 11);
    let art_b = synth_artifact(Benchmark::Ldpc.generate(0.008, 2), StackSpec::Hetero, 22);
    let bytes_a = art_a.encode().unwrap();
    let bytes_b = art_b.encode().unwrap();
    let key = test_key(3);
    // Seed the key so readers racing the first commit still see data.
    Store::open(&dir)
        .unwrap()
        .put_session(&key, &art_a)
        .unwrap();

    std::thread::scope(|scope| {
        for artifacts in [[&art_a, &art_b], [&art_b, &art_a]] {
            let dir = &dir;
            let key = &key;
            scope.spawn(move || {
                let store = Store::open(dir).unwrap();
                for _ in 0..40 {
                    for artifact in artifacts {
                        store.put_session(key, artifact).unwrap();
                    }
                }
            });
        }
        for _ in 0..2 {
            let (dir, key) = (&dir, &key);
            let (bytes_a, bytes_b) = (&bytes_a, &bytes_b);
            scope.spawn(move || {
                let store = Store::open(dir).unwrap();
                let mut observed = 0u32;
                for _ in 0..200 {
                    match store.get_session(key) {
                        Ok(Some(artifact)) => {
                            let bytes = artifact.encode().unwrap();
                            assert!(
                                &bytes == bytes_a || &bytes == bytes_b,
                                "reader observed a record equal to neither artifact"
                            );
                            observed += 1;
                        }
                        Ok(None) => {}
                        Err(e) => panic!("reader hit {e} racing atomic writers"),
                    }
                }
                assert!(observed > 0, "reader never saw a committed record");
            });
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
