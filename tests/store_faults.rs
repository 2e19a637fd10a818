//! Fault injection against the persistent checkpoint store (tier-1).
//!
//! The store's contract under arbitrary disk damage: every injected
//! fault — any single-bit flip, truncation at any point, a wrong
//! version or kind byte, an oversized length field, a torn final file —
//! is answered with a typed [`StoreError`], never a panic, never an
//! oversized allocation, and never a silently wrong checkpoint. The
//! damaged record is evicted as it is reported, so the following lookup
//! is a clean miss and one `put` rebuilds the key bit-exactly.

use hetero3d::flow::{BaseDesign, PseudoCheckpoint};
use hetero3d::geom::{Point, Rect};
use hetero3d::place::Placement;
use hetero3d::sta::{NetModel, Parasitics};
use m3d_netlist::Netlist;
use m3d_store::{
    crc32, Corruption, SessionArtifact, StackSpec, Store, StoreError, StoreKey, FORMAT_VERSION,
};
use m3d_tech::{CellKind, Drive};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory, rooted at `M3D_STORE_TEST_ROOT` when set
/// (CI uploads that root as an artifact on failure). Not removed on
/// panic so a failing run leaves the damaged store behind.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var_os("M3D_STORE_TEST_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    root.join(format!(
        "m3d-faults-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deliberately tiny session artifact — the record kind the service
/// spills and rehydrates: a valid four-cell inverter chain with its
/// pseudo-3-D checkpoint — so the *exhaustive* bit-flip sweep stays
/// cheap (the record is a few hundred bytes; every byte still goes
/// through the same envelope and decoder paths as a full design, which
/// `crates/store/tests` exercises at scale).
fn small_artifact() -> SessionArtifact {
    let mut n = Netlist::new("fault-probe");
    let a = n.add_input("a");
    let g1 = n.add_gate("g1", CellKind::Inv, Drive::X1, 0);
    let g2 = n.add_gate("g2", CellKind::Inv, Drive::X2, 0);
    let y = n.add_output("y");
    let na = n.add_net("na", a, 0);
    let n1 = n.add_net("n1", g1, 0);
    let n2 = n.add_net("n2", g2, 0);
    n.connect(na, g1, 0);
    n.connect(n1, g2, 0);
    n.connect(n2, y, 0);
    let die = Rect::new(0.0, 0.0, 4.0, 2.0);
    let placement = Placement {
        positions: (0..n.cell_count())
            .map(|i| Point::new(i as f64 + 0.5, 1.0))
            .collect(),
        die,
    };
    let models = (0..n.net_count())
        .map(|k| NetModel {
            wire_cap_ff: 0.5 + k as f64,
            wire_delay_ns: 0.001 * (k + 1) as f64,
        })
        .collect();
    let parasitics = Parasitics::from_models(&n, models);
    SessionArtifact {
        base: BaseDesign {
            netlist: Arc::new(n),
        },
        pseudo: Some(PseudoCheckpoint {
            placement: Arc::new(placement),
            parasitics: Arc::new(parasitics),
            die,
            stack: Arc::new(StackSpec::TwoD12.build()),
        }),
    }
}

/// An artifact's identity for these tests: its encoded payload, so "the
/// exact snapshot" means every persisted bit.
fn payload(artifact: &SessionArtifact) -> Vec<u8> {
    artifact.encode().expect("preset stacks encode")
}

fn key() -> StoreKey {
    StoreKey::new("00c0ffee00c0ffee", "0123456789abcdef").unwrap()
}

/// The one on-disk record in `dir` (ignoring `.tmp-*` leftovers).
fn record_path(dir: &Path) -> PathBuf {
    let mut records: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            !p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
        })
        .collect();
    assert_eq!(records.len(), 1, "expected exactly one record in {dir:?}");
    records.pop().unwrap()
}

/// Asserts one injected fault is handled per contract: `get_session`
/// returns a typed corruption error (no panic), the record is gone, the
/// next lookup is a clean miss, and a rebuild restores the original
/// bytes.
fn assert_fault_contained(store: &Store, original: &SessionArtifact, what: &str) {
    match store.get_session(&key()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("{what}: expected a typed corruption error, got {other:?}"),
    }
    assert!(
        store
            .get_session(&key())
            .expect("post-eviction lookup")
            .is_none(),
        "{what}: the evicted record must read as a clean miss"
    );
    store.put_session(&key(), original).expect("rebuild");
    let rebuilt = store
        .get_session(&key())
        .expect("rebuilt read")
        .expect("rebuilt hit");
    assert_eq!(
        payload(&rebuilt),
        payload(original),
        "{what}: rebuild must restore the exact snapshot"
    );
}

#[test]
fn every_single_bit_flip_is_detected_and_contained() {
    let dir = scratch_dir("bitflip");
    let store = Store::open(&dir).unwrap();
    let artifact = small_artifact();
    store.put_session(&key(), &artifact).unwrap();
    let path = record_path(&dir);
    let pristine = std::fs::read(&path).unwrap();

    let mut faults = 0u64;
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut damaged = pristine.clone();
            damaged[byte] ^= 1 << bit;
            std::fs::write(&path, &damaged).unwrap();
            match store.get_session(&key()) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip byte {byte} bit {bit}: got {other:?}"),
            }
            assert!(
                store
                    .get_session(&key())
                    .expect("miss after eviction")
                    .is_none(),
                "flip byte {byte} bit {bit}: eviction must leave a miss"
            );
            // Re-seed for the next flip.
            std::fs::write(&path, &pristine).unwrap();
            faults += 1;
        }
    }
    assert_eq!(faults, pristine.len() as u64 * 8);
    // The restored pristine bytes still verify and decode.
    let back = store.get_session(&key()).unwrap().expect("pristine record");
    assert_eq!(payload(&back), payload(&artifact));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_at_every_eighth_boundary_is_contained() {
    let dir = scratch_dir("truncate");
    let store = Store::open(&dir).unwrap();
    let artifact = small_artifact();
    store.put_session(&key(), &artifact).unwrap();
    let path = record_path(&dir);
    let pristine = std::fs::read(&path).unwrap();

    for eighth in 0..8 {
        let cut = pristine.len() * eighth / 8;
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert_fault_contained(&store, &artifact, &format!("truncated to {cut} bytes"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_version_and_wrong_kind_are_rejected_with_valid_checksums() {
    let dir = scratch_dir("version");
    let store = Store::open(&dir).unwrap();
    let artifact = small_artifact();
    store.put_session(&key(), &artifact).unwrap();
    let path = record_path(&dir);
    let pristine = std::fs::read(&path).unwrap();

    // A future format version with a *recomputed* (valid) CRC: only the
    // version check can refuse it.
    let mut future = pristine.clone();
    future[4] = FORMAT_VERSION + 1;
    reseal(&mut future);
    std::fs::write(&path, &future).unwrap();
    assert_fault_contained(&store, &artifact, "future format version");

    // A record of another kind (1, the retired db snapshot) under the
    // session file name, CRC resealed: the kind byte must refuse it even
    // though the envelope is self-consistent.
    let mut other_kind = pristine.clone();
    other_kind[5] = 1;
    reseal(&mut other_kind);
    std::fs::write(&path, &other_kind).unwrap();
    match store.get_session(&key()) {
        Err(StoreError::Corrupt {
            detail: Corruption::WrongKind { found: 1, .. },
            ..
        }) => {}
        other => panic!("kind mismatch: expected a wrong-kind error, got {other:?}"),
    }
    assert!(!path.exists(), "the mismatched record is evicted");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_length_fields_never_allocate() {
    let dir = scratch_dir("lengths");
    let store = Store::open(&dir).unwrap();
    let artifact = small_artifact();
    store.put_session(&key(), &artifact).unwrap();
    let path = record_path(&dir);
    let pristine = std::fs::read(&path).unwrap();

    // Envelope-level: a payload length claiming ~16 EiB, CRC resealed.
    // The length/actual cross-check must refuse it before any payload
    // work happens.
    let mut huge = pristine.clone();
    huge[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut huge);
    std::fs::write(&path, &huge).unwrap();
    assert_fault_contained(&store, &artifact, "oversized envelope length");

    // Payload-level: the first payload field is the netlist name's
    // length prefix. Claim u64::MAX with a resealed CRC — the decoder
    // must bound the claim against the remaining bytes *before*
    // allocating (an unchecked `with_capacity` here would abort the
    // process, which no test could observe as a failure).
    let mut lying = pristine.clone();
    lying[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut lying);
    std::fs::write(&path, &lying).unwrap();
    assert_fault_contained(&store, &artifact, "oversized payload length");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_writes_and_stale_tmp_files_are_invisible_or_contained() {
    let dir = scratch_dir("torn");
    let store = Store::open(&dir).unwrap();
    let artifact = small_artifact();

    // A stale tmp file from a crashed writer is never read: lookups
    // miss cleanly right past it.
    std::fs::write(dir.join(".tmp-99999-0-junk.session"), b"half a record").unwrap();
    assert!(store.get_session(&key()).unwrap().is_none());

    // A torn *final* file — as a non-atomic writer would leave — is
    // detected, evicted and rebuilt. (The store's own commit protocol
    // makes this unreachable; the simulation proves the reader would
    // survive it anyway.)
    store.put_session(&key(), &artifact).unwrap();
    let path = record_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    std::fs::write(&path, &pristine[..pristine.len() * 2 / 3]).unwrap();
    assert_fault_contained(&store, &artifact, "torn final file");

    // An empty final file is the degenerate torn write.
    std::fs::write(&path, b"").unwrap();
    assert_fault_contained(&store, &artifact, "empty final file");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recomputes the CRC trailer after deliberate header/payload edits, so
/// a test reaches the check it targets instead of tripping the
/// checksum first.
fn reseal(record: &mut [u8]) {
    let body = record.len() - 4;
    let crc = crc32(&record[..body]);
    record[body..].copy_from_slice(&crc.to_le_bytes());
}
