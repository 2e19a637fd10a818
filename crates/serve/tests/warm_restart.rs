//! Warm-restart proof over real TCP: a server backed by a persistent
//! store answers a request, is shut down completely, and a *fresh*
//! server over the same store directory answers the repeated request
//! byte-for-byte identically — from disk, without re-running the
//! pseudo-3-D stage. Also covers the corruption path: a damaged record
//! is evicted, the request is still answered (cold), and the store is
//! repaired by the write-through; a record that cannot be read at all
//! is a plain store miss, never a corrupt eviction. And key continuity: a record filed
//! under the whole-options fingerprint (the scheme before records were
//! keyed by the pseudo read-set) is never asked for, and one record
//! rehydrates every option variant of its netlist.

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{
    encode_line, Client, Response, ServerConfig, SessionKey, StatsSnapshot, Store, StoreKey,
    TcpServer,
};
use m3d_tech::CornerSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory, rooted at `M3D_STORE_TEST_ROOT` when set
/// (CI uploads that root as an artifact on failure). Not removed on
/// panic so a failing run leaves the store behind for inspection.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var_os("M3D_STORE_TEST_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    root.join(format!(
        "m3d-warm-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn request(id: u64) -> FlowRequest {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    FlowRequest {
        id,
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.012,
            seed: 31,
        },
        options,
        proto: Proto::V1,
        command: FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
        deadline_ms: None,
    }
}

fn config(obs: &Obs, store: &Arc<Store>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: 8,
        obs: obs.clone(),
        store: Some(Arc::clone(store)),
        sweep_inflight_cap: 4,
    }
}

fn serve_all(dir: &PathBuf, obs: &Obs, requests: &[FlowRequest]) -> (Vec<Response>, StatsSnapshot) {
    let store = Arc::new(Store::open(dir).expect("open store"));
    let server = TcpServer::bind("127.0.0.1:0", config(obs, &store)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let responses = requests
        .iter()
        .map(|request| client.call(request).expect("call"))
        .collect();
    drop(client);
    (responses, server.shutdown())
}

fn serve_one(dir: &PathBuf, obs: &Obs) -> (Response, StatsSnapshot) {
    let (mut responses, stats) = serve_all(dir, obs, &[request(1)]);
    (responses.remove(0), stats)
}

fn records(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).expect("read store dir").count()
}

#[test]
fn restarted_server_answers_repeat_requests_from_disk() {
    let dir = scratch_dir("restart");

    // Cold: empty store, full flow, write-through after the response.
    let cold_obs = Obs::enabled();
    let (cold, cold_stats) = serve_one(&dir, &cold_obs);
    assert!(cold.is_ok(), "cold request must succeed");
    assert_eq!(cold_stats.store_hits, 0);
    assert_eq!(cold_stats.store_misses, 1);
    assert_eq!(
        cold_stats.store_spills, 1,
        "the completed session must reach the disk tier"
    );
    assert_eq!(
        cold_obs.manifest().counter("flow/pseudo3d_runs"),
        Some(1),
        "cold run pays for the pseudo-3-D stage"
    );

    // Warm: a brand-new server process-equivalent (fresh cache, fresh
    // telemetry) over the same directory. The first repeat request must
    // come back from disk.
    let warm_obs = Obs::enabled();
    let (warm, warm_stats) = serve_one(&dir, &warm_obs);
    assert_eq!(
        encode_line(&warm),
        encode_line(&cold),
        "warm response must be byte-identical to the cold one"
    );
    assert_eq!(warm_stats.store_hits, 1, "answered from the store");
    assert_eq!(warm_stats.store_misses, 0);
    assert_eq!(
        warm_stats.cache_misses, 1,
        "a fresh cache still creates the slot (misses == distinct keys)"
    );
    assert_eq!(
        warm_obs
            .manifest()
            .counter("flow/pseudo3d_runs")
            .unwrap_or(0),
        0,
        "warm restart must never re-run the pseudo-3-D stage"
    );
    // Already fully persisted: the warm pass writes nothing new.
    assert_eq!(warm_stats.store_spills, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_store_records_are_evicted_and_repaired() {
    let dir = scratch_dir("corrupt");

    let (cold, _) = serve_one(&dir, &Obs::disabled());
    assert!(cold.is_ok());
    // Damage every record in the store: flip a payload byte, keeping
    // length intact so only the checksum can catch it.
    let mut damaged = 0;
    for entry in std::fs::read_dir(&dir).expect("read store dir") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("read record");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write damage");
        damaged += 1;
    }
    assert!(damaged > 0, "the cold pass must have persisted something");

    // The restarted server detects the corruption, evicts the record,
    // answers cold, and writes a fresh record back.
    let (after, stats) = serve_one(&dir, &Obs::disabled());
    assert_eq!(
        encode_line(&after),
        encode_line(&cold),
        "a corrupt store must not change answers"
    );
    assert_eq!(stats.store_corrupt_evicted, 1);
    assert_eq!(stats.store_hits, 0);
    assert_eq!(stats.store_spills, 1, "the rebuild repairs the store");

    // And a third restart proves the repair: clean warm hit.
    let (repaired, repaired_stats) = serve_one(&dir, &Obs::disabled());
    assert_eq!(encode_line(&repaired), encode_line(&cold));
    assert_eq!(repaired_stats.store_hits, 1);
    assert_eq!(repaired_stats.store_corrupt_evicted, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unreadable_record_is_a_store_miss_not_a_corrupt_eviction() {
    let dir = scratch_dir("io");
    let (cold, _) = serve_one(&dir, &Obs::disabled());
    assert!(cold.is_ok());
    // A directory where the record was: reading it fails with an I/O
    // error other than NotFound, and no write can rename onto it.
    let record = std::fs::read_dir(&dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .collect::<Vec<_>>();
    assert_eq!(record.len(), 1, "the cold pass persisted one record");
    std::fs::remove_file(&record[0]).expect("remove the record");
    std::fs::create_dir(&record[0]).expect("put a directory in its place");

    let (after, stats) = serve_one(&dir, &Obs::disabled());
    assert_eq!(
        encode_line(&after),
        encode_line(&cold),
        "an unreadable store must not change answers"
    );
    assert_eq!(stats.store_corrupt_evicted, 0, "nothing was evicted");
    assert_eq!(stats.store_misses, 1, "the store could not answer");
    assert_eq!(stats.store_spills, 0, "the write-through failed");
    assert!(record[0].is_dir());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_record_under_a_whole_options_key_is_a_clean_miss() {
    let (dir, old_dir) = (scratch_dir("rekey-new"), scratch_dir("rekey-old"));
    let obs = Obs::enabled();
    let (cold, _) = serve_one(&dir, &obs);
    assert!(cold.is_ok());
    // The cold run's record, re-filed in a second directory under the
    // key the parent scheme gave it: the whole-options fingerprint, read
    // off the run's own manifest.
    let request = request(1);
    let key = SessionKey::of(&request.netlist.materialize(), &request.options);
    let manifest = obs.manifest();
    let whole_options_fp = manifest.label("input/options_fp").expect("label");
    assert_ne!(whole_options_fp, key.options_fp);
    let store_key =
        |options_fp: &str| StoreKey::new(key.netlist_fp.clone(), options_fp.to_string());
    let record = Store::open(&dir)
        .and_then(|store| store.get_session(&store_key(&key.options_fp)?))
        .expect("read the cold run's record")
        .expect("filed under the pseudo read-set");
    Store::open(&old_dir)
        .and_then(|store| store.put_session(&store_key(whole_options_fp)?, &record))
        .expect("file it under the old key");
    assert_eq!(records(&old_dir), 1);

    let (after, stats) = serve_one(&old_dir, &Obs::disabled());
    assert_eq!(encode_line(&after), encode_line(&cold));
    assert_eq!((stats.store_hits, stats.store_misses), (0, 1));
    assert_eq!(
        stats.store_corrupt_evicted, 0,
        "never asked for, never judged"
    );
    assert_eq!(stats.store_spills, 1);
    assert_eq!(records(&old_dir), 2, "the new record lies beside the old");

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&old_dir).unwrap();
}

#[test]
fn one_record_rehydrates_every_option_variant_of_its_netlist() {
    let dir = scratch_dir("variants");
    let variants: Vec<FlowRequest> = [
        FlowOptions::default(),
        FlowOptions {
            input_activity: 0.1,
            ..Default::default()
        },
        FlowOptions {
            wns_tolerance: 0.0,
            enable_repartition: false,
            ..Default::default()
        },
        FlowOptions {
            tech: m3d_tech::TechContext {
                corners: CornerSet::Worst,
                ..Default::default()
            },
            ..Default::default()
        },
    ]
    .into_iter()
    .zip(2..)
    .map(|(knobs, id)| {
        let mut variant = request(id);
        variant.options = FlowOptions {
            placer: variant.options.placer.clone(),
            ..knobs
        };
        variant
    })
    .collect();
    // What a server with nothing on disk answers each variant.
    let expected: Vec<String> = variants
        .iter()
        .map(|variant| {
            let fresh_dir = scratch_dir("fresh");
            let (fresh, _) = serve_all(&fresh_dir, &Obs::disabled(), std::slice::from_ref(variant));
            std::fs::remove_dir_all(&fresh_dir).unwrap();
            encode_line(&fresh[0])
        })
        .collect();
    let mut distinct = expected.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), variants.len(), "every knob must show");

    let (cold, cold_stats) = serve_one(&dir, &Obs::disabled());
    assert!(cold.is_ok());
    assert_eq!((cold_stats.store_spills, records(&dir)), (1, 1));
    let warm_obs = Obs::enabled();
    let (warm, stats) = serve_all(&dir, &warm_obs, &variants);
    for ((response, expected), variant) in warm.into_iter().zip(&expected).zip(&variants) {
        // Only the first variant created the slot.
        let Response::Ok { id, report, .. } = response else {
            panic!("variant {}: {response:?}", variant.id);
        };
        let cold_spelling = Response::Ok {
            id,
            cache_hit: false,
            report,
        };
        assert_eq!(&encode_line(&cold_spelling), expected, "variant {id}");
    }
    assert_eq!((stats.store_hits, stats.store_misses), (1, 0));
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 3));
    assert_eq!((stats.pseudo_builds, stats.store_spills), (0, 0));
    let pseudo3d_runs = warm_obs.manifest().counter("flow/pseudo3d_runs");
    assert_eq!(pseudo3d_runs.unwrap_or(0), 0);
    assert_eq!(records(&dir), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}
