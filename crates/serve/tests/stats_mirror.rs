//! A service counter and its perf mirror are one booking: after a mix of
//! v1 requests, rejections, a sweep past the fairness cap and a store
//! miss, then a store hit after a restart, every [`StatsSnapshot`] field
//! that has a perf key equals that key's value in the manifest's perf
//! section.

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto, SweepSpec};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{RejectKind, Server, ServerConfig, StatsSnapshot, Store};
use m3d_tech::{Corner, StackingStyle};
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
        "m3d-mirror-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const SWEEP_CAP: usize = 2;

fn start(workers: usize, obs: &Obs, dir: &PathBuf) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_depth: 64,
        cache_capacity: 8,
        obs: obs.clone(),
        store: Some(Arc::new(Store::open(dir).expect("open store"))),
        sweep_inflight_cap: SWEEP_CAP,
    })
}

fn request(id: u64, scale: f64, command: FlowCommand) -> FlowRequest {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    FlowRequest {
        id,
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale,
            seed: 31,
        },
        options,
        command,
        deadline_ms: None,
        proto: Proto::V1,
    }
}

fn run_flow(id: u64, frequency_ghz: f64) -> FlowRequest {
    let command = FlowCommand::RunFlow {
        config: Config::Hetero3d,
        frequency_ghz,
    };
    request(id, 0.012, command)
}

/// Eight points on the key of [`run_flow`].
fn sweep(id: u64) -> FlowRequest {
    let spec = SweepSpec {
        configs: vec![Config::Hetero3d, Config::TwoD12T],
        stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
        corners: vec![Corner::Typical],
        freq_min_ghz: 0.9,
        freq_max_ghz: 1.1,
        freq_steps: 2,
    };
    FlowRequest {
        proto: Proto::V2,
        ..request(id, 0.012, FlowCommand::Sweep { spec })
    }
}

/// Every snapshot field with a perf mirror, by its key.
fn mirrored(s: &StatsSnapshot) -> [(&'static str, u64); 18] {
    [
        ("serve/accepted", s.accepted),
        ("serve/failed_flow", s.failed_flow),
        ("serve/rejected_overloaded", s.rejected_overloaded),
        ("serve/rejected_deadline", s.rejected_deadline),
        ("serve/rejected_shutdown", s.rejected_shutdown),
        ("serve/rejected_protocol", s.rejected_protocol),
        ("serve/cache_hit", s.cache_hits),
        ("serve/cache_miss", s.cache_misses),
        ("store/hit", s.store_hits),
        ("store/miss", s.store_misses),
        ("store/spill", s.store_spills),
        ("store/corrupt_evicted", s.store_corrupt_evicted),
        ("serve/netlist_materialized", s.netlists_materialized),
        ("serve/sweeps", s.sweeps),
        ("serve/sweep_points", s.sweep_points),
        ("serve/sweep_point_errors", s.sweep_point_errors),
        ("serve/quota_deferred", s.quota_deferred),
        ("serve/sweep_cancelled_points", s.sweep_cancelled_points),
    ]
}

fn assert_mirrored(stats: &StatsSnapshot, obs: &Obs, what: &str) {
    let manifest = obs.manifest();
    for (key, count) in mirrored(stats) {
        assert_eq!(manifest.perf(key).unwrap_or(0), count, "{what}: {key}");
    }
}

#[test]
fn every_mirrored_counter_equals_its_perf_key() {
    for workers in [1, 4] {
        let what = format!("{workers} workers");
        let dir = scratch_dir("mix");

        let obs = Obs::enabled();
        let server = start(workers, &obs, &dir);
        for id in [1, 2] {
            assert!(server.submit(run_flow(id, 1.0)).wait().is_ok(), "{what}");
        }
        let failed = server.submit(run_flow(3, -1.0)).wait();
        assert_eq!(failed.reject_kind(), Some(RejectKind::Flow), "{what}");
        let out_of_bounds = request(4, f64::NAN, run_flow(0, 1.0).command);
        let rejected = server.submit(out_of_bounds).wait();
        assert_eq!(rejected.reject_kind(), Some(RejectKind::Protocol));
        let unstreamed = server.submit(sweep(5)).wait();
        assert_eq!(unstreamed.reject_kind(), Some(RejectKind::Protocol));
        let lines = server.submit_stream(sweep(6)).wait();
        assert_eq!(lines.len(), 10, "{what}: progress, 8 points, done");
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.completed_ok), (3, 2), "{what}");
        assert_eq!((stats.failed_flow, stats.rejected_protocol), (1, 2));
        assert_eq!((stats.sweeps, stats.sweep_points), (1, 8), "{what}");
        assert_eq!(stats.quota_deferred, 8 - SWEEP_CAP as u64, "{what}");
        assert_eq!((stats.store_hits, stats.store_misses), (0, 1), "{what}");
        assert!(stats.store_spills >= 1 && stats.cache_hits >= 1, "{what}");
        assert_mirrored(&stats, &obs, &what);

        // A restart over the same store: the first request is a store hit.
        let obs = Obs::enabled();
        let server = start(workers, &obs, &dir);
        assert!(server.submit(run_flow(7, 1.0)).wait().is_ok(), "{what}");
        let stats = server.shutdown();
        assert_eq!((stats.store_hits, stats.store_misses), (1, 0), "{what}");
        assert_mirrored(&stats, &obs, &what);

        std::fs::remove_dir_all(&dir).expect("remove the store directory");
    }
}
