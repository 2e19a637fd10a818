//! The cache-poisoning guard: requests on one netlist that differ only
//! in options read behind the pseudo-3-D checkpoint share one session,
//! one store record and one prefix memo — and every one of them is still
//! answered under its own knobs, byte for byte what a server that holds
//! nothing answers. With the store on and off, interleaved over two
//! connections.

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, NetlistSpec, Proto};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{encode_line, Client, Response, Server, ServerConfig, Store, TcpServer};
use m3d_tech::{Corner, CornerSet, StackingStyle, TechContext};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where this suite's stores go: under `M3D_STORE_TEST_ROOT` when set
/// (CI uploads that root as an artifact on failure), else the temp dir.
/// A failing run leaves its store behind for inspection.
fn store_root() -> PathBuf {
    std::env::var_os("M3D_STORE_TEST_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

fn base_options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 8;
    o
}

fn tech(stacking: StackingStyle, corners: CornerSet) -> TechContext {
    TechContext { stacking, corners }
}

/// Every variant agrees with `base_options` on the pseudo read-set. The
/// first six differ behind the pre-sizing prefix too (they fork the
/// prefix the first request builds); the stacking style and the seed are
/// read by prefix stages (same session, a prefix of their own).
fn variants() -> Vec<(&'static str, FlowOptions)> {
    let base = base_options();
    let monolithic = StackingStyle::Monolithic;
    vec![
        ("base", base.clone()),
        (
            "activity 0.10",
            FlowOptions {
                input_activity: 0.10,
                ..base.clone()
            },
        ),
        (
            "activity 0.20",
            FlowOptions {
                input_activity: 0.20,
                ..base.clone()
            },
        ),
        (
            "tolerance 0",
            FlowOptions {
                wns_tolerance: 0.0,
                ..base.clone()
            },
        ),
        (
            "no ECO",
            FlowOptions {
                enable_repartition: false,
                ..base.clone()
            },
        ),
        (
            "worst corner",
            FlowOptions {
                tech: tech(monolithic, CornerSet::Worst),
                ..base.clone()
            },
        ),
        (
            "slow corner",
            FlowOptions {
                tech: tech(monolithic, CornerSet::single(Corner::Slow)),
                ..base.clone()
            },
        ),
        (
            "f2f",
            FlowOptions {
                tech: tech(StackingStyle::F2fHybridBond, CornerSet::Typical),
                ..base.clone()
            },
        ),
        ("seed 2", FlowOptions { seed: 2, ..base }),
    ]
}

/// Each variant as a Hetero-3-D and a 2-D run at one frequency each, so
/// that every (configuration, period) is asked of every variant.
fn requests() -> Vec<FlowRequest> {
    let mut requests = Vec::new();
    for (config, frequency_ghz) in [(Config::Hetero3d, 1.0), (Config::TwoD9T, 0.8)] {
        for (_, options) in variants() {
            requests.push(FlowRequest {
                id: requests.len() as u64,
                netlist: NetlistSpec {
                    benchmark: Benchmark::Aes,
                    scale: 0.012,
                    seed: 31,
                },
                options,
                command: FlowCommand::RunFlow {
                    config,
                    frequency_ghz,
                },
                deadline_ms: None,
                proto: Proto::V1,
            });
        }
    }
    requests
}

fn config(store: Option<Arc<Store>>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 8,
        obs: Obs::disabled(),
        store,
        sweep_inflight_cap: 4,
    }
}

/// The response line with the one bit a shared session may change put
/// back to what a server that holds nothing says.
fn cold_spelling(response: Response) -> String {
    match response {
        Response::Ok { id, report, .. } => encode_line(&Response::Ok {
            id,
            cache_hit: false,
            report,
        }),
        rejected => panic!("expected ok, got {rejected:?}"),
    }
}

fn total_power_bits(response: &Response) -> u64 {
    match response {
        Response::Ok { report, .. } => match report.as_ref() {
            FlowReport::Run { ppac } => ppac.total_power_mw.to_bits(),
            other => panic!("expected a run report, got {other:?}"),
        },
        rejected => panic!("expected ok, got {rejected:?}"),
    }
}

#[test]
fn option_variants_share_one_session_and_are_answered_under_their_own_knobs() {
    let requests = requests();
    // Ground truth: each request alone on a server that holds nothing.
    let fresh: Vec<Response> = requests
        .iter()
        .map(|request| {
            let server = Server::start(config(None));
            let response = server.submit(request.clone()).wait();
            let _ = server.shutdown();
            response
        })
        .collect();
    let power_of = |name: &str| {
        let at = variants().iter().position(|(n, _)| *n == name).expect(name);
        total_power_bits(&fresh[at])
    };
    let powers = [
        power_of("activity 0.10"),
        power_of("base"),
        power_of("activity 0.20"),
    ];
    assert!(
        powers[0] != powers[1] && powers[1] != powers[2] && powers[0] != powers[2],
        "power must move with the input activity: {powers:?}"
    );
    let expected: Vec<String> = fresh.into_iter().map(cold_spelling).collect();

    for with_store in [false, true] {
        let what = format!("store {with_store}");
        let dir = store_root().join(format!("m3d-variants-{}-{with_store}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = with_store.then(|| Arc::new(Store::open(&dir).expect("open store")));
        let server = TcpServer::bind("127.0.0.1:0", config(store)).expect("bind");
        // Two connections, each taking the list's next request when
        // its last answer has arrived.
        let next = AtomicUsize::new(0);
        let mut served: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = Client::connect(server.local_addr()).expect("connect");
                        let mut mine = Vec::new();
                        while let Some(request) = requests.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let response = client.call(request).expect("call");
                            mine.push((request.id as usize, cold_spelling(response)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("connection thread"))
                .collect()
        });
        served.sort();
        assert_eq!(served.len(), requests.len(), "{what}");
        for (index, line) in &served {
            let variant = variants()[index % variants().len()].0;
            assert_eq!(
                line, &expected[*index],
                "{what}: request {index} ({variant})"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.cache_misses, 1, "{what}: one session for all");
        assert_eq!(stats.cache_hits, requests.len() as u64 - 1, "{what}");
        assert_eq!(stats.pseudo_builds, 1, "{what}");
        // Per configuration: the base variant's prefix, forked by the
        // six that differ behind it, and one each for `f2f`/`seed 2`.
        assert_eq!((stats.prefix_builds, stats.prefix_forks), (6, 12), "{what}");
        if with_store {
            assert_eq!((stats.store_hits, stats.store_misses), (0, 1), "{what}");
            // Base-only after the first request, upgraded once the
            // pseudo-3-D checkpoint exists: one record, two writes
            // at most.
            assert!((1..=2).contains(&stats.store_spills), "{what}: {stats:?}");
            let records = std::fs::read_dir(&dir).expect("store dir").count();
            assert_eq!(records, 1, "{what}: one record for every variant");
            std::fs::remove_dir_all(&dir).expect("remove the store directory");
        }
    }
}
