//! What a resident session saves a request: the netlist is generated
//! when a session has to be built or a recipe is new — never for a
//! request whose key is resident — and a `run_flow` or `find_fmax` on a
//! prefix the session already holds forks it, with answers
//! byte-identical to a server that has to build everything. Also the cache's bookkeeping
//! around it: `misses == distinct keys` with the store on and off.

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{
    encode_line, Client, Response, Server, ServerConfig, SessionKey, StatsSnapshot, Store,
    TcpServer,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Where this suite's stores go: under `M3D_STORE_TEST_ROOT` when set
/// (CI uploads that root as an artifact on failure), else the temp dir.
/// A failing run leaves its store behind for inspection.
fn store_root() -> PathBuf {
    std::env::var_os("M3D_STORE_TEST_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

fn spec(scale: f64, seed: u64) -> NetlistSpec {
    NetlistSpec {
        benchmark: Benchmark::Aes,
        scale,
        seed,
    }
}

fn run(id: u64, netlist: NetlistSpec, config: Config, frequency_ghz: f64) -> FlowRequest {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    FlowRequest {
        id,
        netlist,
        options,
        command: FlowCommand::RunFlow {
            config,
            frequency_ghz,
        },
        deadline_ms: None,
        proto: Proto::V1,
    }
}

fn config(obs: &Obs, store: Option<Arc<Store>>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 8,
        obs: obs.clone(),
        store,
        sweep_inflight_cap: 4,
    }
}

fn perf(obs: &Obs, name: &str) -> u64 {
    obs.manifest().perf(name).unwrap_or(0)
}

/// Six requests on one key: two prefix keys, 2-D 12T's used twice and
/// Hetero-3-D's four times, at two periods.
fn resident_requests() -> Vec<FlowRequest> {
    let key = spec(0.012, 31);
    [
        (Config::TwoD12T, 1.0),
        (Config::Hetero3d, 0.9),
        (Config::TwoD12T, 1.0),
        (Config::Hetero3d, 1.1),
        (Config::Hetero3d, 0.9),
        (Config::Hetero3d, 1.1),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (config, ghz))| run(id as u64, key, config, ghz))
    .collect()
}

/// What a server that holds nothing for `request` answers: its own
/// first request when `resident` is false, else its second, after a
/// touch that makes the key resident without building the request's
/// prefix.
fn fresh_line(request: &FlowRequest, resident: bool) -> String {
    let server = Server::start(config(&Obs::disabled(), None));
    if resident {
        let touch = run(99, request.netlist, Config::TwoD9T, 0.7);
        assert!(server.submit(touch).wait().is_ok());
    }
    let line = encode_line(&server.submit(request.clone()).wait());
    let stats = server.shutdown();
    if matches!(request.command, FlowCommand::RunFlow { .. }) {
        assert_eq!(stats.prefix_forks, 0, "a fresh server builds every prefix");
    }
    line
}

#[test]
fn requests_on_a_resident_key_generate_its_netlist_once_and_answer_like_a_fresh_server() {
    let requests = resident_requests();
    let expected: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| fresh_line(r, i > 0))
        .collect();
    for with_store in [false, true] {
        let what = format!("store {with_store}");
        let dir = store_root().join(format!("m3d-resident-{}-{with_store}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = with_store.then(|| Arc::new(Store::open(&dir).expect("open store")));
        let obs = Obs::enabled();
        let server = TcpServer::bind("127.0.0.1:0", config(&obs, store)).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (request, expected) in requests.iter().zip(&expected) {
            let response = client.call(request).expect("call");
            assert_eq!(
                &encode_line(&response),
                expected,
                "{what}: id {}",
                request.id
            );
        }

        let resident = server.server().stats();
        assert_eq!(resident.netlists_materialized, 1, "{what}: once for six");
        assert_eq!(perf(&obs, "serve/netlist_materialized"), 1, "{what}");

        // Two more keys, raced from four connections: one slot each
        // (racing first sights of a recipe may each generate it).
        let others = [spec(0.012, 32), spec(0.012, 33)];
        std::thread::scope(|scope| {
            for k in 0..4 {
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let request = run(10 + k, others[k as usize % 2], Config::ThreeD12T, 1.0);
                    assert!(client.call(&request).expect("call").is_ok());
                });
            }
        });
        drop(client);
        let stats: StatsSnapshot = server.shutdown();
        assert_eq!(
            (stats.cache_misses, stats.cache_hits),
            (3, 7),
            "{what}: misses == distinct keys"
        );
        assert!((3..=5).contains(&stats.netlists_materialized), "{what}");
        // 2-D 12T and Hetero on the first key, 3-D 12T on two more;
        // every other run of the ten forks.
        assert_eq!((stats.prefix_builds, stats.prefix_forks), (4, 6), "{what}");
        assert_eq!(perf(&obs, "flow/prefix_runs"), 4, "{what}");
        assert_eq!(
            obs.manifest().counter("flow/prefix_forks"),
            Some(6),
            "{what}"
        );
        if with_store {
            assert_eq!((stats.store_hits, stats.store_misses), (0, 3), "{what}");
            std::fs::remove_dir_all(&dir).expect("remove the store directory");
        }
    }
}

#[test]
fn a_second_spelling_of_a_circuit_is_generated_once_and_then_shares_the_session() {
    // The generators round their gate counts, so a nearby scale spells
    // the same circuit.
    let (a, b) = (spec(0.012, 31), spec(0.012 + 1e-9, 31));
    let options = run(0, a, Config::TwoD12T, 1.0).options;
    assert_ne!(a, b);
    assert_eq!(
        SessionKey::of(&a.materialize(), &options),
        SessionKey::of(&b.materialize(), &options),
        "the two spellings must name one circuit"
    );
    let server = Server::start(config(&Obs::disabled(), None));
    let mut reports = Vec::new();
    for (id, netlist) in [a, b, b, a].into_iter().enumerate() {
        let request = run(id as u64, netlist, Config::TwoD12T, 1.0);
        match server.submit(request).wait() {
            Response::Ok {
                report, cache_hit, ..
            } => {
                assert_eq!(cache_hit, id > 0, "request {id}");
                reports.push(report);
            }
            other => panic!("request {id}: {other:?}"),
        }
    }
    assert!(reports.iter().all(|r| r == &reports[0]));
    let stats = server.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 3));
    // `a` to build the session, `b` to learn what it spells; then none.
    assert_eq!(stats.netlists_materialized, 2);
    assert_eq!((stats.prefix_builds, stats.prefix_forks), (1, 3));
}

#[test]
fn find_fmax_forks_the_prefix_a_run_flow_left_and_answers_like_a_fresh_server() {
    let run_flow = run(0, spec(0.012, 31), Config::TwoD12T, 1.0);
    let find_fmax = FlowRequest {
        id: 1,
        command: FlowCommand::FindFmax {
            config: Config::TwoD12T,
            start_ghz: 1.0,
        },
        ..run_flow.clone()
    };
    let server = Server::start(config(&Obs::disabled(), None));
    for (request, resident) in [(&run_flow, false), (&find_fmax, true)] {
        let line = encode_line(&server.submit(request.clone()).wait());
        assert_eq!(line, fresh_line(request, resident), "id {}", request.id);
    }
    let stats = server.shutdown();
    // The run builds; the probe and the fastest rung fork. That rung
    // meets timing, so the walk stops there.
    assert_eq!(stats.prefix_builds, 1, "{stats:?}");
    assert_eq!(stats.prefix_forks, 2, "{stats:?}");
}
