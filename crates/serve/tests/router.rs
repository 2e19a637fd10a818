//! Shard-router integration: responses through the router are
//! byte-identical to a direct connection at 1 and at 4 shards, every
//! checkpoint key is built on exactly one shard cluster-wide — option
//! variants that differ only behind the pseudo-3-D checkpoint are one
//! key —, routed sweeps stream the same bytes a single server would, and
//! a dead backend answers `overloaded` instead of hanging the client.

use m3d_flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, NetlistSpec, Proto, SweepSpec,
};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{
    decode_message, encode_line, route_key, Client, RejectKind, Response, Ring, Router,
    RouterConfig, ServerConfig, ServerMessage, StatsSnapshot, StreamEvent, TcpServer,
};
use m3d_tech::{Corner, StackingStyle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

const SCALE: f64 = 0.012;
const VNODES: usize = 64;

fn spec(seed: u64) -> NetlistSpec {
    NetlistSpec {
        benchmark: Benchmark::Aes,
        scale: SCALE,
        seed,
    }
}

fn quick_options(iterations: usize) -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = iterations;
    o
}

fn request(
    id: u64,
    netlist: NetlistSpec,
    options: FlowOptions,
    command: FlowCommand,
) -> FlowRequest {
    FlowRequest {
        id,
        netlist,
        options,
        command,
        deadline_ms: None,
        proto: Proto::V1,
    }
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_depth: 64,
        cache_capacity: 8,
        obs: Obs::disabled(),
        store: None,
        sweep_inflight_cap: 4,
    }
}

/// Key C under five `input_activity` values: five whole-options
/// fingerprints, one checkpoint key.
const ACTIVITIES: [f64; 5] = [0.15, 0.14, 0.13, 0.12, 0.11];

fn activity_variant(activity: f64) -> FlowOptions {
    FlowOptions {
        input_activity: activity,
        ..quick_options(8)
    }
}

/// The identity workload as raw protocol lines: six flow requests over
/// three distinct checkpoint keys (with a duplicate), the five activity
/// variants of key C, one malformed line, and one *invalid* sweep (v1
/// protocol) that must reject as a single line everywhere.
fn workload_lines() -> Vec<String> {
    let key_a = (spec(31), quick_options(8));
    let key_b = (spec(31), quick_options(9));
    let key_c = (spec(32), quick_options(8));
    let run = |config, frequency_ghz| FlowCommand::RunFlow {
        config,
        frequency_ghz,
    };
    let requests = [
        request(0, key_a.0, key_a.1.clone(), run(Config::Hetero3d, 1.0)),
        request(1, key_b.0, key_b.1, run(Config::Hetero3d, 1.0)),
        request(2, key_c.0, key_c.1, run(Config::TwoD12T, 1.1)),
        // Exact duplicate of id 0: a cache hit on whichever shard owns
        // key A.
        request(3, key_a.0, key_a.1.clone(), run(Config::Hetero3d, 1.0)),
        request(4, key_a.0, key_a.1.clone(), run(Config::ThreeD9T, 0.9)),
        request(
            5,
            key_a.0,
            key_a.1,
            FlowCommand::FindFmax {
                config: Config::Hetero3d,
                start_ghz: 1.0,
            },
        ),
    ];
    let mut lines: Vec<String> = requests.iter().map(encode_line).collect();
    lines.extend(ACTIVITIES.iter().enumerate().map(|(k, &activity)| {
        let options = activity_variant(activity);
        encode_line(&request(
            10 + k as u64,
            spec(32),
            options,
            run(Config::Hetero3d, 1.0),
        ))
    }));
    lines.push("{\"id\":42,\"benchmark\":\"nope\"}\n".to_string());
    // A sweep on protocol v1 is invalid: the backend (not the router)
    // must answer it, with the same typed rejection a direct server
    // sends.
    let mut bad_sweep = request(
        6,
        spec(31),
        quick_options(8),
        FlowCommand::Sweep {
            spec: small_sweep(),
        },
    );
    bad_sweep.proto = Proto::V1;
    lines.push(encode_line(&bad_sweep));
    lines
}

fn small_sweep() -> SweepSpec {
    SweepSpec {
        configs: vec![Config::Hetero3d, Config::TwoD12T],
        stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
        corners: vec![Corner::Typical],
        freq_min_ghz: 0.9,
        freq_max_ghz: 1.1,
        freq_steps: 2,
    }
}

/// A raw line-level connection: what the byte-identity proof compares.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone");
        RawConn {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.flush().expect("flush");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "peer hung up mid-conversation");
        response
    }
}

/// Runs `lines` sequentially against `addr`, one response line each.
fn call_all(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut conn = RawConn::connect(addr);
    lines.iter().map(|line| conn.call(line)).collect()
}

/// Spawns `shards` fresh single-worker backends plus a router in front.
fn cluster(shards: usize) -> (Vec<TcpServer>, Router) {
    let backends: Vec<TcpServer> = (0..shards)
        .map(|_| TcpServer::bind("127.0.0.1:0", server_config(1)).expect("backend bind"))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(TcpServer::local_addr).collect();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: addrs,
            vnodes: VNODES,
        },
    )
    .expect("router bind");
    (backends, router)
}

fn teardown(backends: Vec<TcpServer>, router: Router) -> Vec<StatsSnapshot> {
    let _ = router.shutdown();
    backends.into_iter().map(TcpServer::shutdown).collect()
}

#[test]
fn routed_responses_are_byte_identical_to_direct_at_1_and_4_shards() {
    let lines = workload_lines();

    let direct_server = TcpServer::bind("127.0.0.1:0", server_config(1)).expect("bind");
    let direct = call_all(direct_server.local_addr(), &lines);
    let direct_stats = direct_server.shutdown();

    let (backends1, router1) = cluster(1);
    let routed1 = call_all(router1.local_addr(), &lines);
    let stats1 = teardown(backends1, router1);

    let (backends4, router4) = cluster(4);
    let routed4 = call_all(router4.local_addr(), &lines);
    let stats4 = teardown(backends4, router4);

    assert_eq!(direct, routed1, "1-shard router must be invisible");
    assert_eq!(direct, routed4, "4-shard router must be invisible");
    // The variants were answered under their own knobs: five powers.
    let mut powers: Vec<u64> = direct[6..6 + ACTIVITIES.len()]
        .iter()
        .map(|line| match decode_message(line.trim_end()) {
            Ok(ServerMessage::Response(Response::Ok { report, .. })) => match *report {
                FlowReport::Run { ppac } => ppac.total_power_mw.to_bits(),
                other => panic!("expected a run report, got {other:?}"),
            },
            other => panic!("expected an ok response, got {other:?}"),
        })
        .collect();
    powers.sort_unstable();
    powers.dedup();
    assert_eq!(powers.len(), ACTIVITIES.len(), "one power per activity");

    // Every checkpoint key is built exactly once, cluster-wide, no
    // matter the shard count — and on exactly the shard the ring says
    // owns it. The five variants of key C are that one key: one slot,
    // one pseudo-3-D checkpoint, on one shard.
    let distinct_keys = 3u64;
    assert_eq!(direct_stats.cache_misses, distinct_keys);
    for stats in [&[direct_stats][..], &stats1, &stats4] {
        let pseudo_builds: u64 = stats.iter().map(|s| s.pseudo_builds).sum();
        assert_eq!(pseudo_builds, distinct_keys, "one checkpoint per key");
    }
    assert_eq!(
        stats1.iter().map(|s| s.cache_misses).sum::<u64>(),
        distinct_keys
    );
    assert_eq!(
        stats4.iter().map(|s| s.cache_misses).sum::<u64>(),
        distinct_keys
    );
    let ring = Ring::new(4, VNODES);
    let mut expected_misses = vec![0u64; 4];
    for key in [
        route_key(&request(
            0,
            spec(31),
            quick_options(8),
            FlowCommand::CompareConfigs,
        )),
        route_key(&request(
            0,
            spec(31),
            quick_options(9),
            FlowCommand::CompareConfigs,
        )),
        route_key(&request(
            0,
            spec(32),
            quick_options(8),
            FlowCommand::CompareConfigs,
        )),
    ] {
        expected_misses[ring.route(&key)] += 1;
    }
    let variant_key = |activity| {
        let options = activity_variant(activity);
        route_key(&request(0, spec(32), options, FlowCommand::CompareConfigs))
    };
    for activity in ACTIVITIES {
        assert_eq!(variant_key(activity), variant_key(ACTIVITIES[0]));
    }
    let actual_misses: Vec<u64> = stats4.iter().map(|s| s.cache_misses).collect();
    assert_eq!(
        actual_misses, expected_misses,
        "each key must be built on the shard that owns it"
    );
}

#[test]
fn routed_sweeps_stream_the_same_bytes_as_a_direct_server() {
    let sweep = FlowRequest {
        id: 17,
        netlist: spec(31),
        options: quick_options(8),
        command: FlowCommand::Sweep {
            spec: small_sweep(),
        },
        deadline_ms: None,
        proto: Proto::V2,
    };
    let line = encode_line(&sweep);
    let total = sweep.decompose_sweep().expect("sweep decomposes").len();

    let stream_of = |addr: SocketAddr| -> Vec<String> {
        let mut conn = RawConn::connect(addr);
        conn.writer.write_all(line.as_bytes()).expect("send");
        conn.writer.flush().expect("flush");
        let mut collected = Vec::new();
        loop {
            let event_line = conn.read_line();
            let message = decode_message(event_line.trim_end()).expect("decodable event");
            collected.push(event_line);
            match message {
                ServerMessage::Event(event) if !event.is_terminal() => {}
                _ => return collected,
            }
        }
    };

    let direct_server = TcpServer::bind("127.0.0.1:0", server_config(1)).expect("bind");
    let direct = stream_of(direct_server.local_addr());
    let _ = direct_server.shutdown();

    let (backends, router) = cluster(4);
    let routed = stream_of(router.local_addr());
    let router_stats = router.stats();
    let backend_stats = teardown(backends, router);

    assert_eq!(direct.len(), total + 2, "progress + points + done");
    assert_eq!(direct, routed, "a routed sweep must stream identical bytes");

    // The router decomposed: backends saw only v1 singles, and the two
    // stacking scenarios are one checkpoint key — one build, one shard.
    assert_eq!(router_stats.sweeps, 1);
    assert_eq!(router_stats.sweep_points, total as u64);
    assert_eq!(router_stats.relayed, 0);
    assert_eq!(backend_stats.iter().map(|s| s.sweeps).sum::<u64>(), 0);
    assert_eq!(
        backend_stats.iter().map(|s| s.completed_ok).sum::<u64>(),
        total as u64
    );
    assert_eq!(backend_stats.iter().map(|s| s.cache_misses).sum::<u64>(), 1);
    let pseudo_builds: Vec<u64> = backend_stats.iter().map(|s| s.pseudo_builds).collect();
    assert_eq!(pseudo_builds.iter().sum::<u64>(), 1, "{pseudo_builds:?}");
}

/// A hostile peer on the router's front gets exactly what it would get
/// from a direct server: a line past the 1 MiB cap is answered with the
/// same `protocol` rejection bytes and the connection closes — the
/// router must not buffer it without bound waiting for a newline — and
/// the next connection is served as if nothing happened.
#[test]
fn an_oversize_line_is_rejected_like_a_direct_server_and_the_router_lives_on() {
    // One byte past the cap and no newline: each front has read every
    // byte sent by the time it can tell, so the close is a clean FIN.
    let oversize = vec![b'x'; (1 << 20) + 1];
    // Everything the peer hears until EOF (the read proves the close).
    let transcript_of = |addr: SocketAddr| -> String {
        use std::io::Read;
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&oversize).expect("send");
        let mut heard = String::new();
        stream
            .read_to_string(&mut heard)
            .expect("a rejection line, then EOF");
        heard
    };

    let direct_server = TcpServer::bind("127.0.0.1:0", server_config(1)).expect("bind");
    let direct = transcript_of(direct_server.local_addr());
    let (backends, router) = cluster(1);
    let routed = transcript_of(router.local_addr());

    assert_eq!(routed, direct, "the router must answer the direct bytes");
    match decode_message(direct.trim_end()).expect("one decodable line") {
        ServerMessage::Response(Response::Rejected { id, kind, message }) => {
            assert_eq!((id, kind), (None, RejectKind::Protocol));
            assert_eq!(message, "request line exceeds 1048576 bytes");
        }
        other => panic!("expected a protocol rejection, got {other:?}"),
    }
    assert_eq!(router.stats().rejected_protocol, 1);

    // The next connection through the router is served, byte-identically.
    let next = &workload_lines()[..1];
    assert_eq!(
        call_all(router.local_addr(), next),
        call_all(direct_server.local_addr(), next)
    );
    let _ = direct_server.shutdown();
    teardown(backends, router);
}

#[test]
fn a_dead_backend_answers_overloaded_not_a_hang() {
    // Grab a port that refuses connections: bind, read the addr, drop.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![dead],
            vnodes: 8,
        },
    )
    .expect("router bind");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let single = request(
        1,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
    );
    match client.call(&single).expect("router answers") {
        Response::Rejected { id, kind, .. } => {
            assert_eq!(id, Some(1));
            assert_eq!(kind, RejectKind::Overloaded);
        }
        Response::Ok { .. } => panic!("a dead backend cannot answer ok"),
    }

    // A sweep toward the dead shard degrades per point: the stream
    // still completes, every point an `error` event.
    let mut sweep = request(
        2,
        spec(31),
        quick_options(8),
        FlowCommand::Sweep {
            spec: small_sweep(),
        },
    );
    sweep.proto = Proto::V2;
    let total = sweep.decompose_sweep().expect("sweep decomposes").len() as u64;
    let messages = client.call_stream(&sweep).expect("sweep stream");
    match messages.last() {
        Some(ServerMessage::Event(StreamEvent::Done { points, errors, .. })) => {
            assert_eq!((*points, *errors), (0, total));
        }
        other => panic!("expected done, got {other:?}"),
    }

    drop(client);
    let stats = router.shutdown();
    assert!(stats.backend_unavailable > total);
    assert!(stats.backend_retries >= 1);
}

/// The router drains like a server: shutdown closes an idle client's
/// read half instead of waiting for it to hang up, and the client reads
/// EOF.
#[test]
fn shutdown_is_not_blocked_by_an_idle_client() {
    let (backends, router) = cluster(1);
    let mut idle = RawConn::connect(router.local_addr());
    let answer = idle.call(&workload_lines()[0]);
    assert!(decode_message(answer.trim_end()).is_ok());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(teardown(backends, router));
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("router shutdown must not wait for an idle client");
    let mut rest = String::new();
    let n = idle.reader.read_line(&mut rest).expect("a clean EOF");
    assert_eq!(n, 0, "the idle client must see EOF, got {rest:?}");
}
