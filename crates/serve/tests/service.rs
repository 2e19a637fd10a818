//! Integration tests for the flow service: bit-identity with direct
//! library calls at multiple worker counts, checkpoint-cache reuse,
//! explicit `overloaded` backpressure under saturation, queue-time
//! deadlines, graceful drain-on-shutdown, and typed protocol errors
//! for malformed input over real TCP.

use m3d_flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, FlowSession, NetlistSpec, Proto,
};
use m3d_json::ToJson;
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{Client, Pending, RejectKind, Response, Server, ServerConfig, TcpServer};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.012;

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

/// A mixed workload over three distinct cache keys: two option
/// variants of one netlist plus a second netlist, exercising every
/// command kind and a duplicated query.
fn mixed_requests() -> Vec<FlowRequest> {
    let key_a = (spec(31), quick_options(8));
    let key_b = (spec(31), quick_options(9));
    let key_c = (spec(32), quick_options(8));
    let run = |config, frequency_ghz| FlowCommand::RunFlow {
        config,
        frequency_ghz,
    };
    vec![
        request(0, key_a.0, key_a.1.clone(), run(Config::Hetero3d, 1.0)),
        request(1, key_a.0, key_a.1.clone(), run(Config::TwoD12T, 1.0)),
        request(2, key_a.0, key_a.1.clone(), run(Config::ThreeD9T, 0.9)),
        request(
            3,
            key_a.0,
            key_a.1.clone(),
            FlowCommand::FindFmax {
                config: Config::Hetero3d,
                start_ghz: 1.0,
            },
        ),
        // Exact duplicate of id 0: same key, same command.
        request(4, key_a.0, key_a.1.clone(), run(Config::Hetero3d, 1.0)),
        request(5, key_b.0, key_b.1, run(Config::Hetero3d, 1.0)),
        request(6, key_c.0, key_c.1, run(Config::Hetero3d, 1.0)),
        request(7, key_a.0, key_a.1, run(Config::ThreeD12T, 1.0)),
    ]
}

/// The ground truth: the same command through the library's own
/// session path, no service anywhere.
fn direct_report(req: &FlowRequest) -> FlowReport {
    FlowSession::builder(&req.netlist.materialize())
        .options(req.options.clone())
        .build()
        .expect("valid netlist")
        .execute(&req.command)
        .expect("direct flow")
}

fn wait_all(pending: Vec<Pending>) -> Vec<Response> {
    pending.into_iter().map(Pending::wait).collect()
}

/// Spins until `cond` holds (bounded; the flows involved take far less
/// than the bound).
fn await_condition(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn concurrent_responses_are_bit_identical_to_library_calls() {
    let requests = mixed_requests();
    let expected: Vec<FlowReport> = requests.iter().map(direct_report).collect();
    for workers in [1, 4] {
        let obs = Obs::enabled();
        let server = Server::start(ServerConfig {
            workers,
            queue_depth: 64,
            cache_capacity: 8,
            obs: obs.clone(),
            store: None,
            sweep_inflight_cap: 4,
        });
        let pending: Vec<Pending> = requests.iter().map(|r| server.submit(r.clone())).collect();
        let responses = wait_all(pending);
        for response in &responses {
            let id = response.id().expect("every response carries its id") as usize;
            match response {
                Response::Ok { report, .. } => {
                    assert_eq!(
                        report.as_ref(),
                        &expected[id],
                        "request {id} at {workers} workers diverged from the library"
                    );
                    // Byte-level identity of the serialized report, not
                    // just value equality.
                    assert_eq!(
                        report.to_json().render(),
                        expected[id].to_json().render(),
                        "request {id} serialization diverged"
                    );
                }
                Response::Rejected { kind, message, .. } => {
                    panic!("request {id} rejected [{kind}]: {message}")
                }
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed_ok, requests.len() as u64);
        // Three distinct (netlist fp, options fp) keys — the cache
        // built exactly three sessions no matter how workers raced.
        assert_eq!(stats.cache_misses, 3, "at {workers} workers");
        assert_eq!(stats.cache_hits, requests.len() as u64 - 3);
        // Each of the three sessions saw at least one 3-D command, so
        // the pseudo-3-D stage ran exactly once per key.
        assert_eq!(
            obs.manifest().counter("flow/pseudo3d_runs"),
            Some(3),
            "pseudo-3-D must run once per distinct key at {workers} workers"
        );
    }
}

#[test]
fn saturated_queue_rejects_with_overloaded() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 4,
        obs: Obs::disabled(),
        store: None,
        sweep_inflight_cap: 4,
    });
    // A slow request (the full five-way comparison) occupies the one
    // worker...
    let slow = server.submit(request(
        0,
        spec(31),
        quick_options(8),
        FlowCommand::CompareConfigs,
    ));
    await_condition("worker to start", || server.stats().started >= 1);
    // ...so of the next two, one fills the queue and one must be
    // rejected — explicitly, immediately, not silently blocked.
    let queued = server.submit(request(
        1,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::TwoD9T,
            frequency_ghz: 0.8,
        },
    ));
    let rejected = server.submit(request(
        2,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::TwoD9T,
            frequency_ghz: 0.8,
        },
    ));
    let rejection = rejected.wait();
    assert_eq!(rejection.reject_kind(), Some(RejectKind::Overloaded));
    assert_eq!(rejection.id(), Some(2));
    assert!(slow.wait().is_ok());
    assert!(queued.wait().is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.rejected_overloaded, 1);
    assert_eq!(stats.completed_ok, 2);
}

#[test]
fn queue_time_deadlines_reject_instead_of_running() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 4,
        obs: Obs::disabled(),
        store: None,
        sweep_inflight_cap: 4,
    });
    let slow = server.submit(request(
        0,
        spec(31),
        quick_options(8),
        FlowCommand::CompareConfigs,
    ));
    await_condition("worker to start", || server.stats().started >= 1);
    // Queued behind the slow request with a deadline it cannot make.
    let hopeless = server.submit(FlowRequest {
        deadline_ms: Some(0),
        ..request(
            1,
            spec(31),
            quick_options(8),
            FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: 0.8,
            },
        )
    });
    // And one whose deadline is generous enough to survive the wait.
    let patient = server.submit(FlowRequest {
        deadline_ms: Some(600_000),
        ..request(
            2,
            spec(31),
            quick_options(8),
            FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: 0.8,
            },
        )
    });
    let rejection = hopeless.wait();
    assert_eq!(rejection.reject_kind(), Some(RejectKind::Deadline));
    assert!(patient.wait().is_ok());
    assert!(slow.wait().is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed_ok, 2);
}

#[test]
fn drain_completes_every_accepted_request() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 4,
        obs: Obs::disabled(),
        store: None,
        sweep_inflight_cap: 4,
    });
    let accepted: Vec<Pending> = (0..6)
        .map(|i| {
            server.submit(request(
                i,
                spec(31),
                quick_options(8),
                FlowCommand::RunFlow {
                    config: Config::TwoD12T,
                    frequency_ghz: 0.9,
                },
            ))
        })
        .collect();
    // Stop admission while (most of) the queue is still pending...
    server.begin_drain();
    let late = server.submit(request(
        99,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::TwoD12T,
            frequency_ghz: 0.9,
        },
    ));
    // ...the straggler is rejected, but everything admitted completes.
    let late_rejection = late.wait();
    assert_eq!(late_rejection.reject_kind(), Some(RejectKind::Shutdown));
    for (i, pending) in accepted.into_iter().enumerate() {
        let response = pending.wait();
        assert!(response.is_ok(), "accepted request {i} must complete");
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed_ok, 6);
    assert_eq!(stats.rejected_shutdown, 1);
}

#[test]
fn invalid_flow_inputs_are_flow_rejections() {
    let server = Server::start(ServerConfig::default());
    let response = server
        .submit(request(
            5,
            spec(31),
            quick_options(8),
            FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: -1.0,
            },
        ))
        .wait();
    assert_eq!(response.reject_kind(), Some(RejectKind::Flow));
    assert_eq!(response.id(), Some(5));
    let stats = server.shutdown();
    assert_eq!(stats.failed_flow, 1);
}

#[test]
fn out_of_bounds_requests_are_protocol_rejections_and_the_worker_survives() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 4,
        obs: Obs::disabled(),
        store: None,
        sweep_inflight_cap: 4,
    });
    // Scales that would saturate the f64 → usize cast when sizing the
    // netlist (or are outright nonsense) must be bounced at admission —
    // never handed to a worker to panic on.
    for (id, scale) in [(0, 1e18), (1, f64::NAN), (2, -1.0)] {
        let response = server
            .submit(request(
                id,
                NetlistSpec {
                    benchmark: Benchmark::Aes,
                    scale,
                    seed: 31,
                },
                quick_options(8),
                FlowCommand::RunFlow {
                    config: Config::TwoD9T,
                    frequency_ghz: 1.0,
                },
            ))
            .wait();
        assert_eq!(
            response.reject_kind(),
            Some(RejectKind::Protocol),
            "scale {scale} must be rejected"
        );
        assert_eq!(response.id(), Some(id));
    }
    // The lone worker survived all three and still serves real work.
    let ok = server
        .submit(request(
            9,
            spec(31),
            quick_options(8),
            FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: 1.0,
            },
        ))
        .wait();
    assert!(ok.is_ok(), "worker must survive rejected requests");
    let stats = server.shutdown();
    assert_eq!(stats.rejected_protocol, 3);
    assert_eq!(
        stats.accepted, 1,
        "out-of-bounds requests are never admitted"
    );
    assert_eq!(stats.completed_ok, 1);
}

#[test]
fn shutdown_is_not_blocked_by_idle_connections() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).expect("connect");
    idle.send(&request(
        1,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::TwoD9T,
            frequency_ghz: 1.0,
        },
    ))
    .expect("send");
    assert!(idle.recv().expect("recv").is_ok());
    // The client keeps its connection open and goes quiet. Shutdown
    // must close the read half rather than wait for a hangup that
    // never comes.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown must complete despite the idle connection");
    assert_eq!(stats.completed_ok, 1);
    // The server hung up on its side; the idle client sees EOF.
    assert!(idle.recv().is_err());
}

#[test]
fn tcp_round_trip_handles_malformed_lines_and_real_requests() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut probe = Client::connect(addr).expect("connect");
    // Not JSON at all.
    probe.send_raw("this is not json").expect("send");
    let r = probe.recv().expect("recv");
    assert_eq!(r.reject_kind(), Some(RejectKind::Protocol));
    assert_eq!(r.id(), None);
    // Valid JSON, wrong shape: the id is salvaged into the rejection.
    probe.send_raw(r#"{"id": 9, "netlist": 4}"#).expect("send");
    let r = probe.recv().expect("recv");
    assert_eq!(r.reject_kind(), Some(RejectKind::Protocol));
    assert_eq!(r.id(), Some(9));
    // Truncated JSON.
    probe.send_raw(r#"{"id": 9, "netlist"#).expect("send");
    let r = probe.recv().expect("recv");
    assert_eq!(r.reject_kind(), Some(RejectKind::Protocol));
    // Well-formed JSON whose netlist scale is far outside the
    // admissible range: bounced `protocol` at decode, id echoed.
    let mut oversize = request(
        7,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::TwoD9T,
            frequency_ghz: 1.0,
        },
    );
    oversize.netlist.scale = 1e18;
    probe.send(&oversize).expect("send");
    let r = probe.recv().expect("recv");
    assert_eq!(r.reject_kind(), Some(RejectKind::Protocol));
    assert_eq!(r.id(), Some(7));

    // The connection survives all of that and still serves real work,
    // concurrently from a second client, bit-identical to the library.
    let real = request(
        42,
        spec(31),
        quick_options(8),
        FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
    );
    let expected = direct_report(&real);
    let mut second = Client::connect(addr).expect("connect");
    second.send(&real).expect("send");
    probe.send(&real).expect("send");
    for client in [&mut probe, &mut second] {
        match client.recv().expect("recv") {
            Response::Ok { id, report, .. } => {
                assert_eq!(id, 42);
                assert_eq!(*report, expected);
            }
            Response::Rejected { kind, message, .. } => panic!("rejected [{kind}]: {message}"),
        }
    }
    drop(probe);
    drop(second);
    let stats = server.shutdown();
    assert_eq!(stats.completed_ok, 2);
    assert_eq!(stats.rejected_protocol, 4);
    assert_eq!(stats.cache_misses, 1, "both clients shared one session");
    assert_eq!(stats.cache_hits, 1);
}

/// The exact line a front answers a malformed request with, for a line
/// that is not JSON and for JSON of the wrong shape (id salvaged).
#[test]
fn served_rejection_lines_are_pinned_byte_for_byte() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut probe = Client::connect(server.local_addr()).expect("connect");
    let mut served = |line: &str| {
        probe.send_raw(line).expect("send");
        probe.recv_raw().expect("recv")
    };
    assert_eq!(
        served("this is not json"),
        concat!(
            r#"{"status":"rejected","kind":"protocol","#,
            r#""message":"request is not JSON: bad literal at byte 0"}"#,
            "\n"
        )
    );
    assert_eq!(
        served(r#"{"id": 9, "netlist": 4}"#),
        concat!(
            r#"{"id":9,"status":"rejected","kind":"protocol","#,
            r#""message":"request is not a FlowRequest: netlist: expected an object"}"#,
            "\n"
        )
    );
    drop(probe);
    assert_eq!(server.shutdown().rejected_protocol, 2);
}
