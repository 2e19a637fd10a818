//! Protocol-v2 streaming sweeps through the service: stream shape
//! (`progress` → `point`* → `done`), field-identity with the
//! equivalent v1 single-shot sequence at multiple worker counts,
//! exactly one pseudo-3-D build per sweep (no scenario axis is read in
//! front of that checkpoint, so every scenario shares it), fairness quota
//! accounting, and mid-stream disconnect cancellation over real TCP.

use m3d_flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, FlowSession, NetlistSpec, Proto,
    SweepSpec,
};
use m3d_json::ToJson;
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{
    Client, RejectKind, Response, Server, ServerConfig, ServerMessage, StreamEvent, TcpServer,
};
use m3d_tech::{Corner, StackingStyle};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
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

fn sweep_request(id: u64, spec_: SweepSpec) -> FlowRequest {
    FlowRequest {
        id,
        netlist: spec(31),
        options: quick_options(8),
        command: FlowCommand::Sweep { spec: spec_ },
        deadline_ms: None,
        proto: Proto::V2,
    }
}

/// Two scenarios (stacking × corner), two configs, two frequencies:
/// 8 points over one cache key (the scenario is read behind the
/// session's checkpoints).
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

/// The per-client sweep cap of [`config`].
const SWEEP_CAP: usize = 4;

fn config(workers: usize, obs: &Obs) -> ServerConfig {
    ServerConfig {
        workers,
        queue_depth: 64,
        cache_capacity: 8,
        obs: obs.clone(),
        store: None,
        sweep_inflight_cap: SWEEP_CAP,
    }
}

/// Ground truth for one decomposed point request: the library session
/// path, sharing one session per scenario exactly as a v1 client
/// exploring the grid by hand would.
fn direct_reports(points: &[FlowRequest]) -> Vec<FlowReport> {
    let mut sessions: HashMap<String, FlowSession> = HashMap::new();
    points
        .iter()
        .map(|p| {
            let session = sessions.entry(p.options.fingerprint()).or_insert_with(|| {
                FlowSession::builder(&p.netlist.materialize())
                    .options(p.options.clone())
                    .build()
                    .expect("valid netlist")
            });
            session.execute(&p.command).expect("direct flow")
        })
        .collect()
}

/// Splits a finished stream into (progress, indexed points, done),
/// asserting the shape: progress first, done last, no errors.
fn dissect(
    messages: &[ServerMessage],
    expect_total: u64,
) -> (Vec<(u64, bool, FlowReport)>, u64, u64) {
    assert!(
        matches!(
            messages.first(),
            Some(ServerMessage::Event(StreamEvent::Progress { total, .. })) if *total == expect_total
        ),
        "stream must open with progress for {expect_total}: {:?}",
        messages.first().map(std::mem::discriminant)
    );
    let Some(ServerMessage::Event(StreamEvent::Done { points, errors, .. })) = messages.last()
    else {
        panic!("stream must end with done");
    };
    let mut indexed = Vec::new();
    for message in &messages[1..messages.len() - 1] {
        match message {
            ServerMessage::Event(StreamEvent::Point {
                index,
                cache_hit,
                report,
                ..
            }) => indexed.push((*index, *cache_hit, report.as_ref().clone())),
            other => panic!("unexpected mid-stream message: {other:?}"),
        }
    }
    indexed.sort_by_key(|(index, ..)| *index);
    (indexed, *points, *errors)
}

#[test]
fn streamed_sweeps_match_v1_singles_at_any_worker_count() {
    let request = sweep_request(7, small_sweep());
    let points = request.decompose_sweep().expect("sweep decomposes");
    let expected = direct_reports(&points);
    for workers in [1, 4] {
        let obs = Obs::enabled();
        let server = Server::start(config(workers, &obs));
        let messages = server.submit_stream(request.clone()).wait();
        let (indexed, delivered, errors) = dissect(&messages, points.len() as u64);
        assert_eq!(errors, 0, "no point may fail at {workers} workers");
        assert_eq!(delivered, points.len() as u64);
        assert_eq!(indexed.len(), points.len());
        for ((index, _, report), expected) in indexed.iter().zip(&expected) {
            assert_eq!(
                report, expected,
                "point {index} at {workers} workers diverged from the v1 single-shot"
            );
            assert_eq!(
                report.to_json().render(),
                expected.to_json().render(),
                "point {index} serialization diverged"
            );
        }
        let stats = server.shutdown();
        // v1 counters untouched; all accounting in the sweep_* family.
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.completed_ok, 0);
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.sweep_points, points.len() as u64);
        assert_eq!(stats.sweep_point_errors, 0);
        // A lone sweep defers every point past the cap, at any worker
        // count.
        assert_eq!(stats.quota_deferred, (points.len() - SWEEP_CAP) as u64);
        // One checkpoint for both stacking scenarios, built exactly
        // once; one prefix per (config, stacking), forked by its second
        // frequency.
        assert_eq!(stats.cache_misses, 1, "at {workers} workers");
        assert_eq!(stats.pseudo_builds, 1, "at {workers} workers");
        assert_eq!(
            obs.manifest().counter("flow/pseudo3d_runs"),
            Some(1),
            "pseudo-3-D must run once per sweep at {workers} workers"
        );
        assert_eq!((stats.prefix_builds, stats.prefix_forks), (4, 4));
    }
}

#[test]
fn fairness_cap_defers_points_past_the_cap() {
    let obs = Obs::enabled();
    let server = Server::start(ServerConfig {
        sweep_inflight_cap: 2,
        ..config(1, &obs)
    });
    let request = sweep_request(3, small_sweep());
    let total = request.decompose_sweep().expect("sweep decomposes").len() as u64;
    let messages = server.submit_stream(request).wait();
    let (_, delivered, errors) = dissect(&messages, total);
    assert_eq!((delivered, errors), (total, 0));
    let stats = server.shutdown();
    // A lone sweep defers deterministically: everything past the cap
    // waits, whatever the worker scheduling.
    assert_eq!(stats.quota_deferred, total - 2);
    assert_eq!(stats.sweep_points, total);
    assert_eq!(stats.sweep_cancelled_points, 0);
}

#[test]
fn submit_rejects_sweeps_toward_single_response_channels() {
    let server = Server::start(config(1, &Obs::disabled()));
    let response = server.submit(sweep_request(9, small_sweep())).wait();
    match response {
        Response::Rejected { id, kind, .. } => {
            assert_eq!(id, Some(9));
            assert_eq!(kind, RejectKind::Protocol);
        }
        Response::Ok { .. } => panic!("a sweep cannot fit in a single response"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_protocol, 1);
    assert_eq!(stats.sweeps, 0);
}

#[test]
fn v1_requests_stream_as_single_responses() {
    let server = Server::start(config(1, &Obs::disabled()));
    let request = FlowRequest {
        id: 5,
        netlist: spec(31),
        options: quick_options(8),
        command: FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
        deadline_ms: None,
        proto: Proto::V1,
    };
    let messages = server.submit_stream(request).wait();
    assert_eq!(messages.len(), 1);
    assert!(matches!(
        &messages[0],
        ServerMessage::Response(Response::Ok { id: 5, .. })
    ));
    let _ = server.shutdown();
}

#[test]
fn tcp_sweeps_stream_alongside_v1_requests_on_one_connection() {
    let server = TcpServer::bind("127.0.0.1:0", config(2, &Obs::disabled())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A v1 request first: the connection is a plain v1 connection
    // until a sweep shows up.
    let single = FlowRequest {
        id: 1,
        netlist: spec(31),
        options: quick_options(8),
        command: FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.0,
        },
        deadline_ms: None,
        proto: Proto::V1,
    };
    let response = client.call(&single).expect("v1 call");
    assert!(response.is_ok());
    let request = sweep_request(2, small_sweep());
    let total = request.decompose_sweep().expect("sweep decomposes").len() as u64;
    let messages = client.call_stream(&request).expect("sweep stream");
    let events: Vec<&StreamEvent> = messages
        .iter()
        .map(|m| match m {
            ServerMessage::Event(e) => e,
            ServerMessage::Response(r) => panic!("unexpected response mid-stream: {r:?}"),
        })
        .collect();
    let (_, delivered, errors) = dissect(&messages, total);
    assert_eq!((delivered, errors), (total, 0));
    assert_eq!(events.len() as u64, total + 2);
    // And the connection still answers v1 afterwards.
    let mut after = single;
    after.id = 3;
    let response = client.call(&after).expect("v1 call after sweep");
    assert!(response.is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.sweeps, 1);
    assert_eq!(stats.completed_ok, 2);
}

#[test]
fn mid_stream_disconnect_cancels_remaining_points_and_pool_survives() {
    mid_stream_disconnect(false);
}

/// The client ends its write half first, so the server's reader has
/// already met a clean EOF: only the connection's writer can notice the
/// hangup, and its write error must cancel the sweep just the same.
#[test]
fn a_hangup_after_a_half_close_cancels_the_sweep_through_the_writer() {
    mid_stream_disconnect(true);
}

/// Sends a sweep on a raw connection, hangs up once it is admitted, and
/// checks that the remaining points are cancelled and the pool survives.
fn mid_stream_disconnect(half_close: bool) {
    let obs = Obs::enabled();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            sweep_inflight_cap: 1,
            ..config(1, &obs)
        },
    )
    .expect("bind");
    let request = sweep_request(11, small_sweep());
    let total = request.decompose_sweep().expect("sweep decomposes").len() as u64;
    {
        // A raw connection we can abandon mid-stream: send the sweep,
        // read nothing, hang up.
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(m3d_serve::encode_line(&request).as_bytes())
            .expect("send sweep");
        stream.flush().expect("flush");
        // Give the shard a moment to admit the sweep before vanishing.
        let engine = server.server().clone();
        let deadline = Instant::now() + Duration::from_secs(120);
        while engine.stats().sweeps == 0 {
            assert!(Instant::now() < deadline, "sweep was never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        if half_close {
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half close");
            let mut progress = String::new();
            BufReader::new(&stream)
                .read_line(&mut progress)
                .expect("the progress line");
            assert!(progress.contains("\"progress\""), "{progress}");
        }
    } // <- disconnect
    let engine = server.server().clone();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = engine.stats();
        if stats.sweep_points + stats.sweep_point_errors + stats.sweep_cancelled_points == total {
            assert!(
                stats.sweep_cancelled_points > 0,
                "the disconnect must cancel at least the deferred tail: {stats:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep accounting never settled: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The pool survived: a fresh client gets a real answer.
    let mut client = Client::connect(server.local_addr()).expect("connect after disconnect");
    let response = client
        .call(&FlowRequest {
            id: 99,
            netlist: spec(31),
            options: quick_options(8),
            command: FlowCommand::RunFlow {
                config: Config::Hetero3d,
                frequency_ghz: 1.0,
            },
            deadline_ms: None,
            proto: Proto::V1,
        })
        .expect("post-disconnect call");
    assert!(response.is_ok(), "pool must stay healthy: {response:?}");
    // Shutdown completes: every point was accounted for, nothing hangs.
    let stats = server.shutdown();
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(
        stats.sweep_points + stats.sweep_point_errors + stats.sweep_cancelled_points,
        total
    );
}

const PROP_CONFIGS: [Config; 3] = [Config::Hetero3d, Config::TwoD12T, Config::ThreeD9T];

fn arb_sweep() -> impl Strategy<Value = SweepSpec> {
    (1..3usize, 1..3usize, 1..3usize, 1..3usize, 0..2usize).prop_map(
        |(n_configs, n_styles, n_corners, steps, first_config)| SweepSpec {
            configs: PROP_CONFIGS[first_config..first_config + n_configs].to_vec(),
            stacking: StackingStyle::ALL[..n_styles].to_vec(),
            corners: Corner::ALL[..n_corners].to_vec(),
            freq_min_ghz: 0.9,
            freq_max_ghz: 1.2,
            freq_steps: steps,
        },
    )
}

proptest! {
    // Real flows run in here, so the case count is deliberately small;
    // the space of stream shapes is tiny (grid-axis combinations), so
    // six cases already cover single/multi values on every axis.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // THE v2 semantic contract: any sweep's streamed points are
    // field-identical to the concatenated reports of its decomposed v1
    // single-shots.
    #[test]
    fn any_sweep_streams_its_v1_decomposition(spec_ in arb_sweep()) {
        let request = sweep_request(1, spec_);
        let points = request.decompose_sweep().expect("sweep decomposes");
        let expected = direct_reports(&points);
        let server = Server::start(config(2, &Obs::disabled()));
        let messages = server.submit_stream(request).wait();
        let (indexed, delivered, errors) = dissect(&messages, points.len() as u64);
        prop_assert_eq!(errors, 0);
        prop_assert_eq!(delivered, points.len() as u64);
        prop_assert_eq!(indexed.len(), points.len());
        for ((index, _, report), expected) in indexed.iter().zip(&expected) {
            prop_assert_eq!(report, expected, "point {} diverged", index);
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.sweep_points, points.len() as u64);
    }
}
