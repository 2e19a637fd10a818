//! Edge cases of the TCP front the server and the router share:
//! arbitrary TCP fragmentation and coalescing of request lines, write
//! backpressure against a slow reader (bounded buffering, never
//! unbounded), mid-request disconnects, a line nested past the JSON
//! depth cap, and graceful drain under a thousand idle connections.

use m3d_flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, FlowSession, NetlistSpec, Proto,
};
use m3d_netgen::Benchmark;
use m3d_obs::Obs;
use m3d_serve::{
    encode_line, raise_nofile_limit, Client, RejectKind, Response, Router, RouterConfig,
    ServerConfig, TcpServer, TcpTuning,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn request(id: u64, seed: u64) -> FlowRequest {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 8;
    FlowRequest {
        id,
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.012,
            seed,
        },
        options,
        proto: Proto::V1,
        command: FlowCommand::RunFlow {
            config: Config::TwoD9T,
            frequency_ghz: 1.0,
        },
        deadline_ms: None,
    }
}

fn direct_report(req: &FlowRequest) -> FlowReport {
    FlowSession::builder(&req.netlist.materialize())
        .options(req.options.clone())
        .build()
        .expect("valid netlist")
        .execute(&req.command)
        .expect("direct flow")
}

fn await_condition(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn perf(obs: &Obs, name: &str) -> u64 {
    obs.manifest()
        .perf
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn a_request_split_across_many_tcp_segments_still_decodes() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let req = request(11, 31);
    let expected = direct_report(&req);
    let line = encode_line(&req);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Dribble the line out a few bytes at a time with pauses, so the
    // front's reader sees the request as dozens of separate reads, each
    // delivering a fragment of one line.
    for chunk in line.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("write");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("read");
    let got = m3d_serve::protocol::decode_response(&reply).expect("decode");
    match got {
        Response::Ok { id, report, .. } => {
            assert_eq!(id, 11);
            assert_eq!(*report, expected);
        }
        Response::Rejected { kind, message, .. } => panic!("rejected [{kind}]: {message}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(
        stats.rejected_protocol, 0,
        "fragments must never decode early"
    );
}

#[test]
fn requests_coalesced_into_one_segment_are_all_answered() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let reqs: Vec<FlowRequest> = (0..3).map(|i| request(i, 31 + i)).collect();
    let expected: Vec<FlowReport> = reqs.iter().map(direct_report).collect();

    // Three requests (plus framing noise: blank and whitespace-only
    // lines) delivered to the front in a single write — one read
    // carrying several complete lines.
    let mut batch = String::new();
    for req in &reqs {
        batch.push_str(&encode_line(req));
        batch.push('\n');
        batch.push_str("   \n");
    }
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    (&stream).write_all(batch.as_bytes()).expect("write");
    let mut reader = BufReader::new(&stream);
    let mut seen = vec![false; reqs.len()];
    for _ in 0..reqs.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        match m3d_serve::protocol::decode_response(&line).expect("decode") {
            Response::Ok { id, report, .. } => {
                assert_eq!(*report, expected[id as usize]);
                seen[id as usize] = true;
            }
            Response::Rejected { kind, message, .. } => panic!("rejected [{kind}]: {message}"),
        }
    }
    assert!(seen.iter().all(|s| *s), "every coalesced request answered");
    drop(reader);
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.completed_ok, 3);
    assert_eq!(stats.accepted, 3, "blank filler lines are not requests");
}

#[test]
fn a_slow_reader_pauses_reads_instead_of_buffering_without_bound() {
    const LINES: usize = 80_000;
    let obs = Obs::enabled();
    let high_water = 1024;
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            obs: obs.clone(),
            ..ServerConfig::default()
        },
        TcpTuning {
            write_high_water: high_water,
        },
    )
    .expect("bind");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        // ~8 MB of malformed lines, each answered in-line with a
        // `protocol` rejection of similar size — far more than the
        // kernel's socket buffers can absorb while this test refuses to
        // read, so an unbounded server-side buffer would grow by
        // megabytes here.
        let mut flood = String::with_capacity(LINES * 101);
        for i in 0..LINES {
            flood.push_str(&format!("not json {i:090}\n"));
        }
        write_half.write_all(flood.as_bytes()).expect("write flood");
    });

    // Refuse to read until the server has demonstrably paused reads on
    // this connection (write buffer above the high-water mark).
    await_condition("the server to pause reads", || {
        perf(&obs, "serve/read_paused") >= 1
    });
    // Keep refusing until the server stops answering: a front that kept
    // reading would answer the rest of the flood into its own buffer.
    let engine = server.server().clone();
    let mut answered = engine.stats().rejected_protocol;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = engine.stats().rejected_protocol;
        if now == answered {
            break;
        }
        answered = now;
    }

    // Now drain everything: all LINES rejections arrive, in order.
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    for i in 0..LINES {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "connection died after {i} responses"
        );
        assert!(
            line.contains("\"kind\": \"protocol\"") || line.contains("\"kind\":\"protocol\""),
            "response {i} was not a protocol rejection: {line}"
        );
    }
    writer.join().expect("writer");
    drop(reader);
    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.rejected_protocol, LINES as u64);

    // Boundedness: the outbound buffer never exceeded the high-water
    // mark by more than one read batch's worth of rejections.
    let peak = obs
        .manifest()
        .gauge("serve/write_buffer_peak")
        .expect("peak gauge");
    assert!(
        peak <= (high_water + 256 * 1024) as f64,
        "write buffer peaked at {peak} bytes — backpressure did not engage"
    );
}

#[test]
fn a_mid_request_disconnect_leaves_the_server_healthy() {
    let obs = Obs::enabled();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            obs: obs.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Send the first half of a request line, then vanish.
    let req = request(3, 31);
    let line = encode_line(&req);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&line.as_bytes()[..line.len() / 2])
        .expect("write");
    drop(stream);
    await_condition("the dropped connection to be reaped", || {
        perf(&obs, "serve/conns_closed") >= 1
    });

    // The server neither decoded the fragment nor got wedged: a fresh
    // client is served normally.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let response = client.call(&request(4, 31)).expect("call");
    assert!(response.is_ok());
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "the half-request must never be admitted");
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(stats.rejected_protocol, 0);
}

#[test]
fn drain_completes_under_a_thousand_idle_connections() {
    const IDLE: usize = 1000;
    raise_nofile_limit(8192);
    let obs = Obs::enabled();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            obs: obs.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    await_condition("all idle connections to be accepted", || {
        perf(&obs, "serve/conns_accepted") >= (IDLE + 1) as u64
    });
    assert!(client.call(&request(1, 31)).expect("call").is_ok());

    // Shutdown must not wait on connections that will never speak.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown must complete despite 1000 idle connections");
    assert_eq!(stats.completed_ok, 1);

    // Every idle client sees a clean EOF, not a hang.
    for (i, stream) in idle.iter().enumerate().step_by(97) {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        let n = (&*stream)
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("idle connection {i} errored instead of clean EOF: {e}"));
        assert_eq!(n, 0, "idle connection {i} expected EOF");
    }
}

/// One line of 100 000 `[` — a tenth of the line cap — used to overflow
/// the decoding thread's stack and abort the process. Both fronts now
/// answer it `protocol`, naming where the nesting passed the cap, and
/// serve the connection's next request.
#[test]
fn a_line_nested_past_the_depth_cap_is_a_protocol_rejection_on_both_fronts() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![server.local_addr()]))
        .expect("router bind");
    let req = request(5, 31);
    let expected = direct_report(&req);
    for addr in [server.local_addr(), router.local_addr()] {
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&"[".repeat(100_000)).expect("send");
        match client.recv().expect("an answer, not a dead peer") {
            Response::Rejected { id, kind, message } => {
                assert_eq!((id, kind), (None, RejectKind::Protocol));
                assert_eq!(
                    message,
                    format!(
                        "request is not JSON: nesting deeper than {} levels at byte {}",
                        m3d_json::MAX_DEPTH,
                        m3d_json::MAX_DEPTH
                    )
                );
            }
            ok => panic!("expected a protocol rejection, got {ok:?}"),
        }
        match client.call(&req).expect("call") {
            Response::Ok { id, report, .. } => {
                assert_eq!(id, 5);
                assert_eq!(*report, expected);
            }
            Response::Rejected { kind, message, .. } => panic!("rejected [{kind}]: {message}"),
        }
    }
    assert_eq!(router.shutdown().rejected_protocol, 1);
    let stats = server.shutdown();
    assert_eq!(stats.rejected_protocol, 1);
    assert_eq!(stats.completed_ok, 2);
}
