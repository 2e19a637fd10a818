//! Service benchmark emitting `results/BENCH_serve.json`: runs a mixed
//! design-space workload through an in-process [`m3d_serve::Server`] at
//! one and four workers and records the checkpoint-cache economics.
//!
//! The deterministic section is the point. The workload spreads
//! `requests` queries over `keys` distinct `(netlist, options)` cache
//! keys, so regardless of worker scheduling:
//!
//! * `cache_misses == keys` — the cache builds exactly one session per
//!   distinct key (racing requests share the in-flight build);
//! * `pseudo3d_runs == keys` — every key sees at least one 3-D command,
//!   and the shared checkpoint makes the pseudo-3-D stage run exactly
//!   once per session, never once per request;
//! * `identical_across_workers` — the semantic response set (ids,
//!   statuses, reports) at four workers is byte-identical to one
//!   worker. The per-response `cache_hit` bit is excluded from this
//!   fingerprint for *concurrently submitted* workloads: which of
//!   several racing requests on one key builds the session (a miss)
//!   and which share it (hits) is scheduling-dependent, even though
//!   the session — and every report — is not. The aggregate hit/miss
//!   counts stay exactly gated.
//!
//! Wall-clock fields (`wall_ms_*`) are informational only; `bench_gate`
//! checks the deterministic fields exactly and floors the hit rate.
//!
//! A **warm-restart** phase measures the persistent store: the
//! workload runs once against a store-backed server (populating the
//! store), then again on a *fresh* server over the same store
//! directory — simulating a daemon restart. Deterministically:
//! `warm_store_hits == keys` (every distinct key rehydrates from
//! disk), `warm_pseudo3d_runs == 0` (the restarted server never
//! re-runs the expensive stage) and `warm_identical_to_cold` (the
//! rendered responses match byte for byte).
//!
//! A **decode-churn** phase installs [`CountingAlloc`] and replays the
//! workload's own wire lines through the request-decode path the TCP
//! front runs ([`m3d_serve::decode_request`]: a parse tree borrowing
//! from the line, no per-field `String`). The bytes allocated per decode
//! land in `decode_churn_borrowed_bytes`; the gate holds them under the
//! committed baseline.
//!
//! A **connection-scaling** phase exercises the TCP front end to end:
//! at one and four workers it serves the workload over a single reused
//! [`Client`] connection, measures the p99 of a probe
//! request stream with no other connections, then parks
//! `conn_idle_connections` idle sockets on the front and measures the
//! same stream again. An idle connection is two threads parked in
//! blocking calls, so the idle herd must not move the active path:
//! the gate ceilings `conn_p99_ratio_*` and requires the served
//! responses byte-identical across worker counts *and* to the
//! in-process engine.
//!
//! A **streaming-sweep** phase runs a protocol-v2 design-space sweep
//! (configs × stacking × corners × frequencies) through the engine at
//! one and four workers. Deterministically: `sweep_points` points all
//! stream, `sweep_pseudo3d_runs == 1` (no scenario axis is read in
//! front of the pseudo-3-D checkpoint, so the `sweep_scenarios`
//! technology scenarios share one session — never one per grid point),
//! `sweep_quota_deferred == points - cap` (fairness admission is
//! scheduling-independent for a lone sweep), and the streamed reports
//! are byte-identical to the sweep's own v1 single-shot decomposition
//! (`sweep_identical_to_v1`) and across worker counts
//! (`sweep_identical_across_workers`).
//!
//! A **fairness** phase proves the per-client in-flight cap keeps the
//! interactive path usable: with a 64-point sweep streaming on one TCP
//! connection, a second connection's probe p99 is sampled and compared
//! against its sweep-free baseline. The cap (2, below the worker
//! count) means a sweep can never occupy the whole pool, so the probe
//! only pays CPU sharing — a few probe-times — instead of queueing
//! behind the sweep's 60+ remaining points (hundreds of milliseconds).
//! The gate ceilings `fair_p99_ratio` and exact-checks
//! `fair_quota_deferred`.
//!
//! A **router** phase stands the consistent-hash shard router in front
//! of one and four fresh backend services and replays the workload
//! line-by-line: `router_identical` requires the routed response bytes
//! equal a direct single-server connection at both shard counts, and
//! `router_single_build` requires the cluster-wide cache-miss total to
//! equal `distinct_keys` — every checkpoint key built on exactly one
//! shard.
//!
//! Usage: `serve_bench [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! The default scale is the CI smoke setting (0.02).
//!
//! [`CountingAlloc`]: hetero3d::obs::CountingAlloc

use hetero3d::flow::{Config, FlowCommand, FlowRequest, NetlistSpec, Proto, SweepSpec};
use hetero3d::netgen::Benchmark;
use hetero3d::obs::{alloc, Obs};
use hetero3d::tech::{Corner, StackingStyle};
use m3d_serve::{
    raise_nofile_limit, Client, Pending, Response, Router, RouterConfig, Server, ServerConfig,
    ServerMessage, StatsSnapshot, Store, StreamEvent, TcpServer,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: hetero3d::obs::CountingAlloc = hetero3d::obs::CountingAlloc;

/// Distinct cache keys in the workload (option variants of one netlist).
const KEYS: usize = 2;

/// Idle connections parked on the front during the scaling phase.
const IDLE_CONNS: usize = 1000;

/// Timed probe calls per p99 sample set in the scaling phase. At 120
/// samples the p99 is the third-largest observation, which smooths the
/// single-outlier jitter a shared CI runner injects.
const CONN_SAMPLES: usize = 120;

/// Untimed probe calls that warm the connection before sampling.
const CONN_WARMUP: usize = 5;

/// Rounds of the decode-churn loop (each round decodes every workload
/// line once).
const CHURN_ROUNDS: u64 = 64;

/// The workload: every command kind, every key, with repeats. Each key
/// gets 3-D work (pseudo-3-D checkpoint demand) and repeated queries
/// (cache-hit demand).
fn workload(scale: f64, seed: u64) -> Vec<FlowRequest> {
    let netlist = NetlistSpec {
        benchmark: Benchmark::Aes,
        scale,
        seed,
    };
    let variant = |k: usize| {
        let mut o = m3d_bench::bench_options();
        o.placer_mut().iterations = 10 + k;
        o
    };
    let run = |config, frequency_ghz| FlowCommand::RunFlow {
        config,
        frequency_ghz,
    };
    let commands = [
        run(Config::Hetero3d, 1.0),
        run(Config::TwoD12T, 1.0),
        run(Config::ThreeD9T, 0.9),
        FlowCommand::FindFmax {
            config: Config::Hetero3d,
            start_ghz: 1.0,
        },
        run(Config::Hetero3d, 1.0), // exact repeat of the first query
    ];
    let mut out = Vec::new();
    for key in 0..KEYS {
        for command in &commands {
            out.push(FlowRequest {
                id: out.len() as u64,
                netlist,
                options: variant(key),
                command: command.clone(),
                deadline_ms: None,
                proto: Proto::V1,
            });
        }
    }
    out
}

/// Renders a response with the `cache_hit` telemetry bit normalized
/// away: under concurrent submission, which racing request is charged
/// the miss is scheduling-dependent, so the identity fingerprint
/// compares only the semantic payload (id, status, report).
fn semantic_fingerprint(response: &Response) -> String {
    use hetero3d::json::ToJson;
    match response {
        Response::Ok { id, report, .. } => Response::Ok {
            id: *id,
            cache_hit: false,
            report: report.clone(),
        }
        .to_json()
        .render(),
        rejected => rejected.to_json().render(),
    }
}

struct Run {
    stats: StatsSnapshot,
    pseudo3d_runs: u64,
    /// Normalized response lines in id order — the identity fingerprint
    /// for concurrently submitted runs (see [`semantic_fingerprint`]).
    semantic: Vec<String>,
    wall_ms: f64,
}

fn run_workload(requests: &[FlowRequest], workers: usize, store: Option<Arc<Store>>) -> Run {
    let obs = Obs::enabled();
    let server = Server::start(ServerConfig {
        workers,
        queue_depth: requests.len().max(1),
        cache_capacity: KEYS + 2,
        obs: obs.clone(),
        store,
        sweep_inflight_cap: 4,
    });
    let started = Instant::now();
    let pending: Vec<Pending> = requests.iter().map(|r| server.submit(r.clone())).collect();
    let mut responses: Vec<Response> = pending.into_iter().map(Pending::wait).collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    responses.sort_by_key(|r| r.id());
    let semantic = responses.iter().map(semantic_fingerprint).collect();
    let stats = server.shutdown();
    Run {
        stats,
        pseudo3d_runs: obs.manifest().counter("flow/pseudo3d_runs").unwrap_or(0),
        semantic,
        wall_ms,
    }
}

/// Bytes allocated per request decode, over the workload's own wire
/// lines. Runs single-threaded before any server exists, so the process
/// allocator counters see only this loop.
fn decode_churn(requests: &[FlowRequest]) -> u64 {
    let lines: Vec<String> = requests.iter().map(m3d_serve::encode_line).collect();
    let start = alloc::total_allocated_bytes();
    for _ in 0..CHURN_ROUNDS {
        for line in &lines {
            let req = m3d_serve::decode_request(line.trim()).expect("workload line decodes");
            assert!(req.id < requests.len() as u64);
        }
    }
    (alloc::total_allocated_bytes() - start) / (CHURN_ROUNDS * lines.len() as u64)
}

struct ConnScale {
    p99_idle_free_ms: f64,
    p99_with_idle_ms: f64,
    /// Full rendered workload responses served over TCP, in id order.
    /// Sequential calls make even the `cache_hit` bit deterministic, so
    /// across-worker identity here is raw byte identity.
    rendered: Vec<String>,
    /// The same responses normalized (for comparison against the
    /// concurrently submitted in-process runs).
    semantic: Vec<String>,
}

impl ConnScale {
    fn ratio(&self) -> f64 {
        self.p99_with_idle_ms / self.p99_idle_free_ms.max(f64::EPSILON)
    }
}

fn p99_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) * 99 / 100]
}

fn timed_calls(client: &mut Client, probe: &FlowRequest, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            let response = client.call(probe).expect("probe call");
            assert!(response.is_ok(), "probe rejected: {response:?}");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The connection-scaling phase at one worker count: serve the workload
/// and two probe sample sets over a **single reused client connection**
/// (the active stream never reconnects per request), parking
/// [`IDLE_CONNS`] idle sockets on the front between the sample sets.
fn conn_scale(requests: &[FlowRequest], workers: usize) -> ConnScale {
    use hetero3d::json::ToJson;
    // Both ends of every idle socket are open in this process.
    let limit = raise_nofile_limit((2 * IDLE_CONNS + 512) as u64);
    assert!(
        limit >= (2 * IDLE_CONNS + 64) as u64,
        "cannot raise the open-file limit past {limit} — too low for {IDLE_CONNS} idle sockets"
    );
    let obs = Obs::enabled();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_depth: requests.len().max(16),
            cache_capacity: KEYS + 2,
            obs: obs.clone(),
            store: None,
            sweep_inflight_cap: 4,
        },
    )
    .expect("bind conn-scale server");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let responses: Vec<Response> = requests
        .iter()
        .map(|r| client.call(r).expect("workload call"))
        .collect();
    let rendered: Vec<String> = responses.iter().map(|r| r.to_json().render()).collect();
    let semantic: Vec<String> = responses.iter().map(semantic_fingerprint).collect();

    // The probe is the workload's final request: a cache-hit RunFlow,
    // the steady-state shape of a design-space sweep.
    let probe = requests.last().expect("non-empty workload");
    timed_calls(&mut client, probe, CONN_WARMUP);
    let mut base = timed_calls(&mut client, probe, CONN_SAMPLES);
    let p99_idle_free_ms = p99_ms(&mut base);

    let idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // Wait until the front has accepted the whole herd, so the loaded
    // sample set really runs against IDLE_CONNS sockets.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let accepted = obs
            .manifest()
            .perf
            .iter()
            .find(|(n, _)| n == "serve/conns_accepted")
            .map_or(0, |(_, v)| *v);
        if accepted >= (IDLE_CONNS + 1) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the front accepted only {accepted} of {} connections",
            IDLE_CONNS + 1
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    timed_calls(&mut client, probe, CONN_WARMUP);
    let mut loaded = timed_calls(&mut client, probe, CONN_SAMPLES);
    let p99_with_idle_ms = p99_ms(&mut loaded);

    drop(idle);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(
        stats.completed_ok,
        (requests.len() + 2 * (CONN_WARMUP + CONN_SAMPLES)) as u64,
        "every served call completes"
    );
    assert_eq!(
        stats.rejected_protocol, 0,
        "the phase sends only valid lines"
    );
    assert_eq!(
        stats.cache_misses, KEYS as u64,
        "a sequential stream misses exactly once per distinct key"
    );
    ConnScale {
        p99_idle_free_ms,
        p99_with_idle_ms,
        rendered,
        semantic,
    }
}

/// Technology scenarios (stacking × corner) in the streaming-sweep
/// phase's grid.
const SWEEP_SCENARIOS: u64 = 2;

/// Per-client in-flight cap in the fairness phase: below the worker
/// count, so a sweeping client can never occupy the whole pool.
const FAIR_CAP: usize = 2;

/// Sweep-free probe samples establishing the fairness baseline p99.
const FAIR_FREE_SAMPLES: usize = 40;

/// Minimum probe samples taken while the 64-point sweep streams; the
/// loop keeps sampling until the sweep finishes, so the real count is
/// usually higher.
const FAIR_MIN_DURING_SAMPLES: usize = 30;

/// The v2 sweep the streaming phase measures: [`SWEEP_SCENARIOS`]
/// technology scenarios (both stacking styles at the typical corner)
/// × 2 configurations × 2 frequencies = 8 points over the workload's
/// first cache key.
fn sweep_request(scale: f64, seed: u64) -> FlowRequest {
    let mut options = m3d_bench::bench_options();
    options.placer_mut().iterations = 10;
    FlowRequest {
        id: 1000,
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale,
            seed,
        },
        options,
        command: FlowCommand::Sweep {
            spec: SweepSpec {
                configs: vec![Config::Hetero3d, Config::TwoD12T],
                stacking: StackingStyle::ALL.to_vec(),
                corners: vec![Corner::Typical],
                freq_min_ghz: 0.9,
                freq_max_ghz: 1.1,
                freq_steps: 2,
            },
        },
        deadline_ms: None,
        proto: Proto::V2,
    }
}

struct SweepRun {
    /// Point report renders in grid (index) order.
    renders: Vec<String>,
    pseudo3d: u64,
    deferred: u64,
    points: u64,
}

fn run_sweep(request: &FlowRequest, workers: usize) -> SweepRun {
    use hetero3d::json::ToJson;
    let obs = Obs::enabled();
    let server = Server::start(ServerConfig {
        workers,
        queue_depth: 16,
        cache_capacity: KEYS + 4,
        obs: obs.clone(),
        store: None,
        sweep_inflight_cap: 4,
    });
    let messages = server.submit_stream(request.clone()).wait();
    let mut points: Vec<(u64, String)> = Vec::new();
    for message in &messages {
        match message {
            ServerMessage::Event(StreamEvent::Point { index, report, .. }) => {
                points.push((*index, report.to_json().render()));
            }
            ServerMessage::Event(StreamEvent::Error { index, message, .. }) => {
                panic!("sweep point {index} failed: {message}");
            }
            _ => {}
        }
    }
    points.sort_by_key(|(index, _)| *index);
    let stats = server.shutdown();
    assert_eq!(stats.sweep_point_errors, 0, "no sweep point may fail");
    SweepRun {
        renders: points.into_iter().map(|(_, render)| render).collect(),
        pseudo3d: obs.manifest().counter("flow/pseudo3d_runs").unwrap_or(0),
        deferred: stats.quota_deferred,
        points: stats.sweep_points,
    }
}

/// The sweep's own v1 decomposition, served sequentially as ordinary
/// single-shot requests — the equivalence baseline for the stream.
fn v1_singles(points: &[FlowRequest]) -> Vec<String> {
    use hetero3d::json::ToJson;
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: KEYS + 4,
        obs: Obs::enabled(),
        store: None,
        sweep_inflight_cap: 4,
    });
    let renders = points
        .iter()
        .map(|p| match server.submit(p.clone()).wait() {
            Response::Ok { report, .. } => report.to_json().render(),
            rejected => panic!("v1 single rejected: {rejected:?}"),
        })
        .collect();
    let _ = server.shutdown();
    renders
}

/// The fairness phase's 64-point sweep: 4 technology scenarios × 2
/// configurations × 8 frequencies, all on one client connection.
fn fair_sweep(scale: f64, seed: u64) -> FlowRequest {
    let mut request = sweep_request(scale, seed);
    request.id = 2000;
    request.command = FlowCommand::Sweep {
        spec: SweepSpec {
            configs: vec![Config::Hetero3d, Config::TwoD12T],
            stacking: StackingStyle::ALL.to_vec(),
            corners: vec![Corner::Typical, Corner::Slow],
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.2,
            freq_steps: 8,
        },
    };
    request
}

struct Fair {
    p99_free_ms: f64,
    p99_during_ms: f64,
    points: u64,
    deferred: u64,
    samples: usize,
}

impl Fair {
    fn ratio(&self) -> f64 {
        self.p99_during_ms / self.p99_free_ms.max(f64::EPSILON)
    }
}

/// Fairness under a streaming sweep: probe p99 on an interactive
/// connection, with and without a 64-point sweep saturating a second
/// connection. [`FAIR_CAP`] keeps at most 2 of the 4 workers on sweep
/// points, so the probe never queues behind the sweep's tail.
fn fairness(requests: &[FlowRequest], scale: f64, seed: u64) -> Fair {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            cache_capacity: 8,
            obs: Obs::enabled(),
            store: None,
            sweep_inflight_cap: FAIR_CAP,
        },
    )
    .expect("bind fairness server");
    let addr = server.local_addr();
    let probe = requests.last().expect("non-empty workload");
    let mut interactive = Client::connect(addr).expect("connect interactive");
    timed_calls(&mut interactive, probe, CONN_WARMUP);
    let mut free = timed_calls(&mut interactive, probe, FAIR_FREE_SAMPLES);
    let p99_free_ms = p99_ms(&mut free);

    // The sweep streams on its own raw connection; a thread drains it
    // so backpressure never throttles the point pipeline.
    let sweep = fair_sweep(scale, seed);
    let stream = TcpStream::connect(addr).expect("connect sweep conn");
    let mut writer = stream.try_clone().expect("clone sweep conn");
    writer
        .write_all(m3d_serve::encode_line(&sweep).as_bytes())
        .expect("send sweep");
    writer.flush().expect("flush sweep");
    let done = Arc::new(AtomicBool::new(false));
    let drain = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                if line.contains("\"event\":\"done\"") {
                    break;
                }
            }
            done.store(true, Ordering::Release);
        })
    };
    // Only sample once the sweep is really admitted.
    let engine = server.server().clone();
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.stats().sweeps == 0 {
        assert!(Instant::now() < deadline, "sweep never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut during = Vec::new();
    while !done.load(Ordering::Acquire) || during.len() < FAIR_MIN_DURING_SAMPLES {
        during.extend(timed_calls(&mut interactive, probe, 1));
    }
    drain.join().expect("join sweep drain");
    let samples = during.len();
    let p99_during_ms = p99_ms(&mut during);
    drop(interactive);
    let stats = server.shutdown();
    assert_eq!(stats.sweeps, 1, "exactly one sweep ran");
    assert_eq!(stats.sweep_point_errors, 0, "no sweep point may fail");
    assert_eq!(
        stats.sweep_cancelled_points, 0,
        "the drained sweep runs to completion"
    );
    Fair {
        p99_free_ms,
        p99_during_ms,
        points: stats.sweep_points,
        deferred: stats.quota_deferred,
        samples,
    }
}

struct RouterPhase {
    identical: bool,
    single_build: bool,
    distinct_keys: u64,
    pseudo3d: u64,
    shards: u64,
}

/// The shard-router phase: the workload's exact wire lines through a
/// direct server, a 1-shard router and a 4-shard router (fresh
/// backends each), compared byte for byte.
fn router_phase(requests: &[FlowRequest]) -> RouterPhase {
    let lines: Vec<String> = requests.iter().map(m3d_serve::encode_line).collect();
    let serve = |addr: SocketAddr| -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        lines
            .iter()
            .map(|line| {
                writer.write_all(line.as_bytes()).expect("send");
                writer.flush().expect("flush");
                let mut response = String::new();
                let n = reader.read_line(&mut response).expect("recv");
                assert!(n > 0, "peer hung up mid-workload");
                response
            })
            .collect()
    };
    let backend_config = |obs: &Obs| ServerConfig {
        workers: 1,
        queue_depth: requests.len().max(1),
        cache_capacity: KEYS + 2,
        obs: obs.clone(),
        store: None,
        sweep_inflight_cap: 4,
    };

    let direct_server =
        TcpServer::bind("127.0.0.1:0", backend_config(&Obs::enabled())).expect("bind direct");
    let direct = serve(direct_server.local_addr());
    let direct_stats = direct_server.shutdown();
    assert_eq!(direct_stats.cache_misses, KEYS as u64);

    let cluster = |shards: usize| -> (Vec<String>, u64, u64) {
        let obses: Vec<Obs> = (0..shards).map(|_| Obs::enabled()).collect();
        let backends: Vec<TcpServer> = obses
            .iter()
            .map(|o| TcpServer::bind("127.0.0.1:0", backend_config(o)).expect("bind backend"))
            .collect();
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig::new(backends.iter().map(TcpServer::local_addr).collect()),
        )
        .expect("bind router");
        let served = serve(router.local_addr());
        let router_stats = router.shutdown();
        assert_eq!(router_stats.relayed, requests.len() as u64);
        let mut misses = 0;
        let mut pseudo3d = 0;
        for (backend, obs) in backends.into_iter().zip(&obses) {
            misses += backend.shutdown().cache_misses;
            pseudo3d += obs.manifest().counter("flow/pseudo3d_runs").unwrap_or(0);
        }
        (served, misses, pseudo3d)
    };
    let (routed1, misses1, _) = cluster(1);
    let (routed4, misses4, pseudo4) = cluster(4);
    assert_eq!(
        misses1, KEYS as u64,
        "a 1-shard cluster builds each key once"
    );
    RouterPhase {
        identical: direct == routed1 && direct == routed4,
        single_build: misses4 == KEYS as u64,
        distinct_keys: KEYS as u64,
        pseudo3d: pseudo4,
        shards: 4,
    }
}

fn main() {
    let mut args = m3d_bench::parse_args();
    if !std::env::args().any(|a| a == "--scale") {
        args.scale = 0.02;
    }
    let requests = workload(args.scale, args.seed);

    // Decode-churn first: single-threaded, before any worker pool or
    // connection thread can contribute allocator traffic.
    let churn_borrowed = decode_churn(&requests);

    // Cold baseline for the reuse story: the same workload with a
    // cache too small to ever hit (every request rebuilds its session).
    let cold = {
        use hetero3d::json::ToJson;
        let started = Instant::now();
        let mut rendered = Vec::new();
        for r in &requests {
            let session = hetero3d::flow::FlowSession::builder(&r.netlist.materialize())
                .options(r.options.clone())
                .build()
                .expect("valid workload");
            let report = session.execute(&r.command).expect("flow");
            rendered.push(report.to_json().render());
        }
        (started.elapsed().as_secs_f64() * 1e3, rendered)
    };

    let seq = run_workload(&requests, 1, None);
    let par = run_workload(&requests, 4, None);
    let identical = seq.semantic == par.semantic;
    assert!(
        identical,
        "serve determinism violated: 1-worker and 4-worker response sets differ"
    );
    assert_eq!(
        seq.stats.completed_ok,
        requests.len() as u64,
        "every request must complete"
    );

    // Warm-restart economics: populate a persistent store through one
    // store-backed server, then replay the workload on a fresh server
    // (fresh cache, fresh telemetry) over the same directory — the
    // restart a long-running daemon would go through.
    let store_dir = std::env::temp_dir().join(format!("m3d-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let populate = run_workload(
        &requests,
        2,
        Some(Arc::new(Store::open(&store_dir).expect("open store"))),
    );
    assert_eq!(
        populate.semantic, seq.semantic,
        "store tier changed answers"
    );
    let warm = run_workload(
        &requests,
        2,
        Some(Arc::new(Store::open(&store_dir).expect("reopen store"))),
    );
    let warm_identical = warm.semantic == seq.semantic;
    assert!(
        warm_identical,
        "warm restart changed answers: disk-rehydrated sessions must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    // Connection scaling over the event-driven TCP front, one worker
    // then four, each lane serving on one reused connection.
    let conn_1w = conn_scale(&requests, 1);
    let conn_4w = conn_scale(&requests, 4);
    // Sequential TCP lanes are deterministic down to the cache_hit bit:
    // raw byte identity across worker counts.
    let conn_identical = conn_1w.rendered == conn_4w.rendered;
    assert!(
        conn_identical,
        "TCP determinism violated: 1-worker and 4-worker served responses differ"
    );
    let conn_engine = conn_1w.semantic == seq.semantic;
    assert!(
        conn_engine,
        "the TCP front changed answers relative to the in-process engine"
    );

    // Streaming sweep: the v2 protocol's semantic contract, at one and
    // four workers, against the sweep's own v1 decomposition.
    let sweep_req = sweep_request(args.scale, args.seed);
    let sweep_singles = sweep_req.decompose_sweep().expect("sweep decomposes");
    let sweep_1w = run_sweep(&sweep_req, 1);
    let sweep_4w = run_sweep(&sweep_req, 4);
    let sweep_identical_to_v1 = sweep_1w.renders == v1_singles(&sweep_singles);
    assert!(
        sweep_identical_to_v1,
        "streamed sweep points diverged from the v1 single-shot sequence"
    );
    let sweep_identical_across_workers = sweep_1w.renders == sweep_4w.renders;
    assert!(
        sweep_identical_across_workers,
        "sweep determinism violated: 1-worker and 4-worker streams differ"
    );
    assert_eq!(
        sweep_1w.points,
        sweep_singles.len() as u64,
        "every grid point must stream"
    );
    assert_eq!(
        (sweep_1w.pseudo3d, sweep_4w.pseudo3d),
        (1, 1),
        "the pseudo-3-D stage must run once for all {SWEEP_SCENARIOS} technology scenarios"
    );
    assert_eq!(
        sweep_1w.deferred, sweep_4w.deferred,
        "quota deferral is scheduling-independent for a lone sweep"
    );

    // Fairness under a 64-point sweep, then the shard router.
    let fair = fairness(&requests, args.scale, args.seed);
    let router = router_phase(&requests);
    assert!(
        router.identical,
        "routed responses diverged from the direct server"
    );
    assert!(
        router.single_build,
        "a 4-shard cluster rebuilt a checkpoint key on more than one shard"
    );

    let hit_rate = seq.stats.cache_hits as f64 / requests.len() as f64;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_bench\",");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"seed\": {},",
        args.scale, args.seed
    );
    let _ = writeln!(json, "  \"requests\": {},", requests.len());
    let _ = writeln!(json, "  \"distinct_keys\": {KEYS},");
    let _ = writeln!(json, "  \"completed_ok\": {},", seq.stats.completed_ok);
    let _ = writeln!(json, "  \"cache_hits\": {},", seq.stats.cache_hits);
    let _ = writeln!(json, "  \"cache_misses\": {},", seq.stats.cache_misses);
    let _ = writeln!(json, "  \"hit_rate\": {hit_rate:.4},");
    let _ = writeln!(json, "  \"pseudo3d_runs\": {},", seq.pseudo3d_runs);
    let _ = writeln!(json, "  \"identical_across_workers\": {identical},");
    let _ = writeln!(json, "  \"warm_store_hits\": {},", warm.stats.store_hits);
    let _ = writeln!(json, "  \"warm_pseudo3d_runs\": {},", warm.pseudo3d_runs);
    let _ = writeln!(json, "  \"warm_identical_to_cold\": {warm_identical},");
    let _ = writeln!(json, "  \"decode_churn_borrowed_bytes\": {churn_borrowed},");
    let _ = writeln!(json, "  \"conn_idle_connections\": {IDLE_CONNS},");
    let _ = writeln!(json, "  \"conn_samples\": {CONN_SAMPLES},");
    let _ = writeln!(
        json,
        "  \"conn_identical_across_workers\": {conn_identical},"
    );
    let _ = writeln!(json, "  \"conn_identical_to_engine\": {conn_engine},");
    let _ = writeln!(
        json,
        "  \"conn_p99_idle_free_ms_1w\": {:.3},",
        conn_1w.p99_idle_free_ms
    );
    let _ = writeln!(
        json,
        "  \"conn_p99_with_idle_ms_1w\": {:.3},",
        conn_1w.p99_with_idle_ms
    );
    let _ = writeln!(json, "  \"conn_p99_ratio_1w\": {:.3},", conn_1w.ratio());
    let _ = writeln!(
        json,
        "  \"conn_p99_idle_free_ms_4w\": {:.3},",
        conn_4w.p99_idle_free_ms
    );
    let _ = writeln!(
        json,
        "  \"conn_p99_with_idle_ms_4w\": {:.3},",
        conn_4w.p99_with_idle_ms
    );
    let _ = writeln!(json, "  \"conn_p99_ratio_4w\": {:.3},", conn_4w.ratio());
    let _ = writeln!(json, "  \"sweep_points\": {},", sweep_1w.points);
    let _ = writeln!(json, "  \"sweep_scenarios\": {SWEEP_SCENARIOS},");
    let _ = writeln!(json, "  \"sweep_pseudo3d_runs\": {},", sweep_1w.pseudo3d);
    let _ = writeln!(json, "  \"sweep_quota_deferred\": {},", sweep_1w.deferred);
    let _ = writeln!(
        json,
        "  \"sweep_identical_to_v1\": {sweep_identical_to_v1},"
    );
    let _ = writeln!(
        json,
        "  \"sweep_identical_across_workers\": {sweep_identical_across_workers},"
    );
    let _ = writeln!(json, "  \"fair_inflight_cap\": {FAIR_CAP},");
    let _ = writeln!(json, "  \"fair_sweep_points\": {},", fair.points);
    let _ = writeln!(json, "  \"fair_quota_deferred\": {},", fair.deferred);
    let _ = writeln!(json, "  \"fair_probe_samples\": {},", fair.samples);
    let _ = writeln!(json, "  \"fair_p99_free_ms\": {:.3},", fair.p99_free_ms);
    let _ = writeln!(
        json,
        "  \"fair_p99_during_sweep_ms\": {:.3},",
        fair.p99_during_ms
    );
    let _ = writeln!(json, "  \"fair_p99_ratio\": {:.3},", fair.ratio());
    let _ = writeln!(json, "  \"router_shards\": {},", router.shards);
    let _ = writeln!(
        json,
        "  \"router_distinct_keys\": {},",
        router.distinct_keys
    );
    let _ = writeln!(json, "  \"router_pseudo3d_runs\": {},", router.pseudo3d);
    let _ = writeln!(json, "  \"router_identical\": {},", router.identical);
    let _ = writeln!(json, "  \"router_single_build\": {},", router.single_build);
    let _ = writeln!(json, "  \"wall_ms_cold\": {:.1},", cold.0);
    let _ = writeln!(json, "  \"wall_ms_served_1w\": {:.1},", seq.wall_ms);
    let _ = writeln!(json, "  \"wall_ms_served_4w\": {:.1},", par.wall_ms);
    let _ = writeln!(json, "  \"wall_ms_warm_restart\": {:.1}", warm.wall_ms);
    json.push_str("}\n");

    m3d_bench::emit(&args, "BENCH_serve.json", &json);
    println!(
        "serve_bench: {} requests over {KEYS} keys -> {} hits / {} misses \
         (hit rate {:.0}%), pseudo-3D built {} time(s), \
         cold {:.0} ms vs served {:.0} ms; warm restart: {} store hits, \
         {} pseudo-3D runs, {:.0} ms",
        requests.len(),
        seq.stats.cache_hits,
        seq.stats.cache_misses,
        hit_rate * 100.0,
        seq.pseudo3d_runs,
        cold.0,
        seq.wall_ms,
        warm.stats.store_hits,
        warm.pseudo3d_runs,
        warm.wall_ms,
    );
    println!(
        "serve_bench: decode churn {churn_borrowed} B per request; \
         {IDLE_CONNS} idle conns moved probe p99 \
         {:.2} -> {:.2} ms at 1 worker ({:.2}x) and {:.2} -> {:.2} ms at 4 ({:.2}x)",
        conn_1w.p99_idle_free_ms,
        conn_1w.p99_with_idle_ms,
        conn_1w.ratio(),
        conn_4w.p99_idle_free_ms,
        conn_4w.p99_with_idle_ms,
        conn_4w.ratio(),
    );
    println!(
        "serve_bench: v2 sweep streamed {} points over {SWEEP_SCENARIOS} scenarios \
         ({} pseudo-3D runs, {} deferred past the cap), identical to v1 singles: {}",
        sweep_1w.points, sweep_1w.pseudo3d, sweep_1w.deferred, sweep_identical_to_v1,
    );
    println!(
        "serve_bench: fairness — probe p99 {:.2} -> {:.2} ms ({:.2}x) during a \
         {}-point sweep (cap {FAIR_CAP}, {} deferred, {} samples); router — \
         {}-shard byte-identical: {}, single build per key: {}",
        fair.p99_free_ms,
        fair.p99_during_ms,
        fair.ratio(),
        fair.points,
        fair.deferred,
        fair.samples,
        router.shards,
        router.identical,
        router.single_build,
    );
}
