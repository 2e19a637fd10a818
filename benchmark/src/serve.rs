//! `serve_hot` and `serve_churn`: a closed loop over TCP against an
//! in-process `TcpServer` with its session cache and persistent store.
//!
//! Both workloads send the same request mix through the same number of
//! client connections; they differ only in how many cache keys the
//! requests spread over and in whether the cache is warm:
//!
//! * `serve_hot` — 2 keys, 8 cache slots, every key touched once before
//!   timing: every timed request is a memory hit. The traced run then
//!   streams a 12-point protocol-v2 sweep on one connection.
//! * `serve_churn` — 10 keys, 4 cache slots, timed from an empty cache
//!   and an empty store directory: cold builds, write-through, LRU
//!   eviction spills and disk rehydration all happen inside the window.
//!
//! The loop is closed: each connection has one request outstanding and
//! takes the next of the run's seeded request list when its answer has
//! fully arrived. The list (not the clock) bounds the run, so every run
//! of one benchmark version does identical work.

use crate::check::{self, Tally};
use crate::inputs::{
    self, Key, Rng, CHURN_CACHE_CAPACITY, HOT_CACHE_CAPACITY, SERVE_CONNECTIONS, SERVE_WORKERS,
};
use crate::sampler::Samples;
use crate::serve_probes;
use crate::trace::Tracer;
use crate::{mib, repeat_setup, Ctx, Outcome, Scratch};
use hetero3d::flow::{FlowReport, FlowRequest, FlowSession};
use hetero3d::obs::{alloc, Obs};
use hetero3d::serve::{
    Client, Response, ServerConfig, ServerMessage, StatsSnapshot, Store, StreamEvent, TcpServer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Hot,
    Churn,
}

/// A server over a fresh store directory; both go away on drop.
pub struct Harness {
    pub server: TcpServer,
    pub store_dir: Scratch,
}

pub fn start_server(ctx: &Ctx, store_dir: Scratch, workers: usize, capacity: usize) -> Harness {
    let store = Store::open(store_dir.path()).expect("open the store directory");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: workers.min(ctx.nproc).max(1),
            queue_depth: 64,
            cache_capacity: capacity,
            obs: Obs::disabled(),
            store: Some(Arc::new(store)),
            sweep_inflight_cap: 4,
        },
    )
    .expect("bind an ephemeral port");
    Harness { server, store_dir }
}

pub fn connect(h: &Harness) -> Client {
    Client::connect(h.server.local_addr()).expect("connect to the in-process server")
}

/// Everything set-up produces: the running server, the open connections
/// and the run's request list.
struct Ready {
    harness: Harness,
    clients: Vec<Client>,
    requests: Vec<FlowRequest>,
    cells: usize,
    touched: Vec<Response>,
}

fn set_up(ctx: &Ctx, mode: Mode, keys: &[Key], rounds: usize) -> Ready {
    // The working set's size (cells per key), which also warms the
    // generators the server will call on every request.
    let cells = keys
        .iter()
        .map(|k| k.netlist.materialize().cell_count())
        .sum();
    let capacity = match mode {
        Mode::Hot => HOT_CACHE_CAPACITY,
        Mode::Churn => CHURN_CACHE_CAPACITY,
    };
    let harness = start_server(ctx, ctx.scratch("store"), SERVE_WORKERS, capacity);
    let mut clients: Vec<Client> = (0..SERVE_CONNECTIONS.min(ctx.nproc).max(1))
        .map(|_| connect(&harness))
        .collect();
    let requests = inputs::request_list(&mut Rng::new(ctx.seed), keys, rounds);
    let mut touched = Vec::new();
    if mode == Mode::Hot {
        // Touch every key once — and, when the sweep will run, each of
        // its technology scenarios, which are cache keys of their own —
        // so that all timed work is served from memory.
        let mut seen = Vec::new();
        let sweep_points = if ctx.trace {
            inputs::sweep_request(0)
                .decompose_sweep()
                .expect("a sweep decomposes")
        } else {
            Vec::new()
        };
        let per_key = keys
            .iter()
            .map(|k| inputs::run_request(0, k, hetero3d::flow::Config::Hetero3d, k.freqs[0]));
        for request in per_key.chain(sweep_points) {
            let key = (request.netlist, request.options.fingerprint());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            touched.push(clients[0].call(&request).expect("pre-touch call"));
        }
    }
    Ready {
        harness,
        clients,
        requests,
        cells,
        touched,
    }
}

/// One answered request, as its connection saw it.
struct Served {
    index: usize,
    start_us: f64,
    end_us: f64,
    response: Result<Response, String>,
}

/// The closed loop: every connection pulls the next request of the
/// shared list when its previous answer has arrived. Returns what was
/// served and the loop's wall time in seconds.
fn closed_loop(clients: Vec<Client>, requests: &[FlowRequest]) -> (Vec<Served>, f64, Vec<Client>) {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients.len() + 1);
    let (next, barrier) = (&next, &barrier);
    let (mut served, mut back) = (Vec::with_capacity(requests.len()), Vec::new());
    let wall = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    barrier.wait();
                    let t0 = Instant::now();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        let start_us = t0.elapsed().as_secs_f64() * 1e6;
                        let response = client.call(request).map_err(|e| e.to_string());
                        mine.push(Served {
                            index,
                            start_us,
                            end_us: t0.elapsed().as_secs_f64() * 1e6,
                            response,
                        });
                    }
                    (mine, client)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            let (mine, client) = h.join().expect("client thread");
            served.extend(mine);
            back.push(client);
        }
        t0.elapsed().as_secs_f64()
    });
    served.sort_by_key(|s| s.index);
    (served, wall, back)
}

/// What the sweep phase measured.
struct SweepRun {
    wall_s: f64,
    first_point_ms: f64,
    points: Vec<(u64, FlowReport)>,
}

fn stream_sweep(client: &mut Client, tally: &mut Tally) -> Option<SweepRun> {
    let request = inputs::sweep_request(9_000_000);
    let t = Instant::now();
    tally.ok("send sweep", client.send(&request))?;
    let (mut points, mut first_point_ms) = (Vec::new(), 0.0);
    loop {
        let message = tally.ok("sweep stream", client.recv_message())?;
        match message {
            ServerMessage::Event(StreamEvent::Point { index, report, .. }) => {
                if points.is_empty() {
                    first_point_ms = t.elapsed().as_secs_f64() * 1e3;
                }
                tally.check(true, String::new);
                points.push((index, *report));
            }
            ServerMessage::Event(StreamEvent::Error { index, message, .. }) => {
                tally.check(false, || format!("sweep point {index}: {message}"));
            }
            ServerMessage::Event(StreamEvent::Done { .. }) => break,
            ServerMessage::Event(StreamEvent::Progress { .. }) => {}
            ServerMessage::Response(r) => {
                check::served_ok(tally, "sweep", &r);
                return None;
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    points.sort_by_key(|p| p.0);
    Some(SweepRun {
        wall_s,
        first_point_ms,
        points,
    })
}

/// The streamed points must be exactly the sweep's grid, each equal to
/// the answer its own v1 single-shot request gets.
fn check_sweep(sweep: &SweepRun, clients: Vec<Client>, tally: &mut Tally) -> Vec<Client> {
    let singles = inputs::sweep_request(9_000_000)
        .decompose_sweep()
        .expect("a sweep decomposes");
    tally.check(sweep.points.len() == singles.len(), || {
        format!(
            "sweep streamed {} points, not {}",
            sweep.points.len(),
            singles.len()
        )
    });
    let (served, _, clients) = closed_loop(clients, &singles);
    for s in &served {
        let what = format!("sweep single {}", s.index);
        let Some(response) = tally.ok(&what, s.response.as_ref()) else {
            continue;
        };
        let Some(single) = check::served_ok(tally, &what, response) else {
            continue;
        };
        match sweep.points.iter().find(|p| p.0 == s.index as u64) {
            Some((_, streamed)) => {
                check::same_report(tally, &what, streamed, single);
            }
            None => {
                tally.check(false, || format!("{what}: point missing from the stream"));
            }
        }
    }
    clients
}

/// A seeded sample of served reports must be byte-identical to what
/// `FlowSession::execute` returns for the same input.
fn check_against_library(
    ctx: &Ctx,
    requests: &[FlowRequest],
    served: &[Served],
    tally: &mut Tally,
) {
    let mut rng = Rng::new(ctx.seed ^ 0x5EED);
    for _ in 0..2 {
        let s = &served[rng.below(served.len())];
        let request = &requests[s.index];
        let Ok(Response::Ok { report, .. }) = &s.response else {
            continue; // already counted as a failure by the loop's tally
        };
        let direct = FlowSession::builder(&request.netlist.materialize())
            .options(request.options.clone())
            .build()
            .and_then(|session| session.execute(&request.command));
        if let Some(direct) = tally.ok("direct execute", direct) {
            check::same_report(tally, &format!("request {}", s.index), report, &direct);
        }
    }
}

/// Median latency per (design, configuration, frequency) — the request
/// kinds the mix is made of.
fn latency_by_kind(requests: &[FlowRequest], served: &[Served]) -> String {
    let mut kinds: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in served {
        let r = &requests[s.index];
        if let hetero3d::flow::FlowCommand::RunFlow {
            config,
            frequency_ghz,
        } = r.command
        {
            kinds
                .entry(format!(
                    "{:?}/{config:?}@{frequency_ghz}",
                    r.netlist.benchmark
                ))
                .or_default()
                .push((s.end_us - s.start_us) / 1e3);
        }
    }
    let parts: Vec<String> = kinds
        .into_iter()
        .map(|(k, v)| {
            let s = Samples::from_values(v);
            format!("{k} {:.0} ms (n={})", s.median(), s.n())
        })
        .collect();
    format!("p50 by kind: {}", parts.join(", "))
}

fn rejected(stats: &StatsSnapshot) -> u64 {
    stats.rejected_overloaded
        + stats.rejected_deadline
        + stats.rejected_shutdown
        + stats.rejected_protocol
        + stats.failed_flow
}

pub fn run_hot(ctx: &Ctx) -> Outcome {
    run(ctx, Mode::Hot)
}

pub fn run_churn(ctx: &Ctx) -> Outcome {
    run(ctx, Mode::Churn)
}

fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    // Requests carry `threads: 1`; the kernels' global count follows.
    ctx.pin_threads(1);
    let (keys, name) = match mode {
        Mode::Hot => (inputs::hot_keys(), "serve_hot"),
        Mode::Churn => (inputs::churn_keys(), "serve_churn"),
    };
    let rounds = inputs::rounds(ctx.seconds, keys.len());
    // Enough set-ups that their median is steady: churn's is a seventh
    // of hot's (no key is touched), so it affords more.
    let setups = match mode {
        Mode::Hot => 5,
        Mode::Churn => 9,
    };
    let (ready, setup) = repeat_setup(setups, || set_up(ctx, mode, &keys, rounds));
    let Ready {
        harness,
        clients,
        requests,
        cells,
        touched,
    } = ready;
    for response in &touched {
        check::served_ok(&mut out.tally, "pre-touch", response);
    }
    let connections = clients.len();
    out.facts.extend([
        ("flow threads", "1 per request".to_string()),
        ("workers", SERVE_WORKERS.min(ctx.nproc).to_string()),
        ("connections", connections.to_string()),
        ("keys", keys.len().to_string()),
        ("requests", requests.len().to_string()),
        ("working set", format!("{cells} cells")),
    ]);

    alloc::reset_peak();
    let churn_before = alloc::total_allocated_bytes();
    let (served, loop_s, clients) = closed_loop(clients, &requests);
    let peak = alloc::peak_bytes();
    let churn = alloc::total_allocated_bytes() - churn_before;
    let stats = harness.server.server().stats();
    let evictions = harness.server.server().cache().evictions();

    let mut latencies = Vec::with_capacity(served.len());
    for s in &served {
        let what = format!("request {}", s.index);
        let Some(response) = out.tally.ok(&what, s.response.as_ref()) else {
            continue;
        };
        if let Some(report) = check::served_ok(&mut out.tally, &what, response) {
            check::finite(&mut out.tally, &what, &check::qor_values(report));
            latencies.push((s.end_us - s.start_us) / 1e3);
        }
    }
    let latencies = Samples::from_values(latencies);
    out.notes.push(latency_by_kind(&requests, &served));

    let mut clients = clients;
    // The v2 sweep is part of `serve_hot`'s traced run only: 12 points
    // would be a tenth of the end-to-end figure and cost a quarter more
    // run time (stream + the 12 v1 singles that check it).
    let sweep = (mode == Mode::Hot && ctx.trace)
        .then(|| stream_sweep(&mut clients[0], &mut out.tally))
        .flatten();
    let after_sweep = harness.server.server().stats();

    // Checks, outside every timed region.
    if let Some(sweep) = &sweep {
        clients = check_sweep(sweep, clients, &mut out.tally);
    }
    check_against_library(ctx, &requests, &served, &mut out.tally);
    out.tally.check(rejected(&after_sweep) == 0, || {
        format!(
            "the server rejected or failed {} requests",
            rejected(&after_sweep)
        )
    });

    let (label, tail) = latencies.tail();
    out.notes.push(format!(
        "closed loop: {} requests in {loop_s:.2} s = {:.3} req/s over {connections} connection(s); tail = {label}",
        latencies.n(),
        latencies.n() as f64 / loop_s
    ));
    out.notes.push(format!(
        "cache: {} hits, {} misses, {evictions} evictions | store: {} hits, {} misses, {} spills",
        stats.cache_hits,
        stats.cache_misses,
        stats.store_hits,
        stats.store_misses,
        stats.store_spills
    ));
    if let Some(s) = &sweep {
        out.notes.push(format!(
            "sweep: {} points in {:.2} s, first point after {:.0} ms",
            s.points.len(),
            s.wall_s,
            s.first_point_ms
        ));
    }

    if ctx.trace {
        let r = &mut out.readings;
        let mut tr = Tracer::new();
        for s in &served {
            tr.adopt("server.request", s.start_us, s.end_us);
        }
        r.set("netlist.cells", cells as f64);
        r.set("flow.alloc_churn_mb", mib(churn));
        r.set_from(
            "server.req_per_s",
            latencies.n() as f64 / loop_s,
            &latencies,
        );
        r.set_median("server.latency_p50_ms", &latencies);
        for (metric, p) in [
            ("server.latency_p90_ms", 90.0),
            ("server.latency_p99_ms", 99.0),
        ] {
            match latencies.percentile(p) {
                Some(v) => r.set_from(metric, v, &latencies),
                None => out.notes.push(format!(
                    "{metric}: not reported, {} samples leave fewer than 10 beyond it",
                    latencies.n()
                )),
            }
        }
        r.set("server.rejected", rejected(&after_sweep) as f64);
        let lookups = (stats.cache_hits + stats.cache_misses).max(1);
        r.set("cache.hit_ratio", stats.cache_hits as f64 / lookups as f64);
        r.set("cache.evictions", evictions as f64);
        r.set("store.hits", stats.store_hits as f64);
        r.set("store.spills", stats.store_spills as f64);
        if let Some(s) = &sweep {
            r.set("sweep.points_per_s", s.points.len() as f64 / s.wall_s);
            r.set("sweep.first_point_ms", s.first_point_ms);
            r.set("sweep.quota_deferred", after_sweep.quota_deferred as f64);
        }
        // One fixed probe request (LDPC, Hetero3d, middle frequency), so
        // probe readings compare across seeds and runs.
        let probe = inputs::run_request(
            7_000_000,
            &keys[0],
            hetero3d::flow::Config::Hetero3d,
            keys[0].freqs[1],
        );
        serve_probes::run(ctx, &harness, &mut clients[0], &probe, &mut out, &mut tr);
        let path = ctx
            .out_dir
            .join(format!("trace-{name}-seed{}.json", ctx.seed));
        let written = tr.write_json(
            &path,
            &[("workload", name.into()), ("seed", ctx.seed.to_string())],
        );
        if out.tally.ok("write span file", written).is_some() {
            out.notes.push(format!("spans: {}", path.display()));
        }
    } else {
        let r = &mut out.readings;
        r.set_median("setup_s", &setup);
        r.set_from("points_per_s", latencies.n() as f64 / loop_s, &latencies);
        r.set_median("latency_p50_ms", &latencies);
        r.set_from("latency_tail_ms", tail, &latencies);
        r.set("peak_heap_mb", mib(peak));
    }

    drop(clients);
    let Harness { server, store_dir } = harness;
    let _ = server.shutdown();
    drop(store_dir);
    out
}
