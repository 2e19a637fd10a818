//! Per-layer probes of the serving path, run by the traced serve
//! workloads after their loop: the wire codec, the engine and socket
//! hops, the router hop, the three cache tiers and the store.
//!
//! Two probe requests are used. `request` is one of the workload's own
//! ~25k-cell requests: everything that scales with the netlist (the
//! engine's per-request materialization and fingerprint, the cache tiers,
//! the store record) is measured on it. The socket and router hops move a
//! few hundred bytes regardless of the design, and would drown in the
//! ±5 ms noise of a 250 ms flow, so they are measured on a ~450-cell key
//! whose whole request takes a few milliseconds.

use crate::inputs::{flow_options, Key};
use crate::sampler::Samples;
use crate::serve::{connect, start_server, Harness};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use hetero3d::db::netlist_fingerprint;
use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, run_from_base, Config, FlowCommand, FlowRequest, FlowSession,
    NetlistSpec,
};
use hetero3d::json::{parse_borrowed, ToJson};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Topology;
use hetero3d::serve::{
    decode_request, encode_line, route_key, Client, Response, Ring, Router, RouterConfig,
    SessionKey, Store, StoreKey,
};
use m3d_store::SessionArtifact;
use std::time::Instant;

fn tiny_key() -> Key {
    Key {
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.03,
            seed: crate::inputs::NETLIST_SEED,
        },
        input_activity: 0.15,
        freqs: [0.8, 0.9, 1.0],
    }
}

fn call_ms(client: &mut Client, request: &FlowRequest, out: &mut Outcome, what: &str) -> f64 {
    let t = Instant::now();
    let response = client.call(request);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(response) = out.tally.ok(what, response) {
        crate::check::served_ok(&mut out.tally, what, &response);
    }
    ms
}

/// `with[i] - without[i]`: each pair was measured back to back, so a slow
/// spell of the machine hits both halves and cancels — the difference of
/// two separately taken medians does not have that property.
fn paired_gap(with: &[f64], without: &[f64]) -> Samples {
    Samples::from_values(with.iter().zip(without).map(|(a, b)| a - b).collect())
}

/// Runs every probe; `request` is one of the workload's request kinds,
/// `client` an open connection to its server.
pub fn run(
    ctx: &Ctx,
    harness: &Harness,
    client: &mut Client,
    request: &FlowRequest,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    tr.next_op();
    let probes = tr.begin("probes");
    if let Some(response) = out.tally.ok("probe call", client.call(request)) {
        wire(request, &response, out);
    }
    hops(ctx, harness, client, request, out, tr);
    tiers(ctx, request, out, tr);
    tr.end(probes);
}

/// The wire codec on the workload's own bytes.
fn wire(request: &FlowRequest, response: &Response, out: &mut Outcome) {
    let r = &mut out.readings;
    let line = encode_line(request);
    let reply = encode_line(response);
    r.set("protocol.request_bytes", line.len() as f64);
    r.set("protocol.response_bytes", reply.len() as f64);
    r.set_median(
        "json.parse_borrowed_us",
        &Samples::time_batched_us(20, 21, 200, || {
            std::hint::black_box(parse_borrowed(std::hint::black_box(&line)).is_ok());
        }),
    );
    r.set_median(
        "protocol.decode_request_us",
        &Samples::time_batched_us(20, 21, 200, || {
            std::hint::black_box(decode_request(std::hint::black_box(&line)).is_ok());
        }),
    );
    let value = response.to_json();
    r.set_median(
        "json.render_us",
        &Samples::time_batched_us(20, 21, 200, || {
            std::hint::black_box(std::hint::black_box(&value).render());
        }),
    );
    r.set_median(
        "protocol.encode_response_us",
        &Samples::time_batched_us(20, 21, 200, || {
            std::hint::black_box(encode_line(std::hint::black_box(response)));
        }),
    );
}

/// Direct execute vs `Server::submit` vs `Client::call`, and the router.
fn hops(
    ctx: &Ctx,
    harness: &Harness,
    client: &mut Client,
    request: &FlowRequest,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    const N: usize = 9;
    // What one request costs the library, call by call: the server
    // materializes and fingerprints the netlist on every request; a cold
    // miss adds the two prefix calls; every request pays the suffix.
    let options = request.options.clone();
    let (netlist, ms) = tr.time("netgen.generate", || request.netlist.materialize());
    out.readings.set("netgen.generate_ms", ms);
    let (_, ms) = tr.time("netlist.topology_build", || Topology::build(&netlist));
    out.readings.set("netlist.topology_build_ms", ms);
    let (_, ms) = tr.time("db.netlist_fingerprint", || netlist_fingerprint(&netlist));
    out.readings.set("db.netlist_fingerprint_ms", ms);
    let (base, ms) = tr.time("flow.prepare_base", || prepare_base(&netlist, &options));
    out.readings.set("flow.prepare_base_ms", ms);
    let Some(base) = out.tally.ok("probe prepare_base", base) else {
        return;
    };
    let (pseudo, ms) = tr.time("flow.pseudo3d", || pseudo_checkpoint(&base, &options));
    out.readings.set("flow.pseudo3d_ms", ms);
    let Some(pseudo) = out.tally.ok("probe pseudo_checkpoint", pseudo) else {
        return;
    };
    if let FlowCommand::RunFlow {
        config,
        frequency_ghz,
    } = request.command
    {
        let (imp, ms) = tr.time("flow.suffix", || {
            run_from_base(&base, Some(&pseudo), config, frequency_ghz, &options)
        });
        out.readings.set("flow.suffix_ms", ms);
        out.tally.ok("probe run_from_base", imp);
    }
    // Engine overhead on the 25k-cell request: what `submit` adds to the
    // same command executed on a resident library session.
    let session = FlowSession::from_parts(&netlist, options, base, Some(pseudo));
    let engine = harness.server.server();
    let _ = call_ms(client, request, out, "probe touch");
    let (mut direct, mut inproc) = (Vec::new(), Vec::new());
    for _ in 0..N {
        let (res, ms) = tr.time("flow.session_execute", || session.execute(&request.command));
        out.tally.ok("direct execute", res);
        direct.push(ms);
        let (res, ms) = tr.time("server.submit", || engine.submit(request.clone()).wait());
        crate::check::served_ok(&mut out.tally, "submit", &res);
        inproc.push(ms);
    }
    out.readings
        .set_median("server.engine_overhead_ms", &paired_gap(&inproc, &direct));
    out.readings
        .set_median("flow.session_execute_ms", &Samples::from_values(direct));
    out.readings
        .set_median("server.inproc_latency_ms", &Samples::from_values(inproc));

    // Socket hop on the tiny key: `Client::call` − `submit`.
    const M: usize = 40;
    let tiny = crate::inputs::run_request(1, &tiny_key(), Config::TwoD12T, 0.9);
    let _ = call_ms(client, &tiny, out, "tiny touch");
    let (mut over_tcp, mut in_process) = (Vec::new(), Vec::new());
    for _ in 0..M {
        let span = tr.begin("server.tcp_call");
        let ms = call_ms(client, &tiny, out, "tiny call");
        tr.end(span);
        over_tcp.push(ms);
        let (res, ms) = tr.time("server.submit", || engine.submit(tiny.clone()).wait());
        crate::check::served_ok(&mut out.tally, "tiny submit", &res);
        in_process.push(ms);
    }
    out.readings.set_median(
        "server.tcp_overhead_ms",
        &paired_gap(&over_tcp, &in_process),
    );

    // Router hop: the tiny request through a 2-shard router vs straight
    // to the shard that owns its key.
    let shards = [
        start_server(ctx, ctx.scratch("shard0"), 1, 2),
        start_server(ctx, ctx.scratch("shard1"), 1, 2),
    ];
    let backends: Vec<_> = shards.iter().map(|s| s.server.local_addr()).collect();
    let owner = Ring::new(backends.len(), 64).route(&route_key(&tiny));
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(backends));
    if let Some(router) = out.tally.ok("router bind", router) {
        let routed_client = Client::connect(router.local_addr());
        if let Some(mut routed_client) = out.tally.ok("router connect", routed_client) {
            let mut direct_client = connect(&shards[owner]);
            let _ = call_ms(&mut routed_client, &tiny, out, "routed touch");
            let (mut routed, mut straight) = (Vec::new(), Vec::new());
            for _ in 0..M {
                let span = tr.begin("router.call");
                routed.push(call_ms(&mut routed_client, &tiny, out, "routed call"));
                tr.end(span);
                straight.push(call_ms(&mut direct_client, &tiny, out, "shard call"));
            }
            out.readings
                .set_median("router.hop_ms", &paired_gap(&routed, &straight));
        }
        let stats = router.shutdown();
        out.readings
            .set("router.retries", stats.backend_retries as f64);
    }
    for shard in shards {
        let _ = shard.server.shutdown();
    }
}

/// The same request with its key forced into each cache tier, one
/// connection, plus the store's own put/get on that key's record.
fn tiers(ctx: &Ctx, request: &FlowRequest, out: &mut Outcome, tr: &mut Tracer) {
    let (mut cold, mut memory, mut disk) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let first = start_server(ctx, ctx.scratch("tier"), 2, 4);
        let mut client = connect(&first);
        let span = tr.begin("cache.cold_miss");
        cold.push(call_ms(&mut client, request, out, "cold miss"));
        tr.end(span);
        let span = tr.begin("cache.memory_hit");
        memory.push(call_ms(&mut client, request, out, "memory hit"));
        tr.end(span);
        drop(client);
        let Harness { server, store_dir } = first;
        let _ = server.shutdown();
        // A restarted server over the same directory: the key is on disk
        // only.
        let second = start_server(ctx, store_dir, 2, 4);
        let mut client = connect(&second);
        let span = tr.begin("cache.disk_hit");
        disk.push(call_ms(&mut client, request, out, "disk hit"));
        tr.end(span);
        let stats = second.server.server().stats();
        out.tally.check(stats.store_hits == 1, || {
            format!(
                "restart answered with {} store hits, not 1",
                stats.store_hits
            )
        });
        drop(client);
        let _ = second.server.shutdown();
    }
    let r = &mut out.readings;
    r.set_median("cache.cold_miss_ms", &Samples::from_values(cold));
    r.set_median("cache.memory_hit_ms", &Samples::from_values(memory));
    r.set_median("cache.disk_hit_ms", &Samples::from_values(disk));

    // The store alone: one session record, written and read back.
    let netlist = request.netlist.materialize();
    let built = FlowSession::builder(&netlist)
        .options(flow_options(1))
        .build()
        .and_then(|s| s.run(Config::Hetero3d, 0.5).map(|_| s));
    let Some(session) = out.tally.ok("store probe session", built) else {
        return;
    };
    let artifact = SessionArtifact {
        base: session.base().clone(),
        pseudo: session.pseudo_checkpoint().cloned(),
    };
    let dir = ctx.scratch("store-probe");
    let key = SessionKey::of(&netlist, session.options());
    let opened = Store::open(dir.path())
        .and_then(|store| StoreKey::new(key.netlist_fp, key.options_fp).map(|k| (store, k)));
    let Some((store, key)) = out.tally.ok("open probe store", opened) else {
        return;
    };
    let mut ok = true;
    let put = Samples::time_ms(1, 5, || ok &= store.put_session(&key, &artifact).is_ok());
    let get = Samples::time_ms(1, 5, || {
        ok &= matches!(store.get_session(&key), Ok(Some(_)));
    });
    out.tally.check(ok, || {
        "store put/get of the probe record failed".to_string()
    });
    let bytes: u64 = std::fs::read_dir(dir.path())
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let r = &mut out.readings;
    r.set_median("store.put_session_ms", &put);
    r.set_median("store.get_session_ms", &get);
    r.set("store.record_mb", crate::mib(bytes));
}
