//! The `serve_client` CLI: one connection, six subcommands, one shared
//! request builder and one shared printer.
//!
//! ```text
//! serve_client run     --addr HOST:PORT [--config C] [--freq F] [common]
//! serve_client fmax    --addr HOST:PORT [--config C] [--start F] [common]
//! serve_client compare --addr HOST:PORT [common]
//! serve_client pareto  --addr HOST:PORT [--config C] [--freq-min F]
//!                      [--freq-max F] [--steps N] [common]
//! serve_client sweep   --addr HOST:PORT [--configs C,C,..] [--stacking S,S]
//!                      [--corners X,X,..] [--freq-min F] [--freq-max F]
//!                      [--steps N] [common]
//! serve_client load    --addr HOST:PORT [--requests N] [--keys K] [common]
//!
//! common: [--scale F] [--seed N] [--deadline-ms MS] [--json]
//! ```
//!
//! Every subcommand builds its [`FlowRequest`] through the same
//! builder (same netlist recipe, options, deadline handling) and prints
//! through the same printer: human headlines by default, raw wire JSON
//! lines with `--json`. The `sweep` subcommand speaks protocol v2 and
//! streams `progress`/`point`/`done` events as they arrive; everything
//! else is v1 and byte-compatible with older servers.
//!
//! `load` is the pipelined mixed-workload generator.
//!
//! A response's `cache hit` says its session was resident. What else
//! the server saved — a kept pre-sizing prefix forked instead of built,
//! a netlist not regenerated — is not on the wire; the server counts it
//! in `StatsSnapshot::{prefix_builds, prefix_forks,
//! netlists_materialized}`.

use m3d_flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, NetlistSpec, Proto, SweepSpec,
    WireName,
};
use m3d_netgen::Benchmark;
use m3d_serve::protocol::{encode_line, ServerMessage, StreamEvent};
use m3d_serve::{Client, Response};
use m3d_tech::{Corner, StackingStyle};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: serve_client <run|fmax|compare|pareto|sweep|load> --addr HOST:PORT [options]\n\
         \x20 run:     [--config C] [--freq F]\n\
         \x20 fmax:    [--config C] [--start F]\n\
         \x20 compare: (no extra options)\n\
         \x20 pareto:  [--config C] [--freq-min F] [--freq-max F] [--steps N]\n\
         \x20 sweep:   [--configs C,C,..] [--stacking monolithic,f2f] [--corners slow,typical,fast]\n\
         \x20          [--freq-min F] [--freq-max F] [--steps N]\n\
         \x20 load:    [--requests N] [--keys K]\n\
         \x20 common:  [--scale F] [--seed N] [--deadline-ms MS] [--json]\n\
         configs: 2d9t 2d12t 3d9t 3d12t hetero3d\n\
         defaults: --scale 0.02 --seed 1 --config hetero3d --freq 1.0 --start 1.0\n\
         \x20         --freq-min 0.8 --freq-max 1.2 --steps 3 --requests 12 --keys 2"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("serve_client: {message}");
    std::process::exit(1);
}

/// A configuration, stacking style or corner by its wire name.
fn name_arg<T: WireName>(name: &str) -> T {
    T::from_wire_name(name).unwrap_or_else(|| usage())
}

fn list_arg<T>(csv: &str, one: impl Fn(&str) -> T) -> Vec<T> {
    csv.split(',').filter(|s| !s.is_empty()).map(one).collect()
}

/// Everything the subcommands share: the connection target, the netlist
/// recipe, the deadline, and the output mode.
struct Common {
    addr: Option<String>,
    scale: f64,
    seed: u64,
    deadline_ms: Option<u64>,
    json: bool,
}

impl Common {
    fn new() -> Common {
        Common {
            addr: None,
            scale: 0.02,
            seed: 1,
            deadline_ms: None,
            json: false,
        }
    }

    /// Tries one shared flag; returns whether it was consumed.
    fn take_flag(&mut self, flag: &str, value: &mut dyn FnMut() -> String) -> bool {
        match flag {
            "--addr" => self.addr = Some(value()),
            "--scale" => self.scale = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => self.seed = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => self.deadline_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--json" => self.json = true,
            _ => return false,
        }
        true
    }

    /// The shared request builder: every subcommand's wire request goes
    /// through here, so recipe, deadline and protocol-version handling
    /// exist exactly once. Sweeps are stamped v2; everything else stays
    /// v1 (and its line stays byte-identical to the pre-v2 client's).
    fn build_request(&self, id: u64, options: FlowOptions, command: FlowCommand) -> FlowRequest {
        let proto = if matches!(command, FlowCommand::Sweep { .. }) {
            Proto::V2
        } else {
            Proto::V1
        };
        FlowRequest {
            id,
            netlist: NetlistSpec {
                benchmark: Benchmark::Aes,
                scale: self.scale,
                seed: self.seed,
            },
            options,
            proto,
            command,
            deadline_ms: self.deadline_ms,
        }
    }

    fn connect(&self) -> Client {
        let Some(addr) = self.addr.as_deref() else {
            usage()
        };
        Client::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")))
    }
}

/// The shared printer for single responses. Returns whether the
/// response was `ok`.
fn print_response(response: &Response, json: bool) -> bool {
    if json {
        print!("{}", encode_line(response));
        return response.is_ok();
    }
    match response {
        Response::Ok {
            id,
            cache_hit,
            report,
        } => {
            println!(
                "#{id}: {} (cache {})",
                report.headline(),
                if *cache_hit { "hit" } else { "miss" }
            );
            true
        }
        Response::Rejected { id, kind, message } => {
            let id = id.map_or_else(|| "?".to_string(), |i| i.to_string());
            println!("#{id}: rejected [{kind}] {message}");
            false
        }
    }
}

/// The shared printer for stream events (the `sweep` subcommand).
fn print_event(event: &StreamEvent, json: bool) {
    if json {
        print!("{}", encode_line(event));
        return;
    }
    match event {
        StreamEvent::Progress { id, total } => println!("#{id}: sweep of {total} points"),
        StreamEvent::Point {
            id,
            index,
            cache_hit,
            report,
        } => println!(
            "#{id}[{index}]: {} (cache {})",
            report.headline(),
            if *cache_hit { "hit" } else { "miss" }
        ),
        StreamEvent::Error {
            id,
            index,
            kind,
            message,
        } => println!("#{id}[{index}]: error [{kind}] {message}"),
        StreamEvent::Done { id, points, errors } => {
            println!("#{id}: done ({points} points, {errors} errors)");
        }
    }
}

/// One-shot subcommands (`run`, `fmax`, `compare`, `pareto`): build,
/// send, print, exit.
fn run_one(common: &Common, command: FlowCommand) -> ! {
    let mut client = common.connect();
    let request = common.build_request(0, FlowOptions::default(), command);
    let started = Instant::now();
    let response = client
        .call(&request)
        .unwrap_or_else(|e| fail(&format!("call failed: {e}")));
    let ok = print_response(&response, common.json);
    // The pareto table is the one report worth more than a headline.
    if let (
        false,
        Response::Ok {
            cache_hit, report, ..
        },
    ) = (common.json, &response)
    {
        if let FlowReport::Pareto { summary } = report.as_ref() {
            print_pareto_table(summary, *cache_hit, started);
        }
    }
    std::process::exit(i32::from(!ok));
}

fn print_pareto_table(summary: &m3d_flow::ParetoSummary, cache_hit: bool, started: Instant) {
    println!(
        "{} pareto sweep ({} points, cache {}):",
        summary.config,
        summary.points.len(),
        if cache_hit { "hit" } else { "miss" }
    );
    println!(
        "  {:<10} {:>7} {:>8} {:>9} {:>10} {:>9} {:>4} {:>8}",
        "stacking", "corner", "f_GHz", "power_mW", "delay_ns", "cost_uc", "met", "frontier"
    );
    for p in &summary.points {
        println!(
            "  {:<10} {:>7} {:>8.3} {:>9.3} {:>10.4} {:>9.4} {:>4} {:>8}",
            p.stacking.to_string(),
            p.corner.to_string(),
            p.frequency_ghz,
            p.total_power_mw,
            p.effective_delay_ns,
            p.die_cost_uc,
            if p.timing_met { "yes" } else { "no" },
            if p.on_frontier { "*" } else { "" }
        );
    }
    println!(
        "{} frontier points in {:.2} s",
        summary.frontier().count(),
        started.elapsed().as_secs_f64()
    );
}

/// The `sweep` subcommand: one v2 request, events printed as streamed.
fn run_sweep(common: &Common, spec: SweepSpec) -> ! {
    let mut client = common.connect();
    let request = common.build_request(0, FlowOptions::default(), FlowCommand::Sweep { spec });
    let started = Instant::now();
    let messages = client
        .call_stream(&request)
        .unwrap_or_else(|e| fail(&format!("stream failed: {e}")));
    let mut failed = false;
    for message in &messages {
        match message {
            ServerMessage::Response(response) => {
                failed |= !print_response(response, common.json);
            }
            ServerMessage::Event(event) => {
                if let StreamEvent::Done { errors, .. } = event {
                    failed |= *errors > 0;
                }
                print_event(event, common.json);
            }
        }
    }
    if !common.json {
        println!("sweep finished in {:.2} s", started.elapsed().as_secs_f64());
    }
    std::process::exit(i32::from(failed));
}

/// The `load` subcommand: the pipelined mixed workload (five configs
/// plus an fmax search, spread over `keys` option variants).
fn run_load(common: &Common, requests: usize, keys: usize) -> ! {
    fn command(i: usize) -> FlowCommand {
        const CONFIGS: [Config; 5] = [
            Config::Hetero3d,
            Config::TwoD12T,
            Config::ThreeD9T,
            Config::TwoD9T,
            Config::ThreeD12T,
        ];
        match i % 6 {
            5 => FlowCommand::FindFmax {
                config: Config::Hetero3d,
                start_ghz: 1.0,
            },
            r => FlowCommand::RunFlow {
                config: CONFIGS[r],
                frequency_ghz: 1.0,
            },
        }
    }
    fn options_variant(k: usize) -> FlowOptions {
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 12 + k;
        o
    }
    let mut client = common.connect();
    let started = Instant::now();
    for i in 0..requests {
        let request = common.build_request(i as u64, options_variant(i % keys), command(i));
        if let Err(e) = client.send(&request) {
            fail(&format!("send failed: {e}"));
        }
    }
    let (mut ok, mut hits, mut rejected) = (0u64, 0u64, 0u64);
    for _ in 0..requests {
        let response = client
            .recv()
            .unwrap_or_else(|e| fail(&format!("receive failed: {e}")));
        if print_response(&response, common.json) {
            ok += 1;
            if let Response::Ok { cache_hit, .. } = &response {
                hits += u64::from(*cache_hit);
            }
        } else {
            rejected += 1;
        }
    }
    if !common.json {
        println!(
            "{requests} requests in {:.2} s: {ok} ok ({hits} cache hits), {rejected} rejected",
            started.elapsed().as_secs_f64()
        );
    }
    std::process::exit(i32::from(rejected > 0));
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let subcommand = args.next().unwrap_or_else(|| usage());

    let mut common = Common::new();
    // Subcommand-specific knobs, all optional.
    let mut config = Config::Hetero3d;
    let mut freq = 1.0f64;
    let mut start = 1.0f64;
    let mut freq_min = 0.8f64;
    let mut freq_max = 1.2f64;
    let mut steps = 3usize;
    let mut configs = vec![Config::Hetero3d];
    let mut stacking = StackingStyle::ALL.to_vec();
    let mut corners = vec![Corner::Typical];
    let mut requests = 12usize;
    let mut keys = 2usize;

    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        if common.take_flag(&flag, &mut value) {
            continue;
        }
        match flag.as_str() {
            "--config" => config = name_arg(&value()),
            "--freq" => freq = value().parse().unwrap_or_else(|_| usage()),
            "--start" => start = value().parse().unwrap_or_else(|_| usage()),
            "--freq-min" => freq_min = value().parse().unwrap_or_else(|_| usage()),
            "--freq-max" => freq_max = value().parse().unwrap_or_else(|_| usage()),
            "--steps" => steps = value().parse().unwrap_or_else(|_| usage()),
            "--configs" => configs = list_arg(&value(), name_arg),
            "--stacking" => stacking = list_arg(&value(), name_arg),
            "--corners" => corners = list_arg(&value(), name_arg),
            "--requests" => requests = value().parse().unwrap_or_else(|_| usage()),
            "--keys" => keys = value().parse::<usize>().unwrap_or_else(|_| usage()).max(1),
            _ => usage(),
        }
    }

    match subcommand.as_str() {
        "run" => run_one(
            &common,
            FlowCommand::RunFlow {
                config,
                frequency_ghz: freq,
            },
        ),
        "fmax" => run_one(
            &common,
            FlowCommand::FindFmax {
                config,
                start_ghz: start,
            },
        ),
        "compare" => run_one(&common, FlowCommand::CompareConfigs),
        "pareto" => run_one(
            &common,
            FlowCommand::Pareto {
                config,
                freq_min_ghz: freq_min,
                freq_max_ghz: freq_max,
                freq_steps: steps,
            },
        ),
        "sweep" => run_sweep(
            &common,
            SweepSpec {
                configs,
                stacking,
                corners,
                freq_min_ghz: freq_min,
                freq_max_ghz: freq_max,
                freq_steps: steps,
            },
        ),
        "load" => run_load(&common, requests, keys),
        _ => usage(),
    }
}
