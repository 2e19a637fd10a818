//! Serve round-trip: start the flow service in-process on an ephemeral
//! TCP port, pipeline a handful of design-space queries at it through
//! the line-protocol client, and watch the checkpoint cache absorb the
//! repeated prefixes.
//!
//! ```sh
//! cargo run --release --example serve_roundtrip
//! ```
//!
//! The same binary-level protocol works across machines: run
//! `cargo run --release --bin serve` on one host and point
//! `serve_client load --addr HOST:PORT` (or your own newline-delimited JSON
//! speaker) at it.

use hetero3d::flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto};
use hetero3d::netgen::Benchmark;
use hetero3d::serve::{Client, Response, ServerConfig, TcpServer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-worker service with a small checkpoint cache, bound to an
    // OS-assigned port. In production you'd run the `serve` binary.
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 4,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("flow service listening on {addr}");

    // Four queries against one netlist + option set — one cache key.
    // The first request builds the shared session (miss); the rest
    // fork its checkpoints (hits), including the pseudo-3-D snapshot
    // shared by the Hetero3d and ThreeD9T runs.
    let netlist = NetlistSpec {
        benchmark: Benchmark::Aes,
        scale: 0.02,
        seed: 7,
    };
    let commands = [
        FlowCommand::RunFlow {
            config: Config::Hetero3d,
            frequency_ghz: 1.1,
        },
        FlowCommand::RunFlow {
            config: Config::TwoD12T,
            frequency_ghz: 1.1,
        },
        FlowCommand::RunFlow {
            config: Config::ThreeD9T,
            frequency_ghz: 1.0,
        },
        FlowCommand::FindFmax {
            config: Config::Hetero3d,
            start_ghz: 1.0,
        },
    ];

    let mut client = Client::connect(addr)?;
    for (i, command) in commands.iter().enumerate() {
        client.send(&FlowRequest {
            id: i as u64,
            netlist,
            options: FlowOptions::default(),
            command: command.clone(),
            deadline_ms: None,
            proto: Proto::V1,
        })?;
    }
    for _ in &commands {
        match client.recv()? {
            Response::Ok {
                id,
                cache_hit,
                report,
            } => println!(
                "#{id}: ok (cache {}) -> {}",
                if cache_hit { "hit" } else { "miss" },
                report.headline()
            ),
            Response::Rejected { id, kind, message } => {
                println!("#{id:?}: rejected [{kind}] {message}");
            }
        }
    }
    drop(client);

    let stats = server.shutdown();
    println!(
        "served {} ok / {} cache hits / {} sessions built",
        stats.completed_ok, stats.cache_hits, stats.cache_misses
    );
    Ok(())
}
