//! # m3d-serve — the flow as a long-running service
//!
//! A design-space exploration asks the same flow many questions about
//! the same netlist: sweep frequencies, flip options, compare
//! configurations. Run as one-shot processes those queries redo the
//! expensive shared prefixes — validation, base buffering, the
//! pseudo-3-D implementation — on every call. This crate keeps them
//! resident: a daemon that answers serialized [`FlowRequest`]s over
//! TCP, executing on a bounded worker pool behind an LRU
//! **checkpoint cache** keyed by `(netlist fingerprint, options
//! fingerprint)`, so repeated queries fork a shared
//! [`m3d_flow::FlowSession`] in O(1).
//!
//! The layers, bottom-up:
//!
//! * [`protocol`] — newline-delimited JSON framing: [`FlowRequest`] in,
//!   [`Response`] out, malformed input answered with a typed
//!   [`JsonError`]-derived rejection (never a panic or a hang).
//! * [`cache`] — the [`SessionCache`]: one [`m3d_flow::FlowSession`]
//!   per distinct key, built exactly once (racing requests share the
//!   build), evicted least-recently-used — optionally backed by a
//!   persistent [`m3d_store::Store`] tier that survives restarts
//!   (misses rehydrate from disk, completed sessions write through,
//!   evictions spill).
//! * the TCP front (private `conn` module) — one front for the server
//!   and the router: an accept thread, and per connection a reader
//!   thread that frames and decodes lines (on `m3d-json`'s borrowed
//!   zero-copy path) and a writer thread that sends the rendered
//!   answers, with write backpressure that pauses reads instead of
//!   buffering without limit.
//! * [`server`] — the [`Server`] engine (bounded queue, explicit
//!   `overloaded` backpressure, per-request deadlines, graceful
//!   drain-on-shutdown) and its [`TcpServer`] front (a connection's
//!   reader pauses past [`WRITE_HIGH_WATER`] queued reply bytes).
//! * [`client`] — a blocking pipelined [`Client`], also the substrate
//!   of the `serve_client` load generator.
//! * [`router`] — a consistent-hash shard [`Router`] front: N backend
//!   services behind one address, every request placed on the shard
//!   that owns its checkpoint key, so each key is built exactly once
//!   cluster-wide and answers stay byte-identical to a single server.
//!
//! Service responses are **bit-identical to direct library calls** at
//! any worker count: workers execute through the same
//! [`m3d_flow::FlowSession::execute`] path a library caller uses, and
//! every flow result is a pure function of `(netlist, options,
//! command)`.
//!
//! ```no_run
//! use m3d_serve::{Client, ServerConfig, TcpServer};
//! use m3d_flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto};
//! use m3d_netgen::Benchmark;
//!
//! let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let response = client.call(&FlowRequest {
//!     id: 1,
//!     netlist: NetlistSpec { benchmark: Benchmark::Aes, scale: 0.05, seed: 1 },
//!     options: FlowOptions::default(),
//!     command: FlowCommand::RunFlow { config: Config::Hetero3d, frequency_ghz: 1.2 },
//!     deadline_ms: None,
//!     proto: Proto::V1,
//! })?;
//! assert!(response.is_ok());
//! let stats = server.shutdown();
//! assert_eq!(stats.completed_ok, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod client;
mod conn;
mod ledger;
pub mod protocol;
pub mod router;
pub mod server;

pub use cache::{SessionCache, SessionKey};
pub use client::{Client, ClientError};
pub use conn::{raise_nofile_limit, WRITE_HIGH_WATER};
pub use m3d_flow::{FlowCommand, FlowReport, FlowRequest, NetlistSpec};
pub use m3d_store::{Store, StoreError, StoreKey};
pub use protocol::{
    decode_message, decode_request, decode_response, encode_line, JsonError, RejectKind, Response,
    ServerMessage, StreamEvent,
};
pub use router::{route_key, Ring, Router, RouterConfig, RouterStatsSnapshot};
pub use server::{Pending, PendingStream, Server, ServerConfig, StatsSnapshot, TcpServer};
