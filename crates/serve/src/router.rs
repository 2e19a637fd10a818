//! A consistent-hash shard router: one TCP front over N backend flow
//! services, placing every request on the shard that owns its
//! checkpoint key.
//!
//! # Why a router
//!
//! The checkpoint cache is the expensive thing a service holds: one
//! pseudo-3-D build per `(netlist fingerprint, pseudo read-set of the
//! options)` key. Behind a naive load balancer, K shards each build
//! every hot key — K builds cluster-wide. This router hashes the *key*
//! instead of the connection: a request for a given `(netlist recipe,
//! options the checkpoints read)` pair always lands on the same shard,
//! so each key is built exactly once across the whole cluster, and
//! byte-identical answers come back no matter how many shards stand
//! behind the front (the flow is a pure function of the request —
//! placement cannot change bytes, only *where* the cache lives).
//!
//! # Routing
//!
//! The ring is classic consistent hashing: [`RouterConfig::vnodes`]
//! virtual nodes per backend, FNV-1a hashed, sorted; a request's
//! [`route_key`] — benchmark, scale bits, seed, and the options'
//! [`ReadSet::Pseudo`] — walks clockwise to the first vnode. Adding a shard moves only the keys that now belong to
//! it. Routing never materializes a netlist: the key is built from the
//! request's recipe fields alone.
//!
//! # Protocol handling
//!
//! * **v1 single-shot requests relay verbatim**: the router forwards
//!   the client's original line bytes and returns the backend's
//!   response line bytes untouched. Byte identity with a direct
//!   connection holds by construction.
//! * **v2 sweeps decompose at the router**: each grid point is its own
//!   v1 request routed by its own key (no scenario axis is in it, so
//!   the points of one sweep share a key and therefore a shard). The router
//!   synthesizes the stream — `progress` up front, one `point`/`error`
//!   per grid point with the index remapped into scenario-major order,
//!   and an aggregate `done` — so a streaming client cannot tell a
//!   routed sweep from a single-server one.
//!
//! * **The front is the server's**: accepting, framing (the same 1 MiB
//!   cap — an oversize line gets the same `protocol` rejection bytes,
//!   then a close), decoding, write backpressure and drain are one code
//!   path shared with [`crate::TcpServer`].
//!
//! # Threading and health
//!
//! A client connection's reader thread makes the backend calls itself: a
//! connection's requests are answered in order and each is a blocking
//! call on a backend [`Client`], so the thread *is* the per-connection
//! state machine (DESIGN §16). Backend connections are lazy and
//! per-client-connection (pipelined requests stay ordered per backend).
//! A failed call reconnects and retries once; a backend that stays down
//! answers that request `overloaded` (or an `error` event for a sweep
//! point) instead of hanging the client.

use crate::client::{Client, ClientError};
use crate::conn::{Front, Outbox, Service};
use crate::protocol::{decode_response, encode_line, RejectKind, Response, StreamEvent};
use crate::server::TcpTuning;
use m3d_flow::{FlowCommand, FlowRequest, ReadSet};
use m3d_obs::Obs;
use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The backend flow services, in ring order. Position in this list
    /// is the backend's identity on the ring, so a stable list gives a
    /// stable placement.
    pub backends: Vec<SocketAddr>,
    /// Virtual nodes per backend on the hash ring. More vnodes smooth
    /// the key distribution; 64 keeps the largest shard within a few
    /// percent of fair at any realistic backend count.
    pub vnodes: usize,
}

impl RouterConfig {
    /// A config for `backends` with default tuning.
    #[must_use]
    pub fn new(backends: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            backends,
            vnodes: 64,
        }
    }
}

/// 64-bit FNV-1a with an avalanche finalizer: tiny and
/// dependency-free. Raw FNV-1a clusters badly in the *upper* bits for
/// short, similar strings (vnode labels, sequential fingerprints) —
/// enough to hand one backend most of the ring — so the FNV state is
/// run through a murmur3-style fmix64 before it is used as a ring
/// position.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// The request property the ring hashes: everything that determines
/// the checkpoint key, readable off the request without materializing
/// the netlist. Two requests with equal route keys have equal cache
/// keys — requests that differ only behind the pseudo-3-D checkpoint
/// among them — so key-affinity routing is build-affinity routing.
#[must_use]
pub fn route_key(request: &FlowRequest) -> String {
    format!(
        "{:?}|{:016x}|{}|{:016x}",
        request.netlist.benchmark,
        request.netlist.scale.to_bits(),
        request.netlist.seed,
        request.options.read_set(ReadSet::Pseudo)
    )
}

/// The consistent-hash ring: sorted `(hash, backend)` vnodes.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: Vec<(u64, usize)>,
}

impl Ring {
    /// Builds the ring for `backends` backends with `vnodes` virtual
    /// nodes each (both floored at 1).
    #[must_use]
    pub fn new(backends: usize, vnodes: usize) -> Ring {
        let backends = backends.max(1);
        let per = vnodes.max(1);
        let mut ring = Vec::with_capacity(backends * per);
        for backend in 0..backends {
            for vnode in 0..per {
                ring.push((
                    fnv1a(format!("shard-{backend}/vnode-{vnode}").as_bytes()),
                    backend,
                ));
            }
        }
        // The backend index tiebreaks hash collisions so the ring is a
        // pure function of (backends, vnodes) — every router instance
        // agrees on placement.
        ring.sort_unstable();
        Ring { vnodes: ring }
    }

    /// The backend owning `key`: the first vnode clockwise of its hash.
    #[must_use]
    pub fn route(&self, key: &str) -> usize {
        let hash = fnv1a(key.as_bytes());
        let at = self.vnodes.partition_point(|&(h, _)| h < hash);
        self.vnodes[at % self.vnodes.len()].1
    }
}

/// Monotonic router counters, readable via [`Router::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// v1 requests relayed verbatim to a backend.
    pub relayed: u64,
    /// v2 sweeps decomposed and streamed.
    pub sweeps: u64,
    /// Sweep points fanned out to backends.
    pub sweep_points: u64,
    /// Backend calls that failed once and were retried on a fresh
    /// connection.
    pub backend_retries: u64,
    /// Requests (or sweep points) answered `overloaded` because their
    /// backend stayed unreachable through the retry.
    pub backend_unavailable: u64,
    /// Malformed client lines answered `protocol` at the router.
    pub rejected_protocol: u64,
}

#[derive(Default)]
struct RouterStats {
    relayed: AtomicU64,
    sweeps: AtomicU64,
    sweep_points: AtomicU64,
    backend_retries: AtomicU64,
    backend_unavailable: AtomicU64,
    rejected_protocol: AtomicU64,
}

/// The router's half of the shared front: the ring, the backend list
/// and the counters. Each client connection keeps its own lazily opened
/// backend connections (one order-preserving [`Client`] per backend).
struct Relay {
    ring: Ring,
    backends: Vec<SocketAddr>,
    stats: Arc<RouterStats>,
}

type BackendConns = HashMap<usize, Client>;

impl Relay {
    /// Calls `line` (no newline) on backend `idx` and returns the
    /// response line (with its newline): lazy connect, one reconnect-
    /// and-retry on failure — a clean backend EOF included — and `Err`
    /// once the backend stayed down.
    fn backend_call(&self, conns: &mut BackendConns, idx: usize, line: &str) -> Result<String, ()> {
        for attempt in 0..2 {
            if attempt > 0 {
                self.stats.backend_retries.fetch_add(1, Ordering::Relaxed);
            }
            let conn = match conns.entry(idx) {
                Entry::Occupied(open) => open.into_mut(),
                Entry::Vacant(slot) => match Client::connect(self.backends[idx]) {
                    Ok(conn) => slot.insert(conn),
                    Err(_) => continue,
                },
            };
            let called = conn
                .send_raw(line)
                .map_err(ClientError::from)
                .and_then(|()| conn.recv_raw());
            match called {
                Ok(response) => return Ok(response),
                Err(_) => {
                    // Stale or broken pipe: drop it; the retry
                    // reconnects from scratch.
                    conns.remove(&idx);
                }
            }
        }
        self.stats
            .backend_unavailable
            .fetch_add(1, Ordering::Relaxed);
        Err(())
    }

    /// Relays one v1 request verbatim: the client's exact line goes to
    /// the owning backend, the backend's exact response line comes
    /// back. Returns the line to write to the client.
    fn relay_single(&self, conns: &mut BackendConns, line: &str, request: &FlowRequest) -> String {
        self.stats.relayed.fetch_add(1, Ordering::Relaxed);
        let backend = self.ring.route(&route_key(request));
        match self.backend_call(conns, backend, line) {
            Ok(response) => response,
            Err(()) => encode_line(&Response::reject(
                Some(request.id),
                RejectKind::Overloaded,
                format!("backend shard {backend} is unavailable; retry later"),
            )),
        }
    }

    /// Decomposes a sweep, routes every point by its own key, and
    /// synthesizes the client-facing stream. Sends events to `out` as
    /// points come back so the client streams instead of waiting.
    fn relay_sweep(&self, conns: &mut BackendConns, request: &FlowRequest, out: &Outbox) {
        self.stats.sweeps.fetch_add(1, Ordering::Relaxed);
        let id = request.id;
        let points = request
            .decompose_sweep()
            .expect("a validated sweep decomposes");
        let total = points.len() as u64;
        out.send(encode_line(&StreamEvent::Progress { id, total }));
        let mut delivered = 0u64;
        let mut errors = 0u64;
        for (index, mut point) in points.into_iter().enumerate() {
            let index = index as u64;
            // The point's wire id is its scenario-major index: unique
            // per in-flight sweep on each backend connection, and the
            // natural correlation token for the event we synthesize.
            point.id = index;
            self.stats.sweep_points.fetch_add(1, Ordering::Relaxed);
            let backend = self.ring.route(&route_key(&point));
            let called = self.backend_call(conns, backend, encode_line(&point).trim_end());
            let outcome = match called {
                Ok(response_line) => match decode_response(&response_line) {
                    Ok(Response::Ok {
                        cache_hit, report, ..
                    }) => Ok((cache_hit, report)),
                    Ok(Response::Rejected { kind, message, .. }) => Err((kind, message)),
                    Err(e) => Err((
                        RejectKind::Protocol,
                        format!("undecodable backend response: {e}"),
                    )),
                },
                Err(()) => Err((
                    RejectKind::Overloaded,
                    format!("backend shard {backend} is unavailable; retry later"),
                )),
            };
            let event = match outcome {
                Ok((cache_hit, report)) => {
                    delivered += 1;
                    StreamEvent::Point {
                        id,
                        index,
                        cache_hit,
                        report,
                    }
                }
                Err((kind, message)) => {
                    errors += 1;
                    StreamEvent::Error {
                        id,
                        index,
                        kind,
                        message,
                    }
                }
            };
            out.send(encode_line(&event));
        }
        out.send(encode_line(&StreamEvent::Done {
            id,
            points: delivered,
            errors,
        }));
    }
}

impl Service for Relay {
    type Conn = BackendConns;

    fn open(&self) -> BackendConns {
        HashMap::new()
    }

    fn request(&self, conns: &mut BackendConns, line: &str, request: FlowRequest, out: &Outbox) {
        // Only a *valid* sweep streams. An invalid one (bad grid, wrong
        // protocol version) relays verbatim so the backend answers the
        // exact single-line rejection a direct connection would see.
        if matches!(request.command, FlowCommand::Sweep { .. }) && request.validate().is_ok() {
            self.relay_sweep(conns, &request, out);
        } else {
            out.send(self.relay_single(conns, line, &request));
        }
    }

    fn rejected(&self) {
        self.stats.rejected_protocol.fetch_add(1, Ordering::Relaxed);
    }
}

/// The router front: the front [`crate::TcpServer`] uses, relaying each
/// connection's requests instead of executing them.
pub struct Router {
    stats: Arc<RouterStats>,
    front: Front,
}

impl Router {
    /// Binds `addr` and starts routing to `config.backends`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures; an empty backend list is
    /// `InvalidInput`.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let stats = Arc::new(RouterStats::default());
        let relay = Relay {
            ring: Ring::new(config.backends.len(), config.vnodes),
            backends: config.backends,
            stats: Arc::clone(&stats),
        };
        let front = Front::serve(listener, relay, TcpTuning::default(), Obs::disabled())?;
        Ok(Router { stats, front })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> RouterStatsSnapshot {
        let s = &self.stats;
        RouterStatsSnapshot {
            relayed: s.relayed.load(Ordering::Relaxed),
            sweeps: s.sweeps.load(Ordering::Relaxed),
            sweep_points: s.sweep_points.load(Ordering::Relaxed),
            backend_retries: s.backend_retries.load(Ordering::Relaxed),
            backend_unavailable: s.backend_unavailable.load(Ordering::Relaxed),
            rejected_protocol: s.rejected_protocol.load(Ordering::Relaxed),
        }
    }

    /// Drains like a server: stops accepting, closes every client's
    /// read half (an idle client sees EOF), answers the lines already
    /// read, and returns the final counters.
    pub fn shutdown(mut self) -> RouterStatsSnapshot {
        self.front.drain();
        self.stats()
    }

    /// Blocks forever routing requests (the `m3d-router` binary's main
    /// loop).
    pub fn join(mut self) {
        self.front.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_deterministic_and_covers_every_backend() {
        let ring = Ring::new(4, 64);
        let again = Ring::new(4, 64);
        let mut seen = [false; 4];
        for key in 0..1000 {
            let k = format!("key-{key}");
            let backend = ring.route(&k);
            assert_eq!(backend, again.route(&k), "placement must be stable");
            seen[backend] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 vnodes reach all 4 backends");
    }

    #[test]
    fn one_backend_owns_everything() {
        let ring = Ring::new(1, 64);
        for key in 0..100 {
            assert_eq!(ring.route(&format!("key-{key}")), 0);
        }
    }

    #[test]
    fn vnode_distribution_is_roughly_fair() {
        let ring = Ring::new(4, 64);
        let mut counts = [0usize; 4];
        for key in 0..4000 {
            counts[ring.route(&format!("fingerprint-{key:016x}"))] += 1;
        }
        for &count in &counts {
            // 4000 keys over 4 backends: each within [400, 2200] is
            // ample slack for hash variance while catching gross skew.
            assert!((400..2200).contains(&count), "skewed ring: {counts:?}");
        }
    }
}
