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
//! Every request relays **verbatim**: the router forwards the client's
//! original line to the shard its [`route_key`] names and returns the
//! backend's lines untouched, so byte identity with a direct connection
//! holds by construction. A v1 request's answer is one line, never
//! decoded. A v2 sweep's answer is the backend's own stream — no scenario
//! axis is in the key, so a sweep is one key and one shard, where the
//! backend runs it under its in-flight cap and fairness rules; the router
//! decodes each line only to find the terminal one and to note which
//! grid indices it has delivered.
//!
//! The front is the server's: accepting, framing (the same 1 MiB cap —
//! an oversize line gets the same `protocol` rejection bytes, then a
//! close), decoding, write backpressure and drain are one code path
//! shared with [`crate::TcpServer`].
//!
//! # Threading and health
//!
//! A client connection's reader thread relays its requests itself, one
//! at a time and in order, each over a blocking backend [`Client`], so
//! the thread *is* the per-connection state machine (DESIGN §16).
//! Backend connections are lazy and per-client-connection. Between the
//! lines of a stream the relay waits for room in the client's outbox;
//! once the client's writer has stopped, it drops the backend
//! connection, and the backend's disconnect path cancels the sweep's
//! remaining points. A backend lost before any line was forwarded is
//! reconnected and retried once, then the request is answered with one
//! `overloaded` rejection line; one lost mid-stream has the sweep closed
//! out with an `overloaded` `error` per undelivered point and a `done`
//! that totals the grid. There is no timeout: a live backend that stalls
//! parks the relaying thread.

use crate::client::Client;
use crate::conn::{Front, Outbox, Service};
use crate::protocol::{
    decode_message, encode_line, RejectKind, Response, ServerMessage, StreamEvent,
};
use m3d_flow::{FlowCommand, FlowRequest, ReadSet, MAX_SWEEP_POINTS};
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

/// Monotonic router counters, readable via [`Router::stats`]. What a
/// relayed request did on its backend — sweeps and their points
/// included — is the backend's [`crate::StatsSnapshot`] to count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// Requests relayed to a backend, v1 lines and sweeps alike.
    pub relayed: u64,
    /// Backend calls that failed before any answer line was forwarded
    /// and were retried on a fresh connection.
    pub backend_retries: u64,
    /// Requests answered `overloaded` (a sweep: closed out) because
    /// their backend was lost before their terminal line.
    pub backend_unavailable: u64,
    /// Malformed client lines answered `protocol` at the router.
    pub rejected_protocol: u64,
}

#[derive(Default)]
struct RouterStats {
    relayed: AtomicU64,
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

/// What a relayed sweep has forwarded so far: enough to close it out if
/// its backend is lost mid-stream.
#[derive(Default)]
struct Forwarded {
    /// Whether any line reached the client (a retry is then too late).
    any: bool,
    /// Per grid index (sized by `progress`), whether its `point` or
    /// `error` was forwarded.
    settled: Vec<bool>,
    /// `point` events forwarded.
    points: u64,
}

impl Forwarded {
    /// Notes one forwarded sweep line; `true` when it ends the answer (a
    /// `done`, or a single rejection line).
    fn note(&mut self, message: &ServerMessage) -> bool {
        self.any = true;
        let index = match message {
            ServerMessage::Event(StreamEvent::Progress { total, .. }) => {
                // No valid sweep is larger: a backend's line cannot make
                // the router allocate past it.
                self.settled = vec![false; (*total).min(MAX_SWEEP_POINTS as u64) as usize];
                return false;
            }
            ServerMessage::Event(StreamEvent::Point { index, .. }) => {
                self.points += 1;
                *index
            }
            ServerMessage::Event(StreamEvent::Error { index, .. }) => *index,
            ServerMessage::Event(StreamEvent::Done { .. }) | ServerMessage::Response(_) => {
                return true
            }
        };
        if let Some(settled) = self.settled.get_mut(index as usize) {
            *settled = true;
        }
        false
    }

    /// Ends a stream whose backend was lost: one `error` per index not
    /// yet settled, then a `done` whose totals add up to the grid.
    fn close_out(self, id: u64, message: &str, out: &Outbox) {
        for (index, _) in self.settled.iter().enumerate().filter(|(_, s)| !**s) {
            out.send(encode_line(&StreamEvent::Error {
                id,
                index: index as u64,
                kind: RejectKind::Overloaded,
                message: message.to_string(),
            }));
        }
        out.send(encode_line(&StreamEvent::Done {
            id,
            points: self.points,
            errors: (self.settled.len() as u64).saturating_sub(self.points),
        }));
    }
}

impl Service for Relay {
    type Conn = BackendConns;

    fn open(&self) -> BackendConns {
        HashMap::new()
    }

    /// Relays one request to the shard that owns its key: the client's
    /// exact line goes out, and the backend's lines come back verbatim
    /// up to the answer's terminal one — a v1 request's one response
    /// line (never decoded), a sweep's `done` or its single rejection.
    /// A backend lost before any line was forwarded is reconnected and
    /// retried once, then the request is answered `overloaded`; one lost
    /// mid-stream has the sweep closed out by [`Forwarded::close_out`].
    fn request(&self, conns: &mut BackendConns, line: &str, request: FlowRequest, out: &Outbox) {
        self.stats.relayed.fetch_add(1, Ordering::Relaxed);
        let backend = self.ring.route(&route_key(&request));
        let sweep = matches!(request.command, FlowCommand::Sweep { .. });
        let mut forwarded = Forwarded::default();
        for attempt in 0..2 {
            if attempt > 0 {
                self.stats.backend_retries.fetch_add(1, Ordering::Relaxed);
            }
            let conn = match conns.entry(backend) {
                Entry::Occupied(open) => open.into_mut(),
                Entry::Vacant(slot) => match Client::connect(self.backends[backend]) {
                    Ok(conn) => slot.insert(conn),
                    Err(_) => continue,
                },
            };
            if conn.send_raw(line).is_ok() {
                while let Ok(answer) = conn.recv_raw() {
                    if !sweep {
                        out.send(answer);
                        return;
                    }
                    // An undecodable line is a lost backend too.
                    let Ok(message) = decode_message(&answer) else {
                        break;
                    };
                    let terminal = forwarded.note(&message);
                    out.send(answer);
                    if terminal {
                        return;
                    }
                    if !out.wait_for_room() {
                        // The client is gone: closing the backend
                        // connection cancels the sweep's remaining points.
                        conns.remove(&backend);
                        return;
                    }
                }
            }
            // Stale, broken or lost: drop it; a retry reconnects.
            conns.remove(&backend);
            if forwarded.any {
                break;
            }
        }
        self.stats
            .backend_unavailable
            .fetch_add(1, Ordering::Relaxed);
        let message = format!("backend shard {backend} is unavailable; retry later");
        if forwarded.any {
            forwarded.close_out(request.id, &message, out);
        } else {
            let reject = Response::reject(Some(request.id), RejectKind::Overloaded, message);
            out.send(encode_line(&reject));
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
        let front = Front::serve(listener, relay, Obs::disabled())?;
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
