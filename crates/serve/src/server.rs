//! The service engine: a bounded worker pool over a backpressured
//! queue, with graceful drain-on-shutdown — plus the TCP front that
//! feeds it newline-delimited JSON.
//!
//! # Life of a request
//!
//! 1. **Admission**: every request — from [`Server::submit`],
//!    [`Server::submit_stream`] or a TCP connection's reader — enters
//!    through one private `admit`, carrying the one route its lines will
//!    take. It is first held to the numeric bounds of
//!    [`FlowRequest::validate`] — an absurd netlist scale or grid-sizing
//!    knob is rejected [`RejectKind::Protocol`] before it can reach a
//!    worker, even from in-process callers. Then, under the queue lock,
//!    the request is either queued or rejected — with
//!    [`RejectKind::Overloaded`] when the queue is at `queue_depth`
//!    (explicit backpressure, never silent blocking) or
//!    [`RejectKind::Shutdown`] once draining has begun. Admission is the
//!    only place requests are dropped for capacity. A v2 sweep is
//!    admitted as its per-point v1 requests.
//! 2. **Dequeue**: a worker pops the oldest job. A job whose deadline
//!    elapsed while it sat in the queue is answered with
//!    [`RejectKind::Deadline`] and never run — queue time is the thing
//!    deadlines bound; execution, once started, always completes.
//! 3. **Execution**: one function runs every job, whole request or
//!    sweep point: it obtains the shared session from the
//!    [`SessionCache`] by the request's netlist *recipe* (the netlist is
//!    generated only when a session has to be built) and by what the
//!    session's checkpoints read of its options, bound to the request's
//!    own options, runs [`m3d_flow::FlowSession::execute`] — the same code path a direct
//!    library caller uses, which is why service responses are
//!    bit-identical to library calls at any worker count — and writes
//!    the session through to the store, all inside `catch_unwind`: a
//!    panicking flow answers the request with a [`RejectKind::Flow`]
//!    rejection and the worker survives, so one pathological request
//!    can never shrink the pool. The two callers differ only in the
//!    message they build and the counters they book (v1 vs `sweep_*`).
//! 4. **Reply**: every line goes back through the job's one route — an
//!    in-process [`ServerMessage`] channel ([`PendingStream`], which
//!    [`Pending`] narrows to its terminal response), or the outbox of
//!    the connection the request arrived on. Lines bound for a socket
//!    are rendered to their wire form *on the worker thread*; the
//!    connection's writer thread only copies bytes, and no worker ever
//!    writes to a socket, so a slow reader cannot stall the pool.
//!
//! # The TCP front
//!
//! [`TcpServer`] serves through the front it shares with the router
//! (`conn.rs`): per connection — one fairness client — a reader thread
//! admits each decoded request and a writer thread sends the rendered
//! lines. Past [`crate::WRITE_HIGH_WATER`] queued bytes the reader stops
//! *reading* (natural TCP backpressure) until they drain to half.
//!
//! # Shutdown
//!
//! [`Server::begin_drain`] atomically stops admission; workers keep
//! draining until the queue is empty, then exit. Every accepted request
//! is answered — the drain test in `tests/service.rs` holds the server
//! to that. [`TcpServer::shutdown`] first drains the front: it stops
//! accepting, closes every connection's read half (idle clients see
//! EOF), waits until each connection has sent everything in flight, and
//! only then does the engine itself drain. A [`TcpServer`] dropped
//! without `shutdown` drains the same way.

use crate::cache::SessionCache;
use crate::conn::{Front, Outbox, Service};
use crate::protocol::{encode_line, RejectKind, Response, ServerMessage, StreamEvent};
use m3d_flow::{FlowCommand, FlowReport, FlowRequest};
use m3d_obs::Obs;
use m3d_store::Store;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing flows.
    pub workers: usize,
    /// Maximum queued (admitted, not yet started) requests; beyond
    /// this, requests are rejected `overloaded`.
    pub queue_depth: usize,
    /// Maximum resident sessions in the checkpoint cache.
    pub cache_capacity: usize,
    /// Telemetry sink: per-request spans, queue/cache counters, and the
    /// cached sessions' own flow telemetry (under `flow/`).
    pub obs: Obs,
    /// Optional persistent checkpoint store: cache misses rehydrate
    /// from it, completed sessions are written through to it, and a
    /// restarted server pointed at the same directory answers its first
    /// repeat request from disk instead of re-running the flow prefix.
    pub store: Option<Arc<Store>>,
    /// Fairness cap: at most this many of one client's sweep points may
    /// be queued or executing at once. Points past the cap are deferred
    /// (counted in [`StatsSnapshot::quota_deferred`]) and promoted one
    /// at a time as the client's earlier points finish, so a large sweep
    /// shares the pool instead of monopolizing it. Floored at 1.
    pub sweep_inflight_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 8,
            obs: Obs::disabled(),
            store: None,
            sweep_inflight_cap: 4,
        }
    }
}

/// Monotonic service counters, readable at any time via
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests a worker started executing (deadline checks included).
    pub started: u64,
    /// Requests answered `ok`.
    pub completed_ok: u64,
    /// Requests answered with a `flow` rejection.
    pub failed_flow: u64,
    /// Requests rejected `overloaded` at admission.
    pub rejected_overloaded: u64,
    /// Requests rejected `deadline` at dequeue.
    pub rejected_deadline: u64,
    /// Requests rejected `shutdown` at admission.
    pub rejected_shutdown: u64,
    /// Requests rejected `protocol` — malformed lines on the wire, and
    /// requests whose numbers fall outside [`FlowRequest::validate`]'s
    /// bounds at admission.
    pub rejected_protocol: u64,
    /// Checkpoint-cache hits: a session for the request's netlist and
    /// pseudo read-set was resident, whatever its other options.
    pub cache_hits: u64,
    /// Checkpoint-cache misses (== distinct keys built).
    pub cache_misses: u64,
    /// Cache misses rehydrated from the persistent store (warm hits).
    pub store_hits: u64,
    /// Cache misses the persistent store could not answer.
    pub store_misses: u64,
    /// Session artifacts written to the persistent store.
    pub store_spills: u64,
    /// Corrupt store records detected (and evicted) during lookups.
    pub store_corrupt_evicted: u64,
    /// Netlists generated from their recipe: by lookups that had to
    /// build a session or met a new recipe, never on a resident key.
    pub netlists_materialized: u64,
    /// Pseudo-3-D stages run: one per session built cold that met a 3-D
    /// command — distinct pseudo read-set keys, while none is evicted.
    pub pseudo_builds: u64,
    /// Pre-sizing prefixes built by requests of every command — a
    /// `run_flow`, a sweep point, an fmax probe or rung, a comparison
    /// job, a Pareto walk: a session's first of a configuration, or of a
    /// Hetero-3-D period.
    pub prefix_builds: u64,
    /// Runs of every command that forked a prefix their session already
    /// held and went straight to sizing (each fmax rung that forks its
    /// probe's prefix counts one).
    pub prefix_forks: u64,
    /// Protocol-v2 sweep requests admitted. Sweeps and their points are
    /// counted here and in the `sweep_*` fields only — never in the v1
    /// counters above, whose values stay comparable across protocol
    /// versions.
    pub sweeps: u64,
    /// Sweep points that completed and streamed a `point` event.
    pub sweep_points: u64,
    /// Sweep points that failed and streamed an `error` event.
    pub sweep_point_errors: u64,
    /// Sweep points deferred at admission or promotion because their
    /// client was at [`ServerConfig::sweep_inflight_cap`]. Deterministic
    /// for a lone sweep: `total points - cap` when the sweep is larger
    /// than the cap.
    pub quota_deferred: u64,
    /// Sweep points dropped without running because their client
    /// disconnected (or its sweep was otherwise cancelled) mid-stream.
    pub sweep_cancelled_points: u64,
}

#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    started: AtomicU64,
    completed_ok: AtomicU64,
    failed_flow: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_protocol: AtomicU64,
    pseudo_builds: AtomicU64,
    prefix_builds: AtomicU64,
    prefix_forks: AtomicU64,
    sweeps: AtomicU64,
    sweep_points: AtomicU64,
    sweep_point_errors: AtomicU64,
    quota_deferred: AtomicU64,
    sweep_cancelled_points: AtomicU64,
}

/// Where a request's lines go: back to an in-process caller's message
/// stream, or to the outbox of the connection it arrived on.
enum Route {
    Stream(Sender<ServerMessage>),
    Conn(Outbox),
}

impl Route {
    /// Ships one message.
    fn send(&self, message: ServerMessage) {
        match self {
            Route::Stream(tx) => {
                let _ = tx.send(message);
            }
            // Rendered on this (worker or admitting reader) thread: the
            // connection's writer never serializes a report.
            Route::Conn(out) => out.send(encode_line(&message)),
        }
    }

    /// Answers a request with its single response — also how a sweep
    /// that never started (admission rejection) ends.
    fn respond(&self, response: Response) {
        self.send(ServerMessage::Response(response));
    }

    /// Ships one event of a sweep's stream.
    fn event(&self, event: StreamEvent) {
        self.send(ServerMessage::Event(event));
    }
}

/// Shared state of one in-flight sweep: the event route plus the
/// counters that decide when `done` fires. Workers touch it from many
/// threads; the terminal event is emitted by whichever worker (or
/// cancellation path) brings `remaining` to zero.
struct SweepShared {
    id: u64,
    client: u64,
    route: Route,
    remaining: AtomicU64,
    delivered: AtomicU64,
    errors: AtomicU64,
    cancelled: AtomicBool,
}

impl SweepShared {
    /// Accounts one finished (delivered, failed, or dropped) point and
    /// emits `done` when it was the last. Returns whether it was.
    fn finish_point(&self) -> bool {
        let remaining = self.remaining.fetch_sub(1, Ordering::AcqRel) - 1;
        if remaining == 0 {
            self.route.event(StreamEvent::Done {
                id: self.id,
                points: self.delivered.load(Ordering::Acquire),
                errors: self.errors.load(Ordering::Acquire),
            });
            return true;
        }
        false
    }
}

/// How a job answers: a whole request, or one point of a sweep.
enum JobReply {
    Single(Route),
    SweepPoint {
        shared: Arc<SweepShared>,
        index: u64,
    },
}

struct Job {
    request: FlowRequest,
    enqueued: Instant,
    reply: JobReply,
}

struct QueueState {
    queue: VecDeque<Job>,
    accepting: bool,
    /// Per-client count of sweep points currently queued or executing.
    sweep_inflight: HashMap<u64, u64>,
    /// Per-client sweep points held back by the fairness cap, promoted
    /// one at a time as that client's in-flight points finish.
    deferred: HashMap<u64, VecDeque<Job>>,
    /// Live sweeps by client, so a disconnect can cancel them.
    sweeps: HashMap<u64, Vec<Arc<SweepShared>>>,
}

struct Inner {
    config: ServerConfig,
    cache: SessionCache,
    state: Mutex<QueueState>,
    available: Condvar,
    stats: Stats,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Fairness client ids: one per in-process streaming submission and
    /// one per TCP connection.
    next_client: AtomicU64,
}

/// An in-process handle to one submitted request's eventual response:
/// a [`PendingStream`] narrowed to its terminal [`Response`].
pub struct Pending {
    stream: PendingStream,
}

impl Pending {
    /// Blocks until the response arrives. An accepted request always
    /// gets one (drain-on-shutdown completes the queue), so a closed
    /// channel means a worker died — reported as a rejection rather
    /// than a panic.
    #[must_use]
    pub fn wait(self) -> Response {
        match self.stream.next() {
            Some(ServerMessage::Response(response)) => response,
            _ => Response::reject(None, RejectKind::Shutdown, "worker dropped the request"),
        }
    }
}

/// An in-process handle to one streaming submission: every
/// [`ServerMessage`] the request produces, in emission order. A v1
/// request yields exactly one `Response` message; a v2 sweep yields
/// `progress`, one `point`/`error` per grid point, and a terminal
/// `done`.
pub struct PendingStream {
    rx: Receiver<ServerMessage>,
}

impl PendingStream {
    /// Blocks for the next message; `None` once the stream is finished.
    #[must_use]
    pub fn next(&self) -> Option<ServerMessage> {
        self.rx.recv().ok()
    }

    /// Blocks until the stream finishes and returns every message.
    #[must_use]
    pub fn wait(self) -> Vec<ServerMessage> {
        self.rx.iter().collect()
    }
}

/// The service engine. Cheap to clone; all clones share one pool.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Starts the worker pool (at least one worker).
    #[must_use]
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let cache = SessionCache::with_store(
            config.cache_capacity,
            config.obs.clone(),
            config.store.clone(),
        );
        let inner = Arc::new(Inner {
            config,
            cache,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                sweep_inflight: HashMap::new(),
                deferred: HashMap::new(),
                sweeps: HashMap::new(),
            }),
            available: Condvar::new(),
            stats: Stats::default(),
            workers: Mutex::new(Vec::new()),
            next_client: AtomicU64::new(1),
        });
        let server = Server { inner };
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let worker = server.clone();
            handles.push(std::thread::spawn(move || worker.run_worker()));
        }
        *server.inner.workers.lock().expect("workers poisoned") = handles;
        server
    }

    /// Submits a request from in-process callers; the response arrives
    /// on the returned [`Pending`] handle (including rejections).
    /// Streaming (`sweep`) requests are rejected here — a single
    /// response cannot carry a stream; use [`Server::submit_stream`].
    #[must_use]
    pub fn submit(&self, request: FlowRequest) -> Pending {
        let stream = if matches!(request.command, FlowCommand::Sweep { .. }) {
            // A caller error, not a capacity condition.
            self.note_rejected_protocol();
            let (tx, rx) = channel();
            Route::Stream(tx).respond(Response::reject(
                Some(request.id),
                RejectKind::Protocol,
                "sweep responses are a stream; use submit_stream or a streaming TCP client",
            ));
            PendingStream { rx }
        } else {
            self.submit_stream(request)
        };
        Pending { stream }
    }

    /// Submits a request and streams back everything it produces: one
    /// `Response` message for a single-shot request, or the full
    /// `progress`/`point`/`done` event stream for a v2 sweep. Each call
    /// is its own fairness client for the sweep in-flight cap.
    #[must_use]
    pub fn submit_stream(&self, request: FlowRequest) -> PendingStream {
        let (tx, rx) = channel();
        self.admit(request, Route::Stream(tx), self.open());
        PendingStream { rx }
    }

    /// Admits `request` or rejects it, answering through `route`.
    /// Requests outside [`FlowRequest::validate`]'s numeric bounds are
    /// rejected `protocol` before touching the queue — workers only
    /// ever see inputs the flow can safely size buffers for. Capacity
    /// control runs under the queue lock, so the depth bound is exact.
    fn admit(&self, request: FlowRequest, route: Route, client: u64) {
        let obs = &self.inner.config.obs;
        let id = request.id;
        if let Err(e) = request.validate() {
            self.note_rejected_protocol();
            route.respond(Response::reject(
                Some(id),
                RejectKind::Protocol,
                format!("request out of bounds: {e}"),
            ));
            return;
        }
        if matches!(request.command, FlowCommand::Sweep { .. }) {
            self.admit_sweep(request, route, client);
            return;
        }
        let verdict = {
            let mut state = self.inner.state.lock().expect("server queue poisoned");
            if !state.accepting {
                Err((RejectKind::Shutdown, route))
            } else if state.queue.len() >= self.inner.config.queue_depth {
                Err((RejectKind::Overloaded, route))
            } else {
                state.queue.push_back(Job {
                    request,
                    enqueued: Instant::now(),
                    reply: JobReply::Single(route),
                });
                obs.gauge_max("serve/queue_depth_peak", state.queue.len() as f64);
                Ok(())
            }
        };
        match verdict {
            Ok(()) => {
                self.inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                obs.perf_add("serve/accepted", 1);
                self.inner.available.notify_one();
            }
            Err((kind, route)) => self.reject_capacity(&route, id, kind),
        }
    }

    /// Answers a request refused for capacity — `overloaded`, or
    /// `shutdown` once draining — outside the queue lock.
    fn reject_capacity(&self, route: &Route, id: u64, kind: RejectKind) {
        let (stat, message) = match kind {
            RejectKind::Overloaded => (
                &self.inner.stats.rejected_overloaded,
                format!(
                    "queue is at capacity ({}); retry later",
                    self.inner.config.queue_depth
                ),
            ),
            _ => (
                &self.inner.stats.rejected_shutdown,
                "server is draining; no new work accepted".to_string(),
            ),
        };
        stat.fetch_add(1, Ordering::Relaxed);
        let obs = &self.inner.config.obs;
        obs.perf_add(&format!("serve/rejected_{kind}"), 1);
        route.respond(Response::reject(Some(id), kind, message));
    }

    /// Admits a validated v2 sweep: decomposes it into per-point v1
    /// requests that run through the exact single-shot path (same
    /// cache, same execute), emits `progress` up front, and queues at
    /// most [`ServerConfig::sweep_inflight_cap`] points for this client
    /// — the rest wait in a per-client deferred list and are promoted
    /// one at a time as earlier points finish.
    fn admit_sweep(&self, request: FlowRequest, route: Route, client: u64) {
        let obs = &self.inner.config.obs;
        let id = request.id;
        // The request passed `validate`, so the (sweep) command's grid
        // is in bounds and decomposes.
        let points = request
            .decompose_sweep()
            .expect("a validated sweep decomposes");
        let total = points.len() as u64;
        let cap = self.inner.config.sweep_inflight_cap.max(1) as u64;
        let deferred_count = {
            let mut guard = self.inner.state.lock().expect("server queue poisoned");
            if !guard.accepting {
                drop(guard);
                self.reject_capacity(&route, id, RejectKind::Shutdown);
                return;
            }
            // Sweep points deliberately bypass `queue_depth`: the
            // per-client cap is their backpressure, and a grid larger
            // than the queue must not be unschedulable by construction.
            let state = &mut *guard;
            let shared = Arc::new(SweepShared {
                id,
                client,
                route,
                remaining: AtomicU64::new(total),
                delivered: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            });
            self.inner.stats.sweeps.fetch_add(1, Ordering::Relaxed);
            obs.perf_add("serve/sweeps", 1);
            state
                .sweeps
                .entry(client)
                .or_default()
                .push(Arc::clone(&shared));
            // Emitted under the lock, before any point job is visible
            // to a worker: `progress` is always the stream's first line.
            shared.route.event(StreamEvent::Progress { id, total });
            let now = Instant::now();
            let mut deferred = 0u64;
            for (index, point) in points.into_iter().enumerate() {
                let job = Job {
                    request: point,
                    enqueued: now,
                    reply: JobReply::SweepPoint {
                        shared: Arc::clone(&shared),
                        index: index as u64,
                    },
                };
                let inflight = state.sweep_inflight.entry(client).or_insert(0);
                if *inflight < cap {
                    *inflight += 1;
                    state.queue.push_back(job);
                } else {
                    state.deferred.entry(client).or_default().push_back(job);
                    deferred += 1;
                }
            }
            obs.gauge_max("serve/queue_depth_peak", state.queue.len() as f64);
            deferred
        };
        if deferred_count > 0 {
            self.inner
                .stats
                .quota_deferred
                .fetch_add(deferred_count, Ordering::Relaxed);
            obs.perf_add("serve/quota_deferred", deferred_count);
        }
        self.inner.available.notify_all();
    }

    /// Cancels everything a disconnected client had in flight: live
    /// sweeps are flagged (queued points retire unrun at dequeue) and
    /// deferred points are dropped here, each balancing its sweep's
    /// `remaining` so `done` accounting still closes.
    fn cancel_client(&self, client: u64) {
        let (sweeps, dropped) = {
            let mut state = self.inner.state.lock().expect("server queue poisoned");
            let sweeps = state.sweeps.remove(&client).unwrap_or_default();
            let dropped = state.deferred.remove(&client).unwrap_or_default();
            (sweeps, dropped)
        };
        for shared in &sweeps {
            shared.cancelled.store(true, Ordering::Release);
        }
        if dropped.is_empty() {
            return;
        }
        self.inner
            .stats
            .sweep_cancelled_points
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        self.inner
            .config
            .obs
            .perf_add("serve/sweep_cancelled_points", dropped.len() as u64);
        for job in dropped {
            if let JobReply::SweepPoint { shared, .. } = job.reply {
                // May emit `done` to a dead route — discarded there.
                // Dropping the job releases its hold on the outbox.
                let _ = shared.finish_point();
            }
        }
    }

    /// Counts one `protocol` rejection that never became a request
    /// (malformed wire lines — the front answers those in-line).
    fn note_rejected_protocol(&self) {
        self.inner
            .stats
            .rejected_protocol
            .fetch_add(1, Ordering::Relaxed);
        self.inner.config.obs.perf_add("serve/rejected_protocol", 1);
    }

    fn obs(&self) -> &Obs {
        &self.inner.config.obs
    }

    /// One worker's loop: drain jobs until shutdown empties the queue.
    fn run_worker(&self) {
        loop {
            let job = {
                let mut state = self.inner.state.lock().expect("server queue poisoned");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if !state.accepting {
                        return;
                    }
                    state = self
                        .inner
                        .available
                        .wait(state)
                        .expect("server queue poisoned");
                }
            };
            self.process(job);
        }
    }

    fn process(&self, job: Job) {
        let Job {
            request,
            enqueued,
            reply,
        } = job;
        match reply {
            JobReply::Single(route) => self.process_single(&request, enqueued, &route),
            JobReply::SweepPoint { shared, index } => {
                self.process_sweep_point(&shared, index, &request, enqueued);
                self.retire_sweep_point(&shared);
            }
        }
    }

    /// The one execute path, shared by single requests and sweep points:
    /// the deadline check, then — behind the unwind barrier — the cache
    /// lookup, [`m3d_flow::FlowSession::execute`] and the write-through
    /// persist. `Err` carries the rejection kind (`deadline` or `flow`)
    /// and its message; each caller maps the outcome onto its own
    /// message type and books its own counters.
    fn run_request(
        &self,
        request: &FlowRequest,
        enqueued: Instant,
    ) -> Result<(FlowReport, bool), (RejectKind, String)> {
        let obs = &self.inner.config.obs;
        if let Some(deadline_ms) = request.deadline_ms {
            if enqueued.elapsed() > Duration::from_millis(deadline_ms) {
                return Err((
                    RejectKind::Deadline,
                    format!("deadline of {deadline_ms} ms elapsed while queued"),
                ));
            }
        }
        // A panicking flow must cost the client one rejection, not the
        // pool one worker: admission bounds make panics unlikely, the
        // unwind barrier makes them survivable. The cache's lock is
        // released before any flow code runs, so no lock is poisoned.
        let executed = catch_unwind(AssertUnwindSafe(|| {
            let cache = &self.inner.cache;
            let (session, cache_hit) =
                cache.get_or_build_recipe(&request.netlist, &request.options);
            obs.perf_add(
                if cache_hit {
                    "serve/cache_hit"
                } else {
                    "serve/cache_miss"
                },
                1,
            );
            let outcome = session.and_then(|s| {
                let outcome = s.execute(&request.command);
                let (builds, forks) = s.take_prefix_counts();
                let stats = &self.inner.stats;
                let pseudo_builds = s.take_pseudo_builds();
                stats
                    .pseudo_builds
                    .fetch_add(pseudo_builds, Ordering::Relaxed);
                stats.prefix_builds.fetch_add(builds, Ordering::Relaxed);
                stats.prefix_forks.fetch_add(forks, Ordering::Relaxed);
                if outcome.is_ok() {
                    // Write-through: the session (now warm, possibly
                    // with a freshly computed pseudo-3-D checkpoint)
                    // reaches the disk tier before the client hears
                    // back, so a restart after this response can always
                    // answer the same key from the store.
                    cache.persist(&s);
                }
                outcome
            });
            (outcome, cache_hit)
        }));
        match executed {
            Ok((Ok(report), cache_hit)) => Ok((report, cache_hit)),
            Ok((Err(e), _)) => Err((RejectKind::Flow, e.to_string())),
            Err(payload) => {
                obs.perf_add("serve/panicked", 1);
                Err((
                    RejectKind::Flow,
                    format!("flow execution panicked: {}", panic_text(&payload)),
                ))
            }
        }
    }

    fn process_single(&self, request: &FlowRequest, enqueued: Instant, route: &Route) {
        let obs = &self.inner.config.obs;
        let stats = &self.inner.stats;
        stats.started.fetch_add(1, Ordering::Relaxed);
        let _span = obs.span("serve/request");
        let id = request.id;
        let response = match self.run_request(request, enqueued) {
            Ok((report, cache_hit)) => {
                stats.completed_ok.fetch_add(1, Ordering::Relaxed);
                Response::Ok {
                    id,
                    cache_hit,
                    report: Box::new(report),
                }
            }
            Err((kind, message)) => {
                if kind == RejectKind::Deadline {
                    stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    obs.perf_add("serve/rejected_deadline", 1);
                } else {
                    stats.failed_flow.fetch_add(1, Ordering::Relaxed);
                    obs.perf_add("serve/failed_flow", 1);
                }
                Response::reject(Some(id), kind, message)
            }
        };
        route.respond(response);
    }

    /// Runs one sweep point through the exact v1 execution path
    /// ([`Server::run_request`]) and streams its `point` or `error`
    /// event. Counted only in the `sweep_*` stats — never in the v1
    /// request counters.
    fn process_sweep_point(
        &self,
        shared: &Arc<SweepShared>,
        index: u64,
        request: &FlowRequest,
        enqueued: Instant,
    ) {
        let obs = &self.inner.config.obs;
        let stats = &self.inner.stats;
        if shared.cancelled.load(Ordering::Acquire) {
            // Individually preemptible: a cancelled sweep's queued
            // points retire here without running.
            stats.sweep_cancelled_points.fetch_add(1, Ordering::Relaxed);
            obs.perf_add("serve/sweep_cancelled_points", 1);
            return;
        }
        let _span = obs.span("serve/sweep_point");
        let id = shared.id;
        let event = match self.run_request(request, enqueued) {
            Ok((report, cache_hit)) => {
                stats.sweep_points.fetch_add(1, Ordering::Relaxed);
                obs.perf_add("serve/sweep_points", 1);
                shared.delivered.fetch_add(1, Ordering::Release);
                StreamEvent::Point {
                    id,
                    index,
                    cache_hit,
                    report: Box::new(report),
                }
            }
            Err((kind, message)) => {
                stats.sweep_point_errors.fetch_add(1, Ordering::Relaxed);
                obs.perf_add("serve/sweep_point_errors", 1);
                shared.errors.fetch_add(1, Ordering::Release);
                StreamEvent::Error {
                    id,
                    index,
                    kind,
                    message,
                }
            }
        };
        shared.route.event(event);
    }

    /// Books one finished point: emits `done` (and unregisters the
    /// sweep) when it was the last, then frees the client's fairness
    /// slot and promotes its next deferred point, if any.
    fn retire_sweep_point(&self, shared: &Arc<SweepShared>) {
        let finished = shared.finish_point();
        let mut guard = self.inner.state.lock().expect("server queue poisoned");
        let state = &mut *guard;
        if finished {
            if let Some(list) = state.sweeps.get_mut(&shared.client) {
                list.retain(|s| !Arc::ptr_eq(s, shared));
                if list.is_empty() {
                    state.sweeps.remove(&shared.client);
                }
            }
        }
        let mut promoted = false;
        if let Some(inflight) = state.sweep_inflight.get_mut(&shared.client) {
            *inflight = inflight.saturating_sub(1);
            if let Some(waiting) = state.deferred.get_mut(&shared.client) {
                if let Some(job) = waiting.pop_front() {
                    *inflight += 1;
                    if waiting.is_empty() {
                        state.deferred.remove(&shared.client);
                    }
                    state.queue.push_back(job);
                    promoted = true;
                }
            }
            if !promoted && *inflight == 0 {
                state.sweep_inflight.remove(&shared.client);
            }
        }
        drop(guard);
        if promoted {
            self.inner.available.notify_one();
        }
    }

    /// Stops admission. Already-queued requests still run to
    /// completion; new ones are rejected `shutdown`. Deferred sweep
    /// points are promoted wholesale — admitted work is never stranded
    /// behind a fairness cap at shutdown.
    pub fn begin_drain(&self) {
        let mut guard = self.inner.state.lock().expect("server queue poisoned");
        let state = &mut *guard;
        state.accepting = false;
        for (client, waiting) in state.deferred.drain() {
            *state.sweep_inflight.entry(client).or_insert(0) += waiting.len() as u64;
            state.queue.extend(waiting);
        }
        drop(guard);
        self.inner.available.notify_all();
    }

    /// Drains and joins the pool: stops admission, waits for every
    /// queued request to finish, and returns the final counters.
    #[must_use]
    pub fn shutdown(&self) -> StatsSnapshot {
        self.begin_drain();
        let handles = std::mem::take(&mut *self.inner.workers.lock().expect("workers poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        self.stats()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        StatsSnapshot {
            accepted: s.accepted.load(Ordering::Relaxed),
            started: s.started.load(Ordering::Relaxed),
            completed_ok: s.completed_ok.load(Ordering::Relaxed),
            failed_flow: s.failed_flow.load(Ordering::Relaxed),
            rejected_overloaded: s.rejected_overloaded.load(Ordering::Relaxed),
            rejected_deadline: s.rejected_deadline.load(Ordering::Relaxed),
            rejected_shutdown: s.rejected_shutdown.load(Ordering::Relaxed),
            rejected_protocol: s.rejected_protocol.load(Ordering::Relaxed),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            store_hits: self.inner.cache.store_hits(),
            store_misses: self.inner.cache.store_misses(),
            store_spills: self.inner.cache.store_spills(),
            store_corrupt_evicted: self.inner.cache.store_corrupt_evicted(),
            netlists_materialized: self.inner.cache.netlists_materialized(),
            pseudo_builds: s.pseudo_builds.load(Ordering::Relaxed),
            prefix_builds: s.prefix_builds.load(Ordering::Relaxed),
            prefix_forks: s.prefix_forks.load(Ordering::Relaxed),
            sweeps: s.sweeps.load(Ordering::Relaxed),
            sweep_points: s.sweep_points.load(Ordering::Relaxed),
            sweep_point_errors: s.sweep_point_errors.load(Ordering::Relaxed),
            quota_deferred: s.quota_deferred.load(Ordering::Relaxed),
            sweep_cancelled_points: s.sweep_cancelled_points.load(Ordering::Relaxed),
        }
    }

    /// The checkpoint cache (stats and residency introspection).
    #[must_use]
    pub fn cache(&self) -> &SessionCache {
        &self.inner.cache
    }
}

/// The TCP face of a [`Server`]: the front shared with the router,
/// admitting every connection's requests to the worker pool.
pub struct TcpServer {
    server: Server,
    front: Front,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let server = Server::start(config);
        let obs = server.obs().clone();
        let front = Front::serve(listener, server.clone(), obs)?;
        Ok(TcpServer { server, front })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The engine behind the socket.
    #[must_use]
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Graceful shutdown: the front stops accepting and reading, sends
    /// everything in flight (idle clients see EOF — they cannot stall
    /// the drain), then the engine drains its queue. Returns the final
    /// counters.
    #[must_use]
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.front.drain();
        self.server.shutdown()
    }

    /// Blocks forever serving requests (the `serve` binary's main
    /// loop).
    pub fn join(mut self) {
        self.front.join();
    }
}

/// A server dropped without [`TcpServer::shutdown`] drains the same way,
/// so its accept thread, its workers and — unless a [`Server`] clone is
/// kept — its resident sessions do not outlive it. After a shutdown this
/// finds both halves drained and does nothing.
impl Drop for TcpServer {
    fn drop(&mut self) {
        // While unwinding, a poisoned lock would abort the process and a
        // peer that stopped reading would hang the drain: leave it be.
        if std::thread::panicking() {
            return;
        }
        self.front.drain();
        let _ = self.server.shutdown();
    }
}

/// Each TCP connection is one fairness client; its requests are
/// admitted like in-process ones, answered through its outbox.
impl Service for Server {
    type Conn = u64;

    /// A fresh fairness client id: one per connection, and one per
    /// [`Server::submit_stream`] call.
    fn open(&self) -> u64 {
        self.inner.next_client.fetch_add(1, Ordering::Relaxed)
    }

    fn request(&self, client: &mut u64, _line: &str, request: FlowRequest, out: &Outbox) {
        self.admit(request, Route::Conn(out.clone()), *client);
    }

    fn rejected(&self) {
        self.note_rejected_protocol();
    }

    fn abort(&self, client: &u64) {
        self.cancel_client(*client);
    }
}

/// Best-effort text of a panic payload (`panic!` carries a `&str` or
/// `String`; anything else is opaque).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
