//! The service's one counter ledger. Every event the server and its
//! checkpoint cache count is a row of the table below, naming its
//! [`StatsSnapshot`] field and, when it has one, its key in the perf
//! section of the telemetry manifest. [`Ledger::add`] is the only
//! booking call: it bumps the typed count and its perf mirror together,
//! so the two always agree.

use m3d_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counter table: `reported` rows read
/// `Counter => snapshot field, perf key;`, `unreported` rows (no
/// [`StatsSnapshot`] field) `Counter => perf key;`.
macro_rules! counters {
    (
        reported { $( $(#[$doc:meta])* $counter:ident => $field:ident, $perf:expr; )* }
        unreported { $( $extra:ident => $extra_perf:expr; )* }
    ) => {
        /// Monotonic service counters, readable at any time via
        /// [`crate::Server::stats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $field: u64, )*
        }

        /// One kind of counted service event.
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Counter {
            $( $counter, )*
            $( $extra, )*
        }

        impl Counter {
            const ALL: &'static [Counter] = &[$(Counter::$counter,)* $(Counter::$extra,)*];

            /// The event's key in the manifest's perf section, if mirrored.
            fn perf_key(self) -> Option<&'static str> {
                match self {
                    $( Counter::$counter => $perf, )*
                    $( Counter::$extra => $extra_perf, )*
                }
            }
        }

        impl Ledger {
            /// The typed counts.
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.get(Counter::$counter), )*
                }
            }
        }
    };
}

counters! {
    reported {
        /// Requests admitted to the queue.
        Accepted => accepted, Some("serve/accepted");
        /// Requests a worker started executing (deadline checks included).
        Started => started, None;
        /// Requests answered `ok`.
        CompletedOk => completed_ok, None;
        /// Requests answered with a `flow` rejection.
        FailedFlow => failed_flow, Some("serve/failed_flow");
        /// Requests rejected `overloaded` at admission.
        RejectedOverloaded => rejected_overloaded, Some("serve/rejected_overloaded");
        /// Requests rejected `deadline` at dequeue.
        RejectedDeadline => rejected_deadline, Some("serve/rejected_deadline");
        /// Requests rejected `shutdown` at admission.
        RejectedShutdown => rejected_shutdown, Some("serve/rejected_shutdown");
        /// Requests rejected `protocol` — malformed lines on the wire, and
        /// requests whose numbers fall outside
        /// [`FlowRequest::validate`](m3d_flow::FlowRequest::validate)'s
        /// bounds at admission.
        RejectedProtocol => rejected_protocol, Some("serve/rejected_protocol");
        /// Checkpoint-cache hits: a session for the request's netlist and
        /// pseudo read-set was resident, whatever its other options.
        CacheHits => cache_hits, Some("serve/cache_hit");
        /// Checkpoint-cache misses (== distinct keys built).
        CacheMisses => cache_misses, Some("serve/cache_miss");
        /// Cache misses rehydrated from the persistent store (warm hits).
        StoreHits => store_hits, Some("store/hit");
        /// Cache misses the persistent store could not answer: no record, or
        /// a read that failed with an I/O error (nothing was evicted).
        StoreMisses => store_misses, Some("store/miss");
        /// Session artifacts written to the persistent store.
        StoreSpills => store_spills, Some("store/spill");
        /// Corrupt store records detected (and evicted) during lookups.
        StoreCorruptEvicted => store_corrupt_evicted, Some("store/corrupt_evicted");
        /// Netlists generated from their recipe: by lookups that had to
        /// build a session or met a new recipe, never on a resident key.
        NetlistsMaterialized => netlists_materialized, Some("serve/netlist_materialized");
        /// Pseudo-3-D stages run: one per session built cold that met a 3-D
        /// command — distinct pseudo read-set keys, while none is evicted.
        PseudoBuilds => pseudo_builds, None;
        /// Pre-sizing prefixes built by requests of every command — a
        /// `run_flow`, a sweep point, an fmax probe or rung, a comparison
        /// job, a Pareto walk: a session's first of a configuration under
        /// the options its prefix stages read, at any period.
        PrefixBuilds => prefix_builds, None;
        /// Runs of every command that forked a prefix their session already
        /// held and went straight to sizing (each fmax rung the ladder walks
        /// counts one; the walk stops at the first rung that meets timing).
        PrefixForks => prefix_forks, None;
        /// Protocol-v2 sweep requests admitted. Sweeps and their points are
        /// counted here and in the `sweep_*` fields only — never in the v1
        /// counters above, whose values stay comparable across protocol
        /// versions.
        Sweeps => sweeps, Some("serve/sweeps");
        /// Sweep points that completed and streamed a `point` event.
        SweepPoints => sweep_points, Some("serve/sweep_points");
        /// Sweep points that failed and streamed an `error` event.
        SweepPointErrors => sweep_point_errors, Some("serve/sweep_point_errors");
        /// Sweep points deferred at admission or promotion because their
        /// client was at
        /// [`ServerConfig::sweep_inflight_cap`](crate::ServerConfig::sweep_inflight_cap).
        /// Deterministic for a lone sweep: `total points - cap` when the
        /// sweep is larger than the cap.
        QuotaDeferred => quota_deferred, Some("serve/quota_deferred");
        /// Sweep points dropped without running because their client
        /// disconnected (or its sweep was otherwise cancelled) mid-stream.
        SweepCancelledPoints => sweep_cancelled_points, Some("serve/sweep_cancelled_points");
    }
    unreported {
        // Read through `SessionCache::evictions`.
        Evictions => None;
        Panicked => Some("serve/panicked");
    }
}

/// The counts of one server (or stand-alone cache) and the telemetry
/// handle that mirrors them.
pub(crate) struct Ledger {
    obs: Obs,
    counts: [AtomicU64; Counter::ALL.len()],
}

impl Ledger {
    pub(crate) fn new(obs: Obs) -> Ledger {
        Ledger {
            obs,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The telemetry handle the perf mirror books into.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Books `n` events of `counter`: its typed count and, when it has
    /// one, its perf key. Zero books nothing, so a perf key appears only
    /// once its event has happened.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
        if let Some(key) = counter.perf_key() {
            self.obs.perf_add(key, n);
        }
    }

    /// The typed count of `counter`.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }
}
