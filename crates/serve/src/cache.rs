//! The checkpoint cache: an LRU map from `(netlist fingerprint,
//! pseudo read-set of the options)` to a shared [`FlowSession`].
//!
//! A session holds the expensive flow prefixes — the validated,
//! buffered base design, (lazily) the pseudo-3-D checkpoint and the
//! pre-sizing prefix of every configuration it has implemented — so a
//! cache hit answers a repeated design-space query by forking those
//! snapshots in O(1) instead of recomputing them. Requests that differ
//! only in what is read behind those checkpoints (`input_activity`,
//! `wns_tolerance`, the sign-off corners, …) share one session, and each
//! lookup hands it back **bound to the caller's own options**
//! ([`FlowSession::bind`]). The cache guarantees:
//!
//! * **one build per key**: racing requests for the same key share one
//!   slot whose `OnceLock` admits exactly one builder; the losers block
//!   on that build instead of duplicating it. Misses are counted at
//!   slot creation, so `misses == distinct keys seen` regardless of
//!   scheduling — the invariant `tests/service.rs` asserts at 1 and 4
//!   workers.
//! * **bounded residency**: beyond `capacity` entries the
//!   least-recently-used slot is dropped from the map. In-flight
//!   holders keep it alive through their `Arc`; it is simply no longer
//!   findable, so a later request for that key rebuilds.
//! * **content-based keys**: the netlist half is
//!   [`m3d_db::netlist_fingerprint`] over the materialized circuit, the
//!   options half is [`FlowOptions::read_set`] at [`ReadSet::Pseudo`] —
//!   the fields a session's checkpoints read, and no other.
//! * **a recipe index**: requests name their netlist by generator recipe
//!   ([`NetlistSpec`]) and the generators are deterministic, so the cache
//!   learns `recipe → netlist fingerprint` on first sight. A request on
//!   a resident key then neither regenerates nor re-hashes its netlist;
//!   only a lookup that has to *build* a session generates one
//!   (`serve/netlist_materialized`). Bounded like the persist ledger;
//!   forgetting a recipe, or racing to its first sight, costs one
//!   regeneration.
//! * **an optional disk tier**: with a [`Store`] attached
//!   ([`SessionCache::with_store`]) a miss first tries to rehydrate the
//!   session from the persistent store (so a restarted server answers
//!   its first repeat request without re-running the flow prefix),
//!   completed sessions are written through after execution, and
//!   LRU-evicted sessions are spilled to disk before they become
//!   unreachable.
//!
//! # Counting
//!
//! The cache holds the service's one counter ledger (`ledger.rs`); the
//! [`crate::Server`] in front of it books its own events there too. A
//! lookup books its hit or miss and any netlist it generates or slot it
//! evicts. Store traffic is booked here, once, from the typed outcome of
//! [`Store::get_session`] and [`Store::put_session`] — the store keeps
//! no counts of its own: a record is a store hit, `Ok(None)` or an I/O
//! failure a store miss, [`StoreError::Corrupt`] (the store already
//! evicted the record) a corrupt eviction, and a committed write a
//! spill. Each also lands on the perf section of the telemetry manifest
//! as `store/{hit,miss,corrupt_evicted,spill}` — perf, not the
//! deterministic section, because disk state depends on what earlier
//! processes left behind.

use crate::ledger::{Counter, Ledger};
use m3d_flow::{FlowError, FlowOptions, FlowSession, NetlistSpec, ReadSet};
use m3d_netgen::Benchmark;
use m3d_netlist::Netlist;
use m3d_obs::Obs;
use m3d_store::{SessionArtifact, Store, StoreError, StoreKey};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The cache key: both halves are fingerprint strings (16 hex digits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Content fingerprint of the netlist.
    pub netlist_fp: String,
    /// [`ReadSet::Pseudo`] of the options: what the checkpoints read.
    pub options_fp: String,
}

impl SessionKey {
    /// Computes the key for one (netlist, options) pair.
    #[must_use]
    pub fn of(netlist: &Netlist, options: &FlowOptions) -> SessionKey {
        let netlist_fp = m3d_db::fingerprint_hex(m3d_db::netlist_fingerprint(netlist));
        SessionKey::with_netlist_fp(netlist_fp, options)
    }

    fn with_netlist_fp(netlist_fp: String, options: &FlowOptions) -> SessionKey {
        SessionKey {
            netlist_fp,
            options_fp: m3d_db::fingerprint_hex(options.read_set(ReadSet::Pseudo)),
        }
    }
}

/// A [`NetlistSpec`] as a hashable key (the scale by its bits).
type Recipe = (Benchmark, u64, u64);

/// One cache slot: built at most once, shared by every request that
/// maps to its key while it is resident.
struct Slot {
    cell: OnceLock<Result<FlowSession, FlowError>>,
}

struct Entry {
    slot: Arc<Slot>,
    last_used: u64,
}

/// LRU session cache. All methods take `&self`; the cache is shared
/// across the worker pool behind one `Arc`.
pub struct SessionCache {
    capacity: usize,
    /// The service's counts, the server's included.
    pub(crate) ledger: Ledger,
    store: Option<Arc<Store>>,
    inner: Mutex<Inner>,
    /// What the disk tier already holds, netlist → pseudo read-set
    /// (nested, so a lookup borrows a session's two strings instead of
    /// allocating a key).
    persisted: Mutex<HashMap<String, HashMap<String, PersistLine>>>,
    /// The netlist fingerprint of every recipe seen, at most
    /// `8 × capacity` of them.
    recipes: Mutex<HashMap<Recipe, String>>,
}

struct Inner {
    map: HashMap<SessionKey, Entry>,
    tick: u64,
}

/// One key's line in the persist ledger: `None` until a record is
/// written, then whether it includes the pseudo-3-D checkpoint (a
/// base-only record is upgraded once). Held locked across the check and
/// the store write, so two persists of one key land in ledger order and
/// a base-only write can never overwrite a full one.
type PersistLine = Arc<Mutex<Option<bool>>>;

impl SessionCache {
    /// A cache holding at most `capacity` sessions (floored at 1).
    /// Flow telemetry from sessions built here lands on `obs` under
    /// the flow's native keys — e.g. `flow/pseudo3d_runs` counts
    /// pseudo-3-D stage executions across every session the cache
    /// ever built.
    #[must_use]
    pub fn new(capacity: usize, obs: Obs) -> SessionCache {
        SessionCache::with_store(capacity, obs, None)
    }

    /// Like [`SessionCache::new`], with a persistent disk tier attached
    /// when `store` is `Some`: misses rehydrate from the store before
    /// building cold, and [`SessionCache::persist`] / LRU eviction write
    /// sessions back. The store is an accelerator, never a correctness
    /// dependency — every store failure falls back to the cold path.
    #[must_use]
    pub fn with_store(capacity: usize, obs: Obs, store: Option<Arc<Store>>) -> SessionCache {
        SessionCache {
            capacity: capacity.max(1),
            ledger: Ledger::new(obs),
            store,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            persisted: Mutex::new(HashMap::new()),
            recipes: Mutex::new(HashMap::new()),
        }
    }

    /// Looks up (or builds) the session for `(netlist, options)`.
    /// Returns the shared session bound to `options` and whether this
    /// was a cache hit.
    ///
    /// A hit means the slot already existed — for these options or any
    /// that agree with them on [`ReadSet::Pseudo`], and including slots
    /// still being built by another thread, which this call then blocks
    /// on and shares. A failed build is cached too (same query, same
    /// failure) until its slot is evicted.
    ///
    /// # Errors
    ///
    /// Propagates the session build's [`FlowError`] (e.g. an invalid
    /// netlist).
    pub fn get_or_build(
        &self,
        netlist: &Netlist,
        options: &FlowOptions,
    ) -> (Result<FlowSession, FlowError>, bool) {
        self.session_for(SessionKey::of(netlist, options), options, || netlist)
    }

    /// [`SessionCache::get_or_build`] for a netlist named by recipe: it
    /// is generated only when a session has to be built or the recipe is
    /// new, and hashed only when the recipe is new.
    ///
    /// # Errors
    ///
    /// Propagates the session build's [`FlowError`].
    pub fn get_or_build_recipe(
        &self,
        spec: &NetlistSpec,
        options: &FlowOptions,
    ) -> (Result<FlowSession, FlowError>, bool) {
        let recipe = (spec.benchmark, spec.scale.to_bits(), spec.seed);
        let known = self
            .recipes
            .lock()
            .expect("recipe index poisoned")
            .get(&recipe)
            .cloned();
        let mut fresh = None;
        let netlist_fp = known.unwrap_or_else(|| {
            let netlist = self.materialize(spec);
            let fp = m3d_db::fingerprint_hex(m3d_db::netlist_fingerprint(&netlist));
            fresh = Some(netlist);
            let mut recipes = self.recipes.lock().expect("recipe index poisoned");
            if recipes.len() >= self.capacity.saturating_mul(8) {
                recipes.clear();
            }
            recipes.insert(recipe, fp.clone());
            fp
        });
        let key = SessionKey::with_netlist_fp(netlist_fp, options);
        self.session_for(key, options, || {
            fresh.unwrap_or_else(|| self.materialize(spec))
        })
    }

    fn materialize(&self, spec: &NetlistSpec) -> Netlist {
        self.ledger.add(Counter::NetlistsMaterialized, 1);
        spec.materialize()
    }

    /// The slot of `key`, built by the one caller that finds it empty;
    /// `netlist` is asked only by that caller.
    fn session_for<N: Borrow<Netlist>>(
        &self,
        key: SessionKey,
        options: &FlowOptions,
        netlist: impl FnOnce() -> N,
    ) -> (Result<FlowSession, FlowError>, bool) {
        let (slot, hit, evicted) = self.lookup_slot(key.clone());
        let lookup = if hit {
            Counter::CacheHits
        } else {
            Counter::CacheMisses
        };
        self.ledger.add(lookup, 1);
        let built = slot.cell.get_or_init(|| {
            // The session's own telemetry feeds the server's collector
            // under the flow's native key space (`flow/pseudo3d_runs`,
            // `sta/...`): counters accumulate across sessions, so the
            // totals cover the whole service lifetime. The obs handle
            // is in no read-set, so this does not perturb the key (or
            // the results).
            let mut options = options.clone();
            options.obs = self.ledger.obs().clone();
            let netlist = netlist();
            // The fingerprint is the key's: handed down, not recomputed.
            let builder = FlowSession::builder(netlist.borrow())
                .options(options)
                .netlist_fingerprint(key.netlist_fp.clone());
            match self.rehydrate(&key) {
                Some(artifact) => builder.checkpoints(artifact.base, artifact.pseudo),
                None => builder,
            }
            .build()
        });
        // Spill the LRU victim only after the map lock is long released:
        // persisting encodes the artifact and touches disk.
        if let Some(victim) = evicted {
            if let Some(Ok(session)) = victim.cell.get() {
                self.persist(session);
            }
        }
        // Equal keys agree on the pseudo read-set, so the binding exists.
        let bound = built.as_ref().map_err(Clone::clone);
        let bound = bound.map(|s| s.bind(options).expect("one key, one pseudo read-set"));
        (bound, hit)
    }

    /// Tries the disk tier for `key`. A verified record comes back for
    /// the session builder to start from (its pseudo-3-D checkpoint
    /// pre-seeds the lazy slot, so the expensive stage never re-runs); a
    /// miss or any store failure returns `None` and the caller builds
    /// cold. A corrupt record was already evicted by the store itself,
    /// so the rebuild repairs the disk tier too; an I/O failure evicted
    /// nothing and is counted as a miss.
    fn rehydrate(&self, key: &SessionKey) -> Option<SessionArtifact> {
        let store = self.store.as_deref()?;
        let skey = StoreKey::new(key.netlist_fp.clone(), key.options_fp.clone()).ok()?;
        match store.get_session(&skey) {
            Ok(Some(artifact)) => {
                self.ledger.add(Counter::StoreHits, 1);
                let line = self.persist_line(&key.netlist_fp, &key.options_fp);
                let mut written = line.lock().expect("persist ledger poisoned");
                // A full write this process made since the read stands.
                *written = Some(written.unwrap_or(false) || artifact.pseudo.is_some());
                Some(artifact)
            }
            Err(StoreError::Corrupt { .. }) => {
                self.ledger.add(Counter::StoreCorruptEvicted, 1);
                None
            }
            Ok(None) | Err(_) => {
                self.ledger.add(Counter::StoreMisses, 1);
                None
            }
        }
    }

    /// Writes `session` through to the disk tier (no-op without one).
    /// Called by the server after each successful execution and by the
    /// LRU eviction path; idempotent per session state — a second call
    /// writes again only when the pseudo-3-D checkpoint has materialized
    /// since a base-only record was persisted. Failures are swallowed:
    /// a full disk costs warm restarts, never answers.
    pub fn persist(&self, session: &FlowSession) {
        let Some(store) = self.store.as_deref() else {
            return;
        };
        // The persist ledger first: this runs after every successful request,
        // and nearly always finds the record already written.
        let (netlist_fp, options_fp) =
            (session.netlist_fingerprint(), session.options_fingerprint());
        let line = self.persist_line(netlist_fp, options_fp);
        let mut written = line.lock().expect("persist ledger poisoned");
        if written.is_some_and(|full| full || !session.pseudo_ready()) {
            return;
        }
        let artifact = SessionArtifact {
            base: session.base().clone(),
            pseudo: session.pseudo_checkpoint().cloned(),
        };
        *written = Some(artifact.pseudo.is_some());
        let Ok(skey) = StoreKey::new(netlist_fp.to_string(), options_fp.to_string()) else {
            return;
        };
        if store.put_session(&skey, &artifact).is_ok() {
            self.ledger.add(Counter::StoreSpills, 1);
        }
    }

    /// The persist-ledger line of one key, created empty on first sight.
    fn persist_line(&self, netlist_fp: &str, options_fp: &str) -> PersistLine {
        let mut persisted = self.persisted.lock().expect("persist ledger poisoned");
        if let Some(line) = persisted.get(netlist_fp).and_then(|o| o.get(options_fp)) {
            return Arc::clone(line);
        }
        // Bound the persist ledger: it tracks keys, not sessions, so it outlives
        // evictions. Forgetting a key merely re-persists it — a rewrite
        // of the same record. A line some persist holds is kept, so one
        // key never has two locks.
        let keys: usize = persisted.values().map(HashMap::len).sum();
        if keys >= self.capacity.saturating_mul(8) {
            persisted.retain(|_, by_options| {
                by_options.retain(|_, line| Arc::strong_count(line) > 1);
                !by_options.is_empty()
            });
        }
        Arc::clone(
            persisted
                .entry(netlist_fp.to_string())
                .or_default()
                .entry(options_fp.to_string())
                .or_default(),
        )
    }

    /// Finds or creates the slot for `key`, bumping its recency. The
    /// third return is the slot evicted to make room, if any — handed
    /// back so the caller can spill it to the disk tier outside this
    /// lock.
    fn lookup_slot(&self, key: SessionKey) -> (Arc<Slot>, bool, Option<Arc<Slot>>) {
        let mut inner = self.inner.lock().expect("session cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            return (Arc::clone(&entry.slot), true, None);
        }
        let slot = Arc::new(Slot {
            cell: OnceLock::new(),
        });
        inner.map.insert(
            key,
            Entry {
                slot: Arc::clone(&slot),
                last_used: tick,
            },
        );
        let mut evicted = None;
        if inner.map.len() > self.capacity {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                evicted = inner.map.remove(&lru).map(|e| e.slot);
                self.ledger.add(Counter::Evictions, 1);
            }
        }
        (slot, false, evicted)
    }

    /// How many slots the LRU policy dropped.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.ledger.get(Counter::Evictions)
    }

    /// Number of resident sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatsSnapshot;
    use m3d_netgen::Benchmark;

    fn small() -> Netlist {
        Benchmark::Aes.generate(0.01, 5)
    }

    fn stats(cache: &SessionCache) -> StatsSnapshot {
        cache.ledger.snapshot()
    }

    /// Whether two bindings stand on one set of checkpoints.
    fn same_checkpoints(a: &FlowSession, b: &FlowSession) -> bool {
        Arc::ptr_eq(&a.base().netlist, &b.base().netlist)
    }

    #[test]
    fn repeated_keys_share_one_session() {
        let cache = SessionCache::new(4, Obs::disabled());
        let n = small();
        let o = FlowOptions::default();
        let (a, hit_a) = cache.get_or_build(&n, &o);
        let (b, hit_b) = cache.get_or_build(&n, &o);
        assert!(!hit_a && hit_b);
        assert!(same_checkpoints(&a.unwrap(), &b.unwrap()));
        let s = stats(&cache);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn distinct_options_get_distinct_sessions() {
        let cache = SessionCache::new(4, Obs::disabled());
        let n = small();
        let a = FlowOptions::default();
        let mut b = FlowOptions::default();
        b.placer_mut().iterations += 1;
        let (sa, _) = cache.get_or_build(&n, &a);
        let (sb, _) = cache.get_or_build(&n, &b);
        let sa = sa.unwrap();
        assert!(!same_checkpoints(&sa, &sb.unwrap()));
        assert_eq!(stats(&cache).cache_misses, 2);
        // Nothing the checkpoints read: the first slot, bound to the
        // caller's own options (the cache's telemetry handle aside).
        let c = FlowOptions {
            threads: 7,
            input_activity: 0.11,
            wns_tolerance: 0.05,
            enable_repartition: false,
            ..a.clone()
        };
        let (sc, hit) = cache.get_or_build(&n, &c);
        let sc = sc.unwrap();
        assert!(hit && same_checkpoints(&sa, &sc));
        assert_eq!((sa.options(), sc.options()), (&a, &c));
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let cache = SessionCache::new(2, Obs::disabled());
        let n = small();
        let opts: Vec<FlowOptions> = (0..3)
            .map(|i| {
                let mut o = FlowOptions::default();
                o.placer_mut().iterations = 8 + i;
                o
            })
            .collect();
        let _ = cache.get_or_build(&n, &opts[0]);
        let _ = cache.get_or_build(&n, &opts[1]);
        let _ = cache.get_or_build(&n, &opts[0]); // refresh 0; 1 is now LRU
        let _ = cache.get_or_build(&n, &opts[2]); // evicts 1
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let (_, hit0) = cache.get_or_build(&n, &opts[0]);
        assert!(hit0, "refreshed key must survive");
        let (_, hit1) = cache.get_or_build(&n, &opts[1]);
        assert!(!hit1, "evicted key must rebuild");
    }

    #[test]
    fn disk_tier_rehydrates_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("m3d-serve-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let n = small();
        let o = FlowOptions::default();

        let cold = SessionCache::with_store(4, Obs::disabled(), Some(Arc::clone(&store)));
        let (session, _) = cold.get_or_build(&n, &o);
        let session = session.unwrap();
        let s = stats(&cold);
        assert_eq!(
            (s.store_hits, s.store_misses),
            (0, 1),
            "an empty store answers the first miss with a store miss"
        );
        cold.persist(&session);
        assert_eq!(stats(&cold).store_spills, 1);
        // Same state again: the persist ledger makes the write-through a no-op.
        cold.persist(&session);
        assert_eq!(stats(&cold).store_spills, 1);

        // A fresh cache over the same directory — a simulated restart —
        // rehydrates instead of rebuilding.
        let warm = SessionCache::with_store(4, Obs::disabled(), Some(store));
        let (rehydrated, hit) = warm.get_or_build(&n, &o);
        let rehydrated = rehydrated.unwrap();
        assert!(!hit, "a fresh cache still creates the slot");
        let s = stats(&warm);
        assert_eq!((s.store_hits, s.store_misses), (1, 0));
        assert_eq!(
            rehydrated.netlist_fingerprint(),
            session.netlist_fingerprint()
        );
        assert_eq!(
            rehydrated.options_fingerprint(),
            session.options_fingerprint()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_racing_base_only_persist_never_replaces_a_full_record() {
        let n = small();
        let o = FlowOptions::default();
        let base = m3d_flow::prepare_base(&n, &o).expect("base");
        let pseudo = m3d_flow::pseudo_checkpoint(&base, &o).expect("pseudo");
        let full = FlowSession::builder(&n)
            .options(o.clone())
            .checkpoints(base, Some(pseudo))
            .build()
            .expect("built from checkpoints");
        // The base-only side carries a larger design's base, so its write
        // is the slow one: begun first and landing last is the order that
        // used to leave a base-only record behind a full ledger line.
        let large = Benchmark::Aes.generate(0.1, 5);
        let large_base = m3d_flow::prepare_base(&large, &o).expect("base");
        let base_only = FlowSession::builder(&n)
            .options(o)
            .checkpoints(large_base, None)
            .build()
            .expect("built from checkpoints");
        let key = StoreKey::new(
            full.netlist_fingerprint().to_string(),
            full.options_fingerprint().to_string(),
        )
        .expect("key");
        let dir =
            std::env::temp_dir().join(format!("m3d-serve-persist-race-{}", std::process::id()));
        for round in 0..16 {
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(Store::open(&dir).expect("open store"));
            let cache = SessionCache::with_store(4, Obs::disabled(), Some(Arc::clone(&store)));
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for session in [&base_only, &full] {
                    let (cache, start) = (&cache, &start);
                    scope.spawn(move || {
                        start.wait();
                        cache.persist(session);
                    });
                }
            });
            let record = store.get_session(&key).expect("readable").expect("written");
            assert!(
                record.pseudo.is_some(),
                "round {round}: a base-only record won"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_recipe_index_is_bounded_and_a_known_recipe_is_not_regenerated() {
        let cache = SessionCache::new(1, Obs::disabled());
        let o = FlowOptions::default();
        let spec = |seed| NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.01,
            seed,
        };
        let recipes = || cache.recipes.lock().unwrap().len();
        for seed in 0..8 {
            let _ = cache.get_or_build_recipe(&spec(seed), &o);
            assert_eq!(recipes(), seed as usize + 1);
        }
        // Resident (capacity 1 holds the last key) and known: no netlist.
        let (_, hit) = cache.get_or_build_recipe(&spec(7), &o);
        assert!(hit);
        assert_eq!(stats(&cache).netlists_materialized, 8);
        // Known but evicted: generated to rebuild, not to be hashed.
        let (rebuilt, hit) = cache.get_or_build_recipe(&spec(0), &o);
        assert!(!hit);
        assert_eq!(stats(&cache).netlists_materialized, 9);
        assert_eq!(
            SessionKey::of(&spec(0).materialize(), &o).netlist_fp,
            rebuilt.unwrap().netlist_fingerprint(),
            "the handed-down fingerprint is the netlist's"
        );
        // The ninth recipe finds the index full: it starts over.
        let _ = cache.get_or_build_recipe(&spec(8), &o);
        assert_eq!(recipes(), 1);
        assert_eq!(
            stats(&cache).cache_misses,
            10,
            "one slot per lookup that found none"
        );
    }

    #[test]
    fn failed_builds_are_cached_as_failures() {
        let cache = SessionCache::new(2, Obs::disabled());
        let mut invalid = Netlist::new("invalid");
        let pi = invalid.add_input("a");
        let net = invalid.add_net("na", pi, 0);
        let g = invalid.add_gate("g", m3d_tech::CellKind::Nand2, m3d_tech::Drive::X1, 0);
        invalid.connect(net, g, 0); // pin 1 dangling
        let o = FlowOptions::default();
        let (r1, hit1) = cache.get_or_build(&invalid, &o);
        let (r2, hit2) = cache.get_or_build(&invalid, &o);
        assert!(r1.is_err() && r2.is_err());
        assert!(!hit1 && hit2);
    }
}
