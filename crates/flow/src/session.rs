//! The primary entry point: a [`FlowSession`] binds one netlist to one
//! set of [`FlowOptions`], validates and buffers the design once, and
//! then answers any number of commands — each forking the session's
//! shared checkpoints instead of redoing the prefix work.
//!
//! * The checkpoints are keyed by what they read of the options
//!   ([`ReadSet::Pseudo`]), not by the options whole:
//!   [`FlowSession::bind`] hands the same checkpoints — behind one `Arc`
//!   — to any options that agree on that set, and every command runs on
//!   the options of the binding it was asked of.
//! * [`FlowSession::build`] runs [`prepare_base`] eagerly: validation
//!   errors surface at construction, and every later command forks the
//!   same buffered base snapshot.
//! * The pseudo-3-D checkpoint is computed **lazily, once**: the first
//!   3-D command pays for it, every later one (and every concurrent
//!   caller — the session is `Sync`) forks it in O(1). A session serving
//!   a design-space sweep runs the pseudo-3-D stage exactly once, which
//!   is what the serve-layer checkpoint cache is built on.
//! * Every run of every command — `run`, each fmax probe, rung and
//!   retry, each `compare` job, each walk of a `pareto` or `sweep` grid —
//!   is one `FlowSession::walk`, and the pre-sizing prefix of every
//!   `(config, period where partitioning reads it, [`ReadSet::Prefix`]
//!   of the walk's options)` is **kept**: the first walk of a key builds
//!   it inside its own `run_flow` span — booking what a one-shot run
//!   books — and leaves an O(1) snapshot; every later walk of the key
//!   forks the snapshot and goes straight to sizing (one
//!   `flow/prefix_forks`). Racing first walks block on the one build; the
//!   map's lock is never held while flow code runs; of the slots no walk
//!   or grid holds, at most [`PREFIX_SLOTS`] stay, least recently used
//!   out first.
//! * Results are bit-identical to the standalone entry points at any
//!   thread count: forking a checkpoint is observationally equal to
//!   recomputing it (`shared_checkpoints_reproduce_the_standalone_run`,
//!   `every_later_run_of_a_session_is_its_first_and_the_cold_run`).

use crate::config::{Config, FlowOptions, ReadSet};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::stage::{
    drive, only_lane, period_ns, prefix_key, prepare_base, pseudo_checkpoint, BaseDesign, Prefix,
    PrefixKey, PseudoCheckpoint,
};
use crate::sweep::run_grid;
use crate::wire::{FlowCommand, FlowReport};
use m3d_cost::CostModel;
use m3d_netlist::Netlist;
use m3d_tech::CornerSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How many prefixes a session keeps besides those a walk or a grid
/// still holds. One is about 57 B/cell resident (1.3 MB at 23 k cells,
/// `tests/flow_footprint.rs`); eight hold the four homogeneous
/// configurations and Hetero-3-D at four periods.
const PREFIX_SLOTS: usize = 8;

/// One kept prefix: built at most once, a failure kept like a success
/// (the build is deterministic — a retry would fail the same way).
type PrefixSlot = OnceLock<Result<Prefix, FlowError>>;

/// Builder for a [`FlowSession`] (see [`FlowSession::builder`]).
#[derive(Debug)]
pub struct FlowSessionBuilder<'a> {
    netlist: &'a Netlist,
    options: FlowOptions,
    netlist_fingerprint: Option<String>,
    checkpoints: Option<(BaseDesign, Option<PseudoCheckpoint>)>,
}

impl FlowSessionBuilder<'_> {
    /// Replaces the flow options (default: [`FlowOptions::default`]).
    #[must_use]
    pub fn options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Hands down the netlist's content fingerprint
    /// ([`m3d_db::netlist_fingerprint`] as [`m3d_db::fingerprint_hex`])
    /// from a caller that has already computed it — the serve cache keys
    /// on it — so that `build` does not hash the netlist a second time.
    #[must_use]
    pub fn netlist_fingerprint(mut self, hex: String) -> Self {
        self.netlist_fingerprint = Some(hex);
        self
    }

    /// Rehydrates from previously computed checkpoints (the
    /// persistent-store warm path) instead of preparing them; `build`
    /// then validates nothing and cannot fail. `base` is the buffered
    /// checkpoint [`prepare_base`] produced for this netlist and options,
    /// and `pseudo` an optional pseudo-3-D checkpoint that pre-seeds the
    /// lazy slot — a session rehydrated with one never re-runs the
    /// pseudo-3-D stage.
    ///
    /// The caller owes the same pairing discipline as the checkpoint
    /// cache: both must have been computed from exactly this
    /// `(netlist, options)` pair, or session answers will not match a
    /// cold build.
    #[must_use]
    pub fn checkpoints(mut self, base: BaseDesign, pseudo: Option<PseudoCheckpoint>) -> Self {
        self.checkpoints = Some((base, pseudo));
        self
    }

    /// Validates the netlist and prepares the shared base checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidNetlist`] when the netlist fails
    /// validation.
    pub fn build(self) -> Result<FlowSession, FlowError> {
        let (base, pseudo) = match self.checkpoints {
            Some(checkpoints) => checkpoints,
            None => (prepare_base(self.netlist, &self.options)?, None),
        };
        let netlist_fingerprint = self
            .netlist_fingerprint
            .unwrap_or_else(|| m3d_db::fingerprint_hex(m3d_db::netlist_fingerprint(self.netlist)));
        Ok(FlowSession {
            shared: Arc::new(Checkpoints {
                design: self.netlist.name.clone(),
                netlist_fingerprint,
                options_fingerprint: m3d_db::fingerprint_hex(
                    self.options.read_set(ReadSet::Pseudo),
                ),
                base,
                pseudo: pseudo.map_or_else(OnceLock::new, |p| OnceLock::from(Ok(p))),
                prefixes: Mutex::default(),
                pseudo_builds: AtomicU64::new(0),
                prefix_builds: AtomicU64::new(0),
                prefix_forks: AtomicU64::new(0),
            }),
            options: self.options,
        })
    }
}

/// One netlist + one option set, prepared once, queried many times.
///
/// ```no_run
/// use m3d_flow::{Config, FlowOptions, FlowSession};
/// use m3d_netgen::Benchmark;
///
/// let netlist = Benchmark::Aes.generate(0.1, 1);
/// let session = FlowSession::builder(&netlist)
///     .options(FlowOptions::default())
///     .build()?;
/// let hetero = session.run(Config::Hetero3d, 1.5)?;
/// let (fmax, _) = session.fmax(Config::TwoD12T, 1.0)?;
/// println!("hetero WNS {:.3} ns at fmax {fmax:.2} GHz", hetero.sta.wns);
/// # Ok::<(), m3d_flow::FlowError>(())
/// ```
#[derive(Debug)]
pub struct FlowSession {
    shared: Arc<Checkpoints>,
    /// What this binding's commands run on.
    options: FlowOptions,
}

/// What every binding of a session shares: the checkpoints of one
/// netlist under one [`ReadSet::Pseudo`], and the tallies of the runs
/// that built and forked them.
#[derive(Debug)]
struct Checkpoints {
    design: String,
    netlist_fingerprint: String,
    options_fingerprint: String,
    base: BaseDesign,
    pseudo: OnceLock<Result<PseudoCheckpoint, FlowError>>,
    /// The prefixes the session's walks keep, least recently used first:
    /// at most [`PREFIX_SLOTS`] besides those a walk or a grid holds.
    prefixes: Mutex<Vec<(PrefixKey, Arc<PrefixSlot>)>>,
    pseudo_builds: AtomicU64,
    prefix_builds: AtomicU64,
    prefix_forks: AtomicU64,
}

impl FlowSession {
    /// Starts building a session over `netlist`.
    #[must_use]
    pub fn builder(netlist: &Netlist) -> FlowSessionBuilder<'_> {
        FlowSessionBuilder {
            netlist,
            options: FlowOptions::default(),
            netlist_fingerprint: None,
            checkpoints: None,
        }
    }

    /// `builder(netlist).options(options).checkpoints(base, pseudo)`,
    /// built. The workspace calls the builder; this adapter stays only
    /// because the `benchmark/` package compiles against it.
    #[must_use]
    pub fn from_parts(
        netlist: &Netlist,
        options: FlowOptions,
        base: BaseDesign,
        pseudo: Option<PseudoCheckpoint>,
    ) -> FlowSession {
        FlowSession::builder(netlist)
            .options(options)
            .checkpoints(base, pseudo)
            .build()
            .expect("a build from given checkpoints has no failing step")
    }

    /// The same checkpoints answering for `options`: `None` unless they
    /// agree with the session's on [`ReadSet::Pseudo`] — everything the
    /// checkpoints read. The binding's commands run on `options`, its
    /// `threads` included, and book on the session's telemetry handle.
    #[must_use]
    pub fn bind(&self, options: &FlowOptions) -> Option<FlowSession> {
        let agree = options.read_set(ReadSet::Pseudo) == self.options.read_set(ReadSet::Pseudo);
        agree.then(|| FlowSession {
            shared: Arc::clone(&self.shared),
            options: FlowOptions {
                obs: self.options.obs.clone(),
                ..options.clone()
            },
        })
    }

    /// The design's name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.shared.design
    }

    /// Content fingerprint of the input netlist (16 hex digits) — one
    /// half of the serve-layer checkpoint-cache key.
    #[must_use]
    pub fn netlist_fingerprint(&self) -> &str {
        &self.shared.netlist_fingerprint
    }

    /// [`ReadSet::Pseudo`] of the options (16 hex digits) — the other
    /// half of the cache key, the same for every binding.
    #[must_use]
    pub fn options_fingerprint(&self) -> &str {
        &self.shared.options_fingerprint
    }

    /// The options this binding runs on.
    #[must_use]
    pub fn options(&self) -> &FlowOptions {
        &self.options
    }

    /// Whether the pseudo-3-D checkpoint has been computed yet.
    #[must_use]
    pub fn pseudo_ready(&self) -> bool {
        self.pseudo_checkpoint().is_some()
    }

    /// The shared base checkpoint (for persisting the session).
    #[must_use]
    pub fn base(&self) -> &BaseDesign {
        &self.shared.base
    }

    /// The pseudo-3-D checkpoint, if it has been computed successfully —
    /// does *not* trigger the computation (for persisting the session).
    #[must_use]
    pub fn pseudo_checkpoint(&self) -> Option<&PseudoCheckpoint> {
        match self.shared.pseudo.get() {
            Some(Ok(p)) => Some(p),
            _ => None,
        }
    }

    /// The shared pseudo-3-D checkpoint, computed on first use. Racing
    /// callers block on the one computation instead of duplicating it.
    pub(crate) fn pseudo(&self) -> Result<&PseudoCheckpoint, FlowError> {
        let shared = &self.shared;
        let build = || {
            shared.pseudo_builds.fetch_add(1, Ordering::Relaxed);
            pseudo_checkpoint(&shared.base, &self.options)
        };
        shared
            .pseudo
            .get_or_init(build)
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The pseudo checkpoint when the configuration needs one.
    fn pseudo_for(&self, config: Config) -> Result<Option<&PseudoCheckpoint>, FlowError> {
        if config.is_3d() {
            self.pseudo().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Implements `config` at `frequency_ghz`, forking the session's
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidFrequency`] for a non-positive or
    /// non-finite target and propagates any stage failure.
    pub fn run(&self, config: Config, frequency_ghz: f64) -> Result<Implementation, FlowError> {
        self.run_with(config, frequency_ghz, &self.options)
    }

    /// [`FlowSession::walk`] signed off at `options.tech.corners` alone.
    pub(crate) fn run_with(
        &self,
        config: Config,
        frequency_ghz: f64,
        options: &FlowOptions,
    ) -> Result<Implementation, FlowError> {
        self.walk(config, frequency_ghz, &[options.tech.corners], options)
            .map(only_lane)
    }

    /// The one run every command is made of: `config` at `frequency_ghz`
    /// on `options` — this binding's, or a scoped copy of them that
    /// agrees on [`ReadSet::Pseudo`] — signed off once per entry of
    /// `corner_sets`, off the session's checkpoints, with the prefix out
    /// of the memo slot of its `prefix_key`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidFrequency`] for a non-positive or
    /// non-finite target and propagates any stage failure.
    pub(crate) fn walk(
        &self,
        config: Config,
        frequency_ghz: f64,
        corner_sets: &[CornerSet],
        options: &FlowOptions,
    ) -> Result<Vec<Implementation>, FlowError> {
        let period = period_ns(frequency_ghz)?;
        let (base, pseudo) = (&self.shared.base, self.pseudo_for(config)?);
        let slot = self.prefix_slot(prefix_key(config, period, options));
        drive(base, config, period, corner_sets, options, |root| {
            let build = || Prefix::build(base, pseudo, config, period, options, root);
            self.prefix_from(&slot, options, build)
        })
    }

    /// One walk's prefix out of `slot`, booked on the walk's `options`:
    /// the first caller runs `build`, walks on with what it built — open
    /// pass span and all, as a one-shot run does — and leaves a snapshot
    /// behind; callers racing it block on that one build; they and every
    /// later caller fork the snapshot, or hear the build's failure.
    fn prefix_from(
        &self,
        slot: &PrefixSlot,
        options: &FlowOptions,
        build: impl FnOnce() -> Result<Prefix, FlowError>,
    ) -> Result<Prefix, FlowError> {
        let mut own = None;
        let kept = slot.get_or_init(|| {
            self.shared.prefix_builds.fetch_add(1, Ordering::Relaxed);
            // Perf, not a counter: a first run's deterministic manifest
            // stays a one-shot run's.
            options.obs.perf_add("flow/prefix_runs", 1);
            let prefix = build()?;
            let kept = prefix.snapshot();
            own = Some(prefix);
            Ok(kept)
        });
        match (own, kept) {
            (Some(prefix), _) => Ok(prefix),
            (None, Ok(kept)) => {
                self.shared.prefix_forks.fetch_add(1, Ordering::Relaxed);
                Ok(kept.fork(options))
            }
            (None, Err(e)) => Err(e.clone()),
        }
    }

    /// The slot `key`'s prefix lives in, now the most recently used; a
    /// new key may push out the least recently used slots nobody holds.
    /// A slot held — by a walk inside it, or by a grid that will walk it
    /// again — stays, so no key is built twice while it is in use.
    pub(crate) fn prefix_slot(&self, key: PrefixKey) -> Arc<PrefixSlot> {
        let mut slots = self.shared.prefixes.lock().expect("prefix map poisoned");
        let slot = match slots.iter().position(|(k, _)| *k == key) {
            Some(i) => slots.remove(i).1,
            None => Arc::default(),
        };
        slots.push((key, Arc::clone(&slot)));
        while slots.len() > PREFIX_SLOTS {
            let Some(i) = slots.iter().position(|(_, s)| Arc::strong_count(s) == 1) else {
                break;
            };
            slots.remove(i);
        }
        slot
    }

    /// Prefix builds and forks by the session's walks — every command's
    /// — since the last call, over every binding (plain atomics, counted
    /// with telemetry off). Draining lets a holder of many short-lived
    /// sessions keep exact totals.
    pub fn take_prefix_counts(&self) -> (u64, u64) {
        (
            self.shared.prefix_builds.swap(0, Ordering::Relaxed),
            self.shared.prefix_forks.swap(0, Ordering::Relaxed),
        )
    }

    /// Pseudo-3-D stages run since the last call, drained like
    /// [`FlowSession::take_prefix_counts`]: at most one per session, none
    /// for one rehydrated with its checkpoint.
    pub fn take_pseudo_builds(&self) -> u64 {
        self.shared.pseudo_builds.swap(0, Ordering::Relaxed)
    }

    /// Executes one wire-format command and rolls the result up into its
    /// serializable report — the single execution path shared by direct
    /// library callers and the flow service (which is how the service
    /// guarantees its responses are bit-identical to library calls).
    ///
    /// # Errors
    ///
    /// Propagates the underlying command's [`FlowError`].
    pub fn execute(&self, command: &FlowCommand) -> Result<FlowReport, FlowError> {
        let cost = CostModel::default();
        match command {
            FlowCommand::RunFlow {
                config,
                frequency_ghz,
            } => {
                let imp = self.run(*config, *frequency_ghz)?;
                Ok(FlowReport::Run {
                    ppac: imp.ppac(&cost),
                })
            }
            FlowCommand::FindFmax { config, start_ghz } => {
                let (fmax_ghz, imp) = self.fmax(*config, *start_ghz)?;
                Ok(FlowReport::Fmax {
                    fmax_ghz,
                    ppac: imp.ppac(&cost),
                })
            }
            FlowCommand::CompareConfigs => {
                let comparison = self.compare(&cost)?.summary;
                Ok(FlowReport::Compare { comparison })
            }
            FlowCommand::Pareto {
                config,
                freq_min_ghz,
                freq_max_ghz,
                freq_steps,
            } => {
                let summary =
                    self.pareto(*config, *freq_min_ghz, *freq_max_ghz, *freq_steps, &cost)?;
                Ok(FlowReport::Pareto { summary })
            }
            FlowCommand::Sweep { spec } => {
                let points = run_grid(self, spec, "sweep", |_, imp| imp.ppac(&cost))?;
                Ok(FlowReport::Sweep { points })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NetlistSpec;
    use m3d_netgen::Benchmark;

    fn quick_options() -> FlowOptions {
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 8;
        o
    }

    #[test]
    fn session_matches_standalone_entry_points_bit_for_bit() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let options = quick_options();
        let session = FlowSession::builder(&n)
            .options(options.clone())
            .build()
            .expect("valid netlist");
        assert!(!session.pseudo_ready(), "pseudo must be lazy");

        let direct = crate::flow::try_run_flow(&n, Config::Hetero3d, 1.0, &options).unwrap();
        let via_session = session.run(Config::Hetero3d, 1.0).unwrap();
        assert!(session.pseudo_ready());
        assert_eq!(direct.tiers, via_session.tiers);
        assert_eq!(direct.sta.wns.to_bits(), via_session.sta.wns.to_bits());
        assert_eq!(
            direct.power.total_mw().to_bits(),
            via_session.power.total_mw().to_bits()
        );
        assert_eq!(direct.placement.positions, via_session.placement.positions);

        // A 2-D run through the same session agrees with the library too.
        let d2 = crate::flow::try_run_flow(&n, Config::TwoD12T, 1.0, &options).unwrap();
        let d2s = session.run(Config::TwoD12T, 1.0).unwrap();
        assert_eq!(d2.sta.wns.to_bits(), d2s.sta.wns.to_bits());
    }

    #[test]
    fn session_rejects_bad_frequency_and_bad_netlist() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let session = FlowSession::builder(&n).build().expect("valid netlist");
        let err = session.run(Config::TwoD9T, f64::NAN).unwrap_err();
        assert!(matches!(err, FlowError::InvalidFrequency { .. }));
        // An infinite target would otherwise run with period 0 and
        // return garbage metrics instead of an error.
        let err = session.run(Config::TwoD9T, f64::INFINITY).unwrap_err();
        assert!(matches!(err, FlowError::InvalidFrequency { .. }));
        let err = session.fmax(Config::TwoD9T, f64::INFINITY).unwrap_err();
        assert!(matches!(err, FlowError::InvalidFrequency { .. }));

        // A gate with an unconnected input fails validation at build().
        let mut invalid = m3d_netlist::Netlist::new("invalid");
        let pi = invalid.add_input("a");
        let net = invalid.add_net("na", pi, 0);
        let g = invalid.add_gate("g", m3d_tech::CellKind::Nand2, m3d_tech::Drive::X1, 0);
        invalid.connect(net, g, 0); // pin 1 left dangling
        assert!(matches!(
            FlowSession::builder(&invalid).build(),
            Err(FlowError::InvalidNetlist(_))
        ));
    }

    #[test]
    fn execute_reports_match_direct_calls() {
        let spec = NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.015,
            seed: 31,
        };
        let n = spec.materialize();
        let options = quick_options();
        let session = FlowSession::builder(&n)
            .options(options.clone())
            .build()
            .unwrap();
        let report = session
            .execute(&FlowCommand::RunFlow {
                config: Config::ThreeD9T,
                frequency_ghz: 0.9,
            })
            .unwrap();
        let imp = session.run(Config::ThreeD9T, 0.9).unwrap();
        let expected = FlowReport::Run {
            ppac: imp.ppac(&CostModel::default()),
        };
        assert_eq!(report, expected);
    }

    #[test]
    fn sweep_execute_matches_decomposed_single_shot_sessions() {
        use crate::sweep::SweepSpec;
        use crate::wire::{NetlistSpec, Proto};
        use m3d_tech::{Corner, StackingStyle};

        let spec = NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.012,
            seed: 31,
        };
        let n = spec.materialize();
        let options = quick_options();
        let request = crate::wire::FlowRequest {
            id: 1,
            netlist: spec,
            options: options.clone(),
            command: FlowCommand::Sweep {
                spec: SweepSpec {
                    configs: vec![Config::Hetero3d],
                    stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
                    corners: vec![Corner::Typical],
                    freq_min_ghz: 0.9,
                    freq_max_ghz: 1.1,
                    freq_steps: 2,
                },
            },
            deadline_ms: None,
            proto: Proto::V2,
        };
        let session = FlowSession::builder(&n)
            .options(options.clone())
            .build()
            .unwrap();
        let FlowReport::Sweep { points } = session.execute(&request.command).unwrap() else {
            panic!("expected a sweep report")
        };
        let singles = request.decompose_sweep().expect("decomposes");
        assert_eq!(points.len(), singles.len());
        for (point, single) in points.iter().zip(&singles) {
            let single_session = FlowSession::builder(&n)
                .options(single.options.clone())
                .build()
                .unwrap();
            let FlowReport::Run { ppac } = single_session.execute(&single.command).unwrap() else {
                panic!("expected a run report")
            };
            assert_eq!(point, &ppac, "sweep point must equal the v1 single-shot");
        }
    }

    #[test]
    fn malformed_grids_report_the_validators_verdict_for_both_commands() {
        use crate::sweep::{SweepSpec, MAX_PARETO_STEPS, MAX_SWEEP_POINTS};
        use m3d_tech::{Corner, StackingStyle};

        let n = Benchmark::Aes.generate(0.012, 31);
        let session = FlowSession::builder(&n)
            .options(quick_options())
            .build()
            .unwrap();
        let verdict = |command: FlowCommand| match session.execute(&command) {
            Err(FlowError::InvalidSweep(e)) => (e.path, e.expected),
            other => panic!("expected InvalidSweep, got {other:?}"),
        };
        let good = SweepSpec {
            configs: vec![Config::TwoD12T],
            stacking: vec![StackingStyle::Monolithic],
            corners: vec![Corner::Typical],
            freq_min_ghz: 0.9,
            freq_max_ghz: 1.1,
            freq_steps: 2,
        };
        let axis = "a non-empty list without duplicates".to_string();
        let bounds = "positive finite bounds with freq_max_ghz >= freq_min_ghz".to_string();
        let steps = format!("an integer in 1..={MAX_PARETO_STEPS}");
        let sweep_cases: [(SweepSpec, &str, String); 6] = [
            (
                SweepSpec {
                    configs: vec![],
                    ..good.clone()
                },
                "command/configs",
                axis.clone(),
            ),
            (
                SweepSpec {
                    stacking: vec![StackingStyle::Monolithic; 2],
                    ..good.clone()
                },
                "command/stacking",
                axis.clone(),
            ),
            (
                SweepSpec {
                    corners: vec![Corner::Fast, Corner::Fast],
                    ..good.clone()
                },
                "command/corners",
                axis,
            ),
            (
                SweepSpec {
                    freq_max_ghz: 0.5,
                    ..good.clone()
                },
                "command/freq_min_ghz",
                bounds.clone(),
            ),
            (
                SweepSpec {
                    freq_steps: 0,
                    ..good.clone()
                },
                "command/freq_steps",
                steps.clone(),
            ),
            (
                SweepSpec {
                    configs: Config::ALL.to_vec(),
                    stacking: StackingStyle::ALL.to_vec(),
                    corners: Corner::ALL.to_vec(),
                    freq_steps: MAX_PARETO_STEPS,
                    ..good
                },
                "command",
                format!("a sweep of at most {MAX_SWEEP_POINTS} points"),
            ),
        ];
        for (spec, path, expected) in sweep_cases {
            assert_eq!(
                verdict(FlowCommand::Sweep { spec }),
                (path.to_string(), expected)
            );
        }
        // A Pareto request owns only its frequency grid (its axes are
        // derived, and 6 scenarios × 64 steps stay under the point cap).
        for (lo, hi, n_steps, path, expected) in [
            (0.0, 1.0, 4, "command/freq_min_ghz", &bounds),
            (f64::NAN, 1.0, 4, "command/freq_min_ghz", &bounds),
            (1.2, 0.8, 4, "command/freq_min_ghz", &bounds),
            (0.8, 1.2, 0, "command/freq_steps", &steps),
            (0.8, 1.2, MAX_PARETO_STEPS + 1, "command/freq_steps", &steps),
        ] {
            let command = FlowCommand::Pareto {
                config: Config::Hetero3d,
                freq_min_ghz: lo,
                freq_max_ghz: hi,
                freq_steps: n_steps,
            };
            assert_eq!(verdict(command), (path.to_string(), expected.clone()));
        }
        let err = session
            .pareto(Config::TwoD9T, 0.8, 1.2, 0, &CostModel::default())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("invalid sweep grid: command/freq_steps: expected {steps}")
        );
    }

    #[test]
    fn rehydrated_session_matches_and_skips_pseudo3d() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let options = quick_options();
        let cold = FlowSession::builder(&n)
            .options(options.clone())
            .build()
            .unwrap();
        let cold_run = cold.run(Config::Hetero3d, 1.0).unwrap();
        let base = cold.base().clone();
        let pseudo = cold.pseudo_checkpoint().cloned();
        assert!(pseudo.is_some());

        // Rehydrate under a telemetry collector: the pseudo-3-D stage
        // must not run again.
        let obs = m3d_obs::Obs::enabled();
        let mut warm_options = options.clone();
        warm_options.obs = obs.clone();
        let warm = FlowSession::builder(&n)
            .options(warm_options)
            .checkpoints(base, pseudo)
            .build()
            .unwrap();
        assert!(warm.pseudo_ready());
        assert_eq!(warm.netlist_fingerprint(), cold.netlist_fingerprint());
        assert_eq!(warm.options_fingerprint(), cold.options_fingerprint());
        let warm_run = warm.run(Config::Hetero3d, 1.0).unwrap();
        assert_eq!(cold_run.tiers, warm_run.tiers);
        assert_eq!(cold_run.sta.wns.to_bits(), warm_run.sta.wns.to_bits());
        assert_eq!(
            obs.manifest().counter("flow/pseudo3d_runs").unwrap_or(0),
            0,
            "rehydrated pseudo checkpoint must suppress the pseudo-3-D stage"
        );
    }

    /// `state_fingerprint` of the design `imp` signs off: its database
    /// rebuilt from the implementation's artifacts, its parasitics among
    /// them.
    fn state_fingerprint(imp: &Implementation) -> u64 {
        let mut db = m3d_db::DesignDb::from_shared(
            imp.netlist.clone(),
            (*imp.stack).clone(),
            1.0 / imp.frequency_ghz,
        );
        db.set_tiers((*imp.tiers).clone());
        db.set_placement((*imp.placement).clone());
        db.set_parasitics((*imp.parasitics).clone());
        db.state_fingerprint()
    }

    fn assert_same_run(a: &Implementation, b: &Implementation, what: &str) {
        for ((name, x), (_, y)) in a.bits().iter().zip(b.bits()) {
            assert_eq!(x, &y, "{what}: {name}");
        }
        assert_eq!(
            state_fingerprint(a),
            state_fingerprint(b),
            "{what}: state fingerprint"
        );
    }

    #[test]
    fn every_later_run_of_a_session_is_its_first_and_the_cold_run() {
        use m3d_tech::StackingStyle;
        let netlist = Benchmark::Aes.generate(0.03, 7);
        let mut quick = FlowOptions::default();
        quick.placer_mut().iterations = 6;
        let (mut eco_moves, mut second_passes) = (0, 0);
        for config in Config::ALL {
            for stacking in StackingStyle::ALL {
                let mut options = quick.clone();
                options.tech.stacking = stacking;
                let cold: Vec<Implementation> = [0.9, 2.2]
                    .iter()
                    .map(|&ghz| crate::flow::try_run_flow(&netlist, config, ghz, &options))
                    .collect::<Result<_, _>>()
                    .expect("cold runs");
                options.obs = m3d_obs::Obs::enabled();
                let session = FlowSession::builder(&netlist)
                    .options(options.clone())
                    .build()
                    .expect("session");
                // The two periods interleaved: a period-keyed entry
                // answering for the other period would show here.
                for round in 0..3 {
                    for (ghz, cold) in [0.9, 2.2].into_iter().zip(&cold) {
                        let what = format!("{config} {stacking} {ghz} GHz, run {round}");
                        let run = session.run(config, ghz).expect("session run");
                        assert_same_run(&run, cold, &what);
                        if round > 0 {
                            eco_moves += run.eco.as_ref().map_or(0, |e| e.cells_moved);
                        }
                    }
                }
                // Default Hetero-3-D keeps one prefix per period.
                let builds = if config.is_heterogeneous() { 2 } else { 1 };
                assert_eq!(session.take_prefix_counts(), (builds, 6 - builds));
                let manifest = options.obs.manifest();
                assert_eq!(manifest.counter("flow/prefix_forks"), Some(6 - builds));
                assert_eq!(manifest.counter("flow/prefix_runs"), None);
                // One `impl2d` per walk, plus one per re-implementation.
                if let Some(row) = manifest.span("run_flow/impl2d") {
                    second_passes += row.calls - 6;
                }
            }
        }
        assert!(eco_moves > 0, "no forked walk moved a cell in the ECO");
        // A first run that re-implements has two forked twins.
        assert!(
            second_passes >= 3,
            "no forked 2-D walk took the second pass"
        );
    }

    #[test]
    fn a_binding_runs_on_its_own_options_off_the_shared_checkpoints() {
        use m3d_tech::{CornerSet, StackingStyle};
        let netlist = Benchmark::Aes.generate(0.02, 31);
        let mut options = quick_options();
        options.obs = m3d_obs::Obs::enabled();
        let session = FlowSession::builder(&netlist)
            .options(options.clone())
            .build()
            .expect("session");
        let first = session.run(Config::Hetero3d, 1.0).expect("first run");
        assert_eq!(session.take_prefix_counts(), (1, 0));

        // Read behind the prefix: the variant forks the first run's.
        let mut variant = quick_options();
        variant.input_activity = 0.3;
        variant.tech.corners = CornerSet::Worst;
        variant.threads = 1;
        let bound = session
            .bind(&variant)
            .expect("agrees on the pseudo read-set");
        assert_eq!(bound.options().threads, 1);
        assert_eq!(
            bound.options().obs,
            options.obs,
            "books on the session's handle"
        );
        assert_eq!(bound.options_fingerprint(), session.options_fingerprint());
        let run = bound.run(Config::Hetero3d, 1.0).expect("bound run");
        let cold = crate::flow::try_run_flow(&netlist, Config::Hetero3d, 1.0, &variant);
        assert_same_run(&run, &cold.expect("cold run"), "bound variant");
        assert_ne!(
            run.power.total_mw().to_bits(),
            first.power.total_mw().to_bits()
        );
        assert_eq!(session.take_prefix_counts(), (0, 1), "one memo for both");

        // Read by a prefix stage: the same checkpoints, its own prefix.
        variant.tech.stacking = StackingStyle::F2fHybridBond;
        let f2f = session.bind(&variant).expect("binding");
        let run = f2f.run(Config::Hetero3d, 1.0).expect("f2f run");
        let cold = crate::flow::try_run_flow(&netlist, Config::Hetero3d, 1.0, &variant);
        assert_same_run(&run, &cold.expect("cold run"), "f2f variant");
        assert_eq!(f2f.take_prefix_counts(), (1, 0));
        assert_eq!(
            (session.take_pseudo_builds(), f2f.take_pseudo_builds()),
            (1, 0)
        );

        // Read by a checkpoint: another session's business.
        variant.utilization = 0.6;
        assert!(session.bind(&variant).is_none());
    }

    #[test]
    fn racing_first_runs_build_one_prefix() {
        let netlist = Benchmark::Aes.generate(0.02, 31);
        let mut options = quick_options();
        options.obs = m3d_obs::Obs::enabled();
        let session = FlowSession::builder(&netlist)
            .options(options.clone())
            .build()
            .expect("session");
        let barrier = std::sync::Barrier::new(4);
        let runs: Vec<Implementation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        session.run(Config::ThreeD12T, 1.0).expect("run")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("runner"))
                .collect()
        });
        for run in &runs[1..] {
            assert_same_run(run, &runs[0], "racing runs");
        }
        assert_eq!(session.take_prefix_counts(), (1, 3));
        assert_eq!(session.take_prefix_counts(), (0, 0), "counts drain");
        let manifest = options.obs.manifest();
        assert_eq!(manifest.perf("flow/prefix_runs"), Some(1));
        assert_eq!(manifest.counter("flow/prefix_forks"), Some(3));
        assert_eq!(manifest.counter("flow/pseudo3d_runs"), Some(1));
        // Exactly one walk built under its own pass span; the stages
        // ahead of sizing ran once.
        assert_eq!(manifest.span("run_flow/finish3d").map(|r| r.calls), Some(4));
        assert_eq!(
            manifest.span("run_flow/finish3d/route").map(|r| r.calls),
            Some(1)
        );
    }

    #[test]
    fn the_prefix_memo_is_bounded_and_an_evicted_key_rebuilds_to_the_same_bits() {
        let netlist = Benchmark::Aes.generate(0.012, 31);
        let session = FlowSession::builder(&netlist)
            .options(quick_options())
            .build()
            .expect("session");
        // Default Hetero-3-D: every period is a key of its own.
        let ghz = |k: usize| 0.8 + 0.05 * k as f64;
        let first = session.run(Config::Hetero3d, ghz(0)).expect("first");
        let mut last = None;
        for k in 1..=PREFIX_SLOTS {
            last = Some(session.run(Config::Hetero3d, ghz(k)).expect("filler"));
        }
        let resident = || session.shared.prefixes.lock().expect("prefix map").len();
        assert_eq!(resident(), PREFIX_SLOTS);
        assert_eq!(
            session.take_prefix_counts(),
            (PREFIX_SLOTS as u64 + 1, 0),
            "distinct keys never fork"
        );
        // The most recent key is resident, the oldest was pushed out.
        let again = session
            .run(Config::Hetero3d, ghz(PREFIX_SLOTS))
            .expect("hit");
        assert_eq!(session.take_prefix_counts(), (0, 1));
        assert_same_run(&again, &last.expect("a filler ran"), "resident key");
        let rebuilt = session.run(Config::Hetero3d, ghz(0)).expect("rebuilt");
        assert_eq!(session.take_prefix_counts(), (1, 0));
        assert_eq!(resident(), PREFIX_SLOTS);
        assert_same_run(&rebuilt, &first, "evicted key");
    }

    #[test]
    fn a_failed_prefix_build_reaches_every_waiter_and_a_panic_leaves_the_slot_usable() {
        use std::sync::atomic::AtomicUsize;
        let netlist = Benchmark::Aes.generate(0.012, 31);
        let options = quick_options();
        let session = FlowSession::builder(&netlist)
            .options(options.clone())
            .build()
            .expect("session");
        let failure = FlowError::InvalidFrequency { frequency_ghz: 0.0 };

        let (slot, attempts) = (PrefixSlot::new(), AtomicUsize::new(0));
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<Result<(), FlowError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let failing = || {
                            attempts.fetch_add(1, Ordering::Relaxed);
                            Err(failure.clone())
                        };
                        session.prefix_from(&slot, &options, failing).map(|_| ())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("waiter"))
                .collect()
        });
        assert_eq!(answers, vec![Err(failure.clone()); 4]);
        assert_eq!(attempts.load(Ordering::Relaxed), 1, "one build for all");
        assert_eq!(session.take_prefix_counts(), (1, 0));

        // A build that unwinds leaves the slot empty, not poisoned: the
        // next caller builds, the one after forks.
        let slot = PrefixSlot::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session
                .prefix_from(&slot, &options, || panic!("a stage panicked"))
                .map(|_| ())
        }));
        assert!(unwound.is_err() && slot.get().is_none());
        let span = options.obs.span("test");
        let build = || Prefix::build(session.base(), None, Config::TwoD12T, 1.0, &options, &span);
        assert!(session.prefix_from(&slot, &options, build).is_ok());
        assert!(session
            .prefix_from(&slot, &options, || Err(failure))
            .is_ok());
        assert_eq!(session.take_prefix_counts(), (2, 1));
    }

    /// Every command reads and fills the one memo: each key is built once
    /// across them, a repeated comparison builds nothing, and every
    /// report is what a fresh session answers.
    #[test]
    fn every_command_builds_each_prefix_key_once_and_answers_like_a_fresh_session() {
        let netlist = Benchmark::Aes.generate(0.02, 31);
        let session_of = || {
            FlowSession::builder(&netlist)
                .options(quick_options())
                .build()
                .expect("session")
        };
        let session = session_of();
        let mut builds = Vec::new();
        for command in [
            FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: 1.0,
            },
            FlowCommand::FindFmax {
                config: Config::ThreeD9T,
                start_ghz: 3.0,
            },
            FlowCommand::CompareConfigs,
            FlowCommand::CompareConfigs,
        ] {
            let report = session.execute(&command).expect("command");
            assert_eq!(report, session_of().execute(&command).expect("fresh"));
            builds.push(session.take_prefix_counts().0);
        }
        // The run's key, fmax's, then the comparison's 12-track probe,
        // 3-D 12-track and Hetero-3-D at the target: its two 9-track
        // jobs fork the first two.
        assert_eq!(builds, [1, 1, 3, 0]);
    }

    /// A grid with more prefix keys than the memo keeps besides held
    /// slots: a key its frequencies share is held until the grid ends and
    /// built by its first walk, so each key is built once and the
    /// manifest is the same at any thread count.
    #[test]
    fn a_grid_past_the_memo_bound_builds_each_key_once_at_any_thread_count() {
        use crate::sweep::SweepSpec;
        use m3d_tech::{Corner, StackingStyle};
        let netlist = Benchmark::Aes.generate(0.012, 31);
        let spec = SweepSpec {
            configs: Config::ALL.to_vec(),
            stacking: StackingStyle::ALL.to_vec(),
            corners: vec![Corner::Typical],
            freq_min_ghz: 0.9,
            freq_max_ghz: 1.1,
            freq_steps: 2,
        };
        // A key per homogeneous configuration and style; default
        // Hetero-3-D one per style and period.
        let keys = 4 * 2 + 2 * 2;
        assert!(keys > PREFIX_SLOTS);
        let at = |threads| {
            let mut options = quick_options();
            options.threads = threads;
            options.obs = m3d_obs::Obs::enabled();
            let session = FlowSession::builder(&netlist)
                .options(options.clone())
                .build()
                .expect("session");
            let command = FlowCommand::Sweep { spec: spec.clone() };
            (
                session.execute(&command).expect("sweep"),
                session.take_prefix_counts(),
                options.obs.manifest().deterministic_json().render(),
            )
        };
        let one = at(1);
        assert_eq!(one.1, (keys as u64, (spec.point_count() - keys) as u64));
        assert!(one.2.contains("sweep/f2f/Hetero3d/f1/run_flow"));
        assert_eq!(at(4), one);
    }

    #[test]
    fn fingerprints_key_on_netlist_and_options() {
        let a = Benchmark::Aes.generate(0.015, 31);
        let b = Benchmark::Aes.generate(0.015, 32);
        let s1 = FlowSession::builder(&a).build().unwrap();
        let s2 = FlowSession::builder(&a).build().unwrap();
        let s3 = FlowSession::builder(&b).build().unwrap();
        let s4 = FlowSession::builder(&a)
            .options(quick_options())
            .build()
            .unwrap();
        assert_eq!(s1.netlist_fingerprint(), s2.netlist_fingerprint());
        assert_eq!(s1.options_fingerprint(), s2.options_fingerprint());
        assert_ne!(s1.netlist_fingerprint(), s3.netlist_fingerprint());
        assert_ne!(s1.options_fingerprint(), s4.options_fingerprint());
    }
}
