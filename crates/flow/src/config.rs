use m3d_cts::CtsConfig;
use m3d_obs::Obs;
use m3d_place::PlacerConfig;
use m3d_route::RouteConfig;
use m3d_tech::{Corner, Library, TechContext, TierStack};
use std::fmt;
use std::sync::Arc;

/// The five technology/design configurations of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Config {
    /// (b) 9-track 2-D: slow & small.
    TwoD9T,
    /// (a) 12-track 2-D: fast & large — the iso-performance baseline.
    TwoD12T,
    /// (c) 9-track homogeneous 3-D.
    ThreeD9T,
    /// (d) 12-track homogeneous 3-D.
    ThreeD12T,
    /// (e) 9+12-track heterogeneous 3-D: the paper's proposal.
    Hetero3d,
}

impl Config {
    /// All five configurations, in Fig. 1 order.
    pub const ALL: [Config; 5] = [
        Config::TwoD12T,
        Config::TwoD9T,
        Config::ThreeD12T,
        Config::ThreeD9T,
        Config::Hetero3d,
    ];

    /// The four homogeneous comparison configurations (Table VII columns).
    pub const HOMOGENEOUS: [Config; 4] = [
        Config::TwoD9T,
        Config::TwoD12T,
        Config::ThreeD9T,
        Config::ThreeD12T,
    ];

    /// Builds the technology stack for this configuration (typical
    /// corner, monolithic inter-tier vias — the default scenario).
    #[must_use]
    pub fn stack(self) -> TierStack {
        match self {
            Config::TwoD9T => TierStack::two_d(Library::nine_track()),
            Config::TwoD12T => TierStack::two_d(Library::twelve_track()),
            Config::ThreeD9T => TierStack::homogeneous_3d(Library::nine_track()),
            Config::ThreeD12T => TierStack::homogeneous_3d(Library::twelve_track()),
            Config::Hetero3d => TierStack::heterogeneous(),
        }
    }

    /// The configuration's stack with every library characterized at
    /// `corner` ([`Corner::Typical`] reproduces [`Config::stack`] bit
    /// for bit).
    #[must_use]
    pub fn stack_at(self, corner: Corner) -> TierStack {
        match self {
            Config::TwoD9T => TierStack::two_d(Library::nine_track_at(corner)),
            Config::TwoD12T => TierStack::two_d(Library::twelve_track_at(corner)),
            Config::ThreeD9T => TierStack::homogeneous_3d(Library::nine_track_at(corner)),
            Config::ThreeD12T => TierStack::homogeneous_3d(Library::twelve_track_at(corner)),
            Config::Hetero3d => TierStack::heterogeneous_at(corner),
        }
    }

    /// The stack the optimization pipeline runs on under `tech`:
    /// typical-corner libraries (sign-off corners are additional
    /// analyses, not different implementations) with the scenario's
    /// inter-tier via bound. The default scenario reproduces
    /// [`Config::stack`] exactly.
    #[must_use]
    pub fn stack_for(self, tech: &TechContext) -> TierStack {
        self.stack().with_stacking(tech.stacking)
    }

    /// Returns `true` for the two-tier configurations.
    #[must_use]
    pub fn is_3d(self) -> bool {
        matches!(
            self,
            Config::ThreeD9T | Config::ThreeD12T | Config::Hetero3d
        )
    }

    /// Returns `true` for the heterogeneous configuration.
    #[must_use]
    pub fn is_heterogeneous(self) -> bool {
        self == Config::Hetero3d
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Config::TwoD9T => "2D 9-Track",
            Config::TwoD12T => "2D 12-Track",
            Config::ThreeD9T => "M3D 9-Track",
            Config::ThreeD12T => "M3D 12-Track",
            Config::Hetero3d => "Hetero 3D (9+12)",
        };
        f.write_str(s)
    }
}

/// The flow's checkpoint boundaries, by what the stages in front of each
/// read of [`FlowOptions`] ([`FlowOptions::read_set`]); each contains the
/// one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadSet {
    /// `prepare_base`: validation and fanout buffering.
    Base,
    /// … and the pseudo-3-D stage: what a `FlowSession`, its cache slot
    /// and its store record are keyed by.
    Pseudo,
    /// … and `(partition →) tier_legalize → route → cts`: the pre-sizing
    /// prefix, the third part of a session's prefix key.
    Prefix,
}

/// Knobs of a flow run.
///
/// The three `enable_*` flags distinguish the Pin-3-D baseline from the
/// enhanced heterogeneous flow (Table V): the baseline runs with all three
/// disabled, the Hetero-Pin-3-D flow with all three enabled.
#[derive(Clone, PartialEq)]
pub struct FlowOptions {
    /// Target standard-cell utilization.
    pub utilization: f64,
    /// Seed forwarded to placement/partitioning.
    pub seed: u64,
    /// Global-placement parameters. Behind an `Arc`: forked options (fmax
    /// rungs, comparison jobs) share one copy instead of cloning it per
    /// branch; mutate through [`FlowOptions::placer_mut`].
    pub placer: Arc<PlacerConfig>,
    /// Global-routing parameters (shared; [`FlowOptions::route_mut`]).
    pub route: Arc<RouteConfig>,
    /// CTS parameters (shared; [`FlowOptions::cts_mut`]).
    pub cts: Arc<CtsConfig>,
    /// Fraction of cell area the timing-based partitioner may lock to the
    /// fast tier (the paper uses 20–30 %).
    pub timing_partition_cap: f64,
    /// Enable timing-based partitioning (heterogeneous enhancement #1).
    pub enable_timing_partition: bool,
    /// Enable 3-D (COVER-cell) clock tree synthesis (enhancement #2).
    pub enable_3d_cts: bool,
    /// Enable the repartitioning ECO (enhancement #3, Algorithm 1).
    pub enable_repartition: bool,
    /// Toggle rate at primary inputs for power analysis.
    pub input_activity: f64,
    /// Fanout cap for pre-placement buffering.
    pub max_fanout: usize,
    /// Placement-bin count per axis for bin-based FM.
    pub partition_bins: usize,
    /// Timing-met tolerance: |WNS| within this fraction of the period.
    pub wns_tolerance: f64,
    /// Workers for the run-level fan-outs this call starts: the
    /// configurations of a comparison and the walks of a grid wave. `0`
    /// defers to the process-global setting (`m3d_par::set_threads`),
    /// which itself falls back to `HETERO3D_THREADS` and then the
    /// machine's parallelism. The kernels (the placer's sweeps, the
    /// router's Prim planning, the cold STA pass's forward levels) and
    /// the two dies' legalization jobs never read this field: they read
    /// only the process-global setting. Results are identical at any
    /// value.
    pub threads: usize,
    /// Telemetry sink for the run. Disabled by default (every record is
    /// one branch); attach [`Obs::enabled`] to collect spans and counters
    /// into a manifest. Equality is handle identity, so two options
    /// structs feeding the same collector still compare equal.
    pub obs: Obs,
    /// The technology scenario: stacking style + sign-off corners.
    /// Defaults to monolithic/typical, which reproduces the
    /// pre-scenario flow (and its fingerprints) bit for bit.
    pub tech: TechContext,
}

/// Hand-rolled to render exactly like the pre-`tech` derived `Debug`
/// when the scenario is the default: [`FlowOptions::fingerprint`]
/// hashes this rendering, and every existing checkpoint/cache key and
/// committed benchmark baseline was minted from the field list below.
/// The `tech` field is appended only when it deviates from the
/// default, so new scenarios get new fingerprints and the default
/// scenario keeps the historical ones.
impl fmt::Debug for FlowOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FlowOptions");
        d.field("utilization", &self.utilization)
            .field("seed", &self.seed)
            .field("placer", &self.placer)
            .field("route", &self.route)
            .field("cts", &self.cts)
            .field("timing_partition_cap", &self.timing_partition_cap)
            .field("enable_timing_partition", &self.enable_timing_partition)
            .field("enable_3d_cts", &self.enable_3d_cts)
            .field("enable_repartition", &self.enable_repartition)
            .field("input_activity", &self.input_activity)
            .field("max_fanout", &self.max_fanout)
            .field("partition_bins", &self.partition_bins)
            .field("wns_tolerance", &self.wns_tolerance)
            .field("threads", &self.threads)
            .field("obs", &self.obs);
        if !self.tech.is_default() {
            d.field("tech", &self.tech);
        }
        d.finish()
    }
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            utilization: 0.7,
            seed: 1,
            placer: Arc::new(PlacerConfig::default()),
            route: Arc::new(RouteConfig::default()),
            cts: Arc::new(CtsConfig::default()),
            timing_partition_cap: 0.28,
            enable_timing_partition: true,
            enable_3d_cts: true,
            enable_repartition: true,
            input_activity: 0.15,
            max_fanout: 24,
            partition_bins: 8,
            wns_tolerance: 0.07,
            threads: 0,
            obs: Obs::disabled(),
            tech: TechContext::default(),
        }
    }
}

impl FlowOptions {
    /// These options under the Pin-3-D baseline flow: min-cut
    /// partitioning only, legacy clock tree, no repartitioning — the left
    /// column of Table V.
    #[must_use]
    pub fn pin3d_baseline(&self) -> Self {
        FlowOptions {
            enable_timing_partition: false,
            enable_3d_cts: false,
            enable_repartition: false,
            ..self.clone()
        }
    }

    /// Mutable access to the placer parameters (copy-on-write: a shared
    /// copy is cloned once on first mutation).
    pub fn placer_mut(&mut self) -> &mut PlacerConfig {
        Arc::make_mut(&mut self.placer)
    }

    /// Mutable access to the routing parameters (copy-on-write).
    pub fn route_mut(&mut self) -> &mut RouteConfig {
        Arc::make_mut(&mut self.route)
    }

    /// Mutable access to the CTS parameters (copy-on-write).
    pub fn cts_mut(&mut self) -> &mut CtsConfig {
        Arc::make_mut(&mut self.cts)
    }

    /// Forks the options for one concurrent branch: identical knobs (the
    /// sub-configs stay `Arc`-shared, nothing is deep-copied) with the
    /// telemetry handle re-scoped under `scope` so concurrent branches
    /// never share a manifest key.
    #[must_use]
    pub fn fork_for(&self, scope: &str) -> FlowOptions {
        FlowOptions {
            obs: self.obs.scope(scope),
            ..self.clone()
        }
    }

    /// FNV-1a over the bits of every field a stage in front of `boundary`
    /// reads — the identity of that boundary's checkpoint. The one
    /// declaration of who reads what: the destructuring is exhaustive,
    /// so a new field does not compile until it is placed.
    #[must_use]
    pub fn read_set(&self, boundary: ReadSet) -> u64 {
        let FlowOptions {
            // `prepare_base`.
            max_fanout,
            // `pseudo3d` (and `tier_legalize`, which reads them again).
            utilization,
            placer,
            // `partition`, `route`, `cts`.
            seed,
            route,
            cts,
            timing_partition_cap,
            enable_timing_partition,
            enable_3d_cts,
            partition_bins,
            // The stack a run is born with; the corners are `sign_off`'s.
            tech: TechContext {
                stacking,
                corners: _,
            },
            // Read from `size` on: the ECO and the sign-off.
            enable_repartition: _,
            wns_tolerance: _,
            input_activity: _,
            // Never in a key: neither may change a result.
            threads: _,
            obs: _,
        } = self;
        let PlacerConfig {
            iterations,
            relax_sweeps,
            bins,
            target_fill,
            seed: scatter,
        } = &**placer;
        let RouteConfig {
            bins: grid,
            congestion_exponent,
            overflow_threshold,
        } = &**route;
        let CtsConfig {
            max_fanout: clock_fanout,
            fast_drive,
            slow_drive,
        } = &**cts;
        let base = [*max_fanout as u64];
        let pseudo = [
            utilization.to_bits(),
            *iterations as u64,
            *relax_sweeps as u64,
            *bins as u64,
            target_fill.to_bits(),
            *scatter,
        ];
        let prefix = [
            *seed,
            *grid as u64,
            congestion_exponent.to_bits(),
            overflow_threshold.to_bits(),
            *clock_fanout as u64,
            *fast_drive as u64,
            *slow_drive as u64,
            timing_partition_cap.to_bits(),
            u64::from(*enable_timing_partition),
            u64::from(*enable_3d_cts),
            *partition_bins as u64,
            *stacking as u64,
        ];
        let sets: [&[u64]; 3] = [&base, &pseudo, &prefix];
        let mut h = m3d_db::Fnv1a::default();
        for w in sets[..=boundary as usize].iter().copied().flatten() {
            h.write(&w.to_le_bytes());
        }
        h.finish()
    }

    /// Stable fingerprint of the result-affecting knobs, as 16 hex
    /// digits. The thread count and the telemetry handle are excluded:
    /// by the determinism contract neither may change results, so two
    /// runs comparable for bit-identity fingerprint identically. The
    /// whole-options identity of a manifest (`input/options_fp`); what a
    /// checkpoint is keyed by is [`FlowOptions::read_set`].
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut canon = self.clone();
        canon.threads = 0;
        canon.obs = Obs::disabled();
        // FNV-1a over the debug rendering.
        format!("{:016x}", m3d_db::fnv1a(format!("{canon:?}").as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_map_to_expected_stacks() {
        assert!(!Config::TwoD9T.stack().is_3d());
        assert!(Config::ThreeD12T.stack().is_3d());
        assert!(!Config::ThreeD12T.stack().is_heterogeneous());
        assert!(Config::Hetero3d.stack().is_heterogeneous());
        assert_eq!(
            Config::TwoD9T.stack().library(m3d_tech::Tier::Bottom).vdd,
            0.81
        );
    }

    #[test]
    fn baseline_disables_all_enhancements() {
        let b = FlowOptions::default().pin3d_baseline();
        assert!(!b.enable_timing_partition);
        assert!(!b.enable_3d_cts);
        assert!(!b.enable_repartition);
        let full = FlowOptions::default();
        assert!(full.enable_timing_partition && full.enable_3d_cts && full.enable_repartition);
        // Everything but the three enhancements is the caller's.
        let tuned = FlowOptions {
            seed: 99,
            timing_partition_cap: 0.4,
            ..FlowOptions::default()
        };
        let b = tuned.pin3d_baseline();
        assert_eq!((b.seed, b.timing_partition_cap), (99, 0.4));
    }

    #[test]
    fn fingerprint_ignores_threads_and_telemetry() {
        let a = FlowOptions::default();
        let b = FlowOptions {
            threads: 4,
            obs: Obs::enabled(),
            ..Default::default()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FlowOptions {
            seed: 2,
            ..Default::default()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fork_shares_subconfigs_copy_on_write() {
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 9;
        let f = o.fork_for("cfg/test");
        assert!(
            Arc::ptr_eq(&o.placer, &f.placer),
            "fork must share, not copy"
        );
        assert_eq!(o.fingerprint(), f.fingerprint());
        let mut g = f.clone();
        g.placer_mut().iterations = 10;
        assert_eq!(f.placer.iterations, 9, "mutating a fork must not leak back");
        assert_eq!(g.placer.iterations, 10);
    }

    #[test]
    fn default_scenario_keeps_the_historical_debug_rendering() {
        // The fingerprint hashes the Debug rendering; the default
        // scenario must not mention `tech` at all, so every cache key
        // and committed baseline minted before the scenario axis
        // existed stays valid.
        let d = FlowOptions::default();
        let rendered = format!("{d:?}");
        assert!(
            !rendered.contains("tech"),
            "default options must render without the tech field: {rendered}"
        );
        let scenario = FlowOptions {
            tech: TechContext {
                stacking: m3d_tech::StackingStyle::F2fHybridBond,
                corners: m3d_tech::CornerSet::Worst,
            },
            ..Default::default()
        };
        assert!(format!("{scenario:?}").contains("tech"));
        assert_ne!(d.fingerprint(), scenario.fingerprint());
        // Corner-set and stacking each get distinct fingerprints.
        let worst_only = FlowOptions {
            tech: TechContext {
                corners: m3d_tech::CornerSet::Worst,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_ne!(scenario.fingerprint(), worst_only.fingerprint());
        assert_ne!(d.fingerprint(), worst_only.fingerprint());
    }

    #[test]
    fn corner_stacks_reproduce_the_default_at_typical() {
        for config in Config::ALL {
            let typ = config.stack_at(Corner::Typical);
            let base = config.stack();
            assert_eq!(
                typ.library(m3d_tech::Tier::Bottom).name,
                base.library(m3d_tech::Tier::Bottom).name
            );
            assert_eq!(typ.metal, base.metal);
            let scenario = config.stack_for(&TechContext::default());
            assert_eq!(scenario.metal, base.metal);
            // Slow corner lowers every supply.
            let slow = config.stack_at(Corner::Slow);
            assert!(slow.vdd_high() < base.vdd_high());
        }
        let f2f = Config::Hetero3d.stack_for(&TechContext {
            stacking: m3d_tech::StackingStyle::F2fHybridBond,
            ..Default::default()
        });
        assert_eq!(f2f.metal.miv, m3d_tech::StackingStyle::F2fHybridBond.via());
    }

    #[test]
    fn display_names_are_distinct() {
        let mut names: Vec<String> = Config::ALL.iter().map(|c| c.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
