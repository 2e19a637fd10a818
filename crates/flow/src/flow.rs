use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::stage::period_ns;
use crate::FlowSession;
use m3d_cts::ClockTree;
use m3d_netlist::Netlist;
use m3d_partition::{EcoOutcome, TimingAssignment};
use m3d_place::{Floorplan, Placement};
use m3d_power::PowerResult;
use m3d_route::RouteTotals;
use m3d_sta::{ClockSpec, Parasitics, StaResult};
use m3d_tech::{TechContext, Tier, TierStack};
use std::sync::Arc;

/// A finished implementation of one configuration: a read-only view of
/// the design and layout the pipeline signed off. Every artifact is
/// behind an `Arc`, so cloning an implementation (the fmax sweep keeps
/// several alive) is O(1).
#[derive(Debug, Clone)]
pub struct Implementation {
    /// Which configuration this is.
    pub config: Config,
    /// The technology scenario (stacking style and corner set) the
    /// run was signed off under.
    pub tech: TechContext,
    /// Target clock frequency, GHz.
    pub frequency_ghz: f64,
    /// The (optimized: buffered + resized) netlist.
    pub netlist: Arc<Netlist>,
    /// Technology binding.
    pub stack: Arc<TierStack>,
    /// Tier of every cell.
    pub tiers: Arc<Vec<Tier>>,
    /// Die outline and macro slots.
    pub floorplan: Arc<Floorplan>,
    /// Legalized placement.
    pub placement: Arc<Placement>,
    /// Routing totals (the per-net routes end at extraction).
    pub routing: RouteTotals,
    /// The parasitics extracted from the routes, which sign-off read.
    pub parasitics: Arc<Parasitics>,
    /// Synthesized clock tree.
    pub clock_tree: Arc<ClockTree>,
    /// Sign-off timing.
    pub sta: Arc<StaResult>,
    /// Sign-off power.
    pub power: Arc<PowerResult>,
    /// Target utilization the floorplans were sized for.
    pub utilization: f64,
    /// Repartitioning outcome (heterogeneous flow only).
    pub eco: Option<EcoOutcome>,
    /// Timing-based partitioning outcome (heterogeneous flow only).
    pub timing_assignment: Option<TimingAssignment>,
}

impl Implementation {
    /// The clock this implementation is timed against at its frequency:
    /// the clock tree's sink latencies (shared, not copied) plus a
    /// virtual I/O clock at their mean.
    #[must_use]
    pub fn clock_spec(&self) -> ClockSpec {
        crate::stage::clock_spec(1.0 / self.frequency_ghz, Some(&self.clock_tree))
    }
}

#[cfg(test)]
impl Implementation {
    /// Every result-bearing field by bits, named, for the suites that
    /// hold a run forked off shared checkpoints equal to a cold one.
    pub(crate) fn bits(&self) -> Vec<(&'static str, Vec<u64>)> {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let xy = |p: &Placement| -> Vec<u64> {
            p.positions
                .iter()
                .flat_map(|q| [q.x.to_bits(), q.y.to_bits()])
                .collect()
        };
        let ids = |v: &[m3d_netlist::CellId]| v.iter().map(|c| c.index() as u64).collect();
        let (sta, routing, tree) = (&self.sta, &self.routing, &self.clock_tree);
        vec![
            ("frequency", vec![self.frequency_ghz.to_bits()]),
            (
                "drives",
                self.netlist
                    .cells()
                    .map(|(_, c)| c.class.gate_drive().map_or(u64::MAX, |d| d as u64))
                    .collect(),
            ),
            ("tiers", self.tiers.iter().map(|&t| t as u64).collect()),
            ("placement", xy(&self.placement)),
            (
                "parasitics",
                (0..self.netlist.net_count())
                    .flat_map(|k| {
                        let net = self.parasitics.net(m3d_netlist::NetId::from_index(k));
                        [net.wire_cap_ff.to_bits(), net.wire_delay_ns.to_bits()]
                    })
                    .collect(),
            ),
            (
                "routing",
                vec![
                    routing.total_wirelength_um.to_bits(),
                    routing.prim_wirelength_um.to_bits(),
                    routing.max_congestion.to_bits(),
                    routing.total_mivs as u64,
                    routing.overflow_edges as u64,
                ],
            ),
            (
                "clock tree",
                vec![
                    tree.buffer_count() as u64,
                    tree.wirelength_um.to_bits(),
                    tree.switched_cap_ff.to_bits(),
                ],
            ),
            ("clock latency", f(&tree.sink_latency)),
            ("arrival", f(&sta.arrival)),
            ("slew", f(&sta.slew)),
            ("required", f(&sta.required)),
            ("endpoint slack", f(&sta.endpoint_slack)),
            ("wns, tns", vec![sta.wns.to_bits(), sta.tns.to_bits()]),
            (
                "worst input",
                sta.worst_input.iter().map(|&p| u64::from(p)).collect(),
            ),
            (
                "power",
                f(&[
                    self.power.switching_mw,
                    self.power.internal_mw,
                    self.power.leakage_mw,
                    self.power.clock_mw,
                ]),
            ),
            (
                "eco",
                self.eco.as_ref().map_or(Vec::new(), |e| {
                    vec![
                        e.iterations as u64,
                        e.cells_moved as u64,
                        e.rounds_undone as u64,
                        e.initial_wns.to_bits(),
                        e.final_wns.to_bits(),
                        e.final_tns.to_bits(),
                        e.stop_reason as u64,
                    ]
                }),
            ),
            (
                "timing assignment",
                self.timing_assignment
                    .as_ref()
                    .map_or(Vec::new(), |t| ids(&t.locked_cells)),
            ),
        ]
    }
}

/// Runs the complete flow for one configuration at a target frequency,
/// reporting failures as typed [`FlowError`]s.
///
/// 2-D configurations go through floorplan → place → route → CTS → STA →
/// sizing (and a re-implementation pass when sizing grew the design).
/// 3-D configurations add the pseudo-3-D stage, (optionally timing-based)
/// partitioning, tier legalization, 3-D CTS and (optionally) the
/// repartitioning ECO.
///
/// This is a thin adapter over [`FlowSession`]: callers running more
/// than one command against the same netlist should build a session once
/// and query it, so the expensive prefix work is shared.
///
/// # Errors
///
/// Returns [`FlowError::InvalidFrequency`] / [`FlowError::InvalidNetlist`]
/// for bad inputs and propagates any stage failure.
pub fn try_run_flow(
    netlist: &Netlist,
    config: Config,
    frequency_ghz: f64,
    options: &FlowOptions,
) -> Result<Implementation, FlowError> {
    period_ns(frequency_ghz)?;
    FlowSession::builder(netlist)
        .options(options.clone())
        .build()?
        .run(config, frequency_ghz)
}

/// Fixed ladder of period multipliers evaluated around the Newton
/// estimate during the fmax sweep, slowest first (rung `i` is
/// `fmax/rung{i}` in the manifest). Constant (never derived from the
/// worker count), and the rungs are walked one at a time fastest first,
/// so which rungs run — and with them the sweep's result and manifest —
/// is identical at any thread count.
const FMAX_LADDER: [f64; 5] = [1.18, 1.08, 1.0, 0.92, 0.85];

impl FlowSession {
    /// Sweeps `config` to its maximum met frequency, starting the probe
    /// at `start_ghz`, as [`try_find_fmax`] describes. Every candidate is
    /// a walk of the session: where partitioning does not read the period
    /// the probe's pre-sizing prefix (or the one an earlier command left)
    /// is forked by every rung walked and the relaxed retry — each still
    /// sizes, signs off and (Hetero-3D) repartitions on a timer of its
    /// own. Returns `(fmax_ghz, implementation_at_fmax)`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidFrequency`] for a non-finite starting
    /// point (too-low or negative starts are merely clamped) and
    /// propagates the first failure of the probe or of any rung it walks.
    pub fn fmax(&self, config: Config, start_ghz: f64) -> Result<(f64, Implementation), FlowError> {
        if !start_ghz.is_finite() {
            return Err(FlowError::InvalidFrequency {
                frequency_ghz: start_ghz,
            });
        }
        let _span = self.options().obs.span("find_fmax");
        fmax_ladder(self.options(), start_ghz, |period_ns, options| {
            self.run_with(config, 1.0 / period_ns, options)
        })
    }
}

/// The candidate an fmax sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Probe,
    Rung(usize),
}

/// The fmax rule over the probe's `(period, met)` and the rungs'
/// periods, asking `met(i)` of rung `i` only when the walk reaches it.
/// The walk takes the rungs in ascending period (ties by index) and
/// stops at the first one that met — or, the probe having met, before
/// the first rung strictly slower than the probe. That picks what
/// scanning every candidate for the highest met frequency picks (rungs
/// in index order, then the probe; the first wins a tie): every rung
/// the walk skips is no faster than the one it stopped at, and would
/// lose the tie (an implementation's frequency is the reciprocal of its
/// period). `None` when nothing met, after asking every rung.
///
/// # Errors
///
/// The first error `met` returns; no later rung is asked.
fn choose<E>(
    probe: (f64, bool),
    periods: &[f64],
    mut met: impl FnMut(usize) -> Result<bool, E>,
) -> Result<Option<Choice>, E> {
    let (probe_period, probe_met) = probe;
    let mut order: Vec<usize> = (0..periods.len()).collect();
    // Stable, so equal periods keep index order.
    order.sort_by(|&a, &b| periods[a].total_cmp(&periods[b]));
    for i in order {
        if probe_met && periods[i] > probe_period {
            break;
        }
        if met(i)? {
            return Ok(Some(Choice::Rung(i)));
        }
    }
    Ok(probe_met.then_some(Choice::Probe))
}

/// The fmax search itself, over any way of implementing one period:
/// `run(period_ns, options)` under the rung's scoped options. The probe
/// and the rungs [`choose`] walks run one after another, each rung's
/// kernels using the process-wide worker count.
fn fmax_ladder(
    options: &FlowOptions,
    start_ghz: f64,
    run: impl Fn(f64, &FlowOptions) -> Result<Implementation, FlowError>,
) -> Result<(f64, Implementation), FlowError> {
    let met = |imp: &Implementation| imp.sta.timing_met(options.wns_tolerance);
    let start_period = 1.0 / start_ghz.max(0.05);
    // Each candidate gets its own key prefix, so manifests never mix
    // entries from different rungs.
    let probe = run(start_period, &options.fork_for("fmax/probe"))?;
    let estimate = (start_period - probe.sta.wns * 0.85).max(0.02);
    let periods: Vec<f64> = FMAX_LADDER
        .iter()
        .map(|m| (estimate * m).max(0.02))
        .collect();

    // The walk stops at the first rung that met, so the chosen rung is
    // the last one walked; rung 0's WNS seeds the never-met retry.
    let (mut last, mut slowest_wns) = (None, None);
    let choice = choose((start_period, met(&probe)), &periods, |i| {
        let imp = run(periods[i], &options.fork_for(&format!("fmax/rung{i}")))?;
        if i == 0 {
            slowest_wns = Some(imp.sta.wns);
        }
        let rung_met = met(&imp);
        last = Some(imp);
        Ok::<_, FlowError>(rung_met)
    })?;
    match choice {
        Some(Choice::Probe) => Ok((probe.frequency_ghz, probe)),
        Some(Choice::Rung(_)) => {
            let imp = last.expect("the chosen rung was walked last");
            Ok((imp.frequency_ghz, imp))
        }
        None => {
            // Never met: take one more Newton step from the most relaxed
            // rung and report that attempt (mirrors the paper's "report
            // the most relaxed implementation" behaviour).
            let wns = slowest_wns.expect("a ladder that met nothing walked every rung");
            let relaxed = (periods[0] - wns * 0.85).max(0.02);
            let imp = run(relaxed, &options.fork_for("fmax/relaxed"))?;
            Ok((1.0 / relaxed, imp))
        }
    }
}

/// Sweeps the clock target to find the maximum achievable frequency of a
/// configuration — the paper's criterion: WNS no worse than ~`tolerance ×
/// period` (5–7 %).
///
/// Structure: the base and the pseudo-3-D checkpoint (3-D
/// configurations) are prepared once; one probe run at `start_ghz`
/// builds the configuration's pre-sizing prefix and yields a Newton
/// period estimate (`period - 0.85 × WNS`); a fixed ladder of candidate
/// periods around that estimate is then walked **sequentially**, fastest
/// rung first (ties by rung index), every rung forking from the same
/// snapshots, its kernels using the process-wide worker count.
/// The walk stops at the first rung that meets timing or — the probe
/// having met — before the first rung strictly slower than the probe;
/// a ladder that meets nothing walks every rung and then retries once
/// from the most relaxed one. The result is the highest-frequency
/// candidate that met timing (rungs before the probe, lower rung index
/// on ties), as if every rung had been implemented, and which rungs run
/// depends only on their results, never on the thread count. A thin
/// adapter over [`FlowSession::fmax`].
///
/// Returns `(fmax_ghz, implementation_at_fmax)`.
///
/// # Errors
///
/// Propagates the first [`FlowError`] of the probe or of any rung the
/// walk reaches.
pub fn try_find_fmax(
    netlist: &Netlist,
    config: Config,
    options: &FlowOptions,
    start_ghz: f64,
) -> Result<(f64, Implementation), FlowError> {
    FlowSession::builder(netlist)
        .options(options.clone())
        .build()?
        .fmax(config, start_ghz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{prepare_base, pseudo_checkpoint, run_from_base};
    use m3d_netgen::Benchmark;

    fn quick_options() -> FlowOptions {
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 8;
        o
    }

    fn run(n: &Netlist, c: Config, f: f64, o: &FlowOptions) -> Implementation {
        try_run_flow(n, c, f, o).expect("flow")
    }

    #[test]
    fn two_d_flow_produces_complete_implementation() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let imp = run(&n, Config::TwoD12T, 1.0, &quick_options());
        assert!(imp.sta.endpoint_slack.iter().any(|s| !s.is_nan()));
        assert!(imp.power.total_mw() > 0.0);
        assert!(imp.routing.total_wirelength_um > 0.0);
        assert_eq!(imp.routing.total_mivs, 0);
        assert!(imp.clock_tree.buffer_count() > 0);
        assert!(imp.floorplan.die.area() > 0.0);
    }

    #[test]
    fn hetero_flow_uses_both_tiers_and_mivs() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let imp = run(&n, Config::Hetero3d, 1.0, &quick_options());
        let top = imp.tiers.iter().filter(|t| **t == Tier::Top).count();
        let bottom = imp.tiers.iter().filter(|t| **t == Tier::Bottom).count();
        assert!(top > 0 && bottom > 0, "top {top} bottom {bottom}");
        assert!(imp.routing.total_mivs > 0);
        assert!(imp.timing_assignment.is_some());
        assert!(imp.eco.is_some());
    }

    #[test]
    fn hetero_footprint_smaller_than_2d() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let d2 = run(&n, Config::TwoD12T, 1.0, &quick_options());
        let h3 = run(&n, Config::Hetero3d, 1.0, &quick_options());
        assert!(
            h3.floorplan.die.area() < 0.75 * d2.floorplan.die.area(),
            "hetero {} vs 2d {}",
            h3.floorplan.die.area(),
            d2.floorplan.die.area()
        );
    }

    #[test]
    fn twelve_track_meets_tighter_timing_than_nine() {
        let n = Benchmark::Aes.generate(0.02, 31);
        let f = 1.2;
        let fast = run(&n, Config::TwoD12T, f, &quick_options());
        let slow = run(&n, Config::TwoD9T, f, &quick_options());
        assert!(
            fast.sta.wns > slow.sta.wns,
            "12T wns {} vs 9T wns {}",
            fast.sta.wns,
            slow.sta.wns
        );
    }

    #[test]
    fn find_fmax_returns_met_implementation() {
        let n = Benchmark::Aes.generate(0.015, 31);
        let (f, imp) = try_find_fmax(&n, Config::TwoD12T, &quick_options(), 1.0).expect("fmax");
        assert!(f > 0.0);
        assert!(
            imp.sta.timing_met(FlowOptions::default().wns_tolerance) || imp.sta.wns > -0.2,
            "fmax implementation should be near-met (wns {})",
            imp.sta.wns
        );
    }

    #[test]
    fn try_run_flow_rejects_nonpositive_frequency() {
        let n = Benchmark::Aes.generate(0.02, 31);
        for bad in [0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = try_run_flow(&n, Config::TwoD12T, bad, &quick_options()).unwrap_err();
            assert!(
                matches!(err, FlowError::InvalidFrequency { .. }),
                "{bad} should be rejected as a frequency"
            );
        }
    }

    #[test]
    fn shared_checkpoints_reproduce_the_standalone_run() {
        // A run forked from an externally computed base + pseudo
        // checkpoint must be bit-identical to the self-contained one.
        let n = Benchmark::Aes.generate(0.02, 31);
        let options = quick_options();
        let solo = run(&n, Config::Hetero3d, 1.0, &options);
        let base = prepare_base(&n, &options).expect("valid netlist");
        let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo stage");
        let forked = run_from_base(&base, Some(&pseudo), Config::Hetero3d, 1.0, &options)
            .expect("forked run");
        assert_eq!(solo.tiers, forked.tiers);
        assert_eq!(solo.sta.wns.to_bits(), forked.sta.wns.to_bits());
        assert_eq!(solo.sta.tns.to_bits(), forked.sta.tns.to_bits());
        assert_eq!(
            solo.power.total_mw().to_bits(),
            forked.power.total_mw().to_bits()
        );
        assert_eq!(solo.placement.positions, forked.placement.positions);
    }

    /// The eager fmax search the lazy walk is held to: every rung
    /// implemented (concurrently), then the highest met frequency picked
    /// by scanning the rungs in index order and the probe last.
    fn eager_fmax_ladder(
        options: &FlowOptions,
        start_ghz: f64,
        run: impl Fn(f64, &FlowOptions) -> Result<Implementation, FlowError> + Sync,
    ) -> Result<(f64, Implementation), FlowError> {
        let start_period = 1.0 / start_ghz.max(0.05);
        let probe = run(start_period, &options.fork_for("fmax/probe"))?;
        let estimate = (start_period - probe.sta.wns * 0.85).max(0.02);
        let periods: Vec<f64> = FMAX_LADDER
            .iter()
            .map(|m| (estimate * m).max(0.02))
            .collect();
        let rung_options: Vec<FlowOptions> = (0..periods.len())
            .map(|i| options.fork_for(&format!("fmax/rung{i}")))
            .collect();
        let run = &run;
        let rung_results = m3d_par::par_invoke(
            options.threads,
            periods
                .iter()
                .zip(&rung_options)
                .map(|(&p, o)| move || run(p, o))
                .collect(),
        );
        let rungs = rung_results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut best: Option<&Implementation> = None;
        for imp in rungs.iter().chain(std::iter::once(&probe)) {
            if imp.sta.timing_met(options.wns_tolerance)
                && best.is_none_or(|b| imp.frequency_ghz > b.frequency_ghz)
            {
                best = Some(imp);
            }
        }
        match best {
            Some(imp) => Ok((imp.frequency_ghz, imp.clone())),
            None => {
                let relaxed = (periods[0] - rungs[0].sta.wns * 0.85).max(0.02);
                let imp = run(relaxed, &options.fork_for("fmax/relaxed"))?;
                Ok((1.0 / relaxed, imp))
            }
        }
    }

    /// [`eager_fmax_ladder`]'s selection over `(period, met)` pairs.
    fn eager_choice(probe: (f64, bool), rungs: &[(f64, bool)]) -> Option<Choice> {
        let mut best: Option<(Choice, f64)> = None;
        let candidates = rungs
            .iter()
            .enumerate()
            .map(|(i, &r)| (Choice::Rung(i), r))
            .chain(std::iter::once((Choice::Probe, probe)));
        for (choice, (period, met)) in candidates {
            let ghz = 1.0 / period;
            if met && best.is_none_or(|(_, b)| ghz > b) {
                best = Some((choice, ghz));
            }
        }
        best.map(|(choice, _)| choice)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        // Periods built as the ladder builds them: a probe period, a WNS
        // (estimates under 0.02 / 0.85 clamp several rungs to equal
        // periods), optionally the probe moved onto a rung's period, and
        // met bits in any pattern, monotone in frequency or not.
        // `probe_on_rung` past the ladder leaves the probe where it was.
        #[test]
        fn lazy_walk_chooses_what_the_eager_scan_chooses(
            start_period in 0.005..2.0f64,
            wns in -1.5..1.5f64,
            met_bits in 0u8..64,
            probe_on_rung in 0usize..8,
        ) {
            let estimate = (start_period - wns * 0.85).max(0.02);
            let periods: Vec<f64> = FMAX_LADDER
                .iter()
                .map(|m| (estimate * m).max(0.02))
                .collect();
            let probe_period = periods.get(probe_on_rung).copied().unwrap_or(start_period);
            let met = |i: usize| met_bits & (1 << i) != 0;
            let probe = (probe_period, met_bits & (1 << 5) != 0);
            let rungs: Vec<(f64, bool)> = (0..5).map(|i| (periods[i], met(i))).collect();

            let mut walked = Vec::new();
            let lazy = choose(probe, &periods, |i| {
                walked.push(i);
                Ok::<_, ()>(met(i))
            })
            .expect("infallible");
            let eager = eager_choice(probe, &rungs);
            proptest::prop_assert_eq!(lazy, eager);
            // Fastest first, each rung at most once; a ladder that met
            // nothing walks every rung.
            proptest::prop_assert!(walked.windows(2).all(|w| {
                (periods[w[0]], w[0]) < (periods[w[1]], w[1])
            }));
            if eager.is_none() {
                proptest::prop_assert_eq!(walked.len(), 5);
            }
            // A chosen rung is the last one walked.
            if let Some(Choice::Rung(i)) = lazy {
                proptest::prop_assert_eq!(walked.last(), Some(&i));
            }
        }
    }

    #[test]
    fn a_failing_rung_stops_the_walk() {
        let periods = [1.18, 1.08, 1.0, 0.92, 0.85];
        let mut walked = Vec::new();
        let err = choose((1.0, false), &periods, |i| {
            walked.push(i);
            if i == 3 {
                Err(i)
            } else {
                Ok(false)
            }
        });
        assert_eq!(err, Err(3));
        assert_eq!(walked, [4, 3]);
    }

    #[test]
    fn fmax_off_the_probes_prefix_is_the_cold_ladder() {
        // A session's lazy ladder, whose rungs fork the probe's prefix,
        // against the eager ladder with every candidate implemented from
        // the checkpoints on a prefix of its own, on the four paper
        // netlists; some searches must end in the never-met `relaxed`
        // retry, and some must stop before the slowest rung.
        let (mut relaxed, mut stopped_early) = (0, 0);
        for bench in Benchmark::ALL {
            let n = bench.generate(0.05, 7);
            for (config, start_ghz) in [
                (Config::TwoD12T, 1.0),
                (Config::TwoD9T, 3.0),
                (Config::ThreeD9T, 3.0),
            ] {
                let mut options = quick_options();
                options.obs = m3d_obs::Obs::enabled();
                let session = FlowSession::builder(&n)
                    .options(options.clone())
                    .build()
                    .expect("session");
                let (fmax, imp) = session.fmax(config, start_ghz).expect("fmax");
                let manifest = options.obs.manifest();
                assert_eq!(manifest.perf("fmax/probe/flow/prefix_runs"), Some(1));
                let walked = (0..FMAX_LADDER.len())
                    .filter(|i| {
                        let span = manifest.span(&format!("fmax/rung{i}/run_flow"));
                        span.map(|s| s.calls) == Some(1)
                    })
                    .count() as u64;
                let went_relaxed = manifest.span("fmax/relaxed/run_flow").is_some();
                relaxed += usize::from(went_relaxed);
                stopped_early += usize::from(walked < 5);
                if went_relaxed {
                    assert_eq!(walked, 5, "a never-met ladder walks every rung");
                }
                let forks = walked + u64::from(went_relaxed);
                assert_eq!(
                    manifest.counter_sum("flow/prefix_forks"),
                    forks,
                    "rungs walked, retry"
                );
                assert_eq!(session.take_prefix_counts(), (1, forks));

                let (base, pseudo) = (session.base(), session.pseudo_checkpoint());
                let cold_options = quick_options();
                let (cold_fmax, cold) =
                    eager_fmax_ladder(&cold_options, start_ghz, |period_ns, o| {
                        run_from_base(base, pseudo, config, 1.0 / period_ns, o)
                    })
                    .expect("cold ladder");
                let what = format!("{bench:?} {config} from {start_ghz} GHz");
                assert_eq!(fmax.to_bits(), cold_fmax.to_bits(), "{what}: fmax");
                for ((name, a), (_, b)) in imp.bits().iter().zip(cold.bits()) {
                    assert_eq!(a, &b, "{what}: {name}");
                }
            }
        }
        assert!(relaxed > 0, "no search took the relaxed branch");
        assert!(stopped_early > 0, "no search stopped before the last rung");
    }
}
