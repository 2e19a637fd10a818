//! The protocol-v2 design-space sweep: configurations × stacking styles
//! × sign-off corners × a frequency grid.
//!
//! A [`SweepSpec`] is the wire description of a grid a client wants
//! explored. Its defining property is that the grid **decomposes**: every
//! point is exactly equivalent to one v1 `run_flow` request whose options
//! carry the point's technology scenario. The flow service exploits that
//! to fan a sweep out across its worker pool as individually schedulable
//! jobs — every point hitting the shared checkpoint cache under one
//! key, no scenario axis being read in front of the session's
//! checkpoints — and [`sweep_from_base`] is the in-process
//! mirror used by [`crate::FlowSession::execute`], bit-identical to
//! running the decomposed points one by one without redoing what they
//! have in common.
//!
//! This module owns the grid: [`SweepSpec::validate`] is the one grid
//! validator and `run_grid` the one stacking × corner × frequency
//! fan-out. [`crate::pareto::pareto_from_base`] is a client of both — it
//! builds the spec for one configuration, runs the executor with its own
//! per-point projection and folds the frontier.
//!
//! Point order is deterministic and scenario-major: stacking styles in
//! spec order, corners within a style, configurations within a corner,
//! the frequency grid ascending innermost. The executor implements each
//! axis-invariant prefix once: one pseudo-3-D checkpoint for the whole
//! grid (`flow/pseudo3d_runs` is 1 whenever the config axis contains a
//! 3-D configuration — the session's own, through a session), one
//! pre-sizing prefix per `(config, stacking)` where partitioning does
//! not read the period, and one implementation walk per `(config,
//! stacking, frequency)` whose sign-off fans out over the corner axis.

use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::stage::{run_lanes, shared_prefix, BaseDesign, Prefix, PseudoCheckpoint};
use crate::wire::PpacSummary;
use m3d_cost::CostModel;
use m3d_json::DecodeError;
use m3d_tech::{Corner, CornerSet, StackingStyle, TechContext};

/// Largest accepted frequency-grid size, for sweeps and Pareto requests
/// alike: a grid fans out `scenarios × steps` full implementations per
/// configuration.
pub const MAX_PARETO_STEPS: usize = 64;

/// Largest accepted sweep size in grid points. A sweep fans out one full
/// implementation per point; the cap keeps a single request from
/// occupying the cluster indefinitely.
pub const MAX_SWEEP_POINTS: usize = 1_024;

/// A design-space grid: the cross product of every axis, swept at a
/// shared frequency grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Configurations to implement at every scenario point.
    pub configs: Vec<Config>,
    /// Stacking styles (the outer scenario axis).
    pub stacking: Vec<StackingStyle>,
    /// Sign-off corners (the inner scenario axis).
    pub corners: Vec<Corner>,
    /// Lower frequency bound, GHz.
    pub freq_min_ghz: f64,
    /// Upper frequency bound, GHz.
    pub freq_max_ghz: f64,
    /// Frequency-grid size (1..=[`MAX_PARETO_STEPS`], endpoints
    /// inclusive).
    pub freq_steps: usize,
}

/// One grid point of a sweep, in the spec's deterministic order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Position in the sweep's point order (the streamed point index).
    pub index: usize,
    /// Configuration to implement.
    pub config: Config,
    /// Stacking style of the point's scenario.
    pub stacking: StackingStyle,
    /// Sign-off corner of the point's scenario.
    pub corner: Corner,
    /// Target clock frequency, GHz.
    pub frequency_ghz: f64,
}

impl SweepPoint {
    /// The point's technology scenario — what its options' `tech` field
    /// carries after decomposition.
    #[must_use]
    pub fn tech(&self) -> TechContext {
        TechContext {
            stacking: self.stacking,
            corners: CornerSet::single(self.corner),
        }
    }
}

/// The evenly spaced frequency grid, ascending. `steps == 1` collapses
/// to the lower bound.
fn frequency_grid(freq_min_ghz: f64, freq_max_ghz: f64, steps: usize) -> Vec<f64> {
    if steps == 1 {
        return vec![freq_min_ghz];
    }
    (0..steps)
        .map(|i| freq_min_ghz + (freq_max_ghz - freq_min_ghz) * i as f64 / (steps - 1) as f64)
        .collect()
}

fn has_duplicates<T: PartialEq>(items: &[T]) -> bool {
    items
        .iter()
        .enumerate()
        .any(|(i, a)| items[..i].contains(a))
}

impl SweepSpec {
    /// The shared frequency grid, ascending.
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        frequency_grid(self.freq_min_ghz, self.freq_max_ghz, self.freq_steps)
    }

    /// Total number of grid points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.stacking.len() * self.corners.len() * self.configs.len() * self.freq_steps
    }

    /// Every grid point, indexed, in deterministic scenario-major order.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        let freqs = self.frequencies();
        let mut out = Vec::with_capacity(self.point_count());
        for &stacking in &self.stacking {
            for &corner in &self.corners {
                for &config in &self.configs {
                    for &frequency_ghz in &freqs {
                        out.push(SweepPoint {
                            index: out.len(),
                            config,
                            stacking,
                            corner,
                            frequency_ghz,
                        });
                    }
                }
            }
        }
        out
    }

    /// Checks the grid against the bounds the wire decoder and the
    /// service enforce at admission: non-empty duplicate-free axes, a
    /// well-formed frequency grid, and a total point count within
    /// [`MAX_SWEEP_POINTS`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the out-of-range member with a
    /// request-relative path (e.g. `command/configs`).
    pub fn validate(&self) -> Result<(), DecodeError> {
        for (path, empty, dup) in [
            (
                "command/configs",
                self.configs.is_empty(),
                has_duplicates(&self.configs),
            ),
            (
                "command/stacking",
                self.stacking.is_empty(),
                has_duplicates(&self.stacking),
            ),
            (
                "command/corners",
                self.corners.is_empty(),
                has_duplicates(&self.corners),
            ),
        ] {
            if empty || dup {
                return Err(DecodeError::new(
                    path,
                    "a non-empty list without duplicates",
                ));
            }
        }
        let bounds_ok = self.freq_min_ghz.is_finite()
            && self.freq_max_ghz.is_finite()
            && self.freq_min_ghz > 0.0
            && self.freq_max_ghz >= self.freq_min_ghz;
        if !bounds_ok {
            return Err(DecodeError::new(
                "command/freq_min_ghz",
                "positive finite bounds with freq_max_ghz >= freq_min_ghz",
            ));
        }
        if !(1..=MAX_PARETO_STEPS).contains(&self.freq_steps) {
            return Err(DecodeError::new(
                "command/freq_steps",
                format!("an integer in 1..={MAX_PARETO_STEPS}"),
            ));
        }
        if self.point_count() > MAX_SWEEP_POINTS {
            return Err(DecodeError::new(
                "command",
                format!("a sweep of at most {MAX_SWEEP_POINTS} points"),
            ));
        }
        Ok(())
    }
}

/// The one grid executor: implements every point of `spec` off an
/// already-prepared base and returns `project(point, implementation)` per
/// grid point, in point order.
///
/// `pseudo` supplies the grid's one pseudo-3-D checkpoint (nothing in it
/// reads the scenario) and is asked only when the config axis contains a
/// 3-D configuration. Each stacking style forks the caller's options
/// under a `<scope>/<style>` telemetry scope; each `(config, style)`
/// builds its pre-sizing prefix once where that is period-invariant
/// ([`shared_prefix`]); each `(config, style, frequency)` is then one
/// walk forked off it, signed off at every corner of the spec — a point
/// is its walk's lane for the point's corner, which retires in the ECO
/// round its own single-corner run would have stopped in. Prefixes and
/// walks fan out through [`m3d_par::par_invoke`], each point projected
/// and dropped inside its job; input-order results make the point list
/// bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] with the validator's verdict for a
/// malformed grid and propagates the first failure of the checkpoint, a
/// prefix or a walk.
pub(crate) fn run_grid<T: Send>(
    base: &BaseDesign,
    pseudo: impl FnOnce() -> Result<PseudoCheckpoint, FlowError>,
    spec: &SweepSpec,
    options: &FlowOptions,
    scope: &str,
    project: impl Fn(&SweepPoint, &Implementation) -> T + Sync,
) -> Result<Vec<T>, FlowError> {
    spec.validate().map_err(FlowError::InvalidSweep)?;
    let obs = &options.obs;
    let _span = obs.span(scope);
    let pseudo = if spec.configs.iter().any(|c| c.is_3d()) {
        Some(pseudo()?)
    } else {
        None
    };
    let pseudo = pseudo.as_ref();
    let style_options: Vec<FlowOptions> = spec
        .stacking
        .iter()
        .map(|&stacking| {
            let mut o = options.fork_for(&format!("{scope}/{stacking}"));
            o.tech = TechContext {
                stacking,
                corners: CornerSet::default(),
            };
            o
        })
        .collect();
    // A line is one (style, config), by index into the spec's axes.
    let n_configs = spec.configs.len();
    let lines: Vec<(usize, usize)> = (0..spec.stacking.len())
        .flat_map(|s| (0..n_configs).map(move |k| (s, k)))
        .collect();
    let style_options = &style_options;
    let prefixes: Vec<Option<Prefix>> = m3d_par::par_invoke(
        options.threads,
        lines
            .iter()
            .map(|&(s, k)| move || shared_prefix(base, pseudo, spec.configs[k], &style_options[s]))
            .collect(),
    )
    .into_iter()
    .collect::<Result<_, _>>()?;

    let corner_sets: Vec<CornerSet> = spec
        .corners
        .iter()
        .map(|&corner| CornerSet::single(corner))
        .collect();
    let points = spec.points();
    let walk = |(s, k): (usize, usize), step: usize, ghz: f64, prefix: Option<&Prefix>| {
        let lanes = run_lanes(
            base,
            pseudo,
            spec.configs[k],
            prefix,
            ghz,
            &corner_sets,
            &style_options[s],
        )?;
        Ok(lanes
            .iter()
            .enumerate()
            .map(|(c, imp)| {
                // The lane's point, in the spec's scenario-major order.
                let point = &points
                    [((s * spec.corners.len() + c) * n_configs + k) * spec.freq_steps + step];
                (point.index, project(point, imp))
            })
            .collect::<Vec<(usize, T)>>())
    };
    let walk = &walk;
    let frequencies = spec.frequencies();
    let jobs = lines
        .iter()
        .zip(&prefixes)
        .flat_map(|(&line, prefix)| {
            frequencies
                .iter()
                .enumerate()
                .map(move |(step, &ghz)| move || walk(line, step, ghz, prefix.as_ref()))
        })
        .collect();
    let walked: Vec<Result<_, FlowError>> = m3d_par::par_invoke(options.threads, jobs);
    let mut projected: Vec<Option<T>> = points.iter().map(|_| None).collect();
    for lanes in walked {
        for (index, value) in lanes? {
            projected[index] = Some(value);
        }
    }
    obs.counter_add(&format!("{scope}/points"), projected.len() as u64);
    Ok(projected
        .into_iter()
        .map(|p| p.expect("every grid point is one lane of one walk"))
        .collect())
}

/// Executes a whole sweep off an already-prepared base and returns one
/// PPAC roll-up per grid point, in point order — bit-identical to
/// executing the decomposed v1 single-shot requests one by one. `pseudo`
/// as for `run_grid`.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] for a malformed grid and
/// propagates the first failure of any checkpoint or point run.
pub(crate) fn sweep_from_base(
    base: &BaseDesign,
    pseudo: impl FnOnce() -> Result<PseudoCheckpoint, FlowError>,
    spec: &SweepSpec,
    options: &FlowOptions,
    cost: &CostModel,
) -> Result<Vec<PpacSummary>, FlowError> {
    run_grid(base, pseudo, spec, options, "sweep", |_, imp| {
        PpacSummary::from(&imp.ppac(cost))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            configs: vec![Config::Hetero3d, Config::TwoD12T],
            stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
            corners: vec![Corner::Typical, Corner::Slow],
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.2,
            freq_steps: 3,
        }
    }

    #[test]
    fn points_enumerate_scenario_major_with_ascending_frequencies() {
        let s = spec();
        let points = s.points();
        assert_eq!(points.len(), s.point_count());
        assert_eq!(points.len(), 2 * 2 * 2 * 3);
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        // Scenario-major: the first scenario's points come first.
        let first = &points[..6];
        assert!(first
            .iter()
            .all(|p| p.stacking == StackingStyle::Monolithic && p.corner == Corner::Typical));
        // Frequencies ascend innermost, per config.
        assert_eq!(points[0].config, Config::Hetero3d);
        assert_eq!(points[0].frequency_ghz, 0.8);
        assert_eq!(points[2].frequency_ghz, 1.2);
        assert_eq!(points[3].config, Config::TwoD12T);
        // Scenario order is stacking-outer, corners inner.
        let mut scenarios: Vec<_> = points.iter().map(|p| (p.stacking, p.corner)).collect();
        scenarios.dedup();
        assert_eq!(
            scenarios,
            vec![
                (StackingStyle::Monolithic, Corner::Typical),
                (StackingStyle::Monolithic, Corner::Slow),
                (StackingStyle::F2fHybridBond, Corner::Typical),
                (StackingStyle::F2fHybridBond, Corner::Slow),
            ]
        );
    }

    #[test]
    fn frequency_grid_is_even_and_inclusive() {
        assert_eq!(frequency_grid(0.8, 1.2, 1), vec![0.8]);
        let g = frequency_grid(0.8, 1.2, 5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], 0.8);
        assert_eq!(g[4], 1.2);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn validation_rejects_malformed_axes_and_grids() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.configs.clear();
        assert_eq!(s.validate().unwrap_err().path, "command/configs");
        let mut s = spec();
        s.stacking.push(StackingStyle::Monolithic);
        assert_eq!(s.validate().unwrap_err().path, "command/stacking");
        let mut s = spec();
        s.corners = vec![Corner::Fast, Corner::Fast];
        assert_eq!(s.validate().unwrap_err().path, "command/corners");
        let mut s = spec();
        s.freq_min_ghz = -1.0;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_min_ghz");
        let mut s = spec();
        s.freq_max_ghz = 0.5;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_min_ghz");
        let mut s = spec();
        s.freq_steps = 0;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_steps");
        let mut s = spec();
        s.freq_steps = MAX_PARETO_STEPS + 1;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_steps");
    }

    #[test]
    fn oversized_sweeps_are_rejected_at_the_command_path() {
        // The full duplicate-free grid — 5 configs × 2 styles × 3
        // corners × 64 steps = 1920 points — exceeds the cap.
        let oversized = SweepSpec {
            configs: Config::ALL.to_vec(),
            stacking: StackingStyle::ALL.to_vec(),
            corners: Corner::ALL.to_vec(),
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.2,
            freq_steps: MAX_PARETO_STEPS,
        };
        assert!(oversized.point_count() > MAX_SWEEP_POINTS);
        let err = oversized.validate().unwrap_err();
        assert_eq!(err.path, "command");
        // Trimming the frequency grid brings it back under the cap.
        let trimmed = SweepSpec {
            freq_steps: 32,
            ..oversized
        };
        assert!(trimmed.validate().is_ok());
    }

    /// The corner axis as a sign-off fan-out of one walk against what it
    /// replaces: the AES Pareto grid (the benchmark's, and a CI-sized
    /// one), point by point, equals its decomposed single-corner runs by
    /// bits — and the larger includes walks whose corners retired in
    /// different ECO rounds, which is where signing every corner off on
    /// the final design would differ.
    #[test]
    fn corner_fanout_equals_the_decomposed_single_shots() {
        use crate::pareto::pareto_spec;
        use crate::stage::{prepare_base, pseudo_checkpoint, run_from_base};
        use m3d_netgen::Benchmark;

        let mut options = FlowOptions::default();
        options.placer_mut().iterations = 12;
        let spec = pareto_spec(Config::Hetero3d, 0.8, 1.0, 3);
        let mut split_walks = 0;
        for scale in [0.25, 0.05] {
            let netlist = Benchmark::Aes.generate(scale, 7);
            let base = prepare_base(&netlist, &options).expect("base");
            let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo");
            let grid = run_grid(
                &base,
                || Ok(pseudo.clone()),
                &spec,
                &options,
                "sweep",
                |_, imp| imp.clone(),
            )
            .expect("grid");
            let points = spec.points();
            assert_eq!(grid.len(), 18);
            for (point, imp) in points.iter().zip(&grid) {
                let what = format!(
                    "scale {scale} {}-{} @ {} GHz",
                    point.stacking, point.corner, point.frequency_ghz
                );
                let mut single_options = options.clone();
                single_options.tech = point.tech();
                let single = run_from_base(
                    &base,
                    Some(&pseudo),
                    point.config,
                    point.frequency_ghz,
                    &single_options,
                )
                .expect("single-shot run");
                assert_eq!(imp.tech, single.tech, "{what}");
                assert!(imp.eco.is_some(), "{what}: the ECO ran");
                for ((name, a), (_, b)) in imp.bits().iter().zip(single.bits()) {
                    assert_eq!(a, &b, "{what}: {name}");
                }
            }
            // Lanes of one walk share every ECO round they were live in:
            // unequal iteration counts mean they retired in different
            // rounds.
            for a in 0..points.len() {
                let rounds = |i: usize| grid[i].eco.as_ref().map(|e| e.iterations);
                let same_walk = |b: usize| {
                    points[a].stacking == points[b].stacking
                        && points[a].frequency_ghz == points[b].frequency_ghz
                };
                split_walks += usize::from((0..a).any(|b| same_walk(b) && rounds(a) != rounds(b)));
            }
        }
        assert!(
            split_walks > 0,
            "no walk's corners retired in different rounds"
        );
    }
}
