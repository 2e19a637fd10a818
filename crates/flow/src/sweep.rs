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
//! checkpoints — and `run_grid` is the in-process mirror used by
//! [`crate::FlowSession::execute`], bit-identical to running the
//! decomposed points one by one without redoing what they have in
//! common.
//!
//! This module owns the grid: [`SweepSpec::validate`] is the one grid
//! validator and `run_grid` the one stacking × corner × frequency
//! fan-out. [`crate::FlowSession::pareto`] is a client of both — it
//! builds the spec for one configuration, runs the executor with its own
//! per-point projection and folds the frontier.
//!
//! Point order is deterministic and scenario-major: stacking styles in
//! spec order, corners within a style, configurations within a corner,
//! the frequency grid ascending innermost. The executor runs on a
//! session and implements each axis-invariant prefix once: the session's
//! one pseudo-3-D checkpoint (`flow/pseudo3d_runs` is at most 1), one
//! pre-sizing prefix per `(config, stacking)` — out of the session's
//! memo, like every other run's — and one implementation walk per
//! `(config, stacking, frequency)` whose sign-off fans out over the
//! corner axis.

use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::stage::{prefix_key, PrefixKey};
use crate::FlowSession;
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

/// The one grid executor: implements every point of `spec` on `session`
/// and returns `project(point, implementation)` per grid point, in point
/// order.
///
/// A walk is one `(config, style, frequency)`: a [`FlowSession::walk`]
/// on the session's options under the style's scenario and a telemetry
/// scope of its own (`<scope>/<style>/<config>/f<step>`), signed off at
/// every corner of the spec — a point is its walk's lane for the point's
/// corner, which retires in the ECO round its own single-corner run
/// would have stopped in. Walks that share a prefix key (those of one
/// `(config, style)`) fork one prefix: the key's first walk builds it,
/// the others fork it in a second wave, and the grid holds the key's
/// memo slot until it ends, so the walks of other keys cannot push it
/// out in between. Which walk
/// builds is thereby the same at any thread count, and so is the
/// manifest. Each wave fans out through [`m3d_par::par_invoke`], each
/// point projected and dropped inside its job; input-order results make
/// the point list bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] with the validator's verdict for a
/// malformed grid and propagates the first failure of a walk.
pub(crate) fn run_grid<T: Send>(
    session: &FlowSession,
    spec: &SweepSpec,
    scope: &str,
    project: impl Fn(&SweepPoint, &Implementation) -> T + Sync,
) -> Result<Vec<T>, FlowError> {
    spec.validate().map_err(FlowError::InvalidSweep)?;
    let options = session.options();
    let _span = options.obs.span(scope);
    let points = spec.points();
    let corner_sets: Vec<CornerSet> = spec
        .corners
        .iter()
        .map(|&corner| CornerSet::single(corner))
        .collect();
    // A walk per `(style, config, frequency)` — its first corner's point —
    // on options of its own: the style's scenario under the walk's scope.
    let walks: Vec<(&SweepPoint, FlowOptions)> = points
        .iter()
        .filter(|p| p.corner == spec.corners[0])
        .map(|p| {
            let step = p.index % spec.freq_steps;
            let mut o = options.fork_for(&format!("{scope}/{}/{:?}/f{step}", p.stacking, p.config));
            o.tech = TechContext {
                stacking: p.stacking,
                corners: CornerSet::default(),
            };
            (p, o)
        })
        .collect();
    let keys: Vec<PrefixKey> = walks.iter().map(|(p, o)| prefix_key(p.config, o)).collect();
    let first = |i: usize| !keys[..i].contains(&keys[i]);
    let _held: Vec<_> = (0..keys.len())
        .filter(|&i| !first(i))
        .map(|i| session.prefix_slot(keys[i]))
        .collect();

    // Lane `c` of a walk is the point of the spec's `c`-th corner.
    let stride = spec.configs.len() * spec.freq_steps;
    let walk = |i: usize| -> Result<Vec<(usize, T)>, FlowError> {
        let (point, o) = &walks[i];
        let lanes = session.walk(point.config, point.frequency_ghz, &corner_sets, o)?;
        Ok(lanes
            .iter()
            .enumerate()
            .map(|(c, imp)| {
                let point = &points[point.index + c * stride];
                (point.index, project(point, imp))
            })
            .collect())
    };
    let walk = &walk;
    let (builds, forks): (Vec<usize>, Vec<usize>) = (0..walks.len()).partition(|&i| first(i));
    let mut projected: Vec<Option<T>> = points.iter().map(|_| None).collect();
    for wave in [builds, forks] {
        let jobs = wave.into_iter().map(|i| move || walk(i)).collect();
        for lanes in m3d_par::par_invoke(options.threads, jobs) {
            for (index, value) in lanes? {
                projected[index] = Some(value);
            }
        }
    }
    options
        .obs
        .counter_add(&format!("{scope}/points"), projected.len() as u64);
    Ok(projected
        .into_iter()
        .map(|p| p.expect("every grid point is one lane of one walk"))
        .collect())
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
        use crate::stage::run_from_base;
        use m3d_netgen::Benchmark;

        let mut options = FlowOptions::default();
        options.placer_mut().iterations = 12;
        let spec = pareto_spec(Config::Hetero3d, 0.8, 1.0, 3);
        let mut split_walks = 0;
        for scale in [0.25, 0.05] {
            let netlist = Benchmark::Aes.generate(scale, 7);
            let session = FlowSession::builder(&netlist)
                .options(options.clone())
                .build()
                .expect("session");
            let grid = run_grid(&session, &spec, "sweep", |_, imp| imp.clone()).expect("grid");
            let (base, pseudo) = (session.base(), session.pseudo_checkpoint());
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
                    base,
                    pseudo,
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
