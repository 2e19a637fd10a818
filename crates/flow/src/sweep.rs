//! The protocol-v2 design-space sweep: configurations × stacking styles
//! × sign-off corners × a frequency grid, executed as independent
//! single-shot points.
//!
//! A [`SweepSpec`] is the wire description of a grid a client wants
//! explored. Its defining property is that the grid **decomposes**: every
//! point is exactly equivalent to one v1 `run_flow` request whose options
//! carry the point's technology scenario. The flow service exploits that
//! to fan a sweep out across its worker pool as individually schedulable
//! jobs — each point hitting the shared checkpoint cache under its
//! scenario's cache key — and [`sweep_from_base`] is the in-process
//! mirror used by [`crate::FlowSession::execute`], bit-identical to
//! running the decomposed points one by one.
//!
//! This module owns the grid: [`SweepSpec::validate`] is the one grid
//! validator and `run_grid` the one stacking × corner × frequency
//! fan-out. [`crate::pareto_from_base`] is a client of both — it builds
//! the spec for one configuration, runs the executor with its own
//! per-point projection and folds the frontier.
//!
//! Point order is deterministic and scenario-major: stacking styles in
//! spec order, corners within a style, configurations within a corner,
//! the frequency grid ascending innermost. One pseudo-3-D checkpoint is
//! computed per distinct scenario (never per point), so
//! `flow/pseudo3d_runs` equals the number of scenarios whenever the
//! config axis contains a 3-D configuration.

use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::stage::{pseudo_checkpoint, run_from_base, BaseDesign, PseudoCheckpoint};
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
    /// The distinct technology scenarios the sweep visits, in point
    /// order: stacking styles outer, corners inner.
    #[must_use]
    pub fn scenarios(&self) -> Vec<(StackingStyle, Corner)> {
        let mut out = Vec::with_capacity(self.stacking.len() * self.corners.len());
        for &style in &self.stacking {
            for &corner in &self.corners {
                out.push((style, corner));
            }
        }
        out
    }

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
/// Each scenario forks the caller's options under a `<scope>/<scenario>`
/// telemetry scope with its own [`TechContext`] (single-corner sign-off
/// — the scenario *is* the corner). The per-scenario pseudo-3-D
/// checkpoints are computed concurrently, one per scenario and only when
/// the config axis contains a 3-D configuration: checkpoints belong to
/// the scenario options that minted them (the store's cache-pairing
/// discipline), so a grid computes one per distinct scenario, never one
/// per point. Then all points fan out through [`m3d_par::par_invoke`],
/// each projected and dropped inside its job; input-order results make
/// the point list bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] with the validator's verdict for a
/// malformed grid and propagates the first failure of any checkpoint or
/// point run.
pub(crate) fn run_grid<T: Send>(
    base: &BaseDesign,
    spec: &SweepSpec,
    options: &FlowOptions,
    scope: &str,
    project: impl Fn(&SweepPoint, &Implementation) -> T + Sync,
) -> Result<Vec<T>, FlowError> {
    spec.validate().map_err(FlowError::InvalidSweep)?;
    let obs = &options.obs;
    let _span = obs.span(scope);
    let scenario_options: Vec<FlowOptions> = spec
        .scenarios()
        .iter()
        .map(|&(style, corner)| {
            let mut o = options.fork_for(&format!("{scope}/{style}-{corner}"));
            o.tech = TechContext {
                stacking: style,
                corners: CornerSet::single(corner),
            };
            o
        })
        .collect();

    let needs_pseudo = spec.configs.iter().any(|c| c.is_3d());
    let pseudos: Vec<Option<PseudoCheckpoint>> = if needs_pseudo {
        m3d_par::par_invoke(
            options.threads,
            scenario_options
                .iter()
                .map(|o| move || pseudo_checkpoint(base, o).map(Some))
                .collect(),
        )
        .into_iter()
        .collect::<Result<_, _>>()?
    } else {
        vec![None; scenario_options.len()]
    };

    // Points are scenario-major, so a point's scenario is its index
    // divided by the points per scenario.
    let points = spec.points();
    let per_scenario = spec.configs.len() * spec.freq_steps;
    let project = &project;
    let jobs = points
        .iter()
        .map(|point| {
            let scenario = point.index / per_scenario;
            let scenario_options = &scenario_options[scenario];
            let pseudo = pseudos[scenario].as_ref().filter(|_| point.config.is_3d());
            move || {
                run_from_base(
                    base,
                    pseudo,
                    point.config,
                    point.frequency_ghz,
                    scenario_options,
                )
                .map(|imp| project(point, &imp))
            }
        })
        .collect();
    let projected = m3d_par::par_invoke(options.threads, jobs)
        .into_iter()
        .collect::<Result<Vec<T>, _>>()?;
    obs.counter_add(&format!("{scope}/points"), projected.len() as u64);
    Ok(projected)
}

/// Executes a whole sweep off an already-prepared base and returns one
/// PPAC roll-up per grid point, in point order — bit-identical to
/// executing the decomposed v1 single-shot requests one by one.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] for a malformed grid and
/// propagates the first failure of any checkpoint or point run.
pub fn sweep_from_base(
    base: &BaseDesign,
    spec: &SweepSpec,
    options: &FlowOptions,
    cost: &CostModel,
) -> Result<Vec<PpacSummary>, FlowError> {
    run_grid(base, spec, options, "sweep", |_, imp| {
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
        assert_eq!(
            s.scenarios(),
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
}
