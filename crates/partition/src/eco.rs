use m3d_netlist::CellId;
use m3d_tech::Tier;

/// Parameters of the repartitioning ECO — the symbols of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoConfig {
    /// Initial delay-threshold multiplier `d_0`.
    pub d0: f64,
    /// Number of critical paths examined per iteration `n_0`.
    pub n0: usize,
    /// Threshold shrink factor `α < 1` applied after an undone round.
    pub alpha: f64,
    /// Stop when the area unbalance exceeds this (`unbalance_th`).
    pub unbalance_th: f64,
    /// Stop when fewer than this fraction of critical cells sit on the
    /// slow die (`crit_th`).
    pub crit_th: f64,
    /// Minimum WNS improvement to keep a round (`W_th`, ns).
    pub w_th: f64,
    /// Minimum TNS improvement to keep a round (`T_th`, ns).
    pub t_th: f64,
    /// Hard iteration cap (safety net, not part of the paper).
    pub max_iterations: usize,
}

impl Default for EcoConfig {
    fn default() -> Self {
        EcoConfig {
            d0: 1.2,
            n0: 30,
            alpha: 0.8,
            unbalance_th: 0.35,
            crit_th: 0.015,
            w_th: -0.005,
            t_th: -0.5,
            max_iterations: 12,
        }
    }
}

/// Timing view the ECO needs per evaluation: produced by the caller from
/// a full STA + path extraction run under the current tier assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoTimingView {
    /// Worst negative slack, ns.
    pub wns: f64,
    /// Total negative slack, ns.
    pub tns: f64,
    /// The `n_p` most critical paths, each a list of `(cell, stage delay)`.
    pub critical_paths: Vec<Vec<(CellId, f64)>>,
}

/// Outcome summary of a repartitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoOutcome {
    /// Rounds executed (kept + undone).
    pub iterations: usize,
    /// Cells moved to the fast die and kept there.
    pub cells_moved: usize,
    /// Rounds whose moves were rolled back by the WNS/TNS guard.
    pub rounds_undone: usize,
    /// WNS before the first round, ns.
    pub initial_wns: f64,
    /// WNS after the final kept state, ns.
    pub final_wns: f64,
    /// TNS after the final kept state, ns.
    pub final_tns: f64,
    /// Why the loop stopped.
    pub stop_reason: EcoStop,
}

/// Why [`repartition_eco_with`] terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcoStop {
    /// Area unbalance crossed `unbalance_th`.
    Unbalanced,
    /// Too few critical cells remained on the slow die (`crit_th`).
    Converged,
    /// No movable critical cells were found.
    NothingToMove,
    /// The iteration cap was hit.
    IterationCap,
}

/// Algorithm 1: repartitioning using ECO.
///
/// Iteratively finds cells on the `n_p` most critical paths whose stage
/// delay exceeds `d_k ×` the average critical stage delay, moves those on
/// the slow die to the fast die, re-times, and keeps or undoes the round
/// depending on the WNS/TNS deltas. The loop stops when the design's area
/// unbalance exceeds `unbalance_th` (the fast die can only absorb so much),
/// when almost no critical cells remain on the slow die, or at the
/// iteration cap.
///
/// `evaluate` runs timing under the given assignment; `areas` is per-cell
/// area used for the unbalance bookkeeping. Each `evaluate` call also
/// receives the cells whose tier changed since the previous call (empty on
/// the first call), so an edit-list-fed incremental timer can dirty exactly
/// those cells. An undone round's cells are *not* re-evaluated immediately
/// (the algorithm proceeds straight to the next round); instead they are
/// carried over and prepended to the next call's edit list, which keeps a
/// stateful evaluator's view of the tier assignment complete.
pub fn repartition_eco_with(
    tiers: &mut [Tier],
    areas: &[f64],
    fast: Tier,
    config: &EcoConfig,
    mut evaluate: impl FnMut(&[Tier], &[CellId]) -> EcoTimingView,
) -> EcoOutcome {
    // Tier flips applied since the last `evaluate` call (undo carry).
    let mut carry: Vec<CellId> = Vec::new();
    let mut view = evaluate(tiers, &carry);
    let initial_wns = view.wns;
    let mut d_k = config.d0;
    let mut iterations = 0;
    let mut cells_moved = 0;
    let mut rounds_undone = 0;
    let mut stop_reason = EcoStop::IterationCap;

    while iterations < config.max_iterations {
        if crate::unbalance(areas, tiers) > config.unbalance_th {
            stop_reason = EcoStop::Unbalanced;
            break;
        }
        iterations += 1;

        // d_th = d_k * (avg cell delay over the n_p critical paths)
        let mut sum = 0.0;
        let mut count = 0usize;
        for path in view.critical_paths.iter().take(config.n0) {
            for &(_, d) in path {
                sum += d;
                count += 1;
            }
        }
        if count == 0 {
            stop_reason = EcoStop::NothingToMove;
            break;
        }
        let d_th = d_k * sum / count as f64;

        let mut all_crit = 0usize;
        let mut slow_crit = 0usize;
        let mut move_list: Vec<CellId> = Vec::new();
        for path in view.critical_paths.iter().take(config.n0) {
            for &(cell, d_c) in path {
                if d_c > d_th {
                    all_crit += 1;
                    if tiers[cell.index()] != fast {
                        slow_crit += 1;
                        move_list.push(cell);
                    }
                }
            }
        }
        move_list.sort();
        move_list.dedup();

        if all_crit == 0 || (slow_crit as f64 / all_crit as f64) < config.crit_th {
            stop_reason = EcoStop::Converged;
            break;
        }
        if move_list.is_empty() {
            stop_reason = EcoStop::NothingToMove;
            break;
        }

        // Move all cells in the list to the fast die (the "ECO").
        for &c in &move_list {
            tiers[c.index()] = fast;
        }
        carry.extend_from_slice(&move_list);
        let new_view = evaluate(tiers, &carry);
        carry.clear();
        let delta_wns = new_view.wns - view.wns;
        let delta_tns = new_view.tns - view.tns;
        if delta_wns < config.w_th || delta_tns < config.t_th {
            // The round hurt timing: undo and tighten the threshold.
            for &c in &move_list {
                tiers[c.index()] = fast.other();
            }
            // The undos are reported with the *next* evaluate call.
            carry.extend_from_slice(&move_list);
            d_k *= config.alpha;
            rounds_undone += 1;
            // view unchanged (we restored the state).
        } else {
            cells_moved += move_list.len();
            view = new_view;
        }
    }

    EcoOutcome {
        iterations,
        cells_moved,
        rounds_undone,
        initial_wns,
        final_wns: view.wns,
        final_tns: view.tns,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy timing model: 10 cells in a chain; slow-tier cells cost 2.0,
    /// fast-tier cells 1.0. WNS = budget - path delay.
    fn toy_eval(tiers: &[Tier], budget: f64) -> EcoTimingView {
        let delays: Vec<f64> = tiers
            .iter()
            .map(|t| if *t == Tier::Bottom { 1.0 } else { 2.0 })
            .collect();
        let total: f64 = delays.iter().sum();
        let path: Vec<(CellId, f64)> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| (CellId::from_index(i), d))
            .collect();
        EcoTimingView {
            wns: budget - total,
            tns: (budget - total).min(0.0),
            critical_paths: vec![path],
        }
    }

    #[test]
    fn eco_moves_slow_cells_to_fast_die() {
        let mut tiers = vec![Tier::Top; 10];
        let areas = vec![1.0; 10];
        let outcome = repartition_eco_with(
            &mut tiers,
            &areas,
            Tier::Bottom,
            &EcoConfig {
                unbalance_th: 1.1, // effectively unbounded for the toy
                d0: 0.9,
                ..Default::default()
            },
            |t, _| toy_eval(t, 15.0),
        );
        assert!(outcome.cells_moved > 0);
        assert!(outcome.final_wns > outcome.initial_wns);
    }

    #[test]
    fn eco_respects_unbalance_threshold() {
        let mut tiers = vec![Tier::Top; 10];
        let areas = vec![1.0; 10];
        let outcome = repartition_eco_with(
            &mut tiers,
            &areas,
            Tier::Bottom,
            &EcoConfig {
                unbalance_th: 0.0, // any move unbalances -> immediate stop
                ..Default::default()
            },
            |t, _| toy_eval(t, 15.0),
        );
        // The toy starts all-Top, already fully unbalanced.
        assert_eq!(outcome.stop_reason, EcoStop::Unbalanced);
        assert_eq!(outcome.cells_moved, 0);
    }

    #[test]
    fn eco_converges_when_critical_cells_are_fast() {
        let mut tiers = vec![Tier::Bottom; 10];
        let areas = vec![1.0; 10];
        let outcome = repartition_eco_with(
            &mut tiers,
            &areas,
            Tier::Bottom,
            &EcoConfig {
                unbalance_th: 1.1,
                ..Default::default()
            },
            |t, _| toy_eval(t, 15.0),
        );
        assert_eq!(outcome.stop_reason, EcoStop::Converged);
        assert_eq!(outcome.cells_moved, 0);
    }

    #[test]
    fn edit_lists_track_the_tier_assignment_through_undos() {
        // Mirror every reported edit onto a replica by flipping the cell's
        // tier; if the edit lists are complete (including undo carries),
        // the replica matches the real assignment at every evaluate call.
        let mut tiers = vec![Tier::Top; 10];
        let areas = vec![1.0; 10];
        let mut replica = tiers.clone();
        let mut calls = 0usize;
        let outcome = repartition_eco_with(
            &mut tiers,
            &areas,
            Tier::Bottom,
            &EcoConfig {
                unbalance_th: 1.1,
                d0: 0.9,
                max_iterations: 4,
                ..Default::default()
            },
            |t, edits| {
                calls += 1;
                for &c in edits {
                    replica[c.index()] = replica[c.index()].other();
                }
                assert_eq!(replica, t, "replica diverged at call {calls}");
                // Hurt on even rounds so undo carries get exercised.
                let moved = t.iter().filter(|x| **x == Tier::Bottom).count();
                let wns = if calls.is_multiple_of(2) {
                    -50.0
                } else {
                    15.0 - (20.0 - moved as f64)
                };
                EcoTimingView {
                    wns,
                    tns: wns.min(0.0),
                    critical_paths: vec![(0..10).map(|i| (CellId::from_index(i), 2.0)).collect()],
                }
            },
        );
        assert!(outcome.rounds_undone > 0, "undo path must be exercised");
        assert!(calls > 2);
    }

    #[test]
    fn eco_undoes_rounds_that_hurt() {
        // Pathological evaluator: any move makes WNS much worse.
        let mut tiers = vec![Tier::Top; 10];
        let areas = vec![1.0; 10];
        let initial = tiers.clone();
        let mut calls = 0;
        let outcome = repartition_eco_with(
            &mut tiers,
            &areas,
            Tier::Bottom,
            &EcoConfig {
                unbalance_th: 1.1,
                d0: 0.9,
                max_iterations: 3,
                ..Default::default()
            },
            |t, _| {
                calls += 1;
                let moved = t.iter().filter(|x| **x == Tier::Bottom).count();
                EcoTimingView {
                    wns: -1.0 - moved as f64, // strictly worse with moves
                    tns: -1.0 - moved as f64,
                    critical_paths: vec![(0..10).map(|i| (CellId::from_index(i), 2.0)).collect()],
                }
            },
        );
        assert!(outcome.rounds_undone > 0);
        assert_eq!(outcome.cells_moved, 0);
        assert_eq!(tiers, initial, "all moves must be rolled back");
    }
}
