//! CI bench-regression gate: compares freshly emitted benchmark
//! manifests against the committed baselines and exits non-zero on any
//! regression.
//!
//! Usage: `bench_gate [--fresh <dir>] [--baseline <dir>] [--only <section>]`
//! (defaults: fresh `fresh/`, baseline `results/`; `--only
//! sta|flow|serve|scale|pareto` gates a single manifest, for split CI
//! jobs). The fresh directory is produced in CI by `flow_obs`,
//! `serve_bench`, `sta_incr --scale tiny`, `scale_bench` and
//! `pareto_bench` with `--out fresh`; the baseline directory is the
//! committed `results/`.
//!
//! The tolerance model has two classes:
//!
//! * **Deterministic metrics** (counters, gauges, labels, span call
//!   counts, arc/eval counts) are compared **exactly** — by the
//!   determinism contract they may not move unless the algorithms
//!   changed, in which case the baseline must be refreshed in the same
//!   change.
//! * **Wall-derived ratios** (speedups, arc reduction) are checked
//!   against absolute floors, never against the baseline's own timing —
//!   CI runners are too noisy for relative wall-clock comparisons.
//!   Raw wall times are ignored entirely.

use m3d_bench::json::{parse, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Absolute floors for the STA bench's wall-derived ratios, per design.
const STA_FLOORS: &[(&str, f64)] = &[
    ("speedup", 1.5),
    ("arc_reduction", 3.0),
    ("ladder_speedup", 1.0),
];

/// Per-design fields of the STA bench that must match the baseline bit
/// for bit.
const STA_EXACT: &[&str] = &["cells", "edits", "cold_equiv_evals", "propagated_evals"];

struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if ok {
            println!("  ok   {what}");
        } else {
            println!("  FAIL {what}");
            self.failures.push(what.to_string());
        }
    }
}

fn load(dir: &Path, name: &str) -> Result<Value, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Records every path where `a` and `b` differ (bounded, depth-first).
fn diff(a: &Value, b: &Value, path: &str, out: &mut Vec<String>) {
    if out.len() >= 8 {
        return;
    }
    match (a, b) {
        (Value::Obj(ma), Value::Obj(mb)) => {
            for (k, va) in ma {
                match b.get(k) {
                    Some(vb) => diff(va, vb, &format!("{path}/{k}"), out),
                    None => out.push(format!("{path}/{k}: missing from baseline")),
                }
            }
            for (k, _) in mb {
                if a.get(k).is_none() {
                    out.push(format!("{path}/{k}: missing from fresh run"));
                }
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) if xa.len() == xb.len() => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: {a:?} != {b:?}")),
    }
}

/// The run parameters that make exact comparison meaningful.
fn run_params(doc: &Value) -> (Option<f64>, Option<u64>) {
    (
        doc.get("scale").and_then(Value::as_f64),
        doc.get("seed").and_then(Value::as_u64),
    )
}

fn gate_sta(gate: &mut Gate, fresh: &Value, baseline: &Value) {
    gate.check(
        run_params(fresh) == run_params(baseline),
        &format!(
            "BENCH_sta: fresh run parameters {:?} match baseline {:?}",
            run_params(fresh),
            run_params(baseline)
        ),
    );
    let empty = Vec::new();
    let fresh_designs = fresh
        .get("designs")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    gate.check(
        !fresh_designs.is_empty(),
        "BENCH_sta: fresh run has design datapoints",
    );
    for d in fresh_designs {
        let name = d.get("name").and_then(Value::as_str).unwrap_or("?");
        let base_design = baseline
            .get("designs")
            .and_then(Value::as_arr)
            .and_then(|ds| {
                ds.iter()
                    .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
            });
        let Some(base_design) = base_design else {
            gate.check(
                false,
                &format!("BENCH_sta[{name}]: design present in baseline"),
            );
            continue;
        };
        for field in STA_EXACT {
            let f = d.get(field).and_then(Value::as_u64);
            let b = base_design.get(field).and_then(Value::as_u64);
            gate.check(
                f.is_some() && f == b,
                &format!("BENCH_sta[{name}].{field}: deterministic count {f:?} == baseline {b:?}"),
            );
        }
        for (field, floor) in STA_FLOORS {
            let v = d
                .get(field)
                .and_then(Value::as_f64)
                .unwrap_or(f64::NEG_INFINITY);
            gate.check(
                v >= *floor,
                &format!("BENCH_sta[{name}].{field}: {v} >= floor {floor}"),
            );
        }
    }
}

/// Sums every entry of `section`'s `table` (`counters`, or the
/// performance-only `perf`) whose key is or ends in `/<name>`, across all
/// scope prefixes (`cfg/<Config>`, `fmax/<rung>`); `None` when the
/// section carries no such table.
fn scoped_sum(doc: &Value, section: &str, table: &str, name: &str) -> Option<u64> {
    let entries = doc.get(section)?.get(table)?;
    let Value::Obj(map) = entries else {
        return None;
    };
    let scoped = format!("/{name}");
    Some(
        map.iter()
            .filter(|(k, _)| k.as_str() == name || k.ends_with(&scoped))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
    )
}

fn gate_flow(gate: &mut Gate, fresh: &Value, baseline: &Value) {
    gate.check(
        fresh.get("deterministic_identity").and_then(Value::as_bool) == Some(true),
        "BENCH_flow: 1-thread and 4-thread manifests were bit-identical in-process",
    );
    let reuse = fresh.get("prefix_reuse").and_then(Value::as_u64);
    gate.check(
        reuse == Some(1),
        &format!("BENCH_flow.prefix_reuse: compare_configs pseudo-3D runs {reuse:?} == Some(1)"),
    );
    let counted = scoped_sum(fresh, "compare_configs", "counters", "flow/pseudo3d_runs");
    gate.check(
        counted == Some(1),
        &format!(
            "BENCH_flow: compare_configs counters sum to one pseudo-3D run ({counted:?}) — \
             every 3-D config forked from the shared checkpoint"
        ),
    );
    for section in ["fmax_sweep", "compare_configs"] {
        // The fmax probe builds the pre-sizing prefix — a perf-only count,
        // checked where the section carries the perf table — and every
        // rung forks it.
        let built = scoped_sum(fresh, section, "perf", "flow/prefix_runs");
        let forked = scoped_sum(fresh, section, "counters", "flow/prefix_forks");
        gate.check(
            built.is_none_or(|n| n == 1) && forked.is_some_and(|n| n >= 5),
            &format!(
                "BENCH_flow: {section}'s fmax probe built one pre-sizing prefix (perf \
                 prefix_runs {built:?}, None without a perf table) and every rung forked it \
                 ({forked:?} forks)"
            ),
        );
    }
    gate.check(
        run_params(fresh) == run_params(baseline),
        &format!(
            "BENCH_flow: fresh run parameters {:?} match baseline {:?}",
            run_params(fresh),
            run_params(baseline)
        ),
    );
    match (fresh.get("deterministic"), baseline.get("deterministic")) {
        (Some(f), Some(b)) => {
            let mut diffs = Vec::new();
            diff(f, b, "deterministic", &mut diffs);
            let mut what =
                String::from("BENCH_flow: deterministic manifest matches baseline exactly");
            if !diffs.is_empty() {
                let _ = write!(what, " — first diffs: {}", diffs.join("; "));
            }
            gate.check(diffs.is_empty(), &what);
            let counters = f.get("counters").and_then(|c| match c {
                Value::Obj(m) => Some(m.len()),
                _ => None,
            });
            gate.check(
                counters.is_some_and(|n| n >= 10),
                &format!("BENCH_flow: manifest carries a full counter set ({counters:?})"),
            );
        }
        _ => gate.check(
            false,
            "BENCH_flow: both files carry a deterministic section",
        ),
    }
}

/// Fields of the serve bench that must match the baseline bit for bit:
/// the cache economics are scheduling-independent by design.
const SERVE_EXACT: &[&str] = &[
    "requests",
    "distinct_keys",
    "completed_ok",
    "cache_hits",
    "cache_misses",
    "pseudo3d_runs",
    "warm_store_hits",
    "warm_pseudo3d_runs",
    "conn_idle_connections",
    "conn_samples",
    "sweep_points",
    "sweep_scenarios",
    "sweep_pseudo3d_runs",
    "sweep_quota_deferred",
    "fair_inflight_cap",
    "fair_sweep_points",
    "fair_quota_deferred",
    "router_shards",
    "router_distinct_keys",
    "router_pseudo3d_runs",
];

/// Absolute floor on the serve bench's checkpoint-cache hit rate: the
/// workload repeats queries, and a service that stops reusing sessions
/// (every request a miss) is a regression even if still correct.
const SERVE_HIT_RATE_FLOOR: f64 = 0.5;

/// Ceiling on the connection-scaling ratio: active-path p99 with a
/// thousand idle connections parked on the TCP front, over the
/// idle-free p99. A front that walks or wakes per connection blows
/// through this; connections parked in blocking calls leave the active
/// path untouched.
const CONN_P99_RATIO_CEILING: f64 = 1.5;

/// Noise escape hatch for the ratio check: when the probe is fast, a
/// few milliseconds of scheduler jitter can swing a p99 ratio on a
/// shared CI runner, so an absolute regression this small passes even
/// above the ceiling. Real front regressions (a wakeup or walk per
/// idle connection) cost tens of milliseconds at a thousand parked
/// connections and still trip the check.
const CONN_P99_ABS_SLACK_MS: f64 = 5.0;

/// Headroom over the baseline's per-request decode churn. The decoder
/// allocates only the parse tree's vectors, a deterministic byte count;
/// the slack absorbs a toolchain's container-growth policy, while a
/// regression into per-field `String`s costs ~40 % and trips the check.
const DECODE_CHURN_SLACK: f64 = 1.05;

/// Ceiling on the fairness phase's interactive p99 ratio: probe
/// latency on a second connection while a 64-point sweep streams, over
/// the sweep-free baseline. The in-flight cap (2, below the worker
/// count) means the probe only ever pays CPU sharing with a couple of
/// sweep points — a small multiple of its own service time. Without
/// admission fairness the probe queues behind the sweep's remaining
/// tail (~60 points, hundreds of milliseconds) and blows through this
/// by an order of magnitude.
const FAIR_P99_RATIO_CEILING: f64 = 8.0;

/// Absolute escape hatch for the fairness ratio on noisy runners: an
/// absolute p99 regression this small passes even above the ceiling.
/// A probe starved behind an uncapped sweep tail regresses by hundreds
/// of milliseconds and still trips the check.
const FAIR_P99_ABS_SLACK_MS: f64 = 150.0;

fn gate_serve(gate: &mut Gate, fresh: &Value, baseline: &Value) {
    gate.check(
        fresh
            .get("identical_across_workers")
            .and_then(Value::as_bool)
            == Some(true),
        "BENCH_serve: 1-worker and 4-worker response sets were byte-identical in-process",
    );
    gate.check(
        run_params(fresh) == run_params(baseline),
        &format!(
            "BENCH_serve: fresh run parameters {:?} match baseline {:?}",
            run_params(fresh),
            run_params(baseline)
        ),
    );
    for field in SERVE_EXACT {
        let f = fresh.get(field).and_then(Value::as_u64);
        let b = baseline.get(field).and_then(Value::as_u64);
        gate.check(
            f.is_some() && f == b,
            &format!("BENCH_serve.{field}: deterministic count {f:?} == baseline {b:?}"),
        );
    }
    // The tentpole invariant: the pseudo-3-D stage ran exactly once per
    // distinct cache key — repeated design-space queries forked the
    // shared checkpoint instead of recomputing it.
    let keys = fresh.get("distinct_keys").and_then(Value::as_u64);
    let pseudo = fresh.get("pseudo3d_runs").and_then(Value::as_u64);
    gate.check(
        keys.is_some() && pseudo == keys,
        &format!(
            "BENCH_serve: pseudo-3D runs {pseudo:?} == distinct cache keys {keys:?} \
             (one shared checkpoint per key)"
        ),
    );
    let hit_rate = fresh
        .get("hit_rate")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NEG_INFINITY);
    gate.check(
        hit_rate >= SERVE_HIT_RATE_FLOOR,
        &format!("BENCH_serve.hit_rate: {hit_rate} >= floor {SERVE_HIT_RATE_FLOOR}"),
    );
    // Warm-restart economics: a restarted server answers every distinct
    // key from the persistent store, byte-identically, without ever
    // re-running the pseudo-3-D stage.
    gate.check(
        fresh.get("warm_identical_to_cold").and_then(Value::as_bool) == Some(true),
        "BENCH_serve: warm-restart responses were byte-identical to the cold run",
    );
    let warm_hits = fresh.get("warm_store_hits").and_then(Value::as_u64);
    gate.check(
        keys.is_some() && warm_hits == keys,
        &format!(
            "BENCH_serve: warm store hits {warm_hits:?} == distinct cache keys {keys:?} \
             (every key rehydrated from disk)"
        ),
    );
    let warm_pseudo = fresh.get("warm_pseudo3d_runs").and_then(Value::as_u64);
    gate.check(
        warm_pseudo == Some(0),
        &format!("BENCH_serve.warm_pseudo3d_runs: {warm_pseudo:?} == Some(0) after restart"),
    );
    // Zero-copy decode economics: request decode allocates no more than
    // the committed baseline did.
    let churn = fresh
        .get("decode_churn_borrowed_bytes")
        .and_then(Value::as_f64);
    let churn_ceiling = baseline
        .get("decode_churn_borrowed_bytes")
        .and_then(Value::as_f64)
        .map(|b| b * DECODE_CHURN_SLACK);
    gate.check(
        churn
            .zip(churn_ceiling)
            .is_some_and(|(c, ceiling)| c <= ceiling),
        &format!(
            "BENCH_serve.decode_churn_borrowed_bytes: {churn:?} B per request <= ceiling \
             {churn_ceiling:?} (baseline x {DECODE_CHURN_SLACK})"
        ),
    );
    // Connection scaling over the event-driven TCP front: served
    // responses byte-identical across worker counts and to the
    // in-process engine, and a thousand parked idle connections may not
    // move the active path's p99.
    gate.check(
        fresh
            .get("conn_identical_across_workers")
            .and_then(Value::as_bool)
            == Some(true),
        "BENCH_serve: TCP-served responses were byte-identical at 1 and 4 workers",
    );
    gate.check(
        fresh
            .get("conn_identical_to_engine")
            .and_then(Value::as_bool)
            == Some(true),
        "BENCH_serve: TCP-served responses were byte-identical to the in-process engine",
    );
    for lane in ["1w", "4w"] {
        let ratio = fresh
            .get(&format!("conn_p99_ratio_{lane}"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::INFINITY);
        let free = fresh
            .get(&format!("conn_p99_idle_free_ms_{lane}"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let with = fresh
            .get(&format!("conn_p99_with_idle_ms_{lane}"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::INFINITY);
        gate.check(
            ratio <= CONN_P99_RATIO_CEILING || with - free <= CONN_P99_ABS_SLACK_MS,
            &format!(
                "BENCH_serve.conn_p99_ratio_{lane}: {ratio} <= ceiling {CONN_P99_RATIO_CEILING} \
                 (p99 {free} -> {with} ms under {:?} idle connections)",
                fresh.get("conn_idle_connections").and_then(Value::as_u64)
            ),
        );
    }
    // Protocol v2: streamed sweeps are semantically the v1 sequence,
    // worker-count-invariant, with one checkpoint for all scenarios.
    gate.check(
        fresh.get("sweep_identical_to_v1").and_then(Value::as_bool) == Some(true),
        "BENCH_serve: streamed sweep points were byte-identical to the v1 single-shot sequence",
    );
    gate.check(
        fresh
            .get("sweep_identical_across_workers")
            .and_then(Value::as_bool)
            == Some(true),
        "BENCH_serve: sweep streams were byte-identical at 1 and 4 workers",
    );
    let sweep_scenarios = fresh.get("sweep_scenarios").and_then(Value::as_u64);
    let sweep_pseudo = fresh.get("sweep_pseudo3d_runs").and_then(Value::as_u64);
    gate.check(
        sweep_scenarios.is_some() && sweep_pseudo == Some(1),
        &format!(
            "BENCH_serve: sweep pseudo-3D runs {sweep_pseudo:?} == Some(1) over {sweep_scenarios:?} \
             scenarios (one checkpoint per sweep, never per scenario or grid point)"
        ),
    );
    // Fairness admission: the deferral counter is the deterministic
    // footprint of the cap, and the interactive p99 stays bounded.
    let fair_points = fresh.get("fair_sweep_points").and_then(Value::as_u64);
    let fair_cap = fresh.get("fair_inflight_cap").and_then(Value::as_u64);
    let fair_deferred = fresh.get("fair_quota_deferred").and_then(Value::as_u64);
    gate.check(
        fair_points.zip(fair_cap).map(|(p, c)| p - c) == fair_deferred,
        &format!(
            "BENCH_serve: quota deferrals {fair_deferred:?} == sweep points {fair_points:?} \
             minus cap {fair_cap:?} (every point past the cap deferred exactly once)"
        ),
    );
    let fair_ratio = fresh
        .get("fair_p99_ratio")
        .and_then(Value::as_f64)
        .unwrap_or(f64::INFINITY);
    let fair_free = fresh
        .get("fair_p99_free_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let fair_during = fresh
        .get("fair_p99_during_sweep_ms")
        .and_then(Value::as_f64)
        .unwrap_or(f64::INFINITY);
    gate.check(
        fair_ratio <= FAIR_P99_RATIO_CEILING || fair_during - fair_free <= FAIR_P99_ABS_SLACK_MS,
        &format!(
            "BENCH_serve.fair_p99_ratio: {fair_ratio} <= ceiling {FAIR_P99_RATIO_CEILING} \
             (probe p99 {fair_free} -> {fair_during} ms during a \
             {fair_points:?}-point sweep)"
        ),
    );
    // Shard router: byte-identity behind 1 and 4 shards, and every
    // checkpoint key built on exactly one shard cluster-wide.
    gate.check(
        fresh.get("router_identical").and_then(Value::as_bool) == Some(true),
        "BENCH_serve: routed responses were byte-identical to a direct server at 1 and 4 shards",
    );
    gate.check(
        fresh.get("router_single_build").and_then(Value::as_bool) == Some(true),
        "BENCH_serve: cluster-wide cache misses == distinct keys (one build per key)",
    );
    let router_keys = fresh.get("router_distinct_keys").and_then(Value::as_u64);
    let router_pseudo = fresh.get("router_pseudo3d_runs").and_then(Value::as_u64);
    gate.check(
        router_keys.is_some() && router_pseudo == router_keys,
        &format!(
            "BENCH_serve: routed pseudo-3D runs {router_pseudo:?} == distinct keys \
             {router_keys:?} across the 4-shard cluster"
        ),
    );
}

/// Per-rung fields of the scale ladder that must match the baseline bit
/// for bit: generation, the flat views and the flow itself are all
/// deterministic, so the design — and its sign-off timing — may not move
/// unless the algorithms changed.
const SCALE_EXACT_U64: &[&str] = &["target_cells", "cells", "nets", "pins", "arena_bytes"];

/// Absolute floor on full-flow throughput, cells per second, for every
/// ladder rung. Deliberately far below the measured ~15–30 k cells/s so
/// only an order-of-magnitude regression (an accidental quadratic walk,
/// a lost flat layout) trips it — CI wall clocks are too noisy for
/// anything tighter.
const SCALE_THROUGHPUT_FLOOR: f64 = 2_000.0;

fn gate_scale(gate: &mut Gate, fresh: &Value, baseline: &Value) {
    gate.check(
        run_params(fresh) == run_params(baseline),
        &format!(
            "BENCH_scale: fresh run parameters {:?} match baseline {:?}",
            run_params(fresh),
            run_params(baseline)
        ),
    );
    let empty = Vec::new();
    let fresh_rungs = fresh.get("rungs").and_then(Value::as_arr).unwrap_or(&empty);
    gate.check(
        !fresh_rungs.is_empty(),
        "BENCH_scale: fresh run has ladder rungs",
    );
    for r in fresh_rungs {
        let name = r.get("name").and_then(Value::as_str).unwrap_or("?");
        let base_rung = baseline
            .get("rungs")
            .and_then(Value::as_arr)
            .and_then(|rs| {
                rs.iter()
                    .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
            });
        let Some(base_rung) = base_rung else {
            gate.check(
                false,
                &format!("BENCH_scale[{name}]: rung present in baseline"),
            );
            continue;
        };
        for field in SCALE_EXACT_U64 {
            let f = r.get(field).and_then(Value::as_u64);
            let b = base_rung.get(field).and_then(Value::as_u64);
            gate.check(
                f.is_some() && f == b,
                &format!(
                    "BENCH_scale[{name}].{field}: deterministic count {f:?} == baseline {b:?}"
                ),
            );
        }
        // Sign-off WNS is deterministic too: same design, same flow, same
        // bits (both manifests print it with the same fixed precision).
        let f = r.get("wns_ns").and_then(Value::as_f64);
        let b = base_rung.get("wns_ns").and_then(Value::as_f64);
        gate.check(
            f.is_some() && f == b,
            &format!("BENCH_scale[{name}].wns_ns: deterministic timing {f:?} == baseline {b:?}"),
        );
        let v = r
            .get("flow_cells_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NEG_INFINITY);
        gate.check(
            v >= SCALE_THROUGHPUT_FLOOR,
            &format!(
                "BENCH_scale[{name}].flow_cells_per_sec: {v} >= floor {SCALE_THROUGHPUT_FLOOR}"
            ),
        );
    }
}

/// Absolute floor on the Pareto sweep's scenario throughput. The smoke
/// sweep measures ~45 scenarios/s; only an order-of-magnitude
/// regression (a sweep that recomputes checkpoints per grid point, or a
/// serialized fan-out) should trip it on a noisy CI runner.
const PARETO_SCENARIOS_PER_SEC_FLOOR: f64 = 4.0;

fn gate_pareto(gate: &mut Gate, fresh: &Value, baseline: &Value) {
    gate.check(
        run_params(fresh) == run_params(baseline),
        &format!(
            "BENCH_pareto: fresh run parameters {:?} match baseline {:?}",
            run_params(fresh),
            run_params(baseline)
        ),
    );
    gate.check(
        fresh.get("deterministic_identity").and_then(Value::as_bool) == Some(true),
        "BENCH_pareto: 1-thread and 4-thread sweeps were bit-identical in-process",
    );
    // The tentpole invariant: the pseudo-3-D stage ran exactly once for
    // the whole grid — every scenario and frequency rung forked the one
    // checkpoint instead of recomputing it.
    let scenarios = fresh.get("scenarios").and_then(Value::as_u64);
    let pseudo = fresh.get("pseudo3d_runs").and_then(Value::as_u64);
    gate.check(
        pseudo == Some(1),
        &format!(
            "BENCH_pareto: pseudo-3D runs {pseudo:?} == Some(1) over {scenarios:?} scenarios \
             (one checkpoint per grid, never per scenario or grid point)"
        ),
    );
    for field in ["scenarios", "pseudo3d_runs", "frontier_points"] {
        let f = fresh.get(field).and_then(Value::as_u64);
        let b = baseline.get(field).and_then(Value::as_u64);
        gate.check(
            f.is_some() && f == b,
            &format!("BENCH_pareto.{field}: deterministic count {f:?} == baseline {b:?}"),
        );
    }
    // The swept points — metrics, sign-off corners and frontier flags —
    // are deterministic end to end, so the whole table must match the
    // baseline bit for bit.
    match (fresh.get("points"), baseline.get("points")) {
        (Some(f), Some(b)) => {
            let mut diffs = Vec::new();
            diff(f, b, "points", &mut diffs);
            let mut what = String::from("BENCH_pareto: swept point table matches baseline exactly");
            if !diffs.is_empty() {
                let _ = write!(what, " — first diffs: {}", diffs.join("; "));
            }
            gate.check(diffs.is_empty(), &what);
            let n = f.as_arr().map(|a| a.len());
            gate.check(
                n.is_some_and(|n| n > 0),
                &format!("BENCH_pareto: sweep produced points ({n:?})"),
            );
        }
        _ => gate.check(false, "BENCH_pareto: both files carry a points table"),
    }
    let v = fresh
        .get("scenarios_per_sec")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NEG_INFINITY);
    gate.check(
        v >= PARETO_SCENARIOS_PER_SEC_FLOOR,
        &format!("BENCH_pareto.scenarios_per_sec: {v} >= floor {PARETO_SCENARIOS_PER_SEC_FLOOR}"),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let dir_arg = |flag: &str, default: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map_or_else(|| PathBuf::from(default), PathBuf::from)
    };
    let fresh_dir = dir_arg("--fresh", "fresh");
    let baseline_dir = dir_arg("--baseline", "results");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    println!(
        "bench_gate: {} (fresh) vs {} (baseline){}",
        fresh_dir.display(),
        baseline_dir.display(),
        only.as_deref()
            .map(|o| format!(" [only {o}]"))
            .unwrap_or_default()
    );

    let mut gate = Gate {
        failures: Vec::new(),
        checks: 0,
    };
    type Section = (&'static str, &'static str, fn(&mut Gate, &Value, &Value));
    let sections: [Section; 5] = [
        ("sta", "BENCH_sta.json", gate_sta),
        ("flow", "BENCH_flow.json", gate_flow),
        ("serve", "BENCH_serve.json", gate_serve),
        ("scale", "BENCH_scale.json", gate_scale),
        ("pareto", "BENCH_pareto.json", gate_pareto),
    ];
    let selected: Vec<_> = sections
        .iter()
        .filter(|(key, _, _)| only.as_deref().is_none_or(|o| o == *key))
        .collect();
    if selected.is_empty() {
        println!(
            "bench_gate: unknown --only section {:?} (expected sta|flow|serve|scale|pareto)",
            only.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    for (_, name, run) in selected {
        match (load(&fresh_dir, name), load(&baseline_dir, name)) {
            (Ok(fresh), Ok(baseline)) => run(&mut gate, &fresh, &baseline),
            (fresh, baseline) => {
                for r in [fresh, baseline] {
                    if let Err(e) = r {
                        gate.check(false, &format!("load {e}"));
                    }
                }
            }
        }
    }

    if gate.failures.is_empty() {
        println!("bench_gate: all {} checks passed", gate.checks);
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_gate: {} of {} checks FAILED — metric regression or stale baseline.",
            gate.failures.len(),
            gate.checks
        );
        println!(
            "If the change is intentional, refresh the baselines: \
             `cargo run --release -p m3d-bench --bin sta_incr -- --scale tiny`, \
             `cargo run --release -p m3d-bench --bin flow_obs`, \
             `cargo run --release -p m3d-bench --bin serve_bench`, \
             `cargo run --release -p m3d-bench --bin scale_bench` and \
             `cargo run --release -p m3d-bench --bin pareto_bench`, then commit results/."
        );
        ExitCode::FAILURE
    }
}
