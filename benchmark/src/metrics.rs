//! The metric registry: every name the benchmark can print, with unit and
//! direction. `BENCHMARK.json` lists exactly these (a unit test keeps the
//! two in step); `README.md` says which end-to-end metric each per-layer
//! metric should move, and on which workload.

use crate::sampler::Samples;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees; reported by every workload from the
/// untraced run. Definitions per workload are in `README.md`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("points_per_s", "points/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.25),
];

/// Single layers (layer = crate), from the traced run. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    lo("netgen.generate_ms", "ms"),
    lo("netlist.topology_build_ms", "ms"),
    hi("netlist.cells", "count"),
    lo("flow.prepare_base_ms", "ms"),
    lo("flow.pseudo3d_ms", "ms"),
    lo("flow.suffix_ms", "ms"),
    lo("flow.session_execute_ms", "ms"),
    lo("flow.compare_ms", "ms"),
    hi("flow.grid_points_per_s", "points/s"),
    lo("flow.exponent", "exp"),
    lo("flow.alloc_churn_mb", "MB"),
    lo("place.global_place_ms", "ms"),
    lo("place.global_place_exponent", "exp"),
    lo("place.refine_ms", "ms"),
    lo("place.legalize_ms", "ms"),
    lo("place.legalize_exponent", "exp"),
    lo("place.hpwl_mm", "mm"),
    lo("partition.timing_assign_ms", "ms"),
    lo("partition.fm_ms", "ms"),
    lo("partition.fm_exponent", "exp"),
    lo("partition.fm_passes", "count"),
    lo("partition.fm_moves", "count"),
    lo("partition.cut_nets", "count"),
    lo("partition.eco_ms", "ms"),
    lo("partition.eco_rounds", "count"),
    lo("partition.eco_cells_moved", "count"),
    lo("route.global_route_ms", "ms"),
    lo("route.global_route_exponent", "exp"),
    lo("route.extract_ms", "ms"),
    lo("route.wirelength_mm", "mm"),
    lo("route.overflow_edges", "count"),
    lo("route.mivs", "count"),
    lo("cts.synthesize_ms", "ms"),
    lo("cts.buffers", "count"),
    lo("opt.insert_buffers_ms", "ms"),
    lo("opt.resize_timing_ms", "ms"),
    lo("opt.resize_power_ms", "ms"),
    lo("opt.cells_resized", "count"),
    lo("sta.analyze_ms", "ms"),
    lo("sta.analyze_exponent", "exp"),
    lo("sta.journaled_edit_us", "us"),
    lo("sta.incr_vs_cold_ratio", "ratio"),
    lo("sta.period_edit_us", "us"),
    lo("sta.multicorner_update_ms", "ms"),
    lo("sta.propagated_evals", "count"),
    lo("power.analyze_ms", "ms"),
    lo("cost.ppac_us", "us"),
    lo("db.fork_us", "us"),
    lo("db.netlist_fingerprint_ms", "ms"),
    lo("db.state_fingerprint_ms", "ms"),
    hi("par.speedup_nt", "ratio"),
    lo("obs.overhead_ratio", "ratio"),
    lo("json.parse_borrowed_us", "us"),
    lo("json.render_us", "us"),
    lo("protocol.decode_request_us", "us"),
    lo("protocol.encode_response_us", "us"),
    lo("protocol.request_bytes", "bytes"),
    lo("protocol.response_bytes", "bytes"),
    hi("server.req_per_s", "req/s"),
    lo("server.latency_p50_ms", "ms"),
    lo("server.latency_p90_ms", "ms"),
    lo("server.latency_p99_ms", "ms"),
    lo("server.inproc_latency_ms", "ms"),
    lo("server.engine_overhead_ms", "ms"),
    lo("server.tcp_overhead_ms", "ms"),
    lo("server.rejected", "count"),
    lo("router.hop_ms", "ms"),
    lo("router.retries", "count"),
    hi("sweep.points_per_s", "points/s"),
    lo("sweep.first_point_ms", "ms"),
    lo("sweep.quota_deferred", "count"),
    lo("cache.memory_hit_ms", "ms"),
    lo("cache.disk_hit_ms", "ms"),
    lo("cache.cold_miss_ms", "ms"),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.evictions", "count"),
    lo("store.put_session_ms", "ms"),
    lo("store.get_session_ms", "ms"),
    lo("store.record_mb", "MB"),
    hi("store.hits", "count"),
    lo("store.spills", "count"),
    hi("qor.signoff_wns_ns", "ns"),
    hi("qor.hetero_ppc_gain_pct", "%"),
    hi("qor.hetero_pdp_gain_pct", "%"),
    lo("trace.stage_sum_gap_pct", "%"),
    lo("trace.overhead_pct", "%"),
];

/// One measured value with the spread line printed beside it.
#[derive(Debug, Clone)]
pub struct Reading {
    pub value: f64,
    pub spread: String,
}

/// The values a run produced, by registered metric name.
#[derive(Debug, Default)]
pub struct Readings(BTreeMap<&'static str, Reading>);

impl Readings {
    fn put(&mut self, name: &str, value: f64, spread: String) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.0.insert(def.name, Reading { value, spread });
    }

    /// Records a single reading (a count, a ratio, one long measurement).
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, "n=1".to_string());
    }

    /// Records the median of `samples`, keeping its spread.
    pub fn set_median(&mut self, name: &str, samples: &Samples) {
        self.put(name, samples.median(), samples.describe());
    }

    /// Records `value` derived from `samples` (a percentile, a rate).
    pub fn set_from(&mut self, name: &str, value: f64, samples: &Samples) {
        self.put(name, value, samples.describe());
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.get(name)
    }
}

/// Renders `BENCHMARK.json` from the registry and the workload list.
pub fn manifest_json(run_seconds: u64, workloads: &[(&str, &str)]) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            d.name,
            d.unit,
            d.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(crate::RUN_SECONDS, &crate::workload_table()),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-manifest > BENCHMARK.json"
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn an_unregistered_name_is_a_bug() {
        Readings::default().set("flow.typo_ms", 1.0);
    }
}
