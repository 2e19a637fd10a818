//! Frozen workload constants and the seeded input generators. The
//! program under test only ever sees what these produce; why each
//! constant has its value is recorded in `README.md`.

use hetero3d::flow::{
    Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto, SweepSpec,
};
use hetero3d::netgen::Benchmark;
use hetero3d::tech::{Corner, StackingStyle};

/// Generator seed of the paper-family netlists (AES / LDPC / Netcard /
/// CPU), the seed the repo's golden tables use. These netlists are *not*
/// re-drawn per `--seed`: near fmax the flow's ECO/sizing work is chaotic
/// in the netlist (README, "What the seed varies"), which would put more
/// run-to-run spread on every paper/serve timing than any bound allows.
pub const NETLIST_SEED: u64 = 7;

/// `scale_flow` rungs: (target cells, frozen frequency in GHz, close to
/// the hetero fmax of that size so sign-off is representative).
pub const RUNG_SMALL: (usize, f64) = (100_000, 0.11);
pub const RUNG_LARGE: (usize, f64) = (250_000, 0.06);

/// `paper_tables` generates the paper's four netlists at this scale
/// (3.9k / 6.4k / 11.6k / 6.4k cells). At scale 1.0 one pass takes
/// 21-25 s, so a run would hold a single sample, and single samples
/// spread by up to 26 % between runs of the same code; at a quarter a
/// run holds six passes and reports their median.
pub const PAPER_SCALE: f64 = 0.25;

/// `paper_tables` runs its flows on one thread: on designs this small a
/// second thread makes a pass slower (2 vCPUs at scale 0.18: 3.2 s against
/// 2.8 s) and its run-to-run spread half as wide again (README,
/// "`paper_tables`").
pub const PAPER_THREADS: usize = 1;

/// `paper_tables` Pareto grids: (netlist, min GHz, max GHz), 3 steps each
/// over 2 stackings × 3 corners = 18 points per grid. (The issue's second
/// grid, LDPC, is trimmed to the driver's time cap.)
pub const GRIDS: [(Benchmark, f64, f64); 1] = [(Benchmark::Aes, 0.8, 1.0)];
pub const GRID_STEPS: usize = 3;

/// Serve workloads: server workers and client connections (2 + 2 would
/// exceed `nproc` on a 1-core box; `main` clamps both to `nproc`).
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_CONNECTIONS: usize = 2;
pub const HOT_CACHE_CAPACITY: usize = 8;
pub const CHURN_CACHE_CAPACITY: usize = 4;
/// `serve_churn` spreads each design over this many option variants
/// (`input_activity` 0.15 — the default, `serve_hot`'s — then 0.14, 0.13, ...): distinct cache keys over the *same* netlists, so the
/// two workloads' requests cost the flow exactly the same and their
/// difference is the cache tiers' alone.
pub const CHURN_VARIANTS: usize = 5;

/// Nominal operation rates on the calibration machine; `--seconds` is
/// turned into a fixed operation count through them so that every run of
/// one benchmark version does the same work.
pub const FLOW_SECONDS_PER_OP: f64 = 5.0;
pub const PASS_SECONDS_PER_OP: f64 = 4.0;
pub const REQUESTS_PER_SECOND: f64 = 5.8;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The flow options every workload uses (the repo's `bench_options`:
/// default knobs with 12 placer iterations), with the flow-level thread
/// count pinned explicitly — never through `HETERO3D_THREADS`.
pub fn flow_options(threads: usize) -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 12;
    o.threads = threads;
    o
}

/// One serve cache key — a netlist recipe plus the one option the keys
/// differ in — with the three frequencies its requests cycle over.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub netlist: NetlistSpec,
    pub input_activity: f64,
    pub freqs: [f64; 3],
}

/// The two ~25k-cell designs every serve request is about, as the key
/// with option variant `variant` (0 = the default options).
fn design_keys(variant: usize) -> [Key; 2] {
    [(Benchmark::Ldpc, 1.0), (Benchmark::Netcard, 0.5)].map(|(benchmark, scale)| Key {
        netlist: NetlistSpec {
            benchmark,
            scale,
            seed: NETLIST_SEED,
        },
        input_activity: 0.15 - 0.01 * variant as f64,
        freqs: [0.4, 0.5, 0.6],
    })
}

/// `serve_hot`: two keys, both resident throughout.
pub fn hot_keys() -> Vec<Key> {
    design_keys(0).to_vec()
}

/// `serve_churn`: ten keys — two and a half times the cache capacity.
pub fn churn_keys() -> Vec<Key> {
    (0..CHURN_VARIANTS).flat_map(design_keys).collect()
}

pub fn run_request(id: u64, key: &Key, config: Config, frequency_ghz: f64) -> FlowRequest {
    let mut options = flow_options(1);
    options.input_activity = key.input_activity;
    FlowRequest {
        id,
        netlist: key.netlist,
        options,
        command: FlowCommand::RunFlow {
            config,
            frequency_ghz,
        },
        deadline_ms: None,
        proto: Proto::V1,
    }
}

/// The request mix, per key and round: six `Hetero3d` (twice over the
/// key's three frequencies), two `ThreeD12T`, one `TwoD12T`, one `TwoD9T`.
const MIX: [(Config, usize); 10] = [
    (Config::Hetero3d, 0),
    (Config::Hetero3d, 1),
    (Config::Hetero3d, 2),
    (Config::Hetero3d, 0),
    (Config::Hetero3d, 1),
    (Config::Hetero3d, 2),
    (Config::ThreeD12T, 1),
    (Config::ThreeD12T, 0),
    (Config::TwoD12T, 1),
    (Config::TwoD9T, 0),
];

/// How many rounds of the mix `--seconds` buys over `keys` keys.
pub fn rounds(seconds: f64, keys: usize) -> usize {
    ((seconds * REQUESTS_PER_SECOND / (MIX.len() * keys) as f64).round() as usize).max(1)
}

/// The run's request list: `rounds` times the full mix on every key, in
/// an order drawn from `rng`. Every seed sends the same multiset of
/// requests — the same total work — and only their order (and with it
/// which requests meet in the server, and the LRU's luck) differs.
pub fn request_list(rng: &mut Rng, keys: &[Key], rounds: usize) -> Vec<FlowRequest> {
    let mut out: Vec<FlowRequest> = (0..rounds)
        .flat_map(|_| keys)
        .flat_map(|key| {
            MIX.iter()
                .map(move |&(config, f)| run_request(0, key, config, key.freqs[f]))
        })
        .collect();
    rng.shuffle(&mut out);
    for (id, request) in out.iter_mut().enumerate() {
        request.id = id as u64;
    }
    out
}

/// The `serve_hot` v2 sweep: 2 configs × 2 stackings × typical × 3
/// frequencies = 12 points on the LDPC key.
pub fn sweep_request(id: u64) -> FlowRequest {
    let key = design_keys(0)[0];
    FlowRequest {
        id,
        netlist: key.netlist,
        options: flow_options(1),
        command: FlowCommand::Sweep {
            spec: SweepSpec {
                configs: vec![Config::Hetero3d, Config::ThreeD12T],
                stacking: StackingStyle::ALL.to_vec(),
                corners: vec![Corner::Typical],
                freq_min_ghz: key.freqs[0],
                freq_max_ghz: key.freqs[2],
                freq_steps: 3,
            },
        },
        deadline_ms: None,
        proto: Proto::V2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs(list: &[FlowRequest]) -> Vec<Config> {
        list.iter()
            .map(|r| match r.command {
                FlowCommand::RunFlow { config, .. } => config,
                _ => unreachable!("lists hold run_flow requests only"),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_list_other_seed_same_work_in_another_order() {
        let keys = churn_keys();
        let a = request_list(&mut Rng::new(7), &keys, 1);
        let b = request_list(&mut Rng::new(7), &keys, 1);
        let mut c = request_list(&mut Rng::new(11), &keys, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same multiset: ids aside, sorting both by content makes them equal.
        let mut a = a;
        let key =
            |r: &FlowRequest| format!("{:?}{:?}{}", r.netlist, r.command, r.options.input_activity);
        for list in [&mut a, &mut c] {
            list.iter_mut().for_each(|r| r.id = 0);
            list.sort_by_key(key);
        }
        assert_eq!(a, c);
    }

    #[test]
    fn every_key_gets_the_frozen_mix_and_is_its_own_cache_key() {
        let keys = churn_keys();
        assert_eq!(keys.len(), 2 * CHURN_VARIANTS);
        let list = request_list(&mut Rng::new(3), &keys, 2);
        assert_eq!(list.len(), 20 * keys.len());
        for key in &keys {
            let mine: Vec<FlowRequest> = list
                .iter()
                .filter(|r| {
                    r.netlist == key.netlist && r.options.input_activity == key.input_activity
                })
                .cloned()
                .collect();
            let c = configs(&mine);
            let count = |k| c.iter().filter(|&&x| x == k).count();
            assert_eq!(
                (
                    count(Config::Hetero3d),
                    count(Config::ThreeD12T),
                    count(Config::TwoD12T),
                    count(Config::TwoD9T)
                ),
                (12, 4, 2, 2)
            );
        }
        let fingerprints: std::collections::BTreeSet<String> = keys
            .iter()
            .map(|k| {
                let r = run_request(0, k, Config::Hetero3d, 0.5);
                format!("{:?}/{}", r.netlist.benchmark, r.options.fingerprint())
            })
            .collect();
        assert_eq!(
            fingerprints.len(),
            keys.len(),
            "every key is its own cache key"
        );
        assert_eq!((rounds(25.0, 2), rounds(25.0, 10)), (7, 1));
        assert_eq!(
            sweep_request(1).decompose_sweep().map(|p| p.len()),
            Some(12)
        );
    }
}
