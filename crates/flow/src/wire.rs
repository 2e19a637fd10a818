//! Wire-format types: the serializable request/response vocabulary of
//! the flow service.
//!
//! Everything here round-trips through [`m3d_json`] losslessly: floats
//! are written in shortest-roundtrip form (parse back bit for bit),
//! enums as lowercase wire names, and integers exactly up to 2^53 (JSON
//! numbers are doubles on the wire). The one deliberate exception is
//! [`FlowOptions::obs`]: a telemetry handle is process state, not
//! request state, so it never crosses the wire and deserializes as
//! [`m3d_obs::Obs::disabled`] — which compares equal to any other
//! disabled handle.

use crate::compare::ComparisonSummary;
use crate::config::{Config, FlowOptions};
use crate::pareto::{pareto_spec, ParetoPoint, ParetoSummary};
use crate::ppac::{DeltaRow, PpacSummary};
use crate::sweep::SweepSpec;
use m3d_json::{Cur, DecodeError, FromJson, Obj, ToJson, Value};
use m3d_netgen::Benchmark;
use m3d_netlist::Netlist;
use m3d_tech::{Corner, CornerSet, Drive, StackingStyle, TechContext};

// ---------------------------------------------------------------------
// leaf enums
// ---------------------------------------------------------------------

/// The wire spelling of one leaf enum: a single `(variant, name)` table
/// drives the writer, the reader and the reader's "expected (a|b|c)"
/// message, so the three cannot drift apart.
struct WireNames<T: 'static> {
    /// What the reader says it expected, e.g. `a drive`.
    what: &'static str,
    table: &'static [(T, &'static str)],
}

impl<T: Copy + PartialEq> WireNames<T> {
    fn name(&self, variant: T) -> &'static str {
        self.table
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|(_, name)| *name)
            .expect("every variant has a row in its wire-name table")
    }

    fn find(&self, name: &str) -> Option<T> {
        self.table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
    }

    fn decode(&self, cur: &Cur<'_, '_>) -> Result<T, DecodeError> {
        self.find(cur.str()?).ok_or_else(|| {
            let names: Vec<&str> = self.table.iter().map(|(_, n)| *n).collect();
            cur.err(format!("{} ({})", self.what, names.join("|")))
        })
    }
}

const CONFIGS: WireNames<Config> = WireNames {
    what: "a configuration",
    table: &[
        (Config::TwoD9T, "2d9t"),
        (Config::TwoD12T, "2d12t"),
        (Config::ThreeD9T, "3d9t"),
        (Config::ThreeD12T, "3d12t"),
        (Config::Hetero3d, "hetero3d"),
    ],
};

const DRIVES: WireNames<Drive> = WireNames {
    what: "a drive",
    table: &[
        (Drive::X1, "x1"),
        (Drive::X2, "x2"),
        (Drive::X4, "x4"),
        (Drive::X8, "x8"),
        (Drive::X16, "x16"),
    ],
};

const STACKINGS: WireNames<StackingStyle> = WireNames {
    what: "a stacking style",
    table: &[
        (StackingStyle::Monolithic, "monolithic"),
        (StackingStyle::F2fHybridBond, "f2f"),
    ],
};

const CORNERS: WireNames<Corner> = WireNames {
    what: "a corner",
    table: &[
        (Corner::Slow, "slow"),
        (Corner::Typical, "typical"),
        (Corner::Fast, "fast"),
    ],
};

/// A corner *set* collapses to one word: the two multi-corner modes plus
/// the single-corner scenarios ([`CornerSet::single`] normalizes
/// `Single(Typical)` to `Typical`, so the mapping is a bijection).
const CORNER_SETS: WireNames<CornerSet> = WireNames {
    what: "a corner set",
    table: &[
        (CornerSet::Typical, "typical"),
        (CornerSet::Worst, "worst"),
        (CornerSet::Single(Corner::Slow), "slow"),
        (CornerSet::Single(Corner::Fast), "fast"),
    ],
};

/// A leaf enum that command lines spell as the wire does: a
/// configuration, a stacking style or a corner.
pub trait WireName: Sized {
    /// The variant whose wire name is `name`, if any.
    fn from_wire_name(name: &str) -> Option<Self>;
}

impl WireName for Config {
    fn from_wire_name(name: &str) -> Option<Self> {
        CONFIGS.find(name)
    }
}

impl WireName for StackingStyle {
    fn from_wire_name(name: &str) -> Option<Self> {
        STACKINGS.find(name)
    }
}

impl WireName for Corner {
    fn from_wire_name(name: &str) -> Option<Self> {
        CORNERS.find(name)
    }
}

const BENCHMARKS: WireNames<Benchmark> = WireNames {
    what: "a benchmark",
    table: &[
        (Benchmark::Aes, "aes"),
        (Benchmark::Ldpc, "ldpc"),
        (Benchmark::Netcard, "netcard"),
        (Benchmark::Cpu, "cpu"),
    ],
};

impl ToJson for Config {
    fn to_json(&self) -> Value<'_> {
        Value::from(CONFIGS.name(*self))
    }
}

impl FromJson for Config {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        CONFIGS.decode(cur)
    }
}

// `TechContext` lives in `m3d_tech` and the JSON traits in `m3d_json`,
// so the orphan rule forces free functions here instead of trait impls.
fn tech_to_json(tech: &TechContext) -> Value<'_> {
    let corners = match tech.corners {
        CornerSet::Single(corner) => CornerSet::single(corner),
        set => set,
    };
    Obj::new()
        .put("stacking", STACKINGS.name(tech.stacking))
        .put("corners", CORNER_SETS.name(corners))
        .build()
}

fn tech_from_json(cur: &Cur<'_, '_>) -> Result<TechContext, DecodeError> {
    Ok(TechContext {
        stacking: STACKINGS.decode(&cur.get("stacking")?)?,
        corners: CORNER_SETS.decode(&cur.get("corners")?)?,
    })
}

/// Decodes the array member `key` element by element; element errors
/// carry `key[index]` paths.
fn list<T>(
    cur: &Cur<'_, '_>,
    key: &str,
    item: impl Fn(&Cur<'_, '_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let member = cur.get(key)?;
    let items = member.arr()?;
    items.iter().map(item).collect()
}

// ---------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------

/// The wire-protocol version a request speaks.
///
/// The version rides on the request as an optional `proto` field that is
/// **omitted when v1** — the same compatibility trick as the options'
/// `tech` key: every request minted before the field existed decodes
/// (and renders, and hashes) unchanged, and v1 rendered requests stay
/// byte-identical. Protocol v2 adds the streaming
/// [`FlowCommand::Sweep`]; unknown versions are rejected at decode with
/// a typed error at path `proto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// The original single-shot request/response protocol.
    #[default]
    V1,
    /// Adds the streaming design-space sweep.
    V2,
}

const PROTO_EXPECTED: &str = "a protocol version (1|2)";

fn proto_from_u64(v: u64) -> Option<Proto> {
    match v {
        1 => Some(Proto::V1),
        2 => Some(Proto::V2),
        _ => None,
    }
}

/// A netlist named *by recipe* rather than by value: benchmark generator
/// plus its scale/seed parameters. The generators are deterministic, so
/// a spec pins down the exact circuit — two services materializing the
/// same spec hold bit-identical netlists (and equal cache keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistSpec {
    /// Which generator.
    pub benchmark: Benchmark,
    /// Size relative to the workspace defaults.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl NetlistSpec {
    /// Largest accepted [`scale`](NetlistSpec::scale). 64 × the
    /// workspace default is ≈ 2 M gates — far past paper-class sizes;
    /// anything larger is a resource-exhaustion request, not a design
    /// (an unbounded scale saturates the generator's f64 → usize casts
    /// and dies allocating).
    pub const MAX_SCALE: f64 = 64.0;

    /// Runs the generator.
    #[must_use]
    pub fn materialize(&self) -> Netlist {
        self.benchmark.generate(self.scale, self.seed)
    }

    /// Checks the generator parameters against the bounds the wire
    /// decoder and the service enforce before any netlist is built.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] at `netlist/scale` when the scale is
    /// not a finite value in `(0, MAX_SCALE]`.
    pub fn validate(&self) -> Result<(), DecodeError> {
        if self.scale.is_finite() && self.scale > 0.0 && self.scale <= Self::MAX_SCALE {
            Ok(())
        } else {
            Err(DecodeError::new(
                "netlist/scale",
                format!("a finite scale in (0, {}]", Self::MAX_SCALE),
            ))
        }
    }
}

impl ToJson for NetlistSpec {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("benchmark", BENCHMARKS.name(self.benchmark))
            .put("scale", self.scale)
            .put("seed", self.seed)
            .build()
    }
}

impl FromJson for NetlistSpec {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(NetlistSpec {
            benchmark: BENCHMARKS.decode(&cur.get("benchmark")?)?,
            scale: cur.get("scale")?.f64()?,
            seed: cur.get("seed")?.u64()?,
        })
    }
}

/// What a request asks the flow to do — the service-side mirror of the
/// library entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowCommand {
    /// Implement one configuration at a fixed target frequency.
    RunFlow {
        /// Which configuration.
        config: Config,
        /// Target clock, GHz.
        frequency_ghz: f64,
    },
    /// Sweep one configuration to its maximum met frequency.
    FindFmax {
        /// Which configuration.
        config: Config,
        /// Sweep starting point, GHz.
        start_ghz: f64,
    },
    /// Run the five-way iso-performance comparison (Tables VI/VII).
    CompareConfigs,
    /// Sweep one configuration over stacking style × sign-off corner ×
    /// frequency and return the power–performance–cost frontier.
    Pareto {
        /// Which configuration.
        config: Config,
        /// Lower frequency bound, GHz.
        freq_min_ghz: f64,
        /// Upper frequency bound, GHz.
        freq_max_ghz: f64,
        /// Grid size (1..=[`crate::MAX_PARETO_STEPS`], endpoints inclusive).
        freq_steps: usize,
    },
    /// Sweep a design-space grid (protocol v2): the cross product of
    /// configurations × stacking styles × corners × frequencies, served
    /// as individually streamed points (see [`SweepSpec`]).
    Sweep {
        /// The grid description.
        spec: SweepSpec,
    },
}

impl FlowCommand {
    /// Validates the command's own numeric bounds (the Pareto and Sweep
    /// grids — the other commands carry no resource-shaping parameters
    /// beyond what [`FlowOptions::validate_bounds`] covers).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the out-of-range member.
    pub fn validate(&self) -> Result<(), DecodeError> {
        match self {
            FlowCommand::Pareto {
                config,
                freq_min_ghz,
                freq_max_ghz,
                freq_steps,
            } => pareto_spec(*config, *freq_min_ghz, *freq_max_ghz, *freq_steps).validate(),
            FlowCommand::Sweep { spec } => spec.validate(),
            _ => Ok(()),
        }
    }
}

impl ToJson for FlowCommand {
    fn to_json(&self) -> Value<'_> {
        match self {
            FlowCommand::RunFlow {
                config,
                frequency_ghz,
            } => Obj::new()
                .put("op", "run_flow")
                .put("config", config.to_json())
                .put("frequency_ghz", *frequency_ghz)
                .build(),
            FlowCommand::FindFmax { config, start_ghz } => Obj::new()
                .put("op", "find_fmax")
                .put("config", config.to_json())
                .put("start_ghz", *start_ghz)
                .build(),
            FlowCommand::CompareConfigs => Obj::new().put("op", "compare_configs").build(),
            FlowCommand::Pareto {
                config,
                freq_min_ghz,
                freq_max_ghz,
                freq_steps,
            } => Obj::new()
                .put("op", "pareto")
                .put("config", config.to_json())
                .put("freq_min_ghz", *freq_min_ghz)
                .put("freq_max_ghz", *freq_max_ghz)
                .put("freq_steps", *freq_steps)
                .build(),
            FlowCommand::Sweep { spec } => Obj::new()
                .put("op", "sweep")
                .put(
                    "configs",
                    Value::Arr(spec.configs.iter().map(ToJson::to_json).collect()),
                )
                .put(
                    "stacking",
                    Value::Arr(
                        spec.stacking
                            .iter()
                            .map(|&s| Value::from(STACKINGS.name(s)))
                            .collect(),
                    ),
                )
                .put(
                    "corners",
                    Value::Arr(
                        spec.corners
                            .iter()
                            .map(|&c| Value::from(CORNERS.name(c)))
                            .collect(),
                    ),
                )
                .put("freq_min_ghz", spec.freq_min_ghz)
                .put("freq_max_ghz", spec.freq_max_ghz)
                .put("freq_steps", spec.freq_steps)
                .build(),
        }
    }
}

impl FromJson for FlowCommand {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let op = cur.get("op")?;
        match op.str()? {
            "run_flow" => Ok(FlowCommand::RunFlow {
                config: Config::from_json(&cur.get("config")?)?,
                frequency_ghz: cur.get("frequency_ghz")?.f64()?,
            }),
            "find_fmax" => Ok(FlowCommand::FindFmax {
                config: Config::from_json(&cur.get("config")?)?,
                start_ghz: cur.get("start_ghz")?.f64()?,
            }),
            "compare_configs" => Ok(FlowCommand::CompareConfigs),
            "pareto" => Ok(FlowCommand::Pareto {
                config: Config::from_json(&cur.get("config")?)?,
                freq_min_ghz: cur.get("freq_min_ghz")?.f64()?,
                freq_max_ghz: cur.get("freq_max_ghz")?.f64()?,
                freq_steps: cur.get("freq_steps")?.usize()?,
            }),
            "sweep" => Ok(FlowCommand::Sweep {
                spec: SweepSpec {
                    configs: list(cur, "configs", Config::from_json)?,
                    stacking: list(cur, "stacking", |c| STACKINGS.decode(c))?,
                    corners: list(cur, "corners", |c| CORNERS.decode(c))?,
                    freq_min_ghz: cur.get("freq_min_ghz")?.f64()?,
                    freq_max_ghz: cur.get("freq_max_ghz")?.f64()?,
                    freq_steps: cur.get("freq_steps")?.usize()?,
                },
            }),
            _ => Err(op.err("an op (run_flow|find_fmax|compare_configs|pareto|sweep)")),
        }
    }
}

/// One unit of service work: which netlist, which knobs, which command.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The design to implement.
    pub netlist: NetlistSpec,
    /// Flow knobs (the checkpoint-cache key includes their fingerprint).
    pub options: FlowOptions,
    /// What to do.
    pub command: FlowCommand,
    /// Per-request deadline in milliseconds, measured from acceptance;
    /// a request still queued past its deadline is rejected, not run.
    pub deadline_ms: Option<u64>,
    /// Protocol version. Rendered only when ≥ v2, so v1 requests stay
    /// byte-identical to those minted before the field existed.
    pub proto: Proto,
}

impl ToJson for FlowRequest {
    fn to_json(&self) -> Value<'_> {
        let mut o = Obj::new()
            .put("id", self.id)
            .put("netlist", self.netlist.to_json())
            .put("options", self.options.to_json())
            .put("command", self.command.to_json());
        if let Some(d) = self.deadline_ms {
            o = o.put("deadline_ms", d);
        }
        if self.proto == Proto::V2 {
            o = o.put("proto", 2u64);
        }
        o.build()
    }
}

impl FlowRequest {
    /// Validates the numeric bounds the wire decoder and the service
    /// enforce at admission: generator parameters that would exhaust
    /// memory and option knobs that would size internal grids and
    /// worklists beyond anything the flow is designed for. Structural
    /// shape is the type system's job; this is the range half, and it
    /// runs on in-process requests too — a hand-built request is held
    /// to the same bounds as one off the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the out-of-range member.
    pub fn validate(&self) -> Result<(), DecodeError> {
        self.netlist.validate()?;
        self.options.validate_bounds()?;
        self.command.validate()?;
        if matches!(self.command, FlowCommand::Sweep { .. }) && self.proto == Proto::V1 {
            return Err(DecodeError::new("proto", "protocol version 2 for op sweep"));
        }
        Ok(())
    }

    /// Decomposes a v2 sweep into its equivalent v1 single-shot
    /// requests, one per grid point in point order. Each point request
    /// carries the parent's id, netlist and deadline; its options are
    /// the parent's with the point's technology scenario folded in —
    /// exactly what a v1 client exploring the grid by hand would send,
    /// so point cache keys, checkpoints and reports all match the
    /// single-shot path bit for bit.
    ///
    /// Returns `None` for non-sweep commands.
    #[must_use]
    pub fn decompose_sweep(&self) -> Option<Vec<FlowRequest>> {
        let FlowCommand::Sweep { spec } = &self.command else {
            return None;
        };
        Some(
            spec.points()
                .iter()
                .map(|p| {
                    let mut options = self.options.clone();
                    options.tech = p.tech();
                    FlowRequest {
                        id: self.id,
                        netlist: self.netlist,
                        options,
                        command: FlowCommand::RunFlow {
                            config: p.config,
                            frequency_ghz: p.frequency_ghz,
                        },
                        deadline_ms: self.deadline_ms,
                        proto: Proto::V1,
                    }
                })
                .collect(),
        )
    }
}

/// The service's hot decode path: every string comparison reads straight
/// from the request buffer — no per-field allocation on success.
impl FromJson for FlowRequest {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let request = FlowRequest {
            id: cur.get("id")?.u64()?,
            netlist: NetlistSpec::from_json(&cur.get("netlist")?)?,
            options: FlowOptions::from_json(&cur.get("options")?)?,
            command: FlowCommand::from_json(&cur.get("command")?)?,
            deadline_ms: cur.opt("deadline_ms").map(|d| d.u64()).transpose()?,
            proto: match cur.opt("proto") {
                None => Proto::V1,
                Some(p) => proto_from_u64(p.u64()?).ok_or_else(|| p.err(PROTO_EXPECTED))?,
            },
        };
        request.validate()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------
// options
// ---------------------------------------------------------------------

/// Largest bin count per axis any grid-shaped knob may request (grids
/// are `bins²`; 4096² cells is already far past every shipped config).
const MAX_BINS: usize = 4_096;
/// Cap on iteration/sweep counts (a worklist length, not a grid).
const MAX_SWEEPS: usize = 1 << 20;
/// Cap on fanout limits.
const MAX_FANOUT: usize = 1 << 20;
/// Cap on the per-request thread count.
const MAX_THREADS: usize = 1_024;

fn in_unit(path: &str, v: f64, zero_ok: bool) -> Result<(), DecodeError> {
    let ok = v.is_finite() && v <= 1.0 && (v > 0.0 || (zero_ok && v == 0.0));
    if ok {
        Ok(())
    } else {
        let lo = if zero_ok { "[0" } else { "(0" };
        Err(DecodeError::new(path, format!("a fraction in {lo}, 1]")))
    }
}

fn finite(path: &str, v: f64) -> Result<(), DecodeError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(DecodeError::new(path, "a finite number"))
    }
}

fn bounded(path: &str, v: usize, min: usize, max: usize) -> Result<(), DecodeError> {
    if (min..=max).contains(&v) {
        Ok(())
    } else {
        Err(DecodeError::new(
            path,
            format!("an integer in {min}..={max}"),
        ))
    }
}

impl FlowOptions {
    /// Checks every resource-shaping knob against the service bounds,
    /// reporting the first violation with its request-relative path
    /// (e.g. `options/placer/bins`). All shipped presets and every
    /// value the wire decoder accepts satisfy these; what they exclude
    /// is a request whose knobs would size an allocation past what the
    /// flow is designed for.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the out-of-range member.
    pub fn validate_bounds(&self) -> Result<(), DecodeError> {
        in_unit("options/utilization", self.utilization, false)?;
        bounded(
            "options/placer/iterations",
            self.placer.iterations,
            0,
            MAX_SWEEPS,
        )?;
        bounded(
            "options/placer/relax_sweeps",
            self.placer.relax_sweeps,
            0,
            MAX_SWEEPS,
        )?;
        bounded("options/placer/bins", self.placer.bins, 1, MAX_BINS)?;
        in_unit("options/placer/target_fill", self.placer.target_fill, false)?;
        bounded("options/route/bins", self.route.bins, 1, MAX_BINS)?;
        finite(
            "options/route/congestion_exponent",
            self.route.congestion_exponent,
        )?;
        finite(
            "options/route/overflow_threshold",
            self.route.overflow_threshold,
        )?;
        bounded("options/cts/max_fanout", self.cts.max_fanout, 1, MAX_FANOUT)?;
        in_unit(
            "options/timing_partition_cap",
            self.timing_partition_cap,
            true,
        )?;
        in_unit("options/input_activity", self.input_activity, true)?;
        bounded("options/max_fanout", self.max_fanout, 1, MAX_FANOUT)?;
        bounded("options/partition_bins", self.partition_bins, 1, MAX_BINS)?;
        finite("options/wns_tolerance", self.wns_tolerance)?;
        bounded("options/threads", self.threads, 0, MAX_THREADS)?;
        Ok(())
    }
}

impl ToJson for FlowOptions {
    fn to_json(&self) -> Value<'_> {
        // The `tech` key is omitted for the default scenario, mirroring
        // the fingerprint's Debug rendering: requests minted before the
        // technology axis existed decode (and hash) unchanged, and the
        // default scenario's rendered requests stay byte-identical.
        let mut o = Obj::new()
            .put("utilization", self.utilization)
            .put("seed", self.seed)
            .put(
                "placer",
                Obj::new()
                    .put("iterations", self.placer.iterations)
                    .put("relax_sweeps", self.placer.relax_sweeps)
                    .put("bins", self.placer.bins)
                    .put("target_fill", self.placer.target_fill)
                    .put("seed", self.placer.seed)
                    .build(),
            )
            .put(
                "route",
                Obj::new()
                    .put("bins", self.route.bins)
                    .put("congestion_exponent", self.route.congestion_exponent)
                    .put("overflow_threshold", self.route.overflow_threshold)
                    .build(),
            )
            .put(
                "cts",
                Obj::new()
                    .put("max_fanout", self.cts.max_fanout)
                    .put("fast_drive", DRIVES.name(self.cts.fast_drive))
                    .put("slow_drive", DRIVES.name(self.cts.slow_drive))
                    .build(),
            )
            .put("timing_partition_cap", self.timing_partition_cap)
            .put("enable_timing_partition", self.enable_timing_partition)
            .put("enable_3d_cts", self.enable_3d_cts)
            .put("enable_repartition", self.enable_repartition)
            .put("input_activity", self.input_activity)
            .put("max_fanout", self.max_fanout)
            .put("partition_bins", self.partition_bins)
            .put("wns_tolerance", self.wns_tolerance)
            .put("threads", self.threads);
        if !self.tech.is_default() {
            o = o.put("tech", tech_to_json(&self.tech));
        }
        o.build()
    }
}

impl FromJson for FlowOptions {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let mut out = FlowOptions {
            utilization: cur.get("utilization")?.f64()?,
            seed: cur.get("seed")?.u64()?,
            timing_partition_cap: cur.get("timing_partition_cap")?.f64()?,
            enable_timing_partition: cur.get("enable_timing_partition")?.bool()?,
            enable_3d_cts: cur.get("enable_3d_cts")?.bool()?,
            enable_repartition: cur.get("enable_repartition")?.bool()?,
            input_activity: cur.get("input_activity")?.f64()?,
            max_fanout: cur.get("max_fanout")?.usize()?,
            partition_bins: cur.get("partition_bins")?.usize()?,
            wns_tolerance: cur.get("wns_tolerance")?.f64()?,
            threads: cur.get("threads")?.usize()?,
            ..FlowOptions::default()
        };
        let placer = cur.get("placer")?;
        *out.placer_mut() = m3d_place::PlacerConfig {
            iterations: placer.get("iterations")?.usize()?,
            relax_sweeps: placer.get("relax_sweeps")?.usize()?,
            bins: placer.get("bins")?.usize()?,
            target_fill: placer.get("target_fill")?.f64()?,
            seed: placer.get("seed")?.u64()?,
        };
        let route = cur.get("route")?;
        *out.route_mut() = m3d_route::RouteConfig {
            bins: route.get("bins")?.usize()?,
            congestion_exponent: route.get("congestion_exponent")?.f64()?,
            overflow_threshold: route.get("overflow_threshold")?.f64()?,
        };
        let cts = cur.get("cts")?;
        *out.cts_mut() = m3d_cts::CtsConfig {
            max_fanout: cts.get("max_fanout")?.usize()?,
            fast_drive: DRIVES.decode(&cts.get("fast_drive")?)?,
            slow_drive: DRIVES.decode(&cts.get("slow_drive")?)?,
        };
        if let Some(tech) = cur.opt("tech") {
            out.tech = tech_from_json(&tech)?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------

impl ToJson for PpacSummary {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("config", self.config.to_json())
            .put("frequency_ghz", self.frequency_ghz)
            .put("footprint_mm2", self.footprint_mm2)
            .put("si_area_mm2", self.si_area_mm2)
            .put("chip_width_um", self.chip_width_um)
            .put("density_pct", self.density_pct)
            .put("wirelength_mm", self.wirelength_mm)
            .put("mivs", self.mivs)
            .put("switching_mw", self.switching_mw)
            .put("internal_mw", self.internal_mw)
            .put("leakage_mw", self.leakage_mw)
            .put("clock_mw", self.clock_mw)
            .put("total_power_mw", self.total_power_mw)
            .put("wns_ns", self.wns_ns)
            .put("tns_ns", self.tns_ns)
            .put("effective_delay_ns", self.effective_delay_ns)
            .put("pdp_pj", self.pdp_pj)
            .put("die_cost_uc", self.die_cost_uc)
            .put("cost_per_cm2_uc", self.cost_per_cm2_uc)
            .put("ppc", self.ppc)
            .build()
    }
}

impl FromJson for PpacSummary {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(PpacSummary {
            config: Config::from_json(&cur.get("config")?)?,
            frequency_ghz: cur.get("frequency_ghz")?.f64()?,
            footprint_mm2: cur.get("footprint_mm2")?.f64()?,
            si_area_mm2: cur.get("si_area_mm2")?.f64()?,
            chip_width_um: cur.get("chip_width_um")?.f64()?,
            density_pct: cur.get("density_pct")?.f64()?,
            wirelength_mm: cur.get("wirelength_mm")?.f64()?,
            mivs: cur.get("mivs")?.usize()?,
            switching_mw: cur.get("switching_mw")?.f64()?,
            internal_mw: cur.get("internal_mw")?.f64()?,
            leakage_mw: cur.get("leakage_mw")?.f64()?,
            clock_mw: cur.get("clock_mw")?.f64()?,
            total_power_mw: cur.get("total_power_mw")?.f64()?,
            wns_ns: cur.get("wns_ns")?.f64()?,
            tns_ns: cur.get("tns_ns")?.f64()?,
            effective_delay_ns: cur.get("effective_delay_ns")?.f64()?,
            pdp_pj: cur.get("pdp_pj")?.f64()?,
            die_cost_uc: cur.get("die_cost_uc")?.f64()?,
            cost_per_cm2_uc: cur.get("cost_per_cm2_uc")?.f64()?,
            ppc: cur.get("ppc")?.f64()?,
        })
    }
}

impl ToJson for DeltaRow {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("config", self.config.to_json())
            .put("si_area", self.si_area)
            .put("density", self.density)
            .put("wirelength", self.wirelength)
            .put("total_power", self.total_power)
            .put("effective_delay", self.effective_delay)
            .put("pdp", self.pdp)
            .put("die_cost", self.die_cost)
            .put("cost_per_cm2", self.cost_per_cm2)
            .put("ppc", self.ppc)
            .put("width_um", self.width_um)
            .put("wns_ns", self.wns_ns)
            .put("tns_ns", self.tns_ns)
            .build()
    }
}

impl FromJson for DeltaRow {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(DeltaRow {
            config: Config::from_json(&cur.get("config")?)?,
            si_area: cur.get("si_area")?.f64()?,
            density: cur.get("density")?.f64()?,
            wirelength: cur.get("wirelength")?.f64()?,
            total_power: cur.get("total_power")?.f64()?,
            effective_delay: cur.get("effective_delay")?.f64()?,
            pdp: cur.get("pdp")?.f64()?,
            die_cost: cur.get("die_cost")?.f64()?,
            cost_per_cm2: cur.get("cost_per_cm2")?.f64()?,
            ppc: cur.get("ppc")?.f64()?,
            width_um: cur.get("width_um")?.f64()?,
            wns_ns: cur.get("wns_ns")?.f64()?,
            tns_ns: cur.get("tns_ns")?.f64()?,
        })
    }
}

impl ToJson for ComparisonSummary {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("design", self.design.as_str())
            .put("target_ghz", self.target_ghz)
            .put("hetero", self.hetero.to_json())
            .put(
                "homogeneous",
                Value::Arr(self.homogeneous.iter().map(ToJson::to_json).collect()),
            )
            .put(
                "deltas",
                Value::Arr(self.deltas.iter().map(ToJson::to_json).collect()),
            )
            .build()
    }
}

impl FromJson for ComparisonSummary {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(ComparisonSummary {
            design: cur.get("design")?.str()?.to_string(),
            target_ghz: cur.get("target_ghz")?.f64()?,
            hetero: PpacSummary::from_json(&cur.get("hetero")?)?,
            homogeneous: list(cur, "homogeneous", PpacSummary::from_json)?,
            deltas: list(cur, "deltas", DeltaRow::from_json)?,
        })
    }
}

impl ToJson for ParetoPoint {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("stacking", STACKINGS.name(self.stacking))
            .put("corner", CORNERS.name(self.corner))
            .put("frequency_ghz", self.frequency_ghz)
            .put("total_power_mw", self.total_power_mw)
            .put("effective_delay_ns", self.effective_delay_ns)
            .put("die_cost_uc", self.die_cost_uc)
            .put("pdp_pj", self.pdp_pj)
            .put("ppc", self.ppc)
            .put("wns_ns", self.wns_ns)
            .put("timing_met", self.timing_met)
            .put("on_frontier", self.on_frontier)
            .build()
    }
}

impl FromJson for ParetoPoint {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(ParetoPoint {
            stacking: STACKINGS.decode(&cur.get("stacking")?)?,
            corner: CORNERS.decode(&cur.get("corner")?)?,
            frequency_ghz: cur.get("frequency_ghz")?.f64()?,
            total_power_mw: cur.get("total_power_mw")?.f64()?,
            effective_delay_ns: cur.get("effective_delay_ns")?.f64()?,
            die_cost_uc: cur.get("die_cost_uc")?.f64()?,
            pdp_pj: cur.get("pdp_pj")?.f64()?,
            ppc: cur.get("ppc")?.f64()?,
            wns_ns: cur.get("wns_ns")?.f64()?,
            timing_met: cur.get("timing_met")?.bool()?,
            on_frontier: cur.get("on_frontier")?.bool()?,
        })
    }
}

impl ToJson for ParetoSummary {
    fn to_json(&self) -> Value<'_> {
        Obj::new()
            .put("config", self.config.to_json())
            .put(
                "points",
                Value::Arr(self.points.iter().map(ToJson::to_json).collect()),
            )
            .build()
    }
}

impl FromJson for ParetoSummary {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        Ok(ParetoSummary {
            config: Config::from_json(&cur.get("config")?)?,
            points: list(cur, "points", ParetoPoint::from_json)?,
        })
    }
}

/// What a successful request returns: one variant per [`FlowCommand`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowReport {
    /// Result of [`FlowCommand::RunFlow`].
    Run {
        /// PPAC roll-up of the implementation.
        ppac: PpacSummary,
    },
    /// Result of [`FlowCommand::FindFmax`].
    Fmax {
        /// Maximum met frequency, GHz.
        fmax_ghz: f64,
        /// PPAC roll-up at that frequency.
        ppac: PpacSummary,
    },
    /// Result of [`FlowCommand::CompareConfigs`].
    Compare {
        /// The five-way table.
        comparison: ComparisonSummary,
    },
    /// Result of [`FlowCommand::Pareto`].
    Pareto {
        /// The full swept point set, frontier membership marked.
        summary: ParetoSummary,
    },
    /// Result of [`FlowCommand::Sweep`] when executed in-process (the
    /// service streams the points individually instead).
    Sweep {
        /// One PPAC roll-up per grid point, in point order.
        points: Vec<PpacSummary>,
    },
}

impl FlowReport {
    /// One-line human summary — what a client prints per response when
    /// streaming results off the wire.
    #[must_use]
    pub fn headline(&self) -> String {
        match self {
            FlowReport::Run { ppac } => format!(
                "{} @ {:.2} GHz: {:.3} mW, WNS {:+.3} ns, PPC {:.2}",
                ppac.config, ppac.frequency_ghz, ppac.total_power_mw, ppac.wns_ns, ppac.ppc
            ),
            FlowReport::Fmax { fmax_ghz, ppac } => format!(
                "{} fmax {:.2} GHz: {:.3} mW, PPC {:.2}",
                ppac.config, fmax_ghz, ppac.total_power_mw, ppac.ppc
            ),
            FlowReport::Compare { comparison } => format!(
                "`{}` five-way comparison at {:.2} GHz iso-performance",
                comparison.design, comparison.target_ghz
            ),
            FlowReport::Pareto { summary } => format!(
                "{} pareto sweep: {} points, {} on the frontier",
                summary.config,
                summary.points.len(),
                summary.frontier().count()
            ),
            FlowReport::Sweep { points } => {
                format!("design-space sweep: {} points", points.len())
            }
        }
    }
}

impl ToJson for FlowReport {
    fn to_json(&self) -> Value<'_> {
        match self {
            FlowReport::Run { ppac } => Obj::new()
                .put("kind", "run")
                .put("ppac", ppac.to_json())
                .build(),
            FlowReport::Fmax { fmax_ghz, ppac } => Obj::new()
                .put("kind", "fmax")
                .put("fmax_ghz", *fmax_ghz)
                .put("ppac", ppac.to_json())
                .build(),
            FlowReport::Compare { comparison } => Obj::new()
                .put("kind", "compare")
                .put("comparison", comparison.to_json())
                .build(),
            FlowReport::Pareto { summary } => Obj::new()
                .put("kind", "pareto")
                .put("summary", summary.to_json())
                .build(),
            FlowReport::Sweep { points } => Obj::new()
                .put("kind", "sweep")
                .put(
                    "points",
                    Value::Arr(points.iter().map(ToJson::to_json).collect()),
                )
                .build(),
        }
    }
}

impl FromJson for FlowReport {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let kind = cur.get("kind")?;
        match kind.str()? {
            "run" => Ok(FlowReport::Run {
                ppac: PpacSummary::from_json(&cur.get("ppac")?)?,
            }),
            "fmax" => Ok(FlowReport::Fmax {
                fmax_ghz: cur.get("fmax_ghz")?.f64()?,
                ppac: PpacSummary::from_json(&cur.get("ppac")?)?,
            }),
            "compare" => Ok(FlowReport::Compare {
                comparison: ComparisonSummary::from_json(&cur.get("comparison")?)?,
            }),
            "pareto" => Ok(FlowReport::Pareto {
                summary: ParetoSummary::from_json(&cur.get("summary")?)?,
            }),
            "sweep" => Ok(FlowReport::Sweep {
                points: list(cur, "points", PpacSummary::from_json)?,
            }),
            _ => Err(kind.err("a kind (run|fmax|compare|pareto|sweep)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_json::{decode, JsonError};

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
        let text = v.to_json().render();
        let back: T = decode(&text).expect("decode");
        assert_eq!(&back, v, "wire round-trip must be lossless: {text}");
    }

    /// The shape error `text` decodes to, as `(path, expected)`.
    fn decode_error<T: FromJson + std::fmt::Debug>(text: &str) -> (String, String) {
        match decode::<T>(text) {
            Err(JsonError::Decode(e)) => (e.path, e.expected),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    /// One PPAC row whose floats exercise the shortest-roundtrip writer.
    fn sample_ppac() -> PpacSummary {
        PpacSummary {
            config: Config::Hetero3d,
            frequency_ghz: 1.0 / 3.0,
            footprint_mm2: 0.123_456_789,
            si_area_mm2: 0.2,
            chip_width_um: 351.0,
            density_pct: 81.25,
            wirelength_mm: 5.5,
            mivs: 1234,
            switching_mw: 1.0,
            internal_mw: 2.0,
            leakage_mw: 0.5,
            clock_mw: 0.75,
            total_power_mw: 4.25,
            wns_ns: -0.012_345,
            tns_ns: -1.5,
            effective_delay_ns: 1.012,
            pdp_pj: 4.301,
            die_cost_uc: 3.21,
            cost_per_cm2_uc: 16.05,
            ppc: 0.072,
        }
    }

    #[test]
    fn options_round_trip_default_and_modified() {
        roundtrip(&FlowOptions::default());
        let mut o = FlowOptions::default().pin3d_baseline();
        o.utilization = 0.65;
        o.seed = 99;
        o.placer_mut().iterations = 7;
        o.placer_mut().target_fill = 0.75;
        o.route_mut().congestion_exponent = 2.5;
        o.cts_mut().slow_drive = Drive::X8;
        o.threads = 4;
        roundtrip(&o);
    }

    #[test]
    fn request_and_report_round_trip() {
        let req = FlowRequest {
            id: 7,
            netlist: NetlistSpec {
                benchmark: Benchmark::Ldpc,
                scale: 0.013,
                seed: 11,
            },
            options: FlowOptions::default(),
            command: FlowCommand::FindFmax {
                config: Config::Hetero3d,
                start_ghz: 1.1,
            },
            deadline_ms: Some(30_000),
            proto: Proto::V1,
        };
        roundtrip(&req);
        for cfg in Config::ALL {
            roundtrip(&cfg);
        }
        let ppac = sample_ppac();
        roundtrip(&ppac);
        roundtrip(&FlowReport::Fmax {
            fmax_ghz: 1.37,
            ppac: ppac.clone(),
        });
        let cmp = ComparisonSummary {
            design: "ldpc".into(),
            target_ghz: 1.2,
            hetero: ppac.clone(),
            homogeneous: vec![ppac.clone(), ppac],
            deltas: vec![],
        };
        roundtrip(&FlowReport::Compare { comparison: cmp });
    }

    #[test]
    fn default_options_render_without_a_tech_key() {
        // Backward compatibility: requests rendered before the
        // technology axis existed must stay byte-identical, so the
        // default scenario omits the key entirely.
        let text = FlowOptions::default().to_json().render();
        assert!(!text.contains("tech"), "default rendering leaked: {text}");
        let mut scenario = FlowOptions::default();
        scenario.tech.corners = CornerSet::Worst;
        assert!(scenario.to_json().render().contains("\"tech\""));
    }

    #[test]
    fn tech_scenarios_round_trip() {
        let scenarios = [
            TechContext::default(),
            TechContext {
                stacking: StackingStyle::F2fHybridBond,
                corners: CornerSet::Worst,
            },
            TechContext {
                stacking: StackingStyle::Monolithic,
                corners: CornerSet::single(Corner::Slow),
            },
            TechContext {
                stacking: StackingStyle::F2fHybridBond,
                corners: CornerSet::single(Corner::Fast),
            },
        ];
        for tech in scenarios {
            let options = FlowOptions {
                tech,
                ..FlowOptions::default()
            };
            roundtrip(&options);
            let req = FlowRequest {
                id: 3,
                netlist: NetlistSpec {
                    benchmark: Benchmark::Aes,
                    scale: 0.02,
                    seed: 5,
                },
                options,
                command: FlowCommand::Pareto {
                    config: Config::Hetero3d,
                    freq_min_ghz: 0.8,
                    freq_max_ghz: 1.4,
                    freq_steps: 4,
                },
                deadline_ms: None,
                proto: Proto::V1,
            };
            roundtrip(&req);
        }
    }

    #[test]
    fn pareto_reports_round_trip_and_bad_sweeps_are_rejected() {
        let point = ParetoPoint {
            stacking: StackingStyle::F2fHybridBond,
            corner: Corner::Slow,
            frequency_ghz: 1.1,
            total_power_mw: 12.5,
            effective_delay_ns: 0.95,
            die_cost_uc: 7.4,
            pdp_pj: 11.875,
            ppc: 0.011,
            wns_ns: -0.04,
            timing_met: false,
            on_frontier: true,
        };
        roundtrip(&point);
        roundtrip(&FlowReport::Pareto {
            summary: ParetoSummary {
                config: Config::Hetero3d,
                points: vec![point],
            },
        });
        // Sweep bounds are enforced at request admission.
        for (lo, hi, steps) in [(0.0, 1.0, 4), (1.2, 0.8, 4), (0.8, 1.2, 0), (0.8, 1.2, 65)] {
            let cmd = FlowCommand::Pareto {
                config: Config::TwoD12T,
                freq_min_ghz: lo,
                freq_max_ghz: hi,
                freq_steps: steps,
            };
            assert!(cmd.validate().is_err(), "({lo}, {hi}, {steps})");
        }
    }

    #[test]
    fn every_variant_has_a_wire_name_that_decodes_back() {
        fn covers<T: Copy + PartialEq + std::fmt::Debug>(names: &WireNames<T>, all: &[T]) {
            for &variant in all {
                let text = Value::from(names.name(variant)).render();
                let doc = m3d_json::parse_borrowed(&text).expect("parse");
                assert_eq!(names.decode(&Cur::root(&doc)), Ok(variant));
            }
        }
        covers(&CONFIGS, &Config::ALL);
        covers(&DRIVES, &Drive::ALL);
        covers(&STACKINGS, &StackingStyle::ALL);
        covers(&CORNERS, &Corner::ALL);
        covers(&BENCHMARKS, &Benchmark::ALL);
        covers(
            &CORNER_SETS,
            &[
                CornerSet::Typical,
                CornerSet::Worst,
                CornerSet::single(Corner::Slow),
                CornerSet::single(Corner::Fast),
            ],
        );
        // The un-normalized spelling of the default set renders as the
        // normalized one instead of missing the table.
        let unnormalized = TechContext {
            stacking: StackingStyle::F2fHybridBond,
            corners: CornerSet::Single(Corner::Typical),
        };
        assert_eq!(
            tech_to_json(&unnormalized).render(),
            r#"{"stacking":"f2f","corners":"typical"}"#
        );
    }

    #[test]
    fn requests_round_trip() {
        let mut options = FlowOptions::default().pin3d_baseline();
        options.seed = 123;
        options.cts_mut().fast_drive = Drive::X8;
        roundtrip(&FlowRequest {
            id: 7,
            netlist: NetlistSpec {
                benchmark: Benchmark::Ldpc,
                scale: 0.013,
                seed: 11,
            },
            options,
            command: FlowCommand::RunFlow {
                config: Config::ThreeD9T,
                frequency_ghz: 1.1,
            },
            deadline_ms: Some(30_000),
            proto: Proto::V1,
        });
        roundtrip(&FlowRequest {
            id: u64::MAX >> 12,
            netlist: NetlistSpec {
                benchmark: Benchmark::Cpu,
                scale: 1.0,
                seed: 0,
            },
            options: FlowOptions::default(),
            command: FlowCommand::CompareConfigs,
            deadline_ms: None,
            proto: Proto::V1,
        });
    }

    fn sweep_request(proto: Proto) -> FlowRequest {
        FlowRequest {
            id: 42,
            netlist: NetlistSpec {
                benchmark: Benchmark::Aes,
                scale: 0.02,
                seed: 5,
            },
            options: FlowOptions::default(),
            command: FlowCommand::Sweep {
                spec: SweepSpec {
                    configs: vec![Config::Hetero3d, Config::TwoD12T],
                    stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
                    corners: vec![Corner::Typical, Corner::Slow],
                    freq_min_ghz: 0.8,
                    freq_max_ghz: 1.2,
                    freq_steps: 3,
                },
            },
            deadline_ms: None,
            proto,
        }
    }

    #[test]
    fn v2_sweep_requests_round_trip() {
        let req = sweep_request(Proto::V2);
        roundtrip(&req);
        let text = req.to_json().render();
        assert!(text.contains("\"proto\":2"), "v2 marker missing: {text}");
    }

    #[test]
    fn v1_requests_render_without_a_proto_key() {
        // Backward compatibility: v1 requests must stay byte-identical
        // to those minted before the version field existed.
        let req = FlowRequest {
            id: 9,
            netlist: NetlistSpec {
                benchmark: Benchmark::Ldpc,
                scale: 0.013,
                seed: 11,
            },
            options: FlowOptions::default(),
            command: FlowCommand::CompareConfigs,
            deadline_ms: None,
            proto: Proto::V1,
        };
        let text = req.to_json().render();
        assert!(!text.contains("proto"), "v1 rendering leaked: {text}");
    }

    #[test]
    fn unknown_protocol_versions_are_rejected_at_the_proto_path() {
        let good = sweep_request(Proto::V2).to_json().render();
        let broken = good.replace("\"proto\":2", "\"proto\":7");
        assert_ne!(broken, good);
        assert_eq!(
            decode_error::<FlowRequest>(&broken),
            ("proto".into(), "a protocol version (1|2)".into())
        );
    }

    #[test]
    fn sweeps_require_protocol_v2() {
        let req = sweep_request(Proto::V1);
        let err = req.validate().unwrap_err();
        assert_eq!(err.path, "proto");
        // The wire decoder enforces the same rule: a sweep without the
        // version marker is rejected.
        assert_eq!(
            decode_error::<FlowRequest>(&req.to_json().render()),
            ("proto".into(), "protocol version 2 for op sweep".into())
        );
    }

    #[test]
    fn sweep_axis_decode_errors_name_indexed_paths() {
        let good = sweep_request(Proto::V2).to_json().render();
        let broken = good.replace("\"f2f\"", "\"w2w\"");
        assert_ne!(broken, good);
        assert_eq!(
            decode_error::<FlowRequest>(&broken),
            (
                "command/stacking[1]".into(),
                "a stacking style (monolithic|f2f)".into()
            )
        );
        let broken = good.replace("\"slow\"", "\"cold\"");
        assert_ne!(broken, good);
        assert_eq!(
            decode_error::<FlowRequest>(&broken),
            (
                "command/corners[1]".into(),
                "a corner (slow|typical|fast)".into()
            )
        );
    }

    #[test]
    fn sweep_decomposition_matches_hand_built_v1_requests() {
        let req = sweep_request(Proto::V2);
        let FlowCommand::Sweep { spec } = &req.command else {
            unreachable!()
        };
        let singles = req.decompose_sweep().expect("sweep decomposes");
        assert_eq!(singles.len(), spec.point_count());
        for (point, single) in spec.points().iter().zip(&singles) {
            assert_eq!(single.id, req.id);
            assert_eq!(single.proto, Proto::V1);
            assert!(single.validate().is_ok());
            assert_eq!(single.options.tech, point.tech());
            assert_eq!(
                single.command,
                FlowCommand::RunFlow {
                    config: point.config,
                    frequency_ghz: point.frequency_ghz,
                }
            );
        }
        // Non-sweep commands do not decompose.
        assert!(singles[0].decompose_sweep().is_none());
    }

    #[test]
    fn sweep_reports_round_trip() {
        let ppac = sample_ppac();
        let report = FlowReport::Sweep {
            points: vec![ppac.clone(), ppac],
        };
        roundtrip(&report);
        assert!(report.headline().contains("2 points"));
    }

    #[test]
    fn decode_errors_name_their_path_and_expectation() {
        let mut options = FlowOptions::default();
        options.tech.corners = CornerSet::Worst;
        let base = FlowRequest {
            id: 1,
            netlist: NetlistSpec {
                benchmark: Benchmark::Aes,
                scale: 0.02,
                seed: 5,
            },
            options,
            command: FlowCommand::RunFlow {
                config: Config::TwoD9T,
                frequency_ghz: 1.0,
            },
            deadline_ms: None,
            proto: Proto::V1,
        };
        let good = base.to_json().render();
        for (broken, path, expected) in [
            (
                good.replace("\"2d9t\"", "\"4d\""),
                "command/config",
                "a configuration (2d9t|2d12t|3d9t|3d12t|hetero3d)",
            ),
            (
                good.replace("\"aes\"", "\"des\""),
                "netlist/benchmark",
                "a benchmark (aes|ldpc|netcard|cpu)",
            ),
            (
                good.replace("\"fast_drive\":\"x4\"", "\"fast_drive\":\"x3\""),
                "options/cts/fast_drive",
                "a drive (x1|x2|x4|x8|x16)",
            ),
            (
                good.replace("\"worst\"", "\"best\""),
                "options/tech/corners",
                "a corner set (typical|worst|slow|fast)",
            ),
            (
                good.replace("\"run_flow\"", "\"walk_flow\""),
                "command/op",
                "an op (run_flow|find_fmax|compare_configs|pareto|sweep)",
            ),
            (
                good.replace("\"scale\":0.02", "\"scale\":1e9"),
                "netlist/scale",
                "a finite scale in (0, 64]",
            ),
            (
                good.replace("\"iterations\":18", "\"iterations\":\"twelve\""),
                "options/placer/iterations",
                "a non-negative integer below 2^53",
            ),
            (
                good.replace("\"frequency_ghz\":1", "\"frequency\":1"),
                "command",
                "member `frequency_ghz`",
            ),
            (
                good.replace("\"cts\":{", "\"cts\":7,\"was_cts\":{"),
                "options/cts",
                "an object",
            ),
        ] {
            assert_ne!(broken, good, "replacement must have matched");
            assert_eq!(
                decode_error::<FlowRequest>(&broken),
                (path.into(), expected.into()),
                "input: {broken}"
            );
        }
    }
}
