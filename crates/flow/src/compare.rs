use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::ppac::{percent_delta, DeltaRow, PpacSummary};
use crate::FlowSession;
use m3d_cost::CostModel;
use m3d_netlist::Netlist;

/// The five-way comparison's metric tables (Tables VI and VII) — what
/// the service returns for it, without the full implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonSummary {
    /// Design name.
    pub design: String,
    /// The iso-performance frequency target (the 12-track 2-D fmax), GHz.
    pub target_ghz: f64,
    /// The heterogeneous implementation's metrics (Table VI).
    pub hetero: PpacSummary,
    /// Metrics of every homogeneous configuration.
    pub homogeneous: Vec<PpacSummary>,
    /// Table VII columns: hetero vs each homogeneous configuration.
    pub deltas: Vec<DeltaRow>,
}

/// Five-way comparison of one netlist across all configurations at the
/// iso-performance target (Tables VI and VII).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The metric tables.
    pub summary: ComparisonSummary,
    /// The heterogeneous implementation itself (for deep-dive reports).
    pub hetero_implementation: Implementation,
    /// The homogeneous implementations (same order as
    /// `summary.homogeneous`).
    pub implementations: Vec<Implementation>,
}

/// Takes `config`'s implementation out of the parallel fan-out's result
/// pool (`pool[i]` holds job `jobs[i]`'s result until consumed).
fn take_implementation(
    jobs: &[Config],
    pool: &mut [Option<Implementation>],
    config: Config,
) -> Result<Implementation, FlowError> {
    jobs.iter()
        .position(|&c| c == config)
        .and_then(|i| pool.get_mut(i).and_then(Option::take))
        .ok_or(FlowError::MissingImplementation(config))
}

/// Runs the full evaluation methodology on one netlist — a thin adapter
/// over [`FlowSession::compare`].
///
/// # Errors
///
/// Returns [`FlowError::InvalidNetlist`] for an invalid netlist and
/// propagates the first [`FlowError`] the sweep or any configuration job
/// reports.
pub fn try_compare_configs(
    netlist: &Netlist,
    options: &FlowOptions,
    cost: &CostModel,
) -> Result<Comparison, FlowError> {
    FlowSession::builder(netlist)
        .options(options.clone())
        .build()?
        .compare(cost)
}

impl FlowSession {
    /// Runs the five-way iso-performance comparison (Tables VI/VII):
    ///
    /// 1. sweep the 12-track 2-D implementation to its fmax,
    /// 2. implement all five configurations at that frequency,
    /// 3. compute PPAC and the Table VII percent deltas.
    ///
    /// This is the expensive command — a full run executes the flow seven
    /// or more times, but off the session's checkpoints: one buffered
    /// base netlist feeds every run, one pseudo-3-D checkpoint all three
    /// 3-D configurations (`flow/pseudo3d_runs` records at most 1), and
    /// each run's pre-sizing prefix comes out of the session's memo — the
    /// fmax probe builds one that every rung the ladder walks forks (the
    /// rungs run one at a time, fastest first, and the walk stops at the
    /// first that meets timing), and a second comparison builds none.
    /// Independent configurations are implemented
    /// concurrently (`options.threads` workers); results are assembled
    /// back in Fig. 1 order, so the output is identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the first failure of the fmax sweep or any
    /// configuration job.
    pub fn compare(&self, cost: &CostModel) -> Result<Comparison, FlowError> {
        // Ahead of the fan-out, so no 3-D job waits on another for it.
        self.pseudo()?;
        let options = self.options();
        let compare_span = options.obs.span("compare_configs");
        let (target_ghz, base_imp) = self.fmax(Config::TwoD12T, 1.0)?;

        // One job per configuration that still needs an implementation:
        // the homogeneous configurations other than 12-track 2-D (which
        // reuses the fmax sweep's implementation) plus the heterogeneous
        // proposal. Every job is a pure function of its arguments, so
        // running them concurrently and reading results back in job order
        // is deterministic. Each job writes its telemetry under its own
        // `cfg/<name>` prefix, so concurrent jobs never share a manifest
        // key.
        let jobs: Vec<Config> = Config::HOMOGENEOUS
            .iter()
            .copied()
            .filter(|&c| c != Config::TwoD12T)
            .chain(std::iter::once(Config::Hetero3d))
            .collect();
        let job_options: Vec<FlowOptions> = jobs
            .iter()
            .map(|&config| options.fork_for(&format!("cfg/{config:?}")))
            .collect();
        let results = m3d_par::par_invoke(
            options.threads,
            jobs.iter()
                .zip(&job_options)
                .map(|(&config, o)| move || self.run_with(config, target_ghz, o))
                .collect(),
        );
        let mut pool: Vec<Option<Implementation>> = Vec::with_capacity(results.len());
        for r in results {
            pool.push(Some(r?));
        }
        let hetero_implementation = take_implementation(&jobs, &mut pool, Config::Hetero3d)?;
        let mut homogeneous = Vec::with_capacity(Config::HOMOGENEOUS.len());
        let mut implementations = Vec::with_capacity(Config::HOMOGENEOUS.len());
        for config in Config::HOMOGENEOUS {
            let imp = if config == Config::TwoD12T {
                base_imp.clone()
            } else {
                take_implementation(&jobs, &mut pool, config)?
            };
            homogeneous.push(imp.ppac(cost));
            implementations.push(imp);
        }
        let hetero = hetero_implementation.ppac(cost);
        let deltas = homogeneous
            .iter()
            .map(|h| percent_delta(&hetero, h))
            .collect();
        drop(compare_span);

        Ok(Comparison {
            summary: ComparisonSummary {
                design: self.design().to_string(),
                target_ghz,
                hetero,
                homogeneous,
                deltas,
            },
            hetero_implementation,
            implementations,
        })
    }
}

/// Table V: the same heterogeneous design through the Pin-3-D baseline
/// flow and the enhanced Hetero-Pin-3-D flow.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Frequency both flows ran at, GHz.
    pub frequency_ghz: f64,
    /// Metrics from the unmodified Pin-3-D flow.
    pub pin3d: PpacSummary,
    /// Metrics from the enhanced flow.
    pub hetero_pin3d: PpacSummary,
    /// The baseline implementation.
    pub pin3d_implementation: Implementation,
    /// The enhanced implementation.
    pub hetero_implementation: Implementation,
}

/// Runs the Table V experiment: heterogeneous configuration under the
/// baseline flow (no timing partitioning, legacy CTS, no ECO) vs the
/// enhanced flow, at the same frequency — both on one session, the
/// baseline a [binding](FlowSession::bind) of its options, so the
/// pseudo-3-D stage runs once.
///
/// # Errors
///
/// Returns [`FlowError::InvalidNetlist`] for an invalid netlist and
/// propagates the first failure of either flow.
pub fn pin3d_baseline_comparison(
    netlist: &Netlist,
    frequency_ghz: f64,
    options: &FlowOptions,
    cost: &CostModel,
) -> Result<BaselineComparison, FlowError> {
    let session = FlowSession::builder(netlist)
        .options(options.clone())
        .build()?;
    let baseline = session
        .bind(&FlowOptions {
            enable_timing_partition: false,
            enable_3d_cts: false,
            enable_repartition: false,
            ..options.clone()
        })
        .expect("the baseline flow differs only behind the pseudo-3-D checkpoint");
    let pin3d_implementation = baseline.run(Config::Hetero3d, frequency_ghz)?;
    let hetero_implementation = session.run(Config::Hetero3d, frequency_ghz)?;
    Ok(BaselineComparison {
        frequency_ghz,
        pin3d: pin3d_implementation.ppac(cost),
        hetero_pin3d: hetero_implementation.ppac(cost),
        pin3d_implementation,
        hetero_implementation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netgen::Benchmark;

    fn quick_options() -> FlowOptions {
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 6;
        o
    }

    #[test]
    fn baseline_comparison_shows_enhancement_value() {
        // Table V's experiment: at a frequency where the plain Pin-3-D
        // flow misses timing, the enhanced flow recovers most of the WNS
        // and cuts power.
        let n = Benchmark::Cpu.generate(0.015, 1);
        let cmp = pin3d_baseline_comparison(&n, 1.6, &quick_options(), &CostModel::default())
            .expect("both flows");
        assert!(
            cmp.pin3d.wns_ns < -0.02,
            "baseline should violate at 1.6 GHz: {}",
            cmp.pin3d.wns_ns
        );
        assert!(
            cmp.hetero_pin3d.wns_ns > cmp.pin3d.wns_ns + 0.02,
            "enhanced WNS {} vs baseline {}",
            cmp.hetero_pin3d.wns_ns,
            cmp.pin3d.wns_ns
        );
        assert!(
            cmp.hetero_pin3d.total_power_mw < cmp.pin3d.total_power_mw,
            "enhanced power {} vs baseline {}",
            cmp.hetero_pin3d.total_power_mw,
            cmp.pin3d.total_power_mw
        );
        assert_eq!(cmp.frequency_ghz, 1.6);
    }

    #[test]
    fn five_way_comparison_produces_all_rows() {
        let n = Benchmark::Aes.generate(0.012, 41);
        let cmp = try_compare_configs(&n, &quick_options(), &CostModel::default())
            .expect("flow")
            .summary;
        assert_eq!(cmp.homogeneous.len(), 4);
        assert_eq!(cmp.deltas.len(), 4);
        assert!(cmp.target_ghz > 0.0);
        assert_eq!(cmp.hetero.config, Config::Hetero3d);
        // Iso-performance: every implementation ran at the same target.
        for p in &cmp.homogeneous {
            assert!((p.frequency_ghz - cmp.target_ghz).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_hetero_job_surfaces_as_typed_error() {
        let jobs = [Config::TwoD9T, Config::ThreeD9T];
        let mut pool: Vec<Option<Implementation>> = vec![None, None];
        let err = take_implementation(&jobs, &mut pool, Config::Hetero3d).unwrap_err();
        assert_eq!(err, FlowError::MissingImplementation(Config::Hetero3d));
    }

    #[test]
    fn consumed_job_slot_surfaces_as_typed_error() {
        // A pool slot can only be taken once; a second claim for the same
        // configuration reports the missing implementation instead of
        // panicking.
        let n = Benchmark::Aes.generate(0.05, 7);
        let imp = crate::try_run_flow(&n, Config::TwoD9T, 0.8, &quick_options()).expect("flow");
        let jobs = [Config::TwoD9T];
        let mut pool = vec![Some(imp)];
        assert!(take_implementation(&jobs, &mut pool, Config::TwoD9T).is_ok());
        let err = take_implementation(&jobs, &mut pool, Config::TwoD9T).unwrap_err();
        assert_eq!(err, FlowError::MissingImplementation(Config::TwoD9T));
    }
}
