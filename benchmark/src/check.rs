//! Correctness checks behind the result's `attempted` / `failed` counts.
//!
//! Every operation a workload performs, and every check made on its
//! output, is one attempt; a call that errors, a request that is rejected
//! and a check that does not hold are failures (and contribute no latency
//! sample). `failed_ratio = failed / attempted` must be 0 for a run to
//! count.

use hetero3d::flow::{FlowReport, PpacSummary};
use hetero3d::json::ToJson;
use hetero3d::serve::Response;

/// Running attempt / failure count with the reasons of the first few
/// failures kept for the printout.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one attempt; a false `ok` is a failure explained by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
        ok
    }

    /// Counts a fallible call; returns its value when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A served response must be `ok`; returns its report.
pub fn served_ok<'a>(t: &mut Tally, what: &str, response: &'a Response) -> Option<&'a FlowReport> {
    match response {
        Response::Ok { report, .. } => {
            t.check(true, String::new);
            Some(report)
        }
        Response::Rejected { kind, message, .. } => {
            t.check(false, || format!("{what}: rejected {kind}: {message}"));
            None
        }
    }
}

/// Two reports for the same input must render to the same bytes.
pub fn same_report(t: &mut Tally, what: &str, got: &FlowReport, want: &FlowReport) -> bool {
    let (g, w) = (got.to_json().render(), want.to_json().render());
    t.check(g == w, || {
        format!("{what}: report differs from the reference")
    })
}

fn ppac_values(p: &PpacSummary, out: &mut Vec<f64>) {
    out.extend([
        p.frequency_ghz,
        p.total_power_mw,
        p.wns_ns,
        p.tns_ns,
        p.effective_delay_ns,
        p.pdp_pj,
        p.die_cost_uc,
        p.ppc,
        p.wirelength_mm,
    ]);
}

/// The quality-of-result numbers a report carries.
pub fn qor_values(report: &FlowReport) -> Vec<f64> {
    let mut out = Vec::new();
    match report {
        FlowReport::Run { ppac } => ppac_values(ppac, &mut out),
        FlowReport::Fmax { fmax_ghz, ppac } => {
            out.push(*fmax_ghz);
            ppac_values(ppac, &mut out);
        }
        FlowReport::Compare { comparison } => {
            out.push(comparison.target_ghz);
            ppac_values(&comparison.hetero, &mut out);
            for p in &comparison.homogeneous {
                ppac_values(p, &mut out);
            }
        }
        FlowReport::Pareto { summary } => {
            for p in &summary.points {
                out.extend([
                    p.total_power_mw,
                    p.effective_delay_ns,
                    p.die_cost_uc,
                    p.wns_ns,
                ]);
                out.extend([p.pdp_pj, p.ppc]);
            }
        }
        FlowReport::Sweep { points } => {
            for p in points {
                ppac_values(p, &mut out);
            }
        }
    }
    out
}

/// Every quality-of-result value must be finite.
pub fn finite(t: &mut Tally, what: &str, values: &[f64]) -> bool {
    t.check(values.iter().all(|v| v.is_finite()), || {
        format!("{what}: non-finite quality-of-result value")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero3d::flow::Config;
    use hetero3d::serve::RejectKind;

    fn report(ppc: f64) -> FlowReport {
        FlowReport::Run {
            ppac: PpacSummary {
                config: Config::Hetero3d,
                frequency_ghz: 1.0,
                footprint_mm2: 0.1,
                si_area_mm2: 0.2,
                chip_width_um: 300.0,
                density_pct: 70.0,
                wirelength_mm: 12.0,
                mivs: 10,
                switching_mw: 1.0,
                internal_mw: 1.0,
                leakage_mw: 0.1,
                clock_mw: 0.2,
                total_power_mw: 2.3,
                wns_ns: -0.01,
                tns_ns: -0.1,
                effective_delay_ns: 1.01,
                pdp_pj: 2.3,
                die_cost_uc: 5.0,
                cost_per_cm2_uc: 1.0,
                ppc,
            },
        }
    }

    #[test]
    fn clean_results_keep_the_ratio_at_zero() {
        let mut t = Tally::default();
        let ok = Response::Ok {
            id: 1,
            cache_hit: true,
            report: Box::new(report(8.0)),
        };
        let served = served_ok(&mut t, "req", &ok).expect("ok").clone();
        assert!(same_report(&mut t, "req", &served, &report(8.0)));
        assert!(finite(&mut t, "req", &qor_values(&served)));
        assert_eq!(t.ok("call", Ok::<u8, String>(3)), Some(3));
        assert_eq!((t.attempted, t.failed, t.failed_ratio()), (4, 0, 0.0));
    }

    #[test]
    fn a_deliberately_wrong_report_raises_the_ratio() {
        let mut t = Tally::default();
        assert!(!same_report(&mut t, "req 7", &report(8.0), &report(8.5)));
        assert!(t.failed_ratio() > 0.0);
        assert!(t.reasons[0].contains("req 7"));
    }

    #[test]
    fn a_rejected_request_raises_the_ratio() {
        let mut t = Tally::default();
        let rejected = Response::reject(Some(4), RejectKind::Overloaded, "queue is at capacity");
        assert!(served_ok(&mut t, "req 4", &rejected).is_none());
        assert!(t.failed_ratio() > 0.0);
        assert!(t.reasons[0].contains("overloaded"));
    }

    #[test]
    fn a_non_finite_qor_value_raises_the_ratio() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut t = Tally::default();
            assert!(!finite(&mut t, "aes", &qor_values(&report(bad))));
            assert!(t.failed_ratio() > 0.0);
        }
    }

    #[test]
    fn a_failed_call_raises_the_ratio() {
        let mut t = Tally::default();
        assert_eq!(t.ok("flow", Err::<u8, _>("stage failed")), None);
        assert_eq!((t.attempted, t.failed), (1, 1));
    }
}
