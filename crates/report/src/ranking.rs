//! Table I: qualitative 1–5 ranking of the five configurations.

use m3d_flow::{Config, PpacSummary};

/// A rank table: metric name → per-configuration rank (1 = worst,
/// 5 = best), in [`Config::ALL`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTable {
    /// Metric labels (rows).
    pub metrics: Vec<&'static str>,
    /// `ranks[row][config]`, config order = [`Config::ALL`].
    pub ranks: Vec<[u8; 5]>,
}

impl RankTable {
    /// Renders the ranking with configuration headers.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = crate::tables::TextTable::new(
            std::iter::once("Metric".to_string())
                .chain(Config::ALL.iter().map(ToString::to_string))
                .collect::<Vec<_>>(),
        );
        for (m, r) in self.metrics.iter().zip(&self.ranks) {
            let mut row = vec![(*m).to_string()];
            row.extend(r.iter().map(ToString::to_string));
            t.row(row);
        }
        t.render()
    }
}

/// Ranks five measured implementations on the Table I metrics.
///
/// `ppacs` must hold one entry per configuration. Higher rank = better:
/// higher achieved frequency, lower power, lower power/freq, smaller
/// footprint, smaller silicon, cheaper die.
///
/// # Panics
///
/// Panics if `ppacs` does not contain all five configurations.
#[must_use]
pub fn qualitative_ranking(ppacs: &[PpacSummary]) -> RankTable {
    let get = |config: Config| -> &PpacSummary {
        ppacs
            .iter()
            .find(|p| p.config == config)
            .unwrap_or_else(|| panic!("missing configuration {config}"))
    };
    let ordered: Vec<&PpacSummary> = Config::ALL.iter().map(|&c| get(c)).collect();

    // Rank helper: score per config; higher score -> higher rank.
    let rank_by = |score: &dyn Fn(&PpacSummary) -> f64| -> [u8; 5] {
        let scores: Vec<f64> = ordered.iter().map(|p| score(p)).collect();
        let mut idx: Vec<usize> = (0..5).collect();
        idx.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ranks = [0u8; 5];
        for (rank0, &i) in idx.iter().enumerate() {
            ranks[i] = rank0 as u8 + 1;
        }
        ranks
    };

    let metrics = vec![
        "Frequency",
        "Power",
        "Power/Freq",
        "Footprint",
        "Si Area",
        "Die Cost",
    ];
    let achieved = |p: &PpacSummary| 1.0 / p.effective_delay_ns.max(1e-9);
    let ranks = vec![
        rank_by(&|p| achieved(p)),
        rank_by(&|p| -p.total_power_mw),
        rank_by(&|p| achieved(p) / p.total_power_mw.max(1e-12)),
        rank_by(&|p| -p.footprint_mm2),
        rank_by(&|p| -p.si_area_mm2),
        rank_by(&|p| -p.die_cost_uc),
    ];
    RankTable { metrics, ranks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(
        config: Config,
        freq_eff: f64,
        power: f64,
        footprint: f64,
        si: f64,
        cost: f64,
    ) -> PpacSummary {
        PpacSummary {
            config,
            frequency_ghz: 1.0,
            footprint_mm2: footprint,
            si_area_mm2: si,
            chip_width_um: 100.0,
            density_pct: 80.0,
            wirelength_mm: 1.0,
            mivs: 0,
            switching_mw: 0.0,
            internal_mw: 0.0,
            leakage_mw: 0.0,
            clock_mw: 0.0,
            total_power_mw: power,
            wns_ns: 0.0,
            tns_ns: 0.0,
            effective_delay_ns: 1.0 / freq_eff,
            pdp_pj: power / freq_eff,
            die_cost_uc: cost,
            cost_per_cm2_uc: cost / si,
            ppc: freq_eff / (power * cost),
        }
    }

    #[test]
    fn ranking_matches_table_one_expectations() {
        // Construct metrics following Table I's ideal behavior.
        let ppacs = vec![
            // 12T 2D: rank 3 freq, 1 power, big area.
            fake(Config::TwoD12T, 3.0, 4.0, 1.0, 1.0, 4.0),
            // 9T 2D: slowest, frugal, small Si.
            fake(Config::TwoD9T, 1.0, 1.5, 0.75, 0.75, 2.0),
            // 12T 3D: fastest, most power, expensive.
            fake(Config::ThreeD12T, 5.0, 3.5, 0.5, 1.0, 5.0),
            // 9T 3D: second slowest, least power.
            fake(Config::ThreeD9T, 2.0, 1.0, 0.375, 0.75, 3.0),
            // Hetero: rank 4 freq, middle power, middle cost.
            fake(Config::Hetero3d, 4.0, 2.0, 0.44, 0.875, 3.5),
        ];
        let table = qualitative_ranking(&ppacs);
        // Frequency row (Config::ALL order: 12T2D, 9T2D, 12T3D, 9T3D, Het):
        assert_eq!(table.ranks[0], [3, 1, 5, 2, 4]);
        // Power row: lower power = better rank.
        assert_eq!(table.ranks[1], [1, 4, 2, 5, 3]);
        // Die cost row.
        assert_eq!(table.ranks[5], [2, 5, 1, 4, 3]);
        assert!(table.render().contains("Frequency"));
    }

    #[test]
    #[should_panic(expected = "missing configuration")]
    fn missing_config_panics() {
        let ppacs = vec![fake(Config::TwoD12T, 1.0, 1.0, 1.0, 1.0, 1.0)];
        let _ = qualitative_ranking(&ppacs);
    }
}
