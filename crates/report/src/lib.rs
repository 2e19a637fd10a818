//! Reporting: the paper's tables as formatted text, deep-dive analyses
//! (Table VIII) and SVG renderings of the layout figures (Figs. 1, 3, 4).
//!
//! Every regeneration binary in `m3d-bench` funnels through this crate so
//! the printed rows match the paper's row/column structure exactly.
//!
//! # Examples
//!
//! ```
//! use m3d_report::TextTable;
//!
//! let mut t = TextTable::new(vec!["metric", "value"]);
//! t.row(vec!["Frequency".into(), "1.200".into()]);
//! assert!(t.render().contains("Frequency"));
//! ```

mod deep_dive;
mod ranking;
mod svg;
mod tables;

pub use deep_dive::{
    deep_dive, format_deep_dive, ClockReport, CriticalPathReport, DeepDive, MemoryReport,
};
pub use ranking::{qualitative_ranking, RankTable};
pub use svg::{render_config_cartoon, render_layout, render_overlays, LayerChoice};
pub use tables::{format_comparison, format_ppac, format_table5, format_table7, TextTable};
