//! # rfl-metrics
//!
//! Experiment statistics for the rFedAvg reproduction: mean±std aggregation
//! across seeds (the `97.07 ± 0.34` cells of Tables I–II), curve smoothing,
//! fairness statistics over per-client accuracies (Fig. 11), and plain-text
//! rendering (CSV + ASCII charts) used by the experiment binaries.

pub mod aggregate;
pub mod ascii;
pub mod curve;
pub mod fairness;
pub mod table;

pub use aggregate::{mean_std, MeanStd};
pub use curve::Series;
pub use fairness::FairnessStats;
pub use table::TextTable;
