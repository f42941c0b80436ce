//! # rfl-viz
//!
//! Visualization math for the rFedAvg reproduction: an exact (O(n²)) t-SNE
//! implementation used to regenerate Fig. 1 (feature visualizations of the
//! last FC layer), plus an ASCII scatter renderer.

pub mod scatter;
pub mod tsne;

pub use scatter::render_scatter;
pub use tsne::{Tsne, TsneConfig};
