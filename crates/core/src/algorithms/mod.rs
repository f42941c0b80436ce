//! The federated optimization algorithms compared in the paper's evaluation.

mod fedavg;
mod fedavgm;
mod fedprox;
mod poc;
mod qfedavg;
mod rfedavg;
mod rfedavg_plus;
mod scaffold;

pub use fedavg::FedAvg;
pub use fedavgm::FedAvgM;
pub use fedprox::FedProx;
pub use poc::PowerOfChoice;
pub use qfedavg::QFedAvg;
pub use rfedavg::RFedAvg;
pub use rfedavg_plus::RFedAvgPlus;
pub use scaffold::Scaffold;

use crate::client::LocalReport;
use crate::federation::Federation;
use crate::sampling::renormalized_weights;
use rand::rngs::StdRng;
use rfl_trace::SpanKind;

/// Participant-weighted means of the local data loss and regularizer loss.
pub(crate) fn mean_losses(reports: &[LocalReport], weights: &[f32]) -> (f32, f32) {
    debug_assert_eq!(reports.len(), weights.len());
    let mut loss = 0.0f32;
    let mut reg = 0.0f32;
    for (r, &w) in reports.iter().zip(weights) {
        loss += w * r.loss;
        reg += w * r.reg_loss;
    }
    (loss, reg)
}

/// Uniform client sampling wrapped in a `select` span. Routed through the
/// federation so the pipelined engine's round-addressable stream (when
/// installed) supplies the same ids its prefetch wave predicted.
pub(crate) fn traced_select(fed: &Federation, ratio: f32, rng: &mut StdRng) -> Vec<usize> {
    let mut span = fed.tracer().span(SpanKind::Select);
    let selected = fed.sample_selection(ratio, rng);
    span.counter("clients", selected.len() as u64);
    selected
}

/// Participant-weighted mean losses over the clients that actually trained
/// this round; `(0, 0)` when nobody did.
pub(crate) fn active_mean_losses(
    fed: &Federation,
    reports: &[LocalReport],
    active: &[usize],
) -> (f32, f32) {
    if active.is_empty() {
        return (0.0, 0.0);
    }
    mean_losses(reports, &renormalized_weights(fed.weights(), active))
}

/// Intersection of two sorted index lists (clients that received *all* of a
/// round's downloads).
pub(crate) fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod helper_tests {
    use super::intersect_sorted;

    #[test]
    fn intersection_of_sorted_lists() {
        assert_eq!(intersect_sorted(&[0, 2, 4, 6], &[1, 2, 3, 6]), vec![2, 6]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<usize>::new());
        assert_eq!(intersect_sorted(&[3, 5], &[3, 5]), vec![3, 5]);
    }
}
