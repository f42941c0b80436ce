//! The federated optimization algorithms compared in the paper's
//! evaluation, each a set of [`crate::round`] hooks.

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

use crate::delta::DeltaTable;
use crate::rules::LocalRule;
use std::sync::Arc;

/// One rule per client of `clients`: MMD toward the mean of the other
/// clients' reported δ maps as `deliver(client, target)` hands it over, or
/// plain SGD where nobody else has reported yet or the target got lost.
pub(crate) fn mmd_rules(
    table: &DeltaTable,
    clients: &[usize],
    lambda: f32,
    mut deliver: impl FnMut(usize, Vec<f32>) -> Option<Vec<f32>>,
) -> Vec<LocalRule> {
    let targets = table.means_excluding_initialized_for(clients);
    (targets.into_iter().zip(clients))
        .map(|(target, &k)| match target.and_then(|t| deliver(k, t)) {
            Some(target) => LocalRule::Mmd {
                lambda,
                target: Arc::new(target),
            },
            None => LocalRule::Plain,
        })
        .collect()
}

/// Intersection of two sorted index lists (clients that received *all* of a
/// round's downloads).
pub(crate) fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    a.iter()
        .copied()
        .filter(|k| b.binary_search(k).is_ok())
        .collect()
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
