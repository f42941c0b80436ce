//! Vanilla Federated Averaging (McMahan et al., AISTATS 2017).

use crate::trainer::Algorithm;

/// FedAvg: sample clients, run `E` local SGD steps, average the parameters
/// weighted by client data sizes — the round driver with no hook overridden.
#[derive(Default)]
pub struct FedAvg;

impl FedAvg {
    pub fn new() -> Self {
        FedAvg
    }
}

impl Algorithm for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compression;
    use crate::history::History;
    use crate::testutil::{convex_fed, convex_fed_with, run_rounds};

    #[test]
    fn improves_test_accuracy_on_iid_data() {
        let (mut fed, cfg) = convex_fed(1.0, 0, 8);
        let before = fed.evaluate_global().accuracy;
        let h = run_rounds(&mut FedAvg::new(), &mut fed, &cfg, 15);
        let after = h.final_accuracy().unwrap();
        assert!(after > before.max(0.5), "{before} → {after}");
    }

    #[test]
    fn partial_participation_still_learns() {
        let (mut fed, mut cfg) = convex_fed(1.0, 1, 8);
        cfg.sample_ratio = 0.25;
        let h = run_rounds(&mut FedAvg::new(), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
        // Only a quarter of clients participate each round.
        assert!(h.records().iter().all(|r| r.participants == 2));
    }

    #[test]
    fn communication_is_two_model_transfers_per_participant() {
        let (mut fed, cfg) = convex_fed(1.0, 2, 8);
        let n_params = fed.num_params() as u64;
        let h = run_rounds(&mut FedAvg::new(), &mut fed, &cfg, 1);
        let r = &h.records()[0];
        let per_msg = 4 + 4 * n_params;
        assert_eq!(r.down_bytes, 8 * per_msg);
        assert_eq!(r.up_bytes, 8 * per_msg);
        assert_eq!(r.delta_bytes, 0);
    }

    /// Compression is a wire stage of the federation, not an algorithm:
    /// stock FedAvg over a federation with a policy set compresses uploads.
    fn run_compressed(policy: Compression, seed: u64, clients: usize, rounds: usize) -> History {
        let (mut fed, cfg) = convex_fed_with(0.0, seed, clients, policy);
        run_rounds(&mut FedAvg::new(), &mut fed, &cfg, rounds)
    }

    fn up(h: &History) -> u64 {
        h.records().iter().map(|r| r.up_bytes).sum()
    }

    #[test]
    fn quantized_uploads_learn_nearly_as_well() {
        let ha = run_compressed(Compression::None, 100, 6, 15);
        let hb = run_compressed(Compression::Quantize { bits: 8 }, 100, 6, 15);
        let (a, b) = (ha.final_accuracy().unwrap(), hb.final_accuracy().unwrap());
        assert!(b > a - 0.1, "8-bit quantization lost too much: {a} vs {b}");
        assert!(up(&hb) < up(&ha) / 2, "{} vs {}", up(&hb), up(&ha));
    }

    #[test]
    fn topk_uploads_are_cheaper_than_dense() {
        let ha = run_compressed(Compression::None, 101, 4, 2);
        let hb = run_compressed(Compression::TopK { ratio: 0.1 }, 101, 4, 2);
        assert!(
            up(&hb) * 3 < up(&ha),
            "top-10% should cut uploads ≥3x: {} vs {}",
            up(&hb),
            up(&ha)
        );
    }

    #[test]
    fn topk_still_learns() {
        let h = run_compressed(Compression::TopK { ratio: 0.25 }, 102, 6, 20);
        assert!(h.final_accuracy().unwrap() > 0.4);
    }

    #[test]
    fn is_deterministic_across_runs() {
        let run = || {
            let (mut fed, cfg) = convex_fed(0.0, 3, 8);
            run_rounds(&mut FedAvg::new(), &mut fed, &cfg, 5)
                .final_accuracy()
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
