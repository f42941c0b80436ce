//! Personalized federated learning — the paper's closing future-work
//! direction: combine the regularized global model with per-client
//! fine-tuning and compare global vs personalized local accuracy.

use crate::eval::EvalResult;
use crate::federation::Federation;
use crate::rules::LocalRule;

/// Result of personalizing one client.
#[derive(Clone, Copy, Debug)]
pub struct PersonalizationResult {
    pub client: usize,
    /// Accuracy of the shared global model on this client's data.
    pub global: EvalResult,
    /// Accuracy after `steps` local fine-tuning steps from the global model.
    pub personalized: EvalResult,
}

impl PersonalizationResult {
    /// Accuracy gained by fine-tuning (can be negative).
    pub(crate) fn gain(&self) -> f32 {
        self.personalized.accuracy - self.global.accuracy
    }
}

/// Fine-tunes the current global model on every client for `steps` local
/// SGD steps and reports global-vs-personalized local accuracy.
///
/// Uses a held-in evaluation on the client's own data, matching how
/// personalization is typically scored in cross-device FL. Each client is
/// woken once for all three steps; fine-tuning advances its optimizer state
/// and RNG stream, and its fine-tuned parameters are gone when it goes back
/// to sleep (call after training finishes).
pub fn personalize_all(
    fed: &mut Federation,
    steps: usize,
    eval_batch: usize,
) -> Vec<PersonalizationResult> {
    let selected: Vec<usize> = (0..fed.num_clients()).collect();
    // Fine-tune only the clients that actually received the final model.
    let delivered = fed.broadcast_params(&selected);
    let mut out = Vec::with_capacity(delivered.len());
    for &k in &delivered {
        let (global, personalized) = fed.with_client(k, |c| {
            let global = c.evaluate_local(eval_batch);
            c.train_local(steps, &LocalRule::Plain);
            (global, c.evaluate_local(eval_batch))
        });
        out.push(PersonalizationResult {
            client: k,
            global,
            personalized,
        });
    }
    out
}

/// Mean personalization gain across clients.
pub fn mean_gain(results: &[PersonalizationResult]) -> f32 {
    assert!(!results.is_empty());
    results.iter().map(|r| r.gain()).sum::<f32>() / results.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::RFedAvgPlus;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn personalization_improves_local_fit_on_noniid() {
        // With label-skewed clients, fine-tuning on local data should raise
        // local accuracy on average (the local task is easier than the
        // global one).
        let (mut fed, cfg) = convex_fed(0.0, 90, 6);
        run_rounds(&mut RFedAvgPlus::new(1e-3), &mut fed, &cfg, 10);
        let results = personalize_all(&mut fed, 30, 32);
        assert_eq!(results.len(), 6);
        let gain = mean_gain(&results);
        assert!(gain > 0.0, "mean personalization gain {gain}");
    }

    #[test]
    fn zero_steps_is_a_noop() {
        let (mut fed, cfg) = convex_fed(0.0, 91, 4);
        run_rounds(&mut RFedAvgPlus::new(1e-3), &mut fed, &cfg, 3);
        let results = personalize_all(&mut fed, 0, 32);
        for r in &results {
            assert_eq!(r.global.accuracy, r.personalized.accuracy);
            assert_eq!(r.gain(), 0.0);
        }
    }
}
