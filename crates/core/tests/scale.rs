//! Scale gate: memory follows the sampled cohort, not the registry.
//!
//! Streamed-selection rounds on [`Federation::lazy`] over a source that
//! *generates* each client's shard on demand, so a registered client that is
//! never sampled costs a descriptor in the sharded registry and nothing
//! else. 100,000 registered clients at 1 % and 1,000,000 at 0.1 % both
//! sample 1,000 a round, so the permitted `O(d + sampled)` term cancels and
//! the shared ceiling isolates the forbidden `O(N)` one: eagerly
//! materializing the smaller federation alone holds ~500 MB of datasets and
//! replicas. FedAvg runs both sizes; SCAFFOLD runs the larger, where a
//! control variate per registered client held on the server would be
//! 10⁶ × 132 floats, about 0.53 GB: each client's `c_k` is a section of its
//! record, so only the sampled clients hold one.
//!
//! This file holds exactly one test function: the peak resident set is
//! process-wide, and a sibling test's memory would be charged to the legs.

#[path = "common/gaussian_source.rs"]
mod gaussian_source;

use gaussian_source::{GaussianSource, CLASSES, DIM, SPEC};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::{FedAvg, Scaffold};
use rfl_core::{Algorithm, Federation, FlConfig, ModelFactory, OptimizerFactory, Trainer};
use std::sync::Arc;

const SEED: u64 = 7;
/// Peak-RSS ceiling of every leg. The FedAvg legs measure about 8 MB and
/// 12 MB: a training job holds one live client per worker, so the cohort's
/// datasets and replicas are never resident at once.
const RSS_CEILING_BYTES: u64 = 64 * 1024 * 1024;

/// Two streamed-selection rounds of `algo` over `clients` registered
/// clients; returns the leg's final train loss and peak resident bytes.
fn run_leg(algo: &mut dyn Algorithm, clients: usize, sample_ratio: f32) -> (f32, u64) {
    assert!(
        rfl_core::mem::reset_peak_rss(),
        "cannot reset VmHWM, so the second leg would inherit the first one's peak"
    );
    let cfg = FlConfig {
        rounds: 2,
        local_steps: 1,
        batch_size: 8,
        sample_ratio,
        eval_every: usize::MAX,
        clip_grad_norm: None,
        seed: SEED,
        ..FlConfig::cross_device()
    };
    let source = Arc::new(GaussianSource::new(clients, SEED));
    let mut fed = Federation::lazy(
        source,
        SPEC.generate(64, None, &mut StdRng::seed_from_u64(SEED)),
        ModelFactory::logistic(DIM, CLASSES, 0.0),
        OptimizerFactory::sgd(0.05),
        &cfg,
        SEED,
    );
    let h = Trainer::new(cfg).pipelined().run(algo, &mut fed);
    let last = h.records().last().expect("two rounds ran");
    // 1,000,000 × 0.001f32 rounds up to 1,001.
    assert!(
        (1_000..=1_001).contains(&last.participants),
        "{clients} clients: {} sampled",
        last.participants
    );
    (last.train_loss, rfl_core::mem::peak_rss_bytes())
}

#[test]
fn peak_rss_follows_the_cohort_from_100k_to_1m_registered_clients() {
    type MakeAlgo = fn() -> Box<dyn Algorithm>;
    let legs: [(&str, MakeAlgo, usize, f32); 3] = [
        ("FedAvg", || Box::new(FedAvg::new()), 100_000, 0.01),
        ("FedAvg", || Box::new(FedAvg::new()), 1_000_000, 0.001),
        (
            "SCAFFOLD",
            || Box::new(Scaffold::new(1.0)),
            1_000_000,
            0.001,
        ),
    ];
    for (name, make, clients, sample_ratio) in legs {
        let (loss, peak) = run_leg(make().as_mut(), clients, sample_ratio);
        assert!(
            loss.is_finite(),
            "{name}, {clients} clients diverged: loss {loss}"
        );
        assert!(
            peak <= RSS_CEILING_BYTES,
            "{name}, {clients} registered clients peaked at {peak} resident bytes, \
             above the ceiling of {RSS_CEILING_BYTES}"
        );
        println!("{name}, {clients} registered: peak RSS {peak} bytes, loss {loss}");
    }
}
