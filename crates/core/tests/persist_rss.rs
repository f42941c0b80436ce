//! Gate: bytes a hibernated client keeps resident.
//!
//! Builds a [`ClientRegistry`] of `scale_lazy`'s shape (a Gaussian mixture
//! of dimension 32 with 4 classes, 32 examples per client, logistic
//! regression 32 → 4, batch 8, plain SGD), materializes and hibernates
//! 50,000 fresh clients one at a time, and charges the resident growth to
//! the persisted clients. At 50,000 clients every shard's index is about
//! 76 % full at a thread budget of 1, 2 or 4 shards, so the reading does not
//! depend on where a table last doubled.
//!
//! A client's packed record is 18 words, 72 bytes in its shard's arena with
//! no malloc chunk around it, and its index entry (a `u32` id and a `u32`
//! offset, 9 bytes a bucket with the control byte, the table about 76 %
//! full) about 12 bytes: this reads 86–88 at 1, 2 and 4 shards. The
//! 20-word record whose header still gave the lengths of its optimizer
//! state and residual reads 94–95 and fails the ceiling; the record in a
//! 96-byte malloc chunk of its own under a 24-byte `(usize, Box<[u32]>)`
//! bucket, as a shard kept it before its arena, reads 130; a record that
//! still carries the 132
//! parameters — 154 words, a 624-byte chunk — reads 657, and the form a
//! hibernated client was kept in before records — a struct with three heap
//! allocations in a hash-map bucket — reads 1,051.
//!
//! This file holds exactly one test function: `VmRSS` is process-wide, and
//! a sibling test's memory would be charged to the clients.

#[path = "common/gaussian_source.rs"]
mod gaussian_source;

use gaussian_source::{GaussianSource, CLASSES, DIM};
use rfl_core::{ClientRegistry, FlConfig, ModelFactory, OptimizerFactory};
use std::sync::Arc;

const CLIENTS: usize = 50_000;
const SEED: u64 = 17;
/// Resident bytes one hibernated client may cost: its record, its share of
/// the index and of the allocator's bookkeeping. The highest reading (88)
/// plus a 4-byte margin.
const BYTES_PER_PERSISTED_CEILING: f64 = 92.0;

#[test]
fn a_hibernated_client_stays_under_its_byte_ceiling() {
    let model = ModelFactory::logistic(DIM, CLASSES, 0.0);
    let mut init = Vec::new();
    model.build(SEED).read_params(&mut init);
    let cfg = FlConfig {
        batch_size: 8,
        clip_grad_norm: None,
        seed: SEED,
        ..FlConfig::cross_device()
    };
    let source = Arc::new(GaussianSource::new(CLIENTS, SEED));
    let registry =
        ClientRegistry::new(source, model, OptimizerFactory::sgd(0.05), &cfg, SEED, init);
    let before = rfl_core::mem::current_rss_bytes();
    assert!(before > 0, "VmRSS is unreadable");
    for k in 0..CLIENTS {
        registry.hibernate(registry.materialize(k));
    }
    let grown = rfl_core::mem::current_rss_bytes().saturating_sub(before);
    let persisted = registry.num_persisted();
    assert_eq!(persisted, CLIENTS);
    let per_client = grown as f64 / persisted as f64;
    println!("{persisted} hibernated clients: {per_client:.0} resident bytes each");
    assert!(
        per_client <= BYTES_PER_PERSISTED_CEILING,
        "{per_client:.0} resident bytes per hibernated client, above the ceiling of \
         {BYTES_PER_PERSISTED_CEILING}"
    );
}
