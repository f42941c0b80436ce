//! Allocation gate for the zero-allocation hot path.
//!
//! Counts heap-allocator calls with a counting global allocator: a warm CNN
//! or LSTM training step makes none to speak of where the cold first step
//! (every workspace, layer cache and batch buffer filled for the first time)
//! makes dozens; a warm quantized round allocates no more than a dense one;
//! a warm client-round of the lazy registry's materialize → train →
//! hibernate cycle stays in single digits. The canonical loss is re-checked
//! so the reuse provably did not change the arithmetic.
//!
//! This file holds exactly one test function, and that is load-bearing: the
//! counter is process-wide, so a second test running on a sibling thread
//! would charge its allocator calls to whichever leg is being measured here.
//! An integration test is its own process, which is also what lets it
//! declare a `#[global_allocator]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::FedAvg;
use rfl_core::compress::Compression;
use rfl_core::round::run_round;
use rfl_core::{
    canonical, Client, Federation, FlConfig, LocalRule, MaterializedSource, ModelFactory,
    OptimizerFactory,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::synth::text::SynthTextSpec;
use rfl_data::Dataset;
use rfl_nn::{CnnClassifier, CnnConfig, LstmClassifier, LstmConfig, RmsProp, Sgd};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `alloc` + `alloc_zeroed` + `realloc` calls since process start. Frees are
/// not charged: the gate is about allocator traffic on the hot path, and
/// every steady-state allocation has a matching free.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter is a
// plain atomic and cannot affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Ceiling on allocator calls per warm training step. The steady state is
/// allocation-free today; the headroom covers a rare capacity regrow while
/// still failing on any real per-step allocation creeping back in.
const WARM_STEP_CEILING: f64 = 4.0;
/// The cold first step must cost at least this many times a warm one (the
/// warm count floored at one call, so an allocation-free steady state gives
/// a finite ratio).
const MIN_COLD_WARM_RATIO: f64 = 10.0;
/// Extra allocator calls a warm *compressed* round may make over a dense
/// one. The error-feedback buffers, payload sections and fold workspaces are
/// all pooled, so the steady-state overhead is zero.
const COMPRESSED_ROUND_OVERHEAD: f64 = 4.0;
/// Allocator calls a warm client-round of the lazy lifecycle may make:
/// wake (a recycled shell, the record's slot, the source's `Dataset`
/// clone), one local step, upload, hibernate. The clone is a
/// reference-count bump and allocates nothing, so what is left once shells
/// are recycled is the round's own bookkeeping — measured 1.29 (4.43 while
/// the source handed each wake a copy of its shard, 4.7 to 4.9 while
/// separate prefetch and hibernate waves ran the round). Rebuilding the
/// replica and the step-loop buffers for every sampled client, as the
/// registry did before it kept a shell list, reads 55.6 and fails the gate.
const LIFECYCLE_CEILING: f64 = 6.0;

const SEED: u64 = 7;
const WARM_STEPS: usize = 16;
const WARM_ROUNDS: usize = 8;

fn cnn_client() -> Client {
    let mut rng = StdRng::seed_from_u64(SEED);
    let data = SynthImageSpec::mnist_like().generate(64, &mut rng);
    let model = Box::new(CnnClassifier::new(CnnConfig::mnist_like(), &mut rng));
    Client::new(0, model, data, Box::new(Sgd::new(0.05)), 16, SEED)
}

/// The sent140-like LSTM client at the paper's batch size (embedding, two
/// LSTM layers' BPTT caches, RMSProp).
fn lstm_client() -> Client {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (data, _) = SynthTextSpec::sent140_like().generate_users(1, 80, &mut rng);
    let model = Box::new(LstmClassifier::new(LstmConfig::sent140_like(), &mut rng));
    Client::new(0, model, data, Box::new(RmsProp::new(0.01)), 20, SEED)
}

/// Allocator calls of `client`'s cold first step, and per step of its warm
/// steady state after eight more steps have settled the lazily grown
/// capacities (epoch reshuffle boundary, workspace high-water marks).
fn step_allocs(mut client: Client) -> (u64, f64) {
    let cold = allocs_during(|| {
        client.train_local(1, &LocalRule::Plain);
    });
    client.train_local(8, &LocalRule::Plain);
    let warm = allocs_during(|| {
        client.train_local(WARM_STEPS, &LocalRule::Plain);
    });
    (cold, warm as f64 / WARM_STEPS as f64)
}

/// Allocator calls per warm FedAvg round of the canonical federation under
/// `policy`. The first rounds fill the compression workspaces (`comp_*`
/// buffers, client residuals, payload sections); every further round must
/// reuse them.
fn warm_round_allocs(policy: Compression) -> f64 {
    let data = canonical::data(SEED);
    let mut cfg = canonical::config(SEED, 4 + WARM_ROUNDS);
    cfg.compression = policy;
    let mut fed = Federation::new(
        &data,
        canonical::model(),
        canonical::optimizer(),
        &cfg,
        SEED,
    );
    let mut algo = FedAvg::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..4 {
        run_round(&mut algo, &mut fed, &cfg, &mut rng);
    }
    let warm = allocs_during(|| {
        for _ in 0..WARM_ROUNDS {
            run_round(&mut algo, &mut fed, &cfg, &mut rng);
        }
    });
    warm as f64 / WARM_ROUNDS as f64
}

/// The lazy lifecycle at the `scale_lazy` workload's shape (logistic 32 → 4,
/// 32 samples per client, batch 8, one local step, streamed FedAvg), with
/// 100 of 400 clients a round: small enough that every client has been
/// sampled before the warm rounds start, so they measure the cycle and not
/// first-time persists. Returns allocator calls per client-round of the cold
/// first round and of the warm rounds.
fn lifecycle_allocs() -> (f64, f64) {
    const CLIENTS: usize = 400;
    const COHORT: f64 = 100.0;
    const SETTLE: usize = 24;
    let spec = GaussianMixtureSpec {
        dim: 32,
        classes: 4,
        ..GaussianMixtureSpec::default_spec()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let shards: Vec<Dataset> = (0..CLIENTS)
        .map(|_| spec.generate(32, None, &mut rng))
        .collect();
    let cfg = FlConfig {
        rounds: SETTLE + WARM_ROUNDS,
        local_steps: 1,
        batch_size: 8,
        sample_ratio: 0.25,
        eval_every: usize::MAX,
        clip_grad_norm: None,
        seed: SEED,
        ..FlConfig::cross_device()
    };
    let mut fed = Federation::lazy(
        Arc::new(MaterializedSource::new(shards)),
        spec.generate(32, None, &mut rng),
        ModelFactory::logistic(32, 4, 0.0),
        OptimizerFactory::sgd(0.05),
        &cfg,
        SEED,
    );
    fed.enable_streamed_selection(SEED);
    let mut algo = FedAvg::new();
    let mut round = |fed: &mut Federation, r: usize| {
        fed.begin_round(r as u64);
        run_round(&mut algo, fed, &cfg, &mut rng);
    };
    let cold = allocs_during(|| round(&mut fed, 0));
    for r in 1..SETTLE {
        round(&mut fed, r);
    }
    let warm = allocs_during(|| {
        for r in SETTLE..cfg.rounds {
            round(&mut fed, r);
        }
    });
    (
        cold as f64 / COHORT,
        warm as f64 / (WARM_ROUNDS as f64 * COHORT),
    )
}

#[test]
fn warm_paths_stay_off_the_allocator() {
    // One thread, so worker-pool start-up does not land in a counted region.
    rfl_tensor::set_thread_budget(1);

    let (cnn_cold, cnn_warm) = step_allocs(cnn_client());
    assert!(
        cnn_warm <= WARM_STEP_CEILING,
        "{cnn_warm:.2} allocator calls per warm CNN step (ceiling {WARM_STEP_CEILING})"
    );
    let ratio = cnn_cold as f64 / cnn_warm.max(1.0);
    assert!(
        ratio >= MIN_COLD_WARM_RATIO,
        "cold CNN step {cnn_cold} calls vs warm {cnn_warm:.2}: ratio {ratio:.1} \
         is under {MIN_COLD_WARM_RATIO}"
    );

    let (_, lstm_warm) = step_allocs(lstm_client());
    assert!(
        lstm_warm <= WARM_STEP_CEILING,
        "{lstm_warm:.2} allocator calls per warm LSTM step (ceiling {WARM_STEP_CEILING})"
    );

    let dense = warm_round_allocs(Compression::None);
    let quantized = warm_round_allocs(Compression::Quantize { bits: 4 });
    assert!(
        quantized <= dense + COMPRESSED_ROUND_OVERHEAD,
        "a warm quantize:4 round makes {quantized:.2} allocator calls, a dense one {dense:.2}"
    );

    let (lifecycle_cold, lifecycle_warm) = lifecycle_allocs();
    assert!(
        lifecycle_warm <= LIFECYCLE_CEILING,
        "a warm lazy client-round makes {lifecycle_warm:.2} allocator calls \
         (cold {lifecycle_cold:.2}); ceiling is {LIFECYCLE_CEILING}"
    );

    let (seed, rounds) = (canonical::SEED, canonical::ROUNDS);
    let (data, cfg) = (canonical::data(seed), canonical::config(seed, rounds));
    let (model, optimizer) = (canonical::model(), canonical::optimizer());
    let mut fed = Federation::new(&data, model, optimizer, &cfg, seed);
    let h = canonical::run(&mut fed, seed, rounds);
    let loss = h.records().last().expect("a round ran").train_loss as f64;
    assert!(
        canonical::loss_matches_pin(loss),
        "canonical loss {loss:.9} != pinned {}",
        canonical::PINNED_ROUND_LOSS
    );

    println!(
        "allocator calls: CNN step cold {cnn_cold} / warm {cnn_warm:.2}, LSTM step warm \
         {lstm_warm:.2}, round dense {dense:.2} / quantize:4 {quantized:.2}, lazy client-round \
         cold {lifecycle_cold:.2} / warm {lifecycle_warm:.2}; canonical loss {loss:.9}"
    );
}
