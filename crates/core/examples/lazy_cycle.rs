//! Where one lazy client's round goes: the wake, the step, the upload read
//! and the hibernation, with the wake's data synthesis split out.
//!
//! Builds `scale_lazy`'s client source (a Gaussian mixture of dimension 32
//! with 4 classes, 32 examples per client, a feature shift of norm 1.0) and
//! model (logistic regression 32 → 4, batch 8, plain SGD) behind a
//! [`ClientRegistry`] at a thread budget of 1, hibernates a cohort of 1,000
//! clients once, and then cycles through them, each as a round does it:
//! wake (`materialize`), install the global (`write_params`), one local step,
//! read the parameters for upload, hibernate. It prints the median
//! microseconds and share of a client-round for each part:
//!
//! - `normal_fill`: the shard's two `normal_fill` calls (the 32-value shift
//!   and the 32 × 32 examples), replayed on the client's own generator;
//! - the rest of `generate_with_means`: seeding, the shift's norm, the
//!   means-and-shift pass and the `Dataset` build;
//! - the rest of the warm wake: assembling the client around a recycled
//!   shell, and installing the global;
//! - one local step, the parameter read for upload, and the hibernation.
//!
//! A part that is a difference (the two "rest" rows) is the median of the
//! per-client differences. The header names the SIMD tier that ran
//! (`simd_backend()`).
//!
//! Run with: `cargo run --release -p rfl-core --example lazy_cycle [--iters N]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::compress::Compression;
use rfl_core::{
    ClientDataSource, ClientRegistry, FlConfig, LocalRule, ModelFactory, OptimizerFactory,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::{normal_fill, set_thread_budget, simd_backend, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 32;
const CLASSES: usize = 4;
const EXAMPLES: usize = 32;
const SHIFT: f32 = 1.0;
/// Clients cycled through: one `scale_lazy` cohort.
const COHORT: usize = 1_000;
const SEED: u64 = 17;

const SPEC: GaussianMixtureSpec = GaussianMixtureSpec {
    dim: DIM,
    classes: CLASSES,
    sep: 2.0,
    noise: 1.0,
    mean_seed: 45,
};

/// The parts of a client-round, in the order they are printed.
const PARTS: [&str; 6] = [
    "normal_fill",
    "generate_with_means rest",
    "wake rest",
    "local step",
    "read params",
    "hibernate",
];

/// `scale_lazy`'s source: client `k`'s shard is a pure function of
/// `(seed, k)`, regenerated on every wake.
struct GaussianSource {
    means: Tensor,
}

fn client_rng(k: usize) -> StdRng {
    StdRng::seed_from_u64(SEED ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl ClientDataSource for GaussianSource {
    fn num_clients(&self) -> usize {
        COHORT
    }
    fn num_samples(&self, _k: usize) -> usize {
        EXAMPLES
    }
    fn dataset(&self, k: usize) -> Dataset {
        let mut rng = client_rng(k);
        let shift = SPEC.random_shift(SHIFT, &mut rng);
        SPEC.generate_with_means(&self.means, EXAMPLES, Some(&shift), &mut rng)
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut iters = 20_000;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().map(|v| v.parse::<usize>())) {
            ("--iters", Some(Ok(n))) if n > 0 => iters = n,
            _ => {
                eprintln!("usage: lazy_cycle [--iters N]   (N ≥ 1, default 20000)");
                std::process::exit(2);
            }
        }
    }
    set_thread_budget(1);

    let source = Arc::new(GaussianSource {
        means: SPEC.means(),
    });
    let model = ModelFactory::logistic(DIM, CLASSES, 0.0);
    let cfg = FlConfig {
        rounds: 1,
        local_steps: 1,
        batch_size: 8,
        sample_ratio: 0.01,
        eval_every: usize::MAX,
        parallel: false,
        clip_grad_norm: None,
        delta_probe_batch: None,
        seed: SEED,
        compression: Compression::None,
    };
    let mut global = Vec::new();
    model.build(SEED).read_params(&mut global);
    let registry = ClientRegistry::new(
        source.clone(),
        model,
        OptimizerFactory::sgd(0.05),
        &cfg,
        SEED,
        global.clone(),
    );
    // Every client of the cohort is built once and hibernated, so each wake
    // below finds its persist and a recycled shell.
    for k in 0..COHORT {
        registry.hibernate(registry.materialize(k));
    }

    let (mut shift, mut shard) = (vec![0.0f32; DIM], vec![0.0f32; EXAMPLES * DIM]);
    let mut upload = Vec::with_capacity(global.len());
    let warm = iters.div_ceil(4).max(COHORT);
    let mut parts: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); PARTS.len()];
    for i in 0..warm + iters {
        let k = i % COHORT;
        let t0 = Instant::now();
        let mut rng = client_rng(k);
        normal_fill(&mut rng, &mut shift);
        normal_fill(&mut rng, &mut shard);
        black_box((&shift, &shard));
        let t1 = Instant::now();
        black_box(source.dataset(k));
        let t2 = Instant::now();
        let mut client = registry.materialize(k);
        let t3 = Instant::now();
        client.write_params(&global);
        let t4 = Instant::now();
        black_box(client.train_local(cfg.local_steps, &LocalRule::Plain));
        let t5 = Instant::now();
        client.read_params(&mut upload);
        black_box(&upload);
        let t6 = Instant::now();
        registry.hibernate(client);
        let t7 = Instant::now();
        if i < warm {
            continue;
        }
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let sample = [
            s(t0, t1),
            s(t1, t2) - s(t0, t1),
            s(t2, t3) - s(t1, t2) + s(t3, t4),
            s(t4, t5),
            s(t5, t6),
            s(t6, t7),
        ];
        for (samples, v) in parts.iter_mut().zip(sample) {
            samples.push(v);
        }
    }

    let us: Vec<f64> = parts.iter_mut().map(|s| median(s) * 1e6).collect();
    let total: f64 = us.iter().sum();
    println!(
        "lazy client-round, gaussian d {DIM} x {EXAMPLES} examples, logistic {DIM} -> {CLASSES}, \
         batch 8, thread budget 1, simd {}, median of {iters} wakes",
        simd_backend()
    );
    println!("{:<28}{:>10}{:>9}", "part", "us", "share");
    for (p, &t) in PARTS.iter().zip(&us) {
        println!("{p:<28}{t:>10.3}{:>8.1}%", 100.0 * t / total);
    }
    println!("{:<28}{total:>10.3}{:>8.1}%", "client-round", 100.0);
}
