//! Where one lazy client's round goes: the wake, the step, the upload read
//! and the hibernation, with the wake's draws and the step's row
//! transforms split out.
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
//! - `wake draws`: what the wake draws off the client's own generator,
//!   replayed on it — the shift's `normal_fill` (32 values) and the shard's
//!   raw pairs (`draw_normal_pairs`, 32 × 32);
//! - the rest of `generate_with_means`: seeding, the shift's norm, and the
//!   deferred `Dataset` build (copies of the means and shift, the labels);
//! - the rest of the warm wake: assembling the client around a recycled
//!   shell, and installing the global;
//! - `gather transforms`: `normals_from_pairs` over the 8 rows one step
//!   reads, one call per row as the gather makes them;
//! - the rest of the local step (the sampler, the rows' means and shift,
//!   forward, loss, backward, update), the parameter read for upload, and
//!   the hibernation.
//!
//! A part that is a difference (the three "rest" rows) is the median of the
//! per-client differences. The header names the SIMD tier that ran
//! (`simd_backend()`): the widest the CPU has, or the one `--tier` names (a
//! tier the CPU lacks exits with status 2).
//!
//! Run with: `cargo run --release -p rfl-core --example lazy_cycle [--iters N]
//! [--tier scalar|avx2|avx512]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::compress::Compression;
use rfl_core::{
    ClientDataSource, ClientRegistry, FlConfig, LocalRule, ModelFactory, OptimizerFactory,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::fastmath::{draw_normal_pairs, normals_from_pairs};
use rfl_tensor::simd::{set_simd_tier, Tier};
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

/// Rows one local step reads.
const BATCH: usize = 8;

/// The parts of a client-round, in the order they are printed.
const PARTS: [&str; 7] = [
    "wake draws",
    "generate_with_means rest",
    "wake rest",
    "gather transforms",
    "local step rest",
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
    let mut iters: usize = 20_000;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().unwrap_or_default()) {
            ("--iters", v) if v.parse::<usize>().is_ok_and(|n| n > 0) => {
                iters = v.parse().expect("checked")
            }
            ("--tier", v) if v.parse::<Tier>().is_ok() => {
                let tier: Tier = v.parse().expect("checked");
                if !set_simd_tier(tier) {
                    eprintln!("lazy_cycle: this CPU lacks the {v} tier's features");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!(
                    "usage: lazy_cycle [--iters N] [--tier scalar|avx2|avx512]   \
                     (N ≥ 1, default 20000; the tier defaults to the widest the CPU has)"
                );
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
        batch_size: BATCH,
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
    // below finds its record and a recycled shell.
    for k in 0..COHORT {
        registry.hibernate(registry.materialize(k));
    }

    let (mut shift, mut pairs) = (vec![0.0f32; DIM], vec![0u64; EXAMPLES * DIM]);
    let mut rows = vec![0.0f32; BATCH * DIM];
    let mut upload = Vec::with_capacity(global.len());
    let warm = iters.div_ceil(4).max(COHORT);
    let mut parts: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); PARTS.len()];
    for i in 0..warm + iters {
        let k = i % COHORT;
        let t0 = Instant::now();
        let mut rng = client_rng(k);
        normal_fill(&mut rng, &mut shift);
        draw_normal_pairs(&mut rng, &mut pairs);
        black_box((&shift, &pairs));
        let t1 = Instant::now();
        black_box(source.dataset(k));
        let t2 = Instant::now();
        for (row, p) in rows.chunks_exact_mut(DIM).zip(pairs.chunks_exact(DIM)) {
            normals_from_pairs(p, row);
        }
        black_box(&rows);
        let t3 = Instant::now();
        let mut client = registry.materialize(k);
        let t4 = Instant::now();
        client.write_params(&global);
        let t5 = Instant::now();
        black_box(client.train_local(cfg.local_steps, &LocalRule::Plain));
        let t6 = Instant::now();
        client.read_params(&mut upload);
        black_box(&upload);
        let t7 = Instant::now();
        registry.hibernate(client);
        let t8 = Instant::now();
        if i < warm {
            continue;
        }
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let sample = [
            s(t0, t1),
            s(t1, t2) - s(t0, t1),
            s(t3, t4) - s(t1, t2) + s(t4, t5),
            s(t2, t3),
            s(t5, t6) - s(t2, t3),
            s(t6, t7),
            s(t7, t8),
        ];
        for (samples, v) in parts.iter_mut().zip(sample) {
            samples.push(v);
        }
    }

    let us: Vec<f64> = parts.iter_mut().map(|s| median(s) * 1e6).collect();
    let total: f64 = us.iter().sum();
    println!(
        "lazy client-round, gaussian d {DIM} x {EXAMPLES} examples, logistic {DIM} -> {CLASSES}, \
         batch {BATCH}, thread budget 1, simd {}, median of {iters} wakes",
        simd_backend()
    );
    println!("{:<28}{:>10}{:>9}", "part", "us", "share");
    for (p, &t) in PARTS.iter().zip(&us) {
        println!("{p:<28}{t:>10.3}{:>8.1}%", 100.0 * t / total);
    }
    println!("{:<28}{total:>10.3}{:>8.1}%", "client-round", 100.0);
}
