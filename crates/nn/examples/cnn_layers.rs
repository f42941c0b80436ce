//! Where one CNN training step goes, layer by layer.
//!
//! Builds the cifar-like (3×16×16) and mnist-like (1×16×16) CNNs of
//! [`rfl_nn::CnnClassifier`] out of their layers, runs warmed-up training
//! steps at batch 16 on a thread budget of 1, and prints the median
//! microseconds and share of the step for each of the 17 passes: the eight
//! forwards (each ReLU and max-pool one `ReluMaxPool` pass), the loss, the
//! seven backwards and conv1's params-only backward (nobody reads the first
//! layer's input gradient). Below each table, each
//! convolution's backward is split into its weight gradient
//! (`conv2d_backward_params_into`) and its input gradient (the full backward
//! less that), timed on the same operands beside the step. The header names
//! the SIMD tier that ran (`simd_backend()`): the widest the CPU has, or the
//! one `--tier` names (a tier the CPU lacks exits with status 2).
//!
//! Run with: `cargo run --release -p rfl-nn --example cnn_layers [--iters N]
//! [--tier scalar|avx2|avx512]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{cross_entropy_into, Conv2d, Flatten, Layer, Linear, Relu, ReluMaxPool};
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{
    conv2d_backward_into, conv2d_backward_params_into, set_thread_budget, simd_backend,
    Conv2dGrads, Initializer, Tensor,
};
use std::time::Instant;

const BATCH: usize = 16;
const IMAGE: usize = 16;

/// The passes of one step, in the order they run.
const PASSES: [&str; 17] = [
    "conv1.forward",
    "relupool1.forward",
    "conv2.forward",
    "relupool2.forward",
    "flatten.forward",
    "fc1.forward",
    "relu3.forward",
    "fc2.forward",
    "loss",
    "fc2.backward",
    "relu3.backward",
    "fc1.backward",
    "flatten.backward",
    "relupool2.backward",
    "conv2.backward",
    "relupool1.backward",
    "conv1.backward_params",
];

/// The four conv backward timings taken beside each step: conv1 params-only
/// and full, conv2 params-only and full.
const SPLITS: usize = 4;

struct Net {
    conv1: Conv2d,
    pool1: ReluMaxPool,
    conv2: Conv2d,
    pool2: ReluMaxPool,
    flatten: Flatten,
    fc1: Linear,
    relu3: Relu,
    fc2: Linear,
}

impl Net {
    /// The layers of `CnnClassifier` for `in_channels` (conv 8 → 16
    /// channels, FC 64 → 10 classes).
    fn new(in_channels: usize, rng: &mut StdRng) -> Self {
        let flat = 16 * (IMAGE / 4) * (IMAGE / 4);
        Net {
            conv1: Conv2d::new(in_channels, 8, 3, 1, 1, rng),
            pool1: ReluMaxPool::new(),
            conv2: Conv2d::new(8, 16, 3, 1, 1, rng),
            pool2: ReluMaxPool::new(),
            flatten: Flatten::new(),
            fc1: Linear::new(flat, 64, rng),
            relu3: Relu::new(),
            fc2: Linear::new(64, 10, rng),
        }
    }
}

/// Every activation and gradient of one step, kept apart so the conv
/// backward splits can re-read their operands.
struct Buffers {
    fwd: [Tensor; 8],
    log_p: Tensor,
    dlogits: Tensor,
    bwd: [Tensor; 7],
    grads: Conv2dGrads,
    scratch: Vec<f32>,
}

impl Buffers {
    fn new() -> Self {
        Buffers {
            fwd: std::array::from_fn(|_| Tensor::scratch()),
            log_p: Tensor::scratch(),
            dlogits: Tensor::scratch(),
            bwd: std::array::from_fn(|_| Tensor::scratch()),
            grads: Conv2dGrads::scratch(),
            scratch: Vec::new(),
        }
    }
}

/// Runs one step, writing each pass's seconds into `pass` and the conv
/// backward splits into `split`.
fn step(
    net: &mut Net,
    x: &Tensor,
    labels: &[usize],
    b: &mut Buffers,
    pass: &mut [f64; 17],
    split: &mut [f64; SPLITS],
) {
    let mut clock = Instant::now();
    let mut lap = |i: usize| {
        let now = Instant::now();
        pass[i] = (now - clock).as_secs_f64();
        clock = now;
    };
    let [c1, p1, c2, p2, fl, f1, r3, f2] = &mut b.fwd;
    net.conv1.forward_into(x, c1, true);
    lap(0);
    net.pool1.forward_into(c1, p1, true);
    lap(1);
    net.conv2.forward_into(p1, c2, true);
    lap(2);
    net.pool2.forward_into(c2, p2, true);
    lap(3);
    net.flatten.forward_into(p2, fl, true);
    lap(4);
    net.fc1.forward_into(fl, f1, true);
    lap(5);
    net.relu3.forward_into(f1, r3, true);
    lap(6);
    net.fc2.forward_into(r3, f2, true);
    lap(7);
    cross_entropy_into(f2, labels, &mut b.log_p, &mut b.dlogits);
    lap(8);
    let [d_f2, d_r3, d_f1, d_fl, d_p2, d_c2, d_p1] = &mut b.bwd;
    net.fc2.backward_into(&b.dlogits, d_f2);
    lap(9);
    net.relu3.backward_into(d_f2, d_r3);
    lap(10);
    net.fc1.backward_into(d_r3, d_f1);
    lap(11);
    net.flatten.backward_into(d_f1, d_fl);
    lap(12);
    net.pool2.backward_into(d_fl, d_p2);
    lap(13);
    net.conv2.backward_into(d_p2, d_c2);
    lap(14);
    net.pool1.backward_into(d_c2, d_p1);
    lap(15);
    net.conv1.backward_params(d_p1);
    lap(16);

    // The splits, on the operands the step just used.
    let convs = [(&net.conv1, x, &*d_p1), (&net.conv2, &*p1, &*d_p2)];
    for (k, (conv, input, dy)) in convs.into_iter().enumerate() {
        let (w, spec) = (&conv.weight.value, conv.spec());
        let t = Instant::now();
        conv2d_backward_params_into(input, w, dy, spec, &mut b.grads, &mut b.scratch);
        let t1 = Instant::now();
        conv2d_backward_into(input, w, dy, spec, &mut b.grads, &mut b.scratch);
        split[2 * k] = (t1 - t).as_secs_f64();
        split[2 * k + 1] = t1.elapsed().as_secs_f64();
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn profile(name: &str, in_channels: usize, iters: usize) {
    let mut rng = StdRng::seed_from_u64(26);
    let mut net = Net::new(in_channels, &mut rng);
    let x = Initializer::Normal(1.0).init(&[BATCH, in_channels, IMAGE, IMAGE], &mut rng);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    let mut b = Buffers::new();
    let (mut pass, mut split) = ([0.0; 17], [0.0; SPLITS]);
    for _ in 0..iters.div_ceil(4).max(3) {
        step(&mut net, &x, &labels, &mut b, &mut pass, &mut split);
    }
    let mut passes: Vec<Vec<f64>> = (0..PASSES.len())
        .map(|_| Vec::with_capacity(iters))
        .collect();
    let mut splits: Vec<Vec<f64>> = (0..SPLITS).map(|_| Vec::with_capacity(iters)).collect();
    for _ in 0..iters {
        step(&mut net, &x, &labels, &mut b, &mut pass, &mut split);
        for (samples, &s) in passes.iter_mut().zip(&pass) {
            samples.push(s);
        }
        for (samples, &s) in splits.iter_mut().zip(&split) {
            samples.push(s);
        }
    }
    let us: Vec<f64> = passes.iter_mut().map(|s| median(s) * 1e6).collect();
    let total: f64 = us.iter().sum();
    println!(
        "{name} CNN, batch {BATCH}, thread budget 1, simd {}, median of {iters} steps",
        simd_backend()
    );
    println!("{:<24}{:>10}{:>9}", "pass", "us", "share");
    for (p, &t) in PASSES.iter().zip(&us) {
        println!("{p:<24}{t:>10.1}{:>8.1}%", 100.0 * t / total);
    }
    println!("{:<24}{total:>10.1}{:>8.1}%", "step", 100.0);
    let [w1, full1, w2, full2] = [0, 1, 2, 3].map(|i| median(&mut splits[i]) * 1e6);
    println!(
        "{:<24}{:>10}{:>10}",
        "conv backward", "weight_us", "input_us"
    );
    for (conv, w, full) in [("conv1", w1, full1), ("conv2", w2, full2)] {
        println!("{conv:<24}{w:>10.1}{:>10.1}", full - w);
    }
    println!();
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut iters: usize = 200;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().unwrap_or_default()) {
            ("--iters", v) if v.parse::<usize>().is_ok_and(|n| n > 0) => {
                iters = v.parse().expect("checked")
            }
            ("--tier", v) if v.parse::<Tier>().is_ok() => {
                let tier: Tier = v.parse().expect("checked");
                if !set_simd_tier(tier) {
                    eprintln!("cnn_layers: this CPU lacks the {v} tier's features");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!(
                    "usage: cnn_layers [--iters N] [--tier scalar|avx2|avx512]   \
                     (N ≥ 1, default 200; the tier defaults to the widest the CPU has)"
                );
                std::process::exit(2);
            }
        }
    }
    set_thread_budget(1);
    profile("cifar-like", 3, iters);
    profile("mnist-like", 1, iters);
}
