//! Where one LSTM training step goes, layer by layer and kernel by kernel.
//!
//! Builds the sent140-like model of [`rfl_nn::LstmClassifier`] out of its
//! layers (embedding 128 × 16, two LSTMs of 32 hidden units, FC 32 → 32,
//! tanh, FC 32 → 2), runs warmed-up training steps on a batch of 20
//! sequences of 16 tokens at a thread budget of 1, and prints the median
//! microseconds and share of the step for each of its nine passes: the
//! embedding, each LSTM layer's forward and backward, the head (last hidden
//! state → logits, and back) and the loss.
//!
//! Below that, each LSTM layer's step is replayed kernel by kernel on the
//! operands the step just used (its weights, its input and the gradient it
//! received), each kind summed over the 16 timesteps: the `nn` products
//! (`x·Wx`, `h·Wh`), the fused cell forward, the fused cell backward, the
//! `transa` products (`xᵀ·dz`, `hᵀ·dz`: the weight gradients) and the
//! `transb` products (`dz·Wxᵀ`, `dz·Whᵀ`: the input and hidden gradients).
//!
//! The header names the SIMD tier that ran (`simd_backend()`): the widest
//! the CPU has, or the one `--tier` names (a tier the CPU lacks exits with
//! status 2).
//!
//! Run with: `cargo run --release -p rfl-nn --example lstm_layers [--iters N]
//! [--tier scalar|avx2|avx512]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfl_nn::{cross_entropy_into, Embedding, Layer, Linear, Lstm, LstmConfig, Tanh};
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{
    lstm_cell_backward_slices, lstm_cell_forward_slices, set_thread_budget, simd_backend,
    LstmCellCache, Tensor,
};
use std::time::Instant;

const BATCH: usize = 20;
const STEPS: usize = 16;

/// The passes of one step, in the order they run.
const PASSES: [&str; 9] = [
    "embed.forward",
    "lstm1.forward",
    "lstm2.forward",
    "head.forward",
    "loss",
    "head.backward",
    "lstm2.backward",
    "lstm1.backward",
    "embed.backward",
];

/// The kernel kinds of one LSTM layer's step, each summed over the
/// timesteps.
const KERNELS: [&str; 5] = ["nn", "cell.forward", "cell.backward", "transa", "transb"];

struct Net {
    embed: Embedding,
    lstm1: Lstm,
    lstm2: Lstm,
    fc_feat: Linear,
    tanh: Tanh,
    fc_out: Linear,
}

/// Every activation and gradient of one step, kept apart so the replays
/// can re-read their operands: `[emb, h1, h2, last, feat, act, logits,
/// log_p, dlogits, dact, dfeat, dlast, dh2, dh1, demb]`.
type Buffers = [Tensor; 15];

/// Runs one step, writing each pass's seconds into `pass`.
fn step(net: &mut Net, tokens: &[Vec<u32>], labels: &[usize], b: &mut Buffers, pass: &mut [f64]) {
    let [emb, h1, h2, last, feat, act, logits, log_p, dlogits, dact, dfeat, dlast, dh2, dh1, demb] =
        b;
    let mut clock = Instant::now();
    let mut lap = |i: usize| {
        let now = Instant::now();
        pass[i] = (now - clock).as_secs_f64();
        clock = now;
    };
    net.embed.forward_into(tokens, emb);
    lap(0);
    net.lstm1.forward_into(emb, h1, true);
    lap(1);
    net.lstm2.forward_into(h1, h2, true);
    lap(2);
    let h = net.lstm2.hidden();
    last.resize(&[BATCH, h]);
    last.data_mut()
        .copy_from_slice(&h2.data()[(STEPS - 1) * BATCH * h..]);
    net.fc_feat.forward_into(last, feat, true);
    net.tanh.forward_into(feat, act, true);
    net.fc_out.forward_into(act, logits, true);
    lap(3);
    cross_entropy_into(logits, labels, log_p, dlogits);
    lap(4);
    net.fc_out.backward_into(dlogits, dact);
    net.tanh.backward_into(dact, dfeat);
    net.fc_feat.backward_into(dfeat, dlast);
    dh2.resize(&[STEPS, BATCH, h]);
    dh2.fill(0.0);
    dh2.data_mut()[(STEPS - 1) * BATCH * h..].copy_from_slice(dlast.data());
    lap(5);
    net.lstm2.backward_into(dh2, dh1);
    lap(6);
    net.lstm1.backward_into(dh1, demb);
    lap(7);
    net.embed.backward(demb);
    lap(8);
}

/// One LSTM layer's timestep loop, forward then backward, on the kernels
/// `Lstm` calls, with the buffers it would hold; reused across replays.
struct Replay {
    /// Per timestep: the activated gates, `tanh c`, `h` and `c` before it.
    steps: Vec<[Tensor; 4]>,
    /// `[x_t, zh, h, c, dz, dc_prev, dh_next, dc_next, dwx, dwh, dx]`.
    s: [Tensor; 11],
}

impl Replay {
    fn new() -> Self {
        Replay {
            steps: (0..STEPS)
                .map(|_| std::array::from_fn(|_| Tensor::scratch()))
                .collect(),
            s: std::array::from_fn(|_| Tensor::scratch()),
        }
    }

    /// Replays `layer` on `input [T, N, D]` and `dout [T, N, H]`, writing
    /// each kernel kind's seconds, summed over the timesteps, into `secs`.
    fn run(&mut self, layer: &Lstm, input: &Tensor, dout: &Tensor, secs: &mut [f64]) {
        let (wx, wh, bias) = (&layer.wx.value, &layer.wh.value, layer.b.value.data());
        let (d, hd) = (layer.in_dim(), layer.hidden());
        let [x_t, zh, h, c, dz, dc_prev, dh_next, dc_next, dwx, dwh, dx] = &mut self.s;
        let x_at = |t: usize, x_t: &mut Tensor| {
            x_t.resize(&[BATCH, d]);
            x_t.data_mut()
                .copy_from_slice(&input.data()[t * BATCH * d..(t + 1) * BATCH * d]);
        };
        h.resize(&[BATCH, hd]);
        h.fill(0.0);
        c.resize(&[BATCH, hd]);
        c.fill(0.0);
        secs.fill(0.0);
        for (t, [gates, tanh_c, h_prev, c_prev]) in self.steps.iter_mut().enumerate() {
            x_at(t, x_t);
            h_prev.assign(h);
            c_prev.assign(c);
            tanh_c.resize(&[BATCH, hd]);
            let t0 = Instant::now();
            x_t.matmul_into(wx, gates);
            h.matmul_into(wh, zh);
            let t1 = Instant::now();
            lstm_cell_forward_slices(
                gates.data_mut(),
                zh.data(),
                bias,
                c.data_mut(),
                tanh_c.data_mut(),
                h.data_mut(),
            );
            let t2 = Instant::now();
            secs[0] += (t1 - t0).as_secs_f64();
            secs[1] += (t2 - t1).as_secs_f64();
        }
        dh_next.resize(&[BATCH, hd]);
        dh_next.fill(0.0);
        dc_next.resize(&[BATCH, hd]);
        dc_next.fill(0.0);
        for (t, [gates, tanh_c, h_prev, c_prev]) in self.steps.iter().enumerate().rev() {
            dz.resize(&[BATCH, 4 * hd]);
            dc_prev.resize(&[BATCH, hd]);
            x_at(t, x_t);
            let cache = LstmCellCache {
                gates: gates.data(),
                tanh_c: tanh_c.data(),
                c_prev: c_prev.data(),
            };
            let t0 = Instant::now();
            lstm_cell_backward_slices(
                hd,
                cache,
                &dout.data()[t * BATCH * hd..(t + 1) * BATCH * hd],
                dh_next.data(),
                dc_next.data(),
                dz.data_mut(),
                dc_prev.data_mut(),
            );
            let t1 = Instant::now();
            x_t.matmul_transa_into(dz, dwx);
            h_prev.matmul_transa_into(dz, dwh);
            let t2 = Instant::now();
            dz.matmul_transb_into(wx, dx);
            dz.matmul_transb_into(wh, dh_next);
            let t3 = Instant::now();
            std::mem::swap(dc_next, dc_prev);
            secs[2] += (t1 - t0).as_secs_f64();
            secs[3] += (t2 - t1).as_secs_f64();
            secs[4] += (t3 - t2).as_secs_f64();
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
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
                    eprintln!("lstm_layers: this CPU lacks the {v} tier's features");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!(
                    "usage: lstm_layers [--iters N] [--tier scalar|avx2|avx512]   \
                     (N ≥ 1, default 200; the tier defaults to the widest the CPU has)"
                );
                std::process::exit(2);
            }
        }
    }
    set_thread_budget(1);

    let cfg = LstmConfig::sent140_like();
    let mut rng = StdRng::seed_from_u64(28);
    let mut net = Net {
        embed: Embedding::new(cfg.vocab, cfg.embed_dim, &mut rng),
        lstm1: Lstm::new(cfg.embed_dim, cfg.hidden, &mut rng),
        lstm2: Lstm::new(cfg.hidden, cfg.hidden, &mut rng),
        fc_feat: Linear::new(cfg.hidden, cfg.feature_dim, &mut rng),
        tanh: Tanh::new(),
        fc_out: Linear::new(cfg.feature_dim, cfg.num_classes, &mut rng),
    };
    let tokens: Vec<Vec<u32>> = (0..BATCH)
        .map(|_| {
            (0..STEPS)
                .map(|_| rng.gen_range(0..cfg.vocab as u32))
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..BATCH).map(|i| i % cfg.num_classes).collect();

    let mut b: Buffers = std::array::from_fn(|_| Tensor::scratch());
    let mut replays = [Replay::new(), Replay::new()];
    let mut pass = [0.0; PASSES.len()];
    let mut kernel = [[0.0; KERNELS.len()]; 2];
    let mut passes: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); PASSES.len()];
    let mut kernels: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); 2 * KERNELS.len()];
    for i in 0..iters.div_ceil(4).max(3) + iters {
        step(&mut net, &tokens, &labels, &mut b, &mut pass);
        let [emb, h1, .., dh2, dh1, _] = &b;
        replays[0].run(&net.lstm1, emb, dh1, &mut kernel[0]);
        replays[1].run(&net.lstm2, h1, dh2, &mut kernel[1]);
        if i >= iters.div_ceil(4).max(3) {
            for (samples, &s) in passes.iter_mut().zip(&pass) {
                samples.push(s);
            }
            for (samples, &s) in kernels.iter_mut().zip(kernel.as_flattened()) {
                samples.push(s);
            }
        }
    }

    let us: Vec<f64> = passes.iter_mut().map(|s| median(s) * 1e6).collect();
    let total: f64 = us.iter().sum();
    println!(
        "sent140-like LSTM, batch {BATCH}, {STEPS} timesteps, thread budget 1, simd {}, \
         median of {iters} steps",
        simd_backend()
    );
    println!("{:<24}{:>10}{:>9}", "pass", "us", "share");
    for (p, &t) in PASSES.iter().zip(&us) {
        println!("{p:<24}{t:>10.1}{:>8.1}%", 100.0 * t / total);
    }
    println!("{:<24}{total:>10.1}{:>8.1}%", "step", 100.0);
    println!(
        "{:<24}{:>10}{:>10}   (each summed over the {STEPS} timesteps)",
        "kernel", "lstm1_us", "lstm2_us"
    );
    let kus: Vec<f64> = kernels.iter_mut().map(|s| median(s) * 1e6).collect();
    for (k, name) in KERNELS.iter().enumerate() {
        println!("{name:<24}{:>10.1}{:>10.1}", kus[k], kus[KERNELS.len() + k]);
    }
}
