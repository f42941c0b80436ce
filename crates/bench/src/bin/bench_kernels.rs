//! Kernel benchmark report for the blocked-GEMM / channel-lane-conv / SIMD work:
//! measures the shipped kernels against naive references, across thread
//! budgets, and across SIMD dispatch modes, and emits a JSON report
//! (`BENCH_PR5.json` via `scripts/bench-report.sh`).
//!
//! Usage: `bench_kernels [--smoke] [--simd off|on|both] [--out <path>]`
//!
//! `--smoke` shrinks repetition counts so CI can verify the harness runs
//! end-to-end in seconds; timings from a smoke run are not meaningful.
//! `--simd off|on` restricts the micro-kernel legs to one dispatch mode
//! (`both`, the default, measures scalar-vs-SIMD ratios in one process via
//! `set_simd_enabled`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfl_nn::{cross_entropy, Input, LstmClassifier, LstmConfig, Model, ModelOutput};
use rfl_tensor::{
    axpy_slices, conv2d_backward_into, conv2d_into, dot_slices, exp_slices, set_simd_enabled,
    set_thread_budget, simd_enabled, sq_dist_slices, thread_budget, Conv2dGrads, ConvSpec,
    Initializer, Tensor,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Seed-commit (14b076e) medians on this container, recorded before the
/// blocked/parallel kernels landed — the "before" column of the report.
const SEED_BASELINES: &[(&str, f64)] = &[
    ("gemm_256", 0.002618),
    ("gemm_transb_256", 0.004729),
    ("gemm_transa_256", 0.002004),
    ("conv_fwd", 0.025081),
    ("conv_bwd", 0.032118),
    ("mmd_all_k", 0.001881),
    ("mmd_mean_excluding_all", 0.000566),
    ("round_loop", 0.306919),
];

fn median_secs(mut f: impl FnMut(), reps: usize) -> f64 {
    let mut ts: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ts[ts.len() / 2]
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (ad, bd) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    Tensor::from_vec(c, &[m, n])
}

/// One small CNN federated run; returns (seconds, final train loss).
/// Delegates to the canonical pinned loop ([`rfl_core::canonical`]) shared
/// with the distributed binaries and the loopback integration tests, so
/// there is exactly one definition of the run this gate pins.
fn round_loop(seed: u64, rounds: usize) -> (f64, f64) {
    let t0 = Instant::now();
    let h = rfl_core::canonical::run_in_process(seed, rounds);
    (
        t0.elapsed().as_secs_f64(),
        h.records().last().unwrap().train_loss as f64,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let simd_mode = args
        .iter()
        .position(|a| a == "--simd")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "both".into());
    if !matches!(simd_mode.as_str(), "off" | "on" | "both") {
        eprintln!("--simd takes off|on|both, got {simd_mode:?}");
        std::process::exit(2);
    }
    let reps = if smoke { 1 } else { 7 };
    let default_budget = thread_budget();
    // The multi-thread arm: the machine default, or 2 workers when the
    // container only exposes one core (oversubscribed, but it still
    // exercises the cross-budget determinism contract honestly).
    let multi = default_budget.max(2);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0);

    // GEMM 256³: naive reference, blocked at 1 thread, blocked at default.
    let a = Initializer::Normal(1.0).init(&[256, 256], &mut rng);
    let b = Initializer::Normal(1.0).init(&[256, 256], &mut rng);
    if !smoke {
        let t = median_secs(
            || {
                std::hint::black_box(naive_matmul(&a, &b));
            },
            reps,
        );
        entries.push(("gemm_256_naive_ref".into(), t));
    }
    set_thread_budget(1);
    let t = median_secs(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        reps,
    );
    entries.push(("gemm_256_blocked_1t".into(), t));
    set_thread_budget(multi);
    let t = median_secs(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        reps,
    );
    entries.push((format!("gemm_256_blocked_{multi}t"), t));
    let c1 = {
        set_thread_budget(1);
        a.matmul(&b)
    };
    let cn = {
        set_thread_budget(multi);
        a.matmul(&b)
    };
    let gemm_bit_identical = c1.data() == cn.data();

    // The transposed products at 256³, and all three at the shapes one LSTM
    // timestep runs at B = 20, H = 32 (`h·Wh`, `h_prevᵀ·dz`, `dz·Whᵀ`): a
    // few microseconds each, so a sample is a batch of calls. Every leg is
    // also compared bitwise across thread budgets and SIMD modes.
    let simd_initially = simd_enabled();
    // Their own stream, so the legs below keep the inputs they always had.
    let mut lstm_rng = StdRng::seed_from_u64(1);
    let h20 = Initializer::Normal(1.0).init(&[20, 32], &mut lstm_rng);
    let wh = Initializer::Normal(0.1).init(&[32, 128], &mut lstm_rng);
    let dz = Initializer::Normal(1.0).init(&[20, 128], &mut lstm_rng);
    type Product = fn(&Tensor, &Tensor, &mut Tensor);
    let products: [(&str, Product, &Tensor, &Tensor, usize); 5] = [
        ("gemm_transa_256", Tensor::matmul_transa_into, &a, &b, 1),
        ("gemm_transb_256", Tensor::matmul_transb_into, &a, &b, 1),
        ("gemm_20x32x128", Tensor::matmul_into, &h20, &wh, 500),
        (
            "gemm_transa_32x20x128",
            Tensor::matmul_transa_into,
            &h20,
            &dz,
            500,
        ),
        (
            "gemm_transb_20x128x32",
            Tensor::matmul_transb_into,
            &dz,
            &wh,
            500,
        ),
    ];
    let mut products_bit_identical = true;
    let mut out = Tensor::scratch();
    for (name, product, lhs, rhs, calls) in products {
        let calls = if smoke { 1 } else { calls };
        set_thread_budget(1);
        let t = median_secs(
            || {
                for _ in 0..calls {
                    product(std::hint::black_box(lhs), rhs, &mut out);
                }
            },
            reps,
        );
        entries.push((format!("{name}_1t"), t / calls as f64));
        let reference = out.data().to_vec();
        for (simd, budget) in [(false, 1), (false, multi), (true, multi)] {
            set_simd_enabled(simd);
            set_thread_budget(budget);
            product(lhs, rhs, &mut out);
            products_bit_identical &= out.data() == reference;
        }
        set_simd_enabled(simd_initially);
    }

    // One training step of the sent140-like LstmClassifier at B = 20, T = 16:
    // forward, loss, backward (what `nn.lstm_fwd_s + nn.lstm_bwd_s` time).
    let mut lstm = LstmClassifier::new(LstmConfig::sent140_like(), &mut lstm_rng);
    let tokens: Vec<Vec<u32>> = (0..20)
        .map(|_| (0..16).map(|_| lstm_rng.gen_range(0..128)).collect())
        .collect();
    let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
    let input = Input::Tokens(tokens);
    let mut lstm_out = ModelOutput::scratch();
    let lstm_calls = if smoke { 1 } else { 20 };
    set_thread_budget(1);
    let t = median_secs(
        || {
            for _ in 0..lstm_calls {
                lstm.zero_grads();
                lstm.forward_into(std::hint::black_box(&input), &mut lstm_out, true);
                let (_, dlogits) = cross_entropy(&lstm_out.logits, &labels);
                lstm.backward(&dlogits, None);
            }
        },
        reps,
    );
    entries.push(("lstm_step_b20_1t".into(), t / lstm_calls as f64));
    set_thread_budget(default_budget);

    // Conv forward/backward, batch 32, 8→16 channels on 16×16, through the
    // `_into` entry points the models call (warm buffers, so the legs time
    // the channel-lane kernels and not the allocator). A 3×3 kernel on this
    // shape is ~1 ms, so each sample is a batch of calls.
    let x = Initializer::Normal(1.0).init(&[32, 8, 16, 16], &mut rng);
    let w = Initializer::Normal(0.1).init(&[16, 8, 3, 3], &mut rng);
    let bias = Tensor::zeros(&[16]);
    let spec = ConvSpec {
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let mut y = Tensor::scratch();
    conv2d_into(&x, &w, &bias, spec, &mut y);
    let dy = Tensor::ones(y.dims());
    let mut grads = Conv2dGrads::scratch();
    let mut conv_scratch = Vec::new();
    let conv_calls = if smoke { 1 } else { 10 };
    for (budget, label) in [(1usize, "1t".to_string()), (multi, format!("{multi}t"))] {
        set_thread_budget(budget);
        let t = median_secs(
            || {
                for _ in 0..conv_calls {
                    conv2d_into(std::hint::black_box(&x), &w, &bias, spec, &mut y);
                }
            },
            reps,
        );
        entries.push((format!("conv_fwd_{label}"), t / conv_calls as f64));
        let t = median_secs(
            || {
                for _ in 0..conv_calls {
                    conv2d_backward_into(
                        std::hint::black_box(&x),
                        &w,
                        &dy,
                        spec,
                        &mut grads,
                        &mut conv_scratch,
                    );
                }
            },
            reps,
        );
        entries.push((format!("conv_bwd_{label}"), t / conv_calls as f64));
    }
    set_thread_budget(default_budget);

    // SIMD micro-kernels: the same dispatched entry points timed with the
    // dispatch forced off (canonical scalar) and on (AVX2 where detected).
    // On scalar-only hardware both legs run the fallback and the ratio is
    // honestly ~1.0.
    let n = 4096usize;
    let iters = if smoke { 50 } else { 2000 };
    let xs: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin()).collect();
    let ys: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.11).cos()).collect();
    let mut legs: Vec<(&str, bool)> = Vec::new();
    if simd_mode != "on" {
        legs.push(("scalar", false));
    }
    if simd_mode != "off" {
        legs.push(("simd", true));
    }
    for (label, on) in &legs {
        set_simd_enabled(*on);
        let t = median_secs(
            || {
                let mut acc = 0.0f32;
                for _ in 0..iters {
                    acc += dot_slices(&xs, &ys);
                }
                std::hint::black_box(acc);
            },
            reps,
        );
        entries.push((format!("dot_4096_{label}"), t));
        let mut ybuf = ys.clone();
        let t = median_secs(
            || {
                for _ in 0..iters {
                    axpy_slices(&mut ybuf, 1e-6, &xs);
                }
                std::hint::black_box(&ybuf);
            },
            reps,
        );
        entries.push((format!("axpy_4096_{label}"), t));
        let t = median_secs(
            || {
                let mut acc = 0.0f32;
                for _ in 0..iters {
                    acc += sq_dist_slices(&xs, &ys);
                }
                std::hint::black_box(acc);
            },
            reps,
        );
        entries.push((format!("sq_dist_4096_{label}"), t));
        let mut ebuf = vec![0.0f32; n];
        let t = median_secs(
            || {
                for _ in 0..iters / 4 {
                    ebuf.copy_from_slice(&xs);
                    exp_slices(&mut ebuf, 0.5, 0.0);
                }
                std::hint::black_box(&ebuf);
            },
            reps,
        );
        entries.push((format!("exp_4096_{label}"), t));
        // GEMM at one thread so the comparison isolates the micro-kernel.
        set_thread_budget(1);
        let t = median_secs(
            || {
                std::hint::black_box(a.matmul(&b));
            },
            reps,
        );
        entries.push((format!("gemm_256_{label}"), t));
        set_thread_budget(default_budget);
    }
    set_simd_enabled(simd_initially);
    let mut simd_ratios: Vec<(&str, f64)> = Vec::new();
    if legs.len() == 2 {
        for k in [
            "dot_4096",
            "axpy_4096",
            "sq_dist_4096",
            "exp_4096",
            "gemm_256",
        ] {
            let find = |suffix: &str| {
                entries
                    .iter()
                    .find(|(name, _)| *name == format!("{k}_{suffix}"))
                    .map(|(_, v)| *v)
            };
            if let (Some(s), Some(v)) = (find("scalar"), find("simd")) {
                simd_ratios.push((k, s / v));
            }
        }
    }

    // MMD: pairwise O(N²·d) vs. batch O(N·d) over N=200 clients, d=64.
    let deltas: Vec<Vec<f32>> = (0..200)
        .map(|k| (0..64).map(|i| ((k * 31 + i) as f32).sin()).collect())
        .collect();
    let t = median_secs(
        || {
            let s: f32 = (0..deltas.len())
                .map(|k| rfl_core::mmd::regularizer_value(k, &deltas))
                .sum();
            std::hint::black_box(s);
        },
        reps,
    );
    entries.push(("mmd_all_k_pairwise".into(), t));
    let t = median_secs(
        || {
            let stats = rfl_core::mmd::MmdStats::new(&deltas);
            std::hint::black_box(stats.regularizer_values());
        },
        reps,
    );
    entries.push(("mmd_all_k_batch".into(), t));

    // Round loop at budget 1 vs. default; losses must be bit-identical.
    let rounds = if smoke { 1 } else { 2 };
    set_thread_budget(1);
    let (t1, loss1) = round_loop(7, rounds);
    entries.push(("round_loop_1t".into(), t1));
    set_thread_budget(multi);
    let (tn, lossn) = round_loop(7, rounds);
    entries.push((format!("round_loop_{multi}t"), tn));
    let round_bit_identical = loss1 == lossn;

    // The determinism contract's second axis: the whole round loop must be
    // bit-identical with dispatch forced to the scalar fallback.
    set_thread_budget(1);
    set_simd_enabled(false);
    let (_, loss_scalar) = round_loop(7, rounds);
    set_simd_enabled(simd_initially);
    set_thread_budget(default_budget);
    let simd_bit_identical = loss_scalar == loss1;

    #[cfg(target_arch = "x86_64")]
    let avx2_detected = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_detected = false;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"machine_cores\": {cores},");
    let _ = writeln!(json, "  \"default_thread_budget\": {default_budget},");
    let _ = writeln!(json, "  \"seed_commit\": \"14b076e\",");
    let _ = writeln!(json, "  \"avx2_detected\": {avx2_detected},");
    let _ = writeln!(
        json,
        "  \"simd_backend\": \"{}\",",
        rfl_tensor::simd_backend()
    );
    let _ = writeln!(
        json,
        "  \"gemm_bit_identical_across_budgets\": {gemm_bit_identical},"
    );
    let _ = writeln!(
        json,
        "  \"products_bit_identical_across_budgets_and_simd\": {products_bit_identical},"
    );
    let _ = writeln!(
        json,
        "  \"round_loop_bit_identical_across_budgets\": {round_bit_identical},"
    );
    let _ = writeln!(
        json,
        "  \"round_loop_bit_identical_simd_off_vs_on\": {simd_bit_identical},"
    );
    let _ = writeln!(json, "  \"round_loop_final_loss\": {loss1:.9},");
    let _ = writeln!(
        json,
        "  \"round_loss_note\": \"re-pinned for the canonical 8-lane kernels; the PR 4 pin predates them (see EXPERIMENTS.md)\","
    );
    json.push_str("  \"simd_speedup_scalar_over_simd\": {\n");
    for (i, (k, v)) in simd_ratios.iter().enumerate() {
        let comma = if i + 1 < simd_ratios.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{k}\": {v:.3}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"seed_baselines_secs\": {\n");
    for (i, (k, v)) in SEED_BASELINES.iter().enumerate() {
        let comma = if i + 1 < SEED_BASELINES.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    \"{k}\": {v:.6}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"measured_secs\": {\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{k}\": {v:.9}{comma}");
    }
    json.push_str("  }\n}\n");

    if !gemm_bit_identical || !products_bit_identical || !round_bit_identical || !simd_bit_identical
    {
        eprintln!("ERROR: results differ across thread budgets or SIMD modes");
        std::process::exit(1);
    }
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write report");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
