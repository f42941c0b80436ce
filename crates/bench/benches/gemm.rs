//! Criterion: the blocked/packed GEMM kernels at the shapes the models
//! actually hit (FC layers, LSTM gate products), at thread budget 1 vs. the
//! machine default — the kernels behind Fig. 10's per-round compute cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_tensor::{set_thread_budget, thread_budget, Initializer};

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let default_budget = thread_budget();

    let mut g = c.benchmark_group("gemm");
    g.sample_size(20);
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (256, 256, 256)] {
        let a = Initializer::Normal(1.0).init(&[m, k], &mut rng);
        let b = Initializer::Normal(1.0).init(&[k, n], &mut rng);
        let bt = b.transpose();
        g.bench_function(format!("matmul_{m}x{k}x{n}_1t"), |bch| {
            set_thread_budget(1);
            bch.iter(|| black_box(&a).matmul(&b));
        });
        g.bench_function(format!("matmul_{m}x{k}x{n}_{default_budget}t"), |bch| {
            set_thread_budget(default_budget);
            bch.iter(|| black_box(&a).matmul(&b));
        });
        g.bench_function(format!("matmul_transb_{m}x{k}x{n}_1t"), |bch| {
            set_thread_budget(1);
            bch.iter(|| black_box(&a).matmul_transb(&bt));
        });
        g.bench_function(
            format!("matmul_transb_{m}x{k}x{n}_{default_budget}t"),
            |bch| {
                set_thread_budget(default_budget);
                bch.iter(|| black_box(&a).matmul_transb(&bt));
            },
        );
    }

    // The backward-pass shape: Aᵀ·B with the reduction over the batch.
    let a = Initializer::Normal(1.0).init(&[256, 256], &mut rng);
    let b = Initializer::Normal(1.0).init(&[256, 256], &mut rng);
    g.bench_function("matmul_transa_256_1t", |bch| {
        set_thread_budget(1);
        bch.iter(|| black_box(&a).matmul_transa(&b));
    });
    g.bench_function(format!("matmul_transa_256_{default_budget}t"), |bch| {
        set_thread_budget(default_budget);
        bch.iter(|| black_box(&a).matmul_transa(&b));
    });

    // Matrix-vector (the logistic/linear models' hot loop).
    let v = Initializer::Normal(1.0).init(&[256], &mut rng);
    g.bench_function("matvec_256", |bch| {
        set_thread_budget(default_budget);
        bch.iter(|| black_box(&a).matvec(&v));
    });
    g.finish();
    set_thread_budget(default_budget);
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
