//! Criterion: server-side aggregation cost vs participant count — the
//! weighted model average every algorithm performs each round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rfl_core::aggregate::weighted_average;

fn bench_aggregate(c: &mut Criterion) {
    let n_params = 30_000usize; // ≈ the CNN's parameter count
    let mut g = c.benchmark_group("aggregate");
    for &clients in &[4usize, 20, 100] {
        let params: Vec<Vec<f32>> = (0..clients)
            .map(|k| vec![k as f32 * 1e-3; n_params])
            .collect();
        let weights = vec![1.0 / clients as f32; clients];
        g.bench_with_input(
            BenchmarkId::new("weighted_average", clients),
            &clients,
            |b, _| b.iter(|| weighted_average(black_box(&params), black_box(&weights))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_aggregate);
criterion_main!(benches);
