//! Criterion: visualization math — t-SNE iteration cost (the cost behind
//! regenerating Fig. 1).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_tensor::{Initializer, Tensor};
use rfl_viz::{Tsne, TsneConfig};

fn features(n: usize, d: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0);
    Initializer::Normal(1.0).init(&[n, d], &mut rng)
}

fn bench_viz(c: &mut Criterion) {
    let mut g = c.benchmark_group("viz");
    g.sample_size(10);
    for &n in &[50usize, 100] {
        let x = features(n, 64);
        g.bench_with_input(BenchmarkId::new("tsne_50iters", n), &n, |b, _| {
            let cfg = TsneConfig {
                iterations: 50,
                ..TsneConfig::default()
            };
            b.iter(|| Tsne::new(cfg).embed(black_box(&x)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_viz);
criterion_main!(benches);
