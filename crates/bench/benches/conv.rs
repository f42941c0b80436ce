//! Criterion: the channel-lane convolution, forward and backward, at thread
//! budget 1 vs. the machine default. These are the kernels behind every CNN
//! experiment's local-training time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_tensor::{
    conv2d, conv2d_backward, set_thread_budget, thread_budget, ConvSpec, Initializer, Tensor,
};

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let default_budget = thread_budget();
    let spec = ConvSpec {
        kernel: 3,
        stride: 1,
        pad: 1,
    };

    // The CIFAR-like second conv layer: batch 32, 8→16 channels on 16×16.
    let x = Initializer::Normal(1.0).init(&[32, 8, 16, 16], &mut rng);
    let w = Initializer::Normal(0.1).init(&[16, 8, 3, 3], &mut rng);
    let b = Tensor::zeros(&[16]);
    let y = conv2d(&x, &w, &b, spec);
    let dy = Tensor::ones(y.dims());

    let mut g = c.benchmark_group("conv");
    g.sample_size(20);
    g.bench_function("direct_fwd_1t", |bch| {
        set_thread_budget(1);
        bch.iter(|| conv2d(black_box(&x), &w, &b, spec));
    });
    g.bench_function(format!("direct_fwd_{default_budget}t"), |bch| {
        set_thread_budget(default_budget);
        bch.iter(|| conv2d(black_box(&x), &w, &b, spec));
    });
    g.bench_function("direct_bwd_1t", |bch| {
        set_thread_budget(1);
        bch.iter(|| conv2d_backward(black_box(&x), &w, &dy, spec));
    });
    g.bench_function(format!("direct_bwd_{default_budget}t"), |bch| {
        set_thread_budget(default_budget);
        bch.iter(|| conv2d_backward(black_box(&x), &w, &dy, spec));
    });
    g.finish();
    set_thread_budget(default_budget);
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
