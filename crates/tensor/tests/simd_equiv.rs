//! Bit-exact equivalence of the dispatched SIMD kernels and the canonical
//! scalar reference, for every kernel in `rfl_tensor::simd`.
//!
//! The dispatched path (AVX2 where the CPU has it, scalar otherwise) is
//! compared against `simd::scalar::*` directly — not by flipping the global
//! dispatch switch, which would race with sibling tests. On AVX2 hardware
//! this pins vector ≡ scalar bit-for-bit; on scalar-only hardware it
//! degenerates to scalar ≡ scalar, and the `RFL_SIMD=0` CI leg covers the
//! other direction by running the whole suite on the fallback.
//!
//! Lengths cover the ragged cases (0, 1, tail-only, exactly one vector,
//! vector ± 1, many vectors) and every slice is additionally re-checked at
//! unaligned offsets, since `loadu`/`storeu` must not care about alignment.

use proptest::prelude::*;
use rfl_tensor::simd::{self, scalar};

/// Ragged lengths: empty, sub-vector, exact multiples of the 8 lanes, and
/// off-by-one around them.
const LENS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100];

/// Offsets into an over-allocated buffer; 1 and 3 floats break 32-byte
/// (and even 16-byte) alignment.
const OFFSETS: &[usize] = &[0, 1, 3];

fn ragged_len() -> impl Strategy<Value = usize> {
    (0usize..LENS.len()).prop_map(|i| LENS[i])
}

fn offset() -> impl Strategy<Value = usize> {
    (0usize..OFFSETS.len()).prop_map(|i| OFFSETS[i])
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Deterministic pseudo-random vector (LCG), so failures are reproducible
/// from the generated `seed` printed by the harness.
fn det_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 40) as f32 / (1u64 << 24) as f32;
            u * 100.0 - 50.0
        })
        .collect()
}

proptest! {
    #[test]
    fn dot_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        let a = det_vec(len + off, seed_a);
        let b = det_vec(len + off, seed_b);
        prop_assert_eq!(
            simd::dot_slices(&a[off..], &b[off..]).to_bits(),
            scalar::dot(&a[off..], &b[off..]).to_bits()
        );
    }

    #[test]
    fn dot_tile_dispatched_eq_scalar(len in ragged_len(), off in offset(), seed in 0u64..1_000_000) {
        let a: Vec<Vec<f32>> = (0..2).map(|i| det_vec(len + off, seed ^ (20 + i))).collect();
        let b: Vec<Vec<f32>> = (1..5).map(|i| det_vec(len + off, seed ^ i)).collect();
        let (a0, a1) = (&a[0][off..], &a[1][off..]);
        let b = [&b[0][off..], &b[1][off..], &b[2][off..], &b[3][off..]];
        let got = simd::dot_tile_slices([a0, a1], b);
        prop_assert_eq!(got.map(|r| r.map(f32::to_bits)), scalar::dot_tile([a0, a1], b).map(|r| r.map(f32::to_bits)));
        // The one-row tile, and eight independent dots, say the same.
        prop_assert_eq!(got[1].map(f32::to_bits), simd::dot_tile_slices([a1], b)[0].map(f32::to_bits));
        for (row, ar) in got.iter().zip([a0, a1]) {
            for (g, bj) in row.iter().zip(b) {
                prop_assert_eq!(g.to_bits(), simd::dot_slices(ar, bj).to_bits());
            }
        }
    }

    #[test]
    fn axpy_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        a in -4.0f32..4.0,
        seed in 0u64..1_000_000,
    ) {
        let x = det_vec(len + off, seed);
        let mut y1 = det_vec(len, seed ^ 5);
        let mut y2 = y1.clone();
        simd::axpy_slices(&mut y1, a, &x[off..]);
        scalar::axpy(&mut y2, a, &x[off..]);
        prop_assert_eq!(bits(&y1), bits(&y2));
    }

    #[test]
    fn sq_dist_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        let a = det_vec(len + off, seed_a);
        let b = det_vec(len + off, seed_b);
        prop_assert_eq!(
            simd::sq_dist_slices(&a[off..], &b[off..]).to_bits(),
            scalar::sq_dist(&a[off..], &b[off..]).to_bits()
        );
    }

    #[test]
    fn sum_dispatched_eq_scalar(len in ragged_len(), off in offset(), seed in 0u64..1_000_000) {
        let a = det_vec(len + off, seed);
        prop_assert_eq!(
            simd::sum_slices(&a[off..]).to_bits(),
            scalar::sum(&a[off..]).to_bits()
        );
    }

    #[test]
    fn add_assign_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed in 0u64..1_000_000,
    ) {
        let x = det_vec(len + off, seed);
        let mut y1 = det_vec(len, seed ^ 7);
        let mut y2 = y1.clone();
        simd::add_assign_slices(&mut y1, &x[off..]);
        scalar::add_assign(&mut y2, &x[off..]);
        prop_assert_eq!(bits(&y1), bits(&y2));
    }

    #[test]
    fn scale_and_scale_add_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        a in -4.0f32..4.0,
        b in -4.0f32..4.0,
        seed in 0u64..1_000_000,
    ) {
        let src = det_vec(len + off, seed);
        let mut y1 = src[off..].to_vec();
        let mut y2 = y1.clone();
        simd::scale_slices(&mut y1, a);
        scalar::scale(&mut y2, a);
        prop_assert_eq!(bits(&y1), bits(&y2));
        simd::scale_add_slices(&mut y1, a, b);
        scalar::scale_add(&mut y2, a, b);
        prop_assert_eq!(bits(&y1), bits(&y2));
    }

    #[test]
    fn exp_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        scale in -3.0f32..3.0,
        bias in -3.0f32..3.0,
        seed in 0u64..1_000_000,
    ) {
        let src = det_vec(len + off, seed);
        let mut y1 = src[off..].to_vec();
        let mut y2 = y1.clone();
        simd::exp_slices(&mut y1, scale, bias);
        scalar::exp(&mut y2, scale, bias);
        prop_assert_eq!(bits(&y1), bits(&y2));
    }

    #[test]
    fn tanh_sigmoid_relu_dispatched_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed in 0u64..1_000_000,
    ) {
        let src = det_vec(len + off, seed);
        let mut y1 = src[off..].to_vec();
        let mut y2 = y1.clone();
        simd::tanh_slices(&mut y1);
        scalar::tanh(&mut y2);
        prop_assert_eq!(bits(&y1), bits(&y2));
        simd::sigmoid_slices(&mut y1);
        scalar::sigmoid(&mut y2);
        prop_assert_eq!(bits(&y1), bits(&y2));
        simd::relu_slices(&mut y1);
        scalar::relu(&mut y2);
        prop_assert_eq!(bits(&y1), bits(&y2));
    }

    /// The fused LSTM cell, hidden sizes on both sides of the 8-lane
    /// boundary (the backward pass is one plain-Rust body on both paths and
    /// is pinned against its oracle in `rfl-nn`'s `lstm_oracle.rs`).
    #[test]
    fn lstm_cell_forward_dispatched_eq_scalar(
        n in 1usize..=5,
        hd in 1usize..=19,
        off in offset(),
        seed in 0u64..1_000_000,
    ) {
        // det_vec spans ±50: saturated and unsaturated gates both occur.
        let gates = det_vec(n * 4 * hd + off, seed);
        let zh = det_vec(n * 4 * hd + off, seed ^ 1);
        let bias = det_vec(4 * hd + off, seed ^ 2);
        let c = det_vec(n * hd + off, seed ^ 3);
        let (mut g1, mut c1) = (gates[off..].to_vec(), c[off..].to_vec());
        let (mut g2, mut c2) = (g1.clone(), c1.clone());
        let (mut tc1, mut h1) = (vec![f32::NAN; n * hd], vec![f32::NAN; n * hd]);
        let (mut tc2, mut h2) = (tc1.clone(), h1.clone());
        simd::lstm_cell_forward_slices(&mut g1, &zh[off..], &bias[off..], &mut c1, &mut tc1, &mut h1);
        scalar::lstm_cell_forward(&mut g2, &zh[off..], &bias[off..], &mut c2, &mut tc2, &mut h2);
        prop_assert_eq!(bits(&g1), bits(&g2));
        prop_assert_eq!(bits(&c1), bits(&c2));
        prop_assert_eq!(bits(&tc1), bits(&tc2));
        prop_assert_eq!(bits(&h1), bits(&h2));
    }

    /// Extreme exp inputs (overflow/underflow region, ±inf, NaN) must clamp
    /// identically on both paths and never produce an infinity.
    #[test]
    fn exp_extremes_dispatched_eq_scalar(off in offset(), pad in -1.0f32..1.0) {
        let mut extremes = vec![pad; off];
        extremes.extend_from_slice(&[
            1000.0, -1000.0, 88.02, -87.33, 89.0, -89.0, 127.5 * std::f32::consts::LN_2,
            f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0, 1.0, -1.0, 700.0, -700.0,
        ]);
        let mut y1 = extremes[off..].to_vec();
        let mut y2 = y1.clone();
        simd::exp_slices(&mut y1, 1.0, 0.0);
        scalar::exp(&mut y2, 1.0, 0.0);
        prop_assert_eq!(bits(&y1), bits(&y2));
        prop_assert!(y1.iter().all(|v| v.is_finite()));
    }
}

/// Non-proptest smoke check that on this machine's hardware the dispatched
/// path actually *is* AVX2 when available — otherwise the whole file only
/// proves scalar ≡ scalar.
#[test]
fn dispatch_reports_a_backend() {
    let backend = rfl_tensor::simd_backend();
    assert!(backend == "avx2" || backend == "scalar", "{backend}");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::env::var("RFL_SIMD").as_deref() != Ok("0")
        {
            assert_eq!(backend, "avx2");
        }
    }
}
