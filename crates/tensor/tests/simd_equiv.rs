//! Bit-exact equivalence of every SIMD tier's kernels and the canonical
//! scalar reference, for every kernel in `rfl_tensor::simd`.
//!
//! Each tier's instance is called directly (`simd::avx2::*`,
//! `simd::avx512::*`) — not through the dispatch switch, which picks only the
//! widest tier and is process-wide — so on an AVX-512 machine the AVX2
//! bodies are tested too. A tier this CPU lacks is skipped, and the skip is
//! reported on stderr past the test harness's capture, so a CI log says which
//! tiers ran. The `RFL_SIMD=0` CI leg runs the whole suite on the scalar
//! fallback as well.
//!
//! Lengths cover the ragged cases around both register widths (0, 1, tail
//! only, exactly one 8- or 16-lane register, ± 1 around them, many), every
//! slice is re-checked at unaligned offsets (`loadu`/`storeu` must not care
//! about alignment), and operands carry ±0, ±inf, NaN and subnormals. A NaN
//! result is compared as "both NaN": IEEE 754 leaves its payload to the
//! order of an addition's operands, which the compiler may commute.

use proptest::prelude::*;
use rfl_tensor::simd::{self, scalar, LstmCellCache, Tier};

mod tiers;

/// Ragged lengths around the 8 and 16 lanes.
const LENS: &[usize] = &[
    0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 64, 100,
];

/// Offsets into an over-allocated buffer; 1 and 3 floats break every
/// vector alignment.
const OFFSETS: &[usize] = &[0, 1, 3];

/// The values that poison an operand: signed zeros, infinities, NaN and
/// subnormals.
const SPECIALS: [f32; 7] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0e-40,
    -3.0e-39,
];

/// The vector tiers this CPU runs (a missing one is reported).
fn tiers() -> Vec<Tier> {
    tiers::available(&[Tier::Avx2, Tier::Avx512])
}

/// Calls kernel `$f` of `$tier`'s module.
macro_rules! on {
    ($tier:expr, $f:ident($($arg:expr),* $(,)?)) => {{
        let tier: Tier = $tier;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tiers()` lists only tiers whose features this CPU has,
        // and every call below passes operands of the lengths the safe
        // wrapper of the same name asserts.
        let out = unsafe {
            match tier {
                Tier::Avx2 => simd::avx2::$f($($arg),*),
                Tier::Avx512 => simd::avx512::$f($($arg),*),
                Tier::Scalar => scalar::$f($($arg),*),
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let out = scalar::$f($($arg),*);
        out
    }};
}

fn ragged_len() -> impl Strategy<Value = usize> {
    (0usize..LENS.len()).prop_map(|i| LENS[i])
}

fn offset() -> impl Strategy<Value = usize> {
    (0usize..OFFSETS.len()).prop_map(|i| OFFSETS[i])
}

/// Asserts `got` and `want` hold the same values, bit for bit, NaN as
/// "both NaN".
fn same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: got {g:?} ({:#x}), scalar {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Deterministic pseudo-random vector (LCG) in `[-50, 50)`, so failures
/// are reproducible from the generated `seed` printed by the harness; with
/// `special`, about one value in seven is one of [`SPECIALS`].
fn det_vec(len: usize, seed: u64, special: bool) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 40) as f32 / (1u64 << 24) as f32;
            let pick = (state >> 20) % 7;
            if special && (state >> 8).is_multiple_of(7) {
                SPECIALS[pick as usize]
            } else {
                u * 100.0 - 50.0
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn dot_sq_dist_sum_every_tier_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        let a = det_vec(len + off, seed_a, special);
        let b = det_vec(len + off, seed_b, special);
        let (a, b) = (&a[off..], &b[off..]);
        for tier in tiers() {
            let what = |k: &str| format!("{k} {} len {len}", tier.name());
            same(&[on!(tier, dot(a, b))], &[scalar::dot(a, b)], &what("dot"));
            same(&[on!(tier, sq_dist(a, b))], &[scalar::sq_dist(a, b)], &what("sq_dist"));
            same(&[on!(tier, sum(a))], &[scalar::sum(a)], &what("sum"));
        }
    }

    #[test]
    fn dot_tile_every_tier_eq_scalar(
        len in ragged_len(),
        off in offset(),
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        let a: Vec<Vec<f32>> = (0..2).map(|i| det_vec(len + off, seed ^ (20 + i), special)).collect();
        let b: Vec<Vec<f32>> = (1..5).map(|i| det_vec(len + off, seed ^ i, special)).collect();
        let (a0, a1) = (&a[0][off..], &a[1][off..]);
        let b = [&b[0][off..], &b[1][off..], &b[2][off..], &b[3][off..]];
        let want = scalar::dot_tile([a0, a1], b);
        for tier in tiers() {
            let got = on!(tier, dot_tile([a0, a1], b));
            same(got.as_flattened(), want.as_flattened(), &format!("dot_tile {}", tier.name()));
            // The one-row tile says the same.
            let one = on!(tier, dot_tile([a1], b));
            same(&one[0], &want[1], &format!("dot_tile<1> {}", tier.name()));
        }
    }

    #[test]
    fn axpy_add_scale_every_tier_eq_scalar(
        len in ragged_len(),
        off in offset(),
        a in -4.0f32..4.0,
        b in -4.0f32..4.0,
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        let x = det_vec(len + off, seed, special);
        let x = &x[off..];
        let y0 = det_vec(len, seed ^ 5, special);
        for tier in tiers() {
            let what = |k: &str| format!("{k} {} len {len}", tier.name());
            let (mut got, mut want) = (y0.clone(), y0.clone());
            on!(tier, axpy(&mut got, a, x));
            scalar::axpy(&mut want, a, x);
            same(&got, &want, &what("axpy"));
            on!(tier, add_assign(&mut got, x));
            scalar::add_assign(&mut want, x);
            same(&got, &want, &what("add_assign"));
            on!(tier, scale_into(&mut got, a, x));
            scalar::scale_into(&mut want, a, x);
            same(&got, &want, &what("scale_into"));
            on!(tier, scale(&mut got, b));
            scalar::scale(&mut want, b);
            same(&got, &want, &what("scale"));
            on!(tier, scale_add(&mut got, a, b));
            scalar::scale_add(&mut want, a, b);
            same(&got, &want, &what("scale_add"));
        }
    }

    #[test]
    fn exp_tanh_sigmoid_relu_every_tier_eq_scalar(
        len in ragged_len(),
        off in offset(),
        scale in -3.0f32..3.0,
        bias in -3.0f32..3.0,
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        let src = det_vec(len + off, seed, special);
        let src = &src[off..];
        for tier in tiers() {
            let what = |k: &str| format!("{k} {} len {len}", tier.name());
            let (mut got, mut want) = (src.to_vec(), src.to_vec());
            on!(tier, exp(&mut got, scale, bias));
            scalar::exp(&mut want, scale, bias);
            same(&got, &want, &what("exp"));
            let (mut got, mut want) = (src.to_vec(), src.to_vec());
            on!(tier, tanh(&mut got));
            scalar::tanh(&mut want);
            same(&got, &want, &what("tanh"));
            on!(tier, sigmoid(&mut got));
            scalar::sigmoid(&mut want);
            same(&got, &want, &what("sigmoid"));
            let (mut got, mut want) = (src.to_vec(), src.to_vec());
            on!(tier, relu(&mut got));
            scalar::relu(&mut want);
            same(&got, &want, &what("relu"));
        }
    }

    /// The fused LSTM cell, hidden sizes on both sides of the 8- and
    /// 16-lane boundaries.
    #[test]
    fn lstm_cell_every_tier_eq_scalar(
        n in 1usize..=5,
        hd in 1usize..=35,
        off in offset(),
        seed in 0u64..1_000_000,
        special in any::<bool>(),
    ) {
        // det_vec spans ±50: saturated and unsaturated gates both occur.
        let gates = det_vec(n * 4 * hd + off, seed, special);
        let zh = det_vec(n * 4 * hd + off, seed ^ 1, special);
        let bias = det_vec(4 * hd + off, seed ^ 2, special);
        let c = det_vec(n * hd + off, seed ^ 3, special);
        let (zh, bias) = (&zh[off..], &bias[off..]);
        let (mut g_want, mut c_want) = (gates[off..].to_vec(), c[off..].to_vec());
        let (mut tc_want, mut h_want) = (vec![f32::NAN; n * hd], vec![f32::NAN; n * hd]);
        scalar::lstm_cell_forward(&mut g_want, zh, bias, &mut c_want, &mut tc_want, &mut h_want);
        // Backward from the forward's gates, with gradients of their own.
        let dout = det_vec(n * hd, seed ^ 4, special);
        let dh_next = det_vec(n * hd, seed ^ 5, special);
        let dc_next = det_vec(n * hd, seed ^ 6, special);
        let c_prev = &c[off..];
        let cache = LstmCellCache { gates: &g_want, tanh_c: &tc_want, c_prev };
        let (mut dz_want, mut dcp_want) = (vec![f32::NAN; 4 * n * hd], vec![f32::NAN; n * hd]);
        scalar::lstm_cell_backward(hd, cache, &dout, &dh_next, &dc_next, &mut dz_want, &mut dcp_want);
        for tier in tiers() {
            let what = |k: &str| format!("{k} {} n {n} hd {hd}", tier.name());
            let (mut g, mut c) = (gates[off..].to_vec(), c[off..].to_vec());
            let (mut tc, mut h) = (vec![f32::NAN; n * hd], vec![f32::NAN; n * hd]);
            on!(tier, lstm_cell_forward(&mut g, zh, bias, &mut c, &mut tc, &mut h));
            same(&g, &g_want, &what("gates"));
            same(&c, &c_want, &what("c"));
            same(&tc, &tc_want, &what("tanh_c"));
            same(&h, &h_want, &what("h"));
            let (mut dz, mut dcp) = (vec![f32::NAN; 4 * n * hd], vec![f32::NAN; n * hd]);
            on!(tier, lstm_cell_backward(hd, cache, &dout, &dh_next, &dc_next, &mut dz, &mut dcp));
            same(&dz, &dz_want, &what("dz"));
            same(&dcp, &dcp_want, &what("dc_prev"));
        }
    }

    /// Extreme exp inputs (overflow/underflow region, ±inf, NaN) must clamp
    /// identically on every tier and never produce an infinity.
    #[test]
    fn exp_extremes_every_tier_eq_scalar(off in offset(), pad in -1.0f32..1.0) {
        let mut extremes = vec![pad; off];
        extremes.extend_from_slice(&[
            1000.0, -1000.0, 88.02, -87.33, 89.0, -89.0, 127.5 * std::f32::consts::LN_2,
            f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0, 1.0, -1.0, 700.0, -700.0,
            1.0e-40, -1.0e-40,
        ]);
        let mut want = extremes[off..].to_vec();
        scalar::exp(&mut want, 1.0, 0.0);
        prop_assert!(want.iter().all(|v| v.is_finite()));
        for tier in tiers() {
            let mut got = extremes[off..].to_vec();
            on!(tier, exp(&mut got, 1.0, 0.0));
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

/// The dispatched path is the widest tier this CPU has — otherwise the
/// training paths would only ever prove scalar ≡ scalar — and each tier's
/// name is the one reports print.
#[test]
fn dispatch_reports_a_backend() {
    let backend = rfl_tensor::simd_backend();
    assert!(["avx512", "avx2", "scalar"].contains(&backend), "{backend}");
    if std::env::var("RFL_SIMD").as_deref() == Ok("0") {
        assert_eq!(backend, "scalar");
    } else {
        let widest = Tier::ALL.into_iter().rev().find(|t| t.available());
        assert_eq!(Some(backend), widest.map(Tier::name));
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        let avx2 = has!("avx2") && has!("fma");
        let avx512 =
            avx2 && has!("avx512f") && has!("avx512vl") && has!("avx512bw") && has!("avx512dq");
        assert_eq!(Tier::Avx512.available(), avx512);
        assert_eq!(Tier::Avx2.available(), avx2);
    }
}
