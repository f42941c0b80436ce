//! The register-tile matrix products against the loops they replaced, **bit
//! for bit**.
//!
//! The oracles below are the pre-tile production code: `matmul` as one
//! `axpy_slices` per `(row, k)` over a zeroed C, `matmul_transa` as rank-1
//! `axpy_slices` updates in ascending `k`, `matmul_transb` as one
//! `dot_slices` per output. (The packed `axpy4` block kernel that large
//! shapes used performed the same `c += a·b` per element in the same order.)
//! They define the operation sequence every output scalar must keep; the
//! tiles only change which scalars share a register.
//!
//! NaN results are compared as "both NaN": IEEE 754 and Rust leave a NaN's
//! sign and payload unspecified, and the compiler may commute an addition,
//! which changes which operand's payload survives.

use proptest::prelude::*;
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{axpy_slices, dot_slices, set_thread_budget, Tensor};

mod tiers;

/// `A (m×k) × B (k×n)`.
fn oracle_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for p in 0..k {
            axpy_slices(crow, a[i * k + p], &b[p * n..(p + 1) * n]);
        }
    }
    c
}

/// `Aᵀ × B` with A stored `k×m`, B `k×n`.
fn oracle_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for p in 0..k {
        for i in 0..m {
            axpy_slices(
                &mut c[i * n..(i + 1) * n],
                a[p * m + i],
                &b[p * n..(p + 1) * n],
            );
        }
    }
    c
}

/// `A (m×k) × Bᵀ` with B stored `n×k`.
fn oracle_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = dot_slices(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
    c
}

/// Deterministic values in roughly `[-2, 2)`.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Overwrites about one value in eleven with ±inf, NaN, −0.0 or +0.0 (the
/// zeros meet the infinities and NaNs of the other operand: `0·NaN`,
/// `0·inf`).
fn poison(v: &mut [f32], seed: u64) {
    const SPECIALS: [f32; 5] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 0.0];
    for (i, x) in v.iter_mut().enumerate() {
        let k = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
        if k.is_multiple_of(11) {
            *x = SPECIALS[(k / 11 % 5) as usize];
        }
    }
}

fn same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: got {g:?} ({:#x}), oracle {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs the three products under every `{tier} × {1, 4 threads}` setting
/// the CPU has and checks each against its oracle.
fn check(m: usize, k: usize, n: usize, special: bool, seed: u64) {
    // One pool of values serves all three layouts: A as m×k (and k×m for
    // `transa`), B as k×n (and n×k for `transb`).
    let mut a = values(m * k, seed);
    let mut b = values(k * n, seed + 1);
    if special {
        poison(&mut a, seed + 2);
        poison(&mut b, seed + 3);
    }
    let _settings = tiers::Settings::hold();
    let want_nn = oracle_nn(&a, &b, m, k, n);
    let want_tn = oracle_tn(&a, &b, m, k, n);
    let want_nt = oracle_nt(&a, &b, m, k, n);

    let a_mk = Tensor::from_vec(a.clone(), &[m, k]);
    let a_km = Tensor::from_vec(a, &[k, m]);
    let b_kn = Tensor::from_vec(b.clone(), &[k, n]);
    let b_nk = Tensor::from_vec(b, &[n, k]);
    // A dirty, reused destination: every cell must be overwritten.
    let mut out = Tensor::from_vec(vec![f32::NAN; m * n], &[m, n]);
    for tier in tiers::available(&Tier::ALL) {
        for threads in [1, 4] {
            set_simd_tier(tier);
            set_thread_budget(threads);
            let tag = |what: &str| format!("{what} m={m} k={k} n={n} {tier:?} threads={threads}");
            out.fill(f32::NAN);
            a_mk.matmul_into(&b_kn, &mut out);
            same(out.data(), &want_nn, &tag("matmul"));
            out.fill(f32::NAN);
            a_km.matmul_transa_into(&b_kn, &mut out);
            same(out.data(), &want_tn, &tag("matmul_transa"));
            out.fill(f32::NAN);
            a_mk.matmul_transb_into(&b_nk, &mut out);
            same(out.data(), &want_nt, &tag("matmul_transb"));
        }
    }
}

proptest! {
    #[test]
    fn tiles_match_oracle_bitwise(
        m in 1usize..=70, k in 1usize..=70, n in 1usize..=70, seed in 0u64..1 << 32
    ) {
        check(m, k, n, false, seed);
    }

    #[test]
    fn tiles_match_oracle_on_non_finite_and_signed_zero(
        m in 1usize..=70, k in 1usize..=70, n in 1usize..=70, seed in 0u64..1 << 32
    ) {
        check(m, k, n, true, seed);
    }
}

/// The shapes the models run, plus the corners the random shapes cannot
/// reach: `k` beyond one packed panel (256), more than one 64-row task,
/// more than one 256-column panel, and every kind of ragged tile edge
/// (`m` not a multiple of 4 or 2, `n` not a multiple of 32, 16, 8 or 4,
/// `k` not a multiple of 8).
#[test]
fn fixed_shapes_match_oracle_bitwise() {
    let cases = [
        // The sent140-like LSTM step at batch 20: `matmul` shapes are the
        // gates `x·Wx` / `h·Wh` ([20, d] × [d, 128], d = 16, 32); the
        // `transa` ones the weight gradients `xᵀ·dz` / `hᵀ·dz` (m = d,
        // k = 20); the `transb` ones `dz·Wxᵀ` / `dz·Whᵀ` (k = 128, n = d).
        (20, 16, 128),
        (20, 32, 128),
        (16, 20, 128),
        (32, 20, 128),
        (20, 128, 16),
        (20, 128, 32),
        (16, 512, 64), // CNN feature layer
        (20, 32, 2),   // classifier head: one ragged tile
        (1, 1, 1),
        (5, 300, 17),   // k > KC on the inline path
        (67, 261, 259), // ragged in MC, KC and NC
        (130, 40, 33),  // three row tasks, ragged
        (3, 520, 300),  // three k panels, two column panels, m < MR
        (64, 9, 64),
    ];
    for (i, &(m, k, n)) in cases.iter().enumerate() {
        for special in [false, true] {
            check(m, k, n, special, 2000 + i as u64);
        }
    }
}

/// `0 · NaN` and `0 · inf` are `NaN` in every product, wherever in the tile
/// they fall; nothing skips a zero operand.
#[test]
fn zero_times_nan_is_nan_in_every_tile_position() {
    let (m, k, n) = (9, 11, 21);
    for at in 0..k {
        let a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        for j in 0..n {
            b[at * n + j] = if j % 2 == 0 { f32::NAN } else { f32::INFINITY };
        }
        let mut out = Tensor::scratch();
        let at_ = Tensor::from_vec(a.clone(), &[m, k]);
        at_.matmul_into(&Tensor::from_vec(b.clone(), &[k, n]), &mut out);
        assert!(out.data().iter().all(|v| v.is_nan()), "matmul, k = {at}");
        let a_km = Tensor::from_vec(a, &[k, m]);
        a_km.matmul_transa_into(&Tensor::from_vec(b.clone(), &[k, n]), &mut out);
        assert!(out.data().iter().all(|v| v.is_nan()), "transa, k = {at}");
        // For `transb`, B is n×k: poison column `at` of every row.
        let mut bt = vec![1.0f32; n * k];
        for j in 0..n {
            bt[j * k + at] = f32::NAN;
        }
        at_.matmul_transb_into(&Tensor::from_vec(bt, &[n, k]), &mut out);
        assert!(out.data().iter().all(|v| v.is_nan()), "transb, k = {at}");
    }
}
