//! The fused LSTM cell against the per-gate sequence it replaced, **bit for
//! bit**, through the whole layer.
//!
//! The oracle below is the pre-fusion `Lstm::forward_into` /
//! `backward_into`: per timestep `gates = x·Wx`, `+= h·Wh`, `+= b` as three
//! passes, one `sigmoid_slices` / `tanh_slices` call per gate sub-row, the
//! two scalar loops for `c` and `h`, and backward the `dh = dout + dh_next`
//! copy-and-add followed by the gate-gradient loop. It defines every value
//! the layer may produce; the production layer computes the same values in
//! one pass per timestep, eight or sixteen hidden units to a register
//! (per SIMD tier; every tier this CPU runs is checked).
//!
//! NaN results are compared as "both NaN" (sign and payload of a NaN are
//! unspecified).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{Layer, Lstm};
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{set_thread_budget, sigmoid_slices, tanh_slices, Tensor};

#[path = "../../tensor/tests/tiers/mod.rs"]
mod tiers;

struct Oracle {
    out: Tensor,
    dinput: Tensor,
    dwx: Tensor,
    dwh: Tensor,
    db: Tensor,
}

fn slab(t: &Tensor, step: usize, rows: usize, cols: usize) -> Tensor {
    let at = step * rows * cols;
    Tensor::from_vec(t.data()[at..at + rows * cols].to_vec(), &[rows, cols])
}

/// `f`'s output written into a fresh buffer: `fresh(|c| a.matmul_into(b, c))`.
fn fresh(f: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut c = Tensor::scratch();
    f(&mut c);
    c
}

/// The unfused layer: forward over `input [T, N, D]`, then BPTT of `dout`.
fn oracle(wx: &Tensor, wh: &Tensor, b: &Tensor, input: &Tensor, dout: &Tensor) -> Oracle {
    let (t_len, n, d) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let hd = wh.dims()[0];
    let mut h = Tensor::zeros(&[n, hd]);
    let mut c = Tensor::zeros(&[n, hd]);
    let mut out = Tensor::zeros(&[t_len, n, hd]);
    // Per step: (h_prev, c_prev, activated gates, tanh c).
    let mut cache: Vec<(Tensor, Tensor, Tensor, Tensor)> = Vec::new();
    for t in 0..t_len {
        let x_t = slab(input, t, n, d);
        let mut gates = fresh(|c| x_t.matmul_into(wx, c));
        gates.add_assign(&fresh(|c| h.matmul_into(wh, c)));
        gates.add_row_bias_assign(b);
        for row in gates.data_mut().chunks_exact_mut(4 * hd) {
            let (ifg, o) = row.split_at_mut(3 * hd);
            let (i, fg) = ifg.split_at_mut(hd);
            let (f, g) = fg.split_at_mut(hd);
            sigmoid_slices(i);
            sigmoid_slices(f);
            tanh_slices(g);
            sigmoid_slices(o);
        }
        let (h_prev, c_prev) = (h.clone(), c.clone());
        let zd = gates.data();
        for r in 0..n {
            let g_row = &zd[r * 4 * hd..(r + 1) * 4 * hd];
            for j in 0..hd {
                let cv = &mut c.data_mut()[r * hd + j];
                *cv = g_row[hd + j] * *cv + g_row[j] * g_row[2 * hd + j];
            }
        }
        let mut tanh_c = c.clone();
        tanh_slices(tanh_c.data_mut());
        for r in 0..n {
            for j in 0..hd {
                h.data_mut()[r * hd + j] = zd[r * 4 * hd + 3 * hd + j] * tanh_c.data()[r * hd + j];
            }
        }
        out.data_mut()[t * n * hd..(t + 1) * n * hd].copy_from_slice(h.data());
        cache.push((h_prev, c_prev, gates, tanh_c));
    }

    let mut dinput = Tensor::zeros(&[t_len, n, d]);
    let mut dwx = Tensor::zeros(wx.dims());
    let mut dwh = Tensor::zeros(wh.dims());
    let mut db = Tensor::zeros(b.dims());
    let mut dh_next = Tensor::zeros(&[n, hd]);
    let mut dc_next = Tensor::zeros(&[n, hd]);
    let mut step_db = Tensor::scratch();
    for t in (0..t_len).rev() {
        let (h_prev, c_prev, gates, tanh_c) = &cache[t];
        let mut dh = slab(dout, t, n, hd);
        dh.add_assign(&dh_next);
        let mut dz = Tensor::zeros(&[n, 4 * hd]);
        let mut dc_prev = Tensor::zeros(&[n, hd]);
        for r in 0..n {
            let g_row = &gates.data()[r * 4 * hd..(r + 1) * 4 * hd];
            for j in 0..hd {
                let idx = r * hd + j;
                let (i_g, f_g) = (g_row[j], g_row[hd + j]);
                let (g_g, o_g) = (g_row[2 * hd + j], g_row[3 * hd + j]);
                let tch = tanh_c.data()[idx];
                let dhv = dh.data()[idx];
                let dc = dhv * o_g * (1.0 - tch * tch) + dc_next.data()[idx];
                let d_o = dhv * tch;
                let d_i = dc * g_g;
                let d_f = dc * c_prev.data()[idx];
                let d_g = dc * i_g;
                dc_prev.data_mut()[idx] = dc * f_g;
                let dzd = dz.data_mut();
                let zr = r * 4 * hd;
                dzd[zr + j] = d_i * i_g * (1.0 - i_g);
                dzd[zr + hd + j] = d_f * f_g * (1.0 - f_g);
                dzd[zr + 2 * hd + j] = d_g * (1.0 - g_g * g_g);
                dzd[zr + 3 * hd + j] = d_o * o_g * (1.0 - o_g);
            }
        }
        dwx.add_assign(&fresh(|c| slab(input, t, n, d).matmul_transa_into(&dz, c)));
        dwh.add_assign(&fresh(|c| h_prev.matmul_transa_into(&dz, c)));
        dz.sum_axis0_into(&mut step_db);
        db.add_assign(&step_db);
        let dx = fresh(|c| dz.matmul_transb_into(wx, c));
        dinput.data_mut()[t * n * d..(t + 1) * n * d].copy_from_slice(dx.data());
        dh_next = fresh(|c| dz.matmul_transb_into(wh, c));
        dc_next = dc_prev;
    }
    Oracle {
        out,
        dinput,
        dwx,
        dwh,
        db,
    }
}

/// Deterministic values in roughly `[-scale/2, scale/2)`.
fn values(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale
        })
        .collect()
}

/// Overwrites about one value in thirteen with ±inf, NaN, −0.0 or a
/// magnitude that saturates every activation.
fn poison(v: &mut [f32], seed: u64) {
    const SPECIALS: [f32; 6] = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -0.0,
        1e30,
        -200.0,
    ];
    for (i, x) in v.iter_mut().enumerate() {
        let k = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
        if k.is_multiple_of(13) {
            *x = SPECIALS[(k / 13 % 6) as usize];
        }
    }
}

fn same(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what} shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: got {g:?} ({:#x}), oracle {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs the layer under every `{tier} × {1, 4 threads}` setting the CPU
/// has and checks it against the oracle.
fn check(t_len: usize, n: usize, d: usize, hd: usize, special: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layer = Lstm::new(d, hd, &mut rng);
    let mut x = values(t_len * n * d, seed + 1, 6.0);
    let dout = Tensor::from_vec(values(t_len * n * hd, seed + 2, 2.0), &[t_len, n, hd]);
    if special {
        poison(&mut x, seed + 3);
        poison(layer.wx.value.data_mut(), seed + 4);
        poison(layer.b.value.data_mut(), seed + 5);
    }
    let input = Tensor::from_vec(x, &[t_len, n, d]);
    let _settings = tiers::Settings::hold();
    let want = oracle(
        &layer.wx.value,
        &layer.wh.value,
        &layer.b.value,
        &input,
        &dout,
    );

    // Dirty, reused destinations: every cell must be overwritten.
    let mut out = Tensor::from_vec(vec![f32::NAN; 3], &[3]);
    let mut dinput = Tensor::from_vec(vec![f32::NAN; 5], &[5]);
    for tier in tiers::available(&Tier::ALL) {
        for threads in [1, 4] {
            set_simd_tier(tier);
            set_thread_budget(threads);
            let tag = |what: &str| {
                format!("{what} T={t_len} N={n} D={d} H={hd} {tier:?} threads={threads}")
            };
            // An inference forward first: same hidden states, and it must
            // leave nothing behind that the training pass picks up.
            layer.forward_into(&input, &mut out, false);
            same(&out, &want.out, &tag("inference out"));
            out.fill(f32::NAN);
            layer.forward_into(&input, &mut out, true);
            same(&out, &want.out, &tag("out"));
            layer.zero_grads();
            layer.backward_into(&dout, &mut dinput);
            same(&dinput, &want.dinput, &tag("dinput"));
            same(&layer.wx.grad, &want.dwx, &tag("dWx"));
            same(&layer.wh.grad, &want.dwh, &tag("dWh"));
            same(&layer.b.grad, &want.db, &tag("db"));
        }
    }
}

proptest! {
    #[test]
    fn fused_cell_matches_per_gate_sequence_bitwise(
        t_len in 1usize..=6, n in 1usize..=9, d in 1usize..=20, hd in 1usize..=37,
        seed in 0u64..1 << 32
    ) {
        check(t_len, n, d, hd, false, seed);
    }

    #[test]
    fn fused_cell_matches_on_non_finite_and_saturating_values(
        t_len in 1usize..=6, n in 1usize..=9, d in 1usize..=20, hd in 1usize..=37,
        seed in 0u64..1 << 32
    ) {
        check(t_len, n, d, hd, true, seed);
    }
}

/// The sent140-like model's two layers at B = 20, and hidden sizes around
/// the 8- and 16-lane boundaries.
#[test]
fn fixed_shapes_match_oracle_bitwise() {
    let cases = [
        (16, 20, 16, 32),
        (16, 20, 32, 32),
        (3, 5, 4, 7),
        (3, 5, 4, 8),
        (3, 5, 4, 9),
        (3, 5, 4, 15),
        (3, 5, 4, 16),
        (3, 5, 4, 17),
        (3, 5, 4, 24),
        (3, 5, 4, 31),
        (3, 5, 4, 33),
        (2, 1, 1, 1),
    ];
    for (i, &(t_len, n, d, hd)) in cases.iter().enumerate() {
        for special in [false, true] {
            check(t_len, n, d, hd, special, 3000 + i as u64);
        }
    }
}
