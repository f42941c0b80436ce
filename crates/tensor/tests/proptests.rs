//! Property-based tests of tensor algebra invariants.

use proptest::prelude::*;
use rfl_tensor::{
    conv2d_backward_into, conv2d_backward_params_into, conv2d_into, decode_f32_into,
    encode_f32_into, f32_bytes, f32_bytes_mut, relu_maxpool2x2_backward_into, relu_maxpool2x2_into,
    u32_bytes, Conv2dGrads, ConvSpec, Tensor,
};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

/// `f`'s output written into a fresh buffer.
fn fresh(f: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = Tensor::scratch();
    f(&mut out);
    out
}

proptest! {
    #[test]
    fn transpose_is_involution(a in finite_vec(24)) {
        let t = Tensor::from_vec(a, &[4, 6]);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)
    ) {
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3, 2]);
        let tc = Tensor::from_vec(c, &[3, 2]);
        let sum = fresh(|o| tb.zip_map_into(&tc, o, |x, y| x + y));
        let lhs = fresh(|o| ta.matmul_into(&sum, o));
        let (ab, ac) = (fresh(|o| ta.matmul_into(&tb, o)), fresh(|o| ta.matmul_into(&tc, o)));
        let rhs = fresh(|o| ab.zip_map_into(&ac, o, |x, y| x + y));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 0.5, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_transpose_identity(a in finite_vec(6), b in finite_vec(6)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3, 2]);
        let lhs = fresh(|o| ta.matmul_into(&tb, o)).transpose();
        let rhs = fresh(|o| tb.transpose().matmul_into(&ta.transpose(), o));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 0.5);
        }
    }

    #[test]
    fn codec_round_trips(a in finite_vec(33)) {
        let (mut enc, mut back) = (Vec::new(), Vec::new());
        encode_f32_into(&mut enc, &a);
        decode_f32_into(&enc, &mut back).unwrap();
        prop_assert_eq!(back, a);
    }

    /// The byte views are the codec's body in place, for every bit pattern
    /// (NaN payloads included): reading a body into `f32_bytes_mut` gives
    /// the words `decode_f32_into` gives.
    #[test]
    fn byte_views_are_the_encoded_body(bits in prop::collection::vec(any::<u32>(), 0..70)) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut enc = Vec::new();
        encode_f32_into(&mut enc, &values);
        prop_assert_eq!(f32_bytes(&values), &enc[4..]);
        prop_assert_eq!(u32_bytes(&bits), &enc[4..]);
        let mut back = vec![0.0f32; values.len()];
        f32_bytes_mut(&mut back).copy_from_slice(&enc[4..]);
        let mut decoded = Vec::new();
        decode_f32_into(&enc, &mut decoded).unwrap();
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(to_bits(&back), bits);
        prop_assert_eq!(to_bits(&decoded), to_bits(&back));
    }

    #[test]
    fn mean_axis0_is_between_min_and_max(a in finite_vec(20)) {
        let t = Tensor::from_vec(a, &[4, 5]);
        let m = fresh(|o| t.mean_axis0_into(o));
        for c in 0..5 {
            let col: Vec<f32> = (0..4).map(|r| t.at(&[r, c])).collect();
            let lo = col.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = col.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(m.data()[c] >= lo - 1e-4 && m.data()[c] <= hi + 1e-4);
        }
    }
}

/// Textbook triple loop (i, j, p) — the reference the blocked/packed GEMM
/// must agree with, up to summation-order rounding.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // Mix of sizes around the MC/KC/NC block edges so cases exercise both
    // the small inline path and the blocked/packed path with partial panels.
    (1usize..90, 1usize..280, 1usize..280)
}

proptest! {
    #[test]
    fn blocked_gemm_matches_naive_reference(dims in ragged_dims()) {
        let (m, k, n) = dims;
        let av: Vec<f32> = (0..m * k).map(|v| ((v * 31 + 7) % 61) as f32 * 0.03 - 0.9).collect();
        let bv: Vec<f32> = (0..k * n).map(|v| ((v * 17 + 3) % 53) as f32 * 0.04 - 1.0).collect();
        let ta = Tensor::from_vec(av.clone(), &[m, k]);
        let tb = Tensor::from_vec(bv.clone(), &[k, n]);
        let c = fresh(|o| ta.matmul_into(&tb, o));
        let reference = naive_matmul(&av, &bv, m, k, n);
        let scale = k as f32;
        for (x, y) in c.data().iter().zip(&reference) {
            prop_assert!((x - y).abs() <= 1e-4 * scale, "{} vs {} (m={m} k={k} n={n})", x, y);
        }
    }

    #[test]
    fn transposed_variants_match_plain_gemm(dims in ragged_dims()) {
        let (m, k, n) = dims;
        let av: Vec<f32> = (0..m * k).map(|v| ((v * 13 + 11) % 47) as f32 * 0.05 - 1.1).collect();
        let bv: Vec<f32> = (0..k * n).map(|v| ((v * 29 + 5) % 59) as f32 * 0.03 - 0.8).collect();
        let ta = Tensor::from_vec(av, &[m, k]);
        let tb = Tensor::from_vec(bv, &[k, n]);
        let plain = fresh(|o| ta.matmul_into(&tb, o));
        let via_transb = fresh(|o| ta.matmul_transb_into(&tb.transpose(), o));
        let via_transa = fresh(|o| ta.transpose().matmul_transa_into(&tb, o));
        let scale = k as f32;
        for (x, y) in plain.data().iter().zip(via_transb.data()) {
            prop_assert!((x - y).abs() <= 1e-4 * scale, "transb: {} vs {}", x, y);
        }
        for (x, y) in plain.data().iter().zip(via_transa.data()) {
            prop_assert!((x - y).abs() <= 1e-4 * scale, "transa: {} vs {}", x, y);
        }
    }

    #[test]
    fn gemm_bit_identical_across_thread_budgets(dims in ragged_dims()) {
        let (m, k, n) = dims;
        let av: Vec<f32> = (0..m * k).map(|v| ((v * 37 + 1) % 71) as f32 * 0.02 - 0.7).collect();
        let bv: Vec<f32> = (0..k * n).map(|v| ((v * 23 + 9) % 67) as f32 * 0.03 - 0.9).collect();
        let ta = Tensor::from_vec(av, &[m, k]);
        let tb = Tensor::from_vec(bv, &[k, n]);
        let prev = rfl_tensor::thread_budget();
        rfl_tensor::set_thread_budget(1);
        let tbt = tb.transpose();
        let serial = fresh(|o| ta.matmul_into(&tb, o));
        let serial_t = fresh(|o| ta.matmul_transb_into(&tbt, o));
        rfl_tensor::set_thread_budget(4);
        let parallel = fresh(|o| ta.matmul_into(&tb, o));
        let parallel_t = fresh(|o| ta.matmul_transb_into(&tbt, o));
        rfl_tensor::set_thread_budget(prev);
        // Bit-identical, not approximately equal: the task grid and each
        // element's accumulation order depend only on the problem shape.
        prop_assert_eq!(serial.data(), parallel.data());
        prop_assert_eq!(serial_t.data(), parallel_t.data());
    }
}

/// A deliberately dirty destination: wrong shape, garbage contents. Every
/// `_into` kernel must produce the same bytes into this as into a fresh
/// [`Tensor::scratch`] — that equivalence is what makes workspace reuse
/// bit-identical by construction.
fn dirty() -> Tensor {
    let mut t = Tensor::scratch();
    t.resize(&[3, 7]);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v = (i as f32).sin() * 1e6 + f32::NAN * ((i % 3) as f32);
    }
    t
}

fn det_vec(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|v| ((v * 2654435761 + salt * 97) % 89) as f32 * 0.023 - 1.0)
        .collect()
}

proptest! {
    /// Matrix-product kernels write the same bits into a dirty reused
    /// buffer as into a fresh one, on ragged shapes.
    #[test]
    fn matmul_into_bit_identical(dims in ragged_dims()) {
        let (m, k, n) = dims;
        let ta = Tensor::from_vec(det_vec(m * k, 1), &[m, k]);
        let tb = Tensor::from_vec(det_vec(k * n, 2), &[k, n]);
        let mut out = dirty();
        ta.matmul_into(&tb, &mut out);
        prop_assert_eq!(out.data(), fresh(|o| ta.matmul_into(&tb, o)).data());
        let tbt = tb.transpose();
        ta.matmul_transb_into(&tbt, &mut out);
        prop_assert_eq!(out.data(), fresh(|o| ta.matmul_transb_into(&tbt, o)).data());
        let tat = ta.transpose();
        tat.matmul_transa_into(&tb, &mut out);
        prop_assert_eq!(out.data(), fresh(|o| tat.matmul_transa_into(&tb, o)).data());
    }

    /// Element-wise and reduction kernels write the same bits into a dirty
    /// reused buffer as into a fresh one.
    #[test]
    fn elementwise_and_reduce_into_bit_identical(rows in 1usize..9, cols in 1usize..13) {
        let ta = Tensor::from_vec(det_vec(rows * cols, 4), &[rows, cols]);
        let tb = Tensor::from_vec(det_vec(rows * cols, 5), &[rows, cols]);
        let bias = Tensor::from_vec(det_vec(cols, 6), &[cols]);
        let mut out = dirty();
        let sub = |a: f32, b: f32| a - b;
        ta.zip_map_into(&tb, &mut out, sub);
        prop_assert_eq!(out.data(), fresh(|o| ta.zip_map_into(&tb, o, sub)).data());
        let mut assigned = ta.clone();
        assigned.add_row_bias_assign(&bias);
        let rows_plus_bias: Vec<f32> =
            ta.data().iter().enumerate().map(|(i, v)| v + bias.data()[i % cols]).collect();
        prop_assert_eq!(assigned.data(), &rows_plus_bias[..]);
        ta.sum_axis0_into(&mut out);
        prop_assert_eq!(out.data(), fresh(|o| ta.sum_axis0_into(o)).data());
        ta.mean_axis0_into(&mut out);
        prop_assert_eq!(out.data(), fresh(|o| ta.mean_axis0_into(o)).data());
        ta.log_softmax_rows_into(&mut out);
        prop_assert_eq!(out.data(), fresh(|o| ta.log_softmax_rows_into(o)).data());
        let mut idx = vec![777usize; 2];
        ta.argmax_rows_into(&mut idx);
        prop_assert_eq!(idx, ta.argmax_rows());
    }

    /// The whole-matrix log-softmax equals the row-at-a-time formulation
    /// bit for bit: each row through `exp(x·1 − m)`, the canonical sum and
    /// `x·1 − (m + ln z)`, written out here with the public kernels, at
    /// widths on both sides of the 8-lane stride and with large logits.
    #[test]
    fn log_softmax_matches_the_row_at_a_time_formula(
        rows in 1usize..9,
        cols in 1usize..40,
        x in prop::collection::vec(-90.0f32..90.0, 8 * 40),
    ) {
        let t = Tensor::from_vec(x[..rows * cols].to_vec(), &[rows, cols]);
        let mut want = t.data().to_vec();
        for row in want.chunks_exact_mut(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut ex = row.to_vec();
            rfl_tensor::exp_slices(&mut ex, 1.0, -m);
            let lz = m + rfl_tensor::sum_slices(&ex).ln();
            for v in row.iter_mut() {
                *v = 1.0 * *v + -lz;
            }
        }
        let got = fresh(|o| t.log_softmax_rows_into(o));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(got.data()), bits(&want));
    }

    /// Convolution / pooling kernels (including backward and the reusable
    /// weight-gradient scratch) write the same bits into dirty buffers as
    /// into fresh ones, on ragged image shapes.
    #[test]
    fn conv_and_pool_into_bit_identical(
        n in 1usize..3, c in 1usize..3, hw in 4usize..9, o in 1usize..4, pad in 0usize..2
    ) {
        let spec = ConvSpec { kernel: 3, stride: 1, pad };
        let x = Tensor::from_vec(det_vec(n * c * hw * hw, 7), &[n, c, hw, hw]);
        let w = Tensor::from_vec(det_vec(o * c * 9, 8), &[o, c, 3, 3]);
        let b = Tensor::from_vec(det_vec(o, 9), &[o]);
        let mut out = dirty();
        conv2d_into(&x, &w, &b, spec, &mut out);
        let y = fresh(|y| conv2d_into(&x, &w, &b, spec, y));
        prop_assert_eq!(out.data(), y.data());
        prop_assert_eq!(out.dims(), y.dims());

        let dy = Tensor::from_vec(det_vec(y.numel(), 10), y.dims());
        let dirty_grads = || Conv2dGrads { dinput: dirty(), dweight: dirty(), dbias: dirty() };
        let mut grads = dirty_grads();
        conv2d_backward_into(&x, &w, &dy, spec, &mut grads, &mut vec![f32::NAN; 5]);
        let mut fresh_g = Conv2dGrads::scratch();
        conv2d_backward_into(&x, &w, &dy, spec, &mut fresh_g, &mut Vec::new());
        prop_assert_eq!(grads.dinput.data(), fresh_g.dinput.data());
        prop_assert_eq!(grads.dweight.data(), fresh_g.dweight.data());
        prop_assert_eq!(grads.dbias.data(), fresh_g.dbias.data());
        let mut params = dirty_grads();
        conv2d_backward_params_into(&x, &w, &dy, spec, &mut params, &mut vec![f32::NAN; 5]);
        prop_assert_eq!(params.dweight.data(), fresh_g.dweight.data());
        prop_assert_eq!(params.dbias.data(), fresh_g.dbias.data());

        let mut arg = vec![42u8; 3];
        relu_maxpool2x2_into(&x, &mut out, &mut arg);
        let (mut py, mut parg) = (Tensor::scratch(), Vec::new());
        relu_maxpool2x2_into(&x, &mut py, &mut parg);
        prop_assert_eq!(out.data(), py.data());
        prop_assert_eq!(&arg, &parg);
        let pdy = Tensor::from_vec(det_vec(py.numel(), 11), py.dims());
        let mut dx = dirty();
        relu_maxpool2x2_backward_into(x.dims(), &pdy, &arg, &mut dx);
        let fresh_dx = fresh(|d| relu_maxpool2x2_backward_into(x.dims(), &pdy, &parg, d));
        prop_assert_eq!(dx.data(), fresh_dx.data());
    }

    /// `encode_f32_into` and `decode_f32_into` write the same bytes and
    /// values through reused (non-empty) buffers as through fresh ones.
    #[test]
    fn codec_into_byte_identical(a in finite_vec(33)) {
        let mut buf = vec![0xAAu8; 7];
        encode_f32_into(&mut buf, &a);
        let mut reference = Vec::new();
        encode_f32_into(&mut reference, &a);
        prop_assert_eq!(&buf, &reference);
        let mut vals = vec![f32::NAN; 2];
        decode_f32_into(&buf, &mut vals).unwrap();
        prop_assert_eq!(vals, a);
    }
}
