//! The convolution kernels, on every tier and down both paths (the tiles
//! and, for a call holding ±inf or NaN, the production copy of the textbook
//! loops), against the textbook loops, **bit for bit**.
//!
//! The oracle below is the pre-lane production code, kept verbatim: one
//! `dot_slices` / `axpy_slices` call per clipped kernel row, outputs visited
//! in `(oc, oy, ox)` order, `dy == 0` terms skipped, per-image `dw` partials
//! summed in ascending image order. It defines the operation sequence every
//! output scalar must keep; the production kernels only change which scalars
//! share a SIMD register.
//!
//! NaN results are compared as "both NaN": IEEE 754 and Rust leave a NaN's
//! sign and payload unspecified, and the compiler may commute an addition,
//! which changes which operand's payload survives.

use proptest::prelude::*;
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{
    add_assign_slices, axpy_slices, conv2d_backward_into, conv2d_backward_params_into, conv2d_into,
    dot_slices, set_thread_budget, sum_slices, Conv2dGrads, ConvSpec, Tensor,
};

mod tiers;

#[derive(Debug)]
struct Shape {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    spec: ConvSpec,
}

impl Shape {
    fn out(&self) -> (usize, usize) {
        (self.spec.out_size(self.h), self.spec.out_size(self.w))
    }
}

fn oracle_forward(s: &Shape, x: &[f32], wt: &[f32], b: &[f32]) -> Vec<f32> {
    let (c, h, w, o) = (s.c, s.h, s.w, s.o);
    let (kh, kw) = (s.spec.kernel, s.spec.kernel);
    let (oh, ow) = s.out();
    let (st, p) = (s.spec.stride as isize, s.spec.pad as isize);
    let mut y = vec![0.0f32; s.n * o * oh * ow];
    for (img, y) in y.chunks_exact_mut(o * oh * ow).enumerate() {
        for oc in 0..o {
            let bias_v = b[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    let iy0 = oy as isize * st - p;
                    let ix0 = ox as isize * st - p;
                    let kx_lo = (-ix0).clamp(0, kw as isize) as usize;
                    let kx_hi = (w as isize - ix0).clamp(0, kw as isize) as usize;
                    for ic in 0..c {
                        let xbase = ((img * c + ic) * h) as isize;
                        let wbase = ((oc * c + ic) * kh) as isize;
                        for ky in 0..kh as isize {
                            let iy = iy0 + ky;
                            if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                                continue;
                            }
                            let xrow = (xbase + iy) * w as isize + ix0;
                            let x_lo = (xrow + kx_lo as isize) as usize;
                            let wrow = ((wbase + ky) * kw as isize) as usize;
                            acc += dot_slices(
                                &x[x_lo..x_lo + (kx_hi - kx_lo)],
                                &wt[wrow + kx_lo..wrow + kx_hi],
                            );
                        }
                    }
                    y[(oc * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    y
}

/// Returns `(dinput, dweight, dbias)`.
fn oracle_backward(s: &Shape, x: &[f32], wt: &[f32], dy: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, w, o) = (s.n, s.c, s.h, s.w, s.o);
    let (kh, kw) = (s.spec.kernel, s.spec.kernel);
    let (oh, ow) = s.out();
    let (st, p) = (s.spec.stride as isize, s.spec.pad as isize);

    let mut db = vec![0.0f32; o];
    for img in 0..n {
        for (oc, b) in db.iter_mut().enumerate() {
            let base = (img * o + oc) * oh * ow;
            *b += sum_slices(&dy[base..base + oh * ow]);
        }
    }

    let wlen = o * c * kh * kw;
    let mut dinput = vec![0.0f32; n * c * h * w];
    let mut partials = vec![0.0f32; n * wlen];
    for (img, (dx, dw)) in dinput
        .chunks_exact_mut(c * h * w)
        .zip(partials.chunks_exact_mut(wlen))
        .enumerate()
    {
        for oc in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy[((img * o + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    let iy0 = oy as isize * st - p;
                    let ix0 = ox as isize * st - p;
                    let kx_lo = (-ix0).clamp(0, kw as isize) as usize;
                    let kx_hi = (w as isize - ix0).clamp(0, kw as isize) as usize;
                    for ic in 0..c {
                        let xbase = (img * c + ic) * h;
                        let dxbase = ic * h;
                        let wbase = (oc * c + ic) * kh;
                        for ky in 0..kh as isize {
                            let iy = iy0 + ky;
                            if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                                continue;
                            }
                            let xrow = ((xbase + iy as usize) * w) as isize + ix0;
                            let dxrow = ((dxbase + iy as usize) * w) as isize + ix0;
                            let x_lo = (xrow + kx_lo as isize) as usize;
                            let dx_lo = (dxrow + kx_lo as isize) as usize;
                            let len = kx_hi - kx_lo;
                            let wrow = (wbase + ky as usize) * kw;
                            let wr = (wrow + kx_lo)..(wrow + kx_hi);
                            axpy_slices(&mut dx[dx_lo..dx_lo + len], g, &wt[wr.clone()]);
                            axpy_slices(&mut dw[wr], g, &x[x_lo..x_lo + len]);
                        }
                    }
                }
            }
        }
    }
    let mut dweight = vec![0.0f32; wlen];
    for part in partials.chunks_exact(wlen) {
        add_assign_slices(&mut dweight, part);
    }
    (dinput, dweight, db)
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

/// Overwrites about one value in eleven with ±inf, NaN or −0.0.
fn poison(v: &mut [f32], seed: u64) {
    const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
    for (i, x) in v.iter_mut().enumerate() {
        let k = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
        if k.is_multiple_of(11) {
            *x = SPECIALS[(k / 11 % 4) as usize];
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Density {
    Dense,
    /// About one in four non-zero: what max-pool backward hands a conv.
    Quarter,
    Zero,
}

fn upstream(len: usize, density: Density, seed: u64) -> Vec<f32> {
    let mut dy = values(len, seed);
    match density {
        Density::Dense => {}
        Density::Quarter => {
            let keep = values(len, seed ^ 0xABCD);
            for (g, k) in dy.iter_mut().zip(keep) {
                if k > -1.0 {
                    // Both zeros must be skipped.
                    *g = if k > 0.5 { -0.0 } else { 0.0 };
                }
            }
        }
        Density::Zero => dy.fill(0.0),
    }
    dy
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

/// Runs the production kernels under every `{tier} × {1, 4 threads}`
/// setting the CPU has and checks each against the oracle.
fn check(s: &Shape, special: bool, density: Density, seed: u64) {
    let (oh, ow) = s.out();
    let k = s.spec.kernel;
    let mut x = values(s.n * s.c * s.h * s.w, seed);
    let mut wt = values(s.o * s.c * k * k, seed + 1);
    let mut b = values(s.o, seed + 2);
    if special {
        poison(&mut x, seed + 3);
        poison(&mut wt, seed + 4);
        poison(&mut b, seed + 6);
    }
    let dy = upstream(s.n * s.o * oh * ow, density, seed + 5);
    check_data(s, x, wt, b, dy);
}

/// [`check`] on given operands: `x [n][c][h][w]`, `wt [o][c][k][k]`,
/// `b [o]`, `dy [n][o][oh][ow]`.
fn check_data(s: &Shape, x: Vec<f32>, wt: Vec<f32>, b: Vec<f32>, dy: Vec<f32>) {
    let (oh, ow) = s.out();
    let k = s.spec.kernel;
    let _settings = tiers::Settings::hold();
    let want_y = oracle_forward(s, &x, &wt, &b);
    let (want_dx, want_dw, want_db) = oracle_backward(s, &x, &wt, &dy);

    let xt = Tensor::from_vec(x, &[s.n, s.c, s.h, s.w]);
    let wtt = Tensor::from_vec(wt, &[s.o, s.c, k, k]);
    let bt = Tensor::from_vec(b, &[s.o]);
    let dyt = Tensor::from_vec(dy, &[s.n, s.o, oh, ow]);
    // Dirty, reused destinations: every cell must be overwritten.
    let mut y = Tensor::from_vec(vec![f32::NAN; 3], &[3]);
    let mut grads = Conv2dGrads::scratch();
    let mut scratch = vec![f32::NAN; 7];
    for tier in tiers::available(&Tier::ALL) {
        for threads in [1, 4] {
            set_simd_tier(tier);
            set_thread_budget(threads);
            let tag = |what: &str| format!("{s:?} {tier:?} threads={threads}: {what}");
            conv2d_into(&xt, &wtt, &bt, s.spec, &mut y);
            same(y.data(), &want_y, &tag("forward"));
            conv2d_backward_into(&xt, &wtt, &dyt, s.spec, &mut grads, &mut scratch);
            same(grads.dinput.data(), &want_dx, &tag("dinput"));
            same(grads.dweight.data(), &want_dw, &tag("dweight"));
            same(grads.dbias.data(), &want_db, &tag("dbias"));
            // The first-layer variant: same parameter gradients, no dinput.
            grads.dweight.fill(f32::NAN);
            grads.dbias.fill(f32::NAN);
            conv2d_backward_params_into(&xt, &wtt, &dyt, s.spec, &mut grads, &mut scratch);
            same(grads.dweight.data(), &want_dw, &tag("params-only dweight"));
            same(grads.dbias.data(), &want_db, &tag("params-only dbias"));
        }
    }
}

fn shapes() -> impl Strategy<Value = Shape> {
    (
        (1usize..=5, 1usize..=20, 1usize..=20),
        (1usize..=9, 1usize..=2, 0usize..=2),
        (0usize..=6, 0usize..=6),
    )
        .prop_map(|((n, c, o), (kernel, stride, pad), (dh, dw))| {
            // Smallest extent the kernel fits in, plus independent slack so
            // H ≠ W and both one-pixel and multi-pixel outputs occur.
            let min = kernel.saturating_sub(2 * pad).max(1);
            Shape {
                n,
                c,
                h: min + dh,
                w: min + dw,
                o,
                spec: ConvSpec {
                    kernel,
                    stride,
                    pad,
                },
            }
        })
}

fn densities() -> impl Strategy<Value = Density> {
    prop_oneof![
        Just(Density::Dense),
        Just(Density::Quarter),
        Just(Density::Zero)
    ]
}

proptest! {
    #[test]
    fn lane_kernels_match_oracle_bitwise(
        s in shapes(), density in densities(), seed in 0u64..1 << 32
    ) {
        check(&s, false, density, seed);
    }

    #[test]
    fn lane_kernels_match_oracle_on_non_finite_and_signed_zero(
        s in shapes(), density in densities(), seed in 0u64..1 << 32
    ) {
        check(&s, true, density, seed);
    }
}

/// The shapes the CNN models train on (batch 16), plus the corners the
/// random shapes only sometimes hit: exact and ragged lane blocks, and
/// kernel rows of eight or more, where the forward row reduction switches to
/// `dot`'s chunk-then-tree order.
#[test]
fn fixed_shapes_match_oracle_bitwise() {
    let cases = [
        shape(16, 1, 16, 16, 8, 3, 1, 1), // mnist-like conv1, as trained
        shape(16, 3, 16, 16, 8, 3, 1, 1), // cifar-like conv1, as trained
        shape(16, 8, 8, 8, 16, 3, 1, 1),  // conv2 of both, as trained
        shape(2, 5, 7, 9, 17, 3, 2, 1),   // ragged block, stride 2, H ≠ W
        shape(2, 3, 12, 13, 9, 8, 1, 0),  // full rows of exactly one chunk
        shape(2, 2, 11, 20, 3, 9, 1, 2),  // chunk + tail, clipped at the edges
        shape(1, 2, 19, 19, 2, 17, 1, 3), // two chunks + tail
        shape(3, 4, 1, 1, 5, 3, 1, 1),    // one pixel, kernel mostly outside
    ];
    for (i, s) in cases.iter().enumerate() {
        for (density, special) in [
            (Density::Dense, false),
            (Density::Quarter, false),
            (Density::Quarter, true),
            (Density::Zero, true),
        ] {
            check(s, special, density, 1000 + i as u64);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shape(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Shape {
    Shape {
        n,
        c,
        h,
        w,
        o,
        spec: ConvSpec {
            kernel,
            stride,
            pad,
        },
    }
}

/// The edges of each pass's lane layouts: pixel-lane tiles of sixteen and
/// their tails (`ow` 15, 16, 17, 32), channel blocks alone, paired and with
/// an odd block count (`o` 8, 16, 17, 24, 32), two-row tiles (`ow` or `w`
/// ≤ 8, an odd row count among them), one and two input-channel blocks, a
/// stride-2 row of seventeen, and a 5×5 kernel (three weight-gradient
/// passes of nine taps).
#[test]
fn lane_layout_edges_match_oracle_bitwise() {
    let cases = [
        shape(2, 3, 5, 15, 8, 3, 1, 1),
        shape(2, 3, 5, 16, 8, 3, 1, 1),
        shape(2, 3, 5, 17, 8, 3, 1, 1),
        shape(2, 3, 4, 32, 8, 3, 1, 1),
        shape(2, 4, 6, 6, 16, 3, 1, 1),
        shape(2, 4, 6, 6, 17, 3, 1, 1),
        shape(2, 4, 6, 6, 24, 3, 1, 1),
        shape(2, 4, 6, 6, 32, 3, 1, 1),
        shape(2, 8, 8, 8, 16, 3, 1, 1),
        shape(2, 16, 8, 8, 8, 3, 1, 1),
        shape(2, 8, 7, 8, 17, 3, 1, 1),
        shape(2, 3, 9, 34, 8, 3, 2, 1),
        shape(2, 3, 12, 20, 16, 5, 1, 2),
    ];
    for (i, s) in cases.iter().enumerate() {
        for (density, special) in [
            (Density::Dense, false),
            (Density::Quarter, false),
            (Density::Quarter, true),
        ] {
            check(s, special, density, 2000 + i as u64);
        }
    }
}

/// A pixel whose kernel columns or rows all miss the input adds no row sum
/// and keeps a `−0.0` bias, in a row of sixteen pixels or more (kernel 1,
/// padding 2: two border pixels at each end, and two border rows at each
/// end) and in two-row tiles of eight; every other pixel turns it to
/// `−0.0 + s`.
#[test]
fn pixels_that_miss_the_input_keep_a_negative_zero_bias() {
    for (i, s) in [
        shape(2, 3, 6, 14, 9, 1, 1, 2),
        shape(2, 3, 4, 4, 9, 1, 1, 2),
    ]
    .iter()
    .enumerate()
    {
        let (oh, ow) = s.out();
        let seed = 3000 + i as u64;
        let x = values(s.n * s.c * s.h * s.w, seed);
        let wt = values(s.o * s.c, seed + 1);
        let dy = values(s.n * s.o * oh * ow, seed + 5);
        check_data(s, x, wt, vec![-0.0; s.o], dy);
    }
}

/// A single ±inf or NaN — in one image of a batch of sixteen, only in the
/// weights, or only in `dy` — sends the call to the textbook loops, where it
/// still matches the oracle. Each sits where a tile's term would be
/// `0·inf`: the input under `g = ±0.0` gradients (dweight), a weight in
/// kernel column 0, which the left border pixels read in the padding
/// (forward, dinput), a gradient at a left border pixel, whose kernel
/// column 0 reads the padding (dweight).
#[test]
fn one_non_finite_value_matches_oracle() {
    const BAD: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (i, s) in [
        shape(16, 3, 16, 16, 8, 3, 1, 1),
        shape(16, 8, 8, 8, 16, 3, 1, 1),
    ]
    .iter()
    .enumerate()
    {
        let (oh, ow) = s.out();
        let k = s.spec.kernel;
        let seed = 4000 + i as u64;
        let x = values(s.n * s.c * s.h * s.w, seed);
        let wt = values(s.o * s.c * k * k, seed + 1);
        let b = values(s.o, seed + 2);
        let dy = upstream(s.n * s.o * oh * ow, Density::Quarter, seed + 5);
        for bad in BAD {
            // Image 5, channel 1, row 3, column 4.
            let mut xb = x.clone();
            xb[((5 * s.c + 1) * s.h + 3) * s.w + 4] = bad;
            check_data(s, xb, wt.clone(), b.clone(), dy.clone());
            // Output channel 1, input channel 0, kernel row 1, column 0.
            let mut wb = wt.clone();
            wb[s.c * k * k + k] = bad;
            check_data(s, x.clone(), wb, b.clone(), dy.clone());
            // Image 5, output channel 1, row 3, column 0.
            let mut dyb = dy.clone();
            dyb[((5 * s.o + 1) * oh + 3) * ow] = bad;
            check_data(s, x.clone(), wt.clone(), b.clone(), dyb);
        }
    }
}

/// A row sum starts from `+0.0`, so a row of `−0.0` products sums to `+0.0`
/// and turns a `−0.0` bias into `+0.0`; an output whose kernel window lies
/// wholly in the padding adds nothing and keeps the `−0.0`.
#[test]
fn signed_zero_bias_survives_only_where_no_row_is_added() {
    let s = Shape {
        n: 1,
        c: 2,
        h: 3,
        w: 3,
        o: 3,
        spec: ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 1,
        },
    };
    let x = vec![-0.0f32; s.c * s.h * s.w];
    let wt = vec![1.0f32; s.o * s.c];
    let b = vec![-0.0f32; s.o];
    let want = oracle_forward(&s, &x, &wt, &b);
    let neg_zero = (-0.0f32).to_bits();
    // 5×5 outputs per channel: the border ring sees only padding.
    assert_eq!(want[0].to_bits(), neg_zero);
    assert_eq!(want[6].to_bits(), 0.0f32.to_bits());
    let mut y = Tensor::scratch();
    conv2d_into(
        &Tensor::from_vec(x, &[s.n, s.c, s.h, s.w]),
        &Tensor::from_vec(wt, &[s.o, s.c, 1, 1]),
        &Tensor::from_vec(b, &[s.o]),
        s.spec,
        &mut y,
    );
    same(y.data(), &want, "forward");
}

/// The terms the tiles compute and the textbook skips, pinned where such a
/// term would be `0·inf` or `0·NaN` and so change the result (the check
/// before each call must send these calls to the textbook loops):
/// `dy = ±0.0` in some lanes of one eight-channel block at the pixels whose
/// taps read `x = ±inf / NaN` (dweight); `w = ±inf / NaN` on the kernel
/// column and row that fall in the padding at the borders (forward: a
/// border pixel's row sum; dinput: a `dy` position outside the output);
/// `dy = ±inf / NaN` only at the left and top border pixels, whose kernel
/// column and row 0 read the padding (dweight: those taps must stay finite).
#[test]
fn non_finite_operands_at_skipped_terms_match_oracle() {
    const BAD: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (i, s) in [
        shape(2, 3, 6, 7, 8, 3, 1, 1),
        shape(2, 2, 9, 9, 11, 5, 2, 2),
        shape(1, 4, 5, 12, 16, 3, 1, 1),
    ]
    .iter()
    .enumerate()
    {
        let (oh, ow) = s.out();
        let k = s.spec.kernel;
        let seed = 7000 + i as u64;
        let b = values(s.o, seed + 2);

        // dweight: non-finite inputs under gradients that are ±0 in the even
        // lanes of the first block, at every output pixel.
        let mut x = values(s.n * s.c * s.h * s.w, seed);
        for (j, v) in x.iter_mut().enumerate().filter(|(j, _)| j % 5 == 1) {
            *v = BAD[j / 5 % 3];
        }
        let mut dy = values(s.n * s.o * oh * ow, seed + 5);
        for (j, g) in dy.iter_mut().enumerate() {
            let oc = j / (oh * ow) % s.o;
            if oc < 8 && oc % 2 == 0 {
                *g = if j % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        let wt = values(s.o * s.c * k * k, seed + 1);
        check_data(s, x, wt, b.clone(), dy);

        // forward and dinput: non-finite weights on kernel column 0 and on
        // kernel row 0, which the left border columns and the top border
        // rows read in the padding.
        let mut wt = values(s.o * s.c * k * k, seed + 1);
        for (j, w) in wt.iter_mut().enumerate() {
            let (ky, kx) = (j / k % k, j % k);
            if kx == 0 || ky == 0 {
                *w = BAD[j % 3];
            }
        }
        let x = values(s.n * s.c * s.h * s.w, seed);
        let dy = values(s.n * s.o * oh * ow, seed + 5);
        check_data(s, x, wt, b.clone(), dy);

        // dweight: non-finite gradients at the border pixels only.
        let mut dy = values(s.n * s.o * oh * ow, seed + 5);
        for (j, g) in dy.iter_mut().enumerate() {
            let (oy, ox) = (j / ow % oh, j % ow);
            if ox == 0 || oy == 0 {
                *g = BAD[j % 3];
            }
        }
        let x = values(s.n * s.c * s.h * s.w, seed);
        let wt = values(s.o * s.c * k * k, seed + 1);
        check_data(s, x, wt, b, dy);
    }
}
