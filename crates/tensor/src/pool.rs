//! 2-D max pooling with argmax bookkeeping for the backward pass.
//!
//! The forward compares [`LANES`] consecutive output windows at once (a
//! tile may run across rows and planes), one window position at a time in
//! window order. Each window starts from `−inf` at its own first element
//! and takes an element only when it compares strictly greater: the first
//! maximum wins, a NaN never does, and a window with nothing above `−inf`
//! (all NaN, all `−inf`) records its first element, so its gradient stays
//! inside it. The vector body, stamped for AVX2 and AVX-512, is a
//! transcription of the plain one (`MAXPS` keeps `best` unless `v > best`,
//! the plain compare), so every tier pools to the same bits and the same
//! indices.

use crate::simd::{kernel, stamp_tiers, LANES};
use crate::tensor::Tensor;

/// Static description of a pooling window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSpec {
    pub window: usize,
    pub stride: usize,
}

impl PoolSpec {
    /// Non-overlapping square pooling (`window == stride`).
    pub fn square(window: usize) -> Self {
        PoolSpec {
            window,
            stride: window,
        }
    }

    #[inline]
    pub fn out_size(&self, n: usize) -> usize {
        assert!(n >= self.window, "pool window {} > input {n}", self.window);
        (n - self.window) / self.stride + 1
    }
}

/// Max-pools an NCHW tensor into `out`, and the flat indices (into the
/// input buffer) of each selected maximum into `argmax`, for the backward
/// pass. Both are caller-provided; every cell of both is overwritten.
pub fn maxpool2d_into(input: &Tensor, spec: PoolSpec, out: &mut Tensor, argmax: &mut Vec<u32>) {
    assert_eq!(input.ndim(), 4, "maxpool2d expects NCHW");
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    assert!(
        input.numel() <= u32::MAX as usize,
        "maxpool2d: argmax indices must fit in u32"
    );
    out.resize(&[n, c, oh, ow]);
    argmax.clear();
    argmax.resize(n * c * oh * ow, 0);
    let g = PoolGeom {
        h,
        w,
        oh,
        ow,
        window: spec.window,
        stride: spec.stride,
    };
    pool(&g, input.data(), out.data_mut(), argmax);
}

/// One pooling call's geometry.
struct PoolGeom {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    window: usize,
    stride: usize,
}

/// Walks the pooling windows of every plane in output order, handing out
/// each window's first input element.
struct Windows<'a> {
    g: &'a PoolGeom,
    ox: usize,
    oy: usize,
    /// First element of the current window, of its window row, of its plane.
    first: usize,
    row: usize,
    plane: usize,
}

impl<'a> Windows<'a> {
    fn new(g: &'a PoolGeom) -> Self {
        Windows {
            g,
            ox: 0,
            oy: 0,
            first: 0,
            row: 0,
            plane: 0,
        }
    }

    /// The first elements of the next `n ≤ LANES` windows; the lanes past
    /// them repeat the last one (their results are not stored).
    #[inline(always)]
    fn next_tile(&mut self, n: usize) -> [usize; LANES] {
        let mut firsts = [0; LANES];
        for (t, f) in firsts.iter_mut().enumerate() {
            *f = self.first;
            if t + 1 < n {
                self.step();
            }
        }
        self.step();
        firsts
    }

    #[inline(always)]
    fn step(&mut self) {
        let g = self.g;
        self.ox += 1;
        self.first += g.stride;
        if self.ox == g.ow {
            self.ox = 0;
            self.oy += 1;
            self.row += g.stride * g.w;
            if self.oy == g.oh {
                self.oy = 0;
                self.plane += g.h * g.w;
                self.row = self.plane;
            }
            self.first = self.row;
        }
    }
}

kernel!(pool => pool_plain(
    g: &PoolGeom,
    x: &[f32],
    y: &mut [f32],
    argmax: &mut [u32],
) intrinsics);

/// Every plane of `x [planes][h][w]` pooled into `y` / `argmax
/// [planes][oh][ow]`, [`LANES`] consecutive output windows at a time, window
/// positions in order (`ky`, then `kx`); see the module docs.
#[inline(always)]
fn pool_plain(g: &PoolGeom, x: &[f32], y: &mut [f32], argmax: &mut [u32]) {
    let mut windows = Windows::new(g);
    for (yt, at_out) in y.chunks_mut(LANES).zip(argmax.chunks_mut(LANES)) {
        let firsts = windows.next_tile(yt.len());
        let mut best = [f32::NEG_INFINITY; LANES];
        let mut at: [u32; LANES] = firsts.map(|i| i as u32);
        for ky in 0..g.window {
            for kx in 0..g.window {
                let off = ky * g.w + kx;
                for ((b, a), &f) in best.iter_mut().zip(&mut at).zip(&firsts) {
                    let v = x[f + off];
                    if v > *b {
                        *b = v;
                        *a = (f + off) as u32;
                    }
                }
            }
        }
        yt.copy_from_slice(&best[..yt.len()]);
        at_out.copy_from_slice(&at[..yt.len()]);
    }
}

/// Intrinsics transcription of [`pool_plain`]: `best = max(v, best)` and
/// the index blended on the same `v > best` compare. Stamped for AVX2 and,
/// from the same tokens, for AVX-512 (still eight windows to a register).
macro_rules! pool_bodies {
    ($features:literal, $V:ty) => {
        #[target_feature(enable = $features)]
        pub(super) unsafe fn pool(g: &PoolGeom, x: &[f32], y: &mut [f32], argmax: &mut [u32]) {
            let k = g.window;
            // Every window of every plane ends inside `x`.
            let planes = y.len() / (g.oh * g.ow);
            assert!(planes * g.h * g.w <= x.len() && argmax.len() == y.len());
            assert!((g.oh - 1) * g.stride + k <= g.h && (g.ow - 1) * g.stride + k <= g.w);
            let mut windows = Windows::new(g);
            let xs = x.as_ptr();
            for (yt, at_out) in y.chunks_mut(LANES).zip(argmax.chunks_mut(LANES)) {
                let f = windows.next_tile(yt.len());
                let start = _mm256_setr_epi32(
                    f[0] as i32,
                    f[1] as i32,
                    f[2] as i32,
                    f[3] as i32,
                    f[4] as i32,
                    f[5] as i32,
                    f[6] as i32,
                    f[7] as i32,
                );
                let (mut best, mut at) = (_mm256_set1_ps(f32::NEG_INFINITY), start);
                for ky in 0..k {
                    for kx in 0..k {
                        let off = ky * g.w + kx;
                        let v = _mm256_setr_ps(
                            *xs.add(f[0] + off),
                            *xs.add(f[1] + off),
                            *xs.add(f[2] + off),
                            *xs.add(f[3] + off),
                            *xs.add(f[4] + off),
                            *xs.add(f[5] + off),
                            *xs.add(f[6] + off),
                            *xs.add(f[7] + off),
                        );
                        let take = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(v, best));
                        let i = _mm256_add_epi32(start, _mm256_set1_epi32(off as i32));
                        at = _mm256_blendv_epi8(at, i, take);
                        best = _mm256_max_ps(v, best);
                    }
                }
                if yt.len() == LANES {
                    _mm256_storeu_ps(yt.as_mut_ptr(), best);
                    _mm256_storeu_si256(at_out.as_mut_ptr().cast(), at);
                } else {
                    let (mut b, mut a) = ([0.0f32; LANES], [0u32; LANES]);
                    _mm256_storeu_ps(b.as_mut_ptr(), best);
                    _mm256_storeu_si256(a.as_mut_ptr().cast(), at);
                    yt.copy_from_slice(&b[..yt.len()]);
                    at_out.copy_from_slice(&a[..yt.len()]);
                }
            }
        }
    };
}

stamp_tiers!(mod { pool_bodies });

/// Scatters `dout` back through the argmax indices recorded by
/// [`maxpool2d_into`], into a caller-provided buffer (zeroed first).
pub fn maxpool2d_backward_into(
    input_dims: &[usize],
    dout: &Tensor,
    argmax: &[u32],
    dinput: &mut Tensor,
) {
    assert_eq!(dout.numel(), argmax.len(), "argmax length mismatch");
    dinput.resize(input_dims);
    dinput.fill(0.0);
    let dx = dinput.data_mut();
    for (g, &i) in dout.data().iter().zip(argmax) {
        dx[i as usize] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use crate::simd::Tier;

    /// The forward into fresh buffers.
    fn maxpool2d(x: &Tensor, spec: PoolSpec) -> (Tensor, Vec<u32>) {
        let (mut y, mut arg) = (Tensor::scratch(), Vec::new());
        maxpool2d_into(x, spec, &mut y, &mut arg);
        (y, arg)
    }

    /// The backward into a fresh buffer.
    fn maxpool2d_backward(dims: &[usize], dout: &Tensor, arg: &[u32]) -> Tensor {
        let mut dx = Tensor::scratch();
        maxpool2d_backward_into(dims, dout, arg, &mut dx);
        dx
    }

    #[test]
    fn pools_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        );
        let (y, arg) = maxpool2d(&x, PoolSpec::square(2));
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.75]);
        assert_eq!(arg, vec![5, 7, 8, 15]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let (_, arg) = maxpool2d(&x, PoolSpec::square(2));
        let dout = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]);
        let dx = maxpool2d_backward(&[1, 1, 2, 2], &dout, &arg);
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn overlapping_windows_accumulate() {
        // stride 1 window 2 on a 3-wide row: middle max can win twice.
        let x = Tensor::from_vec(vec![0.0, 5.0, 0.0], &[1, 1, 1, 3]);
        let spec = PoolSpec {
            window: 2,
            stride: 1,
        };
        let (y, arg) = maxpool2d(
            &x,
            PoolSpec {
                window: 1,
                stride: 1,
            },
        );
        assert_eq!(y.numel(), 3); // sanity for 1x1 window
        let x2 = Tensor::from_vec(vec![0.0, 5.0, 0.0, 0.0], &[1, 1, 2, 2]);
        let (_, arg2) = maxpool2d(&x2, spec);
        let dout = Tensor::ones(&[1, 1, 1, 1]);
        let dx = maxpool2d_backward(&[1, 1, 2, 2], &dout, &arg2);
        assert_eq!(dx.data()[1], 1.0);
        let _ = (arg, y);
    }

    #[test]
    fn negative_inputs_are_pooled_correctly() {
        let x = Tensor::from_vec(vec![-5.0, -1.0, -3.0, -2.0], &[1, 1, 2, 2]);
        let (y, _) = maxpool2d(&x, PoolSpec::square(2));
        assert_eq!(y.data(), &[-1.0]);
    }

    /// The textbook loop: every window from `−inf` at its first element,
    /// strictly greater elements taken in window order.
    fn oracle(x: &[f32], dims: [usize; 4], spec: PoolSpec) -> (Vec<f32>, Vec<u32>) {
        let [n, c, h, w] = dims;
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let (mut y, mut arg) = (Vec::new(), Vec::new());
        for plane in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = plane * h * w + oy * spec.stride * w + ox * spec.stride;
                    let (mut best, mut at) = (f32::NEG_INFINITY, first);
                    for ky in 0..spec.window {
                        for kx in 0..spec.window {
                            let i = first + ky * w + kx;
                            if x[i] > best {
                                best = x[i];
                                at = i;
                            }
                        }
                    }
                    y.push(best);
                    arg.push(at as u32);
                }
            }
        }
        (y, arg)
    }

    /// Every tier's body against the oracle, bit for bit, on ragged tiles (tiles
    /// that run across rows and planes), overlapping and gapped windows, and
    /// inputs with NaN, ±inf and ±0.
    #[test]
    fn every_tier_matches_the_textbook_loop() {
        const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        for (dims, window, stride) in [
            ([2, 3, 8, 8], 2, 2),
            ([3, 2, 16, 16], 2, 2),
            ([1, 5, 7, 9], 3, 2),
            ([2, 1, 5, 6], 2, 1),
            ([1, 2, 9, 11], 2, 3),
            ([4, 1, 3, 3], 3, 3),
            ([1, 1, 4, 20], 1, 1),
        ] {
            let spec = PoolSpec { window, stride };
            let len: usize = dims.iter().product();
            for seed in 0..4u32 {
                let x: Vec<f32> = (0..len as u32)
                    .map(|i| {
                        let k = i.wrapping_mul(2_654_435_761).wrapping_add(seed * 97) >> 7;
                        if k % 7 == 0 && seed > 0 {
                            SPECIALS[(k / 7 % 5) as usize]
                        } else {
                            (k % 1000) as f32 * 0.01 - 5.0
                        }
                    })
                    .collect();
                let (want_y, want_arg) = oracle(&x, dims, spec);
                let g = PoolGeom {
                    h: dims[2],
                    w: dims[3],
                    oh: spec.out_size(dims[2]),
                    ow: spec.out_size(dims[3]),
                    window,
                    stride,
                };
                let mut bodies: Vec<(&str, Vec<f32>, Vec<u32>)> = Vec::new();
                let (mut y, mut arg) = (vec![f32::NAN; want_y.len()], vec![7u32; want_y.len()]);
                pool_plain(&g, &x, &mut y, &mut arg);
                bodies.push(("plain", y, arg));
                #[cfg(target_arch = "x86_64")]
                for (tier, body) in [
                    (
                        Tier::Avx2,
                        avx2::pool as unsafe fn(&PoolGeom, &[f32], &mut [f32], &mut [u32]),
                    ),
                    (Tier::Avx512, avx512::pool),
                ] {
                    if !tier.available() {
                        eprintln!("skipped: this CPU lacks the {} tier", tier.name());
                        continue;
                    }
                    let (mut y, mut arg) = (vec![f32::NAN; want_y.len()], vec![7u32; want_y.len()]);
                    // SAFETY: the tier's features were just detected.
                    unsafe { body(&g, &x, &mut y, &mut arg) };
                    bodies.push((tier.name(), y, arg));
                }
                for (name, y, arg) in bodies {
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&y),
                        bits(&want_y),
                        "{name} {dims:?} {spec:?} seed {seed}"
                    );
                    assert_eq!(arg, want_arg, "{name} {dims:?} {spec:?} seed {seed}");
                }
            }
        }
    }

    /// A window with nothing above `−inf` (all NaN, or all `−inf`) records
    /// its own first element, so its gradient stays inside the window — in
    /// the second image here, not at image 0's first pixel.
    #[test]
    fn a_dead_window_keeps_its_gradient_in_its_own_window() {
        for dead in [f32::NAN, f32::NEG_INFINITY] {
            let x = Tensor::from_vec(
                vec![1.0, 2.0, 3.0, 4.0, dead, dead, dead, dead],
                &[2, 1, 2, 2],
            );
            let (y, arg) = maxpool2d(&x, PoolSpec::square(2));
            assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
            assert_eq!(arg, vec![3, 4]);
            let dout = Tensor::from_vec(vec![1.0, 10.0], &[2, 1, 1, 1]);
            let dx = maxpool2d_backward(&[2, 1, 2, 2], &dout, &arg);
            assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn out_size_math() {
        assert_eq!(PoolSpec::square(2).out_size(8), 4);
        assert_eq!(
            PoolSpec {
                window: 3,
                stride: 2
            }
            .out_size(7),
            3
        );
    }
}
