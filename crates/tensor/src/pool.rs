//! ReLU and 2×2 max-pooling, stride 2, in one pass: `maxpool2x2(relu(x))`
//! with the per-window argmax its backward reads.
//!
//! ReLU is `v > 0 ? v : 0` (MAXPS with zero second: NaN and −0.0 become
//! +0.0), so after it every window holds an element `≥ +0.0` and none is
//! dead. The forward therefore starts each window from `+0.0` and takes an
//! element only when it compares strictly greater, in window order
//! (`ky`, then `kx`): the first maximum wins, and a window with no positive
//! element pools to `+0.0`. Its argmax is the window quadrant that won
//! (`2·ky + kx`), or [`NO_GRADIENT`] for a `+0.0` output. The backward
//! writes `0.0 + g` at that quadrant and `+0.0` everywhere else, the
//! trailing row and column of an odd plane included, which is what a zeroed
//! buffer, the pooling scatter's `+=` and the ReLU mask made of it: a −0.0
//! upstream gradient lands as +0.0. A pass writes every element of its
//! output once.
//!
//! The plain bodies are the definition (the scalar tier). The vector bodies,
//! stamped for AVX2 (eight windows to a register) and AVX-512 (sixteen), run
//! groups of four adjacent windows of one output row, gathered across rows
//! and planes: a group reads eight floats of each of its two input rows,
//! and the four quadrants are split out with shuffles. `MAXPS` keeps `best`
//! unless `v > best`, the plain compare, and the argmax is blended on the
//! same compare, so every tier pools to the same bits and the same codes.
//! An output width that is not a multiple of four runs the plain body on
//! every tier.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::simd::{kernel, stamp_tiers};
use crate::tensor::Tensor;

/// The argmax code of a window that pooled to `+0.0`: no input element
/// receives its gradient.
const NO_GRADIENT: u8 = 4;

/// Windows to a group: one group's input rows are eight floats each.
const GROUP: usize = 4;

/// One call's geometry: `planes` input planes of `h × w`, pooled to
/// `oh × ow` (floor: an odd plane's last row or column pools nowhere).
struct Geom {
    planes: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn of(dims: &[usize]) -> Geom {
        assert_eq!(dims.len(), 4, "relu_maxpool2x2 expects NCHW");
        let (h, w) = (dims[2], dims[3]);
        assert!(h >= 2 && w >= 2, "2×2 pool window > input {h}×{w}");
        Geom {
            planes: dims[0] * dims[1],
            h,
            w,
            oh: h / 2,
            ow: w / 2,
        }
    }

    fn out_dims(&self, dims: &[usize]) -> [usize; 4] {
        [dims[0], dims[1], self.oh, self.ow]
    }
}

/// ReLU, then 2×2 max-pooling with stride 2, of an NCHW tensor into `out`
/// (`[n, c, h/2, w/2]`, floor), and one argmax code per output into
/// `argmax` for [`relu_maxpool2x2_backward_into`]. Both are caller-provided;
/// every cell of both is overwritten.
///
/// # Panics
/// Panics unless `input` is NCHW with `h ≥ 2` and `w ≥ 2`.
pub fn relu_maxpool2x2_into(input: &Tensor, out: &mut Tensor, argmax: &mut Vec<u8>) {
    let g = Geom::of(input.dims());
    out.resize(&g.out_dims(input.dims()));
    argmax.resize(out.numel(), 0);
    relu_pool(&g, input.data(), out.data_mut(), argmax);
}

/// The input gradient of [`relu_maxpool2x2_into`], from the output gradient
/// `dout` and the forward's `argmax`, into a caller-provided buffer of
/// `input_dims` (every cell overwritten).
///
/// # Panics
/// Panics unless `dout` has the forward's output shape for `input_dims` and
/// `argmax` one code per element of it.
pub fn relu_maxpool2x2_backward_into(
    input_dims: &[usize],
    dout: &Tensor,
    argmax: &[u8],
    dinput: &mut Tensor,
) {
    let g = Geom::of(input_dims);
    assert_eq!(dout.dims(), g.out_dims(input_dims), "dout shape mismatch");
    assert_eq!(argmax.len(), dout.numel(), "argmax length mismatch");
    dinput.resize(input_dims);
    relu_pool_backward(&g, dout.data(), argmax, dinput.data_mut());
}

kernel!(relu_pool => relu_pool_plain(
    g: &Geom,
    x: &[f32],
    y: &mut [f32],
    argmax: &mut [u8],
) intrinsics);

kernel!(relu_pool_backward => relu_pool_backward_plain(
    g: &Geom,
    dy: &[f32],
    argmax: &[u8],
    dx: &mut [f32],
) intrinsics);

/// A window's pooled value and argmax code, from its elements in window
/// order (see the module docs).
#[inline(always)]
fn window(elements: [f32; 4]) -> (f32, u8) {
    let (mut best, mut at) = (0.0f32, NO_GRADIENT);
    for (q, v) in elements.into_iter().enumerate() {
        if v > best {
            best = v;
            at = q as u8;
        }
    }
    (best, at)
}

/// Row `at` of the argmax codes: every bit at the quadrant that takes the
/// gradient, none at the other three (none at all for [`NO_GRADIENT`]).
const QUADRANT: [[u32; 4]; 5] = [
    [!0, 0, 0, 0],
    [0, !0, 0, 0],
    [0, 0, !0, 0],
    [0, 0, 0, !0],
    [0; 4],
];

/// The gradient `g` of a window with argmax code `at` into the window's
/// two elements of its top row and of its bottom row: `0.0 + g` at the
/// quadrant that won, `+0.0` (no bit set) at the other three. The quadrant
/// is a table row, not a branch: the codes follow the data.
#[inline(always)]
fn spread(top: &mut [f32], bottom: &mut [f32], g: f32, at: u8) {
    let (g0, m) = (
        (0.0 + g).to_bits(),
        QUADRANT[usize::from(at.min(NO_GRADIENT))],
    );
    top[0] = f32::from_bits(g0 & m[0]);
    top[1] = f32::from_bits(g0 & m[1]);
    bottom[0] = f32::from_bits(g0 & m[2]);
    bottom[1] = f32::from_bits(g0 & m[3]);
}

/// Every window of every plane, in output order.
#[inline(always)]
fn relu_pool_plain(g: &Geom, x: &[f32], y: &mut [f32], argmax: &mut [u8]) {
    let mut rows = y.chunks_exact_mut(g.ow).zip(argmax.chunks_exact_mut(g.ow));
    for plane in x.chunks_exact(g.h * g.w) {
        for (pair, (yr, ar)) in plane.chunks_exact(2 * g.w).zip(&mut rows) {
            let (top, bottom) = pair.split_at(g.w);
            let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for ((t, b), (yv, av)) in windows.zip(yr.iter_mut().zip(ar)) {
                (*yv, *av) = window([t[0], t[1], b[0], b[1]]);
            }
        }
    }
}

/// Every window of every plane spread back, and what no window reaches
/// zeroed.
#[inline(always)]
fn relu_pool_backward_plain(g: &Geom, dy: &[f32], argmax: &[u8], dx: &mut [f32]) {
    let mut rows = dy.chunks_exact(g.ow).zip(argmax.chunks_exact(g.ow));
    for plane in dx.chunks_exact_mut(g.h * g.w) {
        for (pair, (dr, ar)) in plane.chunks_exact_mut(2 * g.w).zip(&mut rows) {
            let (top, bottom) = pair.split_at_mut(g.w);
            let windows = top.chunks_exact_mut(2).zip(bottom.chunks_exact_mut(2));
            for ((t, b), (&gv, &av)) in windows.zip(dr.iter().zip(ar)) {
                spread(t, b, gv, av);
            }
        }
    }
    zero_unpooled(g, dx);
}

/// Zeroes the last column of an odd-width plane and the last row of an
/// odd-height one: no window reaches them.
#[inline(always)]
fn zero_unpooled(g: &Geom, dx: &mut [f32]) {
    if g.w % 2 == 1 {
        dx.iter_mut()
            .skip(g.w - 1)
            .step_by(g.w)
            .for_each(|v| *v = 0.0);
    }
    if g.h % 2 == 1 {
        for plane in dx.chunks_exact_mut(g.h * g.w) {
            plane[2 * g.oh * g.w..].fill(0.0);
        }
    }
}

/// One step of a vector tier's walk: a tile of `N` groups (each group's
/// top-left input offset, and the tile's first output), or one window of a
/// last, partial tile (its top-left input offset and its output).
enum Step<const N: usize> {
    Tile([usize; N], usize),
    Window(usize, usize),
}

/// The walk both vector tiers share: the groups of every output row, in
/// output order, `N` to a tile, and the windows a last partial tile would
/// hold one by one. The output width must be a multiple of [`GROUP`].
#[inline(always)]
fn walk<const N: usize>(g: &Geom, mut step: impl FnMut(Step<N>)) {
    let (mut ins, mut n, mut out) = ([0; N], 0, 0);
    for plane in 0..g.planes {
        for oy in 0..g.oh {
            let top = (plane * g.h + 2 * oy) * g.w;
            for gx in 0..g.ow / GROUP {
                ins[n] = top + 2 * GROUP * gx;
                n += 1;
                if n == N {
                    step(Step::Tile(ins, out));
                    (n, out) = (0, out + N * GROUP);
                }
            }
        }
    }
    for (k, &i) in ins[..n].iter().enumerate() {
        for j in 0..GROUP {
            step(Step::Window(i + 2 * j, out + k * GROUP + j));
        }
    }
}

/// Both vector tiers' bodies: [`walk`] with the tier's tiles. An output
/// width that is not a multiple of [`GROUP`] runs the plain bodies.
macro_rules! relu_pool_bodies {
    ($features:literal, $V:ty) => {
        /// [`relu_pool_plain`], `GROUPS` groups to a tile.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn relu_pool(g: &Geom, x: &[f32], y: &mut [f32], argmax: &mut [u8]) {
            if g.ow % GROUP != 0 {
                return relu_pool_plain(g, x, y, argmax);
            }
            // Every group's rows end inside `x`, and its outputs inside `y`
            // and `argmax`: `2·ow ≤ w`, `2·oh ≤ h`.
            assert!(x.len() == g.planes * g.h * g.w);
            assert!(y.len() == g.planes * g.oh * g.ow && argmax.len() == y.len());
            walk::<GROUPS>(g, |step| match step {
                // SAFETY: the caller enabled this tier's features; the
                // bounds are asserted above.
                Step::Tile(ins, out) => unsafe { forward_tile(x, g.w, ins, y, argmax, out) },
                Step::Window(i, o) => {
                    let e = [x[i], x[i + 1], x[i + g.w], x[i + g.w + 1]];
                    (y[o], argmax[o]) = window(e);
                }
            });
        }

        /// [`relu_pool_backward_plain`], `GROUPS` groups to a tile.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn relu_pool_backward(
            g: &Geom,
            dy: &[f32],
            argmax: &[u8],
            dx: &mut [f32],
        ) {
            if g.ow % GROUP != 0 {
                return relu_pool_backward_plain(g, dy, argmax, dx);
            }
            // As in the forward, with the roles of the buffers swapped.
            assert!(dx.len() == g.planes * g.h * g.w);
            assert!(dy.len() == g.planes * g.oh * g.ow && argmax.len() == dy.len());
            walk::<GROUPS>(g, |step| match step {
                // SAFETY: the caller enabled this tier's features; the
                // bounds are asserted above.
                Step::Tile(ins, out) => unsafe { backward_tile(dy, argmax, out, g.w, ins, dx) },
                Step::Window(i, o) => {
                    let (top, bottom) = dx[i..].split_at_mut(g.w);
                    spread(top, bottom, dy[o], argmax[o]);
                }
            });
            zero_unpooled(g, dx);
        }
    };
}

/// Eight windows to a register, two groups: the in-lane shuffles leave the
/// windows in the order `0 1 4 5 | 2 3 6 7`, put back in order at the store.
macro_rules! relu_pool8_bodies {
    ($features:literal, $V:ty) => {
        /// Groups to a tile.
        const GROUPS: usize = 2;

        /// The groups whose top rows start at `x[ins[k]]` into
        /// `y` / `argmax[out..out + 8]`.
        ///
        /// # Safety
        ///
        /// The tier's features, `ins[k] + w + 8 ≤ x.len()` for every group,
        /// and `out + 8` within `y` and `argmax`.
        #[target_feature(enable = $features)]
        #[inline]
        unsafe fn forward_tile(
            x: &[f32],
            w: usize,
            ins: [usize; GROUPS],
            y: &mut [f32],
            argmax: &mut [u8],
            out: usize,
        ) {
            let [i0, i1] = ins;
            debug_assert!(i0.max(i1) + w + 8 <= x.len());
            debug_assert!(out + 8 <= y.len() && out + 8 <= argmax.len());
            let xs = x.as_ptr();
            // SAFETY: each group's two rows of eight end inside `x`
            // (asserted above in a debug build, by the walk's bounds in
            // every build).
            let (t0, t1, b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(xs.add(i0)),
                    _mm256_loadu_ps(xs.add(i1)),
                    _mm256_loadu_ps(xs.add(i0 + w)),
                    _mm256_loadu_ps(xs.add(i1 + w)),
                )
            };
            let quadrants = [
                _mm256_shuffle_ps::<0x88>(t0, t1),
                _mm256_shuffle_ps::<0xDD>(t0, t1),
                _mm256_shuffle_ps::<0x88>(b0, b1),
                _mm256_shuffle_ps::<0xDD>(b0, b1),
            ];
            let (mut best, mut at) = (_mm256_setzero_ps(), _mm256_set1_epi32(NO_GRADIENT.into()));
            for (q, v) in quadrants.into_iter().enumerate() {
                let take = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(v, best));
                at = _mm256_blendv_epi8(at, _mm256_set1_epi32(q as i32), take);
                best = _mm256_max_ps(v, best);
            }
            let best = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(best)));
            // Bytes `0 1 4 5` in the low lane and `2 3 6 7` in the high one,
            // interleaved in pairs.
            let packed = _mm256_packs_epi16(_mm256_packs_epi32(at, at), _mm256_setzero_si256());
            let codes = _mm_unpacklo_epi16(
                _mm256_castsi256_si128(packed),
                _mm256_extracti128_si256::<1>(packed),
            );
            // SAFETY: the tile's eight outputs end inside `y` and `argmax`.
            unsafe {
                _mm256_storeu_ps(y.as_mut_ptr().add(out), best);
                _mm_storel_epi64(argmax.as_mut_ptr().add(out).cast(), codes);
            }
        }

        /// The gradient of the tile [`forward_tile`] pooled at `out` into
        /// the groups' rows at `dx[ins[k]]`.
        ///
        /// # Safety
        ///
        /// As for [`forward_tile`], with `dy` / `argmax` for its outputs and
        /// `dx` for its input.
        #[target_feature(enable = $features)]
        #[inline]
        unsafe fn backward_tile(
            dy: &[f32],
            argmax: &[u8],
            out: usize,
            w: usize,
            ins: [usize; GROUPS],
            dx: &mut [f32],
        ) {
            let [i0, i1] = ins;
            debug_assert!(out + 8 <= dy.len() && out + 8 <= argmax.len());
            debug_assert!(i0.max(i1) + w + 8 <= dx.len());
            // SAFETY: the tile's eight outputs end inside `dy` and `argmax`.
            let (gv, at) = unsafe {
                (
                    _mm256_loadu_ps(dy.as_ptr().add(out)),
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(argmax.as_ptr().add(out).cast())),
                )
            };
            let g0 = _mm256_add_ps(_mm256_setzero_ps(), gv);
            let mut d = [g0; 4];
            for (q, d) in d.iter_mut().enumerate() {
                let won = _mm256_cmpeq_epi32(at, _mm256_set1_epi32(q as i32));
                *d = _mm256_and_ps(_mm256_castsi256_ps(won), g0);
            }
            for (left, right, row) in [(d[0], d[1], 0), (d[2], d[3], w)] {
                // Windows `0 1 | 4 5` and `2 3 | 6 7`, each element beside
                // its right neighbour.
                let (lo, hi) = (
                    _mm256_unpacklo_ps(left, right),
                    _mm256_unpackhi_ps(left, right),
                );
                // SAFETY: each group's two rows of eight end inside `dx`.
                unsafe {
                    _mm256_storeu_ps(
                        dx.as_mut_ptr().add(i0 + row),
                        _mm256_permute2f128_ps::<0x20>(lo, hi),
                    );
                    _mm256_storeu_ps(
                        dx.as_mut_ptr().add(i1 + row),
                        _mm256_permute2f128_ps::<0x31>(lo, hi),
                    );
                }
            }
        }
    };
}

/// Sixteen windows to a register, four groups, in order: a group's two
/// rows of eight are a 256-bit half each of two registers, and one
/// two-source permute takes a quadrant out of both. The instructions need
/// AVX-512 F (`vpermt2ps`, mask compares), DQ (256-bit inserts and
/// extracts) and BW with VL (byte masks on a 128-bit register): the
/// features `Tier::Avx512` checks, and no other.
macro_rules! relu_pool16_bodies {
    ($features:literal, $V:ty) => {
        /// Groups to a tile.
        const GROUPS: usize = 4;

        /// The even (`kx = 0`) and odd (`kx = 1`) elements of two
        /// registers, in order.
        ///
        /// # Safety
        ///
        /// The tier's features.
        #[target_feature(enable = $features)]
        #[inline]
        unsafe fn split(lo: __m512, hi: __m512) -> (__m512, __m512) {
            let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            let odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
            (
                _mm512_permutex2var_ps(lo, even, hi),
                _mm512_permutex2var_ps(lo, odd, hi),
            )
        }

        /// The groups whose top rows start at `x[ins[k]]` into
        /// `y` / `argmax[out..out + 16]`.
        ///
        /// # Safety
        ///
        /// The tier's features, `ins[k] + w + 8 ≤ x.len()` for every group,
        /// and `out + 16` within `y` and `argmax`.
        #[target_feature(enable = $features)]
        #[inline]
        unsafe fn forward_tile(
            x: &[f32],
            w: usize,
            ins: [usize; GROUPS],
            y: &mut [f32],
            argmax: &mut [u8],
            out: usize,
        ) {
            let [i0, i1, i2, i3] = ins;
            debug_assert!(i0.max(i1).max(i2).max(i3) + w + 8 <= x.len());
            debug_assert!(out + 16 <= y.len() && out + 16 <= argmax.len());
            let xs = x.as_ptr();
            let mut halves = [_mm512_setzero_ps(); 4];
            for (h, (a, b)) in
                halves
                    .iter_mut()
                    .zip([(i0, i1), (i2, i3), (i0 + w, i1 + w), (i2 + w, i3 + w)])
            {
                // SAFETY: each group's two rows of eight end inside `x`
                // (asserted above in a debug build, by the walk's bounds in
                // every build).
                let (a, b) = unsafe { (_mm256_loadu_ps(xs.add(a)), _mm256_loadu_ps(xs.add(b))) };
                *h = _mm512_insertf32x8::<1>(_mm512_castps256_ps512(a), b);
            }
            let [t01, t23, b01, b23] = halves;
            // SAFETY: the caller enabled this tier's features.
            let ((q0, q1), (q2, q3)) = unsafe { (split(t01, t23), split(b01, b23)) };
            let (mut best, mut at) = (_mm512_setzero_ps(), _mm_set1_epi8(NO_GRADIENT as i8));
            for (q, v) in [q0, q1, q2, q3].into_iter().enumerate() {
                let take = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, best);
                at = _mm_mask_mov_epi8(at, take, _mm_set1_epi8(q as i8));
                best = _mm512_max_ps(v, best);
            }
            // SAFETY: the tile's sixteen outputs end inside `y` and `argmax`.
            unsafe {
                _mm512_storeu_ps(y.as_mut_ptr().add(out), best);
                _mm_storeu_si128(argmax.as_mut_ptr().add(out).cast(), at);
            }
        }

        /// The gradient of the tile [`forward_tile`] pooled at `out` into
        /// the groups' rows at `dx[ins[k]]`.
        ///
        /// # Safety
        ///
        /// As for [`forward_tile`], with `dy` / `argmax` for its outputs and
        /// `dx` for its input.
        #[target_feature(enable = $features)]
        #[inline]
        unsafe fn backward_tile(
            dy: &[f32],
            argmax: &[u8],
            out: usize,
            w: usize,
            ins: [usize; GROUPS],
            dx: &mut [f32],
        ) {
            let [i0, i1, i2, i3] = ins;
            debug_assert!(out + 16 <= dy.len() && out + 16 <= argmax.len());
            debug_assert!(i0.max(i1).max(i2).max(i3) + w + 8 <= dx.len());
            // SAFETY: the tile's sixteen outputs end inside `dy` and `argmax`.
            let (gv, at) = unsafe {
                (
                    _mm512_loadu_ps(dy.as_ptr().add(out)),
                    _mm_loadu_si128(argmax.as_ptr().add(out).cast()),
                )
            };
            let g0 = _mm512_add_ps(_mm512_setzero_ps(), gv);
            let mut d = [g0; 4];
            for (q, d) in d.iter_mut().enumerate() {
                *d = _mm512_maskz_mov_ps(_mm_cmpeq_epi8_mask(at, _mm_set1_epi8(q as i8)), g0);
            }
            // Element `k` of `left` beside element `k` of `right`: windows
            // 0–7 (groups 0, 1) and 8–15 (groups 2, 3).
            let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            let hi = _mm512_add_epi32(lo, _mm512_set1_epi32(8));
            for (left, right, row) in [(d[0], d[1], 0), (d[2], d[3], w)] {
                let (a, b) = (
                    _mm512_permutex2var_ps(left, lo, right),
                    _mm512_permutex2var_ps(left, hi, right),
                );
                let dxs = dx.as_mut_ptr();
                // SAFETY: each group's two rows of eight end inside `dx`.
                unsafe {
                    _mm256_storeu_ps(dxs.add(i0 + row), _mm512_castps512_ps256(a));
                    _mm256_storeu_ps(dxs.add(i1 + row), _mm512_extractf32x8_ps::<1>(a));
                    _mm256_storeu_ps(dxs.add(i2 + row), _mm512_castps512_ps256(b));
                    _mm256_storeu_ps(dxs.add(i3 + row), _mm512_extractf32x8_ps::<1>(b));
                }
            }
        }
    };
}

stamp_tiers!(mod { relu_pool_bodies } avx2 { relu_pool8_bodies } avx512 { relu_pool16_bodies });
