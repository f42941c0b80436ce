//! Direct 2-D convolution, forward and backward, on channel-lane kernels.
//!
//! Inputs are NCHW; weights are `[out_ch, in_ch, kh, kw]`. Images in this
//! codebase are small (≤ 32×32) and kernel rows short (3 floats), so the
//! eight SIMD lanes never run along a kernel row. They run across
//! **independent output scalars** instead:
//!
//! - *forward* and *dweight* put eight output channels in the lanes. The
//!   weights are packed `[o/8][c][kh][kw][8]` (zero-padded to a multiple of
//!   eight channels), one input value is broadcast against a block, and
//!   `dy` is viewed channel-minor so its zero-skip is a per-lane select;
//! - *dinput* views `w` and `dx` channel-minor (`[o][kh][kw][c]`,
//!   `[h][w][c]`), so one output pixel's scatter into a kernel row is a
//!   contiguous run of `kw·c` floats and its zero-skip stays a scalar branch.
//!
//! ## Determinism
//!
//! Every output scalar keeps the operation sequence of the textbook loops
//! (kept as the oracle in `tests/conv_oracle.rs`):
//!
//! - forward: `acc = bias`; per `(ic, ky)` in order, `s = dot(x_row, w_row)`
//!   over the clipped kernel row — [`crate::dot_slices`]' order, i.e.
//!   `s = +0.0; s += x·w` for `kx` ascending while the row is shorter than
//!   eight — then `acc += s`;
//! - backward: `dx += g·w` and `dw += g·x` as a separate multiply and add,
//!   visiting outputs in `(oc, oy, ox)` order and skipping `g == 0` terms
//!   (never "multiply by zero and add": that differs for non-finite
//!   operands); per-image `dw` partials are summed in ascending image order.
//!
//! A lane only ever holds one such scalar, so results are bit-identical at
//! any thread count and with SIMD dispatch on or off (see `simd.rs`).

use crate::simd::{lane_kernel, scalar::dot_lanes, LANES};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Static description of a convolution (kernel size, stride, padding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvSpec {
    /// Spatial output size for input extent `n`.
    #[inline]
    pub fn out_size(&self, n: usize) -> usize {
        assert!(
            n + 2 * self.pad >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            n + 2 * self.pad
        );
        (n + 2 * self.pad - self.kernel) / self.stride + 1
    }
}

/// Gradients produced by [`conv2d_backward`].
pub struct Conv2dGrads {
    pub dinput: Tensor,
    pub dweight: Tensor,
    pub dbias: Tensor,
}

impl Conv2dGrads {
    /// Placeholder gradients for use as a reusable [`conv2d_backward_into`]
    /// destination; resized (and fully overwritten) on first use.
    pub fn scratch() -> Self {
        Conv2dGrads {
            dinput: Tensor::scratch(),
            dweight: Tensor::scratch(),
            dbias: Tensor::scratch(),
        }
    }
}

/// One image's geometry, shared by the three per-image kernels.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    fn new(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> (usize, Geom) {
        let (n, c, h, w) = nchw(input);
        let (o, c2, kh, kw) = nchw(weight);
        assert_eq!(c, c2, "conv2d channel mismatch");
        assert_eq!(kh, spec.kernel);
        assert_eq!(kw, spec.kernel);
        let g = Geom {
            c,
            h,
            w,
            o,
            kh,
            kw,
            oh: spec.out_size(h),
            ow: spec.out_size(w),
            stride: spec.stride,
            pad: spec.pad,
        };
        (n, g)
    }

    /// Eight-channel blocks covering the `o` output channels.
    fn blocks(&self) -> usize {
        self.o.div_ceil(LANES)
    }

    /// Kernel taps per output channel.
    fn taps(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Output channels of block `ob` that exist (the rest is padding).
    fn lanes(&self, ob: usize) -> usize {
        (self.o - ob * LANES).min(LANES)
    }

    /// Kernel offsets `lo..hi` of output coordinate `out` whose input
    /// coordinate `out·stride − pad + k` lies in `0..n`, and the input
    /// coordinate of `lo`. `lo == hi` when the kernel misses the input.
    #[inline(always)]
    fn clip(&self, out: usize, n: usize, k: usize) -> (usize, usize, usize) {
        let i0 = (out * self.stride) as isize - self.pad as isize;
        let lo = (-i0).clamp(0, k as isize);
        let hi = (n as isize - i0).clamp(0, k as isize);
        (lo as usize, hi as usize, (i0 + lo).max(0) as usize)
    }

    /// Whether the [`TILE`] output columns from `ox` all clip to the kernel
    /// columns of `cols = clip(ox)`. Both ends of the range fall
    /// monotonically with `ox`, so checking the last column covers them all.
    #[inline(always)]
    fn tile_shares_cols(&self, ox: usize, cols: (usize, usize, usize)) -> bool {
        ox + TILE <= self.ow && {
            let last = self.clip(ox + TILE - 1, self.w, self.kw);
            (last.0, last.1) == (cols.0, cols.1)
        }
    }
}

thread_local! {
    /// Lane-packed and channel-minor operand views: the packed weights and
    /// bias of a forward call (on the calling thread), one image's `dy` and
    /// `dx` views of a backward call (on whichever thread runs that image).
    /// Grows once per thread, so the warm training path stays
    /// allocation-free.
    static VIEWS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's view buffer, resized to `len` zeros.
fn with_views<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    VIEWS.with(|cell| {
        let mut views = cell.borrow_mut();
        views.clear();
        views.resize(len, 0.0);
        f(&mut views)
    })
}

/// Forward convolution: `input [N,C,H,W]`, `weight [O,C,kh,kw]`, `bias [O]`.
///
/// Parallel over the batch dimension: each worker-pool task owns one image's
/// output slab, so results are bit-identical at any thread count.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
    let mut out = Tensor::scratch();
    conv2d_into(input, weight, bias, spec, &mut out);
    out
}

/// [`conv2d`] into a caller-provided buffer (every output cell overwritten).
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: ConvSpec,
    out: &mut Tensor,
) {
    let (n, g) = Geom::new(input, weight, spec);
    assert_eq!(bias.numel(), g.o, "conv2d bias mismatch");
    out.resize(&[n, g.o, g.oh, g.ow]);
    let x = input.data();
    let image = g.c * g.h * g.w;

    let wlen = g.blocks() * g.taps() * LANES;
    with_views(wlen + g.blocks() * LANES, |views| {
        let (wp, bp) = views.split_at_mut(wlen);
        pack_lanes(weight.data(), g.o, g.taps(), wp);
        bp[..g.o].copy_from_slice(bias.data());
        let (wp, bp) = (&*wp, &*bp);
        crate::threads::parallel_for_chunks(out.data_mut(), g.o * g.oh * g.ow, |img, y| {
            forward(&g, &x[img * image..(img + 1) * image], wp, bp, y);
        });
    });
}

/// `src [o][len]` → `dst [o/8][len][8]`: eight consecutive rows interleaved
/// so element `t` of each sits in one lane block. Lanes past `o` are left
/// as they are (zero in a freshly cleared buffer).
fn pack_lanes(src: &[f32], o: usize, len: usize, dst: &mut [f32]) {
    for (oc, row) in src.chunks_exact(len).enumerate().take(o) {
        let base = (oc / LANES) * len * LANES + oc % LANES;
        for (t, &v) in row.iter().enumerate() {
            dst[base + t * LANES] = v;
        }
    }
}

lane_kernel!(forward => forward_body(g: &Geom, x: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]));

/// Output pixels the forward and dweight kernels handle together when they
/// share one clipped kernel-row range (the interior of a row): one weight or
/// tap load and one set of index arithmetic then serve `TILE` pixels. Six is
/// what sixteen 8-lane registers hold in the forward pass: `TILE`
/// accumulators, `TILE` row sums, a weight block and a broadcast input.
const TILE: usize = 6;

/// One image forward: `x [c][h][w]`, packed weights `wp [o/8][c][kh][kw][8]`,
/// padded bias `bp`, output `y [o][oh][ow]`.
#[inline(always)]
fn forward_body(g: &Geom, x: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]) {
    let plane = g.oh * g.ow;
    let block = g.taps() * LANES;
    for ob in 0..g.blocks() {
        let wblk = &wp[ob * block..(ob + 1) * block];
        let bias: [f32; LANES] = bp[ob * LANES..(ob + 1) * LANES]
            .try_into()
            .expect("LANES-sized slice");
        let lanes = g.lanes(ob);
        let mut store = |pix: usize, acc: &[f32; LANES]| {
            for (l, &a) in acc.iter().enumerate().take(lanes) {
                y[(ob * LANES + l) * plane + pix] = a;
            }
        };
        for oy in 0..g.oh {
            let rows = g.clip(oy, g.h, g.kh);
            let mut ox = 0;
            while ox < g.ow {
                let cols = g.clip(ox, g.w, g.kw);
                if g.tile_shares_cols(ox, cols) {
                    let acc = forward_tile::<TILE>(g, x, wblk, bias, rows, cols);
                    for (t, a) in acc.iter().enumerate() {
                        store(oy * g.ow + ox + t, a);
                    }
                    ox += TILE;
                } else {
                    let [acc] = forward_tile::<1>(g, x, wblk, bias, rows, cols);
                    store(oy * g.ow + ox, &acc);
                    ox += 1;
                }
            }
        }
    }
}

/// `T` horizontally adjacent output pixels × eight channels. `rows` and
/// `cols` are [`Geom::clip`] of the first pixel; all `T` share `cols`' range.
#[inline(always)]
fn forward_tile<const T: usize>(
    g: &Geom,
    x: &[f32],
    wblk: &[f32],
    bias: [f32; LANES],
    (ky_lo, ky_hi, iy): (usize, usize, usize),
    (kx_lo, kx_hi, ix): (usize, usize, usize),
) -> [[f32; LANES]; T] {
    let len = kx_hi - kx_lo;
    let mut acc = [bias; T];
    if len == 0 {
        return acc;
    }
    for ic in 0..g.c {
        for ky in ky_lo..ky_hi {
            let xs = (ic * g.h + iy + ky - ky_lo) * g.w + ix;
            let ws = ((ic * g.kh + ky) * g.kw + kx_lo) * LANES;
            let xrow = &x[xs..xs + (T - 1) * g.stride + len];
            let wrow = &wblk[ws..ws + len * LANES];
            let mut s = [[0.0f32; LANES]; T];
            if len < LANES {
                // `dot_lanes`' short-row order, with each weight block
                // loaded once for all T pixels.
                for (kx, wv) in wrow.chunks_exact(LANES).enumerate() {
                    for (t, st) in s.iter_mut().enumerate() {
                        let xv = xrow[t * g.stride + kx];
                        for (sl, &w) in st.iter_mut().zip(wv) {
                            *sl += xv * w;
                        }
                    }
                }
            } else {
                for (t, st) in s.iter_mut().enumerate() {
                    *st = dot_lanes(&xrow[t * g.stride..t * g.stride + len], wrow);
                }
            }
            for (a, st) in acc.iter_mut().zip(&s) {
                for (al, &sl) in a.iter_mut().zip(st) {
                    *al += sl;
                }
            }
        }
    }
    acc
}

/// Backward convolution: given `dout = dL/dy`, produce gradients w.r.t.
/// input, weight, and bias.
///
/// Parallel over the batch dimension. `dinput` is naturally disjoint per
/// image; `dweight` is accumulated into per-image partial buffers that are
/// reduced afterwards in ascending image order, so the floating-point
/// reduction order — and therefore the result — is fixed at any thread
/// count. (`dy == 0` entries are skipped: max-pooling backward scatters
/// mostly-zero gradients into this kernel, and `g·w` / `g·x` contribute
/// exact zeros for finite operands.)
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
) -> Conv2dGrads {
    let mut grads = Conv2dGrads::scratch();
    let mut scratch = Vec::new();
    conv2d_backward_into(input, weight, dout, spec, &mut grads, &mut scratch);
    grads
}

/// [`conv2d_backward`] into caller-provided gradient buffers. `scratch`
/// holds the per-image weight-gradient partials (and the channel-minor
/// weights); it is resized and zeroed before use, so reusing it across calls
/// is bit-identical to allocating fresh — and allocation-free once warm.
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    grads: &mut Conv2dGrads,
    scratch: &mut Vec<f32>,
) {
    backward(input, weight, dout, spec, grads, scratch, true);
}

/// [`conv2d_backward_into`] without the input gradient: `grads.dweight` and
/// `grads.dbias` are bit-identical to the full backward, `grads.dinput` is
/// left untouched. For a network's first layer, whose `dinput` nobody reads.
pub fn conv2d_backward_params_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    grads: &mut Conv2dGrads,
    scratch: &mut Vec<f32>,
) {
    backward(input, weight, dout, spec, grads, scratch, false);
}

fn backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    grads: &mut Conv2dGrads,
    scratch: &mut Vec<f32>,
    want_dinput: bool,
) {
    let (n, g) = Geom::new(input, weight, spec);
    assert_eq!(dout.dims(), &[n, g.o, g.oh, g.ow], "conv2d dout mismatch");
    let (x, dy) = (input.data(), dout.data());
    let (image, plane, taps) = (g.c * g.h * g.w, g.oh * g.ow, g.taps());

    grads.dbias.resize(&[g.o]);
    grads.dbias.fill(0.0);
    let db = grads.dbias.data_mut();
    for img_dy in dy.chunks_exact(g.o * plane) {
        for (b, ch) in db.iter_mut().zip(img_dy.chunks_exact(plane)) {
            *b += crate::simd::sum_slices(ch);
        }
    }

    // scratch = [w channel-minor (when dinput is wanted) | per image: dw partial]
    let wt_len = if want_dinput { g.o * taps } else { 0 };
    let dwp_len = g.blocks() * taps * LANES;
    scratch.clear();
    scratch.resize(wt_len + n * dwp_len, 0.0);
    let (wt, partials) = scratch.split_at_mut(wt_len);
    if want_dinput {
        swap_minor_axes(weight.data(), g.c, g.kh * g.kw, wt);
    }
    let wt = &*wt;

    let dyt_len = g.blocks() * plane * LANES;
    let per_image = |img: usize, dwp: &mut [f32], dx: Option<&mut [f32]>| {
        let img_dy = &dy[img * g.o * plane..(img + 1) * g.o * plane];
        with_views(dyt_len + dx.as_ref().map_or(0, |dx| dx.len()), |views| {
            let (dyt, dxt) = views.split_at_mut(dyt_len);
            pack_lanes(img_dy, g.o, plane, dyt);
            dweight(&g, &x[img * image..(img + 1) * image], dyt, dwp);
            if let Some(dx) = dx {
                dinput(&g, img_dy, wt, dxt);
                swap_minor_axes(dxt, g.h * g.w, g.c, dx);
            }
        });
    };
    if want_dinput {
        grads.dinput.resize(&[n, g.c, g.h, g.w]);
        crate::threads::parallel_for_chunks2(
            grads.dinput.data_mut(),
            image,
            partials,
            dwp_len,
            |img, dx, dwp| per_image(img, dwp, Some(dx)),
        );
    } else {
        crate::threads::parallel_for_chunks(partials, dwp_len, |img, dwp| {
            per_image(img, dwp, None)
        });
    }

    grads.dweight.resize(weight.dims());
    grads.dweight.fill(0.0);
    let dw = grads.dweight.data_mut();
    for part in partials.chunks_exact(dwp_len) {
        for (oc, row) in dw.chunks_exact_mut(taps).enumerate() {
            let base = (oc / LANES) * taps * LANES + oc % LANES;
            for (t, d) in row.iter_mut().enumerate() {
                *d += part[base + t * LANES];
            }
        }
    }
}

/// `src [rows][a][b]` → `dst [rows][b][a]`: NCHW-style data to its
/// channel-minor view (`a` = channels) and back (`b` = channels).
fn swap_minor_axes(src: &[f32], a: usize, b: usize, dst: &mut [f32]) {
    for (s, d) in src.chunks_exact(a * b).zip(dst.chunks_exact_mut(a * b)) {
        for (i, row) in s.chunks_exact(b).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                d[j * a + i] = v;
            }
        }
    }
}

lane_kernel!(dweight => dweight_body(g: &Geom, x: &[f32], dyt: &[f32], dwp: &mut [f32]));

/// One image's weight-gradient partial, eight output channels per lane
/// block: `x [c][h][w]`, `dyt [o/8][oh·ow][8]`, `dwp [o/8][c][kh][kw][8]`
/// (zeroed by the caller). Padding lanes carry `g = 0` and stay zero.
#[inline(always)]
fn dweight_body(g: &Geom, x: &[f32], dyt: &[f32], dwp: &mut [f32]) {
    let plane = g.oh * g.ow;
    let block = g.taps() * LANES;
    for (dwblk, gblk) in dwp
        .chunks_exact_mut(block)
        .zip(dyt.chunks_exact(plane * LANES))
    {
        for oy in 0..g.oh {
            let rows = g.clip(oy, g.h, g.kh);
            let grow = &gblk[oy * g.ow * LANES..(oy + 1) * g.ow * LANES];
            let mut ox = 0;
            while ox < g.ow {
                let cols = g.clip(ox, g.w, g.kw);
                if g.tile_shares_cols(ox, cols) {
                    dweight_tile::<TILE>(g, x, &grow[ox * LANES..], dwblk, rows, cols);
                    ox += TILE;
                } else {
                    dweight_tile::<1>(g, x, &grow[ox * LANES..], dwblk, rows, cols);
                    ox += 1;
                }
            }
        }
    }
}

/// Adds `T` horizontally adjacent output pixels' `g·x` terms to every tap of
/// one lane block, in pixel order, skipping lanes whose `g` is zero. `grow`
/// starts at the first pixel's gradient block; `rows` and `cols` are
/// [`Geom::clip`] of that pixel, and all `T` share `cols`' range.
#[inline(always)]
fn dweight_tile<const T: usize>(
    g: &Geom,
    x: &[f32],
    grow: &[f32],
    dwblk: &mut [f32],
    (ky_lo, ky_hi, iy): (usize, usize, usize),
    (kx_lo, kx_hi, ix): (usize, usize, usize),
) {
    let len = kx_hi - kx_lo;
    let gv: [[f32; LANES]; T] = std::array::from_fn(|t| {
        grow[t * LANES..(t + 1) * LANES]
            .try_into()
            .expect("LANES-sized slice")
    });
    if len == 0 || gv.iter().flatten().all(|&v| v == 0.0) {
        return;
    }
    for ic in 0..g.c {
        for ky in ky_lo..ky_hi {
            let xs = (ic * g.h + iy + ky - ky_lo) * g.w + ix;
            let ws = ((ic * g.kh + ky) * g.kw + kx_lo) * LANES;
            let xrow = &x[xs..xs + (T - 1) * g.stride + len];
            for (kx, dw) in dwblk[ws..ws + len * LANES]
                .chunks_exact_mut(LANES)
                .enumerate()
            {
                // A local copy keeps the tap in a register across the T
                // pixels instead of a masked store and reload per pixel.
                let mut d: [f32; LANES] = (&*dw).try_into().expect("LANES-sized slice");
                for (t, gt) in gv.iter().enumerate() {
                    let xv = xrow[t * g.stride + kx];
                    for (dl, &gl) in d.iter_mut().zip(gt) {
                        *dl = if gl == 0.0 { *dl } else { *dl + gl * xv };
                    }
                }
                dw.copy_from_slice(&d);
            }
        }
    }
}

lane_kernel!(dinput => dinput_body(g: &Geom, dy: &[f32], wt: &[f32], dxt: &mut [f32]));

/// One image's input gradient in the channel-minor view: `dy [o][oh][ow]`,
/// `wt [o][kh][kw][c]`, `dxt [h][w][c]` (zeroed by the caller). A kernel
/// row's taps and channels are one contiguous run in both `wt` and `dxt`.
#[inline(always)]
fn dinput_body(g: &Geom, dy: &[f32], wt: &[f32], dxt: &mut [f32]) {
    for (oc, dy_plane) in dy.chunks_exact(g.oh * g.ow).enumerate() {
        for oy in 0..g.oh {
            let (ky_lo, ky_hi, iy) = g.clip(oy, g.h, g.kh);
            for ox in 0..g.ow {
                let gv = dy_plane[oy * g.ow + ox];
                let (kx_lo, kx_hi, ix) = g.clip(ox, g.w, g.kw);
                let run = (kx_hi - kx_lo) * g.c;
                if gv == 0.0 || run == 0 {
                    continue;
                }
                for ky in ky_lo..ky_hi {
                    let ds = ((iy + ky - ky_lo) * g.w + ix) * g.c;
                    let ws = ((oc * g.kh + ky) * g.kw + kx_lo) * g.c;
                    for (d, &wv) in dxt[ds..ds + run].iter_mut().zip(&wt[ws..ws + run]) {
                        *d += gv * wv;
                    }
                }
            }
        }
    }
}

#[inline]
fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected NCHW tensor, got {}", t.shape());
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|v| (v as f32) * 0.01 - 0.3).collect(), dims)
    }

    #[test]
    fn output_shape_matches_spec() {
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let y = conv2d(&seq(&[2, 3, 8, 8]), &seq(&[4, 3, 3, 3]), &seq(&[4]), spec);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let spec2 = ConvSpec {
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let y2 = conv2d(&seq(&[1, 1, 7, 7]), &seq(&[1, 1, 3, 3]), &seq(&[1]), spec2);
        assert_eq!(y2.dims(), &[1, 1, 3, 3]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let x = seq(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        assert_eq!(conv2d(&x, &w, &b, spec).data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 input, all-ones 3x3 kernel, pad 1: center = 9, corner = 4.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::zeros(&[1]);
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let y = conv2d(&x, &w, &b, spec);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_slice(&[1.5, -2.0]);
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let y = conv2d(&x, &w, &b, spec);
        assert!(y.data()[..4].iter().all(|&v| v == 1.5));
        assert!(y.data()[4..].iter().all(|&v| v == -2.0));
    }

    /// Finite-difference check of all three gradients.
    #[test]
    fn backward_matches_finite_difference() {
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = seq(&[1, 2, 5, 5]);
        let w = seq(&[3, 2, 3, 3]);
        let b = seq(&[3]);
        // Loss = sum(conv(x)) so dL/dy = 1 everywhere.
        let y = conv2d(&x, &w, &b, spec);
        let dout = Tensor::ones(y.dims());
        let grads = conv2d_backward(&x, &w, &dout, spec);

        let eps = 1e-2;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, b, spec).data().iter().sum()
        };
        // Spot-check a few coordinates of each gradient.
        for &i in &[0usize, 7, 24] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - grads.dinput.data()[i]).abs() < 0.05,
                "dinput[{i}]: fd {num} vs {}",
                grads.dinput.data()[i]
            );
        }
        for &i in &[0usize, 10, 30] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - grads.dweight.data()[i]).abs() < 0.05,
                "dweight[{i}]: fd {num} vs {}",
                grads.dweight.data()[i]
            );
        }
        for i in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &b)) / eps;
            assert!((num - grads.dbias.data()[i]).abs() < 0.1);
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        conv2d(&seq(&[1, 2, 3, 3]), &seq(&[1, 3, 1, 1]), &seq(&[1]), spec);
    }
}
