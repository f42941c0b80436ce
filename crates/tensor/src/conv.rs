//! Direct 2-D convolution, forward and backward, on register-resident
//! channel-lane tiles.
//!
//! Inputs are NCHW; weights are `[out_ch, in_ch, kh, kw]`. Images in this
//! codebase are small (≤ 32×32) and kernel rows short (3 floats), so the
//! eight SIMD lanes never run along a kernel row. They run across
//! **independent output scalars** instead, and each pass holds a tile of
//! such lane blocks in registers while the pixels stream past it:
//!
//! - *forward*: 8 adjacent output pixels × 8 output channels (weights packed
//!   `[o/8][c][kh][kw][8]`). Per `(ic, ky)` the kernel row's weight blocks
//!   are loaded once, each against one broadcast input per pixel, into 8
//!   row sums that are then added to the 8 accumulators;
//! - *dweight*: one input channel's `kh·kw` tap accumulators (up to
//!   [`DW_TAPS`] at a time: all nine of a 3×3 kernel) × 8 output channels
//!   (`dy` viewed `[o/8][oh·ow][8]`), visiting the output pixels in
//!   `(oy, ox)` order;
//! - *dinput*: 8 adjacent pixels of one input row × 8 input channels
//!   (weights viewed `[c/8][o][kh][kw][8]`), visiting the contributing
//!   outputs in `(oc, oy ascending ⇒ ky descending, ox ascending ⇒ kx
//!   descending)` order.
//!
//! Border pixels stay inside their tile. The input is copied once per image
//! into a zero-padded view (`[c][ph][pw]`, one per thread; each row split
//! into `stride` phases so adjacent pixels read adjacent floats) and `dy`
//! into a stride-dilated view (`[o][oh][dilated_row]`), so every tap of
//! every tile reads memory that exists, and a term the textbook loops would
//! skip is computed and *masked* instead. The plain bodies are the
//! definition; on x86-64 each pass runs an intrinsics transcription of its
//! plain body, stamped for AVX2 and AVX-512 (`kernel!(… intrinsics)`, 8
//! channel lanes on both), because LLVM does not keep these tiles in
//! registers from portable code.
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
//! A skipped term becomes an added `+0.0` through an AND mask:
//!
//! - *dweight*: `g·x` ANDed with `g ≠ 0` and with whether the tap lies
//!   inside the input;
//! - *dinput*: `g·w` ANDed with `g ≠ 0`, which is also `false` for the
//!   dilated view's zeros between strides and outside the output;
//! - *forward*: a tap in the padding meets a weight ANDed to `+0.0` when the
//!   tile's per-pixel weights are packed (see [`pack_pixels`]) and the
//!   padded view's `+0.0` input: `(+0.0)·(+0.0) = +0.0`. A kernel column
//!   that every pixel of the tile reads inside the input keeps the row's
//!   shared weight block.
//!
//! That is exact because every masked sum starts at `+0.0`: a forward row
//! sum, a per-image `dw` partial, a `dx`. Under round-to-nearest `a + b` is
//! `−0.0` only when both addends are, so such a sum is never `−0.0`, and
//! `s + (+0.0) = s` for every other `s`, NaN and ±inf included. The argument
//! does not cover the forward `acc`, which starts at a bias that may be
//! `−0.0`: it is never masked. It adds a row sum only for the kernel rows
//! inside the input, and a pixel whose kernel columns all miss the input
//! keeps its bias. Rows of eight or more taps keep [`dot_lanes`]'
//! chunk-then-tree order over the clipped row, one pixel at a time.
//!
//! A lane only ever holds one such scalar, so results are bit-identical at
//! any thread count and with SIMD dispatch on or off (see `simd.rs`).

use crate::simd::scalar::dot_lanes;
use crate::simd::{kernel, stamp_tiers, LANES};
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

/// Tap accumulators the weight-gradient tile holds at once: all nine of a
/// 3×3 kernel, and with the gradient, its mask and a broadcast input still
/// inside sixteen 8-lane registers. Larger kernels take several passes over
/// the pixels, [`DW_TAPS`] taps each; padding taps are masked.
const DW_TAPS: usize = 9;

/// All-ones and all-zeros lane masks, stored as `f32` bit patterns.
const ON: f32 = f32::from_bits(!0);
const OFF: f32 = 0.0;

/// An index stored in an `f32` view buffer as its bit pattern (read back
/// with `to_bits`).
fn offset(i: usize) -> f32 {
    f32::from_bits(u32::try_from(i).expect("view offsets fit in 32 bits"))
}

/// `v & m` on the bit patterns: `v` where `m` is [`ON`], `+0.0` where
/// it is [`OFF`].
#[inline(always)]
fn and(v: f32, m: f32) -> f32 {
    f32::from_bits(v.to_bits() & m.to_bits())
}

/// One image's geometry, shared by the three per-image kernels.
#[derive(Clone, Copy, PartialEq)]
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
    /// Rows of the zero-padded input view, and the length of each of a
    /// row's `stride` phases: every tap of every output row, and of every
    /// forward tile's `LANES` pixels, lies inside. A row is `pw = stride·pq`
    /// floats, padded column `j` at [`Geom::col`]`(j)`.
    ph: usize,
    pq: usize,
    pw: usize,
}

impl Geom {
    fn new(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> (usize, Geom) {
        let (n, c, h, w) = nchw(input);
        let (o, c2, kh, kw) = nchw(weight);
        assert_eq!(c, c2, "conv2d channel mismatch");
        assert_eq!(kh, spec.kernel);
        assert_eq!(kw, spec.kernel);
        let (oh, ow, stride, pad) = (spec.out_size(h), spec.out_size(w), spec.stride, spec.pad);
        let cols = (pad + w).max((ow.div_ceil(LANES) * LANES - 1) * stride + kw);
        let pq = cols.div_ceil(stride);
        let g = Geom {
            c,
            h,
            w,
            o,
            kh,
            kw,
            oh,
            ow,
            stride,
            pad,
            ph: (pad + h).max((oh - 1) * stride + kh),
            pq,
            pw: stride * pq,
        };
        (n, g)
    }

    /// Eight-channel blocks covering `n` channels.
    fn blocks(n: usize) -> usize {
        n.div_ceil(LANES)
    }

    /// Kernel taps per output channel.
    fn taps(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Lanes of block `b` that hold one of `n` channels (the rest is
    /// padding).
    fn lanes(n: usize, b: usize) -> usize {
        (n - b * LANES).min(LANES)
    }

    /// Kernel offsets `lo..hi` of output coordinate `out` whose input
    /// coordinate `out·stride − pad + k` lies in `0..n`. `lo == hi` when
    /// the kernel misses the input.
    #[inline(always)]
    fn clip(&self, out: usize, n: usize, k: usize) -> (usize, usize) {
        let i0 = (out * self.stride) as isize - self.pad as isize;
        let lo = (-i0).clamp(0, k as isize);
        let hi = (n as isize - i0).clamp(0, k as isize);
        (lo as usize, hi as usize)
    }

    /// The kernel columns of output column `ox` that read inside the input.
    #[inline(always)]
    fn col_range(&self, ox: usize) -> (usize, usize) {
        self.clip(ox, self.w, self.kw)
    }

    /// [`Geom::col_range`] of forward tile `k`'s `LANES` pixels
    /// (`ox = k·LANES + t`, past `ow` included).
    fn tile_cols(&self, k: usize) -> [(usize, usize); LANES] {
        std::array::from_fn(|t| self.col_range(k * LANES + t))
    }

    /// The `(ky, oy)` pairs with `oy·stride − pad + ky = iy`, `oy` ascending
    /// (so `ky` descending): which kernel row of which output row reads
    /// input row `iy`.
    #[inline(always)]
    fn kernel_rows(&self, iy: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
        let top = iy + self.pad;
        let oy0 = (top + 1).saturating_sub(self.kh).div_ceil(self.stride);
        let oy1 = (top / self.stride + 1).min(self.oh);
        let st = self.stride;
        (oy0..oy1.max(oy0)).map(move |oy| (top - oy * st, oy))
    }

    /// Whether output column `ox`'s kernel columns all miss the input: the
    /// forward adds no row sum to such a pixel, which keeps its bias.
    #[inline(always)]
    fn misses(&self, ox: usize) -> bool {
        let (lo, hi) = self.col_range(ox);
        lo == hi
    }

    /// Where padded column `j` sits in a padded row: its phase `j % stride`,
    /// then `j / stride`. Output pixel `ox`'s tap `kx` reads column
    /// `ox·stride + kx`, at `col(kx) + ox`: adjacent pixels read adjacent
    /// floats at any stride.
    #[inline(always)]
    fn col(&self, j: usize) -> usize {
        (j % self.stride) * self.pq + j / self.stride
    }

    /// The furthest [`Geom::col`] of any kernel column.
    fn max_col(&self) -> usize {
        (0..self.kw).map(|kx| self.col(kx)).max().unwrap_or(0)
    }

    /// Length of the padded input view.
    fn padded_len(&self) -> usize {
        self.c * self.ph * self.pw
    }

    /// Row length of the dilated `dy` view: output column `ox` sits at
    /// `kw − 1 + ox·stride`, and every input pixel of every dinput tile
    /// finds all `kw` of its taps inside.
    fn dilated_row(&self) -> usize {
        let span = (self.w.div_ceil(LANES) * LANES + self.pad).max((self.ow - 1) * self.stride + 1);
        span + self.kw - 1
    }
}

/// A thread's reusable view buffer. It is zeroed only when the layout it
/// holds changes: every writer of a layout rewrites the same cells on every
/// use and leaves the rest zero, so reusing the buffer is bit-identical to
/// zeroing it, and the warm training path neither allocates nor clears.
struct Views {
    buf: Vec<f32>,
    layout: Option<(Layout, Geom)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// A forward call's packed weights, bias and offsets (calling thread).
    Forward,
    /// One image's `dy` views in a backward call, with or without `dinput`'s.
    Backward(bool),
    /// One image's padded input.
    Padded,
}

thread_local! {
    /// Lane-packed and channel-minor operand views: a forward call's on the
    /// calling thread, one image's of a backward call on whichever thread
    /// runs that image.
    static VIEWS: RefCell<Views> = const { RefCell::new(Views { buf: Vec::new(), layout: None }) };
    /// One image's zero-padded input view, on whichever thread runs it.
    static PADDED: RefCell<Views> = const { RefCell::new(Views { buf: Vec::new(), layout: None }) };
}

/// Runs `f` on `cell`'s buffer holding `layout` of `g`, `len` floats: as
/// left by the last use of that layout, or zeros.
fn with_view<R>(
    cell: &'static std::thread::LocalKey<RefCell<Views>>,
    layout: Layout,
    g: &Geom,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    cell.with(|cell| {
        let mut views = cell.borrow_mut();
        if views.layout != Some((layout, *g)) || views.buf.len() != len {
            views.buf.clear();
            views.buf.resize(len, 0.0);
            views.layout = Some((layout, *g));
        }
        f(&mut views.buf)
    })
}

/// Runs `f` on image `x [c][h][w]` copied into this thread's padded view
/// `[c][ph][pw]`: `x[ic][iy][ix]` at `[ic][pad + iy][col(pad + ix)]`, zeros
/// around it (only the image's cells are ever written).
fn with_padded<R>(g: &Geom, x: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    with_view(&PADDED, Layout::Padded, g, g.padded_len(), |xp| {
        for (src, dst) in x
            .chunks_exact(g.h * g.w)
            .zip(xp.chunks_exact_mut(g.ph * g.pw))
        {
            for (row, out) in src
                .chunks_exact(g.w)
                .zip(dst[g.pad * g.pw..].chunks_mut(g.pw))
            {
                // Phase r holds the padded columns j ≡ r (mod stride), from
                // the first one at or past the padding.
                for (r, phase) in out.chunks_exact_mut(g.pq).enumerate() {
                    let first = (g.pad + g.stride - 1 - r) / g.stride;
                    let from = (first * g.stride + r - g.pad).min(g.w);
                    copy_strided(&row[from..], g.stride, &mut phase[first..]);
                }
            }
        }
        f(xp)
    })
}

/// `dst[j] = src[j·stride]` while both last; a stride-1 copy moves eight
/// floats at a time.
#[inline(always)]
fn copy_strided(src: &[f32], stride: usize, dst: &mut [f32]) {
    if stride == 1 {
        let n = src.len().min(dst.len());
        let (src, dst) = (&src[..n], &mut dst[..n]);
        let mut chunks = dst.chunks_exact_mut(LANES);
        for (d, s) in (&mut chunks).zip(src.chunks_exact(LANES)) {
            d.copy_from_slice(s);
        }
        let done = n - chunks.into_remainder().len();
        for (d, &v) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = v;
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
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

    // views = [wp | bp | wx, one copy per distinct tile column pattern |
    //          at | inside | taps], the fields of `Packed`
    let blocks = Geom::blocks(g.o);
    let wlen = blocks * g.taps() * LANES;
    let tiles = g.ow.div_ceil(LANES);
    let new_pattern = |k: usize| k == 0 || g.tile_cols(k) != g.tile_cols(k - 1);
    let patterns = (0..tiles).filter(|&k| new_pattern(k)).count();
    let plen = wlen * LANES;
    let len = wlen + blocks * LANES + patterns * plen + tiles + tiles * g.kw + g.kw;
    with_view(&VIEWS, Layout::Forward, &g, len, |views| {
        let (wp, rest) = views.split_at_mut(wlen);
        let (bp, rest) = rest.split_at_mut(blocks * LANES);
        let (wx, offs) = rest.split_at_mut(patterns * plen);
        pack_lanes(weight.data(), g.o, g.taps(), wp);
        bp[..g.o].copy_from_slice(bias.data());
        let (at, rest) = offs.split_at_mut(tiles);
        let (inside, taps) = rest.split_at_mut(tiles * g.kw);
        let mut copies = wx.chunks_exact_mut(plen);
        let mut used = 0;
        for (k, at) in at.iter_mut().enumerate() {
            if new_pattern(k) {
                let copy = copies.next().expect("one copy per pattern");
                pack_pixels(&g, wp, g.tile_cols(k), copy);
                used += 1;
            }
            *at = offset((used - 1) * plen);
        }
        for (k, ins) in inside.chunks_exact_mut(g.kw).enumerate() {
            let cols = g.tile_cols(k);
            for (kx, v) in ins.iter_mut().enumerate() {
                let all = cols.iter().all(|&(lo, hi)| (lo..hi).contains(&kx));
                *v = if all { ON } else { OFF };
            }
        }
        for (kx, at) in taps.iter_mut().enumerate() {
            *at = offset(g.col(kx));
        }
        let p = Packed {
            wp,
            bp,
            wx,
            at,
            inside,
            taps,
        };
        crate::threads::parallel_for_chunks(out.data_mut(), g.o * g.oh * g.ow, |img, y| {
            let x = &x[img * image..(img + 1) * image];
            with_padded(&g, x, |xp| forward(&g, x, xp, &p, y));
        });
    });
}

/// One forward tile's weights per pixel: `dst [o/8][c][kh][kw][LANES][8]`,
/// block `t` of a tap the packed block `wp [o/8][c][kh][kw][8]` ANDed with
/// whether pixel `t`'s kernel columns `cols[t]` reach the tap's column. A
/// tap in the padding thus meets a `+0.0` weight, and the padded view's
/// `+0.0` there: the term is `(+0.0)·(+0.0) = +0.0`.
fn pack_pixels(g: &Geom, wp: &[f32], cols: [(usize, usize); LANES], dst: &mut [f32]) {
    for (j, (blk, out)) in wp
        .chunks_exact(LANES)
        .zip(dst.chunks_exact_mut(LANES * LANES))
        .enumerate()
    {
        let kx = j % g.kw;
        for (&(lo, hi), o) in cols.iter().zip(out.chunks_exact_mut(LANES)) {
            let keep = if (lo..hi).contains(&kx) { ON } else { OFF };
            for (d, &v) in o.iter_mut().zip(blk) {
                *d = and(v, keep);
            }
        }
    }
}

kernel!(pack_lanes => pack_lanes_plain(
    src: &[f32],
    o: usize,
    len: usize,
    dst: &mut [f32],
) intrinsics);

/// `src [o][len]` → `dst [o/8][len][8]`: eight consecutive rows interleaved
/// so element `t` of each sits in one lane block. Lanes past `o` are left
/// as they are (zero in a freshly cleared buffer).
#[inline(always)]
fn pack_lanes_plain(src: &[f32], o: usize, len: usize, dst: &mut [f32]) {
    pack_lanes_rest(src, o, len, dst, 0, 0);
}

/// [`pack_lanes_plain`] of the rows from `rows` on, and of the elements from
/// `elems` on of the rows before it.
fn pack_lanes_rest(src: &[f32], o: usize, len: usize, dst: &mut [f32], rows: usize, elems: usize) {
    for (oc, row) in src.chunks_exact(len).enumerate().take(o) {
        let base = (oc / LANES) * len * LANES + oc % LANES;
        let from = if oc < rows { elems } else { 0 };
        for (t, &v) in row.iter().enumerate().skip(from) {
            dst[base + t * LANES] = v;
        }
    }
}

/// A forward call's packed operands (see [`conv2d_into`]).
struct Packed<'a> {
    /// Weights `[o/8][c][kh][kw][8]`.
    wp: &'a [f32],
    /// Bias, padded to whole lane blocks.
    bp: &'a [f32],
    /// Per distinct tile pattern, each pixel's weights (see [`pack_pixels`]).
    wx: &'a [f32],
    /// Each tile's pattern as an offset into `wx`.
    at: &'a [f32],
    /// `[k][kx]`: whether all of tile `k`'s pixels read inside the input at
    /// tap column `kx`.
    inside: &'a [f32],
    /// Each tap column's [`Geom::col`].
    taps: &'a [f32],
}

kernel!(forward => forward_plain(
    g: &Geom,
    x: &[f32],
    xp: &[f32],
    p: &Packed,
    y: &mut [f32],
) intrinsics);

/// One image forward: input `x [c][h][w]` and its padded view
/// `xp [c][ph][pw]`, the call's packed operands `p`, output `y [o][oh][ow]`.
/// Each tile is `LANES` adjacent output pixels (the last one of a row
/// ragged) × one lane block.
#[inline(always)]
fn forward_plain(g: &Geom, x: &[f32], xp: &[f32], p: &Packed, y: &mut [f32]) {
    let plane = g.oh * g.ow;
    let block = g.taps() * LANES;
    let (kw, st) = (g.kw, g.stride);
    let Packed { wp, bp, wx, at, .. } = *p;
    for ob in 0..Geom::blocks(g.o) {
        let bias: [f32; LANES] = bp[ob * LANES..(ob + 1) * LANES]
            .try_into()
            .expect("LANES-sized slice");
        for oy in 0..g.oh {
            let (ky_lo, ky_hi) = g.clip(oy, g.h, g.kh);
            for (k, ox0) in (0..g.ow).step_by(LANES).enumerate() {
                let pixels = at[k].to_bits() as usize + ob * block * LANES;
                let mut acc = [bias; LANES];
                for ic in 0..g.c {
                    for ky in ky_lo..ky_hi {
                        let row = ic * g.ph + oy * st + ky;
                        let xrow = &xp[row * g.pw..(row + 1) * g.pw];
                        let iy = (ic * g.h + oy * st + ky - g.pad) * g.w;
                        let xin = &x[iy..iy + g.w];
                        let ws = ob * block + (ic * g.kh + ky) * kw * LANES;
                        let wrow = &wp[ws..ws + kw * LANES];
                        let wpix = &wx[pixels + (ws - ob * block) * LANES..];
                        for (t, a) in acc.iter_mut().enumerate() {
                            let s = row_sum(g, ox0 + t, xrow, xin, wrow, &wpix[t * LANES..]);
                            for (al, sl) in a.iter_mut().zip(s) {
                                *al += sl;
                            }
                        }
                    }
                }
                for (t, a) in acc.iter_mut().enumerate() {
                    if g.misses(ox0 + t) {
                        *a = bias;
                    }
                }
                store_tile(&acc, g.o, ob, plane, oy * g.ow + ox0, g.ow - ox0, y);
            }
        }
    }
}

/// Output pixel `ox`'s sum over one kernel row: `xrow` the padded row,
/// `xin` the input row it pads, `wrow` the row's `kw` weight blocks, `wpix`
/// the pixel's own (`kx`-th at `kx·LANES²`, see [`pack_pixels`]). A row that
/// reaches eight taps inside the input is [`dot_lanes`] over those taps; any
/// other is `+0.0` plus every tap's product with the pixel's weights, `kx`
/// ascending.
#[inline(always)]
fn row_sum(
    g: &Geom,
    ox: usize,
    xrow: &[f32],
    xin: &[f32],
    wrow: &[f32],
    wpix: &[f32],
) -> [f32; LANES] {
    if g.kw >= LANES {
        let (lo, hi) = g.col_range(ox);
        if hi - lo >= LANES {
            let ix = ox * g.stride + lo - g.pad;
            return dot_lanes(&xin[ix..ix + hi - lo], &wrow[lo * LANES..hi * LANES]);
        }
    }
    let mut s = [0.0f32; LANES];
    for kx in 0..g.kw {
        let xv = xrow[g.col(kx) + ox];
        let wv = &wpix[kx * LANES * LANES..kx * LANES * LANES + LANES];
        for (sl, &wl) in s.iter_mut().zip(wv) {
            *sl += xv * wl;
        }
    }
    s
}

/// Backward convolution: given `dout = dL/dy`, produce gradients w.r.t.
/// input, weight, and bias.
///
/// Parallel over the batch dimension. `dinput` is naturally disjoint per
/// image; `dweight` is accumulated into per-image partial buffers that are
/// reduced afterwards in ascending image order, so the floating-point
/// reduction order — and therefore the result — is fixed at any thread
/// count. (`dy == 0` terms are skipped, through a mask: max-pooling
/// backward scatters mostly-zero gradients into this kernel, and `g·w` /
/// `g·x` contribute exact zeros only for finite operands.)
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
/// weights and tap masks); it is resized and zeroed before use, so reusing
/// it across calls is bit-identical to allocating fresh — and
/// allocation-free once warm.
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

    // scratch = [w as [c/8][o][kh][kw][8] (when dinput is wanted)
    //            | tap masks [oy·ow + ox][taps rounded up to DW_TAPS]
    //            | per image: dw partial]
    let ktaps = g.kh * g.kw;
    let tap_row = ktaps.next_multiple_of(DW_TAPS);
    let wt_len = if want_dinput {
        Geom::blocks(g.c) * LANES * g.o * ktaps
    } else {
        0
    };
    let tv_len = plane * tap_row;
    let dwp_len = Geom::blocks(g.o) * taps * LANES;
    scratch.clear();
    scratch.resize(wt_len + tv_len + n * dwp_len, 0.0);
    let (wt, rest) = scratch.split_at_mut(wt_len);
    let (tv, partials) = rest.split_at_mut(tv_len);
    if want_dinput {
        for (oc, wrow) in weight.data().chunks_exact(g.c * ktaps).enumerate() {
            for (ic, wk) in wrow.chunks_exact(ktaps).enumerate() {
                let base = ((ic / LANES) * g.o + oc) * ktaps * LANES + ic % LANES;
                for (k, &v) in wk.iter().enumerate() {
                    wt[base + k * LANES] = v;
                }
            }
        }
    }
    for (oy, tv_row) in tv.chunks_exact_mut(g.ow * tap_row).enumerate() {
        let rows = g.clip(oy, g.h, g.kh);
        for (ox, m) in tv_row.chunks_exact_mut(tap_row).enumerate() {
            let cols = g.col_range(ox);
            for (ky, mk) in m[..ktaps].chunks_exact_mut(g.kw).enumerate() {
                for (kx, mkx) in mk.iter_mut().enumerate() {
                    let inside = (rows.0..rows.1).contains(&ky) && (cols.0..cols.1).contains(&kx);
                    *mkx = if inside { ON } else { OFF };
                }
            }
        }
    }
    let (wt, tv) = (&*wt, &*tv);

    let dyt_len = Geom::blocks(g.o) * plane * LANES;
    let dyd_len = if want_dinput {
        g.o * g.oh * g.dilated_row()
    } else {
        0
    };
    let per_image = |img: usize, dwp: &mut [f32], dx: Option<&mut [f32]>| {
        let img_dy = &dy[img * g.o * plane..(img + 1) * g.o * plane];
        // views = [dy as [o/8][oh·ow][8] | dilated dy | its g ≠ 0 masks]
        let layout = Layout::Backward(want_dinput);
        with_view(&VIEWS, layout, &g, dyt_len + 2 * dyd_len, |views| {
            let (dyt, rest) = views.split_at_mut(dyt_len);
            let (dyd, dym) = rest.split_at_mut(dyd_len);
            pack_lanes(img_dy, g.o, plane, dyt);
            with_padded(&g, &x[img * image..(img + 1) * image], |xp| {
                dweight(&g, xp, dyt, tv, dwp)
            });
            if let Some(dx) = dx {
                let dr = g.dilated_row();
                let rows = dyd.chunks_exact_mut(dr).zip(dym.chunks_exact_mut(dr));
                for (src, (drow, mrow)) in img_dy.chunks_exact(g.ow).zip(rows) {
                    for (ox, &v) in src.iter().enumerate() {
                        drow[g.kw - 1 + ox * g.stride] = v;
                        mrow[g.kw - 1 + ox * g.stride] = if v != 0.0 { ON } else { OFF };
                    }
                }
                dinput(&g, dyd, dym, wt, dx);
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

    // dw = ((0 + p₀) + p₁) + …, summed in the packed layout; a partial is
    // a masked sum from +0.0, never −0.0, so 0 + p₀ = p₀.
    let (sum, rest) = partials.split_at_mut(dwp_len);
    for part in rest.chunks_exact(dwp_len) {
        crate::simd::add_assign_slices(sum, part);
    }
    grads.dweight.resize(weight.dims());
    for (oc, row) in grads.dweight.data_mut().chunks_exact_mut(taps).enumerate() {
        let base = (oc / LANES) * taps * LANES + oc % LANES;
        for (t, d) in row.iter_mut().enumerate() {
            *d = sum[base + t * LANES];
        }
    }
}

kernel!(dweight => dweight_plain(
    g: &Geom,
    xp: &[f32],
    dyt: &[f32],
    tv: &[f32],
    dwp: &mut [f32],
) intrinsics);

/// One image's weight-gradient partial: padded input `xp [c][ph][pw]`,
/// `dyt [o/8][oh·ow][8]`, tap masks `tv [oh·ow][taps rounded up to
/// DW_TAPS]`, `dwp [o/8][c][kh][kw][8]`. Each tile is [`DW_TAPS`] taps of
/// one input channel × one lane block, accumulated from `+0.0` over the
/// output pixels in `(oy, ox)` order; a term whose `g` is zero or whose tap
/// lies in the padding is masked. Padding lanes carry `g = 0`.
#[inline(always)]
fn dweight_plain(g: &Geom, xp: &[f32], dyt: &[f32], tv: &[f32], dwp: &mut [f32]) {
    let plane = g.oh * g.ow;
    let ktaps = g.kh * g.kw;
    let tap_row = ktaps.next_multiple_of(DW_TAPS);
    for (dwblk, gblk) in dwp
        .chunks_exact_mut(g.taps() * LANES)
        .zip(dyt.chunks_exact(plane * LANES))
    {
        for ic in 0..g.c {
            let xc = &xp[ic * g.ph * g.pw..(ic + 1) * g.ph * g.pw];
            for k0 in (0..ktaps).step_by(DW_TAPS) {
                // Offsets of the tile's taps from a pixel's first tap; a
                // tap past the kernel reads the first one, masked.
                let off: [usize; DW_TAPS] = std::array::from_fn(|j| {
                    let k = k0 + j;
                    if k < ktaps {
                        (k / g.kw) * g.pw + g.col(k % g.kw)
                    } else {
                        0
                    }
                });
                let mut acc = [[0.0f32; LANES]; DW_TAPS];
                for oy in 0..g.oh {
                    for ox in 0..g.ow {
                        let pix = oy * g.ow + ox;
                        let gv = &gblk[pix * LANES..(pix + 1) * LANES];
                        let gm: [f32; LANES] =
                            std::array::from_fn(|l| if gv[l] != 0.0 { ON } else { OFF });
                        let base = oy * g.stride * g.pw + ox;
                        let tm = &tv[pix * tap_row + k0..pix * tap_row + k0 + DW_TAPS];
                        for ((a, &o), &m) in acc.iter_mut().zip(&off).zip(tm) {
                            let xv = xc[base + o];
                            for ((al, &gl), &ml) in a.iter_mut().zip(gv).zip(&gm) {
                                *al += and(gl * xv, and(ml, m));
                            }
                        }
                    }
                }
                for (j, a) in acc.iter().enumerate().take(ktaps - k0) {
                    let t = (ic * ktaps + k0 + j) * LANES;
                    dwblk[t..t + LANES].copy_from_slice(a);
                }
            }
        }
    }
}

kernel!(dinput => dinput_plain(
    g: &Geom,
    dyd: &[f32],
    dym: &[f32],
    wt: &[f32],
    dx: &mut [f32],
) intrinsics);

/// One image's input gradient: dilated `dyd [o][oh][dilated_row]` (output
/// column `ox` at `kw − 1 + ox·stride`, zeros elsewhere) and its masks
/// `dym` (`g ≠ 0`), `wt [c/8][o][kh][kw][8]`, `dx [c][h][w]` (every cell
/// overwritten). Each tile is `LANES` adjacent pixels of one input row × one
/// lane block of input channels, accumulated from `+0.0`; a term whose `g`
/// is zero, falls between strides or lies outside the output is masked.
#[inline(always)]
fn dinput_plain(g: &Geom, dyd: &[f32], dym: &[f32], wt: &[f32], dx: &mut [f32]) {
    let (kh, kw) = (g.kh, g.kw);
    let dr = g.dilated_row();
    let wblock = g.o * kh * kw * LANES;
    for cb in 0..Geom::blocks(g.c) {
        let wblk = &wt[cb * wblock..(cb + 1) * wblock];
        for iy in 0..g.h {
            let rows = g.kernel_rows(iy);
            for ix0 in (0..g.w).step_by(LANES) {
                let mut acc = [[0.0f32; LANES]; LANES];
                for oc in 0..g.o {
                    for (ky, oy) in rows.clone() {
                        let row = (oc * g.oh + oy) * dr;
                        let ws = (oc * kh + ky) * kw * LANES;
                        for kx in (0..kw).rev() {
                            let wv = &wblk[ws + kx * LANES..ws + (kx + 1) * LANES];
                            let gs = row + ix0 + g.pad + kw - 1 - kx;
                            let gts = dyd[gs..gs + LANES].iter().zip(&dym[gs..gs + LANES]);
                            for (a, (&gt, &m)) in acc.iter_mut().zip(gts) {
                                for (al, &wl) in a.iter_mut().zip(wv) {
                                    *al += and(gt * wl, m);
                                }
                            }
                        }
                    }
                }
                store_tile(&acc, g.c, cb, g.h * g.w, iy * g.w + ix0, g.w - ix0, dx);
            }
        }
    }
}

/// Stores a tile of `LANES` pixels × one lane block `cb` of `n` channels
/// into `dst [n][plane]`, pixel `t` at `at + t`, the first `pixels` of them.
#[inline(always)]
fn store_tile(
    acc: &[[f32; LANES]; LANES],
    n: usize,
    cb: usize,
    plane: usize,
    at: usize,
    pixels: usize,
    dst: &mut [f32],
) {
    for (t, a) in acc.iter().enumerate().take(pixels) {
        for (l, &v) in a.iter().enumerate().take(Geom::lanes(n, cb)) {
            dst[(cb * LANES + l) * plane + at + t] = v;
        }
    }
}

/// `[e(i₀), e(i₁), …]` with `$t` bound to each listed constant in
/// turn, so a tile's registers are named, never indexed at run time.
macro_rules! unrolled {
    ($t:ident in [$($i:literal),*] => $e:expr) => {
        [$({
            let $t = $i;
            $e
        }),*]
    };
}
macro_rules! each_lane {
    ($t:ident => $e:expr) => {
        unrolled!($t in [0, 1, 2, 3, 4, 5, 6, 7] => $e)
    };
}
macro_rules! each_tap {
    ($t:ident => $e:expr) => {
        unrolled!($t in [0, 1, 2, 3, 4, 5, 6, 7, 8] => $e)
    };
}

/// Intrinsics transcriptions of the plain bodies whose register tiles LLVM
/// does not keep in registers from portable code: the same products, masks
/// and sums on every output scalar, in the same order, on 8-lane registers.
/// [`stamp_tiers!`] stamps them for AVX2 and, from the same tokens, for
/// AVX-512 (EVEX encoding, 32 registers, the same 8 channel lanes).
///
/// # Safety
///
/// Every function requires its tier's features: `kernel!` calls them only
/// after the runtime check. Each walks raw pointers over its views after
/// asserting, on entry, that the furthest element it reads or writes lies
/// inside them.
macro_rules! conv_bodies {
    ($features:literal, $V:ty) => {
        const _: () = assert!(LANES == 8 && DW_TAPS == 9);

        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn load(v: &[f32]) -> __m256 {
            _mm256_loadu_ps(v[..LANES].as_ptr())
        }

        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn unpack(v: __m256) -> [f32; LANES] {
            let mut out = [0.0f32; LANES];
            _mm256_storeu_ps(out.as_mut_ptr(), v);
            out
        }

        /// [`forward_plain`]. A tap column that every pixel of the tile reads
        /// inside the input takes the row's shared weight block; the others
        /// take each pixel's own (see [`pack_pixels`]). Kernels with rows of
        /// eight or more taps run the plain body (compiled here for the tier):
        /// their long rows keep [`dot_lanes`]' order one pixel at a time.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn forward(g: &Geom, x: &[f32], xp: &[f32], p: &Packed, y: &mut [f32]) {
            if g.kw >= LANES {
                return forward_plain(g, x, xp, p, y);
            }
            let plane = g.oh * g.ow;
            let block = g.taps() * LANES;
            let (kw, st) = (g.kw, g.stride);
            let Packed {
                wp,
                bp,
                wx,
                at,
                inside,
                taps,
            } = *p;
            // Every read below stays inside its buffer: each tap column of the
            // last tile's last pixel in every padded row, every pattern's
            // weights.
            assert!(
                g.max_col() + g.ow.div_ceil(LANES) * LANES <= g.pw && g.c * g.ph * g.pw <= xp.len()
            );
            assert!(Geom::blocks(g.o) * block <= wp.len());
            assert!(at
                .iter()
                .all(|a| a.to_bits() as usize + Geom::blocks(g.o) * block * LANES <= wx.len()));
            for ob in 0..Geom::blocks(g.o) {
                let bias = load(&bp[ob * LANES..]);
                for oy in 0..g.oh {
                    let (ky_lo, ky_hi) = g.clip(oy, g.h, g.kh);
                    for (k, ox0) in (0..g.ow).step_by(LANES).enumerate() {
                        let inside = &inside[k * kw..(k + 1) * kw];
                        let pixels = wx
                            .as_ptr()
                            .add(at[k].to_bits() as usize + ob * block * LANES);
                        let mut acc = [bias; LANES];
                        for ic in 0..g.c {
                            let first = (ic * g.kh + ky_lo) * kw * LANES;
                            let mut xr = xp.as_ptr().add((ic * g.ph + oy * st + ky_lo) * g.pw + ox0);
                            let mut wr = wp.as_ptr().add(ob * block + first);
                            let mut pr = pixels.add(first * LANES);
                            for _ in ky_lo..ky_hi {
                                // The eight row sums, kx ascending from +0.0: tap
                                // kx of pixel t reads xr[col(kx) + t].
                                let mut s = [_mm256_setzero_ps(); LANES];
                                for (kx, (&at, &all)) in taps.iter().zip(inside).enumerate() {
                                    let xk = xr.add(at.to_bits() as usize);
                                    let x = |t: usize| _mm256_broadcast_ss(&*xk.add(t));
                                    s = if all.to_bits() != 0 {
                                        let wv = _mm256_loadu_ps(wr.add(kx * LANES));
                                        each_lane!(t => _mm256_add_ps(s[t], _mm256_mul_ps(x(t), wv)))
                                    } else {
                                        let pk = pr.add(kx * LANES * LANES);
                                        each_lane!(t => _mm256_add_ps(
                                            s[t],
                                            _mm256_mul_ps(x(t), _mm256_loadu_ps(pk.add(t * LANES))),
                                        ))
                                    };
                                }
                                acc = each_lane!(t => _mm256_add_ps(acc[t], s[t]));
                                xr = xr.add(g.pw);
                                wr = wr.add(kw * LANES);
                                pr = pr.add(kw * LANES * LANES);
                            }
                        }
                        for (t, a) in acc.iter_mut().enumerate() {
                            if g.misses(ox0 + t) {
                                *a = bias;
                            }
                        }
                        store(acc, g.o, ob, plane, oy * g.ow + ox0, g.ow - ox0, y);
                    }
                }
            }
        }

        /// [`store_tile`] of a tile held as `LANES` pixel registers: transposed
        /// in registers to one register per channel, then stored eight pixels
        /// at a time.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn store(
            r: [__m256; LANES],
            n: usize,
            cb: usize,
            plane: usize,
            at: usize,
            pixels: usize,
            dst: &mut [f32],
        ) {
            let channels = transpose(r);
            for (l, &v) in channels.iter().enumerate().take(Geom::lanes(n, cb)) {
                let row = &mut dst[(cb * LANES + l) * plane + at..][..pixels.min(LANES)];
                if row.len() == LANES {
                    _mm256_storeu_ps(row.as_mut_ptr(), v);
                } else {
                    row.copy_from_slice(&unpack(v)[..row.len()]);
                }
            }
        }

        /// The 8×8 transpose: `out[j][i] = r[i][j]`.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn transpose(r: [__m256; LANES]) -> [__m256; LANES] {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }

        /// [`pack_lanes_plain`], eight rows × eight elements at a time through
        /// [`transpose`]; a ragged block of rows or elements as the plain body.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn pack_lanes(src: &[f32], o: usize, len: usize, dst: &mut [f32]) {
            let (full_rows, full_len) = (o / LANES * LANES, len / LANES * LANES);
            assert!(src.len() >= o * len && dst.len() >= o.div_ceil(LANES) * len * LANES);
            for ob in 0..o / LANES {
                let (s, d) = (
                    src.as_ptr().add(ob * LANES * len),
                    dst.as_mut_ptr().add(ob * len * LANES),
                );
                for t0 in (0..full_len).step_by(LANES) {
                    let r = each_lane!(l => _mm256_loadu_ps(s.add(l * len + t0)));
                    for (t, v) in transpose(r).into_iter().enumerate() {
                        _mm256_storeu_ps(d.add((t0 + t) * LANES), v);
                    }
                }
            }
            pack_lanes_rest(src, o, len, dst, full_rows, full_len);
        }

        /// [`dinput_plain`].
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dinput(g: &Geom, dyd: &[f32], dym: &[f32], wt: &[f32], dx: &mut [f32]) {
            let (kh, kw) = (g.kh, g.kw);
            let dr = g.dilated_row();
            let wblock = g.o * kh * kw * LANES;
            // Every read below stays inside its buffer: the last row's last
            // tile's first tap, and the masks one view further on.
            assert!(dyd.len() == g.o * g.oh * dr && dym.len() == dyd.len());
            assert!(g.w.div_ceil(LANES) * LANES + g.pad + kw - 1 <= dr);
            assert!(Geom::blocks(g.c) * wblock <= wt.len());
            let to_masks = dym.as_ptr().offset_from(dyd.as_ptr());
            for cb in 0..Geom::blocks(g.c) {
                let wblk = wt.as_ptr().add(cb * wblock);
                for iy in 0..g.h {
                    let rows = g.kernel_rows(iy);
                    for ix0 in (0..g.w).step_by(LANES) {
                        let mut acc = [_mm256_setzero_ps(); LANES];
                        for oc in 0..g.o {
                            for (ky, oy) in rows.clone() {
                                // Pixel t, tap kx reads dyd[row + kw − 1 − kx + t]: kx
                                // descends, so the reads move right.
                                let mut gp = dyd.as_ptr().add((oc * g.oh + oy) * dr + ix0 + g.pad);
                                let mut wp = wblk.add((oc * kh + ky) * kw * LANES + (kw - 1) * LANES);
                                for _ in 0..kw {
                                    let wv = _mm256_loadu_ps(wp);
                                    let mp = gp.offset(to_masks);
                                    acc = each_lane!(t => _mm256_add_ps(
                                        acc[t],
                                        _mm256_and_ps(
                                            _mm256_mul_ps(_mm256_broadcast_ss(&*gp.add(t)), wv),
                                            _mm256_broadcast_ss(&*mp.add(t)),
                                        ),
                                    ));
                                    gp = gp.add(1);
                                    wp = wp.sub(LANES);
                                }
                            }
                        }
                        store(acc, g.c, cb, g.h * g.w, iy * g.w + ix0, g.w - ix0, dx);
                    }
                }
            }
        }

        /// [`dweight_plain`].
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dweight(g: &Geom, xp: &[f32], dyt: &[f32], tv: &[f32], dwp: &mut [f32]) {
            let plane = g.oh * g.ow;
            let ktaps = g.kh * g.kw;
            let tap_row = ktaps.next_multiple_of(DW_TAPS);
            // Every read below stays inside its buffer: the last pixel's last
            // tap, gradient and mask.
            assert!(dyt.len() == Geom::blocks(g.o) * plane * LANES && tv.len() == plane * tap_row);
            assert!(g.c * g.ph * g.pw <= xp.len() && (g.oh - 1) * g.stride + g.kh <= g.ph);
            assert!(g.ow - 1 + g.max_col() < g.pw);
            let zero = _mm256_setzero_ps();
            for (dwblk, gblk) in dwp
                .chunks_exact_mut(g.taps() * LANES)
                .zip(dyt.chunks_exact(plane * LANES))
            {
                for ic in 0..g.c {
                    let xc = xp.as_ptr().add(ic * g.ph * g.pw);
                    for k0 in (0..ktaps).step_by(DW_TAPS) {
                        // Offsets of the tile's taps from a pixel's first tap; a
                        // tap past the kernel reads the first one, masked.
                        let off: [usize; DW_TAPS] = std::array::from_fn(|j| {
                            let k = k0 + j;
                            if k < ktaps {
                                (k / g.kw) * g.pw + g.col(k % g.kw)
                            } else {
                                0
                            }
                        });
                        let mut acc = [zero; DW_TAPS];
                        let (mut gp, mut tp) = (gblk.as_ptr(), tv.as_ptr().add(k0));
                        for oy in 0..g.oh {
                            let mut xr = xc.add(oy * g.stride * g.pw);
                            for _ in 0..g.ow {
                                let gv = _mm256_loadu_ps(gp);
                                let gm = _mm256_cmp_ps::<_CMP_NEQ_UQ>(gv, zero);
                                acc = each_tap!(j => _mm256_add_ps(
                                    acc[j],
                                    _mm256_and_ps(
                                        _mm256_mul_ps(gv, _mm256_broadcast_ss(&*xr.add(off[j]))),
                                        _mm256_and_ps(gm, _mm256_broadcast_ss(&*tp.add(j))),
                                    ),
                                ));
                                gp = gp.add(LANES);
                                tp = tp.add(tap_row);
                                xr = xr.add(1);
                            }
                        }
                        for (j, a) in acc.iter().enumerate().take(ktaps - k0) {
                            let t = (ic * ktaps + k0 + j) * LANES;
                            _mm256_storeu_ps(dwblk[t..t + LANES].as_mut_ptr(), *a);
                        }
                    }
                }
            }
        }
    };
}

stamp_tiers!(mod { conv_bodies });

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
