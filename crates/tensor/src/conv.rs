//! Direct 2-D convolution, forward and backward, on register-resident SIMD
//! tiles.
//!
//! Inputs are NCHW; weights are `[out_ch, in_ch, kh, kw]`. Images in this
//! codebase are small (≤ 32×32) and kernel rows short (3 floats), so the SIMD
//! lanes never run along a kernel row. They run across **independent output
//! scalars** instead — output channels, or adjacent pixels — and each pass
//! holds a tile of them in registers while its operands stream past. The lane
//! layout of each pass, per tier:
//!
//! | pass | plain and AVX2: 8 lanes | AVX-512: 16 lanes |
//! |---|---|---|
//! | forward | channel lanes: 8 adjacent output pixels × 8 output channels (weights packed `[o/8][c][kh][kw][8]`); per `(ic, ky)` the row's weight blocks meet one broadcast input per pixel, in 8 row sums then added to the 8 accumulators; the tile is transposed to store | pixel lanes: 16 adjacent pixels of one output row × 8 output channels across registers, each weight broadcast, whole rows stored; for rows of 8 pixels or fewer, the 8-lane tile with two 8-channel blocks per register (weights packed `[o/16][c][kh][kw][16]`) |
//! | dweight | channel lanes: one input channel's `kh·kw` tap accumulators (up to [`DW_TAPS`] at a time: all nine of a 3×3 kernel) × 8 output channels (`dy` packed `[o/8][oh·ow][8]`), over the output pixels in `(oy, ox)` order | when `o > 8`, two 8-channel blocks per register (`dy` packed `[o/16][oh·ow][16]`), each half stored to its own block; otherwise the 8-lane tile |
//! | dinput | channel lanes: 8 adjacent pixels of one input row × 8 input channels (weights `[c/8][o][kh][kw][8]`), over the contributing outputs in `(oc, oy ↑ ⇒ ky ↓, ox ↑ ⇒ kx ↓)` order | pixel lanes: 8 adjacent pixels of each of two input rows × 8 input channels across registers; `dy` loaded as a vector, each weight broadcast |
//!
//! Border pixels stay inside their tile. The input is copied once per image
//! into a zero-padded view (`[c][ph][pw]`, one per thread; each row split
//! into `stride` phases so adjacent pixels read adjacent floats) and `dy`
//! into a dilated one (`[o][dilated rows][dilated row]`, output pixel
//! `(oy, ox)` at `(kh − 1 + oy·stride, kw − 1 + ox·stride)`, zeros between),
//! both wide enough for a [`TILE`]-pixel row (and the dilated one for a
//! two-row tile), so every tap of every tile reads memory that exists, and a
//! term the textbook loops would skip is computed instead.
//!
//! The plain bodies are the scalar tier. Each is the portable spelling of
//! its AVX2 body. On x86-64 each vector tier runs intrinsics bodies
//! (`stamp_tiers!`), because LLVM does not keep these tiles in registers
//! from portable code.
//!
//! ## Determinism
//!
//! Every output scalar keeps the operation sequence of the textbook loops,
//! [`textbook_forward`] and [`textbook_backward`] (the test oracle in
//! `tests/conv_oracle.rs` is an independent copy):
//!
//! - forward: `acc = bias`; per `(ic, ky)` in order, `s = dot(x_row, w_row)`
//!   over the clipped kernel row — [`dot_slices`]' order, i.e.
//!   `s = +0.0; s += x·w` for `kx` ascending while the row is shorter than
//!   eight — then `acc += s`;
//! - backward: `dx += g·w` and `dw += g·x` as a separate multiply and add,
//!   visiting outputs in `(oc, oy, ox)` order and skipping `g == 0` terms
//!   (never "multiply by zero and add": that differs for non-finite
//!   operands); per-image `dw` partials are summed in ascending image order.
//!
//! A term the textbook skips and a tile computes must add nothing. Every sum
//! it meets starts at `+0.0`: a forward row sum, a per-image `dw` partial, a
//! `dx`. Under round-to-nearest `a + b` is `−0.0` only when both addends
//! are, so such a sum is never `−0.0`, and `s + (+0.0) = s` and
//! `s + (−0.0) = s` for every other `s`, NaN and ±inf included. A skipped
//! term always has one zero operand: `g = ±0.0`, or the padded view's `+0.0`
//! in a padding tap, or the dilated view's `+0.0` between strides and
//! outside the output. With the other operand finite, the product is
//! `±0.0`, and adding it changes nothing.
//!
//! So each call takes one of two paths, decided once by [`path`]:
//!
//! - **Tiles**, on a call whose operands are all finite: the selected tier's
//!   bodies, the plain ones on the scalar tier. One check per call: the
//!   forward's weights (its only skipped terms are padding taps,
//!   `+0.0 · w`); the backward's input batch, weights and `dy` (its bias
//!   gradients, free: a plane holding ±inf or NaN sums to ±inf or NaN).
//! - **Textbook loops**, on every tier, for a call holding ±inf or NaN, and
//!   for a forward whose kernel rows have eight taps or more (`dot_slices`
//!   sums those in chunks, an order the tiles do not keep).
//!
//! The argument does not cover the forward `acc`, which starts at a bias
//! that may be `−0.0`. It adds a row sum only for the kernel rows inside
//! the input, and a pixel whose kernel columns all miss the input keeps its
//! bias.
//!
//! A lane only ever holds one such scalar, so results are bit-identical at
//! any thread count, on every tier and down either path (see `simd.rs`).

use crate::simd::{
    add_assign_slices, axpy_slices, dot_slices, kernel, simd_tier, stamp_tiers, Tier, LANES,
};
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

/// Gradients produced by [`conv2d_backward_into`].
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
/// 3×3 kernel, and with the gradient and a broadcast input still inside
/// sixteen 8-lane registers. Larger kernels take several passes over
/// the pixels, [`DW_TAPS`] taps each; a slot past the kernel is not stored.
const DW_TAPS: usize = 9;

/// Pixels of the widest pixel-lane tile row (one 16-lane register, the
/// AVX-512 forward's). The padded and dilated views are laid out wide
/// enough for it on every tier.
const TILE: usize = 16;

/// Whether every value of `v` is finite: whether any exponent field is all
/// ones, gathered with no early exit inside a chunk so that the loop
/// vectorizes.
fn finite(v: &[f32]) -> bool {
    const EXP: u32 = 0x7f80_0000;
    v.chunks(1024).all(|c| {
        c.iter()
            .fold(0, |m, x| m | u32::from((x.to_bits() & EXP) == EXP))
            == 0
    })
}

/// The tier whose tiles a call runs: the selected one if `finite` (every
/// operand a skipped term can meet is finite, see the module docs), and
/// otherwise none: the textbook loops.
fn path(finite: bool) -> Option<Tier> {
    finite.then(simd_tier)
}

/// Evaluates the arm `$tier` names: the AVX-512 or AVX2 body, or the plain
/// one.
macro_rules! on_tier {
    ($tier:expr => avx512: $avx512:expr, avx2: $avx2:expr, plain: $plain:expr $(,)?) => {
        match $tier {
            // SAFETY: [`path`] returns a vector tier only when it is the
            // selected one, which is only selected after its runtime feature
            // check.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { $avx512 },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { $avx2 },
            _ => $plain,
        }
    };
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
    /// forward tile's pixels (rounded up to [`TILE`]), lies inside. A row
    /// is `pw = stride·pq` floats, padded column `j` at [`Geom::col`]`(j)`.
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
        let cols = (pad + w).max((ow.div_ceil(TILE) * TILE - 1) * stride + kw);
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

    /// The kernel rows of output row `oy` that read inside the input.
    #[inline(always)]
    fn row_range(&self, oy: usize) -> (usize, usize) {
        self.clip(oy, self.h, self.kh)
    }

    /// The kernel columns of output column `ox` that read inside the input.
    #[inline(always)]
    fn col_range(&self, ox: usize) -> (usize, usize) {
        self.clip(ox, self.w, self.kw)
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

    /// [`Geom::col`] of each kernel column of a kernel narrower than
    /// `LANES`, zero past it.
    fn tap_cols(&self) -> [usize; LANES] {
        std::array::from_fn(|kx| if kx < self.kw { self.col(kx) } else { 0 })
    }

    /// Offsets in a padded channel of the taps `k0..k0 + DW_TAPS` (`k =
    /// ky·kw + kx`) from a pixel's first tap; a slot past the kernel reads
    /// the first tap (and is never stored).
    fn tap_offsets(&self, k0: usize) -> [usize; DW_TAPS] {
        std::array::from_fn(|j| {
            let k = k0 + j;
            if k < self.kh * self.kw {
                (k / self.kw) * self.pw + self.col(k % self.kw)
            } else {
                0
            }
        })
    }

    /// The furthest [`Geom::col`] of any kernel column.
    fn max_col(&self) -> usize {
        (0..self.kw).map(|kx| self.col(kx)).max().unwrap_or(0)
    }

    /// Length of the padded input view.
    fn padded_len(&self) -> usize {
        self.c * self.ph * self.pw
    }

    /// Rows and row length of the dilated `dy` view: output pixel
    /// `(oy, ox)` at `(kh − 1 + oy·stride, kw − 1 + ox·stride)`. Input pixel
    /// `(iy, ix)`'s tap `(ky, kx)` reads `(iy + pad + kh − 1 − ky, ix + pad +
    /// kw − 1 − kx)`: every pixel of every dinput tile, two rows and
    /// `LANES` pixels wide, finds all its taps inside. Rows are laid out for
    /// [`TILE`]-pixel tiles even so: the AVX-512 body reads the two rows of a
    /// tile faster at that row stride (measured in EXPERIMENTS.md).
    fn dilated(&self) -> (usize, usize) {
        let rows = (self.h.next_multiple_of(2) + self.pad).max((self.oh - 1) * self.stride + 1);
        let cols = (self.w.div_ceil(TILE) * TILE + self.pad).max((self.ow - 1) * self.stride + 1);
        (rows + self.kh - 1, cols + self.kw - 1)
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
    /// A forward call's weights and bias packed in lane blocks of the given
    /// width (calling thread).
    Forward(usize),
    /// One image's `dy` views in a backward call, with or without `dinput`'s,
    /// `dy` packed in lane blocks of the given width.
    Backward(bool, usize),
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

/// Forward convolution: `input [N,C,H,W]`, `weight [O,C,kh,kw]`, `bias [O]`,
/// into a caller-provided buffer (every output cell overwritten).
///
/// Parallel over the batch dimension: each worker-pool task owns one image's
/// output slab, so results are bit-identical at any thread count.
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
    let Some(tier) = path(g.kw < LANES && finite(weight.data())) else {
        return textbook_forward(&g, x, weight.data(), bias.data(), out.data_mut());
    };
    let image = g.c * g.h * g.w;

    // The AVX-512 tile for rows of eight pixels or fewer holds two 8-channel
    // blocks per register.
    let lanes = if tier == Tier::Avx512 && g.ow <= LANES {
        TILE
    } else {
        LANES
    };
    // views = [weights as [o/lanes][c][kh][kw][lanes] | bias, padded to
    //          whole lane blocks]
    let channels = g.o.next_multiple_of(lanes);
    let wlen = channels * g.taps();
    with_view(
        &VIEWS,
        Layout::Forward(lanes),
        &g,
        wlen + channels,
        |views| {
            let (wp, bp) = views.split_at_mut(wlen);
            pack_lanes(weight.data(), g.o, g.taps(), lanes, wp);
            bp[..g.o].copy_from_slice(bias.data());
            let (wp, bp) = (&*wp, &*bp);
            crate::threads::parallel_for_chunks(out.data_mut(), g.o * g.oh * g.ow, |img, y| {
                with_padded(&g, &x[img * image..(img + 1) * image], |xp| {
                    on_tier!(tier =>
                        avx512: if lanes == TILE {
                            avx512::forward_channels(&g, xp, wp, bp, y)
                        } else {
                            avx512::forward_pixels(&g, xp, wp, bp, y)
                        },
                        avx2: avx2::forward(&g, xp, wp, bp, y),
                        plain: forward_plain(&g, xp, wp, bp, y),
                    )
                });
            });
        },
    );
}

/// The forward by the textbook loops: input `x [n][c][h][w]`, weights
/// `w [o][c][kh][kw]`, bias `b [o]`, output `y [n][o][oh][ow]` (every cell
/// overwritten). Each output, in `(oc, oy, ox)` order, is its bias plus one
/// [`dot_slices`] per kernel row whose clipped columns lie inside the input.
fn textbook_forward(g: &Geom, x: &[f32], w: &[f32], b: &[f32], y: &mut [f32]) {
    let image = g.c * g.h * g.w;
    for (x, y) in x
        .chunks_exact(image)
        .zip(y.chunks_exact_mut(g.o * g.oh * g.ow))
    {
        for (oc, y) in y.chunks_exact_mut(g.oh * g.ow).enumerate() {
            for oy in 0..g.oh {
                let (ky_lo, ky_hi) = g.row_range(oy);
                for ox in 0..g.ow {
                    let (kx_lo, kx_hi) = g.col_range(ox);
                    let mut acc = b[oc];
                    // A pixel whose kernel columns all miss adds nothing.
                    if kx_lo < kx_hi {
                        let (ix, len) = (ox * g.stride + kx_lo - g.pad, kx_hi - kx_lo);
                        for ic in 0..g.c {
                            for ky in ky_lo..ky_hi {
                                let xs = (ic * g.h + oy * g.stride + ky - g.pad) * g.w + ix;
                                let ws = ((oc * g.c + ic) * g.kh + ky) * g.kw + kx_lo;
                                acc += dot_slices(&x[xs..xs + len], &w[ws..ws + len]);
                            }
                        }
                    }
                    y[oy * g.ow + ox] = acc;
                }
            }
        }
    }
}

kernel!(pack_lanes => pack_lanes_plain(
    src: &[f32],
    o: usize,
    len: usize,
    width: usize,
    dst: &mut [f32],
) intrinsics);

/// `src [o][len]` → `dst [o/width][len][width]` (`width` 8 or 16):
/// `width` consecutive rows interleaved so element `t` of each sits in one
/// lane block. Lanes past `o` are left as they are (zero in a freshly
/// cleared buffer).
#[inline(always)]
fn pack_lanes_plain(src: &[f32], o: usize, len: usize, width: usize, dst: &mut [f32]) {
    pack_lanes_rest(src, o, len, width, dst, 0, 0);
}

/// [`pack_lanes_plain`] of the rows from `rows` on, and of the elements from
/// `elems` on of the rows before it.
fn pack_lanes_rest(
    src: &[f32],
    o: usize,
    len: usize,
    width: usize,
    dst: &mut [f32],
    rows: usize,
    elems: usize,
) {
    for (oc, row) in src.chunks_exact(len).enumerate().take(o) {
        let base = (oc / width) * len * width + oc % width;
        let from = if oc < rows { elems } else { 0 };
        for (t, &v) in row.iter().enumerate().skip(from) {
            dst[base + t * width] = v;
        }
    }
}

/// One image forward on the tiles: padded input `xp [c][ph][pw]`, weights
/// `wp [o/8][c][kh][kw][8]`, bias `bp` (whole lane blocks), output
/// `y [o][oh][ow]`. Each tile is `LANES` adjacent output pixels (the last
/// one of a row ragged) × one lane block; per `(ic, ky)` each pixel adds its
/// [`row_sum`], and a pixel whose kernel columns all miss the input keeps
/// its bias. A padding tap adds `(+0.0)·w`. The portable spelling of
/// `avx2::forward`.
fn forward_plain(g: &Geom, xp: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]) {
    let plane = g.oh * g.ow;
    let block = g.taps() * LANES;
    let cols = g.tap_cols();
    for ob in 0..Geom::blocks(g.o) {
        let bias: [f32; LANES] = bp[ob * LANES..(ob + 1) * LANES]
            .try_into()
            .expect("LANES-sized slice");
        for oy in 0..g.oh {
            let (ky_lo, ky_hi) = g.row_range(oy);
            for ox0 in (0..g.ow).step_by(LANES) {
                let mut acc = [bias; LANES];
                for ic in 0..g.c {
                    for ky in ky_lo..ky_hi {
                        let row = (ic * g.ph + oy * g.stride + ky) * g.pw + ox0;
                        let ws = ob * block + (ic * g.kh + ky) * g.kw * LANES;
                        let wrow = &wp[ws..ws + g.kw * LANES];
                        for (t, a) in acc.iter_mut().enumerate() {
                            let s = row_sum(&xp[row + t..], &cols[..g.kw], wrow);
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

/// One pixel's sums over one kernel row for a lane block: `+0.0` plus, `kx`
/// ascending, the product of the padded row's `xr[cols[kx]]` with the
/// row's weight block `kx` (of `wrow`, `kw` blocks of `LANES`).
#[inline(always)]
fn row_sum(xr: &[f32], cols: &[usize], wrow: &[f32]) -> [f32; LANES] {
    let mut s = [0.0f32; LANES];
    for (&at, wv) in cols.iter().zip(wrow.chunks_exact(LANES)) {
        let xv = xr[at];
        for (sl, &wl) in s.iter_mut().zip(wv) {
            *sl += xv * wl;
        }
    }
    s
}

/// Backward convolution: given `dout = dL/dy`, the gradients w.r.t.
/// input, weight, and bias.
///
/// Parallel over the batch dimension. `dinput` is naturally disjoint per
/// image; `dweight` is accumulated into per-image partial buffers that are
/// reduced afterwards in ascending image order, so the floating-point
/// reduction order — and therefore the result — is fixed at any thread
/// count. (`dy == 0` terms are skipped: max-pooling backward scatters
/// mostly-zero gradients into this kernel, and `g·w` / `g·x` contribute
/// exact zeros only for finite operands.)
///
/// The gradients land in caller-provided buffers. `scratch` holds the
/// per-image weight-gradient partials (and the channel-minor weights); it is
/// resized and zeroed before use, so reusing it across calls is
/// bit-identical to a fresh one, and allocation-free once warm.
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
    // A non-finite `dy` makes its channel's bias gradient non-finite (an
    // overflowing sum only sends a finite call to the textbook loops).
    let finite = db.iter().all(|b| b.is_finite()) && finite(x) && finite(weight.data());
    let Some(tier) = path(finite) else {
        return textbook_backward(&g, x, weight.data(), dy, grads, scratch, want_dinput);
    };
    // The AVX-512 weight-gradient tile pairs 8-channel blocks when o > 8.
    let dy_lanes = if tier == Tier::Avx512 && g.o > LANES {
        TILE
    } else {
        LANES
    };

    // scratch = [w as [c/8][o][kh][kw][8] (when dinput is wanted)
    //            | per image: dw partial as [o/8][c][kh][kw][8]]
    let ktaps = g.kh * g.kw;
    let wt_len = if want_dinput {
        Geom::blocks(g.c) * LANES * g.o * ktaps
    } else {
        0
    };
    let dwp_len = Geom::blocks(g.o) * taps * LANES;
    scratch.clear();
    scratch.resize(wt_len + n * dwp_len, 0.0);
    let (wt, partials) = scratch.split_at_mut(wt_len);
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
    let wt = &*wt;

    let dyt_len = g.o.div_ceil(dy_lanes) * plane * dy_lanes;
    let (dh, dr) = g.dilated();
    let dyd_len = if want_dinput { g.o * dh * dr } else { 0 };
    let per_image = |img: usize, dwp: &mut [f32], dx: Option<&mut [f32]>| {
        let img_dy = &dy[img * g.o * plane..(img + 1) * g.o * plane];
        // views = [dy as [o/lanes][oh·ow][lanes] | dilated dy]
        let layout = Layout::Backward(want_dinput, dy_lanes);
        with_view(&VIEWS, layout, &g, dyt_len + dyd_len, |views| {
            let (dyt, dyd) = views.split_at_mut(dyt_len);
            pack_lanes(img_dy, g.o, plane, dy_lanes, dyt);
            with_padded(&g, &x[img * image..(img + 1) * image], |xp| {
                on_tier!(tier =>
                    avx512: if dy_lanes == TILE {
                        avx512::dweight_pairs(&g, xp, dyt, dwp)
                    } else {
                        avx512::dweight(&g, xp, dyt, dwp)
                    },
                    avx2: avx2::dweight(&g, xp, dyt, dwp),
                    plain: dweight_plain(&g, xp, dyt, dwp),
                )
            });
            if let Some(dx) = dx {
                for (r, src) in img_dy.chunks_exact(g.ow).enumerate() {
                    let (oc, oy) = (r / g.oh, r % g.oh);
                    let row = (oc * dh + g.kh - 1 + oy * g.stride) * dr + g.kw - 1;
                    for (ox, &v) in src.iter().enumerate() {
                        dyd[row + ox * g.stride] = v;
                    }
                }
                on_tier!(tier =>
                    avx512: avx512::dinput_pixels(&g, dyd, wt, dx),
                    avx2: avx2::dinput(&g, dyd, wt, dx),
                    plain: dinput_plain(&g, dyd, wt, dx),
                )
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
    // a sum from +0.0, never −0.0, so 0 + p₀ = p₀.
    let (sum, rest) = partials.split_at_mut(dwp_len);
    for part in rest.chunks_exact(dwp_len) {
        add_assign_slices(sum, part);
    }
    grads.dweight.resize(weight.dims());
    for (oc, row) in grads.dweight.data_mut().chunks_exact_mut(taps).enumerate() {
        let base = (oc / LANES) * taps * LANES + oc % LANES;
        for (t, d) in row.iter_mut().enumerate() {
            *d = sum[base + t * LANES];
        }
    }
}

/// The backward by the textbook loops: `grads.dweight`, and `grads.dinput`
/// if `want_dinput` (every cell overwritten; `grads.dbias` is the caller's).
/// Per image, every output in `(oc, oy, ox)` order whose `g ≠ 0` adds
/// [`axpy_slices`] of `g` into `dx` and into the image's `dw` partial once
/// per kernel row whose clipped columns lie inside the input; the partials
/// are summed in ascending image order. `scratch` holds one partial.
fn textbook_backward(
    g: &Geom,
    x: &[f32],
    w: &[f32],
    dy: &[f32],
    grads: &mut Conv2dGrads,
    scratch: &mut Vec<f32>,
    want_dinput: bool,
) {
    let (image, plane) = (g.c * g.h * g.w, g.oh * g.ow);
    let n = dy.len() / (g.o * plane);
    scratch.clear();
    scratch.resize(g.o * g.taps(), 0.0);
    grads.dweight.resize(&[g.o, g.c, g.kh, g.kw]);
    grads.dweight.fill(0.0);
    if want_dinput {
        grads.dinput.resize(&[n, g.c, g.h, g.w]);
        grads.dinput.fill(0.0);
    }
    for img in 0..n {
        let x = &x[img * image..(img + 1) * image];
        let mut dx =
            want_dinput.then(|| &mut grads.dinput.data_mut()[img * image..(img + 1) * image]);
        let dw = &mut scratch[..];
        dw.fill(0.0);
        for (oc, dy) in dy[img * g.o * plane..(img + 1) * g.o * plane]
            .chunks_exact(plane)
            .enumerate()
        {
            for oy in 0..g.oh {
                let (ky_lo, ky_hi) = g.row_range(oy);
                for ox in 0..g.ow {
                    let (kx_lo, kx_hi) = g.col_range(ox);
                    let gv = dy[oy * g.ow + ox];
                    if gv == 0.0 || kx_lo == kx_hi {
                        continue;
                    }
                    let (ix, len) = (ox * g.stride + kx_lo - g.pad, kx_hi - kx_lo);
                    for ic in 0..g.c {
                        for ky in ky_lo..ky_hi {
                            let xs = (ic * g.h + oy * g.stride + ky - g.pad) * g.w + ix;
                            let ws = ((oc * g.c + ic) * g.kh + ky) * g.kw + kx_lo;
                            let (xr, wr) = (xs..xs + len, ws..ws + len);
                            if let Some(dx) = dx.as_deref_mut() {
                                axpy_slices(&mut dx[xr.clone()], gv, &w[wr.clone()]);
                            }
                            axpy_slices(&mut dw[wr], gv, &x[xr]);
                        }
                    }
                }
            }
        }
        add_assign_slices(grads.dweight.data_mut(), dw);
    }
}

/// One image's weight-gradient partial on the tiles: padded input
/// `xp [c][ph][pw]`, `dyt [o/8][oh·ow][8]`, `dwp [o/8][c][kh][kw][8]`. Each
/// tile is [`DW_TAPS`] taps of one input channel × one lane block,
/// accumulated from `+0.0` over the output pixels in `(oy, ox)` order; a tap
/// in the padding reads `+0.0`, and padding lanes carry `g = 0`. The
/// portable spelling of `avx2::dweight`.
fn dweight_plain(g: &Geom, xp: &[f32], dyt: &[f32], dwp: &mut [f32]) {
    let plane = g.oh * g.ow;
    let ktaps = g.kh * g.kw;
    for (dwblk, gblk) in dwp
        .chunks_exact_mut(g.taps() * LANES)
        .zip(dyt.chunks_exact(plane * LANES))
    {
        for ic in 0..g.c {
            let xc = &xp[ic * g.ph * g.pw..(ic + 1) * g.ph * g.pw];
            for k0 in (0..ktaps).step_by(DW_TAPS) {
                let off = g.tap_offsets(k0);
                let mut acc = [[0.0f32; LANES]; DW_TAPS];
                for oy in 0..g.oh {
                    for ox in 0..g.ow {
                        let pix = oy * g.ow + ox;
                        let gv = &gblk[pix * LANES..(pix + 1) * LANES];
                        let base = oy * g.stride * g.pw + ox;
                        for (a, &o) in acc.iter_mut().zip(&off) {
                            let xv = xc[base + o];
                            for (al, &gl) in a.iter_mut().zip(gv) {
                                *al += gl * xv;
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

/// One image's input gradient on the tiles: dilated `dyd` (see
/// [`Geom::dilated`]), `wt [c/8][o][kh][kw][8]`, `dx [c][h][w]` (every cell
/// overwritten). Each tile is `LANES` adjacent pixels of one input row × one
/// lane block of input channels, accumulated from `+0.0`; a tap between
/// strides or outside the output reads the dilated view's `+0.0`. The
/// portable spelling of `avx2::dinput`.
fn dinput_plain(g: &Geom, dyd: &[f32], wt: &[f32], dx: &mut [f32]) {
    let (kh, kw) = (g.kh, g.kw);
    let (dh, dr) = g.dilated();
    let wblock = g.o * kh * kw * LANES;
    for cb in 0..Geom::blocks(g.c) {
        let wblk = &wt[cb * wblock..(cb + 1) * wblock];
        for iy in 0..g.h {
            let rows = g.kernel_rows(iy);
            for ix0 in (0..g.w).step_by(LANES) {
                let mut acc = [[0.0f32; LANES]; LANES];
                for oc in 0..g.o {
                    for (ky, oy) in rows.clone() {
                        let row = (oc * dh + kh - 1 + oy * g.stride) * dr;
                        let ws = (oc * kh + ky) * kw * LANES;
                        for kx in (0..kw).rev() {
                            let wv = &wblk[ws + kx * LANES..ws + (kx + 1) * LANES];
                            let gs = row + ix0 + g.pad + kw - 1 - kx;
                            for (a, &gt) in acc.iter_mut().zip(&dyd[gs..gs + LANES]) {
                                for (al, &wl) in a.iter_mut().zip(wv) {
                                    *al += gt * wl;
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

/// The AVX2 tier's forward and input-gradient tiles: the plain bodies'
/// channel-lane tiles in intrinsics (the AVX-512 tier runs pixel lanes,
/// [`conv16_bodies`]).
///
/// # Safety
///
/// Every function requires its tier's features: they are called only when
/// [`path`] returned their tier, after the runtime check. Each walks raw pointers
/// over its views after asserting, on entry, that the furthest element it
/// reads or writes lies inside them.
macro_rules! conv8_bodies {
    ($features:literal, $V:ty) => {
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

        /// [`forward_plain`] in intrinsics.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn forward(g: &Geom, xp: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]) {
            let plane = g.oh * g.ow;
            let block = g.taps() * LANES;
            let (kw, st) = (g.kw, g.stride);
            let cols = g.tap_cols();
            // Every read below stays inside its buffer: each tap column of the
            // last tile's last pixel in every padded row, every block's
            // weights and bias.
            assert!(kw < LANES && g.max_col() + g.ow.div_ceil(LANES) * LANES <= g.pw);
            assert!((g.oh - 1) * st + g.kh <= g.ph && g.c * g.ph * g.pw <= xp.len());
            assert!(Geom::blocks(g.o) * block <= wp.len() && Geom::blocks(g.o) * LANES <= bp.len());
            assert!(y.len() == g.o * plane);
            for ob in 0..Geom::blocks(g.o) {
                let bias = load(&bp[ob * LANES..]);
                for oy in 0..g.oh {
                    let (ky_lo, ky_hi) = g.row_range(oy);
                    for ox0 in (0..g.ow).step_by(LANES) {
                        let mut acc = [bias; LANES];
                        for ic in 0..g.c {
                            let first = (ic * g.kh + ky_lo) * kw * LANES;
                            let mut xr = xp.as_ptr().add((ic * g.ph + oy * st + ky_lo) * g.pw + ox0);
                            let mut wr = wp.as_ptr().add(ob * block + first);
                            for _ in ky_lo..ky_hi {
                                // The eight row sums, kx ascending from +0.0: tap
                                // kx of pixel t reads xr[col(kx) + t].
                                let mut s = [_mm256_setzero_ps(); LANES];
                                for (kx, &at) in cols[..kw].iter().enumerate() {
                                    let xk = xr.add(at);
                                    let wv = _mm256_loadu_ps(wr.add(kx * LANES));
                                    s = each_lane!(t => _mm256_add_ps(
                                        s[t],
                                        _mm256_mul_ps(_mm256_broadcast_ss(&*xk.add(t)), wv),
                                    ));
                                }
                                acc = each_lane!(t => _mm256_add_ps(acc[t], s[t]));
                                xr = xr.add(g.pw);
                                wr = wr.add(kw * LANES);
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

        /// [`dinput_plain`] in intrinsics.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dinput(g: &Geom, dyd: &[f32], wt: &[f32], dx: &mut [f32]) {
            let (kh, kw) = (g.kh, g.kw);
            let (dh, dr) = g.dilated();
            let wblock = g.o * kh * kw * LANES;
            // Every read below stays inside its buffer: the last row's last
            // tile's first tap, every block's weights.
            assert!(dyd.len() == g.o * dh * dr && (g.oh - 1) * g.stride + kh <= dh);
            assert!(g.w.div_ceil(LANES) * LANES + g.pad + kw - 1 <= dr);
            assert!(Geom::blocks(g.c) * wblock <= wt.len());
            for cb in 0..Geom::blocks(g.c) {
                let wblk = wt.as_ptr().add(cb * wblock);
                for iy in 0..g.h {
                    let rows = g.kernel_rows(iy);
                    for ix0 in (0..g.w).step_by(LANES) {
                        let mut acc = [_mm256_setzero_ps(); LANES];
                        for oc in 0..g.o {
                            for (ky, oy) in rows.clone() {
                                // Pixel t, tap kx reads gr[t − kx]: kx descends,
                                // so the reads move right.
                                let gr = dyd
                                    .as_ptr()
                                    .add((oc * dh + kh - 1 + oy * g.stride) * dr + ix0 + g.pad + kw - 1);
                                let wr = wblk.add((oc * kh + ky) * kw * LANES);
                                for kx in (0..kw).rev() {
                                    let (gk, wv) = (gr.sub(kx), _mm256_loadu_ps(wr.add(kx * LANES)));
                                    acc = each_lane!(t => _mm256_add_ps(
                                        acc[t],
                                        _mm256_mul_ps(_mm256_broadcast_ss(&*gk.add(t)), wv),
                                    ));
                                }
                            }
                        }
                        store(acc, g.c, cb, g.h * g.w, iy * g.w + ix0, g.w - ix0, dx);
                    }
                }
            }
        }
    };
}

/// The 8-lane bodies both vector tiers run: `pack_lanes` and the
/// weight-gradient tile (the AVX-512 tier's when `o ≤ 8`), stamped for AVX2
/// and, from the same tokens, for AVX-512 (EVEX encoding, 32 registers).
///
/// # Safety
///
/// As [`conv8_bodies`]; `pack_lanes` is called by `kernel!`.
macro_rules! conv_bodies {
    ($features:literal, $V:ty) => {
        const _: () = assert!(LANES == 8 && DW_TAPS == 9);

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
        pub(super) unsafe fn pack_lanes(src: &[f32], o: usize, len: usize, width: usize, dst: &mut [f32]) {
            let (full_rows, full_len) = (o / LANES * LANES, len / LANES * LANES);
            assert!(width % LANES == 0 && src.len() >= o * len);
            assert!(dst.len() >= o.div_ceil(width) * len * width);
            for ob in 0..o / LANES {
                let oc = ob * LANES;
                let (s, d) = (
                    src.as_ptr().add(oc * len),
                    dst.as_mut_ptr().add((oc / width) * len * width + oc % width),
                );
                for t0 in (0..full_len).step_by(LANES) {
                    let r = each_lane!(l => _mm256_loadu_ps(s.add(l * len + t0)));
                    for (t, v) in transpose(r).into_iter().enumerate() {
                        _mm256_storeu_ps(d.add((t0 + t) * width), v);
                    }
                }
            }
            pack_lanes_rest(src, o, len, width, dst, full_rows, full_len);
        }

        /// [`dweight_plain`] in intrinsics.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dweight(g: &Geom, xp: &[f32], dyt: &[f32], dwp: &mut [f32]) {
            let plane = g.oh * g.ow;
            let ktaps = g.kh * g.kw;
            // Every read below stays inside its buffer: the last pixel's last
            // tap and gradient.
            assert!(dyt.len() == Geom::blocks(g.o) * plane * LANES);
            assert!(g.c * g.ph * g.pw <= xp.len() && (g.oh - 1) * g.stride + g.kh <= g.ph);
            assert!(g.ow - 1 + g.max_col() < g.pw);
            for (dwblk, gblk) in dwp
                .chunks_exact_mut(g.taps() * LANES)
                .zip(dyt.chunks_exact(plane * LANES))
            {
                for ic in 0..g.c {
                    let xc = xp.as_ptr().add(ic * g.ph * g.pw);
                    for k0 in (0..ktaps).step_by(DW_TAPS) {
                        let off = g.tap_offsets(k0);
                        let mut acc = [_mm256_setzero_ps(); DW_TAPS];
                        let mut gp = gblk.as_ptr();
                        for oy in 0..g.oh {
                            let mut xr = xc.add(oy * g.stride * g.pw);
                            for _ in 0..g.ow {
                                let gv = _mm256_loadu_ps(gp);
                                acc = each_tap!(j => _mm256_add_ps(
                                    acc[j],
                                    _mm256_mul_ps(gv, _mm256_broadcast_ss(&*xr.add(off[j]))),
                                ));
                                gp = gp.add(LANES);
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

/// The 16-lane bodies, AVX-512 only: the same products and sums
/// on every output scalar as the plain bodies, in the same order, with
/// sixteen output scalars per register (see the module docs' table).
///
/// # Safety
///
/// As [`conv_bodies`].
macro_rules! conv16_bodies {
    ($features:literal, $V:ty) => {
        const _: () = assert!(TILE == 2 * LANES);

        /// Sixteen pixel lanes of two rows: the eight floats at `p` and the
        /// eight at `p + next`.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn rows(p: *const f32, next: usize) -> __m512 {
            let lo = _mm512_castps256_ps512(_mm256_loadu_ps(p));
            _mm512_insertf32x8::<1>(lo, _mm256_loadu_ps(p.add(next)))
        }

        /// Stores the lanes of `v` that hold the first `n` pixels of each of
        /// its two rows: eight at `p` and, if `both`, eight at `p + next`.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn store_rows(v: __m512, p: *mut f32, n: usize, next: usize, both: bool) {
            let m = ((1u32 << n) - 1) as __mmask8;
            _mm256_mask_storeu_ps(p, m, _mm512_castps512_ps256(v));
            if both {
                _mm256_mask_storeu_ps(p.add(next), m, _mm512_extractf32x8_ps::<1>(v));
            }
        }

        /// [`forward_plain`] on pixel lanes: each tile is sixteen
        /// adjacent pixels of one output row (the last one of a row ragged) ×
        /// one 8-channel block, one register per channel. A lane whose
        /// pixel's kernel columns all miss the input keeps its bias.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn forward_pixels(g: &Geom, xp: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]) {
            let plane = g.oh * g.ow;
            let block = g.taps() * LANES;
            let (kw, st, pw) = (g.kw, g.stride, g.pw);
            let cols = g.tap_cols();
            // Every read below stays inside its buffer: each tap column of the
            // last tile's last pixel in every padded row, every block's
            // weights and bias.
            assert!(kw < LANES && g.max_col() + g.ow.div_ceil(TILE) * TILE <= pw);
            assert!((g.oh - 1) * st + g.kh <= g.ph && g.c * g.ph * pw <= xp.len());
            assert!(y.len() == g.o * plane);
            assert!(Geom::blocks(g.o) * block <= wp.len() && Geom::blocks(g.o) * LANES <= bp.len());
            for ob in 0..Geom::blocks(g.o) {
                let bias = each_lane!(j => _mm512_set1_ps(bp[ob * LANES + j]));
                let w0 = wp.as_ptr().add(ob * block);
                for oy in 0..g.oh {
                    let (ky_lo, ky_hi) = g.row_range(oy);
                    for ox0 in (0..g.ow).step_by(TILE) {
                        let keep = (0..TILE).fold(0, |m: __mmask16, t| {
                            m | (u16::from(g.misses(ox0 + t)) << t)
                        });
                        let mut acc = bias;
                        for ic in 0..g.c {
                            let mut xr = xp.as_ptr().add((ic * g.ph + oy * st + ky_lo) * pw + ox0);
                            let mut wr = w0.add((ic * g.kh + ky_lo) * kw * LANES);
                            for _ in ky_lo..ky_hi {
                                // The row sums of the eight channels, kx
                                // ascending from +0.0.
                                let mut s = [_mm512_setzero_ps(); LANES];
                                for (kx, &at) in cols[..kw].iter().enumerate() {
                                    let xv = _mm512_loadu_ps(xr.add(at));
                                    let wk = wr.add(kx * LANES);
                                    s = each_lane!(j => _mm512_add_ps(
                                        s[j],
                                        _mm512_mul_ps(xv, _mm512_set1_ps(*wk.add(j))),
                                    ));
                                }
                                acc = each_lane!(j => _mm512_add_ps(acc[j], s[j]));
                                xr = xr.add(pw);
                                wr = wr.add(kw * LANES);
                            }
                        }
                        let m = ((1u32 << TILE.min(g.ow - ox0)) - 1) as __mmask16;
                        for (j, (&a, &b)) in acc.iter().zip(&bias).enumerate().take(Geom::lanes(g.o, ob)) {
                            let at = y.as_mut_ptr().add((ob * LANES + j) * plane + oy * g.ow + ox0);
                            _mm512_mask_storeu_ps(at, m, _mm512_mask_blend_ps(keep, a, b));
                        }
                    }
                }
            }
        }

        /// [`forward_plain`] for output rows of eight pixels or
        /// fewer: the 8-lane tile's shape with two 8-channel blocks per
        /// register (weights packed `[o/16][c][kh][kw][16]`), each tile one
        /// output row × sixteen channels, transposed to store.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn forward_channels(g: &Geom, xp: &[f32], wp: &[f32], bp: &[f32], y: &mut [f32]) {
            let plane = g.oh * g.ow;
            let (pairs, block) = (g.o.div_ceil(TILE), g.taps() * TILE);
            let (kw, st) = (g.kw, g.stride);
            let cols = g.tap_cols();
            // Every read below stays inside its buffer: each tap column of
            // every row's last pixel, every pair's weights and bias.
            assert!(kw < LANES && g.ow <= LANES && g.max_col() + LANES <= g.pw);
            assert!((g.oh - 1) * st + g.kh <= g.ph && g.c * g.ph * g.pw <= xp.len());
            assert!(y.len() == g.o * plane);
            assert!(pairs * block <= wp.len() && pairs * TILE <= bp.len());
            let m = ((1u32 << g.ow) - 1) as __mmask8;
            for p in 0..pairs {
                let bias = _mm512_loadu_ps(bp.as_ptr().add(p * TILE));
                for oy in 0..g.oh {
                    let (ky_lo, ky_hi) = g.row_range(oy);
                    let mut acc = [bias; LANES];
                    for ic in 0..g.c {
                        let mut xr = xp.as_ptr().add((ic * g.ph + oy * st + ky_lo) * g.pw);
                        let mut wr = wp.as_ptr().add(p * block + (ic * g.kh + ky_lo) * kw * TILE);
                        for _ in ky_lo..ky_hi {
                            // The eight pixels' row sums, kx ascending from
                            // +0.0: tap kx of pixel t reads xr[col(kx) + t].
                            let mut s = [_mm512_setzero_ps(); LANES];
                            for (kx, &at) in cols[..kw].iter().enumerate() {
                                let (xk, wv) = (xr.add(at), _mm512_loadu_ps(wr.add(kx * TILE)));
                                s = each_lane!(t => _mm512_add_ps(
                                    s[t],
                                    _mm512_mul_ps(_mm512_set1_ps(*xk.add(t)), wv),
                                ));
                            }
                            acc = each_lane!(t => _mm512_add_ps(acc[t], s[t]));
                            xr = xr.add(g.pw);
                            wr = wr.add(kw * TILE);
                        }
                    }
                    for (t, a) in acc.iter_mut().enumerate() {
                        if g.misses(t) {
                            *a = bias;
                        }
                    }
                    // Each half is an 8 × 8 tile of 8-channel block 2p or
                    // 2p + 1; a block past `o` is not stored.
                    let halves = [
                        transpose(each_lane!(t => _mm512_castps512_ps256(acc[t]))),
                        transpose(each_lane!(t => _mm512_extractf32x8_ps::<1>(acc[t]))),
                    ];
                    for (b, half) in halves.iter().enumerate().take(Geom::blocks(g.o) - 2 * p) {
                        let cb = 2 * p + b;
                        for (l, &v) in half.iter().enumerate().take(Geom::lanes(g.o, cb)) {
                            let at = y.as_mut_ptr().add((cb * LANES + l) * plane + oy * g.ow);
                            _mm256_mask_storeu_ps(at, m, v);
                        }
                    }
                }
            }
        }

        /// [`dweight_plain`] with two 8-channel blocks per register:
        /// `dyt [o/16][oh·ow][16]`; block pair `p`'s halves are stored to
        /// `dwp`'s blocks `2p` and `2p + 1` (`[o/8][c][kh][kw][8]`, the plain
        /// body's layout; a block past `o` is not stored).
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dweight_pairs(g: &Geom, xp: &[f32], dyt: &[f32], dwp: &mut [f32]) {
            let plane = g.oh * g.ow;
            let ktaps = g.kh * g.kw;
            let (blocks, bsize) = (Geom::blocks(g.o), g.taps() * LANES);
            // Every read below stays inside its buffer: the last pixel's last
            // tap and gradient.
            assert!(dyt.len() == g.o.div_ceil(TILE) * plane * TILE && dwp.len() == blocks * bsize);
            assert!(g.c * g.ph * g.pw <= xp.len() && (g.oh - 1) * g.stride + g.kh <= g.ph);
            assert!(g.ow - 1 + g.max_col() < g.pw);
            for (p, gblk) in dyt.chunks_exact(plane * TILE).enumerate() {
                for ic in 0..g.c {
                    let xc = xp.as_ptr().add(ic * g.ph * g.pw);
                    for k0 in (0..ktaps).step_by(DW_TAPS) {
                        let off = g.tap_offsets(k0);
                        let mut acc = [_mm512_setzero_ps(); DW_TAPS];
                        let mut gp = gblk.as_ptr();
                        for oy in 0..g.oh {
                            let mut xr = xc.add(oy * g.stride * g.pw);
                            for _ in 0..g.ow {
                                let gv = _mm512_loadu_ps(gp);
                                acc = each_tap!(j => _mm512_add_ps(
                                    acc[j],
                                    _mm512_mul_ps(gv, _mm512_set1_ps(*xr.add(off[j]))),
                                ));
                                gp = gp.add(TILE);
                                xr = xr.add(1);
                            }
                        }
                        for (j, &a) in acc.iter().enumerate().take(ktaps - k0) {
                            let lo = 2 * p * bsize + (ic * ktaps + k0 + j) * LANES;
                            _mm256_storeu_ps(dwp[lo..lo + LANES].as_mut_ptr(), _mm512_castps512_ps256(a));
                            if 2 * p + 1 < blocks {
                                let hi = lo + bsize;
                                let v = _mm512_extractf32x8_ps::<1>(a);
                                _mm256_storeu_ps(dwp[hi..hi + LANES].as_mut_ptr(), v);
                            }
                        }
                    }
                }
            }
        }

        /// [`dinput_plain`] on pixel lanes: each tile is eight
        /// adjacent pixels of two input rows × one 8-channel block, one
        /// register per channel. Every kernel row and column is visited,
        /// `(oc, ky ↓, kx ↓)`; a tap that reads no output reads the dilated
        /// view's `+0.0`.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dinput_pixels(g: &Geom, dyd: &[f32], wt: &[f32], dx: &mut [f32]) {
            let (kh, kw) = (g.kh, g.kw);
            let (dh, dr) = g.dilated();
            let (plane, wblock) = (g.h * g.w, g.o * kh * kw * LANES);
            // Every read below stays inside its buffer: the last tile's
            // furthest tap, every block's weights.
            assert!(dyd.len() == g.o * dh * dr && g.h.next_multiple_of(2) + g.pad + kh - 1 <= dh);
            assert!(g.w.div_ceil(LANES) * LANES + g.pad + kw - 1 <= dr);
            assert!(Geom::blocks(g.c) * wblock <= wt.len() && dx.len() == g.c * plane);
            for cb in 0..Geom::blocks(g.c) {
                let wblk = wt.as_ptr().add(cb * wblock);
                for iy in (0..g.h).step_by(2) {
                    for ix0 in (0..g.w).step_by(LANES) {
                        let mut acc = [_mm512_setzero_ps(); LANES];
                        for oc in 0..g.o {
                            for ky in (0..kh).rev() {
                                // Pixel (iy, ix0 + t), tap kx reads gr[t − kx].
                                let row = oc * dh + iy + g.pad + kh - 1 - ky;
                                let gr = dyd.as_ptr().add(row * dr + ix0 + g.pad + kw - 1);
                                let wr = wblk.add((oc * kh + ky) * kw * LANES);
                                for kx in (0..kw).rev() {
                                    let gv = rows(gr.sub(kx), dr);
                                    let wk = wr.add(kx * LANES);
                                    acc = each_lane!(j => _mm512_add_ps(
                                        acc[j],
                                        _mm512_mul_ps(gv, _mm512_set1_ps(*wk.add(j))),
                                    ));
                                }
                            }
                        }
                        let (n, both) = (LANES.min(g.w - ix0), iy + 1 < g.h);
                        for (j, &a) in acc.iter().enumerate().take(Geom::lanes(g.c, cb)) {
                            let at = dx.as_mut_ptr().add((cb * LANES + j) * plane + iy * g.w + ix0);
                            store_rows(a, at, n, g.w, both);
                        }
                    }
                }
            }
        }
    };
}

stamp_tiers!(mod { conv_bodies } avx2 { conv8_bodies } avx512 { conv16_bodies });

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

    /// The forward into a fresh buffer.
    fn conv2d(x: &Tensor, w: &Tensor, b: &Tensor, spec: ConvSpec) -> Tensor {
        let mut y = Tensor::scratch();
        conv2d_into(x, w, b, spec, &mut y);
        y
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

    #[test]
    fn finite_finds_every_non_finite_value() {
        let mut v = vec![1.0f32; 3000];
        assert!(finite(&v) && finite(&[]));
        for (i, bad) in [
            (0, f32::INFINITY),
            (1500, f32::NEG_INFINITY),
            (2999, f32::NAN),
        ] {
            v[i] = bad;
            assert!(!finite(&v), "{bad} at {i}");
            v[i] = f32::MAX;
        }
        assert!(finite(&v));
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
        let mut grads = Conv2dGrads::scratch();
        conv2d_backward_into(&x, &w, &dout, spec, &mut grads, &mut Vec::new());

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
