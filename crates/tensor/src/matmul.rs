//! Matrix products, including the transposed variants needed for backprop.
//!
//! All three products run on the shared worker pool (see [`crate::threads`]):
//! the task grid depends only on the operand shapes and every task owns a
//! disjoint block of output rows, so results are bit-identical at any thread
//! count. Per output element the reduction over the shared dimension follows
//! one fixed order on both dispatch paths — ascending `k`, a separate
//! multiply and add per term, starting from `+0.0`, for `matmul` /
//! `matmul_transa`; the 8-lane strided order of [`crate::simd::dot_slices`]
//! for `matmul_transb`. Each writes into a buffer the caller owns.
//!
//! The three products are register tiles: a small block of C stays in
//! registers for the whole `k` range, so each loaded A and B value meets
//! several outputs and C is read and written once. The tile shape depends
//! on the SIMD tier (`simd.rs`):
//!
//! | tier | `matmul` / `matmul_transa` | `matmul_transb` |
//! |---|---|---|
//! | scalar, avx2 | [`MR`]` × `[`NR`] (4 × 16: eight 8-lane accumulators), portable Rust | 2 rows × 4 dot products, each one 8-lane accumulator set (`dot_tile_slices`) |
//! | avx512 | [`MR`]` × `[`NR16`] (4 × 32: eight 16-lane accumulators), intrinsics | 4 rows × 8 dot products, two rows' 8-lane accumulator sets per 16-lane register |
//!
//! A tile only decides *which outputs share a register*; the operation
//! sequence of each output is the one above, so every tier computes the
//! same bits. Cache blocking and packing, for large shapes, only reorder
//! memory traffic.
//!
//! There is deliberately no `a == 0.0` fast path: `0 · NaN` must stay `NaN`
//! (IEEE semantics the old kernels silently broke), and on the dense
//! matrices of this workload the branch only cost time.

use crate::simd::{kernel, stamp_tiers, LANES};
use crate::tensor::Tensor;

/// Rows of A/C per packed block — one parallel task per `MC`-row block.
const MC: usize = 64;
/// Depth of a packed A/B panel; `KC · NC` floats of B stay L2-resident.
const KC: usize = 256;
/// Columns of B per packed panel.
const NC: usize = 256;
/// Below this many multiply-accumulates a product runs as one inline task on
/// its operands as they lie: packing and pool dispatch cost more than they
/// save. Shape-dependent only, so the determinism contract is unaffected.
const SMALL_GEMM: usize = 1 << 17;

/// Rows of a `matmul` / `matmul_transa` register tile. With [`NR`] columns
/// that is eight 8-lane accumulators — enough independent add chains to
/// cover the add latency on two ports — plus two B vectors and a broadcast
/// A value, inside the sixteen AVX2 registers.
const MR: usize = 4;
/// Columns of a register tile: two 8-lane vectors.
const NR: usize = 2 * LANES;
/// Columns of an AVX-512 register tile: two 16-lane vectors. With [`MR`]
/// rows that is eight `__m512` accumulators, two B vectors and a broadcast
/// A value.
#[cfg(target_arch = "x86_64")]
const NR16: usize = 32;

/// Row-block height for the non-packed kernels (`transa`/`transb`).
/// Collapsing to a single block below [`SMALL_GEMM`] makes `parallel_for`
/// run the identical code inline.
fn row_block(m: usize, work: usize) -> usize {
    if work <= SMALL_GEMM {
        m.max(1)
    } else {
        MC
    }
}

impl Tensor {
    /// `self (m×k) × other (k×n) → (m×n)` into a caller-provided buffer
    /// (resized as needed; every element overwritten, so stale contents
    /// never leak).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = mat_dims(self);
        let (k2, n) = mat_dims(other);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        out.resize(&[m, n]);
        gemm(self.data(), other.data(), out.data_mut(), m, k, n);
    }

    /// `self (m×k) × otherᵀ (n×k) → (m×n)` into a caller-provided buffer,
    /// without materializing a transpose. Every output element is
    /// overwritten.
    pub fn matmul_transb_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = mat_dims(self);
        let (n, k2) = mat_dims(other);
        assert_eq!(k, k2, "matmul_transb inner dims: {k} vs {k2}");
        out.resize(&[m, n]);
        let a = self.data();
        let b = other.data();
        // All of `m` or the even `MC`: a row pair never straddles two tasks.
        let rb = row_block(m, m * k * n);
        crate::threads::parallel_for_chunks(out.data_mut(), rb * n, |blk, ochunk| {
            let rows = ochunk.len() / n;
            let ablk = &a[blk * rb * k..(blk * rb + rows) * k];
            transb_block(ablk, b, (rows, k, n), ochunk);
        });
    }

    /// `selfᵀ (k×m viewed as m-major) × other (k×n) → (m×n)` where
    /// `self` is stored as (k×m), into a caller-provided buffer (every
    /// element overwritten). Used for weight gradients `Xᵀ·dY`.
    pub fn matmul_transa_into(&self, other: &Tensor, out: &mut Tensor) {
        let (k, m) = mat_dims(self);
        let (k2, n) = mat_dims(other);
        assert_eq!(k, k2, "matmul_transa inner dims: {k} vs {k2}");
        out.resize(&[m, n]);
        let a = self.data();
        let b = other.data();
        let rb = row_block(m, m * k * n);
        // Each task owns an `rb`-row block of C, i.e. an `rb`-column strip
        // of the stored A.
        crate::threads::parallel_for_chunks(out.data_mut(), rb * n, |blk, ochunk| {
            let rows = ochunk.len() / n;
            let at = Block {
                data: &a[blk * rb..],
                ld: m,
            };
            let c = BlockMut {
                data: ochunk,
                ld: n,
            };
            tiles_tn(at, Block { data: b, ld: n }, c, (rows, k, n), false);
        });
    }
}

#[inline]
fn mat_dims(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.ndim(), 2, "expected a matrix, got shape {}", t.shape());
    (t.dims()[0], t.dims()[1])
}

kernel!(transb_block => transb_block_plain(
    a: &[f32], b: &[f32], dims: (usize, usize, usize), out: &mut [f32],
) { avx2: portable, avx512: (avx512::transb_block) });

/// `out [rows × n] = A · Bᵀ` for `dims = (rows, k, n)`, `a [rows × k]`,
/// `b [n × k]`: the rows in pairs through [`transb_rows`], the last one
/// alone.
#[inline(always)]
fn transb_block_plain(a: &[f32], b: &[f32], (rows, k, n): (usize, usize, usize), out: &mut [f32]) {
    let arow = |i: usize| &a[i * k..(i + 1) * k];
    let mut opairs = out.chunks_exact_mut(2 * n);
    for (i, opair) in (&mut opairs).enumerate() {
        transb_rows([arow(2 * i), arow(2 * i + 1)], b, opair);
    }
    let olast = opairs.into_remainder();
    if !olast.is_empty() {
        transb_rows([arow(rows - 1)], b, olast);
    }
}

/// `R` rows of `A·Bᵀ`: `out` (`R × n`, row-major) gets the dot product of
/// every `a` row with every `k`-long row of `b`, four B rows per
/// [`dot_tile_slices`](crate::simd::dot_tile_slices) and the last `n % 4`
/// one [`dot_slices`](crate::simd::dot_slices) each.
fn transb_rows<const R: usize>(a: [&[f32]; R], b: &[f32], out: &mut [f32]) {
    let k = a[0].len();
    let n = out.len() / R;
    let brow = |j: usize| &b[j * k..(j + 1) * k];
    for j in (0..n - n % 4).step_by(4) {
        let d = crate::simd::dot_tile_slices(a, [brow(j), brow(j + 1), brow(j + 2), brow(j + 3)]);
        for (r, dr) in d.iter().enumerate() {
            out[r * n + j..r * n + j + 4].copy_from_slice(dr);
        }
    }
    for j in n - n % 4..n {
        for (r, ar) in a.iter().enumerate() {
            out[r * n + j] = crate::simd::dot_slices(ar, brow(j));
        }
    }
}

thread_local! {
    /// Packed B panel, reused across gemm calls on this thread. Safe because
    /// gemm never nests (kernels do not call kernels), so at most one borrow
    /// is live per thread; pool workers are persistent, so the buffer stays
    /// warm across training steps.
    static PACK_B: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Packed A block, borrowed inside each parallel task (tasks on one
    /// thread run sequentially, and the panel packing below borrows `PACK_B`,
    /// a different key).
    static PACK_A: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Resizes a pack buffer without caring about prior contents (they are fully
/// overwritten by the pack loop before use).
#[inline]
fn ensure_len(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// `C = A(m×k) × B(k×n)`; previous contents of C are ignored.
///
/// Small products are one pass of register tiles over the operands as they
/// lie. Large ones are cache-blocked with packed panels: B is packed per
/// `(KC, NC)` tile, A per `(MC, KC)` block inside each parallel task, and
/// the same tiles run inside the block, starting from `+0.0` in the first
/// `k` panel and from C as their carry-in in the later ones. Every element
/// of C accumulates over `p` in ascending order regardless of tiling or
/// thread count.
pub(crate) fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m * k * n <= SMALL_GEMM {
        let (a, b) = (Block { data: a, ld: k }, Block { data: b, ld: n });
        tiles_nn(a, b, BlockMut { data: c, ld: n }, (m, k, n), false);
        return;
    }
    PACK_B.with(|cell| {
        let mut bp = cell.borrow_mut();
        ensure_len(&mut bp, KC.min(k) * NC.min(n));
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                for (p, dst) in bp.chunks_exact_mut(nc).take(kc).enumerate() {
                    let row = (pc + p) * n + jc;
                    dst.copy_from_slice(&b[row..row + nc]);
                }
                let bpanel = &bp[..kc * nc];
                crate::threads::parallel_for_chunks(c, MC * n, |blk, cchunk| {
                    let i0 = blk * MC;
                    let rows = cchunk.len() / n;
                    PACK_A.with(|acell| {
                        let mut ap = acell.borrow_mut();
                        ensure_len(&mut ap, rows * kc);
                        for (i, dst) in ap.chunks_exact_mut(kc).take(rows).enumerate() {
                            let row = (i0 + i) * k + pc;
                            dst.copy_from_slice(&a[row..row + kc]);
                        }
                        let c = BlockMut {
                            data: &mut cchunk[jc..],
                            ld: n,
                        };
                        let (a, b) = (
                            Block { data: &ap, ld: kc },
                            Block {
                                data: bpanel,
                                ld: nc,
                            },
                        );
                        tiles_nn(a, b, c, (rows, kc, nc), pc > 0);
                    });
                });
            }
        }
    });
}

/// A row-major view of part of a matrix: `data` starts at the view's first
/// element and consecutive rows are `ld` floats apart.
#[derive(Clone, Copy)]
struct Block<'a> {
    data: &'a [f32],
    ld: usize,
}

/// The mutable twin of [`Block`].
struct BlockMut<'a> {
    data: &'a mut [f32],
    ld: usize,
}

kernel!(tiles_nn => tiles_nn_body(
    a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool,
) { avx2: portable, avx512: (avx512::tiles_nn) });
kernel!(tiles_tn => tiles_tn_body(
    a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool,
) { avx2: portable, avx512: (avx512::tiles_tn) });

/// `C[..rows, ..cols] = A × B[..kc, ..cols]` for `dims = (rows, kc, cols)`,
/// `A` stored `rows × kc`; with `carry`, `C +=`.
#[inline(always)]
fn tiles_nn_body(a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool) {
    tiles::<false>(a, b, c, dims, carry)
}

/// `C[..rows, ..cols] = Aᵀ × B[..kc, ..cols]` for `dims = (rows, kc, cols)`,
/// `A` stored `kc × rows`; with `carry`, `C +=`.
#[inline(always)]
fn tiles_tn_body(a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool) {
    tiles::<true>(a, b, c, dims, carry)
}

/// Covers a `rows × cols` block of C with [`MR`]` × `[`NR`] register tiles;
/// `TA` says A is stored transposed (`kc × rows`). The column strip is the
/// outer loop, so its `kc × NR` slice of B stays in L1 while the row tiles
/// pass over it.
#[inline(always)]
fn tiles<const TA: bool>(
    a: Block,
    b: Block,
    c: BlockMut,
    (rows, kc, cols): (usize, usize, usize),
    carry: bool,
) {
    for j in (0..cols).step_by(NR) {
        let w = NR.min(cols - j);
        let bt = Block {
            data: &b.data[j..],
            ..b
        };
        for i in (0..rows).step_by(MR) {
            let h = MR.min(rows - i);
            let at = Block {
                data: &a.data[if TA { i } else { i * a.ld }..],
                ..a
            };
            let ct = BlockMut {
                data: &mut c.data[i * c.ld + j..],
                ld: c.ld,
            };
            if h == MR && w == NR {
                tile::<TA, true>(at, bt, ct, (MR, kc, NR), carry);
            } else {
                tile::<TA, false>(at, bt, ct, (h, kc, w), carry);
            }
        }
    }
}

/// One register tile: `h × w` outputs (`FULL` promises `MR × NR`, which
/// makes every copy a fixed-size load or store) that start from `+0.0` — or,
/// with `carry`, from C — are carried through the whole `kc` range in `acc`,
/// and stored once. Output `(r, j)` sees `acc = acc + a(r, p)·b(p, j)` for
/// `p = 0, 1, …` and nothing else; the rows beyond `h` and columns beyond
/// `w` compute on zeros and are never stored, so the arithmetic loop has
/// constant bounds for every tile.
#[inline(always)]
fn tile<const TA: bool, const FULL: bool>(
    a: Block,
    b: Block,
    c: BlockMut,
    (h, kc, w): (usize, usize, usize),
    carry: bool,
) {
    let (h, w) = if FULL { (MR, NR) } else { (h, w) };
    let mut acc = [[0.0f32; NR]; MR];
    if carry {
        for (r, accr) in acc.iter_mut().enumerate().take(h) {
            accr[..w].copy_from_slice(&c.data[r * c.ld..r * c.ld + w]);
        }
    }
    // Untransposed A: the tile's rows as `kc`-long slices, so the loop below
    // indexes them without a bounds check (unused when `TA`).
    let arows: [&[f32]; MR] = std::array::from_fn(|r| {
        if !TA && r < h {
            &a.data[r * a.ld..r * a.ld + kc]
        } else {
            &[][..]
        }
    });
    for p in 0..kc {
        let mut bv = [0.0f32; NR];
        bv[..w].copy_from_slice(&b.data[p * b.ld..p * b.ld + w]);
        let mut av = [0.0f32; MR];
        if TA {
            av[..h].copy_from_slice(&a.data[p * a.ld..p * a.ld + h]);
        } else {
            for (x, arow) in av.iter_mut().zip(&arows).take(h) {
                *x = arow[p];
            }
        }
        for (accr, &x) in acc.iter_mut().zip(&av) {
            for (cv, &y) in accr.iter_mut().zip(&bv) {
                *cv += x * y;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(h) {
        c.data[r * c.ld..r * c.ld + w].copy_from_slice(&accr[..w]);
    }
}

/// The AVX-512 register tiles: [`MR`]` × `[`NR16`], eight 16-lane
/// accumulators, as intrinsics (LLVM spills a portable tile of this shape).
/// Each output sees exactly [`tile`]'s `acc = acc + a(r, p)·b(p, j)` for
/// `p = 0, 1, …` from `+0.0` or C. A ragged strip masks its loads and
/// stores to the columns that exist (masked-off lanes are neither read nor
/// written) and runs one 16-lane register per row when 16 columns are
/// enough; a ragged row block runs fewer rows.
macro_rules! tile_bodies {
    ($features:literal, $V:ty) => {
        /// [`tiles_nn_body`].
        #[target_feature(enable = $features)]
        pub(super) unsafe fn tiles_nn(
            a: Block,
            b: Block,
            c: BlockMut,
            dims: (usize, usize, usize),
            carry: bool,
        ) {
            tiles::<false>(a, b, c, dims, carry)
        }

        /// [`tiles_tn_body`].
        #[target_feature(enable = $features)]
        pub(super) unsafe fn tiles_tn(
            a: Block,
            b: Block,
            c: BlockMut,
            dims: (usize, usize, usize),
            carry: bool,
        ) {
            tiles::<true>(a, b, c, dims, carry)
        }

        /// [`super::tiles`] with [`NR16`]-column strips.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn tiles<const TA: bool>(
            a: Block,
            b: Block,
            c: BlockMut,
            (rows, kc, cols): (usize, usize, usize),
            carry: bool,
        ) {
            if rows == 0 || cols == 0 {
                return;
            }
            // Every read and write below stays inside its view: the last
            // row's last column of C, of B, and A's last element.
            let a_end = if TA {
                kc.saturating_sub(1) * a.ld + rows
            } else {
                (rows - 1) * a.ld + kc
            };
            assert!(kc == 0 || a_end <= a.data.len());
            assert!(kc == 0 || (kc - 1) * b.ld + cols <= b.data.len());
            assert!((rows - 1) * c.ld + cols <= c.data.len());
            let t = Tile {
                lda: a.ld,
                ldb: b.ld,
                ldc: c.ld,
                kc,
                carry,
            };
            for j in (0..cols).step_by(NR16) {
                let w = NR16.min(cols - j);
                let m = [lanes(w), lanes(w.saturating_sub(16))];
                for i in (0..rows).step_by(MR) {
                    let ap = a.data.as_ptr().add(if TA { i } else { i * a.ld });
                    let bp = b.data.as_ptr().add(j);
                    let cp = c.data.as_mut_ptr().add(i * c.ld + j);
                    match (MR.min(rows - i), w > 16) {
                        (4, true) => tile::<TA, 4, 2>(ap, bp, cp, t, m),
                        (4, false) => tile::<TA, 4, 1>(ap, bp, cp, t, m),
                        (3, true) => tile::<TA, 3, 2>(ap, bp, cp, t, m),
                        (3, false) => tile::<TA, 3, 1>(ap, bp, cp, t, m),
                        (2, true) => tile::<TA, 2, 2>(ap, bp, cp, t, m),
                        (2, false) => tile::<TA, 2, 1>(ap, bp, cp, t, m),
                        (_, true) => tile::<TA, 1, 2>(ap, bp, cp, t, m),
                        (_, false) => tile::<TA, 1, 1>(ap, bp, cp, t, m),
                    }
                }
            }
        }

        /// `H` rows × `Q` 16-lane registers of outputs, the columns of
        /// register `q` those of mask `m[q]`.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn tile<const TA: bool, const H: usize, const Q: usize>(
            a: *const f32,
            b: *const f32,
            c: *mut f32,
            t: Tile,
            m: [__mmask16; 2],
        ) {
            let mut acc = [[_mm512_setzero_ps(); Q]; H];
            if t.carry {
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (q, v) in accr.iter_mut().enumerate() {
                        *v = _mm512_maskz_loadu_ps(m[q], c.add(r * t.ldc + 16 * q));
                    }
                }
            }
            for p in 0..t.kc {
                let mut bv = [_mm512_setzero_ps(); Q];
                for (q, v) in bv.iter_mut().enumerate() {
                    *v = _mm512_maskz_loadu_ps(m[q], b.add(p * t.ldb + 16 * q));
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = *a.add(if TA { p * t.lda + r } else { r * t.lda + p });
                    let av = _mm512_set1_ps(x);
                    for (v, &y) in accr.iter_mut().zip(&bv) {
                        *v = _mm512_add_ps(*v, _mm512_mul_ps(av, y));
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                for (q, &v) in accr.iter().enumerate() {
                    _mm512_mask_storeu_ps(c.add(r * t.ldc + 16 * q), m[q], v);
                }
            }
        }

        /// [`transb_block_plain`], as a 16-lane dot tile: each `__m512`
        /// holds two outputs' canonical 8-lane accumulator sets, rows `2p`
        /// and `2p + 1` of one column, in its low and high halves. Per
        /// chunk of eight, a row pair's chunks are loaded side by side and
        /// each B row's chunk is broadcast to both halves; each half then
        /// sees `dot`'s multiplies and adds for its own output, and the
        /// sets are summed in `dot`'s tree, the ragged `k` tail
        /// sequentially after. A tile is up to [`MR`] rows × eight B rows.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn transb_block(
            a: &[f32],
            b: &[f32],
            (rows, k, n): (usize, usize, usize),
            out: &mut [f32],
        ) {
            assert!(a.len() == rows * k && b.len() == n * k && out.len() == rows * n);
            let t = Pairs {
                k,
                n,
                chunks: k / LANES,
            };
            for i in (0..rows).step_by(MR) {
                let mut j = 0;
                while j < n {
                    let w = [8, 4, 2, 1].into_iter().find(|&w| w <= n - j).unwrap_or(1);
                    let ap = a.as_ptr().add(i * k);
                    let bp = b.as_ptr().add(j * k);
                    let op = out.as_mut_ptr().add(i * n + j);
                    match (MR.min(rows - i), w) {
                        (4, 8) => dot_tile::<4, 8>(ap, bp, op, t),
                        (4, 4) => dot_tile::<4, 4>(ap, bp, op, t),
                        (4, 2) => dot_tile::<4, 2>(ap, bp, op, t),
                        (4, _) => dot_tile::<4, 1>(ap, bp, op, t),
                        (3, 8) => dot_tile::<3, 8>(ap, bp, op, t),
                        (3, 4) => dot_tile::<3, 4>(ap, bp, op, t),
                        (3, 2) => dot_tile::<3, 2>(ap, bp, op, t),
                        (3, _) => dot_tile::<3, 1>(ap, bp, op, t),
                        (2, 8) => dot_tile::<2, 8>(ap, bp, op, t),
                        (2, 4) => dot_tile::<2, 4>(ap, bp, op, t),
                        (2, 2) => dot_tile::<2, 2>(ap, bp, op, t),
                        (2, _) => dot_tile::<2, 1>(ap, bp, op, t),
                        (_, 8) => dot_tile::<1, 8>(ap, bp, op, t),
                        (_, 4) => dot_tile::<1, 4>(ap, bp, op, t),
                        (_, 2) => dot_tile::<1, 2>(ap, bp, op, t),
                        (_, _) => dot_tile::<1, 1>(ap, bp, op, t),
                    }
                    j += w;
                }
            }
        }

        /// `H ≤ 4` rows of A (`a`, rows `k` apart) against `W` rows of B
        /// (`b`), into `out` (rows `n` apart). An odd last row pairs with
        /// zeros, whose half is never stored.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn dot_tile<const H: usize, const W: usize>(
            a: *const f32,
            b: *const f32,
            out: *mut f32,
            t: Pairs,
        ) {
            let pairs = H.div_ceil(2);
            let mut acc = [[_mm512_setzero_ps(); W]; 2];
            for ch in 0..t.chunks {
                let mut av = [_mm512_setzero_ps(); 2];
                for (p, v) in av.iter_mut().enumerate().take(pairs) {
                    let lo = _mm256_loadu_ps(a.add(2 * p * t.k + ch * LANES));
                    *v = if 2 * p + 1 < H {
                        let hi = _mm256_loadu_ps(a.add((2 * p + 1) * t.k + ch * LANES));
                        _mm512_insertf32x8::<1>(_mm512_castps256_ps512(lo), hi)
                    } else {
                        _mm512_zextps256_ps512(lo)
                    };
                }
                for jj in 0..W {
                    let bv = _mm512_broadcast_f32x8(_mm256_loadu_ps(b.add(jj * t.k + ch * LANES)));
                    for (accp, &x) in acc.iter_mut().zip(&av).take(pairs) {
                        accp[jj] = _mm512_add_ps(accp[jj], _mm512_mul_ps(x, bv));
                    }
                }
            }
            for (p, accp) in acc.iter().enumerate().take(pairs) {
                for jj in (0..W).step_by(2) {
                    let next = if jj + 1 < W {
                        accp[jj + 1]
                    } else {
                        _mm512_setzero_ps()
                    };
                    // [(2p, jj), (2p + 1, jj), (2p, jj + 1), (2p + 1, jj + 1)].
                    let mut s = [0.0f32; 4];
                    _mm_storeu_ps(s.as_mut_ptr(), hsum_pairs(accp[jj], next));
                    for (q, sq) in s.iter_mut().enumerate() {
                        let (r, c) = (2 * p + q % 2, jj + q / 2);
                        if r < H && c < W {
                            for i in t.chunks * LANES..t.k {
                                *sq += *a.add(r * t.k + i) * *b.add(c * t.k + i);
                            }
                            *out.add(r * t.n + c) = *sq;
                        }
                    }
                }
            }
        }

        /// The four outputs' sums of two registers of 8-lane sets (`lo`
        /// holding outputs 0 and 1, `hi` 2 and 3), each in `dot`'s tree
        /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the four sharing each
        /// instruction: first `x = [l0+l4, l1+l5, l2+l6, l3+l7]` per output
        /// (one 128-bit block each), then `(x0+x2)+(x1+x3)` in lane 0 of
        /// each block, then lanes 0, 4, 8 and 12 gathered.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn hsum_pairs(lo: __m512, hi: __m512) -> __m128 {
            // Blocks [out0 l0..3, out1 l0..3, out2 l0..3, out3 l0..3] + the
            // same of l4..7.
            let x = _mm512_add_ps(
                _mm512_shuffle_f32x4::<0b10_00_10_00>(lo, hi),
                _mm512_shuffle_f32x4::<0b11_01_11_01>(lo, hi),
            );
            // Lane 0 of a block: x0 + x2; lane 1: x1 + x3.
            let t = _mm512_add_ps(x, _mm512_shuffle_ps::<0b01_00_11_10>(x, x));
            // Lane 0 of a block: (x0 + x2) + (x1 + x3).
            let u = _mm512_add_ps(t, _mm512_shuffle_ps::<0b10_11_00_01>(t, t));
            let at = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
            _mm512_castps512_ps128(_mm512_permutexvar_ps(at, u))
        }
    };
}

/// The shape an AVX-512 `transb` tile needs: `k`, `n`, and the full 8-lane
/// chunks of `k`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Pairs {
    k: usize,
    n: usize,
    chunks: usize,
}

/// The scalars an AVX-512 tile needs besides its three pointers.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Tile {
    lda: usize,
    ldb: usize,
    ldc: usize,
    kc: usize,
    carry: bool,
}

/// A 16-lane mask of the first `min(n, 16)` lanes.
#[cfg(target_arch = "x86_64")]
fn lanes(n: usize) -> u16 {
    ((1u32 << n.min(16)) - 1) as u16
}

stamp_tiers!(mod avx512 { tile_bodies });

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = s;
            }
        }
        out
    }

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|v| (v as f32) * 0.1 - 1.0).collect(), dims)
    }

    /// `f`'s output written into a fresh buffer.
    fn fresh(f: impl FnOnce(&mut Tensor)) -> Tensor {
        let mut out = Tensor::scratch();
        f(&mut out);
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = seq(&[3, 5]);
        let b = seq(&[5, 4]);
        assert_close(&fresh(|c| a.matmul_into(&b, c)), &naive_matmul(&a, &b));
    }

    #[test]
    fn blocked_path_matches_naive_on_ragged_dims() {
        // Large enough to take the packed path, with m, k, n that are not
        // multiples of MC/KC/NC.
        let mk = |dims: &[usize]| {
            let n: usize = dims.iter().product();
            Tensor::from_vec(
                (0..n)
                    .map(|v| ((v * 2654435761) % 97) as f32 * 0.021 - 1.0)
                    .collect(),
                dims,
            )
        };
        let a = mk(&[67, 261]);
        let b = mk(&[261, 259]);
        let fast = fresh(|c| a.matmul_into(&b, c));
        let reference = naive_matmul(&a, &b);
        assert_eq!(fast.dims(), reference.dims());
        for (x, y) in fast.data().iter().zip(reference.data()) {
            let tol = 1e-3 * y.abs().max(1.0);
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = seq(&[4, 4]);
        let mut eye = Tensor::zeros(&[4, 4]);
        (0..4).for_each(|i| *eye.at_mut(&[i, i]) = 1.0);
        assert_close(&fresh(|c| a.matmul_into(&eye, c)), &a);
        assert_close(&fresh(|c| eye.matmul_into(&a, c)), &a);
    }

    #[test]
    fn transb_equals_explicit_transpose() {
        let a = seq(&[3, 5]);
        let b = seq(&[4, 5]);
        let bt = b.transpose();
        assert_close(
            &fresh(|c| a.matmul_transb_into(&b, c)),
            &fresh(|c| a.matmul_into(&bt, c)),
        );
    }

    #[test]
    fn transa_equals_explicit_transpose() {
        let a = seq(&[5, 3]);
        let b = seq(&[5, 4]);
        let at = a.transpose();
        assert_close(
            &fresh(|c| a.matmul_transa_into(&b, c)),
            &fresh(|c| at.matmul_into(&b, c)),
        );
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernels skipped a == 0.0 entries, silently dropping the
        // IEEE-mandated 0 · NaN = NaN. Pinned here for all product kernels.
        let a = Tensor::zeros(&[2, 2]);
        let mut b = seq(&[2, 2]);
        b.data_mut()[1] = f32::NAN;
        let nan = |t: Tensor| t.data().iter().any(|v| v.is_nan());
        assert!(nan(fresh(|c| a.matmul_into(&b, c))));
        assert!(nan(fresh(|c| a.matmul_transa_into(&b, c))));
        assert!(nan(fresh(|c| a.matmul_transb_into(&b, c))));
    }

    #[test]
    fn results_are_bit_identical_across_thread_budgets() {
        let a = seq(&[70, 130]);
        let b = seq(&[130, 66]);
        let before = crate::threads::thread_budget();
        crate::threads::set_thread_budget(1);
        let bt = b.transpose();
        let serial = fresh(|c| a.matmul_into(&b, c));
        let serial_tb = fresh(|c| a.matmul_transb_into(&bt, c));
        crate::threads::set_thread_budget(4);
        let parallel = fresh(|c| a.matmul_into(&b, c));
        let parallel_tb = fresh(|c| a.matmul_transb_into(&bt, c));
        crate::threads::set_thread_budget(before);
        assert_eq!(serial.data(), parallel.data(), "gemm depends on budget");
        assert_eq!(
            serial_tb.data(),
            parallel_tb.data(),
            "transb depends on budget"
        );
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_checks_inner_dims() {
        seq(&[2, 3]).matmul_into(&seq(&[4, 2]), &mut Tensor::scratch());
    }
}
