//! Matrix products, including the transposed variants needed for backprop.
//!
//! All four products run on the shared worker pool (see [`crate::threads`]):
//! the task grid depends only on the operand shapes and every task owns a
//! disjoint block of output rows, so results are bit-identical at any thread
//! count. Per output element the reduction over the shared dimension follows
//! one fixed order on both dispatch paths — ascending `k`, a separate
//! multiply and add per term, starting from `+0.0`, for `matmul` /
//! `matmul_transa`; the 8-lane strided order of [`crate::simd::dot_slices`]
//! for `matmul_transb` / `matvec`.
//!
//! The three matrix-matrix products are register tiles: a small block of C
//! (`MR × NR` for `matmul` / `matmul_transa`, `2 × 4` dot products for
//! `matmul_transb`) stays in registers for the whole `k` range, so each
//! loaded A and B value meets several outputs and C is read and written once.
//! A tile only decides *which outputs share a register*; the operation
//! sequence of each output is the one above. Cache blocking and packing, for
//! large shapes, only reorder memory traffic.
//!
//! There is deliberately no `a == 0.0` fast path: `0 · NaN` must stay `NaN`
//! (IEEE semantics the old kernels silently broke), and on the dense
//! matrices of this workload the branch only cost time.

use crate::simd::{lane_kernel, LANES};
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

/// Row-block height for the non-packed kernels (`transa`/`transb`/`matvec`).
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
    /// `self (m×k) × other (k×n) → (m×n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::scratch();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`matmul`](Tensor::matmul) writing into a caller-provided buffer
    /// (resized as needed; every element overwritten, so stale contents
    /// never leak and the result is bit-identical to the allocating version).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = mat_dims(self);
        let (k2, n) = mat_dims(other);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        out.resize(&[m, n]);
        gemm(self.data(), other.data(), out.data_mut(), m, k, n);
    }

    /// `self (m×k) × otherᵀ (n×k) → (m×n)`; avoids materializing a transpose.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::scratch();
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// [`matmul_transb`](Tensor::matmul_transb) writing into a caller-provided
    /// buffer. Every output element is overwritten, so stale contents never
    /// leak and the arithmetic is identical to the allocating version.
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
            let arow = |i: usize| &a[(blk * rb + i) * k..(blk * rb + i + 1) * k];
            let mut opairs = ochunk.chunks_exact_mut(2 * n);
            for (i, opair) in (&mut opairs).enumerate() {
                transb_rows([arow(2 * i), arow(2 * i + 1)], b, opair);
            }
            let olast = opairs.into_remainder();
            if !olast.is_empty() {
                transb_rows([arow(rows - 1)], b, olast);
            }
        });
    }

    /// `selfᵀ (k×m viewed as m-major) × other (k×n) → (m×n)` where
    /// `self` is stored as (k×m). Used for weight gradients `Xᵀ·dY`.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::scratch();
        self.matmul_transa_into(other, &mut out);
        out
    }

    /// [`matmul_transa`](Tensor::matmul_transa) writing into a
    /// caller-provided buffer (every element overwritten).
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

    /// Matrix-vector product: `self (m×n) × v (n) → (m)`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        let mut out = Tensor::scratch();
        self.matvec_into(v, &mut out);
        out
    }

    /// [`matvec`](Tensor::matvec) writing into a caller-provided buffer
    /// (every element overwritten).
    pub fn matvec_into(&self, v: &Tensor, out: &mut Tensor) {
        let (m, n) = mat_dims(self);
        assert_eq!(v.numel(), n, "matvec length mismatch");
        out.resize(&[m]);
        let a = self.data();
        let x = v.data();
        let rb = row_block(m, m * n);
        crate::threads::parallel_for_chunks(out.data_mut(), rb, |blk, ochunk| {
            let i0 = blk * rb;
            for (i, ov) in ochunk.iter_mut().enumerate() {
                *ov = crate::simd::dot_slices(&a[(i0 + i) * n..(i0 + i + 1) * n], x);
            }
        });
    }
}

#[inline]
fn mat_dims(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.ndim(), 2, "expected a matrix, got shape {}", t.shape());
    (t.dims()[0], t.dims()[1])
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

lane_kernel!(tiles_nn => tiles_nn_body(
    a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool,
));
lane_kernel!(tiles_tn => tiles_tn_body(
    a: Block, b: Block, c: BlockMut, dims: (usize, usize, usize), carry: bool,
));

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
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
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
        let fast = a.matmul(&b);
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
        assert_close(&a.matmul(&Tensor::eye(4)), &a);
        assert_close(&Tensor::eye(4).matmul(&a), &a);
    }

    #[test]
    fn transb_equals_explicit_transpose() {
        let a = seq(&[3, 5]);
        let b = seq(&[4, 5]);
        assert_close(&a.matmul_transb(&b), &a.matmul(&b.transpose()));
    }

    #[test]
    fn transa_equals_explicit_transpose() {
        let a = seq(&[5, 3]);
        let b = seq(&[5, 4]);
        assert_close(&a.matmul_transa(&b), &a.transpose().matmul(&b));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = seq(&[3, 5]);
        let v = seq(&[5]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshape(&[5, 1]));
        assert_close(&mv.reshape(&[3, 1]), &mm);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernels skipped a == 0.0 entries, silently dropping the
        // IEEE-mandated 0 · NaN = NaN. Pinned here for all product kernels.
        let a = Tensor::zeros(&[2, 2]);
        let mut b = seq(&[2, 2]);
        b.data_mut()[1] = f32::NAN;
        assert!(a.matmul(&b).data().iter().any(|v| v.is_nan()));
        assert!(a.matmul_transa(&b).data().iter().any(|v| v.is_nan()));
        assert!(a.matmul_transb(&b).data().iter().any(|v| v.is_nan()));
        let mut v = seq(&[2]);
        v.data_mut()[0] = f32::NAN;
        assert!(a.matvec(&v).data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn results_are_bit_identical_across_thread_budgets() {
        let a = seq(&[70, 130]);
        let b = seq(&[130, 66]);
        let before = crate::threads::thread_budget();
        crate::threads::set_thread_budget(1);
        let serial = a.matmul(&b);
        let serial_tb = a.matmul_transb(&b.transpose());
        crate::threads::set_thread_budget(4);
        let parallel = a.matmul(&b);
        let parallel_tb = a.matmul_transb(&b.transpose());
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
        seq(&[2, 3]).matmul(&seq(&[4, 2]));
    }
}
