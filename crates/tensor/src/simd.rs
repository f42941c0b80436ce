//! 8-lane `f32` SIMD kernels with runtime dispatch and a bit-exact scalar
//! fallback.
//!
//! ## Determinism contract
//!
//! The **lane-strided accumulation order is the canonical semantics** of
//! every kernel here, for both dispatch paths:
//!
//! - Reductions (`dot`, `sq_dist`, `sum`) keep [`LANES`] independent
//!   accumulators, lane `l` summing elements `l, l+8, l+16, …` of the full
//!   8-element chunks; the accumulators are then combined in the fixed tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` (the order an AVX2 horizontal
//!   add produces), and the ragged tail is folded in sequentially.
//! - Element-wise kernels (`axpy`, `scale_add`, `exp`, `tanh`, `sigmoid`,
//!   `relu`, the LSTM gate-gradient pass) perform the identical scalar
//!   operation sequence per element — separate multiply and add, **never a fused multiply-add** (FMA contracts
//!   the intermediate rounding and would break bit-identity with the scalar
//!   path; the `avx2` target feature deliberately does not enable `fma`).
//! - Register tiles (the matrix products in `matmul.rs`, [`dot_tile_slices`])
//!   keep a small block of outputs in registers while the shared dimension
//!   streams past, so one loaded operand meets several outputs. A tile only
//!   chooses *which outputs share a register*: each output still sees its own
//!   operation sequence — for the axpy-order products `acc = acc + a·b` in
//!   ascending `k` from `+0.0`, for the dot-order product the 8-lane strided
//!   chunks, the fixed tree and the sequential tail of `dot` — so the tile
//!   shape is invisible in the result.
//! - The fused LSTM cell ([`lstm_cell_forward_slices`]) runs one timestep's
//!   element-wise chain per element in registers instead of one pass over
//!   memory per operation; each value goes through the same `exp` polynomial,
//!   divisions, multiplies and adds, in the same order, as the separate
//!   `add_assign` / `sigmoid` / `tanh` passes.
//! - Channel-lane kernels (the convolutions in `conv.rs`, max-pooling in
//!   `pool.rs`) put eight **independent output scalars** in the lanes —
//!   never a reduction — so each output replays its scalar operation
//!   sequence unchanged and the lane count is invisible in the result.
//!   Where plain Rust over `[f32; LANES]` blocks vectorizes as written,
//!   `lane_kernel!` compiles that one body twice: under
//!   `#[target_feature(enable = "avx2")]` for the dispatched path and plainly
//!   for the fallback (Rust never contracts or reassociates float
//!   arithmetic, so both builds round identically). Where LLVM will not keep
//!   a register tile in registers from portable code, `avx2_kernel!` pairs
//!   the plain body with an intrinsics transcription of it that performs the
//!   same operations on every output scalar.
//! - The transcendental kernels use a shared Cephes-style polynomial
//!   ([`scalar::exp_core`]) instead of libm, so the vector path can replay
//!   it exactly: same range clamp, same round-to-nearest-even via the
//!   `1.5·2²³` magic constant, same Cody–Waite reduction, same Horner steps.
//!
//! The scalar module below *is* that canonical algorithm; the AVX2 module is
//! an 8-wide transcription of it, instruction for instruction. Consequently
//! `RFL_SIMD=0` and `RFL_SIMD=1` produce bit-identical results at any thread
//! count, which CI gates the same way as the `RFL_THREADS` contract.
//!
//! ## Dispatch
//!
//! The backend is selected once per process via [`OnceLock`]: AVX2 when the
//! CPU supports it (runtime `is_x86_feature_detected!`), scalar otherwise.
//! `RFL_SIMD=0` forces the scalar path; `RFL_SIMD=1` requests SIMD (a no-op
//! without AVX2 — the scalar path is the same function either way).
//! [`set_simd_enabled`] flips the choice programmatically for benchmarks and
//! equivalence tests; results never depend on it — only wall-clock does.
//!
//! ## Saturation semantics of the polynomial `exp`
//!
//! Inputs are clamped to `[-87.33, 88.02]` (chosen so the `2ⁿ` exponent-bit
//! scaling stays in the normal range): `exp` of anything above saturates at
//! ≈ 2.4·10³⁸ instead of `+inf`, anything below at ≈ 1.2·10⁻³⁸ instead of a
//! subnormal/zero, and a NaN input clamps like an ordinary large value
//! (MINPS/MAXPS semantics). `tanh` additionally clamps its input to ±9.0,
//! where the f32 result is already saturated at ±1.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Vector width of the kernel set: 8 × f32 = one AVX2 `__m256` register.
pub const LANES: usize = 8;

static SIMD_ENABLED: OnceLock<AtomicBool> = OnceLock::new();

#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn simd_cell() -> &'static AtomicBool {
    SIMD_ENABLED.get_or_init(|| {
        let raw = std::env::var_os("RFL_SIMD").map(|v| v.to_string_lossy().into_owned());
        let requested = parse_simd(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        AtomicBool::new(requested && avx2_available())
    })
}

/// Parses `RFL_SIMD`: unset or `1` asks for SIMD when the CPU has it, `0`
/// for the scalar kernels. Anything else is an error — a typo must not
/// silently run the default configuration.
fn parse_simd(raw: Option<&str>) -> Result<bool, String> {
    match raw.map(str::trim) {
        None | Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(other) => Err(format!(
            "RFL_SIMD={other:?} is not valid: expected 0 (scalar kernels) or \
             1 (AVX2 when available), or unset for 1"
        )),
    }
}

/// Whether kernels currently dispatch to the AVX2 path.
#[inline]
pub fn simd_enabled() -> bool {
    simd_cell().load(Ordering::Relaxed)
}

/// Overrides the dispatch choice (ignored when the CPU lacks AVX2). Results
/// never depend on this — both paths share the canonical semantics — so this
/// only exists for benchmarks and equivalence tests.
pub fn set_simd_enabled(on: bool) {
    simd_cell().store(on && avx2_available(), Ordering::Relaxed);
}

/// Human-readable backend name for reports: `"avx2"` or `"scalar"`.
pub fn simd_backend() -> &'static str {
    if simd_enabled() {
        "avx2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Dispatch wrappers — the public kernel set.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if simd_enabled() {
            // SAFETY: `simd_enabled()` is only true after a runtime AVX2 check.
            return unsafe { avx2::$name($($arg),*) };
        }
        scalar::$name($($arg),*)
    }};
}

/// Defines `fn $name(args)` that runs the `#[inline(always)]` function
/// `$body` compiled under `#[target_feature(enable = "avx2")]` when SIMD
/// dispatch is on and compiled plainly otherwise. `$body` must be portable
/// Rust (no intrinsics): the two builds then differ in instruction
/// selection only, never in the arithmetic they perform. `fma` is not
/// enabled, for the reason given in the module docs.
macro_rules! lane_kernel {
    ($name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        #[inline]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn wide($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if $crate::simd::simd_enabled() {
                    // SAFETY: `simd_enabled()` is only true after a runtime
                    // AVX2 check.
                    return unsafe { wide($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use lane_kernel;

/// Defines `fn $name(args)` that runs the AVX2 intrinsics function `$wide`
/// when SIMD dispatch is on and the plain Rust function `$body` otherwise:
/// for the kernels whose register tile LLVM will not keep in registers from
/// portable code. `$wide` must be a transcription of `$body`, bit for bit
/// (the same multiplies, adds and masks on every output scalar, in the same
/// order).
macro_rules! avx2_kernel {
    ($name:ident => $wide:path | $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        #[inline]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if $crate::simd::simd_enabled() {
                // SAFETY: `simd_enabled()` is only true after a runtime
                // AVX2 check.
                return unsafe { $wide($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use avx2_kernel;

/// Dot product of two equal-length slices (canonical 8-lane stride).
#[inline]
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(dot(a, b))
}

/// An `R × 4` tile of dot products, `out[r][j] = a[r]·b[j]`, each
/// bit-identical to [`dot_slices`] of the same pair. The register tile of
/// `matmul_transb`: every loaded chunk of an A row meets four B rows and
/// every chunk of a B row meets `R` A rows, and the four lane accumulators of
/// a row are summed together in the canonical tree order.
///
/// # Panics
/// Panics unless all `R + 4` slices have one length.
#[inline]
pub fn dot_tile_slices<const R: usize>(a: [&[f32]; R], b: [&[f32]; 4]) -> [[f32; 4]; R] {
    let k = b[0].len();
    assert!(
        a.iter().chain(&b).all(|v| v.len() == k),
        "dot_tile: operand lengths differ"
    );
    dispatch!(dot_tile(a, b))
}

/// `y += a * x` over raw slices (element-wise; both paths round identically).
#[inline]
pub fn axpy_slices(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(axpy(y, a, x))
}

/// Squared Euclidean distance between two equal-length slices (canonical
/// 8-lane stride).
#[inline]
pub fn sq_dist_slices(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(sq_dist(a, b))
}

/// Sum of a slice (canonical 8-lane stride).
#[inline]
pub fn sum_slices(a: &[f32]) -> f32 {
    dispatch!(sum(a))
}

/// `y += x` element-wise.
#[inline]
pub fn add_assign_slices(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(add_assign(y, x))
}

/// `out = a·x` element-wise into a separate destination. Each element rounds
/// exactly like the multiply half of [`axpy_slices`], so
/// `scale_into + add_assign` replays an axpy bit-for-bit in two passes — the
/// leaf-then-combine decomposition of the aggregation reduction tree.
#[inline]
pub fn scale_slices_into(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    dispatch!(scale_into(out, a, x))
}

/// `y *= a` element-wise.
#[inline]
pub fn scale_slices(y: &mut [f32], a: f32) {
    dispatch!(scale(y, a))
}

/// `y = a·y + b` element-wise (separate multiply and add, never FMA).
#[inline]
pub fn scale_add_slices(y: &mut [f32], a: f32, b: f32) {
    dispatch!(scale_add(y, a, b))
}

/// `xs[i] = exp(scale·xs[i] + bias)` via the canonical polynomial. The
/// `scale` operand hoists a constant multiply out of the caller's loop;
/// the `bias` operand folds in softmax's `−max` shift.
#[inline]
pub fn exp_slices(xs: &mut [f32], scale: f32, bias: f32) {
    dispatch!(exp(xs, scale, bias))
}

/// `xs[i] = tanh(xs[i])` via the canonical polynomial `exp`.
#[inline]
pub fn tanh_slices(xs: &mut [f32]) {
    dispatch!(tanh(xs))
}

/// `xs[i] = σ(xs[i]) = 1/(1+exp(−xs[i]))` via the canonical polynomial.
#[inline]
pub fn sigmoid_slices(xs: &mut [f32]) {
    dispatch!(sigmoid(xs))
}

/// One timestep of an LSTM's element-wise work for a batch of `N` examples
/// and `H` hidden units, in one pass. `gates` `[N, 4H]` holds `x·Wx` on
/// entry and the activated gates `i, f, g, o` on return; `zh` `[N, 4H]` is
/// `h·Wh`, `bias` `[4H]`; `c` `[N, H]` is the cell state, updated in place;
/// `tanh_c` and `h` `[N, H]` are overwritten. Per element:
/// `z = (gates + zh) + bias → σ, σ, tanh, σ → c = f·c + i·g → tanh c →
/// h = o·tanh c`, each value bit-identical to the `add_assign`,
/// [`sigmoid_slices`] / [`tanh_slices`] and multiply-add passes it fuses.
///
/// # Panics
/// Panics if the slice lengths do not describe one `(N, H)`.
pub fn lstm_cell_forward_slices(
    gates: &mut [f32],
    zh: &[f32],
    bias: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    let hd = bias.len() / 4;
    assert!(
        hd > 0
            && bias.len() == 4 * hd
            && c.len().is_multiple_of(hd)
            && gates.len() == 4 * c.len()
            && zh.len() == gates.len()
            && tanh_c.len() == c.len()
            && h.len() == c.len(),
        "lstm_cell_forward: inconsistent lengths"
    );
    dispatch!(lstm_cell_forward(gates, zh, bias, c, tanh_c, h))
}

/// What one timestep's [`lstm_cell_forward_slices`] call read and wrote that
/// its backward pass needs: the activated `gates` `[N, 4H]`, `tanh_c` and the
/// cell state it started from, `c_prev`, both `[N, H]`.
#[derive(Clone, Copy)]
pub struct LstmCellCache<'a> {
    pub gates: &'a [f32],
    pub tanh_c: &'a [f32],
    pub c_prev: &'a [f32],
}

/// The gate-gradient pass of one BPTT timestep: with `dh = dout + dh_next`
/// and `dc = dh·o·(1 − tanh²c) + dc_next`, writes the pre-activation
/// gradients `dz` `[N, 4H]` and `dc_prev = dc·f` `[N, H]`.
///
/// # Panics
/// Panics if the slice lengths do not describe one `(N, H)` with `hidden = H`.
pub fn lstm_cell_backward_slices(
    hidden: usize,
    cache: LstmCellCache,
    dout: &[f32],
    dh_next: &[f32],
    dc_next: &[f32],
    dz: &mut [f32],
    dc_prev: &mut [f32],
) {
    let len = cache.tanh_c.len();
    let same_len = [cache.c_prev, dout, dh_next, dc_next, dc_prev];
    assert!(
        hidden > 0
            && len.is_multiple_of(hidden)
            && cache.gates.len() == 4 * len
            && dz.len() == 4 * len
            && same_len.iter().all(|v| v.len() == len),
        "lstm_cell_backward: inconsistent lengths"
    );
    lstm_cell_backward(hidden, cache, dout, dh_next, dc_next, dz, dc_prev);
}

lane_kernel!(lstm_cell_backward => lstm_cell_backward_body(
    hidden: usize,
    cache: LstmCellCache,
    dout: &[f32],
    dh_next: &[f32],
    dc_next: &[f32],
    dz: &mut [f32],
    dc_prev: &mut [f32],
));

/// Plain Rust, compiled twice by [`lane_kernel!`]: every element is an
/// independent chain of multiplies and adds, which the compiler vectorizes
/// as written.
#[inline(always)]
fn lstm_cell_backward_body(
    hidden: usize,
    cache: LstmCellCache,
    dout: &[f32],
    dh_next: &[f32],
    dc_next: &[f32],
    dz: &mut [f32],
    dc_prev: &mut [f32],
) {
    for (r, (grow, dzrow)) in cache
        .gates
        .chunks_exact(4 * hidden)
        .zip(dz.chunks_exact_mut(4 * hidden))
        .enumerate()
    {
        let at = r * hidden..(r + 1) * hidden;
        let (tc, cp) = (&cache.tanh_c[at.clone()], &cache.c_prev[at.clone()]);
        let (dout, dhn) = (&dout[at.clone()], &dh_next[at.clone()]);
        let (dcn, dcp) = (&dc_next[at.clone()], &mut dc_prev[at]);
        let (ig, rest) = grow.split_at(hidden);
        let (fg, rest) = rest.split_at(hidden);
        let (gg, og) = rest.split_at(hidden);
        let (dzi, rest) = dzrow.split_at_mut(hidden);
        let (dzf, rest) = rest.split_at_mut(hidden);
        let (dzg, dzo) = rest.split_at_mut(hidden);
        for j in 0..hidden {
            let (i_g, f_g, g_g, o_g) = (ig[j], fg[j], gg[j], og[j]);
            let dh = dout[j] + dhn[j];
            let dc = dh * o_g * (1.0 - tc[j] * tc[j]) + dcn[j];
            let d_o = dh * tc[j];
            let d_i = dc * g_g;
            let d_f = dc * cp[j];
            let d_g = dc * i_g;
            dcp[j] = dc * f_g;
            dzi[j] = d_i * i_g * (1.0 - i_g);
            dzf[j] = d_f * f_g * (1.0 - f_g);
            dzg[j] = d_g * (1.0 - g_g * g_g);
            dzo[j] = d_o * o_g * (1.0 - o_g);
        }
    }
}

/// `xs[i] = max(xs[i], 0)` with MAXPS semantics (`x > 0 ? x : 0`; NaN ↦ 0).
#[inline]
pub fn relu_slices(xs: &mut [f32]) {
    dispatch!(relu(xs))
}

// ---------------------------------------------------------------------------
// Shared constants of the polynomial exp (Cephes expf coefficients).
// ---------------------------------------------------------------------------

/// Upper input clamp: `127·ln2` rounded down so `2ⁿ` never needs exponent 255.
const EXP_HI: f32 = 88.02;
/// Lower input clamp: `−126·ln2` rounded up so `2ⁿ` stays a normal number.
const EXP_LO: f32 = -87.33;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
/// `ln2` split for Cody–Waite reduction: `x − n·C1 − n·C2` is exact-ish.
/// All 9 digits are load-bearing: C1 is the exactly-representable hi part.
#[allow(clippy::excessive_precision)]
const EXP_C1: f32 = 0.693359375;
#[allow(clippy::excessive_precision)]
const EXP_C2: f32 = -2.12194440e-4;
#[allow(clippy::excessive_precision)]
const EXP_P0: f32 = 1.9875691500e-4;
#[allow(clippy::excessive_precision)]
const EXP_P1: f32 = 1.3981999507e-3;
#[allow(clippy::excessive_precision)]
const EXP_P2: f32 = 8.3334519073e-3;
#[allow(clippy::excessive_precision)]
const EXP_P3: f32 = 4.1665795894e-2;
#[allow(clippy::excessive_precision)]
const EXP_P4: f32 = 1.6666665459e-1;
#[allow(clippy::excessive_precision)]
const EXP_P5: f32 = 5.0000001201e-1;
/// `1.5·2²³`: adding and subtracting rounds to the nearest integer (ties to
/// even) in the default FP rounding mode — on both scalar and vector paths.
const ROUND_MAGIC: f32 = 12582912.0;
/// Beyond ±9 the f32 `tanh` is saturated at ±1; clamping keeps `exp(2x)`
/// finite so `(e−1)/(e+1)` never hits `inf/inf = NaN`.
const TANH_CLAMP: f32 = 9.0;

// ---------------------------------------------------------------------------
// Scalar canonical implementation (also the RFL_SIMD=0 fallback).
// ---------------------------------------------------------------------------

/// The canonical algorithm, written in scalar Rust. This module defines the
/// semantics; `avx2` below transcribes it 8-wide. Public so equivalence
/// tests and oracles can pin `dispatched ≡ scalar` bit-for-bit.
pub mod scalar {
    use super::*;

    /// The fixed reduction tree of the 8 lane accumulators — the order an
    /// AVX2 `extractf128 + movehl + shuffle` horizontal add produces.
    #[inline]
    fn hsum8(acc: &[f32; LANES]) -> f32 {
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut ac = a.chunks_exact(LANES);
        let mut bc = b.chunks_exact(LANES);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            for ((l, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                *l += x * y;
            }
        }
        let mut s = hsum8(&acc);
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            s += x * y;
        }
        s
    }

    pub fn dot_tile<const R: usize>(a: [&[f32]; R], b: [&[f32]; 4]) -> [[f32; 4]; R] {
        a.map(|ar| b.map(|bj| dot(ar, bj)))
    }

    /// [`LANES`] simultaneous dot products sharing `a`, against a
    /// lane-interleaved `b` (`b[i·LANES + l]` is element `i` of vector `l`):
    /// `out[l]` is bit-identical to [`dot`] of `a` with vector `l`. The
    /// lanes here are independent results, so the strided partial sums of
    /// each reduction become [`LANES`] blocks of their own.
    #[inline(always)]
    pub fn dot_lanes(a: &[f32], b: &[f32]) -> [f32; LANES] {
        debug_assert_eq!(a.len() * LANES, b.len());
        let full = a.len() / LANES * LANES;
        // part[j][l]: `dot`'s j-th strided accumulator for vector l.
        let mut part = [[0.0f32; LANES]; LANES];
        for (ca, cb) in a[..full]
            .chunks_exact(LANES)
            .zip(b.chunks_exact(LANES * LANES))
        {
            for ((p, &x), bv) in part.iter_mut().zip(ca).zip(cb.chunks_exact(LANES)) {
                for (pl, &y) in p.iter_mut().zip(bv) {
                    *pl += x * y;
                }
            }
        }
        let mut s: [f32; LANES] = std::array::from_fn(|l| hsum8(&part.map(|p| p[l])));
        for (&x, bv) in a[full..].iter().zip(b[full * LANES..].chunks_exact(LANES)) {
            for (sl, &y) in s.iter_mut().zip(bv) {
                *sl += x * y;
            }
        }
        s
    }

    pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += a * xv;
        }
    }

    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut ac = a.chunks_exact(LANES);
        let mut bc = b.chunks_exact(LANES);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            for ((l, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                let d = x - y;
                *l += d * d;
            }
        }
        let mut s = hsum8(&acc);
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            let d = x - y;
            s += d * d;
        }
        s
    }

    pub fn sum(a: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut ac = a.chunks_exact(LANES);
        for ca in &mut ac {
            for (l, &x) in acc.iter_mut().zip(ca) {
                *l += x;
            }
        }
        let mut s = hsum8(&acc);
        for &x in ac.remainder() {
            s += x;
        }
        s
    }

    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += xv;
        }
    }

    pub fn scale_into(out: &mut [f32], a: f32, x: &[f32]) {
        for (o, &xv) in out.iter_mut().zip(x) {
            *o = a * xv;
        }
    }

    pub fn scale(y: &mut [f32], a: f32) {
        for yv in y.iter_mut() {
            *yv *= a;
        }
    }

    pub fn scale_add(y: &mut [f32], a: f32, b: f32) {
        for yv in y.iter_mut() {
            *yv = a * *yv + b;
        }
    }

    /// Cephes-style polynomial `expf`: clamp, magic-constant rounding,
    /// two-step Cody–Waite reduction, degree-5 Horner polynomial, exponent
    /// bit scaling. Every step is a plain f32 multiply/add the vector path
    /// replays with MULPS/ADDPS.
    #[inline]
    pub fn exp_core(x: f32) -> f32 {
        // MINPS/MAXPS semantics: `a OP b ? a : b`, so a NaN input clamps.
        let x = if x < EXP_HI { x } else { EXP_HI };
        let x = if x > EXP_LO { x } else { EXP_LO };
        // n = round-to-nearest-even(x / ln2)
        let fx = (x * LOG2EF + ROUND_MAGIC) - ROUND_MAGIC;
        let r = x - fx * EXP_C1;
        let r = r - fx * EXP_C2;
        let z = r * r;
        let mut y = EXP_P0;
        y = y * r + EXP_P1;
        y = y * r + EXP_P2;
        y = y * r + EXP_P3;
        y = y * r + EXP_P4;
        y = y * r + EXP_P5;
        y = y * z + r;
        y += 1.0;
        // 2ⁿ via exponent bits; the clamps keep n in [-126, 127].
        let pow2 = f32::from_bits((((fx as i32) + 127) as u32) << 23);
        y * pow2
    }

    #[inline]
    pub fn tanh_core(x: f32) -> f32 {
        let x = if x < TANH_CLAMP { x } else { TANH_CLAMP };
        let x = if x > -TANH_CLAMP { x } else { -TANH_CLAMP };
        let e = exp_core(x * 2.0 + 0.0);
        (e - 1.0) / (e + 1.0)
    }

    #[inline]
    pub fn sigmoid_core(x: f32) -> f32 {
        let e = exp_core(-x);
        1.0 / (1.0 + e)
    }

    pub fn exp(xs: &mut [f32], scale: f32, bias: f32) {
        for v in xs.iter_mut() {
            *v = exp_core(*v * scale + bias);
        }
    }

    pub fn tanh(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = tanh_core(*v);
        }
    }

    pub fn sigmoid(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = sigmoid_core(*v);
        }
    }

    /// Hidden units `cols` of one example of the fused LSTM cell, as the
    /// passes it fuses, each over `cols` only: the four gate pre-activations
    /// `(gates + zh) + bias` activated in place (`σ, σ, tanh, σ` for
    /// `i, f, g, o` at `j, H+j, 2H+j, 3H+j`), then `c = f·c + i·g`,
    /// `tanh_c = tanh c`, `h = o·tanh_c`.
    #[inline]
    pub fn lstm_cell_forward_row(
        gates: &mut [f32],
        zh: &[f32],
        bias: &[f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
        cols: std::ops::Range<usize>,
    ) {
        let hd = bias.len() / 4;
        for gate in 0..4 {
            let at = gate * hd + cols.start..gate * hd + cols.end;
            let z = &mut gates[at.clone()];
            for ((zv, &hv), &bv) in z.iter_mut().zip(&zh[at.clone()]).zip(&bias[at]) {
                *zv = (*zv + hv) + bv;
            }
            if gate == 2 {
                tanh(z);
            } else {
                sigmoid(z);
            }
        }
        let (c, tanh_c, h) = (
            &mut c[cols.clone()],
            &mut tanh_c[cols.clone()],
            &mut h[cols.clone()],
        );
        let (ig, rest) = gates.split_at(hd);
        let (fg, rest) = rest.split_at(hd);
        let (gg, og) = rest.split_at(hd);
        let (ig, fg) = (&ig[cols.clone()], &fg[cols.clone()]);
        let (gg, og) = (&gg[cols.clone()], &og[cols]);
        for (((cv, &i_g), &f_g), &g_g) in c.iter_mut().zip(ig).zip(fg).zip(gg) {
            *cv = f_g * *cv + i_g * g_g;
        }
        tanh_c.copy_from_slice(c);
        tanh(tanh_c);
        for ((hv, &o_g), &tc) in h.iter_mut().zip(og).zip(tanh_c.iter()) {
            *hv = o_g * tc;
        }
    }

    /// The fused LSTM cell over a batch; see
    /// [`lstm_cell_forward_slices`].
    pub fn lstm_cell_forward(
        gates: &mut [f32],
        zh: &[f32],
        bias: &[f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let hd = bias.len() / 4;
        for ((grow, zrow), ((crow, tcrow), hrow)) in gates
            .chunks_exact_mut(4 * hd)
            .zip(zh.chunks_exact(4 * hd))
            .zip(
                c.chunks_exact_mut(hd)
                    .zip(tanh_c.chunks_exact_mut(hd))
                    .zip(h.chunks_exact_mut(hd)),
            )
        {
            lstm_cell_forward_row(grow, zrow, bias, crow, tcrow, hrow, 0..hd);
        }
    }

    pub fn relu(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            // MAXPS(x, 0) semantics: NaN and -0.0 both map to +0.0.
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 transcription.
// ---------------------------------------------------------------------------

/// 8-wide transcription of [`scalar`]. Every function is `unsafe` because it
/// requires AVX2; the dispatch wrappers only call in here after the runtime
/// feature check. `fma` is deliberately NOT enabled: contraction would break
/// bit-identity with the scalar path.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Horizontal sum in the canonical tree order
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s4 = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4)); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
        _mm_cvtss_f32(s1)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / LANES;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(ap.add(c * LANES));
            let vb = _mm256_loadu_ps(bp.add(c * LANES));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut s = hsum(acc);
        for i in chunks * LANES..n {
            s += a[i] * b[i];
        }
        s
    }

    /// [`hsum`] of four accumulators at once, `[hsum(v[0]), …, hsum(v[3])]`:
    /// the same three additions per accumulator, in the same tree, with the
    /// four results sharing each instruction.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum4(v: [__m256; 4]) -> __m128 {
        // s[j] = [l0+l4, l1+l5, l2+l6, l3+l7] of accumulator j.
        let mut s = [_mm_setzero_ps(); 4];
        for (sj, &x) in s.iter_mut().zip(&v) {
            *sj = _mm_add_ps(_mm256_castps256_ps128(x), _mm256_extractf128_ps(x, 1));
        }
        let [mut s0, mut s1, mut s2, mut s3] = s;
        // Now `si` holds sum `i` of every accumulator.
        _MM_TRANSPOSE4_PS(&mut s0, &mut s1, &mut s2, &mut s3);
        _mm_add_ps(_mm_add_ps(s0, s2), _mm_add_ps(s1, s3))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_tile<const R: usize>(a: [&[f32]; R], b: [&[f32]; 4]) -> [[f32; 4]; R] {
        let n = b[0].len();
        let chunks = n / LANES;
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        for c in 0..chunks {
            let o = c * LANES;
            let vb = [
                _mm256_loadu_ps(b[0].as_ptr().add(o)),
                _mm256_loadu_ps(b[1].as_ptr().add(o)),
                _mm256_loadu_ps(b[2].as_ptr().add(o)),
                _mm256_loadu_ps(b[3].as_ptr().add(o)),
            ];
            for (ar, accr) in a.iter().zip(acc.iter_mut()) {
                let va = _mm256_loadu_ps(ar.as_ptr().add(o));
                for (l, &x) in accr.iter_mut().zip(&vb) {
                    *l = _mm256_add_ps(*l, _mm256_mul_ps(va, x));
                }
            }
        }
        let mut out = [[0.0f32; 4]; R];
        for ((ar, accr), o) in a.iter().zip(acc).zip(out.iter_mut()) {
            _mm_storeu_ps(o.as_mut_ptr(), hsum4(accr));
            for i in chunks * LANES..n {
                for (s, bj) in o.iter_mut().zip(&b) {
                    *s += ar[i] * bj[i];
                }
            }
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        let n = y.len();
        let chunks = n / LANES;
        let va = _mm256_set1_ps(a);
        let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
        for c in 0..chunks {
            let vy = _mm256_loadu_ps(yp.add(c * LANES));
            let vx = _mm256_loadu_ps(xp.add(c * LANES));
            _mm256_storeu_ps(yp.add(c * LANES), _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
        }
        for i in chunks * LANES..n {
            y[i] += a * x[i];
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / LANES;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(ap.add(c * LANES)),
                _mm256_loadu_ps(bp.add(c * LANES)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut s = hsum(acc);
        for i in chunks * LANES..n {
            let d = a[i] - b[i];
            s += d * d;
        }
        s
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum(a: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / LANES;
        let ap = a.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(ap.add(c * LANES)));
        }
        let mut s = hsum(acc);
        for &x in &a[chunks * LANES..] {
            s += x;
        }
        s
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
        let n = y.len();
        let chunks = n / LANES;
        let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(
                yp.add(o),
                _mm256_add_ps(_mm256_loadu_ps(yp.add(o)), _mm256_loadu_ps(xp.add(o))),
            );
        }
        for i in chunks * LANES..n {
            y[i] += x[i];
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_into(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len();
        let chunks = n / LANES;
        let va = _mm256_set1_ps(a);
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(op.add(o), _mm256_mul_ps(va, _mm256_loadu_ps(xp.add(o))));
        }
        for i in chunks * LANES..n {
            out[i] = a * x[i];
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(y: &mut [f32], a: f32) {
        let n = y.len();
        let chunks = n / LANES;
        let va = _mm256_set1_ps(a);
        let yp = y.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(yp.add(o), _mm256_mul_ps(_mm256_loadu_ps(yp.add(o)), va));
        }
        for v in &mut y[chunks * LANES..] {
            *v *= a;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_add(y: &mut [f32], a: f32, b: f32) {
        let n = y.len();
        let chunks = n / LANES;
        let va = _mm256_set1_ps(a);
        let vb = _mm256_set1_ps(b);
        let yp = y.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(
                yp.add(o),
                _mm256_add_ps(_mm256_mul_ps(va, _mm256_loadu_ps(yp.add(o))), vb),
            );
        }
        for v in &mut y[chunks * LANES..] {
            *v = a * *v + b;
        }
    }

    /// 8-wide transcription of [`scalar::exp_core`], step for step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_v(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let fx = _mm256_sub_ps(
            _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)), magic),
            magic,
        );
        let r = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(EXP_C1)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(fx, _mm256_set1_ps(EXP_C2)));
        let z = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(EXP_P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P5));
        y = _mm256_add_ps(_mm256_mul_ps(y, z), r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // fx is integral: truncation matches the scalar `as i32` exactly.
        let n = _mm256_cvttps_epi32(fx);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn exp(xs: &mut [f32], scale: f32, bias: f32) {
        let n = xs.len();
        let chunks = n / LANES;
        let vs = _mm256_set1_ps(scale);
        let vb = _mm256_set1_ps(bias);
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            let t = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(p.add(o)), vs), vb);
            _mm256_storeu_ps(p.add(o), exp_v(t));
        }
        for v in &mut xs[chunks * LANES..] {
            *v = scalar::exp_core(*v * scale + bias);
        }
    }

    /// 8-wide transcription of [`scalar::tanh_core`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_v(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let x = _mm256_min_ps(x, _mm256_set1_ps(TANH_CLAMP));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-TANH_CLAMP));
        let e = exp_v(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(2.0)),
            _mm256_set1_ps(0.0),
        ));
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }

    /// 8-wide transcription of [`scalar::sigmoid_core`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sigmoid_v(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        // -x via sign-bit flip, exactly like the scalar negation.
        let e = exp_v(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh(xs: &mut [f32]) {
        let chunks = xs.len() / LANES;
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(p.add(o), tanh_v(_mm256_loadu_ps(p.add(o))));
        }
        for v in &mut xs[chunks * LANES..] {
            *v = scalar::tanh_core(*v);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sigmoid(xs: &mut [f32]) {
        let chunks = xs.len() / LANES;
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(p.add(o), sigmoid_v(_mm256_loadu_ps(p.add(o))));
        }
        for v in &mut xs[chunks * LANES..] {
            *v = scalar::sigmoid_core(*v);
        }
    }

    /// `(x[0..8] + y[0..8]) + z[0..8]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add3(x: *const f32, y: *const f32, z: *const f32) -> __m256 {
        _mm256_add_ps(
            _mm256_add_ps(_mm256_loadu_ps(x), _mm256_loadu_ps(y)),
            _mm256_loadu_ps(z),
        )
    }

    /// 8-wide transcription of [`scalar::lstm_cell_forward`]: eight hidden
    /// units of one example per iteration, the ragged end of each row
    /// through [`scalar::lstm_cell_forward_row`]. Intrinsics rather than a
    /// `lane_kernel!` body because the compiler does not vectorize the
    /// fused chain as plain Rust (the saturating `as i32` and the divisions
    /// in `exp_core` / `sigmoid_core`): that build ran the LSTM forward
    /// slower than the unfused passes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lstm_cell_forward(
        gates: &mut [f32],
        zh: &[f32],
        bias: &[f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let hd = bias.len() / 4;
        let full = hd / LANES * LANES;
        let bp = bias.as_ptr();
        for ((grow, zrow), ((crow, tcrow), hrow)) in gates
            .chunks_exact_mut(4 * hd)
            .zip(zh.chunks_exact(4 * hd))
            .zip(
                c.chunks_exact_mut(hd)
                    .zip(tanh_c.chunks_exact_mut(hd))
                    .zip(h.chunks_exact_mut(hd)),
            )
        {
            let (gp, zp) = (grow.as_mut_ptr(), zrow.as_ptr());
            let (cp, tp, hp) = (crow.as_mut_ptr(), tcrow.as_mut_ptr(), hrow.as_mut_ptr());
            for j in (0..full).step_by(LANES) {
                let (fo, go, oo) = (hd + j, 2 * hd + j, 3 * hd + j);
                let ig = sigmoid_v(add3(gp.add(j), zp.add(j), bp.add(j)));
                let fg = sigmoid_v(add3(gp.add(fo), zp.add(fo), bp.add(fo)));
                let gg = tanh_v(add3(gp.add(go), zp.add(go), bp.add(go)));
                let og = sigmoid_v(add3(gp.add(oo), zp.add(oo), bp.add(oo)));
                _mm256_storeu_ps(gp.add(j), ig);
                _mm256_storeu_ps(gp.add(fo), fg);
                _mm256_storeu_ps(gp.add(go), gg);
                _mm256_storeu_ps(gp.add(oo), og);
                let cv = _mm256_add_ps(
                    _mm256_mul_ps(fg, _mm256_loadu_ps(cp.add(j))),
                    _mm256_mul_ps(ig, gg),
                );
                let tc = tanh_v(cv);
                _mm256_storeu_ps(cp.add(j), cv);
                _mm256_storeu_ps(tp.add(j), tc);
                _mm256_storeu_ps(hp.add(j), _mm256_mul_ps(og, tc));
            }
            scalar::lstm_cell_forward_row(grow, zrow, bias, crow, tcrow, hrow, full..hd);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn relu(xs: &mut [f32]) {
        let n = xs.len();
        let chunks = n / LANES;
        let zero = _mm256_setzero_ps();
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let o = c * LANES;
            _mm256_storeu_ps(p.add(o), _mm256_max_ps(_mm256_loadu_ps(p.add(o)), zero));
        }
        for v in &mut xs[chunks * LANES..] {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n)
            .map(|i| ((i * 37 + 11) % 23) as f32 * 0.31 - 3.0)
            .collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((i * 53 + 7) % 19) as f32 * 0.17 - 1.5)
            .collect();
        (a, b)
    }

    /// The ragged lengths every kernel is checked on (0, 1, tail-only,
    /// exactly one vector, vector+tail, …).
    const LENS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100];

    #[test]
    fn rfl_simd_accepts_zero_or_one_only() {
        assert_eq!(parse_simd(None), Ok(true));
        assert_eq!(parse_simd(Some("1")), Ok(true));
        assert_eq!(parse_simd(Some("0")), Ok(false));
        for bad in ["off", "false", "2", ""] {
            let err = parse_simd(Some(bad)).unwrap_err();
            assert!(err.contains("RFL_SIMD") && err.contains(bad), "{err}");
            assert!(err.contains("expected 0"), "{err}");
        }
    }

    #[test]
    fn dispatched_dot_matches_scalar_bitwise() {
        for &n in LENS {
            let (a, b) = vecs(n);
            assert_eq!(dot_slices(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn dot_matches_naive_within_tolerance() {
        let (a, b) = vecs(100);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_slices(&a, &b) - naive).abs() < 1e-3 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_tile_matches_eight_dots_bitwise() {
        for &n in LENS {
            let (a0, b0) = vecs(n);
            let a1: Vec<f32> = a0.iter().map(|v| 0.4 - v).collect();
            let b1: Vec<f32> = b0.iter().map(|v| v * 0.7 + 0.1).collect();
            let b2: Vec<f32> = b0.iter().map(|v| -v).collect();
            let b3: Vec<f32> = b0.iter().rev().copied().collect();
            let b = [&b0[..], &b1, &b2, &b3];
            let pair = dot_tile_slices([&a0[..], &a1], b);
            let single = dot_tile_slices([&a1[..]], b);
            assert_eq!(pair[1].map(f32::to_bits), single[0].map(f32::to_bits));
            for (row, ar) in pair.iter().zip([&a0, &a1]) {
                for (d, bj) in row.iter().zip(b) {
                    assert_eq!(d.to_bits(), dot_slices(ar, bj).to_bits());
                }
            }
        }
    }

    #[test]
    fn dot_lanes_matches_eight_dots_bitwise() {
        for &n in LENS {
            let (a, seed) = vecs(n);
            let rows: Vec<Vec<f32>> = (0..LANES)
                .map(|l| seed.iter().map(|v| v * (0.3 + l as f32) - 0.2).collect())
                .collect();
            let interleaved: Vec<f32> = (0..n)
                .flat_map(|i| rows.iter().map(move |r| r[i]))
                .collect();
            let got = scalar::dot_lanes(&a, &interleaved);
            for (g, r) in got.iter().zip(&rows) {
                assert_eq!(g.to_bits(), scalar::dot(&a, r).to_bits());
            }
        }
    }

    #[test]
    fn exp_matches_libm_closely() {
        for i in -860..880 {
            let x = i as f32 * 0.1;
            let want = x.exp();
            let got = scalar::exp_core(x);
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 5e-6, "exp({x}): {got} vs {want}");
        }
        assert_eq!(scalar::exp_core(0.0), 1.0);
    }

    #[test]
    fn exp_saturates_instead_of_overflowing() {
        assert!(scalar::exp_core(1000.0).is_finite());
        assert!(scalar::exp_core(f32::INFINITY).is_finite());
        assert!(scalar::exp_core(-1000.0) > 0.0);
        assert!(scalar::exp_core(f32::NEG_INFINITY) > 0.0);
    }

    #[test]
    fn tanh_and_sigmoid_match_libm_closely() {
        for i in -120..=120 {
            let x = i as f32 * 0.1;
            let t = scalar::tanh_core(x);
            assert!((t - x.tanh()).abs() < 3e-6, "tanh({x}): {t}");
            let s = scalar::sigmoid_core(x);
            let want = 1.0 / (1.0 + (-x).exp());
            assert!((s - want).abs() < 3e-6, "sigmoid({x}): {s}");
        }
        assert!(scalar::tanh_core(100.0) <= 1.0 && scalar::tanh_core(100.0) > 0.9999);
        assert!(scalar::tanh_core(-100.0) >= -1.0 && scalar::tanh_core(-100.0) < -0.9999);
        assert_eq!(scalar::sigmoid_core(0.0), 0.5);
    }

    #[test]
    fn elementwise_kernels_match_scalar_bitwise() {
        for &n in LENS {
            let (mut a, b) = vecs(n);
            let mut a2 = a.clone();
            axpy_slices(&mut a, 0.37, &b);
            scalar::axpy(&mut a2, 0.37, &b);
            assert_eq!(a, a2);
            exp_slices(&mut a, -0.2, 0.5);
            scalar::exp(&mut a2, -0.2, 0.5);
            assert!(a.iter().zip(&a2).all(|(x, y)| x.to_bits() == y.to_bits()));
            tanh_slices(&mut a);
            scalar::tanh(&mut a2);
            assert!(a.iter().zip(&a2).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn scale_into_then_add_replays_axpy_bitwise() {
        for &n in LENS {
            let (mut y, x) = vecs(n);
            let mut y2 = y.clone();
            let mut leaf = vec![0.0f32; n];
            axpy_slices(&mut y, 0.73, &x);
            scale_slices_into(&mut leaf, 0.73, &x);
            add_assign_slices(&mut y2, &leaf);
            assert!(y.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()));
            // And the dispatched scale_into matches scalar bitwise.
            let mut leaf2 = vec![0.0f32; n];
            scalar::scale_into(&mut leaf2, 0.73, &x);
            assert_eq!(leaf, leaf2);
        }
    }

    #[test]
    fn relu_maps_nan_and_negatives_to_zero() {
        let mut xs = vec![-1.0, 0.0, -0.0, 2.5, f32::NAN, -7.0, 3.0, 4.0, -0.5];
        relu_slices(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 0.0, 2.5, 0.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn sum_is_canonical_and_close_to_sequential() {
        for &n in LENS {
            let (a, _) = vecs(n);
            let seq: f32 = a.iter().sum();
            let s = sum_slices(&a);
            assert_eq!(s.to_bits(), scalar::sum(&a).to_bits());
            assert!((s - seq).abs() < 1e-3 * seq.abs().max(1.0));
        }
    }
}
