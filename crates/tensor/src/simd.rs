//! `f32` SIMD kernels in three tiers — plain Rust, AVX2 and AVX-512 — with
//! runtime dispatch and bit-identical results on every tier.
//!
//! ## Tiers
//!
//! - **scalar**: the plain bodies. They are the definition, and the
//!   `RFL_SIMD=0` path.
//! - **avx2**: 8-lane bodies under `#[target_feature(enable = "avx2,fma")]`.
//!   The tier requires FMA because the normal sampler (`fastmath.rs`) fuses
//!   its multiply-adds. Every Intel and AMD generation with AVX2 (Haswell,
//!   Excavator and later) has FMA too; a CPU with AVX2 and no FMA runs the
//!   scalar tier.
//! - **avx512**: the same kernels under `avx2, avx512f, avx512vl, avx512bw,
//!   avx512dq`: EVEX encoding and 32 vector registers for every body, and
//!   16-lane bodies where one register can hold sixteen independent outputs.
//!
//! Every intrinsic body is written once and stamped per tier from the same
//! tokens (`stamp_tiers!`); a portable body is compiled per tier by
//! `kernel!`. The kernels with 16-lane bodies are the `matmul` /
//! `matmul_transa` register tile and the `matmul_transb` dot tile
//! (`matmul.rs`), the fused LSTM cell forward and backward, and the
//! element-wise passes (`axpy`, `add_assign`, `scale`, `scale_into`,
//! `exp`, `tanh`, `sigmoid`). The element-wise passes
//! and the cell are one body generic over the register width
//! (`wide::Vector`, instantiated at `__m256` and `__m512`). The
//! convolutions (`conv.rs`) have 16-lane bodies of their own: pixel lanes
//! for the forward and the input gradient, two 8-channel blocks per register
//! for the short-row forward and the weight gradient, and the fused ReLU and
//! max-pool (`pool.rs`) sixteen windows to a register. The reductions
//! (`dot`, `sq_dist`, `sum`, [`dot_tile_slices`]) and the weight gradient of
//! eight channels or fewer keep their 8-lane registers at the AVX-512 tier:
//! only their encoding and register count change. The
//! Box–Muller sampler
//! (`fastmath::normal_fill`) is a tier kernel too: four normals per step at
//! the AVX2 tier, eight at the AVX-512 tier, with `f64` internals in both.
//!
//! ## Determinism contract
//!
//! The **lane-strided accumulation order is the canonical semantics** of
//! every kernel here, on every tier:
//!
//! - Reductions (`dot`, `sq_dist`, `sum`) keep [`LANES`] independent
//!   accumulators, lane `l` summing elements `l, l+8, l+16, …` of the full
//!   8-element chunks; the accumulators are then combined in the fixed tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` (the order an AVX2 horizontal
//!   add produces), and the ragged tail is folded in sequentially. That is
//!   why a reduction keeps the 8-lane stride at the AVX-512 tier: a 16-lane
//!   accumulator would split each lane's chain in two (even and odd chunks)
//!   and round differently. A 16-lane register may still hold *two outputs'*
//!   8-lane accumulator sets, which is what the AVX-512 `matmul_transb`
//!   tile does.
//! - Element-wise kernels (`axpy`, `scale`, `exp`, `tanh`, `sigmoid`,
//!   the LSTM cell passes) perform the identical scalar operation
//!   sequence per element, so any number of elements may share a register.
//! - Register tiles (the matrix products in `matmul.rs`, [`dot_tile_slices`])
//!   keep a small block of outputs in registers while the shared dimension
//!   streams past, so one loaded operand meets several outputs. A tile only
//!   chooses *which outputs share a register*: each output still sees its own
//!   operation sequence — for the axpy-order products `acc = acc + a·b` in
//!   ascending `k` from `+0.0`, for the dot-order product the 8-lane strided
//!   chunks, the fixed tree and the sequential tail of `dot` — so the tile
//!   shape, and with it the tier, is invisible in the result.
//! - The fused LSTM cell ([`lstm_cell_forward_slices`]) runs one timestep's
//!   element-wise chain per element in registers instead of one pass over
//!   memory per operation; each value goes through the same `exp` polynomial,
//!   divisions, multiplies and adds, in the same order, as the separate
//!   `add_assign` / `sigmoid` / `tanh` passes.
//! - Lane kernels (the convolutions in `conv.rs`, ReLU and max-pooling in
//!   `pool.rs`) put **independent output scalars** in the lanes — output
//!   channels, adjacent pixels or pooling windows, eight or sixteen, never a
//!   reduction — so each output
//!   replays its scalar operation sequence unchanged and the lane layout is
//!   invisible in the result.
//! - The transcendental kernels use a shared Cephes-style polynomial
//!   ([`scalar::exp_core`]) instead of libm, so the vector path can replay
//!   it exactly: same range clamp, same round-to-nearest-even via the
//!   `1.5·2²³` magic constant, same Cody–Waite reduction, same Horner steps.
//!
//! **No multiply-add is fused in this module, on any tier.** Both vector
//! tiers are compiled with FMA available (the AVX2 tier names `fma`, and
//! Rust's target-feature table makes `avx512f` imply it), and that
//! contracts nothing: Rust emits every `a * b + c` as a separate multiply and
//! add with no contraction flag, and LLVM fuses only the operations asked to
//! fuse (`f32::mul_add`, the `_fmadd` intrinsics), which no kernel here uses.
//! The one tier kernel that fuses on purpose is the normal sampler in
//! `fastmath.rs`: its plain body is written with `f64::mul_add`, which rounds
//! once on every platform, and its vector bodies replay those fused steps
//! with `vfmadd`, against that plain body.
//!
//! Consequently `RFL_SIMD=0` and `RFL_SIMD=1` produce bit-identical results
//! at any thread count and on any tier, which CI gates the same way as the
//! `RFL_THREADS` contract; `tests/simd_equiv.rs` holds each tier's instance
//! of every kernel against [`scalar`], one tier at a time.
//!
//! ## Dispatch
//!
//! The tier is selected once per process via [`OnceLock`]: the widest one
//! the CPU reports (runtime `is_x86_feature_detected!`, asked here and
//! nowhere else in the process). `RFL_SIMD=0` forces
//! the scalar tier; `RFL_SIMD=1` (or unset) asks for the widest. An AVX2-only
//! CPU runs the AVX2 instances, as it always has. [`set_simd_tier`] flips
//! the choice programmatically for benchmarks and equivalence tests; results
//! never depend on it — only wall-clock does.
//! Whether the 512-bit registers slow the core's clock on older AVX-512
//! parts was not measured here: the tier was measured on one Xeon (family 6,
//! model 207), where it is faster end to end (EXPERIMENTS.md).
//!
//! ## Saturation semantics of the polynomial `exp`
//!
//! Inputs are clamped to `[-87.33, 88.02]` (chosen so the `2ⁿ` exponent-bit
//! scaling stays in the normal range): `exp` of anything above saturates at
//! ≈ 2.4·10³⁸ instead of `+inf`, anything below at ≈ 1.2·10⁻³⁸ instead of a
//! subnormal/zero, and a NaN input clamps like an ordinary large value
//! (MINPS/MAXPS semantics). `tanh` additionally clamps its input to ±9.0,
//! where the f32 result is already saturated at ±1.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Stride of the canonical reductions: 8 × f32 = one `__m256` register.
/// Also the width of the 8-lane tiles (the plain and AVX2 convolutions); the
/// AVX-512 tier's 16-lane bodies hold two such blocks per register.
pub const LANES: usize = 8;

/// A kernel tier. Every tier computes the same bits; they differ in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The plain bodies.
    Scalar,
    /// 8-lane bodies under AVX2.
    Avx2,
    /// AVX2 bodies re-encoded for 32 registers, plus 16-lane bodies, under
    /// `avx512f`, `avx512vl`, `avx512bw` and `avx512dq`.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// The name [`simd_backend`] reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Whether this CPU can run the tier's instances.
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Tier::Scalar => true,
                Tier::Avx2 => has!("avx2") && hardware_fma(),
                Tier::Avx512 => {
                    Tier::Avx2.available()
                        && has!("avx512f")
                        && has!("avx512vl")
                        && has!("avx512bw")
                        && has!("avx512dq")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Tier::Scalar
        }
    }

    /// The widest tier this CPU can run.
    fn widest() -> Tier {
        Tier::ALL
            .into_iter()
            .rev()
            .find(|t| t.available())
            .unwrap_or(Tier::Scalar)
    }
}

/// A tier by its [`Tier::name`], for command lines.
impl std::str::FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Tier, String> {
        Tier::ALL
            .into_iter()
            .find(|t| t.name() == s)
            .ok_or_else(|| format!("unknown SIMD tier {s:?}: expected scalar, avx2 or avx512"))
    }
}

/// Whether this CPU fuses multiply-adds in hardware. Both vector tiers
/// require it. On the scalar tier, `fastmath`'s sampler asks it to compile
/// its `f64::mul_add`s as `vfmadd` instead of libm `fma()` calls (the same
/// bits either way). With [`Tier::available`], the only place the process
/// asks the CPU what it has.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn hardware_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

static TIER: OnceLock<AtomicU8> = OnceLock::new();

fn tier_cell() -> &'static AtomicU8 {
    TIER.get_or_init(|| {
        let raw = std::env::var_os("RFL_SIMD").map(|v| v.to_string_lossy().into_owned());
        let requested = parse_simd(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        AtomicU8::new(if requested {
            Tier::widest()
        } else {
            Tier::Scalar
        } as u8)
    })
}

/// Parses `RFL_SIMD`: unset or `1` asks for the widest tier the CPU has, `0`
/// for the scalar kernels. Anything else is an error — a typo must not
/// silently run the default configuration.
fn parse_simd(raw: Option<&str>) -> Result<bool, String> {
    match raw.map(str::trim) {
        None | Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(other) => Err(format!(
            "RFL_SIMD={other:?} is not valid: expected 0 (scalar kernels) or \
             1 (the widest SIMD tier the CPU has), or unset for 1"
        )),
    }
}

/// The tier kernels currently dispatch to.
#[inline]
pub fn simd_tier() -> Tier {
    match tier_cell().load(Ordering::Relaxed) {
        2 => Tier::Avx512,
        1 => Tier::Avx2,
        _ => Tier::Scalar,
    }
}

/// Makes every kernel dispatch to `tier`, if this CPU can run it; returns
/// whether it did. Results never depend on the tier, so this only exists
/// for benchmarks and equivalence tests.
pub fn set_simd_tier(tier: Tier) -> bool {
    let ok = tier.available();
    if ok {
        tier_cell().store(tier as u8, Ordering::Relaxed);
    }
    ok
}

/// Human-readable tier name for reports: `"avx512"`, `"avx2"` or
/// `"scalar"`.
pub fn simd_backend() -> &'static str {
    simd_tier().name()
}

// ---------------------------------------------------------------------------
// Stamping and dispatch macros.
// ---------------------------------------------------------------------------

/// Stamps intrinsic bodies once per vector tier, from the same tokens:
/// `$vis mod avx2` and `$vis mod avx512`, each holding `use super::*`, the
/// `std::arch` intrinsics, and every listed body macro (`mod avx512 { … }`
/// stamps only the AVX-512 module, for bodies with no AVX2 instance, and
/// `mod { … } avx2 { … } avx512 { … }` adds bodies of one tier only to the
/// shared ones). A body macro takes the tier's target-feature string (for
/// its `#[target_feature(enable = …)]` attributes) and the tier's widest
/// `f32` register type. The two feature strings live here and in
/// [`kernel!`], nowhere else.
macro_rules! stamp_tiers {
    ($vis:vis mod { $($body:ident),* $(,)? }
        $(avx2 { $($narrow:ident),* $(,)? })? $(avx512 { $($wide:ident),* $(,)? })?) => {
        $crate::simd::stamp_tiers!(@module $vis avx2, "avx2,fma", __m256,
            [$($body,)* $($($narrow),*)?], "The AVX2 instances.");
        $crate::simd::stamp_tiers!($vis mod avx512 { $($body,)* $($($wide),*)? });
    };
    ($vis:vis mod avx512 { $($body:ident),* $(,)? }) => {
        $crate::simd::stamp_tiers!(@module $vis avx512,
            "avx2,avx512f,avx512vl,avx512bw,avx512dq", __m512, [$($body),*],
            "The AVX-512 instances: the AVX2 bodies re-encoded (EVEX, 32 \
             registers) and the 16-lane bodies.");
    };
    (@module $vis:vis $tier:ident, $features:literal, $V:ty, [$($body:ident),* $(,)?],
        $doc:literal) => {
        #[doc = $doc]
        ///
        /// # Safety
        ///
        /// Every function requires the features named in its
        /// `#[target_feature]` attribute, and operands of the lengths the
        /// safe wrapper of the same name asserts.
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::missing_safety_doc)]
        $vis mod $tier {
            #[allow(unused_imports)]
            use super::*;
            #[allow(unused_imports)]
            use std::arch::x86_64::*;
            $($body!($features, $V);)*
        }
    };
}
pub(crate) use stamp_tiers;

/// Defines `fn $name(args)`, which runs the tier [`simd_tier`] selects: the
/// plain body `$plain` on the scalar tier, and on each vector tier either
/// `portable` — `$plain` itself compiled under that tier's target features,
/// for portable Rust that vectorizes as written (the two builds differ in
/// instruction selection only, never in the arithmetic) — or `($path)`, an
/// intrinsics body that must equal `$plain` bit for bit (the same
/// multiplies, adds and masks on every output scalar, in the same order).
/// `intrinsics` is short for `{ avx2: (avx2::$name), avx512:
/// (avx512::$name) }`, the bodies [`stamp_tiers!`] makes.
macro_rules! kernel {
    ($name:ident => $plain:ident($($arg:ident: $ty:ty),* $(,)?) intrinsics) => {
        $crate::simd::kernel!($name => $plain($($arg: $ty),*) {
            avx2: (avx2::$name),
            avx512: (avx512::$name)
        });
    };
    ($name:ident => $plain:ident($($arg:ident: $ty:ty),* $(,)?) {
        avx2: $avx2:tt,
        avx512: $avx512:tt $(,)?
    }) => {
        #[inline]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            match $crate::simd::simd_tier() {
                $crate::simd::Tier::Avx512 => {
                    return $crate::simd::kernel!(@instance $avx512,
                        "avx2,avx512f,avx512vl,avx512bw,avx512dq", $plain($($arg: $ty),*));
                }
                $crate::simd::Tier::Avx2 => {
                    return $crate::simd::kernel!(@instance $avx2, "avx2,fma", $plain($($arg: $ty),*));
                }
                $crate::simd::Tier::Scalar => {}
            }
            $plain($($arg),*)
        }
    };
    (@instance portable, $features:literal, $plain:ident($($arg:ident: $ty:ty),*)) => {{
        #[target_feature(enable = $features)]
        unsafe fn wide($($arg: $ty),*) {
            $plain($($arg),*)
        }
        // SAFETY: a tier is only selected after its runtime feature check.
        unsafe { wide($($arg),*) }
    }};
    (@instance ($wide:path), $features:literal, $plain:ident($($arg:ident: $ty:ty),*)) => {
        // SAFETY: a tier is only selected after its runtime feature check.
        unsafe { $wide($($arg),*) }
    };
}
pub(crate) use kernel;

/// Calls `$name` of the selected tier's module: `avx512`, `avx2` or
/// [`scalar`].
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        match simd_tier() {
            // SAFETY: a tier is only selected after its runtime feature check.
            Tier::Avx512 => return unsafe { avx512::$name($($arg),*) },
            Tier::Avx2 => return unsafe { avx2::$name($($arg),*) },
            Tier::Scalar => {}
        }
        scalar::$name($($arg),*)
    }};
}

// ---------------------------------------------------------------------------
// Dispatch wrappers — the public kernel set.
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices (canonical 8-lane stride).
///
/// # Panics
/// Panics unless `a` and `b` have one length.
#[inline]
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: operand lengths differ");
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

/// `y += a * x` over raw slices (element-wise; every tier rounds
/// identically).
///
/// # Panics
/// Panics unless `y` and `x` have one length.
#[inline]
pub fn axpy_slices(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: operand lengths differ");
    dispatch!(axpy(y, a, x))
}

/// Squared Euclidean distance between two equal-length slices (canonical
/// 8-lane stride).
///
/// # Panics
/// Panics unless `a` and `b` have one length.
#[inline]
pub fn sq_dist_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist: operand lengths differ");
    dispatch!(sq_dist(a, b))
}

/// Sum of a slice (canonical 8-lane stride).
#[inline]
pub fn sum_slices(a: &[f32]) -> f32 {
    dispatch!(sum(a))
}

/// `y += x` element-wise.
///
/// # Panics
/// Panics unless `y` and `x` have one length.
#[inline]
pub fn add_assign_slices(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign: operand lengths differ");
    dispatch!(add_assign(y, x))
}

/// `out = a·x` element-wise into a separate destination. Each element rounds
/// exactly like the multiply half of [`axpy_slices`], so
/// `scale_into + add_assign` replays an axpy bit-for-bit in two passes — the
/// leaf-then-combine decomposition of the aggregation reduction tree.
///
/// # Panics
/// Panics unless `out` and `x` have one length.
#[inline]
pub fn scale_slices_into(out: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(out.len(), x.len(), "scale_into: operand lengths differ");
    dispatch!(scale_into(out, a, x))
}

/// `y *= a` element-wise.
#[inline]
pub fn scale_slices(y: &mut [f32], a: f32) {
    dispatch!(scale(y, a))
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
    dispatch!(lstm_cell_backward(
        hidden, cache, dout, dh_next, dc_next, dz, dc_prev
    ))
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
/// semantics; the `avx2` and `avx512` tiers replay it 8 or 16 elements at a
/// time. Public so equivalence tests and oracles can pin every tier against
/// it bit for bit.
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

    #[inline(never)]
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

    #[inline(never)]
    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += xv;
        }
    }

    #[inline(never)]
    pub fn scale_into(out: &mut [f32], a: f32, x: &[f32]) {
        for (o, &xv) in out.iter_mut().zip(x) {
            *o = a * xv;
        }
    }

    #[inline(never)]
    pub fn scale(y: &mut [f32], a: f32) {
        for yv in y.iter_mut() {
            *yv *= a;
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

    #[inline(never)]
    pub fn exp(xs: &mut [f32], scale: f32, bias: f32) {
        for v in xs.iter_mut() {
            *v = exp_core(*v * scale + bias);
        }
    }

    #[inline(never)]
    pub fn tanh(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = tanh_core(*v);
        }
    }

    #[inline(never)]
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

    /// Hidden units `cols` of example `r` of the gate-gradient pass; see
    /// [`lstm_cell_backward_slices`]. Every element is an independent chain
    /// of multiplies and adds.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn lstm_cell_backward_row(
        hidden: usize,
        cache: LstmCellCache,
        dout: &[f32],
        dh_next: &[f32],
        dc_next: &[f32],
        dz: &mut [f32],
        dc_prev: &mut [f32],
        r: usize,
        cols: std::ops::Range<usize>,
    ) {
        let row = r * 4 * hidden;
        for j in cols {
            let at = r * hidden + j;
            let g = |gate: usize| cache.gates[row + gate * hidden + j];
            let (i_g, f_g, g_g, o_g) = (g(0), g(1), g(2), g(3));
            let tc = cache.tanh_c[at];
            let dh = dout[at] + dh_next[at];
            let dc = dh * o_g * (1.0 - tc * tc) + dc_next[at];
            let d_o = dh * tc;
            let d_i = dc * g_g;
            let d_f = dc * cache.c_prev[at];
            let d_g = dc * i_g;
            dc_prev[at] = dc * f_g;
            dz[row + j] = d_i * i_g * (1.0 - i_g);
            dz[row + hidden + j] = d_f * f_g * (1.0 - f_g);
            dz[row + 2 * hidden + j] = d_g * (1.0 - g_g * g_g);
            dz[row + 3 * hidden + j] = d_o * o_g * (1.0 - o_g);
        }
    }

    /// The gate-gradient pass over a batch; see
    /// [`lstm_cell_backward_slices`].
    pub fn lstm_cell_backward(
        hidden: usize,
        cache: LstmCellCache,
        dout: &[f32],
        dh_next: &[f32],
        dc_next: &[f32],
        dz: &mut [f32],
        dc_prev: &mut [f32],
    ) {
        for r in 0..cache.tanh_c.len() / hidden {
            lstm_cell_backward_row(
                hidden,
                cache,
                dout,
                dh_next,
                dc_next,
                dz,
                dc_prev,
                r,
                0..hidden,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Width-generic bodies: written once over `wide::Vector`, instantiated at
// 8 lanes (`__m256`) and 16 lanes (`__m512`).
// ---------------------------------------------------------------------------

/// The element-wise passes and the fused LSTM cell, generic over the vector
/// register. Each function is `#[inline(always)]` and only ever inlined into
/// a tier's `#[target_feature]` wrapper (see `tier_bodies!`), where the
/// intrinsics behind [`Vector`]'s methods inline too. Each performs the
/// scalar operation sequence of its [`scalar`] twin on every element.
///
/// # Safety
///
/// Every function requires the target features of its register type (AVX2
/// for `__m256`; AVX-512 F and DQ for `__m512`), and operands of the
/// lengths the safe wrapper of the same name asserts: the loops take their
/// bounds from one operand and read the others through raw pointers.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::*;
    use std::arch::x86_64::*;

    /// An `f32` vector register: the operations the width-generic bodies
    /// are written in, one instruction each.
    ///
    /// # Safety
    ///
    /// Every method requires its register type's target features; `load`
    /// and `store` need `N` floats readable or writable at `p`.
    pub(super) trait Vector: Copy {
        /// Lanes per register.
        const N: usize;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn sub(self, b: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        unsafe fn div(self, b: Self) -> Self;
        /// MINPS: `self < b ? self : b`, so a NaN `self` yields `b`.
        unsafe fn min(self, b: Self) -> Self;
        /// MAXPS: `self > b ? self : b`, so a NaN `self` yields `b`.
        unsafe fn max(self, b: Self) -> Self;
        /// The sign bit flipped, exactly like the scalar `-x`.
        unsafe fn neg(self) -> Self;
        /// `2ⁿ` for an integral `n` in `[-126, 127]`, built in the exponent
        /// bits; the truncating conversion matches the scalar `as i32`.
        unsafe fn pow2(n: Self) -> Self;
    }

    impl Vector for __m256 {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm256_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm256_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn min(self, b: Self) -> Self {
            _mm256_min_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm256_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            _mm256_xor_ps(self, _mm256_set1_ps(-0.0))
        }
        #[inline(always)]
        unsafe fn pow2(n: Self) -> Self {
            let e = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(e))
        }
    }

    impl Vector for __m512 {
        const N: usize = 16;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm512_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm512_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm512_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn min(self, b: Self) -> Self {
            _mm512_min_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm512_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            _mm512_xor_ps(self, _mm512_set1_ps(-0.0))
        }
        #[inline(always)]
        unsafe fn pow2(n: Self) -> Self {
            let e = _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(127));
            _mm512_castsi512_ps(_mm512_slli_epi32::<23>(e))
        }
    }

    /// [`scalar::exp_core`], step for step.
    #[inline(always)]
    unsafe fn exp_v<V: Vector>(x: V) -> V {
        let x = x.min(V::splat(EXP_HI)).max(V::splat(EXP_LO));
        let magic = V::splat(ROUND_MAGIC);
        let fx = x.mul(V::splat(LOG2EF)).add(magic).sub(magic);
        let r = x.sub(fx.mul(V::splat(EXP_C1)));
        let r = r.sub(fx.mul(V::splat(EXP_C2)));
        let z = r.mul(r);
        let mut y = V::splat(EXP_P0);
        y = y.mul(r).add(V::splat(EXP_P1));
        y = y.mul(r).add(V::splat(EXP_P2));
        y = y.mul(r).add(V::splat(EXP_P3));
        y = y.mul(r).add(V::splat(EXP_P4));
        y = y.mul(r).add(V::splat(EXP_P5));
        y = y.mul(z).add(r);
        y = y.add(V::splat(1.0));
        y.mul(V::pow2(fx))
    }

    /// [`scalar::tanh_core`].
    #[inline(always)]
    unsafe fn tanh_v<V: Vector>(x: V) -> V {
        let one = V::splat(1.0);
        let x = x.min(V::splat(TANH_CLAMP)).max(V::splat(-TANH_CLAMP));
        let e = exp_v(x.mul(V::splat(2.0)).add(V::splat(0.0)));
        e.sub(one).div(e.add(one))
    }

    /// [`scalar::sigmoid_core`].
    #[inline(always)]
    unsafe fn sigmoid_v<V: Vector>(x: V) -> V {
        let one = V::splat(1.0);
        one.div(one.add(exp_v(x.neg())))
    }

    /// Replaces every full register `$v` of `$ys` (with `$x` the same
    /// register of `$xs`, at least as long, if given) by `$body`, in place,
    /// and evaluates to the number of elements done. A macro rather than a
    /// closure-taking function: a closure is compiled without the tier's
    /// target features, and one LLVM declines to inline leaves every
    /// intrinsic in it a call.
    macro_rules! registers {
        ($V:ty: $ys:expr => |$v:ident| $body:expr) => {
            registers!($V: $ys, $ys => |$v, _x| $body)
        };
        ($V:ty: $ys:expr, $xs:expr => |$v:ident, $x:ident| $body:expr) => {{
            let full = $ys.len() / <$V>::N * <$V>::N;
            let (yp, xp) = ($ys.as_mut_ptr(), $xs.as_ptr());
            for c in 0..full / <$V>::N {
                let o = c * <$V>::N;
                let ($v, $x) = (<$V>::load(yp.add(o)), <$V>::load(xp.add(o)));
                $body.store(yp.add(o));
            }
            full
        }};
    }

    // The element-wise passes over the full registers of their operands;
    // each returns how many elements it did (see `tier_bodies!` for the
    // rest).

    #[inline(always)]
    pub(super) unsafe fn axpy<V: Vector>(y: &mut [f32], a: f32, x: &[f32]) -> usize {
        let va = V::splat(a);
        registers!(V: y, x => |yv, xv| yv.add(va.mul(xv)))
    }

    #[inline(always)]
    pub(super) unsafe fn add_assign<V: Vector>(y: &mut [f32], x: &[f32]) -> usize {
        registers!(V: y, x => |yv, xv| yv.add(xv))
    }

    #[inline(always)]
    pub(super) unsafe fn scale_into<V: Vector>(out: &mut [f32], a: f32, x: &[f32]) -> usize {
        let va = V::splat(a);
        registers!(V: out, x => |_o, xv| va.mul(xv))
    }

    #[inline(always)]
    pub(super) unsafe fn scale<V: Vector>(y: &mut [f32], a: f32) -> usize {
        let va = V::splat(a);
        registers!(V: y => |v| v.mul(va))
    }

    #[inline(always)]
    pub(super) unsafe fn exp<V: Vector>(xs: &mut [f32], scale: f32, bias: f32) -> usize {
        let (vs, vb) = (V::splat(scale), V::splat(bias));
        registers!(V: xs => |v| exp_v(v.mul(vs).add(vb)))
    }

    #[inline(always)]
    pub(super) unsafe fn tanh<V: Vector>(xs: &mut [f32]) -> usize {
        registers!(V: xs => |v| tanh_v(v))
    }

    #[inline(always)]
    pub(super) unsafe fn sigmoid<V: Vector>(xs: &mut [f32]) -> usize {
        registers!(V: xs => |v| sigmoid_v(v))
    }

    /// `(x + y) + z`, one register of each.
    #[inline(always)]
    unsafe fn add3<V: Vector>(x: *const f32, y: *const f32, z: *const f32) -> V {
        V::load(x).add(V::load(y)).add(V::load(z))
    }

    /// [`scalar::lstm_cell_forward`]: `V::N` hidden units of one example per
    /// iteration, the ragged end of each row through
    /// [`scalar::lstm_cell_forward_row`]. Intrinsics rather than a portable
    /// body because the compiler does not vectorize the fused chain as plain
    /// Rust (the saturating `as i32` and the divisions in `exp_core` /
    /// `sigmoid_core`): that build ran the LSTM forward slower than the
    /// unfused passes.
    #[inline(always)]
    pub(super) unsafe fn lstm_cell_forward<V: Vector>(
        gates: &mut [f32],
        zh: &[f32],
        bias: &[f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let hd = bias.len() / 4;
        let full = hd / V::N * V::N;
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
            for j in (0..full).step_by(V::N) {
                let (fo, go, oo) = (hd + j, 2 * hd + j, 3 * hd + j);
                let ig = sigmoid_v(add3::<V>(gp.add(j), zp.add(j), bp.add(j)));
                let fg = sigmoid_v(add3::<V>(gp.add(fo), zp.add(fo), bp.add(fo)));
                let gg = tanh_v(add3::<V>(gp.add(go), zp.add(go), bp.add(go)));
                let og = sigmoid_v(add3::<V>(gp.add(oo), zp.add(oo), bp.add(oo)));
                ig.store(gp.add(j));
                fg.store(gp.add(fo));
                gg.store(gp.add(go));
                og.store(gp.add(oo));
                let cv = fg.mul(V::load(cp.add(j))).add(ig.mul(gg));
                let tc = tanh_v(cv);
                cv.store(cp.add(j));
                tc.store(tp.add(j));
                og.mul(tc).store(hp.add(j));
            }
            if full < hd {
                scalar::lstm_cell_forward_row(grow, zrow, bias, crow, tcrow, hrow, full..hd);
            }
        }
    }

    /// [`scalar::lstm_cell_backward`]: `V::N` hidden units of one example
    /// per iteration, the ragged end of each row through
    /// [`scalar::lstm_cell_backward_row`].
    #[inline(always)]
    pub(super) unsafe fn lstm_cell_backward<V: Vector>(
        hidden: usize,
        cache: LstmCellCache,
        dout: &[f32],
        dh_next: &[f32],
        dc_next: &[f32],
        dz: &mut [f32],
        dc_prev: &mut [f32],
    ) {
        let full = hidden / V::N * V::N;
        let one = V::splat(1.0);
        let (gp, tcp, cpp) = (
            cache.gates.as_ptr(),
            cache.tanh_c.as_ptr(),
            cache.c_prev.as_ptr(),
        );
        let (dop, dhp, dcp) = (dout.as_ptr(), dh_next.as_ptr(), dc_next.as_ptr());
        let (dzp, dpp) = (dz.as_mut_ptr(), dc_prev.as_mut_ptr());
        for r in 0..cache.tanh_c.len() / hidden {
            let row = r * 4 * hidden;
            for j in (0..full).step_by(V::N) {
                let at = r * hidden + j;
                let gate = gp.add(row + j);
                let i_g = V::load(gate);
                let f_g = V::load(gate.add(hidden));
                let g_g = V::load(gate.add(2 * hidden));
                let o_g = V::load(gate.add(3 * hidden));
                let tc = V::load(tcp.add(at));
                let dh = V::load(dop.add(at)).add(V::load(dhp.add(at)));
                let dc = dh
                    .mul(o_g)
                    .mul(one.sub(tc.mul(tc)))
                    .add(V::load(dcp.add(at)));
                let d_o = dh.mul(tc);
                let d_i = dc.mul(g_g);
                let d_f = dc.mul(V::load(cpp.add(at)));
                let d_g = dc.mul(i_g);
                dc.mul(f_g).store(dpp.add(at));
                let dzr = dzp.add(row + j);
                d_i.mul(i_g).mul(one.sub(i_g)).store(dzr);
                d_f.mul(f_g).mul(one.sub(f_g)).store(dzr.add(hidden));
                d_g.mul(one.sub(g_g.mul(g_g))).store(dzr.add(2 * hidden));
                d_o.mul(o_g).mul(one.sub(o_g)).store(dzr.add(3 * hidden));
            }
            if full < hidden {
                scalar::lstm_cell_backward_row(
                    hidden,
                    cache,
                    dout,
                    dh_next,
                    dc_next,
                    dz,
                    dc_prev,
                    r,
                    full..hidden,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The tiers' intrinsic bodies, stamped once per tier.
// ---------------------------------------------------------------------------

/// Every tier's kernels: the reductions as 8-lane transcriptions of
/// [`scalar`] (a 16-lane register would split each lane's chain; see the
/// module docs), and the element-wise passes and LSTM cell as the
/// width-generic bodies of `wide` at the tier's widest register `$V`.
macro_rules! tier_bodies {
    ($features:literal, $V:ty) => {
        /// Horizontal sum in the canonical tree order
        /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
        #[inline]
        #[target_feature(enable = $features)]
        unsafe fn hsum(v: __m256) -> f32 {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let s4 = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
            let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4)); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
            let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
            _mm_cvtss_f32(s1)
        }

        #[target_feature(enable = $features)]
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

        /// [`hsum`] of four accumulators at once, `[hsum(v[0]), …,
        /// hsum(v[3])]`: the same three additions per accumulator, in the
        /// same tree, with the four results sharing each instruction.
        #[inline]
        #[target_feature(enable = $features)]
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

        #[target_feature(enable = $features)]
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

        #[target_feature(enable = $features)]
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

        // The element-wise passes: full registers of `$V`, then (at 16
        // lanes) one 8-lane register if eight elements remain, then the
        // scalar twin for the last `< 8`.

        #[target_feature(enable = $features)]
        pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
            let at = wide::axpy::<$V>(y, a, x);
            let at = at + wide::axpy::<__m256>(&mut y[at..], a, &x[at..]);
            if at < y.len() {
                scalar::axpy(&mut y[at..], a, &x[at..]);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
            let at = wide::add_assign::<$V>(y, x);
            let at = at + wide::add_assign::<__m256>(&mut y[at..], &x[at..]);
            if at < y.len() {
                scalar::add_assign(&mut y[at..], &x[at..]);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn scale_into(out: &mut [f32], a: f32, x: &[f32]) {
            let at = wide::scale_into::<$V>(out, a, x);
            let at = at + wide::scale_into::<__m256>(&mut out[at..], a, &x[at..]);
            if at < out.len() {
                scalar::scale_into(&mut out[at..], a, &x[at..]);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn scale(y: &mut [f32], a: f32) {
            let at = wide::scale::<$V>(y, a);
            let at = at + wide::scale::<__m256>(&mut y[at..], a);
            if at < y.len() {
                scalar::scale(&mut y[at..], a);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn exp(xs: &mut [f32], scale: f32, bias: f32) {
            let at = wide::exp::<$V>(xs, scale, bias);
            let at = at + wide::exp::<__m256>(&mut xs[at..], scale, bias);
            if at < xs.len() {
                scalar::exp(&mut xs[at..], scale, bias);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn tanh(xs: &mut [f32]) {
            let at = wide::tanh::<$V>(xs);
            let at = at + wide::tanh::<__m256>(&mut xs[at..]);
            if at < xs.len() {
                scalar::tanh(&mut xs[at..]);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn sigmoid(xs: &mut [f32]) {
            let at = wide::sigmoid::<$V>(xs);
            let at = at + wide::sigmoid::<__m256>(&mut xs[at..]);
            if at < xs.len() {
                scalar::sigmoid(&mut xs[at..]);
            }
        }

        #[target_feature(enable = $features)]
        pub unsafe fn lstm_cell_forward(
            gates: &mut [f32],
            zh: &[f32],
            bias: &[f32],
            c: &mut [f32],
            tanh_c: &mut [f32],
            h: &mut [f32],
        ) {
            wide::lstm_cell_forward::<$V>(gates, zh, bias, c, tanh_c, h)
        }

        #[target_feature(enable = $features)]
        pub unsafe fn lstm_cell_backward(
            hidden: usize,
            cache: LstmCellCache,
            dout: &[f32],
            dh_next: &[f32],
            dc_next: &[f32],
            dz: &mut [f32],
            dc_prev: &mut [f32],
        ) {
            wide::lstm_cell_backward::<$V>(hidden, cache, dout, dh_next, dc_next, dz, dc_prev)
        }
    };
}

/// `dot_tile`: one `__m256` of the canonical 8-lane accumulators per
/// output, `R × 4` of them, on both tiers. (The AVX-512 `matmul_transb`
/// does not come through here: its tile packs B in row pairs so that one
/// 16-lane register holds two outputs' sets; see `matmul.rs`. Unpacked,
/// pairing two B rows' chunks costs a shuffle per register, which ate what
/// the wider register saved.)
macro_rules! dot_tile_bodies {
    ($features:literal, $V:ty) => {
        #[target_feature(enable = $features)]
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
    };
}

stamp_tiers!(pub mod { tier_bodies, dot_tile_bodies });

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

    /// The safe wrappers check operand lengths in every build: the vector
    /// bodies take their loop bounds from one operand, so a shorter other
    /// operand would be read (or written) past its end. `dot_slices` of a
    /// 16- and an 8-long slice once returned 48 on AVX2, reading the 8
    /// floats after the slice, and 24 on the scalar path.
    #[test]
    #[should_panic(expected = "dot: operand lengths differ")]
    fn dot_rejects_a_shorter_operand() {
        let big = [3.0f32; 64];
        dot_slices(&[1.0; 16], &big[..8]);
    }

    #[test]
    #[should_panic(expected = "axpy: operand lengths differ")]
    fn axpy_rejects_a_shorter_operand() {
        let big = [3.0f32; 64];
        axpy_slices(&mut [1.0; 16], 2.0, &big[..8]);
    }

    #[test]
    #[should_panic(expected = "sq_dist: operand lengths differ")]
    fn sq_dist_rejects_a_shorter_operand() {
        let big = [3.0f32; 64];
        sq_dist_slices(&[1.0; 16], &big[..8]);
    }

    #[test]
    #[should_panic(expected = "add_assign: operand lengths differ")]
    fn add_assign_rejects_a_shorter_operand() {
        let big = [3.0f32; 64];
        add_assign_slices(&mut [1.0; 16], &big[..8]);
    }

    #[test]
    #[should_panic(expected = "scale_into: operand lengths differ")]
    fn scale_into_rejects_a_shorter_operand() {
        let big = [3.0f32; 64];
        scale_slices_into(&mut [1.0; 16], 2.0, &big[..8]);
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
