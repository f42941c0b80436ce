//! The workspace's one normal sampler, [`normal_fill`], and the bit-exact
//! inlined ports of the libm `logf`/`cosf` kernels its Box–Muller step runs.
//!
//! Every standard normal the workspace draws — synthetic images and
//! features, weight initialization, DP noise, t-SNE's start — comes out of
//! [`normal_fill`]; `init::normal_sample` is a fill of one element. A
//! Box–Muller step through libm spent most of its time in two PLT calls
//! (`logf`, `cosf`), and at million-client scale the synthetic data
//! regenerated on every materialization made those calls the single hottest
//! instruction stream in a round, so this module ports the exact computation
//! those calls perform — the ARM optimized-routines `logf` and `sincosf`
//! kernels that glibc ships (unchanged since 2.28), in their FMA form — as
//! inlinable Rust.
//!
//! Determinism contract: every arithmetic step is transcribed
//! operation-for-operation (including which expressions are FMA-contracted)
//! from the dispatched kernels, and the data tables are the published
//! optimized-routines tables, so the ports return the same bits libm did when
//! the canonical pins were minted. `f64::mul_add` guarantees fused
//! (single-rounding) semantics on every platform — hardware `vfmadd` where
//! available, exactly-rounded software fallback otherwise — so results do not
//! depend on the CPU, unlike a direct libm call which switches algorithms on
//! pre-FMA hardware. The `fastmath_matches_libm` tests in this file verify
//! bit-equality against the system libm over the whole unit-interval /
//! `[0, 2π)` domains (strided always; exhaustively under
//! `RFL_FASTMATH_EXHAUSTIVE=1`).
//!
//! Out-of-domain inputs (zero, subnormal, negative, non-finite, huge) take
//! the libm call they always took; no pinned path reaches them.
//!
//! ## The sampler on the SIMD tiers
//!
//! [`normal_fill`] is a tier kernel: each call runs the instance of the tier
//! `simd::simd_tier()` selects, like every kernel in `simd.rs`, so
//! `RFL_SIMD=0` reaches it too. That selection is the only dispatch point;
//! this module asks the CPU nothing itself.
//!
//! - **scalar**: the plain bodies, one element at a time. They are the
//!   definition. On a CPU with FMA the scalar tier runs them compiled with
//!   it (`mod fma`), so a `mul_add` is one `vfmadd` instead of a call into
//!   libm's `fma()`.
//! - **avx2**: four elements per step, `f64` internals in `__m256d`. Each
//!   lane's `(1/c, log c)` pair comes from one 128-bit load.
//! - **avx512**: eight elements per step in `__m512d`. The 16-entry `logf`
//!   table lives in four `zmm` registers for the whole call, and each step
//!   reads it with two `vpermt2pd` (`_mm512_permutex2var_pd`), not loads.
//!
//! The sampler is two kernels, and [`normal_fill`] is their composition in
//! blocks of 64 elements: [`draw_normal_pairs`] draws each element's two raw
//! 24-bit words into a `u64` (integer work, the same on every tier), and
//! [`normals_from_pairs`] turns a block of them into normals (the tier's
//! transform body). A caller that needs only some of the normals it draws —
//! a lazy Gaussian shard, whose gathers read a few rows — keeps the pairs
//! and transforms the ones it reads, with the bits a fill would have given.
//!
//! The vector bodies are stamped by `simd::stamp_tiers!` like every
//! intrinsic body: the blocked fill for both tiers, and each tier's own
//! transform body. Every lane runs the plain body's operation sequence (the
//! same fused steps, conversions and square root, and the same pin of a
//! tiny angle to 1.0), so every tier returns the plain body's bits. Every
//! tier also draws the same words in the same order, two per element, so the
//! generator ends where the plain body leaves it.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::simd::stamp_tiers;
use rand::Rng;

// ---------------------------------------------------------------------------
// logf — optimized-routines table + degree-4 polynomial, f64 internals.
// ---------------------------------------------------------------------------

/// `(1/c, log c)` pairs, interleaved flat, for 16 reciprocal anchors
/// covering one octave. Kept flat (not tuples) so the AVX2 body can load a
/// pair as one 128-bit word with a guaranteed layout.
const LOGF_TAB: [f64; 32] = [
    f64::from_bits(0x3FF661EC79F8F3BE),
    f64::from_bits(0xBFD57BF7808CAADE),
    f64::from_bits(0x3FF571ED4AAF883D),
    f64::from_bits(0xBFD2BEF0A7C06DDB),
    f64::from_bits(0x3FF49539F0F010B0),
    f64::from_bits(0xBFD01EAE7F513A67),
    f64::from_bits(0x3FF3C995B0B80385),
    f64::from_bits(0xBFCB31D8A68224E9),
    f64::from_bits(0x3FF30D190C8864A5),
    f64::from_bits(0xBFC6574F0AC07758),
    f64::from_bits(0x3FF25E227B0B8EA0),
    f64::from_bits(0xBFC1AA2BC79C8100),
    f64::from_bits(0x3FF1BB4A4A1A343F),
    f64::from_bits(0xBFBA4E76CE8C0E5E),
    f64::from_bits(0x3FF12358F08AE5BA),
    f64::from_bits(0xBFB1973C5A611CCC),
    f64::from_bits(0x3FF0953F419900A7),
    f64::from_bits(0xBFA252F438E10C1E),
    f64::from_bits(0x3FF0000000000000),
    f64::from_bits(0x0000000000000000),
    f64::from_bits(0x3FEE608CFD9A47AC),
    f64::from_bits(0x3FAAA5AA5DF25984),
    f64::from_bits(0x3FECA4B31F026AA0),
    f64::from_bits(0x3FBC5E53AA362EB4),
    f64::from_bits(0x3FEB2036576AFCE6),
    f64::from_bits(0x3FC526E57720DB08),
    f64::from_bits(0x3FE9C2D163A1AA2D),
    f64::from_bits(0x3FCBC2860D224770),
    f64::from_bits(0x3FE886E6037841ED),
    f64::from_bits(0x3FD1058BC8A07EE1),
    f64::from_bits(0x3FE767DCF5534862),
    f64::from_bits(0x3FD4043057B6EE09),
];

/// Column `c` of [`LOGF_TAB`] (0: `1/c`, 1: `log c`): what the AVX-512 body
/// holds in two registers of eight.
#[cfg(target_arch = "x86_64")]
const fn logf_column(c: usize) -> [f64; 16] {
    let mut col = [0.0; 16];
    let mut i = 0;
    while i < 16 {
        col[i] = LOGF_TAB[2 * i + c];
        i += 1;
    }
    col
}

const LOGF_LN2: f64 = f64::from_bits(0x3FE62E42FEFA39EF);
const LOGF_A0: f64 = f64::from_bits(0xBFD00EA348B88334);
const LOGF_A1: f64 = f64::from_bits(0x3FD5575B0BE00B6A);
const LOGF_A2: f64 = f64::from_bits(0xBFDFFFFEF20A4123);

/// `ln(x)` with bits identical to the libm `logf` for every finite normal
/// positive `x`; delegates to libm outside that domain.
#[inline]
pub fn logf(x: f32) -> f32 {
    let ix = x.to_bits();
    if ix.wrapping_sub(0x0080_0000) >= 0x7f00_0000 {
        // Zero, subnormal, negative, inf, NaN — the cold libm path.
        return x.ln();
    }
    logf_core(ix)
}

/// Main-path kernel: one table lookup, five fused ops, all in f64.
#[inline(always)]
fn logf_core(ix: u32) -> f32 {
    let tmp = ix.wrapping_sub(0x3f33_0000);
    let i = ((tmp >> 19) & 0xf) as usize;
    let k = (tmp as i32) >> 23;
    let iz = ix.wrapping_sub(tmp & 0xff80_0000);
    let (invc, logc) = (LOGF_TAB[2 * i], LOGF_TAB[2 * i + 1]);
    let z = f32::from_bits(iz) as f64;
    let r = z.mul_add(invc, -1.0);
    let y0 = (k as f64).mul_add(LOGF_LN2, logc);
    let r2 = r * r;
    let y = LOGF_A1.mul_add(r, LOGF_A2);
    let p = y0 + r;
    let y = LOGF_A0.mul_add(r2, y);
    r2.mul_add(y, p) as f32
}

// ---------------------------------------------------------------------------
// cosf — optimized-routines sincosf reduction + hybrid polynomial blocks.
// ---------------------------------------------------------------------------

/// Quadrant sign pattern for the odd (sine-polynomial) branch.
const SINCOS_SIGN: [f64; 4] = [1.0, -1.0, -1.0, 1.0];
/// `4/π · 2²³` — prescaled so the quadrant lands in bits 24.. of the int.
const HPI_INV: f64 = f64::from_bits(0x41645F306DC9C883);
/// `π/2` rounded to double.
const HPI: f64 = f64::from_bits(0x3FF921FB54442D18);

/// One polynomial block: `[c0, c1, c2, c3, c4, s1, s2, s3]` in the layout of
/// the sincosf table. Block 0 serves quadrants {0, 3}, block 1 (sign-flipped
/// even coefficients) quadrants {1, 2}.
const SINCOS_P0: [f64; 8] = [
    f64::from_bits(0x3FF0000000000000),
    f64::from_bits(0xBFDFFFFFFD0C621C),
    f64::from_bits(0xBFC555545995A603),
    f64::from_bits(0x3FA55553E1068F19),
    f64::from_bits(0x3F81107605230BC4),
    f64::from_bits(0xBF56C087E89A359D),
    f64::from_bits(0xBF2994EB3774CF24),
    f64::from_bits(0x3EF99343027BF8C3),
];
const SINCOS_P1: [f64; 8] = [
    f64::from_bits(0xBFF0000000000000),
    f64::from_bits(0x3FDFFFFFFD0C621C),
    f64::from_bits(0xBFC555545995A603),
    f64::from_bits(0xBFA55553E1068F19),
    f64::from_bits(0x3F81107605230BC4),
    f64::from_bits(0x3F56C087E89A359D),
    f64::from_bits(0xBF2994EB3774CF24),
    f64::from_bits(0xBEF99343027BF8C3),
];

/// Even-quadrant polynomial (cosine shape): depends on `s = r²` only.
#[inline(always)]
fn cos_poly_even(s: f64, p: &[f64; 8]) -> f64 {
    let x4 = s * s;
    let t = p[1].mul_add(s, p[0]);
    let u = p[7].mul_add(s, p[5]);
    let v = s * x4;
    let w = x4.mul_add(p[3], t);
    u.mul_add(v, w)
}

/// Odd-quadrant polynomial (sine shape) on the signed reduced argument `a`.
#[inline(always)]
fn sin_poly_odd(a: f64, s: f64, p: &[f64; 8]) -> f64 {
    let t = p[6].mul_add(s, p[4]);
    let u = s * a;
    let v = s * u;
    let w = u.mul_add(p[2], a);
    t.mul_add(v, w)
}

/// `cos(x)` with bits identical to the libm `cosf` for every `|x| < 120`;
/// delegates to libm for the huge-reduction and non-finite paths.
#[inline]
pub fn cosf(y: f32) -> f32 {
    let top = (y.to_bits() >> 20) & 0x7ff;
    if top <= 0x3f3 {
        // |y| < 0.75: no reduction. Below the tiny cutoff the polynomial
        // would land exactly on a rounding boundary; libm pins 1.0 there.
        if top <= 0x397 {
            return 1.0;
        }
        let x = y as f64;
        return cos_poly_even(x * x, &SINCOS_P0) as f32;
    }
    if top <= 0x42e {
        return cosf_reduced(y);
    }
    y.cos()
}

/// Fast reduction path for `0.75 ≤ |y| < 120`.
#[inline(always)]
fn cosf_reduced(y: f32) -> f32 {
    let x = y as f64;
    let n = ((x * HPI_INV) as i32).wrapping_add(0x0080_0000) >> 24;
    let r = (n as f64).mul_add(-HPI, x);
    let s = r * r;
    let p = if n & 2 == 0 { &SINCOS_P0 } else { &SINCOS_P1 };
    if n & 1 == 0 {
        cos_poly_even(s, p) as f32
    } else {
        sin_poly_odd(r * SINCOS_SIGN[(n & 3) as usize], s, p) as f32
    }
}

// ---------------------------------------------------------------------------
// Box–Muller batch front-end.
// ---------------------------------------------------------------------------

/// Runs `$name` of `$tier`'s instance: `avx512::$name`, `avx2::$name`, or
/// on the scalar tier the plain body `$plain`, compiled with FMA
/// (`fma::$name`) on a CPU that has it.
macro_rules! on_tier {
    ($tier:expr, $name:ident => $plain:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd::{hardware_fma, Tier};
            // A tier only runs on a CPU that has its features: the dispatch
            // selects only such a tier, and the tests only call those.
            match $tier {
                // SAFETY: the CPU has AVX-512 (above).
                Tier::Avx512 => return unsafe { avx512::$name($($arg),*) },
                // SAFETY: the CPU has AVX2 and FMA (above).
                Tier::Avx2 => return unsafe { avx2::$name($($arg),*) },
                // SAFETY: the FMA build runs only on a CPU with FMA.
                Tier::Scalar if hardware_fma() => return unsafe { fma::$name($($arg),*) },
                Tier::Scalar => {}
            }
        }
        $plain($($arg),*)
    }};
}

/// Pairs one [`normal_fill`] call draws before it transforms them: 512
/// bytes of stack, eight AVX-512 octets.
const BLOCK: usize = 64;

/// One standard normal from the two unit draws of a Box–Muller step, bits
/// identical to `(-2·ln u1)^½ · cos(2π·u2)` through libm: the scalar
/// kernels every tier's lanes transcribe.
#[inline(always)]
fn normal_from_units_plain(u1: f32, u2: f32) -> f32 {
    (-2.0 * logf(u1)).sqrt() * cosf(std::f32::consts::TAU * u2)
}

/// Fills `out` with standard normals: the workspace's one normal sampler.
/// Each element draws `(u1, u2)` as `gen_range(f32::EPSILON..1.0)` then
/// `gen_range(0.0..1.0)` would — two `next_u32` calls per element and
/// nothing else — so a fill of `n` is bit for bit `n` Box–Muller steps
/// through the uniform sampler, and leaves the generator where they would.
/// The unit draws are reconstructed from the raw 24-bit words exactly as
/// the uniform sampler builds them (`lo + (hi−lo)·(k/2²⁴)`).
///
/// A fill is its two halves in blocks of 64 elements: [`draw_normal_pairs`]
/// into a stack block, then [`normals_from_pairs`] out of it. The blocks
/// replace a loop that drew each register's pairs inside the vector step:
/// it overlapped nothing of the generator's serial integer chain with the
/// vector math, and cost more than its two halves run one after the other
/// (EXPERIMENTS.md, "ROADMAP 15, step 0" and "A lazy Gaussian shard").
pub fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
    on_tier!(crate::simd::simd_tier(), normal_fill => normal_fill_plain(rng, out))
}

/// The draw half of [`normal_fill`]: the raw 24-bit words of `pairs.len()`
/// Box–Muller steps, one element's pair to a `u64`, `k1` (the word behind
/// `u1`) in the low half and `k2` in the high half. Two `next_u32` calls per
/// pair and nothing else, in [`normal_fill`]'s order, so drawing `n` pairs
/// leaves the generator where a fill of `n` would. Integer work only, the
/// same on every tier.
pub fn draw_normal_pairs<R: Rng>(rng: &mut R, pairs: &mut [u64]) {
    for p in pairs {
        *p = draw_pair(rng);
    }
}

/// The transform half of [`normal_fill`]: the standard normal of each pair
/// [`draw_normal_pairs`] drew, bit for bit the value a fill would have
/// written in its place. A tier kernel, like [`normal_fill`].
///
/// # Panics
/// Panics unless `pairs` and `out` have one length.
pub fn normals_from_pairs(pairs: &[u64], out: &mut [f32]) {
    assert_eq!(pairs.len(), out.len(), "normals_from_pairs: lengths differ");
    on_tier!(crate::simd::simd_tier(), normals_from_pairs => normals_from_pairs_plain(pairs, out))
}

/// [`normal_fill`], the plain body: a block of pairs drawn, then the scalar
/// kernels over it.
#[inline(always)]
fn normal_fill_plain<R: Rng>(rng: &mut R, out: &mut [f32]) {
    let mut block = [0u64; BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let pairs = &mut block[..chunk.len()];
        draw_normal_pairs(rng, pairs);
        normals_from_pairs_plain(pairs, chunk);
    }
}

/// [`normals_from_pairs`], the plain body: one element at a time through
/// the scalar kernels. Every vector body runs it on the pairs past its last
/// full register.
#[inline(always)]
fn normals_from_pairs_plain(pairs: &[u64], out: &mut [f32]) {
    for (o, &p) in out.iter_mut().zip(pairs) {
        let (k1, k2) = (p as u32, (p >> 32) as u32);
        *o = normal_from_units_plain(u1_from_bits(k1), unit_f32(k2));
    }
}

/// The next element's two draws as one 64-bit lane, `k1` in the low half:
/// the two `next_u32` calls a Box–Muller step makes, in its order.
#[inline(always)]
fn draw_pair<R: Rng>(rng: &mut R) -> u64 {
    let (k1, k2) = (rng.next_u32() >> 8, rng.next_u32() >> 8);
    k1 as u64 | (k2 as u64) << 32
}

/// Unit-interval value of a 24-bit draw, exactly as the uniform sampler
/// computes it.
#[inline(always)]
fn unit_f32(k: u32) -> f32 {
    k as f32 / (1u32 << 24) as f32
}

/// `gen_range(f32::EPSILON..1.0)` reconstructed from its raw draw.
#[inline(always)]
fn u1_from_bits(k: u32) -> f32 {
    f32::EPSILON + (1.0 - f32::EPSILON) * unit_f32(k)
}

/// The plain bodies compiled with FMA: the scalar tier's instances on a CPU
/// that has it, where each `mul_add` is then one `vfmadd` instead of a call
/// into libm's `fma()`, which rounds the same but costs a call per
/// operation.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::*;

    /// # Safety
    /// The CPU has FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
        normal_fill_plain(rng, out)
    }

    /// # Safety
    /// The CPU has FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn normals_from_pairs(pairs: &[u64], out: &mut [f32]) {
        normals_from_pairs_plain(pairs, out)
    }
}

/// A vector tier's [`normal_fill`]: blocks of pairs drawn, then the tier's
/// [`normals_from_pairs`] over each, compiled together under the tier's
/// features. The transform is `#[inline]`, so each block's call folds into
/// this loop instead of spilling the generator's state around a call.
macro_rules! sampler_bodies {
    ($features:literal, $V:ty) => {
        #[target_feature(enable = $features)]
        pub unsafe fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
            let mut block = [0u64; BLOCK];
            for chunk in out.chunks_mut(BLOCK) {
                let pairs = &mut block[..chunk.len()];
                draw_normal_pairs(rng, pairs);
                // SAFETY: this instance runs with its tier's features, and
                // `pairs` is as long as `chunk`.
                unsafe { normals_from_pairs(pairs, chunk) }
            }
        }
    };
}

// The vector tiers' Box–Muller transforms, transcriptions of the scalar
// kernels: four pairs per step in `__m256d` (AVX2), eight in `__m512d`
// (AVX-512). Every lane performs the identical `f64` operation sequence
// (`vfmaddpd` rounds each lane exactly like `vfmaddsd`), so the results are
// bit-equal to the plain body at any length — the
// `every_tier_matches_the_scalar_kernels_over_the_draw_lattice` test pins
// this over the 24-bit draw lattice, strided (every draw under
// `RFL_FASTMATH_EXHAUSTIVE=1`).
//
// Domain note: a pair is two 24-bit draws, so `u1 ∈ [ε, 1)` (always a
// normal positive float on the `logf` main path) and the angle lies in
// `[0, 2π)` (always on the `cosf` fast-reduce path, `n ∈ [0, 4]`); the only
// per-lane branch left is the tiny-angle pin to 1.0, handled by a blend.

/// AVX2: four pairs per step, each lane's `(1/c, log c)` pair fetched by one
/// 128-bit load.
macro_rules! quad_bodies {
    ($features:literal, $V:ty) => {
        /// # Safety
        /// The tier's features, and `out` as long as `pairs`.
        #[target_feature(enable = $features)]
        #[inline]
        pub unsafe fn normals_from_pairs(pairs: &[u64], out: &mut [f32]) {
            debug_assert_eq!(pairs.len(), out.len());
            let full = out.len() / 4 * 4;
            for o in (0..full).step_by(4) {
                debug_assert!(o + 4 <= pairs.len());
                // SAFETY: `o + 4 ≤ full ≤ pairs.len()`: the four pairs at
                // `o` lie inside the block.
                let p = unsafe { _mm256_loadu_si256(pairs.as_ptr().add(o).cast()) };
                // One 64-bit lane per element, k1 in its low half: gather
                // the four k1 into the low 128 bits, the four k2 above.
                let k1_then_k2 = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
                let split = _mm256_permutevar8x32_epi32(p, k1_then_k2);
                let k1 = _mm256_castsi256_si128(split);
                let k2 = _mm256_extracti128_si256::<1>(split);
                let v = quad(k1, k2);
                debug_assert!(o + 4 <= out.len());
                // SAFETY: `out` is as long as `pairs`, so its four elements
                // at `o` lie inside it too.
                unsafe { _mm_storeu_ps(out.as_mut_ptr().add(o), v) };
            }
            normals_from_pairs_plain(&pairs[full..], &mut out[full..]);
        }

        /// Four Box–Muller normals from four raw draw pairs.
        #[target_feature(enable = $features)]
        #[inline]
        fn quad(k1: __m128i, k2: __m128i) -> __m128 {
            // Unit draws: k/2²⁴ exactly (k < 2²⁴ is exact in f32).
            let inv = _mm_set1_ps(1.0 / (1u32 << 24) as f32);
            let unit1 = _mm_mul_ps(_mm_cvtepi32_ps(k1), inv);
            let unit2 = _mm_mul_ps(_mm_cvtepi32_ps(k2), inv);
            let u1 = _mm_add_ps(
                _mm_set1_ps(f32::EPSILON),
                _mm_mul_ps(_mm_set1_ps(1.0 - f32::EPSILON), unit1),
            );

            // ---- logf(u1), four lanes ----
            let ix = _mm_castps_si128(u1);
            let tmp = _mm_sub_epi32(ix, _mm_set1_epi32(0x3f33_0000));
            let idx = _mm_and_si128(_mm_srli_epi32::<19>(tmp), _mm_set1_epi32(0xf));
            // One 128-bit load per lane fetches its `(1/c, log c)` pair. Two
            // four-lane gathers fetch the same values and cost a sixth of
            // the whole fill on CPUs whose microcode serializes gathers.
            let pair = |i: i32| {
                let at = 2 * i as usize;
                debug_assert!(at + 2 <= LOGF_TAB.len());
                // SAFETY: `idx` is masked to 0..16, so the pair at `2·i`
                // lies inside the 32-entry table.
                unsafe { _mm_loadu_pd(LOGF_TAB.as_ptr().add(at)) }
            };
            let lo = (
                pair(_mm_extract_epi32::<0>(idx)),
                pair(_mm_extract_epi32::<1>(idx)),
            );
            let hi = (
                pair(_mm_extract_epi32::<2>(idx)),
                pair(_mm_extract_epi32::<3>(idx)),
            );
            let invc = _mm256_set_m128d(_mm_unpacklo_pd(hi.0, hi.1), _mm_unpacklo_pd(lo.0, lo.1));
            let logc = _mm256_set_m128d(_mm_unpackhi_pd(hi.0, hi.1), _mm_unpackhi_pd(lo.0, lo.1));
            let k = _mm_srai_epi32::<23>(tmp);
            let iz = _mm_sub_epi32(
                ix,
                _mm_and_si128(tmp, _mm_set1_epi32(0xff80_0000u32 as i32)),
            );
            let z = _mm256_cvtps_pd(_mm_castsi128_ps(iz));
            let kd = _mm256_cvtepi32_pd(k);
            let r = _mm256_fmadd_pd(z, invc, _mm256_set1_pd(-1.0));
            let y0 = _mm256_fmadd_pd(kd, _mm256_set1_pd(LOGF_LN2), logc);
            let r2 = _mm256_mul_pd(r, r);
            let y = _mm256_fmadd_pd(_mm256_set1_pd(LOGF_A1), r, _mm256_set1_pd(LOGF_A2));
            let p = _mm256_add_pd(y0, r);
            let y = _mm256_fmadd_pd(_mm256_set1_pd(LOGF_A0), r2, y);
            let ln = _mm256_fmadd_pd(r2, y, p);
            // (−2·ln u1)^½ in f32, exactly as the scalar front-end rounds it.
            let mag = _mm_sqrt_ps(_mm_mul_ps(_mm256_cvtpd_ps(ln), _mm_set1_ps(-2.0)));

            // ---- cosf(2π·u2), four lanes ----
            let ang = _mm_mul_ps(_mm_set1_ps(std::f32::consts::TAU), unit2);
            let top = _mm_and_si128(
                _mm_srli_epi32::<20>(_mm_castps_si128(ang)),
                _mm_set1_epi32(0x7ff),
            );
            let tiny = _mm_cmplt_epi32(top, _mm_set1_epi32(0x398));
            let x = _mm256_cvtps_pd(ang);
            let n0 = _mm256_cvttpd_epi32(_mm256_mul_pd(x, _mm256_set1_pd(HPI_INV)));
            let n = _mm_srai_epi32::<24>(_mm_add_epi32(n0, _mm_set1_epi32(0x0080_0000)));
            let nd = _mm256_cvtepi32_pd(n);
            let rr = _mm256_fmadd_pd(nd, _mm256_set1_pd(-HPI), x);
            let s = _mm256_mul_pd(rr, rr);
            let n64 = _mm256_cvtepi32_epi64(n);
            // Block select: quadrants {0,3} read P0, {1,2} read P1. The
            // blocks differ only in the sign of coefficients 0, 1, 3, 5, 7.
            let use_p0 = _mm256_cmpeq_epi64(
                _mm256_and_si256(n64, _mm256_set1_epi64x(2)),
                _mm256_setzero_si256(),
            );
            let sel = |j: usize| {
                _mm256_blendv_pd(
                    _mm256_set1_pd(SINCOS_P1[j]),
                    _mm256_set1_pd(SINCOS_P0[j]),
                    _mm256_castsi256_pd(use_p0),
                )
            };
            // Even-quadrant polynomial.
            let x4 = _mm256_mul_pd(s, s);
            let te = _mm256_fmadd_pd(sel(1), s, sel(0));
            let ue = _mm256_fmadd_pd(sel(7), s, sel(5));
            let ve = _mm256_mul_pd(s, x4);
            let we = _mm256_fmadd_pd(x4, sel(3), te);
            let even = _mm256_fmadd_pd(ue, ve, we);
            // Odd-quadrant polynomial on the sign-adjusted argument:
            // sign[n&3] < 0 exactly when (n+1) & 2 ≠ 0.
            let negbit = _mm256_slli_epi64::<62>(_mm256_and_si256(
                _mm256_add_epi64(n64, _mm256_set1_epi64x(1)),
                _mm256_set1_epi64x(2),
            ));
            let a = _mm256_xor_pd(rr, _mm256_castsi256_pd(negbit));
            let to = _mm256_fmadd_pd(
                _mm256_set1_pd(SINCOS_P0[6]),
                s,
                _mm256_set1_pd(SINCOS_P0[4]),
            );
            let uo = _mm256_mul_pd(s, a);
            let vo = _mm256_mul_pd(s, uo);
            let wo = _mm256_fmadd_pd(uo, _mm256_set1_pd(SINCOS_P0[2]), a);
            let odd = _mm256_fmadd_pd(to, vo, wo);
            let evenq = _mm256_cmpeq_epi64(
                _mm256_and_si256(n64, _mm256_set1_epi64x(1)),
                _mm256_setzero_si256(),
            );
            let res = _mm256_blendv_pd(odd, even, _mm256_castsi256_pd(evenq));
            let cosv = _mm_blendv_ps(
                _mm256_cvtpd_ps(res),
                _mm_set1_ps(1.0),
                _mm_castsi128_ps(tiny),
            );

            _mm_mul_ps(mag, cosv)
        }
    };
}

/// AVX-512: eight pairs per step, the `logf` table in registers.
macro_rules! octet_bodies {
    ($features:literal, $V:ty) => {
        /// [`LOGF_TAB`] in four registers: `[1/c₀ … 1/c₇]`, `[1/c₈ …
        /// 1/c₁₅]`, `[log c₀ … log c₇]`, `[log c₈ … log c₁₅]`. `vpermt2pd`
        /// reads a pair of registers as one 16-entry table, so a lane's
        /// 4-bit index fetches its entry without touching memory.
        #[derive(Clone, Copy)]
        struct LogTable {
            invc: (__m512d, __m512d),
            logc: (__m512d, __m512d),
        }

        /// # Safety
        /// The tier's features, and `out` as long as `pairs`.
        #[target_feature(enable = $features)]
        #[inline]
        pub unsafe fn normals_from_pairs(pairs: &[u64], out: &mut [f32]) {
            debug_assert_eq!(pairs.len(), out.len());
            const INVC: [f64; 16] = logf_column(0);
            const LOGC: [f64; 16] = logf_column(1);
            // Read through references the optimizer cannot see into: with
            // the values known, LLVM reloads the table from its constant
            // pool inside the loop as each permute's operand. This way the
            // four registers are filled once per call.
            let (invc, logc) = std::hint::black_box((&INVC, &LOGC));
            // SAFETY: each column holds 16 `f64`; the loads read `[0, 8)`
            // and `[8, 16)`.
            let tab = unsafe {
                LogTable {
                    invc: (
                        _mm512_loadu_pd(invc.as_ptr()),
                        _mm512_loadu_pd(invc.as_ptr().add(8)),
                    ),
                    logc: (
                        _mm512_loadu_pd(logc.as_ptr()),
                        _mm512_loadu_pd(logc.as_ptr().add(8)),
                    ),
                }
            };
            // One octet per iteration: two per iteration transformed 1,056
            // pairs in 2.75–2.87 µs against 2.76–2.91 µs for one (medians of
            // 20,000 calls, five alternating runs; EXPERIMENTS.md, "A lazy
            // Gaussian shard"), too little for a second copy of the step.
            let full = out.len() / 8 * 8;
            for o in (0..full).step_by(8) {
                debug_assert!(o + 8 <= pairs.len());
                // SAFETY: `o + 8 ≤ full ≤ pairs.len()`: the eight pairs at
                // `o` lie inside the block.
                let p = unsafe { _mm512_loadu_si512(pairs.as_ptr().add(o).cast()) };
                let k1 = _mm512_cvtepi64_epi32(p);
                let k2 = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(p));
                let v = octet(k1, k2, tab);
                debug_assert!(o + 8 <= out.len());
                // SAFETY: `out` is as long as `pairs`, so its eight elements
                // at `o` lie inside it too.
                unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(o), v) };
            }
            normals_from_pairs_plain(&pairs[full..], &mut out[full..]);
        }

        /// Eight Box–Muller normals from eight raw draw pairs: the AVX2
        /// `quad` lane for lane, with the table read from registers and the
        /// per-lane selections as mask blends.
        #[target_feature(enable = $features)]
        #[inline]
        fn octet(k1: __m256i, k2: __m256i, tab: LogTable) -> __m256 {
            // Unit draws: k/2²⁴ exactly (k < 2²⁴ is exact in f32).
            let inv = _mm256_set1_ps(1.0 / (1u32 << 24) as f32);
            let unit1 = _mm256_mul_ps(_mm256_cvtepi32_ps(k1), inv);
            let unit2 = _mm256_mul_ps(_mm256_cvtepi32_ps(k2), inv);
            let u1 = _mm256_add_ps(
                _mm256_set1_ps(f32::EPSILON),
                _mm256_mul_ps(_mm256_set1_ps(1.0 - f32::EPSILON), unit1),
            );

            // ---- logf(u1), eight lanes ----
            let ix = _mm256_castps_si256(u1);
            let tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(0x3f33_0000));
            let idx = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), _mm256_set1_epi32(0xf));
            let idx = _mm512_cvtepu32_epi64(idx);
            let invc = _mm512_permutex2var_pd(tab.invc.0, idx, tab.invc.1);
            let logc = _mm512_permutex2var_pd(tab.logc.0, idx, tab.logc.1);
            let k = _mm256_srai_epi32::<23>(tmp);
            let iz = _mm256_sub_epi32(
                ix,
                _mm256_and_si256(tmp, _mm256_set1_epi32(0xff80_0000u32 as i32)),
            );
            let z = _mm512_cvtps_pd(_mm256_castsi256_ps(iz));
            let kd = _mm512_cvtepi32_pd(k);
            let r = _mm512_fmadd_pd(z, invc, _mm512_set1_pd(-1.0));
            let y0 = _mm512_fmadd_pd(kd, _mm512_set1_pd(LOGF_LN2), logc);
            let r2 = _mm512_mul_pd(r, r);
            let y = _mm512_fmadd_pd(_mm512_set1_pd(LOGF_A1), r, _mm512_set1_pd(LOGF_A2));
            let p = _mm512_add_pd(y0, r);
            let y = _mm512_fmadd_pd(_mm512_set1_pd(LOGF_A0), r2, y);
            let ln = _mm512_fmadd_pd(r2, y, p);
            // (−2·ln u1)^½ in f32, exactly as the scalar front-end rounds it.
            let mag = _mm256_sqrt_ps(_mm256_mul_ps(_mm512_cvtpd_ps(ln), _mm256_set1_ps(-2.0)));

            // ---- cosf(2π·u2), eight lanes ----
            let ang = _mm256_mul_ps(_mm256_set1_ps(std::f32::consts::TAU), unit2);
            let top = _mm256_and_si256(
                _mm256_srli_epi32::<20>(_mm256_castps_si256(ang)),
                _mm256_set1_epi32(0x7ff),
            );
            let tiny = _mm256_cmplt_epi32_mask(top, _mm256_set1_epi32(0x398));
            let x = _mm512_cvtps_pd(ang);
            let n0 = _mm512_cvttpd_epi32(_mm512_mul_pd(x, _mm512_set1_pd(HPI_INV)));
            let n = _mm256_srai_epi32::<24>(_mm256_add_epi32(n0, _mm256_set1_epi32(0x0080_0000)));
            let nd = _mm512_cvtepi32_pd(n);
            let rr = _mm512_fmadd_pd(nd, _mm512_set1_pd(-HPI), x);
            let s = _mm512_mul_pd(rr, rr);
            // Block select: quadrants {0,3} read P0, {1,2} read P1 (n & 2 set).
            let use_p1 = _mm256_test_epi32_mask(n, _mm256_set1_epi32(2));
            macro_rules! sel {
                ($j:literal) => {
                    _mm512_mask_blend_pd(
                        use_p1,
                        _mm512_set1_pd(SINCOS_P0[$j]),
                        _mm512_set1_pd(SINCOS_P1[$j]),
                    )
                };
            }
            // Even-quadrant polynomial.
            let x4 = _mm512_mul_pd(s, s);
            let te = _mm512_fmadd_pd(sel!(1), s, sel!(0));
            let ue = _mm512_fmadd_pd(sel!(7), s, sel!(5));
            let ve = _mm512_mul_pd(s, x4);
            let we = _mm512_fmadd_pd(x4, sel!(3), te);
            let even = _mm512_fmadd_pd(ue, ve, we);
            // Odd-quadrant polynomial on the sign-adjusted argument:
            // sign[n&3] < 0 exactly when (n+1) & 2 ≠ 0.
            let negative = _mm256_test_epi32_mask(
                _mm256_add_epi32(n, _mm256_set1_epi32(1)),
                _mm256_set1_epi32(2),
            );
            let a = _mm512_mask_xor_pd(rr, negative, rr, _mm512_set1_pd(-0.0));
            let to = _mm512_fmadd_pd(
                _mm512_set1_pd(SINCOS_P0[6]),
                s,
                _mm512_set1_pd(SINCOS_P0[4]),
            );
            let uo = _mm512_mul_pd(s, a);
            let vo = _mm512_mul_pd(s, uo);
            let wo = _mm512_fmadd_pd(uo, _mm512_set1_pd(SINCOS_P0[2]), a);
            let odd = _mm512_fmadd_pd(to, vo, wo);
            let oddq = _mm256_test_epi32_mask(n, _mm256_set1_epi32(1));
            let res = _mm512_mask_blend_pd(oddq, even, odd);
            let cosv = _mm256_mask_blend_ps(tiny, _mm512_cvtpd_ps(res), _mm256_set1_ps(1.0));

            _mm256_mul_ps(mag, cosv)
        }
    };
}

stamp_tiers!(mod { sampler_bodies } avx2 { quad_bodies } avx512 { octet_bodies });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Tier;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::io::Write;

    fn exhaustive() -> bool {
        std::env::var("RFL_FASTMATH_EXHAUSTIVE").is_ok_and(|v| v == "1")
    }

    /// A generator that hands out a fixed list of words through `next_u32`
    /// and panics on any other call, or on one call too many: what
    /// `normal_fill` asks of its generator, and in which order, is part of
    /// its contract.
    struct Scripted {
        words: std::vec::IntoIter<u32>,
    }

    impl Scripted {
        fn new(words: Vec<u32>) -> Self {
            Scripted {
                words: words.into_iter(),
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.words.next().expect("more than two words per element")
        }
        fn next_u64(&mut self) -> u64 {
            panic!("normal_fill draws 32-bit words only")
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            panic!("normal_fill draws 32-bit words only")
        }
    }

    /// All f32 in `[lo, hi)` whose low bits match the stride mask.
    fn sweep(lo: f32, hi: f32, stride: u32, mut f: impl FnMut(f32)) {
        let mut bits = lo.to_bits();
        let hi_bits = hi.to_bits();
        while bits < hi_bits {
            f(f32::from_bits(bits));
            bits += stride;
        }
    }

    #[test]
    fn logf_matches_libm_on_unit_interval() {
        // The Box–Muller u1 domain is [ε, 1); verify the whole positive
        // normal unit interval so no sampler detail can escape coverage.
        let stride = if exhaustive() { 1 } else { 251 };
        let mut checked = 0u64;
        sweep(f32::MIN_POSITIVE, 1.0, stride, |x| {
            assert_eq!(
                logf(x).to_bits(),
                x.ln().to_bits(),
                "logf mismatch at {x} ({:#010x})",
                x.to_bits()
            );
            checked += 1;
        });
        assert!(checked > 1_000_000);
    }

    #[test]
    fn cosf_matches_libm_on_two_pi() {
        // The Box–Muller angle domain is [0, 2π); sweep a little past it.
        let stride = if exhaustive() { 1 } else { 257 };
        let mut checked = 0u64;
        sweep(f32::MIN_POSITIVE, 7.0, stride, |x| {
            assert_eq!(
                cosf(x).to_bits(),
                x.cos().to_bits(),
                "cosf mismatch at {x} ({:#010x})",
                x.to_bits()
            );
            checked += 1;
        });
        assert_eq!(cosf(0.0).to_bits(), 0.0f32.cos().to_bits());
        assert!(checked > 1_000_000);
    }

    #[test]
    fn cosf_matches_libm_on_exact_box_muller_angles() {
        // The angles actually reachable from gen_range(0.0..1.0): 2^24
        // lattice points scaled by 2π. Strided here; exhaustive under the
        // env flag.
        let stride = if exhaustive() { 1 } else { 127 };
        let mut k = 0u32;
        while k < 1 << 24 {
            let u2 = k as f32 / (1u32 << 24) as f32;
            let x = std::f32::consts::TAU * u2;
            assert_eq!(cosf(x).to_bits(), x.cos().to_bits(), "angle {x} (k={k})");
            k += stride;
        }
    }

    /// The tiers this CPU runs. Each one it lacks is reported on stderr
    /// directly, past the test harness's capture, so a CI log says which
    /// tiers ran.
    fn tiers() -> Vec<Tier> {
        let (run, skip): (Vec<Tier>, Vec<Tier>) =
            Tier::ALL.into_iter().partition(|t| t.available());
        for t in skip {
            let _ = writeln!(
                std::io::stderr(),
                "fastmath: skipped the {} tier: this CPU lacks its features",
                t.name()
            );
        }
        run
    }

    // Each tier's instance is called directly, not through the process-wide
    // dispatch, so every tier this CPU has is tested whichever one the
    // process selected, and no lock is needed against tests that switch it.
    // The scalar tier's instance is the one its dispatch runs: the FMA build
    // on a CPU with FMA.

    /// `tier`'s instance of [`normal_fill`].
    fn fill_on<R: Rng>(tier: Tier, rng: &mut R, out: &mut [f32]) {
        on_tier!(tier, normal_fill => normal_fill_plain(rng, out))
    }

    /// `tier`'s instance of [`normals_from_pairs`].
    fn transform_on(tier: Tier, pairs: &[u64], out: &mut [f32]) {
        assert_eq!(pairs.len(), out.len());
        on_tier!(tier, normals_from_pairs => normals_from_pairs_plain(pairs, out))
    }

    /// A fixed permutation of the 24-bit draw lattice (an odd multiplier
    /// modulo 2²⁴): the `k2` drawn beside each `k1`.
    fn partner(k1: u32) -> u32 {
        k1.wrapping_mul(0x9E37_79B1) & 0xff_ffff
    }

    #[test]
    fn every_tier_matches_the_scalar_kernels_over_the_draw_lattice() {
        // Every tier's `normal_fill` against the plain kernels, bitwise,
        // over raw 24-bit draw pairs `(k1, partner(k1))`: every 4,099th
        // `k1`, or every one under RFL_FASTMATH_EXHAUSTIVE=1 (16.7 M pairs
        // per tier; run it in release). Then the lattice's ends against
        // each other, and the `k2`s around the last angle pinned to 1.0
        // (651).
        let stride = if exhaustive() { 1 } else { 4099 };
        let ends = [0, 1, 2, 651, 652, 653, (1 << 24) - 1];
        let edges = ends.iter().flat_map(|&a| ends.map(|b| (a, b)));
        let mut pairs = (0..1u32 << 24)
            .step_by(stride)
            .map(|k1| (k1, partner(k1)))
            .chain(edges)
            .peekable();
        let tiers = tiers();
        while pairs.peek().is_some() {
            let chunk: Vec<(u32, u32)> = pairs.by_ref().take(1 << 16).collect();
            let units = |&(k1, k2): &(u32, u32)| (u1_from_bits(k1), unit_f32(k2));
            let want: Vec<u32> = (chunk.iter().map(units))
                .map(|(u1, u2)| normal_from_units_plain(u1, u2).to_bits())
                .collect();
            // `normal_fill` shifts each word right by eight, in draw order.
            let words: Vec<u32> = chunk.iter().flat_map(|&(a, b)| [a << 8, b << 8]).collect();
            let packed: Vec<u64> = chunk
                .iter()
                .map(|&(a, b)| a as u64 | (b as u64) << 32)
                .collect();
            for &tier in &tiers {
                let mut rng = Scripted::new(words.clone());
                let mut out = vec![0.0f32; chunk.len()];
                fill_on(tier, &mut rng, &mut out);
                assert!(
                    rng.words.next().is_none(),
                    "{}: words left over",
                    tier.name()
                );
                let mut transformed = vec![0.0f32; chunk.len()];
                transform_on(tier, &packed, &mut transformed);
                for (((pair, &w), o), t) in chunk.iter().zip(&want).zip(&out).zip(&transformed) {
                    assert_eq!(
                        o.to_bits(),
                        w,
                        "{} normal_fill, draw pair {pair:?}",
                        tier.name()
                    );
                    assert_eq!(
                        t.to_bits(),
                        w,
                        "{} normals_from_pairs, draw pair {pair:?}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_draws_two_words_per_element_in_order_and_matches_the_scalar_kernels() {
        // Every length from none to two blocks and an octet (every tail
        // behind every count of octets and quads, in the first, second and
        // third block), one lazy client's shard (32 × 32), and its shift plus
        // shard with a tail of three.
        for tier in tiers() {
            let mut stream = StdRng::seed_from_u64(7);
            for len in (0..=2 * BLOCK + 8).chain([1024, 1056 + 3]) {
                let words: Vec<u32> = (0..2 * len).map(|_| stream.next_u32()).collect();
                let mut rng = Scripted::new(words.clone());
                let mut out = vec![0.0f32; len];
                fill_on(tier, &mut rng, &mut out);
                let name = tier.name();
                assert!(
                    rng.words.next().is_none(),
                    "{name} len {len}: words left over"
                );
                for (i, pair) in words.chunks_exact(2).enumerate() {
                    let (u1, u2) = (u1_from_bits(pair[0] >> 8), unit_f32(pair[1] >> 8));
                    let want = normal_from_units_plain(u1, u2);
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "{name} len {len}, element {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_fill_split_in_two_at_any_offset_equals_one_fill() {
        // Two calls on one generator, the first ending at every offset of the
        // first block and of the second: the same values as one call, and
        // every word drawn (a block must not draw ahead of its elements).
        let len = 2 * BLOCK + 8;
        let mut stream = StdRng::seed_from_u64(11);
        let words: Vec<u32> = (0..2 * len).map(|_| stream.next_u32()).collect();
        for tier in tiers() {
            let mut whole = vec![0.0f32; len];
            fill_on(tier, &mut Scripted::new(words.clone()), &mut whole);
            for cut in 0..=2 * BLOCK {
                let mut rng = Scripted::new(words.clone());
                let mut out = vec![0.0f32; len];
                let (head, tail) = out.split_at_mut(cut);
                fill_on(tier, &mut rng, head);
                fill_on(tier, &mut rng, tail);
                let name = tier.name();
                assert!(
                    rng.words.next().is_none(),
                    "{name} cut {cut}: words left over"
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&whole), "{name} cut {cut}");
            }
        }
    }

    #[test]
    fn drawn_pairs_transform_to_the_fill_at_any_offset_and_length() {
        // `draw_normal_pairs` leaves the generator where a fill does, and any
        // stretch of its pairs, at any alignment, transforms to the fill's
        // values there: what a lazy shard's gather of one row relies on.
        let len = 2 * BLOCK + 8;
        for tier in tiers() {
            let mut a = StdRng::seed_from_u64(13);
            let mut b = a.clone();
            let mut filled = vec![0.0f32; len];
            fill_on(tier, &mut a, &mut filled);
            let mut pairs = vec![0u64; len];
            draw_normal_pairs(&mut b, &mut pairs);
            let name = tier.name();
            assert_eq!(a.next_u32(), b.next_u32(), "{name}: the streams part");
            for lo in 0..=BLOCK / 4 {
                for hi in (lo..=len).step_by(7) {
                    let mut out = vec![0.0f32; hi - lo];
                    transform_on(tier, &pairs[lo..hi], &mut out);
                    for (i, (o, f)) in out.iter().zip(&filled[lo..hi]).enumerate() {
                        assert_eq!(o.to_bits(), f.to_bits(), "{name} [{lo}, {hi}) at {i}");
                    }
                }
            }
        }
    }

    /// One Box–Muller step through the uniform sampler: the scalar sampler
    /// the workspace drew from before [`normal_fill`], and the oracle of
    /// its stream.
    fn normal_sample<R: Rng>(rng: &mut R) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        normal_from_units_plain(u1, u2)
    }

    #[test]
    fn every_tier_matches_the_normal_sample_stream() {
        // Ragged lengths 0..300 off one generator each, and 1,000: every
        // element equals the uniform sampler's Box–Muller step, and the two
        // streams end at the same position.
        for tier in tiers() {
            for len in (0..300).chain([1000]) {
                let mut a = StdRng::seed_from_u64(42 + len as u64);
                let mut b = a.clone();
                let mut batch = vec![0.0f32; len];
                fill_on(tier, &mut a, &mut batch);
                for (i, &v) in batch.iter().enumerate() {
                    let want = normal_sample(&mut b);
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "{} len {len}, element {i}",
                        tier.name()
                    );
                }
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{} len {len}", tier.name());
            }
        }
    }
}
