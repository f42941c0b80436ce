//! Bit-exact inlined ports of the libm `logf`/`cosf` kernels used by
//! Box–Muller sampling.
//!
//! `normal_sample` spends most of its time in two PLT calls (`logf`, `cosf`).
//! At million-client scale the synthetic data regenerated on every
//! materialization makes those calls the single hottest instruction stream in
//! a round, so this module ports the exact computation those calls perform —
//! the ARM optimized-routines `logf` and `sincosf` kernels that glibc ships
//! (unchanged since 2.28), in their FMA form — as inlinable Rust.
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
//! [`normal_fill`] and [`normal_from_units`] are tier kernels: each call runs
//! the instance of the tier `simd::simd_tier()` selects, like every kernel in
//! `simd.rs`, so `RFL_SIMD=0` reaches them too. That selection is the only
//! dispatch point; this module asks the CPU nothing itself.
//!
//! - **scalar**: the plain bodies, one element at a time. They are the
//!   definition. On a CPU with FMA the scalar tier runs them compiled with
//!   it (`mod fma`), so a `mul_add` is one `vfmadd` instead of a call into
//!   libm's `fma()`.
//! - **avx2**: four elements per step, `f64` internals in `__m256d`. Each
//!   lane's `(1/c, log c)` pair comes from one 128-bit load.
//! - **avx512**: eight elements per step in `__m512d`. The 16-entry `logf`
//!   table lives in four `zmm` registers for the whole fill, and each step
//!   reads it with two `vpermt2pd` (`_mm512_permutex2var_pd`), not loads.
//!
//! The two vector bodies are stamped by `simd::stamp_tiers!` like every
//! intrinsic body, with the tier's register type choosing the body
//! (`lanes::Lanes`). Every lane runs the plain body's operation sequence
//! (the same fused steps, conversions and square root, and the same pin of a
//! tiny angle to 1.0), so every tier returns the plain body's bits. Every
//! tier also draws the same words in the same order, two per element, so the
//! generator ends where the plain body leaves it.

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
            // SAFETY: a tier only runs on a CPU that has its features (the
            // dispatch selects only such a tier, the tests only call those),
            // and the FMA build only on a CPU with FMA.
            match $tier {
                Tier::Avx512 => return unsafe { avx512::$name($($arg),*) },
                Tier::Avx2 => return unsafe { avx2::$name($($arg),*) },
                Tier::Scalar if hardware_fma() => return unsafe { fma::$name($($arg),*) },
                Tier::Scalar => {}
            }
        }
        $plain($($arg),*)
    }};
}

/// One standard normal from the two unit draws of a Box–Muller step, bits
/// identical to `(-2·ln u1)^½ · cos(2π·u2)` through libm.
#[inline]
pub fn normal_from_units(u1: f32, u2: f32) -> f32 {
    on_tier!(crate::simd::simd_tier(), normal_from_units => normal_from_units_plain(u1, u2))
}

/// [`normal_from_units`], the plain body.
#[inline(always)]
fn normal_from_units_plain(u1: f32, u2: f32) -> f32 {
    (-2.0 * logf(u1)).sqrt() * cosf(std::f32::consts::TAU * u2)
}

/// Fills `out` with standard normals, drawing `(u1, u2)` per element in the
/// exact order `normal_sample` does — two `next_u32` calls per element and
/// nothing else — so the RNG stream, and therefore every downstream value,
/// is unchanged. The unit draws are reconstructed from the raw 24-bit words
/// exactly as the uniform sampler builds them (`lo + (hi−lo)·(k/2²⁴)`).
/// A vector tier draws the words of four (AVX2) or eight (AVX-512) elements
/// and runs the transcendental kernels on them in one register, so the
/// generator's serial integer chain for the next elements overlaps the
/// vector math of these (drawing a whole batch first left the two taking
/// turns); the plain body covers the tail bit-identically.
pub fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
    on_tier!(crate::simd::simd_tier(), normal_fill => normal_fill_plain(rng, out))
}

/// [`normal_fill`], the plain body: one element at a time, its two raw
/// draws, then the scalar kernels.
#[inline(always)]
fn normal_fill_plain<R: Rng>(rng: &mut R, out: &mut [f32]) {
    for o in out {
        let (k1, k2) = (rng.next_u32() >> 8, rng.next_u32() >> 8);
        *o = normal_from_units_plain(u1_from_bits(k1), unit_f32(k2));
    }
}

/// The next element's two draws as one 64-bit lane, `k1` in the low half:
/// the two `next_u32` calls [`normal_fill_plain`] makes for it, in its
/// order.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn draw_pair<R: Rng>(rng: &mut R) -> i64 {
    let (k1, k2) = (rng.next_u32() >> 8, rng.next_u32() >> 8);
    (k1 as u64 | (k2 as u64) << 32) as i64
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

    #[target_feature(enable = "fma")]
    pub unsafe fn normal_from_units(u1: f32, u2: f32) -> f32 {
        normal_from_units_plain(u1, u2)
    }

    #[target_feature(enable = "fma")]
    pub unsafe fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
        normal_fill_plain(rng, out)
    }
}

/// A vector tier's instances: the plain [`normal_from_units`] compiled
/// under the tier's features, and [`normal_fill`] as the tier's lane body,
/// which the tier's register type `$V` picks ([`lanes::Lanes`]).
macro_rules! sampler_bodies {
    ($features:literal, $V:ty) => {
        #[target_feature(enable = $features)]
        pub unsafe fn normal_from_units(u1: f32, u2: f32) -> f32 {
            normal_from_units_plain(u1, u2)
        }

        #[target_feature(enable = $features)]
        pub unsafe fn normal_fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
            <$V as lanes::Lanes>::fill(rng, out)
        }
    };
}

stamp_tiers!(mod { sampler_bodies });

/// The vector tiers' Box–Muller bodies, transcriptions of the scalar
/// kernels. Every lane performs the identical `f64` operation sequence
/// (`vfmaddpd` rounds each lane exactly like `vfmaddsd`), so the results
/// are bit-equal to the plain body at any length — the
/// `every_tier_matches_the_scalar_kernels_over_the_draw_lattice` test pins
/// this over the 24-bit draw lattice, strided (every draw under
/// `RFL_FASTMATH_EXHAUSTIVE=1`).
///
/// Domain note: these bodies are only reachable from `normal_fill`, whose
/// draws guarantee `u1 ∈ [ε, 1)` (always a normal positive float on the
/// `logf` main path) and an angle in `[0, 2π)` (always on the `cosf`
/// fast-reduce path, `n ∈ [0, 4]`), so the only per-lane branch left is the
/// tiny-angle pin to 1.0, handled by a blend.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::*;
    use std::arch::x86_64::*;

    /// A vector tier's [`normal_fill`](super::normal_fill) body, on the
    /// tier's widest `f32` register type: `__m256` for AVX2, `__m512` for
    /// AVX-512.
    ///
    /// # Safety
    /// `fill` requires its tier's features; it is only ever inlined into
    /// the tier's `#[target_feature]` instance.
    pub(super) trait Lanes {
        unsafe fn fill<R: Rng>(rng: &mut R, out: &mut [f32]);
    }

    /// AVX2: four elements per step.
    impl Lanes for __m256 {
        #[inline(always)]
        unsafe fn fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
            let mut quads = out.chunks_exact_mut(4);
            for q in &mut quads {
                // Draw order: element 0's k1, its k2, element 1's k1, ... —
                // one 64-bit lane per element, k1 in its low half (four
                // moves into vector registers instead of eight).
                let pairs = _mm256_setr_epi64x(
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                );
                let k1_then_k2 = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
                let split = _mm256_permutevar8x32_epi32(pairs, k1_then_k2);
                let k1 = _mm256_castsi256_si128(split);
                let k2 = _mm256_extracti128_si256::<1>(split);
                _mm_storeu_ps(q.as_mut_ptr(), quad(k1, k2));
            }
            normal_fill_plain(rng, quads.into_remainder());
        }
    }

    /// Four Box–Muller normals from four raw draw pairs.
    #[inline(always)]
    unsafe fn quad(k1: __m128i, k2: __m128i) -> __m128 {
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
        // four-lane gathers fetch the same values and cost a sixth of the
        // whole fill on CPUs whose microcode serializes gathers.
        // SAFETY: `idx` is masked to 0..16, so every pair lies inside the
        // 32-entry table.
        let pair = |i: i32| _mm_loadu_pd(LOGF_TAB.as_ptr().add(2 * i as usize));
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
        // Block select: quadrants {0,3} read P0, {1,2} read P1. The blocks
        // differ only in the sign of coefficients 0, 1, 3, 5, 7.
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

    /// [`LOGF_TAB`] in four registers: `[1/c₀ … 1/c₇]`, `[1/c₈ … 1/c₁₅]`,
    /// `[log c₀ … log c₇]`, `[log c₈ … log c₁₅]`. `vpermt2pd` reads a pair of
    /// registers as one 16-entry table, so a lane's 4-bit index fetches its
    /// entry without touching memory.
    #[derive(Clone, Copy)]
    struct LogTable {
        invc: (__m512d, __m512d),
        logc: (__m512d, __m512d),
    }

    /// AVX-512: eight elements per step, the table in registers.
    impl Lanes for __m512 {
        #[inline(always)]
        unsafe fn fill<R: Rng>(rng: &mut R, out: &mut [f32]) {
            const INVC: [f64; 16] = logf_column(0);
            const LOGC: [f64; 16] = logf_column(1);
            // Read through references the optimizer cannot see into: with
            // the values known, LLVM reloads the table from its constant
            // pool inside the loop as each permute's operand. This way the
            // four registers are filled once per call.
            let (invc, logc) = std::hint::black_box((&INVC, &LOGC));
            let tab = LogTable {
                invc: (
                    _mm512_loadu_pd(invc.as_ptr()),
                    _mm512_loadu_pd(invc.as_ptr().add(8)),
                ),
                logc: (
                    _mm512_loadu_pd(logc.as_ptr()),
                    _mm512_loadu_pd(logc.as_ptr().add(8)),
                ),
            };
            // One octet per iteration: two per iteration read 4.5–4.7 µs per
            // 1,056 normals against 3.9 µs (`lazy_cycle`'s sampler row).
            let mut octets = out.chunks_exact_mut(8);
            for o in &mut octets {
                // Draw order as in the AVX2 body: one 64-bit lane per
                // element, k1 in its low half, built in registers.
                let pairs = _mm512_setr_epi64(
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                    draw_pair(rng),
                );
                let k1 = _mm512_cvtepi64_epi32(pairs);
                let k2 = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(pairs));
                _mm256_storeu_ps(o.as_mut_ptr(), octet(k1, k2, tab));
            }
            normal_fill_plain(rng, octets.into_remainder());
        }
    }

    /// Eight Box–Muller normals from eight raw draw pairs: [`quad`] lane for
    /// lane, with the table read from registers and the per-lane selections
    /// as mask blends.
    #[inline(always)]
    unsafe fn octet(k1: __m256i, k2: __m256i, tab: LogTable) -> __m256 {
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
}

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

    /// `tier`'s instance of [`normal_from_units`].
    fn units_on(tier: Tier, u1: f32, u2: f32) -> f32 {
        on_tier!(tier, normal_from_units => normal_from_units_plain(u1, u2))
    }

    /// A fixed permutation of the 24-bit draw lattice (an odd multiplier
    /// modulo 2²⁴): the `k2` drawn beside each `k1`.
    fn partner(k1: u32) -> u32 {
        k1.wrapping_mul(0x9E37_79B1) & 0xff_ffff
    }

    #[test]
    fn every_tier_matches_the_scalar_kernels_over_the_draw_lattice() {
        // Every tier's `normal_fill` and `normal_from_units` against the
        // plain kernels, bitwise, over raw 24-bit draw pairs `(k1,
        // partner(k1))`: every 4,099th `k1`, or every one under
        // RFL_FASTMATH_EXHAUSTIVE=1 (16.7 M pairs per tier; run it in
        // release). Then the lattice's ends against each other, and the
        // `k2`s around the last angle pinned to 1.0 (651).
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
            for &tier in &tiers {
                let mut rng = Scripted::new(words.clone());
                let mut out = vec![0.0f32; chunk.len()];
                fill_on(tier, &mut rng, &mut out);
                assert!(
                    rng.words.next().is_none(),
                    "{}: words left over",
                    tier.name()
                );
                for ((pair, &w), o) in chunk.iter().zip(&want).zip(&out) {
                    let (u1, u2) = units(pair);
                    let one = units_on(tier, u1, u2);
                    assert_eq!(
                        o.to_bits(),
                        w,
                        "{} normal_fill, draw pair {pair:?}",
                        tier.name()
                    );
                    assert_eq!(
                        one.to_bits(),
                        w,
                        "{} normal_from_units, {pair:?}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_draws_two_words_per_element_in_order_and_matches_the_scalar_kernels() {
        // Every tail length behind 0..=8 octets (and 0..=17 quads), one lazy
        // client's shard (32 × 32), and its shift plus shard with a tail of
        // three.
        for tier in tiers() {
            let mut stream = StdRng::seed_from_u64(7);
            for len in (0..=70).chain([1024, 1056 + 3]) {
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
    fn every_tier_matches_the_normal_sample_stream() {
        // Ragged lengths 0..300 off one generator each, and 1,000: every
        // element equals `normal_sample`'s, and the two streams end at the
        // same position.
        for tier in tiers() {
            for len in (0..300).chain([1000]) {
                let mut a = StdRng::seed_from_u64(42 + len as u64);
                let mut b = a.clone();
                let mut batch = vec![0.0f32; len];
                fill_on(tier, &mut a, &mut batch);
                for (i, &v) in batch.iter().enumerate() {
                    let want = crate::init::normal_sample(&mut b);
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
