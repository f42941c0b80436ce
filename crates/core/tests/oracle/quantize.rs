//! The oracle the quantized wire stage is pinned against: the per-value
//! loops `rfl_core::compress` ran before its quantizer became two passes
//! and a lift table — a `round` per code, a division per lifted value, the
//! bit packer at every width, and a sender that decodes its own payload to
//! get the residual.
//!
//! One line differs from those loops: the extent folds with an explicit
//! `v < m` / `v > m` where they folded with `f32::min` / `f32::max`. Those
//! leave the sign of a zero result open, and the library's release build
//! vectorized the fold into lanes while an opt-level-1 build ran it in
//! order, so the two builds wrote different `min` / `max` words for a
//! vector whose extremum is a zero of both signs. The explicit compare
//! keeps the first of equal values, as the in-order fold did, in every
//! build.

use rfl_core::compress::{AnyCompressor, CompressedVec, Compression};

/// The width of the quantizer `comp` is, `None` for another codec. The
/// field is private, so this reads the `Debug` form.
pub fn quantizer_bits(comp: &AnyCompressor) -> Option<u8> {
    let form = format!("{comp:?}");
    (1..=8u8).find(|&bits| {
        let q = Compression::Quantize { bits }.for_upload(&[]);
        q.is_some_and(|q| format!("{q:?}") == form)
    })
}

/// Quantizes `values` at `bits` into `out`'s sections: the codes in
/// `bytes`, `[min, max, levels]` in `words_f32`.
pub fn compress_into(bits: u8, values: &[f32], out: &mut CompressedVec) {
    let min = values
        .iter()
        .copied()
        .fold(f32::INFINITY, |m, v| if v < m { v } else { m });
    let max = values
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, |m, v| if v > m { v } else { m });
    let range = (max - min).max(1e-12);
    let levels = ((1u32 << bits) - 1) as f32;
    let code = |v: f32| (((v - min) / range) * levels).round() as u16;
    out.bytes.clear();
    out.bytes
        .reserve((values.len() * bits as usize).div_ceil(8));
    // LSB-first bitstream: each code occupies exactly `bits` bits, with the
    // final byte zero-padded.
    let mut acc: u16 = 0;
    let mut filled: u32 = 0;
    for &v in values {
        acc |= code(v) << filled;
        filled += u32::from(bits);
        while filled >= 8 {
            out.bytes.push(acc as u8);
            acc >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        out.bytes.push(acc as u8);
    }
    out.words_u32.clear();
    out.words_f32.clear();
    out.words_f32.extend_from_slice(&[min, max, levels]);
}

/// Lifts `len` codes back onto the payload's range; `false` unless the
/// payload holds exactly `[min, max, levels]` for `bits` and
/// `ceil(len · bits / 8)` code bytes.
pub fn decompress_into(bits: u8, payload: &CompressedVec, len: usize, out: &mut Vec<f32>) -> bool {
    let levels = ((1u32 << bits) - 1) as f32;
    let &[min, max, described] = payload.words_f32.as_slice() else {
        return false;
    };
    let code_bytes = len.checked_mul(bits.into()).map(|b| b.div_ceil(8));
    if described != levels || code_bytes != Some(payload.bytes.len()) {
        return false;
    }
    let range = (max - min).max(1e-12);
    let lift = |c: u16| min + (c as f32 / levels) * range;
    out.clear();
    out.reserve(len);
    let mask: u16 = (1u16 << bits) - 1;
    let mut acc: u16 = 0;
    let mut filled: u32 = 0;
    let mut feed = payload.bytes.iter();
    for _ in 0..len {
        while filled < u32::from(bits) {
            acc |= u16::from(*feed.next().expect("code underrun")) << filled;
            filled += 8;
        }
        out.push(lift(acc & mask));
        acc >>= bits;
        filled -= u32::from(bits);
    }
    true
}

/// Error feedback as one loop over a compress, the sender's own decode and
/// a subtraction. Quantizers run this file's codec; top-k and the sketch
/// run the library's, whose bodies did not change.
pub fn ef_compress_update(
    policy: Compression,
    params: &[f32],
    global: &[f32],
    residual: &mut Vec<f32>,
    update: &mut Vec<f32>,
    recon: &mut Vec<f32>,
    payload: &mut CompressedVec,
) {
    let d = params.len();
    assert_eq!(global.len(), d, "global/params dimension mismatch");
    let feedback = !matches!(policy, Compression::None | Compression::Sketch { .. });
    if residual.len() != d || !feedback {
        residual.clear();
        residual.resize(d, 0.0);
    }
    update.clear();
    update.extend(
        params
            .iter()
            .zip(global)
            .zip(residual.iter())
            .map(|((&p, &g), &r)| p - g + r),
    );
    let comp = policy.for_upload(update).expect("compression enabled");
    let decoded = match quantizer_bits(&comp) {
        Some(bits) => {
            compress_into(bits, update, payload);
            decompress_into(bits, payload, d, recon)
        }
        None => {
            comp.compress_into(update, payload);
            comp.decompress_into(payload, d, recon)
        }
    };
    assert!(decoded, "a payload decodes on its own sender");
    if feedback {
        for (r, (&u, &c)) in residual.iter_mut().zip(update.iter().zip(recon.iter())) {
            *r = u - c;
        }
    }
}

/// The receiver: the width `policy` reads for `payload` (an adaptive
/// policy reads it from the payload's level count), the decode, then the
/// global added in a second pass. `false` where the library must refuse.
pub fn decode_upload_into(
    policy: Compression,
    payload: &CompressedVec,
    global: &[f32],
    out: &mut Vec<f32>,
) -> bool {
    let bits = match policy {
        Compression::Quantize { bits } => Some(bits),
        Compression::Adaptive { .. } => payload
            .words_f32
            .get(2)
            .and_then(|&levels| (1..=8u8).find(|&b| ((1u32 << b) - 1) as f32 == levels)),
        _ => None,
    };
    let Some(bits) = bits else {
        return false;
    };
    if !decompress_into(bits, payload, global.len(), out) {
        return false;
    }
    for (o, &g) in out.iter_mut().zip(global) {
        *o += g;
    }
    true
}
