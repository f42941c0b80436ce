//! Property tests for the compression wire stage: the `CompressedVec`
//! codec must be bit-lossless for every section shape (including raw NaN
//! and infinity bit patterns), every compressor backend must round-trip
//! ragged lengths into dirty reused buffers exactly as into fresh ones, no
//! payload may panic the decoder, and error feedback must leave no residual
//! when the compressor reconstructs exactly.

use proptest::prelude::*;
use rfl_core::compress::{
    decode_upload_into, ef_compress_update, AnyCompressor, CompressedVec, Compression,
};

/// Full-bit-pattern floats: `from_bits` of an arbitrary `u32`, so NaN
/// payloads, infinities, and subnormals all appear.
fn raw_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

/// Every enabled policy variant, each constrained to the range the wire
/// validation accepts. Sketch rows are drawn odd from a range twice the
/// cap and kept when `Compression::parse` (the wire validation) accepts
/// them, so every row count it accepts is one the decoder must decode.
fn enabled_policy() -> impl Strategy<Value = Compression> {
    prop_oneof![
        (1u8..=8).prop_map(|bits| Compression::Quantize { bits }),
        (1u32..=1000).prop_map(|r| Compression::TopK {
            ratio: r as f32 / 1000.0
        }),
        (0u16..64, 1u32..=512, any::<u64>())
            .prop_map(|(r, cols, seed)| Compression::Sketch {
                rows: 2 * r + 1,
                cols,
                seed,
            })
            .prop_filter("the wire validation accepts it", |p| {
                let Compression::Sketch { rows, cols, seed } = *p else {
                    unreachable!("a sketch policy")
                };
                Compression::parse(&format!("sketch:{rows}:{cols}:{seed}")) == Some(*p)
            }),
        (1u8..=8).prop_map(|max_bits| Compression::Adaptive { max_bits }),
    ]
}

/// `comp`'s payload for `values` and its reconstruction, through fresh
/// buffers.
fn round_trip(comp: AnyCompressor, values: &[f32]) -> (CompressedVec, Vec<f32>) {
    let (mut payload, mut recon) = (CompressedVec::default(), Vec::new());
    comp.compress_into(values, &mut payload);
    assert!(comp.decompress_into(&payload, values.len(), &mut recon));
    (payload, recon)
}

/// One section of a tampered payload: the honest one (`mode` 0), `junk`
/// instead (1), the honest one an element short (2), or with `junk`
/// appended (3).
fn tamper<T: Clone>(honest: &mut Vec<T>, mode: u8, junk: &[T]) {
    match mode {
        0 => {}
        1 => *honest = junk.to_vec(),
        2 => {
            honest.pop();
        }
        _ => honest.extend_from_slice(junk),
    }
}

proptest! {
    /// `encode_into` → `decode_from` reproduces every section bit-for-bit,
    /// for any section shape, and the encoded length is exactly
    /// `wire_bytes()` — the definition CommStats charges by.
    #[test]
    fn codec_frame_round_trips_bit_exactly(
        words_u32 in prop::collection::vec(any::<u32>(), 0..64),
        words_f32 in prop::collection::vec(raw_f32(), 0..64),
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let payload = CompressedVec { words_u32, words_f32, bytes };
        let mut body = Vec::new();
        payload.encode_into(&mut body);
        prop_assert_eq!(body.len(), payload.wire_bytes());

        // Decode into a dirty buffer — section reuse must not leak.
        let mut back = CompressedVec {
            words_u32: vec![0xDEAD_BEEF; 3],
            words_f32: vec![f32::NAN; 5],
            bytes: vec![7; 9],
        };
        prop_assert!(back.decode_from(&body));
        prop_assert_eq!(&back.words_u32, &payload.words_u32);
        prop_assert_eq!(&back.bytes, &payload.bytes);
        let a: Vec<u32> = back.words_f32.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = payload.words_f32.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b, "f32 section must survive as raw bits");

        // Truncated and padded frames are rejected, never mis-parsed.
        if !body.is_empty() {
            prop_assert!(!back.decode_from(&body[..body.len() - 1]));
        }
        let mut padded = body.clone();
        padded.push(0);
        prop_assert!(!back.decode_from(&padded));
    }

    /// Every backend, over ragged lengths: reconstruction has the original
    /// length, compressing and decompressing into dirty reused buffers gives
    /// the bits of fresh ones, and the payload survives its own frame
    /// encoding.
    #[test]
    fn compressor_round_trips_ragged_lengths(
        policy in enabled_policy(),
        values in finite_vec(200),
    ) {
        let comp = policy.for_upload(&values).unwrap();
        let (payload, recon) = round_trip(comp, &values);
        prop_assert_eq!(recon.len(), values.len());

        let mut pooled = CompressedVec {
            words_u32: vec![9; 5],
            words_f32: vec![f32::NAN; 700],
            bytes: vec![3; 2],
        };
        comp.compress_into(&values, &mut pooled);
        prop_assert_eq!(payload.words_u32.clone(), pooled.words_u32.clone());
        let pf: Vec<u32> = payload.words_f32.iter().map(|v| v.to_bits()).collect();
        let qf: Vec<u32> = pooled.words_f32.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pf, qf);
        prop_assert_eq!(payload.bytes.clone(), pooled.bytes.clone());

        let mut recon_pooled = vec![f32::NAN; 7];
        prop_assert!(comp.decompress_into(&payload, values.len(), &mut recon_pooled));
        prop_assert_eq!(recon.clone(), recon_pooled);

        // The frame the transports ship decodes back to the same payload.
        let mut body = Vec::new();
        payload.encode_into(&mut body);
        let decoded = CompressedVec::decode(&body).unwrap();
        let mut back = Vec::new();
        prop_assert!(comp.decompress_into(&decoded, values.len(), &mut back));
        prop_assert_eq!(recon, back, "reconstruction changed across the wire");
    }

    /// No payload panics the decoder: an honest payload with any of its
    /// sections replaced, cut short or padded with arbitrary words either
    /// decodes to exactly `len` values or is refused. Half the cases tamper
    /// the two word sections alike with junk of one length, so top-k's
    /// index check is reached past its length check.
    #[test]
    fn no_payload_panics_the_decoder(
        policy in enabled_policy(),
        values in finite_vec(200),
        modes in (0u8..4, 0u8..4, 0u8..4, any::<bool>()),
        words in prop::collection::vec((prop_oneof![0u32..256, any::<u32>()], raw_f32()), 0..64),
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let comp = policy.for_upload(&values).unwrap();
        let mut payload = round_trip(comp, &values).0;
        let (words_u32, words_f32): (Vec<u32>, Vec<f32>) = words.into_iter().unzip();
        let (mode_u32, mode_f32) = if modes.3 { (modes.0, modes.0) } else { (modes.0, modes.1) };
        tamper(&mut payload.words_u32, mode_u32, &words_u32);
        tamper(&mut payload.words_f32, mode_f32, &words_f32);
        tamper(&mut payload.bytes, modes.2, &bytes);
        let global = vec![0.5f32; values.len()];
        let mut out = vec![f32::NAN; 3];
        if decode_upload_into(policy, &payload, &global, &mut out) {
            prop_assert_eq!(out.len(), values.len());
        }
    }

    /// Quantized reconstruction error is bounded by half a quantization
    /// step per coordinate — the resolution the bit width promises.
    #[test]
    fn quantizer_error_is_within_half_a_step(
        bits in 1u8..=8,
        values in finite_vec(200),
    ) {
        let policy = Compression::Quantize { bits };
        let recon = round_trip(policy.for_upload(&values).unwrap(), &values).1;
        let (min, max) = values
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let levels = (1u32 << bits) - 1;
        let step = if levels == 0 { 0.0 } else { (max - min) / levels as f32 };
        let tol = 0.5 * step + 1e-4 * (max - min).abs().max(1.0);
        for (v, r) in values.iter().zip(&recon) {
            prop_assert!((v - r).abs() <= tol, "{v} vs {r} (tol {tol})");
        }
    }

    /// Error feedback on an exactly-representable update leaves a zero
    /// residual: a constant update quantizes losslessly (min == max), so
    /// `residual = update − recon` must be exactly zero everywhere.
    #[test]
    fn ef_residual_is_zero_when_reconstruction_is_exact(
        bits in 1u8..=8,
        c in -50.0f32..50.0,
        global in finite_vec(100),
    ) {
        let policy = Compression::Quantize { bits };
        let params: Vec<f32> = global.iter().map(|g| g + c).collect();
        let mut residual = Vec::new();
        let (mut update, mut recon) = (Vec::new(), Vec::new());
        let mut payload = CompressedVec::default();
        ef_compress_update(
            policy, &params, &global, &mut residual, &mut update, &mut recon, &mut payload,
        );
        // The update is p − g + 0; constant only if p − g is. f32 addition
        // makes g + c − g vary per coordinate, so assert the real contract:
        // whenever the reconstruction is exact the residual is exactly zero,
        // and the residual always equals update − recon bit-for-bit.
        for ((&u, &r), &res) in update.iter().zip(&recon).zip(&residual) {
            prop_assert_eq!(res.to_bits(), (u - r).to_bits());
            if u == r {
                prop_assert_eq!(res.to_bits(), 0.0f32.to_bits());
            }
        }
        // The genuinely-constant case: every coordinate identical.
        let flat = vec![c; global.len()];
        let zeros = vec![0.0f32; global.len()];
        let mut residual = Vec::new();
        ef_compress_update(
            policy, &flat, &zeros, &mut residual, &mut update, &mut recon, &mut payload,
        );
        prop_assert!(
            residual.iter().all(|&r| r == 0.0),
            "constant update must leave no residual: {:?}",
            &residual[..residual.len().min(4)]
        );
    }
}
