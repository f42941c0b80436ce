//! Property tests for the compression wire stage: the `CompressedVec`
//! codec must be bit-lossless for every section shape (including raw NaN
//! and infinity bit patterns), every compressor backend must round-trip
//! ragged lengths into dirty reused buffers exactly as into fresh ones, no
//! payload may panic the decoder, error feedback must leave no residual
//! when the compressor reconstructs exactly, and the quantizer — sender,
//! error feedback and receiver — must equal the per-value loops in
//! `oracle/quantize.rs` bit for bit, on honest and hostile payloads alike.

mod oracle {
    pub mod quantize;
}

use oracle::quantize as old;
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

/// A quantizing policy: a fixed width or the adaptive one.
fn quantizing_policy() -> impl Strategy<Value = Compression> {
    prop_oneof![
        (1u8..=8).prop_map(|bits| Compression::Quantize { bits }),
        (1u8..=8).prop_map(|max_bits| Compression::Adaptive { max_bits }),
    ]
}

/// The values at a quantizer's edges: NaN, ±∞, ±0, ± the smallest
/// subnormal, the smallest normal and the largest finites.
fn edge_f32() -> impl Strategy<Value = f32> {
    const EDGES: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    (0..EDGES.len()).prop_map(|i| EDGES[i])
}

/// A vector length: `0..=67`, or the canonical CNN's 18,346 one case in 17.
fn quantizer_len() -> impl Strategy<Value = usize> {
    (0u8..17, 0usize..=67).prop_map(|(pick, n)| if pick == 0 { 18_346 } else { n })
}

/// `n` values to quantize: raw bit patterns; finite values with edge values
/// among them; a constant; or a one-signed vector whose extremum is a zero
/// of both signs.
fn quantizer_input(n: usize) -> impl Strategy<Value = Vec<f32>> {
    let zero_or = |v: f32, pick: u8| match pick {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    };
    prop_oneof![
        prop::collection::vec(raw_f32(), n),
        prop::collection::vec(
            prop_oneof![-100.0f32..100.0, -100.0f32..100.0, edge_f32()],
            n
        ),
        raw_f32().prop_map(move |c| vec![c; n]),
        (
            prop::collection::vec((0.0f32..10.0, 0u8..4), n),
            any::<bool>()
        )
            .prop_map(move |(v, negate)| {
                v.into_iter()
                    .map(|(v, pick)| zero_or(v, pick))
                    .map(|v| if negate { -v } else { v })
                    .collect()
            }),
    ]
}

/// The raw bits of every section of a payload.
fn sections(p: &CompressedVec) -> (Vec<u32>, Vec<u32>, Vec<u8>) {
    (p.words_u32.clone(), f32_bits(&p.words_f32), p.bytes.clone())
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// The raw bits of a computed vector, every NaN as one pattern: Rust does
/// not pin which operand's NaN a sum of two NaNs carries, and the optimizer
/// may commute an add.
fn value_bits(v: &[f32]) -> Vec<u32> {
    let nan = f32::NAN.to_bits();
    v.iter()
        .map(|v| if v.is_nan() { nan } else { v.to_bits() })
        .collect()
}

/// One error-feedback sender's buffers.
#[derive(Default)]
struct Sender {
    residual: Vec<f32>,
    update: Vec<f32>,
    recon: Vec<f32>,
    payload: CompressedVec,
}

/// Each width's codes for values a few ulps around every half step of the
/// grid `[0, levels]`, where `x` is the value itself or close to it: a
/// rounding that differs from `round` only at `0.5 − 2⁻²⁵` shows here.
#[test]
fn every_half_step_rounds_as_the_oracle_does() {
    for bits in 1u8..=8 {
        let levels = ((1u32 << bits) - 1) as f32;
        let mut values = vec![0.0, levels];
        for k in 0..(1u32 << bits) - 1 {
            let half = (k as f32 + 0.5).to_bits();
            values.extend((half - 4..=half + 4).map(f32::from_bits));
        }
        let comp = Compression::Quantize { bits }.for_upload(&[]).unwrap();
        let (mut new, mut oracle) = (CompressedVec::default(), CompressedVec::default());
        comp.compress_into(&values, &mut new);
        old::compress_into(bits, &values, &mut oracle);
        assert_eq!(sections(&new), sections(&oracle), "bits={bits}");
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
        let mut decoded = CompressedVec::default();
        prop_assert!(decoded.decode_from(&body));
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

    /// The quantizer equals the oracle bit for bit: every payload section,
    /// the decode, the receiver's `global + decode`, and the sender's
    /// update, reconstruction and residual over three error-feedback
    /// rounds.
    #[test]
    fn quantizer_matches_the_oracle(
        policy in quantizing_policy(),
        vectors in quantizer_len()
            .prop_flat_map(|n| (quantizer_input(n), quantizer_input(n), quantizer_input(n))),
    ) {
        let (values, global, drift) = vectors;
        let n = values.len();
        let comp = policy.for_upload(&values).unwrap();
        let bits = old::quantizer_bits(&comp).unwrap();
        let (mut new, mut oracle) = (CompressedVec::default(), CompressedVec::default());
        comp.compress_into(&values, &mut new);
        old::compress_into(bits, &values, &mut oracle);
        prop_assert_eq!(sections(&new), sections(&oracle), "compress_into");

        let (mut a, mut b) = (vec![f32::NAN; 3], Vec::new());
        prop_assert!(comp.decompress_into(&new, n, &mut a));
        prop_assert!(old::decompress_into(bits, &oracle, n, &mut b));
        prop_assert_eq!(value_bits(&a), value_bits(&b), "decompress_into");

        let (mut new_sender, mut old_sender) = (Sender::default(), Sender::default());
        for round in 0..3 {
            let params: Vec<f32> = values
                .iter()
                .zip(&drift)
                .map(|(&v, &d)| v + round as f32 * d)
                .collect();
            let s = &mut new_sender;
            ef_compress_update(
                policy, &params, &global, &mut s.residual, &mut s.update, &mut s.recon,
                &mut s.payload,
            );
            let o = &mut old_sender;
            old::ef_compress_update(
                policy, &params, &global, &mut o.residual, &mut o.update, &mut o.recon,
                &mut o.payload,
            );
            let (s, o) = (&new_sender, &old_sender);
            prop_assert_eq!(sections(&s.payload), sections(&o.payload), "round {} payload", round);
            prop_assert_eq!(value_bits(&s.update), value_bits(&o.update), "round {} update", round);
            prop_assert_eq!(value_bits(&s.recon), value_bits(&o.recon), "round {} recon", round);
            prop_assert_eq!(value_bits(&s.residual), value_bits(&o.residual), "round {} residual", round);

            let got = decode_upload_into(policy, &s.payload, &global, &mut a);
            prop_assert!(got && old::decode_upload_into(policy, &o.payload, &global, &mut b));
            prop_assert_eq!(value_bits(&a), value_bits(&b), "round {} decode_upload_into", round);
        }
    }

    /// A hostile quantized payload — a NaN or infinite `min` / `max`, a
    /// wrong or non-numeric level count, a missing or extra word, code
    /// bytes cut short, padded or replaced — gets the oracle's verdict,
    /// and when it is accepted, the oracle's output bit for bit.
    #[test]
    fn a_hostile_quantized_payload_gets_the_oracle_s_verdict(
        receiver in quantizing_policy(),
        sent_bits in 1u8..=8,
        vectors in (0usize..=67).prop_flat_map(|n| (quantizer_input(n), quantizer_input(n))),
        modes in (0u8..5, 0u8..5, 0u8..4, 0u8..3, 0u8..5),
        tampering in (
            prop::collection::vec(raw_f32(), 4),
            1u8..=8,
            prop::collection::vec(any::<u8>(), 0..48),
        ),
    ) {
        let ((values, global), (raw, width, junk)) = (vectors, tampering);
        let pick = |honest: f32, mode: u8, raw: f32| match mode {
            0 => honest,
            1 => f32::NAN,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => raw,
        };
        let mut payload = CompressedVec::default();
        Compression::Quantize { bits: sent_bits }
            .for_upload(&[])
            .unwrap()
            .compress_into(&values, &mut payload);
        let w = &mut payload.words_f32;
        w[0] = pick(w[0], modes.0, raw[0]);
        w[1] = pick(w[1], modes.1, raw[1]);
        w[2] = match modes.2 {
            0 => w[2],
            1 => ((1u32 << width) - 1) as f32,
            2 => raw[2],
            _ => f32::NAN,
        };
        match modes.3 {
            0 => {}
            1 => {
                w.pop();
            }
            _ => w.push(raw[3]),
        }
        let bytes = &mut payload.bytes;
        match modes.4 {
            0 => {}
            1 => {
                bytes.pop();
            }
            2 => bytes.extend_from_slice(&junk),
            3 => {
                for (b, &j) in bytes.iter_mut().zip(junk.iter().cycle()) {
                    *b = j;
                }
            }
            _ => bytes.clear(),
        }

        let n = values.len();
        let (mut a, mut b) = (vec![f32::NAN; 3], vec![f32::NAN; 5]);
        let got = decode_upload_into(receiver, &payload, &global, &mut a);
        let want = old::decode_upload_into(receiver, &payload, &global, &mut b);
        prop_assert_eq!(got, want, "decode_upload_into's verdict on {:?}", payload);
        if got {
            prop_assert_eq!(value_bits(&a), value_bits(&b), "decode_upload_into");
        }

        let comp = receiver.for_upload(&[]).unwrap();
        let bits = old::quantizer_bits(&comp).unwrap();
        let got = comp.decompress_into(&payload, n, &mut a);
        let want = old::decompress_into(bits, &payload, n, &mut b);
        prop_assert_eq!(got, want, "decompress_into's verdict on {:?}", payload);
        if got {
            prop_assert_eq!(value_bits(&a), value_bits(&b), "decompress_into");
        }
    }
}
