//! Gradient/model compression — the orthogonal communication-efficiency
//! axis the paper's related work surveys (Konečný et al.'s quantization and
//! sub-sampling, sketching à la FetchSGD).
//!
//! A codec maps a parameter vector to a compact wire form and back, into
//! buffers the caller owns: `compress_into` fills a [`CompressedVec`],
//! `decompress_into` rebuilds the vector from one. There is no allocating
//! form. Codecs are *lossy*; the round-trip error is the price paid for
//! fewer bytes. They compose with any algorithm whose uploads are
//! parameter vectors (the gate is `tests/extensions.rs` at the repository
//! root). [`AnyCompressor`] dispatches to the three codecs.
//!
//! A payload comes off the wire from a peer nobody vouches for, so
//! `decompress_into` checks its sections against the length it must decode
//! to and returns `false` on a mismatch instead of panicking; the server
//! counts such an upload as lost.
//!
//! A quantized upload is two passes on the sender and one on the receiver
//! ([`ef_compress_update`], [`decode_upload_into`]); the per-value loops
//! they replaced are the oracle in `crates/core/tests/oracle/quantize.rs`.

mod quantize;
mod sketch;
mod topk;

pub(crate) use quantize::UniformQuantizer;
pub(crate) use sketch::{CountSketch, MAX_ROWS};
pub(crate) use topk::TopK;

/// A compressed payload: opaque scalar words plus structural metadata.
/// Wire cost = 4 bytes per `u32` word + 4 bytes per `f32` word + header.
#[derive(Clone, Debug, Default)]
pub struct CompressedVec {
    pub words_u32: Vec<u32>,
    pub words_f32: Vec<f32>,
    /// Payloads that pack sub-word data (e.g. 8-bit quantization codes).
    pub bytes: Vec<u8>,
}

impl CompressedVec {
    /// Encoded-frame header: three little-endian `u32` section lengths.
    pub(crate) const HEADER_BYTES: usize = 12;

    /// Total bytes on the wire. Definitionally exact: this is the length
    /// [`CompressedVec::encode_into`] produces, pinned by test.
    pub fn wire_bytes(&self) -> usize {
        Self::HEADER_BYTES + self.words_u32.len() * 4 + self.words_f32.len() * 4 + self.bytes.len()
    }

    /// Serializes the payload: `[u32 n_u32][u32 n_f32][u32 n_bytes]` followed
    /// by the three sections, all little-endian. `f32` words are written via
    /// `to_le_bytes`, so NaN/inf bit patterns survive exactly. Clears `out`
    /// first; the encoded length always equals [`CompressedVec::wire_bytes`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_bytes());
        out.extend_from_slice(&self.section_header());
        for w in &self.words_u32 {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for w in &self.words_f32 {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.bytes);
    }

    /// The encoding's first [`CompressedVec::HEADER_BYTES`]: the three
    /// section lengths.
    pub(crate) fn section_header(&self) -> [u8; Self::HEADER_BYTES] {
        let mut header = [0u8; Self::HEADER_BYTES];
        let lens = [self.words_u32.len(), self.words_f32.len(), self.bytes.len()];
        for (field, len) in header.chunks_exact_mut(4).zip(lens) {
            field.copy_from_slice(&(len as u32).to_le_bytes());
        }
        header
    }

    /// Parses an encoded payload into `self`, reusing the section buffers.
    /// Returns `false` (leaving `self` unspecified) unless `body` is exactly
    /// one well-formed frame: header present, and the body length equal to
    /// the sum the header promises — no trailing bytes tolerated.
    pub fn decode_from(&mut self, body: &[u8]) -> bool {
        if body.len() < Self::HEADER_BYTES {
            return false;
        }
        let word = |i: usize| {
            u32::from_le_bytes([
                body[4 * i],
                body[4 * i + 1],
                body[4 * i + 2],
                body[4 * i + 3],
            ]) as usize
        };
        let (n_u32, n_f32, n_bytes) = (word(0), word(1), word(2));
        let Some(expect) = 4usize
            .checked_mul(n_u32 + n_f32)
            .and_then(|w| w.checked_add(Self::HEADER_BYTES + n_bytes))
        else {
            return false;
        };
        if body.len() != expect {
            return false;
        }
        let mut at = Self::HEADER_BYTES;
        self.words_u32.clear();
        self.words_u32.extend(
            body[at..at + 4 * n_u32]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        at += 4 * n_u32;
        self.words_f32.clear();
        self.words_f32.extend(
            body[at..at + 4 * n_f32]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        at += 4 * n_f32;
        self.bytes.clear();
        self.bytes.extend_from_slice(&body[at..]);
        true
    }
}

/// Wire-compression policy for client uploads and δ syncs. `Copy` so it can
/// ride inside [`crate::FlConfig`]; the default (`None`) leaves every byte
/// pin and the canonical loss untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Compression {
    /// Dense f32 uploads — the status quo.
    #[default]
    None,
    /// Fixed-width uniform quantization (`1..=8` bits per coordinate).
    Quantize { bits: u8 },
    /// Top-k sparsification keeping `ceil(ratio·d)` coordinates.
    TopK { ratio: f32 },
    /// Count-sketch projection with a policy-level seed shared by both ends.
    Sketch { rows: u16, cols: u32, seed: u64 },
    /// Per-tensor bit-width: each upload picks its own quantizer width from
    /// the tensor's norm and size (see `adaptive_bits`); the chosen width
    /// is self-described by the payload so the receiver needs no side data.
    Adaptive { max_bits: u8 },
}

impl Compression {
    /// `true` when uploads are compressed.
    pub(crate) fn is_enabled(&self) -> bool {
        !matches!(self, Compression::None)
    }

    /// Whether uploads under this policy carry an error-feedback residual.
    /// Biased codecs (quantization, top-k) benefit: the residual re-injects
    /// exactly what rounding discarded. The count sketch is an *unbiased*
    /// estimator whose reconstruction error is zero-mean collision noise —
    /// feeding that noise back correlates it across rounds and diverges,
    /// so sketch uploads stay stateless.
    pub(crate) fn uses_error_feedback(&self) -> bool {
        !matches!(self, Compression::None | Compression::Sketch { .. })
    }

    /// The compressor the *sender* uses for this vector. `None` iff the
    /// policy is `Compression::None`.
    pub fn for_upload(&self, values: &[f32]) -> Option<AnyCompressor> {
        match *self {
            Compression::None => None,
            Compression::Quantize { bits } => {
                Some(AnyCompressor::Quantize(UniformQuantizer::new(bits)))
            }
            Compression::TopK { ratio } => {
                Some(AnyCompressor::TopK(TopK::with_ratio(values.len(), ratio)))
            }
            Compression::Sketch { rows, cols, seed } => Some(AnyCompressor::Sketch(
                CountSketch::new(rows as usize, cols as usize, seed),
            )),
            Compression::Adaptive { max_bits } => Some(AnyCompressor::Quantize(
                UniformQuantizer::new(adaptive_bits(values, max_bits)),
            )),
        }
    }

    /// The compressor the *receiver* uses for a payload whose original
    /// length was `len`. For `Adaptive` the bit-width is recovered from the
    /// payload itself; `None` when the policy is off or the payload does not
    /// self-describe a valid width.
    pub(crate) fn for_payload(&self, payload: &CompressedVec, len: usize) -> Option<AnyCompressor> {
        match *self {
            Compression::Adaptive { .. } => {
                UniformQuantizer::from_payload(payload).map(AnyCompressor::Quantize)
            }
            Compression::TopK { ratio } => Some(AnyCompressor::TopK(TopK::with_ratio(len, ratio))),
            _ => self.for_upload(&[]),
        }
    }

    /// Fixed-width wire form carried by the socket handshake's `Welcome`:
    /// `(mode, bits, ratio, rows, cols, seed)`.
    pub(crate) fn to_wire(self) -> (u8, u8, f32, u16, u32, u64) {
        match self {
            Compression::None => (0, 0, 0.0, 0, 0, 0),
            Compression::Quantize { bits } => (1, bits, 0.0, 0, 0, 0),
            Compression::TopK { ratio } => (2, 0, ratio, 0, 0, 0),
            Compression::Sketch { rows, cols, seed } => (3, 0, 0.0, rows, cols, seed),
            Compression::Adaptive { max_bits } => (4, max_bits, 0.0, 0, 0, 0),
        }
    }

    /// Inverse of [`Compression::to_wire`]; `None` on an unknown mode or
    /// out-of-range parameters.
    pub(crate) fn from_wire(
        mode: u8,
        bits: u8,
        ratio: f32,
        rows: u16,
        cols: u32,
        seed: u64,
    ) -> Option<Compression> {
        match mode {
            0 => Some(Compression::None),
            1 if (1..=8).contains(&bits) => Some(Compression::Quantize { bits }),
            2 if (0.0..=1.0).contains(&ratio) => Some(Compression::TopK { ratio }),
            3 if rows % 2 == 1 && usize::from(rows) <= MAX_ROWS && cols > 0 => {
                Some(Compression::Sketch { rows, cols, seed })
            }
            4 if (1..=8).contains(&bits) => Some(Compression::Adaptive { max_bits: bits }),
            _ => None,
        }
    }

    /// Parses the CLI/bench spelling of a policy: `none`,
    /// `quantize:<bits>`, `topk:<ratio>`, `sketch:<rows>:<cols>:<seed>`, or
    /// `adaptive:<max_bits>`. `None` on anything else (including
    /// out-of-range parameters, via `Compression::from_wire` validation).
    pub fn parse(spec: &str) -> Option<Compression> {
        let parts: Vec<&str> = spec.split(':').collect();
        let policy = match parts.as_slice() {
            ["none"] => Compression::None,
            ["quantize", bits] => Compression::Quantize {
                bits: bits.parse().ok()?,
            },
            ["topk", ratio] => Compression::TopK {
                ratio: ratio.parse().ok()?,
            },
            ["sketch", rows, cols, seed] => Compression::Sketch {
                rows: rows.parse().ok()?,
                cols: cols.parse().ok()?,
                seed: seed.parse().ok()?,
            },
            ["adaptive", max_bits] => Compression::Adaptive {
                max_bits: max_bits.parse().ok()?,
            },
            _ => return None,
        };
        // Round-trip through the wire validation so CLI specs and socket
        // handshakes accept exactly the same parameter space.
        let (m, b, r, rw, c, s) = policy.to_wire();
        Compression::from_wire(m, b, r, rw, c, s)
    }
}

/// Stack-allocated compressor dispatcher so policy resolution never boxes.
#[derive(Clone, Copy, Debug)]
pub enum AnyCompressor {
    Quantize(UniformQuantizer),
    TopK(TopK),
    Sketch(CountSketch),
}

impl AnyCompressor {
    /// Compresses `values` into a caller-owned payload, reusing its section
    /// buffers.
    pub fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
        match self {
            AnyCompressor::Quantize(c) => c.compress_into(values, out),
            AnyCompressor::TopK(c) => c.compress_into(values, out),
            AnyCompressor::Sketch(c) => c.compress_into(values, out),
        }
    }

    /// Reconstructs a length-`len` vector into a caller-owned workspace;
    /// `false` (with `out` unspecified) when `payload`'s sections do not
    /// describe `len` values under this codec.
    pub fn decompress_into(&self, payload: &CompressedVec, len: usize, out: &mut Vec<f32>) -> bool {
        match self {
            AnyCompressor::Quantize(c) => c.decompress_into(payload, len, None, out),
            AnyCompressor::TopK(c) => c.decompress_into(payload, len, out),
            AnyCompressor::Sketch(c) => c.decompress_into(payload, len, out),
        }
    }
}

/// Per-tensor adaptive bit-width, keyed on the tensor's norm and size: the
/// wider the dynamic range relative to the RMS magnitude, the more levels a
/// uniform grid needs. Pure `f32` arithmetic in index order, so the sender
/// and any replica derive the same width from the same values.
pub(crate) fn adaptive_bits(values: &[f32], max_bits: u8) -> u8 {
    assert!((1..=8).contains(&max_bits), "max_bits must be in 1..=8");
    if values.len() <= 32 {
        // Tiny tensors are cheap — keep the full precision budget.
        return max_bits;
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut norm2 = 0.0f32;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        norm2 += v * v;
    }
    let range = max - min;
    let rms = (norm2 / values.len() as f32).sqrt();
    if !range.is_finite() || !rms.is_finite() {
        return max_bits;
    }
    if range <= 0.0 {
        return 1;
    }
    let bits = ((range / rms.max(1e-12)) + 1.0).log2().ceil() as i64;
    bits.clamp(1, max_bits as i64) as u8
}

/// Error-feedback compression of a model upload. The residual left by the
/// previous round is folded into this round's update before compression and
/// replaced by the new quantization error:
///
/// ```text
/// update   = (params − global) + residual
/// payload  = compress(update)
/// residual = update − decompress(payload)
/// ```
///
/// All buffers are caller-owned workspaces; `residual` is (re)sized to `d`
/// on first use, and `recon` holds `decompress(payload)`. The in-process
/// plane and the socket client loop both call this one function; what it
/// computes is pinned bitwise by `compress_props.rs` against the loop it
/// replaced (`crates/core/tests/oracle/quantize.rs`).
///
/// Under a quantizer this is two passes. The first writes `update`, then
/// takes its extent in a lane-parallel sweep while it is still in cache.
/// The second writes each code and reads the code's reconstruction from a
/// lift table of the `levels + 1` values a code stands for, and with it the
/// residual: the sender never decodes its own payload. Top-k and the sketch
/// rebuild `recon` from their payload, unchecked.
///
/// Policies for which `Compression::uses_error_feedback` is `false`
/// (the unbiased count sketch) keep the residual pinned at zero: the
/// update is compressed statelessly and no reconstruction noise is
/// carried into the next round.
pub fn ef_compress_update(
    policy: Compression,
    params: &[f32],
    global: &[f32],
    residual: &mut Vec<f32>,
    update: &mut Vec<f32>,
    recon: &mut Vec<f32>,
    payload: &mut CompressedVec,
) -> AnyCompressor {
    let d = params.len();
    assert_eq!(global.len(), d, "global/params dimension mismatch");
    let feedback = policy.uses_error_feedback();
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
    match comp {
        // Every quantizing policy carries feedback.
        AnyCompressor::Quantize(q) => {
            q.compress_with_feedback(update, quantize::extent(update), payload, recon, residual)
        }
        AnyCompressor::TopK(c) => {
            c.compress_into(update, payload);
            TopK::scatter(payload, d, recon);
            for (r, (&u, &c)) in residual.iter_mut().zip(update.iter().zip(recon.iter())) {
                *r = u - c;
            }
        }
        AnyCompressor::Sketch(c) => {
            c.compress_into(update, payload);
            c.estimate(payload, d, recon);
        }
    }
    comp
}

/// Receiver side of [`ef_compress_update`]: decompress a received upload and
/// rebuild absolute parameters by adding the broadcast global back in.
/// Returns `false` when the payload does not decode to `global.len()`
/// values under `policy`.
pub fn decode_upload_into(
    policy: Compression,
    payload: &CompressedVec,
    global: &[f32],
    out: &mut Vec<f32>,
) -> bool {
    let len = global.len();
    match policy.for_payload(payload, len) {
        // One pass: each code's lift plus the global.
        Some(AnyCompressor::Quantize(q)) => q.decompress_into(payload, len, Some(global), out),
        Some(comp) if comp.decompress_into(payload, len, out) => {
            for (o, &g) in out.iter_mut().zip(global) {
                *o += g;
            }
            true
        }
        _ => false,
    }
}

/// Compress a δ-sync vector (no error feedback — δ maps are stateless).
pub fn compress_plain(
    policy: Compression,
    values: &[f32],
    payload: &mut CompressedVec,
) -> AnyCompressor {
    let comp = policy.for_upload(values).expect("compression enabled");
    comp.compress_into(values, payload);
    comp
}

/// Receiver side of [`compress_plain`]; `false` when the payload does not
/// decode to `len` values under `policy`.
pub(crate) fn decode_plain_into(
    policy: Compression,
    payload: &CompressedVec,
    len: usize,
    out: &mut Vec<f32>,
) -> bool {
    policy
        .for_payload(payload, len)
        .is_some_and(|comp| comp.decompress_into(payload, len, out))
}

/// Compresses `values` into a fresh payload and decompresses it again: the
/// reconstruction and the payload (the codecs' tests).
#[cfg(test)]
pub(crate) fn round_trip(comp: AnyCompressor, values: &[f32]) -> (Vec<f32>, CompressedVec) {
    let (mut payload, mut rec) = (CompressedVec::default(), Vec::new());
    comp.compress_into(values, &mut payload);
    assert!(comp.decompress_into(&payload, values.len(), &mut rec));
    (rec, payload)
}

/// Relative L2 reconstruction error `‖x − x̂‖ / ‖x‖` (the codecs' tests).
#[cfg(test)]
pub(crate) fn relative_error(original: &[f32], reconstructed: &[f32]) -> f32 {
    assert_eq!(original.len(), reconstructed.len());
    let num: f32 = original
        .iter()
        .zip(reconstructed)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f32 = original.iter().map(|v| v * v).sum();
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f32::INFINITY };
    }
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        let x = vec![3.0, 4.0];
        assert_eq!(relative_error(&x, &x), 0.0);
        let y = vec![0.0, 0.0];
        assert!((relative_error(&x, &y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn wire_bytes_counts_all_sections() {
        let c = CompressedVec {
            words_u32: vec![1, 2],
            words_f32: vec![0.5],
            bytes: vec![0; 10],
        };
        assert_eq!(c.wire_bytes(), 12 + 8 + 4 + 10);
    }

    /// Satellite pin: `wire_bytes()` is the *real* encoded length, not a
    /// notional estimate — encode and compare.
    #[test]
    fn wire_bytes_equals_encoded_length() {
        let shapes = [
            CompressedVec::default(),
            CompressedVec {
                words_u32: vec![7; 13],
                words_f32: vec![f32::NAN, f32::NEG_INFINITY, -0.0],
                bytes: vec![0xAB; 29],
            },
            round_trip(
                AnyCompressor::Quantize(UniformQuantizer::new(3)),
                &[1.0, -2.0, 0.5],
            )
            .1,
            round_trip(AnyCompressor::TopK(TopK::new(2)), &[1.0, -2.0, 0.5, 9.0]).1,
            round_trip(
                AnyCompressor::Sketch(CountSketch::new(3, 17, 42)),
                &[1.0; 100],
            )
            .1,
        ];
        let mut wire = Vec::new();
        for c in &shapes {
            c.encode_into(&mut wire);
            assert_eq!(wire.len(), c.wire_bytes());
        }
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let c = CompressedVec {
            words_u32: vec![0, u32::MAX, 12345],
            words_f32: vec![f32::NAN, f32::INFINITY, -0.0, 1.5e-39],
            bytes: vec![1, 2, 3, 4, 5],
        };
        let mut wire = Vec::new();
        c.encode_into(&mut wire);
        let mut d = CompressedVec::default();
        assert!(d.decode_from(&wire));
        assert_eq!(c.words_u32, d.words_u32);
        assert_eq!(
            c.words_f32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d.words_f32.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(c.bytes, d.bytes);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let c = round_trip(
            AnyCompressor::Quantize(UniformQuantizer::new(8)),
            &[1.0, 2.0, 3.0],
        )
        .1;
        let mut wire = Vec::new();
        c.encode_into(&mut wire);
        let decodes = |body: &[u8]| CompressedVec::default().decode_from(body);
        assert!(!decodes(&wire[..wire.len() - 1]));
        assert!(!decodes(&wire[..4]));
        let mut extra = wire.clone();
        extra.push(0);
        assert!(!decodes(&extra));
        // Section lengths that overflow the length arithmetic.
        let mut bogus = vec![0xFFu8; 12];
        bogus.extend_from_slice(&[0; 16]);
        assert!(!decodes(&bogus));
    }

    #[test]
    fn policy_wire_form_round_trips() {
        let policies = [
            Compression::None,
            Compression::Quantize { bits: 4 },
            Compression::TopK { ratio: 0.1 },
            Compression::Sketch {
                rows: 5,
                cols: 401,
                seed: 99,
            },
            Compression::Adaptive { max_bits: 8 },
        ];
        for p in policies {
            let (mode, bits, ratio, rows, cols, seed) = p.to_wire();
            assert_eq!(
                Compression::from_wire(mode, bits, ratio, rows, cols, seed),
                Some(p)
            );
        }
        assert_eq!(Compression::from_wire(9, 0, 0.0, 0, 0, 0), None);
        assert_eq!(Compression::from_wire(1, 0, 0.0, 0, 0, 0), None);
        assert_eq!(Compression::from_wire(3, 0, 0.0, 4, 7, 0), None);
        // Sketch rows stop where the decoder's median scratch does.
        let rows = MAX_ROWS as u16;
        assert!(Compression::from_wire(3, 0, 0.0, rows, 7, 0).is_some());
        assert_eq!(Compression::from_wire(3, 0, 0.0, rows + 2, 7, 0), None);
    }

    #[test]
    fn policy_cli_specs_parse() {
        assert_eq!(Compression::parse("none"), Some(Compression::None));
        assert_eq!(
            Compression::parse("quantize:8"),
            Some(Compression::Quantize { bits: 8 })
        );
        assert_eq!(
            Compression::parse("topk:0.05"),
            Some(Compression::TopK { ratio: 0.05 })
        );
        assert_eq!(
            Compression::parse("sketch:5:401:99"),
            Some(Compression::Sketch {
                rows: 5,
                cols: 401,
                seed: 99
            })
        );
        assert_eq!(
            Compression::parse("adaptive:6"),
            Some(Compression::Adaptive { max_bits: 6 })
        );
        // Same validation surface as the wire form.
        assert_eq!(Compression::parse("quantize:9"), None);
        assert_eq!(Compression::parse("sketch:4:7:0"), None);
        assert_eq!(Compression::parse("sketch:65:31:1"), None);
        assert_eq!(Compression::parse("topk:1.5"), None);
        assert_eq!(Compression::parse("gzip"), None);
        assert_eq!(Compression::parse("quantize:8:extra"), None);
    }

    #[test]
    fn adaptive_bits_tracks_norm_and_size() {
        // Tiny tensors keep the full budget.
        assert_eq!(adaptive_bits(&[1.0; 8], 8), 8);
        // A constant vector needs a single level.
        assert_eq!(adaptive_bits(&[2.5; 100], 8), 1);
        // Wide dynamic range relative to RMS demands more bits than a
        // narrow one, and the result never exceeds the budget.
        let mut spiky = vec![0.01f32; 1000];
        spiky[7] = 100.0;
        let flat: Vec<f32> = (0..1000).map(|i| 1.0 + (i % 7) as f32 * 1e-3).collect();
        let b_spiky = adaptive_bits(&spiky, 8);
        let b_flat = adaptive_bits(&flat, 8);
        assert!(b_spiky > b_flat, "{b_spiky} vs {b_flat}");
        assert!(b_spiky <= 8);
        assert_eq!(adaptive_bits(&spiky, 4), 4);
        // The receiver can recover the width from the payload alone.
        let bits = adaptive_bits(&spiky, 8);
        let payload = round_trip(AnyCompressor::Quantize(UniformQuantizer::new(bits)), &spiky).1;
        let q = UniformQuantizer::from_payload(&payload).unwrap();
        assert_eq!(
            format!("{q:?}"),
            format!("{:?}", UniformQuantizer::new(bits))
        );
    }

    #[test]
    fn error_feedback_reconstructs_params_via_decode_upload() {
        let global = vec![0.5f32; 200];
        let params: Vec<f32> = (0..200).map(|i| 0.5 + (i as f32 * 0.13).sin()).collect();
        let policy = Compression::Quantize { bits: 8 };
        let (mut residual, mut update, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        let mut payload = CompressedVec::default();
        ef_compress_update(
            policy,
            &params,
            &global,
            &mut residual,
            &mut update,
            &mut recon,
            &mut payload,
        );
        // Server-side reconstruction = global + decompressed update, and the
        // client's residual is exactly the reconstruction error.
        let mut rebuilt = Vec::new();
        assert!(decode_upload_into(policy, &payload, &global, &mut rebuilt));
        for ((&p, &w), &r) in params.iter().zip(&rebuilt).zip(&residual) {
            assert!((p - w - r).abs() < 1e-5, "{p} {w} {r}");
        }
    }

    #[test]
    fn error_feedback_residual_vanishes_on_constant_updates() {
        // Satellite invariant: a uniform quantizer represents a constant
        // vector exactly, so EF drives the residual to zero.
        let policy = Compression::Quantize { bits: 2 };
        let global = vec![0.0f32; 64];
        let params = vec![0.125f32; 64];
        let (mut residual, mut update, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        let mut payload = CompressedVec::default();
        for round in 0..4 {
            ef_compress_update(
                policy,
                &params,
                &global,
                &mut residual,
                &mut update,
                &mut recon,
                &mut payload,
            );
            let norm: f32 = residual.iter().map(|r| r * r).sum::<f32>().sqrt();
            assert!(norm < 1e-6, "round {round}: residual norm {norm}");
        }
    }

    #[test]
    fn into_a_dirty_buffer_matches_a_fresh_one_for_each_backend() {
        let x: Vec<f32> = (0..257).map(|i| (i as f32 * 0.21).sin()).collect();
        let comps = [
            AnyCompressor::Quantize(UniformQuantizer::new(4)),
            AnyCompressor::TopK(TopK::new(17)),
            AnyCompressor::Sketch(CountSketch::new(5, 31, 3)),
        ];
        for comp in comps {
            let (fresh, payload) = round_trip(comp, &x);
            let mut dirty = CompressedVec {
                words_u32: vec![7; 300],
                words_f32: vec![f32::NAN; 3],
                bytes: vec![0xEE; 999],
            };
            comp.compress_into(&x, &mut dirty);
            assert_eq!(dirty.words_u32, payload.words_u32);
            assert_eq!(dirty.bytes, payload.bytes);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dirty.words_f32), bits(&payload.words_f32));
            let mut out = vec![f32::NAN; 5];
            assert!(comp.decompress_into(&payload, x.len(), &mut out));
            assert_eq!(bits(&out), bits(&fresh));
        }
    }

    /// A payload that frames correctly but does not describe `len` values
    /// is refused, one case per section shape, never a panic.
    #[test]
    fn a_malformed_payload_decodes_to_false() {
        let global = vec![0.5f32; 10];
        let mut out = Vec::new();
        let payload = |words_u32: Vec<u32>, words_f32: Vec<f32>, bytes: Vec<u8>| CompressedVec {
            words_u32,
            words_f32,
            bytes,
        };
        let q8 = Compression::Quantize { bits: 8 };
        let topk = Compression::TopK { ratio: 0.5 };
        let sketch = Compression::Sketch {
            rows: 3,
            cols: 5,
            seed: 1,
        };
        for (policy, bad) in [
            // Quantizer: short code bytes, no range words, a wrong level count.
            (q8, payload(vec![], vec![0.0, 1.0, 255.0], vec![0; 9])),
            (q8, CompressedVec::default()),
            (q8, payload(vec![], vec![0.0, 1.0, 15.0], vec![0; 10])),
            (
                Compression::Adaptive { max_bits: 8 },
                payload(vec![], vec![0.0, 1.0, 255.0], vec![]),
            ),
            // Top-k: an index past the end, an index without a value.
            (topk, payload(vec![10], vec![1.0], vec![])),
            (topk, payload(vec![1, 2], vec![1.0], vec![])),
            // Sketch: a table of the wrong size.
            (sketch, payload(vec![], vec![0.0; 14], vec![])),
        ] {
            assert!(
                !decode_upload_into(policy, &bad, &global, &mut out),
                "{policy:?} decoded {bad:?}"
            );
            assert!(!decode_plain_into(policy, &bad, global.len(), &mut out));
        }
    }
}
