//! Binary encoding of `f32` buffers.
//!
//! All federated messages (model parameters, δ maps, control variates) are
//! serialized through these functions so the byte counts reported in the
//! communication statistics (and Table III) reflect the actual wire format:
//! a little-endian `u32` length prefix followed by raw little-endian `f32`s —
//! 4 bytes per scalar, matching the paper's accounting.

/// Errors from [`decode_f32_into`].
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the header demands.
    Truncated { expected: usize, got: usize },
    /// Buffer too short to even hold the length prefix.
    MissingHeader,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated payload: expected {expected} bytes, got {got}")
            }
            CodecError::MissingHeader => write!(f, "missing length header"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a slice of `f32`s — a `u32` little-endian count, then the raw
/// little-endian values — into a caller-provided byte buffer (cleared first;
/// its allocation is reused across calls).
pub fn encode_f32_into(buf: &mut Vec<u8>, values: &[f32]) {
    buf.clear();
    buf.resize(wire_size(values.len()), 0);
    let (count, body) = buf.split_at_mut(4);
    count.copy_from_slice(&(values.len() as u32).to_le_bytes());
    for (bytes, v) in body.chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a buffer produced by [`encode_f32_into`] into a caller-provided
/// vector (cleared first; its allocation is reused across calls).
pub fn decode_f32_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::MissingHeader);
    }
    let n = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let payload = &bytes[4..];
    if payload.len() < n * 4 {
        return Err(CodecError::Truncated {
            expected: n * 4,
            got: payload.len(),
        });
    }
    out.clear();
    out.reserve(n);
    out.extend(
        payload
            .chunks_exact(4)
            .take(n)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(())
}

/// Wire size in bytes of a message carrying `n` scalars.
#[inline]
pub fn wire_size(n: usize) -> usize {
    4 + n * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[f32]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_f32_into(&mut buf, values);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::new();
        decode_f32_into(bytes, &mut out).map(|()| out)
    }

    #[test]
    fn round_trips() {
        let v = vec![1.0f32, -2.5, f32::MIN_POSITIVE, 1e30];
        let enc = encode(&v);
        assert_eq!(enc.len(), wire_size(v.len()));
        assert_eq!(decode(&enc).unwrap(), v);
    }

    #[test]
    fn empty_round_trips() {
        let enc = encode(&[]);
        assert_eq!(enc.len(), 4);
        assert_eq!(decode(&enc).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn detects_truncation() {
        let enc = encode(&[1.0, 2.0]);
        assert_eq!(
            decode(&enc[..enc.len() - 3]),
            Err(CodecError::Truncated {
                expected: 8,
                got: 5
            })
        );
    }

    #[test]
    fn detects_missing_header() {
        assert_eq!(decode(&[1, 2]), Err(CodecError::MissingHeader));
    }

    #[test]
    fn nan_survives_round_trip() {
        assert!(decode(&encode(&[f32::NAN])).unwrap()[0].is_nan());
    }

    #[test]
    fn encode_into_is_byte_identical_and_reuses_buffer() {
        let mut buf = vec![0xAA; 3];
        encode_f32_into(&mut buf, &[1.0, -2.0]);
        assert_eq!(buf, [2, 0, 0, 0, 0, 0, 0x80, 0x3F, 0, 0, 0, 0xC0]);
        // Warm reuse: a second encode of the same payload must not grow.
        encode_f32_into(&mut buf, &[9.0; 8]);
        let cap = buf.capacity();
        encode_f32_into(&mut buf, &[3.0; 8]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn decode_into_overwrites_a_dirty_vector() {
        let vals = vec![1.5f32, -0.25, 4096.0];
        let mut out = vec![99.0f32; 1];
        decode_f32_into(&encode(&vals), &mut out).unwrap();
        assert_eq!(out, vals);
    }
}
