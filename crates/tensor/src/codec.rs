//! Binary encoding of `f32` buffers.
//!
//! All federated messages (model parameters, δ maps, control variates) are
//! serialized through these functions so the byte counts reported in the
//! communication statistics (and Table III) reflect the actual wire format:
//! a little-endian `u32` length prefix followed by raw little-endian `f32`s —
//! 4 bytes per scalar, matching the paper's accounting.
//!
//! On a little-endian target a slice of `f32` or `u32` words already IS its
//! wire bytes, so [`f32_bytes`], [`f32_bytes_mut`] and [`u32_bytes`] hand a
//! socket those bytes in place: a vectored write sends a payload from the
//! caller's slice and a read lands in the vector it returns, with no staging
//! buffer. These three views are the workspace's only reinterpreting casts.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

// The byte views below are the little-endian encoding only on a
// little-endian target.
#[cfg(target_endian = "big")]
compile_error!("the wire codec's byte views need a little-endian target");

/// Errors from [`decode_f32_into`].
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the header demands.
    Truncated { expected: usize, got: usize },
    /// More bytes than the header demands: a message is exactly its count
    /// and its values.
    Trailing { expected: usize, got: usize },
    /// Buffer too short to even hold the length prefix.
    MissingHeader,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated payload: expected {expected} bytes, got {got}")
            }
            CodecError::Trailing { expected, got } => {
                write!(f, "trailing bytes: expected {expected} bytes, got {got}")
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
/// vector (cleared first; its allocation is reused across calls). The buffer
/// must be exactly one message: its count, then that many values — fewer
/// bytes are [`CodecError::Truncated`], more are [`CodecError::Trailing`].
pub fn decode_f32_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), CodecError> {
    let Some((count, payload)) = bytes.split_first_chunk::<4>() else {
        return Err(CodecError::MissingHeader);
    };
    let expected = u32::from_le_bytes(*count) as usize * 4;
    let got = payload.len();
    if got < expected {
        return Err(CodecError::Truncated { expected, got });
    }
    if got > expected {
        return Err(CodecError::Trailing { expected, got });
    }
    out.clear();
    out.reserve(expected / 4);
    out.extend(
        payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(())
}

/// A word type whose every bit pattern is a value and which has no padding,
/// so its slices can be viewed as bytes both ways.
///
/// # Safety
///
/// Implement only for such types.
unsafe trait Word: Copy {}

// SAFETY: `f32` is 4 bytes, every one of its 2³² bit patterns is a value
// (NaN payloads included), and it has no padding.
unsafe impl Word for f32 {}
// SAFETY: as for `f32`: 4 bytes, every bit pattern a value, no padding.
unsafe impl Word for u32 {}

fn bytes_of<W: Word>(words: &[W]) -> &[u8] {
    // SAFETY: the pointer and length cover exactly the memory `words`
    // borrows (`size_of_val` bytes, which fit in `isize` because the slice
    // does); `u8` needs no alignment; a `Word` has no padding, so every byte
    // is initialized; and the shared borrow lives as long as `words`'.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words)) }
}

fn bytes_of_mut<W: Word>(words: &mut [W]) -> &mut [u8] {
    // SAFETY: as in `bytes_of`, and any bytes written through the view leave
    // every word a valid `W`, since a `Word` takes every bit pattern; the
    // exclusive borrow of `words` is held for the view's life.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

/// The wire bytes of `values`, in place: each value's little-endian bytes,
/// in order — [`encode_f32_into`]'s body after its count.
pub fn f32_bytes(values: &[f32]) -> &[u8] {
    bytes_of(values)
}

/// [`f32_bytes`], writable: bytes read off the wire into this view land as
/// the values [`decode_f32_into`] would decode from them.
pub fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    bytes_of_mut(values)
}

/// The wire bytes of `words`, in place: each word's little-endian bytes, in
/// order.
pub fn u32_bytes(words: &[u32]) -> &[u8] {
    bytes_of(words)
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
    fn detects_trailing_bytes() {
        let mut enc = encode(&[1.0, 2.0]);
        enc.push(0);
        assert_eq!(
            decode(&enc),
            Err(CodecError::Trailing {
                expected: 8,
                got: 9
            })
        );
        // A whole extra value behind the count is refused too.
        let mut padded = encode(&[1.0]);
        padded.extend_from_slice(&2.0f32.to_le_bytes());
        assert_eq!(
            decode(&padded),
            Err(CodecError::Trailing {
                expected: 4,
                got: 8
            })
        );
    }

    #[test]
    fn byte_views_are_the_encoded_body_and_write_back_values() {
        let vals = [1.0f32, -2.0, f32::NAN, f32::from_bits(0x7fa0_0001)];
        let enc = encode(&vals);
        assert_eq!(f32_bytes(&vals), &enc[4..]);
        assert_eq!(u32_bytes(&vals.map(f32::to_bits)), &enc[4..]);
        let mut back = [0.0f32; 4];
        f32_bytes_mut(&mut back).copy_from_slice(&enc[4..]);
        assert_eq!(back.map(f32::to_bits), vals.map(f32::to_bits));
        assert!(f32_bytes(&[]).is_empty());
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
