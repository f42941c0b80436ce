//! Property tests for the socket wire format: framing must survive ragged
//! split reads *and* ragged partial writes, payload f32 codecs must be
//! bit-lossless, and every [`ControlMsg`] must round-trip through its wire
//! body — the invariants the distributed bit-exactness contract stands on.
//!
//! The frame decoder both ends share and the reactor's `WriteQueue` are
//! private to `comm/`, and their properties sit in their modules' tests:
//! the decoder yields what a slicing parser finds under any chunking or
//! read split (`comm/frame.rs`), and the queue resumes partial writes at
//! any byte (`comm/reactor.rs`).

use proptest::prelude::*;
use rfl_core::comm::{
    read_frame, write_frame, ControlMsg, MsgKind, FRAME_HEADER_BYTES, PROTO_MAGIC, PROTO_VERSION,
};
use rfl_core::compress::Compression;
use rfl_tensor::{decode_f32_into, encode_f32_into};
use std::io::{Read, Write};

/// A reader that hands back the buffer in arbitrary small chunks, cycling
/// through `chunks` — the torn-read behavior of a real TCP stream.
struct RaggedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl RaggedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        RaggedReader {
            data,
            pos: 0,
            chunks,
            next: 0,
        }
    }
}

impl Read for RaggedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.next % self.chunks.len()];
        self.next += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that accepts at most a bounded number of bytes per call,
/// cycling through `chunks` — the short-write behavior of a non-blocking
/// socket with a nearly full kernel buffer. The reader-side mirror is
/// [`RaggedReader`].
struct RaggedWriter {
    sink: Vec<u8>,
    chunks: Vec<usize>,
    next: usize,
}

impl RaggedWriter {
    fn new(chunks: Vec<usize>) -> Self {
        RaggedWriter {
            sink: Vec::new(),
            chunks,
            next: 0,
        }
    }
}

impl Write for RaggedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.next % self.chunks.len()];
        self.next += 1;
        let n = chunk.min(buf.len());
        self.sink.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every *valid* compression policy — each variant constrained to the
/// range `Compression::from_wire` accepts, so Welcome round-trips exercise
/// the full policy wire encoding.
fn policy_strategy() -> impl Strategy<Value = Compression> {
    prop_oneof![
        Just(Compression::None),
        (1u8..=8).prop_map(|bits| Compression::Quantize { bits }),
        (0u32..=1000).prop_map(|r| Compression::TopK {
            ratio: r as f32 / 1000.0
        }),
        (0u16..8, 1u32..=4096, any::<u64>()).prop_map(|(r, cols, seed)| Compression::Sketch {
            rows: 2 * r + 1,
            cols,
            seed,
        }),
        (1u8..=8).prop_map(|max_bits| Compression::Adaptive { max_bits }),
    ]
}

fn control_msg() -> impl Strategy<Value = ControlMsg> {
    // Finite floats only: ControlMsg's PartialEq is IEEE equality, and the
    // NaN-encodes-None convention for clip_grad_norm is tested separately.
    let finite = any::<f32>().prop_filter("finite", |v| v.is_finite());
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(client_id, seed)| ControlMsg::Hello {
            magic: PROTO_MAGIC,
            version: PROTO_VERSION,
            client_id,
            seed,
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            finite.clone(),
            finite.clone(),
            finite.clone(),
            any::<u64>(),
            policy_strategy(),
        )
            .prop_map(
                |(
                    num_clients,
                    rounds,
                    local_steps,
                    batch_size,
                    probe_batch,
                    lambda,
                    lr,
                    clip,
                    seed,
                    compression,
                )| {
                    ControlMsg::Welcome {
                        num_clients,
                        rounds,
                        local_steps,
                        batch_size,
                        probe_batch,
                        lambda,
                        lr,
                        clip_grad_norm: clip,
                        seed,
                        compression,
                    }
                }
            ),
        (any::<u64>(), any::<u32>())
            .prop_map(|(round, steps)| ControlMsg::TrainStart { round, steps }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(round, probe_batch)| ControlMsg::DeltaProbe { round, probe_batch }),
        (finite.clone(), finite, any::<u32>(), any::<u32>()).prop_map(
            |(loss, reg_loss, steps, examples)| ControlMsg::Report {
                loss,
                reg_loss,
                steps,
                examples,
            }
        ),
        Just(ControlMsg::Goodbye),
        Just(ControlMsg::Shutdown),
    ]
}

proptest! {
    /// Any (tag, body) frame survives a write → ragged chunked read.
    #[test]
    fn frames_survive_ragged_split_reads(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..600),
        chunks in prop::collection::vec(1usize..8, 1..10),
    ) {
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, tag, &body).unwrap();
        prop_assert_eq!(written, FRAME_HEADER_BYTES + body.len() as u64);
        prop_assert_eq!(wire.len() as u64, written);

        let mut reader = RaggedReader::new(wire, chunks);
        let (got_tag, got_body) = read_frame(&mut reader).unwrap();
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(got_body, body);
    }

    /// Back-to-back frames on one stream parse in order with no bleed.
    #[test]
    fn concatenated_frames_parse_in_order(
        frames in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)),
            1..6,
        ),
        chunks in prop::collection::vec(1usize..8, 1..10),
    ) {
        let mut wire = Vec::new();
        for (tag, body) in &frames {
            write_frame(&mut wire, *tag, body).unwrap();
        }
        let mut reader = RaggedReader::new(wire, chunks);
        for (tag, body) in &frames {
            let (got_tag, got_body) = read_frame(&mut reader).unwrap();
            prop_assert_eq!(got_tag, *tag);
            prop_assert_eq!(&got_body, body);
        }
    }

    /// A frame cut anywhere before its end is an error, never a partial
    /// or garbage result.
    #[test]
    fn truncated_frames_are_errors(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, tag, &body).unwrap();
        let cut = ((wire.len() - 1) as f64 * cut_fraction) as usize;
        wire.truncate(cut);
        let mut reader = RaggedReader::new(wire, vec![3]);
        prop_assert!(read_frame(&mut reader).is_err());
    }

    /// f32 payloads — including NaNs, infinities, and negative zero — are
    /// bit-identical after encode → frame → ragged read → decode. This is
    /// the lossless-codec half of the bit-exactness contract.
    #[test]
    fn f32_payloads_round_trip_bit_exactly(
        data in prop::collection::vec(any::<f32>(), 0..300),
        chunks in prop::collection::vec(1usize..16, 1..10),
    ) {
        let mut encoded = Vec::new();
        encode_f32_into(&mut encoded, &data);
        let mut wire = Vec::new();
        write_frame(&mut wire, MsgKind::ModelUp.tag(), &encoded).unwrap();

        let mut reader = RaggedReader::new(wire, chunks);
        let (tag, body) = read_frame(&mut reader).unwrap();
        prop_assert_eq!(tag, MsgKind::ModelUp.tag());
        let mut decoded = Vec::new();
        decode_f32_into(&body, &mut decoded).unwrap();

        let got: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    /// The write mirror of the ragged-read property: a frame written
    /// through arbitrarily short accepted writes puts exactly the same
    /// bytes on the wire as an unconstrained write, parseable at the far
    /// end. (`write_frame`'s `write_all` loops absorb the short writes.)
    #[test]
    fn frames_survive_ragged_partial_writes(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..600),
        chunks in prop::collection::vec(1usize..8, 1..10),
    ) {
        let mut ragged = RaggedWriter::new(chunks);
        let written = write_frame(&mut ragged, tag, &body).unwrap();
        prop_assert_eq!(written, FRAME_HEADER_BYTES + body.len() as u64);

        let mut direct = Vec::new();
        write_frame(&mut direct, tag, &body).unwrap();
        prop_assert_eq!(&ragged.sink, &direct);

        let (got_tag, got_body) = read_frame(&mut ragged.sink.as_slice()).unwrap();
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(got_body, body);
    }

    /// Every control message round-trips through its wire body.
    #[test]
    fn control_messages_round_trip(msg in control_msg()) {
        let mut body = Vec::new();
        msg.encode_body(&mut body);
        let back = ControlMsg::decode_body(msg.tag(), &body).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Control bodies with bytes missing never decode successfully.
    #[test]
    fn short_control_bodies_are_rejected(msg in control_msg(), drop_tail in 1usize..8) {
        let mut body = Vec::new();
        msg.encode_body(&mut body);
        prop_assume!(!body.is_empty());
        let cut = body.len().saturating_sub(drop_tail);
        prop_assert!(ControlMsg::decode_body(msg.tag(), &body[..cut]).is_err());
    }
}

#[test]
fn nan_clip_round_trips_as_nan() {
    // The Welcome NaN-means-no-clip convention must survive the wire even
    // though NaN != NaN (PartialEq can't check this one).
    let msg = ControlMsg::Welcome {
        num_clients: 4,
        rounds: 2,
        local_steps: 2,
        batch_size: 16,
        probe_batch: 0,
        lambda: 1e-3,
        lr: 0.05,
        clip_grad_norm: f32::NAN,
        seed: 7,
        compression: Compression::Quantize { bits: 4 },
    };
    let mut body = Vec::new();
    msg.encode_body(&mut body);
    let ControlMsg::Welcome { clip_grad_norm, .. } =
        ControlMsg::decode_body(msg.tag(), &body).unwrap()
    else {
        panic!("wrong variant");
    };
    assert!(clip_grad_norm.is_nan());
}
