//! The wire format, written once: a frame is `[u32 le body_len][u8 tag][body]`,
//! the body a [`Payload`]: bytes (a `ControlMsg`'s, or any body as is), a
//! dense `f32` payload (its count, then its values) or a [`CompressedVec`].
//! One encoder ([`Payload::frame`]) turns a payload into a header plus at
//! most three borrowed parts, which a writer sends in one vectored write and
//! the encode-once broadcast joins into one shared buffer. The reader is one
//! sans-IO `Decoder`, which both ends drive: a client from its blocking
//! socket, the reactor from each chunk its `read(2)` returned. A dense
//! payload's values land straight in the `Vec<f32>` the frame hands out;
//! every other body is kept as bytes. A body grows as bytes arrive
//! (`reserve_body`), so a header costs no more memory than the bytes behind
//! it, and one over the decoder's cap none.

use super::message::MsgKind;
use crate::compress::CompressedVec;
use rfl_tensor::{f32_bytes, f32_bytes_mut, u32_bytes};
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::sync::Arc;

/// Framing overhead per frame: 4-byte body length + 1-byte tag.
pub const FRAME_HEADER_BYTES: u64 = 5;

const HEADER: usize = FRAME_HEADER_BYTES as usize;

/// Upper bound on a frame body — rejects garbage lengths before allocating.
pub(crate) const MAX_FRAME_BYTES: usize = 256 << 20;

/// The most one read of a frame body asks for, and the most a reader
/// reserves for a body on the word of its header alone (the reactor's read
/// buffer is this size too).
pub(crate) const READ_CHUNK_BYTES: usize = 64 << 10;

/// Writes one `[len][tag][body]` frame; returns its wire size. Header and
/// body leave in one vectored write — on a `TCP_NODELAY` stream one `send`
/// and one segment instead of two — and only a short write loops. A body
/// over the cap is an `InvalidInput` error, and nothing is written.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, tag: u8, body: &[u8]) -> io::Result<u64> {
    Payload::Bytes(body).frame(tag)?.write_to(w)?;
    Ok(FRAME_HEADER_BYTES + body.len() as u64)
}

/// Encodes one `[len][tag][body]` frame into a shared buffer — the
/// encode-once broadcast path queues a single `Arc<[u8]>` to every
/// recipient, so fan-out costs refcount bumps, not copies.
pub fn encode_frame(tag: u8, body: &[u8]) -> Arc<[u8]> {
    Payload::Bytes(body).encode(tag)
}

/// What a frame carries, borrowed from its owner.
#[derive(Clone, Copy)]
pub(crate) enum Payload<'a> {
    /// A body sent as is: a control message's, or any frame's.
    Bytes(&'a [u8]),
    /// `f32` values in the codec's encoding ([`rfl_tensor::encode_f32_into`]):
    /// their count, then their bytes.
    Dense(&'a [f32]),
    /// [`CompressedVec::encode_into`]'s layout: the section header, then the
    /// three sections.
    Compressed(&'a CompressedVec),
}

/// The longest header a frame's parts lead with: the frame's own and a
/// compressed payload's section header.
const HEAD: usize = HEADER + CompressedVec::HEADER_BYTES;

/// One frame ready for the wire: its header — the frame's, then a dense
/// payload's count or a compressed payload's section header — and the
/// payload's bytes in place, in at most three parts.
pub(crate) struct Parts<'a> {
    head: [u8; HEAD],
    head_len: usize,
    body: [&'a [u8]; 3],
}

impl<'a> Payload<'a> {
    /// The one encoder: this payload as a `tag` frame. A body over
    /// [`MAX_FRAME_BYTES`] is an `InvalidInput` error.
    pub(crate) fn frame(self, tag: u8) -> io::Result<Parts<'a>> {
        let mut parts = Parts {
            head: [0; HEAD],
            head_len: HEADER,
            body: [&[]; 3],
        };
        let len = match self {
            Payload::Bytes(bytes) => {
                parts.body[0] = bytes;
                bytes.len()
            }
            Payload::Dense(values) => {
                parts.head_len += 4;
                parts.head[HEADER..parts.head_len]
                    .copy_from_slice(&(values.len() as u32).to_le_bytes());
                parts.body[0] = f32_bytes(values);
                4 + parts.body[0].len()
            }
            Payload::Compressed(payload) => {
                parts.head_len = HEAD;
                parts.head[HEADER..].copy_from_slice(&payload.section_header());
                let (words, floats) = (&payload.words_u32, &payload.words_f32);
                parts.body = [u32_bytes(words), f32_bytes(floats), &payload.bytes];
                payload.wire_bytes()
            }
        };
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES} cap"),
            ));
        }
        let [a, b, c, d] = (len as u32).to_le_bytes();
        parts.head[..HEADER].copy_from_slice(&[a, b, c, d, tag]);
        Ok(parts)
    }

    /// This payload as one `tag` frame in a shared buffer, for the write
    /// queues of the server's connections.
    ///
    /// # Panics
    /// If the body is over [`MAX_FRAME_BYTES`].
    pub(crate) fn encode(self, tag: u8) -> Arc<[u8]> {
        let parts = self.frame(tag).expect("frame body too large");
        Arc::from(parts.slices().concat())
    }
}

impl Parts<'_> {
    /// The header and the body's parts, in wire order.
    fn slices(&self) -> [&[u8]; 4] {
        let [a, b, c] = self.body;
        [&self.head[..self.head_len], a, b, c]
    }

    /// Writes the frame, then flushes: one vectored write when the writer
    /// takes everything, and only a short write loops, resuming at the first
    /// byte not taken.
    pub(crate) fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let parts = self.slices();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut sent = 0;
        while sent < total {
            let mut slices = [IoSlice::new(&[]); 4];
            let (mut used, mut skip) = (0, sent);
            for part in parts {
                if skip < part.len() {
                    slices[used] = IoSlice::new(&part[skip..]);
                    used += 1;
                }
                skip = skip.saturating_sub(part.len());
            }
            match w.write_vectored(&slices[..used]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Reads one frame, tolerating arbitrarily split reads. Returns `(tag,
/// body)`. The body grows as bytes arrive, one read of at most 64 KiB at a
/// time, so a garbled or hostile header costs no more memory than the
/// bytes that follow it.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let frame = Decoder::new(MAX_FRAME_BYTES, false).read_from(r)?;
    match frame.ok_or(io::ErrorKind::UnexpectedEof)? {
        (tag, Body::Bytes(body)) => Ok((tag, body)),
        // A decoder built without dense bodies hands out none.
        (_, Body::Dense { .. }) => Err(io::ErrorKind::InvalidData.into()),
    }
}

/// The next stretch of `body`, a frame body of `need` words, for a read to
/// fill, as wire bytes: from byte `have` to the end of the body or of its
/// current [`READ_CHUNK_BYTES`] chunk, whichever comes first. The vector
/// grows to cover it, zeroed once, and keeps that length. Its first
/// reservation is at most one chunk, each later one at most doubles it, and
/// none passes `need` — so a peer has to send what its header claims before
/// the decoder holds it. Every body grows through here.
fn reserve_body<T: Copy + Default>(
    body: &mut Vec<T>,
    need: usize,
    have: usize,
    view: impl Fn(&mut [T]) -> &mut [u8],
) -> &mut [u8] {
    let word = std::mem::size_of::<T>();
    let take = (need * word - have).min(READ_CHUNK_BYTES - have % READ_CHUNK_BYTES);
    let len = body.len();
    let more = (have + take).div_ceil(word).saturating_sub(len);
    if body.capacity() - len < more {
        let grow = if len == 0 {
            need.min(READ_CHUNK_BYTES / word)
        } else {
            (need - len).min(more.max(len))
        };
        body.reserve_exact(grow.max(more));
    }
    body.resize(len + more, T::default());
    &mut view(body)[have..have + take]
}

/// A frame body as the decoder hands it out.
#[derive(Debug, PartialEq)]
pub(crate) enum Body {
    /// Any body but a dense payload's, as its bytes.
    Bytes(Vec<u8>),
    /// A dense payload's body of `4 + 4n` bytes: the count word it leads
    /// with and the `n` values behind it.
    Dense { count: [u8; 4], values: Vec<f32> },
}

impl Body {
    /// The body's length on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            Body::Bytes(bytes) => bytes.len(),
            Body::Dense { values, .. } => 4 + 4 * values.len(),
        }
    }

    /// A byte body's bytes; `None` for a dense one.
    pub(crate) fn bytes(&self) -> Option<&[u8]> {
        match self {
            Body::Bytes(bytes) => Some(bytes),
            Body::Dense { .. } => None,
        }
    }

    /// A dense payload's values. A body that is not exactly its count and
    /// that many values — the rule of [`rfl_tensor::decode_f32_into`] — is
    /// `InvalidData`, and so is a byte body.
    pub(crate) fn into_values(self) -> io::Result<Vec<f32>> {
        match self {
            Body::Dense { count, values } if u32::from_le_bytes(count) as usize == values.len() => {
                Ok(values)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad payload codec",
            )),
        }
    }
}

/// The one frame decoder, sans I/O: [`want`](Decoder::want) exposes the
/// buffers the next read fills, and [`advance`](Decoder::advance) returns
/// the frame the bytes that landed there complete. Between frames it holds
/// no buffer: a finished body leaves with its frame.
pub(crate) struct Decoder {
    /// The longest body a header may claim.
    cap: usize,
    /// Whether a dense payload's values land in a `Vec<f32>` or, like every
    /// other body, in bytes.
    dense: bool,
    header: [u8; HEADER],
    /// Bytes of the current frame received, its header's included.
    at: usize,
    /// The current body's length, once its header is whole.
    need: usize,
    /// The current body so far; its vector may run ahead of `at`, zeroed.
    body: Body,
}

impl Decoder {
    /// A decoder that refuses a header claiming more than `cap` bytes, and
    /// whose dense payloads land in a `Vec<f32>` when `dense` is set.
    pub(crate) fn new(cap: usize, dense: bool) -> Decoder {
        Decoder {
            cap,
            dense,
            header: [0; HEADER],
            at: 0,
            need: 0,
            body: Body::Bytes(Vec::new()),
        }
    }

    /// The buffers the next read fills, in wire order: what is left of the
    /// header, or the rest of the body's current chunk — behind what is left
    /// of a dense body's count word, so the two arrive in one read.
    fn want(&mut self) -> [IoSliceMut<'_>; 2] {
        let Some(have) = self.at.checked_sub(HEADER) else {
            let header = IoSliceMut::new(&mut self.header[self.at..]);
            return [header, IoSliceMut::new(&mut [])];
        };
        match &mut self.body {
            Body::Bytes(body) => [
                IoSliceMut::new(reserve_body(body, self.need, have, |b| b)),
                IoSliceMut::new(&mut []),
            ],
            Body::Dense { count, values } => {
                let lead = have.min(4);
                let n = (self.need - 4) / 4;
                [
                    IoSliceMut::new(&mut count[lead..]),
                    IoSliceMut::new(reserve_body(values, n, have - lead, f32_bytes_mut)),
                ]
            }
        }
    }

    /// Takes `n` bytes read into [`Decoder::want`]'s buffers; returns the
    /// frame they complete as `(tag, body)`. A header claiming more than the
    /// cap is `InvalidData`, and after it the decoder is spent.
    fn advance(&mut self, n: usize) -> io::Result<Option<(u8, Body)>> {
        let started = self.at >= HEADER;
        self.at += n;
        if self.at < HEADER {
            return Ok(None);
        }
        if !started {
            let [a, b, c, d, tag] = self.header;
            let (need, cap) = (u32::from_le_bytes([a, b, c, d]) as usize, self.cap);
            if need > cap {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame body of {need} bytes exceeds the {cap} cap"),
                ));
            }
            self.need = need;
            let dense_kind = MsgKind::from_tag(tag).is_some_and(|k| !k.is_compressed());
            if self.dense && dense_kind && need >= 4 && need.is_multiple_of(4) {
                self.body = Body::Dense {
                    count: [0; 4],
                    values: Vec::new(),
                };
            }
        }
        if self.at - HEADER < self.need {
            return Ok(None);
        }
        self.at = 0;
        let body = std::mem::replace(&mut self.body, Body::Bytes(Vec::new()));
        Ok(Some((self.header[4], body)))
    }

    /// Reads from `r` into [`Decoder::want`]'s buffers until a frame is
    /// whole and returns it, or `None` once `r` runs dry — a socket's EOF,
    /// the end of a chunk — keeping the part read for the next call.
    pub(crate) fn read_from<R: Read + ?Sized>(
        &mut self,
        r: &mut R,
    ) -> io::Result<Option<(u8, Body)>> {
        loop {
            let read = r.read_vectored(&mut self.want());
            match read {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    if let Some(frame) = self.advance(n)? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::message::{ControlMsg, HELLO_BODY_BYTES};
    use super::*;
    use proptest::prelude::*;

    fn frame(tag: u8, body: &[u8]) -> Arc<[u8]> {
        encode_frame(tag, body)
    }

    /// A body's wire bytes, whichever way it was decoded.
    fn wire_body(body: &Body) -> Vec<u8> {
        match body {
            Body::Bytes(bytes) => bytes.clone(),
            Body::Dense { count, values } => [&count[..], f32_bytes(values)].concat(),
        }
    }

    impl Decoder {
        /// The current body's bytes so far, and the bytes its vector
        /// reserves.
        fn held(&self) -> (Vec<u8>, usize) {
            let mut bytes = wire_body(&self.body);
            bytes.truncate(self.at.saturating_sub(HEADER));
            let reserved = match &self.body {
                Body::Bytes(bytes) => bytes.capacity(),
                Body::Dense { values, .. } => 4 * values.capacity(),
            };
            (bytes, reserved)
        }
    }

    /// Feeds `chunks` in order, as the reactor does: every frame they
    /// complete, or the error that spent the decoder.
    fn feed_all(decoder: &mut Decoder, chunks: &[&[u8]]) -> io::Result<Vec<(u8, Body)>> {
        let mut frames = Vec::new();
        for mut chunk in chunks.iter().copied() {
            while let Some(frame) = decoder.read_from(&mut chunk)? {
                frames.push(frame);
            }
        }
        Ok(frames)
    }

    fn bytes(tag: u8, body: &[u8]) -> (u8, Body) {
        (tag, Body::Bytes(body.to_vec()))
    }

    #[test]
    fn a_header_alone_reserves_at_most_one_read_chunk() {
        let mut reader = Decoder::new(MAX_FRAME_BYTES, true);
        let mut header = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        header.push(0x02);
        // 256 MiB claimed, then silence.
        assert_eq!(feed_all(&mut reader, &[&header]).unwrap(), vec![]);
        assert_eq!(reader.need, MAX_FRAME_BYTES);
        assert!(reader.held().1 <= READ_CHUNK_BYTES);
        // What does arrive is held, and little more.
        let drip = vec![0xAB; 3 * READ_CHUNK_BYTES];
        assert_eq!(feed_all(&mut reader, &[&drip]).unwrap(), vec![]);
        let (held, reserved) = reader.held();
        assert_eq!(held.len(), drip.len());
        assert!(reserved <= 2 * drip.len());
    }

    #[test]
    fn a_length_over_the_cap_is_corrupt() {
        let mut header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        header.push(0x02);
        let corrupt = |chunks: &[&[u8]]| {
            let mut decoder = Decoder::new(MAX_FRAME_BYTES, true);
            feed_all(&mut decoder, chunks).unwrap_err().kind() == io::ErrorKind::InvalidData
        };
        assert!(corrupt(&[&header]));
        // Also when the header arrives a byte at a time.
        let bytes: Vec<&[u8]> = header.chunks(1).collect();
        assert!(corrupt(&bytes));
    }

    /// The handshake's cap, a `Hello`'s body: a longer header is refused
    /// before any room is made for its body.
    #[test]
    fn a_header_over_the_cap_reserves_nothing() {
        let mut hello = Decoder::new(HELLO_BODY_BYTES, true);
        let mut header = (HELLO_BODY_BYTES as u32 + 1).to_le_bytes().to_vec();
        header.push(0x10);
        let err = feed_all(&mut hello, &[&header, &[0; 64]]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(hello.held(), (Vec::new(), 0));
    }

    #[test]
    fn empty_bodies_emit_as_soon_as_their_header_is_whole() {
        let wire = [frame(0x15, b""), frame(0x16, b"")].concat();
        let mut reader = Decoder::new(MAX_FRAME_BYTES, true);
        assert_eq!(
            feed_all(&mut reader, &[&wire[..9], &wire[9..]]).unwrap(),
            vec![bytes(0x15, b""), bytes(0x16, b"")]
        );
    }

    #[test]
    fn two_and_a_half_frames_emit_two_and_keep_the_half() {
        let wire = [frame(1, b"first"), frame(2, b"second"), frame(3, b"third")].concat();
        let cut = wire.len() - 4;
        let mut reader = Decoder::new(MAX_FRAME_BYTES, true);
        assert_eq!(
            feed_all(&mut reader, &[&wire[..cut]]).unwrap(),
            vec![bytes(1, b"first"), bytes(2, b"second")]
        );
        assert_eq!(reader.held().0, b"t");
        assert_eq!(
            feed_all(&mut reader, &[&wire[cut..]]).unwrap(),
            vec![bytes(3, b"third")]
        );
    }

    /// A source that fills every buffer it is offered as far as its bytes
    /// go, and counts the calls.
    struct Counting<'a> {
        wire: &'a [u8],
        calls: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.wire.read(buf)
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            self.calls += 1;
            self.wire.read_vectored(bufs)
        }
    }

    /// The client's read shape, which `wire_cohort_1k`'s one echo thread
    /// pays per frame: a body of at most 64 KiB costs one read after its
    /// header's — a dense one's count and values in the same read — and an
    /// empty body none.
    #[test]
    fn a_body_up_to_one_chunk_costs_one_read_after_its_header() {
        let reads = |wire: &[u8]| {
            let mut src = Counting { wire, calls: 0 };
            let frame = Decoder::new(MAX_FRAME_BYTES, true).read_from(&mut src);
            assert!(frame.unwrap().is_some() && src.wire.is_empty());
            src.calls
        };
        let model = MsgKind::ModelDown.tag();
        for n in [0, 1, 1024, READ_CHUNK_BYTES / 4 - 1] {
            let mut body = Vec::new();
            rfl_tensor::encode_f32_into(&mut body, &vec![0.5; n]);
            assert_eq!(reads(&frame(model, &body)), 2, "{n} values");
        }
        for len in [1, 18, 4100, READ_CHUNK_BYTES] {
            let body = vec![7; len];
            assert_eq!(reads(&frame(0x14, &body)), 2, "{len} bytes");
            assert_eq!(
                reads(&frame(MsgKind::CompressedUp.tag(), &body)),
                2,
                "{len} bytes"
            );
        }
        assert_eq!(reads(&frame(0x15, b"")), 1);
        assert_eq!(reads(&frame(0x14, &[7; READ_CHUNK_BYTES + 1])), 3);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 0x42, b"hello").unwrap();
        assert_eq!(n, 5 + 5);
        assert_eq!(buf.len() as u64, n);
        let (tag, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, 0x42);
        assert_eq!(body, b"hello");
    }

    /// A sink that counts write calls and accepts at most `limit` bytes
    /// per call (vectored or not).
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.limit - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_when_the_writer_takes_it_all() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: usize::MAX,
        };
        for i in 0..3u8 {
            write_frame(&mut sink, i, &[i; 100]).unwrap();
            assert_eq!(sink.calls, i as usize + 1);
        }
        write_frame(&mut sink, 9, &[]).unwrap();
        assert_eq!(sink.calls, 4);
        let mut wire = sink.bytes.as_slice();
        for i in 0..3u8 {
            assert_eq!(read_frame(&mut wire).unwrap(), (i, vec![i; 100]));
        }
        assert_eq!(read_frame(&mut wire).unwrap(), (9, Vec::new()));
    }

    #[test]
    fn a_frame_survives_a_writer_that_takes_one_byte_per_call() {
        let drip = || Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: 1,
        };
        let mut sink = drip();
        let body: Vec<u8> = (0..=255).collect();
        let n = write_frame(&mut sink, 0x17, &body).unwrap();
        assert_eq!(n, sink.bytes.len() as u64);
        assert_eq!(sink.calls, 5 + 256);
        assert_eq!(
            read_frame(&mut sink.bytes.as_slice()).unwrap(),
            (0x17, body)
        );

        // The vectored payload sends resume mid-part too, and write what the
        // staged encoders would have, as do the joined frames a broadcast
        // queues.
        let payload = CompressedVec {
            words_u32: vec![7, u32::MAX, 0x0102_0304],
            words_f32: vec![-1.5, f32::NAN, 3.25],
            bytes: vec![9, 8, 7, 6, 5],
        };
        let mut staged = Vec::new();
        payload.encode_into(&mut staged);
        let mut sink = drip();
        let compressed = Payload::Compressed(&payload);
        compressed.frame(0x21).unwrap().write_to(&mut sink).unwrap();
        assert_eq!(sink.calls, 5 + staged.len());
        assert_eq!(sink.bytes, encode_frame(0x21, &staged).as_ref());
        assert_eq!(sink.bytes, compressed.encode(0x21).as_ref());

        let values = [0.5f32, -0.0, f32::INFINITY, 1e-40];
        rfl_tensor::encode_f32_into(&mut staged, &values);
        let mut sink = drip();
        let dense = Payload::Dense(&values);
        dense.frame(0x22).unwrap().write_to(&mut sink).unwrap();
        assert_eq!(sink.calls, 5 + staged.len());
        assert_eq!(sink.bytes, encode_frame(0x22, &staged).as_ref());
        assert_eq!(sink.bytes, dense.encode(0x22).as_ref());
    }

    #[test]
    fn a_body_over_the_cap_is_an_invalid_input_and_sends_nothing() {
        // Zeroed allocations this large are mapped, never touched: a send
        // refuses them before it reads a byte.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, 0x01, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty());
        let payload = CompressedVec {
            bytes: huge,
            ..CompressedVec::default()
        };
        let err = Payload::Compressed(&payload).frame(0x21).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The count pushes a cap's worth of values one word over.
        let values = vec![0.0f32; MAX_FRAME_BYTES / 4];
        let err = Payload::Dense(&values).frame(0x22).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // At the cap exactly, a frame goes.
        let at_cap = Payload::Dense(&values[1..]).frame(0x22).unwrap();
        let [a, b, c, d, tag] = at_cap.slices()[0][..HEADER] else {
            unreachable!("a header is five bytes")
        };
        assert_eq!((u32::from_le_bytes([a, b, c, d]), tag), (256 << 20, 0x22));
    }

    /// A source that hands out at most `steps[i]` bytes on its `i`-th read,
    /// vectored or not, cycling through `steps`.
    struct Drip<'a> {
        wire: &'a [u8],
        steps: &'a [usize],
        turn: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let step = self.steps[self.turn % self.steps.len()];
            self.turn += 1;
            let mut given = 0;
            for buf in bufs {
                let n = buf.len().min(step - given).min(self.wire.len());
                buf[..n].copy_from_slice(&self.wire[..n]);
                self.wire = &self.wire[n..];
                given += n;
            }
            Ok(given)
        }
    }

    /// What a client's decoder makes of the next frame from `src`: a dense
    /// payload's tag and values, or the error `read_event` would return.
    fn next_values<R: Read>(src: &mut R) -> io::Result<(u8, Vec<f32>)> {
        let frame = Decoder::new(MAX_FRAME_BYTES, true).read_from(src)?;
        let (tag, body) = frame.ok_or(io::ErrorKind::UnexpectedEof)?;
        Ok((tag, body.into_values()?))
    }

    #[test]
    fn a_dense_payload_reads_exactly_its_count_under_any_split() {
        let values: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) * 0.37).collect();
        let mut body = Vec::new();
        rfl_tensor::encode_f32_into(&mut body, &values);
        let tag = MsgKind::ModelDown.tag();
        let frame = encode_frame(tag, &body);
        for step in [1, 2, 3, 5, 7, 9, 4096, usize::MAX] {
            let steps = [step];
            let mut src = Drip {
                wire: &frame,
                steps: &steps,
                turn: 0,
            };
            let Ok((got_tag, got)) = next_values(&mut src) else {
                panic!("step {step}: not a payload")
            };
            assert_eq!((got_tag, got), (tag, values.clone()), "step {step}");
            assert!(src.wire.is_empty());
        }
        // An empty payload is its count alone.
        rfl_tensor::encode_f32_into(&mut body, &[]);
        let (_, got) = next_values(&mut encode_frame(tag, &body).as_ref()).unwrap();
        assert!(got.is_empty());

        // Padded by a byte or a word, cut short, or too short to hold its
        // count: each is refused, as `decode_f32_into` refuses it.
        rfl_tensor::encode_f32_into(&mut body, &values);
        let mut bad: Vec<Vec<u8>> = vec![vec![1, 0, 0]];
        for pad in [1, 4] {
            let mut padded = body.clone();
            padded.resize(body.len() + pad, 0);
            bad.push(padded);
        }
        bad.push(body[..body.len() - 4].to_vec());
        for body in bad {
            let mut decoded = Vec::new();
            assert!(rfl_tensor::decode_f32_into(&body, &mut decoded).is_err());
            let err = next_values(&mut encode_frame(tag, &body).as_ref()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{} bytes",
                body.len()
            );
        }
    }

    #[test]
    fn empty_body_frames_work() {
        let mut buf = Vec::new();
        write_frame(&mut buf, ControlMsg::Goodbye.tag(), &[]).unwrap();
        let (tag, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, ControlMsg::Goodbye.tag());
        assert!(body.is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(0x01);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, &[1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    /// A source that records the largest buffer a read asks it to fill.
    struct Recorder<'a> {
        wire: &'a [u8],
        largest_ask: usize,
    }

    impl Read for Recorder<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.wire.read(buf)
        }
    }

    #[test]
    fn a_header_sizes_no_read_past_one_chunk() {
        let body: Vec<u8> = (0..200u32 << 10).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x02, &body).unwrap();
        let mut src = Recorder {
            wire: &wire,
            largest_ask: 0,
        };
        assert_eq!(read_frame(&mut src).unwrap(), (0x02, body));
        assert!(src.largest_ask <= READ_CHUNK_BYTES, "{}", src.largest_ask);

        // 256 MiB claimed, then EOF: one chunk asked for, and refused.
        let mut header = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        header.push(0x02);
        let mut src = Recorder {
            wire: &header,
            largest_ask: 0,
        };
        let err = read_frame(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(src.largest_ask <= READ_CHUNK_BYTES, "{}", src.largest_ask);

        // The same claim on a dense payload, 10 bytes behind it: the
        // client's vector reserves one chunk, not the claim.
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        wire.push(MsgKind::ModelDown.tag());
        wire.extend_from_slice(&[0xAB; 10]);
        let mut src = Recorder {
            wire: &wire,
            largest_ask: 0,
        };
        let err = next_values(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(src.largest_ask <= READ_CHUNK_BYTES, "{}", src.largest_ask);
        let mut decoder = Decoder::new(MAX_FRAME_BYTES, true);
        assert!(decoder.read_from(&mut &wire[..]).unwrap().is_none());
        let tag = decoder.header[4];
        assert_eq!(
            (tag, decoder.need),
            (MsgKind::ModelDown.tag(), MAX_FRAME_BYTES)
        );
        let (_, reserved) = decoder.held();
        assert!(reserved <= READ_CHUNK_BYTES, "{reserved}");
    }

    /// A plain slicing parser: every whole frame in `wire`, in order.
    fn slice_frames(mut wire: &[u8]) -> Vec<(u8, Vec<u8>)> {
        let mut frames = Vec::new();
        while let Some((&[a, b, c, d, tag], rest)) = wire.split_first_chunk::<5>() {
            let len = u32::from_le_bytes([a, b, c, d]) as usize;
            let Some(body) = rest.get(..len) else { break };
            frames.push((tag, body.to_vec()));
            wire = &rest[len..];
        }
        frames
    }

    proptest! {
        /// Any frames, truncated anywhere: fed in chunks cut anywhere (the
        /// reactor's driver) or read from a source that splits every read
        /// anywhere (a client's), the decoder yields exactly what a slicing
        /// parser finds, and so does `read_frame`. A body lands in a vector
        /// exactly when it is a dense payload's `4 + 4n` bytes and the
        /// decoder takes dense payloads.
        #[test]
        fn both_drivers_decode_what_a_slicing_parser_finds(
            frames in prop::collection::vec(
                (prop_oneof![1u8..=9, any::<u8>()], prop::collection::vec(any::<u8>(), 0..300)),
                0..12,
            ),
            cuts in prop::collection::vec(1usize..97, 1..8),
            cut_tail in 0usize..40,
            dense in any::<bool>(),
        ) {
            let mut wire = Vec::new();
            for (tag, body) in &frames {
                write_frame(&mut wire, *tag, body).expect("vec write");
            }
            wire.truncate(wire.len().saturating_sub(cut_tail));
            let oracle = slice_frames(&wire);

            let mut chunks = Vec::new();
            let (mut at, mut turn) = (0, 0);
            while at < wire.len() {
                let end = (at + cuts[turn % cuts.len()]).min(wire.len());
                chunks.push(&wire[at..end]);
                (at, turn) = (end, turn + 1);
            }
            let fed = feed_all(&mut Decoder::new(MAX_FRAME_BYTES, dense), &chunks);

            let mut src = Drip { wire: &wire, steps: &cuts, turn: 0 };
            let mut decoder = Decoder::new(MAX_FRAME_BYTES, dense);
            let mut read = Vec::new();
            while let Some(frame) = decoder.read_from(&mut src).expect("no error") {
                read.push(frame);
            }

            for decoded in [fed.expect("no error"), read] {
                let mut got = Vec::new();
                for (tag, body) in &decoded {
                    let dense_kind = MsgKind::from_tag(*tag).is_some_and(|k| !k.is_compressed());
                    let len = body.wire_len();
                    let want_dense = dense && dense_kind && len >= 4 && len.is_multiple_of(4);
                    prop_assert_eq!(matches!(body, Body::Dense { .. }), want_dense);
                    got.push((*tag, wire_body(body)));
                }
                prop_assert_eq!(&got, &oracle);
            }

            let mut rest = wire.as_slice();
            let mut by_read_frame = Vec::new();
            while let Ok(frame) = read_frame(&mut rest) {
                by_read_frame.push(frame);
            }
            prop_assert_eq!(by_read_frame, oracle);
        }
    }
}
