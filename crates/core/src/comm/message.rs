//! Typed message envelopes and delivery outcomes.
//!
//! Every payload that crosses the simulated network is tagged with a
//! [`MsgKind`] naming *what* the bytes are (model parameters, δ maps,
//! control state), which fixes the transfer direction and the accounting
//! plane (model vs δ) once, at the type level — algorithm code no longer
//! picks counters itself ([`super::CommStats::charge`] does).

use super::stats::Direction;
use crate::compress::Compression;

/// The fixed vocabulary of messages the FL protocols exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Global model parameters, server → client.
    ModelDown,
    /// Locally trained model parameters, client → server.
    ModelUp,
    /// The full δ table `(δ¹, …, δᴺ)`, server → client — rFedAvg's
    /// `O(dN²)` broadcast.
    DeltaTableDown,
    /// A single averaged δ target `δ̄^{−k}`, server → client — rFedAvg+'s
    /// `O(dN)` alternative.
    DeltaDown,
    /// A client's recomputed δ map, client → server.
    DeltaUp,
    /// Algorithm control state (e.g. SCAFFOLD's variate `c`), server →
    /// client. Model-plane accounting.
    ControlDown,
    /// Algorithm control state (e.g. SCAFFOLD's `c_k⁺`), client → server.
    ControlUp,
    /// A compressed model update (`CompressedVec` frame), client → server.
    /// Model-plane accounting at the *encoded* byte count.
    CompressedUp,
    /// A compressed δ map (`CompressedVec` frame), client → server.
    /// δ-plane accounting at the encoded byte count.
    CompressedDeltaUp,
}

impl MsgKind {
    /// Transfer direction, from the clients' perspective.
    pub(crate) fn direction(self) -> Direction {
        match self {
            MsgKind::ModelDown
            | MsgKind::DeltaTableDown
            | MsgKind::DeltaDown
            | MsgKind::ControlDown => Direction::Download,
            MsgKind::ModelUp
            | MsgKind::DeltaUp
            | MsgKind::ControlUp
            | MsgKind::CompressedUp
            | MsgKind::CompressedDeltaUp => Direction::Upload,
        }
    }

    /// Whether the message belongs to the δ accounting plane (the Table III
    /// byte counters).
    pub(crate) fn is_delta(self) -> bool {
        matches!(
            self,
            MsgKind::DeltaTableDown
                | MsgKind::DeltaDown
                | MsgKind::DeltaUp
                | MsgKind::CompressedDeltaUp
        )
    }

    /// Whether the payload is a `CompressedVec` frame rather than a dense
    /// f32 vector.
    pub(crate) fn is_compressed(self) -> bool {
        matches!(self, MsgKind::CompressedUp | MsgKind::CompressedDeltaUp)
    }

    /// Stable one-byte wire tag (the socket framing layer's frame type).
    pub fn tag(self) -> u8 {
        match self {
            MsgKind::ModelDown => 0x01,
            MsgKind::ModelUp => 0x02,
            MsgKind::DeltaTableDown => 0x03,
            MsgKind::DeltaDown => 0x04,
            MsgKind::DeltaUp => 0x05,
            MsgKind::ControlDown => 0x06,
            MsgKind::ControlUp => 0x07,
            MsgKind::CompressedUp => 0x08,
            MsgKind::CompressedDeltaUp => 0x09,
        }
    }

    /// Inverse of [`MsgKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<MsgKind> {
        Some(match tag {
            0x01 => MsgKind::ModelDown,
            0x02 => MsgKind::ModelUp,
            0x03 => MsgKind::DeltaTableDown,
            0x04 => MsgKind::DeltaDown,
            0x05 => MsgKind::DeltaUp,
            0x06 => MsgKind::ControlDown,
            0x07 => MsgKind::ControlUp,
            0x08 => MsgKind::CompressedUp,
            0x09 => MsgKind::CompressedDeltaUp,
            _ => return None,
        })
    }
}

/// Protocol magic of the socket handshake (`b"rFL1"`, little-endian).
pub const PROTO_MAGIC: u32 = u32::from_le_bytes(*b"rFL1");

/// Wire protocol version; bumped on any framing or control-layer change.
/// v2: `Welcome` carries the upload-compression policy and the payload
/// plane gained `CompressedUp`/`CompressedDeltaUp` frames.
pub const PROTO_VERSION: u16 = 2;

/// Every [`ControlMsg::Hello`] body's length; a handshake admits no longer.
pub(crate) const HELLO_BODY_BYTES: usize = 4 + 2 + 4 + 8;

/// Control frames of the socket protocol — the session/handshake vocabulary
/// that exists *next to* the [`MsgKind`] payload planes. In the in-process
/// simulation these never occur; over a real socket they carry registration,
/// round orchestration, and graceful-churn signalling.
#[derive(Clone, Debug, PartialEq)]
pub enum ControlMsg {
    /// Client → server registration: first frame on every (re)connection.
    Hello {
        /// Must equal [`PROTO_MAGIC`]; rejects stray connections early.
        magic: u32,
        /// Must equal [`PROTO_VERSION`].
        version: u16,
        /// The federation-wide client index (0-based).
        client_id: u32,
        /// The run seed the client derived its data/model/RNG from; the
        /// server rejects a mismatch instead of silently diverging.
        seed: u64,
    },
    /// Server → client handshake reply: the full run configuration, so a
    /// client needs nothing beyond `(endpoint, id, seed)` to participate.
    Welcome {
        num_clients: u32,
        rounds: u32,
        local_steps: u32,
        batch_size: u32,
        probe_batch: u32,
        /// Regularization weight λ of the rFedAvg+ MMD rule.
        lambda: f32,
        /// Local SGD learning rate.
        lr: f32,
        /// Global-norm gradient clip; `NaN` encodes `None`.
        clip_grad_norm: f32,
        seed: u64,
        /// Upload-compression policy; clients compress `CompressedUp`/
        /// `CompressedDeltaUp` frames with exactly this policy (see
        /// `Compression::to_wire` for the field encoding).
        compression: Compression,
    },
    /// Server → client: train `steps` local steps for `round` now, with the
    /// δ target received this round (if any), then upload report + params.
    TrainStart { round: u64, steps: u32 },
    /// Server → client: recompute δ over the full local set with a
    /// `probe_batch`-sized probe and upload it as a `DeltaUp`.
    DeltaProbe { round: u64, probe_batch: u32 },
    /// Client → server: the [`crate::client::LocalReport`] of a completed
    /// `TrainStart` (precedes the `ModelUp` payload frame).
    Report {
        loss: f32,
        reg_loss: f32,
        steps: u32,
        examples: u32,
    },
    /// Client → server: graceful departure — the session drains and every
    /// later message on the link counts as a deterministic drop.
    Goodbye,
    /// Server → client: the run is over; disconnect and exit cleanly.
    Shutdown,
}

impl ControlMsg {
    /// Stable one-byte wire tag. Control tags live above 0x0F so they can
    /// never collide with [`MsgKind::tag`] payload tags.
    pub fn tag(&self) -> u8 {
        match self {
            ControlMsg::Hello { .. } => 0x10,
            ControlMsg::Welcome { .. } => 0x11,
            ControlMsg::TrainStart { .. } => 0x12,
            ControlMsg::DeltaProbe { .. } => 0x13,
            ControlMsg::Report { .. } => 0x14,
            ControlMsg::Goodbye => 0x15,
            ControlMsg::Shutdown => 0x16,
        }
    }

    /// Stable wire name (trace labels, error messages).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ControlMsg::Hello { .. } => "hello",
            ControlMsg::Welcome { .. } => "welcome",
            ControlMsg::TrainStart { .. } => "train_start",
            ControlMsg::DeltaProbe { .. } => "delta_probe",
            ControlMsg::Report { .. } => "report",
            ControlMsg::Goodbye => "goodbye",
            ControlMsg::Shutdown => "shutdown",
        }
    }

    /// Accounting direction of the control frame (control frames are
    /// metered on the model plane, like [`MsgKind::ControlDown`]/`Up`).
    pub(crate) fn direction(&self) -> Direction {
        match self {
            ControlMsg::Hello { .. } | ControlMsg::Report { .. } | ControlMsg::Goodbye => {
                Direction::Upload
            }
            ControlMsg::Welcome { .. }
            | ControlMsg::TrainStart { .. }
            | ControlMsg::DeltaProbe { .. }
            | ControlMsg::Shutdown => Direction::Download,
        }
    }

    /// Serializes the control body (everything after the frame tag) as
    /// fixed-width little-endian fields.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.clear();
        match *self {
            ControlMsg::Hello {
                magic,
                version,
                client_id,
                seed,
            } => {
                out.extend_from_slice(&magic.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&client_id.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ControlMsg::Welcome {
                num_clients,
                rounds,
                local_steps,
                batch_size,
                probe_batch,
                lambda,
                lr,
                clip_grad_norm,
                seed,
                compression,
            } => {
                out.extend_from_slice(&num_clients.to_le_bytes());
                out.extend_from_slice(&rounds.to_le_bytes());
                out.extend_from_slice(&local_steps.to_le_bytes());
                out.extend_from_slice(&batch_size.to_le_bytes());
                out.extend_from_slice(&probe_batch.to_le_bytes());
                out.extend_from_slice(&lambda.to_le_bytes());
                out.extend_from_slice(&lr.to_le_bytes());
                out.extend_from_slice(&clip_grad_norm.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
                let (mode, bits, ratio, rows, cols, comp_seed) = compression.to_wire();
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&bits.to_le_bytes());
                out.extend_from_slice(&ratio.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
                out.extend_from_slice(&cols.to_le_bytes());
                out.extend_from_slice(&comp_seed.to_le_bytes());
            }
            ControlMsg::TrainStart { round, steps } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&steps.to_le_bytes());
            }
            ControlMsg::DeltaProbe { round, probe_batch } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&probe_batch.to_le_bytes());
            }
            ControlMsg::Report {
                loss,
                reg_loss,
                steps,
                examples,
            } => {
                out.extend_from_slice(&loss.to_le_bytes());
                out.extend_from_slice(&reg_loss.to_le_bytes());
                out.extend_from_slice(&steps.to_le_bytes());
                out.extend_from_slice(&examples.to_le_bytes());
            }
            ControlMsg::Goodbye | ControlMsg::Shutdown => {}
        }
    }

    /// Inverse of [`ControlMsg::encode_body`] for a frame of type `tag`.
    pub fn decode_body(tag: u8, body: &[u8]) -> Result<ControlMsg, WireError> {
        let mut r = FieldReader::new(body);
        let msg = match tag {
            0x10 => ControlMsg::Hello {
                magic: r.u32()?,
                version: r.u16()?,
                client_id: r.u32()?,
                seed: r.u64()?,
            },
            0x11 => {
                let num_clients = r.u32()?;
                let rounds = r.u32()?;
                let local_steps = r.u32()?;
                let batch_size = r.u32()?;
                let probe_batch = r.u32()?;
                let lambda = r.f32()?;
                let lr = r.f32()?;
                let clip_grad_norm = r.f32()?;
                let seed = r.u64()?;
                let (mode, bits) = (r.u8()?, r.u8()?);
                let (ratio, rows, cols, comp_seed) = (r.f32()?, r.u16()?, r.u32()?, r.u64()?);
                let compression = Compression::from_wire(mode, bits, ratio, rows, cols, comp_seed)
                    .ok_or(WireError::BadLength)?;
                ControlMsg::Welcome {
                    num_clients,
                    rounds,
                    local_steps,
                    batch_size,
                    probe_batch,
                    lambda,
                    lr,
                    clip_grad_norm,
                    seed,
                    compression,
                }
            }
            0x12 => ControlMsg::TrainStart {
                round: r.u64()?,
                steps: r.u32()?,
            },
            0x13 => ControlMsg::DeltaProbe {
                round: r.u64()?,
                probe_batch: r.u32()?,
            },
            0x14 => ControlMsg::Report {
                loss: r.f32()?,
                reg_loss: r.f32()?,
                steps: r.u32()?,
                examples: r.u32()?,
            },
            0x15 => ControlMsg::Goodbye,
            0x16 => ControlMsg::Shutdown,
            _ => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// A malformed frame or control body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame tag names no known payload or control message.
    UnknownTag(u8),
    /// The body ended before (or after) its fixed-width fields.
    BadLength,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownTag(t) => write!(f, "unknown frame tag 0x{t:02x}"),
            WireError::BadLength => write!(f, "control body length mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian fixed-width field cursor over a control body.
struct FieldReader<'a> {
    buf: &'a [u8],
}

impl<'a> FieldReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        FieldReader { buf }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.buf.len() < N {
            return Err(WireError::BadLength);
        }
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        Ok(head.try_into().expect("split_at guarantees length"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.take()?))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take()?))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadLength)
        }
    }
}

/// Why a message did not arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Every transmission attempt was lost on the link.
    Loss,
    /// The message would have arrived after the round deadline; the sender
    /// is treated as a dropout for this round.
    Deadline,
}

/// Outcome of one logical message on one link (no payload).
#[derive(Clone, Copy, Debug)]
pub struct LinkOutcome {
    /// Whether the message arrived.
    pub delivered: bool,
    /// Transmission attempts made (≥ 1); `attempts − 1` are retries.
    pub attempts: u32,
    /// Set when `delivered` is false.
    pub reason: Option<DropReason>,
}

impl LinkOutcome {
    /// The always-delivered, single-attempt outcome of a perfect link.
    pub(crate) fn perfect() -> Self {
        LinkOutcome {
            delivered: true,
            attempts: 1,
            reason: None,
        }
    }

    /// A single attempt that did not arrive.
    pub(crate) fn lost(reason: DropReason) -> Self {
        LinkOutcome {
            delivered: false,
            attempts: 1,
            reason: Some(reason),
        }
    }

    /// Retransmissions beyond the first attempt.
    pub(crate) fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Outcome of a point-to-point send: the received payload (codec
/// round-tripped, exactly as it left the wire) when delivered.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The received copy; `None` when the message was dropped.
    pub data: Option<Vec<f32>>,
    /// Transmission attempts made (≥ 1).
    pub attempts: u32,
    /// Set when the message was dropped.
    pub reason: Option<DropReason>,
}

impl Delivery {
    /// `data` as it fared on `link`.
    pub(crate) fn over(link: LinkOutcome, data: Vec<f32>) -> Self {
        Delivery {
            data: link.delivered.then_some(data),
            attempts: link.attempts,
            reason: link.reason,
        }
    }

    /// A single-attempt receive: the payload, or why there is none.
    pub(crate) fn claimed(outcome: Result<Vec<f32>, DropReason>) -> Self {
        Delivery {
            reason: outcome.as_ref().err().copied(),
            data: outcome.ok(),
            attempts: 1,
        }
    }
}

/// Outcome of a one-to-many send: the payload is decoded once (identical
/// content for every receiver) with a per-link outcome vector parallel to
/// the destination list.
#[derive(Clone, Debug)]
pub struct BroadcastDelivery {
    /// The received copy shared by every delivered link.
    pub data: Vec<f32>,
    /// One outcome per destination, in destination order.
    pub links: Vec<LinkOutcome>,
}

impl BroadcastDelivery {
    /// The subset of `clients` whose link delivered, in order.
    pub(crate) fn delivered_clients(&self, clients: &[usize]) -> Vec<usize> {
        debug_assert_eq!(clients.len(), self.links.len());
        clients
            .iter()
            .zip(&self.links)
            .filter(|(_, l)| l.delivered)
            .map(|(&k, _)| k)
            .collect()
    }
}

/// Message-level fault counters, accumulated over a transport's lifetime.
/// All zeros on a perfect transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages that never arrived (all attempts lost, or deadline).
    pub dropped: u64,
    /// Retransmissions (attempts beyond the first, delivered or not).
    pub retries: u64,
    /// Subset of `dropped` caused by the round deadline.
    pub deadline_drops: u64,
}

impl FaultStats {
    /// Difference against an earlier snapshot (per-round accounting).
    pub(crate) fn since(&self, snapshot: &FaultStats) -> FaultStats {
        FaultStats {
            dropped: self.dropped - snapshot.dropped,
            retries: self.retries - snapshot.retries,
            deadline_drops: self.deadline_drops - snapshot.deadline_drops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_direction_and_plane() {
        assert_eq!(MsgKind::ModelDown.direction(), Direction::Download);
        assert_eq!(MsgKind::DeltaUp.direction(), Direction::Upload);
        assert_eq!(MsgKind::ControlUp.direction(), Direction::Upload);
        assert!(MsgKind::DeltaTableDown.is_delta());
        assert!(MsgKind::DeltaDown.is_delta());
        assert!(MsgKind::DeltaUp.is_delta());
        assert!(!MsgKind::ModelDown.is_delta());
        assert!(!MsgKind::ControlDown.is_delta());
    }

    #[test]
    fn broadcast_delivery_filters_delivered() {
        let bd = BroadcastDelivery {
            data: vec![1.0],
            links: vec![
                LinkOutcome::perfect(),
                LinkOutcome {
                    delivered: false,
                    attempts: 2,
                    reason: Some(DropReason::Loss),
                },
                LinkOutcome::perfect(),
            ],
        };
        assert_eq!(bd.delivered_clients(&[3, 5, 9]), vec![3, 9]);
    }

    #[test]
    fn msg_kind_tags_round_trip() {
        for kind in [
            MsgKind::ModelDown,
            MsgKind::ModelUp,
            MsgKind::DeltaTableDown,
            MsgKind::DeltaDown,
            MsgKind::DeltaUp,
            MsgKind::ControlDown,
            MsgKind::ControlUp,
            MsgKind::CompressedUp,
            MsgKind::CompressedDeltaUp,
        ] {
            assert_eq!(MsgKind::from_tag(kind.tag()), Some(kind));
            assert!(kind.tag() < 0x10, "payload tags stay below control tags");
        }
        assert_eq!(MsgKind::from_tag(0x00), None);
        assert_eq!(MsgKind::from_tag(0x10), None);
    }

    #[test]
    fn compressed_kinds_keep_their_planes() {
        assert_eq!(MsgKind::CompressedUp.direction(), Direction::Upload);
        assert_eq!(MsgKind::CompressedDeltaUp.direction(), Direction::Upload);
        assert!(!MsgKind::CompressedUp.is_delta());
        assert!(MsgKind::CompressedDeltaUp.is_delta());
        assert!(MsgKind::CompressedUp.is_compressed());
        assert!(MsgKind::CompressedDeltaUp.is_compressed());
        assert!(!MsgKind::ModelUp.is_compressed());
    }

    #[test]
    fn control_msgs_round_trip() {
        let msgs = [
            ControlMsg::Hello {
                magic: PROTO_MAGIC,
                version: PROTO_VERSION,
                client_id: 3,
                seed: 7,
            },
            ControlMsg::Welcome {
                num_clients: 4,
                rounds: 2,
                local_steps: 2,
                batch_size: 16,
                probe_batch: 32,
                lambda: 1e-3,
                lr: 0.05,
                clip_grad_norm: 10.0,
                seed: 7,
                compression: Compression::None,
            },
            ControlMsg::Welcome {
                num_clients: 4,
                rounds: 2,
                local_steps: 2,
                batch_size: 16,
                probe_batch: 32,
                lambda: 1e-3,
                lr: 0.05,
                clip_grad_norm: 10.0,
                seed: 7,
                compression: Compression::Adaptive { max_bits: 8 },
            },
            ControlMsg::Welcome {
                num_clients: 4,
                rounds: 2,
                local_steps: 2,
                batch_size: 16,
                probe_batch: 32,
                lambda: 1e-3,
                lr: 0.05,
                clip_grad_norm: 10.0,
                seed: 7,
                compression: Compression::Sketch {
                    rows: 5,
                    cols: 401,
                    seed: 11,
                },
            },
            ControlMsg::TrainStart { round: 1, steps: 2 },
            ControlMsg::DeltaProbe {
                round: 1,
                probe_batch: 32,
            },
            ControlMsg::Report {
                loss: 1.5,
                reg_loss: 0.25,
                steps: 2,
                examples: 32,
            },
            ControlMsg::Goodbye,
            ControlMsg::Shutdown,
        ];
        let mut body = Vec::new();
        for msg in msgs {
            msg.encode_body(&mut body);
            let back = ControlMsg::decode_body(msg.tag(), &body).expect("round trip");
            if matches!(msg, ControlMsg::Hello { .. }) {
                assert_eq!(body.len(), HELLO_BODY_BYTES);
            }
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn control_decode_rejects_garbage() {
        assert_eq!(
            ControlMsg::decode_body(0xFF, &[]),
            Err(WireError::UnknownTag(0xFF))
        );
        // Truncated TrainStart body.
        assert_eq!(
            ControlMsg::decode_body(0x12, &[0; 4]),
            Err(WireError::BadLength)
        );
        // Trailing bytes are an error, not silently ignored.
        assert_eq!(
            ControlMsg::decode_body(0x15, &[0]),
            Err(WireError::BadLength)
        );
    }

    #[test]
    fn nan_clip_encodes_none() {
        let mut body = Vec::new();
        ControlMsg::Welcome {
            num_clients: 1,
            rounds: 1,
            local_steps: 1,
            batch_size: 1,
            probe_batch: 1,
            lambda: 0.0,
            lr: 0.1,
            clip_grad_norm: f32::NAN,
            seed: 0,
            compression: Compression::None,
        }
        .encode_body(&mut body);
        match ControlMsg::decode_body(0x11, &body).unwrap() {
            ControlMsg::Welcome { clip_grad_norm, .. } => assert!(clip_grad_norm.is_nan()),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn fault_stats_since() {
        let a = FaultStats {
            dropped: 5,
            retries: 7,
            deadline_drops: 2,
        };
        let b = FaultStats {
            dropped: 2,
            retries: 3,
            deadline_drops: 1,
        };
        assert_eq!(
            a.since(&b),
            FaultStats {
                dropped: 3,
                retries: 4,
                deadline_drops: 1,
            }
        );
    }
}
