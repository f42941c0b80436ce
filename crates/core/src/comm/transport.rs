//! The pluggable transport abstraction.
//!
//! Algorithms and the [`crate::Federation`] round plumbing send typed
//! envelopes ([`MsgKind`] + payload) and consume [`Delivery`] outcomes; the
//! *delivery semantics* — perfect, lossy, delayed — live entirely behind
//! this trait. [`PerfectTransport`] delivers everything and charges the
//! real codec's byte count; [`crate::comm::FaultyTransport`] adds seeded
//! per-link faults.

use super::message::{BroadcastDelivery, Delivery, FaultStats, LinkOutcome, MsgKind};
use super::stats::{CommStats, Direction};
use crate::compress::CompressedVec;
use rfl_tensor::{decode_f32_into, encode_f32_into};

/// A simulated network between the server and its clients.
///
/// All sends are synchronous from the caller's perspective (this is a
/// simulation — "latency" is virtual time used by fault models, not a real
/// delay). Implementations must be deterministic: the same construction
/// parameters and call sequence must produce the same outcomes regardless
/// of thread budget or wall clock.
pub trait Transport: Send {
    /// Marks the start of communication round `round`. Fault models use
    /// this to reset per-round state (virtual clocks, deadlines).
    fn begin_round(&mut self, round: u64);

    /// Sends `payload` on the link of `client`; direction and accounting
    /// plane follow from `kind`. Returns the received copy on delivery.
    fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery;

    /// Sends the same `payload` to every client in `clients` (byte cost is
    /// charged per receiver; content is decoded once and shared).
    fn broadcast(&mut self, kind: MsgKind, clients: &[usize], payload: &[f32])
        -> BroadcastDelivery;

    /// Sends a compressed payload on the link of `client`. The payload is
    /// framed with its exact `CompressedVec` encoding, the ledger is charged
    /// the true encoded byte count (`payload.wire_bytes()` per attempt), and
    /// on delivery the received copy is decoded bit-exactly into `out`,
    /// reusing its section buffers.
    fn send_compressed(
        &mut self,
        kind: MsgKind,
        client: usize,
        payload: &CompressedVec,
        out: &mut CompressedVec,
    ) -> LinkOutcome;

    /// The byte/message ledger.
    fn stats(&self) -> &CommStats;

    /// Message-level fault counters (all zeros for a perfect transport).
    fn fault_stats(&self) -> FaultStats;
}

/// The two calls `benchmark/`'s `wire_cohort_1k` workload makes on a
/// [`super::SocketTransport`] through a trait. The rest of the server's
/// client-originated half (training orders, reports, δ probes, compressed
/// claims) is inherent to `SocketTransport`, which the socket plane holds
/// as a concrete type. The trait goes, with the harness's import of it, in
/// the harness change ROADMAP.md lists first.
pub trait RemoteTransport: Transport {
    /// Blocks for `client`'s next upload on `kind`'s plane (an
    /// upload-direction [`MsgKind`]); meters the received wire bytes. A
    /// dead link maps to [`super::DropReason::Loss`], a receive timeout to
    /// [`super::DropReason::Deadline`] — the same vocabulary the in-memory
    /// fault models emit, so churn handling is backend-agnostic.
    fn recv(&mut self, kind: MsgKind, client: usize) -> Delivery;

    /// Ends the run: notifies clients, closes links, stops accepting.
    fn shutdown(&mut self);
}

/// The lossless, zero-latency transport: every send is delivered on the
/// first attempt. Every payload is *actually* serialized and deserialized
/// with the `rfl-tensor` wire codec and the encoded length charged to the
/// [`CommStats`] ledger, so the communication numbers in the evaluation are
/// measured, not estimated — the default, and the baseline every fault
/// model is validated against.
///
/// The wire buffer is reused for every message
/// ([`rfl_tensor::encode_f32_into`] clears it first, so every message's
/// bytes are those of a fresh buffer); only the received `Vec<f32>` copy
/// handed to the caller is allocated per transfer.
#[derive(Default)]
pub struct PerfectTransport {
    stats: CommStats,
    wire: Vec<u8>,
}

impl PerfectTransport {
    pub fn new() -> Self {
        PerfectTransport::default()
    }
}

/// Encodes `payload` with the wire codec into `wire` (reused across
/// messages) and returns the decoded copy — the receiver-side values.
pub(crate) fn codec_round_trip(wire: &mut Vec<u8>, payload: &[f32]) -> Vec<f32> {
    encode_f32_into(wire, payload);
    let mut out = Vec::with_capacity(payload.len());
    decode_f32_into(wire, &mut out).expect("codec round-trip cannot fail");
    out
}

impl Transport for PerfectTransport {
    fn begin_round(&mut self, _round: u64) {}

    fn send(&mut self, kind: MsgKind, _client: usize, payload: &[f32]) -> Delivery {
        let data = codec_round_trip(&mut self.wire, payload);
        self.stats.charge(kind, self.wire.len() as u64);
        Delivery::over(LinkOutcome::perfect(), data)
    }

    /// Charges the cost of `clients.len()` receivers without materializing
    /// that many copies (the content is identical for every receiver).
    fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        debug_assert_eq!(kind.direction(), Direction::Download, "broadcasts go down");
        let data = codec_round_trip(&mut self.wire, payload);
        self.stats
            .charge(kind, self.wire.len() as u64 * clients.len() as u64);
        BroadcastDelivery {
            data,
            links: vec![LinkOutcome::perfect(); clients.len()],
        }
    }

    fn send_compressed(
        &mut self,
        kind: MsgKind,
        _client: usize,
        payload: &CompressedVec,
        out: &mut CompressedVec,
    ) -> LinkOutcome {
        payload.encode_into(&mut self.wire);
        debug_assert_eq!(self.wire.len(), payload.wire_bytes());
        assert!(
            out.decode_from(&self.wire),
            "codec round-trip cannot fail on a well-formed payload"
        );
        self.stats.charge(kind, self.wire.len() as u64);
        LinkOutcome::perfect()
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfl_tensor::wire_size;

    #[test]
    fn send_is_lossless_and_metered() {
        let mut t = PerfectTransport::new();
        let v = vec![1.0f32, -2.5, 3e7];
        let d = t.send(MsgKind::ModelUp, 0, &v);
        assert_eq!(d.data, Some(v));
        assert_eq!(d.attempts, 1);
        assert_eq!(t.stats().upload_bytes(), wire_size(3) as u64);
        assert_eq!(t.stats().messages(), 1);
    }

    #[test]
    fn delta_kinds_charge_the_delta_plane() {
        let mut t = PerfectTransport::new();
        t.send(MsgKind::DeltaUp, 2, &[1.0; 16]);
        t.broadcast(MsgKind::DeltaTableDown, &[0, 1, 2], &[0.5; 32]);
        assert_eq!(t.stats().delta_upload_bytes(), wire_size(16) as u64);
        assert_eq!(t.stats().delta_download_bytes(), 3 * wire_size(32) as u64);
        assert_eq!(t.stats().total_bytes(), t.stats().delta_bytes());
    }

    #[test]
    fn broadcast_charges_per_receiver_and_delivers_everywhere() {
        let mut t = PerfectTransport::new();
        let bd = t.broadcast(MsgKind::ModelDown, &[0, 3, 7], &[2.0; 10]);
        assert_eq!(bd.data, vec![2.0; 10]);
        assert_eq!(bd.delivered_clients(&[0, 3, 7]), vec![0, 3, 7]);
        assert_eq!(t.stats().download_bytes(), 3 * wire_size(10) as u64);
        // A broadcast is one logical message regardless of fan-out.
        assert_eq!(t.stats().messages(), 1);
    }

    #[test]
    fn control_kinds_are_model_plane() {
        let mut t = PerfectTransport::new();
        t.send(MsgKind::ControlUp, 0, &[1.0; 8]);
        t.broadcast(MsgKind::ControlDown, &[0, 1], &[1.0; 8]);
        assert_eq!(t.stats().delta_bytes(), 0);
        assert_eq!(t.stats().upload_bytes(), 4 + 32);
        assert_eq!(t.stats().download_bytes(), 2 * (4 + 32));
    }

    #[test]
    fn fault_stats_are_zero() {
        let mut t = PerfectTransport::new();
        t.send(MsgKind::ModelDown, 0, &[1.0]);
        assert_eq!(t.fault_stats(), FaultStats::default());
    }

    /// Tentpole pin: the ledger charge for a compressed send is exactly the
    /// payload's encoded frame length — `wire_bytes()` — and the received
    /// copy is the bit-exact codec round trip.
    #[test]
    fn compressed_sends_charge_the_exact_encoded_length() {
        use crate::compress::{compress_plain, Compression};
        let mut t = PerfectTransport::new();
        let mut payload = CompressedVec::default();
        compress_plain(
            Compression::Quantize { bits: 8 },
            &[1.0f32, -2.0, 0.25, 7.5],
            &mut payload,
        );
        let mut wire = Vec::new();
        payload.encode_into(&mut wire);
        assert_eq!(wire.len(), payload.wire_bytes());

        let mut out = CompressedVec::default();
        let link = t.send_compressed(MsgKind::CompressedUp, 0, &payload, &mut out);
        assert!(link.delivered);
        assert_eq!(t.stats().upload_bytes(), payload.wire_bytes() as u64);
        assert_eq!(t.stats().delta_bytes(), 0);
        assert_eq!(t.stats().messages(), 1);
        assert_eq!(out.words_u32, payload.words_u32);
        assert_eq!(
            out.words_f32
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            payload
                .words_f32
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(out.bytes, payload.bytes);

        // δ-plane compressed uploads double-count into the δ counters,
        // exactly like dense δ transfers.
        let before = t.stats().upload_bytes();
        t.send_compressed(MsgKind::CompressedDeltaUp, 1, &payload, &mut out);
        assert_eq!(t.stats().delta_upload_bytes(), payload.wire_bytes() as u64);
        assert_eq!(
            t.stats().upload_bytes() - before,
            payload.wire_bytes() as u64
        );
    }
}
