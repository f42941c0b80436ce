//! Deterministic fault injection: a transport whose links drop, delay, and
//! retry.
//!
//! Every stochastic decision (loss, jitter) is a pure function of the
//! configured seed and the message's coordinates `(round, client, message
//! sequence, attempt)` — no shared RNG stream — so the fault schedule is
//! bit-reproducible at any thread budget and independent of wall clock.
//! Latency is *virtual* time: it never delays the simulation, it only feeds
//! the per-round deadline that turns a slow client into a dropout.

use super::message::{BroadcastDelivery, Delivery, DropReason, FaultStats, LinkOutcome, MsgKind};
use super::stats::{CommStats, Direction};
use super::transport::Transport;
use crate::compress::CompressedVec;
use rfl_tensor::{decode_f32_into, encode_f32_into};

/// Virtual per-message latency on a link, in simulated milliseconds:
/// `base + per_kb·(bytes/1024) + jitter·U[0,1)`.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Fixed per-message cost (propagation + handshake).
    pub base_ms: f64,
    /// Serialization cost per KiB of wire bytes.
    pub per_kb_ms: f64,
    /// Uniform jitter amplitude added on top.
    pub jitter_ms: f64,
}

impl LatencyModel {
    /// The zero-latency model (every message is instantaneous).
    pub(crate) fn zero() -> Self {
        LatencyModel {
            base_ms: 0.0,
            per_kb_ms: 0.0,
            jitter_ms: 0.0,
        }
    }

    /// A loose WAN-ish default: 20 ms floor, ~8 ms/KiB, 10 ms jitter.
    pub fn wan() -> Self {
        LatencyModel {
            base_ms: 20.0,
            per_kb_ms: 8.0,
            jitter_ms: 10.0,
        }
    }

    fn sample(&self, bytes: u64, jitter_u: f64) -> f64 {
        self.base_ms + self.per_kb_ms * (bytes as f64 / 1024.0) + self.jitter_ms * jitter_u
    }
}

/// Configuration of [`FaultyTransport`]. The default (`lossless`) settings
/// make it behave exactly like [`super::PerfectTransport`] — the
/// equivalence the cross-transport tests pin.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the fault schedule; same seed ⇒ same drops/latencies.
    pub seed: u64,
    /// Per-attempt probability that a transmission is lost on a link.
    pub drop_prob: f64,
    /// Retransmissions after a lost attempt (0 = no retries).
    pub max_retries: u32,
    /// Extra virtual latency per retransmission `i`: `backoff_ms · i`
    /// (linear backoff).
    pub backoff_ms: f64,
    /// Virtual latency of each attempt.
    pub latency: LatencyModel,
    /// Per-round virtual deadline per client: once a client's cumulative
    /// message time exceeds this, its remaining messages this round are
    /// dropped ([`DropReason::Deadline`]) — the straggler-as-dropout model.
    pub deadline_ms: Option<f64>,
}

impl FaultConfig {
    /// Zero loss, zero latency, no deadline — behaviorally identical to the
    /// perfect transport.
    pub fn lossless(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_prob: 0.0,
            max_retries: 0,
            backoff_ms: 0.0,
            latency: LatencyModel::zero(),
            deadline_ms: None,
        }
    }

    /// Lossy link with `drop_prob` per-attempt loss and `retries`
    /// retransmissions, no latency/deadline.
    pub fn lossy(seed: u64, drop_prob: f64, retries: u32) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob in [0, 1]");
        FaultConfig {
            drop_prob,
            max_retries: retries,
            ..FaultConfig::lossless(seed)
        }
    }

    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    pub fn with_deadline_ms(mut self, deadline: f64) -> Self {
        assert!(deadline > 0.0, "deadline must be positive");
        self.deadline_ms = Some(deadline);
        self
    }
}

/// SplitMix64 finalizer — the stateless mixer behind the fault schedule
/// (also used by [`crate::federation::StragglerModel`] for step draws).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salts separating the independent uniform draws of one attempt.
const SALT_DROP: u64 = 0x1;
const SALT_JITTER: u64 = 0x2;

/// A transport with per-link seeded faults: loss, latency, bounded retries
/// with linear backoff, and a per-round deadline.
///
/// Byte accounting charges every transmission *attempt* (retries cost real
/// bytes), but a logical message counts once in [`CommStats::messages`]
/// regardless of retries — mirroring how the perfect transport counts an
/// `n`-receiver broadcast as one message.
pub struct FaultyTransport {
    cfg: FaultConfig,
    stats: CommStats,
    faults: FaultStats,
    round: u64,
    /// Per-client virtual clock within the current round (ms).
    clocks: Vec<f64>,
    /// Per-client logical-message sequence number within the current round.
    seqs: Vec<u64>,
    /// Reusable wire buffer (bytes identical to the one-shot encoder).
    wire: Vec<u8>,
}

impl FaultyTransport {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultyTransport {
            cfg,
            stats: CommStats::new(),
            faults: FaultStats::default(),
            round: 0,
            clocks: Vec::new(),
            seqs: Vec::new(),
            wire: Vec::new(),
        }
    }

    fn ensure_client(&mut self, client: usize) {
        if client >= self.clocks.len() {
            self.clocks.resize(client + 1, 0.0);
            self.seqs.resize(client + 1, 0);
        }
    }

    /// Uniform draw in [0, 1) from the message coordinates.
    fn unit(&self, client: usize, seq: u64, attempt: u32, salt: u64) -> f64 {
        let mut h = self.cfg.seed;
        h = mix64(h ^ self.round.wrapping_mul(0xA076_1D64_78BD_642F));
        h = mix64(h ^ (client as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        h = mix64(h ^ seq.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        h = mix64(h ^ (u64::from(attempt)).wrapping_mul(0x5895_99C5_5B5C_1FAF) ^ salt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Simulates one logical message of `wire_bytes` on `client`'s link.
    /// Returns the outcome and the number of transmission attempts charged.
    fn simulate_link(&mut self, client: usize, wire_bytes: u64) -> LinkOutcome {
        self.ensure_client(client);
        let seq = self.seqs[client];
        self.seqs[client] += 1;
        let max_attempts = self.cfg.max_retries + 1;
        let mut attempt = 0u32;
        let outcome = loop {
            attempt += 1;
            let jitter = self.unit(client, seq, attempt, SALT_JITTER);
            let mut lat = self.cfg.latency.sample(wire_bytes, jitter);
            lat += self.cfg.backoff_ms * f64::from(attempt - 1);
            self.clocks[client] += lat;
            if let Some(deadline) = self.cfg.deadline_ms {
                if self.clocks[client] > deadline {
                    // Arrives after the round closed: the sender is a
                    // dropout for the rest of this round, retrying is moot.
                    break LinkOutcome::lost(DropReason::Deadline);
                }
            }
            let lost = self.unit(client, seq, attempt, SALT_DROP) < self.cfg.drop_prob;
            if !lost {
                break LinkOutcome::perfect();
            }
            if attempt >= max_attempts {
                break LinkOutcome::lost(DropReason::Loss);
            }
        };
        let outcome = LinkOutcome {
            attempts: attempt,
            ..outcome
        };
        self.faults.retries += u64::from(outcome.retries());
        if !outcome.delivered {
            self.faults.dropped += 1;
            if outcome.reason == Some(DropReason::Deadline) {
                self.faults.deadline_drops += 1;
            }
        }
        outcome
    }
}

impl Transport for FaultyTransport {
    fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.clocks.iter_mut().for_each(|c| *c = 0.0);
        self.seqs.iter_mut().for_each(|s| *s = 0);
    }

    fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
        encode_f32_into(&mut self.wire, payload);
        let wire = self.wire.len() as u64;
        let out = self.simulate_link(client, wire);
        self.stats.charge(kind, wire * u64::from(out.attempts));
        let data = out.delivered.then(|| {
            let mut v = Vec::with_capacity(payload.len());
            decode_f32_into(&self.wire, &mut v).expect("codec round-trip cannot fail");
            v
        });
        Delivery {
            data,
            attempts: out.attempts,
            reason: out.reason,
        }
    }

    fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        debug_assert_eq!(kind.direction(), Direction::Download, "broadcasts go down");
        encode_f32_into(&mut self.wire, payload);
        let wire = self.wire.len() as u64;
        let mut links = Vec::with_capacity(clients.len());
        let mut attempts_total = 0u64;
        for &k in clients {
            let out = self.simulate_link(k, wire);
            attempts_total += u64::from(out.attempts);
            links.push(out);
        }
        // One logical message (matching the perfect transport's broadcast
        // accounting); bytes cover every per-link attempt.
        self.stats.charge(kind, wire * attempts_total);
        let mut data = Vec::with_capacity(payload.len());
        decode_f32_into(&self.wire, &mut data).expect("codec round-trip cannot fail");
        BroadcastDelivery { data, links }
    }

    fn send_compressed(
        &mut self,
        kind: MsgKind,
        client: usize,
        payload: &CompressedVec,
        out: &mut CompressedVec,
    ) -> LinkOutcome {
        payload.encode_into(&mut self.wire);
        let wire = self.wire.len() as u64;
        debug_assert_eq!(wire as usize, payload.wire_bytes());
        let link = self.simulate_link(client, wire);
        // Every attempt carries the full encoded frame.
        self.stats.charge(kind, wire * u64::from(link.attempts));
        if link.delivered {
            assert!(
                out.decode_from(&self.wire),
                "codec round-trip cannot fail on a well-formed payload"
            );
        }
        link
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn fault_stats(&self) -> FaultStats {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PerfectTransport;

    #[test]
    fn lossless_matches_perfect_byte_accounting() {
        let mut t = FaultyTransport::new(FaultConfig::lossless(42));
        let mut p = PerfectTransport::new();
        let v = vec![1.0f32; 50];
        let d = t.send(MsgKind::ModelUp, 0, &v);
        assert_eq!(d.data, p.send(MsgKind::ModelUp, 0, &v).data);
        let bd = t.broadcast(MsgKind::DeltaTableDown, &[0, 1, 2], &v);
        assert_eq!(
            bd.data,
            p.broadcast(MsgKind::DeltaTableDown, &[0, 1, 2], &v).data
        );
        assert!(bd.links.iter().all(|l| l.delivered && l.attempts == 1));
        let wire = rfl_tensor::wire_size(v.len()) as u64;
        for s in [t.stats(), p.stats()] {
            assert_eq!(s.upload_bytes(), wire);
            assert_eq!(s.download_bytes(), 3 * wire);
            assert_eq!(s.delta_bytes(), 3 * wire);
            assert_eq!(s.messages(), 2);
        }
        assert_eq!(t.fault_stats(), FaultStats::default());
    }

    #[test]
    fn certain_loss_exhausts_bounded_retries() {
        let mut t = FaultyTransport::new(FaultConfig::lossy(0, 1.0, 2));
        let d = t.send(MsgKind::ModelUp, 3, &[1.0; 10]);
        assert!(d.data.is_none());
        assert_eq!(d.attempts, 3, "1 attempt + 2 retries");
        assert_eq!(d.reason, Some(DropReason::Loss));
        // Every attempt costs wire bytes.
        assert_eq!(t.stats().upload_bytes(), 3 * (4 + 40));
        // ...but it is one logical message.
        assert_eq!(t.stats().messages(), 1);
        let f = t.fault_stats();
        assert_eq!((f.dropped, f.retries, f.deadline_drops), (1, 2, 0));
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut t = FaultyTransport::new(FaultConfig::lossy(7, 0.4, 1));
            let mut outcomes = Vec::new();
            for round in 0..3u64 {
                t.begin_round(round);
                let bd = t.broadcast(MsgKind::ModelDown, &[0, 1, 2, 3], &[1.0; 20]);
                outcomes.push(bd.delivered_clients(&[0, 1, 2, 3]));
                for k in 0..4 {
                    let d = t.send(MsgKind::ModelUp, k, &[2.0; 20]);
                    outcomes.push(vec![usize::from(d.data.is_some()), d.attempts as usize]);
                }
            }
            (outcomes, t.stats().total_bytes(), t.fault_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn schedule_varies_with_round_and_seed() {
        let schedule = |seed: u64, round: u64| -> Vec<bool> {
            let mut t = FaultyTransport::new(FaultConfig::lossy(seed, 0.5, 0));
            t.begin_round(round);
            (0..64)
                .map(|k| t.send(MsgKind::ModelUp, k, &[1.0; 4]).data.is_some())
                .collect()
        };
        assert_ne!(schedule(1, 0), schedule(1, 1), "rounds share a schedule");
        assert_ne!(schedule(1, 0), schedule(2, 0), "seeds share a schedule");
    }

    #[test]
    fn deadline_turns_accumulated_latency_into_dropout() {
        // 10 ms per message, 25 ms deadline: messages 1–2 arrive, the third
        // exceeds the deadline and drops; the clock resets next round.
        let cfg = FaultConfig::lossless(0)
            .with_latency(LatencyModel {
                base_ms: 10.0,
                per_kb_ms: 0.0,
                jitter_ms: 0.0,
            })
            .with_deadline_ms(25.0);
        let mut t = FaultyTransport::new(cfg);
        t.begin_round(0);
        assert!(t.send(MsgKind::ModelDown, 0, &[1.0]).data.is_some());
        assert!(t.send(MsgKind::ModelUp, 0, &[1.0]).data.is_some());
        let third = t.send(MsgKind::DeltaUp, 0, &[1.0]);
        assert!(third.data.is_none());
        assert_eq!(third.reason, Some(DropReason::Deadline));
        assert_eq!(t.fault_stats().deadline_drops, 1);
        // Another client is unaffected (per-link clocks).
        assert!(t.send(MsgKind::ModelDown, 1, &[1.0]).data.is_some());
        t.begin_round(1);
        assert!(t.send(MsgKind::ModelDown, 0, &[1.0]).data.is_some());
    }

    #[test]
    fn backoff_accumulates_on_retries() {
        // Certain loss with retries: attempts at t=5, 5+5+3, ... (backoff 3).
        let cfg = FaultConfig {
            drop_prob: 1.0,
            max_retries: 2,
            backoff_ms: 3.0,
            ..FaultConfig::lossless(0)
        }
        .with_latency(LatencyModel {
            base_ms: 5.0,
            per_kb_ms: 0.0,
            jitter_ms: 0.0,
        });
        let mut t = FaultyTransport::new(cfg);
        t.send(MsgKind::ModelUp, 0, &[1.0]);
        // 3 attempts: 5 + (5+3) + (5+6) = 24 ms on the clock.
        assert!((t.clocks[0] - 24.0).abs() < 1e-9);
    }

    #[test]
    fn compressed_sends_charge_exact_frame_bytes_per_attempt() {
        use crate::compress::{compress_plain, Compression};
        let mut payload = CompressedVec::default();
        compress_plain(
            Compression::Quantize { bits: 4 },
            &[0.5f32; 33],
            &mut payload,
        );
        let frame = payload.wire_bytes() as u64;

        // Lossless: one attempt, exact frame bytes, bit-exact round trip.
        let mut t = FaultyTransport::new(FaultConfig::lossless(3));
        let mut out = CompressedVec::default();
        let link = t.send_compressed(MsgKind::CompressedUp, 0, &payload, &mut out);
        assert!(link.delivered && link.attempts == 1);
        assert_eq!(t.stats().upload_bytes(), frame);
        assert_eq!(out.bytes, payload.bytes);
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

        // Certain loss: every attempt charges the full encoded frame, the
        // payload never arrives, and δ-plane kinds hit the δ counters.
        let mut t = FaultyTransport::new(FaultConfig::lossy(0, 1.0, 2));
        let link = t.send_compressed(MsgKind::CompressedDeltaUp, 1, &payload, &mut out);
        assert!(!link.delivered);
        assert_eq!(link.attempts, 3);
        assert_eq!(t.stats().upload_bytes(), 3 * frame);
        assert_eq!(t.stats().delta_upload_bytes(), 3 * frame);
        assert_eq!(t.stats().messages(), 1);
    }

    #[test]
    fn broadcast_charges_all_attempts_as_one_message() {
        let mut t = FaultyTransport::new(FaultConfig::lossy(11, 0.5, 3));
        let bd = t.broadcast(MsgKind::ModelDown, &[0, 1, 2, 3, 4, 5, 6, 7], &[1.0; 8]);
        let attempts: u64 = bd.links.iter().map(|l| u64::from(l.attempts)).sum();
        assert_eq!(t.stats().download_bytes(), (4 + 32) * attempts);
        assert_eq!(t.stats().messages(), 1);
        assert!(attempts >= 8);
    }
}
