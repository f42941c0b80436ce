//! Closed-form byte ledgers: what one steady-state round of each workload
//! must charge to `CommStats`, computed from the library's own encoders
//! (`wire_size`, a sample control frame, a sample compressed payload) so a
//! legitimate format change moves both sides together.

use rfl_core::comm::{ControlMsg, FRAME_HEADER_BYTES};
use rfl_core::compress::{compress_plain, CompressedVec, Compression};
use rfl_tensor::wire_size;

fn ws(n: usize) -> u64 {
    wire_size(n) as u64
}

/// FedAvg, `m` participants, in-process: one model down, one up.
pub fn fedavg_round(m: usize, params: usize) -> u64 {
    m as u64 * 2 * ws(params)
}

/// rFedAvg+ (Alg. 2), `m` participants, in-process, once every participant
/// has a δ target: two model broadcasts and one upload, one δ target down
/// and one δ map up.
pub fn rfedavg_plus_round(m: usize, params: usize, feat: usize) -> u64 {
    m as u64 * (3 * ws(params) + 2 * ws(feat))
}

/// rFedAvg (Alg. 1), `m` of `n` clients participating, in-process: model
/// down and up, the whole `n × feat` δ table down, one δ map up.
pub fn rfedavg_round(n: usize, m: usize, params: usize, feat: usize) -> u64 {
    m as u64 * (2 * ws(params) + ws(n * feat) + ws(feat))
}

/// One broadcast → echo round over the socket: a dense frame down and the
/// same frame up per connection.
pub fn echo_round(conns: usize, dim: usize) -> u64 {
    conns as u64 * 2 * (FRAME_HEADER_BYTES + ws(dim))
}

fn control_frame(msg: &ControlMsg) -> u64 {
    let mut body = Vec::new();
    msg.encode_body(&mut body);
    FRAME_HEADER_BYTES + body.len() as u64
}

/// Wire bytes of a `len`-float vector under `policy`. Fixed-width policies
/// (quantize) give the same length for any values.
pub fn compressed_bytes(policy: Compression, len: usize) -> u64 {
    let values: Vec<f32> = (0..len).map(|i| i as f32).collect();
    let mut payload = CompressedVec::default();
    compress_plain(policy, &values, &mut payload);
    payload.wire_bytes() as u64
}

/// rFedAvg+ over the socket with compressed uploads, `n` clients all
/// participating, steady state. Per client — down: two dense model frames,
/// one dense δ target, `TrainStart`, `DeltaProbe`; up: `Report`, the
/// compressed model update, the compressed δ map.
pub fn remote_rfedavg_plus_round(n: usize, params: usize, feat: usize, policy: Compression) -> u64 {
    let frame = |body: u64| FRAME_HEADER_BYTES + body;
    let down = 2 * frame(ws(params))
        + frame(ws(feat))
        + control_frame(&ControlMsg::TrainStart { round: 0, steps: 0 })
        + control_frame(&ControlMsg::DeltaProbe {
            round: 0,
            probe_batch: 0,
        });
    let up = control_frame(&ControlMsg::Report {
        loss: 0.0,
        reg_loss: 0.0,
        steps: 0,
        examples: 0,
    }) + frame(compressed_bytes(policy, params))
        + frame(compressed_bytes(policy, feat));
    n as u64 * (down + up)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Dimensions of the five workloads: cifar CNN 18,490 params / 64
    // features, sent140 LSTM 17,762 / 32, logistic 32×4+4, mnist CNN
    // 18,346 / 64. A dense vector costs 4 + 4n bytes.

    #[test]
    fn cnn_device_round() {
        // 5 of 24 clients: 5 × (3 × 73,964 + 2 × 260).
        assert_eq!(rfedavg_plus_round(5, 18_490, 64), 1_112_060);
        assert_eq!(fedavg_round(5, 18_490), 739_640);
    }

    #[test]
    fn lstm_silo_round() {
        // 8 of 8: 8 × (2 × 71,052 + (4 + 4·256) + 132).
        assert_eq!(rfedavg_round(8, 8, 17_762, 32), 1_146_112);
        assert_eq!(fedavg_round(8, 17_762), 1_136_832);
    }

    #[test]
    fn scale_lazy_round() {
        // 1,000 participants × 2 × (4 + 4·132).
        assert_eq!(fedavg_round(1_000, 132), 1_064_000);
    }

    #[test]
    fn wire_cohort_1k_round() {
        // 1,024 connections × 2 × (5 + 4 + 4·1024).
        assert_eq!(echo_round(1_024, 1_024), 8_407_040);
    }

    #[test]
    fn wire_train_q8_round() {
        let q8 = Compression::Quantize { bits: 8 };
        // 8-bit payload: 12-byte header, three f32 words, one byte a value.
        assert_eq!(compressed_bytes(q8, 18_346), 24 + 18_346);
        assert_eq!(compressed_bytes(q8, 64), 24 + 64);
        let control = |m: &ControlMsg| control_frame(m) - FRAME_HEADER_BYTES;
        let train = control(&ControlMsg::TrainStart { round: 9, steps: 2 });
        let probe = control(&ControlMsg::DeltaProbe {
            round: 9,
            probe_batch: 32,
        });
        let report = control(&ControlMsg::Report {
            loss: 1.0,
            reg_loss: 0.5,
            steps: 2,
            examples: 32,
        });
        let dense = 2 * (5 + 4 + 4 * 18_346) + (5 + 4 + 4 * 64);
        let packed = (5 + 24 + 18_346) + (5 + 24 + 64);
        assert_eq!(
            remote_rfedavg_plus_round(4, 18_346, 64, q8),
            4 * (dense + packed + train + probe + report + 3 * 5)
        );
    }
}
