//! Compression wire-stage gate
//! (`ext_compress --out BENCH_PR8.json` writes the committed report).
//!
//! Runs FedAvg over the real compressed communication stage (policy in
//! [`FlConfig::compression`], error-feedback residuals on every client,
//! frames charged at their exact encoded length) across a bit-width /
//! sparsity grid, plus lossy legs where the same compressed frames ride
//! [`FaultyTransport`] drops. Two hard gates, enforced in `--quick` CI mode
//! and in full mode alike:
//!
//! 1. **Byte honesty** — for every clean quantizer leg the metered upload
//!    bytes equal `rounds × clients × frame_len` where `frame_len` is the
//!    exact [`CompressedVec::wire_bytes`] of the policy's payload at the
//!    model dimension. CommStats must be the encoded truth, not a model.
//! 2. **The trade-off exists** — at least one policy moves ≥ 10× fewer
//!    upload bytes per round than dense FedAvg while losing < 1 percentage
//!    point of final test accuracy.
//!
//! Usage: `ext_compress [--quick] [--out <path>]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::FedAvg;
use rfl_core::comm::{FaultConfig, FaultyTransport};
use rfl_core::compress::{CompressedVec, Compression, Compressor};
use rfl_core::{Federation, FlConfig, ModelFactory, OptimizerFactory, Trainer};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::{partition, FederatedData};
use std::fmt::Write as _;

const CLIENTS: usize = 8;
const DIM: usize = 64;
const CLASSES: usize = 4;
const SEED: u64 = 7;

/// Gate thresholds (the ISSUE's production claim).
const MIN_BYTE_REDUCTION: f64 = 10.0;
const MAX_ACCURACY_LOSS: f64 = 0.01;

struct Leg {
    name: &'static str,
    policy: Compression,
    drop: f64,
}

fn grid() -> Vec<Leg> {
    let q = |bits| Compression::Quantize { bits };
    vec![
        Leg {
            name: "dense",
            policy: Compression::None,
            drop: 0.0,
        },
        Leg {
            name: "quantize8",
            policy: q(8),
            drop: 0.0,
        },
        Leg {
            name: "quantize4",
            policy: q(4),
            drop: 0.0,
        },
        Leg {
            name: "quantize2",
            policy: q(2),
            drop: 0.0,
        },
        Leg {
            name: "quantize1",
            policy: q(1),
            drop: 0.0,
        },
        Leg {
            name: "topk10",
            policy: Compression::TopK { ratio: 0.1 },
            drop: 0.0,
        },
        Leg {
            name: "adaptive8",
            policy: Compression::Adaptive { max_bits: 8 },
            drop: 0.0,
        },
        Leg {
            name: "dense_drop10",
            policy: Compression::None,
            drop: 0.1,
        },
        Leg {
            name: "quantize4_drop10",
            policy: q(4),
            drop: 0.1,
        },
    ]
}

fn data(seed: u64) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec {
        dim: DIM,
        classes: CLASSES,
        sep: 2.0,
        noise: 1.0,
        mean_seed: 45,
    };
    let pool = spec.generate(CLIENTS * 40, None, &mut rng);
    let parts = partition::similarity(pool.labels(), CLIENTS, 0.5, &mut rng);
    let test = spec.generate(512, None, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

struct LegReport {
    name: &'static str,
    final_accuracy: f64,
    up_bytes_per_round: f64,
    dropped: u64,
    /// Exact expected upload bytes per round (clean quantizer legs only).
    expected_up_bytes_per_round: Option<u64>,
}

fn run_leg(leg: &Leg, rounds: usize) -> LegReport {
    let cfg = FlConfig {
        rounds,
        local_steps: 2,
        batch_size: 10,
        sample_ratio: 1.0,
        eval_every: rounds,
        parallel: false,
        clip_grad_norm: Some(10.0),
        seed: SEED,
        delta_probe_batch: None,
        compression: leg.policy,
    };
    let data = data(SEED);
    let mut fed = Federation::new(
        &data,
        ModelFactory::logistic(DIM, CLASSES, 1e-3),
        OptimizerFactory::sgd(0.1),
        &cfg,
        SEED,
    );
    if leg.drop > 0.0 {
        fed.set_transport(Box::new(FaultyTransport::new(FaultConfig::lossy(
            SEED ^ 0x10557,
            leg.drop,
            1,
        ))));
    }
    let h = Trainer::new(cfg).run(&mut FedAvg::new(), &mut fed);
    let d = fed.num_params();
    let up: u64 = h.records().iter().map(|r| r.up_bytes).sum();

    // The exact-length oracle: quantizer frames have a value-independent
    // shape at fixed dimension, so the expected ledger total is closed-form.
    let expected = match leg.policy {
        Compression::Quantize { .. } if leg.drop == 0.0 => {
            let probe = vec![0.0f32; d];
            let comp = leg.policy.for_upload(&probe).unwrap();
            let mut payload = CompressedVec::default();
            comp.compress_into(&probe, &mut payload);
            Some(payload.wire_bytes() as u64 * CLIENTS as u64)
        }
        _ => None,
    };

    LegReport {
        name: leg.name,
        final_accuracy: fed.evaluate_global().accuracy as f64,
        up_bytes_per_round: up as f64 / rounds as f64,
        dropped: fed.fault_stats().dropped,
        expected_up_bytes_per_round: expected,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let rounds = if quick { 12 } else { 40 };

    let mut reports = Vec::new();
    for leg in grid() {
        eprintln!(
            "leg {}: policy {:?}, drop {}",
            leg.name, leg.policy, leg.drop
        );
        reports.push(run_leg(&leg, rounds));
    }
    let dense = &reports[0];
    let dense_acc = dense.final_accuracy;
    let dense_up = dense.up_bytes_per_round;

    let mut failed = false;
    // Gate 1: metered bytes are the encoded truth on every clean quantizer
    // leg — bit-width in, exact frame length out.
    for r in &reports {
        if let Some(expect) = r.expected_up_bytes_per_round {
            if r.up_bytes_per_round != expect as f64 {
                eprintln!(
                    "ERROR: leg {} metered {} upload bytes/round, expected exactly {} \
                     (encoded frame length × clients)",
                    r.name, r.up_bytes_per_round, expect
                );
                failed = true;
            }
        }
    }
    // Gate 2: ≥ 10× fewer upload bytes at < 1 point of accuracy loss.
    let winner = reports
        .iter()
        .filter(|r| {
            r.dropped == 0
                && dense_up / r.up_bytes_per_round >= MIN_BYTE_REDUCTION
                && dense_acc - r.final_accuracy < MAX_ACCURACY_LOSS
        })
        .max_by(|a, b| {
            (dense_up / a.up_bytes_per_round).total_cmp(&(dense_up / b.up_bytes_per_round))
        });
    if winner.is_none() {
        eprintln!(
            "ERROR: no policy achieved {MIN_BYTE_REDUCTION}x fewer upload bytes within \
             {MAX_ACCURACY_LOSS} accuracy of dense FedAvg ({dense_acc:.3})"
        );
        failed = true;
    }
    // Lossy legs must still learn: compressed frames riding a faulty link
    // degrade like dense ones, they do not wedge the round loop.
    for r in reports.iter().filter(|r| r.name.ends_with("_drop10")) {
        if r.final_accuracy < 0.5 * dense_acc {
            eprintln!(
                "ERROR: lossy leg {} collapsed to accuracy {:.3}",
                r.name, r.final_accuracy
            );
            failed = true;
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"min_byte_reduction\": {MIN_BYTE_REDUCTION},");
    let _ = writeln!(json, "  \"max_accuracy_loss\": {MAX_ACCURACY_LOSS},");
    if let Some(w) = winner {
        let _ = writeln!(json, "  \"winner\": \"{}\",", w.name);
        let _ = writeln!(
            json,
            "  \"winner_byte_reduction\": {:.1},",
            dense_up / w.up_bytes_per_round
        );
    }
    json.push_str("  \"legs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"final_accuracy\": {:.4},", r.final_accuracy);
        let _ = writeln!(
            json,
            "      \"up_bytes_per_round\": {:.1},",
            r.up_bytes_per_round
        );
        let _ = writeln!(
            json,
            "      \"reduction_vs_dense\": {:.2},",
            dense_up / r.up_bytes_per_round
        );
        if let Some(e) = r.expected_up_bytes_per_round {
            let _ = writeln!(json, "      \"expected_up_bytes_per_round\": {e},");
        }
        let _ = writeln!(json, "      \"dropped\": {}", r.dropped);
        json.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write report");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
    if failed {
        std::process::exit(1);
    }
}
