//! Transport-backend equivalence and fault-injection determinism.
//!
//! The contract that makes `FaultyTransport` safe to use in experiments:
//!
//! 1. With zero loss, zero latency, and no deadline it is **bit-identical**
//!    (global parameters) and **byte-identical** (comm ledger) to
//!    [`PerfectTransport`] for every algorithm.
//! 2. A lossy schedule is a pure function of `(seed, round, client, seq,
//!    attempt)` — the worker-pool thread budget must not change which
//!    messages drop, nor the resulting model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::prelude::*;
use rfl_core::Algorithm;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::{partition, FederatedData};

fn quick_cfg(rounds: usize, seed: u64) -> FlConfig {
    FlConfig {
        rounds,
        local_steps: 5,
        batch_size: 10,
        sample_ratio: 1.0,
        eval_every: rounds,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    }
}

fn gaussian_fed(seed: u64, cfg: &FlConfig) -> Federation {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(6 * 30, None, &mut rng);
    let parts = partition::similarity(pool.labels(), 6, 0.0, &mut rng);
    let test = spec.generate(48, None, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    Federation::new(
        &data,
        ModelFactory::linear_net(10, 6, 4, 1e-3),
        OptimizerFactory::sgd(0.1),
        cfg,
        seed,
    )
}

type RunResult = (Vec<f32>, History, CommStats, FaultStats);

fn run(algo: &mut dyn Algorithm, seed: u64, transport: Option<Box<dyn Transport>>) -> RunResult {
    let cfg = quick_cfg(4, seed);
    let mut fed = gaussian_fed(seed, &cfg);
    if let Some(t) = transport {
        fed.set_transport(t);
    }
    let h = Trainer::new(cfg).run(algo, &mut fed);
    let stats = fed.comm_snapshot();
    let faults = fed.fault_stats();
    (fed.global().to_vec(), h, stats, faults)
}

/// A no-fault `FaultyTransport` must be indistinguishable from the default
/// backend: same trained model bit-for-bit, same byte ledger, same message
/// counts — for the plain baseline and both paper algorithms (which exercise
/// every message kind: model, δ table, averaged δ, δ upload).
#[test]
fn lossless_faulty_is_bit_and_byte_identical_to_perfect() {
    type MakeAlgo = fn() -> Box<dyn Algorithm>;
    let algos: Vec<(&str, MakeAlgo)> = vec![
        ("FedAvg", || Box::new(FedAvg::new())),
        ("rFedAvg", || Box::new(RFedAvg::new(1e-3))),
        ("rFedAvg+", || Box::new(RFedAvgPlus::new(1e-3))),
    ];
    for (name, make) in algos {
        let (w_p, h_p, s_p, _) = run(make().as_mut(), 60, None);
        let faulty = FaultyTransport::new(FaultConfig::lossless(123));
        let (w_f, h_f, s_f, faults) = run(make().as_mut(), 60, Some(Box::new(faulty)));
        assert_eq!(w_p, w_f, "{name}: global params diverged");
        assert_eq!(
            s_p.total_bytes(),
            s_f.total_bytes(),
            "{name}: byte ledgers diverged"
        );
        assert_eq!(s_p.delta_bytes(), s_f.delta_bytes(), "{name}: delta bytes");
        assert_eq!(s_p.messages(), s_f.messages(), "{name}: message counts");
        assert_eq!(faults, FaultStats::default(), "{name}: spurious faults");
        assert_eq!(
            h_p.final_accuracy(),
            h_f.final_accuracy(),
            "{name}: accuracy"
        );
        for (a, b) in h_p.records().iter().zip(h_f.records()) {
            assert_eq!(a.delivered, b.delivered, "{name}: delivered counts");
            assert_eq!(b.dropped_msgs, 0, "{name}: drops on a lossless link");
        }
    }
}

/// The buffer-reusing encoder both transports now use must put the exact
/// same bytes on the wire as the one-shot encoder, for every payload —
/// otherwise the comm ledger (and Table III) would silently change meaning.
#[test]
fn reused_wire_buffers_are_byte_identical_to_one_shot_encoding() {
    use rfl_tensor::{decode_f32_slice, encode_f32_into, encode_f32_slice, wire_size};
    let payloads: Vec<Vec<f32>> = vec![
        vec![],
        vec![0.0],
        vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE],
        (0..257).map(|i| (i as f32).sin() * 1e3).collect(),
        vec![1.0; 8],
    ];
    let mut buf = Vec::new();
    for p in &payloads {
        encode_f32_into(&mut buf, p);
        assert_eq!(&buf[..], &encode_f32_slice(p)[..], "wire bytes diverged");
    }
    // And the perfect transport built on it delivers the one-shot codec's
    // bits and charges `wire_size(n)` per message (no state leaking between
    // sends through the reused buffer).
    let mut reused = PerfectTransport::new();
    let mut prev = 0u64;
    for p in &payloads {
        let got = reused.send(MsgKind::ModelUp, 0, p).data.expect("delivered");
        let want = decode_f32_slice(encode_f32_slice(p)).expect("codec round trip");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&got), bits(&want));
        let cost = reused.stats().upload_bytes() - prev;
        prev = reused.stats().upload_bytes();
        assert_eq!(cost, wire_size(p.len()) as u64);
    }
}

/// The fault schedule is seeded hashing, not RNG state: the same lossy
/// config must drop the same messages and produce the same model at any
/// worker-pool thread budget.
#[test]
fn lossy_schedule_is_thread_budget_invariant() {
    let run_lossy = || {
        let t = FaultyTransport::new(FaultConfig::lossy(7, 0.25, 1));
        let mut algo = RFedAvgPlus::new(1e-3);
        run(&mut algo, 61, Some(Box::new(t)))
    };
    rfl_tensor::set_thread_budget(1);
    let (w1, h1, s1, f1) = run_lossy();
    rfl_tensor::set_thread_budget(4);
    let (w4, h4, s4, f4) = run_lossy();
    rfl_tensor::set_thread_budget(1);

    assert!(f1.dropped > 0, "a 25% loss rate should drop something");
    assert_eq!(f1, f4, "fault totals must not depend on the thread budget");
    assert_eq!(w1, w4, "global params must not depend on the thread budget");
    assert_eq!(s1.total_bytes(), s4.total_bytes());
    let per_round = |h: &History| -> Vec<(usize, u64, u64)> {
        h.records()
            .iter()
            .map(|r| (r.delivered, r.dropped_msgs, r.retries))
            .collect()
    };
    assert_eq!(per_round(&h1), per_round(&h4));
}

/// Under a lossy link the trainer keeps making progress: dropped uploads
/// are excluded from aggregation (weights renormalized over the survivors)
/// rather than poisoning the average, and the history exposes the loss.
#[test]
fn lossy_training_still_learns_and_reports_drops() {
    let t = FaultyTransport::new(FaultConfig::lossy(11, 0.2, 1));
    let mut algo = FedAvg::new();
    let (w, h, _, faults) = run(&mut algo, 62, Some(Box::new(t)));
    assert!(faults.dropped > 0, "expected drops at 20% loss");
    assert!(h.total_dropped() > 0);
    assert!(h.mean_delivery_rate() < 1.0);
    assert!(h.mean_delivery_rate() > 0.0);
    for r in h.records() {
        assert!(r.delivered <= r.participants);
    }
    // The model still moved and still learns something.
    let (w0, ..) = {
        let cfg = quick_cfg(4, 62);
        let fed = gaussian_fed(62, &cfg);
        (fed.global().to_vec(),)
    };
    assert_ne!(w, w0, "training made no progress under 20% loss");
    assert!(h.final_accuracy().unwrap() > 0.3);
}

/// A tight per-round deadline plus a slow link converts stragglers into
/// deadline dropouts — and the per-client virtual clock resets each round,
/// so the federation is not permanently dead after one bad round.
#[test]
fn deadline_produces_dropouts_and_resets_per_round() {
    // WAN latency ≈ 23–33 ms per message (jitter-dependent); two messages
    // per client per round, so a 55 ms deadline lets fast links finish and
    // kills slow ones.
    let slow = FaultConfig::lossless(5)
        .with_latency(LatencyModel::wan())
        .with_deadline_ms(55.0);
    let t = FaultyTransport::new(slow);
    let mut algo = FedAvg::new();
    let (_, h, _, faults) = run(&mut algo, 63, Some(Box::new(t)));
    assert!(faults.deadline_drops > 0, "expected deadline dropouts");
    assert_eq!(faults.dropped, faults.deadline_drops);
    assert_eq!(h.total_dropped(), faults.dropped);
    // The clock resets each round, so some uploads keep arriving.
    assert!(h.mean_delivery_rate() > 0.0);
    assert!(h.mean_delivery_rate() < 1.0);
}
