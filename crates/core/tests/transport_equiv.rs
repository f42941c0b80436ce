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

mod common;

use common::bit_hash;
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
    let stats = fed.comm_stats().clone();
    let faults = fed.fault_stats();
    (fed.global().to_vec(), h, stats, faults)
}

/// Round 0's spans in creation order as `kind{counter=value,..}` (timings
/// and the RSS gauge left out). A request's workers open their spans in
/// scheduling order — each its `local_train` spans and one `materialize` and
/// one `hibernate` span for the clients it woke and put back — so each run
/// of such spans reads as its `materialize` spans summed to one, its
/// client spans sorted by client, and its `hibernate` spans summed to one.
/// The shell split of a `materialize` span is left out: which worker took a
/// shell off the list is scheduling too.
fn round0_spans(tracer: &rfl_trace::Tracer) -> String {
    let render = |r: &rfl_trace::SpanRecord| {
        let counters: Vec<String> = r
            .counters
            .iter()
            .filter(|(n, _)| *n != "rss_bytes")
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let client = r.client.map_or(String::new(), |c| format!("#{c}"));
        format!("{}{client}{{{}}}", r.kind, counters.join(","))
    };
    let flush = |run: &mut Vec<rfl_trace::SpanRecord>, out: &mut Vec<String>| {
        let woken = |kind: &str| -> Option<String> {
            let spans = run.iter().filter(|r| r.kind == kind);
            let clients: Option<u64> = spans
                .map(|r| r.counter("clients").unwrap_or(0))
                .reduce(|a, b| a + b);
            clients.map(|n| format!("{kind}{{clients={n}}}"))
        };
        let mut trained: Vec<String> = (run.iter())
            .filter(|r| r.kind == "local_train")
            .map(render)
            .collect();
        trained.sort();
        out.extend(woken("materialize"));
        out.extend(trained);
        out.extend(woken("hibernate"));
        run.clear();
    };
    let (mut out, mut run) = (Vec::new(), Vec::new());
    for r in tracer.records().into_iter().filter(|r| r.round == Some(0)) {
        if matches!(r.kind, "local_train" | "materialize" | "hibernate") {
            run.push(r);
        } else {
            flush(&mut run, &mut out);
            out.push(render(&r));
        }
    }
    flush(&mut run, &mut out);
    out.join(" ")
}

/// One cell of the parity table: everything a back-end or driver change
/// must not move, rendered on one line.
fn parity_row(algo: &mut dyn Algorithm, transport: Option<Box<dyn Transport>>) -> String {
    let cfg = FlConfig {
        sample_ratio: 0.5,
        ..quick_cfg(4, 60)
    };
    let mut fed = gaussian_fed(60, &cfg);
    if let Some(t) = transport {
        fed.set_transport(t);
    }
    let tracer = rfl_trace::Tracer::enabled();
    fed.set_tracer(tracer.clone());
    let h = Trainer::new(cfg).run(algo, &mut fed);
    let losses: Vec<String> = h
        .records()
        .iter()
        .map(|r| format!("{:08x}", r.train_loss.to_bits()))
        .collect();
    let (s, f) = (fed.comm_stats(), fed.fault_stats());
    format!(
        "global={:016x} loss=[{}] down={} up={} ddown={} dup={} msgs={} faults=({},{},{}) | {}",
        bit_hash(fed.global()),
        losses.join(","),
        s.download_bytes(),
        s.upload_bytes(),
        s.delta_download_bytes(),
        s.delta_upload_bytes(),
        s.messages(),
        f.dropped,
        f.retries,
        f.deadline_drops,
        round0_spans(&tracer),
    )
}

type MakeAlgo = fn() -> Box<dyn Algorithm>;

/// The ten algorithm rows of the parity table: the eight algorithms plus
/// the two DP variants (which pin the noise draws' place in the server RNG
/// stream, interleaved with the selection draws).
fn parity_algos() -> Vec<(&'static str, MakeAlgo)> {
    fn dp() -> rfl_core::dp::DpConfig {
        rfl_core::dp::DpConfig::new(0.5, 1.0, 10)
    }
    vec![
        ("FedAvg", || Box::new(FedAvg::new())),
        ("FedProx", || Box::new(FedProx::new(0.1))),
        ("FedAvgM", || Box::new(FedAvgM::new(0.7))),
        ("Scaffold", || Box::new(Scaffold::new(1.0))),
        ("q-FedAvg", || Box::new(QFedAvg::new(1.0))),
        ("PoC", || Box::new(PowerOfChoice::new(2.0, 1e-3))),
        ("rFedAvg", || Box::new(RFedAvg::new(1e-3))),
        ("rFedAvg+", || Box::new(RFedAvgPlus::new(1e-3))),
        ("rFedAvg/dp", || Box::new(RFedAvg::new(1e-3).with_dp(dp()))),
        ("rFedAvg+/dp", || {
            Box::new(RFedAvgPlus::new(1e-3).with_dp(dp()))
        }),
    ]
}

/// The in-process parity table, recorded on the commit before the round
/// driver existed: for every algorithm, what a run leaves behind on a
/// lossless link and on a seeded lossy one (30 % loss, no retry) — the
/// final global's bit hash, each round's `train_loss` bits, the byte
/// ledger per plane and direction, the message count, the fault counters
/// and round 0's span sequence with its counters. A refactor of the round
/// plumbing must leave every line as it is.
const PARITY: &[(&str, &str, &str)] = &[
    (
        "FedAvg",
        "global=dc5b7e1bb3b86fd1 loss=[3fa1e4a4,3f92bbae,3f544a0c,3f3a0a5e] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(0,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=82f2562ce783805f loss=[3fa1e4a4,3fa08854,3f6df162,3f3fcd0a] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(4,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=1,dims=94} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1}",
    ),
    (
        "FedProx",
        "global=0aa3b66a14b6ce5f loss=[3fa28678,3f9364d2,3f55f8d8,3f3b8a20] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(0,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=c1d91e1736682508 loss=[3fa28678,3fa0c84a,3f6f64f2,3f40bd24] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(4,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=1,dims=94} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1}",
    ),
    (
        "FedAvgM",
        "global=2448dcd4ef788420 loss=[3fa1e4a4,3f92bbae,3f4476ef,3f1fa2d4] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(0,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=e24708ed927cad82 loss=[3fa1e4a4,3fa08854,3f7cf290,3f26d4e0] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(4,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=1,dims=94} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1}",
    ),
    (
        "Scaffold",
        "global=17187f84f28fd0db loss=[3fa1e4a4,3fa31e67,3f90a350,3f6af178] down=9120 up=9120 ddown=0 dup=0 msgs=32 faults=(0,0,0) | round{bytes_down=2280,bytes_up=2280,bytes_delta=0,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} broadcast{bytes=1140,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} upload{bytes=1140,clients=3} upload{bytes=1140,clients=3} materialize{clients=3} hibernate{clients=3} aggregate{clients=3}",
        "global=920bd6768a4f0ce8 loss=[3f8ddc69,3fa890db,3ef2ae46,3f5a2ab7] down=9120 up=6080 ddown=0 dup=0 msgs=24 faults=(5,0,0) | round{bytes_down=2280,bytes_up=760,bytes_delta=0,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} broadcast{bytes=1140,clients=3,dropped=2} materialize{clients=1} local_train#1{batches=5,examples=50} hibernate{clients=1} upload{bytes=380,clients=1} upload{bytes=380,clients=1} materialize{clients=1} hibernate{clients=1} aggregate{clients=1}",
    ),
    (
        "q-FedAvg",
        "global=cde980f6526847fd loss=[3fa1e4a4,3fa3603d,3f8b43b4,3f74adbc] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(0,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=6} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=6} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=809cea706ac422ba loss=[3fa1e4a4,3fa72c36,3f8fbdcb,3f6ffcf2] down=4560 up=4560 ddown=0 dup=0 msgs=16 faults=(4,0,0) | round{bytes_down=1140,bytes_up=1140,bytes_delta=0,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} materialize{clients=6} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=6} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1}",
    ),
    (
        "PoC",
        "global=7f28b264653543eb loss=[3fc2e452,3f78bf1e,3f5423e0,3f4a2b58] down=13680 up=4560 ddown=0 dup=0 msgs=20 faults=(0,0,0) | round{bytes_down=3420,bytes_up=1140,bytes_delta=0,participants=3} select{candidates=6,clients=3} broadcast{bytes=2280,clients=6} materialize{clients=9} local_train#2{batches=5,examples=50} local_train#4{batches=5,examples=50} local_train#5{batches=5,examples=50} hibernate{clients=9} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3} broadcast{bytes=1140,clients=3} delta_sync{dims=6,clients=3} materialize{clients=3} hibernate{clients=3}",
        "global=f62da33e937a1d90 loss=[3fc2e452,3f85e54e,3f79dd33,3f6481e2] down=13680 up=4560 ddown=0 dup=0 msgs=20 faults=(11,0,0) | round{bytes_down=3420,bytes_up=1140,bytes_delta=0,participants=3,dropped=3} select{candidates=6,clients=3} broadcast{bytes=2280,clients=6,dropped=1} materialize{clients=8} local_train#2{batches=5,examples=50} local_train#4{batches=5,examples=50} local_train#5{batches=5,examples=50} hibernate{clients=8} fold{clients=2,dims=94} upload{bytes=1140,clients=3,dropped=1} aggregate{clients=2} broadcast{bytes=1140,clients=3,dropped=1} delta_sync{dims=6,clients=2} materialize{clients=2} hibernate{clients=2}",
    ),
    (
        "rFedAvg",
        "global=288b7f41348cc473 loss=[3fa1e4a4,3f92ce02,3f546424,3f3a4a15] down=6336 up=4896 ddown=1776 dup=336 msgs=32 faults=(0,0,0) | round{bytes_down=1584,bytes_up=1224,bytes_delta=528,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=444,dims=36,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=cd6a25036e289efe loss=[3fa1e4a4,3f92ce02,3f5454bc,3f3a4f1a] down=6336 up=4896 ddown=1776 dup=336 msgs=32 faults=(6,0,0) | round{bytes_down=1584,bytes_up=1224,bytes_delta=528,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=444,dims=36,clients=3,dropped=2} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
    ),
    (
        "rFedAvg+",
        "global=6b0322491bef7309 loss=[3fa1e4a4,3f92ccc0,3f545e0a,3f3a49de] down=9372 up=4896 ddown=252 dup=336 msgs=41 faults=(0,0,0) | round{bytes_down=2280,bytes_up=1224,bytes_delta=84,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=0,dims=6,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3} broadcast{bytes=1140,clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3}",
        "global=090d0035faf9ae69 loss=[3fa1e4a4,3fa09956,3f6df5f6,3f3264fc] down=9372 up=4868 ddown=252 dup=308 msgs=40 faults=(6,0,0) | round{bytes_down=2280,bytes_up=1224,bytes_delta=84,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=0,dims=6,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=1,dims=94} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1} broadcast{bytes=1140,clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3}",
    ),
    (
        "rFedAvg/dp",
        "global=7330b4caa215a7b2 loss=[3fa1e4a4,3f60168c,3f5b804d,3f5d3460] down=6336 up=4896 ddown=1776 dup=336 msgs=32 faults=(0,0,0) | round{bytes_down=1584,bytes_up=1224,bytes_delta=528,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=444,dims=36,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
        "global=651aace66b5fbdc9 loss=[3fa1e4a4,3f7544b6,3f6ae9c1,3f4df952] down=5892 up=3672 ddown=1332 dup=252 msgs=26 faults=(9,0,0) | round{bytes_down=1584,bytes_up=1224,bytes_delta=528,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=444,dims=36,clients=3,dropped=2} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3}",
    ),
    (
        "rFedAvg+/dp",
        "global=2cf0967690158f0b loss=[3fa1e4a4,3f6017d2,3f5b8026,3f5d3274] down=9372 up=4896 ddown=252 dup=336 msgs=41 faults=(0,0,0) | round{bytes_down=2280,bytes_up=1224,bytes_delta=84,participants=3} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=0,dims=6,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=3,dims=94} upload{bytes=1140,clients=3} aggregate{clients=3} broadcast{bytes=1140,clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3}",
        "global=82adf307fc0106d0 loss=[3fa1e4a4,3f7e353d,3f733300,3f47a66f] down=8148 up=3672 ddown=168 dup=252 msgs=32 faults=(10,0,0) | round{bytes_down=2280,bytes_up=1224,bytes_delta=84,participants=3,dropped=2} select{clients=3} broadcast{bytes=1140,clients=3} delta_broadcast{bytes=0,dims=6,clients=3} materialize{clients=3} local_train#0{batches=5,examples=50} local_train#1{batches=5,examples=50} local_train#4{batches=5,examples=50} hibernate{clients=3} fold{clients=1,dims=94} upload{bytes=1140,clients=3,dropped=2} aggregate{clients=1} broadcast{bytes=1140,clients=3} delta_sync{bytes=84,dims=6,clients=3} materialize{clients=3} hibernate{clients=3}",
    ),
];

/// A no-fault `FaultyTransport` must be indistinguishable from the default
/// backend — same trained model bit for bit, same byte ledger, same
/// message counts, same spans — for all eight algorithms, and both must
/// read exactly what [`PARITY`] recorded; so must the lossy column.
#[test]
fn lossless_faulty_is_bit_and_byte_identical_to_perfect() {
    let mut actual = Vec::new();
    for (name, make) in parity_algos() {
        let perfect = parity_row(make().as_mut(), None);
        let lossless = FaultyTransport::new(FaultConfig::lossless(123));
        let faulty = parity_row(make().as_mut(), Some(Box::new(lossless)));
        assert_eq!(perfect, faulty, "{name}: lossless faulty ≠ perfect");
        let lossy = FaultyTransport::new(FaultConfig::lossy(7, 0.3, 0));
        let lossy = parity_row(make().as_mut(), Some(Box::new(lossy)));
        actual.push((name, perfect, lossy));
    }
    let render = |rows: &[(&str, String, String)]| -> String {
        rows.iter()
            .map(|(n, a, b)| {
                format!("    (\n        {n:?},\n        {a:?},\n        {b:?},\n    ),\n")
            })
            .collect()
    };
    let expected: Vec<(&str, String, String)> = PARITY
        .iter()
        .map(|&(n, a, b)| (n, a.to_string(), b.to_string()))
        .collect();
    assert!(
        actual == expected,
        "parity table moved; this run reads:\n{}",
        render(&actual)
    );
}

/// SCAFFOLD where [`PARITY`] does not reach: compressed uploads (8-bit
/// quantized and top-k), at full and half participation, on a perfect link
/// and a lossy one (30 % loss, no retry). Each line is the final global's
/// bit hash and every round's `train_loss` bits, recorded while the server
/// still computed each client's control variate from the decoded upload.
/// A client's `c_k⁺` must come from what its upload delivers, not from the
/// model it trained to.
const SCAFFOLD_COMPRESSED: &[&str] = &[
    "q8 sr=1 lossy=false global=454a31abc7de8ea0 loss=[3f68aeb8,3f6f9ad1,3f4f86ad,3f3d0794]",
    "q8 sr=1 lossy=true global=6f7e57d87138c3a0 loss=[3f674c26,3f34a67c,3f5c1335,3f39524d]",
    "q8 sr=0.5 lossy=false global=6931660eeaddcf7b loss=[3f6bae6b,3f7b5384,3f3a986f,3f415b4f]",
    "q8 sr=0.5 lossy=true global=a35dbe60a03f238b loss=[3f3cdfa8,3f831f3f,00000000,3f5e7ca0]",
    "topk sr=1 lossy=false global=56f05b8a138749cd loss=[3f68aeb8,3f70f41b,3f59fb6b,3f4e2c3f]",
    "topk sr=1 lossy=true global=1f655dbda8f5e3f7 loss=[3f674c26,3f3c500e,3f738883,3f334199]",
    "topk sr=0.5 lossy=false global=1bfb916429119748 loss=[3f6bae6b,3f894968,3f3c4164,3f5035c4]",
    "topk sr=0.5 lossy=true global=354dd32a004e762c loss=[3f3cdfa8,3f831f3f,00000000,3f61a6d8]",
];

#[test]
fn compressed_scaffold_reads_as_recorded() {
    let policies = [
        ("q8", rfl_core::compress::Compression::Quantize { bits: 8 }),
        (
            "topk",
            rfl_core::compress::Compression::TopK { ratio: 0.25 },
        ),
    ];
    let mut actual = Vec::new();
    for (label, compression) in policies {
        for sample_ratio in [1.0, 0.5] {
            for lossy in [false, true] {
                let cfg = FlConfig {
                    sample_ratio,
                    compression,
                    ..quick_cfg(4, 64)
                };
                let mut fed = gaussian_fed(64, &cfg);
                if lossy {
                    let t = FaultyTransport::new(FaultConfig::lossy(7, 0.3, 0));
                    fed.set_transport(Box::new(t));
                }
                let h = Trainer::new(cfg).run(&mut Scaffold::new(1.0), &mut fed);
                let losses: Vec<String> = (h.records().iter())
                    .map(|r| format!("{:08x}", r.train_loss.to_bits()))
                    .collect();
                actual.push(format!(
                    "{label} sr={sample_ratio} lossy={lossy} global={:016x} loss=[{}]",
                    bit_hash(fed.global()),
                    losses.join(",")
                ));
            }
        }
    }
    let render: String = actual.iter().map(|l| format!("    {l:?},\n")).collect();
    assert!(
        actual == SCAFFOLD_COMPRESSED,
        "compressed SCAFFOLD moved; this run reads:\n{render}"
    );
}

/// The encoder's buffer both transports reuse must get the exact same bytes
/// as a one-shot encode into a fresh buffer, for every payload — otherwise
/// the comm ledger (and Table III) would silently change meaning.
#[test]
fn reused_wire_buffers_are_byte_identical_to_one_shot_encoding() {
    use rfl_tensor::{decode_f32_into, encode_f32_into, wire_size};
    let one_shot = |p: &[f32]| {
        let mut fresh = Vec::new();
        encode_f32_into(&mut fresh, p);
        fresh
    };
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
        assert_eq!(buf, one_shot(p), "wire bytes diverged");
    }
    // And the perfect transport built on it delivers the one-shot codec's
    // bits and charges `wire_size(n)` per message (no state leaking between
    // sends through the reused buffer).
    let mut reused = PerfectTransport::new();
    let mut prev = 0u64;
    for p in &payloads {
        let got = reused.send(MsgKind::ModelUp, 0, p).data.expect("delivered");
        let mut want = Vec::new();
        decode_f32_into(&one_shot(p), &mut want).expect("codec round trip");
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
    assert!(h.records().iter().map(|r| r.dropped_msgs).sum::<u64>() > 0);
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
    let dropped: u64 = h.records().iter().map(|r| r.dropped_msgs).sum();
    assert_eq!(dropped, faults.dropped);
    // The clock resets each round, so some uploads keep arriving.
    assert!(h.mean_delivery_rate() > 0.0);
    assert!(h.mean_delivery_rate() < 1.0);
}
