//! `rfl-server` — the server end of a real multi-process federation.
//!
//! Binds a TCP or Unix-domain endpoint, waits for the canonical client
//! cohort to register, then runs the unchanged rFedAvg+ round loop
//! ([`rfl_core::canonical`]) with the clients on the far side of the wire.
//! The final training loss must reproduce the pinned in-process loss
//! bit-exactly — `--expect-loss` turns that contract into the exit code,
//! which is how CI gates the distributed smoke run.
//!
//! ```text
//! rfl-server --listen tcp://127.0.0.1:0 --ready-file /tmp/ep \
//!            --expect-loss 1.604142189 --trace /tmp/run.jsonl
//! ```
//!
//! `--listen` accepts `tcp://host:port` (port 0 → ephemeral) or
//! `unix:/path`; `--ready-file` gets the *actual* endpoint once bound, so
//! launchers never race the bind or guess ports.

use rfl_core::canonical;
use rfl_core::comm::{ControlMsg, Endpoint, SocketTransport};
use rfl_core::compress::Compression;
use rfl_core::Federation;
use rfl_fed::{arg_parse, arg_value};
use rfl_trace::Tracer;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "tcp://127.0.0.1:0".to_string());
    let seed = arg_parse(&args, "--seed", canonical::SEED);
    let rounds = arg_parse(&args, "--rounds", canonical::ROUNDS);
    // Cohort size; the default is the pinned 4-client run. Larger cohorts
    // reuse the same data recipe via `canonical::data_for` — the 64-client
    // smoke leg pins its own loss in EXPERIMENTS.md.
    let clients = arg_parse(&args, "--clients", canonical::NUM_CLIENTS);
    if clients == 0 || clients > u32::MAX as usize {
        eprintln!("error: --clients wants 1..=u32::MAX, got {clients}");
        std::process::exit(2);
    }
    let wait_secs = arg_parse(&args, "--wait-secs", 60u64);
    let timeout_secs = arg_parse(&args, "--timeout-secs", 120u64);
    let ready_file = arg_value(&args, "--ready-file");
    let trace_path = arg_value(&args, "--trace");
    let expect_loss = arg_value(&args, "--expect-loss").map(|v| {
        v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("error: --expect-loss wants a float");
            std::process::exit(2);
        })
    });
    // Upload-compression policy; rides the Welcome so clients follow suit.
    let compression = arg_value(&args, "--compress").map_or(Compression::None, |v| {
        Compression::parse(&v).unwrap_or_else(|| {
            eprintln!(
                "error: --compress wants none | quantize:<bits> | topk:<ratio> | \
                 sketch:<rows>:<cols>:<seed> | adaptive:<max_bits>, got {v:?}"
            );
            std::process::exit(2);
        })
    });
    // With compression on, the pinned dense loss no longer applies; the
    // smoke harness instead asks the server to verify the wire run against
    // the in-process compressed oracle.
    let expect_oracle = args.iter().any(|a| a == "--expect-oracle");

    let endpoint = Endpoint::parse(&listen).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut cfg = canonical::config(seed, rounds);
    cfg.compression = compression;
    let welcome = ControlMsg::Welcome {
        num_clients: clients as u32,
        rounds: rounds as u32,
        local_steps: cfg.local_steps as u32,
        batch_size: cfg.batch_size as u32,
        probe_batch: cfg.probe_batch() as u32,
        lambda: canonical::LAMBDA,
        lr: canonical::LR,
        clip_grad_norm: cfg.clip_grad_norm.unwrap_or(f32::NAN),
        seed,
        compression,
    };
    let mut transport = SocketTransport::bind(&endpoint, &welcome).unwrap_or_else(|e| {
        eprintln!("error: bind {endpoint}: {e}");
        std::process::exit(2);
    });
    transport.set_recv_timeout(Duration::from_secs(timeout_secs));
    let actual = transport.local_endpoint().clone();
    println!("listening on {actual}");
    if let Some(path) = ready_file {
        // The launcher polls for this file; write the payload before the
        // final name so a reader never sees a half-written endpoint.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, actual.to_string()).expect("write ready file");
        std::fs::rename(&tmp, &path).expect("publish ready file");
    }
    if let Err(e) = transport.wait_for_clients(Duration::from_secs(wait_secs)) {
        eprintln!("error: waiting for clients: {e}");
        std::process::exit(2);
    }
    println!("all {clients} clients registered");

    let data = canonical::data_for(seed, clients);
    let mut fed = Federation::remote(&data, canonical::model(), &cfg, seed, Box::new(transport));
    let tracer = if trace_path.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    fed.set_tracer(tracer.clone());

    let history = canonical::run(&mut fed, seed, rounds);
    let faults = fed.fault_stats();
    let stats = fed.comm_stats().clone();
    let fed_global: Vec<f32> = fed.global().to_vec();
    fed.shutdown_remote();

    if let Some(path) = &trace_path {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("warning: trace {path}: {e}");
        }
    }
    let loss = history
        .records()
        .last()
        .expect("at least one round")
        .train_loss as f64;
    println!(
        "final_train_loss={loss:.9} rounds={} bytes={} messages={} dropped={} retries={}",
        history.records().len(),
        stats.total_bytes(),
        stats.messages(),
        faults.dropped,
        faults.retries,
    );
    if let Some(counters) = fed.reactor_counters() {
        println!("reactor: {counters:?}");
    }
    if let Some(expect) = expect_loss {
        if loss as f32 != expect as f32 {
            eprintln!("ERROR: loss {loss:.9} != expected {expect:.9} (bit-exact f32 compare)");
            std::process::exit(1);
        }
        println!("loss matches expected {expect:.9} bit-exactly");
    }
    if expect_oracle {
        // Re-run the identical round loop in-process (same cfg, same
        // compression policy, perfect transport) and demand a bit-exact
        // match — the production claim that compression is a real wire
        // stage, not a divergent simulation.
        let mut oracle = Federation::new(
            &data,
            canonical::model(),
            canonical::optimizer(),
            &cfg,
            seed,
        );
        let oracle_h = canonical::run(&mut oracle, seed, rounds);
        let wire: Vec<u32> = history
            .records()
            .iter()
            .map(|r| r.train_loss.to_bits())
            .collect();
        let orac: Vec<u32> = oracle_h
            .records()
            .iter()
            .map(|r| r.train_loss.to_bits())
            .collect();
        if wire != orac || fed_global.as_slice() != oracle.global() {
            eprintln!("ERROR: wire run diverged from the in-process oracle");
            std::process::exit(1);
        }
        println!("wire run matches the in-process oracle bit-exactly");
    }
}
