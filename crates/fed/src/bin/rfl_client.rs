//! `rfl-client` — one federated client as a real process.
//!
//! Connects to an `rfl-server` (with bounded linear backoff, so it can be
//! launched before the server finishes binding), registers with its client
//! id + seed, regenerates its canonical data shard and model replica
//! locally ([`rfl_core::canonical`]), and then follows the server's round
//! orchestration: install broadcasts, train on `TrainStart`, upload, answer
//! δ probes — until `Shutdown`.
//!
//! ```text
//! rfl-client --connect tcp://127.0.0.1:7070 --id 2
//! ```
//!
//! If the link drops mid-run the client reconnects (again with bounded
//! backoff) and re-registers; the server counts the reconnect as a retry
//! and resumes including the client from the next broadcast. With
//! `--leave-after-round R` the client departs gracefully after round `R`'s
//! upload (it answers the δ probe with a goodbye) — the deterministic
//! mid-round churn the integration tests pin against the in-process fault
//! model.

use rfl_core::canonical;
use rfl_core::comm::{
    run_client_loop, ClientConn, ClientLoopOpts, ClientOutcome, ControlMsg, Endpoint,
};
use rfl_fed::{arg_parse, arg_value};
use std::time::Duration;

fn connect_and_register(
    endpoint: &Endpoint,
    id: u32,
    seed: u64,
    attempts: u32,
    backoff: Duration,
) -> std::io::Result<(ClientConn, ControlMsg)> {
    let mut conn = ClientConn::connect_with_backoff(endpoint, attempts, backoff)?;
    let welcome = conn.hello(id, seed)?;
    Ok((conn, welcome))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let connect = arg_value(&args, "--connect").unwrap_or_else(|| {
        eprintln!("usage: rfl-client --connect <tcp://host:port|unix:/path> --id <k> [--seed S]");
        std::process::exit(2);
    });
    let id = arg_parse(&args, "--id", u32::MAX);
    if id == u32::MAX {
        eprintln!("error: --id is required");
        std::process::exit(2);
    }
    let seed = arg_parse(&args, "--seed", canonical::SEED);
    let attempts = arg_parse(&args, "--backoff-attempts", 50u32);
    if attempts == 0 {
        eprintln!("error: --backoff-attempts wants at least one attempt");
        std::process::exit(2);
    }
    let backoff = Duration::from_millis(arg_parse(&args, "--backoff-ms", 100u64));
    let leave_after_round = arg_value(&args, "--leave-after-round").map(|v| {
        v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("error: --leave-after-round wants a round index");
            std::process::exit(2);
        })
    });

    let endpoint = Endpoint::parse(&connect).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (mut conn, welcome) = connect_and_register(&endpoint, id, seed, attempts, backoff)
        .unwrap_or_else(|e| {
            eprintln!("error: connecting to {endpoint}: {e}");
            std::process::exit(2);
        });
    let ControlMsg::Welcome {
        num_clients,
        rounds,
        batch_size,
        lambda,
        clip_grad_norm,
        seed: server_seed,
        compression,
        ..
    } = welcome
    else {
        unreachable!("hello() only returns a Welcome");
    };
    if server_seed != seed {
        eprintln!("error: the server runs seed {server_seed}, this client {seed}");
        std::process::exit(2);
    }
    if id >= num_clients {
        eprintln!("error: id {id} out of range for {num_clients} clients");
        std::process::exit(2);
    }

    // Regenerate this client's shard and model replica from the shared
    // seed — bit-identical to the in-process replica the simulation owns.
    let mut cfg = canonical::config(seed, rounds as usize);
    cfg.batch_size = batch_size as usize;
    cfg.clip_grad_norm = if clip_grad_norm.is_nan() {
        None
    } else {
        Some(clip_grad_norm)
    };
    let data = canonical::data_for(seed, num_clients as usize);
    let mut client = canonical::client(id as usize, &data, &cfg, seed);
    println!("client {id} registered ({num_clients} clients, {rounds} rounds)");

    let opts = ClientLoopOpts {
        leave_after_round,
        compression,
    };
    loop {
        match run_client_loop(&mut conn, &mut client, lambda, &opts) {
            ClientOutcome::Shutdown => {
                println!("client {id}: run complete");
                return;
            }
            ClientOutcome::Left => {
                println!("client {id}: left the federation gracefully");
                return;
            }
            ClientOutcome::Disconnected(e) => {
                eprintln!("client {id}: link lost ({e}); reconnecting");
                match connect_and_register(&endpoint, id, seed, attempts, backoff) {
                    Ok((c, _welcome)) => conn = c,
                    Err(e) => {
                        eprintln!("error: client {id}: reconnect failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}
