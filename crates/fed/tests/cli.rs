//! `rfl-client`'s refusals: a flag or a `Welcome` it cannot run with is a
//! message and exit code 2, like every other usage error, never a panic.

use rfl_core::canonical;
use rfl_core::comm::{read_frame, write_frame, ControlMsg, Endpoint};
use rfl_core::compress::Compression;
use std::net::TcpListener;
use std::process::{Command, Output};

fn rfl_client(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfl-client"))
        .args(args)
        .output()
        .expect("rfl-client runs")
}

/// Exit code 2 and `wanted` on stderr.
fn assert_refused(out: &Output, wanted: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(wanted), "stderr: {stderr}");
}

/// Runs `rfl-client --id <id>` against a one-shot server that answers its
/// `Hello` with a canonical `Welcome` for `num_clients` clients at `seed`.
fn against_welcome(id: u32, num_clients: u32, seed: u64) -> Output {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("address").to_string());
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the client connects");
        let (tag, _) = read_frame(&mut stream).expect("hello");
        let cfg = canonical::config(seed, 1);
        let welcome = ControlMsg::Welcome {
            num_clients,
            rounds: 1,
            local_steps: cfg.local_steps as u32,
            batch_size: cfg.batch_size as u32,
            probe_batch: cfg.probe_batch() as u32,
            lambda: canonical::LAMBDA,
            lr: canonical::LR,
            clip_grad_norm: f32::NAN,
            seed,
            compression: Compression::None,
        };
        let mut body = Vec::new();
        welcome.encode_body(&mut body);
        write_frame(&mut stream, welcome.tag(), &body).expect("welcome");
        // Hold the link until the client goes.
        let _ = read_frame(&mut stream);
        tag
    });
    let out = rfl_client(&[
        "--connect",
        &endpoint.to_string(),
        "--id",
        &id.to_string(),
        "--backoff-attempts",
        "1",
    ]);
    let hello = ControlMsg::Hello {
        magic: 0,
        version: 0,
        client_id: 0,
        seed: 0,
    };
    assert_eq!(server.join().expect("server"), hello.tag());
    out
}

#[test]
fn zero_backoff_attempts_is_a_usage_error() {
    let out = rfl_client(&[
        "--connect",
        "tcp://127.0.0.1:1",
        "--id",
        "0",
        "--backoff-attempts",
        "0",
    ]);
    assert_refused(&out, "--backoff-attempts");
}

#[test]
fn a_welcome_with_another_seed_is_refused() {
    let out = against_welcome(0, canonical::NUM_CLIENTS as u32, canonical::SEED + 1);
    assert_refused(&out, "seed");
}

#[test]
fn a_welcome_too_small_for_the_id_is_refused() {
    let out = against_welcome(4, 4, canonical::SEED);
    assert_refused(&out, "out of range");
}
