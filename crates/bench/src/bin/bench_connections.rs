//! Connection-scaling gate for the event-driven server reactor
//! (`bench_connections --out BENCH_PR9.json` writes the committed report).
//!
//! Sweeps one `SocketTransport` server from 64 to 4096 concurrent TCP
//! connections at a *fixed* thread budget and reports round throughput,
//! peak resident memory, and the process's kernel thread count per leg.
//! The whole point of the reactor: a thread-per-connection server crosses
//! 4096 threads on the big leg, while the poll-sharded reactor holds the
//! same handful of threads it used for 64 connections — so the thread
//! count is a hard gate, not a statistic.
//!
//! Every client end is a plain blocking [`ClientConn`] owned by ONE driver
//! thread (echoing each `ModelDown` broadcast back as a `ModelUp`), so the
//! measured process contains exactly: main, the driver, and the reactor
//! shards. Each round is an encode-once broadcast to all connections plus
//! one claimed upload per connection — the server's real fan-out/fan-in
//! pattern minus the local training that would otherwise dominate.
//!
//! Gates (committed in `BENCH_PR9.json`):
//! * exact accounting — every leg's [`CommStats`] must equal the closed
//!   form (handshakes + broadcasts + uploads + shutdowns) byte-for-byte;
//! * fixed thread budget — every leg stays under [`MAX_THREADS`] and the
//!   4096-leg uses *exactly* as many threads as the 64-leg;
//! * the 4096-leg stays under [`RSS_CEILING_BYTES`] peak resident and
//!   above [`MIN_ROUNDS_PER_SEC`].
//!
//! Usage: `bench_connections [--quick] [--out <path>]`
//!
//! `--quick` runs only the 64- and 4096-connection legs (the CI smoke
//! gate); the full sweep adds the intermediate points for the report.
//!
//! [`CommStats`]: rfl_core::comm::CommStats

use rfl_core::comm::{
    ClientConn, ClientEvent, ControlMsg, Endpoint, MsgKind, RemoteTransport, SocketTransport,
    Transport, FRAME_HEADER_BYTES, PROTO_MAGIC, PROTO_VERSION,
};
use rfl_core::compress::Compression;
use rfl_core::mem;
use rfl_tensor::encode_f32_into;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Echo rounds per leg (enough to amortize the handshake wave).
const ROUNDS: usize = 3;
/// Broadcast payload dimension (`f32`s) — a small model, so the sweep
/// measures connection machinery rather than memcpy bandwidth.
const DIM: usize = 1024;
/// Reactor shard budget pinned for every leg (`RFL_NET_THREADS`).
const NET_THREADS: usize = 2;
const SEED: u64 = 7;

/// The sweep. Quick mode keeps only the endpoints; the 4096-connection
/// leg carries the gates either way.
const LEGS: [usize; 4] = [64, 256, 1024, 4096];

/// Kernel-thread ceiling for every leg. The reactor needs
/// `2 + NET_THREADS` (main + driver + shards); thread-per-connection
/// would need `conns + 2`. Headroom covers runtime helper threads, not a
/// second architecture.
const MAX_THREADS: u64 = 16;
/// Peak-RSS ceiling for the 4096-connection leg. Measured ~28 MB (8192
/// socket ends, per-connection queues and reader buffers, one shared
/// broadcast frame); the ceiling fails loudly if per-connection state
/// starts scaling with the payload or threads reappear with their stacks.
const RSS_CEILING_BYTES: u64 = 128 * 1024 * 1024;
/// Throughput floor for the 4096-connection leg, ~3x under the ~6
/// rounds/sec measured on one CI core.
const MIN_ROUNDS_PER_SEC: f64 = 2.0;

struct LegReport {
    conns: usize,
    rounds_per_sec: f64,
    peak_rss_bytes: u64,
    threads: u64,
    total_bytes: u64,
    messages: u64,
    accounting_exact: bool,
}

/// The run configuration frame for a `conns`-connection leg; also the
/// source of the closed-form accounting (its encoded length is the
/// per-connection `Welcome` charge).
fn welcome_for(conns: usize) -> ControlMsg {
    ControlMsg::Welcome {
        num_clients: conns as u32,
        rounds: ROUNDS as u32,
        local_steps: 1,
        batch_size: 1,
        probe_batch: 1,
        lambda: 0.0,
        lr: 0.0,
        clip_grad_norm: f32::NAN,
        seed: SEED,
        compression: Compression::None,
    }
}

/// One sweep leg: bind the reactor server, register `conns` blocking
/// client connections from a single driver thread, run [`ROUNDS`]
/// broadcast→echo rounds, then reconcile the byte ledger.
fn run_leg(conns: usize) -> LegReport {
    mem::reset_peak_rss();
    // Both socket ends live in this process: 2 fds per connection plus
    // listener/wake-pipes/std streams.
    let want_fds = (conns as u64) * 2 + 64;
    if let Some(limit) = mem::raise_fd_limit(want_fds) {
        assert!(
            limit >= want_fds,
            "need {want_fds} fds for {conns} connections, hard limit allows {limit}"
        );
    }
    let welcome = welcome_for(conns);
    let endpoint = Endpoint::parse("tcp://127.0.0.1:0").expect("endpoint");
    let mut transport = SocketTransport::bind(&endpoint, &welcome).expect("bind");
    transport.set_recv_timeout(Duration::from_secs(120));
    let actual = transport.local_endpoint().clone();

    // ONE thread drives every client end — any per-connection thread in
    // the process would belong to the server and trip the thread gate.
    let driver = std::thread::Builder::new()
        .name("bench-driver".into())
        .spawn(move || {
            let mut clients = Vec::with_capacity(conns);
            for id in 0..conns {
                let mut c =
                    ClientConn::connect_with_backoff(&actual, 20, Duration::from_millis(10))
                        .expect("connect");
                c.hello(id as u32, SEED).expect("register");
                clients.push(c);
            }
            // Every connection gets its `Shutdown` in the same sweep (the
            // server only shuts down once every echo is claimed). Finish
            // the sweep before dropping the sockets: closing them on the
            // first `Shutdown` drains sessions the server has not sent
            // theirs to yet, and those frames go uncharged.
            let mut shutting_down = false;
            while !shutting_down {
                for (id, c) in clients.iter_mut().enumerate() {
                    match c.read_event() {
                        Ok(ClientEvent::Payload(MsgKind::ModelDown, params)) => {
                            c.send_payload(MsgKind::ModelUp, &params).expect("upload");
                        }
                        Ok(ClientEvent::Control(ControlMsg::Shutdown)) => shutting_down = true,
                        Ok(other) => panic!("client {id}: unexpected frame {other:?}"),
                        Err(e) => panic!("client {id}: link died: {e}"),
                    }
                }
            }
        })
        .expect("spawn driver");

    transport
        .wait_for_clients(Duration::from_secs(60))
        .expect("registration");
    // Steady-state thread census: main + driver + reactor shards, all up.
    let threads = mem::thread_count();

    let params: Vec<f32> = (0..DIM).map(|i| (i as f32) * 0.5 - 3.0).collect();
    let all: Vec<usize> = (0..conns).collect();
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        transport.begin_round(round as u64);
        let bd = transport.broadcast(MsgKind::ModelDown, &all, &params);
        assert!(
            bd.links.iter().all(|l| l.delivered),
            "round {round}: broadcast dropped a connection"
        );
        for &k in &all {
            let d = transport.recv(MsgKind::ModelUp, k);
            assert_eq!(
                d.data.as_deref(),
                Some(&params[..]),
                "round {round}: upload from connection {k} lost or corrupt"
            );
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    transport.shutdown();
    driver.join().expect("driver");
    let stats = transport.stats().clone();

    // Closed-form ledger: every frame the leg sends has a fixed-width
    // encoding, so the exact byte totals are computable a priori.
    let mut body = Vec::new();
    let frame = |body: &Vec<u8>| FRAME_HEADER_BYTES + body.len() as u64;
    ControlMsg::Hello {
        magic: PROTO_MAGIC,
        version: PROTO_VERSION,
        client_id: 0,
        seed: SEED,
    }
    .encode_body(&mut body);
    let hello_len = frame(&body);
    welcome.encode_body(&mut body);
    let welcome_len = frame(&body);
    ControlMsg::Shutdown.encode_body(&mut body);
    let shutdown_len = frame(&body);
    let mut wire = Vec::new();
    encode_f32_into(&mut wire, &params);
    let payload_len = FRAME_HEADER_BYTES + wire.len() as u64;

    let (n, r) = (conns as u64, ROUNDS as u64);
    let expect_up = n * hello_len + r * n * payload_len;
    let expect_down = n * welcome_len + r * n * payload_len + n * shutdown_len;
    // Handshake pairs + (one encode-once broadcast record + n uploads)
    // per round + n shutdown frames.
    let expect_msgs = 2 * n + r * (1 + n) + n;
    let accounting_exact = stats.upload_bytes() == expect_up
        && stats.download_bytes() == expect_down
        && stats.messages() == expect_msgs;
    if !accounting_exact {
        eprintln!(
            "leg {conns}: ledger drift: up {}/{expect_up} down {}/{expect_down} msgs {}/{expect_msgs}",
            stats.upload_bytes(),
            stats.download_bytes(),
            stats.messages(),
        );
    }

    LegReport {
        conns,
        rounds_per_sec: ROUNDS as f64 / secs,
        peak_rss_bytes: mem::peak_rss_bytes(),
        threads,
        total_bytes: stats.total_bytes(),
        messages: stats.messages(),
        accounting_exact,
    }
}

/// Runs `conns` in a child process (this binary re-executing itself with
/// `--leg <conns>`): peak RSS is per-address-space, and the pinned
/// `RFL_NET_THREADS` rides the child environment so a caller's override
/// cannot skew the thread gate.
fn run_leg_in_child(conns: usize) -> LegReport {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args(["--leg", &conns.to_string()])
        .env("RFL_NET_THREADS", NET_THREADS.to_string())
        .output()
        .expect("spawn leg child");
    assert!(
        out.status.success(),
        "leg {conns} child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("leg child output");
    // `LEG <rounds_per_sec> <peak_rss> <threads> <total_bytes> <messages> <exact>`
    let fields: Vec<&str> = line.split_whitespace().collect();
    assert!(
        fields.len() == 7 && fields[0] == "LEG",
        "malformed leg line: {line:?}"
    );
    LegReport {
        conns,
        rounds_per_sec: fields[1].parse().expect("rounds_per_sec"),
        peak_rss_bytes: fields[2].parse().expect("peak_rss_bytes"),
        threads: fields[3].parse().expect("threads"),
        total_bytes: fields[4].parse().expect("total_bytes"),
        messages: fields[5].parse().expect("messages"),
        accounting_exact: fields[6].parse().expect("accounting_exact"),
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

    // Child mode: run one leg, emit the machine-readable line, exit.
    if let Some(conns) = args
        .iter()
        .position(|a| a == "--leg")
        .and_then(|i| args.get(i + 1))
    {
        let conns: usize = conns.parse().expect("--leg wants a connection count");
        let r = run_leg(conns);
        println!(
            "LEG {:.3} {} {} {} {} {}",
            r.rounds_per_sec,
            r.peak_rss_bytes,
            r.threads,
            r.total_bytes,
            r.messages,
            r.accounting_exact
        );
        return;
    }

    let legs: Vec<usize> = if quick {
        vec![LEGS[0], LEGS[LEGS.len() - 1]]
    } else {
        LEGS.to_vec()
    };

    let mut reports = Vec::new();
    for conns in legs {
        eprintln!("leg {conns}: {conns} connections, {NET_THREADS} reactor shards");
        reports.push(run_leg_in_child(conns));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rounds_per_leg\": {ROUNDS},");
    let _ = writeln!(json, "  \"payload_dim\": {DIM},");
    let _ = writeln!(json, "  \"net_threads\": {NET_THREADS},");
    let _ = writeln!(json, "  \"max_threads\": {MAX_THREADS},");
    let _ = writeln!(json, "  \"rss_ceiling_bytes\": {RSS_CEILING_BYTES},");
    let _ = writeln!(json, "  \"min_rounds_per_sec\": {MIN_ROUNDS_PER_SEC},");
    json.push_str("  \"legs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"connections\": {},", r.conns);
        let _ = writeln!(json, "      \"rounds_per_sec\": {:.3},", r.rounds_per_sec);
        let _ = writeln!(json, "      \"peak_rss_bytes\": {},", r.peak_rss_bytes);
        let _ = writeln!(json, "      \"threads\": {},", r.threads);
        let _ = writeln!(json, "      \"total_bytes\": {},", r.total_bytes);
        let _ = writeln!(json, "      \"messages\": {},", r.messages);
        let _ = writeln!(json, "      \"accounting_exact\": {}", r.accounting_exact);
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

    let mut failed = false;
    for r in &reports {
        if !r.accounting_exact {
            eprintln!(
                "ERROR: leg {} drifted from the closed-form byte ledger",
                r.conns
            );
            failed = true;
        }
        if r.threads > MAX_THREADS {
            eprintln!(
                "ERROR: leg {} ran {} threads, above the {MAX_THREADS}-thread budget",
                r.conns, r.threads
            );
            failed = true;
        }
    }
    // Fixed budget means *fixed*: 64x the connections, same thread count.
    let (first, last) = (&reports[0], &reports[reports.len() - 1]);
    if first.threads != last.threads {
        eprintln!(
            "ERROR: thread count grew with connections ({} @ {} conns vs {} @ {} conns)",
            first.threads, first.conns, last.threads, last.conns
        );
        failed = true;
    }
    if last.conns == LEGS[LEGS.len() - 1] {
        if last.peak_rss_bytes > RSS_CEILING_BYTES {
            eprintln!(
                "ERROR: {}-connection leg peaked at {} resident bytes, above the \
                 committed ceiling of {RSS_CEILING_BYTES}",
                last.conns, last.peak_rss_bytes
            );
            failed = true;
        }
        if last.rounds_per_sec < MIN_ROUNDS_PER_SEC {
            eprintln!(
                "ERROR: {}-connection leg ran {:.3} rounds/sec, under the \
                 committed floor of {MIN_ROUNDS_PER_SEC}",
                last.conns, last.rounds_per_sec
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
