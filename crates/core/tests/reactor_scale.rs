//! Connection-scaling gate for the event-driven server reactor.
//!
//! One `SocketTransport` server takes 64 and then 4,096 loopback TCP
//! connections. A thread-per-connection server crosses 4,096 threads on the
//! big leg; the reactor serves both legs from its one `epoll(7)` thread, so
//! the thread census is exact: registration adds the driver and one thread.
//! Every client end is a plain blocking [`ClientConn`] owned by ONE driver
//! thread (echoing each `ModelDown` broadcast back as a `ModelUp`), so the
//! process contains exactly the test harness, the driver and the reactor's
//! thread. Each round is an encode-once
//! broadcast to all connections plus one claimed upload per connection, and
//! every frame has a fixed-width encoding, so the byte ledger is checked
//! against its closed form exactly — and so are the reactor's own byte
//! counters, which must agree with the ledger to the byte; the same counters
//! bound the `read(2)` calls a frame may cost. The one timing is relative:
//! the driver times each registration, and on the big leg the last quarter's
//! median may be at most [`MAX_REGISTRATION_GROWTH`] times the first
//! quarter's — a registration that scans the table (a `poll(2)` set re-armed
//! per wait) grows with it.
//!
//! This file holds exactly one test function: the thread census and the peak
//! resident set are process-wide, and a sibling test would be counted in
//! both.

use rfl_core::comm::{
    ClientConn, ClientEvent, ControlMsg, Endpoint, MsgKind, RemoteTransport, SocketTransport,
    Transport, FRAME_HEADER_BYTES, PROTO_MAGIC, PROTO_VERSION,
};
use rfl_core::compress::Compression;
use rfl_core::mem;
use rfl_tensor::encode_f32_into;
use std::time::{Duration, Instant};

/// Echo rounds per leg.
const ROUNDS: usize = 3;
/// Broadcast payload dimension (`f32`s): a small model, so the legs exercise
/// connection machinery rather than memcpy bandwidth.
const DIM: usize = 1024;
const SEED: u64 = 7;

/// Kernel-thread ceiling for either leg. The reactor needs the harness's
/// two threads, the driver and its own one; thread-per-connection would
/// need one per connection on top. The headroom covers runtime helper
/// threads, not a second architecture.
const MAX_THREADS: u64 = 16;
/// Peak-RSS ceiling after the 4,096-connection leg. Measured ~28 MB (8,192
/// socket ends, per-connection queues and reader buffers, one shared
/// broadcast frame); the ceiling fails if per-connection state starts
/// scaling with the payload or threads reappear with their stacks.
const RSS_CEILING_BYTES: u64 = 128 * 1024 * 1024;
/// Ceiling on the 4,096-connection leg's registration growth: the median
/// time of registrations 3,072–4,095 over that of 0–1,023. Ten release runs
/// of the `epoll` reactor read 0.80–1.26 on a 2-vCPU x86-64 VM; the
/// `poll(2)` reactor before it, whose every wait re-armed the whole table,
/// read 8.6–11.2.
const MAX_REGISTRATION_GROWTH: f64 = 2.0;

/// The run configuration frame for a `conns`-connection leg; its encoded
/// length is also the per-connection `Welcome` charge of the ledger.
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

/// One leg: bind the reactor server, register `conns` blocking client
/// connections from a single driver thread, run [`ROUNDS`] broadcast → echo
/// rounds, reconcile the byte ledger and the reactor's counters. Returns the
/// thread census taken once every connection is registered and the
/// registration growth (last quarter's median over the first quarter's).
fn run_leg(conns: usize) -> (u64, f64) {
    // Both socket ends live in this process: 2 descriptors per connection
    // plus listener, wake pipes and the standard streams.
    let want_fds = conns as u64 * 2 + 64;
    if let Some(limit) = mem::raise_fd_limit(want_fds) {
        assert!(
            limit >= want_fds,
            "need {want_fds} descriptors for {conns} connections, hard limit allows {limit}"
        );
    }
    let welcome = welcome_for(conns);
    let endpoint = Endpoint::parse("tcp://127.0.0.1:0").expect("endpoint");
    let mut transport = SocketTransport::bind(&endpoint, &welcome).expect("bind");
    transport.set_recv_timeout(Duration::from_secs(120));
    let actual = transport.local_endpoint().clone();

    // ONE thread drives every client end: any per-connection thread in the
    // process would belong to the server and trip the census.
    let driver = std::thread::Builder::new()
        .name("echo-driver".into())
        .spawn(move || {
            let mut clients = Vec::with_capacity(conns);
            let mut registrations = Vec::with_capacity(conns);
            for id in 0..conns {
                let t = Instant::now();
                let mut c =
                    ClientConn::connect_with_backoff(&actual, 20, Duration::from_millis(10))
                        .expect("connect");
                c.hello(id as u32, SEED).expect("register");
                registrations.push(t.elapsed());
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
            registrations
        })
        .expect("spawn driver");

    transport
        .wait_for_clients(Duration::from_secs(60))
        .expect("registration");
    // Steady state: harness + driver + the reactor's thread, all up.
    let threads = mem::thread_count();

    let params: Vec<f32> = (0..DIM).map(|i| (i as f32) * 0.5 - 3.0).collect();
    let all: Vec<usize> = (0..conns).collect();
    for round in 0..ROUNDS {
        transport.begin_round(round as u64);
        let bd = transport.broadcast(MsgKind::ModelDown, &all, &params);
        assert!(
            bd.links.iter().all(|l| l.delivered),
            "{conns} connections, round {round}: broadcast dropped a connection"
        );
        for &k in &all {
            let d = transport.recv(MsgKind::ModelUp, k);
            assert_eq!(
                d.data.as_deref(),
                Some(&params[..]),
                "{conns} connections, round {round}: upload from connection {k} lost or corrupt"
            );
        }
    }
    transport.shutdown();
    let registrations = driver.join().expect("driver");
    let quarter = conns / 4;
    let growth = median(&registrations[conns - quarter..]).as_secs_f64()
        / median(&registrations[..quarter]).as_secs_f64();
    let stats = transport.stats();

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
    // Handshake pairs + (one encode-once broadcast record + n uploads) per
    // round + n shutdown frames.
    let expected = (
        n * hello_len + r * n * payload_len,
        n * welcome_len + r * n * payload_len + n * shutdown_len,
        2 * n + r * (1 + n) + n,
    );
    assert_eq!(
        (
            stats.upload_bytes(),
            stats.download_bytes(),
            stats.messages()
        ),
        expected,
        "{conns} connections: (upload bytes, download bytes, messages) left the closed form"
    );

    // The net layer's half of the reconciliation: what the reactor read and
    // wrote is what the ledger was charged, handshakes and shutdowns
    // included.
    let c = transport.reactor_counters();
    assert_eq!(
        (c.bytes_in, c.bytes_out, c.handshakes),
        (stats.upload_bytes(), stats.download_bytes(), n),
        "{conns} connections: the reactor's (bytes in, bytes out, handshakes) left the ledger"
    );
    assert_eq!(c.frames_in, n + r * n, "{conns} connections: frames in");
    // One read per frame when the frame is there in one piece; a handshake
    // may add the speculative read that found nothing, and a connection its
    // EOF. The loop this one replaced made three reads per frame.
    assert!(
        2 * c.reads <= 3 * c.frames_in + 4 * c.handshakes,
        "{conns} connections: {} reads for {} frames and {} handshakes",
        c.reads,
        c.frames_in,
        c.handshakes
    );
    // Welcome, a broadcast per round, shutdown.
    let frames_out = n * (r + 2);
    println!(
        "{conns} connections: {:.2} ready per wakeup ({} / {}), {:.2} flushes per frame out \
         ({} / {frames_out}), {:.2} reads per frame in, {} writevs, {} wake writes, \
         registration growth {growth:.2}",
        c.ready as f64 / c.wakeups as f64,
        c.ready,
        c.wakeups,
        c.flushes as f64 / frames_out as f64,
        c.flushes,
        c.reads as f64 / c.frames_in as f64,
        c.writevs,
        c.wake_writes,
    );
    (threads, growth)
}

fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

#[test]
fn thread_count_and_ledger_hold_from_64_to_4096_connections() {
    // No server is bound yet, and each leg joins what it started.
    let before = mem::thread_count();
    let (small, _) = run_leg(64);
    let (large, growth) = run_leg(4096);
    // Past the driver, registration started exactly one thread: the
    // reactor's, at 64 connections and at 4,096.
    for (conns, threads) in [(64, small), (4096, large)] {
        assert_eq!(
            threads,
            before + 2,
            "{conns} connections: {threads} threads after registration, {before} before bind; \
             the driver and one reactor thread account for 2"
        );
    }
    assert!(
        large <= MAX_THREADS,
        "{large} threads, above the {MAX_THREADS}-thread budget"
    );
    assert!(
        growth <= MAX_REGISTRATION_GROWTH,
        "4096 connections: the last 1024 registrations' median took {growth:.2}× the first \
         1024's, above {MAX_REGISTRATION_GROWTH}"
    );
    let peak = mem::peak_rss_bytes();
    assert!(
        peak <= RSS_CEILING_BYTES,
        "process peaked at {peak} resident bytes after the 4096-connection leg, \
         above the ceiling of {RSS_CEILING_BYTES}"
    );
    println!(
        "{before} threads before bind, {large} at 64 and at 4096 connections; peak RSS {peak} bytes"
    );
}
