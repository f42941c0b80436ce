//! Socket-transport integration tests: the canonical round loop over real
//! loopback sockets (TCP and Unix-domain) must be *bit-exact* against the
//! in-process `PerfectTransport` oracle, and churn — graceful departures
//! and hard mid-round kills — must degrade exactly like the in-memory
//! fault model's deterministic drops.
//!
//! These run server and clients as threads inside one process (the CI
//! `distributed-smoke` job repeats the same contract with real separate
//! processes); the protocol, framing, and state machine are the same.

use rfl_core::canonical;
use rfl_core::comm::{
    run_client_loop, BroadcastDelivery, ClientConn, ClientLoopOpts, ClientOutcome, CommStats,
    ControlMsg, Delivery, DropReason, Endpoint, FaultStats, LinkOutcome, MsgKind, PerfectTransport,
    SocketTransport, Transport,
};
use rfl_core::compress::{CompressedVec, Compression};
use rfl_core::{Algorithm, Federation, History, Trainer};
use std::time::Duration;

type MakeAlgo = fn() -> Box<dyn Algorithm>;

/// The canonical run's algorithm (what [`canonical::run`] hard-codes).
fn canonical_algo() -> Box<dyn Algorithm> {
    Box::new(rfl_core::algorithms::RFedAvgPlus::new(canonical::LAMBDA))
}

fn welcome(seed: u64, rounds: usize, compression: Compression) -> ControlMsg {
    let cfg = canonical::config(seed, rounds);
    ControlMsg::Welcome {
        num_clients: canonical::NUM_CLIENTS as u32,
        rounds: rounds as u32,
        local_steps: cfg.local_steps as u32,
        batch_size: cfg.batch_size as u32,
        probe_batch: cfg.probe_batch() as u32,
        lambda: canonical::LAMBDA,
        lr: canonical::LR,
        clip_grad_norm: cfg.clip_grad_norm.unwrap_or(f32::NAN),
        seed,
        compression,
    }
}

/// Runs a well-behaved canonical client against `endpoint` until shutdown.
/// The upload-compression policy is taken from the Welcome, exactly like
/// the real `rfl-client` binary.
fn client_thread(endpoint: Endpoint, k: usize, seed: u64, opts: ClientLoopOpts) -> ClientOutcome {
    let mut conn = ClientConn::connect_with_backoff(&endpoint, 40, Duration::from_millis(25))
        .expect("client connect");
    let w = conn.hello(k as u32, seed).expect("hello");
    let ControlMsg::Welcome {
        rounds,
        lambda,
        compression,
        ..
    } = w
    else {
        panic!("expected welcome");
    };
    let opts = ClientLoopOpts {
        compression,
        ..opts
    };
    let cfg = canonical::config(seed, rounds as usize);
    let data = canonical::data(seed);
    let mut client = canonical::client(k, &data, &cfg, seed);
    run_client_loop(&mut conn, &mut client, lambda, &opts)
}

/// Full server run over `endpoint`: binds, waits for the cohort, runs the
/// canonical loop in remote mode, returns (history, global, faults).
fn server_run(
    endpoint: &Endpoint,
    seed: u64,
    rounds: usize,
    recv_timeout: Duration,
    compression: Compression,
) -> (SocketHandle, Endpoint) {
    server_run_with(
        endpoint,
        seed,
        rounds,
        recv_timeout,
        compression,
        canonical_algo,
    )
}

/// [`server_run`] driving any algorithm over the canonical cohort.
fn server_run_with(
    endpoint: &Endpoint,
    seed: u64,
    rounds: usize,
    recv_timeout: Duration,
    compression: Compression,
    make: MakeAlgo,
) -> (SocketHandle, Endpoint) {
    let mut transport =
        SocketTransport::bind(endpoint, &welcome(seed, rounds, compression)).expect("bind server");
    transport.set_recv_timeout(recv_timeout);
    let actual = transport.local_endpoint().clone();
    let handle = std::thread::spawn(move || {
        transport
            .wait_for_clients(Duration::from_secs(30))
            .expect("clients register");
        let data = canonical::data(seed);
        let mut cfg = canonical::config(seed, rounds);
        cfg.compression = compression;
        let mut fed =
            Federation::remote(&data, canonical::model(), &cfg, seed, Box::new(transport));
        let history = Trainer::new(canonical::config(seed, rounds)).run(make().as_mut(), &mut fed);
        let faults = fed.fault_stats();
        let stats = fed.comm_stats().clone();
        let global = fed.global().to_vec();
        fed.shutdown_remote();
        (history, global, faults, stats)
    });
    (handle, actual)
}

type SocketHandle = std::thread::JoinHandle<(History, Vec<f32>, FaultStats, CommStats)>;

/// The in-process oracle on the perfect transport.
fn oracle(seed: u64, rounds: usize, compression: Compression) -> (History, Vec<f32>) {
    oracle_with(seed, rounds, compression, canonical_algo)
}

fn oracle_with(
    seed: u64,
    rounds: usize,
    compression: Compression,
    make: MakeAlgo,
) -> (History, Vec<f32>) {
    let data = canonical::data(seed);
    let mut cfg = canonical::config(seed, rounds);
    cfg.compression = compression;
    let mut fed = Federation::new(
        &data,
        canonical::model(),
        canonical::optimizer(),
        &cfg,
        seed,
    );
    let h = Trainer::new(canonical::config(seed, rounds)).run(make().as_mut(), &mut fed);
    let g = fed.global().to_vec();
    (h, g)
}

fn loss_bits(h: &History) -> Vec<u32> {
    h.records().iter().map(|r| r.train_loss.to_bits()).collect()
}

/// FNV-1a over the bit patterns (the fingerprint `transport_equiv.rs`'s
/// parity table uses).
fn bit_hash(v: &[f32]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// The loopback column of the parity table: the algorithms the socket
/// back-end serves, dense and `quantize:8`, recorded on the commit before
/// the round driver existed — the final global's bit hash and the server's
/// whole byte ledger (handshakes included, taken before shutdown).
const LOOPBACK_PARITY: &[(&str, &str)] = &[
    (
        "FedAvg/dense",
        "global=c6054e5e6d6f41c8 down=587540 up=587404 ddown=0 dup=0 msgs=34",
    ),
    (
        "FedAvg/q8",
        "global=016aede39835f989 down=587540 up=147260 ddown=0 dup=0 msgs=34",
    ),
    (
        "FedAvgM/dense",
        "global=2c571cd84c223da0 down=587540 up=587404 ddown=0 dup=0 msgs=34",
    ),
    (
        "FedAvgM/q8",
        "global=1858066ae082a83f down=587540 up=147260 ddown=0 dup=0 msgs=34",
    ),
    (
        "rFedAvg+/dense",
        "global=0a77d744426f92c7 down=1175880 up=589524 ddown=1060 dup=2120 msgs=56",
    ),
    (
        "rFedAvg+/q8",
        "global=5b86a7ee130d9eb2 down=1175880 up=148004 ddown=1060 dup=744 msgs=56",
    ),
];

/// Every cell the socket back-end serves lands on the in-process oracle bit
/// for bit — per-round losses and final parameters — and on the literals
/// of [`LOOPBACK_PARITY`].
#[test]
fn loopback_column_matches_the_in_process_oracle_and_the_recorded_table() {
    let algos: [(&str, MakeAlgo); 3] = [
        ("FedAvg", || Box::new(rfl_core::algorithms::FedAvg::new())),
        ("FedAvgM", || {
            Box::new(rfl_core::algorithms::FedAvgM::new(0.7))
        }),
        ("rFedAvg+", canonical_algo),
    ];
    let policies = [
        ("dense", Compression::None),
        ("q8", Compression::Quantize { bits: 8 }),
    ];
    let (seed, rounds) = (canonical::SEED, canonical::ROUNDS);
    let mut actual = Vec::new();
    for (name, make) in algos {
        for (tag, policy) in policies {
            let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
            let (server, at) = server_run_with(
                &endpoint,
                seed,
                rounds,
                Duration::from_secs(60),
                policy,
                make,
            );
            let clients: Vec<_> = (0..canonical::NUM_CLIENTS)
                .map(|k| {
                    let ep = at.clone();
                    std::thread::spawn(move || {
                        client_thread(ep, k, seed, ClientLoopOpts::default())
                    })
                })
                .collect();
            let (history, global, faults, s) = server.join().expect("server thread");
            for c in clients {
                assert!(matches!(c.join().expect("client"), ClientOutcome::Shutdown));
            }
            let (oracle_h, oracle_g) = oracle_with(seed, rounds, policy, make);
            let cell = format!("{name}/{tag}");
            assert_eq!(loss_bits(&history), loss_bits(&oracle_h), "{cell}: losses");
            assert_eq!(global, oracle_g, "{cell}: global parameters");
            assert_eq!(faults, FaultStats::default(), "{cell}: faults");
            actual.push((
                cell,
                format!(
                    "global={:016x} down={} up={} ddown={} dup={} msgs={}",
                    bit_hash(&global),
                    s.download_bytes(),
                    s.upload_bytes(),
                    s.delta_download_bytes(),
                    s.delta_upload_bytes(),
                    s.messages(),
                ),
            ));
        }
    }
    let expected: Vec<(String, String)> = LOOPBACK_PARITY
        .iter()
        .map(|&(c, r)| (c.to_string(), r.to_string()))
        .collect();
    let render: String = actual
        .iter()
        .map(|(c, r)| format!("    ({c:?}, {r:?}),\n"))
        .collect();
    assert!(
        actual == expected,
        "loopback parity moved; this run reads:\n{render}"
    );
}

fn socket_run_matches_oracle(endpoint: &Endpoint) {
    let (seed, rounds) = (canonical::SEED, canonical::ROUNDS);
    let (server, actual) = server_run(
        endpoint,
        seed,
        rounds,
        Duration::from_secs(60),
        Compression::None,
    );
    let clients: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = actual.clone();
            std::thread::spawn(move || client_thread(ep, k, seed, ClientLoopOpts::default()))
        })
        .collect();
    let (history, global, faults, stats) = server.join().expect("server thread");
    for c in clients {
        assert!(matches!(c.join().expect("client"), ClientOutcome::Shutdown));
    }
    let (oracle_h, oracle_g) = oracle(seed, rounds, Compression::None);

    // The non-negotiable contract: bit-exact losses and parameters.
    let socket_losses: Vec<u32> = history
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    let oracle_losses: Vec<u32> = oracle_h
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    assert_eq!(socket_losses, oracle_losses, "per-round loss diverged");
    assert_eq!(global, oracle_g, "global parameters diverged");
    let final_loss = history.records().last().unwrap().train_loss as f64;
    assert!(
        canonical::loss_matches_pin(final_loss),
        "socket run missed the pin: {final_loss:.9}"
    );
    assert_eq!(faults, FaultStats::default(), "clean run reported faults");
    // Real wire bytes were metered (handshakes + frames), never zero.
    assert!(stats.total_bytes() > 0 && stats.messages() > 0);
}

#[test]
fn loopback_tcp_is_bit_exact_against_perfect_transport() {
    socket_run_matches_oracle(&Endpoint::Tcp("127.0.0.1:0".to_string()));
}

#[cfg(unix)]
#[test]
fn loopback_unix_socket_is_bit_exact_against_perfect_transport() {
    let path = std::env::temp_dir().join(format!("rfl-test-{}.sock", std::process::id()));
    socket_run_matches_oracle(&Endpoint::Unix(path.clone()));
    let _ = std::fs::remove_file(path);
}

/// The tentpole contract for compressed communication: with a lossy upload
/// policy in force, a run whose compressed frames actually cross a loopback
/// socket reproduces the in-process compressed run bit-for-bit — losses,
/// parameters, and the error-feedback residual evolution behind them.
fn compressed_socket_matches_in_process(policy: Compression) {
    let (seed, rounds) = (canonical::SEED, canonical::ROUNDS);
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let (server, actual) = server_run(&endpoint, seed, rounds, Duration::from_secs(60), policy);
    let clients: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = actual.clone();
            // The policy is deliberately NOT passed here — the client must
            // learn it from the Welcome, like the production binary.
            std::thread::spawn(move || client_thread(ep, k, seed, ClientLoopOpts::default()))
        })
        .collect();
    let (history, global, faults, stats) = server.join().expect("server thread");
    for c in clients {
        assert!(matches!(c.join().expect("client"), ClientOutcome::Shutdown));
    }
    let (oracle_h, oracle_g) = oracle(seed, rounds, policy);
    let socket_losses: Vec<u32> = history
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    let oracle_losses: Vec<u32> = oracle_h
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    assert_eq!(
        socket_losses, oracle_losses,
        "compressed per-round loss diverged"
    );
    assert_eq!(global, oracle_g, "compressed global parameters diverged");
    assert_eq!(faults, FaultStats::default(), "clean run reported faults");
    assert!(stats.total_bytes() > 0 && stats.messages() > 0);
    // Compression must actually shrink the wire: the same round count over
    // the same socket with dense uploads costs strictly more bytes.
    let (dense_server, dense_actual) = server_run(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        seed,
        rounds,
        Duration::from_secs(60),
        Compression::None,
    );
    let dense_clients: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = dense_actual.clone();
            std::thread::spawn(move || client_thread(ep, k, seed, ClientLoopOpts::default()))
        })
        .collect();
    let (_, _, _, dense_stats) = dense_server.join().expect("dense server thread");
    for c in dense_clients {
        assert!(matches!(c.join().expect("client"), ClientOutcome::Shutdown));
    }
    assert!(
        stats.total_bytes() < dense_stats.total_bytes(),
        "compressed run ({} B) not smaller than dense ({} B)",
        stats.total_bytes(),
        dense_stats.total_bytes()
    );
}

#[test]
fn compressed_uploads_over_tcp_are_bit_exact_against_in_process() {
    compressed_socket_matches_in_process(Compression::Quantize { bits: 8 });
}

#[test]
fn adaptive_compressed_uploads_over_tcp_are_bit_exact_against_in_process() {
    compressed_socket_matches_in_process(Compression::Adaptive { max_bits: 8 });
}

/// The deterministic churn oracle: a perfect transport that drops the
/// victim's traffic from a chosen point on — exactly what a departed
/// socket client looks like to the server.
struct VictimDrops {
    inner: PerfectTransport,
    victim: usize,
    /// Round of the departure.
    round_of_loss: u64,
    /// Message kinds of `round_of_loss` that already miss the victim
    /// (later rounds drop everything on its links).
    lost_kinds: Vec<MsgKind>,
    /// Downward broadcasts of `round_of_loss` that still reach the victim
    /// (the first is the pre-training sync; a graceful leaver also gets
    /// the resync, a killed one does not).
    delivered_broadcasts: u32,
    round: u64,
    bcasts_this_round: u32,
    dropped: u64,
}

impl VictimDrops {
    fn lost(&self, kind: MsgKind, client: usize) -> bool {
        client == self.victim
            && (self.round > self.round_of_loss
                || (self.round == self.round_of_loss && self.lost_kinds.contains(&kind)))
    }
}

impl Transport for VictimDrops {
    fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.bcasts_this_round = 0;
        self.inner.begin_round(round);
    }

    fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
        let mut d = self.inner.send(kind, client, payload);
        if self.lost(kind, client) {
            self.dropped += 1;
            d.data = None;
            d.reason = Some(DropReason::Loss);
        }
        d
    }

    fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        let mut bd = self.inner.broadcast(kind, clients, payload);
        let gone = self.round > self.round_of_loss
            || (self.round == self.round_of_loss
                && self.bcasts_this_round >= self.delivered_broadcasts);
        self.bcasts_this_round += 1;
        if gone {
            if let Some(i) = clients.iter().position(|&c| c == self.victim) {
                self.dropped += 1;
                bd.links[i] = LinkOutcome {
                    delivered: false,
                    attempts: 1,
                    reason: Some(DropReason::Loss),
                };
            }
        }
        bd
    }

    fn send_compressed(
        &mut self,
        kind: MsgKind,
        client: usize,
        payload: &CompressedVec,
        out: &mut CompressedVec,
    ) -> LinkOutcome {
        let mut link = self.inner.send_compressed(kind, client, payload, out);
        if self.lost(kind, client) {
            self.dropped += 1;
            link.delivered = false;
            link.reason = Some(DropReason::Loss);
        }
        link
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped,
            ..FaultStats::default()
        }
    }
}

fn churn_oracle(
    seed: u64,
    rounds: usize,
    victim: usize,
    round_of_loss: u64,
    lost_kinds: Vec<MsgKind>,
    delivered_broadcasts: u32,
) -> (History, Vec<f32>) {
    let data = canonical::data(seed);
    let cfg = canonical::config(seed, rounds);
    let mut fed = Federation::new(
        &data,
        canonical::model(),
        canonical::optimizer(),
        &cfg,
        seed,
    );
    fed.set_transport(Box::new(VictimDrops {
        inner: PerfectTransport::new(),
        victim,
        round_of_loss,
        lost_kinds,
        delivered_broadcasts,
        round: 0,
        bcasts_this_round: 0,
        dropped: 0,
    }));
    let h = canonical::run(&mut fed, seed, rounds);
    let g = fed.global().to_vec();
    (h, g)
}

#[test]
fn graceful_mid_round_departure_matches_deterministic_drops_bit_exactly() {
    // Client 2 answers round 0's δ probe with a goodbye: its round-0
    // training and upload still count, its δ never arrives, and from
    // round 1 it is a dead link. The in-memory oracle drops exactly that
    // message set — losses and parameters must agree bit-for-bit.
    let (seed, rounds, victim) = (canonical::SEED, canonical::ROUNDS, 2usize);
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let (server, actual) = server_run(
        &endpoint,
        seed,
        rounds,
        Duration::from_secs(60),
        Compression::None,
    );
    let clients: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = actual.clone();
            let opts = ClientLoopOpts {
                leave_after_round: (k == victim).then_some(0),
                ..ClientLoopOpts::default()
            };
            std::thread::spawn(move || client_thread(ep, k, seed, opts))
        })
        .collect();
    let (history, global, faults, _) = server.join().expect("server thread");
    for (k, c) in clients.into_iter().enumerate() {
        let outcome = c.join().expect("client");
        if k == victim {
            assert!(matches!(outcome, ClientOutcome::Left), "victim outcome");
        } else {
            assert!(matches!(outcome, ClientOutcome::Shutdown));
        }
    }
    // Graceful leave: both round-0 broadcasts reached the victim; only its
    // δ upload is missing, then everything from round 1.
    let (oracle_h, oracle_g) = churn_oracle(seed, rounds, victim, 0, vec![MsgKind::DeltaUp], 2);
    let a: Vec<u32> = history
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    let b: Vec<u32> = oracle_h
        .records()
        .iter()
        .map(|r| r.train_loss.to_bits())
        .collect();
    assert_eq!(a, b, "churn losses diverged from the drop oracle");
    assert_eq!(global, oracle_g, "churn parameters diverged");
    assert!(faults.dropped > 0, "the departure must surface as drops");
}

#[test]
fn hard_mid_round_kill_renormalizes_over_survivors() {
    // Client 1 dies the moment training starts in round 0 — no report, no
    // upload, no goodbye. The server must stay live, renormalize round 0
    // over the survivors, exclude the corpse from round 1, and produce the
    // same *global parameters* as the in-memory oracle dropping the same
    // message set. Round 0's loss is the mean over the clients that
    // reported, weights renormalized over them — the victim's missing
    // report is not a loss of 0.0. (The oracle's own history still differs
    // there: the simulation sees the dead client's local report, a real
    // server cannot.)
    let (seed, rounds, victim) = (canonical::SEED, canonical::ROUNDS, 1usize);
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let (server, actual) = server_run(
        &endpoint,
        seed,
        rounds,
        Duration::from_secs(30),
        Compression::None,
    );
    let mut threads = Vec::new();
    for k in 0..canonical::NUM_CLIENTS {
        let ep = actual.clone();
        if k == victim {
            threads.push(std::thread::spawn(move || {
                let mut conn = ClientConn::connect_with_backoff(&ep, 40, Duration::from_millis(25))
                    .expect("victim connect");
                conn.hello(victim as u32, seed).expect("victim hello");
                // Participate right up to the kill: install the broadcast,
                // then die on the training order.
                loop {
                    match conn.read_event().expect("victim read") {
                        rfl_core::comm::ClientEvent::Control(ControlMsg::TrainStart { .. }) => {
                            return ClientOutcome::Left
                        } // dropping conn = the kill
                        _ => continue,
                    }
                }
            }));
        } else {
            threads.push(std::thread::spawn(move || {
                client_thread(ep, k, seed, ClientLoopOpts::default())
            }));
        }
    }
    let (history, global, faults, _) = server.join().expect("server survived the kill");
    for (k, t) in threads.into_iter().enumerate() {
        let outcome = t.join().expect("client");
        if k != victim {
            assert!(matches!(outcome, ClientOutcome::Shutdown));
        }
    }
    assert_eq!(history.records().len(), rounds, "all rounds completed");
    assert!(faults.dropped > 0, "the kill must surface as drops");
    // Only the pre-training broadcast of round 0 reached the victim; its
    // report, upload, resync, and δ all went missing.
    let (_, oracle_g) = churn_oracle(
        seed,
        rounds,
        victim,
        0,
        vec![MsgKind::ModelUp, MsgKind::DeltaUp],
        1,
    );
    assert_eq!(
        global, oracle_g,
        "survivor aggregation diverged from the drop oracle"
    );

    // The drop oracle's per-client round-0 reports: every client trains
    // plain SGD from the initial global (no δ target exists yet), so an
    // in-process replica of the cohort yields exactly what each survivor
    // reported over the wire.
    let data = canonical::data(seed);
    let cfg = canonical::config(seed, rounds);
    let mut fed = Federation::new(
        &data,
        canonical::model(),
        canonical::optimizer(),
        &cfg,
        seed,
    );
    let all: Vec<usize> = (0..canonical::NUM_CLIENTS).collect();
    fed.begin_round(0);
    fed.broadcast_params(&all);
    let rules = vec![rfl_core::LocalRule::Plain; all.len()];
    let reports = fed.train_selected(&all, &rules, cfg.local_steps);
    let survivors: Vec<usize> = all.iter().copied().filter(|&k| k != victim).collect();
    let weights = rfl_core::sampling::renormalized_weights(fed.weights(), &survivors);
    let expected = survivors.iter().zip(weights).fold(0.0f32, |sum, (&k, w)| {
        sum + w * reports[k].expect("in-process clients report").loss
    });
    assert_eq!(
        history.records()[0].train_loss.to_bits(),
        expected.to_bits(),
        "round 0's loss is not the survivors' renormalized mean"
    );
}

#[test]
fn reconnect_replaces_the_session_and_counts_as_a_retry() {
    let seed = canonical::SEED;
    let transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let ep = transport.local_endpoint().clone();
    let mut first = ClientConn::connect(&ep).expect("first connect");
    first.hello(0, seed).expect("first hello");
    let mut second = ClientConn::connect(&ep).expect("second connect");
    second.hello(0, seed).expect("second hello");
    // The reconnect lands asynchronously in the accept thread; the retry
    // must appear in the standard FaultStats (→ History/CSV `retries`
    // column), not in some side channel.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while transport.fault_stats().retries == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "reconnect never counted as a retry"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(transport.fault_stats().retries, 1);
    assert_eq!(transport.live_clients(), 1, "one live session for the id");
    // The superseded link is dead: the first connection sees EOF.
    assert!(first.read_event().is_err(), "stale session must be closed");
}

/// Fails a wait on the reactor instead of hanging the test.
const PATIENCE: Duration = Duration::from_secs(30);

fn registered(ep: &Endpoint, id: usize, seed: u64) -> ClientConn {
    let mut conn = ClientConn::connect(ep).expect("connect");
    conn.hello(id as u32, seed).expect("hello");
    conn
}

/// Runs `wait_for_clients(PATIENCE)` beside `then` (which starts once the
/// waiter is about to wait) and requires that it was *released* — by the
/// reactor's notification or by finding the cohort already complete — not
/// let go by its own timeout's re-check.
fn released_by<T>(transport: &SocketTransport, then: impl FnOnce() -> T) -> T {
    std::thread::scope(|s| {
        let (entering, entered) = std::sync::mpsc::channel();
        let waiter = s.spawn(move || {
            let t0 = std::time::Instant::now();
            entering.send(()).expect("main is waiting");
            transport.wait_for_clients(PATIENCE).map(|()| t0.elapsed())
        });
        entered.recv().expect("waiter started");
        // Give the waiter its chance to block first; either order must pass.
        for _ in 0..1_000 {
            std::thread::yield_now();
        }
        let kept = then();
        let waited = waiter.join().expect("waiter").expect("cohort complete");
        assert!(waited < PATIENCE / 2, "released by its timeout: {waited:?}");
        kept
    })
}

#[test]
fn the_last_registration_releases_the_waiter() {
    let seed = canonical::SEED;
    let transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let ep = transport.local_endpoint().clone();
    let mut conns: Vec<ClientConn> = (1..canonical::NUM_CLIENTS)
        .map(|id| registered(&ep, id, seed))
        .collect();
    // All but one: nothing to report yet, and the error says how far it got.
    let err = transport.wait_for_clients(Duration::ZERO).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(err.to_string().starts_with("3/4 "), "{err}");
    conns.push(released_by(&transport, || registered(&ep, 0, seed)));
    assert_eq!(transport.live_clients(), canonical::NUM_CLIENTS);
}

#[test]
fn a_reconnect_into_a_full_table_releases_a_blocked_waiter() {
    let seed = canonical::SEED;
    let transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let ep = transport.local_endpoint().clone();
    let mut conns: Vec<ClientConn> = (0..canonical::NUM_CLIENTS)
        .map(|id| registered(&ep, id, seed))
        .collect();
    transport.wait_for_clients(PATIENCE).expect("full cohort");
    // Client 2 dies: its session drains but keeps its slot, so the table is
    // full and one short.
    drop(conns.remove(2));
    let deadline = std::time::Instant::now() + PATIENCE;
    while transport.live_clients() == canonical::NUM_CLIENTS {
        assert!(
            std::time::Instant::now() < deadline,
            "the reactor never noticed the dead link"
        );
        std::thread::yield_now();
    }
    assert!(transport.wait_for_clients(Duration::ZERO).is_err());
    conns.push(released_by(&transport, || registered(&ep, 2, seed)));
    assert_eq!(transport.live_clients(), canonical::NUM_CLIENTS);
    assert_eq!(transport.fault_stats().retries, 1);
}

#[test]
fn handshake_rejects_wrong_seed_and_bad_id() {
    let seed = canonical::SEED;
    let transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let ep = transport.local_endpoint().clone();
    // Wrong seed: the server must refuse instead of silently diverging.
    let mut c = ClientConn::connect(&ep).expect("connect");
    assert!(c.hello(0, seed ^ 1).is_err(), "seed mismatch accepted");
    // Out-of-range id.
    let mut c = ClientConn::connect(&ep).expect("connect");
    assert!(
        c.hello(canonical::NUM_CLIENTS as u32, seed).is_err(),
        "bad id accepted"
    );
    // A valid registration still works afterwards.
    let mut c = ClientConn::connect(&ep).expect("connect");
    let w = c.hello(0, seed).expect("valid hello");
    assert!(matches!(w, ControlMsg::Welcome { .. }));
    assert_eq!(transport.live_clients(), 1);
}

/// A report body that does not decode drops its client like any other
/// undecodable frame: counted as a loss, charged nothing, and the session
/// closed so the client's upload claim resolves as a loss at once — even
/// when the upload, written right behind the report as a real client does,
/// is already queued.
#[test]
fn a_garbled_report_drops_its_client() {
    use rfl_core::comm::{
        encode_frame, read_frame, write_frame, RemoteTransport, PROTO_MAGIC, PROTO_VERSION,
    };
    use std::io::Write;
    let seed = canonical::SEED;
    let mut transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let timeout = Duration::from_secs(20);
    transport.set_recv_timeout(timeout);
    let Endpoint::Tcp(addr) = transport.local_endpoint().clone() else {
        unreachable!("bound over TCP")
    };
    let client = std::thread::spawn(move || {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        let mut body = Vec::new();
        let hello = ControlMsg::Hello {
            magic: PROTO_MAGIC,
            version: PROTO_VERSION,
            client_id: 0,
            seed,
        };
        hello.encode_body(&mut body);
        write_frame(&mut raw, hello.tag(), &body).expect("hello");
        let (tag, _) = read_frame(&mut raw).expect("welcome");
        assert_eq!(tag, welcome(seed, 1, Compression::None).tag());
        let (tag, _) = read_frame(&mut raw).expect("train start");
        assert_eq!(tag, ControlMsg::TrainStart { round: 0, steps: 1 }.tag());
        let report = ControlMsg::Report {
            loss: 0.5,
            reg_loss: 0.0,
            steps: 1,
            examples: 8,
        };
        body.clear();
        report.encode_body(&mut body);
        body.truncate(body.len() - 3);
        // The garbled report and a well-formed upload in one write.
        let mut upload = Vec::new();
        rfl_tensor::encode_f32_into(&mut upload, &[0.25; 4]);
        let mut frames = encode_frame(report.tag(), &body).to_vec();
        frames.extend_from_slice(&encode_frame(MsgKind::ModelUp.tag(), &upload));
        raw.write_all(&frames).expect("report and upload");
        // Hold the link open: only the server may close it.
        let _ = read_frame(&mut raw);
    });
    let deadline = std::time::Instant::now() + PATIENCE;
    while transport.live_clients() == 0 {
        assert!(std::time::Instant::now() < deadline, "never registered");
        std::thread::yield_now();
    }
    let frames_in = transport.reactor_counters().frames_in;
    assert!(transport.start_training(0, 0, 1).delivered);
    // Let both frames land in the session before the report is claimed.
    while transport.reactor_counters().frames_in < frames_in + 2 {
        assert!(std::time::Instant::now() < deadline, "frames never arrived");
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    let (dropped, ledger) = (transport.fault_stats().dropped, transport.stats().clone());
    assert!(
        transport.recv_report(0).is_none(),
        "a garbled report decoded"
    );
    assert_eq!(transport.fault_stats().dropped, dropped + 1, "not counted");
    assert_eq!(
        (
            transport.stats().total_bytes(),
            transport.stats().messages()
        ),
        (ledger.total_bytes(), ledger.messages()),
        "an undecodable report was charged"
    );
    let t0 = std::time::Instant::now();
    let upload = transport.recv(MsgKind::ModelUp, 0);
    assert_eq!(upload.reason, Some(DropReason::Loss));
    assert!(t0.elapsed() < timeout / 4, "waited {:?}", t0.elapsed());
    client.join().expect("client");
}

/// A canonical client `k` that speaks the protocol by hand: registers,
/// then hands every frame the server sends (its tag and body) to `answer`,
/// with the link to reply on, until `Shutdown`.
fn raw_client(
    ep: Endpoint,
    k: usize,
    seed: u64,
    mut answer: impl FnMut(u8, &[u8], &mut std::net::TcpStream),
) -> ClientOutcome {
    use rfl_core::comm::{read_frame, write_frame, PROTO_MAGIC, PROTO_VERSION};
    let Endpoint::Tcp(addr) = ep else {
        unreachable!("bound over TCP")
    };
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let mut body = Vec::new();
    let hello = ControlMsg::Hello {
        magic: PROTO_MAGIC,
        version: PROTO_VERSION,
        client_id: k as u32,
        seed,
    };
    hello.encode_body(&mut body);
    write_frame(&mut raw, hello.tag(), &body).expect("hello");
    loop {
        let (tag, body) = read_frame(&mut raw).expect("server frame");
        if tag == ControlMsg::Shutdown.tag() {
            return ClientOutcome::Shutdown;
        }
        answer(tag, &body, &mut raw);
    }
}

/// Writes `msg` on a raw client's link.
fn write_control(raw: &mut std::net::TcpStream, msg: &ControlMsg) {
    let mut body = Vec::new();
    msg.encode_body(&mut body);
    rfl_core::comm::write_frame(raw, msg.tag(), &body).expect("control frame");
}

/// Writes `payload` on a raw client's link as a `kind` frame.
fn write_compressed(raw: &mut std::net::TcpStream, kind: MsgKind, payload: &CompressedVec) {
    let mut body = Vec::new();
    payload.encode_into(&mut body);
    rfl_core::comm::write_frame(raw, kind.tag(), &body).expect("compressed frame");
}

/// The report a raw client answers `TrainStart` with.
const REPORT: ControlMsg = ControlMsg::Report {
    loss: 0.5,
    reg_loss: 0.0,
    steps: 1,
    examples: 8,
};

/// A compressed payload that frames correctly but whose `quantize:8` codes
/// are far short of the canonical model's (or δ map's) dimension.
fn short_payload() -> CompressedVec {
    CompressedVec {
        words_u32: Vec::new(),
        words_f32: vec![-1.0, 1.0, 255.0],
        bytes: vec![0; 3],
    }
}

/// A compressed upload that frames correctly but does not decode under the
/// run's policy (here `quantize:8` codes one byte short) is a counted
/// [`DropReason::Loss`]: the server folds the round without it instead of
/// panicking in the decoder.
#[test]
fn a_malformed_compressed_upload_is_a_counted_loss() {
    fn fedavg() -> Box<dyn Algorithm> {
        Box::new(rfl_core::algorithms::FedAvg::new())
    }
    let (seed, victim) = (canonical::SEED, 2usize);
    let policy = Compression::Quantize { bits: 8 };
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let (server, actual) = server_run_with(&endpoint, seed, 1, PATIENCE, policy, fedavg);
    let start = ControlMsg::TrainStart { round: 0, steps: 0 }.tag();
    let threads: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = actual.clone();
            std::thread::spawn(move || {
                if k != victim {
                    return client_thread(ep, k, seed, ClientLoopOpts::default());
                }
                raw_client(ep, k, seed, |tag, _, raw| {
                    if tag == start {
                        write_control(raw, &REPORT);
                        write_compressed(raw, MsgKind::CompressedUp, &short_payload());
                    }
                })
            })
        })
        .collect();
    let (history, global, faults, _) = server.join().expect("the server survived the upload");
    for t in threads {
        assert!(matches!(t.join().expect("client"), ClientOutcome::Shutdown));
    }
    assert_eq!(history.records().len(), 1);
    assert_eq!(faults.dropped, 1, "the malformed upload is the one loss");
    assert!(global.iter().all(|v| v.is_finite()));
}

/// The δ half of the same claim: under rFedAvg+ with `quantize:8`, a
/// client whose upload decodes but whose `CompressedDeltaUp` answer to the
/// δ probe does not is one counted loss, the round completes, and the
/// server's table holds no row for it.
#[test]
fn a_malformed_compressed_delta_is_a_counted_loss_and_sets_no_row() {
    use rfl_core::algorithms::RFedAvgPlus;
    use rfl_core::compress::compress_plain;
    let (seed, victim) = (canonical::SEED, 1usize);
    let policy = Compression::Quantize { bits: 8 };
    let mut transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, 1, policy),
    )
    .expect("bind");
    transport.set_recv_timeout(PATIENCE);
    let actual = transport.local_endpoint().clone();
    let server = std::thread::spawn(move || {
        transport
            .wait_for_clients(PATIENCE)
            .expect("clients register");
        let data = canonical::data(seed);
        let mut cfg = canonical::config(seed, 1);
        cfg.compression = policy;
        let mut fed =
            Federation::remote(&data, canonical::model(), &cfg, seed, Box::new(transport));
        let mut algo = RFedAvgPlus::new(canonical::LAMBDA);
        let history = Trainer::new(canonical::config(seed, 1)).run(&mut algo, &mut fed);
        let faults = fed.fault_stats();
        fed.shutdown_remote();
        let table = algo.delta_table().expect("the round built the table");
        (history, faults, table.num_initialized())
    });
    let (start, probe) = (
        ControlMsg::TrainStart { round: 0, steps: 0 }.tag(),
        ControlMsg::DeltaProbe {
            round: 0,
            probe_batch: 0,
        }
        .tag(),
    );
    let threads: Vec<_> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let ep = actual.clone();
            std::thread::spawn(move || {
                if k != victim {
                    return client_thread(ep, k, seed, ClientLoopOpts::default());
                }
                // The upload is an update of zeros against the broadcast, so
                // it decodes; only the δ answer is short.
                let mut dim = 0;
                raw_client(ep, k, seed, |tag, body, raw| {
                    if tag == MsgKind::ModelDown.tag() {
                        let mut params = Vec::new();
                        rfl_tensor::decode_f32_into(body, &mut params).expect("a model");
                        dim = params.len();
                    } else if tag == start {
                        write_control(raw, &REPORT);
                        let mut upload = CompressedVec::default();
                        compress_plain(policy, &vec![0.0; dim], &mut upload);
                        write_compressed(raw, MsgKind::CompressedUp, &upload);
                    } else if tag == probe {
                        write_compressed(raw, MsgKind::CompressedDeltaUp, &short_payload());
                    }
                })
            })
        })
        .collect();
    let (history, faults, rows) = server.join().expect("the server survived the δ frame");
    for t in threads {
        assert!(matches!(t.join().expect("client"), ClientOutcome::Shutdown));
    }
    assert_eq!(history.records().len(), 1);
    assert_eq!(faults.dropped, 1, "the malformed δ frame is the one loss");
    assert_eq!(rows, canonical::NUM_CLIENTS - 1, "the victim's row was set");
}

/// A timeout past what the clock can represent means "no deadline": the
/// registration wait, a broadcast's enqueue and a blocking claim each
/// take `Duration::MAX` without overflowing an `Instant`.
#[test]
fn a_timeout_past_the_clock_is_no_deadline() {
    use rfl_core::comm::{ClientEvent, RemoteTransport};
    let seed = canonical::SEED;
    let mut transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &welcome(seed, canonical::ROUNDS, Compression::None),
    )
    .expect("bind");
    let ep = transport.local_endpoint().clone();
    let conns: Vec<ClientConn> = (0..canonical::NUM_CLIENTS)
        .map(|id| registered(&ep, id, seed))
        .collect();
    transport
        .wait_for_clients(Duration::MAX)
        .expect("full cohort");
    transport.set_recv_timeout(Duration::MAX);
    let ids: Vec<usize> = (0..canonical::NUM_CLIENTS).collect();
    let model = [0.5f32, -1.25, 3.0];
    let sent = transport.broadcast(MsgKind::ModelDown, &ids, &model);
    assert!(sent.links.iter().all(|link| link.delivered));
    // Each client echoes the model scaled by its id + 1, a little after
    // the server has started to wait.
    let echoes = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        for (k, mut conn) in conns.into_iter().enumerate() {
            let Ok(ClientEvent::Payload(MsgKind::ModelDown, params)) = conn.read_event() else {
                panic!("client {k}: no broadcast")
            };
            let echo: Vec<f32> = params.iter().map(|v| v * (k + 1) as f32).collect();
            conn.send_payload(MsgKind::ModelUp, &echo).expect("echo");
        }
    });
    for k in ids {
        let want: Vec<f32> = model.iter().map(|v| v * (k + 1) as f32).collect();
        assert_eq!(transport.recv(MsgKind::ModelUp, k).data, Some(want));
    }
    echoes.join().expect("clients");
}

/// An algorithm whose hooks need more than the wire carries is refused
/// with a typed error naming the missing capability — before round 0, and
/// before a single frame is sent — instead of training plain FedAvg
/// without saying so (FedProx, rFedAvg) or dying on a mid-round assert
/// (SCAFFOLD, q-FedAvg, power-of-choice, DP on δ).
#[test]
fn remote_mode_refuses_what_it_cannot_do_before_round_zero() {
    use rfl_core::algorithms::*;
    use rfl_core::plane::{Capability, Unsupported};
    let seed = canonical::SEED;
    let mut transport = SocketTransport::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        &welcome(seed, 1, Compression::None),
    )
    .expect("bind server");
    let ep = transport.local_endpoint().clone();
    // A registered cohort, so a frame *could* be sent.
    let mut conns: Vec<ClientConn> = (0..canonical::NUM_CLIENTS)
        .map(|k| {
            let mut c = ClientConn::connect(&ep).expect("connect");
            c.hello(k as u32, seed).expect("hello");
            c
        })
        .collect();
    transport
        .wait_for_clients(Duration::from_secs(10))
        .expect("clients register");
    transport.begin_round(0); // folds the handshakes into the ledger
    let cfg = canonical::config(seed, 1);
    let mut fed = Federation::remote(
        &canonical::data(seed),
        canonical::model(),
        &cfg,
        seed,
        Box::new(transport),
    );
    let after_handshake = fed.comm_stats().messages();
    assert!(after_handshake > 0);

    let dp = rfl_core::dp::DpConfig::new(0.5, 1.0, 10);
    let refused: Vec<(Box<dyn Algorithm>, Capability)> = vec![
        (Box::new(FedProx::new(0.1)), Capability::ServerSideRule),
        (Box::new(RFedAvg::new(1e-3)), Capability::TableDownload),
        (Box::new(Scaffold::new(1.0)), Capability::ControlPlane),
        (Box::new(QFedAvg::new(1.0)), Capability::ClientStateRead),
        (
            Box::new(PowerOfChoice::new(2.0, 1e-3)),
            Capability::ClientStateRead,
        ),
        (
            Box::new(RFedAvg::new(1e-3).with_dp(dp)),
            Capability::TableDownload,
        ),
        (
            Box::new(RFedAvgPlus::new(1e-3).with_dp(dp)),
            Capability::DeltaPrivacy,
        ),
    ];
    for (mut algo, capability) in refused {
        let name = algo.name();
        let err = Trainer::new(cfg)
            .try_run(algo.as_mut(), &mut fed)
            .expect_err(name);
        assert_eq!(
            err,
            Unsupported {
                algorithm: name,
                backend: "socket",
                capability
            }
        );
        assert!(err.to_string().contains(&format!("{capability:?}")));
        assert_eq!(
            fed.comm_stats().messages(),
            after_handshake,
            "{name}: a frame went out before the refusal"
        );
    }
    // Nothing reached the clients either: the next frame each one reads is
    // the shutdown.
    fed.shutdown_remote();
    for c in &mut conns {
        let ev = c.read_event().expect("shutdown frame");
        assert!(matches!(
            ev,
            rfl_core::comm::ClientEvent::Control(ControlMsg::Shutdown)
        ));
    }
}
