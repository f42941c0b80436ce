//! `wire_cohort_1k` — one reactor server, 1,024 loopback TCP connections
//! owned by one driver thread that echoes every `ModelDown` as a `ModelUp`
//! (the `bench_connections` pattern).
//!
//! Reactor poll loop, sessions, framing, write queues and the claim path
//! with no training to hide behind: per-frame and per-connection cost.
//! Loopback is not a real link: there is no latency, loss or bandwidth
//! limit here, only the software path.

use crate::harness::{compare_traced, finish_traced, Opts, Outcome, Series, SETUP_REPS};
use crate::ledger;
use crate::probes::Probes;
use crate::procstat::CpuTimes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfl_core::comm::{
    ClientConn, ClientEvent, CommStats, ControlMsg, Endpoint, MsgKind, RemoteTransport,
    SocketTransport, Transport, FRAME_HEADER_BYTES, PROTO_MAGIC, PROTO_VERSION,
};
use rfl_core::compress::Compression;
use rfl_core::mem;
use rfl_tensor::wire_size;
use rfl_trace::{SpanKind, Tracer};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NAME: &str = "wire_cohort_1k";
const CONNS: usize = 1_024;
/// Payload floats: a small model, so rounds measure connection machinery
/// rather than memcpy bandwidth.
const DIM: usize = 1_024;
const ROUNDS_PER_SECOND: usize = 30;
const WARM: usize = 10;
/// `bench_connections`' ceiling: main + driver + reactor shards, with
/// headroom for runtime helpers, never a thread per connection.
const MAX_THREADS: u64 = 16;

fn welcome(seed: u64) -> ControlMsg {
    ControlMsg::Welcome {
        num_clients: CONNS as u32,
        rounds: 0,
        local_steps: 1,
        batch_size: 1,
        probe_batch: 1,
        lambda: 0.0,
        lr: 0.0,
        clip_grad_norm: f32::NAN,
        seed,
        compression: Compression::None,
    }
}

/// A bound server with its registered cohort.
struct Cohort {
    transport: SocketTransport,
    /// Returns every connection's connect + hello seconds.
    driver: JoinHandle<Vec<f64>>,
    all: Vec<usize>,
    /// Rounds run so far (the ledger's `r`).
    rounds: u64,
}

impl Cohort {
    fn start(seed: u64) -> Cohort {
        let endpoint = Endpoint::parse("tcp://127.0.0.1:0").expect("endpoint");
        let mut transport = SocketTransport::bind(&endpoint, &welcome(seed)).expect("bind");
        transport.set_recv_timeout(Duration::from_secs(60));
        let actual = transport.local_endpoint().clone();
        // ONE thread owns every client end, so any per-connection thread
        // in the census below would be the server's.
        let driver = std::thread::Builder::new()
            .name("bench-driver".into())
            .spawn(move || {
                let mut handshakes = Vec::with_capacity(CONNS);
                let mut clients = Vec::with_capacity(CONNS);
                for id in 0..CONNS {
                    let t = Instant::now();
                    let mut c =
                        ClientConn::connect_with_backoff(&actual, 20, Duration::from_millis(10))
                            .expect("connect");
                    c.hello(id as u32, seed).expect("register");
                    handshakes.push(t.elapsed().as_secs_f64());
                    clients.push(c);
                }
                // Every connection gets its `Shutdown` in the same sweep
                // (the server only shuts down once every echo is claimed).
                // Finish the sweep before dropping the sockets: closing them
                // on the first `Shutdown` would drain sessions the server
                // has not sent theirs to yet, and those frames would go
                // uncharged.
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
                handshakes
            })
            .expect("spawn driver");
        transport
            .wait_for_clients(Duration::from_secs(60))
            .expect("registration");
        Cohort {
            transport,
            driver,
            all: (0..CONNS).collect(),
            rounds: 0,
        }
    }

    /// One closed-loop round: broadcast, then claim every echo. Returns
    /// `(broadcast seconds, collect seconds, echoes that matched)`.
    fn round(&mut self, params: &[f32], tracer: &Tracer) -> (f64, f64, usize) {
        let _round = tracer.begin_round(self.rounds as usize);
        self.transport.begin_round(self.rounds);
        self.rounds += 1;
        let t = Instant::now();
        {
            let _span = tracer.span(SpanKind::Broadcast);
            self.transport
                .broadcast(MsgKind::ModelDown, &self.all, params);
        }
        let broadcast_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _span = tracer.span(SpanKind::Upload);
        let mut matched = 0;
        for &k in &self.all {
            let d = self.transport.recv(MsgKind::ModelUp, k);
            matched += usize::from(d.data.as_deref() == Some(params));
        }
        (broadcast_s, t.elapsed().as_secs_f64(), matched)
    }

    /// Shuts the cohort down and returns the final ledger and handshakes.
    fn finish(mut self) -> (CommStats, Vec<f64>, u64) {
        self.transport.shutdown();
        let handshakes = self.driver.join().expect("driver");
        (self.transport.stats().clone(), handshakes, self.rounds)
    }
}

/// The whole-run closed form of `bench_connections`: handshakes, `r`
/// broadcast → echo rounds, shutdown frames.
fn ledger_is_exact(stats: &CommStats, seed: u64, r: u64) -> bool {
    let frame = |msg: &ControlMsg| {
        let mut body = Vec::new();
        msg.encode_body(&mut body);
        FRAME_HEADER_BYTES + body.len() as u64
    };
    let hello = frame(&ControlMsg::Hello {
        magic: PROTO_MAGIC,
        version: PROTO_VERSION,
        client_id: 0,
        seed,
    });
    let payload = FRAME_HEADER_BYTES + wire_size(DIM) as u64;
    let n = CONNS as u64;
    let up = n * hello + r * n * payload;
    let down = n * frame(&welcome(seed)) + r * n * payload + n * frame(&ControlMsg::Shutdown);
    // Handshake pairs, one broadcast record plus n uploads a round, n
    // shutdown frames.
    let msgs = 2 * n + r * (1 + n) + n;
    let exact =
        stats.upload_bytes() == up && stats.download_bytes() == down && stats.messages() == msgs;
    if !exact {
        eprintln!(
            "ledger drift: up {}/{up} down {}/{down} msgs {}/{msgs}",
            stats.upload_bytes(),
            stats.download_bytes(),
            stats.messages()
        );
    }
    exact
}

/// A window of rounds: per-round seconds and what moved.
struct Window {
    round_s: Vec<f64>,
    broadcast_s: Vec<f64>,
    collect_s: Vec<f64>,
    matched: usize,
    wall_s: f64,
    cpu: CpuTimes,
    stats: CommStats,
}

fn run_window(cohort: &mut Cohort, rng: &mut StdRng, rounds: usize, tracer: &Tracer) -> Window {
    let mut params: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let before = cohort.transport.stats().clone();
    let (cpu0, t0) = (CpuTimes::now(), Instant::now());
    let (mut broadcast_s, mut collect_s) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    let mut matched = 0;
    for r in 0..rounds {
        // A different model every round, as a training run would send.
        params[r % DIM] += 1.0;
        let (b, c, ok) = cohort.round(&params, tracer);
        broadcast_s.push(b);
        collect_s.push(c);
        matched += ok;
    }
    Window {
        round_s: broadcast_s
            .iter()
            .zip(&collect_s)
            .map(|(b, c)| b + c)
            .collect(),
        broadcast_s,
        collect_s,
        matched,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu: CpuTimes::now().since(&cpu0),
        stats: cohort.transport.stats().since(&before),
    }
}

fn count(out: &mut Outcome, what: &str, w: &Window) {
    let sent = w.round_s.len() * CONNS;
    out.attempted += sent as u64;
    out.failed += (sent - w.matched) as u64;
    out.check(
        format!("{what}: every echoed payload equals the broadcast"),
        w.matched == sent,
    );
    out.check(
        format!("{what}: every round moves the closed-form bytes"),
        w.stats.total_bytes() == w.round_s.len() as u64 * ledger::echo_round(CONNS, DIM),
    );
}

pub fn run(opts: &Opts) -> Outcome {
    // Both socket ends live in this process: two descriptors a connection
    // plus listener, wake pipes and the standard streams.
    let want = CONNS as u64 * 2 + 64;
    match mem::raise_fd_limit(want) {
        Some(limit) if limit >= want => {}
        got => panic!(
            "{NAME} needs {want} open files for {CONNS} connections and the limit is {got:?}; \
             raise `ulimit -n` — a smaller cohort would be a different workload"
        ),
    }
    let mut out = Outcome::default();
    out.note(
        "cohort",
        format!(
            "{CONNS} connections, {DIM}-float payload, closed loop, loopback TCP (not a real link)"
        ),
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let off = Tracer::disabled();
    if opts.trace {
        traced(opts, &mut out, &mut rng);
        return out;
    }

    let measured = opts.rounds(ROUNDS_PER_SECOND, 1);
    out.note("rounds", format!("{WARM} warm-up + {measured} measured"));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(cohort) = last.take() {
            Cohort::finish(cohort);
        }
        let t0 = Instant::now();
        let mut cohort = Cohort::start(opts.seed);
        run_window(&mut cohort, &mut rng, WARM, &off);
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(cohort);
    }
    let mut cohort = last.expect("SETUP_REPS is at least 1");
    let w = run_window(&mut cohort, &mut rng, measured, &off);
    out.put_samples("round_s", &w.round_s);
    out.put("updates_per_s", w.matched as f64 / w.wall_s);
    out.put("cpu_s_per_round", w.cpu.total() / measured as f64);
    out.put(
        "wire_bytes_per_round",
        w.stats.total_bytes() as f64 / measured as f64,
    );
    out.put_samples("setup_s", &setups);
    count(&mut out, "measured window", &w);
    let (stats, _, rounds) = cohort.finish();
    out.check(
        "the whole run's ledger equals its closed form (handshakes, rounds, shutdowns)",
        ledger_is_exact(&stats, opts.seed, rounds),
    );
    out.put("peak_rss_mb", mem::peak_rss_bytes() as f64 / 1e6);
    out
}

fn traced(opts: &Opts, out: &mut Outcome, rng: &mut StdRng) {
    let tracer = Tracer::enabled();
    let off = Tracer::disabled();
    let quarter = opts.rounds(ROUNDS_PER_SECOND, 4);
    out.note(
        "rounds",
        format!("warm-up {WARM} + untraced {quarter} / traced {quarter}"),
    );
    let rss_before = mem::current_rss_bytes();
    let setup_span = tracer.begin_run("setup");
    let mut cohort = Cohort::start(opts.seed);
    drop(setup_span);
    let threads = mem::thread_count();
    let rss_after = mem::current_rss_bytes();
    run_window(&mut cohort, rng, WARM, &off);
    let plain = run_window(&mut cohort, rng, quarter, &off);
    count(out, "untraced window", &plain);
    let run_span = tracer.begin_run("wire rounds");
    let spans = run_window(&mut cohort, rng, quarter, &tracer);
    drop(run_span);
    count(out, "traced window", &spans);
    // Every echo already matched its broadcast; what the two windows must
    // agree on exactly is their byte and message counts.
    let series = |w: &Window| Series {
        exact: vec![w.stats.total_bytes() as u32, w.stats.messages() as u32],
        secs: w.round_s.clone(),
    };
    compare_traced(out, &tracer, &series(&plain), &series(&spans), 0);
    let both: Vec<f64> = plain
        .broadcast_s
        .iter()
        .chain(&spans.broadcast_s)
        .copied()
        .collect();
    out.put_samples("reactor.broadcast_s", &both);
    let both: Vec<f64> = plain
        .collect_s
        .iter()
        .chain(&spans.collect_s)
        .copied()
        .collect();
    out.put_samples("reactor.collect_s", &both);
    // One frame down and one up per connection per round.
    out.put(
        "reactor.frames_per_s",
        (2 * CONNS * quarter) as f64 / plain.wall_s,
    );
    out.put(
        "reactor.mb_per_s",
        plain.stats.total_bytes() as f64 / 1e6 / plain.wall_s,
    );
    out.put("reactor.sys_cpu_share", plain.cpu.sys / plain.cpu.total());
    out.put("reactor.threads", threads as f64);
    out.check(
        format!("{threads} threads serve {CONNS} connections (at most {MAX_THREADS})"),
        threads <= MAX_THREADS,
    );
    out.put(
        "reactor.rss_per_conn_b",
        rss_after.saturating_sub(rss_before) as f64 / CONNS as f64,
    );
    let (stats, handshakes, rounds) = cohort.finish();
    out.put_samples("reactor.handshake_s", &handshakes);
    out.check(
        "the whole run's ledger equals its closed form (handshakes, rounds, shutdowns)",
        ledger_is_exact(&stats, opts.seed, rounds),
    );

    let mut probes = Probes {
        out,
        tracer: &tracer,
    };
    probes.tensor_codec(DIM);
    probes.framing(DIM);
    finish_traced(out, NAME, &tracer);
}
