//! `wire_train_q8` — the canonical mnist-like CNN rFedAvg+ run over
//! loopback TCP with 8-bit quantized uploads: the whole stack as deployed.
//!
//! The server is `Federation::remote` on a `SocketTransport`; the 4 clients
//! are threads running the same `run_client_loop` that `rfl-client` runs
//! (they are the system under test and block on the socket except while
//! training). Few connections, large frames, compress on the client and
//! decode + fold on the server, the δ double sync, training in front of it.

use crate::harness::{
    compare_traced, finish_traced, run_leg, setup_and_run, Leg, Opts, Outcome, Rig,
};
use crate::ledger;
use crate::probes::Probes;
use crate::stats::median;
use rfl_core::algorithms::RFedAvgPlus;
use rfl_core::canonical;
use rfl_core::comm::{
    run_client_loop, ClientConn, ClientLoopOpts, ClientOutcome, ControlMsg, Endpoint,
    SocketTransport,
};
use rfl_core::compress::Compression;
use rfl_core::{Algorithm, Federation, FlConfig};
use rfl_trace::Tracer;
use std::thread::JoinHandle;
use std::time::Duration;

const NAME: &str = "wire_train_q8";
const POLICY: Compression = Compression::Quantize { bits: 8 };
const ROUNDS_PER_SECOND: usize = 16;
const WARM: usize = 5;
/// Rounds the in-process oracle runs and the wire run must match bit for
/// bit.
const ORACLE_ROUNDS: usize = 30;

fn cfg(seed: u64, rounds: usize, compression: Compression) -> FlConfig {
    FlConfig {
        compression,
        ..canonical::config(seed, rounds)
    }
}

/// A remote federation and the client threads on the far side of it.
struct RemoteRig {
    fed: Federation,
    clients: Vec<JoinHandle<()>>,
}

impl RemoteRig {
    /// Binds the server, starts the cohort, waits for every registration.
    /// Each client regenerates its shard and replica from the seed, exactly
    /// as an `rfl-client` process does.
    fn start(cfg: FlConfig) -> RemoteRig {
        let seed = cfg.seed;
        let welcome = ControlMsg::Welcome {
            num_clients: canonical::NUM_CLIENTS as u32,
            rounds: cfg.rounds as u32,
            local_steps: cfg.local_steps as u32,
            batch_size: cfg.batch_size as u32,
            probe_batch: cfg.probe_batch() as u32,
            lambda: canonical::LAMBDA,
            lr: canonical::LR,
            clip_grad_norm: cfg.clip_grad_norm.unwrap_or(f32::NAN),
            seed,
            compression: cfg.compression,
        };
        let endpoint = Endpoint::parse("tcp://127.0.0.1:0").expect("endpoint");
        let mut transport = SocketTransport::bind(&endpoint, &welcome).expect("bind");
        transport.set_recv_timeout(Duration::from_secs(60));
        let actual = transport.local_endpoint().clone();
        let clients = (0..canonical::NUM_CLIENTS)
            .map(|id| {
                let endpoint = actual.clone();
                std::thread::Builder::new()
                    .name(format!("bench-client-{id}"))
                    .spawn(move || {
                        let mut conn = ClientConn::connect_with_backoff(
                            &endpoint,
                            20,
                            Duration::from_millis(10),
                        )
                        .expect("connect");
                        conn.hello(id as u32, seed).expect("register");
                        let data = canonical::data(seed);
                        let mut client = canonical::client(id, &data, &cfg, seed);
                        let opts = ClientLoopOpts {
                            leave_after_round: None,
                            compression: cfg.compression,
                        };
                        match run_client_loop(&mut conn, &mut client, canonical::LAMBDA, &opts) {
                            ClientOutcome::Shutdown => {}
                            other => panic!("client {id} ended with {other:?}"),
                        }
                    })
                    .expect("spawn client")
            })
            .collect();
        transport
            .wait_for_clients(Duration::from_secs(60))
            .expect("registration");
        let data = canonical::data(seed);
        let fed = Federation::remote(&data, canonical::model(), &cfg, seed, Box::new(transport));
        RemoteRig { fed, clients }
    }
}

impl Rig for RemoteRig {
    fn fed(&mut self) -> &mut Federation {
        &mut self.fed
    }

    fn finish(mut self) {
        self.fed.shutdown_remote();
        for c in self.clients {
            c.join().expect("client thread");
        }
    }
}

fn algo() -> Box<dyn Algorithm> {
    Box::new(RFedAvgPlus::new(canonical::LAMBDA))
}

/// The 2-round dense canonical cohort over the same loopback path must
/// land on the library's pinned loss.
fn preflight(out: &mut Outcome) {
    let mut rig = RemoteRig::start(cfg(canonical::SEED, canonical::ROUNDS, Compression::None));
    let history = canonical::run(&mut rig.fed, canonical::SEED, canonical::ROUNDS);
    let loss = history.records().last().expect("two rounds").train_loss as f64;
    out.count_updates(history.records());
    rig.finish();
    out.note("dense_preflight_loss", format!("{loss:.9}"));
    out.check(
        format!("dense preflight over loopback reproduces the pinned loss ({loss:.9})"),
        canonical::loss_matches_pin(loss),
    );
}

/// The same compressed run in-process: the oracle the wire run is compared
/// against, and the in-process round time.
fn oracle(opts: &Opts) -> Leg {
    let run_cfg = cfg(opts.seed, ORACLE_ROUNDS, POLICY);
    let mut fed = Federation::new(
        &canonical::data(opts.seed),
        canonical::model(),
        canonical::optimizer(),
        &run_cfg,
        opts.seed,
    );
    run_leg(algo().as_mut(), &mut fed, run_cfg, WARM, false)
}

fn check_leg(out: &mut Outcome, what: &str, leg: &Leg, fed: &Federation, oracle: &Leg) {
    let n = canonical::NUM_CLIENTS;
    let bytes = ledger::remote_rfedavg_plus_round(n, fed.num_params(), fed.feature_dim(), POLICY);
    leg.check(out, what, n, bytes);
    let dropped = fed.fault_stats().dropped;
    out.check(format!("{what}: {dropped} frames dropped"), dropped == 0);
    let k = ORACLE_ROUNDS.min(leg.all().len());
    out.check(
        format!("{what}: first {k} rounds equal the in-process compressed oracle bit for bit"),
        leg.loss_bits()[..k] == oracle.loss_bits()[..k],
    );
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    out.note(
        "cohort",
        format!(
            "{} clients, all every round (closed loop), quantize:8 uploads, loopback TCP (not a real link)",
            canonical::NUM_CLIENTS
        ),
    );
    preflight(&mut out);
    let oracle = oracle(opts);
    if opts.trace {
        traced(opts, &mut out, &oracle);
        return out;
    }
    let measured = opts.rounds(ROUNDS_PER_SECOND, 1);
    out.note("rounds", format!("{WARM} warm-up + {measured} measured"));
    let run_cfg = cfg(opts.seed, WARM + measured, POLICY);
    let (leg, setups, rig) =
        setup_and_run(|| RemoteRig::start(run_cfg), algo, run_cfg, WARM, false);
    leg.put_end_to_end(&mut out);
    out.put_samples("setup_s", &setups);
    check_leg(&mut out, "wire leg", &leg, &rig.fed, &oracle);
    rig.finish();
    out.put("peak_rss_mb", rfl_core::mem::peak_rss_bytes() as f64 / 1e6);
    out
}

fn traced(opts: &Opts, out: &mut Outcome, oracle: &Leg) {
    let tracer = Tracer::enabled();
    let quarter = opts.rounds(ROUNDS_PER_SECOND, 4);
    out.note(
        "rounds",
        format!("warm-up {WARM} + untraced {quarter} / traced {quarter}; oracle {ORACLE_ROUNDS} in-process"),
    );
    let run_cfg = cfg(opts.seed, WARM + quarter, POLICY);

    let mut rig = RemoteRig::start(run_cfg);
    let plain = run_leg(algo().as_mut(), &mut rig.fed, run_cfg, WARM, false);
    check_leg(out, "untraced leg", &plain, &rig.fed, oracle);
    rig.finish();

    let setup_span = tracer.begin_run("setup");
    let mut rig = RemoteRig::start(run_cfg);
    drop(setup_span);
    rig.fed.set_tracer(tracer.clone());
    let run_span = tracer.begin_run("trainer:rFedAvg+ over loopback");
    let spans = run_leg(algo().as_mut(), &mut rig.fed, run_cfg, WARM, false);
    drop(run_span);
    check_leg(out, "traced leg", &spans, &rig.fed, oracle);
    let (params, feat) = (rig.fed.num_params(), rig.fed.feature_dim());
    rig.finish();
    compare_traced(out, &tracer, &plain.series(), &spans.series(), WARM);

    let wire_round_s = median(&plain.round_secs());
    let inproc_round_s = median(&oracle.round_secs());
    out.put_samples("wire.inproc_round_s", &oracle.round_secs());
    out.put("wire.over_inproc", wire_round_s / inproc_round_s);
    out.put("wire.exposed_s", wire_round_s - inproc_round_s);

    let data = canonical::data(opts.seed);
    let mut client = canonical::client(0, &data, &run_cfg, opts.seed);
    let mut probes = Probes {
        out,
        tracer: &tracer,
    };
    probes.client(
        &mut client,
        run_cfg.local_steps,
        canonical::LAMBDA,
        run_cfg.probe_batch(),
    );
    probes.compress(POLICY, params);
    probes.tensor_codec(params);
    probes.framing(params);
    probes.fold(
        "aggregate.fold_deep_s",
        canonical::NUM_CLIENTS,
        params,
        false,
    );
    let _ = feat;

    // CPU seconds of one round's named work per wall second of round: every
    // client trains, answers the δ probe and compresses; the server decodes
    // each upload and folds. The clients run on their own threads, so this
    // exceeds 1 when they overlap.
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    let explained = canonical::NUM_CLIENTS as f64
        * (get("client.train_mmd_s")
            + get("client.compute_delta_s")
            + get("compress.ef_update_s")
            + get("compress.frame_codec_s")
            + get("compress.decode_s")
            + 2.0 * (get("tensor.codec_encode_s") + get("tensor.codec_decode_s")))
        + get("aggregate.fold_deep_s");
    out.put("budget.explained_share", explained / wire_round_s);
    finish_traced(out, NAME, &tracer);
}
