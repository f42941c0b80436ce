//! The in-process plane against the lifecycle oracle: every request
//! sequence a round driver issues must read on a [`Federation`] exactly as
//! on live replicas of its clients (`replica.rs` beside this file) — every
//! delivered set, frame, δ map, report, local loss, learning rate and the
//! byte ledger after each request, bit for bit, serially and on two
//! workers. A proptest state machine draws the sequences, under SGD or
//! RMSProp, with dense, 8-bit quantized, top-k or count-sketched uploads,
//! on records with or without SCAFFOLD's control variate.
//!
//! rfl-core's unit tests include this file as `federation::lifecycle_tests`
//! (by `#[path]`): it drives the federation's private claim path.
//!
//! A sequence opens with at most one read of any clients before anything
//! reached them (a first wake holds the initial global), then runs epochs:
//! a model broadcast (after `begin_round` or, as rFedAvg+'s second sync,
//! inside the round), reads of the clients it reached, at most one training
//! request (plain, MMD, or — on records with the section — SCAFFOLD under a
//! drawn `c`), then the upload claims — of every client it trained plus any
//! others it reached, one at a time, in selection order — then the control
//! claims, which commit `c_k⁺` when the link delivers them — of every client
//! trained under SCAFFOLD plus any others it reached — and more reads. A
//! read is a local evaluation, the learning rates, a δ request, δ claims
//! (with or without the Gaussian mechanism), upload claims or a
//! learning-rate change. A claim takes the reply a request of this epoch
//! left, once: claims may also name a client whose reply no request of the
//! epoch left (an upload of a client that did not train) or one a claim
//! took already, and both sides must refuse those. The driver never reads
//! a client the epoch's broadcast missed (a record keeps no parameters)
//! and never trains twice in an epoch, so the sequences do not either.

use super::*;
use crate::comm::{FaultConfig, FaultyTransport, PerfectTransport};
use proptest::prelude::*;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "replica.rs"]
mod replica;
use replica::ReplicaPlane;

const N: usize = 5;
const SEED: u64 = 3;
const PROBE_BATCH: usize = 8;
const FEATURES: usize = 6;

/// The requests, as both planes answer them.
trait Requests {
    fn begin(&mut self, round: u64);
    fn broadcast(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize>;
    fn train(&mut self, selected: &[usize], rules: &[LocalRule], steps: usize) -> Vec<LocalReport>;
    /// Panics when `k` did not train this epoch or its upload was claimed.
    fn claim_upload(&mut self, k: usize, global: &[f32]) -> Option<Vec<f32>>;
    fn probe(&mut self, selected: &[usize]) -> Vec<Vec<f32>>;
    /// Panics when no δ request of this epoch left a map for `k` or its map
    /// was claimed.
    fn claim_delta(&mut self, k: usize, dp: Option<(DpConfig, &mut StdRng)>) -> Option<Vec<f32>>;
    /// Panics when `k` did not train under SCAFFOLD this epoch or its
    /// control `Δ` was claimed.
    fn claim_control(&mut self, k: usize) -> Option<Vec<f32>>;
    /// Each selected client's control variate.
    fn variates(&mut self, selected: &[usize]) -> Vec<Vec<f32>>;
    /// Each selected client's `(loss, learning rate)`.
    fn eval_local(&mut self, selected: &[usize]) -> Vec<(f32, f32)>;
    fn set_lr(&mut self, k: usize, lr: f32);
    fn ledger(&self) -> String;
}

impl Requests for Federation {
    fn begin(&mut self, round: u64) {
        self.begin_round(round);
    }
    fn broadcast(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        self.set_global(global.to_vec());
        self.broadcast_params(selected)
    }
    fn train(&mut self, selected: &[usize], rules: &[LocalRule], steps: usize) -> Vec<LocalReport> {
        let reports = self.train_selected(selected, rules, steps);
        (reports.into_iter())
            .map(|r| r.expect("an in-process client reports"))
            .collect()
    }
    fn claim_upload(&mut self, k: usize, _global: &[f32]) -> Option<Vec<f32>> {
        let mut out = None;
        self.fold_uploads(&[k], false, |_, _, params| out = Some(params.to_vec()));
        out
    }
    fn probe(&mut self, selected: &[usize]) -> Vec<Vec<f32>> {
        let local = self.local_mut();
        local.probe_deltas(selected, PROBE_BATCH);
        local.probed().map(<[f32]>::to_vec).collect()
    }
    fn claim_delta(&mut self, k: usize, dp: Option<(DpConfig, &mut StdRng)>) -> Option<Vec<f32>> {
        let policy = self.compression;
        let decode = |rt: &_, out: &mut _| decode_plain_into(policy, rt, FEATURES, out);
        let (rt, values) = (&mut self.comp_rt, &mut self.comp_decoded);
        let delta = self
            .plane
            .claim(k, Pull::Delta { dp }, policy, rt, values, decode);
        delta.map(<[f32]>::to_vec)
    }
    fn claim_control(&mut self, k: usize) -> Option<Vec<f32>> {
        let mut out = None;
        self.fold_uploads(&[k], true, |_, _, delta| out = Some(delta.to_vec()));
        out
    }
    fn variates(&mut self, selected: &[usize]) -> Vec<Vec<f32>> {
        (selected.iter())
            .map(|&k| self.with_client(k, |c| c.control().clone()))
            .collect()
    }
    fn eval_local(&mut self, selected: &[usize]) -> Vec<(f32, f32)> {
        self.local_mut().eval_local(selected)
    }
    fn set_lr(&mut self, k: usize, lr: f32) {
        self.with_client(k, |c| c.set_lr(lr));
    }
    fn ledger(&self) -> String {
        format!("{:?} {:?}", self.comm_stats(), self.fault_stats())
    }
}

impl Requests for ReplicaPlane {
    fn begin(&mut self, round: u64) {
        self.transport.begin_round(round);
    }
    fn broadcast(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        ReplicaPlane::broadcast(self, selected, global)
    }
    fn train(&mut self, selected: &[usize], rules: &[LocalRule], steps: usize) -> Vec<LocalReport> {
        ReplicaPlane::train(self, selected, rules, steps)
    }
    fn claim_upload(&mut self, k: usize, global: &[f32]) -> Option<Vec<f32>> {
        ReplicaPlane::claim_upload(self, k, global)
    }
    fn probe(&mut self, selected: &[usize]) -> Vec<Vec<f32>> {
        ReplicaPlane::probe(self, selected, PROBE_BATCH)
    }
    fn claim_delta(&mut self, k: usize, dp: Option<(DpConfig, &mut StdRng)>) -> Option<Vec<f32>> {
        ReplicaPlane::claim_delta(self, k, dp)
    }
    fn claim_control(&mut self, k: usize) -> Option<Vec<f32>> {
        ReplicaPlane::claim_control(self, k)
    }
    fn variates(&mut self, selected: &[usize]) -> Vec<Vec<f32>> {
        ReplicaPlane::variates(self, selected)
    }
    fn eval_local(&mut self, selected: &[usize]) -> Vec<(f32, f32)> {
        ReplicaPlane::eval_local(self, selected)
    }
    fn set_lr(&mut self, k: usize, lr: f32) {
        ReplicaPlane::set_lr(self, k, lr)
    }
    fn ledger(&self) -> String {
        format!(
            "{:?} {:?}",
            self.transport.stats(),
            self.transport.fault_stats()
        )
    }
}

/// A read of the clients a mask picks.
#[derive(Clone, Debug)]
enum Read {
    Eval(Vec<bool>),
    Probe(Vec<bool>),
    /// δ claims, one client at a time, privatized when `dp`.
    Claim {
        pick: Vec<bool>,
        dp: bool,
    },
    /// Upload claims, one client at a time.
    Uploads(Vec<bool>),
    /// The control variates, as the records hold them.
    Variates(Vec<bool>),
    /// Sets the picked clients' learning rate to `LRS[i]`.
    SetLr(Vec<bool>, usize),
}

const LRS: [f32; 3] = [0.05, 0.0123, 0.2];

/// Parameters of [`model`].
const PARAMS: usize = 94;

/// The rule a training request hands every client it trains.
#[derive(Clone, Debug)]
enum Rule {
    Plain,
    Mmd,
    /// SCAFFOLD under the server variate `c` (plain SGD on records without
    /// the section).
    Scaffold(Vec<f32>),
}

/// One model broadcast and what follows it.
#[derive(Clone, Debug)]
struct Epoch {
    new_round: bool,
    reach: Vec<bool>,
    before: Vec<Read>,
    /// Who trains (of those reached), for how many steps, under which rule.
    train: Option<(Vec<bool>, usize, Rule)>,
    between: Vec<Read>,
    /// Reached clients claimed beside the trained ones: refused, as no
    /// request left them an upload.
    extra_uploads: Vec<bool>,
    /// Reached clients whose control `Δ` is claimed (once more, for those
    /// trained under SCAFFOLD): refused, as no request left them one.
    extra_controls: Vec<bool>,
    after: Vec<Read>,
    /// Whether a fold moves the global before the next broadcast.
    fold: bool,
}

#[derive(Clone, Debug)]
struct Case {
    /// Under an enabled policy every record carries a `d`-word residual:
    /// the error feedback of quantized and top-k uploads, zeros under the
    /// count sketch, which keeps none.
    policy: Compression,
    /// RMSProp, not SGD: every record carries `d` words of accumulators,
    /// zeros until the client's first step.
    rmsprop: bool,
    /// Every record carries a `d`-word control variate, reserved before
    /// any client wakes.
    scaffold: bool,
    lossy: bool,
    seed: u64,
    first: Option<Read>,
    epochs: Vec<Epoch>,
}

fn maybe<T: Clone + std::fmt::Debug + 'static>(
    s: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn mask() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), N)
}

fn read() -> impl Strategy<Value = Read> {
    prop_oneof![
        mask().prop_map(Read::Eval),
        mask().prop_map(Read::Probe),
        (mask(), any::<bool>()).prop_map(|(pick, dp)| Read::Claim { pick, dp }),
        mask().prop_map(Read::Uploads),
        mask().prop_map(Read::Variates),
        (mask(), 0..LRS.len()).prop_map(|(pick, i)| Read::SetLr(pick, i)),
    ]
}

fn reads() -> impl Strategy<Value = Vec<Read>> {
    prop::collection::vec(read(), 0..3)
}

fn rule() -> impl Strategy<Value = Rule> {
    prop_oneof![
        Just(Rule::Plain),
        Just(Rule::Mmd),
        prop::collection::vec(-0.5f32..0.5, PARAMS).prop_map(Rule::Scaffold),
    ]
}

fn epoch() -> impl Strategy<Value = Epoch> {
    let train = maybe((mask(), 1..=3usize, rule()));
    (
        (any::<bool>(), mask(), reads(), train, reads()),
        (mask(), mask(), reads(), any::<bool>()),
    )
        .prop_map(
            |((new_round, reach, before, train, between), (uploads, controls, after, fold))| {
                Epoch {
                    new_round,
                    reach,
                    before,
                    train,
                    between,
                    extra_uploads: uploads,
                    extra_controls: controls,
                    after,
                    fold,
                }
            },
        )
}

fn policy() -> impl Strategy<Value = Compression> {
    prop_oneof![
        Just(Compression::None),
        Just(Compression::Quantize { bits: 8 }),
        (1u32..=1000).prop_map(|r| Compression::TopK {
            ratio: r as f32 / 1000.0
        }),
        (0u16..4, 1u32..=128, any::<u64>()).prop_map(|(r, cols, seed)| Compression::Sketch {
            rows: 2 * r + 1,
            cols,
            seed,
        }),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    let first = prop_oneof![mask().prop_map(Read::Eval), mask().prop_map(Read::Probe)];
    let epochs = prop::collection::vec(epoch(), 1..4);
    (
        policy(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
        maybe(first),
        epochs,
    )
        .prop_map(
            |(policy, rmsprop, scaffold, lossy, seed, first, epochs)| Case {
                policy,
                rmsprop,
                scaffold,
                lossy,
                seed,
                first,
                epochs,
            },
        )
}

fn picked(mask: &[bool], from: &[usize]) -> Vec<usize> {
    from.iter().copied().filter(|&k| mask[k]).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `case` on `plane` and renders every answer, one line per request.
struct Transcript<'a> {
    plane: &'a mut dyn Requests,
    lines: Vec<String>,
    /// The server's noise stream.
    rng: StdRng,
}

impl Transcript<'_> {
    fn log(&mut self, what: String) {
        let line = format!("{what} | {}", self.plane.ledger());
        self.lines.push(line);
    }

    /// Runs one claim and logs what it read: `refused` when it panicked.
    fn claim(
        &mut self,
        what: String,
        claim: impl FnOnce(&mut dyn Requests, &mut StdRng) -> Option<Vec<f32>>,
    ) {
        let (plane, rng) = (&mut *self.plane, &mut self.rng);
        let claim = catch_unwind(AssertUnwindSafe(|| claim(plane, rng)));
        let claim = claim.map(|d| d.map(|d| bits(&d))).map_err(|_| "refused");
        self.log(format!("{what} {claim:?}"));
    }

    fn claim_upload(&mut self, k: usize, global: &[f32]) {
        self.claim(format!("claim up {k}"), |plane, _| {
            plane.claim_upload(k, global)
        });
    }

    fn variates(&mut self, clients: &[usize]) {
        // A standalone replica sizes its variate at its first SCAFFOLD
        // step, a record holds zeros from the start: both read as `None`
        // until then.
        let variates = self.plane.variates(clients);
        let variates: Vec<Option<Vec<u32>>> = (variates.iter())
            .map(|v| v.iter().any(|x| x.to_bits() != 0).then(|| bits(v)))
            .collect();
        self.log(format!("variates {variates:?}"));
    }

    fn read(&mut self, read: &Read, reached: &[usize], global: &[f32]) {
        let all: Vec<usize> = (0..N).collect();
        match read {
            Read::Eval(m) => {
                let (losses, lrs): (Vec<_>, Vec<_>) = self
                    .plane
                    .eval_local(&picked(m, reached))
                    .into_iter()
                    .unzip();
                self.log(format!("eval {:?} lrs {:?}", bits(&losses), bits(&lrs)));
            }
            Read::Probe(m) => {
                let maps = self.plane.probe(&picked(m, reached));
                let maps: Vec<Vec<u32>> = maps.iter().map(|d| bits(d)).collect();
                self.log(format!("probe {maps:?}"));
            }
            Read::Claim { pick, dp } => {
                for k in picked(pick, &all) {
                    self.claim(format!("claim δ {k}"), |plane, rng| {
                        let dp = dp.then(|| (DpConfig::new(0.5, 1.0, 10), rng));
                        plane.claim_delta(k, dp)
                    });
                }
            }
            Read::Uploads(m) => {
                for k in picked(m, &all) {
                    self.claim_upload(k, global);
                }
            }
            Read::Variates(m) => self.variates(&picked(m, reached)),
            Read::SetLr(m, i) => {
                for k in picked(m, &all) {
                    self.plane.set_lr(k, LRS[*i]);
                }
            }
        }
    }

    fn run(mut self, case: &Case, mut global: Vec<f32>) -> Vec<String> {
        let all: Vec<usize> = (0..N).collect();
        if let Some(read) = &case.first {
            self.read(read, &all, &global);
        }
        let mut round = 0;
        for e in &case.epochs {
            if e.new_round {
                self.plane.begin(round);
                round += 1;
            }
            let reached = self.plane.broadcast(&picked(&e.reach, &all), &global);
            self.log(format!("broadcast {reached:?}"));
            for read in &e.before {
                self.read(read, &reached, &global);
            }
            let (mut trained, mut scaffold) = (Vec::new(), false);
            if let Some((m, steps, rule)) = &e.train {
                trained = picked(m, &reached);
                let rule = match rule {
                    Rule::Mmd => LocalRule::Mmd {
                        lambda: 0.1,
                        target: Arc::new(vec![0.05; FEATURES]),
                    },
                    Rule::Scaffold(c) if case.scaffold => {
                        scaffold = true;
                        LocalRule::Scaffold {
                            c: Arc::new(c.clone()),
                        }
                    }
                    _ => LocalRule::Plain,
                };
                let rules = vec![rule; trained.len()];
                let reports = self.plane.train(&trained, &rules, *steps);
                let reports: Vec<_> = (reports.iter())
                    .map(|r| (r.loss.to_bits(), r.reg_loss.to_bits(), r.steps, r.examples))
                    .collect();
                self.log(format!("train {trained:?} {reports:?}"));
            }
            for read in &e.between {
                self.read(read, &reached, &global);
            }
            for &k in &reached {
                if trained.contains(&k) || e.extra_uploads[k] {
                    self.claim_upload(k, &global);
                }
            }
            for &k in &reached {
                let claims = usize::from(scaffold && trained.contains(&k));
                for _ in 0..claims + usize::from(e.extra_controls[k]) {
                    self.claim(format!("claim control {k}"), |plane, _| {
                        plane.claim_control(k)
                    });
                    self.variates(&[k]);
                }
            }
            for read in &e.after {
                self.read(read, &reached, &global);
            }
            if e.fold {
                for (i, w) in global.iter_mut().enumerate() {
                    *w = *w * 0.9 + (i % 7) as f32 * 1e-3;
                }
            }
        }
        self.lines
    }
}

fn data() -> FederatedData {
    let mut rng = StdRng::seed_from_u64(SEED);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(12 * N, None, &mut rng);
    let parts = rfl_data::partition::iid(12 * N, N, &mut rng);
    FederatedData::from_partition(&pool, &parts, spec.generate(10, None, &mut rng))
}

fn model() -> ModelFactory {
    ModelFactory::linear_net(10, FEATURES, 4, 1e-3)
}

fn transport(case: &Case) -> Box<dyn Transport> {
    match case.lossy {
        true => Box::new(FaultyTransport::new(FaultConfig::lossy(case.seed, 0.3, 0))),
        false => Box::new(PerfectTransport::new()),
    }
}

fn transcript(plane: &mut dyn Requests, case: &Case, global: Vec<f32>) -> Vec<String> {
    let t = Transcript {
        plane,
        lines: Vec::new(),
        rng: StdRng::seed_from_u64(case.seed),
    };
    t.run(case, global)
}

proptest! {
    #[test]
    fn every_request_sequence_reads_as_on_live_replicas(case in case()) {
        let data = data();
        let cfg = |parallel| FlConfig {
            batch_size: 5,
            parallel,
            compression: case.policy,
            ..FlConfig::cross_silo()
        };
        let optimizer = match case.rmsprop {
            true => OptimizerFactory::rmsprop(0.01),
            false => OptimizerFactory::sgd(0.1),
        };
        let mut global = Vec::new();
        model().build(SEED).read_params(&mut global);
        assert_eq!(global.len(), PARAMS);
        let mut replicas =
            ReplicaPlane::new(&data, model(), optimizer, &cfg(false), SEED, transport(&case));
        let want = transcript(&mut replicas, &case, global.clone());
        let before = rfl_tensor::thread_budget();
        rfl_tensor::set_thread_budget(2);
        let got: Vec<(bool, Vec<String>)> = [false, true]
            .into_iter()
            .map(|parallel| {
                let mut fed = Federation::new(&data, model(), optimizer, &cfg(parallel), SEED);
                if case.scaffold {
                    fed.local_mut().registry.reserve_control(PARAMS);
                }
                fed.set_transport(transport(&case));
                (parallel, transcript(&mut fed, &case, global.clone()))
            })
            .collect();
        rfl_tensor::set_thread_budget(before);
        for (parallel, got) in got {
            prop_assert_eq!(&got, &want, "parallel {}", parallel);
        }
    }
}
