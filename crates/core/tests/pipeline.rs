//! Pipelined round engine: determinism and observability.
//!
//! The engine overlaps three phases across rounds — prefetch of round
//! `t+1`'s predicted selection, background hibernation of round `t-1`'s
//! actives, and the arrival-order tree fold — all of which must be
//! invisible in the numbers: a pipelined run is bit-identical to the same
//! selection stream executed serially, at any thread budget, and the
//! canonical pin survives untouched. The phase work itself is pinned
//! through the rfl-trace journal (`prefetch`/`materialize`/`fold`/
//! `hibernate` spans). Who drains a prefetch wave — its owner thread or the
//! round thread that arrives wanting the clients — is a race here; the
//! scripted interleavings are unit tests of `rfl_core`'s plane.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::{FedAvg, RFedAvgPlus};
use rfl_core::canonical;
use rfl_core::federation::{Federation, FlConfig, ModelFactory, OptimizerFactory};
use rfl_core::registry::MaterializedSource;
use rfl_core::Trainer;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::FederatedData;
use rfl_trace::Tracer;
use std::sync::Arc;

/// A 12-client Gaussian federation small enough to run many configurations.
fn gaussian_data(seed: u64) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(240, None, &mut rng);
    let parts = rfl_data::partition::iid(240, 12, &mut rng);
    let test = spec.generate(40, None, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

fn gaussian_cfg(seed: u64) -> FlConfig {
    FlConfig {
        rounds: 6,
        local_steps: 3,
        batch_size: 10,
        sample_ratio: 0.5,
        eval_every: 100,
        parallel: true,
        clip_grad_norm: Some(10.0),
        delta_probe_batch: None,
        seed,
        compression: rfl_core::compress::Compression::None,
    }
}

fn lazy_fed(data: &FederatedData, cfg: &FlConfig, seed: u64) -> Federation {
    Federation::lazy(
        Arc::new(MaterializedSource::from_federated(data)),
        data.test.clone(),
        ModelFactory::logistic(10, 4, 0.0),
        OptimizerFactory::sgd(0.1),
        cfg,
        seed,
    )
}

/// Tentpole pin: the full pipelined engine — streamed selection, prefetch
/// waves, background hibernation, arrival-order fold — reproduces the
/// canonical loss bit-exactly. Full participation means the selection is
/// RNG-free, so this is the same trajectory every other mode pins.
#[test]
fn pipelined_lazy_run_reproduces_the_canonical_pin() {
    let data = canonical::data(canonical::SEED);
    let cfg = canonical::config(canonical::SEED, canonical::ROUNDS);
    let mut fed = Federation::lazy(
        Arc::new(MaterializedSource::from_federated(&data)),
        data.test.clone(),
        canonical::model(),
        canonical::optimizer(),
        &cfg,
        canonical::SEED,
    );
    let mut algo = RFedAvgPlus::new(canonical::LAMBDA);
    let h = Trainer::new(cfg).pipelined().run(&mut algo, &mut fed);
    let loss = h.records().last().unwrap().train_loss as f64;
    assert!(
        canonical::loss_matches_pin(loss),
        "pipelined lazy run drifted from the pin: {loss:.9}"
    );
}

/// The overlap machinery is bit-invisible: a pipelined run equals the same
/// selection stream executed with serial materialization and inline
/// hibernation, loss for loss and parameter for parameter — under partial
/// participation, where prefetch waves actually carry clients, and with
/// the round thread draining them alone (budgets 1 and 2) or with two
/// helpers (budget 4).
#[test]
fn pipelined_run_matches_streamed_serial_run_bitwise() {
    let seed = 11;
    let data = gaussian_data(seed);
    let cfg = gaussian_cfg(seed);

    let mut serial = lazy_fed(&data, &cfg, seed);
    serial.enable_streamed_selection(cfg.seed, cfg.sample_ratio, cfg.rounds);
    let hs = Trainer::new(cfg).run(&mut FedAvg, &mut serial);

    let before = rfl_tensor::thread_budget();
    for budget in [1, 2, 4] {
        rfl_tensor::set_thread_budget(budget);
        let mut piped = lazy_fed(&data, &cfg, seed);
        let hp = Trainer::new(cfg).pipelined().run(&mut FedAvg, &mut piped);

        assert_eq!(hs.len(), hp.len());
        for (a, b) in hs.records().iter().zip(hp.records()) {
            assert_eq!(
                a.train_loss.to_bits(),
                b.train_loss.to_bits(),
                "budget {budget}: round {} loss diverged",
                a.round
            );
            assert_eq!(a.participants, b.participants, "round {}", a.round);
        }
        let (ga, gb) = (serial.global(), piped.global());
        assert_eq!(ga.len(), gb.len());
        assert!(
            ga.iter().zip(gb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "budget {budget}: final global parameters diverged"
        );
        // Every prefetched-but-consumed or hibernated client settled back
        // into the shards: both registries persist the same population.
        assert_eq!(serial.num_persisted(), piped.num_persisted());
    }
    rfl_tensor::set_thread_budget(before);
}

/// The engine's phases are observable: a pipelined run journals `fold` and
/// `hibernate` spans, and every cohort is journaled by whoever brought it
/// to life — the wave's owner as `prefetch`, the round thread (and its
/// helpers) as `materialize` — with client counts. An owner's span opens
/// while the round it reports to is still running: its start timestamp lies
/// inside that round's span.
#[test]
fn pipelined_run_emits_prefetch_fold_and_hibernate_spans() {
    let seed = 13;
    let data = gaussian_data(seed);
    let cfg = gaussian_cfg(seed);
    let mut fed = lazy_fed(&data, &cfg, seed);
    let tracer = Tracer::enabled();
    fed.set_tracer(tracer.clone());
    Trainer::new(cfg).pipelined().run(&mut FedAvg, &mut fed);

    let records = tracer.records();
    let count = |kind: &str| records.iter().filter(|r| r.kind == kind).count();
    // One fold per round; at least one background hibernate wave once
    // evictions start. How many `prefetch` spans there are is the race's
    // business: an owner the round thread beat to every id journals none.
    assert_eq!(count("fold"), cfg.rounds, "one fold span per round");
    assert!(count("hibernate") >= 1, "no background hibernation spans");
    for r in records.iter().filter(|r| r.kind == "prefetch") {
        // Overlap: the wave belongs to (and starts inside) a live round.
        let round = r.round.expect("prefetch spans attach to a round");
        let owner = records
            .iter()
            .find(|s| s.kind == "round" && s.round == Some(round))
            .expect("round span present");
        assert!(
            r.start_ns >= owner.start_ns && r.start_ns <= owner.start_ns + owner.dur_ns,
            "prefetch did not start inside its round"
        );
    }
    for r in records.iter().filter(|r| r.kind == "fold") {
        assert!(r.counter("dims").unwrap_or(0) > 0, "fold span lost its dim");
    }
    // Every drainer says whether the shell list hit. Every selected client
    // is brought to life once per round, by one of them; two cohorts are
    // live at once at most, so once the list holds two cohorts' worth of
    // shells nothing is ever built again.
    let cohort = (cfg.sample_ratio * data.num_clients() as f32) as u64;
    let (mut clients, mut built) = (0, 0);
    for r in records
        .iter()
        .filter(|r| r.kind == "prefetch" || r.kind == "materialize")
    {
        let get = |name| r.counter(name).expect("materialization sites count shells");
        assert_eq!(get("shells_built") + get("shells_reused"), get("clients"));
        assert!(get("clients") > 0, "an empty {} span", r.kind);
        clients += get("clients");
        built += get("shells_built");
        assert!(
            built <= 2 * cohort,
            "round {:?} built shell {built} of a {cohort}-client cohort",
            r.round
        );
    }
    assert_eq!(clients, cfg.rounds as u64 * cohort);
}

/// Serial (non-pipelined) runs still journal the fold phase — the tree
/// fold is unconditional in `collect_average`.
#[test]
fn fold_span_is_emitted_without_pipelining() {
    let seed = 17;
    let data = gaussian_data(seed);
    let cfg = gaussian_cfg(seed);
    let mut fed = lazy_fed(&data, &cfg, seed);
    let tracer = Tracer::enabled();
    fed.set_tracer(tracer.clone());
    Trainer::new(cfg).run(&mut FedAvg, &mut fed);
    let folds = tracer.records().iter().filter(|r| r.kind == "fold").count();
    assert_eq!(folds, cfg.rounds);
}
