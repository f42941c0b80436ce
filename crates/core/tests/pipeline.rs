//! The lazy round engine: determinism and observability.
//!
//! `Trainer::pipelined` draws each round's selection from a
//! round-addressable stream, and the lazy plane runs every selected
//! client's round as one job on one worker — wake, install, train, read the
//! upload, hibernate — with the workers racing over the selection. None of
//! that may show in the numbers: a run is bit-identical at any thread
//! budget, and the canonical pin survives untouched. The work itself is
//! pinned through the rfl-trace journal (`materialize`/`hibernate` spans,
//! one per worker, and the `fold`).

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

/// The canonical pin through the full engine — streamed selection,
/// per-client jobs, arrival-order fold — bit-exactly. Full participation
/// means the selection is RNG-free, so this is the same trajectory every
/// other mode pins.
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

/// Who runs which client's job is invisible: a pipelined run equals the
/// same selection stream on a serial federation, loss for loss and
/// parameter for parameter — under partial participation, where clients
/// hibernate between the rounds that sample them, on one worker (budget 1)
/// or with two or four racing over each selection.
#[test]
fn pipelined_run_matches_streamed_serial_run_bitwise() {
    let seed = 11;
    let data = gaussian_data(seed);
    let cfg = gaussian_cfg(seed);

    let serial_cfg = FlConfig {
        parallel: false,
        ..cfg
    };
    let mut serial = lazy_fed(&data, &serial_cfg, seed);
    serial.enable_streamed_selection(cfg.seed);
    let hs = Trainer::new(serial_cfg).run(&mut FedAvg, &mut serial);

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
        // Every job put its client back into the shards: both registries
        // persist the same population.
        assert_eq!(serial.num_persisted(), piped.num_persisted());
    }
    rfl_tensor::set_thread_budget(before);
}

/// The engine's work is observable: each worker that woke clients in a
/// round journals one `materialize` span (with the shell split) and one
/// `hibernate` span, between them every sampled client once a round; a
/// worker holds one live client at a time, so the run builds no more shells
/// than a round had such workers. Nothing journals a `prefetch`, and the
/// fold is one span a round.
#[test]
fn a_lazy_run_journals_each_workers_wakes_and_hibernations() {
    let seed = 13;
    let data = gaussian_data(seed);
    let cfg = gaussian_cfg(seed);
    let mut fed = lazy_fed(&data, &cfg, seed);
    let tracer = Tracer::enabled();
    fed.set_tracer(tracer.clone());
    Trainer::new(cfg).pipelined().run(&mut FedAvg, &mut fed);

    let records = tracer.records();
    let count = |kind: &str| records.iter().filter(|r| r.kind == kind).count();
    assert_eq!(count("fold"), cfg.rounds, "one fold span per round");
    assert_eq!(count("prefetch"), 0, "nothing prefetches");
    for r in records.iter().filter(|r| r.kind == "fold") {
        assert!(r.counter("dims").unwrap_or(0) > 0, "fold span lost its dim");
    }
    let cohort = (cfg.sample_ratio * data.num_clients() as f32) as u64;
    assert_eq!(count("local_train") as u64, cfg.rounds as u64 * cohort);
    let (mut built, mut workers) = (0, 0);
    for round in 0..cfg.rounds as u64 {
        let spans = |kind: &'static str| {
            let of_round = records.iter().filter(move |r| r.round == Some(round));
            of_round.filter(move |r| r.kind == kind)
        };
        let (mut woken, mut slept) = (0, 0);
        for r in spans("materialize") {
            let get = |name| r.counter(name).expect("wakes count shells");
            assert_eq!(get("shells_built") + get("shells_reused"), get("clients"));
            assert!(get("clients") > 0, "an empty materialize span");
            woken += get("clients");
            built += get("shells_built");
        }
        for r in spans("hibernate") {
            slept += r.counter("clients").expect("hibernations count clients");
        }
        assert_eq!((woken, slept), (cohort, cohort), "round {round}");
        workers = workers.max(spans("materialize").count() as u64);
    }
    assert!(
        (1..=workers).contains(&built),
        "{built} shells for at most {workers} workers a round"
    );
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
