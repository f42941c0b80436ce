//! `scale_lazy` — 100,000 registered clients, 1 % sampled, FedAvg on the
//! pipelined round engine over a generate-on-demand source.
//!
//! Materialize / hibernate / wake, data synthesis, the selection stream,
//! prefetch overlap and the 1,000-way tree fold dominate; kernels are
//! trivial. The only workload where memory is the point.

use crate::harness::{compare_traced, finish_traced, run_leg, setup_and_run, Leg, Opts, Outcome};
use crate::ledger;
use crate::probes::Probes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::FedAvg;
use rfl_core::compress::Compression;
use rfl_core::sampling::SelectionStream;
use rfl_core::{
    Algorithm, ClientDataSource, ClientRegistry, Federation, FlConfig, LocalRule, ModelFactory,
    OptimizerFactory,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::Tensor;
use rfl_trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "scale_lazy";
const CLIENTS: usize = 100_000;
const SAMPLES_PER_CLIENT: usize = 32;
const DIM: usize = 32;
const CLASSES: usize = 4;
const SAMPLE_RATIO: f32 = 0.01;
const COHORT: usize = 1_000;
const ROUNDS_PER_SECOND: usize = 30;
const WARM: usize = 10;
/// Clients the registry probe builds, hibernates and wakes.
const REGISTRY_PROBE_CLIENTS: usize = 10_000;

const SPEC: GaussianMixtureSpec = GaussianMixtureSpec {
    dim: DIM,
    classes: CLASSES,
    sep: 2.0,
    noise: 1.0,
    mean_seed: 45,
};

/// Client `k`'s shard is a pure function of `(seed, k)`: a hibernated
/// client rebuilds the identical data on every wake and the registry never
/// stores data for unsampled clients (the `bench_scale` source).
struct GaussianSource {
    means: Tensor,
    seed: u64,
}

impl ClientDataSource for GaussianSource {
    fn num_clients(&self) -> usize {
        CLIENTS
    }
    fn num_samples(&self, _k: usize) -> usize {
        SAMPLES_PER_CLIENT
    }
    fn dataset(&self, k: usize) -> Dataset {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shift = SPEC.random_shift(1.0, &mut rng);
        SPEC.generate_with_means(&self.means, SAMPLES_PER_CLIENT, Some(&shift), &mut rng)
    }
}

fn source(seed: u64) -> Arc<GaussianSource> {
    Arc::new(GaussianSource {
        means: SPEC.means(),
        seed,
    })
}

fn model() -> ModelFactory {
    ModelFactory::logistic(DIM, CLASSES, 0.0)
}

fn optimizer() -> OptimizerFactory {
    OptimizerFactory::sgd(0.05)
}

fn cfg(seed: u64, rounds: usize) -> FlConfig {
    FlConfig {
        rounds,
        local_steps: 1,
        batch_size: 8,
        sample_ratio: SAMPLE_RATIO,
        // The trainer still evaluates the final round.
        eval_every: usize::MAX,
        parallel: true,
        clip_grad_norm: None,
        delta_probe_batch: None,
        seed,
        compression: Compression::None,
    }
}

fn federation(seed: u64) -> Federation {
    let test = SPEC.generate(64, None, &mut StdRng::seed_from_u64(seed));
    Federation::lazy(
        source(seed),
        test,
        model(),
        optimizer(),
        &cfg(seed, 1),
        seed,
    )
}

fn fedavg() -> Box<dyn Algorithm> {
    Box::new(FedAvg::new())
}

fn check_leg(out: &mut Outcome, what: &str, leg: &Leg, params: usize) {
    leg.check(out, what, COHORT, ledger::fedavg_round(COHORT, params));
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    out.note(
        "cohort",
        format!("{COHORT} of {CLIENTS} registered clients per round (closed loop, pipelined)"),
    );
    if opts.trace {
        traced(opts, &mut out);
    } else {
        let measured = opts.rounds(ROUNDS_PER_SECOND, 1);
        out.note("rounds", format!("{WARM} warm-up + {measured} measured"));
        let (leg, setups, fed) = setup_and_run(
            || federation(opts.seed),
            fedavg,
            cfg(opts.seed, WARM + measured),
            WARM,
            true,
        );
        leg.put_end_to_end(&mut out);
        out.put_samples("setup_s", &setups);
        check_leg(&mut out, "FedAvg leg", &leg, fed.num_params());
        out.note("persisted_clients", fed.num_persisted());
        out.put("peak_rss_mb", rfl_core::mem::peak_rss_bytes() as f64 / 1e6);
    }
    out
}

fn traced(opts: &Opts, out: &mut Outcome) {
    let tracer = Tracer::enabled();
    let quarter = opts.rounds(ROUNDS_PER_SECOND, 4);
    out.note(
        "rounds",
        format!("warm-up {WARM} + untraced {quarter} / traced {quarter}"),
    );
    let run_cfg = cfg(opts.seed, WARM + quarter);

    let mut fed = federation(opts.seed);
    let plain = run_leg(&mut FedAvg::new(), &mut fed, run_cfg, WARM, true);
    check_leg(out, "untraced leg", &plain, fed.num_params());
    drop(fed);

    let setup_span = tracer.begin_run("setup");
    let mut fed = federation(opts.seed);
    drop(setup_span);
    fed.set_tracer(tracer.clone());
    let run_span = tracer.begin_run("trainer:FedAvg");
    let spans = run_leg(&mut FedAvg::new(), &mut fed, run_cfg, WARM, true);
    drop(run_span);
    check_leg(out, "traced leg", &spans, fed.num_params());
    compare_traced(out, &tracer, &plain.series(), &spans.series(), WARM);
    let params = fed.num_params();
    drop(fed);

    let mut probes = Probes {
        out,
        tracer: &tracer,
    };
    let src = source(opts.seed);
    let mut k = 0usize;
    probes.time("data.synth_gaussian_s", || {
        k += 1;
        std::hint::black_box(src.dataset(k));
    });
    let stream = SelectionStream::new(opts.seed);
    let mut round = 0usize;
    probes.time("sampling.select_s", || {
        round += 1;
        std::hint::black_box(stream.select(round, CLIENTS, SAMPLE_RATIO));
    });
    probes.fold("aggregate.fold_wide_s", COHORT, params, false);
    probes.fold("aggregate.fold_reordered_s", COHORT, params, true);
    let run_cfg = cfg(opts.seed, 1);
    registry_probe(&mut probes, opts.seed, &run_cfg);

    // One round, serially: the selection, then per participant a (mostly
    // first-time) materialization, one local step and a hibernation, then
    // the wide fold. The pipelined engine overlaps the registry work with
    // training, so this can exceed 1.
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    let explained = get("sampling.select_s")
        + COHORT as f64
            * (get("registry.materialize_s")
                + get("client.train_plain_s")
                + get("registry.hibernate_s"))
        + get("aggregate.fold_wide_s");
    out.put(
        "budget.explained_share",
        explained / crate::stats::median(&plain.round_secs()),
    );
    finish_traced(out, NAME, &tracer);
}

/// Builds, hibernates, wakes and trains [`REGISTRY_PROBE_CLIENTS`] clients
/// of a fresh registry, timing each call, and charges the resident growth
/// to the persisted clients.
fn registry_probe(p: &mut Probes, seed: u64, cfg: &FlConfig) {
    let _span = p.tracer.begin_run("probe:registry");
    let init = {
        let mut g = Vec::new();
        model().build(seed).read_params(&mut g);
        g
    };
    let rss_before = rfl_core::mem::current_rss_bytes();
    let registry = ClientRegistry::new(source(seed), model(), optimizer(), cfg, seed, init);
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut clients = Vec::with_capacity(REGISTRY_PROBE_CLIENTS);
    let fresh: Vec<f64> = (0..REGISTRY_PROBE_CLIENTS)
        .map(|k| timed(&mut || clients.push(registry.materialize(k))))
        .collect();
    p.out.put_samples("registry.materialize_s", &fresh);
    let hibernate: Vec<f64> = clients
        .drain(..)
        .map(|c| {
            let mut c = Some(c);
            timed(&mut || registry.hibernate(c.take().expect("one client")))
        })
        .collect();
    p.out.put_samples("registry.hibernate_s", &hibernate);
    let persisted = registry.num_persisted();
    let grown = rfl_core::mem::current_rss_bytes().saturating_sub(rss_before);
    p.out.put(
        "registry.rss_per_persisted_b",
        grown as f64 / persisted.max(1) as f64,
    );
    let wake: Vec<f64> = (0..REGISTRY_PROBE_CLIENTS)
        .map(|k| timed(&mut || clients.push(registry.materialize(k))))
        .collect();
    p.out.put_samples("registry.wake_s", &wake);
    // A round trains every participant exactly once, fresh out of the
    // registry, so the step pays the replica's first-use buffer sizing;
    // timing a warm replica would understate it tenfold.
    let mut examples = 0;
    let train: Vec<f64> = clients
        .iter_mut()
        .map(|c| {
            timed(&mut || examples = c.train_local(cfg.local_steps, &LocalRule::Plain).examples)
        })
        .collect();
    p.out.put_samples("client.train_plain_s", &train);
    let per_call = p.out.get("client.train_plain_s").expect("just recorded");
    p.out
        .put("client.examples_per_s", examples as f64 / per_call);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_data_and_leaves_the_exact_counts_alone() {
        let (a, again, b) = (source(1), source(1), source(2));
        use crate::workloads::paper::tests::fingerprint;
        assert_eq!(fingerprint(&a.dataset(7)), fingerprint(&again.dataset(7)));
        assert_ne!(fingerprint(&a.dataset(7)), fingerprint(&b.dataset(7)));
        assert_ne!(fingerprint(&a.dataset(7)), fingerprint(&a.dataset(8)));
        // Whatever the seed, the stream selects exactly the cohort and the
        // model has the ledger's dimension.
        for seed in [1, 2] {
            let selected = SelectionStream::new(seed).select(3, CLIENTS, SAMPLE_RATIO);
            assert_eq!(selected.len(), COHORT);
        }
        assert_eq!(model().build(1).num_params(), DIM * CLASSES + CLASSES);
    }
}
