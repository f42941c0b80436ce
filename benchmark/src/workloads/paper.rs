//! The shape `cnn_device` and `lstm_silo` share: a paper workload is a
//! dataset recipe, a model, a regularized algorithm, and a FedAvg reference
//! on the same data, all in-process over the metered `PerfectTransport`.

use crate::harness::{compare_traced, finish_traced, run_leg, setup_and_run, Leg, Opts, Outcome};
use crate::probes::Probes;
use crate::stats::median;
use rfl_core::algorithms::FedAvg;
use rfl_core::{Algorithm, Federation, FlConfig, ModelFactory, OptimizerFactory, RoundRecord};
use rfl_data::FederatedData;
use rfl_trace::Tracer;

/// Everything that differs between the two paper workloads.
pub struct Paper {
    pub name: &'static str,
    /// Measured rounds per `--seconds` second on the reference machine.
    pub rounds_per_second: usize,
    pub warm: usize,
    /// `rounds` is filled in per leg.
    pub cfg: FlConfig,
    pub model: ModelFactory,
    pub optimizer: OptimizerFactory,
    pub data: fn(u64) -> FederatedData,
    pub regularized: fn() -> Box<dyn Algorithm>,
    /// Test accuracy `quality.rounds_to_target` waits for.
    pub target_acc: f32,
    /// Closed-form bytes of one steady-state round of the regularized
    /// algorithm and of FedAvg.
    pub ledger: fn(&Federation, usize) -> (u64, u64),
    /// The layer probes at this workload's shapes:
    /// (probes, data, federation, run configuration, cohort size)
    pub probes: fn(&mut Probes, &FederatedData, &mut Federation, &FlConfig, usize),
    /// `Σ probe × calls per round`, from the recorded probe medians.
    pub explained_s: fn(&Outcome, usize) -> f64,
}

impl Paper {
    fn cfg(&self, seed: u64, rounds: usize) -> FlConfig {
        FlConfig {
            rounds,
            seed,
            ..self.cfg
        }
    }

    pub fn federation(&self, data: &FederatedData, seed: u64) -> Federation {
        Federation::new(data, self.model, self.optimizer, &self.cfg(seed, 1), seed)
    }

    /// Participants per round (`⌈SR·N⌉`, as the sampler rounds it).
    pub fn cohort(&self, n: usize) -> usize {
        ((n as f32 * self.cfg.sample_ratio).ceil() as usize).clamp(1, n)
    }
}

/// 1-based index of the first round whose test accuracy reaches `target`.
fn rounds_to_target(records: &[RoundRecord], target: f32) -> Option<usize> {
    records
        .iter()
        .position(|r| r.test_acc.is_some_and(|a| a >= target))
        .map(|i| i + 1)
}

/// The shared leg checks, plus: training made progress.
fn check_leg(out: &mut Outcome, what: &str, leg: &Leg, cohort: usize, bytes: u64) {
    leg.check(out, what, cohort, bytes);
    let (first, last) = (
        leg.all()[0].train_loss,
        leg.all()[leg.all().len() - 1].train_loss,
    );
    out.check(
        format!("{what}: loss ends below where it started ({first} -> {last})"),
        last < first,
    );
}

pub fn run(spec: &Paper, opts: &Opts) -> Outcome {
    if opts.trace {
        traced(spec, opts)
    } else {
        untraced(spec, opts)
    }
}

/// The end-to-end pass: set up three times, then the full measured window
/// of the regularized algorithm.
fn untraced(spec: &Paper, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let measured = opts.rounds(spec.rounds_per_second, 1);
    let cfg = spec.cfg(opts.seed, spec.warm + measured);
    let (leg, setups, fed) = setup_and_run(
        || spec.federation(&(spec.data)(opts.seed), opts.seed),
        spec.regularized,
        cfg,
        spec.warm,
        false,
    );
    let cohort = spec.cohort(fed.num_clients());
    let (reg_bytes, _) = (spec.ledger)(&fed, cohort);
    out.note(
        "cohort",
        format!(
            "{cohort} of {} clients per round (closed loop)",
            fed.num_clients()
        ),
    );
    out.note(
        "rounds",
        format!("{} warm-up + {measured} measured", spec.warm),
    );
    out.note("target_acc", spec.target_acc);
    leg.put_end_to_end(&mut out);
    out.put_samples("setup_s", &setups);
    check_leg(&mut out, "regularized leg", &leg, cohort, reg_bytes);
    let reached = rounds_to_target(leg.all(), spec.target_acc);
    out.note(
        "rounds_to_target",
        reached.map_or("not reached".into(), |r| r.to_string()),
    );
    out.check(
        format!("test accuracy reaches {} within the run", spec.target_acc),
        reached.is_some(),
    );
    out.put("peak_rss_mb", rfl_core::mem::peak_rss_bytes() as f64 / 1e6);
    out
}

/// The per-layer pass at thread budget 1: an untraced leg of half the
/// rounds, a traced leg of a quarter (same seed, so its losses must match
/// the untraced leg's bit for bit), the FedAvg reference, the probes.
fn traced(spec: &Paper, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::enabled();
    let setup_span = tracer.begin_run("setup");
    let data = (spec.data)(opts.seed);
    drop(setup_span);
    let half = opts.rounds(spec.rounds_per_second, 2);
    let quarter = opts.rounds(spec.rounds_per_second, 4);
    let reference = opts.rounds(spec.rounds_per_second, 1) * 3 / 8;

    let mut fed = spec.federation(&data, opts.seed);
    let cohort = spec.cohort(fed.num_clients());
    let (reg_bytes, fedavg_bytes) = (spec.ledger)(&fed, cohort);
    let plain = run_leg(
        (spec.regularized)().as_mut(),
        &mut fed,
        spec.cfg(opts.seed, spec.warm + half),
        spec.warm,
        false,
    );
    check_leg(&mut out, "untraced leg", &plain, cohort, reg_bytes);

    let mut traced_fed = spec.federation(&data, opts.seed);
    traced_fed.set_tracer(tracer.clone());
    let run_span = tracer.begin_run("trainer:regularized");
    let spans = run_leg(
        (spec.regularized)().as_mut(),
        &mut traced_fed,
        spec.cfg(opts.seed, spec.warm + quarter),
        spec.warm,
        false,
    );
    drop(run_span);
    check_leg(&mut out, "traced leg", &spans, cohort, reg_bytes);
    // Untraced like the leg it is compared with; only the benchmark's own
    // span marks it in the journal.
    let mut fedavg_fed = spec.federation(&data, opts.seed);
    let run_span = tracer.begin_run("trainer:FedAvg");
    let fedavg = run_leg(
        &mut FedAvg::new(),
        &mut fedavg_fed,
        spec.cfg(opts.seed, spec.warm + reference),
        spec.warm,
        false,
    );
    drop(run_span);
    check_leg(&mut out, "FedAvg leg", &fedavg, cohort, fedavg_bytes);
    out.note(
        "rounds",
        format!(
            "warm-up {} + untraced {half} / traced {quarter} / FedAvg {reference}",
            spec.warm
        ),
    );

    let fedavg_round_s = median(&fedavg.round_secs());
    out.put_samples("algo.fedavg_round_s", &fedavg.round_secs());
    out.put(
        "algo.reg_over_fedavg",
        median(&plain.round_secs()) / fedavg_round_s,
    );

    let budget = compare_traced(
        &mut out,
        &tracer,
        &plain.series(),
        &spans.series(),
        spec.warm,
    );
    out.check(
        format!(
            "local_train is the largest phase (found {})",
            budget.largest()
        ),
        budget.largest() == "local_train",
    );

    let full_cfg = spec.cfg(opts.seed, 1);
    let mut probes = Probes {
        out: &mut out,
        tracer: &tracer,
    };
    (spec.probes)(&mut probes, &data, &mut fed, &full_cfg, cohort);
    let explained = (spec.explained_s)(&out, cohort);
    out.put(
        "budget.explained_share",
        explained / median(&plain.round_secs()),
    );

    out.put(
        "quality.final_train_loss",
        plain.all()[plain.all().len() - 1].train_loss as f64,
    );
    if let Some(acc) = plain.all()[plain.all().len() - 1].test_acc {
        out.put("quality.final_test_acc", acc as f64);
    }
    // Reported, not checked, here: this leg runs half the rounds, and the
    // untraced pass already fails a seed that never reaches the target.
    out.note("target_acc", spec.target_acc);
    if let Some(r) = rounds_to_target(plain.all(), spec.target_acc) {
        out.put("quality.rounds_to_target", r as f64);
        let secs: f64 = plain.all()[..r].iter().map(|rec| rec.seconds).sum();
        out.put("quality.time_to_target_s", secs);
    }
    finish_traced(&mut out, spec.name, &tracer);
    out
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The example values of a dataset, as bit patterns (the synthetic
    /// generators deal labels round-robin, so labels do not tell seeds
    /// apart).
    pub fn fingerprint(data: &rfl_data::Dataset) -> Vec<u32> {
        match rfl_core::eval::to_input(data.examples()) {
            rfl_nn::Input::Images(t) | rfl_nn::Input::Dense(t) => {
                t.data().iter().map(|v| v.to_bits()).collect()
            }
            rfl_nn::Input::Tokens(seqs) => seqs.into_iter().flatten().collect(),
        }
    }

    /// `--seed` generates the inputs: a different seed gives different
    /// data, the same seed the same data, and the exact-count metrics'
    /// definitions (cohort size, closed-form bytes) do not move with it.
    pub fn seed_moves_data_not_definitions(spec: &Paper) {
        let (a, again, b) = ((spec.data)(1), (spec.data)(1), (spec.data)(2));
        assert_eq!(fingerprint(&a.test), fingerprint(&again.test));
        assert_ne!(fingerprint(&a.test), fingerprint(&b.test));
        let (fa, fb) = (spec.federation(&a, 1), spec.federation(&b, 2));
        assert_ne!(
            fa.global(),
            fb.global(),
            "the seed also draws the initialization"
        );
        let cohort = spec.cohort(fa.num_clients());
        assert_eq!(cohort, spec.cohort(fb.num_clients()));
        assert_eq!((spec.ledger)(&fa, cohort), (spec.ledger)(&fb, cohort));
    }

    #[test]
    fn target_is_the_first_round_at_or_above_the_level() {
        let rec = |acc: Option<f32>| RoundRecord {
            round: 0,
            train_loss: 1.0,
            reg_loss: 0.0,
            test_loss: acc,
            test_acc: acc,
            seconds: 0.1,
            down_bytes: 0,
            up_bytes: 0,
            delta_bytes: 0,
            participants: 1,
            delivered: 1,
            dropped_msgs: 0,
            retries: 0,
            rss_bytes: 0,
            peak_rss_bytes: 0,
        };
        let records = [rec(Some(0.1)), rec(None), rec(Some(0.25)), rec(Some(0.2))];
        assert_eq!(rounds_to_target(&records, 0.25), Some(3));
        assert_eq!(rounds_to_target(&records, 0.3), None);
    }
}
