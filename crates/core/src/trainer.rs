//! The round loop driving any [`Algorithm`] over a [`Federation`].

use crate::federation::{fault_counters, Federation, FlConfig, Meter};
use crate::history::{History, RoundRecord};
use crate::plane::Unsupported;
pub use crate::round::{Algorithm, RoundOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_trace::Stopwatch;

/// A per-round observer callback.
pub(crate) type RoundObserver = Box<dyn FnMut(&RoundRecord) + Send>;

/// Runs an algorithm for `cfg.rounds` rounds, recording history.
pub struct Trainer {
    cfg: FlConfig,
    /// Per-round callback (progress reporting in experiment binaries).
    on_round: Option<RoundObserver>,
    /// Draw each round's selection from a round-addressable
    /// [`crate::sampling::SelectionStream`].
    pipelined: bool,
}

impl Trainer {
    /// Panics on `eval_every: 0`: the schedule is "every `eval_every`-th
    /// round and the last one" (`rounds` for the last one only).
    pub fn new(cfg: FlConfig) -> Self {
        assert!(
            cfg.eval_every >= 1,
            "FlConfig::eval_every must be at least 1 (use `rounds` to evaluate only the final round)"
        );
        Trainer {
            cfg,
            on_round: None,
            pipelined: false,
        }
    }

    /// Draws each round's selection from a
    /// [`crate::sampling::SelectionStream`] seeded with `cfg.seed`
    /// ([`Federation::enable_streamed_selection`]); the selection
    /// *sequence* differs from the rng-threaded draw when `sample_ratio <
    /// 1`. The in-process plane already runs each client's wake, training,
    /// upload and hibernation as one job, so nothing else changes.
    pub fn pipelined(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Installs a per-round observer.
    pub fn with_observer(mut self, f: impl FnMut(&RoundRecord) + Send + 'static) -> Self {
        self.on_round = Some(Box::new(f));
        self
    }

    /// Runs the full training loop; panics where [`Trainer::try_run`]
    /// would refuse.
    pub fn run(&mut self, algo: &mut dyn Algorithm, fed: &mut Federation) -> History {
        self.try_run(algo, fed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the full training loop, after checking — before any frame is
    /// sent — that `fed`'s client plane offers what `algo`'s hooks need.
    pub fn try_run(
        &mut self,
        algo: &mut dyn Algorithm,
        fed: &mut Federation,
    ) -> Result<History, Unsupported> {
        fed.check(algo)?;
        let mut history = History::new();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5EED_5EED);
        if self.pipelined {
            fed.enable_streamed_selection(self.cfg.seed);
        }
        let run_span = fed.tracer().begin_run(algo.name());
        for round in 0..self.cfg.rounds {
            let mut round_span = fed.tracer().begin_round(round);
            fed.begin_round(round as u64);
            let meter = Meter::start(fed);
            let sw = Stopwatch::start();
            let outcome = crate::round::run_round(algo, fed, &self.cfg, &mut rng);
            let seconds = sw.elapsed_secs();
            let (comm, faults) = meter.stop(fed);

            let do_eval = (round + 1) % self.cfg.eval_every == 0 || round + 1 == self.cfg.rounds;
            let eval = do_eval.then(|| fed.evaluate_global());

            let (rss_bytes, peak_rss_bytes) = crate::mem::rss_and_peak_bytes();
            round_span.counter("bytes_down", comm.download_bytes());
            round_span.counter("bytes_up", comm.upload_bytes());
            round_span.counter("bytes_delta", comm.delta_bytes());
            round_span.counter("participants", outcome.selected.len() as u64);
            if rss_bytes > 0 {
                round_span.counter("rss_bytes", rss_bytes);
            }
            fault_counters(&mut round_span, &faults);
            drop(round_span);

            let record = RoundRecord {
                round,
                train_loss: outcome.train_loss,
                reg_loss: outcome.reg_loss,
                test_loss: eval.map(|e| e.loss),
                test_acc: eval.map(|e| e.accuracy),
                seconds,
                down_bytes: comm.download_bytes(),
                up_bytes: comm.upload_bytes(),
                delta_bytes: comm.delta_bytes(),
                participants: outcome.selected.len(),
                delivered: outcome.delivered.len(),
                dropped_msgs: faults.dropped,
                retries: faults.retries,
                rss_bytes,
                peak_rss_bytes,
            };
            if let Some(obs) = &mut self.on_round {
                obs(&record);
            }
            history.push(record);
        }
        drop(run_span);
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{ModelFactory, OptimizerFactory};
    use rfl_data::synth::gaussian::GaussianMixtureSpec;
    use rfl_data::FederatedData;

    /// FedAvg under another name: every hook at its default.
    struct NoopAlgo;

    impl Algorithm for NoopAlgo {
        fn name(&self) -> &'static str {
            "noop"
        }
    }

    fn tiny_fed(seed: u64) -> (Federation, FlConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(40, None, &mut rng);
        let parts = rfl_data::partition::iid(40, 2, &mut rng);
        let test = spec.generate(16, None, &mut rng);
        let data = FederatedData::from_partition(&pool, &parts, test);
        let cfg = FlConfig {
            rounds: 5,
            eval_every: 2,
            parallel: false,
            batch_size: 8,
            ..FlConfig::cross_silo()
        };
        let fed = Federation::new(
            &data,
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.1),
            &cfg,
            seed,
        );
        (fed, cfg)
    }

    #[test]
    fn records_every_round_and_evals_on_schedule() {
        let (mut fed, cfg) = tiny_fed(0);
        let h = Trainer::new(cfg).run(&mut NoopAlgo, &mut fed);
        assert_eq!(h.len(), 5);
        // eval_every = 2 → rounds 1, 3 evaluated, plus the final round 4.
        let evals: Vec<usize> = h
            .records()
            .iter()
            .filter(|r| r.test_acc.is_some())
            .map(|r| r.round)
            .collect();
        assert_eq!(evals, vec![1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "FlConfig::eval_every must be at least 1")]
    fn a_zero_evaluation_period_is_refused_before_any_round_trains() {
        let (_, cfg) = tiny_fed(3);
        Trainer::new(FlConfig {
            eval_every: 0,
            ..cfg
        });
    }

    #[test]
    fn observer_sees_every_record() {
        let (mut fed, cfg) = tiny_fed(2);
        let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c2 = count.clone();
        let mut t = Trainer::new(cfg).with_observer(move |_| {
            c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        t.run(&mut NoopAlgo, &mut fed);
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 5);
    }
}
