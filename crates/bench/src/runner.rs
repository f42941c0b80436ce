//! Suite execution: run a set of algorithms over repeated seeds and render
//! the paper-style outputs.

use crate::args::ExpArgs;
use crate::setup::Scenario;
use rfl_core::prelude::*;
use rfl_core::Federation;
use rfl_metrics::{mean_std, Series, TextTable};

/// All histories of one algorithm across seeds.
pub struct SuiteResult {
    pub name: &'static str,
    pub histories: Vec<History>,
}

impl SuiteResult {
    /// Final test accuracies across seeds.
    pub fn final_accuracies(&self) -> Vec<f64> {
        self.histories
            .iter()
            .map(|h| h.final_accuracy().unwrap_or(0.0) as f64)
            .collect()
    }

    /// The `mean ± std` final-accuracy cell every table prints.
    pub fn accuracy_cell(&self) -> String {
        mean_std(&self.final_accuracies()).fmt_pm(true)
    }

    /// Mean over seeds of the wall-clock seconds per round.
    pub fn mean_round_seconds(&self) -> f64 {
        let total: f64 = self.histories.iter().map(|h| h.mean_round_seconds()).sum();
        total / self.histories.len() as f64
    }

    /// Mean accuracy curve across seeds (x = round).
    pub fn mean_accuracy_series(&self) -> Series {
        self.mean_series(|r| r.test_acc.map(|a| a as f64))
    }

    /// Mean train-loss curve across seeds.
    pub fn mean_loss_series(&self) -> Series {
        self.mean_series(|r| Some(r.train_loss as f64))
    }

    fn mean_series(&self, get: impl Fn(&rfl_core::RoundRecord) -> Option<f64>) -> Series {
        let mut s = Series::new(self.name);
        if self.histories.is_empty() {
            return s;
        }
        let rounds = self.histories[0].len();
        for r in 0..rounds {
            let vals: Vec<f64> = self
                .histories
                .iter()
                .filter_map(|h| h.records().get(r).and_then(&get))
                .collect();
            if !vals.is_empty() {
                s.push(r as f64, vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        s
    }
}

/// Builds one method from a scenario's hyper-parameters (fresh state per
/// repetition).
pub(crate) type MakeAlgo = fn(&Scenario) -> Box<dyn Algorithm>;

/// The paper's six compared methods, in the order every table prints them.
pub(crate) const METHODS: [(&str, MakeAlgo); 6] = [
    ("FedAvg", |_| Box::new(FedAvg::new())),
    ("FedProx", |sc| Box::new(FedProx::new(sc.prox_mu))),
    ("Scaffold", |_| Box::new(Scaffold::new(1.0))),
    ("q-FedAvg", |sc| Box::new(QFedAvg::new(sc.qfed_q))),
    ("rFedAvg", |sc| Box::new(RFedAvg::new(sc.lambda))),
    ("rFedAvg+", |sc| Box::new(RFedAvgPlus::new(sc.lambda))),
];

/// The [`METHODS`] row called `name`.
pub(crate) fn method(name: &str) -> (&'static str, MakeAlgo) {
    *METHODS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no method called '{name}'"))
}

/// One seeded repetition: the scenario's federation on fresh data, trained
/// by a fresh `make(sc)` under `cfg` reseeded with `seed`.
pub(crate) fn run_once(
    sc: &Scenario,
    cfg: &FlConfig,
    seed: u64,
    args: &ExpArgs,
    make: impl Fn(&Scenario) -> Box<dyn Algorithm>,
) -> (History, Federation) {
    run_prepared(sc, cfg, seed, args, make, |_| {})
}

/// [`run_once`] with `prepare` applied to the federation before it trains
/// (a lossy transport, a straggler model).
pub(crate) fn run_prepared(
    sc: &Scenario,
    cfg: &FlConfig,
    seed: u64,
    args: &ExpArgs,
    make: impl Fn(&Scenario) -> Box<dyn Algorithm>,
    prepare: impl FnOnce(&mut Federation),
) -> (History, Federation) {
    let run_cfg = FlConfig { seed, ..*cfg };
    let mut fed = sc.federation(&run_cfg, seed, &args.tracer);
    prepare(&mut fed);
    let history = Trainer::new(run_cfg).run(make(sc).as_mut(), &mut fed);
    (history, fed)
}

/// Runs every algorithm for `args.seeds` repetitions on freshly built data.
pub fn run_suite<F: Fn(&Scenario) -> Box<dyn Algorithm>>(
    sc: &Scenario,
    cfg: &FlConfig,
    args: &ExpArgs,
    algos: &[(&'static str, F)],
) -> Vec<SuiteResult> {
    eprintln!("running {} ...", sc.name);
    algos
        .iter()
        .map(|(name, make)| {
            let histories = (0..args.seeds)
                .map(|rep| {
                    let seed = cfg.seed + rep as u64 * 1000 + 17;
                    run_once(sc, cfg, seed, args, make).0
                })
                .collect();
            SuiteResult { name, histories }
        })
        .collect()
}

/// Renders the Tables I/II style `method × final accuracy` table.
pub fn suite_table(results: &[SuiteResult], header: [&str; 2]) -> TextTable {
    let mut t = TextTable::new(&header);
    for r in results {
        t.row(&[r.name.to_string(), r.accuracy_cell()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;
    use crate::setup::{fl_config, mnist_scenario};

    #[test]
    fn run_suite_produces_one_result_per_algorithm() {
        let sc = mnist_scenario(Scale::Quick, true, 1.0);
        let mut cfg = fl_config(Scale::Quick, true);
        cfg.rounds = 2;
        cfg.eval_every = 2;
        let args = ExpArgs {
            seeds: 1,
            ..ExpArgs::default()
        };
        let algos = ["FedAvg", "rFedAvg", "rFedAvg+"].map(method);
        let results = run_suite(&sc, &cfg, &args, &algos);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.histories.len(), 1);
            assert_eq!(r.histories[0].len(), 2);
            assert!(r.final_accuracies()[0] > 0.0);
        }
        let table = suite_table(&results, ["Method", "Acc"]);
        assert_eq!(table.num_rows(), 3);
        let series = results[0].mean_accuracy_series();
        assert!(!series.is_empty());
    }
}
