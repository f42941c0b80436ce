//! Experiments beyond the paper's evaluation: its future-work directions
//! (Sec. VII) and two system conditions — stragglers and lossy links.

use crate::args::{print_table, ExpArgs};
use crate::runner::{method, run_once, run_prepared, run_suite, suite_table, MakeAlgo};
use crate::setup::{cifar_scenario, fl_config};
use rfl_core::personalization::{mean_gain, personalize_all};
use rfl_core::prelude::*;
use rfl_metrics::{mean_std, TextTable};

/// Extensions along the paper's future-work directions:
///
/// 1. **Personalization** — fine-tune the final global model locally and
///    compare global vs personalized per-client accuracy, for FedAvg vs
///    rFedAvg+ (does the regularized global model personalize better?);
/// 2. **Adaptive participant selection** — Power-of-Choice (loss-biased)
///    selection with and without the distribution regularizer, vs uniform
///    sampling, on non-IID data with partial participation;
/// 3. **Server momentum** — FedAvgM as an extra stabilized baseline.
pub(crate) fn future_work(args: &ExpArgs) {
    println!(
        "== Extensions: future-work directions ({:?}) ==\n",
        args.scale
    );

    println!("-- personalization: global vs locally fine-tuned accuracy --");
    let sc = cifar_scenario(args.scale, true, 0.0);
    let cfg = fl_config(args.scale, true);
    let mut t = TextTable::new(&["Base algorithm", "global local-acc", "personalized", "gain"]);
    for name in ["FedAvg", "rFedAvg+"] {
        let (_, mut fed) = run_once(&sc, &cfg, 23, args, method(name).1);
        let results = personalize_all(&mut fed, 20, 32);
        let global: Vec<f64> = results.iter().map(|r| r.global.accuracy as f64).collect();
        let tuned: Vec<f64> = results
            .iter()
            .map(|r| r.personalized.accuracy as f64)
            .collect();
        t.row(&[
            name.to_string(),
            format!("{:.1}%", mean_std(&global).mean * 100.0),
            format!("{:.1}%", mean_std(&tuned).mean * 100.0),
            format!("{:+.1}%", mean_gain(&results) * 100.0),
        ]);
    }
    print_table(args, "ext_personalization.csv", &t);

    println!("-- adaptive selection & server momentum (cifar-like, device, sim 0%) --");
    let sc = cifar_scenario(args.scale, false, 0.0);
    let algos: [(&str, MakeAlgo); 5] = [
        ("FedAvg (uniform)", method("FedAvg").1),
        ("FedAvgM β=0.7", |_| Box::new(FedAvgM::new(0.7))),
        ("rFedAvg+ (uniform)", method("rFedAvg+").1),
        ("PoC-FedAvg (loss-biased)", |_| {
            Box::new(PowerOfChoice::new(2.0, 0.0))
        }),
        ("PoC-rFedAvg+ (loss-biased + reg)", |sc| {
            Box::new(PowerOfChoice::new(2.0, sc.lambda))
        }),
    ];
    let results = run_suite(&sc, &fl_config(args.scale, false), args, &algos);
    let t = suite_table(&results, ["Strategy", "final acc"]);
    print_table(args, "ext_selection.csv", &t);
}

/// Extension: system heterogeneity (stragglers). Each round, every
/// participant completes only a random fraction of the nominal `E` local
/// steps — the scenario FedProx's proximal term targets. Compares FedAvg,
/// FedProx, and rFedAvg+ under increasing straggler severity.
///
/// Runs entirely on the framework API: a [`StragglerModel`] installed on the
/// `Federation` draws each participant's per-round step count
/// `Uniform{⌈(1−drop)·E⌉, …, E}` deterministically, and the unmodified
/// algorithms run through [`Trainer`].
pub(crate) fn stragglers(args: &ExpArgs) {
    println!("== Extension: stragglers (variable local work) ==\n");
    let sc = cifar_scenario(args.scale, true, 0.0);
    let cfg = fl_config(args.scale, true);
    let mut t = TextTable::new(&["drop rate", "FedAvg", "FedProx", "rFedAvg+"]);
    for drop in [0.0f64, 0.5, 0.9] {
        let mut row = vec![format!("{:.0}%", drop * 100.0)];
        let min_steps = ((1.0 - drop) * cfg.local_steps as f64).ceil().max(1.0) as usize;
        for (name, make) in ["FedAvg", "FedProx", "rFedAvg+"].map(method) {
            eprintln!("running {name} at drop {drop} ...");
            let accs: Vec<f64> = (0..args.seeds)
                .map(|rep| {
                    let seed = 100 + rep as u64;
                    let stragglers = StragglerModel::new(seed ^ 0xABCD, min_steps);
                    let (_, mut fed) = run_prepared(&sc, &cfg, seed, args, make, |fed| {
                        fed.set_straggler_model(Some(stragglers))
                    });
                    fed.evaluate_global().accuracy as f64
                })
                .collect();
            row.push(mean_std(&accs).fmt_pm(true));
        }
        t.row(&row);
    }
    print_table(args, "ext_stragglers.csv", &t);
}

/// Extension: lossy networks. Replaces the default perfect transport with
/// [`FaultyTransport`] at increasing per-link drop probabilities (one retry
/// per message) and measures how FedAvg and rFedAvg+ degrade when model and
/// δ messages can vanish: dropped uploads are excluded from aggregation
/// (weights renormalized over the survivors) and dropped δ messages degrade
/// clients to unregularized local training for the round.
pub(crate) fn lossy(args: &ExpArgs) {
    println!("== Extension: lossy networks (drops, retries, renormalized aggregation) ==\n");
    let sc = cifar_scenario(args.scale, true, 0.0);
    let cfg = fl_config(args.scale, true);
    let mut t = TextTable::new(&[
        "drop rate",
        "method",
        "accuracy",
        "delivery",
        "dropped",
        "retries",
    ]);
    for drop in [0.0f64, 0.1, 0.3] {
        for (name, make) in ["FedAvg", "rFedAvg+"].map(method) {
            eprintln!("running {name} at drop {drop} ...");
            let (mut accs, mut delivery, mut dropped, mut retries) = (Vec::new(), 0.0, 0, 0);
            for rep in 0..args.seeds {
                let seed = 200 + rep as u64;
                let (h, mut fed) = run_prepared(&sc, &cfg, seed, args, make, |fed| {
                    if drop > 0.0 {
                        let net = FaultConfig::lossy(seed ^ 0x10557, drop, 1);
                        fed.set_transport(Box::new(FaultyTransport::new(net)));
                    }
                });
                accs.push(fed.evaluate_global().accuracy as f64);
                delivery += h.mean_delivery_rate();
                let faults = fed.fault_stats();
                dropped += faults.dropped;
                retries += faults.retries;
            }
            let (delivery, seeds) = (delivery / args.seeds as f64, args.seeds as u64);
            t.row(&[
                format!("{:.0}%", drop * 100.0),
                name.to_string(),
                mean_std(&accs).fmt_pm(true),
                format!("{delivery:.3}"),
                (dropped / seeds).to_string(),
                (retries / seeds).to_string(),
            ]);
        }
    }
    print_table(args, "ext_lossy.csv", &t);
}
