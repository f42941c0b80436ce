//! Fig. 11: fairness evaluation — per-client accuracy of the final global
//! model under FedAvg vs rFedAvg+ on the MNIST-like and CIFAR10-like
//! benchmarks (cross-silo, sim 0%). The paper's claim: the regularized
//! method lifts the *worst* clients, not just the average.

use crate::args::{write_output, ExpArgs};
use crate::runner::{method, run_once};
use crate::setup::{cifar_scenario, fl_config, mnist_scenario};
use rfl_metrics::{FairnessStats, TextTable};

pub(crate) fn run(args: &ExpArgs) {
    println!("== Fig. 11: fairness evaluation ({:?}) ==\n", args.scale);
    for (tag, sc) in [
        ("mnist", mnist_scenario(args.scale, true, 0.0)),
        ("cifar", cifar_scenario(args.scale, true, 0.0)),
    ] {
        eprintln!("running {} ...", sc.name);
        let cfg = fl_config(args.scale, true);
        let per_client_accuracies = |name: &str| -> Vec<f64> {
            let (_, mut fed) = run_once(&sc, &cfg, 17, args, method(name).1);
            let evals = fed.evaluate_per_client();
            evals.iter().map(|e| e.accuracy as f64).collect()
        };
        let fed_acc = per_client_accuracies("FedAvg");
        let reg_acc = per_client_accuracies("rFedAvg+");

        let mut t = TextTable::new(&["Method", "mean", "std", "worst", "p10", "worst-decile"]);
        for (method, acc) in [("FedAvg", &fed_acc), ("rFedAvg+", &reg_acc)] {
            let s = FairnessStats::from_accuracies(acc);
            let stats = [s.mean, s.std, s.worst, s.p10, s.worst_decile_mean];
            let mut row = vec![method.to_string()];
            row.extend(stats.iter().map(|v| format!("{v:.4}")));
            t.row(&row);
        }
        let mut csv = String::from("client,fedavg,rfedavg_plus\n");
        for (i, (a, b)) in fed_acc.iter().zip(&reg_acc).enumerate() {
            csv.push_str(&format!("{i},{a:.4},{b:.4}\n"));
        }
        println!("-- Fig. 11 ({tag}-like, cross-silo sim 0%) per-client accuracy --");
        println!("{}", t.render());
        write_output(args, &format!("fig11_{tag}_fairness.csv"), &csv);
    }
}
