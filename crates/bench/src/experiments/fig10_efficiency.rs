//! Fig. 10: efficiency evaluation of the six compared methods.
//!
//! * (a)/(b) minimal communication rounds needed to reach accuracy levels
//!   on the MNIST-like and CIFAR10-like benchmarks (cross-device, non-IID);
//! * (c)/(d) wall-clock training time per round of all six methods, and
//!   relative to FedAvg, on the CIFAR10-like benchmark at similarity 0%
//!   and 10%. (c) reads the same runs as (b).

use crate::args::{print_table, ExpArgs};
use crate::runner::{run_suite, SuiteResult, METHODS};
use crate::setup::{cifar_scenario, fl_config, mnist_scenario, Scenario};
use rfl_metrics::TextTable;

fn rounds_table(results: &[SuiteResult], levels: &[f32]) -> TextTable {
    let mut header = vec!["Method".to_string()];
    header.extend(levels.iter().map(|l| format!("→{:.0}%", l * 100.0)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(&header_refs);
    for r in results {
        let mut row = vec![r.name.to_string()];
        for &level in levels {
            // Mean over seeds of rounds-to-level; '-' when never reached.
            let hits: Vec<f64> = r
                .histories
                .iter()
                .filter_map(|h| h.rounds_to_accuracy(level).map(|v| v as f64))
                .collect();
            row.push(if hits.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", hits.iter().sum::<f64>() / hits.len() as f64)
            });
        }
        t.row(&row);
    }
    t
}

fn time_table(results: &[SuiteResult]) -> TextTable {
    let mut t = TextTable::new(&["Method", "sec/round", "relative"]);
    let base = results
        .iter()
        .find(|r| r.name == "FedAvg")
        .map_or(1.0, SuiteResult::mean_round_seconds);
    for r in results {
        let s = r.mean_round_seconds();
        t.row(&[
            r.name.to_string(),
            format!("{s:.4}"),
            format!("{:.2}x", s / base),
        ]);
    }
    t
}

pub(crate) fn run(args: &ExpArgs) {
    println!("== Fig. 10: efficiency evaluation ({:?}) ==\n", args.scale);
    let cfg = fl_config(args.scale, false);
    let suite = |sc: Scenario| run_suite(&sc, &cfg, args, &METHODS);

    let mnist = suite(mnist_scenario(args.scale, false, 0.0));
    println!("-- Fig. 10a: minimal rounds to accuracy (mnist-like, device, sim 0%) --");
    let t = rounds_table(&mnist, &[0.5, 0.7, 0.8, 0.9]);
    print_table(args, "fig10a_rounds_mnist.csv", &t);

    let cifar = suite(cifar_scenario(args.scale, false, 0.0));
    println!("-- Fig. 10b: minimal rounds to accuracy (cifar-like, device, sim 0%) --");
    let t = rounds_table(&cifar, &[0.25, 0.35, 0.45]);
    print_table(args, "fig10b_rounds_cifar.csv", &t);
    println!("-- Fig. 10c: training time per round (cifar-like, device, sim 0%) --");
    print_table(args, "fig10c_time_sim0.csv", &time_table(&cifar));

    let cifar10 = suite(cifar_scenario(args.scale, false, 0.1));
    println!("-- Fig. 10d: training time per round (cifar-like, device, sim 10%) --");
    print_table(args, "fig10d_time_sim10.csv", &time_table(&cifar10));
}
