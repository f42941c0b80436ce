//! Ablation of the two design choices DESIGN.md stars:
//!
//! 1. **Delayed δ vs exact pairwise MMD** — communication cost of computing
//!    the regularizer exactly (every pair of clients exchanges δ every
//!    *local step*: `O(N²·d·E)` per round) vs the delayed schemes.
//!    Measured analytically from the same wire format as the channel.
//! 2. **Double sync (rFedAvg+) vs local-model δ (rFedAvg)** — accuracy and
//!    δ-consistency comparison at equal λ.

use crate::args::{print_table, ExpArgs};
use crate::runner::{method, run_suite};
use crate::setup::{cifar_scenario, fl_config};
use rfl_metrics::TextTable;
use rfl_tensor::wire_size;

pub(crate) fn run(args: &ExpArgs) {
    println!("== Ablation: delayed δ & double synchronization ==\n");

    // Part 1: per-round δ communication of the three designs (bytes).
    let sc = cifar_scenario(args.scale, true, 0.0);
    let cfg = fl_config(args.scale, true);
    let n = sc.n_clients as u64;
    let d = 64u64; // CNN feature dim
    let e = cfg.local_steps as u64;
    let exact = n * (n - 1) * e * wire_size(d as usize) as u64; // fresh pairwise, every step
    let rfedavg = n * wire_size((n * d) as usize) as u64 + n * wire_size(d as usize) as u64;
    let rfedavg_plus = 2 * n * wire_size(d as usize) as u64;
    let mut t = TextTable::new(&["Design", "δ bytes/round", "vs exact"]);
    for (name, b) in [
        ("exact pairwise (no delay)", exact),
        ("rFedAvg (delayed table)", rfedavg),
        ("rFedAvg+ (delayed average)", rfedavg_plus),
    ] {
        t.row(&[
            name.to_string(),
            b.to_string(),
            format!("{:.1}%", 100.0 * b as f64 / exact as f64),
        ]);
    }
    println!("-- δ communication per round (N={n}, d={d}, E={e}) --");
    print_table(args, "ablation_delta_comm.csv", &t);

    // Part 2: accuracy of local-model δ vs global-model δ at equal λ.
    let algos = [
        ("FedAvg (λ=0)", method("FedAvg").1),
        ("rFedAvg (local-model δ)", method("rFedAvg").1),
        ("rFedAvg+ (global-model δ)", method("rFedAvg+").1),
    ];
    let results = run_suite(&sc, &cfg, args, &algos);
    let mut t = TextTable::new(&["Design", "final acc", "mean sec/round"]);
    for r in &results {
        t.row(&[
            r.name.to_string(),
            r.accuracy_cell(),
            format!("{:.4}", r.mean_round_seconds()),
        ]);
    }
    println!(
        "-- accuracy & time at λ = {} (cifar-like, silo, sim 0%) --",
        sc.lambda
    );
    print_table(args, "ablation_delta_acc.csv", &t);
}
