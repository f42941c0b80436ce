//! Theorems 1 & 2: empirical convergence check on a strongly convex
//! objective with the theory's decaying step size `η_t = 2/(μ(γ+t))`.
//!
//! Verifies three claims on non-IID Gaussian-mixture data:
//! 1. FedAvg, rFedAvg, and rFedAvg+ all converge (loss → plateau) at a rate
//!    whose log-log slope is ≈ −1 (the `O(1/T)` of Lemma 1/Theorems 1–2);
//! 2. rFedAvg and rFedAvg+ track FedAvg up to a constant (larger error
//!    constants `C₁..C₃`, same rate);
//! 3. rFedAvg+'s excess loss constant is no worse than rFedAvg's
//!    (`C₂ < C₃` — double synchronization helps).

use crate::args::{ExpArgs, Scale};
use crate::runner::{method, MakeAlgo};
use crate::setup::{convex_scenario, fl_config, Scenario};
use rfl_core::convex::{global_train_loss, loglog_slope, theory_schedule};
use rfl_core::prelude::*;
use rfl_metrics::TextTable;

fn run_curve(sc: &Scenario, make: MakeAlgo, rounds: usize, args: &ExpArgs) -> Vec<(f64, f64)> {
    // The cross-silo configuration (E = 5, full participation), serial,
    // driven one round at a time so the step size can decay between rounds.
    let cfg = FlConfig {
        rounds: 1,
        batch_size: 10,
        parallel: false,
        seed: 7,
        ..fl_config(Scale::Quick, true)
    };
    let mut fed = sc.federation(&cfg, 7, &args.tracer);
    let mut algo = make(sc);
    // μ ≈ the L2 coefficient scale, κ chosen moderately; the theory only
    // needs the 1/t shape of the schedule.
    let sched = theory_schedule(0.5, 4.0, cfg.local_steps);
    let mut pts = Vec::new();
    for round in 0..rounds {
        for k in 0..fed.num_clients() {
            fed.with_client(k, |c| c.set_lr(sched(round)));
        }
        let one = FlConfig {
            seed: 7 + round as u64,
            ..cfg
        };
        Trainer::new(one).run(algo.as_mut(), &mut fed);
        pts.push(((round + 1) as f64, global_train_loss(&mut fed) as f64));
    }
    pts
}

pub(crate) fn run(args: &ExpArgs) {
    println!("== Theorems 1–2: convergence under η_t = 2/(μ(γ+t)) ==\n");
    let rounds = 60usize;

    let mut table = TextTable::new(&[
        "Method",
        "loss@5",
        "loss@60",
        "excess slope (≈ -1 ⇒ O(1/T))",
    ]);
    let mut finals = Vec::new();
    let sc = convex_scenario();
    for (name, make) in ["FedAvg", "rFedAvg", "rFedAvg+"].map(method) {
        eprintln!("running {name} ...");
        let pts = run_curve(&sc, make, rounds, args);
        // Excess loss vs the best achieved value (F* proxy).
        let fstar = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min) - 1e-4;
        let excess: Vec<(f64, f64)> = pts
            .iter()
            .skip(3)
            .map(|&(t, l)| (t, (l - fstar).max(1e-9)))
            .collect();
        let slope = loglog_slope(&excess);
        table.row(&[
            name.to_string(),
            format!("{:.4}", pts[4].1),
            format!("{:.4}", pts[rounds - 1].1),
            format!("{slope:.2}"),
        ]);
        finals.push(format!("{name} {:.4}", pts[rounds - 1].1));
    }
    println!("{}", table.render());
    println!("final-loss ordering (expect rFedAvg+ ≤ rFedAvg up to noise):");
    println!("  {}", finals.join(" | "));
}
