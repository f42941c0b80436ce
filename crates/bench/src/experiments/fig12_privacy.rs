//! Fig. 12: privacy evaluation — rFedAvg+ with the Gaussian mechanism on
//! the uploaded δ maps (`δ̃ ← clip(δ) + (1/L)·N(0, σ₂²·C₀²·I)`), sweeping
//! the noise multiplier σ₂. The paper's claim: accuracy is essentially
//! unaffected for σ₂ ≤ 5 and degrades for larger noise.

use crate::args::{write_output, ExpArgs};
use crate::runner::run_suite;
use crate::setup::{cifar_scenario, fl_config, Scenario};
use rfl_core::dp::DpConfig;
use rfl_core::prelude::*;
use rfl_metrics::ascii::render_chart;
use rfl_metrics::curve::series_to_csv;
use rfl_metrics::{Series, TextTable};

pub(crate) fn run(args: &ExpArgs) {
    println!("== Fig. 12: privacy evaluation ({:?}) ==\n", args.scale);

    let sc = cifar_scenario(args.scale, true, 0.0);
    let cfg = fl_config(args.scale, true);
    // λ and the clip bound are raised vs the accuracy experiments so the
    // regularizer (and therefore noise on δ) is actually load-bearing —
    // with a negligible λ the privacy sweep would be trivially flat.
    let lambda = 2e-3;
    let clip = 5.0f32;
    let batch = cfg.batch_size;

    let sigmas = [0.0f32, 1.0, 5.0, 10.0, 20.0];
    let algos = sigmas.map(|sigma| {
        let name: &'static str = Box::leak(format!("rFedAvg+ σ₂={sigma}").into_boxed_str());
        let make = move |_: &Scenario| -> Box<dyn Algorithm> {
            let algo = RFedAvgPlus::new(lambda);
            Box::new(if sigma == 0.0 {
                algo
            } else {
                algo.with_dp(DpConfig::new(sigma, clip, batch))
            })
        };
        (name, make)
    });

    let results = run_suite(&sc, &cfg, args, &algos);

    let mut t = TextTable::new(&["sigma2", "final acc"]);
    for (r, sigma) in results.iter().zip(sigmas) {
        t.row(&[sigma.to_string(), r.accuracy_cell()]);
    }
    let curves: Vec<Series> = results.iter().map(|r| r.mean_accuracy_series()).collect();
    println!("{}", t.render());
    println!(
        "{}",
        render_chart(&curves, 60, 14, "Fig. 12: accuracy under DP noise on δ")
    );
    write_output(args, "fig12_privacy.csv", &t.to_csv());
    write_output(args, "fig12_privacy_curves.csv", &series_to_csv(&curves));
}
