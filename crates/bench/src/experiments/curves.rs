//! Figs. 2–8: accuracy (and training-loss) curves of the six compared
//! methods.

use crate::args::{write_output, ExpArgs, Scale};
use crate::runner::{run_suite, METHODS};
use crate::setup::{
    cifar_scenario, femnist_scenario, fl_config, mnist_scenario, sent140_scenario, Scenario,
};
use rfl_core::FlConfig;
use rfl_metrics::ascii::render_chart;
use rfl_metrics::curve::series_to_csv;
use rfl_metrics::Series;

/// One accuracy/loss figure pair: panels a–d are cross-device then
/// cross-silo, each at the family's two data variants.
pub(crate) struct Curves {
    figs: (u32, u32),
    family: &'static str,
    variants: [(&'static str, MakeScenario); 2],
}

/// A scenario at `(scale, cross_silo)`.
type MakeScenario = fn(Scale, bool) -> Scenario;

/// Figs. 2 & 3: similarity 0% and 10% (the paper omits sim 100% because it
/// matches sim 10%).
pub(crate) const MNIST: Curves = Curves {
    figs: (2, 3),
    family: "MNIST-like",
    variants: [
        ("sim0", |scale, silo| mnist_scenario(scale, silo, 0.0)),
        ("sim10", |scale, silo| mnist_scenario(scale, silo, 0.1)),
    ],
};

/// Figs. 4 & 5.
pub(crate) const CIFAR: Curves = Curves {
    figs: (4, 5),
    family: "CIFAR10-like",
    variants: [
        ("sim0", |scale, silo| cifar_scenario(scale, silo, 0.0)),
        ("sim10", |scale, silo| cifar_scenario(scale, silo, 0.1)),
    ],
};

/// Figs. 6 & 7: 2-layer LSTM + RMSProp, natural non-IID and IID partitions.
pub(crate) const SENT140: Curves = Curves {
    figs: (6, 7),
    family: "Sent140-like",
    variants: [
        ("noniid", |scale, silo| sent140_scenario(scale, silo, false)),
        ("iid", |scale, silo| sent140_scenario(scale, silo, true)),
    ],
};

/// Runs the six methods and returns `(accuracy curves, loss curves)` — the
/// contents of one panel.
fn run_curves(sc: &Scenario, cfg: &FlConfig, args: &ExpArgs) -> (Vec<Series>, Vec<Series>) {
    let results = run_suite(sc, cfg, args, &METHODS);
    let acc = results.iter().map(|r| r.mean_accuracy_series()).collect();
    let loss = results.iter().map(|r| r.mean_loss_series()).collect();
    (acc, loss)
}

pub(crate) fn curves(args: &ExpArgs, fig: &Curves) {
    let (acc_fig, loss_fig) = fig.figs;
    println!(
        "== Figs. {acc_fig}–{loss_fig}: {} curves ({:?}) ==\n",
        fig.family, args.scale
    );
    let geometries = [("device", false), ("silo", true)];
    let panels = geometries
        .iter()
        .flat_map(|g| fig.variants.iter().map(move |v| (g, v)));
    for (letter, ((geometry, silo), (variant, scenario))) in ('a'..).zip(panels) {
        let sc = scenario(args.scale, *silo);
        let (acc, loss) = run_curves(&sc, &fl_config(args.scale, *silo), args);
        let title = format!("Fig. {acc_fig}{letter}: accuracy — {}", sc.name);
        println!("{}", render_chart(&acc, 60, 14, &title));
        let title = format!("Fig. {loss_fig}{letter}: train loss — {}", sc.name);
        println!("{}", render_chart(&loss, 60, 14, &title));
        let tag = format!("{letter}_{geometry}_{variant}");
        write_output(
            args,
            &format!("fig{acc_fig:02}{tag}_acc.csv"),
            &series_to_csv(&acc),
        );
        write_output(
            args,
            &format!("fig{loss_fig:02}{tag}_loss.csv"),
            &series_to_csv(&loss),
        );
    }
}

/// Fig. 8: accuracy curves on the FEMNIST-like benchmark with two
/// federation sizes and two cost profiles:
/// low cost = `SR = 0.1, E = 10`; high cost = `SR = 0.2, E = 20`.
pub(crate) fn fig08_femnist(args: &ExpArgs) {
    println!("== Fig. 8: FEMNIST-like curves ({:?}) ==\n", args.scale);
    // The paper uses 100 and 500 clients; scaled geometries here.
    let sizes: [usize; 2] = match args.scale {
        Scale::Quick => [12, 24],
        Scale::Full => [50, 100],
    };
    let costs = [("low", 0.1f32, 10usize), ("high", 0.2, 20)];
    for n in sizes {
        for (cost_tag, sr, e) in costs {
            let sc = femnist_scenario(args.scale, n);
            let mut cfg = fl_config(args.scale, false);
            cfg.sample_ratio = sr;
            cfg.local_steps = e;
            let (acc, _) = run_curves(&sc, &cfg, args);
            let title = format!(
                "Fig. 8: accuracy — {} / {cost_tag} cost (SR={sr}, E={e})",
                sc.name
            );
            println!("{}", render_chart(&acc, 60, 14, &title));
            write_output(
                args,
                &format!("fig08_{n}clients_{cost_tag}_acc.csv"),
                &series_to_csv(&acc),
            );
        }
    }
}
