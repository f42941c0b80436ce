//! Tables I–III.

use crate::args::{print_table, write_output, ExpArgs};
use crate::runner::{method, run_once, run_suite, METHODS};
use crate::setup::{cifar_scenario, fl_config, mnist_scenario, sent140_scenario, Scenario};
use rfl_core::FlConfig;
use rfl_metrics::TextTable;

/// Tables I and II: test accuracy of the six methods on the MNIST-like /
/// CIFAR10-like benchmarks at similarity 0% / 10% / 100% and the
/// Sent140-like benchmark (non-IID / IID) — Table I in the cross-silo
/// setting (`E = 5`, `SR = 1.0`), Table II cross-device (`E = 10`,
/// `SR = 0.2`).
pub(crate) fn accuracy_table(args: &ExpArgs, cross_silo: bool) {
    let (title, csv) = if cross_silo {
        ("Table I: cross-silo", "tab1_cross_silo.csv")
    } else {
        ("Table II: cross-device", "tab2_cross_device.csv")
    };
    println!("== {title} test accuracy ({:?}) ==\n", args.scale);

    let (scale, silo) = (args.scale, cross_silo);
    let scenarios = [
        mnist_scenario(scale, silo, 0.0),
        mnist_scenario(scale, silo, 0.1),
        mnist_scenario(scale, silo, 1.0),
        cifar_scenario(scale, silo, 0.0),
        cifar_scenario(scale, silo, 0.1),
        cifar_scenario(scale, silo, 1.0),
        sent140_scenario(scale, silo, false),
        sent140_scenario(scale, silo, true),
    ];
    let cfg = fl_config(scale, silo);

    // columns[scenario][method]
    let columns: Vec<Vec<String>> = scenarios
        .iter()
        .map(|sc| {
            let results = run_suite(sc, &cfg, args, &METHODS);
            results.iter().map(|r| r.accuracy_cell()).collect()
        })
        .collect();

    let mut table = TextTable::new(&[
        "Method",
        "mnist 0%",
        "mnist 10%",
        "mnist 100%",
        "cifar 0%",
        "cifar 10%",
        "cifar 100%",
        "sent noniid",
        "sent iid",
    ]);
    for (mi, (name, _)) in METHODS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|col| col[mi].clone()));
        table.row(&row);
    }
    print_table(args, csv, &table);
}

/// Measured per-client, per-round δ download bytes in steady state.
fn measure_delta_download(
    sc: &Scenario,
    cfg: &FlConfig,
    algo: &str,
    args: &ExpArgs,
) -> (u64, usize) {
    let cfg = FlConfig {
        rounds: 3,
        eval_every: 3,
        ..*cfg
    };
    let (h, fed) = run_once(sc, &cfg, 3, args, method(algo).1);
    // Steady-state round (targets exist from round 1 on).
    let last = h.records().last().expect("three rounds ran");
    let participants = last.participants;
    let d = fed.feature_dim();
    // Download share of the δ traffic: subtract the uploads (d scalars + 4B
    // header each, per participant).
    let upload = participants as u64 * (4 + 4 * d as u64);
    let down = last.delta_bytes.saturating_sub(upload);
    (down / participants as u64, participants)
}

/// Table III: size of the δ messages (bytes) for rFedAvg vs rFedAvg+, with
/// the CNN and the RNN (LSTM) models, in the cross-silo and cross-device
/// settings. Numbers are **measured** from the metered channel, not
/// estimated: the table reports the per-round δ *download* volume per
/// participating client — `participants·d·4` B for rFedAvg (the full table
/// broadcast) vs `d·4` B for rFedAvg+ (the leave-one-out average).
pub(crate) fn tab3_delta_size(args: &ExpArgs) {
    println!("== Table III: size of δ (bytes) ==\n");

    let mut t = TextTable::new(&[
        "Model",
        "Setting",
        "participants",
        "rFedAvg (B)",
        "rFedAvg+ (B)",
        "ratio",
    ]);
    for model_tag in ["CNN", "RNN"] {
        for (setting, silo) in [("cross-silo", true), ("cross-device", false)] {
            let sc = match model_tag {
                "CNN" => cifar_scenario(args.scale, silo, 0.0),
                _ => sent140_scenario(args.scale, silo, false),
            };
            let cfg = fl_config(args.scale, silo);
            eprintln!("measuring {model_tag} / {setting} ...");
            let (r_bytes, parts) = measure_delta_download(&sc, &cfg, "rFedAvg", args);
            let (p_bytes, _) = measure_delta_download(&sc, &cfg, "rFedAvg+", args);
            let ratio = r_bytes as f64 / p_bytes.max(1) as f64;
            t.row(&[
                model_tag.to_string(),
                setting.to_string(),
                parts.to_string(),
                r_bytes.to_string(),
                p_bytes.to_string(),
                format!("{ratio:.1}x"),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(paper's shape: rFedAvg's δ grows with the participant count — \
         56160/2808 = 20x cross-silo, 280800/2808 = 100x cross-device — \
         while rFedAvg+'s stays constant)"
    );
    write_output(args, "tab3_delta_size.csv", &t.to_csv());
}
