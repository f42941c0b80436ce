//! Fig. 9: parameter study on the CIFAR10-like benchmark with non-IID
//! division (similarity 0%), cross-device setting.
//!
//! * `--study lambda` — Fig. 9a: impact of the regularization weight λ;
//! * `--study n`      — Fig. 9b: impact of the number of clients N;
//! * `--study e`      — Fig. 9c: impact of the local steps E;
//! * `--study sr`     — Fig. 9d: impact of the sample ratio SR;
//! * `--study all`    — run all four (default).

use crate::args::{print_table, ExpArgs, Scale};
use crate::runner::{method, run_suite};
use crate::setup::{cifar_scenario, fl_config, Scenario};
use rfl_core::FlConfig;
use rfl_metrics::TextTable;

/// One panel, when `--study` names its parameter (or `all`, the default):
/// trains FedAvg, rFedAvg and rFedAvg+ at every value of the swept parameter
/// (`set` writes it into the scenario or the config) and prints the final
/// accuracy of the methods `header` names after its first column, the
/// parameter's.
fn sweep<T: Copy>(
    args: &ExpArgs,
    (panel, what): (char, &str),
    header: &[&str],
    values: &[T],
    label: impl Fn(T) -> String,
    set: impl Fn(&mut Scenario, &mut FlConfig, T),
) {
    let study = header[0].to_lowercase();
    if !["all", &study].contains(&args.study.as_deref().unwrap_or("all")) {
        return;
    }
    println!("-- Fig. 9{panel}: impact of {what} --");
    let mut t = TextTable::new(header);
    for &value in values {
        let mut sc = cifar_scenario(args.scale, false, 0.0);
        let mut cfg = fl_config(args.scale, false);
        set(&mut sc, &mut cfg, value);
        let proposed = ["FedAvg", "rFedAvg", "rFedAvg+"].map(method);
        let results = run_suite(&sc, &cfg, args, &proposed);
        let mut row = vec![label(value)];
        for column in &header[1..] {
            let r = results
                .iter()
                .find(|r| column.strip_suffix(" acc") == Some(r.name));
            row.push(r.expect("a proposed method").accuracy_cell());
        }
        t.row(&row);
    }
    print_table(args, &format!("fig09{panel}_{study}.csv"), &t);
}

pub(crate) fn run(args: &ExpArgs) {
    println!("== Fig. 9: parameter study ({:?}) ==\n", args.scale);
    sweep(
        args,
        ('a', "λ (cifar-like, sim 0%, cross-device)"),
        &["lambda", "rFedAvg acc", "rFedAvg+ acc", "FedAvg acc"],
        &[0.0f32, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        |lambda| format!("{lambda:.0e}"),
        |sc, _, lambda| sc.lambda = lambda,
    );
    let ns: &[usize] = match args.scale {
        Scale::Quick => &[8, 16, 24, 40],
        Scale::Full => &[50, 100, 200, 400],
    };
    sweep(
        args,
        ('b', "N (cifar-like, sim 0%, SR fixed)"),
        &["N", "rFedAvg+ acc", "FedAvg acc"],
        ns,
        |n| n.to_string(),
        |sc, _, n| sc.n_clients = n,
    );
    sweep(
        args,
        ('c', "E (cifar-like, sim 0%, same round count)"),
        &["E", "rFedAvg+ acc", "FedAvg acc"],
        &[1usize, 2, 5, 10],
        |e| e.to_string(),
        |_, cfg, e| cfg.local_steps = e,
    );
    sweep(
        args,
        ('d', "SR (cifar-like, sim 0%, N fixed)"),
        &["SR", "rFedAvg+ acc", "FedAvg acc"],
        &[0.1f32, 0.2, 0.5, 1.0],
        |sr| sr.to_string(),
        |_, cfg, sr| cfg.sample_ratio = sr,
    );
}
