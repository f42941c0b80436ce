//! The experiment registry: every table and figure of the paper's evaluation
//! (plus this repository's extensions) as one row of [`EXPERIMENTS`].

mod ablation_delta;
mod curves;
mod extensions;
mod fig01_tsne;
mod fig09_params;
mod fig10_efficiency;
mod fig11_fairness;
mod fig12_privacy;
mod tables;
mod theory_convergence;

use crate::args::ExpArgs;
use rfl_metrics::TextTable;

/// One runnable experiment.
pub struct Experiment {
    /// Its `rfl-bench <name>`, and the stem of what it writes under `--out`.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    pub about: &'static str,
    /// The `--study` values it accepts; empty when it takes none.
    pub studies: &'static [&'static str],
    pub run: fn(&ExpArgs),
}

/// A row that takes no `--study`.
const fn row(
    name: &'static str,
    artifact: &'static str,
    about: &'static str,
    run: fn(&ExpArgs),
) -> Experiment {
    Experiment {
        name,
        artifact,
        about,
        studies: &[],
        run,
    }
}

/// Every experiment, in the order `rfl-bench all` runs them.
pub static EXPERIMENTS: [Experiment; 17] = [
    row(
        "fig01_tsne",
        "Fig. 1",
        "t-SNE of FedAvg's last-FC features on three clients, IID vs non-IID",
        fig01_tsne::run,
    ),
    row(
        "fig02_03_mnist_curves",
        "Figs. 2–3",
        "MNIST-like accuracy and train-loss curves, device/silo × sim 0%/10%",
        |args| curves::curves(args, &curves::MNIST),
    ),
    row(
        "fig04_05_cifar_curves",
        "Figs. 4–5",
        "CIFAR10-like accuracy and train-loss curves, device/silo × sim 0%/10%",
        |args| curves::curves(args, &curves::CIFAR),
    ),
    row(
        "fig06_07_sent140_curves",
        "Figs. 6–7",
        "Sent140-like (LSTM + RMSProp) curves, device/silo × non-IID/IID",
        |args| curves::curves(args, &curves::SENT140),
    ),
    row(
        "fig08_femnist",
        "Fig. 8",
        "FEMNIST-like accuracy curves, two federation sizes × low/high cost",
        curves::fig08_femnist,
    ),
    Experiment {
        studies: &["lambda", "n", "e", "sr", "all"],
        ..row(
            "fig09_params",
            "Fig. 9",
            "impact of λ, N, E and SR on cifar-like, cross-device, sim 0%",
            fig09_params::run,
        )
    },
    row(
        "fig10_efficiency",
        "Fig. 10",
        "rounds to reach accuracy levels; wall-clock seconds per round",
        fig10_efficiency::run,
    ),
    row(
        "fig11_fairness",
        "Fig. 11",
        "per-client accuracy of the final global model, FedAvg vs rFedAvg+",
        fig11_fairness::run,
    ),
    row(
        "fig12_privacy",
        "Fig. 12",
        "rFedAvg+ under Gaussian noise σ₂ on the uploaded δ",
        fig12_privacy::run,
    ),
    row(
        "tab1_cross_silo",
        "Table I",
        "cross-silo test accuracy, six methods × eight data settings",
        |args| tables::accuracy_table(args, true),
    ),
    row(
        "tab2_cross_device",
        "Table II",
        "cross-device test accuracy, six methods × eight data settings",
        |args| tables::accuracy_table(args, false),
    ),
    row(
        "tab3_delta_size",
        "Table III",
        "measured δ bytes per client, rFedAvg vs rFedAvg+, CNN/RNN × silo/device",
        tables::tab3_delta_size,
    ),
    row(
        "theory_convergence",
        "Thm. 1–2",
        "O(1/T) convergence on a strongly convex objective, decaying step",
        theory_convergence::run,
    ),
    row(
        "ablation_delta",
        "Sec. IV design",
        "delayed δ vs exact pairwise MMD (bytes); double sync vs local-model δ",
        ablation_delta::run,
    ),
    row(
        "ext_future_work",
        "Sec. VII (extension)",
        "personalization, Power-of-Choice selection, server momentum",
        extensions::future_work,
    ),
    row(
        "ext_stragglers",
        "extension",
        "FedAvg / FedProx / rFedAvg+ when clients finish part of their steps",
        extensions::stragglers,
    ),
    row(
        "ext_lossy",
        "extension",
        "FedAvg / rFedAvg+ over links that drop model and δ messages",
        extensions::lossy,
    ),
];

/// The experiment called `name`.
pub(crate) fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|exp| exp.name == name)
}

/// The table `rfl-bench list` prints.
pub fn list() -> String {
    let mut t = TextTable::new(&["experiment", "paper", "what it prints"]);
    for exp in &EXPERIMENTS {
        t.row(&[exp.name, exp.artifact, exp.about].map(String::from));
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_the_pinned_set() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|exp| exp.name).collect();
        assert_eq!(names.len(), 17, "a name is listed twice");
        // One `<hash>  <name>.stdout` line per experiment in the pin file.
        let pins = include_str!("../../../../scripts/experiments.sha256");
        let pinned: BTreeSet<&str> = pins
            .lines()
            .filter_map(|line| line.split_whitespace().nth(1)?.strip_suffix(".stdout"))
            .collect();
        assert_eq!(names, pinned);
        for exp in &EXPERIMENTS {
            assert!(
                !exp.artifact.is_empty() && !exp.about.is_empty(),
                "{}",
                exp.name
            );
        }
        assert_eq!(list().lines().count(), 17 + 2);
    }
}
