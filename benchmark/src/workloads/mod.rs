//! The five workloads. Names are final: later issues cite them.

mod cnn_device;
mod lstm_silo;
mod paper;
mod scale_lazy;
mod wire_cohort_1k;
mod wire_train_q8;

use crate::harness::{Opts, Outcome};

/// Workload names, in report order. `BENCHMARK.json` gives the reason for
/// each (a unit test keeps the two lists in step).
pub const WORKLOADS: [&str; 5] = [
    "cnn_device",
    "lstm_silo",
    "scale_lazy",
    "wire_cohort_1k",
    "wire_train_q8",
];

/// Thread budget of `name`'s traced pass. Serial, so that phase self times
/// add up to the round — except over the socket, where the round loop's
/// phases are serial waits either way and the in-process oracle has to
/// train its clients as concurrently as the client threads do for the two
/// round times to be comparable.
pub fn traced_budget(name: &str, untraced: usize) -> usize {
    if name == "wire_train_q8" {
        untraced
    } else {
        1
    }
}

/// Runs the named workload; `None` for a name that is not one.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "cnn_device" => paper::run(&cnn_device::spec(), opts),
        "lstm_silo" => paper::run(&lstm_silo::spec(), opts),
        "scale_lazy" => scale_lazy::run(opts),
        "wire_cohort_1k" => wire_cohort_1k::run(opts),
        "wire_train_q8" => wire_train_q8::run(opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the same workloads, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = &text[text.find("\"workloads\"").expect("workloads")..];
        let section = &section[..section.find(']').expect("section closes")];
        let listed: Vec<&str> = section
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name string"))
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn unknown_names_run_nothing() {
        let opts = Opts {
            seed: 1,
            seconds: 1,
            trace: false,
        };
        assert!(run("cnn_devise", &opts).is_none());
    }
}
