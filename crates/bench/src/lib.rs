//! # rfl-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sec. VI). Each `src/bin/*` binary reproduces one table or
//! figure and prints the corresponding rows/series (ASCII chart + CSV).
//! Nothing here times a kernel or gates an invariant: speed is measured by
//! the standalone `benchmark/` harness, and the allocation, reactor, scale
//! and compression gates are plain tests (`crates/core/tests/{alloc,
//! reactor_scale, scale}.rs`, `tests/extensions.rs`).
//!
//! All experiments run on the synthetic benchmark families documented in
//! `DESIGN.md` §3 and accept `--scale quick|full` (quick is the default and
//! finishes in seconds; full uses larger federations closer to the paper's
//! sizes — see EXPERIMENTS.md).

pub mod args;
pub mod runner;
pub mod setup;
pub mod trace;

pub use args::{parse_args, ExpArgs, Scale};
pub use runner::{make_baselines, run_suite, suite_table, SuiteResult};
pub use setup::{cifar_scenario, femnist_scenario, mnist_scenario, sent140_scenario, Scenario};
pub use trace::{finish_tracing, init_tracing};
