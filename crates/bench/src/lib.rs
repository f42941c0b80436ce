//! # rfl-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sec. VI) from one executable: `rfl-bench <experiment>` looks
//! the name up in [`experiments::EXPERIMENTS`] — the only list of experiments
//! there is; `rfl-bench list` prints it and `rfl-bench all` walks it — and
//! the experiment prints its rows/series (ASCII chart + CSV).
//! Nothing here times a kernel or gates an invariant: speed is measured by
//! the standalone `benchmark/` harness, and the allocation, reactor, scale
//! and compression gates are plain tests (`crates/core/tests/{alloc,
//! reactor_scale, scale}.rs`, `tests/extensions.rs`). What the experiments
//! print at `--scale quick --seeds 1` is pinned by `scripts/experiments.sha256`.
//!
//! All experiments run on the synthetic benchmark families documented in
//! `DESIGN.md` §3 and accept `--scale quick|full` (quick is the default and
//! finishes in seconds; full uses larger federations closer to the paper's
//! sizes — see EXPERIMENTS.md).

pub mod args;
pub mod experiments;
pub mod runner;
pub mod setup;
