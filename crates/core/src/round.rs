//! One communication round: a fixed phase sequence with per-algorithm hooks.
//!
//! Every algorithm here is FedAvg plus a few decisions — what extra goes
//! down before local training, which rule each client trains under, when δ
//! is synced and against which parameters, how uploads become the next
//! global. [`run_round`] spells the skeleton once:
//!
//! ```text
//! select → model broadcast → prepare → train → before-upload sync
//!        → upload + fold → server step → after-fold sync → losses
//! ```
//!
//! and an [`Algorithm`] is its state plus the hooks it overrides; FedAvg
//! overrides none. Hooks run on the server against a [`Round`] — the
//! federation, the run configuration, the server RNG and the round's
//! client sets — and declare through [`Algorithm::needs`] what they ask of
//! the client plane beyond its five requests, so that a pair the back-end
//! cannot serve is refused before round 0 ([`crate::Trainer::try_run`]).

use crate::client::LocalReport;
use crate::federation::{Federation, FlConfig};
use crate::plane::Capability;
use crate::rules::LocalRule;
use crate::sampling::renormalized_weights;
use rand::rngs::StdRng;
use rfl_trace::SpanKind;

/// Result of one communication round.
#[derive(Clone, Debug, Default)]
pub struct RoundOutcome {
    /// Mean local data loss across the participants that reported.
    pub train_loss: f32,
    /// Mean regularizer loss across them (0 if not applicable).
    pub reg_loss: f32,
    /// Client indices the server selected for the round.
    pub selected: Vec<usize>,
    /// Clients whose upload made it into the round's aggregation — equal to
    /// `selected` on a perfect transport, a subset under faults.
    pub delivered: Vec<usize>,
}

/// What a hook works on: the federation, the run's configuration, the
/// server RNG (client sampling, DP noise), and the round's client sets.
pub struct Round<'a> {
    pub fed: &'a mut Federation,
    pub cfg: &'a FlConfig,
    pub rng: &'a mut StdRng,
    /// The clients the server selected (filled by the select phase).
    pub selected: Vec<usize>,
    /// The clients taking part: those the model broadcast reached, less any
    /// that `prepare` ruled out.
    pub active: Vec<usize>,
}

/// A federated optimization algorithm: a name, the capabilities its hooks
/// need, and the hooks. Every hook has the FedAvg default.
pub trait Algorithm: Send {
    /// Display name (used in experiment output).
    fn name(&self) -> &'static str;

    /// What the overridden hooks need from the client plane.
    fn needs(&self) -> &'static [Capability] {
        &[]
    }

    /// Fills `r.selected` (sorted). Default: uniform sampling in a `select`
    /// span. A hook that has already delivered the model to its selection
    /// fills `r.active` too and the driver skips its broadcast; an empty
    /// selection ends the round.
    fn select(&mut self, r: &mut Round<'_>) {
        let mut span = r.fed.tracer().span(SpanKind::Select);
        r.selected = r.fed.sample_selection(r.cfg.sample_ratio, r.rng);
        span.counter("clients", r.selected.len() as u64);
    }

    /// Runs after the model broadcast: extra downloads, then one
    /// [`LocalRule`] per client of `r.active` — which the hook may narrow
    /// first to the clients every download reached. Default: plain SGD.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        vec![LocalRule::Plain; r.active.len()]
    }

    /// Runs after local training, before any model upload.
    fn before_upload(&mut self, _r: &mut Round<'_>) {}

    /// Claims the uploads of `r.active` and installs the next global;
    /// returns the clients whose upload arrived. Default: the streaming
    /// weighted average, renormalized over the survivors, passed through
    /// [`Algorithm::server_step`] inside the `aggregate` span.
    fn fold(&mut self, r: &mut Round<'_>) -> Vec<usize> {
        let (delivered, average) = r.fed.collect_average(&r.active);
        let mut span = r.fed.tracer().span(SpanKind::Aggregate);
        span.counter("clients", delivered.len() as u64);
        if let Some(average) = average {
            let next = self.server_step(r.fed.global(), average);
            r.fed.set_global(next);
        }
        delivered
    }

    /// Turns the round's weighted `average` into the next global (default:
    /// the average itself). Skipped when every upload was lost.
    fn server_step(&mut self, _global: &[f32], average: Vec<f32>) -> Vec<f32> {
        average
    }

    /// Runs after the new global is installed.
    fn after_fold(&mut self, _r: &mut Round<'_>) {}

    /// Whether the reported losses are averaged uniformly instead of by
    /// data size.
    fn uniform_losses(&self) -> bool {
        false
    }
}

/// Runs one round of `algo` on `fed`. The caller ([`crate::Trainer`]) has
/// already marked the round with [`Federation::begin_round`].
pub fn run_round(
    algo: &mut dyn Algorithm,
    fed: &mut Federation,
    cfg: &FlConfig,
    rng: &mut StdRng,
) -> RoundOutcome {
    let mut r = Round {
        fed,
        cfg,
        rng,
        selected: Vec::new(),
        active: Vec::new(),
    };
    algo.select(&mut r);
    if r.selected.is_empty() {
        return RoundOutcome::default();
    }
    if r.active.is_empty() {
        r.active = r.fed.broadcast_params(&r.selected);
    }
    let rules = algo.prepare(&mut r);
    let reports = r.fed.train_selected(&r.active, &rules, cfg.local_steps);
    algo.before_upload(&mut r);
    let delivered = algo.fold(&mut r);
    algo.after_fold(&mut r);
    let (train_loss, reg_loss) =
        mean_losses(r.fed.weights(), &r.active, &reports, algo.uniform_losses());
    RoundOutcome {
        train_loss,
        reg_loss,
        selected: r.selected,
        delivered,
    }
}

/// Means of the local data loss and regularizer loss over the clients that
/// reported, weighted by data size renormalized over them (or uniformly);
/// `(0, 0)` when nobody did.
fn mean_losses(
    weights: &[f32],
    active: &[usize],
    reports: &[Option<LocalReport>],
    uniform: bool,
) -> (f32, f32) {
    let (reporters, reports): (Vec<usize>, Vec<LocalReport>) = active
        .iter()
        .zip(reports)
        .filter_map(|(&k, r)| r.map(|r| (k, r)))
        .unzip();
    if reporters.is_empty() {
        return (0.0, 0.0);
    }
    let weights = if uniform {
        vec![1.0 / reporters.len() as f32; reporters.len()]
    } else {
        renormalized_weights(weights, &reporters)
    };
    reports
        .iter()
        .zip(weights)
        .fold((0.0, 0.0), |(loss, reg), (r, w)| {
            (loss + w * r.loss, reg + w * r.reg_loss)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::*;
    use crate::dp::DpConfig;
    use crate::plane::{LocalPlane, RemotePlane};

    /// The algorithm × back-end table as markdown, from the declarations the
    /// pre-round check reads: each row is a label and an [`Algorithm::needs`]
    /// list, each column a way to run it (the faulty column is the in-process
    /// plane on a fault-injecting transport).
    fn capability_table(rows: &[(&str, &[Capability])]) -> String {
        let columns = [LocalPlane::OFFERS, LocalPlane::OFFERS, RemotePlane::OFFERS];
        let mut out =
            String::from("| algorithm | in-process | faulty | loopback |\n|---|---|---|---|\n");
        for (label, needs) in rows {
            out += &format!("| {label} |");
            for offers in columns {
                out += &match needs.iter().find(|c| !offers.contains(c)) {
                    None => " runs |".to_string(),
                    Some(c) => format!(" refused: needs `{c:?}` |"),
                };
            }
            out += "\n";
        }
        out
    }

    /// README.md and DESIGN.md print exactly that table.
    #[test]
    fn the_capability_table_in_the_docs_is_the_generated_one() {
        let dp = DpConfig::new(0.5, 1.0, 10);
        let rows: Vec<(&str, Box<dyn Algorithm>)> = vec![
            ("FedAvg", Box::new(FedAvg::new())),
            ("FedAvgM", Box::new(FedAvgM::new(0.7))),
            ("FedProx", Box::new(FedProx::new(0.1))),
            ("SCAFFOLD", Box::new(Scaffold::new(1.0))),
            ("q-FedAvg", Box::new(QFedAvg::new(1.0))),
            ("PoC-rFedAvg+", Box::new(PowerOfChoice::new(2.0, 1e-3))),
            ("rFedAvg", Box::new(RFedAvg::new(1e-3))),
            ("rFedAvg+", Box::new(RFedAvgPlus::new(1e-3))),
            ("rFedAvg + DP", Box::new(RFedAvg::new(1e-3).with_dp(dp))),
            (
                "rFedAvg+ + DP",
                Box::new(RFedAvgPlus::new(1e-3).with_dp(dp)),
            ),
        ];
        let rows: Vec<(&str, &[Capability])> =
            rows.iter().map(|(label, a)| (*label, a.needs())).collect();
        let table = capability_table(&rows);
        for (name, doc) in [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ] {
            assert!(doc.contains(&table), "{name} should print:\n{table}");
        }
    }

    #[test]
    fn losses_average_over_the_reporters_only() {
        let report = |loss| {
            Some(LocalReport {
                loss,
                reg_loss: 2.0 * loss,
                steps: 1,
                examples: 1,
            })
        };
        let weights = [0.5, 0.25, 0.25];
        let reports = [report(1.0), None, report(3.0)];
        // Client 1 never reported: 1.0 and 3.0 weigh 2/3 and 1/3.
        let (loss, reg) = mean_losses(&weights, &[0, 1, 2], &reports, false);
        assert!((loss - 5.0 / 3.0).abs() < 1e-6 && (reg - 10.0 / 3.0).abs() < 1e-6);
        let (loss, _) = mean_losses(&weights, &[0, 1, 2], &reports, true);
        assert_eq!(loss, 2.0);
        assert_eq!(
            mean_losses(&weights, &[1], &[None], false),
            (0.0, 0.0),
            "nobody reported"
        );
    }
}
