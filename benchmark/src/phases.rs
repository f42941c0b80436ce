//! Per-round phase budget from the spans `rfl-trace` already emits.
//!
//! The tracer parents every phase span to its round, so nesting (the fold
//! span contains the upload span) has to be recovered from the intervals:
//! a span's self time is its duration minus the spans that start and end
//! inside it. The traced pass runs at thread budget 1, so every phase span
//! except the two background waves sits on the round loop's own thread and
//! self times add up to the round.

use crate::harness::Outcome;
use crate::stats::median;
use rfl_trace::SpanRecord;

/// Phases that run on the round loop's thread.
const FOREGROUND: [&str; 9] = [
    "select",
    "broadcast",
    "delta_broadcast",
    "delta_sync",
    "local_train",
    "upload",
    "fold",
    "aggregate",
    "eval",
];
/// Waves on their own threads; they overlap the foreground and are not
/// part of the round's sum.
const BACKGROUND: [&str; 2] = ["prefetch", "hibernate"];

fn end_ns(s: &SpanRecord) -> u64 {
    s.start_ns + s.dur_ns
}

/// Seconds of `span` not covered by foreground spans nested inside it.
/// Nesting is one level deep today (fold ⊃ upload); a deeper tree would
/// need the direct children singled out. The per-client `local_train`
/// leaves contain nothing and skip the scan.
fn self_secs(span: &SpanRecord, round: &[&SpanRecord]) -> f64 {
    let mut covered = 0u64;
    if span.kind != "local_train" {
        for other in round {
            if other.id != span.id
                && other.start_ns >= span.start_ns
                && end_ns(other) <= end_ns(span)
            {
                covered += other.dur_ns;
            }
        }
    }
    span.dur_ns.saturating_sub(covered) as f64 * 1e-9
}

/// The budget of the rounds `first_round..`: median per-round self seconds
/// of every phase, the prefetch efficiency, and the share of the round no
/// span accounts for.
pub struct Budget {
    /// `(phase, median self seconds per round)`, phases that never ran
    /// omitted.
    pub phases: Vec<(&'static str, f64)>,
    /// Clients prefetched ÷ clients sampled (1.0 is ideal); `None` when no
    /// wave ran.
    pub prefetch_per_sampled: Option<f64>,
    /// Median over rounds of `1 − Σ foreground self ÷ round duration`.
    pub unaccounted_share: f64,
}

pub fn budget(records: &[SpanRecord], first_round: u64) -> Budget {
    let rounds: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.kind == "round" && r.round.is_some_and(|i| i >= first_round))
        .collect();
    assert!(
        !rounds.is_empty(),
        "the traced leg recorded no measured round"
    );
    let mut per_phase: Vec<(&'static str, Vec<f64>)> = FOREGROUND
        .iter()
        .chain(&BACKGROUND)
        .map(|&k| (k, Vec::new()))
        .collect();
    let mut unaccounted = Vec::with_capacity(rounds.len());
    let (mut prefetched, mut sampled) = (0u64, 0u64);
    for round in &rounds {
        let spans: Vec<&SpanRecord> = records
            .iter()
            .filter(|s| s.round == round.round && s.kind != "round")
            .collect();
        let foreground: Vec<&SpanRecord> = spans
            .iter()
            .copied()
            .filter(|s| FOREGROUND.contains(&s.kind))
            .collect();
        let mut accounted = 0.0;
        for (kind, samples) in &mut per_phase {
            let total: f64 = if BACKGROUND.contains(kind) {
                spans
                    .iter()
                    .filter(|s| s.kind == *kind)
                    .fold(0.0, |t, s| t + s.dur_ns as f64 * 1e-9)
            } else {
                // `fold` from +0.0: an empty `sum()` is -0.0 and prints so.
                let t = foreground
                    .iter()
                    .filter(|s| s.kind == *kind)
                    .fold(0.0, |t, s| t + self_secs(s, &foreground));
                accounted += t;
                t
            };
            samples.push(total);
        }
        unaccounted.push(1.0 - accounted / (round.dur_ns as f64 * 1e-9));
        let clients = |kind: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.kind == kind)
                .filter_map(|s| s.counter("clients"))
                .sum()
        };
        prefetched += clients("prefetch");
        sampled += clients("select");
    }
    Budget {
        phases: per_phase
            .into_iter()
            .filter(|(_, s)| s.iter().any(|&t| t > 0.0))
            .map(|(k, s)| (k, median(&s)))
            .collect(),
        prefetch_per_sampled: (prefetched > 0).then(|| prefetched as f64 / sampled.max(1) as f64),
        unaccounted_share: median(&unaccounted),
    }
}

impl Budget {
    /// Records the budget as the `phase.*` metrics.
    pub fn put(&self, out: &mut Outcome) {
        for (phase, secs) in &self.phases {
            out.put(&format!("phase.{phase}_s"), *secs);
        }
        if let Some(ratio) = self.prefetch_per_sampled {
            out.put("phase.prefetch_per_sampled", ratio);
        }
        out.put("phase.unaccounted_share", self.unaccounted_share);
    }

    /// The phase with the largest median self time.
    pub fn largest(&self) -> &'static str {
        self.phases
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map_or("none", |p| p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: &'static str, round: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            kind,
            label: None,
            round: Some(round),
            client: None,
            start_ns: start,
            dur_ns: dur,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_and_ignores_background_waves() {
        let mut select = span(2, "select", 0, 0, 100);
        select.counters.push(("clients", 4));
        let mut prefetch = span(7, "prefetch", 0, 50, 5_000);
        prefetch.counters.push(("clients", 6));
        let records = vec![
            span(1, "round", 0, 0, 10_000),
            select,
            span(3, "local_train", 0, 100, 6_000),
            span(4, "fold", 0, 6_100, 3_000),
            span(5, "upload", 0, 6_200, 2_000),
            span(6, "aggregate", 0, 9_100, 400),
            prefetch,
        ];
        let b = budget(&records, 0);
        let get = |k: &str| b.phases.iter().find(|p| p.0 == k).map(|p| p.1);
        assert_eq!(get("fold"), Some(1_000.0 * 1e-9));
        assert_eq!(get("upload"), Some(2_000.0 * 1e-9));
        assert_eq!(get("local_train"), Some(6_000.0 * 1e-9));
        assert_eq!(get("prefetch"), Some(5_000.0 * 1e-9));
        assert_eq!(get("eval"), None);
        // 100 + 6000 + 1000 + 2000 + 400 of 10000 accounted.
        assert!((b.unaccounted_share - 0.05).abs() < 1e-12);
        assert_eq!(b.prefetch_per_sampled, Some(1.5));
        assert_eq!(b.largest(), "local_train");
    }

    #[test]
    fn warm_up_rounds_are_excluded() {
        let records = vec![
            span(1, "round", 0, 0, 1_000),
            span(2, "eval", 0, 0, 1_000),
            span(3, "round", 1, 1_000, 1_000),
            span(4, "eval", 1, 1_000, 500),
        ];
        let b = budget(&records, 1);
        assert_eq!(b.phases, vec![("eval", 500.0 * 1e-9)]);
        assert!((b.unaccounted_share - 0.5).abs() < 1e-12);
    }
}
