//! # rfl-trace
//!
//! Round-level observability for the federated simulation stack.
//!
//! The paper's headline claims are *efficiency* claims (rFedAvg+ cuts the
//! per-round δ broadcast from `O(dN²)` to `O(dN)`), so the framework must be
//! able to say not just *how many bytes* a round moved (that is
//! `rfl_core`'s `CommStats`) but *where its wall-clock went*: local SGD vs.
//! δ-map sync vs. codec vs. aggregation. This crate provides that layer:
//!
//! * **Hierarchical spans** — `run → round → {select, broadcast,
//!   local_train[client], delta_broadcast, delta_sync, upload, aggregate,
//!   eval}` — with monotonic timers ([`Stopwatch`]) and named `u64`
//!   counters (bytes, batches, examples, δ dims, participants).
//! * **A thread-safe sink** — client spans are created from worker threads
//!   during parallel local training; records are buffered per span and only
//!   touch the shared, mutex-guarded sink once, at span end.
//! * **A JSONL journal** ([`Tracer::write_jsonl`]) — one object per span —
//!   and an end-of-run ASCII summary table ([`Tracer::summary`]) in the
//!   `rfl-metrics` table style.
//! * **A no-op fast path** — [`Tracer::disabled`] carries no allocation and
//!   every span operation is a branch on `Option`, so instrumented code runs
//!   at full speed (and bit-identically; see the determinism test in
//!   `rfl_core::federation`) when tracing is off.
//!
//! ## JSONL schema
//!
//! ```json
//! {"id":7,"parent":2,"span":"local_train","label":"rFedAvg+","round":0,
//!  "client":3,"start_ns":51234,"dur_ns":881023,
//!  "ctr":{"batches":5,"examples":160}}
//! ```
//!
//! `parent` is `0` for the root `run` span; `round`/`client`/`label` are
//! omitted when not applicable. `start_ns` is monotonic time since the
//! tracer was created, so spans from one process share one clock.

mod journal;
mod span;
mod summary;
mod tracer;

pub use span::{SpanKind, SpanRecord};
pub use tracer::{Span, Stopwatch, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_collects_nothing() {
        let t = Tracer::disabled();
        {
            let mut s = t.span(SpanKind::Broadcast);
            s.counter("bytes", 10);
        }
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
    }

    #[test]
    fn span_hierarchy_run_round_phase() {
        let t = Tracer::enabled();
        let run = t.begin_run("algo");
        let round = t.begin_round(0);
        {
            let mut s = t.span(SpanKind::Broadcast);
            s.counter("bytes", 128);
        }
        drop(round);
        drop(run);
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        let run = recs.iter().find(|r| r.kind == "run").unwrap();
        let round = recs.iter().find(|r| r.kind == "round").unwrap();
        let bc = recs.iter().find(|r| r.kind == "broadcast").unwrap();
        assert_eq!(run.parent, 0);
        assert_eq!(round.parent, run.id);
        assert_eq!(bc.parent, round.id);
        assert_eq!(bc.round, Some(0));
        assert_eq!(bc.counter("bytes"), Some(128));
        assert_eq!(run.label.as_deref(), Some("algo"));
    }

    #[test]
    fn client_spans_are_thread_safe() {
        let t = Tracer::enabled();
        let _run = t.begin_run("x");
        let round = t.begin_round(3);
        std::thread::scope(|s| {
            for k in 0..8usize {
                let t = t.clone();
                s.spawn(move || {
                    let mut span = t.client_span(SpanKind::LocalTrain, k);
                    span.counter("batches", k as u64);
                });
            }
        });
        drop(round);
        let recs = t.records();
        let clients: Vec<u64> = recs
            .iter()
            .filter(|r| r.kind == "local_train")
            .filter_map(|r| r.client)
            .collect();
        assert_eq!(clients.len(), 8);
        for r in recs.iter().filter(|r| r.kind == "local_train") {
            assert_eq!(r.round, Some(3));
        }
    }

    #[test]
    fn counters_accumulate() {
        let t = Tracer::enabled();
        {
            let mut s = t.span(SpanKind::DeltaSync);
            s.counter("bytes", 5);
            s.counter("bytes", 7);
        }
        assert_eq!(t.records()[0].counter("bytes"), Some(12));
    }

    #[test]
    fn a_span_closed_with_a_duration_reports_it() {
        let t = Tracer::enabled();
        let mut s = t.span(SpanKind::Hibernate);
        s.counter("clients", 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close_with_duration(1_234);
        let recs = t.records();
        assert_eq!(
            (recs[0].dur_ns, recs[0].counter("clients")),
            (1_234, Some(3))
        );
        Tracer::disabled()
            .span(SpanKind::Hibernate)
            .close_with_duration(5);
    }

    #[test]
    fn records_are_in_creation_order() {
        let t = Tracer::enabled();
        let a = t.span(SpanKind::Select);
        let b = t.span(SpanKind::Aggregate);
        drop(b);
        drop(a); // reverse drop order must not reorder ids
        let recs = t.records();
        assert!(recs[0].id < recs[1].id);
        assert_eq!(recs[0].kind, "select");
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
