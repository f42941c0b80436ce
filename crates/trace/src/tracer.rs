//! The tracer handle, span guards, and the always-on stopwatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::span::{SpanKind, SpanRecord};

/// Sentinel for "no current round" in the atomics below.
const NONE: u64 = u64::MAX;

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Id of the open run span (0 = none).
    current_run: AtomicU64,
    /// Id of the open round span (0 = none).
    current_round_span: AtomicU64,
    /// Index of the open round (`NONE` = none).
    current_round: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Cheap, cloneable handle to a trace sink.
///
/// A disabled tracer (`Tracer::disabled()` / `Tracer::default()`) holds no
/// allocation; every operation on it and on its spans is a single branch, so
/// instrumentation can stay unconditionally in place on hot paths.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing (the no-op fast path).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer that records spans into an in-memory, mutex-guarded sink.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                current_run: AtomicU64::new(0),
                current_round_span: AtomicU64::new(0),
                current_round: AtomicU64::new(NONE),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open the root `run` span. Phase and round spans opened while the
    /// returned guard is live become its (transitive) children.
    pub fn begin_run(&self, label: &str) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                inner.current_run.store(id, Ordering::Relaxed);
                Span::live(
                    self.clone(),
                    SpanRecord {
                        id,
                        parent: 0,
                        kind: SpanKind::Run.name(),
                        label: Some(label.to_string()),
                        round: None,
                        client: None,
                        start_ns: inner.epoch.elapsed().as_nanos() as u64,
                        dur_ns: 0,
                        counters: Vec::new(),
                    },
                )
            }
        }
    }

    /// Open a `round` span under the current run.
    pub fn begin_round(&self, round: usize) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                inner.current_round_span.store(id, Ordering::Relaxed);
                inner.current_round.store(round as u64, Ordering::Relaxed);
                Span::live(
                    self.clone(),
                    SpanRecord {
                        id,
                        parent: inner.current_run.load(Ordering::Relaxed),
                        kind: SpanKind::Round.name(),
                        label: None,
                        round: Some(round as u64),
                        client: None,
                        start_ns: inner.epoch.elapsed().as_nanos() as u64,
                        dur_ns: 0,
                        counters: Vec::new(),
                    },
                )
            }
        }
    }

    /// Open a phase span under the current round (or run, outside a round).
    pub fn span(&self, kind: SpanKind) -> Span {
        self.phase_span(kind, None)
    }

    /// Open a per-client phase span (e.g. `local_train` for client `k`).
    /// Safe to call from worker threads on a clone of the tracer.
    pub fn client_span(&self, kind: SpanKind, client: usize) -> Span {
        self.phase_span(kind, Some(client as u64))
    }

    fn phase_span(&self, kind: SpanKind, client: Option<u64>) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                let round_span = inner.current_round_span.load(Ordering::Relaxed);
                let parent = if round_span != 0 {
                    round_span
                } else {
                    inner.current_run.load(Ordering::Relaxed)
                };
                let round = match inner.current_round.load(Ordering::Relaxed) {
                    NONE => None,
                    r => Some(r),
                };
                Span::live(
                    self.clone(),
                    SpanRecord {
                        id,
                        parent,
                        kind: kind.name(),
                        label: None,
                        round,
                        client,
                        start_ns: inner.epoch.elapsed().as_nanos() as u64,
                        dur_ns: 0,
                        counters: Vec::new(),
                    },
                )
            }
        }
    }

    /// Snapshot of all finished spans, sorted by creation id.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut recs = inner.spans.lock().expect("trace sink poisoned").clone();
                recs.sort_by_key(|r| r.id);
                recs
            }
        }
    }

    /// Files `record`, its duration `dur_ns` or, without one, the time since
    /// it opened.
    fn finish(&self, mut record: SpanRecord, dur_ns: Option<u64>) {
        let inner = self.inner.as_ref().expect("finish on disabled tracer");
        let elapsed = || (inner.epoch.elapsed().as_nanos() as u64).saturating_sub(record.start_ns);
        record.dur_ns = dur_ns.unwrap_or_else(elapsed);
        if record.kind == SpanKind::Round.name() {
            inner.current_round_span.store(0, Ordering::Relaxed);
            inner.current_round.store(NONE, Ordering::Relaxed);
        } else if record.kind == SpanKind::Run.name() {
            inner.current_run.store(0, Ordering::Relaxed);
        }
        inner
            .spans
            .lock()
            .expect("trace sink poisoned")
            .push(record);
    }
}

/// RAII guard for an open span. Counters are buffered locally and the shared
/// sink is only locked once, when the guard drops.
pub struct Span {
    state: Option<(Tracer, SpanRecord)>,
}

impl Span {
    fn noop() -> Self {
        Span { state: None }
    }

    fn live(tracer: Tracer, record: SpanRecord) -> Self {
        Span {
            state: Some((tracer, record)),
        }
    }

    /// Add `value` to the named counter (creating it at zero).
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if let Some((_, record)) = &mut self.state {
            match record.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => record.counters.push((name, value)),
            }
        }
    }

    /// Closes the span with `dur_ns` as its duration instead of the time
    /// since it opened: for work done in pieces between other spans (a
    /// worker's wakes between its clients' training), the pieces' sum.
    pub fn close_with_duration(mut self, dur_ns: u64) {
        if let Some((tracer, record)) = self.state.take() {
            tracer.finish(record, Some(dur_ns));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((tracer, record)) = self.state.take() {
            tracer.finish(record, None);
        }
    }
}

/// Thin monotonic timer used where timing must work even with tracing off
/// (e.g. the per-round `seconds` column in `History`).
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
