//! Span vocabulary and the finished-span record type.

/// The fixed vocabulary of instrumented phases.
///
/// The hierarchy is `Run → Round → everything else`; phase spans opened while
/// a round is active become children of that round, otherwise of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Whole training run (one algorithm × one seed).
    Run,
    /// One communication round.
    Round,
    /// Client sampling at the top of a round.
    Select,
    /// Global-model parameter broadcast (server → selected clients).
    Broadcast,
    /// δ-table / δ-target broadcast (server → clients); the `O(dN²)` vs
    /// `O(dN)` plane the paper optimizes.
    DeltaBroadcast,
    /// δ-map upload (clients → server), including rFedAvg+'s second sync.
    DeltaSync,
    /// One client's local training.
    LocalTrain,
    /// Model parameter upload (clients → server).
    Upload,
    /// Server-side weighted aggregation.
    Aggregate,
    /// Global-model evaluation on the held-out test set.
    Eval,
    /// Tree-fold of arriving uploads into the streaming aggregator.
    Fold,
    /// Lazy registry: persisting clients' durable state, one span per worker
    /// of a request that hibernated any; its duration is the sum of those
    /// hibernations.
    Hibernate,
    /// Lazy registry: bringing clients to life, one span per worker of a
    /// request that woke any; a training request's worker wakes each client
    /// between the previous one's training, so the duration is the sum of
    /// the wakes.
    Materialize,
}

impl SpanKind {
    /// Stable wire name used in the JSONL journal and summary table.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Round => "round",
            SpanKind::Select => "select",
            SpanKind::Broadcast => "broadcast",
            SpanKind::DeltaBroadcast => "delta_broadcast",
            SpanKind::DeltaSync => "delta_sync",
            SpanKind::LocalTrain => "local_train",
            SpanKind::Upload => "upload",
            SpanKind::Aggregate => "aggregate",
            SpanKind::Eval => "eval",
            SpanKind::Fold => "fold",
            SpanKind::Hibernate => "hibernate",
            SpanKind::Materialize => "materialize",
        }
    }
}

/// A completed span, as stored in the sink and serialized to the journal.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id, assigned at span *creation* (so ids follow program order
    /// even when guards drop out of order).
    pub id: u64,
    /// Id of the enclosing span; 0 for the root `run` span.
    pub parent: u64,
    /// Wire name of the span kind (`SpanKind::name`).
    pub kind: &'static str,
    /// Free-form label (the run span carries the algorithm name).
    pub label: Option<String>,
    /// Round index, when the span belongs to a round.
    pub round: Option<u64>,
    /// Client index, for per-client spans.
    pub client: Option<u64>,
    /// Monotonic start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Named counters (bytes, batches, examples, dims, ...), accumulated.
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Value of a named counter, if it was recorded on this span.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}
