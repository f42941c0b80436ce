//! What every workload shares: the pinned knobs, the outcome a workload
//! fills in, the closed-loop `Trainer` leg with its warm-up boundary, and
//! the result lines.

use crate::json::Json;
use crate::metrics::{self, Def};
use crate::phases::{self, Budget};
use crate::procstat::CpuTimes;
use crate::stats::{median, Summary};
use rfl_core::{Algorithm, Federation, FlConfig, RoundRecord, Trainer};
use rfl_trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reactor shards for the socket workloads, pinned like `bench_connections`.
pub const NET_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// No timing is a median over fewer measured rounds than this.
pub const MIN_ROUNDS: usize = 30;

/// Command-line options of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Opts {
    /// Measured rounds for a workload that completes about `per_second`
    /// rounds a second on the reference machine. The count is a function of
    /// `--seconds` alone, so two commits compared at the same `--seconds`
    /// do the same work and the exact-count metrics repeat; the traced
    /// pass runs `divisor` times fewer.
    pub fn rounds(&self, per_second: usize, divisor: usize) -> usize {
        (per_second * self.seconds as usize / divisor).max(MIN_ROUNDS / divisor)
    }
}

/// The knobs the harness pins instead of inheriting, as printed in every
/// report header.
#[derive(Clone, Debug)]
pub struct Knobs {
    pub nproc: usize,
    pub thread_budget: usize,
    pub net_threads: usize,
    pub simd_backend: &'static str,
}

/// Pins every knob the library would otherwise read from the environment.
/// Must run before the first library call (the budget and SIMD switches are
/// read once) and before any thread exists (it edits the environment).
pub fn pin_knobs(workload: &str, trace: bool) -> Knobs {
    for var in [
        "RFL_THREADS",
        "RFL_SIMD",
        "RFL_NET_WRITE_BUF",
        "RFL_SOCKET_TIMEOUT_SECS",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("RFL_NET_THREADS", NET_THREADS.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let untraced = nproc.min(2);
    let budget = if trace {
        crate::workloads::traced_budget(workload, untraced)
    } else {
        untraced
    };
    rfl_tensor::set_thread_budget(budget);
    Knobs {
        nproc,
        thread_budget: rfl_tensor::thread_budget(),
        net_threads: NET_THREADS,
        simd_backend: rfl_tensor::simd_backend(),
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    values: Vec<(&'static str, f64)>,
    summaries: Vec<(&'static str, Summary)>,
    /// Client updates attempted plus checks made.
    pub attempted: u64,
    /// Updates not delivered plus checks failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    notes: Vec<(String, String)>,
}

impl Outcome {
    fn def(name: &str) -> &'static Def {
        metrics::lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"))
    }

    /// Records a plain value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((Self::def(name).name, value));
    }

    /// Records a timing as its median, keeping count, quartiles and tail
    /// for the report.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.summaries.push((Self::def(name).name, s));
        self.put(name, s.median);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// One correctness check; a failed one fails the run.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        let label = label.into();
        if !ok {
            eprintln!("CHECK FAILED: {label}");
        }
        self.checks.push((label, ok));
    }

    /// Counts a leg's client updates: attempted = selected, failed = not
    /// delivered into the aggregate.
    pub fn count_updates(&mut self, records: &[RoundRecord]) {
        for r in records {
            self.attempted += r.participants as u64;
            self.failed += (r.participants - r.delivered) as u64;
        }
    }

    /// A free-form fact for the report header (targets, cohort sizes).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// User + system CPU and wall time between two instants.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu: CpuTimes,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu: CpuTimes::now(),
        }
    }
}

/// One closed-loop `Trainer::run`: `warm` warm-up rounds, then the measured
/// window (everything from the end of the last warm-up round's evaluation
/// to `run` returning, so eval, eviction and `quiesce` are inside it).
pub struct Leg {
    records: Vec<RoundRecord>,
    warm: usize,
    /// Seconds from the start of `run` to the start of the window.
    pub warmup_s: f64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// CPU spent by the whole process inside the window.
    pub window_cpu: CpuTimes,
}

impl Leg {
    pub fn measured(&self) -> &[RoundRecord] {
        &self.records[self.warm..]
    }

    pub fn all(&self) -> &[RoundRecord] {
        &self.records
    }

    pub fn round_secs(&self) -> Vec<f64> {
        self.measured().iter().map(|r| r.seconds).collect()
    }

    /// Client updates folded into the global over the window.
    pub fn updates(&self) -> u64 {
        self.measured().iter().map(|r| r.delivered as u64).sum()
    }

    /// Down + up bytes per measured round; δ traffic is inside both
    /// directions already (`CommStats::record_delta` counts into the
    /// totals), so nothing is added twice.
    pub fn bytes_per_round(&self) -> f64 {
        let total: u64 = self
            .measured()
            .iter()
            .map(|r| r.down_bytes + r.up_bytes)
            .sum();
        total as f64 / self.measured().len() as f64
    }

    /// Per-round training losses as bit patterns, for exact comparison.
    pub fn loss_bits(&self) -> Vec<u32> {
        self.records
            .iter()
            .map(|r| r.train_loss.to_bits())
            .collect()
    }

    /// Every round's loss bits and the measured rounds' seconds.
    pub fn series(&self) -> Series {
        Series {
            exact: self.loss_bits(),
            secs: self.round_secs(),
        }
    }

    /// The checks every leg of every `Trainer` workload must pass — finite
    /// losses, exactly `cohort` participants a round with every update
    /// delivered, `bytes` moved by every measured round — and its updates
    /// counted into `attempted`/`failed`.
    pub fn check(&self, out: &mut Outcome, what: &str, cohort: usize, bytes: u64) {
        out.check(
            format!("{what}: every round's loss is finite"),
            self.records.iter().all(|r| r.train_loss.is_finite()),
        );
        out.check(
            format!("{what}: exactly {cohort} participants every round, all delivered"),
            self.records
                .iter()
                .all(|r| r.participants == cohort && r.delivered == cohort),
        );
        out.check(
            format!("{what}: every measured round moves the closed-form {bytes} bytes"),
            self.measured()
                .iter()
                .all(|r| r.down_bytes + r.up_bytes == bytes),
        );
        out.count_updates(&self.records);
    }

    /// The four end-to-end metrics every `Trainer` workload derives the
    /// same way.
    pub fn put_end_to_end(&self, out: &mut Outcome) {
        let rounds = self.measured().len() as f64;
        out.put_samples("round_s", &self.round_secs());
        out.put("updates_per_s", self.updates() as f64 / self.window_s);
        out.put("cpu_s_per_round", self.window_cpu.total() / rounds);
        out.put("wire_bytes_per_round", self.bytes_per_round());
    }
}

/// Runs `warm + measured` rounds of `algo` on `fed` in one `Trainer::run`.
pub fn run_leg(
    algo: &mut dyn Algorithm,
    fed: &mut Federation,
    cfg: FlConfig,
    warm: usize,
    pipelined: bool,
) -> Leg {
    assert!(
        cfg.rounds >= warm && warm >= 1,
        "warm-up rounds are part of every leg"
    );
    let boundary: Arc<Mutex<Option<Mark>>> = Arc::new(Mutex::new(None));
    let records: Arc<Mutex<Vec<RoundRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let (b, r) = (Arc::clone(&boundary), Arc::clone(&records));
    let mut trainer = Trainer::new(cfg).with_observer(move |rec| {
        r.lock().expect("records").push(rec.clone());
        if rec.round + 1 == warm {
            *b.lock().expect("boundary") = Some(Mark::now());
        }
    });
    if pipelined {
        trainer = trainer.pipelined();
    }
    let start = Mark::now();
    trainer.run(algo, fed);
    let end = Mark::now();
    let window_start = boundary.lock().expect("boundary").unwrap_or(start);
    let records = std::mem::take(&mut *records.lock().expect("records"));
    Leg {
        records,
        warm,
        warmup_s: (window_start.at - start.at).as_secs_f64(),
        window_s: (end.at - window_start.at).as_secs_f64(),
        window_cpu: end.cpu.since(&window_start.cpu),
    }
}

/// What a set-up builds: a federation, plus whatever has to be torn down
/// with it (a remote federation owns sockets and client threads).
pub trait Rig {
    fn fed(&mut self) -> &mut Federation;
    fn finish(self);
}

impl Rig for Federation {
    fn fed(&mut self) -> &mut Federation {
        self
    }
    fn finish(self) {}
}

/// Runs the set-up `SETUP_REPS` times — `build` then the warm-up rounds —
/// and returns the last instance's leg, continued into its measured rounds,
/// with every set-up's seconds.
pub fn setup_and_run<R: Rig>(
    mut build: impl FnMut() -> R,
    mut algo: impl FnMut() -> Box<dyn Algorithm>,
    cfg: FlConfig,
    warm: usize,
    pipelined: bool,
) -> (Leg, Vec<f64>, R) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 1..=SETUP_REPS {
        let last = rep == SETUP_REPS;
        let t0 = Instant::now();
        let mut rig = build();
        let built_s = t0.elapsed().as_secs_f64();
        // The discarded instances stop at the warm-up boundary; the last
        // one carries on into its measured rounds inside the same run.
        let rounds = if last { cfg.rounds } else { warm };
        let leg_cfg = FlConfig { rounds, ..cfg };
        let leg = run_leg(algo().as_mut(), rig.fed(), leg_cfg, warm, pipelined);
        setups.push(built_s + leg.warmup_s);
        if last {
            return (leg, setups, rig);
        }
        rig.finish();
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// What two legs of one seed are compared on: their exact results (loss
/// bits, or ledger counts where there is no loss) and per-round seconds.
pub struct Series {
    pub exact: Vec<u32>,
    pub secs: Vec<f64>,
}

/// What the traced pass derives from an untraced and a traced leg of the
/// same seed: the legs must agree bit for bit as far as both ran; the
/// difference of their medians over the same round indices is the tracing
/// overhead; the traced leg's spans (rounds `first_round..`) give the phase
/// budget.
pub fn compare_traced(
    out: &mut Outcome,
    tracer: &Tracer,
    plain: &Series,
    traced: &Series,
    first_round: usize,
) -> Budget {
    let n = traced.exact.len().min(plain.exact.len());
    out.check(
        "traced and untraced legs produce bit-identical results",
        traced.exact[..n] == plain.exact[..n],
    );
    let m = traced.secs.len().min(plain.secs.len());
    let plain_s = median(&plain.secs[..m]);
    out.put(
        "trace.overhead_share",
        (median(&traced.secs[..m]) - plain_s) / plain_s,
    );
    let budget = phases::budget(&tracer.records(), first_round as u64);
    budget.put(out);
    out.note("largest_phase", budget.largest());
    budget
}

/// Ends a traced pass: records `fail_ratio` and writes the span journal to
/// `benchmark/out/trace-<workload>.jsonl` (relative to the working
/// directory, which is the checkout root).
pub fn finish_traced(out: &mut Outcome, workload: &str, tracer: &Tracer) {
    let fail_ratio = out.fail_ratio();
    out.put("fail_ratio", fail_ratio);
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let result = std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path));
    if let Err(e) = result {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints the report of one workload run: a readable table, a `DETAIL`
/// line (sample counts, quartiles, tails, checks, knobs) for the full-pass
/// report, and — last — the driver's result line.
pub fn emit(workload: &str, opts: &Opts, knobs: &Knobs, out: &Outcome) {
    let defs = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "== {workload}  seed {}  seconds {}  trace {}  |  nproc {}  thread budget {}  \
         net threads {}  simd {} ==",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        knobs.nproc,
        knobs.thread_budget,
        knobs.net_threads,
        knobs.simd_backend
    );
    for (k, v) in &out.notes {
        println!("  {k}: {v}");
    }
    let mut detail_metrics = Vec::new();
    for def in defs {
        let Some(value) = out.get(def.name) else {
            continue;
        };
        let mut fields = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::str(def.unit)),
            ("better".to_string(), Json::str(def.better)),
        ];
        let mut line = format!(
            "  {:<30} {:>16.6} {:<8} ({} is better)",
            def.name, value, def.unit, def.better
        );
        if let Some((_, s)) = out.summaries.iter().find(|(n, _)| *n == def.name) {
            line += &format!("  n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3);
            fields.push(("n".into(), Json::Int(s.n as u64)));
            fields.push(("q1".into(), Json::Num(s.q1)));
            fields.push(("q3".into(), Json::Num(s.q3)));
            if let Some((p, v)) = s.tail {
                line += &format!(" p{p}={v:.6}");
                fields.push(("tail_percentile".into(), Json::Num(p)));
                fields.push(("tail".into(), Json::Num(v)));
            }
        }
        println!("{line}");
        detail_metrics.push((def.name.to_string(), Json::Obj(fields)));
    }
    for (label, ok) in &out.checks {
        println!("  [{}] {label}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "  attempted {}  failed {}  fail_ratio {}",
        out.attempted,
        out.failed,
        out.fail_ratio()
    );

    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Int(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::Int(knobs.nproc as u64)),
        ("thread_budget", Json::Int(knobs.thread_budget as u64)),
        ("net_threads", Json::Int(knobs.net_threads as u64)),
        ("simd_backend", Json::str(knobs.simd_backend)),
        (
            "notes",
            Json::obj(
                out.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
            ),
        ),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("fail_ratio", Json::Num(out.fail_ratio())),
        ("checks", Json::Int(out.checks.len() as u64)),
        (
            "failed_checks",
            Json::Arr(
                out.checks
                    .iter()
                    .filter(|(_, ok)| !ok)
                    .map(|(label, _)| Json::str(label.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(detail_metrics)),
    ]);
    println!("DETAIL {}", detail.render());

    // The driver's contract: exactly these keys, every metric of the list
    // the `--trace` flag selects. An end-to-end metric is never missing; a
    // per-layer metric this workload's layers do not produce reads 0.
    let contract_metrics = defs.iter().map(|def| {
        let value = match out.get(def.name) {
            Some(v) => v,
            None if opts.trace => 0.0,
            None => panic!("{workload} did not report end-to-end metric {}", def.name),
        };
        let metric = Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]);
        (def.name, metric)
    });
    let line = Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::obj(contract_metrics)),
    ]);
    println!("{}", line.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_counts_follow_seconds_and_never_drop_below_the_floor() {
        let opts = |seconds| Opts {
            seed: 0,
            seconds,
            trace: false,
        };
        // The issue's counts at the default ten seconds.
        assert_eq!(opts(10).rounds(4, 1), 40);
        assert_eq!(opts(10).rounds(16, 1), 160);
        assert_eq!(opts(10).rounds(30, 4), 75);
        // Short runs keep at least thirty measured rounds (and the traced
        // pass its share of them).
        assert_eq!(opts(1).rounds(4, 1), MIN_ROUNDS);
        assert_eq!(opts(1).rounds(4, 2), MIN_ROUNDS / 2);
        assert_eq!(opts(60).rounds(4, 1), 240);
    }

    #[test]
    fn failed_checks_and_lost_updates_count_against_the_attempts() {
        let mut out = Outcome::default();
        out.check("holds", true);
        out.check("does not", false);
        out.attempted += 8;
        out.failed += 1;
        assert_eq!((out.attempted, out.failed), (10, 2));
        assert!((out.fail_ratio() - 0.2).abs() < 1e-12);
        out.put("round_s", 0.5);
        assert_eq!(out.get("round_s"), Some(0.5));
        assert_eq!(out.get("setup_s"), None);
    }

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn a_metric_outside_the_vocabulary_is_a_bug() {
        Outcome::default().put("round_seconds", 1.0);
    }
}
