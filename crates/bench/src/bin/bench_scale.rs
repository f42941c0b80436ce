//! Scaling gate for million-client rounds
//! (`bench_scale --out BENCH_PR7.json` writes the committed report).
//!
//! Drives the streaming-aggregation + lazy-registry round machinery over a
//! registered-clients × sampling-rate × model-size grid and reports peak
//! resident memory and round throughput per leg. The server never holds
//! the full client population: registered clients are descriptors in the
//! sharded registry, each round's selection is materialized in fixed-size
//! *waves* (broadcast → local train → fold into one [`StreamingAggregator`]
//! → evict), so peak memory is `O(d + wave)` for the round state plus
//! `O(sampled·d)` hibernated parameters — never `O(N·d)`.
//!
//! The fold is prenormalized over the *whole* selection, so the wave-sliced
//! round is bit-identical to collecting every upload in one pass.
//!
//! Rounds are *pipelined*: selections come from the round-addressable
//! [`SelectionStream`], so while wave `w` trains, wave `w+1` (or round
//! `t+1`'s first wave, across the round boundary) materializes on a
//! prefetch thread, and evicted waves hibernate in the background —
//! whenever the thread budget has a spare core to run them on (waves fall
//! back to inline work on a single-threaded budget, where background
//! threads only time-slice against training). Throughput is reported,
//! never gated: a timing claim goes through `benchmark/` (`scale_lazy`),
//! compared as alternating pairs — a fixed rounds/s constant cannot gate
//! on a machine whose phases move every wall-clock metric by a third.
//!
//! Usage: `bench_scale [--quick] [--out <path>]`
//!
//! `--quick` runs the 100k-client leg only with an absolute peak-RSS
//! ceiling (the CI smoke gate). The full grid adds the million-client leg
//! and enforces that its peak RSS stays within [`MAX_SCALE_RSS_RATIO`]× of
//! the 100k leg — memory must scale with the sampled set, not the registry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::sampling::SelectionStream;
use rfl_core::{
    ClientDataSource, Federation, FlConfig, LocalRule, ModelFactory, OptimizerFactory,
    StreamingAggregator,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::Tensor;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Clients materialized at once; the peak-memory knob of the wave loop.
const WAVE: usize = 1024;
/// Rounds per leg (enough to amortize registry warm-up in rounds/sec).
const ROUNDS: usize = 2;
/// Samples in every client's regenerated shard.
const SAMPLES_PER_CLIENT: usize = 32;
const CLASSES: usize = 4;
const SEED: u64 = 7;

/// Quick-mode gate: peak RSS of the 100k-client leg. Eagerly materializing
/// the same federation holds ~500 MB of datasets and replicas; the wave
/// loop measures ~21 MB, so the ceiling fails loudly if anything starts
/// scaling with the registry again while leaving room for benign drift.
const QUICK_RSS_CEILING_BYTES: u64 = 64 * 1024 * 1024;
/// Full-mode gate: peak RSS must be independent of the registered count
/// `N`. Measured at **equal sampled count** — the million-client leg
/// (1M @ 1% = 10k sampled) against the 100k @ 10% leg (also 10k sampled) —
/// so the permitted `O(d + sampled)` term cancels and the ratio isolates
/// the forbidden `O(N)` term. 10× the registered clients may cost at most
/// this factor.
const MAX_SCALE_RSS_RATIO: f64 = 2.0;

/// A million-client data source that *generates* each shard on demand:
/// client `k`'s dataset is a deterministic function of `(seed, k)`, so a
/// hibernated client rebuilds the identical shard on every wake and the
/// registry never stores data for unsampled clients.
struct GaussianSource {
    spec: GaussianMixtureSpec,
    /// Class means hoisted out of the per-client path: every shard of a
    /// source shares them, and recomputing `spec.means()` per
    /// materialization dominated dataset regeneration at registry scale.
    means: Tensor,
    n: usize,
    seed: u64,
}

impl GaussianSource {
    fn new(spec: GaussianMixtureSpec, n: usize, seed: u64) -> Self {
        GaussianSource {
            means: spec.means(),
            spec,
            n,
            seed,
        }
    }
}

impl ClientDataSource for GaussianSource {
    fn num_clients(&self) -> usize {
        self.n
    }
    fn num_samples(&self, _k: usize) -> usize {
        SAMPLES_PER_CLIENT
    }
    fn dataset(&self, k: usize) -> Dataset {
        // Same (seed, id) keying discipline as the client RNG streams.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shift = self.spec.random_shift(1.0, &mut rng);
        self.spec
            .generate_with_means(&self.means, SAMPLES_PER_CLIENT, Some(&shift), &mut rng)
    }
}

#[derive(Clone)]
struct Leg {
    name: &'static str,
    clients: usize,
    sample_ratio: f32,
    dim: usize,
}

/// The full grid. Quick mode runs only the first (CI smoke) leg; the
/// scale gate compares the million-client leg against the equal-sampled
/// `100k_10pct_d32` baseline.
fn grid() -> Vec<Leg> {
    vec![
        Leg {
            name: "100k_1pct_d32",
            clients: 100_000,
            sample_ratio: 0.01,
            dim: 32,
        },
        Leg {
            name: "100k_0.1pct_d32",
            clients: 100_000,
            sample_ratio: 0.001,
            dim: 32,
        },
        Leg {
            name: "100k_1pct_d256",
            clients: 100_000,
            sample_ratio: 0.01,
            dim: 256,
        },
        Leg {
            name: "100k_10pct_d32",
            clients: 100_000,
            sample_ratio: 0.1,
            dim: 32,
        },
        Leg {
            name: "1m_1pct_d32",
            clients: 1_000_000,
            sample_ratio: 0.01,
            dim: 32,
        },
    ]
}

struct LegReport {
    leg: Leg,
    sampled_per_round: usize,
    rounds_per_sec: f64,
    peak_rss_bytes: u64,
    final_loss: f32,
}

/// One grid leg: build a lazy federation over the synthetic source and run
/// [`ROUNDS`] wave-sliced rounds.
fn run_leg(leg: Leg) -> LegReport {
    rfl_core::mem::reset_peak_rss();
    let spec = GaussianMixtureSpec {
        dim: leg.dim,
        classes: CLASSES,
        sep: 2.0,
        noise: 1.0,
        mean_seed: 45,
    };
    let mut data_rng = StdRng::seed_from_u64(SEED);
    let test = spec.generate(64, None, &mut data_rng);
    let cfg = FlConfig {
        rounds: ROUNDS,
        local_steps: 1,
        batch_size: 8,
        sample_ratio: leg.sample_ratio,
        eval_every: 100,
        parallel: true,
        clip_grad_norm: None,
        seed: SEED,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    };
    let source = Arc::new(GaussianSource::new(spec, leg.clients, SEED));
    let mut fed = Federation::lazy(
        source,
        test,
        ModelFactory::logistic(leg.dim, CLASSES, 0.0),
        OptimizerFactory::sgd(0.05),
        &cfg,
        SEED,
    );
    // Background waves only pay for themselves when a spare core can run
    // them — on a single-threaded budget the prefetch/hibernate threads
    // just time-slice against training (and cost extra allocator arenas),
    // so the loop falls back to inline materialization and eviction.
    let pipelined = rfl_tensor::thread_budget() > 1;
    if pipelined {
        fed.set_background_hibernate(true);
    }

    let stream = SelectionStream::new(SEED ^ 0x5EED_5EED);
    let mut agg = StreamingAggregator::default();
    let mut buf = Vec::new();
    let mut sampled_per_round = 0;
    let mut final_loss = 0.0f32;
    // Round `t+1`'s selection, drawn ahead (the stream is round-addressed,
    // so the lookahead is free) to seed the cross-round prefetch wave.
    let mut next_selected = Some(stream.select(0, leg.clients, leg.sample_ratio));
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        fed.begin_round(round as u64);
        let selected = next_selected
            .take()
            .expect("lookahead selection for this round");
        next_selected =
            (round + 1 < ROUNDS).then(|| stream.select(round + 1, leg.clients, leg.sample_ratio));
        sampled_per_round = selected.len();
        agg.reset_for_selection(fed.num_params(), fed.weights(), &selected);
        let mut loss_sum = 0.0f32;
        let mut loss_n = 0usize;
        let waves: Vec<&[usize]> = selected.chunks(WAVE).collect();
        for (w, wave) in waves.iter().enumerate() {
            fed.broadcast_params(wave);
            // Overlap: materialize the successor wave (the next chunk, or
            // round `t+1`'s first wave across the boundary) while this one
            // trains. Evictions ride a background wave the prefetch thread
            // joins, so hibernate → wake round-trips stay ordered.
            if pipelined {
                match waves.get(w + 1) {
                    Some(next) => fed.prefetch_hint(next),
                    None => {
                        if let Some(next) = &next_selected {
                            fed.prefetch_hint(&next[..next.len().min(WAVE)]);
                        }
                    }
                }
            }
            let rules = vec![LocalRule::Plain; wave.len()];
            let reports = fed.train_selected(wave, &rules, cfg.local_steps);
            for (i, &k) in wave.iter().enumerate() {
                fed.client(k).read_params(&mut buf);
                agg.push(w * WAVE + i, &buf);
            }
            loss_sum += reports.iter().flatten().map(|r| r.loss).sum::<f32>();
            loss_n += reports.len();
            // Hibernate the wave before the next one materializes.
            fed.evict_active();
        }
        if let Some(avg) = agg.finish() {
            fed.set_global(avg);
        }
        final_loss = loss_sum / loss_n as f32;
    }
    // Land in-flight prefetch/hibernate waves inside the timed region —
    // the baseline had no outstanding background work to hide.
    fed.quiesce();
    let secs = t0.elapsed().as_secs_f64();

    LegReport {
        leg,
        sampled_per_round,
        rounds_per_sec: ROUNDS as f64 / secs,
        peak_rss_bytes: rfl_core::mem::peak_rss_bytes(),
        final_loss,
    }
}

/// Runs `leg` in a child process (the binary re-executing itself with
/// `--leg <name>`) so every leg's peak RSS is measured in a pristine
/// address space — the allocator retains freed pages, so an in-process
/// successor would inherit its predecessor's high-water mark.
fn run_leg_in_child(leg: Leg) -> LegReport {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args(["--leg", leg.name])
        .output()
        .expect("spawn leg child");
    assert!(
        out.status.success(),
        "leg {} child failed: {}",
        leg.name,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("leg child output");
    // `LEG <sampled> <rounds_per_sec> <peak_rss_bytes> <final_loss>`
    let fields: Vec<&str> = line.split_whitespace().collect();
    assert!(
        fields.len() == 5 && fields[0] == "LEG",
        "malformed leg line: {line:?}"
    );
    LegReport {
        leg,
        sampled_per_round: fields[1].parse().expect("sampled"),
        rounds_per_sec: fields[2].parse().expect("rounds_per_sec"),
        peak_rss_bytes: fields[3].parse().expect("peak_rss_bytes"),
        final_loss: fields[4].parse().expect("final_loss"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Child mode: run one leg, emit the machine-readable line, exit.
    if let Some(name) = args
        .iter()
        .position(|a| a == "--leg")
        .and_then(|i| args.get(i + 1))
    {
        let leg = grid()
            .into_iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("unknown leg {name}"));
        let r = run_leg(leg);
        println!(
            "LEG {} {:.3} {} {:.6}",
            r.sampled_per_round, r.rounds_per_sec, r.peak_rss_bytes, r.final_loss
        );
        return;
    }

    let legs: Vec<Leg> = if quick {
        grid().into_iter().take(1).collect()
    } else {
        grid()
    };

    let mut reports = Vec::new();
    for leg in legs {
        eprintln!(
            "leg {}: {} clients, {:.2}% sampled, dim {}",
            leg.name,
            leg.clients,
            leg.sample_ratio * 100.0,
            leg.dim
        );
        reports.push(run_leg_in_child(leg));
    }

    let quick_peak = reports[0].peak_rss_bytes;
    let million = reports.iter().find(|r| r.leg.name == "1m_1pct_d32");
    let equal_sampled_base = reports.iter().find(|r| r.leg.name == "100k_10pct_d32");
    let scale_ratio = million.zip(equal_sampled_base).map(|(m, b)| {
        debug_assert_eq!(m.sampled_per_round, b.sampled_per_round);
        m.peak_rss_bytes as f64 / b.peak_rss_bytes.max(1) as f64
    });

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rounds_per_leg\": {ROUNDS},");
    let _ = writeln!(json, "  \"wave_size\": {WAVE},");
    let _ = writeln!(
        json,
        "  \"quick_rss_ceiling_bytes\": {QUICK_RSS_CEILING_BYTES},"
    );
    let _ = writeln!(json, "  \"max_scale_rss_ratio\": {MAX_SCALE_RSS_RATIO},");
    if let Some(r) = scale_ratio {
        // 1M @ 1% vs 100k @ 10%: same 10k sampled clients, 10× the
        // registered count — the O(N) isolation ratio.
        let _ = writeln!(json, "  \"equal_sampled_10x_clients_rss_ratio\": {r:.3},");
    }
    json.push_str("  \"legs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.leg.name);
        let _ = writeln!(json, "      \"registered_clients\": {},", r.leg.clients);
        let _ = writeln!(json, "      \"sample_ratio\": {},", r.leg.sample_ratio);
        let _ = writeln!(json, "      \"model_dim\": {},", r.leg.dim);
        let _ = writeln!(
            json,
            "      \"sampled_per_round\": {},",
            r.sampled_per_round
        );
        let _ = writeln!(json, "      \"rounds_per_sec\": {:.3},", r.rounds_per_sec);
        let _ = writeln!(json, "      \"peak_rss_bytes\": {},", r.peak_rss_bytes);
        let _ = writeln!(json, "      \"final_loss\": {:.6}", r.final_loss);
        json.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write report");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }

    let mut failed = false;
    for r in &reports {
        if !r.final_loss.is_finite() {
            eprintln!("ERROR: leg {} diverged (loss {})", r.leg.name, r.final_loss);
            failed = true;
        }
    }
    if quick_peak > QUICK_RSS_CEILING_BYTES {
        eprintln!(
            "ERROR: 100k-client 1% leg peaked at {quick_peak} resident bytes, above the \
             committed ceiling of {QUICK_RSS_CEILING_BYTES}"
        );
        failed = true;
    }
    if let Some(r) = scale_ratio {
        if r > MAX_SCALE_RSS_RATIO {
            eprintln!(
                "ERROR: at equal sampled count, 10x the registered clients costs {r:.2}x \
                 the peak RSS, above the required {MAX_SCALE_RSS_RATIO}x"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
