//! The one benchmark harness (see `../BENCHMARK.json` and `README.md`).
//!
//! `rfl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints its result line last.
//! Without `--workload` it runs the full pass — every workload, untraced
//! then traced, each in a child process so `peak_rss_mb` is per workload —
//! and writes the report (`benchmark/out/report.json` unless `--out`).

mod harness;
mod json;
mod ledger;
mod metrics;
mod phases;
mod probes;
mod procstat;
mod stats;
mod workloads;

use harness::Opts;
use json::Json;
use workloads::WORKLOADS;

const DEFAULT_SEED: u64 = 17;
const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_REPORT: &str = "benchmark/out/report.json";

fn usage() -> ! {
    eprintln!(
        "usage: rfl-benchmark [--workload <name>] [--seed <n>] [--seconds <1..60>] [--trace <0|1>]\n\
         \x20      rfl-benchmark [--seed <n>] [--seconds <1..60>] [--repeat <n>] [--out <report.json>]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("error: {flag} wants a value");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts {
        seed: value(&args, "--seed").unwrap_or(DEFAULT_SEED),
        seconds: value(&args, "--seconds").unwrap_or(DEFAULT_SECONDS),
        trace: match value::<u8>(&args, "--trace") {
            None | Some(0) => false,
            Some(1) => true,
            Some(_) => usage(),
        },
    };
    if !(1..=60).contains(&opts.seconds) {
        usage();
    }
    match value::<String>(&args, "--workload") {
        Some(name) => one_workload(&name, &opts),
        None => {
            let repeat = value(&args, "--repeat").unwrap_or(1usize);
            let out = value(&args, "--out").unwrap_or_else(|| DEFAULT_REPORT.to_string());
            full_pass(&opts, repeat.max(1), &out);
        }
    }
}

fn one_workload(name: &str, opts: &Opts) {
    if !WORKLOADS.contains(&name) {
        eprintln!("error: unknown workload {name:?}");
        usage();
    }
    let knobs = harness::pin_knobs(name, opts.trace);
    let outcome = workloads::run(name, opts).expect("name was checked");
    harness::emit(name, opts, &knobs, &outcome);
}

/// One child run: echoes its readable lines, returns its `DETAIL` object
/// and whether it reported `correct`.
fn child(name: &str, opts: &Opts, trace: bool) -> (String, bool) {
    let exe = std::env::current_exe().expect("own path");
    let output = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut result = "";
    for line in stdout.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(d) => detail = Some(d.to_string()),
            None if line.starts_with('{') => result = line,
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        eprintln!(
            "error: {name} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        );
        std::process::exit(1);
    }
    let correct = result.starts_with("{\"correct\":true,");
    (detail.expect("child printed its DETAIL line"), correct)
}

/// Every workload, untraced then traced, `repeat` times over. End-to-end
/// medians need the repeats; the per-layer numbers are read from one traced
/// pass, so only the first repetition runs it.
fn full_pass(opts: &Opts, repeat: usize, out_path: &str) {
    let started = std::time::Instant::now();
    let mut all_correct = true;
    let mut runs = Vec::with_capacity(repeat);
    for rep in 0..repeat {
        let mut run = Vec::new();
        for name in WORKLOADS {
            let mut passes = Vec::new();
            for trace in [false, true] {
                if trace && rep > 0 {
                    continue;
                }
                let (detail, correct) = child(name, opts, trace);
                all_correct &= correct;
                passes.push((if trace { "traced" } else { "untraced" }, Json::Raw(detail)));
            }
            run.push((name, Json::obj(passes)));
        }
        runs.push(Json::obj(run));
    }
    let report = Json::obj([
        ("schema", Json::str("rfl-benchmark/1")),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Int(opts.seconds)),
        ("correct", Json::Bool(all_correct)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = std::path::Path::new(out_path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("report directory");
    }
    std::fs::write(path, report.render() + "\n").expect("write report");
    println!(
        "wrote {out_path} ({repeat} run(s), {:.0} s){}",
        started.elapsed().as_secs_f64(),
        if all_correct {
            ""
        } else {
            " — CHECKS FAILED"
        }
    );
    if !all_correct {
        std::process::exit(1);
    }
}
