//! `rfl-bench <experiment>|list|all [options]` — see `rfl-bench list`.

use rfl_bench::args::{parse_args, Command};
use rfl_bench::experiments::{list, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (command, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(complaint) => {
            eprintln!("{complaint}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => print!("{}", list()),
        Command::One(exp) => (exp.run)(&args),
        Command::All => {
            for exp in &EXPERIMENTS {
                // The line scripts/experiments-smoke.sh splits the output on.
                println!(">>> rfl-bench {}", exp.name);
                (exp.run)(&args);
            }
        }
    }
    if let Some(path) = &args.trace_out {
        args.tracer
            .write_jsonl(path)
            .expect("cannot write trace journal");
        println!("\n-- trace summary --\n{}", args.tracer.summary());
        println!("  wrote {path}");
    }
    ExitCode::SUCCESS
}
