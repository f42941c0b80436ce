//! The command line as the driver uses it: bad arguments exit non-zero
//! without printing a result line.

use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rfl-benchmark"))
        .args(args)
        .output()
        .expect("run rfl-benchmark")
}

#[test]
fn unknown_workload_exits_non_zero_and_prints_no_result() {
    let out = bench(&[
        "--workload",
        "cnn_devise",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "no result line for a workload that does not exist"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown workload") && err.contains("cnn_device"),
        "{err}"
    );
}

#[test]
fn malformed_flags_exit_non_zero() {
    for args in [
        &["--workload", "cnn_device", "--trace", "2"][..],
        &["--workload", "cnn_device", "--seconds", "0"],
        &["--workload", "cnn_device", "--seconds", "61"],
        &["--workload", "cnn_device", "--seed", "seventeen"],
        &["--workload"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} should be refused");
        assert!(out.stdout.is_empty());
    }
}
