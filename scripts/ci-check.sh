#!/usr/bin/env bash
# The CI checks, defined once. Each job of .github/workflows/ci.yml runs one
# section (`scripts/ci-check.sh <section>`); with no argument every section
# runs, in the order below, so a local run is the whole of CI.
#
# Usage: scripts/ci-check.sh [section ...]
#   sections: fmt clippy build test distributed threaded bench
set -euo pipefail
cd "$(dirname "$0")/.."

SECTIONS=(fmt clippy build test distributed threaded bench)

section_fmt() {
    echo "== cargo fmt --all -- --check"
    cargo fmt --all -- --check
}

section_clippy() {
    echo "== cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    # A public doc that links to a private item (or to nothing) fails here.
    # The vendor/* crates stand in for registry crates and are not held to it.
    local vendored=()
    for manifest in vendor/*/Cargo.toml; do
        vendored+=(--exclude "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
    done
    echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps ${vendored[*]}"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline "${vendored[@]}"
}

section_build() {
    echo "== cargo build --release --workspace"
    cargo build --release --workspace
}

# The back-end parity tables (crates/core/tests/transport_equiv.rs: all eight
# algorithms, lossless and lossy, bits/bytes/messages/spans as literals;
# crates/core/tests/distributed.rs: the loopback column) and the four gates
# (crates/core/tests/{alloc,reactor_scale,scale}.rs: allocator calls, reactor
# thread census + byte ledger, peak RSS at 1M registered clients;
# tests/extensions.rs: compression byte honesty + 10x trade-off) are plain
# tests, so they run inside this leg and the ones below it — default,
# RFL_THREADS=4, RFL_SIMD=0 — and need no step of their own.
section_test() {
    echo "== cargo test -q --workspace"
    cargo test -q --workspace

    echo "== RFL_THREADS=4 cargo test -q --workspace (determinism contract)"
    RFL_THREADS=4 cargo test -q --workspace

    # The benchmark runs at two workers; two racing over one selection is the
    # interleaving the lazy plane's per-client jobs add.
    echo "== RFL_THREADS=2 lazy-engine tests (the benchmark's budget)"
    RFL_THREADS=2 cargo test -q -p rfl-core --test pipeline --test scale --test determinism --test fanout --test persist_rss
    RFL_THREADS=2 cargo test -q -p rfl-core --lib -- registry:: federation::shell_tests:: federation::lifecycle_tests::

    echo "== RFL_SIMD=0 cargo test -q --workspace (scalar-fallback contract)"
    RFL_SIMD=0 cargo test -q --workspace
}

# The round traces of every leg stay in target/smoke-traces, which CI uploads
# when the job fails.
section_distributed() {
    echo "== distributed smoke (multi-process federation over loopback TCP and a Unix socket, bit-exact)"
    rm -rf target/smoke-traces
    scripts/distributed-smoke.sh --trace-dir target/smoke-traces
}

section_threaded() {
    echo "== RFL_THREADS=4 distributed smoke (a fixed worker thread budget beside the one reactor thread, bit-exact)"
    RFL_THREADS=4 scripts/distributed-smoke.sh
}

section_bench() {
    echo "== rfl-bench all --scale quick --seeds 1: every experiment's CSVs and stdout against scripts/experiments.sha256"
    scripts/experiments-smoke.sh

    # The deep oracle legs run every SIMD tier this CPU has (each test binary
    # reports a tier it skips on stderr); on an AVX-512 machine that is all
    # three, on an AVX2-only one two.
    echo "== PROPTEST_CASES=2048 conv oracle in release (the register-tile kernels against the textbook loops, deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-tensor --test conv_oracle

    echo "== PROPTEST_CASES=2048 GEMM oracle and per-tier SIMD equivalence in release (deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-tensor --test gemm_oracle --test simd_equiv

    echo "== PROPTEST_CASES=2048 LSTM cell oracle in release (deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-nn --test lstm_oracle

    echo "== PROPTEST_CASES=2048 fused ReLU and max-pool oracle in release (output and input gradient against the ReLU-then-pool composition, every tier; deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-tensor --test pool_oracle

    echo "== PROPTEST_CASES=2048 quantizer oracle in release (payload, reconstruction, residual and receiver against the per-value loops, honest and hostile payloads; deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-core --test compress_props

    echo "== PROPTEST_CASES=2048 client lifecycle oracle in release (request sequences on the in-process plane against live replicas of its clients, serial and on two workers; deep)"
    PROPTEST_CASES=2048 cargo test --release -q -p rfl-core --lib -- federation::lifecycle_tests::

    # The test legs run them at budget 2; a chunk's unused tail is paid once
    # per shard, and the registry's shard count follows the budget, so the
    # ceilings must hold at one shard and at four too (scale.rs's SCAFFOLD
    # leg spreads its records, control variates included, over them).
    echo "== persist_rss and scale at RFL_THREADS=1 and RFL_THREADS=4 (resident bytes per hibernated client, and peak RSS at 1M registered clients, at one and four registry shards)"
    RFL_THREADS=1 cargo test --release -q -p rfl-core --test persist_rss --test scale
    RFL_THREADS=4 cargo test --release -q -p rfl-core --test persist_rss --test scale

    # The test legs run them at budget 2; at one shard every test client
    # shares one arena, at four each shard holds fewer.
    echo "== registry unit tests at RFL_THREADS=1 and RFL_THREADS=4 (one and four registry shards)"
    RFL_THREADS=1 cargo test -q -p rfl-core --lib -- registry::
    RFL_THREADS=4 cargo test -q -p rfl-core --lib -- registry::

    echo "== scripts/sanitize.sh: the kernel oracles under AddressSanitizer (nightly; prints skipped without one)"
    scripts/sanitize.sh

    echo "== RFL_FASTMATH_EXHAUSTIVE=1 normal sampler on every tier over the whole 24-bit draw lattice in release (16.7 M pairs per tier)"
    RFL_FASTMATH_EXHAUSTIVE=1 cargo test --release -q -p rfl-tensor --lib -- --exact \
        fastmath::tests::every_tier_matches_the_scalar_kernels_over_the_draw_lattice

    echo "== scripts/thread-cpu.sh smoke (per-thread user/sys seconds and context switches of one quick experiment; the rows add up to the total within a clock tick per row, and every thread is rfl-bench or an rfl-worker)"
    scripts/thread-cpu.sh ./target/release/rfl-bench tab3_delta_size --scale quick --out none |
        awk -v hz="$(getconf CLK_TCK)" '
            /^thread  *threads  *user_s/ { table = 1; next }
            !table || NF < 6 { next }
            $1 == "total" { tu = $(NF-3); ts = $(NF-2); total = 1; next }
            $1 != "rfl-bench" && $1 != "rfl-worker" && $1 != "(unsampled)" { print "thread-cpu smoke: unexpected thread " $1 > "/dev/stderr"; stray = 1 }
            { su += $(NF-3); ss += $(NF-2); rows++ }
            function off(a, b) { return a > b ? a - b : b - a }
            END { exit !(total && !stray && off(su, tu) <= rows / hz && off(ss, ts) <= rows / hz) }'

    echo "== scripts/kernel-audit.sh on the release rfl-bench (tier bodies call no out-of-line intrinsic, 16-lane bodies use zmm, no FMA outside fastmath)"
    scripts/kernel-audit.sh target/release/rfl-bench > /dev/null

    echo "== cnn_layers and lstm_layers smoke (per-layer step tables; the headers name the SIMD tier, --tier picks one)"
    cargo run --release -q -p rfl-nn --example cnn_layers -- --iters 3 |
        grep -E '^cifar-like CNN, .*, simd (avx512|avx2|scalar), '
    cargo run --release -q -p rfl-nn --example cnn_layers -- --iters 3 --tier avx2 |
        grep -E '^cifar-like CNN, .*, simd avx2, '
    cargo run --release -q -p rfl-nn --example cnn_layers -- --iters 3 --tier scalar |
        grep -E '^cifar-like CNN, .*, simd scalar, '
    cargo run --release -q -p rfl-nn --example lstm_layers -- --iters 3 |
        grep -E '^sent140-like LSTM, .*, simd (avx512|avx2|scalar), '

    echo "== custom_model example smoke (a user-written Model trains under rFedAvg+)"
    cargo run --release -q --example custom_model |
        grep -E '^custom SigmoidNet via rFedAvg\+: test acc'

    echo "== lazy_cycle smoke (a lazy client-round's table; the header names the SIMD tier)"
    cargo run --release -q -p rfl-core --example lazy_cycle -- --iters 3 |
        grep -E '^lazy client-round, .*, simd (avx512|avx2|scalar), '

    echo "== scripts/ab.sh smoke (syntax, --help, and the verdicts of a three-pair fixture; the A/B runs themselves take minutes and gate nothing)"
    bash -n scripts/ab.sh
    scripts/ab.sh --help > /dev/null
    scripts/ab-smoke.sh

    echo "== scripts/reach-report.sh --check: every rfl-* function no shipped binary links stays with a reason, and every reason names one"
    scripts/reach-report.sh --check

    echo "== benchmark/ harness: profile guard + its own tests, --locked as BENCHMARK.json runs it (read-only; the yardstick, see benchmark/README.md)"
    benchmark/check-profile.sh
    (cd benchmark && cargo test --release --offline --locked)
}

if [[ $# -eq 0 ]]; then
    set -- "${SECTIONS[@]}"
fi
for section in "$@"; do
    if ! declare -F "section_$section" > /dev/null; then
        echo "usage: scripts/ci-check.sh [section ...]; sections: ${SECTIONS[*]}" >&2
        exit 2
    fi
done
for section in "$@"; do
    "section_$section"
done
echo "== CI checks passed: $*"
