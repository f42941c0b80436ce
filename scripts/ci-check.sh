#!/usr/bin/env bash
# Runs the exact same checks as .github/workflows/ci.yml, locally.
# Usage: scripts/ci-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release --workspace"
cargo build --release --workspace

# The back-end parity tables (crates/core/tests/transport_equiv.rs: all eight
# algorithms, lossless and lossy, bits/bytes/messages/spans as literals;
# crates/core/tests/distributed.rs: the loopback column) and the four gates
# (crates/core/tests/{alloc,reactor_scale,scale}.rs: allocator calls, reactor
# thread census + byte ledger, peak RSS at 1M registered clients;
# tests/extensions.rs: compression byte honesty + 10x trade-off) are plain
# tests, so they run inside this leg and the two below — default,
# RFL_THREADS=4, RFL_SIMD=0 — and need no step of their own.
echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== RFL_THREADS=4 cargo test -q --workspace (determinism contract)"
RFL_THREADS=4 cargo test -q --workspace

echo "== RFL_SIMD=0 cargo test -q --workspace (scalar-fallback contract)"
RFL_SIMD=0 cargo test -q --workspace

# The deep oracle legs run every SIMD tier this CPU has (each test binary
# reports a tier it skips on stderr); on an AVX-512 machine that is all
# three, on an AVX2-only one two.
echo "== PROPTEST_CASES=2048 conv oracle in release (the register-tile kernels against the textbook loops, deep)"
PROPTEST_CASES=2048 cargo test --release -q -p rfl-tensor --test conv_oracle

echo "== PROPTEST_CASES=2048 GEMM oracle and per-tier SIMD equivalence in release (deep)"
PROPTEST_CASES=2048 cargo test --release -q -p rfl-tensor --test gemm_oracle --test simd_equiv

echo "== PROPTEST_CASES=2048 LSTM cell oracle in release (deep)"
PROPTEST_CASES=2048 cargo test --release -q -p rfl-nn --test lstm_oracle

echo "== RFL_FASTMATH_EXHAUSTIVE=1 normal sampler on every tier over the whole 24-bit draw lattice in release (16.7 M pairs per tier)"
RFL_FASTMATH_EXHAUSTIVE=1 cargo test --release -q -p rfl-tensor --lib -- --exact \
    fastmath::tests::every_tier_matches_the_scalar_kernels_over_the_draw_lattice

echo "== distributed smoke (multi-process federation over sockets)"
scripts/distributed-smoke.sh

echo "== RFL_THREADS=4 RFL_NET_THREADS=2 distributed smoke (threaded leg)"
RFL_THREADS=4 RFL_NET_THREADS=2 scripts/distributed-smoke.sh

echo "== rfl-bench all --scale quick --seeds 1: every experiment's CSVs and stdout against scripts/experiments.sha256"
scripts/experiments-smoke.sh

echo "== scripts/thread-cpu.sh smoke (per-thread user/sys seconds and context switches of one quick experiment; the rows add up to the total within a clock tick per row)"
scripts/thread-cpu.sh ./target/release/rfl-bench tab3_delta_size --scale quick --out none |
    awk -v hz="$(getconf CLK_TCK)" '
        /^thread  *threads  *user_s/ { table = 1; next }
        !table || NF < 6 { next }
        $1 == "total" { tu = $(NF-3); ts = $(NF-2); total = 1; next }
        { su += $(NF-3); ss += $(NF-2); rows++ }
        function off(a, b) { return a > b ? a - b : b - a }
        END { exit !(total && off(su, tu) <= rows / hz && off(ss, ts) <= rows / hz) }'

echo "== cnn_layers and lstm_layers smoke (per-layer step tables; the headers name the SIMD tier)"
cargo run --release -q -p rfl-nn --example cnn_layers -- --iters 3 |
    grep -E '^cifar-like CNN, .*, simd (avx512|avx2|scalar), '
cargo run --release -q -p rfl-nn --example lstm_layers -- --iters 3 |
    grep -E '^sent140-like LSTM, .*, simd (avx512|avx2|scalar), '

echo "== lazy_cycle smoke (a lazy client-round's table; the header names the SIMD tier)"
cargo run --release -q -p rfl-core --example lazy_cycle -- --iters 3 |
    grep -E '^lazy client-round, .*, simd (avx512|avx2|scalar), '

echo "== scripts/ab.sh smoke (syntax, --help, and the verdicts of a three-pair fixture; the A/B runs themselves take minutes and gate nothing)"
bash -n scripts/ab.sh
scripts/ab.sh --help > /dev/null
scripts/ab-smoke.sh

echo "== benchmark/ harness: profile guard + its own tests (read-only; the yardstick, see benchmark/README.md)"
benchmark/check-profile.sh
(cd benchmark && cargo test --release --offline)

echo "== all CI checks passed"
