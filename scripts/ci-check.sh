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
# crates/core/tests/distributed.rs: the loopback column) are plain tests, so
# they run inside this leg and the two below — default, RFL_THREADS=4,
# RFL_SIMD=0 — and need no step of their own.
echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== RFL_THREADS=4 cargo test -q --workspace (determinism contract)"
RFL_THREADS=4 cargo test -q --workspace

echo "== RFL_SIMD=0 cargo test -q --workspace (scalar-fallback contract)"
RFL_SIMD=0 cargo test -q --workspace

echo "== distributed smoke (multi-process federation over sockets)"
scripts/distributed-smoke.sh

echo "== RFL_THREADS=4 RFL_NET_THREADS=2 distributed smoke + bench_scale --quick (threaded leg)"
RFL_THREADS=4 RFL_NET_THREADS=2 scripts/distributed-smoke.sh
RFL_THREADS=4 RFL_NET_THREADS=2 cargo run --release -p rfl-bench --bin bench_scale -- --quick > /dev/null

echo "== ext_lossy --scale quick smoke"
cargo build --release -p rfl-bench --bin ext_lossy
./target/release/ext_lossy --scale quick --seeds 1 --out none > /dev/null

echo "== ext_compress --quick (compression byte-honesty + trade-off gate)"
cargo run --release -p rfl-bench --bin ext_compress -- --quick > /dev/null

echo "== bench_alloc --quick (allocation-regression gate)"
cargo run --release -p rfl-bench --features alloc-count --bin bench_alloc -- --quick

echo "== bench_scale --quick (peak-RSS scaling gate, 100k registered / 1% sampled)"
cargo run --release -p rfl-bench --bin bench_scale -- --quick > /dev/null

echo "== bench_connections --quick (reactor gate: fixed threads, exact bytes at 4096 conns)"
cargo run --release -p rfl-bench --bin bench_connections -- --quick > /dev/null

echo "== scripts/ab.sh smoke (syntax + --help; the A/B runs themselves take minutes and gate nothing)"
bash -n scripts/ab.sh
scripts/ab.sh --help > /dev/null

echo "== benchmark/ harness: profile guard + its own tests (read-only; the yardstick, see benchmark/README.md)"
benchmark/check-profile.sh
(cd benchmark && cargo test --release --offline)

echo "== all CI checks passed"
