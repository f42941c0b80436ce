#!/usr/bin/env bash
# AddressSanitizer leg: the kernels' oracle and equivalence tests built by a
# nightly toolchain with -Zsanitizer=address (a debug build, so every
# debug_assert! bound fires too) and run on every SIMD tier the CPU has.
# The oracles check values; this leg checks that no tile reads or writes
# past an allocation. The proptests run 2,048 cases each, as the release
# deep legs do, and rfl-tensor's `fastmath` unit tests (the sampler's tier
# bodies) and `codec` unit tests (the wire byte views over `f32` / `u32`
# slices) run beside the oracles, as do rfl-core's `comm::` unit tests: the
# frame encoder and decoder (a dense body is written through `f32_bytes` and
# read through `f32_bytes_mut`), the reactor's event loop and connections,
# the `sys` system-call wrappers and the socket ends.
#
# Usage: scripts/sanitize.sh
#
# Prints "skipped" and exits 0 when no nightly toolchain with the ASan
# runtime for x86_64-unknown-linux-gnu is installed. The explicit --target
# keeps the sanitizer off build scripts and proc macros, and puts the
# instrumented build under target/x86_64-unknown-linux-gnu/.
set -euo pipefail
cd "$(dirname "$0")/.."

target=x86_64-unknown-linux-gnu
# RUSTUP_AUTO_INSTALL=0: asking for a missing nightly must not download one.
sysroot=$(RUSTUP_AUTO_INSTALL=0 rustc +nightly --print sysroot 2> /dev/null) || sysroot=
if [[ -z $sysroot || ! -f $sysroot/lib/rustlib/$target/lib/librustc-nightly_rt.asan.a ]]; then
    echo "sanitize: skipped (no nightly toolchain with the AddressSanitizer runtime for $target)"
    exit 0
fi

export RUSTFLAGS=-Zsanitizer=address PROPTEST_CASES=2048
run() {
    cargo +nightly test --offline --target "$target" -q "$@"
}
run -p rfl-tensor --test simd_equiv --test conv_oracle --test gemm_oracle --test pool_oracle
run -p rfl-tensor --lib -- fastmath::
run -p rfl-tensor --lib -- codec::
run -p rfl-core --lib -- comm::
run -p rfl-nn --test inference --test lstm_oracle --test non_finite
echo "sanitize: passed"
