#!/usr/bin/env bash
# kernel-audit.sh — what the compiler made of the SIMD tier bodies, and the
# rules they must keep.
#
# Usage: scripts/kernel-audit.sh <binary>
#
# Disassembles the binary (`objdump -d -C`) and prints one row per tier body,
# every symbol under rfl_tensor::{simd,conv,pool,matmul,fastmath}::{avx2,avx512}
# (instances of one generic body summed): its instructions, the instructions
# with a zmm operand, its fused multiply-adds (`vfmadd`, `vfmsub`, `vfnmadd`,
# `vfnmsub`) and its direct calls. It exits 1, naming the symbol, when:
#
# - a tier body calls into `core::core_arch`: an intrinsic left out of line
#   because a closure or helper without the tier's target features was not
#   inlined (`exp` ran 20× slower that way once);
# - a 16-lane body has no zmm operand: every AVX-512 body except the 8-lane
#   ones listed in EIGHT_LANE below, which the AVX-512 tier runs re-encoded;
# - an AVX2 body has a zmm operand (it would fault on an AVX2-only CPU);
# - a fused multiply-add appears in any rfl_tensor symbol outside
#   rfl_tensor::fastmath, the one module that fuses on purpose (the other
#   kernels' bits are defined by a separate multiply and add).
#
# Exits 2 on a usage error or when the binary holds no tier body.
set -euo pipefail

case "${1-}" in
    -h | --help)
        sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
        exit 0
        ;;
esac
if [ "$#" -ne 1 ]; then
    echo "usage: scripts/kernel-audit.sh <binary>" >&2
    exit 2
fi
bin=$1
if [ ! -f "$bin" ]; then
    echo "kernel-audit: no such binary: $bin" >&2
    exit 2
fi

# The AVX-512 tier's 8-lane bodies: the reductions keep the canonical 8-lane
# stride, and the weight gradient's `o ≤ 8` tile and `pack_lanes` are shared
# with AVX2. The sampler's AVX-512 bodies (`normal_fill` and the transform
# `normals_from_pairs`) run eight `f64` lanes in zmm registers, so they are
# 16-lane bodies to this check.
EIGHT_LANE="simd::avx512::dot simd::avx512::dot_tile simd::avx512::sq_dist
simd::avx512::sum conv::avx512::dweight conv::avx512::pack_lanes"

objdump -d -C --no-show-raw-insn "$bin" | awk -v eight="$EIGHT_LANE" '
    BEGIN {
        split(eight, e, /[ \n]+/)
        for (i in e) if (e[i] != "") eight_lane["rfl_tensor::" e[i]] = 1
        tier_re = "^rfl_tensor::(simd|conv|pool|matmul|fastmath)::avx(2|512)::"
    }
    /^[0-9a-f]+ <.*>:$/ {
        sym = substr($0, index($0, "<") + 1)
        sym = substr(sym, 1, length(sym) - 2)
        tier = sym ~ tier_re
        ours = sym ~ /^<?rfl_tensor::/ && sym !~ /^<?rfl_tensor::fastmath::/
        if (tier && !(sym in seen)) { seen[sym] = 1; order[++n] = sym }
        next
    }
    /^ *[0-9a-f]+:\t/ {
        fused = $0 ~ /\tvfn?m(add|sub)/
        if (ours && fused) outside[sym]++
        if (!tier) next
        insns[sym]++
        if ($0 ~ /%zmm/) zmm[sym]++
        if (fused) fma[sym]++
        if ($0 ~ /\tcall/) {
            calls[sym]++
            if ($0 ~ /core::core_arch/) {
                target = substr($0, index($0, "<") + 1)
                sub(/>.*/, "", target)
                problem[++p] = sym " calls " target
            }
        }
    }
    END {
        if (n == 0) { print "kernel-audit: no tier body in this binary" > "/dev/stderr"; exit 2 }
        printf "%-52s %7s %6s %7s %6s\n", "tier body", "insns", "zmm", "vfmadd", "calls"
        for (i = 1; i <= n; i++) {
            s = order[i]
            printf "%-52s %7d %6d %7d %6d\n", s, insns[s], zmm[s], fma[s], calls[s]
            if (s ~ /::avx512::/ && !(s in eight_lane) && zmm[s] == 0)
                problem[++p] = s " is a 16-lane body with no zmm operand"
            if (s ~ /::avx2::/ && zmm[s] > 0)
                problem[++p] = s " is an AVX2 body with " zmm[s] " zmm operands"
        }
        for (s in outside)
            problem[++p] = s " has " outside[s] " fused multiply-adds outside rfl_tensor::fastmath"
        if (p == 0) { print "kernel-audit: ok (" n " tier bodies)"; exit 0 }
        for (i = 1; i <= p; i++) print "kernel-audit: " problem[i] > "/dev/stderr"
        exit 1
    }'
