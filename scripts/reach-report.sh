#!/usr/bin/env bash
# Prints the functions the rfl-* library crates define that no shipped
# binary links: a census by the linker, not by name greps. With --check it is
# a gate: every unreached function has a STAYS line below, and every STAYS
# line names something unreached.
#
# How: the root workspace's binaries and examples (rfl-bench, rfl-server,
# rfl-client, every examples/*.rs) and benchmark/'s rfl-benchmark are built
# at opt-level=0, where nothing is inlined away and a called function keeps
# a symbol of its own. The profile.dev entries of Cargo.toml are overridden
# with --config; the manifests are not edited. Each workspace builds into a
# target dir of its own, and exactly one rlib per crate is read from the root
# one: a shared target dir leaves several rlibs of one crate side by side.
# An rlib's defined functions (`nm -C`, hash-free names) minus the union of
# the binaries' symbols is the unreached set, printed per crate and per
# module. An unreached item listed in STAYS below is printed with its reason.
#
# Known blind spots:
# - Generic functions and trait default methods exist only where they are
#   instantiated: one nothing instantiates defines no symbol and is not
#   counted, and one instantiated by a test only is invisible too.
# - Closures (`{{closure}}`) and impls of derivable traits (Debug, Clone,
#   PartialEq, Eq, PartialOrd, Ord, Hash, Default) are filtered out, written
#   by hand or derived; their number is printed per crate.
# - `#[inline(always)]` functions can vanish from both sides.
# - Names are compared without hashes, so two functions of one name (two
#   inherent impls in one module) count as one.
#
# Usage: scripts/reach-report.sh [--total | --check]
#   --total  prints only the workspace's unreached count (surface-report.sh)
#   --check  prints the per-crate counts and exits 1 if an unreached function
#            has no STAYS line, or a STAYS line names nothing unreached (so
#            the list cannot go stale)
# Scratch target dirs: $REACH_TARGET/{root,benchmark}, default
# target/reach-report. A cold run builds both workspaces (minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

mode=report
case "${1:-}" in
  --total) mode=total ;;
  --check) mode=check ;;
  "") ;;
  *) echo "usage: scripts/reach-report.sh [--total | --check]" >&2; exit 2 ;;
esac

# `crate|name|reason` for every unreached item that stays on purpose. A name
# covers the item itself and, for a type, its methods and trait impls.
STAYS=$(cat << 'EOF'
rfl_tensor|rfl_tensor::tensor::Tensor::from_slice|test fixture: 22 test call sites in two crates, each longer as from_vec(v.to_vec(), &[n])
rfl_tensor|rfl_tensor::tensor::Tensor::ones|test fixture: 19 test call sites in two crates
rfl_tensor|rfl_tensor::tensor::Tensor::transpose|test fixture: the transa/transb oracles of matmul's unit tests and the tensor proptests
rfl_tensor|rfl_tensor::tensor::Tensor::is_finite|test fixture: a one-line check nn's tests call
rfl_tensor|rfl_tensor::tensor::Tensor::row|test fixture: the row reads of nn's loss and embedding tests, nn's proptests and rfl-core's deferred-dataset proptest
rfl_tensor|<rfl_tensor::codec::CodecError as core::fmt::Display>::fmt|std::error::Error requires it; no binary prints a CodecError
rfl_core|rfl_core::comm::faulty::FaultConfig|doc example: README's fault-injection snippet builds a FaultConfig with with_latency and with_deadline_ms (transport_equiv.rs runs the same chain)
rfl_core|rfl_core::comm::faulty::LatencyModel::wan|doc example: the latency preset of README's fault-injection snippet (transport_equiv.rs runs it)
rfl_core|rfl_core::algorithms::rfedavg::RFedAvg::with_dp|an algorithm variant: rFedAvg under DP, a PARITY row (transport_equiv.rs) and a cell of README's back-end table
rfl_core|rfl_core::algorithms::rfedavg::RFedAvg::delta_table|test accessor: fanout.rs's budget-invariance pins read the δ table through it
rfl_core|rfl_core::algorithms::rfedavg_plus::RFedAvgPlus::delta_table|test accessor: fanout.rs's budget-invariance pins read the δ table through it
rfl_core|rfl_core::delta::DeltaTable::num_initialized|test accessor: fanout.rs's budget-invariance pins count the table's rows with it
rfl_core|rfl_core::comm::socket::SocketTransport::live_clients|test accessor: distributed.rs waits for registrations and drains with it
rfl_core|rfl_core::history::History::is_empty|clippy's len_without_is_empty wants it beside the pub len
rfl_core|rfl_core::mem::reset_peak_rss|test accessor: scale.rs measures each leg's peak RSS from a reset
rfl_data|rfl_data::dataset::Examples::is_empty|clippy's len_without_is_empty wants it beside the pub len
rfl_data|rfl_data::partition::is_valid_partition|test fixture: the check every partitioner's unit tests and data's proptests.rs call
rfl_metrics|rfl_metrics::curve::Series::is_empty|clippy's len_without_is_empty wants it beside the pub len
rfl_metrics|rfl_metrics::table::TextTable::num_rows|test fixture: rfl-bench's runner test counts a table's rows with it
EOF
)

root_target=${REACH_TARGET:-target/reach-report}/root
bench_target=${REACH_TARGET:-target/reach-report}/benchmark
O0=(--config 'profile.dev.opt-level=0' --config 'profile.dev.package."*".opt-level=0'
    --config 'profile.dev.package.rand.opt-level=0' --config 'profile.dev.package.bytes.opt-level=0'
    --config 'profile.dev.debug=0' --config 'profile.dev.incremental=false')

CARGO_TARGET_DIR="$root_target" cargo build --offline --quiet "${O0[@]}" \
  --workspace --bins --examples
CARGO_TARGET_DIR="$bench_target" cargo build --offline --locked --quiet "${O0[@]}" \
  --manifest-path benchmark/Cargo.toml

# Defined function symbols, demangled without hashes, one per line.
functions() {
  nm -C --defined-only "$@" 2> /dev/null | awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }'
}

bins=$(mktemp)
failures=$(mktemp)
trap 'rm -f "$bins" "$failures"' EXIT
{
  find "$root_target/debug" "$root_target/debug/examples" -maxdepth 1 -type f -executable \
    -not -name '*.so' -not -regex '.*-[0-9a-f]\{16\}$'
  echo "$bench_target/debug/rfl-benchmark"
} | while read -r bin; do functions "$bin"; done | sort -u > "$bins"

grand=0
seen=""
for rlib_name in $(cd "$root_target/debug/deps" && ls librfl_*.rlib | sed 's/^lib\(rfl_[a-z]*\)-.*/\1/' | sort -u); do
  rlibs=("$root_target"/debug/deps/lib"$rlib_name"-*.rlib)
  if [[ ${#rlibs[@]} -ne 1 ]]; then
    echo "reach-report: ${#rlibs[@]} rlibs of $rlib_name in $root_target; remove the dir and run again" >&2
    exit 1
  fi
  report=$(functions "${rlibs[0]}" | sort -u | awk -v crate="$rlib_name" -v stays="$STAYS" '
    BEGIN {
      n = split(stays, lines, "\n")
      for (i = 1; i <= n; i++) {
        split(lines[i], f, "|")
        if (f[1] == crate) reason[f[2]] = f[3]
      }
    }
    FNR == NR { linked[$0] = 1; next }
    index($0, crate "::") != 1 && index($0, "<" crate "::") != 1 { next }
    /\{\{closure\}\}/ { next }
    / as core::(fmt::Debug|clone::Clone|cmp::(PartialEq|Eq|PartialOrd|Ord)|hash::Hash|default::Default)>::/ {
      if (!($0 in linked)) derived++
      next
    }
    $0 in linked { next }
    {
      name = $0
      match(name, /^<?rfl_[a-z]+(::[a-z_][a-z0-9_]*)*/)
      mod = substr(name, 1, RLENGTH)
      sub(/^</, "", mod)
      if (RLENGTH == length(name)) sub(/::[a-z_0-9]*$/, "", mod)
      # An item stays when its own name or the type it belongs to is listed.
      why = ""
      for (k in reason) if (name == k || index(name, k "::") == 1 || index(name, "<" k " as ") == 1) {
        why = reason[k]
        used[k] = 1
      }
      if (why == "") cut++; else kept++
      if (!(mod in count)) order[++mods] = mod
      item[mod] = item[mod] sprintf("    %s%s\n", name, why == "" ? "" : "  [stays: " why "]")
      count[mod]++
    }
    END {
      printf "%s %d %d %d\n", crate, cut + kept, kept, derived + 0
      for (i = 1; i <= mods; i++) printf "  %s (%d)\n%s", order[i], count[order[i]], item[order[i]]
      for (k in reason) if (!(k in used)) printf "!stale %s\n", k
    }' "$bins" -)
  read -r _ unreached kept derived <<< "$(head -1 <<< "$report")"
  grand=$((grand + unreached))
  seen="$seen $rlib_name"
  # Unlisted items are the ones printed without a reason.
  awk '/^    / && !/\[stays: / { sub(/^ +/, ""); print "unreached, no STAYS line: " $0 }
       /^!stale / { print "STAYS line names nothing unreached: " $2 }' <<< "$report" >> "$failures"
  if [[ $mode != total ]]; then
    echo "$rlib_name: $unreached unreached ($kept listed as staying), $derived derive helpers filtered"
  fi
  if [[ $mode == report ]]; then
    awk '!/^!stale /' <<< "$report" | tail -n +2
  fi
done
# A STAYS line for a crate with no rlib names nothing unreached either.
awk -F'|' -v seen="$seen " 'index(seen, " " $1 " ") == 0 {
  print "STAYS line names nothing unreached: " $2 }' <<< "$STAYS" >> "$failures"
case $mode in
  total) echo "$grand" ;;
  report) echo "total: $grand unreached functions" ;;
  check)
    echo "total: $grand unreached functions"
    if [[ -s $failures ]]; then
      cat "$failures" >&2
      exit 1
    fi
    echo "reach-report --check: every unreached function stays with a reason, every STAYS line is live" ;;
esac
