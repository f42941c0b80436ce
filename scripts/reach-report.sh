#!/usr/bin/env bash
# Prints the functions the rfl-* library crates define that no shipped
# binary links: a census by the linker, not by name greps. Report-only:
# nothing gates on it.
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
# Usage: scripts/reach-report.sh [--total]
#   --total  prints only the workspace's unreached count (surface-report.sh)
# Scratch target dirs: $REACH_TARGET/{root,benchmark}, default
# target/reach-report. A cold run builds both workspaces (minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

total_only=0
case "${1:-}" in
  --total) total_only=1 ;;
  "") ;;
  *) echo "usage: scripts/reach-report.sh [--total]" >&2; exit 2 ;;
esac

# `crate|name|reason` for every unreached item that stays on purpose.
STAYS=$(cat << 'EOF'
rfl_tensor|rfl_tensor::tensor::Tensor::from_slice|test fixture: 22 test call sites in two crates, each longer as from_vec(v.to_vec(), &[n])
rfl_tensor|rfl_tensor::tensor::Tensor::ones|test fixture: 19 test call sites in two crates
rfl_tensor|rfl_tensor::tensor::Tensor::transpose|test fixture: the transa/transb oracles of matmul's unit tests and the tensor proptests
rfl_tensor|rfl_tensor::tensor::Tensor::is_finite|test fixture: a one-line check nn's tests call
rfl_tensor|<rfl_tensor::codec::CodecError as core::fmt::Display>::fmt|std::error::Error requires it; no binary prints a CodecError
rfl_core|rfl_core::mmd::feature_gradient|out of scope here: the pairwise oracle of feature_gradient_into, for the test tree
rfl_core|rfl_core::mmd::regularizer_value|out of scope here: a pairwise oracle of the surrogate, for the test tree
rfl_core|rfl_core::mmd::surrogate_value|out of scope here: a pairwise oracle of the surrogate, for the test tree
rfl_core|rfl_core::mmd::mean_excluding|out of scope here: the pairwise oracle of means_excluding, for the test tree
rfl_core|rfl_core::aggregate::weighted_average|out of scope here: the fold's oracle, for beside the fold's proptest
rfl_core|rfl_core::canonical::run_in_process|out of scope here: the canonical run's in-process reference
rfl_core|rfl_core::registry::MaterializedSource|out of scope here: a ClientDataSource over materialized shards
rfl_core|rfl_core::comm::faulty::FaultConfig|out of scope here: FaultConfig builders the fault tests use
rfl_core|rfl_core::comm::faulty::LatencyModel::wan|out of scope here: a latency preset transport_equiv.rs uses
rfl_core|rfl_core::comm::socket::SocketTransport::live_clients|out of scope here: distributed.rs waits for registrations on it
rfl_core|rfl_core::algorithms::rfedavg::RFedAvg::delta_table|out of scope here: fanout.rs reads the δ table through it
rfl_core|rfl_core::algorithms::rfedavg_plus::RFedAvgPlus::delta_table|out of scope here: fanout.rs reads the δ table through it
rfl_core|rfl_core::algorithms::rfedavg::RFedAvg::with_dp|out of scope here: the tests build DP rFedAvg with it
rfl_core|rfl_core::history::History::is_empty|out of scope here: the is_empty beside History::len
rfl_core|rfl_core::history::History::total_dropped|out of scope here: transport_equiv.rs reads it
rfl_core|rfl_core::delta::DeltaTable::flattened|out of scope here: the tests read the table through it
rfl_core|rfl_core::delta::DeltaTable::num_initialized|out of scope here: fanout.rs reads it
rfl_core|rfl_core::mem::reset_peak_rss|out of scope here: scale.rs measures each leg's peak from it
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
trap 'rm -f "$bins"' EXIT
{
  find "$root_target/debug" "$root_target/debug/examples" -maxdepth 1 -type f -executable \
    -not -name '*.so' -not -regex '.*-[0-9a-f]\{16\}$'
  echo "$bench_target/debug/rfl-benchmark"
} | while read -r bin; do functions "$bin"; done | sort -u > "$bins"

grand=0
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
      for (k in reason) if (name == k || index(name, k "::") == 1 || index(name, "<" k " as ") == 1) why = reason[k]
      if (why == "") cut++; else kept++
      if (!(mod in count)) order[++mods] = mod
      item[mod] = item[mod] sprintf("    %s%s\n", name, why == "" ? "" : "  [stays: " why "]")
      count[mod]++
    }
    END {
      printf "%s %d %d %d\n", crate, cut + kept, kept, derived + 0
      for (i = 1; i <= mods; i++) printf "  %s (%d)\n%s", order[i], count[order[i]], item[order[i]]
    }' "$bins" -)
  read -r _ unreached kept derived <<< "$(head -1 <<< "$report")"
  grand=$((grand + unreached))
  if [[ $total_only -eq 0 ]]; then
    echo "$rlib_name: $unreached unreached ($kept listed as staying), $derived derive helpers filtered"
    tail -n +2 <<< "$report"
  fi
done
if [[ $total_only -eq 1 ]]; then
  echo "$grand"
else
  echo "total: $grand unreached functions"
fi
