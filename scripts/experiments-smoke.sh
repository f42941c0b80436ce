#!/usr/bin/env bash
# Runs every paper experiment (`rfl-bench all --scale quick --seeds 1`, then
# one of them alone, so "in one process" and "by name" are both checked) and
# compares the SHA-256 of each CSV and each stdout with
# scripts/experiments.sha256 — the "same behaviour" gate of the experiment
# harness (~2.5 min on two cores).
#
# Masked before hashing, because two runs of one experiment already disagree
# on them: the `  wrote <path>` lines, the seconds / `relative` columns of
# fig10c_time_sim0.csv / fig10d_time_sim10.csv and of their stdout tables,
# and the `mean sec/round` column of ablation_delta_acc.csv and of its stdout
# table. Everything else is bit-reproducible, at any RFL_THREADS / RFL_SIMD.
#
# Prints the wall time of the `all` run on a line of its own, which no hash
# covers (EXPERIMENTS.md keeps the readings).
#
# Usage: scripts/experiments-smoke.sh            compare with the recorded hashes
#        scripts/experiments-smoke.sh --record   rewrite them (an output moved on purpose)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

PINS=scripts/experiments.sha256
ALONE=tab3_delta_size

# One experiment's stdout with the run-dependent parts cut out.
mask_stdout() {
  sed '/^  wrote /d' "$1" | case "$(basename "$1" .stdout)" in
    fig10_efficiency)
      awk '/^-- Fig\. 10c/ { timing = 1 }
           !timing || /^-- / { print; next }
           /^-+$/ { print "-"; next }
           { print $1 }' ;;
    ablation_delta)
      awk '/^-- accuracy & time/ { timing = 1 }
           timing { sub(/ +[0-9]+\.[0-9]+$/, "") }
           { print }' ;;
    *) cat ;;
  esac
}

mask_csv() {
  case "$(basename "$1")" in
    fig10c_time_sim0.csv | fig10d_time_sim10.csv) awk -F, 'NR == 1 { print; next } { print $1 }' "$1" ;;
    ablation_delta_acc.csv) sed '1!s/,[^,]*$//' "$1" ;;
    *) cat "$1" ;;
  esac
}

# `<sha256>  <file name>` for every CSV and stdout under a directory, by name.
digest() {
  local f
  for f in "$1"/*.csv "$1"/*.stdout; do
    case "$f" in
      *.csv) mask_csv "$f" ;;
      *) mask_stdout "$f" ;;
    esac | sha256sum | sed "s|-\$|$(basename "$f")|"
  done | sort -k2
}

cargo build --release -p rfl-bench
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir "$out/all" "$out/alone"

# `all` prints `>>> rfl-bench <name>` before each experiment's own output.
start=$(date +%s.%N)
target/release/rfl-bench all --scale quick --seeds 1 --out "$out/all" 2> /dev/null |
  awk -v dir="$out/all" '/^>>> rfl-bench / { file = dir "/" $3 ".stdout"; next } { print > file }'
awk -v a="$start" -v b="$(date +%s.%N)" \
  'BEGIN { printf "rfl-bench all --scale quick --seeds 1: %.1f s\n", b - a }'
target/release/rfl-bench "$ALONE" --scale quick --seeds 1 --out "$out/alone" \
  > "$out/alone/$ALONE.stdout" 2> /dev/null

if [[ "${1:-}" == --record ]]; then
  digest "$out/all" > "$PINS"
  echo "recorded $(wc -l < "$PINS") hashes in $PINS"
  exit
fi
diff "$PINS" <(digest "$out/all") ||
  { echo "experiment outputs moved (< recorded, > rfl-bench all)" >&2; exit 1; }
diff <(grep " $ALONE" "$PINS") <(digest "$out/alone") ||
  { echo "$ALONE alone differs from $ALONE inside rfl-bench all" >&2; exit 1; }
echo "all $(wc -l < "$PINS") experiment outputs match $PINS"
