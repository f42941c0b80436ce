#!/usr/bin/env bash
# Runs every paper experiment at `--scale quick --seeds 1` and compares the
# SHA-256 of each CSV and each stdout with scripts/experiments.sha256 — the
# "same behaviour" gate of the experiment harness (~3 min on two cores).
#
# Masked before hashing, because two runs of one binary already disagree on
# them: the `  wrote <path>` lines, the seconds / `relative` columns of
# fig10c_time_sim0.csv / fig10d_time_sim10.csv and of their stdout tables,
# and the `mean sec/round` column of ablation_delta_acc.csv and of its stdout
# table. Everything else is bit-reproducible, at any RFL_THREADS / RFL_SIMD.
#
# Usage: scripts/experiments-smoke.sh            compare with the recorded hashes
#        scripts/experiments-smoke.sh --record   rewrite them (an output moved on purpose)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

PINS=scripts/experiments.sha256
EXPERIMENTS=(tab3_delta_size theory_convergence ablation_delta fig01_tsne
  fig09_params fig11_fairness fig12_privacy tab1_cross_silo tab2_cross_device
  fig02_03_mnist_curves fig04_05_cifar_curves fig06_07_sent140_curves
  fig08_femnist fig10_efficiency ext_future_work ext_stragglers ext_lossy)

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

for name in "${EXPERIMENTS[@]}"; do
  echo "== $name" >&2
  "target/release/$name" --scale quick --seeds 1 --out "$out" > "$out/$name.stdout" 2> /dev/null
done

if [[ "${1:-}" == --record ]]; then
  digest "$out" > "$PINS"
  echo "recorded $(wc -l < "$PINS") hashes in $PINS"
else
  diff "$PINS" <(digest "$out") || { echo "experiment outputs moved (see above)" >&2; exit 1; }
  echo "all $(wc -l < "$PINS") experiment outputs match $PINS"
fi
