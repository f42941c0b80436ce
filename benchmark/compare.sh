#!/usr/bin/env bash
# compare.sh A.json B.json — per workload × end-to-end metric: both sets'
# medians, the ratio B/A (base: A), each set's spread (IQR ÷ median, the
# quartiles of Python's statistics.quantiles), and a verdict by the bound
# BENCHMARK.json fixes for the metric:
#
#   worse       B's median is worse than A's by more than the bound
#   unresolved  not worse, but a set's spread is wider than the bound and
#               B's runs are not all better than all of A's
#   ok          otherwise
#
# A and B are reports written by `rfl-benchmark [--repeat N] --out FILE`
# (the sets under baseline/ are two of them). Exits 1 if any row is worse.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 A.json B.json" >&2
    exit 2
fi
command -v jq >/dev/null || { echo "compare.sh needs jq" >&2; exit 2; }
here="$(cd "$(dirname "$0")" && pwd)"
spec="$here/../BENCHMARK.json"
for f in "$1" "$2" "$spec"; do
    [ -r "$f" ] || { echo "cannot read $f" >&2; exit 2; }
done

table="$(jq -r -n --slurpfile a "$1" --slurpfile b "$2" --slurpfile spec "$spec" '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                     else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  # statistics.quantiles(xs, n=4)[$i - 1], the "exclusive" method.
  def quartile($i): sort as $v | ($v | length) as $n
    | ($i * ($n + 1)) as $pos
    | ([[($pos / 4 | floor), 1] | max, $n - 1] | min) as $j
    | $v[$j - 1] + ($v[$j] - $v[$j - 1]) * ($pos / 4 - $j);
  def spread: if length < 2 then 0 else (quartile(3) - quartile(1)) / median end;
  def values($report; $w; $m): [$report.runs[] | .[$w].untraced.metrics[$m].value];
  def pct: . * 1000 | round / 10 | tostring + "%";
  def num: if . >= 1000 then round | tostring else . * 1000000 | round / 1000000 | tostring end;

  ["workload", "metric", "unit", "A median", "B median", "B/A (base A)",
   "A spread", "B spread", "bound", "verdict"],
  ( $spec[0].workloads[].name as $w
  | $spec[0].end_to_end[] as $metric
  | values($a[0]; $w; $metric.name) as $va
  | values($b[0]; $w; $metric.name) as $vb
  | if ($va | length) == 0 or ($vb | length) == 0
    then [$w, $metric.name, $metric.unit, "-", "-", "-", "-", "-", ($metric.bound | pct), "missing"]
    else
      ($va | median) as $ma | ($vb | median) as $mb
      | (if $metric.better == "lower" then ($mb - $ma) / $ma else ($ma - $mb) / $ma end) as $worse_by
      | (if $metric.better == "lower" then ($vb | max) < ($va | min)
         else ($vb | min) > ($va | max) end) as $all_better
      | (($va | spread) > $metric.bound or ($vb | spread) > $metric.bound) as $noisy
      | [$w, $metric.name, $metric.unit, ($ma | num), ($mb | num),
         ($mb / $ma * 1000 | round / 1000 | tostring),
         ($va | spread | pct), ($vb | spread | pct), ($metric.bound | pct),
         (if $worse_by > $metric.bound then "worse"
          elif $noisy and ($all_better | not) then "unresolved"
          else "ok" end)]
    end
  ) | @tsv
')"

# Align the columns (no `column` in the image) and fail on a worse row.
printf '%s\n' "$table" | awk -F '\t' '
    { rows[NR] = $0; for (i = 1; i <= NF; i++) if (length($i) > w[i]) w[i] = length($i) }
    END {
        for (r = 1; r <= NR; r++) {
            n = split(rows[r], cell, "\t"); line = ""
            for (i = 1; i <= n; i++) line = line sprintf("%-" w[i] "s  ", cell[i])
            sub(/ +$/, "", line); print line
            if (r > 1 && (cell[n] == "worse" || cell[n] == "missing")) bad = 1
        }
        exit bad
    }'
