#!/usr/bin/env bash
# ab.sh — alternating A/B runs of benchmark/ between two revisions.
#
# Usage: scripts/ab.sh <rev-a> <rev-b> [--pairs N] [--seed0 S] [--dir DIR] [workload…]
#        scripts/ab.sh --from RUNS.jsonl [workload…]
#
#   <rev-a> <rev-b>  anything `git rev-parse` resolves; A is the base (the
#                    parent), B the change.
#   --pairs N        alternating pairs per workload (default 10).
#   --seed0 S        seed of the first pair; pair i runs both sides at seed
#                    S + i − 1 (default 18: 17 is the development seed).
#   --dir DIR        where the two checkouts and their target directories
#                    live (default: a fresh `mktemp -d`). A checkout is keyed
#                    on its commit, so a DIR given twice is built once.
#   --from RUNS      print the tables of an earlier run's `runs.*.jsonl`
#                    again; builds and runs nothing, takes no revisions.
#   workload…        names from BENCHMARK.json (default: all of them, or all
#                    that RUNS holds).
#
# Each revision is exported with `git archive` into DIR/<commit>/src (no
# worktree is registered, so an interrupted run leaves nothing behind in
# .git) and run with the `command` of *this* checkout's BENCHMARK.json at
# its `run_seconds`, `CARGO_TARGET_DIR` pointing at DIR/<commit>/target —
# the same offline, locked release build the driver makes, each side into
# its own directory. Which side runs first flips every pair; the two runs of
# a pair are back to back so both see the same phase of a noisy machine.
#
# Prints, per workload, one row per pair (`A → B` per end-to-end metric,
# then each run's `cpu_s_per_round ÷ round_s`, the cores it kept busy) and
# a summary per metric: both sides' q1 / median / q3 (the quartiles of
# benchmark/compare.sh), B ÷ A of the medians, the resolution, the pairs B
# won and a verdict — the markdown tables of EXPERIMENTS.md. The
# resolution is A's (q3 − q1) ÷ median, printed `±r`: the `gain` / `worse`
# rule below sees no B ÷ A inside 1 ± r, so a move smaller than that needs
# more pairs (or a quieter A) to show, at any win count. The verdict is the rule of the
# choosing-metrics guide, section 8, with the metric's `bound` from
# BENCHMARK.json:
#
#   same        every pair tied (an exact count that did not move);
#   regressed   B's median is worse than A's by more than the bound;
#   gain        B won at least 9/10 of the untied pairs and the medians
#               differ by more than A's q3 − q1;
#   worse       the same with A winning, inside the bound;
#   unresolved  anything else — not "unchanged".
#
# A run whose cores-busy ratio is below 1.3 at thread budget 2 is marked
# `1-core` in the pair table, and each workload's summary counts such runs
# per side: on a 2-vCPU VM a run sometimes stays on one vCPU for its whole
# length (`round_s` almost doubles at the same `cpu_s_per_round`). A pair
# with a `1-core` run on either side is run again, both sides in the same
# order at the same seed, up to twice; no pair is dropped. The first
# attempt without a `1-core` run is the one the summary counts, or the last
# attempt when every one had such a run (a change that keeps work on one
# core must still show), and the pair table shows every attempt, the ones
# not counted marked so. The summary says how many pairs were run again
# and how many of those stayed `1-core`.
#
# It only runs benchmark/; it edits nothing. Exits 1 if a run was not
# `correct` or had failed operations.
set -euo pipefail

usage() { sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"; }

pairs=10 seed0=18 dir="" from="" args=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        -h|--help) usage; exit 0 ;;
        --pairs) pairs="${2:?--pairs wants a count}"; shift 2 ;;
        --seed0) seed0="${2:?--seed0 wants a seed}"; shift 2 ;;
        --dir) dir="${2:?--dir wants a directory}"; shift 2 ;;
        --from) from="${2:?--from wants a runs file}"; shift 2 ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
if [ -n "$from" ]; then
    revs=() workloads=("${args[@]}")
    [ -r "$from" ] || { echo "ab.sh: cannot read $from" >&2; exit 2; }
else
    [ "${#args[@]}" -ge 2 ] || { usage >&2; exit 2; }
    revs=("${args[@]:0:2}") workloads=("${args[@]:2}")
fi
case "$pairs$seed0" in *[!0-9]*) echo "ab.sh: --pairs and --seed0 want integers" >&2; exit 2 ;; esac
command -v jq > /dev/null || { echo "ab.sh needs jq" >&2; exit 2; }

repo="$(cd "$(dirname "$0")/.." && pwd)"
spec="$repo/BENCHMARK.json"
for w in "${workloads[@]}"; do
    jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' "$spec" > /dev/null ||
        { echo "ab.sh: $w is not a workload of BENCHMARK.json" >&2; exit 2; }
done

# The jq definitions of a run's cores-busy ratio (cpu_s_per_round ÷
# round_s) and of `1-core`, shared by the re-run rule and the tables.
one_core_jq='
  def busy: (.result.metrics.cpu_s_per_round.value // null) as $cpu
    | (.result.metrics.round_s.value // null) as $round
    | if $cpu == null or $round == null or $round == 0 then null else $cpu / $round end;
  def one_core: busy as $b | .budget == 2 and $b != null and $b < 1.3;
'

# Prints the tables of the runs file $1, for the workloads named after it
# (all it holds when none is); fails if a run in it was not correct.
tables() {
    local runs="$1" only bad
    shift
    only="$(printf '%s\n' "$@" | jq -R . | jq -s -c 'map(select(. != ""))')"
    jq -r -s --slurpfile spec "$spec" --argjson only "$only" "$one_core_jq"'
      def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                         else (.[length / 2 - 1] + .[length / 2]) / 2 end;
      # statistics.quantiles(xs, n=4)[$i - 1], the "exclusive" method.
      def quartile($i): sort as $v | ($v | length) as $n
        | if $n < 2 then $v[0] else
          ($i * ($n + 1)) as $pos
          | ([[($pos / 4 | floor), 1] | max, $n - 1] | min) as $j
          | $v[$j - 1] + ($v[$j] - $v[$j - 1]) * ($pos / 4 - $j) end;
      # Four significant digits; byte counts in full.
      def num: if . == null then "-" elif . == 0 then "0" elif . >= 100000 then round | tostring
        else . as $x | ($x | fabs | log10 | floor) as $e | pow(10; 3 - $e) as $s
          | ($x * $s | round) / $s | tostring end;
      def row: "| " + join(" | ") + " |";
      def busy_cell: if busy == null then "-"
        else (busy * 100 | round / 100 | tostring) + (if one_core then " 1-core" else "" end) end;
      map(select(($only | length) == 0 or (.workload as $w | $only | index($w)))) as $runs
      | [$spec[0].end_to_end[] | {name, better, bound}] as $metrics
      | ($runs | map(.workload) | unique)[] as $w
      | [$runs[] | select(.workload == $w)] as $mine
      | ($mine | map(.pair) | unique) as $pairs
      # The attempts of a pair (runs written before re-runs existed are attempt
      # 1), and the one its summary counts: the first without a `1-core`
      # run, else the last.
      | def attempts($pair): [$mine[] | select(.pair == $pair) | .attempt // 1] | unique;
        def run($pair; $a; $side):
          first($mine[] | select(.pair == $pair and (.attempt // 1) == $a and .side == $side)) // null;
        def clean($pair; $a): all($mine[] | select(.pair == $pair and (.attempt // 1) == $a); one_core | not);
        def counted($pair): attempts($pair) as $tries
          | first($tries[] | select(clean($pair; .))) // $tries[-1];
        def value_at($pair; $a; $side; $m): run($pair; $a; $side) | .result.metrics[$m].value // null;
        def value($pair; $side; $m): value_at($pair; counted($pair); $side; $m);
        def values($side; $m): [$pairs[] | value(.; $side; $m) | select(. != null)];
        [$pairs[] | select(attempts(.) | length > 1)] as $rerun
      | [$rerun[] | select(clean(.; counted(.)) | not)] as $stayed
      | ($mine | map(select(.result == null or .result.correct != true or .result.failed != 0)) | length) as $bad
      | "",
        "**`\($w)`** — \($mine | length) runs, \($bad) not `correct` or with failed operations; cells are `A → B`:",
        "",
        (["pair", "seed", "ran first"] + ($metrics | map(.name)) + ["cpu ÷ round"] | row),
        (["---:", "---:", "---"] + ($metrics | map("---:")) + ["---:"] | row),
        ( $pairs[] as $p | attempts($p)[] as $a
        | first($mine[] | select(.pair == $p)) as $any
        | [ ($p | tostring)
              + (if $a > 1 then " re-run \($a - 1)" else "" end)
              + (if $a != counted($p) then ", not counted" else "" end),
            ($any.seed | tostring), $any.first ]
          + [$metrics[] | "\(value_at($p; $a; "A"; .name) | num) → \(value_at($p; $a; "B"; .name) | num)"]
          + ["\(run($p; $a; "A") | if . == null then "-" else busy_cell end) → \(run($p; $a; "B") | if . == null then "-" else busy_cell end)"]
        | row ),
        "",
        (["metric", "A q1 / median / q3", "B q1 / median / q3", "B ÷ A (medians)", "resolution", "pairs B won", "verdict"] | row),
        (["---", "---:", "---:", "---:", "---:", "---:", "---"] | row),
        ( $metrics[] as $m
        | values("A"; $m.name) as $va | values("B"; $m.name) as $vb
        | if ($va | length) == 0 or ($vb | length) == 0 then ["`\($m.name)`", "-", "-", "-", "-", "-", "-"] | row else
          [ $pairs[] | [value(.; "A"; $m.name), value(.; "B"; $m.name)] | select(all(. != null))
            | if .[0] == .[1] then 0 elif ((.[1] < .[0]) == ($m.better == "lower")) then 1 else -1 end ] as $duels
          | ($duels | map(select(. == 1)) | length) as $won
          | ($duels | map(select(. == -1)) | length) as $lost
          | ($va | median) as $ma | ($vb | median) as $mb
          | (($mb - $ma | fabs) > ($va | quartile(3)) - ($va | quartile(1))) as $beyond_spread
          | [ "`\($m.name)`",
              ([1, 2, 3] | map(. as $i | if $i == 2 then $ma else $va | quartile($i) end | num) | join(" / ")),
              ([1, 2, 3] | map(. as $i | if $i == 2 then $mb else $vb | quartile($i) end | num) | join(" / ")),
              ($mb / $ma * 1000 | round / 1000 | tostring),
              (if $ma == 0 then "-"
               else "±" + (($va | quartile(3)) - ($va | quartile(1)) | . / ($ma | fabs) * 1000 | round / 1000 | tostring) end),
              "\($won) / \($duels | length)"
                + (($duels | length) - $won - $lost
                   | if . > 0 then " (\(.) ties)" else "" end),
              ( if $won + $lost == 0 then "same"
                elif (if $m.better == "lower" then $mb - $ma else $ma - $mb end) > $m.bound * ($ma | fabs)
                then "regressed"
                elif $beyond_spread and $won * 10 >= 9 * ($won + $lost) then "gain"
                elif $beyond_spread and $lost * 10 >= 9 * ($won + $lost) then "worse"
                else "unresolved" end ) ]
          | row end ),
        "",
        "`1-core` runs (`cpu_s_per_round ÷ round_s` below 1.3 at thread budget 2): A \([$mine[] | select(.side == "A" and one_core)] | length), B \([$mine[] | select(.side == "B" and one_core)] | length).",
        ( select($rerun | length > 0)
        | "Pairs run again for a `1-core` run: \($rerun | map(tostring) | join(", ")); still `1-core` at the last attempt, and counted so: \(if $stayed == [] then "none" else $stayed | map(tostring) | join(", ") end)." )
    ' "$runs"
    bad="$(jq -s 'map(select(.result == null or .result.correct != true or .result.failed != 0)) | length' "$runs")"
    [ "$bad" -eq 0 ] || { echo "ab.sh: $bad runs were not correct" >&2; return 1; }
}

if [ -n "$from" ]; then
    jq -r -s --arg from "$from" '
      def side($s): first(.[] | select(.side == $s)) | "\(.rev // "?") (\((.commit // "?")[0:7]))";
      "A = \(side("A")), B = \(side("B")); \(map(.pair) | max) alternating pairs per workload,",
      "seeds \(map(.seed) | min)–\(map(.seed) | max); tables of `\($from)` printed again, nothing built or run."
    ' "$from"
    tables "$from" "${workloads[@]}"
    exit
fi

mapfile -t command < <(jq -r '.command[]' "$spec")
# The same invocation with `build` for `run` (and no `--`) compiles without
# running anything.
mapfile -t build < <(jq -r '.command[] | select(. != "--") | if . == "run" then "build" else . end' "$spec")
seconds="$(jq -r '.run_seconds' "$spec")"
if [ "${#workloads[@]}" -eq 0 ]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
fi
[ -n "$dir" ] || dir="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

# Exports and builds one revision; prints its commit.
prepare() {
    local commit
    commit="$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}")" ||
        { echo "ab.sh: $1 is not a revision" >&2; exit 2; }
    if [ ! -d "$dir/$commit/src" ]; then
        mkdir -p "$dir/$commit/src.partial"
        git -C "$repo" archive "$commit" | tar -x -C "$dir/$commit/src.partial"
        mv "$dir/$commit/src.partial" "$dir/$commit/src"
    fi
    echo "building $1 (${commit:0:7}) in $dir/$commit" >&2
    (cd "$dir/$commit/src" && CARGO_TARGET_DIR="$dir/$commit/target" "${build[@]}" >&2)
    echo "$commit"
}

# One run: the harness prints its result line last, after a `DETAIL` line
# that names the thread budget. Prints the result line, then the budget.
run() { # commit workload seed
    local out
    out="$(cd "$dir/$1/src" &&
        CARGO_TARGET_DIR="$dir/$1/target" "${command[@]}" \
            --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2> /dev/null)" || true
    tail -n 1 <<< "$out"
    sed -n 's/^DETAIL //p' <<< "$out" | jq -r '.thread_budget // empty' 2> /dev/null || true
}

a="$(prepare "${revs[0]}")"
b="$(prepare "${revs[1]}")"
runs="$dir/runs.$(date +%Y%m%dT%H%M%S).jsonl"
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        seed=$((seed0 + i - 1))
        if ((i % 2)); then order=(A B); else order=(B A); fi
        for ((attempt = 1; ; attempt++)); do
            one_core=false
            for side in "${order[@]}"; do
                if [ "$side" = A ]; then rev="${revs[0]}" commit="$a"; else rev="${revs[1]}" commit="$b"; fi
                echo "$w pair $i/$pairs seed $seed side $side attempt $attempt" >&2
                { read -r result; read -r budget; } < <(run "$commit" "$w" "$seed"; echo)
                line="$(jq -c -n --arg w "$w" --argjson pair "$i" --argjson seed "$seed" --arg side "$side" \
                    --arg first "${order[0]}" --arg rev "$rev" --arg commit "$commit" \
                    --argjson attempt "$attempt" \
                    --argjson budget "${budget:-null}" --argjson result "${result:-null}" \
                    '{workload: $w, pair: $pair, seed: $seed, side: $side, first: $first, rev: $rev,
                      commit: $commit, attempt: $attempt, budget: $budget, result: $result}')"
                echo "$line" >> "$runs"
                if jq -e "$one_core_jq"'one_core' <<< "$line" > /dev/null; then one_core=true; fi
            done
            if ! $one_core || ((attempt > 2)); then break; fi
            echo "$w pair $i: a 1-core run; running the pair again at seed $seed" >&2
        done
    done
done

echo "A = ${revs[0]} (${a:0:7}), B = ${revs[1]} (${b:0:7}); $pairs alternating pairs per workload,"
echo "seeds $seed0–$((seed0 + pairs - 1)), \`--seconds $seconds --trace 0\`, up to 2 re-runs of a \`1-core\` pair, nproc $(nproc); runs in \`$runs\`."
tables "$runs"
