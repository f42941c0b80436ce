#!/usr/bin/env bash
# ab-smoke.sh — scripts/ab.sh's tables and verdicts on a committed fixture.
#
# scripts/ab-fixture.jsonl holds two made-up workloads. `scale_lazy`: three
# pairs whose six metrics read one verdict of each kind, and one run (pair
# 1, A) that kept one core busy at thread budget 2, written before pairs
# were run again, so it counts as it ran. `lstm_silo`: pair 1 had a `1-core`
# run and its re-run had none, so the re-run counts (its `peak_rss_mb` reads
# `gain` only then); pair 3 stayed `1-core` through both re-runs, so its
# last attempt counts. `ab.sh --from` must print exactly those verdicts,
# rows and counts, and each metric's resolution (A's (q3 − q1) ÷ median):
# `lstm_silo` `round_s` wins 3/3 at ×0.896 and reads `unresolved` because
# its A side straddles two phases (±0.792). Builds and runs nothing (CI's
# bench-smoke job and scripts/ci-check.sh call it).
set -euo pipefail
cd "$(dirname "$0")/.."

tables="$(scripts/ab.sh --from scripts/ab-fixture.jsonl)"
# The lines of one workload's tables.
section() {
    awk -v head="**\`$1\`**" 'index($0, head) == 1 { on = 1 } /^\*\*`/ && index($0, head) != 1 { on = 0 } on' <<< "$tables"
}
fail() {
    echo "ab-smoke.sh: $1:" >&2
    echo "$tables" >&2
    exit 1
}
expect() { # workload metric verdict
    grep -q "^| \`$2\` .* | $3 |\$" <<< "$(section "$1")" || fail "the fixture's $1 \`$2\` should read $3"
}
resolution() { # workload metric resolution
    grep -q "^| \`$2\` | [^|]* | [^|]* | [^|]* | $3 | " <<< "$(section "$1")" ||
        fail "the fixture's $1 \`$2\` should state a resolution of $3"
}

for want in 'round_s gain' 'updates_per_s worse' 'cpu_s_per_round regressed' \
    'wire_bytes_per_round same' 'peak_rss_mb unresolved' 'setup_s unresolved'; do
    expect scale_lazy "${want% *}" "${want#* }"
done
for want in 'round_s ±0.015' 'cpu_s_per_round ±0.22' 'wire_bytes_per_round ±0'; do
    resolution scale_lazy "${want% *}" "${want#* }"
done
grep -q '^| 1 | 18 | A | .* | 1.24 1-core → 2.97 |$' <<< "$(section scale_lazy)" ||
    fail "scale_lazy pair 1's A run should be marked 1-core and counted"
grep -q '^`1-core` runs .*: A 1, B 0\.$' <<< "$(section scale_lazy)" ||
    fail "scale_lazy should count one 1-core run, on side A"

expect lstm_silo peak_rss_mb gain
expect lstm_silo wire_bytes_per_round same
expect lstm_silo round_s unresolved
resolution lstm_silo round_s ±0.792
resolution lstm_silo peak_rss_mb ±0.006
lstm="$(section lstm_silo)"
grep -q '^| 1, not counted | 18 | A | .* | 1.8 → 1.03 1-core |$' <<< "$lstm" ||
    fail "lstm_silo pair 1's first attempt should show, marked not counted"
grep -q '^| 1 re-run 1 | 18 | A | .* | 1.8 → 1.83 |$' <<< "$lstm" ||
    fail "lstm_silo pair 1's re-run should show and count"
grep -q '^| 3 re-run 2 | 20 | A | .* | 1.02 1-core → 1.81 |$' <<< "$lstm" ||
    fail "lstm_silo pair 3's last attempt should count though it stayed 1-core"
grep -q '^Pairs run again for a `1-core` run: 1, 3; still `1-core` at the last attempt, and counted so: 3\.$' <<< "$lstm" ||
    fail "lstm_silo should report pairs 1 and 3 run again and pair 3 still 1-core"
