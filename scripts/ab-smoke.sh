#!/usr/bin/env bash
# ab-smoke.sh — scripts/ab.sh's tables and verdicts on a committed fixture.
#
# scripts/ab-fixture.jsonl holds three pairs of made-up `scale_lazy` runs
# whose six metrics read one verdict of each kind, and one run (pair 1, A)
# that kept one core busy at thread budget 2; `ab.sh --from` must print
# exactly those verdicts, mark that run `1-core` and count it. Builds and
# runs nothing (CI's bench-smoke job and scripts/ci-check.sh call it).
set -euo pipefail
cd "$(dirname "$0")/.."

tables="$(scripts/ab.sh --from scripts/ab-fixture.jsonl)"
for want in 'round_s gain' 'updates_per_s worse' 'cpu_s_per_round regressed' \
    'wire_bytes_per_round same' 'peak_rss_mb unresolved' 'setup_s unresolved'; do
    grep -q "^| \`${want% *}\` .* | ${want#* } |\$" <<< "$tables" ||
        { echo "ab-smoke.sh: the fixture's \`${want% *}\` should read ${want#* }:" >&2; echo "$tables" >&2; exit 1; }
done
grep -q '^| 1 | 18 | A | .* | 1.24 1-core → 2.97 |$' <<< "$tables" ||
    { echo "ab-smoke.sh: pair 1's A run should be marked 1-core:" >&2; echo "$tables" >&2; exit 1; }
grep -q '^`1-core` runs .*: A 1, B 0\.$' <<< "$tables" ||
    { echo "ab-smoke.sh: the fixture should count one 1-core run, on side A:" >&2; echo "$tables" >&2; exit 1; }
