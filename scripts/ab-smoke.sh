#!/usr/bin/env bash
# ab-smoke.sh — scripts/ab.sh's tables and verdicts on a committed fixture.
#
# scripts/ab-fixture.jsonl holds three pairs of made-up `scale_lazy` runs
# whose six metrics read one verdict of each kind; `ab.sh --from` must print
# exactly those. Builds and runs nothing (CI's bench-smoke job and
# scripts/ci-check.sh call it).
set -euo pipefail
cd "$(dirname "$0")/.."

tables="$(scripts/ab.sh --from scripts/ab-fixture.jsonl)"
for want in 'round_s gain' 'updates_per_s worse' 'cpu_s_per_round regressed' \
    'wire_bytes_per_round same' 'peak_rss_mb unresolved' 'setup_s unresolved'; do
    grep -q "^| \`${want% *}\` .* | ${want#* } |\$" <<< "$tables" ||
        { echo "ab-smoke.sh: the fixture's \`${want% *}\` should read ${want#* }:" >&2; echo "$tables" >&2; exit 1; }
done
