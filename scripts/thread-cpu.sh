#!/usr/bin/env bash
# thread-cpu.sh — where a process's CPU time and context switches went, by
# thread name.
#
# Usage: scripts/thread-cpu.sh <command> [arg…]
#
# Runs the command (its output passes through), samples
# /proc/<pid>/task/*/{stat,status} every 50 ms until it exits, and prints one
# row per thread name — threads sharing a name are summed — with user and
# system seconds and voluntary / involuntary context switches, busiest first:
# the table EXPERIMENTS.md's reactor timelines are made of (`rfl-net-*` are
# the shards, `bench-driver` the harness's echo thread).
#
# Give it the program itself, not `cargo run`: it samples the process it
# started, not that process's children. A thread's counters are those of
# the last sample that saw it, so up to 50 ms of a thread's life can be
# missing, and a command shorter than that may show no rows at all. Linux
# only (`/proc`). Exits with the command's status.
set -euo pipefail

if [ "$#" -eq 0 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"
    [ "$#" -gt 0 ] || exit 2
    exit 0
fi
[ -d /proc/self/task ] || { echo "thread-cpu.sh needs Linux's /proc" >&2; exit 2; }

samples="$(mktemp)"
trap 'rm -f "$samples"' EXIT

"$@" &
pid=$!

# One line per live thread: tid, utime and stime in clock ticks, the two
# switch counts, then the name (last, as it may hold spaces). A thread that
# exits between the glob and the read just drops out of this sample.
sample() {
    local files=() t
    for t in /proc/"$pid"/task/[0-9]*; do
        files+=("$t/stat" "$t/status")
    done
    awk '
        function tid_of(path) { sub(/\/[a-z]+$/, "", path); sub(/.*\//, "", path); return path }
        FILENAME ~ /\/stat$/ {
            tid = tid_of(FILENAME)
            name = $0; sub(/^[0-9]+ \(/, "", name); sub(/\) [A-Za-z] .*$/, "", name)
            rest = $0; sub(/^.*\) /, "", rest); split(rest, f, " ")
            nm[tid] = name; ut[tid] = f[12]; st[tid] = f[13]
        }
        /^voluntary_ctxt_switches:/ { vol[tid_of(FILENAME)] = $2 }
        /^nonvoluntary_ctxt_switches:/ { inv[tid_of(FILENAME)] = $2 }
        END { for (t in nm) if (t in vol && t in inv) print t, ut[t], st[t], vol[t], inv[t], nm[t] }
    ' "${files[@]}" 2> /dev/null >> "$samples" || true
}

while kill -0 "$pid" 2> /dev/null; do
    sample
    sleep 0.05
done
rc=0
wait "$pid" || rc=$?

printf '\n%-18s %7s %9s %9s %11s %11s\n' thread threads user_s sys_s voluntary involuntary
awk -v hz="$(getconf CLK_TCK)" '
    { tid = $1; ut[tid] = $2; st[tid] = $3; vol[tid] = $4; inv[tid] = $5
      name = $0; for (k = 0; k < 5; k++) sub(/^[0-9]+ /, "", name); nm[tid] = name }
    END {
        for (t in nm) { n = nm[t]; c[n]++; u[n] += ut[t]; s[n] += st[t]; v[n] += vol[t]; i[n] += inv[t] }
        for (n in c) printf "%d\t%-18s %7d %9.2f %9.2f %11d %11d\n", u[n] + s[n], n, c[n], u[n] / hz, s[n] / hz, v[n], i[n]
    }
' "$samples" | sort -nr | cut -f2-
exit "$rc"
