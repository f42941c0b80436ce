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
# the table EXPERIMENTS.md's reactor timelines are made of (`rfl-net` is
# the reactor's event loop, `bench-driver` the harness's echo thread, `rfl-worker` the
# kernel pool, which also runs the in-process plane's client jobs beside the
# round thread — on a lazy plane they wake, train, read and hibernate
# clients).
#
# A thread's counters are those of the last sample that saw it, so a thread
# that lived between two samples is missing from its row, and one that
# exited keeps up to 50 ms out of it. The `(unsampled)` row holds that
# remainder: the command's total CPU, read from the shell's child times
# after it exits, minus the rows above. `total` is the command's CPU, so the
# rows add up to it (to a clock tick per row). Short-lived threads land
# mostly in `(unsampled)`; the split between user and system time there can
# be off by a few ticks, as the kernel apportions the two per thread. A
# sample that lands before a new thread names itself counts it under its
# parent's name.
#
# Give it the program itself, not `cargo run`: it samples the process it
# started, not that process's children (their CPU still counts in `total`
# and `(unsampled)`). Linux only (`/proc`). Exits with the command's status.
set -euo pipefail

if [ "$#" -eq 0 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"
    [ "$#" -gt 0 ] || exit 2
    exit 0
fi
[ -d /proc/self/task ] || { echo "thread-cpu.sh needs Linux's /proc" >&2; exit 2; }

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
samples="$scratch/samples"
: > "$samples"

# The shell's own and its reaped children's CPU, as `times` prints them; a
# builtin with a redirection runs in this shell, so the child times are
# this shell's.
times > "$scratch/before"
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

# The sampler is a subshell this shell reaps only after reading the
# command's times, so its own awk and sleep calls stay out of them.
(
    while kill -0 "$pid" 2> /dev/null; do
        sample
        sleep 0.05
    done
) &
sampler=$!
rc=0
wait "$pid" || rc=$?
times > "$scratch/after"
wait "$sampler" || true

# Children's user and system seconds from `times`' second line
# ("XmY.YYYs XmY.YYYs").
child_times() {
    awk 'NR == 2 {
        for (i = 1; i <= 2; i++) { split($i, p, "m"); sub(/s$/, "", p[2]); s[i] = p[1] * 60 + p[2] }
        print s[1], s[2]
    }' "$1"
}
read -r user0 sys0 < <(child_times "$scratch/before")
read -r user1 sys1 < <(child_times "$scratch/after")

printf '\n%-18s %7s %9s %9s %11s %11s\n' thread threads user_s sys_s voluntary involuntary
awk -v hz="$(getconf CLK_TCK)" -v u0="$user0" -v u1="$user1" -v s0="$sys0" -v s1="$sys1" '
    BEGIN { tu = u1 - u0; ts = s1 - s0 }
    { tid = $1; ut[tid] = $2; st[tid] = $3; vol[tid] = $4; inv[tid] = $5
      name = $0; for (k = 0; k < 5; k++) sub(/^[0-9]+ /, "", name); nm[tid] = name }
    END {
        for (t in nm) { n = nm[t]; c[n]++; u[n] += ut[t]; s[n] += st[t]; v[n] += vol[t]; i[n] += inv[t]; threads++ }
        for (n in c) {
            printf "%d\t%-18s %7d %9.2f %9.2f %11d %11d\n", u[n] + s[n], n, c[n], u[n] / hz, s[n] / hz, v[n], i[n]
            su += u[n] / hz; ss += s[n] / hz
        }
        # After the sorted rows: the rest of the command'"'"'s CPU, and its total.
        printf "-1\t%-18s %7s %9.2f %9.2f %11s %11s\n", "(unsampled)", "-", tu - su, ts - ss, "-", "-"
        printf "-2\t%-18s %7d %9.2f %9.2f %11s %11s\n", "total", threads, tu, ts, "-", "-"
    }
' "$samples" | sort -t$'\t' -k1,1nr | cut -f2-
exit "$rc"
