#!/usr/bin/env bash
# Prints the size of the maintained surface as two markdown tables: per crate
# (Rust lines in src/ — all, and with each file's trailing `#[cfg(test)]`
# module cut off — and in tests/, `pub` items in src/, binaries (src/main.rs
# and src/bin/*.rs), #[test] functions, seconds for a clean release build of
# that crate alone)
# and workspace totals (lines, algorithms and their non-test lines,
# Federation's public functions, rfl-core's `pub` items no file outside
# crates/core/src names, the rfl-* functions no shipped binary links per
# scripts/reach-report.sh, the RFL_* variables library code reads).
# Report-only: nothing gates on it.
#
# Usage: scripts/surface-report.sh   (one clean build per crate: minutes)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every .rs file under the given directories, NUL-separated (a crate without
# tests/ contributes nothing).
rs_files() {
  find "$@" -name '*.rs' -print0 2> /dev/null || true
}

rs_lines() {
  rs_files "$@" | xargs -0 -r cat | wc -l
}

# Lines matching a regex in those files.
rs_count() {
  local pattern="$1"; shift
  { rs_files "$@" | xargs -0 -r grep -hE "$pattern" || true; } | wc -l
}

# Lines of those files with each one's trailing `#[cfg(test)]` module cut off
# — the number ROADMAP direction 2's "less code" contract is stated in.
rs_nontest_lines() {
  rs_files "$@" |
    xargs -0 -r awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip' | wc -l
}

# Executables a crate builds: src/main.rs and every src/bin/*.rs.
bin_count() {
  local dir
  for dir in "$@"; do
    find "$dir/src/main.rs" "$dir/src/bin" -maxdepth 1 -name '*.rs' 2> /dev/null || true
  done | wc -l
}

PUB='^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use|unsafe fn) '

echo "| crate | src lines | non-test src lines | test lines | pub items | bins | #[test] | clean build s |"
echo "|---|---:|---:|---:|---:|---:|---:|---:|"
for dir in crates/*/; do
  dir=${dir%/}
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
  bins=$(bin_count "$dir")
  target=target/surface-report
  rm -rf "$target"
  start=$(date +%s.%N)
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet -p "$name" ||
    { echo "clean build of $name failed" >&2; exit 1; }
  secs=$(echo "$(date +%s.%N) $start" | awk '{printf "%.1f", $1 - $2}')
  rm -rf "$target"
  echo "| $name | $(rs_lines "$dir/src") | $(rs_nontest_lines "$dir/src")" \
    "| $(rs_lines "$dir/tests")" \
    "| $(rs_count "$PUB" "$dir/src") | $bins | $(rs_count '#\[test\]' "$dir") | $secs |"
done

# Library sources with their trailing `#[cfg(test)]` module cut off, so a
# variable only a unit test reads is not counted as a knob.
env_reads() {
  find crates/*/src src -name '*.rs' -not -path '*/bin/*' -print0 |
    xargs -0 -r awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip' |
    { grep -oE 'env::var(_os)?\("RFL_[A-Z_]+"' || true; } |
    grep -oE 'RFL_[A-Z_]+' | sort -u | paste -sd' ' -
}

# `pub` items in crates/core/src (the `pub items` column's lines) whose name
# no .rs file outside crates/core/src contains as a word: candidates for
# `pub(crate)`. It matches names, not paths, so a name that collides with any
# identifier outside (`new`, `len`) counts as used and the row under-counts.
# A `pub use` is named when one of its leaf names is; one split over several
# lines is counted as named.
core_unnamed_pub() {
  local words
  words=$(mktemp)
  find crates src tests examples benchmark -name '*.rs' \
    -not -path 'crates/core/src/*' -not -path '*/target/*' -print0 |
    xargs -0 -r grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u > "$words"
  { rs_files crates/core/src | xargs -0 -r grep -hE "$PUB" || true; } |
    awk -v words="$words" '
      BEGIN { while ((getline w < words) > 0) seen[w] = 1 }
      {
        line = $0
        sub(/^[[:space:]]*pub /, "", line)
        n = 0
        if (line ~ /^use /) {
          sub(/^.*::/, "", line)
          gsub(/[{},;]/, " ", line)
          n = split(line, names, " ")
          if (n == 0) next
        } else {
          sub(/^(unsafe fn|fn|struct|enum|trait|const|static|type|mod) +/, "", line)
          match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
          names[1] = substr(line, 1, RLENGTH)
          n = 1
        }
        for (i = 1; i <= n; i++) if (names[i] in seen) next
        count++
      }
      END { print count + 0 }'
  rm -f "$words"
}

ALGOS=$(find crates/core/src/algorithms -name '*.rs' -not -name mod.rs | wc -l)
echo
echo "| workspace | value |"
echo "|---|---|"
echo "| Rust lines under crates/ | $(rs_lines crates) |"
echo "| Rust lines in root src/ tests/ examples/ | $(rs_lines src tests examples) |"
echo "| pub items under crates/*/src | $(rs_count "$PUB" crates/*/src) |"
echo "| binaries | $(bin_count crates/*) |"
echo "| #[test] functions | $(rs_count '#\[test\]' crates src tests) |"
echo "| algorithm files | $ALGOS |"
echo "| non-test lines of crates/core/src/algorithms/*.rs | $(rs_nontest_lines crates/core/src/algorithms) |"
echo "| Federation \`pub fn\` | $(grep -c '^    pub fn' crates/core/src/federation.rs) |"
echo "| rfl-core \`pub\` items no file outside crates/core/src names | $(core_unnamed_pub) |"
echo "| rfl-* functions no shipped binary links (scripts/reach-report.sh) | $(scripts/reach-report.sh --total) |"
echo "| RFL_* read by library code | $(env_reads) |"
