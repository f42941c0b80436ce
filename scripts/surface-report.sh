#!/usr/bin/env bash
# Prints the size of the maintained surface as markdown tables: per crate
# (Rust lines in src/ — all, and with every `#[cfg(test)]` item and file cut
# off (see `nontest_src`) — and in tests/, `pub` items in src/, binaries (src/main.rs
# and src/bin/*.rs), #[test] functions, seconds for a clean release build of
# that crate alone)
# and workspace totals (lines, algorithms and their non-test lines,
# Federation's public functions, rfl-core's `pub` items no file outside
# crates/core/src names, the rfl-* functions no shipped binary links per
# scripts/reach-report.sh, the RFL_* variables library code reads).
# The wire-path panic census (see `panic_census`) needs no build and prints
# first. Report-only: nothing gates on it.
#
# Usage: scripts/surface-report.sh   (one clean build per crate: minutes)
set -euo pipefail
cd "$(dirname "$0")/.."

# The wire-path panic census, ROADMAP direction 3's counting rule: one row per
# file in crates/core/src/comm/ and crates/core/src/compress/, each read up to
# its first `#[cfg(test)]`; the lines with `unwrap()` or `.expect(`, then the
# lines with `assert!`, `assert_eq!`, `panic!` or `unreachable!` (their
# `debug_` forms included).
panic_census() {
  local f head
  echo "| wire-path file | unwrap/expect lines | assert/panic lines |"
  echo "|---|---:|---:|"
  for f in crates/core/src/comm/*.rs crates/core/src/compress/*.rs; do
    head=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f")
    echo "| ${f#crates/core/src/} | $(grep -cE 'unwrap\(\)|\.expect\(' <<< "$head" || true)" \
      "| $(grep -cE 'assert!|assert_eq!|panic!|unreachable!' <<< "$head" || true) |"
  done
}

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

# Prints the non-test lines of the .rs files named (NUL-separated) on stdin.
# A `#[cfg(test)]` item is cut from the comment lines right above its
# attribute to the brace that closes it, or to its `;` when it has no
# braces: a trailing `mod tests { … }`, an `impl` block, a function, a
# one-line `mod x;`. A file such a `mod x;` declares is test code as a whole.
# Braces inside string and character literals and `//` comments do not
# count.
nontest_src() {
  local -a files keep=()
  local -A test_only=()
  local f
  mapfile -d '' files
  ((${#files[@]})) || return 0
  while IFS= read -r f; do test_only[$f]=1; done < <(awk '
    FNR == 1 { test = 0 }
    sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "") { test = 1; path = 0 }
    !test { next }
    /^[[:space:]]*#\[path/ { path = 1 }
    /^[[:space:]]*(#\[.*\])?$/ { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ && !path {
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      if (FILENAME !~ /\/(lib|mod|main)\.rs$/) { dir = FILENAME; sub(/\.rs$/, "", dir) }
      match($0, /mod [A-Za-z0-9_]+/)
      name = substr($0, RSTART + 4, RLENGTH - 4)
      print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    { test = 0 }' "${files[@]}")
  for f in "${files[@]}"; do [[ -n ${test_only[$f]:-} ]] || keep+=("$f"); done
  ((${#keep[@]})) || return 0
  awk '
    FNR == 1 { printf "%s", held; held = ""; item = 0 }
    !item && /^[[:space:]]*\/\// { held = held $0 "\n"; next }
    !item && /^[[:space:]]*#\[cfg\(test\)\]/ {
      item = 1; depth = 0; opened = 0; held = ""
      sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
    }
    item {
      line = $0
      gsub(/"([^"\\]|\\.)*"|\x27([^\x27\\]|\\.)\x27|\/\/.*/, "", line)
      opens = gsub(/\{/, "", line); depth += opens - gsub(/\}/, "", line)
      if (opens) opened = 1
      if (depth == 0 && (opened || line ~ /;[[:space:]]*$/)) item = 0
      next
    }
    { printf "%s", held; held = ""; print }
    END { printf "%s", held }' "${keep[@]}"
}

# Non-test lines (see `nontest_src`) of the .rs files under the given
# directories — the number ROADMAP direction 2's "less code" contract is
# stated in.
rs_nontest_lines() {
  rs_files "$@" | nontest_src | wc -l
}

# Executables a crate builds: src/main.rs and every src/bin/*.rs.
bin_count() {
  local dir
  for dir in "$@"; do
    find "$dir/src/main.rs" "$dir/src/bin" -maxdepth 1 -name '*.rs' 2> /dev/null || true
  done | wc -l
}

PUB='^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use|unsafe fn) '

panic_census
echo
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

# Library sources without their test code (see `nontest_src`), so a
# variable only a unit test reads is not counted as a knob.
env_reads() {
  find crates/*/src src -name '*.rs' -not -path '*/bin/*' -print0 | nontest_src |
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
