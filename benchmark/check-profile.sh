#!/usr/bin/env bash
# Fails when benchmark/Cargo.toml's [profile.release] differs from the root
# manifest's: the benchmark must measure code compiled the way it ships.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

release_profile() {
    awk '
        /^\[/ { inside = ($0 == "[profile.release]") ; next }
        inside { sub(/#.*/, ""); gsub(/[ \t]+/, ""); if ($0 != "") print }
    ' "$1" | sort
}

root="$(release_profile "$here/../Cargo.toml")"
mine="$(release_profile "$here/Cargo.toml")"
if [ -z "$root" ]; then
    echo "check-profile: no [profile.release] in the root Cargo.toml" >&2
    exit 1
fi
if [ "$root" != "$mine" ]; then
    echo "check-profile: [profile.release] differs from the root manifest" >&2
    diff <(echo "$root") <(echo "$mine") >&2 || true
    exit 1
fi
echo "check-profile: [profile.release] matches the root manifest"
