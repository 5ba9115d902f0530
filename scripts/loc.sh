#!/usr/bin/env bash
# Non-test line counts per crate: every `.rs` file under `crates/*/src`
# and the root package's `src/`, each counted up to the `#[cfg(test)]`
# line that opens its `mod tests` (the whole file when it has none).
# Test-only items outside `mod tests` count as code.
# Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0; prev = "" }
        cut { next }
        prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { n--; cut = 1; next }
        { n++; prev = $0 }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
