#!/usr/bin/env bash
# Tier-1 gate plus lint gates and a quick sequential experiment sweep.
# Run from the repository root: scripts/check.sh
#
#   --bless    re-bless the golden digests (GOLDEN_BLESS=1: the golden
#              trace test and the layerbench city, paper_sweep and
#              sift_capture digests at seed 1, plus city and
#              paper_sweep at seed 7) after an intended protocol,
#              timing or synthesis change
set -euo pipefail
cd "$(dirname "$0")/.."

for arg in "$@"; do
    case "$arg" in
        --bless) export GOLDEN_BLESS=1 ;;
        *) echo "unknown option: $arg (supported: --bless)" >&2; exit 2 ;;
    esac
done

cargo fmt --all --check

# Registry-free gate: every package of the workspace is a path
# dependency, so the build and tier-1 tests need no crates.io access.
# A registry or git dependency fails here, by name.
cargo metadata --format-version 1 | python3 -c 'import json, sys
bad = [p["name"] + " " + p["version"] + " from " + p["source"]
       for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
if bad:
    sys.exit("non-path dependencies: " + ", ".join(bad))
print("registry-free: every package is a path dependency")'

# Tier-1 coverage gate: `cargo test` at the root runs the default
# members, so the root package and every crates/* package must be one,
# or tier-1 silently shrinks. A missing package fails here, by name.
# (The rand/rand_chacha stand-ins are implicit path members, not ours.)
cargo metadata --format-version 1 --no-deps | python3 -c 'import json, os, sys
meta = json.load(sys.stdin)
root = meta["workspace_root"]
ours = [p for p in meta["packages"]
        if os.path.dirname(p["manifest_path"]) == root
        or os.path.dirname(os.path.dirname(p["manifest_path"])) == os.path.join(root, "crates")]
missing = [p["name"] for p in ours if p["id"] not in meta["workspace_default_members"]]
if missing:
    sys.exit("not default workspace members (tier-1 skips their tests): " + ", ".join(missing))
print("default members: the root package and all", len(ours) - 1, "crates/* packages")'

# Offline lane: the layer benchmark is a workspace of its own. The
# rand/rand_chacha stand-ins under layerbench/stand-ins serve both
# workspaces (this one depends on them by path, layerbench patches
# crates.io with them), so it compiles and tests the
# spectrum/phy/mac/whitefi libraries without crates.io access.
cargo test --offline --release --manifest-path layerbench/Cargo.toml -q

# Offline outcome-identity lane: each layer-benchmark job digests its
# whole outcome, so any drift in event order, RNG draws or oracle output
# moves it. `city` (a 58-cell and a 6-cell group with mic-driven
# switching) covers the shard plan and merge. `paper_sweep` (the Fig 11
# grid: ~900 small fixed-channel and adaptive simulators) is the
# CSMA-timer-heavy workload. `sift_capture` (the
# Table 1 grid streamed through SynthStream and StreamingSift) is the
# only one that synthesizes samples, so it alone sees drift in the noise,
# ripple and head draws. The MAC workloads are pinned at a second seed
# too, so an optimisation that is exact at seed 1 by luck still fails.
# After an intended behaviour change, re-bless with --bless.
layerbench_golden() {
    local workload=$1 seed=$2 golden=$3 digest
    digest=$(cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | grep -o 'digest=0x[0-9a-f]*' | cut -d= -f2)
    if [ "${GOLDEN_BLESS:-}" = 1 ]; then
        echo "$digest" > "$golden"
        echo "layerbench $workload seed $seed digest blessed: $digest"
    elif [ "$digest" != "$(cat "$golden")" ]; then
        echo "layerbench $workload seed $seed digest $digest != golden $(cat "$golden") ($golden);" \
            "re-bless with scripts/check.sh --bless if the change is intended" >&2
        exit 1
    else
        echo "layerbench $workload seed $seed digest matches golden: $digest"
    fi
}
layerbench_golden city 1 tests/golden/layerbench_city.digest
layerbench_golden paper_sweep 1 tests/golden/layerbench_paper_sweep.digest
layerbench_golden sift_capture 1 tests/golden/layerbench_sift_capture.digest
layerbench_golden city 7 tests/golden/layerbench_city_seed7.digest
layerbench_golden paper_sweep 7 tests/golden/layerbench_paper_sweep_seed7.digest

cargo build --workspace --release
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc lane: a deleted or privatised item leaves its intra-doc links
# dangling, and a bracketed citation ("[15]") reads as a broken link;
# both fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Determinism/safety linter (DESIGN.md §11, §16): the lexical rules
# (R1 ordered containers, R2 no ambient nondeterminism, R3
# seeded+streamed RNG construction, R4 no unwrap/expect in library
# code, R5 no lossy `as` casts in hot kernels) plus the call-graph
# passes — R6 taint (no path from sim code into a fn that transitively
# reaches a wall clock or ambient RNG), R7 RNG stream map (annotated
# assignment sites, pairwise-distinct salts, disjoint cross-domain
# ranges, STREAM_MAP.md in sync) and R8 dead waivers. Exits non-zero
# with file:line diagnostics on any violation.
cargo run --release -p xtask -- lint

cargo test --workspace -q

# Scalar-vs-batched differential gate: the lane kernels, the streaming
# SIFT front end and the block synthesizer must stay bit-identical to
# their scalar/buffered references (DESIGN.md §12). Runs explicitly so
# a filtered `cargo test` invocation can never silently skip it.
cargo test --release -q -p whitefi-phy --test kernel_differential

# Invariant torture lane: the full 256-plan randomized fault-injection
# sweep plus its order-independence check (ignored by default — too slow
# for the tier-1 lane above, which already runs a 24-case slice). Any
# protocol-oracle Violation under an adaptive run fails here; the quick
# experiment sweep below additionally exits non-zero if any seed
# scenario reports an adaptive oracle violation.
cargo test --release -q -p whitefi-bench --test sim_torture -- --ignored

# Generative fuzz smoke (DESIGN.md §15): sample the scenario schema
# broadly and require zero oracle violations. The tier-1 lane above runs
# the default 8-case slice; this stage widens it (override with
# SCENARIO_FUZZ_CASES=N, like SIM_TORTURE_CASES). A failing case writes
# its reproducing .ron + seed to tests/corpus-failures/.
SCENARIO_FUZZ_CASES="${SCENARIO_FUZZ_CASES:-32}" \
    cargo test --release -q -p whitefi --test fuzz_sweep

# Examples lane: every runnable example must exit cleanly. rural_broadband,
# discovery_race and roadtrip are plain programs that no test executes,
# so this lane is the only place they run. Stdout is discarded; a panic
# or non-zero exit fails the lane.
for src in examples/*.rs; do
    cargo run --release -q --example "$(basename "$src" .rs)" > /dev/null
done
echo "examples: all ran cleanly"

# Sweep determinism lane: the quick sweep's stdout is byte-identical at
# --jobs 1 and --jobs 2 once the wall-clock lines (`(<id> completed in
# …)` and `ran … experiments in …`) are removed. Each run also exits
# non-zero on an invalid report or an adaptive oracle violation.
sweep_dir=$(mktemp -d)
trap 'rm -rf "$sweep_dir"' EXIT
for jobs in 1 2; do
    cargo run --release -p whitefi-bench --bin experiments -- all --quick --jobs "$jobs" |
        grep -Ev '^\([a-z0-9_]+ completed in [0-9.]+s\)$|^ran [0-9]+ experiments in ' \
            > "$sweep_dir/jobs$jobs.txt"
done
diff "$sweep_dir/jobs1.txt" "$sweep_dir/jobs2.txt"
echo "experiments: quick sweep byte-identical at --jobs 1 and --jobs 2"

# Committed performance evidence: every bench-history/BENCH_<sha>-dirty.jsonl
# (layerbench runs of a change, taken beside its parent with
# scripts/bench_snapshot.sh) must sit next to its parent-side
# BENCH_<sha>.jsonl and show no end-to-end metric worse than its
# BENCHMARK.json bound.
pairs=0
for change in bench-history/BENCH_*-dirty.jsonl; do
    [ -e "$change" ] || continue
    parent="${change%-dirty.jsonl}.jsonl"
    if [ ! -f "$parent" ]; then
        echo "bench-history: $change has no parent snapshot $parent" >&2
        exit 1
    fi
    echo "bench-history: $parent -> $change"
    scripts/bench_compare.sh "$parent" "$change"
    pairs=$((pairs + 1))
done
if [ "$pairs" -eq 0 ]; then
    echo "bench-history: no BENCH_<sha>-dirty.jsonl snapshot pair to check" >&2
    exit 1
fi
echo "bench-history: $pairs snapshot pair(s) within their bounds"
