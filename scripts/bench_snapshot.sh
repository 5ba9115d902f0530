#!/usr/bin/env bash
# Runs the layer benchmark on this checkout and appends the results to a
# tracked snapshot, bench-history/BENCH_<short-sha>.jsonl, so a
# performance claim is backed by committed numbers.
# Run from anywhere inside the repository:
#
#   scripts/bench_snapshot.sh [--workloads city,paper_sweep,sift_capture]
#                             [--seeds 1,2,3] [--seconds 30]
#
# Runs are untraced (`--trace 0`), as the benchmark itself runs them.
# Each invocation appends one header line
#
#   # commit=<short-sha> host=<hostname> cpus=<n> cpu=<model> seconds=<s> date=<UTC>
#
# then, for every workload and seed in order, layerbench's `workload=`
# line and its final JSON result line. scripts/bench_compare.sh skips
# the `#` lines and reads the rest, so two snapshots compare directly:
#
#   scripts/bench_compare.sh bench-history/BENCH_<parent>.jsonl bench-history/BENCH_<change>.jsonl
#
# <short-sha> is HEAD's. When files other than bench-history/ and the
# layerbench lockfile (which every layerbench build rewrites) differ from
# HEAD or are untracked and not ignored, the tree is not HEAD, and the
# sha gets a `-dirty` suffix: such a snapshot measures HEAD plus the
# uncommitted change, i.e. the commit that will land it. Appending lets
# alternating parent/change runs (one seed per invocation, switching
# checkouts in between) accumulate in each side's file.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=city,paper_sweep,sift_capture
seeds=1,2,3
seconds=30
while [ "$#" -gt 0 ]; do
    case "$1" in
        --workloads) workloads="${2:?--workloads requires a value}"; shift 2 ;;
        --seeds) seeds="${2:?--seeds requires a value}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds requires a value}"; shift 2 ;;
        *) echo "unknown option: $1 (supported: --workloads, --seeds, --seconds)" >&2; exit 2 ;;
    esac
done

sha=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain -- . ':(exclude)bench-history' ':(exclude)layerbench/Cargo.lock')" ]; then
    sha="$sha-dirty"
fi
mkdir -p bench-history
out="bench-history/BENCH_$sha.jsonl"
cpu=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -s ' ' '_')
echo "# commit=$sha host=$(hostname) cpus=$(nproc) cpu=${cpu:-unknown} seconds=$seconds date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" >> "$out"

IFS=, read -r -a workload_list <<< "$workloads"
IFS=, read -r -a seed_list <<< "$seeds"
for workload in "${workload_list[@]}"; do
    for seed in "${seed_list[@]}"; do
        cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            | grep -E '^(workload=|\{)' >> "$out"
    done
done
echo "appended ${#workload_list[@]} workload(s) x ${#seed_list[@]} seed(s) to $out"
