#!/usr/bin/env bash
# Compares two files of layerbench result lines and flags regressions.
# A result line is any line that is a JSON object with a "metrics" key;
# each side is one file of such lines (one per run):
#
#     for w in paper_sweep city sift_capture; do for s in 1 2 3; do
#         cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
#             --workload $w --seed $s --seconds 30 --trace 0 | grep -E '^(workload=|\{)'
#     done; done > parent.jsonl
#
#     scripts/bench_compare.sh parent.jsonl change.jsonl
#
# A result line belongs to the workload named by the closest
# `workload=<name>` line above it (a file of bare JSON lines is one
# unnamed workload). Per workload and metric it prints the parent
# median, the change median and change/parent; direction and bound come
# from BENCHMARK.json. Then, per workload, it counts the seeds that both
# files ran whose `digest=` values (on the `workload=… seed=…` lines)
# are equal on both sides, and lists the seeds whose digests differ.
# The digest count is informational: a change to numerics legitimately
# moves digests.
#
# Each end-to-end metric also gets a line with both sides' quartiles
# (q1 median q3). When the parent's interquartile range exceeds the
# metric's bound relative to its median, the parent runs spread too
# widely to resolve a change of that size: the metric is tagged
# `unresolved` and listed in the summary. The tag is informational.
#
# Exits 1 if an end-to-end metric worsens by more than its bound
# (relative to the parent median), and 2 if either file holds no result
# lines.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi
SPEC="$(dirname "$0")/../BENCHMARK.json"

python3 - "$1" "$2" "$SPEC" <<'PY'
import json
import statistics
import sys

base_path, cand_path, spec_path = sys.argv[1], sys.argv[2], sys.argv[3]


def result_lines(path):
    """{workload: [metrics dict per run]} from layerbench result lines."""
    runs = {}
    workload = "-"
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("workload="):
                workload = line.split()[0].split("=", 1)[1]
                continue
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "metrics" in doc:
                runs.setdefault(workload, []).append(doc["metrics"])
    return runs


def digests(path):
    """{workload: {seed: set of digests}} from `workload=` lines."""
    seen = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("workload="):
                continue
            fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
            if "seed" in fields and "digest" in fields:
                seeds = seen.setdefault(fields["workload"], {})
                seeds.setdefault(fields["seed"], set()).add(fields["digest"])
    return seen


def compare_digests(base, cand):
    for workload in sorted(set(base) & set(cand)):
        shared = sorted(set(base[workload]) & set(cand[workload]), key=int)
        differ = [s for s in shared if base[workload][s] != cand[workload][s]]
        print(f"digests {workload}: {len(shared) - len(differ)} of {len(shared)} shared seed(s) equal")
        for s in differ:
            b = ",".join(sorted(base[workload][s]))
            c = ",".join(sorted(cand[workload][s]))
            print(f"  seed {s} differs: parent {b} change {c}")


def quartiles(values):
    """(q1, median, q3) of a non-empty list, inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_layerbench(base, cand):
    with open(spec_path) as f:
        spec = json.load(f)
    catalogue = {m["name"]: m for m in spec.get("per_layer", [])}
    catalogue.update({m["name"]: m for m in spec.get("end_to_end", [])})
    end_to_end = {m["name"] for m in spec.get("end_to_end", []) if "bound" in m}
    print(f"{'workload':13} {'metric':32} {'parent':>12} {'change':>12} {'ratio':>7}  better")
    regressions = []
    unresolved = []
    for workload in sorted(set(base) | set(cand)):
        if workload not in base or workload not in cand:
            side = "parent" if workload not in base else "change"
            print(f"{workload:13} (no runs in the {side} file)")
            continue
        runs = base[workload] + cand[workload]
        for name in dict.fromkeys(n for metrics in runs for n in metrics):
            b = [m[name]["value"] for m in base[workload] if name in m]
            c = [m[name]["value"] for m in cand[workload] if name in m]
            if not b or not c:
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            ratio = f"{cm / bm:7.3f}" if bm else "     --"
            entry = catalogue.get(name, {})
            better = entry.get("better", "?")
            flag = ""
            if "bound" in entry and better in ("lower", "higher"):
                worse = cm - bm if better == "lower" else bm - cm
                rel = worse / abs(bm) if bm else worse
                if rel > entry["bound"]:
                    flag = f"  <-- worse by {rel:.1%} (bound {entry['bound']:.0%})"
                    regressions.append((workload, name, bm, cm))
            print(f"{workload:13} {name:32} {bm:12.6g} {cm:12.6g} {ratio}  {better}{flag}")
            if name in end_to_end:
                bq, cq = quartiles(b), quartiles(c)
                spread = (bq[2] - bq[0]) / abs(bm) if bm else bq[2] - bq[0]
                tag = ""
                if spread > entry["bound"]:
                    tag = f"  unresolved (parent IQR/median {spread:.1%} > bound {entry['bound']:.0%})"
                    unresolved.append((workload, name, spread, entry["bound"]))
                quart = lambda q: " ".join(f"{v:.6g}" for v in q)
                print(f"{'':13} {'  quartiles':32} parent [{quart(bq)}] change [{quart(cq)}]{tag}")
    print()
    compare_digests(digests(base_path), digests(cand_path))
    if unresolved:
        print(f"\n{len(unresolved)} end-to-end metric(s) unresolved (parent spread wider than the bound):")
        for workload, name, spread, bound in unresolved:
            print(f"  unresolved {workload} {name}: parent IQR/median {spread:.1%} > bound {bound:.0%}")
    else:
        print("\nno end-to-end metric unresolved")
    if regressions:
        print(f"\n{len(regressions)} end-to-end metric(s) worse than their bound:", file=sys.stderr)
        for workload, name, bm, cm in regressions:
            print(f"  {workload} {name}: {bm:.6g} -> {cm:.6g}", file=sys.stderr)
        sys.exit(1)
    print("\nno end-to-end metric worse than its bound")


base_runs, cand_runs = result_lines(base_path), result_lines(cand_path)
for path, runs in ((base_path, base_runs), (cand_path, cand_runs)):
    if not runs:
        print(f"{path}: no layerbench result lines", file=sys.stderr)
        sys.exit(2)
compare_layerbench(base_runs, cand_runs)
PY
