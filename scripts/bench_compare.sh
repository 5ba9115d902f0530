#!/usr/bin/env bash
# Compares two benchmark result files and flags regressions. The input
# kind is detected from the contents:
#
# * Layerbench result lines — any line that is a JSON object with a
#   "metrics" key. Each side is one file of such lines (one per run):
#
#     for w in paper_sweep city sift_capture; do for s in 1 2 3; do
#         cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
#             --workload $w --seed $s --seconds 30 --trace 0 | grep -E '^(workload=|\{)'
#     done; done > parent.jsonl
#
#   A result line belongs to the workload named by the closest
#   `workload=<name>` line above it (a file of bare JSON lines is one
#   unnamed workload). Per workload and metric it prints the parent
#   median, the change median and change/parent; direction and bound
#   come from BENCHMARK.json. Exits 1 if an end-to-end metric worsens by
#   more than its bound (relative to the parent median).
#
# * An experiment-runner summary (results/BENCH_experiments.json):
#
#     scripts/bench_compare.sh BASELINE.json CANDIDATE.json \
#         [--threshold PCT] [--min-seconds S]
#
#   Exits 1 if any experiment present in both runs regressed by more
#   than the threshold (default 20%). Experiments present in only one
#   run are reported but do not fail the comparison, and neither do
#   experiments where both runs finished under the minimum-seconds floor
#   (default 1.0 s — sub-second quick-mode cells are dominated by
#   scheduler noise, so a percentage gate on them would flap).
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 BASELINE CANDIDATE [--threshold PCT] [--min-seconds S]" >&2
    exit 2
fi

BASE="$1"
CAND="$2"
shift 2
THRESHOLD=20
MIN_SECONDS=1.0
while [ "$#" -gt 0 ]; do
    case "$1" in
        --threshold) THRESHOLD="${2:?--threshold requires a value}"; shift 2 ;;
        --min-seconds) MIN_SECONDS="${2:?--min-seconds requires a value}"; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
done
SPEC="$(dirname "$0")/../BENCHMARK.json"

python3 - "$BASE" "$CAND" "$THRESHOLD" "$MIN_SECONDS" "$SPEC" <<'PY'
import json
import statistics
import sys

base_path, cand_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
min_seconds = float(sys.argv[4])
spec_path = sys.argv[5]


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


def compare_layerbench(base, cand):
    with open(spec_path) as f:
        spec = json.load(f)
    catalogue = {m["name"]: m for m in spec.get("per_layer", [])}
    catalogue.update({m["name"]: m for m in spec.get("end_to_end", [])})
    print(f"{'workload':13} {'metric':32} {'parent':>12} {'change':>12} {'ratio':>7}  better")
    regressions = []
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
    if regressions:
        print(f"\n{len(regressions)} end-to-end metric(s) worse than their bound:", file=sys.stderr)
        for workload, name, bm, cm in regressions:
            print(f"  {workload} {name}: {bm:.6g} -> {cm:.6g}", file=sys.stderr)
        sys.exit(1)
    print("\nno end-to-end metric worse than its bound")


base_runs, cand_runs = result_lines(base_path), result_lines(cand_path)
if base_runs or cand_runs:
    compare_layerbench(base_runs, cand_runs)
    sys.exit(0)


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {e["id"]: e for e in data.get("experiments", [])}, data

base, base_doc = load(base_path)
cand, cand_doc = load(cand_path)

if base_doc.get("quick") != cand_doc.get("quick"):
    print(
        f"warning: comparing a quick={base_doc.get('quick')} run against "
        f"quick={cand_doc.get('quick')} — wall times are not comparable",
        file=sys.stderr,
    )

print(f"{'experiment':14} {'base_s':>10} {'cand_s':>10} {'delta':>8}")
regressions = []
for exp_id in base:
    if exp_id not in cand:
        print(f"{exp_id:14} {base[exp_id]['wall_s']:>10.3f} {'absent':>10} {'--':>8}")
        continue
    b = base[exp_id]["wall_s"]
    c = cand[exp_id]["wall_s"]
    delta = (c - b) / b * 100.0 if b > 0 else 0.0
    flag = ""
    if delta > threshold:
        if b < min_seconds and c < min_seconds:
            flag = "  (below floor, ignored)"
        else:
            flag = "  <-- REGRESSION"
            regressions.append((exp_id, b, c, delta))
    print(f"{exp_id:14} {b:>10.3f} {c:>10.3f} {delta:>+7.1f}%{flag}")
for exp_id in cand:
    if exp_id not in base:
        print(f"{exp_id:14} {'absent':>10} {cand[exp_id]['wall_s']:>10.3f} {'--':>8}")

bt = base_doc.get("total_wall_s")
ct = cand_doc.get("total_wall_s")
if bt and ct:
    print(f"{'total':14} {bt:>10.3f} {ct:>10.3f} {((ct - bt) / bt * 100.0):>+7.1f}%")

if regressions:
    print(
        f"\n{len(regressions)} experiment(s) regressed by more than "
        f"{threshold:.0f}%:",
        file=sys.stderr,
    )
    for exp_id, b, c, delta in regressions:
        print(f"  {exp_id}: {b:.3f}s -> {c:.3f}s ({delta:+.1f}%)", file=sys.stderr)
    sys.exit(1)
print("\nno wall-time regressions above threshold")
PY
