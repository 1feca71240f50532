#!/usr/bin/env bash
# bench_ab.sh — paired A/B of the working tree against a parent revision on
# one end-to-end benchmark workload, judged the way BENCHMARK.json's
# end-to-end metrics are judged.
#
#   bash scripts/bench_ab.sh PARENT WORKLOAD PAIRS
#   make bench-ab PARENT=HEAD~1 W=cluster-ckpt PAIRS=10
#
# Pair s runs both sides at -seed s (the spread a gate sees is across seeds,
# whose source vertices differ), over the window the benchmark sets; odd
# pairs run the parent first, even pairs the change, so drift on the host
# falls on both sides. Each run's last output line is its JSON result. The
# script prints every run, then per
# end-to-end metric the parent and change medians, the parent's quartiles,
# the pairs the change won, and a verdict:
#   worse       the change median is worse than the parent's by more than
#               the metric's bound;
#   better      the change won at least 9 pairs in 10 of those run (a pair
#               where either run died is not won), its median beats the
#               parent's by more than the parent's interquartile range, and
#               it failed no more passes than the parent;
#   unresolved  neither.
# It ends with each side's failed passes. Each run's row also shows the
# host's steal and iowait share of CPU time while it ran (the first line of
# /proc/stat, read before and after it): a high share marks a host slow
# spell rather than a regression, so rerun those pairs before believing
# them. The verdicts do not use it.
#
# The parent is exported with `git archive` into .bench_build/ab-<rev>/ and
# builds there with its own bench/run.sh; logs land in .bench_build/ab-out/.
# Run nothing else meanwhile: both sides share the host's cores. Needs git,
# bash and python3.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 PARENT WORKLOAD PAIRS" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short=12 "$parent^{commit}")
base=$root/.bench_build/ab-$rev
if [ ! -f "$base/bench/run.sh" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git -C "$root" archive "$rev" | tar -x -C "$base"
fi
out=$root/.bench_build/ab-out/$workload
rm -rf "$out"
mkdir -p "$out"

cpustat() { head -n 1 /proc/stat 2>/dev/null || echo cpu; }
run() { # side seed order
	local dir=$root before
	[ "$1" = parent ] && dir=$base
	echo "pair $2: $1 ($3)" >&2
	before=$(cpustat)
	bash "$dir/bench/run.sh" -workload "$workload" -seed "$2" >"$out/$1-$2.log" 2>&1 || true
	printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$2" "$1" "$3" "$before" "$(cpustat)" \
		"$(tail -n 1 "$out/$1-$2.log")" >>"$out/runs.tsv"
}
for s in $(seq 1 "$pairs"); do
	if [ $((s % 2)) = 1 ]; then
		run parent "$s" first
		run change "$s" second
	else
		run change "$s" first
		run parent "$s" second
	fi
done

python3 - "$root/BENCHMARK.json" "$out/runs.tsv" "$workload" "$rev" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
def host(before, after):
    """The steal and iowait shares of the CPU time between two /proc/stat
    cpu lines (user nice system idle iowait irq softirq steal ...)."""
    d = [int(b) - int(a) for a, b in zip(before.split()[1:9], after.split()[1:9])]
    if len(d) < 8 or sum(d) <= 0:
        return "     -      -"
    return f"{d[7] / sum(d):6.1%} {d[4] / sum(d):6.1%}"

runs = {}  # (seed, side) -> parsed last line, or None for a run that died
for line in open(sys.argv[2]):
    seed, side, order, before, after, last = line.rstrip("\n").split("\t", 5)
    try:
        runs[int(seed), side] = (order, host(before, after), json.loads(last))
    except ValueError:
        runs[int(seed), side] = (order, host(before, after), None)
seeds = sorted({s for s, _ in runs})
metrics = spec["end_to_end"]
print(f"workload {sys.argv[3]}: parent {sys.argv[4]} vs working tree, {len(seeds)} pairs")
print("seed side    order   steal iowait" + "".join(f"{m['name']:>18}" for m in metrics) + "  attempted failed")
for s in seeds:
    for side in ("parent", "change"):
        order, cpu, r = runs[s, side]
        if r is None:
            print(f"{s:4} {side:7} {order:6} {cpu} run died (see its log)")
            continue
        vals = "".join(f"{r['metrics'][m['name']]['value']:18.4f}" for m in metrics)
        print(f"{s:4} {side:7} {order:6} {cpu}{vals}  {r['attempted']:9} {r['failed']:6}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print()
print(f"{'metric':18} {'parent p50':>12} {'change p50':>12} {'parent q1':>12} {'parent q3':>12} {'change':>8} {'won':>6}  verdict")
ok = [s for s in seeds if runs[s, "parent"][2] and runs[s, "change"][2]]
failed = {side: sum(runs[s, side][2]["failed"] for s in seeds if runs[s, side][2])
          for side in ("parent", "change")}
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [runs[s, "parent"][2]["metrics"][name]["value"] for s in ok]
    b = [runs[s, "change"][2]["metrics"][name]["value"] for s in ok]
    if not ok:
        print(f"{name:18} no complete pair")
        continue
    pa, pb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    rel = (pb - pa) / pa if pa else 0.0
    worse = rel if lower else -rel
    if worse > m["bound"]:
        verdict = f"worse (bound {m['bound']:.0%})"
    elif (won >= 0.9 * len(seeds) and abs(pb - pa) > q3 - q1 and worse < 0
          and failed["change"] <= failed["parent"]):
        verdict = "better"
    else:
        verdict = "unresolved"
    print(f"{name:18} {pa:12.4f} {pb:12.4f} {q1:12.4f} {q3:12.4f} {rel:+8.1%} {won:3}/{len(seeds):<2}  {verdict}")
for side in ("parent", "change"):
    died = sum(runs[s, side][2] is None for s in seeds)
    print(f"{side}: {failed[side]} failed passes, {died} runs died")
EOF
