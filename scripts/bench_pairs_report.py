"""Judges the runs `scripts/bench_pairs.sh` collected.

    python3 scripts/bench_pairs_report.py <runs.jsonl>

Run from the repository root (it reads BENCHMARK.json). Prints one table per
workload (and seed), as described in bench_pairs.sh, then exits 1 when any
workload and metric reads `regression` or the change has more failed ops or
checks than the parent on any workload, and 0 otherwise.
"""
import json
import sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(xs)

    def at(p):
        h = (len(xs) - 1) * p
        lo = int(h)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)

    return at(0.25), at(0.5), at(0.75)


def table(title, runs):
    """Prints one workload's table.

    Returns {metric: direction of the change's median} and the list of
    reasons this table fails the change (empty when it does not)."""
    sides = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    for r in runs:
        res = r["result"]
        failed[r["side"]] += res["failed"] + (0 if res["correct"] else 1)
        for name, m in res["metrics"].items():
            sides[r["side"]].setdefault(name, {})[r["pair"]] = m["value"]
    n = len(sides["parent"][spec["end_to_end"][0]["name"]])
    print(f"\n## {title}: {n} pairs, failed ops or checks parent {failed['parent']} / change {failed['change']}")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | pairs won (change : parent) | beyond parent IQR | vs bound |")
    print("|---|---|---|---|---|---|---|")
    directions = {}
    failures = []
    if failed["change"] > failed["parent"]:
        failures.append(f"{title}: more failed ops or checks than the parent")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p, c = sides["parent"][name], sides["change"][name]
        pq, cq = quartiles(p.values()), quartiles(c.values())
        won_c = sum(1 for k in p if (c[k] < p[k] if lower else c[k] > p[k]))
        won_p = sum(1 for k in p if (c[k] > p[k] if lower else c[k] < p[k]))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        beyond = abs(cq[1] - pq[1]) > pq[2] - pq[0]
        direction = "same" if cq[1] == pq[1] else (
            "better" if (cq[1] < pq[1]) == lower else "worse")
        directions[name] = direction
        # The bound is a share of the parent's median, as `benchmark aa` reads it.
        worse = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1] if pq[1] else 0.0
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
        all_better = (max(c.values()) < min(p.values()) if lower
                      else min(c.values()) > max(p.values()))
        if spread > m["bound"] and not all_better:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "regression"
            failures.append(f"{title}: `{name}` regression")
        else:
            verdict = "within bound"
        print(f"| `{name}` ({m['unit']}) | {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
              f"| {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] | {ratio:.4f} "
              f"| {won_c} : {won_p} | {'yes' if beyond else 'no'} ({direction}) "
              f"| {verdict} (worse by {100 * worse:+.2f} %, bound {100 * m['bound']:g} %) |")
    return directions, failures


seeds = list(dict.fromkeys(r["seed"] for r in runs))
workloads = list(dict.fromkeys(r["workload"] for r in runs))
across = {}  # (workload, metric) -> the change's direction on each seed
failures = []
for seed in seeds:
    for workload in workloads:
        title = workload if len(seeds) == 1 else f"{workload}, seed {seed}"
        of = [r for r in runs if r["workload"] == workload and r["seed"] == seed]
        directions, failed = table(title, of)
        failures += failed
        for name, direction in directions.items():
            across.setdefault((workload, name), []).append(direction)

if len(seeds) > 1:
    print(f"\n## Across seeds {', '.join(map(str, seeds))}: seeds on which the change's median was better / worse / the same")
    print("| workload | metric | better | worse | same |")
    print("|---|---|---|---|---|")
    for (workload, name), ds in across.items():
        print(f"| {workload} | `{name}` | {ds.count('better')} | {ds.count('worse')} | {ds.count('same')} |")

for failure in failures:
    print(f"bench_pairs: {failure}", file=sys.stderr)
sys.exit(1 if failures else 0)
