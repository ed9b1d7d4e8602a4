"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (directly or under
``results/``). Runs are paired by workload, trace mode and seed. For each
workload and metric the report gives both sides' median and quartiles, the
share of pairs the new side wins (ties count for neither side), and a
verdict, following section 8 of the choosing-metrics method:

* improved: the new side wins at least 9 of 10 pairs and its median is
  better by more than the base side's interquartile range;
* worse: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound: worse
  mirrors the improved rule);
* unresolved: either side's spread (interquartile range over median) is
  wider than the bound, unless every new run reads better than every base run;
* unchanged: none of the above.

The exit code is 1 when any metric is worse, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{(workload, trace): {seed: record}}"""
    runs = {}
    files = glob.glob(os.path.join(directory, "*.json")) + \
        glob.glob(os.path.join(directory, "results", "*.json"))
    for path in sorted(files):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        if rec.get("corrupt"):
            continue
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound) -> tuple:
    """(verdict, share of pairs won) for paired lists of values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    share = wins / len(base)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    gain = sign * (nmed - bmed)
    if share >= 0.9 and gain > bq3 - bq1:
        return "improved", share
    if bound is None:
        losses = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
        worse = losses / len(base) >= 0.9 and -gain > bq3 - bq1
        return ("worse" if worse else "unchanged"), share
    if -gain > bound * abs(bmed):
        return "worse", share
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    worse = 0
    tally = {}
    for key in sorted(set(base) & set(new)):
        seeds = sorted(set(base[key]) & set(new[key]))
        if not seeds:
            continue
        workload, trace = key
        envs = {json.dumps(side[key][s]["environment"], sort_keys=True)
                for side in (base, new) for s in seeds}
        print(f"\n== {workload} (trace {trace}), {len(seeds)} paired seeds")
        for env in sorted(envs):
            print(f"   environment: {env}")
        print(f"   {'metric':34s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}  won  verdict")
        names = base[key][seeds[0]]["metrics"]
        for name in names:
            b = [base[key][s]["metrics"][name]["value"] for s in seeds]
            n = [new[key][s]["metrics"][name]["value"] for s in seeds]
            m = spec.get(name, {"better": "lower"})
            v, share = verdict(b, n, m["better"], m.get("bound"))
            tally[v] = tally.get(v, 0) + 1
            worse += v == "worse"
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            fn = "/".join(f"{x:.4g}" for x in quartiles(n))
            print(f"   {name:34s} {fb:>30s} {fn:>30s} {share:4.0%}  {v}")
    print("\nverdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
