"""Write a BENCH_*.json file from two-sided benchmark sweeps.

    python3 tools/bench_file.py --out BENCH_N.json SWEEP_DIR [SWEEP_DIR ...]

Each SWEEP_DIR is an ``--out`` directory of ``perfbench/sweep.py`` run
with ``--side parent=PARENT_CHECKOUT --side change=CHANGE_CHECKOUT``. For
every workload and trace mode found, the file records each side's
per-seed values and quartiles of every metric, the share of pairs the
change won, and ``perfbench/compare.py``'s verdict for it. A group with
fewer than two paired seeds, such as a single traced run, reads
``unresolved`` on every metric: one pair shows no spread, so it can tell
no change from noise. Run from the root of a checkout.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import compare  # noqa: E402

SIDES = ("parent", "change")


def groups(sweep_dir: str, spec: dict) -> list:
    base = compare.load(os.path.join(sweep_dir, "parent"))
    new = compare.load(os.path.join(sweep_dir, "change"))
    out = []
    for key in sorted(set(base) & set(new)):
        seeds = sorted(set(base[key]) & set(new[key]))
        if not seeds:
            continue
        workload, trace = key
        runs = {"parent": base[key], "change": new[key]}
        metrics = {}
        for name in runs["parent"][seeds[0]]["metrics"]:
            values = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds]
                      for side in SIDES}
            m = spec.get(name, {"better": "lower"})
            verdict, share = compare.verdict(values["parent"], values["change"],
                                             m["better"], m.get("bound"))
            if len(seeds) < 2:
                verdict = "unresolved"
            metrics[name] = {
                "unit": runs["parent"][seeds[0]]["metrics"][name]["unit"],
                "better": m["better"],
                "bound": m.get("bound"),
                **{side: {"q1_median_q3": list(compare.quartiles(values[side])),
                          "values": values[side]} for side in SIDES},
                "change_won_share": share,
                "verdict": verdict,
            }
        out.append({
            "workload": workload,
            "trace": trace,
            "seeds": seeds,
            "failed": {side: [runs[side][s]["failed"] for s in seeds] for side in SIDES},
            "environment": runs["change"][seeds[0]]["environment"],
            "metrics": metrics,
        })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("sweeps", nargs="+")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    result = {"run_seconds": bench["run_seconds"], "sides": list(SIDES),
              "groups": [g for d in args.sweeps for g in groups(d, spec)]}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
