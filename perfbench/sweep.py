"""Run the benchmark over many seeds, optionally on several checkouts in turn.

    python3 perfbench/sweep.py --out DIR [--side NAME=CHECKOUT ...]
                               [--workloads a,b] [--seeds 1-10] [--trace 0]

Each side's result files land in DIR/NAME/results. With two sides the
order alternates from one seed to the next (A then B, then B then A), as
section 8 of the choosing-metrics method asks, so drift in the machine's
speed falls on both sides alike. Every run lasts BENCHMARK.json's
``run_seconds``, so both sides measure the same length. Compare the sides
with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--side", action="append", default=[],
                    help="NAME=CHECKOUT; default: one side 'a' on this checkout")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sides = [s.split("=", 1) for s in args.side] or [["a", ROOT]]
    failures = 0
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            order = sides if k % 2 == 0 else sides[::-1]
            for name, checkout in order:
                out = os.path.abspath(os.path.join(args.out, name))
                cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                       "--out", out]
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"{name} {workload} seed={seed}: {status} {last[0][:120]}", flush=True)
                if proc.returncode != 0:
                    failures += 1
                    sys.stderr.write(proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
