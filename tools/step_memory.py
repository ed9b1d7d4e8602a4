"""Print the memory one train step takes, per crowd size.

    python3 tools/step_memory.py CHECKOUT [--n 2,8,12,16,32] [--strategy sra]

For each listed crowd size n it starts a fresh Python process that
imports ``CHECKOUT/src/sralstm``, takes the window of n pedestrians that
``CHECKOUT/perfbench/counts.py`` counts tape nodes on (``window(n)``), so
the memory and the node counts are of one input, builds a fresh
default-size model (seed 0) of the given attention strategy, and makes
one warm-up train step on the window of one pedestrian, which loads what
any step loads once. It then measures two train steps (rollout, loss,
backward, clip and Adam) on the n-pedestrian window: the growth of the process's peak resident set (``ru_maxrss``)
over the first, untraced, and the ``tracemalloc`` peak of the second.
Each process prints one JSON line, which this script passes on:
``n``, ``strategy``, ``pairs`` (ordered pairs, n (n - 1)),
``rss_growth_mb`` and ``traced_peak_mb``, in MB of 2**20 bytes, as the
benchmark's ``peak_rss_mb``. The allocator may keep pages, so the
growth of one step is rounded up to what the allocator asked for; the
traced peak counts only what Python and numpy allocated.

BLAS is pinned to one thread, as in the benchmark, unless the
environment already sets ``OPENBLAS_NUM_THREADS``.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

STRATEGIES = ("none", "sa", "ra", "sra")
MB = 2.0 ** 20


def sizes(text: str) -> list:
    try:
        out = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers") from None
    if any(n < 1 for n in out):
        raise argparse.ArgumentTypeError(f"crowd sizes must be at least 1, got {text!r}")
    return out


def measure(root: str, n: int, strategy: str) -> dict:
    """One size's numbers, in this process; the caller runs it in a fresh one."""
    import resource
    import tracemalloc

    root = os.path.abspath(root)
    src, bench = os.path.join(root, "src"), os.path.join(root, "perfbench")
    # counts.py puts CHECKOUT/src first on the path and imports spans.py
    # as a sibling module
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location("counts", os.path.join(bench, "counts.py"))
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    import sralstm
    from sralstm import diffcore as dc
    from sralstm import model, pipeline

    if not os.path.abspath(sralstm.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported sralstm from {sralstm.__file__}")
    window = counts.window

    params = model.ModelParams.init(model.ModelConfig(strategy=strategy), seed=0)
    opt = dc.AdamState(params.tensors())
    win = window(n)
    pipeline.train_step(params, opt, window(1))

    def maxrss() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    before = maxrss()
    pipeline.train_step(params, opt, win)
    growth = maxrss() - before
    tracemalloc.start()
    try:
        pipeline.train_step(params, opt, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"n": n, "strategy": strategy, "pairs": n * (n - 1),
            "rss_growth_mb": round(growth, 1), "traced_peak_mb": round(peak / MB, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout")
    ap.add_argument("--n", type=sizes, default=[2, 8, 12, 16, 32])
    ap.add_argument("--strategy", choices=STRATEGIES, default="sra")
    args = ap.parse_args(argv)
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); import step_memory; "
             "print(json.dumps(step_memory.measure(sys.argv[2], int(sys.argv[3]), sys.argv[4])))")
    for n in args.n:
        proc = subprocess.run(
            [sys.executable, "-c", child, HERE, args.checkout, str(n), args.strategy],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        print(proc.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
