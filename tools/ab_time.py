"""Time two checkouts against each other in one process.

    python3 tools/ab_time.py A B [--n N[,N ...]] [--windows K] [--mode eval|train]
                             [--reps R] [--strategy none|sa|ra|sra]

Imports ``A/src/sralstm`` and ``B/src/sralstm`` under distinct package
names, builds K (default 1) seeded random-walk windows of each listed
crowd size N and a fresh default-size model (seed 0) of the given
attention strategy (default ``sra``) for each side, and then alternates
the sides call by call, the order flipping each repetition: one
tape-free ``evalkit.evaluate`` call over all the windows (``--mode
eval``), or one ``train_step`` with Adam on the first window of each
listed size, in the listed order (``--mode train``). A list such as
``--n 2,2,2,2,2,2,2,2,4,4`` times a mix of crowd sizes, as a training
epoch over mixed windows meets them. Each side makes one untimed warm-up
call first. It prints one line per side with its best and median call
time, then the ratios A/B, and writes and asserts nothing.

Timings of separate processes swing widely on a shared host; alternating
in one process puts the same drift on both sides, so the ratio is stable.
BLAS is pinned to one thread, as in the benchmark, unless the environment
already sets ``OPENBLAS_NUM_THREADS``.
"""

import argparse
import importlib
import importlib.util
import itertools
import os
import statistics
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def load(root: str, name: str) -> dict:
    """Import ``root/src/sralstm`` as package ``name``; returns its modules."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "sralstm")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no sralstm package at {pkg_dir}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("data", "diffcore", "evalkit", "model", "pipeline")}


def make_call(mods: dict, positions: list, mode: str, strategy: str):
    """positions holds one (K, N, 20, 2) array per listed size: K windows
    of N pedestrians."""
    md = mods["model"]
    starts = itertools.count(0, 20)
    groups = [[mods["data"].TrajectoryWindow("ab", next(starts), list(range(p.shape[0])),
                                             p.copy(), 8, 12)
               for p in group] for group in positions]
    params = md.ModelParams.init(md.ModelConfig(strategy=strategy), seed=0)
    if mode == "eval":
        windows = [w for group in groups for w in group]
        return lambda: mods["evalkit"].evaluate(params, windows)
    opt = mods["diffcore"].AdamState(params.tensors())
    train_step = mods["pipeline"].train_step

    def call():
        for group in groups:
            train_step(params, opt, group[0])
    return call


def crowd_sizes(text: str) -> list:
    """``--n``: one crowd size, or a comma list of them."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", metavar="A", help="checkout root of side A")
    ap.add_argument("b", metavar="B", help="checkout root of side B")
    ap.add_argument("--n", type=crowd_sizes, default=[8],
                    help="pedestrians per window, or a comma list of crowd sizes")
    ap.add_argument("--windows", type=int, default=1,
                    help="windows one eval call scores")
    ap.add_argument("--mode", choices=("eval", "train"), default="eval")
    ap.add_argument("--reps", type=int, default=20, help="timed calls per side")
    ap.add_argument("--strategy", choices=("none", "sa", "ra", "sra"), default="sra",
                    help="attention strategy of both sides' models")
    args = ap.parse_args(argv)
    if min(args.n) < 1 or args.windows < 1 or args.reps < 1:
        ap.error("--n, --windows and --reps must be at least 1")

    rng = np.random.default_rng(0)
    positions = []
    for n in args.n:
        steps = rng.normal(0.0, 0.35, size=(args.windows, n, 20, 2))
        positions.append(np.cumsum(steps, axis=2)
                         + rng.uniform(-3.0, 3.0, size=(args.windows, n, 1, 2)))
    sides = [(label, root, make_call(load(root, name), positions, args.mode, args.strategy))
             for label, root, name in (("A", args.a, "ab_side_a"), ("B", args.b, "ab_side_b"))]
    times = {label: [] for label, _, _ in sides}
    for _, _, call in sides:
        call()
    for rep in range(args.reps):
        for label, _, call in (sides if rep % 2 == 0 else sides[::-1]):
            t0 = perf_counter()
            call()
            times[label].append(perf_counter() - t0)

    best = {k: min(v) for k, v in times.items()}
    median = {k: statistics.median(v) for k, v in times.items()}
    sizes = ",".join(map(str, args.n))
    for label, root, _ in sides:
        print(f"{label} best {1e3 * best[label]:.3f} ms  median {1e3 * median[label]:.3f} ms"
              f"  ({args.mode}, {args.strategy}, n={sizes}, windows={args.windows}, "
              f"reps={args.reps}, "
              f"{os.path.abspath(root)})")
    print(f"A/B best {best['A'] / best['B']:.3f}  median {median['A'] / median['B']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
