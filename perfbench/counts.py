"""Hardware-independent work counts per window, by strategy and crowd size.

    python3 perfbench/counts.py

For one synthetic window of n pedestrians, for every strategy in
STRATEGIES and every n in SIZES, it counts

* diffcore.tape_nodes_per_window: nodes a train step records (rollout plus
  loss; every primitive called under an open tape records one node);
* diffcore.ops_per_window: primitives a tape-free evaluation rollout calls;
* model.relation_updates_per_window: relationship-LSTM updates, which the
  closed form puts at 19 n (n - 1) for ``sra`` and 0 otherwise.

These counts repeat exactly, so unlike times they can be compared across
machines and gated. The traced benchmark run reports the same counts
for its workloads.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np

from sralstm import model, pipeline
from sralstm.data import TrajectoryWindow

import spans

STRATEGIES = ("none", "sa", "ra", "sra")
SIZES = (2, 4, 8, 16, 32)

def window(n: int) -> TrajectoryWindow:
    rng = np.random.default_rng(n)
    steps = rng.normal(0.0, 0.3, size=(n, 20, 2))
    positions = np.cumsum(steps, axis=1) + rng.uniform(-5.0, 5.0, size=(n, 1, 2))
    return TrajectoryWindow("counts", 0, list(range(n)), positions, 8, 12)


def counts(strategy: str, n: int) -> dict:
    params = model.ModelParams.init(model.ModelConfig(strategy=strategy), seed=0)
    win = window(n)
    rec = spans.Recorder()
    rec.install()
    try:
        result = pipeline.rollout(params, win)
        rollout_ops = rec.ops
        pipeline.l2_loss(result, pipeline.window_truth_nabs(win))
    finally:
        rec.uninstall()
    return {"strategy": strategy, "n": n,
            "diffcore.tape_nodes_per_window": rec.ops,
            "diffcore.ops_per_window": rollout_ops,
            "model.relation_updates_per_window": rec.site_calls["sralstm.model.relation_step"]}


def main() -> int:
    rows = [counts(s, n) for s in STRATEGIES for n in SIZES]
    keys = ["diffcore.tape_nodes_per_window", "diffcore.ops_per_window",
            "model.relation_updates_per_window"]
    print(f"{'strategy':8s} {'n':>3s} " + " ".join(f"{k:>34s}" for k in keys))
    for r in rows:
        print(f"{r['strategy']:8s} {r['n']:3d} " + " ".join(f"{r[k]:34d}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
