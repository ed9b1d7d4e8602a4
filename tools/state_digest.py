"""Print a digest of the training state one checkout computes.

    python3 tools/state_digest.py CHECKOUT_ROOT

Imports ``CHECKOUT_ROOT/src``, builds its own seeded random-walk windows
and, for each case in CASES (a strategy and a crowd size), trains a fresh
default-size model for EPOCHS epochs with augmentation and then evaluates
it. It prints one JSON line: ``sha256``, a SHA-256 over every case's
parameters, Adam moments and per-window eval displacements, and
``losses``, each case's epoch losses as ``repr`` strings.

Run it on two checkouts, for example a parent commit exported with
``git archive`` and a change, and compare the lines: an equal ``sha256``
means the change computes the same bits. Losses may differ in the last
places when only a summation order moved. BLAS threading can change the
bits of a product, so run both sides under the same environment.
"""

import hashlib
import json
import os
import sys

CASES = ([(s, n) for s in ("none", "sa", "ra") for n in (1, 2, 3)]
         + [("sra", n) for n in (1, 2, 3, 5, 8)])
EPOCHS = 2
WINDOWS = 2
SEED = 0


def main(argv) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: state_digest.py CHECKOUT_ROOT", file=sys.stderr)
        return 1
    src = os.path.join(os.path.abspath(argv[0]), "src")
    sys.path.insert(0, src)
    import numpy as np
    import sralstm
    from sralstm import diffcore as dc
    from sralstm import evalkit, model, pipeline
    from sralstm.data import TrajectoryWindow

    if not os.path.abspath(sralstm.__file__).startswith(src + os.sep):
        print(f"error: imported sralstm from {sralstm.__file__}", file=sys.stderr)
        return 1

    def windows(n: int, seed: int) -> list:
        rng = np.random.default_rng(seed)
        out = []
        for k in range(WINDOWS):
            steps = rng.normal(0.0, 0.35, size=(n, 20, 2))
            positions = np.cumsum(steps, axis=1) + rng.uniform(-3.0, 3.0, size=(n, 1, 2))
            out.append(TrajectoryWindow(f"digest-{seed}", k, list(range(n)),
                                        positions, 8, 12))
        return out

    digest = hashlib.sha256()
    losses = {}
    for case, (strategy, n) in enumerate(CASES):
        params = model.ModelParams.init(model.ModelConfig(strategy=strategy), seed=SEED)
        opt = dc.AdamState(params.tensors())
        wins = windows(n, seed=100 + case)
        rng = np.random.default_rng(case)
        losses[f"{strategy}-{n}"] = [
            repr(pipeline.train_epoch(params, opt, wins, rng)) for _ in range(EPOCHS)]
        for name, t in params.tensors().items():
            digest.update(name.encode())
            for arr in (t.values, opt.m[name], opt.v[name]):
                digest.update(arr.tobytes())
        for record in evalkit.evaluate(params, wins).windows:
            digest.update(record.displacements.tobytes())
    print(json.dumps({"sha256": digest.hexdigest(), "losses": losses}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
