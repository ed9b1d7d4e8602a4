"""Print a digest of the training state one checkout computes.

    python3 tools/state_digest.py CHECKOUT_ROOT

Imports ``CHECKOUT_ROOT/src``, builds its own seeded random-walk windows
and, for each case in CASES (a strategy and a crowd size), trains a fresh
default-size model for EPOCHS epochs with augmentation and then evaluates
it. It also saves each case's checkpoint with Adam state and loads it
back. It prints one JSON line: ``sha256``, a SHA-256 over every case's
parameters, Adam moments, per-window eval displacements, checkpoint
bytes, and the parameters and moments the loaded checkpoint gives back;
``parts``, one SHA-256 over each of these four kinds across the cases
(``trained``, ``eval``, ``checkpoint``, ``reloaded``), which names the
kind that moved when ``sha256`` does; and ``losses``, each case's epoch
losses as ``repr`` strings.

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
import tempfile

# sa and ra at 5 pedestrians put runs of 4 neighbors under every scorer;
# sra at 12 gathers 2N = 264 motion-state columns a step, so their factor
# pairs cross CONTRACT_BLOCK
CASES = ([(s, n) for s in ("none", "sa", "ra") for n in (1, 2, 3)]
         + [("sra", n) for n in (1, 2, 3, 5, 8)] + [("sa", 5), ("ra", 5), ("sra", 12)])
EPOCHS = 2
WINDOWS = 2
SEED = 0
PARTS = ("trained", "eval", "checkpoint", "reloaded")


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
    parts = {part: hashlib.sha256() for part in PARTS}
    losses = {}

    def add(part, data: bytes):
        digest.update(data)
        parts[part].update(data)

    def add_state(part, params, opt):
        for name, t in params.tensors().items():
            add(part, name.encode())
            for arr in (t.values, opt.m[name], opt.v[name]):
                add(part, arr.tobytes())

    with tempfile.TemporaryDirectory() as work:
        ckpt_path = os.path.join(work, "case.ckpt")
        for case, (strategy, n) in enumerate(CASES):
            params = model.ModelParams.init(model.ModelConfig(strategy=strategy), seed=SEED)
            opt = dc.AdamState(params.tensors())
            wins = windows(n, seed=100 + case)
            rng = np.random.default_rng(case)
            losses[f"{strategy}-{n}"] = [
                repr(pipeline.train_epoch(params, opt, wins, rng)) for _ in range(EPOCHS)]
            add_state("trained", params, opt)
            for record in evalkit.evaluate(params, wins).windows:
                add("eval", record.displacements.tobytes())
            pipeline.save_checkpoint(ckpt_path, params, opt, {"case": case})
            with open(ckpt_path, "rb") as f:
                add("checkpoint", f.read())
            ckpt = pipeline.load_checkpoint(ckpt_path)
            loaded = ckpt.to_params()
            add_state("reloaded", loaded, ckpt.to_optimizer(loaded))
    print(json.dumps({"sha256": digest.hexdigest(), "losses": losses,
                      "parts": {part: h.hexdigest() for part, h in parts.items()}},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
