"""Shared test utilities: independent oracles and scene builders.

The oracles here are deliberately written from scratch with plain numpy
(straight-line code, no shared helpers from the package) so they can
disagree with the implementation if it is wrong.
"""

import json
import struct

import numpy as np

from sralstm.data import TrajectoryWindow
from sralstm.diffcore import ShapeMismatchError

REL_FLOOR = 0.01  # denominators below this are treated as this


def rel_err(a, b) -> float:
    """Worst-case relative error with a floor on the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)
    return float(np.max(np.abs(a - b) / denom))


def scaled_err(a, b) -> float:
    """Largest difference relative to the largest magnitude in ``b``.

    For arrays that only their summation order tells apart, where an
    entry near zero may lose its leading digits to cancellation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def fd_grad(evaluate, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array.

    evaluate() must recompute the scalar from the current contents of
    values; entries are perturbed in place and restored.
    """
    grad = np.zeros_like(values)
    it = np.nditer(values, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        saved = values[idx]
        values[idx] = saved + h
        plus = evaluate()
        values[idx] = saved - h
        minus = evaluate()
        values[idx] = saved
        grad[idx] = (plus - minus) / (2.0 * h)
        it.iternext()
    return grad


def fd_check(evaluate, tensor, h: float = 1e-5) -> float:
    """rel_err between tensor.grad and finite differences of evaluate()."""
    assert tensor.grad is not None, "tensor has no gradient to check"
    return rel_err(tensor.grad, fd_grad(evaluate, tensor.values, h))


# ---------------------------------------------------------------------------
# scripted re-evaluation oracles

def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def oracle_affine_relu(w, x, b):
    pre = np.asarray(w) @ np.asarray(x) + np.asarray(b)
    return np.where(pre > 0.0, pre, 0.0)


def oracle_softmax(logits):
    """Plain exp-normalize, no masking, no shift."""
    e = np.exp(np.asarray(logits, dtype=np.float64))
    return e / e.sum()


def oracle_lstm_cell(wi, wf, wg, wo, bi, bf, bg, bo, x, h, c):
    """One LSTM cell step over the stacked [x; h] input, straight numpy."""
    xh = np.concatenate([np.asarray(x), np.asarray(h)], axis=0)
    i = oracle_sigmoid(wi @ xh + bi)
    f = oracle_sigmoid(wf @ xh + bf)
    g = np.tanh(wg @ xh + bg)
    o = oracle_sigmoid(wo @ xh + bo)
    c_new = f * np.asarray(c) + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def oracle_lstm_from_gates(params, prefix, x, h, c):
    """oracle_lstm_cell over the gate tensors named ``<prefix>_wi`` ... ``<prefix>_bo``."""
    w = {name: params[f"{prefix}_{name}"].values
         for name in ("wi", "wf", "wg", "wo", "bi", "bf", "bg", "bo")}
    return oracle_lstm_cell(w["wi"], w["wf"], w["wg"], w["wo"],
                            w["bi"], w["bf"], w["bg"], w["bo"], x, h, c)


def oracle_rollout(arrays, strategy, positions, obs_len=8, pred_len=12):
    """A whole free rollout in straight numpy; returns (P, pred_len, 2)
    predicted absolute positions, rows in the order of positions.

    arrays maps parameter names to arrays; positions is (P, >= obs_len, 2).
    Observed steps read the true positions; from the last observed step on,
    each step reads the previous step's predictions. In a step, every
    pedestrian i scores each neighbor j (an sra pair first advances its
    relation LSTM on the embedded displacement j - i), a softmax of the
    scores weights the neighbors' previous motion states into the social
    context, and only then does every motion LSTM advance on the embedded
    anchored offset and the context.
    """
    w = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    hid = w["motion_bi"].shape[0]

    def relu(x):
        return np.where(x > 0.0, x, 0.0)

    def lstm(cell, x, h, c):
        xh = np.concatenate([x, h], axis=0)
        i = oracle_sigmoid(w[cell + "_wi"] @ xh + w[cell + "_bi"])
        f = oracle_sigmoid(w[cell + "_wf"] @ xh + w[cell + "_bf"])
        g = np.tanh(w[cell + "_wg"] @ xh + w[cell + "_bg"])
        o = oracle_sigmoid(w[cell + "_wo"] @ xh + w[cell + "_bo"])
        c = f * c + i * g
        return o * np.tanh(c), c

    anchor = [pos[i, obs_len - 1].reshape(2, 1) for i in range(n)]
    h = [np.zeros((hid, 1)) for _ in range(n)]
    c = [np.zeros((hid, 1)) for _ in range(n)]
    r = {(i, j): np.zeros((hid, 1)) for i in range(n) for j in range(n) if i != j}
    cr = dict(r)
    out = np.zeros((n, pred_len, 2))
    for t in range(obs_len + pred_len - 1):
        if t < obs_len:
            here = [pos[i, t].reshape(2, 1) for i in range(n)]
            offset = [here[i] - anchor[i] for i in range(n)]
        context = []
        for i in range(n):
            neigh = [j for j in range(n) if j != i]
            if strategy == "none" or not neigh:
                context.append(np.zeros((hid, 1)))
                continue
            scores = []
            for j in neigh:
                d = here[j] - here[i]
                if strategy == "sra":
                    e = relu(w["w_re"] @ d + w["b_re"])
                    r[i, j], cr[i, j] = lstm("rel", e, r[i, j], cr[i, j])
                    z = np.concatenate([r[i, j], h[i], h[j]])
                    scores.append((w["w_at"] @ z).item())
                elif strategy == "ra":
                    e = relu(w["w_rae"] @ d + w["b_rae"])
                    z = np.concatenate([e, h[i], h[j]])
                    scores.append((w["w_ra"] @ z).item())
                else:
                    scores.append((w["w_sa"] @ np.concatenate([h[i], h[j]])).item())
            a = oracle_softmax(scores)
            context.append(sum(a[k] * h[j] for k, j in enumerate(neigh)))
        pred = []
        for i in range(n):
            e = relu(w["w_e"] @ offset[i] + w["b_e"])
            h[i], c[i] = lstm("motion", np.concatenate([e, context[i]]), h[i], c[i])
            pred.append(w["w_p"] @ h[i] + w["b_p"])
        if t + 1 >= obs_len:
            offset = pred
            here = [pred[i] + anchor[i] for i in range(n)]
            for i in range(n):
                out[i, t + 1 - obs_len] = here[i].reshape(2)
    return out


# ---------------------------------------------------------------------------
# reference reverse pass

def reference_backward(tape, root) -> None:
    """The original dict-accumulating reverse pass, kept as an oracle.

    Every sum of two contributions is a fresh array and nothing is written
    in place, so ``diffcore.backward`` must match it bit for bit on the
    leaves. It reuses the tape's vjps: it checks how adjoints are
    accumulated, not the vjps. It fills every tensor's grad and leaves the
    tape as it was, so run it before ``diffcore.backward`` consumes the tape.
    """
    if root.values.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    adjoint = {id(root): np.ones_like(root.values)}
    holders = {id(root): root}
    for inputs, output, vjp in reversed(tape.nodes):
        g = adjoint.get(id(output))
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is None:
                continue
            key = id(t)
            prev = adjoint.get(key)
            adjoint[key] = gi if prev is None else prev + gi
            holders[key] = t
    for key, t in holders.items():
        g = adjoint[key]
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# checkpoint surgery

def edit_checkpoint(path, edit):
    """Rewrite a saved checkpoint after edit(header, payload) changed it."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + n])
    payload = bytearray(blob[16 + n:])
    edit(header, payload)
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:12] + struct.pack("<I", len(text)) + text + bytes(payload))


# ---------------------------------------------------------------------------
# window builders

def window_from_tracks(tracks, obs_len: int = 8, pred_len: int = 12,
                       name: str = "toy", start: int = 0) -> TrajectoryWindow:
    """Build a window directly from a list of (T, 2) arrays, ids 1..P."""
    positions = np.stack([np.asarray(t, dtype=np.float64) for t in tracks])
    assert positions.shape[1] == obs_len + pred_len
    return TrajectoryWindow(scene_name=name, start_frame=start,
                            ped_ids=list(range(1, len(tracks) + 1)),
                            positions=positions, obs_len=obs_len,
                            pred_len=pred_len)


def constant_velocity_tracks(n_peds: int, n_frames: int, seed: int = 0,
                             dt: float = 0.4):
    """Straight-line walkers with seeded random origins and velocities."""
    rng = np.random.default_rng(seed)
    tracks = []
    for _ in range(n_peds):
        origin = rng.uniform(-4.0, 4.0, size=2)
        velocity = rng.uniform(-1.5, 1.5, size=2)
        t = np.arange(n_frames)[:, None] * dt
        tracks.append(origin[None, :] + t * velocity[None, :])
    return tracks


def random_walk_window(n_peds: int, seed: int, obs_len: int = 8,
                       pred_len: int = 12) -> TrajectoryWindow:
    """Smooth random-walk tracks; enough structure for gradient checks."""
    rng = np.random.default_rng(seed)
    n = obs_len + pred_len
    tracks = []
    for _ in range(n_peds):
        steps = rng.normal(0.0, 0.35, size=(n, 2))
        track = np.cumsum(steps, axis=0) + rng.uniform(-3.0, 3.0, size=2)
        tracks.append(track)
    return window_from_tracks(tracks, obs_len, pred_len, name=f"walk-{seed}")


def raises_shape_mismatch_unless(valid: bool, call) -> None:
    """call() must return when valid and raise ShapeMismatchError when not;
    any other exception propagates and fails the caller."""
    try:
        call()
    except ShapeMismatchError:
        assert not valid, "a valid shape was refused"
    else:
        assert valid, "a wrong shape went through"
