"""A plain-numpy forward pass of the default ``sra`` model.

It shares no code with ``sralstm``: pedestrians and ordered pairs are
matrix rows, and each LSTM is four matrix products per step. The benchmark
checks the program's rollouts against it, so a change that speeds the
program up by computing something else is counted as failed.
"""

from __future__ import annotations

import numpy as np

GATES = ("wi", "wf", "wg", "wo")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(w: dict, prefix: str, x, h, c):
    xh = np.concatenate([x, h], axis=1)
    pre = [xh @ w[f"{prefix}_{g}"].T + w[f"{prefix}_b{g[1]}"].T for g in GATES]
    i, f, o = _sigmoid(pre[0]), _sigmoid(pre[1]), _sigmoid(pre[3])
    c = f * c + i * np.tanh(pre[2])
    return o * np.tanh(c), c


def sra_forward(w: dict, positions: np.ndarray, obs_len: int = 8) -> np.ndarray:
    """Predicted absolute positions, (n, pred_len, 2), for one window.

    ``w`` maps parameter names to arrays as ``ModelParams.tensors()`` names
    them; ``positions`` is the window's (n, obs_len + pred_len, 2) array.
    The observation phase reads ground truth and the prediction phase feeds
    back the model's own offsets, as ``pipeline.rollout`` does.
    """
    n, total, _ = positions.shape
    hid = w["w_p"].shape[1]
    anchor = positions[:, obs_len - 1]
    src, dst = np.nonzero(~np.eye(n, dtype=bool))       # ordered pairs i != j
    r = np.zeros((len(src), hid))
    cr = np.zeros((len(src), hid))
    h = np.zeros((n, hid))
    c = np.zeros((n, hid))
    a_r, a_i, a_j = np.split(w["w_at"].reshape(-1), 3)
    cur = positions[:, 0]
    preds = []
    for t in range(total - 1):
        if n > 1:
            e = np.maximum((cur[dst] - cur[src]) @ w["w_re"].T + w["b_re"].T, 0.0)
            r, cr = _lstm(w, "rel", e, r, cr)
            logits = np.full((n, n), -np.inf)
            logits[src, dst] = r @ a_r + h[src] @ a_i + h[dst] @ a_j
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            context = weights @ h
        else:
            context = np.zeros((n, hid))
        e_pos = np.maximum((cur - anchor) @ w["w_e"].T + w["b_e"].T, 0.0)
        h, c = _lstm(w, "motion", np.concatenate([e_pos, context], axis=1), h, c)
        offset = h @ w["w_p"].T + w["b_p"].T
        if t + 1 < obs_len:
            cur = positions[:, t + 1]
        else:
            preds.append(offset + anchor)
            cur = offset + anchor
    return np.stack(preds, axis=1)


def displacements(w: dict, positions: np.ndarray, obs_len: int = 8) -> np.ndarray:
    """Per-pedestrian, per-step Euclidean errors, (n, pred_len)."""
    pred = sra_forward(w, positions, obs_len)
    return np.linalg.norm(pred - positions[:, obs_len:], axis=-1)
