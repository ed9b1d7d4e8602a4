"""Window rollout, training loop, and checkpoint persistence.

A rollout runs the recurrence over one window: during the observation
phase every input is ground truth, and from the first prediction step on
the model consumes its own decoded predictions, both for a pedestrian's
own offsets and for the displacements between pedestrians. Predictions
emitted during the observation phase are by-products and are never
consumed or scored. A rollout reads only the observation frames, so it
runs the same on a window with or without future truth; the callers that
score against the future (``train_step``, ``evalkit.evaluate``) check
that the window carries it. Every pedestrian of the window takes part in
every step, in the canonical order of ``SceneState``.

Checkpoint byte layout (version 1, all integers little-endian):

    offset 0   8 bytes   magic b"SRALCKPT"
    offset 8   u32       format version
    offset 12  u32       header length N
    offset 16  N bytes   UTF-8 JSON header
    then, for each entry of header["arrays"] in order, the raw row-major
    float64 little-endian payload (8 * prod(shape) bytes), and nothing
    after the last array.

The JSON header holds the model config, user metadata, the array
directory [{"name", "shape"}, ...], and optionally the Adam state (its
moment arrays appear in the directory as "adam.m.<name>"/"adam.v.<name>").
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from . import model as md
from .data import DataError, TrajectoryWindow, rotate_window
from .diffcore import Tensor
from .model import AttentionStrategy, ModelConfig, ModelParams, SceneState

CLIP_NORM = 10.0


@dataclass
class RolloutResult:
    ped_ids: list
    predicted_abs: dict           # ped -> (pred_len, 2) absolute positions
    attention: Optional[list]     # per step: ped -> (neighbor ids, weights)
    predictions: Tensor           # (P * pred_len * 2, 1) offsets: ped, step, x/y


def scene_step(params: ModelParams, state: SceneState, nabs: Mapping,
               abs_pos: Mapping, record_attention: bool = False):
    """Advance every pedestrian of the scene state by one time step.

    nabs and abs_pos map each pedestrian to a (2, 1) tensor. Each neighbor
    j of pedestrian i is handled in one place: under ``sra`` the pair's
    relation state updates and then scores it; under ``ra`` the embedded
    displacement scores it. Scores and social contexts read the motion
    states of the previous step; motion updates and offset predictions run
    last. Returns (predictions, attention) dicts keyed by pedestrian.
    """
    strategy = params.config.strategy
    peds = state.ped_ids
    for p in peds:
        if p not in nabs or p not in abs_pos:
            raise md.UnknownPedestrianError(p)
    contexts = {}
    attention = {} if record_attention else None
    for i in peds:
        neigh = state.neighbors(i)
        weights = None
        if strategy is not AttentionStrategy.NONE and neigh:
            logits = []
            for j in neigh:
                r_ij = e_rel = None
                if strategy is AttentionStrategy.SRA:
                    e_ij = md.embed_relative(params, abs_pos[i], abs_pos[j])
                    r_ij, _ = md.relation_step(params, state, (i, j), e_ij)
                elif strategy is AttentionStrategy.RA:
                    e_rel = md.embed_relative(params, abs_pos[i], abs_pos[j], "rae")
                logits.append(md.attention_logits(
                    params, strategy, r_ij, state.h[i], state.h[j], e_rel))
            weights = md.attention_weights(logits)
            if record_attention:
                attention[i] = (list(neigh), weights.values.reshape(-1).copy())
        contexts[i] = md.social_context(state, i, weights, strategy)
    predictions = {}
    for i in peds:
        e_i = md.embed_position(params, nabs[i])
        md.motion_step(params, state, i, e_i, contexts[i])
        predictions[i] = md.predict_offset(params, state.h[i])
    return predictions, attention


def rollout(params: ModelParams, window: TrajectoryWindow,
            record_attention: bool = False) -> RolloutResult:
    """Run the recurrence over one window and decode predictions.

    Gradients flow through the whole prediction phase when a tape is open,
    including through the fed-back positions.
    """
    cfg = params.config
    if not window.ped_ids:
        raise DataError("rollout needs at least one pedestrian")
    if window.obs_len != cfg.obs_len:
        raise DataError(
            f"window observation length {window.obs_len} != model's {cfg.obs_len}")
    if window.n_frames < cfg.obs_len:
        raise DataError(
            f"window has {window.n_frames} frames; a rollout needs {cfg.obs_len}")
    state = SceneState.initial(window.ped_ids, cfg.hidden_dim)
    peds = state.ped_ids
    track = window.positions[[window.index_of(p) for p in peds], :cfg.obs_len]
    anchors = track[:, -1]
    anchor_tensors = [Tensor(a.reshape(2, 1)) for a in anchors]
    steps = []
    trace = [] if record_attention else None
    for t in range(cfg.window_len - 1):
        if t < cfg.obs_len:
            cur_nabs = {p: Tensor((track[k, t] - anchors[k]).reshape(2, 1))
                        for k, p in enumerate(peds)}
            cur_abs = {p: Tensor(track[k, t].reshape(2, 1)) for k, p in enumerate(peds)}
        try:
            predictions, attention = scene_step(
                params, state, cur_nabs, cur_abs, record_attention)
        except dc.NonFiniteError as e:
            raise dc.NonFiniteError(f"rollout step {t}: {e}") from e
        if record_attention:
            trace.append(attention)
        if t + 1 >= cfg.obs_len:
            steps.append(predictions)
            cur_nabs = predictions
            if t + 2 < cfg.window_len:  # the last prediction feeds no step
                cur_abs = {p: dc.add(predictions[p], anchor_tensors[k])
                           for k, p in enumerate(peds)}
    stacked = dc.concat([step[p] for p in peds for step in steps], axis=0)
    offsets = stacked.values.reshape(len(peds), cfg.pred_len, 2)
    predicted_abs = {p: md.nabs_decode(offsets[k], anchors[k]) for k, p in enumerate(peds)}
    return RolloutResult(ped_ids=peds, predicted_abs=predicted_abs,
                         attention=trace, predictions=stacked)


def window_truth_nabs(window: TrajectoryWindow) -> dict:
    """Ground-truth prediction-phase offsets, anchored like the rollout's."""
    if window.pred_len == 0 or window.n_frames != window.obs_len + window.pred_len:
        raise DataError("window carries no prediction-phase truth")
    out = {}
    for p in window.ped_ids:
        track = window.track(p)
        out[p] = md.nabs_encode(track, window.anchor_index)[window.obs_len:]
    return out


def l2_loss(result: RolloutResult, truth_nabs: Mapping) -> Tensor:
    """Mean squared Euclidean distance between predicted and true offsets,
    averaged over pedestrians and prediction steps."""
    peds = result.ped_ids
    if set(peds) != set(truth_nabs):
        raise ValueError("loss: prediction and truth pedestrian sets differ")
    truth = np.stack([np.asarray(truth_nabs[p], dtype=np.float64) for p in peds])
    want = (len(peds), result.predictions.shape[0] // (2 * len(peds)), 2)
    if truth.shape != want:
        raise ValueError(f"loss: truth has shape {truth.shape}, expected {want}")
    d = dc.sub(result.predictions, Tensor(truth.reshape(-1, 1)))
    return dc.scale(dc.sum_all(dc.mul(d, d)), 1.0 / (want[0] * want[1]))


def train_step(params: ModelParams, opt: dc.AdamState, window: TrajectoryWindow,
               clip_norm: float = CLIP_NORM) -> float:
    """One optimization step on one window; returns the loss value."""
    named = params.tensors()
    truth = window_truth_nabs(window)
    with dc.Tape() as tape:
        loss = l2_loss(rollout(params, window), truth)
        # inside the block, so the tape is freed while the GC is paused
        dc.backward(tape, loss)
    tensors = list(named.values())
    for t in tensors:
        # parameters outside the active strategy's graph get zero gradient
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
    dc.clip_grad_norm(tensors, clip_norm)
    dc.adam_step(named, opt)
    dc.zero_grads(tensors)
    return loss.item()


def train_epoch(params: ModelParams, opt: dc.AdamState,
                windows: Sequence[TrajectoryWindow], rng: np.random.Generator,
                clip_norm: float = CLIP_NORM, augment: bool = True) -> float:
    """One pass over the windows in a seeded shuffled order.

    Each window is one mini-batch: rotated about the origin by a fresh
    uniform angle (when augmenting), rolled out, scored, and stepped.
    Returns the mean loss over the epoch.
    """
    if len(windows) == 0:
        raise DataError("training epoch over zero windows")
    order = rng.permutation(len(windows))
    losses = []
    for idx in order:
        w = windows[int(idx)]
        if augment:
            w = rotate_window(w, float(rng.uniform(0.0, 2.0 * math.pi)))
        losses.append(train_step(params, opt, w, clip_norm))
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"SRALCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file cannot be used."""


class CheckpointCorruptError(CheckpointError):
    """Bad magic, malformed header, or truncated/oversized payload."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: "OrderedDict[str, np.ndarray]"
    optimizer: Optional[dict]     # lr/beta1/beta2/eps/step plus m/v arrays
    metadata: dict

    def to_params(self, config: Optional[ModelConfig] = None) -> ModelParams:
        """Materialize params, validating shapes against a config.

        Passing a config other than the stored one raises a shape (or
        naming) error identifying the first offending tensor.
        """
        return ModelParams.from_arrays(config or self.config, self.params)

    def to_optimizer(self, params: ModelParams) -> dc.AdamState:
        if self.optimizer is None:
            raise CheckpointError("checkpoint carries no optimizer state")
        o = self.optimizer
        state = dc.AdamState(params.tensors(), lr=o["lr"], beta1=o["beta1"],
                             beta2=o["beta2"], eps=o["eps"])
        state.step = int(o["step"])
        for name in state.m:
            if name not in o["m"]:
                raise CheckpointError(f"optimizer state missing moments for {name!r}")
            state.m[name] = o["m"][name].copy()
            state.v[name] = o["v"][name].copy()
        return state


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(path, params: ModelParams, optimizer: Optional[dc.AdamState] = None,
                    metadata: Optional[dict] = None) -> None:
    """Serialize params (and optionally Adam state) using the documented
    byte layout. The write is atomic."""
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, t in params.tensors().items():
        arrays[name] = t.values
    opt_header = None
    if optimizer is not None:
        opt_header = {"lr": optimizer.lr, "beta1": optimizer.beta1,
                      "beta2": optimizer.beta2, "eps": optimizer.eps,
                      "step": optimizer.step}
        for name in params.tensors():
            arrays[f"adam.m.{name}"] = optimizer.m[name]
            arrays[f"adam.v.{name}"] = optimizer.v[name]
    header = {
        "config": params.config.to_dict(),
        "metadata": metadata or {},
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
        "optimizer": opt_header,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes))
    blob += header_bytes
    for arr in arrays.values():
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file fully before returning; a bad file raises a
    typed error and mutates nothing."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(blob) < 16 or blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"{path} is not a checkpoint (bad magic)")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path} has format version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    if len(blob) < 16 + header_len:
        raise CheckpointCorruptError(f"{path} is truncated inside the header")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointCorruptError(f"{path} has a malformed header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointCorruptError(f"{path} has a non-object header")
    for key in ("config", "metadata", "arrays"):
        if key not in header:
            raise CheckpointCorruptError(f"{path} header lacks {key!r}")
    if not isinstance(header["metadata"], dict):
        raise CheckpointCorruptError(f"{path} has non-object metadata")
    if not isinstance(header["arrays"], list):
        raise CheckpointCorruptError(f"{path} has a non-list array directory")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointCorruptError(f"{path} has an invalid config: {e}") from e
    with_optimizer = header.get("optimizer") is not None
    optimizer = _optimizer_header(path, header["optimizer"]) if with_optimizer else None
    directory = OrderedDict()
    for entry in header["arrays"]:
        name, shape = _directory_entry(path, entry)
        if name in directory:
            raise CheckpointCorruptError(f"{path} names array {name!r} twice")
        directory[name] = shape
    expected = _expected_arrays(config, with_optimizer)
    for name in [*directory, *(n for n in expected if n not in directory)]:
        found, needed = directory.get(name), expected.get(name)
        if found != needed:
            raise CheckpointCorruptError(
                f"{path} array {name!r}: found {'none' if found is None else found}, "
                f"its config needs {'none' if needed is None else needed}")
    offset = 16 + header_len
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape in directory.items():
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > len(blob):
            raise CheckpointCorruptError(f"{path} is truncated inside array {name!r}")
        flat = np.frombuffer(blob, dtype="<f8", count=nbytes // 8, offset=offset)
        if not np.all(np.isfinite(flat)):
            raise CheckpointCorruptError(f"{path} has non-finite values in array {name!r}")
        arrays[name] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointCorruptError(f"{path} has {len(blob) - offset} trailing bytes")
    params = OrderedDict(
        (n, a) for n, a in arrays.items() if not n.startswith("adam."))
    if with_optimizer:
        optimizer["m"] = {n[len("adam.m."):]: a for n, a in arrays.items()
                          if n.startswith("adam.m.")}
        optimizer["v"] = {n[len("adam.v."):]: a for n, a in arrays.items()
                          if n.startswith("adam.v.")}
    return Checkpoint(config=config, params=params, optimizer=optimizer,
                      metadata=dict(header["metadata"]))


def _expected_arrays(config: ModelConfig, with_optimizer: bool) -> dict:
    """Name -> shape of every array a checkpoint of this config holds."""
    table = {name: shape for name, shape, _ in md.param_table(config)}
    expected = dict(table)
    if with_optimizer:
        for prefix in ("adam.m.", "adam.v."):
            expected.update((prefix + name, shape) for name, shape in table.items())
    return expected


def _directory_entry(path, entry) -> tuple:
    """(name, shape) of one array directory entry, or CheckpointCorruptError."""
    if not isinstance(entry, dict):
        raise CheckpointCorruptError(f"{path} has a non-object array entry {entry!r}")
    name, shape = entry.get("name"), entry.get("shape")
    if not isinstance(name, str):
        raise CheckpointCorruptError(f"{path} has an array entry without a name: {entry!r}")
    if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise CheckpointCorruptError(f"{path} array {name!r} has a malformed shape {shape!r}")
    return name, tuple(shape)


def _optimizer_header(path, opt) -> dict:
    """A copy of the optimizer header's scalars, or CheckpointCorruptError."""
    if not isinstance(opt, dict):
        raise CheckpointCorruptError(f"{path} has a non-object optimizer header")
    for key in ("lr", "beta1", "beta2", "eps"):
        value = opt.get(key)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise CheckpointCorruptError(
                f"{path} optimizer {key!r} is not a finite number: {value!r}")
    step = opt.get("step")
    if not (isinstance(step, int) and not isinstance(step, bool) and step >= 0):
        raise CheckpointCorruptError(
            f"{path} optimizer 'step' is not a non-negative integer: {step!r}")
    return dict(opt)
