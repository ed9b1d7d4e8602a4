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
every step, in the canonical order of ``SceneState``. Several windows of
one crowd size can roll out as one stacked scene, each pedestrian's
neighbors still those of its own window; ``evalkit.evaluate`` does so.

Checkpoint byte layout (version 1, all integers little-endian):

    offset 0   8 bytes   magic b"SRALCKPT"
    offset 8   u32       format version
    offset 12  u32       header length N, at most MAX_HEADER_BYTES
    offset 16  N bytes   UTF-8 JSON header, an object: its first byte is "{"
    then, for each entry of header["arrays"] in order, the raw row-major
    float64 little-endian payload (8 * prod(shape) bytes), and nothing
    after the last array.

The JSON header holds the model config, user metadata, the array
directory [{"name", "shape"}, ...], and optionally the Adam scalars. The
directory must equal the one the stored config implies (``_directory``):
the parameter table in order, then, with Adam state, each parameter's
"adam.m.<name>" and "adam.v.<name>" moments.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import stat
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
from .diffcore import Constant, Tensor
from .model import AttentionStrategy, ModelConfig, ModelParams, SceneState

CLIP_NORM = 10.0


@dataclass
class RolloutResult:
    """What ``rollout`` computed. A pedestrian is keyed by its id, or, in a
    rollout over a sequence of windows, by ``(window index, id)``."""

    ped_ids: list                 # keys in canonical order
    predicted_abs: dict           # key -> (pred_len, 2) absolute positions
    attention: Optional[list]     # per step: key -> (neighbor keys, weights)
    predictions: Tensor           # (2 * pred_len, P) offsets: column per key, rows step, x/y


def scene_step(params: ModelParams, state: SceneState, nabs, abs_pos,
               record_attention: bool = False, predict: bool = True):
    """Advance every pedestrian of the scene state by one time step.

    nabs and abs_pos are (2, n) tensors, one column per pedestrian in the
    canonical order, and the predicted offsets come back as one (2, n)
    tensor; or they map each pedestrian to a (2, 1) tensor, and the
    predictions come back as such a dict. abs_pos may be None when no
    pedestrian embeds displacements (``none``, ``sa`` or no neighbors).
    Each ordered pair of pedestrians (of one window, in a stack) is a
    column of the scene's pair blocks, scored on one pair feature: none
    under ``sa``, the embedded displacement under ``ra``, the relation
    state it updates under ``sra``. The pair blocks run once per step for
    the whole scene, each pair's relation memory update once per pair, and
    each pedestrian's softmax and context sum once per pedestrian, on its
    run of pair columns. Scores and social contexts read the motion states
    of the previous step; motion updates and offset predictions run last.
    Returns (predictions, attention), attention keyed by pedestrian; with
    ``predict`` false, for a step whose predictions nothing reads, the
    offsets are not formed and predictions is None.
    """
    by_ped = not isinstance(nabs, Tensor)
    if by_ped:
        nabs = _columns(state, nabs)
        abs_pos = None if abs_pos is None else _columns(state, abs_pos)
    strategy = params.config.strategy
    attention = {} if record_attention else None
    weights, h_j = [], None
    if strategy is not AttentionStrategy.NONE and state.pick:
        h_i = dc.matmul_or_constant(state.h, state.own)
        h_j = dc.matmul_or_constant(state.h, state.others)
        pair = None
        if strategy is not AttentionStrategy.SA:
            pair = md.embed_relative(params, state, abs_pos)
        if strategy is AttentionStrategy.SRA:
            gates = md.relation_gates(params, state, pair)
            pair = state.r = dc.concat(
                [md.relation_step(params, state, col, gates)[0]
                 for col in range(len(state.pick))],
                axis=1)
        if pair is None and isinstance(h_i, Constant):
            # sa scores the first step's zero motion states, constants
            # alone: each run is picked before scoring, which records no pick
            logits = [md.attention_logits(params, strategy, None,
                                          dc.matmul_or_constant(h_i, run),
                                          dc.matmul_or_constant(h_j, run))
                      for run in state.runs]
        else:
            block = md.attention_logits(params, strategy, pair, h_i, h_j)
            logits = [dc.matmul(block, run) for run in state.runs]
        weights = [md.attention_weights(x) for x in logits]
        if record_attention:
            neighbor = state.others.values.argmax(axis=0)
            for p, run, w in zip(state.ped_ids, state.runs, weights):
                attention[p] = ([state.ped_ids[j] for j in neighbor[run.lo:run.hi]],
                                w.values.reshape(-1).copy())
    context = md.social_context(state, weights, h_j, strategy)
    md.motion_step(params, state, md.embed_position(params, state, nabs), context)
    if not predict:
        return None, attention
    predictions = md.predict_offset(params, state)
    if by_ped:
        n = len(state.ped_ids)
        predictions = {p: dc.matmul(predictions, dc.ColumnRange(k, k + 1, n))
                       for k, p in enumerate(state.ped_ids)}
    return predictions, attention


def _columns(state: SceneState, by_ped: Mapping) -> Tensor:
    """One (2, n) tensor from a mapping of every pedestrian to a (2, 1)
    tensor."""
    cols = []
    for p in state.ped_ids:
        if p not in by_ped:
            raise md.UnknownPedestrianError(p)
        col = by_ped[p]
        if not isinstance(col, Tensor) or col.shape != (2, 1):
            raise dc.ShapeMismatchError(f"position of {p!r} must be a (2, 1) tensor, got {col!r}")
        cols.append(col)
    return dc.concat_or_constant(cols, axis=1)


def rollout(params: ModelParams, windows, record_attention: bool = False) -> RolloutResult:
    """Run the recurrence over one window and decode predictions.

    windows is one ``TrajectoryWindow``, whose pedestrians the result keys
    by id; or a sequence of windows of one crowd size, rolled out as one
    stacked scene (``SceneState.initial`` with ``stacked``), whose
    pedestrians it keys by ``(window index, id)``. Each window's
    predictions are those of its own rollout up to the summation order of
    the shared products.

    Gradients flow through the whole prediction phase when a tape is open,
    including through the fed-back positions. Work no prediction reads is
    skipped, so a tape records only nodes with a path to the predictions:
    the observation steps before the last form no offsets, and the
    absolute positions, observed or fed back, are formed only when some
    pedestrian embeds displacements (``ra`` and ``sra`` with neighbors).
    """
    cfg = params.config
    stacked = not isinstance(windows, TrajectoryWindow)
    windows = list(windows) if stacked else [windows]
    if not windows:
        raise DataError("rollout needs at least one window")
    for window in windows:
        if not window.ped_ids:
            raise DataError("rollout needs at least one pedestrian")
        if window.obs_len != cfg.obs_len:
            raise DataError(
                f"window observation length {window.obs_len} != model's {cfg.obs_len}")
        if window.n_frames < cfg.obs_len:
            raise DataError(
                f"window has {window.n_frames} frames; a rollout needs {cfg.obs_len}")
    if stacked:
        keys = [(i, p) for i, window in enumerate(windows) for p in window.ped_ids]
        state = SceneState.initial(keys, cfg.hidden_dim, stacked=True)
        rows = [(windows[i], p) for i, p in state.ped_ids]
    else:
        state = SceneState.initial(windows[0].ped_ids, cfg.hidden_dim)
        rows = [(windows[0], p) for p in state.ped_ids]
    peds = state.ped_ids
    track = np.stack([w.positions[w.index_of(p), :cfg.obs_len] for w, p in rows])
    anchors = track[:, -1]
    reads_positions = bool(state.pick) and cfg.strategy in (AttentionStrategy.RA,
                                                            AttentionStrategy.SRA)
    anchor_columns = Constant(anchors.T) if reads_positions else None
    cur_abs = None
    steps = []
    trace = [] if record_attention else None
    for t in range(cfg.window_len - 1):
        if t < cfg.obs_len:
            cur_nabs = Constant((track[:, t] - anchors).T)
            if reads_positions:
                cur_abs = Constant(track[:, t].T)
        try:
            predictions, attention = scene_step(
                params, state, cur_nabs, cur_abs, record_attention,
                predict=t + 1 >= cfg.obs_len)
        except dc.NonFiniteError as e:
            raise dc.NonFiniteError(f"rollout step {t}: {e}") from e
        if record_attention:
            trace.append(attention)
        if t + 1 >= cfg.obs_len:
            steps.append(predictions)
            cur_nabs = predictions
            if reads_positions and t + 2 < cfg.window_len:  # the last feeds no step
                cur_abs = dc.add(predictions, anchor_columns)
    # (2 * pred_len, n): column k holds pedestrian k's offsets, step by step
    predictions = dc.concat(steps, axis=0)
    offsets = predictions.values.reshape(cfg.pred_len, 2, len(peds))
    predicted_abs = {p: md.nabs_decode(offsets[:, :, k], anchors[k]) for k, p in enumerate(peds)}
    return RolloutResult(ped_ids=peds, predicted_abs=predicted_abs,
                         attention=trace, predictions=predictions)


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
    want = (len(peds), result.predictions.shape[0] // 2, 2)
    if truth.shape != want:
        raise ValueError(f"loss: truth has shape {truth.shape}, expected {want}")
    # laid out like the predictions: row 2s + xy, column per pedestrian
    d = dc.sub(result.predictions, Constant(truth.transpose(1, 2, 0).reshape(-1, len(peds))))
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
        # parameters no adjoint reached get zero gradient: those outside the
        # active strategy's graph, and at n = 2 those behind the softmax
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
OPTIMIZER_SCALARS = ("lr", "beta1", "beta2", "eps")
MOMENT_PREFIXES = ("adam.m.", "adam.v.")


# The largest header a checkpoint may hold. What ``train`` writes is a few
# kilobytes plus one loss per epoch (at most 25 bytes each) and the
# held-out scene name, so it stays under this bound up to some 2.5 million
# epochs; ``save_checkpoint`` refuses a larger header rather than write a
# file that would not load.
MAX_HEADER_BYTES = 2**26


class CheckpointError(ValueError):
    """A checkpoint file cannot be used."""


class CheckpointCorruptError(CheckpointError):
    """Bad magic, malformed header, or truncated/oversized payload."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported."""


class ParamMismatchError(ValueError):
    """A checkpoint's parameters do not fit the configuration asked for."""


class OutputError(OSError):
    """An output file cannot be written."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: "OrderedDict[str, np.ndarray]"
    optimizer: Optional[dict]     # lr/beta1/beta2/eps/step plus m/v arrays
    metadata: dict

    def to_params(self, config: Optional[ModelConfig] = None) -> ModelParams:
        """Wrap the stored arrays as the params of config (default: the
        stored one). Its parameter table must list the stored names and
        shapes in the same order; otherwise ParamMismatchError names the
        first tensor that differs."""
        config = config or self.config
        stored, wanted = _directory(self.config, False), _directory(config, False)
        if stored != wanted:
            raise ParamMismatchError(f"the checkpoint does not fit the model asked for: "
                                     f"{_first_difference(stored, wanted)}")
        return ModelParams(config, OrderedDict(
            (name, Tensor(a)) for name, a in self.params.items()))

    def to_optimizer(self, params: ModelParams) -> dc.AdamState:
        if self.optimizer is None:
            raise CheckpointError("checkpoint carries no optimizer state")
        o = self.optimizer
        state = dc.AdamState(params.tensors(), **{k: o[k] for k in OPTIMIZER_SCALARS})
        state.step = int(o["step"])
        for name in state.m:
            state.m[name] = o["m"][name].copy()
            state.v[name] = o["v"][name].copy()
        return state


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file. A failed write leaves no temp file and raises
    OutputError naming path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from e
    finally:
        if tmp is not None and os.path.lexists(tmp):
            os.unlink(tmp)


def open_regular(path, mode: str = "rb", **kwargs):
    """Open path for reading in mode if it is a regular file, else raise an
    OSError naming it: a FIFO could block the read, a device never end."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"not a regular file: {str(path)!r}")
        return os.fdopen(fd, mode, **kwargs)
    except BaseException:
        os.close(fd)
        raise


def unique_keys(pairs: list) -> dict:
    """An ``object_pairs_hook`` for ``json.loads`` that refuses, with a
    ValueError, a key repeated within one object instead of keeping its
    last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(path, params: ModelParams, optimizer: Optional[dc.AdamState] = None,
                    metadata: Optional[dict] = None) -> None:
    """Serialize params (and optionally Adam state) using the documented
    byte layout. The write is atomic."""
    arrays = {name: t.values for name, t in params.tensors().items()}
    opt_header = None
    if optimizer is not None:
        opt_header = {key: getattr(optimizer, key) for key in (*OPTIMIZER_SCALARS, "step")}
        for prefix, moments in zip(MOMENT_PREFIXES, (optimizer.m, optimizer.v)):
            arrays.update((prefix + name, a) for name, a in moments.items())
    directory = _directory(params.config, optimizer is not None)
    header = {
        "config": params.config.to_dict(),
        "metadata": metadata or {},
        "arrays": directory,
        "optimizer": opt_header,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise OutputError(f"cannot write {path}: its {len(header_bytes)}-byte header "
                          f"is over the bound of {MAX_HEADER_BYTES}")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes))
    blob += header_bytes
    for entry in directory:
        blob += np.ascontiguousarray(arrays[entry["name"]], dtype="<f8").tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file fully before returning; a bad file raises a
    typed error and mutates nothing. The payload is read only once the
    header checks out and the file's size is the one its directory
    implies, so a bad file costs no more memory than a good one."""
    try:
        with open_regular(path) as f:
            return _read_checkpoint(path, f, os.fstat(f.fileno()).st_size)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


def _read_checkpoint(path, f, size: int) -> Checkpoint:
    preamble = f.read(16)
    if len(preamble) < 16 or preamble[:8] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"{path} is not a checkpoint (bad magic)")
    version, header_len = struct.unpack("<II", preamble[8:16])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path} has format version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    if size < 16 + header_len:
        raise CheckpointCorruptError(f"{path} is truncated inside the header")
    if header_len > MAX_HEADER_BYTES:
        raise CheckpointCorruptError(f"{path} has a {header_len}-byte header; "
                                     f"the bound is {MAX_HEADER_BYTES}")
    # save_checkpoint writes a JSON object; anything else is refused before
    # the rest of a header of up to MAX_HEADER_BYTES is read
    first = f.read(min(header_len, 1))
    if first != b"{":
        raise CheckpointCorruptError(f"{path} has a malformed header: it does not "
                                     f"start with '{{' but with {first!r}")
    try:
        header = json.loads((first + f.read(header_len - 1)).decode("utf-8"),
                            object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:
        # ValueError: bad UTF-8, bad JSON or a repeated key; RecursionError:
        # arrays or objects nested too deeply to decode
        raise CheckpointCorruptError(f"{path} has a malformed header: {e}") from e
    for key in ("config", "metadata", "arrays"):
        if key not in header:
            raise CheckpointCorruptError(f"{path} header lacks {key!r}")
    if not isinstance(header["metadata"], dict):
        raise CheckpointCorruptError(f"{path} has non-object metadata")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointCorruptError(f"{path} has an invalid config: {e}") from e
    with_optimizer = header.get("optimizer") is not None
    optimizer = _optimizer_header(path, header["optimizer"]) if with_optimizer else None
    directory = _directory(config, with_optimizer)
    if _json_text(header["arrays"]) != _json_text(directory):
        raise CheckpointCorruptError(
            f"{path} {_first_difference(header['arrays'], directory)}")
    # each array's end offset in the file; the file must end at the last
    ends = list(itertools.accumulate((8 * math.prod(e["shape"]) for e in directory),
                                     initial=16 + header_len))[1:]
    if size > ends[-1]:
        raise CheckpointCorruptError(f"{path} has {size - ends[-1]} trailing bytes")
    if size == ends[-1]:
        payload = f.read(size - 16 - header_len)
        size = 16 + header_len + len(payload)   # short if the file shrank since fstat
    if size < ends[-1]:
        name = directory[bisect.bisect_right(ends, size)]["name"]
        raise CheckpointCorruptError(f"{path} is truncated inside array {name!r}")
    arrays = {}
    offset = 0
    for entry in directory:
        name, shape = entry["name"], entry["shape"]
        count = math.prod(shape)
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        if not np.all(np.isfinite(flat)):
            raise CheckpointCorruptError(f"{path} has non-finite values in array {name!r}")
        arrays[name] = flat.reshape(shape).astype(np.float64)
        offset += 8 * count
    names = [name for name, _, _ in md.param_table(config)]
    params = OrderedDict((name, arrays[name]) for name in names)
    if with_optimizer:
        optimizer["m"], optimizer["v"] = (
            {name: arrays[prefix + name] for name in names} for prefix in MOMENT_PREFIXES)
    return Checkpoint(config=config, params=params, optimizer=optimizer,
                      metadata=dict(header["metadata"]))


def _directory(config: ModelConfig, with_optimizer: bool) -> list:
    """Every {"name", "shape"} entry a checkpoint of this config holds, in
    file order: the parameter table, then each parameter's two Adam
    moments."""
    table = [(name, list(shape)) for name, shape, _ in md.param_table(config)]
    moments = [(prefix + name, shape) for name, shape in table
               for prefix in MOMENT_PREFIXES] if with_optimizer else []
    return [{"name": name, "shape": shape} for name, shape in table + moments]


def _first_difference(found, needed: list) -> str:
    """Where a directory differs from the needed one: the first entry whose
    JSON text differs, so a shape of [6.0, 2] or [6, true] does not pass
    for [6, 2]."""
    if not isinstance(found, list):
        return "has a non-list array directory"

    def text(entries, k):
        return _json_text(entries[k]) if k < len(entries) else "nothing"

    k = next(k for k in range(max(len(found), len(needed)))
             if text(found, k) != text(needed, k))
    return f"array entry {k}: found {text(found, k)}, its config needs {text(needed, k)}"


def _json_text(value) -> str:
    """value as sorted-keys JSON text. A value that decoded but is nested
    too deeply to encode again is no directory and reads as such."""
    try:
        return json.dumps(value, sort_keys=True)
    except RecursionError:
        return "a value nested too deeply to encode"


def _optimizer_header(path, opt) -> dict:
    """A copy of the optimizer header's scalars, or CheckpointCorruptError."""
    if not isinstance(opt, dict):
        raise CheckpointCorruptError(f"{path} has a non-object optimizer header")
    for key in OPTIMIZER_SCALARS:
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
