"""Single-time-step model operations.

The predictor couples three pieces, each advanced once per time step:

  * a relationship encoder: an LSTM over the embedded displacement between
    every ordered pair of pedestrians in the window;
  * social attention: per pedestrian, a softmax over its neighbors scoring
    how much each neighbor's motion state should influence it, followed by
    a weighted sum of neighbor hidden states (the social context);
  * a motion LSTM per pedestrian, fed the embedded anchored offset of its
    own position concatenated with the social context, projected to the
    next-step offset prediction.

Positions fed to the motion LSTM are anchored offsets ("Nabs"): coordinates
relative to the pedestrian's position at the last observed frame. The
relationship encoder sees plain displacements between absolute positions.

Within one step the required order is: all relation updates, then attention
and social context (which read the previous step's motion states), then the
motion updates and offset predictions. ``pipeline.scene_step`` drives that
sequence; the functions here are the individual pieces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


class UnknownPedestrianError(KeyError):
    """A pedestrian or pair id is not tracked by the scene state."""


class ParamMismatchError(ValueError):
    """Named parameter arrays do not fit this configuration."""


class ShapeMismatchForTensor(ParamMismatchError):
    """A named parameter tensor has the wrong shape for this configuration."""


class AttentionStrategy(Enum):
    """How neighbor attention scores are produced.

    NONE disables social context entirely; SA scores from the two motion
    states; RA scores from the embedded relative position plus the motion
    states; SRA scores from the relationship-encoder state plus the motion
    states.
    """

    NONE = "none"
    SA = "sa"
    RA = "ra"
    SRA = "sra"

    @classmethod
    def parse(cls, text: str) -> "AttentionStrategy":
        try:
            return cls(str(text).lower())
        except ValueError:
            options = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown attention strategy {text!r} (options: {options})") from None


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    strategy: AttentionStrategy = AttentionStrategy.SRA
    obs_len: int = 8
    pred_len: int = 12

    def __post_init__(self):
        if not isinstance(self.strategy, AttentionStrategy):
            object.__setattr__(self, "strategy", AttentionStrategy.parse(self.strategy))
        for name in ("embed_dim", "hidden_dim", "obs_len", "pred_len"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @property
    def window_len(self) -> int:
        return self.obs_len + self.pred_len

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "strategy": self.strategy.value,
            "obs_len": self.obs_len,
            "pred_len": self.pred_len,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModelConfig":
        known = {"embed_dim", "hidden_dim", "strategy", "obs_len", "pred_len"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown model config keys: {sorted(extra)}")
        return cls(**dict(d))


@dataclass
class LstmGates:
    """Per-gate weights of one LSTM cell over [x; h] inputs."""

    wi: Tensor
    wf: Tensor
    wg: Tensor
    wo: Tensor
    bi: Tensor
    bf: Tensor
    bg: Tensor
    bo: Tensor


def _gate_names(prefix: str):
    return [f"{prefix}_{g}" for g in ("wi", "wf", "wg", "wo", "bi", "bf", "bg", "bo")]


@dataclass
class ModelParams:
    """All trainable tensors for one configuration.

    Strategy-independent tensors are initialized first and in a fixed
    order, so two models built from the same seed share them exactly no
    matter which attention strategy each uses.
    """

    config: ModelConfig
    w_re: Tensor
    b_re: Tensor
    rel: LstmGates
    w_e: Tensor
    b_e: Tensor
    motion: LstmGates
    w_p: Tensor
    b_p: Tensor
    w_at: Optional[Tensor] = None
    w_sa: Optional[Tensor] = None
    w_ra: Optional[Tensor] = None
    w_rae: Optional[Tensor] = None
    b_rae: Optional[Tensor] = None

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        e, h = config.embed_dim, config.hidden_dim

        def uniform(rows, cols, fan_in):
            k = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.uniform(-k, k, size=(rows, cols)))

        # biases draw from the same fan-in range as their weights; an exactly
        # zero bias would park ReLU units on their kink at the anchor frame
        def gates(in_dim):
            ws = [uniform(h, in_dim + h, in_dim + h) for _ in range(4)]
            bs = [uniform(h, 1, in_dim + h) for _ in range(4)]
            return LstmGates(*ws, *bs)

        w_re, b_re = uniform(e, 2, 2), uniform(e, 1, 2)
        rel = gates(e)
        w_e, b_e = uniform(e, 2, 2), uniform(e, 1, 2)
        motion = gates(e + h)
        w_p, b_p = uniform(2, h, h), uniform(2, 1, h)
        params = cls(config, w_re, b_re, rel, w_e, b_e, motion, w_p, b_p)
        s = config.strategy
        if s is AttentionStrategy.SRA:
            params.w_at = uniform(1, 3 * h, 3 * h)
        elif s is AttentionStrategy.SA:
            params.w_sa = uniform(1, 2 * h, 2 * h)
        elif s is AttentionStrategy.RA:
            params.w_ra = uniform(1, e + 2 * h, e + 2 * h)
            params.w_rae = uniform(e, 2, 2)
            params.b_rae = uniform(e, 1, 2)
        return params

    def tensors(self) -> "OrderedDict[str, Tensor]":
        """Canonically named parameter tensors, in a stable order."""
        out: OrderedDict[str, Tensor] = OrderedDict()
        out["w_re"] = self.w_re
        out["b_re"] = self.b_re
        for name, t in zip(_gate_names("rel"), _gate_list(self.rel)):
            out[name] = t
        out["w_e"] = self.w_e
        out["b_e"] = self.b_e
        for name, t in zip(_gate_names("motion"), _gate_list(self.motion)):
            out[name] = t
        out["w_p"] = self.w_p
        out["b_p"] = self.b_p
        for name in ("w_at", "w_sa", "w_ra", "w_rae", "b_rae"):
            t = getattr(self, name)
            if t is not None:
                out[name] = t
        return out

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> "ModelParams":
        """Rebuild params from named arrays, validating shape and coverage."""
        template = cls.init(config, seed=0)
        expected = template.tensors()
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise ParamMismatchError(f"parameter arrays missing: {missing}")
        extra = sorted(set(arrays) - set(expected))
        if extra:
            raise ParamMismatchError(f"unexpected parameter arrays: {extra}")
        for name, t in expected.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ShapeMismatchForTensor(
                    f"tensor {name!r}: checkpoint shape {arr.shape} != expected {t.shape}"
                )
            t.values = arr.copy()
            t.grad = None
        return template


def _gate_list(g: LstmGates):
    return [g.wi, g.wf, g.wg, g.wo, g.bi, g.bf, g.bg, g.bo]


def param_count(config: ModelConfig) -> int:
    """Closed-form count of trainable scalars for a configuration."""
    e, h = config.embed_dim, config.hidden_dim

    def lstm(in_dim):
        return 4 * (h * (in_dim + h) + h)

    embed = e * 2 + e
    total = embed + lstm(e) + embed + lstm(e + h) + (2 * h + 2)
    s = config.strategy
    if s is AttentionStrategy.SRA:
        total += 3 * h
    elif s is AttentionStrategy.SA:
        total += 2 * h
    elif s is AttentionStrategy.RA:
        total += (e + 2 * h) + embed
    return total


# ---------------------------------------------------------------------------
# scene state

@dataclass
class SceneState:
    """Recurrent state for one window: per-pedestrian motion LSTM states and
    per-ordered-pair relationship encoder states, all zero at the start.

    The roster is fixed: a window holds only pedestrians tracked through
    its whole span, so every state exists from the first step. ``ped_ids`` is
    sorted once here, and every loop and reduction follows that canonical
    order, so listing the pedestrians in another order cannot change a
    result bit.
    """

    ped_ids: list
    hidden_dim: int
    h: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)
    r: dict = field(default_factory=dict)
    cr: dict = field(default_factory=dict)

    @classmethod
    def initial(cls, ped_ids: Sequence, hidden_dim: int) -> "SceneState":
        ids = sorted(ped_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pedestrian ids in scene state")
        state = cls(ped_ids=ids, hidden_dim=hidden_dim)
        for i in ids:
            state.h[i] = Tensor.zeros((hidden_dim, 1))
            state.c[i] = Tensor.zeros((hidden_dim, 1))
            for j in ids:
                if j != i:
                    state.r[(i, j)] = Tensor.zeros((hidden_dim, 1))
                    state.cr[(i, j)] = Tensor.zeros((hidden_dim, 1))
        return state

    def neighbors(self, ped) -> list:
        """Every pedestrian other than ped, in canonical order."""
        if ped not in self.h:
            raise UnknownPedestrianError(ped)
        return [j for j in self.ped_ids if j != ped]


# ---------------------------------------------------------------------------
# single-step operations

def _as_col2(pos) -> Tensor:
    if isinstance(pos, Tensor):
        if pos.shape != (2, 1):
            raise dc.ShapeMismatchError(f"position tensor must be (2, 1), got {pos.shape}")
        return pos
    arr = np.asarray(pos, dtype=np.float64).reshape(-1)
    if arr.size != 2:
        raise dc.ShapeMismatchError(f"position must have 2 components, got {arr.size}")
    return Tensor(arr.reshape(2, 1))


def _affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    return dc.add(dc.matmul(w, x), b)


def embed_relative(params: ModelParams, pos_i, pos_j) -> Tensor:
    """Embed the displacement from pedestrian i to pedestrian j.

    Depends only on the displacement, so translating the whole scene leaves
    the result unchanged.
    """
    disp = dc.sub(_as_col2(pos_j), _as_col2(pos_i))
    return dc.relu(_affine(params.w_re, disp, params.b_re))


def ra_relative_embedding(params: ModelParams, pos_i, pos_j) -> Tensor:
    """The RA strategy's dedicated displacement embedding."""
    if params.w_rae is None:
        raise ValueError("params carry no RA relative embedding")
    disp = dc.sub(_as_col2(pos_j), _as_col2(pos_i))
    return dc.relu(_affine(params.w_rae, disp, params.b_rae))


def _lstm_cell(gates: LstmGates, x: Tensor, h: Tensor, c: Tensor):
    xh = dc.concat([x, h], axis=0)
    i = dc.sigmoid(_affine(gates.wi, xh, gates.bi))
    f = dc.sigmoid(_affine(gates.wf, xh, gates.bf))
    g = dc.tanh(_affine(gates.wg, xh, gates.bg))
    o = dc.sigmoid(_affine(gates.wo, xh, gates.bo))
    c_new = dc.add(dc.mul(f, c), dc.mul(i, g))
    h_new = dc.mul(o, dc.tanh(c_new))
    return h_new, c_new


def relation_step(params: ModelParams, state: SceneState, pair, e_ij: Tensor):
    """Advance the relationship encoder for one ordered pair; returns (r, cr)."""
    if pair not in state.r:
        raise UnknownPedestrianError(pair)
    r, cr = _lstm_cell(params.rel, e_ij, state.r[pair], state.cr[pair])
    state.r[pair] = r
    state.cr[pair] = cr
    return r, cr


def attention_logits(params: ModelParams, strategy: AttentionStrategy,
                     r_ij: Tensor, h_i: Tensor, h_j: Tensor,
                     e_rel: Optional[Tensor] = None) -> Tensor:
    """Unnormalized attention score for neighbor j of pedestrian i."""
    if strategy is AttentionStrategy.SRA:
        return dc.matmul(params.w_at, dc.concat([r_ij, h_i, h_j], axis=0))
    if strategy is AttentionStrategy.SA:
        return dc.matmul(params.w_sa, dc.concat([h_i, h_j], axis=0))
    if strategy is AttentionStrategy.RA:
        if e_rel is None:
            raise ValueError("RA attention needs the embedded relative position")
        return dc.matmul(params.w_ra, dc.concat([e_rel, h_i, h_j], axis=0))
    raise ValueError(f"strategy {strategy.value!r} scores no neighbors")


def attention_weights(logits: Sequence[Tensor]) -> Tensor:
    """Normalize per-neighbor logits into weights that sum to one."""
    if len(logits) == 0:
        raise dc.EmptyNeighborSetError("no neighbor logits to normalize")
    vec = dc.concat(list(logits), axis=0)
    return dc.masked_softmax(vec, np.ones(vec.size, dtype=bool))


def social_context(state: SceneState, ped, weights: Optional[Tensor],
                   strategy: AttentionStrategy) -> Tensor:
    """Attention-weighted sum of neighbor motion states (zeros if none)."""
    neigh = state.neighbors(ped)
    if strategy is AttentionStrategy.NONE or not neigh:
        return Tensor.zeros((state.hidden_dim, 1))
    if weights is None:
        raise ValueError(f"attention weights required: {ped!r} has neighbors")
    if weights.size != len(neigh):
        raise dc.ShapeMismatchError(
            f"{weights.size} weights for {len(neigh)} neighbors of {ped!r}"
        )
    columns = dc.concat([state.h[j] for j in neigh], axis=1)
    return dc.weighted_sum(weights, columns)


def embed_position(params: ModelParams, nabs: Tensor) -> Tensor:
    """Embed a pedestrian's anchored offset for the motion LSTM."""
    return dc.relu(_affine(params.w_e, _as_col2(nabs), params.b_e))


def motion_step(params: ModelParams, state: SceneState, ped,
                e_i: Tensor, context: Tensor):
    """Advance one pedestrian's motion LSTM; returns (h, c)."""
    if ped not in state.h:
        raise UnknownPedestrianError(ped)
    x = dc.concat([e_i, context], axis=0)
    h, c = _lstm_cell(params.motion, x, state.h[ped], state.c[ped])
    state.h[ped] = h
    state.c[ped] = c
    return h, c


def predict_offset(params: ModelParams, h: Tensor) -> Tensor:
    """Project a motion state to the next-step anchored offset."""
    return _affine(params.w_p, h, params.b_p)


# ---------------------------------------------------------------------------
# anchored-offset coordinates

def nabs_encode(track: np.ndarray, anchor_index: int) -> np.ndarray:
    """Express a (T, 2) track relative to its position at anchor_index."""
    track = np.asarray(track, dtype=np.float64)
    if track.ndim != 2 or track.shape[1] != 2:
        raise ValueError(f"track must be (T, 2), got {track.shape}")
    if not 0 <= anchor_index < track.shape[0]:
        raise IndexError(f"anchor index {anchor_index} outside track of length {track.shape[0]}")
    return track - track[anchor_index]


def nabs_decode(offsets: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Inverse of nabs_encode given the anchor position."""
    offsets = np.asarray(offsets, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64).reshape(2)
    return offsets + anchor
