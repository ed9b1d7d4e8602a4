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

Within one step the required order is: a pair's relation update comes
before that pair's attention score, which reads the fresh relation state;
scores and social contexts read the previous step's motion states; the
motion updates and offset predictions run last. ``pipeline.scene_step``
drives that sequence; the functions here are the individual pieces.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


# Trainable scalars per model: 128 MiB per float64 copy (params, grads and
# two Adam moments), about 250 times the paper's model.
MAX_PARAMS = 2**24


class UnknownPedestrianError(KeyError):
    """A pedestrian or pair id is not tracked by the scene state."""


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
        # one observed frame would make every observed input offset the
        # anchor itself, so the motion LSTM would never see observed motion
        for name, least in (("embed_dim", 1), ("hidden_dim", 1), ("obs_len", 2), ("pred_len", 1)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        count = param_count(self)
        if count > MAX_PARAMS:
            raise ValueError(f"the model would have {count} parameters; "
                             f"the bound is {MAX_PARAMS}")

    @property
    def window_len(self) -> int:
        return self.obs_len + self.pred_len

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["strategy"] = self.strategy.value
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModelConfig":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown model config keys: {sorted(extra)}")
        return cls(**dict(d))


def param_table(config: ModelConfig) -> list:
    """Every trainable tensor of a configuration as a (name, shape, fan_in)
    row, in init order, which is also the checkpoint order.

    Weights and biases draw from U(-k, k) with k = 1/sqrt(fan_in); a bias
    shares its weight's fan-in, since an exactly zero bias would park ReLU
    units on their kink at the anchor frame. Strategy-independent rows come
    first, so two models built from the same seed share them exactly no
    matter which attention strategy each uses.
    """
    e, h = config.embed_dim, config.hidden_dim

    def embedding(w, b):
        """A 2-d displacement embedded to e dims."""
        return [(w, (e, 2), 2), (b, (e, 1), 2)]

    def lstm(cell, in_dim):
        """Four gates (input, forget, candidate, output) over [x; h]."""
        fan_in = in_dim + h
        return ([(f"{cell}_w{g}", (h, fan_in), fan_in) for g in "ifgo"]
                + [(f"{cell}_b{g}", (h, 1), fan_in) for g in "ifgo"])

    scorer = {
        AttentionStrategy.NONE: [],
        AttentionStrategy.SA: [("w_sa", (1, 2 * h), 2 * h)],
        AttentionStrategy.RA: [("w_ra", (1, e + 2 * h), e + 2 * h)]
                              + embedding("w_rae", "b_rae"),
        AttentionStrategy.SRA: [("w_at", (1, 3 * h), 3 * h)],
    }[config.strategy]
    return (embedding("w_re", "b_re") + lstm("rel", e) + embedding("w_e", "b_e")
            + lstm("motion", e + h) + [("w_p", (2, h), h), ("b_p", (2, 1), h)]
            + scorer)


def param_count(config: ModelConfig) -> int:
    """Trainable scalars of a configuration."""
    return sum(math.prod(shape) for _, shape, _ in param_table(config))


@dataclass
class ModelParams:
    """A configuration plus its trainable tensors, keyed and ordered as in
    ``param_table``."""

    config: ModelConfig
    named: "OrderedDict[str, Tensor]"

    def __getitem__(self, name: str) -> Tensor:
        return self.named[name]

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        named = OrderedDict()
        for name, shape, fan_in in param_table(config):
            k = 1.0 / np.sqrt(fan_in)
            named[name] = Tensor(rng.uniform(-k, k, size=shape))
        return cls(config, named)

    def tensors(self) -> "OrderedDict[str, Tensor]":
        """The named parameter tensors, in table order."""
        return self.named


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


def embed_relative(params: ModelParams, pos_i, pos_j, name: str = "re") -> Tensor:
    """Embed the displacement from pedestrian i to pedestrian j with the
    tensor pair ``w_<name>``/``b_<name>``: ``"re"`` feeds the relationship
    encoder, ``"rae"`` the RA scorer.

    Depends only on the displacement, so translating the whole scene leaves
    the result unchanged.
    """
    disp = dc.sub(_as_col2(pos_j), _as_col2(pos_i))
    return dc.relu(_affine(params["w_" + name], disp, params["b_" + name]))


def _lstm_step(params: ModelParams, cell: str, hs: dict, cs: dict, key, inputs):
    """One step of the LSTM with gate tensors ``<cell>_w*``/``<cell>_b*`` over
    ``[*inputs; hs[key]]``; writes the new (h, c) to ``hs``/``cs`` and returns it."""
    if key not in hs:
        raise UnknownPedestrianError(key)
    xh = dc.concat([*inputs, hs[key]], axis=0)
    i = dc.sigmoid(_affine(params[cell + "_wi"], xh, params[cell + "_bi"]))
    f = dc.sigmoid(_affine(params[cell + "_wf"], xh, params[cell + "_bf"]))
    g = dc.tanh(_affine(params[cell + "_wg"], xh, params[cell + "_bg"]))
    o = dc.sigmoid(_affine(params[cell + "_wo"], xh, params[cell + "_bo"]))
    c = dc.add(dc.mul(f, cs[key]), dc.mul(i, g))
    h = dc.mul(o, dc.tanh(c))
    hs[key], cs[key] = h, c
    return h, c


def relation_step(params: ModelParams, state: SceneState, pair, e_ij: Tensor):
    """Advance the relationship encoder for one ordered pair; returns (r, cr)."""
    return _lstm_step(params, "rel", state.r, state.cr, pair, [e_ij])


def attention_logits(params: ModelParams, strategy: AttentionStrategy,
                     r_ij: Tensor, h_i: Tensor, h_j: Tensor,
                     e_rel: Optional[Tensor] = None) -> Tensor:
    """Unnormalized attention score for neighbor j of pedestrian i."""
    if strategy is AttentionStrategy.SRA:
        return dc.matmul(params["w_at"], dc.concat([r_ij, h_i, h_j], axis=0))
    if strategy is AttentionStrategy.SA:
        return dc.matmul(params["w_sa"], dc.concat([h_i, h_j], axis=0))
    if strategy is AttentionStrategy.RA:
        if e_rel is None:
            raise ValueError("RA attention needs the embedded relative position")
        return dc.matmul(params["w_ra"], dc.concat([e_rel, h_i, h_j], axis=0))
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
    return dc.relu(_affine(params["w_e"], _as_col2(nabs), params["b_e"]))


def motion_step(params: ModelParams, state: SceneState, ped,
                e_i: Tensor, context: Tensor):
    """Advance one pedestrian's motion LSTM; returns (h, c)."""
    return _lstm_step(params, "motion", state.h, state.c, ped, [e_i, context])


def predict_offset(params: ModelParams, h: Tensor) -> Tensor:
    """Project a motion state to the next-step anchored offset."""
    return _affine(params["w_p"], h, params["b_p"])


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
