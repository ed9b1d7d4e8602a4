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

Column layout. Inside a step a pedestrian is its column k in every
per-pedestrian matrix, in the canonical order of ``SceneState``; ids
appear only at the edges. Positions and offsets are (2, n) and the motion
state is (hidden, n), so the position embedding, the motion LSTM and the
output head each run once per step for the whole scene. A scene may
also be a stack of windows of one crowd size (``SceneState.initial``
with ``stacked``): their columns are concatenated, and each pedestrian's
neighbors are those of its own window only, so a stack of windows of s
pedestrians is one scene whose pedestrians each have s - 1 neighbors.

Every ordered pair is a column of the scene's pair blocks, N = n (s - 1)
columns in all: pedestrian k's neighbors are the contiguous run of
columns k (s - 1) .. (k + 1) (s - 1) - 1, its m-th neighbor in canonical
order at the m-th column of the run. The embedded displacements (e, N),
the relation states ``state.r`` (hidden, N), the relation gates'
activations (three (hidden, N) blocks), the repeated own and the gathered
neighbor motion states (hidden, N) and the attention logits (1, N) are
each one such block, so each of these ops runs once per step for the
whole scene. Columns move by products with constant one-hot matrices,
which are exact, since each output entry has one nonzero term (two for a
displacement):

  * ``H @ others`` gathers every pair's neighbor column, ``H @ own``
    repeats every pair's own column, and ``P @ spread``, with ``spread =
    others - own``, is exactly ``p_j - p_k`` for every pair;
  * a ``dc.ColumnRange`` picks a run of columns: ``state.pick[col]`` one
    pair's column of a gate block, ``state.runs[k]`` pedestrian k's run of
    the logits and of the neighbor states. Its product is a view of those
    columns, and ``backward`` adds the picked columns' adjoints back into
    them, so picking costs no product and no (N, N) matrix.

Only what is one pedestrian's own stays per pedestrian: the softmax over
its run of logits and the weighted sum of its run of neighbor states.
``others`` and ``own`` are ``dc.Selector`` matrices, every column one-hot,
so their products skip the finite check and keep a ``Bounded`` operand
``Bounded``; ``spread``'s differences can overflow, so it is a plain
``Constant``. Work on constants alone (observed positions, the zero
motion state of the first step) goes through ``dc.matmul_or_constant``
and ``dc.concat_or_constant``, which give a ``Constant`` and record no
tape node.

Every affine map is one product with its bias folded in, ``[W | b] @ [x;
1]``: ``SceneState.fold`` concatenates each weight with its bias once per
window, on the open tape, and the concat routes the gradients back to the
named tensors, so names and checkpoints stay as they are.

The relationship encoder does every op that does not read a cell state
once per step, on the scene's whole pair block (``relation_gates``): the
four gate products, which read only the embedded displacements and the
relation states, their activations and the product of input gate and
candidate. Only the memory update stays one ``relation_step`` call per
ordered pair and step, on that pair's (hidden, 1) column: the benchmark
in ``perfbench`` counts those calls against the closed form 19 n (n - 1)
per window.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .data import MAX_TRACK_FRAMES
from .diffcore import Constant, Selector, Tensor


# Trainable scalars per model: 128 MiB per float64 copy (params, grads and
# two Adam moments), about 250 times the paper's model.
MAX_PARAMS = 2**24


class UnknownPedestrianError(KeyError):
    """The dict form of ``pipeline.scene_step`` lacks a pedestrian of the
    roster; inside a step a pedestrian is a column and cannot be unknown."""


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
        # no gridded track holds a longer window, so such a model could
        # never be trained or scored
        if self.window_len > MAX_TRACK_FRAMES:
            raise ValueError(f"obs_len + pred_len is {self.window_len}; a window "
                             f"holds at most {MAX_TRACK_FRAMES} frames")
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
    """Recurrent state for one window, or a stack of windows, all zero at
    the start, plus the scene's constants.

    The motion state ``h``/``c`` is (hidden, n), column k for pedestrian
    ``ped_ids[k]``. The relation states are one (hidden, N) block ``r``,
    a column per ordered pair in the layout of the module docstring, since
    they enter the scene's gate products; the relation cell states, which
    enter only a pair's own memory update, are N (hidden, 1) columns
    ``cr[col]``. The roster is fixed: a window holds only pedestrians
    tracked through its whole span, so every state exists from the first
    step. ``ped_ids`` is sorted once here, and every column and every loop
    follows that canonical order, so listing the pedestrians in another
    order cannot change a result bit.

    The constants are the one-hot matrices of the module docstring, built
    here (``others`` and ``own`` as ``Selector``, ``pick`` and ``runs`` as
    ``ColumnRange``), and the folded weights, built by ``fold`` on first
    use. ``len(pick)`` is N, zero for lone pedestrians.
    """

    ped_ids: list
    h: Tensor
    c: Tensor
    r: Tensor             # (hidden, N) relation states, a column per ordered pair
    cr: list              # N (hidden, 1) relation cell states
    others: Tensor        # (n, N): pair column k, m picks k's m-th neighbor
    own: Tensor           # (n, N): pair column k, m picks k
    spread: Tensor        # others - own
    pick: list            # N ColumnRange: pair column col of an (·, N) block
    runs: list            # n ColumnRange: pedestrian k's run of pair columns
    ones: Tensor          # (1, n)
    ones_pairs: Tensor    # (1, N)
    folded: dict = field(default_factory=dict, repr=False)
    folded_for: Optional[ModelParams] = field(default=None, repr=False)

    @classmethod
    def initial(cls, ped_ids: Sequence, hidden_dim: int, stacked: bool = False) -> "SceneState":
        """The zero state of one window's pedestrians, all neighbors of one
        another; or, ``stacked``, of several windows at once: each id is
        then a ``(window, id)`` pair, as ``pipeline.rollout`` keys them, and
        a pedestrian's neighbors are the others of its window. The windows
        must hold one number of pedestrians, so every run has one width.
        Sorted, a window's columns are contiguous, and a stack of one window
        gets the constants of the plain state exactly."""
        ids = sorted(ped_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pedestrian ids in scene state")
        n = size = len(ids)
        if stacked:
            sizes = {len(list(g)) for _, g in itertools.groupby(ids, key=lambda p: p[0])}
            if len(sizes) > 1:
                raise ValueError(f"stacked windows hold {sorted(sizes)} pedestrians; "
                                 f"a stack needs one number")
            size = sizes.pop() if sizes else 0
        width = max(size - 1, 0)
        pairs = n * width
        # pair column k * width + m: pedestrian k, the i-th of its window,
        # toward the m-th other pedestrian of that window (k, m and i are
        # empty when there are no pairs)
        k = np.repeat(np.arange(n), width)
        m = np.tile(np.arange(width), n)
        i = k % size if width else k
        j = k - i + m + (m >= i)
        others, own = np.zeros((n, pairs)), np.zeros((n, pairs))
        others[j, np.arange(pairs)] = 1.0
        own[k, np.arange(pairs)] = 1.0
        zeros = Constant.zeros
        return cls(
            ped_ids=ids, h=zeros((hidden_dim, n)), c=zeros((hidden_dim, n)),
            r=zeros((hidden_dim, pairs)), cr=[zeros((hidden_dim, 1)) for _ in range(pairs)],
            others=Selector(others), own=Selector(own), spread=Constant(others - own),
            pick=[dc.ColumnRange(col, col + 1, pairs) for col in range(pairs)],
            runs=[dc.ColumnRange(q * width, (q + 1) * width, pairs) for q in range(n)],
            ones=Constant(np.ones((1, n))), ones_pairs=Constant(np.ones((1, pairs))))

    def fold(self, params: ModelParams, name: str):
        """params' weight of the affine map ``name`` ("re", "rae", "e" or
        "p") with its bias as the last column, ``[W | b]``; for an LSTM
        ("rel" or "motion"), that of each gate, in the order i, f, g, o.
        Each is built on first use, so on the tape open then."""
        if self.folded_for is not params:
            self.folded_for, self.folded = params, {}
        w = self.folded.get(name)
        if w is None:
            if name in ("rel", "motion"):
                w = tuple(dc.concat([params[f"{name}_w{g}"], params[f"{name}_b{g}"]], axis=1)
                          for g in "ifgo")
            else:
                w = dc.concat([params["w_" + name], params["b_" + name]], axis=1)
            self.folded[name] = w
        return w


# ---------------------------------------------------------------------------
# single-step operations


def embed_relative(params: ModelParams, state: SceneState, positions: Tensor) -> Tensor:
    """Embed the displacement of every ordered pair, from the pedestrian
    toward its neighbor, with ``w_rae``/``b_rae`` under ``ra`` and
    ``w_re``/``b_re`` otherwise. positions is (2, n); the result is (e, N),
    a column per pair.

    ``positions @ spread`` is exactly ``p_j - p_k``, so translating the
    whole scene leaves the result unchanged, bit for bit.
    """
    name = "rae" if params.config.strategy is AttentionStrategy.RA else "re"
    disp = dc.matmul_or_constant(positions, state.spread)
    return dc.relu(dc.matmul(state.fold(params, name),
                             dc.concat_or_constant([disp, state.ones_pairs], axis=0)))


def _gate_products(gates, inputs, h: Tensor, ones: Tensor) -> list:
    """The four gate pre-activations (i, f, g, o) of an LSTM with folded
    gate weights over ``[*inputs; h; 1]``, one column per sequence."""
    xh = dc.concat([*inputs, h, ones], axis=0)
    return [dc.matmul(w, xh) for w in gates]


def _lstm_cell(i: Tensor, f: Tensor, g: Tensor, o: Tensor, c: Tensor):
    """The elementwise rest of an LSTM step, on its four gate
    pre-activations; returns the new (h, c)."""
    i, f, g, o = dc.sigmoid(i), dc.sigmoid(f), dc.tanh(g), dc.sigmoid(o)
    c = dc.add(dc.mul(f, c), dc.mul(i, g))
    return dc.mul(o, dc.tanh(c)), c


def relation_gates(params: ModelParams, state: SceneState, e: Tensor) -> tuple:
    """The activated gates of every relation cell of the scene, from the
    (e, N) embedded displacements of this step and the relation states of
    the last: the forget gate f, the input gate times the candidate, i*g,
    and the output gate o, three ``Bounded`` (hidden, N) blocks, a column
    per ordered pair. None of them reads a cell state, so each op runs
    once on the whole block."""
    i, f, g, o = _gate_products(state.fold(params, "rel"), [e], state.r, state.ones_pairs)
    return dc.sigmoid(f), dc.mul(dc.sigmoid(i), dc.tanh(g)), dc.sigmoid(o)


def relation_step(params: ModelParams, state: SceneState, col: int, gates):
    """Advance the relationship encoder of the ordered pair of column col,
    on that column of the blocks ``relation_gates`` formed this step. Only
    the memory update runs here, ``c = f*c + i*g`` and ``r = o*tanh(c)``.
    Returns (r, cr) and keeps cr; ``pipeline.scene_step`` keeps the block
    of the new r columns."""
    f, ig, o = gates
    pick = state.pick[col]
    f, ig, o = dc.matmul(f, pick), dc.matmul(ig, pick), dc.matmul(o, pick)
    c = state.cr[col] = dc.add(dc.mul(f, state.cr[col]), ig)
    return dc.mul(o, dc.tanh(c)), c


def attention_logits(params: ModelParams, strategy: AttentionStrategy,
                     pair: Optional[Tensor], h_i: Tensor, h_j: Tensor) -> Tensor:
    """Unnormalized attention scores of pedestrians i for neighbors j, as a
    (1, k) row for k ordered pairs (i, j). Each argument holds one column
    per pair: ``pair`` the pair feature, which ``sa`` ignores, ``h_i`` i's
    motion state, ``h_j`` the neighbor's. Every scorer is linear, so its
    block on ``h_i`` (``w_at`` columns h..2h, ``w_sa`` 0..h, ``w_ra``
    e..e+h) adds the same term to each of i's logits, which the softmax
    cancels: that block moves no prediction beyond rounding."""
    if strategy is AttentionStrategy.SA:
        return dc.matmul(params["w_sa"], dc.concat_or_constant([h_i, h_j], axis=0))
    if strategy is AttentionStrategy.NONE:
        raise ValueError(f"strategy {strategy.value!r} scores no neighbors")
    if pair is None:
        raise ValueError(f"{strategy.value!r} attention needs its pair feature")
    w = params["w_at" if strategy is AttentionStrategy.SRA else "w_ra"]
    return dc.matmul(w, dc.concat([pair, h_i, h_j], axis=0))


def attention_weights(logits: Tensor) -> Tensor:
    """Normalize one pedestrian's logits over its neighbors into weights
    that sum to one. An empty set raises ``dc.EmptyNeighborSetError``."""
    return dc.masked_softmax(logits)


def social_context(state: SceneState, weights: Sequence, neighbors: Optional[Tensor],
                   strategy: AttentionStrategy) -> Tensor:
    """The (hidden, n) social contexts: column k weighs pedestrian k's run
    of the (hidden, N) neighbor motion states ``neighbors`` by
    ``weights[k]`` and sums them. Zeros under NONE and for lone
    pedestrians."""
    n = len(state.ped_ids)
    if strategy is AttentionStrategy.NONE or not state.pick:
        return Constant.zeros(state.h.shape)
    if len(weights) != n or any(w is None for w in weights):
        raise ValueError(f"attention weights required: each of the {n} pedestrians "
                         f"has neighbors")
    return dc.concat([dc.weighted_sum(w, dc.matmul_or_constant(neighbors, run))
                      for w, run in zip(weights, state.runs)], axis=1)


def embed_position(params: ModelParams, state: SceneState, nabs: Tensor) -> Tensor:
    """Embed the (2, n) anchored offsets for the motion LSTM: (e, n)."""
    return dc.relu(dc.matmul(state.fold(params, "e"),
                             dc.concat_or_constant([nabs, state.ones], axis=0)))


def motion_step(params: ModelParams, state: SceneState, e: Tensor, context: Tensor):
    """Advance every pedestrian's motion LSTM on its embedded offset and
    social context; returns the new (h, c)."""
    gates = _gate_products(state.fold(params, "motion"), [e, context], state.h, state.ones)
    state.h, state.c = _lstm_cell(*gates, state.c)
    return state.h, state.c


def predict_offset(params: ModelParams, state: SceneState) -> Tensor:
    """Project the motion states to the next-step anchored offsets: (2, n)."""
    return dc.matmul(state.fold(params, "p"), dc.concat([state.h, state.ones], axis=0))


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
