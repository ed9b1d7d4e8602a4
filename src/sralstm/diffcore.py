"""Reverse-mode autodiff core and Adam optimizer.

Everything downstream (relationship encoder, attention, motion LSTM, loss)
is composed from the primitives in this module, so training needs no
hand-derived gradients anywhere else.

Conventions:
  * all values are float64 numpy arrays, row-major;
  * binary entrywise ops require identical shapes (no broadcasting);
  * vectors are column matrices of shape (n, 1) unless noted;
  * ops record onto the active ``Tape`` when one is open, and compute
    plain forward values otherwise.
  * an op whose output is not finite raises ``NonFiniteError``; numpy may
    warn about the overflow first, unless the caller silences it with
    ``np.errstate`` (the command line does).

A train step records tens of thousands of nodes on small column vectors,
so per-node Python overhead, not arithmetic, sets the speed. The tape is
kept lean accordingly:
  * a node is a plain ``(inputs, output, vjp)`` tuple;
  * a primitive builds its vjp closure only while a tape is open, so a
    tape-free forward pass allocates no closures;
  * ``backward`` empties its tape, freeing each node and its output's
    adjoint as it replays it, and fills the grads of leaves only. It owns
    only the adjoints it allocates itself (the sum of two contributions)
    and adds later contributions into those in place. It never writes an
    array a vjp returned: that may be the incoming adjoint itself
    (``add``), a view of it (``concat``) or the root's seed of ones;
  * an open ``Tape`` pauses the cyclic garbage collector and restores its
    previous state on exit. Nodes form no reference cycles, so a
    collection while recording would only re-walk the growing tape.
"""

from __future__ import annotations

import gc
from typing import Iterable, Mapping, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(ArithmeticError):
    """A value became NaN or infinite."""


class EmptyNeighborSetError(ValueError):
    """masked_softmax was asked to normalize over an empty neighbor set."""


class MissingGradientError(RuntimeError):
    """An optimizer step touched a parameter whose grad slot is empty."""


class Tensor:
    """A float64 array plus an additively-accumulated gradient slot."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed from non-finite values")
        self.values = arr
        self.grad = None

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return _fresh(np.zeros(shape, dtype=np.float64))

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeMismatchError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)})"


def _fresh(arr: np.ndarray) -> Tensor:
    """Wrap an op output without copying; outputs must stay finite."""
    t = Tensor.__new__(Tensor)
    if not np.isfinite(arr).all():
        raise NonFiniteError("operation produced non-finite values")
    t.values = arr
    t.grad = None
    return t


_active_tape = None  # the open Tape, if any


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Execution order is a valid topological order, so ``backward`` replays
    the record once, in reverse, emptying it. Tapes do not nest. The cyclic
    garbage collector is paused while the tape is open.
    """

    def __init__(self):
        self.nodes: list[tuple] = []   # (inputs, output, vjp)
        self._gc_was_enabled = False

    def __enter__(self) -> "Tape":
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a tape is already active")
        _active_tape = self
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        if self._gc_was_enabled:
            gc.enable()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def _require_2d(op: str, t: Tensor) -> None:
    if t.values.ndim != 2:
        raise ShapeMismatchError(f"{op} needs 2-D operands, got shape {t.shape}")


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# primitives
#
# Each primitive records ``(inputs, output, vjp)`` on the open tape, if any,
# and builds its vjp closure only then.

def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for an inner size of 1, as a broadcast multiply.

    A K=1 ``@`` sums each product onto +0.0, so a -0.0 product reads +0.0;
    adding 0.0 does the same, which keeps the result byte-identical.
    """
    out = x * y
    out += 0.0
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d("matmul", a)
    _require_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    av, bv = a.values, b.values
    out = _fresh(av @ bv)
    if _active_tape is not None:
        at, bt = av.T, bv.T
        grad_a = _outer if bt.shape[0] == 1 else np.matmul   # g @ b.T
        grad_b = _outer if at.shape[1] == 1 else np.matmul   # a.T @ g
        _active_tape.nodes.append(((a, b), out, lambda g: (grad_a(g, bt), grad_b(at, g))))
    return out


def _add_vjp(g):
    return g, g


def _sub_vjp(g):
    return g, -g


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = _fresh(a.values + b.values)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, _add_vjp))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    out = _fresh(a.values - b.values)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, _sub_vjp))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    av, bv = a.values, b.values
    out = _fresh(av * bv)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, lambda g: (g * bv, g * av)))
    return out


def sigmoid(x: Tensor) -> Tensor:
    # exp may overflow to inf for very negative inputs; 1/(1+inf) -> 0 is exact
    with np.errstate(over="ignore"):
        out = _fresh(1.0 / (1.0 + np.exp(-x.values)))
    if _active_tape is not None:
        s = out.values
        _active_tape.nodes.append(((x,), out, lambda g: (g * s * (1.0 - s),)))
    return out


def tanh(x: Tensor) -> Tensor:
    out = _fresh(np.tanh(x.values))
    if _active_tape is not None:
        t = out.values
        _active_tape.nodes.append(((x,), out, lambda g: (g * (1.0 - t * t),)))
    return out


def relu(x: Tensor) -> Tensor:
    out = _fresh(np.maximum(x.values, 0.0))
    if _active_tape is not None:
        mask = x.values > 0.0
        _active_tape.nodes.append(((x,), out, lambda g: (g * mask,)))
    return out


def exp(x: Tensor) -> Tensor:
    out = _fresh(np.exp(x.values))
    if _active_tape is not None:
        e = out.values
        _active_tape.nodes.append(((x,), out, lambda g: (g * e,)))
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    _require_2d("concat", tensors[0])
    if axis not in (0, 1):
        raise ShapeMismatchError(f"concat: axis {axis} out of range for 2-D tensors")
    other = 1 - axis
    ext = tensors[0].shape[other]
    for t in tensors[1:]:
        _require_2d("concat", t)
        if t.shape[other] != ext:
            raise ShapeMismatchError(
                f"concat: shapes {tensors[0].shape} and {t.shape} disagree off-axis"
            )
    out = _fresh(np.concatenate([t.values for t in tensors], axis=axis))
    if _active_tape is not None:
        # the vjp hands out views of the incoming adjoint, one per input
        pieces = []
        lo = 0
        for t in tensors:
            hi = lo + t.shape[axis]
            pieces.append((slice(lo, hi),) if axis == 0 else (slice(None), slice(lo, hi)))
            lo = hi
        _active_tape.nodes.append(
            (tuple(tensors), out, lambda g: tuple([g[p] for p in pieces])))
    return out


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of a vector; masked entries are 0.

    The max-shift keeps exp in range.
    """
    if logits.values.ndim > 2 or (logits.values.ndim == 2 and 1 not in logits.shape):
        raise ShapeMismatchError(f"masked_softmax needs a vector, got shape {logits.shape}")
    flat = logits.values.reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if m.shape != flat.shape:
        raise ShapeMismatchError(
            f"masked_softmax: mask length {m.size} != logits length {flat.size}"
        )
    if not m.any():
        raise EmptyNeighborSetError("masked_softmax over an empty neighbor set")
    shifted = np.zeros_like(flat)
    shifted[m] = np.exp(flat[m] - flat[m].max())
    total = float(np.sum(shifted[m]))
    out = _fresh((shifted / total).reshape(logits.shape))
    if _active_tape is not None:
        s = out.values.reshape(-1)
        shape = logits.shape

        def vjp(g):
            gf = g.reshape(-1)
            inner = float(np.dot(gf, s))
            # s is exactly 0 on masked entries, so they get exactly 0 gradient
            return ((s * (gf - inner)).reshape(shape),)

        _active_tape.nodes.append(((logits,), out, vjp))
    return out


def weighted_sum(weights: Tensor, columns: Tensor) -> Tensor:
    """Sum of matrix columns scaled by per-column weights: columns @ weights."""
    _require_2d("weighted_sum", columns)
    w = weights.values.reshape(-1)
    if weights.values.ndim > 2:
        raise ShapeMismatchError(f"weighted_sum: weights shape {weights.shape} is not a vector")
    if w.size != columns.shape[1]:
        raise ShapeMismatchError(
            f"weighted_sum: {w.size} weights for {columns.shape[1]} columns"
        )
    cv = columns.values
    out = _fresh((cv @ w).reshape(cv.shape[0], 1))
    if _active_tape is not None:
        wshape = weights.shape
        _active_tape.nodes.append(
            ((weights, columns), out,
             lambda g: ((cv.T @ g).reshape(wshape), g @ w[np.newaxis, :])))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _fresh(np.asarray(np.sum(x.values)))
    if _active_tape is not None:
        shape = x.shape
        _active_tape.nodes.append(((x,), out, lambda g: (np.full(shape, float(g)),)))
    return out


def scale(x: Tensor, alpha: float) -> Tensor:
    a = float(alpha)
    out = _fresh(x.values * a)
    if _active_tape is not None:
        _active_tape.nodes.append(((x,), out, lambda g: (g * a,)))
    return out


# ---------------------------------------------------------------------------
# reverse pass

def backward(tape: Tape, root: Tensor) -> None:
    """Add d(root)/d(leaf) into every leaf's grad slot, emptying the tape.

    Leaves are the tensors no node of the tape produced (parameters, inputs,
    initial states); grads accumulate across tapes until zeroed. A tensor's
    first contribution is kept as the vjp returned it; the second is summed
    into a new array that this pass owns, and later ones are added into that
    array in place.
    """
    if root.values.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    # tensors hash by identity, so they key their own adjoints
    adjoint: dict[Tensor, np.ndarray] = {root: np.ones_like(root.values)}
    owned: set[Tensor] = set()
    get_adjoint, pop_adjoint, nodes = adjoint.get, adjoint.pop, tape.nodes
    while nodes:
        inputs, output, vjp = nodes.pop()
        g = pop_adjoint(output, None)
        if g is None:
            continue
        owned.discard(output)
        for t, gi in zip(inputs, vjp(g)):
            prev = get_adjoint(t)
            if prev is None:
                adjoint[t] = gi
            elif t in owned:
                prev += gi
            else:
                adjoint[t] = prev + gi
                owned.add(t)
    # each produced tensor's adjoint went with its node, so only leaves are left
    for t, g in adjoint.items():
        if t.grad is not None:
            t.grad = t.grad + g
        else:
            # an owned adjoint is referenced by nothing else once the pass ends
            t.grad = g if t in owned else g.copy()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    total = 0.0
    for t in tensors:
        if t.grad is None:
            raise MissingGradientError("gradient norm over a tensor with no grad")
        total += float(np.sum(t.grad * t.grad))
    return float(np.sqrt(total))


def clip_grad_norm(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all grads in place so their global L2 norm is at most max_norm."""
    norm = global_grad_norm(tensors)
    if norm > max_norm:
        factor = max_norm / norm
        for t in tensors:
            t.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, named: Mapping[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = {name: np.zeros_like(t.values) for name, t in named.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in named.items()}


def adam_step(named: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Grads are left untouched."""
    for name, t in named.items():
        if name not in state.m:
            raise KeyError(f"optimizer state has no entry for {name!r}")
        if t.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, t in named.items():
        g = t.grad
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        t.values -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if not np.isfinite(t.values).all():
            raise NonFiniteError(f"parameter {name!r} became non-finite during the update")
