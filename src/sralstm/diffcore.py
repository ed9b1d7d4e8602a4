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
  * every ``Tensor`` is finite: the constructor checks its values, and an
    op whose output is not finite raises ``NonFiniteError``. numpy may
    warn about the overflow first, unless the caller silences it with
    ``np.errstate`` (the command line does);
  * a ``Constant`` is a tensor that takes no gradient (a one-hot selector,
    a row of ones, an observed input). ``matmul`` and ``concat``, the ops
    that meet constants, form no adjoint for one, and ``backward`` writes
    no grad to one.

Only the ops that can turn finite inputs into a non-finite output check
it: ``matmul``, ``add``, ``sub``, ``mul``, ``exp``, ``weighted_sum``,
``sum_all`` and ``scale`` can all overflow. The check first tests the self
dot product of the output, and runs the exact elementwise test only when
that is not finite (a NaN, an infinity, or finite values whose squares
overflow). The other ops are bounded on finite inputs and skip the check:
``sigmoid`` and ``tanh`` map into [0, 1] and [-1, 1], ``relu`` and
``concat`` only select input values, and ``masked_softmax`` divides terms
in [0, 1] by a sum of at least 1.

``sigmoid`` computes ``1 / (1 + exp(-x))`` in one array and enters
``np.errstate`` (about 2 us a call) only when ``x``'s self dot product is
at least ``709**2``, or ``x`` is 0-d. Below that bound every entry lies in
(-709, 709), where ``exp(-x)`` cannot overflow; only an entry below
-709.78 overflows it, to inf, and ``1 / (1 + inf)`` is exactly 0.

A train step records tens of thousands of nodes on small column vectors,
so per-node Python overhead, not arithmetic, sets the speed. The tape is
kept lean accordingly:
  * every product calls ``ndarray.dot``, not ``@``: on these shapes it is
    the same BLAS call with the same bits, at about 1 us less per call;
  * shape checks compare ``values.shape`` and ``values.ndim`` directly and
    call a helper only to raise;
  * a node is a plain ``(inputs, output, vjp)`` tuple;
  * a primitive builds its vjp closure only while a tape is open, so a
    tape-free forward pass allocates no closures;
  * ``backward`` empties its tape, freeing each node and its output's
    adjoint as it replays it, and fills the grads of leaves only. It owns
    only the adjoints it allocates itself (the sum of two contributions)
    and adds later contributions into those in place. It never writes an
    array a vjp returned: that may be the incoming adjoint itself
    (``add``), a view of it (``concat``) or the root's seed of ones;
  * a weight's gradient is formed in few products. Every ``W @ x`` with a
    one-column ``x`` adds the outer product ``g @ x.T`` to ``W``'s
    adjoint; ``backward`` keeps the factors ``g`` and ``x.T`` instead and,
    once ``W``'s contributions are all in, forms their sum as
    ``[g1 .. gk] @ [x1 .. xk].T`` (as cuDNN-style RNN kernels do, Appleyard
    et al. 2016, arXiv:1604.01946), one product per block of
    ``CONTRACT_BLOCK`` pairs, the blocks added in order. A single product
    over a long contraction gives bits that depend on the BLAS thread
    count; a block's product, computed transposed (see ``_contract``),
    does not, so grads have the same bits at 1 and 2 threads on one
    machine and BLAS build. A weight used once gets the bits of its single
    outer product;
  * ``backward`` replays ``add`` and one-column ``matmul`` nodes, the most
    common, inline rather than through their vjps;
  * an open ``Tape`` pauses the cyclic garbage collector and restores its
    previous state on exit. Nodes form no reference cycles, so a
    collection while recording would only re-walk the growing tape.
"""

from __future__ import annotations

import gc
import math
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
        t = cls.__new__(cls)
        t.values = np.zeros(shape, dtype=np.float64)
        t.grad = None
        return t

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


class Constant(Tensor):
    """A tensor that takes no gradient: a one-hot selector, a row of ones,
    an observed input, an initial state.

    ``matmul`` and ``concat`` leave it out of the inputs of the node they
    record, so no adjoint is formed for it; ``backward`` writes no grad to
    it in any case.
    """

    __slots__ = ()


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap the output of an op that maps finite inputs to finite outputs."""
    t = Tensor.__new__(Tensor)
    t.values = arr
    t.grad = None
    return t


def _fresh(arr: np.ndarray) -> Tensor:
    """Wrap the output of an op that can overflow; it must be finite.

    A NaN or an infinity makes the self dot product non-finite. So does a
    finite array whose squares overflow, and only then does the exact
    elementwise test run.
    """
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NonFiniteError("operation produced non-finite values")
    return _wrap(arr)


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


def _not_2d(op: str, t: Tensor):
    raise ShapeMismatchError(f"{op} needs 2-D operands, got shape {t.shape}")


def _shapes_differ(op: str, a: Tensor, b: Tensor):
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


class _ColumnMatmulVjp:
    """The vjp of ``a @ b`` for a one-column ``b``, with its factors exposed.

    Called, it returns both adjoints as arrays, like every vjp. ``backward``
    instead keeps ``a``'s adjoint, the outer product ``g @ bt``, as the
    factor pair ``(g, bt)`` and forms ``b``'s adjoint as ``grad_b`` does,
    inline.
    """

    __slots__ = ("at", "bt")

    def __init__(self, at: np.ndarray, bt: np.ndarray):
        self.at, self.bt = at, bt

    def grad_b(self, g: np.ndarray) -> np.ndarray:
        at = self.at
        return _outer(at, g) if at.shape[1] == 1 else at.dot(g)

    def __call__(self, g: np.ndarray) -> tuple:
        return _outer(g, self.bt), self.grad_b(g)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        for t in (a, b):
            if t.values.ndim != 2:
                _not_2d("matmul", t)
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = _fresh(av.dot(bv))
    if _active_tape is not None:
        at, bt = av.T, bv.T
        a_const, b_const = type(a) is Constant, type(b) is Constant
        if bt.shape[0] == 1 and not a_const:
            node = ((a,) if b_const else (a, b), out, _ColumnMatmulVjp(at, bt))
        else:
            grad_b = _outer if at.shape[1] == 1 else np.dot   # a.T @ g
            if b_const:
                node = ((), out, _no_vjp) if a_const else ((a,), out, lambda g: (g.dot(bt),))
            elif a_const:
                node = ((b,), out, lambda g: (grad_b(at, g),))
            else:
                node = ((a, b), out, lambda g: (g.dot(bt), grad_b(at, g)))
        _active_tape.nodes.append(node)
    return out


def _no_vjp(g):
    return ()


def _add_vjp(g):
    return g, g


def _sub_vjp(g):
    return g, -g


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("add", a, b)
    out = _fresh(av + bv)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, _add_vjp))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("sub", a, b)
    out = _fresh(av - bv)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, _sub_vjp))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("mul", a, b)
    out = _fresh(av * bv)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, lambda g: (g * bv, g * av)))
    return out


# exp(-x) overflows only for x < -709.78, and every entry of an x whose self
# dot product is below 709**2 lies inside (-709, 709)
_SIGMOID_SAFE = 709.0 ** 2


def sigmoid(x: Tensor) -> Tensor:
    xv = x.values
    if xv.ndim and np.vdot(xv, xv) < _SIGMOID_SAFE:
        # 1 / (1 + exp(-x)) in one array (reciprocal is the same division):
        # no entry is below -709, so no exp overflows
        s = -xv
        np.exp(s, s)
        s += 1.0
        out = _wrap(np.reciprocal(s, s))
    else:
        # numpy computes a 0-d input as a scalar, not in place; and exp may
        # overflow to inf for very negative inputs, where 1/(1+inf) -> 0 is exact
        with np.errstate(over="ignore"):
            out = _wrap(1.0 / (1.0 + np.exp(-xv)))
    if _active_tape is not None:
        s = out.values
        _active_tape.nodes.append(((x,), out, lambda g: (g * s * (1.0 - s),)))
    return out


def tanh(x: Tensor) -> Tensor:
    out = _wrap(np.tanh(x.values))
    if _active_tape is not None:
        t = out.values
        _active_tape.nodes.append(((x,), out, lambda g: (g * (1.0 - t * t),)))
    return out


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.values, 0.0))
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
    vals = [t.values for t in tensors]
    try:
        arr = np.concatenate(vals, axis=axis) if axis in (0, 1) else None
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 2:
        _concat_error(tensors, axis)
    out = _wrap(arr)
    if _active_tape is not None:
        # the vjp hands out views of the incoming adjoint, one per input
        # that takes a gradient
        inputs, pieces = [], []
        lo = 0
        for t, v in zip(tensors, vals):
            hi = lo + v.shape[axis]
            if type(t) is not Constant:
                inputs.append(t)
                pieces.append((slice(lo, hi),) if axis == 0 else (slice(None), slice(lo, hi)))
            lo = hi
        _active_tape.nodes.append(
            (tuple(inputs), out, lambda g: tuple([g[p] for p in pieces])))
    return out


def _concat_error(tensors: Sequence[Tensor], axis: int):
    """Raise the ShapeMismatchError that says why concat cannot join tensors."""
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    if tensors[0].values.ndim != 2:
        _not_2d("concat", tensors[0])
    if axis not in (0, 1):
        raise ShapeMismatchError(f"concat: axis {axis} out of range for 2-D tensors")
    ext = tensors[0].shape[1 - axis]
    for t in tensors[1:]:
        if t.values.ndim != 2:
            _not_2d("concat", t)
        if t.shape[1 - axis] != ext:
            raise ShapeMismatchError(
                f"concat: shapes {tensors[0].shape} and {t.shape} disagree off-axis"
            )
    raise ShapeMismatchError(f"concat cannot join shapes {[t.shape for t in tensors]}")


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
    out = _wrap((shifted / total).reshape(logits.shape))
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
    cv = columns.values
    if cv.ndim != 2:
        _not_2d("weighted_sum", columns)
    w = weights.values.reshape(-1)
    if weights.values.ndim > 2:
        raise ShapeMismatchError(f"weighted_sum: weights shape {weights.shape} is not a vector")
    if w.size != cv.shape[1]:
        raise ShapeMismatchError(
            f"weighted_sum: {w.size} weights for {cv.shape[1]} columns"
        )
    out = _fresh(cv.dot(w).reshape(cv.shape[0], 1))
    if _active_tape is not None:
        wshape = weights.values.shape
        _active_tape.nodes.append(
            ((weights, columns), out,
             lambda g: (cv.T.dot(g).reshape(wshape), g.dot(w[np.newaxis, :]))))
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

# pairs per product in ``_contract``
CONTRACT_BLOCK = 256


def _contract(gs: list, bts: list) -> np.ndarray:
    """Sum of the outer products ``gs[k] @ bts[k]``.

    The pairs are contracted in blocks of ``CONTRACT_BLOCK``, one product
    per block, and the blocks are added in order. One product over all k
    pairs would give bits that depend on the BLAS thread count once k is
    large; a block's product does not. Each block is computed transposed,
    as ``B.T @ G.T``, so the product's columns are the adjoint's rows
    (the hidden size), not its columns: with an odd column count, such as
    a folded weight's ``in + 1``, the plain product's bits depended on the
    thread count. A single pair gives exactly the vjp's own ``_outer``
    bits.
    """
    if len(gs) == 1:
        return _outer(gs[0], bts[0])
    step = CONTRACT_BLOCK
    out = np.concatenate(bts[:step], axis=0).T.dot(np.concatenate(gs[:step], axis=1).T)
    for lo in range(step, len(gs), step):
        out += np.concatenate(bts[lo:lo + step], axis=0).T.dot(
            np.concatenate(gs[lo:lo + step], axis=1).T)
    return np.ascontiguousarray(out.T)


def backward(tape: Tape, root: Tensor) -> None:
    """Add d(root)/d(leaf) into every leaf's grad slot, emptying the tape.

    Leaves are the tensors no node of the tape produced (parameters, inputs,
    initial states); grads accumulate across tapes until zeroed. A tensor's
    first contribution is kept as the vjp returned it; the second is summed
    into a new array that this pass owns, and later ones are added into that
    array in place.

    The left operand of a one-column matmul gets no dense contribution: its
    factor pair ``(g, bt)`` is kept instead, and all of a tensor's pairs are
    contracted in one product, when its own node is replayed or, for a
    leaf, once the replay ends.
    """
    if root.values.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    # tensors hash by identity, so they key their own adjoints
    adjoint: dict[Tensor, np.ndarray] = {root: np.ones_like(root.values)}
    owned: set[Tensor] = set()
    factors: dict[Tensor, tuple[list, list]] = {}
    get_adjoint, pop_adjoint, nodes = adjoint.get, adjoint.pop, tape.nodes
    get_factors, pop_factors = factors.get, factors.pop
    while nodes:
        inputs, output, vjp = nodes.pop()
        g = pop_adjoint(output, None)
        pairs = pop_factors(output, None)
        if pairs is not None:
            dense = _contract(*pairs)
            if g is not None:
                dense += g
            g = dense
        elif g is None:
            continue
        owned.discard(output)
        # add and one-column matmul nodes, the most common, replay inline
        if vjp is _add_vjp:
            contributions = ((inputs[0], g), (inputs[1], g))
        elif type(vjp) is _ColumnMatmulVjp:
            a = inputs[0]
            pairs = get_factors(a)
            if pairs is None:
                factors[a] = ([g], [vjp.bt])
            else:
                pairs[0].append(g)
                pairs[1].append(vjp.bt)
            if len(inputs) == 1:
                continue
            at = vjp.at
            contributions = ((inputs[1], _outer(at, g) if at.shape[1] == 1 else at.dot(g)),)
        else:
            contributions = zip(inputs, vjp(g))
        for t, gi in contributions:
            prev = get_adjoint(t)
            if prev is None:
                adjoint[t] = gi
            elif t in owned:
                prev += gi
            else:
                adjoint[t] = prev + gi
                owned.add(t)
    # each produced tensor's adjoint and factors went with its node, so only
    # leaves are left; contract one leaf's factors at a time
    while factors:
        t, pairs = factors.popitem()
        dense = _contract(*pairs)
        g = pop_adjoint(t, None)
        if g is not None:
            dense += g
        t.grad = dense if t.grad is None else t.grad + dense
    for t, g in adjoint.items():
        if type(t) is Constant:
            continue
        if t.grad is not None:
            t.grad = t.grad + g
        else:
            # an owned adjoint is referenced by nothing else once the pass ends
            t.grad = g if t in owned else g.copy()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    """The L2 norm of all grads together.

    Finite grads whose sum of squares overflows are measured again scaled
    by their largest magnitude, so their norm stays finite.
    """
    grads = []
    for t in tensors:
        if t.grad is None:
            raise MissingGradientError("gradient norm over a tensor with no grad")
        grads.append(t.grad)
    with np.errstate(over="ignore"):
        total = 0.0
        for g in grads:
            total += float(np.sum(g * g))
    if math.isfinite(total) or not all(np.isfinite(g).all() for g in grads):
        return float(np.sqrt(total))
    peak = max(float(np.abs(g).max()) for g in grads if g.size)
    total = 0.0
    for g in grads:
        s = g / peak
        total += float(np.sum(s * s))
    return peak * math.sqrt(total)


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
