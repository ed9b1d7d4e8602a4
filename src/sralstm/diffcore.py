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
    no grad to one. ``matmul_or_constant`` and ``concat_or_constant`` do
    work on constants alone without the tape and give a ``Constant``, so
    no node records what no gradient can cross;
  * a ``Selector`` is a ``Constant`` whose every column is one-hot, so
    ``x @ s`` picks or repeats columns of ``x`` exactly. A ``ColumnRange``
    is a ``Selector`` of a contiguous run of columns, kept as the run
    alone; ``x @ r`` is a view of those columns of ``x``, the only op
    whose output shares memory with an input;
  * a ``Bounded`` tensor has every entry in [-1, 1]: the output of
    ``sigmoid`` and ``tanh``, the product of two such tensors, and the
    columns a ``Selector`` picks from one.

Only the ops that can turn finite inputs into a non-finite output check
it: ``matmul``, ``sub``, ``exp``, ``weighted_sum``, ``sum_all`` and
``scale`` can all overflow, and so can ``mul`` and ``add`` unless an
operand is ``Bounded``. A product with such an operand is at most the
other operand in magnitude, and a sum at most one more, which rounds to
the largest float64 at worst; so an LSTM cell's products and its sum run
unchecked, on a whole block or on columns picked from one. The check
first tests the self dot product of the output, and runs the exact
elementwise test only when that is not finite (a NaN, an infinity, or
finite values whose squares overflow). The other ops are bounded on
finite inputs and skip the check: ``sigmoid`` and ``tanh`` map into
[0, 1] and [-1, 1], ``relu``, ``concat`` and a ``matmul`` by a
``Selector`` only select input values, and ``masked_softmax`` divides
terms in [0, 1] by a sum of at least 1.

``sigmoid`` clips ``x`` below at -709.78, ln of the largest float64, so
its ``exp(-x)`` never overflows, and it gives the bits of the plain
``1 / (1 + exp(-x))`` wherever that ``exp`` does not overflow.

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
    adjoint as it replays it, and fills the grads of leaves only. Every
    sum of two contributions is a new array, and the only arrays it
    writes are a contraction it has just computed and a zero buffer it
    made itself. So it never writes an array a vjp returned: that may be
    the incoming adjoint itself (``add``), a view of it (``concat``) or
    the root's seed of ones;
  * the adjoint of a ``ColumnRange`` product is added into those columns
    of one zero buffer per operand, which is exact for finite values, as
    the one-hot product is: no product is formed, and no (N, N) matrix
    for N single-column picks. The buffer is column-major, so a column
    is contiguous: a scene's pair blocks are wider than the cache, and a
    strided column add cost a third more;
  * a weight's gradient is formed in few products, by one rule for every
    product. Each ``W @ x`` adds ``g @ x.T`` to ``W``'s adjoint, whatever
    ``x``'s column count; ``backward`` keeps the factors ``g`` and ``x.T``
    instead and sums them as ``[g1 .. gk] @ [x1 .. xk].T`` (as cuDNN-style
    RNN kernels do, Appleyard et al. 2016, arXiv:1604.01946), each time
    ``W``'s pending factors reach ``CONTRACT_BLOCK`` columns and once for
    the rest, each added into ``W``'s adjoint in turn. ``_contract`` takes
    at most ``CONTRACT_BLOCK`` columns per product and adds the products
    in order, so a single use over a scene's pair columns is cut the same
    way. A single product over a long contraction gives bits that depend
    on the BLAS thread count; a block's product, computed transposed (see
    ``_contract``), does not, so grads have the same bits at 1 and 2
    threads on one machine and BLAS build. A weight used once on one
    column gets the bits of its single outer product;
  * ``backward`` replays every node through its vjp, except a matmul,
    which it replays inline to keep its factor pair or to place its
    picked columns' adjoint;
  * a vjp returns None for an input whose adjoint is identically zero,
    and ``backward`` adds nothing for it. A node that no adjoint reaches
    is not replayed, and a leaf that none reaches keeps ``grad`` None, as
    a leaf outside the graph does. The case is ``masked_softmax`` over
    one unmasked entry, whose output is the constant 1 at that entry: a
    pedestrian with one neighbor, so at n = 2 a train step replays none of
    the relation encoder and scorer behind its logits. The node is still
    recorded, with the logits as its input, so the tape, its node count,
    the relation updates a window counts and the rule that every recorded
    node has a path to the loss stay as they are;
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


class Selector(Constant):
    """A ``Constant`` whose every column is one-hot, so a product ``x @ s``
    only picks or repeats columns of ``x``: each output entry is one input
    entry, exactly. ``matmul`` skips the finite check of such a product
    and keeps a ``Bounded`` ``x`` ``Bounded``."""

    __slots__ = ()


class ColumnRange(Selector):
    """A ``Selector`` that picks the contiguous columns ``lo .. hi - 1`` of
    an operand with ``rows`` columns, kept as that range alone: a scene's
    pair columns are picked one at a time, and their one-hot matrices
    would take memory quadratic in their number. ``matmul`` returns a view
    of the picked columns, and ``backward`` adds their adjoint into the
    same columns; ``values`` builds the one-hot matrix on demand.

    It is also the vjp its products record: called on the adjoint of the
    picked columns, it returns the operand's adjoint, zero elsewhere.
    ``backward`` instead adds it into one buffer per operand."""

    __slots__ = ("lo", "hi", "rows")

    def __init__(self, lo: int, hi: int, rows: int):
        if not 0 <= lo <= hi <= rows:
            raise ValueError(f"column range {lo}..{hi} outside {rows} columns")
        self.lo, self.hi, self.rows = lo, hi, rows
        self.grad = None

    @property
    def values(self) -> np.ndarray:
        eye = np.zeros((self.rows, self.hi - self.lo))
        eye[self.lo:self.hi] = np.eye(self.hi - self.lo)
        return eye

    @property
    def shape(self):
        return (self.rows, self.hi - self.lo)

    def __call__(self, g: np.ndarray) -> tuple:
        dense = np.zeros((g.shape[0], self.rows))
        dense[:, self.lo:self.hi] = g
        return (dense,)


class Bounded(Tensor):
    """A tensor whose entries lie in [-1, 1], so ``mul`` and ``add`` with it
    as an operand cannot overflow and skip the finite check."""

    __slots__ = ()


def _wrap(arr: np.ndarray, cls=Tensor) -> Tensor:
    """Wrap the output of an op that maps finite inputs to finite outputs."""
    t = cls.__new__(cls)
    t.values = arr
    t.grad = None
    return t


def _fresh(arr: np.ndarray, cls=Tensor) -> Tensor:
    """Wrap the output of an op that can overflow; it must be finite.

    A NaN or an infinity makes the self dot product non-finite. So does a
    finite array whose squares overflow, and only then does the exact
    elementwise test run.
    """
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NonFiniteError("operation produced non-finite values")
    return _wrap(arr, cls)


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


def _shapes_differ(op: str, a: Tensor, b: Tensor):
    raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# primitives
#
# Each primitive records ``(inputs, output, vjp)`` on the open tape, if any,
# and builds its vjp closure only then.

class _MatmulVjp:
    """The vjp of ``a @ b``, with its factors exposed.

    ``at`` is ``a.T``, for ``b``'s adjoint ``a.T @ g``; ``bt`` is ``b.T``,
    for ``a``'s adjoint ``g @ b.T``. Each is None when the other operand is
    a ``Constant``, which takes no adjoint. Called, it returns the adjoints
    of the node's inputs as arrays, like every vjp. ``backward`` instead
    forms ``b``'s inline and keeps ``a``'s as the factor pair ``(g, bt)``.
    """

    __slots__ = ("at", "bt")

    def __init__(self, at, bt):
        self.at, self.bt = at, bt

    def __call__(self, g: np.ndarray) -> tuple:
        grads = () if self.bt is None else (g.dot(self.bt),)
        return grads if self.at is None else grads + (self.at.dot(g),)


def _pick(a: Tensor, b: ColumnRange, cls) -> Tensor:
    """The view of the columns b picks from a, wrapped as cls."""
    av = a.values
    if av.ndim != 2 or av.shape[1] != b.rows:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    return _wrap(av[:, b.lo:b.hi], cls)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if type(b) is ColumnRange:
        out = _pick(a, b, Bounded if type(a) is Bounded else Tensor)
        if _active_tape is not None:
            _active_tape.nodes.append(((a,) if not isinstance(a, Constant) else (), out, b))
        return out
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    if type(b) is Selector:
        out = _wrap(av.dot(bv), Bounded if type(a) is Bounded else Tensor)
    else:
        out = _fresh(av.dot(bv))
    if _active_tape is not None:
        at = bt = None
        inputs = ()
        if not isinstance(a, Constant):
            bt, inputs = bv.T, (a,)
        if not isinstance(b, Constant):
            at, inputs = av.T, inputs + (b,)
        _active_tape.nodes.append((inputs, out, _MatmulVjp(at, bt)))
    return out


def _add_vjp(g):
    return g, g


def _sub_vjp(g):
    return g, -g


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("add", a, b)
    out = (_wrap if type(a) is Bounded or type(b) is Bounded else _fresh)(av + bv)
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
    if type(a) is Bounded or type(b) is Bounded:
        out = _wrap(av * bv, Bounded if type(a) is type(b) else Tensor)
    else:
        out = _fresh(av * bv)
    if _active_tape is not None:
        _active_tape.nodes.append(((a, b), out, lambda g: (g * bv, g * av)))
    return out


# ln of the largest float64: exp(-x) of an x clipped here cannot overflow
_EXP_MAX = 709.782712893384


def sigmoid(x: Tensor) -> Tensor:
    # 1 / (1 + exp(-max(x, -_EXP_MAX))), in place in one array; a ufunc
    # gives a 0-d array back only when it is handed one to write
    v = x.values
    s = np.negative(v) if v.ndim else np.negative(v, out=np.empty(()))
    np.minimum(s, _EXP_MAX, out=s)
    np.exp(s, out=s)
    s += 1.0
    out = _wrap(np.reciprocal(s, out=s), Bounded)
    if _active_tape is not None:
        _active_tape.nodes.append(((x,), out, lambda g: (g * s * (1.0 - s),)))
    return out


def tanh(x: Tensor) -> Tensor:
    out = _wrap(np.tanh(x.values), Bounded)
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


def _joined(tensors: Sequence[Tensor], vals: list, axis: int) -> np.ndarray:
    try:
        arr = np.concatenate(vals, axis=axis)
        if arr.ndim != 2 or axis not in (0, 1):
            raise ValueError(f"got shape {arr.shape}; needs 2-D operands and axis 0 or 1")
    except ValueError as err:
        raise ShapeMismatchError(
            f"concat on axis {axis} cannot join shapes {[t.shape for t in tensors]}") from err
    return arr


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    vals = [t.values for t in tensors]
    out = _wrap(_joined(tensors, vals, axis))
    if _active_tape is not None:
        # the vjp hands out views of the incoming adjoint, one per input
        # that takes a gradient
        inputs, pieces = [], []
        lo = 0
        for t, v in zip(tensors, vals):
            hi = lo + v.shape[axis]
            if not isinstance(t, Constant):
                inputs.append(t)
                pieces.append((slice(lo, hi),) if axis == 0 else (slice(None), slice(lo, hi)))
            lo = hi
        _active_tape.nodes.append(
            (tuple(inputs), out, lambda g: tuple([g[p] for p in pieces])))
    return out


def masked_softmax(logits: Tensor, mask=None) -> Tensor:
    """Softmax over the unmasked entries of a vector; masked entries are 0.
    Without a mask every entry is unmasked, and no mask is built.

    The max-shift keeps exp in range. Over one unmasked entry the output
    is constant, so the node passes no adjoint to the logits.
    """
    if logits.values.ndim > 2 or (logits.values.ndim == 2 and 1 not in logits.shape):
        raise ShapeMismatchError(f"masked_softmax needs a vector, got shape {logits.shape}")
    flat = logits.values.reshape(-1)
    if mask is None:
        if not flat.size:
            raise EmptyNeighborSetError("masked_softmax over an empty neighbor set")
        shifted = np.exp(flat - flat.max())
        total = float(np.sum(shifted))
        unmasked = flat.size
    else:
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
        unmasked = np.count_nonzero(m)
    out = _wrap((shifted / total).reshape(logits.shape))
    if _active_tape is not None:
        s = out.values.reshape(-1)
        shape = logits.shape

        def vjp(g):
            gf = g.reshape(-1)
            inner = float(np.dot(gf, s))
            # s is exactly 0 on masked entries, so they get exactly 0 gradient
            return ((s * (gf - inner)).reshape(shape),)

        _active_tape.nodes.append(
            ((logits,), out, _no_adjoint if unmasked == 1 else vjp))
    return out


def _no_adjoint(g):
    return (None,)


def weighted_sum(weights: Tensor, columns: Tensor) -> Tensor:
    """Sum of matrix columns scaled by per-column weights: columns @ weights."""
    cv = columns.values
    if cv.ndim != 2:
        raise ShapeMismatchError(f"weighted_sum needs 2-D columns, got shape {columns.shape}")
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
# constant folding
#
# Work on constants alone carries no gradient. These two do it on the arrays
# and return a ``Constant``, so nothing is recorded, with the bits and the
# checks of the primitive they stand for; any other operands go to that
# primitive. They are no primitives themselves, so every primitive call still
# records exactly one node.

def matmul_or_constant(a: Tensor, b: Tensor) -> Tensor:
    """``matmul(a, b)``, or a ``Constant`` and no node when both are one."""
    if isinstance(a, Constant) and type(b) is ColumnRange:
        return _pick(a, b, Constant)
    if isinstance(a, Constant) and isinstance(b, Constant):
        av, bv = a.values, b.values
        if av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0]:
            return _fresh(av.dot(bv), Constant)
    return matmul(a, b)


def concat_or_constant(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """``concat(tensors, axis)``, or a ``Constant`` and no node when every
    tensor is one."""
    for t in tensors:
        if not isinstance(t, Constant):
            return concat(tensors, axis)
    return _wrap(_joined(tensors, [t.values for t in tensors], axis), Constant)


# ---------------------------------------------------------------------------
# reverse pass

# pending factor columns at which ``backward`` contracts a tensor's pairs
CONTRACT_BLOCK = 256


def _contract(gs: list, bts: list) -> np.ndarray:
    """Sum of the products ``gs[k] @ bts[k]``: ``G @ B`` over the joined
    factors, one product per run of at most ``CONTRACT_BLOCK`` of their
    columns, the runs added in order.

    Each product is computed transposed, as ``B.T @ G.T``, so its columns
    are the adjoint's rows (the hidden size), not its columns: with an odd
    column count, such as a folded weight's ``in + 1``, the plain product's
    bits depended on the BLAS thread count, and so did those of one product
    over a scene's pair columns (552 at 24 pedestrians). A single
    one-column pair gives exactly the bits of the vjp's own outer product;
    a wider one may not.
    """
    g, b = np.concatenate(gs, axis=1), np.concatenate(bts, axis=0)
    total = b[:CONTRACT_BLOCK].T.dot(g[:, :CONTRACT_BLOCK].T)
    for lo in range(CONTRACT_BLOCK, g.shape[1], CONTRACT_BLOCK):
        total += b[lo:lo + CONTRACT_BLOCK].T.dot(g[:, lo:lo + CONTRACT_BLOCK].T)
    return np.ascontiguousarray(total.T)


def backward(tape: Tape, root: Tensor) -> None:
    """Add d(root)/d(leaf) into every leaf's grad slot, emptying the tape.

    Leaves are the tensors no node of the tape produced (parameters, inputs,
    initial states); grads accumulate across tapes until zeroed. Every sum
    of two contributions to an adjoint is a new array.

    The left operand of a matmul gets no dense contribution: its factor
    pair ``(g, bt)`` is kept instead, and once a tensor's pending pairs
    reach ``CONTRACT_BLOCK`` columns they are contracted. A product by a
    ``ColumnRange`` adds its adjoint into the picked columns of a zero
    buffer its operand owns. ``finish`` contracts the rest and adds the
    buffer and then the tensor's dense adjoint, when its own node is
    replayed or, for a leaf, once the replay ends.
    """
    if root.values.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    # tensors hash by identity, so they key their own adjoints
    adjoint: dict[Tensor, np.ndarray] = {root: np.ones_like(root.values)}
    factors: dict[Tensor, list] = {}   # [pending columns, gs, bts]
    placed: dict[Tensor, np.ndarray] = {}   # picked columns' adjoints
    get_adjoint, pop_adjoint, nodes = adjoint.get, adjoint.pop, tape.nodes
    get_factors, pop_factors = factors.get, factors.pop
    get_placed, pop_placed = placed.get, placed.pop

    def finish(t: Tensor):
        """t's whole adjoint, or None if it got no contribution."""
        g, pending, dense = pop_adjoint(t, None), pop_factors(t, None), pop_placed(t, None)
        if pending is not None:
            part = _contract(pending[1], pending[2])
            if dense is not None:
                part += dense
            dense = part
        if dense is None:
            return g
        if g is not None:
            dense += g
        return dense

    while nodes:
        inputs, output, vjp = nodes.pop()
        g = finish(output)
        if g is None:
            continue
        # a column pick adds its adjoint into its operand's buffer
        if type(vjp) is ColumnRange:
            if inputs:
                a = inputs[0]
                buf = get_placed(a)
                if buf is None:
                    buf = placed[a] = np.zeros((g.shape[0], vjp.rows), order="F")
                buf[:, vjp.lo:vjp.hi] += g
            continue
        # a matmul replays inline, keeping its left operand's factor pair
        if type(vjp) is _MatmulVjp:
            at, bt = vjp.at, vjp.bt
            contributions = () if at is None else ((inputs[-1], at.dot(g)),)
            if bt is not None:
                a = inputs[0]
                pending = get_factors(a)
                if pending is None:
                    pending = factors[a] = [0, [], []]
                pending[0] += g.shape[1]
                pending[1].append(g)
                pending[2].append(bt)
                if pending[0] >= CONTRACT_BLOCK:
                    del factors[a]
                    contributions += ((a, _contract(pending[1], pending[2])),)
        else:
            contributions = zip(inputs, vjp(g))
        for t, gi in contributions:
            if gi is None:
                continue
            prev = get_adjoint(t)
            adjoint[t] = gi if prev is None else prev + gi
    # each produced tensor's adjoint and factors went with its node, so only
    # leaves are left; a first grad is a private copy, since the adjoint may
    # be an array a vjp also handed to another tensor
    for t in [*factors, *placed, *adjoint]:
        g = finish(t)
        if g is None or isinstance(t, Constant):
            continue
        t.grad = g.copy() if t.grad is None else t.grad + g


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
