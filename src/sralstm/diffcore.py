"""Reverse-mode autodiff core and Adam optimizer.

Everything downstream (relationship encoder, attention, motion LSTM, loss)
is composed from the primitives in this module, so training needs no
hand-derived gradients anywhere else.

Conventions:
  * all values are float64 numpy arrays, row-major, except three kinds
    whose columns are read or written one at a time, which are
    column-major: the relation gate blocks of ``model.relation_gates``,
    the adjoint an axis-1 ``concat`` hands its inputs, and the adjoint
    ``backward`` joins from the pieces of an axis-1 ``split``. A scene's
    pair blocks (laid out as
    ``model``'s docstring states) are wider than the cache, and an op on
    a strided (h, 1) column took about twice as long. A product's output
    is made column-major by a copy after the product: the copy keeps
    every bit, and a product's vjp does not read its output;
  * binary entrywise ops require identical shapes (no broadcasting);
  * vectors are column matrices of shape (n, 1) unless noted;
  * ops record onto the active ``Tape`` when one is open, and compute
    plain forward values otherwise.
  * every ``Tensor`` is finite: the constructor checks its values, and an
    op whose output is not finite raises ``NonFiniteError``. numpy may
    warn about the overflow first, unless the caller silences it with
    ``np.errstate`` (the command line does);
  * a ``Constant`` is a tensor that takes no gradient (a ``Selector``, a
    row of ones, an observed input). ``matmul``, ``mul``, ``add``,
    ``sub``, ``concat`` and ``weighted_sum`` (its columns) form no adjoint
    for one, and ``backward`` writes no grad to one. ``matmul_or_constant`` and
    ``concat_or_constant`` do work on constants alone without the tape
    and give a ``Constant``, so no node records what no gradient crosses;
  * a ``Selector`` is a one-hot matrix, or the difference of two, kept as
    an int array of column indices: ``x @ s`` gathers columns of ``x``
    exactly, or exact differences of two, into a row-major array;
  * ``split`` is no primitive: it cuts a tensor into equal views, which
    record no node. Its pieces share their base's memory; no op output
    shares memory with an input;
  * a ``Bounded`` tensor has every entry in [-1, 1]: the output of
    ``sigmoid`` and ``tanh``, the product of two such tensors, the
    columns a ``Selector`` without ``minus`` picks from one and the
    pieces of one;
  * a tape owns identities, not tensors. A node is ``(inputs, key,
    vjp)``: ``key`` names the node's output, which the node does not
    hold, and each input is the key of the tensor read, or, for a tensor
    no node of the tape made (a leaf, a split piece), the tensor itself.
    A tensor's ``key`` slot holds its node's key, the fresh vjp or a
    fresh ``object()`` where the vjp is shared, and is None for a tensor
    no node made. So a recorded output's array lives while the caller
    holds it or a vjp reads it, and no longer: of a train step's arrays
    only those some vjp reads (an activation, a product's operands)
    outlive the forward pass. A vjp keeps the arrays it reads and never
    its output tensor.

Only the ops that can turn finite inputs into a non-finite output check
it: ``matmul``, ``sub``, ``exp``, ``weighted_sum``, ``sum_all`` and
``scale`` can all overflow (``matmul`` by a ``Selector`` only when it
takes differences), and so can ``mul`` and ``add`` unless an
operand is ``Bounded``. A product with such an operand is at most the
other operand in magnitude, and a sum at most one more, which rounds to
the largest float64 at worst; so an LSTM cell's products and its sum run
unchecked, on a whole block or on pieces split from one. The check
first tests the self dot product of the output, and runs the exact
elementwise test only when that is not finite (a NaN, an infinity, or
finite values whose squares overflow). The other ops are bounded on
finite inputs and skip the check: ``sigmoid`` and ``tanh`` map into
[0, 1] and [-1, 1], ``relu``, ``concat`` and any other ``matmul`` by a
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
  * a node is a plain ``(inputs, key, vjp)`` tuple, and a primitive
    writes its output's key inline;
  * a primitive builds its vjp closure only while a tape is open, so a
    tape-free forward pass allocates no closures;
  * ``backward`` finds an adjoint with one table lookup, empties its tape,
    freeing each node and its output's adjoint as it replays it, and fills
    the grads of leaves only. Every sum of two contributions is a new
    array, and the only arrays it writes are a contraction it has just
    computed and the array it joins a split's pieces into, so never one a vjp
    returned: the incoming adjoint itself (``add``), a view of it or of
    its column-major copy (``concat``) or the root's seed of ones;
  * a scene step cuts three blocks into N pair columns, so a Python slice
    per column cost more than the work on it. ``split`` takes its k
    pieces as the items of one strided view of the base, which numpy
    builds in C (``v.reshape(rows, k, w).swapaxes(0, 1)`` on axis 1,
    ``v.reshape(k, w, cols)`` on axis 0); splitting one axis never
    copies, so each piece is a view of the base in any memory order;
  * a ``split`` notes its pieces on the tape, under its base's key,
    instead of recording a node per piece, and ``backward`` joins their
    adjoints into the base's with one concatenate, only for a split some
    piece of which is reached (see ``backward``); an index ``Selector``'s product
    replays as the one-hot product, whose factor ``transpose`` builds
    then, so a tape-free pass builds no one-hot matrix;
  * a weight's gradient is formed in few products, by one rule for every
    product. Each ``W @ x`` adds ``g @ x.T`` to ``W``'s adjoint; ``backward``
    keeps the factors ``g`` and ``x.T`` instead and sums them as
    ``[g1 .. gk] @ [x1 .. xk].T`` (as cuDNN-style RNN kernels do, Appleyard
    et al. 2016, arXiv:1604.01946), each time ``W``'s pending factors reach
    ``CONTRACT_BLOCK`` columns and once for the rest, in blocks of at most
    that many columns added in order, so on one BLAS build grads have the
    same bits at 1 and 2 threads (see ``_contract``). A weight used once
    on one column gets the bits of its single outer product;
  * ``backward`` replays every node through its vjp, except a matmul,
    which it replays inline to keep its factor pair;
  * a vjp returns None for an input whose adjoint is identically zero,
    and ``backward`` adds nothing for it; a node no adjoint reaches is not
    replayed, and a leaf none reaches keeps ``grad`` None. The case is
    ``masked_softmax`` over runs of one entry (pedestrians with one
    neighbor), whose output is the constant 1: at n = 2 a train step
    replays none of the relation encoder and scorer. The node is still
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


class StaleTensorError(RuntimeError):
    """``backward`` reached a tensor that a node of an earlier tape made."""


class Tensor:
    """A float64 array plus an additively-accumulated gradient slot, and
    the key of the tape node that made it (None if none did)."""

    __slots__ = ("values", "grad", "key")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed from non-finite values")
        self.values = arr
        self.grad = self.key = None

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        t = cls.__new__(cls)
        t.values = np.zeros(shape, dtype=np.float64)
        t.grad = t.key = None
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
    """A tensor that takes no gradient: a ``Selector``, a row of ones,
    an observed input, an initial state.

    ``matmul``, ``concat`` and ``weighted_sum`` (as its columns) leave it
    out of the inputs of the node they record, so no adjoint is formed for
    it; ``backward`` writes no grad to it in any case.
    """

    __slots__ = ()


class Selector(Constant):
    """A (rows, k) one-hot matrix, column c ``e[index[c]]``, kept as its
    int array ``index``; with ``minus``, column c is
    ``e[index[c]] - e[minus[c]]``. It has no ``values``: ``x @ s`` is
    ``pick(x)``, exact entries of x or exact differences, which alone can
    overflow. ``take`` gathers a row-major array, as a product gives.
    ``backward`` replays a pick as the one-hot product, with
    ``transpose`` as its factor; called, a selector is that vjp."""

    __slots__ = ("index", "rows", "minus")

    def __init__(self, index, rows: int, minus=None):
        index, minus = (a if a is None else np.asarray(a, np.intp) for a in (index, minus))
        # a minus of another shape makes np.stack raise ValueError
        both = np.stack([index, index if minus is None else minus])
        if index.ndim != 1 or not ((both >= 0) & (both < rows)).all():
            raise ValueError(f"selector index outside {rows} columns")
        self.index, self.rows, self.minus = index, rows, minus
        self.grad = self.key = None

    @property
    def shape(self):
        return (self.rows, self.index.size)

    def pick(self, x: np.ndarray) -> np.ndarray:
        """The product ``x @ s`` of a 2-D array x."""
        if x.ndim != 2 or x.shape[1] != self.rows:
            raise ShapeMismatchError(f"matmul: shapes {x.shape} and {self.shape} do not chain")
        taken = x.take(self.index, axis=1)
        return taken if self.minus is None else taken - x.take(self.minus, axis=1)

    def transpose(self) -> np.ndarray:
        """The (k, rows) transpose of the matrix, column-major as a
        row-major matrix's ``.T`` is."""
        return self.pick(np.eye(self.rows)).T

    def __call__(self, g: np.ndarray) -> tuple:
        return (g.dot(self.transpose()),)


class Bounded(Tensor):
    """A tensor whose entries lie in [-1, 1], so ``mul`` and ``add`` with it
    as an operand cannot overflow and skip the finite check."""

    __slots__ = ()


def _wrap(arr: np.ndarray, cls=Tensor) -> Tensor:
    """Wrap the output of an op that maps finite inputs to finite outputs."""
    t = cls.__new__(cls)
    t.values = arr
    t.grad = t.key = None
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
        self.nodes: list[tuple] = []   # (inputs, key, vjp), by the conventions
        self.splits: dict = {}         # base's key or base -> (its pieces, axis)
        self.pieces: set = set()       # every piece of those splits
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
# Each primitive records ``(inputs, key, vjp)`` on the open tape, if any, as
# the conventions state, sets its output's ``key`` and builds its vjp closure
# only then. ``x.key or x`` is what a node lists for an input x.

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if type(b) is Selector:
        out = (_wrap if b.minus is None else _fresh)(
            b.pick(a.values), Bounded if type(a) is Bounded and b.minus is None else Tensor)
        if _active_tape is not None:
            out.key = key = object()
            _active_tape.nodes.append(
                ((a.key or a,) if not isinstance(a, Constant) else (), key, b))
        return out
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = _fresh(av.dot(bv))
    if _active_tape is not None:
        at = bt = None
        inputs = ()
        if not isinstance(a, Constant):
            bt, inputs = bv.T, (a.key or a,)
        if not isinstance(b, Constant):
            at, inputs = av.T, inputs + (b.key or b,)
        out.key = vjp = _MatmulVjp(at, bt)
        _active_tape.nodes.append((inputs, vjp, vjp))
    return out


def _add_vjp(g):
    return g, g


def _sub_vjp(g):
    return g, -g


def _same(g):
    return g


def _record_with_constants(out: Tensor, a: Tensor, b: Tensor, da, db) -> None:
    """Record the node of a binary entrywise op when an operand may be a
    ``Constant``: it lists and replays the others only. ``da`` and ``db``
    map the output's adjoint to a's and b's. The ops test for a plain
    ``Tensor`` or ``Bounded`` operand inline first, which is cheaper."""
    ca, cb = isinstance(a, Constant), isinstance(b, Constant)
    if ca and cb:
        inputs, vjp = (), lambda g: ()
    elif ca:
        inputs, vjp = (b.key or b,), lambda g: (db(g),)
    elif cb:
        inputs, vjp = (a.key or a,), lambda g: (da(g),)
    else:
        inputs, vjp = (a.key or a, b.key or b), lambda g: (da(g), db(g))
    out.key = vjp
    _active_tape.nodes.append((inputs, vjp, vjp))


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("add", a, b)
    ta, tb = type(a), type(b)
    out = (_wrap if ta is Bounded or tb is Bounded else _fresh)(av + bv)
    if _active_tape is not None:
        if (ta is Tensor or ta is Bounded) and (tb is Tensor or tb is Bounded):
            out.key = key = object()
            _active_tape.nodes.append(((a.key or a, b.key or b), key, _add_vjp))
        else:
            _record_with_constants(out, a, b, _same, _same)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("sub", a, b)
    out = _fresh(av - bv)
    if _active_tape is not None:
        ta, tb = type(a), type(b)
        if (ta is Tensor or ta is Bounded) and (tb is Tensor or tb is Bounded):
            out.key = key = object()
            _active_tape.nodes.append(((a.key or a, b.key or b), key, _sub_vjp))
        else:
            _record_with_constants(out, a, b, _same, np.negative)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        _shapes_differ("mul", a, b)
    ta, tb = type(a), type(b)
    if ta is Bounded or tb is Bounded:
        out = _wrap(av * bv, Bounded if ta is tb else Tensor)
    else:
        out = _fresh(av * bv)
    if _active_tape is not None:
        if (ta is Bounded or ta is Tensor) and (tb is Bounded or tb is Tensor):
            out.key = vjp = lambda g: (g * bv, g * av)
            _active_tape.nodes.append(((a.key or a, b.key or b), vjp, vjp))
        else:
            _record_with_constants(out, a, b, lambda g: g * bv, lambda g: g * av)
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
        out.key = vjp = lambda g: (g * s * (1.0 - s),)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
    return out


def tanh(x: Tensor) -> Tensor:
    out = _wrap(np.tanh(x.values), Bounded)
    if _active_tape is not None:
        t = out.values
        out.key = vjp = lambda g: (g * (1.0 - t * t),)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
    return out


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.values, 0.0))
    if _active_tape is not None:
        mask = x.values > 0.0
        out.key = vjp = lambda g: (g * mask,)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
    return out


def exp(x: Tensor) -> Tensor:
    out = _fresh(np.exp(x.values))
    if _active_tape is not None:
        e = out.values
        out.key = vjp = lambda g: (g * e,)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
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
        # that takes a gradient; on axis 1 they are views of a column-major
        # copy, so each input's columns are contiguous
        inputs, pieces = [], []
        lo = 0
        for t, v in zip(tensors, vals):
            hi = lo + v.shape[axis]
            if not isinstance(t, Constant):
                inputs.append(t.key or t)
                pieces.append((slice(lo, hi),) if axis == 0 else (slice(None), slice(lo, hi)))
            lo = hi
        def vjp(g):
            g = np.asfortranarray(g) if axis else g
            return tuple([g[p] for p in pieces])
        out.key = vjp
        _active_tape.nodes.append((tuple(inputs), vjp, vjp))
    return out


def _runs(op: str, size: int, width) -> tuple:
    """The number and width of the runs of ``size`` columns; one run without a width."""
    if width is None:
        return 1, size
    if width < 1 or size % width:
        raise ShapeMismatchError(f"{op}: width {width} does not split {size} columns into runs")
    return size // width, width


def masked_softmax(logits: Tensor, mask=None, width=None) -> Tensor:
    """Softmax over the unmasked entries of a vector; masked entries are 0.
    Without a mask every entry is unmasked, and no mask is built; the
    mask form, whose caller is acceptance gate 2's gradient suite,
    normalizes its unmasked entries as one run. With a
    ``width`` w instead, each run of w entries is normalized on its own,
    along its contiguous axis, with the bits of its own softmax: the
    segment softmax of graph attention (Velickovic et al. 2018,
    arXiv:1710.10903) over a scene's (1, N) logits.

    The max-shift keeps exp in range. Over one unmasked entry (w = 1) the
    output is constant, so the node passes no adjoint to the logits.
    """
    if logits.values.ndim > 2 or (logits.values.ndim == 2 and 1 not in logits.shape):
        raise ShapeMismatchError(f"masked_softmax needs a vector, got shape {logits.shape}")
    flat = logits.values.reshape(-1)
    if not flat.size:
        raise EmptyNeighborSetError("masked_softmax over an empty neighbor set")
    if mask is None:
        x = flat.reshape(-1, _runs("masked_softmax", flat.size, width)[1])
    else:
        if width is not None:
            raise ShapeMismatchError("masked_softmax takes a mask or a width, not both")
        m = np.asarray(mask, dtype=bool).reshape(-1)
        if m.shape != flat.shape:
            raise ShapeMismatchError(
                f"masked_softmax: mask length {m.size} != logits length {flat.size}")
        if not m.any():
            raise EmptyNeighborSetError("masked_softmax over an empty neighbor set")
        x = flat[m].reshape(1, -1)
    shifted = np.exp(x - x.max(axis=1, keepdims=True))
    s = shifted / shifted.sum(axis=1, keepdims=True)
    if mask is not None:    # the one run, among zeros at the masked entries
        run, s = s[0], np.zeros((1, flat.size))
        s[0, m] = run
    out = _wrap(s.reshape(logits.shape))
    if _active_tape is not None:
        shape = logits.shape

        def vjp(g):
            gs = g.reshape(s.shape)
            # one inner product per run, each a dot as a lone vector's is;
            # s is exactly 0 on masked entries, so they get exactly 0 gradient
            inner = np.matmul(gs[:, np.newaxis, :], s[:, :, np.newaxis])[:, 0]
            return ((s * (gs - inner)).reshape(shape),)

        if x.shape[1] == 1:
            vjp, out.key = _no_adjoint, object()
        else:
            out.key = vjp
        _active_tape.nodes.append(((logits.key or logits,), out.key, vjp))
    return out


def _no_adjoint(g):
    return (None,)


def weighted_sum(weights: Tensor, columns: Tensor, width=None) -> Tensor:
    """Sum of matrix columns scaled by per-column weights: columns @ weights,
    an (h, 1) column; with a ``width`` w, a column per run of w columns,
    summed by its run of weights (a scene's (h, n) social contexts from
    its (1, N) weights and (h, N) neighbor states). Each stacked product
    has the bits ``ndarray.dot`` gives on a run of a scene's block: the
    weights' adjoint is a gemv of the run copied to row-major, as ``dot``
    copies a strided run of w > 1 columns (a scene drops it at w = 1).
    ``Constant`` columns (a first step's zero states) take no adjoint."""
    cv = columns.values
    if cv.ndim != 2:
        raise ShapeMismatchError(f"weighted_sum needs 2-D columns, got shape {columns.shape}")
    if weights.values.ndim > 2:
        raise ShapeMismatchError(f"weighted_sum: weights shape {weights.shape} is not a vector")
    h, size = cv.shape
    if weights.values.size != size:
        raise ShapeMismatchError(f"weighted_sum: {weights.values.size} weights for {size} columns")
    n, width = _runs("weighted_sum", size, width)
    runs = cv.reshape(h, n, width).transpose(1, 0, 2)
    w = weights.values.reshape(n, width, 1)
    out = _fresh(np.ascontiguousarray(np.matmul(runs, w)[:, :, 0].T))
    if _active_tape is not None:
        wshape = weights.shape

        def vjp(g):
            gt = np.ascontiguousarray(g.T)[:, :, np.newaxis]
            gw = np.matmul(np.ascontiguousarray(runs.swapaxes(1, 2)), gt).reshape(wshape)
            if constant:
                return (gw,)
            return gw, np.matmul(gt, w.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(h, size)

        constant = isinstance(columns, Constant)
        out.key = vjp
        _active_tape.nodes.append(
            ((weights.key or weights,) if constant
             else (weights.key or weights, columns.key or columns), vjp, vjp))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _fresh(np.asarray(np.sum(x.values)))
    if _active_tape is not None:
        shape = x.shape
        out.key = vjp = lambda g: (np.full(shape, float(g)),)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
    return out


def scale(x: Tensor, alpha: float) -> Tensor:
    a = float(alpha)
    out = _fresh(x.values * a)
    if _active_tape is not None:
        out.key = vjp = lambda g: (g * a,)
        _active_tape.nodes.append(((x.key or x,), vjp, vjp))
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
    if isinstance(a, Constant) and type(b) is Selector:
        return (_wrap if b.minus is None else _fresh)(b.pick(a.values), Constant)
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
# views

def split(x: Tensor, k: int, axis: int) -> list:
    """k equal views of x along ``axis`` (0 or 1), each of x's class, so
    the pieces of a ``Bounded`` block are ``Bounded``. No primitive: it
    records no node. Under a tape it notes x's pieces there, and
    ``backward`` joins their adjoints into x's. A tensor is split at most
    once on one tape, and a piece not at all, so each piece's adjoint has
    one place in one base: a second split is a ValueError."""
    v = x.values
    if v.ndim != 2 or axis not in (0, 1) or k < 1 or v.shape[axis] % k:
        raise ShapeMismatchError(f"split: {k} equal pieces along axis {axis} of shape {x.shape}")
    (rows, cols), cls = v.shape, type(x)
    pieces = []
    for view in (v.reshape(rows, k, cols // k).swapaxes(0, 1) if axis
                 else v.reshape(k, rows // k, cols)):
        # _wrap's body, inline: its call cost about as much as the view
        piece = cls.__new__(cls)
        piece.values, piece.grad, piece.key = view, None, None
        pieces.append(piece)
    tape = _active_tape
    if tape is not None and not isinstance(x, Constant):
        base = x.key or x
        if base in tape.splits or x in tape.pieces:
            raise ValueError("split: a tensor split on this tape, or a piece of one, is split again")
        tape.splits[base] = pieces, axis
        tape.pieces.update(pieces)
    return pieces


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


class _Adjoint:
    """A tensor's adjoint in ``backward`` once it is a matmul's left operand,
    or a split base's once a dense term reaches it: the dense sum (``+``
    adds to it, as to an array), pending factor pairs with their column
    count, and the base's split ``(pieces, axis)``, if any."""

    __slots__ = ("dense", "columns", "gs", "bts", "split")

    def __init__(self, dense, split=None):
        self.dense, self.columns, self.gs, self.bts = dense, 0, [], []
        self.split = split

    def __add__(self, g):
        self.dense = g if self.dense is None else self.dense + g
        return self

    def contract(self) -> np.ndarray:
        g = _contract(self.gs, self.bts)
        self.columns, self.gs, self.bts = 0, [], []
        return g

    def total(self, table: dict):
        """The pending pairs' contraction, plus the pieces' joined
        adjoints, plus the dense sum, in that order; None if nothing was
        added."""
        g = self.contract() if self.gs else None
        if self.split is not None:
            part = _joined_pieces(self.split, table)
            if part is not None:
                g = part if g is None else g + part
        if self.dense is not None:
            g = self.dense if g is None else g + self.dense
        return g


def _joined_pieces(split: tuple, table: dict):
    """A split's pieces' adjoints, taken out of the adjoint table, in one
    array, zeros for a piece none reached, column-major along axis 1;
    None, after one membership pass, if none was reached."""
    pieces, axis = split
    if not any(map(table.__contains__, pieces)):
        return None
    gs = [_total(table.pop(p, None), table) for p in pieces]
    gs = [np.zeros(p.shape) if g is None else g for p, g in zip(pieces, gs)]
    rows, cols = pieces[0].shape
    k = len(gs)
    out = np.empty((rows, cols * k), order="F") if axis else np.empty((rows * k, cols))
    return np.concatenate(gs, axis=axis, out=out)


def _total(g, table: dict):
    """An adjoint table entry as one array, or None if nothing was added:
    an ``_Adjoint``'s total, the joined pieces of a split that no dense
    term reached, or the entry itself."""
    if type(g) is _Adjoint:
        return g.total(table)
    if type(g) is tuple:
        return _joined_pieces(g, table)
    return g


def backward(tape: Tape, root: Tensor) -> None:
    """Add d(root)/d(leaf) into every leaf's grad slot, emptying the tape.

    Leaves are the tensors no node of the tape made (parameters, inputs,
    initial states), which its nodes list as themselves; grads accumulate
    across tapes until zeroed. A tensor made on an earlier tape is listed
    by that tape's key, which names no node here: if an adjoint reaches
    one, ``StaleTensorError`` is raised before any grad is written, since
    the tape cannot reach the tensor to give it its gradient. Every sum of
    two contributions to an adjoint is a new array.

    The adjoint table is keyed by the nodes' keys and the leaves. An
    adjoint is an array, or an ``_Adjoint`` once the tensor is a matmul's
    left operand, whose factor pairs ``(g, bt)`` are contracted per
    ``CONTRACT_BLOCK`` columns. A split base's entry starts as its split,
    ``(pieces, axis)``, and becomes an ``_Adjoint`` only when a dense term
    or a factor pair reaches the base, so a split none of whose pieces is
    reached builds nothing and costs one membership pass. The whole
    adjoint is taken when the tensor's node is replayed or, for a leaf, at
    the end; a split's pieces are consumers of its base, so by then every
    node that reads one has replayed.
    """
    if root.values.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    adjoint = tape.splits
    tape.splits, tape.pieces = {}, set()
    seed, ref = np.ones_like(root.values), root.key or root
    split = adjoint.get(ref)
    adjoint[ref] = seed if split is None else _Adjoint(seed, split)
    get, pop, nodes, ndarray = adjoint.get, adjoint.pop, tape.nodes, np.ndarray

    def entry(ref) -> _Adjoint:
        acc = get(ref)
        if type(acc) is not _Adjoint:
            acc = adjoint[ref] = _Adjoint(None, acc) if type(acc) is tuple else _Adjoint(acc)
        return acc

    while nodes:
        inputs, key, vjp = nodes.pop()
        g = pop(key, None)
        if type(g) is not ndarray:
            g = _total(g, adjoint)
        if g is None or not inputs:
            continue
        # a pick replays as the one-hot product it stands for
        if type(vjp) is Selector:
            vjp = _MatmulVjp(None, vjp.transpose())
        # a matmul replays inline, keeping its left operand's factor pair
        if type(vjp) is _MatmulVjp:
            at, bt = vjp.at, vjp.bt
            contributions = () if at is None else ((inputs[-1], at.dot(g)),)
            if bt is not None:
                acc = entry(inputs[0])
                acc.columns += g.shape[1]
                acc.gs.append(g)
                acc.bts.append(bt)
                if acc.columns >= CONTRACT_BLOCK:
                    contributions += ((inputs[0], acc.contract()),)
        else:
            contributions = zip(inputs, vjp(g))
        for ref, gi in contributions:
            if gi is None:
                continue
            prev = get(ref)
            if prev is None:
                adjoint[ref] = gi
            elif type(prev) is tuple:   # a split base's first dense term
                adjoint[ref] = _Adjoint(gi, prev)
            else:
                adjoint[ref] = prev + gi
    # each node's adjoint went with it, so only leaves are left (and the
    # keys of tensors made on earlier tapes), each leaf base's entry before
    # its pieces'
    grads = []
    for ref in list(adjoint):
        g = _total(pop(ref, None), adjoint)
        if g is not None:
            grads.append((ref, g))
    for ref, _ in grads:
        if not isinstance(ref, Tensor):
            raise StaleTensorError(
                "backward reached a tensor made on an earlier tape; no node of this "
                "tape made it, and the tape cannot reach it to write its grad")
    # a first grad is a private copy, since the adjoint may be an array a
    # vjp also handed to another tensor
    for t, g in grads:
        if not isinstance(t, Constant):
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
