"""Autodiff core: frozen forward values, finite-difference gradients,
tape semantics, and the Adam update."""

import gc
import math
import sys
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import sralstm.diffcore as dc
from sralstm.diffcore import Tensor, Tape

from helpers import (fd_check, fd_grad, oracle_sigmoid, raises_shape_mismatch_unless,
                     reference_backward, rel_err, scaled_err)

FD_TOL = 1e-6      # single-primitive gradients
EXACT = 0.0


# ---------------------------------------------------------------------------
# tensor basics

def test_tensor_copies_and_casts_to_float64():
    src = np.array([[1, 2]], dtype=np.int32)
    t = Tensor(src)
    assert t.values.dtype == np.float64
    src[0, 0] = 99
    assert t.values[0, 0] == 1.0


def test_tensor_rejects_non_finite():
    with pytest.raises(dc.NonFiniteError):
        Tensor([[np.nan]])
    with pytest.raises(dc.NonFiniteError):
        Tensor([[np.inf, 0.0]])


def test_item_requires_scalar():
    assert Tensor([[3.5]]).item() == 3.5
    with pytest.raises(dc.ShapeMismatchError):
        Tensor([[1.0, 2.0]]).item()


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(dc.matmul(a, b).values, b.values)


def test_matmul_dot_product_frozen():
    out = dc.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(dc.ShapeMismatchError) as e:
        dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_matmul_rejects_non_2d():
    with pytest.raises(dc.ShapeMismatchError):
        dc.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_matmul_gradient_matches_finite_differences():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[2.0, 3.0], [5.0, 7.0]])
    with Tape() as tape:
        loss = dc.sum_all(dc.matmul(a, b))
        dc.backward(tape, loss)

    def f():
        return float(np.sum(a.values @ b.values))

    assert fd_check(f, a) < FD_TOL
    assert fd_check(f, b) < FD_TOL


# ---------------------------------------------------------------------------
# elementwise ops

def test_sigmoid_at_zero():
    assert dc.sigmoid(Tensor([[0.0]])).values[0, 0] == 0.5


def test_tanh_relu_zero_cases():
    assert dc.tanh(Tensor([[0.0]])).values[0, 0] == 0.0
    assert dc.relu(Tensor([[-3.0]])).values[0, 0] == 0.0


def test_sigmoid_gradient_at_one():
    x = Tensor([[1.0]])
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.sigmoid(x)))
    assert fd_check(lambda: float(oracle_sigmoid(x.values).sum()), x) < FD_TOL


def test_sigmoid_saturates_without_overflow_error():
    out = dc.sigmoid(Tensor([[-800.0, 800.0]]))
    assert 0.0 <= out.values[0, 0] <= 1e-308
    assert out.values[0, 1] == 1.0


# exp(-x) of the plain formula overflows below this, ln of the largest float64
PLAIN_FINITE = -709.782712893384


@pytest.mark.parametrize("extremes", [False, True], ids=["moderate", "extreme"])
def test_sigmoid_is_bitwise_the_plain_formula_where_that_does_not_overflow(extremes):
    # 10^5 inputs across +-30 in (64, 1) columns; "extreme" plants one large
    # entry per column, some below the point where exp(-x) overflows, and
    # there the true value is below 1e-308
    rng = np.random.default_rng(11)
    columns = rng.uniform(-30.0, 30.0, size=(1563, 64, 1))
    columns.reshape(-1)[::97] = 0.0
    if extremes:
        columns[:, 0, 0] = rng.choice([-709.0, 709.0, -720.0, 800.0, -1e308], size=1563)
    for x in columns:
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        got = dc.sigmoid(Tensor(x)).values
        plain = x >= PLAIN_FINITE
        assert got[plain].tobytes() == want[plain].tobytes()
        assert np.all((0.0 <= got[~plain]) & (got[~plain] <= 1e-308))


@pytest.mark.parametrize("v", [2.0, -700.0])
def test_sigmoid_of_a_0d_tensor_is_the_plain_formula(v):
    want = 1.0 / (1.0 + np.exp(-v))
    out = dc.sigmoid(Tensor(v))
    assert out.shape == () and float(out.values) == want


def test_sigmoid_never_warns_on_extreme_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (800.0, -800.0, 1e308, -1e308):
            for x in ([[v]], v):   # a column and a 0-d tensor
                out = float(dc.sigmoid(Tensor(x)).values.reshape(()))
                if v > 0:
                    assert out == 1.0
                else:
                    assert 0.0 <= out <= 1e-308
        out = dc.sigmoid(Tensor([[-800.0], [800.0], [-1e308], [1e308]])).values.ravel()
    assert out[1::2].tolist() == [1.0, 1.0]
    assert np.all((0.0 <= out[::2]) & (out[::2] <= 1e-308))


@pytest.mark.parametrize("op", ["sigmoid", "tanh", "relu", "exp"])
def test_unary_gradients(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    x = Tensor(rng.uniform(-2.0, 2.0, size=(3, 2)))
    fn = {"sigmoid": lambda v: 1 / (1 + np.exp(-v)), "tanh": np.tanh,
          "relu": lambda v: np.maximum(v, 0.0), "exp": np.exp}[op]
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(getattr(dc, op)(x)))
    assert fd_check(lambda: float(fn(x.values).sum()), x) < FD_TOL


@pytest.mark.parametrize("op,combine", [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
])
def test_binary_gradients(op, combine):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 3)))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(getattr(dc, op)(a, b)))
    f = lambda: float(combine(a.values, b.values).sum())
    assert fd_check(f, a) < FD_TOL
    assert fd_check(f, b) < FD_TOL


def test_binary_ops_reject_shape_mismatch():
    with pytest.raises(dc.ShapeMismatchError) as e:
        dc.add(Tensor(np.ones((2, 1))), Tensor(np.ones((1, 2))))
    msg = str(e.value)
    assert "(2, 1)" in msg and "(1, 2)" in msg


def test_non_finite_op_output_raises():
    # numpy warns about the overflow; silencing it is the caller's choice
    with pytest.raises(dc.NonFiniteError), pytest.warns(RuntimeWarning, match="overflow"):
        dc.exp(Tensor([[1000.0]]))


def _column(first: float) -> Tensor:
    # a Tensor refuses non-finite values, so plant one after construction
    t = Tensor([[1.0], [1.0]])
    t.values[0, 0] = first
    return t


# the ops that can overflow, each fed a (2, 1) column x so that its output's
# first entry is x's first entry (exp's is its exponential)
CHECKED = {
    "matmul": lambda x: dc.matmul(x, Tensor([[1.0]])),
    "add": lambda x: dc.add(x, Tensor(np.zeros((2, 1)))),
    "sub": lambda x: dc.sub(x, Tensor(np.zeros((2, 1)))),
    "mul": lambda x: dc.mul(x, Tensor(np.ones((2, 1)))),
    "exp": dc.exp,
    "weighted_sum": lambda x: dc.weighted_sum(Tensor([[1.0]]), x),
    "sum_all": dc.sum_all,
    "scale": lambda x: dc.scale(x, 1.0),
}


@pytest.mark.parametrize("op,bad", [
    pytest.param(op, bad, id=f"{op}-{name}")
    for op in sorted(CHECKED)
    for name, bad in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))
    if not (op == "exp" and bad < 0)   # exp cannot output -inf
])
def test_checked_op_rejects_each_non_finite_output(op, bad):
    with pytest.raises(dc.NonFiniteError):
        CHECKED[op](_column(bad))


@pytest.mark.parametrize("op", sorted(CHECKED))
def test_checked_op_accepts_a_finite_output_whose_squares_overflow(op):
    first = math.log(1e200) if op == "exp" else 1e200
    out = CHECKED[op](_column(first)).values
    assert not math.isfinite(np.vdot(out, out))   # the fast test fails ...
    assert np.isfinite(out).all()                 # ... and the exact one passes
    assert out.flat[0] == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_overflowing_add_or_mul_of_unbounded_tensors_raises(op):
    big = Tensor([[1.0], [1.7e308]])
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError):
        getattr(dc, op)(big, Tensor(big.values.copy()))


def test_bounded_operands_skip_the_check_and_stay_finite():
    # sigmoid and tanh outputs lie in [-1, 1]; a product with one is at
    # most the other operand, a sum at most one more, which rounds to the
    # largest float64
    unit = dc.sigmoid(Tensor([[30.0], [-1.0]]))
    signed = dc.tanh(Tensor([[-30.0], [0.5]]))
    assert type(unit) is type(signed) is dc.Bounded
    big = Tensor([[sys.float_info.max], [-sys.float_info.max]])
    for out in (dc.mul(unit, big), dc.mul(big, signed), dc.add(unit, big), dc.add(big, signed)):
        assert type(out) is Tensor and np.isfinite(out.values).all()
    assert dc.add(unit, big).values[0, 0] == sys.float_info.max
    # only a product of two bounded tensors is bounded again
    assert type(dc.mul(unit, signed)) is dc.Bounded
    assert type(dc.add(unit, signed)) is Tensor


def test_a_selector_product_picks_exact_entries_and_takes_no_gradient(monkeypatch):
    # every column of a selector is one-hot, so the product only picks and
    # repeats columns: each entry exactly, with no finite check, and
    # columns of a bounded tensor are bounded
    sel = dc.Selector([1, 0, 2, 1], 3)
    one_hot = np.eye(3)[:, [1, 0, 2, 1]]
    assert sel.shape == (3, 4) and sel.transpose().tobytes() == one_hot.T.tobytes()
    big = Tensor([[sys.float_info.max, -1e-300, 3.0], [0.1, -sys.float_info.max, 5e-324]])
    checked, fresh = [], dc._fresh
    monkeypatch.setattr(dc, "_fresh", lambda arr: checked.append(arr) or fresh(arr))
    out = dc.matmul(big, sel)
    assert checked == [] and type(out) is Tensor
    assert out.values.tobytes() == big.values[:, [1, 0, 2, 1]].tobytes()
    assert out.values.flags.c_contiguous
    x = Tensor(np.random.default_rng(4).normal(size=(2, 3)))
    weights = dc.Constant(np.arange(8.0).reshape(2, 4))
    with Tape() as tape:
        picked = dc.matmul(dc.tanh(x), sel)
        root = dc.sum_all(dc.mul(picked, weights))
    assert type(picked) is dc.Bounded
    assert picked.values.tobytes() == np.tanh(x.values)[:, [1, 0, 2, 1]].tobytes()
    assert not any(t is sel for inputs, _, _ in tape.nodes for t in inputs)
    dc.backward(tape, root)
    assert sel.grad is None
    want = weights.values.dot(one_hot.T) * (1.0 - np.tanh(x.values) ** 2)
    assert rel_err(x.grad, want) <= 1e-15
    # called, it is the one-hot product's vjp
    g = np.arange(8.0).reshape(2, 4)
    assert sel(g)[0].tobytes() == g.dot(one_hot.T).tobytes()


def _pick(kind: str, lo: int, hi: int, cols: int) -> dc.Tensor:
    """Columns lo .. hi - 1 of cols, picked by an index ``Selector``, or
    by the plain one-hot ``Constant`` it stands for."""
    if kind == "one-hot":
        return dc.Constant(np.eye(cols)[:, lo:hi])
    return dc.Selector(np.arange(lo, hi), cols)


def _range_pick_root(x, ranges, weights, kind: str):
    """sum(tanh(x) @ R * weights) over the picks R of ranges, each by a
    pick of that kind."""
    root = None
    for (lo, hi), wt in zip(ranges, weights):
        picked = dc.matmul(dc.tanh(x), _pick(kind, lo, hi, x.shape[1]))
        term = dc.sum_all(dc.mul(picked, dc.Constant(wt)))
        root = term if root is None else dc.add(root, term)
    return root


@pytest.mark.parametrize("ranges", [[(3, 4)], [(1, 5)], [(0, 7)], [(1, 5), (3, 7), (4, 5)]],
                         ids=["one-column", "range", "all", "overlapping"])
def test_a_column_range_product_is_the_one_hot_product_bit_for_bit(ranges):
    rng = np.random.default_rng(len(ranges))
    x = Tensor(rng.normal(size=(5, 7)))
    weights = [rng.normal(size=(5, hi - lo)) for lo, hi in ranges]
    kinds = ("one-hot", "index")
    one_hot, gather = (_pick(kind, *ranges[0], 7) for kind in kinds)
    assert gather.shape == one_hot.shape == (7, ranges[0][1] - ranges[0][0])
    picked = [dc.matmul(x, pick).values for pick in (one_hot, gather)]
    assert picked[0].tobytes() == picked[1].tobytes()
    assert not np.shares_memory(picked[1], x.values)
    grads = []
    for kind in kinds:
        x.grad = None
        with Tape() as tape:
            root = _range_pick_root(x, ranges, weights, kind)
        dc.backward(tape, root)
        grads.append(x.grad)
    # overlapping picks of one tensor add their adjoints in replay order
    assert grads[0].tobytes() == grads[1].tobytes()


def test_index_gathers_take_the_one_hot_products_gradient_bit_for_bit():
    # three gathers of 132 of 12 columns, as a scene of 12 gathers its
    # motion states: their factor pairs cross CONTRACT_BLOCK, and each
    # replays with the one-hot matrix's transpose in the dense factor's
    # column-major layout, so the contraction runs the same BLAS call
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(64, 12)))
    idx = [rng.integers(0, 12, 132) for _ in range(3)]
    cs = [dc.Constant(rng.normal(size=(64, 132))) for _ in range(3)]
    assert 3 * 132 > dc.CONTRACT_BLOCK
    grads = []
    for pick in (lambda i: dc.Selector(i, 12), lambda i: dc.Constant(np.eye(12)[:, i])):
        x.grad = None
        with Tape() as tape:
            terms = [dc.sum_all(dc.mul(dc.matmul(dc.tanh(x), pick(i)), c))
                     for i, c in zip(idx, cs)]
            root = dc.add(dc.add(terms[0], terms[1]), terms[2])
        dc.backward(tape, root)
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_column_range_picks_a_constant_or_a_bounded_operand():
    c = dc.Constant(np.arange(12.0).reshape(3, 4))
    r = dc.Selector([1, 2], 4)
    with Tape() as tape:
        folded = dc.matmul_or_constant(c, r)
        assert len(tape) == 0
        plain = dc.matmul(c, r)
        bounded = dc.matmul(dc.tanh(Tensor(c.values / 12.0)), r)
    assert type(folded) is dc.Constant
    assert folded.values.tobytes() == plain.values.tobytes() == c.values[:, 1:3].tobytes()
    # a constant operand takes no gradient, so its pick has no input
    assert tape.nodes[0][0] == ()
    assert type(plain) is Tensor and type(bounded) is dc.Bounded
    assert r.grad is None


def test_a_column_range_checks_its_range_and_its_operand():
    for index in ([-1, 0, 1], [3, 4], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match="outside 4 columns"):
            dc.Selector(index, 4)
    for shape in ((3, 3), (3, 5), (4,), (2, 3, 4)):
        with pytest.raises(dc.ShapeMismatchError):
            dc.matmul(Tensor(np.ones(shape)), dc.Selector([0, 1], 4))


def test_a_selector_index_outside_its_rows_or_a_minus_of_another_length_is_refused():
    for index, minus in (([0, 4], None), ([-1, 2], None), ([0, 1], [0, 4]), ([[0, 1]], None)):
        with pytest.raises(ValueError, match="outside 4 columns"):
            dc.Selector(index, 4, minus=minus)
    for minus in ([0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(ValueError):
            dc.Selector([0, 1], 4, minus=minus)
    # a view of columns is a piece of dc.split; a selector holds indices
    for minus in (None, [0, 1]):
        with pytest.raises(TypeError):
            dc.Selector(slice(0, 2), 4, minus=minus)
    assert dc.Selector([], 0).shape == (0, 0)


def test_a_selector_difference_that_overflows_is_not_finite():
    big = [[sys.float_info.max, -sys.float_info.max]]
    spread = dc.Selector([0, 1], 2, minus=[1, 1])
    for pick in (lambda: dc.matmul(Tensor(big), spread),
                 lambda: dc.matmul_or_constant(dc.Constant(big), spread)):
        with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError):
            pick()
    # where it stays finite, each entry is one exact difference
    x = Tensor([[3.0, 5e-324, -1e300]])
    out = dc.matmul(x, dc.Selector([0, 2, 1], 3, minus=[1, 0, 2]))
    assert type(out) is Tensor
    assert out.values.tolist() == [[3.0 - 5e-324, -1e300 - 3.0, 5e-324 + 1e300]]


def test_an_index_gather_keeps_a_bounded_operand_bounded():
    b = dc.tanh(Tensor([[0.5, -2.0, 3.0]]))
    for pick in (dc.Selector([2, 0, 0], 3), dc.Selector([1, 2], 3)):
        assert type(dc.matmul(b, pick)) is dc.Bounded
        assert type(dc.matmul(Tensor(b.values), pick)) is Tensor
    # a difference of two entries in [-1, 1] may leave it
    assert type(dc.matmul(b, dc.Selector([2], 3, minus=[1]))) is Tensor


def test_column_range_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 6)))
    probe = [dc.Constant(rng.normal(size=(3, 3))), dc.Constant(rng.normal(size=(3, 1)))]

    def f():
        head = dc.matmul(dc.tanh(x), dc.Selector([1, 2, 3], 6))
        tail = dc.matmul(x, dc.Selector([3], 6))
        return dc.add(dc.sum_all(dc.mul(dc.mul(head, head), probe[0])),
                      dc.sum_all(dc.mul(tail, probe[1])))

    with Tape() as tape:
        dc.backward(tape, f())
    assert fd_check(lambda: f().item(), x) < FD_TOL
    # columns no range picks take an exact zero
    assert not x.grad[:, [0, 4, 5]].any()


def test_split_cuts_equal_views_of_its_base_and_records_no_node():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 6)))
    b = dc.tanh(Tensor(rng.normal(size=(4, 6))))
    c = dc.Constant(rng.normal(size=(4, 6)))
    with Tape() as tape:
        cols, rows, consts = dc.split(x, 3, axis=1), dc.split(b, 2, axis=0), dc.split(c, 6, 1)
    assert len(tape) == 0
    assert [p.shape for p in cols] == [(4, 2)] * 3 and [p.shape for p in rows] == [(2, 6)] * 2
    for pieces, base, axis in ((cols, x, 1), (rows, b, 0), (consts, c, 1)):
        # each of its base's class, so a bounded block's pieces are bounded
        assert all(type(p) is type(base) for p in pieces)
        assert all(np.shares_memory(p.values, base.values) for p in pieces)
        joined = np.concatenate([p.values for p in pieces], axis=axis)
        assert joined.tobytes() == base.values.tobytes()
    # a constant takes no gradient, so its split is noted nowhere
    assert list(tape.splits) == [x, b] and tape.pieces == {*cols, *rows}
    assert [axis for _, axis in tape.splits.values()] == [1, 0]
    # the column pieces of a column-major block, as a scene's gate block,
    # are contiguous
    block = Tensor(np.zeros((4, 5)))
    block.values = np.asfortranarray(rng.normal(size=(4, 5)))
    assert all(p.values.flags.c_contiguous for p in dc.split(block, 5, axis=1))


def test_split_needs_equal_pieces_of_a_matrix_along_axis_0_or_1():
    x = Tensor(np.ones((4, 6)))
    for k, axis in ((4, 1), (0, 1), (3, 0), (2, 2), (2, -1)):
        with pytest.raises(dc.ShapeMismatchError, match="split"):
            dc.split(x, k, axis)
    for shape in ((6,), (2, 2, 2)):
        with pytest.raises(dc.ShapeMismatchError, match="split"):
            dc.split(Tensor(np.ones(shape)), 2, 0)


def test_a_tensor_is_split_once_per_tape_and_a_piece_not_at_all():
    # each piece's adjoint has one place in one base; a second split of a
    # tensor would otherwise take the place of the first
    x = Tensor(np.ones((2, 4)))
    with Tape() as tape:
        pieces = dc.split(x, 2, axis=1)
        for again in (lambda: dc.split(x, 2, axis=1), lambda: dc.split(x, 2, axis=0),
                      lambda: dc.split(pieces[0], 2, axis=1)):
            with pytest.raises(ValueError, match="split again"):
                again()
        assert tape.splits == {x: (pieces, 1)}
        # a constant takes no gradient, so it may be split again
        c = dc.Constant(np.ones((2, 4)))
        assert len(dc.split(c, 2, axis=1)) == len(dc.split(c, 4, axis=1)) - 2
    # without a tape nothing is noted, and backward empties the tape
    assert len(dc.split(x, 4, axis=1)) == len(dc.split(x, 4, axis=1)) == 4
    with Tape() as tape:
        dc.split(x, 2, axis=1)
        dc.backward(tape, dc.sum_all(x))
        assert tape.splits == {} and tape.pieces == set()
        dc.split(x, 2, axis=1)


def test_a_split_joins_its_pieces_adjoints_into_its_base_exactly():
    # piece 0 is used once and piece 3 twice; pieces 1 and 2 are not used,
    # so their columns join as zeros. The join is one concatenate,
    # column-major along the columns, and tanh's vjp scales it
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 8)))
    cs = [dc.Constant(rng.normal(size=(3, 2))) for _ in range(3)]
    joined = []
    with Tape() as tape:
        t = dc.tanh(x)
        pieces = dc.split(t, 4, axis=1)
        terms = [dc.sum_all(dc.mul(pieces[k], c)) for k, c in zip((3, 0, 3), cs)]
        root = dc.add(dc.add(terms[0], terms[1]), terms[2])
    inputs, key, vjp = tape.nodes[0]
    assert key is t.key and tape.splits == {t.key: (pieces, 1)}
    tape.nodes[0] = (inputs, key, lambda g: joined.append(g) or vjp(g))
    reference_backward(tape, root)
    want = x.grad
    x.grad = None
    dc.backward(tape, root)
    assert x.grad.tobytes() == want.tobytes()
    adjoint = np.hstack([cs[1].values, np.zeros((3, 4)), cs[0].values + cs[2].values])
    # the reference pass replayed the node first
    assert len(joined) == 2 and joined[1].flags.f_contiguous
    assert joined[1].tobytes(order="A") == np.asfortranarray(adjoint).tobytes(order="A")
    assert x.grad.tobytes() == (adjoint * (1.0 - t.values * t.values)).tobytes()


def test_a_split_none_of_whose_pieces_is_reached_leaves_its_base_unreplayed():
    # as at n = 2, where the one-neighbor softmax passes no adjoint to the
    # relation encoder: no piece gets an adjoint, so neither does the base,
    # its node is not replayed and the leaf behind it keeps grad None
    rng = np.random.default_rng(11)
    x, y = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(1, 1)))
    replayed = []
    with Tape() as tape:
        t = dc.tanh(x)
        first, _, _ = dc.split(t, 3, axis=1)
        weight = dc.masked_softmax(dc.matmul(dc.Constant(np.ones((1, 3))), first))
        root = dc.sum_all(dc.mul(dc.mul(weight, y), y))
    inputs, out, vjp = tape.nodes[0]
    tape.nodes[0] = (inputs, out, lambda g: replayed.append(g) or vjp(g))
    reference_backward(tape, root)
    want = y.grad
    dc.zero_grads([x, y, t])
    dc.backward(tape, root)
    assert replayed == [] and x.grad is None
    assert y.grad.tobytes() == want.tobytes() == (2.0 * y.values).tobytes()


def test_split_gradients_match_finite_differences():
    # a leaf split by rows, and its tanh split by columns with one piece
    # left out; the leaf's pieces join at the end, after every node
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(4, 6)))
    probe = [dc.Constant(rng.normal(size=(4, 2))), dc.Constant(rng.normal(size=(2, 6)))]

    def f():
        a, _, c = dc.split(dc.tanh(x), 3, axis=1)
        top, _ = dc.split(x, 2, axis=0)
        return dc.add(dc.sum_all(dc.mul(dc.mul(a, c), probe[0])),
                      dc.sum_all(dc.mul(dc.mul(top, top), probe[1])))

    with Tape() as tape:
        dc.backward(tape, f())
    assert fd_check(lambda: f().item(), x) < FD_TOL


def test_work_on_constants_alone_is_folded_and_recorded_nowhere():
    rng = np.random.default_rng(6)
    a, ones = dc.Constant(rng.normal(size=(2, 3))), dc.Constant(np.ones((1, 3)))
    b, w = dc.Selector([2, 0], 3), Tensor(rng.normal(size=(2, 3)))
    with Tape() as tape:
        folded = [dc.matmul_or_constant(a, b), dc.concat_or_constant([a, ones], axis=0),
                  dc.concat_or_constant([a, a], axis=1)]
        assert len(tape) == 0
        mixed = [dc.matmul_or_constant(w, b), dc.concat_or_constant([w, ones], axis=0)]
        assert len(tape) == 2
    assert all(type(t) is dc.Constant for t in folded)
    assert all(type(t) is Tensor for t in mixed)
    plain = [dc.matmul(a, dc.Constant(np.eye(3)[:, [2, 0]])), dc.concat([a, ones], axis=0),
             dc.concat([a, a], axis=1)]
    assert [t.values.tobytes() for t in folded] == [t.values.tobytes() for t in plain]
    # the checks of the primitives stay
    big = dc.Constant([[1e200]])
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError):
        dc.matmul_or_constant(big, big)
    with pytest.raises(dc.ShapeMismatchError):
        dc.matmul_or_constant(a, a)
    with pytest.raises(dc.ShapeMismatchError):
        dc.concat_or_constant([a, ones], axis=1)


@pytest.mark.parametrize("op", ["sigmoid", "tanh", "relu", "concat", "masked_softmax"])
def test_bounded_op_stays_finite_on_extreme_inputs(op):
    x = Tensor([[1e308], [-1e308], [0.0]])
    apply = {"sigmoid": dc.sigmoid, "tanh": dc.tanh, "relu": dc.relu,
             "concat": lambda t: dc.concat([t, t], axis=1),
             "masked_softmax": lambda t: dc.masked_softmax(t, [True, True, True])}[op]
    # exp(1e308) and 1e308 - (-1e308) overflow on the way; silence numpy
    with np.errstate(over="ignore"):
        out = apply(x).values
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# concat

def test_concat_axis1_frozen():
    out = dc.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=1)
    assert out.values.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_concat_single_tensor_copies_values():
    t = Tensor([[1.0], [2.0]])
    out = dc.concat([t], axis=0)
    assert np.array_equal(out.values, t.values)
    assert out is not t


def test_concat_gradient_routes_ones():
    a = Tensor(np.ones((2, 1)))
    b = Tensor(np.ones((3, 1)))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.concat([a, b], axis=0)))
    assert np.array_equal(a.grad, np.ones((2, 1)))
    assert np.array_equal(b.grad, np.ones((3, 1)))


def test_concat_gradient_splits_by_position():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0]])
    with Tape() as tape:
        joined = dc.concat([a, b], axis=1)
        weighted = dc.mul(joined, Tensor([[10.0, 20.0, 30.0]]))
        dc.backward(tape, dc.sum_all(weighted))
    assert a.grad.tolist() == [[10.0, 20.0]]
    assert b.grad.tolist() == [[30.0]]


def test_concat_rejects_off_axis_mismatch_and_bad_axis():
    with pytest.raises(dc.ShapeMismatchError):
        dc.concat([Tensor(np.ones((2, 1))), Tensor(np.ones((2, 2)))], axis=0)
    with pytest.raises(dc.ShapeMismatchError):
        dc.concat([Tensor(np.ones((2, 1)))], axis=2)
    with pytest.raises(dc.ShapeMismatchError):
        dc.concat([], axis=0)


# operand shapes of rank 0-3 with sizes 0-6, about half of them 2-D
shapes = st.one_of(st.lists(st.integers(0, 6), max_size=3).map(tuple),
                   st.tuples(st.integers(0, 6), st.integers(0, 6)))


def _resized(shape: tuple, axis: int, size: int) -> tuple:
    return shape[:axis] + (size,) + shape[axis + 1:] if 0 <= axis < len(shape) else shape


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_matmul_and_concat_fail_on_wrong_shapes_only_with_shape_mismatch(data):
    a = data.draw(shapes)
    b = data.draw(st.one_of(shapes, shapes.map(lambda s: a[-1:] + s[1:])))
    raises_shape_mismatch_unless(
        len(a) == 2 and len(b) == 2 and a[1] == b[0],
        lambda: dc.matmul(Tensor(np.ones(a)), Tensor(np.ones(b))))
    axis = data.draw(st.integers(-1, 2))
    base = data.draw(shapes)
    parts = data.draw(st.lists(
        st.one_of(shapes, st.integers(0, 6).map(lambda m: _resized(base, axis, m))),
        max_size=3))
    valid = (len(parts) > 0 and axis in (0, 1) and all(len(p) == 2 for p in parts)
             and len({p[1 - axis] for p in parts}) == 1)
    raises_shape_mismatch_unless(
        valid, lambda: dc.concat([Tensor(np.ones(p)) for p in parts], axis))


# ---------------------------------------------------------------------------
# masked softmax

def test_masked_softmax_symmetric_pair():
    out = dc.masked_softmax(Tensor([[0.0], [0.0]]), [True, True])
    assert out.values.tolist() == [[0.5], [0.5]]


@pytest.mark.parametrize("c", [0.0, 100.0, -50.0])
def test_masked_softmax_third_two_thirds_any_shift(c):
    logits = Tensor([[c], [c + np.log(2.0)]])
    out = dc.masked_softmax(logits, [True, True]).values.reshape(-1)
    assert abs(out[0] - 1.0 / 3.0) < 1e-12
    assert abs(out[1] - 2.0 / 3.0) < 1e-12


def test_masked_softmax_shift_invariance_tight():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=4)
    base = dc.masked_softmax(Tensor(logits.reshape(4, 1)),
                             [True] * 4).values
    shifted = dc.masked_softmax(Tensor((logits + 123.75).reshape(4, 1)),
                                [True] * 4).values
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_masked_softmax_masked_entries_exactly_zero():
    out = dc.masked_softmax(Tensor([[5.0], [99.0]]), [True, False])
    assert out.values.tolist() == [[1.0], [0.0]]


def test_masked_softmax_all_masked_raises():
    with pytest.raises(dc.EmptyNeighborSetError):
        dc.masked_softmax(Tensor([[1.0], [2.0]]), [False, False])


def test_masked_softmax_rejects_matrix_and_bad_mask():
    with pytest.raises(dc.ShapeMismatchError):
        dc.masked_softmax(Tensor(np.ones((2, 2))), [True] * 4)
    with pytest.raises(dc.ShapeMismatchError):
        dc.masked_softmax(Tensor([[1.0], [2.0]]), [True])


def test_masked_softmax_gradient():
    logits = Tensor(np.array([[0.3], [-1.2], [0.8]]))
    probe = np.array([[1.0], [2.0], [-0.5]])

    def f():
        flat = logits.values.reshape(-1)
        e = np.exp(flat - flat.max())
        return float(((e / e.sum()).reshape(3, 1) * probe).sum())

    with Tape() as tape:
        out = dc.masked_softmax(logits, [True] * 3)
        dc.backward(tape, dc.sum_all(dc.mul(out, Tensor(probe))))
    assert fd_check(f, logits) < FD_TOL


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_softmax_without_a_mask_is_the_all_true_mask_bit_for_bit(k):
    # values, vjp and the one-entry rule are those of a mask that leaves
    # every entry unmasked
    rng = np.random.default_rng(k)
    logits = Tensor(rng.normal(size=(1, k)) * 30.0)
    g = rng.normal(size=(1, k))
    nodes = []
    for mask in ([True] * k, None):
        with Tape() as tape:
            out = dc.masked_softmax(logits) if mask is None else dc.masked_softmax(logits, mask)
        nodes.append((out.values.tobytes(), tape.nodes[0][2](g)))
    assert nodes[0][0] == nodes[1][0]
    if k == 1:
        assert nodes[0][1] == nodes[1][1] == (None,)
    else:
        assert nodes[0][1][0].tobytes() == nodes[1][1][0].tobytes()
    with pytest.raises(dc.EmptyNeighborSetError):
        dc.masked_softmax(Tensor(np.zeros((1, 0))))


def test_masked_softmax_gradient_zero_on_masked_entries():
    logits = Tensor(np.array([[0.3], [9.9], [0.8]]))
    with Tape() as tape:
        out = dc.masked_softmax(logits, [True, False, True])
        dc.backward(tape, dc.sum_all(dc.mul(out, Tensor([[1.0], [5.0], [2.0]]))))
    assert logits.grad[1, 0] == 0.0


@pytest.mark.parametrize("mask", [[True, True], [True, False, True], [False, True, True, True]])
def test_masked_softmax_gradient_over_two_or_more_entries(mask):
    rng = np.random.default_rng(len(mask))
    logits = Tensor(rng.normal(size=(len(mask), 1)))
    probe = Tensor(rng.normal(size=(len(mask), 1)))

    def f():
        return dc.sum_all(dc.mul(dc.masked_softmax(logits, mask), probe))

    with Tape() as tape:
        dc.backward(tape, f())
    assert fd_check(lambda: f().item(), logits) < FD_TOL


@pytest.mark.parametrize("mask", [[True], [False, True, False]])
def test_a_one_entry_softmax_is_recorded_but_passes_no_adjoint(mask):
    # its output is the constant 1 at that entry, so the adjoint of its
    # logits is identically zero: backward adds none and replays nothing
    # behind them, and a leaf that feeds only them gets no grad
    k = len(mask)
    a, b = Tensor(np.full((k, 1), 0.5)), Tensor(np.arange(1.0, k + 1.0).reshape(k, 1))
    values = Tensor(np.full((3, k), 2.0))
    with Tape() as tape:
        logits = dc.mul(a, b)
        weights = dc.masked_softmax(logits, mask)
        root = dc.sum_all(dc.weighted_sum(weights, values))
    assert len(tape) == 4
    assert tape.nodes[1][:2] == ((logits.key,), weights.key)
    replayed = []
    inputs, key, vjp = tape.nodes[0]
    tape.nodes[0] = (inputs, key, lambda g: replayed.append(g) or vjp(g))
    dc.backward(tape, root)
    assert replayed == []
    assert a.grad is None and b.grad is None
    assert np.array_equal(values.grad, np.tile(weights.values.T, (3, 1)))


def test_a_tensor_behind_a_one_entry_softmax_keeps_its_live_grad_bit_for_bit():
    rng = np.random.default_rng(5)
    x, v = Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=(4, 1)))
    w = Tensor(rng.normal(size=(1, 4)))

    def live(h):
        return dc.sum_all(dc.mul(dc.sigmoid(dc.mul(h, v)), h))

    with Tape() as tape:
        dc.backward(tape, live(dc.tanh(x)))
    want = x.grad
    dc.zero_grads([x, v])
    with Tape() as tape:
        h = dc.tanh(x)
        weights = dc.masked_softmax(dc.matmul(w, h), [True])
        dead = dc.sum_all(dc.weighted_sum(weights, dc.Constant([[3.0]])))
        dc.backward(tape, dc.add(live(h), dead))
    assert x.grad.tobytes() == want.tobytes()
    assert w.grad is None


# ---------------------------------------------------------------------------
# weighted sum

def test_weighted_sum_matches_matmul_oracle():
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(4, 1)))
    cols = Tensor(rng.normal(size=(5, 4)))
    out = dc.weighted_sum(w, cols)
    oracle = cols.values @ w.values.reshape(4, 1)
    assert rel_err(out.values, oracle) < 1e-12


def test_weighted_sum_gradient():
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(3, 1)))
    cols = Tensor(rng.normal(size=(4, 3)))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.weighted_sum(w, cols)))
    f = lambda: float((cols.values @ w.values.reshape(3, 1)).sum())
    assert fd_check(f, w) < FD_TOL
    assert fd_check(f, cols) < FD_TOL


def test_weighted_sum_shape_errors():
    with pytest.raises(dc.ShapeMismatchError):
        dc.weighted_sum(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 3))))


@pytest.mark.parametrize("a_shape,b_shape", [
    ((6, 5), (5, 1)),     # W @ column: g @ b.T has inner size 1
    ((1, 7), (7, 1)),     # row @ column: both products have inner size 1
    ((3, 1), (1, 4)),     # inner size 1 forward, neither vjp product
])
def test_matmul_vjp_is_byte_identical_to_plain_products(a_shape, b_shape):
    # exact zeros of both signs against a negative adjoint make -0.0
    # products, which a K=1 product reads as +0.0
    rng = np.random.default_rng(zlib.crc32(repr((a_shape, b_shape)).encode()))
    av = rng.normal(size=a_shape)
    bv = rng.normal(size=b_shape)
    av.flat[::3] = 0.0
    bv.flat[::2] = -0.0
    g = -np.abs(rng.normal(size=(a_shape[0], b_shape[1])))
    g.flat[1::4] = 0.0
    a, b = Tensor(av), Tensor(bv)
    with Tape() as tape:
        dc.matmul(a, b)
    (inputs, _, vjp), = tape.nodes
    ga, gb = vjp(g)
    assert inputs == (a, b)
    assert ga.tobytes() == (g @ bv.T).tobytes()
    assert gb.tobytes() == (av.T @ g).tobytes()


# the model's one-column products: a relation gate, a motion gate, an
# embedding, the sra scorer and the output head
MODEL_PRODUCTS = [((64, 96), (96, 1)), ((64, 160), (160, 1)), ((32, 2), (2, 1)),
                  ((1, 192), (192, 1)), ((2, 64), (64, 1))]


def _signed_zeros(rng, shape):
    x = rng.normal(size=shape)
    x.flat[::3] = 0.0
    x.flat[1::5] = -0.0
    return x


@pytest.mark.parametrize("a_shape,b_shape", MODEL_PRODUCTS)
def test_matmul_products_are_byte_identical_to_matmul_operator(a_shape, b_shape):
    rng = np.random.default_rng(zlib.crc32(repr(a_shape).encode()))
    for _ in range(20):
        av, bv = _signed_zeros(rng, a_shape), _signed_zeros(rng, b_shape)
        g = -np.abs(_signed_zeros(rng, (a_shape[0], 1)))
        a, b = Tensor(av), Tensor(bv)
        with Tape() as tape:
            out = dc.matmul(a, b)
            # the adjoint reaching out is g * 1.0, i.e. g's own bits
            dc.backward(tape, dc.sum_all(dc.mul(out, Tensor(g))))
        assert out.values.tobytes() == (av @ bv).tobytes()
        # backward replays the matmul inline: b gets a.T @ g from the
        # transposed view, a the product of its one factor pair, g @ b.T
        assert b.grad.tobytes() == (av.T @ g).tobytes()
        assert a.grad.tobytes() == (g @ bv.T).tobytes()
        with Tape() as tape:
            dc.matmul(a, b)
        (_, _, vjp), = tape.nodes
        ga, gb = vjp(g)
        assert ga.tobytes() == (g @ bv.T).tobytes()
        assert gb.tobytes() == (av.T @ g).tobytes()


@pytest.mark.parametrize("k", [1, 7, 15])
def test_weighted_sum_products_are_byte_identical_to_matmul_operator(k):
    rng = np.random.default_rng(k)
    cv, wv = _signed_zeros(rng, (64, k)), _signed_zeros(rng, (k, 1))
    g = _signed_zeros(rng, (64, 1))
    with Tape() as tape:
        out = dc.weighted_sum(Tensor(wv), Tensor(cv))
    (_, _, vjp), = tape.nodes
    gw, gc_ = vjp(g)
    assert out.values.tobytes() == (cv @ wv.reshape(-1)).reshape(64, 1).tobytes()
    # the weights' adjoint is the product over the columns copied to
    # row-major, as ndarray.dot forms it for a run picked from a scene's
    # block; cv.T @ g on the contiguous block runs another gemv kernel
    assert gw.tobytes() == (np.ascontiguousarray(cv.T) @ g).tobytes()
    assert gc_.tobytes() == (g @ wv.reshape(1, -1)).tobytes()


def _segment_case(w, n=5):
    """A scene-like block of n runs of w columns, with exact zeros of both
    signs: (h, n w) neighbor states, (1, n w) logits and the adjoints of
    the (h, n) contexts and of the (1, n w) weights."""
    rng = np.random.default_rng(w)
    return (_signed_zeros(rng, (64, n * w)), rng.normal(size=(1, n * w)) * 3.0,
            _signed_zeros(rng, (64, n)), _signed_zeros(rng, (1, n * w)))


def _vjp_of(op):
    """The value and the vjp of the one node op() records."""
    with Tape() as tape:
        out = op()
    (_, _, vjp), = tape.nodes
    return out.values, vjp


@pytest.mark.parametrize("w", range(1, 16))
def test_segment_forms_are_the_per_run_vector_forms_bit_for_bit(w):
    block, logits, g_ctx, g_weights = _segment_case(w)
    n = block.shape[1] // w
    runs = [slice(k * w, (k + 1) * w) for k in range(n)]
    soft, soft_vjp = _vjp_of(lambda: dc.masked_softmax(Tensor(logits), width=w))
    ctx, ctx_vjp = _vjp_of(lambda: dc.weighted_sum(Tensor(soft), Tensor(block), width=w))
    (d_logits,), (d_weights, d_block) = soft_vjp(g_weights), ctx_vjp(g_ctx)
    assert soft.shape == d_weights.shape == (1, n * w) and ctx.shape == (64, n)
    for k, run in enumerate(runs):
        one, one_vjp = _vjp_of(lambda: dc.masked_softmax(Tensor(logits[:, run])))
        assert soft[:, run].tobytes() == one.tobytes()
        if w > 1:
            assert d_logits[:, run].tobytes() == one_vjp(g_weights[:, run])[0].tobytes()
        col, col_vjp = _vjp_of(lambda: dc.weighted_sum(Tensor(one), Tensor(block[:, run])))
        g = np.ascontiguousarray(g_ctx[:, k:k + 1])
        gw, gc_ = col_vjp(g)
        assert ctx[:, k:k + 1].tobytes() == col.tobytes()
        assert d_weights[:, run].tobytes() == gw.tobytes()
        assert np.ascontiguousarray(d_block[:, run]).tobytes() == gc_.tobytes()
        # and the bits the scene's per-run products had, on a strided view
        # of the block: ndarray.dot copies such a run to row-major. At w = 1
        # it reads the strided column in place, and those weights' adjoint
        # goes nowhere: a one-entry softmax passes none
        view, wk = block[:, run], one.reshape(-1)
        assert col.tobytes() == view.dot(wk).reshape(64, 1).tobytes()
        if w > 1:
            assert gw.tobytes() == view.T.dot(g).tobytes()
        assert gc_.tobytes() == g.dot(wk[np.newaxis, :]).tobytes()
    if w == 1:
        assert soft_vjp(g_weights) == (None,)


def test_mask_form_is_one_run_of_the_segment_form_bit_for_bit():
    # the mask form normalizes its unmasked entries as one segment run and
    # scatters them among zeros; output and vjp keep the bits of its own
    # former forward, inlined here, over random masks and vector shapes
    rng = np.random.default_rng(3)
    for case in range(3000):
        k = int(rng.integers(1, 40))
        shape = [(k,), (1, k), (k, 1)][case % 3]
        flat = rng.normal(size=k) * rng.choice([0.1, 1.0, 10.0, 300.0])
        mask = rng.random(k) < rng.random()
        mask[rng.integers(k)] = True
        g = rng.normal(size=shape)
        shifted = np.zeros((1, k))
        shifted[0, mask] = np.exp(flat[mask] - flat[mask].max())
        s = shifted / float(np.sum(shifted[0, mask]))
        gs = g.reshape(s.shape)
        inner = np.matmul(gs[:, np.newaxis, :], s[:, :, np.newaxis])[:, 0]
        out, vjp = _vjp_of(lambda: dc.masked_softmax(Tensor(flat.reshape(shape)), mask))
        assert out.tobytes() == s.reshape(shape).tobytes()
        if mask.sum() == 1:
            assert vjp(g) == (None,)
        else:
            assert vjp(g)[0].tobytes() == (s * (gs - inner)).reshape(shape).tobytes()


@pytest.mark.parametrize("w", [1, 2, 3, 7])
def test_segment_forms_match_finite_differences(w):
    rng = np.random.default_rng(20 + w)
    n = 3
    logits = Tensor(rng.normal(size=(1, n * w)))
    block = Tensor(rng.normal(size=(4, n * w)))
    probe = Tensor(rng.normal(size=(4, n)))

    def f():
        weights = dc.masked_softmax(logits, width=w)
        return dc.sum_all(dc.mul(dc.weighted_sum(weights, block, width=w), probe))

    with Tape() as tape:
        dc.backward(tape, f())
    assert fd_check(lambda: f().item(), block) < FD_TOL
    if w == 1:
        # every weight is the constant 1
        assert logits.grad is None
    else:
        assert fd_check(lambda: f().item(), logits) < FD_TOL
    weights = Tensor(rng.normal(size=(1, n * w)))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.mul(dc.weighted_sum(weights, block, width=w), probe)))
    assert fd_check(lambda: dc.sum_all(dc.mul(dc.weighted_sum(weights, block, width=w),
                                              probe)).item(), weights) < FD_TOL


def test_a_one_wide_segment_softmax_is_recorded_but_passes_no_adjoint():
    logits = Tensor([[0.3, -2.0, 5.0]])
    with Tape() as tape:
        weights = dc.masked_softmax(logits, width=1)
        root = dc.sum_all(dc.weighted_sum(weights, Tensor(np.ones((2, 3))), width=1))
    assert weights.values.tolist() == [[1.0, 1.0, 1.0]]
    assert tape.nodes[0][:2] == ((logits,), weights.key)
    assert tape.nodes[0][2](np.ones((1, 3))) == (None,)
    dc.backward(tape, root)
    assert logits.grad is None


def test_segment_widths_must_split_the_columns():
    logits, block = Tensor(np.zeros((1, 6))), Tensor(np.zeros((2, 6)))
    for width in (0, -2, 4, 7):
        with pytest.raises(dc.ShapeMismatchError, match="does not split"):
            dc.masked_softmax(logits, width=width)
        with pytest.raises(dc.ShapeMismatchError, match="does not split"):
            dc.weighted_sum(logits, block, width=width)
    with pytest.raises(dc.ShapeMismatchError, match="not both"):
        dc.masked_softmax(logits, [True] * 6, width=3)
    # a width that splits the columns: 6 = 2 runs of 3
    assert dc.weighted_sum(logits, block, width=3).shape == (2, 2)


@pytest.mark.parametrize("k", [2, 56, 256])
def test_contract_within_one_block_is_byte_identical_to_one_product(k):
    rng = np.random.default_rng(k)
    gs = [_signed_zeros(rng, (64, 1)) for _ in range(k)]
    bts = [_signed_zeros(rng, (1, 96)) for _ in range(k)]
    want = np.concatenate(gs, axis=1) @ np.concatenate(bts, axis=0)
    assert dc._contract(gs, bts).tobytes() == want.tobytes()


def test_contract_adds_its_blocks_in_order():
    # one weight over uses of mixed widths that span more than two blocks,
    # so blocks end past CONTRACT_BLOCK columns; each use's adjoint is its
    # constant c, and backward replays the uses last to first
    rng = np.random.default_rng(3)
    widths = [1, 3, 7, 24] * 16
    assert sum(widths) > 2 * dc.CONTRACT_BLOCK
    w = Tensor(rng.normal(size=(64, 97)))
    xs = [rng.normal(size=(97, k)) for k in widths]
    cs = [rng.normal(size=(64, k)) for k in widths]
    with Tape() as tape:
        loss = None
        for x, c in zip(xs, cs):
            term = dc.sum_all(dc.mul(dc.matmul(w, dc.Constant(x)), dc.Constant(c)))
            loss = term if loss is None else dc.add(loss, term)
        dc.backward(tape, loss)
    blocks = [[]]
    for x, c in zip(reversed(xs), reversed(cs)):
        if sum(g.shape[1] for g, _ in blocks[-1]) >= dc.CONTRACT_BLOCK:
            blocks.append([])
        blocks[-1].append((c, x.T))
    assert [sum(g.shape[1] for g, _ in block) for block in blocks] == [269, 256, 35]
    # each block is contracted in products of at most CONTRACT_BLOCK columns
    want = None
    for block in blocks:
        gs, bts = zip(*block)
        g, b = np.concatenate(gs, axis=1), np.concatenate(bts, axis=0)
        for lo in range(0, g.shape[1], dc.CONTRACT_BLOCK):
            hi = lo + dc.CONTRACT_BLOCK
            part = (b[lo:hi].T @ g[:, lo:hi].T).T
            want = part if want is None else want + part
    assert w.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("cols", [257, 600])
def test_contract_cuts_one_wide_pair_into_blocks_added_in_order(cols):
    # one use over a scene's pair columns is one factor pair wider than a
    # block; it is summed block by block, not in one product
    rng = np.random.default_rng(cols)
    g, bt = rng.normal(size=(64, cols)), rng.normal(size=(cols, 97))
    want = sum(b.T.dot(gp.T) for b, gp in zip(np.split(bt, range(256, cols, 256)),
                                              np.split(g, range(256, cols, 256), axis=1))).T
    assert dc._contract([g], [bt]).tobytes() == np.ascontiguousarray(want).tobytes()


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares_frozen():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.mul(x, x)))
    assert x.grad.tolist() == [[2.0], [4.0], [6.0]]


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 1)))
    with Tape() as tape:
        y = dc.mul(x, x)
        with pytest.raises(dc.ShapeMismatchError):
            dc.backward(tape, y)


def test_repeated_backward_doubles_gradients_exactly():
    # backward consumes its tape, so a repeat needs a second forward pass
    x = Tensor(np.array([[1.5], [-2.0]]))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.mul(x, x)))
    once = x.grad.copy()
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * once)


def test_gradients_accumulate_across_roots():
    x = Tensor(np.array([[2.0]]))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.mul(x, x)))   # d/dx = 4
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(x))              # d/dx = 1
    assert x.grad[0, 0] == 5.0


def test_grad_reused_operand_sums_both_paths():
    x = Tensor(np.array([[3.0]]))
    with Tape() as tape:
        # x*x + x: gradient 2x + 1 = 7
        dc.backward(tape, dc.sum_all(dc.add(dc.mul(x, x), x)))
    assert x.grad[0, 0] == 7.0


def test_backward_matches_reference_bitwise_on_shared_operands():
    # add(x, x) hands the same adjoint to both slots; s feeds two concats
    # (their vjps hand out views) and two other ops, so its adjoint sums
    # views and other contributions, each sum a new array; wide's adjoint
    # adds its split's joined pieces to its sigmoid's
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 1)))
    y = Tensor(rng.normal(size=(2, 1)))
    w = Tensor(rng.normal(size=(4, 5)))
    with Tape() as tape:
        s = dc.add(x, x)
        c = dc.concat([s, y], axis=0)
        wide = dc.concat([x, s, s], axis=1)
        first, _, last = dc.split(wide, 3, axis=1)
        terms = [dc.sum_all(dc.tanh(dc.matmul(w, c))),
                 dc.sum_all(dc.mul(s, x)),
                 dc.sum_all(dc.sigmoid(wide)),
                 dc.sum_all(dc.sub(s, x)),
                 dc.sum_all(dc.mul(first, last))]
        loss = terms[0]
        for term in terms[1:]:
            loss = dc.add(loss, term)
    leaves = (x, y, w)
    # the tape lists the outputs by their keys and holds no output itself
    intermediates = [s, c, wide, *terms, loss]
    assert {t.key for t in intermediates} <= {key for _, key, _ in tape.nodes}
    assert not any(type(t) is Tensor for inputs, _, _ in tape.nodes for t in inputs
                   if t not in (*leaves, first, last))
    reference_backward(tape, loss)
    expected = [t.grad for t in leaves]
    dc.zero_grads([*leaves, first, last])
    dc.backward(tape, loss)
    for t, e in zip(leaves, expected):
        assert t.grad.tobytes() == e.tobytes()
    assert all(t.grad is None for t in (*intermediates, first, last))


@pytest.mark.parametrize("b_cols", [1, 3])
def test_constants_take_no_gradient_and_leave_the_rest_unchanged(b_cols):
    # the same graph with its selector and ones row as Constant and as
    # plain tensors: every other input's grad has the same bits
    rng = np.random.default_rng(b_cols)
    x = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 5))
    sel = np.eye(2)[:, :1] if b_cols == 1 else rng.normal(size=(2, b_cols))
    grads = {}
    for kind in (Tensor, dc.Constant):
        xt, wt, st, ones = Tensor(x), Tensor(w), kind(sel), kind(np.ones((1, b_cols)))
        with Tape() as tape:
            picked = dc.matmul(xt, st)
            stacked = dc.concat([picked, ones], axis=0)
            loss = dc.sum_all(dc.tanh(dc.matmul(wt, stacked)))
            dc.backward(tape, loss)
        grads[kind] = (xt.grad, wt.grad, st.grad, ones.grad)
    plain, const = grads[Tensor], grads[dc.Constant]
    assert const[2] is None and const[3] is None
    assert plain[2] is not None and plain[3] is not None
    for a, b in zip(plain[:2], const[:2]):
        assert a.tobytes() == b.tobytes()


def test_ops_on_constants_alone_still_record_a_node():
    a, b = dc.Constant(np.ones((2, 2))), dc.Constant(np.ones((2, 1)))
    with Tape() as tape:
        dc.concat([a, a], axis=1)
        dc.matmul(a, b)
    assert len(tape) == 2
    assert [inputs for inputs, _, _ in tape.nodes] == [(), ()]


def test_constant_zeros_is_a_constant():
    z = dc.Constant.zeros((2, 3))
    assert type(z) is dc.Constant and z.grad is None
    assert np.array_equal(z.values, np.zeros((2, 3)))
    assert type(Tensor.zeros((1, 1))) is Tensor


def _weight_tape(uses: int, width: int = 1, seed: int = 11):
    # one weight, each use on its own block of columns; the outputs mix
    # nonlinearly
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(4, 3)))
    xs = [Tensor(rng.normal(size=(3, width))) for _ in range(uses)]
    with Tape() as tape:
        loss = dc.sum_all(dc.tanh(dc.matmul(w, xs[0])))
        for x in xs[1:]:
            y = dc.matmul(w, x)
            loss = dc.add(loss, dc.sum_all(dc.mul(y, y)))
    return tape, loss, w, xs


@pytest.mark.parametrize("uses", [1, 2, 50])
def test_weight_grad_over_column_matmuls_matches_reference(uses):
    for width in (1, 3):
        tape, loss, w, xs = _weight_tape(uses, width)
        reference_backward(tape, loss)
        expected = [t.grad for t in (w, *xs)]
        dc.zero_grads([w, *xs])
        dc.backward(tape, loss)
        if uses == 1:
            # a single narrow factor pair keeps the bits of the vjp's product
            assert w.grad.tobytes() == expected[0].tobytes(), width
        else:
            # the products are summed in one product, in another order
            assert scaled_err(w.grad, expected[0]) <= 1e-12, width
        for x, e in zip(xs, expected[1:]):
            assert x.grad.tobytes() == e.tobytes(), width


@pytest.mark.parametrize("matmuls,dense", [(1, 1), (3, 2)])
def test_weight_grad_adds_factors_and_dense_contributions(matmuls, dense):
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(3, 3)))
    xs = [Tensor(rng.normal(size=(3, 1))) for _ in range(matmuls)]
    m = Tensor(rng.normal(size=(3, 3)))
    with Tape() as tape:
        terms = [dc.sum_all(dc.tanh(dc.matmul(w, x))) for x in xs]
        terms += [dc.sum_all(dc.mul(dc.add(w, m), m)) for _ in range(dense)]
        loss = terms[0]
        for term in terms[1:]:
            loss = dc.add(loss, term)
    reference_backward(tape, loss)
    expected = w.grad
    w.grad = None
    dc.backward(tape, loss)
    if matmuls == dense == 1:
        # one factor pair plus one dense term: a single, commutative sum
        assert w.grad.tobytes() == expected.tobytes()
    else:
        assert scaled_err(w.grad, expected) <= 1e-12


def test_one_adjoint_sums_factor_pairs_picks_and_dense_terms_in_order():
    # w is the left operand of three products whose factor pairs pass
    # CONTRACT_BLOCK columns, so one block is contracted mid-replay and the
    # rest at the end; it is also split into three pairs of columns, two
    # of them used, and takes two dense adjoints. Each use's output
    # adjoint is its constant c, and backward replays the uses last to
    # first
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(4, 6)))
    xs = {"a": 50, "b": 220, "c": 100}
    xs = {k: rng.normal(size=(6, cols)) for k, cols in xs.items()}
    ds = {k: rng.normal(size=(4, 6)) for k in ("d1", "d2")}
    order = ["a", "d1", "p1", "b", "d2", "p2", "c"]
    assert sum(x.shape[1] for x in xs.values()) > dc.CONTRACT_BLOCK
    cs = {}
    with Tape() as tape:
        pieces = dict(zip(("p1", "unused", "p2"), dc.split(w, 3, axis=1)))
        loss = None
        for k in order:
            if k in xs:
                y = dc.matmul(w, dc.Constant(xs[k]))
            elif k in ds:
                y = dc.mul(w, dc.Constant(ds[k]))
            else:
                y = pieces[k]
            cs[k] = rng.normal(size=y.shape)
            term = dc.sum_all(dc.mul(y, dc.Constant(cs[k])))
            loss = term if loss is None else dc.add(loss, term)
        dc.backward(tape, loss)
    # replayed: c and b fill a block (320 columns), contracted into the
    # dense sum after d2's term; a stays pending until the end
    dense = cs["d2"] * ds["d2"]
    dense = dense + dc._contract([cs["c"], cs["b"]], [xs["c"].T, xs["b"].T])
    dense = dense + cs["d1"] * ds["d1"]
    # the unused piece's columns join as zeros, column-major
    joined = np.asfortranarray(np.hstack([cs["p1"], np.zeros((4, 2)), cs["p2"]]))
    want = dc._contract([cs["a"]], [xs["a"].T])
    want += joined
    want += dense
    assert w.grad.tobytes() == want.tobytes()


def test_non_leaf_left_operand_gets_its_factors_when_replayed():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(4, 3)))
    x1, x2 = Tensor(rng.normal(size=(3, 1))), Tensor(rng.normal(size=(3, 1)))
    with Tape() as tape:
        v = dc.tanh(w)
        y1, y2 = dc.matmul(v, x1), dc.matmul(v, x2)
        loss = dc.add(dc.sum_all(dc.mul(y1, y1)), dc.sum_all(dc.sigmoid(y2)))
    reference_backward(tape, loss)
    expected = [t.grad for t in (w, x1, x2)]
    dc.zero_grads([w, x1, x2, v])
    dc.backward(tape, loss)
    assert scaled_err(w.grad, expected[0]) <= 1e-12
    assert x1.grad.tobytes() == expected[1].tobytes()
    assert x2.grad.tobytes() == expected[2].tobytes()
    assert v.grad is None


def test_identical_tapes_give_identical_weight_grads():
    grads = []
    for _ in range(2):
        tape, loss, w, xs = _weight_tape(50)
        dc.backward(tape, loss)
        grads.append([t.grad.tobytes() for t in (w, *xs)])
    assert grads[0] == grads[1]


def test_backward_grads_never_share_memory():
    # add hands one adjoint to both operands, concat hands out views; each
    # leaf's grad slot must still be an array of its own
    a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])
    with Tape() as tape:
        s = dc.add(a, b)
        c = dc.concat([s, a], axis=0)
        root = dc.sum_all(c)
        dc.backward(tape, root)
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.tolist() == [[2.0], [2.0]]
    a.grad *= 10.0
    assert b.grad.tolist() == [[1.0], [1.0]]
    assert s.grad is None and c.grad is None and root.grad is None


# ---------------------------------------------------------------------------
# random op graphs: backward against the reference pass and finite differences

GRAPH_ROWS, GRAPH_INPUT_COLS = 2, 3
UNARY = {"sigmoid": dc.sigmoid, "tanh": dc.tanh, "relu": dc.relu,
         "exp": lambda x: dc.exp(dc.tanh(x)), "scale": lambda x: dc.scale(x, -1.5)}
BINARY = {"add": dc.add, "sub": dc.sub, "mul": dc.mul}
GRAPH_OPS = (*UNARY, *BINARY, "weight", "rows", "mix", "stack", "join", "attend", "pick",
             "split", "softmax_runs", "sum_runs")
GRAPH_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                          suppress_health_check=[HealthCheck.filter_too_much])

# a seed, the width of every intermediate (the right-hand columns of most
# matmuls), and ops that each read one or two earlier results by index
graph_specs = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 300),
    st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 15), st.integers(0, 15)),
             min_size=1, max_size=8))


class OpGraph:
    """Leaves, constants and a builder for one random op graph.

    Every intermediate is (GRAPH_ROWS, width). The leaf weight ``w`` is used
    at least twice, ``v`` multiplies a concat along rows (with a constant
    row of ones, as a folded bias), ``x`` enters through a product with a
    constant, and ``y`` and ``z`` directly, so one op may hand both the same
    adjoint. Each op's operands may be one tensor. ``pick`` picks columns
    of a sigmoid output by an index ``Selector``, repeating some and
    dropping others. ``split`` cuts a sigmoid output into runs of columns,
    as a scene step splits a gate block into its pair columns, or into its
    two rows, and joins the runs again with the first left out and the
    last used twice, so one piece takes no adjoint. ``softmax_runs`` normalizes
    each run of ``run`` columns of a score row, and ``sum_runs`` sums each
    run of one operand's columns weighted by a score row of the other, as
    a scene step forms its attention weights and social contexts.
    """

    def __init__(self, seed, width):
        rng = np.random.default_rng(seed)
        r, k = GRAPH_ROWS, GRAPH_INPUT_COLS
        self.leaves = {"w": Tensor(rng.uniform(-1.0, 1.0, (r, r))),
                       "v": Tensor(rng.uniform(-1.0, 1.0, (r, 2 * r + 1))),
                       "x": Tensor(rng.uniform(-1.0, 1.0, (r, k))),
                       "y": Tensor(rng.uniform(-1.0, 1.0, (r, width))),
                       "z": Tensor(rng.uniform(-1.0, 1.0, (r, width)))}
        self.widen = dc.Constant(rng.normal(size=(k, width)))
        self.rows = dc.Constant(rng.normal(size=(r, r)))
        self.mix = dc.Constant(rng.normal(size=(width, width)) / math.sqrt(width))
        self.merge = dc.Constant(rng.normal(size=(2 * width, width)) / math.sqrt(2 * width))
        self.score = dc.Constant(rng.normal(size=(1, r)))
        self.ones = dc.Constant(np.ones((1, width)))
        self.target = dc.Constant(rng.normal(size=(r, width)) / (r * width))
        self.mask = rng.random(width) < 0.7
        self.mask[0] = True
        self.pick = dc.Selector(rng.integers(0, width, width), width)
        self.run = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
        self.lift = dc.Constant(rng.normal(size=(r, 1)))
        runs = width // self.run
        self.spread = dc.Selector(np.repeat(np.arange(runs), self.run), runs)

    def forward(self, ops):
        """The scalar root. Every tensor made on the way goes to ``built``,
        and the values each relu reads to ``relu_inputs``."""
        w, v, x, y, z = (self.leaves[name] for name in "wvxyz")
        widened = dc.matmul(x, self.widen)
        pool = [widened, y, z, dc.matmul(w, widened)]
        self.relu_inputs = []
        for op, i, j in ops:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            if op == "relu":
                self.relu_inputs.append(a.values)
            if op in UNARY:
                out = UNARY[op](a)
            elif op in BINARY:
                out = BINARY[op](a, b)
            elif op == "weight":
                out = dc.matmul(w, a)
            elif op == "rows":
                out = dc.matmul(self.rows, a)
            elif op == "mix":
                out = dc.matmul(a, self.mix)
            elif op == "stack":
                out = dc.matmul(v, dc.concat([a, b, self.ones], axis=0))
            elif op == "join":
                out = dc.matmul(dc.concat([a, b], axis=1), self.merge)
            elif op == "pick":
                out = dc.matmul(dc.sigmoid(a), self.pick)
            elif op == "split":
                # along the rows when i is odd or a run is the whole width
                axis = int(i % 2 == 0 and self.run < a.shape[1])
                pieces = dc.split(dc.sigmoid(a), a.shape[axis] // (self.run if axis else 1),
                                  axis)
                out = dc.concat([pieces[-1], *pieces[1:]], axis=axis)
            elif op == "softmax_runs":
                scores = dc.matmul(self.score, a)
                out = dc.matmul(self.lift, dc.masked_softmax(scores, width=self.run))
            elif op == "sum_runs":
                scores = dc.matmul(self.score, b)
                out = dc.matmul(dc.weighted_sum(scores, a, width=self.run), self.spread)
            else:
                weights = dc.masked_softmax(dc.matmul(self.score, a), self.mask)
                out = dc.matmul(dc.weighted_sum(weights, b), self.ones)
            pool.append(out)
        self.built = pool
        return dc.sum_all(dc.mul(dc.matmul(w, pool[-1]), self.target))


@GRAPH_SETTINGS
@given(graph_specs)
@example((7, 300, [("weight", 3, 0), ("mix", 4, 4), ("add", 1, 2), ("join", 5, 6),
                   ("stack", 7, 3), ("relu", 8, 0), ("attend", 9, 5)]))
@example((4, 12, [("split", 0, 1), ("split", 4, 4), ("split", 5, 0), ("weight", 6, 0)]))
@example((2, 12, [("softmax_runs", 0, 0), ("sum_runs", 4, 1), ("sum_runs", 2, 5),
                  ("weight", 6, 0)]))
def test_backward_on_random_op_graphs(spec):
    seed, width, ops = spec
    graph = OpGraph(seed, width)
    try:
        with Tape() as tape:
            root = graph.forward(ops)
    except dc.NonFiniteError:
        assume(False)
    # finite differences step 1e-6; a relu input that close to its kink
    # would make them meaningless
    assume(all(np.abs(a).min() > 1e-4 for a in graph.relu_inputs))
    assume(max(float(np.abs(t.values).max()) for t in graph.built) < 1e3)
    leaves = graph.leaves.values()
    reference_backward(tape, root)
    want = {name: t.grad for name, t in graph.leaves.items()}
    dc.zero_grads(leaves)
    dc.backward(tape, root)
    for name, t in graph.leaves.items():
        if want[name] is None:
            assert t.grad is None, name
            continue
        if np.any(want[name]):
            assert scaled_err(t.grad, want[name]) <= 1e-12, name
        else:
            assert np.array_equal(t.grad, want[name]), name
        # wide leaves are checked on their first columns
        cols = t.values[:, :4]
        fd = fd_grad(lambda: graph.forward(ops).item(), cols, h=1e-6)
        assert rel_err(t.grad[:, :4], fd) <= 1e-4, name
    # a selector holds indices, no array a grad could share
    values = [t.values for t in (*graph.built, *leaves, *vars(graph).values())
              if isinstance(t, Tensor) and type(t) is not dc.Selector]
    grads = [t.grad for t in leaves if t.grad is not None]
    for k, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in values + grads[k + 1:])


def test_scale_gradient():
    x = Tensor(np.array([[2.0], [3.0]]))
    with Tape() as tape:
        dc.backward(tape, dc.sum_all(dc.scale(x, -0.5)))
    assert np.array_equal(x.grad, np.full((2, 1), -0.5))


# ---------------------------------------------------------------------------
# tape semantics

def test_ops_work_without_a_tape():
    out = dc.add(Tensor([[1.0]]), Tensor([[2.0]]))
    assert out.values[0, 0] == 3.0


def test_tape_records_only_inside_context():
    before = dc.mul(Tensor([[1.0]]), Tensor([[1.0]]))
    with Tape() as tape:
        dc.mul(Tensor([[1.0]]), Tensor([[1.0]]))
        assert len(tape) > 0
        n = len(tape)
    dc.mul(Tensor([[1.0]]), Tensor([[1.0]]))
    assert len(tape) == n
    assert before.grad is None


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_backward_empties_the_tape_and_frees_intermediates():
    x = Tensor([[0.5], [-1.0]])
    with Tape() as tape:
        hidden = dc.tanh(x)
        values = weakref.ref(hidden.values)
        root = dc.sum_all(dc.mul(hidden, hidden))
        del hidden
        assert values() is not None   # the tape still holds it
        dc.backward(tape, root)
        assert len(tape) == 0
        assert values() is None
    assert x.grad is not None


def test_tape_reusable_after_exception():
    try:
        with Tape():
            raise KeyError("boom")
    except KeyError:
        pass
    with Tape() as tape:   # the active-tape slot was released
        dc.mul(Tensor([[1.0]]), Tensor([[1.0]]))
        assert len(tape) == 1


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled_before", [True, False])
def test_tape_pauses_gc_and_restores_its_state(restore_gc, enabled_before):
    gc.enable() if enabled_before else gc.disable()
    with Tape():
        assert not gc.isenabled()
    assert gc.isenabled() == enabled_before


@pytest.mark.parametrize("enabled_before", [True, False])
def test_tape_restores_gc_state_when_the_block_raises(restore_gc, enabled_before):
    gc.enable() if enabled_before else gc.disable()
    with pytest.raises(KeyError):
        with Tape():
            raise KeyError("boom")
    assert gc.isenabled() == enabled_before


def test_nested_tape_error_leaves_gc_to_the_outer_tape(restore_gc):
    gc.enable()
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
        assert not gc.isenabled()
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# grad utilities

def test_zero_grads_and_global_norm():
    a = Tensor([[3.0]])
    b = Tensor([[4.0]])
    a.grad = np.array([[3.0]])
    b.grad = np.array([[4.0]])
    assert dc.global_grad_norm([a, b]) == 5.0
    dc.zero_grads([a, b])
    assert a.grad is None and b.grad is None


def test_global_norm_requires_grads():
    t = Tensor([[1.0]])
    with pytest.raises(dc.MissingGradientError):
        dc.global_grad_norm([t])


def test_clip_leaves_small_gradients_alone():
    t = Tensor([[1.0]])
    t.grad = np.array([[0.5]])
    norm = dc.clip_grad_norm([t], 10.0)
    assert norm == 0.5
    assert t.grad[0, 0] == 0.5


def test_clip_scales_finite_grads_whose_squares_overflow():
    a, b = Tensor([[1.0]]), Tensor([[1.0]])
    a.grad = np.array([[1e200]])
    b.grad = np.array([[-3e199]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = dc.clip_grad_norm([a, b], 10.0)
        assert abs(norm / (1e200 * math.sqrt(1.09)) - 1.0) <= 1e-12
        assert abs(dc.global_grad_norm([a, b]) - 10.0) <= 1e-12 * 10.0
    assert a.grad[0, 0] > 0.0 > b.grad[0, 0]


def test_clip_rescales_to_max_norm():
    a = Tensor([[1.0]])
    b = Tensor([[1.0]])
    a.grad = np.array([[30.0]])
    b.grad = np.array([[40.0]])
    norm = dc.clip_grad_norm([a, b], 10.0)
    assert norm == 50.0
    assert abs(dc.global_grad_norm([a, b]) - 10.0) < 1e-12


# ---------------------------------------------------------------------------
# Adam

def _named_scalar(value):
    t = Tensor([[value]])
    return {"w": t}, t


def test_adam_zero_gradient_leaves_parameter_unchanged():
    named, t = _named_scalar(1.25)
    state = dc.AdamState(named)
    t.grad = np.zeros((1, 1))
    dc.adam_step(named, state)
    assert t.values[0, 0] == 1.25
    assert state.step == 1


def test_adam_first_step_is_about_lr():
    named, t = _named_scalar(1.0)
    state = dc.AdamState(named, lr=1e-3)
    t.grad = np.ones((1, 1))
    dc.adam_step(named, state)
    # bias-corrected first step: lr * 1 / (1 + eps)
    assert abs((1.0 - t.values[0, 0]) - 1e-3) < 1e-10


def test_adam_missing_gradient_raises_before_any_update():
    a = Tensor([[1.0]])
    b = Tensor([[2.0]])
    named = {"a": a, "b": b}
    state = dc.AdamState(named)
    a.grad = np.ones((1, 1))
    with pytest.raises(dc.MissingGradientError):
        dc.adam_step(named, state)
    assert a.values[0, 0] == 1.0   # nothing moved
    assert state.step == 0


def test_adam_unknown_parameter_name_raises():
    named, t = _named_scalar(1.0)
    state = dc.AdamState(named)
    t.grad = np.ones((1, 1))
    other = Tensor([[1.0]])
    other.grad = np.ones((1, 1))
    with pytest.raises(KeyError):
        dc.adam_step({"w": t, "stranger": other}, state)


def test_adam_descends_a_quadratic():
    # scripted oracle run: f(w) = w^2 from w = 5, lr 0.1, 100 steps
    named, w = _named_scalar(5.0)
    state = dc.AdamState(named, lr=0.1)
    losses = []
    for _ in range(100):
        with Tape() as tape:
            loss = dc.sum_all(dc.mul(w, w))
            dc.backward(tape, loss)
        losses.append(loss.item())
        dc.adam_step(named, state)
        dc.zero_grads([w])
    assert abs(w.values[0, 0]) < 5.0
    # windows wide enough to average out terminal oscillation
    window = 20
    averages = [np.mean(losses[i:i + window])
                for i in range(0, 100, window)]
    assert all(b < a for a, b in zip(averages, averages[1:]))


def test_adam_grads_left_untouched():
    named, t = _named_scalar(1.0)
    state = dc.AdamState(named)
    t.grad = np.full((1, 1), 0.75)
    dc.adam_step(named, state)
    assert t.grad[0, 0] == 0.75


def test_a_tensor_made_on_an_earlier_tape_is_refused_where_an_adjoint_reaches_it():
    # y was made by a node of the first tape; the second lists it by that
    # node's key, which names no node there and cannot reach y, so backward
    # raises before it writes any grad rather than lose y's
    x = Tensor(np.array([[2.0, -1.0]]))
    with Tape() as tape:
        y = dc.tanh(x)
        dc.backward(tape, dc.sum_all(dc.mul(y, y)))
    first = x.grad.copy()
    probe = Tensor(np.array([[3.0, 5.0]]))
    with Tape() as tape:
        root = dc.sum_all(dc.mul(y, probe))
        assert tape.nodes[0][0] == (y.key, probe)
        with pytest.raises(dc.StaleTensorError, match="earlier tape"):
            dc.backward(tape, root)
    assert y.grad is None and probe.grad is None
    assert x.grad.tobytes() == first.tobytes()
    # read where no adjoint reaches it, it is no error
    with Tape() as tape:
        dc.mul(y, probe)
        dc.backward(tape, dc.sum_all(dc.mul(probe, probe)))
    assert probe.grad.tolist() == [[6.0, 10.0]] and y.grad is None
