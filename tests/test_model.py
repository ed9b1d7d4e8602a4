"""Single-step model ops: parameter bookkeeping, embeddings, the two LSTMs,
attention strategies, social context, and anchored-offset coordinates."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sralstm.diffcore as dc
import sralstm.model as md
from sralstm.data import MAX_TRACK_FRAMES
from sralstm.diffcore import Constant, Tensor
from sralstm.model import (AttentionStrategy, ModelConfig, ModelParams,
                           SceneState)

from sralstm.pipeline import rollout

from helpers import (oracle_affine_relu, oracle_lstm_from_gates, raises_shape_mismatch_unless,
                     random_walk_window, rel_err, scaled_err)

SMALL = ModelConfig(embed_dim=6, hidden_dim=8)


def small_config(strategy="sra", **kw):
    return ModelConfig(embed_dim=6, hidden_dim=8, strategy=strategy, **kw)


def columns(*points) -> Tensor:
    """A (2, n) positions tensor, one column per point."""
    return Tensor(np.array(points, dtype=np.float64).T)


def state_with_h(h, ids=None) -> SceneState:
    """A scene state whose (hidden, n) motion hidden state is h."""
    h = np.asarray(h, dtype=np.float64)
    state = SceneState.initial(ids or list(range(1, h.shape[1] + 1)), h.shape[0])
    state.h = Tensor(h)
    return state


def zeroed_params(config: ModelConfig) -> ModelParams:
    params = ModelParams.init(config, seed=0)
    for t in params.tensors().values():
        t.values = np.zeros_like(t.values)
    return params


# ---------------------------------------------------------------------------
# config

def test_strategy_parse_accepts_any_case():
    assert AttentionStrategy.parse("SRA") is AttentionStrategy.SRA
    assert AttentionStrategy.parse("none") is AttentionStrategy.NONE


def test_strategy_parse_lists_options():
    with pytest.raises(ValueError) as e:
        AttentionStrategy.parse("fancy")
    assert "none, sa, ra, sra" in str(e.value)


def test_config_coerces_strategy_string():
    assert ModelConfig(strategy="ra").strategy is AttentionStrategy.RA


def test_config_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(pred_len=-1)


def test_config_needs_two_observed_frames():
    # with one observed frame every observed input offset is the anchor
    # itself, so the motion LSTM would never see observed motion
    with pytest.raises(ValueError, match="obs_len"):
        ModelConfig(obs_len=1)
    assert ModelConfig(obs_len=2).obs_len == 2


def test_config_rejects_boolean_dims():
    with pytest.raises(ValueError, match="hidden_dim"):
        ModelConfig(hidden_dim=True)


def test_config_dict_round_trip():
    cfg = ModelConfig(embed_dim=16, hidden_dim=24, strategy="sa",
                      obs_len=4, pred_len=6)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"embed_dim": 8, "dropout": 0.5})


# ---------------------------------------------------------------------------
# parameter bookkeeping

def test_param_count_default_config_frozen():
    assert md.param_count(ModelConfig()) == 66562


@pytest.mark.parametrize("strategy", list(AttentionStrategy))
def test_param_count_matches_actual_tensors(strategy):
    for cfg in (ModelConfig(strategy=strategy),
                small_config(strategy=strategy)):
        params = ModelParams.init(cfg, seed=1)
        actual = sum(t.size for t in params.tensors().values())
        assert md.param_count(cfg) == actual


def test_config_beyond_the_parameter_bound_is_rejected():
    # before, train on "hidden_dim": 1000000 died allocating 7.28 TiB
    def count(hidden_dim):
        shape_only = SimpleNamespace(embed_dim=32, hidden_dim=hidden_dim,
                                     strategy=AttentionStrategy.SRA)
        return sum(math.prod(shape) for _, shape, _ in md.param_table(shape_only))

    largest = max(h for h in range(1, 2000) if count(h) <= md.MAX_PARAMS)
    assert md.param_count(ModelConfig(hidden_dim=largest)) == count(largest)
    for hidden_dim in (largest + 1, 1_000_000):
        with pytest.raises(ValueError, match=f"bound is {md.MAX_PARAMS}"):
            ModelConfig(hidden_dim=hidden_dim)


def test_config_window_longer_than_any_track_is_rejected():
    # before, a checkpoint that claimed pred_len 10**9 loaded, and predict
    # rolled out 10**9 steps
    assert ModelConfig(pred_len=MAX_TRACK_FRAMES - 8).window_len == MAX_TRACK_FRAMES
    for pred_len in (MAX_TRACK_FRAMES - 7, 10**9):
        with pytest.raises(ValueError, match=f"at most {MAX_TRACK_FRAMES} frames"):
            ModelConfig(pred_len=pred_len)


def test_param_count_strategy_deltas():
    h, e = 64, 32
    base = md.param_count(ModelConfig(strategy="none"))
    assert md.param_count(ModelConfig(strategy="sra")) == base + 3 * h
    assert md.param_count(ModelConfig(strategy="sa")) == base + 2 * h
    assert md.param_count(ModelConfig(strategy="ra")) == base + (e + 2 * h) + (2 * e + e)


def test_shared_tensors_identical_across_strategies():
    shared = ["w_re", "b_re", "w_e", "b_e", "w_p", "b_p"]
    shared += [f"rel_{g}" for g in ("wi", "wf", "wg", "wo", "bi", "bf", "bg", "bo")]
    shared += [f"motion_{g}" for g in ("wi", "wf", "wg", "wo", "bi", "bf", "bg", "bo")]
    per_strategy = {s: ModelParams.init(small_config(strategy=s), seed=9).tensors()
                    for s in AttentionStrategy}
    reference = per_strategy[AttentionStrategy.SRA]
    for tensors in per_strategy.values():
        for name in shared:
            assert np.array_equal(tensors[name].values, reference[name].values)


def test_init_is_seed_deterministic_and_seed_sensitive():
    a = ModelParams.init(SMALL, seed=4).tensors()
    b = ModelParams.init(SMALL, seed=4).tensors()
    c = ModelParams.init(SMALL, seed=5).tensors()
    for name in a:
        assert np.array_equal(a[name].values, b[name].values)
    assert not np.array_equal(a["w_re"].values, c["w_re"].values)


def test_init_biases_are_never_exactly_zero():
    params = ModelParams.init(SMALL, seed=0)
    for name, t in params.tensors().items():
        if name.startswith("b_") or "_b" in name:
            assert np.all(t.values != 0.0), name


@pytest.mark.parametrize("strategy", list(AttentionStrategy))
def test_param_table_lays_out_init_tensors(strategy):
    cfg = small_config(strategy=strategy)
    table = md.param_table(cfg)
    params = ModelParams.init(cfg, seed=6)
    assert [name for name, _, _ in table] == list(params.tensors())
    for name, shape, fan_in in table:
        values = params[name].values
        assert values.shape == shape, name
        assert np.all(np.abs(values) <= 1.0 / np.sqrt(fan_in)), name


def test_tensor_directory_order_is_stable():
    names = list(ModelParams.init(SMALL, seed=0).tensors())
    assert names[0] == "w_re"
    assert names[-1] == "w_at"
    assert names.index("w_e") > names.index("rel_bo")


# ---------------------------------------------------------------------------
# embeddings

def pair_columns(n):
    """(k, j) for every pair column of an n-pedestrian scene, in order:
    pedestrian k's neighbors j in a run, in canonical order."""
    return [(k, j) for k in range(n) for j in range(n) if j != k]


def test_embed_relative_zero_displacement_is_relu_of_bias():
    params = ModelParams.init(SMALL, seed=3)
    state = SceneState.initial([1, 2], hidden_dim=8)
    out = md.embed_relative(params, state, columns((1.0, 2.0), (1.0, 2.0)))
    expected = np.maximum(params["b_re"].values, 0.0)
    assert np.array_equal(out.values, np.hstack([expected, expected]))


def test_embed_relative_translation_invariant_bitwise():
    params = ModelParams.init(SMALL, seed=3)
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    a = columns((0.5, -1.0), (2.0, 3.0), (-4.25, 0.5))
    b = columns((10.5, -5.0), (12.0, -1.0), (5.75, -3.5))
    assert np.array_equal(md.embed_relative(params, state, a).values,
                          md.embed_relative(params, state, b).values)


def test_embed_relative_matches_scripted_oracle():
    # one column per ordered pair: each pedestrian's neighbors in a run,
    # in canonical order
    params = ModelParams.init(SMALL, seed=3)
    state = SceneState.initial([3, 1, 2], hidden_dim=8)
    points = {1: (0.0, 0.0), 2: (1.0, 2.0), 3: (-0.5, 4.0)}
    pos = columns(*(points[p] for p in (1, 2, 3)))
    out = md.embed_relative(params, state, pos)
    assert out.shape == (6, 6)
    for col, (k, j) in enumerate(pair_columns(3)):
        disp = (np.array(points[j + 1]) - np.array(points[k + 1])).reshape(2, 1)
        oracle = oracle_affine_relu(params["w_re"].values, disp, params["b_re"].values)
        assert rel_err(out.values[:, col:col + 1], oracle) < 1e-12


def test_embed_position_zero_input_and_oracle():
    params = ModelParams.init(SMALL, seed=6)
    state = SceneState.initial([1, 2], hidden_dim=8)
    zero = md.embed_position(params, state, Tensor(np.zeros((2, 2))))
    bias = np.maximum(params["b_e"].values, 0.0)
    assert np.array_equal(zero.values, np.hstack([bias, bias]))
    nabs = np.array([[0.7, -1.2], [-0.3, 0.4]])
    out = md.embed_position(params, state, Tensor(nabs))
    oracle = oracle_affine_relu(params["w_e"].values, nabs, params["b_e"].values)
    assert rel_err(out.values, oracle) < 1e-12
    assert np.all(out.values >= 0.0)


def test_ra_embedding_requires_ra_params():
    # under ra the displacement embedding is the scorer's own w_rae/b_rae,
    # not the relationship encoder's w_re/b_re
    state = SceneState.initial([1, 2], hidden_dim=8)
    pos = columns((0.0, 0.0), (1.0, 2.0))
    ra = ModelParams.init(small_config("ra"), seed=1)
    out = md.embed_relative(ra, state, pos)
    oracle = oracle_affine_relu(ra["w_rae"].values, np.array([[1.0, -1.0], [2.0, -2.0]]),
                                ra["b_rae"].values)
    assert rel_err(out.values, oracle) < 1e-12
    without = ModelParams(ra.config, {k: t for k, t in ra.named.items() if k != "w_rae"})
    with pytest.raises(KeyError, match="w_rae"):
        md.embed_relative(without, state, pos)


def test_position_validation():
    params = ModelParams.init(SMALL, seed=1)
    state = SceneState.initial([1], hidden_dim=8)
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_position(params, state, Tensor(np.zeros((3, 1))))
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_position(params, state, Tensor(np.zeros((2, 2))))
    pair = SceneState.initial([1, 2], hidden_dim=8)
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_relative(params, pair, Tensor(np.zeros((3, 2))))
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_relative(params, pair, Tensor(np.zeros((2, 1))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_embeddings_fail_on_wrong_shapes_only_with_shape_mismatch(data):
    params = ModelParams.init(SMALL, seed=1)
    n = data.draw(st.integers(2, 5))
    state = SceneState.initial(list(range(n)), hidden_dim=8)
    # rank 0-3 with sizes 0-6, or (2, n) and its near misses
    shape = data.draw(st.one_of(st.lists(st.integers(0, 6), max_size=3).map(tuple),
                                st.sampled_from([(2, n), (2, n - 1), (2, n + 1), (1, n),
                                                 (3, n), (2, n, 1)])))
    x = Tensor(np.ones(shape))
    raises_shape_mismatch_unless(shape == (2, n), lambda: md.embed_position(params, state, x))
    raises_shape_mismatch_unless(shape == (2, n),
                                 lambda: md.embed_relative(params, state, x))


# ---------------------------------------------------------------------------
# scene state

def test_scene_state_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        SceneState.initial([1, 2, 2], hidden_dim=4)


def test_scene_state_zero_start_and_canonical_roster():
    state = SceneState.initial([3, 1, 2], hidden_dim=4)
    assert state.ped_ids == [1, 2, 3]
    for t in (state.h, state.c):
        assert np.array_equal(t.values, np.zeros((4, 3)))
    # one zero relation-state block with a column per ordered pair, and a
    # zero cell-state column per ordered pair, each its own tensor
    assert state.r.shape == (4, 6) and len(state.cr) == 6
    assert len({id(t) for t in [state.r, *state.cr]}) == 1 + 6
    assert np.array_equal(state.r.values, np.zeros((4, 6)))
    for t in state.cr:
        assert np.array_equal(t.values, np.zeros((4, 1)))
    # pedestrian k's neighbors are the run of columns 2k, 2k + 1
    assert state.width == 2
    lone = SceneState.initial([4], 4)
    assert lone.r.shape == (4, 0) and lone.cr == []
    assert lone.width == 0


def _awkward_values(rng, shape):
    """Normal draws mixed with values of magnitude 1e150 and subnormals,
    none of them zero."""
    values = rng.normal(size=shape)
    kind = rng.integers(0, 3, size=shape)
    values[kind == 1] *= 1e150
    values[kind == 2] *= 1e-310
    return values


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_one_hot_products_select_exact_bytes(n):
    rng = np.random.default_rng(n)
    state = SceneState.initial(list(range(n)), hidden_dim=4)
    h = _awkward_values(rng, (4, n))
    block = _awkward_values(rng, (6, n * (n - 1)))
    ks, js = (list(c) for c in zip(*pair_columns(n)))
    gathered = dc.matmul(Tensor(h), state.others).values
    assert gathered.tobytes() == np.ascontiguousarray(h[:, js]).tobytes()
    repeated = dc.matmul(Tensor(h), state.own).values
    assert repeated.tobytes() == np.ascontiguousarray(h[:, ks]).tobytes()
    for col, piece in enumerate(dc.split(Tensor(block), len(state.cr), axis=1)):
        assert piece.values.tobytes() == np.ascontiguousarray(block[:, col:col + 1]).tobytes()
    # the segment ops read pedestrian k's run as columns k (n - 1) ..
    # (k + 1) (n - 1) - 1: a one-hot weight in each run selects its column
    for m in range(n - 1):
        weights = Tensor(np.tile(np.eye(n - 1)[m], n).reshape(1, -1))
        part = dc.weighted_sum(weights, Tensor(block), width=state.width).values
        assert part.tobytes() == np.ascontiguousarray(block[:, m::n - 1]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_displacement_product_is_the_exact_difference(n):
    rng = np.random.default_rng(100 + n)
    state = SceneState.initial(list(range(n)), hidden_dim=4)
    ks, js = (list(c) for c in zip(*pair_columns(n)))
    for _ in range(20):
        pos = _awkward_values(rng, (2, n))
        disp = dc.matmul(Tensor(pos), state.spread).values
        assert disp.tobytes() == (pos[:, js] - pos[:, ks]).tobytes()


def test_a_stack_of_one_window_builds_the_plain_constants_exactly():
    ids = [5, 9, 7, 2]
    plain = SceneState.initial(ids, hidden_dim=4)
    stack = SceneState.initial([(0, p) for p in ids], hidden_dim=4, stacked=True)
    assert stack.ped_ids == [(0, p) for p in plain.ped_ids]
    assert len(plain.cr) == len(stack.cr) == 12
    assert plain.width == stack.width == 3
    # the gathers hold the same indices, so they stand for the same one-hot
    # matrices
    for name in ("others", "own", "spread"):
        a, b = getattr(plain, name), getattr(stack, name)
        assert type(a) is type(b) and a.rows == b.rows
        assert [t if t is None else t.tobytes() for t in (a.index, a.minus)] == \
            [t if t is None else t.tobytes() for t in (b.index, b.minus)]
        assert a.transpose().tobytes() == b.transpose().tobytes()
    for name in ("ones", "ones_pairs", "h", "c", "r"):
        a, b = getattr(plain, name), getattr(stack, name)
        assert type(a) is type(b) and a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_windows_see_only_their_own_neighbors(n):
    # three windows whose ids repeat; listed out of order
    keys = [(i, p) for p in range(n) for i in (2, 0, 1)]
    state = SceneState.initial(keys, hidden_dim=4, stacked=True)
    assert state.ped_ids == sorted(keys)
    rng = np.random.default_rng(n)
    pos = _awkward_values(rng, (2, 3 * n))
    h = _awkward_values(rng, (4, 3 * n))
    assert len(state.cr) == 3 * n * (n - 1) and state.ones_pairs.shape == (1, 3 * n * (n - 1))
    gathered = dc.matmul(Tensor(h), state.others).values
    repeated = dc.matmul(Tensor(h), state.own).values
    disp = dc.matmul(Tensor(pos), state.spread).values
    assert state.width == n - 1
    for k, (i, p) in enumerate(state.ped_ids):
        picked = [j for j, (w, _) in enumerate(state.ped_ids) if w == i and j != k]
        run = slice(k * state.width, (k + 1) * state.width)
        assert gathered[:, run].tobytes() == np.ascontiguousarray(h[:, picked]).tobytes()
        assert repeated[:, run].tobytes() == \
            np.ascontiguousarray(h[:, [k] * (n - 1)]).tobytes()
        assert disp[:, run].tobytes() == (pos[:, picked] - pos[:, [k]]).tobytes()


def test_stacked_windows_must_hold_one_crowd_size():
    with pytest.raises(ValueError, match="a stack needs one number"):
        SceneState.initial([(0, 1), (0, 2), (1, 1)], hidden_dim=4, stacked=True)


def test_scene_state_constants_take_no_gradient():
    state = SceneState.initial([5, 9, 7, 2], hidden_dim=4)
    constants = [state.others, state.own, state.spread,
                 state.ones, state.ones_pairs, state.h, state.c, state.r, *state.cr]
    assert all(isinstance(t, Constant) for t in constants)
    # the gathers are selectors that hold index arrays, spread a
    # difference of two
    assert all(type(t) is dc.Selector for t in [state.others, state.own, state.spread])
    assert state.others.minus is None and state.own.minus is None
    assert state.spread.index is state.others.index and state.spread.minus is state.own.index


def test_a_scene_state_of_100_pedestrians_holds_under_1_mib_of_constants_and_11_mb_in_all():
    # 9,900 ordered pairs: the gathers hold a column index per pair, so
    # the constants are O(n^2); a one-hot (n, N) matrix would take 7.9 MB
    # and an (N, 1) one per pair column 784 MB. Only the
    # zero relation states h x N and their cell states are larger. Array
    # bytes, each index counted once per selector that holds it, not the
    # process's RSS
    state = SceneState.initial(list(range(100)), hidden_dim=64)
    assert len(state.cr) == 9900
    constants = states = 0
    for f in fields(state):
        value = getattr(state, f.name)
        for t in value if isinstance(value, list) else [value]:
            if type(t) is dc.Selector:
                assert not hasattr(t, "__dict__")   # only its index and rows
                constants += sum(a.nbytes for a in (t.index, t.minus)
                                 if isinstance(a, np.ndarray))
            elif f.name in ("h", "c", "r", "cr"):
                states += t.values.nbytes
            elif isinstance(t, Tensor):
                constants += t.values.nbytes
    assert constants < 2**20
    assert constants + states < 11_000_000


def test_pair_store_keeps_directions_distinct():
    # pair column 0 is 1 toward 2, column 1 is 2 toward 1
    state = SceneState.initial([1, 2], hidden_dim=4)
    assert state.cr[0] is not state.cr[1]
    assert state.others.transpose().T.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert state.own.transpose().T.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    state.cr[0] = Tensor(np.ones((4, 1)))
    assert np.array_equal(state.cr[1].values, np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# relation and motion steps

def test_relation_step_zero_weights_yields_zero_state():
    params = zeroed_params(SMALL)
    for n in (2, 3):
        state = SceneState.initial(list(range(n)), hidden_dim=8)
        gates = md.relation_gates(params, state, Tensor(np.ones((6, n * (n - 1)))))
        for col in range(n * (n - 1)):
            r, cr = md.relation_step(params, state, col, gates)
            assert np.array_equal(r.values, np.zeros((8, 1)))
            assert np.array_equal(cr.values, np.zeros((8, 1)))


def test_relation_step_shares_weights_across_pairs():
    params = ModelParams.init(SMALL, seed=8)
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    e = np.linspace(0.0, 1.0, 6).reshape(6, 1)
    # pair column 0 is 1 toward 2, column 4 is 3 toward 1; both read e, and
    # the block's other columns differ and must not matter
    block = np.hstack([e, np.zeros((6, 1)), -e, 3.0 * e, e, -2.0 * e])
    gates = md.relation_gates(params, state, Tensor(block))
    r_a, _ = md.relation_step(params, state, 0, gates)
    r_b, _ = md.relation_step(params, state, 4, gates)
    assert np.array_equal(r_a.values, r_b.values)


def test_relation_step_matches_lstm_oracle():
    # the scene's gate products and activations plus each pair's memory
    # update, against the one-pair oracle
    params = ModelParams.init(SMALL, seed=8)
    rng = np.random.default_rng(21)
    for n in (2, 4):
        pairs = n * (n - 1)
        state = SceneState.initial(list(range(n)), hidden_dim=8)
        state.r = Tensor(rng.normal(size=(8, pairs)))
        state.cr = [Tensor(rng.normal(size=(8, 1))) for _ in range(pairs)]
        r_before, cr_before = state.r, list(state.cr)
        x = rng.normal(size=(6, pairs))
        gates = md.relation_gates(params, state, Tensor(x))
        # f, i*g and o, each in [-1, 1], split into their pair columns
        assert [len(g) for g in gates] == [pairs] * 3
        assert all(type(p) is dc.Bounded and p.shape == (8, 1) for g in gates for p in g)
        # pair columns 1 .. pairs - 1 advance, each in the 4 nodes of its
        # memory update; column 0 is left alone
        for col in range(1, pairs):
            want_h, want_c = oracle_lstm_from_gates(
                params, "rel", x[:, col:col + 1], r_before.values[:, col:col + 1],
                cr_before[col].values)
            with dc.Tape() as tape:
                r, cr = md.relation_step(params, state, col, gates)
            assert len(tape) == 4
            assert [t for inputs, _, _ in tape.nodes for t in inputs
                    if any(t is g[col] for g in gates)] == [g[col] for g in gates]
            assert rel_err(r.values, want_h) < 1e-12
            assert rel_err(cr.values, want_c) < 1e-12
            # the cell state advanced in place
            assert state.cr[col] is cr
        # the relation block waits for the scene step; the pair not
        # stepped is untouched
        assert state.r is r_before and state.cr[0] is cr_before[0]


def test_motion_step_matches_lstm_oracle_and_mutates():
    # every column against the one-pedestrian oracle on that column
    params = ModelParams.init(SMALL, seed=13)
    rng = np.random.default_rng(31)
    state = SceneState.initial([7, 3, 5], hidden_dim=8)
    state.h = Tensor(rng.normal(size=(8, 3)))
    state.c = Tensor(rng.normal(size=(8, 3)))
    e = rng.normal(size=(6, 3))
    ctx = rng.normal(size=(8, 3))
    before_h, before_c = state.h.values, state.c.values
    h, c = md.motion_step(params, state, Tensor(e), Tensor(ctx))
    for k in range(3):
        x = np.concatenate([e[:, k:k + 1], ctx[:, k:k + 1]], axis=0)
        want_h, want_c = oracle_lstm_from_gates(
            params, "motion", x, before_h[:, k:k + 1], before_c[:, k:k + 1])
        assert rel_err(h.values[:, k:k + 1], want_h) < 1e-12
        assert rel_err(c.values[:, k:k + 1], want_c) < 1e-12
    assert state.h is h and state.c is c


def test_motion_step_weight_sharing_across_pedestrians():
    params = ModelParams.init(SMALL, seed=13)
    state = SceneState.initial([1, 2], hidden_dim=8)
    e = np.full((6, 2), 0.25)
    ctx = np.full((8, 2), -0.5)
    h, _ = md.motion_step(params, state, Tensor(e), Tensor(ctx))
    assert np.array_equal(h.values[:, 0], h.values[:, 1])


def test_motion_step_rejects_columns_off_the_roster():
    params = ModelParams.init(SMALL, seed=13)
    state = SceneState.initial([1], hidden_dim=8)
    with pytest.raises(dc.ShapeMismatchError):
        md.motion_step(params, state, Tensor(np.zeros((6, 2))),
                       Tensor(np.zeros((8, 2))))


# ---------------------------------------------------------------------------
# attention

def _attention_inputs(seed=17, hidden=8):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(hidden, 1))),
            Tensor(rng.normal(size=(hidden, 1))),
            Tensor(rng.normal(size=(hidden, 1))))


def test_attention_logit_zero_weights():
    params = zeroed_params(SMALL)
    r, h_i, h_j = _attention_inputs()
    out = md.attention_logits(params, AttentionStrategy.SRA, r, h_i, h_j)
    assert out.values[0, 0] == 0.0


def test_sra_logit_matches_dot_product_oracle():
    params = ModelParams.init(SMALL, seed=5)
    r, h_i, h_j = _attention_inputs()
    out = md.attention_logits(params, AttentionStrategy.SRA, r, h_i, h_j)
    stacked = np.concatenate([r.values, h_i.values, h_j.values], axis=0)
    oracle = (params["w_at"].values @ stacked).item()
    assert rel_err(out.values, oracle) < 1e-12


def test_sra_sensitive_to_relation_state_sa_is_not():
    sra = ModelParams.init(SMALL, seed=5)
    sa = ModelParams.init(small_config("sa"), seed=5)
    r, h_i, h_j = _attention_inputs()
    r2 = Tensor(r.values + 1.0)
    sra_a = md.attention_logits(sra, AttentionStrategy.SRA, r, h_i, h_j)
    sra_b = md.attention_logits(sra, AttentionStrategy.SRA, r2, h_i, h_j)
    assert sra_a.values[0, 0] != sra_b.values[0, 0]
    sa_a = md.attention_logits(sa, AttentionStrategy.SA, r, h_i, h_j)
    sa_b = md.attention_logits(sa, AttentionStrategy.SA, r2, h_i, h_j)
    assert sa_a.values[0, 0] == sa_b.values[0, 0]


def test_sa_logit_matches_oracle():
    sa = ModelParams.init(small_config("sa"), seed=5)
    r, h_i, h_j = _attention_inputs()
    out = md.attention_logits(sa, AttentionStrategy.SA, r, h_i, h_j)
    stacked = np.concatenate([h_i.values, h_j.values], axis=0)
    assert rel_err(out.values, (sa["w_sa"].values @ stacked).item()) < 1e-12


def test_ra_logit_needs_embedding_and_matches_oracle():
    ra = ModelParams.init(small_config("ra"), seed=5)
    _, h_i, h_j = _attention_inputs()
    with pytest.raises(ValueError):
        md.attention_logits(ra, AttentionStrategy.RA, None, h_i, h_j)
    state = SceneState.initial([1, 2], hidden_dim=8)
    e_rel = dc.split(md.embed_relative(ra, state, columns((0.0, 0.0), (1.0, -1.0))), 2,
                     axis=1)[0]
    out = md.attention_logits(ra, AttentionStrategy.RA, e_rel, h_i, h_j)
    stacked = np.concatenate([e_rel.values, h_i.values, h_j.values], axis=0)
    assert rel_err(out.values, (ra["w_ra"].values @ stacked).item()) < 1e-12


@pytest.mark.parametrize("strategy", ["sra", "ra"])
def test_attention_logits_without_a_pair_feature_is_value_error(strategy):
    # before, sra without its relation state died with an AttributeError
    params = ModelParams.init(small_config(strategy), seed=5)
    _, h_i, h_j = _attention_inputs()
    with pytest.raises(ValueError, match="pair feature"):
        md.attention_logits(params, AttentionStrategy(strategy), None, h_i, h_j)


def test_attention_logits_score_a_block_column_by_column():
    params = ModelParams.init(SMALL, seed=5)
    rng = np.random.default_rng(19)
    r, h_i, h_j = (Tensor(rng.normal(size=(8, 3))) for _ in range(3))
    block = md.attention_logits(params, AttentionStrategy.SRA, r, h_i, h_j)
    assert block.shape == (1, 3)
    for m in range(3):
        one = md.attention_logits(params, AttentionStrategy.SRA,
                                  *(Tensor(t.values[:, m:m + 1]) for t in (r, h_i, h_j)))
        assert rel_err(block.values[0, m], one.item()) < 1e-12


def test_attention_weights_single_neighbor_is_exactly_one():
    # three pedestrians with one neighbor each
    out = md.attention_weights(Tensor([[3.7, -2.0, 1e3]]), 1)
    assert out.values.tolist() == [[1.0, 1.0, 1.0]]


def test_attention_weights_equal_logits_split_exactly():
    out = md.attention_weights(Tensor(np.full((1, 8), 1.25)), 4)
    assert out.values.reshape(-1).tolist() == [0.25] * 8


def test_attention_weights_quarter_three_quarters():
    # each run is normalized on its own, whatever the other runs hold
    out = md.attention_weights(Tensor([[0.0, np.log(3.0), 50.0 + np.log(3.0), 50.0]]), 2)
    flat = out.values.reshape(-1)
    for got, want in zip(flat, [0.25, 0.75, 0.75, 0.25]):
        assert abs(got - want) < 1e-12


def test_attention_weights_empty_neighbor_set():
    with pytest.raises(dc.EmptyNeighborSetError):
        md.attention_weights(Tensor(np.zeros((1, 0))), 1)


def neighbor_block(state):
    """The (hidden, N) neighbor motion states, a column per ordered pair."""
    return dc.matmul(state.h, state.others)


def test_social_context_none_strategy_and_lonely_ped_are_zero():
    state = SceneState.initial([1, 2], hidden_dim=8)
    ctx = md.social_context(state, None, None, AttentionStrategy.NONE)
    assert np.array_equal(ctx.values, np.zeros((8, 2)))
    solo = SceneState.initial([1], hidden_dim=8)
    ctx = md.social_context(solo, None, None, AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, np.zeros((8, 1)))


def test_social_context_single_neighbor_copies_its_state():
    state = state_with_h(np.linspace(-1.0, 1.0, 16).reshape(8, 2))
    weights = md.attention_weights(Tensor([[0.9, -0.4]]), 1)
    ctx = md.social_context(state, weights, neighbor_block(state), AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, state.h.values[:, ::-1])


def test_social_context_weighted_mix_frozen():
    state = state_with_h(np.repeat([[0.0, 1.0, 2.0]], 8, axis=0))
    # pedestrian 1 weighs 2 and 3, pedestrian 2 weighs 1 and 3, 3 weighs 1 and 2
    weights = Tensor([[0.25, 0.75, 0.5, 0.5, 1.0, 0.0]])
    ctx = md.social_context(state, weights, neighbor_block(state), AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, np.repeat([[1.75, 1.0, 0.0]], 8, axis=0))


def test_social_context_weight_count_mismatch():
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    # a weight per pedestrian, not per pair column
    weights = Tensor(np.ones((1, 3)))
    with pytest.raises(dc.ShapeMismatchError):
        md.social_context(state, weights, neighbor_block(state), AttentionStrategy.SRA)


def test_social_context_requires_weights_with_neighbors():
    # weights for pedestrian 1's run alone: pedestrian 2 has a neighbor too
    state = SceneState.initial([1, 2], hidden_dim=8)
    with pytest.raises(ValueError):
        md.social_context(state, Tensor([[1.0]]), neighbor_block(state),
                          AttentionStrategy.SRA)


def _scorer_blocks(config: ModelConfig):
    """The scorer weight's name and its columns on i's own motion state and
    on the neighbors' states."""
    e, h = config.embed_dim, config.hidden_dim
    first = {"sa": 0, "ra": e, "sra": h}[config.strategy.value]
    name = {"sa": "w_sa", "ra": "w_ra", "sra": "w_at"}[config.strategy.value]
    return name, slice(first, first + h), slice(first + h, first + 2 * h)


@pytest.mark.parametrize("strategy", ["sa", "ra", "sra"])
def test_scorer_own_state_block_is_inert(strategy):
    # h_i adds the same term to each of i's logits, which the softmax cancels
    config = ModelConfig(strategy=strategy)
    name, own, neighbor = _scorer_blocks(config)
    window = random_walk_window(5, seed=3)
    base = rollout(ModelParams.init(config, seed=0), window).predictions.values
    moved = []
    for block in (own, neighbor):
        params = ModelParams.init(config, seed=0)
        params[name].values[:, block] += 0.5
        moved.append(np.abs(rollout(params, window).predictions.values - base).max())
    assert moved[0] <= 1e-12
    assert moved[1] > 1e-6


# ---------------------------------------------------------------------------
# offset prediction

def test_predict_offset_zero_state_gives_bias():
    params = ModelParams.init(SMALL, seed=2)
    out = md.predict_offset(params, SceneState.initial([1, 2], hidden_dim=8))
    assert np.array_equal(out.values, np.hstack([params["b_p"].values] * 2))


def test_predict_offset_is_affine():
    params = ModelParams.init(SMALL, seed=2)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(8, 3))
    p0 = md.predict_offset(params, state_with_h(np.zeros((8, 3)))).values
    p1 = md.predict_offset(params, state_with_h(h)).values
    p2 = md.predict_offset(params, state_with_h(2.0 * h)).values
    assert rel_err(p2 - p0, 2.0 * (p1 - p0)) < 1e-12


def test_predict_offset_matches_affine_oracle():
    params = ModelParams.init(SMALL, seed=2)
    rng = np.random.default_rng(4)
    h = rng.normal(size=(8, 3))
    out = md.predict_offset(params, state_with_h(h))
    oracle = params["w_p"].values @ h + params["b_p"].values
    assert rel_err(out.values, oracle) < 1e-12


# ---------------------------------------------------------------------------
# folded affine maps

def test_fold_puts_each_bias_last_and_builds_once():
    params = ModelParams.init(SMALL, seed=2)
    state = SceneState.initial([1, 2], hidden_dim=8)
    w = state.fold(params, "p")
    assert np.array_equal(w.values, np.hstack([params["w_p"].values, params["b_p"].values]))
    assert state.fold(params, "p") is w
    gates = state.fold(params, "rel")
    for g, folded in zip("ifgo", gates):
        assert np.array_equal(folded.values, np.hstack([params[f"rel_w{g}"].values,
                                                         params[f"rel_b{g}"].values]))
    other = ModelParams.init(SMALL, seed=3)
    assert not np.array_equal(state.fold(other, "p").values, w.values)


def test_folded_affine_map_agrees_with_product_plus_bias():
    rng = np.random.default_rng(8)
    for rows, cols, k in ((64, 97, 1), (64, 161, 8), (2, 65, 5), (32, 2, 7)):
        w, b = rng.normal(size=(rows, cols)), rng.normal(size=(rows, 1))
        x = rng.normal(size=(cols, k))
        folded = dc.matmul(Tensor(np.hstack([w, b])), Tensor(np.vstack([x, np.ones((1, k))])))
        assert scaled_err(folded.values, w @ x + b) <= 1e-15


# ---------------------------------------------------------------------------
# anchored offsets

def test_nabs_encode_frozen_example():
    track = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    out = md.nabs_encode(track, anchor_index=2)
    assert out.tolist() == [[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]


def test_nabs_anchor_row_is_exactly_zero():
    rng = np.random.default_rng(5)
    track = rng.uniform(-10.0, 10.0, size=(20, 2))
    out = md.nabs_encode(track, anchor_index=7)
    assert np.array_equal(out[7], np.zeros(2))


def test_nabs_round_trip_exact_on_exact_coordinates():
    # integer-valued tracks make the subtraction exact, so the round trip
    # must be bit-perfect
    rng = np.random.default_rng(6)
    track = rng.integers(-50, 50, size=(20, 2)).astype(np.float64)
    anchor = track[7].copy()
    assert np.array_equal(md.nabs_decode(md.nabs_encode(track, 7), anchor), track)


def test_nabs_round_trip_close_on_arbitrary_coordinates():
    rng = np.random.default_rng(7)
    track = rng.uniform(-12.0, 12.0, size=(20, 2))
    back = md.nabs_decode(md.nabs_encode(track, 7), track[7])
    assert np.max(np.abs(back - track)) < 1e-12


def test_nabs_decode_zero_offsets_repeat_anchor():
    out = md.nabs_decode(np.zeros((5, 2)), np.array([3.0, -4.0]))
    assert np.array_equal(out, np.tile([3.0, -4.0], (5, 1)))


def test_nabs_decode_frozen_example():
    out = md.nabs_decode(np.array([[1.5, -0.5]]), np.array([10.0, 20.0]))
    assert out.tolist() == [[11.5, 19.5]]


def test_nabs_encode_is_per_row():
    track = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    swapped = track[::-1].copy()
    a = md.nabs_encode(track, 0)
    b = md.nabs_encode(swapped, 2)
    assert np.array_equal(a, b[::-1])


def test_nabs_encode_validation():
    with pytest.raises(ValueError):
        md.nabs_encode(np.zeros((3, 3)), 0)
    with pytest.raises(IndexError):
        md.nabs_encode(np.zeros((3, 2)), 3)
