"""Single-step model ops: parameter bookkeeping, embeddings, the two LSTMs,
attention strategies, social context, and anchored-offset coordinates."""

import numpy as np
import pytest

import sralstm.diffcore as dc
import sralstm.model as md
from sralstm.diffcore import Tensor
from sralstm.model import (AttentionStrategy, ModelConfig, ModelParams,
                           SceneState)

from helpers import oracle_affine_relu, oracle_lstm_from_gates, rel_err

SMALL = ModelConfig(embed_dim=6, hidden_dim=8)


def small_config(strategy="sra", **kw):
    return ModelConfig(embed_dim=6, hidden_dim=8, strategy=strategy, **kw)


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


def test_from_arrays_round_trip():
    params = ModelParams.init(SMALL, seed=2)
    arrays = {n: t.values.copy() for n, t in params.tensors().items()}
    rebuilt = ModelParams.from_arrays(SMALL, arrays)
    for name, t in rebuilt.tensors().items():
        assert np.array_equal(t.values, arrays[name])


def test_from_arrays_reports_missing_and_extra():
    params = ModelParams.init(SMALL, seed=2)
    arrays = {n: t.values for n, t in params.tensors().items()}
    short = dict(arrays)
    del short["w_at"]
    with pytest.raises(md.ParamMismatchError, match="w_at"):
        ModelParams.from_arrays(SMALL, short)
    padded = dict(arrays)
    padded["mystery"] = np.zeros((1, 1))
    with pytest.raises(md.ParamMismatchError, match="mystery"):
        ModelParams.from_arrays(SMALL, padded)


def test_from_arrays_names_misshapen_tensor():
    params = ModelParams.init(SMALL, seed=2)
    arrays = {n: t.values.copy() for n, t in params.tensors().items()}
    arrays["motion_wi"] = np.zeros((3, 3))
    with pytest.raises(md.ShapeMismatchForTensor, match="motion_wi"):
        ModelParams.from_arrays(SMALL, arrays)


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


def test_from_arrays_draws_nothing(monkeypatch):
    params = ModelParams.init(SMALL, seed=2)
    arrays = {n: t.values for n, t in params.tensors().items()}

    def no_draws(*args, **kwargs):
        raise AssertionError("from_arrays drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rebuilt = ModelParams.from_arrays(SMALL, arrays)
    assert rebuilt["w_at"].values is not arrays["w_at"]
    # a claimed size is checked against the table, not materialized
    with pytest.raises(md.ShapeMismatchForTensor, match="rel_wi"):
        ModelParams.from_arrays(ModelConfig(embed_dim=6, hidden_dim=1500), arrays)


def test_tensor_directory_order_is_stable():
    names = list(ModelParams.init(SMALL, seed=0).tensors())
    assert names[0] == "w_re"
    assert names[-1] == "w_at"
    assert names.index("w_e") > names.index("rel_bo")


# ---------------------------------------------------------------------------
# embeddings

def test_embed_relative_zero_displacement_is_relu_of_bias():
    params = ModelParams.init(SMALL, seed=3)
    out = md.embed_relative(params, (1.0, 2.0), (1.0, 2.0))
    expected = np.maximum(params["b_re"].values, 0.0)
    assert np.array_equal(out.values, expected)


def test_embed_relative_translation_invariant_bitwise():
    params = ModelParams.init(SMALL, seed=3)
    a = md.embed_relative(params, (0.5, -1.0), (2.0, 3.0))
    b = md.embed_relative(params, (10.5, -5.0), (12.0, -1.0))
    assert np.array_equal(a.values, b.values)


def test_embed_relative_matches_scripted_oracle():
    params = ModelParams.init(SMALL, seed=3)
    out = md.embed_relative(params, (0.0, 0.0), (1.0, 2.0))
    oracle = oracle_affine_relu(params["w_re"].values,
                                np.array([[1.0], [2.0]]), params["b_re"].values)
    assert rel_err(out.values, oracle) < 1e-12


def test_embed_position_zero_input_and_oracle():
    params = ModelParams.init(SMALL, seed=6)
    zero = md.embed_position(params, Tensor(np.zeros((2, 1))))
    assert np.array_equal(zero.values, np.maximum(params["b_e"].values, 0.0))
    out = md.embed_position(params, Tensor([[0.7], [-0.3]]))
    oracle = oracle_affine_relu(params["w_e"].values,
                                np.array([[0.7], [-0.3]]), params["b_e"].values)
    assert rel_err(out.values, oracle) < 1e-12
    assert np.all(out.values >= 0.0)


def test_ra_embedding_requires_ra_params():
    sra = ModelParams.init(SMALL, seed=1)
    with pytest.raises(KeyError, match="w_rae"):
        md.embed_relative(sra, (0.0, 0.0), (1.0, 1.0), "rae")
    ra = ModelParams.init(small_config("ra"), seed=1)
    out = md.embed_relative(ra, (0.0, 0.0), (1.0, 2.0), "rae")
    oracle = oracle_affine_relu(ra["w_rae"].values,
                                np.array([[1.0], [2.0]]), ra["b_rae"].values)
    assert rel_err(out.values, oracle) < 1e-12


def test_position_validation():
    params = ModelParams.init(SMALL, seed=1)
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_position(params, Tensor(np.zeros((3, 1))))
    with pytest.raises(dc.ShapeMismatchError):
        md.embed_relative(params, (1.0, 2.0, 3.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# scene state

def test_scene_state_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        SceneState.initial([1, 2, 2], hidden_dim=4)


def test_scene_state_zero_start_and_canonical_roster():
    state = SceneState.initial([3, 1, 2], hidden_dim=4)
    assert state.ped_ids == [1, 2, 3]
    assert sorted(state.h) == sorted(state.c) == [1, 2, 3]
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    assert sorted(state.r) == sorted(state.cr) == pairs
    for t in [*state.h.values(), *state.c.values(),
              *state.r.values(), *state.cr.values()]:
        assert np.array_equal(t.values, np.zeros((4, 1)))
    assert state.neighbors(1) == [2, 3]
    assert state.neighbors(3) == [1, 2]


def test_scene_state_unknown_ped_errors():
    state = SceneState.initial([1, 2], hidden_dim=4)
    with pytest.raises(md.UnknownPedestrianError):
        state.neighbors(99)
    assert (1, 99) not in state.r
    assert (1, 1) not in state.r


def test_pair_store_keeps_directions_distinct():
    state = SceneState.initial([1, 2], hidden_dim=4)
    assert state.r[(1, 2)] is not state.r[(2, 1)]
    state.r[(1, 2)] = Tensor(np.ones((4, 1)))
    assert np.array_equal(state.r[(2, 1)].values, np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# relation and motion steps

def test_relation_step_zero_weights_yields_zero_state():
    params = zeroed_params(SMALL)
    state = SceneState.initial([1, 2], hidden_dim=8)
    r, cr = md.relation_step(params, state, (1, 2), Tensor(np.ones((6, 1))))
    assert np.array_equal(r.values, np.zeros((8, 1)))
    assert np.array_equal(cr.values, np.zeros((8, 1)))


def test_relation_step_shares_weights_across_pairs():
    params = ModelParams.init(SMALL, seed=8)
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    e = Tensor(np.linspace(0.0, 1.0, 6).reshape(6, 1))
    r_a, _ = md.relation_step(params, state, (1, 2), e)
    r_b, _ = md.relation_step(params, state, (3, 1), Tensor(e.values.copy()))
    assert np.array_equal(r_a.values, r_b.values)


def test_relation_step_matches_lstm_oracle():
    params = ModelParams.init(SMALL, seed=8)
    rng = np.random.default_rng(21)
    state = SceneState.initial([1, 2], hidden_dim=8)
    state.r[(1, 2)] = Tensor(rng.normal(size=(8, 1)))
    state.cr[(1, 2)] = Tensor(rng.normal(size=(8, 1)))
    x = rng.normal(size=(6, 1))
    want_h, want_c = oracle_lstm_from_gates(
        params, "rel", x, state.r[(1, 2)].values, state.cr[(1, 2)].values)
    r, cr = md.relation_step(params, state, (1, 2), Tensor(x))
    assert rel_err(r.values, want_h) < 1e-12
    assert rel_err(cr.values, want_c) < 1e-12
    # state advanced in place
    assert state.r[(1, 2)] is r


def test_relation_step_unknown_pair():
    params = ModelParams.init(SMALL, seed=8)
    state = SceneState.initial([1, 2], hidden_dim=8)
    for pair in ((1, 3), (1, 1)):
        with pytest.raises(md.UnknownPedestrianError):
            md.relation_step(params, state, pair, Tensor(np.zeros((6, 1))))


def test_motion_step_matches_lstm_oracle_and_mutates():
    params = ModelParams.init(SMALL, seed=13)
    rng = np.random.default_rng(31)
    state = SceneState.initial([7], hidden_dim=8)
    state.h[7] = Tensor(rng.normal(size=(8, 1)))
    state.c[7] = Tensor(rng.normal(size=(8, 1)))
    e_i = rng.normal(size=(6, 1))
    ctx = rng.normal(size=(8, 1))
    x = np.concatenate([e_i, ctx], axis=0)
    want_h, want_c = oracle_lstm_from_gates(
        params, "motion", x, state.h[7].values, state.c[7].values)
    h, c = md.motion_step(params, state, 7, Tensor(e_i), Tensor(ctx))
    assert rel_err(h.values, want_h) < 1e-12
    assert rel_err(c.values, want_c) < 1e-12
    assert state.h[7] is h and state.c[7] is c


def test_motion_step_weight_sharing_across_pedestrians():
    params = ModelParams.init(SMALL, seed=13)
    state = SceneState.initial([1, 2], hidden_dim=8)
    e = np.full((6, 1), 0.25)
    ctx = np.full((8, 1), -0.5)
    h1, _ = md.motion_step(params, state, 1, Tensor(e), Tensor(ctx))
    h2, _ = md.motion_step(params, state, 2, Tensor(e.copy()), Tensor(ctx.copy()))
    assert np.array_equal(h1.values, h2.values)


def test_motion_step_unknown_pedestrian():
    params = ModelParams.init(SMALL, seed=13)
    state = SceneState.initial([1], hidden_dim=8)
    with pytest.raises(md.UnknownPedestrianError):
        md.motion_step(params, state, 2, Tensor(np.zeros((6, 1))),
                       Tensor(np.zeros((8, 1))))


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
    r, h_i, h_j = _attention_inputs()
    with pytest.raises(ValueError):
        md.attention_logits(ra, AttentionStrategy.RA, r, h_i, h_j)
    e_rel = md.embed_relative(ra, (0.0, 0.0), (1.0, -1.0), "rae")
    out = md.attention_logits(ra, AttentionStrategy.RA, r, h_i, h_j, e_rel)
    stacked = np.concatenate([e_rel.values, h_i.values, h_j.values], axis=0)
    assert rel_err(out.values, (ra["w_ra"].values @ stacked).item()) < 1e-12


def test_attention_weights_single_neighbor_is_exactly_one():
    out = md.attention_weights([Tensor([[3.7]])])
    assert out.values.tolist() == [[1.0]]


def test_attention_weights_equal_logits_split_exactly():
    logits = [Tensor([[1.25]]) for _ in range(4)]
    out = md.attention_weights(logits)
    assert out.values.reshape(-1).tolist() == [0.25, 0.25, 0.25, 0.25]


def test_attention_weights_quarter_three_quarters():
    out = md.attention_weights([Tensor([[0.0]]), Tensor([[np.log(3.0)]])])
    flat = out.values.reshape(-1)
    assert abs(flat[0] - 0.25) < 1e-12
    assert abs(flat[1] - 0.75) < 1e-12


def test_attention_weights_empty_neighbor_set():
    with pytest.raises(dc.EmptyNeighborSetError):
        md.attention_weights([])


def test_social_context_none_strategy_and_lonely_ped_are_zero():
    state = SceneState.initial([1, 2], hidden_dim=8)
    ctx = md.social_context(state, 1, None, AttentionStrategy.NONE)
    assert np.array_equal(ctx.values, np.zeros((8, 1)))
    solo = SceneState.initial([1], hidden_dim=8)
    ctx = md.social_context(solo, 1, None, AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, np.zeros((8, 1)))


def test_social_context_single_neighbor_copies_its_state():
    state = SceneState.initial([1, 2], hidden_dim=8)
    state.h[2] = Tensor(np.linspace(-1.0, 1.0, 8).reshape(8, 1))
    weights = md.attention_weights([Tensor([[0.9]])])
    ctx = md.social_context(state, 1, weights, AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, state.h[2].values)


def test_social_context_weighted_mix_frozen():
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    state.h[2] = Tensor(np.ones((8, 1)))
    state.h[3] = Tensor(2.0 * np.ones((8, 1)))
    weights = Tensor(np.array([[0.25], [0.75]]))
    ctx = md.social_context(state, 1, weights, AttentionStrategy.SRA)
    assert np.array_equal(ctx.values, np.full((8, 1), 1.75))


def test_social_context_weight_count_mismatch():
    state = SceneState.initial([1, 2, 3], hidden_dim=8)
    weights = Tensor(np.array([[1.0]]))
    with pytest.raises(dc.ShapeMismatchError):
        md.social_context(state, 1, weights, AttentionStrategy.SRA)


def test_social_context_requires_weights_with_neighbors():
    state = SceneState.initial([1, 2], hidden_dim=8)
    with pytest.raises(ValueError):
        md.social_context(state, 1, None, AttentionStrategy.SRA)


# ---------------------------------------------------------------------------
# offset prediction

def test_predict_offset_zero_state_gives_bias():
    params = ModelParams.init(SMALL, seed=2)
    out = md.predict_offset(params, Tensor(np.zeros((8, 1))))
    assert np.array_equal(out.values, params["b_p"].values)


def test_predict_offset_is_affine():
    params = ModelParams.init(SMALL, seed=2)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(8, 1))
    p0 = md.predict_offset(params, Tensor(np.zeros((8, 1)))).values
    p1 = md.predict_offset(params, Tensor(h)).values
    p2 = md.predict_offset(params, Tensor(2.0 * h)).values
    assert rel_err(p2 - p0, 2.0 * (p1 - p0)) < 1e-12


def test_predict_offset_matches_affine_oracle():
    params = ModelParams.init(SMALL, seed=2)
    rng = np.random.default_rng(4)
    h = rng.normal(size=(8, 1))
    out = md.predict_offset(params, Tensor(h))
    oracle = params["w_p"].values @ h + params["b_p"].values
    assert rel_err(out.values, oracle) < 1e-12


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
