"""Rollout orchestration, loss, training loop, and checkpoint persistence."""

import os
import re
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sralstm.diffcore as dc
import sralstm.model as md
import sralstm.pipeline as pl
from sralstm.data import DataError, TrajectoryWindow, build_windows, synth_scenario
from sralstm.diffcore import Tensor
from sralstm.model import AttentionStrategy, ModelConfig, ModelParams, SceneState
from sralstm.pipeline import (Checkpoint, CheckpointCorruptError,
                              CheckpointError, CheckpointVersionError,
                              l2_loss, load_checkpoint, rollout,
                              save_checkpoint, scene_step, train_epoch,
                              train_step, window_truth_nabs)

from helpers import (constant_velocity_tracks, edit_checkpoint, oracle_rollout,
                     random_walk_window, reference_backward, rel_err,
                     scaled_err, window_from_tracks)

SMALL = ModelConfig(embed_dim=6, hidden_dim=8)


def small_params(seed=0, strategy="sra"):
    cfg = ModelConfig(embed_dim=6, hidden_dim=8, strategy=strategy)
    return ModelParams.init(cfg, seed=seed)


def cv_window(n_peds=2, seed=0):
    return window_from_tracks(constant_velocity_tracks(n_peds, 20, seed=seed))


# ---------------------------------------------------------------------------
# rollout basics

def test_rollout_shapes_and_anchor():
    params = small_params()
    window = cv_window(n_peds=3, seed=1)
    result = rollout(params, window)
    assert result.ped_ids == [1, 2, 3]
    assert result.predictions.shape == (12 * 2, 3)
    offsets = _offsets(result)
    for k, p in enumerate(result.ped_ids):
        assert result.predicted_abs[p].shape == (12, 2)
        # anchored at the last observed frame
        assert np.array_equal(result.predicted_abs[p],
                              offsets[k] + window.track(p)[7])


def test_rollout_decodes_offsets_exactly():
    params = small_params(seed=3)
    window = cv_window(n_peds=2, seed=2)
    result = rollout(params, window)
    offsets = _offsets(result)
    for k, p in enumerate(result.ped_ids):
        decoded = md.nabs_decode(offsets[k], window.track(p)[params.config.obs_len - 1])
        assert np.array_equal(result.predicted_abs[p], decoded)


def _offsets(result):
    """The (2 * pred_len, P) predictions as (P, pred_len, 2) offsets."""
    return result.predictions.values.reshape(-1, 2, len(result.ped_ids)).transpose(2, 0, 1)


def test_rollout_rejects_wrong_observation_length():
    params = small_params()
    scene = synth_scenario("parallel", seed=1)
    window = build_windows(scene, obs_len=4, pred_len=12)[0]
    with pytest.raises(DataError, match="observation length"):
        rollout(params, window)


def test_rollout_needs_observation_frames():
    params = small_params()
    window = cv_window()
    short = replace(window, positions=window.positions[:, :5])
    with pytest.raises(DataError, match="frames"):
        rollout(params, short)


def test_scoring_rejects_observation_only_window():
    from sralstm.evalkit import evaluate

    params = small_params()
    opt = dc.AdamState(params.tensors())
    scene = synth_scenario("parallel", seed=1)
    obs_only = build_windows(scene, obs_len=8, pred_len=0)[0]
    with pytest.raises(DataError, match="frames"):
        evaluate(params, [obs_only])
    with pytest.raises(DataError, match="truth"):
        train_step(params, opt, obs_only)
    with pytest.raises(DataError, match="truth"):
        window_truth_nabs(obs_only)
    assert opt.step == 0


def test_rollout_rejects_empty_window():
    params = small_params()
    window = TrajectoryWindow(scene_name="x", start_frame=0, ped_ids=[],
                              positions=np.zeros((0, 20, 2)), obs_len=8,
                              pred_len=12)
    with pytest.raises(DataError):
        rollout(params, window)


def test_observation_only_window_predicts_like_full_window():
    # a rollout reads only the observation frames and feeds itself after,
    # so an observation-only window must predict identically
    params = small_params(seed=5)
    scene = synth_scenario("meeting", seed=9)
    full = build_windows(scene, obs_len=8, pred_len=12)[0]
    obs_only = build_windows(scene, obs_len=8, pred_len=0)[0]
    a = rollout(params, full)
    b = rollout(params, obs_only)
    assert a.ped_ids == b.ped_ids
    assert np.array_equal(a.predictions.values, b.predictions.values)


def test_single_pedestrian_equals_none_strategy_bitwise():
    # shared base tensors at equal seed; an isolated pedestrian must take
    # the zero-context path in both models
    sra = small_params(seed=7, strategy="sra")
    none = small_params(seed=7, strategy="none")
    window = window_from_tracks(constant_velocity_tracks(1, 20, seed=4))
    a = rollout(sra, window)
    b = rollout(none, window)
    assert np.array_equal(a.predicted_abs[1], b.predicted_abs[1])


def test_zeroed_params_predict_output_bias_forever():
    frozen = small_params(seed=1)
    for t in frozen.tensors().values():
        t.values[...] = 0.0
    frozen["b_p"].values[:] = [[0.3], [-0.2]]
    result = rollout(frozen, cv_window(n_peds=2, seed=6))
    for offsets in _offsets(result):
        assert np.array_equal(offsets, np.tile([0.3, -0.2], (12, 1)))


def test_rollout_matches_step_by_step_composition_oracle():
    params = small_params(seed=11)
    window = cv_window(n_peds=2, seed=8)
    want, _ = _scripted_rollout_abs(params, window)
    got = rollout(params, window)
    for p in window.ped_ids:
        assert np.array_equal(got.predicted_abs[p], want[p])


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_rollout_matches_straight_numpy_oracle(strategy, n):
    params = small_params(seed=n, strategy=strategy)
    window = random_walk_window(n, seed=40 + n)
    arrays = {name: t.values for name, t in params.tensors().items()}
    want = oracle_rollout(arrays, strategy, window.positions)
    result = rollout(params, window)
    got = np.stack([result.predicted_abs[p] for p in window.ped_ids])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert scaled_err(got, want) <= 1e-12


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_rollout_grads_match_finite_differences(strategy, n):
    # one random direction per tensor: the directional derivative the grad
    # gives against central differences of the whole rollout's loss
    params = ModelParams.init(ModelConfig(embed_dim=3, hidden_dim=4, strategy=strategy),
                              seed=n)
    window = random_walk_window(n, seed=60 + n)
    truth = window_truth_nabs(window)
    with dc.Tape() as tape:
        dc.backward(tape, l2_loss(rollout(params, window), truth))
    rng = np.random.default_rng(n)
    step = 1e-5
    for name, t in params.tensors().items():
        direction = rng.normal(size=t.shape)
        keep = t.values.copy()
        losses = []
        for sign in (1.0, -1.0):
            t.values[...] = keep + sign * step * direction
            losses.append(l2_loss(rollout(params, window), truth).item())
        t.values[...] = keep
        fd = (losses[0] - losses[1]) / (2.0 * step)
        grad = np.zeros_like(keep) if t.grad is None else t.grad
        assert rel_err(float(np.sum(grad * direction)), fd) <= 1e-6, name


def test_predictions_hold_a_column_per_sorted_pedestrian_and_rows_by_step():
    params = small_params(seed=11)
    base = cv_window(n_peds=3, seed=8)
    perm = [2, 0, 1]
    window = replace(base, ped_ids=[base.ped_ids[i] for i in perm],
                     positions=base.positions[perm])
    _, offsets = _scripted_rollout_abs(params, window)
    result = rollout(params, window)
    # row 2 s + xy of column k is pedestrian k's offset at prediction step s
    want = np.stack([offsets[p] for p in sorted(window.ped_ids)], axis=-1)
    assert result.predictions.shape == (12 * 2, 3)
    assert result.predictions.values.tobytes() == want.reshape(-1, 3).tobytes()


def _scripted_rollout_abs(params, window):
    """Drive the single-step ops by hand: relations for all ordered pairs,
    then attention, then motion. Each pedestrian is scored and normalized
    on its own run of pair columns, where scene_step scores every pair in
    one block and normalizes it in one segment softmax, so a bit-for-bit
    match shows that the block ops treat each run as it is alone.
    Returns the predicted absolute positions and offsets, ped -> (pred_len,
    2)."""
    cfg = params.config
    peds = sorted(window.ped_ids)
    state = SceneState.initial(peds, cfg.hidden_dim)

    def observed(t):
        return np.stack([window.track(p)[t] for p in peds], axis=1)

    anchors = observed(cfg.obs_len - 1)
    cur_abs, cur_nabs = Tensor(observed(0)), Tensor(observed(0) - anchors)
    collected = []
    for t in range(cfg.window_len - 1):
        if len(peds) > 1:   # a lone pedestrian has no pairs
            gates = md.relation_gates(params, state, md.embed_relative(params, state, cur_abs))
            state.r = dc.concat([md.relation_step(params, state, col, gates)[0]
                                 for col in range(len(state.cr))], axis=1)
        weights = h_j = None
        if cfg.strategy is not AttentionStrategy.NONE and len(peds) > 1:
            h_i = dc.matmul(state.h, state.own)
            h_j = dc.matmul(state.h, state.others)
            runs = zip(*(dc.split(t, len(peds), axis=1) for t in (state.r, h_i, h_j)))
            weights = dc.concat([
                md.attention_weights(md.attention_logits(params, cfg.strategy, *run), state.width)
                for run in runs], axis=1)
        context = md.social_context(state, weights, h_j, cfg.strategy)
        md.motion_step(params, state, md.embed_position(params, state, cur_nabs), context)
        preds = md.predict_offset(params, state)
        nxt = t + 1
        if nxt < cfg.obs_len:
            cur_abs, cur_nabs = Tensor(observed(nxt)), Tensor(observed(nxt) - anchors)
        else:
            collected.append(preds.values.copy())
            cur_abs, cur_nabs = Tensor(preds.values + anchors), preds
    offsets = {p: np.array([step[:, k] for step in collected]) for k, p in enumerate(peds)}
    return {p: offsets[p] + anchors[:, k] for k, p in enumerate(peds)}, offsets


def test_rollout_permutation_equivariant_bitwise():
    params = small_params(seed=13)
    base = random_walk_window(4, seed=21)
    perm = [2, 0, 3, 1]
    shuffled = TrajectoryWindow(
        scene_name=base.scene_name, start_frame=base.start_frame,
        ped_ids=[base.ped_ids[i] for i in perm],
        positions=base.positions[perm], obs_len=base.obs_len,
        pred_len=base.pred_len)
    a = rollout(params, base)
    b = rollout(params, shuffled)
    for p in base.ped_ids:
        assert np.array_equal(a.predicted_abs[p], b.predicted_abs[p])


def test_rollout_attention_trace_rows_sum_to_one():
    params = small_params(seed=17)
    window = cv_window(n_peds=3, seed=10)
    result = rollout(params, window, record_attention=True)
    assert len(result.attention) == 19
    for per_ped in result.attention:
        assert sorted(per_ped) == [1, 2, 3]
        for ped, (neighbors, weights) in per_ped.items():
            assert ped not in neighbors
            assert len(neighbors) == 2
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) < 1e-9


def test_rollout_attention_trace_off_by_default():
    params = small_params()
    assert rollout(params, cv_window()).attention is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rollout_non_finite_failure_names_the_step():
    broken = small_params(seed=1)
    broken["w_e"].values[...] = 1e308
    tracks = [np.cumsum(np.full((20, 2), 0.5), axis=0)]
    window = window_from_tracks(tracks)
    with pytest.raises(dc.NonFiniteError, match="rollout step 0"):
        rollout(broken, window)


# ---------------------------------------------------------------------------
# scene_step inputs

def test_scene_step_requires_positions_for_present_peds():
    params = small_params()
    state = SceneState.initial([1, 2], hidden_dim=8)
    pos = {1: Tensor(np.zeros((2, 1)))}
    with pytest.raises(md.UnknownPedestrianError):
        scene_step(params, state, pos, pos)
    zero = {1: Tensor(np.zeros((2, 1)))}
    for bad in (Tensor(np.zeros((3, 1))), (0.0, 0.0)):
        with pytest.raises(dc.ShapeMismatchError):
            scene_step(params, SceneState.initial([1], 8), {1: bad}, zero)


@st.composite
def scene_inputs(draw):
    """1-6 distinct pedestrian ids in drawn order, and per id an anchored
    offset and a position, each a pair of coordinates."""
    ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    return ids, {p: draw(st.lists(coord, min_size=4, max_size=4)) for p in ids}


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.sampled_from([s.value for s in AttentionStrategy]), scene_inputs())
def test_scene_step_answers_in_the_form_it_was_asked(strategy, scene):
    # columns in, columns out; a dict of per-pedestrian (2, 1) tensors in,
    # a dict of (2, 1) predictions out, with the same bits and attention
    ids, points = scene
    order = sorted(ids)
    params = small_params(seed=4, strategy=strategy)
    nabs, pos = (np.array([points[p][a:a + 2] for p in order]).T for a in (0, 2))
    by_columns, seen_by_columns = scene_step(params, SceneState.initial(ids, 8),
                                             Tensor(nabs), Tensor(pos), record_attention=True)
    nabs_by_ped, pos_by_ped = ({p: Tensor(x[:, [order.index(p)]]) for p in ids}
                               for x in (nabs, pos))
    by_ped, seen_by_ped = scene_step(params, SceneState.initial(ids, 8), nabs_by_ped,
                                     pos_by_ped, record_attention=True)
    assert by_columns.shape == (2, len(ids))
    assert sorted(by_ped) == order
    for k, p in enumerate(order):
        assert by_ped[p].shape == (2, 1)
        assert by_ped[p].values.tobytes() == by_columns.values[:, k:k + 1].tobytes()
    scored = order if strategy != "none" and len(ids) > 1 else []
    assert sorted(seen_by_ped) == sorted(seen_by_columns) == scored
    for p in scored:
        (neighbors, weights), (neighbors_c, weights_c) = seen_by_ped[p], seen_by_columns[p]
        assert neighbors == neighbors_c == [j for j in order if j != p]
        assert weights.tobytes() == weights_c.tobytes()


# ---------------------------------------------------------------------------
# loss

def test_truth_offsets_match_hand_calculation():
    window = cv_window(n_peds=2, seed=12)
    truth = window_truth_nabs(window)
    for p in window.ped_ids:
        track = window.track(p)
        want = track[8:] - track[7]
        assert np.array_equal(truth[p], want)


def test_truth_offsets_need_future_frames():
    scene = synth_scenario("parallel", seed=2)
    obs_only = build_windows(scene, obs_len=8, pred_len=0)[0]
    with pytest.raises(DataError):
        window_truth_nabs(obs_only)


def test_loss_zero_when_prediction_equals_truth():
    params = small_params(seed=23)
    result = rollout(params, cv_window(seed=13))
    truth = dict(zip(result.ped_ids, _offsets(result).copy()))
    assert l2_loss(result, truth).item() == 0.0


def test_loss_one_for_unit_offset_in_x():
    params = small_params(seed=23)
    result = rollout(params, cv_window(seed=13))
    truth = dict(zip(result.ped_ids, _offsets(result) + np.array([1.0, 0.0])))
    assert abs(l2_loss(result, truth).item() - 1.0) <= 1e-15


def test_loss_matches_mean_of_squares_oracle():
    params = small_params(seed=23)
    window = cv_window(n_peds=3, seed=14)
    result = rollout(params, window)
    truth = window_truth_nabs(window)
    got = l2_loss(result, truth).item()
    per_step = []
    for p, offsets in zip(result.ped_ids, _offsets(result)):
        diff = offsets - truth[p]
        per_step.extend(np.sum(diff * diff, axis=1).tolist())
    assert rel_err(got, float(np.mean(per_step))) <= 1e-15


def test_loss_rejects_mismatched_pedestrians_and_shapes():
    params = small_params(seed=23)
    result = rollout(params, cv_window(seed=13))
    with pytest.raises(ValueError, match="pedestrian sets"):
        l2_loss(result, {1: np.zeros((12, 2))})
    truth = {p: np.zeros((5, 2)) for p in result.ped_ids}
    with pytest.raises(ValueError, match="shape"):
        l2_loss(result, truth)


def test_loss_gradient_reaches_all_parameters():
    params = small_params(seed=29)
    window = cv_window(n_peds=3, seed=15)
    with dc.Tape() as tape:
        result = rollout(params, window)
        loss = l2_loss(result, window_truth_nabs(window))
        dc.backward(tape, loss)
    for name, t in params.tensors().items():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), name


def test_loss_truth_is_a_constant_that_takes_no_grad(monkeypatch):
    # the sub node lists the prediction alone: a constant operand takes no
    # adjoint, so the truth is read from the call
    params = small_params(seed=29)
    window = cv_window(n_peds=2, seed=15)
    operands, sub = [], dc.sub
    monkeypatch.setattr(dc, "sub", lambda a, b: operands.append((a, b)) or sub(a, b))
    with dc.Tape() as tape:
        result = rollout(params, window)
        loss = l2_loss(result, window_truth_nabs(window))
        # the loss chain is sub -> mul -> sum_all -> scale
        assert tape.nodes[-4][0] == (result.predictions.key,)
        dc.backward(tape, loss)
    (prediction, truth), = operands
    assert prediction is result.predictions
    assert type(truth) is dc.Constant
    assert truth.grad is None


# the parameters behind each strategy's logits, which reach the loss only
# through the softmax
SCORED = {"sra": ["w_at", "w_re", "b_re", *(f"rel_{k}{g}" for k in "wb" for g in "ifgo")],
          "ra": ["w_ra", "w_rae", "b_rae"],
          "sa": ["w_sa"]}


def test_attention_weight_gets_no_signal_from_a_single_neighbor():
    # with one neighbor the softmax output is the constant 1, so no adjoint
    # reaches the scorer or the relation encoder of a 2-pedestrian scene,
    # and their grads stay unset; the motion path still gets its grads
    window = cv_window(n_peds=2, seed=15)
    for strategy, scored in SCORED.items():
        params = small_params(seed=29, strategy=strategy)
        with dc.Tape() as tape:
            result = rollout(params, window)
            dc.backward(tape, l2_loss(result, window_truth_nabs(window)))
        assert [name for name in scored if params[name].grad is not None] == [], strategy
        assert all(params[name].grad is not None for name in ("w_e", "motion_wi", "w_p"))


@pytest.mark.parametrize("strategy", sorted(SCORED))
def test_a_two_pedestrian_train_step_keeps_its_bits_without_the_dead_replay(
        monkeypatch, strategy):
    # the same step with the one-entry softmax passing a zero adjoint, as
    # every softmax did before, which replays the encoder and scorer
    def train(zero_adjoint):
        with monkeypatch.context() as patch:
            if zero_adjoint:
                patch.setattr(dc, "_no_adjoint", lambda g: (np.zeros_like(g),))
            params = small_params(seed=31, strategy=strategy)
            opt = dc.AdamState(params.tensors())
            pl.train_step(params, opt, random_walk_window(2, seed=17))
        return [a.tobytes() for name, t in params.tensors().items()
                for a in (t.values, opt.m[name], opt.v[name])]

    assert train(zero_adjoint=False) == train(zero_adjoint=True)


@pytest.mark.parametrize("strategy,n,nodes", [
    ("sra", 1, 350), ("sra", 2, 899), ("sra", 4, 1659), ("sra", 8, 5003),
    ("ra", 1, 350), ("ra", 2, 534), ("ra", 4, 534), ("ra", 8, 534),
    ("sa", 1, 350), ("sa", 2, 461), ("sa", 4, 461), ("sa", 8, 461),
    ("none", 1, 350), ("none", 2, 350), ("none", 8, 350), ("none", 16, 350)],
    ids=["sra-1", "sra-2", "sra-4", "sra-8", "ra-1", "ra-2", "ra-4", "ra-8",
         "sa-1", "sa-2", "sa-4", "sa-8", "none-1", "none-2", "none-8", "none-16"])
def test_tape_nodes_per_window(strategy, n, nodes):
    # the recorded work of one train step on the default model; this may
    # tighten as the recurrence records fewer nodes, and must never loosen.
    # Without relation cells the scene is batched whole, so the count does
    # not depend on n, and a lone pedestrian under sra records exactly none's
    params = ModelParams.init(ModelConfig(strategy=strategy), seed=0)
    window = random_walk_window(n, seed=n)
    with dc.Tape() as tape:
        l2_loss(rollout(params, window), window_truth_nabs(window))
    assert len(tape) == nodes


@pytest.mark.parametrize("strategy,nodes", [("none", 350), ("sa", 461), ("ra", 534)])
def test_tape_nodes_per_window_do_not_depend_on_the_crowd_size(strategy, nodes):
    # every op of a scene step but the per-pair relation memory update runs
    # once per step on a whole block, so without relation cells a train
    # step records one count at every crowd size with neighbors
    params = ModelParams.init(ModelConfig(strategy=strategy), seed=0)
    counted = set()
    for n in range(2, 33):
        window = random_walk_window(n, seed=n)
        with dc.Tape() as tape:
            l2_loss(rollout(params, window), window_truth_nabs(window))
        counted.add(len(tape))
    assert counted == {nodes}


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_train_step_records_only_work_that_reaches_the_loss(strategy, n):
    # walked before backward, by the keys the tape lists: every node has an
    # input, so it is no work on constants alone, and a path to the loss,
    # so its output is read; a split's piece is read as its base
    params = ModelParams.init(ModelConfig(strategy=strategy), seed=0)
    window = random_walk_window(n, seed=n)
    with dc.Tape() as tape:
        loss = l2_loss(rollout(params, window), window_truth_nabs(window))
    assert [key for inputs, key, _ in tape.nodes if not inputs] == []
    base = {p: x for x, (pieces, _) in tape.splits.items() for p in pieces}
    live, dead = {loss.key}, 0
    for inputs, key, _ in reversed(tape.nodes):
        if key in live:
            live.update(base.get(t, t) for t in inputs)
        else:
            dead += 1
    assert dead == 0


@pytest.mark.parametrize("strategy,n,made", [
    ("none", 3, 8), ("sa", 3, 8), ("ra", 1, 8), ("sra", 1, 8), ("ra", 2, 17), ("sra", 3, 17)])
def test_rollout_builds_absolute_positions_only_when_a_step_reads_them(
        monkeypatch, strategy, n, made):
    # one observed-offset constant per observation step; the observed
    # absolute positions and the anchor columns only when some pedestrian
    # embeds displacements
    made_here = []

    class Counted(dc.Constant):
        __slots__ = ()

        def __init__(self, values):
            made_here.append(np.shape(values))
            super().__init__(values)

    monkeypatch.setattr(pl, "Constant", Counted)
    rollout(small_params(strategy=strategy), random_walk_window(n, seed=n))
    assert made_here == [(2, n)] * made


@pytest.mark.parametrize("n,picks", [(2, 3 * 2), (3, 3 * 3 * 2)])
def test_every_pair_picks_its_column_of_each_gate_block(monkeypatch, n, picks):
    # each of the three activated gate blocks is split into its pair
    # columns, views that record no node, and every ordered pair's memory
    # update reads its column of each; the softmax and the context sum
    # read the logits and the neighbor states whole, so nothing else is
    # split, and the only products by a selector are the three gathers
    params = small_params(seed=3)
    state = SceneState.initial(list(range(n)), hidden_dim=8)
    right, matmul = [], dc.matmul
    monkeypatch.setattr(dc, "matmul", lambda a, b: right.append((a, b)) or matmul(a, b))
    blocks, split = [], dc.split
    monkeypatch.setattr(dc, "split", lambda x, k, axis: blocks.append(x) or split(x, k, axis))
    pos = Tensor(np.arange(2.0 * n).reshape(2, n))
    state.h = Tensor(np.ones((8, n)))
    with dc.Tape() as tape:
        scene_step(params, state, pos, pos)
    pairs = n * (n - 1)
    # the tape notes each split by its base's key
    assert list(tape.splits) == [x.key for x in blocks]
    assert [(type(x), x.shape, axis) for x, (_, axis) in zip(blocks, tape.splits.values())] == \
        [(dc.Bounded, (8, pairs), 1)] * 3
    gates = [pieces for pieces, _ in tape.splits.values()]
    assert sum(map(len, gates)) == picks
    for x, pieces in zip(blocks, gates):
        for col, piece in enumerate(pieces):
            assert np.shares_memory(piece.values, x.values)
            assert piece.values.tobytes() == x.values[:, col:col + 1].tobytes()
    read = [t for inputs, _, _ in tape.nodes for t in inputs if t in tape.pieces]
    assert read == [g[col] for col in range(pairs) for g in gates]
    assert [b for _, b in right if type(b) is dc.Selector] == \
        [state.own, state.others, state.spread]


def test_no_context_sum_takes_a_constant_as_an_input(monkeypatch):
    # the first step's neighbor states are the zero constant; like matmul
    # and concat, the context sum leaves a constant out of its inputs, so
    # backward forms no adjoint for it
    outputs, weighted_sum = [], dc.weighted_sum
    monkeypatch.setattr(dc, "weighted_sum",
                        lambda *a, **k: outputs.append(weighted_sum(*a, **k)) or outputs[-1])
    window = random_walk_window(3, seed=3)
    with dc.Tape() as tape:
        rollout(small_params(seed=3), window)
    nodes = [inputs for inputs, key, _ in tape.nodes if any(key is o.key for o in outputs)]
    assert len(nodes) == len(outputs) == 19
    assert [len(inputs) for inputs in nodes] == [1] + [2] * 18
    assert not any(isinstance(t, dc.Constant) for inputs in nodes for t in inputs)


@pytest.mark.parametrize("n", [3, 8])
def test_pair_columns_and_their_adjoints_are_contiguous(monkeypatch, n):
    # each pair's memory update reads its column of the three gate blocks
    # and takes back its column of the new relation block's adjoint; both
    # are contiguous, so no elementwise op on a pair strides across a block,
    # and each block's adjoint is joined column-major (layout only, not
    # time)
    params = small_params(seed=n)
    window = random_walk_window(n, seed=n)
    pairs = n * (n - 1)
    # the new relation blocks, each the concat of its pairs' r columns
    blocks, concat = {}, dc.concat

    def noted(tensors, axis):
        out = concat(tensors, axis)
        if len(tensors) == pairs:
            assert out.shape == (8, pairs) and all(t.shape == (8, 1) for t in tensors)
            blocks[out.key] = out
        return out

    monkeypatch.setattr(dc, "concat", noted)
    split, bases = dc.split, []
    monkeypatch.setattr(dc, "split", lambda x, k, axis: bases.append(x) or split(x, k, axis))
    with dc.Tape() as tape:
        loss = l2_loss(rollout(params, window), window_truth_nabs(window))
    assert [x.shape for x in bases] == [(8, pairs)] * 19 * 3
    assert list(tape.splits) == [x.key for x in bases] and len(blocks) == 19
    picks = [p for pieces, _ in tape.splits.values() for p in pieces]
    assert len(picks) == 19 * pairs * 3 == len(tape.pieces)
    assert all(p.values.flags.c_contiguous and p.shape == (8, 1) for p in picks)
    joined, handed = [], []

    def joins(vjp):
        def pass_on(g):
            joined.append(g.flags.f_contiguous)
            return vjp(g)
        return pass_on

    def recorded(vjp):
        def pass_on(g):
            pieces = vjp(g)
            handed.extend(p.flags.c_contiguous for p in pieces)
            return pieces
        return pass_on

    for k, (inputs, key, vjp) in enumerate(tape.nodes):
        if key in blocks:
            tape.nodes[k] = (inputs, key, recorded(vjp))
        elif key in tape.splits:
            tape.nodes[k] = (inputs, key, joins(vjp))
    dc.backward(tape, loss)
    assert len(handed) == 19 * pairs and len(joined) == 19 * 3
    assert all(handed) and all(joined)


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
def test_no_node_of_a_train_window_lists_a_constant_input(strategy):
    # every op leaves a constant operand out of its node, so backward forms
    # no adjoint for one: the first step's zero cell states in each pair's
    # f * c, the anchors added to the fed-back offsets, the loss's truth
    params = ModelParams.init(ModelConfig(strategy=strategy), seed=0)
    window = random_walk_window(3, seed=3)
    with dc.Tape() as tape:
        l2_loss(rollout(params, window), window_truth_nabs(window))
    assert not any(isinstance(t, dc.Constant) for inputs, _, _ in tape.nodes for t in inputs)


def test_a_two_pedestrian_train_step_builds_no_accumulator_for_an_unreached_split(
        monkeypatch):
    # behind the one-neighbor softmax no piece of a gate block is reached,
    # so each block's split stays a note in the adjoint table; the only
    # accumulators built hold the folded weights' factor pairs
    built, init = [], dc._Adjoint.__init__

    def noted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(dc._Adjoint, "__init__", noted)
    bases, split = [], dc.split
    monkeypatch.setattr(dc, "split", lambda x, k, axis: bases.append(x) or split(x, k, axis))
    params = ModelParams.init(ModelConfig(strategy="sra"), seed=0)
    train_step(params, dc.AdamState(params.tensors()), random_walk_window(2, seed=2))
    assert len(bases) == 19 * 3
    assert built and all(acc.split is None for acc in built)


def test_an_eight_pedestrian_train_step_peaks_under_13_mb():
    # the tape keeps the arrays its vjps read and no other output of the
    # step (a step kept every output until backward, and peaked at 17 MB)
    import tracemalloc

    params = ModelParams.init(ModelConfig(strategy="sra"), seed=0)
    opt = dc.AdamState(params.tensors())
    train_step(params, opt, random_walk_window(1, seed=1))   # what any step loads once
    window = random_walk_window(8, seed=8)
    tracemalloc.start()
    try:
        train_step(params, opt, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20, peak / 2**20


def test_backward_matches_reference_on_a_rollout():
    # every parameter of a full sra step is the left operand of a matmul or
    # folded into one, so backward sums its products' factor pairs in one
    # product per block where the plain dict-accumulating pass sums one
    # dense adjoint per use: only the summation order moves. At n = 5 each
    # activated gate block joins the adjoints of its 20 pair columns
    for n in (3, 5):
        params = ModelParams.init(ModelConfig(strategy="sra"), seed=3)
        window = random_walk_window(n, seed=3)
        named = params.tensors()
        with dc.Tape() as tape:
            loss = l2_loss(rollout(params, window), window_truth_nabs(window))
        reference_backward(tape, loss)
        expected = {name: t.grad for name, t in named.items()}
        dc.zero_grads(named.values())
        dc.backward(tape, loss)
        for name, t in named.items():
            assert scaled_err(t.grad, expected[name]) <= 1e-12, (n, name)


GRAD_DIGEST = """
import hashlib
from sralstm import diffcore as dc
from sralstm.model import ModelConfig, ModelParams
from sralstm.pipeline import l2_loss, rollout, window_truth_nabs
from helpers import random_walk_window

for n in (8, 24, 32):
    params = ModelParams.init(ModelConfig(strategy="sra"), seed=5)
    window = random_walk_window(n, seed=5)
    with dc.Tape() as tape:
        loss = l2_loss(rollout(params, window), window_truth_nabs(window))
        dc.backward(tape, loss)
    digest = hashlib.sha256()
    for name, t in params.tensors().items():
        digest.update(name.encode())
        digest.update(t.grad.tobytes())
    print(digest.hexdigest())
"""


def test_grads_do_not_depend_on_the_blas_thread_count():
    # each relation weight's use covers every ordered pair: 56, 552 and 992
    # columns at n = 8, 24 and 32, which one plain product would sum in a
    # thread-dependent order past CONTRACT_BLOCK columns; at n=24 a motion
    # gate's 24-column uses fill a block only past CONTRACT_BLOCK columns,
    # so blocks of a fixed number of uses would sum 456 columns
    paths = [os.path.dirname(os.path.dirname(pl.__file__)), os.path.dirname(__file__)]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", GRAD_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert [len(d) for d in digests[0]] == [64, 64, 64]
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# training

def test_train_step_updates_parameters_and_clears_grads():
    params = small_params(seed=31)
    opt = dc.AdamState(params.tensors(), lr=1e-3)
    before = {n: t.values.copy() for n, t in params.tensors().items()}
    loss = train_step(params, opt, cv_window(n_peds=2, seed=16))
    assert np.isfinite(loss)
    assert opt.step == 1
    changed = [n for n, t in params.tensors().items()
               if not np.array_equal(t.values, before[n])]
    assert "w_p" in changed
    for t in params.tensors().values():
        assert t.grad is None


def test_training_is_seed_deterministic():
    def run():
        params = small_params(seed=37)
        opt = dc.AdamState(params.tensors(), lr=1e-3)
        rng = np.random.default_rng(37)
        windows = [cv_window(n_peds=2, seed=s) for s in (1, 2, 3)]
        return [train_epoch(params, opt, windows, rng) for _ in range(3)]

    assert run() == run()


def test_zero_learning_rate_changes_nothing():
    params = small_params(seed=41)
    opt = dc.AdamState(params.tensors(), lr=0.0)
    before = {n: t.values.copy() for n, t in params.tensors().items()}
    rng = np.random.default_rng(0)
    train_epoch(params, opt, [cv_window(seed=17)], rng)
    for n, t in params.tensors().items():
        assert np.array_equal(t.values, before[n]), n


def test_augmentation_draws_affect_the_loss_sequence():
    windows = [cv_window(n_peds=2, seed=s) for s in (4, 5)]

    def run(augment):
        params = small_params(seed=43)
        opt = dc.AdamState(params.tensors(), lr=1e-3)
        rng = np.random.default_rng(7)
        return train_epoch(params, opt, windows, rng, augment=augment)

    assert run(True) != run(False)


def test_train_epoch_rejects_empty_dataset():
    params = small_params()
    opt = dc.AdamState(params.tensors())
    with pytest.raises(DataError):
        train_epoch(params, opt, [], np.random.default_rng(0))


def test_training_loss_decreases_on_one_window():
    params = small_params(seed=47)
    opt = dc.AdamState(params.tensors(), lr=2e-2)
    window = cv_window(n_peds=2, seed=18)
    losses = [train_step(params, opt, window) for _ in range(150)]
    assert np.mean(losses[-10:]) < 0.05 * np.mean(losses[:10])


# ---------------------------------------------------------------------------
# checkpoints

def trained_state(tmp_path, steps=2):
    params = small_params(seed=53)
    opt = dc.AdamState(params.tensors(), lr=2e-3)
    for s in range(steps):
        train_step(params, opt, cv_window(n_peds=2, seed=s))
    return params, opt


def test_checkpoint_round_trip_bit_identical(tmp_path):
    params, opt = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    meta = {"epoch": 2, "seed": 53, "held_out": None, "loss_history": [1.0, 0.5]}
    save_checkpoint(path, params, opt, meta)
    ckpt = load_checkpoint(path)
    assert ckpt.config == params.config
    assert ckpt.metadata == meta
    rebuilt = ckpt.to_params()
    for name, t in params.tensors().items():
        assert np.array_equal(rebuilt.tensors()[name].values, t.values), name
    opt2 = ckpt.to_optimizer(rebuilt)
    assert opt2.step == opt.step
    assert (opt2.lr, opt2.beta1, opt2.beta2, opt2.eps) == \
        (opt.lr, opt.beta1, opt.beta2, opt.eps)
    for name in opt.m:
        assert np.array_equal(opt2.m[name], opt.m[name])
        assert np.array_equal(opt2.v[name], opt.v[name])


def test_saving_a_checkpoint_streams_its_arrays_without_copying_them(tmp_path):
    # each array's buffer goes to the temp file as it is; the write held a
    # copy of the whole payload, and then a second, and peaked at 2x its size
    import tracemalloc

    params = ModelParams.init(ModelConfig(), seed=0)
    opt = dc.AdamState(params.tensors())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, opt)
    tracemalloc.start()
    try:
        save_checkpoint(path, params, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_without_optimizer(tmp_path):
    params = small_params(seed=59)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, params)
    ckpt = load_checkpoint(path)
    assert ckpt.optimizer is None
    with pytest.raises(CheckpointError):
        ckpt.to_optimizer(ckpt.to_params())


def test_checkpoint_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"PNG\x00not a checkpoint at all")
    with pytest.raises(CheckpointCorruptError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    params, opt = trained_state(tmp_path)
    path = tmp_path / "v2.ckpt"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="version 2"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params, opt = trained_state(tmp_path)
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, params, opt)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_header_is_bounded_on_save_and_on_load(tmp_path, monkeypatch):
    # train's headers stay far under the real bound; a small one stands in
    params, _ = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    header_len = struct.unpack("<I", path.read_bytes()[12:16])[0]
    monkeypatch.setattr(pl, "MAX_HEADER_BYTES", header_len - 1)
    with pytest.raises(CheckpointCorruptError, match=f"{header_len}-byte header"):
        load_checkpoint(path)
    with pytest.raises(pl.OutputError, match="over the bound"):
        save_checkpoint(tmp_path / "other.ckpt", params)
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    params, _ = trained_state(tmp_path)
    path = tmp_path / "fat.ckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
    with pytest.raises(CheckpointCorruptError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_header(tmp_path):
    path = tmp_path / "a.ckpt"
    header = b"{{{{"
    path.write_bytes(pl.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header)
    with pytest.raises(CheckpointCorruptError, match="header"):
        load_checkpoint(path)


def _nan_first_value(header, payload):
    payload[:8] = struct.pack("<d", float("nan"))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h, p: h["arrays"][0].pop("name"), id="entry-without-name"),
    pytest.param(lambda h, p: h["arrays"][0].pop("shape"), id="entry-without-shape"),
    pytest.param(lambda h, p: h["arrays"][0].update(shape=["x", 1]), id="non-integer-shape"),
    pytest.param(lambda h, p: h["arrays"][0].update(shape=[-1, 2]), id="negative-shape"),
    pytest.param(lambda h, p: h.update(arrays=5), id="non-list-arrays"),
    pytest.param(lambda h, p: h.update(metadata=5), id="non-object-metadata"),
    pytest.param(_nan_first_value, id="nan-payload"),
])
def test_checkpoint_malformed_directory_or_payload_is_corrupt(tmp_path, edit):
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, small_params(seed=61))
    edit_checkpoint(path, edit)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def _set_optimizer(value):
    return lambda h, p: h.update(optimizer=value(h["optimizer"]))


@pytest.mark.parametrize("edit", [
    pytest.param(_set_optimizer(lambda o: 5), id="number"),
    pytest.param(_set_optimizer(lambda o: [o]), id="list"),
    pytest.param(_set_optimizer(lambda o: {k: v for k, v in o.items() if k != "lr"}),
                 id="missing-lr"),
    pytest.param(_set_optimizer(lambda o: {**o, "beta1": "0.9"}), id="string-beta1"),
    pytest.param(_set_optimizer(lambda o: {**o, "beta2": True}), id="boolean-beta2"),
    pytest.param(_set_optimizer(lambda o: {**o, "eps": float("inf")}), id="infinite-eps"),
    pytest.param(_set_optimizer(lambda o: {**o, "lr": float("nan")}), id="nan-lr"),
    pytest.param(_set_optimizer(lambda o: {**o, "step": -1}), id="negative-step"),
    pytest.param(_set_optimizer(lambda o: {**o, "step": 2.0}), id="float-step"),
    pytest.param(_set_optimizer(lambda o: {k: v for k, v in o.items() if k != "step"}),
                 id="missing-step"),
])
def test_checkpoint_malformed_optimizer_header_is_corrupt(tmp_path, edit):
    params, opt = trained_state(tmp_path)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, params, opt)
    edit_checkpoint(path, edit)
    with pytest.raises(CheckpointCorruptError, match="optimizer"):
        load_checkpoint(path)


def test_checkpoint_naming_an_array_twice_is_corrupt(tmp_path):
    # before, the later payload silently replaced the earlier one and
    # to_params failed with a usage-level ParamMismatchError
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, small_params(seed=61))
    edit_checkpoint(path, lambda h, p: h["arrays"][1].update(name=h["arrays"][0]["name"]))
    with pytest.raises(CheckpointCorruptError,
                       match=re.escape('entry 1: found {"name": "w_re", "shape": [6, 1]}, '
                                       'its config needs {"name": "b_re", "shape": [6, 1]}')):
        load_checkpoint(path)


def _set_entry_shape(name, shape):
    def edit(header, payload):
        (entry,) = [e for e in header["arrays"] if e["name"] == name]
        entry["shape"] = shape
    return edit


def _swap_first_entries(header, payload):
    arrays = header["arrays"]
    arrays[0], arrays[1] = arrays[1], arrays[0]


def _drop_last_array(header, payload):
    entry = header["arrays"].pop()
    del payload[len(payload) - 8 * int(np.prod(entry["shape"])):]


def _drop_moments(header, payload):
    kept = [e for e in header["arrays"] if not e["name"].startswith("adam.")]
    header["arrays"] = kept
    del payload[8 * sum(int(np.prod(e["shape"])) for e in kept):]


@pytest.mark.parametrize("edit,needs", [
    # before, the random model of the claimed size was drawn only to fail
    # in to_params with a usage-level ParamMismatchError
    pytest.param(lambda h, p: h["config"].update(hidden_dim=9), "rel_wi", id="claimed-hidden-dim"),
    pytest.param(lambda h, p: h["config"].update(strategy="sa"), "w_at", id="claimed-strategy"),
    pytest.param(_set_entry_shape("w_re", [2, 6]), "w_re", id="transposed-parameter"),
    # before, these loaded; the first Adam step then raised a bare
    # broadcasting ValueError, or to_optimizer a bare KeyError
    pytest.param(_set_entry_shape("adam.m.w_re", [2, 6]), "adam.m.w_re",
                 id="transposed-moment"),
    pytest.param(_drop_last_array, "adam.v.w_at", id="missing-moment"),
    pytest.param(_drop_moments, "adam.m.w_re", id="optimizer-without-moments"),
    pytest.param(lambda h, p: h.update(optimizer=None), "adam.m.w_re",
                 id="moments-without-optimizer"),
    # before, a directory in another order than the one save_checkpoint
    # writes loaded
    pytest.param(_swap_first_entries, "b_re", id="reordered-directory"),
    # JSON numbers equal to the ints of a shape are not that shape
    pytest.param(_set_entry_shape("w_re", [6.0, 2]), "w_re", id="float-shape"),
    pytest.param(_set_entry_shape("w_re", [6, True]), "w_re", id="boolean-shape"),
])
def test_checkpoint_arrays_must_fit_the_stored_config(tmp_path, edit, needs):
    params = small_params(seed=61)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, params, dc.AdamState(params.tensors()))
    edit_checkpoint(path, edit)
    with pytest.raises(CheckpointCorruptError, match=re.escape(f'"name": "{needs}"')):
        load_checkpoint(path)


def test_checkpoint_with_one_observed_frame_is_corrupt(tmp_path):
    path = tmp_path / "obs1.ckpt"
    save_checkpoint(path, small_params(seed=61))
    edit_checkpoint(path, lambda h, p: h["config"].update(obs_len=1))
    with pytest.raises(CheckpointCorruptError, match="obs_len"):
        load_checkpoint(path)


def test_checkpoint_with_a_window_longer_than_any_track_is_corrupt(tmp_path):
    # pred_len shapes no parameter, so only the config's bound stops it
    path = tmp_path / "long.ckpt"
    save_checkpoint(path, ModelParams.init(ModelConfig(embed_dim=4, hidden_dim=4), seed=0))
    edit_checkpoint(path, lambda h, p: h["config"].update(pred_len=10**9))
    with pytest.raises(CheckpointCorruptError, match="obs_len \\+ pred_len"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"5", b"[]", b'"config metadata arrays"'])
def test_checkpoint_header_that_is_not_an_object_is_corrupt(tmp_path, header):
    # before, membership tests on the header raised a bare TypeError
    path = tmp_path / "a.ckpt"
    path.write_bytes(pl.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header)
    with pytest.raises(CheckpointCorruptError, match="header"):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_checkpoint_config_mismatch_names_tensor(tmp_path):
    params, _ = trained_state(tmp_path)
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, params)
    ckpt = load_checkpoint(path)
    wider = ModelConfig(embed_dim=12, hidden_dim=8)
    with pytest.raises(pl.ParamMismatchError, match=re.escape(
            'entry 0: found {"name": "w_re", "shape": [6, 2]}, '
            'its config needs {"name": "w_re", "shape": [12, 2]}')):
        ckpt.to_params(wider)


def stored_checkpoint(tmp_path, config=SMALL, seed=2):
    """A saved and reloaded checkpoint of fresh params, with those params."""
    params = ModelParams.init(config, seed=seed)
    save_checkpoint(tmp_path / "a.ckpt", params)
    return load_checkpoint(tmp_path / "a.ckpt"), params


def test_to_params_round_trip(tmp_path):
    ckpt, params = stored_checkpoint(tmp_path)
    rebuilt = ckpt.to_params()
    assert rebuilt.config == SMALL
    assert list(rebuilt.tensors()) == list(params.tensors())
    for name, t in rebuilt.tensors().items():
        assert np.array_equal(t.values, params[name].values)


def test_to_params_reports_missing_and_extra(tmp_path):
    ckpt, _ = stored_checkpoint(tmp_path)
    # the sra table ends in w_at; none has no scorer and sa scores with w_sa
    with pytest.raises(pl.ParamMismatchError, match='found {"name": "w_at".*needs nothing'):
        ckpt.to_params(replace(SMALL, strategy=AttentionStrategy.NONE))
    with pytest.raises(pl.ParamMismatchError, match='"w_at".*needs {"name": "w_sa"'):
        ckpt.to_params(replace(SMALL, strategy=AttentionStrategy.SA))
    none_ckpt, _ = stored_checkpoint(tmp_path, replace(SMALL, strategy=AttentionStrategy.NONE))
    with pytest.raises(pl.ParamMismatchError, match='found nothing.*needs {"name": "w_at"'):
        none_ckpt.to_params(SMALL)


def test_to_params_names_misshapen_tensor(tmp_path):
    ckpt, _ = stored_checkpoint(tmp_path)
    # hidden_dim first shapes the relation LSTM, after w_re and b_re
    with pytest.raises(pl.ParamMismatchError, match=re.escape(
            'entry 2: found {"name": "rel_wi", "shape": [8, 14]}, '
            'its config needs {"name": "rel_wi", "shape": [9, 15]}')):
        ckpt.to_params(replace(SMALL, hidden_dim=9))
    # obs_len and pred_len shape no tensor
    assert ckpt.to_params(replace(SMALL, obs_len=4)).config.obs_len == 4


def test_to_params_draws_nothing(tmp_path, monkeypatch):
    ckpt, _ = stored_checkpoint(tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("to_params drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rebuilt = ckpt.to_params()
    assert rebuilt["w_at"].values is not ckpt.params["w_at"]
    # a claimed size is checked against the table, not materialized
    with pytest.raises(pl.ParamMismatchError, match="rel_wi"):
        ckpt.to_params(ModelConfig(embed_dim=6, hidden_dim=500))


def test_checkpoint_metrics_survive_round_trip(tmp_path):
    from sralstm.evalkit import evaluate

    params, _ = trained_state(tmp_path)
    windows = [cv_window(n_peds=2, seed=s) for s in (8, 9)]
    before = evaluate(params, windows)
    path = tmp_path / "eval.ckpt"
    save_checkpoint(path, params)
    after = evaluate(load_checkpoint(path).to_params(), windows)
    assert before.metrics_equal(after)


def test_open_regular_reads_only_regular_files(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes("é\n".encode("utf-8"))
    with pl.open_regular(path) as f:
        assert f.read() == "é\n".encode("utf-8")
    with pl.open_regular(path, "r", encoding="utf-8") as f:
        assert f.read() == "é\n"
    for other in (tmp_path, os.devnull):
        with pytest.raises(OSError, match=f"not a regular file: '{re.escape(str(other))}'"):
            pl.open_regular(other)


def test_atomic_write_replaces_not_appends(tmp_path):
    path = tmp_path / "out.txt"
    pl.atomic_write_text(path, "first")
    pl.atomic_write_text(path, "second")
    assert path.read_text() == "second"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
