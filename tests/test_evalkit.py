"""Displacement metrics, window-set evaluation, and the strategy ablation."""

import platform
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import sralstm.diffcore as dc
import sralstm.evalkit as ek
import sralstm.model as md
import sralstm.pipeline as pl
from sralstm.data import DataError, TrajectoryWindow
from sralstm.evalkit import AblationRow, ablate, ade, evaluate, fde
from sralstm.model import ModelConfig, ModelParams

from helpers import constant_velocity_tracks, random_walk_window, rel_err, window_from_tracks

SMALL = ModelConfig(embed_dim=6, hidden_dim=8)


# ---------------------------------------------------------------------------
# metrics

def test_ade_constant_three_four_offset_is_exactly_five():
    truth = np.random.default_rng(0).normal(size=(2, 12, 2))
    predicted = truth + np.array([3.0, 4.0])
    assert ade(predicted, truth) == 5.0


def test_fde_equals_ade_at_horizon_one():
    rng = np.random.default_rng(1)
    predicted = rng.normal(size=(3, 1, 2))
    truth = rng.normal(size=(3, 1, 2))
    assert fde(predicted, truth) == ade(predicted, truth)


def test_error_only_at_final_step():
    truth = np.zeros((1, 12, 2))
    predicted = np.zeros((1, 12, 2))
    predicted[0, -1] = [0.0, 2.0]
    assert fde(predicted, truth) == 2.0
    assert ade(predicted, truth) == 2.0 / 12.0


def test_metrics_invariant_under_rigid_motion():
    rng = np.random.default_rng(2)
    predicted = rng.normal(size=(4, 12, 2))
    truth = rng.normal(size=(4, 12, 2))
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    shift = np.array([17.0, -4.0])
    moved_p = predicted @ rot.T + shift
    moved_t = truth @ rot.T + shift
    assert abs(ade(moved_p, moved_t) - ade(predicted, truth)) < 1e-9
    assert abs(fde(moved_p, moved_t) - fde(predicted, truth)) < 1e-9


def test_metrics_match_accumulation_oracle():
    rng = np.random.default_rng(3)
    predicted = rng.normal(size=(5, 7, 2))
    truth = rng.normal(size=(5, 7, 2))
    dists = []
    finals = []
    for p in range(5):
        for t in range(7):
            d = np.sqrt(np.sum((predicted[p, t] - truth[p, t]) ** 2))
            dists.append(d)
            if t == 6:
                finals.append(d)
    assert rel_err(ade(predicted, truth), float(np.mean(dists))) < 1e-12
    assert rel_err(fde(predicted, truth), float(np.mean(finals))) < 1e-12


def test_metrics_promote_single_track():
    rng = np.random.default_rng(4)
    predicted = rng.normal(size=(12, 2))
    truth = rng.normal(size=(12, 2))
    assert ade(predicted, truth) == ade(predicted[np.newaxis], truth[np.newaxis])
    assert fde(predicted, truth) == fde(predicted[np.newaxis], truth[np.newaxis])


def test_metrics_validate_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        ade(np.zeros((2, 12, 2)), np.zeros((3, 12, 2)))
    with pytest.raises(ValueError, match=r"\(T, 2\) or \(P, T, 2\)"):
        ade(np.zeros((2, 12, 3)), np.zeros((2, 12, 3)))
    with pytest.raises(ValueError, match="at least one"):
        fde(np.zeros((2, 0, 2)), np.zeros((2, 0, 2)))


# ---------------------------------------------------------------------------
# evaluate

def stationary_window(n_peds=2):
    tracks = [np.tile([float(p), -float(p)], (20, 1)) for p in range(n_peds)]
    return window_from_tracks(tracks)


def all_zero_params():
    params = ModelParams.init(SMALL, seed=0)
    for t in params.tensors().values():
        t.values[...] = 0.0
    return params


def test_evaluate_stationary_scene_with_zero_model_is_perfect():
    # zero parameters predict zero offsets, i.e. "stay at the anchor",
    # which is exactly right for pedestrians who never move
    report = evaluate(all_zero_params(), [stationary_window()])
    assert report.ade == 0.0
    assert report.fde == 0.0
    assert report.window_count == 1
    assert report.pedestrian_count == 2


def test_evaluate_aggregates_per_pedestrian_means():
    params = ModelParams.init(SMALL, seed=5)
    windows = [window_from_tracks(constant_velocity_tracks(2, 20, seed=s))
               for s in (1, 2, 3)]
    report = evaluate(params, windows)
    means = []
    finals = []
    for rec in report.windows:
        means.extend(rec.displacements.mean(axis=1).tolist())
        finals.extend(rec.displacements[:, -1].tolist())
    assert report.pedestrian_count == len(means) == 6
    assert rel_err(report.ade, float(np.mean(means))) < 1e-12
    assert rel_err(report.fde, float(np.mean(finals))) < 1e-12


def test_evaluate_is_deterministic():
    params = ModelParams.init(SMALL, seed=6)
    windows = [window_from_tracks(constant_velocity_tracks(2, 20, seed=9))]
    a = evaluate(params, windows)
    b = evaluate(params, windows)
    assert a.metrics_equal(b)


def test_evaluate_distinguishes_models():
    windows = [window_from_tracks(constant_velocity_tracks(2, 20, seed=9))]
    a = evaluate(ModelParams.init(SMALL, seed=1), windows)
    b = evaluate(ModelParams.init(SMALL, seed=2), windows)
    assert not a.metrics_equal(b)


def test_evaluate_names_scene_and_reads_no_clock(monkeypatch):
    # timing belongs to the command line; the report holds metrics only
    def refuse(*args):
        raise AssertionError("evaluate read the clock or the platform")

    for module, name in ((time, "perf_counter"), (platform, "processor"),
                         (platform, "machine")):
        monkeypatch.setattr(module, name, refuse)
    window = stationary_window()
    report = evaluate(ModelParams.init(SMALL, seed=7), [window])
    assert report.scene_name == window.scene_name
    assert {f.name for f in fields(report)} == {
        "scene_name", "window_count", "pedestrian_count", "ade", "fde", "windows"}


def test_evaluate_rejects_empty_window_set():
    with pytest.raises(ValueError, match="zero windows"):
        evaluate(ModelParams.init(SMALL, seed=0), [])


@pytest.mark.parametrize("pred_len", [11, 13])
def test_evaluate_rejects_a_window_of_another_length_before_its_rollout(
        monkeypatch, pred_len):
    # a window one frame short or long of the config's cannot be scored
    # against its truth; it is refused before any rollout work is spent
    def no_rollout(params, window):
        raise AssertionError("rolled out a window that cannot be scored")

    monkeypatch.setattr(ek, "rollout", no_rollout)
    window = window_from_tracks(constant_velocity_tracks(2, 8 + pred_len, seed=4),
                                pred_len=pred_len)
    with pytest.raises(DataError, match=f"window has {8 + pred_len} frames"):
        evaluate(ModelParams.init(SMALL, seed=0), [window])


# ---------------------------------------------------------------------------
# stacked evaluation: windows of one crowd size share a rollout

# crowd sizes 1-5 interleaved, so every size's stack gathers windows from
# all over the input; ids run down from 9, so they repeat across windows
MIXED_SIZES = [3, 1, 5, 2, 4, 2, 1, 3, 5, 4, 2, 3]


def mixed_windows(sizes=MIXED_SIZES):
    return [replace(random_walk_window(n, seed=10 + i), start_frame=i,
                    ped_ids=list(range(9, 9 - n, -1)))
            for i, n in enumerate(sizes)]


def recording_rollouts(monkeypatch):
    """Route evaluate's rollouts through a wrapper; returns the list of
    (windows, result) it records."""
    calls = []
    original = ek.rollout

    def recorded(params, windows, *args, **kwargs):
        result = original(params, windows, *args, **kwargs)
        calls.append((list(windows), result))
        return result

    monkeypatch.setattr(ek, "rollout", recorded)
    return calls


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
def test_stacked_predictions_equal_single_window_rollouts(monkeypatch, strategy):
    params = ModelParams.init(replace(SMALL, strategy=strategy), seed=3)
    windows = mixed_windows()
    calls = recording_rollouts(monkeypatch)
    report = evaluate(params, windows)
    assert len(calls) == len(set(MIXED_SIZES))
    seen = []
    for stack, result in calls:
        assert len({len(w.ped_ids) for w in stack}) == 1
        for i, w in enumerate(stack):
            single = pl.rollout(params, w)
            for p in w.ped_ids:
                gap = np.abs(result.predicted_abs[i, p] - single.predicted_abs[p]).max()
                assert gap <= 1e-12, (strategy, len(w.ped_ids), p, gap)
            seen.append(w.start_frame)
    assert sorted(seen) == list(range(len(windows)))
    for w, record in zip(windows, report.windows):
        single = pl.rollout(params, w)
        predicted = np.stack([single.predicted_abs[p] for p in w.ped_ids])
        truth = np.linalg.norm(predicted - w.positions[:, 8:], axis=-1)
        assert np.abs(record.displacements - truth).max() <= 1e-12


def test_a_stacked_rollout_updates_each_ordered_pair_of_its_windows(monkeypatch):
    params = ModelParams.init(SMALL, seed=4)
    calls = []
    original = md.relation_step

    def counted(*args):
        calls.append(args[2:4])
        return original(*args)

    monkeypatch.setattr(md, "relation_step", counted)
    for n in (1, 2, 3, 5):
        calls.clear()
        windows = mixed_windows([n] * 3)
        result = pl.rollout(params, windows)
        assert len(calls) == sum(19 * n * (n - 1) for _ in windows)
        assert result.ped_ids == [(i, p) for i in range(3) for p in range(10 - n, 10)]


def test_a_stacked_rollout_keys_attention_by_window():
    params = ModelParams.init(SMALL, seed=4)
    result = pl.rollout(params, mixed_windows([3, 3]), record_attention=True)
    for step in result.attention:
        assert set(step) == set(result.ped_ids)
        for (i, p), (neighbors, weights) in step.items():
            assert neighbors == [(i, q) for q in (7, 8, 9) if q != p]
            assert weights.sum() == pytest.approx(1.0)


def test_a_stack_holds_one_crowd_size():
    with pytest.raises(ValueError, match="one number"):
        pl.rollout(ModelParams.init(SMALL, seed=0), mixed_windows([2, 3]))


def test_shifting_the_rollouts_predictions_moves_every_record(monkeypatch):
    # the benchmark's --corrupt path: evaluate must score what rollout returns
    params = ModelParams.init(SMALL, seed=5)
    windows = mixed_windows()
    clean = evaluate(params, windows)
    original = ek.rollout

    def shifted(*args, **kwargs):
        result = original(*args, **kwargs)
        for key in result.predicted_abs:
            result.predicted_abs[key] = result.predicted_abs[key] + 1e-6
        return result

    monkeypatch.setattr(ek, "rollout", shifted)
    bad = evaluate(params, windows)
    for a, b in zip(clean.windows, bad.windows):
        assert np.all(a.displacements != b.displacements)


def test_evaluate_rolls_out_one_stack_per_cap_of_pedestrians(monkeypatch):
    windows = mixed_windows([2] * 20)
    calls = recording_rollouts(monkeypatch)
    evaluate(ModelParams.init(SMALL, seed=6), windows)
    assert len(calls) == -(-40 // ek.STACK_PEDESTRIANS)
    assert all(sum(len(w.ped_ids) for w in stack) <= ek.STACK_PEDESTRIANS
               for stack, _ in calls)
    # a window over the cap rolls out alone
    big = random_walk_window(ek.STACK_PEDESTRIANS + 1, seed=1)
    calls.clear()
    evaluate(ModelParams.init(SMALL, seed=6), [big, big])
    assert [len(stack) for stack, _ in calls] == [1, 1]


def test_a_tape_free_evaluation_builds_no_one_hot_matrix(monkeypatch):
    # the gathers pick columns by index; only a backward pass replays one
    # as the one-hot product it stands for
    built, transpose = [], dc.Selector.transpose
    monkeypatch.setattr(dc.Selector, "transpose", lambda s: built.append(s.rows) or transpose(s))
    params = ModelParams.init(SMALL, seed=3)
    windows = [random_walk_window(12, seed=s) for s in (1, 2)]
    evaluate(params, windows)
    assert built == []
    pl.train_step(params, dc.AdamState(params.tensors()), windows[0])
    assert built


def test_records_and_ade_keep_the_input_order():
    params = ModelParams.init(SMALL, seed=7)
    windows = mixed_windows()
    report = evaluate(params, windows)
    assert [(r.start_frame, r.ped_ids) for r in report.windows] == [
        (w.start_frame, w.ped_ids) for w in windows]
    alone = [evaluate(params, [w]) for w in windows]
    for record, single in zip(report.windows, alone):
        assert np.abs(record.displacements - single.windows[0].displacements).max() <= 1e-12
    means = np.concatenate([r.windows[0].displacements.mean(axis=1) for r in alone])
    finals = np.concatenate([r.windows[0].displacements[:, -1] for r in alone])
    assert report.pedestrian_count == len(means) == sum(MIXED_SIZES)
    assert abs(report.ade - float(np.mean(means))) <= 1e-12
    assert abs(report.fde - float(np.mean(finals))) <= 1e-12
    # pooled in input order, bit for bit
    own = np.concatenate([r.displacements.mean(axis=1) for r in report.windows])
    assert report.ade == float(np.mean(own))


# ---------------------------------------------------------------------------
# ablate

def ablation_windows():
    train = [window_from_tracks(constant_velocity_tracks(3, 20, seed=s))
             for s in (1, 2)]
    test = [window_from_tracks(constant_velocity_tracks(3, 20, seed=5))]
    return train, test


def test_ablate_covers_requested_strategies():
    train, test = ablation_windows()
    rows = ablate(SMALL, ["none", "sra"], train, test, epochs=1, seed=3)
    assert [r.strategy for r in rows] == ["none", "sra"]
    for row in rows:
        assert np.isfinite(row.ade) and row.ade >= 0.0
        assert np.isfinite(row.fde) and row.fde >= 0.0
        assert np.isfinite(row.final_loss)
        cfg = replace(SMALL, strategy=row.strategy)
        assert row.param_count == md.param_count(cfg)


def test_ablate_accepts_enum_members_and_is_deterministic():
    train, test = ablation_windows()
    a = ablate(SMALL, [md.AttentionStrategy.SA], train, test, epochs=1, seed=4)
    b = ablate(SMALL, ["sa"], train, test, epochs=1, seed=4)
    assert a == b
    assert isinstance(a[0], AblationRow)
