"""Displacement metrics, window-set evaluation, and the strategy ablation."""

from dataclasses import replace

import numpy as np
import pytest

import sralstm.model as md
from sralstm.data import TrajectoryWindow
from sralstm.evalkit import AblationRow, ablate, ade, evaluate, fde
from sralstm.model import ModelConfig, ModelParams

from helpers import constant_velocity_tracks, rel_err, window_from_tracks

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


def test_evaluate_is_deterministic_modulo_timing():
    params = ModelParams.init(SMALL, seed=6)
    windows = [window_from_tracks(constant_velocity_tracks(2, 20, seed=9))]
    a = evaluate(params, windows)
    b = evaluate(params, windows)
    assert a.metrics_equal(b)
    assert a.metrics_equal(replace(b, seconds_per_step=123.0, hardware="other"))


def test_evaluate_distinguishes_models():
    windows = [window_from_tracks(constant_velocity_tracks(2, 20, seed=9))]
    a = evaluate(ModelParams.init(SMALL, seed=1), windows)
    b = evaluate(ModelParams.init(SMALL, seed=2), windows)
    assert not a.metrics_equal(b)


def test_evaluate_names_scene_and_reports_timing():
    params = ModelParams.init(SMALL, seed=7)
    window = stationary_window()
    report = evaluate(params, [window])
    assert report.scene_name == window.scene_name
    assert report.seconds_per_step > 0.0
    assert isinstance(report.hardware, str) and report.hardware


def test_evaluate_rejects_empty_window_set():
    with pytest.raises(ValueError, match="zero windows"):
        evaluate(ModelParams.init(SMALL, seed=0), [])


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
