"""Tests of the benchmark itself: inputs, counts, checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import filecmp

import numpy as np
import pytest

import compare
import counts
import gen
import harness
import npref
import spans
from sralstm import evalkit, model, pipeline


def test_counts_repeat_exactly_and_relation_updates_match_closed_form():
    for strategy in ("none", "sa", "ra", "sra"):
        for n in (1, 2, 4):
            first = counts.counts(strategy, n)
            assert counts.counts(strategy, n) == first
            closed = 19 * n * (n - 1) if strategy == "sra" else 0
            assert first["model.relation_updates_per_window"] == closed


@pytest.mark.parametrize("strategy", ["none", "sra"])
def test_tape_node_count_equals_a_recorded_tape(strategy):
    params = model.ModelParams.init(model.ModelConfig(strategy=strategy), seed=0)
    win = counts.window(3)
    with pipeline.dc.Tape() as tape:
        result = pipeline.rollout(params, win)
        pipeline.l2_loss(result, pipeline.window_truth_nabs(win))
    assert len(tape) == counts.counts(strategy, 3)["diffcore.tape_nodes_per_window"]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_numpy_reference_matches_rollout(n):
    params = model.ModelParams.init(model.ModelConfig(), seed=n)
    win = counts.window(n)
    result = pipeline.rollout(params, win)
    got = np.stack([result.predicted_abs[p] for p in win.ped_ids])
    w = {k: t.values for k, t in params.tensors().items()}
    assert np.max(np.abs(npref.sra_forward(w, win.positions) - got)) <= 1e-12


def test_inputs_depend_on_the_seed_only(tmp_path):
    spec = harness.WORKLOADS["eval-crowd"]
    a = gen.write_inputs(str(tmp_path / "a"), 3, spec)
    b = gen.write_inputs(str(tmp_path / "b"), 3, spec)
    c = gen.write_inputs(str(tmp_path / "c"), 4, spec)
    assert filecmp.cmp(a["scenes"]["plaza"], b["scenes"]["plaza"], shallow=False)
    assert not filecmp.cmp(a["scenes"]["plaza"], c["scenes"]["plaza"], shallow=False)
    assert filecmp.cmp(a["checkpoint"], b["checkpoint"], shallow=False)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_schedules_get_exactly_their_crowd_sizes(tmp_path, workload):
    spec = harness.WORKLOADS[workload]
    paths = gen.write_inputs(str(tmp_path), 5, spec)
    loaded = harness.setup(paths)
    train, requests = gen.select(loaded.windows, 5, spec)
    assert sorted(len(w.ped_ids) for w in train) == sorted(e.peds for e in spec.train)
    for req, entry in zip(requests, spec.requests):
        assert [len(w.ped_ids) for w in req] == [entry.peds] * entry.count
        starts = [w.start_frame for w in req]
        assert starts == list(range(starts[0], starts[0] + entry.count))


def test_clean_run_passes_and_corrupted_run_is_counted_as_failed(tmp_path):
    clean = harness.run("train-small", 1, 0, False, str(tmp_path / "clean"))
    assert clean["failed"] == 0 and clean["metrics"]["ok_share"][0] == 1.0
    bad = harness.run("train-small", 1, 0, False, str(tmp_path / "bad"), corrupt=True)
    assert bad["failed"] > 0 and bad["metrics"]["ok_share"][0] < 1.0
    assert any("numpy reference" in r for r in bad["reasons"])
    assert evalkit.rollout is pipeline.rollout


def test_timings_scale_each_call_by_the_host_readings_around_it():
    nominal = harness.hostref.NOMINAL_S
    gauge = harness.hostref.Gauge()
    # readings at t = 0 and 10 show double speed, at t = 20 and 30 half speed
    gauge.at = [0.0, 10.0, 20.0, 30.0]
    gauge.kernel = [nominal / 2, nominal / 2, 2 * nominal, 2 * nominal]
    cyc = harness.Cycle(traced=False, step_s=[0.2, 0.4], step_at=[21.0, 22.0],
                        save_s=0.02, save_at=23.0, request_s=[0.1], request_at=[25.0])
    setup_loads = [(1.0, 0.01)]
    raw = harness._timings([cyc], setup_loads, 2, 3)
    scaled = harness._timings([cyc], setup_loads, 2, 3, gauge)
    assert raw["train.windows_per_s"][0] == pytest.approx(2 / 0.62)
    assert scaled["train.windows_per_s"][0] == pytest.approx(2 / 0.31)
    assert scaled["eval.windows_per_s"][0] == pytest.approx(2 * raw["eval.windows_per_s"][0])
    assert scaled["setup_s"][0] == pytest.approx(0.02)


def test_traced_run_fires_every_wrapper_and_matches_untraced(tmp_path):
    res = harness.run("train-small", 2, 0, True, str(tmp_path), spans_path=str(tmp_path / "s.jsonl"))
    assert res["failed"] == 0
    assert res["metrics"]["model.relation_updates_per_window"][0] > 0
    assert (tmp_path / "s.jsonl").stat().st_size > 0
    for mod, attr, _ in spans.SITES:
        assert not hasattr(getattr(__import__(mod, fromlist=["x"]), attr), "__wrapped__")


def test_a_wrapper_that_never_fires_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SITES", spans.SITES + (("sralstm.evalkit", "ablate", "x"),))
    with pytest.raises(RuntimeError, match="sralstm.evalkit.ablate"):
        harness.run("train-small", 2, 0, True, str(tmp_path))


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [x * 0.5 for x in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [x * 1.5 for x in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(reversed(base)), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [x * 1.5 for x in base], "higher", None)[0] == "improved"
