"""The program's side of the benchmark's contract.

``perfbench/spans.py`` wraps the program's functions by name and counts
the autodiff primitives listed in its ``OPS``. A traced benchmark run fails
when a wrapper never fires, or when the relationship LSTM runs other than
19 n (n - 1) times per window; ``perfbench/counts.py`` reports tape nodes
as counted primitive calls. These tests load ``spans.py`` as it is and
hold the program to that contract, so a change to the scene step that
would break the benchmark fails here first.
"""

import importlib.util
import os

import pytest

import sralstm.diffcore as dc
import sralstm.model as md
import sralstm.pipeline as pl
from sralstm.model import ModelConfig, ModelParams

from helpers import random_walk_window

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


def counting(monkeypatch, module, name: str, counts: dict):
    """Replace module.name by a wrapper that counts its calls in counts[name]."""
    fn = getattr(module, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_relation_updates_and_tape_nodes_match_the_benchmark_counts(monkeypatch, strategy, n):
    params = ModelParams.init(ModelConfig(embed_dim=6, hidden_dim=8, strategy=strategy),
                              seed=n)
    window = random_walk_window(n, seed=n)
    calls = {}
    counting(monkeypatch, md, "relation_step", calls)
    pl.rollout(params, window)
    assert calls["relation_step"] == (19 * n * (n - 1) if strategy == "sra" else 0)

    ops = {}
    for op in SPANS.OPS:
        counting(monkeypatch, dc, op, ops)
    with dc.Tape() as tape:
        pl.l2_loss(pl.rollout(params, window), pl.window_truth_nabs(window))
    assert len(tape) == sum(ops.values())


def test_every_model_site_fires_in_an_sra_rollout():
    params = ModelParams.init(ModelConfig(embed_dim=6, hidden_dim=8), seed=0)
    window = random_walk_window(2, seed=0)
    rec = SPANS.Recorder()
    rec.install()
    try:
        pl.l2_loss(pl.rollout(params, window), pl.window_truth_nabs(window))
    finally:
        rec.uninstall()
    wanted = [f"{mod}.{attr}" for mod, attr, _ in SPANS.SITES
              if mod == "sralstm.model"
              or (mod == "sralstm.pipeline" and attr in ("rollout", "scene_step", "l2_loss"))]
    assert len(wanted) == 11
    assert [site for site in wanted if rec.site_calls[site] == 0] == []
    assert not hasattr(md.relation_step, "__wrapped__")
