"""The program's side of the benchmark's contract.

``perfbench/spans.py`` wraps the program's functions by name and counts
the autodiff primitives listed in its ``OPS``. A traced benchmark run fails
when a wrapper never fires, or when the relationship LSTM runs other than
19 n (n - 1) times per window; ``perfbench/counts.py`` reports tape nodes
as counted primitive calls. These tests load ``spans.py`` and
``counts.py`` as they are and hold the program to that contract through
their own counts, so the contract is written once, and a change to the
scene step that would break the benchmark fails here first.
"""

import importlib.util
import os
import re
from pathlib import Path

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


def load_counts(monkeypatch):
    """``perfbench/counts.py``, which imports spans.py as a sibling module."""
    monkeypatch.syspath_prepend(os.path.dirname(SPANS_PATH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_counts", os.path.join(os.path.dirname(SPANS_PATH), "counts.py"))
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    return counts


@pytest.mark.parametrize("strategy", ["none", "sa", "ra", "sra"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_relation_updates_and_tape_nodes_match_the_benchmark_counts(monkeypatch, strategy, n):
    # the benchmark's own counts: relation updates by the closed form, and
    # counted primitive calls equal to the nodes a tape records on the
    # same window and model
    counts = load_counts(monkeypatch)
    counted = counts.counts(strategy, n)
    assert counted["model.relation_updates_per_window"] == \
        (19 * n * (n - 1) if strategy == "sra" else 0)
    params = ModelParams.init(ModelConfig(strategy=strategy), seed=0)
    window = counts.window(n)
    with dc.Tape() as tape:
        pl.l2_loss(pl.rollout(params, window), pl.window_truth_nabs(window))
    assert len(tape) == counted["diffcore.tape_nodes_per_window"]


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


def test_readme_tape_node_table_matches_the_counts(monkeypatch):
    # the README's "now" rows, against perfbench/counts.py's own counts
    counts = load_counts(monkeypatch)
    readme = Path(SPANS_PATH).parent.parent.joinpath("README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` now \|(.*)\|$", readme, re.M)
    table = {s: [int(c.replace(",", "")) for c in cells.split("|")] for s, cells in rows}
    counted = {s: [counts.counts(s, n)["diffcore.tape_nodes_per_window"] for n in counts.SIZES]
               for s in counts.STRATEGIES}
    assert table == counted
