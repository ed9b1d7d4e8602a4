"""End-to-end command-line tests: every verb, every exit code, and
byte-determinism of the file outputs."""

import argparse
import json
import os
import platform
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sralstm.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         UsageError, build_parser, build_run_config, main)
import sralstm.cli
import sralstm.data as data_module
import sralstm.evalkit
from sralstm.data import (SCENARIO_KINDS, TrajectoryWindow, build_windows,
                          parse_annotations, regrid, scene_to_annotation_text,
                          synth_scenario)
from sralstm.model import MAX_PARAMS, AttentionStrategy, ModelConfig, ModelParams
from sralstm.pipeline import (CHECKPOINT_MAGIC, MAX_HEADER_BYTES, load_checkpoint, rollout,
                              save_checkpoint)

from helpers import edit_checkpoint

TINY_MODEL = {"embed_dim": 6, "hidden_dim": 8, "strategy": "sra"}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenes")
    for name, kind, seed in (("A", "parallel", 1), ("B", "meeting", 2)):
        scene = synth_scenario(kind, seed=seed)
        (d / f"{name}.txt").write_text(scene_to_annotation_text(scene))
    return d


def base_config(data_dir, out_dir):
    return {
        "model": dict(TINY_MODEL),
        "train": {"epochs": 2, "learning_rate": 0.002, "seed": 3},
        "data": {
            "scenes": {"A": str(data_dir / "A.txt"), "B": str(data_dir / "B.txt")},
            "held_out": "B",
        },
        "out_dir": str(out_dir),
    }


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def run_train(data_dir, tmp_path, tag="run"):
    out = tmp_path / tag
    cfg_path = write_config(tmp_path / f"{tag}.json", base_config(data_dir, out))
    rc = main(["train", "--config", cfg_path])
    return rc, out


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    rc, out = run_train(data_dir, tmp)
    assert rc == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_a_parseable_scene(tmp_path, capsys):
    rc = main(["synth", "--scenario", "parallel", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    path = tmp_path / "parallel-3.txt"
    assert path.exists()
    assert str(path) in capsys.readouterr().out
    with open(path) as f:
        scene = regrid(parse_annotations(f), 0.4, name="roundtrip")
    windows = build_windows(scene, 8, 12)
    assert len(windows) == 1
    assert windows[0].ped_ids == [1, 2]


def test_synth_rejects_unknown_scenario(tmp_path, capsys):
    rc = main(["synth", "--scenario", "zigzag", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_loss_log(trained):
    ckpt = load_checkpoint(trained / "checkpoint.ckpt")
    assert ckpt.config.embed_dim == 6
    assert ckpt.config.strategy is AttentionStrategy.SRA
    assert ckpt.metadata["epoch"] == 2
    assert ckpt.metadata["held_out"] == "B"
    assert len(ckpt.metadata["loss_history"]) == 2
    lines = (trained / "loss_log.tsv").read_text().splitlines()
    assert lines[0] == "# epoch\tmean_l2_loss"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:], start=1):
        epoch, loss = line.split("\t")
        assert int(epoch) == i
        assert np.isfinite(float(loss))


def test_train_reruns_are_byte_identical(data_dir, tmp_path, trained):
    rc, out = run_train(data_dir, tmp_path, tag="again")
    assert rc == EXIT_OK
    assert (out / "loss_log.tsv").read_bytes() == \
        (trained / "loss_log.tsv").read_bytes()
    assert (out / "checkpoint.ckpt").read_bytes() == \
        (trained / "checkpoint.ckpt").read_bytes()


def test_train_flag_overrides_file_epochs(data_dir, tmp_path):
    out = tmp_path / "short"
    cfg_path = write_config(tmp_path / "c.json", base_config(data_dir, out))
    rc = main(["train", "--config", cfg_path, "--epochs", "1"])
    assert rc == EXIT_OK
    assert load_checkpoint(out / "checkpoint.ckpt").metadata["epoch"] == 1


def test_train_periodic_checkpoints(data_dir, tmp_path):
    out = tmp_path / "periodic"
    cfg = base_config(data_dir, out)
    cfg["train"]["epochs"] = 3
    cfg["train"]["save_every"] = 1
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_OK
    assert (out / "checkpoint.epoch1.ckpt").exists()
    assert (out / "checkpoint.epoch2.ckpt").exists()
    # the final epoch goes to the main checkpoint, not a periodic one
    assert not (out / "checkpoint.epoch3.ckpt").exists()
    assert (out / "checkpoint.ckpt").exists()


# ---------------------------------------------------------------------------
# eval

def eval_config(data_dir, out_dir, held_out=True):
    cfg = base_config(data_dir, out_dir)
    del cfg["model"]
    del cfg["train"]
    if not held_out:
        del cfg["data"]["held_out"]
    return cfg


def test_eval_writes_reports(data_dir, tmp_path, trained, capsys):
    out = tmp_path / "eval"
    cfg_path = write_config(tmp_path / "e.json", eval_config(data_dir, out))
    rc = main(["eval", "--config", cfg_path,
               "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    (row,) = report["rows"]
    assert row["scene"] == "B"
    assert row["windows"] == 1 and row["pedestrians"] == 2
    assert np.isfinite(row["ade"]) and np.isfinite(row["fde"])
    text = (out / "report.txt").read_text()
    assert text.startswith("scene")
    assert "B" in text
    stdout = capsys.readouterr().out
    assert "ADE" in stdout
    assert "not part of the report files" in stdout


def test_eval_prints_its_timing_on_stdout_only(data_dir, tmp_path, trained, capsys):
    out = tmp_path / "timed"
    cfg_path = write_config(tmp_path / "t.json", eval_config(data_dir, out))
    assert main(["eval", "--config", cfg_path,
                 "--checkpoint", str(trained / "checkpoint.ckpt")]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("timing:")]
    (line,) = lines
    m = re.fullmatch(r"timing: (\d+\.\d{3}) ms per recurrence step on (\S.*) "
                     r"\(not part of the report files\)", line)
    assert m, line
    assert float(m.group(1)) > 0.0
    assert m.group(2) == (platform.machine() or "unknown hardware")
    for name in ("report.json", "report.txt"):
        assert "timing" not in (out / name).read_text()


def test_eval_reruns_are_byte_identical(data_dir, tmp_path, trained):
    outs = []
    for tag in ("e1", "e2"):
        out = tmp_path / tag
        cfg_path = write_config(tmp_path / f"{tag}.json", eval_config(data_dir, out))
        assert main(["eval", "--config", cfg_path,
                     "--checkpoint", str(trained / "checkpoint.ckpt")]) == EXIT_OK
        outs.append(out)
    for name in ("report.json", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_eval_held_out_falls_back_to_checkpoint_metadata(data_dir, tmp_path, trained):
    out = tmp_path / "fallback"
    cfg_path = write_config(tmp_path / "f.json",
                            eval_config(data_dir, out, held_out=False))
    rc = main(["eval", "--config", cfg_path,
               "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["scene"] == "B"


# ---------------------------------------------------------------------------
# ablate

def test_ablate_covers_all_strategies(data_dir, tmp_path, capsys):
    out = tmp_path / "ablation"
    cfg = base_config(data_dir, out)
    cfg["train"]["epochs"] = 1
    rc = main(["ablate", "--config", write_config(tmp_path / "a.json", cfg)])
    assert rc == EXIT_OK
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert [r["strategy"] for r in rows] == ["none", "sa", "ra", "sra"]
    for r in rows:
        assert np.isfinite(r["ade"]) and np.isfinite(r["final_loss"])
        assert r["param_count"] > 0
    table = (out / "ablation.txt").read_text()
    assert table.splitlines()[0].startswith("strategy")
    assert "sra" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# predict

def read_tsv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    cols = lines[0][2:].split("\t")
    return [dict(zip(cols, line.split("\t"))) for line in lines[1:]]


def test_predict_synthetic_scenario(tmp_path, trained, capsys):
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "meeting", "--seed", "5", "--out", str(out),
               "--emit", "trajectories", "--emit", "attention"])
    assert rc == EXIT_OK
    rows = read_tsv(out / "predictions.tsv")
    assert len(rows) == 2 * (8 + 12 + 12)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"obs", "truth", "pred"}
    for r in rows:
        float(r["x"]), float(r["y"])

    att = read_tsv(out / "attention.tsv")
    assert {r["scene"] for r in att} == {"meeting-5"}
    steps = {int(r["step"]) for r in att}
    assert steps == set(range(19))
    sums = {}
    for r in att:
        key = (r["step"], r["ped_id"])
        w = float(r["weight"])
        assert 0.0 <= w <= 1.0
        sums[key] = sums.get(key, 0.0) + w
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())


def test_predict_group_attention_sums(tmp_path, trained):
    out = tmp_path / "group"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "group_avoid", "--out", str(out),
               "--emit", "attention"])
    assert rc == EXIT_OK
    att = read_tsv(out / "attention.tsv")
    per_row = {}
    for r in att:
        key = (r["step"], r["ped_id"])
        per_row.setdefault(key, []).append(float(r["weight"]))
    for weights in per_row.values():
        assert len(weights) == 3           # four pedestrians, three neighbors
        assert abs(sum(weights) - 1.0) < 1e-9


@pytest.mark.parametrize("emit, written", [
    ([], ["predictions.tsv"]),
    (["attention"], ["attention.tsv"]),
    (["attention", "trajectories"], ["attention.tsv", "predictions.tsv"]),
], ids=["default", "attention", "both"])
def test_predict_writes_only_the_files_emit_names(tmp_path, trained, emit, written):
    # before, predictions.tsv was written whatever --emit said
    out = tmp_path / "emit"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "meeting", "--out", str(out)]
              + [arg for value in emit for arg in ("--emit", value)])
    assert rc == EXIT_OK
    assert sorted(os.listdir(out)) == written


def test_predict_pure_future_without_truth(tmp_path, trained):
    scene = synth_scenario("parallel", seed=7)
    short = scene_to_annotation_text(scene)
    short_lines = [l for l in short.splitlines() if l.startswith("#")
                   or int(l.split()[0]) < 8]
    scene_file = tmp_path / "obs_only.txt"
    scene_file.write_text("\n".join(short_lines) + "\n")
    out = tmp_path / "future"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scene-file", str(scene_file), "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_tsv(out / "predictions.tsv")
    kinds = {r["kind"] for r in rows}
    assert kinds == {"obs", "pred"}
    assert len(rows) == 2 * (8 + 12)
    pred_frames = sorted({int(r["frame"]) for r in rows if r["kind"] == "pred"})
    assert pred_frames == list(range(8, 20))


def test_predict_window_start_filter(tmp_path, trained):
    from sralstm.data import SynthParams
    scene = synth_scenario("parallel", SynthParams(frames=22), seed=9)
    scene_file = tmp_path / "long.txt"
    scene_file.write_text(scene_to_annotation_text(scene))
    out = tmp_path / "w2"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scene-file", str(scene_file), "--window-start", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_tsv(out / "predictions.tsv")
    assert {r["window_start"] for r in rows} == {"2"}


@pytest.mark.parametrize("frames,start", [(40, None), (40, 7), (22, 5)],
                         ids=["first-full", "full-at-start", "observation-only-at-start"])
def test_predict_rolls_out_the_window_build_windows_lists(tmp_path, trained, frames, start):
    # the oracle is the old lookup: every window of the scene, first full
    # ones, then observation-only ones, the first at the requested start
    from sralstm.data import SynthParams
    argv = ["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
            "--scenario", "parallel", "--frames", str(frames), "--seed", "3",
            "--out", str(tmp_path)]
    assert main(argv + (["--window-start", str(start)] if start is not None else [])) == EXIT_OK
    scene = synth_scenario("parallel", SynthParams(frames=frames), seed=3)
    window = next(w for pred_len in (12, 0) for w in build_windows(scene, 8, pred_len)
                  if start is None or w.start_frame == start)
    predicted = rollout(load_checkpoint(trained / "checkpoint.ckpt").to_params(),
                        window).predicted_abs
    rows = [r for r in read_tsv(tmp_path / "predictions.tsv") if r["kind"] == "pred"]
    assert {r["window_start"] for r in rows} == {str(window.start_frame)}
    assert [[float(r["x"]), float(r["y"])] for r in rows] == [
        xy for p in window.ped_ids for xy in predicted[p].tolist()]


def test_predict_builds_only_the_window_it_rolls_out(tmp_path, trained, monkeypatch):
    # before, predict built all 181 windows of a 200-frame scene to use one
    built = []

    def counting_window(*args, **kwargs):
        built.append(kwargs.get("start_frame"))
        return TrajectoryWindow(*args, **kwargs)

    monkeypatch.setattr(data_module, "TrajectoryWindow", counting_window)
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "parallel", "--frames", "200", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert built == [0]


def test_predict_scene_path_with_a_nul_is_data_error(tmp_path, trained, capsys):
    # before, open() raised a bare ValueError: embedded null byte
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scene-file", "a\0b", "--out", str(tmp_path)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and "cannot read" in err


def test_predict_config_model_that_misfits_the_checkpoint_is_usage_error(
        tmp_path, trained, capsys):
    # before, predict used the checkpoint's model and exited 0, where eval
    # with the same config exited 1
    cfg = {"model": {"embed_dim": 8, "hidden_dim": 16, "strategy": "sa"},
           "out_dir": str(tmp_path / "out")}
    rc = main(["predict", "--config", write_config(tmp_path / "c.json", cfg),
               "--checkpoint", str(trained / "checkpoint.ckpt"), "--scenario", "meeting"])
    assert rc == EXIT_USAGE
    assert "does not fit the model asked for" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_config_pred_len_sets_the_predicted_steps(tmp_path, trained):
    out = tmp_path / "out"
    cfg = {"model": dict(TINY_MODEL, pred_len=5), "out_dir": str(out)}
    rc = main(["predict", "--config", write_config(tmp_path / "c.json", cfg),
               "--checkpoint", str(trained / "checkpoint.ckpt"), "--scenario", "meeting"])
    assert rc == EXIT_OK
    kinds = [r["kind"] for r in read_tsv(out / "predictions.tsv")]
    assert (kinds.count("obs"), kinds.count("truth"), kinds.count("pred")) == (16, 10, 10)


def test_predict_without_input_is_a_usage_error(trained, capsys):
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_USAGE
    assert "scene-file or --scenario" in capsys.readouterr().err


def test_predict_with_both_inputs_is_a_usage_error(tmp_path, trained, capsys):
    # before, exit 0: --scenario was silently ignored
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(scene_to_annotation_text(synth_scenario("parallel", seed=7)))
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scene-file", str(scene_file), "--scenario", "meeting",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and "not allowed with" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# output directory

@pytest.mark.parametrize("verb", ["train", "eval", "ablate", "predict", "synth"])
def test_out_dir_under_a_regular_file_is_refused_before_any_work(
        verb, data_dir, tmp_path, trained, capsys):
    # a path under a regular file, since permission bits do not stop root
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    bad = blocker / "sub"
    cfg = (eval_config if verb == "eval" else base_config)(data_dir, tmp_path / "unused")
    cfg_path = write_config(tmp_path / "c.json", cfg)
    ckpt = ["--checkpoint", str(trained / "checkpoint.ckpt")]
    argv = {"train": ["train", "--config", cfg_path],
            "eval": ["eval", "--config", cfg_path, *ckpt],
            "ablate": ["ablate", "--config", cfg_path],
            "predict": ["predict", *ckpt, "--scenario", "meeting"],
            "synth": ["synth", "--scenario", "parallel"]}[verb]
    before = sorted(tmp_path.rglob("*"))
    rc = main(argv + ["--out", str(bad)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(bad) in captured.err
    assert "epoch" not in captured.out
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("verb,target", [
    ("train", "checkpoint.ckpt"), ("eval", "report.json"), ("ablate", "ablation.json"),
    ("predict", "predictions.tsv"), ("synth", "parallel-0.txt")])
def test_unwritable_output_file_is_one_usage_error_line(
        verb, target, data_dir, tmp_path, trained, capsys, monkeypatch):
    # before, a directory at the output path ended the run in an
    # IsADirectoryError traceback from the rename, and then train and
    # ablate found it only after their last epoch
    epochs = []
    for module in (sralstm.cli, sralstm.evalkit):
        real = module.train_epoch
        monkeypatch.setattr(module, "train_epoch",
                            lambda *a, real=real, **k: epochs.append(1) or real(*a, **k))
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    cfg = (eval_config if verb == "eval" else base_config)(data_dir, out)
    cfg_path = write_config(tmp_path / "c.json", cfg)
    ckpt = ["--checkpoint", str(trained / "checkpoint.ckpt")]
    argv = {"train": ["train", "--config", cfg_path, "--epochs", "1"],
            "eval": ["eval", "--config", cfg_path, *ckpt],
            "ablate": ["ablate", "--config", cfg_path, "--epochs", "1"],
            "predict": ["predict", *ckpt, "--scenario", "meeting", "--out", str(out)],
            "synth": ["synth", "--scenario", "parallel", "--out", str(out)]}[verb]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    err = captured.err
    assert err.startswith(f"error: cannot write {out / target}: ") and err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [target]
    assert "epoch" not in captured.out and epochs == []


@pytest.mark.parametrize("target", ["loss_log.tsv", "checkpoint.epoch2.ckpt"])
def test_train_refuses_a_directory_at_any_of_its_outputs_before_training(
        target, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    cfg = base_config(data_dir, out)
    cfg["train"]["save_every"] = 2
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg), "--epochs", "3"])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE and "epoch" not in captured.out
    assert captured.err == f"error: cannot write {out / target}: Is a directory\n"


def test_out_dir_that_is_a_regular_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    rc = main(["synth", "--scenario", "parallel", "--out", str(blocker)])
    assert rc == EXIT_USAGE
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "a regular file\n"


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--bogus"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv,rejected", [
    (["train", "--emit", "trajectories"], "--emit"),
    (["eval", "--checkpoint", "c.ckpt", "--seed", "1"], "--seed"),
    (["eval", "--checkpoint", "c.ckpt", "--epochs", "1"], "--epochs"),
    (["ablate", "--strategy", "sra"], "--strategy"),
    (["predict", "--checkpoint", "c.ckpt", "--emit", "loss"], "'loss'"),
    (["predict", "--checkpoint", "c.ckpt", "--held-out", "A"], "--held-out"),
    (["predict", "--checkpoint", "c.ckpt", "--epochs", "1"], "--epochs"),
    (["predict", "--checkpoint", "c.ckpt", "--strategy", "sra"], "--strategy"),
    (["synth", "--scenario", "parallel", "--held-out", "A"], "--held-out"),
    (["synth", "--scenario", "parallel", "--epochs", "1"], "--epochs"),
    (["synth", "--scenario", "parallel", "--strategy", "sra"], "--strategy"),
], ids=["train-emit", "eval-seed", "eval-epochs", "ablate-strategy",
        "predict-emit-loss", "predict-held-out", "predict-epochs",
        "predict-strategy", "synth-held-out", "synth-epochs", "synth-strategy"])
def test_flags_a_verb_never_reads_are_usage_errors(argv, rejected, capsys):
    assert main(argv) == EXIT_USAGE
    assert rejected in capsys.readouterr().err


def test_readme_flag_table_lists_every_flag_the_parser_takes():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {verb: set(re.findall(r"--[a-z][a-z-]*", flags))
             for verb, flags in re.findall(r"^\| `(\w+)` +\|(.*)\|$", readme, re.M)}
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    parsed = {verb: {o for a in sub._actions for o in a.option_strings}
              - {"--config", "--out", "-h", "--help"}
              for verb, sub in subs.choices.items()}
    assert table == parsed


def train_args(tmp_path, cfg):
    return build_parser().parse_args(
        ["train", "--config", write_config(tmp_path / "c.json", cfg)])


def test_string_learning_rate_is_usage_error(data_dir, tmp_path):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["train"]["learning_rate"] = "fast"
    with pytest.raises(UsageError, match="learning_rate"):
        build_run_config(train_args(tmp_path, cfg))


def test_string_source_timestep_is_usage_error(data_dir, tmp_path):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["data"]["source_timestep"] = "0.4"
    with pytest.raises(UsageError, match="source_timestep"):
        build_run_config(train_args(tmp_path, cfg))


def test_nan_clip_norm_is_usage_error(data_dir, tmp_path):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["train"]["clip_norm"] = float("nan")
    with pytest.raises(UsageError, match="clip_norm"):
        build_run_config(train_args(tmp_path, cfg))


def test_non_boolean_augment_is_usage_error(data_dir, tmp_path):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["train"]["augment"] = "no"
    with pytest.raises(UsageError, match="augment"):
        build_run_config(train_args(tmp_path, cfg))


def test_non_string_scene_path_is_usage_error(data_dir, tmp_path):
    # open(0) would read stdin and block the run
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["data"]["scenes"]["A"] = 0
    with pytest.raises(UsageError, match="scenes"):
        build_run_config(train_args(tmp_path, cfg))


@pytest.mark.parametrize("edit,named", [
    (lambda c: c.update(model=[["embed_dim", 6], ["hidden_dim", 8]]), "'model'"),
    (lambda c: c.update(train=[1, 2]), "'train'"),
    (lambda c: c.update(data="B"), "'data'"),
    (lambda c: c["data"].update(held_out=["B"]), "held_out"),
    (lambda c: c.update(out_dir=5), "out_dir"),
    (lambda c: c["model"].update(obs_len=1), "obs_len"),
    (lambda c: c["train"].update(epochs=True), "epochs"),
    (lambda c: c["train"].update(seed=-1), "seed"),
    (lambda c: c["train"].update(save_every=1.5), "save_every"),
    (lambda c: c["data"].update(stride=0), "stride"),
], ids=["model-list-of-pairs", "train-list", "data-string", "list-held-out",
        "number-out-dir", "one-observed-frame", "boolean-epochs", "negative-seed",
        "fractional-save-every", "zero-stride"])
def test_mistyped_config_value_is_usage_error(data_dir, tmp_path, edit, named):
    # before, a list of pairs was read as an object, the other edits raised
    # TypeError or ValueError later, and obs_len 1 was accepted
    cfg = base_config(data_dir, tmp_path / "x")
    edit(cfg)
    with pytest.raises(UsageError, match=named):
        build_run_config(train_args(tmp_path, cfg))


@pytest.mark.parametrize("section,key,bad,flag,given", [
    ("train", "epochs", "x", "--epochs", 2),
    ("train", "seed", "x", "--seed", 4),
    ("data", "held_out", ["B"], "--held-out", "B"),
    (None, "out_dir", 5, "--out", "d"),
    ("model", "strategy", "bogus", "--strategy", "sa"),
], ids=["epochs", "seed", "held-out", "out-dir", "strategy"])
def test_flag_replaces_the_file_value_before_it_is_checked(
        data_dir, tmp_path, section, key, bad, flag, given):
    # before, a flagged epochs or seed replaced a bad file value, but a bad
    # held_out or out_dir was a usage error even with its flag given
    cfg = base_config(data_dir, tmp_path / "x")
    (cfg[section] if section else cfg)[key] = bad
    argv = ["train", "--config", write_config(tmp_path / "c.json", cfg),
            flag, str(given)]
    run = build_run_config(build_parser().parse_args(argv))
    assert (run.model.strategy.value if section == "model" else getattr(run, key)) == given


@pytest.mark.parametrize("flag,value,named", [("--epochs", "0", "epochs"),
                                              ("--seed", "-1", "seed")])
def test_flag_value_is_checked_like_a_file_value(flag, value, named):
    with pytest.raises(UsageError, match=named):
        build_run_config(build_parser().parse_args(["train", flag, value]))


def test_unknown_config_key_is_usage_error(data_dir, tmp_path, capsys):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["trian"] = cfg.pop("train")
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_USAGE
    assert "unknown config keys" in capsys.readouterr().err


def test_config_without_scenes_is_usage_error(tmp_path, capsys):
    cfg = {"data": {"held_out": "B"}, "out_dir": str(tmp_path / "x")}
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_USAGE
    assert "no data scenes" in capsys.readouterr().err


def test_eval_config_without_scenes_is_usage_error(tmp_path, trained, capsys):
    # before, eval exited 2 with "unknown scene 'B'; have []"
    cfg = {"data": {"held_out": "B"}, "out_dir": str(tmp_path / "x")}
    rc = main(["eval", "--config", write_config(tmp_path / "c.json", cfg),
               "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_USAGE
    assert "no data scenes" in capsys.readouterr().err


def test_zero_epochs_is_usage_error(data_dir, tmp_path, capsys):
    cfg = base_config(data_dir, tmp_path / "x")
    cfg["train"]["epochs"] = 0
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_strategy_mismatched_checkpoint_is_usage_error(data_dir, tmp_path,
                                                       trained, capsys):
    cfg_path = write_config(tmp_path / "e.json",
                            eval_config(data_dir, tmp_path / "x"))
    rc = main(["eval", "--config", cfg_path, "--strategy", "sa",
               "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_missing_scene_file_is_data_error(data_dir, tmp_path, capsys):
    out = tmp_path / "nope"
    cfg = base_config(data_dir, out)
    cfg["data"]["scenes"]["A"] = str(tmp_path / "absent.txt")
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err
    assert not (out / "checkpoint.ckpt").exists()


def test_corrupt_checkpoint_is_data_error(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    cfg_path = write_config(tmp_path / "e.json",
                            eval_config(data_dir, tmp_path / "x"))
    rc = main(["eval", "--config", cfg_path, "--checkpoint", str(bad)])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_non_string_held_out_in_checkpoint_metadata_is_data_error(
        data_dir, tmp_path, trained, capsys):
    # before, the fallback raised TypeError: unhashable type
    ckpt = load_checkpoint(trained / "checkpoint.ckpt")
    path = tmp_path / "listed.ckpt"
    save_checkpoint(path, ckpt.to_params(), metadata={"held_out": ["B"]})
    cfg_path = write_config(tmp_path / "f.json",
                            eval_config(data_dir, tmp_path / "x", held_out=False))
    rc = main(["eval", "--config", cfg_path, "--checkpoint", str(path)])
    assert rc == EXIT_DATA
    assert "held_out" in capsys.readouterr().err


def test_checkpoint_claiming_a_larger_model_is_data_error(data_dir, tmp_path,
                                                          trained, capsys):
    # before, eval drew a random model of the claimed size, then exited 1
    path = tmp_path / "claims.ckpt"
    path.write_bytes((trained / "checkpoint.ckpt").read_bytes())
    edit_checkpoint(path, lambda h, p: h["config"].update(hidden_dim=500))
    cfg_path = write_config(tmp_path / "e.json",
                            eval_config(data_dir, tmp_path / "x"))
    rc = main(["eval", "--config", cfg_path, "--checkpoint", str(path)])
    assert rc == EXIT_DATA
    assert "its config needs" in capsys.readouterr().err


@pytest.mark.parametrize("scene_path", ["binary", "nul"])
def test_unreadable_scene_path_is_data_error(data_dir, tmp_path, trained,
                                             scene_path, capsys):
    # before, undecodable bytes escaped as UnicodeDecodeError and a NUL in
    # the path as ValueError
    cfg = eval_config(data_dir, tmp_path / "x")
    cfg["data"]["scenes"]["B"] = {
        "binary": str(trained / "checkpoint.ckpt"),
        "nul": str(data_dir / "B.txt") + "\u0000",
    }[scene_path]
    rc = main(["eval", "--config", write_config(tmp_path / "e.json", cfg),
               "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # before, UnicodeDecodeError escaped
    path = tmp_path / "c.json"
    path.write_bytes(b'{"out_dir": "\xff"}')
    assert main(["train", "--config", str(path)]) == EXIT_USAGE
    assert "cannot read config file" in capsys.readouterr().err


def test_predict_scene_file_that_is_not_utf8_is_data_error(tmp_path, trained, capsys):
    # before, UnicodeDecodeError escaped
    path = tmp_path / "scene.txt"
    path.write_bytes(b"0 1 0.0 \xff\n")
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scene-file", str(path), "--out", str(tmp_path / "x")])
    assert rc == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err


def predict_scene_text(tmp_path, trained, text, config=None):
    """Exit code of predict on annotation text, with an optional config."""
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(text, encoding="utf-8")
    argv = ["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
            "--scene-file", str(scene_file), "--out", str(tmp_path / "out")]
    if config is not None:
        argv += ["--config", write_config(tmp_path / "predict.json", config)]
    return main(argv)


def straight_rows(frames, ped=1):
    return "".join(f"{f} {ped} {0.1 * k} 0.0\n" for k, f in enumerate(frames))


@pytest.mark.parametrize("timestep", [1e300, 1e308])
def test_source_timestep_beyond_the_track_bound_is_usage_error(
        tmp_path, trained, capsys, timestep):
    # before, regrid raised a bare ValueError (1e300) or OverflowError (1e308)
    config = {"data": {"source_timestep": timestep}}
    assert predict_scene_text(tmp_path, trained, straight_rows(range(20)),
                              config) == EXIT_USAGE
    assert "error: source_timestep" in capsys.readouterr().err


def test_frame_ids_far_apart_are_data_error(tmp_path, trained, capsys):
    # before, regrid tried to allocate a 7 PiB grid
    assert predict_scene_text(tmp_path, trained,
                              straight_rows([0, 10 ** 15])) == EXIT_DATA
    assert "pedestrian 1: frame times do not fit" in capsys.readouterr().err


def test_frame_id_beyond_the_float_range_is_data_error(tmp_path, trained, capsys):
    # before, OverflowError: int too large to convert to float; such an id
    # is now over the ids' bound, so the parse refuses it
    assert predict_scene_text(tmp_path, trained,
                              straight_rows([0, 10 ** 400])) == EXIT_DATA
    assert "line 2: frame_id and ped_id must be integers of magnitude at most 2^53" in \
        capsys.readouterr().err


def test_coordinates_that_interpolate_to_non_finite_are_data_error(
        tmp_path, trained, capsys):
    # before, exit 3: "tensor constructed from non-finite values"
    assert predict_scene_text(tmp_path, trained,
                              "0 1 -1e308 0\n19 1 1e308 0\n") == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and "pedestrian 1: interpolated" in err
    assert "Traceback" not in err


def test_window_start_without_window_is_data_error(tmp_path, trained, capsys):
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "parallel", "--window-start", "99",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_DATA
    assert "no usable window" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--scenario", "meeting", "--speed", "nan"], "speed must be finite"),
    (["--scenario", "meeting", "--speed", "inf"], "speed must be finite"),
    (["--scenario", "meeting", "--spacing", "nan"], "spacing must be finite"),
    (["--scenario", "meeting", "--noise", "nan"], "noise must be finite"),
    (["--scenario", "following", "--speed", "0"], "greater than 0"),
    (["--scenario", "parallel", "--noise", "-1"], "noise must be finite and at least 0"),
    (["--scenario", "parallel", "--frames", "10001"], "2 to 10000 frames"),
    (["--scenario", "following", "--frames", "9999"], "lags the follower"),
    (["--scenario", "following", "--speed", "1e-300"], "lags the follower"),
    (["--scenario", "parallel", "--speed", "1e308"], "positions overflow"),
], ids=["speed-nan", "speed-inf", "spacing-nan", "noise-nan", "speed-zero",
        "noise-negative", "frames-over-bound", "following-lag-over-bound",
        "following-tiny-speed", "positions-overflow"])
def test_bad_synth_shape_is_data_error(tmp_path, capsys, argv, message):
    # before: exit 0 with nan or inf rows, no noise for -1, or a traceback
    # (ZeroDivisionError at speed 0, ValueError sizing the lag at 1e-300)
    rc = main(["synth", *argv, "--out", str(tmp_path)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_predict_nan_speed_is_data_error(tmp_path, trained, capsys):
    # before, exit 3: "tensor constructed from non-finite values"
    rc = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
               "--scenario", "meeting", "--speed", "nan", "--out", str(tmp_path)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and "speed must be finite" in err
    assert "Traceback" not in err


def test_divergent_training_is_numeric_error(data_dir, tmp_path, capsys):
    cfg = base_config(data_dir, tmp_path / "boom")
    cfg["train"]["learning_rate"] = 1e300
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.count("numeric failure: ") == 1
    # the overflow that ends the run is reported once, not warned about
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# inputs that are too deep or too large

def test_deeply_nested_config_file_is_usage_error(tmp_path, capsys):
    # before, RecursionError escaped from the JSON decoder
    path = tmp_path / "c.json"
    path.write_text("[" * 100_000)
    assert main(["train", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and "not valid JSON" in err
    assert "Traceback" not in err


def test_deeply_nested_checkpoint_header_is_data_error(tmp_path, capsys):
    # before, RecursionError escaped from the JSON decoder
    path = tmp_path / "a.ckpt"
    header = b"[" * 100_000
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header)
    rc = main(["predict", "--checkpoint", str(path), "--scenario", "meeting",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and "malformed header" in err
    assert "Traceback" not in err


def test_repeated_config_key_is_usage_error(data_dir, tmp_path, capsys):
    # before, the last of the repeated keys won without a word
    out = tmp_path / "out"
    text = json.dumps(base_config(data_dir, out))
    assert '"epochs": 2' in text
    path = tmp_path / "c.json"
    path.write_text(text.replace('"epochs": 2', '"epochs": 3, "epochs": 1'))
    assert main(["train", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "repeated key 'epochs'" in err
    assert not out.exists()


def test_repeated_checkpoint_header_key_is_data_error(tmp_path, trained, capsys):
    # before, the last of the repeated keys won without a word
    blob = (trained / "checkpoint.ckpt").read_bytes()
    (n,) = struct.unpack("<I", blob[12:16])
    header = b'{"metadata": {}, ' + blob[17:16 + n]
    path = tmp_path / "twice.ckpt"
    path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + n:])
    rc = main(["predict", "--checkpoint", str(path), "--scenario", "meeting",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "repeated key 'metadata'" in err


def test_model_beyond_the_parameter_bound_is_usage_error(data_dir, tmp_path, capsys):
    # before, train died allocating 7.28 TiB for the first weight matrix
    cfg = base_config(data_dir, tmp_path / "huge")
    cfg["model"]["hidden_dim"] = 1_000_000
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and f"the bound is {MAX_PARAMS}" in err
    assert not (tmp_path / "huge").exists()


def test_checkpoint_beyond_the_parameter_bound_is_data_error(data_dir, tmp_path,
                                                             trained, capsys):
    path = tmp_path / "a.ckpt"
    path.write_bytes((trained / "checkpoint.ckpt").read_bytes())
    edit_checkpoint(path, lambda h, p: h["config"].update(hidden_dim=1_000_000))
    cfg_path = write_config(tmp_path / "e.json", eval_config(data_dir, tmp_path / "x"))
    rc = main(["eval", "--config", cfg_path, "--checkpoint", str(path)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: " in err and f"the bound is {MAX_PARAMS}" in err


def test_model_window_longer_than_any_track_is_usage_error(data_dir, tmp_path, capsys):
    cfg = base_config(data_dir, tmp_path / "long")
    cfg["model"]["pred_len"] = 10**9
    rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
    assert rc == EXIT_USAGE
    assert "obs_len + pred_len" in capsys.readouterr().err
    assert not (tmp_path / "long").exists()


def test_predict_on_a_checkpoint_claiming_a_huge_pred_len_is_data_error(tmp_path):
    # before, predict rolled out 10**9 steps; a subprocess with a timeout
    # fails such a run instead of hanging the suite
    path = tmp_path / "long.ckpt"
    save_checkpoint(path, ModelParams.init(ModelConfig(embed_dim=4, hidden_dim=4), seed=0))
    edit_checkpoint(path, lambda h, p: h["config"].update(pred_len=10**9))
    out = tmp_path / "pred"
    proc = run_in_subprocess(["predict", "--checkpoint", str(path), "--scenario", "meeting",
                              "--out", str(out)])
    assert proc.returncode == EXIT_DATA
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (out / "predictions.tsv").exists()


# the CLI's entry point, followed by the child's own peak RSS in KiB as
# the last stderr line
PEAK_RSS_MAIN = """
import resource, sys
from sralstm.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def run_in_subprocess(argv, report_peak_rss: bool = False):
    """The CLI on argv in a child process, killed after 60 s, so a run that
    would not end fails the test instead of hanging the suite. With
    report_peak_rss the child prints its own peak RSS as the last line of
    its stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(data_module.__file__)))
    entry = ["-c", PEAK_RSS_MAIN] if report_peak_rss else ["-m", "sralstm"]
    return subprocess.run([sys.executable, *entry, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)


def input_argv(data_dir, tmp_path, reader, path, out):
    """The argv that makes one of the three readers open path, and the exit
    code a path that is not a regular file gives."""
    if reader == "checkpoint":
        return ["predict", "--checkpoint", path, "--scenario", "meeting",
                "--out", str(out)], EXIT_DATA
    if reader == "config":
        return ["train", "--config", path], EXIT_USAGE
    cfg = base_config(data_dir, out)
    cfg["data"]["scenes"]["A"] = path
    return ["train", "--config", write_config(tmp_path / "c.json", cfg)], EXIT_DATA


READERS = ["checkpoint", "config", "scene"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("reader", READERS)
def test_a_fifo_given_as_input_is_refused_without_blocking(data_dir, tmp_path, reader):
    # before, opening a FIFO that no process writes blocked for good
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    out = tmp_path / "out"
    argv, code = input_argv(data_dir, tmp_path, reader, str(fifo), out)
    proc = run_in_subprocess(argv)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not a regular file" in lines[0]
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("reader", READERS)
def test_a_device_given_as_input_is_refused(data_dir, tmp_path, reader, capsys):
    # a device such as /dev/zero could be read without end; /dev/null
    # stands in for it, since it ends at once if the check is missing
    out = tmp_path / "out"
    argv, code = input_argv(data_dir, tmp_path, reader, "/dev/null", out)
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not a regular file" in lines[0] and "/dev/null" in lines[0]
    assert not out.exists()


def refuse_checkpoint(path, out):
    """predict on the checkpoint at path in a child; returns its exit code,
    its stderr lines before the peak RSS and that RSS in KiB."""
    proc = run_in_subprocess(["predict", "--checkpoint", str(path), "--scenario", "meeting",
                              "--out", str(out)], report_peak_rss=True)
    *lines, peak = proc.stderr.splitlines()
    return proc.returncode, lines, int(peak)


HUGE_FILE = 200 * 2**20


@pytest.mark.parametrize("junk", ["nul bytes", "trailing bytes", "header length",
                                  "nul header"])
def test_a_huge_bad_checkpoint_is_refused_without_reading_it(trained, tmp_path, junk):
    # a sparse file takes no disk; before, load_checkpoint read the whole of
    # it first, and later a whole header of up to MAX_HEADER_BYTES, so
    # refusing it cost that size in memory
    tiny = tmp_path / "tiny.ckpt"
    tiny.write_bytes(b"junkjunk")
    code, lines, tiny_peak = refuse_checkpoint(tiny, tmp_path / "out")
    assert code == EXIT_DATA and len(lines) == 1 and "bad magic" in lines[0]
    path = tmp_path / "huge.ckpt"
    path.write_bytes({"nul bytes": b"",
                      "trailing bytes": (trained / "checkpoint.ckpt").read_bytes(),
                      "header length": CHECKPOINT_MAGIC + struct.pack("<II", 1, HUGE_FILE - 16),
                      "nul header": CHECKPOINT_MAGIC + struct.pack("<II", 1, MAX_HEADER_BYTES),
                      }[junk])
    os.truncate(path, HUGE_FILE)
    out = tmp_path / "out"
    code, lines, peak = refuse_checkpoint(path, out)
    assert code == EXIT_DATA
    assert peak - tiny_peak < 32 * 2**10
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert {"nul bytes": "bad magic", "trailing bytes": "trailing bytes",
            "header length": "the bound is", "nul header": "malformed header",
            }[junk] in lines[0]
    assert not out.exists()


def test_a_huge_config_file_is_refused_without_reading_it(tmp_path):
    # before, the whole file was read and decoded before the JSON failed
    out = tmp_path / "out"
    tiny = tmp_path / "tiny.json"
    tiny.write_text("{")
    proc = run_in_subprocess(["train", "--config", str(tiny), "--out", str(out)],
                             report_peak_rss=True)
    *lines, tiny_peak = proc.stderr.splitlines()
    assert proc.returncode == EXIT_USAGE and len(lines) == 1
    path = tmp_path / "huge.json"
    path.write_text("{")
    os.truncate(path, HUGE_FILE)
    proc = run_in_subprocess(["train", "--config", str(path), "--out", str(out)],
                             report_peak_rss=True)
    *lines, peak = proc.stderr.splitlines()
    assert proc.returncode == EXIT_USAGE
    assert int(peak) - int(tiny_peak) < 32 * 2**10
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{HUGE_FILE} bytes" in lines[0] and f"the bound is {2**20}" in lines[0]
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "tiny.json"]


def test_a_huge_scene_file_without_line_ends_is_refused_a_line_in(trained, tmp_path):
    # before, a file with no line end was read whole as its first line
    # before its fields were counted, so refusing it cost its size in memory
    out = tmp_path / "out"

    def refuse(path):
        proc = run_in_subprocess(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                                  "--scene-file", str(path), "--out", str(out)],
                                 report_peak_rss=True)
        *lines, peak = proc.stderr.splitlines()
        return proc.returncode, lines, int(peak)

    tiny = tmp_path / "tiny.txt"
    tiny.write_text("junk\n")
    code, lines, tiny_peak = refuse(tiny)
    assert code == EXIT_DATA and len(lines) == 1 and "expected 4 fields" in lines[0]
    path = tmp_path / "huge.txt"
    path.touch()
    os.truncate(path, HUGE_FILE)
    code, lines, peak = refuse(path)
    assert code == EXIT_DATA
    assert peak - tiny_peak < 32 * 2**10
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"line 1: longer than {data_module.MAX_LINE_CHARS - 1} characters" in lines[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# mutated inputs: eval ends in an exit code, never a traceback
#
# Only eval is driven, so a mutation that stays valid cannot start a long
# training run. Every string a mutation writes comes from fuzz_words: scene
# paths are files under the test's temporary directory, so no example opens
# a device or a file elsewhere, and --out always points there too.

FUZZ_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)


def fuzz_words(data_dir, work):
    return ["", "A", "B", "sra", "sa", "none", "held_out", "scenes", "name",
            "shape", "hidden_dim", "obs_len", "w_re", "adam.m.w_re",
            str(data_dir / "A.txt"), str(data_dir / "B.txt"), str(work),
            str(work / "fuzz.ckpt"), str(work / "fuzz.json"), str(work / "absent.txt")]


def json_values(words):
    # small integers too, so sizes and strides are often valid
    leaves = (st.none() | st.booleans() | st.integers(-1, 24) | st.integers()
              | st.floats() | st.sampled_from(words))
    return st.recursive(
        leaves,
        lambda kids: (st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from(words), kids, max_size=3)),
        max_leaves=6)


def replace_at(doc, path, value):
    """doc with the value at path (a tuple of keys and indexes) replaced."""
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def eval_exit_code(work, config, ckpt_bytes):
    (work / "fuzz.ckpt").write_bytes(ckpt_bytes)
    cfg_path = write_config(work / "fuzz.json", config)
    return main(["eval", "--config", cfg_path, "--checkpoint", str(work / "fuzz.ckpt"),
                 "--out", str(work / "out")])


CHECKPOINT_PATHS = [(), ("config",), ("metadata",), ("arrays",), ("optimizer",),
                    ("config", "embed_dim"), ("config", "hidden_dim"),
                    ("config", "strategy"), ("config", "obs_len"), ("config", "pred_len"),
                    ("config", "dropout"), ("metadata", "held_out"), ("arrays", 0),
                    ("arrays", 0, "name"), ("arrays", 0, "shape"), ("arrays", -1, "shape"),
                    ("arrays", 0, "shape", 0), ("optimizer", "lr"), ("optimizer", "step")]

CONFIG_PATHS = [("model",), ("train",), ("data",), ("out_dir",), ("model", "embed_dim"),
                ("model", "hidden_dim"), ("model", "strategy"), ("model", "obs_len"),
                ("model", "pred_len"), ("train", "learning_rate"), ("train", "epochs"),
                ("train", "clip_norm"), ("train", "augment"), ("data", "scenes"),
                ("data", "scenes", "B"), ("data", "held_out"), ("data", "stride"),
                ("data", "source_timestep"), ("data", "bogus")]


def test_mutated_checkpoint_ends_in_an_exit_code(data_dir, trained, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz_ckpt")
    words = fuzz_words(data_dir, work)
    config = eval_config(data_dir, work / "out", held_out=False)
    blob = (trained / "checkpoint.ckpt").read_bytes()
    (n,) = struct.unpack("<I", blob[12:16])
    header, payload = json.loads(blob[16:16 + n]), blob[16 + n:]
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                     min_size=1, max_size=4)
    cut = st.integers(0, len(blob) - 1)
    edit = st.tuples(st.sampled_from(CHECKPOINT_PATHS), json_values(words))

    @FUZZ_SETTINGS
    @given(st.one_of(flips.map(lambda f: ("flip", f)), cut.map(lambda c: ("cut", c)),
                     edit.map(lambda e: ("edit", e))))
    def check(mutation):
        kind, arg = mutation
        if kind == "flip":
            mutated = bytearray(blob)
            for i, x in arg:
                mutated[i] ^= x
        elif kind == "cut":
            mutated = blob[:arg]
        else:
            path, value = arg
            text = json.dumps(replace_at(json.loads(json.dumps(header)), path, value))
            mutated = (blob[:12] + struct.pack("<I", len(text.encode()))
                       + text.encode() + payload)
        assert eval_exit_code(work, config, bytes(mutated)) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)

    check()


def test_mutated_config_ends_in_an_exit_code(data_dir, trained, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz_config")
    words = fuzz_words(data_dir, work)
    config = base_config(data_dir, work / "out")
    blob = (trained / "checkpoint.ckpt").read_bytes()

    @FUZZ_SETTINGS
    @given(st.lists(st.tuples(st.sampled_from(CONFIG_PATHS), json_values(words)),
                    min_size=1, max_size=2))
    def check(edits):
        mutated = json.loads(json.dumps(config))
        for path, value in edits:
            try:
                mutated = replace_at(mutated, path, value)
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed the parent of this path
        assert eval_exit_code(work, mutated, blob) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)

    check()


def annotation_texts():
    """Annotation text: one track per pedestrian, whose frame ids may start
    anywhere and step far apart, then lines of arbitrary tokens and text."""
    frame = st.integers(-3, 30) | st.integers() | st.sampled_from([10 ** 15, 10 ** 400])
    track = st.tuples(frame, st.sampled_from([8, 20]) | st.integers(0, 22),
                      st.sampled_from([1, 2, 10 ** 12]), st.floats(-2.0, 2.0))
    token = frame.map(str) | st.floats().map(repr) | st.sampled_from(
        ["#", "1e999", "nan", "-inf", "0x1", "1_0", "\u0661", "x"])
    junk = st.lists(token, max_size=5).map(" ".join) | st.text(max_size=12)

    def text(tracks, extra):
        rows = [f"{start + k * step} {ped} {k * dx!r} 0.0"
                for ped, (start, n, step, dx) in enumerate(tracks) for k in range(n)]
        return "\n".join(rows + extra) + "\n"

    return st.builds(text, st.lists(track, min_size=1, max_size=3),
                     st.lists(junk, max_size=2))


def test_a_control_character_between_fields_is_a_data_error(trained, tmp_path, capsys):
    text = straight_rows(range(20)) + "3\x1c2 0.5 0.0\n"
    assert predict_scene_text(tmp_path, trained, text) == EXIT_DATA
    assert "line 21: fields must be separated by spaces or tabs" in capsys.readouterr().err


def test_annotation_text_ends_in_an_exit_code(trained, tmp_path):
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(annotation_texts())
    def check(text):
        assert predict_scene_text(tmp_path, trained, text) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)

    check()


# values at and past every bound: no speed between 1e-300 and 1e-3, where a
# following lag would be long but still in range
SHAPE_FLAG_VALUES = [
    ("--speed", ["nan", "inf", "-inf", "0", "-1", "1e-300", "1.2", "1e300", "1e308"]),
    ("--spacing", ["nan", "inf", "-inf", "0", "-1", "1e-300", "1.0", "1e300"]),
    ("--noise", ["nan", "inf", "-inf", "0", "-1", "1e-300", "0.05", "1e300"]),
    ("--frames", ["-1", "0", "1", "2", "20", "10000", "10001"]),
]


def shape_flags():
    """Some of the synth shape flags, each with a value from its list."""
    def argv(values):
        return [f"{flag}={v}" for (flag, _), v in zip(SHAPE_FLAG_VALUES, values)
                if v is not None]

    return st.tuples(*[st.sampled_from([None, *values])
                       for _, values in SHAPE_FLAG_VALUES]).map(argv)


def test_synth_shape_flags_end_in_an_exit_code(trained, tmp_path):
    ckpt = str(trained / "checkpoint.ckpt")

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.sampled_from(["synth", "predict"]), st.sampled_from(SCENARIO_KINDS),
           shape_flags())
    def check(verb, kind, flags):
        extra = ["--checkpoint", ckpt] if verb == "predict" else []
        assert main([verb, *extra, "--scenario", kind, *flags,
                     "--out", str(tmp_path / "out")]) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)

    check()
