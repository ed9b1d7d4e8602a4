"""Command-line interface.

Verbs: train, eval, ablate, predict, synth. Settings come from an optional
JSON config file (--config) with sections "model", "train", "data" and key
"out_dir"; individual flags override file values. All file outputs are
written atomically and are byte-identical across reruns with the same
inputs (wall-clock timing goes to stdout only).

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import sys
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from .data import (DataError, GRID_DT, MAX_TRACK_FRAMES, SCENARIO_KINDS, Scene,
                   SynthParams, TrajectoryWindow, build_windows, leave_one_out,
                   parse_annotations, regrid, scene_to_annotation_text,
                   synth_scenario, window_at)
from .evalkit import ablate, evaluate
from .model import AttentionStrategy, ModelConfig, ModelParams
from .pipeline import (CLIP_NORM, CheckpointCorruptError, CheckpointError, OutputError,
                       ParamMismatchError, atomic_write_text, load_checkpoint, open_regular,
                       rollout, save_checkpoint, train_epoch, unique_keys)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or a bad config file."""


class RunConfig(SimpleNamespace):
    """``model``, ``model_given`` (set by the file or --strategy), each other _SETTINGS key."""


def _positive(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and 0 < value <= sys.float_info.max)


def _integer(least: int):
    return lambda value: (isinstance(value, int) and not isinstance(value, bool)
                          and value >= least)


# One row per config key: (section, key, default, flag, check, what the
# check asks for). Each key sets the RunConfig attribute of its name; a key
# with no section sits at the top level of the file. ModelConfig checks the
# model section, whose one row is here for its flag.
_SETTINGS = [
    ("model", "strategy", ModelConfig.strategy, "--strategy", None, None),
    ("train", "learning_rate", 1e-3, None, _positive, "a finite number greater than 0"),
    ("train", "epochs", 300, "--epochs", _integer(1), "an integer of at least 1"),
    ("train", "seed", 1, "--seed", _integer(0), "a non-negative integer"),
    ("train", "clip_norm", CLIP_NORM, None, _positive, "a finite number greater than 0"),
    ("train", "save_every", 0, None, _integer(0), "a non-negative integer"),
    ("train", "augment", True, None, lambda v: isinstance(v, bool), "true or false"),
    ("data", "scenes", {}, None,
     lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
     "an object that maps scene names to file paths"),
    ("data", "held_out", None, "--held-out", lambda v: v is None or isinstance(v, str), "a string"),
    ("data", "stride", 1, None, _integer(1), "an integer of at least 1"),
    ("data", "source_timestep", GRID_DT, None, _positive, "a finite number greater than 0"),
    (None, "out_dir", "runs/out", "--out", lambda v: isinstance(v, str), "a string"),
]


def _read_config_file(path: str) -> dict:
    try:
        with open_regular(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    try:
        obj = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:
        # ValueError: bad JSON or a repeated key; RecursionError: arrays or
        # objects nested too deeply to decode
        raise UsageError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(obj) - {section or key for section, key, *_ in _SETTINGS}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for section in dict.fromkeys(section for section, *_ in _SETTINGS if section):
        values = obj.get(section, {})
        if not isinstance(values, dict):
            raise UsageError(f"config section {section!r} must be a JSON object, "
                             f"got {values!r}")
        unknown = set(values) - {k for s, k, *_ in _SETTINGS if s == section}
        if unknown and section != "model":     # ModelConfig.from_dict names those
            raise UsageError(f"unknown {section} config keys: {sorted(unknown)}")
    return obj


def build_run_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags given; every value is
    checked by its _SETTINGS row, whichever of the three it came from."""
    raw = _read_config_file(args.config) if args.config else {}
    for section, key, _, flag, _, _ in _SETTINGS:
        value = getattr(args, key, None) if flag else None
        if value not in (None, ""):     # an empty --held-out or --out is not given
            (raw.setdefault(section, {}) if section else raw)[key] = value
    try:
        model = ModelConfig.from_dict(raw.get("model", {}))
    except ValueError as e:
        raise UsageError(f"bad model config: {e}") from e
    cfg = RunConfig(model=model, model_given=bool(raw.get("model")))
    for section, key, default, _, check, what in _SETTINGS:
        if check is None:
            continue
        value = (raw.get(section, {}) if section else raw).get(key, copy.copy(default))
        if not check(value):
            raise UsageError(f"{key} must be {what}, got {value!r}")
        # a JSON integer read into a float key is stored as a float
        setattr(cfg, key, float(value) if isinstance(default, float) else value)
    if cfg.source_timestep / GRID_DT > MAX_TRACK_FRAMES:
        raise UsageError(f"source_timestep {cfg.source_timestep!r} puts consecutive frames "
                         f"more than {MAX_TRACK_FRAMES} grid frames apart")
    # before any work, and creating nothing: out_dir's nearest existing
    # ancestor, itself included, must be a directory it can be made in
    found = os.path.abspath(cfg.out_dir)
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found) or not os.access(found, os.W_OK | os.X_OK):
        raise UsageError(f"cannot use {cfg.out_dir!r} as the output directory: "
                         f"{found!r} is not a writable directory")
    return cfg


def _check_outputs(cfg: RunConfig, names) -> None:
    """Refuse, before a long run, a directory standing at one of the named
    files of out_dir: the rename that writes a file there fails on a
    directory and replaces any other kind of file."""
    for name in names:
        path = os.path.join(cfg.out_dir, name)
        if os.path.isdir(path) and not os.path.islink(path):
            raise OutputError(f"cannot write {path}: Is a directory")


def _load_scene(cfg: RunConfig, name: str, path: str) -> Scene:
    try:
        with open_regular(path, "r", encoding="utf-8") as f:
            rows = parse_annotations(f)
    except DataError as e:
        raise DataError(f"scene {name!r} ({path}): {e}") from e
    except (OSError, ValueError) as e:
        # ValueError: bytes that are not UTF-8, or a NUL inside the path
        raise DataError(f"scene {name!r}: cannot read {path}: {e}") from e
    scene = regrid(rows, cfg.source_timestep, name=name)
    if scene.dropped:
        print(f"note: scene {name!r} dropped {scene.dropped} "
              "pedestrian(s) too sparse to regrid", file=sys.stderr)
    return scene


def _load_scenes(cfg: RunConfig, names=None) -> dict:
    """The named scenes, by default every scene the config declares."""
    if not cfg.scenes:
        raise UsageError("config declares no data scenes")
    for name in names or ():
        if name not in cfg.scenes:
            raise DataError(f"unknown scene {name!r}; have {sorted(cfg.scenes)}")
    return {name: _load_scene(cfg, name, cfg.scenes[name])
            for name in names or sorted(cfg.scenes)}


def _split(cfg: RunConfig):
    if not cfg.held_out:
        raise UsageError("no held-out scene named (use --held-out or data.held_out)")
    scenes = _load_scenes(cfg)
    return leave_one_out(scenes, cfg.held_out, cfg.model.obs_len,
                         cfg.model.pred_len, cfg.stride)


def _float_text(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# verbs

def cmd_train(args) -> int:
    cfg = build_run_config(args)
    periodic = range(cfg.save_every, cfg.epochs, cfg.save_every) if cfg.save_every else ()
    _check_outputs(cfg, [*(f"checkpoint.epoch{epoch}.ckpt" for epoch in periodic),
                         "checkpoint.ckpt", "loss_log.tsv"])
    train_ws, _ = _split(cfg)
    if not train_ws:
        raise DataError("training split contains no windows")
    params = ModelParams.init(cfg.model, seed=cfg.seed)
    opt = dc.AdamState(params.tensors(), lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    lines = ["# epoch\tmean_l2_loss"]
    history = []
    for epoch in range(1, cfg.epochs + 1):
        mean_loss = train_epoch(params, opt, train_ws, rng,
                                clip_norm=cfg.clip_norm, augment=cfg.augment)
        history.append(mean_loss)
        lines.append(f"{epoch}\t{_float_text(mean_loss)}")
        print(f"epoch {epoch}/{cfg.epochs} loss {mean_loss:.6f}")
        if cfg.save_every and epoch % cfg.save_every == 0 and epoch != cfg.epochs:
            save_checkpoint(os.path.join(cfg.out_dir, f"checkpoint.epoch{epoch}.ckpt"),
                            params, opt, _meta(cfg, epoch, history))
    save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.ckpt"),
                    params, opt, _meta(cfg, cfg.epochs, history))
    atomic_write_text(os.path.join(cfg.out_dir, "loss_log.tsv"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(cfg.out_dir, 'checkpoint.ckpt')}")
    return EXIT_OK


def _meta(cfg: RunConfig, epoch: int, history) -> dict:
    return {"epoch": epoch, "seed": cfg.seed, "held_out": cfg.held_out,
            "loss_history": list(history)}


def _checkpoint_params(args, cfg: RunConfig):
    """The --checkpoint file and its params, under the config's model when
    the config names one: a model the file does not fit is a usage error."""
    ckpt = load_checkpoint(args.checkpoint)
    return ckpt, ckpt.to_params(cfg.model if cfg.model_given else None)


def cmd_eval(args) -> int:
    cfg = build_run_config(args)
    _check_outputs(cfg, ["report.json", "report.txt"])
    ckpt, params = _checkpoint_params(args, cfg)
    cfg.model = params.config
    if not cfg.held_out:
        cfg.held_out = ckpt.metadata.get("held_out")
        if cfg.held_out is not None and not isinstance(cfg.held_out, str):
            raise CheckpointCorruptError(
                f"{args.checkpoint} metadata held_out is not a string: {cfg.held_out!r}")
    if not cfg.held_out:
        raise UsageError("no held-out scene named (use --held-out or data.held_out)")
    scene = _load_scenes(cfg, [cfg.held_out])[cfg.held_out]
    test_ws = build_windows(scene, cfg.model.obs_len, cfg.model.pred_len, cfg.stride)
    if not test_ws:
        raise DataError(f"scene {cfg.held_out!r} yields no windows")
    t0 = time.perf_counter()
    report = evaluate(params, test_ws)
    per_step = (time.perf_counter() - t0) / (len(test_ws) * (cfg.model.window_len - 1))
    _write_reports(cfg.out_dir, [report])
    print(f"{report.scene_name}: ADE {report.ade:.4f} FDE {report.fde:.4f} "
          f"({report.window_count} windows)")
    print(f"timing: {per_step * 1e3:.3f} ms per recurrence step "
          f"on {platform.machine() or 'unknown hardware'} (not part of the report files)")
    return EXIT_OK


def _write_reports(out_dir: str, reports: list) -> None:
    rows = [{"scene": r.scene_name, "windows": r.window_count,
             "pedestrians": r.pedestrian_count, "ade": r.ade, "fde": r.fde}
            for r in reports]
    atomic_write_text(os.path.join(out_dir, "report.json"),
                      json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n")
    width = max(len(r.scene_name) for r in reports)
    width = max(width, len("scene"))
    lines = [f"{'scene':<{width}}  windows  pedestrians  ade       fde"]
    for r in reports:
        lines.append(f"{r.scene_name:<{width}}  {r.window_count:>7d}  "
                     f"{r.pedestrian_count:>11d}  {r.ade:<8.4f}  {r.fde:<8.4f}")
    atomic_write_text(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")


def cmd_ablate(args) -> int:
    cfg = build_run_config(args)
    _check_outputs(cfg, ["ablation.json", "ablation.txt"])
    train_ws, test_ws = _split(cfg)
    if not train_ws or not test_ws:
        raise DataError("ablation needs non-empty train and test splits")
    rows = ablate(cfg.model, list(AttentionStrategy), train_ws, test_ws,
                  epochs=cfg.epochs, seed=cfg.seed, lr=cfg.learning_rate,
                  clip_norm=cfg.clip_norm, augment=cfg.augment)
    payload = [{"strategy": r.strategy, "ade": r.ade, "fde": r.fde,
                "final_loss": r.final_loss, "param_count": r.param_count}
               for r in rows]
    atomic_write_text(os.path.join(cfg.out_dir, "ablation.json"),
                      json.dumps({"rows": payload}, sort_keys=True, indent=2) + "\n")
    lines = ["strategy  params  ade       fde       final_loss"]
    for r in rows:
        lines.append(f"{r.strategy:<8}  {r.param_count:>6d}  {r.ade:<8.4f}  "
                     f"{r.fde:<8.4f}  {r.final_loss:<10.6f}")
    atomic_write_text(os.path.join(cfg.out_dir, "ablation.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


def _predict_window(args, cfg: RunConfig, model: ModelConfig) -> TrajectoryWindow:
    """The window at --window-start, else the first full window, else the
    first observation-only one."""
    obs, pred = model.obs_len, model.pred_len
    if args.scene_file:
        scene = _load_scene(cfg, os.path.basename(args.scene_file), args.scene_file)
    elif args.scenario:
        scene = _synth_scene(args)
    else:
        raise UsageError("predict needs --scene-file or --scenario")
    start = args.window_start
    for pred_len in (pred, 0):
        first = start if start is not None else min(
            (t.start for t in scene.tracks.values() if len(t.points) >= obs + pred_len),
            default=None)
        window = window_at(scene, first, obs, pred_len) if first is not None else None
        if window is not None:
            return window
    where = f"at frame {start}" if start is not None else "anywhere"
    raise DataError(f"no usable window {where} in {scene.name!r} "
                    f"(needs a pedestrian tracked through {obs} consecutive frames)")


def cmd_predict(args) -> int:
    cfg = build_run_config(args)
    _, params = _checkpoint_params(args, cfg)
    window = _predict_window(args, cfg, params.config)
    emit = set(args.emit or ["trajectories"])
    result = rollout(params, window, record_attention="attention" in emit)
    obs = params.config.obs_len
    tables = {}
    if "trajectories" in emit:
        rows = tables["predictions.tsv"] = ["# scene\twindow_start\tped_id\tframe\tkind\tx\ty"]
        for p in window.ped_ids:
            # a window holds either obs frames or obs + pred_len with truth
            for t, (x, y) in enumerate(window.track(p)):
                rows.append(_traj_row(window, p, window.start_frame + t,
                                      "obs" if t < obs else "truth", x, y))
            for i, (x, y) in enumerate(result.predicted_abs[p]):
                rows.append(_traj_row(window, p, window.start_frame + obs + i, "pred", x, y))
    if "attention" in emit:
        rows = tables["attention.tsv"] = [
            "# scene\twindow_start\tstep\tped_id\tneighbor_id\tweight"]
        for step, per_ped in enumerate(result.attention or []):
            for p, (neighbors, weights) in sorted(per_ped.items()):
                for j, wgt in zip(neighbors, weights):
                    rows.append(f"{window.scene_name}\t{window.start_frame}\t{step}"
                                f"\t{p}\t{j}\t{_float_text(wgt)}")
    for name, rows in tables.items():
        path = os.path.join(cfg.out_dir, name)
        atomic_write_text(path, "\n".join(rows) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def _traj_row(window, ped, frame, kind, x, y) -> str:
    return (f"{window.scene_name}\t{window.start_frame}\t{ped}\t{frame}"
            f"\t{kind}\t{_float_text(x)}\t{_float_text(y)}")


def _synth_scene(args) -> Scene:
    """The --scenario scene in the shape the synth flags give; seed 0 unless
    --seed names one."""
    params = SynthParams(**{f.name: getattr(args, f.name) for f in fields(SynthParams)})
    return synth_scenario(args.scenario, params, seed=0 if args.seed is None else args.seed)


def cmd_synth(args) -> int:
    cfg = build_run_config(args)
    scene = _synth_scene(args)
    path = os.path.join(cfg.out_dir, f"{scene.name}.txt")
    atomic_write_text(path, scene_to_annotation_text(scene))
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, *keys):
    """--config, the flags of the named settings, and --out, which every
    verb reads; a setting's flag reads an int if its default is one."""
    sub.add_argument("--config", help="JSON config file")
    for key in (*keys, "out_dir"):
        section, _, default, flag, _, _ = next(row for row in _SETTINGS if row[1] == key)
        kwargs = {"type": int} if type(default) is int else {}
        if isinstance(default, AttentionStrategy):
            kwargs = {"choices": [s.value for s in AttentionStrategy]}
        name = f"{section}.{key}" if section else key
        sub.add_argument(flag, dest=key, help=f"sets {name}", **kwargs)


_SYNTH_HELP = {"speed": "walking speed, m/s", "spacing": "inter-pedestrian gap, m",
               "noise": "gaussian position noise, m", "frames": "frames to generate"}


def _add_synth_shape(sub):
    """One flag per SynthParams field, defaulting to the field's default."""
    for f in fields(SynthParams):
        sub.add_argument(f"--{f.name}", type=type(f.default), default=f.default,
                         help=_SYNTH_HELP[f.name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sralstm",
                     description="Train and evaluate a social-attention trajectory predictor.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("train", help="leave-one-out training run")
    _add_common(p, "held_out", "seed", "epochs", "strategy")
    p.set_defaults(handler=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on the held-out scene")
    _add_common(p, "held_out", "strategy")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.set_defaults(handler=cmd_eval)

    p = subs.add_parser("ablate", help="train and compare all attention strategies")
    _add_common(p, "held_out", "seed", "epochs")
    p.set_defaults(handler=cmd_ablate)

    p = subs.add_parser("predict", help="roll one window forward and emit trajectories")
    _add_common(p, "seed")
    p.add_argument("--emit", action="append", choices=["trajectories", "attention"],
                   help="outputs to produce (repeatable)")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scene-file", dest="scene_file", help="annotation file to predict from")
    source.add_argument("--scenario", choices=list(SCENARIO_KINDS),
                        help="synthesize the input window instead, seeded by --seed")
    p.add_argument("--window-start", dest="window_start", type=int,
                   help="frame index where the window begins")
    _add_synth_shape(p)
    p.set_defaults(handler=cmd_predict)

    p = subs.add_parser("synth", help="generate a synthetic scene annotation file")
    _add_common(p, "seed")
    p.add_argument("--scenario", required=True, choices=list(SCENARIO_KINDS),
                   help="scenario kind, seeded by --seed")
    _add_synth_shape(p)
    p.set_defaults(handler=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # inf/nan results are caught by the finite checks, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (UsageError, ParamMismatchError, OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except dc.NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
