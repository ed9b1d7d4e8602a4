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
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import diffcore as dc
from . import model as md
from .data import (DataError, GRID_DT, MAX_TRACK_FRAMES, SCENARIO_KINDS, Scene,
                   SynthParams, TrajectoryWindow, build_windows, leave_one_out,
                   parse_annotations, regrid, scene_to_annotation_text,
                   synth_scenario)
from .evalkit import EvalReport, ablate, evaluate
from .model import AttentionStrategy, ModelConfig, ModelParams
from .pipeline import (CLIP_NORM, CheckpointCorruptError, CheckpointError,
                       atomic_write_text, load_checkpoint, rollout,
                       save_checkpoint, train_epoch)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or a bad config file."""


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    model_given: bool = False      # the config file or --strategy set the model
    lr: float = 1e-3
    epochs: int = 300
    seed: int = 1
    clip_norm: float = CLIP_NORM
    save_every: int = 0
    augment: bool = True
    scenes: dict = field(default_factory=dict)     # name -> annotation path
    held_out: Optional[str] = None
    stride: int = 1
    source_timestep: float = GRID_DT
    out_dir: str = "runs/out"


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    allowed = {"model", "train", "data", "out_dir"}
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return obj


def build_run_config(args) -> RunConfig:
    """Merge defaults, the config file, and command-line overrides."""
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for section in ("model", "train", "data"):
        if not isinstance(file_cfg.get(section, {}), dict):
            raise UsageError(f"config section {section!r} must be a JSON object, "
                             f"got {file_cfg[section]!r}")
    model_d = dict(file_cfg.get("model", {}))
    train_d = dict(file_cfg.get("train", {}))
    data_d = dict(file_cfg.get("data", {}))
    if getattr(args, "strategy", None):
        model_d["strategy"] = args.strategy
    try:
        model = ModelConfig.from_dict(model_d) if model_d else ModelConfig()
    except ValueError as e:
        raise UsageError(f"bad model config: {e}") from e
    cfg = RunConfig(model=model, model_given=bool(model_d))
    known_train = {"learning_rate", "epochs", "seed", "clip_norm", "save_every", "augment"}
    unknown = set(train_d) - known_train
    if unknown:
        raise UsageError(f"unknown train config keys: {sorted(unknown)}")
    cfg.lr = _positive_number("learning_rate", train_d.get("learning_rate", cfg.lr))
    cfg.epochs = train_d.get("epochs", cfg.epochs)
    cfg.seed = train_d.get("seed", cfg.seed)
    cfg.clip_norm = _positive_number("clip_norm", train_d.get("clip_norm", cfg.clip_norm))
    cfg.save_every = train_d.get("save_every", cfg.save_every)
    cfg.augment = train_d.get("augment", cfg.augment)
    if not isinstance(cfg.augment, bool):
        raise UsageError(f"augment must be true or false, got {cfg.augment!r}")
    known_data = {"scenes", "held_out", "stride", "source_timestep"}
    unknown = set(data_d) - known_data
    if unknown:
        raise UsageError(f"unknown data config keys: {sorted(unknown)}")
    cfg.scenes = data_d.get("scenes", {})
    if not isinstance(cfg.scenes, dict) or not all(
            isinstance(v, str) for v in cfg.scenes.values()):
        raise UsageError(f"data.scenes must map scene names to file paths, got {cfg.scenes!r}")
    cfg.held_out = data_d.get("held_out")
    if cfg.held_out is not None and not isinstance(cfg.held_out, str):
        raise UsageError(f"data.held_out must be a string, got {cfg.held_out!r}")
    cfg.stride = data_d.get("stride", cfg.stride)
    cfg.source_timestep = _positive_number(
        "source_timestep", data_d.get("source_timestep", cfg.source_timestep))
    if cfg.source_timestep / GRID_DT > MAX_TRACK_FRAMES:
        raise UsageError(f"source_timestep {cfg.source_timestep!r} puts consecutive frames "
                         f"more than {MAX_TRACK_FRAMES} grid frames apart")
    cfg.out_dir = file_cfg.get("out_dir", cfg.out_dir)
    if not isinstance(cfg.out_dir, str):
        raise UsageError(f"out_dir must be a string, got {cfg.out_dir!r}")
    if getattr(args, "epochs", None) is not None:
        cfg.epochs = args.epochs
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "held_out", None):
        cfg.held_out = args.held_out
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    for name, value in (("epochs", cfg.epochs), ("seed", cfg.seed),
                        ("save_every", cfg.save_every), ("stride", cfg.stride)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise UsageError(f"{name} must be a non-negative integer, got {value!r}")
    if cfg.epochs < 1:
        raise UsageError("epochs must be at least 1")
    if cfg.stride < 1:
        raise UsageError("stride must be at least 1")
    return cfg


def _positive_number(name: str, value) -> float:
    """A JSON number that is finite and greater than 0, as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max):
        raise UsageError(f"{name} must be a finite number greater than 0, got {value!r}")
    return float(value)


def _load_scene(cfg: RunConfig, name: str, path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as f:
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


def _load_scenes(cfg: RunConfig) -> dict:
    if not cfg.scenes:
        raise UsageError("config declares no data scenes")
    return {name: _load_scene(cfg, name, cfg.scenes[name])
            for name in sorted(cfg.scenes)}


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
    train_ws, _ = _split(cfg)
    if not train_ws:
        raise DataError("training split contains no windows")
    params = ModelParams.init(cfg.model, seed=cfg.seed)
    opt = dc.AdamState(params.tensors(), lr=cfg.lr)
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


def cmd_eval(args) -> int:
    cfg = build_run_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = ckpt.to_params(cfg.model if cfg.model_given else None)
    cfg = replace(cfg, model=params.config)
    if not cfg.held_out:
        cfg.held_out = ckpt.metadata.get("held_out")
        if cfg.held_out is not None and not isinstance(cfg.held_out, str):
            raise CheckpointCorruptError(
                f"{args.checkpoint} metadata held_out is not a string: {cfg.held_out!r}")
    if not cfg.held_out:
        raise UsageError("no held-out scene named (use --held-out or data.held_out)")
    if cfg.held_out not in cfg.scenes:
        raise DataError(f"unknown scene {cfg.held_out!r}; have {sorted(cfg.scenes)}")
    scene = _load_scene(cfg, cfg.held_out, cfg.scenes[cfg.held_out])
    test_ws = build_windows(scene, cfg.model.obs_len, cfg.model.pred_len, cfg.stride)
    if not test_ws:
        raise DataError(f"scene {cfg.held_out!r} yields no windows")
    report = evaluate(params, test_ws)
    _write_reports(cfg.out_dir, [report])
    print(f"{report.scene_name}: ADE {report.ade:.4f} FDE {report.fde:.4f} "
          f"({report.window_count} windows)")
    print(f"timing: {report.seconds_per_step * 1e3:.3f} ms per recurrence step "
          f"on {report.hardware or 'unknown hardware'} (not part of the report files)")
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
    train_ws, test_ws = _split(cfg)
    if not train_ws or not test_ws:
        raise DataError("ablation needs non-empty train and test splits")
    rows = ablate(cfg.model, list(AttentionStrategy), train_ws, test_ws,
                  epochs=cfg.epochs, seed=cfg.seed, lr=cfg.lr,
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
    obs, pred = model.obs_len, model.pred_len
    if args.scene_file:
        try:
            with open(args.scene_file, "r", encoding="utf-8") as f:
                rows = parse_annotations(f)
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read {args.scene_file}: {e}") from e
        scene = regrid(rows, cfg.source_timestep, name=os.path.basename(args.scene_file))
    elif args.scenario:
        scene = synth_scenario(args.scenario, _synth_params(args), seed=args.seed or 0)
    else:
        raise UsageError("predict needs --scene-file or --scenario")
    start = args.window_start
    for pred_len in (pred, 0):
        windows = build_windows(scene, obs, pred_len, stride=1)
        chosen = [w for w in windows if start is None or w.start_frame == start]
        if chosen:
            return chosen[0]
    where = f"at frame {start}" if start is not None else "anywhere"
    raise DataError(f"no usable window {where} in {scene.name!r} "
                    f"(needs a pedestrian tracked through {obs} consecutive frames)")


def cmd_predict(args) -> int:
    cfg = build_run_config(args)
    params = load_checkpoint(args.checkpoint).to_params()
    window = _predict_window(args, cfg, params.config)
    emit = set(args.emit or ["trajectories"])
    has_truth = window.n_frames == params.config.window_len
    result = rollout(params, window, record_attention="attention" in emit)
    obs = params.config.obs_len
    lines = ["# scene\twindow_start\tped_id\tframe\tkind\tx\ty"]
    for k, p in enumerate(window.ped_ids):
        track = window.track(p)
        for t in range(obs):
            x, y = track[t]
            lines.append(_traj_row(window, p, window.start_frame + t, "obs", x, y))
        if has_truth:
            for t in range(obs, window.n_frames):
                x, y = track[t]
                lines.append(_traj_row(window, p, window.start_frame + t, "truth", x, y))
        for i, (x, y) in enumerate(result.predicted_abs[p]):
            lines.append(_traj_row(window, p, window.start_frame + obs + i, "pred", x, y))
    atomic_write_text(os.path.join(cfg.out_dir, "predictions.tsv"),
                      "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(cfg.out_dir, 'predictions.tsv')}")
    if "attention" in emit:
        att = ["# scene\twindow_start\tstep\tped_id\tneighbor_id\tweight"]
        for step, per_ped in enumerate(result.attention or []):
            for p, (neighbors, weights) in sorted(per_ped.items()):
                for j, wgt in zip(neighbors, weights):
                    att.append(f"{window.scene_name}\t{window.start_frame}\t{step}"
                               f"\t{p}\t{j}\t{_float_text(wgt)}")
        atomic_write_text(os.path.join(cfg.out_dir, "attention.tsv"),
                          "\n".join(att) + "\n")
        print(f"wrote {os.path.join(cfg.out_dir, 'attention.tsv')}")
    return EXIT_OK


def _traj_row(window, ped, frame, kind, x, y) -> str:
    return (f"{window.scene_name}\t{window.start_frame}\t{ped}\t{frame}"
            f"\t{kind}\t{_float_text(x)}\t{_float_text(y)}")


def _synth_params(args) -> SynthParams:
    return SynthParams(speed=args.speed, spacing=args.spacing,
                       noise=args.noise, frames=args.frames)


def cmd_synth(args) -> int:
    cfg = build_run_config(args)
    seed = args.seed if args.seed is not None else 0
    scene = synth_scenario(args.scenario, _synth_params(args), seed=seed)
    path = os.path.join(cfg.out_dir, f"{scene.name}.txt")
    atomic_write_text(path, scene_to_annotation_text(scene))
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FLAGS = {
    "held_out": ("--held-out", dict(dest="held_out", help="scene to hold out")),
    "seed": ("--seed", dict(type=int, help="RNG seed")),
    "epochs": ("--epochs", dict(type=int, help="training epochs")),
    "strategy": ("--strategy", dict(choices=[s.value for s in AttentionStrategy],
                                    help="attention strategy")),
}


def _add_common(sub, *flags):
    """--config and --out, which every verb reads, plus the named _FLAGS."""
    sub.add_argument("--config", help="JSON config file")
    for name in flags:
        flag, kwargs = _FLAGS[name]
        sub.add_argument(flag, **kwargs)
    sub.add_argument("--out", help="output directory")


def _add_synth_shape(sub):
    sub.add_argument("--frames", type=int, default=20, help="frames to generate")
    sub.add_argument("--speed", type=float, default=1.2, help="walking speed, m/s")
    sub.add_argument("--spacing", type=float, default=1.0, help="inter-pedestrian gap, m")
    sub.add_argument("--noise", type=float, default=0.0, help="gaussian position noise, m")


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
                        help="synthesize the input window instead")
    p.add_argument("--window-start", dest="window_start", type=int,
                   help="frame index where the window begins")
    _add_synth_shape(p)
    p.set_defaults(handler=cmd_predict)

    p = subs.add_parser("synth", help="generate a synthetic scene annotation file")
    _add_common(p, "seed")
    p.add_argument("--scenario", required=True, choices=list(SCENARIO_KINDS),
                   help="scenario kind")
    _add_synth_shape(p)
    p.set_defaults(handler=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except md.ParamMismatchError as e:
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
