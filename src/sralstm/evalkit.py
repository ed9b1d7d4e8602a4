"""ADE/FDE metrics, window-set evaluation, and strategy ablation.

Both metrics are Euclidean: ADE averages point-to-point displacement over
every pedestrian and prediction step, FDE averages the displacement at the
final step only. Evaluation rolls each window out once, deterministically
(observation phase teacher-forced, prediction phase free), windows of one
crowd size stacked into one rollout, and pools per-pedestrian means across
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import diffcore as dc
from .data import DataError, TrajectoryWindow
from .model import ModelConfig, ModelParams, param_count
from .pipeline import CLIP_NORM, rollout, train_epoch

# Pedestrians one stacked evaluation rollout holds at most. A stack shares
# each step's position embedding, motion LSTM and head, while its
# per-pedestrian products grow with its width.
STACK_PEDESTRIANS = 32


def _displacements(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: predicted {predicted.shape}, truth {truth.shape}")
    if predicted.ndim == 2:
        predicted = predicted[np.newaxis]
        truth = truth[np.newaxis]
    if predicted.ndim != 3 or predicted.shape[-1] != 2:
        raise ValueError(f"expected (T, 2) or (P, T, 2) arrays, got {predicted.shape}")
    if predicted.shape[1] < 1:
        raise ValueError("metrics need at least one prediction step")
    return np.linalg.norm(predicted - truth, axis=-1)  # (P, T)


def ade(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean displacement over all pedestrians and steps."""
    return float(np.mean(_displacements(predicted, truth)))


def fde(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean displacement at the final prediction step."""
    return float(np.mean(_displacements(predicted, truth)[:, -1]))


@dataclass
class WindowRecord:
    scene_name: str
    start_frame: int
    ped_ids: list
    displacements: np.ndarray  # (P, pred_len) per-step Euclidean errors


@dataclass
class EvalReport:
    scene_name: str
    window_count: int
    pedestrian_count: int
    ade: float
    fde: float
    windows: list = field(default_factory=list)

    def metrics_equal(self, other: "EvalReport") -> bool:
        """Equality of every field, comparing displacement arrays by value."""
        if (self.scene_name, self.window_count, self.pedestrian_count,
                self.ade, self.fde) != (other.scene_name, other.window_count,
                                        other.pedestrian_count, other.ade, other.fde):
            return False
        if len(self.windows) != len(other.windows):
            return False
        for a, b in zip(self.windows, other.windows):
            if (a.scene_name, a.start_frame, a.ped_ids) != (b.scene_name, b.start_frame, b.ped_ids):
                return False
            if not np.array_equal(a.displacements, b.displacements):
                return False
        return True


def evaluate(params: ModelParams, windows: Sequence[TrajectoryWindow]) -> EvalReport:
    """Free-rollout evaluation over a window set, reported under the first
    window's scene name.

    Windows of one crowd size roll out together, in stacks of at most
    ``STACK_PEDESTRIANS`` pedestrians (a larger window alone), one
    ``rollout`` call per stack. Records keep the input order, and ADE/FDE
    pool per-pedestrian means across all windows in that order.
    """
    if len(windows) == 0:
        raise ValueError("evaluation over zero windows")
    cfg = params.config
    by_size = {}
    for i, w in enumerate(windows):
        if w.n_frames != cfg.window_len:
            raise DataError(
                f"window has {w.n_frames} frames; scoring needs exactly {cfg.window_len}")
        by_size.setdefault(len(w.ped_ids), []).append(i)
    predicted = [None] * len(windows)
    for n, indices in by_size.items():
        per_stack = max(1, STACK_PEDESTRIANS // n)
        for s in range(0, len(indices), per_stack):
            stack = indices[s:s + per_stack]
            result = rollout(params, [windows[i] for i in stack])
            for j, i in enumerate(stack):
                predicted[i] = np.stack([result.predicted_abs[j, p] for p in windows[i].ped_ids])
    records = []
    per_ped_means = []
    per_ped_finals = []
    for w, pred in zip(windows, predicted):
        disp = _displacements(pred, w.positions[:, cfg.obs_len:])
        records.append(WindowRecord(w.scene_name, w.start_frame, list(w.ped_ids), disp))
        per_ped_means.extend(disp.mean(axis=1).tolist())
        per_ped_finals.extend(disp[:, -1].tolist())
    return EvalReport(
        scene_name=windows[0].scene_name,
        window_count=len(windows),
        pedestrian_count=len(per_ped_means),
        ade=float(np.mean(per_ped_means)),
        fde=float(np.mean(per_ped_finals)),
        windows=records,
    )


@dataclass
class AblationRow:
    strategy: str
    ade: float
    fde: float
    final_loss: float
    param_count: int


def ablate(base_config: ModelConfig, strategies: Sequence,
           train_windows: Sequence[TrajectoryWindow],
           test_windows: Sequence[TrajectoryWindow],
           epochs: int, seed: int, lr: float = 1e-3,
           clip_norm: float = CLIP_NORM, augment: bool = True) -> list:
    """Train one model per attention strategy under identical conditions.

    Every model starts from the same seed (shared tensors identical,
    strategy-specific tensors independently initialized) and sees the same
    shuffled window order and augmentation draws.
    """
    rows = []
    for strategy in strategies:
        cfg = replace(base_config, strategy=strategy)
        params = ModelParams.init(cfg, seed=seed)
        opt = dc.AdamState(params.tensors(), lr=lr)
        rng = np.random.default_rng(seed)
        final_loss = float("nan")
        for _ in range(epochs):
            final_loss = train_epoch(params, opt, train_windows, rng,
                                     clip_norm=clip_norm, augment=augment)
        report = evaluate(params, test_windows)
        rows.append(AblationRow(strategy=cfg.strategy.value, ade=report.ade,
                                fde=report.fde, final_loss=final_loss,
                                param_count=param_count(cfg)))
    return rows
