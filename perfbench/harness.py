"""Workload definitions and the closed-loop runner.

A run generates its inputs from the seed, then repeats a fixed *cycle*
until the run's time is spent. A set-up phase runs before every cycle: it
loads the inputs through the program several times. Spreading the set-up
through the run lets a drift in the host's speed fall on set-up as it
falls on the cycles. A cycle resumes training from the loaded checkpoint,
takes one train step per scheduled window (``train_epoch`` over that
window, so rotation augmentation runs as in training), saves a checkpoint
with its Adam state, then serves the scheduled ``evaluate`` requests.
Every cycle does identical arithmetic, so the quality metrics come from
the first cycle and every later cycle must reproduce them bit for bit.

Between its timed calls the runner reads ``hostref``'s fixed kernel. The
timing metrics scale each call's wall time by the kernel's nominal time
over its time around that call, so a drift in the host's speed does not
read as a change in the program.

The runner calls the program only through module attributes
(``pipeline.train_epoch``, ``evalkit.evaluate``, ...), so the tracing
wrappers in ``spans`` see every call, and an untraced run calls the
program directly.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from sralstm import data, evalkit, pipeline

import gen
import hostref
import npref
import spans
from gen import Entry, Spec

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "train-small": Spec(
        "small",
        train=(Entry(2),) * 8 + (Entry(4),) * 2,
        requests=(Entry(2, 4), Entry(2, 4), Entry(4, 4))),
    "train-crowd": Spec(
        "plaza",
        train=tuple(Entry(n) for n in (6, 7, 8, 10, 12)),
        requests=tuple(Entry(n) for n in (6, 7, 8, 10, 12))),
    "eval-crowd": Spec(
        "plaza",
        train=tuple(Entry(n) for n in (2, 3, 3, 3, 4)),
        requests=tuple(Entry(n, 2) for n in (1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 12, 16))),
}

SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 0.3  # a set-up phase repeats until both limits are met
REF_TOL = 1e-9
SCENE_STEPS = 19  # obs_len + pred_len - 1 recurrence steps per window


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


@dataclass
class Loaded:
    windows: dict
    checkpoint: pipeline.Checkpoint


def setup(paths: dict) -> Loaded:
    """Load every annotation file and the checkpoint, as a user's run would."""
    windows = {}
    for name, path in paths["scenes"].items():
        with open(path, encoding="utf-8") as f:
            rows = data.parse_annotations(f.read())
        scene = data.regrid(rows, gen.SOURCE_TIMESTEP, name=name)
        windows[name] = data.build_windows(scene)
    ckpt = pipeline.load_checkpoint(paths["checkpoint"])
    params = ckpt.to_params()
    ckpt.to_optimizer(params)
    return Loaded(windows, ckpt)


@dataclass
class Cycle:
    traced: bool
    losses: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    step_at: list = field(default_factory=list)  # when each step started
    save_s: float = 0.0
    save_at: float = 0.0
    request_s: list = field(default_factory=list)
    request_at: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    wall_s: float = 0.0  # without the gauge's readings
    eval_ops: int = 0


def _finite_params(params) -> bool:
    return all(bool(np.all(np.isfinite(t.values))) for t in params.tensors().values())


def run_cycle(loaded: Loaded, train_ws, requests, seed: int, save_path: str,
              ledger: Ledger, gauge: hostref.Gauge, rec=None) -> tuple:
    """One cycle, traced when given a recorder; returns (Cycle, params after training).

    The gauge reads the host kernel before timed calls when one is due,
    and always after the cycle's last call.
    """
    cyc = Cycle(traced=rec is not None)
    t_start = perf_counter()
    spent = gauge.spent
    params = loaded.checkpoint.to_params()
    opt = loaded.checkpoint.to_optimizer(params)
    rng = np.random.default_rng([seed, 4])
    for w in train_ws:
        if rec is not None:
            rec.request += 1
        gauge.due()
        t0 = perf_counter()
        try:
            loss = pipeline.train_epoch(params, opt, [w], rng)
            err = None
        except Exception as e:  # a failed step is counted, and the run goes on
            loss, err = float("nan"), f"train step raised {e!r}"
        cyc.step_s.append(perf_counter() - t0)
        cyc.step_at.append(t0)
        cyc.losses.append(loss)
        ok = err is None and math.isfinite(loss) and _finite_params(params)
        ledger.record(ok, err or f"non-finite loss or parameters after a step on {len(w.ped_ids)} peds")
    if rec is not None:
        rec.request += 1
    gauge.due()
    t0 = cyc.save_at = perf_counter()
    try:
        pipeline.save_checkpoint(save_path, params, opt, metadata={"cycle": "benchmark"})
        err = None
    except Exception as e:
        err = f"checkpoint save raised {e!r}"
    cyc.save_s = perf_counter() - t0
    ledger.record(err is None, err or "")
    for req in requests:
        if rec is not None:
            rec.request += 1
            ops0 = rec.ops
        gauge.due()
        t0 = perf_counter()
        try:
            rep = evalkit.evaluate(params, req)
            err = None
        except Exception as e:
            rep, err = None, f"evaluate raised {e!r}"
        cyc.request_s.append(perf_counter() - t0)
        cyc.request_at.append(t0)
        cyc.reports.append(rep)
        if rec is not None:
            cyc.eval_ops += rec.ops - ops0
        ok = err is None and math.isfinite(rep.ade) and math.isfinite(rep.fde)
        ledger.record(ok, err or "non-finite ADE/FDE")
    cyc.wall_s = perf_counter() - t_start - (gauge.spent - spent)
    gauge.read()
    return cyc, params


def check_reference(params, requests, reports, ledger: Ledger) -> None:
    """Every evaluated window's errors against the plain-numpy forward."""
    w = {name: t.values for name, t in params.tensors().items()}
    for req, rep in zip(requests, reports):
        for win, record in zip(req, rep.windows if rep is not None else [None] * len(req)):
            if record is None:
                ledger.record(False, "no evaluation record to check")
                continue
            ref = npref.displacements(w, win.positions, win.obs_len)
            gap = float(np.max(np.abs(ref - record.displacements)))
            ledger.record(gap <= REF_TOL,
                          f"rollout differs from the numpy reference by {gap:.3g} "
                          f"on a {len(win.ped_ids)}-pedestrian window")


def check_checkpoint(path: str, params, ledger: Ledger) -> None:
    """The saved checkpoint must load back to the same parameters."""
    try:
        back = pipeline.load_checkpoint(path)
        ok = all(np.array_equal(back.params[n], t.values)
                 for n, t in params.tensors().items())
    except Exception:
        ok = False
    ledger.record(ok, "saved checkpoint does not load back bit-identically")


def _same(a: Cycle, b: Cycle) -> bool:
    if [float(x) for x in a.losses] != [float(x) for x in b.losses]:
        return False
    key = [(r.ade, r.fde) if r else None for r in a.reports]
    return key == [(r.ade, r.fde) if r else None for r in b.reports]


def _pct(xs, q) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def _pooled(reports, attr) -> float:
    peds = sum(r.pedestrian_count for r in reports if r)
    return sum(getattr(r, attr) * r.pedestrian_count for r in reports if r) / max(peds, 1)


def _rates(cycles, n_train, n_eval):
    train_s = sum(sum(c.step_s) + c.save_s for c in cycles)
    eval_s = sum(sum(c.request_s) for c in cycles)
    return len(cycles) * n_train / train_s, len(cycles) * n_eval / eval_s


def _corrupt_rollouts():
    """Shift every evaluated prediction by 1e-6 m: a wrong program."""
    orig = evalkit.rollout

    def shifted(*args, **kwargs):
        result = orig(*args, **kwargs)
        for p in result.predicted_abs:
            result.predicted_abs[p] = result.predicted_abs[p] + 1e-6
        return result

    evalkit.rollout = shifted
    return lambda: setattr(evalkit, "rollout", orig)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        corrupt: bool = False, spans_path: str | None = None) -> dict:
    """Run one workload; returns {"metrics", "attempted", "failed", ...}."""
    spec = WORKLOADS[workload]
    paths = gen.write_inputs(workdir, seed, spec)
    save_path = os.path.join(workdir, "cycle.ckpt")
    ledger = Ledger()
    rec = spans.Recorder() if trace else None
    restore = _corrupt_rollouts() if corrupt else (lambda: None)
    try:
        return _run(spec, seed, seconds, paths, save_path, ledger, rec, spans_path)
    finally:
        restore()
        if rec is not None:
            rec.uninstall()


def _timings(cycles, setup_loads, n_train, n_eval, gauge=None) -> dict:
    """The timing metrics: as measured, or at nominal host speed when given the gauge.

    Each scheduled step, save and request (a slot) repeats once per cycle,
    and its median over the cycles is its time: a burst of contention on
    the host then moves one sample, not the metric. Rates and p50/p90 run
    over these slot medians, so a p90 rests on the schedule's slowest
    slots, not on a tail of raw samples.
    """
    k = gauge.scale if gauge is not None else (lambda start: 1.0)
    steps = np.median([[t * k(at) for at, t in zip(c.step_at, c.step_s)] for c in cycles], axis=0)
    save = float(np.median([c.save_s * k(c.save_at) for c in cycles]))
    reqs = np.median([[t * k(at) for at, t in zip(c.request_at, c.request_s)] for c in cycles],
                     axis=0)
    loads = [t * k(at) for at, t in setup_loads]
    return {
        "setup_s": (float(np.median(loads)), "s"),
        "train.windows_per_s": (n_train / (float(np.sum(steps)) + save), "1/s"),
        "train.step_ms.p50": (1e3 * _pct(steps, 50), "ms"),
        "train.step_ms.p90": (1e3 * _pct(steps, 90), "ms"),
        "eval.windows_per_s": (n_eval / float(np.sum(reqs)), "1/s"),
        "eval.request_ms.p50": (1e3 * _pct(reqs, 50), "ms"),
        "eval.request_ms.p90": (1e3 * _pct(reqs, 90), "ms"),
    }


def _run(spec, seed, seconds, paths, save_path, ledger, rec, spans_path):
    setup_loads = []  # (start, seconds) per load
    gauge = hostref.Gauge()

    def setup_phase() -> Loaded:
        # a traced run traces every set-up phase; the overhead ratio
        # compares cycles only
        if rec is not None:
            rec.install()
        try:
            phase = []
            while len(phase) < SETUP_MIN_REPEATS or sum(phase) < SETUP_SECONDS:
                if rec is not None:
                    rec.request += 1
                gauge.due()
                t0 = perf_counter()
                loaded = setup(paths)
                phase.append(perf_counter() - t0)
                setup_loads.append((t0, phase[-1]))
                ledger.record(True, "")
        finally:
            if rec is not None:
                rec.uninstall()
        return loaded

    loaded = setup_phase()
    train_ws, requests = gen.select(loaded.windows, seed, spec)
    n_train = len(train_ws)
    n_eval = sum(len(r) for r in requests)

    # warm-up on a throwaway model: first calls pay one-off costs users don't
    warm = loaded.checkpoint.to_params()
    pipeline.train_epoch(warm, loaded.checkpoint.to_optimizer(warm), train_ws[:1],
                         np.random.default_rng(0))
    evalkit.evaluate(warm, requests[0][:1])

    cycles = []
    t_start = perf_counter()
    while len(cycles) < (2 if rec is not None else 1) or perf_counter() - t_start < seconds:
        if cycles:
            setup_phase()
        traced = rec is not None and len(cycles) % 2 == 1
        if traced:
            rec.install()
        try:
            cyc, params = run_cycle(loaded, train_ws, requests, seed, save_path,
                                    ledger, gauge, rec if traced else None)
        finally:
            if traced:
                rec.uninstall()
        if not cycles:
            check_reference(params, requests, cyc.reports, ledger)
            check_checkpoint(save_path, params, ledger)
        else:
            ledger.record(_same(cyc, cycles[0]),
                          "a cycle did not reproduce the first cycle bit for bit"
                          + (" (traced vs untraced)" if traced else ""))
        cycles.append(cyc)

    first = cycles[0]
    out = {"cycles": len(cycles), "train_windows": n_train, "eval_windows": n_eval,
           "crowd_sizes": {"train": [len(w.ped_ids) for w in train_ws],
                           "requests": [[len(w.ped_ids) for w in r] for r in requests]},
           "host": {"kernel_ms_median": 1e3 * float(np.median(gauge.kernel)),
                    "kernel_ms_nominal": 1e3 * hostref.NOMINAL_S,
                    "kernel_timings": len(gauge.kernel)}}
    if rec is None:
        out["samples"] = {"cycles": len(cycles), "step_slots": n_train,
                          "request_slots": len(requests), "setups": len(setup_loads)}
        out["unscaled"] = {name: value for name, (value, _) in
                           _timings(cycles, setup_loads, n_train, n_eval).items()}
        metrics = _timings(cycles, setup_loads, n_train, n_eval, gauge)
        metrics.update({
            "train.loss_mean": (float(np.mean(first.losses)), "m2"),
            "eval.ade_m": (_pooled(first.reports, "ade"), "m"),
            "eval.fde_m": (_pooled(first.reports, "fde"), "m"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
        metrics["ok_share"] = (1.0 - ledger.failed / ledger.attempted, "share")
    else:
        metrics = _layer_metrics(rec, cycles, train_ws, requests, len(setup_loads),
                                 save_path, ledger)
        out["spans"] = len(rec.start)
        if spans_path:
            rec.write(spans_path)
    out.update(metrics=metrics, attempted=ledger.attempted, failed=ledger.failed,
               reasons=ledger.reasons)
    return out


def _layer_metrics(rec, cycles, train_ws, requests, n_setups, save_path, ledger):
    silent = rec.silent_sites()
    if silent:
        raise RuntimeError(f"tracing wrappers never fired: {', '.join(silent)}")
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    k = len(traced)
    w_train = k * len(train_ws)
    w_eval = k * sum(len(r) for r in requests)
    w_all = w_train + w_eval
    sizes = [len(w.ped_ids) for w in train_ws] + [len(w.ped_ids) for r in requests for w in r]
    updates = rec.site_calls["sralstm.model.relation_step"]
    expected = k * sum(SCENE_STEPS * n * (n - 1) for n in sizes)
    ledger.record(updates == expected,
                  f"{updates} relation updates, closed form gives {expected}")
    tot = rec.totals()

    def total(name, per):
        return tot[name][1] / per

    def own(name, per):
        return tot[name][2] / per

    t_rate, e_rate = _rates(traced, len(train_ws), w_eval // k)
    u_rate, ue_rate = _rates(untraced, len(train_ws), w_eval // k)
    return {
        "diffcore.tape_nodes_per_window": (rec.tape_nodes / w_train, "count"),
        "diffcore.ops_per_window": (sum(c.eval_ops for c in traced) / w_eval, "count"),
        "diffcore.backward_ms": (total("diffcore.backward", w_train), "ms"),
        "diffcore.adam_ms": (total("diffcore.adam", w_train), "ms"),
        "diffcore.clip_ms": (total("diffcore.clip", w_train), "ms"),
        "model.relation_ms": (total("model.relation", w_all), "ms"),
        "model.relation_updates_per_window": (updates / w_all, "count"),
        "model.attention_ms": (total("model.attention", w_all), "ms"),
        "model.context_ms": (total("model.context", w_all), "ms"),
        "model.motion_ms": (total("model.motion", w_all), "ms"),
        "model.head_ms": (total("model.head", w_all), "ms"),
        "pipeline.scene_step_self_ms": (own("pipeline.scene_step", w_all), "ms"),
        "pipeline.rollout_self_ms": (own("pipeline.rollout", w_all), "ms"),
        "pipeline.train_step_self_ms": (own("pipeline.train_step", w_train), "ms"),
        "pipeline.loss_ms": (total("pipeline.loss", w_train), "ms"),
        "pipeline.checkpoint_save_ms": (total("pipeline.checkpoint_save", k), "ms"),
        "pipeline.checkpoint_load_ms": (total("pipeline.checkpoint_load", n_setups), "ms"),
        "pipeline.checkpoint_bytes": (float(os.path.getsize(save_path)), "bytes"),
        "data.parse_ms": (total("data.parse", n_setups), "ms"),
        "data.regrid_ms": (total("data.regrid", n_setups), "ms"),
        "data.build_windows_ms": (total("data.build_windows", n_setups), "ms"),
        "data.rotate_ms": (total("data.rotate", w_train), "ms"),
        "evalkit.evaluate_self_ms": (own("evalkit.evaluate", w_eval), "ms"),
        "traced.train.windows_per_s": (t_rate, "1/s"),
        "traced.eval.windows_per_s": (e_rate, "1/s"),
        "untraced.train.windows_per_s": (u_rate, "1/s"),
        "untraced.eval.windows_per_s": (ue_rate, "1/s"),
        "trace.overhead_ratio": (sum(c.wall_s for c in traced) / k
                                 / (sum(c.wall_s for c in untraced) / len(untraced)), "x"),
    }
