"""Seeded input generation for the benchmark workloads.

Everything the program receives is produced here from the workload seed:
annotation text files and an initial checkpoint. The benchmark then loads
them through the program's own readers (``parse_annotations`` ->
``regrid`` -> ``build_windows``, ``load_checkpoint``), so the data path is
measured as a user would drive it.

Crowd sizes are part of each workload's definition and do not depend on
the seed: a train step or a request costs roughly n^2 in its crowd size n,
so a seed that shifted the size mix would move every timing. The seed only
moves geometry: headings, offsets, spacings, arrival times and noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from sralstm import data, model, pipeline
from sralstm import diffcore as dc

SOURCE_TIMESTEP = data.GRID_DT
WINDOW_LEN = 20  # 8 observed + 12 predicted frames, the model defaults


@dataclass(frozen=True)
class Entry:
    """A run of ``count`` consecutive windows that all hold ``peds`` pedestrians."""

    peds: int
    count: int = 1


@dataclass(frozen=True)
class Spec:
    """What one workload trains on and evaluates per cycle.

    ``train`` lists one entry per train step (each entry is one window);
    ``requests`` lists one entry per ``evaluate`` call, whose ``count`` is
    the batch of consecutive windows it carries.
    """

    scenes: str            # "small" (one file per scenario instance) or "plaza"
    train: tuple
    requests: tuple


def _kind_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _synth_params(rng, frames: int) -> data.SynthParams:
    # speed stays at the default: loss and ADE scale with its square, and a
    # seeded speed would move the quality metrics more than any model change
    return data.SynthParams(spacing=float(rng.uniform(0.8, 1.4)), noise=0.02,
                            frames=frames)


def small_scenes(seed: int, spec: Spec):
    """One annotation text per synthetic scenario instance.

    Train entries with 2 pedestrians cycle through the four two-walker
    kinds; entries with 4 use ``group_avoid``. Each request gets its own
    held-out instance, long enough for its batch of consecutive windows.
    Returns {scene name: text}.
    """
    rng = np.random.default_rng([seed, 1])
    pairs = [k for k in data.SCENARIO_KINDS if k != "group_avoid"]
    texts = {}
    n_pairs = 0
    for role, entries in (("train", spec.train), ("eval", spec.requests)):
        for idx, e in enumerate(entries):
            if e.peds == 4:
                kind = "group_avoid"
            elif e.peds == 2:
                kind = pairs[n_pairs % len(pairs)]
                n_pairs += 1
            else:
                raise ValueError(f"small scenes hold 2 or 4 pedestrians, not {e.peds}")
            frames = WINDOW_LEN + e.count - 1 + int(rng.integers(0, 4))
            scene = data.synth_scenario(kind, _synth_params(rng, frames), seed=_kind_seed(rng))
            texts[f"{role}{idx:02d}-{kind}"] = data.scene_to_annotation_text(scene)
    return texts


def plaza(seed: int, spec: Spec) -> str:
    """One large scene: seeded scenario instances tiled over a 30 m plaza.

    Each schedule entry gets an episode. Its instances arrive at staggered
    frames and leave at staggered frames, and all of them are present for
    a core stretch long enough for the entry's run of windows, so some run
    of windows holds exactly the entry's crowd. Arrivals and departures
    also produce windows of other sizes, as a real recording does.
    """
    rng = np.random.default_rng([seed, 2])
    entries = list(spec.train) + list(spec.requests)
    plaza_scene = data.Scene(name="plaza")
    next_ped = 1
    frame = 0
    lead = 6
    for e in entries:
        core = WINDOW_LEN + e.count - 1 + 2
        left = e.peds
        while left > 0:
            kind = data.SCENARIO_KINDS[int(rng.integers(0, len(data.SCENARIO_KINDS)))]
            early = int(rng.integers(0, lead + 1))
            late = int(rng.integers(0, lead + 1))
            frames = early + core + late
            scene = data.synth_scenario(kind, _synth_params(rng, frames), seed=_kind_seed(rng))
            offset = rng.uniform(-15.0, 15.0, size=2)
            start = frame + lead - early
            for _, t in sorted(scene.tracks.items())[:left]:
                plaza_scene.tracks[next_ped] = data.Track(start, t.points + offset)
                next_ped += 1
                left -= 1
        # the gap keeps one episode's walkers out of the next one's windows
        frame += 2 * lead + core + 1
    return data.scene_to_annotation_text(plaza_scene)


def write_inputs(directory: str, seed: int, spec: Spec) -> dict:
    """Write the workload's annotation files and initial checkpoint.

    The checkpoint holds a freshly initialised default ``sra`` model and
    its fresh Adam state; every cycle resumes training from it. Returns
    {"scenes": {name: path}, "checkpoint": path}.
    """
    os.makedirs(directory, exist_ok=True)
    if spec.scenes == "small":
        texts = small_scenes(seed, spec)
    else:
        texts = {"plaza": plaza(seed, spec)}
    scenes = {}
    for name, text in texts.items():
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        scenes[name] = path
    params = model.ModelParams.init(model.ModelConfig(), seed=seed)
    ckpt = os.path.join(directory, "initial.ckpt")
    pipeline.save_checkpoint(ckpt, params, dc.AdamState(params.tensors()),
                             metadata={"workload_seed": seed})
    return {"scenes": scenes, "checkpoint": ckpt}


def select(windows_by_scene: dict, seed: int, spec: Spec):
    """Pick the scheduled windows out of the program's own window lists.

    For every entry, candidates are runs of ``count`` consecutive start
    frames in one scene whose windows all hold exactly ``peds``
    pedestrians; one is picked at random and never reused. Returns
    (train windows, list of request window lists).
    """
    rng = np.random.default_rng([seed, 3])
    used = set()

    def pick(entry, scene_filter):
        candidates = []
        for name in sorted(windows_by_scene):
            if not scene_filter(name):
                continue
            ws = windows_by_scene[name]
            by_start = {w.start_frame: w for w in ws}
            for w in ws:
                run = [by_start.get(w.start_frame + k) for k in range(entry.count)]
                if all(r is not None and len(r.ped_ids) == entry.peds
                       and (name, r.start_frame) not in used for r in run):
                    candidates.append((name, run))
        if not candidates:
            raise RuntimeError(f"no run of {entry.count} windows with {entry.peds} pedestrians")
        name, run = candidates[int(rng.integers(0, len(candidates)))]
        used.update((name, r.start_frame) for r in run)
        return run

    if spec.scenes == "small":
        train = [pick(e, lambda n, i=i: n.startswith(f"train{i:02d}-"))[0]
                 for i, e in enumerate(spec.train)]
        requests = [pick(e, lambda n, i=i: n.startswith(f"eval{i:02d}-"))
                    for i, e in enumerate(spec.requests)]
    else:
        train = [pick(e, lambda n: True)[0] for e in spec.train]
        requests = [pick(e, lambda n: True) for e in spec.requests]
    order = rng.permutation(len(train))
    return [train[int(i)] for i in order], requests
