"""In-memory span recording around the program's public functions.

Wrappers are installed at the name each caller actually resolves: the
package calls most functions through a module attribute (``md.relation_step``,
``dc.backward``), but ``evalkit`` imports ``rollout`` by name and
``pipeline`` imports ``rotate_window`` by name, so those are wrapped at
``sralstm.evalkit.rollout`` and ``sralstm.pipeline.rotate_window``. The
program's code is never edited; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

# (module, attribute, span name). Several sites may share a span name.
SITES = (
    ("sralstm.data", "parse_annotations", "data.parse"),
    ("sralstm.data", "regrid", "data.regrid"),
    ("sralstm.data", "build_windows", "data.build_windows"),
    ("sralstm.pipeline", "rotate_window", "data.rotate"),
    ("sralstm.pipeline", "train_epoch", "pipeline.train_epoch"),
    ("sralstm.pipeline", "train_step", "pipeline.train_step"),
    ("sralstm.pipeline", "rollout", "pipeline.rollout"),
    ("sralstm.evalkit", "rollout", "pipeline.rollout"),
    ("sralstm.pipeline", "scene_step", "pipeline.scene_step"),
    ("sralstm.pipeline", "l2_loss", "pipeline.loss"),
    ("sralstm.pipeline", "save_checkpoint", "pipeline.checkpoint_save"),
    ("sralstm.pipeline", "load_checkpoint", "pipeline.checkpoint_load"),
    ("sralstm.diffcore", "backward", "diffcore.backward"),
    ("sralstm.diffcore", "clip_grad_norm", "diffcore.clip"),
    ("sralstm.diffcore", "adam_step", "diffcore.adam"),
    ("sralstm.model", "embed_relative", "model.relation"),
    ("sralstm.model", "relation_step", "model.relation"),
    ("sralstm.model", "attention_logits", "model.attention"),
    ("sralstm.model", "attention_weights", "model.attention"),
    ("sralstm.model", "social_context", "model.context"),
    ("sralstm.model", "embed_position", "model.motion"),
    ("sralstm.model", "motion_step", "model.motion"),
    ("sralstm.model", "predict_offset", "model.head"),
    ("sralstm.evalkit", "evaluate", "evalkit.evaluate"),
)

# autodiff primitives the model and pipeline call; counted, not spanned
OPS = ("matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu", "exp",
       "concat", "masked_softmax", "weighted_sum", "sum_all", "scale")


class Recorder:
    """Spans as parallel lists: name index, start, end, parent, request id.

    Spans nest strictly on the one thread that runs the program, so a
    span's children never overlap and its self time is its duration minus
    the sum of its children's durations.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.req = []
        self._stack = []
        self.request = -1
        self.site_calls: dict[str, int] = {}
        self.ops = 0
        self.tape_nodes = 0
        self._patches = []

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _span_wrapper(self, site: str, name: str, fn):
        nid = self._intern(name)
        rec = self
        calls = self.site_calls
        calls.setdefault(site, 0)
        count_tape = site == "sralstm.diffcore.backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[site] += 1
            if count_tape:
                rec.tape_nodes += len(args[0])
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.req.append(rec.request)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
        return wrapper

    def _op_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.ops += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every site and op."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self._span_wrapper(f"{mod_name}.{attr}", name, orig))
        dc = importlib.import_module("sralstm.diffcore")
        for op in OPS:
            orig = getattr(dc, op)
            self._patches.append((dc, op, orig))
            setattr(dc, op, self._op_wrapper(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def silent_sites(self) -> list:
        """Sites whose wrapper never fired."""
        return sorted(site for site, n in self.site_calls.items() if n == 0)

    def totals(self) -> dict:
        """{span name: (calls, total ms, self ms)}."""
        if not self.start:
            return {}
        name = np.asarray(self.name)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=selft, minlength=k)
        return {n: (int(calls[i]), 1e3 * float(total[i]), 1e3 * float(own[i]))
                for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.start)):
                f.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "request": self.req[i]}) + "\n")

