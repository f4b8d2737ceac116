"""Span recorder for the traced run, installed from outside the program.

Each public function and method of the layer modules is replaced by a
wrapper that records a span (name, start, end, parent). A function that
another module imports by name is replaced in that module's namespace
too, so ``cli`` and ``certify`` calling ``generalized_derivative``, or
``reduction`` calling ``eval_map``, are seen. Functions too hot to span
(``PiecewiseBoxMap.env`` and the ``Interval``/``IntervalBox``
constructors) are only counted. Spans are kept in flat arrays in memory
and written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("setmaps", "grids", "reduction", "derivative", "certify",
          "simulate", "cli")

# Counted, not spanned: called several times per node-time pair.
COUNTED = {
    ("setmaps", "PiecewiseBoxMap", "env"),
    ("intervals", "Interval", "__init__"),
    ("intervals", "IntervalBox", "__init__"),
}

# Private functions spanned because they are where reports are written.
PRIVATE_SPANS = {("cli", "_write_text"), ("cli", "_write_json")}

# Spans whose return value is also counted: span name -> (counter, size).
RESULT_COUNTS = {
    "grids.GridSpec.nodes": ("grids.nodes.count", len),
    "certify.matrosov_grid": ("grids.nodes.count",
                              lambda r: len(r[0]) + len(r[1])),
    "simulate.integrate": ("simulate.steps", lambda r: len(r.steps)),
}

# Serialization: report methods of the layer classes, plus file writers.
REPORT_METHODS = ("to_dict", "to_text", "to_csv")
REPORT_FUNCTIONS = {"simulate.write_trajectory_csv",
                    "simulate.trajectory_csv",
                    "cli._write_text", "cli._write_json"}


class SpanRecorder:
    """Wraps the ``incred`` layers, records spans, and restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack, clock = self._stack, time.perf_counter
        counted = RESULT_COUNTS.get(qualname)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counted is not None:
                counts[counted[0]] += counted[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, qualname: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, cls_name, attr in COUNTED:
            cls = getattr(importlib.import_module(f"incred.{layer}"), cls_name)
            self._patch(cls, attr, self._counter(
                f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))
        for layer in LAYERS:
            mod = importlib.import_module(f"incred.{layer}")
            for cls in vars(mod).values():
                if not (isinstance(cls, type)
                        and cls.__module__ == mod.__name__):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if (inspect.isfunction(fn) and not attr.startswith("_")
                            and (layer, cls.__name__, attr) not in COUNTED):
                        self._patch(cls, attr, self._span(
                            f"{layer}.{cls.__name__}.{attr}", fn))
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or (layer, attr) in PRIVATE_SPANS)):
                    wrappers[id(fn)] = self._span(f"{layer}.{attr}", fn)
        # Patch every namespace that binds a wrapped function, whatever
        # name it was imported under.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "incred"
                                   or mod_name.startswith("incred.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus checks.

        Self time is a span's duration minus the time its child spans
        cover. One thread makes every call, so children of one span never
        overlap and their durations add up to the covered time.
        ``overcovered`` counts spans whose children cover more than the
        span itself, which would mean the recorder is broken.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=dur[has_parent], minlength=len(dur))
        self_t = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_total = np.bincount(a["name"], weights=self_t, minlength=n_names)
        by_name = {name: {"calls": int(calls[i]), "s": float(total[i]),
                          "self_s": float(self_total[i])}
                   for i, name in enumerate(self.names)}
        return {"by_name": by_name,
                "overcovered": int(np.count_nonzero(self_t < -1e-9)),
                "report_s": self._report_seconds(a, dur)}

    def _report_seconds(self, a, dur) -> float:
        """Time in serialization spans, counting nested ones once."""
        is_report = np.array([n.rsplit(".", 1)[-1] in REPORT_METHODS
                              or n in REPORT_FUNCTIONS for n in self.names],
                             dtype=bool)
        total = 0.0
        parent, name = a["parent"], a["name"]
        for i in np.flatnonzero(is_report[name]):
            p = parent[i]
            while p >= 0 and not is_report[name[p]]:
                p = parent[p]
            if p < 0:
                total += float(dur[i])
        return total

    def write(self, path: Path) -> None:
        """Save the spans (name ids, parent index, start, end) and names."""
        np.savez(path, names=np.array(self.names), **self.arrays())
        path.with_suffix(".counts.json").write_text(
            json.dumps(dict(self.counts), indent=1, sort_keys=True) + "\n")
