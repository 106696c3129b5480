"""Span tracing by wrapping the package's public functions from outside.

A :class:`Tracer` replaces each traced function, in every module namespace of
the package that holds it, with a wrapper that records a span: name, start,
end and the span that was open when it started (its parent).  Spans stay in
memory in flat arrays until the run ends.  The originals are put back when
the ``installed`` block exits, so untraced timing never runs through a
wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "birkhoff_attn"

# <module>.<function> of every traced public function
TRACED = (
    "expressivity.uniqueness_sweep", "expressivity.grid_matrix",
    "core.as_dsm", "core.shannon_entropy", "core.frobenius_distance",
    "sinkhorn.exp_scale", "sinkhorn.sinkhorn_naive", "sinkhorn.sinkhorn_ot",
    "birkhoff.project", "birkhoff.affine_project",
    "qr.qr_dsm", "qr.qr_orthonormalize",
    "qontot.simulate_dsm",
    "attention.attention_forward", "attention.softmax_rows",
    "counting.count_brute", "counting.decomposition_check",
    "counting.c2_closed", "counting.f3_analytic",
    "operators.make_operator",
)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread's call stack, so the children of a span never
    overlap one another and the time they cover is the sum of their durations.
    ``parent`` holds the index of each span's parent, or -1 for a root.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def names(self) -> list[str]:
        return list(self.name_ids)

    def wrap(self, fn, name: str):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))

        @functools.wraps(fn)
        def traced(*args, **kw):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kw)
            finally:
                self.end[index] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each function in ``TRACED`` wherever a package module binds it."""
        originals = {}
        for qualified in TRACED:
            module, attr = qualified.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
            if fn is not None:
                originals[id(fn)] = self.wrap(fn, qualified)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def stats(self) -> dict:
        """Per span name: calls, total self seconds and median duration in seconds."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        duration = spans["end"] - spans["start"]
        out = {}
        for name_id, name in enumerate(self.names):
            mine = spans["name_id"] == name_id
            out[name] = {
                "calls": int(mine.sum()),
                "self_s": float(own[mine].sum()),
                "p50_s": float(np.median(duration[mine])) if mine.any() else 0.0,
            }
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
