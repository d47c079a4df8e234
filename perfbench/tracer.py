"""Span recorder that wraps the public functions of the ``coarsegen`` modules
from outside the program.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``coarsegen`` module (``train`` and ``decoder`` import names directly,
so rebinding the defining module alone would miss their calls), plus the
optimizer methods of ``ParameterStore``; ``uninstall`` puts the originals
back. Spans (name, start, end, parent) stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("corpus", "molio", "coarsen", "encoder", "latent", "decoder",
                  "losses", "geometry", "autodiff", "params", "metrics",
                  "kernels", "train")

# ``as_tensor`` runs inside every tape operation and ``ParameterStore.new``
# on every parameter read; spans around them would cost more than the work
# they time. Their time stays in the self time of the caller.
UNTRACED = {"autodiff.as_tensor"}
STORE_METHODS = ("zero_grad", "sgd_step", "adam_step")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result)`` runs outside it."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    def install(self, hooks: dict | None = None) -> None:
        """Wrap the traced functions; ``hooks`` maps a span name to ``after``."""
        hooks = hooks or {}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"coarsegen.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrappers[obj] = self.wrap(name, obj, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "coarsegen" and not modname.startswith("coarsegen."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        store_cls = importlib.import_module("coarsegen.params").ParameterStore
        for meth in STORE_METHODS:
            orig = store_cls.__dict__[meth]
            self._undo.append((store_cls, meth, orig))
            setattr(store_cls, meth, self.wrap(f"params.{meth}", orig, hooks.get(f"params.{meth}")))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------
    def arrays(self):
        names = np.array(self.names, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.intp)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return names, dur, dur - covered, parent

    def write(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                                 for n, s, e, p in zip(self.names, self.start,
                                                       self.end, self.parent)]},
                      fh)
