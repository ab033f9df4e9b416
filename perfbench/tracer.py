"""Span tracer that wraps tosqap's public functions from outside the package.

Every public function defined in a layer module is replaced, in every
``tosqap`` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, cell id) while a cell is active.  Very hot
leaves are only counted and timed, and their time is charged to the span
that called them.  ``Tracer`` is a context manager: on exit every binding it
replaced is put back, so later untraced calls pay nothing.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Modules of src/tosqap/ whose functions are traced.  ``cli`` is left out:
#: apart from its thread pool it only parses arguments and writes files.
LAYERS = ("linalg", "prox", "oracles", "solver", "lap", "qap", "fw")

#: Functions called so often (``project_simplex`` about 200 000 times per
#: ``initial_point`` at n = 100) that a span per call would cost more than
#: the call; they are aggregated into counts and total time instead.
LEAVES = frozenset({
    "prox.project_simplex",
    "linalg.as_matrix",
    "linalg.frobenius_inner",
    "linalg.frobenius_norm",
})


def traced_functions() -> dict:
    """``{"layer.name": function}`` for the public functions of each layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"tosqap.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Collects spans and leaf counts for the cells run inside ``cell()``.

    ``spans`` holds ``(id, parent_id, cell, name, start, end, child_time)``
    tuples, appended when a span ends.  ``leaves`` maps ``(cell, name)`` to
    ``[calls, seconds]``.  Cell root spans are named ``cell.<kind>``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])
        self.patched: list[tuple] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._cell = None
        self._next_id = 0
        self._leaf_depth = 0

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        originals = traced_functions()
        wrappers = {id(f): self._wrap(name, f) for name, f in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tosqap" or mod_name.startswith("tosqap.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                    self.patched.append((mod, attr, val))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)

    def unrestored(self) -> list[str]:
        """Bindings that do not hold the original function (empty after exit)."""
        return [f"{mod.__name__}.{attr}" for mod, attr, original in self.patched
                if getattr(mod, attr) is not original]

    # -- recording ------------------------------------------------------------
    @contextmanager
    def cell(self, cell_id: int, kind: str):
        """Record the calls made inside, under a root span ``cell.<kind>``."""
        self._cell = cell_id
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, f"cell.{kind}")
            self._cell = None

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += end - start
        self.spans.append((span_id, parent, self._cell, name, start, end, child))

    def _wrap(self, name: str, fn):
        tracer = self
        if name in LEAVES:
            def leaf(*args, **kwargs):
                if tracer._cell is None:
                    return fn(*args, **kwargs)
                tracer._leaf_depth += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    tracer._leaf_depth -= 1
                    rec = tracer.leaves[(tracer._cell, name)]
                    rec[0] += 1
                    if tracer._leaf_depth == 0:
                        rec[1] += dt
                        tracer._stack[-1][2] += dt
            wrapper = leaf
        else:
            def span(*args, **kwargs):
                if tracer._cell is None:
                    return fn(*args, **kwargs)
                frame = tracer._open()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(frame, name)
            wrapper = span
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
