"""Outside-in layer timing: spans around the calls into each lgbfgs module.

For the length of a traced sweep, ``Tracer`` replaces the module functions
the solvers call, and the objective instance's methods, with wrappers that
record one span per call: name, start, end, the span that was open when the
call began, and a work count.  The library's own code is unchanged.  A
wrapped function that no longer exists, or no longer takes the argument the
tracer counts, raises ``MissingTarget`` before anything runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# (module, attribute looked up at call time, span name, counted argument).
# A function is wrapped in the namespace its caller looks it up in: greedy
# imports compact_B_diag by name, the solvers import the correction and
# greedy functions by name and call kernels and aggregation through the module.
MODULE_TARGETS = (
    ("lgbfgs.data", "synth_problem", "data.synth_problem", None),
    ("lgbfgs.solvers", "warm_start", "solvers.warm_start", None),
    ("lgbfgs.solvers", "run", "solvers.run", None),
    ("lgbfgs.solvers", "weighted_step_norm", "correction.weighted_step_norm", None),
    ("lgbfgs.solvers", "apply_scaling", "correction.apply_scaling", None),
    ("lgbfgs.solvers", "greedy_pair", "greedy.greedy_pair", "candidates"),
    ("lgbfgs.greedy", "compact_B_diag", "kernels.compact_B_diag", "indices"),
    ("lgbfgs.kernels", "two_loop_direction", "kernels.two_loop_direction", None),
    ("lgbfgs.kernels", "dense_bfgs_update", "kernels.dense_update", None),
    ("lgbfgs.kernels", "dense_inv_bfgs_update", "kernels.dense_update", None),
    ("lgbfgs.aggregation", "aggregate_c3", "aggregation.aggregate_c3", None),
)

# (method, span name, counted argument) on the objective instance
OBJECTIVE_TARGETS = (
    ("value_grad", "objectives.value_grad", None),
    ("hess_vec", "objectives.hess_vec", None),
    ("hess_column", "objectives.hess_column", "i"),
    ("hess_diag", "objectives.hess_diag", "indices"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in MODULE_TARGETS)) + tuple(
    t[1] for t in OBJECTIVE_TARGETS
)


class MissingTarget(RuntimeError):
    """A function the tracer wraps is gone or changed its signature."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    arg: Any  # the counted argument: len() of a sequence, else the value
    ok: bool  # False when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    """One span name's totals; ``entries`` sums the counted argument over calls."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    entries: int = 0
    errors: int = 0


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        found = []
        for module_name, attr, span, arg in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise MissingTarget(f"{module_name}.{attr} no longer exists")
            found.append((module, attr, fn, self._wrap(span, fn, arg)))
        for module, attr, fn, traced in found:
            setattr(module, attr, traced)
            self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def wrap_objective(self, obj) -> None:
        """Shadow the objective's methods with traced ones on this instance only."""
        for method, span, arg in OBJECTIVE_TARGETS:
            fn = getattr(obj, method, None)
            if not callable(fn):
                raise MissingTarget(f"{type(obj).__name__}.{method} no longer exists")
            setattr(obj, method, self._wrap(span, fn, arg))

    def _wrap(self, name: str, fn: Callable, arg: str | None) -> Callable:
        sig = inspect.signature(fn)
        if arg is not None and arg not in sig.parameters:
            raise MissingTarget(f"{fn.__qualname__} no longer takes {arg!r}")
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = None
            if arg is not None:
                value = sig.bind(*args, **kwargs).arguments[arg]
                value = len(value) if hasattr(value, "__len__") else int(value)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = Span(name, start, end, parent, value, ok)

        return traced

    # -- summaries --------------------------------------------------------------

    def layers(self) -> dict[str, LayerStats]:
        """Per span name: calls, total and self seconds, entries counted, errors."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        stats = {name: LayerStats() for name in SPAN_NAMES}
        for index, span in enumerate(self.spans):
            st = stats[span.name]
            st.calls += 1
            st.s += span.duration
            st.self_s += span.duration - child_time[index]
            if span.arg is not None:
                st.entries += span.arg
            st.errors += not span.ok
        return stats

    def durations(self, name: str) -> np.ndarray:
        return np.array([s.duration for s in self.spans if s.name == name])

    def args(self, name: str) -> list:
        return [s.arg for s in self.spans if s.name == name]

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)
