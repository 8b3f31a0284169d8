"""Spans around mintplan's layer functions, recorded from outside the package.

The tracer swaps module attributes for wrappers that record one span per
call: name, start, end, parent span and request id. It patches the
attribute each caller resolves at call time. ``bnb`` and ``rolling``
import ``solve_lp`` and ``solve_pipeline`` by name, so patching
``mintplan.lpsolve.solve_lp`` would see nothing; ``mintplan.bnb.solve_lp``
is the boundary every LP solve crosses.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from mintplan import bnb, heuristics, mip, rolling

LP = "lpsolve.solve_lp"
SOLVE_MIP = "bnb.solve_mip"
INTEGERIZE = "bnb.integerize"
EXHAUSTIVE = "bnb.exhaustive"
BUILD = "mip.build"
PROCEDURES = ("heuristics.procedure1", "heuristics.procedure2")
REPLAN = "rolling.solve_pipeline"
ROLLING = "rolling"

# (module, attribute, span name) for every layer boundary the workloads cross.
TARGETS = (
    (bnb, "solve_lp", LP),
    (mip, "build", BUILD),
    (bnb, "solve_mip", SOLVE_MIP),
    (bnb, "integerize", INTEGERIZE),
    (bnb, "exhaustive_objective", EXHAUSTIVE),
    (heuristics, "procedure1", PROCEDURES[0]),
    (heuristics, "procedure2", PROCEDURES[1]),
    (rolling, "solve_pipeline", REPLAN),
)


@contextmanager
def patched(module, attr: str, value):
    """Replace ``module.attr`` with ``value`` for the duration of the block."""
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


class Tracer:
    """In-memory spans of one traced pass.

    Each span is ``[name, start, end, parent, request, detail]``:
    ``parent`` indexes ``spans`` (None at the top), ``request`` is the id
    the workload set before the call, and ``detail`` holds
    ``(status, iterations)`` for LP solves.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == LP:
                span[5] = (result.status, result.iterations)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        for module, attr, name in TARGETS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def layer_metrics(spans: list[list], scale=lambda start: 1.0) -> dict:
    """Per-layer counts and self times of one traced pass.

    A span's self time is its duration minus its children's; calls are
    sequential, so children never overlap. Times are multiplied by
    ``scale(span start)``.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start

    def under(i: int, names) -> bool:
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    iterations = infeasible = nodes = exhaustive_lps = escalations = restricted = 0
    refine_s = 0.0
    for i, (name, start, end, parent, _, detail) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start - child_s[i]) * scale(start)
        parent_name = spans[parent][0] if parent is not None else None
        if name == LP:
            status, iters = detail
            iterations += iters
            infeasible += status == "infeasible"
            nodes += parent_name == SOLVE_MIP
            exhaustive_lps += parent_name == EXHAUSTIVE
        elif name == SOLVE_MIP:
            escalations += parent_name == INTEGERIZE
            restricted += under(i, PROCEDURES)
        elif name in PROCEDURES:
            refine_s += (end - start) * scale(start)

    lp_calls = calls[LP]
    return {
        "lpsolve.calls": lp_calls,
        "lpsolve.iterations": iterations,
        "lpsolve.self_s": self_s[LP],
        "lpsolve.ms_per_call": 1e3 * self_s[LP] / lp_calls if lp_calls else 0.0,
        "lpsolve.us_per_iter": 1e6 * self_s[LP] / iterations if iterations else 0.0,
        "lpsolve.infeasible_share": infeasible / lp_calls if lp_calls else 0.0,
        "bnb.solve_mip.calls": calls[SOLVE_MIP],
        "bnb.nodes": nodes,
        "bnb.self_s": self_s[SOLVE_MIP],
        "bnb.exhaustive.lps": exhaustive_lps,
        "bnb.exhaustive.self_s": self_s[EXHAUSTIVE],
        "bnb.integerize.calls": calls[INTEGERIZE],
        "bnb.integerize.escalations": escalations,
        "bnb.integerize.self_s": self_s[INTEGERIZE],
        "mip.build.calls": calls[BUILD],
        "mip.build.self_s": self_s[BUILD],
        "heuristics.restricted_solves": restricted,
        "heuristics.refine_s": refine_s,
        "rolling.self_s": self_s[ROLLING],
    }


def lp_counts_by_request(spans: list[list]) -> dict:
    """LP calls and iterations per top-level request: the part of the
    request id before the first dot, such as ``campaign0``."""
    out: dict = {}
    for name, _, _, _, request, detail in spans:
        if name == LP:
            key = (request or "").split(".")[0]
            lps, iters = out.get(key, (0, 0))
            out[key] = (lps + 1, iters + detail[1])
    return out
