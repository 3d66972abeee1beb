"""Spans around the library's public functions, recorded from outside.

:func:`install` rebinds each traced function in every ``whfactor`` module
namespace that holds it, so calls made by the library itself (``cli`` calling
``factorize``, ``factorizer`` calling ``boundary_values``, ``cauchy`` calling
``integral``) are recorded as well as the benchmark's own calls.  Spans stay
in memory as ``[name, start, end, parent, op]`` and are aggregated into
calls, inclusive seconds and self seconds (span time minus the time of its
direct children) when the session ends.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

TRACED = {
    "factorizer": ("factorize", "check_solvability", "solve_step", "next_rhs", "assemble",
                   "remainder", "remainder_at_infinity"),
    "cauchy": ("decaying_split_anchors", "weighted_integral", "integral", "moment",
               "boundary_values", "omega"),
    "indices": ("winding_number",),
    "cli": ("main",),
}
EVAL_GRID = "funcspace.MatrixFunction.eval_grid"
COUNTERS = ("cauchy.tables", "cauchy.table_nodes", "cauchy.memo_entries", "cauchy.memo_mb")


class Tracer:
    """In-memory span recorder for one session."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None  # spans are recorded only while an operation runs
        self.targets = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if name == "cauchy.boundary_values":
                self.targets += int(np.size(args[2] if len(args) > 2 else kwargs["x"]))
            span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()

        return traced

    def summary(self) -> dict:
        """``<name>.calls``, ``.s`` and ``.self_s`` for every traced name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for name in traced_names():
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - c
        out["cauchy.boundary_values.targets"] = self.targets
        return out


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + [EVAL_GRID]


def install(tracer: Tracer, wh) -> None:
    """Rebind every traced function wherever a ``whfactor`` module holds it."""
    modules = [wh] + [getattr(wh, m) for m in ("cli", "factorizer", "cauchy", "indices",
                                                "funcspace", "gallery")]
    for modname, fns in TRACED.items():
        home = getattr(wh, modname)
        for fname in fns:
            fn = getattr(home, fname)
            wrapped = tracer.wrap(f"{modname}.{fname}", fn)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    setattr(mod, attr, wrapped)
    mf = wh.funcspace.MatrixFunction
    mf.eval_grid = tracer.wrap(EVAL_GRID, mf.eval_grid)


def counters(wh) -> dict:
    """Table and memo sizes read from ``cauchy`` module state; a counter whose
    state no longer exists is reported as ``None``."""
    tables = getattr(wh.cauchy, "_TABLE_CACHE", None)
    memo = getattr(wh.cauchy, "_EVAL_CACHE", None)
    out = dict.fromkeys(COUNTERS)
    if isinstance(tables, dict):
        out["cauchy.tables"] = len(tables)
        out["cauchy.table_nodes"] = sum(_nodes(t) for t in tables.values())
    if isinstance(memo, dict):
        out["cauchy.memo_entries"] = len(memo)
        out["cauchy.memo_mb"] = sum(_nbytes(v) for v in memo.values()) / 1e6
    return out


def _nodes(table) -> int:
    ext = getattr(table, "ext_tau", None)
    return int(np.size(getattr(table, "tau", ()))) + (0 if ext is None else int(np.size(ext)))


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))
