"""In-memory spans around calls into flowtop's modules, and per-layer metrics.

A span holds a name, start, end, parent id and a few counters taken from the
call's arguments and result.  Span names are ``<layer>.<function>``, where the
layer is one of flowtop's modules: cli, expressions, homology, flows,
simplicial, snf.

Functions are wrapped where they are called, never as their own module's
global, so the recursion inside ``homology()``, ``triangulate()`` and
``dimension()`` stays one span per outer call.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "self_times", "layer_metrics", "baseline_rows",
           "PER_LAYER", "IMPORT_SITES", "install"]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _enumerate_attrs(result, n, g, k_max):
    return {"out": len(result), "candidates": sum((k + 1) ** 2 for k in range(k_max + 1))}


def _snf_attrs(diag, matrix):
    rows, cols = matrix.shape
    return {"rows": rows, "cols": cols, "rank": sum(1 for x in diag if x),
            "unit": sum(1 for x in diag if x == 1), "nonunit": sum(1 for x in diag if x > 1)}


def _boundary_attrs(matrix, complex_, i):
    rows, cols = matrix.shape
    # each column of d_i has i + 1 entries of +1 or -1
    return {"rows": rows, "cols": cols, "nnz": (i + 1) * cols, "dense": rows * cols}


def _complex_attrs(K, *args):
    return {"facets": len(K.facets), "cells": [K.n_simplices(d) for d in range(K.dim + 1)]}


# Counters recorded when a span of this name ends: f(result, *args) -> dict.
ATTRS: dict[str, Callable[..., dict]] = {
    "cli.main": lambda rc, argv: {"job": argv[1] if len(argv) > 1 else ""},
    "snf.smith_diagonal": _snf_attrs,
    "simplicial.boundary_matrix": _boundary_attrs,
    "simplicial.triangulate": _complex_attrs,
    "simplicial.complex_from_json": _complex_attrs,
    "flows.enumerate_flows": _enumerate_attrs,
}

# Calls inside flowtop that a traced pass wraps: (owner, attribute, span name).
# The owner is a calling module, whose attribute is a name it imported, or
# ``module:Class`` for a method.
IMPORT_SITES = [
    ("flowtop.cli", "parse_manifold", "expressions.parse_manifold"),
    ("flowtop.cli", "homology", "homology.homology"),
    ("flowtop.cli", "triangulate", "simplicial.triangulate"),
    ("flowtop.cli", "complex_from_json", "simplicial.complex_from_json"),
    ("flowtop.cli", "simplicial_homology", "simplicial.simplicial_homology"),
    ("flowtop.simplicial", "smith_diagonal", "snf.smith_diagonal"),
    ("flowtop.simplicial:SimplicialComplex", "boundary_matrix", "simplicial.boundary_matrix"),
    ("flowtop.flows", "poincare_polynomial", "homology.poincare_polynomial"),
    ("flowtop.flows", "euler_characteristic", "homology.euler_characteristic"),
]


class Tracer:
    """Records spans in memory; ``wrap`` returns a timed version of a function."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)
        spans, open_, clock = self.spans, self._open, self._clock

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None, clock())
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if attrs is not None:
                span.attrs = attrs(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(path: str) -> Any:
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap every import site in IMPORT_SITES for the duration of the block."""
    saved = []
    for path, attr, name in IMPORT_SITES:
        owner = _resolve(path)
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = float("-inf")
        for lo, hi in sorted(children.get(idx, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = [
    "snf.diagonal_s", "snf.calls", "snf.max_rows", "snf.max_cols", "snf.rank",
    "snf.unit_factors", "snf.nonunit_factors",
    "simplicial.homology_s", "simplicial.homology_self_s",
    "simplicial.boundary_s", "simplicial.boundary_nnz", "simplicial.boundary_dense_entries",
    "simplicial.triangulate_s", "simplicial.from_json_s", "simplicial.facets",
    "simplicial.cells", "simplicial.cells_per_s",
    "expressions.parse_s", "expressions.parse_calls",
    "homology.engine_s", "homology.engine_calls",
    "flows.validate_s", "flows.validate_calls", "flows.enumerate_s", "flows.enumerate_yield",
    "flows.repeat_share",
    "cli.self_s",
    "trace.overhead_s",
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the two the worker adds.

    Times are self times, so a layer is not charged for the layers it calls;
    ``simplicial.homology_s`` is the exception and covers the whole oracle
    call.  ``flows.repeat_share`` and ``trace.overhead_s`` come from the
    job list and from the untraced pass, not from spans.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names: str) -> list[int]:
        return [i for n in names for i in by_name.get(n, [])]

    def self_s(*names: str) -> float:
        return sum(own[i] for i in idx(*names))

    def total(names: tuple[str, ...], key: str) -> int:
        return sum(spans[i].attrs[key] for i in idx(*names))

    def most(name: str, key: str) -> int:
        return max((spans[i].attrs[key] for i in idx(name)), default=0)

    snf = ("snf.smith_diagonal",)
    boundary = ("simplicial.boundary_matrix",)
    built = ("simplicial.triangulate", "simplicial.complex_from_json")
    engine = tuple(n for n in by_name if n.startswith("homology."))
    validate = ("flows.validate_flow", "flows.obstruction_check")
    enum = ("flows.enumerate_flows",)
    cells = sum(sum(spans[i].attrs["cells"]) for i in idx(*built))
    build_s = self_s(*built)
    candidates = total(enum, "candidates")
    return {
        "snf.diagonal_s": self_s(*snf),
        "snf.calls": len(idx(*snf)),
        "snf.max_rows": most(snf[0], "rows"),
        "snf.max_cols": most(snf[0], "cols"),
        "snf.rank": total(snf, "rank"),
        "snf.unit_factors": total(snf, "unit"),
        "snf.nonunit_factors": total(snf, "nonunit"),
        "simplicial.homology_s": sum(spans[i].duration
                                     for i in idx("simplicial.simplicial_homology")),
        "simplicial.homology_self_s": self_s("simplicial.simplicial_homology"),
        "simplicial.boundary_s": self_s(*boundary),
        "simplicial.boundary_nnz": total(boundary, "nnz"),
        "simplicial.boundary_dense_entries": total(boundary, "dense"),
        "simplicial.triangulate_s": self_s("simplicial.triangulate"),
        "simplicial.from_json_s": self_s("simplicial.complex_from_json"),
        "simplicial.facets": total(built, "facets"),
        "simplicial.cells": cells,
        "simplicial.cells_per_s": cells / build_s if build_s > 0 else 0.0,
        "expressions.parse_s": self_s("expressions.parse_manifold"),
        "expressions.parse_calls": len(idx("expressions.parse_manifold")),
        "homology.engine_s": self_s(*engine),
        "homology.engine_calls": len(idx(*engine)),
        "flows.validate_s": self_s(*validate),
        "flows.validate_calls": len(idx(*validate)),
        "flows.enumerate_s": self_s(*enum),
        "flows.enumerate_yield": total(enum, "out") / candidates if candidates else 0.0,
        "cli.self_s": self_s("cli.main"),
    }


def baseline_rows(spans: list[Span]) -> list[dict]:
    """One row per CLI job: cells per degree, triangulate, boundary and SNF seconds."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def below(i: int) -> Iterator[Span]:
        for c in children.get(i, []):
            yield spans[c]
            yield from below(c)

    rows = []
    for i, s in enumerate(spans):
        if s.name != "cli.main":
            continue
        inner = list(below(i))
        built = [t for t in inner if t.name == "simplicial.triangulate"]
        rows.append({
            "job": s.attrs["job"],
            "cells": built[0].attrs["cells"] if built else [],
            "triangulate_s": sum(t.duration for t in built),
            "boundary_s": sum(t.duration for t in inner if t.name == "simplicial.boundary_matrix"),
            "snf_s": sum(t.duration for t in inner if t.name == "snf.smith_diagonal"),
            "wall_s": s.duration,
        })
    return rows

