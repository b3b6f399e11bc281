"""Spans and counts around the public entry points of sidonspace.

:class:`Tracer` replaces each traced function or method with a wrapper that
records one span (name, start, end, parent, run id) per call and takes
counts from the arguments, the return value and the report ``details``.
Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; uninstall puts every original object back.

A module function is replaced in its own module and in every sidonspace
module that imported it by name (``experiments`` binds ``span_chain``,
``is_r_sidon`` and ``make_field`` that way). Methods are replaced on their
class.

Self time is a span's duration minus the time its direct child spans
cover. The program is single-threaded, so children never overlap and no
layer waits on another.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs; the span name is "<module>.<function>".
FUNCTIONS = (
    ("gfpoly", "is_irreducible"),
    ("field", "make_field"),
    ("linalg", "batch_rank"),
    ("subspace", "product"),
    ("subspace", "span_chain"),
    ("subspace", "all_projective_points"),
    ("subspace", "random_subspace"),
    ("qpoly", "v_f_gamma"),
    ("sidon", "is_r_sidon"),
    ("sidon", "is_sidon_intersection"),
    ("brset", "extract_brset"),
    ("brset", "is_br_set"),
    ("constructions", "binomial_family"),
    ("experiments", "run_experiment"),
)

# (module, class, method, span name)
METHODS = (
    ("field", "FieldCtx", "mul_many", "field.mul_many"),
    ("field", "FieldCtx", "mul", "field.mul"),
    ("field", "FieldCtx", "proj_canon", "field.proj_canon"),
    ("linalg", "SpanBuilder", "insert_many", "linalg.insert_many"),
    ("field", "DiscreteLogTable", "__init__", "field.dlog.build"),
    ("field", "DiscreteLogTable", "log", "field.dlog.log"),
)

# Spans whose individual durations are kept for percentiles.
LATENCY = ("sidon.is_r_sidon", "sidon.is_sidon_intersection")


def _rows(a) -> int:
    return int(np.atleast_2d(a).shape[0])


def targets():
    """Every (owner, attribute, original, span name) the tracer replaces."""
    out = []
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "sidonspace" or name.startswith("sidonspace.")]
    for modname, fn in FUNCTIONS:
        orig = getattr(importlib.import_module(f"sidonspace.{modname}"), fn)
        for mod in mods:
            for attr, val in vars(mod).items():
                if val is orig:
                    out.append((mod, attr, orig, f"{modname}.{fn}"))
    for modname, cls, meth, span in METHODS:
        owner = getattr(importlib.import_module(f"sidonspace.{modname}"), cls)
        out.append((owner, meth, owner.__dict__[meth], span))
    return out


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.open: list[int] = []
        self.durations: dict[str, list[float]] = {n: [] for n in LATENCY}
        self.counts: dict[str, float] = {}
        self._ctx_ids: set[int] = set()
        self._saved: list[tuple] = []
        self._dlog = self._id("field.dlog.log")
        self._t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for agg in (self.calls, self.open):
                agg.append(0)
            for agg in (self.total, self.self_time):
                agg.append(0.0)
        return self._ids[name]

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans -----------------------------------------------------------------

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.open[nid] += 1
        self.start.append(time.perf_counter() - self._t0)
        return idx

    def finish(self, idx: int, nid: int) -> float:
        t = time.perf_counter() - self._t0
        self.end[idx] = t
        self._stack.pop()
        d = t - self.start[idx]
        self.self_time[nid] += d - self._child.pop()
        self.total[nid] += d
        self.calls[nid] += 1
        self.open[nid] -= 1
        if self._child:
            self._child[-1] += d
        return d

    def wrap(self, fn, span: str):
        nid = self._id(span)
        hook = _HOOKS.get(span)
        keep = self.durations.get(span)

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = self.begin(nid)
            try:
                res = fn(*args, **kw)
            finally:
                d = self.finish(idx, nid)
            if keep is not None:
                keep.append(d)
            if hook is not None:
                hook(self, args, res)
            return res

        traced.__perfbench_traced__ = True
        return traced

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for owner, attr, orig, span in targets():
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self.wrap(orig, span)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------------

    def stat(self, span: str, what: str) -> float:
        nid = self._ids.get(span)
        if nid is None:
            return 0
        return {"calls": self.calls, "s": self.total, "self_s": self.self_time}[what][nid]

    def percentile_ms(self, span: str, q: float) -> float:
        d = self.durations[span]
        return float(np.percentile(np.asarray(d) * 1e3, q)) if d else 0.0

    def write(self, path: Path) -> None:
        """Write every span: name table plus one array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.full(len(self.start), self.run_id, dtype=np.int64),
        )


def _count_mul(t: Tracer, args, res) -> None:
    if t.open[t._dlog]:
        t.count("field.dlog.steps")


def _count_make_field(t: Tracer, args, res) -> None:
    if id(res) not in t._ctx_ids:
        t._ctx_ids.add(id(res))
        t.count("field.make_field.builds")


def _count_insert_many(t: Tracer, args, res) -> None:
    t.count("linalg.insert_many.rows_in", _rows(args[1]))
    t.count("linalg.insert_many.pivots", int(res))


# Count hooks by span name: (tracer, positional args, return value).
_HOOKS = {
    "field.mul": _count_mul,
    "field.make_field": _count_make_field,
    "field.mul_many": lambda t, a, r: t.count("field.mul_many.rows", _rows(r)),
    "field.proj_canon": lambda t, a, r: t.count("field.proj_canon.rows", _rows(r)),
    "linalg.insert_many": _count_insert_many,
    "linalg.batch_rank": lambda t, a, r: t.count("linalg.batch_rank.mats", len(r)),
    "sidon.is_r_sidon": lambda t, a, r: t.count("sidon.is_r_sidon.multisets", r.details["multisets_checked"]),
    "sidon.is_sidon_intersection": lambda t, a, r: t.count(
        "sidon.is_sidon_intersection.alphas", r.details["alphas_checked"]
    ),
}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name (no units)."""
    c = t.counts.get
    m: dict[str, float] = {}
    for span, stats in (
        ("gfpoly.is_irreducible", ("calls", "self_s")),
        ("field.make_field", ("s",)),
        ("field.mul_many", ("calls", "self_s")),
        ("field.mul", ("calls", "self_s")),
        ("field.dlog.log", ("calls", "self_s")),
        ("field.proj_canon", ("calls", "self_s")),
        ("linalg.insert_many", ("calls", "self_s")),
        ("linalg.batch_rank", ("calls", "self_s")),
        ("subspace.product", ("calls", "self_s")),
        ("subspace.span_chain", ("calls", "s")),
        ("subspace.all_projective_points", ("self_s",)),
        ("subspace.random_subspace", ("s",)),
        ("qpoly.v_f_gamma", ("calls", "s")),
        ("sidon.is_r_sidon", ("calls", "self_s")),
        ("sidon.is_sidon_intersection", ("calls", "self_s")),
        ("brset.extract_brset", ("s",)),
        ("brset.is_br_set", ("self_s",)),
        ("constructions.binomial_family", ("s",)),
        ("experiments.run_experiment", ("s", "self_s")),
    ):
        for what in stats:
            m[f"{span}.{what}"] = t.stat(span, what)
    m["field.dlog.build_s"] = t.stat("field.dlog.build", "s")
    for key in (
        "field.make_field.builds", "field.mul_many.rows", "field.dlog.steps",
        "field.proj_canon.rows", "linalg.insert_many.rows_in", "linalg.insert_many.pivots",
        "linalg.batch_rank.mats", "sidon.is_r_sidon.multisets",
        "sidon.is_sidon_intersection.alphas",
    ):
        m[key] = c(key, 0)
    irr = m["gfpoly.is_irreducible.calls"]
    m["gfpoly.search_yield"] = m["field.make_field.builds"] / irr if irr else 0.0
    rows_in = m["linalg.insert_many.rows_in"]
    m["linalg.insert_many.yield"] = m["linalg.insert_many.pivots"] / rows_in if rows_in else 0.0
    for span in LATENCY:
        m[f"{span}.p50_ms"] = t.percentile_ms(span, 50)
        m[f"{span}.p99_ms"] = t.percentile_ms(span, 99)
    return m
