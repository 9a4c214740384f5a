"""Span tracing of qcverify's layers, installed from outside the package.

``install`` wraps every public function of each layer module, in every
module that bound it by name (``from .exact_linalg import rref`` gives
``localization_cech`` a name of its own), plus a few methods on their
classes.  Each call records one span: name, start, end and the span that
was open when it began.  Spans stay in memory until ``table`` and
``write_spans`` run after the timed work.

Self time is a span's duration minus the part covered by its child spans.
Garbage-collection pauses land in whatever span is open; they are reported
beside the self times (``gc.*``), not subtracted from them.
"""

import functools
import gc
import gzip
import importlib
import time
import weakref
from array import array
from collections.abc import Mapping
from types import FunctionType

LAYERS = (
    "exact_linalg",
    "graded_modules",
    "localization_cech",
    "glued_scheme",
    "matlis",
    "verify_cli",
)

# (layer, class, method, span name): methods traced on their class
METHODS = (
    ("exact_linalg", "Mat", "__matmul__", "exact_linalg.matmul"),
    ("graded_modules", "DegreewiseModule", "piece", "graded_modules.piece"),
    ("graded_modules", "DegreewiseModule", "act", "graded_modules.act"),
    ("graded_modules", "DegreewiseModule", "power_act", "graded_modules.power_act"),
    ("localization_cech", "CechComplexWindow", "__init__",
     "localization_cech.cech_complex_init"),
    ("localization_cech", "CechComplexWindow", "degree", "localization_cech.cech_degree"),
)


def _nnz(m) -> int:
    """Nonzero entries of a matrix, read without touching its caches; rows
    may be dense sequences or column -> value mappings."""
    total = 0
    for row in m.data:
        if isinstance(row, Mapping):
            row = row.values()
        total += sum(map(bool, row))
    return total


class Tracer:
    """In-memory spans and counters for one child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when a same-name span encloses it
        self._stack = [-1]
        self._active: list = []
        self.counts: dict = {
            "rref_hits": 0,
            "rref_cells": 0,
            "rref_nnz": 0,
            "matmul_cells_out": 0,
            "localize_heuristic": 0,
            "caps_tried": 0,
            "complexes_distinct": 0,
        }
        self._complex_keys: dict = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        nested, stack, active = self.nested, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(1 if active[nid] else 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    # -- hooks that count work where it happens ------------------------------

    def _before_rref(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        if getattr(m, "_rref", None) is not None:
            self.counts["rref_hits"] += 1
            return
        self.counts["rref_cells"] += m.nrows * m.ncols
        self.counts["rref_nnz"] += _nnz(m)

    def _before_matmul(self, args, kwargs):
        a, b = args
        self.counts["matmul_cells_out"] += a.nrows * b.ncols

    def _after_localize(self, lp):
        if str(lp.status).startswith("heuristic"):
            self.counts["localize_heuristic"] += 1

    def _before_complex_init(self, args, kwargs):
        named = dict(zip(("self", "module", "cover", "window", "cap"), args), **kwargs)
        module, cover, cap = named["module"], named["cover"], named["cap"]
        key = (id(module), id(cover), cap)
        seen = self._complex_keys.get(key)
        if seen is None or seen[0]() is not module or seen[1]() is not cover:
            # new key, or the ids were recycled after the old objects died
            self._complex_keys[key] = (weakref.ref(module), weakref.ref(cover))
            self.counts["complexes_distinct"] += 1

    def _before_cech_degree(self, args, kwargs):
        cx, d = args if len(args) == 2 else (args[0], kwargs["d"])
        if d not in getattr(cx, "_degrees", ()):
            self.counts["caps_tried"] += 1

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the imported qcverify package in place."""
        pkg = importlib.import_module("qcverify")
        mods = {short: importlib.import_module(f"qcverify.{short}") for short in LAYERS}
        namespaces = [pkg, *mods.values()]
        hooks = {
            "exact_linalg.rref": {"before": self._before_rref},
            "localization_cech.localize_piece": {"after": self._after_localize},
        }
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, obj, **hooks.get(name, {}))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, traced)
        method_hooks = {
            "exact_linalg.matmul": {"before": self._before_matmul},
            "localization_cech.cech_complex_init": {"before": self._before_complex_init},
            "localization_cech.cech_degree": {"before": self._before_cech_degree},
        }
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(name, vars(cls)[meth], **method_hooks.get(name, {})))
        gc.callbacks.append(self._gc_callback)

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """Per span name: calls, self seconds, and total seconds counted
        over outermost spans only, so recursion is not counted twice."""
        n = len(self.name)
        cover = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                cover[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - cover[i]
            if not self.nested[i]:
                row["total_s"] += dur
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: run id, index, name, start,
        end, parent index (-1 at top level); times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            names, run = self.names, self.run_id
            for i in range(len(self.name)):
                fh.write(f"{run}\t{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
