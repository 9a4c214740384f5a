"""The hooks that bench/tracer.py reads from the package.

The tracer reads these through getattr with defaults, so a rename would
zero its per-layer counts without an error; the bench's own smoke tests
are not part of this suite.
"""

import importlib
import inspect
import os
import sys

import pytest

from qcverify import (
    FieldSpec,
    OpenSubset,
    PolyRing,
    free_module,
    localize_piece,
    matlis_dual,
)
from qcverify.exact_linalg import Mat, rref
from qcverify.localization_cech import CechComplexWindow

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
tracer = importlib.import_module("tracer")


@pytest.mark.parametrize("layer, cls, method, span", tracer.METHODS,
                         ids=[m[3] for m in tracer.METHODS])
def test_every_traced_method_resolves(layer, cls, method, span):
    owner = getattr(importlib.import_module(f"qcverify.{layer}"), cls)
    # the tracer wraps vars(cls)[method]: the method must live on that class
    assert callable(vars(owner)[method])


def test_complex_window_takes_what_the_tracer_names():
    params = tuple(inspect.signature(CechComplexWindow.__init__).parameters)
    assert params == ("self", "module", "cover", "window", "cap")


def test_built_degrees_and_statuses_are_where_the_tracer_reads_them():
    ring = PolyRing(FieldSpec.prime(7), ("x", "y"))
    cover = OpenSubset(ring, (ring.var_poly(0), ring.var_poly(1)))
    o = free_module(ring, (0,))
    cx = CechComplexWindow(o, cover, window=(-1, 1), cap=3)
    assert 0 not in cx._degrees
    cx.degree(0)
    assert 0 in cx._degrees
    for f in (ring.var_poly(0), ring.var_poly(0) + ring.var_poly(1)):
        status = localize_piece(o, f, 0, 3).status
        assert status.startswith(("certified", "heuristic")), status
    # a bounded-above module localizes to zero with a certified status, which
    # the tracer must not count as heuristic
    status = localize_piece(matlis_dual(o), ring.var_poly(0), -3, 1).status
    assert status.startswith("certified"), status


def test_rref_is_cached_on_the_matrix():
    assert "_rref" in Mat.__slots__
    m = Mat.identity(FieldSpec.prime(7), 2)
    assert m._rref is None
    rref(m)
    assert m._rref is not None
