"""Shared fixtures: one rational ring and the standard cast of modules.

Session scope matters here; realization caches live on the module objects,
so reusing them keeps the suite fast.
"""

from collections import Counter

import pytest

import qcverify
from qcverify import (
    FPGradedModule,
    FieldSpec,
    HomogPoly,
    OpenSubset,
    PolyRing,
    double_origin_plane,
    free_module,
)
from qcverify import exact_linalg, glued_scheme, graded_modules, localization_cech
from qcverify.localization_cech import CechComplexWindow


@pytest.fixture(scope="session")
def field() -> FieldSpec:
    return FieldSpec.rationals()


@pytest.fixture(scope="session")
def ring(field) -> PolyRing:
    return PolyRing(field, ("x", "y"))


@pytest.fixture(scope="session")
def x(ring) -> HomogPoly:
    return ring.var_poly(0)


@pytest.fixture(scope="session")
def y(ring) -> HomogPoly:
    return ring.var_poly(1)


@pytest.fixture(scope="session")
def w(ring, x, y) -> OpenSubset:
    # the complement of the origin, covered by D(x) and D(y)
    return OpenSubset(ring, (x, y))


@pytest.fixture(scope="session")
def scheme(ring):
    return double_origin_plane(ring)


@pytest.fixture(scope="session")
def o_fp(ring) -> FPGradedModule:
    return free_module(ring, (0,), name="O")


@pytest.fixture(scope="session")
def ideal_fp(ring, x, y) -> FPGradedModule:
    # (x, y) presented on two degree-1 generators with the Koszul relation
    return FPGradedModule(ring, (1, 1), ((y, -x),), name="I")


@pytest.fixture(scope="session")
def sky_fp(ring, x, y) -> FPGradedModule:
    return FPGradedModule(ring, (0,), ((x,), (y,)), name="k0")


@pytest.fixture(scope="session")
def kx_fp(ring, y) -> FPGradedModule:
    # k[x] = R/(y)
    return FPGradedModule(ring, (0,), ((y,),), name="kx")


@pytest.fixture
def complexes_built(monkeypatch):
    """(module, cover, cap) of every CechComplexWindow built while the test
    runs.  The objects are held, so their ids stay unique."""
    built = []
    init = CechComplexWindow.__init__

    def counting_init(self, module, cover, window, cap):
        built.append((module, cover, cap))
        init(self, module, cover, window, cap)

    monkeypatch.setattr(CechComplexWindow, "__init__", counting_init)
    return built


@pytest.fixture
def coordinate_calls(monkeypatch):
    """Calls of solve and kernel_coords while the test runs, by name,
    counted in every layer that binds them."""
    calls = Counter()
    for name in ("solve", "kernel_coords"):
        real = getattr(exact_linalg, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for mod in (qcverify, exact_linalg, localization_cech, graded_modules, glued_scheme):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls
