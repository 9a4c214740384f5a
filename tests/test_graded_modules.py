"""Graded rings, finitely presented modules, and degreewise maps."""

import importlib
import os
import re
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcverify import (
    CapExhausted,
    DegreewiseModule,
    DualizedModule,
    FPGradedModule,
    FieldSpec,
    GradedModuleMap,
    HomogPoly,
    Mat,
    NonHomogeneousError,
    OpenSubset,
    PolyRing,
    RelationNotKilled,
    direct_sum,
    free_module,
    kernel_dw,
    localize_piece,
    map_from_gen_images,
    matlis_dual,
    parse_scenario,
    sections_window,
    verify_action_commutation,
    verify_naturality,
)
from qcverify import exact_linalg, graded_modules, localization_cech
from qcverify.exact_linalg import _quotient_with_indices, rank, solve
from qcverify.graded_modules import GradedPiece, tensor_relations


# --- ring and polynomials ------------------------------------------------


def test_ring_dimensions(ring):
    assert [ring.dim(d) for d in range(5)] == [1, 2, 3, 4, 5]
    assert ring.dim(-1) == 0
    assert len(ring.monomials(3)) == 4


def test_parse_basic(ring, x, y):
    p = HomogPoly.parse(ring, "x^2*y - 3*y^3")
    assert p.degree == 3
    assert p == x * x * y - (y * y * y).scale(ring.field.of_int(3))


def test_parse_rejects_mixed_degrees(ring):
    with pytest.raises(NonHomogeneousError):
        HomogPoly.parse(ring, "x + y^2")


def test_parse_round_trips(ring):
    for text in ("x", "x*y", "2*x^2 - y^2", "x^3 + x*y^2 - y^3"):
        p = HomogPoly.parse(ring, text)
        assert HomogPoly.parse(ring, str(p)) == p


def test_parse_reads_runs_of_signs(ring, x, y):
    # every sign before a term counts, the first term's as much as any other
    assert HomogPoly.parse(ring, "--x") == x
    assert HomogPoly.parse(ring, "+x - -y") == x + y


@pytest.mark.parametrize("text,message", [
    ("x y", "expected '+' or '-' between terms"),
    ("x +", "expected a coefficient or a variable"),
    ("", "empty polynomial"),
])
def test_parse_rejects_malformed_signs(ring, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        HomogPoly.parse(ring, text)


def test_poly_arithmetic(ring, x, y):
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + (x * y).scale(ring.field.of_int(2)) + y * y
    assert (x - x).is_zero()


# --- module dimensions ----------------------------------------------------


def test_free_module_dimensions(ring):
    f = free_module(ring, (0,))
    assert [f.piece(d).dim for d in range(-2, 4)] == [0, 0, 1, 2, 3, 4]
    shifted = free_module(ring, (2, 2, 2))
    assert shifted.piece(2).dim == 3
    assert shifted.piece(4).dim == 9


def test_skyscraper_dimensions(sky_fp):
    assert [sky_fp.piece(d).dim for d in range(-2, 3)] == [0, 0, 1, 0, 0]


def test_ideal_dimensions(ideal_fp):
    # two generators in degree 1, one linear relation among them
    assert [ideal_fp.piece(d).dim for d in range(0, 5)] == [0, 2, 3, 4, 5]


def test_quotient_line_dimensions(kx_fp):
    assert [kx_fp.piece(d).dim for d in range(-2, 4)] == [0, 0, 1, 1, 1, 1]


class _QuotientModule(DegreewiseModule):
    """Ambient module modulo the column span of per-degree denominators,
    realized by the standard vectors that complete the span."""

    def __init__(self, ring, ambient: DegreewiseModule, sub_fn, name):
        self.ambient = ambient
        self._sub_fn = sub_fn
        self._quots: dict[int, tuple] = {}
        super().__init__(ring, name=name, min_degree=ambient.min_degree,
                         max_degree=ambient.max_degree)

    def _realize(self, d: int):
        got = self._quots.get(d)
        if got is None:
            amb = self.ambient.piece(d)
            coset, proj, idx = _quotient_with_indices(self._sub_fn(d), amb.dim)
            piece = GradedPiece(self.ring.field, tuple(amb.labels[j] for j in idx))
            got = (coset, proj, piece)
            self._quots[d] = got
        return got

    def include(self, d: int) -> Mat:
        return self._realize(d)[0]

    def project(self, d: int) -> Mat:
        return self._realize(d)[1]

    def _piece(self, d: int) -> GradedPiece:
        return self._realize(d)[2]

    def _act(self, var: int, d: int) -> Mat:
        return self._realize(d + 1)[1] @ (self.ambient.act(var, d) @ self.include(d))


def cokernel_dw(f: GradedModuleMap) -> DegreewiseModule:
    """The degreewise cokernel of f, built independently of FPGradedModule."""
    return _QuotientModule(
        f.target.ring, f.target, lambda d: f.matrix(d), name=f"coker({f.name})"
    )


def presentation_cokernel(fp: FPGradedModule):
    """coker(F_1 -> F_0) of fp's presentation, F_1 free on the relations."""
    gens = free_module(fp.ring, fp.gen_degrees, name="F0")
    rels = free_module(fp.ring, [c for _, c in fp.relations], name="F1")
    images = []
    for entries, c in fp.relations:
        col = Mat.zeros(fp.ring.field, gens.piece(c).dim, 1)
        for i, p in enumerate(entries):
            if p is not None:
                col = col + gens.poly_act(p, fp.gen_degrees[i]) @ gens.gen_element(i)
        images.append(col)
    return cokernel_dw(map_from_gen_images(rels, gens, images))


sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
workloads = importlib.import_module("workloads")


def assert_fp_is_cokernel(fp: FPGradedModule, cok, degrees):
    # pieces, actions of monomials of degree 1 to 3 and generator products,
    # each degree realized in the order given
    ring, field = fp.ring, fp.ring.field
    monos = [m for k in (1, 2, 3) for m in ring.monomials(k)]
    for d in degrees:
        assert fp.piece(d).labels == cok.piece(d).labels, (fp, d)
        for mono in monos:
            assert fp.mono_act(mono, d) == cok.mono_act(mono, d), (fp, d, mono)
        free = cok.ambient.piece(d).labels
        for i, e in enumerate(fp.gen_degrees):
            units = [{free.index((i, m)): 1} for m in ring.monomials(d - e)]
            want = cok.project(d) @ Mat(field, len(units), len(free), units).transpose()
            assert fp.gen_mult(i, d - e) == want, (fp, d, i)


def test_fp_module_is_the_cokernel_of_its_presentation():
    # hand presentations over Q and F_7; the eight presentations of the
    # random-fp benchmark at seed 1 over Q and F_65537; and R/(x^2, y^3),
    # whose degree 3 reduces the relation y^3 by the rules lifted from x^2
    # (the vecs branch of _quotient_by_rules)
    cases = []
    for field in (FieldSpec.rationals(), FieldSpec.prime(7)):
        ring = PolyRing(field, ("x", "y"))
        x, y = ring.var_poly(0), ring.var_poly(1)
        q = HomogPoly.parse(ring, "2*x^2 - 3*x*y + 5*y^2")
        lin = HomogPoly.parse(ring, "7*x - 2*y")
        cases += [(ring, (1, 1), ((y, -x),)), (ring, (0,), ((x,), (y,))), (ring, (0, 1), ((q, lin),))]
    text = workloads.random_fp_text(1, (-1, 8))
    for field in (FieldSpec.rationals(), FieldSpec.prime(65537)):
        modules = parse_scenario(text, field=field).modules
        ring = modules["O"].ring
        for k in range(len(workloads.RANDOM_SHAPES)):
            m = modules[f"M{k}"]
            cases.append((ring, m.gen_degrees, [entries for entries, _ in m.relations]))
        cases.append((ring, (0,), [(HomogPoly.parse(ring, "x^2"),), (HomogPoly.parse(ring, "y^3"),)]))
    for ring, gens, rels in cases:
        cok = presentation_cokernel(FPGradedModule(ring, gens, rels))
        for degrees in (range(-1, 9), range(8, -2, -1)):
            assert_fp_is_cokernel(FPGradedModule(ring, gens, rels), cok, degrees)


def test_the_oracles_presentation_reduces_vecs_after_rules():
    # R/(x^2, y^3) in degree 3: the rules for x^3 and x^2 y, lifted from
    # degree 2, leave y^3 nonzero, which drops one more candidate
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    real, seen = exact_linalg._quotient_by_rules, []

    def spy(rules, vecs, n, field):
        cand, proj_cols = real(rules, vecs, n, field)
        seen.append((len(rules), n - len(rules) - len(cand)))
        return cand, proj_cols

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded_modules, "_quotient_by_rules", spy)
        m = FPGradedModule(ring, (0,), ((HomogPoly.parse(ring, "x^2"),),
                                        (HomogPoly.parse(ring, "y^3"),)))
        assert [m.piece(d).dim for d in range(5)] == [1, 2, 2, 1, 0]
    assert seen[3] == (2, 1)


def test_gen_element_shape(ideal_fp):
    g = ideal_fp.gen_element(0)
    assert g.nrows == ideal_fp.piece(1).dim and g.ncols == 1
    assert not g.is_zero()


# --- actions and naturality ------------------------------------------------


def test_actions_commute_on_the_usual_suspects(ideal_fp, sky_fp, kx_fp):
    for fp in (ideal_fp, sky_fp, kx_fp):
        verify_action_commutation(fp, -3, 4)


def mult_y_map(ring, y):
    src = free_module(ring, (1,), name="R(-1)")
    tgt = free_module(ring, (0,), name="R")
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    return src, tgt, map_from_gen_images(src, tgt, [img])


def test_map_is_natural(ring, y):
    _, _, f = mult_y_map(ring, y)
    verify_naturality(f, -2, 4)


def test_relation_not_killed(ring, sky_fp, x):
    # sending k's generator to 1 in R does not kill the relation x*g
    tgt = free_module(ring, (0,))
    with pytest.raises(RelationNotKilled):
        map_from_gen_images(sky_fp, tgt, [tgt.gen_element(0)])


def test_image_count_validated(ring, ideal_fp):
    tgt = free_module(ring, (0,))
    with pytest.raises(ValueError):
        map_from_gen_images(ideal_fp, tgt, [tgt.gen_element(0)])


# --- kernels, images, cokernels -------------------------------------------


def test_multiplication_by_y_kernel_image_cokernel(ring, y):
    src, tgt, f = mult_y_map(ring, y)
    ker = kernel_dw(f)
    cok = cokernel_dw(f)
    for d in range(-3, 5):
        assert ker.piece(d).dim == 0
        assert rank(f.matrix(d)) == max(0, d)
        assert cok.piece(d).dim == (1 if d >= 0 else 0)
    # the projection kills the image
    for d in range(0, 4):
        assert (cok.project(d) @ f.matrix(d)).is_zero()


def test_quotient_presentation_matches_cokernel(ring, y, kx_fp):
    # R/(y) presented directly agrees degreewise with coker(y: R(-1) -> R)
    _, _, f = mult_y_map(ring, y)
    cok = cokernel_dw(f)
    for d in range(-2, 5):
        assert cok.piece(d).dim == kx_fp.piece(d).dim


def test_short_sequence_is_exact_degreewise(ring, y, kx_fp):
    src, tgt, f = mult_y_map(ring, y)
    img = kx_fp.gen_element(0)
    g = map_from_gen_images(tgt, kx_fp, [img])
    for d in range(-3, 5):
        gf = g.matrix(d) @ f.matrix(d)
        assert gf.is_zero()
        a, b = f.matrix(d), g.matrix(d)
        # ker g = im f: dimensions match and the concatenation gains no rank
        assert b.ncols - rank(b) == rank(a)
        assert rank(a.hstack(Mat.zeros(ring.field, a.nrows, 0))) == rank(a)
        assert g.target.piece(d).dim == rank(b)  # g surjective degreewise


def test_kernel_actions_are_read_off_the_kernel_basis(coordinate_calls, ring, x, y):
    # (a, b) -> x a + y b on R(-1) + R(-1): the kernel is R(-2) on the
    # syzygy (y, -x)
    src = free_module(ring, (1, 1))
    tgt = free_module(ring, (0,))
    f = map_from_gen_images(src, tgt, [tgt.poly_act(p, 0) @ tgt.gen_element(0) for p in (x, y)])
    k = kernel_dw(f)
    for d in range(-1, 4):
        assert k.piece(d).dim == ring.dim(d - 2)
        for var in (0, 1):
            want = solve(k.basis(d + 1), src.act(var, d) @ k.basis(d))
            assert k.act(var, d) == want
    # one read per variable in degrees 2 and 3; below them the kernel is zero
    assert coordinate_calls["solve"] == 0
    assert coordinate_calls["kernel_coords"] == 4


def test_the_kernel_of_a_non_natural_map_rejects_its_action(ring):
    o = free_module(ring, (0,))
    x1 = o.act(0, 0)

    def matrix(d):
        n = o.piece(d).dim
        return x1 @ x1.transpose() if d == 1 else Mat.zeros(ring.field, n, n)

    # zero except in degree 1, where it keeps x and kills y: 1 is in the
    # kernel, and so is y, but x is not
    k = kernel_dw(GradedModuleMap(o, o, matrix, name="f"))
    assert (k.piece(0).dim, k.piece(1).dim) == (1, 1)
    with pytest.raises(ArithmeticError, match=re.escape(
            "ker(f): action by x_0 leaves the degree-0 basis span")):
        k.act(0, 0)


# --- tensor, direct sums ----------------------------------------------


def test_tensor_with_skyscraper_counts_generators(ideal_fp, sky_fp):
    rels = {d: tensor_relations(ideal_fp, sky_fp, d) for d in range(-1, 4)}
    dims = {d: rel.nrows - rank(rel) for d, rel in rels.items()}
    assert dims == {-1: 0, 0: 0, 1: 2, 2: 0, 3: 0}


def test_direct_sum_dimensions(ideal_fp, kx_fp):
    s = direct_sum([ideal_fp, kx_fp])
    for d in range(-2, 4):
        expected = ideal_fp.piece(d).dim + kx_fp.piece(d).dim
        assert s.piece(d).dim == expected
    verify_action_commutation(s, -2, 3)


def test_direct_sum_rejects_empty():
    with pytest.raises(ValueError):
        direct_sum([])


# --- torsion bookkeeping ----------------------------------------------------


class _NoSaturation(FPGradedModule):
    """A presentation whose saturation walk gives up, as past the label
    budget: it proves no power."""

    def saturation(self, v):
        return None


def _zero_kernel(m):
    return kernel_dw(GradedModuleMap(m, m, lambda d: Mat.zeros(
        m.ring.field, m.piece(d).dim, m.piece(d).dim)))


def test_torsion_of_every_module_kind(ring, sky_fp, kx_fp, ideal_fp, x, y):
    one = HomogPoly.constant(ring, ring.field.one)
    free = free_module(ring, (0,))
    binomial = ((x * x + x * y,),)  # x kills x + y; not fine-graded
    plateau = _NoSaturation(ring, (0, 0), ((x ** 20, None), (y, None), (one, one)))
    w = OpenSubset(ring, (x, y))
    table = [
        (DegreewiseModule(ring), x, (1, "heuristic")),
        # a free module: no torsion at any f
        (free, x, (0, "certified")),
        (free, x + y, (0, "certified")),
        # a presentation at a non-monomial f
        (kx_fp, x + y, (1, "heuristic")),
        # monomial quotients: the fine grading's power
        (sky_fp, x, (1, "certified")),
        (kx_fp, y, (1, "certified")),
        (kx_fp, x, (0, "certified")),
        # the saturation walk proves the powers, fine-graded or not
        (ideal_fp, x, (0, "proven")),
        (ideal_fp, x * y, (0, "proven")),
        (FPGradedModule(ring, (0,), binomial), x, (1, "proven")),
        # without it: max(1, the fine grading's power), or 1
        (_NoSaturation(ring, (1, 1), ((y, -x),)), x, (1, "heuristic")),
        (plateau, x, (20, "heuristic")),
        (plateau, x * y, (20, "heuristic")),
        (_NoSaturation(ring, (0,), binomial), x, (1, "heuristic")),
        # a direct sum: the largest power, known as the weakest summand's
        (direct_sum((free, sky_fp)), x, (1, "certified")),
        (direct_sum((sky_fp, ideal_fp)), x, (1, "proven")),
        (direct_sum((ideal_fp, plateau)), x, (20, "heuristic")),
        # a kernel: its source's power, certified read as proven
        (_zero_kernel(sky_fp), x, (1, "proven")),
        (_zero_kernel(ideal_fp), x, (0, "proven")),
        (_zero_kernel(plateau), x, (20, "heuristic")),
        # sections: the base's power where the base is exact on the cover,
        # certified only with a proven floor
        (sections_window(kx_fp, w, (0, 0)), y, (1, "certified")),
        (sections_window(kx_fp, OpenSubset(ring, (x,)), (0, 0)), y, (1, "proven")),
        (sections_window(ideal_fp, OpenSubset(ring, (x, y, x + y)), (0, 0)), x,
         (1, "heuristic")),
        # duals: a constant is a unit, and a double dual is its origin
        (matlis_dual(free), one, (0, "certified")),
        (matlis_dual(free), x, (1, "heuristic")),
        (DualizedModule(DualizedModule(sky_fp)), x, (1, "certified")),
        (DualizedModule(DualizedModule(ideal_fp)), x, (0, "proven")),
    ]
    got = [(m.name, f, m.torsion(f)) for m, f, _ in table]
    assert got == [(m.name, f, want) for m, f, want in table]


# --- multiplicativity as a property test -----------------------------------

coeff = st.integers(min_value=-3, max_value=3)


def homog_polys(ring, degree):
    monos = ring.monomials(degree)

    def build(cs):
        p = HomogPoly.zero(ring, degree)
        for m, c in zip(monos, cs):
            if c:
                p = p + HomogPoly.monomial(ring, m, ring.field.of_int(c))
        return p

    return st.lists(coeff, min_size=len(monos), max_size=len(monos)).map(build)


@given(data=st.data(), d=st.integers(min_value=-1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_poly_action_is_multiplicative(ring, kx_fp, data, d):
    p = data.draw(homog_polys(ring, 1))
    q = data.draw(homog_polys(ring, 2))
    m = kx_fp
    assert m.poly_act(p * q, d) == m.poly_act(p, d + 2) @ m.poly_act(q, d)


@given(data=st.data(), d=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_poly_action_is_additive(ring, ideal_fp, data, d):
    p = data.draw(homog_polys(ring, 1))
    q = data.draw(homog_polys(ring, 1))
    m = ideal_fp
    assert m.poly_act(p + q, d) == m.poly_act(p, d) + m.poly_act(q, d)


# --- one monomial action ------------------------------------------------------

FIELDS = (FieldSpec.rationals(), FieldSpec.prime(7), FieldSpec.prime(65537))
RINGS = {f: PolyRing(f, ("x", "y")) for f in FIELDS}


def scalars(field):
    """Nonzero scalars with small numerators and denominators, valid in
    every field of FIELDS."""
    return st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)).map(
        lambda nd: field.parse_scalar(f"{nd[0]}/{nd[1]}")
    )


@st.composite
def fp_modules(draw):
    """A random presentation: one or two generators in degrees 0..2 and up
    to two homogeneous relation columns with small random coefficients."""
    ring = RINGS[draw(st.sampled_from(FIELDS))]
    gens = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(max(gens) + 1, max(gens) + 2))
        col = []
        for e in gens:
            col.append(draw(homog_polys(ring, c - e)) if draw(st.booleans()) else None)
        rels.append(col)
    return FPGradedModule(ring, gens, rels)


# of degree 2 or more: the chain of one variable is that variable's action
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda a: sum(a) > 1)


@given(fp_modules(), monomials, st.integers(-1, 3))
@settings(max_examples=60, deadline=None)
def test_mono_act_is_the_chain_of_variable_actions(m, a, d):
    assert m.mono_act(a, d) == DegreewiseModule._mono_act(m, a, d)
    dual = matlis_dual(m)
    assert dual.mono_act(a, -d - 4) == DegreewiseModule._mono_act(dual, a, -d - 4)
    for v in range(2):
        assert dual.act(v, -d - 4) == m.act(v, d + 3).transpose()


@given(fp_modules(), st.data(), st.integers(0, 3), st.integers(-1, 2))
@settings(max_examples=40, deadline=None)
def test_power_act_is_the_iterated_poly_act(m, data, t, d):
    ring = m.ring
    f = data.draw(homog_polys(ring, data.draw(st.integers(1, 2))).filter(
        lambda p: len(p.terms) > 1))
    want = Mat.identity(ring.field, m.piece(d).dim)
    for k in range(t):
        want = m.poly_act(f, d + k * f.degree) @ want
    assert m.power_act(f, t, d) == want


@given(fp_modules(), st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3),
       st.integers(-1, 2))
@settings(max_examples=40, deadline=None)
def test_a_monomial_acts_by_the_memoized_mono_act(m, a, t, d):
    # mono_act is the one action memo: poly_act and power_act of x^a return
    # its very matrix, so the rref cached on that matrix is shared
    f = HomogPoly.monomial(m.ring, a)
    assert m.poly_act(f, d) is m.mono_act(a, d)
    assert m.power_act(f, t, d) is m.mono_act(tuple(t * e for e in a), d)


@given(fp_modules(), fp_modules(), st.data())
@settings(max_examples=40, deadline=None)
def test_direct_sums_combine_torsion_powers_and_add_localizations(m, n, data):
    # (max t, the weakest how) of the summands; the kernel chain of the sum
    # stops exactly where both summands' chains are stable together
    assume(m.ring == n.ring)
    ring = m.ring
    f = data.draw(homog_polys(ring, data.draw(st.integers(1, 2))).filter(
        lambda p: not p.is_zero()))
    total = direct_sum((m, n))
    (tm, hm), (tn, hn) = m.torsion(f), n.torsion(f)
    weakest = min(hm, hn, key=("heuristic", "proven", "certified").index)
    assert total.torsion(f) == (max(tm, tn), weakest)
    for d, cap in ((-1, 1), (0, 2), (1, 1), (2, 3)):
        got = localize_piece(total, f, d, cap).dim
        assert got == localize_piece(m, f, d, cap).dim + localize_piece(n, f, d, cap).dim


@given(st.sampled_from(FIELDS), st.data(), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_monomial_power_is_repeated_multiplication(field, data, a, b, n):
    ring = RINGS[field]
    p = HomogPoly.monomial(ring, (a, b), data.draw(scalars(field)))
    want = HomogPoly.constant(ring, 1)
    for _ in range(n):
        want = want * p
    assert p ** n == want
    assert (p ** n).degree == want.degree


# --- realization degree by degree -----------------------------------------------

LIFT_FIELDS = (FieldSpec.rationals(), FieldSpec.prime(7))
LIFT_RINGS = {(f, n): PolyRing(f, ("x", "y", "z")[:n]) for f in LIFT_FIELDS for n in (2, 3)}


def macaulay(m: FPGradedModule, d: int, v=None):
    """The coset labels and projection of degree d from scratch: every
    relation times every monomial of its degree, row-reduced as a whole
    (the reversed rref of _quotient_with_indices), as FPGradedModule did
    before it lifted each degree from the one below.  With v given, the
    labels are sorted by descending x_v exponent first."""
    ring = m.ring
    labels = [(i, u) for i, e in enumerate(m.gen_degrees) for u in ring.monomials(d - e)]
    if v is not None:
        labels.sort(key=lambda lab: -lab[1][v])
    index = {lab: k for k, lab in enumerate(labels)}
    vecs = []
    for entries, c in m.relations:
        for u in ring.monomials(d - c):
            v: dict = {}
            for i, p in enumerate(entries):
                for mono, coeff in (p.terms.items() if p is not None else ()):
                    k = index[i, tuple(a + b for a, b in zip(u, mono))]
                    v[k] = ring.field.norm(v.get(k, 0) + coeff)
            vecs.append(v)
    _, proj, idx = _quotient_with_indices(Mat(ring.field, len(vecs), len(labels), vecs).transpose(),
                                          len(labels))
    return tuple(labels[j] for j in idx), proj


@st.composite
def presentations(draw):
    """One to three generators in degrees 0..2 over Q or F_7, in two or
    three variables, and one to three relation columns, each either a
    binomial (two terms, on one generator or two) or random entries."""
    ring = LIFT_RINGS[draw(st.sampled_from(LIFT_FIELDS)), draw(st.sampled_from((2, 3)))]
    gens = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(min(gens), max(gens) + 2))
        col = [None] * len(gens)
        if draw(st.booleans()):
            for _ in range(2):
                i = draw(st.sampled_from([i for i, e in enumerate(gens) if e <= c]))
                mono = draw(st.sampled_from(ring.monomials(c - gens[i])))
                term = HomogPoly.monomial(ring, mono, draw(scalars(ring.field)))
                col[i] = term if col[i] is None else col[i] + term
        else:
            col = [draw(homog_polys(ring, c - e)) if draw(st.integers(0, 3)) else None
                   for e in gens]
        rels.append(col)
    return FPGradedModule(ring, gens, rels)


@pytest.mark.parametrize("walk", ["any", "one degree"])
@given(presentations(), st.one_of(st.just(range(8, -2, -1)), st.permutations(range(-1, 9))))
@settings(max_examples=60, deadline=None)
def test_the_lift_matches_the_macaulay_construction(walk, m, degrees):
    # degrees in any order, the highest first among them: each is lifted
    # from the degrees below, or built alone where the walk up to it is
    # over the label budget, and gives the coset and projection that
    # row-reducing the whole relation span gives
    with pytest.MonkeyPatch.context() as patch:
        if walk == "one degree":  # a walk of two degrees from the top is over it
            patch.setattr(graded_modules, "_MAX_LABELS", m._labels(8, 8))
        for d in degrees:
            r = m._realize(d)
            assert (r.piece.labels, r.proj_cols.transpose()) == macaulay(m, d), d


@given(presentations(), st.data())
@settings(max_examples=30, deadline=None)
def test_the_lift_in_a_variable_order_matches_the_macaulay_construction(m, data):
    # the chain of FPGradedModule.saturation: labels sorted by descending
    # x_v exponent, each degree lifted from the one below
    v = data.draw(st.integers(0, m.ring.nvars - 1))
    prev = None
    for d in range(min(m.gen_degrees), 7):
        prev = m._lift(d, prev, v)
        assert (prev.piece.labels, prev.proj_cols.transpose()) == macaulay(m, d, v), d


@given(st.sampled_from(LIFT_FIELDS), st.sampled_from((2, 3)), st.data())
@settings(max_examples=25, deadline=None)
def test_cyclic_pieces_count_the_monomials_outside_the_leading_terms(field, nvars, data):
    # an independent oracle: dim (R/I)_d is the number of degree-d monomials
    # outside in(I), for a Groebner basis of I from SymPy
    sympy = pytest.importorskip("sympy")
    ring = LIFT_RINGS[field, nvars]
    polys = data.draw(st.lists(st.integers(1, 3).flatmap(lambda c: homog_polys(ring, c)).filter(
        lambda p: not p.is_zero()), min_size=1, max_size=3))
    m = FPGradedModule(ring, (0,), [(p,) for p in polys])
    xs = sympy.symbols(ring.variables)
    exprs = [sum(int(c) * prod(v ** e for v, e in zip(xs, mono)) for mono, c in p.terms.items())
             for p in polys]
    domain = {"modulus": field.p} if field.p else {"domain": sympy.QQ}
    basis = sympy.groebner(exprs, *xs, order="grevlex", **domain)
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    for d in range(8):
        outside = [u for u in ring.monomials(d)
                   if not any(all(a >= b for a, b in zip(u, lead)) for lead in leads)]
        assert m.piece(d).dim == len(outside), d


def test_degrees_above_a_quadric_are_lifted_without_row_reduction(monkeypatch):
    # R/(p), deg p = 2: degree 2 row-reduces the relation; every lift above
    # it reaches a new label or meets a rule that needs no residue
    ring = RINGS[FieldSpec.rationals()]
    m = FPGradedModule(ring, (0,), ((HomogPoly.parse(ring, "x^2 - 3*x*y + 5*y^2"),),))
    assert m.piece(2).dim == 2
    calls = []

    def counted(*args):
        calls.append(args)
        return _quotient_with_indices(*args)

    monkeypatch.setattr(exact_linalg, "_quotient_with_indices", counted)
    assert [m.piece(d).dim for d in range(3, 13)] == [2] * 10
    assert calls == []


# --- saturation exponents ---------------------------------------------------------


def _sympy_saturation_exponent(ring, polys, v):
    """The least k with I : x_v^k = I : x_v^(k+1), I the ideal of polys, by
    SymPy's ideal quotient over QQ, iterated until two ideals agree."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(ring.variables)
    qq = sympy.QQ.old_poly_ring(*xs)
    ideal = qq.ideal(*[sum(sympy.Rational(c.numerator, c.denominator)
                           * prod(x ** e for x, e in zip(xs, mono))
                           for mono, c in p.terms.items()) for p in polys])
    k, var = 0, qq.ideal(xs[v])
    while (nxt := ideal.quotient(var)) != ideal:
        ideal, k = nxt, k + 1
    return k


@st.composite
def binomial_ideals(draw):
    """One to three binomials x^a - c x^b of degree 1 to 3 in two or three
    variables over Q (c = 0 gives a monomial)."""
    ring = LIFT_RINGS[FieldSpec.rationals(), draw(st.sampled_from((2, 3)))]
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.sampled_from(ring.monomials(draw(st.integers(1, 3)))),
                             min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from((0, 1, -1, 2, Fraction(3, 2))))
        polys.append(HomogPoly.monomial(ring, a) - HomogPoly.monomial(ring, b, c))
    return ring, polys


@given(binomial_ideals())
@settings(max_examples=40, deadline=None)
def test_saturation_exponents_match_the_iterated_sympy_quotient(ideal):
    ring, polys = ideal
    m = FPGradedModule(ring, (0,), [(p,) for p in polys])
    for v in range(ring.nvars):
        assert m.saturation(v) == _sympy_saturation_exponent(ring, polys, v), v


def test_the_binomial_plateau_ideal_saturates_at_x_cubed():
    # (x^2 (y - 3/2 x), x^2 (y - 3 x)) = (x^3, x^2 y): x^3 kills 1, x^2 does not
    ring = LIFT_RINGS[FieldSpec.rationals(), 2]
    x, y = ring.var_poly(0), ring.var_poly(1)
    polys = [x * x * (y - x.scale(Fraction(3, 2))), x * x * (y - x.scale(3))]
    m = FPGradedModule(ring, (0,), [(p,) for p in polys])
    assert [m.saturation(v) for v in (0, 1)] == [3, 1]
    assert [_sympy_saturation_exponent(ring, polys, v) for v in (0, 1)] == [3, 1]


def test_a_degree_past_the_label_budget_is_cap_exhausted(ring, x):
    # raised before anything is built, not a loop over every degree below
    assert localization_cech.CapExhausted is CapExhausted
    for m in (free_module(ring, (0,)), FPGradedModule(ring, (0,), ((x ** 3,),))):
        with pytest.raises(CapExhausted, match="degree 100000000000000000000 has over 100000 "):
            m.piece(10 ** 20)
        assert m._realizations == {}


def test_a_far_degree_within_the_budget_is_built_alone(ring, x):
    # the walk up to degree 1200 would build 721k free labels, degree 1200
    # alone has 1201: it is built from every multiple of x^3, 1201 is lifted
    # from it, and 3 is lifted from the degrees below
    m = FPGradedModule(ring, (0,), ((x ** 3,),))
    assert [m.piece(d).dim for d in (1200, 1201, 3)] == [3, 3, 3]
    assert sorted(m._realizations) == [0, 1, 2, 3, 1200, 1201]
    assert free_module(ring, (0,)).piece(1200).dim == 1201


def test_a_twist_reads_its_sources_pieces_and_actions(ring, x, y):
    # M(-s) in degree d is M in degree d - s, label for label: the twist
    # keys its source's memos by d - s, so it reads the very same objects,
    # and a twist of a twist twists the source
    m = FPGradedModule(ring, (0, 1), ((x * y, -x),), name="M")
    t = m.twist(2, "T")
    assert (t.source, t.shift, t.gen_degrees, t.name) == (m, 2, (2, 3), "T")
    tt = t.twist(-1)
    assert (tt.source, tt.shift, tt.gen_degrees, tt.name) == (m, 1, (1, 2), "M(-1)")
    assert t._realizations is m._realizations and t._mono_acts is m._mono_acts
    for d in range(-1, 5):
        assert t.piece(d + 2) is m.piece(d)
        assert t.act(0, d + 2) is m.act(0, d)
        assert tt.poly_act(x + y, d + 1) == m.poly_act(x + y, d)
        assert t.gen_mult(1, d) == m.gen_mult(1, d)
    fine = m.fine_grading()
    assert t.fine_grading() == graded_modules.FineGrading(fine.top + 2, fine.torsion)
    assert [t.saturation(v) for v in (0, 1)] == [m.saturation(v) for v in (0, 1)] == [1, 0]
    assert [t.torsion(f) for f in (x, y, x * y)] == [m.torsion(f) for f in (x, y, x * y)]


def test_a_twist_past_the_label_budget_names_its_own_degree(ring, x):
    m = FPGradedModule(ring, (0,), ((x ** 3,),), name="M")
    t = m.twist(-5, "T")
    with pytest.raises(CapExhausted, match=r"^T: degree 99999 has over 100000 "):
        t.piece(99_999)
    assert m._realizations == {}
