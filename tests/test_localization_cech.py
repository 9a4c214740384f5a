"""Localization at finite caps, Cech windows, and section modules.

The oracle dimensions here were computed by hand: sections of the structure
sheaf on the punctured plane are the polynomials themselves, H^1 has dimension
|d| - 1 in degrees <= -2, and the line module k[x] picks up Laurent sections
in every degree.
"""

import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcverify import (
    CapExhausted,
    CechComplexWindow,
    DegreewiseModule,
    DoubleGluedScheme,
    DualizedModule,
    FieldSpec,
    FPGradedModule,
    GradedModuleMap,
    HomogPoly,
    Mat,
    PolyRing,
    OpenSubset,
    QcohSheafOnX,
    SectionsModule,
    direct_image_from_U,
    direct_sum,
    flat_quotient_obstruction,
    free_module,
    kernel_dw,
    localize_piece,
    matlis_dual,
    restriction_to_sections,
    sections_induced_map,
    sections_window,
    verify_action_commutation,
    verify_naturality,
    map_from_gen_images,
)
from qcverify import graded_modules, localization_cech
from qcverify.localization_cech import _num_degrees
from qcverify.exact_linalg import kernel_basis, rank, solve
from qcverify.verify_cli import BUILTIN_SCENARIOS, parse_scenario, run_scenario
from test_graded_modules import FIELDS, homog_polys, scalars

WINDOW = (-4, 4)


# --- localize_piece --------------------------------------------------------


def test_localized_structure_piece_grows_with_cap(ring, x):
    m = free_module(ring, (0,))
    # (R_x)_0 = k[y/x]; a cap-t realization sees 1, y/x, ..., (y/x)^t
    for cap in (1, 2, 3):
        assert localize_piece(m, x, 0, cap).dim == cap + 1


def test_localized_quotient_line(kx_fp, x, y):
    m = kx_fp
    for d in (-3, -1, 0, 2):
        lp = localize_piece(m, x, d, max(1, abs(d)) + 1)
        assert lp.dim == 1
        assert lp.status == "certified-in-window"
    # y kills everything in k[x] = R/(y)
    assert localize_piece(m, y, 0, 2).dim == 0


def test_localized_piece_projection_splits_inclusion(kx_fp, x):
    lp = localize_piece(kx_fp, x, 1, 3)
    assert lp.proj @ lp.incl == Mat.identity(kx_fp.ring.field, lp.dim)


def test_heuristic_status_without_certificate(ideal_fp, x, y):
    # the Koszul relation is not monomial, so torsion certifies nothing;
    # the saturation walk proves that x kills no torsion of I
    lp = localize_piece(ideal_fp, x, 1, 2)
    assert lp.status == "proven(0)"
    # I is torsion free, so nothing is quotiented away: the cap-2 realization
    # is the full numerator piece I_3
    assert lp.dim == ideal_fp.piece(3).dim == 4
    # x + y is not a monomial, so its kernel chain is still iterated
    lp = localize_piece(ideal_fp, x + y, 1, 2)
    assert lp.status.startswith("heuristic")
    assert lp.dim == 4


def test_a_torsion_free_presentation_localizes_without_a_power(monkeypatch):
    # R/(p) is neither fine-graded nor torsion for x or y: every localization
    # at a monomial is proven(0), and no power of f is applied
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    m = FPGradedModule(ring, (0,), ((HomogPoly.parse(ring, "x^2 - 3*x*y + 5*y^2"),),))
    assert m.fine_grading() is None
    calls = []
    power_act = DegreewiseModule.power_act
    monkeypatch.setattr(DegreewiseModule, "power_act",
                        lambda self, *args: calls.append(args) or power_act(self, *args))
    for f in (x, y, x * y):
        for d, cap in ((-1, 2), (0, 1), (2, 3)):
            lp = localize_piece(m, f, d, cap)
            (num_degree,) = _num_degrees(OpenSubset(ring, (f,)), 0, d, cap)
            assert (lp.status, lp.dim) == ("proven(0)", m.piece(num_degree).dim)
    assert calls == []


def test_past_the_label_budget_the_kernel_chain_is_iterated():
    # x kills x + y in R/(x^2 + x y).  Within 5 free labels the saturation
    # walk (1 + 2 + 3 labels up to the relation degree) gives up, and the
    # kernel chain finds the stable kernel that the proven power gives
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)

    def localized(budget):
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(graded_modules, "_MAX_LABELS", budget)
            m = FPGradedModule(ring, (0,), ((x * x + x * y,),))
            return m.saturation(0), localize_piece(m, x, 0, 1)

    (t_chain, chain), (t, proven) = localized(5), localized(None)
    assert (t_chain, chain.status, t, proven.status) == (None, "heuristic(1)", 1, "proven(1)")
    assert (chain.incl, chain.proj) == (proven.incl, proven.proj)
    assert chain.dim == 1


def test_a_kernel_localizes_at_the_power_of_its_source():
    # the diagonal of R/(x^2 + x y) in its square is the kernel of the
    # difference map, and it takes the power 1 that its source proves for
    # x.  Past the label budget the source proves nothing, and the kernel
    # chain finds the same stable kernel
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)

    def localized(budget):
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(graded_modules, "_MAX_LABELS", budget)
            m = FPGradedModule(ring, (0,), ((x * x + x * y,),))

            def difference(d):
                one = Mat.identity(ring.field, m.piece(d).dim)
                return one.hstack(-one)
            k = kernel_dw(GradedModuleMap(direct_sum((m, m)), m, difference))
            return k.torsion(x), localize_piece(k, x, 0, 1)

    (t_chain, chain), (t, proven) = localized(5), localized(None)
    assert (t_chain, chain.status, t, proven.status) == (
        (1, "heuristic"), "heuristic(1)", (1, "proven"), "proven(1)")
    assert (chain.incl, chain.proj) == (proven.incl, proven.proj)
    assert chain.dim == 1


def test_sections_of_a_base_past_the_label_budget_keep_the_kernel_chain():
    # Gamma(W, R/(x^2 + x y)) on the cover x, y holds x + y, which x kills.
    # A base whose saturation walk gave up at the label budget proves no
    # power of x, so its sections decline theirs and iterate the kernel
    # chain; it finds the stable kernel that the base's power 1 gives
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    cover = OpenSubset(ring, (x, y))

    def localized(budget):
        m = FPGradedModule(ring, (0,), ((x * x + x * y,),))
        if budget is not None:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graded_modules, "_MAX_LABELS", budget)
                assert m.saturation(0) is None
        s = sections_window(m, cover, (-1, 1))
        return s.torsion(x), localize_piece(s, x, 0, 1)

    (t_chain, chain), (t, proven) = localized(5), localized(None)
    assert (t_chain, chain.status, t, proven.status) == (
        (1, "heuristic"), "heuristic(1)", (1, "proven"), "proven(1)")
    assert (chain.incl, chain.proj) == (proven.incl, proven.proj)
    assert 0 < chain.dim < chain.incl.nrows


def test_sections_on_a_cover_with_a_linear_form_keep_the_kernel_chain(ring, ideal_fp, x, y):
    # the base's localizations at x + y and its products are heuristic, so
    # the sections decline the base's power even at the monomial x
    s = sections_window(ideal_fp, OpenSubset(ring, (x, y, x + y)), (0, 0))
    assert (ideal_fp.torsion(x), s.torsion(x)) == ((0, "proven"), (1, "heuristic"))
    assert localize_piece(s, x, 0, 1).status.startswith("heuristic(")


def test_the_sections_gate_reads_every_cover_product(ring, x, y):
    # a base that proves its powers for x and y but not for xy localizes
    # at xy by the kernel chain, so its sections prove nothing
    class NoProducts(FPGradedModule):
        def torsion(self, f):
            return super().torsion(f) if f.degree == 1 else (1, "heuristic")

    m = NoProducts(ring, (0,), ((x * x + x * y,),))
    s = sections_window(m, OpenSubset(ring, (x, y)), (-1, 1))
    assert (m.torsion(x), m.torsion(y), m.torsion(x * y)) == (
        (1, "proven"), (0, "proven"), (1, "heuristic"))
    assert s.torsion(y) == (1, "heuristic")


def test_a_direct_sum_takes_the_largest_power_of_its_summands():
    # R(-2)/(xy, x^2 + y^2) has finite length, and y^3 kills it while in
    # degree 2 ker y = ker y^2 = 0, where a kernel chain stops.  R + it
    # localizes at y as R alone does, at the power 3 that the summand proves
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    n = FPGradedModule(ring, (2,), ((x * y,), (x * x + y * y,)))
    o = free_module(ring, (0,))
    total = direct_sum((o, n))
    assert total.torsion(y) == (3, "proven")
    lp = localize_piece(total, y, 0, 2)
    assert (lp.status, lp.dim) == ("proven(3)", localize_piece(o, y, 0, 2).dim)
    assert localize_piece(n, y, 0, 2).dim == 0
    # a certified summand counts with its power: the double dual of R
    # delegates its certificate to R
    dd = DualizedModule(DualizedModule(o))
    assert dd.torsion(y) == (0, "certified")
    assert localize_piece(direct_sum((dd, n)), y, 0, 2).status == "proven(3)"


def test_a_direct_sum_starts_the_chain_at_the_power_its_summands_know():
    # a free summand that knows no power starts the kernel chain at 1 on
    # its own; the sum starts it at the power 3 that R(-2)/(xy, x^2 + y^2)
    # proves, past the plateau ker y = ker y^2 = 0 of that summand in
    # degree 2, and localizes at y as R alone does
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)

    class Unknown(FPGradedModule):
        torsion = DegreewiseModule.torsion

    n = FPGradedModule(ring, (2,), ((x * y,), (x * x + y * y,)))
    total = direct_sum((Unknown(ring, (0,), ()), n))
    assert total.torsion(y) == (3, "heuristic")
    for d, cap in ((0, 2), (1, 1), (-1, 3)):
        lp = localize_piece(total, y, d, cap)
        assert (lp.status, lp.dim) == ("heuristic(3)", 3), (d, cap)
        assert localize_piece(free_module(ring, (0,)), y, d, cap).dim == 3


def test_a_bounded_above_module_localizes_to_zero():
    # the kernel of the zero map on the dual of O carries no torsion
    # certificate of its own; it is bounded above, so every power of x
    # eventually kills each element, and that alone certifies zero pieces
    ring = PolyRing(FieldSpec.prime(7), ("x", "y"))
    dual = matlis_dual(free_module(ring, (0,)))
    zero = GradedModuleMap(dual, dual, lambda d: Mat.zeros(
        ring.field, dual.piece(d).dim, dual.piece(d).dim))
    k = kernel_dw(zero)
    for d in (-5, -3):
        lp = localize_piece(k, ring.var_poly(0), d, 2)
        (num_degree,) = _num_degrees(OpenSubset(ring, (ring.var_poly(0),)), 0, d, 2)
        assert k.piece(num_degree).dim > 0
        assert (lp.dim, lp.status) == (0, "certified-in-window"), d


def test_localize_at_zero_rejected(ring, kx_fp):
    from qcverify import HomogPoly

    with pytest.raises(ValueError):
        localize_piece(kx_fp, HomogPoly.zero(ring, 1), 0, 2)


# --- Cech complexes --------------------------------------------------------


def test_cech_h0_of_structure_sheaf(ring, w):
    m = free_module(ring, (0,))
    c = CechComplexWindow(m, w, window=WINDOW, cap=10)
    for d in range(-4, 5):
        assert c.degree(d).h0_dim == (d + 1 if d >= 0 else 0)


def test_cech_differentials_compose_to_zero_on_three_cover(ring, x, y):
    cover = OpenSubset(ring, (x, y, x + y))
    m = free_module(ring, (0,))
    c = CechComplexWindow(m, cover, window=(-3, 3), cap=8)
    for d in range(-3, 4):
        diffs = c.degree(d).diffs
        assert len(diffs) == 2
        assert (diffs[1] @ diffs[0]).is_zero()


def test_cover_refinement_does_not_change_h0(ring, w, x, y):
    m = free_module(ring, (0,))
    fine = OpenSubset(ring, (x, y, x + y))
    coarse = CechComplexWindow(m, w, window=(-2, 3), cap=8)
    refined = CechComplexWindow(m, fine, window=(-2, 3), cap=8)
    for d in range(-2, 4):
        assert coarse.degree(d).h0_dim == refined.degree(d).h0_dim


def _sympy_rank(a: Mat) -> int:
    """The rank of a, by SymPy over the same field, from its dense entries."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if not (a.nrows and a.ncols):
        return 0
    dom = sympy.QQ if a.field.p is None else sympy.GF(a.field.p)
    rows = [[dom.convert(a.entry(i, j)) for j in range(a.ncols)] for i in range(a.nrows)]
    return DomainMatrix(rows, (a.nrows, a.ncols), dom).rank()


@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from([FieldSpec.rationals(), FieldSpec.prime(7)]),
       n=st.integers(1, 3), d=st.integers(-2, 1), cap=st.integers(1, 3), data=st.data())
def test_cech_cohomology_matches_the_ranks_of_the_differentials(field, n, d, cap, data):
    # on covers of one, two and three opens, H^0 = dim C^0 - rank d0 and
    # H^1 = dim C^1 - rank d0 - rank d1, ranks by SymPy from the n - 1
    # differentials built; past the top level diff(k) is the zero map to 0
    ring, cover = _all_variable_cover(field, n)
    m = FPGradedModule(ring, *data.draw(fine_graded(ring)))
    deg = CechComplexWindow(m, cover, (d, d), cap).degree(d)
    assert len(deg.diffs) == n - 1
    ranks = [_sympy_rank(a) for a in deg.diffs] + [0, 0]
    assert deg.h0_dim == deg.level_dim(0) - ranks[0]
    assert deg.h1_dim == deg.level_dim(1) - ranks[0] - ranks[1]
    for k in range(n + 1):
        if k < n - 1:
            assert deg.diff(k) is deg.diffs[k]
        else:
            assert (deg.diff(k).nrows, deg.diff(k).ncols) == (0, deg.level_dim(k))


# --- sections over the punctured plane -------------------------------------


def test_sections_of_structure_sheaf(ring, w):
    s = sections_window(free_module(ring, (0,)), w, window=WINDOW)
    dims = {d: s.piece(d).dim for d in range(-4, 5)}
    assert dims == {-4: 0, -3: 0, -2: 0, -1: 0, 0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    assert s.h0(0)[2].certified
    assert "kernels-certified" in s.flags()
    assert "stabilized" in s.flags()


def test_sections_of_ideal_match_structure_sheaf(ideal_fp, ring, w):
    # the ideal sheaf agrees with O away from the origin
    s = sections_window(ideal_fp, w, window=WINDOW)
    for d in range(-4, 5):
        assert s.piece(d).dim == (d + 1 if d >= 0 else 0)


def test_sections_of_skyscraper_vanish(sky_fp, w):
    s = sections_window(sky_fp, w, window=WINDOW)
    assert all(s.piece(d).dim == 0 for d in range(-4, 5))


def test_sections_of_line_module_are_laurent(kx_fp, w):
    s = sections_window(kx_fp, w, window=WINDOW)
    assert all(s.piece(d).dim == 1 for d in range(-4, 5))


def test_sections_additive_over_direct_sum(ideal_fp, kx_fp, w):
    both = direct_sum([ideal_fp, kx_fp])
    s = sections_window(both, w, window=(-2, 2))
    si = sections_window(ideal_fp, w, window=(-2, 2))
    sk = sections_window(kx_fp, w, window=(-2, 2))
    for d in range(-2, 3):
        assert s.piece(d).dim == si.piece(d).dim + sk.piece(d).dim


def test_sections_actions_commute(ring, w):
    s = sections_window(free_module(ring, (0,)), w, window=(-2, 3))
    verify_action_commutation(s, -2, 2)


def test_sections_over_affine_chart_do_not_stabilize(ring, x):
    # Gamma(D(x), O)_0 = k[y/x] is infinite dimensional: escalation must give up
    dx = OpenSubset(ring, (x,))
    s = sections_window(free_module(ring, (0,)), dx, window=(-2, 2), start=4)
    with pytest.raises(CapExhausted):
        s.piece(0)


def test_cap_policy_escalation_schedule(ring, w):
    o = free_module(ring, (0,))
    assert sections_window(o, w, (-2, 2), start=5).caps == [5, 7, 9, 11, 13, 15]
    assert sections_window(o, w, (-6, 6)).caps[0] == 14


@pytest.mark.parametrize("kw", [
    dict(start=0),
], ids=["start-0"])
def test_cap_policy_rejects_schedules_that_cannot_stabilize(ring, w, kw):
    with pytest.raises(ValueError, match="cap start must be at least 1, got 0"):
        sections_window(free_module(ring, (0,)), w, (-2, 2), **kw)


@pytest.mark.parametrize("start", [None, 3], ids=["default-start", "start-3"])
@pytest.mark.parametrize("window", [(1, 0), (2, 0), (3, 0)], ids=str)
def test_a_reversed_window_is_refused(ring, w, window, start):
    # refused before the start cap is read: (1, 0) would give flags() no
    # degree to read, and (2, 0), (3, 0) a default start cap below 1
    lo, hi = window
    with pytest.raises(ValueError, match=rf"^bad window \({lo}, {hi}\): lo > hi$"):
        sections_window(free_module(ring, (0,)), w, window, start)


def test_an_explicit_default_start_gives_the_same_sections(ring, w):
    # the registry keys on the resolved start cap, window width + 2
    o = free_module(ring, (0,))
    assert sections_window(o, w, (-2, 2)) is sections_window(o, w, (-2, 2), 6)
    assert sections_window(o, w, (-2, 2)) is not sections_window(o, w, (-2, 2), 8)


# --- H^1 --------------------------------------------------------------------


def _h1_dims(s):
    lo, hi = s.window
    return {d: s.h1(d)[1] for d in range(lo, hi + 1)}


def test_h1_of_punctured_plane(ring, w):
    s = sections_window(free_module(ring, (0,)), w, window=WINDOW)
    assert _h1_dims(s) == {d: (abs(d) - 1 if d <= -2 else 0) for d in range(-4, 5)}
    assert all(s.h1(d)[2].certified for d in range(-4, 5))


def test_h1_vanishes_for_line_module(kx_fp, w):
    s = sections_window(kx_fp, w, window=(-3, 3))
    assert all(v == 0 for v in _h1_dims(s).values())


def test_h1_vanishes_on_single_chart(ring, x):
    dx = OpenSubset(ring, (x,))
    s = sections_window(free_module(ring, (0,)), dx, window=(-2, 2))
    assert all(v == 0 for v in _h1_dims(s).values())


# --- restriction and multiplication -----------------------------------------


def test_restriction_is_iso_in_nonnegative_degrees(ring, w):
    m = free_module(ring, (0,))
    s = sections_window(m, w, window=WINDOW)
    res = restriction_to_sections(s)
    for d in range(0, 4):
        mat = res.matrix(d)
        assert rank(mat) == d + 1 == mat.nrows == mat.ncols
    verify_naturality(res, 0, 3)


def test_restriction_of_skyscraper_is_zero(sky_fp, w):
    res = restriction_to_sections(sections_window(sky_fp, w, (-2, 2)))
    assert res.matrix(0).nrows == 0


# --- induced maps on sections ------------------------------------------------


def test_induced_map_left_exact_but_not_right(ring, w, y, kx_fp):
    src = free_module(ring, (1,), name="R(-1)")
    tgt = free_module(ring, (0,), name="R")
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    f = map_from_gen_images(src, tgt, [img])
    g = map_from_gen_images(tgt, kx_fp, [kx_fp.gen_element(0)])

    s_a = sections_window(src, w, window=WINDOW)
    s_b = sections_window(tgt, w, window=WINDOW)
    s_c = sections_window(kx_fp, w, window=WINDOW)
    gf = sections_induced_map(f, s_a, s_b)
    gg = sections_induced_map(g, s_b, s_c)
    verify_naturality(gf, -2, 3)
    for d in range(-4, 5):
        a, b = gf.matrix(d), gg.matrix(d)
        assert (b @ a).is_zero()
        assert rank(a) == a.ncols  # injective on sections
        assert b.ncols - rank(b) == rank(a)  # exact in the middle
        # the quotient map fails to surject exactly in negative degrees
        coker = s_c.piece(d).dim - rank(b)
        assert coker == (1 if d < 0 else 0)


def test_induced_map_endpoint_validation(ring, w, x, y, kx_fp):
    src = free_module(ring, (1,))
    tgt = free_module(ring, (0,))
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    f = map_from_gen_images(src, tgt, [img])
    s_wrong = sections_window(kx_fp, w, window=(-2, 2))
    s_a = sections_window(src, w, window=(-2, 2))
    s_b = sections_window(tgt, w, window=(-2, 2))
    endpoints = "sections modules do not match the map's endpoints"
    with pytest.raises(ValueError, match=endpoints):
        sections_induced_map(f, s_wrong, s_b)
    with pytest.raises(ValueError, match=endpoints):
        sections_induced_map(f, s_a, s_wrong)
    s_b_other = sections_window(tgt, OpenSubset(ring, (x, y, x + y)), window=(-2, 2))
    with pytest.raises(ValueError, match="sections live on different covers"):
        sections_induced_map(f, s_a, s_b_other)


def test_only_the_complexes_localize(monkeypatch):
    # every localization behind Gamma(W, O) -> Gamma(W, R/(x + y)) is made
    # once, by a Cech degree, and the maps read those very pieces
    ring = PolyRing(FieldSpec.prime(7), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    cover = OpenSubset(ring, (x, y))
    o = free_module(ring, (0,))
    c = FPGradedModule(ring, (0,), ((x + y,),))
    u = map_from_gen_images(o, c, [c.gen_element(0)])

    degree_code = localization_cech.CechComplexWindow.degree.__code__
    from_degree = []
    localize = localization_cech.localize_piece

    def spy_localize(*args):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
            caller = caller.f_back
        from_degree.append(caller.f_code is degree_code)
        return localize(*args)

    # (pieces, their numerator degrees as passed, or None where none are)
    read = []
    lift, apply = localization_cech._lift, localization_cech._cochain_apply

    def spy_lift(module, cover, level, d, cap, pieces_from, pieces_to, t, vecs):
        read.append((pieces_from, _num_degrees(cover, level, d, cap)))
        read.append((pieces_to, _num_degrees(cover, level, d, cap + t)))
        return lift(module, cover, level, d, cap, pieces_from, pieces_to, t, vecs)

    def spy_apply(pieces_from, pieces_to, num_degrees, numer, vecs, after=None):
        read.extend(((pieces_from, num_degrees), (pieces_to, None)))
        return apply(pieces_from, pieces_to, num_degrees, numer, vecs, after)

    monkeypatch.setattr(localization_cech, "localize_piece", spy_localize)
    monkeypatch.setattr(localization_cech, "_lift", spy_lift)
    monkeypatch.setattr(localization_cech, "_cochain_apply", spy_apply)
    window = (-2, 2)
    s_o, s_c = sections_window(o, cover, window), sections_window(c, cover, window)
    induced = sections_induced_map(u, s_o, s_c)
    for d in range(-2, 3):
        induced.matrix(d)
        s_o.restriction_matrix(d)
        s_c.restriction_matrix(d)

    held = [lp for s in (s_o, s_c) for cx in s.complexes.values()
            for deg in cx._degrees.values() for level in deg.levels for lp in level]
    assert all(from_degree) and len(from_degree) == len(held)
    assert read
    # every piece read is a held cover piece, at the numerator degree of the
    # degree and cap that hold it
    where = {id(lp): (cap, d, k) for s in (s_o, s_c) for cap, cx in s.complexes.items()
             for d, deg in cx._degrees.items() for k, lp in enumerate(deg.levels[0])}
    for pieces, num_degrees in read:
        for k, lp in enumerate(pieces):
            cap, d, pos = where[id(lp)]
            assert pos == k
            if num_degrees is not None:
                assert num_degrees[k] == _num_degrees(cover, 0, d, cap)[k]


# --- maps given on numerators -------------------------------------------------
#
# The reference: each map written out as a block-diagonal matrix over the
# cover pieces, tgt.proj @ numerator map @ src.incl, applied to the H^0
# basis, and re-expressed through block-diagonal lift matrices.


def _ref_loc(s, i, d, cap):
    return localize_piece(s.base, s.cover.denoms[i], d, cap)


def _ref_cap_and_basis(s, d):
    cap = s._stable("h0_dim", d)[0]
    return cap, s.complexes[cap].degree(d).h0_basis()


def _ref_lift(s, d, cap_from, cap_to):
    if cap_from == cap_to:
        return Mat.identity(s.ring.field, sum(_ref_loc(s, i, d, cap_from).dim
                                              for i in range(s.cover.n)))
    blocks = {}
    for i in range(s.cover.n):
        src, tgt = _ref_loc(s, i, d, cap_from), _ref_loc(s, i, d, cap_to)
        mult = s.base.power_act(s.cover.denoms[i], cap_to - cap_from,
                                _num_degrees(s.cover, 0, d, cap_from)[i])
        blocks[i, i] = tgt.proj @ mult @ src.incl
    return Mat.block(s.ring.field, blocks)


def _ref_express(s, d, vecs, cap):
    own, basis = _ref_cap_and_basis(s, d)
    common = max(cap, own)
    return solve(_ref_lift(s, d, own, common) @ basis, _ref_lift(s, d, cap, common) @ vecs)


def _ref_map(s_src, s_tgt, d, d_to, numer):
    cap, basis = _ref_cap_and_basis(s_src, d)
    blocks = {}
    for i in range(s_src.cover.n):
        src, tgt = _ref_loc(s_src, i, d, cap), _ref_loc(s_tgt, i, d_to, cap)
        blocks[i, i] = tgt.proj @ numer(i, _num_degrees(s_src.cover, 0, d, cap)[i]) @ src.incl
    return _ref_express(s_tgt, d_to, Mat.block(s_src.ring.field, blocks) @ basis, cap)


def _ref_generator_multiples(fp, i, deg_o, num_degrees, pieces_m):
    """The C^0 vectors of a * gen_i over pieces_m, a running over the H^0
    basis of the Cech degree deg_o of O at the same cap, whose cover pieces
    have the numerator degrees num_degrees."""
    basis = deg_o.h0_basis()
    blocks = {}
    off = 0
    for j, (lp_o, lp_m) in enumerate(zip(deg_o.levels[0], pieces_m)):
        numer = lp_o.incl @ basis.take_rows(off, off + lp_o.dim)
        off += lp_o.dim
        blocks[j, 0] = lp_m.proj @ (fp.gen_mult(i, num_degrees[j]) @ numer)
    return Mat.block(fp.ring.field, blocks, [lp.dim for lp in pieces_m], [basis.ncols])


@st.composite
def binomial_presentations(draw, ring):
    """Generators in degree 0 or 1 and one or two columns of binomials
    x^a y^b + c x^a' y^b' (or zero): not fine-graded, so every degree
    escalates."""
    gens = draw(st.sampled_from([(0,), (0, 0), (0, 1)]))
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        c = max(gens) + draw(st.integers(1, 2))
        col = []
        for e in gens:
            k = c - e
            a, b = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
            col.append(draw(st.sampled_from([None, HomogPoly.monomial(ring, (a, k - a))
                                             + HomogPoly.monomial(ring, (b, k - b),
                                                                  draw(scalars(ring.field)))])))
        rels.append(tuple(col))
    return gens, tuple(rels)


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(FIELDS[:2]), data=st.data())
def test_maps_on_numerators_match_the_block_formulas(field, data):
    # start cap 1: the binomial module's caps climb from degree to degree,
    # while the free modules on the variable cover keep the proven start cap
    ring = PolyRing(field, ("x", "y"))
    cover = OpenSubset(ring, (ring.var_poly(0), ring.var_poly(1)))
    window, start = (-3, 2), 1
    gens, rels = data.draw(binomial_presentations(ring))
    m = FPGradedModule(ring, gens, rels)
    free = free_module(ring, gens)
    s_m = sections_window(m, cover, window, start)
    s_o = sections_window(free_module(ring), cover, window, start)
    lo, hi = window
    assume(len({s_m._stable("h0_dim", d)[0] for d in range(lo, hi + 1)}) > 1)

    for d in range(lo, hi):
        for var in (0, 1):
            want = _ref_map(s_m, s_m, d, d + 1, lambda i, a: m.act(var, a))
            assert s_m.act(var, d) == want

    # the presentation F -> M: sources at the start cap, targets above it
    u = map_from_gen_images(free, m, [m.gen_element(i) for i in range(len(gens))])
    s_free = sections_window(free, cover, window, start)
    induced = sections_induced_map(u, s_free, s_m)
    for d in range(lo, hi + 1):
        assert induced.matrix(d) == _ref_map(s_free, s_m, d, d, lambda i, a: u.matrix(a))

    # the lemma21 columns: a * gen_i for a in Gamma(W, O)_(d - e_i), at O's cap
    for d in range(lo, hi + 1):
        for i, e in enumerate(gens):
            if not (s_o.piece(d - e).dim and s_m.piece(d).dim):
                continue
            got = s_o._map_into(d - e, s_m, d, lambda j, a: m.gen_mult(i, a))
            cap_o = s_o._stable("h0_dim", d - e)[0]
            vecs = _ref_generator_multiples(
                m, i, s_o.complexes[cap_o].degree(d - e), _num_degrees(cover, 0, d - e, cap_o),
                [_ref_loc(s_m, j, d, cap_o) for j in range(cover.n)])
            assert got == _ref_express(s_m, d, vecs, cap_o)

    # the obstruction's columns at one raw cap
    for cap in (1, 3):
        cm, co = s_m.complexes[cap], s_o.complexes[cap]
        for d in range(lo, hi + 1):
            for i, e in enumerate(gens):
                deg_o, pieces_m = co.degree(d - e), cm.degree(d).levels[0]
                num_degrees = _num_degrees(cover, 0, d - e, cap)
                got = localization_cech._cochain_apply(
                    deg_o.levels[0], pieces_m, num_degrees, lambda j, b: m.gen_mult(i, b),
                    deg_o.h0_basis())
                assert got == _ref_generator_multiples(m, i, deg_o, num_degrees, pieces_m)


# --- coordinates in the H^0 basis ----------------------------------------------
#
# A vector given at or below its target's own cap is lifted to that cap, and
# its coordinates are read off the canonical kernel basis of d0; only a vector
# given above the own cap needs the lifted basis and a solve.


@pytest.mark.parametrize("name", ["lemma21-free", "double-origin-flat"])
def test_the_builtins_read_coordinates_without_a_solve(coordinate_calls, name):
    rep = run_scenario(parse_scenario(BUILTIN_SCENARIOS[name], window=(-2, 2)))
    assert rep.exit_code() == 0
    assert coordinate_calls["solve"] == 0
    assert coordinate_calls["kernel_coords"] > 0


def test_a_vector_above_the_own_cap_is_solved_for(coordinate_calls):
    # k[x] = R/(x + y) at start cap 1: degree -2 stabilizes at cap 3 and
    # degree -1 at cap 1, so the action from degree -2 lifts the basis of
    # degree -1 to cap 3 and solves against it
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    m = FPGradedModule(ring, (0,), ((x + y,),))
    s = sections_window(m, OpenSubset(ring, (x, y)), (-3, 2), 1)
    assert [s._stable("h0_dim", d)[0] for d in (-2, -1)] == [3, 1]
    for var in (0, 1):
        assert s.act(var, -2) == _ref_map(s, s, -2, -1, lambda i, a: m.act(var, a))
    assert coordinate_calls["solve"] == 2


def test_a_vector_outside_h0_at_the_own_cap_is_rejected(o_fp, w):
    s = sections_window(o_fp, w, WINDOW)
    own, _dim, cech = s._stable("h0_dim", 0)
    units = Mat.identity(o_fp.ring.field, cech.level_dim(0))
    stray = next(col for col in (units.take_cols([j]) for j in range(units.ncols))
                 if not (cech.diffs[0] @ col).is_zero())
    with pytest.raises(CapExhausted, match=re.escape(
            f"sections(O): a section of degree 0 is not representable at the "
            f"stabilized cap {own}")):
        s._express(0, stray, own)


def test_the_binomial_plateau_maps_match_the_block_formulas():
    # R/(x^3, x^2 y) + R(-1), presented by the binomial columns
    # -3/2 x^3 + x^2 y and -3 x^3 + x^2 y on the first generator: in
    # numerator degree 0, ker x = ker x^2 = 0 while x^3 kills 1.  A kernel
    # chain stopped there, so degree -1 stabilized at cap 1 with too few
    # sections and the action from degree -2 (cap 3) landed outside them;
    # the saturation walk proves T_x = 3 and T_y = 1 instead
    ring = PolyRing(FieldSpec.rationals(), ("x", "y"))
    cover = OpenSubset(ring, (ring.var_poly(0), ring.var_poly(1)))
    x3, x2y = HomogPoly.monomial(ring, (3, 0)), HomogPoly.monomial(ring, (2, 1))
    rels = ((x3.scale(Fraction(-3, 2)) + x2y, None), (x3.scale(-3) + x2y, None))
    m = FPGradedModule(ring, (0, 1), rels)
    assert (m.saturation(0), m.saturation(1)) == (3, 1)
    s_m = sections_window(m, cover, (-3, 2), 1)
    for d in range(-3, 2):
        for var in (0, 1):
            assert s_m.act(var, d) == _ref_map(s_m, s_m, d, d + 1, lambda i, a: m.act(var, a))


# the generator and relation degrees of the random-fp bench workload
RANDOM_FP_SHAPES = (((0,), (2,)), ((0,), (1, 2)), ((1,), (2,)), ((0, 0), (1,)),
                    ((0, 1), (2,)), ((0, 0), (1, 1)), ((0, 1), (2, 2)), ((1, 1), (2,)))


@st.composite
def random_fp_presentations(draw, ring):
    """A shape of the random-fp workload with random entries."""
    gens, degrees = draw(st.sampled_from(RANDOM_FP_SHAPES))
    return gens, tuple(tuple(draw(homog_polys(ring, c - e)) for e in gens) for c in degrees)


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(FIELDS[:2]), data=st.data())
def test_the_saturation_power_kills_all_torsion_of_a_presentation(field, data):
    # ker x_v^(T_v) = ker x_v^(T_v + j), j = 1..3, in the first four degrees
    ring = PolyRing(field, ("x", "y"))
    shapes = data.draw(st.sampled_from((random_fp_presentations, binomial_presentations)))
    gens, rels = data.draw(shapes(ring))
    m = FPGradedModule(ring, gens, rels)
    for v in (0, 1):
        t = m.saturation(v)
        for d in range(min(gens), min(gens) + 4):
            want = kernel_basis(m.mono_act(tuple(t * e for e in ring.unit(v)), d))
            for j in (1, 2, 3):
                got = kernel_basis(m.mono_act(tuple((t + j) * e for e in ring.unit(v)), d))
                assert got == want, (v, d, j)


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(FIELDS[:2]), data=st.data())
def test_sections_power_kills_all_torsion_of_the_sections(field, data):
    # over the cover x, y the sections take the base's certified or proven
    # power T for x, y and xy: ker f^T = ker f^(T + j), j = 1..3, in four
    # degrees
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.var_poly(0), ring.var_poly(1)
    shapes = data.draw(st.sampled_from((random_fp_presentations, binomial_presentations)))
    gens, rels = data.draw(shapes(ring))
    s = sections_window(FPGradedModule(ring, gens, rels), OpenSubset(ring, (x, y)), (-1, 2))
    for f in (x, y, x * y):
        t, how = s.torsion(f)
        assert how != "heuristic"
        status = localize_piece(s, f, 0, 1).status
        assert status in ("certified-in-window", f"proven({t})")
        for d in range(-1, 3):
            want = kernel_basis(s.power_act(f, t, d))
            for j in (1, 2, 3):
                assert kernel_basis(s.power_act(f, t + j, d)) == want, (f, d, j)


# --- proven caps ---------------------------------------------------------------
#
# A free module on the cover by all n variables is built in each degree d
# at its floor cap max(1, floor - d) alone, with floor = max shift - n + 1
# (localization_cech._proven_cap_floor).  The closed forms count fine
# degrees: H^0 in degree d is R_{d-e} for each summand R(-e) (one Laurent
# monomial when n = 1), and H^1 on the punctured plane counts the a <= -1
# with a_1 + a_2 = d - e.


def _all_variable_cover(field, n):
    ring = PolyRing(field, ("x", "y", "z")[:n])
    return ring, OpenSubset(ring, tuple(ring.var_poly(i) for i in range(n)))


def _h0_closed_form(n, shifts, d):
    if n == 1:
        return len(shifts)
    return sum(comb(d - e + n - 1, n - 1) for e in shifts if d >= e)


def _h1_closed_form(n, shifts, d):
    return sum(max(0, e - d - 1) for e in shifts) if n == 2 else 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n, window", [(1, (-3, 3)), (2, (-4, 3)), (3, (-2, 2))])
def test_free_modules_on_the_all_variable_cover_match_closed_forms(field, n, window):
    shifts = (-1, 0, 2)
    ring, cover = _all_variable_cover(field, n)
    m = free_module(ring, shifts)
    s = sections_window(m, cover, window=window)
    lo, hi = window
    for d in range(lo, hi + 1):
        assert s._caps(d) == [max(1, max(shifts) - n + 1 - d)]
        assert s.piece(d).dim == _h0_closed_form(n, shifts, d)
        _cap, h1_dim, cech = s.h1(d)
        assert h1_dim == _h1_closed_form(n, shifts, d)
        assert cech.certified


def _caps_and_dims(module, cover, window, start=None):
    s = sections_window(module, cover, window, start)
    lo, hi = window
    h1 = {d: s.h1(d)[:2] for d in range(lo, hi + 1)}
    return {
        d: (s.piece(d).dim, s._stable("h0_dim", d)[0], h1[d][1], h1[d][0])
        for d in range(lo, hi + 1)
    }


@st.composite
def fine_graded(draw, ring, top=1, bump=1):
    """A random fine-graded presentation: generator multidegrees in
    {0..top}^n (all shifted together by -1 or 0 in x), and relation
    columns on one or two generators, each entry c x^(r - g_j) for a
    column multidegree r above its generators by at most bump per
    variable.  Returns the generator degrees and the relation columns."""
    n = ring.nvars
    field = ring.field
    shift = (draw(st.integers(-1, 0)),) + (0,) * (n - 1)
    coords = st.tuples(*[st.integers(0, top)] * n)
    gens = [tuple(map(add, g, shift))
            for g in draw(st.lists(coords, min_size=1, max_size=2))]
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        linked = draw(st.lists(st.sampled_from(range(len(gens))), min_size=1, max_size=2,
                               unique=True))
        up = draw(st.tuples(*[st.integers(0, bump)] * n))
        r = tuple(max(gens[j][i] for j in linked) + up[i] for i in range(n))
        col = [None] * len(gens)
        for j in linked:
            mono = tuple(a - b for a, b in zip(r, gens[j]))
            col[j] = HomogPoly.monomial(ring, mono, draw(scalars(field)))
        rels.append(tuple(col))
    return tuple(sum(g) for g in gens), tuple(rels)


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    n=st.integers(1, 3),
    kind=st.sampled_from(["free", "fine-graded"]),
    lo=st.integers(-3, 1),
    data=st.data(),
)
def test_proven_caps_agree_with_escalation(field, n, kind, lo, data):
    window = (lo, lo + 1)
    ring = PolyRing(field, ("x", "y", "z")[:n])
    if kind == "free":
        presentation = (data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2)), ())
    else:
        presentation = data.draw(fine_graded(ring))
    # every variable once, in any order and up to a nonzero scalar
    order = data.draw(st.permutations(range(n)))
    denoms = [ring.var_poly(i).scale(data.draw(scalars(field))) for i in order]

    def module():
        return FPGradedModule(ring, *presentation)

    m, cover = module(), OpenSubset(ring, denoms)
    proven = _caps_and_dims(m, cover, window)
    s = sections_window(m, cover, window)
    floor = localization_cech._proven_cap_floor(m, cover)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization_cech, "_proven_cap_floor", lambda module, cover: None)
        cover = OpenSubset(ring, denoms)
        escalated = _caps_and_dims(module(), cover, window)
        assert len(sections_window(module(), cover, window)._caps(lo)) > 1
    # a proven degree is built at its floor cap alone, and escalation
    # accepts the start cap there with the same dimensions
    expected = {}
    for d, (h0, h0_cap, h1, h1_cap) in escalated.items():
        if floor is not None and floor - d <= s.caps[0]:
            assert s.floor_cap(d) == max(1, floor - d)
            assert h0_cap == h1_cap == s.caps[0]
            h0_cap = h1_cap = s.floor_cap(d)
        else:
            assert s.floor_cap(d) is None
        expected[d] = (h0, h0_cap, h1, h1_cap)
    assert proven == expected


# Two-variable presentations without x- or y-torsion: the Cech complex at
# cap c is the Koszul complex K(x^c, y^c; M) without its M term, and the
# floor is the top generator or relation degree less one.


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("p", ["x + y", "x^2 + 2*x*y + y^2", "x^2 - x*y + 3*y^2",
                               "x^3 + y^3", "x^4 - x*y^3 + 2*y^4"])
def test_a_curve_of_degree_k_has_k_sections_in_every_degree(field, p):
    # R/(p) with no variable dividing p is, on W, the cone over a subscheme
    # Z of P^1 of length k = deg p, so Gamma(W, ~M)_d = H^0(Z, O_Z(d)):
    # h^0 = k and h^1 = 0 in every degree
    ring, cover = _all_variable_cover(field, 2)
    p = HomogPoly.parse(ring, p)
    m = FPGradedModule(ring, (0,), ((p,),))
    assert m.fine_grading() is None
    window = (-4, 4)
    s = sections_window(m, cover, window)
    assert localization_cech._proven_cap_floor(m, cover) == p.degree - 1
    for d in range(-4, 5):
        assert s._caps(d) == [max(1, p.degree - 1 - d)]
        assert s.piece(d).dim == p.degree
        assert s.h1(d)[1] == 0


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from((FIELDS[0], FIELDS[2])), lo=st.integers(-3, 0), data=st.data())
def test_proven_caps_without_torsion_agree_with_escalation(field, lo, data):
    # random two-variable presentations with T_x = T_y = 0 that are not
    # fine-graded: the H^0 and H^1 tables at the floor caps are those of
    # escalation, which accepts the start cap there; a degree whose floor
    # cap is past the start cap escalates
    ring = PolyRing(field, ("x", "y"))
    shapes = data.draw(st.sampled_from((random_fp_presentations, binomial_presentations)))
    presentation = data.draw(shapes(ring))
    m = FPGradedModule(ring, *presentation)
    assume(m.fine_grading() is None and m.saturation(0) == m.saturation(1) == 0)
    window = (lo, lo + 2)
    denoms = [ring.var_poly(i) for i in data.draw(st.permutations(range(2)))]
    s = sections_window(m, OpenSubset(ring, denoms), window)
    proven = _caps_and_dims(m, s.cover, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization_cech, "_proven_cap_floor", lambda module, cover: None)
        escalated = _caps_and_dims(FPGradedModule(ring, *presentation),
                                   OpenSubset(ring, denoms), window)
    top = max(m.gen_degrees + tuple(e for _, e in m.relations))
    expected = {}
    for d, (h0, h0_cap, h1, h1_cap) in escalated.items():
        if top - 1 - d <= s.caps[0]:
            assert s.floor_cap(d) == max(1, top - 1 - d)
            assert h0_cap == h1_cap == s.caps[0]
            h0_cap = h1_cap = s.floor_cap(d)
        else:
            assert s.floor_cap(d) is None
        expected[d] = (h0, h0_cap, h1, h1_cap)
    assert proven == expected


def test_sections_of_sections_of_the_koszul_class_escalate(ring, x, y):
    # M = R/(x + y) has floor 0, but N = Gamma(W, ~M) is k[x, 1/x], which is
    # not finitely generated, so Gamma(W, ~N), the V side of the sections
    # over W of the direct image, inherits no floor: it escalates, with one
    # section in every degree, and the tables are those of the parent
    m = FPGradedModule(ring, (0,), ((x + y,),), name="L")
    sections, certified, obstruction, floor, start, floor_caps = \
        _sections_of_sections_and_obstruction(m, OpenSubset(ring, (x, y)), (-2, 2))
    assert (floor, start) == (0, 6)
    assert floor_caps == dict.fromkeys(range(-2, 3))
    assert sections == dict.fromkeys(range(-2, 3), (1, 6))
    assert certified == dict.fromkeys(range(-2, 3), False)
    assert obstruction == ({-2: 1, -1: 1, 0: 0, 1: 0, 2: 0}, 6,
                           ["cap:6", "stabilized", "kernels-heuristic"])


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 3), data=st.data())
def test_fine_grading_torsion_power_is_the_stable_kernel(field, n, data):
    # ker f^T = ker f^(T+k) in every numerator degree of a range, for every
    # cover product f = x_S, with T the fine grading's power for 1_S; where
    # the monomial quotient bound also applies, T does not exceed it
    ring = PolyRing(field, ("x", "y", "z")[:n])
    m = FPGradedModule(ring, *data.draw(fine_graded(ring, top=2, bump=2)))
    fine = m.fine_grading()
    assert fine is not None
    lo = min(m.gen_degrees)
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            u = tuple(int(i in subset) for i in range(n))
            f = HomogPoly.monomial(ring, u)
            t = graded_modules._torsion_power(fine.torsion, u)
            bound, how = m.torsion(f)
            if how == "certified":
                assert t <= bound
            for d in range(lo, lo + 4):
                stable = kernel_basis(m.power_act(f, t, d)).ncols
                assert all(kernel_basis(m.power_act(f, t + j, d)).ncols == stable
                           for j in (1, 2, 3))


def _sections_of_sections_and_obstruction(module, cover, window):
    """Caps, dims and certificates of Gamma(W, Gamma(W, ~M)~) over the
    window, the codims, cap and flags of the obstruction table of the
    direct image of M, the floor of Gamma(W, ~M), and the start cap and
    floor caps of Gamma(W, Gamma(W, ~M)~)."""
    ring = module.ring
    sheaf = direct_image_from_U(DoubleGluedScheme(cover), module, window)
    outer = sections_window(sheaf.m_V, cover, window)
    lo, hi = window
    sections = {d: (outer.piece(d).dim, outer._stable("h0_dim", d)[0]) for d in range(lo, hi + 1)}
    certified = {d: outer.h0(d)[2].certified for d in range(lo, hi + 1)}
    cert = flat_quotient_obstruction(sheaf, sections_window(free_module(ring), cover, window))
    floor_caps = {d: outer.floor_cap(d) for d in range(lo, hi + 1)}
    return (sections, certified, (cert.codims, cert.cap, cert.flags), sheaf.m_V._cap_floor,
            outer.caps[0], floor_caps)


# three variables are left to the golden digest of the Koszul ideal in
# tests/test_verify_cli.py: escalating sections of sections there takes seconds
@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(1, 2), lo=st.integers(-2, 0),
       data=st.data())
def test_proven_caps_agree_with_escalation_for_sections_of_sections(field, n, lo, data):
    # Gamma(W, ~M) inherits M's floor and torsion powers on the cover by all
    # the variables, and the obstruction table is taken at the start cap
    # when all it reads is proven; with _proven_cap_floor off everything
    # escalates, and the caps, dims and tables must be the same
    ring = PolyRing(field, ("x", "y", "z")[:n])
    presentation = data.draw(fine_graded(ring))
    # the obstruction needs every generator degree inside the window
    window = (lo, max(lo + 1, *presentation[0]))
    order = data.draw(st.permutations(range(n)))
    denoms = [ring.var_poly(i).scale(data.draw(scalars(field))) for i in order]

    def run():
        return _sections_of_sections_and_obstruction(
            FPGradedModule(ring, *presentation), OpenSubset(ring, denoms), window)

    proven = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization_cech, "_proven_cap_floor", lambda module, cover: None)
        escalated = run()
    # M's floor reaches Gamma(W, ~M) through _proven_cap_floor alone
    floor = localization_cech._proven_cap_floor(FPGradedModule(ring, *presentation),
                                                OpenSubset(ring, denoms))
    assert (proven[3], escalated[3]) == (floor, None)
    # a proven degree of the outer sections sits at its floor cap
    # max(1, floor - d), where escalation accepts the start cap
    start, floor_caps = proven[4], proven[5]
    assert all(c is None for c in escalated[5].values())
    expected = {}
    for d, (dim, cap) in escalated[0].items():
        if floor_caps[d] is not None:
            assert floor_caps[d] == max(1, floor - d) and cap == start
            cap = floor_caps[d]
        expected[d] = (dim, cap)
    assert proven[0] == expected
    assert proven[2] == escalated[2]
    # with the floor off, the torsion power of Gamma(W, ~M) is the
    # uncertified default, so an escalated certificate can only be weaker
    assert all(proven[1][d] for d in proven[1] if escalated[1][d])


def _at_the_start_cap(self, d):
    """SectionsModule.floor_cap as it was before the floor: the start cap
    wherever the theorem of _proven_cap_floor reaches it."""
    floor = self._cap_floor
    return self.caps[0] if floor is not None and floor - d <= self.caps[0] else None


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(1, 3), lo=st.integers(-3, 0),
       data=st.data())
def test_proven_degrees_read_the_same_at_their_floor_and_above(field, n, lo, data):
    # the theorem of _proven_cap_floor, as an oracle: each proven degree
    # reads the same H^0, H^1 and certificate at its floor cap, at the start
    # cap and two caps above it, and the obstruction table with rows at
    # their floors is the uniform table at the start cap
    ring, cover = _all_variable_cover(field, n)
    presentation = data.draw(fine_graded(ring))
    window = (lo, max(lo + 1, *presentation[0]))
    m = FPGradedModule(ring, *presentation)
    s = sections_window(m, cover, window)
    start = s.caps[0]
    proven = [d for d in range(lo, window[1] + 1) if s.floor_cap(d) is not None]
    assume(proven)
    for d in proven:
        reads = {}
        for c in (s.floor_cap(d), start, start + 2):
            deg = s.complexes[c].degree(d)
            reads[c] = (deg.h0_dim, deg.h1_dim, deg.certified)
        assert len(set(reads.values())) == 1, (d, reads)

    def obstruction():
        sheaf = QcohSheafOnX.glued(DoubleGluedScheme(cover), m, window=window)
        cert = flat_quotient_obstruction(sheaf, sections_window(free_module(ring), cover, window))
        return cert.codims, cert.cap, cert.flags

    per_degree = obstruction()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SectionsModule, "floor_cap", _at_the_start_cap)
        uniform = obstruction()
    assert per_degree == uniform


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 3), data=st.data())
def test_inherited_torsion_power_is_the_stable_kernel_of_the_sections(field, n, data):
    # where M has a floor, N = Gamma(W, ~M) takes M's torsion power T for
    # every cover product f = x_S, and ker f^T = ker f^(T+k) on N in every
    # degree of a range; elsewhere N keeps the uncertified default
    ring, cover = _all_variable_cover(field, n)
    m = FPGradedModule(ring, *data.draw(fine_graded(ring)))
    sections = sections_window(m, cover, (-2, 2))
    inherited = localization_cech._proven_cap_floor(m, cover) is not None
    lo = min(m.gen_degrees) - 1
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            f = cover.product(subset)
            t, how = sections.torsion(f)
            assert (t, how) == (m.torsion(f) if inherited else (1, "heuristic"))
            if not inherited:
                continue
            for d in range(lo, lo + 3):
                stable = kernel_basis(sections.power_act(f, t, d)).ncols
                assert all(kernel_basis(sections.power_act(f, t + j, d)).ncols == stable
                           for j in (1, 2, 3))


class _TopExponentBound(FPGradedModule):
    """A monomial quotient with the certified bound it had before
    fine_grading: max(1, the largest exponent of a relation monomial)."""

    def torsion(self, f):
        got, how = super().torsion(f)
        if not self.relations or how != "certified":
            return got, how
        return max(1, max(max(next(iter(p.terms)))
                          for entries, _ in self.relations for p in entries if p is not None)), how


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 3), data=st.data())
def test_monomial_quotient_bound_gives_the_top_exponent_kernel(field, n, data):
    # fine_grading's power and the top exponent both certify the stable
    # kernel, so they give the same ker f^T and the same localized pieces
    ring = PolyRing(field, ("x", "y", "z")[:n])
    gens = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2)))
    rels = []
    for _ in range(data.draw(st.integers(1, 3))):
        col = [None] * len(gens)
        j = data.draw(st.integers(0, len(gens) - 1))
        mono = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        col[j] = HomogPoly.monomial(ring, mono, data.draw(scalars(field)))
        rels.append(tuple(col))
    m = FPGradedModule(ring, gens, rels)
    old = _TopExponentBound(ring, gens, rels)
    for u in data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                                min_size=1, max_size=3)):
        f = HomogPoly.monomial(ring, u, data.draw(scalars(field)))
        (t_new, _), (t_old, _) = m.torsion(f), old.torsion(f)
        assert t_new <= t_old
        for d in range(min(gens), min(gens) + 4):
            assert (kernel_basis(m.power_act(f, t_new, d))
                    == kernel_basis(m.power_act(f, t_old, d)))
        for d, cap in ((-1, 1), (0, 2), (1, 3)):
            got, want = localize_piece(m, f, d, cap), localize_piece(old, f, d, cap)
            assert (got.status, got.incl, got.proj) == (want.status, want.incl, want.proj)


# The class boundary: the answers and caps below are those of escalation
# before proven caps existed, and each of these builds three or more caps.

def _assert_escalates(built, module, cover, window, start=None):
    s = sections_window(module, cover, window, start)
    lo, hi = window
    assert all(len(s._caps(d)) >= 3 for d in range(lo, hi + 1))
    got = _caps_and_dims(module, cover, window, start)
    assert len({cap for _, _, cap in built}) >= 3
    return got


# O and the ideal (x, y) agree on the punctured plane
PUNCTURED_AT_CAP_6 = {
    -2: (0, 6, 1, 6), -1: (0, 6, 0, 6), 0: (1, 6, 0, 6), 1: (2, 6, 0, 6), 2: (3, 6, 0, 6),
}


def test_a_module_with_relations_escalates(complexes_built, ring, x, y, w):
    # the same ideal on the generators x + y and x - y: its Koszul column
    # has binomial entries, so the presentation is not fine-graded, but it
    # has no x- or y-torsion, so it takes the floors of the Koszul
    # presentation of (x, y) with the same dimensions
    ideal = FPGradedModule(ring, (1, 1), ((x - y, -(x + y)),), name="I")
    floor_caps = {-2: 3, -1: 2, 0: 1, 1: 1, 2: 1}
    assert _caps_and_dims(ideal, w, (-2, 2)) == {
        d: (h0, floor_caps[d], h1, floor_caps[d])
        for d, (h0, _, h1, _) in PUNCTURED_AT_CAP_6.items()
    }
    # R/(x^2 + xy) has x-torsion, so it escalates: the cone over two
    # points of P^1, with two sections in every degree
    torsion = FPGradedModule(ring, (0,), ((x * x + x * y,),), name="T")
    got = _assert_escalates(complexes_built, torsion, w, (-2, 2))
    assert got == {d: (2, 6, 0, 6) for d in range(-2, 3)}


def test_the_ideal_is_held_to_the_start_cap(complexes_built, ring, x, y, w):
    # the Koszul presentation of (x, y) is fine-graded with T = (1, 1):
    # its kernel chains are exact, so its caps are proven from the floor 1
    # on; each degree is built at max(1, 1 - d) and reported at the start
    # cap 6, with the dimensions escalation gives there
    ideal = FPGradedModule(ring, (1, 1), ((y, -x),), name="I")
    window = (-2, 2)
    s = sections_window(ideal, w, window)
    floor_caps = {-2: 3, -1: 2, 0: 1, 1: 1, 2: 1}
    assert all(s._caps(d) == [floor_caps[d]] for d in range(-2, 3))
    assert _caps_and_dims(ideal, w, window) == {
        d: (h0, floor_caps[d], h1, floor_caps[d])
        for d, (h0, _, h1, _) in PUNCTURED_AT_CAP_6.items()
    }
    assert s.flags() == ["caps:6..6", "stabilized", "kernels-heuristic"]
    assert [cap for _, _, cap in complexes_built] == [3, 2, 1]


@pytest.mark.parametrize("denoms", ["x, x+y", "x, y, x*y"])
def test_covers_other_than_the_variables_escalate(complexes_built, ring, denoms):
    cover = OpenSubset(ring, [HomogPoly.parse(ring, f) for f in denoms.split(", ")])
    got = _assert_escalates(complexes_built, free_module(ring, (0,)), cover, (-2, 2))
    assert got == PUNCTURED_AT_CAP_6


def test_a_cover_missing_a_variable_escalates_and_gives_up(complexes_built):
    # D(x) u D(y) in three-space: H^1 is infinite dimensional in every degree
    ring = PolyRing(FieldSpec.rationals(), ("x", "y", "z"))
    cover = OpenSubset(ring, (ring.var_poly(0), ring.var_poly(1)))
    o = free_module(ring, (0,))
    s = sections_window(o, cover, window=(-2, 2))
    assert [s.piece(d).dim for d in range(-2, 3)] == [0, 0, 1, 3, 6]
    with pytest.raises(CapExhausted):
        _h1_dims(s)
    assert sorted({cap for _, _, cap in complexes_built}) == [6, 8, 10, 12, 14, 16]


def test_degrees_past_the_start_cap_escalate(complexes_built, ring, w):
    # with start 1, c0(d) = -d - 1 exceeds the start for d <= -3
    o = free_module(ring, (0,))
    start = 1
    window = (-6, 6)
    s = sections_window(o, w, window, start)
    assert [d for d in range(-6, 7) if len(s._caps(d)) > 1] == [-6, -5, -4, -3]
    got = _caps_and_dims(o, w, window, start)
    h1_caps = {-6: 5, -5: 5, -4: 3, -3: 3}
    assert got == {
        d: (d + 1 if d >= 0 else 0, 1, max(0, -d - 1), h1_caps.get(d, 1))
        for d in range(-6, 7)
    }
    assert sorted({cap for _, _, cap in complexes_built}) == [1, 3, 5, 7, 9]


# --- the floor of proven caps ------------------------------------------------


@pytest.mark.parametrize("n, shifts", [(1, (0,)), (2, (-1, 0, 2)), (3, (1, 3))])
def test_the_floor_of_a_free_module_is_its_top_shift(n, shifts):
    ring, cover = _all_variable_cover(FieldSpec.rationals(), n)
    floor = localization_cech._proven_cap_floor(free_module(ring, shifts), cover)
    assert floor == max(shifts) - n + 1


def test_the_floors_of_the_builtin_quotients(ideal_fp, sky_fp, kx_fp, w):
    floors = [localization_cech._proven_cap_floor(m, w) for m in (ideal_fp, sky_fp, kx_fp)]
    assert floors == [1, 1, 0]


def test_no_floor_outside_the_class(ring, x, y, w, ideal_fp):
    floor = localization_cech._proven_cap_floor
    # x-torsion: x kills x + y in R/(x^2 + xy)
    torsion = FPGradedModule(ring, (0,), ((x * x + x * y,),))
    assert (torsion.saturation(0), torsion.saturation(1)) == (1, 0)
    assert floor(torsion, w) is None
    # three variables, with no torsion
    ring3, cover3 = _all_variable_cover(ring.field, 3)
    plane = FPGradedModule(ring3, (0,), ((HomogPoly.parse(ring3, "x + y + z"),),))
    assert (plane.saturation(0), plane.saturation(1), plane.saturation(2)) == (0, 0, 0)
    assert floor(plane, cover3) is None
    # a cover that is not the variables
    assert floor(ideal_fp, OpenSubset(ring, (x, x + y))) is None
    assert floor(FPGradedModule(ring, (0,), ((x + y,),)), OpenSubset(ring, (x, x + y))) is None


def test_the_floor_of_a_presentation_without_torsion_is_its_top_degree_less_one(ring, x, y, w):
    floor = localization_cech._proven_cap_floor
    # a binomial entry: R/(x + y) has top degree 1
    assert floor(FPGradedModule(ring, (0,), ((x + y,),)), w) == 0
    # two columns that put the generators at conflicting multidegrees:
    # not fine-graded, without torsion, top degree 2
    conflict = FPGradedModule(ring, (1, 1), ((y, -x), (x, -y)))
    assert conflict.fine_grading() is None
    assert floor(conflict, w) == 1


PLATEAU = """\
[ring]
variables = x, y
[scheme]
overlap = x, y
[module M]
generators = 0, 0
relation = x^20; 0
relation = y; 0
relation = 1; 1
[sheaf s]
patch = M
[check sections s over W]
"""


def test_the_plateau_presentation_keeps_escalating():
    # R/(x^20, y) on two generators glued by the column 1; 1: fine-graded
    # with T = (20, 1).  Its torsion is not certified, but the saturation
    # walk proves the powers, so its localizations are exact and its floor
    # is 20: every degree but the top one of the window still escalates,
    # and the kernels flag stays heuristic, as torsion proves but does not
    # certify
    scenario = parse_scenario(PLATEAU)
    m = scenario.modules["M"]
    assert m.fine_grading() == (21, (20, 1))
    assert localization_cech._proven_cap_floor(m, scenario.overlap) == 20
    s = sections_window(m, scenario.overlap, scenario.window)
    assert [len(s._caps(d)) for d in range(-6, 7)] == [6] * 12 + [1]
    check = run_scenario(scenario).checks[0]
    assert "kernels-heuristic" in check.flags


def test_a_kernel_starts_the_chain_at_the_power_of_its_source(monkeypatch):
    # with no saturation walk, the plateau presentation localizes at x by
    # the kernel chain from its fine grading's power 20, to zero.  The
    # kernel of its zero map is the same module and starts the chain at 20
    # too, where a start at 1 stops on the plateau ker x = ker x^2
    monkeypatch.setattr(FPGradedModule, "saturation", lambda self, v: None)
    m = parse_scenario(PLATEAU).modules["M"]
    x = m.ring.var_poly(0)
    k = kernel_dw(GradedModuleMap(m, m, lambda d: Mat.zeros(
        m.ring.field, m.piece(d).dim, m.piece(d).dim)))
    assert m.torsion(x) == k.torsion(x) == (20, "heuristic")
    for d, cap in ((0, 1), (2, 1), (5, 2)):
        for module in (m, k):
            lp = localize_piece(module, x, d, cap)
            assert (lp.status, lp.dim) == ("heuristic(20)", 0), (module.name, d, cap)


def test_a_saturation_walk_past_the_budget_proves_no_floor(monkeypatch, ring, x, y, w):
    # one exactness gate for both classes: where the walk gives up, no
    # power of x is proven, the localization at x is not exact, and the
    # caps escalate
    monkeypatch.setattr(graded_modules, "_MAX_LABELS", 5)
    plateau = parse_scenario(PLATEAU)
    koszul = FPGradedModule(ring, (0,), ((x ** 3 + y ** 3,),))
    for m, cover in ((plateau.modules["M"], plateau.overlap), (koszul, w)):
        assert m.saturation(0) is None
        assert m.torsion(cover.denoms[0])[1] == "heuristic"
        assert localization_cech._proven_cap_floor(m, cover) is None


def test_the_plateau_reads_the_table_of_its_monomial_presentation():
    # the kernel chain of each localization starts at the torsion power
    # T(f) of the fine grading, so it cannot stop on the plateau
    # ker x = ker x^2 inside the x^20-torsion; the module has finite length
    monomial = PLATEAU.replace(
        "generators = 0, 0\nrelation = x^20; 0\nrelation = y; 0\nrelation = 1; 1\n",
        "generators = 0\nrelation = x^20\nrelation = y\n")
    assert monomial != PLATEAU
    tables = [run_scenario(parse_scenario(text)).checks[0].tables["sections"]
              for text in (PLATEAU, monomial)]
    assert tables[0] == tables[1] == {str(d): 0 for d in range(-6, 7)}


def _twist_and_source(ring, x, y, w):
    """Gamma(W, ~M) and Gamma(W, ~T) for M = R/(x y^2) and T = M(-3)."""
    m = FPGradedModule(ring, (0,), ((x * y ** 2,),), name="M")
    t = m.twist(3, "T")
    return sections_window(m, w, (-2, 2)), sections_window(t, w, (-2, 2))


@pytest.mark.parametrize("twist_first", [True, False], ids=["twist-first", "source-first"])
def test_a_twist_reads_its_sources_cech_degrees(ring, x, y, w, twist_first):
    # T = M(-3) in degree d at a cap is M's degree d - 3 there, the very
    # object, whichever of the two builds it: its localizations,
    # differentials and H^0 basis are built once
    s_m, s_t = _twist_and_source(ring, x, y, w)
    asks = [(s_t, 0), (s_m, -3)] if twist_first else [(s_m, -3), (s_t, 0)]
    for d in range(-2, 3):
        for cap in (1, 4):
            first, second = (s.complexes[cap].degree(d + off) for s, off in asks)
            assert first is second
            assert s_t.complexes[cap].degree(d).h0_basis() is \
                s_m.complexes[cap].degree(d - 3).h0_basis()
    for d in range(-2, 3):
        assert s_t.piece(d).dim == s_m.piece(d - 3).dim
        assert s_t.h1(d)[1] == s_m.h1(d - 3)[1]


@pytest.mark.parametrize("twist_first", [True, False], ids=["twist-first", "source-first"])
def test_a_twist_reads_its_sources_stabilized_caps(monkeypatch, ring, x, y, w, twist_first):
    # T = M(-3) in degree d reads M's (cap, dimension, Cech degree) of
    # degree d - 3, the very tuple, whichever of the two asks first: each
    # H^0 and H^1 is stabilized once, in the name and degree of who asked
    stabilized = []
    real = localization_cech._stabilize

    def spy(dims_at, caps, what):
        stabilized.append(what)
        return real(dims_at, caps, what)

    monkeypatch.setattr(localization_cech, "_stabilize", spy)
    s_m, s_t = _twist_and_source(ring, x, y, w)
    assert s_t._stable_memo is s_m._stable_memo
    asks = [(s_t, 0, "T"), (s_m, -3, "M")] if twist_first else [(s_m, -3, "M"), (s_t, 0, "T")]
    for d in range(-2, 3):
        first, second = (s.h0(d + off) for s, off, _ in asks)
        assert first is second
        first, second = (s.h1(d + off) for s, off, _ in asks)
        assert first is second
    name, off = asks[0][2], asks[0][1]
    assert stabilized == [f"{what} of {name} in degree {d + off}"
                          for d in range(-2, 3) for what in ("H0", "H1")]


@pytest.mark.parametrize("twist_first", [True, False], ids=["twist-first", "source-first"])
def test_a_cech_degree_past_the_label_budget_names_who_asked(monkeypatch, ring, x, y, w,
                                                             twist_first):
    # T's degree 12 at cap 4 reads T in numerator degree 16, M's degree 9
    # reads M in degree 13: the same 13 free labels.  Each failure names the
    # module and the degree that were asked for, in either order, and
    # leaves nothing for the other to read
    monkeypatch.setattr(graded_modules, "_MAX_LABELS", 12)
    s_m, s_t = _twist_and_source(ring, x, y, w)
    asks = [(s_t, 12, "T: degree 16 "), (s_m, 9, "M: degree 13 ")]
    for s, d, name in asks if twist_first else asks[::-1]:
        with pytest.raises(CapExhausted, match=f"^{name}has over 12 free labels"):
            s.complexes[4].degree(d)
    assert s_m.complexes[4]._degrees == {}


# --- graded local duality in three variables -------------------------------------
#
# On W = D(x) u D(y) u D(z) in k[x, y, z], Cech H^1 is H^2_m(M), and
# 0 -> H^0_m(M) -> M -> Gamma(W, ~M) -> H^1_m(M) -> 0 is exact.  A
# Cohen-Macaulay M of dimension m has H^i_m(M) = 0 for i != m and
# H^m_m(M)_d dual to (omega_M)_(-d) (Bruns-Herzog 3.6.19).  A hypersurface
# R/(p), deg p = e, has omega = M(e - 3): Gamma(W, ~M) = M and
# h^1(d) = dim M_(e-3-d).  A complete intersection R/(p, q) of degrees e1,
# e2 has omega = M(e1 + e2 - 3): h^1 = 0 and dim Gamma(W, ~M)_d =
# dim M_d + dim M_(e1+e2-3-d).  dim M_k is the Koszul complex's alternating
# sum of dim R_(k - sum of a subset of the degrees).

LOCAL_DUALITY = {
    "hypersurface": ["x^2 + y*z"],
    "cubic-hypersurface": ["x^3 + y^2*z - 2*x*y*z"],
    "complete-intersection": ["x^2 + y*z", "y^2 + x*z"],
    "linear-quadric": ["x + y - z", "x*y + z^2"],
}


def ci_dim(degrees, k: int) -> int:
    """dim (k[x, y, z]/(p_1, ..., p_r))_k for a complete intersection of
    the given degrees."""
    return sum((-1) ** len(sub) * comb(k - sum(sub) + 2, 2)
               for r in range(len(degrees) + 1) for sub in combinations(degrees, r)
               if k - sum(sub) >= 0)


@pytest.mark.parametrize("field", ["Q", "Fp:7", "Fp:65537"])
@pytest.mark.parametrize("case", sorted(LOCAL_DUALITY))
def test_sections_and_h1_in_three_variables_obey_local_duality(case, field):
    relations = LOCAL_DUALITY[case]
    text = (f"[ring]\nvariables = x, y, z\nfield = {field}\n\n[options]\nwindow = -3:3\n\n"
            "[scheme]\noverlap = x, y, z\n\n[module M]\ngenerators = 0\n"
            + "".join(f"relation = {r}\n" for r in relations)
            + "\n[sheaf S]\npatch = M\n\n[check sections S over W]\n[check h1 M]\n")
    scenario = parse_scenario(text)
    degrees = [c for _, c in scenario.modules["M"].relations]
    rep = run_scenario(scenario)
    assert [c.verdict for c in rep.checks] == ["table-computed"] * 2
    sections, h1 = ({int(d): v for d, v in c.tables[name].items()}
                    for c, name in zip(rep.checks, ("sections", "h1")))
    dual = sum(degrees) - 3
    if len(degrees) == 1:
        assert sections == {d: ci_dim(degrees, d) for d in range(-3, 4)}
        assert h1 == {d: ci_dim(degrees, dual - d) for d in range(-3, 4)}
    else:
        assert sections == {d: ci_dim(degrees, d) + ci_dim(degrees, dual - d)
                            for d in range(-3, 4)}
        assert h1 == dict.fromkeys(range(-3, 4), 0)
