"""Graded duality: the injective hull, dualized modules, and the bidual run.

Dual pieces are transposes of the original action matrices at negated
degrees, so every oracle here has a mirror-image statement about the
underlying module that can be checked by hand.
"""

import pytest
from hypothesis import given, settings

from qcverify import (
    DualizedModule,
    GradedModuleMap,
    SheafMap,
    QcohSheafOnX,
    bidual_pipeline,
    double_origin_plane,
    exactness_tables,
    free_module,
    injective_hull,
    map_from_gen_images,
    matlis_dual,
    matlis_dual_map,
    plus_functor,
    plus_functor_map,
    sections_window,
    verify_action_commutation,
    verify_naturality,
)
from qcverify.exact_linalg import rank
from qcverify.graded_modules import ALL_TORSION
from test_graded_modules import fp_modules

WINDOW = (-4, 4)


def twist_sequence(ring, kx_fp, y):
    """R(-1) --y--> R --> R/(y), the standard length-one resolution."""
    src = free_module(ring, (1,), name="R(-1)")
    tgt = free_module(ring, (0,), name="R")
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    f = map_from_gen_images(src, tgt, [img])
    g = map_from_gen_images(tgt, kx_fp, [kx_fp.gen_element(0)])
    return src, tgt, f, g


# --- the injective hull ------------------------------------------------------


def test_hull_dimensions(ring):
    e = injective_hull(ring)
    assert [e.piece(d).dim for d in range(-4, 2)] == [5, 4, 3, 2, 1, 0]


def test_hull_actions_are_surjections_below_zero(ring):
    e = injective_hull(ring)
    for d in range(-4, 0):
        m = e.act(0, d)
        assert rank(m) == e.piece(d + 1).dim
    verify_action_commutation(e, -4, 0)


# --- dualized modules ---------------------------------------------------------


def test_dual_dimensions_mirror(kx_fp, sky_fp, ideal_fp):
    for fp in (kx_fp, sky_fp, ideal_fp):
        dual = matlis_dual(fp)
        for d in range(-4, 5):
            assert dual.piece(d).dim == fp.piece(-d).dim


def test_dual_action_is_transposed(kx_fp):
    m = kx_fp
    dual = matlis_dual(m)
    for d in range(-3, 3):
        for v in range(2):
            assert dual.act(v, d) == m.act(v, -d - 1).transpose()
    verify_action_commutation(dual, -3, 3)


def test_skyscraper_is_self_dual(sky_fp):
    m = sky_fp
    dual = matlis_dual(m)
    for d in range(-2, 3):
        assert dual.piece(d).dim == m.piece(d).dim
        for v in range(2):
            assert dual.act(v, d) == m.act(v, d)


def test_dual_is_memoized(kx_fp):
    assert matlis_dual(kx_fp) is matlis_dual(kx_fp)


def test_biduality(ring, kx_fp, sky_fp):
    # built by hand: matlis_dual(matlis_dual(m)) is m itself
    shifted = free_module(ring, (-2,), name="R(2)")
    for m in (kx_fp, sky_fp, shifted):
        dd = DualizedModule(DualizedModule(m))
        for d in range(-4, 5):
            assert dd.piece(d).dim == m.piece(d).dim
        for d in range(-3, 3):
            for v in range(2):
                assert dd.act(v, d) == m.act(v, d)


def test_dual_of_a_dual_is_its_origin(ring, kx_fp, sky_fp, ideal_fp):
    for m in (kx_fp, sky_fp, ideal_fp, free_module(ring, (-2,), name="R(2)")):
        assert matlis_dual(matlis_dual(m)) is m
    e = injective_hull(ring)
    assert matlis_dual(e) is e.base


@given(fp_modules())
@settings(max_examples=25, deadline=None)
def test_sections_of_an_explicit_double_dual_match_the_origin(m):
    # the evaluation isomorphism is the identity, so the W-sections of a
    # double dual built by hand, through transposed transposes and the
    # delegated torsion certificates, repeat those of m degree by degree
    window = (-2, 2)
    w = double_origin_plane(m.ring).overlap
    s_m = sections_window(m, w, window)
    s_dd = sections_window(DualizedModule(DualizedModule(m)), w, window)
    for d in range(window[0], window[1] + 1):
        assert s_dd.piece(d).dim == s_m.piece(d).dim, d
        assert s_dd._realize(d).cap == s_m._realize(d).cap, d
        assert s_dd.certified(d) == s_m.certified(d), d


@given(fp_modules())
@settings(max_examples=40, deadline=None)
def test_an_explicit_double_dual_returns_dimensions_and_actions(m):
    # the biduality lines of acceptance criterion 7, on a double dual built
    # by hand rather than the origin that matlis_dual hands back
    dd = DualizedModule(DualizedModule(m))
    for d in range(-6, 7):
        assert dd.piece(d).dim == m.piece(d).dim, d
    for d in range(-2, 2):
        for v in range(2):
            assert dd.act(v, d) == m.act(v, d), (d, v)


def test_torsion_certificates(ring, kx_fp, x, y):
    dual = matlis_dual(kx_fp)
    # the dual of a bounded-below module is bounded above: positive-degree
    # multiplication is eventually zero on every element
    assert dual.torsion_bound(x) == ALL_TORSION
    from qcverify import HomogPoly

    assert dual.torsion_bound(HomogPoly.constant(ring, ring.field.one)) == 0
    bidual = DualizedModule(DualizedModule(kx_fp))
    assert bidual.torsion_bound(y) == kx_fp.torsion_bound(y) == 1


# --- dual maps ------------------------------------------------------------------


def test_dual_map_mirrors_ranks(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    df = matlis_dual_map(f)
    for d in range(-4, 5):
        assert rank(df.matrix(d)) == rank(f.matrix(-d))
    verify_naturality(df, -3, 3)


def test_dual_map_contravariant(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    gf = g.compose(f)
    dual_of_composite = matlis_dual_map(gf)
    composite_of_duals = matlis_dual_map(f, target=matlis_dual(f.source)).compose(
        matlis_dual_map(g, source=matlis_dual(g.target))
    )
    for d in range(-3, 4):
        assert dual_of_composite.matrix(d) == composite_of_duals.matrix(d)


def test_dual_map_endpoint_validation(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    wrong = matlis_dual(kx_fp)
    with pytest.raises(ValueError):
        matlis_dual_map(f, source=wrong)


def test_dual_map_rejects_a_module_as_its_source(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    with pytest.raises(ValueError):
        matlis_dual_map(f, source=kx_fp)


def test_dual_map_rejects_sections_as_its_target(ring, kx_fp, y):
    # W-sections have a base too, and it is the right module
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    w = double_origin_plane(ring).overlap
    with pytest.raises(ValueError):
        matlis_dual_map(f, target=sections_window(f.source, w, WINDOW))


def test_dual_of_a_dual_map_runs_between_the_origins(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    for u in (f, g):
        du = matlis_dual_map(u)
        ddu = matlis_dual_map(du)
        assert ddu.source is u.source and ddu.target is u.target
        for d in range(-4, 5):
            assert ddu.matrix(d) == u.matrix(d)


def test_dualizing_flips_exactness(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    forward = exactness_tables(f, g, WINDOW)
    assert forward.verdict == "exact"
    dg = matlis_dual_map(g)
    df = matlis_dual_map(f, source=dg.target)
    backward = exactness_tables(dg, df, WINDOW)
    assert backward.verdict == "exact"


# --- the plus functor and the bidual run -----------------------------------------


def test_plus_of_structure_sheaf(scheme):
    o = scheme.structure_sheaf(window=WINDOW)
    plus = plus_functor(o)
    e = injective_hull(scheme.ring)
    for d in range(-4, 5):
        assert plus.m_U.piece(d).dim == e.piece(d).dim
        assert plus.m_V.piece(d).dim == 0  # the hull is torsion: no W-sections
    plusplus = plus_functor(plus)
    for d in range(-4, 5):
        assert plusplus.m_U.piece(d).dim == o.m_U.piece(d).dim
        assert plusplus.m_V.piece(d).dim == (d + 1 if d >= 0 else 0)


def test_plus_map_validation(scheme, kx_fp):
    o = scheme.structure_sheaf(window=WINDOW)
    k = QcohSheafOnX.glued(scheme, kx_fp, window=WINDOW)
    g = SheafMap.glued(o, k, map_from_gen_images(
        o.m_U, kx_fp, [kx_fp.gen_element(0)]
    ))
    o_plus = plus_functor(o)
    with pytest.raises(ValueError):
        plus_functor_map(g, o_plus, o_plus)


def test_bidual_pipeline_detects_lost_exactness(scheme, kx_fp, y):
    src, tgt, f_mod, g_mod = twist_sequence(scheme.ring, kx_fp, y)
    a = QcohSheafOnX.glued(scheme, src, window=WINDOW)
    b = QcohSheafOnX.glued(scheme, tgt, window=WINDOW)
    c = QcohSheafOnX.glued(scheme, kx_fp, window=WINDOW)
    f = SheafMap.glued(a, b, f_mod)
    g = SheafMap.glued(b, c, g_mod)

    report = bidual_pipeline(f, g)
    assert report.plus_over_U.verdict == "exact"
    assert report.verdict == "left-exact-only"
    v = report.bidual_over_V
    assert all(x == 0 for x in v.kernel.values())
    assert all(x == 0 for x in v.homology.values())
    assert v.cokernel == {d: (1 if d < 0 else 0) for d in range(-4, 5)}


def test_bidual_pipeline_requires_exact_input(scheme, kx_fp, y):
    # y^2 into R still composes to zero with the quotient, but the middle
    # homology is nonzero, so the pipeline must refuse to certify anything
    src = free_module(scheme.ring, (2,), name="R(-2)")
    tgt = free_module(scheme.ring, (0,), name="R")
    img = tgt.poly_act(y * y, 0) @ tgt.gen_element(0)
    f_mod = map_from_gen_images(src, tgt, [img])
    g_mod = map_from_gen_images(tgt, kx_fp, [kx_fp.gen_element(0)])
    a = QcohSheafOnX.glued(scheme, src, window=WINDOW)
    b = QcohSheafOnX.glued(scheme, tgt, window=WINDOW)
    c = QcohSheafOnX.glued(scheme, kx_fp, window=WINDOW)
    f = SheafMap.glued(a, b, f_mod)
    g = SheafMap.glued(b, c, g_mod)
    with pytest.raises(ValueError):
        bidual_pipeline(f, g)
