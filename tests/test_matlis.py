"""Graded duality: the injective hull, dualized modules, and the bidual run.

Dual pieces are transposes of the original action matrices at negated
degrees, so every oracle here has a mirror-image statement about the
underlying module that can be checked by hand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcverify import (
    DualizedModule,
    FPGradedModule,
    GradedModuleMap,
    OpenSubset,
    SheafMap,
    QcohSheafOnX,
    SectionsModule,
    bidual_pipeline,
    direct_image_from_U,
    double_origin_plane,
    exactness_tables,
    free_module,
    injective_hull,
    localize_piece,
    map_from_gen_images,
    matlis_dual,
    matlis_dual_map,
    sections_induced_map,
    sections_window,
    sequence_report,
    verify_action_commutation,
    verify_naturality,
)
from qcverify.exact_linalg import rank
from qcverify.localization_cech import _num_degrees
from test_graded_modules import FIELDS, RINGS, fp_modules, homog_polys

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
    # delegated torsion certificates, repeat those of m degree by degree.
    # The double dual has no floor and escalates; where m is proven, m sits
    # at its floor cap and the double dual settles at the start cap
    window = (-2, 2)
    w = double_origin_plane(m.ring).overlap
    s_m = sections_window(m, w, window)
    s_dd = sections_window(DualizedModule(DualizedModule(m)), w, window)
    for d in range(window[0], window[1] + 1):
        assert s_dd.piece(d).dim == s_m.piece(d).dim, d
        cap_dd, dim_dd = s_dd._stable("h0_dim", d)[:2]
        floor = s_m.floor_cap(d)
        if floor is None:
            assert s_m._stable("h0_dim", d)[:2] == (cap_dd, dim_dd), d
        else:
            assert cap_dd == s_m.caps[0], d
            assert s_m._stable("h0_dim", d)[:2] == (floor, dim_dd), d
        assert s_dd.h0(d)[2].certified == s_m.h0(d)[2].certified, d


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
    # multiplication is eventually zero on every element, so it localizes
    # to zero, certified
    for d in range(-6, -1):
        loc = localize_piece(dual, x, d, 2)
        (num_degree,) = _num_degrees(OpenSubset(ring, (x,)), 0, d, 2)
        assert dual.piece(num_degree).dim > 0
        assert loc.dim == 0 and loc.status == "certified-in-window", d
    from qcverify import HomogPoly

    assert dual.torsion(HomogPoly.constant(ring, ring.field.one)) == (0, "certified")
    bidual = DualizedModule(DualizedModule(kx_fp))
    assert bidual.torsion(y) == kx_fp.torsion(y) == (1, "certified")


# --- dual maps ------------------------------------------------------------------


def test_dual_map_mirrors_ranks(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    df = matlis_dual_map(f)
    for d in range(-4, 5):
        assert rank(df.matrix(d)) == rank(f.matrix(-d))
    verify_naturality(df, -3, 3)


def test_dual_map_contravariant(ring, kx_fp, y):
    _, _, f, g = twist_sequence(ring, kx_fp, y)
    gf = GradedModuleMap(f.source, g.target, lambda d: g.matrix(d) @ f.matrix(d))
    dual_of_composite = matlis_dual_map(gf)
    df = matlis_dual_map(f)
    dg = matlis_dual_map(g)
    assert dg.target is df.source
    for d in range(-3, 4):
        assert dual_of_composite.matrix(d) == df.matrix(d) @ dg.matrix(d)


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
    df = matlis_dual_map(f)
    backward = exactness_tables(dg, df, WINDOW)
    assert backward.verdict == "exact"


# --- the bidual run ----------------------------------------------------------


def test_the_injective_hull_has_no_w_sections(scheme):
    # O+ = push(E): the hull is torsion, so O+ has no V-sections; and
    # O++ = push(O), whose V-sections are Gamma(W, O)
    e = injective_hull(scheme.ring)
    s_e = sections_window(e, scheme.overlap, WINDOW)
    s_o = sections_window(matlis_dual(e), scheme.overlap, WINDOW)
    for d in range(-4, 5):
        assert s_e.piece(d).dim == 0
        assert s_o.piece(d).dim == (d + 1 if d >= 0 else 0)


def reference_bidual_over_v(f: SheafMap, g: SheafMap):
    """A++ -> B++ -> C++ over V, built as sheaves: each S++ is the
    pushforward of an explicit DualizedModule(DualizedModule(S_U)), and
    each map's U-matrices are transposes of transposes of the original's,
    with V-maps induced on the V-sections."""
    def plusplus(s):
        dd = DualizedModule(DualizedModule(s.m_U))
        return direct_image_from_U(s.scheme, dd, window=s.window, start=s.start)

    def plusplus_map(u, src, tgt):
        m = GradedModuleMap(src.m_U, tgt.m_U,
                            lambda d: u.u_U.matrix(d).transpose().transpose())
        return SheafMap(src, tgt, m, sections_induced_map(m, src.m_V, tgt.m_V))

    a, b, c = plusplus(f.source), plusplus(f.target), plusplus(g.target)
    return sequence_report(plusplus_map(f, a, b), plusplus_map(g, b, c), "V")


def glued_sequence(scheme, a, b, c, f_mod, g_mod, window=WINDOW):
    sa, sb, sc = (QcohSheafOnX.glued(scheme, m, window=window) for m in (a, b, c))
    return SheafMap.glued(sa, sb, f_mod), SheafMap.glued(sb, sc, g_mod)


def test_bidual_pipeline_detects_lost_exactness(scheme, kx_fp, y):
    src, tgt, f_mod, g_mod = twist_sequence(scheme.ring, kx_fp, y)
    f, g = glued_sequence(scheme, src, tgt, kx_fp, f_mod, g_mod)

    report = bidual_pipeline(f, g)
    assert report.plus_over_U.verdict == "exact"
    assert report.verdict == "left-exact-only"
    v = report.bidual_over_V
    assert all(x == 0 for x in v.kernel.values())
    assert all(x == 0 for x in v.homology.values())
    assert v.cokernel == {d: (1 if d < 0 else 0) for d in range(-4, 5)}
    assert v == reference_bidual_over_v(f, g)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=12, deadline=None)
def test_bidual_over_v_matches_the_sheaf_construction(field, data):
    # A -p-> O -> O/(p) for a random nonzero form p of degree 1 or 2
    ring = RINGS[field]
    deg = data.draw(st.integers(1, 2))
    p = data.draw(homog_polys(ring, deg).filter(lambda q: not q.is_zero()))
    a = free_module(ring, (deg,), name="A")
    o = free_module(ring, (0,), name="O")
    c = FPGradedModule(ring, (0,), ((p,),), name="C")
    f_mod = map_from_gen_images(a, o, [o.poly_act(p, 0) @ o.gen_element(0)])
    g_mod = map_from_gen_images(o, c, [c.gen_element(0)])
    f, g = glued_sequence(double_origin_plane(ring), a, o, c, f_mod, g_mod, window=(-2, 2))
    assert bidual_pipeline(f, g).bidual_over_V == reference_bidual_over_v(f, g)


def test_bidual_pipeline_builds_no_sheaf_and_no_dual_sections(scheme, kx_fp, y, monkeypatch):
    src, tgt, f_mod, g_mod = twist_sequence(scheme.ring, kx_fp, y)
    f, g = glued_sequence(scheme, src, tgt, kx_fp, f_mod, g_mod)
    built = []
    for cls in (QcohSheafOnX, SheafMap, SectionsModule):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    bidual_pipeline(f, g)
    assert not [x for x in built if not isinstance(x, SectionsModule)]
    assert not [x for x in built if isinstance(x.base, DualizedModule)]


def test_bidual_pipeline_requires_exact_input(scheme, kx_fp, y):
    # y^2 into R still composes to zero with the quotient, but the middle
    # homology is nonzero, so the pipeline must refuse to certify anything
    src = free_module(scheme.ring, (2,), name="R(-2)")
    tgt = free_module(scheme.ring, (0,), name="R")
    img = tgt.poly_act(y * y, 0) @ tgt.gen_element(0)
    f_mod = map_from_gen_images(src, tgt, [img])
    g_mod = map_from_gen_images(tgt, kx_fp, [kx_fp.gen_element(0)])
    f, g = glued_sequence(scheme, src, tgt, kx_fp, f_mod, g_mod)
    with pytest.raises(ValueError):
        bidual_pipeline(f, g)
