"""Localization at finite caps, Cech windows, and section modules.

The oracle dimensions here were computed by hand: sections of the structure
sheaf on the punctured plane are the polynomials themselves, H^1 has dimension
|d| - 1 in degrees <= -2, and the line module k[x] picks up Laurent sections
in every degree.
"""

import pytest

from qcverify import (
    CapExhausted,
    CapPolicy,
    FPGradedModule,
    Mat,
    OpenSubset,
    cech_complex,
    direct_sum,
    free_module,
    h1_window,
    localize_piece,
    restriction_to_sections,
    section_mult,
    sections_induced_map,
    sections_window,
    verify_action_commutation,
    verify_naturality,
    map_from_gen_images,
)
from qcverify.exact_linalg import rank
from qcverify.localization_cech import SectionElement

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


def test_heuristic_status_without_certificate(ideal_fp, x):
    # the Koszul relation is not monomial, so the kernel chain is iterated
    lp = localize_piece(ideal_fp, x, 1, 2)
    assert lp.status.startswith("heuristic")
    # I is torsion free, so nothing is quotiented away: the cap-2 realization
    # is the full numerator piece I_3
    assert lp.dim == ideal_fp.piece(3).dim == 4


def test_localize_at_zero_rejected(ring, kx_fp):
    from qcverify import HomogPoly

    with pytest.raises(ValueError):
        localize_piece(kx_fp, HomogPoly.zero(ring, 1), 0, 2)


# --- Cech complexes --------------------------------------------------------


def test_cech_h0_of_structure_sheaf(ring, w):
    m = free_module(ring, (0,))
    c = cech_complex(m, w, window=WINDOW, cap=10)
    for d in range(-4, 5):
        assert c.degree(d).h0_dim == (d + 1 if d >= 0 else 0)


def test_cech_differentials_compose_to_zero_on_three_cover(ring, x, y):
    cover = OpenSubset(ring, (x, y, x + y))
    m = free_module(ring, (0,))
    c = cech_complex(m, cover, window=(-3, 3), cap=8)
    for d in range(-3, 4):
        diffs = c.degree(d).diffs
        assert len(diffs) == 2
        assert (diffs[1] @ diffs[0]).is_zero()


def test_cover_refinement_does_not_change_h0(ring, w, x, y):
    m = free_module(ring, (0,))
    fine = OpenSubset(ring, (x, y, x + y))
    coarse = cech_complex(m, w, window=(-2, 3), cap=8)
    refined = cech_complex(m, fine, window=(-2, 3), cap=8)
    for d in range(-2, 4):
        assert coarse.degree(d).h0_dim == refined.degree(d).h0_dim


# --- sections over the punctured plane -------------------------------------


def test_sections_of_structure_sheaf(ring, w):
    s = sections_window(free_module(ring, (0,)), w, window=WINDOW)
    dims = {d: s.piece(d).dim for d in range(-4, 5)}
    assert dims == {-4: 0, -3: 0, -2: 0, -1: 0, 0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    assert s.certified(0)
    assert "kernels-certified" in s.flags(WINDOW)
    assert "stabilized" in s.flags(WINDOW)


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
    s = sections_window(free_module(ring, (0,)), dx, window=(-2, 2),
                        policy=CapPolicy(start=4, step=2, max_escalations=2))
    with pytest.raises(CapExhausted):
        s.piece(0)


def test_cap_policy_escalation_schedule():
    p = CapPolicy(start=5, step=3, max_escalations=2)
    assert p.caps((-2, 2)) == [5, 8, 11]
    assert CapPolicy().start_cap((-6, 6)) == 14


# --- H^1 --------------------------------------------------------------------


def test_h1_of_punctured_plane(ring, w):
    r = h1_window(free_module(ring, (0,)), w, window=WINDOW)
    assert r.dims == {d: (abs(d) - 1 if d <= -2 else 0) for d in range(-4, 5)}
    assert all(r.certified[d] for d in r.dims)


def test_h1_vanishes_for_line_module(kx_fp, w):
    r = h1_window(kx_fp, w, window=(-3, 3))
    assert all(v == 0 for v in r.dims.values())


def test_h1_vanishes_on_single_chart(ring, x):
    dx = OpenSubset(ring, (x,))
    r = h1_window(free_module(ring, (0,)), dx, window=(-2, 2))
    assert all(v == 0 for v in r.dims.values())


# --- restriction and multiplication -----------------------------------------


def test_restriction_is_iso_in_nonnegative_degrees(ring, w):
    m = free_module(ring, (0,))
    s = sections_window(m, w, window=WINDOW)
    res = restriction_to_sections(m, w, window=WINDOW, sections=s)
    for d in range(0, 4):
        mat = res.matrix(d)
        assert rank(mat) == d + 1 == mat.nrows == mat.ncols
    verify_naturality(res, 0, 3)


def test_restriction_of_skyscraper_is_zero(sky_fp, w):
    res = restriction_to_sections(sky_fp, w, window=(-2, 2))
    assert res.matrix(0).nrows == 0


def one_section(sections, res, fp, d, poly=None):
    """Restrict a degree-d element of the module to W."""
    if poly is None:
        coords = fp.gen_element(0)
    else:
        coords = fp.poly_act(poly, fp.gen_degrees[0]) @ fp.gen_element(0)
    return SectionElement(sections, d, res.matrix(d) @ coords)


def test_section_mult_matches_module_action(ring, kx_fp, w, x):
    # res(x) * res(1) must equal res(x * 1) in Gamma(W, k[x])
    o_fp = free_module(ring, (0,))
    s_o = sections_window(o_fp, w, window=WINDOW)
    res_o = restriction_to_sections(o_fp, w, window=WINDOW, sections=s_o)
    s_k = sections_window(kx_fp, w, window=WINDOW)
    res_k = restriction_to_sections(kx_fp, w, window=WINDOW, sections=s_k)

    a = one_section(s_o, res_o, o_fp, 1, x)
    s = one_section(s_k, res_k, kx_fp, 0)
    prod = section_mult(a, s)
    want = one_section(s_k, res_k, kx_fp, 1, x)
    assert prod.degree == 1
    assert prod.coords == want.coords


def test_section_mult_by_one_is_identity(ring, kx_fp, w):
    o_fp = free_module(ring, (0,))
    s_o = sections_window(o_fp, w, window=WINDOW)
    res_o = restriction_to_sections(o_fp, w, window=WINDOW, sections=s_o)
    s_k = sections_window(kx_fp, w, window=WINDOW)
    res_k = restriction_to_sections(kx_fp, w, window=WINDOW, sections=s_k)
    unit = one_section(s_o, res_o, o_fp, 0)
    s = one_section(s_k, res_k, kx_fp, 0)
    assert section_mult(unit, s).coords == s.coords


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


def test_induced_map_endpoint_validation(ring, w, y, kx_fp):
    src = free_module(ring, (1,))
    tgt = free_module(ring, (0,))
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    f = map_from_gen_images(src, tgt, [img])
    s_wrong = sections_window(kx_fp, w, window=(-2, 2))
    s_b = sections_window(tgt, w, window=(-2, 2))
    with pytest.raises(ValueError):
        sections_induced_map(f, s_wrong, s_b)
