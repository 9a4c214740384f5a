"""Sheaves on the plane with a doubled origin.

U and V are two affine planes glued along the punctured plane W.  Most
oracles below are small enough to check by hand: sections over X of an
identity-glued sheaf are pairs of module elements agreeing on W, the
skyscraper at the origin doubles, and the pushed ideal loses its
degree-zero sections.
"""

import pytest

from qcverify import (
    BufferTooSmall,
    FPGradedModule,
    QcohSheafOnX,
    SheafMap,
    direct_image_from_U,
    double_origin_plane,
    flat_quotient_obstruction,
    flat_sections_defect,
    free_module,
    kernel_dw,
    map_from_gen_images,
    sheaf_sections,
    sequence_report,
    verify_action_commutation,
    witness_nonaffine,
)

WINDOW = (-3, 4)


def glued(scheme, fp, window=WINDOW):
    return QcohSheafOnX.glued(scheme, fp, window=window)


def ideal_inclusion(scheme, ideal_fp, o_fp, x, y, window=WINDOW):
    gx = o_fp.poly_act(x, 0) @ o_fp.gen_element(0)
    gy = o_fp.poly_act(y, 0) @ o_fp.gen_element(0)
    return map_from_gen_images(ideal_fp, o_fp, [gx, gy])


# --- sections over the four opens -------------------------------------------


def test_structure_sheaf_sections_on_x(scheme):
    s = scheme.structure_sheaf(window=WINDOW)
    got = [sheaf_sections(s, "X").piece(d).dim for d in range(-3, 5)]
    assert got == [0, 0, 0, 1, 2, 3, 4, 5]


def test_skyscraper_doubles_on_x(scheme, sky_fp):
    s = glued(scheme, sky_fp)
    gx = sheaf_sections(s, "X")
    assert [gx.piece(d).dim for d in range(-2, 3)] == [0, 0, 2, 0, 0]
    # over each patch it is the ordinary skyscraper
    assert sheaf_sections(s, "U").piece(0).dim == 1
    assert sheaf_sections(s, "W").piece(0).dim == 0


def test_pushed_ideal_loses_degree_zero(scheme, ideal_fp):
    s = direct_image_from_U(scheme, ideal_fp, window=WINDOW)
    v = sheaf_sections(s, "V")
    xx = sheaf_sections(s, "X")
    assert [v.piece(d).dim for d in range(0, 4)] == [1, 2, 3, 4]
    assert [xx.piece(d).dim for d in range(0, 4)] == [0, 2, 3, 4]
    # the W computation agrees whether done from U or from V
    s.w_sections(compare=True)


def test_identity_gluing_requires_shared_module(scheme, o_fp):
    other = free_module(scheme.ring, (0,))
    with pytest.raises(ValueError):
        QcohSheafOnX(scheme, o_fp, other, "identity")


def test_unknown_open_rejected(scheme):
    s = scheme.structure_sheaf(window=WINDOW)
    with pytest.raises(ValueError):
        sheaf_sections(s, "Y")


def test_x_sections_carry_commuting_actions(scheme, ideal_fp):
    s = glued(scheme, ideal_fp)
    verify_action_commutation(sheaf_sections(s, "X"), -1, 3)


# --- flat-cover obstruction ---------------------------------------------------


def test_ideal_sheaf_is_obstructed_at_degree_zero(scheme, ideal_fp):
    s = glued(scheme, ideal_fp, window=(-2, 3))
    cert = flat_quotient_obstruction(s)
    assert cert.obstructed_degrees == (0,)
    assert cert.codims[0] == 1
    assert all(cert.codims[d] == 0 for d in cert.codims if d != 0)
    assert cert.verdict == "obstructed(0)"


def test_structure_sheaf_is_unobstructed(scheme):
    cert = flat_quotient_obstruction(scheme.structure_sheaf(window=(-2, 3)))
    assert cert.obstructed_degrees == ()
    assert cert.verdict == "no-obstruction-in-window"


def test_obstruction_needs_fp_module(scheme, ideal_fp, o_fp, x, y):
    f = ideal_inclusion(scheme, ideal_fp, o_fp, x, y)
    ker = kernel_dw(f)  # degreewise module with no presentation attached
    s = QcohSheafOnX.glued(scheme, ker, window=(-2, 2))
    with pytest.raises(ValueError):
        flat_quotient_obstruction(s)


def test_buffer_guard_rejects_far_generators(scheme):
    high = free_module(scheme.ring, (8,))
    s = glued(scheme, high, window=(-2, 2))
    with pytest.raises(BufferTooSmall):
        flat_quotient_obstruction(s)


# --- nonaffineness witness -----------------------------------------------------


def test_witness_on_punctured_plane(scheme, w):
    wit = witness_nonaffine(w, window=(-3, 3))
    assert wit is not None
    assert wit.degree == -2
    assert wit.representative == "x^-1*y^-1"
    assert wit.components == ("D(x*y)",)


def test_no_witness_on_affine_chart(ring, x):
    from qcverify import OpenSubset

    dx = OpenSubset(ring, (x,))
    assert witness_nonaffine(dx, window=(-3, 3)) is None


def test_no_witness_for_line_module(w, kx_fp):
    assert witness_nonaffine(w, window=(-3, 3), module=kx_fp) is None


# --- tensor-vs-sections defect ---------------------------------------------------


def test_free_modules_have_zero_defect(scheme, w):
    for shifts in ((0,), (2,), (-1, 1)):
        t = flat_sections_defect(free_module(scheme.ring, shifts), w, window=(-2, 3))
        assert t.total == 0


def test_skyscraper_defect_is_one_at_origin_degree(sky_fp, w):
    t = flat_sections_defect(sky_fp, w, window=(-2, 3))
    assert t.defect == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 0}
    assert t.kernel[0] == 1 and t.cokernel[0] == 0


def test_ideal_defect_shows_missing_section(ideal_fp, w):
    t = flat_sections_defect(ideal_fp, w, window=(-2, 3))
    # gen (x) sections only reach the ideal's multiples in degree 0
    assert t.kernel[0] == 0 and t.cokernel[0] == 1
    assert all(t.defect[d] == 0 for d in t.defect if d != 0)


def test_defect_is_additive_on_presentations(ring, w, x, y, sky_fp):
    # skyscraper plus a free summand, presented on two generators
    both = FPGradedModule(ring, (0, 0), ((x, None), (y, None)), name="k0+R")
    t = flat_sections_defect(both, w, window=(-2, 2))
    single = flat_sections_defect(sky_fp, w, window=(-2, 2))
    assert t.defect == single.defect


# --- exactness of section sequences ------------------------------------------------


def sky_quotient(scheme, o_fp, sky_fp):
    return map_from_gen_images(o_fp, sky_fp, [sky_fp.gen_element(0)])


def test_ideal_sequence_exact_on_patches_not_on_x(scheme, ideal_fp, o_fp, sky_fp, x, y):
    f_mod = ideal_inclusion(scheme, ideal_fp, o_fp, x, y)
    g_mod = sky_quotient(scheme, o_fp, sky_fp)
    si = glued(scheme, ideal_fp)
    so = glued(scheme, o_fp)
    sk = glued(scheme, sky_fp)
    f = SheafMap.glued(si, so, f_mod)
    g = SheafMap.glued(so, sk, g_mod)

    assert sequence_report(f, g, "U").verdict == "exact"
    assert sequence_report(f, g, "W").verdict == "exact"
    on_x = sequence_report(f, g, "X")
    # both origins carry the skyscraper but global functions see only one value
    assert on_x.verdict == "left-exact-only"
    assert on_x.cokernel[0] == 1
    assert all(v == 0 for d, v in on_x.cokernel.items() if d != 0)


def test_twist_sequence_left_exact_only_on_w(scheme, kx_fp, y):
    src = free_module(scheme.ring, (1,), name="R(-1)")
    tgt = free_module(scheme.ring, (0,), name="R")
    img = tgt.poly_act(y, 0) @ tgt.gen_element(0)
    f_mod = map_from_gen_images(src, tgt, [img])
    g_mod = map_from_gen_images(tgt, kx_fp, [kx_fp.gen_element(0)])
    a = glued(scheme, src)
    b = glued(scheme, tgt)
    c = glued(scheme, kx_fp)
    f = SheafMap.glued(a, b, f_mod)
    g = SheafMap.glued(b, c, g_mod)

    assert sequence_report(f, g, "U").verdict == "exact"
    on_w = sequence_report(f, g, "W")
    assert on_w.verdict == "left-exact-only"
    assert on_w.kernel == {d: 0 for d in range(-3, 5)}
    assert on_w.homology == {d: 0 for d in range(-3, 5)}
    assert on_w.cokernel == {d: (1 if d < 0 else 0) for d in range(-3, 5)}


def test_non_complex_is_reported(scheme, o_fp):
    s = glued(scheme, o_fp)
    ident = SheafMap.glued(s, s, __import__("qcverify").GradedModuleMap.identity(o_fp))
    rep = sequence_report(ident, ident, "U")
    assert rep.verdict == "not-exact"
    assert not rep.complex_ok and "not-a-complex" in rep.flags


def test_sheaf_map_patch_validation(scheme, o_fp, sky_fp):
    so = glued(scheme, o_fp)
    pushed = direct_image_from_U(scheme, sky_fp, window=WINDOW)
    g = sky_quotient(scheme, o_fp, sky_fp)
    with pytest.raises(ValueError):
        SheafMap.glued(so, pushed, g)  # mixed gluing styles
