"""Sheaves on the plane with a doubled origin.

U and V are two affine planes glued along the punctured plane W.  Most
oracles below are small enough to check by hand: sections over X of an
identity-glued sheaf are pairs of module elements agreeing on W, the
skyscraper at the origin doubles, and the pushed ideal loses its
degree-zero sections.
"""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcverify import (
    BufferTooSmall,
    DoubleGluedScheme,
    FPGradedModule,
    GradedModuleMap,
    HomogPoly,
    Mat,
    OpenSubset,
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
    sections_window,
    sequence_report,
    verify_action_commutation,
    witness_nonaffine,
)
from qcverify import glued_scheme
from qcverify.exact_linalg import rank, solve
from qcverify.graded_modules import GradedPiece
from qcverify.localization_cech import SectionsModule, _num_degrees
from qcverify.verify_cli import BUILTIN_SCENARIOS, parse_scenario, run_scenario
from test_graded_modules import FIELDS, RINGS, fp_modules
from test_localization_cech import binomial_presentations, fine_graded

WINDOW = (-3, 4)


def glued(scheme, fp, window=WINDOW):
    return QcohSheafOnX.glued(scheme, fp, window=window)


def o_sections(cover, window):
    """Gamma(W, O) on the cover, as the defect and the obstruction read it."""
    return sections_window(free_module(cover.ring), cover, window)


def obstruction(sheaf):
    return flat_quotient_obstruction(sheaf, o_sections(sheaf.scheme.overlap, sheaf.window))


def ideal_inclusion(scheme, ideal_fp, o_fp, x, y, window=WINDOW):
    gx = o_fp.poly_act(x, 0) @ o_fp.gen_element(0)
    gy = o_fp.poly_act(y, 0) @ o_fp.gen_element(0)
    return map_from_gen_images(ideal_fp, o_fp, [gx, gy])


# --- sections over the four opens -------------------------------------------


def test_structure_sheaf_sections_on_x(scheme):
    s = glued(scheme, free_module(scheme.ring))
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
    assert sheaf_sections(s, "W") is s.w_sections() is v


def test_identity_gluing_requires_shared_module(scheme, o_fp):
    other = free_module(scheme.ring, (0,))
    with pytest.raises(ValueError):
        QcohSheafOnX(scheme, o_fp, other)


def _koszul_ideal(ring, x, y):
    # double-origin-flat's ideal, made afresh so that no live sections
    # module already holds its complexes
    return FPGradedModule(ring, (1, 1), ((y, -x),), name="I")


def test_the_gluing_is_read_off_the_modules(scheme, ring, x, y, o_fp):
    m = _koszul_ideal(ring, x, y)
    assert QcohSheafOnX(scheme, m, m).gluing == "identity"
    assert direct_image_from_U(scheme, m, window=(-2, 2)).gluing == "direct-image"
    # W-sections of another module, and sections of m on another cover
    # object with the same denominators, are not a direct image of m
    for m_v in (sections_window(o_fp, scheme.overlap, (-2, 2)),
                sections_window(m, OpenSubset(ring, (x, y)), (-2, 2))):
        with pytest.raises(ValueError, match="the V-patch module must be"):
            QcohSheafOnX(scheme, m, m_v)


def test_only_the_w_sections_check_builds_the_v_side(complexes_built, scheme, ring, x, y):
    # Gamma(W) of a direct image is its V patch; the sections of that
    # patch are built only to compare the two sides, for sections over W
    s = direct_image_from_U(scheme, _koszul_ideal(ring, x, y), window=(-2, 2))
    for d in range(-2, 3):
        s.w_sections().piece(d)
        s.x_sections().piece(d)
    assert {m.name for m, _, _ in complexes_built} == {"I"}
    sheaf_sections(s, "W")
    assert [cap for m, _, cap in complexes_built if m.name == "sections(I)"] == [3, 2, 1]


def test_unknown_open_rejected(scheme):
    s = glued(scheme, free_module(scheme.ring))
    with pytest.raises(ValueError):
        sheaf_sections(s, "Y")


def test_x_sections_carry_commuting_actions(scheme, ideal_fp):
    s = glued(scheme, ideal_fp)
    verify_action_commutation(sheaf_sections(s, "X"), -1, 3)


# --- flat-cover obstruction ---------------------------------------------------


def test_ideal_sheaf_is_obstructed_at_degree_zero(scheme, ideal_fp):
    s = glued(scheme, ideal_fp, window=(-2, 3))
    cert = obstruction(s)
    assert cert.obstructed_degrees == (0,)
    assert cert.codims[0] == 1
    assert all(cert.codims[d] == 0 for d in cert.codims if d != 0)
    assert cert.verdict == "obstructed"


def test_structure_sheaf_is_unobstructed(scheme):
    cert = obstruction(glued(scheme, free_module(scheme.ring), window=(-2, 3)))
    assert cert.obstructed_degrees == ()
    assert cert.verdict == "no-obstruction-in-window"


@pytest.mark.parametrize("case", ["binomial", "x-torsion", "affine"])
def test_the_obstruction_escalates_outside_the_proven_class(complexes_built, ring, x, y, case):
    # the ideal (x, y) on the generators x + y and x - y has a binomial
    # column but no x- or y-torsion, so its caps are proven (the Koszul
    # class of _proven_cap_floor) and O is built at its floor caps 1, 2, 3
    # alone.  R/(x^2 + xy) has x-torsion and the overlap D(x) is affine:
    # neither has proven caps, so the table is accepted only once three
    # caps agree
    caps = [6, 8, 10]
    if case == "binomial":
        scheme = double_origin_plane(ring)
        m = FPGradedModule(ring, (1, 1), ((x - y, -(x + y)),), name="I")
        want = {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
        caps = [1, 2, 3]
    elif case == "x-torsion":
        scheme = double_origin_plane(ring)
        m = FPGradedModule(ring, (0,), ((x * x + x * y,),), name="T")
        want = {-2: 2, -1: 2, 0: 1, 1: 0, 2: 0}
    else:
        scheme = DoubleGluedScheme(OpenSubset(ring, (x,)))
        m = free_module(ring, (1,), name="I")
        want = {d: 0 for d in range(-2, 3)}
    cert = obstruction(direct_image_from_U(scheme, m, window=(-2, 2)))
    assert cert.codims == want
    assert cert.cap == 6
    caps_o = sorted({cap for module, _, cap in complexes_built if module.name == "O"})
    assert caps_o == caps


def test_obstruction_needs_fp_module(scheme, ideal_fp, o_fp, x, y):
    f = ideal_inclusion(scheme, ideal_fp, o_fp, x, y)
    ker = kernel_dw(f)  # degreewise module with no presentation attached
    s = QcohSheafOnX.glued(scheme, ker, window=(-2, 2))
    with pytest.raises(ValueError):
        obstruction(s)


def test_buffer_guard_rejects_far_generators(scheme):
    high = free_module(scheme.ring, (8,))
    s = glued(scheme, high, window=(-2, 2))
    with pytest.raises(BufferTooSmall):
        obstruction(s)


def test_a_generator_multiple_outside_h0_is_refused(monkeypatch, scheme, ideal_fp):
    # every a * gen_i made one nonzero entry in chart 0's block: the ideal is
    # torsion-free, so that cochain restricts to nonzero on D(xy) and is not
    # a section; the check says so, and a run reports a check-error
    def off_h0(pieces_from, pieces_to, num_degrees, numer, vecs, after=None):
        cols = [{}] * vecs.ncols
        if cols and pieces_to[0].dim:
            cols[0] = {0: 1}
        return Mat(vecs.field, len(cols), sum(p.dim for p in pieces_to), cols).transpose()

    monkeypatch.setattr(glued_scheme, "_cochain_apply", off_h0)
    with pytest.raises(ArithmeticError, match="a generator multiple is not a section"):
        obstruction(glued(scheme, ideal_fp, window=(-2, 2)))
    text = BUILTIN_SCENARIOS["double-origin-flat"]
    text = text[:text.index("[check")] + "[check obstruction ideal]\n"
    (check,) = run_scenario(parse_scenario(text, window=(-2, 2))).checks
    assert check.verdict == "check-error"
    assert check.flags[0].startswith("error: a generator multiple is not a section")


@given(field=st.sampled_from(FIELDS[:2]), kind=st.sampled_from(["fine-graded", "binomial"]),
       data=st.data())
@settings(max_examples=20, deadline=None)
def test_obstruction_flag_matches_the_level_zero_status_scan(field, kind, data):
    # the kernels flag reads the certificates of every Cech level at the
    # accepted cap; the oracle scans the statuses of level 0 only, in every
    # window degree of M and of O
    ring = RINGS[field]
    draw = fine_graded(ring) if kind == "fine-graded" else binomial_presentations(ring)
    m = FPGradedModule(ring, *data.draw(draw))
    scheme = double_origin_plane(ring)
    window = (-2, 2)
    for sheaf in (glued(scheme, m, window), direct_image_from_U(scheme, m, window)):
        sections_o = sections_window(free_module(ring), scheme.overlap, window)
        cert = flat_quotient_obstruction(sheaf, sections_o)
        statuses = [
            p.status
            for s in (sheaf.w_sections(), sections_o)
            for d in range(window[0], window[1] + 1)
            for p in s.complexes[cert.cap].degree(d).levels[0]
        ]
        certified = all(status.startswith("certified") for status in statuses)
        assert ("kernels-certified" if certified else "kernels-heuristic") in cert.flags


# --- nonaffineness witness -----------------------------------------------------


def test_witness_on_punctured_plane(ring, w):
    wit = witness_nonaffine(sections_window(free_module(ring), w, (-3, 3)))
    assert wit is not None
    assert wit.degree == -2
    assert wit.representative == "x^-1*y^-1"
    assert wit.components == ("D(x*y)",)


def test_no_witness_on_affine_chart(ring, x):
    dx = OpenSubset(ring, (x,))
    # H^1 of an affine chart is 0 in every degree, so the scan finds no class
    assert witness_nonaffine(sections_window(free_module(ring), dx, (-3, 3))) is None


def test_no_witness_for_line_module(w, kx_fp):
    assert witness_nonaffine(sections_window(kx_fp, w, (-3, 3))) is None


def _survives_lift(s, wit, step=2):
    """Whether the witness cocycle, lifted from its cap to cap + step, is
    still not a coboundary there."""
    w, module = s.cover, s.base
    cap = wit.cap
    cech = s.complexes[cap].degree(wit.degree)
    cech2 = s.complexes[cap + step].degree(wit.degree)
    blocks = {}
    pos = 0
    pieces = zip(combinations(range(w.n), 2), cech.levels[1], _num_degrees(w, 1, wit.degree, cap))
    for k, (pair, lp, num_degree) in enumerate(pieces):
        block = wit.cocycle.take_rows(pos, pos + lp.dim)
        pos += lp.dim
        mult = module.power_act(w.product(pair), step, num_degree)
        blocks[k, 0] = cech2.levels[1][k].proj @ (mult @ (lp.incl @ block))
    lifted = Mat.block(module.ring.field, blocks)
    d0 = cech2.diffs[0]
    return rank(d0.hstack(lifted)) == rank(d0) + 1


# the witness skips its own lift where the cap is proven; the lift is
# checked here instead.  A proven degree's H^1 is built at its floor cap,
# and the witness is read at the start cap it reports
def test_witness_of_h1_punctured_survives_the_lift():
    s = parse_scenario(BUILTIN_SCENARIOS["h1-punctured"], window=(-6, 6))
    h1 = sections_window(s.modules["O"], s.overlap, s.window, s.start)
    wit = witness_nonaffine(h1)
    assert wit.degree == -2 and h1._caps(wit.degree) == [1]
    assert wit.cap == h1.caps[0] == 14
    assert _survives_lift(h1, wit)


@pytest.mark.parametrize("e", range(-2, 3))
def test_witness_of_a_shifted_free_module_survives_the_lift(ring, w, e):
    h1 = sections_window(free_module(ring, (e,)), w, window=(-4, 4))
    wit = witness_nonaffine(h1)
    assert wit.degree == e - 2
    # the floor of R(-e) is e - 1, so H^1 in degree e - 2 is built at cap 1
    assert h1._caps(wit.degree) == [1]
    assert wit.cap == h1.caps[0] == 10
    assert _survives_lift(h1, wit)


# --- tensor-vs-sections defect ---------------------------------------------------


def test_free_modules_have_zero_defect(scheme, w):
    for shifts in ((0,), (2,), (-1, 1)):
        t = flat_sections_defect(free_module(scheme.ring, shifts), o_sections(w, (-2, 3)))
        assert t.total == 0


def test_skyscraper_defect_is_one_at_origin_degree(sky_fp, w):
    t = flat_sections_defect(sky_fp, o_sections(w, (-2, 3)))
    assert t.defect == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 0}
    assert t.kernel[0] == 1 and t.cokernel[0] == 0


def test_ideal_defect_shows_missing_section(ideal_fp, w):
    t = flat_sections_defect(ideal_fp, o_sections(w, (-2, 3)))
    # gen (x) sections only reach the ideal's multiples in degree 0
    assert t.kernel[0] == 0 and t.cokernel[0] == 1
    assert all(t.defect[d] == 0 for d in t.defect if d != 0)


def test_defect_is_additive_on_presentations(ring, w, x, y, sky_fp):
    # skyscraper plus a free summand, presented on two generators
    both = FPGradedModule(ring, (0, 0), ((x, None), (y, None)), name="k0+R")
    t = flat_sections_defect(both, o_sections(w, (-2, 2)))
    single = flat_sections_defect(sky_fp, o_sections(w, (-2, 2)))
    assert t.defect == single.defect


def test_a_defect_is_kept_on_the_structure_sections_it_was_taken_against(
        monkeypatch, ring, w, x, y):
    # a twist's defect in degree d is its source's in degree d - s, kept on
    # the Gamma(W, O) it was taken against: the twist compares only the
    # degree its source has not, and Gamma(W, O) at another start cap, or
    # of another O, reads nothing of the first and compares every degree
    calls = []
    real = glued_scheme.tensor_relations

    def spy(module, n, d):
        calls.append((module.source or module, d - module.shift))
        return real(module, n, d)

    monkeypatch.setattr(glued_scheme, "tensor_relations", spy)
    window = (-2, 2)
    m = FPGradedModule(ring, (1, 1), ((y, -x),), name="I")
    twist = m.twist(1)
    o = o_sections(w, window)
    first = [flat_sections_defect(f, o) for f in (m, twist)]
    assert [k for _, k in calls] == [-2, -1, 0, 1, 2, -3]
    assert {source for source, _ in calls} == {m}
    tables = [(t.kernel, t.cokernel) for t in first]
    assert tables[0][1] == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    # they are those of two presentations that share nothing
    for e, table in zip((1, 2), tables):
        t = flat_sections_defect(FPGradedModule(ring, (e, e), ((y, -x),)), o_sections(w, window))
        assert (t.kernel, t.cokernel) == table
    for other in (sections_window(o.base, w, window, start=9), o_sections(w, window)):
        calls.clear()
        again = [flat_sections_defect(f, other) for f in (m, twist)]
        assert [k for _, k in calls] == [-2, -1, 0, 1, 2, -3]
        assert [(t.kernel, t.cokernel) for t in again] == tables


@pytest.mark.parametrize("degrees", [(-1, 0, 2), (3, 3), (0, 0, 0, 1)], ids=str)
@pytest.mark.parametrize("field", FIELDS[:2], ids=str)
def test_a_free_modules_comparison_is_the_sum_of_os(monkeypatch, field, degrees):
    # F = ⊕_i R(-e_i) compares nothing of its own: its kernel and rank in
    # degree d are the sums of O's in degrees d - e_i, read under O, and
    # they are those of the comparison map taken on F itself
    ring = RINGS[field]
    w = OpenSubset(ring, (ring.var_poly(0), ring.var_poly(1)))
    window = (-2, 2)
    f = free_module(ring, degrees)
    o = o_sections(w, window)
    s_f = sections_window(f, w, window)
    calls = []
    real = glued_scheme.tensor_relations

    def spy(module, n, d):
        calls.append(module)
        return real(module, n, d)

    monkeypatch.setattr(glued_scheme, "tensor_relations", spy)
    t = flat_sections_defect(f, o)
    assert calls and all(m is o.base for m in calls)
    assert set(o._defects) == {(o.base, d - e) for d in range(-2, 3) for e in degrees}
    calls.clear()
    direct = {d: glued_scheme._comparison(f, o, d) for d in range(-2, 3)}
    assert calls == [f] * 5
    assert t.kernel == {d: k for d, (k, _) in direct.items()}
    assert t.cokernel == {d: s_f.piece(d).dim - r for d, (_, r) in direct.items()}
    assert t.total == 0


LEMMA21_F = """[ring]
variables = x, y
field = Q

[scheme]
overlap = x, y

[module F]
generators = -1, 0, 2

[check lemma21 F]
"""


@pytest.mark.parametrize("delta, verdict", [(1, "defect-found"), (-1, "check-error")])
def test_a_free_modules_own_sections_close_its_cokernel(monkeypatch, delta, verdict):
    # F's kernel and rank are O's, but its cokernel is read on Gamma(W, ~F):
    # one dimension too many there in degree 1 shows as a cokernel of 1,
    # one too few as a rank above the dimension, an ArithmeticError
    real = SectionsModule.piece

    def piece(self, d):
        got = real(self, d)
        if self.base.name != "F" or d != 1:
            return got
        return GradedPiece(got.field, got.labels + ("extra",) if delta > 0 else got.labels[1:])

    monkeypatch.setattr(SectionsModule, "piece", piece)
    (check,) = run_scenario(parse_scenario(LEMMA21_F, window=(-2, 2))).checks
    assert check.verdict == verdict
    if delta > 0:
        assert check.tables["cokernel"] == {"-2": 0, "-1": 0, "0": 0, "1": 1, "2": 0}
    else:
        assert check.flags[0].startswith("error: comparison map of F has rank above")


@pytest.mark.parametrize("shifts", [(0, 0), (1,)], ids=["O^2", "O(-1)"])
def test_wrong_structure_sections_are_rejected(scheme, ideal_fp, shifts):
    # Gamma(W, O^2) or Gamma(W, O(-1)) in place of Gamma(W, O): both checks
    # refuse it and name the module, rather than mistake it for O
    wrong = free_module(scheme.ring, shifts)
    s_wrong = sections_window(wrong, scheme.overlap, (-2, 2))
    sheaf = glued(scheme, ideal_fp, (-2, 2))
    with pytest.raises(ValueError, match=re.escape(wrong.name)):
        flat_sections_defect(ideal_fp, s_wrong)
    with pytest.raises(ValueError, match=re.escape(wrong.name)):
        flat_quotient_obstruction(sheaf, s_wrong)
    # Gamma(W, O) itself, but taken on another cover of W
    x, y = scheme.ring.var_poly(0), scheme.ring.var_poly(1)
    s_other = o_sections(OpenSubset(scheme.ring, (x, y, x + y)), (-2, 2))
    with pytest.raises(ValueError, match="structure sections live on a different cover"):
        flat_quotient_obstruction(sheaf, s_other)


# --- Gamma(W, O) = R: the comparison map is the restriction ---------------------


def restriction_tables(f, w, window):
    """On D(x) u D(y), Gamma(W, O) = R, so F (x) Gamma(W, O) = F and the
    comparison map of the defect is the restriction F -> Gamma(W, ~F)."""
    s_f = sections_window(f, w, window)
    kernel, cokernel = {}, {}
    for d in range(window[0], window[1] + 1):
        r = rank(s_f.restriction_matrix(d))
        kernel[d] = f.piece(d).dim - r
        cokernel[d] = s_f.piece(d).dim - r
    return kernel, cokernel


def fixed_modules(ring):
    x, y = ring.var_poly(0), ring.var_poly(1)
    q = HomogPoly.parse(ring, "2*x^2 - 3*x*y + 5*y^2")
    lin = HomogPoly.parse(ring, "7*x - 2*y")
    return (
        free_module(ring, (0, 2)),
        FPGradedModule(ring, (1, 1), ((y, -x),), name="I"),
        FPGradedModule(ring, (0,), ((x,), (y,)), name="k0"),
        FPGradedModule(ring, (0, 1), ((q, lin),), name="N"),
        FPGradedModule(ring, (0,), ((x * x,),), name="R/(x^2)"),
    )


def punctured_plane(ring, sum_cover):
    """D(x) u D(y), or the same open covered by D(x), D(y) and D(x + y): a
    cover that is not the variables, with a non-monomial denominator."""
    x, y = ring.var_poly(0), ring.var_poly(1)
    return OpenSubset(ring, (x, y, x + y) if sum_cover else (x, y))


FIXED_NAMES = ("free(0,2)", "ideal", "skyscraper", "non-unit-N", "x-squared")
FIXED_CASES = [(field, k, sum_cover) for sum_cover in (False, True) for field in FIELDS
               for k in range(len(FIXED_NAMES))]


@pytest.mark.parametrize(
    "field,k,sum_cover", FIXED_CASES,
    ids=[f"{field}-{FIXED_NAMES[k]}" + ("-with-x+y" if sum_cover else "")
         for field, k, sum_cover in FIXED_CASES])
def test_defect_and_obstruction_match_the_restriction(field, k, sum_cover):
    # three opens make every Cech degree larger; a narrower window keeps it quick
    window = (-2, 2) if sum_cover else (-3, 3)
    f = fixed_modules(RINGS[field])[k]
    scheme = DoubleGluedScheme(punctured_plane(f.ring, sum_cover))
    w = scheme.overlap
    kernel, cokernel = restriction_tables(f, w, window)
    t = flat_sections_defect(f, o_sections(w, window))
    assert (t.kernel, t.cokernel) == (kernel, cokernel)
    # the obstruction measures the same span at uniform caps, per sheaf
    for sheaf in (glued(scheme, f, window), direct_image_from_U(scheme, f, window)):
        assert obstruction(sheaf).codims == cokernel


@given(fp_modules())
@settings(max_examples=40, deadline=None)
def test_defect_of_random_presentations_matches_the_restriction(f):
    window = (-2, 2)
    w = double_origin_plane(f.ring).overlap
    t = flat_sections_defect(f, o_sections(w, window))
    assert (t.kernel, t.cokernel) == restriction_tables(f, w, window)


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


def test_maps_on_x_sections_are_read_without_a_solve(coordinate_calls, scheme, ideal_fp,
                                                     o_fp, x, y):
    f = SheafMap.glued(glued(scheme, ideal_fp), glued(scheme, o_fp),
                       ideal_inclusion(scheme, ideal_fp, o_fp, x, y))
    ks, kt = f.source.x_sections(), f.target.x_sections()
    on_x = f.on_sections("X")
    for d in range(*WINDOW):
        both = Mat.block(scheme.ring.field, {(0, 0): f.u_U.matrix(d), (1, 1): f.u_V.matrix(d)})
        assert on_x.matrix(d) == solve(kt.basis(d), both @ ks.basis(d))
    assert coordinate_calls["solve"] == 0
    assert coordinate_calls["kernel_coords"] > 0


def test_patch_maps_that_break_the_equalizer_are_rejected(scheme, o_fp):
    # the identity on U and zero on V send the constant 1 to (1, 0), which
    # does not glue
    s = glued(scheme, o_fp)
    field = scheme.ring.field
    ident = GradedModuleMap(o_fp, o_fp, lambda d: Mat.identity(field, o_fp.piece(d).dim))
    zero = GradedModuleMap(o_fp, o_fp, lambda d: Mat.zeros(field, o_fp.piece(d).dim,
                                                            o_fp.piece(d).dim))
    u = SheafMap(s, s, ident, zero, name="u")
    with pytest.raises(ArithmeticError, match=re.escape(
            "u: patch maps do not respect the equalizer in degree 0")):
        u.on_sections("X").matrix(0)


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
    ident = SheafMap.glued(s, s, GradedModuleMap(
        o_fp, o_fp, lambda d: Mat.identity(o_fp.ring.field, o_fp.piece(d).dim)))
    rep = sequence_report(ident, ident, "U")
    assert rep.verdict == "not-exact"
    assert not rep.complex_ok and "not-a-complex" in rep.flags


def test_sheaf_map_patch_validation(scheme, o_fp, sky_fp):
    so = glued(scheme, o_fp)
    pushed = direct_image_from_U(scheme, sky_fp, window=WINDOW)
    g = sky_quotient(scheme, o_fp, sky_fp)
    with pytest.raises(ValueError):
        SheafMap.glued(so, pushed, g)  # mixed gluing styles
