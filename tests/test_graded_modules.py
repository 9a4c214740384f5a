"""Graded rings, finitely presented modules, and degreewise maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcverify import (
    FPGradedModule,
    FieldSpec,
    GradedModuleMap,
    HomogPoly,
    Mat,
    NonHomogeneousError,
    PolyRing,
    RelationNotKilled,
    cokernel_dw,
    direct_sum,
    free_module,
    hom_piece,
    image_dw,
    kernel_dw,
    map_from_gen_images,
    tensor_piece,
    verify_action_commutation,
    verify_naturality,
)
from qcverify.exact_linalg import rank
from qcverify.graded_modules import ALL_TORSION


# --- ring and polynomials ------------------------------------------------


def test_ring_dimensions(ring):
    assert [ring.dim(d) for d in range(5)] == [1, 2, 3, 4, 5]
    assert ring.dim(-1) == 0
    assert len(ring.monomials(3)) == 4


def test_mono_index_inverts_monomials(ring):
    for d in range(4):
        for i, m in enumerate(ring.monomials(d)):
            assert ring.mono_index(d, m) == i


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


def test_fp_module_is_the_cokernel_of_its_presentation():
    for field in (FieldSpec.rationals(), FieldSpec.prime(7)):
        ring = PolyRing(field, ("x", "y"))
        x, y = ring.var_poly(0), ring.var_poly(1)
        q = HomogPoly.parse(ring, "2*x^2 - 3*x*y + 5*y^2")
        lin = HomogPoly.parse(ring, "7*x - 2*y")
        for fp in (
            FPGradedModule(ring, (1, 1), ((y, -x),)),
            FPGradedModule(ring, (0,), ((x,), (y,))),
            FPGradedModule(ring, (0, 1), ((q, lin),)),
        ):
            cok = presentation_cokernel(fp)
            for d in range(-1, 6):
                assert fp.piece(d).labels == cok.piece(d).labels, (field, fp, d)
                for v in range(2):
                    assert fp.act(v, d) == cok.act(v, d), (field, fp, d, v)


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
    im = image_dw(f)
    cok = cokernel_dw(f)
    for d in range(-3, 5):
        assert ker.piece(d).dim == 0
        assert im.piece(d).dim == max(0, d)
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


# --- hom, tensor, direct sums ----------------------------------------------


def test_hom_pieces(ring, sky_fp):
    r = free_module(ring, (0,))
    twisted = free_module(ring, (1,))
    # Hom(R(-1), R)_d is R_{d+1}
    for d in range(-2, 3):
        assert hom_piece(twisted, r, d).dim == ring.dim(d + 1)
    # no nonzero maps from the skyscraper into a torsion-free module
    for d in range(-2, 3):
        assert hom_piece(sky_fp, r, d).dim == 0
    assert hom_piece(sky_fp, sky_fp, 0).dim == 1


def test_tensor_with_skyscraper_counts_generators(ideal_fp, sky_fp):
    dims = {d: tensor_piece(ideal_fp, sky_fp, d).dim for d in range(-1, 4)}
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


def test_torsion_bounds(ring, sky_fp, kx_fp, ideal_fp, x, y):
    free = free_module(ring, (0,))
    assert free.torsion_bound(x) == 0
    assert sky_fp.torsion_bound(x) == 1
    assert kx_fp.torsion_bound(y) == 1
    # non-monomial relation: no certificate, the caller must iterate
    assert ideal_fp.torsion_bound(x) is None
    assert free.torsion_bound(x + y) == 0
    assert kx_fp.torsion_bound(x + y) is None


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
