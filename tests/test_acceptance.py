"""Acceptance gate: the eight headline checks, window [-6, 6], field Q.

Every assertion is an exact integer equality.  Each criterion prints one
PASS/FAIL line on the real stderr so it shows up even under capture.
"""

import functools
import random
import sys
import time

from qcverify import (
    DoubleGluedScheme,
    FPGradedModule,
    FieldSpec,
    OpenSubset,
    PolyRing,
    QcohSheafOnX,
    SheafMap,
    bidual_pipeline,
    cech_complex,
    direct_image_from_U,
    double_origin_plane,
    exactness_tables,
    flat_quotient_obstruction,
    flat_sections_defect,
    free_module,
    h1_window,
    injective_hull,
    kernel_dw,
    map_from_gen_images,
    matlis_dual,
    matlis_dual_map,
    sections_window,
    sequence_report,
    verify_action_commutation,
    witness_nonaffine,
)
from qcverify.exact_linalg import rank
from qcverify.verify_cli import BUILTIN_SCENARIOS, emit_report, parse_scenario, run_scenario

WINDOW = (-6, 6)
LO, HI = WINDOW

FIELD = FieldSpec.rationals()
RING = PolyRing(FIELD, ("x", "y"))
X = RING.var_poly(0)
Y = RING.var_poly(1)
W = OpenSubset(RING, (X, Y))
SCHEME = double_origin_plane(RING)

IDEAL = FPGradedModule(RING, (1, 1), ((Y, -X),), name="I")
SKY = FPGradedModule(RING, (0,), ((X,), (Y,)), name="k0")
KX = FPGradedModule(RING, (0,), ((Y,),), name="kx")


def criterion(n: int, desc: str):
    # the gate line must survive pytest's capture, so write to the real stderr
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} ({desc}): FAIL", file=sys.__stderr__)
                raise
            print(f"ACCEPTANCE {n} ({desc}): PASS", file=sys.__stderr__)

        return wrapper

    return deco


def twist_maps():
    """R(-1) --y--> R --> R/(y) as sheaf maps on the doubled plane."""
    src = free_module(RING, (1,), name="R(-1)")
    tgt = free_module(RING, (0,), name="R")
    img = tgt.poly_act(Y, 0) @ tgt.gen_element(0)
    f_mod = map_from_gen_images(src, tgt, [img])
    g_mod = map_from_gen_images(tgt, KX, [KX.gen_element(0)])
    a = QcohSheafOnX.glued(SCHEME, src, window=WINDOW)
    b = QcohSheafOnX.glued(SCHEME, tgt, window=WINDOW)
    c = QcohSheafOnX.glued(SCHEME, KX, window=WINDOW)
    return SheafMap.glued(a, b, f_mod), SheafMap.glued(b, c, g_mod)


@criterion(1, "sections of the ideal sheaf over the punctured plane")
def test_criterion_1_sections_table():
    s = sections_window(IDEAL, W, window=WINDOW)
    got = {d: s.piece(d).dim for d in range(LO, HI + 1)}
    assert got == {d: (d + 1 if d >= 0 else 0) for d in range(LO, HI + 1)}


@criterion(2, "flat-cover obstruction with affine control")
def test_criterion_2_obstruction():
    pushed = direct_image_from_U(SCHEME, IDEAL, window=WINDOW)
    cert = flat_quotient_obstruction(pushed)
    assert cert.codims == {d: (1 if d == 0 else 0) for d in range(LO, HI + 1)}
    assert cert.obstructed_degrees == (0,)

    # same module family over an affine overlap: no obstruction anywhere
    control_scheme = DoubleGluedScheme(RING, OpenSubset(RING, (X,)))
    x_ideal = free_module(RING, (1,), name="xI")
    control = direct_image_from_U(control_scheme, x_ideal, window=WINDOW)
    control_cert = flat_quotient_obstruction(control)
    assert control_cert.obstructed_degrees == ()
    assert all(v == 0 for v in control_cert.codims.values())


@criterion(3, "twist sequence drops right-exactness over W")
def test_criterion_3_star_sequence():
    f, g = twist_maps()
    assert sequence_report(f, g, "U").verdict == "exact"
    rep = sequence_report(f, g, "W")
    assert rep.kernel == {d: 0 for d in range(LO, HI + 1)}
    assert rep.homology == {d: 0 for d in range(LO, HI + 1)}
    assert rep.cokernel == {d: (1 if d < 0 else 0) for d in range(LO, HI + 1)}
    assert rep.verdict == "left-exact-only"


@criterion(4, "H^1 of the punctured plane with explicit witness")
def test_criterion_4_h1_and_witness():
    res = h1_window(free_module(RING, (0,)), W, window=WINDOW)
    assert res.dims == {d: (abs(d) - 1 if d <= -2 else 0) for d in range(LO, HI + 1)}

    wit = witness_nonaffine(W, window=WINDOW)
    assert wit is not None
    assert wit.degree == -2
    assert wit.representative == "x^-1*y^-1"
    assert wit.components == ("D(x*y)",)
    assert not wit.cocycle.is_zero()  # certified non-coboundary by rank count


@criterion(5, "bidual sequence stays left-exact-only over V")
def test_criterion_5_bidual():
    f, g = twist_maps()
    report = bidual_pipeline(f, g)
    assert report.plus_over_U.verdict == "exact"
    v = report.bidual_over_V
    assert v.kernel == {d: 0 for d in range(LO, HI + 1)}  # all three maps injective
    assert v.homology == {d: 0 for d in range(LO, HI + 1)}
    assert v.cokernel == {d: (1 if d < 0 else 0) for d in range(LO, HI + 1)}
    assert report.verdict == "left-exact-only"


@criterion(6, "zero defect for frees, defect at the origin skyscraper")
def test_criterion_6_defect_grid():
    shared_o = sections_window(free_module(RING, (0,)), W, window=WINDOW)
    for a in range(-3, 4):
        for r in range(1, 5):
            fp = free_module(RING, (a,) * r, name=f"free({a})^{r}")
            t = flat_sections_defect(fp, W, window=WINDOW, sections_o=shared_o)
            assert t.total == 0, (a, r, t.defect)
    sky_table = flat_sections_defect(SKY, W, window=WINDOW, sections_o=shared_o)
    assert sky_table.defect == {d: (1 if d == 0 else 0) for d in range(LO, HI + 1)}


@criterion(7, "random presentations: duality mirrors exactness degreewise")
def test_criterion_7_random_duality():
    rng = random.Random(112358)

    def rand_poly(degree):
        if degree < 0:
            return None
        monos = RING.monomials(degree)
        from qcverify import HomogPoly

        p = HomogPoly.zero(RING, degree)
        for m in monos:
            c = rng.randint(-2, 2)
            if c:
                p = p + HomogPoly.monomial(RING, m, FIELD.of_int(c))
        return None if p.is_zero() else p

    def rand_fp(name):
        ngens = rng.randint(1, 3)
        degs = tuple(rng.randint(0, 3) for _ in range(ngens))
        rels = []
        for _ in range(rng.randint(0, 3)):
            c = max(degs) + rng.randint(1, 2)
            col = tuple(
                rand_poly(c - e) if 0 <= c - e <= 3 else None for e in degs
            )
            rels.append(col)
        return FPGradedModule(RING, degs, tuple(rels), name=name)

    def rand_free_map(src_fp, tgt_fp):
        images = []
        for e in src_fp.gen_degrees:
            col = None
            for j, b in enumerate(tgt_fp.gen_degrees):
                p = rand_poly(e - b)
                if p is None:
                    continue
                term = tgt_fp.poly_act(p, b) @ tgt_fp.gen_element(j)
                col = term if col is None else col + term
            if col is None:
                from qcverify import Mat

                col = Mat.zeros(FIELD, tgt_fp.piece(e).dim, 1)
            images.append(col)
        return map_from_gen_images(src_fp, tgt_fp, images)

    for case in range(100):
        m = rand_fp(f"M{case}")

        # canonical cover sequence 0 -> K -> F -> M -> 0, checked then dualized
        cover = free_module(RING, m.gen_degrees, name=f"F{case}")
        pi = map_from_gen_images(cover, m, [m.gen_element(i) for i in range(m.ngens)])
        ker = kernel_dw(pi)
        forward = exactness_tables(ker.inclusion, pi, WINDOW)
        assert forward.verdict == "exact", case

        d_pi = matlis_dual_map(pi)
        d_incl = matlis_dual_map(ker.inclusion, source=d_pi.target)
        backward = exactness_tables(d_pi, d_incl, WINDOW)
        assert backward.verdict == "exact", case
        for d in range(LO, HI + 1):
            assert rank(d_pi.matrix(d)) == rank(pi.matrix(-d)), (case, d)

        # biduality: dimensions and actions return on the nose
        dd = matlis_dual(matlis_dual(m))
        for d in range(LO, HI + 1):
            assert dd.piece(d).dim == m.piece(d).dim, (case, d)
        for d in range(-2, 2):
            for v in range(2):
                assert dd.act(v, d) == m.act(v, d), (case, d, v)

        # a random map between random frees dualizes to the mirrored ranks
        f1 = free_module(RING, tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        f2 = free_module(RING, tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        phi = rand_free_map(f1, f2)
        d_phi = matlis_dual_map(phi)
        for d in range(LO, HI + 1):
            assert rank(d_phi.matrix(d)) == rank(phi.matrix(-d)), (case, d)


@criterion(8, "infrastructure: complexes, commutation, determinism")
def test_criterion_8_infrastructure():
    # Cech differentials square to zero in every realized degree
    three = OpenSubset(RING, (X, Y, X + Y))
    c = cech_complex(free_module(RING, (0,)), three, window=WINDOW, cap=14)
    for d in range(LO, HI + 1):
        cd = c.degree(d)
        assert len(cd.diffs) == 2
        assert (cd.diffs[1] @ cd.diffs[0]).is_zero(), d

    # variable actions commute on every kind of module the engine builds
    e = injective_hull(RING)
    gx = QcohSheafOnX.glued(SCHEME, IDEAL, window=WINDOW).x_sections()
    for mod in (
        free_module(RING, (0,)),
        IDEAL,
        SKY,
        KX,
        sections_window(free_module(RING, (0,)), W, window=WINDOW),
        e,
        matlis_dual(e),
        gx,
    ):
        verify_action_commutation(mod, LO, HI)

    # two fresh runs of every built-in emit byte-identical JSON, each < 60 s
    for name, text in sorted(BUILTIN_SCENARIOS.items()):
        outputs = []
        for _ in range(2):
            t0 = time.monotonic()
            rep = run_scenario(parse_scenario(text, name=name))
            elapsed = time.monotonic() - t0
            assert elapsed < 60.0, (name, elapsed)
            outputs.append(emit_report(rep, "json"))
        assert outputs[0] == outputs[1], name
