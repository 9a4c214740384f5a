"""Graded Matlis duality and the double-dual exactness pipeline.

The dualizing object is the graded dual E of the polynomial ring: E_d is
the dual space of R_{-d}, with variables acting by transposed
multiplication (contraction).  E is the injective hull of the residue
field in the category of graded modules, and dualizing against it is,
degreewise, plain vector-space duality: (M^v)_d = (M_{-d})^v.

On the glued scheme this gives the one-sided dual S^+, the pushforward
from U of the dualized U-patch module.  Applying it twice and taking
sections over the other patch V is exactly the computation that
exhibits non-exactness: a short exact sequence of sheaves whose bidual
V-sections form only a left exact sequence.

Infinite products such as power series rings never appear as objects;
every statement here is per degree, where the finite-dimensional pieces
of the completed modules coincide with those of their uncompleted
sources.

For the same reason biduality holds on the nose.  Every piece is finite
dimensional, so the evaluation map M -> M^vv is an isomorphism (graded
Matlis duality), and in these realizations it is the identity: the
pieces of dual(dual(M)) have the dimensions of M's, its labels come in
the same order, and its actions are transposes of transposes.  So
matlis_dual of a dual returns the module it dualized, and the bidual of
a sheaf is computed on the sheaf's own modules, sharing their sections
(and Cech complexes) with every other check on them.
"""

from typing import NamedTuple
from weakref import WeakValueDictionary

from .graded_modules import (
    DegreewiseModule,
    GradedModuleMap,
    GradedPiece,
    HomogPoly,
    PolyRing,
    free_module,
)
from .glued_scheme import ExactnessReport, SheafMap, exactness_tables, sequence_report

__all__ = [
    "DualizedModule",
    "injective_hull",
    "matlis_dual",
    "matlis_dual_map",
    "BidualReport",
    "bidual_pipeline",
]


class DualizedModule(DegreewiseModule):
    """The graded dual Hom(M, E) of a degreewise module.

    piece(d) is the dual of base.piece(-d); x^a acting from degree d is
    the transpose of the base action of x^a landing in degree -d.  Torsion
    certificates: a nonzero constant kills nothing.  A dual of a
    bounded-below module is bounded above, so every f of positive degree
    kills each element after some power; localize_piece reads that from
    max_degree, as it does for any module.

    DualizedModule(DualizedModule(M)) is M up to the evaluation
    isomorphism, which is the identity here: the same piece dimensions,
    labels in the same order, and action matrices transposed twice.  So
    it delegates its torsion certificates to M, and matlis_dual never
    builds one (it returns M); the constructor still accepts a dual, so
    the two can be compared.
    """

    def __init__(self, base: DegreewiseModule, name: str | None = None):
        self.base = base
        super().__init__(
            base.ring,
            name=name or f"dual({base.name})",
            min_degree=None if base.max_degree is None else -base.max_degree,
            max_degree=None if base.min_degree is None else -base.min_degree,
        )

    def _piece(self, d: int) -> GradedPiece:
        bp = self.base.piece(-d)
        return GradedPiece(self.ring.field, tuple(("d", lab) for lab in bp.labels))

    def _mono_act(self, mono: tuple, d: int):
        return self.base.mono_act(mono, -d - sum(mono)).transpose()

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        if isinstance(self.base, DualizedModule):
            # double transpose: the action matrices equal the origin's
            return self.base.base.torsion(f)
        # a nonzero constant is a unit; see the class docstring for the rest
        return (0, "certified") if f.degree == 0 else super().torsion(f)


# a dual holds its base, so the memo must hold neither: an entry goes when
# its dual dies
_dual_memo: "WeakValueDictionary[DegreewiseModule, DualizedModule]" = WeakValueDictionary()


def matlis_dual(m: DegreewiseModule) -> DegreewiseModule:
    """The graded dual of m; while that dual is alive, repeated calls
    return the same object, so the duals of composable maps compose.

    The dual of a dual is its origin: m.base itself, since the evaluation
    isomorphism base -> dual(m) is the identity on every piece and every
    action matrix (see DualizedModule).  So a double dual shares every
    computation already made on its origin."""
    if isinstance(m, DualizedModule):
        return m.base
    got = _dual_memo.get(m)
    if got is None:
        got = DualizedModule(m)
        _dual_memo[m] = got
    return got


def matlis_dual_map(f: GradedModuleMap) -> GradedModuleMap:
    """The dual of f, contravariantly: matlis_dual(f.target) ->
    matlis_dual(f.source), with matrix in degree d the transpose of f's
    matrix in degree -d.

    The endpoints are the objects matlis_dual returns, so the duals of
    composable maps compose, and the dual of a map between duals runs
    between their origins, with matrices equal to the original ones."""
    return GradedModuleMap(
        matlis_dual(f.target), matlis_dual(f.source), lambda d: f.matrix(-d).transpose(),
        name=f"dual({f.name})"
    )


def injective_hull(ring: PolyRing) -> DualizedModule:
    """E(k) in the graded sense: the dual of the free rank-one module.

    dim E_d = dim R_{-d}, so E vanishes in positive degrees and grows
    polynomially below; the variables act by transposed multiplication.
    """
    return DualizedModule(free_module(ring, name="R"), name="E")


class BidualReport(NamedTuple):
    """Result of the double-dual pipeline on a short exact sequence.

    plus_over_U is the exactness table of the single-dual sequence
    C+ -> B+ -> A+ over the patch U (expected exact: degreewise duality
    of finite-dimensional pieces is exact).  bidual_over_V is the table
    of A++ -> B++ -> C++ over the other patch V, where exactness can
    genuinely fail on the right.  That table is sequence_report(f, g, "W"),
    shared with any star-sequence check on the same maps, so the two agree
    by construction; the independent computation of it is the test oracle
    reference_bidual_over_v in tests/test_matlis.py.
    """

    plus_over_U: ExactnessReport
    bidual_over_V: ExactnessReport

    @property
    def verdict(self) -> str:
        return self.bidual_over_V.verdict

    def __repr__(self):
        return (f"BidualReport(plus_over_U={self.plus_over_U.verdict}, "
                f"bidual_over_V={self.bidual_over_V.verdict})")


def bidual_pipeline(f: SheafMap, g: SheafMap) -> BidualReport:
    """Dualize a short exact sequence A -> B -> C twice and report where
    exactness survives, over the window and start cap of the sheaves.

    Requires the input to be short exact on U-sections in the window
    (kernel, homology and cokernel all zero); raises ValueError
    otherwise, because the pipeline's verdicts are only meaningful for
    an honest short exact sequence.

    The one-sided dual is S^+ = push(dual(S_U)), the pushforward from U
    of the dualized U-patch module, and a map goes to the pushforward of
    its dual.  So C+ -> B+ -> A+ over U is dual(g_U), dual(f_U), over the
    window of C.  Twice: A++ = push(dual(dual(A_U))) = push(A_U), since
    the dual of a dual is its origin (see matlis_dual), and f++ is the
    pushforward of f_U itself, its matrices being transposes of
    transposes.  The V-sections of a pushforward are the W-sections of
    the module it pushes, Gamma(V, push N) = Gamma(W, ~N), with induced
    maps.  So A++ -> B++ -> C++ over V is Gamma(W, A) -> Gamma(W, B) ->
    Gamma(W, C) under the maps f and g induce, over the window of A:
    no sheaf is built, and the W-sections are those every other check on
    A, B and C reads.

    The U-table checked above and the V-table are sequence_report's over
    U and W, shared with any star-sequence check on f and g; only
    C+ -> B+ -> A+ is computed here.
    """
    base = sequence_report(f, g, "U")
    if base.verdict != "exact":
        raise ValueError(
            "bidual pipeline needs a sequence that is short exact over U; got "
            + base.verdict
        )
    plus_u = exactness_tables(matlis_dual_map(g.u_U), matlis_dual_map(f.u_U),
                              g.target.window)
    return BidualReport(plus_u, sequence_report(f, g, "W"))
