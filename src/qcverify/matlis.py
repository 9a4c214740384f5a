"""Graded Matlis duality and the double-dual exactness pipeline.

The dualizing object is the graded dual E of the polynomial ring: E_d is
the dual space of R_{-d}, with variables acting by transposed
multiplication (contraction).  E is the injective hull of the residue
field in the category of graded modules, and dualizing against it is,
degreewise, plain vector-space duality: (M^v)_d = (M_{-d})^v.

On the glued scheme this feeds the one-sided dual functor
(-)^+ = pushforward from U of the dualized U-sections.  Applying it
twice and taking sections over the other patch V is exactly the
computation that exhibits non-exactness: a short exact sequence of
sheaves whose bidual V-sections form only a left exact sequence.

Infinite products such as power series rings never appear as objects;
every statement here is per degree, where the finite-dimensional pieces
of the completed modules coincide with those of their uncompleted
sources.
"""

from weakref import WeakValueDictionary

from .graded_modules import (
    ALL_TORSION,
    DegreewiseModule,
    GradedModuleMap,
    GradedPiece,
    HomogPoly,
    PolyRing,
    free_module,
)
from .glued_scheme import (
    ExactnessReport,
    QcohSheafOnX,
    SheafMap,
    direct_image_from_U,
    sequence_report,
)

__all__ = [
    "DualizedModule",
    "injective_hull",
    "matlis_dual",
    "matlis_dual_map",
    "plus_functor",
    "plus_functor_map",
    "BidualReport",
    "bidual_pipeline",
]


class DualizedModule(DegreewiseModule):
    """The graded dual Hom(M, E) of a degreewise module.

    piece(d) is the dual of base.piece(-d); x^a acting from degree d is
    the transpose of the base action of x^a landing in degree -d.  Torsion
    certificates: a dual of a bounded-below module is bounded above, so
    any positive-degree element acts nilpotently on every element; a
    double dual has the same action matrices as its origin and can
    delegate.
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

    def torsion_bound(self, f: HomogPoly):
        if isinstance(self.base, DualizedModule):
            # double transpose: the action matrices equal the origin's
            return self.base.base.torsion_bound(f)
        if self.base.min_degree is not None:
            # bounded above, so f^t lands in zero pieces eventually
            return ALL_TORSION if f.degree >= 1 else 0
        return None


# a dual holds its base, so the memo must hold neither: an entry goes when
# its dual dies
_dual_memo: "WeakValueDictionary[DegreewiseModule, DualizedModule]" = WeakValueDictionary()


def matlis_dual(m: DegreewiseModule) -> DualizedModule:
    """The graded dual of m; while that dual is alive, repeated calls
    return the same object, so maps built with default endpoints compose."""
    got = _dual_memo.get(m)
    if got is None:
        got = DualizedModule(m)
        _dual_memo[m] = got
    return got


def matlis_dual_map(f: GradedModuleMap, source: DualizedModule | None = None,
                    target: DualizedModule | None = None) -> GradedModuleMap:
    """The dual of f, contravariantly: dual(target) -> dual(source),
    with matrix in degree d the transpose of f's matrix in degree -d."""
    src = source if source is not None else matlis_dual(f.target)
    tgt = target if target is not None else matlis_dual(f.source)
    if src.base is not f.target or tgt.base is not f.source:
        raise ValueError("dual endpoints do not match the map being dualized")
    return GradedModuleMap(
        src, tgt, lambda d: f.matrix(-d).transpose(), name=f"dual({f.name})"
    )


def injective_hull(ring: PolyRing) -> DualizedModule:
    """E(k) in the graded sense: the dual of the free rank-one module.

    dim E_d = dim R_{-d}, so E vanishes in positive degrees and grows
    polynomially below; the variables act by transposed multiplication.
    """
    return DualizedModule(free_module(ring, name="R"), name="E")


def plus_functor(s: QcohSheafOnX) -> QcohSheafOnX:
    """The sheaf s^+: the pushforward from U of the dualized U-sections.

    Its U-patch is dual(s.m_U) and its V-patch is the W-sections of that
    dual with the induced actions, over the window and cap policy of s.
    """
    return direct_image_from_U(
        s.scheme, matlis_dual(s.m_U), window=s.window, policy=s.policy,
        name=f"{s.name}+",
    )


def plus_functor_map(f: SheafMap, source_plus: QcohSheafOnX,
                     target_plus: QcohSheafOnX, name: str | None = None) -> SheafMap:
    """The induced map (f.target)^+ -> (f.source)^+ between already
    constructed plus-sheaves (contravariant)."""
    if source_plus.m_U is not matlis_dual(f.target.m_U):
        raise ValueError("source_plus is not the plus of the map's target")
    if target_plus.m_U is not matlis_dual(f.source.m_U):
        raise ValueError("target_plus is not the plus of the map's source")
    u = matlis_dual_map(f.u_U, source=source_plus.m_U, target=target_plus.m_U)
    return SheafMap.direct_image(source_plus, target_plus, u,
                                 name=name or f"{f.name}+")


class BidualReport:
    """Result of the double-dual pipeline on a short exact sequence.

    plus_over_U is the exactness table of the single-dual sequence
    C+ -> B+ -> A+ over the patch U (expected exact: degreewise duality
    of finite-dimensional pieces is exact).  bidual_over_V is the table
    of A++ -> B++ -> C++ over the other patch V, where exactness can
    genuinely fail on the right.
    """

    def __init__(self, plus_over_U: ExactnessReport, bidual_over_V: ExactnessReport):
        self.plus_over_U = plus_over_U
        self.bidual_over_V = bidual_over_V

    @property
    def verdict(self) -> str:
        return self.bidual_over_V.verdict

    def __repr__(self):
        return (f"BidualReport(plus_over_U={self.plus_over_U.verdict}, "
                f"bidual_over_V={self.bidual_over_V.verdict})")


def bidual_pipeline(f: SheafMap, g: SheafMap) -> BidualReport:
    """Dualize a short exact sequence A -> B -> C twice and report where
    exactness survives, over the window and cap policy of the sheaves.

    Requires the input to be short exact on U-sections in the window
    (kernel, homology and cokernel all zero); raises ValueError
    otherwise, because the pipeline's verdicts are only meaningful for
    an honest short exact sequence.
    """
    base = sequence_report(f, g, "U")
    if base.verdict != "exact":
        raise ValueError(
            "bidual pipeline needs a sequence that is short exact over U; got "
            + base.verdict
        )

    a, b, c = f.source, f.target, g.target
    a_p = plus_functor(a)
    b_p = plus_functor(b)
    c_p = plus_functor(c)
    g_p = plus_functor_map(g, c_p, b_p)
    f_p = plus_functor_map(f, b_p, a_p)
    plus_u = sequence_report(g_p, f_p, "U")

    a_pp = plus_functor(a_p)
    b_pp = plus_functor(b_p)
    c_pp = plus_functor(c_p)
    f_pp = plus_functor_map(f_p, a_pp, b_pp)
    g_pp = plus_functor_map(g_p, b_pp, c_pp)
    bidual_v = sequence_report(f_pp, g_pp, "V")
    return BidualReport(plus_u, bidual_v)
