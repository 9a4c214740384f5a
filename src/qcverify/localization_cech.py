"""Degreewise localization and Cech cohomology on distinguished covers.

The graded localization M_f has graded pieces that are colimits
(M_f)_d = colim ( M_d -> M_{d+deg f} -> ... ), the maps being
multiplication by f.  We realize the colimit at a finite stage, the "cap":

    (M_f)_d at cap N  :=  M_{d + N deg f} / (stable kernel of f-powers),

an honest subspace of the true piece that grows with N.  The stable kernel
is ker f^t for the pair (t, how) = module.torsion(f), and the status says
how t was found: certified-in-window where it is certified (free modules,
monomial quotients); proven(t) where it is proven (a monomial f on a
presentation; a direct sum, or a kernel, of modules with such powers; the
sections of a module that localizes exactly on their own cover, see
_proven_cap_floor); else heuristic(t), the first power from t on with
ker f^t = ker f^(t+1), found by the kernel chain.  Only the first counts
as certified in flags (kernels_flag).  A module bounded above (max_degree
set, as for the graded dual of a finitely generated module) localizes to
zero, certified, at every f of positive degree: some power of f kills
each element.

Cech complexes on a cover {D(f_1), ..., D(f_n)} use one uniform cap for
every intersection; the degree-d realization checks d o d = 0 outright.
Its diff(k) is d_k, the zero map to C^(k+1) = 0 past the top level, so
H^0 = ker d0 and H^1 = dim C^1 - rank d1 - rank d0 on every cover, a
single open included.
Cohomology in a degree window is found at a cap in one of two ways.
Where a theorem fixes the cap (on the cover by all the variables, with
exact localizations: a fine-graded presentation, or its sections over
such a cover, or a two-variable presentation without x- or y-torsion,
whose Cech complex is a Koszul complex; see _proven_cap_floor) degree d
is built at its floor cap max(1, floor - d) alone, because every cap
from there on gives the same dimensions.  Everywhere else the cap is
found by escalation: start at the start cap (window width + 2 unless one
is given), step by 2, accept once the dimensions are unchanged for two
consecutive increments, give up (CapExhausted) after five escalations.
A proven degree is reported at the start cap, which escalation would
accept with the same dimensions, so it reads exactly as an escalated one
that settled at its start.
Sections over the cover then become an ordinary DegreewiseModule
whose elements can be restricted to and expressed from C^0 vectors given
at any cap.  It owns the cap schedule, keeps the cap of each degree and
its H^1, and reads every localization, H^0 basis and certificate from
its Cech complexes.  Every map given on numerators (a variable action,
an induced map, a lift to a larger cap, a * gen_i) carries cochains
through _cochain_apply, which applies proj @ numerator map @ incl to the
vectors without building that product; only the differentials and the
restriction from M build it whole.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from weakref import WeakValueDictionary

from .exact_linalg import Mat, kernel_basis, kernel_coords, rank, solve, _quotient_with_indices
from .graded_modules import (
    CapExhausted,
    DegreewiseModule,
    FPGradedModule,
    GradedModuleMap,
    GradedPiece,
    HomogPoly,
    PolyRing,
)

__all__ = [
    "CapExhausted",
    "DEFAULT_WINDOW",
    "OpenSubset",
    "LocalizedPiece",
    "localize_piece",
    "CechComplexWindow",
    "SectionsModule",
    "sections_window",
    "restriction_to_sections",
    "sections_induced_map",
    "kernels_flag",
]

DEFAULT_WINDOW = (-6, 6)


# cap escalation: steps of _CAP_STEP, at most _MAX_ESCALATIONS of them, so
# that a value can repeat twice more (see _stabilize)
_CAP_STEP = 2
_MAX_ESCALATIONS = 5


def _start_cap(window, start: int | None) -> int:
    """The first cap of the escalation: start, or window width + 2.  A
    reversed window is refused here, whether or not a start is given."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"bad window {(lo, hi)!r}: lo > hi")
    if start is None:
        return (hi - lo) + 2
    if start < 1:
        raise ValueError(f"cap start must be at least 1, got {start}")
    return start


class OpenSubset:
    """A union of distinguished opens D(f_1) u ... u D(f_n)."""

    def __init__(self, ring: PolyRing, denominators):
        denoms = tuple(denominators)
        if not denoms:
            raise ValueError("a cover needs at least one denominator")
        for f in denoms:
            if not isinstance(f, HomogPoly):
                raise TypeError("denominators must be HomogPoly")
            if f.is_zero():
                raise ValueError("zero is not allowed as a denominator")
        self.ring = ring
        self.denoms = denoms
        # subsets[k]: the index sets of size k + 1, in the order of Cech level k
        self.subsets = [tuple(combinations(range(len(denoms)), k + 1))
                        for k in range(len(denoms))]
        # degrees[k]: deg f_S for each S in subsets[k], a sum of member degrees
        self.degrees = [tuple(sum(denoms[i].degree for i in S) for S in level)
                        for level in self.subsets]
        self._products: dict[tuple, HomogPoly] = {}

    @property
    def n(self) -> int:
        return len(self.denoms)

    def product(self, subset) -> HomogPoly:
        key = tuple(subset)
        got = self._products.get(key)
        if got is None:
            got = HomogPoly.constant(self.ring, self.ring.field.one)
            for i in key:
                got = got * self.denoms[i]
            self._products[key] = got
        return got

    def __repr__(self):
        return "D(" + ") u D(".join(str(f) for f in self.denoms) + ")"


class LocalizedPiece:
    """(M_f)_d realized at a finite cap.

    incl embeds the realized basis into the numerator space
    M_{d + cap deg f}, one column per basis vector, so dim is its column
    count; proj is the quotient projection the other way.  status is
    certified-in-window, proven(t) or heuristic(t) (module docstring).
    Neither d nor the cap is kept: a twist M(-s) in degree d reads the very
    piece of M in degree d - s, and the numerator degree is the reader's
    (_num_degrees).
    """

    __slots__ = ("status", "incl", "proj")

    def __init__(self, status, incl, proj):
        self.status = status
        self.incl = incl
        self.proj = proj

    @property
    def dim(self) -> int:
        return self.incl.ncols

    def __repr__(self):
        return f"LocalizedPiece(dim={self.dim}, {self.status})"


def localize_piece(module: DegreewiseModule, f: HomogPoly, d: int, cap: int) -> LocalizedPiece:
    """Realize (M_f)_d at the given cap; see the module docstring."""
    if f.is_zero():
        raise ValueError("cannot localize at zero")
    field = module.ring.field
    num_degree = d + cap * f.degree
    num = module.piece(num_degree)
    if num.dim == 0 or (module.max_degree is not None and f.degree >= 1):
        # nothing to localize, or bounded above: a power of f kills it all
        return LocalizedPiece("certified-in-window",
                              Mat.zeros(field, num.dim, 0), Mat.zeros(field, 0, num.dim))

    # stable = ker f^t, at the module's certified or proven power; a
    # heuristic power only starts the chain, which stops once
    # ker f^t = ker f^(t+1)
    t, how = module.torsion(f)
    first = t
    stable = (kernel_basis(module.power_act(f, t, num_degree)) if t
              else Mat.zeros(field, num.dim, 0))
    while how == "heuristic":
        nxt = kernel_basis(module.power_act(f, t + 1, num_degree))
        if nxt.ncols == stable.ncols:
            break
        stable, t = nxt, t + 1
        if t - first > num.dim:  # the kernel chain cannot strictly grow this long
            raise ArithmeticError("stable kernel iteration failed to terminate")
    status = "certified-in-window" if how == "certified" else f"{how}({t})"

    coset, proj, _ = _quotient_with_indices(stable, num.dim)
    return LocalizedPiece(status, coset, proj)


def _num_degrees(cover: OpenSubset, level: int, d: int, cap: int) -> list[int]:
    """The numerator degrees d + cap deg f_S of the pieces of Cech level
    `level` in degree d at cap, one per subset S in cover.subsets[level]."""
    return [d + cap * e for e in cover.degrees[level]]


def _cochain_apply(pieces_from, pieces_to, num_degrees, numer, vecs: Mat, after=None) -> Mat:
    """Carry cochains through a map given on numerators.

    vecs stacks one block of rows per piece of pieces_from, whose numerator
    degrees are num_degrees; block k goes to
    tgt.proj @ numer(k, num_degrees[k]) @ src.incl @ block, stacked over
    pieces_to, with after(k, num_degrees[k]) applied after numer when
    given.  The maps are applied to the vectors first, so no product the
    size of a whole piece is built.
    """
    blocks = {}
    pos = 0
    for k, (src, tgt, a) in enumerate(zip(pieces_from, pieces_to, num_degrees)):
        rows = vecs.take_rows(pos, pos + src.dim)
        pos += src.dim
        image = numer(k, a) @ (src.incl @ rows)
        if after is not None:
            image = after(k, a) @ image
        blocks[k, 0] = tgt.proj @ image
    return Mat.block(vecs.field, blocks)


def _lift(module: DegreewiseModule, cover: OpenSubset, level: int, d: int, cap: int,
          pieces_from, pieces_to, t: int, vecs: Mat) -> Mat:
    """Cochains of Cech level `level` in degree d lifted from cap
    (pieces_from) to cap + t (pieces_to): the piece of the subset S is
    multiplied by f_S^t."""
    if t == 0:
        return vecs
    subsets = cover.subsets[level]
    return _cochain_apply(
        pieces_from, pieces_to, _num_degrees(cover, level, d, cap),
        lambda k, a: module.power_act(cover.product(subsets[k]), t, a), vecs,
    )


class _CechDegree:
    """All realized pieces and differentials of the complex in one degree."""

    __slots__ = ("levels", "diffs", "field", "_h0_basis")

    def __init__(self, levels, diffs, field):
        self.levels = levels
        self.diffs = diffs
        self.field = field
        self._h0_basis = None

    def level_dim(self, k: int) -> int:
        return sum(p.dim for p in self.levels[k]) if k < len(self.levels) else 0

    def diff(self, k: int) -> Mat:
        """d_k : C^k -> C^(k+1), the zero map to C^(k+1) = 0 past the top
        level of the cover."""
        if k < len(self.diffs):
            return self.diffs[k]
        return Mat.zeros(self.field, 0, self.level_dim(k))

    def h0_basis(self) -> Mat:
        if self._h0_basis is None:
            self._h0_basis = kernel_basis(self.diff(0))
        return self._h0_basis

    @property
    def h0_dim(self) -> int:
        return self.h0_basis().ncols

    @property
    def h1_dim(self) -> int:
        return self.level_dim(1) - rank(self.diff(0)) - rank(self.diff(1))

    @property
    def certified(self) -> bool:
        """Whether every localization in this degree carried a certified
        torsion bound (as opposed to the kernel-chain heuristic)."""
        return all(p.status.startswith("certified") for level in self.levels for p in level)


def kernels_flag(cech_degrees) -> str:
    """The flag of a check that reads the given Cech degrees: certified
    where every localization in them is, else heuristic."""
    return ("kernels-certified" if all(deg.certified for deg in cech_degrees)
            else "kernels-heuristic")


class CechComplexWindow:
    """The Cech complex of a module on a cover, at one uniform cap.

    Degree realizations are lazy and memoized; building one verifies
    d o d = 0 on the spot.  The memo is keyed by d - module.shift, as the
    module's own memos are, so a twist M(-s) and its source M can read one
    memo (_CechComplexes): the twist's degree d is M's degree d - s, the
    very object, built on the numerators of whichever asked first.
    """

    def __init__(self, module: DegreewiseModule, cover: OpenSubset, window, cap: int):
        self.module = module
        self.cover = cover
        self.window = tuple(window)
        self.cap = cap
        self._degrees: dict[int, _CechDegree] = {}

    def degree(self, d: int) -> _CechDegree:
        key = d - self.module.shift
        got = self._degrees.get(key)
        if got is not None:
            return got
        field = self.module.ring.field
        subsets = self.cover.subsets
        levels = [
            [localize_piece(self.module, self.cover.product(S), d, self.cap) for S in level]
            for level in subsets
        ]
        diffs = []
        for k in range(self.cover.n - 1):
            src_pieces, tgt_pieces = levels[k], levels[k + 1]
            num_degrees = _num_degrees(self.cover, k, d, self.cap)
            blocks = {}
            for ti, T in enumerate(subsets[k + 1]):
                tgt = tgt_pieces[ti]
                if tgt.dim == 0:
                    continue
                for pos in range(len(T)):
                    i = T[pos]
                    si = subsets[k].index(T[:pos] + T[pos + 1:])
                    src = src_pieces[si]
                    if src.dim == 0:
                        continue
                    mult = self.module.power_act(self.cover.denoms[i], self.cap,
                                                 num_degrees[si])
                    block = tgt.proj @ mult @ src.incl
                    blocks[ti, si] = -block if pos % 2 else block
            diffs.append(Mat.block(field, blocks, [p.dim for p in tgt_pieces],
                                   [p.dim for p in src_pieces]))
        for k in range(len(diffs) - 1):
            if not (diffs[k + 1] @ diffs[k]).is_zero():
                raise ArithmeticError(
                    f"Cech differential square is nonzero in degree {d} at cap {self.cap}"
                )
        got = _CechDegree(levels, diffs, field)
        self._degrees[key] = got
        return got


class _CechComplexes(dict):
    """cap -> CechComplexWindow of one module on one cover, built on first use.

    This is the one cache of Cech complexes.  Only a SectionsModule owns
    one, and it reads its localizations, H^0 bases and certificates from
    it; H^1, the witness and the obstruction scan read the complexes of
    the sections module that sections_window hands them, and the
    complexes die with that module: a cache kept on the module object
    would hold every complex of a run until the run ends.  The complexes
    of a twist read those of origin, its source's sections module on the
    same cover, window and start cap, which it holds: its window at a cap
    shares the memo of origin's window there, keyed by d - shift.  The
    caps agree: the start cap and the escalation do not depend on d, and
    the twist's floor is the source's plus s, so its floor cap at d is the
    source's at d - s; so the sections module shares its stabilized caps
    (SectionsModule._stable) the same way.
    """

    def __init__(self, module: DegreewiseModule, cover: OpenSubset, window,
                 origin: "_CechComplexes | None" = None):
        super().__init__()
        self.module = module
        self.cover = cover
        self.window = tuple(window)
        self.origin = origin

    def __missing__(self, cap: int) -> CechComplexWindow:
        if self.origin is None:
            got = CechComplexWindow(self.module, self.cover, self.window, cap)
        else:
            # origin's complex at cap, read by this module: not a new
            # complex, so CechComplexWindow.__init__ does not run
            got = object.__new__(CechComplexWindow)
            got.__dict__.update(vars(self.origin[cap]), module=self.module)
        self[cap] = got
        return got


def _stabilize(dims_at, caps, what: str):
    """First cap in the escalation whose value repeats twice more; a
    single proven cap is taken as it is."""
    if len(caps) == 1:
        return caps[0], dims_at(caps[0])
    seen = []
    for idx, c in enumerate(caps):
        seen.append(dims_at(c))
        if idx >= 2 and seen[-1] == seen[-2] == seen[-3]:
            return caps[idx - 2], seen[idx - 2]
    raise CapExhausted(
        f"{what}: dimensions {seen} did not stabilize at caps {list(caps)}"
    )


def _exact_on(module: DegreewiseModule, cover: OpenSubset) -> bool:
    """Whether every localization of module at a product of cover members
    is exact: its torsion power certified or proven, so no kernel chain."""
    return all(module.torsion(cover.product(S))[1] != "heuristic"
               for level in cover.subsets for S in level)


def _proven_cap_floor(module: DegreewiseModule, cover: OpenSubset) -> int | None:
    """t with c0(d) = max(0, t - d) when a theorem fixes the cap, else None.

    Two classes, both of an FPGradedModule M with at least one generator on
    the cover W = D(x_1) u ... u D(x_n) with every variable of R appearing
    exactly once, up to a nonzero scalar, and both with every localization
    exact (_exact_on): torsion(f) is certified or proven for every cover
    product f, so localize_piece takes ker f^T(f), the whole f-torsion,
    with no kernel chain.  Whether T(f) is certified is left to the
    kernels flag; it does not decide the cap.

    The fine-graded class: the presentation is fine-graded
    (FPGradedModule.fine_grading, with components C, bounds b_C and
    torsion powers T_i), and t = max_C |b_C| - n + 1.

    Theorem.  Every H^p of the Cech complex in degree d is the same at
    every cap c >= c0(d) = max(0, max_C |b_C| - n + 1 - d), and the lift
    from cap c to any larger cap is an isomorphism on it.

    Proof.  The complex splits over the components C, and within C over
    the fine degrees a in Z^n with |a| = d: at cap c the S-term in fine
    degree a is M_(a + c 1_S) modulo its x_S-torsion (the fractions
    m / x_S^c), and the differentials multiply by powers of variables.
    Write b = b_C.  By fine_grading, x_i : M_a' -> M_(a'+e_i) is an
    isomorphism whenever a'_i >= b_i.
      (1) Once c >= max_i (b_i - a_i), every S-term is the limit
    (M_(x_S))_a: from cap c on, x_S maps M_(a + c 1_S) isomorphically
    onto the next stage and kills nothing.  So fine degree a gives the
    limit complex at every such cap.
      (2) If a_j >= b_j for some j, split the augmented complex (M_a in
    front) by whether S contains j: it is the cone of x_j^c from the
    terms without j to the terms with j.  Multiplication by x_j is an
    isomorphism in every degree involved, and it carries x_S-torsion onto
    x_(S u j)-torsion, so this is an isomorphism of complexes and its
    cone is exact, at every cap c >= 0 and in the limit.  So fine degree
    a gives H^0 = M_a and nothing else at every cap.
      (3) Otherwise a_i <= b_i - 1 for every i.  If moreover c < b_i - a_i
    for some i, then a_i <= b_i - c - 1, and summing,
    d = |a| <= |b| - n - c, that is, c <= |b| - n - d < c0(d).
    So at every c >= c0(d) each fine degree falls under (1) or (2), and
    its cohomology, and the lift between two such caps, do not depend on
    c.  For a free module each generator is its own component with
    |b| = e_k, and c0(d) reads max(0, max_k e_k - n + 1 - d).  QED.

    The Koszul class: n = 2, the presentation is not fine-graded, and
    saturation(0) == saturation(1) == 0 (no x- or y-torsion); t = top - 1,
    top the largest generator or relation degree.

    Theorem.  Every H^p of the Cech complex in degree d is the same at
    every cap c >= max(1, top - 1 - d), and the lift from cap c to any
    larger cap is an isomorphism on it.

    Proof.  Every cover product is a nonzerodivisor on M, so T(f) is 0 and
    no localization takes a kernel: at cap c the complex in degree d is
    M_(d+c) + M_(d+c) -> M_(d+2c), (a, b) -> x^c b - y^c a (the order of
    the cover changes signs only), the Koszul cochain complex
    K(x^c, y^c; M)_d without its M term.  Sending a numerator m at the
    S-term to m / x_S^c maps it to the Cech complex C(M)_d of the limit,
    compatibly with the lifts between caps (multiplication by x_S^k).
    Put the M term back on both sides: the map is the identity there, so it
    is a quasi-isomorphism exactly when the truncated map is one.
      (1) M = 0 is trivial.  Otherwise depth M >= 1, so pd M <= 1 by
    Auslander-Buchsbaum (Eisenbud, GTM 150, Thm 19.9).  The kernel of
    F0 = sum R(-e_i) -> M is then free and generated by the relation
    columns, so by graded Nakayama it has a basis among them:
    0 -> F1 = sum R(-s_l) -> F0 -> M -> 0 is a free resolution with every
    e_i and s_l at most top.
      (2) For R(-e) and c >= 1 both complexes have cohomology in H^2 alone
    (x^c, y^c is a regular sequence, and the local cohomology of R
    vanishes below H^2).  In degree d, K's H^2 is spanned by the
    x^al y^be with 0 <= al, be <= c - 1 and al + be = d - e + 2c, C's by
    the x^-a y^-b with a, b >= 1 and a + b = e - d, and the map sends
    x^al y^be to x^(al-c) y^(be-c): injective, and onto once
    c >= e - 1 - d, since a = c - al runs over 1..c and a <= e - d - 1.
    So the map is then a quasi-isomorphism, and so is the lift between
    two such caps.
      (3) K(x^c, y^c; -)_d and C(-)_d are exact functors, so the
    resolution gives short exact sequences of complexes on both sides,
    mapped to each other.  At c >= max(1, top - 1 - d) the maps on F1 and
    F0 are quasi-isomorphisms by (2), so by the five lemma the map on M is
    one, and the lift between two such caps as well (Eisenbud, GTM 150,
    A4; Brodmann-Sharp, Local Cohomology, ch. 5).  QED.

    So when c0(d) <= the start cap, escalation would return the start cap
    with these same dimensions, and one complex at any cap c >= c0(d) says
    it: SectionsModule builds degree d at c = max(1, c0(d)) = max(1, t - d)
    alone, its floor cap (floor_cap), and reports the start cap.  The floor
    cap is at least 1 so that the gate below holds.

    Sections of sections.  Let N = Gamma(W', ~M) be a SectionsModule whose
    base M is in the fine-graded class on its own all-variable cover W', so
    that N has a floor.  Then N is in the class on the cover W whenever M
    is, with M's floor, and the answer for N is the answer for M on W.  N
    is the equalizer of the localizations M_(x_j), so it is Z^n-graded and
    splits over M's components C.
      (a) If a_i >= b_C,i, x_i : N_a -> N_(a+e_i) is an isomorphism: it is
    one on every (M_(x_S))_a, the colimit of the M_(a + c 1_S), whose i-th
    coordinates are all >= b_i, and it commutes with the differentials.
      (b) N embeds in prod_j M_(x_j).  If m / x_j^k is x^u-torsion there,
    then x_j^l m is x^u-torsion in M for some l, so a power (x^u)^t that
    kills all x^u-torsion of M kills x_j^l m and hence m / x_j^k.  So
    N.torsion(f) is M.torsion(f) (SectionsModule.torsion), and every
    localization of N is exact as well.
    Steps (1)-(3) of the fine-graded proof read nothing but b and (a), so
    the theorem holds for N with the same
    c0(d) = max(0, max_C |b_C| - n + 1 - d).  The Koszul class does not pass on: there N is the ideal
    transform of M, which need not be finitely generated (M = R/(x + y)
    gives N = k[x, 1/x]), so Gamma(W, ~N) escalates.

    The gate.  The theorem speaks of the true N; the complexes read its
    realization, whose degree e is the true N_e when e is built at a cap
    c >= c0(e), as a degree with a floor cap is (SectionsModule.floor_cap).
    A degree d of Gamma(W, ~N) built at its floor cap c = max(1, floor - d),
    or at any larger cap, reads N only in numerator degrees
    e >= d + c >= floor (c >= 1, and every cover product has degree >= 1),
    where N's own c0(e) is 0: every degree of N that a proven degree reads
    is itself at a proven cap, whatever N's window and start cap, so the
    gate needs no check of its own.  A degree below the floor escalates as
    before; it may read degrees of N at escalated caps, but a realization
    at any cap is a graded submodule of the true N (each term at a cap
    injects into its limit), so the inherited torsion powers still kill
    all of its torsion and its certificates stay honest.

    Proven powers need (b) alone, not the class: let every localization of
    M at the products of W's members g_j be exact, certified or proven
    (SectionsModule._base_exact, the same _exact_on).  Then each realized
    piece of N, at any cap, is a subspace of the true N_d (each term
    injects into its limit) with the true action restricted, as _express
    refuses anything else.  N embeds in prod_j M_(g_j), so by (b) with g_j
    for x_j a power of f that kills all f-torsion of M kills that of N:
    N.torsion(f) is M's power, proven, or certified where N has a floor.
    Where it is 0 (Gamma(W, I) is torsion-free), no kernel is taken at
    all.  A heuristic localization of M need not inject into its limit,
    so then N proves nothing.
    """
    inherited = isinstance(module, SectionsModule)
    while isinstance(module, SectionsModule) and module._cap_floor is not None:
        module = module.base
    if not isinstance(module, FPGradedModule) or not module.gen_degrees:
        return None
    n = module.ring.nvars
    variables = []
    for f in cover.denoms:
        if f.degree != 1 or not f.is_monomial():
            return None
        variables.append(next(iter(f.terms)).index(1))
    if sorted(variables) != list(range(n)):
        return None
    fine = module.fine_grading()
    if fine is None and (inherited or n != 2 or module.saturation(0) != 0
                         or module.saturation(1) != 0):
        return None  # not the Koszul class, which sections do not inherit
    if not _exact_on(module, cover):
        return None
    if fine is None:
        return max(module.gen_degrees + tuple(e for _, e in module.relations)) - 1
    return fine.top - n + 1


class SectionsModule(DegreewiseModule):
    """Gamma(W, ~M) as a degreewise module, W a union of distinguished opens.

    Every per-degree fact is read from self.complexes, the one cache of
    Cech complexes: each piece is the degree-d Cech H^0 at a per-degree
    cap, the floor cap of a proven degree or the stabilized cap of an
    escalated one (see _caps and _stable), and its basis, the
    localizations it lives on and its certificate are those of the
    complex's degree at that cap.  A map given on numerators (variable
    actions, induced maps) is applied to the H^0 basis at its cap by
    _map_into; its result, like restriction from M, is lifted to the
    target's cap (multiplying numerators by powers of the denominators),
    and its coordinates are read off the canonical kernel basis of d0 after
    a membership check.  Only a vector given above the target's cap is
    solved for, in the basis lifted to the vector's cap.  A vector outside
    H^0 means a cap lied and raises CapExhausted rather than guessing.

    self.caps is the one cap schedule, the escalation from the start cap
    (default window width + 2); H^1 (h1) and the obstruction read it too.
    A proven degree is built at its floor cap (floor_cap) and reported at
    caps[0] (flags, and the witness's cap).

    Where the base is a twist M(-s) of a source M (FPGradedModule.twist),
    self.complexes share the memos of those of Gamma(W, ~M) over the same
    window and start cap, which this module holds: degree d at a cap is
    M's degree d - s there, the same object.  Its _stable memo is that
    module's dict, keyed by d - s too: the start cap, the floor cap and the
    escalation all move with d, so degree d stabilizes at M's cap of
    degree d - s.  Only a success is memoized, so a failure is raised in
    the name and degree of whichever module asked.

    Where the base has a proven floor, so does this module, with the
    base's floor and torsion powers (floor_cap, torsion).  Where the
    base is a fine-graded presentation, this module's own sections over a
    cover by all the variables are built at proven caps too; where it is
    in the Koszul class, they escalate (see _proven_cap_floor, sections of
    sections).
    """

    def __init__(self, base: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
                 start: int | None = None, name: str | None = None):
        self.base = base
        self.cover = cover
        self.window = tuple(window)
        c0 = _start_cap(self.window, start)
        self.caps = [c0 + _CAP_STEP * k for k in range(_MAX_ESCALATIONS + 1)]
        source = base.source if isinstance(base, FPGradedModule) else None
        origin = None if source is None else sections_window(source, cover, self.window, c0)
        self.complexes = _CechComplexes(base, cover, self.window,
                                        None if origin is None else origin.complexes)
        self._cap_floor = _proven_cap_floor(base, cover)
        # ("h0_dim" or "h1_dim", d - base.shift) -> (cap, dimension, the
        # complex's degree there), the cap proven or stabilized; a twist's
        # is its source's
        self._stable_memo: dict[tuple[str, int], tuple[int, int, _CechDegree]] = (
            {} if origin is None else origin._stable_memo)
        # (source, d - shift) -> (kernel, rank) of the comparison map of the
        # source or a twist of it against these sections (flat_sections_defect)
        self._defects: dict[tuple[FPGradedModule, int], tuple[int, int]] = {}
        super().__init__(base.ring, name=name or f"sections({base.name})")

    def floor_cap(self, d: int) -> int | None:
        """max(1, floor - d), the least cap at which _proven_cap_floor shows
        degree d stable (every H^p there is that of every larger cap, and
        the lifts between such caps are isomorphisms on it), where
        floor - d is at most the start cap; None where degree d escalates."""
        if self._cap_floor is None or self._cap_floor - d > self.caps[0]:
            return None
        return max(1, self._cap_floor - d)

    def _caps(self, d: int) -> list[int]:
        """The caps to try in degree d: its floor cap alone where it is
        proven, the whole escalation otherwise."""
        c = self.floor_cap(d)
        return self.caps if c is None else [c]

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        """The base's power where every localization of the base on this
        module's cover is exact, decided once per module: a power that
        kills all f-torsion of the base kills that of its sections.  It is
        certified only where the floor is proven too (see
        _proven_cap_floor, sections of sections), and proven otherwise."""
        if not self._base_exact:
            return super().torsion(f)
        t, how = self.base.torsion(f)
        return t, "proven" if how == "certified" and self._cap_floor is None else how

    @cached_property
    def _base_exact(self) -> bool:
        return _exact_on(self.base, self.cover)

    def _stable(self, what: str, d: int) -> tuple[int, int, _CechDegree]:
        """(cap, dimension, the complex's degree at cap) of what, "h0_dim" or
        "h1_dim", in degree d."""
        key = (what, d - self.base.shift)
        got = self._stable_memo.get(key)
        if got is None:
            cap, dim = _stabilize(
                lambda c: getattr(self.complexes[c].degree(d), what),
                self._caps(d),
                f"{what[:2].upper()} of {self.base.name} in degree {d}",
            )
            got = self._stable_memo[key] = (cap, dim, self.complexes[cap].degree(d))
        return got

    def h1(self, d: int) -> tuple[int, int, _CechDegree]:
        """(cap, H^1 dimension, the complex's degree at cap) in degree d."""
        return self._stable("h1_dim", d)

    def _piece(self, d: int) -> GradedPiece:
        dim = self._stable("h0_dim", d)[1]
        return GradedPiece(self.ring.field, tuple(("sec", j) for j in range(dim)))

    def h0(self, d: int) -> tuple[int, int, _CechDegree]:
        """(cap, H^0 dimension, the complex's degree at cap) in degree d."""
        return self._stable("h0_dim", d)

    def _locs(self, d: int, cap: int) -> list[LocalizedPiece]:
        """The cover pieces of degree d at cap, read from the complexes after
        degree d is realized (its escalation builds the caps it tried)."""
        self._stable("h0_dim", d)
        return self.complexes[cap].degree(d).levels[0]

    def _express(self, d: int, vecs: Mat, cap: int) -> Mat:
        """Coordinates in piece(d) of C^0 vectors given at a cap no lower
        than the one piece(d) was read at."""
        own, _dim, cech = self._stable("h0_dim", d)
        if cap > own:
            basis = _lift(self.base, self.cover, 0, d, own, cech.levels[0],
                          self._locs(d, cap), cap - own, cech.h0_basis())
            coords = solve(basis, vecs)
        else:
            coords = kernel_coords(cech.diff(0), vecs)
        if coords is None:
            raise CapExhausted(
                f"{self.name}: a section of degree {d} is not representable at the "
                f"stabilized cap {own}"
            )
        return coords

    def _map_into(self, d: int, target: "SectionsModule", d_to: int, numer) -> Mat:
        """Matrix, in the bases of piece(d) and target.piece(d_to), of the
        map that numer(i, a) : M_a -> N_(a + d_to - d) gives on the
        numerators of the cover piece D(f_i).  Where the target's cap is
        the larger, the image is lifted on the numerators, so the target
        is read at its own cap alone.  A map from an empty piece is zero, and
        nothing is realized for it."""
        cap, dim, cech = self._stable("h0_dim", d)
        own, dim_to, _ = target._stable("h0_dim", d_to)
        if not dim:
            return Mat.zeros(self.ring.field, dim_to, 0)
        num_degrees = _num_degrees(self.cover, 0, d, cap)
        after = None
        if own > cap:
            # lift on the numerators, by f_i^(own - cap) after numer, so that
            # the target is read at its own cap and not realized at this one
            t, shift = own - cap, d_to - d
            denoms = self.cover.denoms

            def after(i, a):
                return target.base.power_act(denoms[i], t, a + shift)
            cap = own
        vecs = _cochain_apply(cech.levels[0], target._locs(d_to, cap), num_degrees, numer,
                              cech.h0_basis(), after)
        return target._express(d_to, vecs, cap)

    def _act(self, var: int, d: int) -> Mat:
        return self._map_into(d, self, d + 1, lambda i, a: self.base.act(var, a))

    def restriction_matrix(self, d: int) -> Mat:
        """Matrix of the diagonal restriction M_d -> Gamma(W, ~M)_d."""
        cap, dim, cech = self._stable("h0_dim", d)
        if self.base.piece(d).dim == 0:
            return Mat.zeros(self.ring.field, dim, 0)
        blocks = {
            (i, 0): lp.proj @ self.base.power_act(self.cover.denoms[i], cap, d)
            for i, lp in enumerate(cech.levels[0])
        }
        return self._express(d, Mat.block(self.ring.field, blocks), cap)

    def flags(self) -> list[str]:
        lo, hi = self.window
        stable = {d: self.h0(d) for d in range(lo, hi + 1)}
        # a proven degree reads as escalation would accept it: at the start cap
        caps = [cap if self.floor_cap(d) is None else self.caps[0]
                for d, (cap, _dim, _cech) in stable.items()]
        return [f"caps:{min(caps)}..{max(caps)}", "stabilized",
                kernels_flag(cech for _cap, _dim, cech in stable.values())]


_live_sections: "WeakValueDictionary[tuple, SectionsModule]" = WeakValueDictionary()


def sections_window(module: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
                    start: int | None = None) -> SectionsModule:
    """Gamma(cover, ~module) over the window, escalating from the start cap.

    While a sections module for the same module, cover, window and start
    cap is alive, this returns it, so every check on the module shares one
    set of Cech complexes.  The key holds the resolved start, so leaving
    the start out and passing its default give the same module.  The
    registry keeps nothing alive: an entry goes when the last holder of
    its sections module drops it.
    """
    start = _start_cap(window, start)
    key = (module, cover, tuple(window), start)
    got = _live_sections.get(key)
    if got is None:
        got = _live_sections[key] = SectionsModule(module, cover, window, start)
    return got


def restriction_to_sections(s: SectionsModule) -> GradedModuleMap:
    """The diagonal restriction M -> Gamma(W, ~M) onto the given sections of M."""
    return GradedModuleMap(s.base, s, s.restriction_matrix, name=f"res({s.base.name})")


def sections_induced_map(u: GradedModuleMap, s_src: SectionsModule,
                         s_tgt: SectionsModule) -> GradedModuleMap:
    """The map Gamma(W, ~u) induced degreewise by a module map u."""
    if s_src.base is not u.source or s_tgt.base is not u.target:
        raise ValueError("sections modules do not match the map's endpoints")
    if s_src.cover is not s_tgt.cover:
        raise ValueError("sections live on different covers")

    def matrix(d: int) -> Mat:
        return s_src._map_into(d, s_tgt, d, lambda i, a: u.matrix(a))

    return GradedModuleMap(s_src, s_tgt, matrix, name=f"Gamma({u.name})")
