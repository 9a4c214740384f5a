"""Degreewise localization and Cech cohomology on distinguished covers.

The graded localization M_f has graded pieces that are colimits
(M_f)_d = colim ( M_d -> M_{d+deg f} -> ... ), the maps being
multiplication by f.  We realize the colimit at a finite stage, the "cap":

    (M_f)_d at cap N  :=  M_{d + N deg f} / (stable kernel of f-powers),

an honest subspace of the true piece that grows with N.  The stable kernel
is certified exactly when the module knows its f-torsion (free modules,
monomial quotients, graded duals of finitely generated modules); otherwise
powers of f are iterated until two consecutive kernels agree and the piece
is flagged heuristic.

Cech complexes on a cover {D(f_1), ..., D(f_n)} use one uniform cap for
every intersection; the degree-d realization checks d o d = 0 outright.
Cohomology in a degree window is reported at a cap found in one of two
ways.  Where a theorem fixes the cap (a fine-graded presentation with
exact localizations on the cover by all the variables; see
_proven_cap_floor) the degree is built at the start cap alone, because
every larger cap gives the same dimensions.  Everywhere else the cap is
found by escalation: start at (window width + 2), step by 2, accept once
the dimensions are unchanged for two consecutive increments, give up
(CapExhausted) after five escalations.  Both report the same cap, so a
proven degree reads exactly as an escalated one that settled at its
start.  Sections over the cover then become an ordinary
DegreewiseModule whose elements can be restricted to and expressed from
C^0 vectors given at any cap.  Every map given on numerators (a variable
action, an induced map, a lift to a larger cap, a * gen_i) carries
cochains through _cochain_apply, the one place that builds
proj @ numerator map @ incl.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from weakref import WeakValueDictionary

from .exact_linalg import Mat, kernel_basis, rref, solve, _quotient_with_indices
from .graded_modules import (
    ALL_TORSION,
    DegreewiseModule,
    FPGradedModule,
    GradedModuleMap,
    GradedPiece,
    HomogPoly,
    PolyRing,
)

__all__ = [
    "CapExhausted",
    "CapPolicy",
    "DEFAULT_WINDOW",
    "OpenSubset",
    "LocalizedPiece",
    "localize_piece",
    "CechComplexWindow",
    "cech_complex",
    "SectionsModule",
    "sections_window",
    "H1Result",
    "h1_window",
    "restriction_to_sections",
    "sections_induced_map",
]

DEFAULT_WINDOW = (-6, 6)


class CapExhausted(RuntimeError):
    """Dimensions failed to stabilize within the cap escalation budget."""


@dataclass(frozen=True)
class CapPolicy:
    """Cap escalation: start (default window width + 2), step, budget."""

    start: int | None = None
    step: int = 2
    max_escalations: int = 5

    def __post_init__(self):
        # a step of 0 repeats one cap, so any value looks stable; with fewer
        # than two escalations no value can repeat twice more
        if self.start is not None and self.start < 1:
            raise ValueError(f"cap start must be at least 1, got {self.start}")
        if self.step < 1:
            raise ValueError(f"cap step must be at least 1, got {self.step}")
        if self.max_escalations < 2:
            raise ValueError(
                f"cap escalation needs at least 2 escalations, got {self.max_escalations}"
            )

    def start_cap(self, window) -> int:
        if self.start is not None:
            return self.start
        lo, hi = window
        return (hi - lo) + 2

    def caps(self, window) -> list[int]:
        c0 = self.start_cap(window)
        return [c0 + self.step * k for k in range(self.max_escalations + 1)]


DEFAULT_CAP_POLICY = CapPolicy()


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

    piece has the surviving numerator labels; incl embeds the realized
    basis into the numerator space M_{d + cap deg f}, proj is the quotient
    projection the other way.  status records whether the stable kernel
    was certified or found heuristically.
    """

    __slots__ = ("d", "cap", "num_degree", "status", "piece", "incl", "proj")

    def __init__(self, d, cap, num_degree, status, piece, incl, proj):
        self.d = d
        self.cap = cap
        self.num_degree = num_degree
        self.status = status
        self.piece = piece
        self.incl = incl
        self.proj = proj

    @property
    def dim(self) -> int:
        return self.piece.dim

    def __repr__(self):
        return f"LocalizedPiece(d={self.d}, cap={self.cap}, dim={self.dim}, {self.status})"


def localize_piece(module: DegreewiseModule, f: HomogPoly, d: int, cap: int) -> LocalizedPiece:
    """Realize (M_f)_d at the given cap; see the module docstring."""
    if f.is_zero():
        raise ValueError("cannot localize at zero")
    field = module.ring.field
    num_degree = d + cap * f.degree
    num = module.piece(num_degree)
    if num.dim == 0:
        empty = Mat.zeros(field, 0, 0)
        zero_piece = GradedPiece(field, ())
        return LocalizedPiece(d, cap, num_degree, "certified-in-window",
                              zero_piece, empty, empty)

    bound = module.torsion_bound(f)
    if bound == ALL_TORSION:
        stable = Mat.identity(field, num.dim)
        status = "certified-in-window"
    elif bound is not None:
        t = bound
        stable = (
            Mat.zeros(field, num.dim, 0)
            if t == 0
            else kernel_basis(module.power_act(f, t, num_degree))
        )
        status = "certified-in-window"
    else:
        prev = kernel_basis(module.power_act(f, 1, num_degree))
        t = 1
        while True:
            nxt = kernel_basis(module.power_act(f, t + 1, num_degree))
            if nxt.ncols == prev.ncols:
                break
            prev = nxt
            t += 1
            if t > num.dim + 1:  # the kernel chain cannot strictly grow this long
                raise ArithmeticError("stable kernel iteration failed to terminate")
        stable = prev
        status = f"heuristic({t})"

    if stable.ncols == 0:
        # nothing is killed: incl and proj are x^0, one matrix per module
        # and degree however many localizations share it
        piece = GradedPiece(field, num.labels)
        ident = module.mono_act((0,) * module.ring.nvars, num_degree)
        return LocalizedPiece(d, cap, num_degree, status, piece, ident, ident)
    coset, proj, idx = _quotient_with_indices(stable, num.dim)
    piece = GradedPiece(field, tuple(num.labels[j] for j in idx))
    return LocalizedPiece(d, cap, num_degree, status, piece, coset, proj)


def _cochain_apply(pieces_from, pieces_to, numer, vecs: Mat) -> Mat:
    """Carry cochains through a map given on numerators.

    vecs stacks one block of rows per piece of pieces_from; block k goes
    to tgt.proj @ numer(k, src.num_degree) @ src.incl @ block, stacked
    over pieces_to.  The map is applied to the vectors first, so no
    product the size of a whole piece is built.
    """
    blocks = {}
    pos = 0
    for k, (src, tgt) in enumerate(zip(pieces_from, pieces_to)):
        rows = vecs.take_rows(pos, pos + src.dim)
        pos += src.dim
        blocks[k, 0] = tgt.proj @ (numer(k, src.num_degree) @ (src.incl @ rows))
    return Mat.block(vecs.field, blocks)


class _CechDegree:
    """All realized pieces and differentials of the complex in one degree."""

    __slots__ = ("levels", "diffs", "n", "field", "_h0_basis")

    def __init__(self, levels, diffs, n, field):
        self.levels = levels
        self.diffs = diffs
        self.n = n
        self.field = field
        self._h0_basis = None

    def level_dim(self, k: int) -> int:
        return sum(p.dim for p in self.levels[k]) if k < len(self.levels) else 0

    def h0_basis(self) -> Mat:
        if self._h0_basis is None:
            if self.n == 1:
                self._h0_basis = Mat.identity(self.field, self.level_dim(0))
            else:
                self._h0_basis = kernel_basis(self.diffs[0])
        return self._h0_basis

    @property
    def h0_dim(self) -> int:
        return self.h0_basis().ncols

    @property
    def h1_dim(self) -> int:
        if self.n == 1:
            return 0
        rank_d0 = len(rref(self.diffs[0])[1])
        dim_c1 = self.level_dim(1)
        rank_d1 = len(rref(self.diffs[1])[1]) if self.n >= 3 else 0
        return (dim_c1 - rank_d1) - rank_d0

    def h1_parts(self) -> tuple[Mat, Mat]:
        """(basis of 1-cocycles, matrix of d0) for witness extraction."""
        if self.n == 1:
            raise ValueError("no H^1 on a single-element cover")
        if self.n >= 3:
            cocycles = kernel_basis(self.diffs[1])
        else:
            cocycles = Mat.identity(self.field, self.level_dim(1))
        return cocycles, self.diffs[0]

    def statuses(self) -> tuple[str, ...]:
        return tuple(p.status for level in self.levels for p in level)


class CechComplexWindow:
    """The Cech complex of a module on a cover, at one uniform cap.

    Degree realizations are lazy and memoized; building one verifies
    d o d = 0 on the spot.
    """

    def __init__(self, module: DegreewiseModule, cover: OpenSubset, window, cap: int):
        self.module = module
        self.cover = cover
        self.window = tuple(window)
        self.cap = cap
        self._subsets = [tuple(combinations(range(cover.n), k + 1)) for k in range(cover.n)]
        self._subset_index = [
            {s: i for i, s in enumerate(level)} for level in self._subsets
        ]
        self._degrees: dict[int, _CechDegree] = {}

    def degree(self, d: int) -> _CechDegree:
        got = self._degrees.get(d)
        if got is not None:
            return got
        field = self.module.ring.field
        n = self.cover.n
        levels = [
            [localize_piece(self.module, self.cover.product(S), d, self.cap)
             for S in self._subsets[k]]
            for k in range(n)
        ]
        diffs = []
        for k in range(n - 1):
            src_pieces, tgt_pieces = levels[k], levels[k + 1]
            blocks = {}
            for ti, T in enumerate(self._subsets[k + 1]):
                tgt = tgt_pieces[ti]
                if tgt.dim == 0:
                    continue
                for pos in range(len(T)):
                    i = T[pos]
                    S = T[:pos] + T[pos + 1:]
                    si = self._subset_index[k][S]
                    src = src_pieces[si]
                    if src.dim == 0:
                        continue
                    mult = self.module.power_act(self.cover.denoms[i], self.cap, src.num_degree)
                    block = tgt.proj @ mult @ src.incl
                    blocks[ti, si] = -block if pos % 2 else block
            diffs.append(Mat.block(field, blocks, [p.dim for p in tgt_pieces],
                                   [p.dim for p in src_pieces]))
        for k in range(len(diffs) - 1):
            if not (diffs[k + 1] @ diffs[k]).is_zero():
                raise ArithmeticError(
                    f"Cech differential square is nonzero in degree {d} at cap {self.cap}"
                )
        got = _CechDegree(levels, diffs, n, field)
        self._degrees[d] = got
        return got


class _CechComplexes(dict):
    """cap -> CechComplexWindow of one module on one cover, built on first use.

    This is the one cache of Cech complexes.  Only a SectionsModule owns
    one; H^1 results and the obstruction scan read the complexes of the
    sections module that sections_window hands them, and the complexes die
    with that module: a cache kept on the module object would hold every
    complex of a run until the run ends.
    """

    def __init__(self, module: DegreewiseModule, cover: OpenSubset, window):
        super().__init__()
        self.module = module
        self.cover = cover
        self.window = tuple(window)

    def __missing__(self, cap: int) -> CechComplexWindow:
        got = self[cap] = CechComplexWindow(self.module, self.cover, self.window, cap)
        return got


def cech_complex(module: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
                 cap: int | None = None) -> CechComplexWindow:
    if cap is None:
        cap = DEFAULT_CAP_POLICY.start_cap(window)
    return CechComplexWindow(module, cover, window, cap)


class _SecPiece:
    __slots__ = ("cap", "basis", "piece", "certified")

    def __init__(self, cap, basis, piece, certified):
        self.cap = cap
        self.basis = basis
        self.piece = piece
        self.certified = certified


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


def _proven_cap_floor(module: DegreewiseModule, cover: OpenSubset) -> int | None:
    """t with c0(d) = max(0, t - d) when a theorem fixes the cap, else None.

    The class: module is an FPGradedModule with at least one generator
    whose presentation is fine-graded (FPGradedModule.fine_grading, with
    components C, bounds b_C and torsion powers T_i), and the cover is
    W = D(x_1) u ... u D(x_n) with every variable of R appearing exactly
    once, up to a nonzero scalar.  Every localization must be exact: for
    each cover product f = x_S, either torsion_bound(f) certifies the
    stable kernel, or T(f) = max over i in S of T_i is at most 1, so the
    kernel chain of localize_piece, which starts at t = 1, stops at some
    t >= T(f) and returns ker f^T(f), the whole f-torsion.

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

    So when c0(d) <= the start cap, escalation would return the start cap
    with these same dimensions, and one complex at the start cap says it.
    """
    if not isinstance(module, FPGradedModule) or not module.gen_degrees:
        return None
    fine = module.fine_grading()
    if fine is None:
        return None
    n = module.ring.nvars
    variables = []
    for f in cover.denoms:
        if f.degree != 1 or not f.is_monomial():
            return None
        variables.append(next(iter(f.terms)).index(1))
    if sorted(variables) != list(range(n)):
        return None
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            f = cover.product(subset)
            if module.torsion_bound(f) is None and fine.power(next(iter(f.terms))) > 1:
                return None
    return fine.top - n + 1


class SectionsModule(DegreewiseModule):
    """Gamma(W, ~M) as a degreewise module, W a union of distinguished opens.

    Each piece is the degree-d Cech H^0 at a per-degree cap, proven or
    stabilized (see _caps).  A map given on numerators (variable actions,
    induced maps) is applied to the H^0 basis at its cap by _map_into;
    its result, like restriction from M, is re-expressed in the target's
    basis by lifting both to a common cap (multiplying numerators by
    powers of the denominators) and solving exactly; a failed solve means
    a cap lied and raises CapExhausted rather than guessing.
    """

    def __init__(self, base: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
                 policy: CapPolicy | None = None, name: str | None = None):
        self.base = base
        self.cover = cover
        self.window = tuple(window)
        self.policy = policy or DEFAULT_CAP_POLICY
        self.complexes = _CechComplexes(base, cover, self.window)
        self._cap_floor = _proven_cap_floor(base, cover)
        self._loc_memo: dict[tuple, LocalizedPiece] = {}
        self._sec: dict[int, _SecPiece] = {}
        super().__init__(base.ring, name=name or f"sections({base.name})")

    def _caps(self, d: int) -> list[int]:
        """The caps to try in degree d: the start cap alone where
        _proven_cap_floor shows it gives the stable dimensions, the whole
        escalation otherwise."""
        caps = self.policy.caps(self.window)
        if self._cap_floor is not None and max(0, self._cap_floor - d) <= caps[0]:
            return caps[:1]
        return caps

    def _realize(self, d: int) -> _SecPiece:
        got = self._sec.get(d)
        if got is not None:
            return got
        cap, _dim = _stabilize(
            lambda c: self.complexes[c].degree(d).h0_dim,
            self._caps(d),
            f"H0 of {self.base.name} in degree {d}",
        )
        cech = self.complexes[cap].degree(d)
        basis = cech.h0_basis()
        piece = GradedPiece(self.ring.field, tuple(("sec", j) for j in range(basis.ncols)))
        certified = all(s.startswith("certified") for s in cech.statuses())
        got = _SecPiece(cap, basis, piece, certified)
        self._sec[d] = got
        for i, lp in enumerate(cech.levels[0]):
            self._loc_memo.setdefault((i, d, cap), lp)
        return got

    def _piece(self, d: int) -> GradedPiece:
        return self._realize(d).piece

    def certified(self, d: int) -> bool:
        """Whether every localization entering degree d carried a certified
        torsion bound (as opposed to the kernel-chain heuristic)."""
        return self._realize(d).certified

    def _loc(self, i: int, d: int, cap: int) -> LocalizedPiece:
        key = (i, d, cap)
        got = self._loc_memo.get(key)
        if got is None:
            got = localize_piece(self.base, self.cover.denoms[i], d, cap)
            self._loc_memo[key] = got
        return got

    def _locs(self, d: int, cap: int) -> list[LocalizedPiece]:
        return [self._loc(i, d, cap) for i in range(self.cover.n)]

    def _lift(self, d: int, cap_from: int, cap_to: int, vecs: Mat) -> Mat:
        """C^0 vectors of degree d at one cap, lifted to a larger one."""
        if cap_from == cap_to:
            return vecs
        t = cap_to - cap_from
        return _cochain_apply(
            self._locs(d, cap_from), self._locs(d, cap_to),
            lambda i, a: self.base.power_act(self.cover.denoms[i], t, a), vecs,
        )

    def _express(self, d: int, vecs: Mat, cap: int) -> Mat:
        """Coordinates in piece(d) of C^0 vectors given at some cap."""
        r = self._realize(d)
        common = max(cap, r.cap)
        basis = self._lift(d, r.cap, common, r.basis)
        lifted = self._lift(d, cap, common, vecs)
        coords = solve(basis, lifted)
        if coords is None:
            raise CapExhausted(
                f"{self.name}: a section of degree {d} is not representable at the "
                f"stabilized cap {r.cap}"
            )
        return coords

    def _map_into(self, d: int, target: "SectionsModule", d_to: int, numer) -> Mat:
        """Matrix, in the bases of piece(d) and target.piece(d_to), of the
        map that numer(i, a) : M_a -> N_(a + d_to - d) gives on the
        numerators of the cover piece D(f_i)."""
        r = self._realize(d)
        vecs = _cochain_apply(self._locs(d, r.cap), target._locs(d_to, r.cap),
                              numer, r.basis)
        return target._express(d_to, vecs, r.cap)

    def _act(self, var: int, d: int) -> Mat:
        return self._map_into(d, self, d + 1, lambda i, a: self.base.act(var, a))

    def restriction_matrix(self, d: int) -> Mat:
        """Matrix of the diagonal restriction M_d -> Gamma(W, ~M)_d."""
        r = self._realize(d)
        src_dim = self.base.piece(d).dim
        if src_dim == 0:
            return Mat.zeros(self.ring.field, r.piece.dim, 0)
        blocks = {}
        for i in range(self.cover.n):
            lp = self._loc(i, d, r.cap)
            mult = self.base.power_act(self.cover.denoms[i], r.cap, d)
            blocks[i, 0] = lp.proj @ mult
        return self._express(d, Mat.block(self.ring.field, blocks), r.cap)

    def flags(self, window=None) -> list[str]:
        lo, hi = window or self.window
        caps = []
        heuristic = False
        for d in range(lo, hi + 1):
            r = self._realize(d)
            caps.append(r.cap)
            heuristic = heuristic or not r.certified
        out = [f"caps:{min(caps)}..{max(caps)}", "stabilized"]
        out.append("kernels-heuristic" if heuristic else "kernels-certified")
        return out


_live_sections: "WeakValueDictionary[tuple, SectionsModule]" = WeakValueDictionary()


def sections_window(module: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
                    policy: CapPolicy | None = None) -> SectionsModule:
    """Gamma(cover, ~module) over the window.

    While a sections module for the same module, cover, window and policy
    is alive, this returns it, so every check on the module shares one set
    of Cech complexes.  The registry keeps nothing alive: an entry goes
    when the last holder of its sections module drops it.
    """
    policy = policy or DEFAULT_CAP_POLICY
    key = (module, cover, tuple(window), policy)
    got = _live_sections.get(key)
    if got is None:
        got = _live_sections[key] = SectionsModule(module, cover, window, policy)
    return got


class H1Result:
    """Per-degree H^1 dimensions over a window, with stabilization data."""

    def __init__(self, module, cover, window, policy):
        self.module = module
        self.cover = cover
        self.window = tuple(window)
        # the Cech complexes are those of the module's sections over the cover
        self.sections = sections_window(module, cover, self.window, policy)
        complexes = self.sections.complexes
        self.dims: dict[int, int] = {}
        self.caps: dict[int, int] = {}
        self.certified: dict[int, bool] = {}
        lo, hi = self.window
        for d in range(lo, hi + 1):
            cap, dim = _stabilize(
                lambda c: complexes[c].degree(d).h1_dim,
                self.sections._caps(d),
                f"H1 of {module.name} in degree {d}",
            )
            self.dims[d] = dim
            self.caps[d] = cap
            self.certified[d] = all(
                s.startswith("certified") for s in complexes[cap].degree(d).statuses()
            )

    def realization(self, d: int) -> tuple[_CechDegree, int]:
        cap = self.caps[d]
        return self.sections.complexes[cap].degree(d), cap


def h1_window(module: DegreewiseModule, cover: OpenSubset, window=DEFAULT_WINDOW,
              policy: CapPolicy | None = None) -> H1Result:
    return H1Result(module, cover, window, policy)


def restriction_to_sections(module: DegreewiseModule, cover: OpenSubset,
                            window=DEFAULT_WINDOW, policy: CapPolicy | None = None,
                            sections: SectionsModule | None = None) -> GradedModuleMap:
    s = sections if sections is not None else sections_window(module, cover, window, policy)
    if s.base is not module:
        raise ValueError("sections module does not match the module being restricted")
    return GradedModuleMap(module, s, s.restriction_matrix, name=f"res({module.name})")


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
