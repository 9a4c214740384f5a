"""The plane with doubled origin and quasicoherent sheaves on it.

X is built from two copies of the affine plane over the same polynomial
ring, glued along an open overlap W (a union of distinguished opens).
Everything here is degreewise and window-bounded: section functors over
X / U / V / W, the defect of the tensor-restriction comparison map, the
flat-cover obstruction, explicit H^1 witnesses of non-affineness, and
per-degree exactness reports for three-term sequences of sheaves.
"""

from dataclasses import dataclass
from itertools import combinations

from .exact_linalg import Mat, _quotient_with_indices, kernel_basis, rank, solve
from .graded_modules import (
    DegreewiseModule,
    FPGradedModule,
    GradedModuleMap,
    HomogPoly,
    PolyRing,
    direct_sum,
    free_module,
    kernel_dw,
    tensor_realization,
)
from .localization_cech import (
    DEFAULT_CAP_POLICY,
    DEFAULT_WINDOW,
    CapPolicy,
    H1Result,
    OpenSubset,
    SectionElement,
    SectionsModule,
    _stabilize,
    h1_window,
    restriction_to_sections,
    section_mult_block,
    sections_induced_map,
    sections_window,
)

__all__ = [
    "GluingMismatch",
    "BufferTooSmall",
    "DoubleGluedScheme",
    "double_origin_plane",
    "QcohSheafOnX",
    "direct_image_from_U",
    "sheaf_sections",
    "SheafMap",
    "DefectTable",
    "flat_sections_defect",
    "ObstructionCertificate",
    "flat_quotient_obstruction",
    "NonaffineWitness",
    "witness_nonaffine",
    "ExactnessReport",
    "exactness_tables",
    "sequence_report",
]


class GluingMismatch(RuntimeError):
    """The two patch-side computations of Gamma(W) disagree."""

    def __init__(self, degree: int, dim_u: int, dim_v: int):
        self.degree = degree
        self.dim_u = dim_u
        self.dim_v = dim_v
        super().__init__(
            f"W-sections disagree in degree {degree}: {dim_u} from patch U, "
            f"{dim_v} from patch V"
        )


class BufferTooSmall(ValueError):
    """A generator degree falls outside the buffered window of the obstruction scan."""


class DoubleGluedScheme:
    """X = U u_W V: two copies of Spec of the patch ring, glued along W.

    v1 restriction: both patches carry the same ring and the gluing is the
    identity on W.
    """

    def __init__(self, ring: PolyRing, overlap: OpenSubset):
        if overlap.ring is not ring:
            raise ValueError("the overlap cover must live over the patch ring")
        self.ring = ring
        self.overlap = overlap
        self._structure: DegreewiseModule | None = None

    def structure_module(self) -> DegreewiseModule:
        if self._structure is None:
            self._structure = free_module(self.ring, (0,))
        return self._structure

    def structure_sheaf(self, window=DEFAULT_WINDOW, policy: CapPolicy | None = None) -> "QcohSheafOnX":
        return QcohSheafOnX.glued(self, self.structure_module(), window=window, policy=policy)

    def __repr__(self):
        denoms = " u ".join(f"D({f})" for f in self.overlap.denoms)
        return f"DoubleGluedScheme(overlap={denoms})"


def double_origin_plane(ring: PolyRing) -> DoubleGluedScheme:
    """Two affine planes glued along the punctured plane D(x) u D(y)."""
    if ring.nvars != 2:
        raise ValueError("the doubled-origin plane needs exactly two variables")
    x = HomogPoly.variable(ring, 0)
    y = HomogPoly.variable(ring, 1)
    return DoubleGluedScheme(ring, OpenSubset(ring, (x, y)))


class QcohSheafOnX:
    """A quasicoherent sheaf on the doubled scheme: one module per patch.

    gluing "identity" means both patches carry literally the same module
    object, identified over W by the identity.  gluing "direct-image"
    means the sheaf is the pushforward of the U-patch module: the V-patch
    module is its module of W-sections, and restriction V -> W is the
    identity on that realization.

    The degree window and cap policy are fixed at construction; every
    section functor of the sheaf (and of maps out of it) uses them, and
    its W- and X-sections are computed once and kept.
    """

    def __init__(self, scheme: DoubleGluedScheme, m_U: DegreewiseModule,
                 m_V: DegreewiseModule, gluing: str, name: str | None = None,
                 window=DEFAULT_WINDOW, policy: CapPolicy | None = None):
        if gluing == "identity":
            if m_U is not m_V:
                raise ValueError("identity gluing requires one shared module object")
        elif gluing == "direct-image":
            if not isinstance(m_V, SectionsModule) or m_V.base is not m_U \
                    or m_V.cover is not scheme.overlap:
                raise ValueError("direct-image gluing requires m_V = W-sections of m_U")
        else:
            raise ValueError(f"unknown gluing {gluing!r}")
        self.scheme = scheme
        self.m_U = m_U
        self.m_V = m_V
        self.gluing = gluing
        self.name = name or m_U.name
        self.window = tuple(window)
        self.policy = policy or DEFAULT_CAP_POLICY
        self._w: tuple | None = None
        self._x: DegreewiseModule | None = None

    @classmethod
    def glued(cls, scheme: DoubleGluedScheme, m: DegreewiseModule, name: str | None = None,
              window=DEFAULT_WINDOW, policy: CapPolicy | None = None) -> "QcohSheafOnX":
        return cls(scheme, m, m, "identity", name=name, window=window, policy=policy)

    def _w_pair(self):
        """(canonical Gamma(W) realization, V-side recomputation)."""
        if self._w is None:
            sw_v = sections_window(self.m_V, self.scheme.overlap, self.window, self.policy)
            # identity gluing: one module object, hence literally one W-computation
            self._w = (sw_v, sw_v) if self.gluing == "identity" else (self.m_V, sw_v)
        return self._w

    def w_sections(self, compare: bool = True) -> DegreewiseModule:
        """Gamma(W) of the sheaf; checks the two patch computations agree."""
        sw_u, sw_v = self._w_pair()
        if compare and sw_v is not sw_u:
            lo, hi = self.window
            for d in range(lo, hi + 1):
                du, dv = sw_u.piece(d).dim, sw_v.piece(d).dim
                if du != dv:
                    raise GluingMismatch(d, du, dv)
        return sw_u

    def x_sections(self) -> DegreewiseModule:
        """Gamma(X): the equalizer of the two patch restrictions to W."""
        if self._x is not None:
            return self._x
        sw = self.w_sections(compare=False)
        res_u = restriction_to_sections(self.m_U, self.scheme.overlap, sections=sw)
        if self.gluing == "identity":
            res_v_matrix = res_u.matrix
        else:
            # pushforward: restriction V -> W is the identity on the
            # realization; the closure must not hold the sheaf, which
            # caches the result, or the two would form a reference cycle
            field = self.scheme.ring.field

            def res_v_matrix(d: int) -> Mat:
                return Mat.identity(field, sw.piece(d).dim)
        total = direct_sum((self.m_U, self.m_V))
        diff = GradedModuleMap(
            total, sw,
            lambda d: res_u.matrix(d).hstack(-res_v_matrix(d)),
            name=f"equalize({self.name})",
        )
        out = kernel_dw(diff)
        out.name = f"Gamma(X, {self.name})"
        self._x = out
        return out

    def __repr__(self):
        return f"QcohSheafOnX({self.name}, gluing={self.gluing})"


def direct_image_from_U(scheme: DoubleGluedScheme, n: DegreewiseModule,
                        window=DEFAULT_WINDOW, policy: CapPolicy | None = None,
                        name: str | None = None) -> QcohSheafOnX:
    """The pushforward along U -> X of the sheaf associated to n."""
    m_v = sections_window(n, scheme.overlap, window, policy)
    return QcohSheafOnX(scheme, n, m_v, "direct-image",
                        name=name or f"push({n.name})", window=window, policy=policy)


def sheaf_sections(s: QcohSheafOnX, open_name: str) -> DegreewiseModule:
    """Sections of s over one of the four canonical opens."""
    if open_name == "U":
        return s.m_U
    if open_name == "V":
        return s.m_V
    if open_name == "W":
        return s.w_sections()
    if open_name == "X":
        return s.x_sections()
    raise ValueError(f"unknown open {open_name!r}: expected one of X, U, V, W")


class SheafMap:
    """A morphism of sheaves on X, recorded as one map per patch.

    Its maps on sections are taken over the window and cap policy of its
    source and target sheaves, fixed when those were built.
    """

    def __init__(self, source: QcohSheafOnX, target: QcohSheafOnX,
                 u_U: GradedModuleMap, u_V: GradedModuleMap, name: str | None = None):
        if source.scheme is not target.scheme:
            raise ValueError("source and target live on different schemes")
        if u_U.source is not source.m_U or u_U.target is not target.m_U:
            raise ValueError("u_U does not match the U-patch modules")
        if u_V.source is not source.m_V or u_V.target is not target.m_V:
            raise ValueError("u_V does not match the V-patch modules")
        self.source = source
        self.target = target
        self.u_U = u_U
        self.u_V = u_V
        self.name = name or u_U.name
        self._w_map: GradedModuleMap | None = None

    @classmethod
    def glued(cls, source: QcohSheafOnX, target: QcohSheafOnX,
              u: GradedModuleMap, name: str | None = None) -> "SheafMap":
        """A map of identity-glued sheaves; one module map serves both patches."""
        if source.gluing != "identity" or target.gluing != "identity":
            raise ValueError("glued maps require identity-glued sheaves")
        return cls(source, target, u, u, name=name)

    @classmethod
    def direct_image(cls, source: QcohSheafOnX, target: QcohSheafOnX,
                     u: GradedModuleMap, name: str | None = None) -> "SheafMap":
        """The pushforward of a map of U-patch modules."""
        if source.gluing != "direct-image" or target.gluing != "direct-image":
            raise ValueError("direct-image maps require direct-image sheaves")
        u_v = sections_induced_map(u, source.m_V, target.m_V)
        return cls(source, target, u, u_v, name=name)

    def on_sections(self, open_name: str) -> GradedModuleMap:
        """The induced map on sections over the chosen open."""
        if open_name == "U":
            return self.u_U
        if open_name == "V":
            return self.u_V
        if open_name == "W":
            if self.source.gluing == "direct-image":
                return self.u_V
            if self._w_map is None:
                sw_s = self.source.w_sections(compare=False)
                sw_t = self.target.w_sections(compare=False)
                self._w_map = sections_induced_map(self.u_U, sw_s, sw_t)
            return self._w_map
        if open_name == "X":
            return self._x_map()
        raise ValueError(f"unknown open {open_name!r}: expected one of X, U, V, W")

    def _x_map(self) -> GradedModuleMap:
        ks = self.source.x_sections()
        kt = self.target.x_sections()
        field = self.source.scheme.ring.field

        def matrix(d: int) -> Mat:
            both = Mat.block(field, {(0, 0): self.u_U.matrix(d), (1, 1): self.u_V.matrix(d)})
            img = both @ ks.inclusion.matrix(d)
            sol = solve(kt.inclusion.matrix(d), img)
            if sol is None:
                raise ArithmeticError(
                    f"{self.name}: patch maps do not respect the equalizer in degree {d}"
                )
            return sol

        return GradedModuleMap(ks, kt, matrix, name=f"Gamma(X, {self.name})")

    def __repr__(self):
        return f"SheafMap({self.name}: {self.source.name} -> {self.target.name})"


@dataclass
class DefectTable:
    """Per-degree kernel/cokernel of (F tensor Gamma(W,O))_d -> Gamma(W, ~F)_d."""

    module_name: str
    window: tuple
    kernel: dict
    cokernel: dict
    flags: list

    @property
    def defect(self) -> dict:
        return {d: self.kernel[d] + self.cokernel[d] for d in self.kernel}

    @property
    def total(self) -> int:
        return sum(self.defect.values())


def flat_sections_defect(f: FPGradedModule, w: OpenSubset, window=DEFAULT_WINDOW,
                         policy: CapPolicy | None = None,
                         sections_o: SectionsModule | None = None) -> DefectTable:
    """Defect of the comparison map from tensored global sections.

    For each window degree the canonical map (F (x) Gamma(W,O))_d ->
    Gamma(W, ~F)_d sends gen_i (x) a to a * res(gen_i).  Free modules have
    zero defect; a nonzero entry certifies that restriction and tensoring
    do not commute for F over W.
    """
    lo, hi = window
    s_f = sections_window(f, w, window, policy)
    s_o = sections_o if sections_o is not None else sections_window(
        free_module(f.ring, (0,)), w, window, policy
    )
    if s_o.cover is not w:
        raise ValueError("structure sections live on a different cover")
    res = restriction_to_sections(f, w, window, policy, sections=s_f)
    gen_secs = []
    for i, e in enumerate(f.gen_degrees):
        gen_secs.append(SectionElement(s_f, e, res.matrix(e) @ f.gen_element(i)))

    field = f.ring.field
    kernel: dict = {}
    cokernel: dict = {}
    for d in range(lo, hi + 1):
        t = tensor_realization(f, s_o, d)
        tgt_dim = s_f.piece(d).dim
        blocks = {}
        col_dims = []
        for i, e in enumerate(f.gen_degrees):
            src_dim = s_o.piece(d - e).dim
            col_dims.append(src_dim)
            if src_dim and tgt_dim:
                blocks[0, i] = section_mult_block(
                    s_o, d - e, Mat.identity(field, src_dim), gen_secs[i]
                )
        free_map = Mat.block(field, blocks, [tgt_dim], col_dims)
        if t.rel_matrix.ncols and not (free_map @ t.rel_matrix).is_zero():
            raise ArithmeticError(
                f"comparison map fails to kill a tensor relation in degree {d}"
            )
        mu = free_map @ t.incl
        r = rank(mu)
        kernel[d] = t.piece.dim - r
        cokernel[d] = tgt_dim - r
    return DefectTable(f.name, tuple(window), kernel, cokernel, flags=s_f.flags(window))


@dataclass
class ObstructionCertificate:
    """Codimension table of the section-generated submodule of Gamma(W, M)."""

    sheaf_name: str
    window: tuple
    codims: dict
    cap: int
    flags: list

    @property
    def obstructed_degrees(self) -> tuple:
        return tuple(d for d in sorted(self.codims) if self.codims[d] > 0)

    @property
    def verdict(self) -> str:
        degs = self.obstructed_degrees
        if degs:
            return "obstructed(" + ",".join(str(d) for d in degs) + ")"
        return "no-obstruction-in-window"


def flat_quotient_obstruction(s: QcohSheafOnX) -> ObstructionCertificate:
    """Codim of the span of Gamma(W,O)-multiples of U-patch sections.

    Nonzero codim in some degree certifies that the sheaf cannot be an
    epimorphic image of a flat quasicoherent sheaf.  The span is generated
    by the restrictions of the U-patch generators: every section of the
    form a * res(m) is a Gamma(W,O)-combination of those, so nothing is
    lost (and nothing is assumed) by enumerating generators only.

    Gamma(W,-) pieces can be infinite-dimensional here (affine overlaps),
    so the table is computed at raw uniform caps and accepted only when
    it is reproduced at three consecutive escalations.
    """
    window = s.window
    lo, hi = window
    fp = s.m_U
    if not isinstance(fp, FPGradedModule):
        raise ValueError("the flat-cover obstruction needs a finitely presented U-patch module")
    buffer = max(fp.gen_degrees) + 2
    for e in fp.gen_degrees:
        if e > hi or e < lo - buffer:
            raise BufferTooSmall(
                f"generator degree {e} outside the buffered window [{lo - buffer}, {hi}]"
            )
    scheme = s.scheme
    cover = scheme.overlap
    o = scheme.structure_module()
    field = scheme.ring.field
    # the U-module's complexes are those of the sheaf's W-sections
    complexes_m = s.w_sections(compare=False).complexes
    complexes_o = sections_window(o, cover, window, s.policy).complexes

    def table_at(cap: int) -> tuple:
        cm, co = complexes_m[cap], complexes_o[cap]
        out = []
        for d in range(lo, hi + 1):
            deg_m = cm.degree(d)
            a = deg_m.h0_basis()
            blocks = {}
            col_dims = []
            for i, e in enumerate(fp.gen_degrees):
                deg_o = co.degree(d - e)
                b = deg_o.h0_basis()
                col_dims.append(b.ncols)
                if b.ncols == 0:
                    continue
                for j in range(cover.n):
                    lp_o = deg_o.levels[0][j]
                    lp_m = deg_m.levels[0][j]
                    off = deg_o.offsets[0][j]
                    numer = lp_o.incl @ b.take_rows(off, off + lp_o.dim)
                    alpha = (d - e) + cap * cover.denoms[j].degree
                    blocks[j, i] = lp_m.proj @ (fp.gen_mult(i, alpha) @ numer)
            row_dims = [lp.dim for lp in deg_m.levels[0]]
            p_mat = Mat.block(field, blocks, row_dims, col_dims)
            if rank(a.hstack(p_mat)) != a.ncols:
                raise ArithmeticError(
                    f"a generator multiple is not a section in degree {d} at cap {cap}"
                )
            out.append(a.ncols - rank(p_mat))
        return tuple(out)

    cap, table = _stabilize(table_at, s.policy.caps(window), f"obstruction table for {s.name}")
    codims = {d: table[d - lo] for d in range(lo, hi + 1)}
    statuses = [
        p.status
        for d in range(lo, hi + 1)
        for p in complexes_m[cap].degree(d).levels[0] + complexes_o[cap].degree(d).levels[0]
    ]
    certified = all(st.startswith("certified") for st in statuses)
    flags = [f"cap:{cap}", "stabilized",
             "kernels-certified" if certified else "kernels-heuristic"]
    return ObstructionCertificate(s.name, window, codims, cap, flags)


@dataclass
class NonaffineWitness:
    """An H^1 class exhibited by an explicit Cech 1-cocycle."""

    degree: int
    representative: str
    components: tuple
    cap: int
    cocycle: Mat


def _laurent_string(ring: PolyRing, numerator: HomogPoly, shift) -> str:
    """numerator / prod x_i^{shift_i} printed as a Laurent polynomial."""
    parts = []
    for mono in sorted(numerator.terms, reverse=True):
        c = numerator.terms[mono]
        exps = [a - s for a, s in zip(mono, shift)]
        factors = []
        for v, e in zip(ring.variables, exps):
            if e == 1:
                factors.append(v)
            elif e != 0:
                factors.append(f"{v}^{e}")
        body = "*".join(factors) if factors else "1"
        if c == ring.field.one:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}" if body != "1" else f"{c}")
    return " + ".join(parts) if parts else "0"


def witness_nonaffine(w: OpenSubset, window=DEFAULT_WINDOW,
                      module: DegreewiseModule | None = None,
                      policy: CapPolicy | None = None,
                      h1: H1Result | None = None) -> NonaffineWitness | None:
    """A nonzero H^1 class over W with explicit representative, if one exists
    in the window.  Returns None otherwise (absence proves nothing outside
    the window; a single-set cover never has one).

    h1, when given, is the H^1 of the module on w already computed by the
    caller; its module, window and policy are used, and nothing is
    recomputed."""
    if w.n == 1:
        return None
    if h1 is None:
        if module is None:
            module = free_module(w.ring, (0,))
        h1 = h1_window(module, w, window, policy)
    elif h1.cover is not w or (module is not None and h1.module is not module):
        raise ValueError("the H^1 result belongs to another module or cover")
    module = h1.module
    field = module.ring.field
    lo, hi = h1.window
    found = None
    for d in range(hi, lo - 1, -1):
        if h1.dims[d] > 0:
            found = d
            break
    if found is None:
        return None
    cech, cap = h1.realization(found)
    cocycles, d0 = cech.h1_parts()
    c1_dim = cech.level_dim(1)
    _, proj, idx = _quotient_with_indices(d0, c1_dim)
    d1 = cech.diffs[1] if cech.n >= 3 else None

    witness = None
    for j in idx:  # prefer a single-coordinate representative
        cand = Mat.from_cols(field, [{j: field.one}], c1_dim)
        if d1 is None or (d1 @ cand).is_zero():
            witness = cand
            break
    if witness is None:
        for j in range(cocycles.ncols):
            cand = cocycles.take_cols([j])
            if not (proj @ cand).is_zero():
                witness = cand
                break
    if witness is None:
        raise ArithmeticError("positive H^1 dimension but no witness column found")
    if rank(d0.hstack(witness)) != rank(d0) + 1:
        raise ArithmeticError("witness candidate is a coboundary")

    # re-verify at the next cap: a stable class must survive the lift
    cap2 = cap + h1.sections.policy.step
    cech2 = h1.sections.complexes[cap2].degree(found)
    pieces = cech.levels[1]
    lifted_blocks = {}
    pos = 0
    pairs = list(_level1_subsets(w))
    for k, lp in enumerate(pieces):
        block = witness.take_rows(pos, pos + lp.dim)
        pos += lp.dim
        f_s = w.product(pairs[k])
        lifted_blocks[k, 0] = cech2.levels[1][k].proj @ (
            module.power_act(f_s, cap2 - cap, lp.num_degree) @ (lp.incl @ block)
        )
    lifted = Mat.block(field, lifted_blocks)
    d0_next = cech2.diffs[0]
    if rank(d0_next.hstack(lifted)) != rank(d0_next) + 1:
        raise ArithmeticError("witness class dies at the next cap")

    reps = []
    comps = []
    pos = 0
    for k, lp in enumerate(pieces):
        block = witness.take_rows(pos, pos + lp.dim)
        pos += lp.dim
        if block.is_zero():
            continue
        f_s = w.product(pairs[k])
        numer_col = lp.incl @ block
        labels = module.piece(lp.num_degree).labels
        comps.append("D(" + str(f_s) + ")")
        reps.append(_component_string(module, labels, numer_col, lp.num_degree, f_s, cap))
    representative = reps[0] if len(reps) == 1 else "; ".join(
        f"{c}: {r}" for c, r in zip(comps, reps)
    )
    return NonaffineWitness(found, representative, tuple(comps), cap, witness)


def _level1_subsets(w: OpenSubset):
    return combinations(range(w.n), 2)


def _component_string(module: DegreewiseModule, labels, numer_col: Mat,
                      num_degree: int, f_s: HomogPoly, cap: int) -> str:
    ring = module.ring
    # structure-type labels (gen index, monomial) with a monomial denominator
    # print as Laurent monomials; anything else as numerator / f^cap
    if f_s.is_monomial():
        shift_mono = next(iter(f_s.terms))
        shift = tuple(cap * e for e in shift_mono)
        terms = {}
        simple = True
        for r, lab in enumerate(labels):
            c = numer_col.entry(r, 0)
            if not c:
                continue
            if isinstance(lab, tuple) and len(lab) == 2 and lab[0] == 0 \
                    and isinstance(lab[1], tuple):
                terms[lab[1]] = c
            else:
                simple = False
                break
        if simple:
            num = HomogPoly(ring, num_degree, terms)
            return _laurent_string(ring, num, shift)
    entries = [f"{numer_col.entry(r, 0)}*[{labels[r]}]"
               for r in range(numer_col.nrows) if numer_col.entry(r, 0)]
    return "(" + " + ".join(entries) + f") / ({f_s})^{cap}"


@dataclass
class ExactnessReport:
    """Per-degree kernel / middle-homology / cokernel of a three-term sequence."""

    open_name: str
    window: tuple
    kernel: dict
    homology: dict
    cokernel: dict
    complex_ok: bool
    flags: list

    @property
    def verdict(self) -> str:
        if not self.complex_ok:
            return "not-exact"
        k = all(v == 0 for v in self.kernel.values())
        h = all(v == 0 for v in self.homology.values())
        c = all(v == 0 for v in self.cokernel.values())
        if k and h and c:
            return "exact"
        if k and h:
            return "left-exact-only"
        return "not-exact"


def exactness_tables(f: GradedModuleMap, g: GradedModuleMap, window,
                     open_name: str = "") -> ExactnessReport:
    """Exactness bookkeeping for A -f-> B -g-> C, degree by degree.

    homology[d] = dim ker(g)_d - dim(im(f)_d n ker(g)_d): zero exactly when
    the sequence is middle-exact in degree d (whether or not gf = 0)."""
    if isinstance(f, SheafMap) or isinstance(g, SheafMap):
        raise TypeError("expected graded module maps; for a pair of sheaf "
                        "maps use sequence_report with an open name")
    if f.target is not g.source:
        raise ValueError("the two maps are not composable")
    lo, hi = window
    kernel: dict = {}
    homology: dict = {}
    cokernel: dict = {}
    complex_ok = True
    for d in range(lo, hi + 1):
        mf = f.matrix(d)
        mg = g.matrix(d)
        if not (mg @ mf).is_zero():
            complex_ok = False
        rf = rank(mf)
        kg = kernel_basis(mg)
        inter = rf + kg.ncols - rank(mf.hstack(kg))
        kernel[d] = mf.ncols - rf
        homology[d] = kg.ncols - inter
        cokernel[d] = mg.nrows - rank(mg)
    flags = [] if complex_ok else ["not-a-complex"]
    return ExactnessReport(open_name, tuple(window), kernel, homology, cokernel,
                           complex_ok, flags)


def sequence_report(f: SheafMap, g: SheafMap, open_name: str) -> ExactnessReport:
    """Exactness of the section sequence of A -f-> B -g-> C over one open,
    over the window of A."""
    if f.target is not g.source:
        raise ValueError("the sheaf maps are not composable")
    uf = f.on_sections(open_name)
    ug = g.on_sections(open_name)
    return exactness_tables(uf, ug, f.source.window, open_name=open_name)
