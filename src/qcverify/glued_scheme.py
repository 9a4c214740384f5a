"""The plane with doubled origin and quasicoherent sheaves on it.

X is built from two copies of the affine plane over the same polynomial
ring, glued along an open overlap W (a union of distinguished opens).
Everything here is degreewise and window-bounded: section functors over
X / U / V / W, the defect of the tensor-restriction comparison map, the
flat-cover obstruction, explicit H^1 witnesses of non-affineness, and
per-degree exactness reports for three-term sequences of sheaves.
"""

from typing import NamedTuple
from weakref import WeakKeyDictionary

from .exact_linalg import Mat, _quotient_with_indices, kernel_basis, kernel_coords, rank
from .graded_modules import (
    DegreewiseModule,
    FPGradedModule,
    GradedModuleMap,
    HomogPoly,
    PolyRing,
    _mono_str,
    direct_sum,
    kernel_dw,
    tensor_relations,
)
from .localization_cech import (
    DEFAULT_WINDOW,
    OpenSubset,
    SectionsModule,
    _CAP_STEP,
    _cochain_apply,
    _lift,
    _num_degrees,
    _stabilize,
    kernels_flag,
    restriction_to_sections,
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


OPENS = ("X", "U", "V", "W")  # the opens that sheaf_sections and on_sections take
_UNKNOWN_OPEN = "unknown open {!r}: expected one of " + ", ".join(OPENS)


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

    The overlap W determines the scheme: the patch ring is overlap.ring,
    both patches carry it, and the gluing is the identity on W.
    """

    def __init__(self, overlap: OpenSubset):
        self.ring = overlap.ring
        self.overlap = overlap

    def __repr__(self):
        denoms = " u ".join(f"D({f})" for f in self.overlap.denoms)
        return f"DoubleGluedScheme(overlap={denoms})"


def double_origin_plane(ring: PolyRing) -> DoubleGluedScheme:
    """Two affine planes glued along the punctured plane D(x) u D(y)."""
    if ring.nvars != 2:
        raise ValueError("the doubled-origin plane needs exactly two variables")
    x = HomogPoly.variable(ring, 0)
    y = HomogPoly.variable(ring, 1)
    return DoubleGluedScheme(OpenSubset(ring, (x, y)))


class QcohSheafOnX:
    """A quasicoherent sheaf on the doubled scheme: one module per patch.

    The gluing is read off the two modules.  It is "identity" when both
    patches carry literally the same module object (m_V is m_U),
    identified over W by the identity.  It is "direct-image" when m_V is
    the module of W-sections of m_U on the scheme's overlap: the sheaf is
    the pushforward of the U-patch module, and restriction V -> W is the
    identity on that realization.  Any other pair is refused.

    The degree window and start cap (None: window width + 2) are fixed at
    construction; every section functor of the sheaf (and of maps out of
    it) uses them, and its W- and X-sections are computed once and kept.
    """

    def __init__(self, scheme: DoubleGluedScheme, m_U: DegreewiseModule,
                 m_V: DegreewiseModule, name: str | None = None,
                 window=DEFAULT_WINDOW, start: int | None = None):
        if m_V is m_U:
            self.gluing = "identity"
        elif isinstance(m_V, SectionsModule) and m_V.base is m_U \
                and m_V.cover is scheme.overlap:
            self.gluing = "direct-image"
        else:
            raise ValueError("the V-patch module must be the U-patch module (identity "
                             "gluing) or its W-sections (direct image)")
        self.scheme = scheme
        self.m_U = m_U
        self.m_V = m_V
        self.name = name or m_U.name
        self.window = tuple(window)
        self.start = start
        self._w: DegreewiseModule | None = None
        self._x: DegreewiseModule | None = None

    @classmethod
    def glued(cls, scheme: DoubleGluedScheme, m: DegreewiseModule, name: str | None = None,
              window=DEFAULT_WINDOW, start: int | None = None) -> "QcohSheafOnX":
        return cls(scheme, m, m, name=name, window=window, start=start)

    def w_sections(self) -> DegreewiseModule:
        """Gamma(W) of the sheaf, from the U patch: m_V itself for a direct
        image.  sheaf_sections(s, "W") checks it against the V patch."""
        if self._w is None:
            if self.gluing == "direct-image":
                self._w = self.m_V
            else:
                self._w = sections_window(self.m_U, self.scheme.overlap, self.window, self.start)
        return self._w

    def x_sections(self) -> DegreewiseModule:
        """Gamma(X): the equalizer of the two patch restrictions to W."""
        if self._x is not None:
            return self._x
        sw = self.w_sections()
        res_u = restriction_to_sections(sw)
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
                        window=DEFAULT_WINDOW, start: int | None = None,
                        name: str | None = None) -> QcohSheafOnX:
    """The pushforward along U -> X of the sheaf associated to n."""
    m_v = sections_window(n, scheme.overlap, window, start)
    return QcohSheafOnX(scheme, n, m_v, name=name or f"push({n.name})", window=window,
                        start=start)


def sheaf_sections(s: QcohSheafOnX, open_name: str) -> DegreewiseModule:
    """Sections of s over one of the four canonical opens.

    Over W the two patch computations are compared: for a direct image,
    Gamma(W) from U (m_V) against the W-sections of the V patch, degree by
    degree, and a disagreement raises GluingMismatch.  An identity-glued
    sheaf has one module object, hence literally one W-computation."""
    if open_name == "U":
        return s.m_U
    if open_name == "V":
        return s.m_V
    if open_name == "W":
        sw_u = s.w_sections()
        if s.gluing == "direct-image":
            sw_v = sections_window(s.m_V, s.scheme.overlap, s.window, s.start)
            lo, hi = s.window
            for d in range(lo, hi + 1):
                du, dv = sw_u.piece(d).dim, sw_v.piece(d).dim
                if du != dv:
                    raise GluingMismatch(d, du, dv)
        return sw_u
    if open_name == "X":
        return s.x_sections()
    raise ValueError(_UNKNOWN_OPEN.format(open_name))


class SheafMap:
    """A morphism of sheaves on X, recorded as one map per patch.

    Its maps on sections are taken over the window and start cap of its
    source and target sheaves, fixed when those were built.  It keeps the
    reports sequence_report makes with it as the first map, per (g, open),
    holding g weakly: g may be this map itself, and a strong key would then
    be a reference cycle that only the cyclic collector frees.
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
        self._reports: WeakKeyDictionary = WeakKeyDictionary()

    @classmethod
    def glued(cls, source: QcohSheafOnX, target: QcohSheafOnX,
              u: GradedModuleMap, name: str | None = None) -> "SheafMap":
        """A map of identity-glued sheaves; one module map serves both patches."""
        if source.gluing != "identity" or target.gluing != "identity":
            raise ValueError("glued maps require identity-glued sheaves")
        return cls(source, target, u, u, name=name)

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
                sw_s = self.source.w_sections()
                sw_t = self.target.w_sections()
                self._w_map = sections_induced_map(self.u_U, sw_s, sw_t)
            return self._w_map
        if open_name == "X":
            return self._x_map()
        raise ValueError(_UNKNOWN_OPEN.format(open_name))

    def _x_map(self) -> GradedModuleMap:
        ks = self.source.x_sections()
        kt = self.target.x_sections()
        field = self.source.scheme.ring.field

        def matrix(d: int) -> Mat:
            both = Mat.block(field, {(0, 0): self.u_U.matrix(d), (1, 1): self.u_V.matrix(d)})
            sol = kernel_coords(kt.f.matrix(d), both @ ks.basis(d))
            if sol is None:
                raise ArithmeticError(
                    f"{self.name}: patch maps do not respect the equalizer in degree {d}"
                )
            return sol

        return GradedModuleMap(ks, kt, matrix, name=f"Gamma(X, {self.name})")

    def __repr__(self):
        return f"SheafMap({self.name}: {self.source.name} -> {self.target.name})"


class DefectTable(NamedTuple):
    """Per-degree kernel/cokernel of (F tensor Gamma(W,O))_d -> Gamma(W, ~F)_d."""

    kernel: dict
    cokernel: dict
    flags: list

    @property
    def defect(self) -> dict:
        return {d: self.kernel[d] + self.cokernel[d] for d in self.kernel}

    @property
    def total(self) -> int:
        return sum(self.defect.values())


def _structure_sections(sections_o: SectionsModule) -> None:
    """Refuse Gamma(W, -) of anything but the rank-one free module O = R(0)
    generated in degree 0, for the two generator-multiple checks."""
    base = sections_o.base
    if not (isinstance(base, FPGradedModule) and base.gen_degrees == (0,)
            and not base.relations):
        raise ValueError(
            f"structure sections must be those of the rank-one free module generated "
            f"in degree 0, not of {base.name}"
        )


def _comparison(m: FPGradedModule, sections_o: SectionsModule, d: int) -> tuple[int, int]:
    """(kernel, rank) of the comparison map of m in degree d, kept on
    sections_o under m's source (m where it is no twist) and d - m.shift:
    a twist M(-s) has M's relations, sections and map in degree d - s.

    Only ranks are read.  The map is given on the free part
    ⊕_i Gamma(W,O)_(d-e_i) and kills the span of the tensor relations
    (tensor_relations; checked), so its rank on the tensor piece is its
    rank on the free part, and the piece has dimension nrows - rank of
    the relation matrix.
    """
    key = (m.source or m, d - m.shift)
    got = sections_o._defects.get(key)
    if got is not None:
        return got
    s_m = sections_window(m, sections_o.cover, sections_o.window, sections_o.caps[0])
    rel = tensor_relations(m, sections_o, d)
    tgt_dim = s_m.piece(d).dim
    blocks, col_dims = {}, []
    for i, e in enumerate(m.gen_degrees):
        src_dim = sections_o.piece(d - e).dim
        col_dims.append(src_dim)
        if src_dim and tgt_dim:
            blocks[0, i] = sections_o._map_into(d - e, s_m, d,
                                                lambda j, a: m.gen_mult(i, a))
    free_map = Mat.block(m.ring.field, blocks, [tgt_dim], col_dims)
    if rel.ncols and not (free_map @ rel).is_zero():
        raise ArithmeticError(f"comparison map fails to kill a tensor relation in degree {d}")
    r = rank(free_map)
    got = sections_o._defects[key] = (rel.nrows - rank(rel) - r, r)
    return got


def flat_sections_defect(f: FPGradedModule, sections_o: SectionsModule) -> DefectTable:
    """Defect of the comparison map from tensored global sections.

    sections_o is Gamma(W, O); its cover, window and start cap
    (sections_o.caps[0]) are those of the table, and Gamma(W, ~F) is
    taken with the same three.  For each window degree the canonical map
    (F (x) Gamma(W,O))_d -> Gamma(W, ~F)_d sends gen_i (x) a to
    a * res(gen_i): on D(f_j), a = n_j / f_j^c, so a * gen_i =
    (n_j * gen_i) / f_j^c, one column selection of f.gen_mult on the
    numerators at O's cap.  Free modules have zero defect; a nonzero entry
    certifies that restriction and tensoring do not commute for F over W.

    Kernel and rank are summed over f's summands (_comparison): the map
    is additive in f, so a free f = ⊕_i R(-e_i) reads O's in degree
    d - e_i for its i-th summand; a presented f is its own one summand.
    The cokernel is read on f's own Gamma(W, ~F)_d, so a wrong Cech
    complex of f shows, as a cokernel or, where negative, an
    ArithmeticError.  The flags are s_f's over f's own window.
    """
    _structure_sections(sections_o)
    lo, hi = sections_o.window
    s_f = sections_window(f, sections_o.cover, sections_o.window, sections_o.caps[0])
    summands = [(f, 0)] if f.relations else [(sections_o.base, e) for e in f.gen_degrees]
    kernel: dict = {}
    cokernel: dict = {}
    for d in range(lo, hi + 1):
        parts = [_comparison(m, sections_o, d - e) for m, e in summands]
        kernel[d] = sum(k for k, _ in parts)
        cokernel[d] = s_f.piece(d).dim - sum(r for _, r in parts)
        if cokernel[d] < 0:
            raise ArithmeticError(
                f"comparison map of {f.name} has rank above dim Gamma(W, ~F) in degree {d}"
            )
    return DefectTable(kernel, cokernel, flags=s_f.flags())


class ObstructionCertificate(NamedTuple):
    """Codimension table of the section-generated submodule of Gamma(W, M)."""

    codims: dict
    cap: int
    flags: list

    @property
    def obstructed_degrees(self) -> tuple:
        return tuple(d for d in sorted(self.codims) if self.codims[d] > 0)

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed_degrees else "no-obstruction-in-window"


def flat_quotient_obstruction(s: QcohSheafOnX,
                              sections_o: SectionsModule) -> ObstructionCertificate:
    """Codim of the span of Gamma(W,O)-multiples of U-patch sections.

    Nonzero codim in some degree certifies that the sheaf cannot be an
    epimorphic image of a flat quasicoherent sheaf.  The span is generated
    by the restrictions of the U-patch generators: every section of the
    form a * res(m) is a Gamma(W,O)-combination of those, so nothing is
    lost (and nothing is assumed) by enumerating generators only.

    Row d of the table at a cap c is the codimension, inside H^0 of M's
    Cech degree d, of the span of the a * gen_i for a in H^0 of O's degree
    d - e_i.  Where every one of these degrees is proven at the start cap
    (SectionsModule.floor_cap), row d is taken at the largest floor cap it
    reads alone, M's at d and O's at each d - e_i: from there on the lifts
    between caps are isomorphisms on each H^0 and commute with a * gen_i,
    so every larger cap gives the same row, and escalation would accept
    the start cap with the same table; the start cap is reported.
    Elsewhere Gamma(W,-) pieces can be infinite-dimensional (affine
    overlaps) or the caps unproven (presentations with x- or y-torsion
    that are not fine-graded, or in three or more variables), so the
    table is computed at the raw uniform caps of the
    W-sections' escalation (sections_m.caps) and accepted only when it is
    reproduced at three consecutive escalations.
    The kernels flag is the certificate of M's Cech degrees in the window,
    each at the cap its row was read at; O is free, so its localizations
    are certified at every cap.

    sections_o is Gamma(W, O) of the caller's structure module, on the
    sheaf's overlap; its complexes are shared with every other check on O.
    """
    lo, hi = s.window
    fp = s.m_U
    if not isinstance(fp, FPGradedModule):
        raise ValueError("the flat-cover obstruction needs a finitely presented U-patch module")
    # with no generators there is nothing to buffer and every codim is 0
    buffer = max(fp.gen_degrees, default=0) + 2
    for e in fp.gen_degrees:
        if e > hi or e < lo - buffer:
            raise BufferTooSmall(
                f"generator degree {e} outside the buffered window [{lo - buffer}, {hi}]"
            )
    field = s.scheme.ring.field
    _structure_sections(sections_o)
    if sections_o.cover is not s.scheme.overlap:
        raise ValueError("structure sections live on a different cover")
    # the U-module's complexes are those of the sheaf's W-sections
    sections_m = s.w_sections()
    complexes_m = sections_m.complexes
    complexes_o = sections_o.complexes

    def row(d: int, cap: int) -> int:
        deg_m = complexes_m[cap].degree(d)
        blocks = {}
        for i, e in enumerate(fp.gen_degrees):
            deg_o = complexes_o[cap].degree(d - e)
            # a * gen_i for each a in the H^0 basis of O; see flat_sections_defect
            blocks[0, i] = _cochain_apply(deg_o.levels[0], deg_m.levels[0],
                                          _num_degrees(sections_o.cover, 0, d - e, cap),
                                          lambda j, b: fp.gen_mult(i, b), deg_o.h0_basis())
        p_mat = Mat.block(field, blocks)
        if not (deg_m.diff(0) @ p_mat).is_zero():
            raise ArithmeticError(
                f"a generator multiple is not a section in degree {d} at cap {cap}"
            )
        return deg_m.h0_dim - rank(p_mat)

    degrees = range(lo, hi + 1)
    floors = [[sections_m.floor_cap(d)] + [sections_o.floor_cap(d - e) for e in fp.gen_degrees]
              for d in degrees]
    if all(None not in f for f in floors):
        # every degree read is proven: row d at the largest floor it reads
        row_caps = dict(zip(degrees, map(max, floors)))
        cap = sections_m.caps[0]
        codims = {d: row(d, row_caps[d]) for d in degrees}
    else:
        cap, table = _stabilize(lambda c: tuple(row(d, c) for d in degrees), sections_m.caps,
                                f"obstruction table for {s.name}")
        row_caps = dict.fromkeys(degrees, cap)
        codims = dict(zip(degrees, table))
    flags = [f"cap:{cap}", "stabilized",
             kernels_flag(complexes_m[row_caps[d]].degree(d) for d in degrees)]
    return ObstructionCertificate(codims, cap, flags)


class NonaffineWitness(NamedTuple):
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
        body = _mono_str(ring, tuple(a - s for a, s in zip(mono, shift)))
        if c == ring.field.one:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}" if body != "1" else f"{c}")
    return " + ".join(parts) if parts else "0"


def witness_nonaffine(s: SectionsModule) -> NonaffineWitness | None:
    """A nonzero H^1 class with explicit representative, in the top degree
    of the window of s where H^1 is nonzero.  Returns None if there is none
    (absence proves nothing outside the window; a single-set cover never
    has one).

    Module, cover, window and caps are those of the sections module s,
    and the cocycle is read from its Cech complexes (SectionsModule.h1),
    scanning down from the top degree.  A proven degree's H^1 is found at
    its floor cap, and its cocycle is read at the start cap it reports."""
    module, w = s.base, s.cover
    field = module.ring.field
    lo, hi = s.window
    found = next((d for d in range(hi, lo - 1, -1) if s.h1(d)[1] > 0), None)
    if found is None:
        return None
    cap, _dim, cech = s.h1(found)
    proven = s.floor_cap(found) is not None
    if proven:
        # a proven degree is reported at the start cap, where escalation
        # would accept it; the representative is the one read there
        cap = s.caps[0]
        cech = s.complexes[cap].degree(found)
    d0, d1 = cech.diff(0), cech.diff(1)
    c1_dim = cech.level_dim(1)
    _, proj, idx = _quotient_with_indices(d0, c1_dim)

    witness = None
    ident = Mat.identity(field, c1_dim)
    for j in idx:  # prefer a single-coordinate representative
        cand = ident.take_cols([j])
        if (d1 @ cand).is_zero():
            witness = cand
            break
    if witness is None:
        cocycles = kernel_basis(d1)
        for j in range(cocycles.ncols):
            cand = cocycles.take_cols([j])
            if not (proj @ cand).is_zero():
                witness = cand
                break
    if witness is None:
        raise ArithmeticError("positive H^1 dimension but no witness column found")
    if rank(d0.hstack(witness)) != rank(d0) + 1:
        raise ArithmeticError("witness candidate is a coboundary")

    pieces = cech.levels[1]
    # re-verify at the next cap, which the escalation has built: a stable
    # class must survive the lift.  At a proven degree the lift is an
    # isomorphism on H^1, so there is nothing to see
    if not proven:
        cech2 = s.complexes[cap + _CAP_STEP].degree(found)
        lifted = _lift(module, w, 1, found, cap, pieces, cech2.levels[1], _CAP_STEP, witness)
        d0_next = cech2.diff(0)
        if rank(d0_next.hstack(lifted)) != rank(d0_next) + 1:
            raise ArithmeticError("witness class dies at the next cap")

    reps = []
    comps = []
    pos = 0
    for k, (lp, a) in enumerate(zip(pieces, _num_degrees(w, 1, found, cap))):
        block = witness.take_rows(pos, pos + lp.dim)
        pos += lp.dim
        if block.is_zero():
            continue
        f_s = w.product(w.subsets[1][k])
        numer_col = lp.incl @ block
        labels = module.piece(a).labels
        comps.append("D(" + str(f_s) + ")")
        reps.append(_component_string(module, labels, numer_col, a, f_s, cap))
    representative = reps[0] if len(reps) == 1 else "; ".join(
        f"{c}: {r}" for c, r in zip(comps, reps)
    )
    return NonaffineWitness(found, representative, tuple(comps), cap, witness)


def _component_string(module: DegreewiseModule, labels, numer_col: Mat,
                      num_degree: int, f_s: HomogPoly, cap: int) -> str:
    ring = module.ring
    # structure-type labels (gen index, monomial), the generator in degree 0,
    # with a monomial denominator print as Laurent monomials; anything else
    # as numerator / f^cap
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
                    and isinstance(lab[1], tuple) and sum(lab[1]) == num_degree:
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


class ExactnessReport(NamedTuple):
    """Per-degree kernel / middle-homology / cokernel of a three-term sequence."""

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


def exactness_tables(f: GradedModuleMap, g: GradedModuleMap, window) -> ExactnessReport:
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
    return ExactnessReport(kernel, homology, cokernel, complex_ok, flags)


def sequence_report(f: SheafMap, g: SheafMap, open_name: str) -> ExactnessReport:
    """Exactness of the section sequence of A -f-> B -g-> C over one open,
    over the window of A.

    The report is computed once and kept on f for as long as f and g live
    (see SheafMap), so every check on the same two maps and open, the
    bidual pipeline's included, reads one computation."""
    if f.target is not g.source:
        raise ValueError("the sheaf maps are not composable")
    by_open = f._reports.setdefault(g, {})
    got = by_open.get(open_name)
    if got is None:
        got = by_open[open_name] = exactness_tables(
            f.on_sections(open_name), g.on_sections(open_name), f.source.window)
    return got
