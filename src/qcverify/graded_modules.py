"""Graded modules over a standard-graded polynomial ring, degree by degree.

A graded module here is never a global object: it is the family of its
finite-dimensional graded pieces together with the multiplication maps
x_i : M_d -> M_{d+1}.  Every module is a DegreewiseModule that produces
pieces and action matrices on demand and memoizes them: finitely
presented modules (generator degrees plus homogeneous relation columns)
realize theirs per degree by exact linear algebra, and so do kernels,
cokernels, sections and duals.

Conventions that the rest of the package relies on:
  * monomials of a fixed degree are ordered by descending exponent tuple
    (graded lexicographic), and all bases are ordered accordingly, so
    every computation is reproducible;
  * all maps between graded modules have degree shift 0; a classical
    multiplication map like y : R -> R is modeled by regrading its source
    (a generator in degree 1);
  * elements of a piece are coordinate columns with respect to the piece's
    canonical basis.
"""

from __future__ import annotations

import re
from math import comb

from .exact_linalg import (
    FieldSpec,
    Mat,
    kernel_basis,
    rref,
    solve,
    _quotient_with_indices,
)

__all__ = [
    "PolyRing",
    "HomogPoly",
    "NonHomogeneousError",
    "RelationNotKilled",
    "GradedPiece",
    "DegreewiseModule",
    "FPGradedModule",
    "GradedModuleMap",
    "map_from_gen_images",
    "kernel_dw",
    "image_dw",
    "cokernel_dw",
    "hom_piece",
    "tensor_piece",
    "direct_sum",
    "free_module",
    "verify_action_commutation",
    "verify_naturality",
]

# torsion_bound may return this sentinel: every element is killed by a
# power of the localizing polynomial, so localizations vanish outright.
ALL_TORSION = "all-torsion"


class NonHomogeneousError(ValueError):
    """A polynomial or relation mixes degrees."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class RelationNotKilled(ValueError):
    """Generator images do not annihilate a relation column."""

    def __init__(self, relation_index: int, message: str | None = None):
        super().__init__(
            message or f"relation column {relation_index} is not sent to zero"
        )
        self.relation_index = relation_index


class PolyRing:
    """k[x_1..x_n] with the standard grading (every variable in degree 1)."""

    __slots__ = ("field", "variables", "_monos", "_mono_index", "_var_polys")

    def __init__(self, field: FieldSpec, variables):
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("variables must be distinct and nonempty")
        self.field = field
        self.variables = variables
        self._monos: dict[int, tuple] = {}
        self._mono_index: dict[int, dict] = {}
        self._var_polys: dict[int, "HomogPoly"] = {}

    def var_poly(self, i: int) -> "HomogPoly":
        got = self._var_polys.get(i)
        if got is None:
            got = HomogPoly.variable(self, i)
            self._var_polys[i] = got
        return got

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def monomials(self, d: int) -> tuple:
        """Exponent tuples of total degree d, descending lexicographic."""
        if d < 0:
            return ()
        cached = self._monos.get(d)
        if cached is not None:
            return cached

        def gen(total, nv):
            if nv == 1:
                yield (total,)
                return
            for e in range(total, -1, -1):
                for rest in gen(total - e, nv - 1):
                    yield (e,) + rest

        result = tuple(gen(d, self.nvars))
        self._monos[d] = result
        self._mono_index[d] = {m: i for i, m in enumerate(result)}
        return result

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return comb(d + self.nvars - 1, self.nvars - 1)

    def mono_index(self, d: int, mono) -> int:
        self.monomials(d)
        return self._mono_index[d][mono]

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field}[{','.join(self.variables)}]"


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_str(ring: PolyRing, mono) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-))")


class HomogPoly:
    """A homogeneous polynomial, stored as {exponent tuple: coefficient}.

    Coefficients are put in canonical form (field.norm) on construction,
    so the arithmetic below needs no reduction of its own.  The zero
    polynomial is allowed and carries a nominal degree so that degree
    bookkeeping never has gaps.
    """

    __slots__ = ("ring", "degree", "terms", "_hash")

    def __init__(self, ring: PolyRing, degree: int, terms: dict):
        norm = ring.field.norm
        clean = {}
        for mono, c in terms.items():
            c = norm(c)
            if not c:
                continue
            if len(mono) != ring.nvars:
                raise ValueError("exponent tuple has wrong length")
            if sum(mono) != degree:
                raise NonHomogeneousError(
                    f"term {_mono_str(ring, mono)} has degree {sum(mono)}, expected {degree}"
                )
            clean[mono] = c
        self.ring = ring
        self.degree = degree
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls, ring: PolyRing, degree: int = 0) -> "HomogPoly":
        return cls(ring, degree, {})

    @classmethod
    def constant(cls, ring: PolyRing, c) -> "HomogPoly":
        return cls(ring, 0, {(0,) * ring.nvars: c})

    @classmethod
    def variable(cls, ring: PolyRing, i: int) -> "HomogPoly":
        mono = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls(ring, 1, {mono: 1})

    @classmethod
    def monomial(cls, ring: PolyRing, mono, c=None) -> "HomogPoly":
        return cls(ring, sum(mono), {tuple(mono): 1 if c is None else c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NonHomogeneousError("sum of different degrees")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return HomogPoly(self.ring, self.degree, terms)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.ring, self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        deg = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return HomogPoly.zero(self.ring, deg)
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                terms[m] = terms.get(m, 0) + ca * cb
        return HomogPoly(self.ring, deg, terms)

    def scale(self, c) -> "HomogPoly":
        return HomogPoly(self.ring, self.degree, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "HomogPoly":
        if n < 0:
            raise ValueError("negative power")
        result = HomogPoly.constant(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.ring == other.ring
            and self.terms == other.terms
            and (self.terms or self.degree == other.degree)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.ring, self.degree if not self.terms else -1,
                 frozenset(self.terms.items()))
            )
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        minus_one = self.ring.field.norm(-1)
        parts = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            ms = _mono_str(self.ring, mono)
            if ms == "1":
                frag = str(c)
            elif c == 1:
                frag = ms
            elif c == minus_one:
                frag = f"-{ms}"
            else:
                frag = f"{c}*{ms}"
            parts.append(frag)
        out = parts[0]
        for frag in parts[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    __repr__ = __str__

    @classmethod
    def parse(cls, ring: PolyRing, text: str) -> "HomogPoly":
        """Parse an infix homogeneous polynomial like 'x^2*y - 3*y^3'."""
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            tokens.append(m)
            pos = m.end()
        if text[pos:].strip():
            raise ValueError(f"cannot tokenize {text[pos:]!r}")

        idx = 0

        def peek(group):
            return idx < len(tokens) and tokens[idx].group(group) is not None

        def take(group):
            nonlocal idx
            tok = tokens[idx].group(group)
            idx += 1
            return tok

        def parse_factor():
            if peek(1):
                return cls.constant(ring, ring.field.parse_scalar(take(1)))
            if peek(2):
                name = take(2)
                v = cls.variable(ring, ring.var_index(name))
                if peek(3):
                    take(3)
                    if not peek(1):
                        raise ValueError("expected an exponent after '^'")
                    e_text = take(1)
                    if "/" in e_text:
                        raise ValueError("exponent must be a nonnegative integer")
                    return v ** int(e_text)
                return v
            raise ValueError("expected a coefficient or a variable")

        def parse_term():
            p = parse_factor()
            while peek(4):
                take(4)
                p = p * parse_factor()
            return p

        if not tokens:
            raise ValueError("empty polynomial")
        sign = 1
        while peek(5) or peek(6):
            if peek(5):
                take(5)
            else:
                take(6)
                sign = -sign
        result = parse_term()
        if sign < 0:
            result = -result
        while idx < len(tokens):
            sign = 1
            saw = False
            while peek(5) or peek(6):
                if peek(5):
                    take(5)
                else:
                    take(6)
                    sign = -sign
                saw = True
            if not saw:
                raise ValueError("expected '+' or '-' between terms")
            t = parse_term()
            result = result + (t if sign > 0 else -t)
        return result


class GradedPiece:
    """A finite-dimensional homogeneous piece with a canonical labeled basis."""

    __slots__ = ("field", "labels")

    def __init__(self, field: FieldSpec, labels):
        self.field = field
        self.labels = tuple(labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"GradedPiece(dim={self.dim})"


class DegreewiseModule:
    """A graded module presented as lazy pieces plus variable actions.

    piece(d) returns the GradedPiece in degree d; act(i, d) the matrix of
    x_i : M_d -> M_{d+1} in the canonical bases.  Both are memoized.  A
    subclass defines the module by overriding _piece and _act (and
    torsion_bound, when it can certify one).

    torsion_bound(f) reports what is known about the f-power-torsion of
    the module: an integer T certifies ker(f^t) = ker(f^T) for all t >= T
    in every degree, ALL_TORSION certifies that some power of f kills any
    element, and None means nothing is certified (callers fall back to a
    heuristic and must say so).
    """

    def __init__(self, ring: PolyRing, name: str = "M", min_degree: int | None = None,
                 max_degree: int | None = None):
        self.ring = ring
        self.name = name
        self.min_degree = min_degree
        self.max_degree = max_degree
        self._pieces: dict[int, GradedPiece] = {}
        self._acts: dict[tuple, Mat] = {}
        self._poly_acts: dict[tuple, Mat] = {}
        self._power_acts: dict[tuple, Mat] = {}

    def piece(self, d: int) -> GradedPiece:
        got = self._pieces.get(d)
        if got is None:
            if (self.min_degree is not None and d < self.min_degree) or (
                self.max_degree is not None and d > self.max_degree
            ):
                got = GradedPiece(self.ring.field, ())
            else:
                got = self._piece(d)
            self._pieces[d] = got
        return got

    def act(self, var: int, d: int) -> Mat:
        key = (var, d)
        got = self._acts.get(key)
        if got is None:
            src, tgt = self.piece(d), self.piece(d + 1)
            if src.dim == 0 or tgt.dim == 0:
                got = Mat.zeros(self.ring.field, tgt.dim, src.dim)
            else:
                got = self._act(var, d)
            if got.nrows != tgt.dim or got.ncols != src.dim:
                raise ArithmeticError(
                    f"action matrix shape mismatch for {self.name}, x_{var}, degree {d}"
                )
            self._acts[key] = got
        return got

    def _piece(self, d: int) -> GradedPiece:
        raise NotImplementedError

    def _act(self, var: int, d: int) -> Mat:
        raise NotImplementedError

    def poly_act(self, p: HomogPoly, d: int) -> Mat:
        """Matrix of multiplication by p from degree d."""
        key = (p, d)
        got = self._poly_acts.get(key)
        if got is not None:
            return got
        src, tgt = self.piece(d), self.piece(d + p.degree)
        out = Mat.zeros(self.ring.field, tgt.dim, src.dim)
        for mono, c in p.terms.items():
            m = self._mono_act(mono, d)
            out = out + m.scale(c)
        self._poly_acts[key] = out
        return out

    def _mono_act(self, mono, d: int) -> Mat:
        key = (mono, d)
        got = self._poly_acts.get(key)
        if got is not None:
            return got
        # factor through per-variable power chains so that monomials sharing
        # prefixes reuse the cached products
        cur = None
        deg = d
        for i, e in enumerate(mono):
            if e == 0:
                continue
            if e == 1:
                step = self.act(i, deg)
            else:
                step = self.power_act(self.ring.var_poly(i), e, deg)
            cur = step if cur is None else step @ cur
            deg += e
        if cur is None:
            cur = Mat.identity(self.ring.field, self.piece(d).dim)
        self._poly_acts[key] = cur
        return cur

    def power_act(self, f: HomogPoly, t: int, d: int) -> Mat:
        """Matrix of multiplication by f^t from degree d, built iteratively."""
        key = (f, t, d)
        got = self._power_acts.get(key)
        if got is not None:
            return got
        if t == 0:
            out = Mat.identity(self.ring.field, self.piece(d).dim)
        else:
            prev = self.power_act(f, t - 1, d)
            out = self.poly_act(f, d + (t - 1) * f.degree) @ prev
        self._power_acts[key] = out
        return out

    def poly_apply(self, p: HomogPoly, d: int, vecs: Mat) -> Mat:
        """Multiplication by p applied to columns, without assembling the
        matrix of p itself (p varies per call; the monomial matrices are
        shared through the cache)."""
        out = Mat.zeros(self.ring.field, self.piece(d + p.degree).dim, vecs.ncols)
        for mono, c in p.terms.items():
            out = out + (self._mono_act(mono, d) @ vecs).scale(c)
        return out

    def torsion_bound(self, f: HomogPoly):
        return None

    def __repr__(self):
        return f"DegreewiseModule({self.name})"


class _Realization:
    __slots__ = ("free_index", "proj", "piece")

    def __init__(self, free_index, proj, piece):
        self.free_index = free_index
        self.proj = proj
        self.piece = piece


class FPGradedModule(DegreewiseModule):
    """A finitely presented graded module.

    gen_degrees[i] is the degree of the i-th generator; each relation is a
    column of homogeneous polynomials (None for zero entries), one entry
    per generator, with entry degrees aligned so the column is homogeneous.
    Each piece is the quotient of the free cover's piece by the relation
    span.
    """

    def __init__(self, ring: PolyRing, gen_degrees, relations=(), name: str = "M"):
        gen_degrees = tuple(int(e) for e in gen_degrees)
        super().__init__(ring, name=name, min_degree=min(gen_degrees, default=0))
        self.gen_degrees = gen_degrees
        cleaned = []
        for col_idx, col in enumerate(relations):
            col = tuple(col)
            if len(col) != len(self.gen_degrees):
                raise ValueError(
                    f"relation {col_idx} has {len(col)} entries, expected {len(self.gen_degrees)}"
                )
            degree = None
            entries = []
            for i, p in enumerate(col):
                if p is None or (isinstance(p, HomogPoly) and p.is_zero()):
                    entries.append(None)
                    continue
                if not isinstance(p, HomogPoly):
                    raise TypeError("relation entries must be HomogPoly or None")
                c = p.degree + self.gen_degrees[i]
                if degree is None:
                    degree = c
                elif degree != c:
                    raise NonHomogeneousError(
                        f"relation {col_idx} mixes degrees {degree} and {c}"
                    )
                entries.append(p)
            if degree is None:
                continue  # a zero column imposes nothing
            cleaned.append((tuple(entries), degree))
        self.relations = tuple(cleaned)
        self._realizations: dict[int, _Realization] = {}

    @property
    def ngens(self) -> int:
        return len(self.gen_degrees)

    def free_labels(self, d: int):
        labels = []
        for i, e in enumerate(self.gen_degrees):
            for mono in self.ring.monomials(d - e):
                labels.append((i, mono))
        return tuple(labels)

    def relation_span(self, d: int, free_index) -> list:
        """Degree-d vectors spanning the relation submodule of the free
        cover, as {free index: coefficient} mappings."""
        norm = self.ring.field.norm
        vecs = []
        for entries, c in self.relations:
            for u in self.ring.monomials(d - c):
                v: dict = {}
                for i, p in enumerate(entries):
                    if p is None:
                        continue
                    for mono, coeff in p.terms.items():
                        k = free_index[(i, _mono_mul(u, mono))]
                        v[k] = norm(v[k] + coeff) if k in v else coeff
                vecs.append(v)
        return vecs

    def _realize(self, d: int) -> _Realization:
        got = self._realizations.get(d)
        if got is not None:
            return got
        field = self.ring.field
        free_labels = self.free_labels(d)
        free_index = {lab: k for k, lab in enumerate(free_labels)}
        n = len(free_labels)
        span = Mat.from_cols(field, self.relation_span(d, free_index), n)
        _, proj, idx = _quotient_with_indices(span, n)
        piece = GradedPiece(field, tuple(free_labels[j] for j in idx))
        got = _Realization(free_index, proj, piece)
        self._realizations[d] = got
        return got

    def _images(self, d: int, free_labels) -> Mat:
        """The images in the degree-d piece of the given free basis
        vectors: columns of the projection."""
        r = self._realize(d)
        return r.proj.take_cols([r.free_index[lab] for lab in free_labels])

    def _piece(self, d: int) -> GradedPiece:
        return self._realize(d).piece

    def _act(self, var: int, d: int) -> Mat:
        # x_var sends a basis label to one free label
        labels = []
        for i, mono in self.piece(d).labels:
            up = tuple(mono[j] + (1 if j == var else 0) for j in range(self.ring.nvars))
            labels.append((i, up))
        return self._images(d + 1, labels)

    def gen_mult(self, i: int, alpha: int) -> Mat:
        """The products mono * gen_i, one column per degree-alpha monomial
        in ring order, as elements of the piece in degree e_i + alpha."""
        monos = self.ring.monomials(alpha)
        return self._images(self.gen_degrees[i] + alpha, [(i, mono) for mono in monos])

    def gen_element(self, i: int) -> Mat:
        """The i-th generator as an element of its piece."""
        return self.gen_mult(i, 0)

    def torsion_bound(self, f: HomogPoly):
        if f.is_zero():
            return None
        if not self.relations:
            return 0  # free module over a domain: no f-torsion
        if not f.is_monomial():
            return None
        # monomial quotient: every relation column touches one generator
        # with a single term; then (0 : f^inf) = (0 : f^T) with T the
        # largest exponent appearing in the relation monomials
        top = 0
        for entries, _ in self.relations:
            nonzero = [p for p in entries if p is not None]
            if len(nonzero) != 1 or not nonzero[0].is_monomial():
                return None
            mono = next(iter(nonzero[0].terms))
            top = max(top, max(mono))
        return max(1, top)

    def __repr__(self):
        return f"FPGradedModule({self.name}, gens={self.gen_degrees}, rels={len(self.relations)})"


def free_module(ring: PolyRing, shifts=(0,), name: str | None = None) -> FPGradedModule:
    """The free module with one generator per listed degree."""
    if name is None:
        name = "O" if tuple(shifts) == (0,) else f"free{tuple(shifts)}"
    return FPGradedModule(ring, shifts, (), name=name)


class GradedModuleMap:
    """A degree-preserving map of graded modules, one matrix per degree."""

    def __init__(self, source: DegreewiseModule, target: DegreewiseModule, matrix_fn, name: str = "f"):
        self.source = source
        self.target = target
        self.name = name
        self._matrix_fn = matrix_fn
        self._matrices: dict[int, Mat] = {}

    def matrix(self, d: int) -> Mat:
        got = self._matrices.get(d)
        if got is None:
            got = self._matrix_fn(d)
            if got.nrows != self.target.piece(d).dim or got.ncols != self.source.piece(d).dim:
                raise ArithmeticError(
                    f"matrix shape mismatch for map {self.name} in degree {d}"
                )
            self._matrices[d] = got
        return got

    @classmethod
    def identity(cls, module: DegreewiseModule) -> "GradedModuleMap":
        return cls(
            module,
            module,
            lambda d: Mat.identity(module.ring.field, module.piece(d).dim),
            name="id",
        )

    def compose(self, other: "GradedModuleMap") -> "GradedModuleMap":
        """self after other."""
        return GradedModuleMap(
            other.source,
            self.target,
            lambda d: self.matrix(d) @ other.matrix(d),
            name=f"{self.name}.{other.name}",
        )

    def __repr__(self):
        return f"GradedModuleMap({self.name}: {self.source.name} -> {self.target.name})"


def map_from_gen_images(src: FPGradedModule, tgt: DegreewiseModule, images) -> GradedModuleMap:
    """The map sending the i-th generator to images[i] (a column in
    tgt.piece(gen_degree_i)); raises RelationNotKilled if some relation
    column has a nonzero image."""
    images = list(images)
    if len(images) != src.ngens:
        raise ValueError("one image per generator required")
    for i, v in enumerate(images):
        want = tgt.piece(src.gen_degrees[i]).dim
        if v.nrows != want or v.ncols != 1:
            raise ValueError(f"image {i} must be a {want}x1 column")
    for j, (entries, c) in enumerate(src.relations):
        acc = Mat.zeros(tgt.ring.field, tgt.piece(c).dim, 1)
        for i, p in enumerate(entries):
            if p is None:
                continue
            acc = acc + tgt.poly_act(p, src.gen_degrees[i]) @ images[i]
        if not acc.is_zero():
            raise RelationNotKilled(j)

    def matrix_fn(d: int) -> Mat:
        labels = src.piece(d).labels
        cols = {}
        for k, (i, mono) in enumerate(labels):
            p = HomogPoly.monomial(src.ring, mono)
            cols[0, k] = tgt.poly_act(p, src.gen_degrees[i]) @ images[i]
        return Mat.block(tgt.ring.field, cols, [tgt.piece(d).dim], [1] * len(labels))

    return GradedModuleMap(src, tgt, matrix_fn)


class _BasisBackedModule(DegreewiseModule):
    """A submodule of an ambient DegreewiseModule given by per-degree bases.

    The variable action is obtained by acting in the ambient module and
    re-expressing in the basis of the next piece; inconsistency (which
    would mean the claimed bases are not closed under the action) raises.
    """

    def __init__(self, ring, ambient: DegreewiseModule, basis_fn, name, label_tag):
        self.ambient = ambient
        self._basis_fn = basis_fn
        self._bases: dict[int, Mat] = {}
        self._tag = label_tag
        super().__init__(ring, name=name, min_degree=ambient.min_degree,
                         max_degree=ambient.max_degree)

    def basis(self, d: int) -> Mat:
        got = self._bases.get(d)
        if got is None:
            got = self._basis_fn(d)
            self._bases[d] = got
        return got

    @property
    def inclusion(self) -> GradedModuleMap:
        """The inclusion into the ambient module, basis(d) in degree d; built
        on each access, since a stored map would point back at the module."""
        return GradedModuleMap(self, self.ambient, self.basis, name=f"{self.name}->")

    def _piece(self, d: int) -> GradedPiece:
        b = self.basis(d)
        return GradedPiece(self.ring.field, tuple((self._tag, j) for j in range(b.ncols)))

    def _act(self, var: int, d: int) -> Mat:
        acted = self.ambient.act(var, d) @ self.basis(d)
        coords = solve(self.basis(d + 1), acted)
        if coords is None:
            raise ArithmeticError(
                f"{self.name}: action by x_{var} leaves the degree-{d} basis span"
            )
        return coords


class _QuotientModule(DegreewiseModule):
    """Ambient module modulo the column span of per-degree denominators."""

    def __init__(self, ring, ambient: DegreewiseModule, sub_fn, name):
        self.ambient = ambient
        self._sub_fn = sub_fn
        self._quots: dict[int, tuple] = {}
        super().__init__(ring, name=name, min_degree=ambient.min_degree,
                         max_degree=ambient.max_degree)

    def _realize(self, d: int):
        got = self._quots.get(d)
        if got is None:
            amb = self.ambient.piece(d)
            coset, proj, idx = _quotient_with_indices(self._sub_fn(d), amb.dim)
            piece = GradedPiece(self.ring.field, tuple(amb.labels[j] for j in idx))
            got = (coset, proj, piece)
            self._quots[d] = got
        return got

    def include(self, d: int) -> Mat:
        return self._realize(d)[0]

    def project(self, d: int) -> Mat:
        return self._realize(d)[1]

    def _piece(self, d: int) -> GradedPiece:
        return self._realize(d)[2]

    def _act(self, var: int, d: int) -> Mat:
        return self._realize(d + 1)[1] @ (self.ambient.act(var, d) @ self.include(d))


def kernel_dw(f: GradedModuleMap) -> DegreewiseModule:
    """The degreewise kernel of f, as a module with induced actions."""
    return _BasisBackedModule(
        f.source.ring,
        f.source,
        lambda d: kernel_basis(f.matrix(d)),
        name=f"ker({f.name})",
        label_tag="ker",
    )


def image_dw(f: GradedModuleMap) -> DegreewiseModule:
    """The degreewise image of f inside its target."""

    def basis_fn(d: int) -> Mat:
        m = f.matrix(d)
        _, pivots = rref(m)
        return m.take_cols(pivots)

    return _BasisBackedModule(
        f.target.ring, f.target, basis_fn, name=f"im({f.name})", label_tag="im"
    )


def cokernel_dw(f: GradedModuleMap) -> DegreewiseModule:
    """The degreewise cokernel of f."""
    return _QuotientModule(
        f.target.ring, f.target, lambda d: f.matrix(d), name=f"coker({f.name})"
    )


def hom_piece(m: FPGradedModule, n: DegreewiseModule, d: int) -> GradedPiece:
    """Hom(m, n)_d: tuples of elements b_i in n_{e_i + d} killing all relations."""
    field = n.ring.field
    col_dims = [n.piece(e + d).dim for e in m.gen_degrees]
    row_dims = []
    blocks = {}
    for k, (entries, c) in enumerate(m.relations):
        row_dims.append(n.piece(c + d).dim)
        for i, p in enumerate(entries):
            if p is not None:
                blocks[k, i] = n.poly_act(p, m.gen_degrees[i] + d)
    k = kernel_basis(Mat.block(field, blocks, row_dims, col_dims))
    return GradedPiece(field, tuple(("hom", j) for j in range(k.ncols)))


class _TensorRealization:
    __slots__ = ("piece", "incl", "rel_matrix")

    def __init__(self, piece, incl, rel_matrix):
        self.piece = piece
        self.incl = incl
        self.rel_matrix = rel_matrix


def tensor_realization(m: FPGradedModule, n: DegreewiseModule, d: int) -> _TensorRealization:
    """(m tensor n)_d as a quotient of the free part ⊕_i n_{d - e_i}.

    Returns the realized piece together with the inclusion (free-cover
    representatives) and the matrix whose columns span the relation image
    (useful to sanity-check that an induced map kills it).
    """
    field = n.ring.field
    free_labels = []
    row_dims = []
    for i, e in enumerate(m.gen_degrees):
        p = n.piece(d - e)
        free_labels.extend((i, lab) for lab in p.labels)
        row_dims.append(p.dim)
    blocks = {}
    col_dims = []
    for entries, c in m.relations:
        src_dim = n.piece(d - c).dim
        if src_dim == 0:
            continue
        for i, p in enumerate(entries):
            if p is not None:
                blocks[i, len(col_dims)] = n.poly_act(p, d - c)
        col_dims.append(src_dim)
    rel = Mat.block(field, blocks, row_dims, col_dims)
    coset, _proj, idx = _quotient_with_indices(rel, len(free_labels))
    piece = GradedPiece(field, tuple(free_labels[j] for j in idx))
    return _TensorRealization(piece, coset, rel)


def tensor_piece(m: FPGradedModule, n: DegreewiseModule, d: int) -> GradedPiece:
    return tensor_realization(m, n, d).piece


class _DirectSum(DegreewiseModule):
    """The degreewise direct sum; labels are tagged with the summand index."""

    def __init__(self, mods, name: str):
        self.mods = mods
        mins = [m.min_degree for m in mods]
        maxs = [m.max_degree for m in mods]
        super().__init__(
            mods[0].ring, name=name,
            min_degree=None if None in mins else min(mins),
            max_degree=None if None in maxs else max(maxs),
        )

    def _piece(self, d: int) -> GradedPiece:
        labels = []
        for k, m in enumerate(self.mods):
            labels.extend((k, lab) for lab in m.piece(d).labels)
        return GradedPiece(self.ring.field, labels)

    def _act(self, var: int, d: int) -> Mat:
        return Mat.block(self.ring.field, {(k, k): m.act(var, d) for k, m in enumerate(self.mods)})

    def torsion_bound(self, f: HomogPoly):
        bounds = [m.torsion_bound(f) for m in self.mods]
        if any(b is None for b in bounds):
            return None
        if all(b == ALL_TORSION for b in bounds):
            return ALL_TORSION
        if any(b == ALL_TORSION for b in bounds):
            return None  # mixed certificates do not combine into one bound
        return max(bounds)


def direct_sum(mods, name: str | None = None) -> DegreewiseModule:
    """The degreewise direct sum; labels are tagged with the summand index."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum")
    ring = mods[0].ring
    if any(m.ring != ring for m in mods):
        raise ValueError("summands live over different rings")
    if name is None:
        name = "(" + "+".join(m.name for m in mods) + ")"
    return _DirectSum(mods, name)


def verify_action_commutation(module: DegreewiseModule, lo: int, hi: int) -> None:
    """Check x_i x_j = x_j x_i on all pieces in [lo, hi]; raises on failure."""
    n = module.ring.nvars
    for d in range(lo, hi):
        for i in range(n):
            for j in range(i + 1, n):
                left = module.act(i, d + 1) @ module.act(j, d)
                right = module.act(j, d + 1) @ module.act(i, d)
                if left != right:
                    raise ArithmeticError(
                        f"{module.name}: actions of x_{i} and x_{j} do not commute at degree {d}"
                    )


def verify_naturality(f: GradedModuleMap, lo: int, hi: int) -> None:
    """Check that f commutes with every variable action on [lo, hi]."""
    n = f.source.ring.nvars
    for d in range(lo, hi):
        for i in range(n):
            left = f.target.act(i, d) @ f.matrix(d)
            right = f.matrix(d + 1) @ f.source.act(i, d)
            if left != right:
                raise ArithmeticError(
                    f"map {f.name} is not natural for x_{i} at degree {d}"
                )
