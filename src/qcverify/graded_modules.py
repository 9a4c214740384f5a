"""Graded modules over a standard-graded polynomial ring, degree by degree.

A graded module here is never a global object: it is the family of its
finite-dimensional graded pieces together with the multiplication maps
x_i : M_d -> M_{d+1}.  Every module is a DegreewiseModule that produces
pieces and monomial actions on demand and memoizes them by exact linear
algebra: kernels, sections and duals per degree, finitely presented
modules (generator degrees plus homogeneous relation columns) each degree
from the one below, or alone far out.  A tensor product with a finitely
presented module is not realized: tensor_relations gives its relations on
the free part, and a dimension count needs no more.

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
from functools import cached_property
from math import comb
from operator import add
from typing import NamedTuple

from .exact_linalg import (
    FieldSpec,
    Mat,
    kernel_basis,
    kernel_coords,
    _quotient_by_rules,
)

__all__ = [
    "CapExhausted",
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
    "direct_sum",
    "free_module",
    "verify_action_commutation",
    "verify_naturality",
]

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


class CapExhausted(RuntimeError):
    """Dimensions failed to stabilize within the cap escalation budget, or
    a degree lies past what a module realizes."""


_MAX_LABELS = 100_000  # free labels that one FPGradedModule._realize may build
_HOWS = ("heuristic", "proven", "certified")  # how a torsion power is known, weakest first


class PolyRing:
    """k[x_1..x_n] with the standard grading (every variable in degree 1)."""

    __slots__ = ("field", "variables", "_monos")

    def __init__(self, field: FieldSpec, variables):
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("variables must be distinct and nonempty")
        self.field = field
        self.variables = variables
        self._monos: dict[int, tuple] = {}

    def var_poly(self, i: int) -> "HomogPoly":
        return HomogPoly.variable(self, i)

    def unit(self, i: int) -> tuple:
        """The exponent tuple of the variable x_i."""
        return (0,) * i + (1,) + (0,) * (len(self.variables) - i - 1)

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
        return result

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return comb(d + self.nvars - 1, self.nvars - 1)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

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
    return tuple(map(add, a, b))


def _mono_str(ring: PolyRing, mono) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


# a variable name is what the tokenizer reads as one identifier
_VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*(?:(\d+(?:/\d+)?)|({_VARIABLE_NAME.pattern})|(\^)|(\*)|(\+)|(-))")


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
        return cls(ring, 1, {ring.unit(i): 1})

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
        if len(self.terms) == 1:
            # (c x^a)^n = c^n x^(n a)
            ((mono, c),) = self.terms.items()
            mod = self.ring.field.p
            return HomogPoly(self.ring, n * self.degree,
                             {tuple(n * e for e in mono): pow(c, n, mod) if mod else c ** n})
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
        # each term takes the signs before it; every term after the first needs one
        result = None
        while idx < len(tokens):
            sign = 1
            saw = False
            while peek(5) or peek(6):
                if peek(6):
                    sign = -sign
                idx += 1
                saw = True
            if result is not None and not saw:
                raise ValueError("expected '+' or '-' between terms")
            t = parse_term()
            if sign < 0:
                t = -t
            result = t if result is None else result + t
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

    piece(d) returns the GradedPiece in degree d and mono_act(a, d) the
    matrix of the monomial x^a : M_d -> M_{d+|a|} in the canonical bases;
    both are memoized, and act(i, d) is mono_act of the variable x_i.
    mono_act is the one memoized action: poly_act and power_act sum its
    terms on each call, and for a monomial with coefficient 1 they return
    its very matrix, so the rref cached on that matrix is shared.  A
    subclass defines the module by overriding _piece and either _act, the
    variable actions that the default _mono_act chains, or _mono_act
    itself when it can multiply by a monomial directly (and torsion, when
    it knows more than the default).

    torsion(f) returns (t, how) for the f-power-torsion of the module.
    Where how is "certified" or "proven", ker(f^t) is all of it in every
    degree, and only a certified t is reported as such in flags; where it
    is "heuristic", t only starts the kernel chain of a localization.  The
    default, (1, "heuristic"), knows nothing.

    The memos are keyed by degree minus shift, which is 0 except on a
    twist (FPGradedModule.twist): a twist by s shares its source's memos,
    and its degree d is their key d - s.
    """

    def __init__(self, ring: PolyRing, name: str = "M", min_degree: int | None = None,
                 max_degree: int | None = None):
        self.ring = ring
        self.name = name
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.shift = 0
        self._pieces: dict[int, GradedPiece] = {}
        self._mono_acts: dict[tuple, Mat] = {}

    def piece(self, d: int) -> GradedPiece:
        key = d - self.shift
        got = self._pieces.get(key)
        if got is None:
            if (self.min_degree is not None and d < self.min_degree) or (
                self.max_degree is not None and d > self.max_degree
            ):
                got = GradedPiece(self.ring.field, ())
            else:
                got = self._piece(d)
            self._pieces[key] = got
        return got

    def act(self, var: int, d: int) -> Mat:
        return self.mono_act(self.ring.unit(var), d)

    def mono_act(self, mono: tuple, d: int) -> Mat:
        """Matrix of multiplication by the monomial x^mono from degree d."""
        key = (mono, d - self.shift)
        got = self._mono_acts.get(key)
        if got is None:
            src, tgt = self.piece(d), self.piece(d + sum(mono))
            if not any(mono):
                got = Mat.identity(self.ring.field, src.dim)
            elif src.dim == 0 or tgt.dim == 0:
                got = Mat.zeros(self.ring.field, tgt.dim, src.dim)
            else:
                got = self._mono_act(mono, d)
                if got.nrows != tgt.dim or got.ncols != src.dim:
                    raise ArithmeticError(
                        f"action matrix shape mismatch for {self.name}, x^{mono}, degree {d}"
                    )
            self._mono_acts[key] = got
        return got

    def _piece(self, d: int) -> GradedPiece:
        raise NotImplementedError

    def _act(self, var: int, d: int) -> Mat:
        raise NotImplementedError

    def _mono_act(self, mono: tuple, d: int) -> Mat:
        # a variable is the subclass's own action; any other nonzero
        # monomial is the chained product of the memoized variable actions
        steps = [var for var, e in enumerate(mono) for _ in range(e)]
        if len(steps) == 1:
            return self._act(steps[0], d)
        out = self.act(steps[0], d)
        for k, var in enumerate(steps[1:], 1):
            out = self.act(var, d + k) @ out
        return out

    def poly_act(self, p: HomogPoly, d: int) -> Mat:
        """Matrix of multiplication by p from degree d: the sum of its
        terms c * x^a; a lone term x^a is mono_act itself."""
        got = None
        for mono, c in p.terms.items():
            term = self.mono_act(mono, d).scale(c)
            got = term if got is None else got + term
        if got is None:
            got = Mat.zeros(self.ring.field, self.piece(d + p.degree).dim, self.piece(d).dim)
        return got

    def power_act(self, f: HomogPoly, t: int, d: int) -> Mat:
        """Matrix of multiplication by f^t from degree d."""
        return self.poly_act(f ** t, d)

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        return 1, "heuristic"

    def __repr__(self):
        return f"DegreewiseModule({self.name})"


class FineGrading(NamedTuple):
    """What a Z^n-grading of a presentation bounds; see
    FPGradedModule.fine_grading.

    top is the largest |b_C| over the components C of the presentation;
    torsion[i] is T_i, the power of x_i that kills all x_i-torsion.
    """

    top: int
    torsion: tuple


def _torsion_power(powers, mono) -> int:
    """t such that (x^mono)^t kills all x^mono-torsion, given powers T_i
    of x_i that kill all x_i-torsion: the largest ceil(T_i / u_i) over the
    support of u = mono.  If x_i^k x_j^l g is in the relation submodule N,
    x_j^l g is x_i-torsion, so x_i^(T_i) g is x_j-torsion, and
    x_i^(T_i) x_j^(T_j), which divides (x^mono)^t, kills g; likewise for
    more."""
    return max((-(-t // u) for t, u in zip(powers, mono) if u), default=0)


class _Realization:
    __slots__ = ("free_index", "proj_cols", "piece", "reach")

    def __init__(self, free_index, proj_cols, piece, reach):
        self.free_index = free_index
        self.proj_cols = proj_cols  # the projection by columns: row k is free label k's image
        self.piece = piece
        self.reach = reach  # see FPGradedModule._lift


class FPGradedModule(DegreewiseModule):
    """A finitely presented graded module.

    gen_degrees[i] is the degree of the i-th generator; each relation is a
    column of homogeneous polynomials (None for zero entries), one entry
    per generator, with entry degrees aligned so the column is homogeneous.
    Each piece is the quotient of the free cover's piece by the relation
    span, realized up from the highest degree realized below it: the normal
    forms of the degree below times each variable give most of a degree,
    and only what they miss is row-reduced (_lift).  Where that walk would
    build over _MAX_LABELS free labels, the degree is built alone from all
    relation multiples; where the degree alone has more, CapExhausted.

    A twist M(-s) (see twist) has a source M and a shift s: its degree d
    is the source's degree d - s, label for label.  It keeps no memo of its
    own; it reads and fills the source's by key d - s (see
    DegreewiseModule), and what it builds there it builds in its own
    degrees and under its own name, so an error names the twist.  A module
    that is no twist has source None and shift 0.
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
        self.source: FPGradedModule | None = None
        self._realizations: dict[int, _Realization] = {}
        self._saturation: dict[int, int | None] = {}  # v -> T_v, see saturation

    def twist(self, s: int, name: str | None = None) -> "FPGradedModule":
        """M(-s), this presentation on the generator degrees e_i + s.

        Its source is this module's source, or this module where it is no
        twist, and it shares that source's realizations, actions and
        saturation powers.  It holds its source, never the other way
        round, so no reference cycle forms.
        """
        source = self if self.source is None else self.source
        s += self.shift
        out = FPGradedModule(self.ring, [e + s for e in source.gen_degrees],
                             [entries for entries, _ in source.relations],
                             name=name or f"{source.name}({-s})")
        out.source, out.shift = source, s
        out._pieces, out._mono_acts = source._pieces, source._mono_acts
        out._realizations, out._saturation = source._realizations, source._saturation
        return out

    @property
    def ngens(self) -> int:
        return len(self.gen_degrees)

    def _labels(self, lo: int, d: int) -> int:
        """The number of free labels in degrees lo..d."""
        n = self.ring.nvars
        return sum(comb(max(d - e + n, 0), n) - comb(max(lo - e + n - 1, 0), n)
                   for e in self.gen_degrees)

    def _realize(self, d: int) -> _Realization:
        done, s = self._realizations, self.shift  # keyed by degree - shift
        got = done.get(d - s)
        if got is None:
            lo = d  # each degree is lifted from the one below, up from the highest realized
            if self.relations:
                lo = min(d, 1 + max((k + s for k in done if k + s < d),
                                    default=self.min_degree - 1))
            if self._labels(lo, d) > _MAX_LABELS:
                if self._labels(d, d) > _MAX_LABELS:
                    raise CapExhausted(
                        f"{self.name}: degree {d} has over {_MAX_LABELS} free labels")
                lo = d
            for k in range(lo, d + 1):
                got = done[k - s] = self._lift(k, done.get(k - 1 - s))
        return got

    def _lift(self, d: int, prev: _Realization | None, v: int | None = None) -> _Realization:
        """Degree d, from prev, the realization of degree d - 1, if given.

        The free labels in index order are in a monomial order: x_v keeps it.
        With v given, x_v exponents sort first, descending (see saturation).
        The coset is the labels k with e_k outside span(e_j : j < k) + N_d,
        N the relation submodule, and proj, which kills N_d and fixes the
        coset, is then unique: what _quotient_with_indices gives for N_d.
        N_d is spanned by the relations of degree d and the lifts x_v r_p,
        led by x_v p, of the rows r_p = e_p - proj(e_p) of N_(d-1).  The
        first lift to reach a label is its rule, on lower labels only; the
        relations and the other lifts are left to _quotient_by_rules.  A lift
        x_v r_p meeting an earlier lift x_u r_q at k needs no reducing when
        s = p / x_u is outside its coset: each differs from x_u x_v r_s by
        lifts led below k.  Without degree d - 1, nothing is lifted and N_d
        is spanned by every relation times every monomial of the degree it
        lacks.
        """
        ring, field = self.ring, self.ring.field
        free_labels = [(i, m) for i, e in enumerate(self.gen_degrees)
                       for m in ring.monomials(d - e)]
        if v is not None:
            free_labels.sort(key=lambda lab: -lab[1][v])
        free_index = {lab: k for k, lab in enumerate(free_labels)}
        n = len(free_labels)
        # the relations of degree d (all multiples without d - 1), then the
        # lifts that meet a rule
        checks = [{free_index[i, _mono_mul(u, m)]: c for i, p in enumerate(entries)
                   if p is not None for m, c in p.terms.items()}
                  for entries, e in self.relations if e == d or prev is None
                  for u in ring.monomials(d - e)]
        # rules: k -> {j: c}, e_k = sum c e_j modulo N_d, each j < k; reach:
        # k -> bitmask of the variables whose lifts reach k, read one degree up
        rules, reach = {}, {}
        if prev is not None and prev.piece.dim < len(prev.free_index):
            coset = set(prev.piece.labels)
            cols = [(p, lab, col) for p, (lab, col) in
                    enumerate(zip(prev.free_index, prev.proj_cols.data)) if lab not in coset]
            for v in range(ring.nvars):
                u = ring.unit(v)
                up = [free_index[i, _mono_mul(m, u)] for i, m in prev.piece.labels]
                for p, (i, m), col in cols:
                    k = free_index[i, _mono_mul(m, u)]
                    seen = reach.get(k, 0)
                    reach[k] = seen | 1 << v
                    if not seen:
                        rules[k] = {up[pos]: c for pos, c in col.items()}
                    elif not prev.reach.get(p, 0) & seen:
                        checks.append({k: 1, **{up[pos]: field.norm(-c) for pos, c in col.items()}})
        cand, proj_cols = _quotient_by_rules(rules, checks, n, field)
        piece = GradedPiece(field, [free_labels[j] for j in cand])
        return _Realization(free_index, proj_cols, piece, reach)

    def _images(self, d: int, free_labels) -> Mat:
        """The images in the degree-d piece of the given free basis
        vectors: columns of the projection, which is kept by columns."""
        r = self._realize(d)
        return r.proj_cols.transpose_rows([r.free_index[lab] for lab in free_labels])

    def _piece(self, d: int) -> GradedPiece:
        return self._realize(d).piece

    def _mono_act(self, mono: tuple, d: int) -> Mat:
        # x^a sends the basis label (i, m) to the free label (i, m + a)
        labels = [(i, _mono_mul(m, mono)) for i, m in self.piece(d).labels]
        return self._images(d + sum(mono), labels)

    def gen_mult(self, i: int, alpha: int) -> Mat:
        """The products mono * gen_i, one column per degree-alpha monomial
        in ring order, as elements of the piece in degree e_i + alpha."""
        monos = self.ring.monomials(alpha)
        return self._images(self.gen_degrees[i] + alpha, [(i, mono) for mono in monos])

    def gen_element(self, i: int) -> Mat:
        """The i-th generator as an element of its piece."""
        return self.gen_mult(i, 0)

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        if not self.relations:
            return 0, "certified"  # free module over a domain: no f-torsion
        if not f.is_monomial():
            return 1, "heuristic"
        mono = next(iter(f.terms))
        fine = self.fine_grading()
        # a monomial quotient (every relation column one term on one
        # generator) is where the fine grading's power is certified
        if fine is not None and all(sum(p is not None for p in entries) == 1
                                    for entries, _ in self.relations):
            return _torsion_power(fine.torsion, mono), "certified"
        powers = [self.saturation(i) if u else 0 for i, u in enumerate(mono)]
        if None not in powers:
            return _torsion_power(powers, mono), "proven"
        return (1 if fine is None else max(1, _torsion_power(fine.torsion, mono))), "heuristic"

    def saturation(self, v: int) -> int | None:
        """T_v, the least power of x_v that kills all x_v-torsion, or None
        once the walk below has built _MAX_LABELS free labels.

        Sort the free labels by descending x_v exponent, ties in index
        order (_lift with v).  In that monomial order x_v divides a
        homogeneous g when it divides LT(g), so in(N : x_v^k) =
        in(N) : x_v^k for the relation submodule N.  Graded A in B with
        in(A) = in(B) are equal, so N : x_v^k is the saturation exactly when
        k >= T_v, the largest x_v exponent of a minimal generator of in(N)
        (Bayer-Stillman, Invent. Math. 87, 1987; Eisenbud, GTM 150, 15.12).

        The walk lifts degree after degree in this order.  The minimal
        generators of in(N) in degree D are the labels outside the coset
        that no lift reaches, and the elements they lead reduce all of N up
        to degree D to zero.  Once D is at least the top relation degree and
        every S-pair of two on one generator has degree at most D, they
        generate N and are a Groebner basis by Buchberger's criterion.
        The walk moves with the generator degrees, so a twist shares T_v.
        """
        if v not in self._saturation:
            prev, found = None, []
            d = self.min_degree
            top = max((e for _, e in self.relations), default=d)
            while d <= top and self._labels(self.min_degree, d) <= _MAX_LABELS:
                r = prev = self._lift(d, prev, v)
                for i, m in set(r.free_index).difference(r.piece.labels):
                    if r.free_index[i, m] not in r.reach:
                        top = max([top] + [self.gen_degrees[i] + sum(map(max, m, m2))
                                           for j, m2 in found if j == i])
                        found.append((i, m))
                d += 1
            self._saturation[v] = max((m[v] for _, m in found), default=0) if d > top else None
        return self._saturation[v]

    def fine_grading(self) -> FineGrading | None:
        """The bounds of a Z^n-grading when the presentation is
        fine-graded (every relation entry a single term), else None.

        Multidegrees.  A column with entries c_j x^(m_j) is Z^n-homogeneous
        exactly when g_j + m_j is the same for all its generators j, so a
        column fixes the differences of the generator multidegrees g_j it
        links.  Walking the connected components of that graph assigns
        every g_j from one root per component, whose g is a free translate
        with |g| = e_root; then |g_j| = e_j for all j, as the column is
        Z-homogeneous.  A cycle of columns that disagrees is a conflict:
        no Z^n-grading exists, and the answer is None.  The presentation
        splits as the direct sum of its components.

        Bounds.  For a component C let b_C be the coordinatewise max of its
        generator and relation multidegrees; shifting the translate shifts
        b_C and every g_j alike, so |b_C| and b_C - g_j do not depend on it.
        If a_i >= b_i then x_i : M_a -> M_(a+e_i) is an isomorphism: it is
        one on the free cover F (a basis monomial x^(a-g_j) stays one, as
        its i-th exponent is already >= 0) and on the free module G on the
        relations, so the relation span N has N_(a+e_i) = x_i N_a, and the
        quotient map is bijective too.  An element of M_a is nonzero only
        when a >= g_j for some j in C, so after x_i^(T_i), with
        T_i = max_C (b_C,i - min_(j in C) g_j,i), its i-th coordinate is
        >= b_i and x_i stays injective: x_i^(T_i) kills all x_i-torsion.
        Likewise (x^u)^t with t = max over supp u of ceil(T_i / u_i) lifts
        every coordinate in supp u past b, so it kills all x^u-torsion.
        For a free module each generator is its own component, b = g, and
        every T_i is 0.  (This is the positively b-determined property of
        E. Miller, J. Algebra 231 (2000); Miller-Sturmfels, GTM 227.)
        The answer is computed once per module.
        """
        return self._fine

    @cached_property
    def _fine(self) -> FineGrading | None:
        n = self.ring.nvars
        # links[j]: (k, g_k - g_j) for each column on j and k; columns[j]:
        # the exponent m of each column whose first entry is on j, so that
        # the column's multidegree is g_j + m
        links: list[list] = [[] for _ in self.gen_degrees]
        columns: list[list] = [[] for _ in self.gen_degrees]
        for entries, _ in self.relations:
            terms = [(j, p) for j, p in enumerate(entries) if p is not None]
            if not all(p.is_monomial() for _, p in terms):
                return None
            (j0, p0), *rest = terms
            m0 = next(iter(p0.terms))
            columns[j0].append(m0)
            for j, p in rest:
                diff = tuple(a - b for a, b in zip(m0, next(iter(p.terms))))
                links[j0].append((j, diff))
                links[j].append((j0, tuple(-a for a in diff)))
        g: list = [None] * self.ngens
        bounds = []  # (b_C, min over j in C of g_j) per component C
        for root, e in enumerate(self.gen_degrees):
            if g[root] is not None:
                continue
            g[root] = (e,) + (0,) * (n - 1)
            members, stack = [], [root]
            while stack:
                j = stack.pop()
                members.append(j)
                for k, diff in links[j]:
                    want = tuple(map(add, g[j], diff))
                    if g[k] is None:
                        g[k] = want
                        stack.append(k)
                    elif g[k] != want:
                        return None
            gens = [g[j] for j in members]
            rels = [tuple(map(add, g[j], m)) for j in members for m in columns[j]]
            bounds.append((tuple(map(max, zip(*gens, *rels))), tuple(map(min, zip(*gens)))))
        return FineGrading(
            max((sum(b) for b, _ in bounds), default=0),
            tuple(max((b[i] - lo[i] for b, lo in bounds), default=0) for i in range(n)),
        )

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
            cols[0, k] = tgt.mono_act(mono, src.gen_degrees[i]) @ images[i]
        return Mat.block(tgt.ring.field, cols, [tgt.piece(d).dim], [1] * len(labels))

    return GradedModuleMap(src, tgt, matrix_fn)


class _BasisBackedModule(DegreewiseModule):
    """The degreewise kernel of a map f, as a submodule of f.source.

    Its degree-d basis is the canonical kernel basis of f.matrix(d).  The
    variable action is obtained by acting in f.source and reading
    coordinates in the kernel basis of the next degree; a vector outside
    that kernel (which would mean f is not natural) raises.
    """

    def __init__(self, f: GradedModuleMap):
        self.f = f
        self._bases: dict[int, Mat] = {}
        super().__init__(f.source.ring, name=f"ker({f.name})",
                         min_degree=f.source.min_degree, max_degree=f.source.max_degree)

    def basis(self, d: int) -> Mat:
        got = self._bases.get(d)
        if got is None:
            got = self._bases[d] = kernel_basis(self.f.matrix(d))
        return got

    @property
    def inclusion(self) -> GradedModuleMap:
        """The inclusion into f.source, basis(d) in degree d; built
        on each access, since a stored map would point back at the module."""
        return GradedModuleMap(self, self.f.source, self.basis, name=f"{self.name}->")

    def _piece(self, d: int) -> GradedPiece:
        b = self.basis(d)
        return GradedPiece(self.ring.field, tuple(("ker", j) for j in range(b.ncols)))

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        """The source's power, certified read as proven: one that kills all
        f-torsion of the source kills that of each submodule."""
        t, how = self.f.source.torsion(f)
        return t, "proven" if how == "certified" else how

    def _act(self, var: int, d: int) -> Mat:
        acted = self.f.source.act(var, d) @ self.basis(d)
        coords = kernel_coords(self.f.matrix(d + 1), acted)
        if coords is None:
            raise ArithmeticError(
                f"{self.name}: action by x_{var} leaves the degree-{d} basis span"
            )
        return coords


def kernel_dw(f: GradedModuleMap) -> DegreewiseModule:
    """The degreewise kernel of f, as a module with induced actions."""
    return _BasisBackedModule(f)


def tensor_relations(m: FPGradedModule, n: DegreewiseModule, d: int) -> Mat:
    """The relations of (m tensor n)_d on its free part ⊕_i n_{d - e_i}.

    A relation column of m of degree c, with entries p_i, gives the block
    column of the maps p_i : n_{d - c} -> n_{d - e_i}.  (m tensor n)_d is
    the free part modulo their span, so its dimension is nrows - rank, and
    a map out of it is a map on the free part that kills these columns.
    """
    row_dims = [n.piece(d - e).dim for e in m.gen_degrees]
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
    return Mat.block(n.ring.field, blocks, row_dims, col_dims)


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

    def torsion(self, f: HomogPoly) -> tuple[int, str]:
        """The largest power of the summands, known as the weakest is."""
        pairs = [m.torsion(f) for m in self.mods]
        return max(t for t, _ in pairs), min((how for _, how in pairs), key=_HOWS.index)


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
