"""Exact sparse linear algebra over Q or a prime field F_p.

Everything downstream reduces to row reduction of small, very sparse
matrices, so this module is deliberately minimal: a field descriptor, an
immutable matrix type whose rows are {column: entry} dicts holding the
nonzero entries only, and the three workhorses (reduced row echelon form,
kernel basis, quotient-space basis with projection).  Entries are plain
Python numbers: over F_p an int in range(p), over Q an int, or a Fraction
once a non-unit has been inverted.  FieldSpec owns the field decision
(reduction and inverses); there is no floating point anywhere, and every
algorithm makes deterministic pivot choices, so equal inputs give
byte-identical results.

Every operation visits the stored nonzero entries only.  The matrices
that arise in practice (monomial multiplication, Cech restriction) are
signed-incidence-like, with a few entries per row, and this keeps
elimination close to linear time on them.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate

__all__ = [
    "FieldSpec",
    "Mat",
    "rref",
    "kernel_basis",
    "image_quotient",
    "solve",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond any modulus we expect
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The ground field: the rationals, or F_p for a prime p.

    Scalars are plain numbers, and 0 and 1 are zero and one in both
    fields.  norm brings the result of +, - or * into canonical form, inv
    inverts; p is None over Q, so "if p" is the test for a prime field.
    """

    __slots__ = ("kind", "p")

    zero = 0
    one = 1

    def __init__(self, kind: str = "rationals", p: int | None = None):
        if kind == "prime":
            if p is None or not _is_prime(p):
                raise ValueError(f"prime field needs a prime modulus, got {p!r}")
        elif kind == "rationals":
            p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    def norm(self, x):
        """x mod p over F_p; x itself over Q."""
        return x % self.p if self.p else x

    of_int = norm

    def inv(self, a):
        """The inverse of a nonzero scalar.  Over Q, 1 and -1 are their own
        inverses, so rows of ints stay ints; other inverses are Fractions."""
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError(f"division by zero in F_{self.p}")
            return pow(a, self.p - 2, self.p)
        return a if a == 1 or a == -1 else Fraction(1, a)

    def parse_scalar(self, text: str):
        """Parse 'n' or 'n/m' (the latter inverted mod p for prime fields)."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            num, den = int(a), int(b)
            if not self.norm(den):
                raise ValueError(f"denominator {den} vanishes in {self!r}")
            return self.norm(num * self.inv(den))
        return self.of_int(int(text))

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.kind == "rationals" else f"F{self.p}"


class Mat:
    """Immutable sparse matrix with exact entries.

    data holds one {column: entry} dict per row with the nonzero entries
    only; rows are shared between matrices and never changed after
    construction.  The reduced row echelon form is cached on the instance,
    which matters: ranks, kernels and solves of the same matrix are asked
    for repeatedly by the degreewise machinery.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_rref", "_ident")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows):
        """rows are dense sequences or {column: entry} mappings; zeros are
        dropped."""
        data = tuple(_sparse_row(r, ncols) for r in rows)
        if len(data) != nrows:
            raise ValueError("matrix shape mismatch")
        self.field, self.nrows, self.ncols, self.data = field, nrows, ncols, data
        self._rref = None
        self._ident = False

    @classmethod
    def _of(cls, field: FieldSpec, nrows: int, ncols: int, rows) -> "Mat":
        """A matrix on sparse rows that already hold no zero, not copied."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.data = field, nrows, ncols, tuple(rows)
        m._rref = None
        m._ident = False
        return m

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Mat":
        return cls._of(field, nrows, ncols, ({},) * nrows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        m = cls._of(field, n, n, ({i: 1} for i in range(n)))
        m._ident = True
        return m

    @classmethod
    def from_cols(cls, field: FieldSpec, cols, nrows: int) -> "Mat":
        """The matrix with the given columns, each a dense sequence or a
        {row: entry} mapping."""
        cols = list(cols)
        rows = [{} for _ in range(nrows)]
        for j, c in enumerate(cols):
            for i, v in _sparse_row(c, nrows).items():
                rows[i][j] = v
        return cls._of(field, nrows, len(cols), rows)

    @classmethod
    def block(cls, field: FieldSpec, blocks: dict, row_dims=None, col_dims=None) -> "Mat":
        """The matrix with blocks[i, j] in block row i and block column j.

        Absent blocks are zero.  row_dims and col_dims are the heights of
        the block rows and the widths of the block columns; either may be
        left out when every block row (column) holds a block to read it
        from.  Only the nonzero entries of the blocks are visited.
        """
        row_dims = _block_dims(blocks, row_dims, 0)
        col_dims = _block_dims(blocks, col_dims, 1)
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        rows = [{} for _ in range(row_off[-1])]
        for (i, j), b in blocks.items():
            if (b.nrows, b.ncols) != (row_dims[i], col_dims[j]):
                raise ValueError(f"block ({i}, {j}) does not fit its block row and column")
            r0, c0 = row_off[i], col_off[j]
            for r, row in enumerate(b.data, r0):
                rows[r].update((c0 + c, e) for c, e in row.items())
        return cls._of(field, row_off[-1], col_off[-1], rows)

    def row_support(self) -> list:
        """Per-row (column, entry) pairs of the nonzero entries, by column."""
        return [tuple(sorted(row.items())) for row in self.data]

    def entry(self, i: int, j: int):
        return self.data[i].get(j, 0)

    def col(self, j: int) -> tuple:
        return tuple(row.get(j, 0) for row in self.data)

    def is_zero(self) -> bool:
        return not any(self.data)

    def transpose(self) -> "Mat":
        rows = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                rows[j][i] = v
        return Mat._of(self.field, self.ncols, self.nrows, rows)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        mod = self.field.p
        rows = []
        for ra, rb in zip(self.data, other.data):
            if not (ra and rb):
                rows.append(ra or rb)
                continue
            out = dict(ra)
            for j, v in rb.items():
                cur = out.get(j)
                if cur is not None:
                    v = (cur + v) % mod if mod else cur + v
                if v:
                    out[j] = v
                else:
                    del out[j]
            rows.append(out)
        return Mat._of(self.field, self.nrows, self.ncols, rows)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        mod = self.field.p
        return Mat._of(
            self.field,
            self.nrows,
            self.ncols,
            ({j: mod - v if mod else -v for j, v in row.items()} for row in self.data),
        )

    def scale(self, c) -> "Mat":
        """c times the matrix, c a scalar of the field."""
        if c == 1:
            return self
        if not c:
            return Mat.zeros(self.field, self.nrows, self.ncols)
        mod = self.field.p
        return Mat._of(
            self.field,
            self.nrows,
            self.ncols,
            ({j: c * v % mod if mod else c * v for j, v in row.items()} for row in self.data),
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        if self._ident:
            return other
        if other._ident:
            return self
        mod = self.field.p
        orows = other.data
        out = []
        for row in self.data:
            if len(row) == 1:
                # one term cannot cancel; a unit coefficient shares the row
                ((k, a),) = row.items()
                b = orows[k]
                if a == 1:
                    out.append(b)
                else:
                    out.append({j: a * v % mod if mod else a * v for j, v in b.items()})
                continue
            acc: dict = {}
            get = acc.get
            for k, a in row.items():
                for j, b in orows[k].items():
                    cur = get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            if mod:
                out.append({j: r for j, v in acc.items() if (r := v % mod)})
            else:
                out.append({j: v for j, v in acc.items() if v})
        return Mat._of(self.field, self.nrows, other.ncols, out)

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Mat.block(self.field, {(0, 0): self, (0, 1): other})

    def vstack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return Mat._of(self.field, self.nrows + other.nrows, self.ncols, self.data + other.data)

    def take_cols(self, indices) -> "Mat":
        """The columns at the given distinct indices, in their order."""
        new = {j: k for k, j in enumerate(indices)}
        if len(new) != len(indices):
            raise ValueError("take_cols needs distinct column indices")
        rows = (
            {new[j]: v for j, v in row.items() if j in new} for row in self.data
        )
        return Mat._of(self.field, self.nrows, len(new), rows)

    def take_rows(self, lo: int, hi: int) -> "Mat":
        """Rows lo, ..., hi - 1."""
        if not 0 <= lo <= hi <= self.nrows:
            raise ValueError("row range out of bounds")
        return Mat._of(self.field, hi - lo, self.ncols, self.data[lo:hi])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Mat({self.nrows}x{self.ncols})"
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.ncols))
            for i in range(self.nrows)
        )
        return f"Mat[{body}]"


def _sparse_row(row, n: int) -> dict:
    """The nonzero entries of a dense row of length n, or of a mapping with
    keys in range(n)."""
    if isinstance(row, Mapping):
        out = {j: v for j, v in row.items() if v}
        fits = all(0 <= j < n for j in out)
    else:
        out = {j: v for j, v in enumerate(row) if v}
        fits = len(row) == n
    if not fits:
        raise ValueError("matrix shape mismatch")
    return out


def _block_dims(blocks: dict, dims, axis: int) -> list:
    """Block heights (axis 0) or widths (axis 1): the given ones, or those
    read off the blocks when none are given."""
    if dims is not None:
        return list(dims)
    size = 1 + max((key[axis] for key in blocks), default=-1)
    out = [None] * size
    for key, b in blocks.items():
        out[key[axis]] = b.ncols if axis else b.nrows
    if None in out:
        raise ValueError("a block row or column without blocks needs explicit dims")
    return out


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    The rows are taken one at a time, after SymPy's sdm_irref: a row is
    reduced against the pivot rows found so far, its first nonzero entry
    becomes a new pivot scaled to 1, and that column is cleared from the
    earlier pivot rows, which so stay reduced against each other.  Only
    nonzero entries are visited.  The RREF is unique, so the result does
    not depend on this order.  It is cached on the input matrix.
    """
    if m._rref is not None:
        return m._rref
    mod = m.field.p
    pivot_rows: dict = {}  # pivot column -> its row
    units: set = set()  # pivots whose row is the unit vector
    others: set = set()  # the other pivots
    holders: dict = {}  # non-pivot column -> pivots whose row has an entry there
    for src in m.data:
        row = {j: v for j, v in src.items() if j not in units}
        for p in others.intersection(row):
            _subtract(row, row.pop(p), pivot_rows[p], p, mod)
        if not row:
            continue
        p = min(row)
        pv = row[p]
        if pv != 1:
            inv = m.field.inv(pv)
            for j, v in row.items():
                row[j] = v * inv % mod if mod else v * inv
        for q in holders.pop(p, ()):
            qrow = pivot_rows[q]
            added, dropped = _subtract(qrow, qrow.pop(p), row, p, mod)
            for j in added:
                holders.setdefault(j, set()).add(q)
            for j in dropped:
                holders[j].discard(q)
            if len(qrow) == 1:
                others.discard(q)
                units.add(q)
        pivot_rows[p] = row
        if len(row) == 1:
            units.add(p)
        else:
            others.add(p)
            for j in row:
                if j != p:
                    holders.setdefault(j, set()).add(p)
    pivots = tuple(sorted(pivot_rows))
    rows = [pivot_rows[p] for p in pivots]
    rows += [{}] * (m.nrows - len(rows))
    result = (Mat._of(m.field, m.nrows, m.ncols, rows), pivots)
    m._rref = result
    return result


def _subtract(row: dict, f, prow: dict, p: int, mod) -> tuple[list, list]:
    """row -= f * prow away from the pivot column p of prow, in place,
    reduced mod p when mod is set; returns the columns that became nonzero
    and those that became zero."""
    added, dropped = [], []
    for j, v in prow.items():
        if j == p:
            continue
        cur = row.get(j)
        if cur is None:
            row[j] = -f * v % mod if mod else -f * v
            added.append(j)
        else:
            cur = (cur - f * v) % mod if mod else cur - f * v
            if cur:
                row[j] = cur
            else:
                del row[j]
                dropped.append(j)
    return added, dropped


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right kernel, ordered by free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the basis is the canonical one determined by the rref.
    """
    red, pivots = rref(m)
    pivset = set(pivots)
    free = {c: k for k, c in enumerate(c for c in range(m.ncols) if c not in pivset)}
    mod = m.field.p
    rows = [{free[c]: 1} if c in free else None for c in range(m.ncols)]
    for pc, prow in zip(pivots, red.data):
        # a reduced pivot row has no entry in the other pivot columns
        rows[pc] = {free[j]: mod - v if mod else -v for j, v in prow.items() if j != pc}
    return Mat._of(m.field, m.ncols, len(free), rows)


def _quotient_with_indices(sub: Mat, amb_dim: int) -> tuple[Mat, Mat, tuple[int, ...]]:
    """As image_quotient, but also reports which standard vectors survive."""
    field = sub.field
    if sub.nrows != amb_dim:
        raise ValueError("subspace matrix must have amb_dim rows")
    if amb_dim == 0:
        e = Mat.zeros(field, 0, 0)
        return e, e, ()
    if sub.ncols == 0 or sub.is_zero():
        ident = Mat.identity(field, amb_dim)
        return ident, ident, tuple(range(amb_dim))
    # the rref of sub^T with its columns reversed: its pivots are the last
    # nonzero positions of the span, which are the standard vectors that a
    # greedy left-to-right completion drops
    last = amb_dim - 1
    rows = [{} for _ in range(sub.ncols)]
    for i, row in enumerate(sub.data):
        for j, v in row.items():
            rows[j][last - i] = v
    red, rev_pivots = rref(Mat._of(field, sub.ncols, amb_dim, rows))
    dropped = {last - p for p in rev_pivots}
    coset_idx = tuple(j for j in range(amb_dim) if j not in dropped)
    coset = Mat.from_cols(field, [{j: 1} for j in coset_idx], amb_dim)
    # a reduced row reads e_p = -(its coset entries) modulo the span, which
    # gives the column of proj at p; proj is the identity on the coset
    pos = {j: k for k, j in enumerate(coset_idx)}
    proj_rows = [{j: 1} for j in coset_idx]
    mod = field.p
    for rp, prow in zip(rev_pivots, red.data):
        p = last - rp
        for rj, v in prow.items():
            if rj != rp:
                proj_rows[pos[last - rj]][p] = mod - v if mod else -v
    return coset, Mat._of(field, len(coset_idx), amb_dim, proj_rows), coset_idx


def image_quotient(sub: Mat, amb_dim: int) -> tuple[Mat, Mat]:
    """Basis and projection for k^amb_dim modulo the column span of sub.

    Returns (coset_basis, projection): the coset basis consists of standard
    basis vectors completing the column space of sub, and the projection
    sends each vector to its coordinates in the quotient (it kills the
    columns of sub and is the identity on the coset basis).
    """
    coset, proj, _ = _quotient_with_indices(sub, amb_dim)
    return coset, proj


def solve(a: Mat, rhs: Mat) -> Mat | None:
    """A solution X of a @ X = rhs with free variables set to zero.

    Returns None when the system is inconsistent.  When the columns of a
    are independent the solution is unique, which is how the degreewise
    code uses this (expressing vectors in a basis).
    """
    if a.nrows != rhs.nrows:
        raise ValueError("row count mismatch in solve")
    red, pivots = rref(a.hstack(rhs))
    if any(p >= a.ncols for p in pivots):
        return None
    n = a.ncols
    rows = [{}] * n
    for pc, prow in zip(pivots, red.data):
        rows[pc] = {j - n: v for j, v in prow.items() if j >= n}
    return Mat._of(a.field, n, rhs.ncols, rows)
