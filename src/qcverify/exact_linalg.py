"""Exact sparse linear algebra over Q or a prime field F_p.

Everything downstream reduces to row reduction of small, very sparse
matrices, so this module is deliberately minimal: a field descriptor, an
immutable matrix type whose rows are {column: entry} dicts holding the
nonzero entries only, and the workhorses (reduced row echelon form, kernel
basis and coordinates in it, quotient-space basis with projection).
Entries are plain Python numbers: over F_p an int in range(p), over Q an
int, or a Fraction once a non-unit has been inverted.  FieldSpec owns the
field decision (reduction and inverses); there is no floating point
anywhere, and every algorithm makes deterministic pivot choices, so equal
inputs give byte-identical results.

Every operation visits the stored nonzero entries only.  The matrices
that arise in practice (monomial multiplication, Cech restriction) are
signed-incidence-like, with a few entries per row, and this keeps
elimination close to linear time on them.  Rows are shared (see Mat).
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate

__all__ = [
    "FieldSpec",
    "Mat",
    "rref",
    "kernel_basis",
    "kernel_coords",
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

    The field is its modulus: FieldSpec(p) is F_p, and FieldSpec() (p is
    None) is Q, so "if p" is the test for a prime field.  Scalars are
    plain numbers, and 0 and 1 are zero and one in both fields.  norm
    brings the result of +, - or * into canonical form, inv inverts.
    """

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"prime field needs a prime modulus, got {p!r}")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls()

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        if p is None:
            raise ValueError(f"prime field needs a prime modulus, got {p!r}")
        return cls(p)

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
        if a == 1 or a == -1:
            return a
        from fractions import Fraction  # here, so that start-up never imports it
        return Fraction(1, a)

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
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"F{self.p}" if self.p else "Q"


class Mat:
    """Immutable sparse matrix with exact entries.

    data holds one {column: entry} dict per row with the nonzero entries
    only; rows are shared between matrices and never changed after
    construction.  Shared, not copied: the unit rows of identities and their
    selections, empty rows, rows that block and hstack take from one block
    at column 0, and rows a product takes through one unit term; rows whose
    entries move or change are built fresh.  The reduced row echelon form is
    cached on the instance, which matters: the degreewise machinery asks for
    the rank and kernel of the same matrix repeatedly.
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
        """The n x n identity; its rows are the shared unit rows {i: 1}, so
        an identity holds n pointers whatever the field."""
        global _UNIT_ROWS
        rows = _UNIT_ROWS
        if len(rows) < n:
            # rebind a longer list rather than extend in place: row i stays
            # {i: 1} even when two callers grow it at once
            rows = _UNIT_ROWS = rows + [{i: 1} for i in range(len(rows), n)]
        m = cls._of(field, n, n, rows[:n])
        m._ident = True
        return m

    @classmethod
    def block(cls, field: FieldSpec, blocks: dict, row_dims=None, col_dims=None) -> "Mat":
        """The matrix with blocks[i, j] in block row i and block column j.

        Absent blocks are zero.  row_dims and col_dims are the heights of
        the block rows and the widths of the block columns; either may be
        left out when every block row (column) holds a block to read it
        from.  Only nonzero entries are visited; a row that one block feeds
        at column 0 is that block's own row, others are shifted or merged.
        """
        row_dims = _block_dims(blocks, row_dims, 0)
        col_dims = _block_dims(blocks, col_dims, 1)
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        rows = [_EMPTY_ROW] * row_off[-1]
        merged = set()  # rows built here from two or more blocks
        for (i, j), b in blocks.items():
            if (b.nrows, b.ncols) != (row_dims[i], col_dims[j]):
                raise ValueError(f"block ({i}, {j}) does not fit its block row and column")
            c0 = col_off[j]
            for r, row in enumerate(b.data, row_off[i]):
                if row and rows[r] is _EMPTY_ROW:
                    rows[r] = {c0 + c: e for c, e in row.items()} if c0 else row
                elif row:
                    if r not in merged:
                        merged.add(r)
                        rows[r] = dict(rows[r])
                    rows[r].update({c0 + c: e for c, e in row.items()})
        return cls._of(field, row_off[-1], col_off[-1], rows)

    def entry(self, i: int, j: int):
        return self.data[i].get(j, 0)

    def is_zero(self) -> bool:
        return not any(self.data)

    def transpose(self) -> "Mat":
        return self.transpose_rows(range(self.nrows))

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
            if not row:
                out.append(_EMPTY_ROW)
                continue
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

    def take_cols(self, indices) -> "Mat":
        """The columns at the given distinct indices, in their order.

        From an identity the result is a selection matrix, built from the
        shared unit rows and one shared empty row without copying.
        """
        new = {j: k for k, j in enumerate(indices)}
        if len(new) != len(indices):
            raise ValueError("take_cols needs distinct column indices")
        if self._ident:
            n = self.nrows
            rows = [_EMPTY_ROW] * n
            for j, k in new.items():
                if 0 <= j < n:
                    rows[j] = _UNIT_ROWS[k]
            return Mat._of(self.field, n, len(new), rows)
        rows = (
            {new[j]: v for j, v in row.items() if j in new} for row in self.data
        )
        return Mat._of(self.field, self.nrows, len(new), rows)

    def transpose_rows(self, indices) -> "Mat":
        """take_cols of the transpose, visiting only the rows at indices."""
        if self._ident:
            return self.take_cols(indices)
        rows = [_EMPTY_ROW] * self.ncols
        for k, i in enumerate(indices):
            for j, v in self.data[i].items():
                if rows[j] is _EMPTY_ROW:
                    rows[j] = {}
                rows[j][k] = v
        return Mat._of(self.field, self.ncols, len(indices), rows)

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


# row i is {i: 1}, shared by every identity matrix (rows are never changed)
_UNIT_ROWS: list = []
# the zero row shared by selection matrices
_EMPTY_ROW: dict = {}


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


def kernel_coords(m: Mat, vecs: Mat) -> Mat | None:
    """Coordinates of the columns of vecs in kernel_basis(m), or None when
    some column is not in the kernel of m.

    The basis vector of a free column has a 1 there and zeros in the other
    free columns, so the coordinates of a kernel vector are its entries at
    the free columns; membership is checked by one product.
    """
    if not (m @ vecs).is_zero():
        return None
    pivots = set(rref(m)[1])
    rows = [row for c, row in enumerate(vecs.data) if c not in pivots]
    return Mat._of(m.field, len(rows), vecs.ncols, rows)


def _quotient_with_indices(sub: Mat, amb_dim: int) -> tuple[Mat, Mat, tuple[int, ...]]:
    """Basis and projection for k^amb_dim modulo the column span of sub.

    Returns (coset_basis, projection, indices): the coset basis consists of
    the standard basis vectors at indices, completing the column space of
    sub, and the projection sends each vector to its coordinates in the
    quotient (it kills the columns of sub and is the identity on the coset
    basis).
    """
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
    coset = Mat.identity(field, amb_dim).take_cols(coset_idx)
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


def _quotient_by_rules(rules: dict, vecs: list, n: int, field: FieldSpec) -> tuple:
    """The indices and projection of _quotient_with_indices for k^n modulo
    the span S of the rules and vecs, without row-reducing the rules; the
    projection comes by columns (row k is the image of e_k).

    rules[k] = {j: c} with every j < k says that e_k - sum c e_j is in S:
    rows in echelon form, each led by its k.  One pass up the indices gives
    each e_k its normal form modulo the rules on the candidates, the
    indices no rule leads, and for j < k that of e_j holds only candidates
    below k.  So e_k is outside span(e_j : j < k) + S, which is what
    _quotient_with_indices keeps for S, exactly when k is a candidate that
    it keeps for the normal forms of the vecs.  The projection, which
    kills S and fixes the kept indices, is unique.
    """
    cand, cols, mod = range(n), Mat.identity(field, n), field.p
    if rules:
        cand, nf = [], []  # nf[k]: e_k modulo the rules, on the candidates
        for k in range(n):
            if k not in rules:
                nf.append(cols.data[len(cand)])  # a shared unit row
                cand.append(k)
                continue
            acc: dict = {}
            for j, c in rules[k].items():
                for r, v in nf[j].items():
                    acc[r] = acc.get(r, 0) + c * v
            nf.append({r: e for r, v in acc.items() if (e := v % mod if mod else v)})
        cols = Mat._of(field, n, len(cand), nf)
    if vecs and not (res := Mat(field, len(vecs), n, vecs) @ cols).is_zero():
        _, sub, idx = _quotient_with_indices(res.transpose(), len(cand))
        cand, cols = [cand[j] for j in idx], cols @ sub.transpose()
    return cand, cols


def solve(a: Mat, rhs: Mat) -> Mat | None:
    """A solution X of a @ X = rhs with free variables set to zero.

    Returns None when the system is inconsistent.  When the columns of a
    are independent the solution is unique.  Coordinates in a kernel basis
    are read off by kernel_coords instead; this general solve serves only
    the basis that Gamma(W, -) lifts to a higher cap before expressing
    vectors in it.  Its one caller is SectionsModule._express, for a
    vector given above its target degree's own cap: act reaches that when
    degree d's cap exceeds degree d + 1's, as proven floor caps do (they
    fall by one per degree) and escalated caps can, and an induced map
    reaches it when its source's cap exceeds its target's.
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
