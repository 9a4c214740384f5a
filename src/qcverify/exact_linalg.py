"""Exact dense linear algebra over Q or a prime field F_p.

Everything downstream reduces to row reduction of small dense matrices, so
this module is deliberately minimal: a field descriptor, an immutable
matrix type, and the three workhorses (reduced row echelon form, kernel
basis, quotient-space basis with projection).  Entries are Fractions or
canonical residues mod p; there is no floating point anywhere, and every
algorithm makes deterministic pivot choices, so equal inputs give
byte-identical results.

Row operations iterate over the stored support of the pivot row only.
The matrices that arise in practice (monomial multiplication, Cech
restriction) are signed-incidence-like, and this keeps elimination close
to linear time on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

__all__ = [
    "FieldSpec",
    "PrimeFieldElement",
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


class PrimeFieldElement:
    """A residue mod p with field arithmetic via operator overloading."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return PrimeFieldElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return PrimeFieldElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return PrimeFieldElement(self.v * other.v, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return PrimeFieldElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElement)
            and self.v == other.v
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class FieldSpec:
    """The ground field: the rationals, or F_p for a prime p."""

    __slots__ = ("kind", "p")

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

    @property
    def zero(self):
        if self.kind == "rationals":
            return Fraction(0)
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        if self.kind == "rationals":
            return Fraction(1)
        return PrimeFieldElement(1, self.p)

    def of_int(self, n: int):
        if self.kind == "rationals":
            return Fraction(n)
        return PrimeFieldElement(n, self.p)

    def parse_scalar(self, text: str):
        """Parse 'n' or 'n/m' (the latter inverted mod p for prime fields)."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            num, den = int(a), int(b)
            if den == 0:
                raise ValueError("zero denominator in scalar")
            if self.kind == "rationals":
                return Fraction(num, den)
            return PrimeFieldElement(num, self.p) / PrimeFieldElement(den, self.p)
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
    """Immutable dense matrix with exact entries.

    The reduced row echelon form is cached on the instance, which matters:
    ranks, kernels and solves of the same matrix are asked for repeatedly
    by the degreewise machinery.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_rref", "_rowsupp", "_ident")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows):
        data = tuple(tuple(r) for r in rows)
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise ValueError("matrix shape mismatch")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data
        self._rref = None
        self._rowsupp = None
        self._ident = False

    def row_support(self) -> list:
        """Per-row (column, entry) pairs of the nonzero entries, cached."""
        rs = self._rowsupp
        if rs is None:
            rs = [
                tuple((j, v) for j, v in enumerate(row) if v) for row in self.data
            ]
            self._rowsupp = rs
        return rs

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        m = cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])
        m._rowsupp = [()] * nrows
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        z, o = field.zero, field.one
        m = cls(
            field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)]
        )
        m._ident = True
        m._rowsupp = [((i, o),) for i in range(n)]
        return m

    @classmethod
    def from_cols(cls, field: FieldSpec, cols, nrows: int) -> "Mat":
        cols = [list(c) for c in cols]
        z = field.zero
        return cls(
            field,
            nrows,
            len(cols),
            [[cols[j][i] if cols[j] else z for j in range(len(cols))] for i in range(nrows)],
        )

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
        z = field.zero
        rows = [[z] * col_off[-1] for _ in range(row_off[-1])]
        for (i, j), b in blocks.items():
            if (b.nrows, b.ncols) != (row_dims[i], col_dims[j]):
                raise ValueError(f"block ({i}, {j}) does not fit its block row and column")
            r0, c0 = row_off[i], col_off[j]
            for r, sup in enumerate(b.row_support()):
                out = rows[r0 + r]
                for c, e in sup:
                    out[c0 + c] = e
        return cls(field, row_off[-1], col_off[-1], rows)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_zero(self) -> bool:
        return all(not e for row in self.data for e in row)

    def transpose(self) -> "Mat":
        return Mat(
            self.field,
            self.ncols,
            self.nrows,
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        # skipping zero summands avoids renormalizing exact scalars
        return Mat(
            self.field,
            self.nrows,
            self.ncols,
            [
                [(a if not b else b if not a else a + b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in subtraction")
        return Mat(
            self.field,
            self.nrows,
            self.ncols,
            [
                [(a if not b else -b if not a else a - b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __neg__(self) -> "Mat":
        z = self.field.zero
        rows = [[z] * self.ncols for _ in range(self.nrows)]
        supp = []
        for out, sup in zip(rows, self.row_support()):
            neg = tuple((j, -v) for j, v in sup)
            for j, v in neg:
                out[j] = v
            supp.append(neg)
        m = Mat(self.field, self.nrows, self.ncols, rows)
        m._rowsupp = supp
        return m

    def scale(self, c) -> "Mat":
        if c == self.field.one:
            return self
        return Mat(
            self.field,
            self.nrows,
            self.ncols,
            [[c * a if a else a for a in row] for row in self.data],
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        if self._ident:
            return other
        if other._ident:
            return self
        z = self.field.zero
        osupp = other.row_support()
        out = []
        supp = []
        for row in self.row_support():
            acc: dict = {}
            get = acc.get
            for k, a in row:
                for j, b in osupp[k]:
                    cur = get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            dense = [z] * other.ncols
            nz = []
            for j, v in acc.items():
                if v:
                    dense[j] = v
                    nz.append((j, v))
            out.append(dense)
            supp.append(tuple(nz))
        m = Mat(self.field, self.nrows, other.ncols, out)
        m._rowsupp = supp
        return m

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        m = Mat(
            self.field,
            self.nrows,
            self.ncols + other.ncols,
            [ra + rb for ra, rb in zip(self.data, other.data)],
        )
        if self._rowsupp is not None and other._rowsupp is not None:
            off = self.ncols
            m._rowsupp = [
                ra + tuple((j + off, v) for j, v in rb)
                for ra, rb in zip(self._rowsupp, other._rowsupp)
            ]
        return m

    def vstack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return Mat(
            self.field, self.nrows + other.nrows, self.ncols, self.data + other.data
        )

    def take_cols(self, indices) -> "Mat":
        return Mat(
            self.field,
            self.nrows,
            len(indices),
            [[row[j] for j in indices] for row in self.data],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.data))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Mat({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Mat[{body}]"


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

    Gauss-Jordan with the first nonzero entry below the working row as
    pivot; pivots are scaled to 1 and cleared above and below.  The result
    is cached on the input matrix.
    """
    if m._rref is not None:
        return m._rref
    rows = [list(r) for r in m.data]
    nr, nc = m.nrows, m.ncols
    one = m.field.one
    pivots = []
    pr = 0
    for pc in range(nc):
        if pr >= nr:
            break
        pivot_row = None
        for r in range(pr, nr):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        prow = rows[pr]
        # normalize, then eliminate using only the pivot row's support
        support = [c for c in range(pc, nc) if prow[c]]
        pv = prow[pc]
        if pv != one:
            for c in support:
                prow[c] = prow[c] / pv
        for r in range(nr):
            if r == pr:
                continue
            f = rows[r][pc]
            if not f:
                continue
            rr = rows[r]
            for c in support:
                rr[c] = rr[c] - f * prow[c]
        pivots.append(pc)
        pr += 1
    result = (Mat(m.field, nr, nc, rows), tuple(pivots))
    m._rref = result
    return result


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right kernel, ordered by free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the basis is the canonical one determined by the rref.
    """
    red, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    z, o = m.field.zero, m.field.one
    cols = []
    for fc in free:
        v = [z] * m.ncols
        v[fc] = o
        for i, pc in enumerate(pivots):
            e = red.data[i][fc]
            if e:
                v[pc] = -e
        cols.append(v)
    return Mat.from_cols(m.field, cols, m.ncols)


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
    aug = sub.hstack(Mat.identity(field, amb_dim))
    _, pivots = rref(aug)
    sub_pivots = [p for p in pivots if p < sub.ncols]
    coset_idx = tuple(p - sub.ncols for p in pivots if p >= sub.ncols)
    coset = Mat.from_cols(
        field,
        [[field.one if i == j else field.zero for i in range(amb_dim)] for j in coset_idx],
        amb_dim,
    )
    b_full = sub.take_cols(sub_pivots).hstack(coset)
    # invert [independent sub columns | coset] and keep the coset rows:
    # those rows kill the sub and restrict to the identity on the coset
    inv_aug, inv_piv = rref(b_full.hstack(Mat.identity(field, amb_dim)))
    if len(inv_piv) != amb_dim:
        raise ArithmeticError("completion to a basis failed")
    n = b_full.ncols
    q = coset.ncols
    proj_rows = [inv_aug.data[n - q + i][n:] for i in range(q)]
    proj = Mat(field, q, amb_dim, proj_rows)
    return coset, proj, coset_idx


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
    aug = a.hstack(rhs)
    red, pivots = rref(aug)
    if any(p >= a.ncols for p in pivots):
        return None
    z = a.field.zero
    out = [[z] * rhs.ncols for _ in range(a.ncols)]
    for i, pc in enumerate(pivots):
        row = red.data[i]
        for j in range(rhs.ncols):
            out[pc][j] = row[a.ncols + j]
    return Mat(a.field, a.ncols, rhs.ncols, out)
