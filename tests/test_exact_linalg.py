"""Exact linear algebra: hand-checked oracles plus algebraic property tests."""

from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcverify import FieldSpec, Mat, image_quotient, kernel_basis, rref, solve
from qcverify.exact_linalg import _quotient_with_indices, rank

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)


def mat(rows, field=Q) -> Mat:
    return Mat(field, len(rows), len(rows[0]) if rows else 0, [[field.of_int(v) for v in r] for r in rows])


# --- field specs ---------------------------------------------------------


def test_rational_scalars():
    assert Q.of_int(3) == Fraction(3)
    assert Q.parse_scalar("-2/5") == Fraction(-2, 5)
    assert Q.zero == 0 and Q.one == 1


def test_prime_field_arithmetic():
    # scalars are plain ints in range(p); FieldSpec does the reduction
    assert F7.of_int(10) == 3 and F7.of_int(-1) == 6 and F7.of_int(7) == 0
    assert type(F7.of_int(-1)) is int
    assert F7.norm(3 * 5) == 1 and F7.norm(3 + 5) == 1
    assert F7.parse_scalar("1/3") == 5 and F7.norm(5 * 3) == F7.one
    assert F7.parse_scalar("-2/4") == F7.norm(-2 * F7.inv(4)) == 3
    assert F7.inv(3) == 5 and F7.inv(-1) == 6
    # over Q a unit inverts to an int, anything else to a Fraction
    assert type(Q.inv(-1)) is int and Q.inv(-1) == -1
    assert Q.inv(3) == Fraction(1, 3) and Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(Q.parse_scalar("6")) is int


def test_prime_field_division_by_zero():
    for field, zero in ((F7, 0), (F7, 14), (Q, 0)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
    # a denominator that vanishes mod p is bad input, not an arithmetic error
    with pytest.raises(ValueError):
        F7.parse_scalar("1/7")
    with pytest.raises(ValueError):
        Q.parse_scalar("1/0")


def test_prime_must_be_prime():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)


# --- basic matrix ops ----------------------------------------------------


def test_identity_is_neutral():
    a = mat([[1, 2], [3, 4], [5, 6]])
    assert Mat.identity(Q, 3) @ a == a
    assert a @ Mat.identity(Q, 2) == a


def test_shape_mismatch_raises():
    a = mat([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_transpose_and_stacks():
    a = mat([[1, 2], [3, 4]])
    b = mat([[5], [6]])
    assert a.transpose().transpose() == a
    h = a.hstack(b)
    assert h.ncols == 3 and h.entry(0, 2) == 5
    v = a.vstack(mat([[7, 8]]))
    assert v.nrows == 3 and v.entry(2, 1) == 8


def test_take_cols():
    a = mat([[1, 2, 3], [4, 5, 6]])
    t = a.take_cols((2, 0))
    assert t == mat([[3, 1], [6, 4]])


def test_row_support_matches_dense_scan():
    a = mat([[0, 2, 0], [1, 0, -1], [0, 0, 0]])
    assert a.row_support() == [((1, Fraction(2)),), ((0, Fraction(1)), (2, Fraction(-1))), ()]


def test_product_support_drops_cancellations():
    # the (1,1)+(1,-1) pattern cancels; propagated support must not keep a zero
    a = mat([[1, 1], [0, 2]])
    b = mat([[1], [-1]])
    p = a @ b
    assert p == mat([[0], [-2]])
    assert p.row_support() == [(), ((0, Fraction(-2)),)]


# --- rref / rank / kernel ------------------------------------------------


def test_rref_known_matrix():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(a)
    assert pivots == (0, 1)
    assert rank(a) == 2
    assert r.entry(0, 0) == 1 and r.entry(1, 1) == 1
    # second row of a is dependent, so the reduced form has a zero row
    assert all(r.entry(2, j) == 0 for j in range(3))


def test_kernel_basis_annihilates():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    k = kernel_basis(a)
    assert k.ncols == 1
    assert (a @ k).is_zero()


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 2], [3, 4]])
    rhs = mat([[5], [6]])
    s = solve(a, rhs)
    assert s is not None and a @ s == rhs
    singular = mat([[1, 2], [2, 4]])
    assert solve(singular, mat([[1], [0]])) is None


def test_image_quotient_splits_dimensions():
    sub = mat([[1, 0], [0, 1], [0, 0]])
    coset, proj = image_quotient(sub, 3)
    assert proj.nrows == 1 and proj.ncols == 3
    assert (proj @ sub).is_zero()
    assert proj @ coset == Mat.identity(Q, 1)


def test_image_quotient_of_zero_subspace():
    coset, proj = image_quotient(Mat.zeros(Q, 3, 0), 3)
    assert coset == Mat.identity(Q, 3)
    assert proj == Mat.identity(Q, 3)


# --- property tests ------------------------------------------------------

small = st.integers(min_value=-4, max_value=4)


def mats(nrows, ncols):
    return st.lists(
        st.lists(small, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ).map(mat)


@given(mats(3, 3), mats(3, 3), mats(3, 3))
@settings(max_examples=60, deadline=None)
def test_product_is_associative_and_distributive(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


@given(mats(3, 4))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(a):
    assert rank(a) + kernel_basis(a).ncols == a.ncols
    assert rank(a) == rank(a.transpose())


@given(mats(3, 3), mats(3, 3))
@settings(max_examples=60, deadline=None)
def test_rank_of_product_bounded(a, b):
    assert rank(a @ b) <= min(rank(a), rank(b))


@given(mats(3, 3))
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(a):
    r, pivots = rref(a)
    r2, pivots2 = rref(r)
    assert r == r2 and pivots == pivots2


@given(mats(3, 3), mats(3, 1))
@settings(max_examples=40, deadline=None)
def test_solve_agrees_with_membership(a, rhs):
    s = solve(a, rhs)
    if s is None:
        assert rank(a.hstack(rhs)) == rank(a) + 1
    else:
        assert a @ s == rhs


# --- block assembly ------------------------------------------------------

F65537 = FieldSpec.prime(65537)


@st.composite
def block_grids(draw):
    """(field, blocks, row_dims, col_dims): a grid of up to 3 x 3 blocks with
    heights and widths 0..3, each block present or absent at random."""
    field = draw(st.sampled_from([Q, F65537]))
    row_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    col_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    blocks = {}
    for i, r in enumerate(row_dims):
        for j, c in enumerate(col_dims):
            if draw(st.booleans()):
                rows = draw(st.lists(st.lists(small, min_size=c, max_size=c),
                                     min_size=r, max_size=r))
                blocks[i, j] = Mat(field, r, c, [[field.of_int(v) for v in row] for row in rows])
    return field, blocks, row_dims, col_dims


def folded(field, blocks, row_dims, col_dims) -> Mat:
    """The same grid assembled by hstack within block rows, then vstack."""
    out = None
    for i, r in enumerate(row_dims):
        row = None
        for j, c in enumerate(col_dims):
            b = blocks.get((i, j))
            if b is None:
                b = Mat.zeros(field, r, c)
            row = b if row is None else row.hstack(b)
        out = row if out is None else out.vstack(row)
    return out


@given(block_grids())
@settings(max_examples=80, deadline=None)
def test_block_matches_stack_folds(grid):
    field, blocks, row_dims, col_dims = grid
    want = folded(field, blocks, row_dims, col_dims)
    assert Mat.block(field, blocks, row_dims, col_dims) == want
    if {i for i, _ in blocks} == set(range(len(row_dims))) and {
        j for _, j in blocks
    } == set(range(len(col_dims))):
        # every block row and column holds a block: the dims can be read off
        assert Mat.block(field, blocks) == want


def test_block_diagonal_with_empty_blocks():
    a = mat([[1, 2]])
    e = Mat.zeros(Q, 0, 3)
    b = mat([[3], [4]])
    got = Mat.block(Q, {(0, 0): a, (1, 1): e, (2, 2): b})
    assert got == mat([[1, 2, 0, 0, 0, 0], [0, 0, 0, 0, 0, 3], [0, 0, 0, 0, 0, 4]])


def test_block_needs_dims_for_an_empty_block_row():
    with pytest.raises(ValueError):
        Mat.block(Q, {(1, 0): mat([[1]])})
    assert Mat.block(Q, {(1, 0): mat([[1]])}, [2, 1]) == mat([[0], [0], [1]])


def test_block_rejects_a_misfit():
    with pytest.raises(ValueError):
        Mat.block(Q, {(0, 0): mat([[1, 2]])}, [1], [3])


# --- the sparse representation -------------------------------------------


@st.composite
def sparse_mats(draw, field, nrows, ncols):
    """An nrows x ncols matrix over field with a few entries in -2..2, so
    that whole zero rows and zero columns are common."""
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.integers(-2, 2),
        max_size=max(1, nrows * ncols // 3),
    )) if nrows and ncols else {}
    rows = [{} for _ in range(nrows)]
    for (i, j), v in cells.items():
        rows[i][j] = field.of_int(v)
    return Mat(field, nrows, ncols, rows)


@st.composite
def op_inputs(draw):
    """A field and matrices a, b (n x m), c (m x k), sized 0..4."""
    field = draw(st.sampled_from([Q, F65537]))
    n, m, k = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(sparse_mats(field, n, m))
    b = draw(st.one_of(sparse_mats(field, n, m), st.just(-a)))
    c = draw(sparse_mats(field, m, k))
    return field, a, b, c


@st.composite
def quotient_inputs(draw):
    """A subspace matrix: dense over Q, or sparse over Q, F_7 or F_65537."""
    field = draw(st.sampled_from([Q, F7, F65537]))
    sparse = sparse_mats(field, draw(st.integers(1, 8)), draw(st.integers(0, 6)))
    return draw(st.one_of(mats(4, 2), sparse))


@given(quotient_inputs())
@settings(max_examples=80, deadline=None)
def test_quotient_dimensions_add_up(sub):
    n = sub.nrows
    coset, proj = image_quotient(sub, n)
    q = n - rank(sub)
    assert proj.nrows == q and coset.ncols == q
    assert (proj @ sub).is_zero()
    assert proj @ coset == Mat.identity(sub.field, q)


def assert_sparse(x: Mat):
    assert len(x.data) == x.nrows
    p = x.field.p
    for row in x.data:
        assert isinstance(row, Mapping)
        assert all(j in range(x.ncols) for j in row)
        assert all(row.values()), "a zero is stored"
        if p:
            # zero tests and equality rely on canonical residues
            assert all(type(v) is int and 0 < v < p for v in row.values())


@given(op_inputs(), st.integers(-2, 2))
@settings(max_examples=80, deadline=None)
def test_every_operation_keeps_rows_sparse(inputs, s):
    field, a, b, c = inputs
    n, m = a.nrows, a.ncols
    results = [
        a, a + b, a - b, a - a, a + a.scale(field.of_int(-1)), -a,
        a.scale(field.of_int(s)), a @ c, a.hstack(b), a.vstack(b),
        Mat.block(field, {(0, 0): a, (0, 1): a @ c, (1, 0): b}, [n, n], [m, c.ncols]),
        a.transpose(), a.take_cols(list(range(m))[::-1]), a.take_rows(n // 2, n),
        rref(a)[0], kernel_basis(a), image_quotient(a, n)[0], image_quotient(a, n)[1],
    ]
    x = solve(a, b.take_cols(list(range(min(m, 1)))))
    if x is not None:
        results.append(x)
    for r in results:
        assert_sparse(r)
    assert (a - a).is_zero() and (a + -a).data == ({},) * n


def test_dense_and_mapping_rows_agree():
    dense = Mat(Q, 2, 3, [[0, 2, 0], [Fraction(1, 2), 0, 0]])
    sparse = Mat(Q, 2, 3, [{1: Fraction(2), 2: Fraction(0)}, {0: Fraction(1, 2)}])
    assert dense == sparse and dense.data == ({1: 2}, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Mat(Q, 1, 2, [{2: Fraction(1)}])
    with pytest.raises(ValueError):
        Mat(Q, 1, 2, [[1, 2, 3]])


def test_take_rows():
    a = mat([[1, 0], [0, 2], [3, 0]])
    assert a.take_rows(1, 3) == mat([[0, 2], [3, 0]])
    assert a.take_rows(2, 2).nrows == 0
    with pytest.raises(ValueError):
        a.take_rows(2, 4)


# --- SymPy as an independent oracle --------------------------------------


def _to_sympy(a: Mat):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    dom = sympy.QQ if a.field.kind == "rationals" else sympy.GF(a.field.p)
    rows = [[dom.convert(a.entry(i, j)) for j in range(a.ncols)]
            for i in range(a.nrows)]
    return DomainMatrix(rows, (a.nrows, a.ncols), dom)


def _from_sympy(field: FieldSpec, x) -> list:
    if field.kind == "rationals":
        return [[Fraction(int(e.numerator), int(e.denominator)) for e in r] for r in x.to_list()]
    return [[int(e) % field.p for e in r] for r in x.to_list()]


@st.composite
def oracle_inputs(draw):
    field = draw(st.sampled_from([Q, F65537]))
    return draw(sparse_mats(field, draw(st.integers(1, 8)), draw(st.integers(1, 10))))


@given(oracle_inputs())
@settings(max_examples=40, deadline=None)
def test_rref_and_kernel_match_sympy(a):
    dm = _to_sympy(a)
    want, want_pivots = dm.rref()
    red, pivots = rref(a)
    assert pivots == tuple(want_pivots)
    ours = [[red.entry(i, j) for j in range(a.ncols)] for i in range(a.nrows)]
    assert ours == _from_sympy(a.field, want)
    assert kernel_basis(a).ncols == dm.nullspace().shape[0]


@given(quotient_inputs())
@settings(max_examples=40, deadline=None)
def test_quotient_keeps_the_greedy_complement(sub):
    # e_j survives exactly when it raises the rank of [sub | e_0 .. e_j]
    n = sub.nrows
    units = Mat.identity(sub.field, n)
    ranks = [_to_sympy(sub.hstack(units.take_cols(range(j)))).rank() for j in range(n + 1)]
    _, _, idx = _quotient_with_indices(sub, n)
    assert idx == tuple(j for j in range(n) if ranks[j + 1] > ranks[j])
