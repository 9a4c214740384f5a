"""Exact linear algebra: hand-checked oracles plus algebraic property tests."""

import os
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcverify
from qcverify import FieldSpec, Mat, exact_linalg, kernel_basis, kernel_coords, rref, solve
from qcverify.exact_linalg import _quotient_by_rules, _quotient_with_indices, rank

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


def test_fractions_is_imported_only_to_invert_a_non_unit():
    # in a fresh interpreter, since pytest's plugins import fractions here;
    # and a run loads neither dataclasses nor the inspect it brings, nor
    # copy: a twist's Cech complexes share their source's memo, no copies
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcverify.__file__)))
    script = (
        "import contextlib, io, sys\n"
        "from qcverify.verify_cli import BUILTIN_SCENARIOS, main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for name in sorted(BUILTIN_SCENARIOS):\n"
        "        main(['builtin', name, '--window=-1:1'])\n"
        "print('fractions' in sys.modules)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules, 'copy' in sys.modules)\n"
        "from fractions import Fraction\n"
        "from qcverify import FieldSpec\n"
        "print(FieldSpec().inv(2) == Fraction(1, 2), FieldSpec().inv(-1))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "False\nFalse False False\nTrue -1\n", "")


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
    for make, p in [(FieldSpec.prime, 6), (FieldSpec.prime, None), (FieldSpec, 6),
                    (FieldSpec, 1)]:
        with pytest.raises(ValueError, match=rf"^prime field needs a prime modulus, got {p}$"):
            make(p)


def test_a_field_is_its_modulus():
    assert FieldSpec() == FieldSpec.rationals() == FieldSpec(None)
    assert FieldSpec(7) == F7 != Q
    assert hash(FieldSpec(7)) == hash(F7)
    assert (repr(Q), repr(F7)) == ("Q", "F7")


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
    v = Mat.block(Q, {(0, 0): a, (1, 0): mat([[7, 8]])})
    assert v.nrows == 3 and v.entry(2, 1) == 8


def test_take_cols():
    a = mat([[1, 2, 3], [4, 5, 6]])
    t = a.take_cols((2, 0))
    assert t == mat([[3, 1], [6, 4]])


def test_product_support_drops_cancellations():
    # the (1,1)+(1,-1) pattern cancels; propagated support must not keep a zero
    a = mat([[1, 1], [0, 2]])
    b = mat([[1], [-1]])
    p = a @ b
    assert p == mat([[0], [-2]])
    assert p.data == ({}, {0: Fraction(-2)})


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
    coset, proj, idx = _quotient_with_indices(sub, 3)
    assert proj.nrows == 1 and proj.ncols == 3
    assert (proj @ sub).is_zero()
    assert proj @ coset == Mat.identity(Q, 1)
    assert idx == (2,)


def test_image_quotient_of_zero_subspace():
    coset, proj, idx = _quotient_with_indices(Mat.zeros(Q, 3, 0), 3)
    assert coset == Mat.identity(Q, 3)
    assert proj == Mat.identity(Q, 3)
    assert idx == (0, 1, 2)


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
    """The same grid assembled by hstack within block rows, then by
    concatenating the rows of the block rows."""
    out = None
    for i, r in enumerate(row_dims):
        row = None
        for j, c in enumerate(col_dims):
            b = blocks.get((i, j))
            if b is None:
                b = Mat.zeros(field, r, c)
            row = b if row is None else row.hstack(b)
        out = row if out is None else Mat(field, out.nrows + row.nrows, row.ncols,
                                          out.data + row.data)
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


@given(block_grids())
@settings(max_examples=80, deadline=None)
def test_assembly_shares_rows_and_changes_none(grid):
    # rows are shared, never changed: a row that one block feeds at column 0
    # is that block's own row, an unfed row is the shared empty row, and no
    # operation alters a row of its inputs
    field, blocks, row_dims, col_dims = grid
    before = [(m, [dict(row) for row in m.data]) for m in blocks.values()]
    got = Mat.block(field, blocks, row_dims, col_dims)
    assert got == folded(field, blocks, row_dims, col_dims)
    before.append((got, [dict(row) for row in got.data]))
    if len(col_dims) == 1:
        row_off = [sum(row_dims[:i]) for i in range(len(row_dims))]
        for (i, _), b in blocks.items():
            for r, row in enumerate(b.data, row_off[i]):
                assert not row or got.data[r] is row
    assert all(row for row in got.data if row is not exact_linalg._EMPTY_ROW)
    twice = got.hstack(got)
    assert twice == folded(field, {(0, 0): got, (0, 1): got}, [got.nrows], [got.ncols] * 2)
    square = got @ got.transpose()
    assert all(row is exact_linalg._EMPTY_ROW for row, src in zip(square.data, got.data) if not src)
    got.take_cols(list(range(got.ncols))[::-1])
    rref(got), kernel_basis(got), _quotient_with_indices(got, got.nrows)
    for m, rows in before:
        assert [dict(row) for row in m.data] == rows


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
    coset, proj, _ = _quotient_with_indices(sub, n)
    q = n - rank(sub)
    assert proj.nrows == q and coset.ncols == q
    assert (proj @ sub).is_zero()
    assert proj @ coset == Mat.identity(sub.field, q)


@st.composite
def rule_inputs(draw):
    """(field, n, rules, vecs): rules led by a random set of indices in
    range(n), each on a few lower indices, and a few sparse vectors."""
    field = draw(st.sampled_from([Q, F7, F65537]))
    n = draw(st.integers(0, 8))
    rules = {}
    for k in sorted(draw(st.sets(st.integers(0, n - 1))) if n else ()):
        lower = st.dictionaries(st.integers(0, k - 1), st.integers(1, 3), max_size=3)
        rules[k] = {j: field.of_int(c) for j, c in (draw(lower) if k else {}).items()}
    vecs = draw(sparse_mats(field, n, draw(st.integers(0, 3))))
    return field, n, rules, [dict(col) for col in vecs.transpose().data]


@given(rule_inputs())
@settings(max_examples=80, deadline=None)
def test_quotient_by_rules_is_the_quotient_by_their_span(inputs):
    # the rules are rows e_k - sum c e_j; reducing them in one pass and the
    # vecs after gives what row-reducing the whole span gives
    field, n, rules, vecs = inputs
    rows = [{k: 1, **{j: field.norm(-c) for j, c in rule.items()}} for k, rule in rules.items()]
    span = Mat(field, len(rows + vecs), n, rows + vecs).transpose()
    _, want_proj, want_idx = _quotient_with_indices(span, n)
    idx, proj_cols = _quotient_by_rules(rules, vecs, n, field)
    assert (tuple(idx), proj_cols.transpose()) == (want_idx, want_proj)
    assert_sparse(proj_cols)


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
    # identities share their unit rows: nothing built from them may change one
    i_n, i_m = Mat.identity(field, n), Mat.identity(field, m)
    results = [
        i_n, i_n + a @ a.transpose(), i_n - b @ a.transpose(), i_n.scale(field.of_int(s)),
        -i_n, i_n @ a, a @ i_m, a.hstack(i_n), Mat.block(field, {(0, 0): i_m, (1, 0): a}),
        Mat.block(field, {(0, 0): i_n, (0, 1): a, (1, 1): i_m}, [n, m], [n, m]),
        rref(i_n)[0], rref(a.hstack(i_n))[0], rref(Mat.block(field, {(0, 0): a, (1, 0): i_m}))[0],
        kernel_basis(i_n), kernel_basis(a.hstack(i_n)), solve(i_n, a), solve(a.hstack(i_n), b),
        i_n.take_cols(list(range(n))[::-2]), i_m.take_cols([]),
        kernel_coords(a.hstack(i_n), kernel_basis(a.hstack(i_n))),
    ]
    results += [
        a, a + b, a - b, a - a, a + a.scale(field.of_int(-1)), -a,
        a.scale(field.of_int(s)), a @ c, a.hstack(b), Mat.block(field, {(0, 0): a, (1, 0): b}),
        Mat.block(field, {(0, 0): a, (0, 1): a @ c, (1, 0): b}, [n, n], [m, c.ncols]),
        a.transpose(), a.take_cols(list(range(m))[::-1]), a.take_rows(n // 2, n),
        rref(a)[0], kernel_basis(a), *_quotient_with_indices(a, n)[:2],
        kernel_coords(a, kernel_basis(a)), kernel_coords(a, kernel_basis(a).scale(field.of_int(s))),
    ]
    x = solve(a, b.take_cols(list(range(min(m, 1)))))
    if x is not None:
        results.append(x)
    for r in results:
        assert_sparse(r)
    assert (a - a).is_zero() and (a + -a).data == ({},) * n
    assert all(row == {i: 1} for i, row in enumerate(Mat.identity(field, n + m).data))


@st.composite
def kernel_coords_inputs(draw):
    """A field, a matrix m with possibly zero rows or columns, and a block
    of coordinates c for its kernel basis."""
    field = draw(st.sampled_from([Q, F7, F65537]))
    m = draw(sparse_mats(field, draw(st.integers(0, 5)), draw(st.integers(0, 6))))
    c = draw(sparse_mats(field, kernel_basis(m).ncols, draw(st.integers(0, 3))))
    return field, m, c


@given(kernel_coords_inputs(), st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_coords_inverts_the_kernel_basis(inputs, data):
    field, m, c = inputs
    k = kernel_basis(m)
    assert kernel_coords(m, k @ c) == c
    # against the general solve, on vectors in the kernel and vectors off it
    noise = data.draw(sparse_mats(field, m.ncols, c.ncols))
    for v in (k @ c, noise, k @ c + noise):
        got, want = kernel_coords(m, v), solve(k, v)
        assert (got is None) == (want is None)
        assert got == want


def test_kernel_coords_of_a_vector_off_the_kernel():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert kernel_coords(a, mat([[1], [0], [0]])) is None
    assert kernel_coords(a, mat([[1, 0], [-2, 0], [1, 0]])) == mat([[1, 0]])
    with pytest.raises(ValueError):
        kernel_coords(a, mat([[1], [0]]))


@given(st.sampled_from([Q, F7, F65537]), st.integers(0, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_take_cols_of_an_identity_shares_unit_rows(field, n, data):
    picked = data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    ident = Mat.identity(field, n)
    # equal to the identity, but not flagged as one: the generic path
    plain = Mat(field, n, n, [{i: 1} for i in range(n)])
    assert plain == ident and not plain._ident
    sel = ident.take_cols(picked)
    assert sel.data == plain.take_cols(picked).data
    assert (sel.nrows, sel.ncols) == (n, len(picked))
    for k, j in enumerate(picked):
        assert sel.data[j] is exact_linalg._UNIT_ROWS[k]
    assert all(sel.data[j] is exact_linalg._EMPTY_ROW for j in set(range(n)) - set(picked))
    if n:
        with pytest.raises(ValueError):
            ident.take_cols([0, 0])


@pytest.mark.parametrize("field", [Q, F7])
def test_a_coset_basis_is_a_selection_of_unit_rows(field):
    # the coset basis of a quotient is the identity's columns at its
    # indices, built from the shared unit rows and the shared empty row
    for rows in ([[1], [1], [0], [0]], [[1, 0], [2, 1], [0, 3], [0, 0]], [[0], [0], [0], [5]]):
        sub = Mat(field, len(rows), len(rows[0]), rows)
        coset, _proj, idx = exact_linalg._quotient_with_indices(sub, sub.nrows)
        assert coset == Mat(field, len(idx), sub.nrows, [{j: 1} for j in idx]).transpose()
        for j, row in enumerate(coset.data):
            want = exact_linalg._UNIT_ROWS[idx.index(j)] if j in idx else exact_linalg._EMPTY_ROW
            assert row is want


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

    dom = sympy.GF(a.field.p) if a.field.p else sympy.QQ
    rows = [[dom.convert(a.entry(i, j)) for j in range(a.ncols)]
            for i in range(a.nrows)]
    return DomainMatrix(rows, (a.nrows, a.ncols), dom)


def _from_sympy(field: FieldSpec, x) -> list:
    if field.p is None:
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
