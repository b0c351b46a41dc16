"""Exact linear algebra over F_p, checked against hand-worked oracles."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_rref

from logcartier.gflinalg import FpMatrix, PrimeField


def test_prime_field_accepts_primes():
    for p in (2, 3, 5, 7, 251):
        assert PrimeField(p).p == p


def test_prime_field_rejects_composites_and_large():
    for bad in (0, 1, 4, 6, 9, 253, 256, 3.0, np.int64(3), True):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_field_is_one_instance_per_p():
    m = FpMatrix(5, [[1, 2]])
    assert PrimeField(5) is m.field is m.rref()[0].field
    assert copy.deepcopy(m.field) is pickle.loads(pickle.dumps(m)).field is m.field


def test_field_inverse_table():
    f = PrimeField(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


# rank of [[1,2],[2,4]] over F_5: second row is twice the first
def test_rank_dependent_rows():
    m = FpMatrix(5, [[1, 2], [2, 4]])
    assert m.rank() == 1
    assert m.nullity() == 1


# over F_2, [[1,1]] has kernel spanned by (1,1)
def test_kernel_mod_two():
    m = FpMatrix(2, [[1, 1]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    assert list(basis[0]) == [1, 1]


# cokernel of the column (1,2) in F_3^2 is one-dimensional
def test_cokernel_single_column():
    m = FpMatrix(3, [[1], [2]])
    assert m.cokernel_dim() == 1


def test_solve_upper_triangular():
    m = FpMatrix(5, [[1, 1], [0, 1]])
    x = m.solve(np.array([0, 1]))
    assert x is not None
    assert list(m.apply(x)) == [0, 1]
    # (0,1) = -1*col0 + 1*col1 = (4,1) scaling over F_5
    assert list(x) == [4, 1]


def test_solve_reports_inconsistent_system():
    m = FpMatrix(2, [[1, 1], [1, 1]])
    assert m.solve(np.array([1, 0])) is None


def test_rref_pivots_deterministic():
    m = FpMatrix(7, [[2, 4, 1], [1, 2, 3]])
    r, pivots = m.rref()
    assert pivots == [0, 2]
    assert r.array[0, 0] == 1 and r.array[1, 2] == 1
    assert r.rank() == 2


def test_matmul_and_identity():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    i = FpMatrix.identity(5, 2)
    assert (a @ i) == a
    assert (i @ a) == a


def test_constructor_reduces_entries():
    m = FpMatrix(3, [[4, -1], [6, 5]])
    n = FpMatrix(3, [[1, 2], [0, 2]])
    assert m == n


def test_from_columns_and_column_roundtrip():
    cols = [np.array([1, 2, 0]), np.array([0, 1, 1])]
    m = FpMatrix.from_columns(3, cols, 3)
    assert m.rows == 3 and m.cols == 2
    assert list(m.column(1)) == [0, 1, 1]


def test_from_columns_empty():
    m = FpMatrix.from_columns(5, [], 4)
    assert m.rows == 4 and m.cols == 0
    assert m.rank() == 0


def test_hstack_and_contains_columns():
    a = FpMatrix(5, [[1, 0], [0, 1], [0, 0]])
    b = FpMatrix(5, [[1], [4], [0]])
    assert a.contains_columns(b)
    c = FpMatrix(5, [[0], [0], [1]])
    assert not a.contains_columns(c)
    assert a.hstack(c).rank() == 3
    # another field or row count raises, with identity rows or without
    for m in (a, FpMatrix(5, a.array, [0, 1])):
        assert m.contains_columns(b) and not m.contains_columns(c)
        for other in (FpMatrix(7, b.array), FpMatrix(5, [[1], [4]])):
            with pytest.raises(ValueError):
                m.contains_columns(other)


def test_same_column_space():
    a = FpMatrix(7, [[1, 0], [0, 1], [1, 1]])
    b = FpMatrix(7, [[2, 1], [1, 1], [3, 2]])  # same plane, different basis
    assert a.same_column_space(b)
    c = FpMatrix(7, [[1], [0], [0]])
    assert not a.same_column_space(c)


def test_kernel_vectors_annihilated():
    m = FpMatrix(5, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for v in m.kernel_basis():
        assert not any(m.apply(v))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rank_nullity_property(p, rows, cols, data):
    entries = [
        [data.draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)
    ]
    m = FpMatrix(p, entries)
    assert m.rank() + m.nullity() == cols
    assert m.cokernel_dim() == rows - m.rank()
    assert m.rank() == FpMatrix(p, m.array.T).rank()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 3),
    st.data(),
)
def test_solve_consistency_property(p, rows, cols, k, data):
    # a solve with a rows x k matrix of right-hand sides equals k one-column
    # solves when every column is consistent, and is None when any is not
    def draw(r, c):
        cells = [data.draw(st.integers(0, p - 1)) for _ in range(r * c)]
        return np.array(cells, dtype=np.int64).reshape(r, c)

    m = FpMatrix(p, draw(rows, cols))
    b = m.apply(draw(cols, k))
    sol = m.solve(b)
    assert sol is not None and sol.shape == (cols, k)
    assert np.array_equal(m.apply(sol), b)
    for t in range(k):
        assert np.array_equal(m.solve(b[:, t]), sol[:, t])

    outside = [e for e in np.eye(rows, dtype=np.int64) if m.solve(e) is None]
    if outside:
        t = data.draw(st.integers(0, k))
        assert m.solve(np.insert(b, t, outside[0], axis=1)) is None

    with pytest.raises(ValueError):
        m.solve(b[None])
    with pytest.raises(ValueError):
        m.solve(np.zeros((rows + 1, k), dtype=np.int64))


def _rref_reference(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduce a copy of `a` (entries in [0, p)) with vectorised numpy row
    operations, pivoting as FpMatrix.rref does; the reduced array and the
    pivot columns."""
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for k in np.nonzero(a[:, c])[0]:
            if k != r:
                a[k] = (a[k] - a[k, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _assert_matches_reference(a, p):
    m = FpMatrix(p, a)
    red, pivots = m.rref()
    expected, expected_pivots = _rref_reference(a, p)
    assert red.array.dtype == np.int64
    assert red.array.shape == a.shape
    assert np.array_equal(red.array, expected)
    assert pivots == expected_pivots
    assert np.array_equal(m.array, a)  # rref leaves its input alone
    assert m.rank() == len(pivots)
    for v in m.kernel_basis():
        assert not any(m.apply(v))


def _random_matrix(p, rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return a.astype(np.int64)


# rref gives the reference elimination's reduced array and pivots on every
# input, from 0 x k and k x 0 up
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 251]),
    st.integers(0, 40),
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_list_and_numpy_rref_agree(p, rows, cols, density, seed):
    _assert_matches_reference(_random_matrix(p, rows, cols, density, seed), p)


# the largest shapes the CLI reduces (verify generators -n 6) and one past them
@pytest.mark.parametrize("p", [2, 3, 251])
@pytest.mark.parametrize("rows, cols", [(105, 70), (84, 105), (126, 105), (150, 150)])
def test_rref_matches_reference_at_large_shapes(p, rows, cols):
    for density in (0.1, 1.0):
        _assert_matches_reference(_random_matrix(p, rows, cols, density, rows * cols + p), p)


# the rank of a selection (at most one nonzero entry in every row and
# column), such as phi on a filtration step's graded summand, is its number
# of nonzero entries
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 251]),
    st.integers(33, 60),
    st.integers(33, 60),
    st.integers(0, 2**32 - 1),
)
def test_rank_of_selection_counts_like_rref(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((rows, cols), dtype=np.int64)
    k = int(rng.integers(0, min(rows, cols) + 1))
    a[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = rng.integers(1, p, size=k)
    m = FpMatrix(p, a)
    assert m.rank() == len(m.rref()[1]) == k


def test_rank_of_near_selection_still_eliminates():
    # the identity with an entry added and a column repeated is no
    # selection: counting its n + 2 entries would be wrong
    p, n = 3, 40
    a = np.eye(n, dtype=np.int64)
    a[0, 1] = 1
    a[:, 2] = a[:, 1]
    m = FpMatrix(p, a)
    assert int(np.count_nonzero(m.array)) == n + 2
    assert m.rank() == len(m.rref()[1]) == n - 1


def _solve_by_rref(m: FpMatrix, b: np.ndarray):
    """The eliminating solve: one rref of [M | b], as FpMatrix.solve reduces
    a matrix without identity rows."""
    rhs = b if b.ndim == 2 else b[:, None]
    red, pivots = FpMatrix(m.p, np.hstack([m.array, rhs])).rref()
    if pivots and pivots[-1] >= m.cols:
        return None
    x = np.zeros((m.cols, rhs.shape[1]), dtype=np.int64)
    x[pivots] = red.array[: len(pivots), m.cols :]
    return x.reshape((m.cols,) + b.shape[1:])


def _same_solution(x, y) -> bool:
    return (x is None) == (y is None) and (x is None or np.array_equal(x, y))


# a kernel matrix records its free rows as identity rows; read through them,
# and on empty shapes, rank, solve and containment agree with elimination,
# for right-hand sides inside and outside the span
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 251]),
    st.integers(0, 12),
    st.integers(0, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_identity_rows_and_empty_shapes_agree_with_elimination(p, rows, cols, density, seed):
    m = FpMatrix(p, _random_matrix(p, rows, cols, density, seed))
    assert m.identity_rows is None
    km = m.kernel_matrix()
    assert km == FpMatrix.from_columns(p, m.kernel_basis(), cols)
    assert km.rows == cols and km.cols == cols - len(m.rref()[1])
    if km.cols:
        assert np.array_equal(km.array[km.identity_rows], np.eye(km.cols, dtype=np.int64))

    rng = np.random.default_rng(seed)
    for a in (m, km):
        plain = FpMatrix(p, a.array)
        assert a.rank() == plain.rank() == len(plain.rref()[1])
        assert a.column_space_pivots() == plain.rref()[1]
        assert len(a.kernel_basis()) == a.cols - a.rank()
        inside = a.apply(rng.integers(0, p, size=(a.cols, 3)))
        outside = [e for e in np.eye(a.rows, dtype=np.int64) if _solve_by_rref(plain, e) is None]
        rhs = [inside, inside[:, 0], inside[:, :0]]
        if outside:
            rhs += [outside[0], np.column_stack([inside, outside[0]])]
        for b in rhs:
            x = a.solve(b)
            assert _same_solution(x, _solve_by_rref(plain, b))
            cols_b = FpMatrix(p, b if b.ndim == 2 else b[:, None])
            assert a.contains_columns(cols_b) == (x is not None)
        assert a.solve(inside) is not None and all(a.solve(e) is None for e in outside)


def test_wrong_identity_rows_raise():
    km = FpMatrix(3, [[1, 1, 0], [0, 1, 1]]).kernel_matrix()  # the column (1, 2, 1)
    assert km.identity_rows == [2] and km.rank() == 1
    assert FpMatrix(3, km.array, [0]).rank() == 1  # any row that reads 1 will do
    for bad in ([1], [2, 0], []):
        with pytest.raises(ValueError):
            FpMatrix(3, km.array, bad)
    ident = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError):
        FpMatrix(5, ident, [1, 0, 2])  # a permutation is not the identity at rows
    assert FpMatrix(5, ident, [0, 1, 2]).rank() == 3


def _kernel_reference(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The kernel basis as the columns of a cols x nullity array, read off
    `_rref_reference`: one vector per free column f, 1 at f, minus column f
    of the reduced array at the pivot columns; and the free columns."""
    cols = a.shape[1]
    red, pivots = _rref_reference(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        basis[pivots, k] = -red[: len(pivots), f] % p
    return basis, free


def _solve_reference(a: np.ndarray, b: np.ndarray, p: int):
    """x with a x = b read off `_rref_reference` of [a | b], or None."""
    rhs = b if b.ndim == 2 else b[:, None]
    red, pivots = _rref_reference(np.hstack([a, rhs]), p)
    cols = a.shape[1]
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    x[pivots] = red[: len(pivots), cols:]
    return x.reshape((cols,) + b.shape[1:])


def _same_array(x, y) -> bool:
    return x.dtype == y.dtype == np.int64 and x.shape == y.shape and np.array_equal(x, y)


def _with_identity_rows(p, rows, cols, density, seed):
    """A random rows x cols matrix (rows >= cols) that is the identity at
    cols random rows, and those rows."""
    a = _random_matrix(p, rows, cols, density, seed)
    at = np.random.default_rng(seed).permutation(rows)[:cols].tolist()
    a[at] = np.eye(cols, dtype=np.int64)
    return a, at


# every rank, kernel, solve and containment test gives, bit for bit, what
# the numpy reference elimination gives, on plain matrices, on matrices
# with identity rows (written or a kernel matrix) and on empty shapes
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 251]),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_operations_match_reference_elimination(p, rows, cols, k, density, seed):
    plain = FpMatrix(p, _random_matrix(p, rows, cols, density, seed))
    written, at = _with_identity_rows(p, max(rows, cols), cols, density, seed)
    matrices = [plain, FpMatrix(p, written, at), plain.kernel_matrix()]
    rng = np.random.default_rng(seed)
    for m in matrices:
        a = m.array
        basis, free = _kernel_reference(a, p)
        pivots = _rref_reference(a, p)[1]
        assert m.rank() == len(pivots) and m.column_space_pivots() == pivots
        got = m.kernel_basis()
        assert len(got) == len(free)
        assert all(_same_array(v, basis[:, t]) for t, v in enumerate(got))
        km = m.kernel_matrix()
        assert _same_array(km.array, basis)
        assert km.identity_rows == (free or None)

        inside = m.apply(rng.integers(0, p, size=(m.cols, k)))
        anything = rng.integers(0, p, size=(m.rows, k))
        for b in (inside, anything, anything[:, :1]):
            for rhs in (b, b[:, 0]) if b.shape[1] else (b,):
                want = _solve_reference(a, rhs, p)
                x = m.solve(rhs)
                assert (x is None) == (want is None) and (x is None or _same_array(x, want))
            other = FpMatrix(p, b)
            contains = _solve_reference(a, other.array, p) is not None
            assert m.contains_columns(other) == contains
            back = _solve_reference(other.array, a, p) is not None
            assert m.same_column_space(other) == (contains and back)


def test_each_operation_reduces_once(monkeypatch):
    # a nonempty matrix without identity rows: every operation goes through
    # FpMatrix.rref, once; a solve reduces [M | b], and same_column_space is
    # two containment tests
    m = FpMatrix(3, [[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 1, 2]])
    b = m.apply(np.array([[1, 0], [2, 1], [0, 1], [1, 1]]))
    calls = count_rref(monkeypatch)
    ops = {
        "rank": m.rank,
        "column_space_pivots": m.column_space_pivots,
        "kernel_basis": m.kernel_basis,
        "kernel_matrix": m.kernel_matrix,
        "solve vector": lambda: m.solve(b[:, 0]),
        "solve matrix": lambda: m.solve(b),
        "contains_columns": lambda: m.contains_columns(FpMatrix(3, b)),
    }
    for name, op in ops.items():
        calls.clear()
        op()
        assert len(calls) == 1, name
    assert calls == [(3, 6)]
    calls.clear()
    assert m.same_column_space(FpMatrix(3, m.array[:, ::-1]))
    assert calls == [(3, 8), (3, 8)]


def test_identity_row_check_raises_on_any_wrong_block():
    a, at = _with_identity_rows(5, 6, 3, 1.0, 7)
    assert FpMatrix(5, a, at).rank() == 3
    off = a.copy()
    off[at[0], 1] = 4  # an entry off the diagonal
    diag = a.copy()
    diag[at[2], 2] = 2  # a diagonal entry other than 1
    for bad, rows in ((off, at), (diag, at), (a, at[:2]), (a, at + [at[0]])):
        with pytest.raises(ValueError):
            FpMatrix(5, bad, rows)
