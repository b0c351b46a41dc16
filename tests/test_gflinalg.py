"""Exact linear algebra over F_p, checked against hand-worked oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcartier.gflinalg import (
    _LIST_RREF_MAX_ENTRIES,
    FpMatrix,
    PrimeField,
    _rref_lists,
    _rref_numpy,
)


def test_prime_field_accepts_primes():
    for p in (2, 3, 5, 7, 251):
        assert PrimeField(p).p == p


def test_prime_field_rejects_composites_and_large():
    for bad in (0, 1, 4, 6, 9, 253, 256):
        with pytest.raises(ValueError):
            PrimeField(bad)


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


def _assert_same_reduction(a, p):
    red_lists, piv_lists = _rref_lists(a, p)
    red_numpy, piv_numpy = _rref_numpy(a, p)
    assert red_lists.dtype == red_numpy.dtype == np.int64
    assert red_lists.shape == red_numpy.shape == a.shape
    assert np.array_equal(red_lists, red_numpy)
    assert piv_lists == piv_numpy


# the two elimination kernels pivot alike, so they give the same reduced
# array and pivots on every input: shapes from 0 x k and k x 0 up to just
# past the size at which FpMatrix.rref switches from one to the other
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 251]),
    st.integers(0, 40),
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_list_and_numpy_rref_agree(p, rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    _assert_same_reduction(a.astype(np.int64), p)


# FpMatrix.rref takes the list kernel up to the cutoff and numpy past it;
# both sides of the size test give the same reduction as the other kernel
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_rref_either_side_of_cutoff(delta):
    p = 3
    size = _LIST_RREF_MAX_ENTRIES + delta
    # a near-square shape with exactly `size` entries: 31x33, 32x32, 41x25
    cols = next(c for c in range(40, 0, -1) if size % c == 0)
    rng = np.random.default_rng(size)
    a = rng.integers(0, p, size=(size // cols, cols)).astype(np.int64)
    m = FpMatrix(p, a)
    red, pivots = m.rref()
    assert m.array.size == size
    for reduce in (_rref_lists, _rref_numpy):
        expected, expected_pivots = reduce(a, p)
        assert np.array_equal(red.array, expected) and pivots == expected_pivots
    assert np.array_equal(m.array, a)  # rref leaves its input alone
    assert len(pivots) == m.rank()
    for v in m.kernel_basis():
        assert not any(m.apply(v))


# past the cutoff, rank counts the entries of a selection (at most one
# nonzero entry in every row and column) instead of reducing it
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
    assert m.array.size > _LIST_RREF_MAX_ENTRIES
    assert m.rank() == len(m.rref()[1]) == k


def test_rank_of_near_selection_still_eliminates():
    # the identity with an entry added and a column repeated is no
    # selection, so rank reduces it: counting its n + 2 entries would be wrong
    p, n = 3, 40
    a = np.eye(n, dtype=np.int64)
    a[0, 1] = 1
    a[:, 2] = a[:, 1]
    m = FpMatrix(p, a)
    assert int(np.count_nonzero(m.array)) == n + 2
    assert m.rank() == len(m.rref()[1]) == n - 1
