"""Exact linear algebra over prime fields F_p.

Everything downstream (weight slices, Cech differentials, Cartier solves)
reduces to the primitives here: rank, kernel basis, linear solve, column-space
basis.  A solve takes a vector or a matrix of right-hand sides, in one
elimination.  Matrices are dense numpy int64 arrays with entries kept as
canonical residues in [0, p).  p is capped at 251 so every scalar fits in a
byte.  The CLI accepts every prime up to that cap, though some suites stop
on a cost cap at the larger ones.

Row reduction runs on Python int rows, where numpy's per-call overhead
costs more than the arithmetic at the sizes the checks reach.  Each
operation converts its matrix once.  `rref` reads the rows off the array
(`tolist`), reduces them in place (`_reduce`) and returns a matrix that
keeps the reduced rows; it builds its numpy array only when `.array` is
first read.  A rank and a column-space basis read only the pivots.  A
kernel reads the reduced rows and builds one array for its basis.  A solve
builds [M | b] row by row from M's rows and b's, reads x off the reduced
rows and builds one array for it.  Callers outside this module see arrays
only.  No benchmark workload reduces a matrix of more than 1,024 entries
(the filtration suite's phi, the only larger ones, are read off their
identity rows, as below), and the largest matrix any admitted CLI input
reduces is 126x105 (`verify generators -n 6`).  There `rref`, with its
array read back, took 0.8-1.1x the time of vectorised numpy row operations
on random matrices over F_2 and F_3 of density 0.1 and 1 (best of 15
interleaved runs; CPython 3.11, numpy 2.4, 2 shared vCPUs).  The pivot
is the first nonzero entry, scanning columns left to right and rows top
to bottom, so echelon forms and kernel bases are bit-reproducible across
runs.  Golden-file tests rely on this.

Two kinds of matrix are answered without a reduction:

- A matrix with no rows or no columns.  It is its own reduced echelon
  form, with no pivot column, so `_echelon` gives no pivots and no rows
  wherever a rank, kernel, column-space basis or solve would reduce it:
  its rank is 0, its kernel is every column's unit vector, and [M | b]
  for M with no rows is empty too, solved by x = 0.  For M with no
  columns [M | b] is b, reduced like any other matrix.
- A matrix that records its identity rows: rows r_0..r_{k-1}, one per
  column, with M[r_i, c] = [i == c].  Only code that writes that block
  itself records the rows: `kernel_matrix`, whose column for free column
  f is 1 at f and 0 at every other free column; the section spaces of the
  sequences module, each of whose basis vectors is the only one nonzero
  at its own slice vector; and a filtration step's phi, which sends its
  s-th column to the s-th of distinct positions.  The constructor checks
  the block once, comparing its rows as lists with a cached identity, and
  raises if it is not the identity.  The block makes
  the columns independent, so the rank is the number of columns, and
  M x = b has at most one solution, whose entries are b at the identity
  rows: x_i = (M x)[r_i] = b[r_i].  One product M x = b then decides
  whether b lies in the span, and the x read off is the one a reduction
  would return, as a unique solution has no other.

Every other rank, kernel and solve reduces through `FpMatrix.rref`, once,
and so does a containment test, which is a solve.  `FpMatrix.identity` and
the general constructors record no identity rows.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p, 2 <= p <= 251.  Elements are canonical residues.  There
    is one instance per p: `PrimeField(p)` checks p the first time and
    returns that instance after."""

    _of_p: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        field = cls._of_p.get(p) if type(p) is int else None
        if field is None:
            if type(p) is not int or p > 251 or not is_prime(p):
                raise ValueError(f"p must be a prime <= 251, got {p!r}")
            field = cls._of_p[p] = super().__new__(cls)
            field.p = p
        return field

    def __getnewargs__(self) -> tuple[int]:
        return (self.p,)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FpMatrix:
    """Dense matrix over F_p.  Immutable by convention: operations return new
    matrices and never mutate `array` in place after construction.  `p`,
    `rows` and `cols` are fixed at construction; `identity_rows` is None or
    the rows where the matrix is the identity (module docstring).  The
    reduced matrix `rref` returns keeps its Python int rows and builds
    `array` from them when it is first read."""

    _lines: list[list[int]] | None = None

    def __init__(self, p: int, entries, identity_rows=None):
        field = p if isinstance(p, PrimeField) else PrimeField(p)
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        self._init(field, a % field.p, identity_rows)

    @classmethod
    def _of_residues(cls, field, array: np.ndarray, identity_rows=None) -> "FpMatrix":
        """Wrap an int64 array already in [0, p); `field` is a PrimeField or p."""
        m = cls.__new__(cls)
        m._init(field if isinstance(field, PrimeField) else PrimeField(field), array, identity_rows)
        return m

    @classmethod
    def _of_lines(cls, field: PrimeField, lines: list[list[int]], cols: int) -> "FpMatrix":
        """Wrap Python int rows already in [0, p), each of length `cols`;
        `array` is built from them when it is first read."""
        m = cls.__new__(cls)
        m.field = field
        m.p = field.p
        m.rows = len(lines)
        m.cols = cols
        m.identity_rows = None
        m._lines = lines
        return m

    def _init(self, field: PrimeField, array: np.ndarray, identity_rows) -> None:
        self.field = field
        self.p = field.p
        self.array = array
        self.rows, self.cols = array.shape
        if identity_rows is not None:
            identity_rows = list(identity_rows)
            block = array.take(identity_rows, axis=0).tolist()
            if len(identity_rows) != self.cols or block != _identity_lines(self.cols):
                raise ValueError("matrix is not the identity at the given rows")
        self.identity_rows = identity_rows

    @cached_property
    def array(self) -> np.ndarray:
        # read only on a matrix made by `_of_lines`: `_init` sets `array`
        return np.array(self._lines, dtype=np.int64).reshape(self.rows, self.cols)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls._of_residues(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls._of_residues(p, np.eye(n, dtype=np.int64))

    @classmethod
    def from_columns(cls, p: int, columns, nrows: int) -> "FpMatrix":
        """Stack vectors as columns; `columns` may be empty (gives nrows x 0)."""
        cols = list(columns)
        if not cols:
            return cls.zeros(p, nrows, 0)
        a = np.stack([np.asarray(c, dtype=np.int64) for c in cols], axis=1)
        if a.shape[0] != nrows:
            raise ValueError(f"column length {a.shape[0]} != nrows {nrows}")
        return cls(p, a)

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j].copy()

    def hstack(self, other: "FpMatrix") -> "FpMatrix":
        if other.p != self.p or other.rows != self.rows:
            raise ValueError("hstack shape/field mismatch")
        return FpMatrix._of_residues(self.field, np.hstack([self.array, other.array]))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if other.p != self.p or self.cols != other.rows:
            raise ValueError("matmul shape/field mismatch")
        return FpMatrix._of_residues(self.field, np.dot(self.array, other.array) % self.p)

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        return (self.array @ v) % self.p

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and other.p == self.p
            and other.array.shape == self.array.shape
            and bool(np.array_equal(other.array, self.array))
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["FpMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        if self._lines is None:
            lines = self.array.tolist()
        else:
            lines = [line[:] for line in self._lines]
        pivots = _reduce(lines, self.cols, self.p)
        return FpMatrix._of_lines(self.field, lines, self.cols), pivots

    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """The reduced rows and pivot columns of `rref()`, except that a
        matrix with no rows or no columns, its own echelon form with no
        pivots, is not reduced and gives no rows: callers read only the
        first len(pivots) of them."""
        if not (self.rows and self.cols):
            return [], []
        red, pivots = self.rref()
        return red._lines, pivots

    def rank(self) -> int:
        if self.identity_rows is not None:
            return self.cols
        return len(self._echelon()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def cokernel_dim(self) -> int:
        return self.rows - self.rank()

    def _kernel(self) -> tuple[list[list[int]], list[int]]:
        """The kernel basis as the columns of a cols x nullity list of rows,
        and the free columns, where those rows are the identity."""
        lines, pivots = self._echelon()
        p = self.p
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = [[0] * len(free) for _ in range(self.cols)]
        for k, f in enumerate(free):
            basis[f][k] = 1
        for c, row in zip(pivots, lines):
            basis[c] = [-row[f] % p for f in free]
        return basis, free

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of ker(M), deterministic; len == cols - rank."""
        basis, free = self._kernel()
        return list(np.array(basis, dtype=np.int64).reshape(self.cols, len(free)).T.copy())

    def kernel_matrix(self) -> "FpMatrix":
        """`from_columns(self.kernel_basis(), self.cols)`, with its identity
        rows, the free columns, recorded."""
        basis, free = self._kernel()
        if not free:
            return FpMatrix.zeros(self.p, self.cols, 0)
        return FpMatrix(self.field, basis, free)

    def solve(self, b) -> np.ndarray | None:
        """Some x with M x = b, or None if any column of b is outside the
        column space.  b is a vector of length rows or a rows x k matrix of
        right-hand sides, and x has the shape of b; one rref of [M | b]
        serves every column.  The pivots among M's columns depend on M
        alone and row operations act on every right-hand column alike, so
        each column gets exactly the x a one-column solve would give; a
        pivot in the b block means some column is inconsistent.  An M with
        identity rows or no rows is solved without a reduction (module
        docstring)."""
        b = np.asarray(b, dtype=np.int64) % self.p
        if b.ndim not in (1, 2) or b.shape[0] != self.rows:
            raise ValueError(f"rhs shape {b.shape} does not have {self.rows} rows")
        if self.identity_rows is not None:
            x = b.take(self.identity_rows, axis=0)
            return None if np.count_nonzero((np.dot(self.array, x) - b) % self.p) else x
        rhs = b if b.ndim == 2 else b[:, None]
        aug = [row + r for row, r in zip(self.array.tolist(), rhs.tolist())]
        red, pivots = FpMatrix._of_lines(self.field, aug, self.cols + rhs.shape[1])._echelon()
        if pivots and pivots[-1] >= self.cols:
            return None
        x = [[0] * rhs.shape[1] for _ in range(self.cols)]
        for c, row in zip(pivots, red):
            x[c] = row[self.cols :]
        return np.array(x, dtype=np.int64).reshape((self.cols,) + b.shape[1:])

    def column_space_pivots(self) -> list[int]:
        """Indices of a deterministic subset of columns forming an image basis."""
        return self._echelon()[1]

    def contains_columns(self, other: "FpMatrix") -> bool:
        """True iff every column of `other` lies in the column space of self,
        that is, iff M x = other has a solution."""
        if other.p != self.p or other.rows != self.rows:
            raise ValueError("contains_columns shape/field mismatch")
        return self.solve(other.array) is not None

    def same_column_space(self, other: "FpMatrix") -> bool:
        return self.contains_columns(other) and other.contains_columns(self)


@lru_cache(maxsize=None)
def _identity_lines(n: int) -> list[list[int]]:
    """The n x n identity as Python int rows, shared: read it, never change it."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _reduce(m: list[list[int]], cols: int, p: int) -> list[int]:
    """Reduce the rows `m` (entries in [0, p), `cols` each) in place, on
    Python ints; the pivot columns.  The pivot row is zero left of its pivot
    column c, so a row operation leaves those columns as they are and
    rewrites only columns c onwards."""
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        pivot_row = m[i]
        if i != r:
            m[i] = m[r]
            m[r] = pivot_row
        inv = pow(pivot_row[c], p - 2, p)
        if inv != 1:
            pivot_row[c:] = [x * inv % p for x in pivot_row[c:]]
        tail = None
        for row in m:
            f = row[c]
            if f and row is not pivot_row:
                if tail is None:
                    tail = pivot_row[c:]
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


def homology_dims(dims, maps) -> list[int]:
    """Homology dimensions of a complex with node dims `dims` and maps[k] from
    node k to node k + 1: h_k = dims[k] - rank(maps[k]) - rank(maps[k-1]),
    each map's rank taken once."""
    ranks = [m.rank() for m in maps]
    return [
        d - (ranks[k] if k < len(ranks) else 0) - (ranks[k - 1] if k > 0 else 0)
        for k, d in enumerate(dims)
    ]
