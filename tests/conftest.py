"""Oracles and helpers shared by the tests: the per-weight class walk, a
counter of reductions, and section spaces whose coordinates are solved.

The per-weight class walk is the oracle of the class walks of `sequences`.

Every row walks the cells of per-coordinate types (`sequences.type_cells`).
The Cartier and purity rows check each cell at its first weight; the sign
and residue rows key one weight per cell and check each new key
(`sequences.walk_classes` and `walk_residue_classes`).  `walk_by_class`
keys every weight.  With every weight its own cell (`per_weight_cells`),
a row checks every weight and a class walk is walk_by_class, so a row run
under `per_weight_walks` is the row as it walks the weights one by one, and
must give the same (passed, dims) as the row by cells.

`count_rref` counts the reductions, which all go through `FpMatrix.rref`.

`SliceColumns` compares what two weights of one cell build up to the
diagonal scaling D_u of the `sequences` "Class walks" paragraph: a cell
type reads whether p divides w_k, not w_k mod p, so the weights of one
cell build the same dims and verdicts, and bases that D_u carries onto
each other.

`SolvedSpace` is a section space on any basis of independent columns, its
coordinates found by elimination: the oracle of the row reading of
`sequences.SectionSpace`, and the space of a span with no closed basis.
"""

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np
import pytest

import logcartier.sequences as sequences
from logcartier.gflinalg import FpMatrix

# the modules that walk cells (the package exports a function named
# cartier, so the module is imported by name)
_WALKING = [importlib.import_module(f"logcartier.{name}") for name in ("cartier", "purity", "sequences")]


def count_rref(monkeypatch):
    """A list that gets the shape of each matrix `FpMatrix.rref` reduces."""
    calls = []
    rref = FpMatrix.rref

    def counted(self):
        calls.append(self.array.shape)
        return rref(self)

    monkeypatch.setattr(FpMatrix, "rref", counted)
    return calls


def scaling(p, gens, u):
    """The diagonal of D_u on a slice with generator sets `gens`, in basis
    order: prod_{k in I} u_k at T^w dlog T_I."""
    return np.array([prod(u[k] for k in gens_i) % p for gens_i in gens], dtype=np.int64)


def _columns_up_to_units(p, array):
    """`array` with each nonzero column divided by its last nonzero entry."""
    out = np.array(array, dtype=np.int64) % p
    for k in range(out.shape[1]):
        nonzero = np.flatnonzero(out[:, k])
        if nonzero.size:
            out[:, k] = out[:, k] * pow(int(out[nonzero[-1], k]), -1, p) % p
    return out


@dataclass(eq=False)
class SliceColumns:
    """Columns in the basis of the slice at `weight` with generator sets
    `gens`.  Equal to another when the generator sets and shapes agree, p
    divides the same coordinates of both weights, and D_u carries each
    column onto a unit multiple of the other's same column, with u the
    units that carry weight onto the other's (v_k = u_k w_k mod p, and
    u_k = 1 where p divides w_k).  The unit is the basis normalization: a
    kernel basis is 1 at its own free column, and B is read off the columns
    of d, so D_u scales each of their vectors."""

    p: int
    weight: tuple
    gens: tuple
    array: np.ndarray

    @classmethod
    def of(cls, s, array):
        """The columns `array` in the basis of the slice `s`."""
        return cls(s.ring.p, tuple(s.weight), tuple(s.gens), np.asarray(array))

    def __eq__(self, other):
        if not isinstance(other, SliceColumns) or (self.gens, self.array.shape) != (other.gens, other.array.shape):
            return False
        p = self.p
        pairs = list(zip(self.weight, other.weight))
        if any((x % p == 0) != (y % p == 0) for x, y in pairs):
            return False
        u = [y * pow(x, -1, p) % p if x % p else 1 for x, y in pairs]
        carried = scaling(p, self.gens, u)[:, None] * self.array
        return np.array_equal(_columns_up_to_units(p, carried), _columns_up_to_units(p, other.array))

    def __repr__(self):
        return f"SliceColumns(w={self.weight}, {self.array.tolist()})"


def closed_columns(cx):
    """A complex of closed slices (`sequences.closed_residue_complex`) as
    the tests compare it across a cell: its dims, each node's closed basis
    and the image of each map's basis in slice coordinates, as
    SliceColumns (a node with no slice as None)."""
    p = cx.p
    bases = [None if s is None else SliceColumns.of(s, z.array) for s, z in cx.spaces]
    images = [
        (m.array.shape, None if s is None else SliceColumns.of(s, z.array @ m.array % p))
        for (s, z), m in zip(cx.spaces[1:], cx.maps)
    ]
    return tuple(cx.dims), bases, images


def walk_by_class(weights, key, check):
    """Walk `weights` in order and yield (w, verdict) for each, checking
    each slice class once.

    key(w) is computed at every weight.  check(w) is called only at the
    first weight of each class, and its verdict is kept for the rest of the
    walk and yielded for every weight of the class.  So a row counts every
    weight, and when it stops at the first failing weight, that weight is
    the first of its class, and check(w) made its message there.  A class
    whose build raises raises in its check, at the first weight of the
    class; the walk ends there."""
    verdicts = {}
    for w in weights:
        k = key(w)
        if k not in verdicts:
            verdicts[k] = check(w)
        yield w, verdicts[k]


def per_weight_cells(values, kind, total=None):
    """`sequences.type_cells` with every weight its own cell: the weights
    of the box (summing to total, if given) in lex order, each of count 1.
    `kind` is not read."""
    for w in product(*values):
        if total is None or sum(w) == total:
            yield w, 1, tuple((x,) for x in w)


def per_weight_walk(cells, key, check):
    """`sequences.walk_classes` through walk_by_class, for cells of one
    weight each: it keys every weight."""
    cells = list(cells)
    walk = walk_by_class([cell[0] for cell in cells], key, check)
    return ((cell, verdict) for cell, (_point, verdict) in zip(cells, walk))


@pytest.fixture
def per_weight_walks(monkeypatch):
    """A context in which every row walks the weights one by one."""

    @contextmanager
    def per_weight():
        with monkeypatch.context() as mp:
            for module in _WALKING:
                mp.setattr(module, "type_cells", per_weight_cells)
            mp.setattr(sequences, "walk_classes", per_weight_walk)
            yield

    return per_weight


class SolvedSpace:
    """A subspace of one ambient weight slice with a basis of independent
    columns, whose coordinates are solved by elimination: the basis is
    rebuilt through the general constructor, which records no identity
    rows.  It serves a CechComplex as `sequences.SectionSpace` does."""

    def __init__(self, ambient, basis):
        self.ambient = ambient
        self.basis = FpMatrix(basis.p, basis.array)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def coords_of_vector(self, v):
        x = self.basis.solve(v)
        if x is None:
            raise ValueError("vector is not a section of this space")
        return x

    def coords_of_space(self, src):
        return self.coords_of_vector(src.basis.array)

    def coords(self, form):
        return self.coords_of_vector(self.ambient.to_vector(form))
