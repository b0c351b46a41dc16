"""The per-weight class walk, the oracle of the class walks of `sequences`.

`sequences.walk_classes` keys one weight per cell of per-coordinate types
(`sequences.type_cells`).  `walk_by_class` keys every weight.  With every
weight its own cell (`per_weight_cells`), a class walk is walk_by_class,
so a row run under `per_weight_walks` is the row as it walks the weights
one by one, and must give the same (passed, dims) as the row by cells.
"""

import importlib
from contextlib import contextmanager
from itertools import product

import pytest

# the modules that walk cells (the package exports a function named
# cartier, so the module is imported by name)
_WALKING = [importlib.import_module(f"logcartier.{name}") for name in ("cartier", "purity", "sequences")]


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
                mp.setattr(module, "walk_classes", per_weight_walk)
            yield

    return per_weight
