"""A fixed reference computation that measures how fast the machine is right now.

The machine the benchmark runs on is shared, and its speed drifts: the same
item runs 30-40% slower for seconds to minutes at a time while other tenants
are busy, and CPU time drifts with wall time.  A worker therefore runs one
probe chunk before every item and one after the last, and run.py scales each
item's time by the speed the chunks nearest to it measured.

A chunk is the same work every time and does not use logcartier, so a change
to the program cannot change it.  Its parts follow the program's kinds of
work, because a busy neighbour slows them by different amounts (measured
over slow and calm spells on 2 vCPUs: small-array work by up to 1.7x,
random access over a large table by 1.4x, program items by 1.4x; the mean
of the four parts tracked the items best):
  - row reduction over F_p of small and medium numpy matrices (gflinalg),
  - dict and tuple arithmetic on exponent vectors (forms),
  - random lookups in a table of several MB (the program's caches and maps),
  - building, sorting and grouping short-lived tuples (allocation).
NOMINAL_S is what a chunk is defined to take; it is about what one took on
that machine in calm spells, so scaled times read close to seconds there.
"""

from __future__ import annotations

import random
from itertools import product
from time import perf_counter

import numpy as np

NOMINAL_S = 0.008

_rng = random.Random("probe")
_SMALL = [
    (p, np.array([[_rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64))
    for p, n in ((2, 6), (3, 8), (2, 12), (3, 16))
]
_MEDIUM = np.array([[_rng.randrange(3) for _ in range(24)] for _ in range(24)], dtype=np.int64)
_MONOMIALS = list(product(range(3), repeat=3))
_TABLE_SIZE = 50_000
_LOOKUPS = 3_000
_table: dict = {}
_keys: list = []


def _rref_rank(a: np.ndarray, p: int) -> int:
    a = a.copy()
    rows, cols = a.shape
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
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for k in np.nonzero(a[:, c])[0]:
            if k != r:
                a[k] = (a[k] - a[k, c] * a[r]) % p
        r += 1
    return r


def _poly_square(p: int) -> int:
    poly = {m: (sum(m) + 1) % p for m in _MONOMIALS}
    out: dict = {}
    for m1, c1 in poly.items():
        for m2, c2 in poly.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return len(out)


def make_table() -> None:
    """Fill the lookup table; the worker calls this before it takes the
    resident-memory baseline that peak_rss_mb is measured from."""
    rng = random.Random("probe-table")
    while len(_table) < _TABLE_SIZE:
        _table[tuple(rng.randrange(60) for _ in range(4))] = len(_table)
    _keys.extend(_table)
    rng.shuffle(_keys)


def _lookups() -> int:
    rng = random.Random(5)
    total = 0
    for _ in range(_LOOKUPS):
        key = _keys[rng.randrange(_TABLE_SIZE)]
        total += _table[key]
        _table[key] = total & 1023
    return total


def _sort_group() -> int:
    rng = random.Random(9)
    xs = [tuple(rng.randrange(9) for _ in range(5)) for _ in range(400)]
    xs.sort()
    groups: dict = {}
    for x in xs:
        groups.setdefault(x[:3], []).append(x)
    return len(groups)


def chunk() -> float:
    """Run one chunk; returns its seconds.  make_table() must have run."""
    t0 = perf_counter()
    for p, a in _SMALL:
        _rref_rank(a, p)
    _rref_rank(_MEDIUM, 3)
    _poly_square(3)
    _lookups()
    _sort_group()
    return perf_counter() - t0
