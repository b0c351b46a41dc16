"""The validity-key table of Omega^j(log(E + Dbar)) on Bl_Z(A^m): the
weights on which the valid dlog forms of every chart intersection are the
same, so a box that meets every key meets every case of the validity test.

Validity is a threshold test: G is valid on U_Q when the chart exponents
b(w - g_G) are nonnegative off the inverted coordinates, and b is linear,
so this is l(w) >= l(g_G) for fixed linear forms l.  A weight is classed by
its form values clamped to the range of their thresholds, its key.  Each
form is a coordinate w_i or the head sum s, so the weights of a key form a
region: a box cut by a sum slab, open where a clamped value is an end of
its bounds.

The tests read the table to show coverage: the box of `verify blowup`
meets every key, and the closed form is compared with
`cech.blowup_weight_oracle` at a weight of every key.  The closed form
itself reads no key: it builds one region per orbit of zero patterns.
"""

from itertools import combinations, product
from math import inf
from operator import mul

import numpy as np

from logcartier.cech import BlowupAtlas


def meets(head, sums) -> bool:
    """Whether some heads in their ranges sum into the range sums."""
    return sum(lo for lo, _ in head) <= sums[1] and sum(hi for _, hi in head) >= sums[0]


def cover_of(c: int) -> list:
    """Every chart intersection U_Q of the c-chart cover, in cover order."""
    return [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]


def _thresholds(atlas: BlowupAtlas, j: int, cover) -> tuple:
    """The validity test of the dlog u_G on each U_Q in cover, as linear forms
    and thresholds.

    At weight w the coefficient of dlog u_G on chart q = Q[0] has chart
    exponents b(w - g_G), where g_G is the summed gen_weight of G and b is
    exponents_from_weight; each must be nonnegative off the inverted
    coordinates Q minus {q}.  Returns the distinct forms l over the whole
    cover and the key bounds of each form.  Clamping a form's value into
    its bounds [lowest threshold - 1, highest] keeps every comparison with
    its thresholds."""
    m = atlas.m
    forms: list = []
    tables = []
    for Q in cover:
        chart = atlas.charts[Q[0]]
        images = [chart.exponents_from_weight(e) for e in np.eye(m, dtype=int).tolist()]
        checked = []
        for i in range(m):
            if i not in Q[1:]:
                form = tuple(b[i] for b in images)
                if form not in forms:
                    forms.append(form)
                checked.append(forms.index(form))
        rows = []
        for G in combinations(range(m), j):
            g = [sum(col) for col in zip((0,) * m, *(chart.gen_weight(i) for i in G))]
            rows.append(tuple(_form_value(forms[f], g) for f in checked))
        tables.append((tuple(checked), rows))
    seen: list = [[] for _ in forms]
    for checked, rows in tables:
        for thr in rows:
            for f, t in zip(checked, thr):
                seen[f].append(t)
    bounds = [(min(ts, default=0) - 1, max(ts, default=0)) for ts in seen]
    return forms, bounds


def _form_value(form, w) -> int:
    return sum(map(mul, form, w))


def _key_regions(forms, bounds, c: int):
    """Each validity key with weights, as (key, head, tail, sums): the ranges
    of the head coordinates (i < c), of the tail ones (i >= c, which are
    nonnegative) and of the head sum s, with -inf or inf at an open end.  A
    clamped value v in [lo, hi] has preimage (-inf, lo] at v = lo, [hi, inf)
    at v = hi and {v} in between."""
    m = len(forms[0])
    head_sum = (1,) * c + (0,) * (m - c)
    where = []  # per form: its coordinate, or m for the head sum
    options = []  # per form: (clamped value, range) pairs with a nonempty range
    for form, (lo, hi) in zip(forms, bounds):
        i = m if form == head_sum else form.index(1)
        floor = 0 if c <= i < m else -inf
        where.append(i)
        opts = []
        for v in range(lo, hi + 1):
            rng = (floor if v == lo else max(floor, v), inf if v == hi else v)
            if rng[0] <= rng[1]:
                opts.append((v, rng))
        options.append(opts)
    for choice in product(*options):
        ranges = [None] * (m + 1)
        for i, (_v, rng) in zip(where, choice):
            ranges[i] = rng
        if meets(ranges[:c], ranges[m]):
            yield tuple(v for v, _rng in choice), ranges[:c], ranges[c:m], ranges[m]
