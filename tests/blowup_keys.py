"""The blowup key engine: the test oracle of the closed form of
`cech.blowup_cohomology`.

It classes each weight by the valid dlog forms on every chart
intersection, tabulated as thresholds of linear forms, and decides each
class off a cone chart (equal valid-set sizes on U_Q and U_{Q+k}, every
inclusion block checked) or, failing one, by building its Cech complex from
the chart transition matrices.

Validity is a threshold test: G is valid on U_Q when the chart exponents
b(w - g_G) are nonnegative off the inverted coordinates, and b is linear,
so this is l(w) >= l(g_G) for fixed linear forms l.  A weight is classed by
its form values clamped to the range of their thresholds, its key.  Each
form is a coordinate w_i or the head sum s, so the weights of a key form a
region: a box cut by a sum slab, open where a clamped value is an end of
its bounds.

The inclusion blocks are read off fixed chart-to-chart matrices.  On chart
q, dlog u_i = sum_k M_q[i, k] dlog T_k, with M_q the var_weight rows of the
u_i; M_q has the integer inverse 2I - M_q, and by Cauchy-Binet the j-fold
wedges change chart by T_{a->b} = (Lambda^j(M_a) Lambda^j(2I - M_b))^T mod
p.  The block of V_I -> V_J is T_{I[0] -> J[0]} at the rows valid on U_J
and the columns valid on U_I, and the rows not valid on U_J must vanish on
those columns, since a section restricts to a section.

The dims of a key are computed at the canonical key of its orbit under the
permutations of the head indices 1..c-1 and, separately, of the tail
indices c..m-1, which keep Z, D and so E + Dbar.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, inf, prod
from operator import ge, mul

import numpy as np

from logcartier.cech import (
    BlowupAtlas,
    BlowupSpace,
    CechComplex,
    SheafSpec,
    _meets,
    _region_report,
    _start_radius,
    blowup_charts,
)


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
    cover, the key bounds of each form and, per Q, the form indices it
    checks with one threshold row per j-subset G, in combinations(range(m),
    j) order.  Clamping a form's value into its bounds [lowest threshold -
    1, highest] keeps every comparison with its thresholds."""
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
    return forms, bounds, tables


def _form_value(form, w) -> int:
    return sum(map(mul, form, w))


def _symmetric_positions(forms, c: int) -> tuple:
    """The positions, among the forms of _thresholds, of the coordinates
    w_1..w_{c-1} and of w_c..w_{m-1}: the two blocks that the symmetry group
    S_{c-1} x S_{m-c} permutes."""
    m = len(forms[0])
    where = [forms.index(tuple(int(k == i) for k in range(m))) for i in range(m)]
    return tuple(where[1:c]), tuple(where[c:])


def _canonical_key(key, blocks) -> tuple:
    """The representative of key's orbit: its values at each block of
    positions sorted, the others kept."""
    out = list(key)
    for block in blocks:
        for f, v in zip(block, sorted(key[f] for f in block)):
            out[f] = v
    return tuple(out)


def _valid_dlogs(table, values) -> tuple:
    """The indices of the j-subsets G that pass one intersection's threshold
    rows, given the values of the forms of _thresholds at a weight."""
    checked, rows = table
    v = [values[f] for f in checked]
    return tuple(k for k, thr in enumerate(rows) if all(map(ge, v, thr)))


def _exterior_power(rows, j: int) -> np.ndarray:
    """Lambda^j of the integer matrix with the given rows: entry (G, H) is
    the minor on rows G and columns H, the j-subsets in combinations order.
    Row G is the wedge of the rows at G, expanded one nonzero per row."""
    subsets = list(combinations(range(len(rows)), j))
    index = {H: k for k, H in enumerate(subsets)}
    nonzeros = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    out = np.zeros((len(subsets), len(subsets)), dtype=np.int64)
    for r, G in enumerate(subsets):
        for picks in product(*(nonzeros[g] for g in G)):
            cols = [k for k, _x in picks]
            if len(set(cols)) < j:
                continue
            sign = (-1) ** sum(a > b for a, b in combinations(cols, 2))
            out[r, index[tuple(sorted(cols))]] += sign * prod(x for _k, x in picks)
    return out


def _chart_transitions(p: int, atlas: BlowupAtlas, j: int) -> list:
    """T[a][b], the C(m, j) x C(m, j) matrix whose column G holds the
    coordinates of chart a's dlog u_G in chart b's dlog u_H:
    (Lambda^j(M_a) Lambda^j(2I - M_b))^T mod p.  Each chart's pair of
    exterior powers is checked to be mutually inverse mod p, so its dlog
    u_G are independent."""
    m = atlas.m
    wedges, inverses = [], []
    for chart in atlas.charts:
        rows = [chart.var_weight(i) for i in range(m)]
        inverse = [[2 * (i == k) - x for k, x in enumerate(row)] for i, row in enumerate(rows)]
        wedges.append(_exterior_power(rows, j))
        inverses.append(_exterior_power(inverse, j))
    eye = np.eye(comb(m, j), dtype=np.int64)
    if any(np.any((wq @ vq - eye) % p) for wq, vq in zip(wedges, inverses)):
        raise AssertionError("blowup chart sections are not independent")
    return [[(wa @ vb).T % p for vb in inverses] for wa in wedges]


@dataclass(frozen=True, eq=False)
class _DlogSpan:
    """The section space of a class complex on one intersection U_Q: the
    span of chart Q[0]'s valid dlog u_G, given by their indices."""

    chart: int
    valid: np.ndarray
    transitions: list

    @property
    def dim(self) -> int:
        return len(self.valid)

    def coords_of_space(self, src: "_DlogSpan") -> np.ndarray:
        """The inclusion block src -> self: T[src.chart][self.chart] at the
        rows self.valid and the columns src.valid.  The rows outside
        self.valid must vanish on those columns."""
        block = self.transitions[src.chart][self.chart][:, src.valid]
        rows = block[self.valid]
        if np.count_nonzero(rows) != np.count_nonzero(block):
            raise AssertionError("blowup inclusion leaves the valid dlog span of its target")
        return rows


def dlog_spans(cover, transitions, signature) -> dict:
    """The _DlogSpan of each U_Q of cover, from a signature."""
    return {
        Q: _DlogSpan(Q[0], np.array(valid, dtype=np.intp), transitions)
        for Q, valid in zip(cover, signature)
    }


def _class_dims(p: int, cover, transitions, signature) -> tuple:
    """Cech cohomology dims of one validity class.  The first cone chart k,
    one with as many valid dlogs on U_Q as on U_{Q+k} for every Q without k,
    decides the class: each of those inclusions is checked, and the dims
    are (dim V_{k}, 0, .., 0).  A class with no cone chart builds its
    complex."""
    spans = dlog_spans(cover, transitions, signature)
    c = len(transitions)
    for k in range(c):
        pairs = [(spans[Q], spans[tuple(sorted(Q + (k,)))]) for Q in cover if k not in Q]
        if all(src.dim == dst.dim for src, dst in pairs):
            for src, dst in pairs:
                dst.coords_of_space(src)
            return (spans[(k,)].dim,) + (0,) * (c - 1)
    return tuple(CechComplex(p, range(c), spans.__getitem__).homology_dims())


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
        if _meets(ranges[:c], ranges[m]):
            yield tuple(v for v, _rng in choice), ranges[:c], ranges[c:m], ranges[m]


def blowup_cohomology(m: int, c: int, j: int, p: int, box_radius: int | None = None):
    """The report of `cech.blowup_cohomology` from the key engine: one
    region per validity key, its dims computed once per orbit of classes."""
    spec = SheafSpec(p=p, space=BlowupSpace(m=m, c=c), j=j)
    radius = _start_radius(spec, box_radius)
    atlas = blowup_charts(m, c)
    cover = cover_of(c)
    forms, bounds, tables = _thresholds(atlas, j, cover)
    transitions = _chart_transitions(p, atlas, j)
    blocks = _symmetric_positions(forms, c)
    classes: dict = {}  # signature -> homology dims
    by_key: dict = {}  # canonical clamped form values -> homology dims
    regions = []
    for key, *ranges in _key_regions(forms, bounds, c):
        key = _canonical_key(key, blocks)
        if key not in by_key:
            signature = tuple(_valid_dlogs(t, key) for t in tables)
            if signature not in classes:
                classes[signature] = _class_dims(p, cover, transitions, signature)
            by_key[key] = classes[signature]
        regions.append((by_key[key], *ranges))
    return _region_report(spec, radius, regions)
