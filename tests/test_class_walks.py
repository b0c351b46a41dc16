"""Class walks: cells of per-coordinate types, and the keys they serve."""

from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcartier.cartier import cartier_coordinate_type, cartier_slice_matrix, inverse_cartier_matrix
from logcartier.cech import _region_weights
from logcartier.forms import FormRing, d_matrix, residue_matrix
from logcartier.purity import (
    GysinSetup,
    _nu_purity_coordinate_type,
    cartier,
    closed_iso_compatible,
    eta_decomposition,
    gysin_coordinate_type,
    gysin_residue,
    gysin_residue_closed,
)
from logcartier.sequences import (
    closed_slice_basis,
    residue_class_keys,
    residue_coordinate_type,
    sign_class,
    sign_coordinate_type,
    type_cells,
    walk_classes,
)

from conftest import SliceColumns, closed_columns, scaling, walk_by_class


# -- type_cells ----------------------------------------------------------------


def _cells_by_enumeration(values, kind, total=None):
    """The cells of type_cells, from every weight: (first, count, parts)."""
    cells = {}
    for w in product(*values):
        if total is None or sum(w) == total:
            t = tuple(kind(k, x) for k, x in enumerate(w))
            cells.setdefault(t, []).append(w)
    columns = [{} for _ in values]
    for k, xs in enumerate(values):
        for x in xs:
            columns[k].setdefault(kind(k, x), []).append(x)
    return sorted(
        (ws[0], len(ws), tuple(tuple(columns[k][tk]) for k, tk in enumerate(t)))
        for t, ws in cells.items()
    )


@pytest.mark.parametrize("total", [None, -3, 0, 2])
def test_type_cells_match_enumeration(total):
    values = [range(-2, 3), range(-1, 4), range(0, 3)]
    for kind in (
        lambda k, x: (x > 0) - (x < 0),
        lambda k, x: x if k == 1 else (x > 0) - (x < 0),
        lambda k, x: 0,
    ):
        got = list(type_cells(values, kind, total))
        assert [cell[0] for cell in got] == sorted(cell[0] for cell in got)
        assert got == _cells_by_enumeration(values, kind, total)
        if total is not None:
            for first, count, parts in got:
                ranges = [(part[0], part[-1]) for part in parts]
                assert next(_region_weights(ranges, (), (total, total))) == first
    # no sum: a product set, with residues that are no runs
    values = [range(0, 7), range(-3, 4)]
    kind = lambda k, x: (x % 3, x == 0)  # noqa: E731
    assert list(type_cells(values, kind)) == _cells_by_enumeration(values, kind)


def test_type_cells_cut_by_a_sum_need_runs():
    with pytest.raises(ValueError, match="runs of consecutive values"):
        list(type_cells([range(4), range(4)], lambda k, x: x % 2, 3))


def test_class_walk_checks_each_class_at_its_first_weight():
    # key: the sign pattern's number of positive coordinates, which joins
    # cells; every class is checked once, at its lex-first weight, as the
    # per-weight walk checks it
    values = [range(-1, 2)] * 3
    key = lambda w: sum(x > 0 for x in w)  # noqa: E731
    checked = []
    walk = walk_classes(type_cells(values, lambda k, x: (x > 0) - (x < 0)), key, lambda w: checked.append(w) or key(w))
    cells = list(walk)
    oracle = []
    per_weight = list(walk_by_class(product(*values), key, lambda w: oracle.append(w) or key(w)))
    assert checked == oracle
    assert sum(cell[1] for cell, _v in cells) == len(per_weight)
    counts = {}
    for (_first, count, _parts), verdict in cells:
        counts[verdict] = counts.get(verdict, 0) + count
    assert counts == {v: sum(1 for _w, u in per_weight if u == v) for v in counts}


# -- every key is a function of its type tuple ----------------------------------


def _keys(ring, a, z, chart):
    """(name, coordinate type, key) for every class key, each of which
    merges cells: the sign class on `chart` and, with the log variable z
    (if any), the residue keys in degree a."""
    keys = [("sign", partial(sign_coordinate_type, chart), lambda w: sign_class(w, chart))]
    if z is not None:
        keys.append(
            ("residue", partial(residue_coordinate_type, ring, a, z), lambda w: residue_class_keys(ring, a, z, w))
        )
    return keys


def _spans(ring):
    """Each coordinate's values from two below its window to two above."""
    return [range(lo - 2, hi + 3) for lo, hi in ring.window]


def _small_rings():
    for p in (2, 3):
        for m in (1, 2):
            subsets = [frozenset(s) for k in range(m + 1) for s in combinations(range(m), k)]
            for log, laurent in product(subsets, subsets):
                window = tuple((-2 if k in laurent else 0, 2 * p) for k in range(m))
                yield FormRing(p, m, log=log, laurent=laurent, window=window)


def test_each_key_is_constant_on_its_cells():
    # every weight near the window, grouped by type tuple, for every key
    # and degree of the rings with p in {2, 3} and m <= 2
    for ring in _small_rings():
        z = min(ring.log, default=None)
        for a in range(-1, ring.m + 2):
            for name, kind, key in _keys(ring, a, z, frozenset({0})):
                seen = {}
                for w in product(*_spans(ring)):
                    got = key(w)
                    first, want = seen.setdefault(tuple(kind(k, x) for k, x in enumerate(w)), (w, got))
                    assert got == want, (name, ring, a, z, first, w)


@st.composite
def rings(draw, primes=(2, 3, 5)):
    """A ring with p in `primes`, m <= 3, log and Laurent sets, and a window."""
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(1, 3))
    log = draw(st.sets(st.integers(0, m - 1)))
    laurent = draw(st.sets(st.integers(0, m - 1)))
    window = tuple(
        (-draw(st.integers(0, 3)) if k in laurent else 0, draw(st.integers(0, 2 * p))) for k in range(m)
    )
    return FormRing(p, m, log=log, laurent=laurent, window=window)


@settings(max_examples=150, deadline=None)
@given(ring=rings(), data=st.data())
def test_equal_type_tuples_give_equal_keys(ring, data):
    m = ring.m
    a = data.draw(st.integers(0, m + 1))
    z = data.draw(st.sampled_from(sorted(ring.log))) if ring.log else None
    chart = frozenset(data.draw(st.sets(st.integers(0, m - 1))))
    for name, kind, key in _keys(ring, a, z, chart):
        for _ in range(4):
            # a weight near the window, and one of its type tuple
            w, v = [], []
            for k, span in enumerate(_spans(ring)):
                w.append(data.draw(st.sampled_from(span)))
                v.append(data.draw(st.sampled_from([x for x in span if kind(k, x) == kind(k, w[-1])])))
            assert key(tuple(w)) == key(tuple(v)), (name, w, v)


# -- the unit scaling D_u ---------------------------------------------------------


@st.composite
def carried_weights(draw):
    """(ring, j, w, v, u): a ring with p in {3, 5, 7}, a degree j, a weight
    w near the window, a weight v whose coordinates have the statuses of
    w's and are divisible by p where w's are, and units u with
    v_k = u_k w_k mod p, any unit where p divides w_k.  At a log k, v_k
    also has the sign of w_k, which a residue at k reads (a pole, a
    selection or zero), as the types of the walks that take it do."""
    ring = draw(rings((3, 5, 7)))
    p = ring.p
    j = draw(st.integers(0, ring.m))
    w, v, u = [], [], []
    for k, span in enumerate(_spans(ring)):
        x = draw(st.sampled_from(span))

        def same(y):
            sign = k not in ring.log or (y > 0) - (y < 0) == (x > 0) - (x < 0)
            return sign and ring.status(k, y) == ring.status(k, x) and (y % p == 0) == (x % p == 0)

        y = draw(st.sampled_from([y for y in span if same(y)]))
        w.append(x)
        v.append(y)
        u.append(y * pow(x, -1, p) % p if x % p else draw(st.integers(1, p - 1)))
    return ring, j, tuple(w), tuple(v), tuple(u)


@settings(max_examples=300, deadline=None)
@given(case=carried_weights())
def test_unit_scaling_carries_d_and_residue(case):
    # the argument of the sequences "Class walks" paragraph, map by map:
    # D_u d_w = d_v D_u, and the residue at z scales by u_z (restriction and
    # transport keep I, and C, C^{-1} are read at p | w only)
    ring, j, w, v, u = case
    p = ring.p
    src_w, src_v = ring.slice(j, w), ring.slice(j, v)
    assert src_w.gens == src_v.gens
    d_u = scaling(p, src_w.gens, u)
    d_w, d_v = _outcome(d_matrix, src_w), _outcome(d_matrix, src_v)
    if isinstance(d_w, type):
        assert d_v is d_w
    else:
        (dst, m_w), (_dst, m_v) = d_w, d_v
        assert dst.gens == _dst.gens
        assert np.array_equal(scaling(p, dst.gens, u)[:, None] * m_w.array % p, m_v.array * d_u % p)
    for z in sorted(ring.log):
        r_w, r_v = _outcome(residue_matrix, src_w, z), _outcome(residue_matrix, src_v, z)
        if isinstance(r_w, type):
            assert r_v is r_w
            continue
        (dst, m_w), (_dst, m_v) = r_w, r_v
        assert dst.gens == _dst.gens
        down = scaling(p, dst.gens, u[:z] + u[z + 1 :])
        assert np.array_equal(u[z] * down[:, None] * m_w.array % p, m_v.array * d_u % p)


# -- every per-cell check builds a function of its type tuple --------------------


def _outcome(build, *args):
    """What build(*args) returns, or the type of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # the comparison is of type
        return type(exc)


def _arrays(*matrices):
    return [mat.array.tolist() for mat in matrices]


def _cartier_build(ring, j, w):
    """What the Cartier checks read at w: Z and B of slice (j, w) and the
    matrix of C on it, and at p | w C^{-1} from the source slice.  C and
    C^{-1} are read only at p | w, where D_u is the identity on the cell
    (u_k = 1 at p | w_k), so they are compared entry by entry."""
    zb, src, mat = cartier_slice_matrix(ring, j, w)
    inverse = None if src is None else _arrays(inverse_cartier_matrix(src)[1])
    bases = [SliceColumns.of(zb.slice, basis.array) for basis in (zb.Z_basis, zb.B_basis)]
    return zb.dim_Z, zb.dim_B, bases, _arrays(mat), inverse


def _gysin_build(setup, n, w):
    """What gysin-residue-iso reads at w: both Gysin slices, and the verdict
    of closed_iso_compatible.  The plain slice's maps are selections on
    generator sets, which read no residue, so they are compared entry by
    entry; the closed one's through its bases (`closed_columns`)."""
    plain, closed = (build(setup, n, w) for build in (gysin_residue, gysin_residue_closed))
    parts = [
        (plain.complex.dims, _arrays(*plain.complex.maps), plain.coker_dim, plain.reps),
        (closed_columns(closed.complex), closed.coker_dim, closed.reps),
    ]
    return parts, closed_iso_compatible(setup, n, w)


def _square_build(setup, n, w):
    """What commuting_square reads at w: the closed basis of slice (n + 1, w),
    the divisor's generator sets at w_z = 0, and the verdict at each basis
    form (the square holds, the decomposition holds)."""
    ring, z = setup.ring, setup.z
    s, zb = closed_slice_basis(ring, n + 1, w)
    dring, _ = ring.drop_var(z)
    wd = w[:z] + w[z + 1 :]
    divisor = (dring.gens(n, wd), dring.gens(n + 1, wd)) if w[z] == 0 else None
    verdicts = []
    for k in range(zb.cols):
        eta = s.from_vector(zb.column(k))
        ceta = cartier(eta)
        path_a = ceta.residue(z) if not ceta.is_zero() else dring.zero(n)
        gamma, prime = eta_decomposition(ring, z, eta)
        verdicts.append((path_a == cartier(eta.residue(z)), gamma + prime.wedge(ring.gen(z)) == eta))
    return SliceColumns.of(s, zb.array), divisor, verdicts


def _builds(ring, a, z):
    """(name, coordinate type, build, values) for every per-cell check in
    degree a, over the weights near the window that its walk can reach:
    the Cartier checks at w and at p w and, with the log variable z (if
    any), the Gysin and square checks (the square walks w_z >= 0 only), and
    the types that the C - 1 blocks of nu_purity_report read (the Gysin
    types at w and, at p | w, at w/p, and the Cartier types at w)."""
    p = ring.p
    spans = _spans(ring)
    builds = [
        ("cartier", partial(cartier_coordinate_type, ring), partial(_cartier_build, ring, a), spans),
        (
            "cartier at p w",
            lambda k, x: cartier_coordinate_type(ring, k, p * x),
            lambda w: _cartier_build(ring, a, tuple(p * x for x in w)),
            spans,
        ),
    ]
    if z is not None:
        setup = GysinSetup(ring, z)

        def types(kind, w):
            return tuple(kind(k, x) for k, x in enumerate(w))

        def blocks(w):
            gysin = partial(gysin_coordinate_type, setup)
            down = tuple(x // p for x in w) if all(x % p == 0 for x in w) else None
            return types(gysin, w), types(partial(cartier_coordinate_type, ring), w), down and types(gysin, down)

        nonnegative = [[x for x in span if x >= 0 or k != z] for k, span in enumerate(spans)]
        builds += [
            ("gysin", partial(gysin_coordinate_type, setup), partial(_gysin_build, setup, a), spans),
            ("square", partial(gysin_coordinate_type, setup), partial(_square_build, setup, a), nonnegative),
            ("nu-purity blocks", partial(_nu_purity_coordinate_type, setup), blocks, spans),
        ]
    return builds


def test_equal_type_tuples_give_equal_builds():
    # every weight near the window, grouped by type tuple, for every check
    # and degree of the rings with p in {2, 3} and m <= 2: each weight builds
    # what the first of its type tuple builds up to D_u (`SliceColumns`),
    # with the same dims and verdicts, or raises alike
    for ring in _small_rings():
        for a in range(ring.m + 2):
            for z in sorted(ring.log) or [None]:
                for name, kind, build, values in _builds(ring, a, z):
                    seen = {}
                    for w in product(*values):
                        got = _outcome(build, w)
                        first, want = seen.setdefault(tuple(kind(k, x) for k, x in enumerate(w)), (w, got))
                        assert got == want, (name, ring, a, z, first, w)
