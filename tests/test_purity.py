"""Gysin residue isomorphisms, the residue/Cartier square, and codimension-r
composites, pinned on small chart rings with hand-counted slice dimensions."""

from itertools import combinations, permutations
from math import comb

import pytest

from logcartier import purity, sequences
from logcartier.forms import FormRing
from logcartier.gflinalg import FpMatrix
from logcartier.purity import (
    GysinSetup,
    commuting_square,
    closed_iso_compatible,
    eta_decomposition,
    gysin_residue,
    gysin_residue_closed,
    iterated_purity,
    nu_purity_report,
)


def chart_ring(p, m, radius, log=None):
    idx = tuple(range(m))
    return FormRing(
        p,
        names=tuple(f"T{i + 1}" for i in range(m)),
        log=idx if log is None else tuple(sorted(log)),
        laurent=(),
        window=tuple((0, radius) for _ in range(m)),
    )


def test_setup_requires_log_center():
    ring = chart_ring(3, 2, 2, log=(1,))
    with pytest.raises(ValueError):
        GysinSetup(ring, 0)
    setup = GysinSetup(ring, 1)
    assert setup.background == frozenset()


def test_setup_background_is_rest_of_log_set():
    setup = GysinSetup(chart_ring(3, 3, 2), 1)
    assert setup.background == frozenset({0, 2})


def test_gysin_dimensions_by_hand():
    # plane with both axes log, center V(T_1)
    setup = GysinSetup(chart_ring(3, 2, 3), 0)
    g = gysin_residue(setup, 1, (0, 0))
    assert (g.coker_dim, g.target_dim) == (1, 1) and g.ok
    g = gysin_residue(setup, 1, (1, 0))
    # dT_1 fills the dlog T_1 line, so nothing is left over
    assert (g.coker_dim, g.target_dim) == (0, 0) and g.ok
    g = gysin_residue(setup, 1, (0, 1))
    assert (g.coker_dim, g.target_dim) == (1, 1) and g.ok
    gz = gysin_residue_closed(setup, 1, (0, 0))
    assert (gz.coker_dim, gz.target_dim) == (1, 1) and gz.ok


@pytest.mark.parametrize("p", [2, 3])
def test_gysin_isomorphism_over_window(p):
    ring = chart_ring(p, 2, 3)
    setup = GysinSetup(ring, 0)
    for n in (0, 1, 2):
        for w in ring.iter_weights(n):
            assert gysin_residue(setup, n, w).ok, (n, w)
            assert gysin_residue_closed(setup, n, w).ok, (n, w)
            assert closed_iso_compatible(setup, n, w), (n, w)


def test_gysin_mixed_log_ring():
    ring = chart_ring(2, 3, 2, log=(0, 2))
    setup = GysinSetup(ring, 2)
    for n in (1, 2):
        for w in ring.iter_weights(n):
            assert gysin_residue(setup, n, w).ok, (n, w)


def test_eta_decomposition_reconstructs():
    ring = chart_ring(5, 3, 3)
    t2 = ring.monomial((0, 1, 0))
    t3 = ring.monomial((0, 0, 1))
    eta = t2.wedge(ring.gen(0)).wedge(ring.gen(1)) + t3.wedge(ring.gen(1)).wedge(
        ring.gen(2)
    )
    gamma, prime = eta_decomposition(ring, 0, eta)
    assert gamma == t3.wedge(ring.gen(1)).wedge(ring.gen(2))
    assert prime == -t2.wedge(ring.gen(1))
    assert gamma + prime.wedge(ring.gen(0)) == eta
    assert all(0 not in gens for (_a, gens) in gamma.terms)


def test_eta_decomposition_of_pure_dlog():
    ring = chart_ring(3, 2, 2)
    gamma, prime = eta_decomposition(ring, 0, ring.gen(0))
    assert gamma.is_zero()
    assert prime == ring.one()


@pytest.mark.parametrize("p", [2, 3])
def test_commuting_square(p):
    ring = chart_ring(p, 2, 2 * p)
    setup = GysinSetup(ring, 0)
    for n in (0, 1):
        rep = commuting_square(setup, n)
        assert rep.checked > 0
        assert rep.ok, (n, rep.failures, rep.decomposition_failures)


@pytest.mark.parametrize("p", [2, 3])
def test_nu_purity_matches_divisor_nu(p):
    ring = chart_ring(p, 2, 2 * p)
    setup = GysinSetup(ring, 0)
    for n in (1, 2):
        rep = nu_purity_report(setup, n)
        # the divisor keeps one log axis: nu(n-1) has binomial dimension
        assert rep.expected_nu_dim == comb(1, n - 1)
        assert rep.computed_nu_dim == rep.expected_nu_dim
        assert rep.square_ok and rep.ok
        assert rep.r == 1
        # the obstruction is the cokernel of the divisor's own C - 1 system
        assert rep.obstruction_dim == rep.expected_obstruction_dim >= 0


def test_nu_purity_degree_zero_short_circuit():
    setup = GysinSetup(chart_ring(2, 2, 4), 0)
    rep = nu_purity_report(setup, 0)
    assert rep.ok and rep.expected_nu_dim == 0 and rep.computed_nu_dim == 0


def test_nu_purity_without_background_log():
    # dropping the center leaves a log-free line: nu(1) there is zero
    ring = chart_ring(3, 2, 6, log=(0,))
    rep = nu_purity_report(GysinSetup(ring, 0), 2)
    assert rep.expected_nu_dim == 0
    assert rep.computed_nu_dim == 0
    assert rep.ok


def test_nu_purity_json_shape():
    setup = GysinSetup(chart_ring(2, 2, 4), 0)
    doc = nu_purity_report(setup, 1).to_json_dict()
    assert doc["setup"]["p"] == 2
    assert doc["setup"]["z"] == 0
    assert doc["setup"]["log"] == [0, 1]
    assert doc["nu_dims"]["expected"] == doc["nu_dims"]["computed"] == 1
    assert doc["r"] == 1 and doc["square_ok"] is True


def test_iterated_purity_plane_and_chain_validation():
    ring = chart_ring(2, 3, 2)
    rep = iterated_purity(ring, (0, 1), 2)
    assert rep.ok
    assert rep.r == 2 and rep.shift == -2
    assert rep.steps_exact and rep.composite_surjective and rep.order_independent
    assert rep.weights  # some target slices are nonzero
    with pytest.raises(ValueError):
        iterated_purity(ring, (0, 0), 2)
    mixed = chart_ring(2, 3, 2, log=(0, 1))
    with pytest.raises(ValueError):
        iterated_purity(mixed, (0, 2), 2)


def test_iterated_purity_full_chain():
    ring = chart_ring(3, 3, 2)
    rep = iterated_purity(ring, (0, 1, 2), 3)
    assert rep.ok and rep.shift == -3
    # only the zero weight survives all three residues, hitting Omega^0
    assert rep.weights == 1


# -- iterated purity: one drop sequence per class against a per-weight walk ----


def _steps_exact_per_weight(ring, chain, n):
    """iterated_purity's steps_exact with the drop sequence built and
    ranked at every weight of every step."""
    exact, cur, deg = True, ring, n
    for zc in purity._adjusted_chain(chain):
        for w in cur.iter_weights(deg):
            if not sequences.residue_complex_drop(cur, deg, zc, w).is_exact():
                exact = False
        cur, _ = cur.drop_var(zc)
        deg -= 1
    return exact


def _iterated_cases():
    yield chart_ring(2, 3, 2), (0, 1), 2
    yield chart_ring(3, 3, 2), (0, 1, 2), 3
    yield chart_ring(2, 3, 3), (2, 0), 2
    # a plain coordinate: the log slice at w = 0 has one generator set, and
    # two or more where w_2 >= 1
    yield chart_ring(2, 3, 2, log=(0, 1)), (0, 1), 2
    # Laurent at the first divisor: its drop sequence is not exact everywhere
    yield FormRing(3, 2, log=(0, 1), laurent=(0,), window=2), (0, 1), 2
    yield FormRing(2, 3, log=(0, 1, 2), laurent=(1,), window=2), (1, 2), 2


def _iterated_both_ways():
    return [
        (iterated_purity(ring, chain, n).steps_exact, _steps_exact_per_weight(ring, chain, n))
        for ring, chain, n in _iterated_cases()
    ]


def test_iterated_purity_steps_match_per_weight_walk(monkeypatch):
    drop = sequences.residue_complex_drop
    built = []
    monkeypatch.setattr(sequences, "residue_complex_drop", lambda *a: built.append(a) or drop(*a))
    walked = [iterated_purity(ring, chain, n).steps_exact for ring, chain, n in _iterated_cases()]
    by_class = len(built)
    both = _iterated_both_ways()
    assert [got for got, _want in both] == walked
    assert all(got == want for got, want in both)
    assert {want for _got, want in both} == {True, False}
    assert by_class * 2 < len(built) - by_class


def test_failing_drop_class_fails_the_steps_like_per_weight_walk(monkeypatch):
    # the residue zeroed at w_z = 0 where the log slice has two or more
    # generator sets: a property of the drop key
    drop = sequences.residue_complex_drop

    def broken(ring, a, z, w):
        cx = drop(ring, a, z, w)
        if w[z] == 0 and len(ring.gens(a, w)) > 1:
            cx.maps[1] = FpMatrix.zeros(ring.p, cx.dims[2], cx.dims[1])
        return cx

    monkeypatch.setattr(sequences, "residue_complex_drop", broken)
    both = _iterated_both_ways()
    assert all(got == want for got, want in both)
    assert [want for _got, want in both].count(False) > 2


# -- iterated purity: the composite by cells against a per-weight walk ---------


def _composite_dims_per_weight(ring, order, n):
    """Per-weight (target dim, composite residue rank) for one drop order,
    the composite taken at every common zero weight."""
    adjusted = purity._adjusted_chain(order)
    out = {}
    for w in ring.iter_weights(n):
        if any(w[z] != 0 for z in order):
            continue
        if n < len(order):
            out[w] = (0, 0)  # target degree is negative; nothing to hit
            continue
        s = ring.slice(n, w)
        forms = [s.basis_form(k) for k in range(s.dim)]
        cur = ring
        for zc in adjusted:
            forms = [f.residue(zc) for f in forms]
            cur, _ = cur.drop_var(zc)
        wd = tuple(x for k, x in enumerate(w) if k not in set(order))
        tgt = cur.slice(n - len(order), wd)
        mat = purity.FpMatrix.from_columns(ring.p, [tgt.to_vector(f) for f in forms], tgt.dim)
        out[w] = (tgt.dim, mat.rank())
    return out


def _composite_both_ways(cases):
    """iterated_purity's (weights, composite_surjective, order_independent)
    for each (ring, chain, n), by cells and by the per-weight walk."""
    both = []
    for ring, chain, n in cases:
        rep = iterated_purity(ring, chain, n)
        base = _composite_dims_per_weight(ring, chain, n)
        want = (
            sum(1 for dim, _rank in base.values() if dim),
            all(rank == dim for dim, rank in base.values()),
            all(_composite_dims_per_weight(ring, perm, n) == base for perm in permutations(chain)),
        )
        both.append(((rep.weights, rep.composite_surjective, rep.order_independent), want))
    return both


def _composite_cases(ps=(2, 3, 5)):
    """Chains of 2 and 3 log coordinates in m = 2 and 3 variables, with a
    plain coordinate or not, Laurent at the last coordinate or not, on
    windows 1 and 2p, in every degree n <= m."""
    for p in ps:
        for m in (2, 3):
            for log in (tuple(range(m)), (0, 1)):
                for r in range(2, len(log) + 1):
                    for chain in sorted({c[::-1] for c in combinations(log, r)} | set(combinations(log, r))):
                        for laurent in ((), (m - 1,)):
                            for window in (1, 2 * p):
                                ring = FormRing(p, m, log=log, laurent=laurent, window=window)
                                yield from ((ring, chain, n) for n in range(m + 1))


def test_composite_matches_per_weight_walk():
    both = _composite_both_ways(_composite_cases())
    assert all(got == want for got, want in both)
    assert {want[0] > 0 for _got, want in both} == {True, False}


def test_composite_fails_like_per_weight_walk_where_the_slice_is_wide(monkeypatch):
    # the composite is zeroed where slice (n, w) has three or more generator
    # sets: in m = 3 with a plain third coordinate, at n = 2, where it is
    # inside its window and not at lo or hi + 1, a fact of the statuses that
    # a cell type which merged them would check at a first weight that
    # passes
    class Narrow(FpMatrix):
        @classmethod
        def from_columns(cls, p, columns, rows):
            mat = FpMatrix.from_columns(p, columns, rows)
            return FpMatrix.zeros(p, mat.rows, mat.cols) if mat.cols >= 3 else mat

    monkeypatch.setattr(purity, "FpMatrix", Narrow)
    cases = [(FormRing(p, 3, log=(0, 1), window=w), (0, 1), 2) for p in (2, 3) for w in (1, 2 * p)]
    both = _composite_both_ways(cases)
    assert all(got == want for got, want in both)
    assert not any(surjective for _got, (_weights, surjective, _independent) in both)
