"""Gysin residue isomorphisms, the residue/Cartier square, and codimension-r
composites, pinned on small chart rings with hand-counted slice dimensions."""

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
    assert rep.per_weight_coker == {}


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
    assert rep.per_weight  # some target slices are nonzero
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
    assert rep.per_weight == {(0, 0, 0): 1}


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
