"""Acceptance gate: the eleven headline claims, each as one test.

Every criterion is exact F_p arithmetic, so every comparison is equality;
the only tolerances are the wall-clock caps asserted where stated.  Run with
-v to get the one-line verdict per criterion.
"""

import time
from itertools import combinations
from math import comb

from logcartier.cech import (
    ProjectiveSpace,
    SheafSpec,
    blowup_cohomology,
    cech_cohomology,
    connecting_map_check,
    formal_functions_check,
    generator_check,
)
from logcartier.cli import (
    suite_cartier,
    suite_filtration,
    suite_nu,
    suite_obstruction,
    suite_purity,
    suite_residue,
)


class _Clock:
    def __init__(self, cap_s):
        self.cap = cap_s
        self.t0 = time.monotonic()

    def check(self, label):
        dt = time.monotonic() - self.t0
        assert dt < self.cap, f"{label}: {dt:.1f}s exceeds the {self.cap}s budget"
        print(f"{label}: PASS ({dt:.1f}s < {self.cap}s)")


def _all_pass(checks, label):
    bad = [(c.name, c.params, c.dims) for c in checks if not c.passed]
    assert not bad, f"{label}: {bad}"


def test_criterion_01_projective_identity_table():
    clock = _Clock(60)
    for p in (2, 3, 5):
        for n in range(4):
            for j in range(n + 1):
                rep = cech_cohomology(SheafSpec(p, ProjectiveSpace(n), j))
                want = [1 if i == j else 0 for i in range(n + 1)]
                assert rep.dims == want, (p, n, j, rep.dims)
                assert rep.stabilized
    clock.check("criterion 1: dim H^i(P^n, Omega^j) = delta_ij, n <= 3, p in {2,3,5}")


def test_criterion_02_twist_vanishing():
    clock = _Clock(120)
    for p in (2, 3, 5):
        for n in range(1, 4):
            for j in range(n + 1):
                for l in (1, 2, 3):
                    rep = cech_cohomology(SheafSpec(p, ProjectiveSpace(n), j, l=l))
                    assert all(d == 0 for d in rep.dims[1:]), (p, n, j, l, rep.dims)
    clock.check("criterion 2: H^i(P^n, Omega^j(l)) = 0 for i >= 1, 1 <= l <= 3")


def test_criterion_03_log_twist_vanishing():
    clock = _Clock(120)
    for p in (2, 3, 5):
        for n in range(1, 4):
            for l in range(4):
                spec = SheafSpec(p, ProjectiveSpace(n), n, S=frozenset({0}), l=l)
                rep = cech_cohomology(spec)
                assert all(d == 0 for d in rep.dims[1:]), (p, n, l, rep.dims)
    clock.check("criterion 3: H^i(P^n, Omega^n(log)(l)) = 0 for i >= 1, 0 <= l <= 3")


def test_criterion_04_generators_and_connecting_map():
    clock = _Clock(120)
    for p in (2, 3, 5):
        for n in range(1, 4):
            for j in range(n + 1):
                assert generator_check(p, n, j).spans, (p, n, j)
            conn = connecting_map_check(p, n)
            assert conn.is_isomorphism, (p, n)
    clock.check("criterion 4: alternating dlog classes span; connecting map is iso")


def test_criterion_05_blowup_acyclicity():
    clock = _Clock(30)
    for p in (2, 3):
        for m, c in ((2, 2), (3, 2), (3, 3)):
            for j in range(m + 1):
                rep = blowup_cohomology(m, c, j, p)
                assert rep.stabilized
                assert all(d == 0 for d in rep.dims[1:]), (p, m, c, j, rep.dims)
        for c in (2, 3):
            for j in range(c):
                assert formal_functions_check(c, j, 3, p).ok, (p, c, j)
    clock.check("criterion 5: blowup log forms acyclic; formal-functions cross-check")


def test_criterion_06_cartier_axioms():
    clock = _Clock(60)
    for p in (2, 3):
        for m in (1, 2, 3):
            _all_pass(suite_cartier(p, m), f"cartier p={p} m={m}")
    clock.check("criterion 6: Cartier axioms, inverse identity, ker C = B, m <= 3")


def test_criterion_07_nu_dimensions_and_preimages():
    clock = _Clock(120)
    for p in (2, 3):
        for m in (1, 2, 3):
            _all_pass(suite_nu(p, m), f"nu p={p} m={m}")
    clock.check("criterion 7: dim nu(n) = C(|L|, n); Artin-Schreier preimages exist")


def test_criterion_08_residue_sequences():
    clock = _Clock(120)
    for p in (2, 3):
        for m in (1, 2, 3):
            _all_pass(suite_residue(p, m), f"residue p={p} m={m}")
    clock.check("criterion 8: all residue sequences exact on every slice, m <= 3")


def test_criterion_09_filtration_dimensions():
    clock = _Clock(60)
    _all_pass(suite_filtration(2), "filtration")
    # the graded dims are binomial products, independently recounted here
    from logcartier.sequences import FiltrationSpec, filtration

    for u, w in ((1, 5), (3, 3), (5, 2)):
        for k in range(u + w + 1):
            rep = filtration(FiltrationSpec(u, w, k))
            want = [comb(u, k - i) * comb(w, i) for i in range(k + 1)]
            assert rep.graded_dims == want, (u, w, k)
    clock.check("criterion 9: wedge filtration graded dims = C(u,k-i)C(w,i), u,w <= 5")


def test_criterion_10_purity_square_and_nu():
    clock = _Clock(120)
    for p in (2, 3):
        _all_pass(suite_purity(p, 3), f"purity p={p}")
    clock.check("criterion 10: residue commutes with C; Gysin ker(C-1) = nu on divisor")


def test_criterion_11_etale_obstruction():
    clock = _Clock(60)
    for p in (2, 3):
        _all_pass(suite_obstruction(p), f"obstruction p={p}")
    clock.check("criterion 11: gamma^p - gamma = 1/t unsolvable in degree 8, solvable upstairs")
