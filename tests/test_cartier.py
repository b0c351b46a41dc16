"""Cartier operator, its inverse, nu = ker(C-1), and Artin-Schreier preimages.

The small cases are pinned against hand computations; the operator axioms get
exhaustive slice sweeps in the CLI verify suites and the acceptance tests.
"""

import importlib
import random
import re
import pytest
from itertools import combinations
from math import comb

from logcartier.cartier import (
    ArtinSchreierExtension,
    ZBDecomposition,
    artin_schreier_solve,
    c_minus_one_surjectivity,
    cartier,
    cartier_slice_matrix,
    dlog_wedge,
    etale_obstruction_demo,
    frobenius,
    inverse_cartier,
    nu_sections,
    slice_bijection_ok,
)
from logcartier.cli import _residue_laurent_ring
from logcartier.forms import FormRing, LogForm, WeightSlice, WindowOverflow, slice_map_matrix
from logcartier.gflinalg import FpMatrix
from logcartier.sequences import closed_slice_basis, closed_slice_class, residue_class_keys


def log_ring(p, m=2, radius=None):
    r = radius if radius is not None else 2 * p
    return FormRing(
        p,
        names=tuple(f"T{i+1}" for i in range(m)),
        log=tuple(range(m)),
        window=((0, r),) * m,
    )


def plain_ring(p, m=1, radius=None):
    r = radius if radius is not None else 2 * p
    return FormRing(p, names=tuple(f"T{i+1}" for i in range(m)), log=(), window=((0, r),) * m)


def test_frobenius_is_p_th_power():
    r = plain_ring(3, m=1, radius=9)
    f = r.monomial((1,)) + r.one() * 2
    f3 = f.wedge(f).wedge(f)
    assert frobenius(f) == f3  # freshman's dream with F_p coefficients


def test_inverse_cartier_on_generators():
    r = log_ring(3, m=1, radius=9)
    assert inverse_cartier(r.gen(0)) == r.gen(0)  # dlog T -> dlog T
    plain = plain_ring(3, m=1, radius=9)
    # dT -> T^{p-1} dT
    assert inverse_cartier(plain.gen(0)) == plain.monomial((2,)).wedge(plain.gen(0))


def test_inverse_cartier_twists_coefficients():
    r = log_ring(2, m=1, radius=8)
    f = r.monomial((3,)).wedge(r.gen(0))
    # T^3 dlogT -> T^6 dlogT
    assert inverse_cartier(f) == r.monomial((6,)).wedge(r.gen(0))


def test_cartier_undoes_inverse_on_dlog_slice():
    r = log_ring(2, m=1)
    eta = r.monomial((1,)).wedge(r.gen(0))
    assert cartier(inverse_cartier(eta)) == eta


def test_cartier_main_axiom_single_variable():
    # C(T^{p-1} dT) = dT on the plain line
    p = 3
    r = plain_ring(p, m=1, radius=2 * p)
    t = r.monomial((1,))
    form = r.monomial((p - 1,)).wedge(r.gen(0)) * 1
    lhs = cartier(t.wedge(t).wedge(t.d()))  # T^2 dT
    assert lhs == t.d()


def test_cartier_requires_closed_input():
    r = plain_ring(3, m=2)
    omega = r.monomial((0, 1)).wedge(r.gen(0))  # T2 dT1, d = dT2^dT1 != 0
    with pytest.raises(ValueError):
        cartier(omega)


def test_cartier_kills_exact_form():
    p = 3
    r = plain_ring(p, m=1)
    exact = r.monomial((2,)).d()  # 2 T dT, weight 2 not divisible by 3
    assert cartier(exact).is_zero()
    exact2 = r.monomial((p,)).wedge(r.gen(0)) * 0 + r.monomial((2,)).d()
    assert cartier(exact2).is_zero()


# (p, m, window radius): each ring is taken with every log subset, polynomial
# and Laurent at T1
_ORACLE_SIZES = (
    (2, 1, 4), (2, 2, 4), (2, 3, 3), (3, 1, 6), (3, 2, 4), (3, 3, 2), (5, 1, 10), (5, 2, 5)
)


def _oracle_rings():
    for p, m, radius in _ORACLE_SIZES:
        for k in range(m + 1):
            for log in combinations(range(m), k):
                yield FormRing(p, m, log=log, window=radius)
                yield FormRing(p, m, log=log, laurent=(0,), window=radius)


def test_cartier_formula_matches_zb_definition():
    # Cartier's formula against the Z/B solve, on every closed slice basis
    # form; slices where the solve leaves the box, or where the box cuts off
    # antiderivatives so that Z != B at a p-indivisible weight, are skipped
    checked = 0
    for ring in _oracle_rings():
        for j in range(ring.m + 1):
            for w in ring.iter_weights(j):
                try:
                    zb, src, mat = cartier_slice_matrix(ring, j, w)
                except (WindowOverflow, AssertionError):
                    continue
                for k in range(zb.dim_Z):
                    form = zb.slice.from_vector(zb.Z_basis.column(k))
                    want = ring.zero(j) if src is None else src.from_vector(mat.column(k))
                    assert cartier(form) == want, (ring, j, w, k)
                    checked += 1
    assert checked > 10_000


def test_cartier_builds_no_zb_decomposition(monkeypatch):
    r = FormRing(2, 2, log=(0,), window=4)
    t1, t2 = r.monomial((1, 0)), r.monomial((0, 1))
    # weights (0, 0), (2, 2) and the exact part at (1, 1)
    form = r.gen(0) + r.monomial((2, 1)).wedge(r.gen(1)) + t1.wedge(t2).d()
    built = []
    init = ZBDecomposition.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ZBDecomposition, "__init__", counted)
    assert cartier(form) == r.gen(0) + t1.wedge(r.gen(1))
    assert built == []


def test_class_keys_build_no_slice(monkeypatch):
    # keys are read off the ring's layouts, so a stored class builds no slice
    ring = FormRing(3, 2, log=(0, 1), window=4)
    weights = list(ring.iter_weights(1))
    for w in weights:
        ZBDecomposition(ring, 1, w)
    built = []
    init = WeightSlice.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(WeightSlice, "__init__", counted)
    for w in weights:
        residue_class_keys(ring, 1, 0, w)
        closed_slice_class(ring, 1, w)
        ZBDecomposition(ring, 1, w)
    assert built == []
    assert ZBDecomposition(ring, 1, (2, 1)).slice.weight == (2, 1)
    assert len(built) == 1


def test_cartier_window_bounds_storage_only():
    # T1^-2 T2 dT2 at weight (-2, 2) maps to T1^-1 dT2, inside the box; the
    # Z/B solve raises, since C^{-1}(T1^-2 T2 dT1) = T1^-3 T2^2 dT1 is not
    r = FormRing(2, 2, laurent=(0,), window=2)
    form = r.monomial((-2, 1)).wedge(r.gen(1))
    image = r.monomial((-1, 0)).wedge(r.gen(1))
    assert cartier(form) == image
    assert inverse_cartier(image) == form
    with pytest.raises(WindowOverflow, match=r"\(-3, 2\)"):
        cartier_slice_matrix(r, 1, (-2, 2))


# -- slice classes: the memoised matrices against a fresh computation ---------


def _fresh_zbc(ring, j, w):
    """Z, B and the Cartier matrix of slice (j, w), from reference matrices
    (a LogForm operation per basis form) and no memo; a raising step gives
    (exception type, message) in its place and in every later one."""
    p = ring.p
    s = ring.slice(j, w)
    try:
        d_out = slice_map_matrix(s, ring.slice(j + 1, w), LogForm.d)
        d_in = slice_map_matrix(ring.slice(j - 1, w), s, LogForm.d)
    except WindowOverflow as e:
        return ((type(e), str(e)),) * 3
    closed = FpMatrix.from_columns(p, d_out.kernel_basis(), s.dim)
    exact = FpMatrix(p, d_in.array[:, d_in.column_space_pivots()])
    if any(x % p for x in w):
        if closed.cols != exact.cols:
            msg = f"closed slice at non-p-divisible weight {w} is not exact"
            return closed, exact, (AssertionError, msg)
        return closed, exact, FpMatrix.zeros(p, 0, closed.cols)
    src = ring.slice(j, tuple(x // p for x in w))
    try:
        cinv = slice_map_matrix(src, s, inverse_cartier)
    except WindowOverflow as e:
        return closed, exact, (type(e), str(e))
    x = cinv.hstack(exact).solve(closed.array)
    if x is None:
        msg = f"inverse Cartier not surjective onto Z/B at (j={j}, w={w})"
        return closed, exact, (AssertionError, msg)
    return closed, exact, FpMatrix(p, x[: src.dim])


def _memo_zbc(ring, j, w):
    """Z, B and the Cartier matrix of slice (j, w) through the memo, in the
    shape of `_fresh_zbc`."""
    try:
        zb, _src, mat = cartier_slice_matrix(ring, j, w)
    except (WindowOverflow, AssertionError) as e:
        mat = (type(e), str(e))
        try:
            zb = ZBDecomposition(ring, j, w)
        except WindowOverflow:
            return (mat,) * 3
    return zb.Z_basis, zb.B_basis, mat


def _memo_rings(p):
    # every log subset for m <= 3 at windows p + 2 and 2p (at p = 5, m = 3
    # only p + 2, which keeps the test under 5 s), and the Laurent ring of
    # the residue suite's Laurent spot
    for m in (1, 2, 3):
        for radius in sorted({p + 2, 2 * p} if (p, m) != (5, 3) else {p + 2}):
            for k in range(m + 1):
                for log in combinations(range(m), k):
                    yield FormRing(p, m, log=log, window=radius)
    # small Laurent windows: a slice's generator sets there often leave its
    # neighbours' sets open, so a key without them would join two classes
    for m in (1, 2):
        for radius in (1, 2):
            for k in range(m + 1):
                for log in combinations(range(m), k):
                    for laurent in sorted({(0,), tuple(range(m))}):
                        yield FormRing(p, m, log=log, laurent=laurent, window=radius)
    yield _residue_laurent_ring(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slice_class_memo_matches_fresh_computation(p):
    weights = classes = raised = solved = 0
    for ring in _memo_rings(p):
        for j in range(ring.m + 1):
            fresh = {w: _fresh_zbc(ring, j, w) for w in ring.iter_weights(j)}
            # the reverse pass runs with every class stored, so a key that
            # joins two classes fails at the weights of the one not stored
            for w in [*fresh, *reversed(fresh)]:
                assert _memo_zbc(ring, j, w) == fresh[w], (ring, j, w)
            weights += len(fresh)
            raised += sum(isinstance(want[2], tuple) for want in fresh.values())
        classes += sum(1 for key in ring._classes if key[0] == "closed")
        solved += sum(1 for key in ring._classes if key[0] == "cartier")
    # most weights read a class stored by an earlier one; raising weights
    # and solved Cartier classes are both among them
    assert classes * 2 < weights
    assert raised > 0 and solved > 0


def _family(base):
    """base, the rings with_log derives from it for every log set, and the
    rings drop_var derives from those."""
    rings = [base.with_log(log) for k in range(base.m + 1) for log in combinations(range(base.m), k)]
    return rings + [ring.drop_var(i)[0] for ring in rings for i in range(ring.m)]


def _family_bases(p):
    yield FormRing(p, 3, log=range(3), window=p)
    yield FormRing(p, 2, log=(0,), laurent=(1,), window=2)


@pytest.mark.parametrize("p", [2, 3])
def test_class_store_shared_across_a_ring_family(p):
    # the family's slices are read in a shuffled order, so that one ring
    # reads classes another ring stored; each must match the fresh
    # computation on its own ring
    for base in _family_bases(p):
        family = _family(base)
        assert all(ring._classes is base._classes for ring in family)
        cases = [(ring, j, w) for ring in family for j in range(ring.m + 1) for w in ring.iter_weights(j)]
        random.Random(p).shuffle(cases)
        for ring, j, w in cases:
            assert _memo_zbc(ring, j, w) == _fresh_zbc(ring, j, w), (ring, j, w)
        # a ring of equal value built on its own has a store of its own, and
        # the family stores fewer classes than its rings do alone
        alone = 0
        for ring in family:
            twin = FormRing(p, names=ring.names, log=ring.log, laurent=ring.laurent, window=ring.window)
            assert twin == ring and twin._classes is not base._classes
            for j in range(ring.m + 1):
                for w in ring.iter_weights(j):
                    _memo_zbc(twin, j, w)
            alone += len(twin._classes)
        assert len(base._classes) < alone


def test_failing_class_raises_at_each_of_its_weights(monkeypatch):
    # C^{-1} injected as the zero map is surjective onto Z/B nowhere that
    # Z != B; at p = 2 on a two-variable log ring, d = 0 on the 1-forms of
    # every weight with both coordinates even, and those weights share a class
    ring = FormRing(2, 2, log=(0, 1), window=8)
    module = importlib.import_module("logcartier.cartier")
    inverse = module.inverse_cartier_matrix

    def zero_inverse(src):
        dst, _mat = inverse(src)
        return dst, FpMatrix.zeros(2, dst.dim, src.dim)

    monkeypatch.setattr(module, "inverse_cartier_matrix", zero_inverse)
    weights = [(2, 2), (2, 4), (4, 2), (6, 8), (8, 8)]
    keys = {ZBDecomposition(ring, 1, w).key for w in weights}
    assert len(keys) == 1
    for w in weights:
        with pytest.raises(AssertionError, match=re.escape(f"(j=1, w={w})")):
            cartier_slice_matrix(ring, 1, w)
    assert not [key for key in ring._classes if key[0] == "cartier"]


def test_stored_arrays_are_read_only():
    ring = log_ring(2, m=2)
    zb, _src, mat = cartier_slice_matrix(ring, 1, (2, 4))
    _s, closed = closed_slice_basis(ring, 1, (4, 2))
    assert closed is zb.Z_basis
    for stored in (zb.Z_basis, zb.B_basis, mat):
        with pytest.raises(ValueError):
            stored.array[0, 0] = 1


def test_zb_dims_by_hand():
    # p=2, one log variable: every 1-form is closed; d(T^w) = w T^w dlogT
    r = log_ring(2, m=1)
    zb_even = ZBDecomposition(r, 1, (2,))
    assert (zb_even.dim_Z, zb_even.dim_B) == (1, 0)
    zb_odd = ZBDecomposition(r, 1, (3,))
    assert (zb_odd.dim_Z, zb_odd.dim_B) == (1, 1)


def test_slice_matrix_zero_map_at_nondivisible_weight():
    r = log_ring(3, m=1)
    zb, src, mat = cartier_slice_matrix(r, 1, (4,))
    assert src is None
    assert mat.cols == zb.dim_Z


def test_cartier_slice_oracle_plain_line():
    # C(T^3 dT) = T dT at p=2: T^3 dT = C^{-1}(T dT)
    p = 2
    r = plain_ring(p, m=1)
    form = r.monomial((3,)).wedge(r.gen(0))
    assert cartier(form) == r.monomial((1,)).wedge(r.gen(0))


def test_slice_bijection_small_grid():
    r = log_ring(2, m=2)
    for j in (0, 1, 2):
        for w in ((0, 0), (1, 0), (1, 1), (2, 1)):
            assert slice_bijection_ok(r, j, w)


def test_nu_dims_match_binomials():
    for p in (2, 3):
        for m in (1, 2):
            ring = log_ring(p, m=m)
            for n in range(m + 2):
                rep = nu_sections(ring, n)
                assert rep.dim == comb(m, n)
                assert rep.matches_dlog_span


def test_nu_basis_is_fixed_by_cartier():
    ring = log_ring(3, m=2)
    rep = nu_sections(ring, 1)
    for f in rep.basis:
        assert f.d().is_zero()
        assert cartier(f) == f


def test_nu_respects_log_subsets():
    p = 2
    ring = FormRing(p, names=("T1", "T2"), log=(1,), window=((0, 4), (0, 4)))
    assert nu_sections(ring, 1).dim == 1  # only dlog T2
    assert nu_sections(ring, 2).dim == 0


def test_dlog_wedge_degree_and_closedness():
    ring = log_ring(2, m=3)
    w = dlog_wedge(ring, (0, 2))
    assert w.degree == 2
    assert w.d().is_zero()
    assert cartier(w) == w


def test_artin_schreier_control_solution():
    # gamma^p - gamma = T^p - T has the base solution gamma = T
    p = 3
    ring = FormRing(p, names=("t",), laurent=(0,), window=((-10, 10),))
    h = ring.monomial((p,)) - ring.monomial((1,))
    sol = artin_schreier_solve(ring, h, [(k,) for k in range(-3, 4)])
    assert sol is not None
    assert frobenius(sol) - sol == h


def test_artin_schreier_no_solution_for_pole():
    p = 2
    ring = FormRing(p, names=("t",), laurent=(0,), window=((-17, 17),))
    h = ring.monomial((-1,))
    assert artin_schreier_solve(ring, h, [(k,) for k in range(-8, 9)]) is None


def test_extension_relation_and_rank():
    p = 2
    ring = FormRing(p, names=("t",), laurent=(0,), window=((-9, 9),))
    ext = ArtinSchreierExtension(ring, ring.monomial((-1,)))
    g = ext.gamma()
    assert ext.power(g, p) == g + ext.embed(ring.monomial((-1,)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extension_power_is_repeated_multiply(p):
    # squaring gives the product of k factors, k = 0 included
    ring = FormRing(p, 2, window=4 * p)
    t, u = ring.monomial((1, 0)), ring.monomial((0, 1))
    ext = ArtinSchreierExtension(ring, t + u * 2)
    x = ext.gamma() + ext.embed(u + ring.one())
    want = ext.embed(ring.one())
    for k in range(2 * p + 1):
        assert ext.power(x, k) == want, k
        want = ext.multiply(x, want)


def test_extension_certificate_for_inverse_pole():
    for p in (2, 3):
        rep = etale_obstruction_demo(p, bound=6)
        assert not rep.base_solution_exists
        assert rep.certificate.ok
        assert rep.control_solution is not None
        assert rep.ok


def test_certificate_with_nonempty_wedge():
    p = 2
    ring = log_ring(p, m=2, radius=2 * p)
    h = ring.monomial((1, 0))
    cert = c_minus_one_surjectivity(ring, h, (0, 1))
    assert cert.ok
    assert cert.target == h.wedge(dlog_wedge(ring, (0, 1)))


def test_certificate_eta_prime_is_closed():
    p = 3
    ring = log_ring(p, m=1, radius=2 * p)
    cert = c_minus_one_surjectivity(ring, ring.monomial((1,)), (0,))
    assert cert.closed and cert.is_inverse_cartier_preimage
