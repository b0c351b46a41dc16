"""Exact sequences on weight slices: residue, Euler, pullback, filtration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations, product
from math import comb

from conftest import SolvedSpace, closed_columns, count_rref

from logcartier import sequences
from logcartier.cech import CechComplex
from logcartier.cli import _residue_laurent_ring
from logcartier.forms import FormRing
from logcartier.gflinalg import FpMatrix
from logcartier.sequences import (
    FiltrationSpec,
    _filtration_step,
    _is_signed_permutation_onto,
    SliceComplex,
    closed_residue_complex,
    closed_slice_basis,
    divisor_lift,
    euler_complex,
    euler_contraction,
    euler_matrix,
    filtration,
    fundamental_ses_check,
    log_section_space,
    projective_ring,
    pullback_ses,
    residue_complex_all_divisors,
    residue_complex_drop,
    residue_complex_twist,
    residue_class_keys,
    sign_class,
    transport,
    weight_ring,
)


def log_ring(p, m=2, radius=4, log=None):
    return FormRing(
        p,
        names=tuple(f"T{i+1}" for i in range(m)),
        log=tuple(range(m)) if log is None else tuple(log),
        window=((0, radius),) * m,
    )


# -- SliceComplex plumbing --------------------------------------------------------


def test_slice_complex_identity_is_exact():
    ident = FpMatrix.identity(3, 2)
    cx = SliceComplex(3, ["A", "B"], [2, 2], [ident])
    assert cx.composition_zero()
    assert cx.homology_dims() == [0, 0]
    assert cx.is_exact()


def test_slice_complex_detects_homology():
    zero = FpMatrix.zeros(3, 1, 1)
    cx = SliceComplex(3, ["A", "B"], [1, 1], [zero])
    assert cx.homology_dims() == [1, 1]
    assert not cx.is_exact()
    assert cx.exactness_verdicts() == [False, False]


def test_homology_takes_each_rank_once(monkeypatch):
    ident = FpMatrix.identity(3, 2)
    cx = SliceComplex(3, ["A", "B", "C"], [2, 2, 2], [ident, FpMatrix.zeros(3, 2, 2)])
    calls = count_rref(monkeypatch)
    assert cx.homology_dims() == [0, 0, 2]
    assert len(calls) == 2

    ring = weight_ring(2, 2, (0, 0, 0))
    cech = CechComplex(
        2, range(3), lambda I: log_section_space(ring, 0, frozenset(), frozenset(I), (0, 0, 0))
    )
    calls.clear()
    assert cech.homology_dims() == [1, 0, 0]
    assert len(calls) == len(cech.deltas)


def test_closed_residue_complex_reduces_only_its_maps(monkeypatch):
    # the closed bases record their identity rows, so once they are built
    # and kept on the ring, the induced maps are read off them: the complex
    # reduces each nonempty map once, for its rank, and nothing else; an
    # empty matrix is ranked without a reduction
    ring = log_ring(2, radius=3)
    calls = count_rref(monkeypatch)
    for w, shapes in (((0, 0), [(2, 1), (1, 2)]), ((1, 0), [(1, 1)])):
        closed_residue_complex(ring, 1, 0, w)
        calls.clear()
        cx = closed_residue_complex(ring, 1, 0, w)
        assert not calls
        assert cx.is_exact()
        assert calls == shapes
    calls.clear()
    for empty in (FpMatrix.zeros(3, 0, 4), FpMatrix.zeros(3, 4, 0)):
        assert empty.rank() == 0 and empty.column_space_pivots() == []
    assert not calls


def test_filtration_step_ranks_without_elimination(monkeypatch):
    # at a = 0 phi is the identity at its distinct positions and the
    # inclusion has no columns, so the step's homology reduces nothing
    calls = count_rref(monkeypatch)
    cx = _filtration_step(3, 0, 5, [3, 0, 1])
    assert cx.homology_dims() == [0, 0, 2] and cx.maps[1].identity_rows is not None
    assert not calls
    assert _filtration_step(3, 0, 5, [3, 0, 3]).homology_dims() == [0, 1, 3]
    assert len(calls) == 1  # repeated positions: phi is reduced


def test_cech_differential_reads_blocks_without_elimination(monkeypatch):
    # every section space of P^2 weight-0 Omega^1(log D_{0,1,2}) is 2-dim;
    # each closed basis is the identity at its rows, so assembling the
    # complex reads every inclusion block once, eliminates nothing, and gives
    # the differentials of the complex whose blocks are solved
    w = (0, 0, 0)
    ring = weight_ring(2, 2, w)
    spaces = {
        I: log_section_space(ring, 1, frozenset(range(3)), frozenset(I), w)
        for k in range(1, 4)
        for I in combinations(range(3), k)
    }
    want = CechComplex(2, range(3), lambda I: SolvedSpace(spaces[I].ambient, spaces[I].basis))
    reads = []
    read = sequences.SectionSpace.coords_of_vector
    monkeypatch.setattr(
        sequences.SectionSpace, "coords_of_vector", lambda self, v: reads.append(1) or read(self, v)
    )
    calls = count_rref(monkeypatch)
    cech = CechComplex(2, range(3), spaces.__getitem__)
    assert not calls
    blocks = [
        (J, J[:t] + J[t + 1 :])
        for level in cech.levels[1:]
        for J in level
        for t in range(len(J))
    ]
    nonempty = [(J, I) for J, I in blocks if spaces[J].dim and spaces[I].dim]
    assert sum(spaces[I].dim for _J, I in nonempty) > len(nonempty)
    assert len(reads) == len(nonempty)
    assert cech.deltas == want.deltas


# -- transport / lift helpers ------------------------------------------------------


def test_transport_preserves_terms():
    src = log_ring(3, log=())
    dst = log_ring(3, log=(0,))
    f = src.monomial((1, 1)).wedge(src.gen(1))
    g = transport(f, dst)
    # no dT1 factor involved, so the term carries over verbatim
    assert g.coefficient((1, 1), (1,)) == 1
    assert g.ring is dst


def test_divisor_lift_then_residue_roundtrip():
    # the constructive half of the closed residue sequence: for closed zeta
    # on D_z, dlog T_z ^ lift(zeta) is closed with residue zeta
    ring = log_ring(2)
    dring, _ = ring.drop_var(0)
    zeta = dring.monomial((1,)).wedge(dring.gen(0))
    pre = ring.gen(0).wedge(divisor_lift(ring, 0, zeta))
    assert pre.d().is_zero()
    assert pre.residue(0) == zeta


def test_divisor_lift_inserts_zero_weight():
    ring = log_ring(3)
    dring, _ = ring.drop_var(1)
    f = dring.monomial((2,))
    lifted = divisor_lift(ring, 1, f)
    assert lifted.weight() == (2, 0)


# -- Euler contraction and complexes ----------------------------------------------


def test_euler_contraction_on_generators():
    ring = projective_ring(3, 1, ((-2, 2), (-2, 2)))
    one_form = ring.gen(0)
    assert euler_contraction(one_form) == ring.one()
    two = ring.gen(0).wedge(ring.gen(1))
    c = euler_contraction(two)
    assert c == ring.gen(1) - ring.gen(0)


def test_euler_contraction_squares_to_zero():
    ring = projective_ring(3, 2, ((-2, 2),) * 3)
    f = ring.gen(0).wedge(ring.gen(1)).wedge(ring.gen(2))
    assert euler_contraction(euler_contraction(f)).is_zero()


def test_euler_complex_exact_on_torus():
    for p in (2, 3):
        for (n, j) in ((1, 0), (1, 1), (2, 1), (2, 2)):
            for w in ((0,) * (n + 1), (1, -1) + (0,) * (n - 1)):
                cx = euler_complex(p, n, j, sum(w), w, inverted=None)
                assert cx.is_exact(), (p, n, j, w, cx.exactness_verdicts())


def test_euler_complex_exact_on_chart():
    cx = euler_complex(3, 2, 1, 1, (1, 0, 0), inverted=frozenset({0}))
    assert cx.is_exact()


def test_log_section_space_global_sections_of_o():
    # sections of O on the chart where X_0 is invertible: the single
    # monomial X^w qualifies exactly when w_i >= 0 away from the chart
    ring = projective_ring(3, 1, ((-3, 3), (-3, 3)))
    for w, expect in (((2, -2), 0), ((-1, 1), 1)):
        sp = log_section_space(ring, 0, frozenset(), frozenset({0}), w)
        assert sp.dim == expect
    # weight_ring builds the minimal box for one weight
    assert weight_ring(3, 1, (3, -3)).window == ((0, 3), (-3, 0))


def honest_section_basis(ring, j, S, I, w, contract_skip=frozenset()):
    """The basis array of log_section_space by elimination: the kernel of
    the Euler contraction on the full slice, restricted to the allowed sets
    (those inside S + I + {g : w_g >= 1}), embedded back into the slice."""
    w = tuple(w)
    sl = ring.slice(j, w)
    if j < 0 or any(w[i] < 0 for i in range(ring.m) if i not in I):
        return np.zeros((sl.dim, 0), dtype=np.int64)
    allowed = [
        k
        for k, gens in enumerate(sl.gens)
        if all(w[g] >= 1 or g in S or g in I for g in gens)
    ]
    _slice, full = euler_matrix(sl, frozenset(contract_skip))
    kernel = FpMatrix(ring.p, full.array[:, allowed]).kernel_basis()
    out = np.zeros((sl.dim, len(kernel)), dtype=np.int64)
    for col, v in enumerate(kernel):
        out[allowed, col] = v
    return out


def _subset_grid(n):
    """Index sets of P^n: empty, each end, the lower half, all but 0, all."""
    grid = [(), (0,), (n,), tuple(range(n // 2 + 1)), tuple(range(1, n + 1)), tuple(range(n + 1))]
    return sorted({frozenset(s) for s in grid}, key=sorted)


def _assert_honest(ring, j, S, I, w, contract_skip=frozenset()):
    got = log_section_space(ring, j, S, I, w, contract_skip).basis
    want = honest_section_basis(ring, j, S, I, w, contract_skip)
    assert got.p == ring.p and got.array.dtype == np.int64
    assert got.array.shape == want.shape, (j, S, I, w, contract_skip)
    assert np.array_equal(got.array, want), (j, S, I, w, contract_skip)
    return want.shape[1]


def _section_grid(p):
    """(ring, j, S, I, w, contract_skip) for n <= 4: every j from -1 to
    n + 1, S and I from _subset_grid, three skips, and three sampled weights
    in {-2..2}^(n+1), each on its weight_ring and on a (-2, 2) window."""
    rng = np.random.default_rng(p)
    for n in range(5):
        grid = _subset_grid(n)
        for _ in range(3):
            w = tuple(int(x) for x in rng.integers(-2, 3, n + 1))
            for ring in (weight_ring(p, n, w), projective_ring(p, n, ((-2, 2),) * (n + 1))):
                for j, S, I, skip in product(
                    range(-1, n + 2), grid, grid, (frozenset(), {n}, {0})
                ):
                    yield ring, j, S, I, w, skip


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_section_basis_is_the_eliminated_kernel(p):
    # the closed-form basis equals, array for array, the kernel that
    # elimination finds on the allowed columns of the Euler matrix
    assert sum(_assert_honest(*args) for args in _section_grid(p))
    for n in range(5):
        # a window that misses w: the slice is empty
        far = (3,) + (0,) * n
        for j in range(-1, n + 2):
            assert _assert_honest(projective_ring(p, n, ((-1, 1),) * (n + 1)), j, (), (), far) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_read_coordinates_match_the_solve(p):
    # on the grid of the closed bases, the coordinates read off a basis's
    # rows are the solved ones, for a vector and for a matrix of vectors,
    # and a vector outside the span raises where the solve finds none
    rng = np.random.default_rng(p + 100)
    inside = outside = 0
    for args in _section_grid(p):
        space = log_section_space(*args)
        oracle = SolvedSpace(space.ambient, space.basis)
        x = rng.integers(0, p, (space.dim, 2))
        vectors = space.basis.apply(x)
        assert np.array_equal(space.coords_of_vector(vectors), x)
        assert np.array_equal(space.coords_of_vector(vectors[:, 0]), x[:, 0])
        inside += space.dim
        v = rng.integers(0, p, space.basis.rows)
        if oracle.basis.solve(v) is None:
            for bad in (v, np.column_stack([vectors[:, 0], v])):
                with pytest.raises(ValueError, match="not a section"):
                    space.coords_of_vector(bad)
            outside += 1
        else:
            assert np.array_equal(space.coords_of_vector(v), oracle.coords_of_vector(v))
    assert inside and outside


@pytest.mark.parametrize("p", [2, 3])
def test_closed_section_basis_on_the_pullback_ring(p, monkeypatch):
    # every section space pullback_ses builds, on its base ring and on the
    # extended ring whose gamma the contraction skips
    calls = []
    make = sequences.log_section_space

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return make(*args, **kwargs)

    monkeypatch.setattr(sequences, "log_section_space", spy)
    for c in (2, 3):
        for n in range(c + 1):
            for w in product(range(-1, 3), repeat=c):
                for chart in range(c):
                    pullback_ses(p, c, n, w, chart=chart)
    assert any(kwargs.get("contract_skip") for _args, kwargs in calls)
    assert sum(_assert_honest(*args, **kwargs) for args, kwargs in calls)


def test_section_space_refuses_a_ring_with_a_non_log_variable():
    # every caller's ring is all log (the projective model and the
    # pullback's extended ring); any other ring is refused on entry, also
    # where j < 0, the slice is empty or a coordinate off the chart is
    # negative
    for log, j, w, skip in product(
        ((0,), (1,), ()), range(-1, 3), ((0, 0), (1, 0), (-1, 1), (3, 0)), ((), (1,))
    ):
        ring = FormRing(5, names=("X0", "X1"), log=log, laurent=(0, 1), window=((-1, 1),) * 2)
        with pytest.raises(ValueError, match="every variable log"):
            log_section_space(ring, j, (), (0,), w, skip)


# -- residue sequences --------------------------------------------------------------


def test_residue_drop_exact_small_grid():
    ring = log_ring(2, radius=3)
    for a in (1, 2):
        for w in ring.iter_weights(a):
            cx = residue_complex_drop(ring, a, 0, w)
            assert cx.is_exact(), (a, w, cx.exactness_verdicts())


def test_residue_drop_dims_by_hand():
    # weight (1,1), a=1: log slice has T1T2 dlogT1, T1T2 dlogT2;
    # dropping the log pole at T1 leaves T2 T1 dT1 / T1T2 dlogT2-span...
    # the middle has dim 2, the no-pole sub dim 2, divisor target dim 0
    ring = log_ring(5)
    cx = residue_complex_drop(ring, 1, 0, (1, 1))
    assert cx.dims == [2, 2, 0]
    cx0 = residue_complex_drop(ring, 1, 0, (0, 1))
    # at w_z = 0 the divisor slice T2-part appears: dims 1 -> 2 -> 1
    assert cx0.dims == [1, 2, 1]
    assert cx0.is_exact()


def test_residue_twist_exact_small_grid():
    ring = log_ring(3, radius=3)
    for a in (1, 2):
        for w in ring.iter_weights(a):
            cx = residue_complex_twist(ring, a, 0, w)
            assert cx.is_exact(), (a, w)


def test_residue_all_divisors_exact():
    ring = log_ring(2, radius=3)
    for w in ring.iter_weights(1):
        cx = residue_complex_all_divisors(ring, w)
        assert cx.is_exact(), w


def residue_complexes(ring: FormRing, a: int, z: int):
    """All three residue sequences over every weight in the ring's box,
    built at every weight.  The all-divisors sequence only exists for
    a = 1; its list is empty otherwise."""
    out = {"all_divisors": [], "drop": [], "twist": []}
    for w in ring.iter_weights(a):
        if a == 1:
            out["all_divisors"].append(residue_complex_all_divisors(ring, w))
        out["drop"].append(residue_complex_drop(ring, a, z, w))
        out["twist"].append(residue_complex_twist(ring, a, z, w))
    return out


def test_residue_complexes_bundle():
    ring = log_ring(2, radius=2)
    out = residue_complexes(ring, 1, 0)
    assert out["all_divisors"] and out["drop"] and out["twist"]
    for group in out.values():
        for cx in group:
            assert cx.is_exact()


def test_closed_residue_complex_exact_and_smaller():
    ring = log_ring(2, radius=3)
    for w in ring.iter_weights(1):
        cx = closed_residue_complex(ring, 1, 0, w)
        assert cx.is_exact(), w
        full = residue_complex_drop(ring, 1, 0, w)
        assert all(c <= f for c, f in zip(cx.dims, full.dims))


def test_closed_slice_basis_members_are_closed():
    ring = log_ring(3)
    s, z = closed_slice_basis(ring, 1, (3, 0))
    for k in range(z.cols):
        assert s.from_vector(z.column(k)).d().is_zero()


def test_residue_complex_rejects_non_log_index():
    ring = log_ring(2, log=(1,))
    with pytest.raises(ValueError):
        residue_complex_drop(ring, 1, 0, (0, 0))


# -- residue classes: every weight against its class representative ----------------


_RESIDUE_BUILDERS = (
    residue_complex_drop,
    residue_complex_twist,
    closed_residue_complex,
    lambda ring, _a, _z, w: residue_complex_all_divisors(ring, w),
)


def _built(builder, ring, a, z, w):
    """Dims and matrices of the complex built at w alone, or the type of
    the exception the build raises.  A closed complex is read through its
    bases (`closed_columns`), which the weights of one class build up to
    D_u; the other maps are selections on generator sets, which read no
    residue, and are compared entry by entry."""
    try:
        cx = builder(ring, a, z, w)
    except (ArithmeticError, ValueError, AssertionError) as e:
        return type(e)
    if cx.spaces is not None:
        return closed_columns(cx)
    return tuple(cx.dims), tuple((mt.array.shape, mt.array.tobytes()) for mt in cx.maps)


def _residue_class_rings(p):
    # every log subset for m <= 2 at windows p + 2 and p + 4, for m = 3 at
    # window 1 (which keeps the test short), and the Laurent-spot ring
    for m in (1, 2, 3):
        for radius in (p + 2, p + 4) if m < 3 else (1,):
            for k in range(1, m + 1):
                for log in combinations(range(m), k):
                    yield FormRing(p, m, log=log, window=radius)
    # Laurent at the divisor: there w_z = 0 and w_z = 1 share the generator
    # sets of both log structures, and only [w_z = 0] tells them apart
    for m in (1, 2):
        for log in combinations(range(m), 1):
            yield FormRing(p, m, log=log, laurent=range(m), window=1)
    yield _residue_laurent_ring(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_class_keys_fix_each_complex(p):
    # the weight box widened by one on every side, so that the twist meets
    # w_z - 1 = hi_z, where T_z times a source term leaves the window
    complexes = classes = raised = 0
    for ring in _residue_class_rings(p):
        for a in range(ring.m + 1):
            box = [range(lo - 1, hi + 2) for lo, hi in ring.weight_box(a)]
            for z in sorted(ring.log):
                first = {}
                for w in product(*box):
                    keys = residue_class_keys(ring, a, z, w)
                    for t, key in enumerate(keys):
                        if key is None:
                            continue
                        got = _built(_RESIDUE_BUILDERS[t], ring, a, z, w)
                        want = first.setdefault((t, key), got)
                        assert got == want, (ring, a, z, w, t)
                        complexes += 1
                        raised += isinstance(got, type)
                classes += len(first)
    assert classes * 3 < complexes
    assert raised > 0


# -- pullback sequence ---------------------------------------------------------------


def test_pullback_ses_exact_grid():
    for c in (2, 3):
        for n in range(c):
            for chart in range(c):
                for w in ((0,) * c, (1,) + (0,) * (c - 1), (-1, 1) + (0,) * (c - 2)):
                    cx = pullback_ses(2, c, n, w, chart=chart)
                    assert cx.is_exact(), (c, n, chart, w)


# -- Euler and pullback classes: every weight against its class representative ------


def _complex_data(cx):
    return tuple(cx.dims), tuple((mt.array.shape, mt.array.tobytes()) for mt in cx.maps)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sign_class_fixes_each_euler_complex(p):
    # every chart from none to the torus, every weight of [-3, 3]^2,
    # [-2, 2]^3 and [-1, 1]^4, each complex built at its own weight
    complexes = classes = 0
    for n, radius in ((1, 3), (2, 2), (3, 1)):
        torus = frozenset(range(n + 1))
        charts = [frozenset(range(k)) for k in range(n + 1)] + [None]
        for j in range(n + 1):
            first = {}
            for w in product(range(-radius, radius + 1), repeat=n + 1):
                for chart in charts:
                    got = _complex_data(euler_complex(p, n, j, sum(w), w, inverted=chart))
                    want = first.setdefault(sign_class(w, torus if chart is None else chart), got)
                    assert got == want, (n, j, w, chart)
                    complexes += 1
            classes += len(first)
    assert classes * 5 < complexes


@pytest.mark.parametrize("p", [2, 3])
def test_sign_class_fixes_each_pullback_complex(p):
    complexes = classes = 0
    for c, radius in ((2, 3), (3, 2), (4, 1)):
        for n in range(c):
            first = {}
            for w in product(range(-radius, radius + 1), repeat=c):
                for chart in range(c):
                    got = _complex_data(pullback_ses(p, c, n, w, chart=chart))
                    want = first.setdefault(sign_class(w, (chart,)), got)
                    assert got == want, (c, n, w, chart)
                    complexes += 1
            classes += len(first)
    assert classes * 2 < complexes


def test_sign_class_reads_signs_off_the_chart():
    assert sign_class((2, 0, -5), (2,)) == (frozenset({2}), (1, 0))
    assert sign_class((-2, 0, 5), range(3)) == (frozenset(range(3)), ())
    assert sign_class((3, 1), ()) == sign_class((1, 7), ())
    # a negative coordinate off the chart: the zero complex
    assert sign_class((-2, 0, 5), (1,)) == sign_class((1, 1, -1), (1,)) == (frozenset({1}), None)


def test_pullback_ses_needs_two_charts():
    with pytest.raises(ValueError):
        pullback_ses(2, 1, 0, (0,))


def test_fundamental_ses_bookkeeping():
    ring = log_ring(2, m=2, radius=3)
    rep = fundamental_ses_check(ring, 0)
    assert rep.ok


def _fundamental_ses_per_weight(ring, z):
    """fundamental_ses_check with the conormal image taken at every degree-0
    weight and the dims compared at every weight: the walk by cells'
    oracle."""
    conormal_zero = True
    for b in ring.iter_weights(0):
        be = tuple(x + (1 if k == z else 0) for k, x in enumerate(b))
        if not ring.in_window(be):
            continue
        if not ring.monomial(be).d().restrict(z).is_zero():
            conormal_zero = False
    dring, _ = ring.drop_var(z)
    dims_match = True
    checked = 0
    for j in range(ring.m + 1):
        for w in ring.iter_weights(j):
            if w[z] != 0:
                continue
            wd = tuple(x for k, x in enumerate(w) if k != z)
            checked += 1
            if ring.slice(j, w).dim != dring.slice(j, wd).dim + dring.slice(j - 1, wd).dim:
                dims_match = False
    return conormal_zero, dims_match, checked


def _fundamental_ses_outcomes(rings):
    """For each (ring, z): fundamental_ses_check's verdicts and count, and
    the per-weight walk's, each as ("ok", ...) or ("raised", type, message)."""

    def outcome(fn, *args):
        try:
            return ("ok", fn(*args))
        except Exception as exc:  # the comparison is of type and message
            return ("raised", type(exc), str(exc))

    def by_cells(ring, z):
        rep = fundamental_ses_check(ring, z)
        return rep.conormal_image_zero, rep.dims_match, rep.checked_weights

    return [(outcome(by_cells, ring, z), outcome(_fundamental_ses_per_weight, ring, z)) for ring, z in rings]


def _fundamental_ses_rings(ps=(2, 3, 5)):
    """(ring, z) for p in ps, m <= 3, every log set with z its least index,
    Laurent nowhere, at z or at the last index off z, windows 1 and p + 1."""
    for p in ps:
        for m in (1, 2, 3):
            for size in range(1, m + 1):
                for log in combinations(range(m), size):
                    z = log[0]
                    last = [(k,) for k in range(m) if k != z][-1:]
                    for laurent in [(), (z,)] + last:
                        for window in (1, p + 1):
                            yield FormRing(p, m, log=log, laurent=laurent, window=window), z


def test_fundamental_ses_matches_per_weight_walk():
    rings = list(_fundamental_ses_rings())
    both = _fundamental_ses_outcomes(rings)
    assert all(got == want for got, want in both)
    wants = [want for _got, want in both]
    # a Laurent center puts 0 inside the conormal monomials' window: the
    # image survives there, and a negative exponent at z raises
    assert any(want[0] == "ok" and not want[1][0] for want in wants)
    assert any(want[0] == "raised" for want in wants)
    assert any(want[0] == "ok" and want[1][0] for want in wants)


def test_fundamental_ses_fails_like_per_weight_walk_where_p_does_not_divide(monkeypatch):
    # restrict keeps the image of d(T^v) at v_z >= 1 where p does not
    # divide some v_k off z, and the divisor dims of the ring are one short
    # where a plain coordinate k != z is inside its window (lo_k < w_k <=
    # hi_k): each walk fails only at some weights of a box, and a cell type
    # that misread p | w_k or the statuses would check cells whose first
    # weight passes
    restrict, layout = sequences.LogForm.restrict, FormRing.layout

    def leaky(form, i):
        if any(i not in gens and a[i] > 0 for a, gens in form.terms):
            return form.ring.drop_var(i)[0].one()
        return restrict(form, i)

    def short(ring, j, w):
        gens, index = layout(ring, j, w)
        inside = any(k not in ring.log and lo < x <= hi for k, (x, (lo, hi)) in enumerate(zip(w, ring.window)))
        return (gens[:-1], index) if ring.m == 3 and gens and inside else (gens, index)

    rings = [(ring, z) for ring, z in _fundamental_ses_rings((2, 3)) if not ring.laurent and ring.m > 1]
    monkeypatch.setattr(sequences.LogForm, "restrict", leaky)
    monkeypatch.setattr(FormRing, "layout", short)
    both = _fundamental_ses_outcomes(rings)
    assert all(got == want for got, want in both)
    wants = [want[1] for _got, want in both]
    assert any(not conormal for conormal, _dims, _checked in wants)
    assert any(not dims for _conormal, dims, _checked in wants)
    assert any(dims for _conormal, dims, _checked in wants)


# -- wedge filtration ----------------------------------------------------------------


def test_filtration_rejects_negative():
    with pytest.raises(ValueError):
        FiltrationSpec(-1, 2, 1)


def test_filtration_small_oracle():
    # V = U + W with ranks 2, 1; Wedge^1 V: graded dims [2, 1]
    rep = filtration(FiltrationSpec(2, 1, 1), 3)
    assert rep.graded_dims == [2, 1]
    assert rep.ok


def test_filtration_dims_binomial_product():
    for u, w, k in ((2, 2, 2), (3, 2, 3), (4, 1, 2)):
        rep = filtration(FiltrationSpec(u, w, k), 2)
        assert rep.ok
        assert rep.graded_dims == [comb(u, k - i) * comb(w, i) for i in range(k + 1)]
        assert sum(rep.graded_dims) == comb(u + w, k)


@pytest.mark.parametrize(
    "p,rows,cols,entries,rank,ok",
    [
        (5, 2, 3, {(0, 0): 1, (1, 2): 4}, 2, True),  # +1 and -1, one zero column
        (5, 2, 3, {(0, 0): 1, (1, 2): 4}, 3, False),  # too few nonzero columns
        (5, 2, 2, {(0, 0): 1, (0, 1): 1}, 2, False),  # two columns hit row 0
        (5, 2, 2, {(0, 0): 2, (1, 1): 1}, 2, False),  # 2 is not a sign
        (5, 2, 1, {(0, 0): 1, (1, 0): 1}, 1, False),  # a column with two entries
        (5, 2, 2, {(0, 0): 1, (1, 0): 1}, 2, False),  # the same, rows and count right
        (2, 3, 3, {(2, 0): 1, (0, 1): 1, (1, 2): 1}, 3, True),
        (3, 0, 4, {}, 0, True),  # no rows: every column is zero
        (3, 0, 4, {}, 1, False),
        (3, 3, 0, {}, 0, True),
    ],
)
def test_signed_permutation_check(p, rows, cols, entries, rank, ok):
    a = np.zeros((rows, cols), dtype=np.int64)
    for (r, c), x in entries.items():
        a[r, c] = x
    assert _is_signed_permutation_onto(FpMatrix(p, a), rank) is ok


def _step_verdicts(p, a, g, positions):
    """Every verdict `filtration` can read off a step complex, or the error
    its build raises."""
    try:
        cx = _filtration_step(p, a, g, positions)
    except IndexError:
        return "IndexError"
    phi = cx.maps[1]
    perm = [_is_signed_permutation_onto(phi, r) for r in range(len(positions) + 2)]
    return cx.homology_dims(), cx.exactness_verdicts(), cx.composition_zero(), cx.is_exact(), perm


@st.composite
def step_positions(draw):
    g = draw(st.integers(0, 40))
    in_order = list(range(g))
    positions = draw(
        st.one_of(
            st.just(in_order),  # the filtration's own steps
            st.permutations(in_order),  # out of order: still a permutation
            st.lists(st.integers(-g - 1, g + 1), max_size=g + 3),  # duplicates, out of range
        )
    )
    return g, positions


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), a=st.integers(0, 40), gp=step_positions())
def test_filtration_step_verdicts_are_its_graded_summands(p, a, gp):
    # the step is the identity on F^a plus 0 -> F^b -> F^g: every verdict,
    # and whether the build raises, is the summand's (`sequences`,
    # "Filtration classes")
    g, positions = gp
    assert _step_verdicts(p, a, g, positions) == _step_verdicts(p, 0, g, positions)


def test_filtration_step_summand_verdicts_fail_where_they_should():
    assert _step_verdicts(3, 4, 3, [0, 1, 2]) == ([0, 0, 0], [True] * 3, True, True, [False] * 3 + [True, False])
    assert _step_verdicts(3, 4, 3, [2, 0, 1])[3:] == (True, [False] * 3 + [True, False])
    assert _step_verdicts(3, 4, 3, [0, 0, 1])[:4] == ([0, 1, 1], [True, False, False], True, False)
    assert _step_verdicts(3, 4, 3, [0, 3]) == "IndexError"


def test_filtration_corollaries_exist_at_edges():
    rep = filtration(FiltrationSpec(3, 1, 2), 5)
    assert rep.ok
    assert rep.corollary_u is not None or rep.corollary_w is not None
