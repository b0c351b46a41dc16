"""Cech cohomology engine vs two independent oracles.

The twisted structure sheaf is recomputed here from scratch (plain monomial
dictionaries, textbook alternating differential) and the twisted j-forms are
checked against the classical closed-form dimensions, which hold over any
field for projective space.  Blowup charts are pinned by the derivation
identity du = d(chart monomial) rather than by re-deriving the atlas.
"""

import time
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from logcartier import cech
from logcartier.cech import (
    BlowupChart,
    BlowupSpace,
    CechComplex,
    CohomologyReport,
    ProjectiveSpace,
    ResourceLimit,
    SheafSpec,
    _count_at_most,
    _orbit_key,
    _pattern_dims,
    _region_count,
    _region_weights,
    blowup_charts,
    blowup_cohomology,
    cech_cohomology,
    connecting_map_check,
    formal_functions_check,
    generator_check,
)
from logcartier.forms import FormRing
from logcartier.gflinalg import FpMatrix
from logcartier.sequences import SectionSpace, log_section_space, weight_ring

# -- specs -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ProjectiveSpace(-1)
    with pytest.raises(ValueError):
        BlowupSpace(m=2, c=3)
    with pytest.raises(ValueError):
        BlowupSpace(m=3, c=1)
    with pytest.raises(ValueError):
        SheafSpec(3, ProjectiveSpace(2), 1, S=frozenset({3}))
    with pytest.raises(ValueError):
        SheafSpec(3, BlowupSpace(2, 2), 1, l=1)
    with pytest.raises(ValueError):
        SheafSpec(3, BlowupSpace(2, 2), 1, S=frozenset({0}))


def test_spec_labels():
    s = SheafSpec(3, ProjectiveSpace(2), 1, S=frozenset({0, 2}), l=-1)
    assert s.label() == "P2 Omega^1 log[0, 2] twist -1"
    assert SheafSpec(2, BlowupSpace(3, 2), 1).label() == "Bl(m=3,c=2) Omega^1"


# -- oracle 1: the structure sheaf from scratch ------------------------------


def _oracle_twist_dims(p, n, l):
    """Cohomology of the degree-l twist on P^n, recomputed on raw monomial
    dictionaries over the coordinate cover.  Each monomial's subcomplex is
    decided by its negative support alone, so any box containing the
    all-nonnegative and all-negative solutions of sum(w) = l is exact."""
    R = abs(l) + n + 2
    verts = range(n + 1)
    exps = [w for w in product(range(-R, R + 1), repeat=n + 1) if sum(w) == l]
    levels = [list(combinations(verts, k + 1)) for k in range(n + 1)]
    bases = {}
    for lev in levels:
        for I in lev:
            mono = sorted(w for w in exps if all(w[i] >= 0 for i in verts if i not in I))
            bases[I] = {w: k for k, w in enumerate(mono)}
    dims = [sum(len(bases[I]) for I in lev) for lev in levels]
    offs = []
    for lev in levels:
        off, table = 0, {}
        for I in lev:
            table[I] = off
            off += len(bases[I])
        offs.append(table)
    deltas = []
    for k in range(n):
        arr = np.zeros((dims[k + 1], dims[k]), dtype=np.int64)
        for J in levels[k + 1]:
            for t, g in enumerate(J):
                I = tuple(x for x in J if x != g)
                for w, c in bases[I].items():
                    arr[offs[k + 1][J] + bases[J][w], offs[k][I] + c] += (-1) ** t
        deltas.append(FpMatrix(p, arr))
    out = []
    for k in range(n + 1):
        r_in = deltas[k - 1].rank() if k > 0 else 0
        r_out = deltas[k].rank() if k < n else 0
        out.append(dims[k] - r_in - r_out)
    return out


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_twist_matches_independent_monomial_engine(p, n):
    for l in range(-4, 4):
        spec = SheafSpec(p, ProjectiveSpace(n), 0, l=l)
        assert cech_cohomology(spec).dims == _oracle_twist_dims(p, n, l)


# -- oracle 2: closed-form dimensions for twisted j-forms --------------------


def _closed_form_h(n, i, j, l):
    """h^i(P^n, Omega^j(l)): concentrated in degree 0 (l > j), degree j
    (l = 0), or degree n (l < j - n), with binomial-product dimensions."""
    if i == 0 and l > j:
        return comb(l + n - j, l) * comb(l - 1, j)
    if i == j and l == 0:
        return 1
    if i == n and l < j - n:
        return comb(-l + j, -l) * comb(-l - 1, n - j)
    return 0


@pytest.mark.parametrize("p", [2, 3])
def test_forms_match_closed_form_dimensions(p):
    for n in (1, 2):
        for j in range(n + 1):
            for l in range(-3, 4):
                spec = SheafSpec(p, ProjectiveSpace(n), j, l=l)
                want = [_closed_form_h(n, i, j, l) for i in range(n + 1)]
                assert cech_cohomology(spec).dims == want, (n, j, l)


def test_forms_closed_form_spot_p3():
    spec = SheafSpec(2, ProjectiveSpace(3), 2, l=0)
    assert cech_cohomology(spec).dims == [0, 0, 1, 0]
    spec = SheafSpec(3, ProjectiveSpace(3), 1, l=2)
    # h^0 = C(2+3-1, 2) * C(1, 1) = 6
    assert cech_cohomology(spec).dims == [6, 0, 0, 0]


# -- log sheaves: symmetry and additivity ------------------------------------


def test_log_dims_depend_only_on_arrangement_size():
    for l in (0, 1):
        a = cech_cohomology(SheafSpec(3, ProjectiveSpace(2), 1, S=frozenset({0}), l=l))
        b = cech_cohomology(SheafSpec(3, ProjectiveSpace(2), 1, S=frozenset({2}), l=l))
        assert a.dims == b.dims


def _chi(dims):
    return sum((-1) ** i * d for i, d in enumerate(dims))


@pytest.mark.parametrize("j", [1, 2])
def test_residue_additivity_of_euler_characteristics(j):
    # adding the hyperplane X_0 to the arrangement adds the characteristic
    # of (j-1)-forms on that hyperplane, by the residue sequence
    p = 3
    for base in (frozenset(), frozenset({1})):
        for l in (-1, 0, 1, 2):
            mid = cech_cohomology(SheafSpec(p, ProjectiveSpace(2), j, S=base | {0}, l=l))
            sub = cech_cohomology(SheafSpec(p, ProjectiveSpace(2), j, S=base, l=l))
            quo = cech_cohomology(
                SheafSpec(p, ProjectiveSpace(1), j - 1, S=frozenset(range(len(base))), l=l)
            )
            assert _chi(mid.dims) == _chi(sub.dims) + _chi(quo.dims), (base, l)


def test_top_log_twist_is_a_line_bundle_twist():
    # on P^n, top forms with one log pole carry the same cohomology as the
    # structure sheaf twisted down by n
    for n in (1, 2):
        for l in (-1, 0, 1, 2):
            logd = cech_cohomology(SheafSpec(5, ProjectiveSpace(n), n, S=frozenset({0}), l=l))
            line = cech_cohomology(SheafSpec(5, ProjectiveSpace(n), 0, l=l - n))
            assert logd.dims == line.dims


# -- report plumbing ----------------------------------------------------------


def test_report_per_weight_sums_to_totals():
    rep = cech_cohomology(SheafSpec(2, ProjectiveSpace(2), 1))
    assert dict(rep.per_weight) == {(0, 0, 0): [0, 1, 0]}
    totals = [0] * 3
    for d in rep.per_weight.values():
        for i, x in enumerate(d):
            totals[i] += x
    assert totals == rep.dims
    assert rep.stabilized


def test_report_json_shape():
    rep = cech_cohomology(SheafSpec(3, ProjectiveSpace(1), 0, l=1))
    doc = rep.to_json_dict()
    assert doc["spec"]["space"] == {"kind": "projective", "n": 1}
    assert doc["spec"]["p"] == 3 and doc["spec"]["l"] == 1
    assert doc["dims"] == [2, 0]
    assert doc["stabilized"] is True
    ws = [tuple(e["w"]) for e in doc["per_weight"]]
    assert ws == sorted(ws)
    blow = blowup_cohomology(2, 2, 0, 2)
    bdoc = blow.to_json_dict()
    assert bdoc["spec"]["space"] == {"kind": "blowup", "m": 2, "c": 2}
    assert bdoc["dims"][0] is None


@pytest.mark.parametrize(
    "j, l, box_radius, want",
    [(0, 3, 1, 4), (0, 3, 3, 3), (2, -6, 1, 8), (2, -6, 3, 6)],
)
def test_box_grows_from_explicit_radius(j, l, box_radius, want):
    # doubled from box_radius until it holds every weight with cohomology
    rep = cech_cohomology(SheafSpec(2, ProjectiveSpace(2), j, l=l), box_radius=box_radius)
    assert rep.box == ((-want, want),) * 3
    assert rep.stabilized


def test_resource_limit_is_loud(monkeypatch):
    spec = SheafSpec(2, ProjectiveSpace(2), 0, l=9)
    monkeypatch.setattr(cech, "MAX_BOX_RADIUS", 1)
    with pytest.raises(ResourceLimit):
        cech_cohomology(spec, box_radius=1)
    monkeypatch.setattr(cech, "MAX_BOX_RADIUS", 4)
    with pytest.raises(ResourceLimit):
        cech_cohomology(spec, box_radius=8)


def test_nonpositive_box_radius_and_negative_degree_are_rejected():
    spec = SheafSpec(2, ProjectiveSpace(2), 0, l=1)
    for r in (0, -3):
        with pytest.raises(ValueError):
            cech_cohomology(spec, box_radius=r)
        with pytest.raises(ValueError):
            blowup_cohomology(2, 2, 0, 2, box_radius=r)
    with pytest.raises(ValueError):
        SheafSpec(2, ProjectiveSpace(2), -1)


# -- the orbit key and the per-weight map against the honest engine -----------


def _count_complexes(monkeypatch):
    """A list that grows by one per CechComplex built."""
    built = []
    init = CechComplex.__init__
    monkeypatch.setattr(
        CechComplex, "__init__", lambda self, *a: built.append(1) or init(self, *a)
    )
    return built


@lru_cache(maxsize=None)
def _honest_pattern_dims(p, n, j, S, tau):
    """Homology of the full Cech complex at the sign pattern tau, each section
    space built at the weight tau itself: no cone shortcut, no shared slice."""
    ring = weight_ring(p, n, tau)
    cx = CechComplex(
        p, range(n + 1), lambda I: log_section_space(ring, j, S, frozenset(I), tau)
    )
    return tuple(cx.homology_dims())


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_key_matches_raw_patterns(p):
    # a coordinate permutation maps (S, tau) to its key, so the raw complex
    # and the complex at the key must have the same homology; for every S
    # inside N = {k : tau_k < 0} the key drops S, since every nonzero V_I has
    # N, so S, inside I
    for n in (1, 2, 3):
        subsets = {frozenset(), frozenset({0}), frozenset({1, n}), frozenset(range(n + 1))}
        for j in range(n + 1):
            for tau in product((-1, 0, 1), repeat=n + 1):
                negative = [k for k, t in enumerate(tau) if t < 0]
                inside = {
                    frozenset(c) for r in range(len(negative) + 1) for c in combinations(negative, r)
                }
                for S in subsets | inside:
                    key = _orbit_key(n, S, tau)
                    if S in inside:
                        assert key == (frozenset(), tuple(sorted(tau))), (n, S, tau)
                    raw = _honest_pattern_dims(p, n, j, S, tau)
                    assert raw == _honest_pattern_dims(p, n, j, *key), (n, j, S, tau)
                    assert raw == _pattern_dims(p, n, j, *key), (n, j, S, tau)


@pytest.mark.parametrize("p", [2, 3])
def test_cone_argument_matches_honest_complex(p):
    # a coordinate with w_k >= 1, or with w_k = 0 and k in S, makes the Cech
    # complex a cone on k: H^0 is the section space on U_k and no higher
    # cohomology survives; a negative coordinate kills that space too.  This is
    # why the engine computes one-signed sign patterns only, and reads a cone's
    # dims off one space.  A zero inside S can leave H^0 nonzero.
    zero_in_S_h0 = False
    for n in (0, 1, 2, 3):
        subsets = {frozenset(), frozenset({0}), frozenset({0, n}), frozenset(range(n + 1))}
        for j, S, tau in product(range(n + 1), subsets, product((-1, 0, 1), repeat=n + 1)):
            cones = [k for k, t in enumerate(tau) if t > 0 or (t == 0 and k in S)]
            if not cones:
                continue
            h = _honest_pattern_dims(p, n, j, S, tau)
            assert _pattern_dims(p, n, j, S, tau) == h, (n, j, S, tau)
            if -1 in tau:
                assert h == (0,) * (n + 1), (n, j, S, tau)
                continue
            ring = weight_ring(p, n, tau)
            for k in cones:
                h0 = log_section_space(ring, j, S, {k}, tau).dim
                assert h == (h0,) + (0,) * n, (n, j, S, tau, k)
            zero_in_S_h0 = zero_in_S_h0 or (h[0] > 0 and 1 not in tau)
    assert zero_in_S_h0


@pytest.mark.parametrize("p", [2, 3])
def test_zero_coordinate_at_degree_zero_is_a_cone(p, monkeypatch):
    # at j = 0 a section has no dlog factor, so a zero coordinate is invisible
    # to the chart constraints whatever S: the complex is a cone, with H^0 the
    # line of X^w, or 0 when tau has a negative coordinate, and none is built
    cases = [
        (n, frozenset(S), tau)
        for n in (0, 1, 2, 3)
        for r in range(n + 2)
        for S in combinations(range(n + 1), r)
        for tau in product((-1, 0, 1), repeat=n + 1)
        if 0 in tau
    ]
    honest = [_honest_pattern_dims(p, n, 0, S, tau) for n, S, tau in cases]
    built = _count_complexes(monkeypatch)
    cech._pattern_dims.cache_clear()
    for (n, S, tau), h in zip(cases, honest):
        assert h == (int(-1 not in tau),) + (0,) * n, (n, S, tau)
        assert _pattern_dims(p, n, 0, S, tau) == h, (n, S, tau)
        assert _pattern_dims(p, n, 0, *_orbit_key(n, S, tau)) == h, (n, S, tau)
    assert not built


@pytest.mark.parametrize("p", [2, 3])
def test_section_space_depends_only_on_support_set(p):
    # every variable is log, so V_I at tau has the same coordinates at every
    # weight and depends on tau only through S + I + {k : tau_k > 0}, unless
    # tau is negative outside I
    for n in (0, 1, 2, 3):
        subsets = {frozenset(), frozenset({0}), frozenset({0, n}), frozenset(range(n + 1))}
        charts = [frozenset(I) for k in range(n + 2) for I in combinations(range(n + 1), k)]
        for tau in product((-1, 0, 1), repeat=n + 1):
            ring = weight_ring(p, n, tau)
            for j, S, I in product(range(n + 1), subsets, charts):
                got = cech._pattern_space(p, n, j, S, I, tau)
                want = log_section_space(ring, j, S, I, tau)
                assert [g for _a, g in got.ambient.basis] == [g for _a, g in want.ambient.basis]
                assert np.array_equal(got.basis.array, want.basis.array), (n, j, S, I, tau)
                if any(t < 0 for i, t in enumerate(tau) if i not in I):
                    assert got.dim == 0, (n, j, S, I, tau)


def test_cone_patterns_build_no_complex_and_spaces_are_built_once(monkeypatch):
    built, spaces, keys = [], [], []
    init = CechComplex.__init__

    def building(self, *a):
        built.append(1)
        try:
            init(self, *a)
        finally:
            built.append(0)

    monkeypatch.setattr(CechComplex, "__init__", building)
    make = cech.log_section_space
    monkeypatch.setattr(
        cech, "log_section_space", lambda *a, **k: spaces.append(a) or make(*a, **k)
    )
    # every complex asks for its V_I through _pattern_space, and so does a
    # cone read, outside any complex; built ends in 1 while one is built
    space = cech._pattern_space
    monkeypatch.setattr(
        cech,
        "_pattern_space",
        lambda p, n, j, S, I, tau: keys.append((built[-1:] == [1], S, tau))
        or space(p, n, j, S, I, tau),
    )
    specs = [
        SheafSpec(2, ProjectiveSpace(n), j, S=S, l=l)
        for n in (1, 2, 3, 4)
        for j in range(n + 1)
        for S in (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(n + 1)))
        for l in (-n - 2, -3, -1, 0, 1, 3)
    ]
    cech._pattern_dims.cache_clear()
    first = [cech_cohomology(spec).dims for spec in specs]
    positive = [dims for spec, dims in zip(specs, first) if spec.l > 0]
    assert any(any(dims) for dims in positive)
    # a complex is built only at a pattern negative on all of S, and keyed
    # with S empty, so no complex is built at a zero coordinate inside S
    in_complex = {(S, tau) for inside, S, tau in keys if inside}
    assert in_complex
    assert all(not S for S, _tau in in_complex)
    cech._pattern_dims.cache_clear()
    built.clear()
    for spec in specs:
        if spec.l > 0:
            cech_cohomology(spec)
    assert not built
    # at l = -1 the only patterns have one -1: (-1, 0, ..) is negative on
    # S = {0}, so it shares the S-empty complex, and (0, -1, ..) is a cone;
    # at j = 0 every zero coordinate is a cone, so neither builds a complex
    for n in (1, 2, 3, 4):
        for j in range(n + 1):
            cech._pattern_dims.cache_clear()
            built.clear()
            for S in (frozenset(), frozenset({0})):
                cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j, S=S, l=-1))
            assert sum(built) == (1 if j else 0), (n, j)
    # the all-negative pattern at S empty still builds its complex
    cech._pattern_dims.cache_clear()
    built.clear()
    cech_cohomology(SheafSpec(2, ProjectiveSpace(1), 1, l=-3))
    assert built
    cech._pattern_dims.cache_clear()
    spaces.clear()
    assert [cech_cohomology(spec).dims for spec in specs] == first
    assert built and not spaces


def test_cached_section_spaces_and_blocks_are_read_only():
    p, n, j, S, tau = 2, 2, 1, frozenset(), (0, 0, 0)
    cx = CechComplex(p, range(n + 1), lambda I: cech._pattern_space(p, n, j, S, I, tau))
    edge, top = cx.spaces[(0, 1)], cx.spaces[(0, 1, 2)]
    assert (edge.dim, top.dim) == (1, 2)
    block = top.coords_of_space(edge)
    assert block is top.coords_of_space(edge)
    for array in (edge.basis.array, top.basis.array, block):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    assert cx.homology_dims() == [0, 1, 0]


def test_no_complex_for_mixed_patterns(monkeypatch):
    requested = []
    built = []
    dims = cech._pattern_dims
    monkeypatch.setattr(
        cech, "_pattern_dims", lambda *a: requested.append(a[-1]) or dims(*a)
    )
    init = CechComplex.__init__
    monkeypatch.setattr(
        CechComplex, "__init__", lambda self, *a: built.append(1) or init(self, *a)
    )
    for n in range(5):
        for j in range(n + 1):
            dims.cache_clear()
            built.clear()
            cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j))
            # the all-zero pattern is a cone at j = 0 only
            assert len(built) == (1 if j else 0), (n, j)
    for n in (1, 2, 3):
        for j in range(n + 1):
            for S in (frozenset(), frozenset({n})):
                for l in (-n - 2, -1, 0, 2):
                    cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j, S=S, l=l))
    assert requested
    assert not [tau for tau in requested if 1 in tau and -1 in tau]


def _ball_walk_per_weight(spec):
    """Every weight of the ball of radius |l| + n + 1 with nonzero dims at its
    raw sign pattern; pure patterns have all their weights in that ball."""
    n = spec.space.n
    r = abs(spec.l) + n + 1
    out = {}
    for w in product(range(-r, r + 1), repeat=n + 1):
        if sum(w) != spec.l:
            continue
        tau = tuple((x > 0) - (x < 0) for x in w)
        h = _pattern_dims(spec.p, n, spec.j, spec.S, tau)
        if any(h):
            out[w] = list(h)
    return out


def test_per_weight_matches_ball_walk():
    p = 2
    for n in (1, 2, 3):
        for j in range(n + 1):
            for S in (frozenset(), frozenset({n})):
                for l in (-n - 2, -1, 0, 2):
                    spec = SheafSpec(p, ProjectiveSpace(n), j, S=S, l=l)
                    got = list(cech_cohomology(spec).per_weight.items())
                    assert got == list(_ball_walk_per_weight(spec).items()), (n, j, S, l)


def test_p5_forms_and_log_split():
    assert cech_cohomology(SheafSpec(2, ProjectiveSpace(5), 2)).dims == [0, 0, 1, 0, 0, 0]
    # Omega^1(log D_S) = O^{|S|-1} + O(-1)^{n+1-|S|} for nonempty S
    n, S, l = 5, frozenset({0, 2, 4}), -5
    rep = cech_cohomology(SheafSpec(3, ProjectiveSpace(n), 1, S=S, l=l))
    want = [
        (len(S) - 1) * _closed_form_h(n, i, 0, l) + (n + 1 - len(S)) * _closed_form_h(n, i, 0, l - 1)
        for i in range(n + 1)
    ]
    assert want == [0, 0, 0, 0, 0, 3]
    assert rep.dims == want


# -- explicit generators and the connecting map -------------------------------


@pytest.mark.parametrize("p", [2, 5])
def test_alternating_generator_spans(p):
    for n in (1, 2, 3):
        for j in range(n + 1):
            rep = generator_check(p, n, j)
            assert rep.spans, (n, j)
            assert rep.h_dim == 1


def test_generator_check_rejects_bad_degree():
    with pytest.raises(ValueError):
        generator_check(3, 2, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_connecting_map_is_an_isomorphism(p):
    for n in (1, 2, 3):
        rep = connecting_map_check(p, n)
        assert rep.is_isomorphism, n
        assert rep.image_class_scalar == 1
        assert rep.lift_residue_matches


def test_connecting_map_needs_a_divisor():
    with pytest.raises(ValueError):
        connecting_map_check(3, 0)


# -- blowup charts -------------------------------------------------------------


def test_atlas_validation_and_strict_transform():
    with pytest.raises(ValueError):
        blowup_charts(3, 1)
    with pytest.raises(ValueError):
        blowup_charts(2, 3)
    atlas = blowup_charts(3, 2)
    assert len(atlas.charts) == 2


def test_chart_exponents_invert_weights():
    for c in (2, 3):
        atlas = blowup_charts(3, c)
        for ch in atlas.charts:
            for b in product(range(-2, 3), repeat=3):
                w = [0, 0, 0]
                for i, e in enumerate(b):
                    w = [a + e * v for a, v in zip(w, ch.var_weight(i))]
                assert ch.exponents_from_weight(tuple(w)) == b


def _gen_form(ring, chart, i):
    """dlog u_i = sum_k var_weight(i)_k dlog T_k in an all-log ring."""
    form = ring.zero(1)
    for k, e in enumerate(chart.var_weight(i)):
        if e:
            form = form + ring.gen(k) * e
    return form


def _dlog_wedge(sl, chart, G) -> np.ndarray:
    """Coordinates of dlog u_{g_1} ^ .. ^ dlog u_{g_j} in the weight-0 slice sl."""
    form = sl.ring.one()
    for i in G:
        form = form.wedge(_gen_form(sl.ring, chart, i))
    return sl.to_vector(form)


def test_chart_generators_are_derivatives_of_chart_monomials():
    # the var_weight rows give dlog u_i: u_i * dlog u_i = d(T-monomial of u_i)
    ring = FormRing(3, 3, log=range(3), laurent=range(3), window=6)
    for c in (2, 3):
        for ch in blowup_charts(3, c).charts:
            for i in range(3):
                mono = ring.monomial(ch.var_weight(i))
                assert mono.wedge(_gen_form(ring, ch, i)) == mono.d(), (c, ch.q, i)


def _weight_w_section_columns(ring, atlas, j, Q, w):
    """Oracle: the blowup sections on U_Q built at weight w itself, as
    T^wg ^ prod_{i in G} g_i with g_i = T^(gen_weight - var_weight) d(T^var_weight),
    which is du_i, or dlog u_i at log indices; coordinates in the weight-w
    slice of a Laurent ring."""
    Q = tuple(sorted(Q))
    ch = atlas.charts[Q[0]]
    sl = ring.slice(j, w)
    cols = []
    for G in combinations(range(atlas.m), j):
        wg = list(w)
        for i in G:
            wg = [a - b for a, b in zip(wg, ch.gen_weight(i))]
        b = ch.exponents_from_weight(wg)
        if any(b[i] < 0 for i in range(atlas.m) if i not in Q[1:]):
            continue
        form = ring.monomial(tuple(wg))
        for i in G:
            vw = ch.var_weight(i)
            unit = tuple(g - v for g, v in zip(ch.gen_weight(i), vw))
            form = form.wedge(ring.monomial(unit).wedge(ring.monomial(vw).d()))
        cols.append(sl.to_vector(form))
    return cols


def _dlog_span(sl, wedges, valid) -> SectionSpace:
    """The span of the wedge columns of the j-subsets in valid, as a section
    space whose inclusion blocks are solved."""
    return SectionSpace(sl, FpMatrix.from_columns(sl.ring.p, [wedges[G] for G in valid], sl.dim))


def blowup_section_space(ring, atlas, j, Q, w):
    """Sections of Omega^j(log(E + Dbar)) on the chart intersection U_Q at
    T-multidegree w, moved by T^-w into the weight-0 slice of the all-log
    ring: the span of the dlog u_G that pass the threshold test, one
    intersection at a time (the engine reads these off its key tables)."""
    Q = tuple(sorted(Q))
    chart = atlas.charts[Q[0]]
    sl = ring.slice(j, (0,) * ring.m)
    forms, _bounds, (table,) = cech._thresholds(atlas, j, [Q])
    subsets = list(combinations(range(atlas.m), j))
    valid = [subsets[k] for k in cech._valid_dlogs(table, [cech._form_value(f, w) for f in forms])]
    return _dlog_span(sl, {G: _dlog_wedge(sl, chart, G) for G in valid}, valid)


def test_weight_zero_sections_match_weight_w_construction():
    # multiplication by T^-w carries each weight-w section space onto the
    # engine's weight-0 one, coordinate for coordinate
    p, radius = 3, 2
    for m in (2, 3):
        zero_ring = FormRing(p, m, log=range(m), window=0)
        for c in range(2, m + 1):
            atlas = blowup_charts(m, c)
            covers = [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]
            for j in range(m + 1):
                ring = FormRing(p, m, log=range(m), laurent=range(m), window=radius + j + 2)
                for Q in covers:
                    for w in product(range(-radius, radius + 1), repeat=m):
                        got = blowup_section_space(zero_ring, atlas, j, Q, w).basis
                        want = _weight_w_section_columns(ring, atlas, j, Q, w)
                        assert got.cols == len(want), (m, c, j, Q, w)
                        for k, col in enumerate(want):
                            assert np.array_equal(got.column(k), col), (m, c, j, Q, w, k)


def test_dependent_chart_sections_raise(monkeypatch):
    # a chart whose dlog u_i all coincide has dependent sections at j = 1, and
    # its exterior powers are no longer mutually inverse; the once-per-chart
    # check must still catch it
    monkeypatch.setattr(BlowupChart, "var_weight", lambda self, i: (1,) + (0,) * (self.m - 1))
    with pytest.raises(AssertionError, match="blowup chart sections are not independent"):
        blowup_cohomology(2, 2, 1, 3, box_radius=1)


@pytest.mark.parametrize("m, c, j, p", [(3, 2, 1, 2), (3, 3, 2, 3), (4, 4, 2, 2), (5, 5, 2, 2)])
def test_transition_blocks_match_solve_path(m, c, j, p):
    # on every signature of the key table, the class complex read off the
    # chart transition matrices has the differentials, and so the dims, of
    # the one that solves each inclusion block
    atlas = blowup_charts(m, c)
    cover = [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]
    _forms, bounds, tables = cech._thresholds(atlas, j, cover)
    keys = product(*(range(lo, hi + 1) for lo, hi in bounds))
    signatures = {tuple(cech._valid_dlogs(t, key) for t in tables) for key in keys}
    transitions = cech._chart_transitions(p, atlas, j)
    sl = FormRing(p, m, log=range(m), window=0).slice(j, (0,) * m)
    subsets = list(combinations(range(m), j))
    wedges = [{G: _dlog_wedge(sl, chart, G) for G in subsets} for chart in atlas.charts]
    assert len(signatures) > 1
    for signature in signatures:
        valid = dict(zip(cover, signature))
        want = CechComplex(
            p, range(c), lambda Q: _dlog_span(sl, wedges[Q[0]], [subsets[k] for k in valid[Q]])
        )
        got = CechComplex(
            p, range(c), lambda Q: cech._DlogSpan(Q[0], np.array(valid[Q], dtype=np.intp), transitions)
        )
        assert all(a == b for a, b in zip(got.deltas, want.deltas)), signature
        dims = cech._class_dims(p, cover, transitions, signature)
        assert dims == tuple(want.homology_dims()), signature


def _solved_transitions(p, atlas, j):
    """Reference: T[a][b] by one solve per ordered chart pair, on the dlog
    wedges of each chart in the weight-0 slice of an all-log ring."""
    m = atlas.m
    sl = FormRing(p, m, log=range(m), window=0).slice(j, (0,) * m)
    subsets = list(combinations(range(m), j))
    wedges = [
        FpMatrix.from_columns(p, [_dlog_wedge(sl, ch, G) for G in subsets], sl.dim)
        for ch in atlas.charts
    ]
    return [[wb.solve(wa.array) for wb in wedges] for wa in wedges]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transitions_match_solve_reference(p):
    # the exterior powers of the var_weight rows give, mod p, the coordinates
    # that solving each chart's dlog wedges in another chart's gives
    for m in (2, 3, 4, 5):
        for c in range(2, m + 1):
            atlas = blowup_charts(m, c)
            for j in range(m + 1):
                got = cech._chart_transitions(p, atlas, j)
                want = _solved_transitions(p, atlas, j)
                for a, b in product(range(c), repeat=2):
                    assert got[a][b].dtype == np.int64
                    assert np.array_equal(got[a][b], want[a][b]), (m, c, j, a, b)


def _det(rows) -> int:
    """Exact integer determinant, by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** k * x * _det([r[:k] + r[k + 1 :] for r in rows[1:]])
        for k, x in enumerate(rows[0])
        if x
    )


@pytest.mark.parametrize("p", [2, 3])
def test_transitions_are_minors_of_the_chart_change(p):
    # Cauchy-Binet: column G of T_{a->b} holds det (M_a M_b^-1)[G, H] over H,
    # where the var_weight matrix M_b is unimodular with inverse 2I - M_b
    for m in (2, 3, 4):
        eye = np.eye(m, dtype=np.int64)
        for c in range(2, m + 1):
            atlas = blowup_charts(m, c)
            M = [np.array([ch.var_weight(i) for i in range(m)]) for ch in atlas.charts]
            assert all(np.array_equal(Mq @ (2 * eye - Mq), eye) for Mq in M)
            for j in range(m + 1):
                T = cech._chart_transitions(p, atlas, j)
                subsets = list(combinations(range(m), j))
                for a, b in product(range(c), repeat=2):
                    N = (M[a] @ (2 * eye - M[b])).tolist()
                    want = [
                        [_det([[N[g][h] for h in H] for g in G]) % p for G in subsets]
                        for H in subsets
                    ]
                    assert np.array_equal(T[a][b], want), (m, c, j, a, b)


def test_inclusion_outside_target_span_raises(monkeypatch):
    # drop the first valid dlog from every intersection of two charts: at a
    # weight where chart 0 has both dlog u_0 and dlog u_1, the column of
    # dlog u_0 in V_(0) lands on a row missing from V_(0, 1)
    valid_dlogs = cech._valid_dlogs

    def narrowed(table, values):
        valid = valid_dlogs(table, values)
        two_charts = len(table[0]) < 2  # U_(0, 1) checks one coordinate, not both
        return valid[1:] if two_charts and len(valid) > 1 else valid

    monkeypatch.setattr(cech, "_valid_dlogs", narrowed)
    with pytest.raises(AssertionError, match="leaves the valid dlog span of its target"):
        blowup_cohomology(2, 2, 1, 3, box_radius=1)


def _valid_by_weight(atlas, j, Q, w):
    """The j-subsets G valid on U_Q at weight w, by the direct test: chart
    exponents of w minus the generator weights of G nonnegative off Q[1:]."""
    ch = atlas.charts[Q[0]]
    out = []
    for G in combinations(range(atlas.m), j):
        wg = list(w)
        for i in G:
            wg = [a - b for a, b in zip(wg, ch.gen_weight(i))]
        b = ch.exponents_from_weight(wg)
        if all(b[i] >= 0 for i in range(atlas.m) if i not in Q[1:]):
            out.append(G)
    return tuple(out)


def _blowup_weights(m, c, radius):
    """The blowup weight box in lex order: [-r, r] at the first c
    coordinates, [0, r] at the rest."""
    return product(*[range(-radius, radius + 1)] * c, *[range(0, radius + 1)] * (m - c))


def _per_weight_blowup(m, c, j, p, box_radius=None):
    """Oracle: one Cech complex per weight, walked over the shells and the
    box whose weights the class-keyed engine counts."""
    atlas = blowup_charts(m, c)
    ring = FormRing(p, m, log=range(m), window=0)
    sl = ring.slice(j, (0,) * m)

    def dims_at(w):
        def space(Q):
            ch = atlas.charts[Q[0]]
            cols = []
            for G in _valid_by_weight(atlas, j, Q, w):
                form = ring.one()
                for i in G:
                    form = form.wedge(_gen_form(ring, ch, i))
                cols.append(sl.to_vector(form))
            return SectionSpace(sl, FpMatrix.from_columns(p, cols, sl.dim))

        return CechComplex(p, range(c), space).homology_dims()

    radius = box_radius if box_radius is not None else max(j, p) + 2
    while any(
        any(dims_at(w)[1:]) for w in _blowup_weights(m, c, radius + 1) if max(map(abs, w)) == radius + 1
    ):
        radius *= 2
    per_weight, totals = {}, [0] * c
    for w in _blowup_weights(m, c, radius):
        dims = dims_at(w)
        if any(dims):
            per_weight[w] = dims
        totals = [a + b for a, b in zip(totals, dims)]
    box = tuple((-radius, radius) if i < c else (0, radius) for i in range(m))
    spec = SheafSpec(p=p, space=BlowupSpace(m=m, c=c), j=j)
    return CohomologyReport(spec, [None] + totals[1:], per_weight, box, True)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("box_radius", [1, 2])
def test_validity_classes_match_per_weight_engine(p, box_radius):
    for m in (2, 3, 4) if box_radius == 1 else (2, 3):
        for c in range(2, m + 1):
            for j in range(m + 1):
                got = blowup_cohomology(m, c, j, p, box_radius=box_radius)
                want = _per_weight_blowup(m, c, j, p, box_radius=box_radius)
                assert got.to_json_dict() == want.to_json_dict(), (m, c, j)
                # the listing comes in the walk's order
                assert list(got.per_weight) == list(want.per_weight), (m, c, j)


def test_count_at_most_matches_enumeration():
    heads = ([], [(0, 0)], [(-2, 3)], [(-1, 1), (2, 2), (0, 4)], [(-3, 3)] * 3, [(1, 0)])
    for ranges in heads:
        sums = [sum(x) for x in product(*(range(a, b + 1) for a, b in ranges))]
        for total in range(-12, 13):
            assert _count_at_most(ranges, total) == sum(s <= total for s in sums), (ranges, total)
    # a region lists the weights of its box whose head sums lie in the sum
    # range, in lex order, as many as it counts
    for head in heads:
        for tail in ([], [(0, 2)], [(1, 1), (-1, 2)]):
            for sums in ((0, 0), (2, 2), (-3, -3), (9, 9), (-4, 5), (1, 3)):
                box = product(*(range(a, b + 1) for a, b in head + tail))
                want = [w for w in box if sums[0] <= sum(w[: len(head)]) <= sums[1]]
                args = (head, tail, sums)
                assert list(_region_weights(*args)) == want, args
                assert _region_count(*args) == len(want), args


def _sorted_weight(w, c):
    """The weight of w's orbit under S_{c-1} x S_{m-c} with w_1..w_{c-1}
    sorted, and w_c..w_{m-1} sorted."""
    return (w[0],) + tuple(sorted(w[1:c])) + tuple(sorted(w[c:]))


def test_one_complex_per_validity_class(monkeypatch):
    built = _count_complexes(monkeypatch)
    m, c, j, p = 3, 3, 1, 2
    rep = blowup_cohomology(m, c, j, p, box_radius=2)
    # the shells and the box the engine counts make up the box one step out;
    # a class is read at the sorted weight of its orbit
    radius = rep.box[0][1]
    atlas = blowup_charts(m, c)
    covers = [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]
    walked = list(_blowup_weights(m, c, radius + 1))
    raw = {tuple(_valid_by_weight(atlas, j, Q, w) for Q in covers) for w in walked}
    signatures = {
        tuple(_valid_by_weight(atlas, j, Q, _sorted_weight(w, c)) for Q in covers) for w in walked
    }
    assert 1 < len(signatures) < len(raw) < len(walked)
    assert len(built) == len(signatures)


@pytest.mark.parametrize("m, c, j, p, complexes", [(4, 4, 2, 2, 17), (5, 5, 2, 2, 26)])
def test_complexes_per_orbit_of_classes(monkeypatch, m, c, j, p, complexes):
    built = _count_complexes(monkeypatch)
    blowup_cohomology(m, c, j, p)
    assert len(built) == complexes


@pytest.mark.parametrize(
    "m, c, j, p", [(4, 4, 2, 2), (4, 3, 2, 3), (5, 5, 2, 2), (5, 3, 3, 2), (4, 4, 4, 2)]
)
def test_permuted_keys_have_the_same_dims(m, c, j, p):
    # a permutation sigma of the head indices 1..c-1 and of the tail indices
    # c..m-1 is an automorphism of (Bl_Z(A^m), E + Dbar) that maps U_Q to
    # U_sigma(Q), so a key and its permuted key have class complexes with the
    # same dims, and the engine's canonical key lies in the key's orbit
    atlas = blowup_charts(m, c)
    cover = [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]
    forms, bounds, tables = cech._thresholds(atlas, j, cover)
    transitions = cech._chart_transitions(p, atlas, j)
    blocks = cech._symmetric_positions(forms, c)
    moves = []  # per sigma, the position of sigma(form) for each form
    for head in permutations(range(1, c)):
        for tail in permutations(range(c, m)):
            sigma = (0,) + head + tail
            images = [tuple(f[sigma.index(i)] for i in range(m)) for f in forms]
            moves.append([forms.index(g) for g in images])
    assert len(moves) > 1
    assert all(bounds[g] == bounds[f] for move in moves for f, g in enumerate(move))
    memo = {}

    def dims(key):
        signature = tuple(cech._valid_dlogs(t, key) for t in tables)
        if signature not in memo:
            memo[signature] = cech._class_dims(p, cover, transitions, signature)
        return memo[signature]

    for key in product(*(range(lo, hi + 1) for lo, hi in bounds)):
        orbit = set()
        for move in moves:
            permuted = [None] * len(key)
            for f, g in enumerate(move):
                permuted[g] = key[f]
            orbit.add(tuple(permuted))
            assert dims(tuple(permuted)) == dims(key), (key, move)
        assert cech._canonical_key(key, blocks) in orbit, key
    assert len(memo) > 1


def test_blowup_box_doubles_while_higher_cohomology_gains_weights(monkeypatch):
    # every validity class has weights at every radius, so once one class has
    # higher cohomology (here a fake H^1 on the class where every dlog is
    # valid on every intersection) the shell test fails at each radius and
    # the box doubles up to the cap
    m, c, j, p = 2, 2, 1, 2
    dims = cech._class_dims
    monkeypatch.setattr(
        cech,
        "_class_dims",
        lambda p, cover, transitions, signature: dims(p, cover, transitions, signature)[:1]
        + (int(all(len(v) == comb(m, j) for v in signature)),)
        + (0,) * (c - 2),
    )
    radii = []
    preimages = cech._key_preimages
    monkeypatch.setattr(
        cech, "_key_preimages", lambda *a: radii.append(a[-1]) or preimages(*a)
    )
    with pytest.raises(ResourceLimit, match="blowup box not stabilized at radius 64"):
        blowup_cohomology(m, c, j, p)
    assert radii == [4, 8, 16, 32, 64]
    # without it the first shell is clear
    monkeypatch.setattr(cech, "_class_dims", dims)
    radii.clear()
    assert blowup_cohomology(m, c, j, p).box == ((-4, 4), (-4, 4))
    assert radii == [4]


def _listing_probe(monkeypatch) -> list:
    """A list that grows by one at each _region_weights call."""
    listed = []
    region_weights = cech._region_weights
    monkeypatch.setattr(cech, "_region_weights", lambda *a: listed.append(1) or region_weights(*a))
    return listed


def test_blowup_listing_cap_from_counts(monkeypatch):
    # (2, 2, 1) at radius 2 has 9 weights with cohomology; the report, its len
    # and its dims come from the counts, and the first read of the map checks
    # the count against the cap before any weight is listed
    listed = _listing_probe(monkeypatch)
    monkeypatch.setattr(cech, "MAX_LISTED_WEIGHTS", 8)
    rep = blowup_cohomology(2, 2, 1, 2, box_radius=2)
    assert len(rep.per_weight) == 9
    assert rep.dims[1:] == [0]
    assert not listed
    with pytest.raises(ResourceLimit, match=r"9 weights with cohomology to list \(cap 8\)"):
        next(iter(rep.per_weight))
    assert not listed
    monkeypatch.setattr(cech, "MAX_LISTED_WEIGHTS", 9)
    assert len(list(rep.per_weight)) == 9
    assert listed


def _listing_grid(space):
    """(spec, box_radius) over every j of the space: for P^n several log sets
    and twists, each at its own starting radius and at radius 1, which
    doubles; for a blowup p in {2, 3}."""
    if isinstance(space, ProjectiveSpace):
        n = space.n
        for j, S, l, r in product(range(n + 1), ({0}, {0, n}, ()), (-6, -2, 0, 1, 3), (None, 1)):
            yield SheafSpec(2, space, j, S=frozenset(S), l=l), r
    else:
        for p, j in product((2, 3), range(space.m + 1)):
            yield SheafSpec(p, space, j), None


@pytest.mark.parametrize(
    "space",
    [ProjectiveSpace(n) for n in range(1, 5)]
    + [BlowupSpace(m, c) for m in range(2, 5) for c in range(2, m + 1)],
    ids=lambda space: space.label(),
)
def test_listing_agrees_with_counts(monkeypatch, space):
    listed = _listing_probe(monkeypatch)
    for spec, box_radius in _listing_grid(space):
        listed.clear()
        rep = cech_cohomology(spec, box_radius=box_radius)
        count, dims = len(rep.per_weight), list(rep.dims)
        assert not listed, spec
        weights = list(rep.per_weight)
        assert len(weights) == count, spec
        assert all(a < b for a, b in zip(weights, weights[1:])), spec
        for i, total in enumerate(dims):
            if total is not None:
                assert sum(d[i] for d in rep.per_weight.values()) == total, spec
        assert dict(rep.per_weight) == dict(rep.per_weight.items()), spec
        if isinstance(space, ProjectiveSpace):
            # the smallest doubling of the starting radius holding every weight
            radius = box_radius or max(abs(spec.l), spec.j, spec.p) + 2
            while radius < max((abs(x) for w in weights for x in w), default=0):
                radius *= 2
            assert rep.box == ((-radius, radius),) * (space.n + 1), (spec, box_radius)


def test_blowup_key_cap_before_counting(monkeypatch):
    # (2, 2, 1) has a table of 12 keys: 2 values each for w_0 and s, 3 for w_1
    counted = []
    count = cech._count_at_most
    monkeypatch.setattr(cech, "_count_at_most", lambda *a: counted.append(1) or count(*a))
    monkeypatch.setattr(cech, "MAX_BLOWUP_KEYS", 11)
    with pytest.raises(ResourceLimit, match="key table of 12 keys exceeds cap 11"):
        blowup_cohomology(2, 2, 1, 2, box_radius=2)
    assert not counted
    monkeypatch.setattr(cech, "MAX_BLOWUP_KEYS", 12)
    assert blowup_cohomology(2, 2, 1, 2, box_radius=2).box == ((-2, 2), (-2, 2))
    assert counted


@pytest.mark.parametrize("mcj", [(7, 7, 3), (8, 8, 4)])
def test_blowup_beyond_m6_stops_on_key_cap(mcj):
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimit, match="key table"):
        blowup_cohomology(*mcj, 2)
    assert time.perf_counter() - t0 < 2.0


def test_chart_log_sets():
    atlas = blowup_charts(2, 2)
    assert atlas.charts[0].log == frozenset({0})
    assert atlas.charts[1].log == frozenset({0, 1})


def test_blowup_sections_by_hand():
    # chart 0 of the plane blowup: T_1 = u_1, T_2 = u_1 u_2
    ring = FormRing(3, 2, log=range(2), laurent=range(2), window=5)
    atlas = blowup_charts(2, 2)
    assert blowup_section_space(ring, atlas, 0, (0,), (1, 0)).dim == 1
    assert blowup_section_space(ring, atlas, 0, (0,), (-1, 1)).dim == 1  # u_2
    assert blowup_section_space(ring, atlas, 0, (0,), (1, -1)).dim == 0
    assert blowup_section_space(ring, atlas, 0, (0, 1), (1, -1)).dim == 1


@pytest.mark.parametrize("p", [2, 3])
def test_blowup_higher_cohomology_vanishes_small(p):
    for j in (0, 1, 2):
        rep = blowup_cohomology(2, 2, j, p)
        assert rep.dims[0] is None
        assert all(d == 0 for d in rep.dims[1:]), (j, rep.dims)
        assert rep.stabilized
    rep = blowup_cohomology(3, 2, 1, p)
    assert rep.dims[0] is None and all(d == 0 for d in rep.dims[1:])


def test_formal_functions_small():
    rep = formal_functions_check(2, 1, 2, 2)
    assert rep.ok
    rep3 = formal_functions_check(3, 1, 2, 3)
    assert rep3.ok


def _formal_functions_ses_per_weight(c, j, p):
    """formal_functions_check's ses_exact with a pullback complex built at
    every weight of {-1, 0, 1}^c on every chart."""
    ses_exact = True
    for w in product(range(-1, 2), repeat=c):
        for chart in range(c):
            if not cech.pullback_ses(p, c, j, w, chart=chart).is_exact():
                ses_exact = False
    return ses_exact


@pytest.mark.parametrize("inexact", [False, True])
def test_formal_functions_builds_one_complex_per_sign_class(monkeypatch, per_weight_walks, inexact):
    # the same report as the per-weight loop, from one pullback complex per
    # sign class of each chart, 2^(c-1) + 1 of them (each coordinate off the
    # chart 0 or positive, or one negative); forced inexact, the class of chart 0 with w_1 = 0 and no negative
    # coordinate off the chart fails in both
    built = []
    pullback = cech.pullback_ses

    def counted(p, c, n, w, chart=0):
        built.append((w, chart))
        cx = pullback(p, c, n, w, chart=chart)
        if inexact and chart == 0 and w[1] == 0 and min(w[1:]) >= 0:
            cx.is_exact = lambda: False
        return cx

    monkeypatch.setattr(cech, "pullback_ses", counted)
    for c, j, p, classes in ((2, 1, 2, 6), (2, 1, 3, 6), (2, 0, 2, 6), (3, 1, 2, 15), (3, 2, 3, 15)):
        del built[:]
        rep = formal_functions_check(c, j, 3 if c == 2 else 1, p)
        assert len(built) == classes
        assert rep.ses_exact == _formal_functions_ses_per_weight(c, j, p) == (not inexact)
        assert len(built) == classes + c * 3**c
        assert rep.ok == (not inexact)
        # keyed at every weight, the walk still builds once per class
        with per_weight_walks():
            del built[:]
            assert formal_functions_check(c, j, 3 if c == 2 else 1, p) == rep
            assert len(built) == classes
