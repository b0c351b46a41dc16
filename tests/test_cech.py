"""Cech cohomology engine vs two independent oracles.

The twisted structure sheaf is recomputed here from scratch (plain monomial
dictionaries, textbook alternating differential) and the twisted j-forms are
checked against the classical closed-form dimensions, which hold over any
field for projective space.  Blowup charts are pinned by the derivation
identity du = d(chart monomial) rather than by re-deriving the atlas.
"""

import time
from functools import cache, lru_cache
from itertools import combinations, product
from math import comb, factorial, inf

import numpy as np
import pytest
import blowup_keys
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SolvedSpace

from logcartier import cech, cli, sequences
from logcartier.cech import (
    BlowupSpace,
    CechComplex,
    ProjectiveSpace,
    ResourceLimit,
    SheafSpec,
    _pattern_dims,
    blowup_charts,
    blowup_cohomology,
    cech_cohomology,
    connecting_map_check,
    formal_functions_check,
    generator_check,
)
from logcartier.forms import FormRing, WeightSlice
from logcartier.gflinalg import FpMatrix
from logcartier.sequences import _count_at_most, _region_count, _region_weights, log_section_space, weight_ring

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


def test_log_serre_duality():
    # the `verify projective` row of log Serre duality for n <= 4: its
    # negative twists reach the top-degree dims of every pattern with a
    # negative coordinate
    cases = []
    for n in range(1, 5):
        passed, dims = cli._projective_log_serre_duality(2, n)
        assert passed, (n, dims)
        cases.append(int(dims.split()[0]))
    assert cases == [60, 132, 192, 260] and sum(cases) == 644


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


# -- raw patterns and the per-weight map against the honest engine ------------


def _count_complexes(monkeypatch):
    """A list that grows by one per CechComplex built."""
    built = []
    init = CechComplex.__init__
    monkeypatch.setattr(
        CechComplex, "__init__", lambda self, *a: built.append(1) or init(self, *a)
    )
    return built


def _solved(space):
    """A section space with the same basis and its coordinates solved."""
    return SolvedSpace(space.ambient, space.basis)


@lru_cache(maxsize=None)
def _honest_pattern_dims(p, n, j, S, tau):
    """Homology of the full Cech complex at the sign pattern tau, each section
    space built at the weight tau itself: no cone or closed-form shortcut, no
    shared slice, and every inclusion block solved."""
    ring = weight_ring(p, n, tau)
    cx = CechComplex(
        p, range(n + 1), lambda I: _solved(log_section_space(ring, j, S, frozenset(I), tau))
    )
    return tuple(cx.homology_dims())


@pytest.mark.parametrize("p", [2, 3])
def test_raw_patterns_match_honest_complex(p):
    # the engine reads each (S, tau) as it is, by the cone rule, the split
    # of a negative pattern and the Hodge line (module docstring); every S
    # inside N = {k : tau_k < 0} is among those checked, as the negative
    # rule relies on S lying inside N
    for n in (1, 2, 3):
        subsets = {frozenset(), frozenset({0}), frozenset({1, n}), frozenset(range(n + 1))}
        for j in range(n + 1):
            for tau in product((-1, 0, 1), repeat=n + 1):
                negative = [k for k, t in enumerate(tau) if t < 0]
                inside = {
                    frozenset(c) for r in range(len(negative) + 1) for c in combinations(negative, r)
                }
                for S in subsets | inside:
                    h = _honest_pattern_dims(p, n, j, S, tau)
                    assert _pattern_dims(n, j, S, tau) == h, (n, j, S, tau)


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
            assert _pattern_dims(n, j, S, tau) == h, (n, j, S, tau)
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
    for (n, S, tau), h in zip(cases, honest):
        assert h == (int(-1 not in tau),) + (0,) * n, (n, S, tau)
        assert _pattern_dims(n, 0, S, tau) == h, (n, S, tau)
    assert not built


@pytest.mark.parametrize("p", [2, 3])
def test_section_space_depends_only_on_support_set(p):
    # every variable is log, so V_I at tau has the same coordinates at every
    # weight and depends on tau only through T = S + I + {k : tau_k > 0},
    # where it is the space of the log set T at weight 0, of dim
    # C(|T| - 1, j) for T nonempty; unless tau is negative outside I
    for n in (0, 1, 2, 3):
        subsets = {frozenset(), frozenset({0}), frozenset({0, n}), frozenset(range(n + 1))}
        charts = [frozenset(I) for k in range(n + 2) for I in combinations(range(n + 1), k)]
        zero = (0,) * (n + 1)
        at_zero = weight_ring(p, n, zero)
        for tau in product((-1, 0, 1), repeat=n + 1):
            ring = weight_ring(p, n, tau)
            positive = {k for k, t in enumerate(tau) if t > 0}
            for j, S, I in product(range(n + 1), subsets, charts):
                got = log_section_space(ring, j, S, I, tau)
                if any(t < 0 for i, t in enumerate(tau) if i not in I):
                    assert got.dim == 0, (n, j, S, I, tau)
                    continue
                T = S | I | positive
                want = log_section_space(at_zero, j, T, frozenset(), zero)
                assert [g for _a, g in got.ambient.basis] == [g for _a, g in want.ambient.basis]
                assert np.array_equal(got.basis.array, want.basis.array), (n, j, S, I, tau)
                if T:
                    assert got.dim == comb(len(T) - 1, j), (n, j, S, I, tau)


def test_projective_specs_build_no_space_or_complex(monkeypatch):
    # every pattern is read off a formula (module docstring), so no
    # projective spec builds a Cech complex, a section space (through either
    # binding of log_section_space), a form ring, a slice or a matrix
    built = []
    for cls in (CechComplex, FormRing, WeightSlice, FpMatrix):
        monkeypatch.setattr(
            cls,
            "__init__",
            lambda self, *a, _init=cls.__init__, _name=cls.__name__, **k: built.append(_name)
            or _init(self, *a, **k),
        )
    wrap = FpMatrix._of_residues
    monkeypatch.setattr(
        FpMatrix, "_of_residues", staticmethod(lambda *a: built.append("FpMatrix") or wrap(*a))
    )
    for module in (cech, sequences):
        monkeypatch.setattr(
            module,
            "log_section_space",
            lambda *a, _make=module.log_section_space, **k: built.append("SectionSpace")
            or _make(*a, **k),
        )
    specs = [
        SheafSpec(2, ProjectiveSpace(n), j, S=S, l=l)
        for n in (1, 2, 3, 4)
        for j in range(n + 1)
        for S in (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(n + 1)))
        for l in (-n - 2, -3, -1, 0, 1, 3)
    ]
    first = [cech_cohomology(spec).dims for spec in specs]
    positive = [dims for spec, dims in zip(specs, first) if spec.l > 0]
    assert any(any(dims) for dims in positive)
    assert any(dims[-1] for spec, dims in zip(specs, first) if spec.l < 0)
    # at l = 0 with S empty only the all-zero pattern has weights: the
    # Hodge line, H^q(Omega^j) = 1 exactly when q = j
    for spec, dims in zip(specs, first):
        if spec.l == 0 and not spec.S:
            assert dims == [int(q == spec.j) for q in range(spec.space.n + 1)], spec
    # at l = -1 the only patterns have one -1: (-1, 0, ..) has S = {0}
    # inside N = {0} and no cone coordinate, (0, -1, ..) is a cone with
    # V_{0} = 0.  Each pattern with no cone coordinate has |N| = 1 and
    # |Z| = n, so H^n = C(0, j - n).  Hence H^n(Omega^n(-1)) =
    # H^n(O(-n - 2)) = n + 1 and H^n(Omega^n(log D_0)(-1)) = H^n(O(-n - 1)) = 1
    for n in (1, 2, 3, 4):
        for j in range(n + 2):
            for S, top in ((frozenset(), n + 1), (frozenset({0}), 1)):
                dims = cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j, S=S, l=-1)).dims
                assert dims == [0] * n + [top if j == n else 0], (n, j, S)
    assert [cech_cohomology(spec).dims for spec in specs] == first
    assert not built
    # the spies see what the generator check builds
    generator_check(2, 2, 1)
    assert {"CechComplex", "FormRing", "WeightSlice", "FpMatrix", "SectionSpace"} <= set(built)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_negative_patterns_split_into_cones_and_top_lines(p, monkeypatch):
    # a pattern with a negative coordinate and no cone coordinate is a sum of
    # cones and C(|N| - 1, j - |Z|) lines in Cech degree n (module
    # docstring), so its dims are read off N and Z, with no complex built;
    # with S inside N the complex is that of S empty.  A cone at a negative
    # pattern has V_{k} = 0, so no negative pattern has cohomology below n
    cases = []
    for n in range(6):
        for tau in product((-1, 0), repeat=n + 1):
            negative = [k for k, t in enumerate(tau) if t < 0]
            if not negative:
                continue
            for j, S in product(
                range(n + 2), {frozenset(), frozenset(negative[-1:]), frozenset(negative)}
            ):
                cases.append((n, j, S, tau, _honest_pattern_dims(p, n, j, S, tau)))
    built = _count_complexes(monkeypatch)
    top = 0
    for n, j, S, tau, h in cases:
        assert _pattern_dims(n, j, S, tau) == h, (n, j, S, tau)
        assert not any(h[:n]), (n, j, S, tau)
        top += h[n] > 1
    assert top
    assert not built


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_zero_pattern_is_the_hodge_line(p, monkeypatch):
    # at (empty, 0) the complex of the Lambda^j A_I has H^q = 1 exactly when
    # q = j <= n (module docstring), read off with no complex; j = 0 is a
    # cone with H^0 = 1, and j = n + 1 has no sections
    cases = [
        (n, j, _honest_pattern_dims(p, n, j, frozenset(), (0,) * (n + 1)))
        for n in range(6)
        for j in range(n + 2)
    ]
    built = _count_complexes(monkeypatch)
    for n, j, h in cases:
        assert _pattern_dims(n, j, frozenset(), (0,) * (n + 1)) == h, (n, j)
        assert h == tuple(int(q == j) for q in range(n + 1)), (n, j)
    assert not built


@pytest.mark.parametrize("p", [2, 3])
def test_cone_dims_are_the_support_binomial(p):
    # a cone on k has dims (dim V_{k}, 0, .., 0), and V_{k} is C(|T| - 1, j)
    # with T = S + {k} + {i : tau_i > 0}, or 0 when tau has a negative
    # coordinate; the same at every cone coordinate k
    for n in range(5):
        subsets = {frozenset(), frozenset({0}), frozenset({0, n}), frozenset(range(n + 1))}
        for tau in product((-1, 0, 1), repeat=n + 1):
            ring = weight_ring(p, n, tau)
            positive = {i for i, t in enumerate(tau) if t > 0}
            for j, S in product(range(n + 2), subsets):
                cones = [k for k, t in enumerate(tau) if t > 0 or (t == 0 and (k in S or j == 0))]
                if not cones:
                    continue
                h = _pattern_dims(n, j, S, tau)
                assert not any(h[1:]), (n, j, S, tau)
                for k in cones:
                    space = log_section_space(ring, j, S, {k}, tau)
                    assert h[0] == space.dim, (n, j, S, tau, k)
                    if -1 not in tau:
                        assert h[0] == comb(len(S | {k} | positive) - 1, j), (n, j, S, tau, k)


def test_inclusion_block_matches_solved_block():
    # a section space reads the inclusion block off its identity rows, and
    # that block is the one solving for the coordinates gives
    p, n, j, S, tau = 2, 2, 1, frozenset(), (0, 0, 0)
    ring = weight_ring(p, n, tau)
    cx = CechComplex(p, range(n + 1), lambda I: log_section_space(ring, j, S, I, tau))
    edge, top = cx.spaces[(0, 1)], cx.spaces[(0, 1, 2)]
    assert (edge.dim, top.dim) == (1, 2)
    assert np.array_equal(top.coords_of_space(edge), _solved(top).coords_of_space(edge))
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
            cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j))
    for n in (1, 2, 3):
        for j in range(n + 1):
            for S in (frozenset(), frozenset({n})):
                for l in (-n - 2, -1, 0, 2):
                    cech_cohomology(SheafSpec(2, ProjectiveSpace(n), j, S=S, l=l))
    # no pattern builds a complex, the all-zero one included
    assert not built
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
        h = _pattern_dims(n, spec.j, spec.S, tau)
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


def blowup_section_space(ring, atlas, j, Q, w):
    """Sections of Omega^j(log(E + Dbar)) on the chart intersection U_Q at
    T-multidegree w, moved by T^-w into the weight-0 slice of the all-log
    ring: the span of the dlog u_G that pass the direct validity test, as a
    section space whose coordinates are solved."""
    Q = tuple(sorted(Q))
    chart = atlas.charts[Q[0]]
    sl = ring.slice(j, (0,) * ring.m)
    cols = [_dlog_wedge(sl, chart, G) for G in _valid_by_weight(atlas, j, Q, w)]
    return SolvedSpace(sl, FpMatrix.from_columns(ring.p, cols, sl.dim))


def test_weight_zero_sections_match_weight_w_construction():
    # multiplication by T^-w carries each weight-w section space onto the
    # weight-0 one that `cech.blowup_weight_oracle` builds, coordinate for
    # coordinate
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


def _blowup_weights(m, c, radius):
    """The blowup weight box in lex order: [-r, r] at the first c
    coordinates, [0, r] at the rest."""
    return product(*[range(-radius, radius + 1)] * c, *[range(0, radius + 1)] * (m - c))


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_matches_weight_oracle_on_every_key(p):
    # at the first weight of every validity key of every (m, c, j) with
    # m <= 5, clipped to the box of radius m + 1, which meets every key: the
    # closed form's per-weight dims are those of the Cech complex built there
    keys = 0
    for m in (2, 3, 4, 5):
        radius = m + 1
        for c in range(2, m + 1):
            atlas, cover = blowup_charts(m, c), blowup_keys.cover_of(c)
            for j in range(m + 2):
                listed = blowup_cohomology(m, c, j, p, box_radius=radius).per_weight
                dims_at = cech.blowup_weight_oracle(m, c, j, p)
                forms, bounds = blowup_keys._thresholds(atlas, j, cover)
                for key, head, tail, sums in blowup_keys._key_regions(forms, bounds, c):
                    head = [(max(lo, -radius), min(hi, radius)) for lo, hi in head]
                    tail = [(lo, min(hi, radius)) for lo, hi in tail]
                    w = next(_region_weights(head, tail, sums))
                    assert listed.get(w, [0] * c) == dims_at(w), (m, c, j, key, w)
                    keys += 1
    assert keys == 3960


@cache
def _cached_weight_oracle(m, c, j, p):
    """cech.blowup_weight_oracle(m, c, j, p) with its per-weight dims
    memoised, shared by the report walks at every radius."""
    return cache(cech.blowup_weight_oracle(m, c, j, p))


def _assert_report_walks_oracle(rep, dims_at, m, c, r, case):
    """The report's box is the box of radius r, its listing is the oracle's
    walk of that box in the same order with the same dims, its dims are the
    walk's totals, and the shell one step outside the box shows no higher
    cohomology."""
    assert rep.box == ((-r, r),) * c + ((0, r),) * (m - c), case
    walk = {w: dims_at(w) for w in _blowup_weights(m, c, r) if any(dims_at(w))}
    assert list(rep.per_weight.items()) == list(walk.items()), case
    totals = [sum(dims[i] for dims in walk.values()) for i in range(c)]
    assert rep.dims == [None if totals[0] else 0] + totals[1:], case
    shell = (w for w in _blowup_weights(m, c, r + 1) if max(map(abs, w)) > r)
    assert not any(any(dims_at(w)[1:]) for w in shell), case


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("box_radius", [1, 2])
def test_validity_classes_match_per_weight_engine(p, box_radius):
    # at box radius 1 and 2, each report with m <= 3 is the walk of its box
    # with the per-weight engine: the Cech complex the weight oracle builds
    # at each weight
    for m in (2, 3):
        for c in range(2, m + 1):
            for j in range(m + 2):
                rep = blowup_cohomology(m, c, j, p, box_radius=box_radius)
                dims_at = _cached_weight_oracle(m, c, j, p)
                _assert_report_walks_oracle(rep, dims_at, m, c, box_radius, (m, c, j))


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_reports_match_weight_oracle(p):
    # at the start radius, each report with m <= 3 is the weight oracle's
    # walk of its box; the shell outside shows no higher cohomology, so the
    # box rule keeps the start radius, as the report does
    for m in (2, 3):
        for c in range(2, m + 1):
            for j in range(m + 2):
                rep = blowup_cohomology(m, c, j, p)
                dims_at = _cached_weight_oracle(m, c, j, p)
                r = max(j, p) + 2
                _assert_report_walks_oracle(rep, dims_at, m, c, r, (m, c, j))


def test_blowup_closed_form_builds_nothing(monkeypatch):
    # no blowup builds a form ring, a slice, a matrix or a Cech complex, its
    # listing included; the spies see what the weight oracle builds
    built = []
    for cls in (CechComplex, FormRing, WeightSlice, FpMatrix):
        monkeypatch.setattr(
            cls,
            "__init__",
            lambda self, *a, _init=cls.__init__, _name=cls.__name__, **k: built.append(_name)
            or _init(self, *a, **k),
        )
    wrap = FpMatrix._of_residues
    monkeypatch.setattr(
        FpMatrix, "_of_residues", staticmethod(lambda *a: built.append("FpMatrix") or wrap(*a))
    )
    for m in range(2, 7):
        for c, j, p, box_radius in product(range(2, m + 1), range(m + 2), (2, 3), (None, 1)):
            rep = blowup_cohomology(m, c, j, p, box_radius=box_radius)
            assert rep.dims[1:] == [0] * (c - 1)
            if m <= 3 or box_radius:
                assert len(list(rep.per_weight)) == len(rep.per_weight)
    assert not built
    assert cech.blowup_weight_oracle(2, 2, 1, 2)((0, 0)) == [1, 0]
    assert {"CechComplex", "FormRing", "WeightSlice", "FpMatrix"} <= set(built)


def test_verify_blowup_box_meets_every_key():
    # the rows of `verify blowup` compare the engine with the weight oracle
    # on [-c, c]^c x [0, c]^(m-c), which meets every validity key of each
    # row; radius 2 misses a key of (3, 3, j >= 1): w_0 <= -3, w_1 >= 1,
    # w_2 >= 1 and s <= -1
    def missed(m, c, j, radius):
        forms, bounds = blowup_keys._thresholds(
            blowup_charts(m, c), j, blowup_keys.cover_of(c)
        )
        out = []
        for key, head, tail, sums in blowup_keys._key_regions(forms, bounds, c):
            head = [(max(lo, -radius), min(hi, radius)) for lo, hi in head]
            tail = [(lo, min(hi, radius)) for lo, hi in tail]
            sums = (max(sums[0], -c * radius), min(sums[1], c * radius))
            if not _region_count(head, tail, sums):
                out.append(key)
        return out

    for m, c in ((2, 2), (3, 2), (3, 3)):
        for j in range(m + 1):
            assert not missed(m, c, j, c), (m, c, j)
            assert bool(missed(m, c, j, 2)) == (c == 3 and j >= 1), (m, c, j)


def _count_by_coordinate(ranges, total):
    """The vectors in ranges with sum at most total, counted by their sums
    one coordinate at a time."""
    counts = {0: 1}
    for lo, hi in ranges:
        grown = {}
        for s, count in counts.items():
            for x in range(lo, hi + 1):
                grown[s + x] = grown.get(s + x, 0) + count
        counts = grown
    return sum(count for s, count in counts.items() if s <= total)


def test_count_at_most_matches_enumeration():
    heads = ([], [(0, 0)], [(-2, 3)], [(-1, 1), (2, 2), (0, 4)], [(-3, 3)] * 3, [(1, 0)])
    for ranges in heads:
        sums = [sum(x) for x in product(*(range(a, b + 1) for a, b in ranges))]
        for total in range(-12, 13):
            assert _count_at_most(ranges, total) == sum(s <= total for s in sums), (ranges, total)
    # ranges of one length merge their inclusion-exclusion terms by pushed
    # sum: k <= 8 of them against the enumeration, and k = 40, whose 2^40
    # subsets could not be summed one by one, against a count taken
    # coordinate by coordinate
    for k, (lo, hi) in product(range(1, 9), ((0, 0), (-1, 0), (1, 3), (-2, 2))):
        sums = [sum(x) for x in product(range(lo, hi + 1), repeat=k)]
        for total in range(k * lo - 1, k * hi + 2):
            assert _count_at_most([(lo, hi)] * k, total) == sum(s <= total for s in sums), (k, total)
    assert _count_at_most([(0, 2)] * 40, 37) == _count_by_coordinate([(0, 2)] * 40, 37)
    assert _count_at_most([(0, 2)] * 20 + [(1, 4)] * 20, 60) == _count_by_coordinate(
        [(0, 2)] * 20 + [(1, 4)] * 20, 60
    )
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


# -- the generic box rule, the engines' reference ---------------------------------


def _orbit_size(ranges, blocks) -> int:
    """The number of distinct rearrangements of ranges within each block of
    positions: one multinomial coefficient per block."""
    size = 1
    for block in blocks:
        values = [ranges[i] for i in block]
        size *= factorial(len(values))
        for x in set(values):
            size //= factorial(values.count(x))
    return size


def _narrowed(head, sums) -> list:
    """The head ranges narrowed by the sum range: each end moved in as far as
    the other heads can still bring the sum into range.  If the ranges meet
    the sum range, each narrowed end is the coordinate of some head in the
    ranges with its sum in range.  Open ends stay exact: upper ends are only
    taken from the lower sum end and lower ends from the upper one, so no
    inf - inf arises."""
    lows, highs = [lo for lo, _ in head], [hi for _, hi in head]
    return [
        (
            max(lo, sums[0] - sum(highs[:i]) - sum(highs[i + 1 :])),
            min(hi, sums[1] - sum(lows[:i]) - sum(lows[i + 1 :])),
        )
        for i, (lo, hi) in enumerate(head)
    ]


def _region_report(spec, radius, regions, blocks=()):
    """The report of spec from regions (dims, head, tail, sums) that meet
    their sum ranges, by one generic rule with none of the engines' closed
    forms.  Each region stands for the regions its ranges make when
    rearranged within each block of positions (indices into head + tail, a
    block inside the head or inside the tail) in every distinct way, all
    with its dims; with no blocks each region is its own orbit.

    The box is [-r, r] at each head coordinate and [0, r] at each tail one,
    with r doubled from radius until it holds every weight of each held
    region: one with nonzero dims in a degree whose total is finite, every
    degree on P^n and H^1.. on a blowup.  A region meeting its sum range
    reaches each end of its head ranges narrowed by that range and each end
    of its tail ranges, so it lies in the box exactly when the box covers
    those ends; an open one never does, and the box stops at MAX_BOX_RADIUS
    with ResourceLimit.  Every region is then cut to the box and counted by
    inclusion-exclusion (cech._region_count), times its orbit's size.  A
    blowup's H^0 has infinite rank, reported as None, unless no region
    carries it."""
    space = spec.space
    blowup = isinstance(space, BlowupSpace)
    heads, tails = (space.c, space.m - space.c) if blowup else (space.n + 1, 0)
    finite = 1 if blowup else 0  # the first degree with a finite total
    # a region with no cohomology moves neither the box nor the map
    regions = [
        (dims, _orbit_size((*head, *tail), blocks), _narrowed(head, sums), tail, sums)
        for dims, head, tail, sums in regions
        if any(dims)
    ]
    reach = max(
        (
            max(-lo, hi)
            for dims, _size, head, tail, _ in regions
            if any(dims[finite:])
            for lo, hi in (*head, *tail)
        ),
        default=0,
    )
    while radius < reach:
        if 2 * radius > cech.MAX_BOX_RADIUS:
            box = "blowup box" if blowup else "weight box"
            raise ResourceLimit(f"{box} not stabilized at radius {radius} (cap {cech.MAX_BOX_RADIUS})")
        radius *= 2
    cut = []
    for dims, size, head, tail, (sa, sb) in regions:
        ranges = (
            [(max(lo, -radius), min(hi, radius)) for lo, hi in head],
            [(lo, min(hi, radius)) for lo, hi in tail],
            (max(sa, -heads * radius), min(sb, heads * radius)),
        )
        cut.append((dims, size * _region_count(*ranges), *ranges))
    per_weight = cech._WeightMap(cut, heads, blocks)
    dims = list(per_weight.totals)
    if finite:
        dims[0] = None if any(h[0] for h, *_ in regions) else 0
    box = ((-radius, radius),) * heads + ((0, radius),) * tails
    return cech.CohomologyReport(spec=spec, dims=dims, per_weight=per_weight, box=box)


def test_region_report_box_rule():
    # the generic box rule on synthetic regions (dims, head, tail, sums) of
    # Bl(m=3, c=2), whose box is [-r, r]^2 x [0, r], from radius 2
    spec = SheafSpec(2, BlowupSpace(3, 2), 1)
    free = (-inf, inf)

    def report(*regions):
        return _region_report(spec, 2, list(regions))

    # a bounded region with higher cohomology reaching 5 grows the box to
    # the smallest doubling that holds it, and every weight is counted
    rep = report(((0, 1), [(0, 5), (0, 0)], [(0, 1)], free))
    assert rep.box == ((-8, 8), (-8, 8), (0, 8))
    assert rep.dims == [0, 12] and len(rep.per_weight) == 12
    # with H^0 only it is not held: the box stays, and only the weights in it
    # are counted
    rep = report(((1, 0), [(0, 5), (0, 0)], [(0, 1)], free))
    assert rep.box == ((-2, 2), (-2, 2), (0, 2))
    assert rep.dims == [None, 0] and len(rep.per_weight) == 6
    assert report().dims == [0, 0]
    # a tail end is reached too
    assert report(((0, 1), [(0, 0), (0, 0)], [(0, 3)], free)).box[2] == (0, 4)
    # a half-line never fits
    for head, tail in (([(1, inf), (0, 0)], [(0, 0)]), ([(0, 0), (-inf, 0)], [(0, 0)]),
                       ([(0, 0), (0, 0)], [(1, inf)])):
        with pytest.raises(ResourceLimit, match=r"blowup box not stabilized at radius 64"):
            report(((0, 1), head, tail, free))
    # a head range narrowed by the sum range reads its narrowed end: w_0 in
    # [0, 9] and w_1 in [-1, 1] with w_0 + w_1 <= 2 reach w_0 = 3, not 9;
    # w_1 in [-9, 9] with w_0 in [-1, 1] and sum in [-4, -3] reaches -5; and
    # a half-line under a sum range is bounded by it
    for head, sums, box in (
        ([(0, 9), (-1, 1)], (-inf, 2), 4),
        ([(-1, 1), (-9, 9)], (-4, -3), 8),
        ([(1, inf), (1, inf)], (5, 5), 4),
        ([(-inf, 0), (0, 7)], (-6, -6), 16),
    ):
        rep = report(((0, 1), head, [(0, 0)], sums))
        assert rep.box[0] == (-box, box), (head, sums)
        want = [
            w for w in product(range(-box, box + 1), repeat=2)
            if all(a <= x <= b for x, (a, b) in zip(w, head)) and sums[0] <= sum(w) <= sums[1]
        ]
        assert list(rep.per_weight) == [w + (0,) for w in want], (head, sums)
    # on P^n every region with cohomology is held, H^0 too
    rep = _region_report(
        SheafSpec(2, ProjectiveSpace(1), 0, l=5), 2, [((1, 0), [(0, inf), (0, inf)], (), (5, 5))]
    )
    assert rep.box == ((-8, 8), (-8, 8)) and rep.dims == [6, 0]


def test_region_report_counts_each_orbit_member():
    # a region passed with blocks stands for every distinct rearrangement of
    # its ranges within each block: the report is that of the members passed
    # one by one, and the orbit size is the number of members
    spec = SheafSpec(2, ProjectiveSpace(3), 1, l=3)
    one, zero = (1, inf), (0, 0)
    orbit = ((0, 1, 0, 0), [one, zero, one, zero], (), (3, 3))
    members = list(cech._orbit_members(orbit[1], ((0, 1), (2, 3))))
    assert members == [[one, zero, one, zero], [one, zero, zero, one],
                       [zero, one, one, zero], [zero, one, zero, one]]
    assert _orbit_size(orbit[1], ((0, 1), (2, 3))) == 4
    assert _orbit_size(orbit[1], ((0, 1, 2, 3),)) == 6
    got = _region_report(spec, 2, [orbit], ((0, 1), (2, 3)))
    want = _region_report(spec, 2, [(orbit[0], m, (), (3, 3)) for m in members])
    assert (got.dims, got.box, len(got.per_weight)) == (want.dims, want.box, 8)
    assert list(got.per_weight.items()) == list(want.per_weight.items())


# -- orbits against the per-pattern regions ---------------------------------------


def _contributing_patterns(spec):
    """The projective engine's regions one sign pattern at a time: (dims,
    ranges, (), (l, l)) of every one-signed pattern whose ranges meet the
    sum l, in {0, 1}^(n+1) when l >= 0 and in {-1, 0}^(n+1) when l < 0."""
    n, l = spec.space.n, spec.l
    sign = 1 if l >= 0 else -1
    sign_ranges = {0: (0, 0), 1: (1, inf), -1: (-inf, -1)}
    out = []
    for tau in product((0, sign), repeat=n + 1):
        ranges = [sign_ranges[t] for t in tau]
        if blowup_keys.meets(ranges, (l, l)):
            out.append((_pattern_dims(n, spec.j, spec.S, tau), ranges, (), (l, l)))
    return out


def _zero_pattern_regions(m, c, j):
    """The blowup engine's regions one zero pattern Z of w_1..w_{m-1} at a
    time, each with H^0 = C(m - |Z|, j), those with H^0 = 0 left out."""
    regions = []
    for zeros in range(m):
        h0 = comb(m - zeros, j)
        if not h0:
            continue
        for Z in combinations(range(1, m), zeros):
            ranges = [(0, inf)] + [(0, 0) if i in Z else (1, inf) for i in range(1, m)]
            regions.append(((h0,) + (0,) * (c - 1), ranges[:c], ranges[c:], (0, inf)))
    return regions


def _per_pattern_report(spec, box_radius=None):
    """The report of spec from one region per pattern, by the generic box
    rule."""
    space = spec.space
    if isinstance(space, BlowupSpace):
        regions = _zero_pattern_regions(space.m, space.c, spec.j)
    else:
        regions = _contributing_patterns(spec)
    return _region_report(spec, cech._start_radius(spec, box_radius), regions)


def _same_report(got, want, listed, case):
    assert (got.dims, got.box, len(got.per_weight)) == (
        want.dims, want.box, len(want.per_weight)
    ), case
    if listed:
        assert list(got.per_weight.items()) == list(want.per_weight.items()), case


@pytest.mark.parametrize("n", range(7))
def test_projective_orbits_match_per_pattern_regions(n):
    # every j, S of every size as a prefix and as a suffix of 0..n, and
    # l in [-n - 6, 8]: the same dims, box and count as one region per
    # pattern, and for n <= 3 the same listing
    log_sets = {frozenset(range(s)) for s in range(n + 2)}
    log_sets |= {frozenset(range(n + 1 - s, n + 1)) for s in range(n + 2)}
    for j, S, l in product(range(n + 2), sorted(log_sets, key=sorted), range(-n - 6, 9)):
        spec = SheafSpec(2, ProjectiveSpace(n), j, S=S, l=l)
        _same_report(cech_cohomology(spec), _per_pattern_report(spec), n <= 3, spec)


def test_orbit_representative_reaches_the_negative_branch(monkeypatch):
    # P^3 Omega^3(-3), S empty: the orbits k = 2, 3 have representatives
    # (-1, -1, 0, 0) and (-1, -1, -1, 0), with no cone coordinate and fewer
    # zeros than j, so their tops are C(|N| - 1, j - |Z|) = 1; with the
    # 4 + 12 + 4 weights of k = 1, 2, 3, H^3 = h^3(O(-7)) = 20
    requested = []
    dims = cech._pattern_dims
    monkeypatch.setattr(cech, "_pattern_dims", lambda *a: requested.append(a[-1]) or dims(*a))
    spec = SheafSpec(3, ProjectiveSpace(3), 3, l=-3)
    got = cech_cohomology(spec)
    reps = [tau for tau in requested if 1 not in tau and 0 < tau.count(0) < 3]
    assert reps == [(-1, -1, 0, 0), (-1, -1, -1, 0)]
    assert got.dims == [0, 0, 0, 20]
    _same_report(got, _per_pattern_report(spec), True, spec)


@pytest.mark.parametrize("m", range(2, 6))
def test_blowup_orbits_match_per_pattern_regions(m):
    # every c and j <= m + 1 at radius 1 and 2, with the same listing, and
    # at the start radius, listed for m <= 3
    for c, j, box_radius in product(range(2, m + 1), range(m + 2), (1, 2, None)):
        spec = SheafSpec(2, BlowupSpace(m, c), j)
        got = cech_cohomology(spec, box_radius)
        want = _per_pattern_report(spec, box_radius)
        _same_report(got, want, box_radius or m <= 3, (m, c, j, box_radius))


def _report_or_limit(engine, spec, box_radius):
    """engine(spec, box_radius), or the message of the ResourceLimit it
    raises."""
    try:
        return engine(spec, box_radius)
    except ResourceLimit as e:
        return str(e)


def _same_report_or_limit(spec, box_radius):
    """The engine and the generic rule give the same report, listed when it
    holds at most 2,000 weights, or raise the same ResourceLimit."""
    case = (spec, box_radius)
    got = _report_or_limit(cech_cohomology, spec, box_radius)
    want = _report_or_limit(_per_pattern_report, spec, box_radius)
    if isinstance(want, str):
        assert got == want, case
    else:
        assert not isinstance(got, str), (case, got)
        _same_report(got, want, len(want.per_weight) <= 2000, case)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, n + 1), st.frozensets(st.integers(0, n))
        )
    ),
    st.integers(-12, 12) | st.integers(-70, 70),
    st.sampled_from((2, 3, 61)),
    st.none() | st.integers(1, 70),
)
def test_projective_engine_matches_generic_rule(njS, l, p, box_radius):
    # each orbit's size, count and reach in closed form, against one region
    # per pattern with its ends narrowed by the sum and the box grown off
    # them: the same report, or the same ResourceLimit past the cap
    n, j, S = njS
    _same_report_or_limit(SheafSpec(p, ProjectiveSpace(n), j, S=S, l=l), box_radius)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(2, m), st.integers(0, m + 1))
    ),
    st.sampled_from((2, 3, 5, 61)),
    st.none() | st.integers(1, 70),
)
def test_blowup_engine_matches_generic_rule(mcj, p, box_radius):
    # each orbit's count in closed form at the start radius, against one
    # region per zero pattern cut to the box and counted there
    m, c, j = mcj
    _same_report_or_limit(SheafSpec(p, BlowupSpace(m, c), j), box_radius)


def test_blowup_zero_sheaf_has_no_cohomology():
    # Omega^j = 0 for j > m: H^0 is 0, not infinite, at any radius
    for m, c in ((2, 2), (3, 2), (3, 3)):
        for box_radius in (None, 1):
            rep = blowup_cohomology(m, c, m + 1, 2, box_radius=box_radius)
            assert rep.dims == [0] * c and len(rep.per_weight) == 0
        assert blowup_cohomology(m, c, m, 2).dims[0] is None


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


@pytest.mark.parametrize(
    "mcj",
    [(7, 7, 3), (8, 8, 4), (15, 15, 7), (15, 2, 14), (40, 40, 20), (64, 64, 62), (64, 32, 1)],
    ids=lambda mcj: "-".join(map(str, mcj)),
)
def test_blowup_beyond_m6_finishes_fast(mcj):
    # one region per orbit of zero patterns, c (m - c + 1) of them, each
    # counted in closed form: far past m = 14, where 2^(m-1) zero patterns
    # one by one were refused, a report takes milliseconds
    t0 = time.perf_counter()
    assert blowup_cohomology(*mcj, 2).dims == [None] + [0] * (mcj[1] - 1)
    assert time.perf_counter() - t0 < 0.1


def test_blowup_beyond_m6_matches_weight_oracle_at_each_region():
    # (7, 2, 3): the first weight of each of the 64 zero patterns of
    # w_1..w_6, inside the box of radius 1, against the complex built there
    m, c, j, p = 7, 2, 3, 2
    listed = blowup_cohomology(m, c, j, p, box_radius=1).per_weight
    dims_at = cech.blowup_weight_oracle(m, c, j, p)
    carried = 0
    for Z in product((True, False), repeat=m - 1):
        w = (0,) + tuple(0 if zero else 1 for zero in Z)
        assert listed.get(w, [0] * c) == dims_at(w), w
        carried += any(dims_at(w))
    assert carried == sum(comb(m - 1, z) for z in range(m - j + 1))


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
