"""Graded log differential forms: ring algebra, weights, d, residue, slices."""

from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcartier.cartier import inverse_cartier, inverse_cartier_matrix
from logcartier.forms import (
    FormRing,
    LogForm,
    LogPoleError,
    WindowOverflow,
    d_matrix,
    format_form,
    parse_form,
    residue_matrix,
    restrict_matrix,
    slice_map_matrix,
)
from logcartier.sequences import (
    euler_contraction,
    euler_matrix,
    extend,
    extend_matrix,
    transport,
    transport_matrix,
    twist_matrix,
)


def ring2(p=3, log=(0, 1), laurent=(), window=((0, 4), (0, 4))):
    return FormRing(p, names=("T1", "T2"), log=log, laurent=laurent, window=window)


def test_generator_weights():
    r = ring2()
    assert r.gen_weight(0) == (0, 0)  # dlog carries no weight
    plain = FormRing(3, names=("T1", "T2"), log=(), window=((0, 4), (0, 4)))
    assert plain.gen_weight(0) == (1, 0)  # dT does


def test_monomial_weight_and_coefficient():
    r = ring2()
    f = r.monomial((2, 1), 2)
    assert f.weight() == (2, 1)
    assert f.coefficient((2, 1), ()) == 2
    assert f.coefficient((0, 0), ()) == 0


def test_wedge_anticommutes_on_generators():
    r = ring2()
    a, b = r.gen(0), r.gen(1)
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()


def test_wedge_on_zero_forms_is_multiplication():
    r = ring2()
    f = r.monomial((1, 0)) + r.monomial((0, 1))
    g = r.monomial((1, 0))
    fg = f.wedge(g)
    assert fg.coefficient((2, 0), ()) == 1
    assert fg.coefficient((1, 1), ()) == 1


def test_d_squared_zero():
    r = ring2()
    f = r.monomial((2, 1)) + r.monomial((1, 2), 2)
    assert f.d().d().is_zero()
    g = f.wedge(r.gen(0))
    assert g.d().d().is_zero()


def test_d_leibniz():
    r = ring2()
    f = r.monomial((1, 0))
    g = r.monomial((0, 2), 2)
    lhs = f.wedge(g).d()
    rhs = f.d().wedge(g) + f.wedge(g.d())
    assert lhs == rhs


def test_dlog_derivative():
    # d(T1^a) = a * T1^a dlogT1 on a log ring
    r = ring2()
    f = r.monomial((2, 0))
    df = f.d()
    assert df.coefficient((2, 0), (0,)) == 2


def test_dT_derivative_on_plain_ring():
    # d(T1^2) = 2 T1 dT1 when T1 is not a log variable
    r = FormRing(5, names=("T1", "T2"), log=(), window=((0, 4), (0, 4)))
    df = r.monomial((2, 0)).d()
    assert df.coefficient((1, 0), (0,)) == 2


def test_char_p_kills_p_th_powers():
    r = ring2(p=3)
    assert r.monomial((3, 0)).d().is_zero()


def test_window_overflow_is_loud():
    r = ring2(window=((0, 2), (0, 2)))
    f = r.monomial((2, 0))
    with pytest.raises(WindowOverflow):
        f.wedge(f)
    with pytest.raises(WindowOverflow):
        r.monomial((3, 0))


def test_laurent_exponents_allowed_in_window():
    r = ring2(laurent=(0,), window=((-2, 2), (0, 2)))
    f = r.monomial((-2, 1))
    assert f.weight() == (-2, 1)
    assert not f.is_zero()


def test_residue_of_dlog_is_one():
    r = ring2()
    res = r.gen(0).residue(0)
    assert res == res.ring.one()


def test_residue_drops_the_variable():
    r = ring2()
    # dlogT1 sits leftmost in T2 dlogT1 ^ dlogT2, so extraction costs no sign
    form = r.monomial((0, 1)).wedge(r.gen(0)).wedge(r.gen(1))
    res = form.residue(0)
    dr = res.ring
    assert dr.m == 1
    assert res.coefficient((1,), (0,)) == 1
    # swapping the wedge order flips the sign
    swapped = r.monomial((0, 1)).wedge(r.gen(1)).wedge(r.gen(0))
    assert swapped.residue(0) == -res


def test_residue_requires_log_index():
    plain = FormRing(3, names=("T1", "T2"), log=(1,), window=((0, 4), (0, 4)))
    with pytest.raises(ValueError):
        plain.gen(0).residue(0)


def test_residue_kills_no_pole_terms():
    r = ring2()
    assert r.monomial((1, 0)).wedge(r.gen(1)).residue(0).is_zero()


def test_restrict_sets_variable_to_zero():
    r = FormRing(3, names=("T1", "T2"), log=(1,), window=((0, 4), (0, 4)))
    f = r.monomial((0, 1)) + r.monomial((1, 1))
    g = f.restrict(0)
    assert g.coefficient((1,), ()) == 1
    assert g.weights() == [(1,)]


def test_restrict_refuses_log_pole():
    r = ring2()
    with pytest.raises(LogPoleError):
        r.gen(0).restrict(0)


def test_slice_dims_count_monomials():
    r = ring2()
    s = r.slice(1, (1, 1))
    # T1 T2 dlogT1 and T1 T2 dlogT2
    assert s.dim == 2
    plain = FormRing(3, names=("T1", "T2"), log=(), window=((0, 4), (0, 4)))
    # weight (1,1) in degree 1: T1 dT2 and T2 dT1
    assert plain.slice(1, (1, 1)).dim == 2


def test_slice_vector_roundtrip():
    r = ring2()
    s = r.slice(1, (2, 0))
    for k in range(s.dim):
        f = s.basis_form(k)
        v = s.to_vector(f)
        assert s.from_vector(v) == f


def test_slice_rejects_foreign_form():
    r = ring2()
    s = r.slice(1, (2, 0))
    with pytest.raises(ValueError):
        s.to_vector(r.monomial((1, 1)).wedge(r.gen(0)))


def test_iter_weights_covers_slice_support():
    r = ring2(window=((0, 2), (0, 2)))
    seen = set(r.iter_weights(1))
    for w in seen:
        assert len(w) == 2
    assert (0, 0) in seen and (2, 2) in seen


def test_drop_var_relabels():
    r = ring2()
    dr, imap = r.drop_var(0)
    assert dr.m == 1
    assert dr.names == ("T2",)
    assert imap == {1: 0}


def test_derived_rings_are_built_once():
    ring = FormRing(3, 3, log=(0, 2), laurent=(1,), window=((0, 2), (-1, 3), (0, 1)))
    dropped = {
        0: (("T2", "T3"), {1}, {0}, ((-1, 3), (0, 1))),
        1: (("T1", "T3"), {0, 1}, set(), ((0, 2), (0, 1))),
        2: (("T1", "T2"), {0}, {1}, ((0, 2), (-1, 3))),
    }
    for i, (names, log, laurent, window) in dropped.items():
        sub, imap = ring.drop_var(i)
        again = ring.drop_var(i)
        assert again[0] is sub and again[1] is imap
        fresh = FormRing(3, names=names, log=log, laurent=laurent, window=window)
        assert sub == fresh and hash(sub) == hash(fresh)
    for log in ([], [1], [2, 0], [0, 1, 2]):
        derived = ring.with_log(log)
        assert derived is ring.with_log(frozenset(log)) is ring.with_log(set(log))
        fresh = FormRing(3, names=ring.names, log=log, laurent=(1,), window=ring.window)
        assert derived == fresh and hash(derived) == hash(fresh)
    # the memo of derived rings is not part of a ring's value
    twin = FormRing(3, 3, log=(0, 2), laurent=(1,), window=((0, 2), (-1, 3), (0, 1)))
    assert twin is not ring and twin == ring and hash(twin) == hash(ring)
    assert twin.with_log(()) is not ring.with_log(()) and twin.with_log(()) == ring.with_log(())


def _column_oracle(src, dst, fn):
    """The matrix of fn, one `dst.to_vector` column per basis form of src."""
    want = np.zeros((dst.dim, src.dim), dtype=np.int64)
    for k, f in enumerate(src.basis_forms()):
        want[:, k] = dst.to_vector(fn(f))
    return want % src.ring.p


SLICE_MAPS = ("d", "residue", "restrict", "transport", "inverse_cartier", "euler_contraction")


def _draw_slice_map(p, m, kind, data):
    """A random small ring, a source slice and a target slice of `kind`."""
    laurent = data.draw(st.sets(st.integers(0, m - 1)))
    log = data.draw(st.sets(st.integers(0, m - 1), min_size=1 if kind == "residue" else 0))
    window = tuple(
        (data.draw(st.integers(-2, 0)) if i in laurent else 0, data.draw(st.integers(0, 3)))
        for i in range(m)
    )
    ring = FormRing(p, m, log=log, laurent=laurent, window=window)
    if kind == "euler_contraction":
        ring = ring.with_log(range(m))
    j = data.draw(st.integers(0, m + 1))  # j > m: an empty source slice
    w = tuple(data.draw(st.integers(lo, hi + 1)) for lo, hi in window)
    src = ring.slice(j, w)
    if kind == "d":
        return src, ring.slice(j + 1, w), lambda f: f.d()
    if kind in ("residue", "restrict"):
        z = data.draw(st.sampled_from(sorted(ring.log) if kind == "residue" else range(m)))
        sub, _ = ring.drop_var(z)
        wz = w[:z] + w[z + 1 :]
        if kind == "residue":
            return src, sub.slice(j - 1, wz), lambda f: f.residue(z)
        return src, sub.slice(j, wz), lambda f: f.restrict(z)
    if kind == "transport":
        tgt = ring.with_log(data.draw(st.sets(st.integers(0, m - 1))))
        return src, tgt.slice(j, w), lambda f: transport(f, tgt)
    if kind == "inverse_cartier":
        return src, ring.slice(j, tuple(p * x for x in w)), inverse_cartier
    return src, ring.slice(j - 1, w), euler_contraction


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.sampled_from(SLICE_MAPS), st.data())
def test_slice_map_matrix_matches_column_oracle(p, m, kind, data):
    src, dst, fn = _draw_slice_map(p, m, kind, data)
    try:
        want = _column_oracle(src, dst, fn)
    except (ArithmeticError, ValueError) as e:
        # images are made in the same order, so the same error comes first
        with pytest.raises(type(e)):
            slice_map_matrix(src, dst, fn)
        return
    got = slice_map_matrix(src, dst, fn)
    assert got.p == p and got.array.dtype == np.int64
    assert got.array.shape == (dst.dim, src.dim)
    assert np.array_equal(got.array, want)
    if want.any() and dst.ring.m:
        # the same images against a slice of another weight: never dropped
        shifted = dst.ring.slice(dst.degree, (dst.weight[0] + 1,) + dst.weight[1:])
        with pytest.raises(ValueError, match="not in slice"):
            slice_map_matrix(src, shifted, fn)


def test_slice_map_matrix_empty_shapes():
    r = ring2()
    full, empty = r.slice(1, (1, 1)), r.slice(1, (9, 9))
    assert full.dim == 2 and empty.dim == 0
    to_empty = slice_map_matrix(full, empty, lambda f: r.zero(1))
    assert to_empty.array.shape == (0, 2) and to_empty.array.dtype == np.int64
    from_empty = slice_map_matrix(empty, full, lambda f: f)
    assert from_empty.array.shape == (2, 0) and from_empty.array.dtype == np.int64


def test_slice_map_matrix_rejects_images_outside_target():
    r = ring2()
    src = r.slice(1, (1, 1))
    with pytest.raises(ValueError, match="not in slice"):
        slice_map_matrix(src, r.slice(1, (1, 2)), lambda f: f)
    with pytest.raises(ValueError, match="does not match slice"):
        slice_map_matrix(src, r.slice(2, (1, 1)), lambda f: f)
    with pytest.raises(ValueError, match="does not match slice"):
        slice_map_matrix(src, r.with_log((0,)).slice(1, (1, 1)), lambda f: f)


# -- slices and slice maps by generator-set indices ---------------------------


def _grid_rings(p, m):
    """Every log subset of m variables, once with a polynomial window and once
    with a Laurent one whose first coordinate tops out at 0 (there dT is
    outside the window, and so is T_z)."""
    laurent = ((-1, 0), (-1, 1), (-1, 1))[:m]
    for r in range(m + 1):
        for log in combinations(range(m), r):
            yield FormRing(p, m, log=log, window=((0, 1),) * m)
            yield FormRing(p, m, log=log, laurent=range(m), window=laurent)


def _grid_slices(p, m):
    """Slices of degree -1..m+1 at every weight one step around the window:
    below it, inside it and on the outer shell of dT weights."""
    for ring in _grid_rings(p, m):
        ranges = [range(lo - 1, hi + 2) for lo, hi in ring.window]
        for w in product(*ranges):
            for j in range(-1, m + 2):
                yield ring.slice(j, w)


def _old_basis(ring, j, w):
    """The slice basis as it was built before generator-set indexing: every
    j-subset, its exponent forced by w, kept when inside the window."""
    basis = []
    for gens in combinations(range(ring.m), j) if j >= 0 else ():
        a = tuple(x - (g in gens and g not in ring.log) for g, x in enumerate(w))
        if ring.in_window(a):
            basis.append((a, gens))
    return tuple(sorted(basis))


@pytest.mark.parametrize("p", [2, 3])
def test_weight_slice_matches_subset_enumeration(p):
    for m in (1, 2, 3):
        for s in _grid_slices(p, m):
            assert s.basis == _old_basis(s.ring, s.degree, s.weight)
            assert s.dim == len(s.basis)
            assert [s.index[g] for _a, g in s.basis] == list(range(s.dim))


@pytest.mark.parametrize("p", [2, 3])
def test_layout_gens_match_subset_enumeration(p):
    # each ring's layouts are shared by the weights of one status tuple, so
    # every weight's sets are checked against those enumerated at that weight
    for m in (1, 2, 3):
        for s in _grid_slices(p, m):
            ring, j, w = s.ring, s.degree, s.weight
            assert ring.gens(j, w) == tuple(g for _a, g in _old_basis(ring, j, w))
            assert s.gens is ring.gens(j, w) and s.index is ring.layout(j, w)[1]


def test_layouts_kept_per_status_not_per_weight():
    ring = FormRing(2, 2, log=(0,), laurent=(1,), window=((0, 3), (-3, 3)))
    weights = list(product(range(-2, 6), range(-5, 6)))
    for w in weights:
        for j in range(-1, 4):
            ring.gens(j, w)
    layouts = [key for key in ring._derived if key[0] == "layout"]
    # per degree: the log T1 is in some I, T2 in none (w_2 = -3), some or
    # every (w_2 = 4), and the empty slice: 4 layouts for 88 weights
    assert len(layouts) == 5 * 4


def test_slice_rejects_term_of_other_weight_with_same_generators():
    ring = FormRing(3, 2, log=(0,), window=3)
    s = ring.slice(1, (1, 2))
    for a, gens in s.basis:
        other = tuple(x + 1 for x in a)
        with pytest.raises(ValueError, match="not in slice"):
            s.to_vector(LogForm(ring, 1, {(other, gens): 1}))
        assert s.to_vector(LogForm(ring, 1, {(a, gens): 2})).tolist().count(2) == 1


@lru_cache(maxsize=None)
def _extended(ring, log):
    """The ring with one more variable Gam at window (0, 0), as in the
    pullback sequence, and log set `log`."""
    return FormRing(
        ring.p,
        names=ring.names + ("Gam",),
        log=log,
        laurent=ring.laurent,
        window=ring.window + ((0, 0),),
    )


def _slice_map_cases(s):
    """(name, the map's build, the slice it lands in, reference) for every
    structural map out of slice s."""
    ring, j, w, p = s.ring, s.degree, s.weight, s.ring.p
    yield "d", lambda: d_matrix(s), ring.slice(j + 1, w), LogForm.d
    pw = tuple(p * x for x in w)
    yield "C^-1", lambda: inverse_cartier_matrix(s), ring.slice(j, pw), inverse_cartier
    for skip in (frozenset(), frozenset({ring.m - 1})):
        yield (
            f"euler {sorted(skip)}",
            lambda skip=skip: euler_matrix(s, skip),
            ring.slice(j - 1, w),
            lambda f, skip=skip: euler_contraction(f, skip),
        )
    for z in range(ring.m):
        sub, _ = ring.drop_var(z)
        wd = w[:z] + w[z + 1 :]
        yield (
            f"restrict {z}",
            lambda z=z: restrict_matrix(s, z),
            sub.slice(j, wd),
            lambda f, z=z: f.restrict(z),
        )
        if z not in ring.log:
            continue
        yield (
            f"residue {z}",
            lambda z=z: residue_matrix(s, z),
            sub.slice(j - 1, wd),
            lambda f, z=z: f.residue(z),
        )
        ez = tuple(int(k == z) for k in range(ring.m))
        tgt = ring.with_log(ring.log - {z})
        yield (
            f"twist {z}",
            lambda z=z, tgt=tgt: twist_matrix(s, z, tgt),
            tgt.slice(j, tuple(x + e for x, e in zip(w, ez))),
            lambda f, ez=ez, tgt=tgt: transport(ring.monomial(ez).wedge(f), tgt),
        )
    for log in ((), range(ring.m), ring.log ^ {0}):
        tgt = ring.with_log(log)
        yield (
            f"transport {sorted(log)}",
            lambda tgt=tgt: transport_matrix(s, tgt),
            tgt.slice(j, w),
            lambda f, tgt=tgt: transport(f, tgt),
        )
    # Gam log or not
    for log in (ring.log | {ring.m}, ring.log):
        ext = _extended(ring, frozenset(log))
        yield (
            f"extend {sorted(log)}",
            lambda ext=ext: extend_matrix(s, ext),
            ext.slice(j, w + (0,)),
            lambda f, ext=ext: extend(f, ext),
        )


def _assert_same_map(new, src, dst, ref):
    """new() returns dst, as the same slice, and
    slice_map_matrix(src, dst, ref), or raises the exception the reference
    raises, with the same message.  Returns the name of the reference's
    exception, or None."""
    try:
        want = slice_map_matrix(src, dst, ref)
    except (ArithmeticError, ValueError) as e:
        with pytest.raises(type(e)) as got:
            new()
        assert type(got.value) is type(e) and str(got.value) == str(e)
        return type(e).__name__
    target, got = new()
    assert (target.ring, target.degree, target.weight) == (dst.ring, dst.degree, dst.weight)
    assert target.gens == dst.gens
    assert got.p == want.p and got.array.dtype == np.int64
    assert np.array_equal(got.array, want.array)
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slice_maps_by_index_match_reference(p):
    raised = set()
    for m in (1, 2, 3):
        for s in _grid_slices(p, m):
            if not s.dim:
                continue  # every map out of it is the empty matrix, no call made
            for name, new, dst, ref in _slice_map_cases(s):
                error = _assert_same_map(new, s, dst, ref)
                if error:
                    raised.add((name.split()[0], error))
    # the grid reaches every exception the reference maps raise
    assert {
        ("d", "WindowOverflow"),
        ("C^-1", "WindowOverflow"),
        ("euler", "ValueError"),
        ("restrict", "LogPoleError"),
        ("residue", "LogPoleError"),
        ("twist", "WindowOverflow"),
        ("transport", "WindowOverflow"),
    } <= raised


def test_slice_maps_refuse_what_their_formulas_do_not_fit():
    """Transport or twist into a ring with other variable names, a twist or
    residue at a non-log variable, and an extension that changes a shared
    variable's log status each raise ValueError up front, also from a
    slice with no basis."""
    ring = FormRing(3, 3, log=(0, 1), laurent=(1,), window=((0, 2), (-1, 2), (0, 2)))
    renamed = FormRing(3, names=("A", "B", "C"), log=(0, 1), laurent=(1,), window=ring.window)
    for j, w in ((1, (1, 0, 1)), (2, (0, -1, 2)), (4, (0, 0, 0))):
        s = ring.slice(j, w)
        refused = (
            (lambda: transport_matrix(s, renamed), "identical variable names"),
            (lambda: twist_matrix(s, 0, renamed), "identical variable names"),
            (lambda: twist_matrix(s, 2, ring.with_log({1})), "twist needs a log variable"),
            (lambda: residue_matrix(s, 2), "residue needs a log variable"),
            (lambda: extend_matrix(s, _extended(ring, frozenset({1, 3}))), "log status"),
        )
        for build, message in refused:
            with pytest.raises(ValueError, match=message):
                build()
    assert ring.slice(4, (0, 0, 0)).dim == 0


def test_format_parse_roundtrip():
    r = ring2()
    forms = [
        r.zero(1),
        r.gen(0),
        r.monomial((2, 1), 2).wedge(r.gen(0)).wedge(r.gen(1)),
        r.monomial((1, 0)) + r.monomial((0, 1), 2),
    ]
    for f in forms:
        assert parse_form(r, format_form(f)) == f


def test_parse_accepts_minus():
    r = ring2()
    f = parse_form(r, "T1 - T2")
    assert f.coefficient((1, 0), ()) == 1
    assert f.coefficient((0, 1), ()) == r.p - 1


def test_parse_mixed_generators():
    r = FormRing(3, names=("T1", "T2"), log=(0,), window=((0, 4), (0, 4)))
    f = parse_form(r, "2*T1^2*T2 dlogT1^dT2")
    assert f.degree == 2
    assert f.coefficient((2, 1), (0, 1)) == 2


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_wedge_associative_property(p, data):
    r = FormRing(p, names=("T1", "T2", "T3"), log=(0, 2), window=((0, 6),) * 3)

    def rand_form(degree):
        f = r.zero(degree)
        for _ in range(2):
            a = tuple(data.draw(st.integers(0, 1)) for _ in range(3))
            gens = tuple(sorted(data.draw(st.sets(st.integers(0, 2), min_size=degree, max_size=degree))))
            c = data.draw(st.integers(0, p - 1))
            g = r.monomial(a, c)
            for i in gens:
                g = g.wedge(r.gen(i))
            f = f + g
        return f

    a, b, c = rand_form(0), rand_form(1), rand_form(1)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    # graded commutativity in degree (1,1)
    assert b.wedge(c) == -(c.wedge(b))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_d_is_linear_property(p, data):
    r = FormRing(p, names=("T1", "T2"), log=(0,), window=((0, 5), (0, 5)))
    terms = []
    for _ in range(3):
        a = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        terms.append(r.monomial(a, data.draw(st.integers(0, p - 1))))
    f, g = terms[0] + terms[1], terms[2]
    assert (f + g).d() == f.d() + g.d()
    assert (f - g).d() == f.d() - g.d()
