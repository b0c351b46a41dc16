"""Command-line front end: run cohomology computations and verification
suites, emit JSON/CSV/text reports.

Exit codes: 0 success, 1 usage or invalid input, 2 resource cap exceeded,
3 verification failure.  Identical configs produce byte-identical output;
timings are omitted unless requested, since they never reproduce.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from functools import cache, lru_cache, partial
from itertools import combinations, product
from math import comb

from . import __version__
from .cartier import (
    ZBDecomposition,
    c_minus_one_surjectivity,
    cartier,
    cartier_slice_matrix,
    etale_obstruction_demo,
    inverse_cartier_matrix,
    nu_sections,
    slice_bijection_ok,
    walk_source_classes,
    walk_window_classes,
)
from .cech import (
    MAX_BOX_RADIUS,
    BlowupSpace,
    ProjectiveSpace,
    ResourceLimit,
    SheafSpec,
    blowup_cohomology,
    blowup_weight_oracle,
    cech_cohomology,
    connecting_map_check,
    formal_functions_check,
    generator_check,
)
from .forms import FormRing
from .gflinalg import FpMatrix, PrimeField
from .purity import (
    GysinSetup,
    closed_iso_compatible,
    commuting_square,
    gysin_residue,
    gysin_residue_closed,
    iterated_purity,
    nu_purity_report,
)
from .sequences import (
    FiltrationSpec,
    closed_slice_basis,
    euler_complex,
    filtration,
    fundamental_ses_check,
    pullback_ses,
    walk_residue_cells,
    walk_residue_classes,
    walk_sign_classes,
)

SCHEMA_VERSION = "1"

class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = "verify"
    suite: str = "all"
    p: int = 2
    m: int = 2
    n: int = 2
    c: int = 2
    j: int = 1
    l: int = 0
    space: str = "P2"
    log_indices: tuple = ()
    box_radius: int | None = None
    output: str | None = None
    fmt: str = "text"
    timings: bool = False
    expect_dims: str | None = None

    def validate(self):
        try:
            PrimeField(self.p)
        except ValueError as e:
            raise UsageError(str(e))
        if not 1 <= self.m <= 6:
            raise UsageError("m must be between 1 and 6")
        if not 1 <= self.n <= 6:
            raise UsageError("n must be between 1 and 6")
        if not 2 <= self.c <= 6:
            raise UsageError("c must be between 2 and 6")
        if (self.box_radius or 0) > MAX_BOX_RADIUS:
            raise UsageError(f"weight box radius is capped at {MAX_BOX_RADIUS}")
        if self.box_radius is not None and self.box_radius < 1:
            raise UsageError("weight box radius must be at least 1")
        if self.fmt not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.suite != "all" and self.suite not in SUITES:
            raise UsageError(f"unknown suite {self.suite!r}")
        self.expected_dims()

    def expected_dims(self) -> list | None:
        """The --expect-dims list, "inf" read as None; None when not given."""
        if self.expect_dims is None:
            return None
        tokens = self.expect_dims.split(",")
        if not all(t == "inf" or (t.isascii() and t.isdigit()) for t in tokens):
            raise UsageError(f"--expect-dims takes integers or inf, got {self.expect_dims!r}")
        return [None if t == "inf" else int(t) for t in tokens]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["log_indices"] = list(self.log_indices)
        # presentation-only: same math config must give identical bytes
        # whatever the destination
        d.pop("output")
        d.pop("fmt")
        return d


@dataclass
class CheckResult:
    name: str
    params: str
    passed: bool
    dims: str = ""
    statement: str = ""
    elapsed_ms: float | None = None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self, timings: bool) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "dims": self.dims,
            "statement": self.statement,
            "elapsed_ms": round(self.elapsed_ms, 3) if timings and self.elapsed_ms is not None else None,
        }


def _run_checks(rows) -> list[CheckResult]:
    """rows: (name, params, statement, fn, kwargs) with fn(**kwargs) ->
    (passed, dims).  A crash in a check is a FAIL with the error text, never
    an abort of the run."""
    out = []
    for name, params, statement, fn, kwargs in rows:
        t0 = time.perf_counter()
        try:
            passed, dims = fn(**kwargs)
        except ResourceLimit:
            raise
        except Exception as e:  # noqa: BLE001 - verification must report, not die
            passed, dims = False, f"error: {type(e).__name__}: {e}"
        dt = (time.perf_counter() - t0) * 1000.0
        out.append(CheckResult(name, params, passed, str(dims), statement, dt))
    return out


def _log_subsets(m: int):
    """The log-set grid: every subset for m <= 2, a representative chain
    for m = 3 (full powerset is 8 rings; the chain exercises all sizes)."""
    if m <= 2:
        return [frozenset(s) for k in range(m + 1) for s in combinations(range(m), k)]
    return [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(m))]


# -- cartier suite ---------------------------------------------------------------


def _cartier_main_axiom(rings):
    checked = 0
    for ring in rings:
        p, m = ring.p, ring.m
        rng = random.Random(0)
        polys = []
        for w in product(range(3), repeat=m):
            polys.append(ring.monomial(w))
        for _ in range(5):
            f = ring.zero(0)
            for _ in range(3):
                w = tuple(rng.randrange(3) for _ in range(m))
                f = f + ring.monomial(w) * rng.randrange(1, p)
            polys.append(f)
        for f in polys:
            lhs = cartier(_pow(f, p - 1).wedge(f.d()))
            if lhs != f.d():
                return False, f"C(f^(p-1)df) != df for {f}"
            checked += 1
    return True, f"checked={checked}"


def _cartier_inverse_identity(rings):
    checked = 0
    for ring in rings:
        p = ring.p

        def check(j, w):  # slice (j, w) is the source of C at (j, p w)
            zb, src, matc = cartier_slice_matrix(ring, j, tuple(p * x for x in w))
            zc = zb.Z_basis.solve(inverse_cartier_matrix(src)[1].array)
            if zc is None:
                return f"C^-1 image not closed at (j={j}, w={w})"
            if matc @ FpMatrix(p, zc) != FpMatrix.identity(p, src.dim):
                return f"C(C^-1(eta)) != eta at (j={j}, w={w})"

        for j in range(ring.m + 1):
            # sources with a basis, a function of the status at x
            walk = walk_source_classes(ring, 2 * p, partial(check, j), partial(ring.gens, j))
            for (w, count, _parts), bad in walk:
                if bad:
                    return False, bad
                checked += count * len(ring.gens(j, w))
    return True, f"checked={checked}"


def _cartier_kernel_exact(rings):
    checked = 0
    for ring in rings:

        def check(j, w):
            zb, src, matc = cartier_slice_matrix(ring, j, w)
            if src is not None:  # else p does not divide w; exactness asserted inside
                kern = matc.kernel_matrix()
                b_in_z = FpMatrix(ring.p, zb.Z_basis.solve(zb.B_basis.array))
                if not kern.same_column_space(b_in_z):
                    return f"ker C != B at (j={j}, w={w})"

        # exact forms at shell weights have antiderivatives outside the box,
        # so the walk takes the window
        for j in range(ring.m + 1):
            for (_w, count, _parts), bad in walk_window_classes(ring, partial(check, j)):
                if bad:
                    return False, bad
                checked += count
    return True, f"slices={checked}"


def _closed_pool(ring):
    """The closed basis forms of every slice (j, w) with w in [0, p]^m, each
    beside its image under C, as (j, w, [(omega, C(omega)), ...]) in the
    order of j and then w, read by the frobenius-linear,
    wedge-multiplicative and additive rows."""
    pool = []
    for j in range(ring.m + 1):
        for w in product(range(ring.p + 1), repeat=ring.m):
            s, zbasis = closed_slice_basis(ring, j, w)
            forms = [s.from_vector(zbasis.column(k)) for k in range(zbasis.cols)]
            pool.append((j, w, [(omega, cartier(omega)) for omega in forms]))
    return pool


def _cartier_frobenius_linear(ring, pool):
    p, m = ring.p, ring.m
    coordinates = [ring.monomial(tuple(1 if t == i else 0 for t in range(m))) for i in range(m)]
    powers = [(f, _pow(f, p)) for f in coordinates]
    checked = 0
    for j, w, forms in pool():
        for omega, c_omega in forms:
            for i, (f, fp) in enumerate(powers):
                lhs = cartier(fp.wedge(omega))
                rhs = f.wedge(c_omega)
                if lhs != rhs:
                    return False, f"C(f^p w) != f C(w) at (j={j}, w={w}, i={i})"
                checked += 1
    return True, f"checked={checked}"


def _cartier_wedge_multiplicative(ring, pool):
    rng = random.Random(1)
    forms = [(j, pair) for j, _w, basis in pool() for pair in basis]
    checked = 0
    for _ in range(min(250, len(forms) * len(forms))):
        j1, (a, ca) = forms[rng.randrange(len(forms))]
        j2, (b, cb) = forms[rng.randrange(len(forms))]
        if j1 + j2 > ring.m:
            continue
        lhs = cartier(a.wedge(b))
        rhs = ca.wedge(cb)
        if lhs != rhs:
            return False, f"C(a^b) mismatch at degrees ({j1},{j2})"
        checked += 1
    return True, f"pairs={checked}"


def _cartier_additive(pool):
    rng = random.Random(2)
    checked = 0
    for j, w, forms in pool():
        if len(forms) < 2:
            continue
        for _ in range(3):
            a, ca = forms[rng.randrange(len(forms))]
            b, cb = forms[rng.randrange(len(forms))]
            if cartier(a + b) != ca + cb:
                return False, f"additivity fails at (j={j}, w={w})"
            checked += 1
    return True, f"pairs={checked}"


def _cartier_weight_scaling(ring):
    p, m = ring.p, ring.m
    bij = 0
    for j in range(m + 1):
        for (w, count, _parts), ok in walk_source_classes(ring, 2, partial(slice_bijection_ok, ring, j)):
            if not ok:
                return False, f"C^-1 not bijective onto Z/B at (j={j}, w={w})"
            bij += count
    killed = 0
    for j in range(m + 1):
        # p-indivisible weights, a function of the types (whether p divides
        # each w_k); the verdict reads the dims of the decomposition at the
        # first weight of its cell, which are those at each of its weights
        walk = walk_window_classes(ring, partial(ZBDecomposition, ring, j), lambda w: any(x % p for x in w))
        for (w, count, _parts), zb in walk:
            if zb.dim_Z != zb.dim_B:
                return False, f"closed slice not exact at non-p weight {w}"
            killed += count
    return True, f"bijections={bij} annihilated={killed}"


def _pow(f, k: int):
    out = f.ring.one()
    for _ in range(k):
        out = out.wedge(f)
    return out


def _window_rings(p: int, m: int, window: int, logs):
    """The rings in m variables on one window with the given log sets, all
    derived from one base ring, so that they share its class store
    (`FormRing.per_class`)."""
    base = FormRing(p, m, log=range(m), window=window)
    return tuple(base.with_log(log) for log in logs)


# The cartier suite's form-level rows still grow with p: the main axiom
# builds f^(p-1) by p - 1 wedges for each of its 3^m + 5 forms, and the
# closed pool holds the closed basis of every slice (j, w) with w in
# [0, p]^m, each of which the frobenius-linear row wedges with T_i^p.  (Its
# inverse-identity, kernel and weight-scaling rows check one weight per
# cell.)  The cap counts the (2p+1)^m weights of the suite's window-2p
# ring and holds the suite to 5 s in process on a 2-vCPU machine (Python
# 3.11): (p, m) = (23, 2) with 2209 weights took 0.17 s and (3, 4) with
# 2401 0.25 s; over the cap, (2, 5) with 3125 took 0.48 s, (7, 3) with 3375
# 0.20 s, (37, 2) with 5625 0.60 s and (61, 2) with 15,129 2.7 s, of which
# the main axiom's powers took 70% under cProfile.  Peak RSS stayed at
# 33-44 MB.
CARTIER_MAX_WEIGHTS = 2500


def _check_window_weights(p: int, m: int) -> None:
    """Raise ResourceLimit before any work when the cartier suite would run
    on a window-2p ring in m variables, (2p+1)^m weights, above the cap."""
    weights = (2 * p + 1) ** m
    if weights > CARTIER_MAX_WEIGHTS:
        raise ResourceLimit(
            f"cartier suite needs {weights} window weights at p={p} m={m} (cap {CARTIER_MAX_WEIGHTS})"
        )


def suite_cartier(p: int, m: int) -> list[CheckResult]:
    _check_window_weights(p, m)
    rings = _window_rings(p, m, 2 * p, (range(m), ()))
    both, kw = {"rings": rings}, {"ring": rings[0]}
    wide = {"rings": _window_rings(p, m, 2 * p * p + 2, (range(m), ()))}
    # one pool for the three rows that read closed forms; a build that
    # raises is not kept, so each of them fails with its own message
    pool = {"pool": lru_cache(maxsize=None)(partial(_closed_pool, rings[0]))}
    params = f"p={p} m={m}"
    return _run_checks(
        [
            (
                "cartier-main-axiom",
                params,
                "C(f^(p-1) df) = df for monomials and random polynomials",
                _cartier_main_axiom,
                both,
            ),
            (
                "cartier-inverse-identity",
                f"{params} |w|<=2p",
                "C(C^-1(eta)) = eta on every slice basis element",
                _cartier_inverse_identity,
                wide,
            ),
            (
                "cartier-kernel-exact-forms",
                params,
                "C(omega) = 0 exactly on the exact forms, per slice",
                _cartier_kernel_exact,
                both,
            ),
            (
                "cartier-frobenius-linear",
                params,
                "C(f^p omega) = f C(omega) for coordinate monomials f",
                _cartier_frobenius_linear,
                {**kw, **pool},
            ),
            (
                "cartier-wedge-multiplicative",
                params,
                "C(omega ^ omega') = C(omega) ^ C(omega') on closed forms",
                _cartier_wedge_multiplicative,
                {**kw, **pool},
            ),
            ("cartier-additive", params, "C(omega + omega') = C(omega) + C(omega')", _cartier_additive, pool),
            (
                "cartier-weight-scaling",
                params,
                "C^-1: Omega_w -> (Z/B)_pw bijective; closed slices at p-indivisible weights are exact",
                _cartier_weight_scaling,
                kw,
            ),
        ]
    )


# -- residue suite ---------------------------------------------------------------


def _residue_exactness(ring, a, z):
    weights = 0
    for (w, count, _parts), bad in walk_residue_classes(ring, a, z, 4 if a == 1 else 3):
        if bad:
            t, cx = bad
            return False, f"sequence {t} fails at w={w}: {cx.exactness_verdicts()}"
        weights += count
    return True, f"slices={[weights] * 3 + [weights if a == 1 else 0]}"


def _residue_laurent_ring(p):
    # T2 inverted, residues taken along V(T1): the divisor still meets
    # the chart, while sections carry genuinely negative T2 exponents
    return FormRing(p, 2, log=(0, 1), laurent=(1,), window=((0, 2), (-2, 2)))


def _residue_laurent_spot(p):
    weights = 0
    for (w, count, _parts), bad in walk_residue_classes(_residue_laurent_ring(p), 1, 0, 3):
        if bad:
            return False, f"Laurent slice fails at w={w}"
        weights += count
    return True, f"slices={3 * weights}"


def _residue_rings(p: int, m: int):
    return list(_window_rings(p, m, p + 2, [log for log in _log_subsets(m) if log]))


# The residue suite has no cost cap: each residue-exactness row builds its
# sequences once per class of cells of per-coordinate types that read
# whether p divides w_k, so the cost does not grow with p.  In process on
# a 2-vCPU machine (Python 3.11), every m <= 6 at p in {2, 3, 5, 7, 251}
# took at most 3.4 s (m = 6, 55 MB peak RSS; m = 5 at most 0.7 s).
def suite_residue(p: int, m: int) -> list[CheckResult]:
    rows = []
    for ring in _residue_rings(p, m):
        for a in range(1, m + 1):
            rows.append(
                (
                    "residue-exactness",
                    f"p={p} m={m} log={sorted(ring.log)} a={a}",
                    "divisor-drop, twist, closed (and a=1 all-divisors) residue sequences exact per weight",
                    _residue_exactness,
                    {"ring": ring, "a": a, "z": min(ring.log)},
                )
            )
    rows.append(
        (
            "residue-laurent-spot",
            f"p={p} m=2 laurent",
            "residue sequences stay exact when another chart variable is inverted",
            _residue_laurent_spot,
            {"p": p},
        )
    )
    return _run_checks(rows)


# -- euler suite -----------------------------------------------------------------


def _euler_exactness(p, n, j, l):
    torus = frozenset(range(n + 1))

    def check(wc):
        w, inverted = wc
        cx = euler_complex(p, n, j, l, w, inverted=inverted)
        if not cx.is_exact():
            return f"w={w} chart={inverted}: {cx.exactness_verdicts()}"

    # one complex per sign class of the chart (sequences module docstring),
    # over the box cut by sum(w) = l; chart None is the torus
    charts = {None: torus, frozenset({0}): frozenset({0})}
    checked = 0
    for (_wc, count), bad in walk_sign_classes([range(-2, 3)] * (n + 1), charts, check, l):
        if bad:
            return False, bad
        checked += count
    return True, f"slices={checked}"


def suite_euler(p: int, n: int) -> list[CheckResult]:
    return _run_checks(
        (
            "euler-exactness",
            f"p={p} n={nn} j={j} l={l}",
            "wedge-power Euler sequence exact per weight on torus and one-coordinate charts",
            _euler_exactness,
            {"p": p, "n": nn, "j": j, "l": l},
        )
        for nn in range(1, n + 1)
        for j in range(nn + 1)
        for l in (0, 1)
    )


# -- filtration suite ------------------------------------------------------------


def _filtration_graded_dims(p, u, w, steps, ranks):
    v = u + w
    for k in range(v + 1):
        rep = filtration(FiltrationSpec(u, w, k), p, steps, ranks)
        if not rep.ok:
            return False, f"k={k} graded={rep.graded_dims} expected={rep.expected_dims}"
        if rep.graded_dims != [comb(u, k - i) * comb(w, i) for i in range(k + 1)]:
            return False, f"k={k} dims mismatch"
    return True, f"k=0..{v}"


def suite_filtration(p: int) -> list[CheckResult]:
    # the step verdicts by class and the tensor factors' subset indices,
    # shared by the rows (`filtration`)
    steps, ranks = {}, {}
    return _run_checks(
        (
            "filtration-graded-dims",
            f"p={p} u={u} w={w}",
            "two-step filtration of Wedge^k(U+W): graded pieces are Wedge^(k-i)U (x) Wedge^iW",
            _filtration_graded_dims,
            {"p": p, "u": u, "w": w, "steps": steps, "ranks": ranks},
        )
        for u in range(1, 6)
        for w in range(1, 6)
    )


# -- generators suite ------------------------------------------------------------


def _generator_cocycle(p, n, j):
    rep = generator_check(p, n, j)
    return rep.spans, f"H^{j} dim={rep.h_dim}"


def _connecting_isomorphism(p, n):
    rep = connecting_map_check(p, n)
    return rep.is_isomorphism, f"scalar={rep.image_class_scalar} H^n dim={rep.h_top_dim}"


def suite_generators(p: int, n: int) -> list[CheckResult]:
    rows = []
    for nn in range(1, n + 1):
        for j in range(nn + 1):
            rows.append(
                (
                    "generator-cocycle",
                    f"p={p} n={nn} j={j}",
                    "alternating dlog cocycle spans H^j(P^n, Omega^j)",
                    _generator_cocycle,
                    {"p": p, "n": nn, "j": j},
                )
            )
        rows.append(
            (
                "connecting-isomorphism",
                f"p={p} n={nn}",
                "boundary map H^(n-1)(D, Omega^(n-1)) -> H^n(P^n, Omega^n) hits the generator",
                _connecting_isomorphism,
                {"p": p, "n": nn},
            )
        )
    return _run_checks(rows)


# -- purity suite ----------------------------------------------------------------


def _purity_square(square, n):
    rep = square(n)
    return rep.ok, f"checked={rep.checked} failures={len(rep.failures)}"


def _gysin_residue_iso(setup, n):
    def check(w):
        g1 = gysin_residue(setup, n, w)
        g2 = gysin_residue_closed(setup, n, w)
        if not (g1.ok and g2.ok):
            return f"w={w} coker={g1.coker_dim} target={g1.target_dim}"
        if not closed_iso_compatible(setup, n, w):
            return f"w={w}: closed iso not a restriction"

    ok = 0
    for (_w, count, _parts), bad in walk_residue_cells(setup.ring, n, {setup.z}, check):
        if bad:
            return False, bad
        ok += count
    return True, f"slices={ok}"


def _nu_purity_dims(setup, n, square):
    rep = nu_purity_report(setup, n, square)
    return (
        rep.ok,
        f"nu expected={rep.expected_nu_dim} computed={rep.computed_nu_dim} obstruction={rep.obstruction_dim}",
    )


def _iterated_purity(ring):
    rep = iterated_purity(ring, (0, 1), 2)
    return rep.ok, f"r=2 weights={rep.weights}"


# the purity-square suite checks the degrees n = 0..PURITY_MAX_N (at most m - 1)
PURITY_MAX_N = 2

# The purity-square suite has no cost cap: for each mm = 2..m its rows run
# on the window-2p ring in mm variables and check one weight per cell of
# per-coordinate types, the commuting-square, Gysin and nu-purity rows by
# the residue type with center 0, which reads whether p divides w_k
# (sequences.residue_coordinate_type, and purity._nu_purity_coordinate_type
# for the C - 1 blocks), and the iterated-purity row by the statuses alone
# (purity.iterated_purity), so the cells do not multiply with p.
# In process on 2 shared vCPUs (Python 3.11), m = 6 took 0.33-0.57 s at
# p = 2 and 0.35-0.49 s at p = 251.
def suite_purity(p: int, m: int) -> list[CheckResult]:
    rows = []
    for mm in range(2, max(m, 2) + 1):
        ring = FormRing(p, mm, log=range(mm), window=2 * p)
        setup = GysinSetup(ring, 0)
        # each square runs once: the nu-purity row of degree n reads the
        # square of degree max(n - 1, 0), which a square row has run before
        square = lru_cache(maxsize=None)(partial(commuting_square, setup))
        for n in range(0, min(PURITY_MAX_N, mm - 1) + 1):
            params, kw = f"p={p} m={mm} n={n}", {"setup": setup, "n": n}
            rows += [
                (
                    "purity-commuting-square",
                    params,
                    "residue(C(eta)) = C(residue(eta)) on closed slice bases",
                    _purity_square,
                    {"square": square, "n": n},
                ),
                (
                    "gysin-residue-iso",
                    params,
                    "coker(no-pole forms -> log forms) isomorphic to divisor forms via residue, plain and closed",
                    _gysin_residue_iso,
                    kw,
                ),
                (
                    "nu-purity-dims",
                    params,
                    "ker(C-1) on Gysin cokernels has the nu_Z(n-1) dimension; C-1 cokernel reported",
                    _nu_purity_dims,
                    {**kw, "square": square},
                ),
            ]
        rows.append(
            (
                "iterated-purity",
                f"p={p} m={mm} r=2",
                "composite of two residues surjects onto Omega^(n-2) slices, order-independently",
                _iterated_purity,
                {"ring": ring},
            )
        )
    return _run_checks(rows)


# -- nu suite --------------------------------------------------------------------


def _nu_dimension(ring, n):
    rep = nu_sections(ring, n)
    want = comb(len(ring.log), n)
    if rep.dim != want:
        return False, f"dim {rep.dim} != C({len(ring.log)},{n})={want}"
    if not rep.matches_dlog_span:
        return False, "kernel differs from the dlog wedge span"
    for f in rep.basis:
        if not f.d().is_zero():
            return False, "nu section not closed"
        if cartier(f) != f:
            return False, "nu section not fixed by C"
    return True, f"dim={rep.dim}"


def _nu_artin_schreier_preimage(p, m):
    ring = FormRing(p, m, log=range(m), window=2 * p)
    targets = [ring.zero(0), ring.monomial(tuple(1 if i == 0 else 0 for i in range(m)))]
    if m >= 2:
        targets.append(
            ring.monomial(tuple(1 if i < 2 else 0 for i in range(m)))
            + ring.monomial(tuple(0 for _ in range(m)))
        )
    wedge = tuple(range(min(m, 2)))
    done = 0
    for h in targets:
        cert = c_minus_one_surjectivity(ring, h, wedge)
        if not cert.ok:
            return False, f"certificate fails for h={h}"
        done += 1
    return True, f"targets={done}"


# The nu suite has no cost cap either: nu_sections solves C - 1 at weight 0
# alone and walks the other window weights by cell, and the Artin-Schreier
# preimage raises by squaring.  Measured as the residue suite above, every
# m <= 6 at the same primes took at most 0.95 s (m = 6, 42 MB peak RSS).
def suite_nu(p: int, m: int) -> list[CheckResult]:
    rows = []
    for ring in _window_rings(p, m, 2 * p, _log_subsets(m)):
        for n in range(0, m + 2):
            rows.append(
                (
                    "nu-dimension",
                    f"p={p} m={m} log={sorted(ring.log)} n={n}",
                    "ker(C-1) on closed n-forms = span of dlog wedges, dimension C(|L|, n)",
                    _nu_dimension,
                    {"ring": ring, "n": n},
                )
            )
    rows.append(
        (
            "nu-artin-schreier-preimage",
            f"p={p} m={m}",
            "(C-1) preimages of h * dlog wedges exist in the rank-p extension gamma^p - gamma = h",
            _nu_artin_schreier_preimage,
            {"p": p, "m": m},
        )
    )
    return _run_checks(rows)


# -- obstruction suite -----------------------------------------------------------


def _etale_obstruction(p):
    rep = etale_obstruction_demo(p, bound=8)
    return rep.ok, (
        f"base_solution={rep.base_solution_exists} "
        f"certificate_ok={rep.certificate.ok} control_found={rep.control_solution is not None}"
    )


def suite_obstruction(p: int) -> list[CheckResult]:
    return _run_checks(
        [
            (
                "etale-obstruction",
                f"p={p} bound=8",
                "gamma^p - gamma = 1/t: no Laurent solution up to degree 8, solvable in the rank-p extension",
                _etale_obstruction,
                {"p": p},
            )
        ]
    )


# -- pullback suite --------------------------------------------------------------


def _pullback_ses(p, c, n):
    def check(wc):
        w, chart = wc
        cx = pullback_ses(p, c, n, w, chart=chart)
        if not cx.is_exact():
            return f"w={w} chart={chart}: {cx.exactness_verdicts()}"

    # one complex per sign class of the chart (sequences module docstring)
    checked = 0
    for (_wc, count), bad in walk_sign_classes([range(-1, 2)] * c, {chart: (chart,) for chart in range(c)}, check):
        if bad:
            return False, bad
        checked += count
    return True, f"slices={checked}"


def _fundamental_ses(p):
    for mm in (2, 3):
        rep = fundamental_ses_check(FormRing(p, mm, log=range(mm), window=p + 1), 0)
        if not rep.ok:
            return False, f"m={mm}: conormal/restriction bookkeeping fails"
    return True, "m=2,3"


# The pullback suite has no cost cap either: its pullback-ses rows build
# one complex per sign class of {-1, 0, 1}^c, the same at every p, and its
# fundamental-ses row runs fundamental_ses_check on window-(p+1) rings in 2
# and 3 variables, once per cell of types that read at most whether p
# divides w_k, so its cells do not multiply with p.
# In process on 2 shared vCPUs (Python 3.11), c = 6 took 0.49-0.84 s at
# p = 53 and 0.50-0.85 s at p = 251.
def suite_pullback(p: int, c: int) -> list[CheckResult]:
    rows = [
        (
            "pullback-ses",
            f"p={p} c={cc} n={n}",
            "0 -> Omega^n(log) -> pullback-log forms -> Omega^(n-1)(log) -> 0 exact per weight",
            _pullback_ses,
            {"p": p, "c": cc, "n": n},
        )
        for cc in range(2, c + 1)
        for n in range(0, cc)
    ]
    rows.append(
        (
            "fundamental-ses",
            f"p={p}",
            "conormal map vanishes on log restriction and slice dims split as pullback + lower degree",
            _fundamental_ses,
            {"p": p},
        )
    )
    return _run_checks(rows)


# -- blowup suite ----------------------------------------------------------------


def _blowup_acyclicity(p, m, c, j):
    rep = blowup_cohomology(m, c, j, p)
    higher = rep.dims[1:]
    if any(higher):
        return False, f"H^(i>0) = {higher}"
    # the engine's per-weight dims against the Cech complex built at each
    # weight of [-c, c]^c x [0, c]^(m-c), a box that meets every validity key
    # of the suite's rows; the default box is not listed, since at p = 61 it
    # holds 127^c * 64^(m-c) weights
    listed = blowup_cohomology(m, c, j, p, box_radius=c).per_weight
    complex_dims = blowup_weight_oracle(m, c, j, p)
    for w in product(*[range(-c, c + 1)] * c, *[range(c + 1)] * (m - c)):
        got, want = listed.get(w, [0] * c), complex_dims(w)
        if got != want:
            return False, f"w={w}: dims {got}, complex at w {want}"
    return True, f"dims={rep.dims} box_weights={len(rep.per_weight)}"


def _formal_functions(p):
    rep = formal_functions_check(2, 1, 3, p)
    return rep.ok, f"ses_exact={rep.ses_exact} pieces={len(rep.pieces)}"


def suite_blowup(p: int) -> list[CheckResult]:
    rows = [
        (
            "blowup-acyclicity",
            f"p={p} m={m} c={c} j={j}",
            "higher Cech cohomology of log forms on the blowup vanishes over stabilized boxes",
            _blowup_acyclicity,
            {"p": p, "m": m, "c": c, "j": j},
        )
        for m, c in ((2, 2), (3, 2), (3, 3))
        for j in range(m + 1)
    ]
    rows.append(
        (
            "formal-functions",
            f"p={p} c=2 j=1 l<=3",
            "thickened exceptional-fiber cohomology vanishes via the pullback sequence and twist vanishing",
            _formal_functions,
            {"p": p},
        )
    )
    return _run_checks(rows)


# -- projective table suite ------------------------------------------------------


def _projective_diagonal(p, n):
    for j in range(n + 1):
        rep = cech_cohomology(SheafSpec(p=p, space=ProjectiveSpace(n), j=j))
        want = [1 if i == j else 0 for i in range(n + 1)]
        if rep.dims != want:
            return False, f"Omega^{j}: dims={rep.dims}"
    return True, f"delta table 0..{n}"


def _projective_twist_vanishing(p, n):
    for j in range(n + 1):
        for l in (1, 2, 3):
            rep = cech_cohomology(SheafSpec(p=p, space=ProjectiveSpace(n), j=j, l=l))
            if any(rep.dims[1:]):
                return False, f"Omega^{j}({l}): dims={rep.dims}"
    return True, "l=1..3"


def _projective_log_vanishing(p, n):
    for l in (0, 1, 2, 3):
        rep = cech_cohomology(SheafSpec(p=p, space=ProjectiveSpace(n), j=n, S=frozenset({0}), l=l))
        if any(rep.dims[1:]):
            return False, f"Omega^{n}(log)({l}): dims={rep.dims}"
    return True, "l=0..3"


def _projective_log_serre_duality(p, n):
    """h^i(Omega^j(log D_S)(l)) = h^(n-i)(Omega^(n-j)(log D_S)(-|S| - l)) for
    S empty, {0}, {0, 1} or {0..n}, every j and l in [-n - 4, 4].  The wedge
    pairing into Omega^n(log D_S) = O(|S| - n - 1) is perfect, so this is
    Serre duality (Esnault and Viehweg, Lectures on Vanishing Theorems,
    1992).  Its negative twists read the top-degree dims of the patterns
    with a negative coordinate, which no other row reads."""
    space = ProjectiveSpace(n)
    cases = 0
    for S in dict.fromkeys(map(frozenset, ((), (0,), (0, 1), range(n + 1)))):
        for j in range(n + 1):
            for l in range(-n - 4, 5):
                dims = cech_cohomology(SheafSpec(p=p, space=space, j=j, S=S, l=l)).dims
                dual = cech_cohomology(SheafSpec(p=p, space=space, j=n - j, S=S, l=-len(S) - l)).dims
                if dims[::-1] != dual:
                    return False, f"j={j} S={sorted(S)} l={l}: dims={dims}, dual dims={dual}"
                cases += 1
    return True, f"{cases} cases l={-n - 4}..4"


def suite_projective(p: int, n: int) -> list[CheckResult]:
    rows = []
    for nn in range(1, n + 1):
        params, kw = f"p={p} n={nn}", {"p": p, "n": nn}
        rows += [
            (
                "projective-diagonal",
                params,
                "dim H^i(P^n, Omega^j) = 1 if i = j else 0",
                _projective_diagonal,
                kw,
            ),
            (
                "projective-twist-vanishing",
                params,
                "H^i(P^n, Omega^j(l)) = 0 for i >= 1, l >= 1",
                _projective_twist_vanishing,
                kw,
            ),
            (
                "projective-log-vanishing",
                params,
                "H^i(P^n, Omega^n(log V(X_0))(l)) = 0 for i >= 1, l >= 0",
                _projective_log_vanishing,
                kw,
            ),
            (
                "projective-log-serre-duality",
                params,
                "h^i(P^n, Omega^j(log D_S)(l)) = h^(n-i)(P^n, Omega^(n-j)(log D_S)(-|S|-l))",
                _projective_log_serre_duality,
                kw,
            ),
        ]
    return _run_checks(rows)


# -- command implementations -----------------------------------------------------


SUITES = {
    "cartier": lambda cfg: suite_cartier(cfg.p, cfg.m),
    "residue": lambda cfg: suite_residue(cfg.p, cfg.m),
    "euler": lambda cfg: suite_euler(cfg.p, cfg.n),
    "filtration": lambda cfg: suite_filtration(cfg.p),
    "generators": lambda cfg: suite_generators(cfg.p, cfg.n),
    "purity-square": lambda cfg: suite_purity(cfg.p, cfg.m),
    "nu": lambda cfg: suite_nu(cfg.p, cfg.m),
    "obstruction": lambda cfg: suite_obstruction(cfg.p),
    "pullback": lambda cfg: suite_pullback(cfg.p, cfg.c),
    "blowup": lambda cfg: suite_blowup(cfg.p),
    "projective": lambda cfg: suite_projective(cfg.p, cfg.n),
}


def _collect_suite(cfg: RunConfig) -> list[CheckResult]:
    """Run the selected suites.  The one suite cap, cartier's, is checked
    from the config alone on the first line of `suite_cartier`, and cartier
    is the first suite of `all`, so an input over it exits before any suite
    runs."""
    todo = SUITES if cfg.suite == "all" else (cfg.suite,)
    return [c for s in todo for c in SUITES[s](cfg)]


def _emit(cfg: RunConfig, payload: str) -> None:
    if cfg.output and cfg.output != "-":
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_document(**body) -> str:
    """The tool's JSON document: its header and `body`, keys sorted."""
    doc = {"schema_version": SCHEMA_VERSION, "tool": "logcartier", "version": __version__, **body}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_table(cfg: RunConfig, rows) -> str:
    """The CSV table of rows (check, params, verdict, dims, elapsed ms), the
    time printed only with --timings."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["check", "params", "verdict", "dims", "elapsed_ms"])
    for *cells, ms in rows:
        wr.writerow([*cells, f"{ms:.3f}" if cfg.timings and ms is not None else ""])
    return buf.getvalue()


def _checks_payload(cfg: RunConfig, checks: list[CheckResult]) -> str:
    if cfg.fmt == "json":
        return _json_document(checks=[c.to_json_dict(cfg.timings) for c in checks])
    if cfg.fmt == "csv":
        return _csv_table(cfg, ((c.name, c.params, c.verdict, c.dims, c.elapsed_ms) for c in checks))
    lines = []
    for c in checks:
        ms = f"  ({c.elapsed_ms:.1f} ms)" if cfg.timings and c.elapsed_ms is not None else ""
        lines.append(f"{c.verdict}  {c.name}  [{c.params}]  {c.dims}{ms}")
    npass = sum(1 for c in checks if c.passed)
    lines.append(f"{npass}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


def cmd_verify(cfg: RunConfig) -> int:
    checks = _collect_suite(cfg)
    _emit(cfg, _checks_payload(cfg, checks))
    return 0 if all(c.passed for c in checks) else 3


def _spec_from_config(cfg: RunConfig) -> SheafSpec:
    sp = cfg.space.strip()
    try:
        if sp.lower() == "blowup":
            space = BlowupSpace(m=cfg.m, c=cfg.c)
        elif sp.upper().startswith("P") and sp[1:].isdigit():
            nn = int(sp[1:])
            if not 1 <= nn <= 6:
                raise UsageError("projective dimension must be between 1 and 6")
            space = ProjectiveSpace(nn)
        else:
            raise UsageError(f"unknown space {cfg.space!r} (use P<n> or blowup)")
        return SheafSpec(p=cfg.p, space=space, j=cfg.j, S=frozenset(cfg.log_indices), l=cfg.l)
    except ValueError as e:  # SheafSpec/BlowupSpace reject the combination
        raise UsageError(str(e)) from None


def cmd_cohomology(cfg: RunConfig) -> int:
    spec = _spec_from_config(cfg)
    t0 = time.perf_counter()
    rep = cech_cohomology(spec, box_radius=cfg.box_radius)
    if cfg.timings:
        rep.elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    dims = ["inf" if d is None else str(d) for d in rep.dims]
    if cfg.fmt == "json":
        payload = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"
    elif cfg.fmt == "csv":
        payload = _csv_table(cfg, [("cohomology", spec.label(), "OK", " ".join(dims), rep.elapsed_ms)])
    else:
        lines = [
            spec.label(),
            f"dims: [{', '.join(dims)}]",
            f"stabilized: {str(rep.stabilized).lower()}",
            f"box: {list(rep.box)}",
            f"weights with nonzero dims: {len(rep.per_weight)}",
        ]
        payload = "\n".join(lines) + "\n"
    _emit(cfg, payload)
    want = cfg.expected_dims()
    if want is not None and want != list(rep.dims):
        sys.stderr.write(f"expected dims {want}, computed {list(rep.dims)}\n")
        return 3
    return 0


def cmd_report(cfg: RunConfig) -> int:
    checks = _collect_suite(cfg)
    reports = []
    for nn in range(1, min(cfg.n, 2) + 1):
        for j in range(nn + 1):
            rep = cech_cohomology(SheafSpec(p=cfg.p, space=ProjectiveSpace(nn), j=j))
            reports.append(rep.to_json_dict())
    rep = blowup_cohomology(2, 2, 1, cfg.p)
    reports.append(rep.to_json_dict())
    _emit(cfg, _json_document(config=cfg.to_dict(), checks=[c.to_json_dict(cfg.timings) for c in checks], cohomology=reports))
    return 0 if all(c.passed for c in checks) else 3


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: a parse keeps no state
    in the parser, so every `main` call reuses it."""
    parser = _Parser(prog="logcartier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-p", type=int, default=2, help="prime characteristic")
        sp.add_argument("--output", default=None, help="output path ('-' = stdout)")
        sp.add_argument("--timings", action="store_true", help="include wall-clock timings")

    co = sub.add_parser("cohomology", help="Cech cohomology of one sheaf")
    common(co)
    co.add_argument("--format", dest="fmt", default="text", help="json | csv | text")
    co.add_argument("--space", default="P2", help="P<n> or blowup")
    co.add_argument("--sheaf", default="Omega", help="Omega (default) or O (degree-0 forms)")
    co.add_argument("--form-degree", dest="j", type=int, default=None)
    co.add_argument("--twist", dest="l", type=int, default=0)
    co.add_argument("--log-index", dest="log_indices", type=int, action="append", default=[])
    co.add_argument("--m", type=int, default=2)
    co.add_argument("--c", type=int, default=2)
    co.add_argument("--box-radius", dest="box_radius", type=int, default=None)
    co.add_argument("--expect-dims", default=None, help="comma list; mismatch exits 3")

    ve = sub.add_parser("verify", help="run a verification suite")
    common(ve)
    ve.add_argument("--format", dest="fmt", default="text", help="json | csv | text")
    ve.add_argument("suite", nargs="?", default="all", help=f"one of {', '.join(SUITES)} or all")
    ve.add_argument("-m", type=int, default=2)
    ve.add_argument("-n", type=int, default=2)
    ve.add_argument("-c", type=int, default=2)

    re_ = sub.add_parser("report", help="consolidated JSON report")
    common(re_)
    re_.add_argument("-m", type=int, default=2)
    re_.add_argument("-n", type=int, default=2)
    re_.add_argument("-c", type=int, default=2)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, p=args.p, output=args.output, timings=bool(args.timings))
    for name in ("fmt", "m", "n", "c", "l", "space", "box_radius", "expect_dims", "suite"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "log_indices"):
        cfg.log_indices = tuple(sorted(set(args.log_indices)))
    if hasattr(args, "j"):
        if args.j is not None:
            cfg.j = args.j
        elif getattr(args, "sheaf", "Omega") == "O":
            cfg.j = 0
    if getattr(args, "sheaf", "Omega") not in ("O", "Omega"):
        raise UsageError(f"unknown sheaf {args.sheaf!r}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        cfg.validate()
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    try:
        if cfg.command == "cohomology":
            return cmd_cohomology(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_report(cfg)
    except ResourceLimit as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return 2
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
