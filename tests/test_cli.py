"""Exit codes, output formats, and config plumbing of the command line tool.

Exit contract: 0 all good, 1 usage or i/o, 2 resource cap, 3 a check failed
or computed dims differ from --expect-dims.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import random
import subprocess
import sys
import time
from functools import partial
from importlib import resources
from itertools import combinations, product
from math import comb

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcartier import cech, cli, purity, sequences
from logcartier.forms import WeightSlice, WindowOverflow
from logcartier.sequences import FiltrationSpec, SliceComplex
from logcartier.cli import (
    RunConfig,
    SCHEMA_VERSION,
    UsageError,
    build_parser,
    cmd_report,
    config_from_args,
    main,
)

# the package exports a function named cartier, so the module is imported by name
cartier_module = importlib.import_module("logcartier.cartier")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- config ------------------------------------------------------------------


def test_config_validation():
    for bad in (
        {"p": 4},
        {"p": 253},
        {"m": 0},
        {"m": 7},
        {"n": 0},
        {"n": 7},
        {"c": 1},
        {"box_radius": 65},
        {"fmt": "yaml"},
        {"suite": "frobnicate"},
        {"expect_dims": "0,x,0"},
        {"expect_dims": ""},
        {"expect_dims": "0,-1"},
    ):
        with pytest.raises(UsageError):
            RunConfig(**bad).validate()
    RunConfig(p=251).validate()


def test_config_dict_roundtrip_drops_presentation():
    cfg = RunConfig(p=3, m=3, log_indices=(0, 2), output="/tmp/x.json", fmt="json")
    d = cfg.to_dict()
    assert "output" not in d and "fmt" not in d


def test_parser_sheaf():
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["cohomology", "--sheaf", "O"]))
    assert cfg.j == 0
    cfg = config_from_args(
        parser.parse_args(["cohomology", "--sheaf", "O", "--form-degree", "2"])
    )
    assert cfg.j == 2  # explicit degree wins
    with pytest.raises(UsageError):
        config_from_args(parser.parse_args(["cohomology", "--sheaf", "Sym"]))


def test_main_parses_as_a_fresh_parser_would(monkeypatch, capsys):
    # main reuses one parser per process; a parse keeps no state in it, so a
    # repeated option starts empty again, a usage error leaves nothing
    # behind, and --help prints the same bytes as a parser built anew
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__
    seen = []
    real = cli.config_from_args
    monkeypatch.setattr(cli, "config_from_args", lambda args: seen.append(args) or real(args))
    argvs = [
        ["cohomology", "--space", "P1", "--sheaf", "O", "--log-index", "1", "--twist", "-1"],
        ["cohomology", "--space", "P1", "--sheaf", "O"],
        ["cohomology", "--space", "P1", "--bogus"],
        ["cohomology", "--space", "P1", "--sheaf", "O", "--twist", "2"],
    ]
    for argv in argvs:
        before = len(seen)
        code, _out, err = run_cli(capsys, *argv)
        if "--bogus" in argv:
            assert code == 1 and "error:" in err and len(seen) == before
            with pytest.raises(UsageError):
                fresh().parse_args(argv)
        else:
            assert code == 0, argv
            assert vars(seen[-1]) == vars(fresh().parse_args(argv))
    assert [args.log_indices for args in seen] == [[1], [], []]
    for argv in (["--help"], ["verify", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        reused = capsys.readouterr().out
        with pytest.raises(SystemExit):
            fresh().parse_args(argv)
        assert stop.value.code == 0 and reused == capsys.readouterr().out


# -- exit code 1: usage and i/o ------------------------------------------------


def test_usage_errors_exit_one(capsys):
    cases = [
        ("verify", "cartier", "-p", "4"),
        ("verify", "nope"),
        ("frobnicate",),
        ("verify", "cartier", "-m", "9"),
        ("verify", "cartier", "--format", "yaml"),
        ("cohomology", "--space", "P9"),
        ("cohomology", "--space", "Q2"),
        ("cohomology", "--sheaf", "Sym"),
        ("cohomology", "--space", "P2", "--log-index", "7"),
        ("cohomology", "--space", "blowup", "--m", "2", "--c", "3"),
        ("report", "--format", "csv"),
        ("cohomology", "--space", "P2", "--sheaf", "O", "--twist", "1", "--box-radius", "0"),
        ("cohomology", "--space", "P2", "--sheaf", "O", "--box-radius", "-3"),
        ("cohomology", "--space", "P2", "--form-degree", "-1"),
        ("cohomology", "--space", "P2", "--expect-dims", "0,x,0"),
        ("cohomology", "--space", "P2", "--expect-dims", ""),
        ("verify", "euler", "-n", "0"),
    ]
    for argv in cases:
        code, _out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err


def test_blowup_rejects_twist_and_log_indices(capsys):
    # a blowup has no twist and no log set of its own, so asking for one is a
    # usage error, not the untwisted dims
    blowup = ("cohomology", "--space", "blowup", "--m", "2", "--c", "2")
    for extra in (("--twist", "2"), ("--log-index", "1"), ("--twist", "-1", "--log-index", "0")):
        code, out, err = run_cli(capsys, *blowup, *extra)
        assert code == 1, extra
        assert out == ""
        assert "S and l apply to the projective case only" in err, extra
    assert run_cli(capsys, *blowup, "--twist", "0")[0] == 0


def test_bad_expect_dims_fails_before_any_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "cohomology", "--space", "P6", "--form-degree", "3", "--expect-dims", "bogus"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert "error:" in err and "--expect-dims" in err


def test_io_error_exit_one(capsys):
    code, _out, err = run_cli(
        capsys, "cohomology", "--space", "P1", "--sheaf", "O", "--output", "/no/such/dir/x"
    )
    assert code == 1
    assert "i/o error" in err


# -- exit code 2: resource cap ---------------------------------------------------


def test_resource_cap_exit_two(capsys):
    code, _out, err = run_cli(
        capsys,
        "cohomology",
        "--space",
        "P1",
        "--sheaf",
        "O",
        "--twist",
        "70",
    )
    assert code == 2
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cartier", "-m", "5"),
        # the listing cap applies to what JSON lists; the CLI takes m <= 6, so
        # the blowup listing cap is reached by the box radius
        ("cohomology", "--space", "P6", "--sheaf", "O", "--twist", "50", "--format", "json"),
        ("cohomology", "--space", "blowup", "--m", "6", "--c", "6", "--form-degree", "3",
         "--box-radius", "64", "--format", "json"),
    ],
    ids=["cartier", "per-weight", "blowup-listing"],
)
def test_nu_suite_cost_cap_exit_two(capsys, argv):
    # the one suite cap, cartier's, and the cech caps the CLI reaches,
    # refuse fast
    t0 = time.perf_counter()
    code, _out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert "resource limit" in err


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "argv, weights, dims",
    [
        # every weight of O(50) on P^6 carries H^0 = 1: C(56, 6) of them
        (("--space", "P6", "--sheaf", "O", "--twist", "50"), comb(56, 6), f"{comb(56, 6)} 0 0 0 0 0 0"),
        (("--space", "blowup", "--m", "6", "--c", "6", "--form-degree", "3", "--box-radius", "64"),
         None, "inf 0 0 0 0 0"),
    ],
    ids=["per-weight", "blowup-listing"],
)
def test_text_and_csv_count_weights_past_the_listing_cap(capsys, fmt, argv, weights, dims):
    # text and CSV read the counts, so the listing cap does not apply
    t0 = time.perf_counter()
    code, out, _err = run_cli(capsys, "cohomology", *argv, "--format", fmt)
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    if weights is None:
        weights = len(cech.blowup_cohomology(6, 6, 3, 2, box_radius=64).per_weight)
    assert weights > cech.MAX_LISTED_WEIGHTS
    if fmt == "text":
        assert f"weights with nonzero dims: {weights}\n" in out
        assert f"dims: [{dims.replace(' ', ', ')}]\n" in out
    else:
        assert f",OK,{dims}," in out


@pytest.mark.parametrize("p", ["1000000000000000003", str(1000000007**2)])
def test_huge_p_exits_one_at_once(capsys, p):
    # the bound p <= 251 is tested before primality, which is trial division
    t0 = time.perf_counter()
    code, _out, err = run_cli(capsys, "verify", "-p", p)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "p must be a prime <= 251" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "-p", "2", "-m", "5"),
        ("verify", "all", "-p", "2", "-m", "6"),
        ("verify", "all", "-p", "7", "-m", "3"),
    ],
    ids=["all-m5", "all-m6", "all-nu-cap"],
)
def test_suite_caps_checked_before_any_suite_runs(capsys, argv):
    # each is over the cartier cap, (2p+1)^m window weights, and cartier is
    # the first suite of `all`
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert out == ""
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "residue", "-p", "2", "-m", "5"),
        ("verify", "nu", "-m", "3", "-p", "7"),
        ("verify", "nu", "-m", "2", "-p", "251"),
        ("verify", "nu", "-m", "6", "-p", "251"),
        ("verify", "purity-square", "-m", "6"),
        ("verify", "purity-square", "-m", "4", "-p", "5"),
        ("verify", "purity-square", "-m", "6", "-p", "251"),
        ("verify", "pullback", "-p", "127"),
        ("verify", "pullback", "-p", "251", "-c", "6"),
    ],
    ids=["residue", "nu-m3", "nu-p251", "nu", "purity-square", "purity-square-window",
         "purity-square-largest", "pullback", "pullback-largest"],
)
def test_inputs_past_the_removed_caps_exit_zero(capsys, argv):
    # the residue, nu, purity-square and pullback suites have no cost cap:
    # their cells do not grow with p, so each of these passes inside the
    # 5 s budget
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0, err
    assert "FAIL" not in out


_PRIMES = [q for q in range(2, 252) if all(q % d for d in range(2, int(q**0.5) + 1))]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    suite=st.sampled_from(sorted(cli.SUITES)),
    p=st.sampled_from(_PRIMES),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    c=st.integers(2, 6),
    fmt=st.sampled_from(["text", "json", "csv"]),
)
# the largest inputs of the two suites whose caps are gone, and the
# slowest input the cartier cap admits, always tried
@example(suite="purity-square", p=251, m=6, n=1, c=2, fmt="json")
@example(suite="pullback", p=251, m=1, n=1, c=6, fmt="json")
@example(suite="cartier", p=251, m=1, n=1, c=2, fmt="json")
def test_verify_inputs_finish_or_fail_fast(suite, p, m, n, c, fmt):
    # the input contract: every accepted `verify` input finishes or fails
    # fast with a documented exit code and no traceback; purity-square and
    # pullback have no cap left, so they pass, and cartier exits 2 exactly
    # when its window weights pass the cap.  The bound is twice the 5 s
    # budget: the largest residue input (m = 6) takes 3.5-4.6 s in process
    # on 2 shared vCPUs, cartier at m = 1, p = 251 2.5 s, and what grows
    # with p takes far longer (the per-weight composite of purity-square
    # at m = 4, p = 23 took 18 s)
    argv = ["verify", suite, "-p", str(p), "-m", str(m), "-n", str(n), "-c", str(c), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 10.0, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if suite in ("purity-square", "pullback"):
        assert code == 0, (argv, err.getvalue())
    if suite == "cartier":
        assert code == (2 if (2 * p + 1) ** m > cli.CARTIER_MAX_WEIGHTS else 0), (argv, err.getvalue())


# -- residue rows: one build per slice class against a per-weight walk -----------


def _residue_exactness_per_weight(ring, a, z):
    """The residue-exactness row with every complex built and ranked at
    every weight."""
    counts = [0, 0, 0, 0]
    for w in ring.iter_weights(a):
        cxs = [
            sequences.residue_complex_drop(ring, a, z, w),
            sequences.residue_complex_twist(ring, a, z, w),
            sequences.closed_residue_complex(ring, a, z, w),
        ]
        if a == 1:
            cxs.append(sequences.residue_complex_all_divisors(ring, w))
        for t, cx in enumerate(cxs):
            if not cx.is_exact():
                return False, f"sequence {t} fails at w={w}: {cx.exactness_verdicts()}"
            counts[t] += 1
    return True, f"slices={counts}"


def _under(context, fn):
    """The row fn, run inside `context`: with the per_weight_walks fixture,
    the row as it walks the weights one by one (conftest)."""

    def row(**kwargs):
        with context():
            return fn(**kwargs)

    return row


def _pairs_both_ways(rows):
    """rows: (fn, other, kwargs).  The (passed, dims) of each row by fn and
    by other."""
    checks = [(fn.__name__, "", "", f, kwargs) for fn, other, kwargs in rows for f in (fn, other)]
    results = [(r.passed, r.dims) for r in cli._run_checks(checks)]
    return results[::2], results[1::2]


def _residue_rows_both_ways(rings, oracle=None):
    """(passed, dims) of each residue-exactness row by class walks, and
    with every complex built at every weight, or with `oracle` (the
    per_weight_walks fixture) by the per-weight walk."""
    row = cli._residue_exactness
    other = _residue_exactness_per_weight if oracle is None else _under(oracle, row)
    return _pairs_both_ways(
        (row, other, {"ring": ring, "a": a, "z": z})
        for ring in rings
        for a in range(1, ring.m + 1)
        for z in sorted(ring.log)
    )


_FAILING_RESIDUE_RINGS = (
    # hi_z = 0: T_z is no form of the ring, so the twist raises at once
    cli.FormRing(2, 2, log=(0, 1), window=((0, 0), (0, 3))),
    # Laurent at the divisor: there the drop sequence is not exact everywhere
    cli.FormRing(3, 2, log=(0,), laurent=(0,), window=2),
)


def test_residue_rows_match_per_weight_walk(per_weight_walks):
    rings = [*cli._residue_rings(2, 2), *cli._residue_rings(3, 2), *_FAILING_RESIDUE_RINGS]
    by_class, per_weight = _residue_rows_both_ways(rings)
    assert by_class == per_weight
    assert _residue_rows_both_ways(rings, per_weight_walks) == (by_class, per_weight)
    assert any(dims.startswith("error: WindowOverflow") for _passed, dims in per_weight)
    assert any(dims.startswith("sequence 0 fails") for _passed, dims in per_weight)


def test_failing_residue_class_ends_row_like_per_weight_walk(monkeypatch, per_weight_walks):
    # the twist with its restriction zeroed at w_z = 0, a property of its
    # class key: both walks stop at the first such weight, with its message
    twist = sequences.residue_complex_twist

    def broken(ring, a, z, w):
        cx = twist(ring, a, z, w)
        if w[z] == 0:
            cx.maps[1] = cli.FpMatrix.zeros(ring.p, cx.dims[2], cx.dims[1])
        return cx

    monkeypatch.setattr(sequences, "residue_complex_twist", broken)
    by_class, per_weight = _residue_rows_both_ways(cli._residue_rings(2, 2))
    assert by_class == per_weight
    assert _residue_rows_both_ways(cli._residue_rings(2, 2), per_weight_walks) == (by_class, per_weight)
    assert {passed for passed, _dims in per_weight} == {True, False}


@pytest.mark.parametrize("p", [3, 5])
def test_residue_class_walk_reads_p_dividing_each_weight(monkeypatch, per_weight_walks, p):
    # the closed sequence with its restriction zeroed where p does not
    # divide some w_k off the center: the failure is a property of the
    # types ("p | w_k"), so a residue type that dropped it would merge
    # failing weights into cells whose first weight passes
    closed = sequences.closed_residue_complex

    def broken(ring, a, z, w):
        cx = closed(ring, a, z, w)
        if any(x % ring.p for k, x in enumerate(w) if k != z):
            cx.maps[1] = cli.FpMatrix.zeros(ring.p, cx.dims[2], cx.dims[1])
        return cx

    monkeypatch.setattr(sequences, "closed_residue_complex", broken)
    rings = cli._residue_rings(p, 2)
    by_class, per_weight = _residue_rows_both_ways(rings)
    assert by_class == per_weight
    assert _residue_rows_both_ways(rings, per_weight_walks) == (by_class, per_weight)
    assert any(dims.startswith("sequence 2 fails") for _passed, dims in per_weight)


def test_raising_residue_build_wins_over_a_failing_one(monkeypatch):
    # at the first weight the drop sequence fails (its residue zeroed at
    # w_z = 0) and the twist raises (hi_z = 0, so T_z is no form of the
    # ring): every sequence new at a weight is built before any verdict
    # there is read, so both walks report the raise
    drop = sequences.residue_complex_drop

    def broken(ring, a, z, w):
        cx = drop(ring, a, z, w)
        if w[z] == 0:
            cx.maps[1] = cli.FpMatrix.zeros(ring.p, cx.dims[2], cx.dims[1])
        return cx

    monkeypatch.setattr(sequences, "residue_complex_drop", broken)
    by_class, per_weight = _residue_rows_both_ways(_FAILING_RESIDUE_RINGS[:1])
    assert by_class == per_weight
    # the rows with z = 0, whose twist raises; those with z = 1 pass
    assert [dims.startswith("error: WindowOverflow") for _passed, dims in by_class] == [True, False] * 2


# -- Cartier rows: one check per slice class against a per-weight walk ----------


def _inverse_identity_per_weight(rings):
    """cartier-inverse-identity with every check made at every weight."""
    checked = 0
    for ring in rings:
        p, m = ring.p, ring.m
        for j in range(m + 1):
            for w in product(range(2 * p + 1), repeat=m):
                src = ring.slice(j, w)
                if src.dim == 0:
                    continue
                pw = tuple(p * x for x in w)
                zb, back, matc = cli.cartier_slice_matrix(ring, j, pw)
                if back is None:
                    return False, f"pw={pw} not divisible by p?"
                zc = zb.Z_basis.solve(cli.inverse_cartier_matrix(src)[1].array)
                if zc is None:
                    return False, f"C^-1 image not closed at (j={j}, w={w})"
                if matc @ cli.FpMatrix(p, zc) != cli.FpMatrix.identity(p, src.dim):
                    return False, f"C(C^-1(eta)) != eta at (j={j}, w={w})"
                checked += src.dim
    return True, f"checked={checked}"


def _kernel_exact_per_weight(rings):
    """cartier-kernel-exact-forms with every check made at every weight."""
    checked = 0
    for ring in rings:
        p, m = ring.p, ring.m
        for j in range(m + 1):
            for w in ring.iter_weights(j):
                if not ring.in_window(w):
                    continue
                zb, src, matc = cli.cartier_slice_matrix(ring, j, w)
                if src is None:
                    checked += 1
                    continue
                kern = cli.FpMatrix.from_columns(p, matc.kernel_basis(), zb.dim_Z)
                b_in_z = cli.FpMatrix(p, zb.Z_basis.solve(zb.B_basis.array))
                if not kern.same_column_space(b_in_z):
                    return False, f"ker C != B at (j={j}, w={w})"
                checked += 1
    return True, f"slices={checked}"


def _cartier_rings():
    """The cartier suite's rings at (p, m) = (2, 2) and (3, 2), a Laurent
    ring, and a ring too small for C^{-1} of the inverse-identity walk."""
    for p in (2, 3):
        for window in (2 * p, 2 * p * p + 2):
            for log in (range(2), ()):
                yield cli.FormRing(p, 2, log=log, window=window)
    yield cli.FormRing(3, 2, log=(0,), laurent=(1,), window=((0, 6), (-6, 6)))
    yield cli.FormRing(2, 3, log=(1,), window=((0, 4), (0, 2), (0, 4)))


def _cartier_rows_both_ways(rings, oracle=None):
    """(passed, dims) of the inverse-identity and kernel rows by class
    walks, and with every check made at every weight, or with `oracle`
    (the per_weight_walks fixture) by the per-weight walk."""
    pairs = (
        (cli._cartier_inverse_identity, _inverse_identity_per_weight),
        (cli._cartier_kernel_exact, _kernel_exact_per_weight),
    )
    return _pairs_both_ways(
        (row, other if oracle is None else _under(oracle, row), {"rings": (ring,)})
        for ring in rings
        for row, other in pairs
    )


def test_cartier_rows_match_per_weight_walk(per_weight_walks):
    by_class, per_weight = _cartier_rows_both_ways(_cartier_rings())
    assert by_class == per_weight
    assert _cartier_rows_both_ways(_cartier_rings(), per_weight_walks) == (by_class, per_weight)
    assert any(dims.startswith("error: WindowOverflow") for _passed, dims in per_weight)
    assert sum(passed for passed, _dims in per_weight) > len(per_weight) // 2


def test_failing_cartier_class_ends_row_like_per_weight_walk(monkeypatch, per_weight_walks):
    # C^{-1} zeroed on sources of two or more generator sets, and C zeroed
    # where the degree j + 1 slice at w has two or more: properties of the
    # class key (its source sets and zb.key), so both walks stop at the
    # first such weight, with its message
    inverse, matrix = cli.inverse_cartier_matrix, cli.cartier_slice_matrix

    def broken_inverse(src):
        dst, mat = inverse(src)
        return dst, cli.FpMatrix.zeros(src.ring.p, mat.rows, mat.cols) if src.dim > 1 else mat

    def broken_matrix(ring, j, w):
        zb, src, mat = matrix(ring, j, w)
        if src is not None and len(ring.gens(j + 1, w)) > 1:
            mat = cli.FpMatrix.zeros(ring.p, mat.rows, mat.cols)
        return zb, src, mat

    monkeypatch.setattr(cli, "inverse_cartier_matrix", broken_inverse)
    monkeypatch.setattr(cli, "cartier_slice_matrix", broken_matrix)
    by_class, per_weight = _cartier_rows_both_ways(_cartier_rings())
    assert by_class == per_weight
    assert _cartier_rows_both_ways(_cartier_rings(), per_weight_walks) == (by_class, per_weight)
    assert any("not closed" in dims or "!= eta" in dims for _passed, dims in per_weight)
    assert any(dims.startswith("ker C != B") for _passed, dims in per_weight)


def test_cartier_walks_build_only_in_their_checks(monkeypatch):
    # the cells and filters read layouts only, so the Cartier rows and
    # nu_sections build no WeightSlice and no ZBDecomposition outside their
    # checks (nu_sections only the slice of its kernel vectors), and each
    # walk checks each cell once, at its first weight
    built, depth, checks = [], [0], []
    for cls in (WeightSlice, cli.ZBDecomposition):
        init = cls.__init__

        def counted(self, ring, j, w, init=init, name=cls.__name__):
            if not depth[0]:
                built.append((name, j, tuple(w)))
            init(self, ring, j, w)

        monkeypatch.setattr(cls, "__init__", counted)

    def watched(walk):
        signature = inspect.signature(walk)

        def walk_checked(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            check, walk_id = bound.arguments["check"], object()

            def in_check(w):
                checks.append((walk_id, w))
                depth[0] += 1
                try:
                    return check(w)
                finally:
                    depth[0] -= 1

            bound.arguments["check"] = in_check
            return walk(*bound.args, **bound.kwargs)

        return walk_checked

    for name in ("walk_window_classes", "walk_source_classes"):
        walk = watched(getattr(cartier_module, name))
        monkeypatch.setattr(cli, name, walk)
        monkeypatch.setattr(cartier_module, name, walk)
    rows = [
        (str(ring), "", "", fn, kwargs)
        for ring in _cartier_rings()
        for fn, kwargs in (
            (cli._cartier_inverse_identity, {"rings": (ring,)}),
            (cli._cartier_kernel_exact, {"rings": (ring,)}),
            (cli._cartier_weight_scaling, {"ring": ring}),
        )
    ]
    results = cli._run_checks(rows)
    assert built == []
    assert checks and len(checks) == len(set(checks))  # each cell checked once per walk
    assert any(r.passed for r in results)
    assert any(r.dims.startswith("error: WindowOverflow") for r in results)
    for ring in cli._window_rings(2, 2, 4, cli._log_subsets(2)):
        kind = partial(cartier_module.cartier_coordinate_type, ring)
        for n in range(ring.m + 2):
            del checks[:]
            rep = cli.nu_sections(ring, n)
            window = [range(lo, hi + 1) for lo, hi in ring.window]
            cells = [first for first, _count, _parts in sequences.type_cells(window, kind) if ring.gens(n, first)]
            weights = [w for w in ring.iter_weights(n) if ring.in_window(w) and ring.gens(n, w)]
            assert [w for _walk, w in checks] == cells
            assert len(cells) < len(weights) or len(weights) < 2
            assert built == [("WeightSlice", n, (0, 0))] * (rep.dim > 0)
            del built[:]


# -- closed-form Cartier rows: one shared pool against the per-row build -------


def _frobenius_linear_per_row(ring):
    """cartier-frobenius-linear building its own closed forms."""
    p, m = ring.p, ring.m
    checked = 0
    for j in range(m + 1):
        for w in product(range(p + 1), repeat=m):
            s, zbasis = cli.closed_slice_basis(ring, j, w)
            for k in range(zbasis.cols):
                omega = s.from_vector(zbasis.column(k))
                for i in range(m):
                    f = ring.monomial(tuple(1 if t == i else 0 for t in range(m)))
                    if cli.cartier(cli._pow(f, p).wedge(omega)) != f.wedge(cli.cartier(omega)):
                        return False, f"C(f^p w) != f C(w) at (j={j}, w={w}, i={i})"
                    checked += 1
    return True, f"checked={checked}"


def _wedge_multiplicative_per_row(ring):
    """cartier-wedge-multiplicative building its own closed forms."""
    p, m = ring.p, ring.m
    rng = random.Random(1)
    pool = []
    for j in range(m + 1):
        for w in product(range(p + 1), repeat=m):
            s, zbasis = cli.closed_slice_basis(ring, j, w)
            for k in range(zbasis.cols):
                pool.append((j, w, s.from_vector(zbasis.column(k))))
    checked = 0
    for _ in range(min(250, len(pool) * len(pool))):
        j1, _w1, a = pool[rng.randrange(len(pool))]
        j2, _w2, b = pool[rng.randrange(len(pool))]
        if j1 + j2 > m:
            continue
        if cli.cartier(a.wedge(b)) != cli.cartier(a).wedge(cli.cartier(b)):
            return False, f"C(a^b) mismatch at degrees ({j1},{j2})"
        checked += 1
    return True, f"pairs={checked}"


def _additive_per_row(ring):
    """cartier-additive building its own closed forms."""
    p, m = ring.p, ring.m
    rng = random.Random(2)
    checked = 0
    for j in range(m + 1):
        for w in product(range(p + 1), repeat=m):
            s, zbasis = cli.closed_slice_basis(ring, j, w)
            if zbasis.cols < 2:
                continue
            for _ in range(3):
                a = s.from_vector(zbasis.column(rng.randrange(zbasis.cols)))
                b = s.from_vector(zbasis.column(rng.randrange(zbasis.cols)))
                if cli.cartier(a + b) != cli.cartier(a) + cli.cartier(b):
                    return False, f"additivity fails at (j={j}, w={w})"
                checked += 1
    return True, f"pairs={checked}"


_CLOSED_FORM_ROWS = {
    "cartier-frobenius-linear": _frobenius_linear_per_row,
    "cartier-wedge-multiplicative": _wedge_multiplicative_per_row,
    "cartier-additive": _additive_per_row,
}


def _closed_form_rows_both_ways(p, m):
    """(name, passed, dims) of the three closed-form rows of suite_cartier,
    and of the per-row build on the suite's ring."""
    ring = cli._window_rings(p, m, 2 * p, (range(m), ()))[0]
    pooled = [(c.name, c.passed, c.dims) for c in cli.suite_cartier(p, m) if c.name in _CLOSED_FORM_ROWS]
    rows = [(name, "", "", fn, {"ring": ring}) for name, fn in _CLOSED_FORM_ROWS.items()]
    return pooled, [(c.name, c.passed, c.dims) for c in cli._run_checks(rows)]


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_closed_form_rows_share_one_pool(monkeypatch, p, m):
    # the same verdicts and counts as the per-row build, with each closed
    # basis fetched once per suite call instead of once per row
    calls = []
    basis = cli.closed_slice_basis
    monkeypatch.setattr(cli, "closed_slice_basis", lambda *a: calls.append(a) or basis(*a))
    pooled, per_row = _closed_form_rows_both_ways(p, m)
    assert pooled == per_row
    assert all(passed for _name, passed, _dims in pooled)
    assert len(calls) == 4 * (m + 1) * (p + 1) ** m  # once pooled, three times per row


def test_closed_form_rows_fail_like_per_row_build(monkeypatch):
    # C zeroed on forms with a T_0 exponent above p, which the products of
    # the frobenius and wedge rows reach and the sums of the additive row
    # do not: each row ends where its per-row build ends, with its message
    cartier = cli.cartier

    def broken(f):
        return f.ring.zero(f.degree) if any(a[0] > f.ring.p for a, _gens in f.terms) else cartier(f)

    monkeypatch.setattr(cli, "cartier", broken)
    pooled, per_row = _closed_form_rows_both_ways(3, 2)
    assert pooled == per_row
    assert [passed for _name, passed, _dims in pooled] == [False, False, True]


def test_raising_pool_build_is_not_kept(monkeypatch):
    # a build that raises keeps nothing, so each row raises again, with
    # its own error row, as each per-row build raised
    calls = []
    basis = cli.closed_slice_basis

    def raising(ring, j, w):
        calls.append(w)
        if j == 1 and w == (1, 2):
            raise WindowOverflow(f"injected at {w}")
        return basis(ring, j, w)

    monkeypatch.setattr(cli, "closed_slice_basis", raising)
    pooled, per_row = _closed_form_rows_both_ways(2, 2)
    assert pooled == per_row
    assert [dims for _name, _passed, dims in pooled] == ["error: WindowOverflow: injected at (1, 2)"] * 3
    first = 9 + 6  # the slices up to (1, (1, 2)) in pool order
    assert len(calls) == 2 * 3 * first


# -- weight-scaling and purity rows: one check per class against a per-weight walk --


def _weight_scaling_per_weight(ring):
    """cartier-weight-scaling with every check made at every weight."""
    p, m = ring.p, ring.m
    bij = 0
    for j in range(m + 1):
        for w in product(range(3), repeat=m):
            if not cli.slice_bijection_ok(ring, j, w):
                return False, f"C^-1 not bijective onto Z/B at (j={j}, w={w})"
            bij += 1
    killed = 0
    for j in range(m + 1):
        for w in ring.iter_weights(j):
            if not ring.in_window(w):
                continue
            if any(x % p for x in w):
                zb = cli.ZBDecomposition(ring, j, w)
                if zb.dim_Z != zb.dim_B:
                    return False, f"closed slice not exact at non-p weight {w}"
                killed += 1
    return True, f"bijections={bij} annihilated={killed}"


def _gysin_residue_iso_per_weight(setup, n):
    """gysin-residue-iso with every check made at every weight."""
    ok = 0
    for w in setup.ring.iter_weights(n):
        g1 = cli.gysin_residue(setup, n, w)
        g2 = cli.gysin_residue_closed(setup, n, w)
        if not (g1.ok and g2.ok):
            return False, f"w={w} coker={g1.coker_dim} target={g1.target_dim}"
        if not cli.closed_iso_compatible(setup, n, w):
            return False, f"w={w}: closed iso not a restriction"
        ok += 1
    return True, f"slices={ok}"


def _commuting_square_per_weight(setup, n):
    """purity.commuting_square with every basis form checked at every weight."""
    ring, z = setup.ring, setup.z
    dring, _ = ring.drop_var(z)
    checked = 0
    failures = []
    decomp_failures = []
    for w in ring.iter_weights(n + 1):
        if w[z] < 0 or not ring.in_window(w):
            continue
        s, zb = purity.closed_slice_basis(ring, n + 1, w)
        for k in range(zb.cols):
            eta = s.from_vector(zb.column(k))
            ceta = purity.cartier(eta)
            path_a = ceta.residue(z) if not ceta.is_zero() else dring.zero(n)
            path_b = purity.cartier(eta.residue(z))
            checked += 1
            if path_a != path_b:
                failures.append((w, k))
            gamma, prime = purity.eta_decomposition(ring, z, eta)
            if gamma + prime.wedge(ring.gen(z)) != eta:
                decomp_failures.append((w, k))
    return purity.SquareReport(ring, z, n, checked, failures, decomp_failures)


def _square_row(square):
    def row(setup, n):
        rep = square(setup, n)
        return rep.ok, f"checked={rep.checked} {rep.failures} {rep.decomposition_failures}"

    return row


_PURITY_PAIRS = (
    (cli._gysin_residue_iso, _gysin_residue_iso_per_weight),
    (_square_row(purity.commuting_square), _square_row(_commuting_square_per_weight)),
)


def _purity_setups():
    """The purity suite's setups at (p, m) = (2, 2), (3, 2) and (2, 3), a
    Laurent divisor (not Gysin there), a Laurent background coordinate and a
    window of one step at z, and a plain Laurent coordinate (d leaves the
    window)."""
    for p, m in ((2, 2), (3, 2), (2, 3)):
        yield cli.GysinSetup(cli.FormRing(p, m, log=range(m), window=2 * p), 0)
    yield cli.GysinSetup(cli.FormRing(3, 2, log=(0,), laurent=(0,), window=2), 0)
    yield cli.GysinSetup(cli.FormRing(2, 3, log=(0, 2), laurent=(1,), window=((0, 4), (-2, 2), (0, 1))), 2)
    yield cli.GysinSetup(cli.FormRing(2, 2, log=(0, 1), window=((0, 1), (0, 3))), 1)
    yield cli.GysinSetup(cli.FormRing(3, 2, log=(1,), laurent=(0,), window=((-2, 2), (0, 2))), 1)


def _scaling_and_purity_rows_both_ways(oracle=None):
    """(passed, dims) of the weight-scaling, Gysin and square rows by class
    walks, and with every check made at every weight, or with `oracle` (the
    per_weight_walks fixture) by the per-weight walk."""
    pairs = [((cli._cartier_weight_scaling, _weight_scaling_per_weight), {"ring": ring}) for ring in _cartier_rings()]
    pairs += [
        (pair, {"setup": setup, "n": n})
        for setup in _purity_setups()
        for n in range(setup.ring.m)
        for pair in _PURITY_PAIRS
    ]
    return _pairs_both_ways(
        (row, other if oracle is None else _under(oracle, row), kwargs) for (row, other), kwargs in pairs
    )


def test_scaling_and_purity_rows_match_per_weight_walk(per_weight_walks):
    by_class, per_weight = _scaling_and_purity_rows_both_ways()
    assert by_class == per_weight
    assert _scaling_and_purity_rows_both_ways(per_weight_walks) == (by_class, per_weight)
    assert sum(passed for passed, _dims in per_weight) > len(per_weight) // 2
    assert any(dims.startswith("error: WindowOverflow") for _passed, dims in per_weight)
    assert any(" coker=" in dims for _passed, dims in per_weight)


class _ShortB(cli.ZBDecomposition):
    """B one short at p = 2 where the slice below has two or more generator
    sets: a fault that reads only the ZB key."""

    @property
    def dim_B(self):
        return super().dim_B - (self.ring.p == 2 and len(self.ring.gens(self.degree - 1, self.weight)) > 1)


def test_failing_scaling_and_purity_classes_end_rows_like_per_weight_walk(monkeypatch, per_weight_walks):
    # faults that read only what the class keys hold, so both walks must
    # report them alike: C^{-1} not bijective at p = 3 where the slice has
    # two or more generator sets, the Gysin iso no restriction there at
    # w_z = 0 and p | w, B one short (_ShortB), and C zero on forms of odd
    # degree
    bijective, compatible, cartier = cli.slice_bijection_ok, cli.closed_iso_compatible, purity.cartier

    def broken_bijective(ring, j, w):
        return bijective(ring, j, w) and (ring.p == 2 or len(ring.gens(j, w)) < 2)

    def broken_compatible(setup, n, w):
        ring = setup.ring
        fault = w[setup.z] == 0 and all(x % ring.p == 0 for x in w) and len(ring.gens(n, w)) > 1
        return compatible(setup, n, w) and not fault

    monkeypatch.setattr(cli, "slice_bijection_ok", broken_bijective)
    monkeypatch.setattr(cli, "ZBDecomposition", _ShortB)
    monkeypatch.setattr(cli, "closed_iso_compatible", broken_compatible)
    monkeypatch.setattr(purity, "cartier", lambda f: f.ring.zero(f.degree) if f.degree % 2 else cartier(f))
    by_class, per_weight = _scaling_and_purity_rows_both_ways()
    assert by_class == per_weight
    assert _scaling_and_purity_rows_both_ways(per_weight_walks) == (by_class, per_weight)
    assert any(dims.startswith("C^-1 not bijective") for _passed, dims in per_weight)
    assert any(dims.startswith("closed slice not exact") for _passed, dims in per_weight)
    assert any(dims.endswith("closed iso not a restriction") for _passed, dims in per_weight)
    assert any(dims.startswith("checked=") and not passed for passed, dims in per_weight)


def test_purity_suite_runs_each_square_once(monkeypatch):
    # the nu-purity rows read the squares the square rows have run
    calls = []
    square = cli.commuting_square
    monkeypatch.setattr(cli, "commuting_square", lambda setup, n: calls.append((setup, n)) or square(setup, n))
    monkeypatch.setattr(purity, "commuting_square", lambda *a: pytest.fail("square run again"))
    checks = cli.suite_purity(2, 3)
    assert all(c.passed for c in checks)
    assert len(calls) == len(set(calls)) == sum(c.name == "purity-commuting-square" for c in checks)


# -- Euler and pullback rows: one complex per sign class against a per-weight walk --


def _euler_exactness_per_weight(p, n, j, l):
    """euler-exactness with a complex built at every weight."""
    checked = 0
    for w in product(range(-2, 3), repeat=n + 1):
        if sum(w) != l:
            continue
        for inverted in (None, frozenset({0})):
            cx = cli.euler_complex(p, n, j, l, w, inverted=inverted)
            if not cx.is_exact():
                return False, f"w={w} chart={inverted}: {cx.exactness_verdicts()}"
            checked += 1
    return True, f"slices={checked}"


def _pullback_ses_per_weight(p, c, n):
    """pullback-ses with a complex built at every weight."""
    checked = 0
    for w in product(range(-1, 2), repeat=c):
        for chart in range(c):
            cx = cli.pullback_ses(p, c, n, w, chart=chart)
            if not cx.is_exact():
                return False, f"w={w} chart={chart}: {cx.exactness_verdicts()}"
            checked += 1
    return True, f"slices={checked}"


def _sign_rows_both_ways(oracle=None):
    """(passed, dims) of the Euler and pullback rows by class walks, and
    with a complex built at every weight, or with `oracle` (the
    per_weight_walks fixture) by the per-weight walk."""
    pairs = [
        ((cli._euler_exactness, _euler_exactness_per_weight), {"p": p, "n": n, "j": j, "l": l})
        for p in (2, 3)
        for n in (1, 2, 3)
        for j in range(n + 1)
        for l in (0, 1)
    ]
    pairs += [
        ((cli._pullback_ses, _pullback_ses_per_weight), {"p": p, "c": c, "n": n})
        for p in (2, 3)
        for c in (2, 3)
        for n in range(c)
    ]
    return _pairs_both_ways(
        (row, other if oracle is None else _under(oracle, row), kwargs) for (row, other), kwargs in pairs
    )


def test_euler_and_pullback_rows_match_per_weight_walk(per_weight_walks):
    by_class, per_weight = _sign_rows_both_ways()
    assert by_class == per_weight
    assert _sign_rows_both_ways(per_weight_walks) == (by_class, per_weight)
    assert all(passed for passed, _dims in per_weight)
    assert all(dims.startswith("slices=") for _passed, dims in per_weight)


def test_failing_sign_class_ends_row_like_per_weight_walk(monkeypatch, per_weight_walks):
    # faults that read only the sign class: on chart {0} the Euler map is
    # zeroed where w_1 >= 1, and the pullback build raises on chart 0 where
    # w_1 = 0 and no coordinate off the chart is negative; both walks stop
    # at the first such weight, with its message
    euler, pullback = cli.euler_complex, cli.pullback_ses

    def broken_euler(p, n, j, l, w, inverted=None):
        cx = euler(p, n, j, l, w, inverted=inverted)
        if inverted is not None and w[1] >= 1:
            cx.maps[1] = cli.FpMatrix.zeros(p, cx.dims[2], cx.dims[1])
        return cx

    def broken_pullback(p, c, n, w, chart=0):
        if chart == 0 and w[1] == 0 and min(w[1:]) >= 0:
            raise ArithmeticError(f"injected at w={w}")
        return pullback(p, c, n, w, chart=chart)

    monkeypatch.setattr(cli, "euler_complex", broken_euler)
    monkeypatch.setattr(cli, "pullback_ses", broken_pullback)
    by_class, per_weight = _sign_rows_both_ways()
    assert by_class == per_weight
    assert _sign_rows_both_ways(per_weight_walks) == (by_class, per_weight)
    assert any(dims.startswith("w=") and not passed for passed, dims in per_weight)
    assert any(dims.startswith("error: ArithmeticError: injected at w=") for _passed, dims in per_weight)
    assert any(passed for passed, _dims in per_weight)


def test_sign_walk_meets_the_charts_inner(monkeypatch):
    # faults on both charts: chart 1 raises where w_0 < 0, chart 0 where
    # w_1 = 1; the per-weight walk takes the charts inner, so it meets chart
    # 1 at (-1, -1) before chart 0 at (-1, 1), and so must the class walk
    pullback = cli.pullback_ses

    def broken(p, c, n, w, chart=0):
        if (chart == 1 and w[0] < 0) or (chart == 0 and w[1] == 1):
            raise ArithmeticError(f"injected at w={w} chart={chart}")
        return pullback(p, c, n, w, chart=chart)

    monkeypatch.setattr(cli, "pullback_ses", broken)
    by_class, per_weight = _pairs_both_ways([(cli._pullback_ses, _pullback_ses_per_weight, {"p": 2, "c": 2, "n": 1})])
    assert by_class == per_weight == [(False, "error: ArithmeticError: injected at w=(-1, -1) chart=1")]


# -- every moved row against the per-weight oracle, over a grid of rings ---------


def _nu_row(ring, n):
    rep = cli.nu_sections(ring, n)
    return rep.matches_dlog_span, f"{[str(f) for f in rep.basis]}"


def _nu_purity_row(setup, n):
    rep = purity.nu_purity_report(setup, n)
    return rep.ok, f"{rep.computed_nu_dim} {rep.obstruction_dim}"


def _grid_rows(p):
    """(row, kwargs) for every row that walks classes, over m <= 3 (m <= 2
    at p >= 5) and every log subset at p: the rings of each suite at its
    windows."""
    rows = []
    # at p = 5 the rows with m = 3 take about 10 s under the oracle, at
    # m <= 2 under 1 s; p >= 5 is where a cell holds weights of several
    # nonzero residues w_k mod p
    for m in (1, 2, 3) if p <= 3 else (1, 2):
        logs = [frozenset(s) for k in range(m + 1) for s in combinations(range(m), k)]
        wide = cli._window_rings(p, m, 2 * p * p + 2, logs)
        for ring, big in zip(cli._window_rings(p, m, 2 * p, logs), wide):
            rows += [
                (cli._cartier_inverse_identity, {"rings": (big,)}),
                (cli._cartier_kernel_exact, {"rings": (ring,)}),
                (cli._cartier_weight_scaling, {"ring": ring}),
            ]
            rows += [(_nu_row, {"ring": ring, "n": n}) for n in range(m + 2)]
            if ring.log:
                setup = cli.GysinSetup(ring, min(ring.log))
                for n in range(m):
                    rows += [
                        (cli._gysin_residue_iso, {"setup": setup, "n": n}),
                        (_square_row(purity.commuting_square), {"setup": setup, "n": n}),
                        (_nu_purity_row, {"setup": setup, "n": n}),
                    ]
            if {0, 1} <= ring.log:
                rows.append((cli._iterated_purity, {"ring": ring}))
        for ring in cli._window_rings(p, m, p + 2, [log for log in logs if log]):
            rows += [
                (cli._residue_exactness, {"ring": ring, "a": a, "z": z})
                for a in range(1, m + 1)
                for z in sorted(ring.log)
            ]
    rows += [(cli._euler_exactness, {"p": p, "n": n, "j": j, "l": l}) for n in (1, 2, 3) for j in range(n + 1) for l in (0, 1)]
    rows += [(cli._pullback_ses, {"p": p, "c": c, "n": n}) for c in (2, 3) for n in range(c)]
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rows_match_per_weight_oracle_on_the_grid(p, per_weight_walks):
    rows = _grid_rows(p)
    by_class, oracle = _pairs_both_ways((row, _under(per_weight_walks, row), kwargs) for row, kwargs in rows)
    assert by_class == oracle
    assert all(passed for passed, _dims in by_class)


def test_oracle_checks_every_weight(monkeypatch, per_weight_walks):
    # under the oracle the kernel row checks each window weight of each degree
    ring = cli.FormRing(2, 2, log=(0,), window=4)
    calls = []
    matrix = cli.cartier_slice_matrix
    monkeypatch.setattr(cli, "cartier_slice_matrix", lambda *a: calls.append(a) or matrix(*a))
    with per_weight_walks():
        assert cli._cartier_kernel_exact((ring,)) == (True, "slices=75")
    assert len(calls) == 75
    del calls[:]
    assert cli._cartier_kernel_exact((ring,)) == (True, "slices=75")
    assert len(calls) < 75


def test_failing_and_raising_rows_match_per_weight_oracle(monkeypatch, per_weight_walks):
    # a class forced to fail in each family, and builds that raise: the
    # residue twist zeroed at w_z = 0, C zeroed where the degree j + 1 slice
    # has two or more generator sets, the Gysin iso no restriction at
    # w_z = 0 and p | w, the square's C zero in odd degree, the Euler map
    # zeroed on chart {0} where w_1 >= 1; and rings too small for C^{-1},
    # T_z or d (WindowOverflow)
    twist, matrix, compatible = sequences.residue_complex_twist, cli.cartier_slice_matrix, cli.closed_iso_compatible
    cartier, euler = purity.cartier, cli.euler_complex

    def broken_twist(ring, a, z, w):
        cx = twist(ring, a, z, w)
        if w[z] == 0:
            cx.maps[1] = cli.FpMatrix.zeros(ring.p, cx.dims[2], cx.dims[1])
        return cx

    def broken_matrix(ring, j, w):
        zb, src, mat = matrix(ring, j, w)
        if src is not None and len(ring.gens(j + 1, w)) > 1:
            mat = cli.FpMatrix.zeros(ring.p, mat.rows, mat.cols)
        return zb, src, mat

    def broken_compatible(setup, n, w):
        fault = w[setup.z] == 0 and all(x % setup.ring.p == 0 for x in w) and len(setup.ring.gens(n, w)) > 1
        return compatible(setup, n, w) and not fault

    def broken_euler(p, n, j, l, w, inverted=None):
        cx = euler(p, n, j, l, w, inverted=inverted)
        if inverted is not None and w[1] >= 1:
            cx.maps[1] = cli.FpMatrix.zeros(p, cx.dims[2], cx.dims[1])
        return cx

    monkeypatch.setattr(sequences, "residue_complex_twist", broken_twist)
    monkeypatch.setattr(cli, "cartier_slice_matrix", broken_matrix)
    monkeypatch.setattr(cli, "closed_iso_compatible", broken_compatible)
    monkeypatch.setattr(purity, "cartier", lambda f: f.ring.zero(f.degree) if f.degree % 2 else cartier(f))
    monkeypatch.setattr(cli, "euler_complex", broken_euler)
    rows = [(row, kwargs) for row, kwargs in _grid_rows(2) if row is not _nu_row]
    rows += [(cli._residue_exactness, {"ring": ring, "a": 1, "z": min(ring.log)}) for ring in _FAILING_RESIDUE_RINGS]
    rows += [(row, {"rings": (ring,)}) for ring in _cartier_rings() for row in (cli._cartier_inverse_identity, cli._cartier_kernel_exact)]
    rows += [(_square_row(purity.commuting_square), {"setup": setup, "n": n}) for setup in _purity_setups() for n in range(setup.ring.m)]
    by_class, oracle = _pairs_both_ways((row, _under(per_weight_walks, row), kwargs) for row, kwargs in rows)
    assert by_class == oracle
    assert any(passed for passed, _dims in by_class)
    for start in ("sequence 1 fails", "ker C != B", "w=", "checked=", "error: WindowOverflow"):
        assert any(dims.startswith(start) and not passed for passed, dims in by_class), start
    assert any(dims.endswith("closed iso not a restriction") for _passed, dims in by_class)


# -- filtration rows: one check per step class against a per-step build --------


def _filtration_per_step(spec, p, fault=lambda phi, b: phi):
    """`sequences.filtration` with a dense complex built at every step, phi
    passed through fault(phi, b) with b = |gr_i|: (graded dims, expected
    dims, each step exact, every phi a signed permutation onto gr_i, ok)."""
    u, wr, k, v = spec.u, spec.w, spec.k, spec.v
    basis = list(combinations(range(v), k))
    wcounts = [sum(1 for x in A if x >= u) for A in basis]
    graded, expected, steps = [], [], []
    perm_ok = True
    for i in range(k + 1):
        members = [A for A, c in zip(basis, wcounts) if c == i]
        graded.append(len(members))
        expected.append(comb(u, k - i) * comb(wr, i))
        f_prev = [A for A, c in zip(basis, wcounts) if c < i]
        f_cur = f_prev + members
        tensor = [
            (a_u, b_w)
            for a_u in combinations(range(u), k - i)
            for b_w in combinations(range(u, v), i)
        ]
        tindex = {t: s for s, t in enumerate(tensor)}
        inc = cli.FpMatrix(p, np.eye(len(f_cur), len(f_prev), dtype=np.int64))
        phi_np = np.zeros((len(tensor), len(f_cur)), dtype=np.int64)
        for s, A in enumerate(members, start=len(f_prev)):
            phi_np[tindex[(A[: k - i], A[k - i :])], s] = 1
        phi = fault(cli.FpMatrix(p, phi_np), len(members))
        labels = [f"F_{i - 1}", f"F_{i}", f"gr_{i}"]
        steps.append(SliceComplex(p, labels, [len(f_prev), len(f_cur), len(tensor)], [inc, phi]))
        perm_ok = perm_ok and sequences._is_signed_permutation_onto(phi, len(members))
    total_ok = sum(graded) == comb(v, k) and sum(expected) == comb(v, k)
    cors = []
    if u == 1:
        cors.append(sequences._split_complex(p, basis, 0, True, ["L", "V", "R"]))
    if wr == 1:
        cors.append(sequences._split_complex(p, basis, v - 1, False, ["L", "V", "R"]))
    exact = [cx.is_exact() for cx in steps]
    ok = graded == expected and total_ok and perm_ok and all(exact) and all(cx.is_exact() for cx in cors)
    return graded, expected, exact, perm_ok, ok


def _filtration_rows_per_step(p, fault=lambda phi, b: phi):
    """The filtration suite's rows, (passed, dims) each, from the per-step build."""
    rows = []
    for u, w in product(range(1, 6), repeat=2):
        row = (True, f"k=0..{u + w}")
        for k in range(u + w + 1):
            graded, expected, _exact, _perm, ok = _filtration_per_step(FiltrationSpec(u, w, k), p, fault)
            if not ok:
                row = (False, f"k={k} graded={graded} expected={expected}")
                break
            if graded != [comb(u, k - i) * comb(w, i) for i in range(k + 1)]:
                row = (False, f"k={k} dims mismatch")
                break
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [2, 3])
def test_filtration_step_classes_match_per_step_build(p):
    steps, walked = {}, 0
    for u, w in product(range(1, 6), repeat=2):
        for k in range(u + w + 1):
            spec = FiltrationSpec(u, w, k)
            rep = sequences.filtration(spec, p, steps)
            walked += len(rep.steps_exact)
            graded, expected, exact, perm_ok, ok = _filtration_per_step(spec, p)
            assert (rep.graded_dims, rep.expected_dims, rep.steps_exact) == (graded, expected, exact)
            assert (rep.phi_permutation_ok, rep.ok) == (perm_ok, ok)
            assert sequences.filtration(spec, p).ok == ok  # a fresh store
    assert (walked, len(steps)) == (750, 23)  # the steps of one suite call, and their classes
    assert [(c.passed, c.dims) for c in cli.suite_filtration(p)] == _filtration_rows_per_step(p)


def test_failing_filtration_class_ends_row_like_per_step_build(monkeypatch):
    # phi zeroed on every step with two or more members: a property of the
    # step's class, so both builds stop each row at the same k
    step = sequences._filtration_step

    def broken(p, a, gr_dim, positions):
        cx = step(p, a, gr_dim, positions)
        if len(positions) > 1:
            cx.maps[1] = cli.FpMatrix.zeros(p, *cx.maps[1].array.shape)
        return cx

    def zeroed(phi, b):
        return cli.FpMatrix.zeros(phi.p, *phi.array.shape) if b > 1 else phi

    monkeypatch.setattr(sequences, "_filtration_step", broken)
    for p in (2, 3):
        per_step = _filtration_rows_per_step(p, zeroed)
        assert [(c.passed, c.dims) for c in cli.suite_filtration(p)] == per_step
        assert {passed for passed, _dims in per_step} == {True, False}


# -- verify ----------------------------------------------------------------------


def test_verify_suite_passes_text(capsys):
    code, out, _err = run_cli(capsys, "verify", "generators", "-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(l.startswith("PASS") for l in lines[:-1])


def test_verify_json_payload(capsys):
    code, out, _err = run_cli(capsys, "verify", "filtration", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["tool"] == "logcartier"
    assert doc["checks"]
    for c in doc["checks"]:
        assert c["verdict"] == "PASS"
        assert c["elapsed_ms"] is None  # no --timings
        assert c["statement"]


def test_verify_csv_payload(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "generators", "-n", "1", "--format", "csv", "--timings"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,params,verdict,dims,elapsed_ms"
    assert all(",PASS," in l for l in lines[1:])
    assert all(l.rsplit(",", 1)[1] for l in lines[1:])  # timing column filled


def test_verify_timings_json(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "generators", "-n", "1", "--format", "json", "--timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(isinstance(c["elapsed_ms"], float) for c in doc["checks"])


# SHA-256 of the stdout of `verify <suite> -p P -m M --format json` for the
# axiom suites of the benchmark's `axioms` workload, recorded before slices
# and their maps were filled from generator-set indices: the output must stay
# byte-identical.
VERIFY_JSON_SHA256 = {
    ("cartier", 2, 2): "dc87cc3edd0b3b49e092ef834d664f0f770d042e8927817aa67936ff156ea4aa",
    ("cartier", 2, 3): "375416596c981af26fed2420639c7fa46e66944ba53a532887b05a989caa103d",
    ("cartier", 3, 2): "dd7c0f3f35a9bb954e7b5b3c0e1d17dc42dbb049426cd576c509be3786320d34",
    ("cartier", 2, 4): "86c549870637cd663e85a705eb1b1c71c58b1b96e684a8b9b2557e4c6ecdd5ac",
    ("cartier", 3, 3): "d8456c52402d08078a4a67cf34b274cc9662ce330f049d21fb791fdf7c07af27",
    ("residue", 2, 2): "0556e57f1a6d0c8d30dac3ce212bcddb44255a2eea6050eeb734bcb901be2ceb",
    ("residue", 2, 3): "4afd0e73895600a86526cd03de9a3c7d6e0145a51bda8bd869bae6b21a467aaf",
    ("residue", 3, 2): "5731837c1fed0c8855bb456c8d9ecaf248025e67599a7cd51b0b3543fc29e8ed",
    ("residue", 3, 3): "1284b43906cfbc0bf0246c17cbf83d2f9be2ea356fa1024b6f949d671d7d4fa2",
    ("residue", 2, 4): "cc8ffcf4ca0afcd15b0502a35c45e8d4131e66dd67e2798c8a530fefdfb983a7",
    ("euler", 2, 2): "23565e296077cc0fbdbc162c5889b8deff633fede5301730e2ea94653b7728e1",
    ("euler", 3, 2): "a0c27d84cc402ea079e990e026c9de917181131b4f661c7f1bd39d158537c7fc",
    ("filtration", 2, 2): "5ed5ff93f531972dd6052513878f84b0f08c74b4927f5b330c6b7ed5a022f7db",
    ("filtration", 3, 2): "32ae1ae788427feeb955f22f5fb4aa64f3ddc4002c71d7d6240e8fc9e8fe3764",
    ("generators", 2, 2): "9a014527dd7c4450ba2a9b50125af59676dd6079acb843c0cd84cd9b0fc20795",
    ("generators", 3, 2): "a37f6c3170e3d8925eacc9344e1421d4ecc592429929e7a8b40ad1065f0574a8",
    ("purity-square", 2, 2): "1b724599902f2f9ef2adf64e0039dd5b78a3f4677d9dbde6ba8fc06f5722af86",
    ("purity-square", 2, 3): "b2f94bd9f15950655cb54f63e6368147c3409851bf4622463cc27bcd5c6737b5",
    ("purity-square", 3, 2): "464c6a8bc82e333f6f437cbb5e4cfb1d150182277db1d734e3cb702d5953aee5",
    ("purity-square", 2, 4): "7f7c37a1e6b023c55e70bb5b77b4a1368fd1dbb596e1dc7cab2f107155f3b386",
    ("purity-square", 3, 3): "5640650c695b840d405a0f73eae7a906711f294d09d0d8c7c966e17c53979ee6",
    ("nu", 2, 2): "2854f13d743bb2011f1fee2548e281ec6ea190fd765a29e5d84d8f09477fbc72",
    ("nu", 2, 3): "7f2fe74b4f8a8876681be2a06184ef4a5d1b358de795a4e49367a956b7ee21da",
    ("nu", 3, 2): "bd1ae56e22d49e601bc8dfb54bb67acc66f28e15da71322ed8893340cbd70f54",
    ("obstruction", 2, 2): "62d8f84f7369e7775253db75357d51752bb64452677a42cfc2b31a5e5027e964",
    ("obstruction", 3, 2): "984e6f0c6c6db9595737af50795b05de0af3f2b5505b0bc55ebad91b6fb43c51",
    ("pullback", 2, 2): "1b6e72bfcf6b853145d46fe853f3cd5618ba1d108385396dc892302da0766c9c",
    ("pullback", 3, 2): "53d0252a4a54d5f894a7bf468f99da799647d5e944e1a0f55aab1271dbf99259",
    # recorded while every class-walk type read w_k mod p: primes at which a
    # cell of types that read whether p divides w_k holds several nonzero
    # residues, and the largest admitted m = 2 inputs of three suites
    ("residue", 5, 2): "c42f54857c9445aa6abd6c3369bdcd0d9266230cdec4095f55ddf57f755063f6",
    ("residue", 53, 2): "fdbef4c862ad33d6b720ec94d0b76cf49ad8a43cada30b2d1ed79d9d759cc462",
    ("cartier", 5, 2): "7e4fce1054a712d3e8c941f65fdd0a278a001f972fd93d3c138acaeb566171b6",
    ("nu", 7, 2): "1fcd4dd0d2113391bda3dfbb65f036e0e13cf4ebef41e72a748dbbbd374eea0e",
    ("nu", 23, 2): "f70d83af9386b042f0f8dc50e71b65e2618dcd842ef96c4f360d35e418777d18",
    ("purity-square", 5, 3): "1e878cd830db520e8f899abd18de819ce1aa554efa35e8766d1011d90838ab83",
    ("purity-square", 37, 2): "2d502996dc4e5a37096f30e01ca44e97076959d1b4b1b439c50c28465dc11890",
    # recorded before the blowup engine was put in closed form and its rows
    # were checked against the per-weight complexes
    ("blowup", 2, 2): "687c85548af927cf528c2353eeaa42d429c8101f269d428afaf0216c53f92b1c",
    ("blowup", 3, 2): "e2cf8af4723459767b59aaf7a50fe73bf17fcde2118f9e8f9cabda11244f9a33",
}


@pytest.mark.parametrize("suite,p,m", sorted(VERIFY_JSON_SHA256))
def test_verify_json_bytes_pinned(capsys, suite, p, m):
    argv = ("verify", suite, "-p", str(p), "-m", str(m), "--format", "json")
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[(suite, p, m)]


def _spoil_blowup_orbits(monkeypatch, spoil):
    """Make cech.blowup_cohomology read spoil(m, j, orbits) in place of its
    orbits of zero patterns (dims, count, head, tail, sums), as
    cech._blowup_orbits lists them before the report totals them; the
    projective reports of the suite keep theirs."""
    orbits = cech._blowup_orbits
    monkeypatch.setattr(
        cech, "_blowup_orbits", lambda m, c, j, radius: spoil(m, j, orbits(m, c, j, radius))
    )


def _wrong_binomial(m, j, orbits):
    """H^0 = C(m - z - 1, j) on each zero pattern, as if w_0 were counted
    among the zeros z of w_1..w_{m-1}; z is the same at every pattern of an
    orbit, so it is read off the representative's ranges."""
    out = []
    for dims, count, head, tail, sums in orbits:
        z = [*head[1:], *tail].count((0, 0))
        out.append(((comb(m - z - 1, j),) + tuple(dims[1:]), count, head, tail, sums))
    return out


def _fake_h1(m, j, orbits):
    """A fake H^1 = 1 at the origin, where H^0 is 1 or 0: an orbit whose
    ranges are all (0, 0), so it is one pattern of one weight."""
    c = len(orbits[0][2]) if orbits else 2
    return orbits + [((0, 1) + (0,) * (c - 2), 1, [(0, 0)] * c, [(0, 0)] * (m - c), (0, 0))]


@pytest.mark.parametrize("spoil, failing", [(_wrong_binomial, 8), (_fake_h1, 11)])
def test_verify_blowup_fails_on_a_spoiled_engine(capsys, monkeypatch, spoil, failing):
    # each row compares the engine's per-weight dims with the Cech complex
    # built at each weight, so a wrong H^0 binomial fails every row with
    # j >= 1, which the totals alone never show; a fake H^1 fails its row
    for p in (2, 3):
        assert run_cli(capsys, "verify", "blowup", "-p", str(p))[0] == 0
    _spoil_blowup_orbits(monkeypatch, spoil)
    for p in (2, 3):
        code, out, _err = run_cli(capsys, "verify", "blowup", "-p", str(p))
        assert code == 3
        rows = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(rows) == failing, out
        assert all("blowup-acyclicity" in row for row in rows)
        if spoil is _wrong_binomial:
            assert all("j=0" not in row and "complex at w" in row for row in rows)
        else:
            assert all("H^(i>0) = [1" in row for row in rows)


def test_verify_projective_fails_on_a_wrong_negative_branch(capsys, monkeypatch):
    # C(|N|, j - |Z|) in place of C(|N| - 1, j - |Z|) at the top of a
    # pattern with a negative coordinate and no cone coordinate: only the
    # log Serre duality row reads a negative twist, and it fails at n = 1, 2
    assert run_cli(capsys, "verify", "projective", "-p", "2", "-n", "2")[0] == 0
    pattern_dims = cech._pattern_dims

    def wide_negative_branch(n, j, S, tau):
        cones = [k for k, t in enumerate(tau) if t > 0 or (t == 0 and (k in S or j == 0))]
        negative, zeros = sum(t < 0 for t in tau), tau.count(0)
        if negative and not cones:
            return (0,) * n + (comb(negative, j - zeros) if j >= zeros else 0,)
        return pattern_dims(n, j, S, tau)

    monkeypatch.setattr(cech, "_pattern_dims", wide_negative_branch)
    code, out, _err = run_cli(capsys, "verify", "projective", "-p", "2", "-n", "2")
    assert code == 3
    rows = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [row.split()[1] for row in rows] == ["projective-log-serre-duality"] * 2, out
    assert all(" j=" in row and " S=" in row and " l=" in row for row in rows), out


def test_verify_purity_fails_on_closed_block_rows(capsys, monkeypatch):
    # the row dims of nu-purity's C - 1 system counted on the closed Gysin
    # cokernel in place of the plain one: the kernel keeps its dims, but the
    # obstruction no longer matches the cokernel of the divisor's own C - 1
    # system, so every nu-purity row with n >= 1 fails
    assert run_cli(capsys, "verify", "purity-square", "-m", "3", "-p", "2")[0] == 0
    cells = purity.c_minus_one_cells

    def closed_rows(p, blocks):
        # a block's columns are its closed representatives, and a cell with
        # no block has none
        return cells(p, ((cell, 0 if block is None else block[0].shape[1], block) for cell, _rows, block in blocks))

    monkeypatch.setattr(purity, "c_minus_one_cells", closed_rows)
    code, out, _err = run_cli(capsys, "verify", "purity-square", "-m", "3", "-p", "2", "--format", "text")
    assert code == 3
    rows = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [row.split()[1] for row in rows] == ["nu-purity-dims"] * 3, out
    assert all("computed=" in row and "obstruction=" in row for row in rows), out


# -- cohomology ------------------------------------------------------------------


def test_cohomology_text_dims(capsys):
    code, out, _err = run_cli(capsys, "cohomology", "--space", "P2", "--form-degree", "1")
    assert code == 0
    assert "dims: [0, 1, 0]" in out
    assert "stabilized: true" in out


def test_cohomology_structure_sheaf_twist(capsys):
    code, out, _err = run_cli(
        capsys, "cohomology", "--space", "P1", "--sheaf", "O", "--twist", "2"
    )
    assert code == 0
    assert "dims: [3, 0]" in out


def test_cohomology_expect_dims(capsys):
    base = ("cohomology", "--space", "P2", "--form-degree", "1")
    code, _out, _err = run_cli(capsys, *base, "--expect-dims", "0,1,0")
    assert code == 0
    code, _out, err = run_cli(capsys, *base, "--expect-dims", "0,0,0")
    assert code == 3
    assert "expected dims" in err


def test_cohomology_blowup_infinite_h0(capsys):
    code, out, _err = run_cli(
        capsys,
        "cohomology",
        "--space",
        "blowup",
        "--m",
        "2",
        "--c",
        "2",
        "--form-degree",
        "1",
        "--expect-dims",
        "inf,0",
    )
    assert code == 0
    assert "dims: [inf, 0]" in out


def test_cohomology_blowup_zero_sheaf(capsys):
    # Omega^j = 0 for j > m, so H^0 is 0, not infinite
    argv = ("cohomology", "--space", "blowup", "--m", "3", "--form-degree", "4")
    code, out, _err = run_cli(capsys, *argv, "--expect-dims", "0,0")
    assert code == 0
    assert "dims: [0, 0]" in out and "weights with nonzero dims: 0" in out
    code, out, _err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert ",OK,0 0," in out


def test_cohomology_blowup_m6_finishes(capsys):
    # (6, 6, 3) is among the slowest m = 6 inputs
    code, out, _err = run_cli(
        capsys,
        "cohomology",
        "--space",
        "blowup",
        "--m",
        "6",
        "--c",
        "6",
        "--form-degree",
        "3",
        "--expect-dims",
        "inf,0,0,0,0,0",
    )
    assert code == 0
    assert "dims: [inf, 0, 0, 0, 0, 0]" in out


def test_cohomology_log_indices_json(capsys):
    code, out, _err = run_cli(
        capsys,
        "cohomology",
        "--space",
        "P1",
        "--form-degree",
        "1",
        "--log-index",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["S"] == [0]
    # one log pole on the line: same cohomology as the structure sheaf
    # twisted down by one
    assert doc["dims"] == [0, 0]


# (n, j, log set, twist, p) -> sha256 of `cohomology --format json`, for log
# sets that are not {0..|S|-1}; recorded while the engine still read each
# pattern at a permuted representative
COHOMOLOGY_JSON_SHA256 = {
    (3, 1, (2,), -3, 2): "8beee1380e03869c6e1bba53975efbd9245b641b4a393c4bd85356ddc42d98a8",
    (4, 2, (1, 3), -6, 2): "e4e136d7756525e94f62a89ff1925caf44667fbcda7783ccece7f589ab724f13",
    (3, 2, (2, 3), 0, 2): "7338b499c24983e965d3ebcf79040cd56bdbb5747a1dae00c1199af6a5d8e2b3",
    (2, 1, (1,), 2, 2): "de7b490b690a89d1a406a44096b503ad7165ac3f9f4aa9fa3e3d6026458d2712",
    (4, 3, (2,), -5, 3): "21e9f7edfcfc01910907143e1ef5a7d5e7af0053624e7b2da0f70e977ea08f78",
    (3, 1, (1, 3), 4, 3): "8272efd0bab97afd98c812056242f959586e29f27302982854c6c8a277f97bf1",
    (2, 2, (1, 2), -4, 3): "326b25ec98009887fa1ca3d0b4baa1090e24ec3fa8197f7b2961f974c2283ee6",
}


@pytest.mark.parametrize("n,j,S,l,p", sorted(COHOMOLOGY_JSON_SHA256))
def test_cohomology_json_bytes_pinned(capsys, n, j, S, l, p):
    argv = ["cohomology", "--space", f"P{n}", "--form-degree", str(j), "--twist", str(l)]
    for i in S:
        argv += ["--log-index", str(i)]
    code, out, _err = run_cli(capsys, *argv, "-p", str(p), "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == COHOMOLOGY_JSON_SHA256[(n, j, S, l, p)]


# -- report ----------------------------------------------------------------------


def test_report_deterministic_and_valid(tmp_path):
    cfg = dict(command="report", suite="generators", p=2, n=1, fmt="json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cmd_report(RunConfig(output=str(a), **cfg)) == 0
    assert cmd_report(RunConfig(output=str(b), **cfg)) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    schema = json.loads(
        resources.files("logcartier").joinpath("schema/report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert "output" not in doc["config"] and "fmt" not in doc["config"]
    assert doc["cohomology"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "logcartier.cli", "verify", "generators", "-n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("checks passed")
