"""Exit codes, output formats, and config plumbing of the command line tool.

Exit contract: 0 all good, 1 usage or i/o, 2 resource cap, 3 a check failed
or computed dims differ from --expect-dims.
"""

import json
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from logcartier import cli
from logcartier.cli import (
    RunConfig,
    SCHEMA_VERSION,
    UsageError,
    build_parser,
    cmd_report,
    config_from_args,
    main,
)


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
        ("verify", "nu", "-m", "6", "-p", "251"),
        ("verify", "purity-square", "-m", "6"),
        ("verify", "cartier", "-m", "5"),
        ("cohomology", "--space", "P6", "--sheaf", "O", "--twist", "50"),
        # the CLI takes m <= 6, so the blowup cap is reached by the box radius
        ("cohomology", "--space", "blowup", "--m", "6", "--c", "6", "--form-degree", "3",
         "--box-radius", "64"),
    ],
    ids=["nu", "purity-square", "cartier", "per-weight", "blowup-listing"],
)
def test_nu_suite_cost_cap_exit_two(capsys, argv):
    t0 = time.perf_counter()
    code, _out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "-p", "2", "-m", "5"),
        ("verify", "all", "-p", "2", "-m", "6"),
        ("verify", "all", "-p", "7", "-m", "3"),
        ("verify", "residue", "-p", "2", "-m", "5"),
    ],
    ids=["all-m5", "all-m6", "all-nu-cap", "residue"],
)
def test_suite_caps_checked_before_any_suite_runs(capsys, argv):
    # at p = 7, m = 3 the residue rows fit their cap, and the window-weight
    # cap that cartier and nu share is hit
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert out == ""
    assert "resource limit" in err


def test_later_suite_cap_stops_before_earlier_suite_runs(capsys, monkeypatch):
    # cartier's window cap admits p = 2, m = 2, and residue, a later suite of
    # `verify all`, is capped: nothing may run, cartier included
    entered = []
    cartier = cli.suite_cartier
    monkeypatch.setattr(cli, "suite_cartier", lambda *a: entered.append(1) or cartier(*a))
    monkeypatch.setattr(cli, "RESIDUE_MAX_WEIGHTS", 1)
    code, out, err = run_cli(capsys, "verify", "all", "-p", "2", "-m", "2")
    assert code == 2
    assert out == ""
    assert "resource limit" in err
    assert not entered


@pytest.mark.parametrize("cap, code", [(169, 2), (170, 0)])
def test_residue_cap_counts_row_weights(capsys, monkeypatch, cap, code):
    # p = 2, m = 2: log sets {0}, {1}, {0, 1} on window 4, a in {1, 2};
    # a log variable ranges over 0..4 and a plain one over 0..5,
    # so 2 * (5 * 6 + 6 * 5 + 5 * 5) = 170 weights
    monkeypatch.setattr(cli, "RESIDUE_MAX_WEIGHTS", cap)
    assert run_cli(capsys, "verify", "residue", "-p", "2", "-m", "2")[0] == code


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
