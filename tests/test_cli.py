"""End-to-end tests of the command line interface.

Every CLI run is a subprocess that imports phenkf from this checkout's
``src`` directory, whatever the caller's ``PYTHONPATH`` or installed copy,
and that sees ``PHENKF_MAX_CODES`` only when a test sets it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "phenkf.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"
CAP_ENV = "PHENKF_MAX_CODES"


def run_cli(*args, check=True, env=()):
    """Run the CLI in the caller's environment with SRC first on PYTHONPATH,
    the cap variable dropped, and then ``env`` applied."""
    child_env = dict(os.environ)
    child_env.pop(CAP_ENV, None)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), child_env.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, env=child_env)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_kf_text_output():
    proc = run_cli("kf", "--code", "n=1")
    assert "kf: 35/2" in proc.stdout
    assert "vertices: 6" in proc.stdout


def test_kf_json_output():
    proc = run_cli("kf", "--code", "000", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["code"] == {"n": 5, "w": "000"}
    assert doc["kf"] == "116812111/93122"


def test_kf_with_sums_and_matrix():
    proc = run_cli("kf", "--code", "n=2", "--sums", "--matrix", "--format", "json")
    doc = json.loads(proc.stdout)
    assert len(doc["per_vertex_sums"]) == 12
    assert set(doc["matrix"]) == {"order", "r"}
    assert len(doc["matrix"]["order"]) == 12
    assert doc["matrix"]["r"][0][0] == "0"


def test_kf_approx_adds_decimal():
    proc = run_cli("kf", "--code", "n=1", "--approx")
    assert "17.5" in proc.stdout


def test_kf_rejects_bad_code():
    proc = run_cli("kf", "--code", "3", check=False)
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_kf_requires_n_for_empty_word():
    proc = run_cli("kf", "--code", "", check=False)
    assert proc.returncode == 2


def test_enumerate():
    proc = run_cli("enumerate", "--n", "3")
    assert proc.stdout.splitlines() == ["n=3 w=0", "n=3 w=1", "n=3 w=2"]
    proc = run_cli("enumerate", "--n", "3", "--canonical")
    assert proc.stdout.splitlines() == ["n=3 w=0", "n=3 w=1"]


def test_extrema_csv():
    proc = run_cli("extrema", "--n", "3", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max"
    assert lines[1:] == [
        "3,0,0,99465,322,true,true,false",
        "3,1,1,101769,322,false,false,true",
        "3,2,0,99465,322,true,true,false",
    ]


def test_extrema_cap_refused():
    proc = run_cli("extrema", "--n", "9", "--cap", "100", check=False)
    assert proc.returncode == 2
    assert "cap" in proc.stderr.lower()


def test_extrema_cap_from_environment():
    proc = run_cli("extrema", "--n", "5", check=False, env={CAP_ENV: "5"})
    assert proc.returncode == 2
    assert "n=5 needs 27 codes but the cap is 5" in proc.stderr
    assert CAP_ENV in proc.stderr


def test_extrema_huge_n_refused_by_cap():
    # 3^(n-2) has tens of millions of digits; the refusal must not compute it
    proc = run_cli("extrema", "--n", "100000000", check=False)
    assert proc.returncode == 2
    assert "n=100000000 needs 3^99999998 codes but the cap is 2187" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("extrema", "--n", "3", "--jobs", "0"), "argument --jobs: must be at least 1, got 0"),
    (("verify", "lemma5", "--n", "2", "--samples", "-3"), "argument --samples: must be at least 0, got -3"),
    (("verify", "lemma4", "--max-vertices", "1"), "argument --max-vertices: must be at least 2, got 1"),
], ids=["jobs", "samples", "max-vertices"])
def test_numeric_arguments_validated(args, message):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_runs_are_deterministic():
    a = run_cli("extrema", "--n", "4", "--format", "csv").stdout
    b = run_cli("extrema", "--n", "4", "--format", "csv").stdout
    assert a == b


def test_verify_hexagon():
    proc = run_cli("verify", "hexagon", "--r", "1/2")
    assert "difference: -2/11" in proc.stdout
    assert proc.stdout.strip().endswith("PASS")


def test_verify_lemma4():
    proc = run_cli("verify", "lemma4", "--samples", "5", "--seed", "7")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_lemma5():
    proc = run_cli("verify", "lemma5", "--n", "2", "--samples", "2", "--seed", "11")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_lemma6():
    proc = run_cli("verify", "lemma6", "--n", "2")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_conjecture():
    proc = run_cli("verify", "conjecture", "--n", "4")
    assert "PASS" in proc.stdout


def test_verify_theorem1():
    proc = run_cli("verify", "theorem1", "--n", "4")
    assert "PASS" in proc.stdout


def test_reduce_trace():
    proc = run_cli("reduce", "--code", "n=1", "--trace")
    assert "series" in proc.stdout


def test_export_dot():
    proc = run_cli("export-dot", "--code", "n=2")
    assert proc.stdout.startswith("graph")
    assert "a1" in proc.stdout


def test_unknown_subcommand():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2
