"""End-to-end tests of the command line interface.

Every CLI run is a subprocess that imports phenkf from this checkout's
``src`` directory, whatever the caller's ``PYTHONPATH`` or installed copy,
and that sees ``PHENKF_MAX_CODES`` only when a test sets it.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "phenkf.cli"]
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAP_ENV = "PHENKF_MAX_CODES"


def run_cli(*args, check=True, env=(), timeout=None):
    """Run the CLI in the caller's environment with SRC first on PYTHONPATH,
    the cap variable dropped, and then ``env`` applied."""
    child_env = dict(os.environ)
    child_env.pop(CAP_ENV, None)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), child_env.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, env=child_env,
                          timeout=timeout)
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


@pytest.mark.parametrize("args", [("enumerate", "--n", "30"), ("verify", "lemma6", "--n", "30")],
                         ids=["enumerate", "lemma6"])
def test_enumerating_commands_refused_by_cap(args):
    # both list every code; past the cap they must refuse before enumerating
    proc = run_cli(*args, check=False, timeout=20)
    assert proc.returncode == 2
    assert "n=30 needs 3^28 codes but the cap is 2187" in proc.stderr
    assert proc.stdout == ""


def test_extrema_huge_n_refused_by_cap():
    # 3^(n-2) has tens of millions of digits; the refusal must not compute it
    proc = run_cli("extrema", "--n", "100000000", check=False)
    assert proc.returncode == 2
    assert "n=100000000 needs 3^99999998 codes but the cap is 2187" in proc.stderr


LONG_CODE = "0" * 3000  # 3002 hexagons: its Kf alone takes longer than the timeout below


@pytest.mark.parametrize("args, flag, fmt", [
    (("kf", "--code", LONG_CODE, "--matrix"), "--matrix", "text"),
    (("kf", "--code", LONG_CODE, "--matrix", "--format", "csv"), "--matrix", "csv"),
    (("kf", "--code", LONG_CODE, "--sums", "--format", "csv"), "--sums", "csv"),
    (("extrema", "--n", "100000000", "--approx", "--format", "json"), "--approx", "json"),
    (("extrema", "--n", "100000000", "--approx", "--format", "csv"), "--approx", "csv"),
], ids=["kf-matrix-text", "kf-matrix-csv", "kf-sums-csv", "extrema-approx-json",
        "extrema-approx-csv"])
def test_flags_the_format_drops_are_refused(args, flag, fmt):
    # refused before the chain is built or solved, and before the cap check
    proc = run_cli(*args, check=False, timeout=20)
    assert proc.returncode == 2
    assert f"error: {flag} has no effect with --format {fmt}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("code, flags, message", [
    ("0" * 2999, (), "kf takes at most 3000 hexagons, got n=3001"),
    ("0" * 999, ("--sums",), "kf --sums takes at most 1000 hexagons, got n=1001"),
    ("0" * 59, ("--matrix", "--format", "json"), "kf --matrix takes at most 60 hexagons, got n=61"),
    ("0" * 59, ("--sums", "--matrix", "--format", "json"), "kf --matrix takes at most 60 hexagons"),
], ids=["plain", "sums", "matrix", "sums-matrix"])
def test_kf_refuses_chains_past_its_bound(code, flags, message):
    # refused right after parsing, before any Kf, sum or matrix is computed
    proc = run_cli("kf", "--code", code, *flags, check=False, timeout=2)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_lemma5_refuses_chains_past_its_bound():
    # refused before any chain is built; n = 100 itself takes about 13 s
    proc = run_cli("verify", "lemma5", "--n", "101", check=False, timeout=2)
    assert proc.returncode == 2
    assert "verify lemma5 takes at most 100 hexagons, got n=101" in proc.stderr
    assert proc.stdout == ""


def test_reduce_refuses_chains_past_its_bound():
    # refused right after parsing; n = 400 itself takes about 11 s
    proc = run_cli("reduce", "--code", "0" * 399, "--trace", check=False, timeout=2)
    assert proc.returncode == 2
    assert "reduce takes at most 400 hexagons, got n=401" in proc.stderr
    assert proc.stdout == ""


def test_lemma4_refuses_components_past_its_bound():
    # refused before any draw; 100 samples at m = 40 take about half a minute
    proc = run_cli("verify", "lemma4", "--max-vertices", "41", check=False, timeout=2)
    assert proc.returncode == 2
    assert "verify lemma4 takes --max-vertices at most 40, got 41" in proc.stderr
    assert proc.stdout == ""


def test_extrema_ignores_jobs():
    serial = run_cli("extrema", "--n", "4", "--format", "csv", "--jobs", "1").stdout
    assert run_cli("extrema", "--n", "4", "--format", "csv", "--jobs", "2").stdout == serial


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


@pytest.mark.parametrize("args, digest", [
    (("verify", "lemma5", "--n", "4"), "ab945edb39091ba83b52f885b68a4bc0e16da24c0d216167961918b16f077333"),
    (("verify", "lemma6", "--n", "4"), "c553f66115fc96b2da2b1299e5379c551419570f911f3bd8900b412f2010c916"),
    (("verify", "lemma4",), "4e3fd464461d24721596ea7b7972a9eabed96639626e6c7d9c14aac9b64c8ff7"),
], ids=["lemma5", "lemma6", "lemma4"])
def test_lemma_reports_match_golden_digest(args, digest):
    # sha256 of the full JSON report, default seed; a changed value, field or
    # verdict anywhere in it changes the digest
    proc = run_cli(*args, "--format", "json")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_verify_conjecture():
    proc = run_cli("verify", "conjecture", "--n", "4")
    assert "PASS" in proc.stdout


def test_verify_theorem1():
    proc = run_cli("verify", "theorem1", "--n", "4")
    assert "PASS" in proc.stdout


def test_reduce_trace():
    proc = run_cli("reduce", "--code", "n=1", "--trace")
    assert "series" in proc.stdout


@pytest.mark.parametrize("code, fmt, digest", [
    ("021", "text", "625e30a994bfa44e85d5bf959dba150fcd3a39048c13e36c6c1eba0d6b6e9ff5"),
    ("021", "json", "6a3425024fe6ee825885041461c4b16ca29975ed8c07c21189c36cc56adab3d6"),
    ("20102", "text", "4642071b5b5f40ce8e2c8a45641d2fa91af3763350a320aa1818619e26038853"),
    ("20102", "json", "6595cba82874d5d04e0230ea0b4dbaee1347aeb66a81b5c4faf7a486b302cd54"),
], ids=["021-text", "021-json", "20102-text", "20102-json"])
def test_reduce_trace_matches_golden_digest(code, fmt, digest):
    # sha256 of the whole traced reduction: every step's kind and site and
    # the final edges; json adds each step's removed and added edges and Kf
    proc = run_cli("reduce", "--code", code, "--trace", "--format", fmt)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_export_dot():
    proc = run_cli("export-dot", "--code", "n=2")
    assert proc.stdout.startswith("graph")
    assert "a1" in proc.stdout


def test_unknown_subcommand():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


def test_benchmark_tracer_names_resolve():
    # bench/tracer.py wraps these names by lookup; a rename or deletion in
    # phenkf breaks the benchmark's traced run, which tier-1 does not run
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYERS")
    assert "ReductionTrace.replay" in layers["resistance_engine"]
    for layer, names in layers.items():
        home = importlib.import_module(f"phenkf.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = vars(getattr(home, owner_name)) if owner_name else vars(home)
            assert callable(owner.get(attr)), f"phenkf.{layer}.{qualname}"
