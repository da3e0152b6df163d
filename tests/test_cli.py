"""End-to-end tests of the command line interface.

Every CLI run is a subprocess that imports phenkf from this checkout's
``src`` directory, whatever the caller's ``PYTHONPATH`` or installed copy.
"""

import argparse
import ast
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import phenkf.cli as cli
from phenkf import resistance_engine
from phenkf.chain_model import build_chain, enumerate_words
from phenkf.exact_arith import approx_text, format_rational
from phenkf.extremal_search import kf_of_code
from phenkf.resistance_engine import resistance_matrix

CLI = [sys.executable, "-m", "phenkf.cli"]
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env():
    """The caller's environment with SRC first on PYTHONPATH."""
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), out.get("PYTHONPATH")]))
    return out


def run_cli(*args, check=True, timeout=None):
    """Run the CLI in `child_env()`."""
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, env=child_env(),
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


@pytest.mark.parametrize("code, sums, digest", [
    ("n=1", False, "a6e0aa2c312c31c5cee4373abe9b49c51aa22f4b08d48a76cc10d4aa52933e84"),
    ("n=1", True, "acfb0abc3ae596c97f24707eaaaed8cab7d6b3698a544639b72a689963aed9a8"),
    ("n=2", False, "2695cda11caf08f7a558e2f184aa20d3c323f5799cbb07f3d10efa8ceb06b1d4"),
    ("n=2", True, "d487cc44fdc0a19f4b998b43e643bcffdd28a89caf065f3baa92caf7d1e5d7a4"),
    ("0" * 10, False, "a6f33b051ddbedeb1d2ae56ae42c4f2f7f7bbf6611aceb0f044a9d2626305c8d"),
    ("0" * 10, True, "cb6ffc334273673e5af01a769d99a932689e10759d9ae68bf1141b854209715f"),
    ("0120210201", False, "d337494cf364b1e6901fb314ba3aeffdcf35f6f8c57e44d6d712d433ee1622c5"),
    ("0120210201", True, "437d48e0c00ea559958380aa61b2ca60b278ac9bb5412c0d1ebb045f9f8a5393"),
], ids=["n1", "n1-sums", "n2", "n2-sums", "helicene12", "helicene12-sums", "mixed12",
        "mixed12-sums"])
def test_kf_matrix_matches_golden_digest(code, sums, digest):
    # sha256 of the whole report: Kf, every per-vertex sum and every matrix
    # entry, each written in lowest terms
    proc = run_cli("kf", "--code", code, "--matrix", *(("--sums",) if sums else ()), "--format", "json")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags", [(), ("--sums",), ("--sums", "--approx")], ids=["matrix", "sums", "approx"])
def test_kf_matrix_factors_the_chain_once(flags, monkeypatch, capsys):
    # Kf and the sums are read off the matrix: the 72-vertex chain is
    # factored once, and nothing else is
    sizes = []
    factor = resistance_engine._GroundedFactor.__init__

    def counting(self, net, ground=None):
        sizes.append(net.num_vertices)
        factor(self, net, ground)

    monkeypatch.setattr(resistance_engine._GroundedFactor, "__init__", counting)
    assert cli.main(["kf", "--code", "0120210201", "--matrix", *flags, "--format", "json"]) == 0
    assert sizes == [72]
    assert len(json.loads(capsys.readouterr().out)["matrix"]["order"]) == 72


def _held_matrix(matrix):
    """The matrix dict that `kf --matrix` formatted whole and handed to the
    encoder before its rows were written as text, kept as an oracle: each
    unordered pair formatted by one gcd with the scale, and mirrored."""
    n, scale = len(matrix.order), matrix.scale
    rows = [["0"] * n for _ in range(n)]
    for i, (row, out) in enumerate(zip(matrix.numerators, rows)):
        for j in range(i + 1, n):
            x = row[j]
            if scale == 1:
                text = format_rational(x)
            else:
                g = math.gcd(x, scale)
                text = f"{x // g}/{scale // g}" if g < scale else str(x // g)
            out[j] = rows[j][i] = text
    return {"order": list(matrix.order), "r": rows}


@pytest.mark.parametrize("n", range(1, 6))
def test_kf_matrix_rows_match_the_held_encoding(n, capsys):
    # the rows written as text give the very bytes that json.dumps gave the
    # whole report, with and without --sums and --approx
    for code, sums, approx in itertools.product(enumerate_words(n), (False, True), (False, True)):
        report = kf_of_code(code, with_sums=sums)
        reference = report.as_dict()
        if approx:
            reference["kf_approx"] = approx_text(report.kf)
        reference["matrix"] = _held_matrix(resistance_matrix(build_chain(code).network))
        flags = ["--sums"] * sums + ["--approx"] * approx
        assert cli.main(["kf", "--code", str(code), "--matrix", *flags, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(reference, indent=2) + "\n"


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


def test_lemma6_cap_flag():
    proc = run_cli("verify", "lemma6", "--n", "5", "--cap", "26", check=False)
    assert proc.returncode == 2
    assert "n=5 needs 27 codes but the cap is 26; raise it with --cap" in proc.stderr
    assert proc.stdout == ""
    proc = run_cli("verify", "lemma6", "--n", "5", "--cap", "27")
    assert "unit weights: 27 chains checked, pass: True" in proc.stdout


@pytest.mark.parametrize("args", [("enumerate", "--n", "30"), ("verify", "lemma6", "--n", "30")],
                         ids=["enumerate", "lemma6"])
def test_enumerating_commands_refused_by_cap(args):
    # both list every code; past the cap they must refuse before enumerating
    proc = run_cli(*args, check=False, timeout=20)
    assert proc.returncode == 2
    assert "n=30 needs 3^28 codes but the cap is 2187" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [("extrema",), ("verify", "theorem1"), ("verify", "conjecture"),
                                  ("enumerate", "--format", "json")],
                         ids=["extrema", "theorem1", "conjecture", "enumerate-json"])
@pytest.mark.parametrize("n", [0, -1])
def test_exhaustive_commands_refuse_fewer_than_one_hexagon(args, n):
    # a usage error, not a failing verdict (exit 1) or a traceback
    proc = run_cli(*args, "--n", str(n), check=False)
    assert proc.returncode == 2
    assert proc.stderr == f"error: need at least one hexagon, got n={n}\n"
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


@pytest.mark.parametrize("args, route", [
    (("extrema",), "extrema"), (("verify", "theorem1"), "verify theorem1"),
    (("verify", "conjecture"), "verify conjecture"),
], ids=["extrema", "theorem1", "conjecture"])
def test_search_refuses_chains_past_its_bound(args, route):
    # refused after the cap and before any walk; n = 24 itself takes about 3 s
    proc = run_cli(*args, "--n", "25", "--cap", str(3 ** 23), check=False, timeout=2)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {route} takes at most 24 hexagons, got n=25\n"
    assert proc.stdout == ""
    # past both, the cap's refusal is the one given, as it was before the bound
    proc = run_cli(*args, "--n", "25", check=False, timeout=2)
    assert proc.returncode == 2
    assert "n=25 needs 3^23 codes but the cap is 2187" in proc.stderr


def test_conjecture_reaches_n17():
    # 14 348 907 codes from halves of 3^7 and 3^8 states, in about 0.4 s;
    # the walk of every code took about 52 s
    proc = run_cli("verify", "conjecture", "--n", "17", "--cap", "14348907", timeout=20)
    assert proc.stdout.splitlines()[-1] == "PASS"


def test_lemma5_refuses_chains_past_its_bound():
    # refused before any chain is built; n = 225 itself takes about 14 s
    proc = run_cli("verify", "lemma5", "--n", "226", check=False, timeout=2)
    assert proc.returncode == 2
    assert "verify lemma5 takes at most 225 hexagons, got n=226" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("n, samples, refused", [
    (225, 5, False), (225, 6, True), (100, 25, False), (100, 26, True),
    (15, 1000, False), (16, 1000, True),
], ids=["225x5", "225x6", "100x25", "100x26", "15x1000", "16x1000"])
def test_lemma5_refuses_samples_past_its_work_bound(n, samples, refused, monkeypatch, capsys):
    # samples n^2 may reach the default 5 samples at the 225-hexagon bound,
    # 253125, and no further; a run inside the bound reaches the check, one
    # past it is refused before any chain is built
    class Reached(Exception):
        pass

    def check(*args, **kw):
        raise Reached

    monkeypatch.setattr(cli, "check_lemma5", check)
    argv = ["verify", "lemma5", "--n", str(n), "--samples", str(samples)]
    if not refused:
        with pytest.raises(Reached):
            cli.main(argv)
        return
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == (f"error: verify lemma5 takes --samples times n^2 at most 5*225^2 = 253125, "
                   f"got {samples}*{n}^2 = {samples * n * n}\n")
    assert out == ""


def test_reduce_refuses_chains_past_its_bound():
    # refused right after parsing; n = 1000 itself takes about 5 s in json
    proc = run_cli("reduce", "--code", "0" * 999, "--trace", check=False, timeout=2)
    assert proc.returncode == 2
    assert "reduce takes at most 1000 hexagons, got n=1001" in proc.stderr
    assert proc.stdout == ""


def test_export_dot_refuses_chains_past_its_bound():
    # refused right after parsing; n = 10000 itself takes about 0.5 s
    proc = run_cli("export-dot", "--code", "0" * 9999, check=False, timeout=2)
    assert proc.returncode == 2
    assert proc.stderr == "error: export-dot takes at most 10000 hexagons, got n=10001\n"
    assert proc.stdout == ""


def test_reduce_trace_finishes_at_its_bound():
    # each step costs time in its own size, so the 1000-hexagon helicene's
    # whole trace takes about a second (it took minutes when every step
    # rebuilt the network)
    proc = run_cli("reduce", "--code", "0" * 998, "--trace", timeout=60)
    lines = proc.stdout.splitlines()
    # 8n - 3 steps, then the one edge left between the last two vertices
    assert len(lines) == 8 * 1000 - 3 + 1
    assert lines[-2] == "step 7997: parallel at (5998, 5999)"
    assert lines[-1].startswith("5998 5999 ")


def _peak_rss_and_stdout(*args):
    """Run the CLI and return its peak RSS in bytes and its stdout, read
    through a pipe.  A small launcher starts the CLI and reads its
    ru_maxrss: a process's ru_maxrss counts its spawner's resident set at
    exec, and the test process's is large and varies."""
    launcher = ("import resource, subprocess, sys\n"
                "rc = subprocess.run(sys.argv[1:]).returncode\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", launcher, *CLI, *args], capture_output=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1]) * 1024, proc.stdout  # ru_maxrss is in KiB on Linux


def test_reduce_json_streams_its_output():
    # the JSON text is written as it is encoded, and each step's dict is made
    # as the encoder reaches it: peak RSS rises over a trivial command's by
    # about 0.9x the output (the trace itself), where holding every step's
    # dict took about 2x and building the text first about 5x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("reduce", "--code", "0" * 498, "--trace", "--format", "json")
    assert json.loads(out)["code"] == {"n": 500, "w": "0" * 498}
    size = len(out)  # about 6.7 MB
    assert peak - base < 1.5 * size


@pytest.mark.parametrize("args, count", [
    (("extrema", "--n", "12", "--cap", "59049"), 59049),
    (("enumerate", "--n", "13", "--cap", "177147"), 177147),
], ids=["extrema", "enumerate"])
def test_json_listings_stream_their_items(args, count):
    # each report or word is made as the encoder reaches it: peak RSS rises
    # over a trivial command's by well under half the output (nothing per
    # code for extrema), where building the list first took 2.5-4x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout(*args, "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == len(doc["reports" if args[0] == "extrema" else "codes"]) == count
    assert peak - base < len(out) / 2


def test_kf_matrix_json_writes_its_rows_as_made():
    # the rows are written one by one as each is formatted, each pair's
    # text held only until its mirror row: peak RSS rises over a trivial
    # command's by about 0.75x the output, the peak now being the full
    # inverse that the matrix is read from, where holding the whole
    # formatted matrix for the encoder took 1.35x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("kf", "--code", "0" * 38, "--matrix", "--format", "json")
    assert len(json.loads(out)["matrix"]["r"]) == 240
    assert peak - base < len(out)  # about 6.8 MB


def test_export_dot_writes_its_lines_as_made():
    # each DOT line is made from the chain as it is written: peak RSS rises
    # over a trivial command's by about 8.5x the output, the built chain
    # itself, where holding a dict of attributes per vertex and the whole
    # text took about 16.5x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("export-dot", "--code", "0" * 4998)
    assert out.startswith(b"graph chain_5000_") and out.endswith(b"}\n")
    assert peak - base < 12 * len(out)  # about 2.5 MB


def test_extrema_csv_streams_its_lines():
    # the csv lines are written in chunks as they are made: peak RSS rises
    # over a trivial command's by well under the output (one chunk), where
    # joining the text first took about 4.5x and one int kept per code
    # about 1.3x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("extrema", "--n", "12", "--format", "csv", "--cap", "59049")
    assert out.count(b"\n") == 59049 + 1
    size = len(out)  # about 4.5 MB
    assert peak - base < 2 * size


@pytest.mark.parametrize("fmt, size", [("csv", 1829524), ("text", 1062882)])
def test_enumerate_streams_its_lines(fmt, size):
    # text and csv are written in chunks as the codes are made: peak RSS
    # rises over a trivial command's by about half the output (one chunk),
    # where listing every code and joining the text first took 10-12x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("enumerate", "--n", "12", "--cap", "59049", "--format", fmt)
    assert len(out) == size and out.count(b"\n") == 59049 + (fmt == "csv")
    assert peak - base < size


def test_enumerate_canonical_json_counts_its_words():
    # the count is taken in a pass of its own, before the words are written
    doc = json.loads(run_cli("enumerate", "--n", "6", "--canonical", "--format", "json").stdout)
    lines = run_cli("enumerate", "--n", "6", "--canonical").stdout.splitlines()
    assert doc["count"] == len(doc["codes"]) == 25
    assert ["n=6 w=" + w for w in doc["codes"]] == lines


def test_enumerate_cap_flag():
    proc = run_cli("enumerate", "--n", "5", "--cap", "26", check=False)
    assert proc.returncode == 2
    assert "n=5 needs 27 codes but the cap is 26" in proc.stderr
    assert proc.stdout == ""
    proc = run_cli("enumerate", "--n", "5", "--cap", "27")
    assert len(proc.stdout.splitlines()) == 27


def test_lemma4_refuses_components_past_its_bound():
    # refused before any draw; 100 samples at m = 40 take about 3 s
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
    (("verify", "lemma4", "--samples", "1000000000"), "argument --samples: must be at most 1000, got 1000000000"),
    (("verify", "lemma5", "--n", "225", "--samples", "1001"), "argument --samples: must be at most 1000, got 1001"),
], ids=["jobs", "samples", "max-vertices", "samples-lemma4", "samples-lemma5"])
def test_numeric_arguments_validated(args, message):
    # each is refused at parse time, before any check runs: lemma4 with
    # 10^9 samples would run for weeks
    proc = run_cli(*args, check=False, timeout=10)
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


@pytest.mark.parametrize("r", ["0", "-1/2"])
def test_verify_hexagon_refuses_a_nonpositive_weight(r):
    proc = run_cli("verify", "hexagon", f"--r={r}", check=False)
    assert proc.returncode == 2
    assert "resistance must be positive" in proc.stderr
    assert proc.stdout == ""


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


def test_verify_lemma6_reaches_cap():
    # n = 9 is the largest n the default cap admits: 2187 codes
    proc = run_cli("verify", "lemma6", "--n", "9", timeout=60)
    assert proc.returncode == 0
    assert "unit weights: 2187 chains checked, pass: True" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("args, fmt, digest", [
    (("verify", "lemma5", "--n", "4"), "json", "ab945edb39091ba83b52f885b68a4bc0e16da24c0d216167961918b16f077333"),
    (("verify", "lemma6", "--n", "4"), "json", "c553f66115fc96b2da2b1299e5379c551419570f911f3bd8900b412f2010c916"),
    (("verify", "lemma4",), "json", "4e3fd464461d24721596ea7b7972a9eabed96639626e6c7d9c14aac9b64c8ff7"),
    (("verify", "lemma5", "--n", "20"), "json", "6a3c84bcc9bfe592eb4d92e1517536a573e85049cebc689d3b65ff35eb238865"),
    (("verify", "lemma4",), "text", "a595522bb507ad6f754bf5cb546c5c968177d46c72682c34532e922be9c88d06"),
    (("verify", "lemma5", "--n", "4"), "text", "eae68250bb05dcfe1530f01bbf5ac566b2113318062090e118ded57db0167ab6"),
    (("verify", "lemma6", "--n", "4"), "text", "3defe8acf0ed753a1542c6ca678f76c6ad446549cc4824057a7cff20b9da8130"),
    (("verify", "theorem1", "--n", "5"), "text", "d7c1e570fb0e1acf36310521e0eb0dab4d2003c669ac416c81243f8cc8edc47c"),
    (("verify", "theorem1", "--n", "5"), "json", "2478b55476faf35676934549e04ff7802f6b14c23c11513e8f1d3a4a94e68c8d"),
    (("verify", "conjecture", "--n", "5"), "text", "4143b0b6e1f94afcf638ddf987492cbac6154989a1ff64b37dac48305da12690"),
    (("verify", "conjecture", "--n", "5"), "json", "d416630551fc98231d939553841537f1fba541d0376b112358a03c7ee07f653c"),
    (("verify", "hexagon", "--r", "1/2"), "text", "66aa44ef05a5fe6b7664b58487c7389bf8d97f43925d8344d89bc0cbf25cd400"),
    (("verify", "hexagon", "--r", "1/2"), "json", "3fe6fd553e71b9d171aa1f1febdba276fd6ba51ce5ea582a1503ae5f5e0f8dd4"),
    (("extrema", "--n", "9"), "csv", "09dcf9edcb9dde65942d6dfd788e99f29f130336b91f1626cc776d0e2138c42d"),
    (("extrema", "--n", "9"), "text", "8eb85502d29a90f8f7758043b7207bf6b0e985471acdbe73814b8414388b5abf"),
    (("extrema", "--n", "9"), "json", "4e135e04a66deea9d40bfea9ab2cf91ad07fa13fd3c7f920c4c81a233d32e241"),
    (("verify", "lemma6", "--n", "7"), "json", "b1fd18b6255b4f427cc36ecae48e38455849db2af9b664a30ec9c5532669dd6a"),
    (("kf", "--code", "0" * 298), "text", "bd58abefb79604359b0e8fbd34acdcb5e9df8826706e334dc9fd3dc34e3b7acb"),
    (("kf", "--code", "1" * 298), "text", "52609214f7e9bfd85ee089e2299e396b575a19a820b10dafb2595948756429b2"),
    (("verify", "conjecture", "--n", "11", "--cap", "19683"), "text",
     "bfa343ff4ae9e5fa498b3d43bbe435accf93693d3d105b4f6b87307ca36790d5"),
    (("verify", "conjecture", "--n", "11", "--cap", "19683"), "json",
     "8ab0d0dcc31d64414e8c9a9a11a23da1780e17be5e06df1d29d67ed0574b3da2"),
    (("verify", "theorem1", "--n", "11", "--cap", "19683"), "text",
     "f39e1d2b388d4e99eea63d835db696aebfbf3f4d95ee6df338c1aeea4c3d2721"),
    (("verify", "theorem1", "--n", "11", "--cap", "19683"), "json",
     "36864dfe2563245f032a0793dc2df9bbf8868a5d8d5edd93fb4dec8451ad18cc"),
    (("extrema", "--n", "11", "--cap", "19683"), "text",
     "638c0e8b6a7598a0cfe4164080d59767a86254d5112f85b137e897f588318512"),
    (("extrema", "--n", "10", "--cap", "6561"), "csv",
     "939790dc9d414c45121115839fc408fd4f4e6bb6c6513f419dc28cb07fa0f5ba"),
], ids=["lemma5", "lemma6", "lemma4", "lemma5-n20", "lemma4-text", "lemma5-text", "lemma6-text",
        "theorem1-text", "theorem1-json", "conjecture-text", "conjecture-json", "hexagon-text",
        "hexagon-json", "extrema-n9-csv", "extrema-n9-text", "extrema-n9-json", "lemma6-n7-json",
        "helicene300-text", "linear300-text", "conjecture-n11-text", "conjecture-n11-json",
        "theorem1-n11-text", "theorem1-n11-json", "extrema-n11-text", "extrema-n10-csv"])
def test_lemma_reports_match_golden_digest(args, fmt, digest):
    # sha256 of the whole report of every verify target, default seed; a
    # changed value, field, line or verdict anywhere in it changes the digest.
    # The extrema, lemma 6 and kf pins reach past the sizes that the engine
    # is cross-checked against factorization at
    proc = run_cli(*args, "--format", fmt)
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
    ("0" * 58, "text", "d85790b4e2b9d984e6a23dae193928b32a1c54bb638001a3e85f90729cfb0663"),
    ("0" * 58, "json", "b93fb49f52328862d46b39d7d8f1dae4bd54319e0fdaabd1d86f9fc1e530e2af"),
], ids=["021-text", "021-json", "20102-text", "20102-json", "helicene60-text", "helicene60-json"])
def test_reduce_trace_matches_golden_digest(code, fmt, digest):
    # sha256 of the whole traced reduction: every step's kind and site and
    # the final edges; json adds each step's removed and added edges and Kf
    proc = run_cli("reduce", "--code", code, "--trace", "--format", fmt)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_export_dot():
    proc = run_cli("export-dot", "--code", "n=2")
    assert proc.stdout.startswith("graph")
    assert "a1" in proc.stdout


@pytest.mark.parametrize("code, digest", [
    ("n=1", "dfb1663ce56deb9f30c9bcb3652a8902001d534b1805729d35b5c77aafe57e2f"),
    ("n=2", "878a5b18739bceba5ec12a1756a56d8d3b8de8f4798d0a5c19b1a5186d6464ff"),
    ("020", "bbe0858cb50f5a11054028a3e4887677540d703cdddd28f4df77b6bf76636b0c"),
    ("0120210201", "c7ca03b26b7b0aaaa698a7b9e7913d1ddb5d173a038c9a0ec2d106b33d3d28b4"),
    ("0" * 38, "67f74044c365a09153d0582a7d8f41b1b699532c56a41bd7fc1a64bf6b037e8e"),
], ids=["n1", "n2", "020", "mixed12", "helicene40"])
def test_export_dot_matches_golden_digest(code, digest):
    # sha256 of the whole DOT text: the graph name, every vertex with its
    # corner label and hexagon, and every edge with its resistance
    proc = run_cli("export-dot", "--code", code)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_unknown_subcommand():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


def test_main_leaves_no_cyclic_garbage():
    # after a warm-up call, a main call must free all it made by reference
    # counting alone: a parser built per call would be left in cycles
    script = (
        "import gc, sys, phenkf.cli as cli\n"
        "argv = ['verify', 'lemma5', '--n', '2', '--samples', '1']\n"
        "cli.main(argv)\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "cli.main(argv)\n"
        "print('cyclic:', gc.collect())\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "cyclic: 0"


def test_import_factors_no_transfer_blocks():
    # the engine's block factorizations wait for the first Kf: importing the
    # CLI and building its parser must not make them
    script = (
        "import phenkf.cli as cli\n"
        "from phenkf.extremal_search import _transfer_constants\n"
        "cli.build_parser()\n"
        "print('cached:', _transfer_constants.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "cached: 0"


def test_import_needs_no_dataclasses():
    # every record type is a NamedTuple: importing the CLI and building its
    # parser pulls in neither dataclasses nor the inspect module it imports
    script = ("import sys\n"
              "import phenkf.cli\n"
              "phenkf.cli.build_parser()\n"
              "print('loaded:', sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"


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


# (check name in phenkf.cli, argv, whether a call is a sample rather than the
# unit or fixed check); the fixed Lemma 4 pair is the only one with str marks
SAMPLED_VERDICTS = {
    "lemma4": ("verify_lemma4", ["verify", "lemma4", "--samples", "6", "--seed", "3"],
               lambda pair, **kw: pair.a != "a"),
    "lemma5": ("check_lemma5", ["verify", "lemma5", "--n", "2", "--samples", "4"],
               lambda n, weights=None: weights is not None),
    "lemma6": ("check_lemma6", ["verify", "lemma6", "--n", "3", "--samples", "4"],
               lambda n, weights=None, code=None, cap=None: weights is not None),
}


def _fail_chosen(monkeypatch, target, fail_samples=(), fail_unit=False):
    """Patch the check `cli` runs for `target` so that the chosen sample
    draws (counted from 0) and, if asked, the unit check report FAIL; return
    the list that collects the failing sample reports in call order."""
    name, _, is_sample = SAMPLED_VERDICTS[target]
    real = getattr(cli, name)
    draws = itertools.count()
    failed = []

    def check(*args, **kw):
        rep = real(*args, **kw)
        if is_sample(*args, **kw):
            idx = next(draws)
            if idx not in fail_samples:
                return rep
            rep = rep._replace(passed=False)
            failed.append((idx, rep))
        elif fail_unit:
            rep = rep._replace(passed=False)
        return rep

    monkeypatch.setattr(cli, name, check)
    return failed


@pytest.mark.parametrize("target", sorted(SAMPLED_VERDICTS))
def test_failing_draws_are_reported_in_draw_order(target, monkeypatch, capsys):
    argv = SAMPLED_VERDICTS[target][1]
    failed = _fail_chosen(monkeypatch, target, fail_samples=(3, 1))
    assert cli.main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [i for i, _ in failed] == [1, 3]
    assert doc["failures"] == [{"sample": i, **rep.as_dict()} for i, rep in failed]
    assert doc["pass"] is False

    _fail_chosen(monkeypatch, target, fail_samples=(3, 1))
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL"
    assert lines[-2].endswith("failures: 2")


@pytest.mark.parametrize("target, digest", [
    ("lemma4", "9428a9fa3aebbf0263e3f201530f1e59551bf6f40893c26404eca8d5e3bf358f"),
    ("lemma5", "4f74d3909cc976603ae9f59a6f2216b630c6b21808a4bcb5179e7105f6db89ab"),
    ("lemma6", "2669e1e604e17000c1d119f0a3758a6d86f920b57ca845e910b67cba7e6417a0"),
])
def test_failing_draws_match_golden_digest(target, digest, monkeypatch, capsys):
    # sha256 of the json report with draws 1 and 3 failing: the bytes each
    # failing record is written as (a Lemma 4 check, a Lemma 5 report, a
    # Lemma 6 report with its instances), which the test above reads back
    # only through the record's own as_dict
    _fail_chosen(monkeypatch, target, fail_samples=(1, 3))
    assert cli.main(SAMPLED_VERDICTS[target][1] + ["--format", "json"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("target", sorted(SAMPLED_VERDICTS))
def test_failing_unit_check_alone_fails_the_verdict(target, monkeypatch, capsys):
    argv = SAMPLED_VERDICTS[target][1]
    _fail_chosen(monkeypatch, target, fail_unit=True)
    assert cli.main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    assert doc["pass"] is False

    _fail_chosen(monkeypatch, target, fail_unit=True)
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL"
    assert lines[-2].endswith("failures: 0")


def _options(parser):
    """{option string: (default, required)} of a parser's own options, and
    the choices of --format."""
    return {opt: (action.default, action.required) + ((action.choices,) if action.choices else ())
            for action in parser._actions
            for opt in action.option_strings if opt not in ("-h", "--help")}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


ALL_FORMATS = {"--format": ("text", False, ("text", "json", "csv"))}
TEXT_JSON = {"--format": ("text", False, ("text", "json"))}
CODE = {"--code": (None, True)}
N_CAP = {"--n": (None, True), "--cap": (2187, False)}
N_CAP_JOBS = {**N_CAP, "--jobs": (1, False)}
SAMPLES_SEED = {"--samples": (5, False), "--seed": (1729, False)}
FLAG_VOCABULARY = {
    "kf": {**CODE, "--sums": (False, False), "--matrix": (False, False),
           "--approx": (False, False), **ALL_FORMATS},
    "enumerate": {**N_CAP, "--canonical": (False, False), **ALL_FORMATS},
    "extrema": {**N_CAP_JOBS, "--approx": (False, False), **ALL_FORMATS},
    "verify lemma4": {**SAMPLES_SEED, "--samples": (100, False), "--max-vertices": (8, False), **TEXT_JSON},
    "verify lemma5": {"--n": (None, True), **SAMPLES_SEED, **TEXT_JSON},
    "verify lemma6": {**N_CAP, **SAMPLES_SEED, **TEXT_JSON},
    "verify theorem1": {**N_CAP_JOBS, **TEXT_JSON},
    "verify conjecture": {**N_CAP_JOBS, **TEXT_JSON},
    "verify hexagon": {"--r": (None, True), **TEXT_JSON},
    "reduce": {**CODE, "--trace": (False, False), **TEXT_JSON},
    "export-dot": CODE,
}


def test_flag_vocabulary():
    # every subcommand's option strings, defaults, required flags and formats:
    # --cap on the commands that list every code, --jobs only on the
    # exhaustive commands, --samples/--seed only on
    # the lemma targets, --max-vertices only on lemma4, --code alone on
    # kf, reduce and export-dot
    commands = {}
    for name, sub in _subparsers(cli.build_parser()).items():
        if name == "verify":
            commands.update({f"verify {t}": p for t, p in _subparsers(sub).items()})
        else:
            commands[name] = sub
    assert {name: _options(p) for name, p in commands.items()} == FLAG_VOCABULARY


CODE_COMMANDS = [name for name, sub in _subparsers(cli.build_parser()).items() if "--code" in _options(sub)]


@pytest.mark.parametrize("command", CODE_COMMANDS)
def test_every_code_command_bounds_its_chain(command):
    # one argv word holds about 131 000 letters, so each command that builds
    # a chain from --code refuses a long one at once, before building it
    proc = run_cli(command, "--code", "0" * 130000, check=False, timeout=2)
    assert proc.returncode == 2
    assert "takes at most" in proc.stderr and "hexagons, got n=130002" in proc.stderr
    assert proc.stdout == ""


README_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _readme_examples():
    """(argv, shown stdout) of each `$ phenkf ...` line in the README's
    fenced blocks: the lines up to the next `$` line or the block's end."""
    for _, block in README_BLOCKS:
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, shown = example.partition("\n")
            if command.startswith("$ phenkf "):
                yield pytest.param(shlex.split(command)[2:], shown, id=command[9:])


@pytest.mark.parametrize("argv, shown", _readme_examples())
def test_readme_examples_print_what_they_show(argv, shown, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == shown


def test_readme_library_block_runs():
    # and binds kf to the Fraction its comment shows
    (block,) = [text for lang, text in README_BLOCKS if lang == "python"]
    names = {}
    exec(block, names)
    (shown,) = re.findall(r"^kf = .*# (Fraction\(.*\))$", block, re.M)
    assert names["kf"] == eval(shown, names)
