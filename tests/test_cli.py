"""End-to-end tests of the command line interface.

Every CLI run is a subprocess that imports phenkf from this checkout's
``src`` directory, whatever the caller's ``PYTHONPATH`` or installed copy,
and that sees ``PHENKF_MAX_CODES`` only when a test sets it.
"""

import argparse
import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phenkf.cli as cli

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
    # refused before any chain is built; n = 225 itself takes about 14 s
    proc = run_cli("verify", "lemma5", "--n", "226", check=False, timeout=2)
    assert proc.returncode == 2
    assert "verify lemma5 takes at most 225 hexagons, got n=226" in proc.stderr
    assert proc.stdout == ""


def test_reduce_refuses_chains_past_its_bound():
    # refused right after parsing; n = 1000 itself takes about 5 s in json
    proc = run_cli("reduce", "--code", "0" * 999, "--trace", check=False, timeout=2)
    assert proc.returncode == 2
    assert "reduce takes at most 1000 hexagons, got n=1001" in proc.stderr
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop(CAP_ENV, None)
    proc = subprocess.run([sys.executable, "-c", launcher, *CLI, *args], capture_output=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1]) * 1024, proc.stdout  # ru_maxrss is in KiB on Linux


def test_reduce_json_streams_its_output():
    # the JSON text is written as it is encoded, never held whole: peak RSS
    # rises over a trivial command's by about 2x the output (steps' dicts),
    # where building the text first took about 5x
    base, _ = _peak_rss_and_stdout("kf", "--code", "n=1")
    peak, out = _peak_rss_and_stdout("reduce", "--code", "0" * 498, "--trace", "--format", "json")
    assert json.loads(out)["code"] == {"n": 500, "w": "0" * 498}
    size = len(out)  # about 6.7 MB
    assert peak - base < 3 * size


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
    (("verify", "lemma6", "--n", "7"), "json", "b1fd18b6255b4f427cc36ecae48e38455849db2af9b664a30ec9c5532669dd6a"),
    (("kf", "--code", "0" * 298), "text", "bd58abefb79604359b0e8fbd34acdcb5e9df8826706e334dc9fd3dc34e3b7acb"),
    (("kf", "--code", "1" * 298), "text", "52609214f7e9bfd85ee089e2299e396b575a19a820b10dafb2595948756429b2"),
], ids=["lemma5", "lemma6", "lemma4", "lemma5-n20", "lemma4-text", "lemma5-text", "lemma6-text",
        "theorem1-text", "theorem1-json", "conjecture-text", "conjecture-json", "hexagon-text",
        "hexagon-json", "extrema-n9-csv", "lemma6-n7-json", "helicene300-text", "linear300-text"])
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "cached: 0"


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
               lambda n, weights=None, code=None: weights is not None),
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
            rep = dataclasses.replace(rep, passed=False)
            failed.append((idx, rep))
        elif fail_unit:
            rep = dataclasses.replace(rep, passed=False)
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
CODE_N = {"--code": (None, True), "--n": (None, False)}
N_CAP_JOBS = {"--n": (None, True), "--cap": (None, False), "--jobs": (1, False)}
SAMPLES_SEED = {"--samples": (5, False), "--seed": (1729, False)}
FLAG_VOCABULARY = {
    "kf": {**CODE_N, "--sums": (False, False), "--matrix": (False, False),
           "--approx": (False, False), **ALL_FORMATS},
    "enumerate": {"--n": (None, True), "--canonical": (False, False), **ALL_FORMATS},
    "extrema": {**N_CAP_JOBS, "--approx": (False, False), **ALL_FORMATS},
    "verify lemma4": {**SAMPLES_SEED, "--samples": (100, False), "--max-vertices": (8, False), **TEXT_JSON},
    "verify lemma5": {"--n": (None, True), **SAMPLES_SEED, **TEXT_JSON},
    "verify lemma6": {"--n": (None, True), **SAMPLES_SEED, **TEXT_JSON},
    "verify theorem1": {**N_CAP_JOBS, **TEXT_JSON},
    "verify conjecture": {**N_CAP_JOBS, **TEXT_JSON},
    "verify hexagon": {"--r": (None, True), **TEXT_JSON},
    "reduce": {**CODE_N, "--trace": (False, False), **TEXT_JSON},
    "export-dot": CODE_N,
}


def test_flag_vocabulary():
    # every subcommand's option strings, defaults, required flags and formats:
    # --cap/--jobs only on the exhaustive commands, --samples/--seed only on
    # the lemma targets, --max-vertices only on lemma4, --code with an
    # optional --n on kf, reduce and export-dot
    commands = {}
    for name, sub in _subparsers(cli.build_parser()).items():
        if name == "verify":
            commands.update({f"verify {t}": p for t, p in _subparsers(sub).items()})
        else:
            commands[name] = sub
    assert {name: _options(p) for name, p in commands.items()} == FLAG_VOCABULARY
