"""Benchmark workloads: the argv each one passes to ``phenkf.cli.main`` and
the checks its outputs must pass.

The workload seed picks the random chain codes and the ``--seed`` of the
lemma commands; the program receives only the generated argv.  Every check
here is independent of phenkf (stdlib only): exact rationals are re-read
from the printed text and compared with ``fractions.Fraction``.

Two gates apply to every command:

* the digest gate: a command whose argv was recorded in
  ``expected_digests.json`` (all commands of the default seed, so every
  seed-independent command on any seed) must reproduce the recorded exit
  code and stdout SHA-256 exactly;
* the workload's own checks: exit code 0, the ``PASS`` line of ``verify``
  commands, and structural and cross-command invariants of the numbers.
"""

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1729
DIGESTS = Path(__file__).with_name("expected_digests.json")


@dataclass(frozen=True)
class Command:
    argv: tuple
    label: str   # the per-command time this command's seconds add to
    codes: int   # chain codes (or chain instances) the command evaluates


@dataclass(frozen=True)
class Record:
    """One executed command: exit code, captured stdout and its time."""

    command: Command
    rc: object   # int exit code, or the exception text if main raised
    stdout: str
    seconds: float

    @property
    def sha256(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def random_word(tag, seed, n):
    """A seeded random code word for a chain with n hexagons."""
    rng = random.Random(f"{tag}:{seed}")
    return "".join(rng.choice("012") for _ in range(n - 2))


def _fraction(text):
    return Fraction(text.strip())


def _words(length):
    return ["".join(w) for w in itertools.product("012", repeat=length)]


def _canonical(word):
    flip = word.translate(str.maketrans("02", "20"))
    return min(word, word[::-1], flip, flip[::-1])


def _lines(record):
    return record.stdout.splitlines()


def _field(record, key):
    """The value of the first ``key: value`` line of a text output."""
    for line in _lines(record):
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    raise ValueError(f"no {key!r} line")


# ---------------------------------------------------------------------------
# exhaustive


def _exhaustive_commands(seed):
    return [
        Command(("extrema", "--n", "7", "--format", "csv", "--jobs", "1"), "extrema_s", 243),
        Command(("verify", "conjecture", "--n", "7", "--jobs", "1"), "conjecture_s", 243),
    ]


def _check_exhaustive(records):
    extrema, conjecture = records
    rows = [line.split(",") for line in _lines(extrema)]
    if rows[0] != "n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max".split(","):
        raise ValueError("extrema: wrong CSV header")
    rows = rows[1:]
    if [r[1] for r in rows] != _words(5):
        raise ValueError("extrema: codes are not every word of length 5 in order")
    kfs = {}
    for n, word, canonical, num, den, kink, is_min, is_max in rows:
        if n != "7" or canonical != _canonical(word):
            raise ValueError(f"extrema: bad n or canonical form in row {word}")
        if kink != str("1" not in word).lower():
            raise ValueError(f"extrema: bad all-kink flag in row {word}")
        kf = kfs[word] = Fraction(int(num), int(den))
        if kf.denominator != int(den):
            raise ValueError(f"extrema: Kf of {word} is not in lowest terms")
    lo, hi = min(kfs.values()), max(kfs.values())
    flagged_min = {r[1] for r in rows if r[6] == "true"}
    flagged_max = {r[1] for r in rows if r[7] == "true"}
    if flagged_min != {w for w, kf in kfs.items() if kf == lo} or flagged_min != {"00000", "22222"}:
        raise ValueError(f"extrema: minimum class {sorted(flagged_min)}")
    if flagged_max != {w for w, kf in kfs.items() if kf == hi} or flagged_max != {"11111"}:
        raise ValueError(f"extrema: maximum class {sorted(flagged_max)}")
    if _lines(conjecture)[-1] != "PASS":
        raise ValueError("conjecture: no PASS line")
    min_kf, min_class = _field(conjecture, "min kf").split("  class: ")
    max_kf, max_class = _field(conjecture, "max kf").split("  class: ")
    if (_fraction(min_kf), min_class) != (lo, "00000 22222"):
        raise ValueError("conjecture: minimum disagrees with extrema")
    if (_fraction(max_kf), max_class) != (hi, "11111"):
        raise ValueError("conjecture: maximum disagrees with extrema")


# ---------------------------------------------------------------------------
# long-chain


def _long_chain_commands(seed):
    n = 30
    return [Command(("kf", "--code", word), "kf_s", 1)
            for word in ("0" * (n - 2), "1" * (n - 2), random_word("long-chain", seed, n))]


def _check_long_chain(records):
    kfs = []
    for record in records:
        word = record.command.argv[2]
        if _field(record, "code") != f"n=30 w={word}":
            raise ValueError(f"kf {word}: wrong code line")
        if (_field(record, "vertices"), _field(record, "edges")) != ("180", "238"):
            raise ValueError(f"kf {word}: wrong vertex or edge count")
        kfs.append(_fraction(_field(record, "kf")))
    helicene, straight, other = kfs
    # the paper's extremal classes: helicene is the minimum, linear the maximum
    if not helicene < straight or not helicene <= other <= straight:
        raise ValueError("kf: random chain outside [helicene, linear]")


# ---------------------------------------------------------------------------
# all-pairs


def _all_pairs_commands(seed):
    n = 12
    return [Command(("kf", "--sums", "--matrix", "--format", "json", "--code", word), "matrix_s", 1)
            for word in ("0" * (n - 2), random_word("all-pairs", seed, n))]


def _check_all_pairs(records):
    kfs = []
    for record in records:
        word = record.command.argv[-1]
        out = json.loads(record.stdout)
        if out["code"] != {"n": 12, "w": word} or (out["vertex_count"], out["edge_count"]) != (72, 94):
            raise ValueError(f"matrix {word}: wrong code or size")
        order = out["matrix"]["order"]
        r = [[_fraction(x) for x in row] for row in out["matrix"]["r"]]
        if len(order) != 72 or any(len(row) != 72 for row in r):
            raise ValueError(f"matrix {word}: not 72 x 72")
        for i, j in itertools.combinations(range(72), 2):
            if r[i][j] != r[j][i] or r[i][j] <= 0:
                raise ValueError(f"matrix {word}: not symmetric positive at ({i}, {j})")
        if any(r[i][i] != 0 for i in range(72)):
            raise ValueError(f"matrix {word}: nonzero diagonal")
        sums = {v: _fraction(x) for v, x in out["per_vertex_sums"].items()}
        if sums != {str(v): sum(row) for v, row in zip(order, r)}:
            raise ValueError(f"matrix {word}: row sums disagree with per-vertex sums")
        kf = _fraction(out["kf"])
        if kf != sum(sums.values()) / 2 or kf != Fraction(out["kf_num"], out["kf_den"]):
            raise ValueError(f"matrix {word}: Kf disagrees with the matrix")
        kfs.append(kf)
    if not kfs[0] <= kfs[1]:
        raise ValueError("matrix: random chain below the helicene minimum")


# ---------------------------------------------------------------------------
# lemma-checks


def _lemma_commands(seed):
    s = str(seed)
    return [
        Command(("verify", "lemma5", "--n", "6", "--seed", s), "lemma5_s", 6),
        Command(("verify", "lemma6", "--n", "6", "--seed", s), "lemma6_s", 86),
        Command(("verify", "lemma4", "--seed", s), "lemma4_s", 0),
    ]


def _check_lemmas(records):
    lemma5, lemma6, lemma4 = records
    seed = lemma5.command.argv[-1]
    for record in records:
        if _lines(record)[-1] != "PASS":
            raise ValueError(f"{record.command.argv[1]}: no PASS line")
    for record in (lemma5, lemma6):
        if _field(record, "random samples") != f"5 (seed {seed}), failures: 0":
            raise ValueError(f"{record.command.argv[1]}: wrong sample line")
    steps = _field(lemma5, "steps")
    if not (steps.startswith("42, per-step preservation: True,") and steps.endswith("in (0,1): True")
            and _field(lemma5, "unit weights").endswith(": True")):
        raise ValueError("lemma5: wrong unit-weight or reduction summary")
    if _field(lemma6, "unit weights") != "81 chains checked, pass: True":
        raise ValueError("lemma6: wrong unit-weight line")
    if _field(lemma4, "random samples") != f"100 (seed {seed}), failures: 0":
        raise ValueError("lemma4: wrong sample line")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: object  # seed -> list of Command
    check: object     # list of Record, one per command -> raises ValueError


WORKLOADS = {w.name: w for w in (
    Workload("exhaustive",
             "243 codes with 42 vertices each, twice: many medium dense Kf solves plus "
             "per-code overhead; the transfer engine, trie and orbit reuse show here",
             _exhaustive_commands, _check_exhaustive),
    Workload("long-chain",
             "Kf of three 180-vertex chains: a few huge solves where big-integer growth "
             "dominates; O(n) Kf and banded elimination show, per-code overhead cuts do not",
             _long_chain_commands, _check_long_chain),
    Workload("all-pairs",
             "full resistance matrix and sums of two 72-vertex chains: the all-pairs solver "
             "path and the only real formatting load (~5k rationals, ~225 KB per command)",
             _all_pairs_commands, _check_all_pairs),
    Workload("lemma-checks",
             "lemma 5, 6 and 4 verifiers: targeted rational solves and reduction replay; "
             "bypasses the Kf path, so sparse elimination moves it and the transfer engine not",
             _lemma_commands, _check_lemmas),
)}


def load_digests(path=DIGESTS):
    return json.loads(path.read_text())


def argv_key(argv):
    return " ".join(argv)


def digest_problems(record, digests):
    """Exit-code and digest-gate failures of one command."""
    found = []
    if record.rc != 0:
        found.append(f"exit code {record.rc!r}")
    expected = digests.get(argv_key(record.command.argv))
    if expected is not None and (record.rc, record.sha256) != (expected["rc"], expected["sha256"]):
        found.append("stdout or exit code differs from the recorded digest")
    return found


def problems(workload, records, digests):
    """Failure reasons, one list per record; an empty list means it passed.

    A failed workload check marks every command of the pass, since it
    compares the commands with each other.
    """
    out = [digest_problems(record, digests) for record in records]
    if not any(out):
        try:
            workload.check(records)
        except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError) as exc:
            for found in out:
                found.append(f"check failed: {exc}")
    return out
