"""Acceptance suite: one check per release criterion.

Every comparison is exact (Fraction equality, no tolerances).  Each test
prints a single summary line so a full run reads as a checklist.
"""

import itertools
import random
import time
from fractions import Fraction

from helpers import after_op, path_network, random_network
from phenkf.chain_model import ChainCode, enumerate_words, helicene, linear
from phenkf.extremal_search import (
    DEFAULT_SEED,
    check_lemma5,
    check_lemma6,
    junction_squares,
    random_chain_weights,
    random_terminal_weights,
    verify_conjecture,
    verify_kink_flip,
    verify_theorem1,
    weighted_hexagon_check,
)
from phenkf.resistance_engine import (
    ResistanceNetwork,
    delta_y,
    effective_resistance,
    kirchhoff_index,
    parallel_reduce,
    resistance_matrix,
    series_reduce,
    star_mesh_eliminate,
)
from phenkf.st_isomer import STPair, lemma4_delta, random_st_pair, verify_lemma4


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} ({detail})", flush=True)


def applicable_steps(net: ResistanceNetwork):
    """All sites where one of the four local reductions applies."""
    for v in net.vertices:
        if net.degree(v) == 2 and len(set(net.neighbors(v))) == 2:
            yield "series", lambda v=v: after_op(series_reduce, net, v)
    seen = set()
    for e in net.edges:
        key = (e.u, e.v)
        if key not in seen and len(net.edges_between(e.u, e.v)) >= 2:
            seen.add(key)
            yield "parallel", lambda e=e: after_op(parallel_reduce, net, e.u, e.v)
    for x, y, z in itertools.combinations(net.vertices, 3):
        if all(len(net.edges_between(u, v)) == 1
               for u, v in ((x, y), (y, z), (x, z))):
            # the vertices are ints, so the hub's name is new
            yield "delta_y", lambda x=x, y=y, z=z: after_op(delta_y, net, x, y, z, "hub")
    for v in net.vertices:
        yield "star_mesh", lambda v=v: after_op(star_mesh_eliminate, net, v)


def test_criterion_1_reduction_soundness():
    started = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    graphs = 0
    steps = 0
    ok = True
    for _ in range(200):
        net = random_network(rng, max_vertices=12)
        graphs += 1
        before = resistance_matrix(net)
        for _, apply_step in applicable_steps(net):
            out = apply_step()
            steps += 1
            survivors = [v for v in out.vertices if v in set(net.vertices)]
            if out.num_vertices < 2:
                continue
            after = resistance_matrix(out)
            for u, v in itertools.combinations(survivors, 2):
                if after.resistance(u, v) != before.resistance(u, v):
                    ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30
    report(1, ok, f"reduction soundness, {graphs} graphs, {steps} steps, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_criterion_2_bridge_difference_identity():
    started = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    failures = 0
    for _ in range(100):
        if not verify_lemma4(random_st_pair(rng, max_vertices=8)).passed:
            failures += 1
    fixed = STPair(
        path_network(["a", "l", "m"]), "a", "l",
        path_network(["b", "k", "p"]), "b", "k",
    )
    chk = verify_lemma4(fixed)
    fixed_ok = (
        chk.passed
        and chk.kf_s == Fraction(83, 4)
        and chk.kf_t == 21
        and lemma4_delta(fixed) == Fraction(-1, 4)
    )
    elapsed = time.monotonic() - started
    ok = failures == 0 and fixed_ok and elapsed < 30
    report(2, ok, f"difference identity, 100 random pairs + fixed instance, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_criterion_3_extremal_classes():
    started = time.monotonic()
    ok = True
    for n in range(3, 8):
        rep = verify_conjecture(n)
        expected_min = {c.word for c in helicene(n).orbit()}
        ok = ok and rep.passed
        ok = ok and {c.word for c in rep.min_codes} == expected_min
        ok = ok and [c.word for c in rep.max_codes] == [linear(n).word]
        ok = ok and rep.min_kf < rep.max_kf
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    report(3, ok, f"extremal classes for n=3..7, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_4_minimizers_all_kink():
    ok = True
    for n in range(3, 8):
        rep = verify_theorem1(n)
        ok = ok and rep.passed and rep.violations == ()
    report(4, ok, "every minimizer is all-kink for n=3..7")
    assert ok


def test_criterion_5_kink_flip_monotonicity():
    instances = 0
    ok = True
    for n in range(3, 9):
        for code in enumerate_words(n):
            if not code.is_all_kink():
                continue
            for square in junction_squares(code):
                rep = verify_kink_flip(code, square)
                instances += 1
                ok = ok and rep.passed and rep.at_junction
                ok = ok and rep.decrease_ok and rep.identity_ok
                ok = ok and rep.kf_original - rep.kf_flipped == rep.delta_formula
    ok = ok and instances > 0
    report(5, ok, f"strict decrease at every (0,2) junction, {instances} flips, n=3..8")
    assert ok


def test_criterion_6_terminal_inequalities():
    started = time.monotonic()
    ok = True
    checked = 0
    for n in range(1, 7):
        rep = check_lemma5(n)
        ok = ok and rep.passed and rep.closed_form_ok is True
        checked += 1
    for n in range(2, 7):
        rep6 = check_lemma6(n)
        ok = ok and rep6.passed
        checked += len(rep6.instances)
    rng = random.Random(DEFAULT_SEED)
    sizes = itertools.cycle(range(1, 7))
    for _ in range(50):
        n = next(sizes)
        rep = check_lemma5(n, random_terminal_weights(n, rng))
        ok = ok and rep.passed
        checked += 1
    sizes = itertools.cycle(range(2, 7))
    for _ in range(50):
        n = next(sizes)
        entries = tuple(rng.randrange(3) for _ in range(n - 2))
        code = ChainCode(n, entries)
        rep6 = check_lemma6(n, weights=random_chain_weights(code, rng), code=code)
        ok = ok and rep6.passed
        checked += 1
    elapsed = time.monotonic() - started
    report(6, ok, f"terminal inequalities, {checked} instances incl. 100 random, {elapsed:.1f}s")
    assert ok


def test_criterion_7_weighted_hexagon():
    ok = True
    for r in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
        rep = weighted_hexagon_check(r)
        ok = ok and rep.passed
        ok = ok and rep.difference == (2 * r - 2) / (r + 5)
        ok = ok and (rep.difference < 0) == (r < 1)
    report(7, ok, "vertex-sum difference formula at four weights")
    assert ok


def test_criterion_8_baseline_values():
    c6 = ResistanceNetwork([(i, (i + 1) % 6, Fraction(1)) for i in range(6)])
    c4 = ResistanceNetwork([(i, (i + 1) % 4, Fraction(1)) for i in range(4)])
    ok = kirchhoff_index(c6) == Fraction(35, 2)
    ok = ok and kirchhoff_index(path_network([0, 1, 2])) == 4
    ok = ok and effective_resistance(c4, 0, 1) == Fraction(3, 4)
    rng = random.Random(DEFAULT_SEED)
    graphs = 0
    for _ in range(50):
        net = random_network(rng, max_vertices=10)
        graphs += 1
        matrix = resistance_matrix(net)
        for u, v in itertools.combinations(net.vertices, 2):
            ok = ok and matrix.resistance(u, v) == effective_resistance(net, u, v)
    report(8, ok, f"reference constants + matrix vs per-pair solves on {graphs} graphs")
    assert ok
