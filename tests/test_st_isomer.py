"""Tests for the two-bridge isomer construction and its Kf difference formula."""

import random
from fractions import Fraction

import pytest

from helpers import path_network
from phenkf import resistance_engine
from phenkf.resistance_engine import ResistanceNetwork, effective_resistance, kirchhoff_index, resistance_sum
from phenkf.st_isomer import (
    InvalidPairError,
    STPair,
    lemma4_delta,
    make_st_pair,
    random_connected_network,
    random_st_pair,
    verify_lemma4,
)


@pytest.fixture(name="p3_pair")
def p3_pair_fx() -> STPair:
    return STPair(
        path_network(["a", "l", "m"]), "a", "l",
        path_network(["b", "k", "p"]), "b", "k",
    )


def test_p3_reference_values(p3_pair):
    s, t = make_st_pair(p3_pair)
    assert kirchhoff_index(s) == Fraction(83, 4)
    assert kirchhoff_index(t) == 21
    assert lemma4_delta(p3_pair) == Fraction(-1, 4)


def test_bridge_wiring(p3_pair):
    s, t = make_st_pair(p3_pair)
    assert s.edges_between("a", "b") and s.edges_between("l", "k")
    assert t.edges_between("a", "k") and t.edges_between("b", "l")
    assert s.num_edges == t.num_edges == 6


def test_formula_matches_direct_difference(p3_pair):
    chk = verify_lemma4(p3_pair)
    assert chk.passed
    assert chk.lhs == chk.kf_s - chk.kf_t == chk.rhs


def _fraction_terms(comp, u, v):
    """(r(u), r(v), r(u, v)) as sums of dense-oracle Fractions, one per vertex."""
    return (sum((effective_resistance(comp, t, u) for t in comp.vertices), Fraction(0)),
            sum((effective_resistance(comp, t, v) for t in comp.vertices), Fraction(0)),
            effective_resistance(comp, u, v))


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_lemma4_delta_matches_the_fraction_sums(weighted):
    # the closed form divides summed numerators once per value; it must
    # equal the one from per-vertex Fractions, on integral factors and on
    # factors over the rationals
    rng = random.Random(23)
    for _ in range(25):
        pair = random_st_pair(rng)
        if weighted:
            pair = pair._replace(**{name: ResistanceNetwork(
                [(e.u, e.v, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for e in comp.edges], comp.vertices)
                for name, comp in (("comp_a", pair.comp_a), ("comp_b", pair.comp_b))})
        sum_a, sum_l, r_al = _fraction_terms(pair.comp_a, pair.a, pair.l)
        sum_b, sum_k, r_bk = _fraction_terms(pair.comp_b, pair.b, pair.k)
        assert lemma4_delta(pair) == (sum_l - sum_a) * (sum_b - sum_k) / (r_al + r_bk + 2)


def test_symmetric_components_give_zero():
    # marks relatable by an automorphism on each side: both wirings isomorphic
    pair = STPair(
        path_network(["m", "a", "l", "m2"]), "a", "l",
        path_network(["b", "k"]), "b", "k",
    )
    assert resistance_sum(pair.comp_a, "a") == resistance_sum(pair.comp_a, "l")
    assert lemma4_delta(pair) == 0
    s, t = make_st_pair(pair)
    assert kirchhoff_index(s) == kirchhoff_index(t)


def test_swapping_marks_negates_delta(p3_pair):
    swapped = STPair(p3_pair.comp_a, "l", "a", p3_pair.comp_b, "b", "k")
    assert lemma4_delta(swapped) == -lemma4_delta(p3_pair)


def test_pair_validation():
    P = path_network(["a", "l", "m"])
    Q = path_network(["b", "k", "p"])
    with pytest.raises(InvalidPairError):
        STPair(P, "a", "a", Q, "b", "k")
    with pytest.raises(InvalidPairError):
        STPair(P, "a", "zz", Q, "b", "k")
    with pytest.raises(InvalidPairError):
        STPair(P, "a", "l", P, "a", "l")  # vertex sets must be disjoint


def test_pair_checks_survive_the_namedtuple_builders(p3_pair):
    with pytest.raises(InvalidPairError, match="components share vertices"):
        p3_pair._replace(comp_b=p3_pair.comp_a, b="a", k="m")
    with pytest.raises(InvalidPairError, match="must differ"):
        STPair._make((*p3_pair[:3], p3_pair.comp_b, "b", "b"))
    assert STPair._make(p3_pair) == p3_pair


def test_random_connected_network_is_connected():
    rng = random.Random(5)
    for _ in range(20):
        net = random_connected_network(rng, max_vertices=8)
        assert net.is_connected()
        assert 2 <= net.num_vertices <= 8


def test_random_pairs_satisfy_identity():
    rng = random.Random(1729)
    for _ in range(20):
        pair = random_st_pair(rng, max_vertices=8)
        chk = verify_lemma4(pair)
        assert chk.passed
        assert chk.lhs == chk.rhs


def test_verdict_never_reaches_the_dense_oracle(monkeypatch):
    def refuse(rows, rhs_list):
        raise AssertionError("the dense oracle ran on a verdict path")

    monkeypatch.setattr(resistance_engine, "_gauss_solve", refuse)
    rng = random.Random(1729)
    for _ in range(20):
        assert verify_lemma4(random_st_pair(rng, max_vertices=8)).passed
