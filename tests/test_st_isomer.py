"""Tests for the two-bridge isomer construction and its Kf difference formula."""

import random
from fractions import Fraction

import pytest

from helpers import path_network
from phenkf import resistance_engine
from phenkf.resistance_engine import kirchhoff_index, resistance_sum
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
