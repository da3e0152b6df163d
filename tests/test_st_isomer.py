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


def _resampled_network(rng, max_vertices, offset=0):
    """The draw that built and searched every resampled network, kept as
    an oracle: it makes the same rng calls in the same order."""
    while True:
        nv = rng.randint(2, max_vertices)
        edges = [(i, j) for i in range(offset, offset + nv) for j in range(i + 1, offset + nv)
                 if rng.random() < 0.45]
        net = ResistanceNetwork(edges, range(offset, offset + nv))
        if net.is_connected():
            return net


@pytest.mark.parametrize("seed", [1, 7, 1729])
@pytest.mark.parametrize("max_vertices", [2, 3, 8, 24, 40])
def test_random_pairs_match_the_resampling_draw(seed, max_vertices):
    rng, old = random.Random(seed), random.Random(seed)
    for _ in range(20):
        comp_a = _resampled_network(old, max_vertices, offset=0)
        comp_b = _resampled_network(old, max_vertices, offset=100)
        a, l = old.sample(list(comp_a.vertices), 2)
        b, k = old.sample(list(comp_b.vertices), 2)
        assert random_st_pair(rng, max_vertices) == STPair(comp_a, a, l, comp_b, b, k)
    assert rng.getstate() == old.getstate()


def test_random_draw_builds_only_the_accepted_network(monkeypatch):
    # a disconnected draw is refused on its pairs, before any network is
    # built: for verify lemma4's 100 default samples at seed 1729 the
    # resampling draw built 338 networks for 200 components
    built = []
    init = ResistanceNetwork.__init__

    def counting(self, edges, extra_vertices=()):
        built.append(self)
        init(self, edges, extra_vertices)

    monkeypatch.setattr(ResistanceNetwork, "__init__", counting)
    old = random.Random(1729)
    for _ in range(100):
        for comp in (_resampled_network(old, 8, 0), _resampled_network(old, 8, 100)):
            old.sample(list(comp.vertices), 2)
    assert len(built) == 338
    built.clear()
    rng = random.Random(1729)
    pairs = [random_st_pair(rng) for _ in range(100)]
    assert built == [comp for pair in pairs for comp in (pair.comp_a, pair.comp_b)]


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
