"""Tests for the extremal enumeration and the verification routines."""

import random
from fractions import Fraction

import pytest

from phenkf.chain_model import ChainCode, build_chain, build_terminal_chain, helicene, linear
from phenkf.extremal_search import (
    SearchCapExceeded,
    check_cap,
    check_lemma5,
    check_lemma6,
    enumerate_codes,
    find_extrema,
    flipped_code,
    junction_squares,
    kf_of_code,
    kink_flip,
    kink_flip_pair,
    random_chain_weights,
    random_terminal_weights,
    verify_conjecture,
    verify_kink_flip,
    verify_theorem1,
    weighted_hexagon_check,
)
from phenkf.resistance_engine import kirchhoff_index
from phenkf.st_isomer import lemma4_delta


# -- enumeration and Kf ------------------------------------------------------


def test_enumerate_codes_counts():
    assert sum(1 for _ in enumerate_codes(3)) == 3
    assert sum(1 for _ in enumerate_codes(5)) == 27
    assert sum(1 for _ in enumerate_codes(5, canonical_only=True)) == 10


@pytest.mark.parametrize(
    "n, word, expected",
    [
        (1, "", Fraction(35, 2)),
        (2, "", Fraction(1153, 11)),
        (5, "000", Fraction(116812111, 93122)),
        (5, "111", Fraction(123496015, 93122)),
    ],
)
def test_kf_reference_values(n, word, expected):
    code = ChainCode(n, tuple(int(t) for t in word))
    report = kf_of_code(code)
    assert report.kf == expected
    assert report.vertex_count == 6 * n
    assert report.edge_count == 8 * n - 2


def test_kf_report_sums():
    report = kf_of_code(ChainCode(3, (1,)), with_sums=True)
    assert len(report.per_vertex_sums) == 18
    assert sum(report.per_vertex_sums.values()) == 2 * report.kf


def test_kf_constant_on_orbits():
    for code in enumerate_codes(5, canonical_only=True):
        kf = kf_of_code(code).kf
        for image in code.orbit():
            assert kf_of_code(image).kf == kf


def test_kf_grows_with_length():
    for family in (helicene, linear):
        values = [kf_of_code(family(n)).kf for n in range(1, 6)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_find_extrema_n3():
    table = find_extrema(3)
    assert table.min_kf == Fraction(99465, 322)
    assert table.max_kf == Fraction(101769, 322)
    assert sorted(c.word for c in table.min_codes) == ["0", "2"]
    assert [c.word for c in table.max_codes] == ["1"]


def test_find_extrema_n4():
    table = find_extrema(4)
    assert table.min_kf == Fraction(1793378, 2651)
    assert table.max_kf == Fraction(1869410, 2651)
    assert sorted(c.word for c in table.min_codes) == ["00", "22"]
    assert [c.word for c in table.max_codes] == ["11"]


def test_extrema_csv_shape():
    csv = find_extrema(3).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max"
    assert len(lines) == 4
    assert lines[1] == "3,0,0,99465,322,true,true,false"


def test_parallel_jobs_match_serial():
    assert find_extrema(4, jobs=2).to_csv() == find_extrema(4, jobs=1).to_csv()


def test_cap_guard():
    with pytest.raises(SearchCapExceeded):
        check_cap(10, 100)
    with pytest.raises(SearchCapExceeded):
        find_extrema(10, cap=100)
    check_cap(5, 27)  # exactly at the cap is allowed
    with pytest.raises(SearchCapExceeded, match=r"n=12 needs 3\^10 codes but the cap is 100"):
        check_cap(12, 100)


# -- kink flips --------------------------------------------------------------


def test_flipped_code_complements_suffix():
    assert flipped_code(ChainCode(5, (0, 2, 0)), 2).word == "002"
    assert flipped_code(ChainCode(5, (0, 2, 0)), 3).word == "022"
    # the last square only re-attaches the terminal hexagon: same code
    assert flipped_code(ChainCode(5, (0, 2, 0)), 4).word == "020"


def test_flip_is_involution_on_codes():
    code = ChainCode(6, (0, 2, 0, 2))
    for i in (2, 3, 4):
        assert flipped_code(flipped_code(code, i), i) == code


def test_junction_squares():
    assert junction_squares(ChainCode(4, (0, 2))) == (2,)
    assert junction_squares(ChainCode(6, (0, 2, 0, 2))) == (2, 4)
    assert junction_squares(ChainCode(4, (2, 0))) == ()
    assert junction_squares(ChainCode(2, ())) == ()


def test_kink_flip_network():
    chain = build_chain(ChainCode(5, (0, 2, 0)))
    flipped = kink_flip(chain, 2)
    a, b, k, l = chain.square_corners[1]
    assert not flipped.edges_between(a, b)
    assert not flipped.edges_between(l, k)
    assert flipped.edges_between(a, k)
    assert flipped.edges_between(b, l)
    assert flipped.num_edges == chain.network.num_edges


def test_kink_flip_pair_splits_chain():
    chain = build_chain(ChainCode(5, (0, 2, 0)))
    pair = kink_flip_pair(chain, 2)
    total = pair.comp_a.num_vertices + pair.comp_b.num_vertices
    assert total == chain.network.num_vertices
    assert pair.comp_a.is_connected() and pair.comp_b.is_connected()


def test_verify_kink_flip_at_junction():
    report = verify_kink_flip(ChainCode(5, (0, 2, 0)), 2)
    assert report.passed
    assert report.at_junction
    assert report.decrease_ok
    assert report.identity_ok and report.reconstruction_ok and report.relabel_ok
    assert report.flipped.word == "002"
    assert report.kf_original - report.kf_flipped == report.delta_formula


def test_verify_kink_flip_off_junction_still_consistent():
    # no decrease requirement away from a (0, 2) junction, identity still holds
    report = verify_kink_flip(ChainCode(5, (2, 0, 0)), 2)
    assert not report.at_junction
    assert report.identity_ok and report.reconstruction_ok and report.relabel_ok
    assert report.passed


def test_kink_flip_delta_matches_formula():
    chain = build_chain(ChainCode(4, (0, 2)))
    pair = kink_flip_pair(chain, 2)
    flipped = kink_flip(chain, 2)
    direct = kirchhoff_index(chain.network) - kirchhoff_index(flipped)
    assert direct == lemma4_delta(pair)
    assert direct > 0


# -- terminal-resistance inequalities ----------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma5_unit_weights(n):
    report = check_lemma5(n)
    assert report.passed
    assert report.inequalities_ok and report.steps_preserve_ok and report.star_range_ok
    assert report.closed_form_ok is True
    assert report.step_count == 8 * n - 6
    assert 0 < report.r1 < 1


def test_lemma5_n2_reference_values():
    report = check_lemma5(2)
    assert report.r_a1_x == Fraction(1408, 505)
    assert report.r_a1_y == Fraction(1593, 505)
    assert report.r1 == Fraction(7, 22)


def test_lemma5_random_weights():
    rng = random.Random(97)
    for n in (1, 2, 3):
        weights = random_terminal_weights(n, rng)
        report = check_lemma5(n, weights)
        assert report.passed
        # weighted instances skip the unit-hexagon closed form unless unchanged
        assert report.closed_form_ok in (None, True)


def test_random_terminal_weights_keep_last_hexagon_unit():
    rng = random.Random(3)
    chain = build_terminal_chain(2, random_terminal_weights(2, rng))
    hexagon = chain.hexagons[-1]
    for u, v in zip(hexagon, hexagon[1:] + tuple([hexagon[0]])):
        assert chain.network.edges_between(u, v)[0].r == 1


@pytest.mark.parametrize("n", [2, 3])
def test_lemma6_unit_weights(n):
    report = check_lemma6(n)
    assert report.passed
    assert len(report.instances) == 3 ** max(n - 2, 0)
    for inst in report.instances:
        assert len(inst.resistances) == 4
        for _, rx, ry in inst.resistances:
            assert rx < ry


def test_lemma6_random_weights():
    rng = random.Random(13)
    code = ChainCode(4, (2, 0))
    report = check_lemma6(4, weights=random_chain_weights(code, rng), code=code)
    assert report.passed


def test_lemma6_argument_validation():
    with pytest.raises(ValueError):
        check_lemma6(1)
    with pytest.raises(ValueError):
        check_lemma6(4, weights={("a", "b"): 2})  # weights need an explicit code
    with pytest.raises(ValueError):
        check_lemma6(4, code=ChainCode(3, (0,)))


# -- hexagon formula and headline results ------------------------------------


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(1, 2), Fraction(-2, 11)),
        (Fraction(1, 10), Fraction(-2 * 9, 51)),
        (Fraction(1), Fraction(0)),
    ],
)
def test_weighted_hexagon_difference(r, expected):
    report = weighted_hexagon_check(r)
    assert report.passed
    assert report.difference == expected
    assert report.difference == (2 * r - 2) / (r + 5)
    assert report.difference == report.sum_a - report.sum_l


def test_weighted_hexagon_sign():
    assert weighted_hexagon_check(Fraction(9, 10)).difference < 0
    assert weighted_hexagon_check(Fraction(1)).difference == 0


def test_theorem1_small():
    report = verify_theorem1(4)
    assert report.passed
    assert report.violations == ()
    assert all(c.is_all_kink() for c in report.min_codes)


def test_conjecture_small():
    report = verify_conjecture(4)
    assert report.passed
    assert sorted(c.word for c in report.min_codes) == ["00", "22"]
    assert [c.word for c in report.max_codes] == ["11"]
    assert report.min_kf < report.max_kf
