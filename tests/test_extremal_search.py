"""Tests for the extremal enumeration and the verification routines."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_delta, survivors
from phenkf.chain_model import (
    ChainCode,
    LabeledChain,
    build_chain,
    build_terminal_chain,
    enumerate_words,
    helicene,
    linear,
)
from phenkf.extremal_search import (
    SearchCapExceeded,
    _TREES,
    _at,
    _block,
    _scales,
    _transfer_constants,
    check_cap,
    check_lemma5,
    check_lemma6,
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
from phenkf import extremal_search, resistance_engine
from phenkf.resistance_engine import (
    Edge,
    NetworkError,
    ReductionTrace,
    ResistanceNetwork,
    _GroundedFactor,
    effective_resistance,
    grounded_resistances,
    kirchhoff_index,
    simplify_chain_circuit,
    step_preserves_resistances,
    terminal_resistances,
)
from phenkf.st_isomer import lemma4_delta


# -- enumeration and Kf ------------------------------------------------------


def test_enumerate_codes_counts():
    assert sum(1 for _ in enumerate_words(3)) == 3
    assert sum(1 for _ in enumerate_words(5)) == 27
    assert sum(1 for _ in enumerate_words(5, canonical_only=True)) == 10


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


def _factored_csv(n, kfs):
    """The extrema CSV of n hexagons, written from Kf values given per code."""
    lo, hi = min(kfs.values()), max(kfs.values())
    lines = ["n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max"]
    for code, kf in kfs.items():
        flags = (code.is_all_kink(), kf == lo, kf == hi)
        lines.append(",".join([str(n), code.word, code.canonical().word, str(kf.numerator),
                               str(kf.denominator), *(str(f).lower() for f in flags)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(1, 8))
def test_transfer_engine_matches_factorization(n):
    factored = {}
    for code in enumerate_words(n):
        net = build_chain(code).network
        factored[code] = kirchhoff_index(net)
        report = kf_of_code(code)
        assert report.kf == factored[code]
        assert (report.vertex_count, report.edge_count) == (net.num_vertices, net.num_edges)
    assert find_extrema(n).to_csv() == _factored_csv(n, factored)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=28))
def test_transfer_engine_matches_factorization_on_long_codes(word):
    code = ChainCode(len(word) + 2, tuple(word))
    assert kf_of_code(code).kf == kirchhoff_index(build_chain(code).network)


def test_transfer_resistance_depends_only_on_depth():
    # the engine reads rho, and each depth's R S off letter 0's block
    assert {_block(e)[0] for e in (0, 1, 2)} == {Fraction(17, 6)}
    c = _transfer_constants()
    assert c.blocks[0].r_next == c.blocks[1].r_next == c.blocks[2].r_next
    for s, s_next, r in _scales(30):
        assert {_at(block.r_next, s_next, _TREES * s) for block in c.blocks} == {c.den * r}


def _spanning_trees(net):
    """The spanning-tree count of a unit network: the product of the pivots
    of its grounded Laplacian."""
    tau = Fraction(1)
    for pivot in _GroundedFactor(net).pivots:
        tau *= pivot
    return tau


def test_transfer_scale_is_twice_the_spanning_tree_count():
    # S of a prefix of d + 1 hexagons must be 2 tau, whatever its letters
    levels = list(_scales(12))
    scales = [levels[0][0]] + [s_next for _, s_next, _ in levels]
    for depth, s in enumerate(scales):
        assert s == 2 * _spanning_trees(build_chain(helicene(depth + 1)).network)
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 5)
        code = ChainCode(n, tuple(rng.randint(0, 2) for _ in range(n - 2)))
        assert scales[n - 1] == 2 * _spanning_trees(build_chain(code).network)


def test_transfer_engine_refuses_a_wrong_scale(monkeypatch):
    # one scale off by one at depth 1 must make some step inexact
    scales = extremal_search._scales

    def tampered(steps):
        for depth, (s, s_next, r) in enumerate(scales(steps)):
            yield s, s_next + (depth == 1), r

    monkeypatch.setattr(extremal_search, "_scales", tampered)
    with pytest.raises(ArithmeticError):
        kf_of_code(helicene(6))
    with pytest.raises(ArithmeticError):
        find_extrema(5)
    with pytest.raises(ArithmeticError):
        check_lemma6(5)


def test_kf_of_codes_factors_only_small_blocks(monkeypatch):
    sizes = []
    factor = _GroundedFactor.__init__

    def counting(self, net, ground=None):
        sizes.append(net.num_vertices)
        factor(self, net, ground)

    monkeypatch.setattr(_GroundedFactor, "__init__", counting)
    _transfer_constants.cache_clear()
    find_extrema(7)
    kf_of_code(helicene(30))
    assert 1 <= len(sizes) <= 4
    assert max(sizes) <= 8


def test_kf_report_sums():
    report = kf_of_code(ChainCode(3, (1,)), with_sums=True)
    assert len(report.per_vertex_sums) == 18
    assert sum(report.per_vertex_sums.values()) == 2 * report.kf


def test_kf_constant_on_orbits():
    for code in enumerate_words(5, canonical_only=True):
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


def test_lemma6_refuses_reweighted_unit_edge():
    code = ChainCode(4, (2, 0))
    unit_edge = build_chain(code).unit_edge
    with pytest.raises(ValueError, match="designated unit edge"):
        check_lemma6(4, weights={unit_edge: 2}, code=code)


@pytest.mark.parametrize("n, seed", [(1, None), (2, None), (3, None), (3, 5)],
                         ids=["1", "2", "3", "3-weighted"])
def test_lemma5_values_match_dense_oracle(n, seed):
    weights = None if seed is None else random_terminal_weights(n, random.Random(seed))
    report = check_lemma5(n, weights)
    chain = build_terminal_chain(n, weights)
    assert (report.r_a1_x, report.r_a1_y, report.r_l1_x, report.r_l1_y) == tuple(
        effective_resistance(chain.network, u, t)
        for u in (chain.a1, chain.l1) for t in (chain.x, chain.y))


@pytest.mark.parametrize("n, code, seed", [
    (2, None, None), (3, None, None), (4, None, None), (4, ChainCode(4, (0, 1)), 5),
], ids=["2", "3", "4", "4-weighted"])
def test_lemma6_rows_match_dense_oracle(n, code, seed):
    weights = None if code is None else random_chain_weights(code, random.Random(seed))
    for inst in check_lemma6(n, weights, code).instances:
        chain = build_chain(inst.code)
        if weights:
            chain = chain.reweighted(weights)
        assert [u for u, _, _ in inst.resistances] == [
            u for u in chain.hexagons[0] if u not in (chain.a1, chain.l1)]
        for u, rx, ry in inst.resistances:
            assert rx == effective_resistance(chain.network, u, chain.x)
            assert ry == effective_resistance(chain.network, u, chain.y)


@pytest.mark.parametrize("n", range(2, 8))
def test_lemma6_engine_rows_match_factorization(n):
    # the unit report's rows come from the transfer engine; each must equal
    # the chain's own factorization: same vertices, same order, same values
    report = check_lemma6(n)
    assert [inst.code for inst in report.instances] == list(enumerate_words(n))
    for inst in report.instances:
        chain = build_chain(inst.code)
        rows = terminal_resistances(chain.network, chain.x, chain.y)
        checked = [u for u in chain.hexagons[0] if u not in (chain.a1, chain.l1)]
        assert inst.resistances == tuple((u, *rows[u]) for u in checked)
        assert inst.passed == all(rx < ry for _, rx, ry in inst.resistances)


def test_lemma6_engine_takes_terminals_from_chain_landmarks(monkeypatch):
    # with x and y swapped every checked vertex is closer to "y", so a route
    # that names the terminals itself instead of asking the chain would pass
    x, y = LabeledChain.x, LabeledChain.y
    monkeypatch.setattr(LabeledChain, "x", y)
    monkeypatch.setattr(LabeledChain, "y", x)
    for n in range(2, 6):
        report = check_lemma6(n)
        assert not report.passed
        assert not any(inst.passed for inst in report.instances)


def test_terminal_checks_factor_once_and_certify_steps_locally(monkeypatch):
    # unit lemma 6 factors no chain, only the engine's blocks of at most 8
    # vertices; a single-code terminal read is one factorization grounded at
    # x and one solve for the column at y.  Lemma 5 factors the whole chain
    # once for its rows and the final network once, whatever n: its steps
    # are certified by Kron reduction, with no factorization
    sizes, counts = [], {"solve": 0}
    factor, solve = _GroundedFactor.__init__, _GroundedFactor.solve

    def counting_factor(self, net, ground=None):
        sizes.append(net.num_vertices)
        factor(self, net, ground)

    def counting_solve(self, rhs):
        counts["solve"] += 1
        return solve(self, rhs)

    monkeypatch.setattr(_GroundedFactor, "__init__", counting_factor)
    monkeypatch.setattr(_GroundedFactor, "solve", counting_solve)
    _transfer_constants.cache_clear()
    assert check_lemma6(5).passed
    assert sizes and max(sizes) <= 8
    code = ChainCode(5, (0, 2, 1))
    sizes.clear()
    counts["solve"] = 0
    assert check_lemma6(5, random_chain_weights(code, random.Random(7)), code).passed
    assert (len(sizes), counts["solve"]) == (1, 1)
    for n in (3, 5):
        sizes.clear()
        counts["solve"] = 0
        report = check_lemma5(n)
        assert report.passed and report.step_count == 8 * n - 6
        assert (len(sizes), counts["solve"]) == (2, 1)


def _old_step_check(chain, network, r_a1_x, r_a1_y):
    """The whole-network check the certificate replaced, kept as an oracle."""
    held = grounded_resistances(network, chain.a1)
    return held[chain.x] == r_a1_x and held[chain.y] == r_a1_y


def _keep_outputs(monkeypatch):
    """Make the two ops the staged simplification runs keep, in order, the
    network each leaves in its trace; the list of them is returned."""
    outputs = []

    def keeping(op):
        def run(trace, *args, **kw):
            step = op(trace, *args, **kw)
            outputs.append(trace.network())
            return step
        return run

    for name in ("series_reduce", "delta_y"):
        monkeypatch.setattr(resistance_engine, name, keeping(getattr(resistance_engine, name)))
    return outputs


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (1, 2, 3, 4) for seed in (None, 11)])
def test_step_certificate_agrees_with_whole_network_check(monkeypatch, n, seed):
    weights = None if seed is None else random_terminal_weights(n, random.Random(seed))
    chain = build_terminal_chain(n, weights)
    r_a1_x, r_a1_y = (effective_resistance(chain.network, chain.a1, t) for t in (chain.x, chain.y))
    outputs = _keep_outputs(monkeypatch)
    _, trace = simplify_chain_circuit(chain)
    assert len(outputs) == len(trace)
    for step, before, after in zip(trace, [chain.network, *outputs], outputs):
        kept = survivors(step, before, after)
        assert step_preserves_resistances(step, kept)
        assert _old_step_check(chain, after, r_a1_x, r_a1_y)
        # one added weight off by one: both checks reject it
        for i, e in enumerate(step.added_edges):
            wrong = Edge(e.u, e.v, e.r + 1)
            bad_step = dataclasses.replace(
                step, added_edges=step.added_edges[:i] + (wrong,) + step.added_edges[i + 1:])
            edges = list(after.edges)
            edges.remove(e)
            bad_after = ResistanceNetwork(edges + [wrong], after.vertices)
            assert not step_preserves_resistances(bad_step, kept)
            assert not _old_step_check(chain, bad_after, r_a1_x, r_a1_y)


def _tamper(monkeypatch, name, target, rewrite):
    """Make the reduction op `name` pass its output at site `target` through
    `rewrite(before, after)` and apply the rewritten step to its trace, so
    that the reduction and its replay agree on the wrong network."""
    real = getattr(resistance_engine, name)

    def tampered(trace, *site, **kw):
        if site != target:
            return real(trace, *site, **kw)
        before = trace.network()
        scratch = ReductionTrace(before)
        step = real(scratch, *site, **kw)
        removed, added = edge_delta(before, rewrite(before, scratch.network()))
        return trace.apply(dataclasses.replace(step, removed_edges=removed, added_edges=added))

    monkeypatch.setattr(resistance_engine, name, tampered)


def _off_by_one(before, after):
    # the step's first added edge gets resistance r + 1
    _, added = edge_delta(before, after)
    e = added[0]
    edges = list(after.edges)
    edges.remove(e)
    return ResistanceNetwork(edges + [(e.u, e.v, e.r + 1)], after.vertices)


@pytest.mark.parametrize("name, kind, index", [
    ("series_reduce", "series", 0), ("series_reduce", "series", -1),
    ("delta_y", "delta-wye", 1), ("delta_y", "delta-wye", -1),
], ids=["first-series", "last-series", "second-delta-wye", "last-delta-wye"])
def test_lemma5_fails_on_a_wrong_reduction_weight(monkeypatch, name, kind, index):
    _, trace = simplify_chain_circuit(build_terminal_chain(3))
    target = [s.site for s in trace if s.kind == kind][index]
    _tamper(monkeypatch, name, target, _off_by_one)
    report = check_lemma5(3)
    assert not report.steps_preserve_ok
    assert not report.passed


def test_lemma5_catches_a_step_that_keeps_the_terminal_values(monkeypatch):
    # when z2 is made, z1 becomes a degree-2 vertex on the pendant path
    # a1 - z1 - z2: moving it along the path keeps r(a1, x) and r(a1, y)
    # (and the closed form) but changes r(a1, z1).  The old whole-network
    # check on r(a1, x) and r(a1, y) passed every step; the certificate
    # rejects the step that moves z1
    chain = build_terminal_chain(3)

    def move_z1(before, after):
        p1 = after.edges_between(chain.a1, "z1")[0].r
        p2 = after.edges_between("z1", "z2")[0].r
        return after.reweighted({(chain.a1, "z1"): p1 + p2 / 2, ("z1", "z2"): p2 / 2})

    _, trace = simplify_chain_circuit(chain)
    target = next(s.site for s in trace if s.new_vertex == "z2")
    _tamper(monkeypatch, "delta_y", target, move_z1)

    r_a1_x, r_a1_y = (effective_resistance(chain.network, chain.a1, t) for t in (chain.x, chain.y))
    outputs = _keep_outputs(monkeypatch)
    _, trace = simplify_chain_circuit(chain)
    assert len(outputs) == len(trace)
    assert all(_old_step_check(chain, after, r_a1_x, r_a1_y) for after in outputs)
    moved = next(k for k, s in enumerate(trace) if s.new_vertex == "z2")
    with pytest.raises(NetworkError, match=f"replay refused step {moved}: "):
        trace.replay(chain.network)
    report = check_lemma5(3)
    assert report.inequalities_ok and report.star_range_ok and report.closed_form_ok
    assert not report.steps_preserve_ok
    assert not report.passed


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
