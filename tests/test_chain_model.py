"""Tests for chain codes and the graph builders."""

import pytest

from phenkf.chain_model import (
    ChainCode,
    ChainCodeError,
    _hexagon_cells,
    build_chain,
    build_terminal_chain,
    chain_to_dot,
    corner_labels,
    enumerate_words,
    helicene,
    linear,
)
from phenkf.resistance_engine import InvalidNetworkError, ResistanceNetwork


# -- codes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, n, word",
    [
        ("020", 5, "020"),
        ("0,2,0", 5, "020"),
        ("w=020", 5, "020"),
        ("n=5 w=0,2,0", 5, "020"),
        ("n=1", 1, ""),
        ("n=2", 2, ""),
    ],
)
def test_parse_grammar(text, n, word):
    code = ChainCode.parse(text)
    assert code.n == n
    assert code.word == word


@pytest.mark.parametrize("text", ["3", "0,3", "n=4 w=0", "w=", "n=0", "02x", "n=2 w=1"])
def test_parse_rejects(text):
    with pytest.raises(ChainCodeError):
        ChainCode.parse(text)


def test_str_form_roundtrips():
    code = ChainCode(5, (0, 2, 1))
    assert str(code) == "n=5 w=021"
    assert ChainCode.parse(str(code)) == code


def test_code_validation():
    with pytest.raises(ChainCodeError):
        ChainCode(4, (0, 3))
    with pytest.raises(ChainCodeError):
        ChainCode(3, (0, 1))  # wrong length for n


def test_code_checks_survive_the_namedtuple_builders():
    with pytest.raises(ChainCodeError, match="entries must be 0, 1, or 2"):
        helicene(5)._replace(w=(0, 3, 0))
    with pytest.raises(ChainCodeError, match="needs 1 entries"):
        ChainCode._make((3, ()))
    code = ChainCode._make((3, [0]))
    assert code == (3, (0,)) and type(code.w) is tuple
    assert helicene(5)._replace(w=[2, 2, 2]).w == (2, 2, 2)


def test_symmetry_orbit():
    code = ChainCode(5, (0, 2, 1))
    orbit = {c.word for c in code.orbit()}
    assert orbit == {"021", "120", "201", "102"}
    assert code.canonical().word == "021"


def test_canonical_examples():
    assert ChainCode(5, (2, 2, 2)).canonical().word == "000"
    assert ChainCode(4, (1, 1)).canonical().word == "11"
    assert ChainCode(4, (1, 1)).is_canonical()
    assert not ChainCode(5, (2, 0, 0)).is_canonical()


def test_canonical_is_least_of_orbit():
    for n in range(1, 8):
        for code in enumerate_words(n):
            assert code.canonical() == code.orbit()[0]


def test_all_kink():
    assert ChainCode(4, (0, 2)).is_all_kink()
    assert not ChainCode(4, (0, 1)).is_all_kink()
    assert ChainCode(2, ()).is_all_kink()  # no interior hexagons at all


def test_named_families():
    assert helicene(5).word == "000"
    assert linear(5).word == "111"
    assert helicene(2) == linear(2)


def test_enumerate_words_counts():
    assert sum(1 for _ in enumerate_words(2)) == 1
    assert sum(1 for _ in enumerate_words(3)) == 3
    assert sum(1 for _ in enumerate_words(5)) == 27
    # orbit classes under reverse and complement
    counts = [sum(1 for _ in enumerate_words(n, canonical_only=True)) for n in (2, 3, 4, 5, 6)]
    assert counts == [1, 2, 4, 10, 25]


def test_full_entries_pads_terminal_hexagons():
    assert ChainCode(4, (0, 2)).full_entries() == (0, 0, 2, 0)


# -- ladder ------------------------------------------------------------------
# Both chain builders lay their cells over a ladder of columns; with no
# square turned into a hexagon, _hexagon_cells returns that plain ladder.


def ladder(m):
    edges, hexagons = _hexagon_cells(m + 1, (), ())
    assert hexagons == ()
    return ResistanceNetwork(edges)


def test_ladder_counts():
    for m in (1, 2, 5, 9):
        lad = ladder(m)
        assert lad.num_vertices == 2 * m + 2
        assert lad.num_edges == 3 * m + 1
    assert ladder(9).num_vertices == 20


def test_ladder_degrees():
    lad = ladder(3)
    degrees = sorted(lad.degree(v) for v in lad.vertices)
    assert degrees == [2, 2, 2, 2, 3, 3, 3, 3]


# -- phenylene chains --------------------------------------------------------


@pytest.mark.parametrize("word, n", [("", 1), ("", 2), ("0", 3), ("12", 4), ("020", 5)])
def test_chain_counts(word, n):
    code = ChainCode(n, tuple(int(t) for t in word))
    chain = build_chain(code)
    assert chain.network.num_vertices == 6 * n
    assert chain.network.num_edges == 8 * n - 2
    assert len(chain.hexagons) == n
    assert len(chain.square_corners) == n - 1


@pytest.mark.parametrize("word, n", [("", 2), ("1", 3), ("02", 4)])
def test_chain_degree_sequence(word, n):
    code = ChainCode(n, tuple(int(t) for t in word))
    net = build_chain(code).network
    deg3 = [v for v in net.vertices if net.degree(v) == 3]
    deg2 = [v for v in net.vertices if net.degree(v) == 2]
    assert len(deg3) == 4 * (n - 1)
    assert len(deg2) + len(deg3) == net.num_vertices


def test_chain_cells_are_cycles():
    chain = build_chain(ChainCode(4, (2, 0)))
    net = chain.network
    for hexagon in chain.hexagons:
        assert len(hexagon) == 6
        for u, v in zip(hexagon, hexagon[1:] + hexagon[:1]):
            assert len(net.edges_between(u, v)) == 1
    for a, b, k, l in chain.square_corners:
        for u, v in ((a, b), (b, k), (k, l), (l, a)):
            assert len(net.edges_between(u, v)) == 1


def test_chain_unit_weights():
    net = build_chain(ChainCode(3, (1,))).network
    assert all(e.r == 1 for e in net.edges)


def test_corner_labels():
    chain = build_chain(ChainCode(3, (0,)))
    labels = corner_labels(chain)
    a1, b1 = chain.square_corners[0][0], chain.square_corners[0][1]
    assert labels[a1] == "a1"
    assert labels[b1] == "b1"


def _landmark_chains():
    for n in range(2, 7):
        for code in enumerate_words(n):
            yield pytest.param(build_chain, code, id=f"chain-n{n}w{code.word}")
    for n in range(1, 5):
        yield pytest.param(build_terminal_chain, n, id=f"terminal-n{n}")


@pytest.mark.parametrize("build, arg", _landmark_chains())
def test_chain_landmarks(build, arg):
    chain = build(arg)
    net = chain.network
    last = chain.hexagons[-1]
    b, k = chain.unit_edge
    assert last[0] == b
    assert net.degree(chain.x) == 2 and net.degree(chain.y) == 2
    assert net.edges_between(chain.x, b)
    assert net.edges_between(chain.x, chain.y)
    assert [e.r for e in net.edges_between(b, k)] == [1]
    assert {b, k} in [{u, v} for u, v in zip(last, last[1:] + last[:1])]
    assert {chain.a1, chain.l1} <= set(chain.square_corners[0])
    assert len(net.edges_between(chain.a1, chain.l1)) == 1


def test_reweighted_guards_the_unit_edge_only_where_there_is_one():
    # one hexagon has no square, so no unit edge: any edge takes a weight
    hexagon = build_chain(ChainCode(1, ())).reweighted({(0, 1): 2})
    assert [e.r for e in hexagon.network.edges_between(0, 1)] == [2]
    chain = build_chain(ChainCode(2, ()))
    with pytest.raises(InvalidNetworkError, match="designated unit edge"):
        chain.reweighted({chain.unit_edge: 2})


def test_chain_to_dot():
    dot = "".join(chain_to_dot(build_chain(ChainCode(3, (0,)))))
    assert dot.startswith("graph")
    assert "a1" in dot


# -- square-first terminal chains --------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_terminal_chain_counts(n):
    chain = build_terminal_chain(n)
    assert chain.network.num_vertices == 6 * n + 2
    assert chain.network.num_edges == 8 * n + 1
    assert len(chain.hexagons) == n
    assert len(chain.square_corners) == n


def test_terminal_chain_n2_has_14_vertices():
    assert build_terminal_chain(2).network.num_vertices == 14


def test_terminal_chain_endpoints():
    chain = build_terminal_chain(2)
    net = chain.network
    assert net.degree(chain.x) == 2
    assert net.degree(chain.y) == 2
    b_n, k_n = chain.square_corners[-1][1], chain.square_corners[-1][2]
    assert len(net.edges_between(b_n, k_n)) == 1
    assert net.edges_between(b_n, k_n)[0].r == 1
    assert net.edges_between(chain.x, b_n) or net.edges_between(chain.x, k_n)


def test_terminal_chain_weights():
    chain = build_terminal_chain(1)
    a1 = chain.a1
    edge = chain.network.incident(a1)[0]
    weighted = build_terminal_chain(1, {(edge.u, edge.v): 3})
    assert weighted.network.edges_between(edge.u, edge.v)[0].r == 3
    b_n, k_n = chain.square_corners[-1][1], chain.square_corners[-1][2]
    with pytest.raises(ValueError):
        build_terminal_chain(1, {(b_n, k_n): 2})  # designated edge must stay unit


def test_terminal_chain_rejects_bad_n():
    with pytest.raises(ValueError):
        build_terminal_chain(0)
