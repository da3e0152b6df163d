"""Tests for networks, reduction steps, and the exact resistance solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import networks, path_network, random_network
from phenkf.chain_model import ChainCode, build_chain, build_terminal_chain, enumerate_words
from phenkf.resistance_engine import (
    _gauss_solve,
    ConnectivityError,
    InvalidNetworkError,
    NetworkError,
    NotReducibleError,
    ReductionTrace,
    ResistanceNetwork,
    delta_y,
    effective_resistance,
    format_edge_list,
    grounded_resistances,
    kirchhoff_index,
    network_to_dot,
    parallel_reduce,
    parse_edge_list,
    reduce_series_parallel,
    resistance_matrix,
    resistance_sum,
    resistance_sums,
    series_reduce,
    simplify_chain_circuit,
    star_mesh_eliminate,
)


def cycle(n: int) -> ResistanceNetwork:
    return ResistanceNetwork([(i, (i + 1) % n, Fraction(1)) for i in range(n)])


# -- network basics ----------------------------------------------------------


def test_network_rejects_self_loops_and_bad_weights():
    with pytest.raises(InvalidNetworkError):
        ResistanceNetwork([(0, 0, 1)])
    with pytest.raises(InvalidNetworkError):
        ResistanceNetwork([(0, 1, Fraction(-1))])
    with pytest.raises(InvalidNetworkError):
        ResistanceNetwork([(0, 1, 0)])


def test_network_accessors():
    net = ResistanceNetwork([("a", "b", 2), ("b", "c", 3), ("a", "b", 2)])
    assert net.num_vertices == 3
    assert net.num_edges == 3
    assert net.degree("b") == 3
    assert set(net.neighbors("b")) == {"a", "c"}
    assert len(net.edges_between("a", "b")) == 2
    assert net.conductance_between("a", "b") == 1
    assert net.is_connected()


def test_network_equality_ignores_edge_order():
    a = ResistanceNetwork([(0, 1, 1), (1, 2, 2)])
    b = ResistanceNetwork([(1, 2, 2), (0, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_isolated_vertex_support():
    net = ResistanceNetwork([(0, 1, 1)], extra_vertices=(7,))
    assert 7 in net.vertices
    assert not net.is_connected()


# -- local reductions --------------------------------------------------------


def test_series_two_units():
    net = path_network(["a", "b", "c"])
    out = series_reduce(net, "b")
    assert out.edges_between("a", "c")[0].r == 2


def test_series_adds_resistances():
    net = ResistanceNetwork([("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 3))])
    out = series_reduce(net, "b")
    assert out.edges_between("a", "c")[0].r == Fraction(5, 6)


def test_series_requires_degree_two():
    star = ResistanceNetwork([("c", i, 1) for i in range(3)])
    with pytest.raises(NotReducibleError):
        series_reduce(star, "c")


def test_parallel_two_edges():
    net = ResistanceNetwork([("a", "b", 2), ("a", "b", 3)])
    out = parallel_reduce(net, "a", "b")
    assert out.edges_between("a", "b")[0].r == Fraction(6, 5)


def test_parallel_three_units():
    # the whole bundle merges in one call
    net = ResistanceNetwork([("a", "b", 1)] * 3)
    out = parallel_reduce(net, "a", "b")
    assert len(out.edges_between("a", "b")) == 1
    assert out.edges_between("a", "b")[0].r == Fraction(1, 3)


def test_parallel_requires_multiedge():
    net = ResistanceNetwork([("a", "b", 1)])
    with pytest.raises(NotReducibleError):
        parallel_reduce(net, "a", "b")


def test_delta_y_unit_triangle():
    tri = cycle(3)
    out = delta_y(tri, 0, 1, 2, new_vertex="hub")
    for corner in (0, 1, 2):
        assert out.edges_between(corner, "hub")[0].r == Fraction(1, 3)
    # terminal pair resistances survive the transform
    assert effective_resistance(out, 0, 1) == effective_resistance(tri, 0, 1) == Fraction(2, 3)


def test_delta_y_weighted():
    tri = ResistanceNetwork([("y", "z", 1), ("x", "z", 2), ("x", "y", 3)])
    out = delta_y(tri, "x", "y", "z", new_vertex="s")
    assert out.edges_between("x", "s")[0].r == 1
    assert out.edges_between("y", "s")[0].r == Fraction(1, 2)
    assert out.edges_between("z", "s")[0].r == Fraction(1, 3)


def test_delta_y_requires_triangle():
    net = path_network([0, 1, 2])
    with pytest.raises(NotReducibleError):
        delta_y(net, 0, 1, 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_star_mesh_preserves_survivors(degree):
    rng = random.Random(degree)
    edges = [("c", i, Fraction(rng.randint(1, 5))) for i in range(degree)]
    edges += [(i, (i + 1) % degree, Fraction(1)) for i in range(degree)] if degree > 1 else []
    net = ResistanceNetwork(edges)
    before = resistance_matrix(net)
    out = star_mesh_eliminate(net, "c")
    assert "c" not in out.vertices
    if out.num_vertices > 1:
        after = resistance_matrix(out)
        for u in out.vertices:
            for v in out.vertices:
                assert after.resistance(u, v) == before.resistance(u, v)


def test_star_mesh_degree_two_matches_series():
    net = ResistanceNetwork([("a", "b", 2), ("b", "c", 3)])
    out = star_mesh_eliminate(net, "b")
    assert out == series_reduce(net, "b")


def test_reduce_series_parallel_to_single_edge():
    # two unit paths of length 2 joined at the ends: 2 parallel 2 gives 1
    net = ResistanceNetwork([("s", "m1", 1), ("m1", "t", 1), ("s", "m2", 1), ("m2", "t", 1)])
    out = reduce_series_parallel(net, keep=("s", "t"))
    assert out.num_vertices == 2
    assert out.edges_between("s", "t")[0].r == 1


def test_trace_replay_reproduces_reduction():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng, max_vertices=8)
        keep = tuple(rng.sample(net.vertices, 2))
        trace = ReductionTrace()
        reduced = reduce_series_parallel(net, keep=keep, trace=trace)
        assert trace.replay(net) == reduced


def test_step_descriptions():
    trace = ReductionTrace()
    reduce_series_parallel(path_network([0, 1, 2]), keep=(0, 2), trace=trace)
    step = trace.steps[0]
    d = step.as_dict()
    assert d["kind"] == "series"
    assert "series" in step.describe()


# -- solvers -----------------------------------------------------------------


def test_cycle_resistances():
    c4 = cycle(4)
    assert effective_resistance(c4, 0, 1) == Fraction(3, 4)
    c6 = cycle(6)
    assert effective_resistance(c6, 0, 3) == Fraction(3, 2)
    assert effective_resistance(c6, 0, 1) == Fraction(5, 6)
    assert resistance_sum(c6, 0) == Fraction(35, 6)


def test_kirchhoff_small_graphs():
    assert kirchhoff_index(ResistanceNetwork([("a", "b", 1)])) == 1
    assert kirchhoff_index(path_network([0, 1, 2])) == 4
    assert kirchhoff_index(cycle(6)) == Fraction(35, 2)


def test_kirchhoff_matches_chain_oracle():
    net = build_chain(ChainCode(2, ())).network
    assert kirchhoff_index(net) == Fraction(1153, 11)


def test_tree_resistance_is_path_length():
    net = path_network(list(range(6)))
    for i in range(6):
        for j in range(6):
            assert effective_resistance(net, i, j) == abs(i - j)


def test_resistance_matrix_triangle():
    m = resistance_matrix(cycle(3))
    for u in range(3):
        assert m.resistance(u, u) == 0
        for v in range(3):
            if u != v:
                assert m.resistance(u, v) == Fraction(2, 3)
    assert m.total() == 2
    assert m.row_sum(0) == Fraction(4, 3)


def test_matrix_agrees_with_sums_and_kf():
    rng = random.Random(23)
    net = random_network(rng, max_vertices=9)
    m = resistance_matrix(net)
    assert m.total() == kirchhoff_index(net)
    v0 = net.vertices[0]
    assert m.row_sum(v0) == resistance_sum(net, v0)
    assert 2 * m.total() == sum(m.row_sum(v) for v in net.vertices)


def test_resistance_metric_properties():
    rng = random.Random(31)
    for _ in range(5):
        net = random_network(rng, max_vertices=7)
        m = resistance_matrix(net)
        vs = net.vertices
        for u in vs:
            for v in vs:
                assert m.resistance(u, v) == m.resistance(v, u)
                if u != v:
                    assert m.resistance(u, v) > 0
                for w in vs:
                    assert m.resistance(u, w) <= m.resistance(u, v) + m.resistance(v, w)


def test_resistance_bounded_by_single_path():
    net = ResistanceNetwork([(0, 1, 2), (1, 2, 3), (0, 2, 30)])
    assert effective_resistance(net, 0, 2) <= 5


def test_grounded_resistances_targets_match_full():
    rng = random.Random(41)
    net = random_network(rng, max_vertices=9)
    ground = net.vertices[0]
    full = grounded_resistances(net, ground)
    some = [v for v in net.vertices if v != ground][:3]
    part = grounded_resistances(net, ground, targets=some)
    assert part == {v: full[v] for v in some}
    with pytest.raises(NetworkError):
        grounded_resistances(net, ground, targets=[ground])


def test_disconnected_network_is_rejected():
    net = ResistanceNetwork([(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ConnectivityError):
        effective_resistance(net, 0, 2)
    with pytest.raises(ConnectivityError):
        kirchhoff_index(net)


def test_missing_vertex_is_rejected():
    net = ResistanceNetwork([(0, 1, 1)])
    with pytest.raises(NetworkError):
        effective_resistance(net, 0, 9)


def test_trivial_cases():
    net = ResistanceNetwork([(0, 1, 1)])
    assert effective_resistance(net, 0, 0) == 0
    single = ResistanceNetwork((), extra_vertices=("s",))
    assert kirchhoff_index(single) == 0
    assert resistance_matrix(single).order == ("s",)


def test_solver_routes_agree():
    # the sparse factorization behind resistance_matrix and the dense
    # Gaussian elimination behind effective_resistance are independent
    # implementations; they must agree exactly
    rng = random.Random(47)
    for _ in range(10):
        net = random_network(rng, max_vertices=8)
        u, v = rng.sample(net.vertices, 2)
        assert effective_resistance(net, u, v) == resistance_matrix(net).resistance(u, v)


def oracle_grounded_inverse(net, ground):
    """G = K^-1 for the Laplacian grounded at `ground`, as {u: {v: G_uv}},
    from the Gaussian oracle with one right-hand side per vertex."""
    order = [v for v in net.vertices if v != ground]
    index = {v: i for i, v in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    for e in net.edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            if a != ground:
                rows[index[a]][index[a]] += 1 / e.r
                if b != ground:
                    rows[index[a]][index[b]] -= 1 / e.r
    unit = [[int(i == k) for i in range(len(order))] for k in range(len(order))]
    columns = _gauss_solve(rows, unit)
    return {u: {v: columns[index[v]][index[u]] for v in order} for u in order}


@pytest.mark.parametrize("n", range(1, 7))
def test_factorization_matches_oracle_on_every_chain(n):
    for code in enumerate_words(n):
        net = build_chain(code).network
        ground = net.vertices[len(net.vertices) // 2]
        g = oracle_grounded_inverse(net, ground)
        trace = sum(g[v][v] for v in g)
        row = {u: sum(g[u].values()) for u in g}
        size = net.num_vertices
        assert kirchhoff_index(net) == size * trace - sum(row.values())
        assert grounded_resistances(net, ground) == {v: g[v][v] for v in g}
        targets = list(g)[::5]
        assert grounded_resistances(net, ground, targets=targets) == {v: g[v][v] for v in targets}
        assert resistance_sum(net, ground) == trace
        sums = resistance_sums(net)
        assert sums[ground] == trace
        assert all(sums[u] == size * g[u][u] + trace - 2 * row[u] for u in g)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_factorization_matches_pairwise_oracle(net):
    pairs = [(u, v) for i, u in enumerate(net.vertices) for v in net.vertices[i + 1:]]
    oracle = {(u, v): effective_resistance(net, u, v) for u, v in pairs}
    m = resistance_matrix(net)
    assert all(m.resistance(u, v) == m.resistance(v, u) == r for (u, v), r in oracle.items())
    assert kirchhoff_index(net) == sum(oracle.values())
    assert resistance_sums(net) == {v: m.row_sum(v) for v in net.vertices}


@settings(max_examples=60, deadline=None)
@given(networks())
def test_foster_theorem(net):
    # sum over edges of r_eff(e) / r_e is V - 1, parallel edges counted apiece
    m = resistance_matrix(net)
    assert sum(m.resistance(e.u, e.v) / e.r for e in net.edges) == net.num_vertices - 1


# -- staged chain simplification ---------------------------------------------


def test_simplify_chain_step_counts():
    for n in (1, 2, 3):
        chain = build_terminal_chain(n)
        final, trace = simplify_chain_circuit(chain)
        assert len(trace) == 8 * n - 6
        assert trace.replay(chain.network) == final


def test_simplify_chain_final_star():
    chain = build_terminal_chain(2)
    final, _ = simplify_chain_circuit(chain)
    hub = "z3"
    b_n, k_n = chain.square_corners[-1][1], chain.square_corners[-1][2]
    r1 = final.edges_between(hub, b_n)[0].r
    assert r1 == Fraction(7, 22)
    assert 0 < r1 < 1
    assert final.edges_between(hub, k_n)
    # terminal values survive the whole pipeline
    assert effective_resistance(final, chain.a1, chain.x) == effective_resistance(
        chain.network, chain.a1, chain.x
    )


# -- serialization -----------------------------------------------------------


def test_edge_list_roundtrip():
    net = ResistanceNetwork([("a", "b", Fraction(1, 2)), ("b", "c", 3), ("a", "b", 1)])
    assert parse_edge_list(format_edge_list(net)) == net


def test_parse_edge_list_grammar():
    net = parse_edge_list("# comment\n a b 1/2 \n\nb c\n")
    assert net.edges_between("b", "c")[0].r == 1  # missing weight means unit
    assert net.edges_between("a", "b")[0].r == Fraction(1, 2)
    with pytest.raises(NetworkError):
        parse_edge_list("a b 1 extra\n")
    with pytest.raises(InvalidNetworkError):
        parse_edge_list("a b 0\n")


def test_parse_edge_list_numeric_ids():
    net = parse_edge_list("0 1 2\n")
    assert net.vertices == (0, 1)


def test_network_to_dot():
    net = ResistanceNetwork([("a", "b", Fraction(1, 2))])
    dot = network_to_dot(net, name="demo", vertex_attrs={"a": {"label": "start"}})
    assert dot.startswith("graph demo {")
    assert "1/2" in dot
    assert "start" in dot
    assert dot.rstrip().endswith("}")
