"""Tests for networks, reduction steps, and the exact resistance solvers."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_delta, networks, path_network, random_network, weights
from phenkf.chain_model import ChainCode, build_chain, build_terminal_chain, enumerate_words
from phenkf.resistance_engine import (
    _gauss_solve,
    ConnectivityError,
    Edge,
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
    reduce_series_parallel,
    resistance_matrix,
    resistance_sum,
    resistance_sums,
    series_reduce,
    simplify_chain_circuit,
    star_mesh_eliminate,
    step_preserves_resistances,
    terminal_resistances,
    vertex_key,
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


@pytest.mark.parametrize("r, stored", [
    (2, Fraction(2)), ("3/4", Fraction(3, 4)), (0.5, Fraction(1, 2)), (Fraction(6, 4), Fraction(3, 2)),
])
def test_network_converts_weights_to_fractions(r, stored):
    e = ResistanceNetwork([(1, 0, r)]).edges[0]
    assert e == (0, 1, stored) and type(e.r) is Fraction


@pytest.mark.parametrize("r", [Fraction(0), Fraction(-1, 3), "-2", "0/5", -0.5])
def test_network_rejects_nonpositive_weights_of_any_type(r):
    with pytest.raises(InvalidNetworkError, match="resistance must be positive"):
        ResistanceNetwork([(0, 1, r)])


def test_edge_checks_itself():
    with pytest.raises(InvalidNetworkError, match="self-loop"):
        Edge(1, 1)
    for r in (0, -1, Fraction(-1, 3)):
        with pytest.raises(InvalidNetworkError, match="resistance must be positive"):
            Edge(0, 1, r)
    e = Edge(0, 1, 2)
    assert type(e.r) is Fraction and e.r == 2
    assert Edge(0, 1).r == 1 and type(Edge(0, 1).r) is Fraction
    assert Edge("b", 3, 2) == (3, "b", 2) and Edge("b", 3, 2).u == 3
    # the namedtuple builders go through the same check
    assert Edge._make(("b", 3, 2)) == (3, "b", 2)
    with pytest.raises(InvalidNetworkError):
        Edge._make((2, 2, 1))
    with pytest.raises(InvalidNetworkError):
        e._replace(r=0)
    assert e._replace(u=5) == (1, 5, 2)


def test_network_takes_edges_as_they_are():
    e = Edge("b", "a", 3)
    net = ResistanceNetwork([e, (1, 0)])
    assert net.edges[1] is e
    assert net.edges[0] == Edge(0, 1) and type(net.edges[0]) is Edge


def test_network_accessors():
    net = ResistanceNetwork([("a", "b", 2), ("b", "c", 3), ("a", "b", 2)])
    assert net.num_vertices == 3
    assert net.num_edges == 3
    assert net.degree("b") == 3
    assert set(net.neighbors("b")) == {"a", "c"}
    assert len(net.edges_between("a", "b")) == 2
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


def _greedy_by_rescan(net, keep):
    """The greedy rule with no use of edge order: the least pair, in
    vertex_key order, among the pairs with two or more edges; failing that,
    the first vertex not in `keep` with degree 2 and two distinct ends."""
    trace = ReductionTrace()
    while True:
        bundles = sorted({(e.u, e.v) for e in net.edges if len(net.edges_between(e.u, e.v)) >= 2},
                         key=lambda p: (vertex_key(p[0]), vertex_key(p[1])))
        if bundles:
            net = parallel_reduce(net, *bundles[0], trace=trace)
            continue
        sites = [v for v in net.vertices
                 if v not in keep and net.degree(v) == 2 and len(net.neighbors(v)) == 2]
        if not sites:
            return net, trace
        net = series_reduce(net, sites[0], trace=trace)


@settings(max_examples=100, deadline=None)
@given(networks(), st.data())
def test_reduce_series_parallel_takes_the_greedy_sites(net, data):
    keep = data.draw(st.sets(st.sampled_from(net.vertices)))
    trace = ReductionTrace()
    reduced = reduce_series_parallel(net, keep=keep, trace=trace)
    expected, expected_trace = _greedy_by_rescan(net, keep)
    assert trace.steps == expected_trace.steps
    assert reduced == expected


def test_trace_replay_reproduces_reduction():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng, max_vertices=8)
        keep = tuple(rng.sample(net.vertices, 2))
        trace = ReductionTrace()
        reduced = reduce_series_parallel(net, keep=keep, trace=trace)
        assert trace.replay(net) == reduced


@pytest.mark.parametrize("k", [0, 5, 17])
def test_replay_mismatch_names_the_step(k):
    chain = build_terminal_chain(3)
    _, trace = simplify_chain_circuit(chain)
    step = trace.steps[k]
    e = step.added_edges[0]
    wrong = dataclasses.replace(step, added_edges=(Edge(e.u, e.v, e.r + 1), *step.added_edges[1:]))
    tampered = ReductionTrace(trace.steps[:k] + [wrong] + trace.steps[k + 1:])
    message = f"replay mismatch at step {k}: "
    with pytest.raises(NetworkError, match=message):
        tampered.replay(chain.network)
    with pytest.raises(NetworkError, match=message):
        list(tampered.networks(chain.network))


def _steps_with_networks(net, trace):
    befores = [net, *trace.networks(net)]
    return zip(trace, befores, befores[1:])


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_reduction_steps_certify_and_perturbed_ones_do_not(net, data):
    trace = ReductionTrace()
    keep = data.draw(st.lists(st.sampled_from(net.vertices), min_size=2, max_size=2, unique=True))
    reduced = reduce_series_parallel(net, keep=keep, trace=trace)
    for v in data.draw(st.permutations(reduced.vertices))[:-2]:
        reduced = star_mesh_eliminate(reduced, v, trace=trace)
    assert trace.replay(net) == reduced
    for step, before, after in _steps_with_networks(net, trace):
        assert step_preserves_resistances(step, before, after), step.describe()
        if step.added_edges:
            i = data.draw(st.integers(0, len(step.added_edges) - 1))
            u, v, r = step.added_edges[i]
            added = list(step.added_edges)
            added[i] = Edge(u, v, r + data.draw(weights))
            wrong = dataclasses.replace(step, added_edges=tuple(added))
            assert not step_preserves_resistances(wrong, before, after), step.describe()


def _triangles(net):
    """Corner triples, in every order, whose three sides are single edges:
    the delta-wye sites."""
    return [corners for corners in itertools.permutations(net.vertices, 3)
            if all(len(net.edges_between(p, q)) == 1
                   for p, q in itertools.combinations(corners, 2))]


def _one_step(op, net, *site):
    trace = ReductionTrace()
    after = op(net, *site, trace=trace)
    (step,) = trace.steps
    return step, net, after


@settings(max_examples=100, deadline=None)
@given(networks(), st.data())
def test_recorded_edges_are_the_edge_difference(net, data):
    # each op records its removed and added edges from its own split; they
    # must be exactly the multiset difference of the networks around the step
    trace = ReductionTrace()
    keep = data.draw(st.lists(st.sampled_from(net.vertices), min_size=2, max_size=2, unique=True))
    reduced = reduce_series_parallel(net, keep=keep, trace=trace)
    for v in data.draw(st.permutations(reduced.vertices))[:-2]:
        reduced = star_mesh_eliminate(reduced, v, trace=trace)
    steps = list(_steps_with_networks(net, trace))
    # star-mesh on the unreduced network also merges parallel edges
    steps += [_one_step(star_mesh_eliminate, net, v) for v in net.vertices]
    steps += [_one_step(delta_y, net, *corners) for corners in _triangles(net)]
    for step, before, after in steps:
        assert (step.removed_edges, step.added_edges) == edge_delta(before, after), step.describe()


def test_step_certificate_cases():
    net = ResistanceNetwork([(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 2)])
    trace = ReductionTrace()
    star = delta_y(net, 0, 1, 2, new_vertex="w", trace=trace)
    pendant = star_mesh_eliminate(star, 3, trace=trace)
    (wye, drop) = trace.steps
    assert step_preserves_resistances(wye, net, star)
    assert step_preserves_resistances(drop, star, pendant)  # one survivor
    # dropping an edge between two survivors disconnects the added side
    cut = dataclasses.replace(wye, added_edges=wye.added_edges[1:])
    assert not step_preserves_resistances(cut, net, star)
    # a survivor may not pass for eliminated, nor a new vertex for a survivor
    assert not step_preserves_resistances(wye, net, star_mesh_eliminate(star, 0))
    assert not step_preserves_resistances(wye, star, star)


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_terminal_resistances_match_oracle(net, data):
    x, y = data.draw(st.lists(st.sampled_from(net.vertices), min_size=2, max_size=2, unique=True))
    rows = terminal_resistances(net, x, y)
    assert list(rows) == list(net.vertices)
    assert all(rows[v] == (effective_resistance(net, v, x), effective_resistance(net, v, y))
               for v in net.vertices)


def test_terminal_resistances_refuse_bad_terminals():
    net = cycle(4)
    with pytest.raises(NetworkError, match="terminals coincide"):
        terminal_resistances(net, 1, 1)
    with pytest.raises(NetworkError, match="unknown vertex"):
        terminal_resistances(net, 1, 9)


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


@pytest.mark.parametrize("solve, zero", [
    (kirchhoff_index, 0),
    (lambda net: grounded_resistances(net, "s"), {}),
    (lambda net: resistance_sum(net, "s"), 0),
    (resistance_sums, {"s": 0}),
    (lambda net: resistance_matrix(net).values, ((0,),)),
], ids=["kirchhoff_index", "grounded_resistances", "resistance_sum", "resistance_sums",
        "resistance_matrix"])
def test_degenerate_networks(solve, zero):
    # the factorization alone handles these: it refuses the vertexless
    # network and factors a single vertex to nothing
    with pytest.raises(NetworkError):
        solve(ResistanceNetwork(()))
    assert solve(ResistanceNetwork((), extra_vertices=("s",))) == zero


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


@settings(max_examples=40, deadline=None)
@given(networks(), st.data())
def test_rayleigh_monotonicity(net, data):
    # raising one edge's resistance never lowers any effective resistance
    edges = list(net.edges)
    i = data.draw(st.integers(0, len(edges) - 1))
    u, v, r = edges[i]
    edges[i] = (u, v, r + data.draw(weights))
    before = resistance_matrix(net).values
    after = resistance_matrix(ResistanceNetwork(edges)).values
    assert all(y >= x for row_x, row_y in zip(before, after) for x, y in zip(row_x, row_y))


@settings(max_examples=40, deadline=None)
@given(networks(), st.data())
def test_relabeling_invariance(net, data):
    # new str ids in a drawn order change the sorted vertex order and with
    # it the elimination order; no resistance may change
    ids = data.draw(st.permutations(range(net.num_vertices)))
    name = {v: f"w{i}" for v, i in zip(net.vertices, ids)}
    renamed = ResistanceNetwork([(name[e.u], name[e.v], e.r) for e in net.edges])
    assert kirchhoff_index(renamed) == kirchhoff_index(net)
    m, m_renamed = resistance_matrix(net), resistance_matrix(renamed)
    assert all(m_renamed.resistance(name[u], name[v]) == m.resistance(u, v)
               for u in net.vertices for v in net.vertices)


# -- staged chain simplification ---------------------------------------------


def test_simplify_chain_step_counts():
    for n in (1, 2, 3):
        chain = build_terminal_chain(n)
        final, trace = simplify_chain_circuit(chain)
        assert len(trace) == 8 * n - 6
        assert trace.replay(chain.network) == final
        steps = list(trace.networks(chain.network))
        assert len(steps) == len(trace) and steps[-1] == final


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


def test_format_edge_list():
    # one "u v r" line per edge, in the network's sorted edge order
    net = ResistanceNetwork([("b", "c", 3), ("a", "b", 1), (2, "a", Fraction(1, 2))])
    assert format_edge_list(net) == "2 a 1/2\na b 1\nb c 3\n"
    assert format_edge_list(ResistanceNetwork(())) == ""


def test_network_to_dot():
    net = ResistanceNetwork([("a", "b", Fraction(1, 2))])
    dot = network_to_dot(net, name="demo", vertex_attrs={"a": {"label": "start"}})
    assert dot.startswith("graph demo {")
    assert "1/2" in dot
    assert "start" in dot
    assert dot.rstrip().endswith("}")
