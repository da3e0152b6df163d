"""Tests for networks, reduction steps, and the exact resistance solvers."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import after_op, edge_delta, networks, path_network, random_network, survivors, weights
from phenkf import resistance_engine
from phenkf.chain_model import ChainCode, build_chain, build_terminal_chain, enumerate_words
from phenkf.extremal_search import random_terminal_weights
from phenkf.resistance_engine import (
    _gauss_solve,
    ConnectivityError,
    Edge,
    InvalidNetworkError,
    NetworkError,
    NotReducibleError,
    ReductionStep,
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
    out = after_op(series_reduce, net, "b")
    assert out.edges_between("a", "c")[0].r == 2


def test_series_adds_resistances():
    net = ResistanceNetwork([("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 3))])
    out = after_op(series_reduce, net, "b")
    assert out.edges_between("a", "c")[0].r == Fraction(5, 6)


def test_series_requires_degree_two():
    star = ResistanceNetwork([("c", i, 1) for i in range(3)])
    with pytest.raises(NotReducibleError):
        series_reduce(ReductionTrace(star), "c")


def test_parallel_two_edges():
    net = ResistanceNetwork([("a", "b", 2), ("a", "b", 3)])
    out = after_op(parallel_reduce, net, "a", "b")
    assert out.edges_between("a", "b")[0].r == Fraction(6, 5)


def test_parallel_three_units():
    # the whole bundle merges in one call
    net = ResistanceNetwork([("a", "b", 1)] * 3)
    out = after_op(parallel_reduce, net, "a", "b")
    assert len(out.edges_between("a", "b")) == 1
    assert out.edges_between("a", "b")[0].r == Fraction(1, 3)


def test_parallel_requires_multiedge():
    net = ResistanceNetwork([("a", "b", 1)])
    with pytest.raises(NotReducibleError):
        parallel_reduce(ReductionTrace(net), "a", "b")


def test_delta_y_unit_triangle():
    tri = cycle(3)
    out = after_op(delta_y, tri, 0, 1, 2, new_vertex="hub")
    for corner in (0, 1, 2):
        assert out.edges_between(corner, "hub")[0].r == Fraction(1, 3)
    # terminal pair resistances survive the transform
    assert effective_resistance(out, 0, 1) == effective_resistance(tri, 0, 1) == Fraction(2, 3)


def test_delta_y_weighted():
    tri = ResistanceNetwork([("y", "z", 1), ("x", "z", 2), ("x", "y", 3)])
    out = after_op(delta_y, tri, "x", "y", "z", new_vertex="s")
    assert out.edges_between("x", "s")[0].r == 1
    assert out.edges_between("y", "s")[0].r == Fraction(1, 2)
    assert out.edges_between("z", "s")[0].r == Fraction(1, 3)


def test_delta_y_requires_triangle():
    net = path_network([0, 1, 2])
    with pytest.raises(NotReducibleError):
        delta_y(ReductionTrace(net), 0, 1, 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_star_mesh_preserves_survivors(degree):
    rng = random.Random(degree)
    edges = [("c", i, Fraction(rng.randint(1, 5))) for i in range(degree)]
    edges += [(i, (i + 1) % degree, Fraction(1)) for i in range(degree)] if degree > 1 else []
    net = ResistanceNetwork(edges)
    before = resistance_matrix(net)
    out = after_op(star_mesh_eliminate, net, "c")
    assert "c" not in out.vertices
    if out.num_vertices > 1:
        after = resistance_matrix(out)
        for u in out.vertices:
            for v in out.vertices:
                assert after.resistance(u, v) == before.resistance(u, v)


def test_star_mesh_degree_two_matches_series():
    net = ResistanceNetwork([("a", "b", 2), ("b", "c", 3)])
    assert after_op(star_mesh_eliminate, net, "b") == after_op(series_reduce, net, "b")


def test_reduce_series_parallel_to_single_edge():
    # two unit paths of length 2 joined at the ends: 2 parallel 2 gives 1
    net = ResistanceNetwork([("s", "m1", 1), ("m1", "t", 1), ("s", "m2", 1), ("m2", "t", 1)])
    out, _ = reduce_series_parallel(net, keep=("s", "t"))
    assert out.num_vertices == 2
    assert out.edges_between("s", "t")[0].r == 1


def _greedy_by_rescan(net, keep):
    """The greedy rule with no use of edge order: the least pair, in
    vertex_key order, among the pairs with two or more edges; failing that,
    the first vertex not in `keep` with degree 2 and two distinct ends."""
    trace = ReductionTrace(net)
    while True:
        net = trace.network()
        bundles = sorted({(e.u, e.v) for e in net.edges if len(net.edges_between(e.u, e.v)) >= 2},
                         key=lambda p: (vertex_key(p[0]), vertex_key(p[1])))
        if bundles:
            parallel_reduce(trace, *bundles[0])
            continue
        sites = [v for v in net.vertices
                 if v not in keep and net.degree(v) == 2 and len(net.neighbors(v)) == 2]
        if not sites:
            return net, trace
        series_reduce(trace, sites[0])


@settings(max_examples=100, deadline=None)
@given(networks(), st.data())
def test_reduce_series_parallel_takes_the_greedy_sites(net, data):
    keep = data.draw(st.sets(st.sampled_from(net.vertices)))
    reduced, trace = reduce_series_parallel(net, keep=keep)
    expected, expected_trace = _greedy_by_rescan(net, keep)
    assert trace.steps == expected_trace.steps
    assert reduced == expected


def test_trace_replay_reproduces_reduction():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng, max_vertices=8)
        keep = tuple(rng.sample(net.vertices, 2))
        reduced, trace = reduce_series_parallel(net, keep=keep)
        assert trace.replay(net) == reduced


@pytest.mark.parametrize("k", [0, 5, 17])
def test_replay_mismatch_names_the_step(k):
    chain = build_terminal_chain(3)
    _, trace = simplify_chain_circuit(chain)
    step = trace.steps[k]
    e = step.added_edges[0]
    wrong = dataclasses.replace(step, added_edges=(Edge(e.u, e.v, e.r + 1), *step.added_edges[1:]))
    tampered = trace.steps[:k] + [wrong] + trace.steps[k + 1:]
    _forged(chain.network, tampered[:k]).replay(chain.network)
    with pytest.raises(NetworkError, match=f"replay refused step {k}: "):
        _forged(chain.network, tampered).replay(chain.network)


OPS = {"series": series_reduce, "parallel": parallel_reduce,
       "delta-wye": delta_y, "star-mesh": star_mesh_eliminate}


def _forged(net, steps):
    """A trace of `net` that records `steps` without applying them: only
    `replay` reads the record, so a forged trace reaches it this way."""
    trace = ReductionTrace(net)
    trace.steps = list(steps)
    return trace


def _op_networks(net, trace):
    """(step, before, after) per step, the networks made by running each
    step's op again here, on a trace of its own: not `replay`'s."""
    rerun = ReductionTrace(net)
    nets = [net]
    for step in trace:
        kw = {"new_vertex": step.new_vertex} if step.kind == "delta-wye" else {}
        assert OPS[step.kind](rerun, *step.site, **kw) == step
        nets.append(rerun.network())
    return zip(trace, nets, nets[1:])


def _drawn_steps(net, data):
    """(step, survivors, perturbed) for each step of a drawn reduction of
    `net`: series-parallel with two kept vertices, then star-mesh of all but
    two in a drawn order.  `perturbed` is the step with one drawn added
    weight raised, or None if it adds no edge."""
    keep = data.draw(st.lists(st.sampled_from(net.vertices), min_size=2, max_size=2, unique=True))
    reduced, trace = reduce_series_parallel(net, keep=keep)
    for v in data.draw(st.permutations(reduced.vertices))[:-2]:
        star_mesh_eliminate(trace, v)
    assert trace.replay(net) == trace.network()
    out = []
    for step, before, after in _op_networks(net, trace):
        wrong = None
        if step.added_edges:
            i = data.draw(st.integers(0, len(step.added_edges) - 1))
            u, v, r = step.added_edges[i]
            added = list(step.added_edges)
            added[i] = Edge(u, v, r + data.draw(weights))
            wrong = dataclasses.replace(step, added_edges=tuple(added))
        out.append((step, survivors(step, before, after), wrong))
    return out


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_reduction_steps_certify_and_perturbed_ones_do_not(net, data):
    for step, kept, wrong in _drawn_steps(net, data):
        assert step_preserves_resistances(step, kept), step.describe()
        if wrong is not None:
            assert not step_preserves_resistances(wrong, kept), step.describe()


def _dense_certificate(step, kept) -> bool:
    """The step certificate by the dense oracle: each side a network of its
    own, equal effective resistances among the survivors.  A disconnected
    side fails; one survivor or none passes."""
    kept = sorted(kept, key=vertex_key)
    if len(kept) < 2:
        return True
    sides = [ResistanceNetwork(edges, kept) for edges in (step.removed_edges, step.added_edges)]
    if not all(side.is_connected() for side in sides):
        return False
    return all(effective_resistance(sides[0], u, v) == effective_resistance(sides[1], u, v)
               for u, v in itertools.combinations(kept, 2))


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_step_certificate_agrees_with_dense_oracle(net, data):
    for step, kept, wrong in _drawn_steps(net, data):
        for s in (step, wrong) if wrong is not None else (step,):
            assert step_preserves_resistances(s, kept) == _dense_certificate(s, kept), s.describe()


def _triangles(net):
    """Corner triples, in every order, whose three sides are single edges:
    the delta-wye sites."""
    return [corners for corners in itertools.permutations(net.vertices, 3)
            if all(len(net.edges_between(p, q)) == 1
                   for p, q in itertools.combinations(corners, 2))]


def _one_step(op, net, *site):
    trace = ReductionTrace(net)
    step = op(trace, *site)
    assert trace.steps == [step]
    return step, net, trace.network()


@settings(max_examples=100, deadline=None)
@given(networks(), st.data())
def test_recorded_edges_are_the_edge_difference(net, data):
    # each op records its removed and added edges from its own split; they
    # must be exactly the multiset difference of the networks around the step
    keep = data.draw(st.lists(st.sampled_from(net.vertices), min_size=2, max_size=2, unique=True))
    reduced, trace = reduce_series_parallel(net, keep=keep)
    for v in data.draw(st.permutations(reduced.vertices))[:-2]:
        star_mesh_eliminate(trace, v)
    steps = list(_op_networks(net, trace))
    # star-mesh on the unreduced network also merges parallel edges
    steps += [_one_step(star_mesh_eliminate, net, v) for v in net.vertices]
    steps += [_one_step(delta_y, net, *corners) for corners in _triangles(net)]
    for step, before, after in steps:
        assert (step.removed_edges, step.added_edges) == edge_delta(before, after), step.describe()


def test_step_certificate_cases():
    net = ResistanceNetwork([(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 2)])
    trace = ReductionTrace(net)
    wye = delta_y(trace, 0, 1, 2, new_vertex="w")
    drop = star_mesh_eliminate(trace, 3)
    assert trace.steps == [wye, drop]
    assert step_preserves_resistances(wye, {0, 1, 2})
    assert step_preserves_resistances(drop, {2})  # one survivor
    assert trace.replay(net) == trace.network()
    # dropping an edge between two survivors disconnects the added side
    cut = dataclasses.replace(wye, added_edges=wye.added_edges[1:])
    assert not step_preserves_resistances(cut, {0, 1, 2})
    # a new vertex may not pass for a survivor: the removed side lacks it;
    # replay finds the survivors itself, and the same step twice removes
    # edges that are gone
    assert not step_preserves_resistances(wye, {0, 1, 2, "w"})
    _replay_error(net, [wye, wye], 1, "is absent")
    # a removed side with a component that holds no survivor fails, though
    # the resistance between the survivors holds; so do two equal sides that
    # leave the survivors disconnected
    stray = ReductionStep("series", (1,), (Edge(0, 1), Edge(1, 2), Edge(3, 4)), (Edge(0, 2, 2),))
    apart = (Edge(0, 1), Edge(2, 3))
    for step, kept in ((stray, {0, 2}), (ReductionStep("series", (5,), apart, apart), {0, 1, 2, 3})):
        assert not step_preserves_resistances(step, kept)
        assert not _dense_certificate(step, kept)
    assert step_preserves_resistances(dataclasses.replace(stray, removed_edges=stray.removed_edges[:2]), {0, 2})


def _replay_error(net, steps, k, reason):
    """Replay `steps` on `net`; it must refuse step k for `reason`."""
    with pytest.raises(NetworkError, match=f"replay refused step {k}: .*{reason}"):
        _forged(net, steps).replay(net)


def test_replay_refuses_an_absent_removed_edge():
    chain = build_terminal_chain(2)
    _, trace = simplify_chain_circuit(chain)
    steps = trace.steps
    k = 3
    e = steps[k].removed_edges[0]
    absent = dataclasses.replace(
        steps[k], removed_edges=(Edge(e.u, e.v, e.r + 1), *steps[k].removed_edges[1:]))
    _replay_error(chain.network, steps[:k] + [absent] + steps[k + 1:], k, "is absent")


def test_replay_refuses_a_forged_series_step_at_a_degree_three_vertex():
    # y keeps its edge to w, so it is no eliminated vertex but a survivor
    # that the added side leaves cut off
    net = ResistanceNetwork([("x", "y", 1), ("y", "z", 2), ("y", "w", 3), ("z", "w", 1),
                             ("w", "v", 1), ("v", "u", 1)])
    assert net.degree("y") == 3
    trace = ReductionTrace(net)
    series_reduce(trace, "v")
    forged = ReductionStep("series", ("y",), (Edge("x", "y", 1), Edge("y", "z", 2)),
                           (Edge("x", "z", 3),))
    _replay_error(net, trace.steps + [forged], 1, "resistances among its survivors change")


def test_replay_refuses_an_off_by_one_added_weight():
    net = ResistanceNetwork([(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 1), (3, 4, 1)])
    trace = ReductionTrace(net)
    delta_y(trace, 0, 1, 2)
    series_reduce(trace, 3)
    for k, step in enumerate(trace):
        e = step.added_edges[-1]
        wrong = dataclasses.replace(step, added_edges=(*step.added_edges[:-1], Edge(e.u, e.v, e.r + 1)))
        steps = list(trace.steps)
        steps[k] = wrong
        _replay_error(net, steps, k, "resistances among its survivors change")


def test_replay_refuses_a_reused_vertex_name():
    # star-mesh removes 3; delta-wye's default new vertex is then 4, one
    # past every int vertex the trace had.  A hub named 3 would read
    # r(0, 3) = 7/23 where the network had 40/23: a forged step that names
    # it so is refused
    net = ResistanceNetwork([(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 2), (3, 0, 5)])
    trace = ReductionTrace(net)
    star_mesh_eliminate(trace, 3)
    wye = delta_y(trace, 0, 1, 2)
    out = trace.network()
    assert wye.new_vertex == 4 and out.vertices == (0, 1, 2, 4)
    assert trace.replay(net) == out
    assert effective_resistance(net, 0, 3) == Fraction(40, 23)
    renamed = [Edge(e.u, 3, e.r) for e in wye.added_edges]
    assert effective_resistance(ResistanceNetwork(renamed), 0, 3) == Fraction(7, 23)
    forged = dataclasses.replace(wye, added_edges=tuple(renamed), new_vertex=3)
    _replay_error(net, [trace.steps[0], forged], 1, "new vertex 3 was used before")
    # the op refuses the name too, and leaves its trace as it was
    meshed = ReductionTrace(net)
    star_mesh_eliminate(meshed, 3)
    with pytest.raises(NotReducibleError, match="new vertex 3 was used before"):
        delta_y(meshed, 0, 1, 2, new_vertex=3)
    assert len(meshed) == 1 and meshed.network().vertices == (0, 1, 2)


def test_op_and_replay_eliminate_the_same_vertices():
    # a step eliminates exactly the site vertices it leaves without edges:
    # star-mesh at 0 keeps the pendant end 1, and at an isolated vertex
    # removes it
    for net, v, left in ((ResistanceNetwork([(0, 1, 2)]), 0, (1,)),
                         (ResistanceNetwork([(0, 1, 2)], extra_vertices=(5,)), 5, (0, 1))):
        trace = ReductionTrace(net)
        star_mesh_eliminate(trace, v)
        assert trace.network().vertices == left
        assert trace.replay(net) == trace.network()


def test_replay_runs_no_reduction_op(monkeypatch):
    # nor any factorization: each step is certified by Kron reduction
    chains = [build_terminal_chain(4), build_terminal_chain(4, random_terminal_weights(4, random.Random(3)))]
    reduced_chains = [simplify_chain_circuit(chain) for chain in chains]
    net = random_network(random.Random(5), max_vertices=8)
    reduced, sp_trace = reduce_series_parallel(net, keep=net.vertices[:2])
    for v in reduced.vertices[2:]:
        star_mesh_eliminate(sp_trace, v)

    def refuse(*args, **kwargs):
        raise AssertionError("replay ran a reduction op or a factorization")

    for name in ("series_reduce", "parallel_reduce", "delta_y", "star_mesh_eliminate"):
        monkeypatch.setattr(resistance_engine, name, refuse)
    monkeypatch.setattr(resistance_engine._GroundedFactor, "__init__", refuse)
    for chain, (final, trace) in zip(chains, reduced_chains):
        assert trace.replay(chain.network) == final
    assert sp_trace.replay(net) == sp_trace.network()


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
    _, trace = reduce_series_parallel(path_network([0, 1, 2]), keep=(0, 2))
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
        afters = [after for _, _, after in _op_networks(chain.network, trace)]
        assert len(afters) == len(trace) and afters[-1] == final
        # every prefix replays to the network the reducer had after it
        assert all(_forged(chain.network, trace.steps[:k]).replay(chain.network) == after
                   for k, after in enumerate(afters, start=1))


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
