"""Seeded generators shared by the randomized tests."""

from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from phenkf.resistance_engine import ResistanceNetwork, vertex_key


def random_weight(rng) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def random_network(rng, max_vertices: int = 12) -> ResistanceNetwork:
    """Connected weighted multigraph: a tree spine plus chords and parallels.

    Chords create cycles (so delta-wye sites exist) and duplicated edges
    create parallel-reduction sites; the spine keeps everything connected.
    """
    n = rng.randint(2, max_vertices)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, random_weight(rng)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, random_weight(rng)))
    for _ in range(rng.randint(0, 2)):
        u, v, _ = edges[rng.randrange(len(edges))]
        edges.append((u, v, random_weight(rng)))
    return ResistanceNetwork(edges)


def edge_delta(before: ResistanceNetwork, after: ResistanceNetwork):
    """Multiset difference of two networks' edges: (removed, added), each
    sorted as network edges are.  An oracle for what a reduction step changed,
    independent of how the reduction ops record it."""
    counts = Counter(before.edges)
    counts.subtract(after.edges)
    order = sorted(counts, key=lambda e: (vertex_key(e.u), vertex_key(e.v), e.r))
    removed = tuple(e for e in order for _ in range(counts[e]))
    added = tuple(e for e in order for _ in range(-counts[e]))
    return removed, added


def path_network(labels, weight=Fraction(1)) -> ResistanceNetwork:
    pairs = zip(labels, labels[1:])
    return ResistanceNetwork([(u, v, weight) for u, v in pairs])


vertex_ids = st.one_of(st.integers(-3, 40), st.text("abxyz", min_size=1, max_size=2))
weights = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def networks(draw, max_vertices=9):
    """Connected weighted multigraphs over mixed int and str vertex ids.

    A random tree on the first vertices, chords between any of them,
    parallel copies of drawn edges, and a pendant path hanging off one tree
    vertex through the remaining ones.
    """
    labels = draw(st.lists(vertex_ids, min_size=2, max_size=max_vertices, unique=True))
    core = draw(st.integers(2, len(labels)))
    edges = [(labels[draw(st.integers(0, v - 1))], labels[v], draw(weights))
             for v in range(1, core)]
    for _ in range(draw(st.integers(0, core))):
        u, v = draw(st.lists(st.sampled_from(labels[:core]), min_size=2, max_size=2, unique=True))
        edges.append((u, v, draw(weights)))
    path = [draw(st.sampled_from(labels[:core])), *labels[core:]]
    edges += [(u, v, draw(weights)) for u, v in zip(path, path[1:])]
    for _ in range(draw(st.integers(0, 2))):
        u, v, _ = draw(st.sampled_from(edges))
        edges.append((u, v, draw(weights)))
    return ResistanceNetwork(edges)
