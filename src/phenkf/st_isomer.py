"""The two ways to bridge a pair of marked components, and the closed-form
Kirchhoff-index difference between them.

Given components A (marked vertices a, l) and B (marked b, k), S adds unit
edges ab and lk while T adds unit edges ak and bl.  The difference
Kf(S) - Kf(T) equals

    [r_A(l) - r_A(a)] * [r_B(b) - r_B(k)] / (r_A(a, l) + r_B(b, k) + 2)

where r_X(v) is the sum of resistances from v within X alone and r_X(u, v)
the effective resistance within X.  Every quantity is exact, and both sides
come from the grounded factorization of `resistance_engine`: the Kirchhoff
indices of S and T, and per component one factorization grounded at its
first mark with one solve at its second (`terminal_resistances`), which
gives both sums and r_X(u, v).
"""

from dataclasses import dataclass

from .exact_arith import Rational, format_rational
from .resistance_engine import (
    ResistanceNetwork,
    kirchhoff_index,
    terminal_resistances,
)


class InvalidPairError(ValueError):
    """The two marked components do not form a valid S,T construction."""


@dataclass(frozen=True)
class STPair:
    """Components A and B with their marked vertex pairs (a, l) and (b, k)."""

    comp_a: ResistanceNetwork
    a: object
    l: object
    comp_b: ResistanceNetwork
    b: object
    k: object

    def __post_init__(self):
        if self.a == self.l:
            raise InvalidPairError("marked vertices a and l must differ")
        if self.b == self.k:
            raise InvalidPairError("marked vertices b and k must differ")
        for net, marks in ((self.comp_a, (self.a, self.l)), (self.comp_b, (self.b, self.k))):
            for v in marks:
                if not net.has_vertex(v):
                    raise InvalidPairError(f"marked vertex {v!r} not in its component")
            if not net.is_connected():
                raise InvalidPairError("components must be connected")
        overlap = set(self.comp_a.vertices) & set(self.comp_b.vertices)
        if overlap:
            raise InvalidPairError(f"components share vertices {sorted(overlap, key=str)!r}")


def make_st_pair(pair: STPair):
    """Return (S, T): the adjacent-bridge and crossed-bridge unions."""
    base = list(pair.comp_a.edges) + list(pair.comp_b.edges)
    verts = pair.comp_a.vertices + pair.comp_b.vertices
    s = ResistanceNetwork(base + [(pair.a, pair.b, 1), (pair.l, pair.k, 1)], verts)
    t = ResistanceNetwork(base + [(pair.a, pair.k, 1), (pair.b, pair.l, 1)], verts)
    return s, t


def _marked_terms(comp: ResistanceNetwork, u, v):
    """(r(u), r(v), r(u, v)) within `comp`, from one factorization and one solve."""
    rows = terminal_resistances(comp, u, v)
    sum_u, sum_v = (sum(col, Rational(0)) for col in zip(*rows.values()))
    return sum_u, sum_v, rows[v][0]


def lemma4_delta(pair: STPair) -> Rational:
    """The closed-form value of Kf(S) - Kf(T), from the components alone."""
    sum_a, sum_l, r_al = _marked_terms(pair.comp_a, pair.a, pair.l)
    sum_b, sum_k, r_bk = _marked_terms(pair.comp_b, pair.b, pair.k)
    return (sum_l - sum_a) * (sum_b - sum_k) / (r_al + r_bk + 2)


@dataclass(frozen=True)
class STCheck:
    kf_s: Rational
    kf_t: Rational
    lhs: Rational   # Kf(S) - Kf(T) from the two Kirchhoff indices
    rhs: Rational   # the closed form
    passed: bool

    def as_dict(self) -> dict:
        return {
            "kf_s": format_rational(self.kf_s),
            "kf_t": format_rational(self.kf_t),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "pass": self.passed,
        }


def verify_lemma4(pair: STPair) -> STCheck:
    """Both sides of the difference identity, compared exactly."""
    s, t = make_st_pair(pair)
    kf_s = kirchhoff_index(s)
    kf_t = kirchhoff_index(t)
    lhs = kf_s - kf_t
    rhs = lemma4_delta(pair)
    return STCheck(kf_s, kf_t, lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# randomized instances


def random_connected_network(rng, max_vertices, offset=0) -> ResistanceNetwork:
    """Erdos-Renyi-style simple graph, resampled until connected.

    Between 2 and `max_vertices` vertices, each pair joined with probability
    0.45.  Vertices are offset..offset+nv-1 with unit resistances, so two
    draws with different offsets are vertex-disjoint.
    """
    while True:
        nv = rng.randint(2, max_vertices)
        vertices = range(offset, offset + nv)
        edges = []
        for i in range(offset, offset + nv):
            for j in range(i + 1, offset + nv):
                if rng.random() < 0.45:
                    edges.append((i, j))
        net = ResistanceNetwork(edges, vertices)
        if net.is_connected():
            return net


def random_st_pair(rng, max_vertices=8) -> STPair:
    """Two independent random components with random distinct marks."""
    comp_a = random_connected_network(rng, max_vertices, offset=0)
    comp_b = random_connected_network(rng, max_vertices, offset=100)
    a, l = rng.sample(list(comp_a.vertices), 2)
    b, k = rng.sample(list(comp_b.vertices), 2)
    return STPair(comp_a, a, l, comp_b, b, k)
