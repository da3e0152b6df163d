"""The two ways to bridge a pair of marked components, and the closed-form
Kirchhoff-index difference between them.

Given components A (marked vertices a, l) and B (marked b, k), S adds unit
edges ab and lk while T adds unit edges ak and bl.  The difference
Kf(S) - Kf(T) equals

    [r_A(l) - r_A(a)] * [r_B(b) - r_B(k)] / (r_A(a, l) + r_B(b, k) + 2)

where r_X(v) is the sum of resistances from v within X alone and r_X(u, v)
the effective resistance within X.  Every quantity is exact, and both sides
come from one reader of `resistance_engine`, `_sum_numerators`: the
Kirchhoff indices of S and T, and per component one factorization grounded
at its first mark u, which gives s_X times both sums and, since W is zero
at u, s_X r_X(u, v) = W_vv.  The closed form is then one division.
"""

from typing import NamedTuple

from .exact_arith import Rational, _fields_json
from .resistance_engine import ResistanceNetwork, _sum_numerators, kirchhoff_index


class InvalidPairError(ValueError):
    """The two marked components do not form a valid S,T construction."""


class _STPairFields(NamedTuple):
    comp_a: ResistanceNetwork
    a: object
    l: object
    comp_b: ResistanceNetwork
    b: object
    k: object


class STPair(_STPairFields):
    """Components A and B with their marked vertex pairs (a, l) and (b, k).
    Checked when made, and by `_make` and `_replace` through it."""

    __slots__ = ()

    def __new__(cls, comp_a, a, l, comp_b, b, k):
        if a == l:
            raise InvalidPairError("marked vertices a and l must differ")
        if b == k:
            raise InvalidPairError("marked vertices b and k must differ")
        for net, marks in ((comp_a, (a, l)), (comp_b, (b, k))):
            for v in marks:
                if not net.has_vertex(v):
                    raise InvalidPairError(f"marked vertex {v!r} not in its component")
            if not net.is_connected():
                raise InvalidPairError("components must be connected")
        overlap = set(comp_a.vertices) & set(comp_b.vertices)
        if overlap:
            raise InvalidPairError(f"components share vertices {sorted(overlap, key=str)!r}")
        return tuple.__new__(cls, (comp_a, a, l, comp_b, b, k))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def make_st_pair(pair: STPair):
    """Return (S, T): the adjacent-bridge and crossed-bridge unions."""
    base = list(pair.comp_a.edges) + list(pair.comp_b.edges)
    verts = pair.comp_a.vertices + pair.comp_b.vertices
    s = ResistanceNetwork(base + [(pair.a, pair.b, 1), (pair.l, pair.k, 1)], verts)
    t = ResistanceNetwork(base + [(pair.a, pair.k, 1), (pair.b, pair.l, 1)], verts)
    return s, t


def lemma4_delta(pair: STPair) -> Rational:
    """The closed-form value of Kf(S) - Kf(T), from the components alone.

    With each component X grounded at its first mark, its reader gives the
    scale s_X, W = s_X Z and the numerators n_v = s_X r_X(v).  Over the
    common denominator s_A s_B the closed form is
    (n_l - n_a)(n_b - n_k) / (W_ll s_B + W_kk s_A + 2 s_A s_B).
    """
    comp_a, a, l, comp_b, b, k = pair
    s_a, w_a, sums_a = _sum_numerators(comp_a, a)
    s_b, w_b, sums_b = _sum_numerators(comp_b, b)
    return Rational((sums_a[l] - sums_a[a]) * (sums_b[b] - sums_b[k]),
                    w_a[l][l] * s_b + w_b[k][k] * s_a + 2 * s_a * s_b)


class STCheck(NamedTuple):
    kf_s: Rational
    kf_t: Rational
    lhs: Rational   # Kf(S) - Kf(T) from the two Kirchhoff indices
    rhs: Rational   # the closed form
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, passed="pass")


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
    draws with different offsets are vertex-disjoint.  Connectivity is
    tested on the drawn pairs, so only the accepted draw becomes a network.
    """
    while True:
        nv = rng.randint(2, max_vertices)
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < 0.45]
        comp = list(range(nv))  # component labels, merged pair by pair
        for i, j in pairs:
            if (a := comp[i]) != (b := comp[j]):
                comp = [a if c == b else c for c in comp]
        if len(set(comp)) == 1:
            return ResistanceNetwork([(offset + i, offset + j) for i, j in pairs], range(offset, offset + nv))


def random_st_pair(rng, max_vertices=8) -> STPair:
    """Two independent random components with random distinct marks."""
    comp_a = random_connected_network(rng, max_vertices, offset=0)
    comp_b = random_connected_network(rng, max_vertices, offset=100)
    a, l = rng.sample(list(comp_a.vertices), 2)
    b, k = rng.sample(list(comp_b.vertices), 2)
    return STPair(comp_a, a, l, comp_b, b, k)
