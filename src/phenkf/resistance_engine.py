"""Weighted resistance networks with exact reduction steps and exact solvers.

A network is an undirected multigraph whose edges carry positive rational
resistances.  Two kinds of computation are kept deliberately separate:

* local circuit reductions (series, parallel, delta-wye, star-mesh) that
  transform the network while preserving effective resistances among the
  surviving vertices, with a replayable trace.  A `ReductionTrace` is the
  network under reduction, and `ReductionTrace.apply` is the one routine
  that changes it.  Each op builds its step from the edges it looked up
  and applies it, so a step costs time in its own size.
  `ReductionTrace.replay` checks a trace from the recorded edges alone: it
  applies each step to a fresh trace of the initial network and certifies
  it by Kron reduction of those edges (`step_preserves_resistances`),
  without running an op or factoring any network;
* one exact sparse factorization K = L D L^T of the grounded Laplacian, in
  reverse Cuthill-McKee order, behind every resistance quantity here.
  It alone knows the elimination order and the ground: it reads off
  W = s Z for Z = K^-1 by the Takahashi recurrence, keyed by vertex and
  extended by zeros at the ground, and solves over vertex-keyed maps.
  Every reader is then the identity r(u, v) = (W_uu + W_vv - 2 W_uv) / s,
  one Rational per value returned: grounded resistances off the diagonal
  of W, the resistance matrix off all of it (its sums add numerators
  before they divide), and resistances to two terminals, read at a few
  vertices eliminated last, off only the Takahashi steps of those.  One
  reader, `_sum_numerators`, adds one solve against the all-ones vector
  for s times every per-vertex resistance sum; the Kirchhoff index, the
  sums and the terms of Lemma 4's closed form (`st_isomer`) all divide
  those.  It alone checks its input for the empty network, a missing
  ground or read vertex, and disconnection.

The factorization has two representations, picked from the merged
conductances alone.  When every one is an integer (unit chains, the unit
S/T pairs of Lemma 4, the kink flips) it is fraction-free (Bareiss 1968):
each stored entry is an integer, the conductance times the leading minor
of the steps so far, every division is checked to be exact, and the scale
s is det K, so W = adj K.  Otherwise (weighted samples, reduced networks)
it runs over the rationals with s = 1, on the star-mesh elimination
`_eliminate` that also makes `star_mesh_eliminate`'s mesh and the
certificate's Kron reduction.

The Kirchhoff index of a unit chain code (`kf_of_code`, `find_extrema`)
comes from the two-port transfer engine in `extremal_search`, whose
constants come from this factorization of four networks of at most 8
vertices.  Weighted, rewired and non-chain networks, per-vertex sums and
the resistance matrix are factored here directly.

`effective_resistance` solves the dense Laplacian by rational Gaussian
elimination instead.  It is the independent oracle the tests hold the
factorization to; no verdict depends on it.
"""

import heapq
from collections import Counter
from math import gcd
from operator import truediv
from typing import NamedTuple

from .exact_arith import Rational, _exact, format_rational


class NetworkError(ValueError):
    """Base class for network construction and reduction errors."""


class InvalidNetworkError(NetworkError):
    """Malformed construction input: self-loop, nonpositive resistance, ..."""


class NotReducibleError(NetworkError):
    """A reduction step's precondition does not hold at the given site."""


class ConnectivityError(NetworkError):
    """A solver was given a network that is not connected."""


def vertex_key(v):
    """Total order over mixed int/str vertex ids (ints first, then strings)."""
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


class _EdgeFields(NamedTuple):
    u: object
    v: object
    r: Rational


class Edge(_EdgeFields):
    """An edge checked once, when made: no self-loop, r a positive Rational
    (default 1), ends in `vertex_key` order.  `_make`, and `_replace` through
    it, check too, so no Edge is ever checked again.  A positive float is
    refused: it is seldom the rational it stands for (1/3 would be stored as
    6004799503160661/18014398509481984)."""

    __slots__ = ()

    def __new__(cls, u, v, r=1):
        if u == v:
            raise InvalidNetworkError(f"self-loop at {u!r}")
        if type(r) is not Rational:
            if isinstance(r, float) and r > 0:
                raise InvalidNetworkError(f"resistance must be exact, got the float {r!r} on ({u!r}, {v!r})")
            r = Rational(r)
        if r.numerator <= 0:
            raise InvalidNetworkError(f"resistance must be positive, got {r} on ({u!r}, {v!r})")
        if vertex_key(v) < vertex_key(u):
            u, v = v, u
        return tuple.__new__(cls, (u, v, r))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _edge_order(e: Edge) -> tuple:
    return vertex_key(e.u), vertex_key(e.v), e.r


class _Incidence:
    """Readers of `_adj`, each vertex's incident edges: shared by a network
    and by a trace, the network under reduction."""

    __slots__ = ()

    def has_vertex(self, v) -> bool:
        return v in self._adj

    def require_vertex(self, v):
        if v not in self._adj:
            raise NetworkError(f"unknown vertex {v!r}")

    def incident(self, v) -> tuple:
        self.require_vertex(v)
        return tuple(self._adj[v])

    def degree(self, v) -> int:
        """Number of incident edge slots; parallel edges count separately."""
        return len(self.incident(v))

    def neighbors(self, v) -> tuple:
        self.require_vertex(v)
        out = {e.v if e.u == v else e.u for e in self._adj[v]}
        return tuple(sorted(out, key=vertex_key))

    def edges_between(self, u, v) -> tuple:
        self.require_vertex(u)
        self.require_vertex(v)
        return tuple(e for e in self._adj[u] if {e.u, e.v} == {u, v})


class ResistanceNetwork(_Incidence):
    """Immutable weighted multigraph.

    Vertices are ints or strings.  Edge input items are `Edge`s, taken as
    they are, or (u, v, r) triples and (u, v) pairs (unit resistance), each
    made into an `Edge` and so checked.  Vertices and edges are stored
    sorted, so two networks with equal vertex sets and equal edge multisets
    compare equal no matter the construction order.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, edges, extra_vertices=()):
        self.edges = tuple(sorted((e if isinstance(e, Edge) else Edge(*e) for e in edges), key=_edge_order))
        ends = {w for e in self.edges for w in (e.u, e.v)}
        self.vertices = tuple(sorted(ends.union(extra_vertices), key=vertex_key))
        self._adj = {v: [] for v in self.vertices}
        for e in self.edges:
            self._adj[e.u].append(e)
            self._adj[e.v].append(e)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def component(self, v) -> set:
        """The vertices reachable from v, v included."""
        self.require_vertex(v)
        seen = {v}
        todo = [v]
        while todo:
            w = todo.pop()
            for e in self._adj[w]:
                other = e.v if e.u == w else e.u
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return seen

    def is_connected(self) -> bool:
        return self.num_vertices <= 1 or len(self.component(self.vertices[0])) == self.num_vertices

    def induced(self, vertices) -> "ResistanceNetwork":
        """Subnetwork on the given vertices and the edges inside them."""
        vs = set(vertices)
        unknown = vs - set(self.vertices)
        if unknown:
            raise NetworkError(f"unknown vertices {sorted(unknown, key=vertex_key)!r}")
        edges = [e for e in self.edges if e.u in vs and e.v in vs]
        return ResistanceNetwork(edges, vs)

    def reweighted(self, mapping) -> "ResistanceNetwork":
        """Copy with selected edges reweighted.

        `mapping` takes unordered vertex pairs (u, v) to new resistances.
        Pairs must address exactly one existing edge each.
        """
        wanted = {}
        for (u, v), r in dict(mapping).items():
            e = Edge(u, v, r)
            key = (e.u, e.v)
            if key in wanted:
                raise InvalidNetworkError(f"pair ({u!r}, {v!r}) given twice")
            wanted[key] = e
        edges = []
        seen = set()
        for e in self.edges:
            key = (e.u, e.v)
            if key in wanted:
                if key in seen:
                    raise NotReducibleError(f"parallel edges between {key[0]!r} and {key[1]!r}; reweight is ambiguous")
                seen.add(key)
                edges.append(wanted[key])
            else:
                edges.append(e)
        missing = set(wanted) - seen
        if missing:
            raise NetworkError(f"no edge for pairs {sorted(missing, key=lambda p: (vertex_key(p[0]), vertex_key(p[1])))!r}")
        return ResistanceNetwork(edges, self.vertices)

    def __eq__(self, other):
        if not isinstance(other, ResistanceNetwork):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"ResistanceNetwork({self.num_vertices} vertices, {self.num_edges} edges)"


# ---------------------------------------------------------------------------
# reduction steps and traces


class ReductionStep(NamedTuple):
    """One reduction: the op and site that made it, the edges it removed and
    added, and the vertex it made, if any.  Applying it eliminates exactly
    the site vertices it leaves without edges."""

    kind: str               # "series" | "parallel" | "delta-wye" | "star-mesh"
    site: tuple             # the op's vertex arguments
    removed_edges: tuple
    added_edges: tuple
    new_vertex: object = None

    def describe(self) -> str:
        where = ", ".join(repr(v) for v in self.site)
        out = f"{self.kind} at ({where})"
        if self.new_vertex is not None:
            out += f" -> new vertex {self.new_vertex!r}"
        return out

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "site": list(self.site),
            "removed": [[e.u, e.v, format_rational(e.r)] for e in self.removed_edges],
            "added": [[e.u, e.v, format_rational(e.r)] for e in self.added_edges],
        }
        if self.new_vertex is not None:
            out["new_vertex"] = self.new_vertex
        return out


class ReductionTrace(_Incidence):
    """A network under reduction and the steps applied to it so far.

    Each vertex keeps its incident edges, read as a `ResistanceNetwork`'s
    are, so a step costs time in its own size.  Only `apply` changes the
    network; `network()` returns it as a `ResistanceNetwork`.
    """

    def __init__(self, network: ResistanceNetwork):
        self._adj = {v: list(inc) for v, inc in network._adj.items()}
        self._seen = set(self._adj)
        self.steps = []

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def network(self) -> ResistanceNetwork:
        return ResistanceNetwork((e for v, inc in self._adj.items() for e in inc if e.u == v), self._adj)

    def apply(self, step: ReductionStep) -> ReductionStep:
        """Remove the step's removed edges, add its added edges, drop the site
        vertices it leaves without edges, and record the step.

        Refused with NotReducibleError, before any change, if a removed edge
        is absent or if a new vertex (an end of an added edge that the
        network lacks) is named like a vertex the trace ever had: so a
        vertex kept from the start was kept at every step.
        """
        adj = self._adj
        for e, count in Counter(step.removed_edges).items():
            if adj.get(e.u, ()).count(e) < count:
                raise NotReducibleError(f"removed edge {e} is absent")
        new = {w for e in step.added_edges for w in e[:2] if w not in adj}
        if new & self._seen:
            raise NotReducibleError(f"new vertex {min(new & self._seen, key=vertex_key)!r} was used before")
        for e in step.removed_edges:
            adj[e.u].remove(e)
            adj[e.v].remove(e)
        for e in step.added_edges:
            adj.setdefault(e.u, []).append(e)
            adj.setdefault(e.v, []).append(e)
        for w in step.site:
            if adj.get(w) == []:
                del adj[w]
        self._seen |= new
        self.steps.append(step)
        return step

    def replay(self, network: ResistanceNetwork) -> ResistanceNetwork:
        """Apply each recorded step to a fresh trace of `network`, certify
        it, and return the network the last step leaves.

        `apply` refuses an absent removed edge and a reused vertex name; the
        step must then pass `step_preserves_resistances` on its vertices
        that the network has both before and after it.  No reduction op
        runs here: the ops and the choice of sites are trusted for nothing.
        Raises NetworkError naming the first step that fails.
        """
        checked = ReductionTrace(network)
        for idx, step in enumerate(self.steps):
            ends = {w for e in step.removed_edges + step.added_edges for w in e[:2]}
            before = {w for w in ends if checked.has_vertex(w)}
            try:
                checked.apply(step)
                if not step_preserves_resistances(step, {w for w in before if checked.has_vertex(w)}):
                    raise NotReducibleError("resistances among its survivors change")
            except NotReducibleError as err:
                raise NetworkError(f"replay refused step {idx}: {step.describe()}: {err}") from None
        return checked.network()


def step_preserves_resistances(step: ReductionStep, survivors) -> bool:
    """Local certificate that `step` keeps every effective resistance among
    the vertices the network has both before and after it.

    `survivors` are the step's vertices in both networks; the others are
    eliminated (in removed edges only) or new (in added edges only), as
    `replay` works them out.  Edges outside the step are common to both
    networks, so Kron reduction of the removed side and of the added side
    (`_eliminate` of every other vertex) must leave equal conductances among
    the survivors.  Each side is as small as the step (at most 4 vertices
    for series and delta-wye).  A side that leaves survivors disconnected,
    or a component without one (a zero pivot), fails; one survivor or none
    passes.
    """
    survivors = set(survivors)
    if len(survivors) < 2:
        return True
    sides = [_conductance_graph(edges, survivors) for edges in (step.removed_edges, step.added_edges)]
    for graph in sides:
        for w in [w for w in graph if w not in survivors]:
            if not _eliminate(graph, w)[0]:
                return False
        reached = [next(iter(graph))]
        for v in reached:
            reached += [q for q in graph[v] if q not in reached]
        if len(reached) < len(graph):
            return False
    return sides[0] == sides[1]


# ---------------------------------------------------------------------------
# reduction operations


def _step(kind, site, removed, added, new_vertex=None) -> ReductionStep:
    """The step with each side in `_edge_order`, as a network stores edges."""
    return ReductionStep(kind, site, tuple(sorted(removed, key=_edge_order)),
                         tuple(sorted(added, key=_edge_order)), new_vertex)


def series_reduce(trace: ReductionTrace, y) -> ReductionStep:
    """Replace x - y - z (y of degree 2, x != z) by one edge (x, z) with r1 + r2.

    The new edge is kept alongside any existing (x, z) edges; merge those with
    parallel_reduce explicitly.
    """
    inc = trace.incident(y)
    if len(inc) != 2:
        raise NotReducibleError(f"vertex {y!r} has degree {len(inc)}, need exactly 2")
    e1, e2 = inc
    x = e1.v if e1.u == y else e1.u
    z = e2.v if e2.u == y else e2.u
    if x == z:
        raise NotReducibleError(f"vertex {y!r} has parallel edges to {x!r}; not a series site")
    return trace.apply(_step("series", (y,), inc, [Edge(x, z, e1.r + e2.r)]))


def parallel_reduce(trace: ReductionTrace, x, y) -> ReductionStep:
    """Replace all k >= 2 edges between x and y by one with 1/r = sum(1/r_i)."""
    bundle = trace.edges_between(x, y)
    if len(bundle) < 2:
        raise NotReducibleError(f"need >= 2 parallel edges between {x!r} and {y!r}, found {len(bundle)}")
    conductance = sum(1 / e.r for e in bundle)
    pair = bundle[0].u, bundle[0].v  # (x, y) in vertex order
    return trace.apply(_step("parallel", pair, bundle, [Edge(*pair, 1 / conductance)]))


def delta_y(trace: ReductionTrace, x, y, z, new_vertex) -> ReductionStep:
    """Replace triangle edges on {x, y, z} by a star through `new_vertex`.

    With R_a = r(y, z), R_b = r(x, z), R_c = r(x, y) and S = R_a + R_b + R_c,
    the star edges are (x, w, R_b*R_c/S), (y, w, R_a*R_c/S), (z, w, R_a*R_b/S).
    Each triangle side must be a single edge; merge parallels first.
    """
    corners = (x, y, z)
    if len(set(corners)) != 3:
        raise NotReducibleError(f"triangle corners must be distinct: {corners!r}")
    sides = []
    for p, q in ((y, z), (x, z), (x, y)):
        bundle = trace.edges_between(p, q)
        if len(bundle) != 1:
            raise NotReducibleError(
                f"need exactly one edge between {p!r} and {q!r}, found {len(bundle)}")
        sides += bundle
    if trace.has_vertex(new_vertex):
        raise NotReducibleError(f"new vertex {new_vertex!r} already present")
    r_a, r_b, r_c = (e.r for e in sides)
    total = r_a + r_b + r_c
    star = [Edge(x, new_vertex, r_b * r_c / total), Edge(y, new_vertex, r_a * r_c / total),
            Edge(z, new_vertex, r_a * r_b / total)]
    return trace.apply(_step("delta-wye", corners, sides, star, new_vertex))


def star_mesh_eliminate(trace: ReductionTrace, v) -> ReductionStep:
    """Remove v and connect its neighborhood as a mesh (`_eliminate`).

    Each neighbor pair gains conductance c_p*c_q / C, merged with any
    existing edges between them into one edge.  Degree 1 removes a pendant;
    degree 2 matches series plus a parallel merge; degree 3 matches
    wye-delta.
    """
    removed = list(trace.incident(v))
    neighbors = trace.neighbors(v)
    pairs = [(p, q) for i, p in enumerate(neighbors) for q in neighbors[i + 1:]]
    for p, q in pairs:
        removed += trace.edges_between(p, q)
    graph = _conductance_graph(removed, (v,))
    _eliminate(graph, v)
    mesh = [Edge(p, q, 1 / graph[p][q]) for p, q in pairs]
    return trace.apply(_step("star-mesh", (v,), removed, mesh))


def reduce_series_parallel(net: ResistanceNetwork, keep=()):
    """Greedily apply parallel then series reductions until none applies.

    Vertices in `keep` are never series-eliminated.  Each site is the least
    in vertex order.  First every parallel bundle is merged (a bundle's
    edges are neighbours in `net.edges`), which leaves the network simple.
    Then the vertices outside `keep` come off a heap, and each that has
    degree 2 when popped is a series site.  A series step keeps its ends'
    degrees unless they were already joined; the bundle it then makes is
    merged at once, and that merge lowers the two ends' degrees, the only
    degrees that ever change, so they go back on the heap.

    Returns (network, trace).
    """
    keep = set(keep)
    trace = ReductionTrace(net)
    edges = net.edges
    for pair in dict.fromkeys(e[:2] for e, f in zip(edges, edges[1:]) if e[:2] == f[:2]):
        parallel_reduce(trace, *pair)
    heap = [(vertex_key(v), v) for v in net.vertices if v not in keep]  # sorted: a heap
    while heap:
        y = heapq.heappop(heap)[1]
        if trace.has_vertex(y) and trace.degree(y) == 2:
            (joined,) = series_reduce(trace, y).added_edges
            if len(trace.edges_between(joined.u, joined.v)) > 1:
                parallel_reduce(trace, joined.u, joined.v)
                for w in {joined.u, joined.v} - keep:
                    heapq.heappush(heap, (vertex_key(w), w))
    return trace.network(), trace


# ---------------------------------------------------------------------------
# exact linear algebra


def _conductance_graph(edges, vertices=()) -> dict:
    """Vertex -> {neighbor: conductance} over `vertices` and the edges' ends.
    An edge of resistance 1/k conducts the int k, so the merged conductances
    of a unit network are ints, made without a Fraction."""
    graph = {v: {} for v in vertices}
    for e in edges:
        r = e.r
        c = graph.setdefault(e.u, {}).get(e.v, 0) + (r.denominator if r.numerator == 1 else 1 / r)
        graph[e.u][e.v] = graph.setdefault(e.v, {})[e.u] = c
    return graph


def _eliminate(graph: dict, v) -> tuple:
    """Star-mesh elimination of v from a conductance graph, in place.

    Each pair p, q of v's neighbors gains conductance c_p c_q / C, where C
    sums v's conductances: a Schur complement step with pivot C.  Returns C,
    a Rational even when every c is an int, and v's star {q: c_q}; an
    isolated v gives (0, {}).
    """
    star = graph.pop(v)
    total = sum(star.values(), Rational(0))
    ratios = [(q, c / total) for q, c in star.items()]
    for i, (q, _) in enumerate(ratios):
        row_q = graph[q]
        del row_q[v]
        c_q = star[q]
        for s, l_s in ratios[i + 1:]:
            row_q[s] = graph[s][q] = row_q.get(s, 0) + c_q * l_s
    return total, star


def _gauss_solve(rows, rhs_list):
    """Solve A x = b over the rationals for each b, with partial pivoting.

    The pivot is the largest-magnitude entry in the current column.  Raises
    ZeroDivisionError on a singular matrix.
    """
    n = len(rows)
    width = n + len(rhs_list)
    a = [[Rational(x) for x in row] + [Rational(b[i]) for b in rhs_list]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        if a[piv_row][col] == 0:
            raise ZeroDivisionError("singular matrix")
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
        piv = a[col][col]
        for i in range(col + 1, n):
            f = a[i][col]
            if f == 0:
                continue
            f /= piv
            row_i, row_c = a[i], a[col]
            for j in range(col, width):
                row_i[j] -= f * row_c[j]
    solutions = []
    for k in range(len(rhs_list)):
        x = [Rational(0)] * n
        for i in range(n - 1, -1, -1):
            acc = a[i][n + k]
            row_i = a[i]
            for j in range(i + 1, n):
                acc -= row_i[j] * x[j]
            x[i] = acc / row_i[i]
        solutions.append(x)
    return solutions


def _rcm_order(graph: dict) -> list:
    """Reverse Cuthill-McKee order of the least vertex's component.

    Breadth-first search visits each vertex's unvisited neighbors by
    increasing degree (ties by vertex_key).  It starts from a far vertex:
    the last one reached by a first search from the least vertex.  On a
    chain that is an end of the chain and the order runs along it, so the
    bandwidth stays a small constant.  Each vertex's key (degree,
    vertex_key) is made once per call.
    """
    key = {v: (len(row), vertex_key(v)) for v, row in graph.items()}

    def bfs(start):
        order = [start]
        seen = {start}
        for v in order:
            fresh = sorted((w for w in graph[v] if w not in seen), key=key.__getitem__)
            seen.update(fresh)
            order.extend(fresh)
        return order

    return bfs(bfs(min(graph, key=vertex_key))[-1])[::-1]


class _GroundedFactor:
    """Exact K = L D L^T of the grounded Laplacian K of a connected network.

    K is the conductance Laplacian with the ground vertex's row and column
    deleted.  The other vertices are eliminated in reverse Cuthill-McKee
    order, but the `read` vertices after all the rest, in their given
    order; without a given ground the last vertex of the order, the far end
    of the breadth-first search, is grounded.  K is positive definite, so
    every pivot must be positive; a pivot that is not raises
    ArithmeticError.  Only this class knows the order and the ground:
    `solve` and `inverse` take and give maps keyed by vertex, zero at the
    ground, and scaled by `scale`, so r(u, v) = (W_uu + W_vv - 2 W_uv) /
    scale for W = scale Z, Z = K^-1, and every pair.  A one-vertex network
    factors to nothing: W is zero and the scale 1.

    The representation is picked from the merged conductances alone:

    * `integral`, when every one is an integer: a fraction-free (Bareiss)
      elimination.  With Delta_k the leading minor of K after k
      eliminations, a remaining conductance c is stored as the integer
      Delta_k c (Sylvester's identity), so the pivot of step k is
      P = Delta_{k+1}, the sum of the star's stored entries, and a mesh
      entry becomes (P g_pq + g_vp g_vq) / Delta_k.  Each entry keeps the
      step it was written at and is brought to step k, times
      Delta_k / Delta_e, only when read, so a step costs time in its own
      band.  Then scale = det K = Delta_V, and W = adj K is an integer
      matrix;
    * otherwise `_eliminate` over the rationals: the stored entries are the
      conductances themselves, the pivot of p is the conductance at p when
      it goes, and scale = 1.

    `order` lists the eliminated vertices, `first` the start of the block
    that `inverse(block=True)` reads (the place of the first read vertex in
    `order`, or 0 if none, so that the block is every vertex), `pivots`
    their pivots, `leads` the minor Delta_p before each (1 over the
    rationals), and `cols[p]` the pairs (q, g_qp) for the later neighbors q
    of the p-th vertex but the ground, with g_qp its stored entry at step
    p; so L_qp = -g_qp / pivot_p.
    Every division of the integral representation goes through the checked
    `_exact`, which raises ArithmeticError if it is inexact.
    """

    def __init__(self, net: ResistanceNetwork, ground=None, read=()):
        if not net.num_vertices:
            raise NetworkError("empty network")
        if ground is not None:
            net.require_vertex(ground)
        for v in read:
            net.require_vertex(v)
        graph = _conductance_graph(net.edges, net.vertices)
        order = _rcm_order(graph)
        if len(order) < len(graph):
            raise ConnectivityError("network is not connected")
        if ground is None:
            ground = order[-1]
        tail = dict.fromkeys(v for v in read if v != ground)
        order = [v for v in order if v != ground and v not in tail] + list(tail)
        self.ground, self.order, self.first = ground, order, len(order) - len(tail) if tail else 0
        self.integral = all(c.denominator == 1 for row in graph.values() for c in row.values())
        self.pivots, self.cols = [], []
        if self.integral:
            self._div = _exact
            self._bareiss({v: {q: (c.numerator, 0) for q, c in row.items()} for v, row in graph.items()})
        else:
            self._div = truediv
            for v in order:
                pivot, star = _eliminate(graph, v)
                self._append(v, pivot, star.items())
            self.leads, self.scale = [1] * len(order), 1

    def _append(self, v, pivot, star):
        if pivot <= 0:
            raise ArithmeticError(f"non-positive pivot {pivot} at {v!r}")
        self.pivots.append(pivot)
        self.cols.append([(q, g) for q, g in star if q != self.ground])

    def _bareiss(self, graph: dict):
        """Eliminate `order` from `graph`, whose entries are (Delta_e c, e)."""
        minors = [1]
        for k, v in enumerate(self.order):
            lead = minors[k]
            star = [(q, g if e == k else _exact(g * lead, minors[e])) for q, (g, e) in graph.pop(v).items()]
            pivot = sum(g for _, g in star)
            for i, (p, g_p) in enumerate(star):
                row_p = graph[p]
                del row_p[v]
                for q, g_q in star[i + 1:]:
                    g, e = row_p.get(q, (0, k))
                    if e != k:
                        g = _exact(g * lead, minors[e])
                    row_p[q] = graph[q][p] = (_exact(pivot * g + g_p * g_q, lead), k + 1)
            self._append(v, pivot, star)
            minors.append(pivot)
        self.leads, self.scale = minors[:-1], minors[-1]

    def solve(self, rhs: dict) -> dict:
        """scale K^-1 rhs over vertex -> value maps: a vertex missing from
        `rhs` counts as 0 and the ground's entry is ignored; the result is 0
        at the ground.  An integral factor takes integer right-hand sides.

        The forward pass eliminates rhs as one more column of K: an
        integral factor keeps its entries as Delta_k times their value
        after k steps, brought forward lazily like the factor's own.
        """
        order, pivots, leads, cols, div = self.order, self.pivots, self.leads, self.cols, self._div
        x = {v: rhs.get(v, 0) for v in order}
        if self.integral:
            at = dict.fromkeys(order, 0)
            for k, (v, pivot, lead, col) in enumerate(zip(order, pivots, leads, cols)):
                x_v = x[v] = _exact(x[v] * lead, leads[at[v]])
                for q, g in col:
                    x_q = x[q] if at[q] == k else _exact(x[q] * lead, leads[at[q]])
                    x[q] = _exact(pivot * x_q + g * x_v, lead)
                    at[q] = k + 1
        else:
            for v, pivot, col in zip(order, pivots, cols):
                y = x[v] / pivot
                for q, c in col:
                    x[q] += c * y
        scale = self.scale
        for v, pivot, col in zip(reversed(order), reversed(pivots), reversed(cols)):
            x[v] = div(scale * x[v] + sum(g * x[q] for q, g in col), pivot)
        x[self.ground] = 0
        return x

    def inverse(self, block=False) -> dict:
        """W = scale K^-1 by the Takahashi recurrence, last column first,
        keyed by vertex and extended by zeros at the ground.

        W_qp = (sum over (s, g_sp) in cols[p] of W_qs g_sp) / pivot_p for q
        later than p, and W_pp = (scale lead_p + sum of g_qp W_qp) / pivot_p.
        The recurrence only reads W on the filled pattern (the later
        neighbors of p form a clique once p is eliminated), so by default
        only those entries are computed, in O(V b^2) for bandwidth b, and
        W_gg = 0 at the ground g.  `block` runs only the steps of the block,
        the vertices from `first` on, which read only one another, and gives
        W on every pair of them and g: the inverse of the Kron reduction onto
        the read vertices, or all of W, in O(V^2 b), for a factor with none.
        Returns w with w[u][v] = W_uv, symmetric, diagonal included.
        """
        order, g, div = self.order, self.ground, self._div
        first = self.first if block else 0
        w = {v: {} for v in order[first:]}
        for p in range(len(order) - 1, first - 1, -1):
            v, col, pivot = order[p], self.cols[p], self.pivots[p]
            w_v = w[v]
            for q in (order[p + 1:] if block else (q for q, _ in col)):
                w_q = w[q]
                w_v[q] = w_q[v] = div(sum(w_q[s] * g_s for s, g_s in col), pivot)
            w_v[v] = div(self.scale * self.leads[p] + sum(g_q * w_v[q] for q, g_q in col), pivot)
        w[g] = {g: 0}
        if block:
            for v in order[first:]:
                w[v][g] = w[g][v] = 0
        return w


def grounded_resistances(net: ResistanceNetwork, ground) -> dict:
    """r(ground, v) for every other vertex v, in vertex order.

    With the grounded Laplacian K (ground row and column deleted),
    r(ground, v) = (K^-1)_vv, read off the Takahashi diagonal of one
    factorization.
    """
    factor = _GroundedFactor(net, ground)
    w = factor.inverse()
    return {v: Rational(w[v][v], factor.scale) for v in net.vertices if v != ground}


def terminal_resistances(net: ResistanceNetwork, x, y, read) -> tuple:
    """(u, r(u, x), r(u, y)) for each u in `read`, in its order.

    One factorization grounded at x that eliminates `read` and y last, so
    Z = K^-1 on them is its last Takahashi steps alone, with no solve:
    r(u, x) = Z_uu and r(u, y) = Z_uu + Z_yy - 2 Z_uy (Z is zero at x).
    """
    if y == x:
        raise NetworkError(f"terminals coincide at {x!r}")
    factor = _GroundedFactor(net, x, (*read, y))
    w = factor.inverse(block=True)
    w_y, scale = w[y], factor.scale
    return tuple((u, Rational(w[u][u], scale), Rational(w[u][u] + w_y[y] - 2 * w_y[u], scale))
                 for u in read)


def resistance_sum(net: ResistanceNetwork, x) -> Rational:
    """Sum of effective resistances from x to every other vertex."""
    return sum(grounded_resistances(net, x).values(), Rational(0))


def _sum_numerators(net: ResistanceNetwork, ground=None) -> tuple:
    """(s, W, sums) from one factorization grounded at `ground` (any vertex
    if None): W = s Z for Z = K^-1 on the filled pattern, zero at the
    ground, and sums[u] = s times the sum of r(u, v) over every v.

    Since r(u, v) = Z_uu + Z_vv - 2 Z_uv, that sum is
    N Z_uu + tr(Z) - 2 (Z 1)_u (Klein and Randic 1993): the Takahashi
    diagonal and one solve against the all-ones vector.
    """
    factor = _GroundedFactor(net, ground)
    w = factor.inverse()
    row = factor.solve(dict.fromkeys(net.vertices, 1))
    n, trace = net.num_vertices, sum(w[v][v] for v in net.vertices)
    return factor.scale, w, {v: n * w[v][v] + trace - 2 * row[v] for v in net.vertices}


def resistance_sums(net: ResistanceNetwork) -> dict:
    """Per-vertex sums of effective resistances to every other vertex."""
    scale, _, sums = _sum_numerators(net)
    return {v: Rational(x, scale) for v, x in sums.items()}


def kirchhoff_index(net: ResistanceNetwork) -> Rational:
    """Sum of effective resistances over unordered pairs of vertices: half
    the sum of the per-vertex sums, divided once."""
    scale, _, sums = _sum_numerators(net)
    return Rational(sum(sums.values()), 2 * scale)


def effective_resistance(net: ResistanceNetwork, u, v) -> Rational:
    """Effective resistance between u and v.

    Independent of the reduction engine and of the factorization behind the
    other solvers: build the dense conductance Laplacian over the rationals,
    ground v, solve K phi = e_u by Gaussian elimination with largest-magnitude
    pivoting, and read phi(u).
    """
    net.require_vertex(u)
    net.require_vertex(v)
    if u == v:
        return Rational(0)
    if not net.is_connected():
        raise ConnectivityError("network is not connected")
    graph = _conductance_graph(net.edges, net.vertices)
    order = [w for w in net.vertices if w != v]
    index = {w: i for i, w in enumerate(order)}
    rows = []
    for w in order:
        row = [0] * len(order)
        row[index[w]] = sum(graph[w].values())
        for x, c in graph[w].items():
            if x != v:
                row[index[x]] = -c
        rows.append(row)
    rhs = [0] * len(order)
    rhs[index[u]] = 1
    return _gauss_solve(rows, [rhs])[0][index[u]]


class ResistanceMatrix(NamedTuple):
    """Symmetric matrix of pairwise effective resistances: r(u, v) is
    numerators[i][j] / scale for the places i, j of u and v in `order`.
    The numerators W_uu + W_vv - 2 W_uv are ints over det K from an
    integral factor, Rationals over 1 otherwise; each reader divides once,
    after summing them."""

    order: tuple
    numerators: tuple  # tuple of tuples, aligned with `order`; zero diagonal
    scale: int
    positions: dict    # vertex -> its place in `order`

    @property
    def values(self) -> tuple:
        """Tuple of tuples of Rational, aligned with `order`."""
        scale = self.scale
        return tuple(tuple(Rational(x, scale) for x in row) for row in self.numerators)

    def resistance(self, u, v) -> Rational:
        return Rational(self.numerators[self.positions[u]][self.positions[v]], self.scale)

    def row_sum(self, u) -> Rational:
        return Rational(sum(self.numerators[self.positions[u]]), self.scale)

    def total(self) -> Rational:
        """Sum over unordered pairs (the Kirchhoff index)."""
        return Rational(sum(map(sum, self.numerators)), 2 * self.scale)

    def json_rows(self, level: int = 0):
        """Rows of formatted entries as json.dumps(rows, indent=2) writes them at
        nesting `level`: one piece a row, then the closing bracket.  Each unordered
        pair is formatted once, by one gcd with the scale, held until its mirror row."""
        scale, pad = self.scale, "  " * level
        sep, opener, close = f'",\n{pad}    "', f'\n{pad}  [\n{pad}    "', f'"\n{pad}  ]'
        held = [[] for _ in self.order]  # held[j]: the texts of (k, j) for k < j
        for i, row in enumerate(self.numerators):
            upper = [format_rational(x) for x in row[i + 1:]] if scale == 1 else [
                f"{x // g}/{scale // g}" if (g := gcd(x, scale)) < scale else str(x // g) for x in row[i + 1:]]
            for texts, text in zip(held[i + 1:], upper):
                texts.append(text)
            yield ("," if i else "[") + opener + sep.join(held[i] + ["0"] + upper) + close
            held[i] = None
        yield f"\n{pad}]"


def resistance_matrix(net: ResistanceNetwork) -> ResistanceMatrix:
    """All pairwise effective resistances from one factorization.

    The full Takahashi recurrence gives every entry of W = scale Z for
    Z = K^-1 (grounded, extended by zeros at the ground); the matrix holds
    the numerators W_uu + W_vv - 2 W_uv over the factor's scale.
    """
    vs = net.vertices
    n = len(vs)
    factor = _GroundedFactor(net)
    w = factor.inverse(block=True)
    diag = [w[v][v] for v in vs]
    rows = [[0] * n for _ in range(n)]
    for i, (w_i, d_i, row_i) in enumerate(zip(map(w.pop, vs), diag, rows)):
        for j in range(i + 1, n):
            row_i[j] = rows[j][i] = d_i + diag[j] - 2 * w_i[vs[j]]
    return ResistanceMatrix(vs, tuple(map(tuple, rows)), factor.scale, {v: i for i, v in enumerate(vs)})


# ---------------------------------------------------------------------------
# staged simplification of terminal chains


def simplify_chain_circuit(chain):
    """Reduce everything left of a terminal chain's last hexagon to a star.

    Cells are processed left to right (square, hexagon, square, ...; the last
    hexagon is never touched).  For each cell: series-eliminate its degree-2
    vertices except the kept anchor and the pair shared with the next cell,
    then delta-wye the resulting triangle into a fresh hub z_t.  The hubs form
    a pendant path a_1 - z_1 - ... - z_{2n-1}; the last hub ends attached to
    the terminal hexagon's shared pair.

    Returns (network, trace).
    """
    n = len(chain.square_corners)
    a1 = chain.a1
    cells = []
    pairs = []
    for i in range(n):
        a, b, k, l = chain.square_corners[i]
        cells.append((a, b, k, l))
        pairs.append((b, k))
        if i + 1 < n:
            hexagon = chain.hexagons[i]
            cells.append(hexagon)
            pairs.append((hexagon[1], hexagon[2]))
    trace = ReductionTrace(chain.network)
    anchor = a1
    for t, (cell, (p, q)) in enumerate(zip(cells, pairs), start=1):
        keep = {a1, p, q}
        for v in sorted(cell, key=vertex_key):
            if v not in keep and trace.has_vertex(v) and trace.degree(v) == 2:
                series_reduce(trace, v)
        hub = f"z{t}"
        delta_y(trace, anchor, p, q, new_vertex=hub)
        anchor = hub
    return trace.network(), trace


# ---------------------------------------------------------------------------
# edge-list output (a chain's DOT text is `chain_model.chain_to_dot`)


def format_edge_list(net: ResistanceNetwork) -> str:
    lines = [f"{e.u} {e.v} {format_rational(e.r)}" for e in net.edges]
    return "\n".join(lines) + ("\n" if lines else "")
